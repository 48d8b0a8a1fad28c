"""Shabdaanjali bilingual dictionary format.

An entry opens with a quoted headword line and lists numbered senses, each
followed by example sentences in the source language:

    "go", "V",
    --"1.jAnA"
    I go to school.
    --"2.rakhA~jAnA"
    These clothes go into that suitcase.

Inside a sense gloss, ``~`` ties compound parts into one unit, ``/``
separates alternatives of a single part, a trailing ``[<word]`` names the
gloss this sense derives from, and a trailing ``{word}`` gives a usage
context. Glosses are romanized Indic text and are treated as opaque
strings; no transliteration or normalization is applied.

Parsing is line oriented and never aborts: malformed lines are skipped and
reported as diagnostics. A line that matches the headword pattern always
opens a new entry, so example sentences that happen to look like headword
lines will be misread; hand-authored data does not normally contain them.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .diagnostics import Diagnostic, LerilError, error, info, split_lines, warning


class GlossParseError(LerilError):
    """Raised for malformed gloss micro-syntax; ``position`` is 1-based."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class GlossComponent(NamedTuple):
    """One unit of a gloss; ``joined`` marks units tied by ``~``."""

    alternatives: tuple[str, ...]
    joined: bool = False


class GlossExpr(NamedTuple):
    components: tuple[GlossComponent, ...]
    derivation: str | None = None
    context: str | None = None


class Sense(NamedTuple):
    number: int
    gloss: GlossExpr
    examples: tuple[str, ...] = ()


class DictEntry(NamedTuple):
    headword: str
    pos: str
    senses: tuple[Sense, ...] = ()


class Dictionary(NamedTuple):
    """Parsed dictionary; immutable and safe for concurrent readers."""

    entries: tuple[DictEntry, ...] = ()


# Builds a named tuple from its field tuple, skipping the Python-level __new__.
_tuple_new = tuple.__new__
_HEADWORD_RE = re.compile(r'^\s*"([^"]+)"\s*,\s*"([^"]*)"\s*,?\s*$')
_SENSE_RE = re.compile(r'^\s*--\s*"(\d+)\.(.*)"\s*$')


def parse_gloss(gloss: str) -> GlossExpr:
    """Parse the text between the quotes of a sense line.

    Raises :class:`GlossParseError` on unbalanced brackets or braces, an
    annotation without content, or an empty component.
    """
    body, derivation, context = _split_annotations(gloss)
    if not body:
        raise GlossParseError("gloss has no components", position=1)
    components = []
    offset = 0
    for k, chunk in enumerate(body.split("~")):
        if not chunk:
            raise GlossParseError("empty gloss component", position=offset + 1)
        alternatives = chunk.split("/")
        if any(not alt for alt in alternatives):
            raise GlossParseError("empty gloss alternative", position=offset + 1)
        components.append(GlossComponent(tuple(alternatives), joined=k > 0))
        offset += len(chunk) + 1
    return GlossExpr(tuple(components), derivation, context)


def _split_annotations(text: str) -> tuple[str, str | None, str | None]:
    body_end = None
    for i, ch in enumerate(text):
        if ch in "[{":
            body_end = i
            break
        if ch in "]}":
            raise GlossParseError(f"unbalanced '{ch}'", position=i + 1)
    if body_end is None:
        return text, None, None

    derivation = context = None
    pos = body_end
    while pos < len(text):
        ch = text[pos]
        if ch == "[":
            end = text.find("]", pos)
            if end < 0:
                raise GlossParseError("unbalanced '['", position=pos + 1)
            inner = text[pos + 1 : end]
            if not inner.startswith("<"):
                raise GlossParseError("expected '<' after '['", position=pos + 2)
            value = inner[1:].strip()
            if not value:
                raise GlossParseError("empty derivation annotation", position=pos + 1)
            if derivation is not None:
                raise GlossParseError("duplicate derivation annotation", position=pos + 1)
            derivation = value
            pos = end + 1
        elif ch == "{":
            end = text.find("}", pos)
            if end < 0:
                raise GlossParseError("unbalanced '{'", position=pos + 1)
            value = text[pos + 1 : end].strip()
            if not value:
                raise GlossParseError("empty context annotation", position=pos + 1)
            if context is not None:
                raise GlossParseError("duplicate context annotation", position=pos + 1)
            context = value
            pos = end + 1
        else:
            raise GlossParseError(
                f"unexpected text after annotations: {text[pos:]!r}", position=pos + 1
            )
    return text[:body_end], derivation, context


def emit_gloss(gloss: GlossExpr) -> str:
    """Canonical text of a gloss; annotations come out derivation first."""
    text = "~".join("/".join(c.alternatives) for c in gloss.components)
    if gloss.derivation is not None:
        text += f"[<{gloss.derivation}]"
    if gloss.context is not None:
        text += f"{{{gloss.context}}}"
    return text


def parse_dictionary(text: str) -> tuple[Dictionary, list[Diagnostic]]:
    """Parse dictionary text into a :class:`Dictionary` plus diagnostics.

    Malformed constructs are skipped, one diagnostic each; the parse itself
    never fails.
    """
    diagnostics: list[Diagnostic] = []
    entries: list[DictEntry] = []
    entry_lines: list[int] = []
    # The open entry, as (headword, pos, senses), each sense (number, gloss, examples).
    current: tuple[str, str, list[tuple]] | None = None
    saw_content = False

    for lineno, raw in enumerate(split_lines(text), 1):
        line = raw.strip()
        if not line:
            continue
        saw_content = True

        m = _HEADWORD_RE.match(line)
        if m:
            if current is not None:
                _close_entry(current, entry_lines[-1], entries, diagnostics)
            current = (m.group(1), m.group(2), [])
            entry_lines.append(lineno)
            continue

        if line.startswith("--"):
            sm = _SENSE_RE.match(line)
            try:
                number = int(sm.group(1)) if sm else None
            except ValueError:  # more digits than int() converts
                number = None
            if number is None:
                diagnostics.append(error("malformed sense line", line=lineno))
                continue
            if current is None:
                diagnostics.append(
                    error("sense line before any headword line", line=lineno)
                )
                continue
            try:
                gloss = parse_gloss(sm.group(2))
            except GlossParseError as exc:
                diagnostics.append(error(str(exc), line=lineno, column=exc.position))
                continue
            current[2].append((number, gloss, []))
            continue

        if current is None:
            if line.startswith('"'):
                diagnostics.append(error("malformed headword line", line=lineno))
            else:
                diagnostics.append(error("content before any headword line", line=lineno))
        elif current[2]:
            current[2][-1][2].append(line)
        else:
            diagnostics.append(
                warning("text before the first sense is ignored", line=lineno)
            )

    if current is not None:
        _close_entry(current, entry_lines[-1], entries, diagnostics)

    if not saw_content:
        diagnostics.append(info("empty input: no dictionary entries"))

    seen: set[tuple[str, str]] = set()
    for i, entry in enumerate(entries):
        key = (entry.headword, entry.pos)
        if key in seen:
            diagnostics.append(
                warning(
                    f"duplicate entry for {entry.headword!r} ({entry.pos}); both entries kept",
                    line=entry_lines[i],
                )
            )
        seen.add(key)
    return Dictionary(tuple(entries)), diagnostics


def _close_entry(
    entry: tuple[str, str, list[tuple]],
    line: int,
    entries: list[DictEntry],
    diagnostics: list[Diagnostic],
) -> None:
    """Check the open ``entry`` read from ``line`` and append it, frozen."""
    headword, pos, senses = entry
    numbers = [sense[0] for sense in senses]
    if not numbers:
        diagnostics.append(warning(f"entry '{headword}' has no senses", line=line))
    elif numbers != list(range(1, len(numbers) + 1)):
        diagnostics.append(
            warning(f"non-consecutive sense numbers in entry '{headword}'", line=line)
        )
    frozen = []
    for number, gloss, examples in senses:
        if not examples:
            diagnostics.append(
                warning(f"sense {number} of '{headword}' has no example sentences", line=line)
            )
        frozen.append(_tuple_new(Sense, (number, gloss, tuple(examples))))
    entries.append(_tuple_new(DictEntry, (headword, pos, tuple(frozen))))


def lookup(dictionary: Dictionary, headword: str, pos: str | None = None) -> list[DictEntry]:
    """Exact headword match, optionally filtered by part of speech."""
    return [
        e
        for e in dictionary.entries
        if e.headword == headword and (pos is None or e.pos == pos)
    ]


def frequency_filter(dictionary: Dictionary, wordlist: set[str]) -> Dictionary:
    """Keep only entries whose headword is in ``wordlist``, order preserved."""
    return Dictionary(tuple(e for e in dictionary.entries if e.headword in wordlist))


def emit_dictionary(dictionary: Dictionary) -> str:
    """Canonical text form; re-parsing reproduces the same structure."""
    blocks = []
    for entry in dictionary.entries:
        lines = [f'"{entry.headword}", "{entry.pos}",']
        for sense in entry.senses:
            lines.append(f'--"{sense.number}.{emit_gloss(sense.gloss)}"')
            lines.extend(sense.examples)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""
