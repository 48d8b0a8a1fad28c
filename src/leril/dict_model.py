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

A dictionary has two layouts, both written here: the text form
(``emit_dictionary``) and the interchange JSON (``emit_interchange``). The
JSON is written with one f-string per gloss component, sense and entry, and
its strings are escaped by ``diagnostics.json_string``, which loads no
``json`` package. Cost, on the 1.2 MB ``dict parse`` document of the
benchmark lexicon (min of 15 in-process runs, 2-CPU Xeon, Python 3.11): about
6 ms, against 42 ms for ``json.dumps`` of the same document as dicts and
lists, which is the reference the writer is tested against;
``parse_dictionary`` takes about 8 ms, which ``leril batch`` pays once for
the same bytes (``cli._parse``).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .diagnostics import Diagnostic, LerilError, error, info, json_string, split_lines, warning


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
# Matched against lines stripped with str.strip, which strips what \s matches.
_HEADWORD_RE = re.compile(r'"([^"]+)"\s*,\s*"([^"]*)"\s*,?$')
_SENSE_RE = re.compile(r'--\s*"(\d+)\.(.*)"$')
_BRACKET_RE = re.compile(r"[\[\]{}]")  # the first one ends the body of a gloss
# An annotation's opening character -> its name, the text that opens it, its closer.
_ANNOTATIONS = {"[": ("derivation", "[<", "]"), "{": ("context", "{", "}")}


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
    for chunk in body.split("~"):
        if not chunk:
            raise GlossParseError("empty gloss component", position=offset + 1)
        alternatives = tuple(chunk.split("/"))
        if "" in alternatives:  # it starts after its '/', or at a leading one
            position = offset + f"/{chunk}/".find("//") + 1
            raise GlossParseError("empty gloss alternative", position=position)
        components.append(_tuple_new(GlossComponent, (alternatives, offset > 0)))
        offset += len(chunk) + 1
    return _tuple_new(GlossExpr, (tuple(components), derivation, context))


def _split_annotations(text: str) -> tuple[str, str | None, str | None]:
    first = _BRACKET_RE.search(text)
    if first is None:
        return text, None, None
    body_end = first.start()
    if first.group() in "]}":
        raise GlossParseError(f"unbalanced '{first.group()}'", position=body_end + 1)

    values: dict[str, str] = {}
    pos = body_end
    while pos < len(text):
        if text[pos] not in _ANNOTATIONS:
            raise GlossParseError(
                f"unexpected text after annotations: {text[pos:]!r}", position=pos + 1
            )
        name, opening, closer = _ANNOTATIONS[text[pos]]
        end = text.find(closer, pos)
        if end < 0:
            raise GlossParseError(f"unbalanced '{text[pos]}'", position=pos + 1)
        if not text.startswith(opening, pos):
            raise GlossParseError("expected '<' after '['", position=pos + 2)
        value = text[pos + len(opening) : end].strip()
        if not value:
            raise GlossParseError(f"empty {name} annotation", position=pos + 1)
        if name in values:
            raise GlossParseError(f"duplicate {name} annotation", position=pos + 1)
        values[name] = value
        pos = end + 1
    return text[:body_end], values.get("derivation"), values.get("context")


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

        if line[0] == '"' and (m := _HEADWORD_RE.match(line)):
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
            except GlossParseError as exc:  # its position counts from the opening of the gloss
                column = len(raw) - len(raw.lstrip()) + sm.start(2) + exc.position
                diagnostics.append(error(str(exc), line=lineno, column=column))
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


# "\n" and the indent of each depth of the interchange document, by depth
_DEPTHS = tuple("\n" + "  " * depth for depth in range(9))


def _array(items, pad: str) -> str:
    """The JSON array of the written ``items``; ``pad`` opens its closing line."""
    text = f",{pad}  ".join(items)
    return f"[{pad}  {text}{pad}]" if text else "[]"


def emit_interchange(dictionary: Dictionary) -> str:
    """Interchange JSON: ``json.dumps(doc, ensure_ascii=False, indent=2,
    sort_keys=True) + "\\n"`` of ``{"entries": ..., "format": "shabdaanjali"}``,
    each record written as the object of its fields, its keys in sorted order."""
    _, d1, d2, d3, d4, d5, d6, d7, d8 = _DEPTHS
    entries = []
    for headword, pos, senses in dictionary.entries:
        written = []
        for number, (components, derivation, context), examples in senses:
            units = [
                f'{{{d8}"alternatives": {_array(map(json_string, alternatives), d8)},'
                f'{d8}"joined": {"true" if joined else "false"}{d7}}}'
                for alternatives, joined in components
            ]
            written.append(
                f'{{{d5}"examples": {_array(map(json_string, examples), d5)},'
                f'{d5}"gloss": {{{d6}"components": {_array(units, d6)},'
                f'{d6}"context": {"null" if context is None else json_string(context)},'
                f'{d6}"derivation": {"null" if derivation is None else json_string(derivation)}'
                f'{d5}}},{d5}"number": {number}{d4}}}'
            )
        entries.append(
            f'{{{d3}"headword": {json_string(headword)},{d3}"pos": {json_string(pos)},'
            f'{d3}"senses": {_array(written, d3)}{d2}}}'
        )
    return f'{{{d1}"entries": {_array(entries, d1)},{d1}"format": "shabdaanjali"\n}}\n'
