"""Shabda-Sutra core-meaning formulas and sense-evolution threads.

A formula names the surfaced sense of a word and, in brackets, what it is
derived from: ``viSaya[~~ < niSpAdana]``. ``<`` reads "is derived from"
and each ``~`` marks a turn the sense took in its evolution. The source
may itself be a formula, so derivations nest.

A thread spells the evolution out as stages joined by ``-->``, each with
an optional parenthetical gloss and optional ``eg:`` examples:

    niSpAdana(astitwa meM IAnA/AnA) --> niSpatti kA srota --> niSpatti

Example lists after ``eg:`` are comma-separated; quotes may wrap each
example or the whole list, so commas inside one example are read as
separators. The number of turns is stored, never interpreted.

Cost: a formula line's brackets are paired in one pass, so a derivation
finds its closing ``]`` by lookup instead of rescanning the rest of the
line at every nesting level. The parser still recurses once per level.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from json.encoder import encode_basestring as _json_string

from .diagnostics import Diagnostic, LerilError, error, warning


class SutraParseError(LerilError):
    """Malformed formula or thread; ``position`` is 1-based where known."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class SutraFormula:
    head: str
    derivation: "Derivation | None" = None


@dataclass(frozen=True)
class Derivation:
    turn_count: int
    source: SutraFormula


@dataclass(frozen=True)
class ThreadStage:
    label: str
    gloss: str | None = None
    examples: tuple[str, ...] = ()


@dataclass(frozen=True)
class SenseThread:
    stages: tuple[ThreadStage, ...]


_BRACKET_RE = re.compile(r"[\[\]]")


def parse_formula(text: str) -> SutraFormula:
    """Parse ``HEAD[~* < SOURCE]`` with the source recursively a formula."""
    return _parse_formula(text, 0, len(text), _closing_brackets(text))


def _closing_brackets(text: str) -> dict[int, int]:
    """Position of each ``[`` that is closed -> position of its ``]``.

    One pass over the brackets, so that no nesting level rescans the rest
    of the formula for the ``]`` that closes its derivation.
    """
    closing: dict[int, int] = {}
    open_positions: list[int] = []
    for m in _BRACKET_RE.finditer(text):
        if m.group() == "[":
            open_positions.append(m.start())
        elif open_positions:
            closing[open_positions.pop()] = m.start()
    return closing


def _parse_formula(s: str, start: int, stop: int, closing: dict[int, int]) -> SutraFormula:
    head_end = None
    i = start
    while i < stop:
        ch = s[i]
        if ch == "[":
            head_end = i
            break
        if ch == "]":
            raise SutraParseError("unbalanced ']'", position=i + 1)
        if ch == "<":
            raise SutraParseError("'<' outside brackets", position=i + 1)
        if ch == "~":
            raise SutraParseError("'~' outside brackets", position=i + 1)
        i += 1

    if head_end is None:
        head = s[start:stop].strip()
        if not head:
            raise SutraParseError("empty head", position=start + 1)
        return SutraFormula(head)

    head = s[start:head_end].strip()
    if not head:
        raise SutraParseError("empty head", position=start + 1)

    # A source lies strictly inside its enclosing brackets, whose content is
    # balanced, so a bracket closed within [start, stop) is closed there.
    j = closing.get(head_end)
    if j is None:
        raise SutraParseError("unbalanced '['", position=head_end + 1)
    if s[j + 1 : stop].strip():
        raise SutraParseError("unexpected text after derivation", position=j + 2)

    k = head_end + 1
    turns = 0
    while k < j:
        ch = s[k]
        if ch.isspace():
            k += 1
        elif ch == "~":
            turns += 1
            k += 1
        elif ch == "<":
            break
        else:
            raise SutraParseError(
                f"expected '~' or '<' in derivation, found {ch!r}", position=k + 1
            )
    if k >= j or s[k] != "<":
        raise SutraParseError("expected '<' in derivation", position=k + 1)
    source = _parse_formula(s, k + 1, j, closing)
    return SutraFormula(head, Derivation(turns, source))


def emit_formula(formula: SutraFormula) -> str:
    """Canonical text; ``parse_formula(emit_formula(f)) == f``."""
    if formula.derivation is None:
        return formula.head
    d = formula.derivation
    tildes = "~" * d.turn_count
    spacer = " " if d.turn_count else ""
    return f"{formula.head}[{tildes}{spacer}< {emit_formula(d.source)}]"


def innermost_source(formula: SutraFormula) -> str:
    """The deepest source label; the head itself for underived formulas."""
    while formula.derivation is not None:
        formula = formula.derivation.source
    return formula.head


_EG_RE = re.compile(r"\beg\s*:")


def parse_thread(text: str) -> SenseThread:
    """Parse a thread; stages split on ``-->``, whitespace is normalized."""
    normalized = " ".join(text.split())
    stages = []
    for part in normalized.split("-->"):
        part = part.strip()
        if not part:
            raise SutraParseError("empty stage between arrows")
        stages.append(_parse_stage(part))
    return SenseThread(tuple(stages))


def _parse_stage(part: str) -> ThreadStage:
    m = _EG_RE.search(part)
    if m is not None:
        head_part, eg_part = part[: m.start()], part[m.end() :]
    else:
        head_part, eg_part = part, None

    gloss = None
    open_idx = head_part.find("(")
    if open_idx >= 0:
        depth = 0
        close_idx = None
        for i in range(open_idx, len(head_part)):
            if head_part[i] == "(":
                depth += 1
            elif head_part[i] == ")":
                depth -= 1
                if depth == 0:
                    close_idx = i
                    break
        if close_idx is None:
            raise SutraParseError("unbalanced '(' in stage", position=open_idx + 1)
        if head_part[close_idx + 1 :].strip():
            raise SutraParseError("unexpected text after stage gloss")
        gloss = head_part[open_idx + 1 : close_idx].strip()
        label = head_part[:open_idx].strip()
    else:
        if ")" in head_part:
            raise SutraParseError("unbalanced ')' in stage")
        label = head_part.strip()

    if not label:
        raise SutraParseError("empty stage label")

    examples: tuple[str, ...] = ()
    if eg_part is not None:
        quoted = re.findall(r'"([^"]*)"', eg_part)
        source = quoted if quoted else [eg_part]
        items = [piece.strip() for q in source for piece in q.split(",")]
        examples = tuple(piece for piece in items if piece)
        if not examples:
            raise SutraParseError("no examples after 'eg:'")
    return ThreadStage(label, gloss, examples)


def emit_thread(thread: SenseThread) -> str:
    """Canonical text of a thread, one line, examples individually quoted.

    Round-trips exactly for parsed threads; examples must stay comma-free
    since commas act as example separators on re-parse.
    """
    parts = []
    for stage in thread.stages:
        text = stage.label
        if stage.gloss is not None:
            text += f"({stage.gloss})"
        if stage.examples:
            text += " eg: " + ", ".join(f'"{e}"' for e in stage.examples)
        parts.append(text)
    return " --> ".join(parts)


def load_aliases(text: str) -> dict[str, set[str]]:
    """Read alias lines ``label TAB alias``; ``#`` comments are skipped."""
    aliases: dict[str, set[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in raw.split("\t")]
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise SutraParseError(f"line {lineno}: expected 'label TAB alias'")
        aliases.setdefault(parts[0], set()).add(parts[1])
    return aliases


def _labels_match(a: str, b: str, aliases: dict[str, set[str]] | None) -> bool:
    if a == b:
        return True
    if aliases is None:
        return False
    return b in aliases.get(a, ()) or a in aliases.get(b, ())


def check_consistency(
    formula: SutraFormula,
    thread: SenseThread,
    aliases: dict[str, set[str]] | None = None,
) -> list[Diagnostic]:
    """Check that a formula and its expanded thread tell the same story.

    Warns when the formula's innermost source differs from the thread's
    first stage, and when the head matches no stage label. The alias table
    records label equivalences the notation itself leaves implicit.
    """
    diagnostics: list[Diagnostic] = []
    core = innermost_source(formula)
    first = thread.stages[0].label
    if not _labels_match(core, first, aliases):
        diagnostics.append(
            warning(f"formula core '{core}' differs from first thread stage '{first}'")
        )
    if not any(_labels_match(formula.head, st.label, aliases) for st in thread.stages):
        diagnostics.append(
            warning(f"formula head '{formula.head}' matches no thread stage")
        )
    return diagnostics


def parse_formula_file(text: str) -> tuple[list[SutraFormula], list[Diagnostic]]:
    """One formula per nonblank line; ``#`` comments skipped."""
    formulas: list[SutraFormula] = []
    diagnostics: list[Diagnostic] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            formulas.append(parse_formula(line))
        except SutraParseError as exc:
            diagnostics.append(error(str(exc), line=lineno, column=exc.position))
    return formulas, diagnostics


def parse_thread_file(text: str) -> tuple[list[SenseThread], list[Diagnostic]]:
    """Threads written one per line or as blocks of ``-->`` continuation lines."""
    threads: list[SenseThread] = []
    diagnostics: list[Diagnostic] = []
    block: list[str] = []
    block_line = 0

    def flush() -> None:
        nonlocal block
        if not block:
            return
        try:
            threads.append(parse_thread(" ".join(block)))
        except SutraParseError as exc:
            diagnostics.append(error(str(exc), line=block_line))
        block = []

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            flush()
            continue
        if line.startswith("#"):
            continue
        if line.startswith("-->"):
            if not block:
                diagnostics.append(error("'-->' continuation without a stage", line=lineno))
                continue
            block.append(line)
        else:
            flush()
            block = [line]
            block_line = lineno
    flush()
    return threads, diagnostics


def formula_to_interchange(formula: SutraFormula) -> dict:
    doc: dict = {"head": formula.head}
    if formula.derivation is None:
        doc["derivation"] = None
    else:
        doc["derivation"] = {
            "turn_count": formula.derivation.turn_count,
            "source": formula_to_interchange(formula.derivation.source),
        }
    return doc


def formulas_to_json(formulas: list[SutraFormula]) -> str:
    """The text of ``json.dumps({"formulas": [formula_to_interchange(f), ...]},
    ensure_ascii=False, indent=2, sort_keys=True) + "\\n"``, written directly.

    With ``indent`` set, json.dumps runs its pure-Python encoder, one
    nested call per object, which is most of the cost of a file with deeply
    nested derivations. A derivation chain is written top down in one loop.
    """
    if not formulas:
        return '{\n  "formulas": []\n}\n'
    items = ",\n".join(f"    {_formula_json(formula, 4)}" for formula in formulas)
    return f'{{\n  "formulas": [\n{items}\n  ]\n}}\n'


def _formula_json(formula: SutraFormula, margin: int) -> str:
    """One formula object whose closing brace is indented by ``margin``."""
    opening: list[str] = []
    closing: list[str] = []
    while True:
        pad = " " * (margin + 2)
        head = f'{pad}"head": {_json_string(formula.head)}\n{" " * margin}}}'
        derivation = formula.derivation
        if derivation is None:
            opening.append(f'{{\n{pad}"derivation": null,\n{head}')
            break
        inner = " " * (margin + 4)
        opening.append(f'{{\n{pad}"derivation": {{\n{inner}"source": ')
        closing.append(
            f',\n{inner}"turn_count": {derivation.turn_count}\n{pad}}},\n{head}'
        )
        formula = derivation.source
        margin += 4
    return "".join(opening) + "".join(reversed(closing))


def thread_to_interchange(thread: SenseThread) -> dict:
    return {
        "stages": [
            {"label": st.label, "gloss": st.gloss, "examples": list(st.examples)}
            for st in thread.stages
        ]
    }
