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

A parsed formula is flat: its heads, outermost first, and the turns
between them. So ``==``, ``repr`` and ``hash`` are tuple operations, and
no nesting depth is too deep for them.

Cost: a formula line's brackets are paired in one pass, so a derivation
finds its closing ``]`` by lookup instead of rescanning the rest of the
line at every nesting level. Parsing, emitting and the interchange export
are loops over the levels, so no nesting depth is too deep for them either.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from .diagnostics import Diagnostic, LerilError, error, json_string, split_lines, warning


class SutraParseError(LerilError):
    """Malformed formula or thread; ``position`` is 1-based where known."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class SutraFormula(NamedTuple):
    """``heads[k]`` is derived from ``heads[k + 1]`` in ``turns[k]`` turns;
    ``heads[-1]`` is the innermost source."""

    heads: tuple[str, ...]
    turns: tuple[int, ...] = ()

    @property
    def head(self) -> str:
        return self.heads[0]


class ThreadStage(NamedTuple):
    label: str
    gloss: str | None = None
    examples: tuple[str, ...] = ()


class SenseThread(NamedTuple):
    stages: tuple[ThreadStage, ...]


_BRACKET_RE = re.compile(r"[\[\]]")
_PAREN_RE = re.compile(r"[()]")
_HEAD_END_RE = re.compile(r"[\[\]<~]")
_TURNS_RE = re.compile(r"[~\s]*")
_OUTSIDE_BRACKETS = {
    "]": "unbalanced ']'",
    "<": "'<' outside brackets",
    "~": "'~' outside brackets",
}


def parse_formula(text: str) -> SutraFormula:
    """Parse ``HEAD[~* < SOURCE]`` with the source recursively a formula.

    One level at a time, outermost first, so the first error in reading
    order is the one raised.
    """
    closing = _closing_brackets(text, _BRACKET_RE)
    heads: list[str] = []
    turn_counts: list[int] = []
    start, stop = 0, len(text)
    while True:
        m = _HEAD_END_RE.search(text, start, stop)
        if m is not None and m.group() != "[":
            raise SutraParseError(_OUTSIDE_BRACKETS[m.group()], position=m.start() + 1)
        head = text[start : stop if m is None else m.start()].strip()
        if not head:
            raise SutraParseError("empty head", position=start + 1)
        heads.append(head)
        if m is None:
            return SutraFormula(tuple(heads), tuple(turn_counts))
        opening = m.start()
        # A source lies strictly inside its enclosing brackets, whose content
        # is balanced, so a bracket closed within [start, stop) is closed there.
        j = closing.get(opening)
        if j is None:
            raise SutraParseError("unbalanced '['", position=opening + 1)
        if text[j + 1 : stop].strip():
            raise SutraParseError("unexpected text after derivation", position=j + 2)
        turns = _TURNS_RE.match(text, opening + 1, j)
        k = turns.end()
        if k == j:
            raise SutraParseError("expected '<' in derivation", position=k + 1)
        if text[k] != "<":
            raise SutraParseError(
                f"expected '~' or '<' in derivation, found {text[k]!r}", position=k + 1
            )
        turn_counts.append(turns.group().count("~"))
        start, stop = k + 1, j


def _closing_brackets(text: str, brackets: re.Pattern) -> dict[int, int]:
    """Position of each opening bracket that is closed -> position of its
    closer, for the ``[]`` or ``()`` pair that ``brackets`` matches.

    One pass over the brackets, so that no nesting level rescans the rest
    of the text for its closer.
    """
    closing: dict[int, int] = {}
    open_positions: list[int] = []
    for m in brackets.finditer(text):
        if m.group() in "[(":
            open_positions.append(m.start())
        elif open_positions:
            closing[open_positions.pop()] = m.start()
    return closing


def _levels(formula: SutraFormula) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """``formula``'s heads and turns; ValueError unless they make a formula,
    as one built by hand may not."""
    heads, turns = formula
    if type(heads) is not tuple or {*map(type, heads)} != {str}:
        raise ValueError("a formula's heads must be a non-empty tuple of str")
    if len(turns) != len(heads) - 1:
        raise ValueError(f"a formula of {len(heads)} heads needs {len(heads) - 1} turn counts")
    if any(type(n) is not int or n < 0 for n in turns):
        raise ValueError("a formula's turn counts must be int, none below 0")
    return heads, turns


def emit_formula(formula: SutraFormula) -> str:
    """Canonical text; ``parse_formula(emit_formula(f)) == f``. A formula built
    by hand that is not one raises ValueError, as in ``emit_interchange``."""
    heads, turns = _levels(formula)
    opening = [f"{head}[{'~' * n}{' ' if n else ''}< " for head, n in zip(heads, turns)]
    return "".join(opening) + heads[-1] + "]" * len(turns)


def emit_interchange(formulas: Iterable[SutraFormula]) -> str:
    """``json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\\n"`` of
    ``{"formulas": [...]}``. A formula is ``{"derivation", "head"}`` of its outermost head,
    its derivation null or ``{"source", "turn_count"}`` with the next formula in as its
    source. Written as an opening and a closing piece per level, joined once."""
    out = ['{\n  "formulas": [']
    for formula in formulas:
        heads, turns = _levels(formula)
        out.append(",\n    " if len(out) > 1 else "\n    ")
        closing, pad = [], "\n    "
        for head, turn_count in zip(heads, turns):
            out.append(f'{{{pad}  "derivation": {{{pad}    "source": ')
            closing.append(
                f',{pad}    "turn_count": {turn_count}{pad}  }},'
                f'{pad}  "head": {json_string(head)}{pad}}}'
            )
            pad += "    "
        out.append(f'{{{pad}  "derivation": null,{pad}  "head": {json_string(heads[-1])}{pad}}}')
        out += reversed(closing)
    out.append("\n  ]\n}\n" if len(out) > 1 else "]\n}\n")
    return "".join(out)


_EG_RE = re.compile(r"\beg\s*:")
_RUN_RE = re.compile(r"\S+")  # str.split and \s both take Unicode whitespace as blank


def parse_thread(text: str) -> SenseThread:
    """Parse a thread; stages split on ``-->``, whitespace is normalized.
    An error's position counts in the normalized text."""
    normalized = " ".join(text.split())
    stages, start = [], 0  # start: the part's offset in ``normalized``
    for part in normalized.split("-->"):
        if not part.strip():
            raise SutraParseError("empty stage between arrows")
        stages.append(_parse_stage(part, start))
        start += len(part) + len("-->")
    return SenseThread(tuple(stages))


def _parse_stage(part: str, start: int) -> ThreadStage:
    m = _EG_RE.search(part)
    if m is not None:
        head_part, eg_part = part[: m.start()], part[m.end() :]
    else:
        head_part, eg_part = part, None

    gloss = None
    open_idx = head_part.find("(")
    if open_idx >= 0:
        close_idx = _closing_brackets(head_part, _PAREN_RE).get(open_idx)
        if close_idx is None:
            raise SutraParseError("unbalanced '(' in stage", start + open_idx + 1)
        extra = _RUN_RE.search(head_part, close_idx + 1)
        if extra is not None:
            raise SutraParseError("unexpected text after stage gloss", start + extra.start() + 1)
        gloss = head_part[open_idx + 1 : close_idx].strip()
        label = head_part[:open_idx].strip()
    else:
        if ")" in head_part:
            raise SutraParseError("unbalanced ')' in stage", start + head_part.index(")") + 1)
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


def load_aliases(text: str) -> dict[str, set[str]]:
    """Read alias lines ``label TAB alias``; ``#`` comments are skipped."""
    aliases: dict[str, set[str]] = {}
    for lineno, raw in enumerate(split_lines(text), 1):
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
    core = formula.heads[-1]
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
    for lineno, raw in enumerate(split_lines(text), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            formulas.append(parse_formula(line))
        except SutraParseError as exc:  # its position counts from the line's first non-blank
            column = len(raw) - len(raw.lstrip()) + exc.position
            diagnostics.append(error(str(exc), line=lineno, column=column))
    return formulas, diagnostics


def parse_thread_file(text: str) -> tuple[list[SenseThread], list[Diagnostic]]:
    """Threads written one per line or as blocks of ``-->`` continuation lines."""
    threads: list[SenseThread] = []
    diagnostics: list[Diagnostic] = []
    block: list[tuple[int, str]] = []  # the number and text of each line of a thread

    def flush() -> None:
        nonlocal block
        if not block:
            return
        try:
            threads.append(parse_thread(" ".join(line for _, line in block)))
        except SutraParseError as exc:
            line, column = _locate(block, exc.position)
            diagnostics.append(error(str(exc), line=line, column=column))
        block = []

    for lineno, raw in enumerate(split_lines(text), 1):
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
            block.append((lineno, raw))
        else:
            flush()
            block = [(lineno, raw)]
    flush()
    return threads, diagnostics


def _locate(block: list[tuple[int, str]], position: int | None) -> tuple[int, int | None]:
    """The line and column in ``block`` of ``position`` in the text that
    parse_thread normalizes it to: the runs of non-blanks, single-spaced.
    Without a position, the thread's first line and no column."""
    if position is not None:
        for lineno, raw in block:
            for run in _RUN_RE.finditer(raw):
                if position <= len(run.group()):
                    return lineno, run.start() + position
                position -= len(run.group()) + 1
    return block[0][0], None

