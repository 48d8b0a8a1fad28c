"""TransLexGram transfer-lexicon records.

A record is a block of ``FIELD:: value`` lines. It opens with a HEADWORD
line and holds one block per meaning:

    HEADWORD::"go","V"
    MEANING::1::"jAnA"
    ENG_EXP:: I go to school.
    TR_NAT:: maiM skUla jAtA hUM.
    TR_ENG-INFLNC::
    FRAME_E:: A goes to B
    FRAME_I:: A B [ko] jAtA hai
    ERR::
    COMNT::

Field names are matched case-sensitively. TR_NAT may repeat; the other
meaning fields are single-valued and a duplicate is a warning with the
later value winning. A line without ``::`` continues the previous field
value, joined with a single space (long translations wrap this way in
hand-authored files). ``TR_ENG_INFLNCE`` is accepted as a spelling variant
of ``TR_ENG-INFLNC`` with a warning. Unknown fields are kept verbatim in
the meaning's ``extras``.

A field line that is present but empty parses to ``""``; an absent field
is ``None``. Emission writes empty fields as bare ``FIELD::`` lines, which
keeps parse/emit round-trips exact.

Cost: every CLI command on a lexicon parses the whole file once.
``parse_tlg`` splits each line once, at its first ``::``, and strips
Unicode whitespace from both halves; the name pattern runs only on a name
that is none of the known fields.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, NamedTuple

from .diagnostics import Diagnostic, error, info, split_lines, warning
# private names, so that bench/tracing.py does not record a layer call per frame pair
from .transfer import _SLOTS, _frame_error, _tuple_new

if TYPE_CHECKING:  # pragma: no cover
    from .dict_model import DictEntry


class TlgMeaning(NamedTuple):
    number: int
    gloss: str = ""
    gloss_other: str | None = None
    eng_exp: str | None = None
    tr_nat: tuple[str, ...] = ()
    tr_eng_influence: str | None = None
    frame_e: str | None = None
    frame_i: str | None = None
    err: str | None = None
    comment: str | None = None
    extras: tuple[tuple[str, str], ...] = ()


class TlgRecord(NamedTuple):
    headword: str
    pos: str = ""
    meanings: tuple[TlgMeaning, ...] = ()


class ParallelPair(NamedTuple):
    """One aligned sentence pair extracted from a record."""

    english: str
    translation: str
    headword: str
    sense_number: int


# A field name; a line is a field when the text before its first ``::``
# is one, stripped of Unicode whitespace (a name holds no ``:``).
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")
_MEANING_VALUE_RE = re.compile(r"^(\d+)\s*::\s*(.*)$")
_HEADWORD_VALUE_RE = re.compile(r'^"([^"]*)"\s*,\s*"([^"]*)"$')

# A meaning is read as a list in field order, so a field is an index into it.
_FIELD = TlgMeaning._fields.index
_GLOSS, _TR_NAT, _EXTRAS = _FIELD("gloss"), _FIELD("tr_nat"), _FIELD("extras")
# Meaning-level single-valued fields, in canonical emission order.
_SINGLE_FIELDS = {
    "MEANING_OTH": _FIELD("gloss_other"),
    "ENG_EXP": _FIELD("eng_exp"),
    "TR_ENG-INFLNC": _FIELD("tr_eng_influence"),
    "FRAME_E": _FIELD("frame_e"),
    "FRAME_I": _FIELD("frame_i"),
    "ERR": _FIELD("err"),
    "COMNT": _FIELD("comment"),
}
_FIELD_ALIASES = {"TR_ENG_INFLNCE": "TR_ENG-INFLNC"}
# Names known to match _NAME_RE, which the reader then does not run.
_NAMES = frozenset(["HEADWORD", "MEANING", "TR_NAT", *_SINGLE_FIELDS, *_FIELD_ALIASES])


def _unquote(value: str) -> str:
    if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
        return value[1:-1]
    return value


def parse_tlg(text: str) -> tuple[list[TlgRecord], list[Diagnostic]]:
    """Parse TLG text into records plus diagnostics; never raises."""
    records: list[TlgRecord] = []
    diagnostics: list[Diagnostic] = []
    # The open record, as (headword, pos, meanings), and its open meaning, a
    # list in TlgMeaning field order; both are frozen when the record closes.
    record: tuple[str, str, list[list]] | None = None
    record_line = 0
    meaning: list | None = None
    # Continuation target: an index into ``meaning``, where _TR_NAT and
    # _EXTRAS stand for the last entry of that list.
    last: int | None = None
    skipping = False
    saw_content = False
    name_match = _NAME_RE.fullmatch

    for lineno, raw in enumerate(split_lines(text), 1):
        name, sep, value = raw.partition("::")
        name = name.strip()
        if not sep or (name not in _NAMES and name_match(name) is None):
            if not raw.strip():
                continue
            saw_content = True
            if skipping:
                continue
            if last is None:
                diagnostics.append(
                    error("continuation line without a preceding field", line=lineno)
                )
                continue
            _extend(meaning, last, raw.strip())
            continue
        saw_content = True
        value = value.strip()

        # A meaning implies a record, not skipped; most of its lines are single fields.
        if meaning is not None:
            if name in _FIELD_ALIASES:
                canonical = _FIELD_ALIASES[name]
                diagnostics.append(
                    warning(f"field name {name} accepted as {canonical}", line=lineno, field=name)
                )
                name = canonical
            at = _SINGLE_FIELDS.get(name)
            if at is not None:
                if meaning[at] is not None:
                    diagnostics.append(
                        warning(
                            f"duplicate {name} in meaning {meaning[0]}; later value wins",
                            line=lineno,
                            field=name,
                        )
                    )
                meaning[at] = value
                last = at
                continue

        if name == "HEADWORD":
            if record is not None:
                _close_record(record, record_line, records, diagnostics)
                record = meaning = None
            last = None
            hv = _HEADWORD_VALUE_RE.match(value)
            if hv is None or not hv.group(1):
                diagnostics.append(
                    error("malformed HEADWORD value; record skipped", line=lineno, field="HEADWORD")
                )
                skipping = True
                continue
            record = (hv.group(1), hv.group(2), [])
            record_line = lineno
            skipping = False
            continue

        if skipping:
            continue

        if name == "MEANING":
            if record is None:
                diagnostics.append(
                    error("MEANING before HEADWORD; content skipped", line=lineno, field="MEANING")
                )
                continue
            mv = _MEANING_VALUE_RE.match(value)
            try:
                number = int(mv.group(1)) if mv else None
            except ValueError:  # more digits than int() converts
                number = None
            if number is None:
                diagnostics.append(error("malformed MEANING line", line=lineno, field="MEANING"))
                continue
            meaning = [  # TlgMeaning(number, gloss), with lists for tr_nat and extras
                number, _unquote(mv.group(2)), None, None, [], None, None, None, None, None, []
            ]
            record[2].append(meaning)
            last = _GLOSS
            continue

        if record is None:
            diagnostics.append(
                error(f"field {name} before HEADWORD; skipped", line=lineno, field=name)
            )
            continue
        if meaning is None:
            diagnostics.append(
                error(f"field {name} before MEANING; skipped", line=lineno, field=name)
            )
            continue

        if name == "TR_NAT":
            if value:
                meaning[_TR_NAT].append(value)
                last = _TR_NAT
            else:
                diagnostics.append(
                    warning("empty TR_NAT value ignored", line=lineno, field="TR_NAT")
                )
                last = None
            continue

        diagnostics.append(warning(f"unknown field {name}", line=lineno, field=name))
        meaning[_EXTRAS].append((name, value))
        last = _EXTRAS

    if record is not None:
        _close_record(record, record_line, records, diagnostics)
    if not saw_content:
        diagnostics.append(info("empty input: no records"))
    return records, diagnostics


def _close_record(
    record: tuple[str, str, list[list]],
    line: int,
    records: list[TlgRecord],
    diagnostics: list[Diagnostic],
) -> None:
    """Check the open ``record`` read from ``line`` and append it, frozen."""
    headword, pos, meanings = record
    numbers = [m[0] for m in meanings]
    if not numbers:
        diagnostics.append(warning(f"record '{headword}' has no meanings", line=line))
    elif numbers != list(range(1, len(numbers) + 1)):
        diagnostics.append(
            warning(f"non-consecutive meaning numbers in record '{headword}'", line=line)
        )
    for m in meanings:
        m[_TR_NAT], m[_EXTRAS] = tuple(m[_TR_NAT]), tuple(m[_EXTRAS])
    frozen = tuple([_tuple_new(TlgMeaning, m) for m in meanings])
    records.append(_tuple_new(TlgRecord, (headword, pos, frozen)))


def _extend(meaning: list, at: int, text: str) -> None:
    """Join a continuation line onto the field value it continues."""
    if at == _TR_NAT:
        meaning[_TR_NAT][-1] += f" {text}"
    elif at == _EXTRAS:
        name, value = meaning[_EXTRAS][-1]
        meaning[_EXTRAS][-1] = (name, f"{value} {text}" if value else text)
    else:
        current = meaning[at]
        meaning[at] = f"{current} {text}" if current else text


def validate_tlg(record: TlgRecord, policy: str = "lenient") -> list[Diagnostic]:
    """Check one record against the contribution rules.

    Errors: a meaning without an English example or without any natural
    translation. Warnings: an empty or half-empty frame pair, target-frame
    slots that the source frame never binds, and (strict policy only) a
    TR_ENG-INFLNC line that is present but empty.
    """
    if policy not in ("strict", "lenient"):
        raise ValueError(f"unknown validation policy: {policy!r}")
    diagnostics: list[Diagnostic] = []
    if not record.meanings:
        diagnostics.append(warning(f"record '{record.headword}' has no meanings"))
    for m in record.meanings:
        if not m.eng_exp:
            diagnostics.append(
                error(f"meaning {m.number}: missing English example sentence", field="ENG_EXP")
            )
        if not m.tr_nat:
            diagnostics.append(
                error(f"meaning {m.number}: no natural translation", field="TR_NAT")
            )
        frame_e = m.frame_e or ""
        frame_i = m.frame_i or ""
        if not frame_e and not frame_i:
            diagnostics.append(
                warning(f"meaning {m.number}: empty frame pair", field="FRAME_E")
            )
        elif not frame_e or not frame_i:
            diagnostics.append(
                warning(
                    f"meaning {m.number}: incomplete frame pair",
                    field="FRAME_E" if not frame_e else "FRAME_I",
                )
            )
        else:
            src, tgt = frame_e.split(), frame_i.split()
            message = _frame_error(src) or _frame_error(tgt)
            if message is not None:
                diagnostics.append(warning(f"meaning {m.number}: unparseable frame: {message}"))
            else:
                for letter in sorted(_SLOTS.keys() & set(tgt) - set(src)):
                    diagnostics.append(
                        warning(
                            f"meaning {m.number}: slot {letter} unbound in source frame",
                            field="FRAME_I",
                        )
                    )
        if policy == "strict" and m.tr_eng_influence == "":
            diagnostics.append(
                warning(
                    f"meaning {m.number}: empty TR_ENG-INFLNC line", field="TR_ENG-INFLNC"
                )
            )
    return diagnostics


def seed_from_dictionary(entry: DictEntry) -> tuple[TlgRecord, list[Diagnostic]]:
    """Build a contributor skeleton from a dictionary entry.

    One meaning per sense; the gloss is copied, ENG_EXP is the sense's
    first example, and all translation and frame fields are left empty.
    """
    from .dict_model import emit_gloss  # only seeding reads the dictionary layer

    diagnostics: list[Diagnostic] = []
    meanings = []
    for sense in entry.senses:
        if sense.examples:
            eng_exp = sense.examples[0]
        else:
            eng_exp = ""
            diagnostics.append(
                warning(
                    f"sense {sense.number} of '{entry.headword}' has no example; "
                    "ENG_EXP left empty",
                    field="ENG_EXP",
                )
            )
        meanings.append(
            TlgMeaning(
                number=sense.number,
                gloss=emit_gloss(sense.gloss),
                eng_exp=eng_exp,
                tr_eng_influence="",
                frame_e="",
                frame_i="",
                err="",
                comment="",
            )
        )
    return TlgRecord(entry.headword, entry.pos, tuple(meanings)), diagnostics


def _field_line(name: str, value: str) -> str:
    return f"{name}:: {value}" if value else f"{name}::"


def emit_record(record: TlgRecord) -> str:
    lines = [f'HEADWORD::"{record.headword}","{record.pos}"']
    for m in record.meanings:
        lines.append(f'MEANING::{m.number}::"{m.gloss}"')
        if m.gloss_other is not None:
            lines.append(_field_line("MEANING_OTH", m.gloss_other))
        if m.eng_exp is not None:
            lines.append(_field_line("ENG_EXP", m.eng_exp))
        for value in m.tr_nat:
            lines.append(_field_line("TR_NAT", value))
        if m.tr_eng_influence is not None:
            lines.append(_field_line("TR_ENG-INFLNC", m.tr_eng_influence))
        if m.frame_e is not None:
            lines.append(_field_line("FRAME_E", m.frame_e))
        if m.frame_i is not None:
            lines.append(_field_line("FRAME_I", m.frame_i))
        if m.err is not None:
            lines.append(_field_line("ERR", m.err))
        if m.comment is not None:
            lines.append(_field_line("COMNT", m.comment))
        for name, value in m.extras:
            lines.append(_field_line(name, value))
    return "\n".join(lines)


def emit_tlg(records: list[TlgRecord]) -> str:
    """Canonical text form; ``parse_tlg(emit_tlg(rs))`` reproduces ``rs``."""
    if not records:
        return ""
    return "\n\n".join(emit_record(r) for r in records) + "\n"


def extract_parallel_corpus(records: list[TlgRecord]) -> list[ParallelPair]:
    """One pair per (meaning, TR_NAT value); empty TR_NAT contributes none."""
    return [
        ParallelPair(m.eng_exp or "", translation, record.headword, m.number)
        for record in records
        for m in record.meanings
        for translation in m.tr_nat
    ]


def pairs_to_tsv(pairs: list[ParallelPair]) -> str:
    lines = [
        f"{p.english}\t{p.translation}\t{p.headword}\t{p.sense_number}" for p in pairs
    ]
    return "\n".join(lines) + "\n" if lines else ""
