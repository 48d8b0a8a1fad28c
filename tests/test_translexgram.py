import json
import re
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from leril import translexgram
from leril.cli import _dump_json
from leril.diagnostics import Severity, has_errors
from leril.dict_model import parse_dictionary
from leril.translexgram import (
    TlgMeaning,
    TlgRecord,
    emit_tlg,
    extract_parallel_corpus,
    pairs_to_tsv,
    parse_tlg,
    seed_from_dictionary,
    validate_tlg,
)


class TestParseTlg:
    def test_go_record(self, go_tlg_text):
        records, diags = parse_tlg(go_tlg_text)
        assert not has_errors(diags)
        assert len(records) == 1
        record = records[0]
        assert (record.headword, record.pos) == ("go", "V")
        assert len(record.meanings) == 2
        m1, m2 = record.meanings
        assert m1.gloss == "jAnA"
        assert m1.eng_exp == "I go to school."
        assert m1.tr_nat == ("maiM skUla jAtA hUM.",)
        assert m1.frame_e == "A goes to B"
        assert m1.frame_i == "A B [ko] jAtA hai"
        assert m1.err == "" and m1.comment == "" and m1.tr_eng_influence == ""
        assert m2.gloss == "rakha~jAnA"
        assert m2.frame_i == "A B meM rakhA_jAtA_hai"

    def test_continuation_line_joins_with_space(self, go_tlg_text):
        records, _ = parse_tlg(go_tlg_text)
        assert records[0].meanings[1].tr_nat == ("ye kapaDe usa sUtakesa meM rakhe jAyeMge",)

    def test_empty_input(self):
        records, diags = parse_tlg("")
        assert records == []
        assert len(diags) == 1 and diags[0].severity == Severity.INFO

    def test_repeated_tr_nat_kept_in_order(self):
        text = (
            'HEADWORD::"go","V"\n'
            'MEANING::1::"jAnA"\n'
            "ENG_EXP:: I go.\n"
            "TR_NAT:: maiM jAtA hUM.\n"
            "TR_NAT:: maiM calA jAtA hUM.\n"
        )
        records, _ = parse_tlg(text)
        assert records[0].meanings[0].tr_nat == (
            "maiM jAtA hUM.",
            "maiM calA jAtA hUM.",
        )

    def test_meaning_before_headword_is_error(self):
        records, diags = parse_tlg('MEANING::1::"jAnA"\n')
        assert records == []
        assert any(d.severity == Severity.ERROR for d in diags)

    def test_duplicate_single_field_warns_later_wins(self):
        text = (
            'HEADWORD::"go","V"\nMEANING::1::"jAnA"\n'
            "ENG_EXP:: first\nENG_EXP:: second\n"
        )
        records, diags = parse_tlg(text)
        assert records[0].meanings[0].eng_exp == "second"
        assert any("duplicate ENG_EXP" in d.message for d in diags)

    def test_unknown_field_preserved_with_warning(self):
        text = 'HEADWORD::"go","V"\nMEANING::1::"jAnA"\nNOTE:: keep me\n'
        records, diags = parse_tlg(text)
        assert records[0].meanings[0].extras == (("NOTE", "keep me"),)
        assert any("unknown field NOTE" in d.message for d in diags)

    def test_spelling_variant_accepted_with_warning(self):
        text = 'HEADWORD::"go","V"\nMEANING::1::"jAnA"\nTR_ENG_INFLNCE:: mai jAU\n'
        records, diags = parse_tlg(text)
        assert records[0].meanings[0].tr_eng_influence == "mai jAU"
        assert any("TR_ENG_INFLNCE" in d.message for d in diags)


class TestValidate:
    def test_go_record_is_clean(self, go_tlg_text):
        records, _ = parse_tlg(go_tlg_text)
        assert validate_tlg(records[0]) == []

    def test_empty_tr_nat_is_error(self):
        meaning = TlgMeaning(1, gloss="jAnA", eng_exp="I go.", frame_e="A goes", frame_i="A jAtA hai")
        record = TlgRecord("go", "V", (meaning,))
        diags = validate_tlg(record)
        errors = [d for d in diags if d.severity == Severity.ERROR]
        assert len(errors) == 1
        assert errors[0].field == "TR_NAT"

    def test_unbound_target_slot_warns(self):
        record = TlgRecord(
            "go",
            "V",
            (
                TlgMeaning(
                    1,
                    gloss="jAnA",
                    eng_exp="I go.",
                    tr_nat=("maiM jAtA hUM.",),
                    frame_e="A goes",
                    frame_i="A B meM jAtA hai",
                ),
            ),
        )
        diags = validate_tlg(record)
        assert any("slot B unbound in source frame" in d.message for d in diags)

    def test_strict_flags_empty_influence_line(self, go_tlg_text):
        records, _ = parse_tlg(go_tlg_text)
        lenient = validate_tlg(records[0], "lenient")
        strict = validate_tlg(records[0], "strict")
        assert not any("TR_ENG-INFLNC" in (d.field or "") for d in lenient)
        assert sum("empty TR_ENG-INFLNC" in d.message for d in strict) == 2


class TestSeed:
    def test_skeleton_from_go_entry(self, go_dict_text):
        dictionary, _ = parse_dictionary(go_dict_text)
        record, diags = seed_from_dictionary(dictionary.entries[0])
        assert diags == []
        assert len(record.meanings) == 7
        assert [m.number for m in record.meanings] == list(range(1, 8))
        assert record.meanings[0].eng_exp == "I go to school."
        assert record.meanings[0].gloss == "jAnA"
        assert record.meanings[4].gloss == "ho~jAnA{sthiti}"
        assert all(m.tr_nat == () for m in record.meanings)
        assert all(m.frame_e == "" and m.frame_i == "" for m in record.meanings)

    def test_sense_without_example_warns(self, go_dict_text):
        text = '"go", "V",\n--"1.jAnA"\n'
        dictionary, _ = parse_dictionary(text)
        record, diags = seed_from_dictionary(dictionary.entries[0])
        assert record.meanings[0].eng_exp == ""
        assert len([d for d in diags if d.severity == Severity.WARNING]) == 1

    def test_skeleton_round_trips(self, go_dict_text):
        dictionary, _ = parse_dictionary(go_dict_text)
        record, _ = seed_from_dictionary(dictionary.entries[0])
        reparsed, _ = parse_tlg(emit_tlg([record]))
        assert reparsed == [record]

    def test_skeletons_are_never_valid(self, go_dict_text):
        dictionary, _ = parse_dictionary(go_dict_text)
        record, _ = seed_from_dictionary(dictionary.entries[0])
        diags = validate_tlg(record)
        tr_nat_errors = [
            d for d in diags if d.severity == Severity.ERROR and d.field == "TR_NAT"
        ]
        assert len(tr_nat_errors) == len(record.meanings)


class TestEmit:
    def test_round_trip_go(self, go_tlg_text):
        records, _ = parse_tlg(go_tlg_text)
        reparsed, diags = parse_tlg(emit_tlg(records))
        assert reparsed == records
        assert not has_errors(diags)

    def test_empty_fields_emit_bare_lines(self, go_tlg_text):
        records, _ = parse_tlg(go_tlg_text)
        emitted = emit_tlg(records)
        assert "ERR::\n" in emitted
        assert "TR_ENG-INFLNC::\n" in emitted

    def test_zero_records(self):
        assert emit_tlg([]) == ""


class TestParallelCorpus:
    def test_go_record_pairs(self, go_tlg_text):
        records, _ = parse_tlg(go_tlg_text)
        pairs = extract_parallel_corpus(records)
        assert len(pairs) == 2
        assert pairs[0].english == "I go to school."
        assert pairs[0].translation == "maiM skUla jAtA hUM."
        assert pairs[0].headword == "go" and pairs[0].sense_number == 1
        assert pairs[1].english == "These clothes go into that suitcase."
        assert pairs[1].translation == "ye kapaDe usa sUtakesa meM rakhe jAyeMge"

    def test_two_tr_nat_share_english_side(self):
        record = TlgRecord(
            "go", "V", (TlgMeaning(1, eng_exp="I go.", tr_nat=("a", "b")),)
        )
        pairs = extract_parallel_corpus([record])
        assert [(p.english, p.translation) for p in pairs] == [("I go.", "a"), ("I go.", "b")]

    def test_empty_records(self):
        assert extract_parallel_corpus([]) == []

    def test_pair_count_is_sum_of_tr_nat(self, go_tlg_text):
        records, _ = parse_tlg(go_tlg_text)
        expected = sum(len(m.tr_nat) for r in records for m in r.meanings)
        assert len(extract_parallel_corpus(records)) == expected

    def test_tsv_layout(self, go_tlg_text):
        records, _ = parse_tlg(go_tlg_text)
        lines = pairs_to_tsv(extract_parallel_corpus(records)).splitlines()
        assert lines[0] == "I go to school.\tmaiM skUla jAtA hUM.\tgo\t1"


# Record generator for the round-trip property. Values are single-line,
# strip-stable text; None and "" are distinct on purpose.
_value = st.text(
    alphabet=st.characters(blacklist_categories=("Cc", "Cs"), blacklist_characters="\n\r"),
    max_size=20,
).map(str.strip)
_opt = st.none() | _value
_word_text = st.text(alphabet="abcdefghij", min_size=1, max_size=8)


@st.composite
def _records(draw):
    meanings = []
    for number in range(1, draw(st.integers(1, 3)) + 1):
        meanings.append(
            TlgMeaning(
                number=number,
                gloss=draw(_value),
                gloss_other=draw(_opt),
                eng_exp=draw(_opt),
                tr_nat=tuple(draw(st.lists(_value.filter(bool), max_size=3))),
                tr_eng_influence=draw(_opt),
                frame_e=draw(_opt),
                frame_i=draw(_opt),
                err=draw(_opt),
                comment=draw(_opt),
                extras=(("X_FIELD", draw(_value)),) if draw(st.booleans()) else (),
            )
        )
    return TlgRecord(draw(_word_text), draw(_word_text), tuple(meanings))


@given(st.lists(_records(), max_size=3))
def test_emit_parse_round_trip(records):
    reparsed, _ = parse_tlg(emit_tlg(records))
    assert reparsed == records


def test_interchange_shape(go_tlg_text):
    records, _ = parse_tlg(go_tlg_text)
    assert records[0].meanings[0].tr_nat == ("maiM skUla jAtA hUM.",)
    assert records[0].meanings[1].frame_i == "A B meM rakhA_jAtA_hai"
    # the interchange document's keys are the field names
    doc = json.loads(_dump_json({"format": "translexgram", "records": records}))
    meaning = doc["records"][0]["meanings"][0]
    assert list(doc["records"][0]) == ["headword", "meanings", "pos"]
    assert list(meaning) == sorted(TlgMeaning._fields)
    assert meaning["tr_nat"] == ["maiM skUla jAtA hUM."]
    assert meaning["extras"] == []
    assert doc["records"][0]["meanings"][1]["frame_i"] == "A B meM rakhA_jAtA_hai"


# The field pattern of an earlier reader: its lazy value group ends in
# ``\s*$``. It is the reference for which lines are fields.
_LAZY_FIELD_RE = re.compile(r"^\s*([A-Za-z][A-Za-z0-9_-]*)\s*::\s*(.*?)\s*$")
_SPACES = " \t\r\x0b\x1c\x85\u00a0\u2028\u3000"
_LINE_CHARS = 'ABCHIMNTabz019_-:" ' + _SPACES
_space = st.text(alphabet=_SPACES, max_size=2)
_field_name = st.sampled_from(
    [
        "HEADWORD", "MEANING", "MEANING_OTH", "ENG_EXP", "TR_NAT", "TR_ENG-INFLNC",
        "TR_ENG_INFLNCE", "FRAME_E", "FRAME_I", "ERR", "COMNT", "X_FIELD", "a-1", "1A",
        "A:B", "A B", "\u00c9", "",
    ]
)
_field_value = st.sampled_from(
    ['"go","V"', '"go" , "V"', '"","V"', 'go,V', '1::"jAnA"', '2 :: x', 'x::"y"', "", "A goes to B"]
) | st.text(alphabet=_LINE_CHARS, max_size=12)
_field_line = st.tuples(_space, _field_name, _space, _space, _field_value, _space).map(
    lambda p: f"{p[0]}{p[1]}{p[2]}::{p[3]}{p[4]}{p[5]}"
)
# Lines without a field: blank, continuation, or stray text.
_other_line = st.text(alphabet=_LINE_CHARS, max_size=12)
_OPENING = ['HEADWORD::"go","V"', 'MEANING::1::"x"']
_PLACEHOLDER_RE = re.compile(r"@(\d+)@")


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(_field_line, _field_line, _other_line), max_size=12).map(
        lambda lines: _OPENING + lines
    )
)
@example([*_OPENING, "ENG_EXP:: a", "b", "TR_NAT:: c"])
def test_line_reader_matches_the_lazy_field_pattern(lines):
    # \r in a generated line splits it in two; \x0b, \x1c, \x85 and U+2028 do not.
    source = "\n".join(lines)
    # The reference text: a line the pattern accepts as its bare field, a
    # blank line empty, and any other line a numbered placeholder with no
    # ``::``, which can only continue the field before it.
    texts = []
    reference = []
    for raw in re.split(r"\r\n|\r|\n", source):
        m = _LAZY_FIELD_RE.match(raw)
        if m is not None:
            reference.append(f"{m.group(1)}::{m.group(2)}")
        elif raw.strip():
            reference.append(f"@{len(texts)}@")
            texts.append(raw.strip())
        else:
            reference.append("")
    records, diags = parse_tlg("\n".join(reference))
    got, got_diags = parse_tlg(source)
    assert got == _fill(records, texts)
    assert got_diags == diags


def _fill(value, texts):
    """``value`` with each placeholder replaced by the text it stands for."""
    if isinstance(value, str):
        return _PLACEHOLDER_RE.sub(lambda p: texts[int(p.group(1))], value)
    if isinstance(value, (list, tuple)):
        filled = [_fill(item, texts) for item in value]
        if hasattr(value, "_fields"):  # a NamedTuple
            return type(value)(*filled)
        return type(value)(filled)
    return value


def _name_pattern_calls(text: str) -> int:
    pattern = mock.Mock(wraps=translexgram._NAME_RE)
    with mock.patch.object(translexgram, "_NAME_RE", pattern):
        parse_tlg(text)
    return pattern.fullmatch.call_count


def test_known_field_names_skip_the_name_pattern(go_tlg_text):
    meaning = TlgMeaning(
        1, "g", "o", "I go.", ("a", "b"), "", "A goes to B", "A B jAtA hai", "", "c"
    )
    lexicon = emit_tlg([TlgRecord(f"w{k}", "V", (meaning, meaning)) for k in range(200)])
    assert all(f"\n{name}::" in lexicon for name in translexgram._SINGLE_FIELDS)
    assert _name_pattern_calls(go_tlg_text) == 0
    assert _name_pattern_calls(lexicon) == 0
    assert _name_pattern_calls(go_tlg_text + "X_FIELD:: x\n") >= 1


def test_str_strip_and_the_re_whitespace_class_agree():
    # parse_tlg strips with str.strip where the earlier reader matched \s.
    chars = "".join(map(chr, range(0x110000)))
    spaces = re.findall(r"\s", chars)
    assert spaces == [c for c in chars if c.isspace()] == [c for c in chars if not c.strip()]
