import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from leril.diagnostics import Severity
from leril.dict_model import (
    DictEntry,
    Dictionary,
    GlossComponent,
    GlossExpr,
    GlossParseError,
    Sense,
    emit_dictionary,
    emit_gloss,
    emit_interchange,
    frequency_filter,
    lookup,
    parse_dictionary,
    parse_gloss,
)


class TestParseGloss:
    def test_single_token(self):
        gloss = parse_gloss("jAnA")
        assert gloss == GlossExpr((GlossComponent(("jAnA",), False),))

    def test_joined_component(self):
        gloss = parse_gloss("rakhA~jAnA")
        assert [c.alternatives for c in gloss.components] == [("rakhA",), ("jAnA",)]
        assert [c.joined for c in gloss.components] == [False, True]

    def test_alternatives_scope_to_one_component(self):
        gloss = parse_gloss("aAvAjZa~honA/karanA")
        assert gloss.components == (
            GlossComponent(("aAvAjZa",), False),
            GlossComponent(("honA", "karanA"), True),
        )

    def test_derivation(self):
        gloss = parse_gloss("samAnA[<jAnA]")
        assert gloss.components == (GlossComponent(("samAnA",), False),)
        assert gloss.derivation == "jAnA"
        assert gloss.context is None

    def test_context(self):
        gloss = parse_gloss("ho~jAnA{sthiti}")
        assert gloss.context == "sthiti"
        assert gloss.derivation is None

    def test_both_annotations_either_order(self):
        a = parse_gloss("x[<y]{z}")
        b = parse_gloss("x{z}[<y]")
        assert a == b
        assert a.derivation == "y" and a.context == "z"

    @pytest.mark.parametrize(
        "bad, message, position",
        [
            pytest.param(bad, message, position, id=bad)
            for bad, message, position in [
                ("x[<y", "unbalanced '['", 2),
                ("x{z", "unbalanced '{'", 2),
                ("x]", "unbalanced ']'", 2),
                ("x}", "unbalanced '}'", 2),
                ("x[y]", "expected '<' after '['", 3),
                ("x[<]", "empty derivation annotation", 2),
                ("~x", "empty gloss component", 1),
                ("a//b", "empty gloss alternative", 3),
                ("x{}", "empty context annotation", 2),
                ("a~", "empty gloss component", 3),
                ("x[<y][<z]", "duplicate derivation annotation", 6),
                ("x{a}{b}", "duplicate context annotation", 5),
                ("x[<y]z", "unexpected text after annotations: 'z'", 6),
            ]
        ],
    )
    def test_malformed_glosses_raise(self, bad, message, position):
        with pytest.raises(GlossParseError) as exc:
            parse_gloss(bad)
        assert (str(exc.value), exc.value.position) == (message, position)

    def test_error_names_position(self):
        with pytest.raises(GlossParseError) as exc:
            parse_gloss("ab[<x")
        assert exc.value.position == 3


# Gloss texts without annotations, structured as components over ~ and /.
_word = st.text(alphabet="abcdefgAIU", min_size=1, max_size=6)
_component = st.lists(_word, min_size=1, max_size=3).map("/".join)
_plain_gloss = st.lists(_component, min_size=1, max_size=4).map("~".join)


@given(_plain_gloss)
def test_gloss_algebra_rejoins_exactly(text):
    gloss = parse_gloss(text)
    assert emit_gloss(gloss) == text


# Components after the first are always tied by ~, hence joined=True.
_components = st.lists(
    st.lists(_word, min_size=1, max_size=3).map(tuple),
    min_size=1,
    max_size=4,
).map(
    lambda alts: tuple(
        GlossComponent(alternatives, joined=k > 0) for k, alternatives in enumerate(alts)
    )
)

_annotated_gloss = st.builds(GlossExpr, _components, st.none() | _word, st.none() | _word)


@given(_annotated_gloss)
def test_gloss_round_trip(gloss):
    assert parse_gloss(emit_gloss(gloss)) == gloss


class TestParseDictionary:
    def test_go_entry(self, go_dict_text):
        dictionary, diags = parse_dictionary(go_dict_text)
        assert len(dictionary.entries) == 1
        entry = dictionary.entries[0]
        assert entry.headword == "go"
        assert entry.pos == "V"
        assert len(entry.senses) == 7
        assert entry.senses[0].gloss.components[0].alternatives == ("jAnA",)
        assert entry.senses[0].examples == ("I go to school.",)
        assert entry.senses[2].gloss.derivation == "jAnA"
        assert entry.senses[4].gloss.context == "sthiti"
        assert not [d for d in diags if d.severity >= Severity.WARNING]

    def test_empty_input(self):
        dictionary, diags = parse_dictionary("")
        assert dictionary.entries == ()
        assert len(diags) == 1
        assert diags[0].severity == Severity.INFO

    def test_sense_number_gap_warns(self):
        text = '"run", "V",\n--"1.calanA"\nI run.\n--"3.bhAganA"\nHe runs fast.\n'
        dictionary, diags = parse_dictionary(text)
        assert len(dictionary.entries[0].senses) == 2
        assert any("non-consecutive sense numbers" in d.message for d in diags)

    def test_sense_before_headword_is_error(self):
        dictionary, diags = parse_dictionary('--"1.jAnA"\n')
        assert dictionary.entries == ()
        assert any(d.severity == Severity.ERROR for d in diags)

    def test_malformed_lines_skipped_one_diag_each(self):
        text = '"go", "V",\n--"1.jAnA"\nI go.\n--"oops"\n"broken\n'
        # "broken starts with a quote but is inside a sense, so it reads as
        # an example line; only the bad sense line is flagged.
        dictionary, diags = parse_dictionary(text)
        assert len(dictionary.entries) == 1
        errors = [d for d in diags if d.severity == Severity.ERROR]
        assert len(errors) == 1
        assert errors[0].line == 4

    def test_duplicate_entries_flagged_and_both_kept(self):
        text = '"go", "V",\n--"1.jAnA"\nI go.\n\n"go", "V",\n--"1.calanA"\nGo on.\n'
        dictionary, diags = parse_dictionary(text)
        assert len(dictionary.entries) == 2
        assert [e.senses[0].examples for e in dictionary.entries] == [("I go.",), ("Go on.",)]
        assert [(d.message, d.line) for d in diags if "duplicate" in d.message] == [
            ("duplicate entry for 'go' (V); both entries kept", 5)
        ]

    def test_sense_without_example_warns(self):
        text = '"go", "V",\n--"1.jAnA"\n'
        _, diags = parse_dictionary(text)
        assert any("no example" in d.message for d in diags)

    def test_gloss_error_columns_count_from_the_line(self):
        text = '"go", "V",\n--"1.ab[<x"\n  --"2.c//d"\n\t-- "3.x{}"\n--"4.ok"\nGo.\n'
        _, diags = parse_dictionary(text)
        assert [(d.message, d.line, d.column) for d in diags if d.severity == Severity.ERROR] == [
            ("unbalanced '['", 2, 8),
            ("empty gloss alternative", 3, 10),
            ("empty context annotation", 4, 9),
        ]


class TestLookup:
    @pytest.fixture()
    def go_dict(self, go_dict_text):
        dictionary, _ = parse_dictionary(go_dict_text)
        return dictionary

    def test_with_pos(self, go_dict):
        entries = lookup(go_dict, "go", "V")
        assert len(entries) == 1
        assert len(entries[0].senses) == 7

    def test_without_pos(self, go_dict):
        assert lookup(go_dict, "go") == lookup(go_dict, "go", "V")

    def test_absent(self, go_dict):
        assert lookup(go_dict, "zzz") == []


class TestFrequencyFilter:
    def test_singleton(self, go_dict_text):
        dictionary, _ = parse_dictionary(go_dict_text)
        assert len(frequency_filter(dictionary, {"go"}).entries) == 1

    def test_empty_wordlist(self, go_dict_text):
        dictionary, _ = parse_dictionary(go_dict_text)
        assert frequency_filter(dictionary, set()).entries == ()

    def test_order_preserved(self):
        text = (
            '"alpha", "N",\n--"1.eka"\nOne alpha.\n\n'
            '"beta", "N",\n--"1.do"\nOne beta.\n\n'
            '"gamma", "N",\n--"1.tIna"\nOne gamma.\n'
        )
        dictionary, _ = parse_dictionary(text)
        filtered = frequency_filter(dictionary, {"gamma", "alpha", "zeta"})
        assert [e.headword for e in filtered.entries] == ["alpha", "gamma"]


class TestEmit:
    def test_round_trip_go(self, go_dict_text):
        first, _ = parse_dictionary(go_dict_text)
        emitted = emit_dictionary(first)
        second, diags = parse_dictionary(emitted)
        assert second == Dictionary(first.entries)
        assert not [d for d in diags if d.severity >= Severity.WARNING]

    def test_byte_stable_second_emit(self, go_dict_text):
        first, _ = parse_dictionary(go_dict_text)
        emitted = emit_dictionary(first)
        again, _ = parse_dictionary(emitted)
        assert emit_dictionary(again) == emitted

    def test_empty_dictionary(self):
        assert emit_dictionary(Dictionary()) == ""

    def test_context_annotation_verbatim(self, go_dict_text):
        dictionary, _ = parse_dictionary(go_dict_text)
        assert "{sthiti}" in emit_dictionary(dictionary)


# Every character JSON escapes, a few it writes as they are, and both kinds of line end.
_odd_text = st.text(
    alphabet='aZ"\\/~[{' + "".join(map(chr, range(0x20))) + "\x7f\u00e9\u2028\u2029\U0001f600",
    max_size=5,
)
_entries = st.lists(
    st.builds(
        DictEntry,
        _odd_text,
        _odd_text,
        st.lists(
            st.builds(
                Sense,
                st.integers(0, 10**30),
                st.builds(
                    GlossExpr,
                    st.lists(
                        st.builds(
                            GlossComponent,
                            st.lists(_odd_text, min_size=1, max_size=3).map(tuple),
                            st.booleans(),
                        ),
                        min_size=1,
                        max_size=3,
                    ).map(tuple),
                    st.none() | _odd_text,
                    st.none() | _odd_text,
                ),
                st.lists(_odd_text, max_size=3).map(tuple),
            ),
            max_size=3,
        ).map(tuple),
    ),
    max_size=4,
).map(tuple)


def _plain(value):
    """``value`` with each NamedTuple as the dict of its fields and each tuple a list."""
    if hasattr(value, "_asdict"):
        return {key: _plain(item) for key, item in value._asdict().items()}
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


@given(_entries)
@example(())
@example((DictEntry("go", "V"),))  # an entry without senses
@example((DictEntry("a\\b", "V", (Sense(10**30, GlossExpr((GlossComponent(("x",)),))),)),))
def test_interchange_is_the_text_json_dumps_writes(entries):
    plain = {"format": "shabdaanjali", "entries": _plain(entries)}
    expected = json.dumps(plain, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    assert emit_interchange(Dictionary(entries)) == expected
