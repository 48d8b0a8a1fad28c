import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leril.cli import run
from leril.diagnostics import Severity
from leril.shabdasutra import (
    SenseThread,
    SutraFormula,
    SutraParseError,
    ThreadStage,
    check_consistency,
    emit_formula,
    emit_interchange,
    load_aliases,
    parse_formula,
    parse_formula_file,
    parse_thread,
    parse_thread_file,
)

ISSUE_FORMULA = "viSaya[~~ < niSpAdana]"
ISSUE_THREAD = (
    "niSpAdana(astitwa meM IAnA/AnA) --> niSpatti kA srota "
    "--> niSpatti (santAna, sansakaraNa etc)"
)


def _thread_text(thread: SenseThread) -> str:
    """A thread written out, one line, each example quoted; examples must
    stay comma-free, since commas separate examples when it is read."""
    parts = []
    for stage in thread.stages:
        text = stage.label
        if stage.gloss is not None:
            text += f"({stage.gloss})"
        if stage.examples:
            text += " eg: " + ", ".join(f'"{e}"' for e in stage.examples)
        parts.append(text)
    return " --> ".join(parts)


class TestParseFormula:
    def test_issue_formula(self):
        formula = parse_formula(ISSUE_FORMULA)
        assert formula.head == "viSaya"
        assert formula == SutraFormula(("viSaya", "niSpAdana"), (2,))

    def test_bare_head(self):
        assert parse_formula("jAnA") == SutraFormula(("jAnA",))

    def test_nested_derivation(self):
        formula = parse_formula("a[< b[~ < c]]")
        assert formula.head == "a"
        assert formula.heads == ("a", "b", "c")
        assert formula.turns == (0, 1)
        assert parse_formula(emit_formula(formula)) == formula

    @pytest.mark.parametrize(
        "bad",
        ["", "a[", "a]", "a[< ]", "[< b]", "a < b", "a~b", "a[~ b]", "a[< b] c"],
    )
    def test_malformed(self, bad):
        with pytest.raises(SutraParseError):
            parse_formula(bad)


class TestParseThread:
    def test_issue_thread(self):
        thread = parse_thread(ISSUE_THREAD)
        assert len(thread.stages) == 3
        assert thread.stages[0].label == "niSpAdana"
        assert thread.stages[0].gloss == "astitwa meM IAnA/AnA"
        assert thread.stages[1] == ThreadStage("niSpatti kA srota")
        assert thread.stages[2].label == "niSpatti"
        assert thread.stages[2].gloss == "santAna, sansakaraNa etc"

    def test_single_stage(self):
        assert parse_thread("x") == SenseThread((ThreadStage("x"),))

    def test_examples_attach_to_stages(self, fixtures_dir):
        text = (fixtures_dir / "issue_examples.thread").read_text()
        thread = parse_thread(text)
        assert thread.stages[0].examples == ("issue orders",)
        assert thread.stages[1].examples == ("point of issue of a river",)
        assert "has no issue after marriage" in thread.stages[2].examples
        assert "latest issue is out" in thread.stages[2].examples

    def test_stage_count_is_arrows_plus_one(self):
        thread = parse_thread("a --> b --> c --> d")
        assert len(thread.stages) == 4

    def test_empty_stage_is_error(self):
        with pytest.raises(SutraParseError):
            parse_thread("a --> --> c")

    @pytest.mark.parametrize(
        "text, outcome",
        [
            # a gloss holds nested parentheses and ends at the ')' that closes its '('
            ("a (b (c) d) --> e", (ThreadStage("a", "b (c) d"), ThreadStage("e"))),
            # a ')' before the '(' is label text
            ("a ) b (c) --> e", (ThreadStage("a ) b", "c"), ThreadStage("e"))),
            ("a (b (c) --> e", ("unbalanced '(' in stage", 3)),
            ("a --> b) c", ("unbalanced ')' in stage", 8)),
            ("a (b) c --> e", ("unexpected text after stage gloss", 7)),
            # positions count in the whole thread, its blanks collapsed
            ("a -->  b)\t c", ("unbalanced ')' in stage", 8)),
            ("a (b)  c --> e", ("unexpected text after stage gloss", 7)),
        ],
    )
    def test_stage_glosses(self, text, outcome):
        try:
            result = parse_thread(text).stages
        except SutraParseError as exc:
            result = (str(exc), exc.position)
        assert result == outcome


class TestEmit:
    def test_issue_formula_canonical(self):
        assert emit_formula(parse_formula(ISSUE_FORMULA)) == ISSUE_FORMULA

    def test_bare_head(self):
        assert emit_formula(SutraFormula(("jAnA",))) == "jAnA"

    def test_zero_turn_spacing(self):
        assert emit_formula(parse_formula("a[< b]")) == "a[< b]"

    @pytest.mark.parametrize(
        "formula, message",
        [
            (SutraFormula("jAnA"), "heads must be a non-empty tuple of str"),
            (SutraFormula(()), "heads must be a non-empty tuple of str"),
            (SutraFormula(("a", 1)), "heads must be a non-empty tuple of str"),
            (SutraFormula(["a", "b"], (1,)), "heads must be a non-empty tuple of str"),
            (SutraFormula(("a", "b")), "a formula of 2 heads needs 1 turn counts"),
            (SutraFormula(("a",), (1,)), "a formula of 1 heads needs 0 turn counts"),
            (SutraFormula(("a", "b"), (True,)), "turn counts must be int, none below 0"),
            (SutraFormula(("a", "b"), (-1,)), "turn counts must be int, none below 0"),
        ],
    )
    def test_a_hand_built_formula_that_is_not_one_is_refused(self, formula, message):
        with pytest.raises(ValueError, match=message):
            emit_formula(formula)
        with pytest.raises(ValueError, match=message):
            emit_interchange([SutraFormula(("a",)), formula])

    def test_thread_round_trip(self):
        thread = parse_thread(ISSUE_THREAD)
        assert parse_thread(_thread_text(thread)) == thread


_head = st.text(alphabet="abcdefgSAI", min_size=1, max_size=6)


def _formulas(depth: int):
    """Formulas of up to ``depth`` derivations."""
    return st.integers(0, depth).flatmap(
        lambda n: st.builds(
            SutraFormula,
            st.lists(_head, min_size=n + 1, max_size=n + 1).map(tuple),
            st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple),
        )
    )


@given(_formulas(3))
def test_formula_round_trip_property(formula):
    assert parse_formula(emit_formula(formula)) == formula


@given(_formulas(3))
def test_turn_count_is_tilde_count(formula):
    assert emit_formula(formula).count("~") == sum(formula.turns)


def _normalized(alphabet: str, max_size: int):
    # parse_thread collapses whitespace runs, so stay inside that domain
    return (
        st.text(alphabet=alphabet, min_size=1, max_size=max_size)
        .map(lambda s: " ".join(s.split()))
        .filter(bool)
    )


_label = st.text(alphabet="abcdefg", min_size=1, max_size=5)
_stages = st.lists(
    st.builds(
        ThreadStage,
        _label,
        st.none() | _normalized("abc ,", 8),
        st.lists(_normalized("xyz ", 8), max_size=2).map(tuple),
    ),
    min_size=1,
    max_size=4,
)


@given(_stages)
def test_thread_round_trip_property(stages):
    thread = SenseThread(tuple(stages))
    assert parse_thread(_thread_text(thread)) == thread


class TestConsistency:
    def test_issue_pair_without_alias_warns_once(self):
        formula = parse_formula(ISSUE_FORMULA)
        thread = parse_thread(ISSUE_THREAD)
        diags = check_consistency(formula, thread)
        assert len(diags) == 1
        assert diags[0].severity == Severity.WARNING
        assert "viSaya" in diags[0].message

    def test_issue_pair_with_alias_is_clean(self, fixtures_dir):
        formula = parse_formula(ISSUE_FORMULA)
        thread = parse_thread(ISSUE_THREAD)
        aliases = load_aliases((fixtures_dir / "aliases.tsv").read_text())
        assert check_consistency(formula, thread, aliases) == []

    def test_direct_alignment(self):
        diags = check_consistency(parse_formula("a[< b]"), parse_thread("b --> a"))
        assert diags == []

    def test_source_mismatch_warns(self):
        diags = check_consistency(parse_formula("a[< b]"), parse_thread("c --> a"))
        assert len(diags) == 1
        assert "differs from first thread stage" in diags[0].message


class TestFiles:
    def test_formula_file(self, fixtures_dir):
        formulas, diags = parse_formula_file((fixtures_dir / "issue.formula").read_text())
        assert diags == []
        assert len(formulas) == 1
        assert formulas[0].head == "viSaya"

    def test_thread_file_multiline_block(self, fixtures_dir):
        threads, diags = parse_thread_file((fixtures_dir / "issue.thread").read_text())
        assert diags == []
        assert len(threads) == 1
        assert len(threads[0].stages) == 3

    @pytest.mark.parametrize(
        "text, reported",
        [
            ("a (b --> c\n", ("unbalanced '(' in stage", 1, 3)),
            # the line and column of the continuation line that holds the fault
            ("x\n\n  a\n  -->  b)\t c\n", ("unbalanced ')' in stage", 4, 9)),
            ("a\n-->\tb (c)  d\n", ("unexpected text after stage gloss", 2, 12)),
            ("a --> --> c\n", ("empty stage between arrows", 1, None)),
            ("(x) --> b\n", ("empty stage label", 1, None)),
            ("a eg: , --> b\n", ("no examples after 'eg:'", 1, None)),
        ],
    )
    def test_bad_thread_reported_at_its_column(self, text, reported):
        threads, diags = parse_thread_file(text)
        assert [(d.message, d.line, d.column) for d in diags] == [reported]

    def test_bad_formula_line_reported(self):
        # the column counts from the start of the line, indent included
        formulas, diags = parse_formula_file("ok\n   broken[\n")
        assert len(formulas) == 1
        assert [(d.message, d.line, d.column) for d in diags] == [("unbalanced '['", 2, 10)]

    def test_turns_without_a_source_reported_at_their_column(self):
        formulas, diags = parse_formula_file("a[~~]\n")
        assert formulas == []
        assert [(d.message, d.line, d.column) for d in diags] == [
            ("expected '<' in derivation", 1, 5)
        ]


def _derive(head: str, turns: int, source: SutraFormula) -> SutraFormula:
    """The formula ``head[~... < source]``."""
    return SutraFormula((head, *source.heads), (turns, *source.turns))


def _reference_parse_formula(s: str, start: int, stop: int) -> SutraFormula:
    """The walk that counts bracket depth from each level's ``[``."""
    head_end = next((i for i in range(start, stop) if s[i] in "[]<~"), None)
    if head_end is not None and s[head_end] != "[":
        message = {"]": "unbalanced ']'", "<": "'<' outside brackets", "~": "'~' outside brackets"}
        raise SutraParseError(message[s[head_end]], position=head_end + 1)
    head = s[start : stop if head_end is None else head_end].strip()
    if not head:
        raise SutraParseError("empty head", position=start + 1)
    if head_end is None:
        return SutraFormula((head,))
    depth, j = 0, head_end
    while j < stop:
        depth += {"[": 1, "]": -1}.get(s[j], 0)
        if depth == 0:
            break
        j += 1
    if depth != 0:
        raise SutraParseError("unbalanced '['", position=head_end + 1)
    if s[j + 1 : stop].strip():
        raise SutraParseError("unexpected text after derivation", position=j + 2)
    k, turns = head_end + 1, 0
    while k < j and s[k] != "<":
        if s[k] == "~":
            turns += 1
        elif not s[k].isspace():
            raise SutraParseError(
                f"expected '~' or '<' in derivation, found {s[k]!r}", position=k + 1
            )
        k += 1
    if k >= j:
        raise SutraParseError("expected '<' in derivation", position=k + 1)
    return _derive(head, turns, _reference_parse_formula(s, k + 1, j))


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except SutraParseError as exc:
        return str(exc), exc.position


@settings(max_examples=400)
@given(
    st.lists(
        st.sampled_from(["[", "]", "<", "~", " ", "a", "bc", "[", "]", "< ", "\t"]), max_size=16
    )
    | _formulas(4).map(emit_formula).flatmap(
        lambda text: st.tuples(
            st.just(text),
            st.integers(0, len(text)),
            st.sampled_from(["", "[", "]", "<", "~", "x"]),
            st.integers(0, 2),
        ).map(lambda t: t[0][: t[1]] + t[2] + t[0][t[1] + t[3] :])
    )
)
def test_parse_formula_matches_depth_counting_walk(pieces):
    text = "".join(pieces)
    assert _parse_outcome(parse_formula, text) == _parse_outcome(
        lambda t: _reference_parse_formula(t, 0, len(t)), text
    )


def _reference_interchange(formula: SutraFormula) -> dict:
    """The export written as a recursion over the derivation chain."""
    heads, turns = formula
    doc: dict = {"head": heads[0]}
    if not turns:
        doc["derivation"] = None
    else:
        doc["derivation"] = {
            "turn_count": turns[0],
            "source": _reference_interchange(SutraFormula(heads[1:], turns[1:])),
        }
    return doc


def _json_reference(formulas):
    doc = {"formulas": [_reference_interchange(f) for f in formulas]}
    return json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


_odd_head = st.text(alphabet='aS"\\\x00\x1f\u00e9\u2028\U0001f600', min_size=1, max_size=4)


@given(
    st.lists(
        st.recursive(
            st.builds(lambda head: SutraFormula((head,)), _odd_head),
            lambda inner: st.builds(_derive, _odd_head, st.integers(0, 12), inner),
            max_leaves=8,
        ),
        max_size=4,
    )
)
def test_formulas_json_matches_json_dumps(formulas):
    assert emit_interchange(formulas) == _json_reference(formulas)


def test_formulas_json_of_a_deep_formula(capsys, fixtures_dir, tmp_path):
    text = "h0"
    for k in range(1, 300):
        text = f"h{k}[{'~' * (k % 3)} < {text}]"
    path = tmp_path / "deep.formula"
    path.write_text((fixtures_dir / "issue.formula").read_text() + text + "\n")
    formulas, _ = parse_formula_file(path.read_text())
    assert run(["sutra", "parse-formula", str(path)]) == 0
    assert capsys.readouterr() == (_json_reference(formulas), "")


def _chain(depth: int) -> SutraFormula:
    """``depth`` levels, ``h{depth - 1}`` outermost; level ``hk`` has k % 3 turns."""
    ks = range(depth - 1, -1, -1)
    return SutraFormula(tuple(f"h{k}" for k in ks), tuple(k % 3 for k in ks[:-1]))


def test_formula_100000_levels_deep_round_trips():
    formula = _chain(100_000)
    text = emit_formula(formula)
    assert text.startswith("h99999[< h99998[~~ < h99997[~ < ")
    assert text.endswith("h1[~ < h0" + "]" * 99_999)
    parsed = parse_formula(text)
    assert parsed == formula
    assert repr(parsed) == repr(formula)
    assert repr(parsed).startswith("SutraFormula(heads=('h99999', 'h99998', ")
    assert hash(parsed) == hash(formula)
    assert emit_formula(parsed) == text


def _deep_json(depth: int) -> str:
    """``sutra parse-formula`` output for ``emit_formula(_chain(depth))``."""
    opening, closing = [], []
    pad = "    "
    for k in reversed(range(1, depth)):
        opening.append(f'{{\n{pad}  "derivation": {{\n{pad}    "source": ')
        closing.append(
            f',\n{pad}    "turn_count": {k % 3}\n{pad}  }},\n{pad}  "head": "h{k}"\n{pad}}}'
        )
        pad += "    "
    innermost = f'{{\n{pad}  "derivation": null,\n{pad}  "head": "h0"\n{pad}}}'
    body = "".join(opening) + innermost + "".join(reversed(closing))
    return f'{{\n  "formulas": [\n    {body}\n  ]\n}}\n'


def test_parse_formula_prints_a_formula_1500_levels_deep(capsys, tmp_path):
    assert _deep_json(40) == _json_reference([_chain(40)])
    path = tmp_path / "deep.formula"
    path.write_text(emit_formula(_chain(1500)) + "\n")
    assert run(["sutra", "parse-formula", str(path)]) == 0
    assert capsys.readouterr() == (_deep_json(1500), "")
