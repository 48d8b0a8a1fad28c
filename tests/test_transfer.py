from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leril import transfer
from leril.diagnostics import info, warning
from leril.transfer import (
    Frame,
    FrameElement,
    FrameError,
    SlotBinding,
    TransferError,
    TransferMatch,
    _frame_error,
    gloss_index,
    inflection_fold,
    lexicon_pairs,
    match_frame,
    parse_frame,
    render_target,
    tokenize_sentence,
    transfer_pairs,
)
from leril.translexgram import parse_tlg


class TestParseFrame:
    def test_source_frame(self):
        frame = parse_frame("A goes to B", "source")
        assert frame.elements == (
            FrameElement("slot", "A"),
            FrameElement("literal", "goes"),
            FrameElement("literal", "to"),
            FrameElement("slot", "B"),
        )

    def test_target_frame_with_optional(self):
        frame = parse_frame("A B [ko] jAtA hai", "target")
        assert frame.elements == (
            FrameElement("slot", "A"),
            FrameElement("slot", "B"),
            FrameElement("optional", "ko"),
            FrameElement("literal", "jAtA"),
            FrameElement("literal", "hai"),
        )

    def test_single_slot(self):
        assert parse_frame("A").elements == (FrameElement("slot", "A"),)

    def test_multiword_literal(self):
        frame = parse_frame("A B meM rakhA_jAtA_hai", "target")
        assert frame.elements[-1] == FrameElement("literal", "rakhA_jAtA_hai")

    def test_duplicate_slot_is_error(self):
        with pytest.raises(FrameError):
            parse_frame("A goes A")

    def test_empty_frame_is_error(self):
        with pytest.raises(FrameError):
            parse_frame("   ")

    def test_elements_compare_and_hash_by_kind_and_value(self):
        first = parse_frame("A to [B]").elements
        second = parse_frame("A to [B]", "target").elements
        assert first == second and hash(first) == hash(second)
        assert {first[0], FrameElement("slot", "A")} == {FrameElement("slot", "A")}
        assert FrameElement("slot", "A") != FrameElement("literal", "A")
        assert (first[2].kind, first[2].value) == ("optional", "B")


def _reference_parse_frame(text: str) -> list[tuple[str, str]]:
    """The token walk with four str tests per slot, as (kind, value) pairs."""
    tokens = text.split()
    if not tokens:
        raise FrameError("empty frame")
    elements, seen = [], set()
    for token in tokens:
        if len(token) == 1 and token.isascii() and token.isalpha() and token.isupper():
            if token in seen:
                raise FrameError(f"duplicate slot letter '{token}'")
            seen.add(token)
            elements.append(("slot", token))
        elif token.startswith("[") and token.endswith("]"):
            if not token[1:-1]:
                raise FrameError("empty optional literal '[]'")
            elements.append(("optional", token[1:-1]))
        else:
            elements.append(("literal", token))
    return elements


def _outcome(parse, text):
    try:
        return parse(text)
    except FrameError as exc:
        return str(exc)


_frame_token = st.sampled_from(
    ["[", "]", "[]", "[[]]", "[x", "x]", "[ko]", "[A]", "A", "B", "Z", "a", "AB", "goes",
     "\u00c1", "\u01c5", "\u00df", "\u03a3", "0", "7", "\u2167"]
)


_frame_text = st.builds(
    lambda tokens, spaces: "".join(token + space for token, space in zip(tokens, spaces)),
    st.lists(_frame_token, max_size=7),
    st.lists(st.sampled_from([" ", "  ", "\t", "\u00a0", "\x1c"]), min_size=8, max_size=8),
)


@settings(max_examples=400)
@given(_frame_text, st.sampled_from(["source", "target"]))
def test_parse_frame_matches_reference_walk(text, side):
    expected = _outcome(_reference_parse_frame, text)
    frame = _outcome(lambda t: parse_frame(t, side), text)
    if isinstance(expected, str):
        assert frame == expected
    else:
        assert frame.side == side
        assert frame.elements == tuple(FrameElement(kind, value) for kind, value in expected)
        assert frame.slots == [value for kind, value in expected if kind == "slot"]


@settings(max_examples=400)
@given(_frame_text)
def test_frame_error_is_the_message_parse_frame_raises(text):
    parsed = _outcome(parse_frame, text)
    assert _frame_error(text.split()) == (parsed if isinstance(parsed, str) else None)


class TestInflectionFold:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("goes", "go"),
            ("Goes", "go"),
            ("go", "go"),
            ("is", "is"),
            ("going", "go"),
            ("walked", "walk"),
            ("into", "into"),
        ],
    )
    def test_folds(self, token, expected):
        assert inflection_fold(token) == expected

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyzGOES", min_size=1, max_size=12))
    def test_idempotent(self, token):
        once = inflection_fold(token)
        assert inflection_fold(once) == once

    @staticmethod
    def _reference_fold(token):
        """Strip the first fitting suffix until none fits, trying every suffix each time."""
        folded = token.lower()
        while True:
            for suffix in ("es", "ed", "ing", "s"):
                if folded.endswith(suffix) and len(folded) - len(suffix) >= 2:
                    folded = folded[: -len(suffix)]
                    break
            else:
                return folded

    @settings(max_examples=400)
    @given(st.text(alphabet="aegidnsSEGI\u0130\u00df\u1e9e", max_size=10))
    def test_fold_matches_reference_and_keeps_two_characters(self, token):
        lowered = token.lower()
        folded = inflection_fold(token)
        assert folded == self._reference_fold(token)
        assert lowered.startswith(folded) and folded[:2] == lowered[:2]


class TestTokenize:
    def test_strips_terminal_punctuation(self):
        assert tokenize_sentence("I go to school.") == ["I", "go", "to", "school"]

    def test_question_mark(self):
        assert tokenize_sentence("Have you gone mad?") == ["Have", "you", "gone", "mad"]


class TestMatchFrame:
    def test_simple_sentence(self):
        frame = parse_frame("A goes to B")
        binding = match_frame(frame, tokenize_sentence("I go to school."))
        assert binding.bindings == {"A": ("I",), "B": ("school",)}

    def test_multiword_spans(self):
        frame = parse_frame("A goes into B")
        binding = match_frame(
            frame, tokenize_sentence("These clothes go into that suitcase.")
        )
        assert binding.bindings == {
            "A": ("These", "clothes"),
            "B": ("that", "suitcase"),
        }

    def test_missing_anchor_fails(self):
        frame = parse_frame("A goes to B")
        assert match_frame(frame, tokenize_sentence("I went home.")) is None

    def test_leftmost_shortest_is_deterministic(self):
        frame = parse_frame("A x B")
        binding = match_frame(frame, ["p", "x", "q", "x", "r"])
        # A takes the shortest span that still lets the rest match
        assert binding.bindings == {"A": ("p",), "B": ("q", "x", "r")}

    @pytest.mark.parametrize("n", [200, 400])
    def test_long_no_match_with_many_slots(self, n):
        frame = parse_frame("A B C D E z")
        sentence = [f"w{i}" for i in range(n - 2)] + ["z", "q"]
        assert match_frame(frame, sentence) is None

    def test_long_adjacent_slots_take_leftmost_shortest_spans(self):
        frame = parse_frame("A B C goes to D E")
        sentence = [f"w{i}" for i in range(400)]
        sentence[100] = "goes"  # not followed by "to"
        sentence[200:202] = ["going", "to"]  # first place the rest can match
        sentence[300:302] = ["go", "to"]
        binding = match_frame(frame, sentence)
        assert binding.bindings == {
            "A": ("w0",),
            "B": ("w1",),
            "C": tuple(sentence[2:200]),
            "D": ("w202",),
            "E": tuple(sentence[203:]),
        }

    def test_frame_longer_than_the_recursion_limit(self):
        frame = parse_frame(" ".join(["goes"] * 1500 + ["A"]))
        binding = match_frame(frame, ["go"] * 1500 + ["home"])
        assert binding.bindings == {"A": ("home",)}


_COLLIDING = ["go", "goes", "going", "Goed", "is", "to", "tos"]


def _widths(kinds: list[str], n: int):
    """Every way to give each element a width so that the widths sum to n:
    slots take 1..n tokens shortest first, optionals 1 then 0, literals 1.
    The earliest element varies slowest, which is leftmost-shortest order."""
    if not kinds:
        if n == 0:
            yield ()
        return
    first = {"slot": range(1, n + 1), "optional": (1, 0), "literal": (1,)}[kinds[0]]
    for width in first:
        if width <= n:
            for rest in _widths(kinds[1:], n - width):
                yield (width,) + rest


def _reference_match(frame: Frame, sentence: list[str]):
    """Brute force: the first width assignment, in leftmost-shortest order,
    whose literals fold onto the tokens they cover."""
    for widths in _widths([el.kind for el in frame.elements], len(sentence)):
        binding, start = {}, 0
        for el, width in zip(frame.elements, widths):
            if el.kind == "slot":
                binding[el.value] = tuple(sentence[start : start + width])
            elif width and inflection_fold(el.value) != inflection_fold(sentence[start]):
                break
            start += width
        else:
            return binding
    return None


@st.composite
def _frames(draw):
    elements = []
    letters = iter("ABCDEF")
    kinds = st.lists(st.sampled_from(["slot", "literal", "optional"]), min_size=1, max_size=6)
    for kind in draw(kinds):
        value = next(letters) if kind == "slot" else draw(st.sampled_from(_COLLIDING))
        elements.append(FrameElement(kind, value))
    return Frame("source", tuple(elements))


@settings(max_examples=400)
@given(_frames(), st.lists(st.sampled_from(_COLLIDING), max_size=9))
def test_match_frame_agrees_with_brute_force(frame, sentence):
    expected = _reference_match(frame, sentence)
    folded = [inflection_fold(token) for token in sentence]
    for binding in (match_frame(frame, sentence), match_frame(frame, sentence, folded)):
        assert (None if binding is None else dict(binding.bindings)) == expected


class TestRenderTarget:
    def test_include_policy(self):
        frame = parse_frame("A B [ko] jAtA hai", "target")
        binding = SlotBinding({"A": ("I",), "B": ("school",)})
        assert render_target(frame, binding) == "I school ko jAtA hai"

    def test_bracket_policy(self):
        frame = parse_frame("A B [ko] jAtA hai", "target")
        binding = SlotBinding({"A": ("I",), "B": ("school",)})
        assert render_target(frame, binding, "bracket") == "I school [ko] jAtA hai"

    def test_drop_policy(self):
        frame = parse_frame("A B [ko] jAtA hai", "target")
        binding = SlotBinding({"A": ("I",), "B": ("school",)})
        assert render_target(frame, binding, "drop") == "I school jAtA hai"

    def test_multiword_literal_stays_joined(self):
        frame = parse_frame("A B meM rakhA_jAtA_hai", "target")
        binding = SlotBinding({"A": ("These", "clothes"), "B": ("that", "suitcase")})
        assert (
            render_target(frame, binding)
            == "These clothes that suitcase meM rakhA_jAtA_hai"
        )

    def test_unbound_slot_names_the_letter(self):
        frame = parse_frame("A B jAtA hai", "target")
        with pytest.raises(TransferError, match="slot B"):
            render_target(frame, SlotBinding({"A": ("I",)}))


class TestTransferSentence:
    @pytest.fixture()
    def go_records(self, go_tlg_text):
        records, _ = parse_tlg(go_tlg_text)
        return records

    @staticmethod
    def _transfer(records, sentence, **kw):
        pairs, pair_diags = lexicon_pairs(records)
        matches, diags = transfer_pairs(pairs, sentence, **kw)
        return matches, [d.render() for d in pair_diags + diags]

    def test_school_sentence_matches_meaning_1(self, go_records):
        matches, diags = self._transfer(go_records, "I go to school.")
        assert diags == ["info: matched meaning 1 of 'go'"]
        assert [(m.label, m.output) for m in matches] == [
            ("meaning 1 of 'go'", "I school ko jAtA hai")
        ]
        assert matches[0].binding == SlotBinding({"A": ("I",), "B": ("school",)})

    def test_suitcase_sentence_matches_meaning_2(self, go_records):
        matches, _ = self._transfer(go_records, "These clothes go into that suitcase.")
        assert [(m.label, m.output) for m in matches] == [
            ("meaning 2 of 'go'", "These clothes that suitcase meM rakhA_jAtA_hai")
        ]

    def test_no_anchor_no_results(self, go_records):
        matches, diags = self._transfer(go_records, "The sky is blue.")
        assert matches == []
        assert diags == ["info: no frame matched the sentence"]

    def test_half_frame_pair_warns(self, go_records):
        record = go_records[0]
        first = record.meanings[0]._replace(frame_i="")
        go_records[0] = record._replace(meanings=(first, *record.meanings[1:]))
        matches, diags = self._transfer(go_records, "I go to school.")
        assert matches == []
        assert diags == [
            "warning: meaning 1 of 'go': incomplete frame pair; skipped",
            "info: no frame matched the sentence",
        ]

    def test_unknown_headword_selects_nothing(self, go_records):
        pairs, diags = lexicon_pairs(go_records, "come")
        assert pairs is None
        assert [d.render() for d in diags] == ["error: headword 'come' not found in lexicon"]

    def test_glosses_annotate_output_not_binding(self, go_records):
        glosses = gloss_index(go_records)
        assert glosses == {"go": "jAnA"}
        pairs = [("literal frames", "A likes B", "A B [ko] pasanda karatA hai")]
        matches, _ = transfer_pairs(pairs, "Go likes go.", "drop", glosses)
        assert matches[0].output == "Go{=jAnA} go{=jAnA} pasanda karatA hai"
        assert matches[0].binding == SlotBinding({"A": ("Go",), "B": ("go",)})


def _render_source(frame: Frame, binding: dict[str, tuple[str, ...]]) -> list[str]:
    tokens = []
    for el in frame.elements:
        if el.kind == "slot":
            tokens.extend(binding[el.value])
        else:
            tokens.append(el.value)
    return tokens


@pytest.mark.parametrize("pattern", ["A goes to B", "A goes into B"])
def test_slot_recovery_brute_force(pattern):
    """Planted fillers are recovered exactly for every filler combination."""
    frame = parse_frame(pattern)
    vocabulary = ["alpha", "beta", "gamma", "delta"]
    spans = [
        tuple(combo)
        for size in (1, 2)
        for combo in product(vocabulary, repeat=size)
    ]
    for a_span in spans:
        for b_span in spans:
            planted = {"A": a_span, "B": b_span}
            sentence = _render_source(frame, planted)
            binding = match_frame(frame, sentence)
            assert binding is not None
            assert binding.bindings == planted


@given(
    st.lists(st.sampled_from(["alpha", "beta", "gamma"]), min_size=1, max_size=3),
    st.lists(st.sampled_from(["alpha", "beta", "gamma"]), min_size=1, max_size=3),
    st.sampled_from(["include", "drop", "bracket"]),
)
def test_render_token_count(a_span, b_span, policy):
    frame = parse_frame("A B [ko] jAtA hai", "target")
    binding = SlotBinding({"A": tuple(a_span), "B": tuple(b_span)})
    rendered = render_target(frame, binding, policy).split()
    literal_count = 2 + (0 if policy == "drop" else 1)
    assert len(rendered) == literal_count + len(a_span) + len(b_span)


def _reference_transfer_pairs(pairs, sentence, optional_policy="include", glosses=None):
    """transfer_pairs parsing every pair with the reference walk, then matching it."""
    tokens = tokenize_sentence(sentence)
    folded = [inflection_fold(token) for token in tokens]
    matches, diagnostics = [], []
    for label, frame_e, frame_i in pairs:
        try:
            source, target = (
                Frame(side, tuple(FrameElement(*el) for el in _reference_parse_frame(text)))
                for side, text in (("source", frame_e), ("target", frame_i))
            )
        except FrameError as exc:
            diagnostics.append(warning(f"{label}: {exc}"))
            continue
        binding = match_frame(source, tokens, folded)
        if binding is None:
            continue
        shown = binding
        if glosses is not None:
            shown = SlotBinding({
                letter: tuple(f"{t}{{={glosses[t.lower()]}}}" if t.lower() in glosses else t
                              for t in span)
                for letter, span in binding.bindings.items()
            })
        try:
            output = render_target(target, shown, optional_policy)
        except TransferError as exc:
            diagnostics.append(warning(f"{label}: {exc}"))
            continue
        matches.append(TransferMatch(label, output, binding))
        diagnostics.append(info(f"matched {label}"))
    if not matches:
        diagnostics.append(info("no frame matched the sentence"))
    return matches, diagnostics


# sentence words whose folds collide, share a first two letters or differ only in case
_WORDS = ["I", "go", "Goes", "going", "gone", "good", "to", "tos", "t", "school", "Schools",
          "\u0130s", "i\u0307s", "\u00df", "\u1e9ees"]
_MALFORMED = ["", " \t ", "A goes A", "[] to", "B [] C B", "A [] A"]


@st.composite
def _frame_pairs(draw):
    """A source and a target frame; one pair in three has a malformed side."""
    letters = iter("ABC")
    source = []
    kinds = st.lists(st.sampled_from(["slot", "word", "optional"]), min_size=1, max_size=4)
    for kind in draw(kinds):
        token = next(letters, None) if kind == "slot" else None
        if token is None:
            token = draw(st.sampled_from(["[to]", "[go]"] if kind == "optional" else _WORDS))
        source.append(token)
    target = draw(st.lists(st.sampled_from(["A", "B", "C", "[ko]", "jAtA", "hai"]), min_size=1,
                           max_size=4, unique=True))
    pair = [" ".join(source), " ".join(target)]
    if draw(st.integers(0, 2)) == 0:
        pair[draw(st.integers(0, 1))] = draw(st.sampled_from(_MALFORMED))
    return tuple(pair)


@st.composite
def _sentences(draw, frames):
    """Random words, or a source frame with its slots filled, so that some pairs match."""
    words = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=2)
    if not frames or draw(st.booleans()):
        return " ".join(draw(words))
    out = []
    for token in draw(st.sampled_from(frames))[0].split():
        if token in ("A", "B", "C"):
            out += draw(words)
        elif token[0] != "[":
            out.append(token)
        elif token != "[]" and draw(st.booleans()):
            out.append(token[1:-1])
    return " ".join(out) + draw(st.sampled_from(["", ".", "?"]))


_SCHOOL = [("A goes to B", "A B [ko] jAtA hai")]


@settings(max_examples=400)
@given(
    st.lists(_frame_pairs(), max_size=8).flatmap(
        lambda frames: st.tuples(st.just(frames), _sentences(frames))
    ),
    st.sampled_from(["include", "drop", "bracket"]),
    st.sampled_from([None, {"go": "jAnA", "school": "pAThaSAlA", "\u00df": "x"}]),
)
@example((_SCHOOL, "I go to school."), "bracket", {"school": "pAThaSAlA"})
@example(
    (
        [("A A", "A"), ("A to B", "[] B"), ("   ", "A"), ("A goes B", "A C"), ("A", "B A")]
        + _SCHOOL + [("A", "A B"), ("[] A", "A A")],
        "I go to school",
    ),
    "drop",
    None,
)
def test_transfer_pairs_matches_parsing_every_pair(case, policy, glosses):
    frames, sentence = case
    pairs = [(f"pair {k}", source, target) for k, (source, target) in enumerate(frames)]
    expected = _reference_transfer_pairs(pairs, sentence, policy, glosses)
    assert transfer_pairs(pairs, sentence, policy, glosses) == expected


def test_only_frames_whose_literals_all_occur_are_parsed(monkeypatch):
    parsed = []

    def counted(text, side):
        parsed.append(text)
        return parse_frame(text, side)

    monkeypatch.setattr(transfer, "parse_frame", counted)
    pairs = [(f"pair {k}", f"A w{k} B", "A B hai") for k in range(200)]
    pairs += [("school", "A goes [into] to B", "A B [ko] jAtA hai"), ("bad", "A A", "A")]
    matches, diags = transfer_pairs(pairs, "I go to school.")
    assert [m.output for m in matches] == ["I school ko jAtA hai"]
    assert [d.render() for d in diags] == [
        "info: matched school", "warning: bad: duplicate slot letter 'A'"
    ]
    assert parsed == ["A goes [into] to B", "A B [ko] jAtA hai"]
