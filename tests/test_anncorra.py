import json
import random
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treegen import children, enumerate_trees, make_tree, random_tree, to_interchange

from leril import anncorra
from leril.anncorra import (
    DEFAULT_TAGS,
    AnnCorraParseError,
    AnnToken,
    DepNode,
    DepTree,
    EmitError,
    Group,
    TagRegistry,
    TagsetError,
    _depths,
    _nearest_verbal_table,
    _walk_token,
    default_registry,
    emit_explicit,
    emit_minimal,
    load_tagset,
    parse_sentence,
    parse_token,
    resolve,
)
from leril.diagnostics import Severity, error, has_errors, warning


def _shape(tree):
    """Surface/tags/attachment view of a tree, for readable assertions."""
    kids = children(tree)
    return [
        (n.surface, n.rel_tag, n.node_tag, n.parent, tuple(kids[p]))
        for p, n in enumerate(tree.nodes)
    ]


class TestRegistry:
    @staticmethod
    def _view(registry, tag):
        """What a registry answers about one tag, through its lookups."""
        if tag.category == "relation":
            token, canonical = AnnToken("x", rel_tag=tag.code), registry.canonical_relation
        else:
            token, canonical = AnnToken("x", node_tag=tag.code), registry.canonical_node
        return canonical(tag.code), registry.verbal_flags([token]) == [True]

    def test_default_contents(self, registry):
        relations = {t.code for t in DEFAULT_TAGS if t.category == "relation"}
        nodes = {t.code for t in DEFAULT_TAGS if t.category == "node"}
        assert {"k1", "k2", "k3", "s", "kr"} <= relations
        assert {"v", "Kr", "vH", "yo"} <= nodes
        verbal = {t.code for t in DEFAULT_TAGS if t.verbal}
        assert {"kr", "v", "Kr", "vH"} <= verbal
        assert "yo" not in verbal
        for tag in DEFAULT_TAGS:
            assert self._view(registry, tag) == (tag.code, tag.verbal)

    def test_empty_config_gives_default(self, registry):
        loaded = load_tagset("")
        for tag in DEFAULT_TAGS:
            assert self._view(loaded, tag) == self._view(registry, tag)

    def test_signature_keys_on_what_parsing_sees(self, registry):
        assert load_tagset("").signature() == registry.signature()
        # descriptions do not change how a line parses; casing and verbality do
        assert load_tagset("k1\trelation\tnonverbal\tagent\n").signature() == registry.signature()
        for config in (
            "K1\trelation\tnonverbal\n", "k1\trelation\tverbal\n", "k4\trelation\tnonverbal\n"
        ):
            assert load_tagset(config).signature() != registry.signature()

    def test_case_insensitive_lookup_keeps_casing(self, registry):
        assert registry.canonical_relation("KR") == "kr"
        assert registry.canonical_node("kr") == "Kr"
        assert registry.canonical_node("VH") == "vH"

    def test_config_extends_registry(self, fixtures_dir):
        config = (fixtures_dir / "tagset_k4.cfg").read_text()
        loaded = load_tagset(config)
        assert loaded.canonical_relation("k4") == "k4"
        token = parse_token("rAjA_ko/k4", loaded)
        assert token.rel_tag == "k4"

    def test_duplicate_config_tag_is_error(self):
        config = "k9\trelation\tnonverbal\tx\nk9\trelation\tverbal\ty\n"
        with pytest.raises(TagsetError):
            load_tagset(config)

    def test_unknown_category_is_error(self):
        with pytest.raises(TagsetError) as exc:
            load_tagset("k9\tedge\tnonverbal\tx\n")
        assert "line 1" in str(exc.value)

    @pytest.mark.parametrize("code", ["-", "k 1", "1k", "k-1"])
    def test_code_no_token_can_carry_is_error(self, code):
        # "-" is the store's field of a node without a tag; "k 1" holds a space
        with pytest.raises(TagsetError, match=f"^line 3: tag code '{code}' does not match"):
            load_tagset(f"# codes\nk9\trelation\tnonverbal\n{code}\trelation\tnonverbal\n")


class TestParseToken:
    def test_relation_with_self_and_parent(self, registry):
        token = parse_token("kATakara/kr:j->i", registry)
        assert token == AnnToken("kATakara", "kr", "j", "i", None)

    def test_node_with_self(self, registry):
        token = parse_token("piyA::v:i", registry)
        assert token == AnnToken("piyA", None, "i", None, "v")

    def test_bare_word(self, registry):
        assert parse_token("phala", registry) == AnnToken("phala")

    def test_multiword_surface(self, registry):
        assert parse_token("rAma_ne/k1->i", registry).surface == "rAma_ne"

    def test_relation_and_node_together(self, registry):
        token = parse_token("soyA/k2->i::v", registry)
        assert token == AnnToken("soyA", "k2", None, "i", "v")

    def test_unknown_tag_warns_but_parses(self, registry):
        diags = []
        token = parse_token("x/k9", registry, diagnostics=diags)
        assert token.rel_tag == "k9"
        assert len(diags) == 1 and diags[0].severity == Severity.WARNING

    def test_case_folds_to_registry_casing(self, registry):
        assert parse_token("x/KR", registry).rel_tag == "kr"
        assert parse_token("x::KR", registry).node_tag == "Kr"

    @pytest.mark.parametrize(
        "bad, message, column, warnings",
        [
            pytest.param(bad, message, column, warnings, id=bad)
            for bad, message, column, *warnings in [
                ("x->i", "'->' without a preceding relation tag", 2),  # arrow without a relation
                ("x/k1:", "empty or invalid index after ':'", 6),  # empty self index
                ("x/k1->", "empty or invalid index after '->'", 7),  # empty parent index
                ("x/", "missing relation tag after '/'", 3),
                ("x::", "missing node tag after '::'", 4),
                ("x/k1:A", "empty or invalid index after ':'", 6),  # labels are lowercase
                ("x:y", "unexpected text ':y' in token 'x:y'", 2),  # lone ':' outside a tag
                ("x/k1:i::v:j", "duplicate self index on token", 10),
                ("/k1", "token '/k1' has no surface text", 1),
                ("piyA::v:i->j", "unexpected text '->j' in token 'piyA::v:i->j'", 10),
                ("a]b", "stray ']' inside token 'a]b'", 2),
                ("x::v:", "empty or invalid index after ':'", 6),  # node-side index
                # an unknown tag before the fault is still reported
                ("x/k9:", "empty or invalid index after ':'", 6, ("unknown relation tag 'k9'", 3)),
            ]
        ],
    )
    def test_malformed_tokens(self, registry, bad, message, column, warnings):
        diags = []
        with pytest.raises(AnnCorraParseError) as exc:
            parse_token(bad, registry, diagnostics=diags)
        assert (str(exc.value), exc.value.column) == (message, column)
        assert [(d.message, d.column) for d in diags] == warnings


# Tokens over the characters the grammar cares about, plus a non-ASCII
# letter: free text, runs of grammar fragments, and surface + relation part
# + node part picked from well-formed and malformed variants, so that
# accepted, warned-about and rejected tokens are all common.
_TOKEN_CHARS = "ak1vx/:->[]<_\u00e9"
_FRAGMENTS = [
    "a", "k", "k1", "v", "V", "x", "/", ":", "::", "-", ">", "->", "[", "]", "<", "_", "\u00e9"
]
_SURFACES = ["a", "x", "\u00e9", "a-", "_"]
_REL_PARTS = [
    "", "/k1", "/kx", "/K1", "/kr", "/KR", "/k1:a", "/k1->x", "/k1:x->a", "/k1:b->a"
]
_NODE_PARTS = ["", "::v", "::V", "::x", "::Kr", "::AUX", "::v:a", "::v:x"]
_BAD_PARTS = [
    "", "a>", "[", "/", "/k1:", "/k1->", "->a", "/k1:A", ":a", "/1", "::", "::v:", "::v->a", "::v::v"
]
_well_formed = st.tuples(
    *(st.sampled_from(parts) for parts in (_SURFACES, _REL_PARTS, _NODE_PARTS))
).map("".join)
_tokens = st.one_of(
    st.text(alphabet=_TOKEN_CHARS, max_size=12),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=10).map("".join),
    _well_formed,
    st.tuples(_well_formed, st.sampled_from(_BAD_PARTS), st.integers(0, 12)).map(
        lambda t: t[0][: t[2]] + t[1] + t[0][t[2] :]
    ),
)
# The default registry knows k1 and v; an empty one makes every tag unknown;
# the loaded one overrides the verbal relation kr with a nonverbal KR and
# adds a verbal node tag in mixed case.
_OVERRIDING = load_tagset("KR\trelation\tnonverbal\naUx\tnode\tverbal\n")
_registries = st.sampled_from([anncorra.default_registry(), TagRegistry([]), _OVERRIDING])


def _token_outcome(parse, token, registry, diagnostics, column):
    try:
        result = parse(token, registry, diagnostics=diagnostics, column=column)
    except AnnCorraParseError as exc:
        return "error", str(exc), exc.column, diagnostics
    return "ok", result, diagnostics


@settings(max_examples=800, deadline=None)
@given(_tokens, _registries, st.booleans(), st.sampled_from([1, 9]))
@example("a/k1:a->x::v", anncorra.default_registry(), True, 3)
@example("a/kx:a::x", TagRegistry([]), True, 1)
@example("x/k1:i::v:j", anncorra.default_registry(), True, 1)
@example("\u00e9-_/V->a", anncorra.default_registry(), False, 1)
def test_parse_token_matches_character_walk(token, registry, collect, column):
    # same token, same warnings with the same columns, or the same error
    expected = _token_outcome(_walk_token, token, registry, [] if collect else None, column)
    got = _token_outcome(parse_token, token, registry, [] if collect else None, column)
    assert got == expected


_chunks = st.tuples(
    st.sampled_from(["", "", "", "[", "[["]),
    st.one_of(_tokens, _well_formed, _well_formed),
    st.sampled_from(["", "", "", "]<s>", "]<k1>", "]<>", "]<zz>", "]", "]<s>]<s>"]),
).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.lists(_chunks, min_size=1, max_size=6), _registries)
@example(["[rAma_ne/k1", "khIra", "khAyI::v]<s>"], anncorra.default_registry())
def test_parse_sentence_matches_character_walk(chunks, registry):
    # the reference sends every chunk through bracket stripping and the walk
    line = " ".join(chunks)
    with mock.patch.object(anncorra, "_TOKEN_RE", re.compile(r"(?!)")):
        expected = parse_sentence(line, registry)
    assert parse_sentence(line, registry) == expected


_LAST_CLOSER_RE = re.compile(r"\]<([^<>\[\]]*)>$")


def _peeled(chunk):
    """The reference bracket peel, one bracket at a time: strip each leading '[',
    then cut each trailing ']<tag>' off with a search anchored at the end."""
    opens = 0
    while chunk.startswith("["):
        opens += 1
        chunk = chunk[1:]
    closers = []
    while (m := _LAST_CLOSER_RE.search(chunk)) is not None:
        closers.append(m.group(1))
        chunk = chunk[: m.start()]
    return opens, chunk, closers[::-1]


_bracket_pieces = st.sampled_from(
    ["[", "]", "<", ">", "]<s>", "]<>", "]<k1>", "a", "s", "/k1", "::v", ":i", "->", "-"]
)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.text("[]<>as/:k-", max_size=16), st.lists(_bracket_pieces).map("".join)))
@example("]<s>" * 40 + "x")  # closers, then one other character: quadratic for a lazy fullmatch
@example("[" * 3 + "a/k1" + "]<s>" * 3)
@example("[[x/k1]<s>]<t>")
@example("[]<s>")
@example("x]<a>b]<c>")
@example("]<a]<b>")
@example("[[[")
@example("[x]<s")
def test_bracket_peel_matches_the_loops_it_replaced(chunk):
    assert anncorra._brackets(chunk) == _peeled(chunk)


# Sentences whose brackets nest, around the verbal root ``r::v:x``: most of
# them resolve to trees through every kind of attachment, by label, by
# default and by group head. Sentences of raw ``_chunks`` add the rest.
def _bracket(group):
    """The chunks of a group's units, the first opening it, the last closing it."""
    units, tag = group
    chunks = [chunk for unit in units for chunk in unit]
    chunks[0] = "[" + chunks[0]
    chunks[-1] += f"]<{tag}>"
    return chunks


_dependents = st.sampled_from(["a/k1", "b/k2", "c", "d/k1->x", "e/kr", "g/k2::v"])
_units = st.recursive(
    st.one_of(_dependents, _dependents, _well_formed).map(lambda chunk: [chunk]),
    lambda units: st.tuples(
        st.lists(units, min_size=1, max_size=3), st.sampled_from(["s", "k1", "zz"])
    ).map(_bracket),
    max_leaves=5,
)
_sentences = st.one_of(
    st.tuples(st.lists(_units, max_size=2), st.just([["r::v:x"]]), st.lists(_units, max_size=2))
    .map(lambda parts: " ".join(c for part in parts for unit in part for c in unit)),
    st.lists(_chunks, min_size=1, max_size=6).map(" ".join),
)


@settings(max_examples=500, deadline=None)
@given(_sentences)
@example("[rAma_ne/k1 khIra khAyI::v]<s>")
@example("[[c e/kr g/k2::v]<zz>]<s> r::v:x [a/k1 c]<k1>")
def test_parsed_trees_are_trees(line):
    # one root, parents in range, no cycle, groups inside the sentence
    tree, _ = parse_sentence(line, anncorra.default_registry())
    if tree is None:
        return
    n = len(tree.nodes)
    parents = [node.parent for node in tree.nodes]
    assert [p for p, parent in enumerate(parents) if parent is None] == [tree.root]
    assert all(parent is None or 0 <= parent < n for parent in parents)
    for start in range(n):
        p, steps = start, 0
        while p is not None:
            p, steps = parents[p], steps + 1
            assert steps <= n, f"cycle through position {start}"
    assert all(0 <= g.start < g.stop <= n for g in tree.groups)


def _group_head(tokens, parents, group):
    """The reference head lookup: the group's one tagged token whose parent lies outside it."""
    candidates = [
        p
        for p, token in enumerate(tokens[group.start : group.stop], group.start)
        if not anncorra._is_bare(token)
        and (parents[p] is None or not (group.start <= parents[p] < group.stop))
    ]
    return candidates[0] if len(candidates) == 1 else None


def _innermost_group_heads(tree):
    """The reference innermost rule, by painting: groups are written over their
    positions longest first, equal spans the last listed first, so the last group
    written at a position is its innermost one. Maps a position to that group's head."""
    n = len(tree.nodes)
    innermost = {}
    for group in sorted(reversed(tree.groups), key=lambda g: g.start - g.stop):
        for p in range(max(group.start, 0), min(group.stop, n)):
            innermost[p] = group
    parents = [node.parent for node in tree.nodes]
    heads = {group: _group_head(tree.nodes, parents, group) for group in set(innermost.values())}
    return {p: heads[group] for p, group in innermost.items()}


def _painted(tokens, parents, groups, positions):
    """``_innermost_heads`` by the painting above, for ``_emit``, which reads only the head."""
    heads = _innermost_group_heads(DepTree(tokens, groups))
    return {p: (None, heads[p]) for p in positions if p in heads}


def _grouped(tokens, parents, groups, verbal):
    """The reference group step of ``resolve``: each group, shortest first, walks its
    tokens and attaches every unattached bare one to the group's head, so a token that
    its innermost group cannot take is tried again in each enclosing group. Returns the
    parents and every report, each with the position of its token."""
    parents, reports = list(parents), []
    for group in sorted(groups, key=lambda g: g.stop - g.start):
        head = None
        head_known = False
        for p, token in enumerate(tokens[group.start : group.stop], group.start):
            if not anncorra._is_bare(token) or parents[p] is not None:
                continue
            if not head_known:
                head = _group_head(tokens, parents, group)
                head_known = True
            if head is None or not verbal[head]:
                message = f"group '<{group.tag}>' has no verbal head for bare token '{token.surface}'"
                reports.append((p, error(message)))
                continue
            parents[p] = head
            message = f"bare token '{token.surface}' attached to group head '{tokens[head].surface}'"
            reports.append((p, warning(message)))
    return parents, reports


@settings(max_examples=500, deadline=None)
@given(_sentences)
@example("[[x/k1 c y/k2]<k1> v::v]<s>")
@example("[[[c]<s>]<k1>]<s> v::v")
@example("r::v:x [[c]<s>]<k1>")  # equal spans: the first listed is innermost
@example("[a b/k1 c::v]<s> [d e/k2::v]<k1>")
@example("[[c e/kr g/k2::v]<zz>]<s> r::v:x [a/k1 c]<k1>")
def test_innermost_groups_match_the_loops_they_replaced(line):
    # the same trees and emitted lines; the same group reports, except that a
    # bare token is reported once, for its innermost group
    registry = default_registry()
    innermost_heads, seen = anncorra._innermost_heads, []

    def spy(tokens, parents, groups, positions):
        seen.append((tokens, list(parents), groups))
        return innermost_heads(tokens, parents, groups, positions)

    with mock.patch.object(anncorra, "_innermost_heads", spy):
        tree, diags = parse_sentence(line, registry)
    if not seen:
        return  # the line failed before resolve's group step
    tokens, parents, groups = seen[0]
    parents, reports = _grouped(tokens, parents, groups, registry.verbal_flags(tokens))
    first = {}
    for p, report in reports:
        first.setdefault(p, report)
    reported = [d for d in diags if d.message.startswith(("group '<", "bare token '"))]
    assert reported == list(first.values())
    failed = has_errors(first.values())
    if tree is None:
        assert failed or _depths(parents) is None or parents.count(None) > 1
        return
    assert not failed and [node.parent for node in tree.nodes] == parents
    heads = innermost_heads(tree.nodes, parents, tree.groups, range(len(parents)))
    assert {p: head for p, (_, head) in heads.items()} == _innermost_group_heads(tree)
    emitted = emit_explicit(tree), emit_minimal(tree, registry)
    with mock.patch.object(anncorra, "_innermost_heads", _painted):
        assert emitted == (emit_explicit(tree), emit_minimal(tree, registry))


class TestGroups:
    def test_a_bare_token_its_innermost_group_cannot_take_gets_one_error(self, registry):
        # no enclosing group is tried: '<s>' could take 'c' in the first line
        cases = {
            "[[x/k1 c y/k2]<k1> v::v]<s>": [
                (Severity.ERROR, "group '<k1>' has no verbal head for bare token 'c'", None),
            ],
            "[[[c]<s>]<k1>]<s> v::v": [
                (Severity.WARNING, "group nesting deeper than one level", 1),
                (Severity.ERROR, "group '<s>' has no verbal head for bare token 'c'", None),
            ],
        }
        for line, expected in cases.items():
            tree, diags = parse_sentence(line, registry)
            assert tree is None
            assert [(d.severity, d.message, d.column) for d in diags] == expected

    def test_bare_tokens_attach_shorter_group_first(self, registry):
        tree, diags = parse_sentence("[a b/k1 c::v]<s> [d e/k2::v]<k1>", registry)
        assert [node.parent for node in tree.nodes] == [2, 2, None, 4, 2]
        assert [d.message for d in diags] == [
            "bare token 'd' attached to group head 'e'",
            "bare token 'a' attached to group head 'c'",
        ]

    def test_nesting_is_warned_once_for_each_chunk_that_opens_past_two(self, registry):
        # a closing chunk inside three open groups opens none, so it is not warned about
        cases = {
            "[" * 4 + "a/k1" + "]<s>" * 4 + " piyA::v": [1],
            "[a/k1 [b/k2 [c::v d/k2]<s>]<s>]<s>": [13],
            "[a/k1 [[b/k2 c::v]<s>]<s> [[d/k2]<s>]<s>]<s>": [7, 27],
        }
        for line, columns in cases.items():
            tree, diags = parse_sentence(line, registry)
            assert tree is not None
            assert [d.column for d in diags] == columns
            assert {d.message for d in diags} == {"group nesting deeper than one level"}


def _parse_tokens(line, registry):
    return [parse_token(t, registry) for t in line.split()]


class TestResolve:
    def test_explicit_sentence(self, registry, explicit_line):
        tree, diags = resolve(_parse_tokens(explicit_line, registry), registry)
        assert not has_errors(diags)
        assert _shape(tree) == [
            ("rAma_ne", "k1", None, 4, ()),
            ("phala", "k2", None, 2, ()),
            ("kATakara", "kr", None, 4, (1,)),
            ("pAnI", "k2", None, 4, ()),
            ("piyA", None, "v", None, (0, 2, 3)),
        ]
        assert tree.root == 4

    def test_defaults_reproduce_explicit_tree(self, registry, explicit_line, defaulted_line):
        explicit, _ = resolve(_parse_tokens(explicit_line, registry), registry)
        defaulted, _ = resolve(_parse_tokens(defaulted_line, registry), registry)
        assert defaulted == explicit

    def test_single_token(self, registry):
        tree, diags = resolve(_parse_tokens("piyA::v:i", registry), registry)
        assert diags == []
        assert len(tree.nodes) == 1 and tree.root == 0

    def test_k2_attaches_to_nearest_verbal_rightward_first(self, registry):
        # ties between left and right neighbours go rightward
        tree, _ = resolve(_parse_tokens("kATakara/kr pAnI/k2 piyA::v:i", registry), registry)
        assert tree.nodes[1].parent == 2

    def test_undefined_label_is_error(self, registry):
        tree, diags = resolve(_parse_tokens("a/k1->q piyA::v:i", registry), registry)
        assert tree is None
        assert any("undefined index label 'q'" in d.message for d in diags)

    def test_duplicate_label_is_error(self, registry):
        tree, diags = resolve(_parse_tokens("a/k1:i piyA::v:i", registry), registry)
        assert tree is None
        assert any("duplicate index label" in d.message for d in diags)

    def test_no_verbal_token_is_error(self, registry):
        tree, diags = resolve(_parse_tokens("phala/k2 pAnI/k2", registry), registry)
        assert tree is None
        assert any("no verbal token" in d.message for d in diags)

    def test_cycle_is_error(self, registry):
        line = "a/k1:i->j b/k2:j->i"
        tree, diags = resolve(_parse_tokens(line, registry), registry)
        assert tree is None
        assert any("cycle" in d.message for d in diags)

    def test_multiple_roots_is_error(self, registry):
        tree, diags = resolve(_parse_tokens("piyA::v soyA::v", registry), registry)
        assert tree is None
        assert any("multiple roots" in d.message for d in diags)

    def test_tags_in_other_casing_fold_to_the_registry(self, registry):
        # hand-built tokens and trees need not carry registry casing: V, KR and
        # kR are verbal in the default registry, KR not where kr is overridden
        tokens = [
            AnnToken("a", "K1"), AnnToken("b", None, "i", None, "V"), AnnToken("c", "k2"),
            AnnToken("d", "KR"), AnnToken("e", "k2", None, "i", "kR"), AnnToken("f", "S"),
        ]
        parents = [1, None, 3, 4, 1, 4]
        for reg, expected in ((registry, parents), (_OVERRIDING, [1, None, 1, 4, 1, 4])):
            tree, diags = resolve(tokens, reg)
            assert diags == []
            assert [n.parent for n in tree.nodes] == expected
        nodes = [DepNode(t.surface, t.rel_tag, t.node_tag, p) for t, p in zip(tokens, parents)]
        tree = DepTree(nodes, [])
        assert emit_minimal(tree, registry) == "a/K1 b::V:i c/k2 d/KR e/k2->i::kR f/S"
        assert emit_minimal(tree, _OVERRIDING) == "a/K1 b::V:i c/k2->j d/KR:j e/k2::kR f/S"


class TestEmit:
    def test_explicit_sentence_round_trips_byte_exactly(self, registry, explicit_line):
        tree, _ = resolve(_parse_tokens(explicit_line, registry), registry)
        emitted = emit_explicit(tree)
        again, diags = parse_sentence(emitted, registry)
        assert not has_errors(diags)
        assert again == tree
        # the published line up to index renaming (canonical labels swap i and j)
        assert emitted == (
            "rAma_ne/k1->j phala/k2->i kATakara/kr:i->j pAnI/k2->j piyA::v:j"
        )

    def test_minimal_matches_published_defaulted_line(
        self, registry, explicit_line, defaulted_line
    ):
        tree, _ = resolve(_parse_tokens(explicit_line, registry), registry)
        assert emit_minimal(tree, registry) == defaulted_line

    def test_one_node_tree(self, registry):
        tree, _ = resolve(_parse_tokens("piyA::v:i", registry), registry)
        assert emit_explicit(tree) == "piyA::v:i"
        assert emit_minimal(tree, registry) == "piyA::v:i"

    def test_minimal_keeps_no_recoverable_ref(self, registry):
        rng = random.Random(7)
        for _ in range(50):
            tree = random_tree(rng, n=8)
            minimal = emit_minimal(tree, registry)
            for chunk in minimal.split():
                if "->" not in chunk:
                    continue
                # dropping this ref must change the resolved tree
                pruned = minimal.replace(chunk, chunk.split("->")[0], 1)
                other, diags = parse_sentence(pruned, registry)
                assert other is None or other != tree

    def test_exhaustive_round_trip_small(self, registry):
        count = 0
        for tree in enumerate_trees(max_nodes=4):
            explicit = emit_explicit(tree)
            back, diags = parse_sentence(explicit, registry)
            assert not has_errors(diags), explicit
            assert back == tree, explicit
            minimal = emit_minimal(tree, registry)
            back, diags = parse_sentence(minimal, registry)
            assert not has_errors(diags), minimal
            assert back == tree, minimal
            count += 1
        assert count == 1 + 4 + 36 + 512

    def test_random_trees_round_trip(self, registry):
        rng = random.Random(2024)
        for _ in range(200):
            tree = random_tree(rng, n=8)
            for emitted in (emit_explicit(tree), emit_minimal(tree, registry)):
                back, diags = parse_sentence(emitted, registry)
                assert not has_errors(diags), emitted
                assert back == tree, emitted

    def test_many_labels_roll_over_to_digits(self, registry):
        # a 30-node star forces labels past the single-letter range
        n = 30
        parents = [None] + [0] * (n - 1)
        rels = [None] + ["k1"] * (n - 1)
        node_tags = [None] * n
        node_tags[0] = "v"
        tree = make_tree(parents, rels, node_tags)
        emitted = emit_explicit(tree)
        back, diags = parse_sentence(emitted, registry)
        assert not has_errors(diags)
        assert back == tree


    @pytest.mark.parametrize(
        "nodes, groups, message",
        [
            # a relation-less node that no group covers
            ([("a", None, None, 1), ("v", None, "v", None)], [], "cannot serialize node 'a'"),
            # its parent heads the outer group, but its innermost group's head is 'b'
            (
                [("a", None, None, 2), ("b", "k1", None, 2), ("v", None, "v", None)],
                [Group(0, 3, "s"), Group(0, 2, "k1")],
                "cannot serialize node 'a'",
            ),
            # a kept reference points at a node without tags
            (
                [("v", None, "v", None), ("a", None, None, 0), ("x", "k1", None, 1)],
                [Group(0, 2, "s")],
                "node 'a' needs an index label but has no tag to carry it",
            ),
        ],
    )
    def test_a_tree_the_notation_cannot_express(self, registry, nodes, groups, message):
        tree = DepTree([DepNode(*node) for node in nodes], groups)
        with pytest.raises(EmitError, match=message):
            emit_explicit(tree)
        with pytest.raises(EmitError, match=message):
            emit_minimal(tree, registry)


class TestParseSentence:
    def test_group_with_tag(self, registry):
        tree, diags = parse_sentence("[rAma_ne/k1 khIra/k2 khAyI::v]<s>", registry)
        assert not has_errors(diags)
        assert len(tree.nodes) == 3
        assert [g for g in tree.groups] == [type(tree.groups[0])(0, 3, "s")]
        assert tree.nodes[0].parent == 2 and tree.nodes[1].parent == 2

    def test_no_brackets_means_no_groups(self, registry, explicit_line):
        tree, _ = parse_sentence(explicit_line, registry)
        assert tree.groups == []

    def test_unbalanced_brackets(self, registry):
        tree, diags = parse_sentence("[a/k1 [b", registry)
        assert tree is None
        assert any("unbalanced" in d.message for d in diags)

    def test_unknown_group_tag_warns(self, registry):
        tree, diags = parse_sentence("[rAma_ne/k1 khAyI::v]<zz>", registry)
        assert tree is not None
        assert any("unknown group tag" in d.message for d in diags)

    def test_bare_token_in_group_attaches_to_head(self, registry):
        tree, diags = parse_sentence("[rAma_ne/k1 khIra khAyI::v]<s>", registry)
        assert tree is not None
        assert tree.nodes[1].parent == 2
        assert tree.nodes[1].rel_tag is None
        assert any("bare token" in d.message for d in diags)

    def test_group_round_trips_through_emit(self, registry):
        tree, _ = parse_sentence("[rAma_ne/k1 khIra khAyI::v]<s>", registry)
        emitted = emit_explicit(tree)
        back, _ = parse_sentence(emitted, registry)
        assert back == tree

    def test_failed_token_is_a_member_of_its_group(self, registry):
        # the group holds a token, so the token's error is the only one
        for line, column in (("[x::v:]<s> piyA::v", 7), ("[[x::v:]<s> a/k1]<s> piyA::v", 8)):
            tree, diags = parse_sentence(line, registry)
            assert tree is None
            assert [(d.message, d.column) for d in diags] == [
                ("empty or invalid index after ':'", column)
            ]

    def test_a_line_in_which_every_token_has_a_parent_is_a_cycle(self, registry):
        for line in ("a/k1:i->j b/k2:j->i", "a/k1:i->j b/k1:j->i c/k1->j"):
            tree, diags = parse_sentence(line, registry)
            assert tree is None
            assert [d.message for d in diags] == ["cycle in parent references"]

    def test_parse_error_reports_column(self, registry):
        tree, diags = parse_sentence("piyA::v:i x/k1->", registry)
        assert tree is None
        errors = [d for d in diags if d.severity == Severity.ERROR]
        # column points at the missing index right after the arrow
        assert errors and errors[0].column == 17


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), max_size=40))
def test_nearest_verbal_table_matches_definition(verbal):
    # smallest distance, ties go right, a token never picks itself
    expected = [
        min(
            (q for q, is_verbal in enumerate(verbal) if is_verbal and q != p),
            key=lambda q: (abs(q - p), q < p),
            default=None,
        )
        for p in range(len(verbal))
    ]
    assert _nearest_verbal_table(verbal) == expected


def _walked_depths(parents):
    """Steps from each node to a root, walking its links one at a time;
    None when a walk comes back to a node it passed."""
    depths = []
    for p in range(len(parents)):
        passed = set()
        while parents[p] is not None:
            if p in passed:
                return None
            passed.add(p)
            p = parents[p]
        depths.append(len(passed))
    return depths


_parent_arrays = st.integers(0, 12).flatmap(
    lambda n: st.lists(st.none() | st.integers(0, max(n - 1, 0)), min_size=n, max_size=n)
)


@settings(max_examples=400, deadline=None)
@given(_parent_arrays)
@example([0])
@example([1, 0])
@example([None, 2, 3, 1])
@example([1, 2, None, 2, 3])
def test_depths_match_a_walk_to_the_root(parents):
    assert _depths(parents) == _walked_depths(parents)


LONG = 5000


def _chain_line(n, closed=False):
    """``w0 -> w1 -> ... -> w(n-1)``; closed, the last token points back at w0."""
    tokens = [f"w{p}/k1:i{p}->i{p + 1}" for p in range(n - 1)]
    tokens.append(f"w{n - 1}/k1:i{n - 1}->i0" if closed else f"w{n - 1}::v:i{n - 1}")
    return " ".join(tokens)


def _cycle_count(diags):
    return sum(d.message == "cycle in parent references" for d in diags)


class TestLongSentences:
    def test_long_chain_parses_validates_and_round_trips(self, registry):
        tree, diags = parse_sentence(_chain_line(LONG), registry)
        assert diags == []
        assert tree.root == LONG - 1
        assert [n.parent for n in tree.nodes[:-1]] == list(range(1, LONG))
        for emitted in (emit_explicit(tree), emit_minimal(tree, registry)):
            back, diags = parse_sentence(emitted, registry)
            assert diags == []
            assert back == tree

    def test_long_cycle_is_reported_once(self, registry):
        tree, diags = parse_sentence(_chain_line(LONG, closed=True), registry)
        assert tree is None
        assert _cycle_count(diags) == 1


# Random-tree property: explicit emission always reparses to the same tree.
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=9))
def test_round_trip_property(seed, n):
    registry = default_registry()
    tree = random_tree(random.Random(seed), n=n)
    back, diags = parse_sentence(emit_explicit(tree), registry)
    assert not has_errors(diags)
    assert back == tree


def test_columns(registry, explicit_line):
    tree, _ = parse_sentence(explicit_line, registry)
    assert tree.columns == (
        "rAma_ne phala kATakara pAnI piyA", "k1 k2 kr k2 -", "- - - - v", [4, 2, 4, 4, None]
    )


def test_interchange_shape(registry, explicit_line):
    tree, _ = parse_sentence("[" + explicit_line + "]<s>", registry)
    records = [(('"s1"', "7"), *tree.columns, tree.groups)]
    text = anncorra.emit_interchange("anncorra", "sentences", ("id", "line"), records)
    sentence = {"id": "s1", "line": 7, "tree": to_interchange(tree)}
    doc = {"format": "anncorra", "sentences": [sentence]}
    assert text == json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    doc = json.loads(text)["sentences"][0]["tree"]
    assert doc["groups"] == [{"start": 0, "stop": 5, "tag": "s"}]
    assert doc["root"] == 4
    assert doc["nodes"][2] == {
        "position": 2,
        "surface": "kATakara",
        "rel": "kr",
        "node": None,
        "parent": 4,
    }
