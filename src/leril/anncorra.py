"""AnnCorra linear dependency notation.

One annotated sentence per line. A token is a surface form followed by
optional annotations:

    surface/REL[:self][->parent]::NODE[:self]

``/REL`` names the grammatical relation to the token's head (k1, k2, ...),
``::NODE`` names the node type (v for verb, and so on), ``:x`` defines an
index label and ``->x`` points at the head's label. The explicit form of
the standard example sentence is

    rAma_ne/k1->i phala/k2->j kATakara/kr:j->i pAnI/k2->i piyA::v:i

and the same tree can be written with defaults, dropping every ``->ref``
the reader can recover: a token bearing a relation but no head reference
attaches to the nearest verbal token (smallest token distance, ties and
search going rightward first). The unique token left unattached becomes
the root. This notation can express arbitrary dependency trees.

Bracketed segments group tokens: ``[rAma_ne/k1 khIra/k2 khAyI::v]<s>``.
Bare tokens inside a group attach to the group's head verb with a warning.

Each token is read by one compiled regular expression of the grammar
above. The character walk that defines the grammar runs only on tokens
the expression rejects, to name the error and its column.

A tree is its nodes and groups: each node holds its surface, its tags and
the position of its head, so the nodes form one parent array. Default
attachment and the tree checks are linear in sentence length: two sweeps
give every token's nearest verbal token, and one walk over the parent
links gives every node's depth and finds any cycle. A chunk's brackets
are read in one pass, linear in the chunk. One walk over the groups in
start order finds the innermost group of every position asked about, and a
group's head is looked for once, over its span, only for a group that
directly holds a bare token (in ``resolve``) or a relation-less node (in
``_emit``).

Tags are matched case-insensitively against a registry; emission keeps
registry casing. ``kr`` is registered both as a relation and (as ``Kr``) a
node tag; the ``/`` versus ``::`` position disambiguates. Tags are read
through tables the registry builds once, one lookup per tag, and the
verbality of a sentence's tokens is computed once, in one pass, by
``TagRegistry.verbal_flags``. Index labels are a serialization artifact
and stay on the tokens; a tree holds none, so two trees are equal when
surfaces, tags, attachments and groups agree.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, NamedTuple, Sequence

from .diagnostics import Diagnostic, LerilError, error, json_string, split_lines, warning


class AnnCorraParseError(LerilError):
    """Malformed token or sentence; ``column`` is 1-based where known."""

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


class TagsetError(LerilError):
    """Malformed tagset configuration."""


class EmitError(LerilError):
    """A tree that the linear notation cannot express."""


class TagDef(NamedTuple):
    code: str
    category: str  # "relation" | "node"
    verbal: bool = False
    description: str = ""


class TagRegistry:
    """Tag inventory; lookups fold case, stored codes keep their casing.

    Each category has one table, built once, that maps every tag's code and
    its lowercase to the code. A lookup tries the exact key first and then
    the lowercase, so a tag in registry casing or in lowercase costs one
    dict lookup, and any other casing one ``.lower()`` more. The tables map
    None (no tag) to None, so a token's two tags are two lookups.
    """

    def __init__(self, tags: Iterable[TagDef]):
        relations: dict[str, TagDef] = {}
        nodes: dict[str, TagDef] = {}
        for tag in tags:
            if tag.category == "relation":
                relations[tag.code.lower()] = tag
            elif tag.category == "node":
                nodes[tag.code.lower()] = tag
            else:
                raise ValueError(f"unknown tag category: {tag.category!r}")
        self._tags = [*relations.values(), *nodes.values()]
        self._relations, self._verbal_relations = self._tables(relations.values())
        self._nodes, self._verbal_nodes = self._tables(nodes.values())

    @staticmethod
    def _tables(tags: Iterable[TagDef]) -> tuple[dict[str | None, str | None], set[str]]:
        """One category's table, and the keys of it that name a verbal tag."""
        table: dict[str | None, str | None] = {None: None}
        verbal = set()
        for tag in tags:
            for key in (tag.code, tag.code.lower()):
                table[key] = tag.code
                if tag.verbal:
                    verbal.add(key)
        return table, verbal

    def signature(self) -> str:
        """Every tag as parsing sees it (code, category, verbality), in one
        canonical text: two registries read every line alike when their
        signatures are equal."""
        return "\n".join(sorted(f"{t.category}\t{t.code}\t{t.verbal:d}" for t in self._tags))

    def canonical_relation(self, code: str) -> str | None:
        return self._relations.get(code) or self._relations.get(code.lower())

    def canonical_node(self, code: str) -> str | None:
        return self._nodes.get(code) or self._nodes.get(code.lower())

    def verbal_flags(self, tokens: Iterable[AnnToken | DepNode]) -> list[bool]:
        """Whether each token is verbal: its node tag or its relation tag
        names a verbal tag. A tag the tables miss is folded to lowercase."""
        relations, nodes = self._relations, self._nodes
        verbal_relations, verbal_nodes = self._verbal_relations, self._verbal_nodes
        return [
            t.node_tag in verbal_nodes
            or t.rel_tag in verbal_relations
            or (t.node_tag not in nodes and t.node_tag.lower() in verbal_nodes)
            or (t.rel_tag not in relations and t.rel_tag.lower() in verbal_relations)
            for t in tokens
        ]


# The published tag inventory is larger (around 35 tags); the built-in
# registry carries the documented sample and is extended via load_tagset.
DEFAULT_TAGS = (
    TagDef("s", "relation", False, "sentence"),
    TagDef("k1", "relation", False, "karta (agent-like relation)"),
    TagDef("k2", "relation", False, "karma (patient-like relation)"),
    TagDef("k3", "relation", False, "karana (instrument relation)"),
    TagDef("kr", "relation", True, "gerund/absolutive link"),
    TagDef("v", "node", True, "verb"),
    TagDef("Kr", "node", True, "gerund"),
    TagDef("vH", "node", True, "copular verb BE"),
    TagDef("yo", "node", False, "conjunct"),
)


def default_registry() -> TagRegistry:
    return TagRegistry(DEFAULT_TAGS)


def load_tagset(config: str) -> TagRegistry:
    """Build a registry from config text, extending the built-in default.

    Config lines are ``tag TAB relation|node TAB verbal|nonverbal TAB
    description`` (description optional); ``#`` comments and blank lines
    are skipped. An empty config yields the default registry. A config
    line may override a default tag; two config lines for the same tag and
    category are an error.
    """
    tags = list(DEFAULT_TAGS)
    seen: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(split_lines(config), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in raw.split("\t")]
        if len(parts) < 3:
            raise TagsetError(f"line {lineno}: expected tag, category and verbality")
        code, category, verbality = parts[0], parts[1], parts[2]
        description = parts[3] if len(parts) > 3 else ""
        if not _TAG_RE.fullmatch(code):  # a code no token can carry
            raise TagsetError(f"line {lineno}: tag code {code!r} does not match {_TAG}")
        if category not in ("relation", "node"):
            raise TagsetError(f"line {lineno}: unknown category {category!r}")
        if verbality not in ("verbal", "nonverbal"):
            raise TagsetError(f"line {lineno}: unknown verbality {verbality!r}")
        key = (code.lower(), category)
        if key in seen:
            raise TagsetError(f"line {lineno}: duplicate {category} tag {code!r}")
        seen.add(key)
        tags.append(TagDef(code, category, verbality == "verbal", description))
    return TagRegistry(tags)


class AnnToken(NamedTuple):
    surface: str
    rel_tag: str | None = None
    self_index: str | None = None
    parent_ref: str | None = None
    node_tag: str | None = None


class DepNode(NamedTuple):
    surface: str
    rel_tag: str | None = None
    node_tag: str | None = None
    parent: int | None = None  # position of the head; None at the root


class Group(NamedTuple):
    """Bracketed token span, half-open over token positions."""

    start: int
    stop: int
    tag: str


class DepTree(NamedTuple):
    nodes: list[DepNode]
    groups: list[Group]

    @property
    def root(self) -> int:
        """Position of the one node without a parent."""
        return next(p for p, node in enumerate(self.nodes) if node.parent is None)

    @property
    def depth(self) -> int:
        """Edges from the root down to the deepest node."""
        return max(_depths([node.parent for node in self.nodes]))

    @property
    def columns(self) -> tuple[str, str, str, list[int | None]]:
        """Surfaces, relation tags and node tags, each joined by single spaces with
        ``NO_TAG`` for no tag (a parsed tree's fields hold no space), and the parents."""
        surfaces, rels, tags, parents = zip(*self.nodes)
        rels, tags = (" ".join([tag or NO_TAG for tag in column]) for column in (rels, tags))
        return " ".join(surfaces), rels, tags, list(parents)


_TAG = r"[A-Za-z][A-Za-z0-9]*"
NO_TAG = "-"  # a column's field for no tag: never a tag, as it does not match _TAG
_LABEL = r"[a-z][0-9]*"
_TAG_RE = re.compile(_TAG)
_LABEL_RE = re.compile(_LABEL)
# Every well-formed token, as ``_walk_token`` reads it: a surface up to the
# first '/' or ':', then /REL[:self][->ref], then ::NODE[:self]. The node
# part takes a self index only when the relation part has none. A surface
# may hold '-' but never '>', so it cannot run on into a '->'.
_TOKEN_RE = re.compile(
    r"(?P<surface>[^/:\[\]<>]+)"
    rf"(?:/(?P<rel>{_TAG})(?::(?P<rel_self>{_LABEL}))?(?:->(?P<ref>{_LABEL}))?)?"
    rf"(?:::(?P<node>{_TAG})(?(rel_self)|(?::(?P<node_self>{_LABEL}))?))?"
)


def parse_token(
    token: str,
    registry: TagRegistry,
    *,
    diagnostics: list[Diagnostic] | None = None,
    column: int = 1,
) -> AnnToken:
    """Parse a single whitespace-free token.

    ``column`` is the 1-based column of the token's first character in its
    line; warnings and errors count their columns from it. Unknown tags
    parse successfully with a warning appended to ``diagnostics``;
    structural problems raise AnnCorraParseError.
    """
    m = _TOKEN_RE.fullmatch(token)
    if m is None:
        return _walk_token(token, registry, diagnostics=diagnostics, column=column)
    return _token_from_match(m, registry, diagnostics, column)


def _unknown(kind: str, raw: str, column: int, diagnostics: list[Diagnostic] | None) -> str:
    """Warn that the ``kind`` tag ``raw`` at ``column`` is unknown; keep it as written."""
    if diagnostics is not None:
        diagnostics.append(warning(f"unknown {kind} tag '{raw}'", column=column))
    return raw


def _token_from_match(
    m: re.Match, registry: TagRegistry, diagnostics: list[Diagnostic] | None, column: int
) -> AnnToken:
    surface, rel_tag, rel_self, parent_ref, node_tag, node_self = m.groups()
    if rel_tag is not None:
        rel_tag = registry.canonical_relation(rel_tag) or _unknown(
            "relation", rel_tag, column + m.start("rel"), diagnostics
        )
    if node_tag is not None:
        node_tag = registry.canonical_node(node_tag) or _unknown(
            "node", node_tag, column + m.start("node"), diagnostics
        )
    return AnnToken(surface, rel_tag, rel_self or node_self, parent_ref, node_tag)


def _walk_token(
    token: str,
    registry: TagRegistry,
    *,
    diagnostics: list[Diagnostic] | None = None,
    column: int = 1,
) -> AnnToken:
    """The character walk that defines the token grammar and its errors.

    ``parse_token`` runs it only on tokens ``_TOKEN_RE`` rejects, where it
    raises the error with its column; tests check that both accept the
    same tokens with the same result.
    """

    def take(pattern: re.Pattern, at: int, message: str) -> tuple[str, int]:
        """The tag or label at ``at`` and the index after it, else the error there."""
        m = pattern.match(token, at)
        if m is None:
            raise AnnCorraParseError(message, column=column + at)
        return m.group(), m.end()

    if not token:
        raise AnnCorraParseError("empty token", column=column)
    i = 0
    while i < len(token) and token[i] not in "/:" and not token.startswith("->", i):
        if token[i] in "[]<>":
            raise AnnCorraParseError(
                f"stray {token[i]!r} inside token {token!r}", column=column + i
            )
        i += 1
    surface = token[:i]
    if not surface:
        raise AnnCorraParseError(f"token {token!r} has no surface text", column=column)

    rel_tag = node_tag = self_index = parent_ref = None

    if token.startswith("/", i):
        raw, i = take(_TAG_RE, i + 1, "missing relation tag after '/'")
        rel_tag = registry.canonical_relation(raw) or _unknown(
            "relation", raw, column + i - len(raw), diagnostics
        )
        if token.startswith(":", i) and not token.startswith("::", i):
            self_index, i = take(_LABEL_RE, i + 1, "empty or invalid index after ':'")
        if token.startswith("->", i):
            parent_ref, i = take(_LABEL_RE, i + 2, "empty or invalid index after '->'")
    elif token.startswith("->", i):
        raise AnnCorraParseError("'->' without a preceding relation tag", column=column + i)

    if token.startswith("::", i):
        raw, i = take(_TAG_RE, i + 2, "missing node tag after '::'")
        node_tag = registry.canonical_node(raw) or _unknown(
            "node", raw, column + i - len(raw), diagnostics
        )
        if token.startswith(":", i) and not token.startswith("::", i):
            if self_index is not None:
                raise AnnCorraParseError("duplicate self index on token", column=column + i)
            self_index, i = take(_LABEL_RE, i + 1, "empty or invalid index after ':'")

    if i != len(token):
        raise AnnCorraParseError(
            f"unexpected text {token[i:]!r} in token {token!r}", column=column + i
        )
    return AnnToken(surface, rel_tag, self_index, parent_ref, node_tag)


def _nearest_verbal_table(verbal: list[bool]) -> list[int | None]:
    """For every position, the nearest other verbal position, or None.

    Nearest means smallest token distance; a tie goes to the right. One
    sweep records the last verbal position strictly to the left, a second
    sweep the first strictly to the right, and picks between them.
    """
    table: list[int | None] = []
    left = None
    for p, is_verbal in enumerate(verbal):
        table.append(left)
        if is_verbal:
            left = p
    right = None
    for p in range(len(verbal) - 1, -1, -1):
        left = table[p]
        if right is not None and (left is None or right - p <= p - left):
            table[p] = right
        if verbal[p]:
            right = p
    return table


def _depths(parents: Sequence[int | None]) -> list[int] | None:
    """Each node's depth (edges from the root), or None when following the
    parent links from some node comes back to a node.

    One walk, linear in the node count: each node is entered once, and a
    walk stops at a node whose depth is known; -1 marks the current path.
    """
    depths: list[int | None] = [None] * len(parents)
    for start in range(len(parents)):
        path, p = [], start
        while p is not None and depths[p] is None:
            depths[p] = -1
            path.append(p)
            p = parents[p]
        if p is not None and depths[p] == -1:
            return None
        depth = -1 if p is None else depths[p]
        for q in reversed(path):
            depth += 1
            depths[q] = depth
    return depths


def _is_bare(token: AnnToken | DepNode) -> bool:
    # a token can carry an index label only on one of its tags
    return token.rel_tag is None and token.node_tag is None


def _innermost_heads(
    tokens: Sequence[AnnToken | DepNode],
    parents: Sequence[int | None],
    groups: Sequence[Group],
    positions: Iterable[int],
) -> dict[int, tuple[Group, int | None]]:
    """Map each of ``positions`` (ascending) that a group covers to its innermost
    group and that group's head: its one tagged token whose parent lies outside
    it, or None. Innermost means shortest, the first listed on a tie.

    Groups nest, so one walk in start order keeps the open groups on a stack,
    the inner one on top and, of two equal spans, the first listed. A head is
    looked for once, only for a group that some position has as its innermost.
    """
    pending = sorted(groups, key=lambda g: (-g.start, g.stop))  # popped from the end
    stack: list[Group] = []
    heads: dict[Group, int | None] = {}
    innermost = {}
    for p in positions:
        while pending and pending[-1].start <= p:
            stack.append(pending.pop())
        while stack and stack[-1].stop <= p:
            stack.pop()
        if stack:
            group = stack[-1]
            if group not in heads:
                start, stop, _ = group
                candidates = [
                    q
                    for q, t in enumerate(tokens[start:stop], start)
                    if not _is_bare(t) and (parents[q] is None or not start <= parents[q] < stop)
                ]
                heads[group] = candidates[0] if len(candidates) == 1 else None
            innermost[p] = group, heads[group]
    return innermost


def resolve(
    tokens: list[AnnToken], registry: TagRegistry, groups: Sequence[Group] = ()
) -> tuple[DepTree | None, list[Diagnostic]]:
    """Build a dependency tree from tokens in surface order.

    Explicit ``->`` references resolve through index labels; tokens with a
    relation but no reference attach to the nearest verbal token, and bare
    tokens inside ``groups`` attach to the head of their innermost group.
    Exactly one token must remain unattached; it becomes the root.
    """
    diagnostics: list[Diagnostic] = []
    if not tokens:
        return None, [error("no tokens to resolve")]

    labels: dict[str, int] = {}
    failed = False
    for p, token in enumerate(tokens):
        if token.self_index is not None:
            if token.self_index in labels:
                diagnostics.append(error(f"duplicate index label '{token.self_index}'"))
                failed = True
            labels[token.self_index] = p

    verbal = registry.verbal_flags(tokens)
    nearest_verbal = _nearest_verbal_table(verbal)
    parents: list[int | None] = [None] * len(tokens)
    bare: list[int] = []  # tokens without tags, left to their group heads
    for p, token in enumerate(tokens):
        if token.parent_ref is not None:
            target = labels.get(token.parent_ref)
            if target is None:
                diagnostics.append(error(f"undefined index label '{token.parent_ref}'"))
                failed = True
            elif target == p:
                diagnostics.append(error(f"token '{token.surface}' refers to itself"))
                failed = True
            else:
                parents[p] = target
        elif token.rel_tag is not None:
            target = nearest_verbal[p]
            if target is None:
                diagnostics.append(
                    error(f"no verbal token available to attach '{token.surface}'")
                )
                failed = True
            else:
                parents[p] = target
        elif token.node_tag is None:
            bare.append(p)
    if failed:
        return None, diagnostics

    # Bare tokens attach to the head of their innermost group, shortest group first.
    innermost = _innermost_heads(tokens, parents, groups, bare)
    for p in sorted(innermost, key=lambda p: innermost[p][0].stop - innermost[p][0].start):
        group, head = innermost[p]
        surface = tokens[p].surface
        if head is None or not verbal[head]:
            message = f"group '<{group.tag}>' has no verbal head for bare token '{surface}'"
            diagnostics.append(error(message))
            failed = True
            continue
        parents[p] = head
        message = f"bare token '{surface}' attached to group head '{tokens[head].surface}'"
        diagnostics.append(warning(message))
    if failed:
        return None, diagnostics

    if _depths(parents) is None:
        diagnostics.append(error("cycle in parent references"))
        return None, diagnostics

    roots = [p for p, parent in enumerate(parents) if parent is None]  # one at least: no cycle
    if len(roots) > 1:
        surfaces = ", ".join(f"'{tokens[r].surface}'" for r in roots)
        diagnostics.append(error(f"multiple roots: {surfaces}"))
        return None, diagnostics

    nodes = [
        tuple.__new__(DepNode, (surface, rel_tag, node_tag, p))
        for (surface, rel_tag, _, _, node_tag), p in zip(tokens, parents)
    ]
    return DepTree(nodes, list(groups)), diagnostics


_CHUNK_RE = re.compile(r"\S+")
_CLOSER_RE = re.compile(r"\]<([^<>\[\]]*)>")
_CLOSERS_REVERSED_RE = re.compile(r"(?:>[^<>\[\]]*<\])*")  # trailing ``]<tag>``s, read backward


def _brackets(chunk: str) -> tuple[int, str, list[str]]:
    """A chunk's count of leading ``[``, its text, and its closers' tags in reading order."""
    opens = len(chunk) - len(chunk.lstrip("["))
    cut = len(chunk) - _CLOSERS_REVERSED_RE.match(chunk[::-1]).end()
    return opens, chunk[opens:cut], _CLOSER_RE.findall(chunk, cut)


def parse_sentence(
    line: str, registry: TagRegistry
) -> tuple[DepTree | None, list[Diagnostic]]:
    """Parse one sentence line, including bracket groups, and resolve it."""
    diagnostics: list[Diagnostic] = []
    tokens: list[AnnToken] = []
    groups: list[Group] = []
    stack: list[int] = []
    failed = False
    token_re, relations, nodes = _TOKEN_RE, registry._relations, registry._nodes

    for m in _CHUNK_RE.finditer(line):
        chunk = m.group()
        token_match = token_re.fullmatch(chunk)
        if token_match is not None:  # a well-formed token carries no brackets
            surface, rel, rel_self, ref, node, node_self = token_match.groups()
            if rel in relations and node in nodes:
                token = (surface, relations[rel], rel_self or node_self, ref, nodes[node])
                tokens.append(tuple.__new__(AnnToken, token))
            else:  # a tag in other casing, or unknown and warned about
                tokens.append(_token_from_match(token_match, registry, diagnostics, m.start() + 1))
            continue

        column = m.start() + 1
        opens, chunk, closers = _brackets(chunk)
        if chunk.endswith("]"):
            diagnostics.append(error("group close without a '<tag>'", column=column))
            failed = True
            continue

        if opens and len(stack) + opens > 2:
            diagnostics.append(warning("group nesting deeper than one level", column=column))
        stack += [len(tokens)] * opens

        if chunk:
            try:
                token = parse_token(
                    chunk, registry, diagnostics=diagnostics, column=column + opens
                )
            except AnnCorraParseError as exc:
                diagnostics.append(error(str(exc), column=exc.column))
                failed = True
                token = None  # still a member of its group; the line fails anyway
            tokens.append(token)

        for tag in closers:
            if not stack:
                diagnostics.append(error("unbalanced ']'", column=column))
                failed = True
                continue
            start = stack.pop()
            if start == len(tokens):
                diagnostics.append(error("empty group", column=column))
                failed = True
                continue
            if not tag:
                diagnostics.append(error("empty group tag", column=column))
                failed = True
                continue
            if not (registry.canonical_relation(tag) or registry.canonical_node(tag)):
                _unknown("group", tag, column, diagnostics)
            groups.append(Group(start, len(tokens), tag))

    if stack:
        diagnostics.append(error("unbalanced '['"))
        failed = True
    if failed:
        return None, diagnostics
    if not tokens:
        return None, diagnostics + [error("empty sentence")]

    tree, resolve_diags = resolve(tokens, registry, groups)
    return tree, diagnostics + resolve_diags


_LABEL_LETTERS = "ijklmnopqrstuvwxyzabcdefgh"


def _index_label(k: int) -> str:
    if k < len(_LABEL_LETTERS):
        return _LABEL_LETTERS[k]
    return f"i{k - len(_LABEL_LETTERS) + 1}"


def emit_explicit(tree: DepTree) -> str:
    """Linear form with every recoverable ``->parent`` written out.

    Index labels are assigned deterministically: labeled nodes get i, j,
    k, ... in surface order. The root keeps a label whenever it has a tag
    to carry it, mirroring the published examples.
    """
    return _emit(tree, minimal=False, registry=None)


def emit_minimal(tree: DepTree, registry: TagRegistry) -> str:
    """Linear form that drops every ``->parent`` the defaults recover.

    A reference is dropped exactly when nearest-verbal attachment would
    pick the true parent; index labels no kept reference needs are dropped
    too (except on the root, see emit_explicit).
    """
    return _emit(tree, minimal=True, registry=registry)


def _emit(tree: DepTree, minimal: bool, registry: TagRegistry | None) -> str:
    nodes = tree.nodes
    nearest_verbal = _nearest_verbal_table(registry.verbal_flags(nodes)) if minimal else None

    keep: dict[int, int] = {}
    untagged = []  # nodes whose parent must head their innermost group
    for p, node in enumerate(nodes):
        if node.parent is None:
            continue
        if node.rel_tag is None:
            untagged.append(p)
        elif not (minimal and nearest_verbal[p] == node.parent):
            keep[p] = node.parent
    innermost = _innermost_heads(nodes, [node.parent for node in nodes], tree.groups, untagged)
    for p in untagged:
        if p not in innermost or innermost[p][1] != nodes[p].parent:
            raise EmitError(
                f"cannot serialize node '{nodes[p].surface}': no relation tag and no "
                "covering group headed by its parent"
            )

    labeled = set(keep.values())
    root = tree.root
    if not _is_bare(nodes[root]):
        labeled.add(root)
    label = {pos: _index_label(k) for k, pos in enumerate(sorted(labeled))}

    # the brackets at each position where a group opens or closes: a count, and closers
    opens: dict[int, int] = {}
    closes: dict[int, list[str]] = {}
    for group in sorted(tree.groups, key=lambda g: -g.start):  # inner groups close first
        opens[group.start] = opens.get(group.start, 0) + 1
        closes.setdefault(group.stop - 1, []).append(f"]<{group.tag}>")

    chunks = []
    for p, (surface, rel_tag, node_tag, _) in enumerate(nodes):
        text = surface
        lbl = label.get(p)  # carried by the first tag; None once placed
        if rel_tag is not None:
            text += f"/{rel_tag}" if lbl is None else f"/{rel_tag}:{lbl}"
            if p in keep:
                text += f"->{label[keep[p]]}"
            lbl = None
        if node_tag is not None:
            text += f"::{node_tag}" if lbl is None else f"::{node_tag}:{lbl}"
            lbl = None
        if lbl is not None:
            raise EmitError(f"node '{surface}' needs an index label but has no tag to carry it")
        if p in opens or p in closes:
            text = "[" * opens.get(p, 0) + text + "".join(closes.get(p, ()))
        chunks.append(text)
    return " ".join(chunks)


def emit_interchange(form: str, key: str, fields: Sequence[str], records: Iterable) -> str:
    """``json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\\n"`` of
    ``{"format": form, key: [record, ...]}``, as one list of pieces joined once. A record is
    ``(values, *DepTree.columns, groups)``: the tuple of the JSON texts of ``fields``, which
    sort before ``"tree"``, then its tree's columns and (start, stop, tag) groups. A tree is
    ``{"groups": [{"start", "stop", "tag"}], "nodes": [{"node", "parent", "position",
    "rel", "surface"}], "root"}``, no tag null; ``key`` sorts after ``"format"``."""
    head = ",\n    {\n" + "".join(f"      {json_string(name)}: %s,\n" for name in fields)
    out = [f'{{\n  "format": {json_string(form)},\n  {json_string(key)}: [']
    for values, surfaces, rels, tags, parents, groups in records:
        nodes = [
            "          {\n"
            f'            "node": {"null" if tag == NO_TAG else json_string(tag)},\n'
            f'            "parent": {"null" if parent is None else parent},\n'
            f'            "position": {position},\n'
            f'            "rel": {"null" if rel == NO_TAG else json_string(rel)},\n'
            f'            "surface": {json_string(surface)}\n'
            "          }"
            for position, surface, rel, tag, parent in zip(
                range(len(parents)), surfaces.split(" "), rels.split(" "), tags.split(" "), parents
            )
        ]
        spans = [
            "          {\n"
            f'            "start": {start},\n'
            f'            "stop": {stop},\n'
            f'            "tag": {json_string(tag)}\n'
            "          }"
            for start, stop, tag in groups
        ]
        out += (
            head % values,
            '      "tree": {\n        "groups": '
            + ("[\n" + ",\n".join(spans) + "\n        ]" if spans else "[]"),
            ',\n        "nodes": [\n',
            ",\n".join(nodes),
            f'\n        ],\n        "root": {parents.index(None)}\n      }}\n    }}',
        )
    if len(out) > 1:
        out[1] = out[1][1:]  # no comma before the first record
    out.append("\n  ]\n}\n" if len(out) > 1 else "]\n}\n")
    return "".join(out)


def iter_sentences(text: str) -> Iterator[tuple[str | None, int, str]]:
    """Yield (id, line number, sentence line) from corpus-style text.

    ``#`` lines are comments; the first word of a comment names the next
    sentence. Blank lines are skipped.
    """
    pending: str | None = None
    for lineno, raw in enumerate(split_lines(text), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            pending = body.split()[0] if body else None
            continue
        yield pending, lineno, line
        pending = None
