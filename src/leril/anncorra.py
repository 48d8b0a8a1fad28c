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
give every token's nearest verbal token and one walk over the parent
links finds any cycle. Group-head lookups cost the summed length of the
groups, which is the sentence length times the bracket nesting depth.

Tags are matched case-insensitively against a registry; emission keeps
registry casing. ``kr`` is registered both as a relation and (as ``Kr``) a
node tag; the ``/`` versus ``::`` position disambiguates. Index labels are
a serialization artifact and stay on the tokens; a tree holds none, so two
trees are equal when surfaces, tags, attachments and groups agree.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Iterable, Iterator, NamedTuple, Sequence

from .diagnostics import Diagnostic, LerilError, error, split_lines, warning


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
    """Tag inventory; lookups fold case, stored codes keep their casing."""

    def __init__(self, tags: Iterable[TagDef]):
        self._relations: dict[str, TagDef] = {}
        self._nodes: dict[str, TagDef] = {}
        for tag in tags:
            if tag.category == "relation":
                self._relations[tag.code.lower()] = tag
            elif tag.category == "node":
                self._nodes[tag.code.lower()] = tag
            else:
                raise ValueError(f"unknown tag category: {tag.category!r}")

    def signature(self) -> str:
        """Every tag as parsing sees it (code, category, verbality), in one
        canonical text: two registries read every line alike when their
        signatures are equal."""
        tags = [*self._relations.values(), *self._nodes.values()]
        return "\n".join(sorted(f"{t.category}\t{t.code}\t{t.verbal:d}" for t in tags))

    def canonical_relation(self, code: str) -> str | None:
        tag = self._relations.get(code.lower())
        return tag.code if tag else None

    def canonical_node(self, code: str) -> str | None:
        tag = self._nodes.get(code.lower())
        return tag.code if tag else None

    def is_verbal(self, rel_tag: str | None, node_tag: str | None) -> bool:
        if node_tag is not None:
            tag = self._nodes.get(node_tag.lower())
            if tag is not None and tag.verbal:
                return True
        if rel_tag is not None:
            tag = self._relations.get(rel_tag.lower())
            if tag is not None and tag.verbal:
                return True
        return False


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
        if not code:
            raise TagsetError(f"line {lineno}: empty tag code")
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


_TAG = r"[A-Za-z][A-Za-z0-9]*"
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


def _col(column: int | None, offset: int) -> int:
    return (column or 1) + offset


def parse_token(
    token: str,
    registry: TagRegistry,
    *,
    diagnostics: list[Diagnostic] | None = None,
    column: int | None = None,
) -> AnnToken:
    """Parse a single whitespace-free token.

    Unknown tags parse successfully with a warning appended to
    ``diagnostics``; structural problems raise AnnCorraParseError.
    """
    m = _TOKEN_RE.fullmatch(token)
    if m is None:
        return _walk_token(token, registry, diagnostics=diagnostics, column=column)
    return _token_from_match(m, registry, diagnostics, column)


def _token_from_match(
    m: re.Match, registry: TagRegistry, diagnostics: list[Diagnostic] | None, column: int | None
) -> AnnToken:
    surface, rel_tag, rel_self, parent_ref, node_tag, node_self = m.groups()
    if rel_tag is not None:
        canonical = registry.canonical_relation(rel_tag)
        if canonical is not None:
            rel_tag = canonical
        elif diagnostics is not None:
            diagnostics.append(
                warning(f"unknown relation tag '{rel_tag}'", column=_col(column, m.start("rel")))
            )
    if node_tag is not None:
        canonical = registry.canonical_node(node_tag)
        if canonical is not None:
            node_tag = canonical
        elif diagnostics is not None:
            diagnostics.append(
                warning(f"unknown node tag '{node_tag}'", column=_col(column, m.start("node")))
            )
    return AnnToken(surface, rel_tag, rel_self or node_self, parent_ref, node_tag)


def _walk_token(
    token: str,
    registry: TagRegistry,
    *,
    diagnostics: list[Diagnostic] | None = None,
    column: int | None = None,
) -> AnnToken:
    """The character walk that defines the token grammar and its errors.

    ``parse_token`` runs it only on tokens ``_TOKEN_RE`` rejects, where it
    raises the error with its column; tests check that both accept the
    same tokens with the same result.
    """
    if not token:
        raise AnnCorraParseError("empty token", column=column)
    n = len(token)
    i = 0
    while i < n:
        ch = token[i]
        if ch in "/:":
            break
        if ch == "-" and token.startswith("->", i):
            break
        if ch in "[]<>":
            raise AnnCorraParseError(
                f"stray {ch!r} inside token {token!r}", column=_col(column, i)
            )
        i += 1
    surface = token[:i]
    if not surface:
        raise AnnCorraParseError(
            f"token {token!r} has no surface text", column=_col(column, 0)
        )

    rel_tag = node_tag = self_index = parent_ref = None

    if i < n and token[i] == "/":
        i += 1
        m = _TAG_RE.match(token, i)
        if m is None:
            raise AnnCorraParseError("missing relation tag after '/'", column=_col(column, i))
        raw = m.group()
        i = m.end()
        rel_tag = registry.canonical_relation(raw)
        if rel_tag is None:
            rel_tag = raw
            if diagnostics is not None:
                diagnostics.append(
                    warning(f"unknown relation tag '{raw}'", column=_col(column, i - len(raw)))
                )
        if i < n and token[i] == ":" and not token.startswith("::", i):
            i += 1
            m = _LABEL_RE.match(token, i)
            if m is None:
                raise AnnCorraParseError(
                    "empty or invalid index after ':'", column=_col(column, i)
                )
            self_index = m.group()
            i = m.end()
        if token.startswith("->", i):
            i += 2
            m = _LABEL_RE.match(token, i)
            if m is None:
                raise AnnCorraParseError(
                    "empty or invalid index after '->'", column=_col(column, i)
                )
            parent_ref = m.group()
            i = m.end()
    elif token.startswith("->", i):
        raise AnnCorraParseError(
            "'->' without a preceding relation tag", column=_col(column, i)
        )

    if token.startswith("::", i):
        i += 2
        m = _TAG_RE.match(token, i)
        if m is None:
            raise AnnCorraParseError("missing node tag after '::'", column=_col(column, i))
        raw = m.group()
        i = m.end()
        node_tag = registry.canonical_node(raw)
        if node_tag is None:
            node_tag = raw
            if diagnostics is not None:
                diagnostics.append(
                    warning(f"unknown node tag '{raw}'", column=_col(column, i - len(raw)))
                )
        if i < n and token[i] == ":" and not token.startswith("::", i):
            if self_index is not None:
                raise AnnCorraParseError(
                    "duplicate self index on token", column=_col(column, i)
                )
            i += 1
            m = _LABEL_RE.match(token, i)
            if m is None:
                raise AnnCorraParseError(
                    "empty or invalid index after ':'", column=_col(column, i)
                )
            self_index = m.group()
            i = m.end()

    if i != n:
        raise AnnCorraParseError(
            f"unexpected text {token[i:]!r} in token {token!r}", column=_col(column, i)
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


def _has_cycle(parents: list[int | None]) -> bool:
    """Whether following parent links from some node comes back to a node.

    Three-colour walk, linear in the node count: each node is entered once,
    and a walk stops at a node already known to end outside any cycle. A
    parent that is None or out of range ends the walk.
    """
    n = len(parents)
    UNSEEN, ON_PATH, DONE = 0, 1, 2
    state = [UNSEEN] * n
    for start in range(n):
        path = []
        p = start
        while p is not None and 0 <= p < n and state[p] == UNSEEN:
            state[p] = ON_PATH
            path.append(p)
            p = parents[p]
        if p is not None and 0 <= p < n and state[p] == ON_PATH:
            return True
        for q in path:
            state[q] = DONE
    return False


def _is_bare(token: AnnToken | DepNode) -> bool:
    # a token can carry an index label only on one of its tags
    return token.rel_tag is None and token.node_tag is None


def _group_head(
    tokens: Sequence[AnnToken | DepNode], parents: Sequence[int | None], group: Group
) -> int | None:
    candidates = [
        p
        for p, token in enumerate(tokens[group.start : group.stop], group.start)
        if not _is_bare(token)
        and (parents[p] is None or not (group.start <= parents[p] < group.stop))
    ]
    return candidates[0] if len(candidates) == 1 else None


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

    verbal = [registry.is_verbal(t.rel_tag, t.node_tag) for t in tokens]
    nearest_verbal = _nearest_verbal_table(verbal)
    parents: list[int | None] = [None] * len(tokens)
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
    if failed:
        return None, diagnostics

    # Bare tokens attach to the head of their innermost group.
    for group in sorted(groups, key=lambda g: g.stop - g.start):
        head = None
        head_known = False
        for p, token in enumerate(tokens[group.start : group.stop], group.start):
            if not _is_bare(token) or parents[p] is not None:
                continue
            if not head_known:
                head = _group_head(tokens, parents, group)
                head_known = True
            if head is None or not verbal[head]:
                diagnostics.append(
                    error(
                        f"group '<{group.tag}>' has no verbal head for bare token "
                        f"'{token.surface}'"
                    )
                )
                failed = True
                continue
            parents[p] = head
            diagnostics.append(
                warning(
                    f"bare token '{token.surface}' attached to group head "
                    f"'{tokens[head].surface}'"
                )
            )
    if failed:
        return None, diagnostics

    if _has_cycle(parents):
        diagnostics.append(error("cycle in parent references"))
        return None, diagnostics

    roots = [p for p, parent in enumerate(parents) if parent is None]
    if not roots:
        diagnostics.append(error("no root: every token has a parent"))
        return None, diagnostics
    if len(roots) > 1:
        surfaces = ", ".join(f"'{tokens[r].surface}'" for r in roots)
        diagnostics.append(error(f"multiple roots: {surfaces}"))
        return None, diagnostics

    nodes = [DepNode(t.surface, t.rel_tag, t.node_tag, p) for t, p in zip(tokens, parents)]
    return DepTree(nodes, list(groups)), diagnostics


_CHUNK_RE = re.compile(r"\S+")
_CLOSER_RE = re.compile(r"\]<([^<>\[\]]*)>$")


def parse_sentence(
    line: str, registry: TagRegistry
) -> tuple[DepTree | None, list[Diagnostic]]:
    """Parse one sentence line, including bracket groups, and resolve it."""
    diagnostics: list[Diagnostic] = []
    tokens: list[AnnToken] = []
    groups: list[Group] = []
    stack: list[int] = []
    failed = False

    for m in _CHUNK_RE.finditer(line):
        chunk = m.group()
        column = m.start() + 1
        token_match = _TOKEN_RE.fullmatch(chunk)
        if token_match is not None:  # a well-formed token carries no brackets
            tokens.append(_token_from_match(token_match, registry, diagnostics, column))
            continue

        opens = 0
        while chunk.startswith("["):
            opens += 1
            chunk = chunk[1:]
        closers: list[str] = []
        while True:
            cm = _CLOSER_RE.search(chunk)
            if cm is None:
                break
            closers.append(cm.group(1))
            chunk = chunk[: cm.start()]
        if chunk.endswith("]"):
            diagnostics.append(
                error("group close without a '<tag>'", column=column)
            )
            failed = True
            continue

        for _ in range(opens):
            if len(stack) >= 2:
                diagnostics.append(
                    warning("group nesting deeper than one level", column=column)
                )
            stack.append(len(tokens))

        if chunk:
            try:
                token = parse_token(
                    chunk, registry, diagnostics=diagnostics, column=column + opens
                )
            except AnnCorraParseError as exc:
                diagnostics.append(error(str(exc), column=exc.column))
                failed = True
            else:
                tokens.append(token)

        for tag in reversed(closers):
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
            if (
                registry.canonical_relation(tag) is None
                and registry.canonical_node(tag) is None
            ):
                diagnostics.append(warning(f"unknown group tag '{tag}'", column=column))
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
    nearest_verbal = (
        _nearest_verbal_table([registry.is_verbal(n.rel_tag, n.node_tag) for n in nodes])
        if minimal
        else None
    )
    group_heads = _innermost_group_heads(tree)

    keep: dict[int, int] = {}
    for p, node in enumerate(nodes):
        if node.parent is None:
            continue
        if node.rel_tag is None:
            if group_heads.get(p) != node.parent:
                raise EmitError(
                    f"cannot serialize node '{node.surface}': no relation tag and no "
                    "covering group headed by its parent"
                )
            continue
        if minimal and nearest_verbal[p] == node.parent:
            continue
        keep[p] = node.parent

    labeled = set(keep.values())
    root = tree.root
    if not _is_bare(nodes[root]):
        labeled.add(root)
    label = {pos: _index_label(k) for k, pos in enumerate(sorted(labeled))}

    opens: dict[int, list[Group]] = defaultdict(list)
    closes: dict[int, list[Group]] = defaultdict(list)
    for group in tree.groups:
        opens[group.start].append(group)
        closes[group.stop - 1].append(group)
    for entries in opens.values():
        entries.sort(key=lambda g: -g.stop)  # outer groups open first
    for entries in closes.values():
        entries.sort(key=lambda g: -g.start)  # inner groups close first

    chunks = []
    for p, node in enumerate(nodes):
        bits = [node.surface]
        lbl = label.get(p)
        placed = False
        if node.rel_tag is not None:
            part = f"/{node.rel_tag}"
            if lbl is not None:
                part += f":{lbl}"
                placed = True
            if p in keep:
                part += f"->{label[keep[p]]}"
            bits.append(part)
        if node.node_tag is not None:
            part = f"::{node.node_tag}"
            if lbl is not None and not placed:
                part += f":{lbl}"
                placed = True
            bits.append(part)
        if lbl is not None and not placed:
            raise EmitError(
                f"node '{node.surface}' needs an index label but has no tag to carry it"
            )
        text = "".join(bits)
        prefix = "[" * len(opens.get(p, ()))
        suffix = "".join(f"]<{g.tag}>" for g in closes.get(p, ()))
        chunks.append(prefix + text + suffix)
    return " ".join(chunks)


def _innermost_group_heads(tree: DepTree) -> dict[int, int | None]:
    """Map each position a group covers to the head of its innermost group.

    Innermost means shortest, the first listed on a tie. Groups are painted
    longest first, equal spans the last listed first, so the last group
    written at a position is its innermost one.
    """
    n = len(tree.nodes)
    innermost: dict[int, Group] = {}
    for group in sorted(reversed(tree.groups), key=lambda g: g.start - g.stop):
        for p in range(max(group.start, 0), min(group.stop, n)):
            innermost[p] = group
    parents = [node.parent for node in tree.nodes]
    heads = {group: _group_head(tree.nodes, parents, group) for group in set(innermost.values())}
    return {p: heads[group] for p, group in innermost.items()}


def to_interchange(tree: DepTree) -> dict:
    """JSON-shaped export of one tree."""
    return {
        "nodes": [
            {
                "position": p,
                "surface": n.surface,
                "rel": n.rel_tag,
                "node": n.node_tag,
                "parent": n.parent,
            }
            for p, n in enumerate(tree.nodes)
        ],
        "root": tree.root,
        "groups": [{"start": g.start, "stop": g.stop, "tag": g.tag} for g in tree.groups],
    }


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
