"""AnnCorra trees for the benchmark: a seeded generator and an independent reader.

Nothing here imports leril. The generator builds a tree by construction and
writes it in linear notation, mixing explicit ``->x`` references with ones
left to the default rule; the reader resolves a line back into a tree by the
rules the README states, so that checking leril's output never relies on
leril itself.

Default rule: a token with a relation but no reference attaches to the
nearest verbal token, ties going rightward. A bare token inside a group
attaches to the group's head, the one tagged token whose parent lies outside
the group.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

VERBAL_NODES = {"v", "kr", "vh"}
VERBAL_RELATIONS = {"kr"}
DEPENDENT_RELATIONS = ("k1", "k2", "k3")
CONSONANTS = "bcdfghjklmnprtvz"
VOWELS = "aeiou"


def word(rng, syllables: int = 3) -> str:
    return "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(syllables))


@dataclass
class Tree:
    surface: list[str]
    rel: list[str | None]
    node: list[str | None]
    parent: list[int | None]
    groups: list[tuple[int, int, str]]  # half-open token spans, not nested

    def __len__(self) -> int:
        return len(self.surface)

    def verbal(self) -> list[bool]:
        return [
            (n is not None and n.lower() in VERBAL_NODES)
            or (r is not None and r.lower() in VERBAL_RELATIONS)
            for r, n in zip(self.rel, self.node)
        ]

    def bare(self) -> list[int]:
        return [p for p in range(len(self)) if self.rel[p] is None and self.node[p] is None]

    def depth(self) -> int:
        """Longest root-to-leaf path, counted in edges."""
        depth: list[int | None] = [None] * len(self)
        for start in range(len(self)):
            path = []
            p = start
            while p is not None and depth[p] is None:
                path.append(p)
                p = self.parent[p]
            d = -1 if p is None else depth[p]
            for q in reversed(path):
                d += 1
                depth[q] = d
        return max(depth)

    def needed_refs(self) -> int:
        """References a minimal emission keeps: those the default rule misses."""
        nearest = nearest_verbal(self.verbal())
        return sum(
            1
            for p in range(len(self))
            if self.rel[p] is not None
            and self.parent[p] is not None
            and nearest[p] != self.parent[p]
        )

    def tagged_children(self) -> int:
        return sum(
            1 for p in range(len(self)) if self.rel[p] is not None and self.parent[p] is not None
        )


def nearest_verbal(verbal: list[bool]) -> list[int | None]:
    """Nearest verbal token to each position, excluding itself; ties go right."""
    n = len(verbal)
    left: list[int | None] = [None] * n
    right: list[int | None] = [None] * n
    last = None
    for p in range(n):
        left[p] = last
        if verbal[p]:
            last = p
    last = None
    for p in reversed(range(n)):
        right[p] = last
        if verbal[p]:
            last = p
    out: list[int | None] = []
    for p in range(n):
        lo, hi = left[p], right[p]
        if hi is not None and (lo is None or hi - p <= p - lo):
            out.append(hi)
        else:
            out.append(lo)
    return out


def random_tree(rng, n: int, verbal_share: float, group_share: float, bare_share: float) -> Tree:
    """A tree of ``n`` tokens split into clauses that each end in their verb.

    Every dependent hangs off its clause's verb; the verbs form a random
    recursive tree. Some clauses are bracketed as ``<s>`` groups, and inside
    those some dependents are written bare.
    """
    verbs = max(1, round(n * verbal_share))
    bounds = [0] + sorted(rng.sample(range(1, n), verbs - 1)) + [n]
    clauses = list(zip(bounds, bounds[1:]))
    heads = [stop - 1 for _start, stop in clauses]
    order = heads[:]
    rng.shuffle(order)
    parent: list[int | None] = [None] * n
    rel: list[str | None] = [None] * n
    node: list[str | None] = [None] * n
    for k, v in enumerate(order):
        node[v] = "v"
        if k:
            parent[v] = order[rng.randrange(k)]
            rel[v] = "kr"
    groups = []
    for (start, stop), v in zip(clauses, heads):
        grouped = stop - start >= 2 and rng.random() < group_share
        if grouped:
            groups.append((start, stop, "s"))
        for p in range(start, stop - 1):
            parent[p] = v
            if not (grouped and rng.random() < bare_share):
                rel[p] = rng.choice(DEPENDENT_RELATIONS)
    return Tree([word(rng) for _ in range(n)], rel, node, parent, groups)


def write(tree: Tree, rng, default_share: float) -> str:
    """Linear notation; each reference the default rule recovers is dropped
    with probability ``default_share``."""
    nearest = nearest_verbal(tree.verbal())
    label = {p: f"x{k + 1}" for k, p in enumerate(p for p in range(len(tree)) if tree.node[p])}
    tokens = []
    for p in range(len(tree)):
        text = tree.surface[p]
        if tree.rel[p] is not None:
            text += "/" + tree.rel[p]
            target = tree.parent[p]
            if not (nearest[p] == target and rng.random() < default_share):
                text += "->" + label[target]
        if tree.node[p] is not None:
            text += f"::{tree.node[p]}:{label[p]}"
        tokens.append(text)
    for start, stop, tag in tree.groups:
        tokens[start] = "[" + tokens[start]
        tokens[stop - 1] += f"]<{tag}>"
    return " ".join(tokens)


_TOKEN_RE = re.compile(
    r"([^/:\[\]<>]+?)"
    r"(?:/([A-Za-z][A-Za-z0-9]*)(?::([a-z][0-9]*))?(?:->([a-z][0-9]*))?)?"
    r"(?:::([A-Za-z][A-Za-z0-9]*)(?::([a-z][0-9]*))?)?"
)
_CLOSER_RE = re.compile(r"\]<([^<>\[\]]*)>$")


def read(line: str) -> tuple[Tree, int]:
    """Resolve one linear-notation line; returns the tree and its ``->`` count.

    Raises ValueError on anything the generator never writes.
    """
    surface, rel, node, refs, labels = [], [], [], [], {}
    groups, stack = [], []
    for chunk in line.split():
        while chunk.startswith("["):
            stack.append(len(surface))
            chunk = chunk[1:]
        closers = []
        while (m := _CLOSER_RE.search(chunk)) is not None:
            closers.append(m.group(1))
            chunk = chunk[: m.start()]
        m = _TOKEN_RE.fullmatch(chunk)
        if m is None:
            raise ValueError(f"unreadable token {chunk!r}")
        text, r, own1, ref, nd, own2 = m.groups()
        for own in (own1, own2):
            if own is not None:
                if own in labels:
                    raise ValueError(f"duplicate label {own!r}")
                labels[own] = len(surface)
        surface.append(text)
        rel.append(r)
        node.append(nd)
        refs.append(ref)
        for tag in reversed(closers):
            groups.append((stack.pop(), len(surface), tag))
    if stack:
        raise ValueError("unbalanced '['")
    tree = Tree(surface, rel, node, [None] * len(surface), sorted(groups))
    nearest = nearest_verbal(tree.verbal())
    for p, ref in enumerate(refs):
        if ref is not None:
            tree.parent[p] = labels[ref]
        elif rel[p] is not None:
            tree.parent[p] = nearest[p]
    for start, stop, _tag in tree.groups:
        heads = [
            p
            for p in range(start, stop)
            if (rel[p] is not None or node[p] is not None)
            and not (tree.parent[p] is not None and start <= tree.parent[p] < stop)
        ]
        for p in range(start, stop):
            if rel[p] is None and node[p] is None:
                if len(heads) != 1:
                    raise ValueError("bare token in a group without a unique head")
                tree.parent[p] = heads[0]
    return tree, sum(ref is not None for ref in refs)
