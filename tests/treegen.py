"""Tree construction, exhaustive enumeration and random sampling helpers,
and the reference dict of a tree's interchange JSON."""

import random
from itertools import product

from leril.anncorra import DepNode, DepTree


def make_tree(parents, rel_tags, node_tags, surfaces=None):
    """Build a DepTree from parallel per-position lists.

    ``parents[p]`` is None exactly for the root.
    """
    surfaces = surfaces or [f"w{p}" for p in range(len(parents))]
    assert list(parents).count(None) == 1
    return DepTree([DepNode(*node) for node in zip(surfaces, rel_tags, node_tags, parents)], [])


def to_interchange(tree):
    """The ``"tree"`` member of the interchange documents, as a dict that
    ``json.dumps`` writes: the reference ``anncorra.emit_interchange`` is
    tested against."""
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


def children(tree):
    """Every position's children in surface order, read off the parent links."""
    kids = [[] for _ in tree.nodes]
    for p, node in enumerate(tree.nodes):
        if node.parent is not None:
            kids[node.parent].append(p)
    return kids


def _reaches_root(parents, root):
    n = len(parents)
    for start in range(n):
        seen = set()
        p = start
        while p != root:
            if p in seen or parents[p] is None:
                return False
            seen.add(p)
            p = parents[p]
    return True


def enumerate_trees(max_nodes=5, rels=("k1", "k2")):
    """Yield every position-labeled tree up to ``max_nodes``.

    The root carries node tag ``v`` and no relation; every other node
    carries one relation from ``rels`` and no node tag.
    """
    for n in range(1, max_nodes + 1):
        positions = list(range(n))
        for root in positions:
            others = [p for p in positions if p != root]
            for assignment in product(*(tuple(q for q in positions if q != p) for p in others)):
                parents = [None] * n
                for p, parent in zip(others, assignment):
                    parents[p] = parent
                if not _reaches_root(parents, root):
                    continue
                for rel_combo in product(rels, repeat=len(others)):
                    rel_tags = [None] * n
                    for p, rel in zip(others, rel_combo):
                        rel_tags[p] = rel
                    node_tags = [None] * n
                    node_tags[root] = "v"
                    yield make_tree(parents, rel_tags, node_tags)


def random_tree(rng: random.Random, n=8, rels=("k1", "k2"), extra_verbal=0.25):
    """Random n-node tree; non-root nodes may also carry a verbal node tag."""
    root = rng.randrange(n)
    connected = [root]
    parents = [None] * n
    order = [p for p in range(n) if p != root]
    rng.shuffle(order)
    for p in order:
        parents[p] = rng.choice(connected)
        connected.append(p)
    rel_tags = [None if p == root else rng.choice(rels) for p in range(n)]
    node_tags = [None] * n
    node_tags[root] = "v"
    for p in range(n):
        if p != root and rng.random() < extra_verbal:
            node_tags[p] = "v"
    return make_tree(parents, rel_tags, node_tags)
