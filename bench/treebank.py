"""``treebank`` workload: a treebank maintainer adding to and reading one store.

Set-up builds a store of short generated sentences with one ``corpus add``.
A pass interleaves ``corpus add`` of a small batch with ``corpus query``,
``corpus stats`` and ``corpus export --format interchange`` (which also
checks every stored tree); the store's data file is restored before each
pass so every pass does the same work. Expected outputs follow from the
generated trees: ids accepted, query hits, tag counts, depths and the
exported records.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import notation
from harness import Op, Workload, lines

LANG = "hin"


def _sentence(rng, cfg) -> tuple[str, notation.Tree | None]:
    """A valid line with its tree, or (``reject_share`` of the time) an
    invalid line that ``corpus add`` must reject."""
    n = rng.randint(cfg["tokens_min"], cfg["tokens_max"])
    if rng.random() < cfg["reject_share"]:
        kind = rng.randrange(3)
        if kind == 2:  # relations but no verbal token to attach to
            return " ".join(f"{notation.word(rng)}/k1" for _ in range(n // 2)), None
        tree = notation.random_tree(rng, n, cfg["verbal_share"], 0.0, 0.0)
        line = notation.write(tree, rng, cfg["default_share"])
        if kind == 0:  # reference to an undefined label
            return f"{line} {notation.word(rng)}/k2->q9", None
        return "[" + line, None  # unbalanced bracket
    tree = notation.random_tree(
        rng, n, cfg["verbal_share"], cfg["group_share"], cfg["bare_share"]
    )
    return notation.write(tree, rng, cfg["default_share"]), tree


def _add_op(path: Path, batch, store: Path) -> Op:
    path.write_text("".join(f"# {sid}\n{line}\n" for sid, line, _tree in batch), encoding="utf-8")
    accepted = [(sid, tree) for sid, _line, tree in batch if tree is not None]
    rejected = len(batch) - len(accepted)
    return Op(
        "corpus add",
        ["corpus", "add", str(path), "--store", str(store), "--lang", LANG],
        lines([sid for sid, _tree in accepted]),
        code=2 if rejected else 0,
        warnings=sum(len(tree.bare()) for _sid, tree in accepted),
        errors=rejected,
    )


def _query(records, tag: str) -> str:
    return lines(
        [
            f"{sid}\t{p}"
            for sid, _line, tree in records
            for p, rel in enumerate(tree.rel)
            if rel == tag
        ]
    )


def _stats_checker(records):
    relations: dict[str, int] = {}
    nodes: dict[str, int] = {}
    depth_total = 0
    for _sid, _line, tree in records:
        for rel in tree.rel:
            if rel is not None:
                relations[rel] = relations.get(rel, 0) + 1
        for node in tree.node:
            if node is not None:
                nodes[node] = nodes.get(node, 0) + 1
        depth_total += tree.depth()
    expected = {"sentences": len(records), "relation_counts": relations, "node_counts": nodes}
    average = depth_total / len(records)

    def checker(out: str) -> str | None:
        try:
            doc = json.loads(out)
        except ValueError:
            return "stats output is not JSON"
        got_average = doc.pop("average_depth", None)
        if doc != expected:
            return "stats counts differ"
        if not isinstance(got_average, float) or abs(got_average - average) > 1e-9:
            return f"average_depth {got_average!r}, expected {average!r}"
        return None

    return checker


def _interchange_checker(records, source: str):
    expected = {
        "format": "anncorra-corpus",
        "records": [
            {
                "id": sid,
                "language": LANG,
                "source": source,
                "raw": line,
                "tree": {
                    "nodes": [
                        {"position": p, "surface": s, "rel": r, "node": n, "parent": parent}
                        for p, (s, r, n, parent) in enumerate(
                            zip(tree.surface, tree.rel, tree.node, tree.parent)
                        )
                    ],
                    "root": tree.parent.index(None),
                    "groups": [{"start": a, "stop": b, "tag": t} for a, b, t in tree.groups],
                },
            }
            for sid, line, tree in records
        ],
    }

    def checker(out: str) -> str | None:
        try:
            doc = json.loads(out)
        except ValueError:
            return "export output is not JSON"
        return None if doc == expected else "exported records differ"

    return checker


def setup(workdir: Path, rng, cfg) -> Workload:
    store = workdir / "store"
    data = store / f"{LANG}.anncorra"
    base = []
    for k in range(cfg["base_sentences"]):
        line, tree = _sentence(rng, cfg)
        base.append((f"b{k}", line, tree))
    records = [r for r in base if r[2] is not None]
    prepare = [_add_op(workdir / "base.anncorra", base, store)]

    ops = []
    tags = cfg["query_tags"]
    for cycle in range(cfg["cycles_per_pass"]):
        batch = []
        for k in range(cfg["batch_size"]):
            line, tree = _sentence(rng, cfg)
            batch.append((f"w{cycle}s{k}", line, tree))
        ops.append(_add_op(workdir / f"batch{cycle}.anncorra", batch, store))
        records = records + [r for r in batch if r[2] is not None]
        tag = tags[cycle % len(tags)]
        at = ["--store", str(store)]
        ops += [
            Op("corpus query", ["corpus", "query", tag, *at], _query(records, tag)),
            Op("corpus stats", ["corpus", "stats", *at], _stats_checker(records)),
        ]
        # Every export dumps every tree as interchange JSON, the slowest
        # read, so the tail percentile lands inside one op kind's cluster.
        ops.append(
            Op(
                "corpus export --format interchange",
                ["corpus", "export", *at, "--format", "interchange"],
                _interchange_checker(records, str(data)),
            )
        )

    pristine = workdir / "pristine.anncorra"

    def reset() -> None:
        if not pristine.exists():
            shutil.copyfile(data, pristine)
        shutil.copyfile(pristine, data)

    return Workload(prepare, ops, reset)
