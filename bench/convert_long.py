"""``convert_long`` workload: converting and linting long annotated sentences.

Sentences come in three equal buckets of n, 2n and 4n tokens. Each chunk
file holds one sentence of each bucket, so every op does the same work, and
the traced run times ``parse_sentence`` per bucket to show how it scales.
Every chunk is run through ``anncorra convert --minimize``,
``convert --explicit`` and ``check``. Converted output is read back by the
benchmark's own reader and compared with the generated trees; minimal
output must keep exactly the references the default rule cannot recover.
"""

from __future__ import annotations

from pathlib import Path

import notation
from harness import Op, Workload


def _convert_checker(sentences: list[tuple[str, notation.Tree]], explicit: bool):
    """Checks each converted line: same tree, and every reference written
    (explicit) or only those the default rule misses (minimal)."""

    def checker(out: str) -> str | None:
        rows = out.split("\n")
        if len(rows) != 2 * len(sentences) + 1 or rows[-1] != "":
            return "convert output is not one comment and one line per sentence"
        for k, (header, tree) in enumerate(sentences):
            if rows[2 * k] != header:
                return f"comment line {header!r} not kept"
            try:
                got, refs = notation.read(rows[2 * k + 1])
            except (ValueError, KeyError, IndexError) as exc:
                return f"{header}: converted line unreadable: {exc}"
            if got != tree:
                return f"{header}: converted line resolves to a different tree"
            expected = tree.tagged_children() if explicit else tree.needed_refs()
            if refs != expected:
                return f"{header}: {refs} references written, expected {expected}"
        return None

    return checker


def setup(workdir: Path, rng, cfg) -> Workload:
    ops = []
    for k in range(cfg["chunks"]):
        sentences = []
        text = ""
        for scale in (1, 2, 4):
            tree = notation.random_tree(
                rng, cfg["n"] * scale, cfg["verbal_share"], cfg["group_share"], cfg["bare_share"]
            )
            header = f"# c{k}-n{scale}"
            sentences.append((header, tree))
            text += f"{header}\n{notation.write(tree, rng, cfg['default_share'])}\n"
        path = workdir / f"chunk{k}.anncorra"
        path.write_text(text, encoding="utf-8")
        bare = sum(len(tree.bare()) for _header, tree in sentences)
        ops += [
            Op(
                "convert --minimize",
                ["anncorra", "convert", "--minimize", str(path)],
                _convert_checker(sentences, explicit=False),
                warnings=bare,
            ),
            Op(
                "convert --explicit",
                ["anncorra", "convert", "--explicit", str(path)],
                _convert_checker(sentences, explicit=True),
                warnings=bare,
            ),
            Op("check", ["anncorra", "check", str(path)], "", warnings=bare),
        ]
    return Workload([], ops)
