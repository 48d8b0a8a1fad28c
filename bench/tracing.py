"""Spans around the calls into each leril layer, recorded from outside.

``Tracer.install`` wraps every public function of each layer module under
every module name that binds it (``corpus_store`` imports ``parse_sentence``
by name, ``translexgram`` imports ``parse_frame``), plus the public methods
of ``CorpusStore``, whose constructor is the ``corpus_store.open`` span.
Generator functions are left alone: their body runs after the call returns.
Methods of ``TagRegistry`` are left alone too: they are per-token lookups
whose wrapping would cost more than they do.

Each span records its name, start, end, parent span, op id, an optional
size (tokens parsed, records read, 1 for a successful match) and whether it
raised. Spans stay in compact arrays in memory and are written out once, at
the end, by ``Tracer.dump``.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = (
    "cli", "anncorra", "corpus_store", "transfer", "translexgram", "dict_model", "shabdasutra",
)

# Size recorded on a span, from (args, result) of the wrapped call.
SIZES = {
    "anncorra.parse_sentence": lambda args, result: (
        len(result[0].nodes) if result[0] is not None else len(args[0].split())
    ),
    "transfer.match_frame": lambda args, result: int(result is not None),
    "translexgram.parse_tlg": lambda args, result: len(result[0]),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("i")
        self.raised = array("b")
        self.op_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        size = SIZES.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.size.append(-1)
            self.raised.append(0)
            self.end.append(0.0)
            stack.append(idx)
            start = perf_counter()
            self.start.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if size is not None:
                self.size[idx] = size(args, result)
            return result

        return traced

    def install(self, package) -> callable:
        """Wrap the layers of ``package``; returns a function that unwraps them."""
        modules = [getattr(package, layer) for layer in LAYERS]
        originals: dict[int, tuple[object, object]] = {}
        for module in modules:
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    layer = module.__name__.rsplit(".", 1)[1]
                    originals[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        undo = []
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    setattr(module, attr, originals[id(obj)][1])
                    undo.append((module, attr, obj))
        store = package.corpus_store.CorpusStore
        for attr, obj in list(vars(store).items()):
            if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
                span = "corpus_store.open" if attr == "__init__" else f"corpus_store.{attr}"
                setattr(store, attr, self.wrap(span, obj))
                undo.append((store, attr, obj))

        def uninstall() -> None:
            for owner, attr, obj in undo:
                setattr(owner, attr, obj)

        return uninstall

    def dump(self, directory: Path) -> None:
        """Write every span: ``names.json`` plus one raw array per field."""
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "names.json").write_text(json.dumps(self.names), encoding="utf-8")
        for field in ("name", "start", "end", "parent", "op", "size", "raised"):
            with open(directory / f"{field}.{getattr(self, field).typecode}", "wb") as fh:
                getattr(self, field).tofile(fh)

    def self_times(self) -> array:
        """Each span's duration minus the durations of its direct children."""
        own = array("d", (end - start for start, end in zip(self.start, self.end)))
        result = array("d", own)
        for i, p in enumerate(self.parent):
            if p >= 0:
                result[p] -= own[i]
        return result

    def spans(self, name: str) -> list[int]:
        nid = self._ids.get(name)
        return [i for i, n in enumerate(self.name) if n == nid]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds (outermost spans of a recursion
        only), self seconds, summed sizes, and spans that raised."""
        self_times = self.self_times()
        totals = {
            name: {"calls": 0, "busy": 0.0, "self": 0.0, "size": 0, "raised": 0}
            for name in self.names
        }
        for i, nid in enumerate(self.name):
            t = totals[self.names[nid]]
            t["calls"] += 1
            t["self"] += self_times[i]
            p = self.parent[i]
            if p < 0 or self.name[p] != nid:
                t["busy"] += self.end[i] - self.start[i]
            if self.size[i] > 0:
                t["size"] += self.size[i]
            t["raised"] += self.raised[i]
        return totals

    def under(self, name: str, prefix: str) -> list[int]:
        """Indexes of spans called ``name`` with an ancestor whose name starts with ``prefix``."""
        found = []
        for i in self.spans(name):
            p = self.parent[i]
            while p >= 0 and not self.names[self.name[p]].startswith(prefix):
                p = self.parent[p]
            if p >= 0:
                found.append(i)
        return found
