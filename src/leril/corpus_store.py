"""On-disk treebank store.

A store is a plain directory holding one append-only ``<lang>.anncorra``
file per language, with records written as a ``# id`` comment line
followed by the sentence's linear notation. An optional ``tagset.cfg``
extends the default tag registry for everything read through the store.
The layout is deliberately human-readable so dumps can be shipped as-is.

Contract: single writer, any number of readers. Opening read-write takes
a ``.lock`` file in the store directory; readers take a snapshot at open
and ignore the lock. Every open parses every stored sentence once, with
the compiled token grammar of ``anncorra`` (its character walk runs only
on malformed tokens); nothing is cached between opens. Statistics are
recomputed from current contents on every call.

``add_sentence`` appends only records that read back as written: an id
or line that the data file would give back changed (an id with
whitespace or an empty id, a line starting with ``#``, with leading or
trailing whitespace or with a line break) is rejected, and so is a
language that is not a plain file-name stem (empty, ``.``, ``..``, or
holding a path separator or NUL), whose data file would lie outside the
store or be read back under another language. A record carries its data
file as ``source`` whether it was just added or read on open.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring as _json_string
from pathlib import Path

from .anncorra import (
    DepTree,
    TagRegistry,
    default_registry,
    iter_sentences,
    load_tagset,
    parse_sentence,
)
from .diagnostics import Diagnostic, LerilError, has_errors, warning


class CorpusError(LerilError):
    """Store-level failure; ``diagnostics`` carries parse details if any."""

    def __init__(self, message: str, diagnostics: list[Diagnostic] | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class StoreLockedError(CorpusError):
    """Another writer holds the store lock."""


@dataclass
class CorpusRecord:
    id: str
    raw: str
    tree: DepTree
    language: str
    source: str  # the data file the record is stored in


@dataclass(frozen=True)
class CorpusStats:
    sentences: int
    relation_counts: dict[str, int]
    node_counts: dict[str, int]
    average_depth: float


class CorpusStore:
    """Treebank store over a directory; use as a context manager."""

    def __init__(self, path: str | Path, mode: str = "r", registry: TagRegistry | None = None):
        if mode not in ("r", "rw"):
            raise ValueError(f"unknown store mode: {mode!r}")
        self.path = Path(path)
        self.mode = mode
        self._locked = False
        if mode == "rw":
            self.path.mkdir(parents=True, exist_ok=True)
        elif not self.path.is_dir():
            raise CorpusError(f"no store directory at {self.path}")

        if registry is not None:
            self.registry = registry
        else:
            tagset_path = self.path / "tagset.cfg"
            if tagset_path.is_file():
                self.registry = load_tagset(tagset_path.read_text(encoding="utf-8"))
            else:
                self.registry = default_registry()

        if mode == "rw":
            self._acquire_lock()
        self._records: dict[str, CorpusRecord] = {}  # in store order
        try:
            self._load()
        except Exception:
            self.close()
            raise

    def _acquire_lock(self) -> None:
        lock = self.path / ".lock"
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise StoreLockedError(
                f"store {self.path} is locked by another writer ({lock} exists)"
            ) from None
        with os.fdopen(fd, "w") as fh:
            fh.write(str(os.getpid()))
        self._locked = True

    def close(self) -> None:
        if self._locked:
            (self.path / ".lock").unlink(missing_ok=True)
            self._locked = False

    def __enter__(self) -> "CorpusStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _load(self) -> None:
        for data_file in sorted(self.path.glob("*.anncorra")):
            language = data_file.stem
            text = data_file.read_text(encoding="utf-8")
            auto = 0
            for sentence_id, lineno, line in iter_sentences(text):
                if sentence_id is None:
                    auto += 1
                    sentence_id = f"{language}-{auto}"
                try:
                    record, _ = self._parse_record(sentence_id, line, language, str(data_file))
                except CorpusError as exc:
                    raise CorpusError(
                        f"{data_file}:{lineno}: {exc}", exc.diagnostics
                    ) from None
                self._records[sentence_id] = record

    def _parse_record(
        self, sentence_id: str, line: str, language: str, source: str
    ) -> tuple[CorpusRecord, list[Diagnostic]]:
        """Check one sentence against the store and parse it, not yet indexed.

        Rejects a duplicate id and a line that does not parse and resolve
        cleanly; returns the record with the parse's warnings.
        """
        if sentence_id in self._records:
            raise CorpusError(f"duplicate sentence id '{sentence_id}'")
        tree, diagnostics = parse_sentence(line, self.registry)
        if tree is None or has_errors(diagnostics):
            raise CorpusError(
                f"sentence '{sentence_id}' rejected: "
                + "; ".join(d.render() for d in diagnostics),
                diagnostics,
            )
        return CorpusRecord(sentence_id, line, tree, language, source), diagnostics

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, sentence_id: str) -> bool:
        return sentence_id in self._records

    def get(self, sentence_id: str) -> CorpusRecord | None:
        return self._records.get(sentence_id)

    def records(self) -> list[CorpusRecord]:
        return list(self._records.values())

    def add_sentence(
        self,
        sentence_id: str,
        line: str,
        language: str,
        diagnostics: list[Diagnostic] | None = None,
    ) -> CorpusRecord:
        """Validate, persist and index one sentence.

        Rejects a language that does not name a data file of this store,
        duplicates, lines that do not parse and resolve cleanly, and any id
        or line that would not read back unchanged from the data file. The
        record's source is its data file, as on a reopen. Parse warnings
        are appended to ``diagnostics`` when a list is supplied.
        """
        if self.mode != "rw":
            raise CorpusError("store opened read-only")
        data_file = self._data_file(language)
        record, parse_diags = self._parse_record(sentence_id, line, language, str(data_file))
        text = f"# {sentence_id}\n{line}\n"
        read_back = list(iter_sentences(text))
        if read_back != [(sentence_id, 2, line)]:
            if read_back and read_back[0][0] != sentence_id:
                raise CorpusError(
                    f"sentence id {sentence_id!r} rejected: it would not read back "
                    "unchanged from the store"
                )
            raise CorpusError(
                f"sentence '{sentence_id}' rejected: its line would not read back "
                "unchanged from the store"
            )
        if diagnostics is not None:
            diagnostics.extend(parse_diags)
        with data_file.open("a", encoding="utf-8") as fh:
            fh.write(text)
        self._records[sentence_id] = record
        return record

    def _data_file(self, language: str) -> Path:
        """The data file of ``language``, which a reopen finds again under it.

        The language must be a plain file-name stem: not empty, ``.`` or
        ``..``, with no path separator and no NUL.
        """
        name = f"{language}.anncorra"
        data_file = self.path / name
        if (
            language in (".", "..")
            or "\0" in language
            or data_file.name != name
            or data_file.stem != language
        ):
            raise CorpusError(
                f"language {language!r} rejected: it does not name a data file in the store"
            )
        return data_file

    def query_by_relation(self, rel_tag: str) -> tuple[list[tuple[str, int]], list[Diagnostic]]:
        """All (record id, node position) pairs bearing the relation tag."""
        canonical = self.registry.canonical_relation(rel_tag)
        if canonical is None:
            return [], [warning(f"unknown relation tag '{rel_tag}'")]
        folded = canonical.lower()
        hits = [
            (record.id, node.position)
            for record in self.records()
            for node in record.tree.nodes
            if node.rel_tag is not None and node.rel_tag.lower() == folded
        ]
        return hits, []

    def stats(self) -> CorpusStats:
        """Exact counts over current contents, recomputed on every call."""
        relation_counts: Counter[str] = Counter()
        node_counts: Counter[str] = Counter()
        depths = []
        for record in self.records():
            for node in record.tree.nodes:
                if node.rel_tag is not None:
                    relation_counts[node.rel_tag] += 1
                if node.node_tag is not None:
                    node_counts[node.node_tag] += 1
            depths.append(_tree_depth(record.tree))
        average = sum(depths) / len(depths) if depths else 0.0
        return CorpusStats(
            sentences=len(self._records),
            relation_counts=dict(relation_counts),
            node_counts=dict(node_counts),
            average_depth=average,
        )

    def export(self, format: str = "linear") -> str:
        """Dump the store as text, either linear notation or interchange JSON."""
        if format == "linear":
            lines = []
            for record in self.records():
                lines.append(f"# {record.id}")
                lines.append(record.raw)
            return "\n".join(lines) + "\n" if lines else ""
        if format == "interchange":
            records = _json_array([_interchange_record(r) for r in self.records()], "  ")
            return f'{{\n  "format": "anncorra-corpus",\n  "records": {records}\n}}\n'
        raise ValueError(f"unknown export format: {format!r}")


# The interchange export is the text of
#   json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
# for doc = {"format": "anncorra-corpus", "records": [{"id", "language",
# "source", "raw", "tree": anncorra.to_interchange(tree)}, ...]}, written
# directly: with ``indent`` set, json.dumps runs its pure-Python encoder.
# Strings go through the escaping function json.dumps uses for them.


def _json_or_null(text: str | None) -> str:
    return "null" if text is None else _json_string(text)


def _json_array(items: list[str], margin: str) -> str:
    """Items already written at ``margin`` plus two spaces, as one array."""
    return "[\n" + ",\n".join(items) + f"\n{margin}]" if items else "[]"


def _interchange_record(record: CorpusRecord) -> str:
    tree = record.tree
    nodes = [
        "          {\n"
        f'            "node": {_json_or_null(node.node_tag)},\n'
        f'            "parent": {"null" if node.parent is None else node.parent},\n'
        f'            "position": {node.position},\n'
        f'            "rel": {_json_or_null(node.rel_tag)},\n'
        f'            "surface": {_json_string(node.surface)}\n'
        "          }"
        for node in tree.nodes
    ]
    groups = [
        "          {\n"
        f'            "start": {group.start},\n'
        f'            "stop": {group.stop},\n'
        f'            "tag": {_json_string(group.tag)}\n'
        "          }"
        for group in tree.groups
    ]
    return (
        "    {\n"
        f'      "id": {_json_string(record.id)},\n'
        f'      "language": {_json_string(record.language)},\n'
        f'      "raw": {_json_string(record.raw)},\n'
        f'      "source": {_json_string(record.source)},\n'
        '      "tree": {\n'
        f'        "groups": {_json_array(groups, "        ")},\n'
        f'        "nodes": {_json_array(nodes, "        ")},\n'
        f'        "root": {tree.root}\n'
        "      }\n"
        "    }"
    )


def _tree_depth(tree: DepTree) -> int:
    depth = 0
    frontier = [(tree.root, 0)]
    while frontier:
        position, d = frontier.pop()
        depth = max(depth, d)
        frontier.extend((child, d + 1) for child in tree.nodes[position].children)
    return depth
