"""On-disk treebank store.

A store is a plain directory holding one append-only ``<lang>.anncorra``
file per language, with records written as a ``# id`` comment line
followed by the sentence's linear notation. An optional ``tagset.cfg``
extends the default tag registry for everything read through the store.
The layout is deliberately human-readable so dumps can be shipped as-is.

Contract: single writer, any number of readers. Opening read-write takes
an exclusive ``flock`` on ``.lock`` in the store directory, which the
kernel drops when the writer exits or dies, so a crashed writer leaves no
stale lock; the file keeps the holder's pid for the error message of a
writer turned away, and stays in place, empty, when released. Where
``fcntl`` is missing, the lock is the file itself, created with
``O_EXCL`` and removed on close. Readers take a snapshot at open and
ignore the lock.

Summary sidecar. Beside each data file a writer keeps
``<lang>.anncorra.idx`` (``glob("*.anncorra")`` does not match it), JSON
lines: a header with the format version, the byte length of the data
file it covers, the ``zlib.crc32`` of those bytes, a digest of the
effective tag registry, the auto-id and line counters at that length, the
row count and the crc32 of the rows; then one row per record, ``[id,
relation tags by position, node tags by position, depth]``. Open loads the
rows of the prefix the sidecar covers and parses only the bytes after it.
A sidecar that is missing, covers more than the file holds, does not match
the covered bytes (an edit, even one of the same length), cannot be read,
is of another version or was written under another registry covers
nothing: every record is then parsed, so deleting a sidecar is always
safe. ``query_by_relation`` and ``stats`` read the rows alone; the trees
are parsed once per open, on the first ``get``, ``records`` or ``export``.
Only read-write opens write a sidecar, under the lock, when they close,
through a temporary file and ``os.replace``; readers never create or
change one. The checksum is crc32 rather than a cryptographic hash: it
is there to notice edits and damage, not forgery, and ``hashlib`` would
map OpenSSL into every corpus command (3.6 MB of resident memory).
``SIDECAR_VERSION`` must change with any change to what a line parses
to, since rows are trusted without parsing their lines.

Torn tail. A writer that dies mid-append can leave the last line of a
data file unterminated. Such a line is read like any other when it
parses; when it does not (or is not UTF-8), readers skip it with a
warning naming its file and line, and a read-write open cuts it off the
file, also with a warning. A read-write open ends an unterminated last
line that parses (or is a comment) with the missing newline, so the next
record does not run into it. Every record is appended with one ``write``.

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

import json
import os
from collections import Counter
from itertools import chain
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

SIDECAR_VERSION = 1
_HEADER_KEYS = ("version", "covered", "crc", "tagset", "auto", "lines", "rows", "rows_crc")
_TAG_TYPES = {str, type(None)}
# where str.splitlines ends a line
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


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


class _DataFile:
    """One data file: its summary rows and what its next sidecar covers.

    A plain class, not a dataclass: every corpus command imports this
    module, and a dataclass of this size costs 1.5 ms to create.
    """

    prefix = b""  # the bytes the sidecar covered at open, until parsed
    unparsed = 0  # leading rows whose trees are not built yet
    body = b""  # the encoding of the leading ``encoded`` rows
    encoded = 0
    # The file up to the end of its last record: length, crc32, line count
    # and auto-id count. A sidecar covers no more, so that a ``# id`` line
    # after the last record still names the sentence appended below it.
    end = 0
    crc = 0
    lines = 0
    auto = 0
    trailer = b""  # blank and comment lines after the last record
    trailer_lines = 0
    stale = True  # the sidecar on disk does not describe ``end``
    fd: int | None = None  # open for appending, in a writer

    def __init__(self, path: Path, language: str):
        self.path = path
        self.language = language
        self.rows: list[list] = []  # [id, rels, nodes, depth], in file order

    def append(self, payload: bytes, size: int) -> None:
        """Append ``payload`` with one ``write`` to the file, now ``size``
        bytes long; a failed write is cut off again."""
        if self.fd is None:
            self.fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            if os.write(self.fd, payload) != len(payload):
                raise OSError(f"short write to {self.path}")
        except OSError:
            os.ftruncate(self.fd, size)
            raise


class CorpusStore:
    """Treebank store over a directory; use as a context manager.

    ``diagnostics`` holds the warnings of the open (torn last lines).
    """

    def __init__(self, path: str | Path, mode: str = "r", registry: TagRegistry | None = None):
        if mode not in ("r", "rw"):
            raise ValueError(f"unknown store mode: {mode!r}")
        self.path = Path(path)
        self.mode = mode
        self._lock: int | None = None
        self._lock_file: Path | None = None  # removed on close: no flock here
        self._open = False
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
        self.diagnostics: list[Diagnostic] = []
        self._files: dict[str, _DataFile] = {}  # by language, in file name order
        self._rows: dict[str, list] = {}  # id to summary row, in store order
        self._records: dict[str, CorpusRecord] = {}  # records whose tree is built
        try:
            self._tagset = _crc32(self.registry.signature().encode("utf-8"))
            for data_file in sorted(self.path.glob("*.anncorra")):
                self._load(data_file)
        except Exception:
            self.close()
            raise
        self._open = True

    def _acquire_lock(self) -> None:
        lock = self.path / ".lock"
        try:
            import fcntl  # here, so that readers never load it
        except ImportError:  # no flock on this platform: the lock is an O_EXCL file
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                raise StoreLockedError(
                    f"store {self.path} is locked by another writer ({lock} exists)"
                ) from None
            self._lock_file = lock
        else:
            fd = os.open(lock, os.O_CREAT | os.O_RDWR, 0o666)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                holder = os.read(fd, 32).decode("ascii", "replace").strip() or "unknown"
                os.close(fd)
                raise StoreLockedError(
                    f"store {self.path} is locked by another writer (pid {holder}, {lock})"
                ) from None
            os.ftruncate(fd, 0)
        os.write(fd, str(os.getpid()).encode("ascii"))
        self._lock = fd

    def close(self) -> None:
        for data_file in self._files.values():
            if self._open and self.mode == "rw" and data_file.stale:
                _write_sidecar(data_file, self._tagset)
            if data_file.fd is not None:
                os.close(data_file.fd)
                data_file.fd = None
        self._open = False
        if self._lock is None:
            return
        if self._lock_file is None:  # a flock, which closing drops
            os.ftruncate(self._lock, 0)
            os.close(self._lock)
        else:
            os.close(self._lock)
            self._lock_file.unlink(missing_ok=True)
        self._lock = None

    def __enter__(self) -> "CorpusStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _load(self, path: Path) -> None:
        """Index one data file: sidecar rows for the prefix it covers, parsed
        records for the rest."""
        data = path.read_bytes()
        f = self._files[path.stem] = _DataFile(path, path.stem)
        covered = 0
        sidecar = _read_sidecar(path, data, self._tagset)
        # with an id another data file holds, the full parse names the duplicate
        if sidecar is not None and self._rows.keys().isdisjoint(row[0] for row in sidecar[1]):
            header, rows, body = sidecar
            covered, f.crc, f.lines, f.auto = (
                header["covered"], header["crc"], header["lines"], header["auto"]
            )
            f.prefix, f.rows, f.unparsed = data[:covered], rows, len(rows)
            f.body, f.encoded, f.stale = body, len(rows), False
            for row in rows:
                self._rows[row[0]] = row

        tail = data[covered:]
        torn = None  # (line number, byte offset, reason) of a torn last line
        try:
            text = tail.decode("utf-8")
        except UnicodeDecodeError as exc:
            cut = max(tail.rfind(b"\n"), tail.rfind(b"\r")) + 1
            if exc.start < cut:
                raise CorpusError(f"{path}: not UTF-8 text at byte {covered + exc.start}") from None
            text = tail[:cut].decode("utf-8")
            torn = (f.lines + len(text.splitlines()) + 1, covered + cut, "not UTF-8 text")
        last_raw = None  # the unterminated last line, if any
        last_line = 0
        if torn is None and text[-1:] not in ("", *_LINE_BREAKS):
            tail_lines = text.splitlines()
            last_raw, last_line = tail_lines[-1], len(tail_lines)

        source = str(path)
        last_record = 0  # its line number in the tail
        for sentence_id, lineno, line in iter_sentences(text):
            auto_id = sentence_id is None
            if auto_id:
                sentence_id = f"{f.language}-{f.auto + 1}"
            try:
                if sentence_id in self._rows:
                    raise CorpusError(f"duplicate sentence id '{sentence_id}'")
                record, _ = self._parse_record(sentence_id, line, f.language, source)
            except CorpusError as exc:
                if lineno != last_line:
                    raise CorpusError(
                        f"{path}:{f.lines + lineno}: {exc}", exc.diagnostics
                    ) from None
                torn = (f.lines + lineno, len(data) - len(last_raw.encode("utf-8")), str(exc))
                text = text[: len(text) - len(last_raw)]
                break
            f.auto += auto_id
            last_record = lineno
            self._index(f, record)
        if torn is not None:
            line_no, offset, reason = torn
            action = "removed" if self.mode == "rw" else "skipped"
            self.diagnostics.append(
                warning(f"{path}:{line_no}: torn last record {action}: {reason}")
            )
            if self.mode == "rw":
                os.truncate(path, offset)
        elif last_raw is not None and self.mode == "rw":
            f.append(b"\n", len(data))
            text += "\n"
            data += b"\n"

        parts = text.splitlines(keepends=True)
        f.trailer = "".join(parts[last_record:]).encode("utf-8")
        f.trailer_lines = len(parts) - last_record
        f.end = covered + len(text.encode("utf-8")) - len(f.trailer)
        f.crc = _crc32(memoryview(data)[covered : f.end], f.crc)
        f.lines += last_record
        f.stale = f.stale or last_record > 0

    def _index(self, f: _DataFile, record: CorpusRecord) -> None:
        nodes = record.tree.nodes
        row = [
            record.id,
            [node.rel_tag for node in nodes],
            [node.node_tag for node in nodes],
            _tree_depth(record.tree),
        ]
        f.rows.append(row)
        self._rows[record.id] = row
        self._records[record.id] = record

    def _parse_record(
        self, sentence_id: str, line: str, language: str, source: str
    ) -> tuple[CorpusRecord, list[Diagnostic]]:
        """Parse one sentence line into a record, not yet indexed.

        Rejects a line that does not parse and resolve cleanly; returns the
        record with the parse's warnings.
        """
        tree, diagnostics = parse_sentence(line, self.registry)
        if tree is None or has_errors(diagnostics):
            raise CorpusError(
                f"sentence '{sentence_id}' rejected: "
                + "; ".join(d.render() for d in diagnostics),
                diagnostics,
            )
        return CorpusRecord(sentence_id, line, tree, language, source), diagnostics

    def _built(self) -> dict[str, CorpusRecord]:
        """Every record with its tree: the prefixes a sidecar covered are
        parsed here, once per open."""
        for f in self._files.values():
            if not f.unparsed:
                continue
            ids = []
            auto = 0
            for sentence_id, _lineno, line in iter_sentences(f.prefix.decode("utf-8")):
                if sentence_id is None:
                    auto += 1
                    sentence_id = f"{f.language}-{auto}"
                record, _ = self._parse_record(sentence_id, line, f.language, str(f.path))
                self._records[sentence_id] = record
                ids.append(sentence_id)
            if ids != [row[0] for row in f.rows[: f.unparsed]]:
                raise CorpusError(f"{_sidecar_path(f.path)} does not describe {f.path}")
            f.prefix, f.unparsed = b"", 0
        return self._records

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, sentence_id: str) -> bool:
        return sentence_id in self._rows

    def get(self, sentence_id: str) -> CorpusRecord | None:
        return self._built().get(sentence_id) if sentence_id in self._rows else None

    def records(self) -> list[CorpusRecord]:
        built = self._built()
        return [built[sentence_id] for sentence_id in self._rows]

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
        if sentence_id in self._rows:
            raise CorpusError(f"duplicate sentence id '{sentence_id}'")
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
        f = self._files.get(language)
        if f is None:
            f = self._files[language] = _DataFile(data_file, language)
        payload = text.encode("utf-8")
        f.append(payload, f.end + len(f.trailer))
        f.crc = _crc32(f.trailer + payload, f.crc)
        f.end += len(f.trailer) + len(payload)
        f.lines += f.trailer_lines + 2
        f.trailer, f.trailer_lines, f.stale = b"", 0, True
        self._index(f, record)
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
        rows = self._rows.values()
        tags = set(chain.from_iterable(rels for _id, rels, _nodes, _depth in rows))
        wanted = {tag for tag in tags if tag is not None and tag.lower() == folded}
        hits = [
            (sentence_id, position)
            for sentence_id, rels, _nodes, _depth in rows
            if not wanted.isdisjoint(rels)
            for position, rel in enumerate(rels)
            if rel in wanted
        ]
        return hits, []

    def stats(self) -> CorpusStats:
        """Exact counts over current contents, recomputed on every call."""
        rows = self._rows.values()
        relation_counts = Counter(chain.from_iterable(row[1] for row in rows))
        node_counts = Counter(chain.from_iterable(row[2] for row in rows))
        relation_counts.pop(None, None)
        node_counts.pop(None, None)
        return CorpusStats(
            sentences=len(rows),
            relation_counts=dict(relation_counts),
            node_counts=dict(node_counts),
            average_depth=sum(row[3] for row in rows) / len(rows) if rows else 0.0,
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


def _crc32(data, value: int = 0) -> int:
    import zlib  # here, so that commands without a store never load it

    return zlib.crc32(data, value)


def _sidecar_path(data_file: Path) -> Path:
    return data_file.with_name(data_file.name + ".idx")


def _read_sidecar(
    data_file: Path, data: bytes, tagset: int
) -> tuple[dict, list[list], bytes] | None:
    """Header, rows and row bytes of the sidecar of ``data_file`` when it
    describes a prefix of ``data`` read under registry digest ``tagset``;
    None otherwise."""
    try:
        head, _, body = _sidecar_path(data_file).read_bytes().partition(b"\n")
        header = json.loads(head)
    except (OSError, ValueError):
        return None
    if (
        type(header) is not dict
        or tuple(header) != _HEADER_KEYS
        or any(type(value) is not int for value in header.values())
        or header["version"] != SIDECAR_VERSION
        or header["tagset"] != tagset
        or header["rows_crc"] != _crc32(body)
    ):
        return None
    covered = header["covered"]
    if not 0 <= covered <= len(data) or header["crc"] != _crc32(memoryview(data)[:covered]):
        return None
    # the prefix must end a line, and not between the two halves of "\r\n"
    if covered and (data[covered - 1] not in b"\n\r" or data[covered - 1 : covered + 1] == b"\r\n"):
        return None
    try:
        rows = json.loads(b"[" + b",".join(body.splitlines()) + b"]")
    except ValueError:
        return None
    # every row is [id, rels, nodes, depth], ids unique, rels and nodes of
    # one length; checked column by column, which keeps the loops in C
    if len(rows) != header["rows"] or not all(type(row) is list and len(row) == 4 for row in rows):
        return None
    ids, rels, nodes, depths = zip(*rows) if rows else ((), (), (), ())
    if not (
        set(map(type, ids)) <= {str}
        and len(set(ids)) == len(ids)
        and set(map(type, rels)) | set(map(type, nodes)) <= {list}
        and set(map(type, depths)) <= {int}
        and list(map(len, rels)) == list(map(len, nodes))
        and set(map(type, chain.from_iterable(rels + nodes))) <= _TAG_TYPES
    ):
        return None
    return header, rows, body


def _write_sidecar(f: _DataFile, tagset: int) -> None:
    """Write the sidecar of ``f`` atomically; a failed write leaves none,
    which only costs the next open a full parse."""
    encode = _ROW_ENCODER.encode
    body = f.body + "".join(encode(row) + "\n" for row in f.rows[f.encoded:]).encode("utf-8")
    header = dict(
        zip(
            _HEADER_KEYS,
            (SIDECAR_VERSION, f.end, f.crc, tagset, f.auto, f.lines, len(f.rows), _crc32(body)),
        )
    )
    path = _sidecar_path(f.path)
    temp = path.with_name(path.name + ".tmp")
    try:
        temp.write_bytes(json.dumps(header).encode("ascii") + b"\n" + body)
        os.replace(temp, path)
    except OSError:
        temp.unlink(missing_ok=True)
        path.unlink(missing_ok=True)
        return
    f.body, f.encoded, f.stale = body, len(f.rows), False


# The interchange export is the text of
#   json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
# for doc = {"format": "anncorra-corpus", "records": [{"id", "language",
# "source", "raw", "tree": anncorra.to_interchange(tree)}, ...]}, written
# directly from the records. The CLI's generic writer (cli._dump_json) gives
# the same text but took 5.8x as long on a 600-sentence store, counting the
# dicts it needs built, and this export sets the tail of a treebank workload.
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
    nodes = tree.nodes
    depth = 0
    level = nodes[tree.root].children
    while level:
        depth += 1
        level = [child for position in level for child in nodes[position].children]
    return depth
