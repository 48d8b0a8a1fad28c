"""On-disk treebank store.

A store is a plain directory holding one append-only ``<lang>.anncorra``
file per language, with records written as a ``# id`` comment line
followed by the sentence's linear notation; lines end at ``\\n``,
``\\r\\n`` or ``\\r`` only (``diagnostics.split_lines``). An optional
``tagset.cfg`` extends the default tag registry for everything read
through the store. The layout is deliberately human-readable so dumps
can be shipped as-is.

Contract: single writer, any number of readers. Opening read-write takes
an exclusive ``flock`` on ``.lock`` in the store directory, which the
kernel drops when the writer exits or dies, so a crashed writer leaves no
stale lock; the file keeps the holder's pid for the error message of a
writer turned away, and stays in place, empty, when released. Where
``fcntl`` is missing, the lock is the file itself, created with
``O_EXCL`` and removed on close. Readers take a snapshot at open and
ignore the lock.

Summary sidecar. Beside each data file a writer keeps
``<lang>.anncorra.idx`` (``glob("*.anncorra")`` does not match it): a JSON
header (format version, tag registry digest, byte lengths of the tree and
checkpoint blocks, and one ``zlib.crc32`` of the three blocks), one row
line per record, ``[id, relation tags, node tags, depth]``, then the tree
block, one line per record, ``[surfaces, parents, groups as [start, stop,
tag]]``, then the checkpoint block, one line per record, ``[end, crc32,
lines, auto ids]`` of the data file up to the end of that record; the last
one is the prefix the sidecar covers. Nothing is stored twice. Every open
checks the crc32 and decodes the rows, which ``query_by_relation`` and
``stats`` read, and the last checkpoint; ``export`` reads the prefix's
lines unparsed, and the interchange export also decodes the tree block.
Lines without the rows' ids, or a block without one rooted tree per row,
fail it with "does not describe". When the data file no longer holds the
covered prefix (it was cut back, as by a restore from an earlier copy, or
edited), the open decodes every checkpoint and keeps the records up to the
last one whose prefix still matches its crc32; it parses only what
follows, and a writer rewrites the sidecar with the kept rows, trees and
checkpoints. A sidecar that is missing, cannot be read, fails its crc32,
is of another version (so after an upgrade, until the next writer) or
registry, or has no matching checkpoint covers nothing, and every record
is parsed: deleting one is always safe. Only writers write one, at close,
under the lock, via ``os.replace``, reusing the block bytes they loaded.
The crc32 notices damage, not forgery (``hashlib`` would map OpenSSL into
every corpus command, 3.6 MB resident). ``SIDECAR_VERSION`` must change
with any change to what a line parses to: rows and trees (surfaces,
parents, groups) are trusted without parsing their lines.

Torn tail. A writer that dies mid-append can leave the last line of a
data file unterminated. Such a line is read like any other when it
parses; when it does not (or is not UTF-8), readers skip it with a
warning naming its file and line, and a read-write open cuts it off the
file, also with a warning. A read-write open ends an unterminated last
line that parses (or is a comment) with the missing newline, so the next
record does not run into it. Every record is appended with one ``write``.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from itertools import accumulate, chain
from json.encoder import encode_basestring as _json_string
from pathlib import Path
from typing import NamedTuple

from .anncorra import DepTree, TagRegistry, default_registry, iter_sentences
from .anncorra import load_tagset, parse_sentence
from .diagnostics import Diagnostic, LerilError, has_errors, split_lines, utf8_text, warning

SIDECAR_VERSION = 5
_HEADER_KEYS = ("version", "tagset", "trees", "marks", "crc")
_TAG_TYPES = {str, type(None)}
_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


class CorpusError(LerilError):
    """Store-level failure; ``diagnostics`` carries parse details if any."""

    def __init__(self, message: str, diagnostics: list[Diagnostic] | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class StoreLockedError(CorpusError):
    """Another writer holds the store lock."""


class CorpusStats(NamedTuple):
    sentences: int
    relation_counts: dict[str, int]
    node_counts: dict[str, int]
    average_depth: float


class _DataFile:
    """One data file: its records' columns and what its next sidecar covers."""

    prefix = memoryview(b"")  # the bytes the sidecar covered at open, not copied
    unread = 0  # records of the prefix, whose lines and trees stay on disk
    body = trees_body = marks_body = b""  # the sidecar's rows, tree and checkpoint blocks for them
    # The file up to the end of its last record: length, crc32, line count
    # and auto-id count. A sidecar covers no more, so that a ``# id`` line
    # after the last record still names the sentence appended below it.
    end = crc = lines = auto = 0
    trailer = b""  # blank and comment lines after the last record
    trailer_lines = 0
    stale = True  # the sidecar on disk does not describe ``end``
    fd: int | None = None  # open for appending, in a writer

    def __init__(self, path: Path, language: str):
        self.path = path
        self.language = language
        self.rows: list[list] = []  # [id, rels, nodes, depth], in file order
        # the lines and [surfaces, parents, groups] of the records parsed
        self.raws: list[str] = []
        self.trees: list[list] = []
        self.marks: list[list] = []  # [end, crc, lines, auto] after each of them

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

        tagset_path = self.path / "tagset.cfg"
        if registry is None and tagset_path.is_file():
            registry = load_tagset(utf8_text(tagset_path.read_bytes(), tagset_path))
        self.registry = registry if registry is not None else default_registry()

        if mode == "rw":
            self._acquire_lock()
        self.diagnostics: list[Diagnostic] = []
        self._files: dict[str, _DataFile] = {}  # by language, in file name order
        self._rows: dict[str, list] = {}  # id to summary row, in store order
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
            point, rows, f.body, f.trees_body, f.marks_body, f.stale = sidecar
            covered, f.crc, f.lines, f.auto = point
            f.prefix, f.rows, f.unread = memoryview(data)[:covered], rows, len(rows)
            for row in rows:
                self._rows[row[0]] = row

        tail = data[covered:]
        torn = None  # (byte offset, reason) of a torn last line, the one after ``parts``
        try:
            text = tail.decode("utf-8")
        except UnicodeDecodeError as exc:
            cut = max(tail.rfind(b"\n"), tail.rfind(b"\r")) + 1
            if exc.start < cut:
                raise CorpusError(f"{path}: not UTF-8 text at byte {covered + exc.start}") from None
            text = tail[:cut].decode("utf-8")
            torn = (covered + cut, "not UTF-8 text")
        parts = split_lines(text, keepends=True)  # the lines of the tail, with their ends
        last_raw = None  # the unterminated last line, if any
        if torn is None and parts and parts[-1][-1] not in "\r\n":
            last_raw = parts[-1]

        parsed = []  # the line number in the tail and the auto-id count of each record
        for sentence_id, lineno, line in iter_sentences(text):
            auto_id = sentence_id is None
            if auto_id:
                sentence_id = f"{f.language}-{f.auto + 1}"
            try:
                if sentence_id in self._rows:
                    raise CorpusError(f"duplicate sentence id '{sentence_id}'")
                tree, _ = self._parse(sentence_id, line)
            except CorpusError as exc:
                if last_raw is None or lineno != len(parts):
                    raise CorpusError(
                        f"{path}:{f.lines + lineno}: {exc}", exc.diagnostics
                    ) from None
                torn = (len(data) - len(last_raw.encode("utf-8")), str(exc))
                parts.pop()
                break
            f.auto += auto_id
            parsed.append((lineno, f.auto))
            self._index(f, sentence_id, line, tree)
        if torn is not None:
            offset, reason = torn
            action = "removed" if self.mode == "rw" else "skipped"
            self.diagnostics.append(
                warning(f"{path}:{f.lines + len(parts) + 1}: torn last record {action}: {reason}")
            )
            if self.mode == "rw":
                os.truncate(path, offset)
        elif last_raw is not None and self.mode == "rw":
            f.append(b"\n", len(data))
            parts[-1] += "\n"
            data += b"\n"

        last_record = parsed[-1][0] if parsed else 0
        f.trailer = "".join(parts[last_record:]).encode("utf-8")
        f.trailer_lines = len(parts) - last_record
        ends = list(accumulate(len(part.encode("utf-8")) for part in parts[:last_record]))
        view, f.end = memoryview(data), covered
        for lineno, auto in parsed:
            end = covered + ends[lineno - 1]
            f.crc = _crc32(view[f.end : end], f.crc)
            f.marks.append([end, f.crc, f.lines + lineno, auto])
            f.end = end
        f.lines += last_record
        f.stale = f.stale or last_record > 0

    def _index(self, f: _DataFile, sentence_id: str, line: str, tree: DepTree) -> None:
        nodes = tree.nodes
        rels, tags = [node.rel_tag for node in nodes], [node.node_tag for node in nodes]
        row = self._rows[sentence_id] = [sentence_id, rels, tags, _tree_depth(tree)]
        f.rows.append(row)
        f.raws.append(line)
        groups = [[group.start, group.stop, group.tag] for group in tree.groups]
        f.trees.append([[node.surface for node in nodes], [node.parent for node in nodes], groups])

    def _parse(self, sentence_id: str, line: str) -> tuple[DepTree, list[Diagnostic]]:
        """The tree of one sentence line and the parse's warnings; rejects a
        line that does not parse and resolve cleanly."""
        tree, diagnostics = parse_sentence(line, self.registry)
        if tree is None or has_errors(diagnostics):
            raise CorpusError(
                f"sentence '{sentence_id}' rejected: "
                + "; ".join(d.render() for d in diagnostics),
                diagnostics,
            )
        return tree, diagnostics

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, sentence_id: str) -> bool:
        return sentence_id in self._rows

    def add_sentence(
        self,
        sentence_id: str,
        line: str,
        language: str,
        diagnostics: list[Diagnostic] | None = None,
    ) -> None:
        """Validate, persist and index one sentence.

        Rejects a language that does not name a data file of this store,
        duplicates, lines that do not parse and resolve cleanly, and any id
        or line that would not read back unchanged from the data file (an
        empty id or one with whitespace; a line starting with ``#``, with
        leading or trailing whitespace or with ``\\n`` or ``\\r``). Parse warnings
        are appended to ``diagnostics`` when a list is supplied.
        """
        if self.mode != "rw":
            raise CorpusError("store opened read-only")
        data_file = self._data_file(language)
        if sentence_id in self._rows:
            raise CorpusError(f"duplicate sentence id '{sentence_id}'")
        tree, parse_diags = self._parse(sentence_id, line)
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
        f.marks.append([f.end, f.crc, f.lines, f.auto])
        self._index(f, sentence_id, line, tree)

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
            return "".join(
                f"# {row[0]}\n{raw}\n"
                for f in self._files.values()
                for row, raw in zip(f.rows, _lines(f))
            )
        if format == "interchange":
            records = _json_array([r for f in self._files.values() for r in _interchange(f)], "  ")
            return f'{{\n  "format": "anncorra-corpus",\n  "records": {records}\n}}\n'
        raise ValueError(f"unknown export format: {format!r}")


def _crc32(data, value: int = 0) -> int:
    import zlib  # here, so that commands without a store never load it

    return zlib.crc32(data, value)


def _sidecar_path(data_file: Path) -> Path:
    return data_file.with_name(data_file.name + ".idx")


def _read_sidecar(
    data_file: Path, data: bytes, tagset: int
) -> tuple[list, list[list], bytes, memoryview, memoryview, bool] | None:
    """The last kept checkpoint, rows, row bytes, tree block and checkpoint
    block of the sidecar of ``data_file`` for the prefix of ``data`` it
    still describes, read under registry digest ``tagset``, and whether
    records were dropped from its end; None when it describes none.

    The crc32 of the blocks is checked and the rows decoded; the tree and
    checkpoint blocks stay views of the file's bytes, since a copy would
    cost every open more than the crc32 does. While ``data`` holds the
    prefix of the last checkpoint, no other one is decoded; otherwise the
    records up to the last checkpoint ``data`` still matches are kept."""
    try:
        raw = _sidecar_path(data_file).read_bytes()
        start = raw.find(b"\n") + 1 or len(raw)
        header = json.loads(raw[:start])
    except (OSError, ValueError):
        return None
    if (
        type(header) is not dict
        or tuple(header) != _HEADER_KEYS
        or any(type(value) is not int for value in header.values())
        or header["version"] != SIDECAR_VERSION
        or header["tagset"] != tagset
        # both block lengths at least 0, and both blocks after the header
        or not 0 <= header["trees"] <= header["trees"] + header["marks"] <= len(raw) - start
        or header["crc"] != _crc32(memoryview(raw)[start:])
    ):
        return None
    marks_at = len(raw) - header["marks"]
    end = marks_at - header["trees"]
    body, trees, marks = raw[start:end], memoryview(raw)[end:marks_at], memoryview(raw)[marks_at:]
    rows = _decode_rows(body)
    if rows is None or raw.count(b"\n", marks_at) != len(rows):
        return None
    # the last line of the checkpoint block
    last = _json_lines(raw[max(marks_at, raw.rfind(b"\n", marks_at, len(raw) - 1) + 1) :])
    if not _are_checkpoints(last, 1):  # a sidecar of no records covers nothing
        return None
    covered, crc, *_ = point = last[0]
    if (
        0 <= covered <= len(data)
        and crc == _crc32(memoryview(data)[:covered])
        and _ends_line(data, covered)
    ):
        return point, rows, body, trees, marks, False
    points = _json_lines(marks)
    kept = _kept(data, points) if _are_checkpoints(points, len(rows)) else 0
    if not kept:
        return None
    try:
        rows_end, trees_end, marks_end = (
            _line_end(raw, at, stop, kept)
            for at, stop in ((start, end), (end, marks_at), (marks_at, len(raw)))
        )
    except ValueError:  # a tree block of fewer lines than rows
        return None
    trees, marks = memoryview(raw)[end:trees_end], memoryview(raw)[marks_at:marks_end]
    return points[kept - 1], rows[:kept], raw[start:rows_end], trees, marks, True


def _json_lines(block) -> list | None:
    """The values of the JSON lines of ``block``; None unless it is UTF-8
    JSON lines, each ended by a newline."""
    try:
        return json.loads("[" + str(block, "utf-8").replace("\n", ",")[:-1] + "]")
    except ValueError:
        return None


def _decode_rows(body: bytes) -> list[list] | None:
    """The rows of ``body``; None unless each is [id, rels, nodes, depth],
    ids unique, rels and nodes of one length. Checked column by column,
    which keeps the loops in C."""
    rows = _json_lines(body)
    if rows is None or set(map(type, rows)) - {list} or set(map(len, rows)) - {4}:
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
    return rows


def _are_checkpoints(points: list | None, count: int) -> bool:
    """Whether ``points`` is ``count`` checkpoints, ``[end, crc, lines, auto]`` each."""
    return (
        points is not None
        and len(points) == count
        and not set(map(type, points)) - {list}
        and not set(map(len, points)) - {4}
        and not set(map(type, chain.from_iterable(points))) - {int}
    )


def _kept(data: bytes, points: list[list]) -> int:
    """The number of records up to the last checkpoint that ``data`` still
    matches: its prefix has the checkpoint's crc32 and ends a line there. A
    checkpoint past the end of ``data`` fails the crc32 of the bytes left,
    and does not end a line there."""
    view, crc, start, kept = memoryview(data), 0, 0, 0
    for count, (end, point_crc, _lines, _auto) in enumerate(points, 1):
        crc = _crc32(view[start:end], crc)
        if crc != point_crc:
            break
        start = end
        if _ends_line(data, end):
            kept = count
    return kept


def _ends_line(data: bytes, end: int) -> bool:
    """Whether the first ``end`` bytes of ``data`` end a line, and not
    between the two halves of ``"\\r\\n"``."""
    return not end or data[end - 1 : end] in (b"\n", b"\r") and data[end - 1 : end + 1] != b"\r\n"


def _line_end(raw: bytes, at: int, stop: int, count: int) -> int:
    """The offset after the first ``count`` lines of ``raw[at:stop]``;
    ValueError when it holds fewer."""
    for _ in range(count):
        at = raw.index(b"\n", at, stop) + 1
    return at


def _write_sidecar(f: _DataFile, tagset: int) -> None:
    """Write the sidecar of ``f`` atomically; a failed write leaves none,
    which only costs the next open a full parse. Only the records parsed in
    this session are encoded; the crc32 runs over every block written."""
    rows, trees, marks = (
        "".join(_ROW_ENCODER.encode(item) + "\n" for item in items).encode("utf-8")
        for items in (f.rows[f.unread :], f.trees, f.marks)
    )
    blocks = (f.body, rows, f.trees_body, trees, f.marks_body, marks)
    crc = 0
    for block in blocks:
        crc = _crc32(block, crc)
    values = (
        SIDECAR_VERSION, tagset, len(f.trees_body) + len(trees), len(f.marks_body) + len(marks), crc
    )
    header = json.dumps(dict(zip(_HEADER_KEYS, values))).encode("ascii") + b"\n"
    path = _sidecar_path(f.path)
    temp = path.with_name(path.name + ".tmp")
    try:
        with temp.open("wb") as fh:
            fh.writelines((header, *blocks))
        os.replace(temp, path)
    except OSError:
        temp.unlink(missing_ok=True)
        path.unlink(missing_ok=True)


def _not_described(f: _DataFile) -> CorpusError:
    return CorpusError(f"{_sidecar_path(f.path)} does not describe {f.path}")


def _lines(f: _DataFile) -> list[str]:
    """The sentence lines of the records of ``f``; those of the covered
    prefix are read unparsed and must carry the ids of the sidecar's rows."""
    if not f.unread:
        return f.raws
    ids, raws, auto = [], [], 0
    for sentence_id, _lineno, line in iter_sentences(str(f.prefix, "utf-8")):
        if sentence_id is None:
            auto += 1
            sentence_id = f"{f.language}-{auto}"
        ids.append(sentence_id)
        raws.append(line)
    if ids != [row[0] for row in f.rows[: f.unread]]:
        raise _not_described(f)
    return raws + f.raws


def _trees(f: _DataFile) -> list[list]:
    """The trees of the records of ``f``; those of the covered prefix are
    decoded from the tree block and must each have a node per tag of its
    row, one root, parents and groups inside the sentence and typed fields."""
    if not f.unread:
        return f.trees
    trees = _json_lines(f.trees_body)
    if trees is None or len(trees) != f.unread or not all(map(_is_tree, f.rows, trees)):
        raise _not_described(f)
    return trees + f.trees


def _is_tree(row: list, tree) -> bool:
    if type(tree) is not list or len(tree) != 3 or set(map(type, tree)) != {list}:
        return False
    (surfaces, parents, groups), n = tree, len(row[1])
    return (
        len(surfaces) == len(parents) == n
        and set(map(type, surfaces)) <= {str}
        and parents.count(None) == 1
        and all(parent is None or type(parent) is int and 0 <= parent < n for parent in parents)
        and all(type(group) is list and len(group) == 3 for group in groups)
        and all(
            type(start) is type(stop) is int and type(tag) is str and 0 <= start < stop <= n
            for start, stop, tag in groups
        )
    )


def _json_array(items: list[str], margin: str) -> str:
    """Items already written at ``margin`` plus two spaces, as one array."""
    return "[\n" + ",\n".join(items) + f"\n{margin}]" if items else "[]"


def _interchange(f: _DataFile) -> list[str]:
    """The interchange records of ``f``.

    The export is the text of json.dumps(doc, ensure_ascii=False, indent=2,
    sort_keys=True) + "\n" for doc = {"format": "anncorra-corpus",
    "records": [{"id", "language", "source", "raw", "tree":
    anncorra.to_interchange(tree)}, ...]}, written from the columns with no
    tree built: opening and exporting the seed-7 treebank bench store takes
    19-22 ms this way and 76-84 ms (3.8-4.0x) as dicts through cli._dump_json.
    """
    language, source = _json_string(f.language), _json_string(str(f.path))
    records = []
    for row, raw, (surfaces, parents, groups) in zip(f.rows, _lines(f), _trees(f)):
        sentence_id, rels, tags, _depth = row
        nodes = [
            "          {\n"
            f'            "node": {"null" if tag is None else _json_string(tag)},\n'
            f'            "parent": {"null" if parent is None else parent},\n'
            f'            "position": {position},\n'
            f'            "rel": {"null" if rel is None else _json_string(rel)},\n'
            f'            "surface": {_json_string(surface)}\n'
            "          }"
            for position, (surface, rel, tag, parent) in enumerate(
                zip(surfaces, rels, tags, parents)
            )
        ]
        spans = [
            "          {\n"
            f'            "start": {start},\n'
            f'            "stop": {stop},\n'
            f'            "tag": {_json_string(tag)}\n'
            "          }"
            for start, stop, tag in groups
        ]
        records.append(
            "    {\n"
            f'      "id": {_json_string(sentence_id)},\n'
            f'      "language": {language},\n'
            f'      "raw": {_json_string(raw)},\n'
            f'      "source": {source},\n'
            '      "tree": {\n'
            f'        "groups": {_json_array(spans, "        ")},\n'
            f'        "nodes": {_json_array(nodes, "        ")},\n'
            f'        "root": {parents.index(None)}\n'
            "      }\n"
            "    }"
        )
    return records


def _tree_depth(tree: DepTree) -> int:
    # edges from the root down; a node's depth is its parent's plus one
    depths: list[int | None] = [None] * len(tree.nodes)
    for start in range(len(depths)):
        path, p = [], start
        while p is not None and depths[p] is None:
            path.append(p)
            p = tree.nodes[p].parent
        depth = -1 if p is None else depths[p]
        for q in reversed(path):
            depth += 1
            depths[q] = depth
    return max(depths)
