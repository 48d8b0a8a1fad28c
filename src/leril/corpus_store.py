"""On-disk treebank store.

A store is a plain directory holding one append-only ``<lang>.anncorra``
file per language, with records written as a ``# id`` comment line
followed by the sentence's linear notation; lines end at ``\\n``,
``\\r\\n`` or ``\\r`` only (``diagnostics.split_lines``). A record without
``# id`` is named ``<lang>-k``, k the smallest number above the previous
such record's that no earlier record of its file holds. An optional
``tagset.cfg`` extends the default tag registry for everything read
through the store. The layout is deliberately human-readable so dumps can
be shipped as-is.

Contract: single writer, any number of readers. Opening read-write takes
an exclusive ``flock`` on ``.lock`` in the store directory, which the
kernel drops when the writer exits or dies, so a crashed writer leaves no
stale lock; the file keeps the holder's pid for the error message of a
writer turned away, and stays in place, empty, when released. Where
``fcntl`` is missing, the lock is the file itself, created with ``O_EXCL``
and removed on close. Readers ignore the lock and take a snapshot at open,
whose lines the export reads again: a data file cut back since fails it.

Summary sidecar. Beside each data file a writer keeps
``<lang>.anncorra.idx`` (``glob("*.anncorra")`` does not match it): a JSON
header (format version, tag registry digest, byte lengths of the tree and
checkpoint blocks, and one ``zlib.crc32`` of the three blocks), one row
line per record, ``[id, "k1 - k2", "- v -", depth]``, then the tree block,
one line per record, ``["rAma_ne phala piyA", parents, groups as [start,
stop, tag]]``, then the checkpoint block, one line per record, ``[end,
crc32, lines, k]`` of the data file up to the end of that record, with
the k of its last ``<lang>-k``; the last one is the prefix the sidecar covers. A
row's relation tags and node tags, and a tree's surfaces, are the columns
of ``anncorra.DepTree.columns``: one string each, fields joined by single
spaces and ``-`` for no tag. No field is empty or holds a space, so a
record decodes to a few objects, split only when read; memory holds
records in the same shape. Nothing is stored twice. Every open checks the
crc32 and decodes the rows, which ``query_by_relation`` and ``stats``
read, and the last checkpoint. In memory each block is a list of byte
pieces: the block loaded (a view of the sidecar's bytes), then one line
per record parsed or added, encoded then; a writer's sidecar joins them.
``export`` reads the data file's lines again, unparsed, up to the end of
the last record the open saw, and the interchange export also decodes the
tree block, checked by column like the rows, and hands the columns to
``anncorra.emit_interchange``. Lines without the ids of all the rows, or a
block without one rooted tree per row, fail it with "does not describe". A
writer, which rewrites the sidecar, first reads the prefix's lines the
same way and keeps the rows only when their ids match, so rows naming
wrong ids are rebuilt by the next writer; it does not check the tree
block. When the data file no longer holds the covered prefix (it was cut
back, as by a restore from an earlier copy, or edited), the open decodes
every checkpoint and keeps the records up to the last one whose prefix
still matches its crc32; it parses only what follows, and a writer
rewrites the sidecar with the kept rows, trees and checkpoints. A sidecar
that is missing, cannot be read, fails its crc32, is of another version
(so a version-5 one after an upgrade, until the next writer) or registry,
or has no matching checkpoint covers nothing, and every record is parsed:
deleting one is always safe. Only writers write one, at close, under the
lock, via ``os.replace``. The crc32 notices damage, not forgery
(``hashlib`` would map OpenSSL into every corpus command, 3.6 MB
resident). ``SIDECAR_VERSION`` must change with any change to what a line
parses to: rows and trees (surfaces, parents, groups) are trusted without
parsing their lines.

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
from itertools import accumulate, chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterator, NamedTuple
from zlib import crc32

from .anncorra import NO_TAG, DepTree, TagRegistry, default_registry, emit_interchange
from .anncorra import iter_sentences, load_tagset, parse_sentence
from .diagnostics import Diagnostic, LerilError, has_errors, json_string, split_lines
from .diagnostics import utf8_text, warning

SIDECAR_VERSION = 6
_HEADER_KEYS = ("version", "tagset", "trees", "marks", "crc")
_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


class CorpusError(LerilError):
    """Store-level failure; a rejected sentence's message holds its diagnostics."""


class StoreLockedError(CorpusError):
    """Another writer holds the store lock."""


class CorpusStats(NamedTuple):
    sentences: int
    relation_counts: dict[str, int]
    node_counts: dict[str, int]
    average_depth: float


class _DataFile:
    """One data file: its records' rows and the blocks of its next sidecar."""

    # The file up to the end of its last record: length, crc32, line count
    # and the k of its last record without ``# id`` (``<lang>-k``). A sidecar
    # covers no more, so that a ``# id`` line after the last record still
    # names the sentence appended below it.
    end = crc = lines = auto = 0
    trailer = b""  # blank and comment lines after the last record
    trailer_lines = 0
    stale = True  # the sidecar on disk does not describe ``end``
    fd: int | None = None  # open for appending, in a writer

    def __init__(self, path: Path, language: str):
        self.path = path
        self.language = language
        self.rows: list[list] = []  # [id, rels, nodes, depth], in file order, as stored
        # The sidecar's row, tree and checkpoint blocks as byte pieces: the
        # block loaded from the sidecar, then one line per record indexed.
        self.blocks: tuple[list, list, list] = ([], [], [])

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
        self._rows: set[str] = set()  # the ids of every data file
        try:
            self._tagset = crc32(self.registry.signature().encode("utf-8"))
            for data_file in sorted(self.path.glob("*.anncorra")):
                self._load(data_file)
        except Exception:
            self.close()
            raise
        self._auto = len(self._rows)  # the n of the last ``<lang>-n`` that add_sentence named
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
        view = memoryview(data)
        ids = [row[0] for row in sidecar[1]] if sidecar is not None else []
        if (
            sidecar is not None
            # with an id another data file holds, the full parse names the duplicate
            and self._rows.isdisjoint(ids)
            # a writer, about to rewrite the sidecar, keeps no rows whose ids the prefix lacks
            and (self.mode == "r" or _read_prefix(view[: sidecar[0][0]], f.language)[0] == ids)
        ):
            point, f.rows, blocks, f.stale = sidecar
            covered, f.crc, f.lines, f.auto = point
            f.blocks = tuple([block] for block in blocks)
            self._rows.update(ids)
        held = {row[0] for row in f.rows}  # the ids of this file's records so far

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

        parsed = []  # the line number in the tail and the ``auto`` of each record
        for sentence_id, lineno, line in iter_sentences(text):
            auto = f.auto
            if sentence_id is None:
                sentence_id, auto = _auto_id(f.language, auto, held)
            try:
                if sentence_id in self._rows:
                    raise CorpusError(f"duplicate sentence id '{sentence_id}'")
                tree, _ = self._parse(sentence_id, line)
            except CorpusError as exc:
                if last_raw is None or lineno != len(parts):
                    raise CorpusError(f"{path}:{f.lines + lineno}: {exc}") from None
                torn = (len(data) - len(last_raw.encode("utf-8")), str(exc))
                parts.pop()
                break
            f.auto = auto
            held.add(sentence_id)
            parsed.append((lineno, auto))
            self._index(f, sentence_id, tree)
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
            f.crc = crc32(view[f.end : end], f.crc)
            f.blocks[2].append(_encode([end, f.crc, f.lines + lineno, auto]))
            f.end = end
        f.lines += last_record
        f.stale = f.stale or last_record > 0

    def _index(self, f: _DataFile, sentence_id: str, tree: DepTree) -> None:
        surfaces, rels, tags, parents = tree.columns
        row = [sentence_id, rels, tags, tree.depth]
        self._rows.add(sentence_id)
        f.rows.append(row)
        f.blocks[0].append(_encode(row))
        f.blocks[1].append(_encode([surfaces, parents, tree.groups]))

    def _parse(self, sentence_id: str, line: str) -> tuple[DepTree, list[Diagnostic]]:
        """The tree of one sentence line and the parse's warnings; rejects a
        line that does not parse and resolve cleanly."""
        tree, diagnostics = parse_sentence(line, self.registry)
        if tree is None or has_errors(diagnostics):
            raise CorpusError(
                f"sentence '{sentence_id}' rejected: "
                + "; ".join(d.render() for d in diagnostics)
            )
        return tree, diagnostics

    def add_sentence(
        self,
        sentence_id: str | None,
        line: str,
        language: str,
        diagnostics: list[Diagnostic] | None = None,
    ) -> str:
        """Validate, persist and index one sentence; the id it is stored under.

        A sentence without an id (None) is named ``<language>-n``: n counts on
        from the store's record count at open, one step per such sentence
        offered, past the ids the store holds. Rejects a language that does
        not name a data file of this store, duplicates, lines that do not
        parse and resolve cleanly, and any id or line that would not read
        back unchanged from the data file (an empty id or one with
        whitespace; a line starting with ``#``, with leading or trailing
        whitespace or with ``\\n`` or ``\\r``). Parse warnings are appended
        to ``diagnostics`` when a list is supplied.
        """
        if self.mode != "rw":
            raise CorpusError("store opened read-only")
        if sentence_id is None:
            sentence_id, self._auto = _auto_id(language, self._auto, self._rows)
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
        if f is None:  # a new data file, listed in file name order as a reopen lists it
            f = self._files[language] = _DataFile(data_file, language)
            self._files = dict(sorted(self._files.items(), key=lambda item: item[1].path))
        payload = text.encode("utf-8")
        f.append(payload, f.end + len(f.trailer))
        f.crc = crc32(f.trailer + payload, f.crc)
        f.end += len(f.trailer) + len(payload)
        f.lines += f.trailer_lines + 2
        f.trailer, f.trailer_lines, f.stale = b"", 0, True
        f.blocks[2].append(_encode([f.end, f.crc, f.lines, f.auto]))
        self._index(f, sentence_id, tree)
        return sentence_id

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
        # rows hold registry casing for every known tag; only rows that hold it are split
        hits = [
            (sentence_id, position)
            for f in self._files.values()
            for sentence_id, rels, _nodes, _depth in f.rows
            if canonical in rels
            for position, rel in enumerate(rels.split(" "))
            if rel == canonical
        ]
        return hits, []

    def stats(self) -> CorpusStats:
        """Exact counts over current contents, recomputed on every call."""
        rows = list(chain.from_iterable(f.rows for f in self._files.values()))
        relation_counts, node_counts = (
            Counter(" ".join([row[k] for row in rows]).split(" ") if rows else ()) for k in (1, 2)
        )
        relation_counts.pop(NO_TAG, None)
        node_counts.pop(NO_TAG, None)
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
            records = chain.from_iterable(map(_interchange, self._files.values()))
            return emit_interchange(
                "anncorra-corpus", "records", ("id", "language", "raw", "source"), records
            )
        raise ValueError(f"unknown export format: {format!r}")


def _sidecar_path(data_file: Path) -> Path:
    return data_file.with_name(data_file.name + ".idx")


def _read_sidecar(
    data_file: Path, data: bytes, tagset: int
) -> tuple[list, list[list], tuple[memoryview, ...], bool] | None:
    """The last kept checkpoint, the rows, the row, tree and checkpoint
    blocks of the sidecar of ``data_file`` for the prefix of ``data`` it
    still describes, read under registry digest ``tagset``, and whether
    records were dropped from its end; None when it describes none.

    The crc32 of the blocks is checked and the rows decoded; the blocks
    stay views of the file's bytes, since a copy would cost every open
    more than the crc32 does. While ``data`` holds the
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
        or header["crc"] != crc32(memoryview(raw)[start:])
    ):
        return None
    marks_at = len(raw) - header["marks"]
    end = marks_at - header["trees"]
    view, bounds = memoryview(raw), ((start, end), (end, marks_at), (marks_at, len(raw)))
    blocks = tuple(view[at:stop] for at, stop in bounds)
    rows = _decode_rows(blocks[0])
    if rows is None or raw.count(b"\n", marks_at) != len(rows):
        return None
    # the last line of the checkpoint block
    last = _json_lines(raw[max(marks_at, raw.rfind(b"\n", marks_at, len(raw) - 1) + 1) :])
    if not _are_checkpoints(last, 1):  # a sidecar of no records covers nothing
        return None
    covered, crc, *_ = point = last[0]
    if (
        0 <= covered <= len(data)
        and crc == crc32(memoryview(data)[:covered])
        and _ends_line(data, covered)
    ):
        return point, rows, blocks, False
    points = _json_lines(blocks[2])
    kept = _kept(data, points) if _are_checkpoints(points, len(rows)) else 0
    if not kept:
        return None
    try:
        blocks = tuple(view[at : _line_end(raw, at, stop, kept)] for at, stop in bounds)
    except ValueError:  # a tree block of fewer lines than rows
        return None
    return points[kept - 1], rows[:kept], blocks, True


def _json_lines(block) -> list | None:
    """The values of the JSON lines of ``block``; None unless it is UTF-8
    JSON lines, each ended by a newline."""
    try:
        return json.loads("[" + str(block, "utf-8").replace("\n", ",")[:-1] + "]")
    except ValueError:
        return None


def _decode_rows(body: memoryview) -> list[list] | None:
    """The rows of ``body``; None unless each is [id, rels, nodes, depth] of
    types [str, str, str, int], ids unique, rels and nodes with as many fields,
    none empty. Checked column by column, which keeps the loops in C."""
    rows = _json_lines(body)
    if rows is None or set(map(type, rows)) - {list} or set(map(len, rows)) - {4}:
        return None
    ids, rels, nodes, depths = zip(*rows) if rows else ((), (), (), ())
    if not (
        set(map(type, ids)) <= {str}
        and len(set(ids)) == len(ids)
        and set(map(type, rels)) | set(map(type, nodes)) <= {str}
        and set(map(type, depths)) <= {int}
        and list(map(str.count, rels, repeat(" "))) == list(map(str.count, nodes, repeat(" ")))
        and _no_empty_field(rels + nodes)
    ):
        return None
    return rows


def _no_empty_field(column) -> bool:
    """Whether no string of ``column`` is empty, starts or ends with a space,
    holds two in a row or holds a line break (which no writer writes). With a
    space around each string, two in a row show exactly the first three."""
    text = " ".join(["", *column, ""])
    return not ("  " in text or "\n" in text)


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
        crc = crc32(view[start:end], crc)
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


def _encode(item: list) -> bytes:
    """One line of a sidecar block."""
    return (_ROW_ENCODER.encode(item) + "\n").encode("utf-8")


def _write_sidecar(f: _DataFile, tagset: int) -> None:
    """Write the sidecar of ``f``, the pieces of its blocks joined, atomically;
    a failed write leaves none, which only costs the next open a full parse."""
    body = b"".join(chain.from_iterable(f.blocks))
    trees, marks = (sum(map(len, block)) for block in f.blocks[1:])
    values = (SIDECAR_VERSION, tagset, trees, marks, crc32(body))
    header = json.dumps(dict(zip(_HEADER_KEYS, values))).encode("ascii") + b"\n"
    path = _sidecar_path(f.path)
    temp = path.with_name(path.name + ".tmp")
    try:
        with temp.open("wb") as fh:
            fh.writelines((header, body))
        os.replace(temp, path)
    except OSError:
        temp.unlink(missing_ok=True)
        path.unlink(missing_ok=True)


def _not_described(f: _DataFile) -> CorpusError:
    return CorpusError(f"{_sidecar_path(f.path)} does not describe {f.path}")


def _auto_id(language: str, k: int, held) -> tuple[str, int]:
    """``<language>-n`` for the smallest n above ``k`` that ``held`` lacks, and n."""
    k += 1
    while f"{language}-{k}" in held:
        k += 1
    return f"{language}-{k}", k


def _read_prefix(prefix, language: str) -> tuple[list[str], list[str]]:
    """The ids and sentence lines of the records of the start of a data
    file, read unparsed. A record without ``# id`` is named ``<language>-k``
    by ``_auto_id``, above the k of the previous such record, past the ids
    of the records before it."""
    ids, raws, auto, held = [], [], 0, set()
    for sentence_id, _lineno, line in iter_sentences(str(prefix, "utf-8")):
        if sentence_id is None:
            sentence_id, auto = _auto_id(language, auto, held)
        held.add(sentence_id)
        ids.append(sentence_id)
        raws.append(line)
    return ids, raws


def _lines(f: _DataFile) -> list[str]:
    """The sentence lines of the records of ``f``, read unparsed from its data
    file up to ``f.end``; they must be the bytes read at open, with its rows' ids."""
    with open(f.path, "rb") as fh:
        prefix = fh.read(f.end)
    if len(prefix) != f.end or crc32(prefix) != f.crc:
        raise CorpusError(f"{f.path} changed since the store was opened")
    ids, raws = _read_prefix(prefix, f.language)
    if ids != [row[0] for row in f.rows]:
        raise _not_described(f)
    return raws


def _trees(f: _DataFile) -> list[list]:
    """The trees of the records of ``f``, decoded from its tree block; they
    must pass ``_are_trees``."""
    trees = _json_lines(b"".join(f.blocks[1]))
    if trees is None or len(trees) != len(f.rows) or not _are_trees(f.rows, trees):
        raise _not_described(f)
    return trees


def _are_trees(rows: list[list], trees: list) -> bool:
    """Whether each tree is [surfaces, parents, groups] of types [str, list, list] with a
    node per field of its row, one root (None), int parents and [start, stop, tag] groups
    of types [int, int, str] inside the sentence, and no surface empty. Checked column by
    column, in C loops; each type before the comparisons that rely on it (True < 2.5)."""
    if set(map(type, trees)) - {list} or set(map(len, trees)) - {3}:
        return False
    surfaces, parents, groups = zip(*trees) if trees else ((), (), ())
    if set(map(type, surfaces)) - {str} or set(map(type, chain(parents, groups))) - {list}:
        return False
    spans = list(chain.from_iterable(groups))
    if set(map(type, spans)) - {list} or set(map(len, spans)) - {3}:
        return False
    starts, stops, tags = zip(*spans) if spans else ((), (), ())
    counts = list(map(len, parents))
    ranges = {n: frozenset({None, *range(n)}) for n in set(counts)}  # the parents a tree may hold
    return (
        list(map(str.count, surfaces, repeat(" ")))
        == list(map(int.__sub__, counts, repeat(1)))
        == list(map(str.count, map(itemgetter(1), rows), repeat(" ")))
        and set(map(list.count, parents, repeat(None))) <= {1}  # {1} unless no trees
        and set(map(type, chain.from_iterable(parents))) <= {int, type(None)}
        and all(map(frozenset.issuperset, map(ranges.__getitem__, counts), parents))
        and (set(map(type, starts)) | set(map(type, stops))) <= {int}
        and set(map(type, tags)) <= {str}
        and min(starts, default=0) >= 0
        and all(map(int.__lt__, starts, stops))
        and all(map(int.__le__, stops, chain.from_iterable(map(repeat, counts, map(len, groups)))))
        and _no_empty_field(surfaces)
    )


def _interchange(f: _DataFile) -> Iterator[tuple]:
    """The export records of ``f`` as ``anncorra.emit_interchange`` reads
    them, from the columns with no tree built."""
    language, source = json_string(f.language), json_string(str(f.path))
    for row, raw, (surfaces, parents, groups) in zip(f.rows, _lines(f), _trees(f)):
        values = (json_string(row[0]), language, json_string(raw), source)
        yield values, surfaces, row[1], row[2], parents, groups
