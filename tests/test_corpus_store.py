import contextlib
import importlib.util
import io
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import zlib
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from treegen import random_tree, to_interchange

import leril.corpus_store as corpus_store_module
from leril.anncorra import Group, emit_explicit, parse_sentence
from leril.cli import run
from leril.corpus_store import SIDECAR_VERSION, CorpusError, CorpusStore, StoreLockedError
from leril.diagnostics import Severity


@pytest.fixture()
def store(tmp_path):
    with CorpusStore(tmp_path / "store", "rw") as s:
        yield s


def _records(store):
    """The records of the store's interchange export."""
    return json.loads(store.export("interchange"))["records"]


def _ids(store):
    return [record["id"] for record in _records(store)]


class TestAdd:
    def test_add_explicit_sentence(self, store, explicit_line):
        assert store.add_sentence("s1", explicit_line, "hin") == "s1"
        [record] = _records(store)
        assert (record["id"], record["raw"]) == ("s1", explicit_line)
        assert len(record["tree"]["nodes"]) == 5

    def test_duplicate_id_rejected(self, store, explicit_line):
        store.add_sentence("s1", explicit_line, "hin")
        with pytest.raises(CorpusError, match="duplicate"):
            store.add_sentence("s1", explicit_line, "hin")

    def test_defaulted_form_stores_isomorphic_tree(
        self, store, explicit_line, defaulted_line
    ):
        store.add_sentence("s1", explicit_line, "hin")
        store.add_sentence("s2", defaulted_line, "hin")
        first, second = _records(store)
        assert first["tree"] == second["tree"]

    def test_unparseable_line_rejected_with_diagnostics(self, store):
        with pytest.raises(CorpusError) as exc:
            store.add_sentence("bad", "a/k1->q piyA::v:i", "hin")
        assert str(exc.value) == "sentence 'bad' rejected: error: undefined index label 'q'"
        assert "bad" not in _ids(store)

    def test_read_only_store_rejects_writes(self, tmp_path, explicit_line):
        with CorpusStore(tmp_path / "store", "rw") as writer:
            writer.add_sentence("s1", explicit_line, "hin")
        with CorpusStore(tmp_path / "store", "r") as reader:
            with pytest.raises(CorpusError, match="read-only"):
                reader.add_sentence("s2", explicit_line, "hin")


    @pytest.mark.parametrize(
        "line",
        [
            "#piyA::v:i",
            " piyA::v:i",
            "piyA::v:i ",
            "rAma_ne/k1\npiyA::v:i",
            "rAma_ne/k1\rpiyA::v:i",
            "rAma_ne/k1\r\npiyA::v:i",
        ],
        ids=["comment", "leading-space", "trailing-space", "newline", "cr", "crlf"],
    )
    def test_line_that_would_not_read_back_is_rejected(self, tmp_path, line):
        path = tmp_path / "store"
        with CorpusStore(path, "rw") as writer:
            writer.add_sentence("s1", "piyA::v:i", "hin")
            with pytest.raises(CorpusError, match="line would not read back"):
                writer.add_sentence("s2", line, "hin")
            assert "s2" not in _ids(writer)
        with CorpusStore(path, "r") as reader:
            assert reader.export("linear") == "# s1\npiyA::v:i\n"

    @pytest.mark.parametrize(
        "line",
        ["rAma_ne/k1\x0cpiyA::v:i", "rAma_ne/k1\u2028piyA::v:i"],
        ids=["form-feed", "u2028"],
    )
    def test_line_with_a_character_that_ends_no_line_reads_back(self, tmp_path, line):
        # only \n, \r\n and \r end a line, so a stored line may hold \f or U+2028
        path = tmp_path / "store"
        with CorpusStore(path, "rw") as writer:
            writer.add_sentence("s1", "piyA::v:i", "hin")
            writer.add_sentence("s2", line, "hin")
            written = _records(writer)
        expected = f"# s1\npiyA::v:i\n# s2\n{line}\n"
        assert (path / "hin.anncorra.idx").is_file()
        for sidecar in (True, False):
            if not sidecar:
                (path / "hin.anncorra.idx").unlink()
            with CorpusStore(path, "r") as reader:
                assert reader.export("linear") == expected
                assert _records(reader) == written

    @pytest.mark.parametrize(
        "sentence_id",
        ["my id", "", "s\n2", " s2"],
        ids=["space", "empty", "newline", "leading-space"],
    )
    def test_id_that_would_not_read_back_is_rejected(self, tmp_path, sentence_id):
        path = tmp_path / "store"
        with CorpusStore(path, "rw") as writer:
            writer.add_sentence("s1", "piyA::v:i", "hin")
            with pytest.raises(CorpusError, match="id .* would not read back"):
                writer.add_sentence(sentence_id, "piyA::v:i", "hin")
            assert sentence_id not in _ids(writer)
        with CorpusStore(path, "r") as reader:
            assert [r["id"] for r in _records(reader)] == ["s1"]


    @pytest.mark.parametrize(
        "language",
        ["", ".", "..", "../outside", "sub/hin", "hin/", "./hin", "hi\x00n"],
        ids=[
            "empty", "dot", "dot-dot", "parent-dir", "subdir", "trailing-slash", "dot-slash", "nul",
        ],
    )
    def test_language_that_is_not_a_plain_stem_is_rejected(self, tmp_path, language):
        path = tmp_path / "store"
        with CorpusStore(path, "rw") as writer:
            writer.add_sentence("s1", "piyA::v:i", "hin")
            with pytest.raises(CorpusError, match="language .* rejected"):
                writer.add_sentence("s2", "piyA::v:i", language)
            assert "s2" not in _ids(writer)
        with CorpusStore(path, "r") as reader:
            assert [(r["id"], r["language"]) for r in _records(reader)] == [("s1", "hin")]
        assert [p.name for p in tmp_path.rglob("*anncorra")] == ["hin.anncorra"]

    def test_language_with_dots_and_spaces_reads_back(self, tmp_path):
        path = tmp_path / "store"
        with CorpusStore(path, "rw") as writer:
            writer.add_sentence("s1", "piyA::v:i", "hin.v2 a")
        with CorpusStore(path, "r") as reader:
            assert [(r["id"], r["language"]) for r in _records(reader)] == [("s1", "hin.v2 a")]

    def test_id_starting_with_hash_reads_back(self, tmp_path):
        # "# #s2" names the sentence "#s2": only the marker's '#' is dropped
        path = tmp_path / "store"
        with CorpusStore(path, "rw") as writer:
            writer.add_sentence("#s2", "piyA::v:i", "hin")
        with CorpusStore(path, "r") as reader:
            assert [r["id"] for r in _records(reader)] == ["#s2"]


class TestPersistence:
    def test_reopen_sees_added_sentences(self, tmp_path, explicit_line):
        path = tmp_path / "store"
        with CorpusStore(path, "rw") as writer:
            writer.add_sentence("s1", explicit_line, "hin")
        with CorpusStore(path, "r") as reader:
            assert reader.stats().sentences == 1
            [record] = _records(reader)
            assert (record["id"], record["language"], record["raw"]) == ("s1", "hin", explicit_line)

    def test_languages_go_to_separate_files(self, tmp_path, explicit_line):
        path = tmp_path / "store"
        with CorpusStore(path, "rw") as writer:
            writer.add_sentence("h1", explicit_line, "hin")
            writer.add_sentence("t1", "vaccAdu::v:i", "tel")
        assert (path / "hin.anncorra").exists()
        assert (path / "tel.anncorra").exists()

    def test_a_new_language_is_listed_in_file_name_order(self, tmp_path, explicit_line):
        path = tmp_path / "store"
        with CorpusStore(path, "rw") as writer:
            writer.add_sentence("u1", explicit_line, "urd")
        with CorpusStore(path, "rw") as writer:
            writer.add_sentence("u2", explicit_line, "urd")
            writer.add_sentence("h1", explicit_line, "hin")
            # "a-b.anncorra" sorts before "a.anncorra", though "a" sorts before "a-b"
            writer.add_sentence("a-b1", "phala/k2 KAyA::v:i", "a-b")
            writer.add_sentence("a1", explicit_line, "a")
            written = [writer.export(f) for f in ("linear", "interchange")]
            written.append(writer.query_by_relation("k1"))
            written_stats = writer.stats()
        with CorpusStore(path, "r") as reader:
            read = [reader.export(f) for f in ("linear", "interchange")]
            read.append(reader.query_by_relation("k1"))
            assert [r["id"] for r in _records(reader)] == ["a-b1", "a1", "h1", "u1", "u2"]
            assert list(reader.stats().relation_counts.items()) == list(
                written_stats.relation_counts.items()
            )
        assert written == read

    def test_tagset_override_is_picked_up(self, tmp_path):
        path = tmp_path / "store"
        path.mkdir()
        (path / "tagset.cfg").write_text("k4\trelation\tnonverbal\trecipient\n")
        with CorpusStore(path, "rw") as writer:
            diags = []
            writer.add_sentence("s1", "rAjA_ko/k4 piyA::v:i", "hin", diagnostics=diags)
            assert [d for d in diags if d.severity >= Severity.WARNING] == []

    def test_lock_blocks_second_writer(self, tmp_path):
        path = tmp_path / "store"
        with CorpusStore(path, "rw"):
            with pytest.raises(StoreLockedError):
                CorpusStore(path, "rw")
        # lock released on close
        with CorpusStore(path, "rw"):
            pass

    def test_lock_file_where_flock_is_missing(self, tmp_path, monkeypatch):
        monkeypatch.setitem(sys.modules, "fcntl", None)  # import fcntl now fails
        path = tmp_path / "store"
        with CorpusStore(path, "rw"):
            assert (path / ".lock").read_text() == str(os.getpid())
            with pytest.raises(StoreLockedError, match="exists"):
                CorpusStore(path, "rw")
        assert not (path / ".lock").exists()

    def test_readers_ignore_lock(self, tmp_path, explicit_line):
        path = tmp_path / "store"
        with CorpusStore(path, "rw") as writer:
            writer.add_sentence("s1", explicit_line, "hin")
            with CorpusStore(path, "r") as reader:
                assert reader.stats().sentences == 1

    def test_an_added_auto_id_and_a_line_appended_without_one_collision_free(
        self, capsys, tmp_path
    ):
        # `corpus add` writes `# und-1` for an id-less sentence; a line appended by hand
        # without `# id` reads as `und-2`, past the ids of the records before it, so every
        # corpus command goes on reading the store, with its sidecar and without it.
        path, source = tmp_path / "store", tmp_path / "one.anncorra"
        source.write_text("x/k1 y::v\n")
        assert run(["corpus", "add", str(source), "--store", str(path)]) == 0
        assert capsys.readouterr().out == "und-1\n"
        with open(path / "und.anncorra", "a") as fh:
            fh.write("z/k2 w::v\n")
        records = "# und-1\nx/k1 y::v\n# und-2\nz/k2 w::v\n"
        for sidecar, added in ((True, "und-3"), (False, "und-4")):
            if not sidecar:
                (path / "und.anncorra.idx").unlink()
            assert run(["corpus", "stats", "--store", str(path)]) == 0, sidecar
            assert json.loads(capsys.readouterr().out)["sentences"] == records.count("# ")
            assert run(["corpus", "export", "--store", str(path)]) == 0, sidecar
            assert capsys.readouterr() == (records, "")
            assert run(["corpus", "add", str(source), "--store", str(path)]) == 0, sidecar
            assert capsys.readouterr() == (f"{added}\n", "")
            records += f"# {added}\nx/k1 y::v\n"

    def test_a_reader_opened_before_an_add_exports_what_it_saw_at_open(self, capsys, tmp_path):
        path = tmp_path / "store"
        assert _cli_add(capsys, path, f"# s1\n{POOL[0]}\n{POOL[1]}\n")[0] == 0
        for sidecar in (True, False):
            if not sidecar:
                (path / "hin.anncorra.idx").unlink()
            with CorpusStore(path) as early, CorpusStore(path) as reference:
                seen = reference.export(), reference.export("interchange")
                assert _cli_add(capsys, path, f"{POOL[2]}\n")[0] == 0
                assert (early.export(), early.export("interchange")) == seen
            with CorpusStore(path) as late:
                assert late.export().startswith(seen[0])
                assert late.stats().sentences == len(_records(early)) + 1

    @pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "no-sidecar"])
    @pytest.mark.parametrize("edit", ["cut-back", "same-length"])
    def test_a_reader_export_names_the_data_file_changed_since_open(
        self, capsys, tmp_path, edit, sidecar
    ):
        path = tmp_path / "store"
        assert _cli_add(capsys, path, f"# s1\n{POOL[0]}\n# s2\n{POOL[1]}\n")[0] == 0
        data = path / "hin.anncorra"
        if not sidecar:
            (path / "hin.anncorra.idx").unlink()
        raw = data.read_bytes()
        changed = {
            "cut-back": raw[: raw.index(b"# s2\n")],  # the first record alone
            "same-length": raw.replace(b"raama", b"Raama"),
        }[edit]
        assert changed != raw
        with CorpusStore(path) as reader:
            data.write_bytes(changed)
            for format in ("linear", "interchange"):
                with pytest.raises(CorpusError) as caught:
                    reader.export(format)
                assert str(caught.value) == f"{data} changed since the store was opened"


class TestQuery:
    def test_query_k2(self, store, explicit_line):
        store.add_sentence("s1", explicit_line, "hin")
        hits, diags = store.query_by_relation("k2")
        assert diags == []
        assert hits == [("s1", 1), ("s1", 3)]

    def test_query_known_tag_without_hits(self, store, explicit_line):
        store.add_sentence("s1", explicit_line, "hin")
        hits, diags = store.query_by_relation("k3")
        assert hits == [] and diags == []

    def test_query_unknown_tag_warns(self, store):
        hits, diags = store.query_by_relation("zz")
        assert hits == []
        assert len(diags) == 1 and diags[0].severity == Severity.WARNING

    def test_query_empty_store(self, store):
        assert store.query_by_relation("k2") == ([], [])


class TestStats:
    def test_single_sentence_counts(self, store, explicit_line):
        store.add_sentence("s1", explicit_line, "hin")
        stats = store.stats()
        assert stats.sentences == 1
        assert stats.relation_counts == {"k1": 1, "k2": 2, "kr": 1}
        assert stats.node_counts == {"v": 1}
        assert stats.average_depth == 2.0

    def test_empty_store(self, store):
        stats = store.stats()
        assert stats.sentences == 0
        assert stats.relation_counts == {}
        assert stats.node_counts == {}
        assert stats.average_depth == 0.0

    def test_depth_is_the_longest_walk_to_the_root(self, store):
        rng = random.Random(5)
        expected = []
        for k in range(60):
            tree = random_tree(rng, n=rng.randint(1, 12))
            store.add_sentence(f"t{k}", emit_explicit(tree), "hin")
            walks = []
            for node in tree.nodes:
                steps = 0
                while node.parent is not None:
                    node, steps = tree.nodes[node.parent], steps + 1
                walks.append(steps)
            expected.append(max(walks))
        assert store.stats().average_depth == sum(expected) / len(expected)

    def test_two_copies_double_the_counts(self, store, explicit_line):
        store.add_sentence("s1", explicit_line, "hin")
        one = store.stats()
        store.add_sentence("s2", explicit_line, "hin")
        two = store.stats()
        assert two.sentences == 2
        assert two.relation_counts == {tag: 2 * n for tag, n in one.relation_counts.items()}
        assert two.node_counts == {tag: 2 * n for tag, n in one.node_counts.items()}


class TestExport:
    def test_linear_single_record(self, store, explicit_line):
        store.add_sentence("s1", explicit_line, "hin")
        lines = store.export("linear").splitlines()
        assert lines == ["# s1", explicit_line]

    def test_empty_store_exports_nothing(self, store):
        assert store.export("linear") == ""
        assert "records" in store.export("interchange")

    def test_interchange_contains_root_surface(self, store, explicit_line):
        store.add_sentence("s1", explicit_line, "hin")
        doc = store.export("interchange")
        assert '"surface": "piyA"' in doc

    def test_linear_round_trips_through_fresh_store(
        self, tmp_path, store, explicit_line, defaulted_line
    ):
        store.add_sentence("s1", explicit_line, "hin")
        store.add_sentence("s2", defaulted_line, "hin")
        exported = store.export("linear")
        with CorpusStore(tmp_path / "fresh", "rw") as fresh:
            pending = None
            for line in exported.splitlines():
                if line.startswith("#"):
                    pending = line.lstrip("#").strip()
                else:
                    fresh.add_sentence(pending, line, "hin")
            assert fresh.stats() == store.stats()
            assert _without_source(fresh) == _without_source(store)


def _without_source(store):
    return [{key: value for key, value in r.items() if key != "source"} for r in _records(store)]


def _interchange_reference(store, languages=None):
    """json.dumps of the export document of a store, its trees parsed from
    the lines of the linear export. ``languages`` names the language of each
    record in export order; every record is ``hin`` when it is None."""
    lines = store.export("linear").split("\n")[:-1]
    if languages is None:
        languages = ["hin"] * (len(lines) // 2)
    assert len(languages) == len(lines) // 2
    records = [
        {
            "id": sentence_id[2:],
            "language": language,
            "source": str(store.path / f"{language}.anncorra"),
            "raw": raw,
            "tree": to_interchange(parse_sentence(raw, store.registry)[0]),
        }
        for language, sentence_id, raw in zip(languages, lines[::2], lines[1::2])
    ]
    doc = {"format": "anncorra-corpus", "records": records}
    return json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


class TestInterchangeBytes:
    """The directly written export against json.dumps of the same document."""

    def test_empty_store(self, store):
        assert store.export("interchange") == _interchange_reference(store)

    def test_data_files_without_records(self, tmp_path):
        path = tmp_path / "store"
        path.mkdir()
        (path / "hin.anncorra").write_text("# only a comment\n", encoding="utf-8")
        (path / "urd.anncorra").write_text("", encoding="utf-8")
        with CorpusStore(path) as store:
            assert store.export("interchange") == _interchange_reference(store)

    def test_two_languages_in_file_name_order(self, tmp_path):
        # the records of each data file follow each other, files in name order,
        # with an empty data file between them
        path = tmp_path / "store"
        with CorpusStore(path, "rw") as writer:
            for k, line in enumerate([POOL[0], POOL[5], POOL[1]]):
                writer.add_sentence(f"h{k}", line, "hin")
            (path / "pan.anncorra").write_text("", encoding="utf-8")
            for k, line in enumerate(POOL[2:4]):
                writer.add_sentence(f"u{k}", line, "urd")
            languages = ["hin"] * 3 + ["urd"] * 2
            written = writer.export("interchange")
            assert written == _interchange_reference(writer, languages)
        with CorpusStore(path) as reader:  # from the sidecars
            assert [r["id"] for r in _records(reader)] == ["h0", "h1", "h2", "u0", "u1"]
            assert reader.export("interchange") == written
        for sidecar in _sidecars(path):
            (path / sidecar).unlink()
        with CorpusStore(path) as reader:  # parsed
            assert reader.export("interchange") == written

    def test_random_trees_with_and_without_groups(self, tmp_path):
        rng = random.Random(11)
        path = tmp_path / "store"
        with CorpusStore(path, "rw") as writer:
            for k in range(60):
                n = rng.randint(1, 9)
                tree = random_tree(rng, n=n)
                if k % 2:
                    start = rng.randrange(n)
                    stop = rng.randint(start + 1, n)
                    groups = [Group(start, stop, "s")]
                    if stop - start > 1:
                        groups.append(Group(start + 1, stop, "k1"))
                    tree = tree._replace(groups=groups)
                writer.add_sentence(f"t{k}", emit_explicit(tree), "hin")
            assert any(r["tree"]["groups"] for r in _records(writer))
            assert any(not r["tree"]["groups"] for r in _records(writer))
            written = writer.export("interchange")
            assert written == _interchange_reference(writer)
        with CorpusStore(path, "r") as reader:
            assert reader.export("interchange") == written

    def test_strings_that_need_escaping(self, tmp_path):
        odd = ['"', "\\", "\x00", "\x01", "\x1b", "\x7f", "\U0001f600", "\u00e9", "\ud7ff"]
        # the source is the data file path, so the store directory carries
        # the characters a source can hold
        with CorpusStore(tmp_path / 'store"\\\u2028\n', "rw") as store:
            for k, text in enumerate(odd):
                line = f"a{text}b/k1 {text}::v:i"
                store.add_sentence(f"s{k}{text}", line, "hin")
            store.add_sentence("plain", "piyA::v", "hin")
            assert store.export("interchange") == _interchange_reference(store)


# ---------------------------------------------------------------- sidecar


POOL = [
    "raama/k1 gayA::v",
    "rAma_ne/k1 phala/k2 piyA::v",
    "siitaa/k2 dekhA::v",
    "rAma_ne/k1->i phala/k2->j kATakara/kr:j->i pAnI/k2->i piyA::v:i",
    "a/k1 b/k3 c/k4 d::vH",
    "[x/k1 y::v]<s> z/k2",
]
READS = [
    ["corpus", "query", "k2"],
    ["corpus", "query", "k1"],
    ["corpus", "query", "zz"],
    ["corpus", "stats"],
    ["corpus", "export", "--format", "linear"],
    ["corpus", "export", "--format", "interchange"],
]


def _sidecars(path):
    return {p.name: p.read_bytes() for p in sorted(Path(path).glob("*.idx"))}


def _cli_reads(capsys, path, *flags):
    """Every read command's (exit code, stdout, stderr) on the store."""
    outputs = []
    for argv in READS:
        code = run([*argv, "--store", str(path), *flags])
        captured = capsys.readouterr()
        outputs.append((code, captured.out, captured.err))
    return outputs


def _cli_add(capsys, path, text, *flags):
    source = Path(path).parent / "add.anncorra"
    source.write_text(text, encoding="utf-8")
    code = run(["corpus", "add", str(source), "--store", str(path), "--lang", "hin", *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _count_parses(monkeypatch):
    calls = []
    original = corpus_store_module.parse_sentence

    def counting(line, registry):
        calls.append(line)
        return original(line, registry)

    monkeypatch.setattr(corpus_store_module, "parse_sentence", counting)
    return calls


def _json_lines(items):
    """JSON lines as the store writes them."""
    encode = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
    return "".join(encode(item) + "\n" for item in items).encode()


def _blocks(path):
    """The header and the row, tree and checkpoint blocks of a sidecar."""
    head, _, body = path.read_bytes().partition(b"\n")
    header = json.loads(head)
    marks_at = len(body) - header["marks"]
    trees_at = marks_at - header["trees"]
    return header, body[:trees_at], body[trees_at:marks_at], body[marks_at:]


def _store_sidecar(path, header, rows, trees, marks, fresh_crc=True):
    """Write a sidecar of these blocks, with their lengths in ``header``
    and, with ``fresh_crc``, their crc32."""
    header["trees"], header["marks"] = len(trees), len(marks)
    if fresh_crc:
        header["crc"] = zlib.crc32(rows + trees + marks)
    path.write_bytes(json.dumps(header).encode() + b"\n" + rows + trees + marks)


def _rewrite_sidecar(path, edit=None, block=None, fresh_crc=True):
    """Apply ``edit(header, rows, trees)``, then ``block`` to the bytes of
    the tree block, to a sidecar and store it with fresh block lengths and,
    with ``fresh_crc``, checksum, so that only the edit (or the stale
    checksum) can make it unusable. The checkpoint block is kept as it is."""
    header, row_block, tree_block, marks = _blocks(path)
    rows = [json.loads(line) for line in row_block.splitlines()]
    trees = [json.loads(line) for line in tree_block.splitlines()]
    if edit is not None:
        edit(header, rows, trees)
    rows, trees = _json_lines(rows), _json_lines(trees)
    # the store's own encoding
    assert edit is not None or rows + trees == row_block + tree_block
    if block is not None:
        trees = block(trees)
    _store_sidecar(path, header, rows, trees, marks, fresh_crc)


def _rewrite_checkpoints(path, edit=None, block=None, fresh_crc=True):
    """Apply ``edit(points)``, then ``block`` to the bytes of the checkpoint
    block, to a sidecar and store it with fresh block lengths and, with
    ``fresh_crc``, checksum."""
    header, rows, trees, marks = _blocks(path)
    points = [json.loads(line) for line in marks.splitlines()]
    if edit is not None:
        edit(points)
    marks = _json_lines(points)
    if block is not None:
        marks = block(marks)
    _store_sidecar(path, header, rows, trees, marks, fresh_crc)


# Damage to the row block. POOL[1] is "rAma_ne/k1 phala/k2 piyA::v": its
# row holds relations "k1 k2 -" and nodes "- - v".
def _wrong_shape(header, rows, trees):
    rows[1][1] += " k1"  # one more relation field than node fields


def _node_field_missing(header, rows, trees):
    rows[1][2] = "- v"  # one node field fewer than relation fields


def _row_not_a_list(header, rows, trees):
    rows[0] = {"id": rows[0][0]}


def _row_too_long(header, rows, trees):
    rows[0].append(0)


def _row_a_number(header, rows, trees):
    rows[0] = 7


def _tag_not_a_string(header, rows, trees):
    rows[2][2] = 7


def _tags_a_list(header, rows, trees):
    rows[1][1] = rows[1][1].split(" ")  # a tag column as version 5 wrote it


def _leading_space(header, rows, trees):
    rows[1][1] = " k2 -"  # an empty first field, as many fields as nodes


def _trailing_space(header, rows, trees):
    rows[1][1] = "k1 k2 "


def _doubled_space(header, rows, trees):
    rows[1][2] = "-  v"


def _other_version(header, rows, trees):
    header["version"] += 1


def _missing_key(header, rows, trees):
    del header["tagset"]


def _row_count(header, rows, trees):
    del rows[-1]


def _duplicate_row(header, rows, trees):
    rows[1][0] = rows[0][0]


def _old_layout(path, version):
    """Rewrite a sidecar in the layout of an older version: version 3 kept a
    crc32 per block and the last checkpoint in its header, version 2 had no
    checkpoint block, version 1 no tree block either."""
    header, rows, trees, marks = _blocks(path)
    covered, crc, lines, auto = json.loads(marks.splitlines()[-1])
    old = dict(
        version=version, covered=covered, crc=crc, tagset=header["tagset"], auto=auto,
        lines=lines, rows=rows.count(b"\n"), rows_crc=zlib.crc32(rows),
        trees=len(trees), trees_crc=zlib.crc32(trees), marks=len(marks), marks_crc=zlib.crc32(marks),
    )
    if version < 3:
        del old["marks"], old["marks_crc"]
        marks = b""
    if version < 2:
        del old["trees"], old["trees_crc"]
        trees = b""
    path.write_bytes(json.dumps(old).encode() + b"\n" + rows + trees + marks)


# Damage to the tree block that its checksum would catch, as the edit or
# the block function of _rewrite_sidecar. POOL[1] is
# "rAma_ne/k1 phala/k2 piyA::v", rooted at "piyA"; POOL[5] has one group.
def _parents_too_long(header, rows, trees):
    trees[1][1].append(2)


def _no_root(header, rows, trees):
    trees[1][1][2] = 0


def _two_roots(header, rows, trees):
    trees[1][1][0] = None


def _parent_out_of_range(header, rows, trees):
    trees[1][1][0] = 3


def _parent_not_an_int(header, rows, trees):
    trees[1][1][0] = "2"


def _group_past_the_end(header, rows, trees):
    trees[5][2][0][1] = 4


def _surface_not_a_string(header, rows, trees):
    trees[1][0] = 7


def _surfaces_a_list(header, rows, trees):
    trees[1][0] = trees[1][0].split(" ")  # surfaces as version 5 wrote them


def _surface_field_count(header, rows, trees):
    trees[1][0] += " x"  # four surface fields, three parents


def _node_more_than_the_row(header, rows, trees):
    trees[1][0] += " x"  # four surfaces and parents, three fields in the row
    trees[1][1].append(2)


def _empty_surface(header, rows, trees):
    trees[1][0] = "rAma_ne  piyA"  # three fields, the second empty


TREE_DAMAGE = {
    "cut-block": (None, lambda block: block[: len(block) // 2]),
    "block-cut-after-a-line": (None, lambda block: block[: block.index(b"\n") + 1]),
    "flipped-byte": (None, lambda block: block.replace(b"[[", b"{[", 1)),
    "parents-too-long": (_parents_too_long, None),
    "no-root": (_no_root, None),
    "two-roots": (_two_roots, None),
    "parent-out-of-range": (_parent_out_of_range, None),
    "parent-not-an-int": (_parent_not_an_int, None),
    "group-past-the-end": (_group_past_the_end, None),
    "surface-not-a-string": (_surface_not_a_string, None),
    "surfaces-a-list": (_surfaces_a_list, None),
    "surface-field-count": (_surface_field_count, None),
    "node-more-than-the-row": (_node_more_than_the_row, None),
    "empty-surface": (_empty_surface, None),
}


class TestSidecar:
    """CLI reads give the same bytes whatever state the sidecar is in."""

    @pytest.fixture()
    def store_dir(self, capsys, tmp_path):
        path = tmp_path / "store"
        text = "".join(f"# s{k}\n{line}\n" for k, line in enumerate(POOL * 2))
        assert _cli_add(capsys, path, text)[0] == 0
        assert list(_sidecars(path)) == ["hin.anncorra.idx"]
        return path

    def _same_as_without_sidecar(self, capsys, path, *flags):
        sidecar = path / "hin.anncorra.idx"
        kept = sidecar.read_bytes()
        sidecar.unlink()
        expected = _cli_reads(capsys, path, *flags)
        assert _sidecars(path) == {}  # readers never create one
        sidecar.write_bytes(kept)
        assert _cli_reads(capsys, path, *flags) == expected
        assert _sidecars(path) == {"hin.anncorra.idx": kept}  # nor change one
        return expected

    def test_fresh_sidecar_spares_every_parse(self, capsys, store_dir, monkeypatch):
        calls = _count_parses(monkeypatch)
        self._same_as_without_sidecar(capsys, store_dir)
        # without the sidecar: 6 reads parse all 12; with it, none parses
        assert len(calls) == 6 * 12

    def test_hand_appended_records(self, capsys, store_dir, monkeypatch):
        with (store_dir / "hin.anncorra").open("a", encoding="utf-8") as fh:
            fh.write("raama/k1 gayA::v\n\n# t1 note\nsiitaa/k2 dekhA::v\n# dangling\n")
        calls = _count_parses(monkeypatch)
        expected = self._same_as_without_sidecar(capsys, store_dir)
        assert "hin-1\t0" in expected[1][1] and "t1\t0" in expected[0][1]
        assert len(calls) == 6 * 14 + 6 * 2  # the tail is parsed on every open

    def test_a_failed_sidecar_replace_leaves_neither_sidecar(self, capsys, store_dir, monkeypatch):
        def refuse(*args):
            raise OSError("replace refused")

        with monkeypatch.context() as patch:
            patch.setattr(corpus_store_module.os, "replace", refuse)
            assert _cli_add(capsys, store_dir, "# late\nraama/k1 gayA::v\n")[0] == 0
        assert list(store_dir.glob("*.idx*")) == []  # neither the temp file nor the old sidecar
        assert _cli_add(capsys, store_dir, "# later\nsiitaa/k2 dekhA::v\n")[0] == 0
        expected = self._same_as_without_sidecar(capsys, store_dir)
        assert "# late\n" in expected[4][1] and "# later\n" in expected[4][1]

    def test_restored_shorter(self, capsys, store_dir):
        data = store_dir / "hin.anncorra"
        kept = data.read_bytes()
        assert _cli_add(capsys, store_dir, "# late\nraama/k1 gayA::v\n")[0] == 0
        data.write_bytes(kept)
        self._same_as_without_sidecar(capsys, store_dir)

    def test_same_length_edit_in_the_middle(self, capsys, store_dir):
        data = store_dir / "hin.anncorra"
        text = data.read_text(encoding="utf-8")
        at = text.index("siitaa/k2")
        data.write_text(text[:at] + "siitaa/k1" + text[at + 9 :], encoding="utf-8")
        expected = self._same_as_without_sidecar(capsys, store_dir)
        assert "s2\t0" in expected[1][1]

    @pytest.mark.parametrize(
        "damage",
        [
            lambda p: p.write_bytes(p.read_bytes()[: len(p.read_bytes()) // 2]),
            lambda p: p.write_bytes(p.read_bytes()[:-1]),
            lambda p: p.write_bytes(b"{not json\n" + p.read_bytes().partition(b"\n")[2]),
            lambda p: p.write_bytes(b'["a header", 1]\n' + p.read_bytes().partition(b"\n")[2]),
            # the first "k2" is a tag of the row of POOL[1]
            lambda p: p.write_bytes(p.read_bytes().replace(b"k2", b"k3", 1)),
            lambda p: p.write_bytes(
                p.read_bytes().replace(b'"version": %d' % SIDECAR_VERSION, b'"version": "3"', 1)
            ),
            lambda p: p.write_bytes(b"\xff\xfe" + p.read_bytes()),
            lambda p: p.write_bytes(b""),
            lambda p: _rewrite_sidecar(p, _wrong_shape),
            lambda p: _rewrite_sidecar(p, _row_not_a_list),
            lambda p: _rewrite_sidecar(p, _row_too_long),
            lambda p: _rewrite_sidecar(p, _row_a_number),
            lambda p: _rewrite_sidecar(p, _tag_not_a_string),
            lambda p: _rewrite_sidecar(p, _node_field_missing),
            lambda p: _rewrite_sidecar(p, _tags_a_list),
            lambda p: _rewrite_sidecar(p, _leading_space),
            lambda p: _rewrite_sidecar(p, _trailing_space),
            lambda p: _rewrite_sidecar(p, _doubled_space),
            lambda p: _rewrite_sidecar(p, _other_version),
            lambda p: _rewrite_sidecar(p, _missing_key),
            lambda p: _rewrite_sidecar(p, _row_count),
            lambda p: _rewrite_sidecar(p, _duplicate_row),
        ],
        ids=[
            "half", "last-byte", "bad-json", "header-not-object", "flipped-tag", "string-version",
            "not-utf8", "empty", "wrong-shape", "row-not-list", "row-too-long", "row-a-number",
            "tag-not-string", "node-field-missing", "tags-a-list", "leading-space",
            "trailing-space", "doubled-space", "other-version",
            "missing-key", "row-count", "duplicate-row",
        ],
    )
    def test_damaged_sidecar_is_ignored(self, capsys, store_dir, damage, monkeypatch):
        damage(store_dir / "hin.anncorra.idx")
        calls = _count_parses(monkeypatch)
        self._same_as_without_sidecar(capsys, store_dir)
        assert len(calls) == 2 * 6 * 12  # every read parsed everything

    @pytest.mark.parametrize("damage", TREE_DAMAGE.values(), ids=list(TREE_DAMAGE))
    def test_damaged_tree_block_is_ignored(self, capsys, store_dir, damage, monkeypatch):
        _rewrite_sidecar(store_dir / "hin.anncorra.idx", *damage, fresh_crc=False)
        calls = _count_parses(monkeypatch)
        self._same_as_without_sidecar(capsys, store_dir)
        assert len(calls) == 2 * 6 * 12  # every read parsed everything

    @pytest.mark.parametrize("damage", TREE_DAMAGE.values(), ids=list(TREE_DAMAGE))
    def test_tree_block_of_the_wrong_shape_fails_the_export_cleanly(
        self, capsys, store_dir, damage, monkeypatch
    ):
        sidecar, data = store_dir / "hin.anncorra.idx", store_dir / "hin.anncorra"
        kept = sidecar.read_bytes()
        sidecar.unlink()
        expected = _cli_reads(capsys, store_dir)
        sidecar.write_bytes(kept)
        _rewrite_sidecar(sidecar, *damage)
        calls = _count_parses(monkeypatch)
        seen = _cli_reads(capsys, store_dir)
        assert calls == []  # the checksums hold, so every read used the sidecar
        # query, stats and the linear export never decode the tree block
        assert seen[:5] == expected[:5]
        assert seen[5] == (3, "", f"error: {sidecar} does not describe {data}\n")
        with CorpusStore(store_dir) as reader:
            with pytest.raises(CorpusError, match="does not describe"):
                reader.export("interchange")

    def test_version_1_sidecar_is_ignored_and_replaced(self, capsys, store_dir, monkeypatch):
        self._older_sidecar_is_ignored_and_replaced(capsys, store_dir, 1, monkeypatch)

    def test_version_2_sidecar_is_ignored_and_replaced(self, capsys, store_dir, monkeypatch):
        self._older_sidecar_is_ignored_and_replaced(capsys, store_dir, 2, monkeypatch)

    def test_version_3_sidecar_is_ignored_and_replaced(self, capsys, store_dir, monkeypatch):
        # after an upgrade, every open parses each data file whole until a writer
        self._older_sidecar_is_ignored_and_replaced(capsys, store_dir, 3, monkeypatch)

    def _older_sidecar_is_ignored_and_replaced(self, capsys, store_dir, version, monkeypatch):
        sidecar = store_dir / "hin.anncorra.idx"
        _old_layout(sidecar, version)
        calls = _count_parses(monkeypatch)
        self._same_as_without_sidecar(capsys, store_dir)
        assert len(calls) == 2 * 6 * 12  # every read parsed everything
        assert _cli_add(capsys, store_dir, "")[0] == 0
        assert json.loads(sidecar.read_bytes().partition(b"\n")[0])["version"] == SIDECAR_VERSION
        calls.clear()
        self._same_as_without_sidecar(capsys, store_dir)
        assert len(calls) == 6 * 12  # only the reads without the sidecar parse

    def test_damaged_sidecar_is_replaced_by_the_next_writer(self, capsys, store_dir, monkeypatch):
        (store_dir / "hin.anncorra.idx").write_bytes(b"garbage")
        assert _cli_add(capsys, store_dir, "# late\nraama/k1 gayA::v\n")[0] == 0
        calls = _count_parses(monkeypatch)
        _cli_reads(capsys, store_dir)
        assert calls == []  # no read parses, the exports included

    def test_sidecar_naming_other_ids_fails_the_export_cleanly(self, capsys, store_dir):
        def rename(header, rows, trees):
            rows[0][0] = "renamed"

        _rewrite_sidecar(store_dir / "hin.anncorra.idx", rename)
        code, out, err = _cli_reads(capsys, store_dir)[4]
        assert (code, out) == (3, "")
        sidecar, data = store_dir / "hin.anncorra.idx", store_dir / "hin.anncorra"
        assert err == f"error: {sidecar} does not describe {data}\n"

    def test_sidecar_naming_other_ids_is_rebuilt_by_the_next_writer(
        self, capsys, store_dir, monkeypatch
    ):
        def rename(header, rows, trees):
            rows[0][0] = "renamed"

        _rewrite_sidecar(store_dir / "hin.anncorra.idx", rename)
        assert _cli_add(capsys, store_dir, "# late\nraama/k1 gayA::v\n")[0] == 0
        calls = _count_parses(monkeypatch)
        seen = self._same_as_without_sidecar(capsys, store_dir)
        assert len(calls) == 6 * 13  # only the reads without the sidecar parse
        assert [code for code, _, _ in seen] == [0] * 6
        assert "s0\t0" in seen[1][1] and "renamed" not in "".join(out for _, out, _ in seen)

    def test_id_held_by_another_data_file(self, capsys, store_dir, tmp_path):
        other = tmp_path / "other"
        with CorpusStore(other, "rw") as writer:
            writer.add_sentence("s3", "raama/k1 gayA::v", "tel")
        for name in ("tel.anncorra", "tel.anncorra.idx"):
            shutil.copyfile(other / name, store_dir / name)
        sidecar = store_dir / "tel.anncorra.idx"
        kept = sidecar.read_bytes()
        sidecar.unlink()
        expected = _cli_reads(capsys, store_dir)
        code, _, err = expected[3]
        assert code == 3 and "tel.anncorra:2: duplicate sentence id 's3'" in err
        sidecar.write_bytes(kept)
        assert _cli_reads(capsys, store_dir) == expected

    def test_prefix_ending_in_a_carriage_return(self, capsys, tmp_path):
        path = tmp_path / "store"
        path.mkdir()
        data = path / "hin.anncorra"
        data.write_bytes(b"# s1\rraama/k1 gayA::v\r")
        assert _cli_add(capsys, path, "")[0] == 0
        assert list(_sidecars(path)) == ["hin.anncorra.idx"]
        with data.open("ab") as fh:  # "\r" and "\n" now make one line break
            fh.write(b"\nsiitaa/k2 dekhA::v\nsiitaa/k1 ga")
        expected = self._same_as_without_sidecar(capsys, path)
        assert f"{data}:4: torn last record skipped" in expected[3][2]

    def test_sidecar_of_another_tagset(self, capsys, tmp_path):
        path = tmp_path / "store"
        tagset = tmp_path / "k4.cfg"
        tagset.write_text("K4\trelation\tnonverbal\trecipient\n")
        text = "".join(f"# s{k}\n{line}\n" for k, line in enumerate(POOL))
        assert _cli_add(capsys, path, text, "--tagset", str(tagset))[0] == 0
        with_k4 = self._same_as_without_sidecar(capsys, path, "--tagset", str(tagset))
        without = self._same_as_without_sidecar(capsys, path)
        assert '"K4": 1' in with_k4[3][1] and '"K4"' not in without[3][1]
        # a store's own tagset.cfg is the same registry as --tagset
        shutil.copyfile(tagset, path / "tagset.cfg")
        assert self._same_as_without_sidecar(capsys, path) == with_k4

    def test_append_to_a_large_store_parses_only_the_new_sentences(self, tmp_path, monkeypatch):
        path = tmp_path / "store"
        path.mkdir()
        lines = [f"w{k}/k1 x/k2 y::v" for k in range(20_000)]
        (path / "hin.anncorra").write_text(
            "".join(f"# s{k}\n{line}\n" for k, line in enumerate(lines)), encoding="utf-8"
        )
        with CorpusStore(path, "rw"):  # the first writer parses everything once
            pass
        calls = _count_parses(monkeypatch)
        with CorpusStore(path, "rw") as writer:
            for k in range(20):
                writer.add_sentence(f"new{k}", f"n{k}/k2 z::v", "hin")
        assert len(calls) == 20
        with CorpusStore(path) as reader:
            assert reader.stats().sentences == 20_020
            assert len(reader.query_by_relation("k2")[0]) == 20_020
            assert reader.export("linear").count("\n") == 2 * 20_020
            assert reader.export("interchange").count('"raw": ') == 20_020
        assert len(calls) == 20  # neither the reads nor the exports parsed

    def test_rows_are_those_of_the_parsed_trees(self, tmp_path):
        path = tmp_path / "store"
        with CorpusStore(path, "rw") as writer:
            for k, line in enumerate(POOL):
                writer.add_sentence(f"s{k}", line, "hin")
            expected = writer.stats(), writer.query_by_relation("k2")
        with CorpusStore(path) as reader:
            assert (reader.stats(), reader.query_by_relation("k2")) == expected
            # trees come back on demand, in store order, equal to parsed ones
            assert [r["raw"] for r in _records(reader)] == POOL
            assert reader.export("interchange") == _interchange_reference(reader)
            assert _records(reader)[5]["tree"]["groups"]

    def _reads_parse(self, capsys, path, monkeypatch):
        """The sentences each read parses with the sidecar in place, once the
        reads have been found to print what they print without it."""
        calls = _count_parses(monkeypatch)
        _cli_reads(capsys, path)
        parsed = len(calls)
        self._same_as_without_sidecar(capsys, path)
        return parsed / len(READS)

    def _next_writer_rebuilds_it(
        self, capsys, path, monkeypatch, text="# late\nraama/k1 gayA::v\n"
    ):
        """The next ``corpus add`` of ``text`` parses only what no checkpoint
        kept and its sentences, and writes the sidecar a writer with none would."""
        plain = path.parent / "plain"
        plain.mkdir()
        shutil.copyfile(path / "hin.anncorra", plain / "hin.anncorra")
        calls = _count_parses(monkeypatch)
        assert _cli_add(capsys, path, text)[0] == 0
        parsed = len(calls)
        assert _cli_add(capsys, plain, text)[0] == 0
        assert _sidecars(path) == _sidecars(plain)
        assert self._reads_parse(capsys, path, monkeypatch) == 0
        return parsed

    @pytest.mark.parametrize(
        "damage, uncut",
        [
            # a block that fails the crc32 makes the sidecar cover nothing
            (lambda p: _rewrite_checkpoints(p, None, lambda b: b.replace(b"[", b"{", 1), False), 12),
            # the line count of the eighth checkpoint, the one a cut to it
            # would keep, against a stale crc32
            (
                lambda p: _rewrite_checkpoints(
                    p, lambda points: points[7].__setitem__(2, 1), fresh_crc=False
                ),
                12,
            ),
            # an uncut open decodes the last checkpoint alone
            (lambda p: _rewrite_checkpoints(p, lambda points: points[3].__setitem__(1, "7")), 0),
            (lambda p: _rewrite_checkpoints(p, lambda points: points[3].append(0)), 0),
            # fewer checkpoints than rows
            (lambda p: _rewrite_checkpoints(p, lambda points: points.pop(3)), 12),
            (lambda p: _rewrite_checkpoints(p, None, lambda b: b"[1,2,3,4]"), 12),
            (lambda p: _rewrite_checkpoints(p, None, lambda b: b"\xff" + b), 0),
        ],
        ids=["flipped-byte", "stale-crc", "crc-not-an-int", "too-long", "one-missing",
             "not-json-lines", "not-utf8"],
    )
    def test_damaged_checkpoint_block_keeps_nothing_of_a_cut_file(
        self, capsys, store_dir, damage, uncut, monkeypatch
    ):
        damage(store_dir / "hin.anncorra.idx")
        assert self._reads_parse(capsys, store_dir, monkeypatch) == uncut
        data = store_dir / "hin.anncorra"
        data.write_bytes(data.read_bytes()[: _record_end(data.read_bytes(), 8)])
        assert self._reads_parse(capsys, store_dir, monkeypatch) == 8
        assert self._next_writer_rebuilds_it(capsys, store_dir, monkeypatch) == 9

    def test_checkpoint_damage_only_the_crc32_sees_is_not_carried_forward(
        self, capsys, store_dir, monkeypatch
    ):
        sidecar = store_dir / "hin.anncorra.idx"
        raw = bytearray(sidecar.read_bytes())
        at = len(raw) - len(_blocks(sidecar)[3]) // 2  # inside the checkpoint block
        while not chr(raw[at]).isdigit():
            at += 1
        raw[at] = ord("8" if raw[at] == ord("9") else "9")  # still four ints a line
        sidecar.write_bytes(raw)
        assert self._reads_parse(capsys, store_dir, monkeypatch) == 12
        assert self._next_writer_rebuilds_it(capsys, store_dir, monkeypatch) == 13

    def test_tree_block_of_too_few_lines_keeps_nothing_of_a_cut_file(
        self, capsys, store_dir, monkeypatch
    ):
        _rewrite_sidecar(store_dir / "hin.anncorra.idx", *TREE_DAMAGE["block-cut-after-a-line"])
        data = store_dir / "hin.anncorra"
        data.write_bytes(data.read_bytes()[: _record_end(data.read_bytes(), 8)])
        assert self._reads_parse(capsys, store_dir, monkeypatch) == 8

    def test_auto_ids_go_on_counting_after_a_cut(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "store"
        path.mkdir()
        data = path / "hin.anncorra"
        data.write_text("".join(f"{line}\n" for line in POOL))  # hin-1 to hin-6
        assert _cli_add(capsys, path, "")[0] == 0
        raw = data.read_bytes()
        data.write_bytes(raw[: raw.index(POOL[3].encode())] + b"siitaa/k2 dekhA::v\n")
        assert self._reads_parse(capsys, path, monkeypatch) == 1  # hin-4 only
        assert self._next_writer_rebuilds_it(capsys, path, monkeypatch) == 2

    def test_restore_of_an_earlier_copy_keeps_its_rows(self, capsys, store_dir, monkeypatch):
        data = store_dir / "hin.anncorra"
        kept = data.read_bytes()
        later = "".join(f"# late{k}\n{line}\n" for k, line in enumerate(POOL))
        assert _cli_add(capsys, store_dir, later)[0] == 0
        data.write_bytes(kept)  # the data file alone, restored from a copy
        assert self._reads_parse(capsys, store_dir, monkeypatch) == 0
        # a writer that adds nothing still writes the sidecar of the kept rows
        assert self._next_writer_rebuilds_it(capsys, store_dir, monkeypatch, "") == 0
        calls = _count_parses(monkeypatch)
        batch = "".join(f"# new{k}\n{POOL[k % len(POOL)]}\n" for k in range(20))
        code, out, _err = _cli_add(capsys, store_dir, batch)
        assert (code, out.split()) == (0, [f"new{k}" for k in range(20)])
        assert len(calls) == 20
        assert self._reads_parse(capsys, store_dir, monkeypatch) == 0

    @pytest.mark.parametrize(
        "cut, parsed",
        [
            # the sentence line of the eighth record, s7, loses its last bytes
            (lambda data: data[: _record_end(data, 8) - 5], 1),
            (lambda data: data[: _record_end(data, 7) + 3], 0),  # inside "# s7"
            (lambda data: data[:10], 1),  # inside the first record's line
            # cut back to s7, then "siitaa/k2" of s2 made "siitaa/k1"
            (lambda data: data[: _record_end(data, 8)].replace(b"a/k2 d", b"a/k1 d", 1), 6),
        ],
        ids=["mid-record", "mid-id-line", "below-the-first-record", "edit-after-the-cut"],
    )
    def test_cut_back_keeps_the_records_before_it(
        self, capsys, store_dir, cut, parsed, monkeypatch
    ):
        data = store_dir / "hin.anncorra"
        data.write_bytes(cut(data.read_bytes()))
        assert self._reads_parse(capsys, store_dir, monkeypatch) == parsed
        assert self._next_writer_rebuilds_it(capsys, store_dir, monkeypatch) == parsed + 1

    @pytest.mark.parametrize(
        "newline, cut, parsed",
        [
            # "\r\n" line ends, cut between the two halves of the fourth
            # record's: s3 is parsed again
            (b"\r\n", lambda data: data[: _record_end(data, 4, b"\r\n") - 1], 1),
            # "\r" line ends, cut back to the end of s2, then a line that
            # starts with "\n": s2's "\r" now starts a "\r\n", so its
            # checkpoint is not kept and s2 is parsed again with the new line
            (b"\r", lambda data: data[: _record_end(data, 3, b"\r")] + b"\nraama/k1 gayA::v\n", 2),
        ],
        ids=["crlf-cut-after-cr", "cr-then-lf"],
    )
    def test_cut_between_cr_and_lf(self, capsys, tmp_path, newline, cut, parsed, monkeypatch):
        path = tmp_path / "store"
        path.mkdir()
        data = path / "hin.anncorra"
        records = (f"# s{k}\n{line}\n" for k, line in enumerate(POOL))
        data.write_bytes("".join(records).encode().replace(b"\n", newline))
        assert _cli_add(capsys, path, "")[0] == 0
        data.write_bytes(cut(data.read_bytes()))
        assert self._reads_parse(capsys, path, monkeypatch) == parsed
        assert self._next_writer_rebuilds_it(capsys, path, monkeypatch) == parsed + 1


def _record_end(data: bytes, count: int, newline: bytes = b"\n") -> int:
    """The byte offset after the first ``count`` records, two lines each."""
    end = 0
    for _ in range(2 * count):
        end = data.index(newline, end) + len(newline)
    return end


_OPS = st.one_of(
    st.tuples(st.just("add"), st.lists(st.sampled_from(POOL), max_size=4)),
    st.tuples(
        st.just("hand"),
        st.lists(st.tuples(st.booleans(), st.sampled_from(POOL + ["# c", "", "  "])), max_size=4),
    ),
    st.tuples(st.just("torn"), st.sampled_from(["siitaa/k1 ga", "raama/k1 gayA::v", "# c"])),
    st.tuples(st.just("drop-sidecar")),
    st.tuples(st.just("cut"), st.floats(0.0, 1.0)),
    # the data file as it was after an earlier step, restored from a copy
    st.tuples(st.just("restore"), st.integers(0, 9)),
)


def _observe(path: Path):
    """What a reader of the store sees, with the store's path taken out."""
    try:
        with CorpusStore(path) as reader:
            seen = (
                [d.render() for d in reader.diagnostics],
                reader.query_by_relation("k1"),
                reader.query_by_relation("k2"),
                reader.stats(),
                # both exports, byte for byte
                reader.export("linear"),
                reader.export("interchange"),
            )
    except CorpusError as exc:
        seen = ("error", str(exc))
    return repr(seen).replace(str(path), "STORE")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_OPS, min_size=1, max_size=10))
# auto ids go on counting after the covered prefix
@example([("hand", [(False, POOL[0])]), ("add", []), ("hand", [(False, POOL[1])])])
# a "# id" line after the last record names the next hand-appended sentence
@example([("add", [POOL[0]]), ("hand", [(True, POOL[1]), (False, "# c")]), ("add", []),
          ("hand", [(False, POOL[2])])])
# line numbers go on counting after the covered prefix, and after lines
# between records that a writer appended below
@example([("hand", [(False, POOL[0]), (False, "")]), ("add", []), ("torn", "siitaa/k1 ga")])
@example(
    [("hand", [(False, POOL[0])]), ("add", []), ("torn", "x/k1 y"), ("hand", [(True, POOL[1])])]
)
@example([("add", [POOL[0]]), ("hand", [(False, "# c")]), ("add", [POOL[1]]), ("torn", "x/k1 y")])
# a restore back to a checkpoint, then a writer that rewrites the sidecar
@example([("add", [POOL[0], POOL[1]]), ("add", [POOL[2]]), ("restore", 0), ("add", [POOL[3]])])
def test_sidecar_never_changes_what_readers_see(ops):
    with tempfile.TemporaryDirectory() as tmp:
        path, plain = Path(tmp) / "store", Path(tmp) / "plain"
        path.mkdir()
        serial = 0
        copies = []  # the data file after each step, None while there is none
        for op in ops:
            data = path / "hin.anncorra"
            if op[0] == "add":
                try:
                    with CorpusStore(path, "rw") as writer:
                        for line in op[1]:
                            serial += 1
                            writer.add_sentence(f"a{serial}", line, "hin")
                except CorpusError:
                    pass  # a hand-made fault the writer cannot repair
            elif op[0] in ("hand", "torn"):
                parts = [op[1]]  # a torn record: a line without its newline
                if op[0] == "hand":
                    parts = []
                    for with_id, line in op[1]:
                        serial += 1
                        parts.append(f"# h{serial}\n{line}\n" if with_id else f"{line}\n")
                with data.open("a", encoding="utf-8") as fh:
                    fh.write("".join(parts))
            elif op[0] == "drop-sidecar":
                (path / "hin.anncorra.idx").unlink(missing_ok=True)
            elif op[0] == "restore":
                copy = copies[op[1] % len(copies)] if copies else None
                if copy is None:
                    data.unlink(missing_ok=True)
                else:
                    data.write_bytes(copy)
            elif data.exists():
                raw = data.read_bytes()
                data.write_bytes(raw[: int(len(raw) * op[1])])
            copies.append(data.read_bytes() if data.exists() else None)
            before = _sidecars(path)
            seen = _observe(path)
            assert _sidecars(path) == before
            shutil.rmtree(plain, ignore_errors=True)
            plain.mkdir()
            if data.exists():
                shutil.copyfile(data, plain / "hin.anncorra")
            assert _observe(plain).replace("plain", "store") == seen.replace(
                "plain", "store"
            )


def _cli(argv):
    """(exit code, stdout, stderr) of one ``leril`` command run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


_ID_SENTENCE = st.tuples(
    st.sampled_from([None, None, "und-1", "und-2", "und-3", "s1"]), st.sampled_from(POOL[:3])
)
_ID_OPS = st.one_of(
    st.tuples(st.just("add"), st.lists(_ID_SENTENCE, min_size=1, max_size=3)),
    st.tuples(st.just("hand"), st.lists(_ID_SENTENCE, min_size=1, max_size=2)),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_ID_OPS, min_size=1, max_size=6))
# an added sentence without an id, then a line appended by hand without one
@example([("add", [(None, POOL[0])]), ("hand", [(None, POOL[1])]), ("add", [(None, POOL[2])])])
# a hand-appended id-less line goes past an id written by hand
@example([("hand", [("und-1", POOL[0]), (None, POOL[1])]), ("add", [(None, POOL[2])])])
def test_sentence_ids_collide_only_where_the_user_wrote_the_duplicate(ops):
    """``corpus add`` of sentences with and without ids interleaved with lines
    appended by hand with and without ``# id``: every read exits 0 or reports
    a duplicate that the user wrote, and the ids are the same across a
    reopen and without the sidecar."""
    with tempfile.TemporaryDirectory() as tmp:
        path, plain, source = Path(tmp) / "store", Path(tmp) / "plain", Path(tmp) / "in.anncorra"
        path.mkdir()
        ids = []  # the store's ids in file order; None for a hand-appended line without one
        for op, sentences in ops:
            text = "".join(f"# {i}\n{line}\n" if i else f"{line}\n" for i, line in sentences)
            written, duplicate = set(), False  # the ids written by hand in this step
            if op == "add":
                source.write_text(text, encoding="utf-8")
                code, out, err = _cli(["corpus", "add", str(source), "--store", str(path)])
                added, refused = iter(out.split()), 0
                for i, _line in sentences:
                    if i in ids:  # the user's duplicate, refused
                        refused += 1
                        continue
                    new = next(added)
                    assert new == i if i is not None else new not in ids
                    ids.append(new)
                assert next(added, None) is None
                assert (code, err.count("duplicate sentence id")) == (2 if refused else 0, refused)
            else:
                with (path / "und.anncorra").open("a", encoding="utf-8") as fh:
                    fh.write(text)
                written = {i for i, _line in sentences} - {None}
                duplicate = not written.isdisjoint(ids)  # an id of an earlier record, by hand
                ids += [i for i, _line in sentences]
            shutil.rmtree(plain, ignore_errors=True)
            plain.mkdir()
            shutil.copyfile(path / "und.anncorra", plain / "und.anncorra")
            stores = (path, path, plain)
            reads = [_cli(["corpus", "export", "--store", str(store)]) for store in stores]
            first, again, without = (str(o).replace(str(at), "S") for o, at in zip(reads, stores))
            assert first == again == without, "ids change across a reopen or without the sidecar"
            code, out, err = reads[0]
            if written and (duplicate or code):
                reported = re.search(r"duplicate sentence id '([^']*)'", err)
                assert (code, out) == (3, "") and reported and reported[1] in written, err
                return  # the store holds the user's duplicate until the user removes it
            assert (code, err) == (0, "")
            seen = [line[2:] for line in out.split("\n") if line.startswith("# ")]
            assert len(seen) == len(set(seen)) == len(ids)
            assert all(i is None or i == s for i, s in zip(ids, seen))
            ids = seen
            code, out, err = _cli(["corpus", "stats", "--store", str(path)])
            assert (code, err, json.loads(out)["sentences"]) == (0, "", len(ids))


# Surfaces with "-" (the sidecar's no-tag field), quotes, backslashes and
# non-ASCII text; tags in other casing than the registry's, an unknown one,
# and a tagset.cfg that adds "K4", renames "k1" to "K1" and makes "-" a tag.
_SURFACE = st.text(alphabet='-"\\\'aé日_.0', min_size=1, max_size=3)
_DEPENDENT = st.tuples(
    _SURFACE,
    st.sampled_from(["k1", "K1", "k2", "k4", "K4", "zz"]),
    st.sampled_from(["", "::yo", "::YO", "::Zq"]),
).map(lambda token: "{}/{}{}".format(*token))
_SENTENCE = st.tuples(
    st.lists(_DEPENDENT, max_size=4),
    _SURFACE,
    st.sampled_from(["v", "V", "vH", "VH"]),
    st.integers(0, 4),
)
_TAGSET = "K4\trelation\tnonverbal\nK1\trelation\tnonverbal\n"
_QUERIED = ("k1", "K1", "k2", "k4", "zz", "-")


def _sentence_line(sentence) -> str:
    dependents, surface, verb, at = sentence
    tokens = list(dependents)
    tokens.insert(at % (len(tokens) + 1), f"{surface}::{verb}")
    return " ".join(tokens)


def _reads(path: Path):
    """Every read of the store, and what they must be, as computed from
    the trees parsed from its linear export."""
    with CorpusStore(path) as reader:
        reference = json.loads(_interchange_reference(reader))["records"]
        nodes = [(r["id"], node) for r in reference for node in r["tree"]["nodes"]]
        expected = {}
        for tag in _QUERIED:
            canonical = reader.registry.canonical_relation(tag)
            hits = [(i, node["position"]) for i, node in nodes if node["rel"] == canonical]
            expected[tag] = hits if canonical is not None else []
        seen = (
            {tag: reader.query_by_relation(tag)[0] for tag in _QUERIED},
            reader.stats(),
            reader.export("linear"),
            reader.export("interchange"),
        )
        assert seen[0] == expected
        assert seen[3] == _interchange_reference(reader)
    counts = [Counter(node[key] for _, node in nodes if node[key]) for key in ("rel", "node")]
    assert (seen[1].relation_counts, seen[1].node_counts) == tuple(map(dict, counts))
    return repr(seen).replace(str(path), "STORE")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_SENTENCE, max_size=6))
@example([])  # an empty store's stats
def test_reads_with_and_without_the_sidecar_agree(sentences):
    with tempfile.TemporaryDirectory() as tmp:
        path, plain = Path(tmp) / "store", Path(tmp) / "plain"
        for store in (path, plain):
            store.mkdir()
            (store / "tagset.cfg").write_text(_TAGSET, encoding="utf-8")
        with CorpusStore(path, "rw") as writer:
            for k, sentence in enumerate(sentences):
                writer.add_sentence(f"s{k}", _sentence_line(sentence), "hin")
        if sentences:
            shutil.copyfile(path / "hin.anncorra", plain / "hin.anncorra")
            assert list(_sidecars(path)) == ["hin.anncorra.idx"]
        parsed = []
        original = corpus_store_module.parse_sentence
        with mock.patch.object(
            corpus_store_module, "parse_sentence", lambda *a: parsed.append(a) or original(*a)
        ):
            seen = _reads(path)
            assert parsed == []  # every read used the sidecar
            assert _reads(plain) == seen
        assert len(parsed) == len(sentences)


# ---------------------------------------------------------------- tree block check


def _reference_is_tree(row, tree) -> bool:
    """The tree block's check of one tree, written per tree: the reference
    of the column checks."""
    if type(tree) is not list or list(map(type, tree)) != [str, list, list]:
        return False
    (surfaces, parents, groups), n = tree, len(tree[1])
    return (
        surfaces.count(" ") + 1 == n == row[1].count(" ") + 1
        and parents.count(None) == 1
        and all(parent is None or type(parent) is int and 0 <= parent < n for parent in parents)
        and all(type(group) is list and len(group) == 3 for group in groups)
        and all(
            type(start) is type(stop) is int and type(tag) is str and 0 <= start < stop <= n
            for start, stop, tag in groups
        )
    )


def _reference_no_empty_field(column) -> bool:
    text = "\n".join(["", *column, ""])
    return not ("\n\n" in text or "\n " in text or " \n" in text or "  " in text)


_FIELDS = ["", " ", "a", "a b", "a  b", " a", "a ", "\n", "a\n", "\na"]


@given(st.lists(st.sampled_from(_FIELDS), max_size=6))
def test_empty_field_check_rejects_what_the_reference_rejects(column):
    accepted = corpus_store_module._no_empty_field(column)
    if not _reference_no_empty_field(column):
        assert not accepted
    if not any("\n" in field for field in column):
        assert accepted == _reference_no_empty_field(column)


def _a_group(tree):
    """The last group of ``tree``, one added when it has none."""
    if not tree[2]:
        tree[2].append([0, 1, "s"])
    return tree[2][-1]


def _a_parent(draw, tree, value):
    tree[1][draw(st.integers(0, len(tree[1]) - 1))] = value


def _a_field_emptied(draw, tree):
    fields = tree[0].split(" ")
    fields[draw(st.integers(0, len(fields) - 1))] = ""
    tree[0] = " ".join(fields)


# Each changes a drawn tree or its row in place and returns None, or returns
# what the tree block holds instead of the tree.
TREE_MUTATIONS = {
    "surface-a-number": lambda draw, row, tree: [7, *tree[1:]],
    "parents-a-string": lambda draw, row, tree: [tree[0], "0", tree[2]],
    "groups-an-object": lambda draw, row, tree: [tree[0], tree[1], {}],
    "tree-an-object": lambda draw, row, tree: {"surface": tree[0]},
    "tree-of-two": lambda draw, row, tree: tree[:2],
    "tree-of-four": lambda draw, row, tree: [*tree, []],
    "parent-bool": lambda draw, row, tree: _a_parent(draw, tree, draw(st.booleans())),
    "parent-float": lambda draw, row, tree: _a_parent(draw, tree, float(draw(st.integers(0, 1)))),
    "parent-string": lambda draw, row, tree: _a_parent(draw, tree, "0"),
    "parent-n": lambda draw, row, tree: _a_parent(draw, tree, len(tree[1])),
    "parent-minus-one": lambda draw, row, tree: _a_parent(draw, tree, -1),
    "no-root": lambda draw, row, tree: tree[1].__setitem__(tree[1].index(None), 0),
    "another-root": lambda draw, row, tree: _a_parent(draw, tree, None),
    "group-bound-bool": lambda draw, row, tree: _a_group(tree).__setitem__(
        draw(st.integers(0, 1)), draw(st.booleans())
    ),
    "group-bound-float": lambda draw, row, tree: _a_group(tree).__setitem__(
        draw(st.integers(0, 1)), float(draw(st.integers(0, 2)))
    ),
    "group-tag-a-number": lambda draw, row, tree: _a_group(tree).__setitem__(2, 1),
    "group-of-two": lambda draw, row, tree: _a_group(tree).__delitem__(2),
    "group-of-four": lambda draw, row, tree: _a_group(tree).append("s"),
    "group-a-string": lambda draw, row, tree: tree[2].append("0 1 s"),
    "group-start-at-stop": lambda draw, row, tree: _a_group(tree).__setitem__(0, tree[2][-1][1]),
    "group-start-negative": lambda draw, row, tree: _a_group(tree).__setitem__(0, -1),
    "group-stop-past-n": lambda draw, row, tree: _a_group(tree).__setitem__(1, len(tree[1]) + 1),
    "row-one-field-more": lambda draw, row, tree: row.__setitem__(1, row[1] + " k1"),
    "surfaces-one-field-more": lambda draw, row, tree: tree.__setitem__(0, tree[0] + " a"),
    "parents-one-more": lambda draw, row, tree: tree[1].append(0),
    "surface-field-empty": lambda draw, row, tree: _a_field_emptied(draw, tree),
}


@st.composite
def _tree_block(draw, mutation):
    """Rows and the trees of a tree block, valid but for ``mutation`` of one tree."""
    rows, trees = [], []
    for k in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 5))
        root = draw(st.integers(0, n - 1))
        parents = [None if i == root else draw(st.integers(0, n - 1)) for i in range(n)]
        groups = []
        for _ in range(draw(st.integers(0, 2))):
            start = draw(st.integers(0, n - 1))
            groups.append([start, draw(st.integers(start + 1, n)), draw(st.sampled_from("sv"))])
        surfaces = " ".join(draw(st.lists(st.sampled_from(["a", "bb", "-"]), min_size=n, max_size=n)))
        rows.append([f"s{k}", " ".join(["k1"] * n), " ".join(["-"] * n), 0])
        trees.append([surfaces, parents, groups])
    if mutation is not None:
        k = draw(st.integers(0, len(trees) - 1))
        changed = TREE_MUTATIONS[mutation](draw, rows[k], trees[k])
        if changed is not None:
            trees[k] = changed
    return rows, trees


@pytest.mark.parametrize("mutation", [None, *TREE_MUTATIONS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_tree_block_check_agrees_with_the_per_tree_reference(mutation, data):
    rows, trees = data.draw(_tree_block(mutation))
    f = corpus_store_module._DataFile(Path("hin.anncorra"), "hin")
    f.rows = rows
    # the block as a sidecar loads it, then one piece per tree indexed since
    lines = [(json.dumps(tree) + "\n").encode("utf-8") for tree in trees]
    f.blocks[1].extend([memoryview(b"".join(lines[:-1])), lines[-1]])
    decoded = json.loads("[" + ",".join(map(json.dumps, trees)) + "]")
    accepted = all(map(_reference_is_tree, rows, decoded)) and _reference_no_empty_field(
        [tree[0] for tree in decoded]
    )
    if mutation is None:
        assert accepted
    if accepted:
        assert corpus_store_module._trees(f) == decoded
    else:
        with pytest.raises(CorpusError, match="does not describe"):
            corpus_store_module._trees(f)


# ---------------------------------------------------------------- torn tail


NEWLINE = b"\n"


class TestTornTail:
    def test_failed_append_leaves_no_torn_record(self, tmp_path, monkeypatch):
        path = tmp_path / "store"
        real_write = os.write

        def short_write(fd, payload):
            if payload.startswith(b"# s2\n"):
                return real_write(fd, payload[:7])
            return real_write(fd, payload)

        with CorpusStore(path, "rw") as writer:
            writer.add_sentence("s1", "raama/k1 gayA::v", "hin")
            monkeypatch.setattr(corpus_store_module.os, "write", short_write)
            with pytest.raises(OSError, match="short write"):
                writer.add_sentence("s2", "siitaa/k1 gayA::v", "hin")
            monkeypatch.undo()
            assert "s2" not in _ids(writer)
            writer.add_sentence("s3", "siitaa/k2 dekhA::v", "hin")
        assert (path / "hin.anncorra").read_text() == (
            "# s1\nraama/k1 gayA::v\n# s3\nsiitaa/k2 dekhA::v\n"
        )
        with CorpusStore(path) as reader:
            assert [r["id"] for r in _records(reader)] == ["s1", "s3"]

    def _store(self, tmp_path, text: bytes):
        path = tmp_path / "store"
        path.mkdir()
        (path / "hin.anncorra").write_bytes(text)
        return path

    def test_unterminated_record_gets_its_newline_from_the_writer(self, capsys, tmp_path):
        path = self._store(tmp_path, b"# s1\nrAma_ne/k1 piyA::v\n# s2\nraama/k1 gayA::v")
        assert _cli_reads(capsys, path)[1][:2] == (0, "s1\t0\ns2\t0\n")
        assert _cli_add(capsys, path, "# s3\nsiitaa/k1 gayA::v\n") == (0, "s3\n", "")
        assert (path / "hin.anncorra").read_bytes().endswith(
            b"raama/k1 gayA::v\n# s3\nsiitaa/k1 gayA::v\n"
        )
        code, out, err = _cli_reads(capsys, path)[1]
        assert (code, out, err) == (0, "s1\t0\ns2\t0\ns3\t0\n", "")

    def test_unterminated_comment_gets_its_newline_too(self, capsys, tmp_path):
        path = self._store(tmp_path, b"# s1\nraama/k1 gayA::v\n# s2")
        assert _cli_add(capsys, path, "# s3\nsiitaa/k1 gayA::v\n")[0] == 0
        assert _cli_reads(capsys, path)[1][1] == "s1\t0\ns3\t0\n"

    @pytest.mark.parametrize(
        "torn",
        [b"# s2\nsiitaa/k1 ga", b"siitaa/k1 g\xc3", b"# s1\nraama/k1 gayA::v"],
        ids=["unparsable", "cut-utf8", "duplicate-id"],
    )
    def test_torn_last_record(self, capsys, tmp_path, torn):
        good = b"# s1\nraama/k1 gayA::v\n"
        path = self._store(tmp_path, good + torn)
        data = f"{path / 'hin.anncorra'}:{3 + torn.count(NEWLINE)}"
        code, out, err = _cli_reads(capsys, path)[3]
        assert code == 0 and json.loads(out)["sentences"] == 1
        assert err.startswith(f"warning: {data}: torn last record skipped: ")
        assert err.count("\n") == 1
        assert run(["corpus", "stats", "--store", str(path), "--strict"]) == 1
        capsys.readouterr()
        assert (path / "hin.anncorra").read_bytes() == good + torn  # readers leave it

        code, out, err = _cli_add(capsys, path, "# s3\nsiitaa/k1 gayA::v\n")
        assert (code, out) == (0, "s3\n")
        assert err.startswith(f"warning: {data}: torn last record removed: ")
        remains = good + torn[: torn.rfind(b"\n") + 1]
        assert (path / "hin.anncorra").read_bytes() == remains + b"# s3\nsiitaa/k1 gayA::v\n"
        assert _cli_reads(capsys, path)[1] == (0, "s1\t0\ns3\t0\n", "")

    def test_bad_complete_line_still_fails_the_open(self, capsys, tmp_path):
        path = self._store(tmp_path, b"# s1\nsiitaa/k1 ga\n# s2\nraama/k1 gayA::v\n")
        code, _, err = _cli_reads(capsys, path)[3]
        assert code == 3 and f"{path / 'hin.anncorra'}:2: sentence 's1' rejected" in err

    def test_invalid_utf8_inside_the_file_is_an_error_not_a_traceback(self, capsys, tmp_path):
        path = self._store(tmp_path, b"# s1\nraama/k1 g\xffyA::v\n# s2\nraama/k1 gayA::v\n")
        code, _, err = _cli_reads(capsys, path)[3]
        assert code == 3 and "not UTF-8 text at byte 15" in err


# ---------------------------------------------------------------- lock

_HOLDER = """
import sys, time
from leril.corpus_store import CorpusStore
store = CorpusStore(sys.argv[1], "rw")
print("locked", flush=True)
time.sleep(60)
"""


@pytest.mark.skipif(importlib.util.find_spec("fcntl") is None, reason="needs flock")
class TestLock:
    @contextlib.contextmanager
    def _holder(self, path):
        """A writer in a child process, holding the store's lock."""
        src = Path(corpus_store_module.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        with subprocess.Popen(
            [sys.executable, "-c", _HOLDER, str(path)], stdout=subprocess.PIPE, env=env, text=True
        ) as child:
            try:
                assert child.stdout.readline() == "locked\n"
                yield child
            finally:
                child.kill()
                child.wait(timeout=30)

    def test_live_holder_blocks_the_next_writer(self, capsys, tmp_path):
        path = tmp_path / "store"
        with self._holder(path) as child:
            code, out, err = _cli_add(capsys, path, "raama/k1 gayA::v\n")
            assert (code, out) == (3, "")
            assert f"locked by another writer (pid {child.pid}," in err

    def test_writer_killed_while_holding_the_lock_blocks_nobody(self, capsys, tmp_path):
        path = tmp_path / "store"
        with self._holder(path) as child:
            os.kill(child.pid, signal.SIGKILL)
            assert child.wait(timeout=30) == -signal.SIGKILL
        assert (path / ".lock").read_text() == str(child.pid)
        assert _cli_add(capsys, path, "raama/k1 gayA::v\n") == (0, "hin-1\n", "")
