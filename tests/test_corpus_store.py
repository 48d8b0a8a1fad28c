import json
import random

import pytest
from treegen import random_tree

from leril.anncorra import Group, emit_explicit, to_interchange
from leril.corpus_store import CorpusError, CorpusStore, StoreLockedError
from leril.diagnostics import Severity


@pytest.fixture()
def store(tmp_path):
    with CorpusStore(tmp_path / "store", "rw") as s:
        yield s


class TestAdd:
    def test_add_explicit_sentence(self, store, explicit_line):
        record = store.add_sentence("s1", explicit_line, "hin")
        assert len(record.tree.nodes) == 5
        assert store.get("s1").raw == explicit_line

    def test_duplicate_id_rejected(self, store, explicit_line):
        store.add_sentence("s1", explicit_line, "hin")
        with pytest.raises(CorpusError, match="duplicate"):
            store.add_sentence("s1", explicit_line, "hin")

    def test_defaulted_form_stores_isomorphic_tree(
        self, store, explicit_line, defaulted_line
    ):
        first = store.add_sentence("s1", explicit_line, "hin")
        second = store.add_sentence("s2", defaulted_line, "hin")
        assert first.tree == second.tree

    def test_unparseable_line_rejected_with_diagnostics(self, store):
        with pytest.raises(CorpusError) as exc:
            store.add_sentence("bad", "a/k1->q piyA::v:i", "hin")
        assert exc.value.diagnostics
        assert any(d.severity == Severity.ERROR for d in exc.value.diagnostics)
        assert "bad" not in store

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
            "rAma_ne/k1\x0cpiyA::v:i",
            "rAma_ne/k1\u2028piyA::v:i",
        ],
        ids=["comment", "leading-space", "trailing-space", "newline", "form-feed", "u2028"],
    )
    def test_line_that_would_not_read_back_is_rejected(self, tmp_path, line):
        path = tmp_path / "store"
        with CorpusStore(path, "rw") as writer:
            writer.add_sentence("s1", "piyA::v:i", "hin")
            with pytest.raises(CorpusError, match="line would not read back"):
                writer.add_sentence("s2", line, "hin")
            assert "s2" not in writer
        with CorpusStore(path, "r") as reader:
            assert [(r.id, r.raw) for r in reader.records()] == [("s1", "piyA::v:i")]

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
            assert sentence_id not in writer
        with CorpusStore(path, "r") as reader:
            assert [r.id for r in reader.records()] == ["s1"]


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
            assert "s2" not in writer
        with CorpusStore(path, "r") as reader:
            assert [(r.id, r.language) for r in reader.records()] == [("s1", "hin")]
        assert [p.name for p in tmp_path.rglob("*anncorra")] == ["hin.anncorra"]

    def test_language_with_dots_and_spaces_reads_back(self, tmp_path):
        path = tmp_path / "store"
        with CorpusStore(path, "rw") as writer:
            writer.add_sentence("s1", "piyA::v:i", "hin.v2 a")
        with CorpusStore(path, "r") as reader:
            assert [(r.id, r.language) for r in reader.records()] == [("s1", "hin.v2 a")]

    def test_id_starting_with_hash_reads_back(self, tmp_path):
        # "# #s2" names the sentence "#s2": only the marker's '#' is dropped
        path = tmp_path / "store"
        with CorpusStore(path, "rw") as writer:
            writer.add_sentence("#s2", "piyA::v:i", "hin")
        with CorpusStore(path, "r") as reader:
            assert [r.id for r in reader.records()] == ["#s2"]


class TestPersistence:
    def test_reopen_sees_added_sentences(self, tmp_path, explicit_line):
        path = tmp_path / "store"
        with CorpusStore(path, "rw") as writer:
            writer.add_sentence("s1", explicit_line, "hin")
        with CorpusStore(path, "r") as reader:
            assert len(reader) == 1
            assert reader.get("s1").language == "hin"
            assert reader.get("s1").raw == explicit_line

    def test_languages_go_to_separate_files(self, tmp_path, explicit_line):
        path = tmp_path / "store"
        with CorpusStore(path, "rw") as writer:
            writer.add_sentence("h1", explicit_line, "hin")
            writer.add_sentence("t1", "vaccAdu::v:i", "tel")
        assert (path / "hin.anncorra").exists()
        assert (path / "tel.anncorra").exists()

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

    def test_readers_ignore_lock(self, tmp_path, explicit_line):
        path = tmp_path / "store"
        with CorpusStore(path, "rw") as writer:
            writer.add_sentence("s1", explicit_line, "hin")
            with CorpusStore(path, "r") as reader:
                assert len(reader) == 1


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
            for record in store.records():
                assert fresh.get(record.id).tree == record.tree


def _interchange_reference(store):
    doc = {
        "format": "anncorra-corpus",
        "records": [
            {
                "id": record.id,
                "language": record.language,
                "source": record.source,
                "raw": record.raw,
                "tree": to_interchange(record.tree),
            }
            for record in store.records()
        ],
    }
    return json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


class TestInterchangeBytes:
    """The directly written export against json.dumps of the same document."""

    def test_empty_store(self, store):
        assert store.export("interchange") == _interchange_reference(store)

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
                    tree.groups = [Group(start, stop, "s")]
                    if stop - start > 1:
                        tree.groups.append(Group(start + 1, stop, "k1"))
                writer.add_sentence(f"t{k}", emit_explicit(tree), "hin")
            assert any(r.tree.groups for r in writer.records())
            assert any(not r.tree.groups for r in writer.records())
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
