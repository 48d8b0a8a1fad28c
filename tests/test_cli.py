import contextlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from treegen import random_tree, to_interchange

import leril
from leril import cli
from leril.anncorra import Group, default_registry, emit_explicit, parse_sentence
from leril.cli import run
from leril.corpus_store import CorpusStore
from leril.shabdasutra import parse_thread_file

GO_DICT = "tests/fixtures/go.dict"
GO_TLG = "tests/fixtures/go.tlg"
SENTENCES = "tests/fixtures/sentences.anncorra"
ROOT = Path(__file__).resolve().parents[1]
_BIG_MEANING_TLG = (
    'HEADWORD::"go","V"\nMEANING::{n}::"jAnA"\nMEANING::2::"calanA"\n'
    "FRAME_E:: A goes to B\nFRAME_I:: A B [ko] jAtA hai\n"
)


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDict:
    def test_parse_interchange(self, capsys):
        code, out, err = _run(capsys, "dict", "parse", GO_DICT, "--format", "interchange")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["entries"][0]["senses"]) == 7

    def test_emit_round_trip_is_byte_stable(self, capsys):
        code, first, _ = _run(capsys, "dict", "emit", GO_DICT)
        assert code == 0
        code, second, _ = _run(capsys, "dict", "emit", GO_DICT)
        assert first == second

    def test_lookup(self, capsys):
        code, out, _ = _run(capsys, "dict", "lookup", GO_DICT, "go", "--pos", "V")
        assert code == 0
        assert out.startswith('"go", "V",')

    def test_lookup_prints_both_duplicate_entries(self, capsys, tmp_path):
        path = tmp_path / "dup.dict"
        path.write_text('"go", "V",\n--"1.jAnA"\nI go.\n\n"go", "V",\n--"1.calanA"\nGo on.\n')
        code, out, err = _run(capsys, "dict", "lookup", str(path), "go")
        assert code == 0
        assert out == '"go", "V",\n--"1.jAnA"\nI go.\n\n"go", "V",\n--"1.calanA"\nGo on.\n'
        assert err == "warning: duplicate entry for 'go' (V); both entries kept (line 5)\n"

    def test_filter_with_wordlist(self, capsys):
        code, out, _ = _run(
            capsys, "dict", "filter", GO_DICT, "--wordlist", "tests/fixtures/wordlist.txt"
        )
        assert code == 0
        assert '"go", "V",' in out


class TestTlg:
    def test_parse(self, capsys):
        code, out, _ = _run(capsys, "tlg", "parse", GO_TLG)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["records"][0]["meanings"]) == 2

    def test_validate_clean(self, capsys):
        code, out, err = _run(capsys, "tlg", "validate", GO_TLG)
        assert code == 0
        assert out == ""

    def test_validate_missing_tr_nat_exits_2(self, capsys, tmp_path):
        broken = tmp_path / "broken.tlg"
        broken.write_text('HEADWORD::"go","V"\nMEANING::1::"jAnA"\nENG_EXP:: I go.\n')
        code, out, err = _run(capsys, "tlg", "validate", str(broken))
        assert code == 2
        assert "TR_NAT" in err

    def test_validate_reports_a_record_without_meanings_once(self, capsys, tmp_path):
        path = tmp_path / "no-meanings.tlg"
        path.write_text('HEADWORD::"go","V"\n' + (ROOT / GO_TLG).read_text(encoding="utf-8"))
        code, out, err = _run(capsys, "tlg", "validate", str(path))
        assert (code, out, err) == (0, "", "warning: record 'go' has no meanings (line 1)\n")

    def test_validate_strict_warnings_exit_1(self, capsys):
        # the empty TR_ENG-INFLNC lines in the fixture warn under strict
        code, _, err = _run(capsys, "tlg", "validate", GO_TLG, "--strict")
        assert code == 1
        assert "TR_ENG-INFLNC" in err

    def test_seed_emits_skeleton(self, capsys):
        code, out, _ = _run(capsys, "tlg", "seed", "--dict", GO_DICT, "--headword", "go")
        assert code == 0
        assert out.startswith('HEADWORD::"go","V"')
        assert 'MEANING::7::"nikala~jAnA"' in out

    def test_seed_of_an_unknown_headword(self, capsys):
        code, out, err = _run(capsys, "tlg", "seed", "--dict", GO_DICT, "--headword", "nope")
        assert (code, out, err) == (2, "", "error: headword 'nope' not found\n")

    def test_corpus_tsv(self, capsys):
        code, out, _ = _run(capsys, "tlg", "corpus", GO_TLG)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].split("\t") == [
            "I go to school.",
            "maiM skUla jAtA hUM.",
            "go",
            "1",
        ]


class TestAnnCorra:
    def test_parse_emits_interchange(self, capsys):
        code, out, _ = _run(capsys, "anncorra", "parse", SENTENCES)
        assert code == 0
        doc = json.loads(out)
        assert [s["id"] for s in doc["sentences"]] == ["s1", "s2"]

    def test_check_clean(self, capsys):
        code, out, _ = _run(capsys, "anncorra", "check", SENTENCES)
        assert code == 0
        assert out == ""

    def test_convert_minimize_reproduces_defaulted_line(
        self, capsys, tmp_path, explicit_line, defaulted_line
    ):
        src = tmp_path / "s.txt"
        src.write_text(explicit_line + "\n")
        code, out, _ = _run(capsys, "anncorra", "convert", "--minimize", str(src))
        assert code == 0
        assert out.strip() == defaulted_line

    def test_convert_explicit_keeps_comments(self, capsys, tmp_path, defaulted_line):
        src = tmp_path / "s.txt"
        src.write_text("# s2\n" + defaulted_line + "\n")
        code, out, _ = _run(capsys, "anncorra", "convert", "--explicit", str(src))
        assert code == 0
        assert out.splitlines()[0] == "# s2"
        assert "->" in out.splitlines()[1]

    @pytest.mark.parametrize("mode", ["--explicit", "--minimize"])
    def test_convert_writes_an_unparsable_line_back(self, capsys, tmp_path, mode):
        src = tmp_path / "s.txt"
        src.write_text("# s1\nrAma_ne/k1 piyA::v\n# s2\n a/k1->q piyA::v:i\n# s3\npiyA::v\n")
        code, out, err = _run(capsys, "anncorra", "convert", mode, str(src))
        assert code == 2
        assert err == "error: undefined index label 'q' (line 4)\n"
        first = "rAma_ne/k1->i piyA::v:i" if mode == "--explicit" else "rAma_ne/k1 piyA::v:i"
        assert out.split("\n") == [
            "# s1", first, "# s2", " a/k1->q piyA::v:i", "# s3", "piyA::v:i", ""
        ]

    def test_tagset_flag(self, capsys, tmp_path):
        src = tmp_path / "s.txt"
        src.write_text("rAjA_ko/k4 piyA::v:i\n")
        code, _, err = _run(
            capsys, "anncorra", "check", str(src), "--tagset", "tests/fixtures/tagset_k4.cfg"
        )
        assert code == 0
        assert "unknown" not in err

    def test_tagset_env_var(self, capsys, tmp_path, monkeypatch):
        src = tmp_path / "s.txt"
        src.write_text("rAjA_ko/k4 piyA::v:i\n")
        monkeypatch.setenv("LERIL_TAGSET", "tests/fixtures/tagset_k4.cfg")
        code, _, err = _run(capsys, "anncorra", "check", str(src))
        assert code == 0
        assert "unknown" not in err

    def test_a_token_that_refers_to_itself(self, capsys, tmp_path):
        src = tmp_path / "s.txt"
        src.write_text("a/k1:i->i piyA::v\n")
        code, out, err = _run(capsys, "anncorra", "check", str(src))
        assert (code, out, err) == (2, "", "error: token 'a' refers to itself (line 1)\n")

    def test_parse_error_exits_2_with_line(self, capsys, tmp_path):
        src = tmp_path / "s.txt"
        src.write_text("piyA::v:i\nx/k1->\n")
        code, _, err = _run(capsys, "anncorra", "check", str(src))
        assert code == 2
        assert "line 2" in err


class TestSutra:
    def test_parse_formula(self, capsys):
        code, out, _ = _run(capsys, "sutra", "parse-formula", "tests/fixtures/issue.formula")
        assert code == 0
        doc = json.loads(out)
        assert doc["formulas"][0]["head"] == "viSaya"
        assert doc["formulas"][0]["derivation"]["turn_count"] == 2

    def test_parse_thread(self, capsys):
        code, out, _ = _run(capsys, "sutra", "parse-thread", "tests/fixtures/issue.thread")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["threads"][0]["stages"]) == 3

    def test_check_without_alias_warns(self, capsys):
        code, _, err = _run(
            capsys,
            "sutra",
            "check",
            "tests/fixtures/issue.formula",
            "tests/fixtures/issue.thread",
            "--strict",
        )
        assert code == 1
        assert "viSaya" in err

    def test_check_of_more_formulas_than_threads(self, capsys, tmp_path):
        formulas = tmp_path / "two.formula"
        formulas.write_text("viSaya[~~ < a]\n\nb[~ < c]\n")
        code, out, err = _run(
            capsys, "sutra", "check", str(formulas), "tests/fixtures/issue.thread"
        )
        assert (code, out, err) == (2, "", "error: cannot pair 2 formulas with 1 threads\n")

    def test_check_with_alias_is_clean(self, capsys):
        code, _, err = _run(
            capsys,
            "sutra",
            "check",
            "tests/fixtures/issue.formula",
            "tests/fixtures/issue.thread",
            "--alias",
            "tests/fixtures/aliases.tsv",
            "--strict",
        )
        assert code == 0


class TestTransfer:
    def test_meaning_1(self, capsys):
        code, out, err = _run(
            capsys, "transfer", "--lexicon", GO_TLG, "I go to school."
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "I school ko jAtA hai"
        assert "A\tI" in lines and "B\tschool" in lines
        assert "meaning 1" in err

    def test_meaning_2(self, capsys):
        code, out, _ = _run(
            capsys, "transfer", "--lexicon", GO_TLG, "These clothes go into that suitcase."
        )
        assert out.splitlines()[0] == "These clothes that suitcase meM rakhA_jAtA_hai"

    def test_bracket_policy(self, capsys):
        code, out, _ = _run(
            capsys,
            "transfer",
            "--lexicon",
            GO_TLG,
            "--optional",
            "bracket",
            "I go to school.",
        )
        assert out.splitlines()[0] == "I school [ko] jAtA hai"

    def test_no_match_is_clean_exit(self, capsys):
        code, out, err = _run(capsys, "transfer", "--lexicon", GO_TLG, "The sky is blue.")
        assert code == 0
        assert out == ""
        assert "no frame matched" in err

    def test_sense_filter(self, capsys):
        code, out, _ = _run(
            capsys,
            "transfer",
            "--lexicon",
            GO_TLG,
            "--headword",
            "go",
            "--sense",
            "2",
            "I go to school.",
        )
        assert code == 0
        assert out == ""  # meaning 2's anchors do not match

    def test_sense_requires_headword(self, capsys):
        code, _, err = _run(capsys, "transfer", "--lexicon", GO_TLG, "--sense", "1", "x")
        assert code == 3

    def test_literal_frames_without_lexicon(self, capsys):
        code, out, _ = _run(
            capsys,
            "transfer",
            "--frame-e",
            "A goes to B",
            "--frame-i",
            "A B [ko] jAtA hai",
            "I go to school.",
        )
        assert code == 0
        assert out.splitlines()[0] == "I school ko jAtA hai"

    def test_half_literal_frame_is_usage_error(self, capsys):
        code, _, _ = _run(capsys, "transfer", "--frame-e", "A goes", "x")
        assert code == 3

    def test_no_frames_at_all_is_usage_error(self, capsys):
        code, _, _ = _run(capsys, "transfer", "I go to school.")
        assert code == 3

    def test_gloss_slots_annotates_known_headwords(self, capsys, tmp_path):
        lexicon = tmp_path / "lex.tlg"
        lexicon.write_text(
            'HEADWORD::"go","V"\n'
            'MEANING::1::"jAnA"\n'
            "ENG_EXP:: I go to school.\n"
            "TR_NAT:: maiM skUla jAtA hUM.\n"
            "FRAME_E:: A goes to B\n"
            "FRAME_I:: A B [ko] jAtA hai\n"
            "\n"
            'HEADWORD::"school","N"\n'
            'MEANING::1::"pAThaSAlA"\n'
            "ENG_EXP:: The school is open.\n"
        )
        code, out, _ = _run(
            capsys,
            "transfer",
            "--lexicon",
            str(lexicon),
            "--headword",
            "go",
            "--gloss-slots",
            "I go to school.",
        )
        assert code == 0
        assert out.splitlines()[0] == "I school{=pAThaSAlA} ko jAtA hai"

    def test_unbound_target_slot_warns_and_keeps_other_matches(self, capsys, tmp_path):
        lexicon = tmp_path / "lex.tlg"
        lexicon.write_text(
            'HEADWORD::"go","V"\n'
            'MEANING::1::"jAnA"\n'
            "FRAME_E:: A goes to B\n"
            "FRAME_I:: A B C hai\n"
            "\n"
            'HEADWORD::"reach","V"\n'
            'MEANING::1::"pahuMcanA"\n'
            "FRAME_E:: A goes to B\n"
            "FRAME_I:: A B AtA hai\n"
        )
        for flags, expected_code in (([], 0), (["--strict"], 1)):
            code, out, err = _run(
                capsys, "transfer", *flags, "--lexicon", str(lexicon), "I go to school."
            )
            assert code == expected_code
            assert out.splitlines() == ["I school AtA hai", "A\tI", "B\tschool"]
            assert err.splitlines() == [
                "warning: meaning 1 of 'go': slot C is unbound",
                "info: matched meaning 1 of 'reach'",
            ]


class TestTransferDiagnostics:
    """The exact stderr lines and exit code of ``transfer`` runs."""

    @staticmethod
    def _lexicon(tmp_path, *records):
        lexicon = tmp_path / "lex.tlg"
        blocks = []
        for headword, meanings in records:
            lines = [f'HEADWORD::"{headword}","V"']
            for number, frame_e, frame_i in meanings:
                lines.append(f'MEANING::{number}::"x"')
                if frame_e is not None:
                    lines.append(f"FRAME_E:: {frame_e}")
                if frame_i is not None:
                    lines.append(f"FRAME_I:: {frame_i}")
            blocks.append("\n".join(lines))
        lexicon.write_text("\n\n".join(blocks) + "\n")
        return str(lexicon)

    def test_half_pair(self, capsys, tmp_path):
        lexicon = self._lexicon(tmp_path, ("go", [(1, "A goes to B", None)]))
        for flags, expected_code in (([], 0), (["--strict"], 1)):
            code, out, err = _run(
                capsys, "transfer", *flags, "--lexicon", lexicon, "I go to school."
            )
            assert code == expected_code
            assert out == ""
            assert err.splitlines() == [
                "warning: meaning 1 of 'go': incomplete frame pair; skipped",
                "info: no frame matched the sentence",
            ]

    def test_malformed_source_and_target_frames(self, capsys, tmp_path):
        lexicon = self._lexicon(
            tmp_path,
            ("go", [(1, "A goes to A", "A jAtA hai"), (2, "A goes to B", "A B [] hai")]),
        )
        code, out, err = _run(capsys, "transfer", "--lexicon", lexicon, "I go to school.")
        assert code == 0
        assert out == ""
        assert err.splitlines() == [
            "warning: meaning 1 of 'go': duplicate slot letter 'A'",
            "warning: meaning 2 of 'go': empty optional literal '[]'",
            "info: no frame matched the sentence",
        ]

    def test_unknown_headword(self, capsys, tmp_path):
        lexicon = self._lexicon(tmp_path, ("go", [(1, "A goes to B", "A B jAtA hai")]))
        code, out, err = _run(
            capsys, "transfer", "--lexicon", lexicon, "--headword", "nope", "I go to school."
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: headword 'nope' not found in lexicon"]

    def test_sense_missing_from_one_record(self, capsys, tmp_path):
        lexicon = self._lexicon(
            tmp_path,
            ("go", [(1, "A goes to B", "A B jAtA hai")]),
            ("go", [(1, "A goes into B", "A B meM hai"), (9, "A goes to B", "A B ko hai")]),
        )
        code, out, err = _run(
            capsys,
            "transfer",
            "--lexicon",
            lexicon,
            "--headword",
            "go",
            "--sense",
            "9",
            "I go to school.",
        )
        assert code == 2
        assert out.splitlines() == ["I school ko hai", "A\tI", "B\tschool"]
        assert err.splitlines() == [
            "warning: non-consecutive meaning numbers in record 'go' (line 6)",
            "error: 'go' has no meaning 9",
            "info: matched meaning 9 of 'go'",
        ]

    def test_literal_frames_gloss_from_lexicon(self, capsys, tmp_path):
        lexicon = tmp_path / "lex.tlg"
        lexicon.write_text(
            'HEADWORD::"school","N"\n'
            'MEANING::1::"pAThaSAlA"\n'
            "FRAME_E:: A goes to B\n"
            "\n"
            'HEADWORD::"I","P"\n'
            'MEANING::1::"maiM"\n'
        )
        code, out, err = _run(
            capsys,
            "transfer",
            "--lexicon",
            str(lexicon),
            "--frame-e",
            "A goes to B",
            "--frame-i",
            "A B [ko] jAtA hai",
            "--gloss-slots",
            "I go to school.",
        )
        assert code == 0
        assert out.splitlines() == [
            "I{=maiM} school{=pAThaSAlA} ko jAtA hai",
            "A\tI",
            "B\tschool",
        ]
        # the lexicon's own half pair is not tried: only the literal frames are
        assert err.splitlines() == ["info: matched literal frames"]

    def test_warning_after_match(self, capsys, tmp_path):
        lexicon = self._lexicon(
            tmp_path,
            ("go", [(1, "A goes to B", "A B jAtA hai"), (2, "A goes to B", "A B C")]),
            ("walk", [(1, "A walks", "[]")]),
        )
        code, out, err = _run(capsys, "transfer", "--lexicon", lexicon, "I go to school.")
        assert code == 0
        assert out.splitlines() == ["I school jAtA hai", "A\tI", "B\tschool"]
        assert err.splitlines() == [
            "info: matched meaning 1 of 'go'",
            "warning: meaning 2 of 'go': slot C is unbound",
            "warning: meaning 1 of 'walk': empty optional literal '[]'",
        ]

    def test_literal_frames_reject_headword_and_sense(self, capsys):
        frames = ["--frame-e", "A goes to B", "--frame-i", "A B [ko] jAtA hai", "I go to school."]
        for flags in (["--headword", "nope", "--sense", "9"], ["--headword", "go"]):
            code, out, err = _run(capsys, "transfer", "--lexicon", GO_TLG, *flags, *frames)
            assert (code, out) == (3, "")
            assert err == (
                "error: --headword and --sense select lexicon frames, "
                "not --frame-e/--frame-i\n"
            )


class TestCorpus:
    @staticmethod
    def _k4_store(tmp_path, casing="k4"):
        store = tmp_path / "store"
        store.mkdir()
        (store / "tagset.cfg").write_text(f"{casing}\trelation\tnonverbal\trecipient\n")
        sentence = tmp_path / "k4.anncorra"
        sentence.write_text("raama/k4 gayA::v\n")
        return str(store), str(sentence)

    def test_store_tagset_is_used_by_add_and_query(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("LERIL_TAGSET", raising=False)
        store, sentence = self._k4_store(tmp_path)
        code, out, err = _run(capsys, "corpus", "add", sentence, "--store", store)
        assert (code, out, err) == (0, "und-1\n", "")
        assert _run(capsys, "corpus", "query", "k4", "--store", store) == (0, "und-1\t0\n", "")

    def test_tagset_flag_then_environment_then_store(self, capsys, tmp_path, monkeypatch):
        store, sentence = self._k4_store(tmp_path, casing="K4")
        override = tmp_path / "other.cfg"
        override.write_text("k5\trelation\tnonverbal\n")
        monkeypatch.delenv("LERIL_TAGSET", raising=False)
        assert _run(capsys, "corpus", "add", sentence, "--store", store)[0] == 0
        stats = ["corpus", "stats", "--store", store]
        assert '"K4": 1' in _run(capsys, *stats)[1]
        # the environment replaces the store's tagset, and the flag the environment
        monkeypatch.setenv("LERIL_TAGSET", str(override))
        assert '"k4": 1' in _run(capsys, *stats)[1]
        monkeypatch.setenv("LERIL_TAGSET", str(tmp_path / "store" / "tagset.cfg"))
        assert '"K4": 1' in _run(capsys, *stats)[1]
        assert '"k4": 1' in _run(capsys, *stats, "--tagset", str(override))[1]
        code, out, err = _run(
            capsys, "corpus", "query", "k4", "--store", store, "--tagset", str(override)
        )
        assert (code, out) == (0, "") and "unknown relation tag 'k4'" in err

    def test_add_query_stats_export(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        code, out, err = _run(
            capsys, "corpus", "add", SENTENCES, "--store", store, "--lang", "hin"
        )
        assert code == 0
        assert out.splitlines() == ["s1", "s2"]

        code, out, _ = _run(capsys, "corpus", "query", "k2", "--store", store)
        assert code == 0
        assert out.splitlines() == ["s1\t1", "s1\t3", "s2\t1", "s2\t3"]

        code, out, _ = _run(capsys, "corpus", "stats", "--store", store)
        assert code == 0
        stats = json.loads(out)
        assert stats["sentences"] == 2
        assert stats["relation_counts"] == {"k1": 2, "k2": 4, "kr": 2}
        assert stats["node_counts"] == {"v": 2}

        code, out, _ = _run(capsys, "corpus", "export", "--store", store)
        assert code == 0
        assert out.splitlines()[0] == "# s1"

    def test_duplicate_add_exits_2(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert _run(capsys, "corpus", "add", SENTENCES, "--store", store)[0] == 0
        code, _, err = _run(capsys, "corpus", "add", SENTENCES, "--store", store)
        assert code == 2
        assert "duplicate" in err

    def test_language_outside_the_store_exits_2(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        code, out, err = _run(
            capsys, "corpus", "add", SENTENCES, "--store", store, "--lang", "../outside"
        )
        assert code == 2 and out == ""
        assert "language '../outside' rejected" in err
        assert not (tmp_path / "outside.anncorra").exists()
        code, out, _ = _run(capsys, "corpus", "stats", "--store", store)
        assert json.loads(out)["sentences"] == 0

    def test_export_is_byte_stable(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        _run(capsys, "corpus", "add", SENTENCES, "--store", store)
        first = _run(capsys, "corpus", "export", "--store", store, "--format", "interchange")
        second = _run(capsys, "corpus", "export", "--store", store, "--format", "interchange")
        assert first == second


class TestExitCodes:
    def test_unknown_subcommand_is_usage(self, capsys):
        code, _, _ = _run(capsys, "frobnicate")
        assert code == 3

    def test_missing_subcommand_prints_help(self, capsys):
        code, _, err = _run(capsys, "dict")
        assert code == 3
        # the help of every command, though only dict's parser was built for the run
        listed = err.partition("positional arguments:")[2]
        for command in ("dict", "tlg", "anncorra", "sutra", "transfer", "corpus", "batch"):
            assert f"\n    {command} " in listed

    def test_missing_file_is_io_failure(self, capsys):
        code, _, err = _run(capsys, "dict", "parse", "no/such/file.dict")
        assert code == 3

    def test_warnings_exit_0_by_default_1_with_strict(self, capsys, tmp_path):
        gapped = tmp_path / "gap.dict"
        gapped.write_text('"run", "V",\n--"1.calanA"\nI run.\n--"3.bhAganA"\nFast.\n')
        assert _run(capsys, "dict", "parse", str(gapped))[0] == 0
        assert _run(capsys, "dict", "parse", str(gapped), "--strict")[0] == 1

    def test_errors_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.dict"
        bad.write_text('--"1.jAnA"\n')
        assert _run(capsys, "dict", "parse", str(bad))[0] == 2

    @pytest.mark.parametrize(
        "argv, text, kept",
        [
            (["dict", "parse"], '"go", "V",\n--"{n}.jAnA"\n--"2.calanA"\nGo on.\n', '"calanA"'),
            (["tlg", "parse"], _BIG_MEANING_TLG, '"calanA"'),
            (
                ["transfer", "I go to school.", "--lexicon"],
                _BIG_MEANING_TLG,
                "I school ko jAtA hai",
            ),
        ],
        ids=["dict parse", "tlg parse", "transfer --lexicon"],
    )
    def test_a_number_too_long_for_int_is_a_malformed_line(
        self, capsys, tmp_path, argv, text, kept
    ):
        # int() refuses more than 4 300 decimal digits
        path = tmp_path / "big.txt"
        path.write_text(text.replace("{n}", "1" * 5000))
        code, out, err = _run(capsys, *argv, str(path))
        assert code == 2
        assert "Traceback" not in err
        assert "error: malformed " in err.splitlines()[0]
        assert kept in out

    def test_clean_exit_0(self, capsys):
        assert _run(capsys, "dict", "parse", GO_DICT)[0] == 0

    def test_unexpected_exception_is_an_internal_error(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("frames out of order")

        monkeypatch.setattr(cli, "_cmd_tlg_parse", broken)
        monkeypatch.setattr(cli, "_parsers", {})  # a parser built from here on runs `broken`
        code, out, err = _run(capsys, "tlg", "parse", GO_TLG)
        assert (code, out, err) == (4, "", "internal error: RuntimeError: frames out of order\n")
        assert cli.EXIT_INTERNAL == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["tlg", "parse", "{file}"],
            ["tlg", "validate", "{file}"],
            ["anncorra", "convert", "{file}"],
            ["anncorra", "check", "{file}"],
            ["dict", "parse", "{file}"],
            ["dict", "lookup", "{file}", "go"],
            ["sutra", "parse-formula", "{file}"],
            ["dict", "parse", "-"],
        ],
        ids=lambda argv: " ".join(argv[:2] + argv[2:][:1]).replace("{file}", "file"),
    )
    @pytest.mark.parametrize(
        "data, byte", [(b"\xff\xfe# a\n", 0), (b"# a\nb \xe0\n", 6)], ids=["at-0", "at-6"]
    )
    def test_input_that_is_not_utf8_is_an_io_failure(
        self, capsys, tmp_path, monkeypatch, argv, data, byte
    ):
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, out, err = _run(capsys, *(arg.format(file=path) for arg in argv))
        source = argv[2].format(file=path)
        assert (code, out, err) == (3, "", f"error: {source}: not UTF-8 text at byte {byte}\n")

    @pytest.mark.parametrize(
        "argv, fixture",
        [
            (["anncorra", "parse", "{file}"], SENTENCES),
            (["corpus", "add", "{file}", "--store", "{folder}/store"], SENTENCES),
            (["dict", "parse", "{file}"], GO_DICT),
        ],
        ids=["anncorra parse", "corpus add", "dict parse"],
    )
    def test_input_byte_order_mark_is_dropped(self, capsys, tmp_path, argv, fixture):
        outcomes = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            folder = tmp_path / name
            folder.mkdir()
            (folder / "input").write_bytes(prefix + (ROOT / fixture).read_bytes())
            argv_here = [arg.format(file=folder / "input", folder=folder) for arg in argv]
            result = _run(capsys, *argv_here)
            outcomes.append([str(part).replace(str(folder), "<folder>") for part in result])
        assert outcomes[0][0] == "0" and outcomes[0][1]
        assert outcomes[1] == outcomes[0]

    @pytest.mark.parametrize(
        "data", [None, b"# s1\nraama/k1 g\xffyA::v\n"], ids=["missing", "not-utf8"]
    )
    def test_corpus_add_of_an_unreadable_input_creates_no_store(self, capsys, tmp_path, data):
        source, store = tmp_path / "input.anncorra", tmp_path / "store"
        if data is not None:
            source.write_bytes(data)
        code, out, err = _run(capsys, "corpus", "add", str(source), "--store", str(store))
        assert (code, out) == (3, "") and err.startswith("error: ") and str(source) in err
        assert not store.exists()

    def test_corpus_add_reads_stdin_before_it_opens_the_store(self, capsys, tmp_path, monkeypatch):
        store, opened = tmp_path / "store", []

        class Stdin(io.BytesIO):
            def read(self, *args):
                opened.append(store.exists())
                return super().read(*args)

        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(Stdin(b"raama/k1 gayA::v\n")))
        assert _run(capsys, "corpus", "add", "-", "--store", str(store)) == (0, "und-1\n", "")
        assert opened == [False]

    def test_store_tagset_that_is_not_utf8_is_an_io_failure(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert _run(capsys, "corpus", "add", SENTENCES, "--store", str(store))[0] == 0
        (store / "tagset.cfg").write_bytes(b"K4\trelation\tnonverbal\t\xff\xfe\n")
        code, out, err = _run(capsys, "corpus", "stats", "--store", str(store))
        tagset = store / "tagset.cfg"
        assert (code, out, err) == (3, "", f"error: {tagset}: not UTF-8 text at byte 22\n")


# (seed, nodes, groups, kind): a random tree's explicit line, with "# id" or
# without, or a line that does not parse in place of it
_SENTENCES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=1, max_value=7),
        st.booleans(),
        st.sampled_from(["id", "no id", "fails"]),
    ),
    max_size=5,
)


@settings(max_examples=40, deadline=None)
@given(_SENTENCES)
@example([])
@example([(1, 3, True, "id"), (2, 1, False, "no id"), (3, 2, False, "fails")])
def test_anncorra_parse_writes_the_json_dumps_text(sentences):
    registry = default_registry()
    lines, expected = [], []
    for k, (seed, n, grouped, kind) in enumerate(sentences):
        rng = random.Random(seed)
        tree = random_tree(rng, n=n)
        if grouped:
            start = rng.randrange(n)
            tree = tree._replace(groups=[Group(start, rng.randint(start + 1, n), "s")])
        line = emit_explicit(tree)
        sentence_id = None if kind == "no id" else f"s{k}"
        if sentence_id is not None:
            lines.append(f"# {sentence_id}")
        if kind == "fails":
            lines.append(line + " x/k1->z9")  # an undefined index label
            continue
        lines.append(line)
        parsed, _ = parse_sentence(line, registry)
        expected.append({"id": sentence_id, "line": len(lines), "tree": to_interchange(parsed)})
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(data))):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["anncorra", "parse", "-"])
    doc = {"format": "anncorra", "sentences": expected}
    assert out.getvalue() == json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    failing = sum(kind == "fails" for *_, kind in sentences)
    assert err.getvalue().count("undefined index label 'z9'") == failing
    assert code == (2 if failing else 0)


SUBCOMMANDS = {
    "dict": ["parse", "emit", "lookup", "filter"],
    "tlg": ["parse", "validate", "seed", "emit", "corpus"],
    "anncorra": ["parse", "check", "convert"],
    "sutra": ["parse-formula", "parse-thread", "check"],
    "corpus": ["add", "query", "stats", "export"],
}
USAGE_CASES = [
    [],
    ["-h"],
    ["--"],
    ["bogus"],
    ["transfer", "-h"],
    ["transfer"],
    ["transfer", "bogus", "--optional", "bogus"],
    ["transfer", "bogus", "--format", "bogus"],
    ["batch"],
    ["batch", "-h"],
    ["batch", "bogus", "--format", "bogus"],
]
for _command, _subs in SUBCOMMANDS.items():
    USAGE_CASES += [[_command], [_command, "-h"], [_command, "bogus"]]
    for _sub in _subs:
        USAGE_CASES += [
            [_command, _sub, "-h"],
            [_command, _sub],
            [_command, _sub, "bogus", "--format", "bogus"],
        ]


_VALID_CASES = [
    ["dict", "parse", GO_DICT],
    ["dict", "parse", GO_DICT, "--format", "text"],
    ["tlg", "validate", "--strict", GO_TLG],
    ["transfer", "--lexicon", GO_TLG, "I go to school."],
    ["transfer", "I go to school.", "--frame-e", "A goes to B", "--frame-i", "A B jAtA hai"],
    ["sutra", "check", "tests/fixtures/issue.formula", "tests/fixtures/issue.thread"],
    ["batch", "tests/commands.batch"],
]


def _outcome(capsys, argv):
    code = exit_code = None
    try:
        code = run(argv)
    except SystemExit as exc:
        exit_code = exc.code
    captured = capsys.readouterr()
    return code, exit_code, captured.out, captured.err


class TestParserBuild:
    @pytest.mark.parametrize("argv", USAGE_CASES, ids=lambda argv: " ".join(argv) or "-")
    def test_one_command_parses_like_the_whole_parser(self, capsys, monkeypatch, argv):
        one_command = _outcome(capsys, argv)
        whole, calls = cli.build_parser, []
        monkeypatch.setattr(cli, "build_parser", lambda *words: calls.append(words) or whole())
        assert _outcome(capsys, argv) == one_command
        assert calls[0] == tuple(argv[:2])  # the run asked the patched builder
        assert one_command[:2] in ((3, None), (None, 0))

    @pytest.mark.parametrize(
        "argv", USAGE_CASES + _VALID_CASES, ids=lambda argv: " ".join(argv) or "-"
    )
    def test_a_kept_parser_parses_as_a_new_one(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "_parsers", {})
        first = _outcome(capsys, argv)
        assert _outcome(capsys, argv) == first

    @pytest.mark.parametrize("argv", _VALID_CASES, ids=" ".join)
    def test_a_command_after_a_usage_error_or_help_prints_the_same(
        self, capsys, monkeypatch, argv
    ):
        monkeypatch.setattr(cli, "_parsers", {})
        first = _outcome(capsys, argv)
        words = argv[:2] if argv[0] in SUBCOMMANDS else argv[:1]
        for other in ([*words, "-h"], [*words, "--format", "bogus"], [*words, "--optional", "x"]):
            assert _outcome(capsys, other)[:2] in ((3, None), (None, 0))
            assert _outcome(capsys, argv) == first

    def test_transfer_keeps_one_parser_whatever_its_second_word(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_parsers", {})
        for k in range(50):
            sentence = f"I go to school {k}."
            argv = [
                ["transfer", sentence, "--lexicon", GO_TLG],
                ["transfer", "--lexicon", GO_TLG, sentence],
                ["transfer", "--optional", "drop", "--lexicon", GO_TLG, sentence],
                ["transfer", "--frame-e", "A goes to B", "--frame-i", "A B jAtA hai", sentence],
                ["transfer", f"--bogus{k}", sentence],
            ][k % 5]
            assert _outcome(capsys, argv)[0] == (3 if k % 5 == 4 else 0)
        assert list(cli._parsers) == [("transfer", None)]

    def test_a_subcommand_parser_holds_that_subcommand_alone(self):
        parser = cli.build_parser("corpus", "query")
        args = parser.parse_args(["corpus", "query", "k1", "--store", "s"])
        assert args.func is cli._cmd_corpus_query
        with pytest.raises(cli._UsageError, match=r"choice: 'add' \(choose from '?query'?\)$"):
            parser.parse_args(["corpus", "add", "f", "--store", "s"])
        with pytest.raises(cli._UsageError, match=r"choice: 'dict' \(choose from '?corpus'?\)$"):
            parser.parse_args(["dict", "parse", "f"])


# Runs `leril` in-process with argv from the command line, then prints the exit
# code and the leril submodules that the run imported.
_IMPORTS_AFTER_RUN = """
import io, sys
from leril.cli import run
stdout, sys.stdout = sys.stdout, io.StringIO()
code = run(sys.argv[1:])
sys.stdout = stdout
print(code, *sorted(name for name in sys.modules if name.startswith("leril.")))
"""


def _fresh_python(code, *argv):
    env = dict(os.environ, PYTHONPATH=str(Path(leril.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestImports:
    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        store = str(tmp_path_factory.mktemp("imports") / "store")
        assert run(["corpus", "add", SENTENCES, "--store", store]) == 0
        return store

    @pytest.mark.parametrize(
        "argv, layers",
        [
            (["transfer", "--frame-e", "A goes to B", "--frame-i", "A B [ko] jAtA hai",
              "I go to school."], "transfer"),
            (["transfer", "I go to school.", "--lexicon", GO_TLG], "transfer translexgram"),
            (["tlg", "seed", "--dict", GO_DICT], "dict_model transfer translexgram"),
            (["dict", "lookup", GO_DICT, "go"], "dict_model"),
            (["dict", "parse", GO_DICT], "dict_model"),
            (["tlg", "validate", GO_TLG], "transfer translexgram"),
            (["sutra", "check", "tests/fixtures/issue.formula", "tests/fixtures/issue.thread"],
             "shabdasutra"),
            (["anncorra", "convert", "--minimize", SENTENCES], "anncorra"),
            (["corpus", "stats", "--store", "{store}"], "anncorra corpus_store"),
        ],
        ids=lambda value: " ".join(value[:2]) if isinstance(value, list) else None,
    )
    def test_command_imports_only_its_layers(self, store, argv, layers):
        code = _IMPORTS_AFTER_RUN + 'print("dataclasses" in sys.modules)'
        out = _fresh_python(code, *(arg.format(store=store) for arg in argv))
        modules = sorted(f"leril.{name}" for name in ["cli", "diagnostics", *layers.split()])
        assert out.split() == ["0", *modules, "False"]  # and no dataclasses

    def test_literal_frame_transfer_leaves_the_json_decoder_unloaded(self):
        loaded = _IMPORTS_AFTER_RUN + (
            'print("json.decoder" in sys.modules, "dataclasses" in sys.modules)'
        )
        out = _fresh_python(
            loaded,
            "transfer", "--frame-e", "A goes to B", "--frame-i", "A B [ko] jAtA hai", "I go.",
        )
        assert out.split()[-2:] == ["False", "False"]
        out = _fresh_python(
            loaded, "sutra", "check", "tests/fixtures/issue.formula", "tests/fixtures/issue.thread"
        )
        assert out.split()[-1] == "False"  # dataclasses

    @pytest.mark.parametrize(
        "argv",
        [("dict", "parse", GO_DICT), ("sutra", "parse-formula", "tests/fixtures/issue.formula")],
        ids=["dict-parse", "sutra-parse-formula"],
    )
    def test_its_own_writer_leaves_the_json_package_unloaded(self, argv):
        code = _IMPORTS_AFTER_RUN + 'print([m for m in sys.modules if m.startswith("json")])'
        out = _fresh_python(code, *argv)
        assert out.split()[0] == "0"
        assert out.splitlines()[-1] == "[]"

    def test_import_leril_loads_a_layer_on_first_access(self):
        out = _fresh_python(
            "import sys, leril\n"
            "loaded = sorted(name for name in sys.modules if name.startswith('leril.'))\n"
            "print(*loaded, leril.corpus_store.CorpusStore.__module__)\n"
            "try:\n"
            "    leril.nope\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
        )
        assert out.splitlines() == [
            "leril.diagnostics leril.corpus_store",
            "module 'leril' has no attribute 'nope'",
        ]


def _plain(value):
    """``value`` with each NamedTuple as the dict of its fields and each tuple a list."""
    if hasattr(value, "_asdict"):
        return {key: _plain(item) for key, item in value._asdict().items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


def _json_text(doc) -> str:
    return json.dumps(_plain(doc), ensure_ascii=False, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", ["issue.thread", "issue_examples.thread"])
def test_parse_thread_writes_the_json_dumps_text(capsys, fixtures_dir, name):
    threads, _ = parse_thread_file((fixtures_dir / name).read_text(encoding="utf-8"))
    code, out, err = _run(capsys, "sutra", "parse-thread", str(fixtures_dir / name))
    assert (code, err) == (0, "")
    assert out == _json_text({"threads": threads})


@pytest.mark.parametrize("sentences", [None, SENTENCES])
def test_corpus_stats_writes_the_json_dumps_text(capsys, tmp_path, sentences):
    store = tmp_path / "store"
    if sentences is None:
        store.mkdir()
    else:
        assert _run(capsys, "corpus", "add", sentences, "--store", str(store))[0] == 0
    with CorpusStore(store, "r") as opened:
        stats = opened.stats()
    assert stats.sentences == (0 if sentences is None else 2)
    assert _run(capsys, "corpus", "stats", "--store", str(store)) == (0, _json_text(stats), "")


class TestParseMemo:
    """The CLI keeps its last parse for as long as the same parser reads the
    same bytes; every run must still print what a fresh process prints."""

    def test_a_same_length_edit_is_read(self, capsys, tmp_path):
        lexicon = tmp_path / "go.tlg"
        data = (ROOT / GO_TLG).read_bytes()
        lexicon.write_bytes(data)
        before = lexicon.stat()
        argv = ["transfer", "--lexicon", str(lexicon), "I go to school."]
        assert _run(capsys, *argv)[1].startswith("I school ko jAtA hai\n")
        edited = data.replace(b"[ko] jAtA hai", b"[ko] gayA hai")
        assert len(edited) == len(data) and edited != data
        lexicon.write_bytes(edited)
        os.utime(lexicon, ns=(before.st_atime_ns, before.st_mtime_ns))  # same size, same mtime
        assert _run(capsys, *argv)[1].startswith("I school ko gayA hai\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["tlg", "validate", "--strict", GO_TLG],
            ["transfer", "--lexicon", GO_TLG, "I go to school."],
            ["dict", "lookup", GO_DICT, "nope"],
            ["sutra", "check", "tests/fixtures/issue.formula", "tests/fixtures/issue.thread"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_a_repeated_command_prints_the_same(self, capsys, argv):
        first = _run(capsys, *argv)
        assert first[2]  # diagnostics that a shared list would repeat
        assert _run(capsys, *argv) == _run(capsys, *argv) == first

    def test_a_file_that_is_not_utf8_after_a_good_parse_exits_3(self, capsys, tmp_path):
        good = _run(capsys, "tlg", "validate", GO_TLG)
        bad = tmp_path / "bad.tlg"
        bad.write_bytes(b"\xff" + (ROOT / GO_TLG).read_bytes())
        assert _run(capsys, "tlg", "validate", str(bad)) == (
            3, "", f"error: {bad}: not UTF-8 text at byte 0\n"
        )
        assert _run(capsys, "tlg", "validate", GO_TLG) == good

    @staticmethod
    def _count(monkeypatch, module, name):
        calls = []
        parser = getattr(module, name)

        def counted(text):
            calls.append(len(text))
            return parser(text)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_unchanged_bytes_are_parsed_once(self, capsys, monkeypatch, tmp_path):
        from leril import shabdasutra, translexgram

        tlg_calls = self._count(monkeypatch, translexgram, "parse_tlg")
        formula_calls = self._count(monkeypatch, shabdasutra, "parse_formula_file")
        thread_calls = self._count(monkeypatch, shabdasutra, "parse_thread_file")
        for argv in (["tlg", "validate", GO_TLG], ["tlg", "corpus", GO_TLG],
                     ["transfer", "--lexicon", GO_TLG, "I go to school."]):
            assert _run(capsys, *argv)[0] == 0
        assert len(tlg_calls) == 1
        lexicon = tmp_path / "go.tlg"
        lexicon.write_bytes((ROOT / GO_TLG).read_bytes() + b"\n")
        for _ in range(2):
            assert _run(capsys, "tlg", "emit", str(lexicon))[0] == 0
        assert len(tlg_calls) == 2  # the edited bytes, once
        assert _run(capsys, "dict", "parse", GO_DICT)[0] == 0  # the one slot now holds go.dict
        assert _run(capsys, "tlg", "emit", str(lexicon))[0] == 0
        assert len(tlg_calls) == 3
        check = ["sutra", "check", "tests/fixtures/issue.formula", "tests/fixtures/issue.thread"]
        for _ in range(2):
            assert _run(capsys, *check)[0] == 0
        assert (len(formula_calls), len(thread_calls)) == (2, 2)  # each file evicts the other

    def test_one_command_a_process_keeps_no_parse(self, capsys, monkeypatch, tmp_path):
        from leril import translexgram

        monkeypatch.setattr(cli, "_last_parse", (None, b""))
        calls = self._count(monkeypatch, translexgram, "parse_tlg")
        commands = tmp_path / "commands.txt"
        commands.write_text(f"tlg validate {GO_TLG}\ntlg corpus {GO_TLG}\n", encoding="utf-8")
        validate = ["tlg", "validate", GO_TLG]
        for argv in (validate, validate, ["batch", str(commands)]):
            monkeypatch.setattr(sys, "argv", ["leril", *argv])
            with pytest.raises(SystemExit) as exit_:
                cli.main()
            assert exit_.value.code == 0
        capsys.readouterr()
        assert len(calls) == 3  # one a process for each command, then once for the batch


    @staticmethod
    def _count_builds(monkeypatch):
        """The ``FramePairs`` built from now on, in order."""
        from leril import transfer

        built = []
        init = transfer.FramePairs.__init__

        def counted(self, pairs):
            built.append(self)
            init(self, pairs)

        monkeypatch.setattr(transfer.FramePairs, "__init__", counted)
        return built

    @staticmethod
    def _count_glosses(monkeypatch):
        """The gloss indexes built from now on, in order."""
        from leril import transfer

        built = []
        index = transfer.gloss_index

        def counted(records):
            built.append(index(records))
            return built[-1]

        monkeypatch.setattr(transfer, "gloss_index", counted)
        return built

    def test_a_lexicon_s_frame_pairs_are_built_once_and_freed_with_its_parse(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(cli, "_last_parse", (None, b""))
        built, glosses = self._count_builds(monkeypatch), self._count_glosses(monkeypatch)
        lexicon = tmp_path / "go.tlg"
        data = (ROOT / GO_TLG).read_bytes()
        lexicon.write_bytes(data)
        school = ["transfer", "--lexicon", str(lexicon), "I go to school."]
        suitcase = ["transfer", "--lexicon", str(lexicon), "These clothes go into that suitcase."]
        first = _run(capsys, *school)
        assert first[1].startswith("I school ko jAtA hai\n")
        second = _run(capsys, *suitcase)
        assert second[1].startswith("These clothes that suitcase meM rakhA_jAtA_hai\n")
        assert len(built) == 1  # two whole-lexicon transfers, one build

        # the glosses too are built once for the parse, for lexicon and literal frames alike
        go = [*school[:3], "--gloss-slots", "Go goes to go."]
        glossed = _run(capsys, *go)
        assert glossed[1].startswith("Go{=jAnA} go{=jAnA} ko jAtA hai\n")
        frames = ["--frame-e", "A goes to B", "--frame-i", "A B [ko] jAtA hai"]
        assert _run(capsys, *go, *frames)[1] == glossed[1]
        assert _run(capsys, *go) == glossed
        assert (len(built), len(glosses)) == (2, 1)  # the literal frames' own pair, one index

        # --headword checks its own pairs on each run and leaves the lexicon's in place
        one = [*suitcase[:3], "--headword", "go", "--sense", "2", suitcase[3]]
        assert _run(capsys, *one)[1] == second[1]
        assert len(built) == 3
        assert (_run(capsys, *school), _run(capsys, *suitcase)) == (first, second)
        assert len(built) == 3

        # an edited lexicon builds again and answers from its new bytes
        lexicon.write_bytes(data.replace(b"[ko] jAtA hai", b"[ko] gayA hai"))
        assert _run(capsys, *school)[1].startswith("I school ko gayA hai\n")
        assert len(built) == 4
        assert _run(capsys, *go)[1].startswith("Go{=jAnA} go{=jAnA} ko gayA hai\n")
        assert (len(built), len(glosses)) == (4, 2)

        # nothing outside the slot holds the pairs or the glosses: the next parse frees them
        old = weakref.ref(built.pop())
        built.clear()
        glosses.clear()
        assert old() is not None and len(cli._last_parse[4]) == 2
        assert _run(capsys, "dict", "parse", GO_DICT)[0] == 0
        assert old() is None and cli._last_parse[4] == {}

    def test_one_command_a_process_keeps_no_frame_pairs(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_last_parse", (None, b""))
        built = self._count_builds(monkeypatch)
        for _ in range(2):
            monkeypatch.setattr(sys, "argv", ["leril", "transfer", "--lexicon", GO_TLG, "I go."])
            with pytest.raises(SystemExit) as exit_:
                cli.main()
            assert exit_.value.code == 0
            assert cli._last_parse is None
        capsys.readouterr()
        assert len(built) == 2  # one a process


def _batch(capsys, tmp_path, lines):
    path = tmp_path / "commands.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return _run(capsys, "batch", str(path))


def _framed(capsys, lines):
    """The stdout and stderr ``leril batch`` must print for ``lines``: each
    command run on its own, its stdout under a header naming its line and
    its stderr followed by its exit code."""
    out, err = [], []
    for lineno, line in enumerate(lines, 1):
        if line.strip() and not line.lstrip().startswith("#"):
            try:
                code = run(shlex.split(line))
            except SystemExit as exc:  # -h
                code = exc.code
            captured = capsys.readouterr()
            out.append(f"==> line {lineno}: {line.strip()} <==\n{captured.out}")
            err.append(f"{captured.err}exit {code}\n")
    return "".join(out), "".join(err)


class TestBatch:
    def test_each_command_prints_what_it_prints_alone(self, capsys, tmp_path, monkeypatch):
        def broken(args):
            raise RuntimeError("words out of order")

        monkeypatch.setattr(cli, "_cmd_dict_filter", broken)
        monkeypatch.setattr(cli, "_parsers", {})  # a parser built from here on runs `broken`
        lines = [
            "# the go fixtures",
            "",
            f"tlg validate --strict {GO_TLG}",
            f"dict filter {GO_DICT} --wordlist tests/fixtures/wordlist.txt",  # exit 4
            "dict parse no/such/file.dict",
            f"  transfer --lexicon {GO_TLG} 'I go to school.'  ",
            "   # an indented comment",
            "dict -h",
            f"anncorra check {SENTENCES}",
            f"tlg validate --strict {GO_TLG}",
        ]
        code, out, err = _batch(capsys, tmp_path, lines)
        assert (out, err) == _framed(capsys, lines)
        assert code == 4
        assert out.startswith(f"==> line 3: tlg validate --strict {GO_TLG} <==\n")
        assert "internal error: RuntimeError: words out of order\nexit 4\n" in err
        assert "comment" not in out + err

    @pytest.mark.parametrize(
        "lines, code",
        [
            ([], 0),
            (["# only a comment", "   "], 0),
            ([f"dict parse {GO_DICT}", f"tlg validate --strict {GO_TLG}"], 1),
            ([f"tlg validate --strict {GO_TLG}", "tlg parse no/such", f"tlg emit {GO_TLG}"], 3),
        ],
        ids=["empty", "comments", "warnings", "missing-file"],
    )
    def test_the_batch_exits_with_the_worst_code(self, capsys, tmp_path, lines, code):
        assert _batch(capsys, tmp_path, lines) == (code, *_framed(capsys, lines))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("batch other.txt", "a batch runs no batch"),
            ("transfer 'an open quote", "No closing quotation"),
        ],
        ids=["nested", "open-quote"],
    )
    def test_a_refused_line_is_a_usage_error(self, capsys, tmp_path, line, message):
        lines = [line, f"dict lookup {GO_DICT} go"]
        code, out, err = _batch(capsys, tmp_path, lines)
        assert code == 3
        assert err.startswith(f"usage error: {message}\nexit 3\n")
        assert out.startswith(f"==> line 1: {line} <==\n==> line 2: ")
        assert (out.partition("\n")[2], err.partition("exit 3\n")[2]) == _framed(
            capsys, ["", lines[1]]
        )

    @pytest.mark.parametrize(
        "line",
        ["dict parse -", "transfer --lexicon=- 'I go to school.'",
         f"dict filter {GO_DICT} --wordlist=-", "tlg validate --strict -"],
        ids=["positional", "lexicon-option", "wordlist-option", "after-an-option"],
    )
    def test_stdin_is_refused_while_it_holds_the_batch(self, capsys, monkeypatch, line):
        commands = f"{line}\ndict parse {GO_DICT} --strict\n".encode()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(commands)))
        code, out, err = _run(capsys, "batch", "-")
        assert code == 3
        assert err.startswith("error: - is stdin, which holds the batch\nexit 3\n")
        assert err.endswith("\nexit 0\n")
        assert out.startswith(f"==> line 1: {line} <==\n==> line 2: ")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"go\n")))
        assert _run(capsys, "dict", "filter", GO_DICT, "--wordlist=-")[0] == 0  # stdin again

    def test_a_command_of_a_batch_file_reads_stdin(self, capsys, tmp_path, monkeypatch):
        data = (ROOT / GO_DICT).read_bytes()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, out, err = _batch(capsys, tmp_path, ["dict emit -"])
        assert code == 0
        alone_out, alone_err = _framed(capsys, [f"dict emit {GO_DICT}"])
        header = "==> line 1: dict emit - <==\n"
        assert (out, err) == (header + alone_out.partition("\n")[2], alone_err)
        assert '--"1.jAnA"\nI go to school.\n' in out
