import io
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

import leril
from leril import cli
from leril.cli import _dump_json, run

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
]
for _command, _subs in SUBCOMMANDS.items():
    USAGE_CASES += [[_command], [_command, "-h"], [_command, "bogus"]]
    for _sub in _subs:
        USAGE_CASES += [
            [_command, _sub, "-h"],
            [_command, _sub],
            [_command, _sub, "bogus", "--format", "bogus"],
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
        whole = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: whole())
        assert _outcome(capsys, argv) == one_command
        assert one_command[:2] in ((3, None), (None, 0))


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


class _Fields(NamedTuple):  # declared out of key order
    zeta: object
    alpha: object
    mid: object = None


class _NoFields(NamedTuple):
    pass


_odd_text = st.text(alphabet='aZ"\\/\x00\x1f\x7f \u00e9\u2028\U0001f600')
_json_docs = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | _odd_text
    | st.just(_NoFields()),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_odd_text, inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.builds(_Fields, inner, inner, inner),
    max_leaves=20,
)


def _plain(value):
    """``value`` with each NamedTuple as the dict of its fields and each tuple a list."""
    if hasattr(value, "_asdict"):
        return {key: _plain(item) for key, item in value._asdict().items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


@given(_json_docs)
def test_dump_json_matches_json_dumps(doc):
    expected = json.dumps(_plain(doc), ensure_ascii=False, indent=2, sort_keys=True) + "\n"
    assert _dump_json(doc) == expected


def test_dump_json_of_2000_nested_containers():
    doc = "leaf"
    for k in range(1000):
        doc = {"k": [doc, k]}
    opening, closing = [], []
    for k in reversed(range(1000)):
        pad = "\n" + "    " * (999 - k)
        opening.append(f'{{{pad}  "k": [{pad}    ')
        closing.append(f",{pad}    {k}{pad}  ]{pad}}}")
    expected = "".join(opening) + '"leaf"' + "".join(reversed(closing)) + "\n"
    assert _dump_json(doc) == expected
