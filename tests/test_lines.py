"""Where a line ends: at \\n, \\r\\n or \\r, and nowhere else, in every reader.

The eight other characters that ``str.splitlines`` breaks at are characters
of a line, so a diagnostic's line number is the one an editor shows. Each
case's expected number comes from a ``\\r\\n|\\r|\\n`` split of the input.
"""

import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from leril.cli import run
from leril.corpus_store import CorpusError, CorpusStore
from leril.diagnostics import split_lines

FIXTURES = Path(__file__).parent / "fixtures"
NOT_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
ENDS = ["\r", "\r\n"]
_IDS = [f"U+{ord(c):04X}" for c in NOT_ENDS] + ["CR", "CRLF"]
_LINE_RE = re.compile(r"\bline (\d+)")


def _last_line(lines: list[str]) -> int:
    """The number of the last of ``lines`` once joined, by the reference split."""
    return len(re.split(r"\r\n|\r|\n", "\n".join(lines)))


# reader: (argv with {} for the file, which LERIL_TAGSET names instead for
# its own case; the file's lines with {c} for the character, the last line
# the one at fault)
READERS = {
    # with \x1c, the duplicate FRAME_E of line 5 was reported at line 6
    "tlg": (
        ["tlg", "validate", "{}"],
        ['HEADWORD::"go","V"', 'MEANING::1::"jAnA"', "ENG_EXP:: I go{c} to school.",
         "FRAME_E:: A goes to B", "FRAME_E:: A goes to B"],
    ),
    "tlg fields": (
        ["tlg", "validate", "{}"],
        ['HEADWORD::"go","V"', 'MEANING::1::"jAnA"', "COMNT:: a{c} note",
         "TR_NAT:: maiM skUla jAtA hUM.{c}", "FRAME_E:: A goes to B", "FRAME_E:: A goes to B"],
    ),
    "dict": (
        ["dict", "parse", "{}"],
        ['"go", "V",', '--"1.jAnA"', "I go{c} to school.", "I went.{c}", "--oops"],
    ),
    "formula": (
        ["sutra", "parse-formula", "{}"],
        ["# a{c} comment", "viSaya[~~ < niSpAdana]{c}", "a["],
    ),
    "thread": (
        ["sutra", "parse-thread", "{}"],
        ["# a{c} comment", "niSpAdana(astitwa meM IAnA/AnA)", "--> niSpatti kA srota{c}", "",
         "--> orphan"],
    ),
    "alias": (
        ["sutra", "check", str(FIXTURES / "issue.formula"), str(FIXTURES / "issue.thread"),
         "--alias", "{}"],
        ["# a comment{c}", "viSaya\tniSpatti{c}", "bad line"],
    ),
    "tagset": (
        ["anncorra", "parse", str(FIXTURES / "sentences.anncorra"), "--tagset", "{}"],
        ["# a comment{c}", "k4\trelation\tnonverbal\trecipient{c}", "k7"],
    ),
    "LERIL_TAGSET": (
        ["anncorra", "check", str(FIXTURES / "sentences.anncorra")],
        ["# a comment{c}", "k4\trelation\tnonverbal\trecipient{c}", "k7"],
    ),
    "anncorra check": (
        ["anncorra", "check", "{}"],
        ["# s1 note{c}", "rAma_ne/k1 piyA::v{c}", "a/k1->q piyA::v:i"],
    ),
    "anncorra convert": (
        ["anncorra", "convert", "{}"],
        ["# s1 note{c}", "rAma_ne/k1 piyA::v{c}", "a/k1->q piyA::v:i"],
    ),
}


@pytest.mark.parametrize("c", NOT_ENDS + ENDS, ids=_IDS)
@pytest.mark.parametrize("reader", READERS)
def test_diagnostic_lines_count_only_the_three_line_ends(tmp_path, capsys, monkeypatch, reader, c):
    argv, template = READERS[reader]
    lines = [line.replace("{c}", c) for line in template]
    path = tmp_path / "input"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    if reader == "LERIL_TAGSET":
        monkeypatch.setenv("LERIL_TAGSET", str(path))
    run([str(path) if arg == "{}" else arg for arg in argv])
    err = capsys.readouterr().err
    assert [int(n) for n in _LINE_RE.findall(err)] == [_last_line(lines)], err


_STORE_PREFIX = ["# s1 note{c}", "rAma_ne/k1 piyA::v{c}", "", "# s2", "piyA::v"]
# what is appended after the stored records, and the warning or error it gives
_STORE_TAILS = {
    "rejected": (b"a/k1->q piyA::v:i\n", None),
    "torn": (b"# s9\nsiitaa/k1 ga", "torn last record skipped"),
    "not-utf8": (b"siitaa/k1 g\xc3", "torn last record skipped: not UTF-8 text"),
}


@pytest.mark.parametrize("c", NOT_ENDS + ENDS, ids=_IDS)
@pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "plain"])
@pytest.mark.parametrize("tail", _STORE_TAILS)
def test_store_lines_count_only_the_three_line_ends(tmp_path, c, sidecar, tail):
    lines = [line.replace("{c}", c) for line in _STORE_PREFIX]
    store = tmp_path / "store"
    store.mkdir()
    data = store / "hin.anncorra"
    data.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    if sidecar:  # a writer's open indexes the records and leaves a sidecar for them
        CorpusStore(store, "rw").close()
        assert (store / "hin.anncorra.idx").is_file()
    appended, message = _STORE_TAILS[tail]
    with data.open("ab") as fh:
        fh.write(appended)
    expected = _last_line([*lines, appended.decode("utf-8", "replace").removesuffix("\n")])
    if message is None:
        with pytest.raises(CorpusError, match=rf"hin\.anncorra:{expected}: sentence 'hin-1'"):
            CorpusStore(store, "r")
        return
    with CorpusStore(store, "r") as reader:
        [warning] = reader.diagnostics
        assert reader.stats().sentences == 2
    assert f"hin.anncorra:{expected}: {message}" in warning.message


def test_convert_gives_a_comment_back_and_add_reads_one_sentence(tmp_path, capsys):
    source = tmp_path / "note.anncorra"
    source.write_text("# note\u2028 here\nrAma_ne/k1 piyA::v\n", encoding="utf-8")
    assert run(["anncorra", "convert", str(source)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "# note\u2028 here", "rAma_ne/k1->i piyA::v:i", ""
    ]
    assert run(["corpus", "add", str(source), "--store", str(tmp_path / "store")]) == 0
    with CorpusStore(tmp_path / "store") as store:
        assert store.export("linear") == "# note\nrAma_ne/k1 piyA::v\n"


@pytest.mark.parametrize("c", NOT_ENDS + ENDS, ids=_IDS)
def test_wordlist_holds_one_word_per_line(tmp_path, capsys, c):
    words = tmp_path / "words.txt"
    words.write_text(f"nope{c}go\n", encoding="utf-8")
    assert run(["dict", "filter", str(FIXTURES / "go.dict"), "--wordlist", str(words)]) == 0
    assert ('"go", "V",' in capsys.readouterr().out) == (c in ENDS)


@given(st.text(alphabet="ab\n\r" + "".join(NOT_ENDS), max_size=12))
def test_split_lines_is_the_reference_split(text):
    reference = re.split(r"\r\n|\r|\n", text)
    if reference[-1] == "":
        reference.pop()
    assert split_lines(text) == reference
    kept = split_lines(text, keepends=True)
    assert "".join(kept) == text
    assert [re.sub(r"(\r\n|\r|\n)$", "", line) for line in kept] == reference
