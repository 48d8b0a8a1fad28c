"""Hostile dictionaries through every command that reads one.

Each case runs one command in-process on a generated input and holds it to
the exit-code contract: no traceback on stderr, an exit code in {0, 2, 3},
1 only under --strict, and never 4 (an internal error). An interchange
document on stdout must be the text json.dumps writes for what it reads
back. The inputs are built from fixed text and a seeded generator, so every
run sees the same bytes.
"""

import gc
import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from leril.cli import run

# the characters other than CR and LF that str.splitlines breaks at, which end no line here
BREAKS = "\x0b\x1c\x1d\x1e\x85\u2028\u2029"
ODD = BREAKS + "\x00\ufeff"
SEED = 2026


def _lines(*lines: str) -> bytes:
    return ("\n".join(lines) + "\n").encode()


def _mix(rng: random.Random) -> bytes:
    """Dictionary lines of every kind, each with odd characters put in at random places."""
    pool = [
        '"go", "V",', '"come", "V",', '"go", "V",', '--"1.jAnA"', '--"2.rakhA~jAnA"',
        '--"3.samAnA[<jAnA]{sthiti}"', '--"4.a/b~c"', '--"5.x[<y"', '--"6.x{a}{b}"',
        "I go to school.", "How did the meeting go?", '"', "--", "",
    ]
    lines = []
    for _ in range(rng.randint(8, 16)):
        line = rng.choice(pool)
        for _ in range(rng.randint(0, 3)):
            at = rng.randint(0, len(line))
            line = line[:at] + rng.choice(ODD) + line[at:]
        lines.append(line)
    return _lines(*lines)


INPUTS = {
    "breaks": _lines(
        '"go", "V",' + BREAKS,
        *(f'--"{k}.jA{c}nA"' for k, c in enumerate(BREAKS, 1)),
        *(f"I go{c} to school.{c}" for c in BREAKS),
        f'{BREAKS}--"8.ho~jAnA{{sthi{BREAKS}ti}}"{BREAKS}',
        f'"{BREAKS}go{BREAKS}", "V{BREAKS}",',
        f'--"1.x[<{BREAKS}]"',
        "Have you gone mad?",
    ),
    "nul": _lines('"go\x00", "V",', '--"1.a\x00b"', "I\x00go.", "\x00", '"go", "V",', '--"1.\x00"'),
    "bom": b"\xef\xbb\xbf" + _lines('"go", "V",', '--"1.jAnA"', "I go.", '\ufeff"come", "V",'),
    "not-utf8": _lines('"go", "V",', '--"1.jAnA"') + b"I go to \xe0\xa4.\n",
    "not-utf8-start": b"\xff\xfe" + _lines('"go", "V",'),
    "annotations": _lines(
        '"go", "V",', '--"1.x[<y"', '--"2.x]"', '--"3.x{y"', '--"4.x}"', '--"5.x[<a][<b]"',
        '--"6.x{a}{b}"', '--"7.x[<a]{b}[<c]"', '--"8.x{[<a]}"', '--"9.x[<{a}]"',
        '--"10.x[<]{ }"', '--"11.x[y]"', '--"12.[<a]"', '--"13.x[<a]z"', "I go.",
    ),
    "sense-numbers": _lines(
        '"go", "V",', '--"123456789012345678901234567890.jAnA"', "I go.",
        '--"0.x"', "It goes.", f'--"{"9" * 5000}.x"', "Too many digits.",
    ),
    **{f"mix-{k}": _mix(random.Random(f"{SEED}:{k}")) for k in range(6)},
}

COMMANDS = {
    "dict parse": ["dict", "parse", "{dict}"],
    "dict emit": ["dict", "emit", "{dict}"],
    "dict lookup": ["dict", "lookup", "{dict}", "go", "--format", "interchange"],
    "dict filter": ["dict", "filter", "{dict}", "--wordlist", "{words}"],
    "tlg seed": ["tlg", "seed", "--dict", "{dict}"],
}
INTERCHANGE = {"dict parse", "dict lookup"}


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    folder = tmp_path_factory.mktemp("hostile")
    for name, data in INPUTS.items():
        (folder / f"{name}.dict").write_bytes(data)
    (folder / "words.txt").write_bytes(_lines("go", "\x00", "\u2028go", "\ufeffcome"))
    return folder


def _outcome(capsys, argv):
    capsys.readouterr()
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", INPUTS)
def test_a_hostile_dictionary_keeps_the_exit_contract(capsys, folder, name, command, strict):
    paths = {"dict": str(folder / f"{name}.dict"), "words": str(folder / "words.txt")}
    argv = [arg.format(**paths) for arg in COMMANDS[command]] + ["--strict"] * strict
    code, out, err = _outcome(capsys, argv)
    assert "Traceback" not in err
    assert code in ({0, 1, 2, 3} if strict else {0, 2, 3}), (code, err)
    if command in INTERCHANGE and out:
        again = json.dumps(json.loads(out), ensure_ascii=False, indent=2, sort_keys=True)
        assert out == again + "\n"


def test_dict_parse_time_grows_linearly(tmp_path):
    """``dict parse`` on 4k entries takes at most 5x its time on 1k (about 4x when linear).

    The sizes take turns, so drift on the machine reaches both, and each keeps
    its best of five. The test session's objects are frozen out of the cyclic
    collector's scans, whose cost would otherwise follow the session's heap."""
    entry = _lines(
        '"go\\N", "V",', '--"1.ja\u2028"nA~x/y[<a\x00b]{c\\d}"', 'I "go"\x1f\u00e9.'
    ).decode()
    paths = {}
    for n in (1000, 4000):
        paths[n] = tmp_path / f"{n}.dict"
        paths[n].write_text("".join(entry.replace("N", str(k)) for k in range(n)), encoding="utf-8")
    times = dict.fromkeys(paths, float("inf"))
    gc.collect()
    gc.freeze()
    try:
        for _ in range(5):
            for n, path in paths.items():
                with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
                    start = time.perf_counter()
                    code = run(["dict", "parse", str(path)])
                    times[n] = min(times[n], time.perf_counter() - start)
                assert code == 0 and out.getvalue().count('"headword"') == n
    finally:
        gc.unfreeze()
    assert times[4000] <= 5 * times[1000], times
