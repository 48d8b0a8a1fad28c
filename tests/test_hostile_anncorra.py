"""Hostile AnnCorra files through every command that reads one.

Each case runs one command in-process on a generated input, with and without
a hostile --tagset, and holds it to the exit-code contract: no traceback on
stderr, an exit code in {0, 2, 3}, 1 only under --strict, and never 4 (an
internal error). An ``anncorra parse`` document on stdout must be the text
json.dumps writes for what it reads back. The inputs are built from fixed
text and a seeded generator, so every run sees the same bytes.
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

# chunks that open or close groups badly, or well but deep
SHAPES = [
    "]<s>", "x]", "x]<>", "[]<s>", "x/k1]<s>]<t>", "x]<a>b]<c>", "]<a]<b>", "[", "]<s",
    "[[[a/k1]<s>]<k1>]<s>", "[[[a/k1 b/k2]<s> c::v]<s>]<s>",
]


def _lines(*lines: str) -> bytes:
    return ("\n".join(lines) + "\n").encode()


def _mix(rng: random.Random) -> bytes:
    """Sentences of shapes and tokens, with ``# id`` lines, each line with odd
    characters put in at random places."""
    pool = [*SHAPES, "a/k1", "b/k2::v", "piyA::v:i", "c/k1->i", "[d/k1", "e::v]<s>", "f"]
    lines = []
    for _ in range(rng.randint(6, 12)):
        if rng.random() < 0.3:
            line = f"# m{rng.randint(0, 3)}"
        else:
            line = " ".join(rng.choice(pool) for _ in range(rng.randint(1, 5)))
        for _ in range(rng.randint(0, 3)):
            at = rng.randint(0, len(line))
            line = line[:at] + rng.choice(ODD) + line[at:]
        lines.append(line)
    return _lines(*lines)


INPUTS = {
    "breaks": _lines(
        f"# s1{BREAKS}note",
        *(f"# b{k}{c}\nrAma{c}_ne/k1 piyA::v" for k, c in enumerate(BREAKS)),
        *(f"rAma_ne/k{c}1 piyA::v{c}" for c in BREAKS),
        *(f"[rAma_ne/k1 piyA::v]<s{c}>" for c in BREAKS),
        f"# {BREAKS}",
        f"{BREAKS}[a/k1 b::v]<s>{BREAKS}",
    ),
    "nul": _lines("rAma_ne/k1 piyA::v", "a\x00b/k1 piyA::v", "# s\x00", "[x/k1\x00 y::v]<s\x00>"),
    "nul-last": _lines("rAma_ne/k1 piyA::v") + b"piyA::v\x00",
    "bom": b"\xef\xbb\xbf" + _lines("# s1", "rAma_ne/k1 piyA::v", "\ufeffpiyA::v", "# \ufeffs3"),
    "bom-last": _lines("rAma_ne/k1 piyA::v") + "a/k1 piyA::v\ufeff".encode(),
    "not-utf8": _lines("rAma_ne/k1 piyA::v") + b"a/k1 \xe0\xa4 piyA::v\n" + _lines("piyA::v"),
    "not-utf8-last": _lines("rAma_ne/k1 piyA::v") + b"a/k1 piyA::v\xff",
    "shapes": _lines(
        *SHAPES, *(f"[a/k1 {shape} piyA::v]<s>" for shape in SHAPES),
        *(f"{shape} piyA::v" for shape in SHAPES),
    ),
    **{f"mix-{k}": _mix(random.Random(f"{SEED}:{k}")) for k in range(6)},
}

COMMANDS = {
    "parse": ["anncorra", "parse", "{file}"],
    "check": ["anncorra", "check", "{file}"],
    "convert": ["anncorra", "convert", "{file}"],
    "convert --minimize": ["anncorra", "convert", "{file}", "--minimize"],
    "corpus add": ["corpus", "add", "{file}", "--store", "{store}"],
}


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    folder = tmp_path_factory.mktemp("hostile")
    for name, data in INPUTS.items():
        (folder / f"{name}.anncorra").write_bytes(data)
    (folder / "tagset.cfg").write_bytes(_lines(
        f"# tags{ODD}here",
        f"t\trelation\tnonverbal\ttop{ODD}",
        "a\tnode\tverbal" + BREAKS,
        *(f"k4{k}\trelation\tnonverbal\trecipient{c}{k}" for k, c in enumerate(ODD)),
    ))
    return folder


@pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
@pytest.mark.parametrize("tagset", [False, True], ids=["default-tags", "tagset"])
@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", INPUTS)
def test_a_hostile_anncorra_file_keeps_the_exit_contract(
    capsys, folder, tmp_path, name, command, tagset, strict
):
    paths = {"file": str(folder / f"{name}.anncorra"), "store": str(tmp_path / "store")}
    argv = [arg.format(**paths) for arg in COMMANDS[command]]
    argv += ["--tagset", str(folder / "tagset.cfg")] * tagset + ["--strict"] * strict
    capsys.readouterr()
    code = run(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert code in ({0, 1, 2, 3} if strict else {0, 2, 3}), (code, err)
    if command == "parse" and out:
        again = json.dumps(json.loads(out), ensure_ascii=False, indent=2, sort_keys=True)
        assert out == again + "\n"


# a line of n nested groups and the explicit form ``anncorra convert`` writes of it
DEPTH_SHAPES = {
    # one token in n groups
    "single-token": lambda n: (
        "[" * n + "a/k1" + "]<s>" * n + " piyA::v", "[" * n + "a/k1->i" + "]<s>" * n + " piyA::v:i"
    ),
    # each group opens on a token of its own and spans every group inside it
    "nested-span": lambda n: (
        "".join(f"[a{i}/k1 " for i in range(n)) + "piyA::v" + "]<s>" * n,
        "".join(f"[a{i}/k1->i " for i in range(n)) + "piyA::v:i" + "]<s>" * n,
    ),
}


@pytest.mark.parametrize("shape", DEPTH_SHAPES)
def test_anncorra_convert_time_grows_linearly_with_bracket_depth(tmp_path, shape):
    """``anncorra convert`` of a line of 4k nested groups takes at most 5x its
    time on 1k (about 4x when linear).

    The sizes take turns, so drift on the machine reaches both, and each keeps
    its best of five. The test session's objects are frozen out of the cyclic
    collector's scans, whose cost would otherwise follow the session's heap."""
    paths, explicit = {}, {}
    for n in (1000, 4000):
        line, explicit[n] = DEPTH_SHAPES[shape](n)
        paths[n] = tmp_path / f"{n}.anncorra"
        paths[n].write_text(line + "\n", encoding="utf-8")
        explicit[n] += "\n"
    times = dict.fromkeys(paths, float("inf"))
    gc.collect()
    gc.freeze()
    try:
        for _ in range(5):
            for n, path in paths.items():
                with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
                    start = time.perf_counter()
                    code = run(["anncorra", "convert", str(path)])
                    times[n] = min(times[n], time.perf_counter() - start)
                assert code == 0 and out.getvalue() == explicit[n]
    finally:
        gc.unfreeze()
    assert times[4000] <= 5 * times[1000], times
