#!/usr/bin/env python3
"""Golden differential check: what ``leril`` prints here against a base revision.

    python scripts/golden.py --base HEAD [--allow GLOB ...]
    python scripts/golden.py --batch

Builds a fixed, deterministic list of cases and runs every one through
``leril.cli.run`` in-process, once with the sources of this working tree
and once with those of ``--base`` (extracted with ``git archive`` into a
temporary directory, so no network is needed). Each tree runs in its own
child process. The cases are:

- every subcommand on ``tests/fixtures/`` and on a few generated inputs
  (empty, not UTF-8, BOM, NUL, CR line ends, the characters other than CR
  and LF that ``str.splitlines`` breaks at, deep, nested and malformed
  brackets, a dictionary with every character JSON escapes, a lexicon
  record without meanings, a missing file, a directory), with
  and without ``--strict``, plus transfer sentences and
  literal frames, transfer over a lexicon that mixes malformed frame pairs
  with good ones, and ``--tagset`` / ``LERIL_TAGSET`` variants;
- ``-h`` of every command and subcommand, and usage errors;
- treebank store lifecycles: adds, reads, hand edits (a line without
  ``# id`` appended after ``corpus add`` named a sentence without one), a
  data file cut back or restored from a copy, a torn last line, damaged
  sidecars;
- the prepare ops and ops of the three bench workloads for seeds 1-3, built
  by the ``setup`` functions of ``bench/*.py`` (read, not changed).

Every store case runs twice: with the sidecars the writers leave, and with
every sidecar deleted before each command. After a lifecycle with sidecars,
the reads run on a copy of the store it leaves (the ``own/`` cases). The
stores the ``--base`` run leaves are kept, and both trees run the reads on
a copy of them too (the ``kept/`` cases). A store the base wrote must read
here as it reads there, and as the store written here reads here: a change
to what a line parses to, or to the sidecar's layout, that does not bump
``SIDECAR_VERSION`` leaves base-written sidecars that read differently.

A case is one command; it compares stdout, stderr and the exit code (or
the ``SystemExit`` code, or the type and text of an escaping exception),
with the temporary directory replaced by ``<TMP>``. Long outputs are
compared by digest.

``--allow GLOB`` (repeatable) names cases whose difference is intended;
they are listed but do not fail the run. A case of this working tree that
exits 4 (an internal error), lets an exception escape or prints
``Traceback`` fails the run whatever ``--allow`` says, in both modes. Exit
status: 0 when no case is such a fault and no other case differs, 1
otherwise. Standard library only.

``--batch`` checks ``leril batch`` against separate runs, in this working
tree alone. Every case that a batch line can hold (it sets no LERIL_TAGSET,
reads no stdin of its own and has at least one argument, none holding a line
end) runs on its own, and then again through ``leril batch``: the standalone
cases in one batch, and the commands of each store lifecycle (with sidecars)
and bench scenario in one batch per stretch between two of its other steps,
from the same starting state. Each command's framed stdout, its stderr and
its ``exit N`` line must equal its separate run, and each batch must exit
with the worst code of its commands.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import io
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import tarfile
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
BENCH = ROOT / "bench"
SEEDS = (1, 2, 3)
LONG = 4096  # outputs longer than this are compared by digest
READS = [
    ["corpus", "query", "k1"],
    ["corpus", "query", "k2"],
    ["corpus", "query", "kr"],
    ["corpus", "query", "k4"],
    ["corpus", "query", "zz"],
    ["corpus", "stats"],
    ["corpus", "stats", "--strict"],
    ["corpus", "export"],
    ["corpus", "export", "--format", "interchange"],
]


class Cmd:
    """One ``leril`` command line, with its stdin bytes and LERIL_TAGSET."""

    __slots__ = ("name", "argv", "stdin", "tagset")

    def __init__(self, name, argv, stdin=None, tagset=None):
        self.name, self.argv, self.stdin, self.tagset = name, argv, stdin, tagset


def _fault(outcome: list) -> bool:
    """Whether a case's outcome is a fault of leril: exit 4, an escaping
    exception, or a traceback printed."""
    code = outcome[-1]
    return code == 4 or str(code).startswith("raised ") or "Traceback" in "".join(map(str, outcome))


def _reads(store: Path, *extra: str) -> list:
    return [Cmd(" ".join(argv), [*argv, "--store", str(store), *extra]) for argv in READS]


# ---------------------------------------------------------------- inputs


def _inputs(tmp: Path) -> dict[str, Path]:
    """The fixtures and the generated inputs, by name, copied under ``tmp``."""
    folder = tmp / "in"
    shutil.copytree(FIXTURES, folder)
    sentences = (FIXTURES / "sentences.anncorra").read_bytes()
    generated = {
        "empty.txt": b"",
        "not-utf8.txt": b"\xff\xfe# a\n",
        "bom.anncorra": b"\xef\xbb\xbf" + sentences,
        "nul.anncorra": b"rAma_ne/k1 a\x00b piyA::v\n",
        "cr.anncorra": sentences.replace(b"\n", b"\r"),
        "crlf.dict": (FIXTURES / "go.dict").read_bytes().replace(b"\n", b"\r\n"),
        "u2028.anncorra": "rAma_ne/k1 piyA::v\n".encode(),
        "deep.anncorra": b"[" * 300 + b"x/k1 y::v" + b"]<s>" * 300 + b"\n",
        "deep.formula": b"a[" * 300 + b"b" + b"]" * 300 + b"\n",
        # malformed glosses, some on indented sense lines: each error's column is in its line
        "glosses.dict": (
            b'"go", "V",\n--"1.ab[<x"\nI go.\n  --"2.c//d"\n\t-- "3.x{}"\n--"4.jAnA"\n'
            b'I go to school.\n --  "5.a~" \n--"6.x[<y][<z]"\n--"7.x]"\n'
        ),
        # malformed stages, some on indented continuation lines: each error's
        # column is in the line that holds it
        "stages.thread": (
            b"a (b --> c\n\nx\n  -->  b)\t c\n\ny\n-->\tb (c)  d\n\nz --> --> w\n\n"
            b"ok (fine) eg: one, two\n  --> done\n"
        ),
        "frames.tlg": b'HEADWORD::"x","V"\nMEANING::1::"y"\nFRAME_E:: []\nFRAME_I:: [[\n',
        # a record without meanings, then a complete one
        "no-meanings.tlg": b'HEADWORD::"go","V"\n' + (FIXTURES / "go.tlg").read_bytes(),
        # padded names and values, names that are not names, an alias, duplicate
        # single fields, continuations after every kind of field, a skipped record
        "fields.tlg": "\n".join([
            'HEADWORD::"go","V"', 'MEANING::1::"jAnA"', "the gloss goes on",
            "\u00a0ENG_EXP\u00a0::\u3000I go to school.\u00a0",
            "TR_NAT ::  maiM skUla jAtA hUM.\u3000", "and on", "\u3000TR_ENG_INFLNCE::\u3000",
            "FRAME_E\x1c:: A goes to B", "FRAME_E :: A goes to B",
            "FRAME_I:: A B [ko] jAtA hai\x1c", "FRAME_I:: A B [ko] jAtA hai", "ERR ::",
            "X_NOTE:: kept", "continued", "A:B:: x", "A B:: x", "1A:: x", ":: x", "COMNT::",
            "COMNT:: a note", "wrapped", 'MEANING::2::"rakhA~jAnA"',
            "ENG_EXP:: These clothes go into that suitcase.", "TR_NAT:: ye kapaDe",
            "\x1cTR_NAT\x1c:: rakhe jAyeMge", "FRAME_E:: A goes into B",
            "FRAME_I:: A B meM rakhA_jAtA_hai", 'HEADWORD::go,V', 'MEANING::1::"x"',
            "ENG_EXP:: skipped", "stray", 'HEADWORD::"come","V"', 'MEANING::1::"AnA"',
            "ENG_EXP:: I come home.", "TR_NAT:: maiM ghara AtA hUM.", "FRAME_E:: A comes B",
            "FRAME_I:: A B AtA hai", "",
        ]).encode(),
        **_breaks(),
        "escapes.dict": _escapes(),
        "mixed_frames.tlg": _mixed_frames(),
        # one line per error the token walk names ("empty token" aside: no line
        # holds an empty token), some in brackets, some after an unknown tag
        "tokens.anncorra": (
            b"rAma_ne/k1 a]b piyA::v\n[/k1 piyA::v]<s>\nx/ piyA::v\nx/k9: piyA::v\n"
            b"[[x::v:]<s> a/k1]<s> piyA::v\nx/Q7-> piyA::v\nx->i piyA::v\nx/zz x:: piyA::v\n"
            b"[x/k1:i::v:j piyA::v]<s>\nx:y piyA::v\npiyA::v:i->j\nx::zz:I piyA::v\n"
            b"[a[b piyA::v]<s>]<s>\na<b c>d x/k1:A piyA::v\nx/ y/k1-> /k1 piyA::v\n"
        ),
        # each bracket shape alone, before a verb and inside a group; then 16 groups on one token
        "brackets.anncorra": b"".join(
            b"%s\n%s piyA::v\n[a/k1 %s piyA::v]<s>\n" % (shape, shape, shape)
            for shape in (b"]<s>", b"x]", b"x]<>", b"[]<s>", b"x/k1]<s>]<t>", b"x]<a>b]<c>",
                          b"]<a]<b>", b"[", b"]<s", b"[x/k1", b"[[[a/k1 b/k2]<s> c::v]<s>]<s>")
        ) + b"[" * 16 + b"a/k1" + b"]<s>" * 16 + b" piyA::v\n[[[a/k1]<s>]<k1>]<zz> piyA::v\n",
        # 64 nested groups, each opening on a tagged token, then on a bare one; bare
        # tokens that their innermost group cannot take; bare tokens in a longer
        # group and a shorter one
        "nested.anncorra": "".join(
            "".join(f"[a{i}{tag} " for i in range(64)) + "piyA::v" + "]<s>" * 64 + "\n"
            for tag in ("/k1", "")
        ).encode() + (
            b"[[x/k1 c y/k2]<k1> v::v]<s>\n[[[c]<s>]<k1>]<s> v::v\n"
            b"[a b/k1 c::v]<s> [d e/k2::v]<k1>\n"
        ),
        "mixed.anncorra": (
            b"# m1\nraama/k1 gayA::v\n\nsiitaa/k2 dekhA::v\n# c\n# m3 note\n"
            b"[x/k1 y::v]<s> z/k2\na/k1->q b::v\n# m1\npiyA::v\n"
        ),
    }
    for name, data in generated.items():
        (folder / name).write_bytes(data)
    paths = {p.name: p for p in sorted(folder.iterdir())}
    paths["missing"] = folder / "no-such-file"
    paths["directory"] = folder
    return paths


# the characters that end no line, though str.splitlines breaks at them
BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _breaks() -> dict[str, bytes]:
    """One input per notation holding each of BREAKS inside a value, and all
    of them inside a comment and at a line end. The dictionary, formula,
    thread and AnnCorra inputs end in a malformed line, whose diagnostic
    shows how many lines come before it."""
    files = {
        "breaks.dict": ['"go", "V",' + BREAKS, '--"1.jAnA"',
                        *(f"I go{c} to school." for c in BREAKS),
                        f'--"2.ho~jAnA{{sthi{BREAKS}ti}}"', "Have you gone mad?", "--oops"],
        "breaks.formula": [f"# core{BREAKS}formula", "viSaya[~~ < niSpAdana]" + BREAKS,
                           *(f"vi{c}Saya[~ < jAnA]" for c in BREAKS), "a["],
        "breaks.thread": [f"# thread{BREAKS}note", f"niSpAdana(astitwa{BREAKS}meM IAnA/AnA)",
                          "--> niSpatti kA srota" + BREAKS,
                          *(f"--> niSpatti (santAna{c} etc)" for c in BREAKS), "", "--> orphan"],
        "breaks-alias.tsv": [f"# aliases{BREAKS}here", "viSaya\tniSpatti" + BREAKS,
                             *(f"vi{c}Saya\tniSpAdana" for c in BREAKS)],
        "breaks.cfg": [f"# tags{BREAKS}here", "k5\trelation\tnonverbal\tlocation" + BREAKS,
                       *(f"k4{k}\trelation\tnonverbal\trecipient{c}{k}"
                         for k, c in enumerate(BREAKS))],
        "breaks-words.txt": [f"# words{BREAKS}here", "come" + BREAKS,
                             *(f"nope{c}go" for c in BREAKS)],
        "breaks.anncorra": ["# note\u2028 here", "rAma_ne/k1 piyA::v", f"# s2 note{BREAKS}",
                            "piyA::v" + BREAKS,
                            *(f"# b{k}\nrAma_ne/k1{c}piyA::v" for k, c in enumerate(BREAKS)),
                            "a/k1->q piyA::v:i"],
    }
    return {name: ("\n".join(lines) + "\n").encode() for name, lines in files.items()}


# what json.dumps escapes, line ends aside, and a few characters it writes as they are
ESCAPES = (
    '"\\' + "".join(c for c in map(chr, range(0x20)) if c not in "\n\r")
    + "\x7f\u2028\u2029\u00e9\U0001f600"
)


def _escapes() -> bytes:
    """A dictionary with ESCAPES inside every string field of its interchange
    document (a headword holds no '"', so headwords have only '\\'), an entry
    without senses, a sense without examples and a gloss with both annotations."""
    lines = [
        '"go\\", "V",', f'--"1.ja{ESCAPES}nA"', f"I go{ESCAPES} to school.",
        f'--"2.rakhA~ja{ESCAPES}nA/x[<ja{ESCAPES}nA]{{sthi{ESCAPES}ti}}"',
        '"\\", "N",', '"go", "V\\",', '--"1.jAnA{samaya}"',
        f'--"2.calanA[<x{ESCAPES}]"', "How did the meeting go?", f"And{ESCAPES}then?",
    ]
    return ("\n".join(lines) + "\n").encode()


def _mixed_frames() -> bytes:
    """Malformed frame pairs before, between and after pairs that match the
    transfer sentences and pairs that do not."""
    frames = {
        "go": [("A A goes to B", "A B jAtA hai"),  # duplicate source slot
               ("A goes to B", "A B [ko] jAtA hai"),
               ("A flies over B", "A B [] uDatA hai"),  # [] in the target, most sources fail
               ("A goes into B", "A B meM rakhA_jAtA_hai"),
               ("[] A goes", "A jAtA hai"),  # [] in the source
               ("A goes B", "A B B jAtA hai"),  # duplicate target slot
               ("A goes C", "A B jAtA hai")],  # unbound target slot
        "come": [("A comes to B", "A B [ko] AtA hai"),
                 ("A [to] B", "A B"),
                 ("A go to B", "A B [] jAtA hai")],  # [] in the target, "I go to school" matches
    }
    lines = []
    for headword, pairs in frames.items():
        lines.append(f'HEADWORD::"{headword}","V"')
        for number, (source, target) in enumerate(pairs, 1):
            lines += [f'MEANING::{number}::"x"', f"FRAME_E:: {source}", f"FRAME_I:: {target}"]
    return ("\n".join(lines) + "\n").encode()


def _file_cases(inputs: dict[str, Path]) -> list[Cmd]:
    """Every file-reading subcommand on every input, with and without --strict."""
    fixture = {name: str(inputs[name]) for name in inputs}
    templates = [
        ["dict", "parse", "{}"],
        ["dict", "parse", "{}", "--format", "text"],
        ["dict", "emit", "{}"],
        ["dict", "lookup", "{}", "go"],
        ["dict", "lookup", "{}", "go", "--format", "interchange"],
        ["dict", "lookup", "{}", "go", "--pos", "V"],
        ["dict", "lookup", "{}", "nope"],
        ["dict", "filter", "{}", "--wordlist", fixture["wordlist.txt"]],
        ["dict", "filter", fixture["go.dict"], "--wordlist", "{}"],
        ["tlg", "parse", "{}"],
        ["tlg", "parse", "{}", "--format", "text"],
        ["tlg", "validate", "{}"],
        ["tlg", "emit", "{}"],
        ["tlg", "corpus", "{}"],
        ["tlg", "seed", "--dict", "{}"],
        ["tlg", "seed", "--dict", "{}", "--headword", "go"],
        ["tlg", "seed", "--dict", "{}", "--headword", "nope"],
        ["anncorra", "parse", "{}"],
        ["anncorra", "check", "{}"],
        ["anncorra", "convert", "{}"],
        ["anncorra", "convert", "{}", "--explicit"],
        ["anncorra", "convert", "{}", "--minimize"],
        ["anncorra", "parse", "{}", "--tagset", fixture["tagset_k4.cfg"]],
        ["anncorra", "check", "{}", "--tagset", fixture["tagset_k4.cfg"]],
        ["anncorra", "convert", "{}", "--minimize", "--tagset", fixture["tagset_k4.cfg"]],
        ["anncorra", "parse", fixture["sentences.anncorra"], "--tagset", "{}"],
        ["sutra", "parse-formula", "{}"],
        ["sutra", "parse-thread", "{}"],
        ["sutra", "check", "{}", fixture["issue.thread"]],
        ["sutra", "check", fixture["issue.formula"], "{}"],
        ["sutra", "check", fixture["issue.formula"], fixture["issue.thread"], "--alias", "{}"],
        ["transfer", "--lexicon", "{}", "I go to school."],
        ["transfer", "--lexicon", "{}", "These clothes go into that suitcase.", "--gloss-slots"],
        ["transfer", "--lexicon", "{}", "I go to school.", "--headword", "go", "--sense", "1"],
    ]
    cases = []
    for name, path in inputs.items():
        for template in templates:
            argv = [str(path) if arg == "{}" else arg for arg in template]
            for strict in ([], ["--strict"]):
                label = " ".join(template[:2]) + f" #{templates.index(template)}"
                cases.append(Cmd(f"file/{label}/{name}{''.join(strict)}", argv + strict))
        if name.endswith((".anncorra", ".cfg", ".txt")) or name in ("missing", "directory"):
            for sub in ("parse", "check", "convert"):
                argv = ["anncorra", sub, fixture["sentences.anncorra"]]
                cases.append(Cmd(f"file/anncorra {sub} LERIL_TAGSET/{name}", argv, tagset=str(path)))
    for name in ("sentences.anncorra", "go.dict", "go.tlg", "issue.formula", "empty.txt"):
        data = inputs[name].read_bytes()
        for argv in (["anncorra", "convert", "-"], ["dict", "parse", "-"], ["tlg", "emit", "-"],
                     ["sutra", "parse-formula", "-"]):
            cases.append(Cmd(f"stdin/{' '.join(argv[:2])}/{name}", argv, stdin=data))
    return cases


def _transfer_cases(inputs: dict[str, Path]) -> list[Cmd]:
    """Transfer of fixture sentences over the lexicon and as literal frames."""
    lexicon = str(inputs["go.tlg"])
    text = inputs["go.tlg"].read_text(encoding="utf-8")
    fields = [line.partition("::") for line in text.splitlines()]
    sentences = [value.strip() for key, _, value in fields if key == "ENG_EXP"]
    sentences += ["I go to the school.", "She goes to school quickly.", "", "go"]
    frames_e = [value.strip() for key, _, value in fields if key == "FRAME_E"]
    frames_i = [value.strip() for key, _, value in fields if key == "FRAME_I"]
    frames = list(zip(frames_e, frames_i)) + [("[]", "A"), ("A goes [[", "A"), ("A B", "[]")]
    cases = []
    for k, sentence in enumerate(sentences):
        for optional in ("include", "omit", "mark"):
            for extra in ([], ["--gloss-slots"], ["--headword", "go"], ["--headword", "nope"],
                          ["--headword", "go", "--sense", "2"], ["--sense", "1"]):
                argv = ["transfer", sentence, "--lexicon", lexicon, "--optional", optional, *extra]
                cases.append(Cmd(f"transfer/lexicon/{k}/{optional}/{' '.join(extra)}", argv))
            for j, (source, target) in enumerate(frames):
                argv = ["transfer", sentence, "--frame-e", source, "--frame-i", target,
                        "--optional", optional]
                cases.append(Cmd(f"transfer/literal/{k}/{j}/{optional}", argv))
    mixed = str(inputs["mixed_frames.tlg"])
    for k, sentence in enumerate(sentences[:3] + ["She goes home.", "He flies over it"]):
        for strict in ([], ["--strict"]):
            argv = ["transfer", sentence, "--lexicon", mixed, *strict]
            cases.append(Cmd(f"transfer/mixed/{k}{''.join(strict)}", argv))
    cases += [
        Cmd("transfer/usage/frame-e-alone", ["transfer", "x", "--frame-e", "A goes"]),
        Cmd("transfer/usage/no-lexicon", ["transfer", "x"]),
        Cmd("transfer/usage/frames-and-headword",
            ["transfer", "x", "--frame-e", "A", "--frame-i", "A", "--headword", "go"]),
        Cmd("transfer/usage/bad-optional", ["transfer", "x", "--lexicon", lexicon,
                                            "--optional", "sometimes"]),
        Cmd("transfer/usage/sense-not-int", ["transfer", "x", "--lexicon", lexicon,
                                             "--headword", "go", "--sense", "one"]),
    ]
    return cases


def _help_cases() -> list[Cmd]:
    """Help of every command and subcommand, and usage errors."""
    subcommands = {
        "dict": ["parse", "emit", "lookup", "filter"],
        "tlg": ["parse", "validate", "seed", "emit", "corpus"],
        "anncorra": ["parse", "check", "convert"],
        "sutra": ["parse-formula", "parse-thread", "check"],
        "corpus": ["add", "query", "stats", "export"],
    }
    argvs = [[], ["-h"], ["--help"], ["nope"], ["--strict"], ["transfer"], ["transfer", "-h"]]
    for command, subs in subcommands.items():
        argvs += [[command], [command, "-h"], [command, "nope"]]
        for sub in subs:
            argvs += [[command, sub], [command, sub, "-h"], [command, sub, "x", "--bogus"]]
    argvs += [
        ["dict", "parse", "x", "--format", "xml"],
        ["tlg", "parse", "x", "--format", "xml"],
        ["corpus", "export", "--store", "x", "--format", "xml"],
        ["anncorra", "convert", "x", "--explicit", "--minimize"],
        ["dict", "filter", "x"],
        ["corpus", "add", "x"],
        ["corpus", "query", "k1"],
    ]
    return [Cmd(f"help/{' '.join(argv) or '-'}", argv) for argv in argvs]


# ---------------------------------------------------------------- stores


def _cut(fraction):
    def action(store: Path) -> None:
        for data in sorted(store.glob("*.anncorra")):
            raw = data.read_bytes()
            data.write_bytes(raw[: int(len(raw) * fraction)])

    return action


def _flip(fraction):
    def action(store: Path) -> None:
        for sidecar in sorted(store.glob("*.idx")):
            raw = bytearray(sidecar.read_bytes())
            if raw:
                raw[min(int(len(raw) * fraction), len(raw) - 1)] ^= 0x01
                sidecar.write_bytes(raw)

    return action


def _append(text: bytes, name="hin.anncorra"):
    def action(store: Path) -> None:
        with (store / name).open("ab") as fh:
            fh.write(text)

    return action


def _copy_and_restore():
    """Two actions: keep a copy of the data files, and write it back."""
    kept: dict[str, bytes] = {}

    def copy(store: Path) -> None:
        kept.update({p.name: p.read_bytes() for p in store.glob("*.anncorra")})

    def restore(store: Path) -> None:
        for name, data in kept.items():
            (store / name).write_bytes(data)

    return copy, restore


def _store_scenarios(inputs: dict[str, Path]) -> list[tuple[str, object]]:
    """Store lifecycles as (name, steps(folder) -> list of Cmd or actions)."""
    path = {name: str(p) for name, p in inputs.items()}
    k4 = path["tagset_k4.cfg"]
    langs = {"und": [], "hin": ["--lang", "hin"], "outside": ["--lang", "../x"],
             "hin-k4": ["--lang", "hin", "--tagset", k4]}

    def add(store, source, *extra):
        return Cmd(f"add {Path(source).name}", ["corpus", "add", source, "--store", str(store),
                                                *extra])

    scenarios = []
    for source in ("sentences.anncorra", "mixed.anncorra", "cr.anncorra", "bom.anncorra",
                   "deep.anncorra", "breaks.anncorra", "tokens.anncorra", "empty.txt",
                   "not-utf8.txt", "missing", "go.dict"):
        # a store is made first, so that the reads after an add that fails on
        # its input read one
        unreadable = source in ("missing", "not-utf8.txt")
        first = [path["sentences.anncorra"], "--lang", "tel"] if unreadable else []
        for label, lang in langs.items():
            def steps(store, source=source, lang=lang, first=first):
                made = [add(store, *first)] if first else []
                return [*made, add(store, path[source], *lang), *_reads(store),
                        *_reads(store, "--tagset", k4)]

            scenarios.append((f"store/add/{source}/{label}", steps))

    pool = path["mixed.anncorra"]
    sentences = path["sentences.anncorra"]

    def two_adds(store):
        return [add(store, sentences, "--lang", "hin"), add(store, pool, "--lang", "hin"),
                *_reads(store), add(store, sentences, "--lang", "hin"), *_reads(store)]

    def two_languages(store):
        return [add(store, sentences, "--lang", "hin"), add(store, pool, "--lang", "tel"),
                *_reads(store), add(store, pool, "--lang", "hin"), *_reads(store)]

    def hand_appended(store):
        return [add(store, sentences, "--lang", "hin"),
                _append(b"raama/k1 gayA::v\n\n# t1 note\nsiitaa/k2 dekhA::v\n# dangling\n"),
                *_reads(store), add(store, pool, "--lang", "hin"), *_reads(store)]

    def torn(store):
        return [add(store, pool, "--lang", "hin"), _append(b"# s9\nsiitaa/k1 ga"),
                *_reads(store), add(store, sentences, "--lang", "hin"), *_reads(store)]

    def torn_utf8(store):
        return [add(store, sentences, "--lang", "hin"), _append(b"siitaa/k1 g\xc3"),
                *_reads(store), add(store, pool, "--lang", "hin"), *_reads(store)]

    def unterminated(store):
        return [add(store, pool, "--lang", "hin"), _append(b"# s9\nraama/k1 gayA::v"),
                *_reads(store), add(store, sentences, "--lang", "hin"), *_reads(store)]

    def restored(store):
        copy, restore = _copy_and_restore()
        return [add(store, sentences, "--lang", "hin"), copy, add(store, pool, "--lang", "hin"),
                restore, *_reads(store), add(store, pool, "--lang", "hin"), *_reads(store)]

    def stdin_add(store):
        data = inputs["mixed.anncorra"].read_bytes()
        return [Cmd("add -", ["corpus", "add", "-", "--store", str(store)], stdin=data),
                *_reads(store)]

    def id_collision(store):
        # mixed.anncorra's sentence without an id is added as und-1; a line appended by hand
        # without one then reads as the next free und-k
        return [add(store, pool), _append(b"z/k2 w::v\n", "und.anncorra"), *_reads(store),
                add(store, pool), _append(b"y/k1 x::v\n", "und.anncorra"), *_reads(store)]

    def store_tagset(store):
        def tagset(s):
            s.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(k4, s / "tagset.cfg")

        return [tagset, add(store, sentences), _append(b"raama/k4 gayA::v\n", "und.anncorra"),
                *_reads(store), add(store, pool), *_reads(store)]

    for name, steps in [("two-adds", two_adds), ("two-languages", two_languages),
                        ("hand-appended", hand_appended), ("torn", torn),
                        ("torn-utf8", torn_utf8), ("unterminated", unterminated),
                        ("restored", restored), ("stdin", stdin_add),
                        ("id-collision", id_collision),
                        ("store-tagset", store_tagset)]:
        scenarios.append((f"store/{name}", steps))
    for fraction in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        def cut(store, fraction=fraction):
            return [add(store, sentences, "--lang", "hin"), add(store, pool, "--lang", "hin"),
                    _cut(fraction), *_reads(store), add(store, sentences, "--lang", "hin"),
                    *_reads(store)]

        def flipped(store, fraction=fraction):
            return [add(store, sentences, "--lang", "hin"), add(store, pool, "--lang", "hin"),
                    _flip(fraction), *_reads(store), add(store, sentences, "--lang", "hin"),
                    *_reads(store)]

        scenarios.append((f"store/cut-{fraction}", cut))
        scenarios.append((f"store/sidecar-byte-{fraction}", flipped))
    return [(name, lambda folder, steps=steps: steps(folder / "store")) for name, steps in scenarios]


# ---------------------------------------------------------------- bench


def _bench_scenarios(tmp: Path) -> list[tuple[str, object, bool]]:
    """The bench workloads' ops as (name, steps(folder), store case?)."""
    sys.path.insert(0, str(BENCH))
    spec = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
    import convert_long  # noqa: E402  (bench modules, importable from BENCH only)
    import lexicon
    import treebank

    modules = {"treebank": treebank, "convert_long": convert_long, "lexicon": lexicon}
    scenarios = []
    for name, module in modules.items():
        sizes = spec["workloads"][name]["sizes"]
        for seed in SEEDS:
            def steps(folder, module=module, name=name, sizes=sizes, seed=seed):
                workload = module.setup(folder, random.Random(f"{name}:{seed}"), sizes)
                ops = [Cmd(f"prepare {k} {op.kind}", op.argv) for k, op in enumerate(workload.prepare)]
                for run in (1, 2):  # the second pass starts from the restored data file
                    ops.append(lambda _store, reset=workload.reset: reset())
                    ops += [Cmd(f"pass {run} op {k} {op.kind}", op.argv)
                            for k, op in enumerate(workload.ops)]
                return ops

            scenarios.append((f"bench/{name}/seed{seed}", steps, name == "treebank"))
    return scenarios


# ---------------------------------------------------------------- worker


def _execute(run, cmd: Cmd) -> list:
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    if cmd.stdin is not None:
        sys.stdin = io.TextIOWrapper(io.BytesIO(cmd.stdin))
    if cmd.tagset is not None:
        os.environ["LERIL_TAGSET"] = cmd.tagset
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = run(list(cmd.argv))
            except SystemExit as exc:
                code = f"SystemExit {exc.code}"
            except Exception as exc:  # an escaping exception is an outcome too
                code = f"raised {type(exc).__name__}: {exc}"
    finally:
        sys.stdin = stdin
        os.environ.pop("LERIL_TAGSET", None)
    return [out.getvalue(), err.getvalue(), code]


def _normalise(outcome: list, tmp: str) -> list:
    result = []
    for value in outcome:
        if isinstance(value, str):
            value = value.replace(tmp, "<TMP>")
            if len(value) > LONG:
                digest = hashlib.sha256(value.encode("utf-8", "surrogatepass")).hexdigest()
                value = f"sha256 {digest} ({len(value)} chars)"
        result.append(value)
    return result


def _load_run(src: Path):
    """``leril.cli.run`` of the sources under ``src``, and no other."""
    sys.path.insert(0, str(src))
    import leril
    import leril.cli

    if Path(leril.__file__).resolve().parent != src.resolve() / "leril":
        raise SystemExit(f"error: imported leril from {leril.__file__}, not {src}")
    os.environ.pop("LERIL_TAGSET", None)
    return leril.cli.run


def worker(src: Path, out_path: Path, stores: Path, keep: bool) -> None:
    """Run every case with the leril sources under ``src``; write the outcomes.

    With ``keep``, the store each lifecycle leaves with its sidecars is also
    copied into ``stores``. The reads then run on a copy of every store there.
    """
    run = _load_run(src)
    results: dict[str, list] = {}
    faults: list[str] = []

    def record(case: str, cmd: Cmd) -> None:
        assert case not in results, f"two cases named {case!r}"
        outcome = _execute(run, cmd)
        if _fault(outcome):
            faults.append(case)
        results[case] = _normalise(outcome, name)

    def read(label: str, store: Path) -> None:
        """The reads on a copy of ``store``, at one path for every copy."""
        copy = tmp / "read" / "store"
        shutil.copytree(store, copy)
        for extra in ((), ("--tagset", str(inputs["tagset_k4.cfg"]))):
            for cmd in _reads(copy, *extra):
                record(f"{label}/{cmd.name}{' --tagset' if extra else ''}", cmd)
        shutil.rmtree(copy.parent)

    with tempfile.TemporaryDirectory(prefix="golden-") as name:
        tmp = Path(name)
        inputs = _inputs(tmp)
        for cmd in _help_cases() + _file_cases(inputs) + _transfer_cases(inputs):
            record(cmd.name, cmd)
        sequences = [(n, steps, True) for n, steps in _store_scenarios(inputs)]
        sequences += _bench_scenarios(tmp)
        for k, (scenario, steps, store_case) in enumerate(sequences):
            for variant in ("sidecar", "plain") if store_case else ("",):
                folder = tmp / "runs" / f"{k}{variant}"
                folder.mkdir(parents=True)
                store = folder / "store"
                label = f"{scenario}@{variant}" if variant else scenario
                for step, item in enumerate(steps(folder)):
                    if not isinstance(item, Cmd):
                        item(store)
                        continue
                    if variant == "plain":
                        for sidecar in store.glob("*.idx"):
                            sidecar.unlink()
                    record(f"{label}/{step} {item.name}", item)
                if variant == "sidecar" and store.exists():
                    read(f"own/{scenario}", store)
                    if keep:
                        shutil.copytree(store, stores / str(k))
                shutil.rmtree(folder)
        for k, (scenario, _steps, _store_case) in enumerate(sequences):
            if (stores / str(k)).exists():
                read(f"kept/{scenario}", stores / str(k))
    out_path.write_text(json.dumps({"outcomes": results, "faults": faults}), encoding="utf-8")


# ---------------------------------------------------------------- batch


def _batchable(cmd: Cmd) -> bool:
    return (cmd.tagset is None and cmd.stdin is None and bool(cmd.argv)
            and not any("\n" in arg or "\r" in arg for arg in cmd.argv))


def _alone(run, cmd: Cmd) -> list:
    """``cmd``'s outcome, with the code of a SystemExit (``-h``) as its exit code."""
    outcome = _execute(run, cmd)
    if str(outcome[2]).startswith("SystemExit "):
        outcome[2] = int(outcome[2].split()[1])
    return outcome


def _batched(run, script: Path, cmds: list) -> list:
    """The outcome of each of ``cmds`` as one ``leril batch`` of them prints
    it, read back from its framing, then the batch's own exit code."""
    lines = [shlex.join(cmd.argv) for cmd in cmds]
    script.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    out, err, code = _execute(run, Cmd("batch", ["batch", str(script)]))
    headers = [f"==> line {k}: {line} <==\n" for k, line in enumerate(lines, 1)]
    starts, at = [], 0
    for header in headers:
        at = out.find(header, at)
        if at < 0:
            break
        starts.append(at)
        at += len(header)
    stdouts = [out[start + len(header):end] for start, header, end
               in zip(starts, headers, starts[1:] + [len(out)])]
    parts = re.split(r"(?m)^exit (-?\d+)\n", err)  # stderr, code, stderr, code, ..., rest
    outcomes = [[o, e, int(c)] for o, e, c in zip(stdouts, parts[0::2], parts[1::2])]
    unframed = out[:starts[0] if starts else len(out)], parts[-1]
    if any(unframed):  # output before the first header or after the last exit line
        outcomes.append(["unframed", *unframed])
    return outcomes + [code]


def _steps_outcomes(run, tmp: Path, steps: list, batched: bool) -> list:
    """The outcomes of the batchable commands of ``steps``, run on their own
    or, with ``batched``, in one batch per stretch between two other steps;
    after each stretch, the worst exit code of its commands."""
    outcomes: list = []
    stretch: list = []

    def close() -> None:
        if batched and stretch:
            outcomes.extend(_batched(run, tmp / "batch.txt", stretch))
        elif stretch:
            alone = [_alone(run, cmd) for cmd in stretch]
            outcomes.extend(alone + [max(code for *_, code in alone)])
        stretch.clear()

    for item in steps:
        if isinstance(item, Cmd) and _batchable(item):
            stretch.append(item)
            continue
        close()
        if isinstance(item, Cmd):
            _execute(run, item)
        else:
            item(tmp / "store")
    close()
    return outcomes


def batch_check(src: Path) -> int:
    """Every batchable case alone and in ``leril batch``; 0 when all agree."""
    run = _load_run(src)
    differing, faults, cases = [], 0, 0
    with tempfile.TemporaryDirectory(prefix="golden-batch-") as name:
        tmp = Path(name)
        inputs = _inputs(tmp)
        standalone = _help_cases() + _file_cases(inputs) + _transfer_cases(inputs)
        sequences = [("standalone", lambda folder: standalone)]
        sequences += _store_scenarios(inputs)
        sequences += [(n, steps) for n, steps, _store_case in _bench_scenarios(tmp)]
        for scenario, steps in sequences:
            sides = []
            for batched in (False, True):
                folder = tmp / "run"
                folder.mkdir()
                sides.append(_steps_outcomes(run, folder, steps(folder), batched))
                shutil.rmtree(folder)
            alone, batch = sides
            cases += sum(isinstance(outcome, list) for outcome in alone)
            for side, outcomes in (("alone", alone), ("batch", batch)):
                for k, outcome in enumerate(outcomes):
                    if isinstance(outcome, list) and _fault(outcome):
                        faults += 1
                        print(f"FAULT: {scenario}, {side} outcome {k}: {str(outcome)[:300]!r}")
            if alone != batch:
                k = next((k for k, pair in enumerate(zip(alone, batch)) if pair[0] != pair[1]),
                         min(len(alone), len(batch)))
                differing.append(scenario)
                print(f"DIFFERS: {scenario}, outcome {k} of {len(alone)}")
                for side, outcomes in (("alone", alone), ("batch", batch)):
                    print(f"  {side}: {str(outcomes[k:k + 1])[:300]!r}")
    print(f"golden batch: {cases} cases in {len(sequences)} scenarios, "
          f"{len(differing)} scenarios differ, {faults} faults")
    return 1 if differing or faults else 0


# ---------------------------------------------------------------- driver


def _run_worker(src: Path, out_path: Path, stores: Path, keep: bool) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["COLUMNS"] = "100"
    argv = [sys.executable, __file__, "--worker", str(src), str(out_path), str(stores)]
    subprocess.run(argv + ["--keep"] * keep, check=True, env=env)
    return json.loads(out_path.read_text(encoding="utf-8"))


def _extract(revision: str, into: Path) -> Path:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", revision, "src"],
        check=True, capture_output=True,
    ).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **safe)
    return into / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision to compare with")
    parser.add_argument("--allow", action="append", default=[], metavar="GLOB",
                        help="cases whose difference is intended (fnmatch glob; repeatable)")
    parser.add_argument("--worker", nargs=3, metavar=("SRC", "OUT", "STORES"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--keep", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--batch", action="store_true",
                        help="compare leril batch with separate runs, in this tree alone")
    args = parser.parse_args(argv)
    if args.worker:
        worker(*map(Path, args.worker), args.keep)
        return 0
    if args.batch:
        return batch_check(ROOT / "src")
    if not args.base:
        parser.error("--base is required")
    with tempfile.TemporaryDirectory(prefix="golden-base-") as name:
        tmp = Path(name)
        stores = tmp / "stores"
        stores.mkdir()
        base = _run_worker(_extract(args.base, tmp / "base"), tmp / "base.json", stores, True)
        here = _run_worker(ROOT / "src", tmp / "here.json", stores, False)
    faults, base, here = here["faults"], base["outcomes"], here["outcomes"]
    pairs = [(case, base.get(case), here.get(case)) for case in base.keys() | here.keys()]
    # a store the base wrote reads here as the store written here does
    pairs += [(f"{case} against own/", here.get(f"own/{case[5:]}"), outcome)
              for case, outcome in here.items() if case.startswith("kept/")]
    differing = sorted((case, old, new) for case, old, new in pairs if old != new)
    allowed = [c for c, *_ in differing if any(fnmatch.fnmatchcase(c, g) for g in args.allow)]
    for case, old, new in differing:
        tag = "allowed" if case in allowed else "DIFFERS"
        print(f"{tag}: {case}")
        for field, a, b in zip(("stdout", "stderr", "exit"), old or [None] * 3, new or [None] * 3):
            if a != b:
                print(f"  {field}: {str(a)[:300]!r}\n  {' ' * len(field)}  -> {str(b)[:300]!r}")
    for case in faults:
        print(f"FAULT: {case}: {str(here[case])[:300]!r}")
    print(f"golden: {len(here)} cases, {len(differing)} differences "
          f"({len(allowed)} allowed) against {args.base}, {len(faults)} faults")
    return 1 if len(differing) > len(allowed) or faults else 0


if __name__ == "__main__":
    sys.exit(main())
