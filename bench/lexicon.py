"""``lexicon`` workload: lexicon building and structural transfer.

Inputs are a TransLexGram lexicon, the matching Shabdaanjali dictionary and
Shabda-Sutra formula, thread and alias files, all written in canonical form
so that re-emission must reproduce them byte for byte.

Every source frame carries a verb literal used by no other frame, and
filler words end in a consonant that no inflection suffix strips, so a
filler never folds onto a frame literal. A sentence built from one frame
therefore matches that frame alone, and its leftmost-shortest binding
follows from construction: in a run of adjacent slots every slot but the
last takes one token and the last takes the rest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from harness import Op, Workload, lines

CONSONANTS = "bdfgklmnprtvz"
VOWELS = "aeiou"
PARTICLES = ("to", "into", "onto", "with", "from")
POSTPOSITIONS = ("ko", "meM", "se", "[ko]", "[se]", "para")
# Source frame shapes: slot letters, "V" for the frame's verb, "P" for a particle.
SHAPES = (
    "A V",
    "A V B",
    "A V P B",
    "A V B C",
    "A V B P C",
    "A V B C P D",
)


def _stem(rng) -> str:
    """Verb stem; ends in a vowel other than 'e', so '+s'/'+ed' fold back to it."""
    return "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(2)) + (
        rng.choice(CONSONANTS) + rng.choice("aiou")
    )


def _filler(rng) -> str:
    """Consonant-vowel word ending in a consonant no inflection suffix strips."""
    return "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(2)) + rng.choice(
        "mnpktrl"
    )


def _hindi(rng) -> str:
    return "".join(rng.choice(CONSONANTS) + rng.choice("aiuAI") for _ in range(2)) + "A"


@dataclass
class Frame:
    shape: list[str]
    verb: str
    particle: str
    target: list[str]

    @property
    def source(self) -> str:
        return " ".join(
            self.verb + "s" if el == "V" else self.particle if el == "P" else el
            for el in self.shape
        )

    @property
    def target_text(self) -> str:
        return " ".join(self.target)


def _frame(rng, verb: str, shape: str) -> Frame:
    elements = shape.split()
    slots = [el for el in elements if len(el) == 1 and el not in "VP"]
    target = [slots[0]]
    for slot in slots[1:]:
        target.append(slot)
        post = rng.choice(POSTPOSITIONS + (None,))
        if post:
            target.append(post)
    target += [_hindi(rng), "hai"]
    return Frame(elements, verb, rng.choice(PARTICLES), target)


def _sentence(rng, frame: Frame, cfg, length: int | None = None) -> tuple[str, dict]:
    """A sentence the frame matches, and the binding the matcher must return.

    Its length is ``length`` tokens, or random within the configured range.
    """
    slots = [el for el in frame.shape if el not in ("V", "P")]
    length = length or rng.randint(cfg["tokens_min"], cfg["tokens_max"])
    fill = max(length, len(frame.shape))
    fill -= len(frame.shape) - len(slots)
    cuts = sorted(rng.sample(range(1, fill), len(slots) - 1))
    sizes = iter(b - a for a, b in zip([0] + cuts, cuts + [fill]))
    tokens: list[str] = []
    runs: list[tuple[list[str], list[str]]] = []  # adjacent slots and their tokens
    after_slot = False
    for el in frame.shape:
        if el in ("V", "P"):
            tokens.append(frame.verb + rng.choice(("s", "ed", "")) if el == "V" else frame.particle)
            after_slot = False
            continue
        filler = [_filler(rng) for _ in range(next(sizes))]
        if not tokens:
            filler[0] = filler[0].capitalize()
        tokens += filler
        if after_slot:
            runs[-1][0].append(el)
            runs[-1][1].extend(filler)
        else:
            runs.append(([el], list(filler)))
        after_slot = True
    binding = {}
    for letters, run_tokens in runs:
        for k, letter in enumerate(letters):
            last = k == len(letters) - 1
            binding[letter] = tuple(run_tokens[k:] if last else run_tokens[k : k + 1])
    return " ".join(tokens) + ".", binding


def _render(frame: Frame, binding) -> str:
    out = []
    for el in frame.target:
        if el in binding:
            out.extend(binding[el])
        else:
            out.append(el.strip("[]"))
    return " ".join(out)


def _transfer_output(frame: Frame, binding) -> str:
    table = [f"{k}\t{' '.join(v)}" for k, v in sorted(binding.items())]
    return lines([_render(frame, binding)] + table)


@dataclass
class Meaning:
    number: int
    components: list[list[str]]
    derivation: str | None
    context: str | None
    examples: list[str]
    tr_nat: list[str]
    influence: str
    frame: Frame
    complete: bool

    @property
    def gloss(self) -> str:
        text = "~".join("/".join(alts) for alts in self.components)
        if self.derivation:
            text += f"[<{self.derivation}]"
        if self.context:
            text += f"{{{self.context}}}"
        return text


def _field(name: str, value: str) -> str:
    return f"{name}:: {value}" if value else f"{name}::"


def _tlg_record(headword: str, meanings: list[Meaning]) -> str:
    rows = [f'HEADWORD::"{headword}","V"']
    for m in meanings:
        rows.append(f'MEANING::{m.number}::"{m.gloss}"')
        rows.append(_field("ENG_EXP", m.examples[0]))
        rows += [_field("TR_NAT", t) for t in m.tr_nat]
        rows.append(_field("TR_ENG-INFLNC", m.influence))
        rows.append(_field("FRAME_E", m.frame.source))
        rows.append(_field("FRAME_I", m.frame.target_text if m.complete else ""))
        rows += ["ERR::", "COMNT::"]
    return "\n".join(rows)


def _seed_record(headword: str, meanings: list[Meaning]) -> str:
    rows = [f'HEADWORD::"{headword}","V"']
    for m in meanings:
        rows += [f'MEANING::{m.number}::"{m.gloss}"', _field("ENG_EXP", m.examples[0])]
        rows += ["TR_ENG-INFLNC::", "FRAME_E::", "FRAME_I::", "ERR::", "COMNT::"]
    return "\n".join(rows) + "\n"


def _dict_entry(headword: str, meanings: list[Meaning]) -> str:
    rows = [f'"{headword}", "V",']
    for m in meanings:
        rows.append(f'--"{m.number}.{m.gloss}"')
        rows += m.examples
    return "\n".join(rows)


def _dict_interchange(entries) -> dict:
    return {
        "format": "shabdaanjali",
        "entries": [
            {
                "headword": hw,
                "pos": "V",
                "senses": [
                    {
                        "number": m.number,
                        "gloss": {
                            "components": [
                                {"alternatives": alts, "joined": k > 0}
                                for k, alts in enumerate(m.components)
                            ],
                            "derivation": m.derivation,
                            "context": m.context,
                        },
                        "examples": m.examples,
                    }
                    for m in meanings
                ],
            }
            for hw, meanings in entries
        ],
    }


def _json_checker(expected: dict):
    def checker(out: str) -> str | None:
        try:
            got = json.loads(out)
        except ValueError:
            return "output is not JSON"
        return None if got == expected else "JSON document differs"

    return checker


# ---------------------------------------------------------------- sutra


def _formula(rng, depth: int) -> tuple[str, list[str], list[int]]:
    """Formula text nested ``depth`` levels, with its labels and the turn
    count of each derivation, both innermost first."""
    labels = [_hindi(rng) for _ in range(depth + 1)]
    text = labels[0]
    turns = []
    for label in labels[1:]:
        t = rng.randrange(4)
        turns.append(t)
        text = f"{label}[{'~' * t}{' ' if t else ''}< {text}]"
    return text, labels, turns


def _formula_json(labels: list[str], turns: list[int], level: int) -> str:
    """One formula as ``json.dumps(..., indent=2, sort_keys=True)`` lays it
    out at nesting ``level``, built without recursion so that formulas nested
    past the interpreter's recursion limit can be checked too."""
    def pad(k: int) -> str:
        return "  " * k

    opening, closing = [], []
    for label, turn in zip(labels[:0:-1], turns[::-1]):
        opening.append(f'{{\n{pad(level + 1)}"derivation": {{\n{pad(level + 2)}"source": ')
        closing.append(
            f',\n{pad(level + 2)}"turn_count": {turn}\n{pad(level + 1)}}},'
            f'\n{pad(level + 1)}"head": "{label}"\n{pad(level)}}}'
        )
        level += 2
    innermost = (
        f'{{\n{pad(level + 1)}"derivation": null,'
        f'\n{pad(level + 1)}"head": "{labels[0]}"\n{pad(level)}}}'
    )
    return "".join(opening) + innermost + "".join(reversed(closing))


def formulas_json(formulas: list[tuple[list[str], list[int]]]) -> str:
    """Expected ``sutra parse-formula`` output."""
    body = ",\n".join("    " + _formula_json(labels, turns, 2) for labels, turns in formulas)
    return '{\n  "formulas": [\n' + body + "\n  ]\n}\n"


def deep_formula_probe(workdir: Path, rng, depth: int) -> Op:
    """``sutra parse-formula`` on one formula nested ``depth`` levels."""
    text, labels, turns = _formula(rng, depth)
    path = workdir / "deep.formula"
    path.write_text(text + "\n", encoding="utf-8")
    return Op(
        "sutra parse-formula (deep)",
        ["sutra", "parse-formula", str(path)],
        formulas_json([(labels, turns)]),
    )


def _sutra_files(workdir: Path, rng, cfg) -> list[Op]:
    formulas, threads, aliases = [], [], []
    warnings = 0
    depths = [rng.randint(1, 4) for _ in range(cfg["formulas"])]
    depths += [cfg["deep_depth"]] * cfg["deep_formulas"]
    rng.shuffle(depths)
    for depth in depths:
        text, labels, turns = _formula(rng, depth)
        formulas.append((text, labels, turns))
        stages = list(labels)
        roll = rng.random()
        if roll < cfg["inconsistent_share"]:
            stages[0] = _hindi(rng) + "x"  # core no longer the first stage
            warnings += 1
        elif roll < cfg["inconsistent_share"] + cfg["alias_share"]:
            alias = _hindi(rng) + "y"
            aliases.append(f"{stages[-1]}\t{alias}")
            stages[-1] = alias
        parts = []
        for label in stages:
            if rng.random() < 0.3:
                label += f"({_hindi(rng)} {_hindi(rng)})"
            if rng.random() < 0.2:
                label += ' eg: "' + '", "'.join(_hindi(rng) for _ in range(2)) + '"'
            parts.append(label)
        threads.append(" --> ".join(parts))
    paths = {name: workdir / f"lexicon.{name}" for name in ("formula", "thread", "alias")}
    paths["formula"].write_text(lines([f for f, _l, _t in formulas]), encoding="utf-8")
    paths["thread"].write_text(lines(threads), encoding="utf-8")
    paths["alias"].write_text(lines(aliases), encoding="utf-8")
    return [
        Op(
            "sutra parse-formula",
            ["sutra", "parse-formula", str(paths["formula"])],
            formulas_json([(labels, turns) for _f, labels, turns in formulas]),
        ),
        Op(
            "sutra check",
            ["sutra", "check", str(paths["formula"]), str(paths["thread"]),
             "--alias", str(paths["alias"])],
            "",
            warnings=warnings,
        ),
    ]


# ---------------------------------------------------------------- set-up


def literal_frame_op(rng) -> Op:
    """A small ``transfer --frame-e/--frame-i`` op that reads no file."""
    frame = _frame(rng, _stem(rng), "A V P B")
    sentence, binding = _sentence(rng, frame, {"tokens_min": 5, "tokens_max": 8})
    return Op(
        "transfer --frame-e",
        ["transfer", "--frame-e", frame.source, "--frame-i", frame.target_text, sentence],
        _transfer_output(frame, binding),
    )


def setup(workdir: Path, rng, cfg) -> Workload:
    taken: set[str] = set()

    def fresh_stem() -> str:
        while (stem := _stem(rng)) in taken:
            pass
        taken.add(stem)
        return stem

    # Meaning counts cycle evenly through their range before shuffling, so
    # that every seed has the same number of frames for transfer to try.
    fewest, most = cfg["meanings_min"], cfg["meanings_max"]
    counts = [fewest + k % (most - fewest + 1) for k in range(cfg["records"])]
    rng.shuffle(counts)
    entries: list[tuple[str, list[Meaning]]] = []
    for count in counts:
        meanings = []
        headword = None
        for number in range(1, count + 1):
            verb = fresh_stem()
            headword = headword or verb
            frame = _frame(rng, verb, rng.choice(SHAPES))
            examples = [_sentence(rng, frame, cfg)[0] for _ in range(rng.randint(1, 2))]
            components = [
                [_hindi(rng) for _ in range(rng.randint(1, 2))] for _ in range(rng.randint(1, 2))
            ]
            meanings.append(
                Meaning(
                    number,
                    components,
                    _hindi(rng) if rng.random() < 0.1 else None,
                    _hindi(rng) if rng.random() < 0.1 else None,
                    examples,
                    [" ".join(_hindi(rng) for _ in range(4)) for _ in range(rng.randint(1, 2))],
                    "" if rng.random() < cfg["empty_influence_share"] else _hindi(rng),
                    frame,
                    True,
                )
            )
        entries.append((headword, meanings))
    all_meanings = [(hw, m) for hw, ms in entries for m in ms]
    for _hw, m in rng.sample(all_meanings, cfg["incomplete_pairs"]):
        m.complete = False
    complete = [(hw, m) for hw, m in all_meanings if m.complete]

    tlg_text = "\n\n".join(_tlg_record(hw, ms) for hw, ms in entries) + "\n"
    dict_text = "\n\n".join(_dict_entry(hw, ms) for hw, ms in entries) + "\n"
    tlg, dictionary = workdir / "lexicon.tlg", workdir / "lexicon.dict"
    tlg.write_text(tlg_text, encoding="utf-8")
    dictionary.write_text(dict_text, encoding="utf-8")
    incomplete = cfg["incomplete_pairs"]

    # Transfer sentence lengths spread evenly over the range, so that every
    # seed sends the same amount of text through the matcher; the two
    # --headword ops take the shortest and the longest. Transfer --lexicon
    # ops are most of a pass, so the median op is one of them and not the
    # boundary between two op kinds.
    low, high = cfg["tokens_min"], cfg["tokens_max"]
    transfers = cfg["known_transfers"] + cfg["unmatched_transfers"]
    lengths = [low + round(k * (high - low) / (transfers - 1)) for k in range(transfers)]
    rng.shuffle(lengths)
    ops = []
    for shape in ("A V B C P D", "A V B C") + (None,) * (cfg["known_transfers"] - 2):
        pool = [hm for hm in complete if shape is None or " ".join(hm[1].frame.shape) == shape]
        _hw, m = rng.choice(pool)
        sentence, binding = _sentence(rng, m.frame, cfg, lengths.pop())
        ops.append(
            Op(
                "transfer --lexicon",
                ["transfer", "--lexicon", str(tlg), sentence],
                _transfer_output(m.frame, binding),
                warnings=incomplete,
            )
        )
    for _ in range(cfg["unmatched_transfers"]):
        frame = _frame(rng, fresh_stem(), rng.choice(SHAPES))  # a verb no lexicon frame has
        sentence, _binding = _sentence(rng, frame, cfg, lengths.pop())
        ops.append(
            Op("transfer --lexicon", ["transfer", "--lexicon", str(tlg), sentence], "",
               warnings=incomplete)
        )
    for length in (low, high):
        hw, m = rng.choice(complete)
        sentence, binding = _sentence(rng, m.frame, cfg, length)
        argv = ["transfer", "--lexicon", str(tlg), "--headword", hw, "--sense", str(m.number)]
        ops.append(
            Op("transfer --headword --sense", argv + [sentence], _transfer_output(m.frame, binding))
        )
    empty_influence = sum(m.influence == "" for _hw, m in all_meanings)
    pairs = [f"{m.examples[0]}\t{t}\t{hw}\t{m.number}" for hw, m in all_meanings for t in m.tr_nat]
    seed_hw, seed_meanings = rng.choice(entries)
    lookup_hw, lookup_meanings = rng.choice(entries)
    ops += [
        Op(
            "tlg validate --strict",
            ["tlg", "validate", "--strict", str(tlg)],
            "",
            code=1,
            warnings=incomplete + empty_influence,
        ),
        Op("tlg corpus", ["tlg", "corpus", str(tlg)], lines(pairs)),
        Op("tlg emit", ["tlg", "emit", str(tlg)], tlg_text),
        Op(
            "tlg seed --dict",
            ["tlg", "seed", "--dict", str(dictionary), "--headword", seed_hw],
            _seed_record(seed_hw, seed_meanings),
        ),
        Op("dict parse", ["dict", "parse", str(dictionary)],
           _json_checker(_dict_interchange(entries))),
        Op(
            "dict lookup",
            ["dict", "lookup", str(dictionary), lookup_hw],
            _dict_entry(lookup_hw, lookup_meanings) + "\n",
        ),
    ]
    ops += _sutra_files(workdir, rng, cfg)
    return Workload([], ops)
