"""Frame-based structural transfer.

A frame is a whitespace-separated pattern such as ``A goes to B`` (source
side) or ``A B [ko] jAtA hai`` (target side). Single uppercase letters are
slots, ``[tok]`` is an optional literal, and anything else is a literal
anchor. Frames are written in simple present tense regardless of the
example sentence, so literal matching folds case and a small set of
inflectional suffixes before comparing.

Matching binds each slot to a contiguous, nonempty span of sentence
tokens. The whole sentence must be consumed. When several bindings exist,
slots are resolved left to right and each takes the shortest span that
still lets the rest of the frame match, which makes matching
deterministic. Rendering substitutes captured spans verbatim; slot fillers
are never translated here, that belongs to a full MT system downstream.

Cost: ``FramePairs`` checks each frame pair once, source frame then target
frame, for the faults ``parse_frame`` raises on, so the warnings of a
lexicon do not depend on the sentence; the CLI keeps a whole lexicon's
``FramePairs`` with its parse (``cli._derived``). A transfer folds the
sentence once and asks them for its candidates, the pairs filed under the
stems of its folds (``_stem``); a literal is folded once, and only when it
has the stem of a fold of the sentence. So a query costs its candidates, not
the lexicon, from the first sentence on. Only the pairs whose required source
literals all occur among the sentence's folds are parsed and matched.
Matching fills one table of (element, token) states from the last element
back and reads the binding off its true states: O(elements x n) for n
tokens, with no backtracking. A target slot that the source frame does not
bind raises ``TransferError``, which ``transfer_pairs`` reports as a
warning for that pair before it goes on to the next.
"""

from __future__ import annotations

from string import ascii_uppercase
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .diagnostics import Diagnostic, LerilError, error, info, warning

if TYPE_CHECKING:  # pragma: no cover
    from .translexgram import TlgRecord


class FrameError(LerilError):
    """Malformed frame pattern."""


class TransferError(LerilError):
    """Rendering failure, e.g. an unbound slot."""


class FrameElement(NamedTuple):
    kind: str  # "slot" | "literal" | "optional"
    value: str


OPTIONAL_POLICIES = ("include", "drop", "bracket")


# One shared element per slot letter: a token is a slot exactly when it is a key.
_SLOTS = {letter: FrameElement("slot", letter) for letter in ascii_uppercase}
# Builds a named tuple from its field tuple, skipping the Python-level __new__.
_tuple_new = tuple.__new__


def _frame_error(tokens: list[str]) -> str | None:
    """Why the split frame ``tokens`` is malformed (its first fault), or None."""
    # no token twice and no "[]": well formed, without a loop in Python
    if tokens and "[]" not in tokens and len(set(tokens)) == len(tokens):
        return None
    if not tokens:
        return "empty frame"
    seen: set[str] = set()
    for token in tokens:
        if token == "[]":
            return "empty optional literal '[]'"
        if token in _SLOTS:
            if token in seen:
                return f"duplicate slot letter '{token}'"
            seen.add(token)
    return None


def parse_frame(text: str) -> tuple[FrameElement, ...]:
    """Parse a frame pattern into its elements. Slot letters must be unique
    within a frame."""
    tokens = text.split()
    message = _frame_error(tokens)
    if message is not None:
        raise FrameError(message)
    elements: list[FrameElement] = []
    for token in tokens:
        slot = _SLOTS.get(token)
        if slot is not None:
            elements.append(slot)
        elif token[0] == "[" and token[-1] == "]":
            elements.append(_tuple_new(FrameElement, ("optional", token[1:-1])))
        else:
            elements.append(_tuple_new(FrameElement, ("literal", token)))
    return tuple(elements)


_FOLD_SUFFIXES = ("es", "ed", "ing", "s")
_SUFFIX_LETTERS = "".join(set("".join(_FOLD_SUFFIXES)))


def inflection_fold(token: str) -> str:
    """Lowercase and strip inflectional suffixes until stable.

    A suffix among ``es``, ``ed``, ``ing``, ``s`` is removed only while the
    remaining stem keeps at least two letters, so "is" survives unchanged.
    Stripping repeats to a fixed point, which makes the fold idempotent.
    """
    folded = token.lower()
    while folded.endswith(_FOLD_SUFFIXES):
        for suffix in _FOLD_SUFFIXES:
            if folded.endswith(suffix) and len(folded) - len(suffix) >= 2:
                folded = folded[: -len(suffix)]
                break
        else:
            break
    return folded


def _stem(word: str) -> str:
    """A lowercased word less its trailing suffix letters, or its first two
    characters when that leaves nothing. ``_stem(w) == _stem(inflection_fold(w))``,
    as the fold strips only suffixes and keeps the first two characters, so
    all the words of one fold have one stem."""
    return word.rstrip(_SUFFIX_LETTERS) or word[:2]


def tokenize_sentence(sentence: str) -> list[str]:
    """Split on whitespace and strip trailing sentence punctuation."""
    tokens = []
    for raw in sentence.split():
        token = raw.rstrip(".,!?")
        if token:
            tokens.append(token)
    return tokens


def match_frame(
    frame: tuple[FrameElement, ...], sentence: list[str], folded: list[str] | None = None
) -> dict[str, tuple[str, ...]] | None:
    """Match the elements of a source frame against tokenized sentence text.

    ``folded`` holds ``inflection_fold`` of each sentence token; a caller
    that tries many frames on one sentence folds it once and passes it.
    Returns the binding, each slot letter to its span of tokens, or None
    when no assignment exists; a frame of only literals binds ``{}``.
    """
    if folded is None:
        folded = [inflection_fold(token) for token in sentence]
    folds: list[str | None] = []
    for el in frame:
        if el.kind == "slot":
            folds.append(None)
            continue
        fold = inflection_fold(el.value)
        if el.kind == "literal" and fold not in folded:
            return None
        folds.append(fold)

    # rest[e][t]: frame[e:] consumes exactly sentence[t:]. Rows are built
    # from the last element back; a slot's row is true before the last true
    # position of the row after it, since its span may end at any later one.
    n = len(sentence)
    rest = [[False] * n + [True]]
    for el, fold in zip(reversed(frame), reversed(folds)):
        after = rest[-1]
        if fold is None:
            last = n - after[::-1].index(True)
            row = [True] * last + [False] * (n + 1 - last)
        else:
            row = [folded[t] == fold and after[t + 1] for t in range(n)] + [False]
            if el.kind == "optional":
                row = [here or skip for here, skip in zip(row, after)]
        if True not in row:
            return None
        rest.append(row)
    rest.reverse()
    if not rest[0][0]:
        return None

    # Walk the true states: an optional literal is taken when the rest still
    # matches after it, a slot takes the shortest span that lets the rest match.
    bindings: dict[str, tuple[str, ...]] = {}
    t = 0
    for el, fold, after in zip(frame, folds, rest[1:]):
        if fold is None:
            end = after.index(True, t + 1)
            bindings[el.value] = tuple(sentence[t:end])
            t = end
        elif el.kind == "literal" or (t < n and folded[t] == fold and after[t + 1]):
            t += 1
    return bindings


def render_target(
    frame: tuple[FrameElement, ...],
    binding: Mapping[str, Sequence[str]],
    optional_policy: str = "include",
) -> str:
    """Substitute captured spans into the elements of a target frame.

    ``optional_policy`` controls ``[tok]`` elements: "include" emits the
    bare token, "drop" omits it, "bracket" keeps it bracketed.
    """
    if optional_policy not in OPTIONAL_POLICIES:
        raise ValueError(f"unknown optional-literal policy: {optional_policy!r}")
    out: list[str] = []
    for el in frame:
        if el.kind == "slot":
            span = binding.get(el.value)
            if not span:
                raise TransferError(f"slot {el.value} is unbound")
            out.extend(span)
        elif el.kind == "literal":
            out.append(el.value)
        else:
            if optional_policy == "include":
                out.append(el.value)
            elif optional_policy == "bracket":
                out.append(f"[{el.value}]")
    return " ".join(out)


def lexicon_pairs(
    records: Sequence[TlgRecord], headword: str | None = None, sense: int | None = None
) -> tuple[FramePairs | None, list[Diagnostic]]:
    """Select the frame pairs of a lexicon as ``FramePairs`` of ``(label, frame_e, frame_i)``.

    Records keep their file order and meanings go in numeric order.
    ``headword`` keeps the records of that headword and ``sense`` their
    meaning of that number; a record without it is an error. Meanings with
    only half a frame pair are skipped with a warning, meanings with no
    frames at all silently. Returns None for an unknown headword.
    """
    if headword is not None:
        records = [r for r in records if r.headword == headword]
        if not records:
            return None, [error(f"headword {headword!r} not found in lexicon")]
    pairs: list[tuple[str, str, str]] = []
    diagnostics: list[Diagnostic] = []
    for record in records:
        meanings = record.meanings
        if sense is not None:
            meanings = [m for m in meanings if m.number == sense]
            if not meanings:
                diagnostics.append(error(f"'{record.headword}' has no meaning {sense}"))
                continue
        for meaning in sorted(meanings, key=lambda m: m.number):
            label = f"meaning {meaning.number} of '{record.headword}'"
            if meaning.frame_e and meaning.frame_i:
                pairs.append((label, meaning.frame_e, meaning.frame_i))
            elif meaning.frame_e or meaning.frame_i:
                diagnostics.append(warning(f"{label}: incomplete frame pair; skipped"))
    return FramePairs(pairs), diagnostics


def gloss_index(records: Sequence[TlgRecord]) -> dict[str, str]:
    """Lowercased headword to its first meaning's gloss; later records win."""
    return {
        r.headword.lower(): r.meanings[0].gloss
        for r in records
        if r.meanings and r.meanings[0].gloss
    }


class TransferMatch(NamedTuple):
    label: str
    output: str
    binding: dict[str, tuple[str, ...]]


class FramePairs:
    """Labelled frame pairs, each checked once, for ``transfer_pairs`` to try
    on many sentences. A well-formed pair is filed under the ``_stem`` of its
    first required source literal, lowercased, so a sentence looks only at
    the pairs filed under the stems of its folds: a dict lookup a fold, and
    the pairs found are all candidates but for words that share a stem and
    not a fold. ``folds`` keeps each literal's fold for later sentences."""

    def __init__(self, pairs: Iterable[tuple[str, str, str]]) -> None:
        self.pairs = list(pairs)
        self.warnings: dict[int, Diagnostic] = {}  # a malformed pair's, at its position
        self.always: list[int] = []  # the pairs without a required literal
        self.stems: dict[str, list] = {}  # stem: [literal, k, literal, k, ...], lowercased
        self.folds: dict[str, str] = {}
        for k, (label, frame_e, frame_i) in enumerate(self.pairs):
            source = frame_e.split()
            message = _frame_error(source) or _frame_error(frame_i.split())
            if message is not None:
                self.warnings[k] = warning(f"{label}: {message}")
                continue
            for token in source:  # the first required literal: no slot, no [optional]
                if token not in _SLOTS and not (token[0] == "[" and token[-1] == "]"):
                    literal = token.lower()
                    self.stems.setdefault(_stem(literal), []).extend((literal, k))
                    break
            else:
                self.always.append(k)

    def _fold(self, literal: str) -> str:
        return self.folds.get(literal) or self.folds.setdefault(literal, inflection_fold(literal))

    def candidates(self, present: set[str]) -> list[int]:
        """In pair order, the positions of the malformed pairs and of the
        pairs whose required source literals all have their fold in ``present``."""
        found = [*self.always, *self.warnings]
        for fold in present:
            group = self.stems.get(_stem(fold), ())
            found += [
                k for literal, k in zip(group[::2], group[1::2]) if self._fold(literal) == fold
            ]
        return [
            k for k in sorted(found) if k in self.warnings or all(
                self._fold(t) in present for t in self.pairs[k][1].split()
                if t not in _SLOTS and not (t[0] == "[" and t[-1] == "]")
            )
        ]


def transfer_pairs(
    pairs: FramePairs | Iterable[tuple[str, str, str]],
    sentence: str,
    optional_policy: str = "include",
    glosses: Mapping[str, str] | None = None,
) -> tuple[list[TransferMatch], list[Diagnostic]]:
    """Try each labelled frame pair on a sentence, in the order given.

    Each pair is checked, source frame then target frame, and a malformed
    one is skipped with a warning; so is a match whose target frame has a
    slot the source did not bind. ``glosses`` (see ``gloss_index``)
    annotates the rendered slot tokens it knows, e.g. ``school{=pAThaSAlA}``;
    the match's binding keeps the bare tokens. Every match adds a
    ``matched`` info in pair order, and no match adds one info saying so.
    Pairs tried on many sentences are checked once, as ``FramePairs``.
    """
    compiled = pairs if isinstance(pairs, FramePairs) else FramePairs(pairs)
    tokens = tokenize_sentence(sentence)
    folded = [inflection_fold(token) for token in tokens]
    present = set(folded)
    matches: list[TransferMatch] = []
    diagnostics: list[Diagnostic] = []
    for k in compiled.candidates(present):
        label, frame_e, frame_i = compiled.pairs[k]
        if k in compiled.warnings:
            diagnostics.append(compiled.warnings[k])
            continue
        binding = match_frame(parse_frame(frame_e), tokens, folded)
        if binding is None:
            continue
        shown = binding if glosses is None else {
            letter: [f"{t}{{={glosses[t.lower()]}}}" if t.lower() in glosses else t for t in span]
            for letter, span in binding.items()
        }
        try:
            output = render_target(parse_frame(frame_i), shown, optional_policy)
        except TransferError as exc:
            diagnostics.append(warning(f"{label}: {exc}"))
            continue
        matches.append(TransferMatch(label, output, binding))
        diagnostics.append(info(f"matched {label}"))
    if not matches:
        diagnostics.append(info("no frame matched the sentence"))
    return matches, diagnostics
