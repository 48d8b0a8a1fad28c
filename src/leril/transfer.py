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

Cost: a sentence is tokenized and folded once per transfer, however many
frames are tried on it. A frame whose required literal's fold is not among
the sentence's folds is rejected before any search. Otherwise one table of
(element, token) states is filled from the last element back, each state
holding whether the rest of the frame can consume the rest of the
sentence, and the binding is read off its true states: O(elements x n)
for n tokens, with no backtracking. A target slot that the source frame
does not bind raises ``TransferError``; ``transfer_pairs`` reports it as a
warning for that frame pair and goes on to the next. In ``leril batch``
the CLI parses the same lexicon bytes once (``cli._parse``), so a run of
transfers over one unchanged lexicon pays for its parse once.

The ``transfer`` command is two calls: ``lexicon_pairs`` selects the
labelled frame pairs of a lexicon (or the command passes its literal
frames as one pair), and ``transfer_pairs`` tries them on the sentence.

Every frame pair is checked token by token, source frame then target
frame, for the faults ``parse_frame`` raises on: a malformed pair is
reported whether or not its source could match, so the warnings of a
lexicon do not depend on the sentence. Only a pair whose source frame's
required literals all occur in the sentence is parsed and matched. Each
distinct literal is folded at most once per transfer, and not at all when
no fold of the sentence starts with its first two lowercased characters
(a fold keeps them). Parsing looks each token up in one table of the 26
slot elements, which every frame shares, and builds elements as named
tuples; a parsed frame is the tuple of its elements.
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
) -> tuple[list[tuple[str, str, str]] | None, list[Diagnostic]]:
    """Select the frame pairs of a lexicon as ``(label, frame_e, frame_i)``.

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
            frame_e = meaning.frame_e or ""
            frame_i = meaning.frame_i or ""
            if frame_e and frame_i:
                pairs.append((label, frame_e, frame_i))
            elif frame_e or frame_i:
                diagnostics.append(warning(f"{label}: incomplete frame pair; skipped"))
    return pairs, diagnostics


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


def transfer_pairs(
    pairs: Iterable[tuple[str, str, str]],
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
    """
    tokens = tokenize_sentence(sentence)
    folded = [inflection_fold(token) for token in tokens]
    present = set(folded)
    heads = {fold[:2] for fold in present}  # a fold starts as its lowercased token does
    seen: set[str] = set()  # frame tokens met so far in this call
    absent: set[str] = set()  # those of them that are required literals not in the sentence
    matches: list[TransferMatch] = []
    diagnostics: list[Diagnostic] = []
    for label, frame_e, frame_i in pairs:
        source_tokens = frame_e.split()
        message = _frame_error(source_tokens) or _frame_error(frame_i.split())
        if message is not None:
            diagnostics.append(warning(f"{label}: {message}"))
            continue
        if not seen.issuperset(source_tokens):
            for token in source_tokens:
                if token in seen:
                    continue
                seen.add(token)
                if token in _SLOTS or (token[0] == "[" and token[-1] == "]"):
                    continue
                if token.lower()[:2] not in heads or inflection_fold(token) not in present:
                    absent.add(token)
        if not absent.isdisjoint(source_tokens):
            continue
        source = parse_frame(frame_e)
        target = parse_frame(frame_i)
        binding = match_frame(source, tokens, folded)
        if binding is None:
            continue
        shown = binding
        if glosses is not None:
            shown = {
                letter: [
                    f"{tok}{{={glosses[tok.lower()]}}}" if tok.lower() in glosses else tok
                    for tok in span
                ]
                for letter, span in binding.items()
            }
        try:
            output = render_target(target, shown, optional_policy)
        except TransferError as exc:
            diagnostics.append(warning(f"{label}: {exc}"))
            continue
        matches.append(TransferMatch(label, output, binding))
        diagnostics.append(info(f"matched {label}"))
    if not matches:
        diagnostics.append(info("no frame matched the sentence"))
    return matches, diagnostics
