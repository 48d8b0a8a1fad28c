"""Command-line surface for the toolkit.

Machine output (parsed documents, exports, converted notation) goes to
stdout; diagnostics and progress go to stderr so pipelines stay clean.
Exit codes: 0 clean, 1 warnings under --strict, 2 errors, 3 usage or I/O
failure, 4 internal error (an exception leril does not expect). The
LERIL_TAGSET environment variable names a default tagset file; --tagset
overrides it. A store's own tagset.cfg comes after both.

Start-up cost: each run imports only the layer modules its command calls.
Every ``_cmd_*`` function imports its layers in its own body and calls them
through the module (``translexgram.parse_tlg``), and ``build_parser(command)``
fills in only the invoked command's subcommands and arguments. Outside this
module, ``leril.<layer>`` resolves through ``leril.__getattr__``. New
commands follow the same rule; tests/test_cli.py pins each command's set of
imported ``leril`` modules.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING

from .diagnostics import (
    Diagnostic,
    LerilError,
    Severity,
    error,
    info,
    split_lines,
    utf8_text,
    worst_severity,
)

try:  # the C function of json.encoder, without loading the json package
    from _json import encode_basestring as _json_string
except ImportError:  # pragma: no cover - an interpreter without the accelerator
    from json.encoder import encode_basestring as _json_string

if TYPE_CHECKING:  # pragma: no cover
    from .anncorra import TagRegistry
    from .translexgram import TlgRecord

# The help text of `leril -h`: the docstring up to its start-up paragraph.
_DESCRIPTION = __doc__.partition("\n\nStart-up cost")[0]

EXIT_OK = 0
EXIT_WARNINGS = 1
EXIT_ERRORS = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4  # an unexpected exception: a fault of leril, not of its input


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # route usage problems to exit code 3
        raise _UsageError(message)


def _read_text(path: str) -> str:
    """The UTF-8 text of ``path``, or of stdin for ``-``."""
    return utf8_text(sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes(), path)


_JSON_SCALARS = {
    str: _json_string,
    int: int.__repr__,
    float: float.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda _value: "null",
}


def _dump_json(doc) -> str:
    """``json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\\n"``,
    with each NamedTuple written as the object of its fields.

    ``doc`` holds dicts with str keys, lists, tuples, NamedTuples, str, int,
    finite float, bool and None, matched by exact type; a plain tuple is an
    array. With ``indent`` set, json.dumps runs its pure-Python encoder,
    which recurses once per nesting level; this loop keeps the open
    containers on a stack instead, so no document is too deep to print.
    """
    out: list[str] = []
    stack: list = []  # open containers, innermost last: (members left, their indent, closing text)
    value, indent = doc, "\n"
    while True:
        kind = type(value)
        scalar = _JSON_SCALARS.get(kind)
        if scalar is not None:
            out.append(scalar(value))
            sep = ","
        elif kind is list or kind is tuple:
            out.append("[")
            stack.append((zip(repeat(""), value), indent + "  ", indent + "]"))
            sep = ""
        else:  # a dict, or a NamedTuple: the object of its fields
            pairs = value.items() if kind is dict else zip(kind._fields, value)
            out.append("{")
            members = ((_json_string(key) + ": ", item) for key, item in sorted(pairs))
            stack.append((members, indent + "  ", indent + "}"))
            sep = ""
        while stack:
            members, indent, closing = stack[-1]
            member = next(members, None)
            if member is not None:
                key, value = member
                out.append(sep + indent + key)
                break
            stack.pop()
            out.append(closing if sep else closing[-1])  # an empty one closes on its line
            sep = ","
        else:
            return "".join(out) + "\n"


def _load_registry(args) -> TagRegistry | None:
    """The registry of --tagset, else of $LERIL_TAGSET; None when neither is set."""
    from . import anncorra

    path = getattr(args, "tagset", None) or os.environ.get("LERIL_TAGSET")
    return anncorra.load_tagset(_read_text(path)) if path else None


def _print(text: str) -> None:
    if text:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------- dict


def _cmd_dict_parse(args):
    from . import dict_model

    dictionary, diags = dict_model.parse_dictionary(_read_text(args.file))
    if args.format == "interchange":
        _print(_dump_json({"format": "shabdaanjali", "entries": dictionary.entries}))
    else:
        _print(dict_model.emit_dictionary(dictionary))
    return diags


def _cmd_dict_lookup(args):
    from . import dict_model

    dictionary, diags = dict_model.parse_dictionary(_read_text(args.file))
    entries = dict_model.lookup(dictionary, args.headword, args.pos)
    if args.format == "interchange":
        _print(_dump_json({"format": "shabdaanjali", "entries": entries}))
    else:
        _print(dict_model.emit_dictionary(dict_model.Dictionary(tuple(entries))))
    if not entries:
        diags.append(info(f"no entry for {args.headword!r}"))
    return diags


def _cmd_dict_filter(args):
    from . import dict_model

    dictionary, diags = dict_model.parse_dictionary(_read_text(args.file))
    words = {line.strip() for line in split_lines(_read_text(args.wordlist))}
    words = {word for word in words if word and not word.startswith("#")}
    _print(dict_model.emit_dictionary(dict_model.frequency_filter(dictionary, words)))
    return diags


# ---------------------------------------------------------------- tlg


def _cmd_tlg_parse(args):
    from . import translexgram

    records, diags = translexgram.parse_tlg(_read_text(args.file))
    if args.format == "interchange":
        _print(_dump_json({"format": "translexgram", "records": records}))
    else:
        _print(translexgram.emit_tlg(records))
    return diags


def _cmd_tlg_validate(args):
    from . import translexgram

    records, diags = translexgram.parse_tlg(_read_text(args.file))
    policy = "strict" if args.strict else "lenient"
    for record in records:
        diags.extend(translexgram.validate_tlg(record, policy))
    return diags


def _cmd_tlg_seed(args):
    from . import dict_model, translexgram

    dictionary, diags = dict_model.parse_dictionary(_read_text(args.dict))
    if args.headword is not None:
        entries = dict_model.lookup(dictionary, args.headword)
        if not entries:
            diags.append(error(f"headword {args.headword!r} not found"))
            return diags
    else:
        entries = list(dictionary.entries)
    records = []
    for entry in entries:
        record, seed_diags = translexgram.seed_from_dictionary(entry)
        records.append(record)
        diags.extend(seed_diags)
    _print(translexgram.emit_tlg(records))
    return diags


def _cmd_tlg_corpus(args):
    from . import translexgram

    records, diags = translexgram.parse_tlg(_read_text(args.file))
    pairs = translexgram.extract_parallel_corpus(records)
    _print(translexgram.pairs_to_tsv(pairs))
    return diags


# ---------------------------------------------------------------- anncorra


def _with_line(diags, lineno):
    return [d._replace(line=lineno) if d.line is None else d for d in diags]


def _cmd_anncorra_parse(args):  # also ``anncorra check``, which prints no document
    from . import anncorra

    registry = _load_registry(args) or anncorra.default_registry()
    diags: list[Diagnostic] = []
    sentences = []
    for sentence_id, lineno, line in anncorra.iter_sentences(_read_text(args.file)):
        tree, tree_diags = anncorra.parse_sentence(line, registry)
        diags.extend(_with_line(tree_diags, lineno))
        if tree is not None and args.subcommand == "parse":
            sentences.append(
                {"id": sentence_id, "line": lineno, "tree": anncorra.to_interchange(tree)}
            )
    if args.subcommand == "parse":
        _print(_dump_json({"format": "anncorra", "sentences": sentences}))
    return diags


def _cmd_anncorra_convert(args):
    from . import anncorra

    registry = _load_registry(args) or anncorra.default_registry()
    diags: list[Diagnostic] = []
    out_lines = []
    for lineno, raw in enumerate(split_lines(_read_text(args.file)), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            out_lines.append(raw)
            continue
        tree, tree_diags = anncorra.parse_sentence(stripped, registry)
        diags.extend(_with_line(tree_diags, lineno))
        if tree is None:
            out_lines.append(raw)  # an unparsable line is kept as it is
        elif args.minimize:
            out_lines.append(anncorra.emit_minimal(tree, registry))
        else:
            out_lines.append(anncorra.emit_explicit(tree))
    _print("\n".join(out_lines))
    return diags


# ---------------------------------------------------------------- sutra


def _cmd_sutra_parse_formula(args):
    from . import shabdasutra

    formulas, diags = shabdasutra.parse_formula_file(_read_text(args.file))
    _print(_dump_json({"formulas": [shabdasutra.formula_to_interchange(f) for f in formulas]}))
    return diags


def _cmd_sutra_parse_thread(args):
    from . import shabdasutra

    threads, diags = shabdasutra.parse_thread_file(_read_text(args.file))
    _print(_dump_json({"threads": threads}))
    return diags


def _cmd_sutra_check(args):
    from . import shabdasutra

    formulas, diags = shabdasutra.parse_formula_file(_read_text(args.formulas))
    threads, thread_diags = shabdasutra.parse_thread_file(_read_text(args.threads))
    diags.extend(thread_diags)
    aliases = None
    if args.alias:
        aliases = shabdasutra.load_aliases(_read_text(args.alias))
    if len(formulas) != len(threads):
        diags.append(
            error(
                f"cannot pair {len(formulas)} formulas with {len(threads)} threads"
            )
        )
        return diags
    for formula, thread in zip(formulas, threads):
        diags.extend(shabdasutra.check_consistency(formula, thread, aliases))
    return diags


# ---------------------------------------------------------------- transfer


def _cmd_transfer(args):
    if args.sense is not None and args.headword is None:
        raise LerilError("--sense requires --headword")
    literal_frames = args.frame_e is not None or args.frame_i is not None
    if literal_frames and not (args.frame_e and args.frame_i):
        raise LerilError("--frame-e and --frame-i must be given together")
    if not literal_frames and args.lexicon is None:
        raise LerilError("--lexicon is required unless --frame-e/--frame-i are given")
    if literal_frames and (args.headword is not None or args.sense is not None):
        raise LerilError("--headword and --sense select lexicon frames, not --frame-e/--frame-i")

    from . import transfer

    diags: list[Diagnostic] = []
    records: list[TlgRecord] = []
    if args.lexicon is not None:
        from . import translexgram

        records, diags = translexgram.parse_tlg(_read_text(args.lexicon))
    if literal_frames:
        pairs = [("literal frames", args.frame_e, args.frame_i)]
    else:
        pairs, pair_diags = transfer.lexicon_pairs(records, args.headword, args.sense)
        diags.extend(pair_diags)
        if pairs is None:
            return diags
    # glosses come from the whole lexicon, also for literal frames
    glosses = transfer.gloss_index(records) if args.gloss_slots else None
    matches, match_diags = transfer.transfer_pairs(
        pairs, args.sentence, args.optional, glosses
    )
    diags.extend(match_diags)
    blocks = []
    for match in matches:
        bindings = sorted(match.binding.bindings.items())
        table = [f"{letter}\t{' '.join(span)}" for letter, span in bindings]
        blocks.append("\n".join([match.output] + table))
    _print("\n\n".join(blocks))
    return diags


# ---------------------------------------------------------------- corpus


def _cmd_corpus_add(args):
    from . import anncorra, corpus_store

    added = []
    registry = _load_registry(args)
    text = _read_text(args.file)  # before the store is created or locked
    with corpus_store.CorpusStore(args.store, "rw", registry) as store:
        diags = store.diagnostics
        auto = len(store)
        for sentence_id, lineno, line in anncorra.iter_sentences(text):
            if sentence_id is None:
                auto += 1
                sentence_id = f"{args.lang}-{auto}"
                while sentence_id in store:
                    auto += 1
                    sentence_id = f"{args.lang}-{auto}"
            try:
                store.add_sentence(sentence_id, line, args.lang, diagnostics=diags)
            except corpus_store.CorpusError as exc:
                diags.append(error(str(exc), line=lineno))
                continue
            added.append(sentence_id)
    _print("\n".join(added))
    return diags


def _cmd_corpus_query(args):
    from . import corpus_store

    with corpus_store.CorpusStore(args.store, "r", _load_registry(args)) as store:
        hits, diags = store.query_by_relation(args.tag)
    _print("\n".join(f"{record_id}\t{position}" for record_id, position in hits))
    return store.diagnostics + diags


def _cmd_corpus_stats(args):
    from . import corpus_store

    with corpus_store.CorpusStore(args.store, "r", _load_registry(args)) as store:
        stats = store.stats()
    _print(_dump_json(stats))
    return store.diagnostics


def _cmd_corpus_export(args):
    from . import corpus_store

    with corpus_store.CorpusStore(args.store, "r", _load_registry(args)) as store:
        _print(store.export(args.format))
    return store.diagnostics


# ---------------------------------------------------------------- parser


def _command(parser: argparse.ArgumentParser, func, tagset: bool = False):
    """Give ``parser`` the --strict option (and --tagset) and ``func`` to run."""
    parser.add_argument("--strict", action="store_true", help="exit 1 when warnings remain")
    if tagset:
        parser.add_argument("--tagset", help="tagset config file (default: $LERIL_TAGSET)")
    parser.set_defaults(func=func)
    return parser


def _fill_dict(p_dict: argparse.ArgumentParser) -> None:
    dict_sub = p_dict.add_subparsers(dest="subcommand")
    p = _command(dict_sub.add_parser("parse"), _cmd_dict_parse)
    p.add_argument("file")
    p.add_argument("--format", choices=["interchange", "text"], default="interchange")
    p = _command(dict_sub.add_parser("emit"), _cmd_dict_parse)  # parse --format text
    p.add_argument("file")
    p.set_defaults(format="text")
    p = _command(dict_sub.add_parser("lookup"), _cmd_dict_lookup)
    p.add_argument("file")
    p.add_argument("headword")
    p.add_argument("--pos")
    p.add_argument("--format", choices=["interchange", "text"], default="text")
    p = _command(dict_sub.add_parser("filter"), _cmd_dict_filter)
    p.add_argument("file")
    p.add_argument("--wordlist", required=True)


def _fill_tlg(p_tlg: argparse.ArgumentParser) -> None:
    tlg_sub = p_tlg.add_subparsers(dest="subcommand")
    p = _command(tlg_sub.add_parser("parse"), _cmd_tlg_parse)
    p.add_argument("file")
    p.add_argument("--format", choices=["interchange", "text"], default="interchange")
    p = _command(tlg_sub.add_parser("validate"), _cmd_tlg_validate)
    p.add_argument("file")
    p = _command(tlg_sub.add_parser("seed"), _cmd_tlg_seed)
    p.add_argument("--dict", required=True)
    p.add_argument("--headword")
    p = _command(tlg_sub.add_parser("emit"), _cmd_tlg_parse)  # parse --format text
    p.add_argument("file")
    p.set_defaults(format="text")
    p = _command(tlg_sub.add_parser("corpus"), _cmd_tlg_corpus)
    p.add_argument("file")


def _fill_anncorra(p_ann: argparse.ArgumentParser) -> None:
    ann_sub = p_ann.add_subparsers(dest="subcommand")
    p = _command(ann_sub.add_parser("parse"), _cmd_anncorra_parse, tagset=True)
    p.add_argument("file")
    p = _command(ann_sub.add_parser("check"), _cmd_anncorra_parse, tagset=True)
    p.add_argument("file")
    p = _command(ann_sub.add_parser("convert"), _cmd_anncorra_convert, tagset=True)
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--explicit", action="store_true", help="write all references (default)")
    mode.add_argument("--minimize", action="store_true", help="drop recoverable references")


def _fill_sutra(p_sutra: argparse.ArgumentParser) -> None:
    sutra_sub = p_sutra.add_subparsers(dest="subcommand")
    p = _command(sutra_sub.add_parser("parse-formula"), _cmd_sutra_parse_formula)
    p.add_argument("file")
    p = _command(sutra_sub.add_parser("parse-thread"), _cmd_sutra_parse_thread)
    p.add_argument("file")
    p = _command(sutra_sub.add_parser("check"), _cmd_sutra_check)
    p.add_argument("formulas")
    p.add_argument("threads")
    p.add_argument("--alias", help="alias table (label TAB alias)")


def _fill_transfer(p_tr: argparse.ArgumentParser) -> None:
    from . import transfer

    _command(p_tr, _cmd_transfer)
    p_tr.add_argument("sentence")
    p_tr.add_argument("--lexicon")
    p_tr.add_argument("--headword")
    p_tr.add_argument("--sense", type=int)
    p_tr.add_argument("--frame-e", help="literal source frame (with --frame-i)")
    p_tr.add_argument("--frame-i", help="literal target frame (with --frame-e)")
    p_tr.add_argument(
        "--optional", choices=list(transfer.OPTIONAL_POLICIES), default="include"
    )
    p_tr.add_argument(
        "--gloss-slots",
        action="store_true",
        help="annotate slot tokens with first-sense lexicon glosses",
    )


def _fill_corpus(p_corpus: argparse.ArgumentParser) -> None:
    corpus_sub = p_corpus.add_subparsers(dest="subcommand")
    p = _command(corpus_sub.add_parser("add"), _cmd_corpus_add, tagset=True)
    p.add_argument("file")
    p.add_argument("--store", required=True)
    p.add_argument("--lang", default="und")
    p = _command(corpus_sub.add_parser("query"), _cmd_corpus_query, tagset=True)
    p.add_argument("tag")
    p.add_argument("--store", required=True)
    p = _command(corpus_sub.add_parser("stats"), _cmd_corpus_stats, tagset=True)
    p.add_argument("--store", required=True)
    p = _command(corpus_sub.add_parser("export"), _cmd_corpus_export, tagset=True)
    p.add_argument("--store", required=True)
    p.add_argument("--format", choices=["linear", "interchange"], default="linear")


# command name: (its line in `leril -h`, the function that adds its subcommands and arguments)
_COMMANDS = {
    "dict": ("Shabdaanjali dictionaries", _fill_dict),
    "tlg": ("TransLexGram records", _fill_tlg),
    "anncorra": ("linear dependency notation", _fill_anncorra),
    "sutra": ("Shabda-Sutra formulas and threads", _fill_sutra),
    "transfer": ("frame-based structural transfer", _fill_transfer),
    "corpus": ("treebank store", _fill_corpus),
}


def build_parser(command: str | None = None) -> _ArgumentParser:
    """The ``leril`` parser, listing every command.

    Only ``command``'s subcommands and arguments are filled in, or every
    command's when it is None. A command line that starts with ``command``
    parses the same either way: the top level holds only the command list,
    and each command's arguments belong to its own subparser.
    """
    parser = _ArgumentParser(prog="leril", description=_DESCRIPTION)
    top = parser.add_subparsers(dest="command")
    for name, (help_text, fill) in _COMMANDS.items():
        p = top.add_parser(name, help=help_text)
        if command is None or command == name:
            fill(p)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        diagnostics = args.func(args) or []
    except (LerilError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault of leril itself, reported in one line
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    for diag in diagnostics:
        print(diag.render(), file=sys.stderr)
    worst = worst_severity(diagnostics)
    if worst is None or worst <= Severity.INFO:
        return EXIT_OK
    if worst >= Severity.ERROR:
        return EXIT_ERRORS
    return EXIT_WARNINGS if getattr(args, "strict", False) else EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
