"""Command-line surface for the toolkit.

Machine output (parsed documents, exports, converted notation) goes to
stdout; diagnostics and progress go to stderr so pipelines stay clean.
Exit codes: 0 clean, 1 warnings under --strict, 2 errors, 3 usage or I/O
failure, 4 internal error (an exception leril does not expect). The
LERIL_TAGSET environment variable names a default tagset file; --tagset
overrides it. A store's own tagset.cfg comes after both.

Start-up cost: each run imports only the layer modules its command calls.
Every ``_cmd_*`` function imports its layers in its own body and calls them
through the module (``translexgram.parse_tlg``), and ``build_parser(command,
subcommand)`` registers only the invoked command and, one level down, only
its invoked subcommand (every one where a word names none: ``leril -h``, a
command's own ``-h``, a missing or unknown name). Outside this module,
``leril.<layer>`` resolves through ``leril.__getattr__``. New commands follow
the same rule; tests/test_cli.py pins each command's set of imported
``leril`` modules. A process that runs many commands (``leril batch``, or a
caller of ``run``) parses the same bytes once: ``_parse`` keeps the last
lexicon, dictionary, formula or thread file parsed, keyed on the parser and
the file's bytes, so an edited file parses again. ``main``, one command a
process, keeps none.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .diagnostics import (
    Diagnostic,
    LerilError,
    Severity,
    error,
    info,
    json_string,
    split_lines,
    utf8_text,
    worst_severity,
)

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


_batch_stdin = False  # set while a batch reads its commands from stdin


def _read_bytes(path: str) -> bytes:
    if path != "-":
        return Path(path).read_bytes()
    if _batch_stdin:
        raise LerilError("- is stdin, which holds the batch")
    return sys.stdin.buffer.read()


def _read_text(path: str) -> str:
    """The UTF-8 text of ``path``, or of stdin for ``-``."""
    return utf8_text(_read_bytes(path), path)


_last_parse: tuple | None = (None, b"")  # (parser, raw bytes, result, diagnostics); None: keep none


def _parse(parser, path: str):
    """``parser(_read_text(path))``, reused while the same parser reads the
    same bytes. The diagnostics come back as a new list for the caller to
    extend; the result is shared, and no command changes it."""
    global _last_parse
    if _last_parse is None:
        return parser(_read_text(path))
    data = _read_bytes(path)
    slot = _last_parse
    if slot[:2] != (parser, data):
        slot = _last_parse = (None, b"")  # the old parse freed first, and kept empty if this fails
        slot = _last_parse = (parser, data, *parser(utf8_text(data, path)))
    return slot[2], list(slot[3])


def _load_registry(args) -> TagRegistry | None:
    """The registry of --tagset, else of $LERIL_TAGSET; None when neither is set."""
    from . import anncorra

    path = getattr(args, "tagset", None) or os.environ.get("LERIL_TAGSET")
    return anncorra.load_tagset(_read_text(path)) if path else None


def _print(text: str) -> None:
    if text:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _print_json(doc) -> None:
    """Print ``json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True) + "\\n"``."""
    import json  # here, so that the commands with their own writer never load it

    _print(json.dumps(doc, ensure_ascii=False, indent=2, sort_keys=True))


# ---------------------------------------------------------------- dict


def _cmd_dict_parse(args):  # also ``dict emit``, and ``dict lookup`` of one headword
    from . import dict_model

    dictionary, diags = _parse(dict_model.parse_dictionary, args.file)
    if args.subcommand == "lookup":
        entries = dict_model.lookup(dictionary, args.headword, args.pos)
        dictionary = dict_model.Dictionary(tuple(entries))
        if not entries:
            diags.append(info(f"no entry for {args.headword!r}"))
    if args.format == "interchange":
        _print(dict_model.emit_interchange(dictionary))
    else:
        _print(dict_model.emit_dictionary(dictionary))
    return diags


def _cmd_dict_filter(args):
    from . import dict_model

    dictionary, diags = _parse(dict_model.parse_dictionary, args.file)
    words = {line.strip() for line in split_lines(_read_text(args.wordlist))}
    words = {word for word in words if word and not word.startswith("#")}
    _print(dict_model.emit_dictionary(dict_model.frequency_filter(dictionary, words)))
    return diags


# ---------------------------------------------------------------- tlg


def _cmd_tlg_parse(args):
    from . import translexgram

    records, diags = _parse(translexgram.parse_tlg, args.file)
    if args.format == "interchange":
        doc = [{**r._asdict(), "meanings": [m._asdict() for m in r.meanings]} for r in records]
        _print_json({"format": "translexgram", "records": doc})
    else:
        _print(translexgram.emit_tlg(records))
    return diags


def _cmd_tlg_validate(args):
    from . import translexgram

    records, diags = _parse(translexgram.parse_tlg, args.file)
    policy = "strict" if args.strict else "lenient"
    for record in records:
        diags.extend(translexgram.validate_tlg(record, policy))
    return diags


def _cmd_tlg_seed(args):
    from . import dict_model, translexgram

    dictionary, diags = _parse(dict_model.parse_dictionary, args.dict)
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

    records, diags = _parse(translexgram.parse_tlg, args.file)
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
            values = ("null" if sentence_id is None else json_string(sentence_id), str(lineno))
            sentences.append((values, *tree.columns, tree.groups))
    if args.subcommand == "parse":
        _print(anncorra.emit_interchange("anncorra", "sentences", ("id", "line"), sentences))
    return diags


def _cmd_anncorra_convert(args):
    from . import anncorra

    registry = _load_registry(args) or anncorra.default_registry()
    diags: list[Diagnostic] = []
    text = _read_text(args.file)
    out_lines = split_lines(text)  # blank, comment and unparsable lines are kept as they are
    for _id, lineno, line in anncorra.iter_sentences(text):
        tree, tree_diags = anncorra.parse_sentence(line, registry)
        diags.extend(_with_line(tree_diags, lineno))
        if tree is not None and args.minimize:
            out_lines[lineno - 1] = anncorra.emit_minimal(tree, registry)
        elif tree is not None:
            out_lines[lineno - 1] = anncorra.emit_explicit(tree)
    _print("\n".join(out_lines))
    return diags


# ---------------------------------------------------------------- sutra


def _cmd_sutra_parse_formula(args):
    from . import shabdasutra

    formulas, diags = _parse(shabdasutra.parse_formula_file, args.file)
    _print(shabdasutra.emit_interchange(formulas))
    return diags


def _cmd_sutra_parse_thread(args):
    from . import shabdasutra

    threads, diags = _parse(shabdasutra.parse_thread_file, args.file)
    _print_json({"threads": [{"stages": [s._asdict() for s in t.stages]} for t in threads]})
    return diags


def _cmd_sutra_check(args):
    from . import shabdasutra

    formulas, diags = _parse(shabdasutra.parse_formula_file, args.formulas)
    threads, thread_diags = _parse(shabdasutra.parse_thread_file, args.threads)
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

        records, diags = _parse(translexgram.parse_tlg, args.lexicon)
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
        bindings = sorted(match.binding.items())
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
        for sentence_id, lineno, line in anncorra.iter_sentences(text):
            try:
                added.append(store.add_sentence(sentence_id, line, args.lang, diagnostics=diags))
            except corpus_store.CorpusError as exc:
                diags.append(error(str(exc), line=lineno))
    _print("\n".join(added))
    return diags


def _cmd_corpus_query(args):
    from . import corpus_store

    with corpus_store.CorpusStore(args.store, "r", _load_registry(args)) as store:
        hits, diags = store.query_by_relation(args.tag)
    _print("\n".join(f"{record_id}\t{position}" for record_id, position in hits))
    return store.diagnostics + diags


def _cmd_corpus_read(args):  # ``corpus stats`` and ``corpus export``
    from . import corpus_store

    with corpus_store.CorpusStore(args.store, "r", _load_registry(args)) as store:
        if args.subcommand == "stats":
            _print_json(store.stats()._asdict())
        else:
            _print(store.export(args.format))
    return store.diagnostics


# ---------------------------------------------------------------- batch


def _cmd_batch(args) -> int:
    """Run each command line of ``args.file`` here; the worst exit code."""
    import shlex

    global _batch_stdin, _last_parse
    text = _read_text(args.file)
    _batch_stdin, _last_parse = args.file == "-", _last_parse or (None, b"")
    worst = EXIT_OK
    try:
        for lineno, line in enumerate(split_lines(text), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            _print(f"==> line {lineno}: {line} <==")
            try:
                argv = shlex.split(line)
                if argv[0] == "batch":
                    raise ValueError("a batch runs no batch")
            except ValueError as exc:  # from shlex, or the refusal above
                print(f"usage error: {exc}", file=sys.stderr)
                code = EXIT_USAGE
            else:
                try:
                    code = run(argv)
                except SystemExit as exc:  # -h and --help
                    code = exc.code or EXIT_OK
            sys.stdout.flush()
            print(f"exit {code}", file=sys.stderr)
            worst = max(worst, code)
    finally:
        _batch_stdin = False
    return worst


# ---------------------------------------------------------------- parser


def _command(parser: argparse.ArgumentParser, func, *positionals: str, tagset=False, store=False):
    """Give ``parser`` its ``positionals``, the --strict option (and --tagset,
    and --store) and ``func`` to run."""
    for name in positionals:
        parser.add_argument(name)
    parser.add_argument("--strict", action="store_true", help="exit 1 when warnings remain")
    if tagset:
        parser.add_argument("--tagset", help="tagset config file (default: $LERIL_TAGSET)")
    if store:
        parser.add_argument("--store", required=True)
    parser.set_defaults(func=func)
    return parser


def _fill_dict_lookup(p: argparse.ArgumentParser) -> None:
    _command(p, _cmd_dict_parse, "file", "headword").add_argument("--pos")
    p.add_argument("--format", choices=["interchange", "text"], default="text")


def _fill_tlg_seed(p: argparse.ArgumentParser) -> None:
    _command(p, _cmd_tlg_seed).add_argument("--dict", required=True)
    p.add_argument("--headword")


def _fill_anncorra_convert(p: argparse.ArgumentParser) -> None:
    mode = _command(p, _cmd_anncorra_convert, "file", tagset=True).add_mutually_exclusive_group()
    mode.add_argument("--explicit", action="store_true", help="write all references (default)")
    mode.add_argument("--minimize", action="store_true", help="drop recoverable references")


def _fill_transfer(p_tr: argparse.ArgumentParser) -> None:
    from . import transfer

    _command(p_tr, _cmd_transfer, "sentence")
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


def _fill_batch(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="command lines, one a line (- for stdin)")
    p.set_defaults(func=_cmd_batch)


# command name: (its line in `leril -h`, the function that adds its arguments,
# or, for a command with subcommands, the function that adds each one's by name)
_COMMANDS = {
    "dict": ("Shabdaanjali dictionaries", {
        "parse": lambda p: _command(p, _cmd_dict_parse, "file")
            .add_argument("--format", choices=["interchange", "text"], default="interchange"),
        "emit": lambda p: _command(p, _cmd_dict_parse, "file").set_defaults(format="text"),
        "lookup": _fill_dict_lookup,
        "filter": lambda p: _command(p, _cmd_dict_filter, "file")
            .add_argument("--wordlist", required=True),
    }),
    "tlg": ("TransLexGram records", {
        "parse": lambda p: _command(p, _cmd_tlg_parse, "file")
            .add_argument("--format", choices=["interchange", "text"], default="interchange"),
        "validate": lambda p: _command(p, _cmd_tlg_validate, "file"),
        "seed": _fill_tlg_seed,
        "emit": lambda p: _command(p, _cmd_tlg_parse, "file").set_defaults(format="text"),
        "corpus": lambda p: _command(p, _cmd_tlg_corpus, "file"),
    }),
    "anncorra": ("linear dependency notation", {
        "parse": lambda p: _command(p, _cmd_anncorra_parse, "file", tagset=True),
        "check": lambda p: _command(p, _cmd_anncorra_parse, "file", tagset=True),
        "convert": _fill_anncorra_convert,
    }),
    "sutra": ("Shabda-Sutra formulas and threads", {
        "parse-formula": lambda p: _command(p, _cmd_sutra_parse_formula, "file"),
        "parse-thread": lambda p: _command(p, _cmd_sutra_parse_thread, "file"),
        "check": lambda p: _command(p, _cmd_sutra_check, "formulas", "threads")
            .add_argument("--alias", help="alias table (label TAB alias)"),
    }),
    "transfer": ("frame-based structural transfer", _fill_transfer),
    "corpus": ("treebank store", {
        "add": lambda p: _command(p, _cmd_corpus_add, "file", tagset=True, store=True)
            .add_argument("--lang", default="und"),
        "query": lambda p: _command(p, _cmd_corpus_query, "tag", tagset=True, store=True),
        "stats": lambda p: _command(p, _cmd_corpus_read, tagset=True, store=True),
        "export": lambda p: _command(p, _cmd_corpus_read, tagset=True, store=True)
            .add_argument("--format", choices=["linear", "interchange"], default="linear"),
    }),
    "batch": ("one command per line of a file, all in this process", _fill_batch),
}


def _named(table: dict, name: str | None):
    """The items of ``table``: the one of ``name`` alone when it names one."""
    return [(name, table[name])] if name in table else table.items()


def build_parser(command: str | None = None, subcommand: str | None = None) -> _ArgumentParser:
    """The ``leril`` parser of a command line that starts with ``command``
    and ``subcommand``. Each level registers the one its word names, or all
    when the word names none of them (the whole parser for no arguments).
    The command line parses the same either way: a level holds only the
    names below it, and each argument belongs to its subcommand's parser.
    """
    parser = _ArgumentParser(prog="leril", description=_DESCRIPTION)
    top = parser.add_subparsers(dest="command")
    for name, (help_text, fill) in _named(_COMMANDS, command):
        p = top.add_parser(name, help=help_text)
        if isinstance(fill, dict):
            sub = p.add_subparsers(dest="subcommand")
            for sub_name, sub_fill in _named(fill, subcommand if name == command else None):
                sub_fill(sub.add_parser(sub_name))
        else:
            fill(p)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser(*argv[:2])
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not hasattr(args, "func"):  # the help of every command
        build_parser().print_help(sys.stderr)
        return EXIT_USAGE
    try:
        diagnostics = args.func(args) or []
    except (LerilError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault of leril itself, reported in one line
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if isinstance(diagnostics, int):  # the worst exit code of a batch
        return diagnostics
    for diag in diagnostics:
        print(diag.render(), file=sys.stderr)
    worst = worst_severity(diagnostics)
    if worst is None or worst <= Severity.INFO:
        return EXIT_OK
    if worst >= Severity.ERROR:
        return EXIT_ERRORS
    return EXIT_WARNINGS if getattr(args, "strict", False) else EXIT_OK


def main() -> None:
    global _last_parse
    _last_parse = None  # one command a process: no parse to reuse, so no bytes kept
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
