#!/usr/bin/env python3
"""End-to-end tour of the toolkit on the bundled sample resources.

Walks the whole resource-building loop: parse the sample dictionary, seed
a transfer-lexicon skeleton from it, validate the filled lexicon, extract
the parallel corpus, run frame transfer on the example sentences, convert
the annotated sentences between explicit and minimal notation, and build
a small treebank store.

Usage: python scripts/demo_pipeline.py
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from leril import anncorra, corpus_store, dict_model, shabdasutra, transfer, translexgram

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def section(title):
    print(f"\n=== {title} ===")


def main():
    section("dictionary")
    dictionary, diags = dict_model.parse_dictionary((FIXTURES / "go.dict").read_text())
    entry = dict_model.lookup(dictionary, "go", "V")[0]
    print(f"parsed {len(dictionary.entries)} entries, {len(diags)} diagnostics")
    print(f"'go' has {len(entry.senses)} senses; sense 3 derives from "
          f"{entry.senses[2].gloss.derivation!r}")

    section("seeded transfer-lexicon skeleton")
    skeleton, _ = translexgram.seed_from_dictionary(entry)
    print("\n".join(translexgram.emit_record(skeleton).splitlines()[:5]))
    print("...")

    section("filled lexicon")
    records, _ = translexgram.parse_tlg((FIXTURES / "go.tlg").read_text())
    problems = translexgram.validate_tlg(records[0])
    print(f"validation diagnostics: {len(problems)}")
    for pair in translexgram.extract_parallel_corpus(records):
        print(f"  {pair.english}  =>  {pair.translation}")

    section("frame transfer")
    pairs, _ = transfer.lexicon_pairs(records)
    for sentence in ("I go to school.", "These clothes go into that suitcase."):
        matches, _ = transfer.transfer_pairs(pairs, sentence)
        for match in matches:
            print(f"  {sentence}  ->  {match.output}  ({match.label})")

    section("dependency notation")
    registry = anncorra.default_registry()
    explicit = "rAma_ne/k1->i phala/k2->j kATakara/kr:j->i pAnI/k2->i piyA::v:i"
    tree, _ = anncorra.parse_sentence(explicit, registry)
    print(f"  explicit: {explicit}")
    print(f"  minimal:  {anncorra.emit_minimal(tree, registry)}")

    section("core-meaning formula")
    formulas, _ = shabdasutra.parse_formula_file((FIXTURES / "issue.formula").read_text())
    formula = formulas[0]
    threads, _ = shabdasutra.parse_thread_file((FIXTURES / "issue.thread").read_text())
    aliases = shabdasutra.load_aliases((FIXTURES / "aliases.tsv").read_text())
    clean = shabdasutra.check_consistency(formula, threads[0], aliases)
    print(f"  {shabdasutra.emit_formula(formula)}")
    print(f"  thread stages: {[st.label for st in threads[0].stages]}")
    print(f"  consistency (with alias table): {'ok' if not clean else clean}")

    section("treebank store")
    with tempfile.TemporaryDirectory() as tmp:
        with corpus_store.CorpusStore(Path(tmp) / "store", "rw") as store:
            store.add_sentence("s1", explicit, "hin")
            store.add_sentence("s2", anncorra.emit_minimal(tree, registry), "hin")
            stats = store.stats()
            print(f"  sentences: {stats.sentences}")
            print(f"  relation counts: {stats.relation_counts}")
            print(f"  node counts: {stats.node_counts}")
            hits, _ = store.query_by_relation("k2")
            print(f"  k2 hits: {hits}")


if __name__ == "__main__":
    main()
