"""Acceptance suite: one test per criterion, one pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

from treegen import children, enumerate_trees, random_tree

from leril.anncorra import (
    default_registry,
    emit_explicit,
    emit_minimal,
    parse_sentence,
)
from leril.corpus_store import CorpusStore
from leril.diagnostics import Severity, has_errors
from leril.dict_model import emit_dictionary, parse_dictionary
from leril.shabdasutra import check_consistency, load_aliases, parse_formula, parse_thread
from leril.transfer import lexicon_pairs, match_frame, parse_frame, transfer_pairs
from leril.translexgram import extract_parallel_corpus, parse_tlg, validate_tlg

EXPLICIT = "rAma_ne/k1->i phala/k2->j kATakara/kr:j->i pAnI/k2->i piyA::v:i"
DEFAULTED = "rAma_ne/k1->i phala/k2 kATakara/kr pAnI/k2 piyA::v:i"


def _timed(budget_seconds):
    start = time.monotonic()

    def check(label):
        elapsed = time.monotonic() - start
        assert elapsed < budget_seconds, f"{label} took {elapsed:.2f}s"
        return elapsed

    return check


def test_criterion_1_explicit_sentence_tree():
    check = _timed(1.0)
    registry = default_registry()
    tree, diags = parse_sentence(EXPLICIT, registry)
    assert not has_errors(diags)
    root = tree.nodes[tree.root]
    assert (root.surface, root.node_tag) == ("piyA", "v")
    kids = children(tree)
    dependents = [(tree.nodes[c].surface, tree.nodes[c].rel_tag) for c in kids[tree.root]]
    assert dependents == [("rAma_ne", "k1"), ("kATakara", "kr"), ("pAnI", "k2")]
    katakara = kids[tree.root][1]
    assert [(tree.nodes[c].surface, tree.nodes[c].rel_tag) for c in kids[katakara]] == [
        ("phala", "k2")
    ]
    check("criterion 1")
    print("criterion 1 (explicit sentence tree): PASS")


def test_criterion_2_defaulted_form_is_isomorphic():
    check = _timed(1.0)
    registry = default_registry()
    explicit, _ = parse_sentence(EXPLICIT, registry)
    defaulted, diags = parse_sentence(DEFAULTED, registry)
    assert not has_errors(diags)
    assert defaulted == explicit  # equality already ignores index labels
    check("criterion 2")
    print("criterion 2 (defaulted form isomorphic): PASS")


def test_criterion_3_round_trip_suite():
    check = _timed(30.0)
    registry = default_registry()
    failures = 0
    total = 0
    for tree in enumerate_trees(max_nodes=5):
        total += 1
        for emitted in (emit_explicit(tree), emit_minimal(tree, registry)):
            back, diags = parse_sentence(emitted, registry)
            if has_errors(diags) or back != tree:
                failures += 1
    assert total == 1 + 4 + 36 + 512 + 10000
    rng = random.Random(20010927)
    for _ in range(1000):
        tree = random_tree(rng, n=8)
        for emitted in (emit_explicit(tree), emit_minimal(tree, registry)):
            back, diags = parse_sentence(emitted, registry)
            if has_errors(diags) or back != tree:
                failures += 1
    assert failures == 0
    elapsed = check("criterion 3")
    print(
        f"criterion 3 (round-trip, {total} exhaustive + 1000 random trees, "
        f"{elapsed:.1f}s): PASS"
    )


def test_criterion_4_dictionary_fixture(go_dict_text):
    check = _timed(1.0)
    dictionary, _ = parse_dictionary(go_dict_text)
    entry = dictionary.entries[0]
    assert len(entry.senses) == 7
    assert entry.senses[2].gloss.derivation == "jAnA"
    assert entry.senses[4].gloss.context == "sthiti"
    first_emit = emit_dictionary(dictionary)
    reparsed, _ = parse_dictionary(first_emit)
    assert emit_dictionary(reparsed) == first_emit
    check("criterion 4")
    print("criterion 4 (dictionary fixture and byte-stable emit): PASS")


def test_criterion_5_tlg_fixture(go_tlg_text):
    check = _timed(1.0)
    records, parse_diags = parse_tlg(go_tlg_text)
    assert not has_errors(parse_diags)
    assert len(records) == 1 and len(records[0].meanings) == 2
    validation = validate_tlg(records[0])
    assert not [d for d in validation if d.severity >= Severity.ERROR]
    pairs = extract_parallel_corpus(records)
    assert len(pairs) == 2
    assert (pairs[0].english, pairs[0].translation) == (
        "I go to school.",
        "maiM skUla jAtA hUM.",
    )
    assert (pairs[1].english, pairs[1].translation) == (
        "These clothes go into that suitcase.",
        "ye kapaDe usa sUtakesa meM rakhe jAyeMge",
    )
    check("criterion 5")
    print("criterion 5 (TLG fixture, validation, parallel pairs): PASS")


def test_criterion_6_transfer_outputs(go_tlg_text):
    check = _timed(1.0)
    records, _ = parse_tlg(go_tlg_text)
    pairs, _ = lexicon_pairs(records)
    matches, _ = transfer_pairs(pairs, "I go to school.", "include")
    assert [(m.label, m.output) for m in matches] == [
        ("meaning 1 of 'go'", "I school ko jAtA hai")
    ]
    matches, _ = transfer_pairs(pairs, "These clothes go into that suitcase.")
    assert [(m.label, m.output) for m in matches] == [
        ("meaning 2 of 'go'", "These clothes that suitcase meM rakhA_jAtA_hai")
    ]
    check("criterion 6")
    print("criterion 6 (transfer outputs): PASS")


def test_criterion_7_sutra_fixture(fixtures_dir):
    check = _timed(1.0)
    formula = parse_formula("viSaya[~~ < niSpAdana]")
    assert formula.head == "viSaya"
    assert formula.turns == (2,)
    assert formula.heads[-1] == "niSpAdana"
    thread = parse_thread(
        "niSpAdana(astitwa meM IAnA/AnA) --> niSpatti kA srota "
        "--> niSpatti (santAna, sansakaraNa etc)"
    )
    assert len(thread.stages) == 3
    aliases = load_aliases((fixtures_dir / "aliases.tsv").read_text())
    assert check_consistency(formula, thread, aliases) == []
    bare = check_consistency(formula, thread)
    assert len(bare) == 1 and bare[0].severity == Severity.WARNING
    check("criterion 7")
    print("criterion 7 (sutra fixture and alias check): PASS")


def test_criterion_8_slot_recovery_brute_force():
    check = _timed(10.0)
    from itertools import product

    vocabulary = ["alpha", "beta", "gamma", "delta"]
    spans = [
        tuple(combo) for size in (1, 2) for combo in product(vocabulary, repeat=size)
    ]
    mismatches = 0
    cases = 0
    for pattern in ("A goes to B", "A goes into B"):
        frame = parse_frame(pattern)
        for a_span in spans:
            for b_span in spans:
                planted = {"A": a_span, "B": b_span}
                sentence = []
                for el in frame:
                    if el.kind == "slot":
                        sentence.extend(planted[el.value])
                    else:
                        sentence.append(el.value)
                binding = match_frame(frame, sentence)
                cases += 1
                if binding is None or binding != planted:
                    mismatches += 1
    assert cases == 2 * len(spans) * len(spans)
    assert mismatches == 0
    check("criterion 8")
    print(f"criterion 8 (slot recovery, {cases} plantings): PASS")


def test_criterion_9_corpus_stats_and_reimport(tmp_path):
    check = _timed(1.0)
    with CorpusStore(tmp_path / "store", "rw") as store:
        store.add_sentence("s1", EXPLICIT, "hin")
        store.add_sentence("s2", DEFAULTED, "hin")
        stats = store.stats()
        assert stats.sentences == 2
        assert stats.relation_counts == {"k1": 2, "k2": 4, "kr": 2}
        assert stats.node_counts == {"v": 2}
        exported = store.export("linear")
        with CorpusStore(tmp_path / "fresh", "rw") as fresh:
            pending = None
            for line in exported.splitlines():
                if line.startswith("#"):
                    pending = line.lstrip("#").strip()
                else:
                    fresh.add_sentence(pending, line, "hin")
            assert fresh.stats() == stats
    check("criterion 9")
    print("criterion 9 (corpus stats and lossless export): PASS")
