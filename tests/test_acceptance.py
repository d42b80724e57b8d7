"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; expected values marked as derived below were computed from the
independent oracles in conftest before the implementation existed.
"""

from __future__ import annotations

import random
import time
from functools import reduce

import numpy as np
import pytest

import span_ensembles as se
from span_ensembles.cli import main as cli_main
from span_ensembles.model import GOLD_SOURCE
from span_ensembles.report import CSV_FORMAT, ENSEMBLE_PANELS, PanelBlock, emit_table
from conftest import brute_confusion, brute_readonce_tables, rand_mask, rand_tree, set_eval

# read-once function counts per exact source count, derived from the
# brute-force truth-table oracle (brute_readonce_tables)
READONCE_COUNTS = {2: 2, 3: 8, 4: 52, 5: 472}


def ok(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n:02d}: PASS - {message}")


@pytest.fixture(scope="module")
def medium_store():
    spec = se.SynthSpec(
        n_docs=20,
        doc_length=600,
        sources=(
            se.SourceSpec("A", 0.25, 1.0, 1),
            se.SourceSpec("B", 0.35, 2.0, 0),
            se.SourceSpec("C", 0.15, 3.0, 1),
            se.SourceSpec("D", 0.30, 1.5, 2),
            se.SourceSpec("E", 0.10, 2.5, 1),
        ),
        span_len_min=3,
        cui_vocab=25,
        seed=404,
    )
    return se.generate(spec)


def test_criterion_01_enumeration_oracle():
    start = time.monotonic()
    for k, expected in READONCE_COUNTS.items():
        variables = tuple("ABCDE"[:k])
        trees = se.enumerate_ensembles(variables, k, k)
        assert len(trees) == expected
        tables = {se.truth_table_signature(t).table for t in trees}
        assert len(tables) == expected
        assert tables == brute_readonce_tables(variables)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    assert len(se.enumerate_ensembles("AB", 2, 2, mode=se.SYNTACTIC)) == 4
    ok(1, f"semantic counts (2, 8, 52, 472) match the brute-force oracle in {elapsed:.1f}s; "
          "syntactic count for 2 sources is 4")


def test_criterion_02_evaluation_oracle():
    rng = random.Random(20_240_501)
    sources = ["A", "B", "C", "D", "E"]
    doc_ids = [f"d{i}" for i in range(200)]
    lengths = {d: rng.randrange(10, 40) for d in doc_ids}
    bindings = {
        d: {s: rand_mask(rng, d, lengths[d]) for s in sources} for d in doc_ids
    }
    sets = {
        d: {
            s: frozenset(int(i) for i in np.flatnonzero(bindings[d][s].bits))
            for s in sources
        }
        for d in doc_ids
    }
    gold = {d: rand_mask(rng, d, lengths[d]) for d in doc_ids}
    checked_trees = 0
    for _ in range(500):
        k = rng.randrange(1, 6)
        tree = rand_tree(rng, rng.sample(sources, k))
        pred = {}
        for d in doc_ids:
            out = se.evaluate(tree, bindings[d])
            expected = set_eval(tree, sets[d])
            assert frozenset(int(i) for i in np.flatnonzero(out.bits)) == expected
            pred[d] = out
        result = se.char_prf(gold, pred)
        tp = fp = fn = 0
        for d in doc_ids:
            a, b, c = brute_confusion(gold[d].bits, pred[d].bits)
            tp, fp, fn = tp + a, fp + b, fn + c
        assert (result.tp, result.fp, result.fn) == (tp, fp, fn)
        checked_trees += 1
    assert checked_trees == 500
    ok(2, "500 random trees over 200 docs: evaluate() bit-identical to set composition, "
          "char_prf equal to brute-force confusion counts")


def test_criterion_03_algebraic_laws():
    rng = random.Random(33)
    cases = 0
    for _ in range(400):
        a, b, c = (rand_mask(rng, "d1", 30) for _ in range(3))
        assert se.union(a, b) == se.union(b, a)
        assert se.intersect(a, b) == se.intersect(b, a)
        assert se.union(se.union(a, b), c) == se.union(a, se.union(b, c))
        assert se.intersect(se.intersect(a, b), c) == se.intersect(a, se.intersect(b, c))
        assert se.union(a, a) == a and se.intersect(a, a) == a
        cases += 6
    by_table = {}
    for tree in se.enumerate_ensembles("ABCD", 4, 4, mode=se.SYNTACTIC):
        by_table.setdefault(se.truth_table_signature(tree).table, []).append(tree)
    sig_groups = [trees for trees in by_table.values() if len(trees) > 1]
    for _ in range(100):
        bindings = {s: rand_mask(rng, "d1", 25) for s in "ABCD"}
        for trees in rng.sample(sig_groups, 3):
            pair = rng.sample(trees, 2)
            assert se.evaluate(pair[0], bindings) == se.evaluate(pair[1], bindings)
            cases += 1
    for _ in range(150):
        k = rng.randrange(2, 6)
        names = [f"s{i}" for i in range(k)]
        bindings = {s: rand_mask(rng, "d1", 40) for s in names}
        pure_or = reduce(se.Or, (se.Leaf(s) for s in names))
        pure_and = reduce(se.And, (se.Leaf(s) for s in names))
        flat_union = reduce(se.union, (bindings[s] for s in names))
        flat_inter = reduce(se.intersect, (bindings[s] for s in names))
        assert se.evaluate(pure_or, bindings) == flat_union
        assert se.evaluate(pure_and, bindings) == flat_inter
        cases += 2
    assert cases >= 1000
    ok(3, f"{cases} random algebra cases passed: commutativity, associativity, idempotence, "
          "signature equivalence, flattening")


def test_criterion_04_monotonicity(medium_store):
    rng = random.Random(44)
    gold = se.corpus_masks(medium_store, GOLD_SOURCE)
    singles = {
        name: se.char_prf(gold, se.corpus_masks(medium_store, name)).recall
        for name in ("A", "B", "C", "D", "E")
    }
    for _ in range(50):
        k = rng.randrange(2, 6)
        chosen = rng.sample(sorted(singles), k)
        or_recall = se.evaluate_expression(
            medium_store, reduce(se.Or, (se.Leaf(s) for s in chosen)), GOLD_SOURCE
        ).recall
        and_recall = se.evaluate_expression(
            medium_store, reduce(se.And, (se.Leaf(s) for s in chosen)), GOLD_SOURCE
        ).recall
        assert or_recall >= max(singles[s] for s in chosen)
        assert and_recall <= min(singles[s] for s in chosen)
    result = se.grid_search(
        medium_store, GOLD_SOURCE, se.SearchConfig(sources=tuple("ABCDE"), seed=2, top_k=5)
    )
    best_single = max(m.f1 for m in result.singles.values())
    assert result.by_f1[0].metrics.f1 >= best_single
    ok(4, "pure-OR recall >= max operand, pure-AND recall <= min operand on 50 random "
          "ensembles; search top F1 >= best single system")


def test_criterion_05_statistics():
    low, high = se.bernoulli_ci(0.5, 100)
    assert abs(low - 0.402) < 1e-3 and abs(high - 0.598) < 1e-3
    for p in (0.2, 0.5, 0.82):
        for n in (100, 640):
            w_n = se.bernoulli_ci(p, n)
            w_4n = se.bernoulli_ci(p, 4 * n)
            assert abs((w_n[1] - w_n[0]) / (w_4n[1] - w_4n[0]) - 2.0) < 1e-9
    assert not se.ci_overlap_significant((0.40, 0.60), (0.55, 0.70))
    assert se.ci_overlap_significant((0.40, 0.50), (0.55, 0.70))
    assert not se.ci_overlap_significant((0.4, 0.5), (0.5, 0.6))
    ok(5, "bernoulli_ci(0.5, 100) = (0.402, 0.598); half-width halves at 4n within 1e-9; "
          "interval-overlap rule matches the hand cases")


def test_criterion_06_complementarity():
    errors = frozenset({("d1", i) for i in range(10)})
    assert se.comp_rate(errors, errors) == 0.0
    assert se.comp_rate(errors, frozenset()) == 100.0

    # disjoint-error two-system instance: A misses the right half of gold,
    # B misses the left half, neither has false positives
    gold_bits = np.zeros(40, dtype=bool)
    gold_bits[0:10] = True
    gold_bits[20:30] = True
    a_bits = np.zeros(40, dtype=bool)
    a_bits[0:10] = True
    b_bits = np.zeros(40, dtype=bool)
    b_bits[20:30] = True
    gold = {"d1": se.CharMask("d1", gold_bits)}
    pred_a = {"d1": se.CharMask("d1", a_bits)}
    pred_b = {"d1": se.CharMask("d1", b_bits)}
    err_a = se.error_set(gold, pred_a)
    err_b = se.error_set(gold, pred_b)
    assert se.comp_rate(err_a, err_b) == 100.0
    assert se.comp_rate(err_b, err_a) == 100.0
    union_mask = {"d1": se.union(pred_a["d1"], pred_b["d1"])}
    assert se.char_prf(gold, union_mask).recall == 1.0

    sizes = [512, 256, 160, 120, 100]
    nested = [frozenset(("d1", i) for i in range(s)) for s in sizes]
    rates = [se.comp_rate(nested[m], nested[m + 1]) for m in range(len(nested) - 1)]
    assert all(rates[i] >= rates[i + 1] - 1e-12 for i in range(len(rates) - 1))
    ok(6, "comp_rate self = 0, perfect partner = 100; disjoint-error pair complements both "
          "ways with union recall 1.0; marginal rates non-increasing on nested pools")


def test_criterion_07_cui_matching():
    doc = se.doc_level_cui_prf(
        {"d1": {"C0000001", "C0000002"}}, {"d1": {"C0000002", "C0000003"}}
    )
    assert doc.macro_f1 == pytest.approx(1 / 3)

    gold = {"d1": se.to_cui_mask([se.Annotation("d1", "g", 0, 10, cui="C0000001")], "d1", 20, 0)}
    pred = {"d1": se.to_cui_mask([se.Annotation("d1", "p", 5, 15, cui="C0000001")], "d1", 20, 0)}
    mention = se.mention_level_cui_prf(gold, pred)
    assert mention.macro_f1 == 0.5

    # majority beats span length: two layers agree on C1 over a short span
    layers = [
        se.to_cui_mask([se.Annotation("d1", "A", 0, 4, cui="C0000001")], "d1", 12, 0),
        se.to_cui_mask([se.Annotation("d1", "B", 0, 4, cui="C0000001")], "d1", 12, 0),
        se.to_cui_mask([se.Annotation("d1", "C", 0, 12, cui="C0000002")], "d1", 12, 0),
    ]
    merged = se.merge_cui_layers(layers, seed=1)
    assert merged.labels()[:4] == ["C0000001"] * 4
    assert merged.labels()[4:] == ["C0000002"] * 8

    # vote tie, longer originating span wins
    layers = [
        se.to_cui_mask([se.Annotation("d1", "A", 0, 10, cui="C0000001")], "d1", 12, 0),
        se.to_cui_mask([se.Annotation("d1", "B", 0, 4, cui="C0000002")], "d1", 12, 0),
    ]
    merged = se.merge_cui_layers(layers, seed=1)
    assert merged.labels()[:10] == ["C0000001"] * 10

    # full tie: seeded, reproducible, choice limited to the tied candidates
    layers = [
        se.to_cui_mask([se.Annotation("d1", "A", 0, 6, cui="C0000001")], "d1", 6, 0),
        se.to_cui_mask([se.Annotation("d1", "B", 0, 6, cui="C0000002")], "d1", 6, 0),
    ]
    first = se.merge_cui_layers(layers, seed=9)
    assert first == se.merge_cui_layers(layers, seed=9)
    assert all(l in ("C0000001", "C0000002") for l in first.labels())
    ok(7, "doc-level macro F1 = 1/3 on the two-concept instance; mention-level overlap = 0.5; "
          "merge cascade (majority, longer span, seeded) matches hand traces")


def test_criterion_08_synthetic_end_to_end(tmp_path):
    start = time.monotonic()
    out_dir = tmp_path / "corpus"
    rc = cli_main(
        [
            "synth",
            "--out-dir", str(out_dir),
            "--docs", "1000",
            "--doc-length", "2000",
            "--source", "A:0.5:0:0",
            "--source", "B:0.5:0:0",
            "--source", "C:0.2:1:1",
            "--source", "D:0.3:2:1",
            "--source", "E:0.1:3:2",
            "--density", "50",
            "--span-len-min", "3",
            "--span-len-max", "9",
            "--seed", "8",
        ]
    )
    assert rc == 0
    rc = cli_main(
        [
            "search",
            "--config", str(out_dir / "config.json"),
            "--seed", "1",
            "--out", str(tmp_path / "report.csv"),
        ]
    )
    assert rc == 0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0

    docs = se.load_corpus_manifest(out_dir / "manifest.jsonl")
    anns = list(se.load_annotations(out_dir / "gold.jsonl", docs, expected_source=GOLD_SOURCE))
    gold_spans = len(anns)
    assert gold_spans >= 100_000
    for name in ("A", "B"):
        anns.extend(se.load_annotations(out_dir / f"{name}.jsonl", docs, expected_source=name))
    store = se.AnnotationStore(docs, anns)
    union_recall = se.evaluate_expression(store, se.parse("(A|B)"), GOLD_SOURCE).recall
    assert union_recall == pytest.approx(0.75, abs=0.01)

    report = (tmp_path / "report.csv").read_text()
    assert report.splitlines()[0].startswith("corpus,group,combination,p,r,f1")
    ok(8, f"pipeline over 1000 docs x 2000 chars x 5 sources ran in {elapsed:.1f}s (< 60s); "
          f"union recall {union_recall:.4f} matches the 0.75 independence value over "
          f"{gold_spans} gold spans")


def test_criterion_09_determinism(medium_store, tmp_path):
    out_dir = tmp_path / "corpus"
    rc = cli_main(
        ["synth", "--out-dir", str(out_dir), "--docs", "15", "--doc-length", "500",
         "--n-sources", "4", "--cui-vocab", "10", "--seed", "12"]
    )
    assert rc == 0
    reports = []
    for name in ("r1.csv", "r2.csv"):
        rc = cli_main(
            ["search", "--config", str(out_dir / "config.json"), "--seed", "5",
             "--out", str(tmp_path / name)]
        )
        assert rc == 0
        reports.append((tmp_path / name).read_bytes())
    assert reports[0] == reports[1]

    # the same search over a store built from reversed document, annotation
    # and source order must not see the order (for example through the bit
    # each source takes in a coverage pattern)
    reversed_store = se.AnnotationStore(
        medium_store.documents[::-1],
        medium_store.annotations[::-1],
        group_universe=medium_store.group_universe,
        sources=medium_store.sources[::-1],
    )
    forward = se.grid_search(
        medium_store, GOLD_SOURCE, se.SearchConfig(sources=tuple("ABCDE"), seed=7)
    )
    backward = se.grid_search(
        reversed_store, GOLD_SOURCE, se.SearchConfig(sources=tuple("EDCBA"), seed=7)
    )
    assert forward == backward
    text_forward = emit_table([PanelBlock("synth", "ALL", forward)], ENSEMBLE_PANELS, CSV_FORMAT)
    text_backward = emit_table([PanelBlock("synth", "ALL", backward)], ENSEMBLE_PANELS, CSV_FORMAT)
    assert text_forward.encode() == text_backward.encode()
    ok(9, "identical config + seed reproduce byte-identical reports; searches over reversed "
          "document, annotation and source order emit identical bytes")


def test_criterion_10_table_shapes(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    rc = cli_main(
        ["synth", "--out-dir", str(out_dir), "--docs", "20", "--doc-length", "600",
         "--n-sources", "5", "--cui-vocab", "12", "--seed", "23"]
    )
    assert rc == 0
    capsys.readouterr()

    def run_md(args):
        rc = cli_main(args + ["--format", "markdown"])
        text = capsys.readouterr().out
        assert rc == 0
        return text

    config = str(out_dir / "config.json")
    singles_md = run_md(["ner-eval", "--config", config, "--group", "each"])
    assert "Individual system performance" in singles_md
    for group in ("Anatomy", "Chemicals & Drugs", "Disorders", "Procedures", "ALL"):
        assert f"| {group} |" in singles_md

    panels_md = run_md(["search", "--config", config, "--group", "each", "--top-k", "5"])
    for panel in ("Highest F1-score", "Highest precision", "Highest recall"):
        assert panel in panels_md
    assert "Ensembles beating all single systems" in panels_md
    assert "Single system baselines" in panels_md

    vote_md = run_md(["vote", "--config", config, "--group", "each"])
    assert "Majority vote ensemble performance" in vote_md

    cui_doc_md = run_md(["cui-eval", "--config", config, "--expr", "((A|B)|C)", "--level", "doc"])
    cui_mention_md = run_md(
        ["cui-eval", "--config", config, "--expr", "((A|B)|C)", "--level", "mention"]
    )
    for text, level in ((cui_doc_md, "doc"), (cui_mention_md, "mention")):
        assert "Concept matching performance" in text
        assert f"| {level} |" in text
        assert "ensemble" in text and "single" in text
    ok(10, "single-system, three-panel ensemble, majority-vote, and concept-matching table "
           "shapes all emitted for the synthetic 5-source corpus")
