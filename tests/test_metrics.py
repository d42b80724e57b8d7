import dataclasses
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from span_ensembles import (
    Annotation,
    CharMask,
    ValidationError,
    bernoulli_ci,
    char_prf,
    ci_overlap_significant,
    doc_level_cui_prf,
    error_set,
    mention_level_cui_prf,
    to_cui_mask,
)
from span_ensembles.metrics import MetricsResult, metrics_rows, prf
from conftest import brute_confusion, exact, rand_mask, scalar_ci, scalar_metrics


def cover(doc_id: str, length: int, *spans) -> CharMask:
    bits = np.zeros(length, dtype=bool)
    for begin, end in spans:
        bits[begin:end] = True
    return CharMask(doc_id, bits)


def test_char_prf_half_overlap():
    gold = {"d1": cover("d1", 20, (0, 10))}
    pred = {"d1": cover("d1", 20, (5, 15))}
    result = char_prf(gold, pred)
    assert (result.tp, result.fp, result.fn) == (5, 5, 5)
    assert result.precision == result.recall == result.f1 == 0.5
    assert result.n_gold == 10 and result.n_pred == 10


def test_char_prf_identity():
    gold = {"d1": cover("d1", 20, (0, 10), (12, 15))}
    result = char_prf(gold, dict(gold))
    assert result.precision == result.recall == result.f1 == 1.0
    assert not result.degenerate


def test_char_prf_two_doc_micro_aggregation():
    # doc1: gold covers 10 chars, pred overlaps 5 and adds 5 spurious
    # doc2: gold empty, pred adds 4 spurious chars
    gold = {"d1": cover("d1", 30, (0, 10)), "d2": cover("d2", 30)}
    pred = {"d1": cover("d1", 30, (5, 15)), "d2": cover("d2", 30, (3, 7))}
    result = char_prf(gold, pred)
    assert (result.tp, result.fp, result.fn) == (5, 9, 5)
    assert result.precision == pytest.approx(5 / 14)
    assert result.recall == 0.5


def test_char_prf_doc_mismatch():
    gold = {"d1": cover("d1", 5)}
    pred = {"d2": cover("d2", 5)}
    with pytest.raises(ValidationError):
        char_prf(gold, pred)


def test_mask_length_mismatch_is_validation_error():
    short, long = {"d1": cover("d1", 4, (0, 2))}, {"d1": cover("d1", 6, (0, 2))}
    for score in (char_prf, error_set):
        with pytest.raises(ValidationError, match="mask length mismatch for doc 'd1': 4 vs 6"):
            score(short, long)
    anns = [Annotation("d1", "A", 0, 3, cui="C0000001")]
    gold = {"d1": to_cui_mask(anns, "d1", 4, seed=0)}
    pred = {"d1": to_cui_mask(anns, "d1", 6, seed=0)}
    with pytest.raises(ValidationError, match="mask length mismatch"):
        mention_level_cui_prf(gold, pred)


def test_char_prf_matches_bruteforce():
    rng = random.Random(88)
    for _ in range(100):
        docs = {f"d{i}": rng.randrange(1, 50) for i in range(rng.randrange(1, 4))}
        gold = {d: rand_mask(rng, d, n) for d, n in docs.items()}
        pred = {d: rand_mask(rng, d, n) for d, n in docs.items()}
        result = char_prf(gold, pred)
        tp = fp = fn = 0
        for d in docs:
            a, b, c = brute_confusion(gold[d].bits, pred[d].bits)
            tp, fp, fn = tp + a, fp + b, fn + c
        assert (result.tp, result.fp, result.fn) == (tp, fp, fn)


def test_bernoulli_ci_values():
    low, high = bernoulli_ci(0.5, 100)
    assert low == pytest.approx(0.402, abs=1e-9)
    assert high == pytest.approx(0.598, abs=1e-9)
    assert bernoulli_ci(1.0, 7) == (1.0, 1.0)
    low, high = bernoulli_ci(0.8, 400)
    assert low == pytest.approx(0.7608, abs=1e-9)
    assert high == pytest.approx(0.8392, abs=1e-9)


def test_bernoulli_ci_clipping():
    low, high = bernoulli_ci(0.01, 10)
    assert low == 0.0 and high > 0.01


def test_bernoulli_ci_rejects_zero_n():
    with pytest.raises(ValidationError):
        bernoulli_ci(0.5, 0)


def test_ci_half_width_scaling():
    # 1/sqrt(n) law, measured away from the [0, 1] clipping boundary
    def width(ci):
        return ci[1] - ci[0]

    for p in (0.2, 0.37, 0.5, 0.82):
        for n in (100, 400, 1234):
            assert abs(width(bernoulli_ci(p, n)) / width(bernoulli_ci(p, 4 * n)) - 2.0) < 1e-9


COUNTS = st.one_of(st.just(0), st.integers(0, 4), st.integers(0, 2**40))
Z = st.sampled_from([1.96, 1.0, 2.5758293035489004, 3])


@given(st.lists(st.tuples(COUNTS, COUNTS, COUNTS), max_size=30), Z)
@example([], 1.96)
@example([(0, 0, 0), (0, 0, 5), (0, 5, 0), (5, 0, 0), (2**40, 2**40, 2**40)], 1.96)
def test_metrics_rows_are_the_scalar_oracle_bit_for_bit(counts, z):
    """Every field of every row, intervals and ``degenerate`` included, is
    the oracle's to the bit and of its type; ``prf`` gives the same floats,
    and ``from_counts`` is one row of it."""
    tp, fp, fn = np.array(counts, dtype=np.int64).reshape(-1, 3).T
    rows = metrics_rows(tp, fp, fn, z)
    expected = [scalar_metrics(*c, z) for c in counts]
    assert [exact(dataclasses.astuple(m)) for m in rows] == [
        exact(dataclasses.astuple(m)) for m in expected
    ]
    for name, array in zip(("precision", "recall", "f1"), prf(tp, fp, fn)):
        assert array.dtype == np.float64
        assert exact(tuple(array.tolist())) == exact(tuple(getattr(m, name) for m in expected))
    assert [MetricsResult.from_counts(*c, z) for c in counts] == rows


@given(st.floats(0.0, 1.0), st.integers(1, 2**62), Z)
@example(0.0, 1, 1.96)
@example(1.0, 7, 1.96)
@example(0.5, 2**53 + 1, 1.96)
def test_bernoulli_ci_is_the_math_sqrt_formula_bit_for_bit(p, n, z):
    assert exact(bernoulli_ci(p, n, z)) == exact(scalar_ci(p, n, z))


def test_counts_outside_the_limit_are_refused():
    with pytest.raises(ValidationError, match="negative confusion counts"):
        MetricsResult.from_counts(3, -1, 2)
    for count in (2**61, 2**63, 2**64):
        with pytest.raises(ValidationError, match="below 2\\^61"):
            MetricsResult.from_counts(1, count, 0)
    big = MetricsResult.from_counts(2**61 - 1, 2**61 - 1, 2**61 - 1)
    assert big.n_pred == 2**62 - 2 and big.precision == 0.5


def test_ci_overlap_rule():
    assert not ci_overlap_significant((0.40, 0.60), (0.55, 0.70))
    assert ci_overlap_significant((0.40, 0.50), (0.55, 0.70))
    # closed intervals: touching endpoints overlap
    assert not ci_overlap_significant((0.4, 0.5), (0.5, 0.6))
    assert ci_overlap_significant((0.55, 0.70), (0.40, 0.50))  # symmetric


def test_f1_ci_contains_point_f1():
    rng = random.Random(7)
    for _ in range(200):
        tp, fp, fn = rng.randrange(0, 50), rng.randrange(0, 50), rng.randrange(0, 50)
        result = MetricsResult.from_counts(tp, fp, fn)
        if result.ci_f1 is not None:
            assert result.ci_f1[0] - 1e-12 <= result.f1 <= result.ci_f1[1] + 1e-12
        # F1 equals the proportion form 2tp/(2tp+fp+fn)
        if 2 * tp + fp + fn:
            assert result.f1 == pytest.approx(2 * tp / (2 * tp + fp + fn))


def test_degenerate_flags():
    empty = MetricsResult.from_counts(0, 0, 0)
    assert empty.degenerate and empty.precision == 0.0 and empty.ci_f1 is None
    no_pred = MetricsResult.from_counts(0, 0, 5)
    assert no_pred.degenerate and no_pred.ci_precision is None and no_pred.ci_recall is not None


def test_doc_level_cui_example():
    result = doc_level_cui_prf(
        {"d1": {"C0000001", "C0000002"}}, {"d1": {"C0000002", "C0000003"}}
    )
    assert result.per_label["C0000001"].f1 == 0.0
    assert result.per_label["C0000002"].f1 == 1.0
    assert result.per_label["C0000003"].f1 == 0.0
    assert result.macro_f1 == pytest.approx(1 / 3)


def test_doc_level_identity_and_empty():
    gold = {"d1": {"C0000001"}, "d2": {"C0000002", "C0000003"}}
    perfect = doc_level_cui_prf(gold, {k: set(v) for k, v in gold.items()})
    assert perfect.macro_precision == perfect.macro_recall == perfect.macro_f1 == 1.0
    silent = doc_level_cui_prf(gold, {"d1": set(), "d2": set()})
    assert silent.macro_recall == 0.0


def test_doc_level_permutation_invariance():
    gold = {"d1": {"C0000001"}, "d2": {"C0000002"}, "d3": set()}
    pred = {"d1": {"C0000002"}, "d2": {"C0000002"}, "d3": {"C0000001"}}
    a = doc_level_cui_prf(gold, pred)
    reordered = dict(reversed(list(gold.items())))
    b = doc_level_cui_prf(reordered, pred)
    assert a.macro_f1 == b.macro_f1
    assert a.labels == b.labels


def cui_mask(doc_id, length, *spans):
    anns = [Annotation(doc_id, "x", b, e, cui=c) for b, e, c in spans]
    return to_cui_mask(anns, doc_id, length, seed=0)


def test_mention_level_single_label_overlap():
    gold = {"d1": cui_mask("d1", 20, (0, 10, "C0000001"))}
    pred = {"d1": cui_mask("d1", 20, (5, 15, "C0000001"))}
    result = mention_level_cui_prf(gold, pred)
    label = result.per_label["C0000001"]
    assert (label.tp, label.fp, label.fn) == (5, 5, 5)
    assert result.macro_f1 == 0.5


def test_mention_level_identity():
    gold = {"d1": cui_mask("d1", 20, (0, 5, "C0000001"), (8, 12, "C0000002"))}
    result = mention_level_cui_prf(gold, dict(gold))
    assert result.macro_f1 == 1.0


def test_mention_level_label_confusion():
    gold = {"d1": cui_mask("d1", 10, (0, 4, "C0000001"))}
    pred = {"d1": cui_mask("d1", 10, (0, 4, "C0000002"))}
    result = mention_level_cui_prf(gold, pred)
    assert result.per_label["C0000001"].fn == 4
    assert result.per_label["C0000002"].fp == 4
    assert result.macro_f1 == 0.0


def test_mention_level_outside_not_scored():
    gold = {"d1": cui_mask("d1", 10, (0, 4, "C0000001"))}
    pred = {"d1": cui_mask("d1", 10, (0, 4, "C0000001"))}
    result = mention_level_cui_prf(gold, pred)
    assert result.labels == ("C0000001",)
