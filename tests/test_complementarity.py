import random
import re

import numpy as np
import pytest

from span_ensembles import (
    Annotation,
    AnnotationStore,
    CharMask,
    DocumentRef,
    comp_rate,
    complementarity_scores,
    error_set,
)
from span_ensembles.model import GOLD_SOURCE


def mask(text, doc_id="d1"):
    return CharMask(doc_id, np.array([c == "1" for c in text]))


def restricted_prf(gold, pred_a, pred_b):
    """PRF of B on A's errors, from a one-document store whose gold, A and B
    spans are the runs of 1s in the given bit strings."""
    texts = {GOLD_SOURCE: gold, "A": pred_a, "B": pred_b}
    anns = [
        Annotation("d1", source, run.start(), run.end())
        for source, text in texts.items()
        for run in re.finditer("1+", text)
    ]
    store = AnnotationStore([DocumentRef("d1", len(gold))], anns, sources=tuple(texts))
    return complementarity_scores(store, ("A", "B"), GOLD_SOURCE)[("A", "B")][1]


def test_error_set_examples():
    gold = {"d1": mask("1100")}
    assert error_set(gold, {"d1": mask("1100")}) == frozenset()
    assert error_set(gold, {"d1": mask("0011")}) == frozenset(
        {("d1", 0), ("d1", 1), ("d1", 2), ("d1", 3)}
    )
    assert error_set(gold, {"d1": mask("1010")}) == frozenset({("d1", 1), ("d1", 2)})


def test_comp_rate_cases():
    errors = frozenset({("d1", 1), ("d1", 2), ("d1", 3), ("d1", 4)})
    assert comp_rate(errors, errors) == 0.0
    other = frozenset({("d1", 3), ("d1", 4), ("d1", 5)})
    assert comp_rate(errors, other) == 50.0
    assert comp_rate(errors, frozenset()) == 100.0
    assert comp_rate(frozenset(), errors) == 0.0


def test_comp_rate_bounds():
    rng = random.Random(4)
    for _ in range(200):
        a = frozenset(("d1", rng.randrange(30)) for _ in range(rng.randrange(0, 20)))
        b = frozenset(("d1", rng.randrange(30)) for _ in range(rng.randrange(0, 20)))
        assert 0.0 <= comp_rate(a, b) <= 100.0


def test_comp_prf_b_perfect_on_a_errors():
    gold = "1111100000"
    pred_a = "1110000000"  # errors at positions 3, 4
    pred_b = "0001100000"  # exactly fixes them
    result = restricted_prf(gold, pred_a, pred_b)
    assert (result.tp, result.fp, result.fn) == (2, 0, 0)
    assert result.f1 == 1.0


def test_comp_prf_b_repeats_a():
    gold = "1111100000"
    pred_a = "1110011000"
    result = restricted_prf(gold, pred_a, pred_a)
    assert result.tp == 0
    assert result.f1 == 0.0


def test_comp_prf_empty_error_set_is_degenerate():
    gold = "1100"
    result = restricted_prf(gold, gold, "0011")
    assert result.degenerate
    assert (result.tp, result.fp, result.fn) == (0, 0, 0)


def test_marginal_comp_rate_non_increasing_on_nested_pools():
    # nested error sets with non-decreasing size ratios: the best hypothetical
    # combination of the first m systems errs exactly on the m-th set, so each
    # added system's complementary rate shrinks
    sizes = [512, 256, 160, 120, 100]
    universe = [("d1", i) for i in range(600)]
    nested = [frozenset(universe[:s]) for s in sizes]
    rates = [comp_rate(nested[m], nested[m + 1]) for m in range(len(nested) - 1)]
    assert all(rates[i] >= rates[i + 1] - 1e-12 for i in range(len(rates) - 1))
    assert rates[0] == pytest.approx(50.0)
