"""Error sets and the complementary rate between system pairs.

The complementary rate is the share of one system's misclassified characters
that another system gets right: an upper bound on what combining with that
system could fix.  Error sets are its set form; the tasks read the same rate
from the count table (``search.complementarity_scores``).
"""

from __future__ import annotations

from typing import FrozenSet, Mapping

import numpy as np

from .masks import CharMask
from .metrics import _check_same_masks

# Misclassified positions: (doc_id, character index) where prediction != gold.
ErrorSet = FrozenSet[tuple[str, int]]


def error_set(gold: Mapping[str, CharMask], pred: Mapping[str, CharMask]) -> ErrorSet:
    """Positions where the prediction bit differs from gold (FP or FN characters)."""
    _check_same_masks(gold, pred)
    positions = []
    for doc_id in sorted(gold):
        wrong = np.flatnonzero(gold[doc_id].bits != pred[doc_id].bits)
        positions.extend((doc_id, int(idx)) for idx in wrong)
    return frozenset(positions)


def comp_rate_from_counts(shared: int, errors: int) -> float:
    """100 * (1 - shared / errors); 0 when there are no errors (a perfect
    system cannot be improved)."""
    if not errors:
        return 0.0
    return 100.0 * (1.0 - shared / errors)


def comp_rate(errors_a: ErrorSet, errors_b: ErrorSet) -> float:
    """Percentage of A's errors that B classifies correctly:
    100 * (1 - |A and B| / |A|), 0 when A has no errors."""
    return comp_rate_from_counts(len(errors_a & errors_b), len(errors_a))
