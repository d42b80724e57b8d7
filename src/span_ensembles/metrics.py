"""Scoring: character-level PRF, concept matching, and Bernoulli intervals.

Character scoring follows the inside/outside partial-match scheme: counts
are characters, micro-aggregated across documents.  Concept matching scores
per-CUI confusion counts (document level or mention level) and reports
unweighted macro averages over the union of gold and predicted labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Mapping, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .masks import CharMask, CuiMask, Runs

Z_95 = 1.96

Interval = tuple[float, float]


def intervals(q: np.ndarray, n: np.ndarray, z: float = Z_95) -> list[Optional[Interval]]:
    """q +/- z*sqrt(q(1-q)/n), clipped to [0, 1], for each float proportion
    in ``q`` over its count of trials in ``n`` (as float64, which is what
    ``float / int`` divides by); None where n is 0."""
    half = z * np.sqrt(q * (1.0 - q) / np.maximum(n, 1).astype(np.float64))
    low, high = q - half, q + half  # clipped as max(0.0, low) and min(1.0, high) clip them
    low, high = np.where(low > 0.0, low, 0.0).tolist(), np.where(high < 1.0, high, 1.0).tolist()
    return [ci if k else None for k, ci in zip(n.tolist(), zip(low, high))]


def bernoulli_ci(p: float, n: int, z: float = Z_95) -> Interval:
    """Bernoulli confidence interval p +/- z*sqrt(p(1-p)/n), clipped to [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"proportion {p} outside [0, 1]")
    if n < 1:
        raise ValidationError("confidence interval undefined for n < 1")
    return intervals(np.array([p], dtype=np.float64), np.array([n], dtype=np.float64), z)[0]


def ci_overlap_significant(a: Interval, b: Interval) -> bool:
    """True iff the closed intervals are disjoint (difference significant);
    touching endpoints count as overlap, so the difference is not."""
    return a[1] < b[0] or b[1] < a[0]


@dataclass(frozen=True)
class MetricsResult:
    """Precision/recall/F1 with the raw counts they derive from.

    ``n_gold``/``n_pred`` are the recall and precision denominators.  The CI
    for F1 treats F1 = 2tp/(2tp+fp+fn) as a success proportion over
    n = 2tp+fp+fn trials.  ``degenerate`` flags any zero denominator; CIs are
    None where their denominator is zero.
    """

    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    n_gold: int
    n_pred: int
    ci_precision: Optional[Interval]
    ci_recall: Optional[Interval]
    ci_f1: Optional[Interval]
    degenerate: bool

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int, z: float = Z_95) -> "MetricsResult":
        return metrics_rows([tp], [fp], [fn], z)[0]


def prf(tp: np.ndarray, fp: np.ndarray, fn: np.ndarray) -> tuple[np.ndarray, ...]:
    """Precision, recall and F1 of int64 count arrays, 0.0 where a
    denominator is 0: F1 is 2*precision*recall / (precision + recall)."""
    n_pred, n_gold = tp + fp, tp + fn
    precision = np.divide(tp, n_pred, out=np.zeros(len(tp)), where=n_pred != 0)
    recall = np.divide(tp, n_gold, out=np.zeros(len(tp)), where=n_gold != 0)
    total = precision + recall
    f1 = np.divide(2 * precision * recall, total, out=np.zeros(len(tp)), where=total != 0)
    return precision, recall, f1


def metrics_rows(tp, fp, fn, z: float = Z_95) -> list[MetricsResult]:
    """One :class:`MetricsResult` per (tp, fp, fn) triple of the three count
    sequences.  Each float is the one exact division of integers gives while
    2tp + fp + fn is below 2^53, where every count converts to a float
    exactly; every field holds a Python int, float or bool."""
    try:
        counts = np.array([tp, fp, fn], dtype=np.int64)
    except OverflowError:
        counts = None
    if counts is None or counts.max(initial=0) >= 2**61:  # so that 2tp + fp + fn fits int64
        raise ValidationError("confusion counts must be below 2^61")
    if counts.min(initial=0) < 0:
        raise ValidationError("negative confusion counts")
    tp, fp, fn = counts
    n_pred, n_gold, n_f1 = tp + fp, tp + fn, 2 * tp + fp + fn
    precision, recall, f1 = prf(tp, fp, fn)
    q_f1 = np.divide(2 * tp, n_f1, out=np.zeros(len(tp)), where=n_f1 != 0)
    degenerate = (n_pred == 0) | (n_gold == 0) | (precision + recall == 0)
    columns = (c.tolist() for c in (tp, fp, fn, precision, recall, f1, n_gold, n_pred))
    cis = intervals(precision, n_pred, z), intervals(recall, n_gold, z), intervals(q_f1, n_f1, z)
    return [MetricsResult(*row) for row in zip(*columns, *cis, degenerate.tolist())]


def _check_same_docs(gold: Mapping[str, object], pred: Mapping[str, object]) -> None:
    if set(gold) != set(pred):
        missing = sorted(set(gold) ^ set(pred))
        raise ValidationError(f"document sets differ; mismatched ids: {missing[:10]}")


def _check_same_masks(
    gold: Mapping[str, CharMask | CuiMask], pred: Mapping[str, CharMask | CuiMask]
) -> None:
    """Both sides map the same documents, each to masks of equal length."""
    _check_same_docs(gold, pred)
    for doc_id in sorted(gold):
        g, p = gold[doc_id], pred[doc_id]
        if g.length != p.length:
            raise ValidationError(
                f"mask length mismatch for doc {doc_id!r}: {g.length} vs {p.length}"
            )


def confusion_counts(gold_bits: np.ndarray, pred_bits: np.ndarray) -> tuple[int, int, int]:
    tp = int(np.count_nonzero(gold_bits & pred_bits))
    fp = int(np.count_nonzero(pred_bits & ~gold_bits))
    fn = int(np.count_nonzero(gold_bits & ~pred_bits))
    return tp, fp, fn


def char_prf(
    gold: Mapping[str, CharMask], pred: Mapping[str, CharMask], z: float = Z_95
) -> MetricsResult:
    """Character-level PRF micro-aggregated over the corpus.

    tp = characters inside in both, fp = inside prediction only,
    fn = inside gold only.
    """
    _check_same_masks(gold, pred)
    totals = np.zeros(3, dtype=np.int64)
    for doc_id in sorted(gold):
        totals += confusion_counts(gold[doc_id].bits, pred[doc_id].bits)
    return MetricsResult.from_counts(*totals.tolist(), z)


@dataclass(frozen=True)
class CuiMetricsResult:
    """Per-concept metrics plus unweighted macro averages.

    The label universe is the union of CUIs appearing in gold or prediction,
    so hallucinated concepts count against the macro scores.
    """

    per_label: Mapping[str, MetricsResult]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    degenerate: bool

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(sorted(self.per_label))

    @classmethod
    def from_count_array(cls, names: Sequence[str], counts: np.ndarray) -> "CuiMetricsResult":
        """From a (3, n) array of tp, fp and fn per label code, code i naming
        ``names[i]``, which must be in string order; labels with no count at
        all are not in the universe."""
        present = np.flatnonzero(counts.any(axis=0)).tolist()
        per_label = dict(zip([names[i] for i in present], metrics_rows(*counts[:, present])))
        if not per_label:
            return cls({}, 0.0, 0.0, 0.0, degenerate=True)
        rows, k = per_label.values(), len(per_label)
        return cls(per_label, sum(m.precision for m in rows) / k, sum(m.recall for m in rows) / k,
                   sum(m.f1 for m in rows) / k, degenerate=any(m.degenerate for m in rows))


def doc_level_cui_prf(
    gold: Mapping[str, AbstractSet[str]], pred: Mapping[str, AbstractSet[str]]
) -> CuiMetricsResult:
    """Document-level concept matching as a multilabel task: per CUI, a true
    positive is a document where the CUI appears in both gold and prediction."""
    _check_same_docs(gold, pred)
    names = sorted(set().union(*gold.values(), *pred.values()))
    code = {cui: i for i, cui in enumerate(names)}
    counts = np.zeros((3, len(names)), dtype=np.int64)
    for doc_id in sorted(gold):
        g, p = set(gold[doc_id]), set(pred[doc_id])
        for row, cuis in enumerate((g & p, p - g, g - p)):  # tp, fp, fn
            counts[row, [code[cui] for cui in cuis]] += 1
    return CuiMetricsResult.from_count_array(names, counts)


def _labels(runs: Runs, length: int) -> np.ndarray:
    """Label code + 1 of each of ``length`` characters, 0 outside the runs,
    which must be disjoint."""
    step = runs.label + 1.0
    points = np.concatenate((runs.begin, runs.end))
    delta = np.bincount(points, np.concatenate((step, -step)), minlength=length + 1)
    return np.cumsum(delta[:length], out=delta[:length]).astype(np.int64)


def label_counts(gold: Runs, preds: Sequence[Runs], length: int, size: int) -> list[np.ndarray]:
    """Mention-level tp, fp and fn per label code (the rows of a (3, size)
    array) of each of ``preds`` against ``gold``, all sets of disjoint
    labelled runs over ``length`` characters: tp counts the characters both
    label alike, fp the characters the prediction labels otherwise than gold
    (OUTSIDE included), fn the reverse."""
    g = _labels(gold, length)
    gold_total = np.bincount(g, minlength=size + 1)[1:]
    counts = []
    for pred in preds:
        p = _labels(pred, length)
        tp = np.bincount(g[g == p], minlength=size + 1)[1:]
        counts.append(np.stack([tp, np.bincount(p, minlength=size + 1)[1:] - tp, gold_total - tp]))
    return counts


def mention_level_cui_prf(
    gold: Mapping[str, CuiMask], pred: Mapping[str, CuiMask]
) -> CuiMetricsResult:
    """Mention-level concept matching with inside/outside character counts.

    Per CUI: tp = characters labeled with it in both; fp = labeled in the
    prediction but differently (or OUTSIDE) in gold; fn = the reverse.
    OUTSIDE itself is never scored.
    """
    _check_same_masks(gold, pred)
    masks = [*gold.values(), *pred.values()]
    names = sorted({run.cui for mask in masks for run in mask.runs})
    code = {name: i for i, name in enumerate(names)}

    def runs(mask: CuiMask) -> Runs:
        rows = [(r.begin, r.end, code[r.cui], r.origin_length) for r in mask.runs]
        return Runs(*np.array(rows, dtype=np.int64).reshape(-1, 4).T)

    counts = np.zeros((3, len(names)), dtype=np.int64)
    for doc_id in sorted(gold):
        length = gold[doc_id].length
        counts += label_counts(runs(gold[doc_id]), [runs(pred[doc_id])], length, len(names))[0]
    return CuiMetricsResult.from_count_array(names, counts)
