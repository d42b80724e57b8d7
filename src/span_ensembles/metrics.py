"""Scoring: character-level PRF, concept matching, and Bernoulli intervals.

Character scoring follows the inside/outside partial-match scheme: counts
are characters, micro-aggregated across documents.  Concept matching scores
per-CUI confusion counts (document level or mention level) and reports
unweighted macro averages over the union of gold and predicted labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Mapping, Optional

import numpy as np

from .errors import ValidationError
from .masks import CharMask, CuiMask

Z_95 = 1.96

Interval = tuple[float, float]


def bernoulli_ci(p: float, n: int, z: float = Z_95) -> Interval:
    """Bernoulli confidence interval p +/- z*sqrt(p(1-p)/n), clipped to [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"proportion {p} outside [0, 1]")
    if n < 1:
        raise ValidationError("confidence interval undefined for n < 1")
    half = z * math.sqrt(p * (1.0 - p) / n)
    return (max(0.0, p - half), min(1.0, p + half))


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
        if min(tp, fp, fn) < 0:
            raise ValidationError("negative confusion counts")
        n_pred = tp + fp
        n_gold = tp + fn
        precision = tp / n_pred if n_pred else 0.0
        recall = tp / n_gold if n_gold else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        n_f1 = 2 * tp + fp + fn
        return cls(
            tp=tp,
            fp=fp,
            fn=fn,
            precision=precision,
            recall=recall,
            f1=f1,
            n_gold=n_gold,
            n_pred=n_pred,
            ci_precision=bernoulli_ci(precision, n_pred, z) if n_pred else None,
            ci_recall=bernoulli_ci(recall, n_gold, z) if n_gold else None,
            ci_f1=bernoulli_ci(2 * tp / n_f1, n_f1, z) if n_f1 else None,
            degenerate=n_pred == 0 or n_gold == 0 or precision + recall == 0,
        )


def _check_same_docs(gold: Mapping[str, object], pred: Mapping[str, object]) -> None:
    if set(gold) != set(pred):
        missing = sorted(set(gold) ^ set(pred))
        raise ValidationError(f"document sets differ; mismatched ids: {missing[:10]}")


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
    _check_same_docs(gold, pred)
    tp = fp = fn = 0
    for doc_id in sorted(gold):
        g, p = gold[doc_id], pred[doc_id]
        if g.length != p.length:
            raise ValidationError(
                f"mask length mismatch for doc {doc_id!r}: {g.length} vs {p.length}"
            )
        d_tp, d_fp, d_fn = confusion_counts(g.bits, p.bits)
        tp += d_tp
        fp += d_fp
        fn += d_fn
    return MetricsResult.from_counts(tp, fp, fn, z)


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
    def from_label_counts(cls, counts: Mapping[str, tuple[int, int, int]]) -> "CuiMetricsResult":
        per_label = {
            label: MetricsResult.from_counts(*counts[label]) for label in sorted(counts)
        }
        if not per_label:
            return cls({}, 0.0, 0.0, 0.0, degenerate=True)
        k = len(per_label)
        return cls(
            per_label=per_label,
            macro_precision=sum(m.precision for m in per_label.values()) / k,
            macro_recall=sum(m.recall for m in per_label.values()) / k,
            macro_f1=sum(m.f1 for m in per_label.values()) / k,
            degenerate=any(m.degenerate for m in per_label.values()),
        )


def doc_level_cui_prf(
    gold: Mapping[str, AbstractSet[str]], pred: Mapping[str, AbstractSet[str]]
) -> CuiMetricsResult:
    """Document-level concept matching as a multilabel task: per CUI, a true
    positive is a document where the CUI appears in both gold and prediction."""
    _check_same_docs(gold, pred)
    counts: dict[str, list[int]] = {}
    for doc_id in sorted(gold):
        g, p = set(gold[doc_id]), set(pred[doc_id])
        for cui in g | p:
            slot = counts.setdefault(cui, [0, 0, 0])
            if cui in g and cui in p:
                slot[0] += 1
            elif cui in p:
                slot[1] += 1
            else:
                slot[2] += 1
    return CuiMetricsResult.from_label_counts(
        {cui: (tp, fp, fn) for cui, (tp, fp, fn) in counts.items()}
    )


def mention_level_cui_prf(
    gold: Mapping[str, CuiMask], pred: Mapping[str, CuiMask]
) -> CuiMetricsResult:
    """Mention-level concept matching with inside/outside character counts.

    Per CUI: tp = characters labeled with it in both; fp = labeled in the
    prediction but differently (or OUTSIDE) in gold; fn = the reverse.
    OUTSIDE itself is never scored.
    """
    _check_same_docs(gold, pred)
    counts: dict[str, list[int]] = {}
    for doc_id in sorted(gold):
        g, p = gold[doc_id], pred[doc_id]
        if g.length != p.length:
            raise ValidationError(
                f"mask length mismatch for doc {doc_id!r}: {g.length} vs {p.length}"
            )
        for run in g.runs:
            counts.setdefault(run.cui, [0, 0, 0])[2] += run.end - run.begin
        for run in p.runs:
            counts.setdefault(run.cui, [0, 0, 0])[1] += run.end - run.begin
        # characters where both carry the same label move from fp and fn to tp
        first = 0
        for run in p.runs:
            while first < len(g.runs) and g.runs[first].end <= run.begin:
                first += 1
            at = first
            while at < len(g.runs) and g.runs[at].begin < run.end:
                other = g.runs[at]
                if other.cui == run.cui:
                    shared = min(run.end, other.end) - max(run.begin, other.begin)
                    slot = counts[run.cui]
                    slot[0] += shared
                    slot[1] -= shared
                    slot[2] -= shared
                at += 1
    return CuiMetricsResult.from_label_counts(
        {cui: (tp, fp, fn) for cui, (tp, fp, fn) in counts.items()}
    )
