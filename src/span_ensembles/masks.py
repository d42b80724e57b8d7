"""Character-mask set algebra: the representation Boolean ensembles operate on.

Every document is a binary inside/outside vector (one cell per character) or,
for concept matching, a vector of concept labels.  Union, intersection, and
majority vote work on these vectors; all randomized tie-breaks are keyed
per character so results are independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import seeds
from .errors import ValidationError
from .model import Annotation


@dataclass(frozen=True, eq=False)
class CharMask:
    """Binary character vector for one document (1 = inside an annotation)."""

    doc_id: str
    bits: np.ndarray

    def __post_init__(self):
        if self.bits.dtype != np.bool_:
            object.__setattr__(self, "bits", self.bits.astype(bool))

    @property
    def length(self) -> int:
        return int(self.bits.shape[0])

    @property
    def covered(self) -> int:
        return int(np.count_nonzero(self.bits))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CharMask):
            return NotImplemented
        return self.doc_id == other.doc_id and np.array_equal(self.bits, other.bits)

    def __and__(self, other: "CharMask") -> "CharMask":
        return intersect(self, other)

    def __or__(self, other: "CharMask") -> "CharMask":
        return union(self, other)


def _check_compatible(a: CharMask, b: CharMask) -> None:
    if a.doc_id != b.doc_id:
        raise ValidationError(f"mask doc mismatch: {a.doc_id!r} vs {b.doc_id!r}")
    if a.length != b.length:
        raise ValidationError(
            f"mask length mismatch for doc {a.doc_id!r}: {a.length} vs {b.length}"
        )


def _doc_spans(
    annotations: Iterable[Annotation], doc_id: str, doc_length: int
) -> Iterator[Annotation]:
    """The annotations, each checked to belong to the document and fit in it."""
    for ann in annotations:
        if ann.doc_id != doc_id:
            raise ValidationError(
                f"annotation for doc {ann.doc_id!r} passed while building doc {doc_id!r}"
            )
        if ann.end > doc_length:
            raise ValidationError(
                f"span [{ann.begin}, {ann.end}) out of bounds for length {doc_length}"
            )
        yield ann


def to_char_mask(
    annotations: Iterable[Annotation], doc_id: str, doc_length: int
) -> CharMask:
    """Coverage mask of a span collection; overlapping input spans simply merge."""
    bits = np.zeros(doc_length, dtype=bool)
    for ann in _doc_spans(annotations, doc_id, doc_length):
        bits[ann.begin : ann.end] = True
    return CharMask(doc_id, bits)


def mask_to_spans(mask: CharMask) -> tuple[tuple[int, int], ...]:
    """Maximal runs of 1s as sorted half-open intervals."""
    padded = np.concatenate(([False], mask.bits, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return tuple((int(edges[i]), int(edges[i + 1])) for i in range(0, len(edges), 2))


def union(a: CharMask, b: CharMask) -> CharMask:
    _check_compatible(a, b)
    return CharMask(a.doc_id, a.bits | b.bits)


def intersect(a: CharMask, b: CharMask) -> CharMask:
    _check_compatible(a, b)
    return CharMask(a.doc_id, a.bits & b.bits)


def majority_vote(masks: Sequence[CharMask], seed: int) -> CharMask:
    """Per-character majority over k masks; exact ties (k even) break by a
    seeded per-character coin keyed on (seed, doc, character index)."""
    if len(masks) < 2:
        raise ValidationError("majority vote needs at least 2 masks")
    first = masks[0]
    for other in masks[1:]:
        _check_compatible(first, other)
    k = len(masks)
    counts = np.zeros(first.length, dtype=np.int64)
    for mask in masks:
        counts += mask.bits
    bits = counts * 2 > k
    if k % 2 == 0:
        for idx in np.flatnonzero(counts * 2 == k):
            bits[idx] = bool(seeds.pick_index(2, seed, first.doc_id, int(idx)))
    return CharMask(first.doc_id, bits)


@dataclass(frozen=True)
class CuiRun:
    """A maximal run of characters labeled with one concept id.

    ``origin_length`` is the length of the annotation span the label came
    from; overlap resolution can truncate runs, and merge tie-breaking needs
    the original span length, not the surviving run length.
    """

    begin: int
    end: int
    cui: str
    origin_length: int

    def __post_init__(self):
        if self.begin < 0 or self.end <= self.begin:
            raise ValidationError(f"bad run [{self.begin}, {self.end})")


@dataclass(frozen=True, eq=False)
class CuiMask:
    """Concept-labeled character vector: each cell is OUTSIDE or exactly one CUI.

    Stored as sorted non-overlapping label runs; unlabeled gaps are OUTSIDE.
    """

    doc_id: str
    length: int
    runs: tuple[CuiRun, ...]

    def __post_init__(self):
        prev_end = 0
        for run in self.runs:
            if run.begin < prev_end:
                raise ValidationError(
                    f"overlapping runs in doc {self.doc_id!r} at offset {run.begin}"
                )
            if run.end > self.length:
                raise ValidationError(
                    f"run [{run.begin}, {run.end}) exceeds doc length {self.length}"
                )
            prev_end = run.end

    def labels(self) -> list[Optional[str]]:
        """Materialized per-character labels (None = OUTSIDE)."""
        out: list[Optional[str]] = [None] * self.length
        for run in self.runs:
            for i in range(run.begin, run.end):
                out[i] = run.cui
        return out

    def label_at(self, index: int) -> Optional[str]:
        for run in self.runs:
            if run.begin <= index < run.end:
                return run.cui
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, CuiMask):
            return NotImplemented
        return (
            self.doc_id == other.doc_id
            and self.length == other.length
            and [(r.begin, r.end, r.cui) for r in self.runs]
            == [(r.begin, r.end, r.cui) for r in other.runs]
        )


def _resolve_candidates(
    entries: Sequence[tuple[int, int, str, int]], doc_id: str, seed: int
) -> tuple[CuiRun, ...]:
    """Resolve possibly-conflicting labeled intervals to one label per character.

    ``entries`` are (begin, end, cui, origin_length) votes.  Per character:
    most votes wins; ties go to the label with the longest originating span;
    remaining ties to a seeded per-character pick.  One sweep over the
    segments between span boundaries keeps the entries covering the current
    segment active.
    """
    pending = sorted(entries, reverse=True)  # popped from the end in begin order
    boundaries = sorted({e[0] for e in entries} | {e[1] for e in entries})
    active: list[tuple[int, int, str, int]] = []
    merged: list[list] = []  # [begin, end, cui, origin] runs

    def emit(begin: int, end: int, cui: str, origin_length: int) -> None:
        if merged and merged[-1][1] == begin and merged[-1][2] == cui:
            merged[-1][1] = end
            merged[-1][3] = max(merged[-1][3], origin_length)
        else:
            merged.append([begin, end, cui, origin_length])

    for seg_begin, seg_end in zip(boundaries, boundaries[1:]):
        active = [e for e in active if e[1] > seg_begin]
        while pending and pending[-1][0] == seg_begin:
            active.append(pending.pop())
        if not active:
            continue
        votes: dict[str, int] = {}
        origin: dict[str, int] = {}
        for _, _, cui, origin_length in active:
            votes[cui] = votes.get(cui, 0) + 1
            origin[cui] = max(origin.get(cui, 0), origin_length)
        best_votes = max(votes.values())
        tied = [c for c, v in votes.items() if v == best_votes]
        if len(tied) > 1:
            best_len = max(origin[c] for c in tied)
            tied = [c for c in tied if origin[c] == best_len]
        if len(tied) == 1:
            emit(seg_begin, seg_end, tied[0], origin[tied[0]])
        else:
            tied.sort()
            for idx in range(seg_begin, seg_end):
                winner = tied[seeds.pick_index(len(tied), seed, doc_id, idx)]
                emit(idx, idx + 1, winner, origin[winner])
    return tuple(CuiRun(b, e, c, o) for b, e, c, o in merged)


def to_cui_mask(
    annotations: Iterable[Annotation], doc_id: str, doc_length: int, seed: int
) -> CuiMask:
    """Concept mask of one source's annotations for one document.

    Annotations without a CUI are skipped.  Overlapping concept assignments
    resolve per character by the vote / longest-span / seeded-random cascade.
    """
    entries = [
        (ann.begin, ann.end, ann.cui, ann.length)
        for ann in _doc_spans(annotations, doc_id, doc_length)
        if ann.cui is not None
    ]
    runs = _resolve_candidates(entries, doc_id, seed)
    return CuiMask(doc_id, doc_length, runs)


def merge_cui_layers(layers: Sequence[CuiMask], seed: int) -> CuiMask:
    """Union-merge concept masks from several sources into one.

    Per character with at least one candidate: the CUI proposed by the most
    layers wins; ties go to the CUI with the longest originating span, then
    to a seeded per-character pick.  Characters with no candidate stay
    OUTSIDE.
    """
    if not layers:
        raise ValidationError("merge needs at least one layer")
    first = layers[0]
    for other in layers[1:]:
        if other.doc_id != first.doc_id or other.length != first.length:
            raise ValidationError(
                f"layer mismatch: {other.doc_id!r}/{other.length} vs "
                f"{first.doc_id!r}/{first.length}"
            )
    entries = [
        (run.begin, run.end, run.cui, run.origin_length)
        for layer in layers
        for run in layer.runs
    ]
    runs = _resolve_candidates(entries, first.doc_id, seed)
    return CuiMask(first.doc_id, first.length, runs)
