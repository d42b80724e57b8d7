"""Character-mask set algebra: the representation Boolean ensembles operate on.

Every document is a binary inside/outside vector (one cell per character) or,
for concept matching, a vector of concept labels.  Union and intersection
work on these vectors.  The scoring tasks build them for a block of
documents laid end to end: :func:`coverage_patterns` gives each
character's coverage pattern by several span sets in one boundary sweep, and
:func:`_resolve_candidates` resolves labelled intervals to runs with array
operations.  All randomized tie-breaks are keyed per character, on the
document and the index in it, so results are independent of evaluation order
and of where blocks end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

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


def coverage_patterns(spans: Sequence[tuple[np.ndarray, np.ndarray]], length: int) -> np.ndarray:
    """Coverage pattern of each of ``length`` characters by several span sets.

    Bit j of the int64 result is set where a half-open span of ``spans[j]``,
    a (begins, ends) pair of integer arrays sorted by begin, covers the
    character.  Each set's overlapping or touching spans first merge (a
    running max of their ends), so the set adds 2^j once where it starts
    covering and takes it away where it stops: one ``bincount`` of those
    steps and a cumulative sum give every pattern.  The spans must fit in
    ``length``: nothing is checked here.
    """
    points, steps = [], []
    for j, (begins, ends) in enumerate(spans):
        if not len(begins):
            continue
        reach = np.maximum.accumulate(ends)
        starts = np.ones(len(begins), dtype=bool)
        starts[1:] = begins[1:] > reach[:-1]
        lasts = np.ones_like(starts)
        lasts[:-1] = starts[1:]
        weight = np.full(np.count_nonzero(starts), 2.0**j)
        points += [begins[starts], reach[lasts]]
        steps += [weight, -weight]
    if not points:
        return np.zeros(length, dtype=np.int64)
    # float steps are exact: every partial sum is an integer below 2^len(spans)
    delta = np.bincount(np.concatenate(points), np.concatenate(steps), minlength=length + 1)
    return np.cumsum(delta[:length], out=delta[:length]).astype(np.int64)


def union(a: CharMask, b: CharMask) -> CharMask:
    _check_compatible(a, b)
    return CharMask(a.doc_id, a.bits | b.bits)


def intersect(a: CharMask, b: CharMask) -> CharMask:
    _check_compatible(a, b)
    return CharMask(a.doc_id, a.bits & b.bits)


def locate(starts: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(document, index in it) of each offset in a block of documents laid
    end to end, document i starting at ``starts[i]``."""
    doc = np.searchsorted(starts, offsets, side="right") - 1
    return doc, offsets - starts[doc]


def keyed_picks(n: int | np.ndarray, seed: int, starts: np.ndarray, doc_ids: Sequence[str],
                offsets: np.ndarray) -> np.ndarray:
    """The seeded pick in [0, n) of each character at ``offsets`` in a block
    of documents laid end to end (document i starts at ``starts[i]``), keyed
    on (seed, doc, character index in the doc); ``n`` is one count or one
    per character."""
    doc, index = locate(starts, offsets)
    keys = zip(np.broadcast_to(n, len(offsets)).tolist(), doc.tolist(), index.tolist())
    return np.array([seeds.pick_index(k, seed, doc_ids[d], idx) for k, d, idx in keys],
                    dtype=np.int64)


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, CuiMask):
            return NotImplemented
        return (
            self.doc_id == other.doc_id
            and self.length == other.length
            and [(r.begin, r.end, r.cui) for r in self.runs]
            == [(r.begin, r.end, r.cui) for r in other.runs]
        )


class Runs(NamedTuple):
    """Labelled runs as parallel arrays, sorted and disjoint: run i covers
    ``begin[i]`` to ``end[i] - 1`` with label code ``label[i]``, and
    ``origin[i]`` is the longest span length its label came from."""

    begin: np.ndarray
    end: np.ndarray
    label: np.ndarray
    origin: np.ndarray

    @classmethod
    def concat(cls, parts: Sequence["Runs"]) -> "Runs":
        return cls(*(np.concatenate(column) for column in zip(*parts)))


def _group_starts(*keys: np.ndarray) -> np.ndarray:
    """Positions where any of the sorted parallel ``keys`` changes value,
    position 0 included (the arrays must not be empty)."""
    new = np.zeros(len(keys[0]), dtype=bool)
    new[0] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(new)


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, rank) of each of ``counts.sum()`` items handed out in order:
    owner j gets ``counts[j]`` items, ranked 0, 1, ... among them."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


def _resolve_candidates(
    votes: Runs, starts: np.ndarray, doc_ids: Sequence[str], seed: int
) -> Runs:
    """Resolve possibly-conflicting labelled intervals to one label per character.

    ``votes`` are (begin, end, label, origin length) intervals over a block
    of documents laid end to end: document i starts at ``starts[i]`` and
    ``starts`` ends with the block's length.  Label codes must sort as the
    label names do.  Per character: most votes wins; ties go to the label
    with the longest originating span; remaining ties to a seeded pick among
    them in label order, keyed on (seed, doc, character index in the doc).
    Segments lie between interval boundaries; one sort of the (segment,
    label, origin) votes counts votes and finds the longest origin.  Equal
    labels on adjacent segments merge into one run, never across a document
    start.
    """
    if not len(votes.begin):
        return votes
    points = np.unique(np.concatenate((votes.begin, votes.end)))
    first = np.searchsorted(points, votes.begin)
    entry, rank = _expand(np.searchsorted(points, votes.end) - first)  # one per segment covered
    segment = first[entry] + rank
    label, origin = votes.label[entry], votes.origin[entry]
    order = np.lexsort((origin, label, segment))
    segment, label, origin = segment[order], label[order], origin[order]
    # one candidate per (segment, label): its votes and longest origin
    groups = _group_starts(segment, label)
    count = np.diff(np.append(groups, len(segment)))
    origin = origin[np.append(groups[1:], len(segment)) - 1]
    segment, label = segment[groups], label[groups]
    # candidates by segment, then best first: votes, origin, label order
    order = np.lexsort((label, -origin, -count, segment))
    segment, label, count, origin = segment[order], label[order], count[order], origin[order]
    best = _group_starts(segment)
    seg_of = _expand(np.diff(np.append(best, len(segment))))[0]
    level = (count == count[best][seg_of]) & (origin == origin[best][seg_of])
    tied = np.add.reduceat(level.astype(np.int64), best)
    # one piece per segment, or one per character where the winner is a seeded pick
    seg_begin, seg_end = points[segment[best]], points[segment[best] + 1]
    pieces = np.where(tied > 1, seg_end - seg_begin, 1)
    piece_seg, rank = _expand(pieces)
    begin = seg_begin[piece_seg] + rank
    split = tied[piece_seg] > 1
    end = np.where(split, begin + 1, seg_end[piece_seg])
    winner = best[piece_seg]
    at = np.flatnonzero(split)
    winner[at] += keyed_picks(tied[piece_seg[at]], seed, starts, doc_ids, begin[at])
    label, origin = label[winner], origin[winner]
    joined = np.zeros(len(begin), dtype=bool)
    joined[1:] = (begin[1:] == end[:-1]) & (label[1:] == label[:-1])
    joined &= locate(starts, begin)[1] > 0  # never across a document start
    runs = np.flatnonzero(~joined)
    return Runs(
        begin[runs],
        end[np.append(runs[1:], len(begin)) - 1],
        label[runs],
        np.maximum.reduceat(origin, runs),
    )


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
    return cui_mask(entries, doc_id, doc_length, seed)


def cui_mask(
    entries: Sequence[tuple[int, int, str, int]], doc_id: str, doc_length: int, seed: int
) -> CuiMask:
    """Concept mask of (begin, end, cui, span length) entries that fit the
    document, resolved as in :func:`to_cui_mask`."""
    names = sorted({cui for _, _, cui, _ in entries})
    code = {name: i for i, name in enumerate(names)}
    votes = np.array([(b, e, code[c], o) for b, e, c, o in entries], dtype=np.int64)
    votes = Runs(*votes.reshape(-1, 4).T)
    runs = _resolve_candidates(votes, np.array([0, doc_length]), (doc_id,), seed)
    return CuiMask(
        doc_id,
        doc_length,
        tuple(CuiRun(b, e, names[c], o) for b, e, c, o in zip(*(col.tolist() for col in runs))),
    )


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
    return cui_mask(entries, first.doc_id, first.length, seed)
