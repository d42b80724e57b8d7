"""Core data model: documents, annotations, semantic groups, and validated stores.

A store holds its spans as numpy columns (:class:`SpanColumns`); the
:class:`Annotation` record is the form spans take at the API edges.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Collection, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, ValidationError

# Sentinel for "no group filtering". "All groups" is a view, never a stored label.
ALL_GROUPS = "ALL"

GOLD_SOURCE = "gold"

CUI_PATTERN = re.compile(r"^C\d{7}$")


@dataclass(frozen=True)
class DocumentRef:
    """One document of a corpus, identified by id and measured in characters."""

    doc_id: str
    length: int
    corpus_id: str = ""

    def __post_init__(self):
        if not self.doc_id:
            raise ValidationError("doc_id must be non-empty")
        if self.length < 0:
            raise ValidationError(f"document {self.doc_id!r}: negative length {self.length}")


@dataclass(frozen=True)
class Annotation:
    """One labeled character span emitted by a system or the gold standard.

    Offsets are 0-based half-open over the document's plain text; characters
    are the atomic unit everywhere in this package.
    """

    doc_id: str
    source: str
    begin: int
    end: int
    group: Optional[str] = None
    native_type: Optional[str] = None
    cui: Optional[str] = None
    score: Optional[float] = None

    def __post_init__(self):
        if self.begin < 0 or self.end <= self.begin:
            raise ValidationError(f"bad span [{self.begin}, {self.end}) from source "
                                  f"{self.source!r} in doc {self.doc_id!r}")
        if self.cui is not None and not CUI_PATTERN.match(self.cui):
            raise ValidationError(f"bad concept id {self.cui!r} (expected 'C' + 7 digits)")
        if self.score is not None and not 0.0 <= self.score <= 1.0:
            raise ValidationError(f"score {self.score} outside [0, 1]")

    @property
    def length(self) -> int:
        return self.end - self.begin


@dataclass(frozen=True)
class SemanticGroupMap:
    """Mapping from source semantic types to the shared group vocabulary.

    ``native_to_group`` (keyed by (source, native_type)) takes precedence over
    the generic ``tui_to_group`` lookup; ``group_universe`` is the ordered set
    of group labels annotations may carry.
    """

    tui_to_group: Mapping[str, str]
    native_to_group: Mapping[tuple[str, str], str]
    group_universe: tuple[str, ...]

    def __post_init__(self):
        universe = set(self.group_universe)
        if ALL_GROUPS in universe:
            raise ValidationError(
                f"{ALL_GROUPS!r} denotes the unfiltered union and cannot be a group label"
            )
        for tui, group in self.tui_to_group.items():
            if group not in universe:
                raise ValidationError(f"type {tui!r} maps to unknown group {group!r}")
        for (source, native), group in self.native_to_group.items():
            if group not in universe:
                raise ValidationError(
                    f"override ({source!r}, {native!r}) targets unknown group {group!r}"
                )

    def lookup(self, source: str, native_type: str) -> Optional[str]:
        by_source = self.native_to_group.get((source, native_type))
        if by_source is not None:
            return by_source
        return self.tui_to_group.get(native_type)


# The columns of SpanColumns, named after Annotation's fields, and for each
# coded column the attribute holding its names.
COLUMNS = ("doc_id", "source", "begin", "end", "group", "native_type", "cui", "score")
NAMED_COLUMNS = {
    "doc_id": "doc_ids",
    "source": "sources",
    "group": "groups",
    "native_type": "native_types",
    "cui": "cuis",
}


def span_names(doc_ids: Iterable[str] = ()) -> dict[str, dict]:
    """Name -> code tables, one per coded column, empty but for ``doc_ids``,
    coded by position; code 0 of the optional columns (group, native type,
    CUI) stands for no value."""
    names = {col: ({} if col == "source" else {None: 0}) for col in NAMED_COLUMNS}
    names["doc_id"] = {doc_id: i for i, doc_id in enumerate(doc_ids)}
    return names


def encode_values(values: Mapping[str, list], names: Mapping[str, dict],
                  read: Optional[Mapping] = None) -> dict[str, np.ndarray]:
    """Column arrays of plain per-row values (names, ints, floats or None),
    each name coded through ``names``, which grows by the names it lacks in
    order of first appearance.  ``read`` may give what a reader already made
    of the columns: each name column's distinct names in order of first
    appearance (``dict.fromkeys``) and each integer column's int64 array."""
    arrays = {}
    for col in COLUMNS:
        column = values[col]
        if col in NAMED_COLUMNS:
            index = names[col]
            fresh = dict.fromkeys(column) if read is None else read[col]
            for name in fresh:
                index.setdefault(name, len(index))
            if len(fresh) == 1:
                arrays[col] = np.full(len(column), index[next(iter(fresh))], dtype=np.int32)
            else:
                arrays[col] = np.fromiter(map(index.__getitem__, column), np.int32, len(column))
        elif col == "score":
            arrays[col] = np.array(column, dtype=np.float64)  # None -> NaN
        elif read is not None:
            arrays[col] = read[col]
        else:
            try:
                arrays[col] = np.array(column, dtype=np.int64)
            except OverflowError:
                raise ValidationError("span offsets must fit in 64 bits") from None
    return arrays


@dataclass(frozen=True, eq=False)
class SpanColumns:
    """Annotations as parallel numpy columns, one row per span.

    The columns are named after :class:`Annotation`'s fields.  ``doc_id``,
    ``source``, ``group``, ``native_type`` and ``cui`` hold codes into the
    name tuples ``doc_ids``, ``sources``, ``groups``, ``native_types`` and
    ``cuis``; in the last three, name 0 is None.  ``score`` is NaN where
    there is none.  Every row of the columns a reader returns or a store
    holds satisfies the :class:`Annotation` invariants (see :func:`row_faults`).
    """

    doc_id: np.ndarray
    source: np.ndarray
    begin: np.ndarray
    end: np.ndarray
    group: np.ndarray
    native_type: np.ndarray
    cui: np.ndarray
    score: np.ndarray
    doc_ids: tuple[str, ...]
    sources: tuple[str, ...]
    groups: tuple[Optional[str], ...]
    native_types: tuple[Optional[str], ...]
    cuis: tuple[Optional[str], ...]

    @classmethod
    def join(cls, parts: list[tuple[dict, Mapping]]) -> "SpanColumns":
        """Columns of one or more parts, rows in part order.  A part is a pair:
        its arrays by column, and by coded column the names its codes index,
        in code order.  Each coded column is recoded through one table, the
        parts' names in order of first appearance.

        The arrays are recoded in place, and each column leaves ``parts`` as
        it is concatenated, so no more than one column is held twice.
        """
        tables = {}
        for col, attr in NAMED_COLUMNS.items():
            table: dict = {}
            for arrays, names in parts:
                codes = (table.setdefault(name, len(table)) for name in names[col])
                np.take(np.fromiter(codes, np.int32, len(names[col])), arrays[col], out=arrays[col])
            tables[attr] = tuple(table)
        arrays = {col: np.concatenate([arrays.pop(col) for arrays, _ in parts]) for col in COLUMNS}
        return cls(**arrays, **tables)

    @classmethod
    def from_annotations(cls, annotations: Iterable[Annotation]) -> "SpanColumns":
        anns = list(annotations)
        names = span_names()
        values = {col: [getattr(a, col) for a in anns] for col in COLUMNS}
        return cls.join([(encode_values(values, names), names)])

    def __len__(self) -> int:
        return len(self.begin)

    def take(self, rows) -> "SpanColumns":
        """The rows selected by an index, slice or boolean mask; names kept."""
        return replace(self, **{col: getattr(self, col)[rows] for col in COLUMNS})

    def annotations(self) -> list[Annotation]:
        rows = zip(*(getattr(self, col).tolist() for col in COLUMNS))
        docs, sources = self.doc_ids, self.sources
        groups, natives, cuis = self.groups, self.native_types, self.cuis
        return [
            Annotation(docs[d], sources[s], b, e, groups[g], natives[n], cuis[c],
                       None if score != score else score)
            for d, s, b, e, g, n, c, score in rows
        ]

    def groups_present(self) -> tuple[str, ...]:
        return tuple(sorted(self.groups[c] for c in np.unique(self.group).tolist() if c))


def row_faults(spans: SpanColumns, lengths: np.ndarray, universe: Collection[str],
               grouped: Optional[np.ndarray] = None) -> np.ndarray:
    """The rows that break a record rule, as a boolean mask: an
    :class:`Annotation` invariant (a bad CUI, ``begin < 0``, ``end <= begin``,
    a score outside [0, 1]; NaN, no score, passes), a span past its
    document's end (``lengths`` is indexed by document code), which takes in
    an unknown document (length -1), or, on the rows ``grouped`` marks (all
    if None), a group outside a non-empty ``universe``.  Names are judged
    once each; the temporaries are made one at a time."""
    bad_cui = np.array([c is not None and not CUI_PATTERN.match(c) for c in spans.cuis], dtype=bool)
    faults = bad_cui[spans.cui]
    faults |= spans.begin < 0
    faults |= spans.end <= spans.begin
    faults |= spans.score < 0.0
    faults |= spans.score > 1.0  # NaN compares false
    faults |= spans.end > lengths[spans.doc_id]
    if universe:
        foreign = np.array([g is not None and g not in universe for g in spans.groups], bool)
        foreign = foreign[spans.group]
        faults |= foreign if grouped is None else foreign & grouped
    return faults


def _sort_rank(names: Sequence[Optional[str]]) -> np.ndarray:
    """Rank of each name in string order, None ranking as the empty string."""
    keys = [name or "" for name in names]
    rank = {key: i for i, key in enumerate(sorted(set(keys)))}
    return np.array([rank[key] for key in keys], dtype=np.int32)


def packed_lexsort(keys: Sequence[np.ndarray]) -> np.ndarray:
    """``np.lexsort(keys)`` for non-negative integer (or boolean) keys: the
    order that sorts by the last key, then the one before it, and so on,
    ties kept in row order.

    The keys are packed by bit width, the last key highest, into as few
    uint64 words as hold them, so that the words compare as the keys do;
    chained stable argsorts, least significant word first, give the order.
    A key whose values are all 0 takes no bits.
    """
    words: list[np.ndarray] = []
    used = 64
    for key in reversed(keys):
        if not len(key):
            continue
        if key.min() < 0:
            raise ValueError("packed_lexsort takes non-negative keys only")
        width = int(key.max()).bit_length()
        if not width:
            continue
        if used + width > 64:
            words.append(key.astype(np.uint64))
            used = width
        else:
            words[-1] <<= np.uint64(width)
            words[-1] |= key.astype(np.uint64)
            used += width
    if not words:
        return np.arange(len(keys[0]))
    order = np.argsort(words.pop(), kind="stable")
    while words:
        order = order[np.argsort(words.pop()[order], kind="stable")]
    return order


def overlapping(
    spans: SpanColumns, keep: Optional[np.ndarray] = None, openers: bool = False
) -> np.ndarray:
    """Flags the rows that begin before some earlier span of the same (source,
    doc, group) ends, spans taken in (begin, end) order.

    Only the rows that ``keep`` (a boolean mask; all if None) holds are
    scanned.  With ``openers``, the row that opens each flagged row's cluster
    (the last unflagged row before it) is flagged too, so the flags mark
    every member of a cluster of two or more overlapping spans and nothing
    else.  A running-max scan, one source at a time, so its temporaries
    scale with the largest source.
    """
    flags = np.zeros(len(spans), dtype=bool)
    for code in range(len(spans.sources)):
        in_source = spans.source == code
        if keep is not None:
            in_source &= keep
        rows = np.flatnonzero(in_source)
        if not len(rows):
            continue
        keys = (spans.end[rows], spans.begin[rows], spans.group[rows], spans.doc_id[rows])
        order = rows[packed_lexsort(keys)]
        del keys, rows  # not held through the scan below
        n = len(order)
        first = np.zeros(n, dtype=bool)
        first[0] = True
        for column in (spans.doc_id, spans.group):
            key = column[order]
            first[1:] |= key[1:] != key[:-1]
        begin, end = spans.begin[order], spans.end[order]
        top = int(end.max()) + 1
        if top * (int(np.count_nonzero(first)) + 1) >= 2**63:
            # Offsets become ranks (below 2n), so that the lift below cannot overflow.
            _, ranks = np.unique(np.concatenate((begin, end)), return_inverse=True)
            begin, end, top = ranks[:n], ranks[n:], 2 * n
        # Lifting each slice by ``top`` per slice puts it above the ones before:
        # one running max serves all.
        lift = np.cumsum(first) * top
        reach = np.maximum.accumulate(end + lift)
        flagged = np.zeros(n, dtype=bool)
        flagged[1:] = begin[1:] + lift[1:] < reach[:-1]
        if openers:
            # a slice's first row is never flagged, so an opener is in its slice
            flagged[:-1] |= flagged[1:]
        flags[order] = flagged
    return flags


class AnnotationStore:
    """Immutable, validated collection of annotations indexed by (source, doc, group).

    Spans are held as :class:`SpanColumns` sorted by (source, doc, begin,
    end, group, cui), with row offsets per (source, doc); the order is one
    :func:`packed_lexsort` and one gather.  Construction takes ``Annotation``
    records or columns (copied) and validates the rows' ``Annotation``
    invariants, document references, span bounds and groups; :meth:`adopt`
    takes columns over without a copy.
    Per-slice span disjointness is the post-disambiguation invariant and is
    checked separately via :meth:`verify_disjoint_spans`.
    """

    def __init__(
        self,
        documents: Iterable[DocumentRef],
        annotations: Union[Iterable[Annotation], SpanColumns],
        group_universe: Iterable[str] = (),
        sources: Iterable[str] = (),
    ):
        if isinstance(annotations, SpanColumns):
            spans = replace(annotations, **{col: getattr(annotations, col).copy() for col in COLUMNS})
        else:
            spans = SpanColumns.from_annotations(annotations)
        self._take_over(documents, spans, np.ones(len(spans), dtype=bool), group_universe, sources)

    @classmethod
    def adopt(
        cls,
        documents: Iterable[DocumentRef],
        spans: SpanColumns,
        keep: np.ndarray,
        group_universe: Iterable[str] = (),
        sources: Iterable[str] = (),
    ) -> "AnnotationStore":
        """A store of the rows of ``spans`` that the boolean mask ``keep``
        marks, checked as the constructor checks them.

        The store takes the columns over: it recodes and reorders their
        arrays in place and holds the first rows of each, so the set-up
        never holds the columns twice.  Nothing else may use ``spans``
        afterwards.
        """
        store = object.__new__(cls)
        store._take_over(documents, spans, keep, group_universe, sources)
        return store

    def _take_over(self, documents, spans: SpanColumns, keep: np.ndarray, group_universe, sources):
        docs: dict[str, DocumentRef] = {}
        for doc in documents:
            if doc.doc_id in docs:
                raise ValidationError(f"duplicate doc_id {doc.doc_id!r}")
            docs[doc.doc_id] = doc

        universe = tuple(dict.fromkeys(group_universe))
        if ALL_GROUPS in universe:
            raise ValidationError(
                f"{ALL_GROUPS!r} denotes the unfiltered union and cannot be a group label"
            )

        doc_ids = tuple(sorted(docs))
        doc_index = {doc_id: i for i, doc_id in enumerate(doc_ids)}
        doc_code = np.array([doc_index.get(d, -1) for d in spans.doc_ids], dtype=np.int32)
        lengths = np.array([docs[d].length if d in docs else -1 for d in spans.doc_ids], dtype=np.int64)
        bad = row_faults(spans, lengths, universe)
        bad &= keep
        if bad.any():
            row = int(np.argmax(bad))
            spans.take([row]).annotations()  # raises an Annotation invariant's message
            doc_id = spans.doc_ids[spans.doc_id[row]]
            if doc_id not in docs:
                raise ValidationError(f"annotation references unknown doc {doc_id!r}")
            if spans.end[row] > docs[doc_id].length:
                raise ValidationError(
                    f"span [{spans.begin[row]}, {spans.end[row]}) exceeds doc {doc_id!r} "
                    f"length {docs[doc_id].length}"
                )
            raise ValidationError(
                f"annotation group {spans.groups[spans.group[row]]!r} not in the group universe"
            )

        present = {spans.sources[s] for s in np.unique(spans.source[keep]).tolist()}
        store_sources = tuple(sorted(set(sources) | present))
        source_index = {s: i for i, s in enumerate(store_sources)}
        source_code = np.array([source_index.get(s, 0) for s in spans.sources], dtype=np.int32)
        np.take(doc_code, spans.doc_id, out=spans.doc_id)
        np.take(source_code, spans.source, out=spans.source)
        # The kept rows move to the front, in row order, and only they are
        # sorted: a row left out may hold an unknown document (code -1) or a
        # negative offset.
        n_kept, held = int(np.count_nonzero(keep)), {}
        for col in COLUMNS:
            column = getattr(spans, col)
            column[:n_kept] = column[keep]
            held[col] = column[:n_kept]
        order = packed_lexsort((
            _sort_rank(spans.cuis)[held["cui"]],
            _sort_rank(spans.groups)[held["group"]],
            held["end"],
            held["begin"],
            held["doc_id"],
            held["source"],
        ))
        for column in held.values():
            column[:] = column[order]
        self._spans = spans = replace(spans, **held, doc_ids=doc_ids, sources=store_sources)
        self._documents = docs
        self._group_universe = universe
        self._doc_index = doc_index
        self._source_index = source_index
        self._group_code = {g: code for code, g in enumerate(spans.groups) if g is not None}
        slice_key = spans.source.astype(np.int64) * len(spans.doc_ids) + spans.doc_id
        self._offsets = np.searchsorted(
            slice_key, np.arange(len(spans.sources) * len(spans.doc_ids) + 1)
        ).tolist()

    @property
    def columns(self) -> SpanColumns:
        """The spans as columns, in store order."""
        return self._spans

    @cached_property
    def annotations(self) -> tuple[Annotation, ...]:
        return tuple(self._spans.annotations())

    @property
    def sources(self) -> tuple[str, ...]:
        return self._spans.sources

    @property
    def group_universe(self) -> tuple[str, ...]:
        return self._group_universe

    @property
    def doc_ids(self) -> tuple[str, ...]:
        return self._spans.doc_ids

    @cached_property
    def documents(self) -> tuple[DocumentRef, ...]:
        return tuple(self._documents[d] for d in self.doc_ids)

    def document(self, doc_id: str) -> DocumentRef:
        try:
            return self._documents[doc_id]
        except KeyError:
            raise ValidationError(f"unknown doc {doc_id!r}") from None

    @cached_property
    def doc_lengths(self) -> np.ndarray:
        """Length of each document, in :attr:`doc_ids` order."""
        return np.array([doc.length for doc in self.documents], dtype=np.int64)

    def rows(self, source: str, doc_id: str, group: Optional[str] = None):
        """Index (a slice or an array) of one source's rows in one document in
        :attr:`columns`; ``None`` or ``ALL_GROUPS`` keeps every group."""
        d = self._doc_index.get(doc_id)
        if d is None:
            return slice(0, 0)
        return self.span_rows(source, d, d + 1, group)

    def span_rows(self, source: str, first: int, stop: int, group: Optional[str] = None):
        """Index (a slice or an array) of one source's rows in documents
        ``first`` to ``stop - 1`` (positions in :attr:`doc_ids`) in
        :attr:`columns`, in store order; ``None`` or ``ALL_GROUPS`` keeps
        every group."""
        s = self._source_index.get(source)
        if s is None:
            return slice(0, 0)
        base = s * len(self._doc_index)
        lo, hi = self._offsets[base + first], self._offsets[base + stop]
        if group is None or group == ALL_GROUPS:
            return slice(lo, hi)
        return lo + np.flatnonzero(self._spans.group[lo:hi] == self._group_code.get(group, -1))

    def annotations_for(
        self, source: str, doc_id: str, group: Optional[str] = None
    ) -> tuple[Annotation, ...]:
        """One source's spans in one document, sorted; ``None`` or ``ALL_GROUPS``
        keeps every group."""
        return tuple(self._spans.take(self.rows(source, doc_id, group)).annotations())

    def groups_present(self) -> tuple[str, ...]:
        return self._spans.groups_present()

    def verify_disjoint_spans(self) -> None:
        """Check the post-disambiguation invariant: no overlapping spans within
        one (source, doc, group) slice."""
        flags = overlapping(self._spans)
        if flags.any():
            row = int(np.argmax(flags))
            spans = self._spans
            raise ValidationError(
                f"overlapping spans in slice ({spans.sources[spans.source[row]]!r}, "
                f"{spans.doc_ids[spans.doc_id[row]]!r}, {spans.groups[spans.group[row]]!r}) "
                f"at offset {spans.begin[row]}"
            )


def check_group(store: AnnotationStore, group: str) -> None:
    """Raise for a group outside the store's universe (when it has one)."""
    universe = store.group_universe
    if group != ALL_GROUPS and universe and group not in universe:
        raise ConfigError(f"unknown group {group!r}; known: {', '.join(universe)}")
