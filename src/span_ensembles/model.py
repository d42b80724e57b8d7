"""Core data model: documents, annotations, semantic groups, and validated stores."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

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
            raise ValidationError(
                f"bad span [{self.begin}, {self.end}) from source {self.source!r} "
                f"in doc {self.doc_id!r}"
            )
        if self.cui is not None and not CUI_PATTERN.match(self.cui):
            raise ValidationError(f"bad concept id {self.cui!r} (expected 'C' + 7 digits)")
        if self.score is not None and not 0.0 <= self.score <= 1.0:
            raise ValidationError(f"score {self.score} outside [0, 1]")

    @property
    def length(self) -> int:
        return self.end - self.begin

    def with_group(self, group: str) -> "Annotation":
        # skips __post_init__ (group is never checked); fields set in order keep the layout compact
        copy = object.__new__(Annotation)
        for name in self.__dataclass_fields__:
            object.__setattr__(copy, name, group if name == "group" else getattr(self, name))
        return copy


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


class AnnotationStore:
    """Immutable, validated collection of annotations indexed by (source, doc, group).

    Construction validates document references and span bounds.  Per-slice
    span disjointness is the post-disambiguation invariant and is checked
    separately via :meth:`verify_disjoint_spans`.
    """

    def __init__(
        self,
        documents: Iterable[DocumentRef],
        annotations: Iterable[Annotation],
        group_universe: Iterable[str] = (),
        sources: Iterable[str] = (),
    ):
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
        known_groups = set(universe)
        anns = tuple(annotations)
        for ann in anns:
            doc = docs.get(ann.doc_id)
            if doc is None:
                raise ValidationError(f"annotation references unknown doc {ann.doc_id!r}")
            if ann.end > doc.length:
                raise ValidationError(
                    f"span [{ann.begin}, {ann.end}) exceeds doc {ann.doc_id!r} "
                    f"length {doc.length}"
                )
            if known_groups and ann.group is not None and ann.group not in known_groups:
                raise ValidationError(
                    f"annotation group {ann.group!r} not in the group universe"
                )

        self._documents = docs
        self._annotations = anns
        self._group_universe = universe
        self._sources = tuple(sorted(set(sources) | {a.source for a in anns}))

        by_slice: dict[tuple[str, str], list[Annotation]] = {}
        for ann in anns:
            by_slice.setdefault((ann.source, ann.doc_id), []).append(ann)
        for slice_anns in by_slice.values():
            slice_anns.sort(key=lambda a: (a.begin, a.end, a.group or "", a.cui or ""))
        self._by_slice = {key: tuple(value) for key, value in by_slice.items()}

    @property
    def annotations(self) -> tuple[Annotation, ...]:
        return self._annotations

    @property
    def sources(self) -> tuple[str, ...]:
        return self._sources

    @property
    def group_universe(self) -> tuple[str, ...]:
        return self._group_universe

    @property
    def doc_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._documents))

    @property
    def documents(self) -> tuple[DocumentRef, ...]:
        return tuple(self._documents[d] for d in self.doc_ids)

    def document(self, doc_id: str) -> DocumentRef:
        try:
            return self._documents[doc_id]
        except KeyError:
            raise ValidationError(f"unknown doc {doc_id!r}") from None

    def annotations_for(
        self, source: str, doc_id: str, group: Optional[str] = None
    ) -> tuple[Annotation, ...]:
        anns = self._by_slice.get((source, doc_id), ())
        if group is None:
            return anns
        return tuple(a for a in anns if a.group == group)

    def groups_present(self) -> tuple[str, ...]:
        return tuple(sorted({a.group for a in self._annotations if a.group is not None}))

    def count_by_group(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for ann in self._annotations:
            if ann.group is not None:
                counts[ann.group] = counts.get(ann.group, 0) + 1
        return counts

    def verify_disjoint_spans(self) -> None:
        """Check the post-disambiguation invariant: no overlapping spans within
        one (source, doc, group) slice."""
        for (source, doc_id), anns in sorted(self._by_slice.items()):
            last_end: dict[Optional[str], int] = {}
            for ann in anns:  # already sorted by begin
                prev = last_end.get(ann.group, -1)
                if ann.begin < prev:
                    raise ValidationError(
                        f"overlapping spans in slice ({source!r}, {doc_id!r}, "
                        f"{ann.group!r}) at offset {ann.begin}"
                    )
                last_end[ann.group] = max(prev, ann.end)


def filter_by_group(store: AnnotationStore, group: str) -> AnnotationStore:
    """Restrict a store to annotations of one semantic group.

    ``ALL_GROUPS`` returns the store unchanged; the document set is never
    filtered.
    """
    if group == ALL_GROUPS:
        return store
    check_group(store, group)
    filtered = [a for a in store.annotations if a.group == group]
    return AnnotationStore(
        store.documents, filtered, group_universe=store.group_universe, sources=store.sources
    )


def check_group(store: AnnotationStore, group: str) -> None:
    """Raise for a group outside the store's universe (when it has one)."""
    universe = store.group_universe
    if group != ALL_GROUPS and universe and group not in universe:
        raise ConfigError(f"unknown group {group!r}; known: {', '.join(universe)}")
