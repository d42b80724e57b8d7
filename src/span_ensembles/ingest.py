"""File ingestion, semantic group mapping, and overlap disambiguation.

The interchange format is line-delimited JSON: one manifest record per
document and one annotation record per span (unknown fields ignored).
Semantic group files use the published pipe-delimited 4-column format
(group-abbrev|group-name|TUI|type-name); overrides are JSONL records mapping
a (source, native_type) pair to a group.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from . import seeds
from .errors import ParseError, ValidationError
from .model import Annotation, DocumentRef, SemanticGroupMap

PathLike = Union[str, Path]

_ANNOTATION_FIELDS = ("doc_id", "source", "begin", "end", "group", "native_type", "cui", "score")


def _jsonl_records(path: PathLike, malformed: Optional[list[tuple[int, str]]] = None):
    """Yield (line number, object) per non-blank line.  A line that is not a
    JSON object raises a ParseError, or is appended to ``malformed`` as
    (line number, message) and skipped when that list is given."""
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                problem = f"bad JSON ({exc.msg})"
            else:
                if isinstance(record, dict):
                    yield lineno, record
                    continue
                problem = "expected a JSON object"
            if malformed is None:
                raise ParseError(f"{path}:{lineno}: {problem}", lineno)
            malformed.append((lineno, f"{path}:{lineno}: {problem}"))


def load_corpus_manifest(path: PathLike) -> list[DocumentRef]:
    """Read document records (doc_id, length, corpus_id), rejecting duplicates."""
    docs: list[DocumentRef] = []
    seen: dict[str, int] = {}
    for lineno, record in _jsonl_records(path):
        try:
            doc = DocumentRef(
                doc_id=str(record["doc_id"]),
                length=int(record["length"]),
                corpus_id=str(record.get("corpus_id", "")),
            )
        except KeyError as exc:
            raise ParseError(f"{path}:{lineno}: missing field {exc.args[0]!r}", lineno) from None
        except (TypeError, ValueError):
            raise ParseError(f"{path}:{lineno}: non-numeric length", lineno) from None
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        if doc.doc_id in seen:
            raise ValidationError(
                f"{path}:{lineno}: duplicate doc_id {doc.doc_id!r} "
                f"(first at line {seen[doc.doc_id]})"
            )
        seen[doc.doc_id] = lineno
        docs.append(doc)
    return docs


def load_annotations(
    path: PathLike,
    documents: Union[Mapping[str, DocumentRef], Iterable[DocumentRef]],
    expected_source: Optional[str] = None,
) -> list[Annotation]:
    """Read annotation records and validate each against its document.

    ``expected_source`` of None accepts any source; otherwise every record's
    source must match.  Offending records are collected into one error: a
    ParseError listing every malformed record (not a JSON object, a missing
    field, a non-numeric value), else a ValidationError listing every invalid
    one.
    """
    if not isinstance(documents, Mapping):
        documents = {d.doc_id: d for d in documents}
    annotations: list[Annotation] = []
    malformed: list[tuple[int, str]] = []
    problems: list[str] = []
    for lineno, record in _jsonl_records(path, malformed):
        try:
            ann = Annotation(
                doc_id=str(record["doc_id"]),
                source=str(record["source"]),
                begin=int(record["begin"]),
                end=int(record["end"]),
                group=None if record.get("group") is None else str(record["group"]),
                native_type=None if record.get("native_type") is None else str(record["native_type"]),
                cui=None if record.get("cui") is None else str(record["cui"]),
                score=None if record.get("score") is None else float(record["score"]),
            )
        except KeyError as exc:
            malformed.append((lineno, f"{path}:{lineno}: missing field {exc.args[0]!r}"))
            continue
        except (TypeError, ValueError):
            malformed.append((lineno, f"{path}:{lineno}: malformed annotation record"))
            continue
        except ValidationError as exc:
            problems.append(f"{path}:{lineno}: {exc}")
            continue
        doc = documents.get(ann.doc_id)
        if doc is None:
            problems.append(f"{path}:{lineno}: unknown doc {ann.doc_id!r}")
        elif ann.end > doc.length:
            problems.append(
                f"{path}:{lineno}: span [{ann.begin}, {ann.end}) exceeds doc "
                f"{ann.doc_id!r} length {doc.length}"
            )
        elif expected_source is not None and ann.source != expected_source:
            problems.append(
                f"{path}:{lineno}: source {ann.source!r} != expected {expected_source!r}"
            )
        else:
            annotations.append(ann)
    if malformed:
        raise ParseError(
            f"{len(malformed)} malformed annotation record(s):\n"
            + "\n".join(message for _, message in malformed),
            malformed[0][0],
        )
    if problems:
        raise ValidationError(
            f"{len(problems)} invalid annotation record(s):\n" + "\n".join(problems)
        )
    return annotations


def load_semantic_group_map(
    semgroups_path: PathLike, overrides_path: Optional[PathLike] = None
) -> SemanticGroupMap:
    """Parse the pipe-delimited semantic groups file plus optional per-source
    overrides into one lookup structure."""
    tui_to_group: dict[str, str] = {}
    universe: dict[str, None] = {}
    with open(semgroups_path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            fields = line.split("|")
            if len(fields) != 4:
                raise ParseError(
                    f"{semgroups_path}:{lineno}: expected 4 pipe-delimited fields, "
                    f"got {len(fields)}",
                    lineno,
                )
            _, group_name, tui, _ = fields
            universe.setdefault(group_name)
            tui_to_group[tui] = group_name

    native_to_group: dict[tuple[str, str], str] = {}
    if overrides_path is not None:
        for lineno, record in _jsonl_records(overrides_path):
            try:
                source = str(record["source"])
                native_type = str(record["native_type"])
                group = str(record["group"])
            except KeyError as exc:
                raise ParseError(
                    f"{overrides_path}:{lineno}: missing field {exc.args[0]!r}", lineno
                ) from None
            if group not in universe:
                raise ValidationError(
                    f"{overrides_path}:{lineno}: override targets unknown group {group!r}"
                )
            native_to_group[(source, native_type)] = group

    return SemanticGroupMap(
        tui_to_group=tui_to_group,
        native_to_group=native_to_group,
        group_universe=tuple(universe),
    )


@dataclass(frozen=True)
class MappingOutcome:
    """Mapped annotations plus a tally of records dropped for having no mapping."""

    annotations: tuple[Annotation, ...]
    dropped: int
    dropped_types: Counter


def apply_group_mapping(
    annotations: Iterable[Annotation], gmap: SemanticGroupMap
) -> MappingOutcome:
    """Assign each annotation's group: source-specific override first, then the
    TUI lookup.  Unmapped annotations are dropped and tallied; annotations
    that already carry a group and no native type pass through unchanged."""
    mapped: list[Annotation] = []
    dropped_types: Counter = Counter()
    for ann in annotations:
        if ann.native_type is not None:
            group = gmap.lookup(ann.source, ann.native_type)
            if group is None:
                dropped_types[(ann.source, ann.native_type)] += 1
                continue
            mapped.append(ann.with_group(group))
        elif ann.group is not None:
            mapped.append(ann)
        else:
            dropped_types[(ann.source, None)] += 1
    return MappingOutcome(
        annotations=tuple(mapped),
        dropped=sum(dropped_types.values()),
        dropped_types=dropped_types,
    )


@dataclass(frozen=True)
class DisambiguationPolicy:
    """Tie-break cascade for overlapping spans from one source: longest span,
    then highest score (no score ranks lowest), then a seeded pick.  Only the
    seed varies; the rule order is fixed."""

    seed: int = 0


def _overlaps(a: Annotation, b: Annotation) -> bool:
    return a.begin < b.end and b.begin < a.end


def _overlap_clusters(spans: Sequence[Annotation]) -> list[list[int]]:
    """Connected components of the overlap graph, left to right; ``spans``
    must be sorted by begin."""
    clusters: list[list[int]] = []
    cluster_end = -1
    for i, span in enumerate(spans):
        if clusters and span.begin < cluster_end:
            clusters[-1].append(i)
            cluster_end = max(cluster_end, span.end)
        else:
            clusters.append([i])
            cluster_end = span.end
    return clusters


def _select_winner(candidates: list[Annotation], rng) -> Annotation:
    longest = max(c.length for c in candidates)
    pool = [c for c in candidates if c.length == longest]
    if len(pool) > 1:
        best_score = max((-1.0 if c.score is None else c.score) for c in pool)
        pool = [c for c in pool if (-1.0 if c.score is None else c.score) == best_score]
    if len(pool) > 1:
        pool.sort(key=lambda c: (c.begin, c.end, c.cui or "", c.native_type or ""))
        return pool[rng.randrange(len(pool))]
    return pool[0]


def disambiguate_overlaps(
    annotations: Iterable[Annotation], policy: DisambiguationPolicy
) -> list[Annotation]:
    """Resolve overlapping spans within one (source, doc) slice, per group.

    Clusters of mutually overlapping spans are processed left to right; each
    round the cluster winner survives and its direct overlappers are removed,
    repeating until no overlaps remain.  Selection never synthesizes spans,
    so the result is a subset of the input and the operation is idempotent.
    """
    anns = list(annotations)
    if not anns:
        return []
    slices = {(a.source, a.doc_id) for a in anns}
    if len(slices) > 1:
        raise ValidationError(f"annotations span multiple (source, doc) slices: {sorted(slices)}")
    source, doc_id = next(iter(slices))
    rng = seeds.derive_rng(policy.seed, "disambiguate", source, doc_id)

    by_group: dict[Optional[str], list[Annotation]] = {}
    for ann in anns:
        by_group.setdefault(ann.group, []).append(ann)

    kept: list[Annotation] = []
    for group in sorted(by_group, key=lambda g: (g is None, g or "")):
        spans = sorted(
            by_group[group], key=lambda a: (a.begin, a.end, a.cui or "", a.native_type or "")
        )
        while True:
            clusters = [c for c in _overlap_clusters(spans) if len(c) > 1]
            if not clusters:
                break
            removed: set[int] = set()
            for cluster in clusters:
                winner = _select_winner([spans[i] for i in cluster], rng)
                for i in cluster:
                    if spans[i] is not winner and _overlaps(spans[i], winner):
                        removed.add(i)
            spans = [s for i, s in enumerate(spans) if i not in removed]
        kept.extend(spans)
    kept.sort(key=lambda a: (a.group or "", a.begin, a.end))
    return kept


def _annotation_record(ann: Annotation) -> dict:
    record = {"doc_id": ann.doc_id, "source": ann.source, "begin": ann.begin, "end": ann.end}
    for key in ("group", "native_type", "cui", "score"):
        value = getattr(ann, key)
        if value is not None:
            record[key] = value
    return record


def write_manifest(documents: Iterable[DocumentRef], path: PathLike) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for doc in documents:
            handle.write(
                json.dumps(
                    {"doc_id": doc.doc_id, "length": doc.length, "corpus_id": doc.corpus_id},
                    sort_keys=True,
                )
                + "\n"
            )


def write_annotations(annotations: Iterable[Annotation], path: PathLike) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for ann in annotations:
            handle.write(json.dumps(_annotation_record(ann), sort_keys=True) + "\n")
