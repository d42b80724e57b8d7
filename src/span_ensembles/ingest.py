"""File ingestion, semantic group mapping, and overlap disambiguation.

The interchange format is line-delimited JSON: one manifest record per
document and one annotation record per span (unknown fields ignored).
Semantic group files use the published pipe-delimited 4-column format
(group-abbrev|group-name|TUI|type-name); overrides are JSONL records mapping
a (source, native_type) pair to a group.

JSONL has two readers: one only accepts, the other only explains.
:func:`_orjson_part` reads an annotation file into columns, ``CHUNK_LINES``
lines decoded by ``orjson.loads`` at a time, checks its records as arrays and
refuses the whole file at anything else, so a clean file is decoded once, by
orjson.  :func:`_json_records` decodes a line at a time with ``json`` and names
each malformed line as ``file:line``: it reads the manifest, the overrides and
each refused annotation file, whose records are then checked one by one.
Each annotation file is read on its own (:func:`load_span_file`), names coded
through tables of its own; the files are joined into one
:class:`~span_ensembles.model.SpanColumns` by recoding each name column
through one table.  Group mapping and disambiguation return row masks, so the
columns are never copied until the store gathers them, once, into its order;
disambiguation walks the columns' cluster members as int lists, and its
record form, :func:`disambiguate_overlaps`, is the same walk.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, replace
from itertools import islice, repeat
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping, Optional, Union

import numpy as np
import orjson

from . import seeds
from .errors import ConfigError, ParseError, ValidationError
from .model import (
    ALL_GROUPS,
    ALL_IS_NO_LABEL,
    COLUMNS,
    NAMED_COLUMNS,
    Annotation,
    DocumentRef,
    SemanticGroupMap,
    SpanColumns,
    _sort_rank,
    encode_values,
    overlapping,
    packed_lexsort,
    record_problem,
    row_faults,
    span_names,
)

PathLike = Union[str, Path]

# Lines per chunk: enough to amortize the per-chunk column reads (1024 lines
# are 1-2% faster), few enough that a chunk's decoded objects, each dict
# pre-sized by orjson, add no peak memory over a json-decoded read.
CHUNK_LINES = 512

_INT64 = (-(2**63), 2**63 - 1)

# A string holding a lone surrogate is no text: UTF-8 cannot encode it.  Reads
# escape a byte that is not UTF-8 as one, and JSON's "\ud800" decodes to one.
_SURROGATE = re.compile(r"[\ud800-\udfff]")

# The JSON types each field of an input record may hold, in the order that
# picks which bad field names a malformed record; no value is converted.  A
# field that may be null may also be absent.
_NULL = type(None)
_ANNOTATION_FIELDS = {  # model.COLUMNS, in order
    "doc_id": {str},
    "source": {str},
    "begin": {int},
    "end": {int},
    "group": {str, _NULL},
    "native_type": {str, _NULL},
    "cui": {str, _NULL},
    "score": {float, int, _NULL},
}
_MANIFEST_FIELDS = {"doc_id": {str}, "length": {int}, "corpus_id": {str, _NULL}}
_OVERRIDE_FIELDS = {"source": {str}, "native_type": {str}, "group": {str}}

# JSON's name of each type a decoded value may have.
_JSON_TYPES = {str: "a string", int: "an integer", float: "a float", bool: "a boolean",
               _NULL: "null", list: "an array", dict: "an object"}


def _lines(path: PathLike, malformed: list) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line of the file at ``path`` that is
    UTF-8 text; each other line is appended to ``malformed`` as (line number,
    message).  ConfigError if the file cannot be read.  Lines split where a
    text read splits them, and each is decoded on its own, so bytes that are
    not UTF-8 stop no read."""
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            for lineno, line in enumerate(handle, start=1):
                if _SURROGATE.search(line):  # an escaped byte
                    malformed.append((lineno, f"{path}:{lineno}: not UTF-8 text"))
                else:
                    yield lineno, line
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None


def _raise_collected(kind: str, malformed: list[tuple[int, str]], problems: list[str]) -> None:
    """Raise one ParseError listing every malformed record, else one
    ValidationError; ``malformed`` holds (line number, message) in report order."""
    if malformed:
        raise ParseError(
            f"{len(malformed)} malformed {kind} record(s):\n"
            + "\n".join(message for _, message in malformed),
            malformed[0][0],
        )
    if problems:
        raise ValidationError(
            f"{len(problems)} invalid {kind} record(s):\n" + "\n".join(problems)
        )


def _typed(value, types: set) -> bool:
    """Whether a JSON value has one of ``types``; an integer must fit in 64
    bits, a string must be text, and a bool is never an integer."""
    kind = type(value)
    if kind is int:
        return int in types and _INT64[0] <= value <= _INT64[1]
    return kind in types and not (kind is str and _SURROGATE.search(value))


def _read_column(column: list, types: set):
    """A column read once: None unless every value is one of ``types``, as
    :func:`_typed` judges; else its distinct values in order of first
    appearance if ``types`` holds no number, its int64 array if ``types`` is
    {int}, or else the column.  The types of names are judged from their
    distinct values: no value of another type equals a string or None,
    whereas 1, 1.0 and True are one key of a dict.  Integers are
    range-checked by their int64 conversion."""
    if int not in types:
        try:
            distinct = dict.fromkeys(column)
        except TypeError:  # an array or an object
            return None
        return distinct if set(map(type, distinct)) <= types else None
    kinds = set(map(type, column))
    if not kinds <= types:
        return None
    if types == {int}:
        try:
            return np.array(column, dtype=np.int64)
        except OverflowError:
            return None
    if int in kinds and not all(_typed(v, types) for v in column if type(v) is int):
        return None
    return column


def _field_problem(record: dict, fields: Mapping[str, set]) -> Optional[str]:
    """What is wrong with the first of ``fields``, in order, whose value is
    not one of its types (an absent field reads as null); None if nothing."""
    key, types = next(((key, types) for key, types in fields.items()
                       if not _typed(record.get(key), types)), (None, None))
    if key is None:
        return None
    if key not in record:
        return f"missing field {key!r}"
    kind = type(record[key])
    if kind is str and str in types:
        return f"field {key!r} holds a lone surrogate, expected text"
    found = _JSON_TYPES[kind] + (" beyond 64 bits" if kind is int and int in types else "")
    number = "a number" if float in types else "an integer"
    expected = (name for t, name in ((str, "a string"), (int, number), (_NULL, "null")) if t in types)
    return f"field {key!r} is {found}, expected {' or '.join(expected)}"


def _json_records(path: PathLike, fields: Mapping[str, set], malformed: list):
    """Yield (line number, record) for each non-blank line of a JSONL file
    that ``json`` decodes to an object whose fields hold their types in
    ``fields``; append every other line to ``malformed`` as (line number,
    message)."""
    for lineno, line in _lines(path, malformed):
        if not (line := line.strip()):
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problem = f"bad JSON ({exc.msg})"
        except RecursionError:
            problem = "bad JSON (nested too deeply)"
        else:
            problem = (_field_problem(record, fields) if isinstance(record, dict)
                       else "expected a JSON object")
            if problem is None:
                yield lineno, record
                continue
        malformed.append((lineno, f"{path}:{lineno}: {problem}"))


def load_corpus_manifest(path: PathLike) -> list[DocumentRef]:
    """Read document records (doc_id, length, corpus_id).  Malformed lines,
    else invalid records (a duplicate doc_id, a negative length), are each
    collected into one error, as in :func:`load_annotations`."""
    docs, malformed, problems = {}, [], []  # doc_id -> (document, line)
    for lineno, record in _json_records(path, _MANIFEST_FIELDS, malformed):
        doc_id, length, corpus_id = map(record.get, _MANIFEST_FIELDS)
        try:
            doc = DocumentRef(doc_id, length, corpus_id or "")
        except ValidationError as exc:
            problems.append(f"{path}:{lineno}: {exc}")
            continue
        _, first = docs.setdefault(doc_id, (doc, lineno))
        if first != lineno:
            problems.append(f"{path}:{lineno}: duplicate doc_id {doc_id!r} (first at line {first})")
    _raise_collected("manifest", malformed, problems)
    return [doc for doc, _ in docs.values()]


def _encoded(records: list[dict], names: Mapping[str, dict]) -> Optional[dict[str, np.ndarray]]:
    """The column arrays of annotation records, each field read once, names
    coded through ``names``; None if a value is outside its field's types."""
    values = {key: list(map(dict.get, records, repeat(key))) for key in _ANNOTATION_FIELDS}
    read = {key: _read_column(values[key], types) for key, types in _ANNOTATION_FIELDS.items()}
    typed = all(column is not None for column in read.values())
    return encode_values(values, names, read) if typed else None


def _joined(chunks: list[dict], names: Mapping[str, dict]) -> dict[str, np.ndarray]:
    """The chunks' arrays joined per column; each leaves ``chunks`` as it is joined."""
    chunks.insert(0, _encoded([], names))  # the dtypes of a file with no record
    return {col: np.concatenate([chunk.pop(col) for chunk in chunks]) for col in COLUMNS}


def _orjson_part(path: PathLike, documents: Mapping[str, DocumentRef],
                 expected_source: Optional[str], universe: Collection[str]):
    """An annotation file's part, as :func:`load_span_file` returns it, read
    by orjson; None if orjson refuses a line (blank lines are tried without),
    a line is not an object, a value is outside its field's types, a record
    fails a check (:func:`_span_problem`'s, as ``row_faults`` and the name
    tables judge them) or the file cannot be read as UTF-8 text.  orjson
    refuses NaN, so NaN in the score column means no score."""
    names, chunks = span_names(documents), []
    try:
        with open(path, encoding="utf-8") as handle:
            while chunk := list(islice(handle, CHUNK_LINES)):
                try:
                    records = list(map(orjson.loads, chunk))
                except orjson.JSONDecodeError:
                    records = [orjson.loads(line) for line in chunk if line.strip()]
                if not set(map(type, records)) <= {dict}:
                    return None
                chunks.append(_encoded(records, names))
                if chunks[-1] is None:
                    return None
                del chunk, records  # not held while the next chunk is read
    except (OSError, UnicodeDecodeError, orjson.JSONDecodeError):
        return None  # the json read names the problem
    columns = _joined(chunks, names)
    if expected_source is not None and names["source"].keys() - {expected_source}:
        return None  # every name is some row's
    spans = SpanColumns(**columns, **{attr: tuple(names[col])
                                      for col, attr in NAMED_COLUMNS.items()})
    lengths = [doc.length for doc in documents.values()]
    lengths += [-1] * (len(names["doc_id"]) - len(documents))  # the unknown documents
    # group mapping replaces a typed row's group, so only untyped rows' groups are checked
    faults = row_faults(spans, np.array(lengths, dtype=np.int64), universe,
                        grouped=columns["native_type"] == 0)
    return None if faults.any() else (columns, names)


def _span_problem(record: dict, documents: Mapping[str, DocumentRef],
                  expected_source: Optional[str], universe: Collection[str]) -> Optional[str]:
    """What a well-formed annotation record's first failing check names, else
    None; group mapping replaces a typed record's group, so only an untyped
    one's is held to ``universe``."""
    try:
        ann = Annotation(*map(record.get, COLUMNS))
    except ValidationError as exc:  # its span, its CUI or its score
        return str(exc)
    return record_problem(ann, documents, universe, expected_source, ann.native_type is None)


def load_span_file(
    path: PathLike,
    documents: Mapping[str, DocumentRef],
    expected_source: Optional[str] = None,
    universe: Collection[str] = (),
) -> tuple[Optional[tuple[dict, dict]], list[tuple[int, str]], list[str]]:
    """One annotation file: its columns as a part for :meth:`SpanColumns.join`
    (arrays, and name tables of its own, documents coded by their position
    in ``documents``), its malformed records as (line number, message) and
    its invalid records' messages, both in line order; no part if it has any.

    A record's first failing check names its problem: an
    :class:`~span_ensembles.model.Annotation` invariant (its span, its CUI,
    its score), then the rules of :func:`~span_ensembles.model.record_problem`,
    the universe rule on records with no native type only.
    """
    part = _orjson_part(path, documents, expected_source, universe)
    if part is not None:
        return part, [], []
    names, chunks, records, malformed, problems = span_names(documents), [], [], [], []
    for lineno, record in _json_records(path, _ANNOTATION_FIELDS, malformed):
        problem = _span_problem(record, documents, expected_source, universe)
        if problem is not None:
            problems.append(f"{path}:{lineno}: {problem}")
        records.append(record)
        if malformed or problems:  # the file is refused: keep no rows
            chunks, records = [], []
        elif len(records) == CHUNK_LINES:
            chunks.append(_encoded(records, names))
            records = []
    if malformed or problems:
        return None, malformed, problems
    return (_joined([*chunks, _encoded(records, names)], names), names), [], []


def load_span_files(
    files: Iterable[tuple[Optional[str], PathLike]],
    documents: Union[Mapping[str, DocumentRef], Iterable[DocumentRef]],
    universe: Iterable[str] = (),
) -> SpanColumns:
    """Read one or more annotation files, given as (expected source, path)
    pairs, each by :func:`load_span_file`, and join them, rows in file order:
    documents first, in manifest order, then every other name in order of
    first appearance.

    Offending records are collected, file by file in the given order, into
    one error: a ParseError listing every malformed record (not a JSON
    object, a missing field, a value of the wrong type), else a
    ValidationError listing every invalid one.
    """
    if not isinstance(documents, Mapping):
        documents = {d.doc_id: d for d in documents}
    parts, malformed, problems, universe = [], [], [], frozenset(universe)
    for expected_source, path in files:
        part, bad, invalid = load_span_file(path, documents, expected_source, universe)
        malformed += bad
        problems += invalid
        if malformed or problems:  # the files are refused: keep no rows
            parts.clear()
        else:
            parts.append(part)
    _raise_collected("annotation", malformed, problems)
    return SpanColumns.join(parts)


def load_annotations(
    path: PathLike,
    documents: Union[Mapping[str, DocumentRef], Iterable[DocumentRef]],
    expected_source: Optional[str] = None,
) -> list[Annotation]:
    """Read annotation records and validate each against its document, as
    :func:`load_span_files` does; the records come back in file order."""
    return load_span_files([(expected_source, path)], documents).annotations()


def _conflict(first: dict, key, group: str, lineno: int) -> Optional[str]:
    """Note that line ``lineno`` maps ``key`` to ``group``; what is wrong if an
    earlier line maps it to another group, else None."""
    prior, at = first.setdefault(key, (group, lineno))
    return None if prior == group else f"{key!r} maps to {group!r}, but to {prior!r} at line {at}"


def load_semantic_group_map(
    semgroups_path: PathLike, overrides_path: Optional[PathLike] = None
) -> SemanticGroupMap:
    """Parse the pipe-delimited semantic groups file plus optional per-source
    overrides into one lookup structure.  Bad lines of either file are
    collected into one error, as in :func:`load_annotations`."""
    tuis: dict[str, tuple[str, int]] = {}  # TUI -> (group, line)
    universe: dict[str, None] = {}
    malformed, problems = [], []
    for lineno, line in _lines(semgroups_path, malformed):
        line, where = line.rstrip("\r\n"), f"{semgroups_path}:{lineno}"
        fields = line.split("|")
        if line and len(fields) != 4:
            problem = f"expected 4 pipe-delimited fields, got {len(fields)}"
            malformed.append((lineno, f"{where}: {problem}"))
        elif line:
            _, group_name, tui, _ = fields
            universe.setdefault(group_name)
            conflict = _conflict(tuis, tui, group_name, lineno)
            if group_name == ALL_GROUPS:
                problems.append(f"{where}: {ALL_IS_NO_LABEL}")
            elif conflict:
                problems.append(f"{where}: type {conflict}")
    _raise_collected("semantic group", malformed, problems)

    pairs: dict[tuple[str, str], tuple[str, int]] = {}  # (source, native type) -> (group, line)
    if overrides_path is not None:
        for lineno, record in _json_records(overrides_path, _OVERRIDE_FIELDS, malformed):
            source, native, group = map(record.get, _OVERRIDE_FIELDS)
            where = f"{overrides_path}:{lineno}"
            conflict = _conflict(pairs, (source, native), group, lineno)
            if group not in universe:
                problems.append(f"{where}: override targets unknown group {group!r}")
            elif conflict:
                problems.append(f"{where}: override {conflict}")
        _raise_collected("override", malformed, problems)

    return SemanticGroupMap(
        tui_to_group={tui: group for tui, (group, _) in tuis.items()},
        native_to_group={pair: group for pair, (group, _) in pairs.items()},
        group_universe=tuple(universe),
    )


@dataclass(frozen=True)
class MappingOutcome:
    """Spans with their groups mapped, the rows kept, and a tally, per
    (source, native type), of the records dropped for having no mapping
    (native type None: neither a type nor a group).

    ``columns`` holds every input row, a dropped one with no group;
    ``kept`` masks the rows that have one."""

    columns: SpanColumns
    kept: np.ndarray
    dropped_types: Counter

    @property
    def dropped(self) -> int:
        return len(self.kept) - int(np.count_nonzero(self.kept))

    def note(self) -> str:
        """One line naming the dropped count, per (source, native type) in order."""
        tally = sorted(self.dropped_types.items(), key=lambda item: (item[0][0], item[0][1] or ""))
        per_type = ", ".join(
            f"{source}/{'(none)' if native is None else native}: {count}"
            for (source, native), count in tally
        )
        return f"dropped {self.dropped} annotation(s) with unmapped semantic types ({per_type})"


def map_groups(spans: SpanColumns, gmap: SemanticGroupMap) -> MappingOutcome:
    """Assign each span's group: source-specific override first, then the TUI
    lookup, read from one table indexed by (source, native type).  Unmapped
    spans are masked out and tallied; spans that already carry a group and
    no native type pass through unchanged.  No row is copied but the group
    column."""
    group_codes = {g: i for i, g in enumerate(spans.groups)}

    def code(group: Optional[str]) -> int:
        return 0 if group is None else group_codes.setdefault(group, len(group_codes))

    table = np.array(
        [[code(gmap.lookup(source, native)) if native is not None else 0
          for native in spans.native_types] for source in spans.sources],
        dtype=np.int32,
    ).reshape(len(spans.sources), len(spans.native_types))
    typed = spans.native_type != 0
    group = np.where(typed, table[spans.source, spans.native_type], spans.group)
    kept = group != 0
    n_types = len(spans.native_types)
    pairs, counts = np.unique(
        spans.source[~kept].astype(np.int64) * n_types + spans.native_type[~kept],
        return_counts=True,
    )
    dropped_types = Counter({
        (spans.sources[pair // n_types], spans.native_types[pair % n_types]): count
        for pair, count in zip(pairs.tolist(), counts.tolist())
    })
    mapped = replace(spans, group=group.astype(np.int32), groups=tuple(group_codes))
    return MappingOutcome(columns=mapped, kept=kept, dropped_types=dropped_types)


def disambiguate_overlaps(annotations: Iterable[Annotation], seed: int) -> list[Annotation]:
    """The records of one (source, doc) slice that :func:`disambiguate_spans`
    keeps, sorted by (group, begin, end), ties by (no group last, CUI, native
    type), then in input order: a subset of the input, so idempotent.
    ValidationError if the records are of more than one slice."""
    anns = list(annotations)
    slices = {(a.source, a.doc_id) for a in anns}
    if len(slices) > 1:
        raise ValidationError(f"annotations span multiple (source, doc) slices: {sorted(slices)}")
    keep = disambiguate_spans(SpanColumns.from_annotations(anns), seed).tolist()
    return sorted((a for a, k in zip(anns, keep) if k), key=lambda a: (
        a.group or "", a.begin, a.end, a.group is None, a.cui or "", a.native_type or ""))


def _walk_run(begin: np.ndarray, end: np.ndarray, score: np.ndarray, rng) -> list[int]:
    """The positions of one run of a group's spans, in walk order, that
    survive disambiguation, round by round (see :func:`disambiguate_spans`)."""
    rank = list(zip((end - begin).tolist(), score.tolist()))
    begin, end, alive = begin.tolist(), end.tolist(), list(range(len(rank)))
    while True:
        clusters, reach = [], -1
        for i in alive:
            if clusters and begin[i] < reach:
                clusters[-1].append(i)
            else:
                clusters.append([i])
            reach = max(reach, end[i])
        losers = set()
        for cluster in (c for c in clusters if len(c) > 1):
            best = max(rank[i] for i in cluster)
            pool = [i for i in cluster if rank[i] == best]
            # a draw from a pool of one would still advance the RNG
            w = pool[rng.randrange(len(pool))] if len(pool) > 1 else pool[0]
            losers.update(i for i in cluster if i != w and begin[i] < end[w] and begin[w] < end[i])
        if not losers:  # a cluster's winner overlaps one of its members at least
            return alive
        alive = [i for i in alive if i not in losers]


def disambiguate_spans(
    spans: SpanColumns,
    seed: int,
    exempt: Iterable[str] = (),
    keep: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The rows that survive disambiguation of every (source, doc) slice whose
    source is not exempt, as a boolean mask: the rows of ``keep`` (all if
    None) less those it removes.

    A slice's groups are walked in name order, no group last, all drawing
    from one ``seeds.derive_rng(seed, "disambiguate", source, doc_id)``, each
    group's spans in (begin, end, CUI, native type) order, ties in row order.
    Clusters of overlapping spans are resolved left to right, a round at a
    time: each cluster's winner (the longest span, then the highest score,
    no score lowest, then a seeded pick among the tied) removes the spans
    that overlap it, until none overlap.

    Only the members of clusters of two or more overlapping spans, found by
    one running-max scan over the kept rows, are walked, put in that order by
    one :func:`~span_ensembles.model.packed_lexsort`.  A span in no such
    cluster overlaps nothing: it is never removed and takes no random pick.
    """
    keep = np.ones(len(spans), dtype=bool) if keep is None else keep.copy()
    exempt = [spans.sources.index(source) for source in set(exempt) & set(spans.sources)]
    rows = np.flatnonzero(overlapping(spans, keep & ~np.isin(spans.source, exempt), openers=True))
    rows = rows[packed_lexsort((
        _sort_rank(spans.native_types)[spans.native_type[rows]],
        _sort_rank(spans.cuis)[spans.cui[rows]], spans.end[rows], spans.begin[rows],
        _sort_rank(spans.groups, none_last=True)[spans.group[rows]],
        spans.doc_id[rows], spans.source[rows]))]
    source, doc, group = (getattr(spans, col)[rows] for col in ("source", "doc_id", "group"))
    new_slice = (np.diff(source, prepend=-1) != 0) | (np.diff(doc, prepend=-1) != 0)
    starts = np.flatnonzero(new_slice | (np.diff(group, prepend=-1) != 0))  # of each run
    slices = zip(new_slice[starts].tolist(), source[starts].tolist(), doc[starts].tolist())
    begin, end = spans.begin[rows], spans.end[rows]
    score = np.nan_to_num(spans.score[rows], nan=-1.0)  # no score ranks lowest
    keep[rows] = False
    for lo, hi, (first, s, d) in zip(starts.tolist(), [*starts[1:].tolist(), len(rows)], slices):
        if first:
            rng = seeds.derive_rng(seed, "disambiguate", spans.sources[s], spans.doc_ids[d])
        keep[rows[lo:hi][_walk_run(begin[lo:hi], end[lo:hi], score[lo:hi], rng)]] = True
    return keep


def write_manifest(documents: Iterable[DocumentRef], path: PathLike) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for doc in documents:
            record = {"doc_id": doc.doc_id, "length": doc.length, "corpus_id": doc.corpus_id}
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def write_annotations(annotations: Iterable[Annotation], path: PathLike) -> None:
    """One record per annotation, its fields that are not None."""
    with open(path, "w", encoding="utf-8") as handle:
        for ann in annotations:
            record = {key: value for key in _ANNOTATION_FIELDS
                      if (value := getattr(ann, key)) is not None}
            handle.write(json.dumps(record, sort_keys=True) + "\n")
