"""Differential tests of the column path: chunked ingest and the columnar store.

``load_annotations`` decodes a chunk of lines at a time and checks records as
arrays; ``conftest.scan_annotations`` is the per-line scan it replaced, one
``Annotation`` per record.  On random files with every kind of bad line
spread across chunk edges, both must give the same records or the same
error, and the orjson reader must accept a file exactly when the
per-record checks find nothing wrong with any of its records (its vector
rules are ``model.row_faults``).  A store built from columns must hold the
same slices as one built
from ``Annotation`` records, and the group mapping and disambiguation of
columns must keep exactly what the per-record functions keep.  The packed
sort must give ``np.lexsort``'s order, and disambiguation of cluster
members only must keep the rows that ``conftest.whole_run_disambiguation``
(every run with an overlap passed whole) keeps.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from span_ensembles import (
    Annotation,
    AnnotationStore,
    DocumentRef,
    EnsembleError,
    ParseError,
    SemanticGroupMap,
    ValidationError,
    disambiguate_overlaps,
    ingest,
    load_annotations,
)
from span_ensembles.cli import main
from span_ensembles.ingest import (
    disambiguate_spans,
    load_corpus_manifest,
    load_span_files,
    map_groups,
)
from span_ensembles.model import COLUMNS, NAMED_COLUMNS, SpanColumns, overlapping, packed_lexsort
from conftest import scan_annotations, scan_manifest, whole_run_disambiguation

DOCS = {d.doc_id: d for d in (DocumentRef("d1", 40), DocumentRef("d2", 25), DocumentRef("d[3]", 10))}
GROUPS = ("G1", "G2", "G{3}")


@st.composite
def records(draw, malformed=True):
    """A record dict: mostly valid, else invalid (a bad span, CUI or score, an
    unknown doc, a wrong source) or, if ``malformed``, malformed."""
    doc_id = draw(st.sampled_from([*DOCS, "ghost"]))
    begin = draw(st.integers(-2, 42))
    record = {
        "doc_id": doc_id,
        "source": draw(st.sampled_from(["A", "A", "A", "B"])),
        "begin": begin,
        "end": begin + draw(st.integers(-1, 12)),
    }
    for key, values in (
        ("group", [*GROUPS, None]),
        ("native_type", ["T047", "x-type", None]),
        ("cui", ["C0000001", "C0000042", "C12", None]),
        ("score", [0.25, 0.9, 1.5, -0.1, 1, 2, -1, float("nan"), None]),
        ("extra", [[1, {"a": 2}], "}{", None]),
    ):
        if draw(st.booleans()):
            record[key] = draw(st.sampled_from(values))
    faults = [
        "missing", "float", "bool", "string", "numeric-id", "big", "string-score", "bool-score",
        "numeric-group", "list-cui", "null-begin", "big-score", "two", "big-negative", "1e400",
        "surrogate",
    ] if malformed else []
    fault = draw(st.sampled_from(["none"] * 13 + faults))
    if fault == "missing":
        del record[draw(st.sampled_from(["doc_id", "source", "begin", "end"]))]
    elif fault == "float":
        record[draw(st.sampled_from(["begin", "end"]))] += 0.5
    elif fault == "bool":
        record["begin"] = True
    elif fault == "string":
        record["end"] = str(record["end"])
    elif fault == "numeric-id":
        record["doc_id"] = 7
    elif fault == "big":
        record["end"] = 2**64
    elif fault == "string-score":
        record["score"] = "0.5"
    elif fault == "bool-score":
        record["score"] = True
    elif fault == "numeric-group":
        record["group"] = 7
    elif fault == "list-cui":
        record["cui"] = ["C0000001"]
    elif fault == "null-begin":
        record["begin"] = None
    elif fault == "big-score":
        record["score"] = 2**64
    elif fault == "big-negative":
        record[draw(st.sampled_from(["begin", "end", "score"]))] = -(2**63) - 1
    elif fault == "1e400":  # written as 1e400 by dump()
        record[draw(st.sampled_from(["begin", "end", "score"]))] = float("inf")
    elif fault == "surrogate":  # written as the escape \ud800, which json decodes
        record[draw(st.sampled_from(["doc_id", "source", "group", "native_type", "cui"]))] = "A\ud800"
    elif fault == "two":  # the first bad field in column order names the problem
        record["doc_id"] = 7
        del record["source"]
    return record


# A line nested deeper than json's recursion limit; orjson reads it.
DEEP = '{"doc_id": ' + "[" * 5000 + "]" * 5000 + "}"


def dump(record) -> str:
    """A record's JSON text, an infinite number written as 1e400 (which
    json reads as infinity) rather than Infinity."""
    return json.dumps(record).replace("Infinity", "1e400")


@st.composite
def jsonl_files(draw):
    """Lines of a JSONL file: records, bad JSON, non-objects, blank lines, two
    objects on one line and one record split across two lines.  A record may
    be followed by spaces after its "}"; each line ends in LF, CRLF or a lone
    CR, and the last one may end in none; line 1 may start with a UTF-8 byte
    order mark.  Half the files hold only well-formed records and blank
    lines, so that their invalid records are reported."""
    broken = draw(st.booleans())
    kinds = ["record"] * 8 + ["blank"] + (["bad", "array", "two", "split"] if broken else [])
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(kinds))
        if kind == "record":
            trailing = draw(st.sampled_from(["", "", "", "", " ", " \t "]))
            lines.append(dump(draw(records(malformed=broken))) + trailing)
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        elif kind == "bad":
            lines.append(draw(st.sampled_from(["{oops", "{}}", '{"doc_id": "d1",}', "nul", DEEP])))
        elif kind == "array":
            lines.append(draw(st.sampled_from(["[1, 2]", "5", '"text"', "null"])))
        elif kind == "two":
            sep = draw(st.sampled_from([",", " ", ", "]))
            lines.append(dump(draw(records())) + sep + dump(draw(records())))
        else:
            text = dump(draw(records()))
            cut = draw(st.integers(1, len(text) - 1))
            lines.extend([text[:cut], text[cut:]])
    if lines and draw(st.integers(0, 7)) == 0:
        lines[0] = "\ufeff" + lines[0]
    ends = [draw(st.sampled_from(["\n", "\r\n", "\n", "\r\n", "\r"])) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return [line + end for line, end in zip(lines, ends)]


def outcome(load, path, expected_source):
    try:
        return "ok", load(path, DOCS, expected_source=expected_source)
    except EnsembleError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "position", None)


def load_outcome(load, path):
    try:
        return "ok", load(path)
    except EnsembleError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "position", None)


@settings(max_examples=400, deadline=None)
@given(
    jsonl_files(),
    st.sampled_from([None, "A"]),
    st.sampled_from([1, 2, 3, 4096]),
    st.sampled_from([None, "ending", "opening"]),
)
def test_chunked_reader_matches_line_scan(
    tmp_path_factory, lines, expected_source, chunk_lines, blank_line
):
    if blank_line is not None and len(lines) >= chunk_lines:
        # a blank line ending the first chunk or opening the second
        at = chunk_lines - 1 if blank_line == "ending" else chunk_lines
        lines = list(lines)
        if at and not lines[at - 1].endswith("\n"):  # nor a lone CR before the blank line
            lines[at - 1] = lines[at - 1].rstrip("\r") + "\n"
        lines.insert(at, "\n")
    path = tmp_path_factory.mktemp("jsonl") / "a.jsonl"
    path.write_bytes("".join(lines).encode("utf-8"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "CHUNK_LINES", chunk_lines)
        got = outcome(load_annotations, path, expected_source)
    assert got == outcome(scan_annotations, path, expected_source)


@st.composite
def annotation_file_sets(draw):
    """2-4 annotation files, each (expected source, lines).  Most hold valid
    records of their expected source (of A, B and gold if None); the others
    are drawn by :func:`jsonl_files`, with bad records of every kind.  All
    draw their names from one pool, so files share names and meet them in
    different orders."""
    files = []
    for _ in range(draw(st.integers(2, 4))):
        expected = draw(st.sampled_from([None, "A", "B", "gold"]))
        if draw(st.integers(0, 3)) == 0:
            lines = draw(jsonl_files())
        else:
            anns = [a for a in draw(annotation_lists()) if expected in (None, a.source)]
            records = ({k: v for k, v in vars(a).items() if v is not None} for a in anns)
            lines = [dump(record) + "\n" for record in records]
        files.append((expected, lines))
    return files


def joined(columns: SpanColumns) -> tuple:
    """Every column's dtype and bytes, and every name tuple."""
    arrays = {col: (getattr(columns, col).dtype, getattr(columns, col).tobytes()) for col in COLUMNS}
    return "ok", arrays, {attr: getattr(columns, attr) for attr in NAMED_COLUMNS.values()}


def scan_annotation_files(files, documents):
    """Reference of ``load_span_files``: each file by ``scan_annotations``.
    Their malformed records, else their invalid ones, are listed in one
    error, files in order; else the columns of every file's records, rows
    in file order, documents coded in manifest order, then every other
    name in order of first appearance (no value first)."""
    anns, malformed, problems, position = [], [], [], None
    for expected_source, path in files:
        try:
            anns += scan_annotations(path, documents, expected_source)
        except ParseError as exc:
            malformed += str(exc).splitlines()[1:]
            position = exc.position if position is None else position
        except ValidationError as exc:
            problems += str(exc).splitlines()[1:]
    if malformed:
        return "ParseError", f"{len(malformed)} malformed annotation record(s):\n" + "\n".join(
            malformed), position
    if problems:
        return "ValidationError", f"{len(problems)} invalid annotation record(s):\n" + "\n".join(
            problems), None
    tables = {col: dict.fromkeys([None] if col in ("group", "native_type", "cui") else [])
              for col in NAMED_COLUMNS}
    tables["doc_id"] = dict.fromkeys(documents)
    for ann in anns:
        for col, table in tables.items():
            table.setdefault(getattr(ann, col))
    codes = {col: {name: i for i, name in enumerate(table)} for col, table in tables.items()}
    arrays = {col: np.array([codes[col][getattr(a, col)] for a in anns], dtype=np.int32)
              for col in NAMED_COLUMNS}
    arrays.update({col: np.array([getattr(a, col) for a in anns], dtype=np.int64)
                   for col in ("begin", "end")})
    arrays["score"] = np.array([a.score for a in anns], dtype=np.float64)  # None -> NaN
    tuples = {NAMED_COLUMNS[col]: tuple(table) for col, table in tables.items()}
    return joined(SpanColumns(**arrays, **tuples))


@settings(max_examples=300, deadline=None)
@given(annotation_file_sets(), st.sampled_from([1, 2, 3, 4096]))
def test_files_are_joined_as_their_line_scans_concatenated(tmp_path_factory, files, chunk_lines):
    directory = tmp_path_factory.mktemp("files")
    paths = []
    for i, (expected_source, lines) in enumerate(files):
        path = directory / f"{i}.jsonl"
        path.write_bytes("".join(lines).encode("utf-8"))
        paths.append((expected_source, path))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "CHUNK_LINES", chunk_lines)
        try:
            got = joined(load_span_files(paths, DOCS))
        except EnsembleError as exc:
            got = type(exc).__name__, str(exc), getattr(exc, "position", None)
    assert got == scan_annotation_files(paths, DOCS)


def test_chunk_of_misaligned_lines_falls_back(tmp_path):
    # A record split over two lines and a line with two objects decode, joined,
    # to as many objects as lines; the line scan must still report both.
    split = '{"doc_id": "d1", "source": "A", "extra": [{"a": 1}', '{"b": 2}], "begin": 0, "end": 3}'
    two = '{"doc_id": "d1", "source": "A", "begin": 4, "end": 6},{"doc_id": "d1", "source": "A", "begin": 7, "end": 9}'
    path = tmp_path / "a.jsonl"
    path.write_text("\n".join([*split, two]) + "\n", encoding="utf-8")
    assert outcome(load_annotations, path, None) == outcome(scan_annotations, path, None)
    assert outcome(load_annotations, path, None)[0] == "ParseError"


# Valid records of source A with blank lines among them.
CLEAN_LINES = [
    '{"doc_id": "d1", "source": "A", "begin": 0, "end": 3, "score": 0.5}',
    "",
    '{"doc_id": "d2", "source": "A", "begin": 2, "end": 9, "group": "G1", "cui": "C0000001"}',
    "  \t",
    '{"doc_id": "d1", "source": "A", "begin": 5, "end": 8, "native_type": "T047", "score": 1}',
    '{"doc_id": "d[3]", "source": "A", "begin": 0, "end": 10, "extra": [1, {"a": null}]}',
]


@pytest.mark.parametrize("chunk_lines", [1, 2, 512])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_clean_file_is_read_by_orjson_alone(tmp_path, monkeypatch, chunk_lines, end):
    path = tmp_path / "a.jsonl"
    path.write_text(end.join(CLEAN_LINES) + end, encoding="utf-8", newline="")
    expected = scan_annotation_files([("A", path)], DOCS)

    def no_json_read(*args):
        raise AssertionError("a clean file reached the json reader")

    monkeypatch.setattr(ingest, "CHUNK_LINES", chunk_lines)
    monkeypatch.setattr(ingest, "_json_records", no_json_read)
    assert joined(load_span_files([("A", path)], DOCS)) == expected


@pytest.mark.parametrize("bad", [
    '{"doc_id": "d1", "source": "A", "begin": 4, "end": 2}',  # invalid: its span
    '{"doc_id": "d1", "source": "B", "begin": 0, "end": 2}',  # invalid: its source
    '{"doc_id": "d1", "source": "A", "begin": 0.5, "end": 2}',  # malformed: a type
    '{"doc_id": "d1", "source": "A", "begin": 0, "end": 2',  # malformed: bad JSON
    "[1, 2]",  # malformed: not an object
])
def test_file_with_a_bad_record_is_read_by_json_once(tmp_path, monkeypatch, bad):
    path = tmp_path / "a.jsonl"
    path.write_text("\n".join([*CLEAN_LINES[:3], bad, *CLEAN_LINES[3:]]) + "\n", encoding="utf-8")
    calls, json_records = [], ingest._json_records
    monkeypatch.setattr(
        ingest, "_json_records", lambda *args: calls.append(args[0]) or json_records(*args)
    )
    assert outcome(load_annotations, path, "A") == outcome(scan_annotations, path, "A")
    assert calls == [path]


@pytest.mark.parametrize("chunk_lines", [2, 512])
def test_valid_file_that_orjson_refuses_gives_the_line_scan_columns(
    tmp_path, monkeypatch, chunk_lines
):
    # json reads a lone surrogate, which orjson refuses; in an unknown field
    # it is ignored (in a known one it is malformed)
    surrogate = '{"doc_id": "d2", "source": "A", "begin": 1, "end": 4, "extra": "\\ud800"}'
    refused, clean = tmp_path / "refused.jsonl", tmp_path / "clean.jsonl"
    lines = [*CLEAN_LINES, surrogate, CLEAN_LINES[0]]
    refused.write_text("\n".join(lines) + "\n", encoding="utf-8")
    clean.write_text("\n".join(CLEAN_LINES) + "\n", encoding="utf-8")
    monkeypatch.setattr(ingest, "CHUNK_LINES", chunk_lines)
    assert ingest._orjson_part(refused, DOCS, "A", ()) is None
    files = [("A", clean), (None, refused), ("A", clean)]
    assert joined(load_span_files(files, DOCS)) == scan_annotation_files(files, DOCS)


# JSON text on which orjson and json part: orjson refuses NaN, ±Infinity,
# 1e400 and a lone surrogate, and reads an integer outside [-2**63, 2**64)
# as a float.  The integers are the edges of int64 and uint64.
EDGE_NUMBERS = [
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400",
    *map(str, (-(2**63) - 1, -(2**63), 2**63 - 1, 2**64 - 1, 2**64)),
]
LONE_SURROGATE = '"\\ud800"'


@st.composite
def rule_cases(draw):
    """Well-formed annotation records with a manifest, a group universe
    (empty or not) and an expected source: what both readers' rules judge.
    Each record is valid but for at most one fault, so that a rule checked
    too laxly or too strictly decides whether a file is accepted."""
    lengths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    documents = {doc_id: DocumentRef(doc_id, n) for doc_id, n in zip(("d1", "d2", "d[3]"), lengths)}
    universe = draw(st.sampled_from([(), ("G1",), ("G1", "G2")]))
    expected_source = draw(st.sampled_from([None, "A"]))
    faults = ["ghost", "negative", "empty", "past-end", "cui", "score", "ALL", "foreign", "source"]
    recs = []
    for _ in range(draw(st.integers(0, 4))):
        doc = draw(st.sampled_from(list(documents.values())))
        begin = draw(st.integers(0, doc.length - 1))
        record = {"doc_id": doc.doc_id, "source": "A", "begin": begin,
                  "end": draw(st.integers(begin + 1, doc.length))}  # may end at the end
        for key, values in (
            ("group", [*universe, None] if universe else ["G1", "G{3}", None]),
            ("native_type", ["T047", None]),
            ("cui", ["C0000001", None]),
            ("score", [0, 1, 0.0, 1.0, 0.5, None]),
        ):
            if draw(st.booleans()):
                record[key] = draw(st.sampled_from(values))
        fault = draw(st.sampled_from(["none"] * 8 + faults))
        if fault == "ghost":
            record["doc_id"] = "ghost"
        elif fault == "negative":
            record["begin"] = -1
        elif fault == "empty":
            record["end"] = record["begin"] - draw(st.integers(0, 1))
        elif fault == "past-end":
            record["end"] = doc.length + draw(st.integers(1, 2))
        elif fault == "cui":
            record["cui"] = "C12"
        elif fault == "score":
            record["score"] = draw(st.sampled_from([-0.1, 1.5, 2, -1]))
        elif fault == "ALL":
            record["group"] = "ALL"
        elif fault == "foreign":  # a fault only on a record without a native type
            record["group"] = "G{3}"
        elif fault == "source":  # a fault only when source A is expected
            record["source"] = "B"
        recs.append(record)
    return documents, universe, expected_source, recs


ONE_DOC = {"d1": DocumentRef("d1", 5)}


@settings(max_examples=400, deadline=None)
@given(rule_cases())
@example((ONE_DOC, ("G1",), None, [{"doc_id": "d1", "source": "A", "begin": 0, "end": 5,
                                    "group": "G2", "native_type": "T047"}]))
@example((ONE_DOC, ("G1",), None, [{"doc_id": "d1", "source": "A", "begin": 0, "end": 5,
                                    "group": "G2"}]))
@example((ONE_DOC, (), None, [{"doc_id": "d1", "source": "A", "begin": 1, "end": 6}]))
@example((ONE_DOC, (), None, [{"doc_id": "d1", "source": "A", "begin": 1, "end": 2,
                               "score": 1.5}]))
def test_orjson_reader_accepts_what_the_record_rules_accept(tmp_path_factory, case):
    # the vector rules (model.row_faults) against the per-record ones
    documents, universe, expected_source, recs = case
    path = tmp_path_factory.mktemp("rules") / "a.jsonl"
    path.write_text("".join(json.dumps(record) + "\n" for record in recs), encoding="utf-8")
    part = ingest._orjson_part(path, documents, expected_source, frozenset(universe))
    problems = [ingest._span_problem(record, documents, expected_source, universe)
                for record in recs]
    assert (part is not None) == (problems == [None] * len(recs)), problems


@st.composite
def edge_files(draw, fields, values):
    """Lines of a JSONL file whose records hold the JSON text ``values`` of
    ``fields``: the first value of each field but at most one, which holds
    another, and maybe an unknown field holding a huge number.  Between them
    are blank and non-object lines; every line ends in LF, CRLF or a lone CR."""
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["record"] * 6 + ["blank", "not-object"]))
        if kind == "record":
            record = {key: first for key, (first, *_) in zip(fields, values)}
            odd = draw(st.sampled_from([None] * 4 + list(range(len(fields)))))
            if odd is not None:
                record[fields[odd]] = draw(st.sampled_from(values[odd][1:]))
            if draw(st.booleans()):
                record["extra"] = draw(st.sampled_from(["1" + "0" * 40, str(2**64), "1e400",
                                                        LONE_SURROGATE]))
            lines.append("{" + ", ".join(f'"{key}": {text}' for key, text in record.items()) + "}")
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "  "])))
        else:
            lines.append(draw(st.sampled_from(["[1, 2]", "NaN", '"text"', "null"])))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


ANNOTATION_EDGES = edge_files(
    ["doc_id", "source", "begin", "end", "score"],
    [['"d1"', LONE_SURROGATE], ['"A"', LONE_SURROGATE], ["2", *EDGE_NUMBERS],
     ["7", *EDGE_NUMBERS], ["0.5", *EDGE_NUMBERS]],
)
MANIFEST_EDGES = edge_files(
    ["doc_id", "length", "corpus_id"],
    [['"d1"', '"d2"', LONE_SURROGATE], ["40", *EDGE_NUMBERS], ['"x"', LONE_SURROGATE]],
)


@settings(max_examples=300, deadline=None)
@given(ANNOTATION_EDGES, MANIFEST_EDGES, st.sampled_from([1, 2, 3, 512]))
def test_reader_matches_json_line_scan_on_edge_values(
    tmp_path_factory, text, manifest, chunk_lines
):
    path = tmp_path_factory.mktemp("edges") / "a.jsonl"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "CHUNK_LINES", chunk_lines)
        path.write_text(text, encoding="utf-8")
        assert outcome(load_annotations, path, None) == outcome(scan_annotations, path, None)
        path.write_text(manifest, encoding="utf-8")
        assert load_outcome(load_corpus_manifest, path) == load_outcome(scan_manifest, path)


@pytest.mark.parametrize("number", EDGE_NUMBERS)
def test_each_edge_number_reads_as_json_reads_it(tmp_path, number):
    clean = '{"doc_id": "d1", "source": "A", "begin": 2, "end": 7}\n'
    for key in ("begin", "end", "score"):
        fields = {"doc_id": '"d1"', "source": '"A"', "begin": "2", "end": "7", key: number}
        line = "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}\n"
        for text in (line, clean + line + clean):
            (tmp_path / "a.jsonl").write_text(text)
            expected = outcome(scan_annotations, tmp_path / "a.jsonl", None)
            assert outcome(load_annotations, tmp_path / "a.jsonl", None) == expected
    for text in (f'{{"doc_id": "d1", "length": {number}}}\n', f'{{"doc_id": "d0", "length": 1}}\n'
                 f'{{"doc_id": "d1", "length": {number}}}\r\n'):
        (tmp_path / "m.jsonl").write_text(text)
        expected = load_outcome(scan_manifest, tmp_path / "m.jsonl")
        assert load_outcome(load_corpus_manifest, tmp_path / "m.jsonl") == expected


# One line of each edge kind, read as line 2 of a gold file by the command
# line: the exit code and message are the ones the json line scan implies.
EXIT_CODES = {"ok": 0, "ValidationError": 2, "ParseError": 3}


@pytest.mark.parametrize("line", [
    *(f'{{"doc_id": "d1", "source": "gold", "begin": {n}, "end": 7}}' for n in EDGE_NUMBERS),
    *(f'{{"doc_id": "d1", "source": "gold", "begin": 2, "end": 7, "score": {n}}}'
      for n in EDGE_NUMBERS),
    '{"doc_id": "\\ud800", "source": "gold", "begin": 2, "end": 7}',
    '{"doc_id": "d1", "source": "gold", "begin": 2, "end": 7, "extra": 1e400}',
    '{"doc_id": "d1", "source": "gold", "begin": 2, "end": 7, "extra": 18446744073709551616}',
    "NaN",
])
def test_edge_values_exit_with_the_json_line_scan_code(tmp_path, capsys, line):
    (tmp_path / "manifest.jsonl").write_text('{"doc_id": "d1", "length": 40}\n')
    gold = tmp_path / "gold.jsonl"
    gold.write_text('{"doc_id": "d1", "source": "gold", "begin": 0, "end": 3}\n' + line + "\r\n")
    (tmp_path / "a.jsonl").write_text('{"doc_id": "d1", "source": "A", "begin": 0, "end": 3}\n')
    expected = outcome(scan_annotations, gold, "gold")
    code = main(["ner-eval", "--manifest", str(tmp_path / "manifest.jsonl"), "--gold", str(gold),
                 "--system", f"A={tmp_path / 'a.jsonl'}"])
    assert code == EXIT_CODES[expected[0]]
    if expected[0] != "ok":
        assert expected[1] in capsys.readouterr().err


@st.composite
def decimal_texts(draw):
    """JSON number text of up to 17 significant digits, maybe with a
    fraction and an exponent, all within the finite floats."""
    digits = str(draw(st.integers(0, 10**17 - 1)))
    point = draw(st.integers(0, len(digits) - 1))
    text = digits if not point else digits[:point] + "." + digits[point:]
    if draw(st.booleans()):
        exponent = draw(st.integers(-340, 290))
        plus = "+" if exponent >= 0 and draw(st.booleans()) else ""
        text += draw(st.sampled_from("eE")) + plus + str(exponent)
    return draw(st.sampled_from(["", "-"])) + text


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), decimal_texts()))
def test_orjson_reads_each_number_as_json_does(text):
    got, expected = orjson.loads(text), json.loads(text)
    assert type(got) is type(expected)
    if type(got) is float:
        assert got.hex() == expected.hex()
    else:
        assert got == expected


@st.composite
def annotation_lists(draw):
    anns = []
    for doc in DOCS.values():
        for source in ("A", "B", "gold"):
            for _ in range(draw(st.integers(0, 6))):
                begin = draw(st.integers(0, doc.length - 1))
                anns.append(Annotation(
                    doc.doc_id, source, begin, draw(st.integers(begin + 1, doc.length)),
                    group=draw(st.sampled_from([*GROUPS, None])),
                    native_type=draw(st.sampled_from(["T047", "x-type", "y", None])),
                    cui=draw(st.sampled_from(["C0000003", "C0000001", None])),
                    score=draw(st.sampled_from([None, 0.5, 0.75])),
                ))
    return draw(st.permutations(anns))


@settings(max_examples=200, deadline=None)
@given(annotation_lists())
def test_store_from_columns_matches_store_from_records(tmp_path_factory, anns):
    path = tmp_path_factory.mktemp("store") / "all.jsonl"
    ingest.write_annotations(anns, path)
    columns = load_span_files([(None, path)], DOCS)
    loaded = {col: getattr(columns, col).tobytes() for col in COLUMNS}
    from_columns = AnnotationStore(DOCS.values(), columns, group_universe=GROUPS)
    # the constructor sorts a copy; only AnnotationStore.adopt reorders in place
    assert {col: getattr(columns, col).tobytes() for col in COLUMNS} == loaded
    from_records = AnnotationStore(DOCS.values(), anns, group_universe=GROUPS)
    assert from_columns.sources == from_records.sources
    for source in from_records.sources:
        for doc_id in DOCS:
            for group in (None, *GROUPS):
                got = from_columns.annotations_for(source, doc_id, group)
                assert got == from_records.annotations_for(source, doc_id, group)
                # store order: (begin, end, group, cui), ties in file order
                expected = sorted(
                    (a for a in anns if a.source == source and a.doc_id == doc_id
                     and group in (None, a.group)),
                    key=lambda a: (a.begin, a.end, a.group or "", a.cui or ""),
                )
                assert list(got) == expected
    assert sorted(from_columns.annotations, key=repr) == sorted(anns, key=repr)


@settings(max_examples=200, deadline=None)
@given(annotation_lists(), st.integers(0, 3))
def test_column_mapping_and_disambiguation_match_records(anns, seed):
    gmap = SemanticGroupMap(
        tui_to_group={"T047": "G1", "y": "G2"},
        native_to_group={("B", "x-type"): "G{3}"},
        group_universe=GROUPS,
    )
    outcome = map_groups(SpanColumns.from_annotations(anns), gmap)
    expected, dropped = [], Counter()
    for ann in anns:  # the per-record mapping rule
        group = ann.group if ann.native_type is None else gmap.lookup(ann.source, ann.native_type)
        if group is None:
            dropped[(ann.source, ann.native_type)] += 1
        else:
            expected.append(replace(ann, group=group))
    mapped = outcome.columns.take(outcome.kept)
    assert mapped.annotations() == expected
    assert outcome.dropped_types == dropped and outcome.dropped == sum(dropped.values())

    policy = seed
    kept = mapped.take(disambiguate_spans(mapped, policy, exempt=("gold",)))
    kept = kept.annotations()
    slices: dict = {}
    for ann in expected:
        slices.setdefault((ann.source, ann.doc_id), []).append(ann)
    reference = [
        a for (source, _), group in slices.items()
        for a in (group if source == "gold" else disambiguate_overlaps(group, policy))
    ]
    assert sorted(kept, key=repr) == sorted(reference, key=repr)


@settings(max_examples=200, deadline=None)
@given(annotation_lists())
def test_overlapping_matches_pairwise_oracle(anns):
    # rows of the three sources interleave in the columns, as in no store
    flags = overlapping(SpanColumns.from_annotations(anns)).tolist()
    for i, a in enumerate(anns):
        # a row is flagged when an earlier span of its slice, in (begin, end)
        # order, reaches past its begin
        earlier = [b for j, b in enumerate(anns) if (b.begin, b.end, j) < (a.begin, a.end, i)
                   and (b.source, b.doc_id, b.group) == (a.source, a.doc_id, a.group)]
        assert flags[i] == any(b.end > a.begin for b in earlier), (i, a)


def test_overlapping_with_offsets_near_the_int64_limit():
    # Lifting the third slice above the second by the largest end would
    # overflow int64 and drop it below the first: offsets become ranks.
    big = 2**62
    anns = [
        Annotation("d1", "A", 0, 1, group="G1"),
        Annotation("d1", "A", 0, 1, group="G2"),
        Annotation("d2", "A", 0, big, group="G1"),
        Annotation("d2", "A", big - 1, big + 1, group="G1"),
        Annotation("d2", "A", big, big + 2, group="G1"),
    ]
    flags = overlapping(SpanColumns.from_annotations(anns)).tolist()
    assert flags == [False, False, False, True, True]


@st.composite
def sort_keys(draw):
    """1-6 keys of one length, each a few distinct values (heavy ties) below a
    bound of up to 2**63 - 1, so that keys fill and split uint64 words."""
    n = draw(st.integers(0, 60))
    keys = []
    for _ in range(draw(st.integers(1, 6))):
        top = draw(st.sampled_from([0, 1, 2, 7, 1000, 2**31 - 1, 2**40, 2**63 - 1]))
        pool = draw(st.lists(st.integers(0, top), min_size=1, max_size=draw(st.integers(1, 5))))
        key = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), dtype=np.int64)
        if top <= 1 and draw(st.booleans()):
            key = key.astype(bool)
        elif top < 2**31 and draw(st.booleans()):
            key = key.astype(np.int32)
        keys.append(key)
    return keys


@settings(max_examples=500, deadline=None)
@given(sort_keys())
@example([np.array([], dtype=np.int64)])
@example([np.array([], dtype=np.int64), np.array([], dtype=np.int32)])
@example([np.array([5], dtype=np.int64), np.array([2**63 - 1], dtype=np.int64)])
def test_packed_lexsort_is_lexsort(keys):
    # equal keys keep row order: the whole order must agree, not just the sort
    assert packed_lexsort(keys).tolist() == np.lexsort(keys).tolist()


def test_packed_lexsort_refuses_negative_keys():
    with pytest.raises(ValueError):
        packed_lexsort([np.array([3, -1, 2])])


@st.composite
def tied_spans(draw):
    """Spans of A, B and gold over two documents, from few lengths and two
    scores, so that clusters hold ties of equal length and score, several
    per slice and group, and some clusters need more than one round; plus
    a mask of the rows to keep, as group mapping leaves one."""
    anns = []
    for doc in (DocumentRef("d1", 40), DocumentRef("d2", 16)):
        for source in ("A", "B", "gold"):
            for _ in range(draw(st.integers(0, 12))):
                begin = draw(st.integers(0, doc.length - 2))
                length = draw(st.sampled_from([2, 4, 4, 6]))
                anns.append(Annotation(
                    doc.doc_id, source, begin, min(begin + length, doc.length),
                    group=draw(st.sampled_from(["G1", "G1", "G2", None])),
                    cui=draw(st.sampled_from([None, None, "C0000001"])),
                    score=draw(st.sampled_from([None, 0.5, 0.5])),
                ))
    anns = draw(st.permutations(anns))
    keep = draw(st.lists(st.booleans(), min_size=len(anns), max_size=len(anns)))
    return anns, np.array(keep, dtype=bool)


@settings(max_examples=300, deadline=None)
@given(tied_spans(), st.sampled_from([3, 5]) | st.integers(0, 1000), st.sampled_from([1, 3, 4096]))
def test_cluster_only_disambiguation_keeps_what_whole_runs_keep(spans_and_keep, seed, batch):
    anns, keep = spans_and_keep
    spans = SpanColumns.from_annotations(anns)
    policy = seed
    with pytest.MonkeyPatch.context() as patch:  # records are made a batch of rows at a time
        patch.setattr(ingest, "CHUNK_LINES", batch)
        got = disambiguate_spans(spans, policy, exempt=("gold",))
        masked = disambiguate_spans(spans, policy, exempt=("gold",), keep=keep)
    assert got.tolist() == whole_run_disambiguation(spans, policy, exempt=("gold",)).tolist()
    # rows left out by a mask take no part, as if they were not there
    got = masked
    assert not (got & ~keep).any()
    expected = whole_run_disambiguation(spans.take(keep), policy, exempt=("gold",))
    assert got[keep].tolist() == expected.tolist()


def test_cluster_only_disambiguation_passes_cluster_members_only(monkeypatch):
    """One slice: in G1 a cluster that takes two rounds ([0, 10) wins, then
    [12, 16) and [14, 18) tie), a tied pair and a singleton; in G2 a tied
    pair and a singleton; one span with no group.  Only the eight members of
    the multi-span clusters reach ``disambiguate_overlaps``, and every seed
    keeps what the whole runs keep."""
    spans = SpanColumns.from_annotations([
        Annotation("d1", "A", begin, end, group=group, score=score)
        for begin, end, group, score in [
            (0, 10, "G1", 0.5), (9, 13, "G1", 0.5), (12, 16, "G1", 0.5), (14, 18, "G1", 0.5),
            (30, 34, "G1", 0.5), (32, 36, "G1", 0.5), (50, 55, "G1", 0.5),
            (0, 5, "G2", None), (3, 8, "G2", None), (20, 25, "G2", None),
            (40, 42, None, None),
        ]
    ])
    passed = []
    calls = ingest.disambiguate_overlaps
    monkeypatch.setattr(
        ingest, "disambiguate_overlaps", lambda anns, policy: passed.append(len(anns)) or calls(anns, policy)
    )
    outcomes = set()
    for seed in (3, 5, *range(12)):
        policy = seed
        kept = disambiguate_spans(spans, policy)
        assert kept.tolist() == whole_run_disambiguation(spans, policy).tolist()
        # [9, 13) lost round one; one of the round-two tie survives
        assert kept[[0, 6, 9, 10]].all() and not kept[1] and kept[[2, 3]].sum() == 1
        outcomes.add(tuple(kept.tolist()))
    assert set(passed) == {8}
    assert len(outcomes) > 1  # the seeded ties decide which rows stay
