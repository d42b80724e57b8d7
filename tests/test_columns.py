"""Differential tests of the column path: chunked ingest and the columnar store.

``load_annotations`` decodes a chunk of lines at a time and checks records as
arrays; ``conftest.scan_annotations`` is the per-line scan it replaced, one
``Annotation`` per record.  On random files with every kind of bad line
spread across chunk edges, both must give the same records or the same
error.  A store built from columns must hold the same slices as one built
from ``Annotation`` records, and the group mapping and disambiguation of
columns must keep exactly what the per-record functions keep.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from span_ensembles import (
    Annotation,
    AnnotationStore,
    DisambiguationPolicy,
    DocumentRef,
    EnsembleError,
    SemanticGroupMap,
    disambiguate_overlaps,
    ingest,
    load_annotations,
)
from span_ensembles.ingest import disambiguate_spans, load_spans, map_groups
from span_ensembles.model import SpanColumns, overlapping
from conftest import scan_annotations

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
        ("score", [0.25, 0.9, 1.5, -0.1, 1, float("nan"), None]),
        ("extra", [[1, {"a": 2}], "}{", None]),
    ):
        if draw(st.booleans()):
            record[key] = draw(st.sampled_from(values))
    faults = ["missing", "float", "bool", "string", "numeric-id", "big"] if malformed else []
    fault = draw(st.sampled_from(["none"] * 6 + faults))
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
    return record


@st.composite
def jsonl_files(draw):
    """Lines of a JSONL file: records, bad JSON, non-objects, blank lines, two
    objects on one line and one record split across two lines, each line
    ended by LF or CRLF.  Half the files hold only well-formed records and
    blank lines, so that their invalid records are reported."""
    broken = draw(st.booleans())
    kinds = ["record"] * 8 + ["blank"] + (["bad", "array", "two", "split"] if broken else [])
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(kinds))
        if kind == "record":
            lines.append(json.dumps(draw(records(malformed=broken))))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        elif kind == "bad":
            lines.append(draw(st.sampled_from(["{oops", "{}}", '{"doc_id": "d1",}', "nul"])))
        elif kind == "array":
            lines.append(draw(st.sampled_from(["[1, 2]", "5", '"text"', "null"])))
        elif kind == "two":
            sep = draw(st.sampled_from([",", " ", ", "]))
            lines.append(json.dumps(draw(records())) + sep + json.dumps(draw(records())))
        else:
            text = json.dumps(draw(records()))
            cut = draw(st.integers(1, len(text) - 1))
            lines.extend([text[:cut], text[cut:]])
    return [line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines]


def outcome(load, path, expected_source):
    try:
        return "ok", load(path, DOCS, expected_source=expected_source)
    except EnsembleError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "position", None)


@settings(max_examples=400, deadline=None)
@given(jsonl_files(), st.sampled_from([None, "A"]), st.sampled_from([1, 2, 3, 4096]))
def test_chunked_reader_matches_line_scan(tmp_path_factory, lines, expected_source, chunk_lines):
    path = tmp_path_factory.mktemp("jsonl") / "a.jsonl"
    path.write_bytes("".join(lines).encode("utf-8"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "CHUNK_LINES", chunk_lines)
        got = outcome(load_annotations, path, expected_source)
    assert got == outcome(scan_annotations, path, expected_source)


def test_chunk_of_misaligned_lines_falls_back(tmp_path):
    # A record split over two lines and a line with two objects decode, joined,
    # to as many objects as lines; the line scan must still report both.
    split = '{"doc_id": "d1", "source": "A", "extra": [{"a": 1}', '{"b": 2}], "begin": 0, "end": 3}'
    two = '{"doc_id": "d1", "source": "A", "begin": 4, "end": 6},{"doc_id": "d1", "source": "A", "begin": 7, "end": 9}'
    path = tmp_path / "a.jsonl"
    path.write_text("\n".join([*split, two]) + "\n", encoding="utf-8")
    assert outcome(load_annotations, path, None) == outcome(scan_annotations, path, None)
    assert outcome(load_annotations, path, None)[0] == "ParseError"


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
    from_columns = AnnotationStore(DOCS.values(), load_spans(path, DOCS), group_universe=GROUPS)
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
            expected.append(ann.with_group(group))
    assert list(outcome.annotations) == expected
    assert outcome.dropped_types == dropped and outcome.dropped == sum(dropped.values())

    policy = DisambiguationPolicy(seed=seed)
    kept = disambiguate_spans(outcome.spans, policy, exempt=("gold",)).annotations()
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
