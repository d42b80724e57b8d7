from dataclasses import replace

import numpy as np
import pytest

from span_ensembles import (
    ALL_GROUPS,
    Annotation,
    AnnotationStore,
    ConfigError,
    DocumentRef,
    ValidationError,
    corpus_masks,
)
from span_ensembles.model import SpanColumns, check_group


def make_store():
    docs = [DocumentRef("d1", 100, "c"), DocumentRef("d2", 50, "c")]
    anns = [
        Annotation("d1", "A", 0, 10, group="Anatomy"),
        Annotation("d1", "A", 20, 30, group="Anatomy"),
        Annotation("d2", "A", 5, 15, group="Anatomy"),
        Annotation("d1", "B", 0, 5, group="Disorders"),
        Annotation("d2", "B", 10, 20, group="Disorders"),
    ]
    return AnnotationStore(docs, anns, group_universe=("Anatomy", "Disorders", "Procedures"))


def test_document_rejects_negative_length():
    with pytest.raises(ValidationError):
        DocumentRef("d1", -1)


def test_annotation_rejects_inverted_span():
    with pytest.raises(ValidationError):
        Annotation("d1", "A", 12, 5)


def test_annotation_rejects_bad_cui():
    with pytest.raises(ValidationError):
        Annotation("d1", "A", 0, 5, cui="X123")
    # 7 digits after C is fine
    Annotation("d1", "A", 0, 5, cui="C0004057")


def test_annotation_optional_fields():
    ann = Annotation("d1", "A", 5, 12, native_type="DrugMention", cui="C0004057", score=0.91)
    assert ann.length == 7
    bare = Annotation("d1", "A", 5, 12)
    assert bare.cui is None and bare.score is None


def test_store_rejects_unknown_doc():
    with pytest.raises(ValidationError):
        AnnotationStore([DocumentRef("d1", 10)], [Annotation("nope", "A", 0, 5)])


def test_store_rejects_out_of_bounds_span():
    with pytest.raises(ValidationError):
        AnnotationStore([DocumentRef("d1", 10)], [Annotation("d1", "A", 5, 11)])


def test_store_rejects_duplicate_doc():
    with pytest.raises(ValidationError):
        AnnotationStore([DocumentRef("d1", 10), DocumentRef("d1", 20)], [])


@pytest.mark.parametrize("column, value, message", [
    ("begin", 5, "bad span [5, 2) from source 'A' in doc 'd'"),
    ("begin", -1, "bad span [-1, 2) from source 'A' in doc 'd'"),
    ("cui", "X123", "bad concept id 'X123' (expected 'C' + 7 digits)"),
    ("score", 7.0, "score 7.0 outside [0, 1]"),
    ("score", -0.5, "score -0.5 outside [0, 1]"),
    ("score", float("inf"), "score inf outside [0, 1]"),
])
def test_store_from_columns_checks_the_annotation_invariants(column, value, message):
    """The first bad row is refused with the message its Annotation would
    raise."""
    documents = [DocumentRef("d", 10)]
    columns = SpanColumns.from_annotations([
        Annotation("d", "A", 0, 2, cui="C0000001", score=0.5),
        Annotation("d", "B", 1, 2, cui="C0000002", score=0.25),
    ])
    if column == "cui":
        columns = replace(columns, cuis=tuple(value if c == "C0000001" else c for c in columns.cuis))
    else:
        getattr(columns, column)[0] = value
    with pytest.raises(ValidationError) as error:
        AnnotationStore(documents, columns)
    assert str(error.value) == message


def test_store_checks_only_the_kept_rows():
    columns = SpanColumns.from_annotations([Annotation("d", "A", 0, 2), Annotation("d", "B", 1, 2)])
    columns.end[0], columns.score[0] = 0, 7.0
    store = AnnotationStore.adopt([DocumentRef("d", 10)], columns, np.array([False, True]))
    assert [a.source for a in store.columns.annotations()] == ["B"]
    # a left-out row with a negative offset is not sorted either
    columns = SpanColumns.from_annotations([Annotation("d", "A", 0, 2), Annotation("d", "B", 1, 2)])
    columns.begin[0] = -1
    store = AnnotationStore.adopt([DocumentRef("d", 10)], columns, np.array([False, True]))
    assert [a.source for a in store.columns.annotations()] == ["B"]


def in_group(store, group):
    """Every span of ``group`` (None or ALL_GROUPS: every span), read one
    (source, document) slice at a time."""
    return [
        ann
        for source in store.sources
        for doc_id in store.doc_ids
        for ann in store.annotations_for(source, doc_id, group)
    ]


def test_filter_by_group_basic():
    store = make_store()
    check_group(store, "Disorders")
    filtered = in_group(store, "Disorders")
    assert len(filtered) == 2
    assert all(a.group == "Disorders" for a in filtered)
    assert list(corpus_masks(store, "B", "Disorders")) == list(store.doc_ids)


def test_filter_all_is_identity():
    store = make_store()
    check_group(store, ALL_GROUPS)
    assert in_group(store, ALL_GROUPS) == in_group(store, None)
    assert sorted(in_group(store, ALL_GROUPS), key=repr) == sorted(store.annotations, key=repr)


def test_filter_empty_group_keeps_documents():
    store = make_store()
    check_group(store, "Procedures")
    assert in_group(store, "Procedures") == []
    masks = corpus_masks(store, "A", "Procedures")
    assert list(masks) == list(store.doc_ids)
    assert not any(mask.bits.any() for mask in masks.values())


def test_filter_unknown_group_is_config_error():
    with pytest.raises(ConfigError):
        check_group(make_store(), "Findings")
    with pytest.raises(ConfigError):
        corpus_masks(make_store(), "A", "Findings")


def test_filter_idempotent():
    store = make_store()
    once = in_group(store, "Anatomy")
    refiltered = AnnotationStore(store.documents, once, group_universe=store.group_universe)
    assert in_group(refiltered, "Anatomy") == once


def test_group_counts_partition_annotations():
    store = make_store()
    per_group = [in_group(store, group) for group in store.groups_present()]
    grouped = [a for a in store.annotations if a.group is not None]
    assert sum(map(len, per_group)) == len(grouped)
    assert {a for anns in per_group for a in anns} == set(grouped)


def test_verify_disjoint_spans():
    docs = [DocumentRef("d1", 100)]
    good = AnnotationStore(docs, [Annotation("d1", "A", 0, 5, group="g"), Annotation("d1", "A", 5, 9, group="g")])
    good.verify_disjoint_spans()
    # same interval, different groups: still fine
    cross = AnnotationStore(docs, [Annotation("d1", "A", 0, 5, group="g"), Annotation("d1", "A", 0, 5, group="h")])
    cross.verify_disjoint_spans()
    bad = AnnotationStore(docs, [Annotation("d1", "A", 0, 6, group="g"), Annotation("d1", "A", 4, 9, group="g")])
    with pytest.raises(ValidationError):
        bad.verify_disjoint_spans()
