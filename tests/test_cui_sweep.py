"""Differential tests: sweep-line concept-label resolution against the
quadratic oracle in ``conftest``, and mention-level scoring against a
per-character count.

Spans are drawn on a coarse grid of offsets, so nested, adjacent, identical
and zero-gap intervals are common; origin lengths come from a small range, so
equal-origin ties go to the seeded per-character pick.  The array resolver
works on a block of documents laid end to end, so it is also checked with
several documents per block, and ``cui_scores`` under block budgets from one
character up against a per-document oracle.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from span_ensembles import (
    ALL_GROUPS,
    Annotation,
    AnnotationStore,
    CuiMask,
    DocumentRef,
    mention_level_cui_prf,
    merge_cui_layers,
    parse,
    search,
    seeds,
    to_cui_mask,
)
from span_ensembles.masks import Runs, _resolve_candidates, cui_mask
from span_ensembles.model import GOLD_SOURCE
from conftest import quadratic_resolve_candidates

LABELS = ("C0000001", "C0000002", "C0000003", "C0000004")
DOC = "d1"


@st.composite
def entries(draw, length: int):
    """(begin, end, cui, origin_length) votes with boundaries on a grid."""
    grid = draw(st.sampled_from((1, 2, 3)))
    labels = LABELS[: draw(st.integers(1, 4))]
    points = st.integers(0, length // grid).map(lambda p: p * grid)
    out = []
    for _ in range(draw(st.integers(0, 10))):
        a, b = draw(points), draw(points)
        if a == b:
            continue
        begin, end = min(a, b), max(a, b)
        origin = draw(st.one_of(st.just(end - begin), st.integers(1, 3)))
        out.append((begin, end, draw(st.sampled_from(labels)), origin))
    if out and draw(st.booleans()):
        out.append(draw(st.sampled_from(out)))  # an identical entry
    return draw(st.permutations(out))


def runs(mask: CuiMask) -> tuple:
    return tuple((r.begin, r.end, r.cui, r.origin_length) for r in mask.runs)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 24).flatmap(lambda n: st.tuples(st.just(n), entries(n))), st.integers(0, 9))
def test_sweep_matches_quadratic_oracle(case, seed):
    length, votes = case
    got = cui_mask(votes, DOC, length, seed)
    assert runs(got) == quadratic_resolve_candidates(votes, DOC, length, seed)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 24).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(entries(n), min_size=1, max_size=4))
    ),
    st.integers(0, 9),
)
def test_masks_and_merge_match_oracle(case, seed):
    length, per_source = case
    layers = []
    for votes in per_source:
        # every third span carries no concept id and must be skipped
        anns = [
            Annotation(DOC, "S", begin, end, cui=None if i % 3 == 2 else cui)
            for i, (begin, end, cui, _) in enumerate(votes)
        ]
        layer = to_cui_mask(anns, DOC, length, seed)
        labelled = [(a.begin, a.end, a.cui, a.length) for a in anns if a.cui is not None]
        assert runs(layer) == quadratic_resolve_candidates(labelled, DOC, length, seed)
        layers.append(layer)
    merged = merge_cui_layers(layers, seed + 1)
    stacked = [run for layer in layers for run in runs(layer)]
    assert runs(merged) == quadratic_resolve_candidates(stacked, DOC, length, seed + 1)

    # mention-level counts against a per-character walk over two masks
    gold, pred = layers[0], merged
    expected: dict = {}
    for g, p in zip(gold.labels(), pred.labels()):
        if g is not None:
            expected.setdefault(g, [0, 0, 0])[0 if g == p else 2] += 1
        if p is not None and p != g:
            expected.setdefault(p, [0, 0, 0])[1] += 1
    scored = mention_level_cui_prf({DOC: gold}, {DOC: pred})
    assert {c: (m.tp, m.fp, m.fn) for c, m in scored.per_label.items()} == {
        c: tuple(v) for c, v in expected.items()
    }


def resolve_block(docs, seed):
    """The array resolver on ``docs``, (doc id, length, votes) triples laid
    end to end in one block; runs as (doc id, begin, end, cui, origin) with
    offsets in the document."""
    starts = np.cumsum([0] + [length for _, length, _ in docs])
    votes = [(b + start, e + start, LABELS.index(c), o)
             for (_, _, entries), start in zip(docs, starts) for b, e, c, o in entries]
    runs = _resolve_candidates(
        Runs(*np.array(votes, dtype=np.int64).reshape(-1, 4).T), starts, [d for d, _, _ in docs], seed
    )
    out = []
    for b, e, c, o in zip(*(column.tolist() for column in runs)):
        i = int(np.searchsorted(starts, b, side="right")) - 1
        out.append((docs[i][0], b - starts[i], e - starts[i], LABELS[c], o))
    return out


def per_document_runs(docs, seed):
    return [
        (doc_id, *run)
        for doc_id, length, entries in docs
        for run in quadratic_resolve_candidates(entries, doc_id, length, seed)
    ]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.integers(0, 16).flatmap(lambda n: st.tuples(st.just(n), entries(n) if n else st.just([]))),
        min_size=1,
        max_size=4,
    ),
    st.integers(0, 9),
)
def test_block_resolver_matches_per_document_oracle(docs, seed):
    docs = [(f"d{i}", length, votes) for i, (length, votes) in enumerate(docs)]
    assert resolve_block(docs, seed) == per_document_runs(docs, seed)


def test_block_resolver_splits_runs_at_document_start():
    # one concept ends the first document and starts the second: two runs
    docs = [("d0", 5, [(3, 5, LABELS[0], 2)]), ("d1", 5, [(0, 2, LABELS[0], 2)])]
    assert resolve_block(docs, 0) == [("d0", 3, 5, LABELS[0], 2), ("d1", 0, 2, LABELS[0], 2)]


def test_block_resolver_tie_pick_uses_index_in_document():
    # a tie over all of the second document: each pick is keyed on the index in it
    tie = [(0, 8, LABELS[0], 8), (0, 8, LABELS[1], 8)]
    docs = [("d0", 8, []), ("d1", 8, tie)]
    in_doc = [seeds.pick_index(2, 4, "d1", i) for i in range(8)]
    assert in_doc != [seeds.pick_index(2, 4, "d1", i + 8) for i in range(8)]
    assert resolve_block(docs, 4) == per_document_runs(docs, 4)


@st.composite
def concept_stores(draw):
    """Gold and systems A, B with concept spans (some without a concept id)
    of group g1, g2 or none, overlapping freely, over 1-4 documents of 0-20
    characters."""
    lengths = draw(st.lists(st.integers(0, 20), min_size=1, max_size=4))
    docs = [DocumentRef(f"d{i}", n) for i, n in enumerate(lengths)]
    anns = []
    for doc in docs:
        for source in (GOLD_SOURCE, "A", "B"):
            for begin, end, cui, _ in (draw(entries(doc.length)) if doc.length else []):
                group = draw(st.sampled_from(("g1", "g2", None)))
                cui = None if draw(st.integers(0, 5)) == 0 else cui
                anns.append(Annotation(doc.doc_id, source, begin, end, group=group, cui=cui))
    return AnnotationStore(docs, anns, group_universe=("g1", "g2"), sources=(GOLD_SOURCE, "A", "B"))


def per_document_cui_counts(store, operands, level, seed, group):
    """Reference concept counts {cui: (tp, fp, fn)} of the union of the
    operands, one document and one character at a time, with layers from the
    quadratic resolver."""
    counts: dict = {}

    def add(cui, slot):
        counts.setdefault(cui, [0, 0, 0])[slot] += 1

    for doc in store.documents:
        def votes(source):
            return [(a.begin, a.end, a.cui, a.length)
                    for a in store.annotations_for(source, doc.doc_id, group) if a.cui]

        if level == "doc":
            gold = {v[2] for v in votes(GOLD_SOURCE)}
            pred = {v[2] for s in operands for v in votes(s)}
            for cui in gold | pred:
                add(cui, 0 if cui in gold and cui in pred else 1 if cui in pred else 2)
            continue

        def labels(runs):
            out = [None] * doc.length
            for b, e, c, _ in runs:
                out[b:e] = [c] * (e - b)
            return out

        def layer(entries, key):
            return quadratic_resolve_candidates(entries, doc.doc_id, doc.length, key)

        gold = layer(votes(GOLD_SOURCE), seeds.digest(seed, "gold-layer"))
        layers = [layer(votes(s), seeds.digest(seed, "layer", s)) for s in operands]
        pred = layers[0] if len(layers) == 1 else layer([r for runs in layers for r in runs], seed)
        for g, p in zip(labels(gold), labels(pred)):
            if g is not None:
                add(g, 0 if g == p else 2)
            if p is not None and p != g:
                add(p, 1)
    return {cui: tuple(c) for cui, c in counts.items()}


@settings(max_examples=60, deadline=None)
@given(
    concept_stores(),
    st.sampled_from(("doc", "mention")),
    st.sampled_from(("A", "(A|B)")),
    st.integers(0, 9),
    st.integers(1, 40),
)
def test_cui_scores_match_per_document_oracle(store, level, expr, seed, budget):
    tree = parse(expr)
    with mock.patch.object(search, "BLOCK_CHARS", budget):
        for group in ("g1", "g2", ALL_GROUPS):
            ensemble, singles = search.cui_scores(store, tree, GOLD_SOURCE, level, seed, group)
            operands = ["A", "B"] if "B" in expr else ["A"]
            got = {c: (m.tp, m.fp, m.fn) for c, m in ensemble.per_label.items()}
            assert got == per_document_cui_counts(store, operands, level, seed, group)
            for source, single in singles.items():
                got = {c: (m.tp, m.fp, m.fn) for c, m in single.per_label.items()}
                assert got == per_document_cui_counts(store, [source], level, seed, group)
