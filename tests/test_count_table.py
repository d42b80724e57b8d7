"""Differential tests: count-table scoring against independent oracles.

``grid_search``, ``evaluate_expression``, ``complementarity_scores`` and
``cross_group_union_merge`` read a table of characters counted by (gold bit,
coverage pattern); ``majority_vote_eval`` reads the same coverage patterns.
All of them walk the documents in blocks of at most ``search.BLOCK_CHARS``
characters.  Here every score is recomputed on small random corpora with
zero-length documents, documents without spans, overlapping spans, several
groups and k <= 4 systems: from the raw annotations with plain Python sets
(``conftest.set_eval``) and per-character counting (``brute_confusion``),
from the per-document mask path (``corpus_masks``, ``error_set``,
``comp_rate``, ``conftest.comp_prf``), or from the per-document table and
vote kept in ``conftest``, under block budgets from 1 character up.
"""

from __future__ import annotations

import numpy as np
import pytest
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from span_ensembles import (
    ALL_GROUPS,
    Annotation,
    AnnotationStore,
    ConfigError,
    DocumentRef,
    Leaf,
    MetricsResult,
    SearchConfig,
    comp_rate,
    complementarity_scores,
    corpus_masks,
    cross_group_union_merge,
    error_set,
    evaluate_expression,
    grid_search,
    majority_vote_eval,
    parse,
)
from span_ensembles import search
from span_ensembles.model import GOLD_SOURCE
from span_ensembles.search import ScoredEnsemble, _count_table, _pareto_front
from conftest import (
    brute_confusion,
    comp_prf,
    every_scored,
    per_document_count_table,
    per_document_vote,
    set_eval,
    sorted_search_views,
)

GROUPS = ("G1", "G2")
NAMES = ("A", "B", "zeta", "x2")


@st.composite
def corpora(draw, min_systems=1):
    """A store with 1-4 documents, gold plus k systems (``min_systems`` <= k
    <= 4), overlapping spans of group G1, G2 or none."""
    k = draw(st.integers(min_systems, 4))
    systems = draw(st.permutations(NAMES))[:k]
    lengths = draw(st.lists(st.integers(0, 30), min_size=1, max_size=4))
    docs = [DocumentRef(f"d{i}", n) for i, n in enumerate(lengths)]
    anns = []
    for doc in docs:
        if doc.length == 0:
            continue
        for source in (GOLD_SOURCE, *systems):
            for _ in range(draw(st.integers(0, 4))):
                begin = draw(st.integers(0, doc.length - 1))
                end = draw(st.integers(begin + 1, doc.length))
                group = draw(st.sampled_from((*GROUPS, None)))
                anns.append(Annotation(doc.doc_id, source, begin, end, group=group))
        if doc.length > 1 and draw(st.booleans()):
            # one system's overlapping spans in two groups: disjoint per group, not under ALL
            begin = draw(st.integers(0, doc.length - 2))
            anns.append(Annotation(doc.doc_id, systems[0], begin, doc.length, group=GROUPS[0]))
            anns.append(Annotation(doc.doc_id, systems[0], begin + 1, doc.length, group=GROUPS[1]))
    store = AnnotationStore(docs, anns, group_universe=GROUPS, sources=(GOLD_SOURCE, *systems))
    return store, systems


def covered(store, source, group):
    """The (doc, char) positions inside ``source``'s spans of ``group``."""
    return frozenset(
        (doc_id, i)
        for doc_id in store.doc_ids
        for a in store.annotations_for(source, doc_id)
        if group == ALL_GROUPS or a.group == group
        for i in range(a.begin, a.end)
    )


def set_confusion(store, gold, pred):
    """tp/fp/fn of two sets of covered positions, character by character."""
    positions = [(d, i) for d in store.doc_ids for i in range(store.document(d).length)]
    return brute_confusion([p in gold for p in positions], [p in pred for p in positions])


def oracle(store, tree, group):
    """tp/fp/fn of ``tree`` from sets of covered (doc, char) positions."""
    sets = {s: covered(store, s, group) for s in store.sources if s != GOLD_SOURCE}
    return set_confusion(store, covered(store, GOLD_SOURCE, group), set_eval(tree, sets))


def quadratic_pareto(scored):
    """The Pareto set by its definition: no other item is strictly better on
    both precision and recall."""
    front = [
        item
        for item in scored
        if not any(
            o.metrics.precision > item.metrics.precision and o.metrics.recall > item.metrics.recall
            for o in scored
        )
    ]
    front.sort(key=lambda s: (-s.metrics.precision, -s.metrics.recall, s.expression))
    return tuple(front)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_scores_match_set_oracle(data):
    store, systems = data.draw(corpora())
    k = len(systems)
    min_size = data.draw(st.integers(1, k))
    max_size = data.draw(st.integers(min_size, k))
    sampled = data.draw(st.booleans())
    for group in (*GROUPS, ALL_GROUPS):
        config = SearchConfig(
            sources=systems,
            group=group,
            min_size=min_size,
            max_size=max_size,
            sample_budget=3 if sampled else None,
            seed=1,
        )
        result = grid_search(store, GOLD_SOURCE, config)
        scored = every_scored(store, GOLD_SOURCE, config)
        for item in scored:
            tree = parse(item.expression)
            m = item.metrics
            assert (m.tp, m.fp, m.fn) == oracle(store, tree, group), (group, item.expression)
        assert result.pareto == quadratic_pareto(scored)
        for item in data.draw(st.lists(st.sampled_from(scored), max_size=3)):
            again = evaluate_expression(store, parse(item.expression), GOLD_SOURCE, group)
            assert again == item.metrics


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)), max_size=40))
def test_pareto_front_matches_quadratic_definition(counts):
    # small counts give many ties in precision and in recall
    scored = [
        ScoredEnsemble(f"e{i:02d}", 1, MetricsResult.from_counts(*c)) for i, c in enumerate(counts)
    ]
    precision = np.array([s.metrics.precision for s in scored])
    recall = np.array([s.metrics.recall for s in scored])
    front = _pareto_front(precision, recall, np.arange(len(scored)))
    assert tuple(scored[i] for i in front) == quadratic_pareto(scored)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ranked_views_match_sorted_definitions(data):
    # small corpora tie heavily on every metric, so the expression order counts
    store, systems = data.draw(corpora())
    k = len(systems)
    min_size = data.draw(st.integers(1, k))
    config = SearchConfig(
        sources=systems,
        group=data.draw(st.sampled_from((*GROUPS, ALL_GROUPS))),
        min_size=min_size,
        max_size=data.draw(st.integers(min_size, k)),
        sample_budget=data.draw(st.none() | st.integers(1, 12)),
        seed=data.draw(st.integers(0, 3)),
        top_k=data.draw(st.integers(1, 6)),
        beat_singles_f1_only=data.draw(st.booleans()),
    )
    # score the truth tables a few cells at a time, so blocks end anywhere
    with mock.patch.object(search, "SCORE_CELLS", data.draw(st.integers(1, 64))):
        result = grid_search(store, GOLD_SOURCE, config)
        scored = every_scored(store, GOLD_SOURCE, config)
    expected = sorted_search_views(scored, config.top_k, config.beat_singles_f1_only)
    for view, items in expected.items():
        assert getattr(result, view) == items, view
    assert result == grid_search(store, GOLD_SOURCE, config)
    assert scored == every_scored(store, GOLD_SOURCE, config)


@settings(max_examples=40, deadline=None)
@given(corpora(min_systems=2))
def test_complementarity_matches_mask_path(corpus):
    store, systems = corpus
    for group in (*GROUPS, ALL_GROUPS):
        gold = corpus_masks(store, GOLD_SOURCE, group)
        masks = {s: corpus_masks(store, s, group) for s in systems}
        errors = {s: error_set(gold, masks[s]) for s in systems}
        scores = complementarity_scores(store, systems, GOLD_SOURCE, group)
        assert list(scores) == [(a, b) for a in systems for b in systems if a != b]
        for (a, b), (rate, restricted) in scores.items():
            assert rate == comp_rate(errors[a], errors[b]), (group, a, b)
            assert restricted == comp_prf(gold, masks[a], masks[b]), (group, a, b)


@settings(max_examples=40, deadline=None)
@given(corpora(min_systems=2), st.sampled_from((0, 1, 7)))
def test_majority_vote_matches_mask_path(corpus, seed):
    store, systems = corpus
    for group in (*GROUPS, ALL_GROUPS):
        expected = per_document_vote(store, systems, GOLD_SOURCE, group, seed)
        assert majority_vote_eval(store, systems, GOLD_SOURCE, group, seed) == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cross_group_union_merge_matches_set_oracle(data):
    store, systems = data.draw(corpora())
    groups = data.draw(st.lists(st.sampled_from(GROUPS), min_size=1, unique=True))
    assignments = {g: data.draw(st.sampled_from(systems)) for g in groups}
    slices = {g: covered(store, s, g) for g, s in assignments.items()}
    if not all(slices.values()):
        with pytest.raises(ConfigError, match="has no annotations for group"):
            cross_group_union_merge(store, assignments, GOLD_SOURCE)
        return
    merged = frozenset().union(*slices.values())
    gold = covered(store, GOLD_SOURCE, ALL_GROUPS)
    m = cross_group_union_merge(store, assignments, GOLD_SOURCE)
    assert (m.tp, m.fp, m.fn) == set_confusion(store, gold, merged)


def block_budgets():
    """Block sizes from one character up to beyond every drawn corpus."""
    return st.one_of(st.integers(1, 12), st.integers(13, 150))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_block_tables_match_per_document_oracle(data):
    store, systems = data.draw(corpora())
    budget = data.draw(block_budgets(), label="budget")
    groups = (*GROUPS, ALL_GROUPS)
    row_sets = [[(s, g) for s in (*systems, GOLD_SOURCE)] for g in groups]
    row_sets.append([(systems[0], GROUPS[0]), (systems[-1], GROUPS[1]), (GOLD_SOURCE, ALL_GROUPS)])
    with mock.patch.object(search, "BLOCK_CHARS", budget):
        for rows in row_sets:
            expected = per_document_count_table(store, rows)
            assert _count_table(store, rows).tolist() == expected.tolist(), rows
        # the table of any subset in any order, and each system's score read from
        # it: alone through evaluate_expression and through the size-1 search
        want = data.draw(st.permutations(systems)).copy()[: data.draw(st.integers(1, len(systems)))]
        for group in groups:
            rows = [(s, group) for s in (*want, GOLD_SOURCE)]
            table = per_document_count_table(store, rows)
            assert _count_table(store, rows).tolist() == table.tolist(), (group, want)
            config = SearchConfig(sources=tuple(want), group=group, max_size=1)
            singles = grid_search(store, GOLD_SOURCE, config).singles
            assert list(singles) == sorted(want)
            for bit, source in enumerate(want):
                covers = (np.arange(table.shape[1]) >> bit & 1).astype(bool)
                fp, tp = table[:, covers].sum(axis=1).tolist()
                expected = MetricsResult.from_counts(tp, fp, int(table[1].sum()) - tp)
                leaf = evaluate_expression(store, Leaf(source), GOLD_SOURCE, group)
                assert leaf == expected, (group, source)
                assert singles[source] == expected, (group, source)


@settings(max_examples=60, deadline=None)
@given(corpora(min_systems=2), st.sampled_from((0, 1, 7)), block_budgets())
def test_block_vote_matches_per_document_oracle(corpus, seed, budget):
    store, systems = corpus
    with mock.patch.object(search, "BLOCK_CHARS", budget):
        for group in (*GROUPS, ALL_GROUPS):
            expected = per_document_vote(store, systems, GOLD_SOURCE, group, seed)
            assert majority_vote_eval(store, systems, GOLD_SOURCE, group, seed) == expected
