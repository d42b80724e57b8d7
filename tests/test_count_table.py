"""Differential tests: count-table scoring against per-character set oracles.

``grid_search`` and ``evaluate_expression`` score an ensemble from a table of
characters counted by (gold bit, coverage pattern).  Here every score is
recomputed from the raw annotations with plain Python sets
(``conftest.set_eval``) and per-character counting (``brute_confusion``), on
small random corpora with overlapping spans, several groups and k <= 4
systems.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from span_ensembles import (
    ALL_GROUPS,
    Annotation,
    AnnotationStore,
    DocumentRef,
    MetricsResult,
    SearchConfig,
    evaluate_expression,
    grid_search,
    parse,
)
from span_ensembles.model import GOLD_SOURCE
from span_ensembles.search import SAMPLED, ScoredEnsemble, _pareto_front
from conftest import brute_confusion, set_eval

GROUPS = ("G1", "G2")
NAMES = ("A", "B", "zeta", "x2")


@st.composite
def corpora(draw):
    """A store with 1-4 documents, gold plus k systems, overlapping spans of
    group G1, G2 or none."""
    k = draw(st.integers(1, 4))
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
    store = AnnotationStore(docs, anns, group_universe=GROUPS, sources=(GOLD_SOURCE, *systems))
    return store, systems


def oracle(store, tree, group):
    """tp/fp/fn of ``tree`` from sets of covered (doc, char) positions."""
    def covered(source):
        return frozenset(
            (doc_id, i)
            for doc_id in store.doc_ids
            for a in store.annotations_for(source, doc_id)
            if group == ALL_GROUPS or a.group == group
            for i in range(a.begin, a.end)
        )

    positions = [(d, i) for d in store.doc_ids for i in range(store.document(d).length)]
    gold = covered(GOLD_SOURCE)
    pred = set_eval(tree, {s: covered(s) for s in store.sources if s != GOLD_SOURCE})
    return brute_confusion([p in gold for p in positions], [p in pred for p in positions])


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
            mode=SAMPLED if sampled else "exhaustive",
            sample_budget=3 if sampled else None,
            seed=1,
        )
        result = grid_search(store, GOLD_SOURCE, config)
        for item in result.evaluated:
            tree = parse(item.expression)
            m = item.metrics
            assert (m.tp, m.fp, m.fn) == oracle(store, tree, group), (group, item.expression)
        assert result.pareto == quadratic_pareto(result.evaluated)
        for item in data.draw(st.lists(st.sampled_from(result.evaluated), max_size=3)):
            again = evaluate_expression(store, parse(item.expression), GOLD_SOURCE, group)
            assert again == item.metrics


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)), max_size=40))
def test_pareto_front_matches_quadratic_definition(counts):
    # small counts give many ties in precision and in recall
    scored = [
        ScoredEnsemble(f"e{i:02d}", 1, MetricsResult.from_counts(*c)) for i, c in enumerate(counts)
    ]
    assert _pareto_front(scored) == quadratic_pareto(scored)
