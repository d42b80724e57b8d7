import numpy as np
import pytest

from span_ensembles import (
    ALL_GROUPS,
    Annotation,
    AnnotationStore,
    ConfigError,
    DocumentRef,
    Leaf,
    SearchConfig,
    SourceSpec,
    SynthSpec,
    UnsupportedOperatorError,
    char_prf,
    corpus_masks,
    cross_group_union_merge,
    cui_scores,
    doc_level_cui_prf,
    evaluate,
    evaluate_expression,
    generate,
    grid_search,
    majority_vote_eval,
    mention_level_cui_prf,
    merge_cui_layers,
    parse,
    seeds,
    to_cui_mask,
)
from span_ensembles import expr, search
from span_ensembles.model import GOLD_SOURCE
from span_ensembles.report import CSV_FORMAT, ENSEMBLE_PANELS, PanelBlock, emit_table
from span_ensembles.search import SAMPLED
from conftest import every_scored


def two_system_store():
    """Gold split into two halves; A finds only the left one, B only the
    right one, both with perfect precision."""
    docs = [DocumentRef("d1", 40)]
    anns = [
        Annotation("d1", GOLD_SOURCE, 0, 10, group="g"),
        Annotation("d1", GOLD_SOURCE, 20, 30, group="g"),
        Annotation("d1", "A", 0, 10, group="g"),
        Annotation("d1", "B", 20, 30, group="g"),
    ]
    return AnnotationStore(docs, anns, group_universe=("g",))


def synth_store(seed=21):
    spec = SynthSpec(
        n_docs=12,
        doc_length=400,
        sources=(
            SourceSpec("A", 0.25, 1.0, 1),
            SourceSpec("B", 0.35, 2.0, 0),
            SourceSpec("C", 0.15, 3.0, 1),
        ),
        span_len_min=3,
        cui_vocab=15,
        seed=seed,
    )
    return generate(spec)


def test_union_of_complementary_systems_wins_recall():
    store = two_system_store()
    result = grid_search(store, GOLD_SOURCE, SearchConfig(sources=("A", "B"), seed=0, top_k=5))
    top_recall = result.by_recall[0]
    assert top_recall.expression == "(A|B)"
    assert top_recall.metrics.recall == 1.0
    assert all(m.recall == 0.5 for m in result.singles.values())
    # the union ties the singles' perfect precision, so it does not strictly
    # dominate on all three metrics; the F1-only relaxation admits it
    assert not any(s.expression == "(A|B)" for s in result.beating_all_singles)
    relaxed = grid_search(
        store,
        GOLD_SOURCE,
        SearchConfig(sources=("A", "B"), seed=0, top_k=5, beat_singles_f1_only=True),
    )
    assert any(s.expression == "(A|B)" for s in relaxed.beating_all_singles)


def test_ensemble_short_of_a_single_recall_does_not_beat_it():
    # gold [0, 40); A: 38 tp, 35 fp; B: 36 tp, 25 fp; A&B: 36 tp, 0 fp
    docs = [DocumentRef("d1", 100)]
    spans = [(GOLD_SOURCE, 0, 40), ("A", 0, 38), ("A", 40, 75), ("B", 0, 36), ("B", 75, 100)]
    store = AnnotationStore(docs, [Annotation("d1", s, b, e, group="g") for s, b, e in spans])
    both = {}
    for f1_only in (False, True):
        config = SearchConfig(sources=("A", "B"), beat_singles_f1_only=f1_only)
        result = grid_search(store, GOLD_SOURCE, config)
        both[f1_only] = [s.expression for s in result.beating_all_singles]
    # A&B beats both singles on F1 and precision, but A's recall is higher
    assert "(A&B)" not in both[False] and "(A&B)" in both[True]


def test_single_source_search_degenerates_to_baseline():
    store = two_system_store()
    result = grid_search(store, GOLD_SOURCE, SearchConfig(sources=("A",), min_size=1, max_size=1))
    gold = corpus_masks(store, GOLD_SOURCE)
    direct = char_prf(gold, corpus_masks(store, "A"))
    assert result.by_f1[0].metrics == direct
    assert result.singles["A"] == direct


def test_candidate_space_size_five_sources():
    spec = SynthSpec(
        n_docs=2,
        doc_length=200,
        sources=tuple(SourceSpec(n, 0.2) for n in "ABCDE"),
        seed=5,
    )
    store = generate(spec)
    config = SearchConfig(sources=tuple("ABCDE"), min_size=1, max_size=5, top_k=3)
    # sizes 1..5 over 5 sources: 5 + 20 + 80 + 260 + 472
    assert len(every_scored(store, GOLD_SOURCE, config)) == 837
    config2 = SearchConfig(sources=tuple("ABCDE"), min_size=2, max_size=5, top_k=3)
    scored2 = every_scored(store, GOLD_SOURCE, config2)
    # the size 2..5 combination space holds 20 + 80 + 260 + 472 = 832
    # distinct functions; the 5 singletons stay in the pool as baselines
    assert len([s for s in scored2 if s.size >= 2]) == 832
    assert len(scored2) == 837


def test_top_f1_at_least_best_single():
    store = synth_store()
    result = grid_search(store, GOLD_SOURCE, SearchConfig(sources=("A", "B", "C"), seed=1))
    best_single = max(m.f1 for m in result.singles.values())
    assert result.by_f1[0].metrics.f1 >= best_single


def test_pareto_contains_all_top1_entries():
    store = synth_store()
    for group in (ALL_GROUPS, "Anatomy", "Disorders"):
        result = grid_search(
            store, GOLD_SOURCE, SearchConfig(sources=("A", "B", "C"), group=group, seed=1)
        )
        pareto = {s.expression for s in result.pareto}
        for ranked in (result.by_f1, result.by_precision, result.by_recall):
            assert ranked[0].expression in pareto


def test_reported_expressions_reproduce_counts():
    store = synth_store()
    result = grid_search(store, GOLD_SOURCE, SearchConfig(sources=("A", "B", "C"), seed=1, top_k=5))
    for item in (*result.by_f1, *result.pareto[:5]):
        again = evaluate_expression(store, parse(item.expression), GOLD_SOURCE)
        assert again == item.metrics
    # and through per-doc mask evaluation too
    item = result.by_f1[0]
    tree = parse(item.expression)
    from span_ensembles.expr import tree_sources

    gold = corpus_masks(store, GOLD_SOURCE)
    bindings_by_source = {s: corpus_masks(store, s) for s in tree_sources(tree)}
    pred = {
        doc_id: evaluate(tree, {s: bindings_by_source[s][doc_id] for s in bindings_by_source})
        for doc_id in store.doc_ids
    }
    assert char_prf(gold, pred) == item.metrics


def test_sampled_with_big_budget_equals_exhaustive():
    store = synth_store()
    exhaustive_config = SearchConfig(sources=("A", "B", "C"), seed=2)
    sampled_config = SearchConfig(sources=("A", "B", "C"), mode=SAMPLED, sample_budget=10_000,
                                  seed=2)
    exhaustive = grid_search(store, GOLD_SOURCE, exhaustive_config)
    sampled = grid_search(store, GOLD_SOURCE, sampled_config)
    assert sampled == exhaustive
    assert every_scored(store, GOLD_SOURCE, sampled_config) == (
        every_scored(store, GOLD_SOURCE, exhaustive_config)
    )


def test_sampled_respects_budget_and_determinism():
    store = synth_store()
    config = SearchConfig(sources=("A", "B", "C"), mode=SAMPLED, sample_budget=7, seed=2)
    first = grid_search(store, GOLD_SOURCE, config)
    second = grid_search(store, GOLD_SOURCE, config)
    assert first == second
    scored = every_scored(store, GOLD_SOURCE, config)
    assert scored == every_scored(store, GOLD_SOURCE, config)
    non_single = [s for s in scored if s.size > 1]
    assert len(non_single) == 7
    assert len([s for s in scored if s.size == 1]) == 3


def test_input_order_does_not_change_results():
    store = synth_store()
    reversed_store = AnnotationStore(
        store.documents[::-1],
        store.annotations[::-1],
        group_universe=store.group_universe,
        sources=store.sources[::-1],
    )
    for group in (ALL_GROUPS, "Anatomy"):
        base_config = SearchConfig(sources=("A", "B", "C"), group=group, seed=3)
        flipped_config = SearchConfig(sources=("C", "B", "A"), group=group, seed=3)
        base = grid_search(store, GOLD_SOURCE, base_config)
        flipped = grid_search(reversed_store, GOLD_SOURCE, flipped_config)
        assert base == flipped
        assert every_scored(store, GOLD_SOURCE, base_config) == (
            every_scored(reversed_store, GOLD_SOURCE, flipped_config)
        )
        assert emit_table([PanelBlock("c", group, base)], ENSEMBLE_PANELS, CSV_FORMAT) == (
            emit_table([PanelBlock("c", group, flipped)], ENSEMBLE_PANELS, CSV_FORMAT)
        )


def test_search_space_beyond_the_limit_is_refused_before_any_work(monkeypatch):
    sources = tuple("ABCDEFGH")
    store = AnnotationStore(
        [DocumentRef("d1", 10)],
        [Annotation("d1", s, 0, 5) for s in (GOLD_SOURCE, *sources)],
    )

    def no_work(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(search, "read_once_space", no_work)
    monkeypatch.setattr(search, "_count_table", no_work)
    with pytest.raises(ConfigError, match=r"2,132,088 ensembles over 8 sources.*--max-size"):
        grid_search(store, GOLD_SOURCE, SearchConfig(sources=sources))
    with pytest.raises(ConfigError, match=r"1,320,064 ensembles"):
        grid_search(store, GOLD_SOURCE, SearchConfig(sources=sources, min_size=8, mode=SAMPLED,
                                                      sample_budget=1))


def test_search_space_count_is_exact():
    expr.check_search_space(7, 1, 7)  # every full search up to 7 sources runs
    ranges = [(k, low, high) for k in range(1, 7)
              for low in range(1, k + 1) for high in range(low, k + 1)]
    for k, low, high in [*ranges, (7, 1, 7)]:
        ops = dict.fromkeys((expr.AND, expr.OR), lambda left, right: None)
        count = len(expr.read_once_space("ABCDEFG"[:k], low, high, expr.SEMANTIC, len, ops))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(expr, "MAX_SEARCH_ENSEMBLES", count)
            expr.check_search_space(k, low, high)
            patch.setattr(expr, "MAX_SEARCH_ENSEMBLES", count - 1)
            with pytest.raises(ConfigError, match=f"holds {count:,} ensembles"):
                expr.check_search_space(k, low, high)


def test_search_space_tables_are_their_expressions_evaluated():
    for k in range(1, 6):
        pool = tuple("ABCDE"[:k])
        columns = expr.pattern_columns(pool)
        for low in range(1, k + 1):
            for high in range(low, k + 1):
                expressions, sizes, tables, _ = search._ensemble_space(pool, low, high)
                assert tables.dtype == bool and tables.shape == (len(expressions), 2**k)
                for expression, size, table in zip(expressions, sizes, tables):
                    tree = parse(expression)
                    assert len(expr.tree_sources(tree)) == size
                    assert np.array_equal(table, evaluate(tree, columns))


def test_search_builds_its_space_without_trees(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the search built or evaluated a tree")

    store = AnnotationStore(
        [DocumentRef("d1", 40)],
        [Annotation("d1", s, 3 * i, 3 * i + 10) for i, s in enumerate((GOLD_SOURCE, *"ABCDE"))],
    )
    search._ensemble_space.cache_clear()
    monkeypatch.setattr(search, "evaluate", fail)
    monkeypatch.setattr(expr, "enumerate_ensembles", fail)
    assert len(every_scored(store, GOLD_SOURCE, SearchConfig(sources=tuple("ABCDE")))) == 837


def test_count_table_beyond_the_limit_is_refused_before_any_work(monkeypatch):
    store = synth_store()
    monkeypatch.setattr(search, "MAX_TABLE_CELLS", 2**3)  # gold and two systems
    assert evaluate_expression(store, parse("(A|B)"), GOLD_SOURCE).tp > 0

    def fail(*args, **kwargs):
        raise AssertionError("built a table past the limit")

    monkeypatch.setattr(search, "_blocks", fail)
    message = "3 systems and gold make a count table of 16 cells, more than 8"
    with pytest.raises(ConfigError, match=message):
        evaluate_expression(store, parse("((A|B)|C)"), GOLD_SOURCE)
    with pytest.raises(ConfigError, match=message):
        majority_vote_eval(store, ["A", "B", "C"], GOLD_SOURCE)
    with pytest.raises(ConfigError, match=message):
        search.complementarity_scores(store, ["A", "B", "C"], GOLD_SOURCE)
    with pytest.raises(ConfigError, match=message):
        grid_search(store, GOLD_SOURCE, SearchConfig(sources=("A", "B", "C"), max_size=1))


def test_every_scored_row_reevaluates_to_its_metrics():
    store = synth_store()
    config = SearchConfig(sources=("A", "B", "C"), min_size=2, top_k=3)
    scored = every_scored(store, GOLD_SOURCE, config)
    assert len(scored) == 3 + 2 * 3 + 8
    for item in scored:
        assert item.metrics == evaluate_expression(store, parse(item.expression), GOLD_SOURCE)


def test_every_scored_holds_the_whole_space_and_the_kept_singles():
    store = AnnotationStore(
        [DocumentRef("d1", 40)],
        [Annotation("d1", s, 3 * i, 3 * i + 10) for i, s in enumerate((GOLD_SOURCE, *"ABCDE"))],
    )
    for k in range(1, 6):
        pool = tuple("ABCDE"[:k])
        for low in range(1, k + 1):
            for high in range(low, k + 1):
                config = SearchConfig(sources=pool, min_size=low, max_size=high)
                scored = [item.expression for item in every_scored(store, GOLD_SOURCE, config)]
                space = {expr.to_string(t) for t in expr.enumerate_ensembles(pool, low, high)}
                assert len(scored) == len(set(scored)) == len(space | set(pool)), (k, low, high)
                assert set(scored) == space | set(pool), (k, low, high)


def test_grid_search_unknown_source():
    store = two_system_store()
    with pytest.raises(ConfigError):
        grid_search(store, GOLD_SOURCE, SearchConfig(sources=("A", "ZZ")))
    with pytest.raises(ConfigError):
        grid_search(store, GOLD_SOURCE, SearchConfig(sources=("A",), group="nope"))


def test_or_and_recall_monotonicity():
    store = synth_store()
    singles = {
        name: char_prf(corpus_masks(store, GOLD_SOURCE), corpus_masks(store, name)).recall
        for name in ("A", "B", "C")
    }
    pure_or = evaluate_expression(store, parse("((A|B)|C)"), GOLD_SOURCE).recall
    pure_and = evaluate_expression(store, parse("((A&B)&C)"), GOLD_SOURCE).recall
    assert pure_or >= max(singles.values())
    assert pure_and <= min(singles.values())


def cross_group_store():
    """Source X annotates only group G1, source Y only G2; together they tile
    the gold standard exactly."""
    docs = [DocumentRef("d1", 60)]
    anns = [
        Annotation("d1", GOLD_SOURCE, 0, 10, group="G1"),
        Annotation("d1", GOLD_SOURCE, 30, 40, group="G2"),
        Annotation("d1", "X", 0, 10, group="G1"),
        Annotation("d1", "X", 45, 50, group="G2"),  # X is wrong outside G1
        Annotation("d1", "Y", 30, 40, group="G2"),
        Annotation("d1", "Y", 12, 20, group="G1"),  # Y is wrong outside G2
    ]
    return AnnotationStore(docs, anns, group_universe=("G1", "G2"))


def test_cross_group_union_merge_perfect_assignment():
    store = cross_group_store()
    merged = cross_group_union_merge(store, {"G1": "X", "G2": "Y"}, GOLD_SOURCE)
    assert merged.f1 == 1.0
    # while each single system, taken whole, is imperfect on all groups
    gold = corpus_masks(store, GOLD_SOURCE)
    for name in ("X", "Y"):
        assert char_prf(gold, corpus_masks(store, name)).f1 < 1.0


def test_cross_group_single_assignment_equals_filtered_score():
    store = cross_group_store()
    merged = cross_group_union_merge(store, {"G1": "X"}, GOLD_SOURCE)
    gold = corpus_masks(store, GOLD_SOURCE)
    filtered_pred = corpus_masks(store, "X", "G1")
    assert merged == char_prf(gold, filtered_pred)


def test_cross_group_two_groups_same_source():
    store = cross_group_store()
    merged = cross_group_union_merge(store, {"G1": "X", "G2": "X"}, GOLD_SOURCE)
    gold = corpus_masks(store, GOLD_SOURCE)
    from span_ensembles import union

    pred = {
        d: union(corpus_masks(store, "X", "G1")[d], corpus_masks(store, "X", "G2")[d])
        for d in store.doc_ids
    }
    assert merged == char_prf(gold, pred)


def test_cross_group_missing_group_for_source():
    store = cross_group_store()
    # Y has no G1... it does (12,20). X has no annotations in G2? It has (45,50).
    # Remove by filtering to a group truly absent:
    docs = [DocumentRef("d1", 60)]
    anns = [
        Annotation("d1", GOLD_SOURCE, 0, 10, group="G1"),
        Annotation("d1", "X", 0, 10, group="G1"),
    ]
    small = AnnotationStore(docs, anns, group_universe=("G1", "G2"))
    with pytest.raises(ConfigError):
        cross_group_union_merge(small, {"G2": "X"}, GOLD_SOURCE)


def test_majority_vote_eval_cases():
    docs = [DocumentRef("d1", 30)]
    gold = Annotation("d1", GOLD_SOURCE, 0, 10, group="g")
    agree = [Annotation("d1", s, 0, 10, group="g") for s in ("A", "B")]
    inverted = [Annotation("d1", "C", 10, 30, group="g")]
    store = AnnotationStore(docs, [gold, *agree, *inverted], group_universe=("g",))
    # two correct systems outvote the adversarial one
    result = majority_vote_eval(store, ("A", "B", "C"), GOLD_SOURCE, seed=4)
    assert result.precision == result.recall == result.f1 == 1.0
    # all sources identical: equals the single-system score
    same = majority_vote_eval(store, ("A", "B"), GOLD_SOURCE, seed=4)
    single = char_prf(corpus_masks(store, GOLD_SOURCE), corpus_masks(store, "A"))
    assert same == single
    # deterministic under a fixed seed even with everywhere-ties
    split_anns = [
        Annotation("d1", "E", 0, 30, group="g"),
        Annotation("d1", "F", 0, 30, group="g"),
    ]
    store2 = AnnotationStore(
        docs, [gold, *agree, *split_anns], group_universe=("g",)
    )
    r1 = majority_vote_eval(store2, ("A", "E", "F", "B"), GOLD_SOURCE, seed=9)
    r2 = majority_vote_eval(store2, ("A", "E", "F", "B"), GOLD_SOURCE, seed=9)
    assert r1 == r2


def cui_store():
    docs = [DocumentRef("d1", 40), DocumentRef("d2", 40)]
    anns = [
        Annotation("d1", GOLD_SOURCE, 0, 10, group="g", cui="C0000001"),
        Annotation("d2", GOLD_SOURCE, 0, 10, group="g", cui="C0000002"),
        Annotation("d1", "A", 0, 10, group="g", cui="C0000001"),
        Annotation("d2", "A", 0, 10, group="g", cui="C0000009"),
        Annotation("d2", "B", 0, 10, group="g", cui="C0000002"),
    ]
    return AnnotationStore(docs, anns, group_universe=("g",), sources=["A", "B", GOLD_SOURCE])


def test_cui_ensemble_rejects_intersection():
    store = cui_store()
    with pytest.raises(UnsupportedOperatorError):
        cui_scores(store, parse("(A&B)"), GOLD_SOURCE)[0]


def test_cui_doc_level_union():
    store = cui_store()
    result = cui_scores(store, parse("(A|B)"), GOLD_SOURCE, level="doc")[0]
    # d1: gold {C1} pred {C1}; d2: gold {C2} pred {C2, C9}
    assert result.per_label["C0000001"].f1 == 1.0
    assert result.per_label["C0000002"].f1 == 1.0
    assert result.per_label["C0000009"].f1 == 0.0
    assert result.macro_f1 == pytest.approx(2 / 3)


def test_cui_doc_level_one_right_one_wrong_operand():
    # one doc, gold {C1}; operand X predicts {C1}, operand Y predicts {C2}:
    # the union scores C1 at 1 and C2 at 0, macro 0.5
    docs = [DocumentRef("d1", 20)]
    anns = [
        Annotation("d1", GOLD_SOURCE, 0, 5, group="g", cui="C0000001"),
        Annotation("d1", "X", 0, 5, group="g", cui="C0000001"),
        Annotation("d1", "Y", 0, 5, group="g", cui="C0000002"),
    ]
    store = AnnotationStore(docs, anns, group_universe=("g",))
    result = cui_scores(store, parse("(X|Y)"), GOLD_SOURCE, level="doc")[0]
    assert result.per_label["C0000001"].f1 == 1.0
    assert result.per_label["C0000002"].f1 == 0.0
    assert result.macro_f1 == 0.5


def test_cui_single_source_equals_leaf():
    store = cui_store()
    via_leaf = cui_scores(store, parse("A"), GOLD_SOURCE, level="doc")[0]
    assert via_leaf.per_label["C0000001"].f1 == 1.0
    assert via_leaf.per_label["C0000009"].fp == 1


def test_cui_mention_level_identical_sources():
    docs = [DocumentRef("d1", 20)]
    anns = [
        Annotation("d1", GOLD_SOURCE, 0, 10, group="g", cui="C0000001"),
        Annotation("d1", "A", 0, 10, group="g", cui="C0000001"),
        Annotation("d1", "B", 0, 10, group="g", cui="C0000001"),
    ]
    store = AnnotationStore(docs, anns, group_universe=("g",))
    merged = cui_scores(store, parse("(A|B)"), GOLD_SOURCE, level="mention")[0]
    single = cui_scores(store, parse("A"), GOLD_SOURCE, level="mention")[0]
    assert merged.macro_f1 == single.macro_f1 == 1.0


def overlapping_cui_store():
    """Overlapping concept spans in gold and in every system, spans of two
    groups and spans left without a group (unmapped types)."""
    docs = [DocumentRef("d1", 60), DocumentRef("d2", 40), DocumentRef("d3", 10)]
    spans = [
        ("d1", GOLD_SOURCE, 0, 12, "g1", "C0000001"),
        ("d1", GOLD_SOURCE, 8, 20, "g1", "C0000002"),
        ("d1", GOLD_SOURCE, 30, 40, "g2", "C0000003"),
        ("d2", GOLD_SOURCE, 5, 15, None, "C0000004"),
        ("d2", GOLD_SOURCE, 5, 15, "g2", "C0000001"),
        ("d1", "A", 0, 10, "g1", "C0000001"),
        ("d1", "A", 4, 14, "g1", "C0000002"),
        ("d1", "A", 30, 35, "g2", "C0000003"),
        ("d2", "A", 0, 20, None, "C0000004"),
        ("d1", "B", 2, 12, "g1", "C0000002"),
        ("d1", "B", 10, 20, "g1", "C0000001"),
        ("d1", "B", 32, 40, "g2", "C0000005"),
        ("d2", "B", 5, 15, "g2", "C0000001"),
        ("d2", "B", 8, 9, "g2", None),
        ("d1", "C", 0, 20, "g1", "C0000002"),
        ("d1", "C", 30, 40, "g2", "C0000003"),
        ("d1", "C", 30, 40, None, "C0000005"),
        ("d2", "C", 5, 15, "g2", "C0000004"),
    ]
    anns = [Annotation(d, s, b, e, group=g, cui=c) for d, s, b, e, g, c in spans]
    return AnnotationStore(docs, anns, group_universe=("g1", "g2"))


def per_call_cui_eval(store, operands, level, seed, group):
    """Concept scores built from each document's spans of the group, gold and
    every operand rebuilt per call, the operands always merged."""
    gold, pred = {}, {}
    for doc in store.documents:
        gold_anns = store.annotations_for(GOLD_SOURCE, doc.doc_id, group)
        operand_anns = [store.annotations_for(s, doc.doc_id, group) for s in operands]
        if level == "doc":
            gold[doc.doc_id] = {a.cui for a in gold_anns if a.cui}
            pred[doc.doc_id] = {a.cui for anns in operand_anns for a in anns if a.cui}
            continue
        gold_seed = seeds.digest(seed, "gold-layer")
        gold[doc.doc_id] = to_cui_mask(gold_anns, doc.doc_id, doc.length, gold_seed)
        layers = [
            to_cui_mask(anns, doc.doc_id, doc.length, seeds.digest(seed, "layer", s))
            for s, anns in zip(operands, operand_anns)
        ]
        pred[doc.doc_id] = merge_cui_layers(layers, seed)
    return (doc_level_cui_prf if level == "doc" else mention_level_cui_prf)(gold, pred)


@pytest.mark.parametrize("level", ["doc", "mention"])
def test_cui_scores_build_once_per_group(level):
    store = overlapping_cui_store()
    tree = parse("((A|B)|C)")
    for group in ("g1", "g2", ALL_GROUPS):
        for seed in (0, 3):
            ensemble, singles = cui_scores(store, tree, GOLD_SOURCE, level, seed, group)
            assert list(singles) == ["A", "B", "C"]
            assert ensemble == cui_scores(store, tree, GOLD_SOURCE, level, seed, group)[0]
            assert ensemble == per_call_cui_eval(store, ["A", "B", "C"], level, seed, group)
            for source, single in singles.items():
                leaf = Leaf(source)
                assert single == cui_scores(store, leaf, GOLD_SOURCE, level, seed, group)[0]
                assert single == per_call_cui_eval(store, [source], level, seed, group)
    assert cui_scores(store, tree, GOLD_SOURCE, level, 0, "g1")[0].per_label
