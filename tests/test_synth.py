import pytest

from span_ensembles import (
    SourceSpec,
    SynthSpec,
    ValidationError,
    char_prf,
    corpus_masks,
    disambiguate_overlaps,
    generate,
)
from span_ensembles.model import GOLD_SOURCE


def spec_with(sources, **kwargs):
    defaults = dict(n_docs=8, doc_length=400, sources=sources, seed=11)
    defaults.update(kwargs)
    return SynthSpec(**defaults)


def test_identity_configuration_scores_one():
    spec = spec_with((SourceSpec("A"), SourceSpec("B")))
    store = generate(spec)
    gold = corpus_masks(store, GOLD_SOURCE)
    for name in ("A", "B"):
        result = char_prf(gold, corpus_masks(store, name))
        assert result.precision == result.recall == result.f1 == 1.0


def test_full_correlation_makes_sources_identical():
    spec = spec_with(
        (SourceSpec("A", 0.4, 2.0, 1), SourceSpec("B", 0.4, 2.0, 1)),
        error_correlation=1.0,
        cui_vocab=5,
    )
    store = generate(spec)
    a = [(x.doc_id, x.begin, x.end, x.group, x.cui) for x in store.annotations if x.source == "A"]
    b = [(x.doc_id, x.begin, x.end, x.group, x.cui) for x in store.annotations if x.source == "B"]
    assert a == b


def test_same_seed_reproduces_store():
    spec = spec_with((SourceSpec("A", 0.3, 1.5, 2),), cui_vocab=10, span_len_min=4)
    first = generate(spec)
    second = generate(spec)
    assert first.annotations == second.annotations
    assert first.documents == second.documents


def test_different_seed_changes_output():
    base = spec_with((SourceSpec("A", 0.3),))
    other = spec_with((SourceSpec("A", 0.3),), seed=12)
    assert generate(base).annotations != generate(other).annotations


def test_miss_rate_monotone_in_recall():
    recalls = []
    for miss in (0.0, 0.2, 0.4, 0.6, 0.8):
        spec = spec_with((SourceSpec("A", miss_rate=miss),), n_docs=20)
        store = generate(spec)
        gold = corpus_masks(store, GOLD_SOURCE)
        recalls.append(char_prf(gold, corpus_masks(store, "A")).recall)
    assert all(recalls[i] >= recalls[i + 1] for i in range(len(recalls) - 1))


def test_generated_store_survives_disambiguation():
    spec = spec_with(
        (SourceSpec("A", 0.2, 3.0, 1), SourceSpec("B", 0.1, 5.0, 2)),
        span_len_min=4,
        n_docs=10,
    )
    store = generate(spec)
    policy = spec.seed
    for name in ("A", "B"):
        for doc_id in store.doc_ids:
            anns = store.annotations_for(name, doc_id)
            kept = disambiguate_overlaps(anns, policy)
            assert set(kept) <= set(anns)
            by_group: dict = {}
            for ann in kept:
                by_group.setdefault(ann.group, []).append(ann)
            for group_anns in by_group.values():
                spans = sorted((a.begin, a.end) for a in group_anns)
                assert all(spans[i][1] <= spans[i + 1][0] for i in range(len(spans) - 1))


def test_annotations_respect_document_bounds():
    spec = spec_with((SourceSpec("A", 0.1, 4.0, 2),), span_len_min=3, n_docs=15)
    store = generate(spec)
    for ann in store.annotations:
        assert 0 <= ann.begin < ann.end <= spec.doc_length


def test_infeasible_density_rejected():
    with pytest.raises(ValidationError, match="infeasible"):
        generate(
            SynthSpec(
                n_docs=1,
                doc_length=100,
                sources=(SourceSpec("A"),),
                span_density=200.0,
                span_len_min=8,
                span_len_max=10,
            )
        )


def test_jitter_bound_enforced():
    with pytest.raises(ValidationError, match="jitter"):
        generate(spec_with((SourceSpec("A", jitter=3),), span_len_min=3))


def test_bad_rates_rejected():
    with pytest.raises(ValidationError):
        generate(spec_with((SourceSpec("A", miss_rate=1.5),)))
    with pytest.raises(ValidationError):
        generate(spec_with((SourceSpec("A"),), error_correlation=-0.1))


def test_cui_vocab_assigns_valid_ids():
    spec = spec_with((SourceSpec("A"),), cui_vocab=7)
    store = generate(spec)
    cuis = {a.cui for a in store.annotations}
    assert all(c is not None and c.startswith("C") and len(c) == 8 for c in cuis)
    assert len(cuis) <= 7


def test_union_recall_matches_independence_formula():
    # two independent sources, each missing half the gold spans: the union
    # covers 1 - 0.5^2 = 75% of gold characters in expectation
    spec = SynthSpec(
        n_docs=200,
        doc_length=2000,
        sources=(SourceSpec("A", miss_rate=0.5), SourceSpec("B", miss_rate=0.5)),
        span_density=50.0,
        span_len_min=3,
        span_len_max=9,
        error_correlation=0.0,
        seed=3,
    )
    store = generate(spec)  # 200 docs x 100 spans = 20k gold spans
    gold = corpus_masks(store, GOLD_SOURCE)
    from span_ensembles import evaluate_expression, parse

    union_recall = evaluate_expression(store, parse("(A|B)"), GOLD_SOURCE).recall
    assert union_recall == pytest.approx(0.75, abs=0.01)
    single = char_prf(gold, corpus_masks(store, "A")).recall
    assert single == pytest.approx(0.5, abs=0.01)
