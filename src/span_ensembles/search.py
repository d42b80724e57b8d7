"""Grid search over the ensemble space and the derived evaluation tasks.

The search evaluates every distinct read-once combination of the configured
sources (or a seeded stratified sample of them) against the gold standard,
then reports top-k lists per metric, the precision/recall Pareto set,
single-system baselines, and the ensembles that beat every single system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from typing import Mapping, Optional, Sequence

import numpy as np

from . import seeds
from .complementarity import comp_rate_from_counts
from .errors import ConfigError, ValidationError
from .expr import (
    SEMANTIC,
    ExprTree,
    Leaf,
    assert_union_only,
    enumerate_ensembles,
    evaluate,
    pattern_columns,
    to_string,
    tree_size,
    tree_sources,
)
from .masks import CharMask, coverage, cui_mask, majority_vote, merge_cui_layers
from .metrics import (
    CuiMetricsResult,
    MetricsResult,
    confusion_counts,
    doc_level_cui_prf,
    mention_level_cui_prf,
)
from .model import ALL_GROUPS, AnnotationStore, DocumentRef, check_group

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"

DOC_LEVEL = "doc"
MENTION_LEVEL = "mention"


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one grid search run.

    Singleton expressions are always evaluated (they anchor the baselines);
    in SAMPLED mode the budget is spent on the remaining size strata.
    """

    sources: tuple[str, ...]
    group: str = ALL_GROUPS
    min_size: int = 1
    max_size: Optional[int] = None
    mode: str = EXHAUSTIVE
    sample_budget: Optional[int] = None
    seed: int = 0
    top_k: int = 10
    beat_singles_f1_only: bool = False

    def __post_init__(self):
        if self.top_k < 1:
            raise ConfigError("top_k must be >= 1")
        if self.mode not in (EXHAUSTIVE, SAMPLED):
            raise ConfigError(f"unknown search mode {self.mode!r}")
        if self.mode == SAMPLED and (self.sample_budget is None or self.sample_budget < 1):
            raise ConfigError("sampled mode needs a sample budget >= 1")


@dataclass(frozen=True)
class ScoredEnsemble:
    expression: str
    size: int
    metrics: MetricsResult


@dataclass(frozen=True)
class SearchResult:
    """Ranked views over the evaluated ensemble space.

    Every expression string re-parses and re-evaluates to its reported
    counts; the Pareto set keeps ensembles no other ensemble beats strictly
    on both precision and recall.
    """

    group: str
    by_f1: tuple[ScoredEnsemble, ...]
    by_precision: tuple[ScoredEnsemble, ...]
    by_recall: tuple[ScoredEnsemble, ...]
    pareto: tuple[ScoredEnsemble, ...]
    singles: Mapping[str, MetricsResult]
    beating_all_singles: tuple[ScoredEnsemble, ...]
    evaluated: tuple[ScoredEnsemble, ...] = field(repr=False)


def _require_sources(store: AnnotationStore, *sources: str) -> None:
    for source in sources:
        if source not in store.sources:
            raise ConfigError(f"source {source!r} not present in the store")


def _doc_coverage(
    store: AnnotationStore, doc: DocumentRef, rows: Sequence[tuple[str, str]]
) -> np.ndarray:
    """Coverage of one document by each (source, group) row: a boolean
    (len(rows), doc.length) matrix, read from the store's checked columns."""
    spans = store.columns
    picks = [store.rows(source, doc.doc_id, group) for source, group in rows]
    return coverage([(spans.begin[p], spans.end[p]) for p in picks], doc.length)


def _doc_mask(store: AnnotationStore, source: str, doc: DocumentRef, group: str) -> CharMask:
    """Coverage of one document by one source's spans of ``group``."""
    return CharMask(doc.doc_id, _doc_coverage(store, doc, [(source, group)])[0])


def _count_table(store: AnnotationStore, rows: Sequence[tuple[str, str]]) -> np.ndarray:
    """Characters counted by gold bit g and coverage pattern p, ``H[g][p]``:
    ``rows`` are (source, group) pairs, gold last, and bit j of p is set where
    ``rows[j]`` covers the character.  Built one document at a time."""
    for _, group in rows:
        check_group(store, group)
    weights = 1 << np.arange(len(rows))
    table = np.zeros(2 ** len(rows), dtype=np.int64)
    for doc in store.documents:
        covered = _doc_coverage(store, doc, rows)
        table += np.bincount(weights @ covered, minlength=table.size)
    return table.reshape(2, -1)


@lru_cache(maxsize=1)
def _ensemble_space(pool: tuple[str, ...], min_size: int, max_size: int):
    """Expression strings, sizes and truth tables (over the 2^k patterns) of the
    search space; cached, since only the scoring depends on the group."""
    trees = enumerate_ensembles(pool, min_size, max_size, SEMANTIC)
    if min_size > 1:
        trees = [Leaf(s) for s in pool] + trees
    columns = pattern_columns(pool)
    tables = np.array([evaluate(t, columns) for t in trees])
    tables.flags.writeable = False
    return tuple(map(to_string, trees)), tuple(map(tree_size, trees)), tables


def _pareto_front(scored: Sequence[ScoredEnsemble]) -> tuple[ScoredEnsemble, ...]:
    """Ensembles not strictly dominated in both precision and recall: walking
    precision downwards, an item is kept unless a higher tier beats its recall."""
    ordered = sorted(scored, key=lambda s: (-s.metrics.precision, -s.metrics.recall, s.expression))
    front = []
    higher_recall = -1.0  # best recall among strictly higher precisions
    for _, tier in groupby(ordered, key=lambda s: s.metrics.precision):
        tier = list(tier)
        front.extend(s for s in tier if s.metrics.recall >= higher_recall)
        higher_recall = max(higher_recall, tier[0].metrics.recall)
    return tuple(front)


def _stratified_sample(
    rows: list[int], size_of: Sequence[int], budget: int, seed: int
) -> list[int]:
    """Seeded uniform sample without replacement of ``rows``, stratified by
    ensemble size with quotas proportional to stratum size (largest remainder)."""
    total = len(rows)
    if budget >= total:
        return rows
    strata: dict[int, list[int]] = {}
    for row in rows:
        strata.setdefault(size_of[row], []).append(row)
    sizes = sorted(strata)
    quotas = {k: budget * len(strata[k]) // total for k in sizes}
    remainders = sorted(
        sizes,
        key=lambda k: (-(budget * len(strata[k]) % total), k),
    )
    leftover = budget - sum(quotas.values())
    for k in remainders:
        if leftover <= 0:
            break
        if quotas[k] < len(strata[k]):
            quotas[k] += 1
            leftover -= 1
    sampled: list[int] = []
    for k in sizes:
        pool = strata[k]
        quota = min(quotas[k], len(pool))
        if quota == len(pool):
            sampled.extend(pool)
        else:
            rng = seeds.derive_rng(seed, "sample", k)
            sampled.extend(pool[i] for i in sorted(rng.sample(range(len(pool)), quota)))
    return sampled


def grid_search(
    store: AnnotationStore, gold_source: str, config: SearchConfig
) -> SearchResult:
    """Evaluate the Boolean combination space of ``config.sources`` against
    the gold source, restricted to ``config.group``."""
    _require_sources(store, gold_source, *config.sources)
    if len(set(config.sources)) != len(config.sources):
        raise ConfigError("duplicate sources in search config")
    max_size = config.max_size if config.max_size is not None else len(config.sources)
    pool = tuple(sorted(config.sources))

    counts = _count_table(store, [(s, config.group) for s in (*pool, gold_source)])
    expressions, sizes, tables = _ensemble_space(pool, config.min_size, max_size)
    rows = list(range(len(sizes)))
    if config.mode == SAMPLED:
        singles = [i for i in rows if sizes[i] == 1]
        rest = [i for i in rows if sizes[i] > 1]
        rows = singles + _stratified_sample(rest, sizes, config.sample_budget, config.seed)

    n_gold = int(counts[1].sum())
    scored = [
        ScoredEnsemble(expressions[i], sizes[i], MetricsResult.from_counts(tp, fp, n_gold - tp))
        for i, (fp, tp) in zip(rows, (tables[rows] @ counts.T).tolist())
    ]

    def ranked(metric: str) -> tuple[ScoredEnsemble, ...]:
        ordered = sorted(scored, key=lambda s: (-getattr(s.metrics, metric), s.expression))
        return tuple(ordered[: config.top_k])

    singles_map = {s.expression: s.metrics for s in scored if s.size == 1}

    def beats_all(item: ScoredEnsemble) -> bool:
        m = item.metrics
        if config.beat_singles_f1_only:
            return all(m.f1 > s.f1 for s in singles_map.values())
        return all(
            m.f1 > s.f1 and m.precision > s.precision and m.recall > s.recall
            for s in singles_map.values()
        )

    beating = tuple(
        sorted(
            (s for s in scored if beats_all(s)),
            key=lambda s: (-s.metrics.f1, s.expression),
        )
    )
    return SearchResult(
        group=config.group,
        by_f1=ranked("f1"),
        by_precision=ranked("precision"),
        by_recall=ranked("recall"),
        pareto=_pareto_front(scored),
        singles=dict(sorted(singles_map.items())),
        beating_all_singles=beating,
        evaluated=tuple(scored),
    )


def corpus_masks(
    store: AnnotationStore, source: str, group: str = ALL_GROUPS
) -> dict[str, CharMask]:
    """Per-document coverage masks for one source, optionally group-filtered."""
    check_group(store, group)
    return {doc.doc_id: _doc_mask(store, source, doc, group) for doc in store.documents}


def evaluate_expression(
    store: AnnotationStore, tree: ExprTree, gold_source: str, group: str = ALL_GROUPS
) -> MetricsResult:
    """Score one Boolean combination against gold at character level."""
    sources = tree_sources(tree)
    _require_sources(store, gold_source, *sources)
    counts = _count_table(store, [(s, group) for s in (*sources, gold_source)])
    fp, tp = counts[:, evaluate(tree, pattern_columns(sources))].sum(axis=1).tolist()
    return MetricsResult.from_counts(tp, fp, int(counts[1].sum()) - tp)


def complementarity_scores(
    store: AnnotationStore, sources: Sequence[str], gold_source: str, group: str = ALL_GROUPS
) -> dict[tuple[str, str], tuple[float, MetricsResult]]:
    """Complementary rate and restricted PRF of every ordered pair (A, B) of
    distinct sources, from one count table over (sources..., gold).  B is
    scored on A's errors, the characters whose A bit differs from gold; B's
    fp and fn there are the errors A and B share."""
    _require_sources(store, gold_source, *sources)
    counts = _count_table(store, [(s, group) for s in (*sources, gold_source)])
    columns = pattern_columns(sources)
    scores = {}
    for a in sources:
        # the table restricted to A's errors: gold 0 with A's bit set, gold 1 without
        on_errors = counts * np.stack([columns[a], ~columns[a]])
        for b in sources:
            if b == a:
                continue
            fp, tp = on_errors[:, columns[b]].sum(axis=1).tolist()
            fn = int(on_errors[1].sum()) - tp
            rate = comp_rate_from_counts(fp + fn, int(on_errors.sum()))
            scores[a, b] = (rate, MetricsResult.from_counts(tp, fp, fn))
    return scores


def cross_group_union_merge(
    store: AnnotationStore, assignments: Mapping[str, str], gold_source: str
) -> MetricsResult:
    """Union the group-filtered annotations of per-group assigned sources and
    score the merge against the unfiltered (all-groups) gold standard.  In the
    count table over those (source, group) rows, every pattern with a system
    bit set is predicted."""
    if not assignments:
        raise ConfigError("no group assignments given")
    universe = store.group_universe
    pairs = sorted(assignments.items())
    for group, source in pairs:
        if universe and group not in universe:
            raise ConfigError(f"unknown group {group!r}")
        _require_sources(store, source)
        if not any(store.columns.begin[store.rows(source, d, group)].size for d in store.doc_ids):
            raise ConfigError(f"source {source!r} has no annotations for group {group!r}")
    rows = [(source, group) for group, source in pairs]
    counts = _count_table(store, [*rows, (gold_source, ALL_GROUPS)])
    fp, tp = counts[:, 1:].sum(axis=1).tolist()
    return MetricsResult.from_counts(tp, fp, int(counts[1, 0]))


def majority_vote_eval(
    store: AnnotationStore,
    sources: Sequence[str],
    gold_source: str,
    group: str = ALL_GROUPS,
    seed: int = 0,
) -> MetricsResult:
    """Score the per-character majority vote of the given sources."""
    if len(sources) < 2:
        raise ValidationError("majority vote needs at least 2 sources")
    _require_sources(store, gold_source, *sources)
    check_group(store, group)
    totals = np.zeros(3, dtype=np.int64)
    for doc in store.documents:
        *masks, gold = _doc_coverage(store, doc, [(s, group) for s in (*sources, gold_source)])
        voted = majority_vote([CharMask(doc.doc_id, bits) for bits in masks], seed)
        totals += confusion_counts(gold, voted.bits)
    return MetricsResult.from_counts(*totals.tolist())


def cui_scores(
    store: AnnotationStore,
    tree: ExprTree,
    gold_source: str,
    level: str = DOC_LEVEL,
    seed: int = 0,
    group: str = ALL_GROUPS,
) -> tuple[CuiMetricsResult, dict[str, CuiMetricsResult]]:
    """Concept-matching scores of a union-only ensemble and of each operand alone.

    Document level: the predicted concept set per document is the union of
    the operands' sets.  Mention level: operand concept masks are merged via
    the majority / longest-span / seeded cascade, then scored per character.
    Gold and every operand are built once; a single operand is scored from
    its own layer, which is what merging one layer gives.  Intersection
    nodes are rejected: their concept semantics are undefined.
    """
    assert_union_only(tree)
    operands = tree_sources(tree)
    _require_sources(store, gold_source, *operands)
    check_group(store, group)
    if level not in (DOC_LEVEL, MENTION_LEVEL):
        raise ConfigError(f"unknown level {level!r}; expected 'doc' or 'mention'")

    spans = store.columns

    def concept_spans(source, doc):
        """(begin, end, cui code) of one source's spans of ``group`` in ``doc``."""
        picked = store.rows(source, doc.doc_id, group)
        return zip(*(col[picked].tolist() for col in (spans.begin, spans.end, spans.cui)))

    if level == DOC_LEVEL:
        def build(source, doc, *_):
            return {spans.cuis[c] for _, _, c in concept_spans(source, doc) if c}

        def merge(sets):
            return set().union(*sets)

        score = doc_level_cui_prf
    else:
        def build(source, doc, *key):
            entries = [
                (b, e, spans.cuis[c], e - b) for b, e, c in concept_spans(source, doc) if c
            ]
            return cui_mask(entries, doc.doc_id, doc.length, seeds.digest(seed, *key))

        def merge(layers):
            return merge_cui_layers(layers, seed)

        score = mention_level_cui_prf
    docs = store.documents
    gold = {doc.doc_id: build(gold_source, doc, "gold-layer") for doc in docs}
    preds = {s: {doc.doc_id: build(s, doc, "layer", s) for doc in docs} for s in operands}
    singles = {source: score(gold, preds[source]) for source in operands}
    if len(operands) == 1:
        return singles[operands[0]], singles
    ensemble = {doc.doc_id: merge([preds[s][doc.doc_id] for s in operands]) for doc in docs}
    return score(gold, ensemble), singles


def cui_ensemble_eval(
    store: AnnotationStore,
    tree: ExprTree,
    gold_source: str,
    level: str = DOC_LEVEL,
    seed: int = 0,
    group: str = ALL_GROUPS,
) -> CuiMetricsResult:
    """Concept-matching score of a union-only ensemble (see :func:`cui_scores`)."""
    return cui_scores(store, tree, gold_source, level, seed, group)[0]
