"""Grid search over the ensemble space and the other evaluation tasks.

The search evaluates every distinct read-once combination of the configured
sources (or a seeded stratified sample of them) against the gold standard,
then reports top-k lists per metric, the precision/recall Pareto set,
single-system baselines, and the ensembles that beat every single system.
Its space is one walk of :func:`~span_ensembles.expr.read_once_space`, which
folds each ensemble's truth table as an int, one bit per pattern, no tree.

Every task walks the store's documents in blocks of at most
:data:`BLOCK_CHARS` characters, laid end to end, so its per-character
arrays never outgrow a block (or the one document longer than it) and no
task loops over documents or spans in Python.  Character scores come from
count tables built by one boundary sweep per block; majority vote reads the
same coverage patterns, and concept layers resolve a block at a time.

Every character score is taken the same way: tp and fp of a truth table
come from its product with the count table, taken :data:`SCORE_CELLS`
cells at a time, and the metrics from ``metrics.prf`` and
``metrics.metrics_rows``.  The search ranks on the float arrays.  Ties
break on each expression string's sort rank, cached with the space.  A
``MetricsResult`` is built only for the rows a result reports, in one
call, so a :class:`SearchResult` holds exactly what its reports show.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterator, Mapping, Optional

import numpy as np

from . import seeds
from .complementarity import comp_rate_from_counts
from .errors import ConfigError, ValidationError
from .expr import (
    AND,
    OR,
    SEMANTIC,
    ExprTree,
    assert_union_only,
    check_search_space,
    evaluate,
    pattern_columns,
    pattern_tables,
    read_once_space,
    tree_sources,
)
from .masks import CharMask, Runs, _resolve_candidates, coverage_patterns, keyed_picks, locate
from .metrics import (CuiMetricsResult, MetricsResult, confusion_counts, label_counts,
                      metrics_rows, prf)
from .model import ALL_GROUPS, AnnotationStore, check_group

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"

DOC_LEVEL = "doc"
MENTION_LEVEL = "mention"

# Most characters in one block of documents; a longer document is a block alone.
BLOCK_CHARS = 2**16

# Most truth-table cells scored in one matrix product (8 MB once cast to int64).
SCORE_CELLS = 2**20

# Most cells of a count table (gold and 25 systems): two int64 arrays of it fill 1 GiB.
MAX_TABLE_CELLS = 2**26


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
    """Ranked views over the evaluated ensemble space: what a report shows.

    Every expression string re-parses and re-evaluates to its reported
    counts; the Pareto set keeps ensembles no other ensemble beats strictly
    on both precision and recall.  Only the rows some view or ``singles``
    shows are built; a ``top_k`` of the space's size ranks every scored row
    in ``by_f1``.
    """

    group: str
    by_f1: tuple[ScoredEnsemble, ...]
    by_precision: tuple[ScoredEnsemble, ...]
    by_recall: tuple[ScoredEnsemble, ...]
    pareto: tuple[ScoredEnsemble, ...]
    singles: Mapping[str, MetricsResult]
    beating_all_singles: tuple[ScoredEnsemble, ...]


def _require_sources(store: AnnotationStore, *sources: str) -> None:
    for source in sources:
        if source not in store.sources:
            raise ConfigError(f"source {source!r} not present in the store")


@dataclass(frozen=True)
class _Block:
    """Documents ``first`` to ``stop - 1`` of a store laid end to end:
    document ``first + i`` starts at ``starts[i]``, and ``starts`` ends with
    the block's length."""

    store: AnnotationStore
    first: int
    stop: int
    starts: np.ndarray

    @property
    def length(self) -> int:
        return int(self.starts[-1])

    @property
    def doc_ids(self) -> tuple[str, ...]:
        return self.store.doc_ids[self.first : self.stop]

    def spans(self, source: str, group: str) -> tuple:
        """(rows, begins, ends) of one source's spans of ``group`` in the
        block: their rows in the store's columns, in store order (so sorted by
        begin), and their offsets shifted to the block."""
        rows = self.store.span_rows(source, self.first, self.stop, group)
        columns = self.store.columns
        shift = self.starts[columns.doc_id[rows] - self.first]
        return rows, columns.begin[rows] + shift, columns.end[rows] + shift

    def patterns(self, rows: Sequence[tuple[str, str]]) -> np.ndarray:
        """Coverage pattern of each character by the (source, group) ``rows``:
        bit j is set where ``rows[j]`` covers it."""
        return coverage_patterns([self.spans(s, g)[1:] for s, g in rows], self.length)


def _blocks(store: AnnotationStore) -> Iterator[_Block]:
    """The store's documents in order, in blocks of at most :data:`BLOCK_CHARS`
    characters; a longer document is a block of its own."""
    ends = np.concatenate(([0], np.cumsum(store.doc_lengths)))
    first = 0
    while first < len(store.doc_ids):
        fits = int(np.searchsorted(ends, ends[first] + BLOCK_CHARS, side="right")) - 1
        stop = max(fits, first + 1)
        yield _Block(store, first, stop, ends[first : stop + 1] - ends[first])
        first = stop


def _check_table_size(systems: int) -> None:
    """Refuse a count table over ``systems`` systems and gold of more than
    :data:`MAX_TABLE_CELLS` cells, before anything of its size exists."""
    cells = 2 ** (systems + 1)
    if cells > MAX_TABLE_CELLS:
        raise ConfigError(
            f"{systems} systems and gold make a count table of {cells:,} cells, "
            f"more than {MAX_TABLE_CELLS:,}"
        )


def _count_table(store: AnnotationStore, rows: Sequence[tuple[str, str]]) -> np.ndarray:
    """Characters counted by gold bit g and coverage pattern p, ``H[g][p]``,
    in one pass over the blocks: ``rows`` are (source, group) pairs, gold
    last, and bit j of p is set where ``rows[j]`` covers the character."""
    _check_table_size(len(rows) - 1)
    for _, group in rows:
        check_group(store, group)
    table = np.zeros(2 ** len(rows), dtype=np.int64)
    for block in _blocks(store):
        table += np.bincount(block.patterns(rows), minlength=table.size)
    return table.reshape(2, -1)


@lru_cache(maxsize=1)
def _ensemble_space(pool: tuple[str, ...], min_size: int, max_size: int):
    """Expression strings, sizes, truth tables (over the 2^k patterns) and
    string sort ranks of the search space; cached, since only the scoring
    depends on the group.  The walk holds each table as an int, one bit per
    pattern, unpacked to one byte per pattern :data:`SCORE_CELLS` cells at
    a time."""
    ints = pattern_tables(pool)
    space = read_once_space(pool, min_size, max_size, SEMANTIC, ints.__getitem__,
                            {AND: operator.and_, OR: operator.or_})
    if min_size > 1:
        space = [(1, s, ints[s]) for s in pool] + space
    sizes, expressions, values = zip(*space)
    width = 2 ** len(pool)
    step, nbytes = max(1, SCORE_CELLS // width), max(1, width // 8)
    tables = np.empty((len(space), width), dtype=bool)
    for lo in range(0, len(space), step):
        packed = b"".join(v.to_bytes(nbytes, "little") for v in values[lo : lo + step])
        bits = np.frombuffer(packed, dtype=np.uint8).reshape(-1, nbytes)
        tables[lo : lo + step] = np.unpackbits(bits, axis=1, count=width, bitorder="little")
    rank = np.empty(len(expressions), dtype=np.int64)
    rank[sorted(range(len(expressions)), key=expressions.__getitem__)] = np.arange(len(expressions))
    for array in (tables, rank):
        array.flags.writeable = False
    return expressions, sizes, tables, rank


def _score(tables: np.ndarray, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """fp and tp (the columns) of the truth tables ``rows`` over the count
    table, :data:`SCORE_CELLS` table cells at a time: the product casts the
    bool tables to int64, so a block's copy never outgrows 8 bytes a cell."""
    step = max(1, SCORE_CELLS // tables.shape[1])
    scores = np.empty((len(rows), 2), dtype=np.int64)
    for lo in range(0, len(rows), step):
        scores[lo : lo + step] = tables[rows[lo : lo + step]] @ counts.T
    return scores


def _table_metrics(truths: Sequence[np.ndarray], counts: np.ndarray) -> list[MetricsResult]:
    """The metrics of each truth table (a bool array over the patterns) in
    ``truths``, which may be none, over the count table."""
    tables = np.array(truths, dtype=bool).reshape(len(truths), counts.shape[1])
    fp, tp = _score(tables, np.arange(len(truths)), counts).T
    return metrics_rows(tp, fp, counts[1].sum() - tp)


def _pareto_front(precision: np.ndarray, recall: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Indices of the items no other item beats strictly in both precision
    and recall, by descending precision, then recall, then rank: walking the
    precision tiers downwards, an item is kept unless a higher tier beats
    its recall."""
    order = np.lexsort((rank, -recall, -precision))
    p, r = precision[order], recall[order]
    new_tier = np.ones(len(p), dtype=bool)
    new_tier[1:] = p[1:] != p[:-1]
    tier_start = np.maximum.accumulate(np.where(new_tier, np.arange(len(p)), 0))
    # best recall among strictly higher precisions: everything before the tier
    higher = np.concatenate(([-1.0], np.maximum.accumulate(r)))[tier_start]
    return order[r >= higher]


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
    # each quota is below its stratum (budget < total), and fewer seats are
    # left than there are strata: the largest remainders take one each
    leftover = budget - sum(quotas.values())
    for k in sorted(sizes, key=lambda k: (-(budget * len(strata[k]) % total), k))[:leftover]:
        quotas[k] += 1
    sampled: list[int] = []
    for k in sizes:
        pool, quota = strata[k], quotas[k]
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
    check_search_space(len(pool), config.min_size, max_size)

    counts = _count_table(store, [(s, config.group) for s in (*pool, gold_source)])
    expressions, sizes, tables, space_rank = _ensemble_space(pool, config.min_size, max_size)
    rows = list(range(len(sizes)))
    if config.mode == SAMPLED:
        singles = [i for i in rows if sizes[i] == 1]
        rest = [i for i in rows if sizes[i] > 1]
        rows = singles + _stratified_sample(rest, sizes, config.sample_budget, config.seed)
    rows = np.array(rows, dtype=np.int64)

    n_gold = int(counts[1].sum())
    fp, tp = _score(tables, rows, counts).T
    precision, recall, f1 = prf(tp, fp, n_gold - tp)
    rank = space_rank[rows]

    def ranked(metric: np.ndarray) -> np.ndarray:
        return np.lexsort((rank, -metric))[: config.top_k]

    single = np.flatnonzero(np.array(sizes)[rows] == 1)
    beats = f1 > f1[single].max(initial=-np.inf)
    if not config.beat_singles_f1_only:
        beats &= precision > precision[single].max(initial=-np.inf)
        beats &= recall > recall[single].max(initial=-np.inf)
    beating = np.flatnonzero(beats)
    views = {
        "by_f1": ranked(f1),
        "by_precision": ranked(precision),
        "by_recall": ranked(recall),
        "pareto": _pareto_front(precision, recall, rank),
        "beating_all_singles": beating[np.lexsort((rank[beating], -f1[beating]))],
    }
    # one ScoredEnsemble per reported row, shared by every view showing it
    reported = np.unique(np.concatenate([single, *views.values()])).tolist()
    metrics = metrics_rows(tp[reported], fp[reported], n_gold - tp[reported])
    shown = {i: ScoredEnsemble(expressions[rows[i]], sizes[rows[i]], m)
             for i, m in zip(reported, metrics)}
    singles_map = {shown[i].expression: shown[i].metrics for i in single.tolist()}
    return SearchResult(
        group=config.group,
        singles=dict(sorted(singles_map.items())),
        **{name: tuple(shown[i] for i in order.tolist()) for name, order in views.items()},
    )


def corpus_masks(
    store: AnnotationStore, source: str, group: str = ALL_GROUPS
) -> dict[str, CharMask]:
    """Per-document coverage masks for one source, optionally group-filtered."""
    check_group(store, group)
    masks = {}
    for block in _blocks(store):
        bits = block.patterns([(source, group)]) > 0
        bounds = zip(block.doc_ids, block.starts[:-1].tolist(), block.starts[1:].tolist())
        masks.update((doc_id, CharMask(doc_id, bits[lo:hi])) for doc_id, lo, hi in bounds)
    return masks


def evaluate_expression(
    store: AnnotationStore, tree: ExprTree, gold_source: str, group: str = ALL_GROUPS
) -> MetricsResult:
    """Score one Boolean combination against gold at character level."""
    sources = tree_sources(tree)
    _require_sources(store, gold_source, *sources)
    counts = _count_table(store, [(s, group) for s in (*sources, gold_source)])
    return _table_metrics([evaluate(tree, pattern_columns(sources))], counts)[0]


def complementarity_scores(
    store: AnnotationStore, sources: Sequence[str], gold_source: str, group: str = ALL_GROUPS
) -> dict[tuple[str, str], tuple[float, MetricsResult]]:
    """Complementary rate and restricted PRF of every ordered pair (A, B) of
    distinct sources, from one count table over (sources..., gold).  B is
    scored on A's errors, the characters whose A bit differs from gold; B's
    fp and fn there are the errors A and B share."""
    if len(sources) < 2:
        raise ValidationError("complementarity needs at least 2 systems")
    _require_sources(store, gold_source, *sources)
    counts = _count_table(store, [(s, group) for s in (*sources, gold_source)])
    columns = pattern_columns(sources)
    scores = {}
    for a in sources:
        # the table restricted to A's errors: gold 0 with A's bit set, gold 1 without
        on_errors = counts * np.stack([columns[a], ~columns[a]])
        others = [b for b in sources if b != a]
        errors = int(on_errors.sum())
        for b, m in zip(others, _table_metrics([columns[b] for b in others], on_errors)):
            scores[a, b] = (comp_rate_from_counts(m.fp + m.fn, errors), m)
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
        if not store.columns.begin[store.span_rows(source, 0, len(store.doc_ids), group)].size:
            raise ConfigError(f"source {source!r} has no annotations for group {group!r}")
    rows = [(source, group) for group, source in pairs]
    counts = _count_table(store, [*rows, (gold_source, ALL_GROUPS)])
    return _table_metrics([np.arange(counts.shape[1]) > 0], counts)[0]


def majority_vote_eval(
    store: AnnotationStore,
    sources: Sequence[str],
    gold_source: str,
    group: str = ALL_GROUPS,
    seed: int = 0,
) -> MetricsResult:
    """Score the per-character majority vote of the given sources.

    Characters that more (fewer) than half the sources cover are counted
    from their coverage patterns; each exact tie (k even) draws its seeded
    coin, keyed on (seed, doc, character index in the doc)."""
    if len(sources) < 2:
        raise ValidationError("majority vote needs at least 2 sources")
    _check_table_size(len(sources))
    _require_sources(store, gold_source, *sources)
    check_group(store, group)
    k = len(sources)
    rows = [(s, group) for s in (*sources, gold_source)]
    votes = np.array([bin(p).count("1") for p in range(2**k)])  # by system pattern
    tie = np.tile(votes * 2 == k, 2)  # by pattern, gold bit included

    # a function of its own, so a block's patterns are freed before the next block is swept
    def block_counts(block: _Block) -> tuple[np.ndarray, tuple[int, int, int]]:
        """The block's count table, and tp/fp/fn of its tie characters."""
        patterns = block.patterns(rows)
        tied = np.flatnonzero(tie[patterns])
        coins = keyed_picks(2, seed, block.starts, block.doc_ids, tied) == 1
        table = np.bincount(patterns, minlength=2 ** (k + 1))
        return table, confusion_counts(patterns[tied] >> k == 1, coins)

    table = np.zeros(2 ** (k + 1), dtype=np.int64)
    totals = np.zeros(3, dtype=np.int64)
    for block in _blocks(store):
        block_table, tie_totals = block_counts(block)
        table += block_table
        totals += tie_totals
    table = table.reshape(2, -1)
    wins, losses = votes * 2 > k, votes * 2 < k
    totals += [table[1, wins].sum(), table[0, wins].sum(), table[1, losses].sum()]
    return MetricsResult.from_counts(*totals.tolist())


def _doc_level_counts(block: _Block, gold: Runs, operands: list[Runs], size: int):
    """tp/fp/fn per concept (a (3, size) array) of each operand and of their
    union, against gold, with documents as the units: a concept counts once
    per document of the block that holds it."""

    def concepts(runs: Runs) -> np.ndarray:
        return np.unique(locate(block.starts, runs.begin)[0] * size + runs.label)

    truth = concepts(gold)
    predicted = [concepts(runs) for runs in operands]
    if len(predicted) > 1:
        predicted.append(reduce(np.union1d, predicted))
    return [
        np.stack([
            np.bincount(keys % size, minlength=size)
            for keys in (np.intersect1d(truth, p), np.setdiff1d(p, truth), np.setdiff1d(truth, p))
        ])
        for p in predicted
    ]


def _mention_level_counts(block: _Block, gold: Runs, operands: list[Runs], size: int, keys):
    """tp/fp/fn per concept (a (3, size) array) of each operand's concept
    layer and of their merge, against gold's, with characters as the units.
    ``keys`` are the seeds of gold's layer, each operand's and the merge."""

    def resolve(runs: Runs, seed: int) -> Runs:
        return _resolve_candidates(runs, block.starts, block.doc_ids, seed)

    truth = resolve(gold, keys[0])
    layers = [resolve(runs, seed) for runs, seed in zip(operands, keys[1:])]
    if len(layers) > 1:
        layers.append(resolve(Runs.concat(layers), keys[-1]))
    return label_counts(truth, layers, block.length, size)


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
    Gold, every operand and the merge are built a block at a time, once per
    group; a single operand is scored from its own layer, which is what
    merging one layer gives.  Intersection nodes are rejected: their concept
    semantics are undefined.
    """
    assert_union_only(tree)
    operands = tree_sources(tree)
    _require_sources(store, gold_source, *operands)
    check_group(store, group)
    if level not in (DOC_LEVEL, MENTION_LEVEL):
        raise ConfigError(f"unknown level {level!r}; expected 'doc' or 'mention'")

    columns = store.columns
    names = sorted(cui for cui in columns.cuis if cui is not None)
    rank = {cui: i for i, cui in enumerate(names)}
    label_of = np.array([rank.get(cui, -1) for cui in columns.cuis], dtype=np.int64)

    def labelled(block: _Block, source: str) -> Runs:
        """One source's concept spans of ``group`` in the block; label codes
        sort as the CUIs do."""
        rows, begins, ends = block.spans(source, group)
        labels = label_of[columns.cui[rows]]
        keep = labels >= 0
        return Runs(begins[keep], ends[keep], labels[keep], (ends - begins)[keep])

    size = max(len(names), 1)
    layer_seeds = [seeds.digest(seed, "layer", s) for s in operands]
    keys = [seeds.digest(seed, "gold-layer"), *layer_seeds, seed]
    scored = len(operands) + 1 if len(operands) > 1 else 1  # the operands, then their ensemble
    counts = np.zeros((scored, 3, size), dtype=np.int64)
    for block in _blocks(store):
        gold = labelled(block, gold_source)
        operand_runs = [labelled(block, s) for s in operands]
        if level == DOC_LEVEL:
            counts += _doc_level_counts(block, gold, operand_runs, size)
        else:
            counts += _mention_level_counts(block, gold, operand_runs, size, keys)
    results = [CuiMetricsResult.from_count_array(names, c) for c in counts]
    return results[-1], dict(zip(operands, results))
