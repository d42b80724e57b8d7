"""Shared helpers: random masks, random read-once trees, reference oracles."""

from __future__ import annotations

import itertools
import json
import math
import random
from collections.abc import Mapping
from dataclasses import replace

import numpy as np

from span_ensembles import (
    And,
    Annotation,
    CharMask,
    DocumentRef,
    Leaf,
    MetricsResult,
    Or,
    ParseError,
    ValidationError,
    disambiguate_overlaps,
    grid_search,
    seeds,
)
from span_ensembles.expr import MAX_SEARCH_ENSEMBLES
from span_ensembles.metrics import Z_95
from span_ensembles.model import overlapping


def scalar_ci(p: float, n: int, z: float = Z_95) -> tuple[float, float]:
    """Reference Bernoulli interval, by Python floats and ``math.sqrt``."""
    half = z * math.sqrt(p * (1.0 - p) / n)
    return (max(0.0, p - half), min(1.0, p + half))


def scalar_metrics(tp: int, fp: int, fn: int, z: float = Z_95) -> MetricsResult:
    """Reference metrics of one count triple, by Python int and float
    arithmetic one field at a time."""
    n_pred = tp + fp
    n_gold = tp + fn
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    n_f1 = 2 * tp + fp + fn
    return MetricsResult(
        tp=tp,
        fp=fp,
        fn=fn,
        precision=precision,
        recall=recall,
        f1=f1,
        n_gold=n_gold,
        n_pred=n_pred,
        ci_precision=scalar_ci(precision, n_pred, z) if n_pred else None,
        ci_recall=scalar_ci(recall, n_gold, z) if n_gold else None,
        ci_f1=scalar_ci(2 * tp / n_f1, n_f1, z) if n_f1 else None,
        degenerate=n_pred == 0 or n_gold == 0 or precision + recall == 0,
    )


def exact(value):
    """``value`` with each float replaced by its bits and each other scalar
    paired with its type, so that ``==`` compares floats bit for bit, signed
    zeros included, and never equates an int, a float and a bool."""
    if isinstance(value, tuple):
        return tuple(map(exact, value))
    if isinstance(value, float):
        return value.hex()
    return type(value).__name__, value


def rand_mask(rng: random.Random, doc_id: str, length: int, density: float = 0.4) -> CharMask:
    bits = np.array([rng.random() < density for _ in range(length)], dtype=bool)
    return CharMask(doc_id, bits)


def rand_tree(rng: random.Random, sources: list[str]):
    """Random read-once binary tree over the given (distinct) sources."""
    if len(sources) == 1:
        return Leaf(sources[0])
    split = rng.randrange(1, len(sources))
    shuffled = sources[:]
    rng.shuffle(shuffled)
    left = rand_tree(rng, shuffled[:split])
    right = rand_tree(rng, shuffled[split:])
    return (And if rng.random() < 0.5 else Or)(left, right)


def set_eval(tree, sets: dict[str, frozenset]) -> frozenset:
    """Reference evaluation over plain Python sets of covered indices."""
    if isinstance(tree, Leaf):
        return sets[tree.source]
    left = set_eval(tree.left, sets)
    right = set_eval(tree.right, sets)
    return left & right if isinstance(tree, And) else left | right


def brute_confusion(gold_bits, pred_bits) -> tuple[int, int, int]:
    """Per-character confusion counting with plain Python loops."""
    tp = fp = fn = 0
    for g, p in zip(gold_bits, pred_bits):
        if g and p:
            tp += 1
        elif p:
            fp += 1
        elif g:
            fn += 1
    return tp, fp, fn


def comp_prf(gold, pred_a, pred_b) -> MetricsResult:
    """Reference restricted PRF: system B scored on the characters where A
    differs from gold, from per-document masks (dicts of ``CharMask``)."""
    tp = fp = fn = 0
    for doc_id in sorted(gold):
        g, a, b = gold[doc_id].bits, pred_a[doc_id].bits, pred_b[doc_id].bits
        wrong = g != a
        tp += int(np.count_nonzero(wrong & g & b))
        fp += int(np.count_nonzero(wrong & ~g & b))
        fn += int(np.count_nonzero(wrong & g & ~b))
    return scalar_metrics(tp, fp, fn)


def brute_readonce_tables(variables: tuple[str, ...]) -> set[int]:
    """Truth tables of every ordered binary read-once tree over the variables."""

    def trees(vars_):
        if len(vars_) == 1:
            yield ("leaf", vars_[0])
            return
        for r in range(1, len(vars_)):
            for left in itertools.combinations(vars_, r):
                right = tuple(v for v in vars_ if v not in left)
                for lt in trees(left):
                    for rt in trees(right):
                        yield ("&", lt, rt)
                        yield ("|", lt, rt)

    def table(tree):
        k = len(variables)
        bits = 0
        for i in range(2**k):
            env = {v: bool(i >> (k - 1 - j) & 1) for j, v in enumerate(variables)}

            def ev(t):
                if t[0] == "leaf":
                    return env[t[1]]
                a, b = ev(t[1]), ev(t[2])
                return a and b if t[0] == "&" else a or b

            if ev(tree):
                bits |= 1 << i
        return bits

    return {table(t) for t in trees(variables)}


def every_scored(store, gold_source, config) -> tuple:
    """Every ensemble the search ``config`` scores, ranked by F1: the
    search's own ``by_f1`` with a top-k of every ensemble a search may score
    plus the singles it keeps.  The top-k enters no sampling, so a sampled
    search gives the same sample."""
    every = replace(config, top_k=MAX_SEARCH_ENSEMBLES + len(config.sources))
    return grid_search(store, gold_source, every).by_f1


def sorted_search_views(scored, top_k: int, f1_only: bool) -> dict:
    """A search's ranked views by their definitions, from its scored
    ensembles one object at a time: top-k lists by sorting on (-metric,
    expression), the Pareto set by a walk down the precision tiers, the
    ensembles that beat each single system one comparison at a time, and
    the singles by name."""

    def ranked(metric: str) -> tuple:
        ordered = sorted(scored, key=lambda s: (-getattr(s.metrics, metric), s.expression))
        return tuple(ordered[:top_k])

    ordered = sorted(scored, key=lambda s: (-s.metrics.precision, -s.metrics.recall, s.expression))
    front = []
    higher_recall = -1.0  # best recall among strictly higher precisions
    for _, tier in itertools.groupby(ordered, key=lambda s: s.metrics.precision):
        tier = list(tier)
        front.extend(s for s in tier if s.metrics.recall >= higher_recall)
        higher_recall = max(higher_recall, tier[0].metrics.recall)
    singles = {s.expression: s.metrics for s in scored if s.size == 1}

    def beats_all(m: MetricsResult) -> bool:
        if f1_only:
            return all(m.f1 > s.f1 for s in singles.values())
        return all(
            m.f1 > s.f1 and m.precision > s.precision and m.recall > s.recall
            for s in singles.values()
        )

    beating = sorted(
        (s for s in scored if beats_all(s.metrics)), key=lambda s: (-s.metrics.f1, s.expression)
    )
    return {
        "by_f1": ranked("f1"),
        "by_precision": ranked("precision"),
        "by_recall": ranked("recall"),
        "pareto": tuple(front),
        "singles": dict(sorted(singles.items())),
        "beating_all_singles": tuple(beating),
    }


def metrics_json_default(value) -> dict:
    """``json.dumps``'s ``default`` for report payloads: a MetricsResult as
    the JSON object of its fields."""
    if not isinstance(value, MetricsResult):
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    m = value
    return {
        "precision": m.precision,
        "recall": m.recall,
        "f1": m.f1,
        "ci_precision": list(m.ci_precision) if m.ci_precision else None,
        "ci_recall": list(m.ci_recall) if m.ci_recall else None,
        "ci_f1": list(m.ci_f1) if m.ci_f1 else None,
        "tp": m.tp,
        "fp": m.fp,
        "fn": m.fn,
        "n_gold": m.n_gold,
        "n_pred": m.n_pred,
        "degenerate": m.degenerate,
    }


def doc_coverage(store, doc, rows) -> np.ndarray:
    """Coverage of one document by each (source, group) row, span by span: a
    boolean (len(rows), doc.length) matrix."""
    covered = np.zeros((len(rows), doc.length), dtype=bool)
    for j, (source, group) in enumerate(rows):
        for ann in store.annotations_for(source, doc.doc_id, group):
            covered[j, ann.begin : ann.end] = True
    return covered


def per_document_count_table(store, rows) -> np.ndarray:
    """Reference count table ``H[g][p]``, built one document at a time:
    ``rows`` are (source, group) pairs, gold last, and bit j of the pattern
    p is set where ``rows[j]`` covers the character."""
    weights = 1 << np.arange(len(rows))
    table = np.zeros(2 ** len(rows), dtype=np.int64)
    for doc in store.documents:
        table += np.bincount(weights @ doc_coverage(store, doc, rows), minlength=table.size)
    return table.reshape(2, -1)


def per_document_vote(store, sources, gold_source, group, seed) -> MetricsResult:
    """Reference majority vote, one document and one character at a time:
    more than half the sources covering wins, an exact tie takes the coin
    ``seeds.pick_index(2, seed, doc, index in the doc)``."""
    tp = fp = fn = 0
    for doc in store.documents:
        *systems, gold = doc_coverage(store, doc, [(s, group) for s in (*sources, gold_source)])
        votes = np.sum(systems, axis=0) if systems else np.zeros(doc.length, dtype=int)
        for idx in range(doc.length):
            if votes[idx] * 2 == len(sources):
                voted = bool(seeds.pick_index(2, seed, doc.doc_id, idx))
            else:
                voted = votes[idx] * 2 > len(sources)
            tp += bool(voted and gold[idx])
            fp += bool(voted and not gold[idx])
            fn += bool(gold[idx] and not voted)
    return scalar_metrics(tp, fp, fn)


def quadratic_resolve_candidates(entries, doc_id: str, doc_length: int, seed: int):
    """Reference label resolution: every boundary segment rescans every entry.

    Per character: most votes wins; ties go to the label with the longest
    originating span; remaining ties to ``seeds.pick_index``.  Returns
    (begin, end, cui, origin_length) runs with equal-label neighbours merged.
    """
    if not entries:
        return ()
    boundaries = sorted({0, doc_length} | {e[0] for e in entries} | {e[1] for e in entries})
    raw = []
    for seg_begin, seg_end in zip(boundaries, boundaries[1:]):
        covering = [e for e in entries if e[0] <= seg_begin and e[1] >= seg_end]
        if not covering:
            continue
        votes: dict = {}
        origin: dict = {}
        for _, _, cui, origin_length in covering:
            votes[cui] = votes.get(cui, 0) + 1
            origin[cui] = max(origin.get(cui, 0), origin_length)
        best_votes = max(votes.values())
        tied = [c for c, v in votes.items() if v == best_votes]
        if len(tied) > 1:
            best_len = max(origin[c] for c in tied)
            tied = [c for c in tied if origin[c] == best_len]
        if len(tied) == 1:
            raw.append((seg_begin, seg_end, tied[0], origin[tied[0]]))
        else:
            tied.sort()
            for idx in range(seg_begin, seg_end):
                winner = tied[seeds.pick_index(len(tied), seed, doc_id, idx)]
                raw.append((idx, idx + 1, winner, origin[winner]))
    merged: list = []
    for begin, end, cui, origin_length in raw:
        if merged and merged[-1][1] == begin and merged[-1][2] == cui:
            merged[-1][1] = end
            merged[-1][3] = max(merged[-1][3], origin_length)
        else:
            merged.append([begin, end, cui, origin_length])
    return tuple(tuple(run) for run in merged)


def scan_jsonl(path, malformed):
    """Reference JSONL reader: one ``json.loads`` per non-blank line, yielding
    (line number, object); any other line goes to ``malformed``."""
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                problem = f"bad JSON ({exc.msg})"
            except RecursionError:
                problem = "bad JSON (nested too deeply)"
            else:
                if isinstance(record, dict):
                    yield lineno, record
                    continue
                problem = "expected a JSON object"
            malformed.append((lineno, f"{path}:{lineno}: {problem}"))


# The JSON types of an annotation record's fields, in column order; a field
# that may be null may also be absent.  No value is converted.
FIELD_TYPES = {
    "doc_id": {str},
    "source": {str},
    "begin": {int},
    "end": {int},
    "group": {str, type(None)},
    "native_type": {str, type(None)},
    "cui": {str, type(None)},
    "score": {float, int, type(None)},
}


# How a malformed-record message names each field's types, and the type of
# a value found in a field.
EXPECTED = {
    "doc_id": "a string",
    "source": "a string",
    "begin": "an integer",
    "end": "an integer",
    "group": "a string or null",
    "native_type": "a string or null",
    "cui": "a string or null",
    "score": "a number or null",
}
JSON_NAMES = {
    str: "a string", int: "an integer", float: "a float", bool: "a boolean",
    type(None): "null", list: "an array", dict: "an object",
}


# The types of a manifest record's fields, and how a message names them.
MANIFEST_TYPES = {"doc_id": {str}, "length": {int}, "corpus_id": {str, type(None)}}
MANIFEST_EXPECTED = {"doc_id": "a string", "length": "an integer", "corpus_id": "a string or null"}


def _field(record, key, types=FIELD_TYPES, expected=EXPECTED):
    """A record's value of ``key``: KeyError if a required field is absent,
    TypeError, with the record's message, if the value has none of the
    field's types, is an integer beyond 64 bits (a bool is no integer) or is
    a string UTF-8 cannot encode."""
    if key not in record and type(None) not in types[key]:
        raise KeyError(key)
    value = record.get(key)
    if type(value) is str and str in types[key]:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise TypeError(f"field {key!r} holds a lone surrogate, expected text") from None
    if type(value) not in types[key]:
        raise TypeError(f"field {key!r} is {JSON_NAMES[type(value)]}, expected {expected[key]}")
    if type(value) is int and not -(2**63) <= value < 2**63:
        raise TypeError(f"field {key!r} is an integer beyond 64 bits, expected {expected[key]}")
    return value


def _raise_collected(kind, malformed, problems):
    """One ParseError listing every malformed record, else one
    ValidationError listing every invalid one."""
    if malformed:
        raise ParseError(
            f"{len(malformed)} malformed {kind} record(s):\n"
            + "\n".join(message for _, message in malformed),
            malformed[0][0],
        )
    if problems:
        raise ValidationError(
            f"{len(problems)} invalid {kind} record(s):\n" + "\n".join(problems)
        )


def scan_manifest(path):
    """Reference manifest loader: the per-line scan, one ``DocumentRef`` per
    record, offending records collected as in :func:`scan_annotations`."""
    docs, seen, malformed, problems = [], {}, [], []
    for lineno, record in scan_jsonl(path, malformed):
        try:
            doc_id, length, corpus_id = (
                _field(record, key, MANIFEST_TYPES, MANIFEST_EXPECTED) for key in MANIFEST_TYPES
            )
            doc = DocumentRef(doc_id, length, corpus_id or "")
        except KeyError as exc:
            malformed.append((lineno, f"{path}:{lineno}: missing field {exc.args[0]!r}"))
            continue
        except TypeError as exc:
            malformed.append((lineno, f"{path}:{lineno}: {exc}"))
            continue
        except ValidationError as exc:
            problems.append(f"{path}:{lineno}: {exc}")
            continue
        first = seen.setdefault(doc_id, lineno)
        if first == lineno:
            docs.append(doc)
        else:
            problems.append(f"{path}:{lineno}: duplicate doc_id {doc_id!r} (first at line {first})")
    _raise_collected("manifest", malformed, problems)
    return docs


def scan_annotations(path, documents, expected_source=None):
    """Reference annotation loader: the per-line scan, one ``Annotation`` per
    record, checked record by record; every offending record is collected
    into one ParseError (malformed), else one ValidationError (invalid)."""
    if not isinstance(documents, Mapping):
        documents = {d.doc_id: d for d in documents}
    annotations, malformed, problems = [], [], []
    for lineno, record in scan_jsonl(path, malformed):
        try:
            ann = Annotation(**{key: _field(record, key) for key in FIELD_TYPES})
        except KeyError as exc:
            malformed.append((lineno, f"{path}:{lineno}: missing field {exc.args[0]!r}"))
            continue
        except TypeError as exc:
            malformed.append((lineno, f"{path}:{lineno}: {exc}"))
            continue
        except ValidationError as exc:
            problems.append(f"{path}:{lineno}: {exc}")
            continue
        doc = documents.get(ann.doc_id)
        if doc is None:
            problems.append(f"{path}:{lineno}: unknown doc {ann.doc_id!r}")
        elif ann.end > doc.length:
            problems.append(
                f"{path}:{lineno}: span [{ann.begin}, {ann.end}) exceeds doc "
                f"{ann.doc_id!r} length {doc.length}"
            )
        elif expected_source is not None and ann.source != expected_source:
            problems.append(
                f"{path}:{lineno}: source {ann.source!r} != expected {expected_source!r}"
            )
        else:
            annotations.append(ann)
    _raise_collected("annotation", malformed, problems)
    return annotations


def whole_run_disambiguation(spans, policy, exempt=()) -> np.ndarray:
    """Reference disambiguation of columns: every (source, doc, group) run
    that holds an overlap is passed whole to ``disambiguate_overlaps``, its
    spans that overlap nothing included, one call per (source, doc) slice
    with the rows in row order.  Returns the mask of the rows kept."""
    exempt = set(exempt)
    exempt_codes = [i for i, source in enumerate(spans.sources) if source in exempt]
    keep = np.ones(len(spans), dtype=bool)
    flagged = overlapping(spans) & ~np.isin(spans.source, exempt_codes)
    if not flagged.any():
        return keep
    slice_key = spans.source.astype(np.int64) * len(spans.doc_ids) + spans.doc_id
    run_key = slice_key * len(spans.groups) + spans.group
    rows = np.flatnonzero(np.isin(run_key, run_key[flagged]))
    rows = rows[np.argsort(slice_key[rows], kind="stable")]
    bounds = [0, *(np.flatnonzero(np.diff(slice_key[rows])) + 1).tolist(), len(rows)]
    anns = spans.take(rows).annotations()
    for lo, hi in zip(bounds, bounds[1:]):
        kept = {id(a) for a in disambiguate_overlaps(anns[lo:hi], policy)}
        removed = [row for row, a in zip(rows[lo:hi].tolist(), anns[lo:hi]) if id(a) not in kept]
        keep[removed] = False
    return keep
