"""Shared helpers: random masks, random read-once trees, reference oracles."""

from __future__ import annotations

import itertools
import random

import numpy as np

from span_ensembles import And, CharMask, Leaf, Or, seeds


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
