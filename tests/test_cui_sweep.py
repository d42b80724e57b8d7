"""Differential tests: sweep-line concept-label resolution against the
quadratic oracle in ``conftest``, and mention-level scoring against a
per-character count.

Spans are drawn on a coarse grid of offsets, so nested, adjacent, identical
and zero-gap intervals are common; origin lengths come from a small range, so
equal-origin ties go to the seeded per-character pick.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from span_ensembles import (
    Annotation,
    CuiMask,
    mention_level_cui_prf,
    merge_cui_layers,
    to_cui_mask,
)
from span_ensembles.masks import _resolve_candidates
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
    got = _resolve_candidates(votes, DOC, seed)
    assert runs(CuiMask(DOC, length, got)) == quadratic_resolve_candidates(votes, DOC, length, seed)


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
