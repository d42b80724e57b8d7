import random
import re

import numpy as np
import pytest

from span_ensembles import (
    GOLD_SOURCE,
    Annotation,
    AnnotationStore,
    CharMask,
    CuiMask,
    CuiRun,
    DocumentRef,
    ValidationError,
    corpus_masks,
    intersect,
    majority_vote_eval,
    merge_cui_layers,
    to_cui_mask,
    union,
)
from span_ensembles.seeds import pick_index
from conftest import rand_mask


def bits(text: str, doc_id: str = "d1") -> CharMask:
    return CharMask(doc_id, np.array([c == "1" for c in text]))


def text(mask: CharMask) -> str:
    return "".join("1" if b else "0" for b in mask.bits)


def store_of(texts: dict[str, str], doc_id: str = "d1") -> AnnotationStore:
    """One document, each source's spans the runs of 1s in its bit string."""
    anns = [
        Annotation(doc_id, source, run.start(), run.end())
        for source, bit_text in texts.items()
        for run in re.finditer("1+", bit_text)
    ]
    length = len(next(iter(texts.values())))
    return AnnotationStore([DocumentRef(doc_id, length)], anns, sources=tuple(texts))


def char_mask(anns: list[Annotation], length: int) -> CharMask:
    """Source A's coverage of document d1 as :func:`corpus_masks` builds it."""
    store = AnnotationStore([DocumentRef("d1", length)], anns, sources=("A",))
    return corpus_masks(store, "A")["d1"]


def vote_scores(masks: list[str], gold: str, seed: int):
    """Majority vote of one source per bit string, scored against ``gold``."""
    sources = [f"S{j}" for j in range(len(masks))]
    store = store_of({**dict(zip(sources, masks)), GOLD_SOURCE: gold})
    return majority_vote_eval(store, sources, GOLD_SOURCE, seed=seed)


def votes_to(masks: list[str], expected: str, seed: int = 0) -> bool:
    """Whether the vote is exactly ``expected``: no fp and no fn against it."""
    scores = vote_scores(masks, expected, seed)
    return scores.fp == scores.fn == 0


def test_to_char_mask_merges_overlaps():
    anns = [Annotation("d1", "A", 0, 3), Annotation("d1", "A", 2, 5)]
    assert text(char_mask(anns, 8)) == "11111000"


def test_to_char_mask_empty():
    assert text(char_mask([], 5)) == "00000"


def test_to_char_mask_full_coverage():
    assert text(char_mask([Annotation("d1", "A", 0, 8)], 8)) == "11111111"


def test_to_char_mask_bounds():
    with pytest.raises(ValidationError):
        char_mask([Annotation("d1", "A", 0, 9)], 8)
    with pytest.raises(ValidationError):
        to_cui_mask([Annotation("d1", "A", 0, 9, cui="C0000001")], "d1", 8, seed=0)


def test_mask_span_roundtrip():
    rng = random.Random(101)
    for _ in range(50):
        mask = rand_mask(rng, "d1", rng.randrange(1, 60))
        assert corpus_masks(store_of({"A": text(mask)}), "A")["d1"] == mask


def test_union_intersect_examples():
    a, b = bits("11100"), bits("00110")
    assert text(union(a, b)) == "11110"
    assert text(intersect(a, b)) == "00100"
    assert union(a, a) == a
    assert intersect(a, a) == a


def test_ops_reject_mismatch():
    with pytest.raises(ValidationError):
        union(bits("111"), bits("11"))
    with pytest.raises(ValidationError):
        intersect(bits("111"), bits("111", doc_id="other"))


def test_algebra_laws():
    rng = random.Random(2024)
    for _ in range(200):
        a = rand_mask(rng, "d1", 30)
        b = rand_mask(rng, "d1", 30)
        c = rand_mask(rng, "d1", 30)
        assert union(a, b) == union(b, a)
        assert intersect(a, b) == intersect(b, a)
        assert union(union(a, b), c) == union(a, union(b, c))
        assert intersect(intersect(a, b), c) == intersect(a, intersect(b, c))
        # monotone bounds
        assert np.all(a.bits <= union(a, b).bits)
        assert np.all(intersect(a, b).bits <= a.bits)


def test_majority_vote_odd():
    # column counts 3,2,1 over k=3: majority threshold > 1.5
    assert votes_to(["111", "110", "100"], "110")


def test_majority_vote_five_systems():
    # char 0 covered by 3 of 5 -> majority; char 1 covered by 2 of 5 -> not
    assert votes_to(["11", "11", "10", "00", "00"], "10")


def test_majority_vote_needs_two():
    with pytest.raises(ValidationError, match="at least 2 sources"):
        vote_scores(["1"], "1", seed=0)


def test_majority_vote_identical_masks():
    assert votes_to(["10101"] * 3, "10101", seed=9)


def test_majority_vote_tie_is_seeded_and_reproducible():
    masks = ["1111", "1111", "0000", "0000"]
    assert vote_scores(masks, "1111", seed=5) == vote_scores(masks, "1111", seed=5)
    # each tied character takes the coin keyed on (seed, doc, index in the doc),
    # so with many tied characters different seeds disagree somewhere
    wide = ["1" * 64, "1" * 64, "0" * 64, "0" * 64]
    coins = {seed: "".join(str(pick_index(2, seed, "d1", i)) for i in range(64)) for seed in (1, 2)}
    assert coins[1] != coins[2]
    assert votes_to(wide, coins[1], seed=1) and votes_to(wide, coins[2], seed=2)
    assert not votes_to(wide, coins[1], seed=2)


def test_majority_vote_bounded_by_union_and_intersection():
    rng = random.Random(31)
    for _ in range(100):
        masks = [rand_mask(rng, "d1", 40) for _ in range(rng.choice([2, 3, 4, 5]))]
        inter = masks[0]
        uni = masks[0]
        for m in masks[1:]:
            inter = intersect(inter, m)
            uni = union(uni, m)
        texts = [text(m) for m in masks]
        # nothing voted outside the union, nothing of the intersection left out
        assert vote_scores(texts, text(uni), seed=3).fp == 0
        assert vote_scores(texts, text(inter), seed=3).fn == 0


def test_cui_mask_invariants():
    with pytest.raises(ValidationError):
        CuiMask("d1", 10, (CuiRun(0, 5, "C0000001", 5), CuiRun(4, 8, "C0000002", 4)))
    mask = CuiMask("d1", 10, (CuiRun(0, 5, "C0000001", 5), CuiRun(7, 9, "C0000002", 2)))
    assert mask.labels()[3] == "C0000001"
    assert mask.labels()[6] is None


def test_to_cui_mask_skips_unlabeled():
    anns = [Annotation("d1", "A", 0, 4, cui="C0000001"), Annotation("d1", "A", 5, 8)]
    mask = to_cui_mask(anns, "d1", 10, seed=0)
    assert [(r.begin, r.end, r.cui) for r in mask.runs] == [(0, 4, "C0000001")]


def test_to_cui_mask_longer_span_wins_overlap():
    anns = [
        Annotation("d1", "A", 0, 10, cui="C0000001"),
        Annotation("d1", "A", 5, 9, cui="C0000002"),
    ]
    mask = to_cui_mask(anns, "d1", 12, seed=0)
    assert mask.labels()[:10] == ["C0000001"] * 10


def test_merge_majority_wins():
    layers = [
        to_cui_mask([Annotation("d1", s, 0, 4, cui=cui)], "d1", 6, seed=0)
        for s, cui in (("A", "C0000001"), ("B", "C0000001"), ("C", "C0000002"))
    ]
    merged = merge_cui_layers(layers, seed=1)
    assert [(r.begin, r.end, r.cui) for r in merged.runs] == [(0, 4, "C0000001")]


def test_merge_longer_span_breaks_vote_tie():
    layers = [
        to_cui_mask([Annotation("d1", "A", 0, 10, cui="C0000001")], "d1", 12, seed=0),
        to_cui_mask([Annotation("d1", "B", 0, 4, cui="C0000002")], "d1", 12, seed=0),
    ]
    merged = merge_cui_layers(layers, seed=1)
    assert merged.labels()[:10] == ["C0000001"] * 10
    assert merged.labels()[10] is None


def test_merge_full_tie_is_seeded_deterministic():
    layers = [
        to_cui_mask([Annotation("d1", "A", 0, 6, cui="C0000001")], "d1", 6, seed=0),
        to_cui_mask([Annotation("d1", "B", 0, 6, cui="C0000002")], "d1", 6, seed=0),
    ]
    first = merge_cui_layers(layers, seed=7)
    again = merge_cui_layers(layers, seed=7)
    assert first == again
    labels = first.labels()
    assert all(l in ("C0000001", "C0000002") for l in labels)
    # per-character choice: over many characters both candidates appear
    wide = [
        to_cui_mask([Annotation("d1", "A", 0, 200, cui="C0000001")], "d1", 200, seed=0),
        to_cui_mask([Annotation("d1", "B", 0, 200, cui="C0000002")], "d1", 200, seed=0),
    ]
    wide_labels = merge_cui_layers(wide, seed=7).labels()
    assert {"C0000001", "C0000002"} == set(wide_labels)


def test_merge_outside_stays_outside():
    layers = [
        to_cui_mask([Annotation("d1", "A", 2, 5, cui="C0000001")], "d1", 8, seed=0),
        to_cui_mask([], "d1", 8, seed=0),
    ]
    merged = merge_cui_layers(layers, seed=0)
    assert merged.labels() == [None, None, "C0000001", "C0000001", "C0000001", None, None, None]


def test_merge_single_layer_is_identity():
    layer = to_cui_mask([Annotation("d1", "A", 1, 4, cui="C0000009")], "d1", 6, seed=0)
    assert merge_cui_layers([layer], seed=3) == layer
