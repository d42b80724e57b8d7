"""Memory of the block walk: scoring tasks hold per-character arrays for one
block of documents (``search.BLOCK_CHARS`` characters) at a time, so the peak
of building count tables, votes and concept layers does not grow with the
number of documents.  Measured with ``tracemalloc`` on a corpus of two blocks
and on one ten times larger."""

from __future__ import annotations

import tracemalloc

from span_ensembles import (
    ALL_GROUPS,
    SourceSpec,
    SynthSpec,
    generate,
    majority_vote_eval,
    parse,
)
from span_ensembles.model import GOLD_SOURCE
from span_ensembles.search import _count_tables, cui_scores

SOURCES = ("A", "B", "C", "D")
GROUPS = ("G1", "G2")


def corpus(n_docs: int):
    spec = SynthSpec(
        n_docs=n_docs,
        doc_length=2000,
        sources=tuple(SourceSpec(name, 0.2, 1.0, 1) for name in SOURCES),
        span_density=20,
        groups=GROUPS,
        cui_vocab=30,
        seed=5,
    )
    store = generate(spec)
    store.doc_lengths  # cached per store: not part of a task's peak
    return store


def tasks(store):
    rows = [[(s, g) for s in (*SOURCES, GOLD_SOURCE)] for g in (*GROUPS, ALL_GROUPS)]
    tree = parse("(((A|B)|C)|D)")
    yield "tables", lambda: _count_tables(store, rows)
    yield "vote", lambda: majority_vote_eval(store, SOURCES, GOLD_SOURCE, ALL_GROUPS, 3)
    yield "mention", lambda: cui_scores(store, tree, GOLD_SOURCE, "mention", 3)
    yield "doc", lambda: cui_scores(store, tree, GOLD_SOURCE, "doc", 3)


def peaks(store) -> dict[str, int]:
    out = {}
    for name, task in tasks(store):
        tracemalloc.start()
        try:
            task()
            out[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return out


def test_peak_does_not_grow_with_documents():
    small = peaks(corpus(40))  # 80,000 characters: two blocks
    large = peaks(corpus(400))  # 800,000 characters: 13 blocks
    for name, peak in small.items():
        # one array over the large corpus, even of booleans, is 800,000 bytes
        assert large[name] <= peak + 256 * 1024, (name, peak, large[name])
