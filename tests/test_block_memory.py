"""Memory of the block walk and of the set-up.

Scoring tasks hold per-character arrays for one block of documents
(``search.BLOCK_CHARS`` characters) at a time, so the peak of building count
tables, votes and concept layers does not grow with the number of documents.
The set-up (reading, disambiguation and the store) holds the columns once
plus temporaries, so its peak grows with the columns it ends with.  Both are
measured with ``tracemalloc`` on a corpus and on one ten times larger.
Scoring a search's truth tables casts them to int64 ``search.SCORE_CELLS``
cells at a time, so its peak is bounded by the block, not the tables."""

from __future__ import annotations

import json
import random
import tracemalloc

import numpy as np

from span_ensembles import (
    ALL_GROUPS,
    SourceSpec,
    SynthSpec,
    generate,
    majority_vote_eval,
    parse,
)
from span_ensembles.cli import _build_store, _resolve_run_config, build_parser
from span_ensembles.model import COLUMNS, GOLD_SOURCE
from span_ensembles import search
from span_ensembles.search import _count_table, _score, cui_scores

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
    yield "tables", lambda: [_count_table(store, r) for r in rows]
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


def write_corpus(directory, n_docs: int):
    """Gold and four systems over ``n_docs`` documents of 2,000 characters,
    100 spans of 3-9 characters per document and source at random, so that
    each system's spans overlap and disambiguation removes some; returns the
    config file."""
    rng = random.Random(n_docs)
    directory.mkdir()
    doc_ids = [f"doc-{i:05d}" for i in range(n_docs)]
    (directory / "manifest.jsonl").write_text(
        "".join(json.dumps({"doc_id": d, "length": 2000}) + "\n" for d in doc_ids)
    )
    for source in (GOLD_SOURCE, *SOURCES):
        lines = []
        for doc_id in doc_ids:
            for _ in range(100):
                begin = rng.randrange(1990)
                record = {"doc_id": doc_id, "source": source, "begin": begin,
                          "end": begin + rng.randint(3, 9), "group": rng.choice(GROUPS),
                          "score": rng.choice([None, 0.5, 0.75])}
                lines.append(json.dumps(record) + "\n")
        (directory / f"{source}.jsonl").write_text("".join(lines))
    config = {"gold": f"{GOLD_SOURCE}.jsonl", "manifest": "manifest.jsonl",
              "systems": {name: f"{name}.jsonl" for name in SOURCES}}
    (directory / "config.json").write_text(json.dumps(config))
    return directory / "config.json"


def set_up_peak(config) -> tuple[int, int]:
    """(traced peak of building the store, bytes of the store's columns)."""
    cfg = _resolve_run_config(build_parser().parse_args(["ner-eval", "--config", str(config)]))
    tracemalloc.start()
    try:
        store = _build_store(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sum(getattr(store.columns, col).nbytes for col in COLUMNS)


def test_set_up_peak_grows_with_the_columns(tmp_path):
    small_peak, small_bytes = set_up_peak(write_corpus(tmp_path / "small", 40))
    large_peak, large_bytes = set_up_peak(write_corpus(tmp_path / "large", 400))
    # one copy of the columns, plus the temporaries of sorting and of one
    # source's overlap scan, but never the columns twice
    assert large_peak - small_peak <= 2 * (large_bytes - small_bytes), (
        small_peak, small_bytes, large_peak, large_bytes
    )


def test_scoring_peak_is_bounded_by_the_block():
    # 4,096 truth tables of 1,024 cells: cast to int64 at once, they take 32 MB
    rng = np.random.default_rng(3)
    tables = rng.random((4096, 1024)) < 0.5
    counts = rng.integers(0, 1000, size=(2, 1024))
    tracemalloc.start()
    try:
        scores = _score(tables, np.arange(len(tables)), counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scores.tolist() == (tables.astype(np.int64) @ counts.T).tolist()
    # one block's bool rows and their int64 copy, beside the scores
    assert peak <= 9 * search.SCORE_CELLS + scores.nbytes + 64 * 1024, peak
