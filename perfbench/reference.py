"""Reference figures computed from the raw input files, apart from the program.

Nothing here imports the program.  The figures are those the method defines
exactly whatever the program's tie-breaks do:

* gold character counts per group;
* character tp/fp/fn of clean systems and of their ``&``/``|`` pairs;
* the dropped-record count of group mapping;
* complementary rates between clean systems;
* document-level concept macro PRF of clean systems and of their union;
* mention-level per-concept counts of clean systems.

Gold and clean systems must have disjoint spans per document; this is
verified, since the figures rely on it.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

ALL = "ALL"


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def read_group_map(semgroups: Path, overrides: Path | None):
    """(TUI -> group, (source, native type) -> group, group order)."""
    tui, order = {}, {}
    for line in semgroups.read_text(encoding="utf-8").splitlines():
        if line:
            _, name, code, _ = line.split("|")
            tui[code] = name
            order.setdefault(name)
    native = {}
    if overrides is not None:
        for rec in read_jsonl(overrides):
            native[(rec["source"], rec["native_type"])] = rec["group"]
    return tui, native, list(order)


def mapped_group(rec: dict, tui: dict | None, native: dict | None):
    """Group of a record after mapping, or None when mapping drops it."""
    if tui is None:
        return rec.get("group")
    if rec.get("native_type") is not None:
        return native.get((rec["source"], rec["native_type"])) or tui.get(rec["native_type"])
    return rec.get("group")


class Corpus:
    """Raw records of one corpus directory, grouped after mapping."""

    def __init__(self, lengths: dict[str, int], gold: list[dict], systems: dict[str, list[dict]],
                 clean: list[str], group_map=None):
        self.lengths = lengths
        self.clean = sorted(clean)
        tui = native = None
        if group_map is not None:
            tui, native, universe = group_map
        self.dropped = 0
        self.records: dict[str, list[tuple]] = {}
        for source, recs in [("gold", gold), *sorted(systems.items())]:
            kept = []
            for rec in recs:
                group = mapped_group(rec, tui, native)
                if group is None:
                    self.dropped += 1
                    continue
                kept.append((rec["doc_id"], rec["begin"], rec["end"], group, rec.get("cui")))
            self.records[source] = kept
        if group_map is None:
            universe = sorted({r[3] for recs in self.records.values() for r in recs})
        self.groups = list(universe) + [ALL]
        for source in ["gold", *self.clean]:
            self._check_disjoint(source)

    @classmethod
    def from_dir(cls, corpus_dir: Path, clean: list[str]) -> "Corpus":
        config = json.loads((corpus_dir / "config.json").read_text())
        lengths = {r["doc_id"]: r["length"] for r in read_jsonl(corpus_dir / config["manifest"])}
        systems = {name: read_jsonl(corpus_dir / rel) for name, rel in config["systems"].items()}
        group_map = None
        if config.get("semgroups"):
            overrides = corpus_dir / config["overrides"] if config.get("overrides") else None
            group_map = read_group_map(corpus_dir / config["semgroups"], overrides)
        return cls(lengths, read_jsonl(corpus_dir / config["gold"]), systems, clean, group_map)

    def _check_disjoint(self, source: str) -> None:
        last: dict[str, int] = {}
        for doc, begin, end, _, _ in sorted(self.records[source], key=lambda r: (r[0], r[1])):
            if begin < last.get(doc, 0):
                raise ValueError(f"{source} spans overlap in {doc} at {begin}")
            last[doc] = end

    def spans(self, source: str, group: str):
        return [r for r in self.records[source] if group == ALL or r[3] == group]

    def masks(self, source: str, group: str) -> dict[str, np.ndarray]:
        out = {doc: np.zeros(n, dtype=bool) for doc, n in self.lengths.items()}
        for doc, begin, end, _, _ in self.spans(source, group):
            out[doc][begin:end] = True
        return out

    def labels(self, source: str, group: str) -> dict[str, list]:
        """Per document, the (begin, end, cui) runs of one disjoint source."""
        out: dict[str, list] = {doc: [] for doc in self.lengths}
        for doc, begin, end, _, cui in self.spans(source, group):
            if cui is not None:
                out[doc].append((begin, end, cui))
        return out


def counts(gold: dict, pred: dict) -> list[int]:
    tp = fp = fn = 0
    for doc, g in gold.items():
        p = pred[doc]
        tp += int(np.count_nonzero(g & p))
        fp += int(np.count_nonzero(p & ~g))
        fn += int(np.count_nonzero(g & ~p))
    return [tp, fp, fn]


def comp_rate(gold: dict, a: dict, b: dict) -> float:
    """Share (%) of A's wrong characters that B gets right."""
    wrong_a = shared = 0
    for doc, g in gold.items():
        err_a = g != a[doc]
        wrong_a += int(np.count_nonzero(err_a))
        shared += int(np.count_nonzero(err_a & (g != b[doc])))
    return 100.0 * (1.0 - shared / wrong_a) if wrong_a else 0.0


def macro(per_label: dict[str, list[int]]) -> list[float]:
    """Unweighted mean over labels of per-label precision, recall and F1."""
    if not per_label:
        return [0.0, 0.0, 0.0]
    ps, rs, fs = [], [], []
    for label in sorted(per_label):
        tp, fp, fn = per_label[label]
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        ps.append(p)
        rs.append(r)
        fs.append(2 * p * r / (p + r) if p + r else 0.0)
    k = len(per_label)
    return [sum(ps) / k, sum(rs) / k, sum(fs) / k]


def doc_level(gold_sets: dict[str, set], pred_sets: dict[str, set]) -> dict:
    """Per concept: tp = documents where gold and prediction both name it."""
    per_label: dict[str, list[int]] = {}
    for doc, g in gold_sets.items():
        p = pred_sets[doc]
        for cui in g | p:
            slot = per_label.setdefault(cui, [0, 0, 0])
            slot[0 if cui in g and cui in p else 1 if cui in p else 2] += 1
    return {"per_label": per_label, "macro": macro(per_label)}


def mention_level(corpus: Corpus, gold_runs: dict, pred_runs: dict) -> dict:
    """Per concept, characters labelled alike (tp), only in prediction (fp) or
    only in gold (fn), from per-character label arrays of disjoint runs."""
    codes: dict[str, int] = {}
    per_label: dict[str, list[int]] = {}
    for doc, n in corpus.lengths.items():
        g = np.zeros(n, dtype=np.int64)
        p = np.zeros(n, dtype=np.int64)
        for arr, runs in ((g, gold_runs[doc]), (p, pred_runs[doc])):
            for begin, end, cui in runs:
                arr[begin:end] = codes.setdefault(cui, len(codes) + 1)
        size = len(codes) + 1
        tp = np.bincount(g[(g == p) & (g > 0)], minlength=size)
        fn = np.bincount(g[(g != p) & (g > 0)], minlength=size)
        fp = np.bincount(p[(g != p) & (p > 0)], minlength=size)
        for cui, code in codes.items():
            if tp[code] or fp[code] or fn[code]:
                slot = per_label.setdefault(cui, [0, 0, 0])
                slot[0] += int(tp[code])
                slot[1] += int(fp[code])
                slot[2] += int(fn[code])
    return {"per_label": per_label, "macro": macro(per_label)}


def compute(corpus: Corpus, cui_union: tuple[str, str] | None = None) -> dict:
    """Every reference figure of one corpus, keyed by group then expression."""
    out = {"groups": corpus.groups, "dropped": corpus.dropped, "gold_chars": {}, "char": {},
           "comp_rate": {}, "cui_doc": {}, "cui_mention": {}}
    has_cui = any(r[4] for r in corpus.records["gold"])
    for group in corpus.groups:
        gold = corpus.masks("gold", group)
        out["gold_chars"][group] = sum(int(np.count_nonzero(m)) for m in gold.values())
        sys_masks = {s: corpus.masks(s, group) for s in corpus.clean}
        char = {s: counts(gold, m) for s, m in sys_masks.items()}
        for a, b in itertools.combinations(corpus.clean, 2):
            ma, mb = sys_masks[a], sys_masks[b]
            char[f"({a}&{b})"] = counts(gold, {d: ma[d] & mb[d] for d in gold})
            char[f"({a}|{b})"] = counts(gold, {d: ma[d] | mb[d] for d in gold})
        out["char"][group] = char
        out["comp_rate"][group] = {
            f"{a},{b}": comp_rate(gold, sys_masks[a], sys_masks[b])
            for a, b in itertools.permutations(corpus.clean, 2)
        }
        if not has_cui:
            continue
        gold_runs = corpus.labels("gold", group)
        runs = {s: corpus.labels(s, group) for s in corpus.clean}
        gold_sets = {d: {c for _, _, c in r} for d, r in gold_runs.items()}
        sets = {s: {d: {c for _, _, c in r} for d, r in runs[s].items()} for s in runs}
        doc = {s: doc_level(gold_sets, sets[s]) for s in corpus.clean}
        if cui_union:
            union = {d: set().union(*(sets[s][d] for s in cui_union)) for d in gold_sets}
            doc["({}|{})".format(*cui_union)] = doc_level(gold_sets, union)
        out["cui_doc"][group] = doc
        out["cui_mention"][group] = {
            s: mention_level(corpus, gold_runs, runs[s]) for s in corpus.clean
        }
    return out
