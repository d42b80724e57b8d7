"""Every number of the ``search``, ``ner-eval``, ``vote``, ``complementarity``
and ``ensemble-eval`` reports, end to end from the raw files.

Each example writes a small random corpus (a manifest with an empty
document, gold and two to four systems whose spans overlap and touch, two
group labels, no groups file), runs ``cli.main`` with ``--group each`` and
reads the JSON report.  Every count is recomputed from the raw JSONL, for
every group and for ``ALL``: the files are read by the reference readers
(``conftest.scan_manifest``, ``conftest.scan_annotations``), overlaps are
resolved by ``conftest.whole_run_disambiguation``, and each expression is
evaluated over sets of covered (document, character) positions by
``conftest.set_eval``; a majority vote's ties by ``seeds.pick_index``.  The
search views are checked by their definitions
(``conftest.sorted_search_views``), and the CSV and markdown reports must
carry the JSON numbers at their precision: in full in CSV, to two decimals
in markdown.

With a groups file and per-source overrides, the ``ner-eval``,
``ensemble-eval`` and ``cui-eval --level doc`` reports and the drop note are
recomputed the same way, after mapping each span's group from the two
files as the oracle reads them: a source's override of its native type
first, then the groups file's group of the type.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from span_ensembles import cli, enumerate_ensembles, parse, search, seeds, to_string
from span_ensembles.search import ScoredEnsemble
from span_ensembles.expr import tree_sources
from span_ensembles.model import ALL_GROUPS, GOLD_SOURCE, SpanColumns
from conftest import (
    metrics_json_default,
    scalar_metrics,
    scan_annotations,
    scan_manifest,
    set_eval,
    sorted_search_views,
    whole_run_disambiguation,
)

GROUPS = ("G1", "G2")
CORPUS = "c1"
VIEWS = ("by_f1", "by_precision", "by_recall", "pareto", "beating_all_singles")


@st.composite
def raw_corpora(draw, names=("A", "B", "zeta")):
    """(documents, records per source): 1-3 documents of 1-25 characters and
    one empty one, and per source a list of JSON records.  The systems are
    two or more of ``names``.  Spans are up to 8 characters long, in group G1
    or G2, sometimes scored; a span is sometimes followed by one that
    touches it."""
    systems = draw(st.permutations(names))[: draw(st.integers(2, len(names)))]
    lengths = draw(st.lists(st.integers(1, 25), min_size=1, max_size=3))
    lengths.insert(draw(st.integers(0, len(lengths))), 0)
    documents = [(f"d{i}", n) for i, n in enumerate(lengths)]
    records = {source: [] for source in (GOLD_SOURCE, *systems)}
    for doc_id, length in documents:
        if not length:
            continue
        for source, spans in records.items():
            for _ in range(draw(st.integers(0, 3))):
                begin = draw(st.integers(0, length - 1))
                end = draw(st.integers(begin + 1, min(length, begin + 8)))
                bounds = [(begin, end)]
                if end < length and draw(st.booleans()):
                    bounds.append((end, draw(st.integers(end + 1, length))))
                for b, e in bounds:
                    record = {"doc_id": doc_id, "source": source, "begin": b, "end": e,
                              "group": draw(st.sampled_from(GROUPS))}
                    score = draw(st.sampled_from([None, 0.5, 0.9]))
                    if score is not None:
                        record["score"] = score
                    spans.append(record)
    return documents, records


def write_corpus(directory: Path, documents, records) -> Path:
    """The manifest, one JSONL file per source and a run config; the config's path."""
    (directory / "manifest.jsonl").write_text("".join(
        json.dumps({"doc_id": doc_id, "length": n, "corpus_id": CORPUS}) + "\n"
        for doc_id, n in documents
    ))
    for source, spans in records.items():
        (directory / f"{source}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in spans))
    config = {"manifest": "manifest.jsonl", "gold": f"{GOLD_SOURCE}.jsonl",
              "systems": {s: f"{s}.jsonl" for s in records if s != GOLD_SOURCE}}
    (directory / "config.json").write_text(json.dumps(config))
    return directory / "config.json"


def covered_sets(directory: Path, systems, seed: int = 0):
    """The groups a ``--group each`` run reports, and per group the covered
    (document, character) positions of each source after disambiguation
    with ``seed``, read from the raw files."""
    documents = scan_manifest(directory / "manifest.jsonl")
    anns = []
    for source in (GOLD_SOURCE, *sorted(systems)):
        anns += scan_annotations(directory / f"{source}.jsonl", documents, source)
    spans = SpanColumns.from_annotations(anns)
    keep = whole_run_disambiguation(spans, seed, exempt=(GOLD_SOURCE,))
    kept = [a for a, k in zip(spans.annotations(), keep.tolist()) if k]
    groups = sorted({a.group for a in anns if a.group is not None})
    sets = {}
    for group in (*groups, ALL_GROUPS):
        sets[group] = {
            source: frozenset((a.doc_id, i) for a in kept
                              if a.source == source and group in (ALL_GROUPS, a.group)
                              for i in range(a.begin, a.end))
            for source in (GOLD_SOURCE, *systems)
        }
    return sets


def oracle_metrics(gold: frozenset, predicted: frozenset):
    return scalar_metrics(len(gold & predicted), len(predicted - gold), len(gold - predicted))


def scored_space(sets, systems) -> list:
    """Every ensemble of a default search over ``systems``, with its
    metrics from the position sets."""
    gold = sets[GOLD_SOURCE]
    scored = []
    for tree in enumerate_ensembles(sorted(systems), 1, len(systems)):
        metrics = oracle_metrics(gold, set_eval(tree, sets))
        scored.append(ScoredEnsemble(to_string(tree), len(tree_sources(tree)), metrics))
    return scored


def json_item(scored: ScoredEnsemble) -> dict:
    """A scored ensemble as a report's JSON object holds it."""
    return {"combination": scored.expression, "size": scored.size, "metrics": scored.metrics}


def as_json(payload):
    """A payload as its JSON text parses back, every MetricsResult as its fields."""
    return json.loads(json.dumps(payload, default=metrics_json_default))


def run_report(argv, out: Path) -> str:
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def markdown_tables(text: str) -> list[list[list[str]]]:
    """The body rows of each pipe table, cells unescaped."""
    tables, current = [], None
    for line in text.splitlines():
        if not line.startswith("|"):
            current = None
            continue
        cells = [c.strip().replace("\\|", "|") for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        if current is None:
            current = []
            tables.append(current)
        elif not all(c == "---" for c in cells):
            current.append(cells)
    return tables


def metric_cells_match(row: dict, m: dict) -> bool:
    """A CSV row carries a JSON metrics object in full."""
    floats = {}
    for key, name in (("p", "precision"), ("r", "recall"), ("f1", "f1")):
        lo, hi = m[f"ci_{name}"] or (None, None)
        floats.update({key: m[name], f"{key}_lo": lo, f"{key}_hi": hi})
    return (all((float(row[k]) if row[k] else None) == v for k, v in floats.items())
            and all(int(row[k]) == m[k] for k in ("tp", "fp", "fn", "n_gold", "n_pred"))
            and row["degenerate"] == str(m["degenerate"]).lower())


def md_metrics(m: dict) -> list[str]:
    return [f"{m[name]:.2f}" for name in ("precision", "recall", "f1")]


@settings(max_examples=60, deadline=None)
@given(raw_corpora(), st.integers(1, 60))
def test_search_and_ner_eval_reports_match_the_raw_files(corpus, block_chars):
    # blocks of a few characters end anywhere, a long document alone
    documents, records = corpus
    systems = [s for s in records if s != GOLD_SOURCE]
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        config = write_corpus(directory, documents, records)
        sets = covered_sets(directory, systems)
        base = ["--config", str(config), "--group", "each"]
        with mock.patch.object(search, "BLOCK_CHARS", block_chars):
            panels = {fmt: run_report(["search", *base, "--format", fmt], directory / f"s.{fmt}")
                      for fmt in ("json", "csv", "markdown")}
            ner = {fmt: run_report(["ner-eval", *base, "--format", fmt], directory / f"n.{fmt}")
                   for fmt in ("json", "csv", "markdown")}

    groups = sorted(sets)  # the report's order: by group, ALL among them
    blocks = []
    for group in groups:
        views = sorted_search_views(scored_space(sets[group], systems), 10, False)
        blocks.append({"corpus": CORPUS, "group": group, "singles": views["singles"],
                       **{name: [json_item(s) for s in views[name]] for name in VIEWS}})
    report = json.loads(panels["json"])
    assert report == as_json({"layout": "ensemble_panels", "blocks": blocks})

    gold_rows = [{"corpus": CORPUS, "group": group, "system": system,
                  "metrics": oracle_metrics(sets[group][GOLD_SOURCE], sets[group][system])}
                 for group in groups for system in sorted(systems)]
    ner_report = json.loads(ner["json"])
    assert ner_report == as_json({"layout": "single_systems", "rows": gold_rows})

    # CSV: each block's reported rows, once each, by expression, in full precision
    expected_rows = []
    for block in report["blocks"]:
        seen = {}
        for name in VIEWS:
            for item in block[name]:
                seen.setdefault(item["combination"], item["metrics"])
        for expression, metrics in block["singles"].items():
            seen.setdefault(expression, metrics)
        expected_rows += [(block["group"], e, seen[e]) for e in sorted(seen)]
    rows = csv_rows(panels["csv"])
    assert [(r["corpus"], r["group"], r["combination"]) for r in rows] == (
        [(CORPUS, g, e) for g, e, _ in expected_rows]
    )
    assert all(metric_cells_match(r, m) for r, (_, _, m) in zip(rows, expected_rows))
    rows = csv_rows(ner["csv"])
    assert [(r["group"], r["combination"]) for r in rows] == (
        [(r["group"], r["system"]) for r in ner_report["rows"]]
    )
    assert all(metric_cells_match(r, j["metrics"]) for r, j in zip(rows, ner_report["rows"]))

    # markdown: the same numbers to two decimals
    tables = markdown_tables(panels["markdown"])
    top = []
    for block in report["blocks"]:
        row = [CORPUS, block["group"]]
        for name in ("by_f1", "by_precision", "by_recall"):
            best = block[name][0]
            row += [best["combination"], *md_metrics(best["metrics"])]
        top.append(row)
    beating = [[CORPUS, b["group"], item["combination"], *md_metrics(item["metrics"])]
               for b in report["blocks"] for item in b["beating_all_singles"]]
    singles = [[CORPUS, b["group"], name, *md_metrics(m)]
               for b in report["blocks"] for name, m in b["singles"].items()]
    assert tables == [top, *([beating] if beating else []), singles]
    assert ("(none)" in panels["markdown"]) == (not beating)
    assert markdown_tables(ner["markdown"]) == [
        [[CORPUS, r["group"], r["system"], str(r["metrics"]["n_gold"]), *md_metrics(r["metrics"])]
         for r in ner_report["rows"]]
    ]


def vote_set(sets, systems, seed: int) -> frozenset:
    """The positions a per-character majority of ``systems`` covers, an
    exact tie covered where ``seeds.pick_index(2, seed, doc, index)`` is 1."""
    votes = {}
    for system in systems:
        for position in sets[system]:
            votes[position] = votes.get(position, 0) + 1
    k = len(systems)
    return frozenset(p for p, n in votes.items()
                     if 2 * n > k or 2 * n == k and seeds.pick_index(2, seed, *p) == 1)


@settings(max_examples=40, deadline=None)
@given(raw_corpora(("A", "B", "zeta", "Q")), st.integers(1, 2**16), st.data())
def test_vote_complementarity_and_ensemble_eval_reports_match_the_raw_files(corpus, seed, data):
    documents, records = corpus
    systems = [s for s in records if s != GOLD_SOURCE]
    subset = data.draw(st.permutations(systems))[: data.draw(st.integers(2, len(systems)))]
    trees = list(enumerate_ensembles(sorted(subset), 1, len(subset)))
    mixed = to_string(data.draw(st.sampled_from(trees)))
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        config = write_corpus(directory, documents, records)
        sets = covered_sets(directory, systems, seed)
        reports = []  # (selection, expressions, the reports of its runs)
        for selection, chosen in ((sorted(systems), []), (subset, ["--systems", ",".join(subset)])):
            base = ["--config", str(config), "--group", "each", "--seed", str(seed),
                    "--format", "json", *chosen]
            expressions = ["&".join(selection), "|".join(selection), mixed]
            runs = [("vote",), ("complementarity",),
                    *(("ensemble-eval", "--expr", e) for e in expressions)]
            reports.append((selection, expressions, [
                json.loads(run_report([*run, *base], directory / "report.json")) for run in runs
            ]))

    groups = sorted(sets)  # the report's order: by group, ALL among them
    run_order = [*(g for g in groups if g != ALL_GROUPS), ALL_GROUPS]
    for selection, expressions, (vote, comp, *evals) in reports:
        assert vote == as_json({"layout": "vote", "rows": [
            {"corpus": CORPUS, "group": group, "systems": list(selection),
             "metrics": oracle_metrics(sets[group][GOLD_SOURCE],
                                       vote_set(sets[group], selection, seed))}
            for group in groups
        ]})
        rows = []
        for group in run_order:
            gold = sets[group][GOLD_SOURCE]
            errors = {s: sets[group][s] ^ gold for s in selection}  # the raw error sets
            for a in selection:
                for b in (b for b in selection if b != a):
                    shared = len(errors[a] & errors[b])
                    rate = 100.0 * (1.0 - shared / len(errors[a])) if errors[a] else 0.0
                    restricted = oracle_metrics(gold & errors[a], sets[group][b] & errors[a])
                    rows.append({"corpus": CORPUS, "group": group, "system_a": a,
                                 "system_b": b, "comp_rate": rate, "restricted": restricted})
        assert comp == as_json({"layout": "complementarity", "rows": rows})
        for text, report in zip(expressions, evals):
            tree = parse(text)
            assert report == as_json({"layout": "single_systems", "rows": [
                {"corpus": CORPUS, "group": group, "system": to_string(tree),
                 "metrics": oracle_metrics(sets[group][GOLD_SOURCE], set_eval(tree, sets[group]))}
                for group in groups
            ]})
        # the vote lies between the all-& and the all-| ensembles
        for voted, anded, ored in zip(vote["rows"], evals[0]["rows"], evals[1]["rows"]):
            v, a, o = voted["metrics"], anded["metrics"], ored["metrics"]
            assert a["tp"] <= v["tp"] <= o["tp"] and a["fp"] <= v["fp"] <= o["fp"]
            assert a["fn"] >= v["fn"] >= o["fn"]


# A groups file and per-source overrides for the typed corpora below.  Two
# overrides beat the groups file's group of their type; no gold span lands
# in G3, and zeta's spans land in G1 only.
GROUP_LINES = ("GA|G1|T001|first type", "GA|G1|T002|second type", "GB|G2|T003|third type",
               "GC|G3|T004|fourth type")
OVERRIDES = (
    {"source": "A", "native_type": "T001", "group": "G2"},
    {"source": "B", "native_type": "b-x", "group": "G3"},
    {"source": "zeta", "native_type": "T003", "group": "G1"},
)
# The native types each source's spans carry (T999 and, for B, T002 map
# nowhere), and the own groups of its spans without one (None: no group).
NATIVE_TYPES = {
    GOLD_SOURCE: ("T001", "T002", "T003", "T999"),
    "A": ("T001", "T002", "T004", "T999"),
    "B": ("T001", "T002", "T003", "b-x"),
    "zeta": ("T002", "T003", "T999"),
}
OWN_GROUPS = {GOLD_SOURCE: ("G1", "G2", None), "A": ("G1", "G3", None), "B": ("G2", None),
              "zeta": ("G1", None)}
CUIS = ("C0000001", "C0000002", "C0000003")


@st.composite
def typed_corpora(draw):
    """(documents, records per source) of gold, A, B and zeta: 1-3
    documents of 1-25 characters and spans of up to 8, most of them typed.
    A typed span may carry a group of its own, which mapping replaces, even
    one outside the groups file; an untyped one keeps its own group, if it
    has one.  Spans sometimes carry a concept id."""
    lengths = draw(st.lists(st.integers(1, 25), min_size=1, max_size=3))
    documents = [(f"d{i}", n) for i, n in enumerate(lengths)]
    records = {source: [] for source in NATIVE_TYPES}
    for doc_id, length in documents:
        for source, spans in records.items():
            for _ in range(draw(st.integers(0, 4))):
                begin = draw(st.integers(0, length - 1))
                record = {"doc_id": doc_id, "source": source, "begin": begin,
                          "end": draw(st.integers(begin + 1, min(length, begin + 8)))}
                native = draw(st.sampled_from([*NATIVE_TYPES[source]] * 2 + [None]))
                own = OWN_GROUPS[source] if native is None else (None, None, "G2", "G9")
                fields = {"native_type": native, "group": draw(st.sampled_from(own)),
                          "cui": draw(st.sampled_from((*CUIS, None))),
                          "score": draw(st.sampled_from([None, 0.5, 0.9]))}
                record.update((key, value) for key, value in fields.items() if value is not None)
                spans.append(record)
    return documents, records


def mapped_corpus(directory: Path, systems, seed: int):
    """The groups file's groups in file order, the tally of dropped spans by
    (source, native type), and the spans kept after mapping and
    disambiguation with ``seed``, read from the raw files.  A typed span
    takes its source's override of its type, else the groups file's group of
    the type, else is dropped; an untyped span keeps its own group, or is
    dropped without one."""
    by_type, universe = {}, []
    for line in (directory / "groups.txt").read_text(encoding="utf-8").splitlines():
        _, group, type_id, _ = line.split("|")
        by_type[type_id] = group
        universe += [] if group in universe else [group]
    overrides = {}
    for line in (directory / "overrides.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        overrides[record["source"], record["native_type"]] = record["group"]
    documents = scan_manifest(directory / "manifest.jsonl")
    mapped, dropped = [], Counter()
    for source in (GOLD_SOURCE, *sorted(systems)):
        for a in scan_annotations(directory / f"{source}.jsonl", documents, source):
            group = a.group if a.native_type is None else overrides.get(
                (source, a.native_type), by_type.get(a.native_type))
            if group is None:
                dropped[source, a.native_type] += 1
            else:
                mapped.append(replace(a, group=group))
    spans = SpanColumns.from_annotations(mapped)
    keep = whole_run_disambiguation(spans, seed, exempt=(GOLD_SOURCE,))
    return universe, dropped, [a for a, k in zip(spans.annotations(), keep.tolist()) if k]


def doc_concept_metrics(gold: set, predicted: set) -> dict:
    """A cui-eval report's metrics object for (document, CUI) pairs: per
    CUI of either set, documents are the units; macro averages over CUIs."""
    per_label = {}
    for cui in sorted({c for _, c in gold | predicted}):
        g = {d for d, c in gold if c == cui}
        p = {d for d, c in predicted if c == cui}
        per_label[cui] = scalar_metrics(len(g & p), len(p - g), len(g - p))
    rows, k = per_label.values(), len(per_label)
    return {
        "macro_precision": sum(m.precision for m in rows) / k if k else 0.0,
        "macro_recall": sum(m.recall for m in rows) / k if k else 0.0,
        "macro_f1": sum(m.f1 for m in rows) / k if k else 0.0,
        "degenerate": any(m.degenerate for m in rows) if k else True,
        "per_label": per_label,
    }


def dropped_counts(note: str) -> tuple[int, Counter]:
    """The total and the per-(source, native type) counts a drop note names."""
    match = re.fullmatch(r"note: dropped (\d+) annotation\(s\) with unmapped semantic types "
                         r"\((.*)\)\n", note)
    assert match, note
    pairs = re.findall(r"([^ ,/]+)/([^:]+): (\d+)", match[2])
    return int(match[1]), Counter({(s, None if n == "(none)" else n): int(c) for s, n, c in pairs})


@settings(max_examples=40, deadline=None)
@given(typed_corpora(), st.integers(0, 2**16), st.data())
def test_group_mapped_reports_match_the_raw_files(corpus, seed, data):
    documents, records = corpus
    systems = [s for s in records if s != GOLD_SOURCE]
    tree = data.draw(st.sampled_from(list(enumerate_ensembles(sorted(systems), 2, 3))))
    operands = data.draw(st.permutations(systems))[: data.draw(st.integers(2, 3))]
    union = parse("|".join(operands))
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        config = write_corpus(directory, documents, records)
        (directory / "groups.txt").write_text("".join(line + "\n" for line in GROUP_LINES))
        (directory / "overrides.jsonl").write_text("".join(json.dumps(r) + "\n" for r in OVERRIDES))
        universe, dropped, kept = mapped_corpus(directory, systems, seed)
        base = ["--config", str(config), "--semgroups", str(directory / "groups.txt"),
                "--overrides", str(directory / "overrides.jsonl"), "--group", "each",
                "--seed", str(seed), "--format", "json"]
        reports, notes = [], []
        for run in (("ner-eval",), ("ensemble-eval", "--expr", to_string(tree)),
                    ("cui-eval", "--level", "doc", "--expr", to_string(union))):
            with contextlib.redirect_stderr(io.StringIO()) as err:
                reports.append(json.loads(run_report([*run, *base], directory / "report.json")))
            notes.append(err.getvalue())

    # the drop note names every dropped span by (source, native type), on each run
    for note in notes:
        assert (dropped_counts(note) if dropped else note) == (
            (sum(dropped.values()), dropped) if dropped else "")

    groups = sorted([*universe, ALL_GROUPS])  # the report's order
    sets, concepts = {}, {}
    for group in groups:
        in_group = [a for a in kept if group in (ALL_GROUPS, a.group)]
        sets[group] = {s: frozenset((a.doc_id, i) for a in in_group if a.source == s
                                    for i in range(a.begin, a.end)) for s in records}
        concepts[group] = {s: {(a.doc_id, a.cui) for a in in_group if a.source == s and a.cui}
                           for s in records}
    ner, ensemble, cui = reports
    assert ner == as_json({"layout": "single_systems", "rows": [
        {"corpus": CORPUS, "group": group, "system": system,
         "metrics": oracle_metrics(sets[group][GOLD_SOURCE], sets[group][system])}
        for group in groups for system in sorted(systems)
    ]})
    assert ensemble == as_json({"layout": "single_systems", "rows": [
        {"corpus": CORPUS, "group": group, "system": to_string(tree),
         "metrics": oracle_metrics(sets[group][GOLD_SOURCE], set_eval(tree, sets[group]))}
        for group in groups
    ]})
    rows = []
    for group in groups:
        gold = concepts[group][GOLD_SOURCE]
        predicted = set().union(*(concepts[group][s] for s in operands))
        rows.append({"corpus": CORPUS, "group": group, "level": "doc", "kind": "ensemble",
                     "combination": to_string(union),
                     "metrics": doc_concept_metrics(gold, predicted)})
        rows += [{"corpus": CORPUS, "group": group, "level": "doc", "kind": "single",
                  "combination": s, "metrics": doc_concept_metrics(gold, concepts[group][s])}
                 for s in sorted(operands)]
    assert cui == as_json({"layout": "cui", "rows": rows})
