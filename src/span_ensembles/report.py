"""Result tables: single systems, ensemble panels, majority vote, concept
matching, complementarity.

Markdown output rounds to 2 decimals for display; CSV and JSON keep full
precision and the raw counts, so anything reported can be recomputed exactly.
Row order is deterministic everywhere: (corpus, group, combination), except
complementarity, which keeps the order its rows are given in.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Optional, Sequence

from .errors import ConfigError
from .metrics import CuiMetricsResult, MetricsResult
from .search import ScoredEnsemble, SearchResult

SINGLE_SYSTEMS = "single_systems"
ENSEMBLE_PANELS = "ensemble_panels"
VOTE = "vote"
CUI = "cui"
COMPLEMENTARITY = "complementarity"

CSV_FORMAT = "csv"
MARKDOWN_FORMAT = "markdown"
JSON_FORMAT = "json"

METRIC_COLUMNS = (
    "p",
    "r",
    "f1",
    "p_lo",
    "p_hi",
    "r_lo",
    "r_hi",
    "f1_lo",
    "f1_hi",
    "tp",
    "fp",
    "fn",
    "n_gold",
    "n_pred",
    "degenerate",
)
METRIC_HEADER = ("corpus", "group", "combination", *METRIC_COLUMNS)


@dataclass(frozen=True)
class SystemRow:
    corpus: str
    group: str
    system: str
    metrics: MetricsResult


@dataclass(frozen=True)
class PanelBlock:
    corpus: str
    group: str
    result: SearchResult


@dataclass(frozen=True)
class VoteRow:
    corpus: str
    group: str
    systems: tuple[str, ...]
    metrics: MetricsResult


@dataclass(frozen=True)
class CuiRow:
    corpus: str
    group: str
    level: str  # "doc" | "mention"
    combination: str
    kind: str  # "ensemble" | "single"
    metrics: CuiMetricsResult


@dataclass(frozen=True)
class ComplementarityRow:
    corpus: str
    group: str
    system_a: str
    system_b: str
    comp_rate: float  # percent of A's error characters B gets right
    restricted: MetricsResult  # B scored on A's error characters


def _num(value: float) -> str:
    return repr(float(value))


def _interval_cells(interval: Optional[tuple[float, float]]) -> list[str]:
    if interval is None:
        return ["", ""]
    return [_num(interval[0]), _num(interval[1])]


def _metric_cells(m: MetricsResult) -> list[str]:
    return [
        _num(m.precision),
        _num(m.recall),
        _num(m.f1),
        *_interval_cells(m.ci_precision),
        *_interval_cells(m.ci_recall),
        *_interval_cells(m.ci_f1),
        str(m.tp),
        str(m.fp),
        str(m.fn),
        str(m.n_gold),
        str(m.n_pred),
        str(m.degenerate).lower(),
    ]


def metrics_to_dict(m: MetricsResult) -> dict:
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


def cui_metrics_to_dict(m: CuiMetricsResult) -> dict:
    return {
        "macro_precision": m.macro_precision,
        "macro_recall": m.macro_recall,
        "macro_f1": m.macro_f1,
        "degenerate": m.degenerate,
        "per_label": {label: metrics_to_dict(res) for label, res in sorted(m.per_label.items())},
    }


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# Tokens of the indented JSON encoder joined at a time.
JSON_BATCH = 4096


def _json_text(layout: str, rows: list, key: str = "rows") -> str:
    """``json.dumps(..., indent=2, sort_keys=True)``, joined in batches: the
    indented encoder is pure Python and yields a small string per token, and
    holding them all until one join left a few MB of them scattered over the
    allocator's arenas, so a process's peak memory grew by steps from call to
    call."""
    tokens = json.JSONEncoder(indent=2, sort_keys=True).iterencode({"layout": layout, key: rows})
    return "".join("".join(batch) for batch in iter(lambda: list(islice(tokens, JSON_BATCH)), []))


def _md_cell(text: str) -> str:
    # expression strings carry '|' which would break pipe tables
    return text.replace("|", "\\|")


def _markdown_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = ["| " + " | ".join(_md_cell(h) for h in header) + " |"]
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(_md_cell(c) for c in row) + " |")
    return "\n".join(lines) + "\n"


def _fmt2(value: float) -> str:
    return f"{value:.2f}"


def _md_metrics(m: MetricsResult) -> list[str]:
    return [_fmt2(m.precision), _fmt2(m.recall), _fmt2(m.f1)]


def _search_table_rows(blocks: Sequence[PanelBlock]) -> list[list[str]]:
    """Flattened, deduplicated rows of every ensemble a search reported."""
    rows = []
    for block in sorted(blocks, key=lambda b: (b.corpus, b.group)):
        result = block.result
        seen: dict[str, ScoredEnsemble] = {}
        for item in (
            *result.by_f1,
            *result.by_precision,
            *result.by_recall,
            *result.pareto,
            *result.beating_all_singles,
        ):
            seen.setdefault(item.expression, item)
        for expression, metrics in result.singles.items():
            seen.setdefault(expression, ScoredEnsemble(expression, 1, metrics))
        for expression in sorted(seen):
            item = seen[expression]
            rows.append([block.corpus, block.group, expression] + _metric_cells(item.metrics))
    return rows


def _emit_ensemble_panels(blocks: Sequence[PanelBlock], fmt: str) -> str:
    ordered = sorted(blocks, key=lambda b: (b.corpus, b.group))
    if fmt == CSV_FORMAT:
        return _csv_text(METRIC_HEADER, _search_table_rows(ordered))
    if fmt == MARKDOWN_FORMAT:
        header = ["Corpus", "Group"]
        for panel in ("Highest F1-score", "Highest precision", "Highest recall"):
            header += [f"{panel}: combination", "p", "r", "F1"]
        data = []
        for block in ordered:
            row = [block.corpus, block.group]
            for ranked in (block.result.by_f1, block.result.by_precision, block.result.by_recall):
                if ranked:
                    top = ranked[0]
                    row += [top.expression, *_md_metrics(top.metrics)]
                else:
                    row += ["", "", "", ""]
            data.append(row)
        text = "## Boolean combination ensemble performance\n\n"
        text += _markdown_table(header, data)
        text += "\n### Ensembles beating all single systems\n\n"
        beat_header = ["Corpus", "Group", "Combination", "p", "r", "F1"]
        beat_rows = []
        for block in ordered:
            for item in block.result.beating_all_singles:
                beat_rows.append(
                    [block.corpus, block.group, item.expression, *_md_metrics(item.metrics)]
                )
        if beat_rows:
            text += _markdown_table(beat_header, beat_rows)
        else:
            text += "(none)\n"
        text += "\n### Single system baselines\n\n"
        single_rows = []
        for block in ordered:
            for system, metrics in block.result.singles.items():
                single_rows.append(
                    [block.corpus, block.group, system, *_md_metrics(metrics)]
                )
        text += _markdown_table(["Corpus", "Group", "System", "p", "r", "F1"], single_rows)
        return text
    payload = []
    for block in ordered:
        result = block.result

        def items(seq):
            return [
                {"combination": s.expression, "size": s.size, "metrics": metrics_to_dict(s.metrics)}
                for s in seq
            ]

        payload.append(
            {
                "corpus": block.corpus,
                "group": block.group,
                "by_f1": items(result.by_f1),
                "by_precision": items(result.by_precision),
                "by_recall": items(result.by_recall),
                "pareto": items(result.pareto),
                "beating_all_singles": items(result.beating_all_singles),
                "singles": {
                    name: metrics_to_dict(m) for name, m in sorted(result.singles.items())
                },
            }
        )
    return _json_text(ENSEMBLE_PANELS, payload, key="blocks")


@dataclass(frozen=True)
class _Table:
    """One flat layout: each row is one csv line, one markdown line and one
    JSON object, in ``order`` (None keeps the order the rows are given in)."""

    title: str
    csv_header: tuple[str, ...]
    markdown_header: tuple[str, ...]
    order: Optional[Callable]
    csv_cells: Callable
    markdown_cells: Callable
    json_object: Callable


_TABLES = {
    SINGLE_SYSTEMS: _Table(
        title="Individual system performance",
        csv_header=METRIC_HEADER,
        markdown_header=("Corpus", "Group", "System", "n", "p", "r", "F1"),
        order=lambda r: (r.corpus, r.group, r.system),
        csv_cells=lambda r: [r.corpus, r.group, r.system, *_metric_cells(r.metrics)],
        markdown_cells=lambda r: [
            r.corpus, r.group, r.system, str(r.metrics.n_gold), *_md_metrics(r.metrics)
        ],
        json_object=lambda r: {
            "corpus": r.corpus,
            "group": r.group,
            "system": r.system,
            "metrics": metrics_to_dict(r.metrics),
        },
    ),
    VOTE: _Table(
        title="Majority vote ensemble performance",
        csv_header=METRIC_HEADER,
        markdown_header=("Corpus", "Group", "Systems", "p", "r", "F1"),
        order=lambda r: (r.corpus, r.group),
        csv_cells=lambda r: [
            r.corpus, r.group, "majority(" + ",".join(r.systems) + ")", *_metric_cells(r.metrics)
        ],
        markdown_cells=lambda r: [r.corpus, r.group, ",".join(r.systems), *_md_metrics(r.metrics)],
        json_object=lambda r: {
            "corpus": r.corpus,
            "group": r.group,
            "systems": list(r.systems),
            "metrics": metrics_to_dict(r.metrics),
        },
    ),
    CUI: _Table(
        title="Concept matching performance",
        csv_header=(
            "corpus", "group", "level", "kind", "combination", "p", "r", "f1", "degenerate"
        ),
        markdown_header=("Corpus", "Group", "Level", "Kind", "Combination", "p", "r", "Macro F1"),
        order=lambda r: (r.corpus, r.group, r.level, r.kind, r.combination),
        csv_cells=lambda r: [
            r.corpus, r.group, r.level, r.kind, r.combination,
            _num(r.metrics.macro_precision), _num(r.metrics.macro_recall),
            _num(r.metrics.macro_f1), str(r.metrics.degenerate).lower(),
        ],
        markdown_cells=lambda r: [
            r.corpus, r.group, r.level, r.kind, r.combination,
            _fmt2(r.metrics.macro_precision), _fmt2(r.metrics.macro_recall),
            _fmt2(r.metrics.macro_f1),
        ],
        json_object=lambda r: {
            "corpus": r.corpus,
            "group": r.group,
            "level": r.level,
            "kind": r.kind,
            "combination": r.combination,
            "metrics": cui_metrics_to_dict(r.metrics),
        },
    ),
    COMPLEMENTARITY: _Table(
        title="Complementarity",
        csv_header=(
            "corpus", "group", "system_a", "system_b", "comp_rate", "p", "r", "f1", "tp", "fp", "fn"
        ),
        markdown_header=("Corpus", "Group", "A", "B", "comp rate %", "p", "r", "F1"),
        order=None,
        csv_cells=lambda r: [
            r.corpus, r.group, r.system_a, r.system_b, _num(r.comp_rate),
            *map(_num, (r.restricted.precision, r.restricted.recall, r.restricted.f1)),
            *map(str, (r.restricted.tp, r.restricted.fp, r.restricted.fn)),
        ],
        markdown_cells=lambda r: [
            r.corpus, r.group, r.system_a, r.system_b, _fmt2(r.comp_rate),
            *_md_metrics(r.restricted),
        ],
        json_object=lambda r: {
            "corpus": r.corpus,
            "group": r.group,
            "system_a": r.system_a,
            "system_b": r.system_b,
            "comp_rate": r.comp_rate,
            "restricted": metrics_to_dict(r.restricted),
        },
    ),
}


def emit_table(results: Sequence, layout: str, fmt: str = CSV_FORMAT) -> str:
    """Render results in one of the five table layouts.

    ``results`` must match the layout: SystemRow for SINGLE_SYSTEMS,
    PanelBlock for ENSEMBLE_PANELS, VoteRow for VOTE, CuiRow for CUI,
    ComplementarityRow for COMPLEMENTARITY.
    """
    if fmt not in (CSV_FORMAT, MARKDOWN_FORMAT, JSON_FORMAT):
        raise ConfigError(f"unknown output format {fmt!r}")
    if layout == ENSEMBLE_PANELS:
        return _emit_ensemble_panels(results, fmt)
    if layout not in _TABLES:
        raise ConfigError(f"unknown table layout {layout!r}")
    table = _TABLES[layout]
    rows = results if table.order is None else sorted(results, key=table.order)
    if fmt == CSV_FORMAT:
        return _csv_text(table.csv_header, [table.csv_cells(r) for r in rows])
    if fmt == MARKDOWN_FORMAT:
        body = _markdown_table(table.markdown_header, [table.markdown_cells(r) for r in rows])
        return f"## {table.title}\n\n" + body
    return _json_text(layout, [table.json_object(r) for r in rows])
