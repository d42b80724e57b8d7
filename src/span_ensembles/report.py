"""Result tables: single systems, ensemble panels, majority vote, concept
matching, complementarity.

Markdown output rounds to 2 decimals for display; CSV and JSON keep full
precision and the raw counts, so anything reported can be recomputed exactly.
Row order is deterministic everywhere: (corpus, group, combination), except
complementarity, which keeps the order its rows are given in.

A JSON report is exactly ``json.dumps(payload, indent=2, sort_keys=True)``
of its layout's payload, but not written by ``json``'s indented encoder,
which is pure Python.  Each metrics object is filled into one fixed
template per indentation depth; strings go through the C
``json.encoder.encode_basestring_ascii``, ints through ``int.__repr__``
and floats by ``json``'s own rule: ``float.__repr__``, or ``NaN``,
``Infinity`` and ``-Infinity`` for the values that have no finite text.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Optional, Sequence

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


def _cui_object(m: CuiMetricsResult) -> dict:
    return {
        "macro_precision": m.macro_precision,
        "macro_recall": m.macro_recall,
        "macro_f1": m.macro_f1,
        "degenerate": m.degenerate,
        "per_label": dict(m.per_label),
    }


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


_METRIC_MEMBERS = (
    '"ci_f1": %s', '"ci_precision": %s', '"ci_recall": %s', '"degenerate": %s',
    '"f1": %s', '"fn": %d', '"fp": %d', '"n_gold": %d', '"n_pred": %d',
    '"precision": %s', '"recall": %s', '"tp": %d',
)


def _block(opening: str, closing: str, members: Sequence[str], depth: int) -> str:
    """An indented JSON object or array at ``depth`` (two spaces a level)."""
    if not members:
        return opening + closing
    inner = "\n" + "  " * (depth + 1)
    return f"{opening}{inner}{(',' + inner).join(members)}\n{'  ' * depth}{closing}"


@lru_cache(maxsize=None)
def _metrics_template(depth: int) -> tuple[str, str]:
    """A metrics object at ``depth`` (its counts as %d, every other member as
    %s) and one of its [lo, hi] intervals."""
    return _block("{", "}", _METRIC_MEMBERS, depth), _block("[", "]", ("%s", "%s"), depth + 1)


def _float_json(value: float) -> str:
    """A float as ``json`` writes it."""
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


def _metrics_json(m: MetricsResult, depth: int) -> str:
    template, interval = _metrics_template(depth)
    cells = [
        interval % (_float_json(ci[0]), _float_json(ci[1])) if ci else "null"
        for ci in (m.ci_f1, m.ci_precision, m.ci_recall)
    ]
    return template % (
        *cells, "true" if m.degenerate else "false", _float_json(m.f1),
        m.fn, m.fp, m.n_gold, m.n_pred, _float_json(m.precision), _float_json(m.recall), m.tp,
    )


def _json_value(value, depth: int) -> str:
    """``value`` as ``json.dumps(indent=2, sort_keys=True)`` writes it at
    ``depth``; a MetricsResult is written as its 12 fields."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_json(value)
    if isinstance(value, MetricsResult):
        return _metrics_json(value, depth)
    if isinstance(value, (list, tuple)):
        return _block("[", "]", [_json_value(v, depth + 1) for v in value], depth)
    if isinstance(value, dict):
        members = [
            f"{encode_basestring_ascii(k)}: {_json_value(v, depth + 1)}"
            for k, v in sorted(value.items())
        ]
        return _block("{", "}", members, depth)
    raise TypeError(f"{type(value).__name__} is not written to JSON reports")


def _json_text(layout: str, rows: Iterable, key: str = "rows") -> str:
    """``json.dumps({"layout": layout, key: rows}, indent=2, sort_keys=True)``,
    with every MetricsResult written as its fields.  The rendered rows are
    joined into the report once: nesting them in blocks would copy the
    whole report at each level, and the copies raise peak memory."""
    rendered = [_json_value(row, 2) for row in rows]
    if not rendered:
        return _json_value({"layout": layout, key: []}, 0)
    # the outline around one row; no layout name holds "null"
    head, tail = _json_value({"layout": layout, key: [None]}, 0).split("null")
    rendered[0] = head + rendered[0]
    rendered[-1] += tail
    return ",\n    ".join(rendered)


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
    return _json_text(ENSEMBLE_PANELS, map(_panel_object, ordered), key="blocks")


def _panel_object(block: PanelBlock) -> dict:
    result = block.result

    def items(seq):
        return [{"combination": s.expression, "size": s.size, "metrics": s.metrics} for s in seq]

    return {
        "corpus": block.corpus,
        "group": block.group,
        "by_f1": items(result.by_f1),
        "by_precision": items(result.by_precision),
        "by_recall": items(result.by_recall),
        "pareto": items(result.pareto),
        "beating_all_singles": items(result.beating_all_singles),
        "singles": dict(result.singles),
    }


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
            "metrics": r.metrics,
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
            "metrics": r.metrics,
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
            "metrics": _cui_object(r.metrics),
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
            "restricted": r.restricted,
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
    return _json_text(layout, map(table.json_object, rows))
