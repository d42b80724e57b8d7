"""JSON reports are ``json.dumps(payload, indent=2, sort_keys=True)``.

``report._json_text`` writes them from fixed templates, C-encoded strings
and ``json``'s float rule.  Here it is compared with
``json.dumps`` itself on random rows of every layout: any float (NaN, the
infinities, -0.0, subnormals, and 1e-4 and 1e16 with their neighbours),
any string (non-ASCII, astral, control characters, DEL, quotes and
backslashes), missing intervals, and empty lists and label maps.
"""

from __future__ import annotations

import json
import math

from hypothesis import given
from hypothesis import strategies as st

from span_ensembles import CuiMetricsResult, MetricsResult, ScoredEnsemble, SearchResult
from span_ensembles import report
from span_ensembles.report import (
    CUI,
    COMPLEMENTARITY,
    ENSEMBLE_PANELS,
    SINGLE_SYSTEMS,
    VOTE,
    ComplementarityRow,
    CuiRow,
    PanelBlock,
    SystemRow,
    VoteRow,
)
from conftest import metrics_json_default

# where float.__repr__ switches to exponent form, and their neighbours
EDGES = [
    x
    for edge in (1e-4, 1e16)
    for x in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf))
] + [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 1e300, -1e-4, -1e16,
     math.nan, math.inf, -math.inf, 0.1, 1 / 3, 1e15, 9007199254740993.0]

FLOATS = st.one_of(st.floats(), st.sampled_from(EDGES), st.floats(0, 1))
TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\x80 \ud800\U0001f600é'))
)
INTS = st.integers(-(2**70), 2**70)


@st.composite
def metrics(draw) -> MetricsResult:
    interval = st.one_of(st.none(), st.tuples(FLOATS, FLOATS))
    return MetricsResult(
        tp=draw(INTS), fp=draw(INTS), fn=draw(INTS),
        precision=draw(FLOATS), recall=draw(FLOATS), f1=draw(FLOATS),
        n_gold=draw(INTS), n_pred=draw(INTS),
        ci_precision=draw(interval), ci_recall=draw(interval), ci_f1=draw(interval),
        degenerate=draw(st.booleans()),
    )


def cui_metrics():
    return st.builds(
        CuiMetricsResult,
        per_label=st.dictionaries(TEXT, metrics(), max_size=3),
        macro_precision=FLOATS, macro_recall=FLOATS, macro_f1=FLOATS, degenerate=st.booleans(),
    )


def scored():
    return st.lists(st.builds(ScoredEnsemble, TEXT, INTS, metrics()), max_size=3)


def search_results():
    return st.builds(
        SearchResult,
        group=TEXT, by_f1=scored(), by_precision=scored(), by_recall=scored(), pareto=scored(),
        singles=st.dictionaries(TEXT, metrics(), max_size=3), beating_all_singles=scored(),
    )


ROWS = {
    SINGLE_SYSTEMS: st.builds(SystemRow, TEXT, TEXT, TEXT, metrics()),
    VOTE: st.builds(VoteRow, TEXT, TEXT, st.lists(TEXT, max_size=3).map(tuple), metrics()),
    CUI: st.builds(CuiRow, TEXT, TEXT, TEXT, TEXT, TEXT, cui_metrics()),
    COMPLEMENTARITY: st.builds(ComplementarityRow, TEXT, TEXT, TEXT, TEXT, FLOATS, metrics()),
    ENSEMBLE_PANELS: st.builds(PanelBlock, TEXT, TEXT, search_results()),
}


def json_object(layout):
    if layout == ENSEMBLE_PANELS:
        return report._panel_object
    return report._TABLES[layout].json_object


@given(st.data())
def test_json_text_is_json_dumps(data):
    layout = data.draw(st.sampled_from(sorted(ROWS)), label="layout")
    rows = data.draw(st.lists(ROWS[layout], max_size=3), label="rows")
    key = "blocks" if layout == ENSEMBLE_PANELS else "rows"
    objects = [json_object(layout)(r) for r in rows]
    expected = json.dumps(
        {"layout": layout, key: objects}, indent=2, sort_keys=True, default=metrics_json_default
    )
    assert report._json_text(layout, objects, key) == expected


@given(st.lists(FLOATS, max_size=40))
def test_float_json_is_json_dumps(floats):
    assert [report._float_json(x) for x in EDGES + floats] == [json.dumps(x) for x in EDGES + floats]
