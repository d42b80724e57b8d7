"""Traced mode: spans and counts around calls into the program's layers.

The tracer wraps public functions of the program from outside: every module
attribute of the ``span_ensembles`` package bound to a wrapped function is
replaced while a traced round runs and restored afterwards, so ``src/`` is
never changed.  Each call records a span (name, start, end, parent); a
layer's self time is its spans' duration minus the time of its child spans.
The sum of all self times is the traced round's wall time, and the gap to an
untraced round is the tracing overhead.

A function a commit no longer has is left out (its layer reads 0), and a
count that cannot be read from a commit's arguments or result adds 0, so a
refactor of the program never turns a traced call into a failed operation.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

PACKAGE = "span_ensembles"

# span name -> (module, attribute) pairs of the functions it covers.
SPANS = {
    "cli.main": [("cli", "main")],
    "cli.setup": [("cli", "_build_store")],
    "ingest.load": [("ingest", "load_corpus_manifest"), ("ingest", "load_annotations")],
    "ingest.group_map": [("ingest", "load_semantic_group_map"), ("ingest", "apply_group_mapping")],
    "ingest.disambiguate": [("ingest", "disambiguate_overlaps")],
    "model.filter": [("model", "filter_by_group")],
    "expr.enumerate": [("expr", "enumerate_ensembles")],
    "search.grid_search": [("search", "grid_search")],
    "search.tasks": [("search", "corpus_masks"), ("search", "evaluate_expression"),
                     ("search", "majority_vote_eval"), ("search", "cui_ensemble_eval")],
    "metrics.confusion": [("metrics", "confusion_counts")],
    "metrics.char_prf": [("metrics", "char_prf")],
    "metrics.cui_prf": [("metrics", "doc_level_cui_prf"), ("metrics", "mention_level_cui_prf")],
    "masks.char_mask": [("masks", "to_char_mask")],
    "masks.vote": [("masks", "majority_vote")],
    "masks.cui_mask": [("masks", "to_cui_mask"), ("masks", "merge_cui_layers")],
    "complementarity.error_set": [("complementarity", "error_set")],
    "complementarity.comp": [("complementarity", "comp_rate"), ("complementarity", "comp_prf")],
    "report.emit": [("report", "emit_table")],
}


def _removed(args, result) -> int:
    return len(args[0]) - len(result)


# (module, attribute) -> (counter, function of (args, result) giving the increment).
COUNTS = {
    ("ingest", "load_annotations"): ("ingest.records", lambda args, result: len(result)),
    ("ingest", "disambiguate_overlaps"): ("ingest.spans_removed", _removed),
    ("ingest", "apply_group_mapping"): ("ingest.dropped", lambda args, result: result.dropped),
    ("expr", "enumerate_ensembles"): ("expr.ensembles", lambda args, result: len(result)),
    # SearchResult.evaluated holds every scored ensemble; it reads 0 once a
    # commit streams the search instead of keeping them.
    ("search", "grid_search"): ("search.ensembles_scored",
                                lambda args, result: len(getattr(result, "evaluated", ()))),
}

# per-layer metric -> span whose self time it reports
SELF_TIMES = {
    "ingest.load_s": "ingest.load",
    "ingest.group_map_s": "ingest.group_map",
    "ingest.disambiguate_s": "ingest.disambiguate",
    "model.store_s": "model.store",
    "model.filter_s": "model.filter",
    "expr.enumerate_s": "expr.enumerate",
    "metrics.confusion_s": "metrics.confusion",
    "metrics.char_prf_s": "metrics.char_prf",
    "metrics.cui_prf_s": "metrics.cui_prf",
    "search.grid_search.self_s": "search.grid_search",
    "search.tasks.self_s": "search.tasks",
    "masks.char_mask_s": "masks.char_mask",
    "masks.vote_s": "masks.vote",
    "masks.cui_mask_s": "masks.cui_mask",
    "complementarity.error_set_s": "complementarity.error_set",
    "complementarity.comp_s": "complementarity.comp",
    "report.emit_s": "report.emit",
    "cli.setup.self_s": "cli.setup",
    "cli.main.self_s": "cli.main",
}
CALLS = {
    "model.filter_calls": "model.filter",
    "metrics.confusion_calls": "metrics.confusion",
    "masks.char_mask_calls": "masks.char_mask",
}


class Tracer:
    """Spans and counts of the calls made while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent index)
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._bindings: list | None = None

    def _wrap(self, name: str, fn, counter=None, skip_under: str | None = None):
        nid = len(self.names)
        self.names.append(name)
        spans, open_, counts = self.spans, self._open, self.counts
        names = self.names

        def traced(*args, **kwargs):
            if skip_under is not None and open_ and names[spans[open_[-1]][0]] == skip_under:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append((nid, 0.0, 0.0, open_[-1] if open_ else -1))
            open_.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                spans[idx] = (nid, start, end, spans[idx][3])
            if counter is not None:
                try:
                    counts[counter[0]] += counter[1](args, result)
                except (AttributeError, TypeError, IndexError):
                    pass
            return result

        return traced

    def _plan(self) -> list:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        plan = []
        for name, targets in SPANS.items():
            for target in targets:
                original = getattr(sys.modules.get(f"{PACKAGE}.{target[0]}"), target[1], None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original, COUNTS.get(target))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            plan.append((module, key, original, wrapper))
        # Store construction inside filter_by_group is part of filtering.
        store_cls = getattr(sys.modules.get(f"{PACKAGE}.model"), "AnnotationStore", None)
        if store_cls is not None:
            original_init = store_cls.__init__
            plan.append((store_cls, "__init__", original_init,
                         self._wrap("model.store", original_init, skip_under="model.filter")))
        return plan

    def install(self) -> None:
        if self._bindings is None:
            self._bindings = self._plan()
        for owner, key, _, wrapper in self._bindings:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._bindings or ():
            setattr(owner, key, original)

    def round_metrics(self) -> dict[str, float]:
        """Self times and counts of the spans recorded since the last call."""
        self_time = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        by_name: Counter = Counter()
        calls: Counter = Counter()
        for (nid, _, _, _), t in zip(self.spans, self_time):
            by_name[self.names[nid]] += t
            calls[self.names[nid]] += 1
        out = {metric: float(by_name[span]) for metric, span in SELF_TIMES.items()}
        out.update({metric: calls[span] for metric, span in CALLS.items()})
        for metric in ("ingest.records", "ingest.spans_removed", "ingest.dropped",
                       "expr.ensembles", "search.ensembles_scored"):
            out[metric] = self.counts[metric]
        out["trace.wall_s"] = sum(by_name.values())
        return out

    def take_spans(self) -> list:
        """The recorded spans as (name, start, end, parent); clears them and the counts."""
        spans = [(self.names[nid], start, end, parent) for nid, start, end, parent in self.spans]
        self.spans.clear()
        self.counts.clear()
        return spans
