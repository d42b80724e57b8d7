"""Output checks: every report of a round against the reference figures and
against properties the method must have.  Each function returns a list of
problems; an operation whose list is not empty counts as failed.
"""

from __future__ import annotations

import re

EPS = 1e-12


def metric_problems(m: dict, where: str) -> list[str]:
    """Count identities, PRF from the counts, intervals around their points."""
    out = []
    tp, fp, fn, n_gold, n_pred = m["tp"], m["fp"], m["fn"], m["n_gold"], m["n_pred"]
    if min(tp, fp, fn) < 0:
        out.append(f"{where}: negative count")
    if tp + fn != n_gold:
        out.append(f"{where}: tp+fn={tp + fn} != n_gold={n_gold}")
    if tp + fp != n_pred:
        out.append(f"{where}: tp+fp={tp + fp} != n_pred={n_pred}")
    p, r = m["precision"], m["recall"]
    if p != (tp / (tp + fp) if tp + fp else 0.0):
        out.append(f"{where}: precision {p} does not follow from the counts")
    if r != (tp / (tp + fn) if tp + fn else 0.0):
        out.append(f"{where}: recall {r} does not follow from the counts")
    if m["f1"] != (2 * p * r / (p + r) if p + r else 0.0):
        out.append(f"{where}: f1 {m['f1']} does not follow from p and r")
    n_f1 = 2 * tp + fp + fn
    for key, point, n in (("ci_precision", p, tp + fp), ("ci_recall", r, tp + fn),
                          ("ci_f1", 2 * tp / n_f1 if n_f1 else 0.0, n_f1)):
        ci = m[key]
        if not n:
            if ci is not None:
                out.append(f"{where}: {key} given with a zero denominator")
        elif ci is None or not (0.0 <= ci[0] <= point + EPS and point - EPS <= ci[1] <= 1.0):
            out.append(f"{where}: {key} {ci} does not contain {point}")
    if m["degenerate"] != (tp + fp == 0 or tp + fn == 0 or p + r == 0):
        out.append(f"{where}: degenerate flag {m['degenerate']} is wrong")
    return out


def _counts(m: dict) -> list[int]:
    return [m["tp"], m["fp"], m["fn"]]


def _gold_problems(m: dict, ref: dict, group: str, where: str) -> list[str]:
    if m["n_gold"] != ref["gold_chars"][group]:
        return [f"{where}: n_gold {m['n_gold']} != gold characters {ref['gold_chars'][group]}"]
    return []


def _against_reference(m: dict, ref: dict, group: str, name: str, where: str) -> list[str]:
    """n_gold against the gold count; counts of clean expressions exactly."""
    out = _gold_problems(m, ref, group, where)
    wanted = ref["char"][group].get(name)
    if wanted is not None and _counts(m) != wanted:
        out.append(f"{where}: counts {_counts(m)} != reference {wanted}")
    return out


def _groups_problems(found: list[str], wanted: list[str], what: str) -> list[str]:
    if sorted(found) != sorted(wanted):
        return [f"{what}: groups {sorted(found)} != {sorted(wanted)}"]
    return []


def single_systems(report: dict, ref: dict, names: list[str]) -> list[str]:
    """ner-eval and ensemble-eval: one row per (group, name)."""
    out = []
    rows = report["rows"]
    got = sorted((r["group"], r["system"]) for r in rows)
    want = sorted((g, n) for g in ref["groups"] for n in names)
    if got != want:
        out.append(f"rows {got[:6]}... != expected {want[:6]}...")
    for r in rows:
        where = f"{r['group']}/{r['system']}"
        out += metric_problems(r["metrics"], where)
        out += _against_reference(r["metrics"], ref, r["group"], r["system"], where)
    return out


def pareto_problems(front: list, rows: list, where: str) -> list[str]:
    out = []
    for name, m in front:
        for other, o in rows:
            if o["precision"] > m["precision"] and o["recall"] > m["recall"]:
                out.append(f"{where}: Pareto row {name} is dominated by {other}")
                break
    return out


def search_panels(report: dict, ref: dict, systems: list[str], groups: list[str]) -> list[str]:
    """Ranked lists, Pareto set, singles and beating-all-singles per group."""
    blocks = report["blocks"]
    out = _groups_problems([b["group"] for b in blocks], groups, "search")
    for b in blocks:
        group = b["group"]
        if sorted(b["singles"]) != sorted(systems):
            out.append(f"{group}: singles {sorted(b['singles'])} != {sorted(systems)}")
        rows = [(name, m) for name, m in b["singles"].items()]
        for key in ("by_f1", "by_precision", "by_recall", "pareto", "beating_all_singles"):
            rows += [(item["combination"], item["metrics"]) for item in b[key]]
        for name, m in rows:
            out += metric_problems(m, f"{group}/{name}")
            out += _against_reference(m, ref, group, name, f"{group}/{name}")
        for key, metric in (("by_f1", "f1"), ("by_precision", "precision"), ("by_recall", "recall")):
            order = [(-item["metrics"][metric], item["combination"]) for item in b[key]]
            if order != sorted(order):
                out.append(f"{group}: {key} is not ranked")
        out += pareto_problems(
            [(i["combination"], i["metrics"]) for i in b["pareto"]], rows, group
        )
        for item in b["beating_all_singles"]:
            m = item["metrics"]
            for name, s in b["singles"].items():
                if not (m["f1"] > s["f1"] and m["precision"] > s["precision"]
                        and m["recall"] > s["recall"]):
                    out.append(f"{group}: {item['combination']} does not beat single {name}")
    return out


def _by_group(report: dict) -> dict:
    return {r["group"]: r["metrics"] for r in report["rows"]}


def vote(report: dict, ref: dict, all_and: dict, all_or: dict) -> list[str]:
    """Majority vote lies between the all-& and the all-| ensembles."""
    out = _groups_problems([r["group"] for r in report["rows"]], ref["groups"], "vote")
    lower, upper = _by_group(all_and), _by_group(all_or)
    for r in report["rows"]:
        group, m = r["group"], r["metrics"]
        out += metric_problems(m, f"vote/{group}")
        out += _gold_problems(m, ref, group, f"vote/{group}")
        for key in ("tp", "n_pred"):
            if not lower[group][key] <= m[key] <= upper[group][key]:
                out.append(f"vote/{group}: {key} {m[key]} outside "
                           f"[{lower[group][key]}, {upper[group][key]}]")
    return out


def complementarity(report: dict, ref: dict, systems: list[str], ner: dict) -> list[str]:
    """Rates in [0, 100]; B restricted to A's errors has tp+fn = A's fn."""
    out = []
    rows = report["rows"]
    if len(rows) != len(ref["groups"]) * len(systems) * (len(systems) - 1):
        out.append(f"complementarity: {len(rows)} rows")
    fn_of = {(r["group"], r["system"]): r["metrics"]["fn"] for r in ner["rows"]}
    for r in rows:
        group, a, b = r["group"], r["system_a"], r["system_b"]
        where = f"comp/{group}/{a},{b}"
        rate, m = r["comp_rate"], r["restricted"]
        if not 0.0 <= rate <= 100.0:
            out.append(f"{where}: rate {rate} outside [0, 100]")
        out += metric_problems(m, where)
        if m["tp"] + m["fn"] != fn_of[(group, a)]:
            out.append(f"{where}: restricted tp+fn {m['tp'] + m['fn']} != fn of {a}")
        wanted = ref["comp_rate"][group].get(f"{a},{b}")
        if wanted is not None and abs(rate - wanted) > 1e-9:
            out.append(f"{where}: rate {rate} != reference {wanted}")
    return out


def cui(report: dict, ref: dict, level: str, expression: str, operands: list[str]) -> list[str]:
    """Macro averages from the per-concept rows; clean rows against the reference."""
    rows = report["rows"]
    got = sorted((r["group"], r["kind"], r["combination"]) for r in rows)
    want = sorted([(g, "ensemble", expression) for g in ref["groups"]]
                  + [(g, "single", s) for g in ref["groups"] for s in operands])
    out = [] if got == want else [f"cui rows {got[:4]}... != {want[:4]}..."]
    table = ref["cui_doc" if level == "doc" else "cui_mention"]
    for r in rows:
        group, m = r["group"], r["metrics"]
        where = f"cui-{level}/{group}/{r['combination']}"
        if r["level"] != level:
            out.append(f"{where}: level {r['level']}")
        labels = m["per_label"]
        for label, lm in labels.items():
            out += metric_problems(lm, f"{where}/{label}")
        k = len(labels)
        for key, metric in (("macro_precision", "precision"), ("macro_recall", "recall"),
                            ("macro_f1", "f1")):
            mean = sum(lm[metric] for _, lm in sorted(labels.items())) / k if k else 0.0
            if abs(m[key] - mean) > EPS:
                out.append(f"{where}: {key} {m[key]} != mean {mean}")
        wanted = table.get(group, {}).get(r["combination"])
        if wanted is not None:
            found = {label: _counts(lm) for label, lm in labels.items()}
            if found != wanted["per_label"]:
                out.append(f"{where}: per-concept counts differ from the reference")
            macro = [m["macro_precision"], m["macro_recall"], m["macro_f1"]]
            if any(abs(x - y) > EPS for x, y in zip(macro, wanted["macro"])):
                out.append(f"{where}: macro {macro} != reference {wanted['macro']}")
    return out


_DROPPED = re.compile(r"dropped (\d+) annotation")


def dropped_note(stderr: str, ref: dict) -> list[str]:
    """The one-line note of group mapping names the reference's dropped count."""
    found = [int(x) for x in _DROPPED.findall(stderr)]
    want = [ref["dropped"]] if ref["dropped"] else []
    return [] if found == want else [f"dropped note {found} != {want}"]
