"""Self-test of the reference and the checks on tiny hand-written corpora.

Every expected figure below was worked out by hand.  ``run.py`` runs these
before it measures, and refuses to run when one fails, since a wrong
reference would pass or fail the program for the wrong reason.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys

import checks
import reference as ref

LENGTHS = {"d1": 10, "d2": 8}
GOLD = [
    {"doc_id": "d1", "begin": 0, "end": 4, "group": "G1", "cui": "C0000001"},
    {"doc_id": "d1", "begin": 6, "end": 9, "group": "G2", "cui": "C0000002"},
    {"doc_id": "d2", "begin": 1, "end": 3, "group": "G1", "cui": "C0000001"},
]
# A finds both G1 spans and misses the G2 span; B finds only the G2 span.
SYSTEMS = {
    "A": [
        {"doc_id": "d1", "source": "A", "begin": 0, "end": 4, "native_type": "T1", "cui": "C0000001"},
        {"doc_id": "d2", "source": "A", "begin": 1, "end": 3, "native_type": "T1", "cui": "C0000001"},
        {"doc_id": "d2", "source": "A", "begin": 5, "end": 7, "native_type": "lab", "cui": "C0000003"},
    ],
    "B": [
        {"doc_id": "d1", "source": "B", "begin": 6, "end": 9, "native_type": "lab", "cui": "C0000002"},
        {"doc_id": "d2", "source": "B", "begin": 4, "end": 6, "native_type": "T9", "cui": "C0000001"},
    ],
}
# T1 -> G1 for everyone, ("B", "lab") -> G2; A's "lab" and B's "T9" are unmapped.
GROUP_MAP = ({"T1": "G1", "T2": "G2"}, {("B", "lab"): "G2"}, ["G1", "G2"])


def expect(actual, wanted, what: str, failures: list[str]) -> None:
    if actual != wanted:
        failures.append(f"{what}: got {actual!r}, expected {wanted!r}")


def test_mapping(failures):
    corpus = ref.Corpus(LENGTHS, GOLD, SYSTEMS, ["A", "B"], GROUP_MAP)
    expect(corpus.dropped, 2, "dropped records", failures)
    expect(corpus.groups, ["G1", "G2", "ALL"], "group order", failures)
    expect([r[3] for r in corpus.records["B"]], ["G2"], "B's groups", failures)
    unmapped = ref.Corpus(LENGTHS, GOLD, {}, [])
    expect(unmapped.groups, ["G1", "G2", "ALL"], "groups present", failures)


def test_char_counts(failures):
    out = ref.compute(ref.Corpus(LENGTHS, GOLD, SYSTEMS, ["A", "B"], GROUP_MAP), ("A", "B"))
    expect(out["gold_chars"], {"G1": 6, "G2": 3, "ALL": 9}, "gold chars", failures)
    expect(out["char"]["G1"], {"A": [6, 0, 0], "B": [0, 0, 6], "(A&B)": [0, 0, 6],
                               "(A|B)": [6, 0, 0]}, "G1 counts", failures)
    expect(out["char"]["ALL"], {"A": [6, 0, 3], "B": [3, 0, 6], "(A&B)": [0, 0, 9],
                                "(A|B)": [9, 0, 0]}, "ALL counts", failures)
    # A is wrong on d1[6:9), B on the six G1 characters: no error is shared.
    expect(out["comp_rate"]["ALL"], {"A,B": 100.0, "B,A": 100.0}, "comp rate ALL", failures)
    expect(out["comp_rate"]["G1"], {"A,B": 0.0, "B,A": 100.0}, "comp rate G1", failures)
    doc_a = out["cui_doc"]["ALL"]["A"]
    expect(doc_a["per_label"], {"C0000001": [2, 0, 0], "C0000002": [0, 0, 1]},
           "doc-level A", failures)
    expect(doc_a["macro"], [0.5, 0.5, 0.5], "doc-level A macro", failures)
    expect(out["cui_doc"]["ALL"]["(A|B)"]["macro"], [1.0, 1.0, 1.0], "doc-level A|B", failures)
    expect(out["cui_mention"]["ALL"]["A"]["per_label"],
           {"C0000001": [6, 0, 0], "C0000002": [0, 0, 3]}, "mention-level A", failures)


def test_mention_mismatch(failures):
    # gold C1 on [0,4), prediction C3 on [2,6): C1 misses 4, C3 is wrong on 4.
    gold = [{"doc_id": "d", "begin": 0, "end": 4, "group": "G", "cui": "C0000001"}]
    pred = {"X": [{"doc_id": "d", "begin": 2, "end": 6, "group": "G", "cui": "C0000003"}]}
    out = ref.compute(ref.Corpus({"d": 8}, gold, pred, ["X"]))
    expect(out["cui_mention"]["ALL"]["X"]["per_label"],
           {"C0000001": [0, 0, 4], "C0000003": [0, 4, 0]}, "mention mismatch", failures)
    expect(out["cui_mention"]["ALL"]["X"]["macro"], [0.0, 0.0, 0.0], "mention macro", failures)


def test_overlap_refused(failures):
    overlapping = {"X": [{"doc_id": "d1", "begin": 0, "end": 4, "group": "G1"},
                         {"doc_id": "d1", "begin": 3, "end": 5, "group": "G2"}]}
    try:
        ref.Corpus(LENGTHS, GOLD, overlapping, ["X"])
    except ValueError:
        return
    failures.append("overlapping clean spans were accepted")


def test_checks(failures):
    good = {"tp": 3, "fp": 1, "fn": 2, "n_gold": 5, "n_pred": 4, "precision": 0.75,
            "recall": 0.6, "f1": 2 * 0.75 * 0.6 / (0.75 + 0.6), "ci_precision": [0.3, 1.0],
            "ci_recall": [0.2, 1.0], "ci_f1": [0.3, 0.9], "degenerate": False}
    expect(checks.metric_problems(good, "row"), [], "consistent row", failures)
    bad = dict(good, n_pred=5)
    expect(len(checks.metric_problems(bad, "row")), 1, "row with a wrong n_pred", failures)
    outside = dict(good, ci_recall=[0.7, 0.9])
    expect(len(checks.metric_problems(outside, "row")), 1, "interval missing its point", failures)
    rows = [("X", dict(good, precision=0.5, recall=0.5)), ("Y", dict(good, precision=0.6,
                                                                       recall=0.7))]
    expect(len(checks.pareto_problems(rows[:1], rows, "g")), 1, "dominated Pareto row", failures)


def main() -> int:
    failures: list[str] = []
    for test in (test_mapping, test_char_counts, test_mention_mismatch, test_overlap_refused,
                 test_checks):
        test(failures)
    for failure in failures:
        print(f"selftest: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
