"""The benchmark's workloads: a corpus shape plus the CLI calls of one round.

A round is the list of calls, run one after another (closed loop, one
caller).  Each call is one operation: the CLI call and the checks of its
report.  Corpus sizes are chosen so one round takes 4-8 s on a 2-core
machine and a 50 s run holds six to twelve whole rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks
from corpus import CorpusSpec, SystemSpec

S = SystemSpec

# Shaped like the program's 1000-document acceptance corpus (criterion 08):
# 2000-character documents, 50 gold spans per 1000 characters of 3-9
# characters, two clean systems that only miss and three noisy ones.
FIVE = (
    S("A", clean=True, miss=0.5),
    S("B", clean=True, miss=0.5),
    S("C", clean=False, miss=0.2, jitter=1, spurious=1.0),
    S("D", clean=False, miss=0.3, jitter=1, spurious=2.0),
    S("E", clean=False, miss=0.1, jitter=2, spurious=3.0),
)
# Concept corpus: native types mapped through the groups file (A, C) or the
# per-source overrides (B, D); some of B's and C's types are unmapped.
FOUR_CUI = (
    S("A", clean=True, miss=0.3),
    S("B", clean=True, miss=0.4, unmapped=0.05, override_labels=True),
    S("C", clean=False, miss=0.2, jitter=1, spurious=2.0, cui_error=0.1, unmapped=0.1),
    S("D", clean=False, miss=0.25, jitter=2, spurious=3.0, cui_error=0.1, override_labels=True),
)

ALL_AND = "(((A&B)&C)&D)"
ALL_OR = "(((A|B)|C)|D)"


@dataclass(frozen=True)
class Call:
    """One CLI call of a round and the check of its JSON report.

    ``check(report, ref, earlier)`` gets the parsed report, the reference
    figures and the reports of the round's earlier calls by name.
    """

    name: str
    argv: tuple[str, ...]
    check: Callable[[dict, dict, dict], list[str]]


@dataclass(frozen=True)
class Workload:
    corpus: CorpusSpec
    calls: tuple[Call, ...]
    cui_union: tuple[str, str] | None = None


def _expr_call(name: str, expr: str) -> Call:
    return Call(name, ("ensemble-eval", "--group", "each", "--expr", expr),
                lambda rep, ref, _: checks.single_systems(rep, ref, [expr]))


def _cui_call(level: str, expr: str, operands: list[str]) -> Call:
    return Call(f"cui-{level}", ("cui-eval", "--group", "each", "--level", level, "--expr", expr),
                lambda rep, ref, _: checks.cui(rep, ref, level, expr, operands))


WORKLOADS = {
    "search-groups": Workload(
        CorpusSpec(n_docs=300, systems=FIVE),
        (Call("search", ("search", "--group", "each", "--workers", "1"),
              lambda rep, ref, _: checks.search_panels(rep, ref, list("ABCDE"), ref["groups"])),),
    ),
    "reports-cui": Workload(
        CorpusSpec(n_docs=40, systems=FOUR_CUI, cui_vocab=60, mapped=True),
        (
            Call("ner", ("ner-eval", "--group", "each"),
                 lambda rep, ref, _: checks.single_systems(rep, ref, list("ABCD"))),
            _expr_call("all-and", ALL_AND),
            _expr_call("all-or", ALL_OR),
            _expr_call("pair-and", "(A&B)"),
            _expr_call("pair-or", "(A|B)"),
            Call("vote", ("vote", "--group", "each"),
                 lambda rep, ref, e: checks.vote(rep, ref, e["all-and"], e["all-or"])),
            Call("comp", ("complementarity", "--group", "each"),
                 lambda rep, ref, e: checks.complementarity(rep, ref, list("ABCD"), e["ner"])),
            _cui_call("doc", "(A|B)", ["A", "B"]),
            _cui_call("mention", ALL_OR, list("ABCD")),
        ),
        cui_union=("A", "B"),
    ),
}
