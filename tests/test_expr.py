import itertools
import operator
import random

import pytest

from span_ensembles import (
    And,
    ConfigError,
    Leaf,
    Or,
    ParseError,
    enumerate_ensembles,
    evaluate,
    parse,
    to_string,
    truth_table_signature,
)
from span_ensembles import expr
from conftest import brute_readonce_tables, rand_mask, rand_tree, set_eval


def test_parse_table_style_expression():
    tree = parse("((((A&C)&D)&E)|B)")
    assert tree == Or(And(And(And(Leaf("A"), Leaf("C")), Leaf("D")), Leaf("E")), Leaf("B"))
    assert to_string(tree) == "((((A&C)&D)&E)|B)"


def test_parse_simple():
    assert parse("(A&B)") == And(Leaf("A"), Leaf("B"))
    assert parse("A|B") == Or(Leaf("A"), Leaf("B"))


def test_parse_unicode_aliases():
    assert parse("(A∧B)") == And(Leaf("A"), Leaf("B"))
    assert parse("(A∨B)") == Or(Leaf("A"), Leaf("B"))


def test_parse_precedence_and_associativity():
    # & binds tighter than |, both left-associative
    assert parse("A&B|C") == Or(And(Leaf("A"), Leaf("B")), Leaf("C"))
    assert parse("A|B|C") == Or(Or(Leaf("A"), Leaf("B")), Leaf("C"))
    assert parse("A&B&C") == And(And(Leaf("A"), Leaf("B")), Leaf("C"))


def test_parse_rejects_repeated_source():
    with pytest.raises(ParseError, match="repeated"):
        parse("(A&A)")


def test_parse_rejects_unknown_source():
    with pytest.raises(ParseError, match="unknown"):
        parse("(A&B)", known_sources={"A", "C"})


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("(A&")
    assert err.value.position == 3
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("(A&B")
    with pytest.raises(ParseError):
        parse("A&B)")
    with pytest.raises(ParseError):
        parse("A $ B")


def test_evaluate_or():
    import numpy as np
    from span_ensembles import CharMask

    a = CharMask("d1", np.array([True, True, False]))
    b = CharMask("d1", np.array([False, True, True]))
    out = evaluate(parse("A|B"), {"A": a, "B": b})
    assert list(out.bits) == [True, True, True]


def test_evaluate_missing_binding_names_source():
    with pytest.raises(ConfigError, match="'B'"):
        evaluate(parse("A|B"), {"A": rand_mask(random.Random(0), "d1", 4)})


def test_evaluate_is_pure():
    rng = random.Random(5)
    bindings = {s: rand_mask(rng, "d1", 25) for s in "ABC"}
    tree = parse("((A&B)|C)")
    assert evaluate(tree, bindings) == evaluate(tree, bindings)


def test_signature_tables():
    assert truth_table_signature(parse("(A&B)")).table_bits == "0001"
    assert truth_table_signature(parse("(A|B)")).table_bits == "0111"


def test_signature_invariant_under_reordering():
    a = truth_table_signature(parse("(A&(B|C))"))
    b = truth_table_signature(parse("((C|B)&A)"))
    assert a == b


def test_signature_leaf_limit():
    tree = parse("|".join(chr(ord("a") + i) for i in range(13)))
    with pytest.raises(ConfigError):
        truth_table_signature(tree)


def test_semantic_counts_match_bruteforce_oracle():
    for k, expected in ((2, 2), (3, 8), (4, 52)):
        variables = tuple("ABCDE"[:k])
        trees = enumerate_ensembles(variables, k, k)
        assert len(trees) == expected
        tables = {truth_table_signature(t).table for t in trees}
        assert len(tables) == expected  # no duplicate functions
        assert tables == brute_readonce_tables(variables)


def test_walker_tables_match_bruteforce_oracle():
    # the integer tables the search walks, source j as bit j of a pattern,
    # against the oracle's, whose first source is the most significant bit
    ops = {expr.AND: operator.and_, expr.OR: operator.or_}
    oracle = {k: brute_readonce_tables(tuple("ABCDE"[:k])) for k in range(1, 6)}
    for subset in (s for k in range(1, 6) for s in itertools.combinations("ABCDE", k)):
        k = len(subset)
        leaf = expr.pattern_tables(subset).__getitem__
        tables = [table for _, _, table in expr.read_once_space(subset, k, k, expr.SEMANTIC, leaf, ops)]
        reordered = {
            sum(1 << int(f"{p:0{k}b}"[::-1], 2) for p in range(2**k) if table >> p & 1)
            for table in tables
        }
        assert len(reordered) == len(tables) and reordered == oracle[k]


def test_semantic_two_sources():
    trees = enumerate_ensembles({"A", "B"}, 2, 2)
    assert sorted(to_string(t) for t in trees) == ["(A&B)", "(A|B)"]


def test_syntactic_counts():
    assert len(enumerate_ensembles({"A", "B"}, 2, 2, mode="syntactic")) == 4
    assert sorted(to_string(t) for t in enumerate_ensembles({"A", "B"}, 2, 2, mode="syntactic")) == [
        "(A&B)",
        "(A|B)",
        "(B&A)",
        "(B|A)",
    ]
    # left-deep ordered expressions: k! * 2^(k-1) per subset of size k
    assert len(enumerate_ensembles("ABC", 3, 3, mode="syntactic")) == 6 * 4


def test_syntactic_dedup_equals_semantic_up_to_three():
    # every read-once function on <= 3 variables has a left-deep form
    for k in (2, 3):
        variables = tuple("ABC"[:k])
        syntactic = enumerate_ensembles(variables, k, k, mode="syntactic")
        semantic = enumerate_ensembles(variables, k, k)
        assert {truth_table_signature(t).table for t in syntactic} == {
            truth_table_signature(t).table for t in semantic
        }


def test_left_deep_syntax_misses_balanced_functions():
    # from 4 variables on, balanced combinations like (A&B)|(C&D) have no
    # left-deep rendering, so the semantic space is strictly larger; this is
    # why semantic mode is the canonical search space
    syntactic = {
        truth_table_signature(t).table
        for t in enumerate_ensembles("ABCD", 4, 4, mode="syntactic")
    }
    semantic = {truth_table_signature(t).table for t in enumerate_ensembles("ABCD", 4, 4)}
    assert syntactic < semantic
    balanced = truth_table_signature(parse("((A&B)|(C&D))")).table
    assert balanced in semantic and balanced not in syntactic


def test_enumeration_over_size_range():
    # 3 singles + 3 subsets of size 2 * 2 functions + 8 functions of size 3
    trees = enumerate_ensembles("ABC", 1, 3)
    assert len(trees) == 3 + 3 * 2 + 8


def test_enumeration_is_deterministic():
    first = [to_string(t) for t in enumerate_ensembles("ABCDE", 2, 4)]
    second = [to_string(t) for t in enumerate_ensembles("ABCDE", 2, 4)]
    assert first == second
    assert first == sorted(first, key=lambda s: (sum(c.isalnum() for c in s), s))


def test_enumeration_validation():
    with pytest.raises(ConfigError):
        enumerate_ensembles([], 1, 1)
    with pytest.raises(ConfigError):
        enumerate_ensembles("AB", 0, 2)
    with pytest.raises(ConfigError):
        enumerate_ensembles("AB", 1, 3)
    with pytest.raises(ConfigError):
        enumerate_ensembles("AB", 1, 2, mode="nonsense")


def test_equal_signatures_evaluate_identically():
    rng = random.Random(99)
    sources = ["A", "B", "C", "D"]
    by_table = {}
    for tree in enumerate_ensembles(sources, 4, 4, mode="syntactic"):
        by_table.setdefault(truth_table_signature(tree).table, []).append(tree)
    groups = [trees for trees in by_table.values() if len(trees) > 1]
    for _ in range(50):
        bindings = {s: rand_mask(rng, "d1", 30) for s in sources}
        for trees in rng.sample(groups, 10):
            assert len({evaluate(t, bindings).bits.tobytes() for t in trees[:4]}) == 1


def test_evaluate_matches_set_oracle():
    rng = random.Random(123)
    sources = ["A", "B", "C", "D", "E"]
    for _ in range(100):
        k = rng.randrange(1, 6)
        chosen = rng.sample(sources, k)
        tree = rand_tree(rng, chosen)
        bindings = {s: rand_mask(rng, "d1", 40) for s in chosen}
        sets = {s: frozenset(int(i) for i in range(40) if bindings[s].bits[i]) for s in chosen}
        got = {int(i) for i in range(40) if evaluate(tree, bindings).bits[i]}
        assert got == set_eval(tree, sets)
