"""Boolean combination expressions: parsing, evaluation, and enumeration.

An ensemble is a binary parse tree whose leaves are source identifiers and
whose internal nodes are ``&`` (intersection) or ``|`` (union).  Trees are
read-once: each source appears at most once.  ``enumerate_ensembles`` walks
the space of such combinations either semantically (one representative per
distinct Boolean function) or syntactically (every left-deep ordered
expression, for count auditing).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import ConfigError, ParseError, UnsupportedOperatorError
from .masks import CharMask

AND = "&"
OR = "|"

SEMANTIC = "semantic"
SYNTACTIC = "syntactic"

MAX_SIGNATURE_LEAVES = 12

# The most ensembles a search may score: every full search over up to 7
# sources (129,005 ensembles) fits, one over 8 (2,132,088) does not.
MAX_SEARCH_ENSEMBLES = 150_000


@dataclass(frozen=True)
class Leaf:
    source: str


@dataclass(frozen=True)
class And:
    left: "ExprTree"
    right: "ExprTree"


@dataclass(frozen=True)
class Or:
    left: "ExprTree"
    right: "ExprTree"


ExprTree = Union[Leaf, And, Or]


def leaves(tree: ExprTree) -> Iterator[str]:
    """Source identifiers in left-to-right order."""
    if isinstance(tree, Leaf):
        yield tree.source
    else:
        yield from leaves(tree.left)
        yield from leaves(tree.right)


def tree_sources(tree: ExprTree) -> tuple[str, ...]:
    return tuple(sorted(leaves(tree)))


def tree_size(tree: ExprTree) -> int:
    return sum(1 for _ in leaves(tree))


def to_string(tree: ExprTree) -> str:
    """Fully parenthesized rendering, e.g. ``((A&B)|C)``."""
    if isinstance(tree, Leaf):
        return tree.source
    op = AND if isinstance(tree, And) else OR
    return f"({to_string(tree.left)}{op}{to_string(tree.right)})"


# A source identifier: the one name syntax every reported expression re-parses.
IDENTIFIER = re.compile(r"[A-Za-z0-9_]+")

_TOKEN = re.compile(
    rf"(?P<ident>{IDENTIFIER.pattern})|(?P<and>[&∧])|(?P<or>[|∨])|(?P<lp>\()|(?P<rp>\))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}", pos)
        kind = match.lastgroup
        tokens.append((kind, match.group(), pos))
        pos = match.end()
    return tokens


class _Parser:
    """Recursive descent over the tolerant grammar: ``&`` binds tighter than
    ``|``, both left-associative; fully parenthesized input parses the same."""

    def __init__(self, text: str, known_sources):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.known = set(known_sources) if known_sources is not None else None
        self.seen: dict[str, int] = {}

    def _peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return (None, "", len(self.text))

    def _next(self):
        token = self._peek()
        self.index += 1
        return token

    def parse(self) -> ExprTree:
        if not self.tokens:
            raise ParseError("empty expression", 0)
        tree = self._or_expr()
        kind, text, pos = self._peek()
        if kind is not None:
            raise ParseError(f"unexpected {text!r} at position {pos}", pos)
        return tree

    def _or_expr(self) -> ExprTree:
        tree = self._and_expr()
        while self._peek()[0] == "or":
            self._next()
            tree = Or(tree, self._and_expr())
        return tree

    def _and_expr(self) -> ExprTree:
        tree = self._atom()
        while self._peek()[0] == "and":
            self._next()
            tree = And(tree, self._atom())
        return tree

    def _atom(self) -> ExprTree:
        kind, text, pos = self._next()
        if kind == "lp":
            tree = self._or_expr()
            kind, text, pos = self._next()
            if kind != "rp":
                raise ParseError(f"expected ')' at position {pos}", pos)
            return tree
        if kind == "ident":
            if text in self.seen:
                raise ParseError(
                    f"source {text!r} repeated at position {pos} "
                    f"(first used at {self.seen[text]})",
                    pos,
                )
            if self.known is not None and text not in self.known:
                raise ParseError(f"unknown source {text!r} at position {pos}", pos)
            self.seen[text] = pos
            return Leaf(text)
        raise ParseError(f"expected source or '(' at position {pos}", pos)


def parse(text: str, known_sources: Iterable[str] | None = None) -> ExprTree:
    """Parse an expression string into a tree, enforcing the read-once rule.

    ``∧``/``∨`` are accepted as aliases for ``&``/``|``.  When
    ``known_sources`` is given, leaves must name one of them.
    """
    return _Parser(text, known_sources).parse()


def evaluate(
    tree: ExprTree, bindings: Mapping[str, CharMask | np.ndarray]
) -> CharMask | np.ndarray:
    """Post-order evaluation over character masks or aligned boolean arrays:
    leaf lookup, ``&`` = intersection, ``|`` = union."""
    if isinstance(tree, Leaf):
        try:
            return bindings[tree.source]
        except KeyError:
            raise ConfigError(f"no mask bound for source {tree.source!r}") from None
    left = evaluate(tree.left, bindings)
    right = evaluate(tree.right, bindings)
    return left & right if isinstance(tree, And) else left | right


@dataclass(frozen=True)
class ExprSignature:
    """Semantic fingerprint: sorted leaf set plus the full truth table.

    Two trees with equal signatures compute the same function for every
    binding, regardless of operand order or parenthesization.
    """

    sources: tuple[str, ...]
    table: int

    @property
    def table_bits(self) -> str:
        width = 2 ** len(self.sources)
        return "".join("1" if self.table >> i & 1 else "0" for i in range(width))


def pattern_columns(sources: Sequence[str]) -> dict[str, np.ndarray]:
    """Leaf bindings over all 2^k assignments: source j is bit j of the index."""
    patterns = np.arange(2 ** len(sources))
    return {s: (patterns >> j & 1).astype(bool) for j, s in enumerate(sources)}


def truth_table_signature(
    tree: ExprTree, max_leaves: int = MAX_SIGNATURE_LEAVES
) -> ExprSignature:
    """Evaluate the tree over all 2^k Boolean assignments of its k leaves.

    Assignment i (counting order, first source = most significant bit) lands
    in bit i of the table.
    """
    sources = tree_sources(tree)
    k = len(sources)
    if k > max_leaves:
        raise ConfigError(f"{k} leaves exceeds the signature limit of {max_leaves}")
    bits = evaluate(tree, pattern_columns(sources[::-1]))
    return ExprSignature(sources, sum(1 << int(i) for i in np.flatnonzero(bits)))


def _fold(children: Sequence[ExprTree], op: str) -> ExprTree:
    node = And if op == AND else Or
    tree = children[0]
    for child in children[1:]:
        tree = node(tree, child)
    return tree


def _set_partitions(items: tuple[str, ...]) -> Iterator[tuple[tuple[str, ...], ...]]:
    """Partitions of ``items`` into >= 2 blocks; blocks keep input order and
    are ordered by first element, so generation is deterministic."""

    def build(rest: tuple[str, ...], blocks: list[list[str]]) -> Iterator[tuple[tuple[str, ...], ...]]:
        if not rest:
            if len(blocks) >= 2:
                yield tuple(tuple(b) for b in blocks)
            return
        head, tail = rest[0], rest[1:]
        for block in blocks:
            block.append(head)
            yield from build(tail, blocks)
            block.pop()
        blocks.append([head])
        yield from build(tail, blocks)
        blocks.pop()

    yield from build(items, [])


def _opposite(op: str) -> str:
    return OR if op == AND else AND


def _alternating_trees(variables: tuple[str, ...], top: str) -> list[ExprTree]:
    """Read-once trees over exactly ``variables`` whose root operator is
    ``top``, in alternation normal form: children of an AND layer are leaves
    or OR layers and vice versa.  Each distinct function appears once."""
    results: list[ExprTree] = []
    for blocks in _set_partitions(variables):
        choices: list[Sequence[ExprTree]] = []
        for block in blocks:
            if len(block) == 1:
                choices.append((Leaf(block[0]),))
            else:
                choices.append(_alternating_trees(block, _opposite(top)))
        for combo in itertools.product(*choices):
            results.append(_fold(combo, top))
    return results


def _semantic_trees(variables: tuple[str, ...]) -> list[ExprTree]:
    if len(variables) == 1:
        return [Leaf(variables[0])]
    return _alternating_trees(variables, AND) + _alternating_trees(variables, OR)


def _syntactic_trees(variables: tuple[str, ...]) -> Iterator[ExprTree]:
    for perm in itertools.permutations(variables):
        for ops in itertools.product((AND, OR), repeat=len(perm) - 1):
            tree: ExprTree = Leaf(perm[0])
            for op, source in zip(ops, perm[1:]):
                node = And if op == AND else Or
                tree = node(tree, Leaf(source))
            yield tree


def check_search_space(n_sources: int, min_size: int, max_size: int) -> None:
    """Refuse a search whose SEMANTIC space holds more than
    ``MAX_SEARCH_ENSEMBLES`` ensembles, counted from the sizes alone: C(n, i)
    subsets of each allowed size i, of a(i) = 1, 2, 8, 52, 472, ... read-once
    functions each.  a(i) counts the splits of i variables into two or more
    blocks, each a leaf or one of the a(j) / 2 trees of j variables under
    the other operator, twice: once per root operator."""
    top = min(max_size, n_sources)
    a = [1, 1]
    for i in range(2, top + 1):
        a.append(2 * sum(comb(i - 1, j - 1) * max(a[j] // 2, 1) * a[i - j] for j in range(1, i)))
    count = sum(comb(n_sources, i) * a[i] for i in range(max(min_size, 1), top + 1))
    if count > MAX_SEARCH_ENSEMBLES:
        raise ConfigError(f"the search space holds {count:,} ensembles over {n_sources} sources, "
                          f"more than {MAX_SEARCH_ENSEMBLES:,}; lower --max-size")


def enumerate_ensembles(
    sources: Iterable[str], min_size: int, max_size: int, mode: str = SEMANTIC
) -> list[ExprTree]:
    """All Boolean combination ensembles over subsets of ``sources`` whose
    size lies in [min_size, max_size].

    SEMANTIC mode yields exactly one representative per distinct read-once
    function per subset; SYNTACTIC mode yields every left-deep ordered
    expression (each permutation of each subset crossed with every operator
    string) without semantic dedup.  Output order is deterministic: sorted by
    (size, expression string).
    """
    pool = tuple(sorted(set(sources)))
    if not pool:
        raise ConfigError("source set is empty")
    if not 1 <= min_size <= max_size <= len(pool):
        raise ConfigError(
            f"bad size range [{min_size}, {max_size}] for {len(pool)} sources"
        )
    if mode not in (SEMANTIC, SYNTACTIC):
        raise ConfigError(f"unknown enumeration mode {mode!r}")

    trees: list[ExprTree] = []
    for size in range(min_size, max_size + 1):
        for subset in itertools.combinations(pool, size):
            if mode == SEMANTIC:
                trees.extend(_semantic_trees(subset))
            else:
                trees.extend(_syntactic_trees(subset))
    trees.sort(key=lambda t: (tree_size(t), to_string(t)))
    return trees


def assert_union_only(tree: ExprTree) -> None:
    """Raise if the tree contains an intersection node; concept-labeled
    ensembles only define the union operation."""
    if isinstance(tree, Leaf):
        return
    if isinstance(tree, And):
        raise UnsupportedOperatorError(
            "intersection ('&') is not defined for concept-matching ensembles; "
            "use union-only expressions"
        )
    assert_union_only(tree.left)
    assert_union_only(tree.right)
