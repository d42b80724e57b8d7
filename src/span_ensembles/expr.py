"""Boolean combination expressions: parsing, evaluation, and enumeration.

An ensemble is a binary parse tree whose leaves are source identifiers and
whose internal nodes are ``&`` (intersection) or ``|`` (union).  Trees are
read-once: each source appears at most once.  :func:`read_once_space` walks
the space of such combinations either semantically (one representative per
distinct Boolean function) or syntactically (every left-deep ordered
expression, for count auditing), folding each ensemble's string and value
from its leaves: a tree for :func:`enumerate_ensembles`, an int truth table
for the search.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cache
from math import comb
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar, Union

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

T = TypeVar("T")


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
    tree: ExprTree, bindings: Mapping[str, CharMask | np.ndarray | int]
) -> CharMask | np.ndarray | int:
    """Post-order evaluation over character masks, aligned boolean arrays or
    truth tables held in ints: leaf lookup, ``&`` = intersection, ``|`` = union."""
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


def pattern_tables(sources: Sequence[str]) -> dict[str, int]:
    """:func:`pattern_columns` as truth tables held in ints: bit p of source
    j's table is bit j of p."""
    return {s: int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
            for s, bits in pattern_columns(sources).items()}


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
    return ExprSignature(sources, evaluate(tree, pattern_tables(sources[::-1])))


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


def read_once_space(
    sources: Iterable[str], min_size: int, max_size: int, mode: str,
    leaf: Callable[[str], T], ops: Mapping[str, Callable[[T, T], T]],
) -> list[tuple[int, str, T]]:
    """(size, expression string, value) of every ensemble over the subsets
    of ``sources`` whose size lies in [min_size, max_size], sorted by (size,
    string).  An ensemble's value is ``leaf(source)`` of its sources folded
    left to right by ``ops[operator]``, as its string reads.

    SEMANTIC mode walks each subset's splits into two or more blocks under
    either root operator, each block a leaf or, memoized, a walk of its own
    under the other operator: one left-deep representative per distinct
    read-once function.  SYNTACTIC mode takes every permutation of each
    subset crossed with every operator string, without dedup.
    """
    pool = tuple(sorted(set(sources)))
    if not pool:
        raise ConfigError("source set is empty")
    if not 1 <= min_size <= max_size <= len(pool):
        raise ConfigError(f"bad size range [{min_size}, {max_size}] for {len(pool)} sources")
    if mode not in (SEMANTIC, SYNTACTIC):
        raise ConfigError(f"unknown enumeration mode {mode!r}")
    singles = {s: (s, leaf(s)) for s in pool}

    def fold(items: Sequence[tuple[str, T]], operators: Iterable[str]) -> tuple[str, T]:
        text, value = items[0]
        for op, (right, operand) in zip(operators, items[1:]):
            text, value = f"({text}{op}{right})", ops[op](value, operand)
        return text, value

    @cache
    def alternating(block: tuple[str, ...], top: str) -> list[tuple[str, T]]:
        """The ensembles over exactly ``block`` whose root operator, if it
        has one, is ``top``; each distinct function appears once."""
        if len(block) == 1:
            return [singles[block[0]]]
        other = OR if top == AND else AND
        return [fold(combo, itertools.repeat(top)) for blocks in _set_partitions(block)
                for combo in itertools.product(*(alternating(part, other) for part in blocks))]

    space = []
    for size in range(min_size, max_size + 1):
        found = []
        for subset in itertools.combinations(pool, size):
            if mode == SEMANTIC and size > 1:
                found += alternating(subset, AND) + alternating(subset, OR)
            else:  # SYNTACTIC, or a single source: its one permutation
                found += [fold([singles[s] for s in perm], operators)
                          for perm in itertools.permutations(subset)
                          for operators in itertools.product((AND, OR), repeat=size - 1)]
        found.sort(key=itemgetter(0))
        space += ((size, text, value) for text, value in found)
    return space


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
    """The trees of every ensemble :func:`read_once_space` walks, in its order:
    one per distinct read-once function per subset in SEMANTIC mode, every
    left-deep ordered expression in SYNTACTIC mode."""
    ops = {AND: And, OR: Or}
    return [tree for _, _, tree in read_once_space(sources, min_size, max_size, mode, Leaf, ops)]


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
