"""Finite-depth slices of the full binary tree, and the unit-interval bridge.

Binary words under the prefix order model the space of finite and infinite
bit sequences at a working depth: an infinite word is always handled through
a truncation, since every operation in the package touches finitely many
bits. A word is either genuinely finite or flagged as the truncation of an
infinite word; only finite words approximate others (u is way below v iff u
is finite and a prefix of v).

The bridge from [0, 1] is the lower adjoint of a word's binary-expansion
value: unit_to_word sends r to the lexicographically least infinite word
whose value reaches r. For dyadic r > 0 that word is the non-terminating
expansion (tail of ones), which pins the otherwise ambiguous choice and
makes grid tabulations exact.

A step map sends the words of one level, in lexicographic order, to
values, and stores the runs of consecutive words with one value. Read
through the bridge it is a step function on [0, 1]: representation layers
and the quantile maps of chains are both step maps. Several step maps are
compared word by word through one walk over their merged runs
(_segments), which the order of two maps and the settling of a sequence
both read.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice, repeat

from .dyadic import ONE, ZERO, Dyadic, _Value
from .errors import OutOfRange, PartialMap, Unreachable
from .poset import Poset
from .valuation import SimpleValuation


class Word(_Value):
    """A binary word; bits is a string over '0'/'1'.

    An immutable value (`dyadic._Value`) with two slots, like
    `dyadic.Dyadic`: equality and hashing go by `bits` alone, so a
    truncation equals the finite word with its bits.
    """

    __slots__ = ("bits", "truncated")

    def __init__(self, bits: str, truncated: bool = False):
        if bits.strip("01"):
            raise ValueError("bits must be over {0,1}: %r" % bits)
        _set_bits(self, bits)
        _set_truncated(self, truncated)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.bits == other.bits

    def __hash__(self):
        return hash((self.bits,))

    def __repr__(self):
        return "Word(bits=%r, truncated=%r)" % (self.bits, self.truncated)

    def __len__(self):
        return len(self.bits)

    def is_prefix_of(self, other: "Word") -> bool:
        """The tree order: u <= v iff u is a prefix of v."""
        return other.bits.startswith(self.bits)

    def way_below(self, other: "Word") -> bool:
        return not self.truncated and self.is_prefix_of(other)

    def __str__(self):
        return self.bits


# the slots' own setters, which __setattr__ does not reach
_set_bits = Word.bits.__set__
_set_truncated = Word.truncated.__set__


def _word_bits(i: int, depth: int) -> str:
    """Word number i of the depth-level, as a bit string."""
    return format(i, "0%db" % depth) if depth else ""


def _level_bits(depth: int):
    """The bit strings of all 2^depth words of the level, in word order,
    formatted lazily with one spec built once."""
    if not depth:
        return iter([""])
    return map(format, range(1 << depth), repeat("0%db" % depth))


def _word_number(r: Dyadic, n: int) -> int:
    """ceil(r * 2^n) - 1 for r in (0, 1], and 0 for r = 0.

    The number of the depth-n word that unit_to_word(r, n) spells.
    """
    if ONE < r:
        raise OutOfRange("%s lies outside [0, 1]" % r)
    if r.is_zero():
        return 0
    if r.exp <= n:
        return r.rescale(n) - 1        # exact, ceil not needed
    return -(-r.num >> (r.exp - n)) - 1    # ceil(num / 2^shift) - 1


def unit_to_word(r: Dyadic, n: int) -> Word:
    """Depth-n truncation of the least infinite word with value >= r.

    For dyadic r > 0 this is the non-terminating expansion, so the first n
    bits encode ceil(r * 2^n) - 1; r = 0 gives the all-zeros word.
    """
    if n < 0:
        raise ValueError("depth must be nonnegative, not %d" % n)
    return Word(_word_bits(_word_number(r, n), n), truncated=True)


@dataclass(init=False)
class StepMap:
    """A map from the first words of the depth-level to values, as runs.

    Word i (its bits read as a binary number) lies in run k iff
    ends[k-1] <= i < ends[k], with ends[-1] = 0, and run k maps it to
    values[k]. The map is defined on the words below its last end, which
    is 2^depth for a total map. `StepMap(depth, table)` compresses a dict
    over every depth-bit string into a total map; `items` lists the runs
    back out a word at a time.
    """

    depth: int
    ends: list
    values: list

    def __init__(self, depth: int, table=None, ends=(), values=()):
        self.depth = depth
        if table is not None:
            ends, values = _compress(table, depth)
        self.ends = list(ends)
        self.values = list(values)

    def total(self) -> Dyadic:
        """The share of the level the map is defined on."""
        return Dyadic(self.ends[-1], self.depth) if self.ends else ZERO

    def items(self):
        """(bit string, value) for every word, in word order: each run
        takes its words off one lister of the level (_level_bits)."""
        words = _level_bits(self.depth)
        for start, end, y in zip([0, *self.ends], self.ends, self.values):
            yield from zip(islice(words, end - start), repeat(y))

    def counts(self) -> dict:
        """value -> the number of words it takes, summed over its runs."""
        counts = {}
        start = 0
        for end, y in zip(self.ends, self.values):
            counts[y] = counts.get(y, 0) + end - start
            start = end
        return counts

    def law(self, base: Poset) -> SimpleValuation:
        """Counting measure pushed through the map: run lengths / 2^depth."""
        return SimpleValuation(base, {y: Dyadic(c, self.depth)
                                      for y, c in self.counts().items()})

    def at(self, i: int):
        """The value at word number i."""
        return self.values[bisect_right(self.ends, i)]

    def __call__(self, r: Dyadic):
        """The value at the word unit_to_word(r, depth) spells."""
        i = _word_number(r, self.depth)
        if not self.ends or i >= self.ends[-1]:
            raise Unreachable("%s lies above the map's total %s"
                              % (r, self.total()))
        return self.at(i)

    def first_disagreement(self, other: "StepMap", base: Poset):
        """The first word where this map's value is not below other's.

        Both maps are read at the deeper of the two depths, and the walk
        stops at the shorter total; the result is a word number at that
        depth, the start of the first of their merged runs (_segments)
        that breaks the order, or None. Each segment is compared once, by
        one bit of an up-set mask; every value of either map must be an
        element of base (UnknownElement otherwise).
        """
        base._check(*self.values, *other.values)
        index, up = base.index, base._up_mask
        _, ends, pairs = _segments([self, other])
        for start, (x, y) in zip([0, *ends], pairs):
            if not up[index[x]] >> index[y] & 1:
                return start
        return None


def _segments(maps):
    """The merged runs of several step maps: (depth, ends, values).

    Every map is read at the deepest depth among them, so its run ends are
    shifted up to that depth, and the words are cut at every map's run
    ends up to the shortest total. ends lists the end of each segment, on
    which no map changes value, and values the tuple of the maps' values
    on it, in the order of maps. A run of length zero (a quantile
    threshold at 0) holds no word and makes no segment: a segment takes
    the first run of each map that ends at or past its end.
    """
    depth = max(m.depth for m in maps)
    shifted = [[end << depth - m.depth for end in m.ends] for m in maps]
    stop = min(s[-1] if s else 0 for s in shifted)
    ends = sorted({end for s in shifted for end in s if 0 < end <= stop})
    columns = [[m.values[bisect_left(s, end)] for end in ends]
               for m, s in zip(maps, shifted)]
    return depth, ends, list(zip(*columns))


def _compress(table: dict, depth: int):
    """Runs of a dict over all depth-bit strings, in word order."""
    ends, values = [], []
    for i, bits in enumerate(_level_bits(depth)):
        if bits not in table:
            raise PartialMap("level map undefined on %r" % bits)
        y = table[bits]
        if values and values[-1] == y:
            ends[-1] = i + 1
        else:
            ends.append(i + 1)
            values.append(y)
    if len(table) != 1 << depth:
        raise ValueError("table has words outside depth %d" % depth)
    return ends, values
