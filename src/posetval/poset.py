"""Finite partial orders with a least element.

A :class:`Poset` is built from cover relations; the full order is the
reflexive-transitive closure, validated at construction (antisymmetry, and a
bottom element below everything). Finite posets stand in for countably based
domains throughout the package: every element is compact, so the way-below
relation coincides with the order itself.

Upper sets of a finite poset are exactly its Scott-open sets; they can be
enumerated exhaustively (up to a configurable bound) to serve as a
brute-force oracle for the valuation order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OrderViolation, ParseError, TooLarge, UnknownElement

ORACLE_BOUND = 16


class Poset:
    """Immutable finite poset with bottom.

    Elements keep their declaration order; all deterministic tie-breaking in
    the package (flow search, slot assignment, output ordering) refers to it.
    """

    def __init__(self, elements, covers, bottom):
        elements = list(elements)
        if len(set(elements)) != len(elements):
            raise OrderViolation("duplicate element identifier")
        if not elements:
            raise OrderViolation("poset needs at least one element")
        self.elements = elements
        self.index = {e: i for i, e in enumerate(elements)}
        if bottom not in self.index:
            raise UnknownElement("bottom %r is not an element" % bottom)
        self.bottom = bottom
        self.covers = []
        n = len(elements)
        # up[i] is the upward closure of element i as a bitmask, bit j ==
        # element j; Warshall's closure ORs up[k] into every row holding k
        up = [1 << i for i in range(n)]
        for lo, hi in covers:
            if lo not in self.index or hi not in self.index:
                raise UnknownElement("cover names unknown element: %s %s"
                                     % (lo, hi))
            self.covers.append((lo, hi))
            up[self.index[lo]] |= 1 << self.index[hi]
        for k in range(n):
            bit, uk = 1 << k, up[k]
            for i in range(n):
                if up[i] & bit:
                    up[i] |= uk
        for i in range(n):
            above = up[i] >> (i + 1)
            while above:
                j = i + (above & -above).bit_length()
                if up[j] >> i & 1:
                    raise OrderViolation("antisymmetry fails: %s and %s"
                                         % (elements[i], elements[j]))
                above &= above - 1
        b = self.index[bottom]
        missing = ~up[b] & ((1 << n) - 1)
        if missing:
            raise OrderViolation("bottom %s is not below %s"
                                 % (bottom, elements[(missing & -missing)
                                                     .bit_length() - 1]))
        self._up_mask = up
        self._leq = [[c == "1" for c in format(m, "0%db" % n)[::-1]]
                     for m in up]

    def __len__(self):
        return len(self.elements)

    def _check(self, *xs):
        for x in xs:
            if x not in self.index:
                raise UnknownElement("%r is not an element" % (x,))

    def leq(self, x, y) -> bool:
        """True iff x <= y in the transitive closure."""
        self._check(x, y)
        return self._leq[self.index[x]][self.index[y]]

    def way_below(self, x, y) -> bool:
        """The approximation relation; equals leq on a finite poset."""
        return self.leq(x, y)

    def up_set(self, x) -> frozenset:
        self._check(x)
        i = self.index[x]
        return frozenset(e for j, e in enumerate(self.elements)
                         if self._leq[i][j])

    def down_set(self, x) -> frozenset:
        self._check(x)
        i = self.index[x]
        return frozenset(e for j, e in enumerate(self.elements)
                         if self._leq[j][i])

    def upward_closure(self, xs) -> frozenset:
        members = set()
        for x in xs:
            members |= self.up_set(x)
        return frozenset(members)

    def is_upper(self, members) -> bool:
        members = set(members)
        self._check(*members)
        return all(self.up_set(x) <= members for x in members)

    def enumerate_upper_sets(self, bound: int = ORACLE_BOUND):
        """All upward-closed subsets, each once, in ascending bitmask order.

        Includes the empty set and the full set. Raises TooLarge above the
        bound (the enumeration is exponential in the number of elements).
        """
        n = len(self.elements)
        if n > bound:
            raise TooLarge("%d elements exceeds the oracle bound %d"
                           % (n, bound))
        out = []
        for mask in range(1 << n):
            ok = True
            m = mask
            while m:
                i = (m & -m).bit_length() - 1
                if self._up_mask[i] & ~mask:
                    ok = False
                    break
                m &= m - 1
            if ok:
                out.append(UpperSet(self, frozenset(
                    e for j, e in enumerate(self.elements) if mask >> j & 1)))
        return out

    def _is_chain(self) -> bool:
        """True iff every two elements are comparable."""
        n = len(self.elements)
        return all(self._leq[i][j] or self._leq[j][i]
                   for i in range(n) for j in range(i + 1, n))

    def classify(self) -> dict:
        """Shape flags, each decided by exhaustive meet/join checks."""
        n = len(self.elements)
        has_meet = has_join = True
        for i in range(n):
            for j in range(i, n):
                lower = [k for k in range(n)
                         if self._leq[k][i] and self._leq[k][j]]
                if not any(all(self._leq[l][k] for l in lower) for k in lower):
                    has_meet = False
                upper = [k for k in range(n)
                         if self._leq[i][k] and self._leq[j][k]]
                if not any(all(self._leq[k][u] for u in upper) for k in upper):
                    has_join = False
        return {"is_chain": self._is_chain(),
                "is_bounded_complete": has_meet,
                "is_lattice": has_meet and has_join}

    def lift(self, fresh_bottom=None) -> "Poset":
        """A copy with a fresh bottom element strictly below the old one."""
        if fresh_bottom is None:
            fresh_bottom = "_bot"
            while fresh_bottom in self.index:
                fresh_bottom += "_"
        elif fresh_bottom in self.index:
            raise OrderViolation("%r already an element" % fresh_bottom)
        return Poset([fresh_bottom] + self.elements,
                     [(fresh_bottom, self.bottom)] + self.covers,
                     fresh_bottom)

    def to_dot(self) -> str:
        """Hasse diagram (cover edges drawn upward)."""
        lines = ["digraph poset {", "  rankdir=BT;"]
        for e in self.elements:
            lines.append('  "%s";' % e)
        for lo, hi in self.covers:
            lines.append('  "%s" -> "%s";' % (lo, hi))
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return "Poset(%d elements, bottom=%s)" % (len(self), self.bottom)


@dataclass(frozen=True)
class UpperSet:
    """An upward-closed subset of a poset (a Scott-open at finite scale)."""

    base: Poset
    members: frozenset

    def __post_init__(self):
        if not self.base.is_upper(self.members):
            raise OrderViolation("set is not upward closed: %s"
                                 % sorted(self.members))

    def __contains__(self, x):
        return x in self.members

    def __str__(self):
        inside = [e for e in self.base.elements if e in self.members]
        return "{%s}" % ",".join(inside)


def parse_poset(text: str) -> Poset:
    """Parse the line-oriented poset format.

    Directives, one per line: ``element <id>``, ``cover <lower> <upper>``,
    ``bottom <id>``. Blank lines and ``#`` comments are allowed.
    """
    elements, covers, bottom = [], [], None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "element" and len(parts) == 2:
            if parts[1] in seen:
                raise ParseError("duplicate element %r" % parts[1], lineno)
            seen.add(parts[1])
            elements.append(parts[1])
        elif parts[0] == "cover" and len(parts) == 3:
            covers.append((parts[1], parts[2]))
        elif parts[0] == "bottom" and len(parts) == 2:
            if bottom is not None:
                raise ParseError("second bottom directive", lineno)
            bottom = parts[1]
        else:
            raise ParseError("unrecognized directive %r" % line, lineno)
    if bottom is None:
        raise OrderViolation("no bottom directive")
    return Poset(elements, covers, bottom)


def format_poset(p: Poset) -> str:
    lines = ["element %s" % e for e in p.elements]
    lines.append("bottom %s" % p.bottom)
    lines.extend("cover %s %s" % c for c in p.covers)
    return "\n".join(lines) + "\n"
