"""Finite partial orders with a least element.

A :class:`Poset` is built from cover relations; the full order is the
reflexive-transitive closure, validated at construction (antisymmetry, and a
bottom element below everything). The order is stored once, as up-closure
bitsets, closed in one pass over Kahn's topological order of the covers
from the top down; an order that Kahn sorts completely is acyclic, hence
antisymmetric, so only a cycle falls back to a strongly connected
component pass, which names the first pair that breaks antisymmetry.
Finite posets stand in for countably based domains throughout the
package: every element is compact, so the way-below relation coincides
with the order itself, and `Poset.leq` decides both.

Upper sets of a finite poset are exactly its Scott-open sets; they can be
enumerated exhaustively, as the `portmanteau` command lists them. The
enumeration costs time in proportion to its output, and stops with
TooLarge once (upper sets found) x (elements) passes ORACLE_BOUND *
2^ORACLE_BOUND: the most a 16-element poset can need, so larger posets are
fine as long as they have few upper sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OrderViolation, ParseError, TooLarge, UnknownElement
from .text import digraph, read_lines, statement, writable

ORACLE_BOUND = 16


def _bits(mask: int):
    """The positions of mask's set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _refuse_cycle(elements, above, below):
    """Raise OrderViolation naming the first pair i < j (by declaration
    order) on a cycle: i is the least index in any strongly connected
    component of two or more elements, j the next least in its component.
    Kosaraju's search up the covers lists the elements as they finish;
    searches down, latest finish first, then collect one component each.
    """
    n = len(elements)
    seen, finished = [False] * n, []
    for root in range(n):
        path = [] if seen[root] else [(root, iter(above[root]))]
        seen[root] = True
        while path:
            w = next((w for w in path[-1][1] if not seen[w]), None)
            if w is None:
                finished.append(path.pop()[0])
            else:
                seen[w] = True
                path.append((w, iter(above[w])))
    first = [n, n]
    for root in reversed(finished):     # seen now means "not yet collected"
        if seen[root]:
            seen[root] = False
            component = [root]
            for v in component:         # grows while it is read
                for w in below[v]:
                    if seen[w]:
                        seen[w] = False
                        component.append(w)
            if len(component) > 1:
                first = min(first, sorted(component)[:2])
    raise OrderViolation("antisymmetry fails: %s and %s"
                         % tuple(elements[k] for k in first))


class Poset:
    """Immutable finite poset with bottom.

    The order is stored once: bit j of ``_up_mask[i]`` is set iff element
    i <= element j. Elements keep their declaration order; all deterministic
    tie-breaking in the package (flow search, slot assignment, output
    ordering) refers to it.
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
        # above[i] lists the covers of element i, below[j] the elements j
        # covers; a self-cover adds nothing to the order and is skipped
        above = [[] for _ in range(n)]
        below = [[] for _ in range(n)]
        for lo, hi in covers:
            if lo not in self.index or hi not in self.index:
                raise UnknownElement("cover names unknown element: %s %s"
                                     % (lo, hi))
            self.covers.append((lo, hi))
            i, j = self.index[lo], self.index[hi]
            if i != j:
                above[i].append(j)
                below[j].append(i)
        # up[i] is the upward closure of element i as a bitmask, bit j ==
        # element j. Kahn's order from the top: an element is closed once
        # every cover above it is, as itself OR their closures
        up = [0] * n
        pending = [len(a) for a in above]
        ready = [i for i in range(n) if not pending[i]]
        for i in ready:     # grows while it is read
            m = 1 << i
            for j in above[i]:
                m |= up[j]
            up[i] = m
            for k in below[i]:
                pending[k] -= 1
                if not pending[k]:
                    ready.append(k)
        if len(ready) < n:
            # only a cycle leaves elements unordered; an acyclic order is
            # antisymmetric, so only this path looks for a cycle
            _refuse_cycle(elements, above, below)
        missing = ~up[self.index[bottom]] & ((1 << n) - 1)
        if missing:
            raise OrderViolation("bottom %s is not below %s"
                                 % (bottom, elements[(missing & -missing)
                                                     .bit_length() - 1]))
        self._up_mask = up

    def __len__(self):
        return len(self.elements)

    def _check(self, *xs):
        for x in xs:
            if x not in self.index:
                raise UnknownElement("%r is not an element" % (x,))

    def leq(self, x, y) -> bool:
        """True iff x <= y in the transitive closure."""
        self._check(x, y)
        return bool(self._up_mask[self.index[x]] >> self.index[y] & 1)

    def _members(self, mask: int) -> frozenset:
        """The elements whose bits are set in mask."""
        return frozenset(self.elements[b] for b in _bits(mask))

    def is_upper(self, members) -> bool:
        members = set(members)
        self._check(*members)
        index, up = self.index, self._up_mask
        mask = 0
        for x in members:
            mask |= 1 << index[x]
        return all(not up[index[x]] & ~mask for x in members)

    def enumerate_upper_sets(self):
        """All upward-closed subsets, each once, in ascending bitmask order.

        Includes the empty set and the full set. Raises TooLarge once
        (sets found) x (elements) passes the budget; see upper_masks.
        """
        return [UpperSet._closed(self, m) for m in upper_masks(self._up_mask)]

    def _is_chain(self) -> bool:
        """True iff every two elements are comparable.

        The up-set sizes lie in 1..n; they are pairwise distinct iff they
        are 1..n, summing to n(n+1)/2. That sum is n plus the number of
        strictly comparable pairs, so then all n(n-1)/2 pairs compare.
        """
        return (len({m.bit_count() for m in self._up_mask})
                == len(self.elements))

    def classify(self) -> dict:
        """Shape flags: a scan of the incomparable pairs for meets, then a
        test for a top.

        The common lower bounds L of a pair have a greatest element k iff
        L is the principal down-set of k (k in L puts its down-set inside
        L, and k above all of L puts L inside it), so each pair is one set
        lookup on the bitsets. A comparable pair meets at its lower end, so
        only the incomparable pairs are looked up: for each i, the bits
        above i outside its up-set and down-set. A finite poset with all
        meets and a top is a lattice (a pair's join is the meet of its
        upper bounds), and every lattice has a top, so joins need no scan.
        A chain has no incomparable pair, so its scan finds every meet.
        Down-sets are ORed up the covers by descending up-set size of the
        upper end, which puts each element after all those strictly below.
        """
        n = len(self.elements)
        index, up = self.index, self._up_mask
        down = [1 << j for j in range(n)]
        for lo, hi in sorted(self.covers,
                             key=lambda c: -up[index[c[1]]].bit_count()):
            down[index[hi]] |= down[index[lo]]
        downs = set(down)
        full = (1 << n) - 1
        has_meet = all(down[i] & down[j] in downs
                       for i in range(n)
                       for j in _bits(full & ~up[i] & ~down[i]
                                      & ~((2 << i) - 1)))
        return {"is_chain": self._is_chain(),
                "is_bounded_complete": has_meet,
                "is_lattice": has_meet and full in downs}

    def lift(self) -> "Poset":
        """A copy with a fresh bottom element strictly below the old one:
        "_bot", with as many "_" appended as it takes to be new."""
        fresh_bottom = "_bot"
        while fresh_bottom in self.index:
            fresh_bottom += "_"
        return Poset([fresh_bottom] + self.elements,
                     [(fresh_bottom, self.bottom)] + self.covers,
                     fresh_bottom)

    def to_dot(self) -> str:
        """Hasse diagram (cover edges drawn upward)."""
        return digraph("poset", "BT",
                       [statement(e) for e in self.elements]
                       + [statement(lo, hi) for lo, hi in self.covers])

    def __repr__(self):
        return "Poset(%d elements, bottom=%s)" % (len(self), self.bottom)


def upper_masks(up) -> list:
    """The upper sets of an order given by its up-closure bitmasks.

    up[i] is the bitmask of the elements above element i (itself included).
    Returns every upward-closed mask once, in ascending order, the empty
    and the full mask included. Decides the bits from the highest index
    down, 0 before 1, carrying the up-closure of the bits taken and the
    mask of those left out; a branch whose two masks meet is dropped, and
    every other branch completes (take the closure itself), so the work
    grows with the output. Raises TooLarge once (sets found) x (elements)
    passes ORACLE_BOUND * 2^ORACLE_BOUND.
    """
    n = len(up)
    budget = ORACLE_BOUND << ORACLE_BOUND
    masks = []
    # (next bit to decide, up-closure of the bits taken, bits left out);
    # the 1-branch is pushed first so the 0-branch is popped first, and
    # at the end the closure is exactly the bits taken
    stack = [(n - 1, 0, 0)]
    while stack:
        i, closed, excluded = stack.pop()
        if i < 0:
            if (len(masks) + 1) * n > budget:
                raise TooLarge("upper sets of %d elements exceed the "
                               "oracle budget %d * 2^%d"
                               % (n, ORACLE_BOUND, ORACLE_BOUND))
            masks.append(closed)
            continue
        bit = 1 << i
        if closed & bit:
            stack.append((i - 1, closed, excluded))
            continue
        one = closed | up[i]
        if not one & excluded:
            stack.append((i - 1, one, excluded))
        stack.append((i - 1, closed, excluded | bit))
    return masks


@dataclass(frozen=True)
class UpperSet:
    """An upward-closed subset of a poset (a Scott-open at finite scale).

    The public constructor checks that the members are elements and are
    upward closed. The library's own upper sets come from a bitmask that
    is an OR of up-set masks, closed by construction: upper_masks' sets,
    a cut's closure and the Portmanteau rows' up(V). Those are built by
    _closed, which skips the check; a property test re-runs it on them.
    """

    base: Poset
    members: frozenset

    def __post_init__(self):
        if not self.base.is_upper(self.members):
            raise OrderViolation("set is not upward closed: %s"
                                 % sorted(self.members))

    @classmethod
    def _closed(cls, base: Poset, mask: int) -> "UpperSet":
        """The upper set of base whose members are mask's bits, trusted to
        be upward closed: no check runs."""
        upper = cls.__new__(cls)
        object.__setattr__(upper, "base", base)
        object.__setattr__(upper, "members", base._members(mask))
        return upper

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
    for lineno, line, parts in read_lines(text):
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
    writable(p.elements)
    lines = ["element %s" % e for e in p.elements]
    lines.append("bottom %s" % p.bottom)
    lines.extend("cover %s %s" % c for c in p.covers)
    return "\n".join(lines) + "\n"
