"""Finitely supported measures with dyadic weights on a finite poset.

A :class:`SimpleValuation` assigns a dyadic weight to finitely many
elements; its value on an upper set is the sum of the weights inside. Total
mass is at most 1 (exactly 1 for probability valuations).

The pointwise order ("mu(U) <= nu(U) on every upper set") is decided by
one flow: :func:`leq` routes mu's mass upward into nu's mass through a
max-flow network whose middle edges follow the poset order, and the order
holds iff the flow saturates mu. The same flow doubles as an explicit
transport plan witnessing the comparison, and its minimum cut yields the
upper set refuting it. The test suite keeps the brute-force check on
every upper set as its oracle.

A decision and its certificate cost one solve. :func:`leq`,
:func:`leq_witness` and :func:`transport_plan` all take the flow from
_order_flow, which keeps the flow of the last pair it solved, so `leq`
followed by the plan or the witness of the same pair solves once. The
slot holds exactly one pair: a decision and its certificate are asked one
after the other, so one pair is all they share. More entries would hold
flows that no certificate reads, and would make a query's cost depend on
the queries asked before it.

Way-below, mu(U) < nu(U) on every upper set U that mu charges (normalized
mode exempts the whole poset), is decided on the same network with every
source capacity raised by one dyadic epsilon. It builds and solves a
network of its own, outside the slot, since it raises that network's
capacities in place.

Integration against monotone functions, pushforward along monotone maps
and a finite-scale weak-convergence (Portmanteau) check complete the
module. The Portmanteau check sums integer numerators over the upper
sets of the valuations' joint support, the traces V of the poset's upper
sets. One routine, _trace_rows, makes a row per trace, ordered by up(V)'s
bitmask, and two readers share it: portmanteau_check reports one record
per row, as up(V), and the weak-convergence gate of a sequence
(portmanteau_witness) builds the upper set of the first failing row alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import flow as flowmod
from .dyadic import ONE, ZERO, Dyadic, parse_dyadic
from .errors import (MassExceeded, MixedBase, NotComparable, NotMonotone,
                     NotProbability, ParseError, PartialMap, UnknownElement)
from .poset import Poset, UpperSet, _bits, upper_masks
from .text import known, read_lines, writable

# the one capacity of the middle edges, which flow.FlowNetwork requires to
# exceed every sink capacity: a weight is at most 1, so no middle edge
# saturates and a minimum cut never crosses the middle layer
_WIDE = Dyadic(2, 0)


class SimpleValuation:
    """Sum of weighted point masses; weights dyadic, total mass <= 1.

    Zero-weight entries are dropped, so equal valuations have equal weight
    maps, kept in element declaration order. Construction walks the given
    weights only, not the poset, and sums the mass as integer numerators
    at the largest exponent. Instances are immutable by convention.
    """

    def __init__(self, base: Poset, weights: dict):
        self.base = base
        index, elements = base.index, base.elements
        nonzero = []
        for x, w in weights.items():
            if x not in index:
                raise UnknownElement("%r is not an element" % (x,))
            if w is not None and w.num:
                nonzero.append((index[x], w))
        nonzero.sort()  # by index alone: indices are distinct
        self.weights = {elements[i]: w for i, w in nonzero}
        top = max((w.exp for _, w in nonzero), default=0)
        total = sum(w.num << top - w.exp for _, w in nonzero)
        mass = Dyadic(total, top)
        if total > 1 << top:
            raise MassExceeded("total mass %s exceeds 1" % mass)
        self.mass = mass

    @property
    def support(self):
        """Support in element declaration order."""
        return list(self.weights)

    def weight(self, x) -> Dyadic:
        self.base._check(x)
        return self.weights.get(x, ZERO)

    def is_probability(self) -> bool:
        return self.mass == ONE

    def max_exponent(self) -> int:
        return max((w.exp for w in self.weights.values()), default=0)

    def evaluate(self, upper: UpperSet) -> Dyadic:
        """Mass inside an upper set of the same base poset."""
        if upper.base is not self.base:
            raise MixedBase("upper set belongs to a different poset")
        total = ZERO
        for x, w in self.weights.items():
            if x in upper.members:
                total = total + w
        return total

    def __eq__(self, other):
        return (isinstance(other, SimpleValuation)
                and self.base is other.base and self.weights == other.weights)

    def __repr__(self):
        body = " + ".join("%s.d[%s]" % (w, x)
                          for x, w in self.weights.items()) or "0"
        return "SimpleValuation(%s)" % body


def delta(base: Poset, x) -> SimpleValuation:
    """The point mass at x."""
    return SimpleValuation(base, {x: ONE})


def scale(v: SimpleValuation, c: Dyadic) -> SimpleValuation:
    return SimpleValuation(v.base, {x: w * c for x, w in v.weights.items()})


def add(v: SimpleValuation, w: SimpleValuation) -> SimpleValuation:
    if v.base is not w.base:
        raise MixedBase("cannot add valuations over different posets")
    out = dict(v.weights)
    for x, c in w.weights.items():
        out[x] = out.get(x, ZERO) + c
    return SimpleValuation(v.base, out)


def _same_base(mu: SimpleValuation, nu: SimpleValuation):
    if mu.base is not nu.base:
        raise MixedBase("valuations live on different posets")


def order_network(mu: SimpleValuation, nu: SimpleValuation) -> flowmod.FlowNetwork:
    """The network whose maximum flow decides mu <= nu.

    Its middle edges x -> y are the pairs x <= y of mu's and nu's supports,
    given as one row per x: x's up-set mask restricted to nu's support,
    whose set bits ascend in declaration order, as nu's support does. They
    share the capacity _WIDE, above every sink capacity nu(y) <= 1, so they
    act as uncapacitated, as a transport's entries are.
    """
    index, up = mu.base.index, mu.base._up_mask
    columns = sum(1 << index[y] for y in nu.weights)
    rows = {x: up[index[x]] & columns for x in mu.weights}
    return flowmod.FlowNetwork(
        mu.support, nu.support, dict(mu.weights),
        flowmod.MaskEdges(rows, mu.base.elements, _WIDE), dict(nu.weights))


# (key, flow): the last pair _order_flow solved, replaced as one tuple
_kept = (None, None)


def _order_flow(mu: SimpleValuation, nu: SimpleValuation) -> flowmod.Flow:
    """The maximum flow of order_network(mu, nu), solved once per pair.

    The flow of the last pair solved is kept in one slot, under the key
    (base, mu's weights, nu's weights). The base compares by identity and
    the weights by their canonical dyadic values, so an equal key means an
    identical network, whose deterministic solve gives an identical flow:
    the slot changes no answer. It is replaced by one assignment, so a
    reader never pairs one key with another pair's flow. A flow's value,
    cut and units are immutable (the units are tuples), so the callers
    share it.
    """
    global _kept
    _same_base(mu, nu)
    key = (mu.base, tuple(mu.weights.items()), tuple(nu.weights.items()))
    kept_key, kept = _kept
    if key == kept_key:
        return kept
    f = flowmod.max_flow(order_network(mu, nu))
    _kept = key, f
    return f


def leq(mu: SimpleValuation, nu: SimpleValuation) -> bool:
    """The valuation order, decided by max-flow.

    True iff the maximum flow routes all of mu's mass, i.e. iff transport
    numbers moving mass only upward exist. The flow is kept (see
    _order_flow), so a following leq_witness or transport_plan of the same
    pair solves nothing more.
    """
    return _order_flow(mu, nu).value == mu.mass


def _witness(mu: SimpleValuation, f: flowmod.Flow):
    """An upper set refuting mu <= nu, read off the order network's flow f.

    None when f saturates mu; otherwise mu's support on the source side of
    f's minimum cut generates an upper set U with mu(U) > nu(U). The left
    nodes are mu's support in order, so the cut's left mask picks them, and
    U is the OR of their up-set masks.
    """
    if f.value == mu.mass:
        return None
    base = mu.base
    index, up, left = base.index, base._up_mask, f.net.left
    closure = 0
    for k in _bits(f._seen[0]):
        closure |= up[index[left[k]]]
    return UpperSet(base, base._members(closure))


def leq_witness(mu: SimpleValuation, nu: SimpleValuation):
    """On failure of leq, an upper set U with mu(U) > nu(U), else None.

    It reads the cut of the flow leq solved for the same pair, or solves
    that flow once and keeps it (see _order_flow).
    """
    return _witness(mu, _order_flow(mu, nu))


@dataclass
class TransportPlan:
    """Matrix t[x, y] witnessing mu <= nu.

    Mass moves only upward (t > 0 implies x <= y), rows sum to mu's
    weights, columns stay within nu's weights.
    """

    source: SimpleValuation
    target: SimpleValuation
    entries: dict

    def verify(self):
        """Check the plan: its entries, rescaled to integers at one common
        exponent, go through the one check every plan takes (_check_units).
        """
        mu, nu = self.source, self.target
        p = max(mu.max_exponent(), nu.max_exponent(),
                max((t.exp for t in self.entries.values()), default=0))
        _check_units(mu, nu, p, [(xy, t.rescale(p))
                                 for xy, t in self.entries.items()])

    def lines(self):
        order = self.source.base.index
        for (x, y) in sorted(self.entries, key=lambda e: (order[e[0]],
                                                          order[e[1]])):
            yield "t %s %s %s" % (x, y, self.entries[x, y])


def _check_units(mu: SimpleValuation, nu: SimpleValuation, p: int,
                 units) -> None:
    """The check every transport plan takes, on integer units of 2^-p.

    units lists ((x, y), k): k units move from x up to y. Each k must be
    positive and each x <= y; the units leaving each x must sum to mu(x),
    and those reaching each y stay within nu(y). p is at least every
    exponent of mu and nu. Raises AssertionError, which `python -O` keeps.
    """
    index, up = mu.base.index, mu.base._up_mask
    rows, cols = {}, {}
    for (x, y), k in units:
        if k <= 0 or not up[index[x]] >> index[y] & 1:
            raise AssertionError("plan entry %s -> %s is not a positive "
                                 "upward move" % (x, y))
        rows[x] = rows.get(x, 0) + k
        cols[y] = cols.get(y, 0) + k
    if rows != {x: w.rescale(p) for x, w in mu.weights.items()}:
        raise AssertionError("plan rows do not sum to the source's weights")
    for y, k in cols.items():
        if k > nu.weights.get(y, ZERO).rescale(p):
            raise AssertionError("plan column %s exceeds the target's weight"
                                 % (y,))


def _transport_units(mu: SimpleValuation, nu: SimpleValuation) -> tuple:
    """transport_plan's numbers as checked integer units (p, (((x, y), k),
    ...)) of 2^-p, listed by x, then y, in declaration order.

    They are the units of the order network's flow (see _order_flow).
    Refuses with NotComparable when the flow does not saturate mu.
    """
    f = _order_flow(mu, nu)
    if f.value != mu.mass:
        raise NotComparable("valuations are not ordered; no transport plan")
    p, units = f.units
    _check_units(mu, nu, p, units)
    return p, units


def transport_plan(mu: SimpleValuation, nu: SimpleValuation) -> TransportPlan:
    """Extract transport numbers from the maximum flow; requires mu <= nu.

    It reads the flow leq solved for the same pair, or solves that flow
    once and keeps it (see _order_flow); either way the plan takes the one
    plan check.
    """
    p, units = _transport_units(mu, nu)
    return TransportPlan(mu, nu, {xy: Dyadic(k, p) for xy, k in units})


def way_below(mu: SimpleValuation, nu: SimpleValuation,
              normalized: bool = False) -> bool:
    """The approximation relation between valuations, decided by one flow.

    mu approximates nu iff mu(U) < nu(U) on every upper set U that mu
    charges, except, in normalized (probability) mode, those holding the
    bottom: only the whole poset. As mu(U) = mu(S) for S = U & supp mu, and
    up S is an upper set inside U, this is mu(S) < nu(up S) for every
    nonempty S in mu's support. Both sides are multiples of 2^-p, so a
    strict gap is at least 2^-p >= eps * |S| for eps = 2^-(p +
    ceil(log2 |supp mu|)): the condition holds iff the order network still
    saturates with every source capacity raised by eps. Normalized mode
    first drops mu's bottom mass, which only the whole poset holds; that
    set then fails only if mu misses the bottom, and then so does up(supp
    mu), which has all of mu's mass. A bottom point mass charges nothing.

    The raised network is built and solved here on every call, outside
    _order_flow's slot: its capacities are raised in place, so neither it
    nor its flow answers the order question of any pair.
    """
    _same_base(mu, nu)
    if normalized:
        if not (mu.is_probability() and nu.is_probability()):
            raise NotProbability(
                "normalized mode needs probability valuations")
        mu = SimpleValuation(mu.base, {x: w for x, w in mu.weights.items()
                                       if x != mu.base.bottom})
    net = order_network(mu, nu)
    p = max(mu.max_exponent(), nu.max_exponent())
    eps = Dyadic(1, p + (len(net.left) - 1).bit_length())
    caps = net.source_caps  # the network's own copy of mu's weights
    for x, c in caps.items():
        caps[x] = c + eps
    return flowmod.max_flow(net).value == sum(caps.values(), ZERO)


def integrate_monotone(f: dict, v: SimpleValuation) -> Dyadic:
    """Sum of weight(x) * f(x) for a monotone dyadic-valued f.

    f must cover the whole poset and respect the order: every pair x <= y
    is checked, x and then y in declaration order, and the error names the
    first pair with f(y) < f(x). Each x walks the bits of its up-set mask,
    so the check costs the order's pairs, not every pair of elements.
    """
    base = v.base
    names, up = base.elements, base._up_mask
    for x in names:
        if x not in f:
            raise PartialMap("integrand undefined on %r" % (x,))
    for i, x in enumerate(names):
        fx = f[x]
        for j in _bits(up[i]):
            if f[names[j]] < fx:
                raise NotMonotone("integrand decreases from %s to %s"
                                  % (x, names[j]))
    total = ZERO
    for x, w in v.weights.items():
        total = total + w * f[x]
    return total


@dataclass
class PosetMap:
    """A map between posets, monotone where defined."""

    source: Poset
    target: Poset
    mapping: dict

    def __post_init__(self):
        """Check every pair x <= y of the domain, x and then y in mapping
        order, and name the first whose images are not ordered. Each x
        walks its up-set mask restricted to the domain's mask."""
        source, target = self.source, self.target
        for x, y in self.mapping.items():
            source._check(x)
            target._check(y)
        sindex, tindex, tup = source.index, target.index, target._up_mask
        # bit i of the domain: its position in the mapping, its image's index
        rank = {sindex[x]: r for r, x in enumerate(self.mapping)}
        image = {sindex[x]: tindex[y] for x, y in self.mapping.items()}
        domain = sum(1 << i for i in image)
        names = source.elements
        for i, t in image.items():
            above = tup[t]
            breaks = [j for j in _bits(source._up_mask[i] & domain)
                      if not above >> image[j] & 1]
            if breaks:
                j = min(breaks, key=rank.__getitem__)
                raise NotMonotone("map breaks order at %s <= %s"
                                  % (names[i], names[j]))


def pushforward(g: PosetMap, v: SimpleValuation) -> SimpleValuation:
    """Transport a valuation along a monotone map; mass is preserved."""
    if g.source is not v.base:
        raise MixedBase("map domain differs from the valuation's poset")
    out = {}
    for x, w in v.weights.items():
        if x not in g.mapping:
            raise PartialMap("map undefined on support element %r" % (x,))
        y = g.mapping[x]
        out[y] = out.get(y, ZERO) + w
    return SimpleValuation(g.target, out)


# -- finite-scale weak convergence ------------------------------------------

@dataclass
class PortmanteauRecord:
    upper: UpperSet
    open_ok: bool    # liminf-style condition on the Scott-open reading
    closed_ok: bool  # limsup-style condition on the finitely-generated reading


@dataclass
class PortmanteauReport:
    """The Portmanteau verdict, one record per trace on the support.

    Every valuation of the check is carried by support, the union of their
    supports, so its value on an upper set U depends only on the trace
    U & support. Each record stands for one trace V, as up(V), the least
    upper set with that trace; the records ascend by up(V)'s bitmask, so
    the witness, the first failing record, is also the first failing upper
    set of the whole poset in ascending bitmask order. base is the poset
    the valuations live on.
    """

    records: list
    verdict: bool
    witness: UpperSet | None
    support: frozenset
    base: Poset
    _by_upper: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._by_upper = {r.upper.members: r for r in self.records}

    def record_for(self, upper: UpperSet) -> PortmanteauRecord:
        """The record of upper's trace, whose flags are upper's own; upper
        must be an upper set of the report's poset."""
        if upper.base is not self.base:
            raise MixedBase("upper set belongs to a different poset")
        return self._by_upper[
            upper.base.upward_closure(upper.members & self.support)]


def _approaches(values, limit) -> bool:
    """Exact liminf certificate for a finite tail of values.

    values and limit are integer numerators over one common power of two.
    Every value already at or above the limit is fine and must not fall
    back; a deficit must at least halve at each step (geometric decay is
    the only convergence a finite exact window can certify). The limsup
    bullet is this check on the negated numerators.
    """
    if len(values) == 1:
        return not values[0] < limit
    for v, nxt in zip(values, values[1:]):
        if v < limit:
            if 2 * nxt < limit + v:
                return False
        elif nxt < limit:
            return False
    return True


def _trace_rows(seq, limit: SimpleValuation, from_index: int):
    """The two weak-convergence bullets on every trace, as rows.

    Returns (rows, support). support S is the union of the supports of the
    tail seq[from_index:] and of the limit; rows holds one row (closure,
    open_ok, closed_ok) per upper set V of S under the induced order, the
    traces of the poset's upper sets on S, where closure is the bitmask of
    up(V). The rows ascend by closure: distinct traces have distinct
    closures. Each valuation is summed over a trace as integer numerators
    at one common exponent, and the bullets are read as exact decay
    certificates (see _approaches).
    """
    if not seq:
        raise ValueError("empty sequence")
    if not 0 <= from_index < len(seq):
        raise ValueError("from_index %d out of range" % from_index)
    for v in seq:
        _same_base(v, limit)
    base = limit.base
    vals = [*seq[from_index:], limit]
    support = frozenset().union(*(v.weights for v in vals))
    # S in declaration order; bit k of a trace is the element s[k]
    index, up = base.index, base._up_mask
    s = sorted(index[x] for x in support)
    s_up = [sum(1 << k for k, j in enumerate(s) if up[i] >> j & 1)
            for i in s]
    p = max(v.max_exponent() for v in vals)
    cols = [[v.weights.get(base.elements[i], ZERO).rescale(p) for v in vals]
            for i in s]
    rows = []
    for trace in upper_masks(s_up):
        closure, sums = 0, [0] * len(vals)
        for k, i in enumerate(s):
            if trace >> k & 1:
                closure |= up[i]
                sums = [a + b for a, b in zip(sums, cols[k])]
        rows.append((closure, sums))
    rows.sort()     # by up(V): distinct traces have distinct closures
    return [(closure, _approaches(values, target),
             _approaches([-v for v in values], -target))
            for closure, (*values, target) in rows], support


def portmanteau_witness(seq, limit: SimpleValuation,
                        from_index: int = 0) -> UpperSet | None:
    """The Portmanteau witness alone: portmanteau_check(seq, limit,
    from_index).witness, or None when the check passes.

    It reads the same rows and builds one UpperSet, the first failing
    row's, with no record for the others: a sequence's weak-convergence
    gate needs only the verdict and the witness.
    """
    rows, _ = _trace_rows(seq, limit, from_index)
    for closure, open_ok, closed_ok in rows:
        if not (open_ok and closed_ok):
            base = limit.base
            return UpperSet(base, base._members(closure))
    return None


def portmanteau_check(seq, limit: SimpleValuation,
                      from_index: int = 0) -> PortmanteauReport:
    """Check the two weak-convergence bullets on every upper set.

    On a finite poset every upper set is both Scott-open and finitely
    generated, so both bullets run against the same family. The tail
    starts at from_index; liminf/limsup are rendered as exact decay
    certificates (see _approaches).

    Only the upper sets of the support S (the union of the supports of the
    tail and the limit, under the induced order) are enumerated: they are
    exactly the traces of the poset's upper sets on S (see _trace_rows).
    The report holds one record per trace, as the least upper set with that
    trace, in ascending bitmask order (see PortmanteauReport).
    """
    rows, support = _trace_rows(seq, limit, from_index)
    base = limit.base
    records = [PortmanteauRecord(UpperSet(base, base._members(closure)),
                                 open_ok, closed_ok)
               for closure, open_ok, closed_ok in rows]
    witness = next((r.upper for r in records
                    if not (r.open_ok and r.closed_ok)), None)
    return PortmanteauReport(records, witness is None, witness, support,
                             base)


# -- text form ---------------------------------------------------------------

def parse_valuation(text: str, base: Poset) -> SimpleValuation:
    """Parse "<element> <dyadic>" lines into a valuation on base."""
    weights = {}
    for lineno, _, parts in read_lines(text):
        if len(parts) != 2:
            raise ParseError("expected '<element> <dyadic>'", lineno)
        x, w = parts
        known(x, base, lineno)
        try:
            d = parse_dyadic(w)
        except ParseError:
            raise ParseError("not a dyadic rational: %r" % w, lineno)
        weights[x] = weights.get(x, ZERO) + d
    return SimpleValuation(base, weights)


def format_valuation(v: SimpleValuation) -> str:
    writable(v.support)
    lines = ["%s %s" % (x, v.weights[x]) for x in v.support]
    return "\n".join(lines) + ("\n" if lines else "")
