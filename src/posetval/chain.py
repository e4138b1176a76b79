"""Cumulative distributions and quantile maps on finite chains.

On a chain, a valuation is captured without loss by its cumulative
distribution function F(x) = mass of the down-set of x. F preserves infima,
so it has a lower Galois adjoint G sending r in [0, 1] to the least element
whose cumulative mass reaches r -- the quantile map. Pushing Lebesgue
measure through G recovers the valuation exactly, and the passage is an
order isomorphism: quantile maps compare pointwise iff their pushforwards
compare as valuations.

Quantile maps are stored as breakpoints (ascending thresholds with target
elements), which keeps the Lebesgue pushforward exact: the weight of an
element is a difference of dyadic thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dyadic import ONE, ZERO, Dyadic, parse_dyadic
from .errors import (NotAChain, ParseError, PartialQuantile, Unreachable,
                     UnknownElement)
from .poset import Poset
from .valuation import SimpleValuation


def _require_chain(p: Poset):
    if not p._is_chain():
        raise NotAChain("poset is not totally ordered")


def _ascending(p: Poset):
    """Chain elements from bottom to top."""
    return sorted(p.elements, key=lambda x: len(p.down_set(x)))


@dataclass
class Cdf:
    """values[x] = mass at or below x; monotone, reaching the total mass."""

    base: Poset
    values: dict

    def __call__(self, x) -> Dyadic:
        if x not in self.values:
            raise UnknownElement("%r is not an element" % (x,))
        return self.values[x]


def cdf(v: SimpleValuation) -> Cdf:
    """Cumulative distribution of a valuation on a chain."""
    _require_chain(v.base)
    running = ZERO
    values = {}
    for x in _ascending(v.base):
        running = running + v.weight(x)
        values[x] = running
    return Cdf(v.base, values)


@dataclass
class QuantileMap:
    """Step function [0, total] -> chain, the lower adjoint of a CDF.

    breakpoints are (threshold, element) pairs with strictly ascending
    thresholds and strictly ascending elements; the map sends r in
    (threshold[i-1], threshold[i]] to element[i], and r = 0 to the chain's
    least element. Above the last threshold the map is undefined (the
    generating valuation had mass below r).
    """

    base: Poset
    breakpoints: list

    def total(self) -> Dyadic:
        return self.breakpoints[-1][0] if self.breakpoints else ZERO

    def is_total(self) -> bool:
        return self.total() == ONE

    def __call__(self, r: Dyadic):
        if self.total() < r:
            raise Unreachable("no element reaches cumulative mass %s" % r)
        if r.is_zero():
            # every cumulative value reaches 0, so the least element wins
            return _ascending(self.base)[0]
        for threshold, element in self.breakpoints:
            if not threshold < r:     # r <= threshold
                return element
        raise AssertionError("unreachable: r <= total")


def lower_adjoint(f: Cdf) -> QuantileMap:
    """The quantile map G(r) = least x with F(x) >= r."""
    breakpoints = []
    last = ZERO
    for x in _ascending(f.base):
        v = f.values[x]
        if last < v:
            breakpoints.append((v, x))
            last = v
    return QuantileMap(f.base, breakpoints)


def pushforward_lebesgue(g: QuantileMap) -> SimpleValuation:
    """Exact law of a total quantile map under the uniform measure.

    Each element receives the length of its preimage interval; the
    breakpoint representation makes those lengths dyadic differences.
    """
    if not g.is_total():
        raise PartialQuantile("quantile map stops at mass %s" % g.total())
    weights = {}
    last = ZERO
    for threshold, element in g.breakpoints:
        weights[element] = threshold - last
        last = threshold
    return SimpleValuation(g.base, weights)


def quantile_leq(g: QuantileMap, h: QuantileMap) -> bool:
    """Pointwise comparison of two quantile maps over their full domain.

    Both maps are constant on the half-open intervals of their merged
    threshold grid, so comparing at each interval's right endpoint (plus
    r = 0, where both sit at the chain's bottom) decides the pointwise
    order exactly. Domains must agree.
    """
    if g.base is not h.base:
        raise NotAChain("quantile maps over different chains")
    if g.total() != h.total():
        return False
    grid = sorted({t for t, _ in g.breakpoints}
                  | {t for t, _ in h.breakpoints})
    return all(g.base.leq(g(r), h(r)) for r in grid)


def parse_quantile(text: str, base: Poset) -> QuantileMap:
    """Parse "break <dyadic> <element>" lines, ascending."""
    _require_chain(base)
    rank = {x: i for i, x in enumerate(_ascending(base))}
    breakpoints = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] != "break":
            raise ParseError("expected 'break <dyadic> <element>'", lineno)
        try:
            threshold = parse_dyadic(parts[1])
        except ParseError:
            raise ParseError("bad threshold %r" % parts[1], lineno)
        element = parts[2]
        if element not in base.index:
            raise UnknownElement("line %d: unknown element %r"
                                 % (lineno, element))
        if breakpoints:
            t0, e0 = breakpoints[-1]
            if not (t0 < threshold and rank[e0] < rank[element]):
                raise ParseError("breakpoints must ascend strictly", lineno)
        breakpoints.append((threshold, element))
    return QuantileMap(base, breakpoints)


def format_quantile(g: QuantileMap) -> str:
    lines = ["break %s %s" % (t, e) for t, e in g.breakpoints]
    return "\n".join(lines) + ("\n" if lines else "")
