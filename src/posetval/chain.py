"""Cumulative distributions and quantile maps on finite chains.

On a chain, a valuation is captured without loss by its cumulative
distribution function F(x) = mass of the down-set of x. F preserves infima,
so it has a lower Galois adjoint G sending r in [0, 1] to the least element
whose cumulative mass reaches r -- the quantile map. Pushing Lebesgue
measure through G recovers the valuation exactly, and the passage is an
order isomorphism: quantile maps compare pointwise iff their pushforwards
compare as valuations.

A quantile map is given by breakpoints, ascending dyadic thresholds with
their elements, and stored as a `cantor.StepMap` at the depth of its finest
threshold: the thresholds times 2^depth are its run ends. The Lebesgue
pushforward is then the step map's law, exact by counting, and two
quantile maps compare pointwise by one merge of their runs
(`StepMap.first_disagreement`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cantor import StepMap
from .dyadic import ONE, ZERO, Dyadic, parse_dyadic
from .errors import NotAChain, ParseError, PartialQuantile, UnknownElement
from .poset import Poset
from .text import known, read_lines, writable
from .valuation import SimpleValuation


def _require_chain(p: Poset):
    if not p._is_chain():
        raise NotAChain("poset is not totally ordered")


def _ascending(p: Poset):
    """Chain elements from bottom to top, by shrinking up-set."""
    up, index = p._up_mask, p.index
    return sorted(p.elements, key=lambda x: -up[index[x]].bit_count())


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
        running = running + v.weights.get(x, ZERO)
        values[x] = running
    return Cdf(v.base, values)


def _check_breakpoint(base: Poset, last, threshold: Dyadic, element,
                      lineno=None):
    """Refuse the breakpoint (threshold, element) after last, the one
    before it (None for the first): ParseError for a threshold above 1,
    UnknownElement for an element outside the chain, and ParseError when
    the threshold or the element does not ascend strictly past last's,
    along the chain. Each refusal names lineno when it is given."""
    if ONE < threshold:
        raise ParseError("threshold %s exceeds 1" % threshold, lineno)
    if lineno is None:
        base._check(element)
    else:
        known(element, base, lineno)
    # on a chain, an element not below last's lies strictly above it
    if last is not None and (not last[0] < threshold
                             or base.leq(element, last[1])):
        raise ParseError("breakpoints must ascend strictly", lineno)


class QuantileMap(StepMap):
    """Step function [0, total] -> chain, the lower adjoint of a CDF.

    breakpoints are (threshold, element) pairs with strictly ascending
    thresholds, at most 1, and strictly ascending elements of the chain;
    the map sends r in (threshold[i-1], threshold[i]] to element[i], and
    r = 0 to the chain's least element. Above the last threshold the map
    is undefined (the generating valuation had mass below r). The
    constructor refuses a base that is not a chain (NotAChain) and
    breakpoints that parse_quantile would refuse, with its errors, naming
    no line.
    """

    def __init__(self, base: Poset, breakpoints):
        _require_chain(base)
        for last, (t, x) in zip([None, *breakpoints], breakpoints):
            _check_breakpoint(base, last, t, x)
        self.base = base
        depth = max((t.exp for t, _ in breakpoints), default=0)
        super().__init__(depth,
                         ends=[t.rescale(depth) for t, _ in breakpoints],
                         values=[x for _, x in breakpoints])

    @property
    def breakpoints(self) -> list:
        return [(Dyadic(end, self.depth), x)
                for end, x in zip(self.ends, self.values)]

    def __call__(self, r: Dyadic):
        if r.is_zero():
            # every cumulative value reaches 0, so the least element wins
            return self.base.bottom
        return super().__call__(r)


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

    Each element receives the length of its preimage interval, which is
    its run length over 2^depth.
    """
    if g.total() != ONE:
        raise PartialQuantile("quantile map stops at mass %s" % g.total())
    return g.law(g.base)


def parse_quantile(text: str, base: Poset) -> QuantileMap:
    """Parse "break <dyadic> <element>" lines, ascending, thresholds <= 1."""
    _require_chain(base)
    breakpoints = []
    for lineno, _, parts in read_lines(text):
        if len(parts) != 3 or parts[0] != "break":
            raise ParseError("expected 'break <dyadic> <element>'", lineno)
        try:
            threshold = parse_dyadic(parts[1])
        except ParseError:
            raise ParseError("bad threshold %r" % parts[1], lineno)
        _check_breakpoint(base, breakpoints[-1] if breakpoints else None,
                          threshold, parts[2], lineno)
        breakpoints.append((threshold, parts[2]))
    return QuantileMap(base, breakpoints)


def format_quantile(g: QuantileMap) -> str:
    writable(g.values)
    lines = ["break %s %s" % (t, e) for t, e in g.breakpoints]
    return "\n".join(lines) + ("\n" if lines else "")
