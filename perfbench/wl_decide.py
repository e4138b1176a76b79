"""decide: order and way-below queries on sparse random posets.

Each operation answers one query the way `posetval order` and
`posetval waybelow` do: `leq`, then `transport_plan` or `leq_witness`, or
`way_below` in either mode. Posets have 40..200 elements, supports 4..60
points and weights k/2^16. The flow engine and the valuation layer do
nearly all the work; the representation layers do none.
"""

import random

from posetval import valuation

import gen
from common import Inputs, Op, build_poset, build_valuation, clock, fraction
from oracle import check_plan, check_witness, expect

EXP = 16
POSET_SIZES = gen.spread(40, 200, 8)
# (kind, count, support size). The round is four blocks whose costs do
# not overlap, so that the median sits in the middle of one block of like
# queries and the 90th percentile in the middle of another, not on a
# slope where a small shift of one query moves it a lot:
#   cheap   36: 10-point leq, way-below on 4..12 points
#   median  48: 30-point leq, false
#   upper   12: 8-point subprobability way-below, true
#   top     24: 60-point leq, true
# 54 of the 120 queries are positive.
MIX = [
    ("leq_true", 10, 10), ("leq_false", 8, 10),
    ("waybelow_norm_true", 8, 12), ("waybelow_sub_false", 6, 12),
    ("waybelow_norm_false", 4, 4),
    ("leq_false", 48, 30),
    ("waybelow_sub_true", 12, 8),
    ("leq_true", 24, 60),
]
# the subset scan of subprobability way-below costs up to 2^support times
# the poset size, so those queries stay on the smaller posets
SUB_MAX_POSET = 85


def _query(rng, specs, kind, size, nth):
    fits = [s for s in specs if len(s.names) >= 2 * size]
    if kind.startswith("waybelow_sub"):
        fits = [s for s in fits if len(s.names) <= SUB_MAX_POSET]
    spec = fits[nth % len(fits)]
    rho = gen.random_probability(rng, gen.pick_support(rng, spec, size), EXP)
    if kind == "leq_true":
        return spec, rho, gen.push_up(rng, spec, rho), True
    if kind == "leq_false":
        return spec, rho, gen.push_down(rng, spec, rho), False
    if kind == "waybelow_norm_true":
        nu = gen.push_up(rng, spec, rho)
        j = 1 + nth % 3
        return spec, gen.blend(rho, {spec.bottom: 1}, j), nu, True
    if kind == "waybelow_sub_true":
        return spec, gen.halve(rho), gen.push_up(rng, spec, rho), True
    return spec, rho, rho, False    # nu << nu, nu not the bottom mass


def _leq_op(kind, order, mu_f, nu_f, mu, nu, known):
    def run():
        if valuation.leq(mu, nu):
            return True, valuation.transport_plan(mu, nu).entries
        return False, valuation.leq_witness(mu, nu).members

    def check(out):
        holds, detail = out
        expect(holds == known, "%s: leq answered %s", kind, holds)
        if holds:
            check_plan(order, mu_f, nu_f,
                       {xy: fraction(t) for xy, t in detail.items()})
        else:
            check_witness(order, mu_f, nu_f, detail)
        return fingerprint(out)

    def fingerprint(out):
        holds, detail = out
        return holds, frozenset(detail.items() if holds else detail)

    return Op(kind, run, check, fingerprint)


def _way_below_op(kind, mu, nu, normalized, known):
    def run():
        return valuation.way_below(mu, nu, normalized=normalized)

    def check(out):
        expect(out == known, "%s: way_below answered %s", kind, out)
        return out

    return Op(kind, run, check, lambda out: out)


def setup(seed, workdir):
    rng = random.Random(seed)
    specs = [gen.random_poset(n, "p%d_" % i)
             for i, n in enumerate(POSET_SIZES)]
    queries = []
    for kind, count, size in MIX:
        for nth in range(count):
            queries.append((kind,) + _query(rng, specs, kind, size, nth))
    rng.shuffle(queries)

    t0 = clock()
    posets = {id(s): build_poset(s) for s in specs}
    built = [(kind, spec, mu_f, nu_f, build_valuation(posets[id(spec)], mu_f),
              build_valuation(posets[id(spec)], nu_f), known)
             for kind, spec, mu_f, nu_f, known in queries]
    program_s = clock() - t0

    ops = []
    for kind, spec, mu_f, nu_f, mu, nu, known in built:
        if kind.startswith("leq"):
            ops.append(_leq_op(kind, spec.order, mu_f, nu_f, mu, nu, known))
        else:
            ops.append(_way_below_op(kind, mu, nu, "_norm_" in kind, known))
    return Inputs(ops, program_s)
