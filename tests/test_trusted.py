"""The library's own builders skip checks whose facts hold by construction.

represent and the upper sets built from a closure mask
(enumerate_upper_sets, the order witness, the Portmanteau records and the
sequence gate) make their objects through private constructors that skip
the public constructors' checks, because each checked fact holds by
construction; these properties re-run the public check on what those
paths build. A flow network has no public check at all: order_network is
its one producer, and the flow engine trusts its fields. Its property
runs the reference check, oracles.network_violations, on every network
the decisions and the lift solve. A failure raises from a public
constructor or goes through pytest.fail, not through an assert
statement, so the properties still test something under `python -O`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetval import (RepresentationMap, SimpleValuation, UpperSet, flow, leq,
                      leq_witness, portmanteau_check, represent, way_below)
from posetval.dyadic import Dyadic
from posetval.skorohod import represent_target
from posetval.valuation import order_network, portmanteau_witness

from conftest import normalize, random_valuation, shuffled_poset
from oracles import network_violations


def pushed_up(rng, v, exp):
    """A valuation above v: each unit of 2^-exp of v's weight at x moves to
    an element above x, chosen at random. exp is at least v's exponents."""
    base = v.base
    counts = {}
    for x, w in v.weights.items():
        above = [y for y in base.elements if base.leq(x, y)]
        for _ in range(w.rescale(exp)):
            y = rng.choice(above)
            counts[y] = counts.get(y, 0) + 1
    return SimpleValuation(base, {y: Dyadic(n, exp)
                                  for y, n in counts.items()})


def random_chain(rng, base, length):
    """The bottom mass, then `length` stages, each pushed up from the last
    at an exponent no smaller than its own."""
    bottom = SimpleValuation(base, {base.bottom: Dyadic(1, 0)})
    stages = [bottom]
    for _ in range(length):
        exp = max(stages[-1].max_exponent(), rng.randint(0, 5))
        stages.append(pushed_up(rng, stages[-1], exp))
    return stages


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 4))
def test_represent_builds_maps_the_public_check_accepts(rng, steps):
    base = shuffled_poset(rng, 8, rng.choice([0.2, 0.5]))
    target = random_valuation(rng, base, exp=rng.randint(0, 5),
                              probability=True)
    for rmap in (represent_target(target, steps),
                 represent(random_chain(rng, base, steps))):
        # totality, strictly deeper layers and no word below its prefix;
        # raises ValueError or NotComparable otherwise
        RepresentationMap(base, rmap.layers)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_order_networks_pass_the_public_check(rng):
    # every network order_network builds, as the order decisions, both
    # way-below modes and the lifts solve it, and as it returns it; the
    # lifts' networks come from a chain of valuations and from a schedule's
    # integer numerators
    base = shuffled_poset(rng, 9, rng.choice([0.2, 0.5]))
    mu = random_valuation(rng, base, exp=rng.randint(0, 6))
    nu = random_valuation(rng, base, exp=rng.randint(0, 6))
    nets = [order_network(mu, nu)]
    real = flow.max_flow

    def solve(net):
        nets.append(net)
        return real(net)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "max_flow", solve)
        leq(mu, nu)
        way_below(mu, nu)
        way_below(normalize(mu), normalize(nu), normalized=True)
        represent(random_chain(rng, base, 3))
        represent_target(normalize(nu), 3)
    if len(nets) < 3:
        pytest.fail("only %d networks were solved" % len(nets))
    for net in nets:
        violations = network_violations(net)
        if violations:
            pytest.fail("%s: %s" % (net, "; ".join(violations)))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_mask_built_upper_sets_are_upward_closed(rng):
    base = shuffled_poset(rng, 8, rng.choice([0.2, 0.5]))
    uppers = base.enumerate_upper_sets()
    mu = random_valuation(rng, base, exp=3)
    nu = random_valuation(rng, base, exp=3)
    witness = leq_witness(mu, nu)
    if witness is not None:
        uppers.append(witness)
    seq = [random_valuation(rng, base, exp=3)
           for _ in range(rng.randint(1, 3))]
    limit = random_valuation(rng, base, exp=3)
    uppers += [r.upper for r in portmanteau_check(seq, limit).records]
    gate = portmanteau_witness(seq, limit)
    if gate is not None:
        uppers.append(gate)
    for upper in uppers:
        if upper.base is not base or not base.is_upper(upper.members):
            pytest.fail("%s is not an upper set of its poset" % upper)
        if UpperSet(base, upper.members) != upper:
            pytest.fail("%s differs from its checked copy" % upper)
