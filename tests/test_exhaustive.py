"""Every decision, checked on every small input against its oracle.

The sweep runs over each poset with a bottom up to isomorphism and every
valuation on it at one exponent (tests/exhaustive.py), so every tie, zero
weight and shape of that size is met. Tier-1 sweeps 4 elements at
exponent 2 and 5 elements at exponent 1; CI runs larger sweeps through
`sweep`.
"""

import sys

import pytest

from posetval import (SimpleValuation, leq, leq_witness, portmanteau_check,
                      skorohod, transport_plan, way_below)

from exhaustive import posets_with_bottom, valuations
from oracles import (law_by_grid_tabulation, leq_oracle,
                     portmanteau_by_upper_sets, strict_transport_exists,
                     value_on, way_below_by_subsets)


def check_order(mu, nu):
    """leq against the upper-set oracle, and its certificate: a plan that
    verifies, or an upper set that mu charges more than nu; way_below in
    subprobability mode against its subset oracle."""
    holds = leq(mu, nu)
    assert holds == leq_oracle(mu, nu), (mu, nu)
    witness = leq_witness(mu, nu)
    if holds:
        assert witness is None
        transport_plan(mu, nu).verify()
    else:
        assert mu.base.is_upper(witness.members)
        assert value_on(nu, witness.members) < value_on(mu, witness.members)
    assert way_below(mu, nu) == way_below_by_subsets(mu, nu), (mu, nu)


def check_normalized(mu, nu):
    """way_below in probability mode: mu's bottom mass charges only the
    whole poset, which the mode exempts, so it is the subset oracle on mu
    without its bottom mass, and a strict transport exists."""
    base = mu.base
    rest = SimpleValuation(base, {x: w for x, w in mu.weights.items()
                                  if x != base.bottom})
    got = way_below(mu, nu, normalized=True)
    assert got == way_below_by_subsets(rest, nu), (mu, nu)
    assert got == strict_transport_exists(mu, nu), (mu, nu)


def check_representation(target):
    """The witness's law is the target for K = 1..3, and so is its driver
    tabulated at every grid point."""
    for steps in (1, 2, 3):
        witness = skorohod(target, steps)
        assert witness.law_on_grid() == target, (target, steps)
        assert law_by_grid_tabulation(witness) == target, (target, steps)


def check_portmanteau(seq, limit):
    """The report on a two-term tail against the check on every upper set
    of the poset; record_for finds each upper set's own flags."""
    report = portmanteau_check(seq, limit)
    records, witness = portmanteau_by_upper_sets(seq, limit)
    assert report.witness == witness, (seq, limit)
    assert report.verdict == (witness is None)
    for rec in records:
        got = report.record_for(rec.upper)
        assert (got.open_ok, got.closed_ok) == (rec.open_ok, rec.closed_ok)


def sweep(n: int, exp: int) -> int:
    """Check every decision on every poset of n elements with a bottom and
    every valuation at exponent exp; returns the number of cases checked.

    Each ordered pair of valuations of mass at most 1 takes the order
    checks, each pair of mass 1 the probability-mode way-below check, and
    each valuation the representation check. The two-term tails [a, b] of
    mass 1 go to the Portmanteau check against one limit each,
    probabilities[(i + j) % len], a Latin square over the triples: each
    pair of a tail and each pair of a term and the limit meets once.
    """
    cases = 0
    for base in posets_with_bottom(n):
        every = valuations(base, exp)
        probabilities = valuations(base, exp, probability=True)
        for mu in every:
            check_representation(mu)
            for nu in every:
                check_order(mu, nu)
        for i, a in enumerate(probabilities):
            for j, b in enumerate(probabilities):
                check_normalized(a, b)
                check_portmanteau(
                    [a, b], probabilities[(i + j) % len(probabilities)])
        cases += len(every) * (len(every) + 1) + 2 * len(probabilities) ** 2
    return cases


@pytest.mark.parametrize("n, exp", [(4, 2), (5, 1)])
def test_every_decision_on_every_small_input(n, exp):
    assert sweep(n, exp) > 0


if __name__ == "__main__":
    n, exp = int(sys.argv[1]), int(sys.argv[2])
    print("%d cases checked on %d elements at exponent %d"
          % (sweep(n, exp), n, exp))
