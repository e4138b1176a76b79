import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetval import (Dyadic, ONE, Poset, PosetMap, SimpleValuation,
                      TransportPlan, UpperSet, ZERO, add, delta,
                      format_valuation, integrate_monotone, leq, leq_witness,
                      parse_valuation, portmanteau_check, pushforward, scale,
                      transport_plan, valuation, way_below)
from posetval.errors import (MassExceeded, MixedBase, NotComparable,
                             NotMonotone, NotProbability, PartialMap,
                             UnknownElement)

from posetval.valuation import _check_units, _transport_units, order_network

from conftest import (make_chain, normalize, random_poset, random_valuation,
                      random_monotone_integrand, shuffled_poset)
from oracles import (first_break_by_scan, first_decrease_by_scan, leq_oracle,
                     portmanteau_by_upper_sets, strict_transport_exists,
                     way_below_by_subsets, weights_by_elements)

HALF = Dyadic(1, 1)


def half_half(m4):
    return SimpleValuation(m4, {"a": HALF, "b": HALF})


def test_evaluate_examples(m4):
    v = half_half(m4)
    assert v.evaluate(UpperSet(m4, frozenset({"a", "top"}))) == HALF
    assert v.evaluate(UpperSet(m4, frozenset())) == ZERO
    assert delta(m4, "bot").evaluate(UpperSet(m4, frozenset({"top"}))) == ZERO


def test_evaluate_mixed_base(m4, c3):
    with pytest.raises(MixedBase):
        half_half(m4).evaluate(UpperSet(c3, frozenset({"c2"})))


def test_mass_and_canonicalization(m4):
    v = SimpleValuation(m4, {"a": HALF, "b": ZERO})
    assert v.support == ["a"]
    assert v.mass == HALF
    with pytest.raises(MassExceeded):
        SimpleValuation(m4, {"a": ONE, "b": HALF})
    with pytest.raises(UnknownElement):
        SimpleValuation(m4, {"zz": HALF})


def test_leq_examples(m4):
    assert leq(delta(m4, "bot"), delta(m4, "top"))
    assert leq(half_half(m4), delta(m4, "top"))
    assert not leq(delta(m4, "a"), delta(m4, "b"))


def test_leq_oracle_examples(m4):
    assert leq_oracle(half_half(m4), delta(m4, "top"))
    assert not leq_oracle(delta(m4, "top"), scale(delta(m4, "top"), HALF))
    v = half_half(m4)
    assert leq_oracle(v, v)


def test_leq_witness(m4):
    u = leq_witness(delta(m4, "a"), delta(m4, "b"))
    assert u is not None
    assert delta(m4, "a").evaluate(u) > delta(m4, "b").evaluate(u)
    assert leq_witness(delta(m4, "bot"), delta(m4, "top")) is None


def test_every_failing_pair_has_a_witness():
    rng = random.Random(16)
    failures = 0
    for _ in range(150):
        base = random_poset(rng)
        mu = random_valuation(rng, base)
        nu = random_valuation(rng, base)
        witness = leq_witness(mu, nu)
        if leq(mu, nu):
            assert witness is None
        else:
            failures += 1
            assert nu.evaluate(witness) < mu.evaluate(witness)
    assert failures > 0


def test_transport_plan_examples(m4):
    plan = transport_plan(half_half(m4), delta(m4, "top"))
    assert plan.entries == {("a", "top"): HALF, ("b", "top"): HALF}

    plan2 = transport_plan(delta(m4, "bot"), half_half(m4))
    assert plan2.entries == {("bot", "a"): HALF, ("bot", "b"): HALF}

    with pytest.raises(NotComparable):
        transport_plan(delta(m4, "a"), delta(m4, "b"))


def test_transport_plan_verify_rejects_broken_plans(m4):
    mu = SimpleValuation(m4, {"bot": HALF, "a": HALF})
    nu = SimpleValuation(m4, {"a": HALF, "top": HALF})
    plan = transport_plan(mu, nu)
    assert plan.entries == {("bot", "a"): HALF, ("a", "top"): HALF}
    q = Dyadic(1, 2)
    broken = {
        "zero entry": {("bot", "a"): HALF, ("a", "top"): HALF,
                       ("bot", "top"): ZERO},
        "downward": {("bot", "a"): HALF, ("a", "bot"): HALF},
        "row short": {("bot", "a"): q, ("a", "top"): HALF},
        "row off mu": {("bot", "a"): HALF, ("a", "top"): HALF, ("b", "top"): q},
        "column over": {("bot", "top"): HALF, ("a", "top"): HALF},
        "column off nu": {("bot", "b"): HALF, ("a", "top"): HALF},
    }
    for entries in broken.values():
        with pytest.raises(AssertionError):
            TransportPlan(mu, nu, entries).verify()
    TransportPlan(mu, nu, {("bot", "a"): q, ("bot", "top"): q,
                           ("a", "a"): q, ("a", "top"): q}).verify()


def test_check_units_refuses_broken_plans(m4):
    # the broken plans above, as units of 2^-2: the one check every plan
    # takes refuses each by raising AssertionError, which python -O keeps
    mu = SimpleValuation(m4, {"bot": HALF, "a": HALF})
    nu = SimpleValuation(m4, {"a": HALF, "top": HALF})
    broken = [
        ([(("bot", "a"), 2), (("a", "top"), 2), (("bot", "top"), 0)],
         "plan entry bot -> top is not a positive upward move"),
        ([(("bot", "a"), 2), (("a", "bot"), 2)],
         "plan entry a -> bot is not a positive upward move"),
        ([(("bot", "a"), 1), (("a", "top"), 2)],           # row short
         "plan rows do not sum to the source's weights"),
        ([(("bot", "a"), 2), (("a", "top"), 2), (("b", "top"), 1)],
         "plan rows do not sum to the source's weights"),  # row off mu
        ([(("bot", "top"), 2), (("a", "top"), 2)],
         "plan column top exceeds the target's weight"),
        ([(("bot", "b"), 2), (("a", "top"), 2)],
         "plan column b exceeds the target's weight"),     # column off nu
    ]
    for units, message in broken:
        with pytest.raises(AssertionError) as err:
            _check_units(mu, nu, 2, units)
        if str(err.value) != message:
            pytest.fail("%r, not %r" % (str(err.value), message))
    _check_units(mu, nu, 2, [(("bot", "a"), 1), (("bot", "top"), 1),
                             (("a", "a"), 1), (("a", "top"), 1)])


def test_check_units_refuses_a_negative_entry(m4):
    # the rows sum to mu and every column stays within nu, but a plan
    # moves no negative mass (a dyadic entry cannot be negative at all)
    mu = SimpleValuation(m4, {"bot": Dyadic(1, 2)})
    nu = half_half(m4)
    with pytest.raises(AssertionError, match="bot -> b is not a positive"):
        _check_units(mu, nu, 2, [(("bot", "a"), 2), (("bot", "b"), -1)])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_transport_plan_is_the_dyadic_form_of_the_lift_units(seed):
    # the lift takes the checked units; transport_plan writes the same
    # units as dyadics, in the same order, and both refuse unordered pairs
    rng = random.Random(seed)
    base = shuffled_poset(rng, 9, rng.choice([0.2, 0.5]))
    mu = random_valuation(rng, base, exp=rng.randint(0, 6))
    nu = random_valuation(rng, base, exp=rng.randint(0, 6))
    if rng.random() < 0.7:
        nu = normalize(mu)   # a subprobability lies below its normalization
    try:
        plan = transport_plan(mu, nu)
    except NotComparable:
        with pytest.raises(NotComparable):
            _transport_units(mu, nu)
        return
    p, units = _transport_units(mu, nu)
    assert list(plan.entries.items()) \
        == [(xy, Dyadic(k, p)) for xy, k in units]
    assert p == max(mu.max_exponent(), nu.max_exponent())


def test_transport_plan_exponent_bound(m4):
    rng = random.Random(5)
    for _ in range(50):
        base = random_poset(rng)
        mu = random_valuation(rng, base)
        nu = random_valuation(rng, base)
        if not leq(mu, nu):
            continue
        plan = transport_plan(mu, nu)
        bound = max(mu.max_exponent(), nu.max_exponent())
        for t in plan.entries.values():
            assert t.exp <= bound


def test_leq_agrees_with_oracle_randomized(m4):
    rng = random.Random(2)
    for _ in range(150):
        base = random_poset(rng)
        mu = random_valuation(rng, base)
        nu = random_valuation(rng, base)
        assert leq(mu, nu) == leq_oracle(mu, nu)


def test_leq_iff_indicator_integrals_ordered(m4):
    # 0/1 monotone integrands are exactly the upper-set indicators
    rng = random.Random(3)
    for _ in range(40):
        base = random_poset(rng)
        mu = random_valuation(rng, base)
        nu = random_valuation(rng, base)
        indicator_ordered = True
        for u in base.enumerate_upper_sets():
            f = {x: (ONE if x in u.members else ZERO)
                 for x in base.elements}
            if integrate_monotone(f, nu) < integrate_monotone(f, mu):
                indicator_ordered = False
        assert leq(mu, nu) == indicator_ordered


def test_way_below_examples(m4):
    top = delta(m4, "top")
    assert way_below(scale(delta(m4, "bot"), Dyadic(1, 2)), top)
    assert not way_below(top, top)
    assert way_below(SimpleValuation(m4, {"bot": HALF, "top": HALF}), top,
                     normalized=True)


def test_way_below_normalized_requires_probability(m4):
    with pytest.raises(NotProbability):
        way_below(scale(delta(m4, "top"), HALF), delta(m4, "top"),
                  normalized=True)


def test_way_below_implies_leq(m4):
    rng = random.Random(4)
    for _ in range(120):
        base = random_poset(rng)
        mu = random_valuation(rng, base)
        nu = random_valuation(rng, base)
        if way_below(mu, nu):
            assert leq(mu, nu)
        mup = random_valuation(rng, base, probability=True)
        nup = random_valuation(rng, base, probability=True)
        if way_below(mup, nup, normalized=True):
            assert leq(mup, nup)


def test_way_below_normalized_matches_strict_transport_search(m4):
    rng = random.Random(6)
    for _ in range(150):
        base = random_poset(rng)
        mu = random_valuation(rng, base, probability=True)
        nu = random_valuation(rng, base, probability=True)
        assert way_below(mu, nu, normalized=True) \
            == strict_transport_exists(mu, nu)


def test_way_below_normalized_tight_denominator_case():
    # five strict columns at input denominator 2^4: a strict transport
    # exists (slack 1/16 spread over five columns needs denominator 2^7),
    # so a search capped at 2^6 would wrongly answer False; the oracle
    # raises its bound and must agree with the exact convex-shift search
    base = Poset(["bot", "m", "t1", "t2", "t3", "t4"],
                 [("bot", "m"), ("m", "t1"), ("m", "t2"), ("m", "t3"),
                  ("m", "t4")], "bot")
    mu = SimpleValuation(base, {"m": Dyadic(14, 4), "bot": Dyadic(2, 4)})
    nu = SimpleValuation(base, {"m": Dyadic(11, 4), "t1": Dyadic(1, 4),
                                "t2": Dyadic(1, 4), "t3": Dyadic(1, 4),
                                "t4": Dyadic(1, 4), "bot": Dyadic(1, 4)})
    assert way_below(mu, nu, normalized=True)
    assert strict_transport_exists(mu, nu)


def test_way_below_interpolation(m4):
    rng = random.Random(8)
    hits = 0
    for _ in range(200):
        base = random_poset(rng)
        mu = random_valuation(rng, base)
        nu = random_valuation(rng, base)
        rho = random_valuation(rng, base)
        if way_below(mu, nu) and leq(nu, rho):
            hits += 1
            assert way_below(mu, rho)
    assert hits > 0


def units_at(base, places, exp):
    """The valuation with one 2^-exp unit at each listed place."""
    weights = {}
    for x in places:
        weights[x] = weights.get(x, ZERO) + Dyadic(1, exp)
    return SimpleValuation(base, weights)


@settings(max_examples=120, deadline=None)
@given(st.randoms(use_true_random=False))
def test_way_below_matches_oracles_on_larger_posets(rng):
    # posets of up to 40 elements, supports of at most 10 points; mu is
    # nu's units moved down (and halved, or thinned, in subprobability
    # mode), nu itself, or unrelated, so both verdicts occur in each mode
    base = random_poset(rng, max_elements=40,
                        density=rng.choice([0.05, 0.15, 0.4]))
    points = [base.bottom] + rng.sample(base.elements[1:],
                                        min(9, len(base) - 1))
    exp = rng.randint(1, 5)
    nu_units = [rng.choice(points) for _ in range(1 << exp)]
    lowered = [rng.choice([x for x in points if base.leq(x, y)])
               for y in nu_units]
    kind = rng.randrange(4)

    nu = units_at(base, nu_units, exp)
    mu = [units_at(base, lowered, exp), nu,
          units_at(base, lowered[1:] + [base.bottom], exp),
          units_at(base, [rng.choice(points) for _ in nu_units], exp)][kind]
    assert way_below(mu, nu, normalized=True) \
        == strict_transport_exists(mu, nu)

    keep = rng.randint(0, len(nu_units))
    nu = units_at(base, nu_units[:keep], exp)
    mu = [units_at(base, lowered[:keep], exp + 1), nu,
          units_at(base, lowered[:rng.randint(0, keep)], exp),
          units_at(base, [rng.choice(points) for _ in range(keep)],
                   exp)][kind]
    assert way_below(mu, nu) == way_below_by_subsets(mu, nu)


def test_way_below_subprobability_on_wide_supports():
    # a subset scan visits 2^16 subsets for the true query and 2^25 before
    # it meets the first failing one ({c25}) in the false query
    atoms = ["a%d" % i for i in range(16)]
    base = Poset(["bot"] + atoms, [("bot", a) for a in atoms], "bot")
    nu = SimpleValuation(base, {a: Dyadic(1, 4) for a in atoms})
    mu = SimpleValuation(base, dict({a: Dyadic(1, 6) for a in atoms[:15]},
                                    bot=Dyadic(1, 2)))
    assert len(mu.support) == 16
    chain = make_chain(26)
    rho = SimpleValuation(chain, {x: Dyadic(1, 5) for x in chain.elements})
    t0 = time.perf_counter()
    assert way_below(mu, nu)
    assert not way_below(rho, rho)
    assert time.perf_counter() - t0 < 2.0


def test_each_decision_solves_one_flow(m4, solves):
    mu, top = half_half(m4), delta(m4, "top")
    stage = SimpleValuation(m4, {"bot": HALF, "top": HALF})
    decisions = [
        lambda: leq(mu, top), lambda: leq(top, mu),
        lambda: leq_witness(mu, top), lambda: leq_witness(top, mu),
        lambda: transport_plan(mu, top),
        lambda: way_below(scale(mu, HALF), top), lambda: way_below(top, top),
        lambda: way_below(stage, top, normalized=True),
        lambda: way_below(top, top, normalized=True),
    ]
    for decide in decisions:
        solves.clear()
        decide()
        assert len(solves) == 1


def test_a_decision_and_its_certificate_solve_once(m4, solves):
    # leq keeps its flow, so the plan or the witness of the same pair, or
    # of an equal pair built anew, reads it instead of solving again
    mu, top = half_half(m4), delta(m4, "top")
    assert leq(mu, top)
    assert transport_plan(mu, top).entries == {("a", "top"): HALF,
                                               ("b", "top"): HALF}
    assert len(solves) == 1
    assert leq(half_half(m4), delta(m4, "top"))
    transport_plan(half_half(m4), delta(m4, "top")).verify()
    assert len(solves) == 1
    solves.clear()
    assert not leq(top, mu)
    assert leq_witness(top, mu).members == frozenset({"top"})
    assert len(solves) == 1


def pushed_up(rng, v):
    """v with each point's weight moved to a random element above it."""
    base = v.base
    out = {}
    for x, w in v.weights.items():
        y = rng.choice(sorted(base.up_set(x), key=base.index.get))
        out[y] = out.get(y, ZERO) + w
    return SimpleValuation(base, out)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.lists(st.tuples(st.sampled_from(["leq", "leq_witness",
                                           "transport_plan", "way_below"]),
                          st.integers(0, 3), st.booleans()),
                min_size=1, max_size=12))
def test_interleaved_decisions_match_the_oracles(seed, calls):
    # a pair; the same pair built anew as distinct equal objects; the same
    # weights on a second poset with the same element names, flat above
    # its bottom, where mass moved up from another point is not ordered;
    # and mu with another nu: the kept flow must answer for its own pair
    # only, in either direction
    rng = random.Random(seed)
    base = random_poset(rng, 7)
    names = base.elements
    other = Poset(names, [(names[0], x) for x in names[1:]], names[0])
    mu = random_valuation(rng, base)
    nu, nu2 = (pushed_up(rng, mu) if rng.random() < 0.5
               else random_valuation(rng, base) for _ in range(2))
    pairs = [(mu, nu),
             (SimpleValuation(base, dict(mu.weights)),
              SimpleValuation(base, dict(nu.weights))),
             (SimpleValuation(other, mu.weights),
              SimpleValuation(other, nu.weights)),
             (mu, nu2)]
    for op, i, flip in calls:
        a, b = pairs[i][::-1] if flip else pairs[i]
        holds = leq_oracle(a, b)
        if op == "leq":
            assert leq(a, b) == holds
        elif op == "leq_witness":
            witness = leq_witness(a, b)
            if holds:
                assert witness is None
            else:
                assert b.evaluate(witness) < a.evaluate(witness)
        elif op == "transport_plan":
            if holds:
                plan = transport_plan(a, b)
                assert plan.source is a and plan.target is b
                plan.verify()
            else:
                with pytest.raises(NotComparable):
                    transport_plan(a, b)
        else:
            assert way_below(a, b) == way_below_by_subsets(a, b)


def test_mixed_base_is_refused_whatever_the_kept_flow(m4):
    twin = Poset(list(m4.elements), m4.covers, m4.bottom)
    mu, top = half_half(m4), delta(m4, "top")
    assert leq(mu, top)     # the kept pair has these items on m4
    for a, b in ((half_half(twin), top), (mu, delta(twin, "top"))):
        for decide in (leq, leq_witness, transport_plan):
            with pytest.raises(MixedBase):
                decide(a, b)


def test_way_below_leaves_the_kept_network_alone(m4, solves):
    mu, top = scale(half_half(m4), HALF), delta(m4, "top")
    assert leq(mu, top)
    kept = valuation._kept[1]
    assert way_below(mu, top)
    assert valuation._kept[1] is kept
    assert kept.net.source_caps == mu.weights
    plan = transport_plan(mu, top)
    plan.verify()
    assert plan.entries == {("a", "top"): Dyadic(1, 2),
                            ("b", "top"): Dyadic(1, 2)}
    assert len(solves) == 2     # leq and way_below's own network


def test_order_bounds_monotone_integrals():
    # ordered valuations integrate every monotone function in order
    rng = random.Random(15)
    hits = 0
    for _ in range(120):
        base = random_poset(rng)
        mu = random_valuation(rng, base)
        nu = random_valuation(rng, base)
        if leq(mu, nu):
            f = random_monotone_integrand(rng, base)
            assert integrate_monotone(f, mu) <= integrate_monotone(f, nu)
            hits += 1
    assert hits > 0


def test_integrate_monotone_examples(m4):
    ind_up_a = {x: (ONE if m4.leq("a", x) else ZERO) for x in m4.elements}
    assert integrate_monotone(ind_up_a, half_half(m4)) == HALF
    const_one = {x: ONE for x in m4.elements}
    assert integrate_monotone(const_one, half_half(m4)) == ONE
    f = {"bot": ZERO, "a": HALF, "b": HALF, "top": ONE}
    assert integrate_monotone(f, delta(m4, "top")) == ONE


def test_integrate_monotone_names_the_first_of_several_breaks():
    # the diamond declared top first: x runs in declaration order, then y
    # over x's up-set in declaration order, so top comes before a and b
    p = Poset(["top", "b", "a", "bot"],
              [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
              "bot")
    v = delta(p, "bot")
    cases = [
        ({"bot": ONE, "a": ZERO, "b": ZERO, "top": ZERO}, "bot to top"),
        ({"bot": ONE, "a": ONE, "b": ONE, "top": ZERO}, "b to top"),
        ({"bot": ONE, "a": HALF, "b": ONE, "top": ONE}, "bot to a"),
        ({"bot": HALF, "a": HALF, "b": ONE, "top": HALF}, "b to top"),
    ]
    for f, pair in cases:
        with pytest.raises(NotMonotone) as err:
            integrate_monotone(f, v)
        assert str(err.value) == "integrand decreases from %s" % pair


def test_integrate_monotone_walks_up_sets_not_every_pair():
    # a 1500-element binary tree has 2 250 000 pairs but about 15 000
    # comparable ones; the check walks only those
    n = 1500
    names = ["n%d" % i for i in range(n)]
    tree = Poset(names, [(names[i], names[c]) for i in range(n)
                         for c in (2 * i + 1, 2 * i + 2) if c < n], names[0])
    f = {x: Dyadic((i + 1).bit_length(), 4) for i, x in enumerate(names)}
    t0 = time.perf_counter()
    assert integrate_monotone(f, delta(tree, names[0])) == Dyadic(1, 4)
    f[names[n - 1]] = ZERO
    with pytest.raises(NotMonotone, match="from n0 to n1499$"):
        integrate_monotone(f, delta(tree, names[0]))
    assert time.perf_counter() - t0 < 0.3


def test_integrate_monotone_errors(m4):
    with pytest.raises(NotMonotone):
        integrate_monotone({"bot": ONE, "a": ZERO, "b": ZERO, "top": ZERO},
                           delta(m4, "a"))
    with pytest.raises(PartialMap):
        integrate_monotone({"bot": ZERO}, delta(m4, "a"))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_integrate_monotone_names_first_decrease(seed):
    # half the integrands are monotone, the other half are changed at a
    # few elements; either the total is the direct sum or the error names
    # the oracle's first decreasing pair
    rng = random.Random(seed)
    base = shuffled_poset(rng, 12, rng.choice([0.2, 0.5]))
    v = random_valuation(rng, base)
    f = random_monotone_integrand(rng, base)
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            f[rng.choice(base.elements)] = Dyadic(rng.randint(0, 16), 4)
    pair = first_decrease_by_scan(base, f)
    if pair is None:
        direct = ZERO
        for x, w in v.weights.items():
            direct = direct + w * f[x]
        assert integrate_monotone(f, v) == direct
    else:
        with pytest.raises(NotMonotone) as err:
            integrate_monotone(f, v)
        assert str(err.value) == "integrand decreases from %s to %s" % pair


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_order_network_edges_in_declaration_order(seed):
    rng = random.Random(seed)
    base = shuffled_poset(rng, 12, rng.choice([0.2, 0.5]))
    mu, nu = random_valuation(rng, base), random_valuation(rng, base)
    assert list(order_network(mu, nu).mid_caps) == [
        (x, y) for x in mu.support for y in nu.support if base.leq(x, y)]


def test_order_on_a_long_chain_is_fast_and_small():
    # 800 points 2^-10 on a 4000-element chain, each one step below one of
    # nu's: the order network has 320 400 middle edges, one row mask per
    # point; the decisions are timed, then rerun under tracemalloc
    base = make_chain(4000)
    names = base.elements
    w = Dyadic(1, 10)
    mu = SimpleValuation(base, {names[i]: w for i in range(0, 4000, 5)})
    nu = SimpleValuation(base, {names[i + 1]: w for i in range(0, 4000, 5)})

    def decide():
        with pytest.raises(NotComparable):
            transport_plan(nu, mu)
        return (leq(mu, nu), leq(nu, mu), transport_plan(mu, nu),
                leq_witness(mu, nu), leq_witness(nu, mu))

    start = time.perf_counter()
    decide()
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        forward, backward, plan, none, witness = decide()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1
    assert peak < 16 << 20
    assert forward and not backward and none is None
    assert list(plan.entries.items()) == [
        ((names[i], names[i + 1]), w) for i in range(0, 4000, 5)]
    assert mu.evaluate(witness) < nu.evaluate(witness)


def test_normalize(m4):
    v = scale(delta(m4, "top"), HALF)
    n = normalize(v)
    assert n == SimpleValuation(m4, {"bot": HALF, "top": HALF})
    assert normalize(n) == n
    assert normalize(SimpleValuation(m4, {})) == delta(m4, "bot")


def test_normalize_monotone_on_random_pairs():
    rng = random.Random(9)
    hits = 0
    for _ in range(100):
        base = random_poset(rng)
        mu = random_valuation(rng, base)
        nu = random_valuation(rng, base)
        if leq(mu, nu):
            hits += 1
            assert leq(normalize(mu), normalize(nu))
    assert hits > 0


def test_pushforward_examples(m4, c3):
    g = PosetMap(m4, c3, {"bot": "c0", "a": "c1", "b": "c1", "top": "c2"})
    assert pushforward(g, half_half(m4)) == delta(c3, "c1")
    ident = PosetMap(m4, m4, {x: x for x in m4.elements})
    assert pushforward(ident, half_half(m4)) == half_half(m4)
    const = PosetMap(m4, m4, {x: "top" for x in m4.elements})
    assert pushforward(const, half_half(m4)) == delta(m4, "top")


def test_pushforward_errors(m4, c3):
    with pytest.raises(NotMonotone):
        PosetMap(m4, c3, {"bot": "c2", "top": "c0"})
    partial = PosetMap(m4, c3, {"bot": "c0"})
    with pytest.raises(PartialMap):
        pushforward(partial, delta(m4, "a"))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_poset_map_names_first_break(seed):
    # maps of a random part of a poset, taken in shuffled order: level maps
    # into a chain or constant maps to the bottom of a random poset, half
    # of them changed at a few elements; either the map is built or the
    # error names the oracle's first breaking pair
    rng = random.Random(seed)
    source = shuffled_poset(rng, 12, rng.choice([0.2, 0.5]))
    domain = rng.sample(source.elements, rng.randint(1, len(source)))
    if rng.random() < 0.5:
        target = make_chain(17)
        f = random_monotone_integrand(rng, source)
        mapping = {x: "c%d" % f[x].rescale(4) for x in domain}
    else:
        target = shuffled_poset(rng, 8, 0.4)
        mapping = dict.fromkeys(domain, target.bottom)
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            mapping[rng.choice(domain)] = rng.choice(target.elements)
    pair = first_break_by_scan(source, target, mapping)
    if pair is None:
        assert PosetMap(source, target, mapping).mapping == mapping
    else:
        with pytest.raises(NotMonotone) as err:
            PosetMap(source, target, mapping)
        assert str(err.value) == "map breaks order at %s <= %s" % pair


def test_pushforward_mass_and_composition(m4, c3):
    rng = random.Random(10)
    g = PosetMap(m4, c3, {"bot": "c0", "a": "c1", "b": "c1", "top": "c2"})
    h = PosetMap(c3, c3, {"c0": "c0", "c1": "c2", "c2": "c2"})
    hg = PosetMap(m4, c3, {x: h.mapping[g.mapping[x]] for x in m4.elements})
    for _ in range(25):
        v = random_valuation(rng, m4)
        assert pushforward(g, v).mass == v.mass
        assert pushforward(h, pushforward(g, v)) == pushforward(hg, v)


def geometric_family(m4, count):
    top = delta(m4, "top")
    out = []
    for n in range(1, count + 1):
        eps = Dyadic(1, n)
        out.append(add(scale(top, ONE - eps), scale(delta(m4, "a"), eps)))
    return out


def test_portmanteau_pass_on_decaying_family(m4):
    seq = geometric_family(m4, 6)
    report = portmanteau_check(seq, delta(m4, "top"), 0)
    assert report.verdict and report.witness is None


def test_portmanteau_constant_sequence(m4):
    v = half_half(m4)
    report = portmanteau_check([v, v, v], v, 0)
    assert report.verdict


def test_portmanteau_fail_with_witness(m4):
    seq = [delta(m4, "a")] * 4
    report = portmanteau_check(seq, delta(m4, "top"), 0)
    assert not report.verdict
    assert report.witness is not None
    assert "top" in report.witness.members
    # the witness records a genuine defect: a never carries mass at top
    rec = [r for r in report.records if r.upper == report.witness][0]
    assert not rec.open_ok


def test_portmanteau_respects_from_index(m4):
    # garbage head, clean tail
    seq = [delta(m4, "a"), delta(m4, "b")] + [delta(m4, "top")] * 3
    assert not portmanteau_check(seq, delta(m4, "top"), 0).verdict
    assert portmanteau_check(seq, delta(m4, "top"), 2).verdict
    with pytest.raises(ValueError):
        portmanteau_check(seq, delta(m4, "top"), 5)


def test_zero_valuation_edge_cases(m4):
    zero = SimpleValuation(m4, {})
    assert leq(zero, delta(m4, "top")) and leq(zero, zero)
    assert transport_plan(zero, delta(m4, "a")).entries == {}
    assert way_below(zero, zero)  # the least valuation approximates itself
    assert normalize(zero) == delta(m4, "bot")


def test_portmanteau_single_element_tail(m4):
    v = half_half(m4)
    assert portmanteau_check([delta(m4, "a"), v], v, 1).verdict
    assert not portmanteau_check([v, delta(m4, "a")], v, 1).verdict


def _random_portmanteau_family(rng, base):
    """A limit (possibly zero) and a tail that is random, constant, or
    halving its distance to the limit."""
    zero = SimpleValuation(base, {})
    limit = rng.choice([zero, random_valuation(rng, base, rng.randint(0, 3))])
    count = rng.randint(1, 5)
    shape = rng.choice(["random", "constant", "halving"])
    if shape == "constant":
        return [limit] * count, limit
    if shape == "halving":
        rho = random_valuation(rng, base, rng.randint(0, 3))
        return [add(scale(limit, ONE - Dyadic(1, c)), scale(rho, Dyadic(1, c)))
                for c in range(1, count + 1)], limit
    return [rng.choice([zero, random_valuation(rng, base, rng.randint(0, 3))])
            for _ in range(count)], limit


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_portmanteau_matches_whole_poset_loop(rng):
    base = random_poset(rng, max_elements=12,
                        density=rng.choice([0.1, 0.25, 0.5]))
    seq, limit = _random_portmanteau_family(rng, base)
    from_index = rng.randrange(len(seq))
    report = portmanteau_check(seq, limit, from_index)
    records, witness = portmanteau_by_upper_sets(seq, limit, from_index)
    assert report.witness == witness
    assert report.verdict == (witness is None)
    # one record per trace on the support, as up(trace), ascending by mask
    support = set()
    for v in seq[from_index:] + [limit]:
        support |= set(v.support)
    traces = {base.upward_closure(r.upper.members & support)
              for r in records}
    assert [r.upper.members for r in report.records] == \
        [r.upper.members for r in records if r.upper.members in traces]
    ours = {r.upper.members: (r.open_ok, r.closed_ok) for r in report.records}
    for rec in records:
        key = base.upward_closure(rec.upper.members & support)
        assert ours[key] == (rec.open_ok, rec.closed_ok)
        assert report.record_for(rec.upper).upper.members == key


def test_record_for_refuses_an_upper_set_of_another_poset():
    # a trace is looked up by members, so an upper set of another poset
    # must be refused by its base, not matched by names: {d} would land on
    # the empty set's record and {a, d} on no record at all
    p3 = Poset(["bot", "a", "b"], [("bot", "a"), ("bot", "b")], "bot")
    p4 = Poset(["bot", "a", "b", "d"],
               [("bot", "a"), ("bot", "b"), ("bot", "d")], "bot")
    v = delta(p3, "a")
    report = portmanteau_check([v, v], v)
    twin = Poset(p3.elements, p3.covers, p3.bottom)
    for upper in (UpperSet(p4, frozenset({"d"})),
                  UpperSet(p4, frozenset({"a", "d"})),
                  UpperSet(p4, frozenset({"a"})),
                  UpperSet(twin, frozenset({"a"}))):
        with pytest.raises(MixedBase):
            report.record_for(upper)
    assert report.record_for(UpperSet(p3, frozenset({"a"}))).upper.members \
        == {"a"}


def test_valuation_text_round_trip(m4):
    rng = random.Random(14)
    for _ in range(30):
        v = random_valuation(rng, m4)
        assert parse_valuation(format_valuation(v), m4) == v


def test_parse_valuation_errors(m4):
    assert parse_valuation("a 1/2^1\nb 1/2^1\n", m4) == half_half(m4)
    with pytest.raises(MassExceeded):
        parse_valuation("a 1\nb 1/2^3\n", m4)
    with pytest.raises(UnknownElement):
        parse_valuation("zz 1/2^1\n", m4)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_construction_matches_the_walk_over_every_element(seed):
    # the weights are given in shuffled key order, some of them zero; the
    # valuation keeps the nonzero ones in declaration order, with the mass
    # the reference sums by dyadic additions
    rng = random.Random(seed)
    base = shuffled_poset(rng, 8, 0.4)
    support = rng.sample(base.elements, rng.randint(0, len(base)))
    exps = [rng.randint(0, 6) for _ in support]
    weights = {x: Dyadic(rng.randint(0, 1 << e) if rng.random() < 0.8 else 0,
                         e) for x, e in zip(support, exps)}
    want, mass = weights_by_elements(base, weights)
    if ONE < mass:
        with pytest.raises(MassExceeded) as err:
            SimpleValuation(base, weights)
        assert str(err.value) == "total mass %s exceeds 1" % mass
        return
    v = SimpleValuation(base, weights)
    assert list(v.weights.items()) == list(want.items())
    assert v.mass == mass and v.support == list(want)
    stranger = "x%d" % rng.randrange(10)
    for w in (ZERO, Dyadic(1, 3)):
        with pytest.raises(UnknownElement):
            SimpleValuation(base, {**weights, stranger: w})
