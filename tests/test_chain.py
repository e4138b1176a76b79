import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetval import (Dyadic, ONE, Poset, QuantileMap, SimpleValuation, ZERO,
                      cdf, delta, leq, lower_adjoint, pushforward_lebesgue,
                      scale)
from posetval.chain import (Cdf, _ascending, format_quantile,
                            parse_quantile)
from posetval.errors import (Error, NotAChain, OutOfRange, ParseError,
                             PartialQuantile, UnknownElement, Unreachable)

from conftest import grid, make_chain, random_valuation
from oracles import down_set, quantile_leq, quantile_leq_by_thresholds

QUARTER, HALF = Dyadic(1, 2), Dyadic(1, 1)


def staircase(c3):
    return SimpleValuation(c3, {"c0": QUARTER, "c1": QUARTER, "c2": HALF})


def test_cdf_examples(c3):
    f = cdf(staircase(c3))
    assert (f("c0"), f("c1"), f("c2")) == (QUARTER, HALF, ONE)
    g = cdf(delta(c3, "c2"))
    assert (g("c0"), g("c1"), g("c2")) == (ZERO, ZERO, ONE)
    z = cdf(SimpleValuation(c3, {}))
    assert all(z(x) == ZERO for x in c3.elements)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 12))
def test_ascending_follows_the_order_not_the_declaration(rng, n):
    names = ["c%d" % i for i in range(n)]
    chain = Poset(rng.sample(names, n), list(zip(names, names[1:])), "c0")
    assert _ascending(chain) == names
    assert names == sorted(chain.elements,
                           key=lambda x: len(down_set(chain, x)))
    v = random_valuation(rng, chain, exp=3)
    assert list(cdf(v).values) == names
    assert lower_adjoint(cdf(v))(ZERO) == "c0"


def test_cdf_refuses_an_unknown_element(c3):
    with pytest.raises(UnknownElement):
        cdf(staircase(c3))("zz")


def test_cdf_requires_chain(m4):
    with pytest.raises(NotAChain):
        cdf(delta(m4, "top"))


def test_cdf_monotone_and_total_mass(c3):
    rng = random.Random(21)
    for _ in range(40):
        v = random_valuation(rng, c3)
        f = cdf(v)
        assert f("c0") <= f("c1") <= f("c2")
        assert f("c2") == v.mass


def test_cdf_preserves_binary_infima(c3):
    rng = random.Random(22)
    for _ in range(30):
        v = random_valuation(rng, c3)
        f = cdf(v)
        for x in c3.elements:
            for y in c3.elements:
                meet = x if c3.leq(x, y) else y
                assert f(meet) == min(f(x), f(y))


def test_lower_adjoint_examples(c3):
    g = lower_adjoint(cdf(staircase(c3)))
    assert g(Dyadic(3, 3)) == "c1"
    assert g(ZERO) == "c0"
    assert g(ONE) == "c2"


def test_lower_adjoint_scan_oracle(c3):
    # independent oracle: linear scan for the least element with F(x) >= r
    rng = random.Random(23)
    for _ in range(40):
        v = random_valuation(rng, c3, probability=True)
        f = cdf(v)
        g = lower_adjoint(f)
        for i in range(0, 65):
            r = Dyadic(i, 6)
            expected = next(x for x in _ascending(c3) if not f(x) < r)
            assert g(r) == expected


def test_unreachable_above_total_mass(c3):
    g = lower_adjoint(cdf(scale(delta(c3, "c1"), HALF)))
    assert g(HALF) == "c1"
    with pytest.raises(Unreachable):
        g(Dyadic(3, 2))
    with pytest.raises(PartialQuantile):
        pushforward_lebesgue(g)


def test_pushforward_lebesgue_examples(c3):
    v = staircase(c3)
    assert pushforward_lebesgue(lower_adjoint(cdf(v))) == v
    const = QuantileMap(c3, [(ONE, "c2")])
    assert pushforward_lebesgue(const) == delta(c3, "c2")
    assert pushforward_lebesgue(lower_adjoint(cdf(delta(c3, "c0")))) \
        == delta(c3, "c0")


def test_round_trip_on_random_chains():
    rng = random.Random(24)
    for _ in range(150):
        chain = make_chain(rng.randint(1, 8))
        v = random_valuation(rng, chain, probability=True)
        assert pushforward_lebesgue(lower_adjoint(cdf(v))) == v


def test_adjunction_law_on_grid():
    rng = random.Random(25)
    for _ in range(25):
        chain = make_chain(rng.randint(1, 8))
        v = random_valuation(rng, chain, probability=True)
        f = cdf(v)
        g = lower_adjoint(f)
        for i in range(0, 65):
            r = Dyadic(i, 6)
            for x in chain.elements:
                assert chain.leq(g(r), x) == (r <= f(x))


def random_quantile(rng, chain, total=ONE) -> QuantileMap:
    """Quantile map whose ascending thresholds are multiples of
    2^-max(4, total.exp), the last one total (> 0)."""
    names = _ascending(chain)
    e = max(4, total.exp)
    n = total.rescale(e)
    k = rng.randint(1, min(len(names), n))
    chosen = sorted(rng.sample(range(len(names)), k))
    cuts = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
    thresholds = [Dyadic(c, e) for c in cuts] + [total]
    return QuantileMap(chain, [(t, names[i])
                               for t, i in zip(thresholds, chosen)])


def test_order_isomorphism_both_directions():
    rng = random.Random(26)
    agree = disagree = 0
    for _ in range(200):
        chain = make_chain(rng.randint(1, 6))
        g1 = random_quantile(rng, chain)
        g2 = random_quantile(rng, chain)
        pointwise = quantile_leq(g1, g2)
        measures = leq(pushforward_lebesgue(g1), pushforward_lebesgue(g2))
        assert pointwise == measures
        if pointwise:
            agree += 1
        else:
            disagree += 1
    assert agree > 0 and disagree > 0


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32), st.integers(1, 64),
       st.integers(1, 64), st.sampled_from([4, 6]), st.booleans())
def test_quantile_leq_merge_walk_matches_threshold_grid(n, seed, t1, t2, e,
                                                        equal_totals):
    # total maps (t = 2^e), partial maps, equal and unequal totals
    rng = random.Random(seed)
    chain = make_chain(n)
    g = random_quantile(rng, chain, Dyadic(min(t1, 1 << e), e))
    h = random_quantile(rng, chain,
                        g.total() if equal_totals
                        else Dyadic(min(t2, 1 << e), e))
    assert quantile_leq(g, h) == quantile_leq_by_thresholds(g, h)
    # on the common domain the merge walk is the threshold-grid comparison
    common = min(g.total(), h.total())
    grid = {t for t, _ in g.breakpoints + h.breakpoints if t <= common}
    assert (g.first_disagreement(h, chain) is None) \
        == all(chain.leq(g(r), h(r)) for r in grid)


def test_zero_threshold_holds_no_point(c3):
    # "break 0 c1" parses, but its run is empty: no r in [0, 1] reaches c1
    g = parse_quantile("break 0 c1\nbreak 1 c2\n", c3)
    h = QuantileMap(c3, [(ONE, "c2")])
    assert (g(ZERO), g(Dyadic(1, 6)), g(ONE)) == ("c0", "c2", "c2")
    assert quantile_leq(h, g) and quantile_leq(g, h)
    assert quantile_leq_by_thresholds(h, g)
    assert pushforward_lebesgue(g) == delta(c3, "c2")


def test_cdf_contravariance():
    # pointwise-ordered CDFs correspond to reverse-ordered quantile maps
    rng = random.Random(27)
    hits = 0
    for _ in range(200):
        chain = make_chain(rng.randint(1, 6))
        v1 = random_valuation(rng, chain, probability=True)
        v2 = random_valuation(rng, chain, probability=True)
        f1, f2 = cdf(v1), cdf(v2)
        if all(f1(x) <= f2(x) for x in chain.elements):
            hits += 1
            assert quantile_leq(lower_adjoint(f2), lower_adjoint(f1))
    assert hits > 0


def test_cdf_comparison_decides_valuation_order():
    # on a chain, probability valuations compare iff their CDFs compare
    # the other way around; cross-checks the flow route against the
    # cumulative route
    rng = random.Random(28)
    for _ in range(150):
        chain = make_chain(rng.randint(1, 7))
        mu = random_valuation(rng, chain, probability=True)
        nu = random_valuation(rng, chain, probability=True)
        f_mu, f_nu = cdf(mu), cdf(nu)
        assert leq(mu, nu) \
            == all(f_nu(x) <= f_mu(x) for x in chain.elements)


def test_single_step_witness_is_inverse_transform_sampling():
    # for schedules of one to four steps the sampler's driver coincides
    # with the quantile map on the whole grid: the slot-filling blocks are
    # exactly the cumulative intervals, so on a chain the Skorohod
    # representation is inverse transform sampling
    from posetval import skorohod as build_witness
    rng = random.Random(29)
    for steps in range(1, 5):
        for _ in range(100):
            chain = make_chain(rng.randint(1, 7))
            v = random_valuation(rng, chain, exp=rng.randint(0, 6),
                                 probability=True)
            witness = build_witness(v, steps)
            g = lower_adjoint(cdf(v))
            for r in grid(witness.precision):
                assert witness.driver(r) == g(r)


def test_partial_quantile_map_errors(c3):
    g = QuantileMap(c3, [(QUARTER, "c1"), (HALF, "c2")])
    assert g.total() == HALF
    assert g(ZERO) == "c0"            # the least element, not the first run
    assert (g(Dyadic(1, 3)), g(QUARTER), g(Dyadic(3, 3)), g(HALF)) \
        == ("c1", "c1", "c2", "c2")
    for r in (Dyadic(5, 3), ONE):
        with pytest.raises(Unreachable):
            g(r)
    with pytest.raises(OutOfRange):
        g(Dyadic(3, 1))
    empty = QuantileMap(c3, [])
    assert empty(ZERO) == "c0"
    with pytest.raises(Unreachable):
        empty(Dyadic(1, 6))


def test_quantile_text_round_trip(c3):
    g = lower_adjoint(cdf(staircase(c3)))
    text = format_quantile(g)
    assert text.splitlines()[0] == "break 1/2^2 c0"
    assert parse_quantile(text, c3).breakpoints == g.breakpoints


EIGHTH = Dyadic(1, 3)


@pytest.mark.parametrize("breakpoints, kind, message", [
    # elements that descend along the chain, thresholds that ascend
    ([(QUARTER, "c2"), (ONE, "c0")], ParseError,
     "breakpoints must ascend strictly"),
    ([(QUARTER, "c1"), (HALF, "c1")], ParseError,
     "breakpoints must ascend strictly"),
    ([(HALF, "c0"), (QUARTER, "c1")], ParseError,
     "breakpoints must ascend strictly"),
    ([(HALF, "c0"), (HALF, "c1")], ParseError,
     "breakpoints must ascend strictly"),
    ([(EIGHTH, "c0"), (Dyadic(3, 1), "c2")], ParseError,
     "threshold 3/2^1 exceeds 1"),
    ([(EIGHTH, "c0"), (ONE, "zz")], UnknownElement,
     "'zz' is not an element")])
def test_quantile_map_refuses_what_the_parser_refuses(c3, breakpoints, kind,
                                                      message):
    # the constructor and parse_quantile share one rule; the constructor's
    # refusals name no line
    with pytest.raises(Error) as caught:
        QuantileMap(c3, breakpoints)
    assert type(caught.value) is kind and str(caught.value) == message
    text = "".join("break %s %s\n" % bp for bp in breakpoints)
    with pytest.raises(Error) as parsed:
        parse_quantile(text, c3)
    assert type(parsed.value) is kind
    assert str(parsed.value).startswith("line %d: " % len(breakpoints))


def test_quantile_map_refuses_a_base_that_is_not_a_chain(m4):
    for make in (lambda: QuantileMap(m4, [(ONE, "top")]),
                 lambda: QuantileMap(m4, []),
                 lambda: lower_adjoint(Cdf(m4, {"bot": ZERO, "a": HALF,
                                                "b": HALF, "top": ONE}))):
        with pytest.raises(NotAChain, match="poset is not totally ordered"):
            make()


def shuffled_chain(rng, n):
    names = ["c%d" % i for i in range(n)]
    return Poset(rng.sample(names, n), list(zip(names, names[1:])), "c0")


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 8),
       st.booleans())
def test_valid_quantile_maps_are_still_made(rng, n, probability):
    # on valid input the check refuses nothing: the quantile map of every
    # valuation on a chain declared out of order has the cumulative
    # breakpoints, its text parses back to it, and its law is the
    # valuation
    chain = shuffled_chain(rng, n)
    v = random_valuation(rng, chain, exp=rng.randint(0, 4),
                         probability=probability)
    g = lower_adjoint(cdf(v))
    running, want = ZERO, []
    for x in ["c%d" % i for i in range(n)]:
        if x in v.weights:
            running = running + v.weights[x]
            want.append((running, x))
    assert g.breakpoints == want
    assert QuantileMap(chain, want).breakpoints == want
    assert parse_quantile(format_quantile(g), chain).breakpoints == want
    if probability:
        assert pushforward_lebesgue(g) == v
