import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetval import (Dyadic, FlowNetwork, SimpleValuation, ZERO, leq_witness,
                      max_flow)
from posetval.flow import MaskEdges, to_dot
from posetval.valuation import order_network

from conftest import random_poset, random_valuation, shuffled_poset
from oracles import (max_flow_by_shortest_paths, min_cut_by_enumeration,
                     value_on)

# the middle capacity of the order network: above every sink capacity
WIDE = Dyadic(2, 0)


def network(left, right, source_caps, pairs, sink_caps, cap=WIDE):
    """The network whose middle edges are `pairs`, as MaskEdges rows with
    bit j for right[j]."""
    rows = {x: sum(1 << right.index(y) for x2, y in pairs if x2 == x)
            for x in left}
    return FlowNetwork(left, right, source_caps, MaskEdges(rows, right, cap),
                       sink_caps)


def edge_flows(f):
    """The flow on each edge that carries some, as dyadics, read off the
    engine's units: the middle edges' own units, and their row and column
    sums on the source and sink edges (conservation)."""
    p, units = f.units
    rows, cols = {}, {}
    for (x, y), k in units:
        rows[x] = rows.get(x, 0) + k
        cols[y] = cols.get(y, 0) + k

    def dyadics(pairs):
        return {key: Dyadic(k, p) for key, k in pairs}

    return {"from_source": dyadics(rows.items()), "across": dyadics(units),
            "to_sink": dyadics(cols.items())}


def bottleneck_net():
    # source -> a capped 3/4, a -> sink capped 1/2
    return network(["a"], ["a"], {"a": Dyadic(3, 2)}, [("a", "a")],
                   {"a": Dyadic(1, 1)})


def diamond_net():
    return network(["a", "b"], ["top"], {"a": Dyadic(1, 1), "b": Dyadic(1, 1)},
                   [("a", "top"), ("b", "top")], {"top": Dyadic(1, 0)})


def test_bottleneck():
    f = max_flow(bottleneck_net())
    assert f.value == Dyadic(1, 1)
    # the sink edge is the bottleneck, so everything else sits on the left
    assert f.cut == {"source", ("left", "a"), ("right", "a")}
    assert crossing_capacity(bottleneck_net(), f.cut) == f.value


def test_diamond_routing():
    f = max_flow(diamond_net())
    assert f.value == Dyadic(1, 0)
    assert f.units == (1, ((("a", "top"), 1), (("b", "top"), 1)))
    assert crossing_capacity(diamond_net(), f.cut) == Dyadic(1, 0)


def test_disconnected_supply_excluded():
    # a has no middle edge, so its 1/4 supply cannot move
    net = network(["a", "b"], ["y"], {"a": Dyadic(1, 2), "b": Dyadic(1, 1)},
                  [("b", "y")], {"y": Dyadic(1, 0)})
    f = max_flow(net)
    assert f.value == Dyadic(1, 1)
    assert min_cut_by_enumeration(net) == f.value


def random_net(rng):
    nl, nr = rng.randint(1, 4), rng.randint(1, 4)
    left = ["x%d" % i for i in range(nl)]
    right = ["y%d" % i for i in range(nr)]
    caps = lambda: Dyadic(rng.randint(0, 16), 4)
    pairs = [(x, y) for x in left for y in right if rng.random() < 0.5]
    return network(left, right, {x: caps() for x in left}, pairs,
                   {y: caps() for y in right})


def crossing_capacity(net, side):
    total = ZERO
    for x, c in net.source_caps.items():
        if ("left", x) not in side:
            total = total + c
    for (x, y), c in net.mid_caps.items():
        if ("left", x) in side and ("right", y) not in side:
            total = total + c
    for y, c in net.sink_caps.items():
        if ("right", y) in side:
            total = total + c
    return total


def test_max_flow_equals_min_cut_on_random_instances():
    rng = random.Random(11)
    for _ in range(120):
        net = random_net(rng)
        f = max_flow(net)
        assert f.value == min_cut_by_enumeration(net)
        # the returned partition really achieves the returned value
        assert "source" in f.cut and "sink" not in f.cut
        assert crossing_capacity(net, f.cut) == f.value


def test_flows_are_integral_at_common_denominator():
    rng = random.Random(12)
    for _ in range(60):
        net = random_net(rng)
        p = net.common_exponent()
        f = max_flow(net)
        assert f.value.exp <= p
        assert f.units[0] == p
        assert all(type(k) is int and k > 0 for _, k in f.units[1])
        assert sum(k for _, k in f.units[1]) == f.value.rescale(p)


def test_conservation_and_capacity():
    rng = random.Random(13)
    for _ in range(60):
        net = random_net(rng)
        f = max_flow(net)
        flows = edge_flows(f)
        for xy, t in flows["across"].items():
            assert t < net.mid_caps[xy]  # no middle edge saturates
        for x, t in flows["from_source"].items():
            assert t <= net.source_caps[x]
        for y, t in flows["to_sink"].items():
            assert t <= net.sink_caps[y]
        assert sum(flows["from_source"].values(), ZERO) == f.value \
            == sum(flows["to_sink"].values(), ZERO)


def test_empty_supply_gives_zero_flow():
    net = network([], ["y"], {}, [], {"y": Dyadic(1, 0)})
    assert max_flow(net).value == ZERO


def test_dot_annotations():
    dot = to_dot(max_flow(diamond_net()))
    assert "digraph" in dot and "1/2^1" in dot


def test_dot_of_non_string_names():
    # an edge that carries flow shows it against its capacity; one that
    # carries none shows its capacity alone
    net = network([0], [1, 3], {0: Dyadic(1, 0)}, [(0, 1), (0, 3)],
                  {1: Dyadic(1, 1), 3: ZERO})
    dot = to_dot(max_flow(net))
    assert '"source" -> "L_0" [label="1/2^1 of 1"];' in dot
    assert '"L_0" -> "R_1" [label="1/2^1 of 2"];' in dot
    assert '"L_0" -> "R_3" [label="2"];' in dot
    assert '"R_1" -> "sink" [label="1/2^1 of 1/2^1"];' in dot
    assert '"R_3" -> "sink" [label="0"];' in dot


def assert_breadth_first_flow(net):
    # the printed transport plans are this flow
    f = max_flow(net)
    expected = max_flow_by_shortest_paths(net)
    assert {"value": f.value, "cut": f.cut, **edge_flows(f)} == expected
    assert crossing_capacity(net, f.cut) == f.value
    return f


CAPS = st.builds(Dyadic, st.integers(0, 20), st.integers(0, 4))


@st.composite
def networks(draw):
    """Any network of the one shape: sides may be empty or share names,
    terminal capacities may be missing or zero, each row is any set of
    right nodes, and the middle capacity is anything above the sinks'."""
    names = ["n%d" % i for i in range(6)]
    left = names[:draw(st.integers(0, 5))]
    right = draw(st.sampled_from([names, names[::-1]]))[
        :draw(st.integers(0, 5))]

    def caps(keys):
        if not keys:
            return {}
        return draw(st.dictionaries(st.sampled_from(keys), CAPS))

    sinks = caps(right)
    rows = {x: draw(st.integers(0, (1 << len(right)) - 1)) for x in left}
    cap = max([ZERO, *sinks.values()]) + draw(CAPS.filter(ZERO.__lt__))
    return FlowNetwork(left, right, caps(left), MaskEdges(rows, right, cap),
                       sinks)


@settings(max_examples=300, deadline=None)
@given(networks())
def test_max_flow_is_the_breadth_first_flow_on_general_networks(net):
    assert assert_breadth_first_flow(net).value == min_cut_by_enumeration(net)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_max_flow_is_the_breadth_first_flow_on_decision_networks(rng):
    # the order network of mu <= nu, and way-below's subprobability network,
    # whose source capacities are raised by the smallest gap eps
    base = random_poset(rng, max_elements=12)
    mu = random_valuation(rng, base, exp=rng.randint(0, 6))
    nu = random_valuation(rng, base, exp=rng.randint(0, 6))
    net = order_network(mu, nu)
    assert_breadth_first_flow(net)
    p = max(mu.max_exponent(), nu.max_exponent())
    eps = Dyadic(1, p + (len(net.left) - 1).bit_length())
    assert_breadth_first_flow(replace(net, source_caps={
        x: c + eps for x, c in net.source_caps.items()}))


def sparse_valuation(rng, base, points, exp=None):
    """Weights k/2^exp, k in 1..3, on up to `points` random elements; the
    mass stays below 1 if 3 * points < 2^exp."""
    if exp is None:
        exp = rng.randint(6, 8)     # for up to 20 points
    xs = rng.sample(base.elements, min(points, len(base.elements)))
    return SimpleValuation(base, {x: Dyadic(rng.randint(1, 3), exp)
                                  for x in xs})


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_max_flow_is_the_breadth_first_flow_on_larger_decision_networks(rng):
    # sparse posets of up to 60 elements, declared out of order, and
    # supports of up to 20 points, where phases route along back edges
    base = shuffled_poset(rng, 60, rng.choice([0.02, 0.05, 0.1]))
    mu = sparse_valuation(rng, base, rng.randint(1, 20))
    nu = sparse_valuation(rng, base, rng.randint(1, 20))
    net = order_network(mu, nu)
    pairs = [(x, y) for x in mu.support for y in nu.support if base.leq(x, y)]
    assert len(net.mid_caps) == len(pairs)
    assert list(net.mid_caps) == pairs
    # a transport plan lists its entries in this order
    across = [xy for xy, _ in assert_breadth_first_flow(net).units[1]]
    assert across == [e for e in pairs if e in across]
    p = max(mu.max_exponent(), nu.max_exponent())
    eps = Dyadic(1, p + (len(net.left) - 1).bit_length())
    assert_breadth_first_flow(replace(net, source_caps={
        x: c + eps for x, c in net.source_caps.items()}))


def test_second_phase_reroutes_along_a_back_edge():
    # the first phase sends a's unit to p and so drains p; the second sends
    # b's unit to p, back over a -> p, and on to q, cancelling a -> p
    unit = lambda k: Dyadic(k, 0)
    net = network(["a", "b"], ["p", "q"], {"a": unit(1), "b": unit(1)},
                  [("a", "p"), ("a", "q"), ("b", "p")],
                  {"p": unit(1), "q": unit(1)})
    f = assert_breadth_first_flow(net)
    assert f.value == unit(2)
    assert f.units == (0, ((("a", "q"), 1), (("b", "p"), 1)))
    assert f.cut == {"source"}


def test_mask_edges_are_checked_against_the_sides():
    # bit b of a row is names[b]; rows must list the left side, the set
    # bits must be right nodes in the right side's order, names are unique
    # within a side, terminal capacities name nodes of their side, and the
    # middle capacity exceeds zero and every sink capacity
    names = ["u", "v", "w"]
    one = Dyadic(1, 0)

    def net(left, rows, right, sources={}, sinks={}, cap=WIDE):
        return FlowNetwork(left, right, sources, MaskEdges(rows, names, cap),
                           sinks)

    ok = net(["a", "b"], {"a": 0b101, "b": 0b100}, ["u", "w"])
    assert list(ok.mid_caps) == [("a", "u"), ("a", "w"), ("b", "w")]
    assert len(ok.mid_caps) == 3 and ok.mid_caps["a", "w"] == WIDE
    net(["a"], {"a": 1}, ["u"], sinks={"u": one}, cap=Dyadic(3, 1))
    for left, rows, right, sources, sinks, cap in [
            (["a", "b"], {"b": 1, "a": 1}, ["u"], {}, {}, WIDE),
            (["a"], {"a": 0b010}, ["u", "w"], {}, {}, WIDE),
            (["a"], {"a": 0b1000}, ["u"], {}, {}, WIDE),
            (["a"], {"a": 0b101}, ["w", "u"], {}, {}, WIDE),
            (["a", "a"], {"a": 1}, ["u"], {}, {}, WIDE),
            (["a"], {"a": 1}, ["u", "u"], {}, {}, WIDE),
            (["a"], {"a": 1}, ["u"], {"b": one}, {}, WIDE),
            (["a"], {"a": 1}, ["u"], {"u": one}, {}, WIDE),
            (["a"], {"a": 1}, ["u"], {}, {"a": one}, WIDE),
            (["a"], {"a": 1}, ["u", "w"], {}, {"w": WIDE}, WIDE),
            (["a"], {"a": 1}, ["u", "w"], {}, {"w": WIDE}, one),
            (["a"], {"a": 1}, ["u"], {}, {}, ZERO)]:
        with pytest.raises(ValueError):
            net(left, rows, right, sources, sinks, cap)
    with pytest.raises(TypeError):
        FlowNetwork(["a"], ["u"], {}, {("a", "u"): WIDE}, {})


def test_first_phase_source_and_sink_saturate_together():
    # a's unit fills p exactly, so b passes over the drained p to q, and c
    # finds no right node left; c's unspent supply then reaches p and, back
    # over a -> p, a, but not b, whose edge to p carries nothing
    unit = lambda k: Dyadic(k, 0)
    net = network(["a", "b", "c"], ["p", "q"],
                  {"a": unit(1), "b": unit(1), "c": unit(1)},
                  [("a", "p"), ("b", "p"), ("b", "q"), ("c", "p")],
                  {"p": unit(1), "q": unit(1)})
    f = assert_breadth_first_flow(net)
    assert f.units == (0, ((("a", "p"), 1), (("b", "q"), 1)))
    assert f.cut == {"source", ("left", "c"), ("right", "p"), ("left", "a")}


def test_no_three_edge_path_at_the_start():
    # a's supply reaches only p, which takes nothing; q takes mass, but only
    # b, which has none, reaches it: no phase runs, and the first search
    # marks the cut
    net = network(["a", "b"], ["p", "q"], {"a": Dyadic(1, 1), "b": ZERO},
                  [("a", "p"), ("b", "q")], {"p": ZERO, "q": Dyadic(1, 0)})
    f = assert_breadth_first_flow(net)
    assert f.value == ZERO
    assert f.units == (1, ())
    assert f.cut == {"source", ("left", "a"), ("right", "p")}


def decide_size_pair(seed):
    """A sparse 200-element poset and 60-point supports mu and nu, the size
    of the largest order queries; for an odd seed nu is mu with each
    point's mass moved up, so all of it is routed."""
    rng = random.Random(seed)
    base = shuffled_poset(rng, 200, 0.02, size=200)
    mu = sparse_valuation(rng, base, 60, exp=8)
    if seed % 2:
        up = {}
        for x, w in mu.weights.items():
            y = rng.choice(sorted(base.up_set(x), key=base.index.get))
            up[y] = up.get(y, ZERO) + w
        return mu, SimpleValuation(base, up)
    return mu, sparse_valuation(rng, base, 60, exp=8)


@pytest.mark.parametrize("seed", range(4))
def test_breadth_first_flow_at_decide_size(seed):
    # the first phase routes most of the mass, and later phases reroute it
    # along back edges
    mu, nu = decide_size_pair(seed)
    net = order_network(mu, nu)
    f = assert_breadth_first_flow(net)
    across = [xy for xy, _ in f.units[1]]
    assert across == [e for e in net.mid_caps if e in across]
    assert (f.value == mu.mass) == bool(seed % 2)


@pytest.mark.parametrize("seed", range(6))
def test_the_cut_is_built_on_its_first_read(seed):
    # decide-size order networks: the flow keeps the cut as masks, and the
    # tagged set built from them on the first read is one frozenset,
    # whether it is read before or after the units, and a minimum cut
    mu, nu = decide_size_pair(seed)
    net = order_network(mu, nu)
    cut_first, units_first = max_flow(net), max_flow(net)
    assert "cut" not in vars(cut_first)
    cut = cut_first.cut
    assert cut is cut_first.cut and isinstance(cut, frozenset)
    units = units_first.units
    assert cut_first.units == units and units_first.cut == cut
    assert crossing_capacity(net, cut) == cut_first.value
    # leq_witness reads the left mask alone: its upper set is the upward
    # closure of mu's support on the source side, and it breaks mu <= nu
    witness = leq_witness(mu, nu)
    if seed % 2:
        assert cut_first.value == mu.mass and witness is None
        return
    blocked = [x for x in mu.support if ("left", x) in cut]
    assert witness.members == mu.base.upward_closure(blocked)
    assert value_on(mu, witness.members) > value_on(nu, witness.members)
