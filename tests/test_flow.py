import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetval import Dyadic, Poset, SimpleValuation, ZERO, flow, leq_witness
from posetval.flow import FlowNetwork, MaskEdges, max_flow, to_dot
from posetval.skorohod import represent_target
from posetval.valuation import order_network

from conftest import random_poset, random_valuation, shuffled_poset
from oracles import (dyadic_caps, max_flow_by_shortest_paths, middle_edges,
                     min_cut_by_enumeration, network_violations, up_set,
                     upward_closure, value_on)

# the middle capacity of the order network: above every sink capacity
WIDE = Dyadic(2, 0)


def unit(k):
    return Dyadic(k, 0)


levels_of = flow._levels


@pytest.fixture
def phase_levels(monkeypatch):
    """The level counts of the phases max_flow runs, in order, as _levels
    returns them; the last search, which finds no path, adds none."""
    counts = []

    def recording(*args):
        levels, seen = levels_of(*args)
        if levels is not None:
            counts.append(len(levels))
        return levels, seen

    monkeypatch.setattr(flow, "_levels", recording)
    return counts


def integer_network(left, right, source_caps, rows, names, cap, sink_caps):
    """The network of these dyadic capacities, each written as an integer
    count of 2^-p, p their largest exponent."""
    p = max(c.exp for c in [cap, *source_caps.values(), *sink_caps.values()])

    def counts(caps):
        return {key: c.rescale(p) for key, c in caps.items()}

    return FlowNetwork(left, right, counts(source_caps),
                       MaskEdges(rows, names, cap.rescale(p)),
                       counts(sink_caps), p)


def network(left, right, source_caps, pairs, sink_caps, cap=WIDE):
    """The network whose middle edges are `pairs`, as MaskEdges rows with
    bit j for right[j]; capacities are given as dyadics."""
    rows = {x: sum(1 << right.index(y) for x2, y in pairs if x2 == x)
            for x in left}
    return integer_network(left, right, source_caps, rows, right, cap,
                           sink_caps)


def scaled(net, s):
    """net written at 2^-(p + s): every capacity, the middle one too, is
    2^s times as many units."""
    def counts(caps):
        return {key: c << s for key, c in caps.items()}

    mid = net.mid_caps
    return FlowNetwork(net.left, net.right, counts(net.source_caps),
                       MaskEdges(mid.rows, mid.names, mid.cap << s),
                       counts(net.sink_caps), net.p + s)


def raised(net):
    """Way-below's network of the order network net: written in units of
    eps = 2^-(p + ceil(log2 |left|)), each source capacity one unit more."""
    wide = scaled(net, (len(net.left) - 1).bit_length())
    return replace(wide, source_caps={x: c + 1
                                      for x, c in wide.source_caps.items()})


def tagged(f):
    """The source side of f's minimum cut as tagged nodes: "source", then
    ("left", left[k]) for bit k of the left mask and ("right", names[b])
    for bit b of the right one."""
    net, (lefts, rights) = f.net, f.cut
    names = net.mid_caps.names
    return frozenset(["source"]
                     + [("left", x) for k, x in enumerate(net.left)
                        if lefts >> k & 1]
                     + [("right", names[b])
                        for b in range(rights.bit_length())
                        if rights >> b & 1])


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
    assert tagged(f) == {"source", ("left", "a"), ("right", "a")}
    assert crossing_capacity(bottleneck_net(), tagged(f)) == f.value


def test_diamond_routing():
    f = max_flow(diamond_net())
    assert f.value == Dyadic(1, 0)
    assert f.units == (1, ((("a", "top"), 1), (("b", "top"), 1)))
    assert crossing_capacity(diamond_net(), tagged(f)) == Dyadic(1, 0)


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
    for x, c in dyadic_caps(net, net.source_caps).items():
        if ("left", x) not in side:
            total = total + c
    for (x, y), c in middle_edges(net).items():
        if ("left", x) in side and ("right", y) not in side:
            total = total + c
    for y, c in dyadic_caps(net, net.sink_caps).items():
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
        cut = tagged(f)
        assert "source" in cut and "sink" not in cut
        assert crossing_capacity(net, cut) == f.value


def test_flows_are_integral_at_common_denominator():
    rng = random.Random(12)
    for _ in range(60):
        net = random_net(rng)
        p = net.p
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
            assert t < middle_edges(net)[xy]  # no middle edge saturates
        for x, t in flows["from_source"].items():
            assert t <= dyadic_caps(net, net.source_caps)[x]
        for y, t in flows["to_sink"].items():
            assert t <= dyadic_caps(net, net.sink_caps)[y]
        assert sum(flows["from_source"].values(), ZERO) == f.value \
            == sum(flows["to_sink"].values(), ZERO)


def test_empty_supply_gives_zero_flow():
    net = network([], ["y"], {}, [], {"y": Dyadic(1, 0)})
    assert max_flow(net).value == ZERO


def test_dot_annotations():
    dot = to_dot(max_flow(diamond_net()))
    assert "digraph" in dot and "1/2^1" in dot


def non_string_names_net():
    return network([0], [1, 3], {0: Dyadic(1, 0)}, [(0, 1), (0, 3)],
                   {1: Dyadic(1, 1), 3: ZERO})


def test_dot_of_non_string_names():
    # an edge that carries flow shows it against its capacity; one that
    # carries none shows its capacity alone
    dot = to_dot(max_flow(non_string_names_net()))
    assert '"source" -> "L_0" [label="1/2^1 of 1"];' in dot
    assert '"L_0" -> "R_1" [label="1/2^1 of 2"];' in dot
    assert '"L_0" -> "R_3" [label="2"];' in dot
    assert '"R_1" -> "sink" [label="1/2^1 of 1/2^1"];' in dot
    assert '"R_3" -> "sink" [label="0"];' in dot


def out_of_name_order_net():
    # the poset and both supports are declared z, m, a, q, out of name
    # order, and each support is given in yet another order
    base = Poset(["z", "m", "a", "q"],
                 [("z", "m"), ("z", "a"), ("m", "q"), ("a", "q")], "z")
    mu = SimpleValuation(base, {"a": Dyadic(1, 2), "q": Dyadic(1, 3),
                                "z": Dyadic(1, 2), "m": Dyadic(1, 2)})
    nu = SimpleValuation(base, {"q": Dyadic(1, 1), "a": Dyadic(1, 2),
                                "m": Dyadic(1, 3)})
    return order_network(mu, nu)


@pytest.mark.parametrize("make, statements", [
    (out_of_name_order_net, [
        '"source" -> "L_z" [label="1/2^2 of 1/2^2"];',
        '"source" -> "L_m" [label="1/2^2 of 1/2^2"];',
        '"source" -> "L_a" [label="1/2^2 of 1/2^2"];',
        '"source" -> "L_q" [label="1/2^3 of 1/2^3"];',
        '"L_z" -> "R_m" [label="1/2^3 of 2"];',
        '"L_z" -> "R_a" [label="1/2^3 of 2"];',
        '"L_z" -> "R_q" [label="2"];',
        '"L_m" -> "R_m" [label="2"];',
        '"L_m" -> "R_q" [label="1/2^2 of 2"];',
        '"L_a" -> "R_a" [label="1/2^3 of 2"];',
        '"L_a" -> "R_q" [label="1/2^3 of 2"];',
        '"L_q" -> "R_q" [label="1/2^3 of 2"];',
        '"R_m" -> "sink" [label="1/2^3 of 1/2^3"];',
        '"R_a" -> "sink" [label="1/2^2 of 1/2^2"];',
        '"R_q" -> "sink" [label="1/2^1 of 1/2^1"];']),
    (non_string_names_net, [
        '"source" -> "L_0" [label="1/2^1 of 1"];',
        '"L_0" -> "R_1" [label="1/2^1 of 2"];',
        '"L_0" -> "R_3" [label="2"];',
        '"R_1" -> "sink" [label="1/2^1 of 1/2^1"];',
        '"R_3" -> "sink" [label="0"];'])])
def test_dot_text_statement_by_statement(make, statements):
    # source edges, then middle edges by left node and ascending right
    # node, then sink edges, every side in declaration order
    lines = to_dot(max_flow(make())).split("\n")
    assert lines[:2] == ["digraph flow {", "  rankdir=LR;"]
    assert lines[2:-2] == ["  " + s for s in statements]
    assert lines[-2:] == ["}", ""]


def assert_breadth_first_flow(net):
    # the printed transport plans are this flow
    f = max_flow(net)
    expected = max_flow_by_shortest_paths(net)
    cut = tagged(f)
    assert {"value": f.value, "cut": cut, **edge_flows(f)} == expected
    assert crossing_capacity(net, cut) == f.value
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
    return integer_network(left, right, caps(left), rows, right, cap, sinks)


@settings(max_examples=300, deadline=None)
@given(networks())
def test_max_flow_is_the_breadth_first_flow_on_general_networks(net):
    assert network_violations(net) == []
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
    assert_breadth_first_flow(raised(net))


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
    assert list(middle_edges(net)) == pairs
    # a transport plan lists its entries in this order
    across = [xy for xy, _ in assert_breadth_first_flow(net).units[1]]
    assert across == [e for e in pairs if e in across]
    assert_breadth_first_flow(raised(net))


def test_second_phase_reroutes_along_a_back_edge():
    # the first phase sends a's unit to p and so drains p; the second sends
    # b's unit to p, back over a -> p, and on to q, cancelling a -> p
    net = network(["a", "b"], ["p", "q"], {"a": unit(1), "b": unit(1)},
                  [("a", "p"), ("a", "q"), ("b", "p")],
                  {"p": unit(1), "q": unit(1)})
    f = assert_breadth_first_flow(net)
    assert f.value == unit(2)
    assert f.units == (0, ((("a", "q"), 1), (("b", "p"), 1)))
    assert tagged(f) == {"source"}


def test_mask_edges_are_checked_against_the_sides():
    # the reference check of the one shape: bit b of a row is names[b];
    # rows must list the left side, the set bits must be right nodes in the
    # right side's order, names are unique within a side, terminal
    # capacities name nodes of their side, and the middle capacity exceeds
    # zero and every sink capacity. The engine checks none of this, so each
    # broken network is built, and the check must report it
    names = ["u", "v", "w"]
    one = Dyadic(1, 0)

    def net(left, rows, right, sources={}, sinks={}, cap=WIDE):
        return integer_network(left, right, sources, rows, names, cap, sinks)

    ok = net(["a", "b"], {"a": 0b101, "b": 0b100}, ["u", "w"])
    assert list(middle_edges(ok)) == [("a", "u"), ("a", "w"), ("b", "w")]
    assert len(ok.mid_caps) == 3 and middle_edges(ok)["a", "w"] == WIDE
    assert network_violations(ok) == []
    assert network_violations(net(["a"], {"a": 1}, ["u"], sinks={"u": one},
                                  cap=Dyadic(3, 1))) == []
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
        broken = net(left, rows, right, sources, sinks, cap)
        assert network_violations(broken), (left, rows, right, sources,
                                            sinks, cap)
    plain = FlowNetwork(["a"], ["u"], {}, {("a", "u"): WIDE}, {}, 0)
    assert network_violations(plain) == [
        "the middle edges are not MaskEdges rows"]
    # the engine reads integer capacities of 2^-p, and nothing else
    for broken in [replace(ok, p=-1), replace(ok, p=Dyadic(1, 0)),
                   replace(ok, source_caps={"a": Dyadic(1, 1)}),
                   replace(ok, sink_caps={"u": -1}),
                   replace(ok, mid_caps=MaskEdges(ok.mid_caps.rows, names,
                                                  WIDE))]:
        assert network_violations(broken) == [
            "p or a capacity is not an integer of at least zero"]


def test_first_phase_source_and_sink_saturate_together():
    # a's unit fills p exactly, so b passes over the drained p to q, and c
    # finds no right node left; c's unspent supply then reaches p and, back
    # over a -> p, a, but not b, whose edge to p carries nothing
    net = network(["a", "b", "c"], ["p", "q"],
                  {"a": unit(1), "b": unit(1), "c": unit(1)},
                  [("a", "p"), ("b", "p"), ("b", "q"), ("c", "p")],
                  {"p": unit(1), "q": unit(1)})
    f = assert_breadth_first_flow(net)
    assert f.units == (0, ((("a", "p"), 1), (("b", "q"), 1)))
    assert tagged(f) == {"source", ("left", "c"), ("right", "p"),
                         ("left", "a")}


def test_no_three_edge_path_at_the_start():
    # a's supply reaches only p, which takes nothing; q takes mass, but only
    # b, which has none, reaches it: no phase runs, and the first search
    # marks the cut
    net = network(["a", "b"], ["p", "q"], {"a": Dyadic(1, 1), "b": ZERO},
                  [("a", "p"), ("b", "q")], {"p": ZERO, "q": Dyadic(1, 0)})
    f = assert_breadth_first_flow(net)
    assert f.value == ZERO
    assert f.units == (1, ())
    assert tagged(f) == {"source", ("left", "a"), ("right", "p")}


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
            y = rng.choice(sorted(up_set(base, x), key=base.index.get))
            up[y] = up.get(y, ZERO) + w
        return mu, SimpleValuation(base, up)
    return mu, sparse_valuation(rng, base, 60, exp=8)


DECIDE_SEEDS = range(24)


@pytest.mark.parametrize("seed", DECIDE_SEEDS)
def test_breadth_first_flow_at_decide_size(seed):
    # the first phase routes most of the mass, and later phases reroute it
    # along back edges
    mu, nu = decide_size_pair(seed)
    net = order_network(mu, nu)
    f = assert_breadth_first_flow(net)
    across = [xy for xy, _ in f.units[1]]
    assert across == [e for e in middle_edges(net) if e in across]
    assert (f.value == mu.mass) == bool(seed % 2)


def test_decide_size_seeds_run_every_kind_of_phase(phase_levels):
    # between them, the seeds above run two-level phases (the greedy pass),
    # four-level ones (the direct pass) and deeper ones (the general
    # search), so each of the three is compared with the oracle there
    for seed in DECIDE_SEEDS:
        max_flow(order_network(*decide_size_pair(seed)))
    assert {2, 4} <= set(phase_levels) and max(phase_levels) >= 6


def assert_scaling_keeps_the_flow(net):
    # the same capacities written in units 2^s times finer: the solve runs
    # the same phases and augmentations on integers 2^s times as large, so
    # the cut masks stay and every unit is 2^s units. This is why a lift
    # may solve its plan at its new layer's depth, not at its stages'
    # exponents
    f = max_flow(net)
    p, units = f.units
    for s in range(1, 6):
        g = max_flow(scaled(net, s))
        assert g.cut == f.cut
        assert g.units == (p + s, tuple((xy, k << s) for xy, k in units))
        assert (g.value, g.saturated) == (f.value, f.saturated)


@settings(max_examples=200, deadline=None)
@given(networks())
def test_scaled_capacities_keep_the_cut_and_scale_the_units(net):
    assert_scaling_keeps_the_flow(net)


@pytest.mark.parametrize("seed", range(0, 24, 3))
def test_scaled_capacities_at_decide_size(seed):
    assert_scaling_keeps_the_flow(order_network(*decide_size_pair(seed)))


def lift_size_target(seed):
    """(target, K): a probability target on a 12-element poset declared
    out of order, and a schedule length K of 2..4, whose representation has
    final depth 12..16: the target's largest exponent is that depth less
    K."""
    rng = random.Random(seed)
    base = shuffled_poset(rng, 12, rng.choice([0.1, 0.3]), size=12)
    steps = rng.randint(2, 4)
    exp = rng.randint(12, 16) - steps
    while True:
        points = rng.sample(base.elements, rng.randint(2, 12))
        cuts = sorted(rng.sample(range(1, 1 << exp), len(points) - 1))
        target = SimpleValuation(base, {
            x: Dyadic(b - a, exp)
            for x, a, b in zip(points, [0, *cuts], [*cuts, 1 << exp])})
        if target.max_exponent() == exp:
            return target, steps


@pytest.mark.parametrize("seed", range(12))
def test_breadth_first_flow_at_lift_size(seed, solves):
    # every lift but the first, from the bottom's one run, solves its plan
    # on a network written at its new layer's depth, in words of that layer
    target, steps = lift_size_target(seed)
    rmap = represent_target(target, steps)
    assert 12 <= rmap.final_depth <= 16
    assert [net.p for net in solves] \
        == [layer.depth for layer in rmap.layers[2:]]
    for net in solves:
        assert network_violations(net) == []
        assert_breadth_first_flow(net)


@pytest.mark.parametrize("seed", range(6))
def test_the_cut_masks_give_a_minimum_cut_and_the_witness(seed):
    # decide-size order networks: the flow keeps the cut as the last
    # search's two masks, left and right. They give a minimum cut: its
    # crossing capacity equals the value of a flow, so neither can be
    # bettered. leq_witness reads the left mask alone, and its upper set is
    # the upward closure of mu's points on the source side
    mu, nu = decide_size_pair(seed)
    net = order_network(mu, nu)
    f = max_flow(net)
    assert all(type(mask) is int for mask in f.cut) and len(f.cut) == 2
    cut = tagged(f)
    assert crossing_capacity(net, cut) == f.value
    witness = leq_witness(mu, nu)
    if seed % 2:
        assert f.value == mu.mass and witness is None
        return
    blocked = [x for x in mu.support if ("left", x) in cut]
    assert witness.members == upward_closure(mu.base, blocked)
    assert value_on(mu, witness.members) > value_on(nu, witness.members)


# Networks whose second phase has four levels, paths source -> x -> y ->
# x2 -> y2 -> sink. In each, the first phase sends every unit of a to p
# and drains p, so that b reaches q only through p, back over a -> p, and
# a.
FOUR_LEVEL_PHASES = {
    # b's last unit, the unit on a -> p and nothing of q's two: the source
    # and back edges saturate together, and q keeps one unit
    "source_and_back_tie": (
        ["a", "b"], ["p", "q"], {"a": unit(1), "b": unit(1)},
        [("a", "p"), ("a", "q"), ("b", "p")], {"p": unit(1), "q": unit(2)},
        ((("a", "q"), 1), (("b", "p"), 1))),
    # one of b's two units: the back and sink edges saturate together. The
    # first phase also filled p from a3, which reaches q too, but q has
    # left the last level, so a3 is a dead end, and b keeps its other unit
    "back_and_sink_tie": (
        ["a", "a3", "b"], ["p", "q"],
        {"a": unit(1), "a3": unit(1), "b": unit(2)},
        [("a", "p"), ("a", "q"), ("a3", "p"), ("a3", "q"), ("b", "p")],
        {"p": unit(2), "q": unit(1)},
        ((("a", "q"), 1), (("a3", "p"), 1), (("b", "p"), 1))),
    # one unit on every bounded edge: all three saturate together
    "source_back_and_sink_tie": (
        ["a", "b"], ["p", "q"], {"a": unit(1), "b": unit(1)},
        [("a", "p"), ("a", "q"), ("b", "p")], {"p": unit(1), "q": unit(1)},
        ((("a", "q"), 1), (("b", "p"), 1))),
    # c has supply but no middle edge: the step to level 2 finds nothing,
    # and c, a dead end, leaves level 1
    "dead_end_at_level_2": (
        ["c", "a", "b"], ["p", "q"], {"c": unit(1), "a": unit(1),
                                      "b": unit(1)},
        [("a", "p"), ("a", "q"), ("b", "p")], {"p": unit(1), "q": unit(1)},
        ((("a", "q"), 1), (("b", "p"), 1))),
    # z takes nothing and carries nothing, so the step from it to level 3
    # finds nothing: z leaves level 2, and b goes on to p
    "dead_end_at_level_3": (
        ["a", "b"], ["z", "p", "q"], {"a": unit(1), "b": unit(1)},
        [("a", "p"), ("a", "q"), ("b", "z"), ("b", "p")],
        {"z": ZERO, "p": unit(1), "q": unit(1)},
        ((("a", "q"), 1), (("b", "p"), 1))),
    # the first phase fills p from a2 and a; a2 reaches only p, so the step
    # from it to level 4 finds nothing: a2 leaves level 3, and the path
    # runs back over a -> p instead
    "dead_end_at_level_4": (
        ["a2", "a", "b"], ["p", "q"], {"a2": unit(1), "a": unit(1),
                                       "b": unit(1)},
        [("a2", "p"), ("a", "p"), ("a", "q"), ("b", "p")],
        {"p": unit(2), "q": unit(1)},
        ((("a2", "p"), 1), (("a", "q"), 1), (("b", "p"), 1))),
}


@pytest.mark.parametrize("case", FOUR_LEVEL_PHASES)
def test_four_level_phase_ties_and_dead_ends(case, phase_levels):
    left, right, sources, pairs, sinks, across = FOUR_LEVEL_PHASES[case]
    net = network(left, right, sources, pairs, sinks)
    f = assert_breadth_first_flow(net)
    assert phase_levels == [2, 4]
    assert f.units == (0, across)
