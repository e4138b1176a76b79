import random
import sys
import tracemalloc
from itertools import cycle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetval import (Dyadic, ONE, RepresentationMap, SimpleValuation,
                      StepMap, Word, add, build_schedule, delta, format_map,
                      leq, lift_step, parse_map, represent, represent_sequence,
                      sample, scale, skorohod, skorohod_sequence, way_below)
from posetval.dyadic import MAX_PARSED_EXPONENT, parse_dyadic
from posetval.errors import (DepthExceeded, MixedBase, NotComparable,
                             NotConvergent, NotProbability, ParseError,
                             PartialMap, SourceExhausted, TooLarge,
                             UnknownElement)
from posetval.pipeline import _sequence_report
from posetval.skorohod import _lift, represent_target

from conftest import grid, random_poset, random_valuation, shuffled_poset
from oracles import (convergence_by_words, level, lift_step_by_slots,
                     pushforward_counting, schedule_by_convex_sums)

HALF = Dyadic(1, 1)


def half_half(m4):
    return SimpleValuation(m4, {"a": HALF, "b": HALF})


def test_build_schedule_examples(m4):
    top = delta(m4, "top")
    sched = build_schedule(top, 2)
    assert sched == [delta(m4, "bot"),
                     SimpleValuation(m4, {"bot": HALF, "top": HALF}),
                     top]
    bot = delta(m4, "bot")
    assert build_schedule(bot, 3) == [bot] * 4
    assert build_schedule(half_half(m4), 1) == [bot, half_half(m4)]


def test_build_schedule_checks(m4):
    with pytest.raises(NotProbability):
        build_schedule(scale(delta(m4, "top"), HALF), 2)
    with pytest.raises(ValueError):
        build_schedule(delta(m4, "top"), 0)


def test_schedule_exponents_stay_parseable(c3):
    # stage k's exponent is at most E + k, E the target's; E + steps - 1
    # may reach the parser's exponent bound and no further
    E = MAX_PARSED_EXPONENT - 1
    deep = SimpleValuation(c3, {"c1": Dyadic(1, E), "c2": ONE - Dyadic(1, E)})
    sched = build_schedule(deep, 2)
    assert max(t.max_exponent() for t in sched) == MAX_PARSED_EXPONENT
    for stage in sched:
        for w in stage.weights.values():
            assert parse_dyadic(str(w)) == w
    with pytest.raises(TooLarge, match="exceeds the bound"):
        build_schedule(deep, 3)
    half = SimpleValuation(c3, {"c0": HALF, "c2": HALF})
    assert len(build_schedule(half, MAX_PARSED_EXPONENT)) \
        == MAX_PARSED_EXPONENT + 1
    with pytest.raises(TooLarge, match="exceeds the bound"):
        build_schedule(half, MAX_PARSED_EXPONENT + 1)


def test_schedule_stages_strictly_approximate(m4):
    rng = random.Random(31)
    for _ in range(25):
        base = random_poset(rng)
        target = random_valuation(rng, base, probability=True)
        sched = build_schedule(target, rng.randint(1, 4))
        for a, b in zip(sched, sched[1:]):
            assert way_below(a, b, normalized=True)
            assert leq(a, b)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6))
def test_built_schedules_are_way_below_by_construction(rng, steps):
    # nothing in the library decides way-below between the built stages;
    # decide it here
    base = random_poset(rng, max_elements=8)
    target = random_valuation(rng, base, exp=rng.randint(0, 5),
                              probability=True)
    sched = build_schedule(target, steps)
    for a, b in zip(sched, sched[1:]):
        assert way_below(a, b, normalized=True)


def test_build_schedule_solves_no_flow(m4, solves):
    assert len(build_schedule(half_half(m4), 4)) == 5 and solves == []


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 8))
def test_build_schedule_matches_convex_sums(rng, steps):
    # each stage is written from integer numerators in one valuation; the
    # oracle sums the two scaled valuations
    base = random_poset(rng, max_elements=8)
    target = random_valuation(rng, base, exp=rng.randint(0, 6),
                              probability=True)
    want = schedule_by_convex_sums(target, steps)
    got = build_schedule(target, steps)
    assert got == want
    assert [list(s.weights.items()) for s in got] \
        == [list(s.weights.items()) for s in want]
    assert [s.mass for s in got] == [s.mass for s in want]


def test_represent_counts_each_layer_law_once(m4, monkeypatch):
    # StepMap.counts is the one run-length count, under StepMap.law too
    calls = []
    real = StepMap.counts

    def counting(layer):
        calls.append(layer.depth)
        return real(layer)

    monkeypatch.setattr(StepMap, "counts", counting)
    target = SimpleValuation(m4, {"a": Dyadic(1, 2), "b": Dyadic(1, 2),
                                  "top": HALF})
    for steps in (1, 2, 3, 4):
        calls.clear()
        rmap = represent(build_schedule(target, steps))
        assert calls == [layer.depth for layer in rmap.layers]
        assert len(calls) == steps + 1


def test_lift_step_alone_checks_its_layer_law(m4):
    # lift_step reads the law off the layer it is given: a two-run layer
    # (a flow decides) and a one-run layer (the plan is forced) whose laws
    # are not below the target are both refused
    two_runs = StepMap(1, ends=[1, 2], values=["a", "top"])
    with pytest.raises(NotComparable):
        lift_step(two_runs, delta(m4, "b"))
    with pytest.raises(NotComparable):
        lift_step(StepMap(1, ends=[2], values=["a"]), delta(m4, "b"))
    lifted = lift_step(two_runs, delta(m4, "top"))
    assert lifted.law(m4) == delta(m4, "top")


def test_lift_refuses_a_law_its_layer_does_not_have(m4):
    # _lift deals the plan of the run counts it is given; counts off the
    # layer's run lengths leave some run short of budget (the budgets and
    # the runs both count 2^depth words, so budget left over means a short
    # run too), and that raises AssertionError, which python -O keeps. The
    # counts and the stage are words of the new level, depth 2: a quarter
    # is one word
    layer = StepMap(1, ends=[1, 2], values=["a", "b"])
    top = {"top": 4}
    with pytest.raises(AssertionError, match="slot without budget at '01'"):
        _lift(m4, layer, {"a": 1, "b": 3}, top, 2)
    with pytest.raises(AssertionError, match="slot without budget at '11'"):
        _lift(m4, layer, {"a": 3, "b": 1}, top, 2)
    lifted = _lift(m4, layer, {"a": 2, "b": 2}, top, 2)
    if lifted.counts() != {"top": 4}:
        pytest.fail("lifted counts %r" % lifted.counts())


def test_represent_refuses_a_layer_off_its_stage(m4, monkeypatch):
    # represent compares each layer's run lengths with its stage; a lift
    # whose layer pushes forward elsewhere is refused with AssertionError
    def skewed(*args):
        layer = _lift(*args)
        return StepMap(layer.depth, ends=layer.ends,
                       values=["top"] * len(layer.values))

    monkeypatch.setattr(sys.modules[represent.__module__], "_lift", skewed)
    with pytest.raises(AssertionError, match="depth 1 does not push"):
        represent([delta(m4, "bot"), half_half(m4)])


def test_schedule_validation_rejects_gaps(m4, c3):
    bot = delta(m4, "bot")
    with pytest.raises(NotComparable, match="bottom mass"):
        represent([delta(m4, "top")])
    # one run at a: the forced plan finds b outside a's up-set
    with pytest.raises(NotComparable, match="no transport plan"):
        represent([bot, delta(m4, "a"), delta(m4, "b")])
    # runs at a and b: the flow finds no way up for b's half
    with pytest.raises(NotComparable, match="no transport plan"):
        represent([bot, half_half(m4), delta(m4, "a")])
    with pytest.raises(NotProbability):
        represent([bot, scale(delta(m4, "top"), HALF)])
    with pytest.raises(MixedBase):
        represent([bot, delta(c3, "c1")])
    with pytest.raises(MixedBase):
        represent([bot, half_half(m4), delta(c3, "c1")])


def test_lift_step_examples(m4):
    base_layer = StepMap(0, {"": "bot"})
    lifted = lift_step(base_layer, half_half(m4))
    assert lifted.depth == 1
    assert dict(lifted.items()) == {"0": "a", "1": "b"}

    second = lift_step(lifted, delta(m4, "top"))
    assert second.depth == 2
    assert dict(second.items()) == {w.bits: "top" for w in level(2)}

    with pytest.raises(NotComparable):
        lift_step(StepMap(0, {"": "top"}), half_half(m4))


def test_lift_step_randomized_exactness():
    rng = random.Random(32)
    for _ in range(120):
        base = random_poset(rng)
        depth = rng.randint(0, 3)
        table = {w.bits: rng.choice(base.elements) for w in level(depth)}
        current = StepMap(depth, table)
        law = pushforward_counting(table, depth, base)
        target = upward_shuffle(rng, law)
        lifted = lift_step(current, target)
        assert lifted.depth > depth
        assert pushforward_counting(dict(lifted.items()), lifted.depth,
                                    base) == target
        for bits, y in lifted.items():
            assert base.leq(table[bits[:depth]], y)


def upward_shuffle(rng, law, exp=4):
    """A probability valuation above `law`: move each atom's units upward."""
    base = law.base
    exp = max(law.max_exponent(), exp)
    weights = {}
    for x, w in law.weights.items():
        ups = [y for y in base.elements if base.leq(x, y)]
        for _ in range(w.rescale(exp)):
            y = rng.choice(ups)
            weights[y] = weights.get(y, Dyadic(0, 0)) + Dyadic(1, exp)
    return SimpleValuation(base, weights)


def test_lift_step_matches_slot_by_slot_oracle():
    # arbitrary (not monotone) current layers, targets at up to 2^-12
    rng = random.Random(38)
    for _ in range(60):
        base = random_poset(rng, max_elements=8)
        depth = rng.randint(0, 4)
        table = {w.bits: rng.choice(base.elements) for w in level(depth)}
        law = pushforward_counting(table, depth, base)
        target = upward_shuffle(rng, law, exp=rng.randint(4, 12))
        lifted = lift_step(StepMap(depth, table), target)
        assert lifted.depth <= 12
        assert (lifted.depth, dict(lifted.items())) \
            == lift_step_by_slots(table, depth, target)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_one_run_lift_matches_the_flow_plan(seed):
    # a one-run layer's plan is built without a flow; the oracle still
    # takes its plan from transport_plan
    rng = random.Random(seed)
    base = random_poset(rng, max_elements=7)
    for x in base.elements:
        for depth in range(4):
            table = {w.bits: x for w in level(depth)}
            for target in (upward_shuffle(rng, delta(base, x)),
                           random_valuation(rng, base, rng.randint(0, 5),
                                            probability=True)):
                try:
                    want = lift_step_by_slots(table, depth, target)
                except NotComparable:
                    with pytest.raises(NotComparable):
                        lift_step(StepMap(depth, table), target)
                    continue
                lifted = lift_step(StepMap(depth, table), target)
                assert (lifted.depth, dict(lifted.items())) == want


def test_one_run_lift_checks_the_base(c3):
    # the layer's law is taken on the target's poset, which has no 'bot'
    with pytest.raises(UnknownElement, match="'bot'"):
        lift_step(StepMap(0, {"": "bot"}), delta(c3, "c0"))


def test_represent_solves_no_flow_for_the_first_lift(solves):
    # stage 1 and later hold the bottom and some other point, so every
    # lift but the first, from the bottom's one run, solves one flow
    rng = random.Random(40)
    for _ in range(30):
        base = random_poset(rng, max_elements=7)
        target = random_valuation(rng, base, rng.randint(0, 4),
                                  probability=True)
        if target == delta(base, base.bottom):
            continue
        steps = rng.randint(1, 4)
        sched = build_schedule(target, steps)
        del solves[:]
        assert represent(sched).law() == target
        assert len(solves) == steps - 1


def test_represent_matches_slot_by_slot_oracle():
    rng = random.Random(39)
    for _ in range(30):
        base = random_poset(rng, max_elements=8)
        target = random_valuation(rng, base, exp=rng.randint(2, 9),
                                  probability=True)
        sched = build_schedule(target, rng.randint(1, 3))
        tables = [(0, {"": base.bottom})]
        for stage in sched[1:]:
            tables.append(lift_step_by_slots(tables[-1][1], tables[-1][0],
                                             stage))
        rmap = represent(sched)
        assert rmap.final_depth <= 12
        lines = ["layers %d" % len(tables)]
        for depth, table in tables:
            lines.append("layer %d" % depth)
            lines.extend("map %s %s" % (bits or "-", table[bits])
                         for bits in sorted(table))
        assert format_map(rmap) == "\n".join(lines) + "\n"
        expected = RepresentationMap(base, [StepMap(d, t) for d, t in tables])
        assert rmap.to_dot() == expected.to_dot()


def target_of_kind(rng, base, kind, exp):
    """A probability target on base: the bottom point mass, one with
    weights k/2^exp off the bottom, or one with them anywhere."""
    if kind == "bottom mass" or len(base.elements) == 1:
        return delta(base, base.bottom)
    target = random_valuation(rng, base, exp=exp, probability=True)
    if kind == "anywhere" or base.bottom not in target.weights:
        return target
    weights = dict(target.weights)
    gone = weights.pop(base.bottom)
    x = rng.choice([y for y in base.elements if y != base.bottom])
    weights[x] = weights.get(x, Dyadic(0, 0)) + gone
    return SimpleValuation(base, weights)


@pytest.mark.parametrize("kind", ["bottom mass", "off the bottom",
                                  "anywhere"])
@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 5))
def test_represent_target_lifts_the_convex_sums_like_the_slot_oracle(
        kind, rng, steps):
    # represent_target lifts the schedule's integer numerators, and no
    # stage is made a valuation; the oracle fills word by word through the
    # stages summed from scaled valuations, each stage's depth taken from
    # its dyadic weights. The bottom mass's stage k is 2^k at exponent k,
    # not canonical, so its layers must stay one level apart. Posets are
    # declared out of order, and the final depth is at most 12
    base = shuffled_poset(rng, 9, rng.choice([0.2, 0.5]))
    target = target_of_kind(rng, base, kind, rng.randint(0, 12 - steps))
    rmap = represent_target(target, steps)
    depth, table = 0, {"": base.bottom}
    assert (rmap.layers[0].depth, dict(rmap.layers[0].items())) \
        == (depth, table)
    stages = schedule_by_convex_sums(target, steps)
    assert len(rmap.layers) == len(stages) == steps + 1
    for layer, stage in zip(rmap.layers[1:], stages[1:]):
        depth, table = lift_step_by_slots(table, depth, stage)
        assert (layer.depth, dict(layer.items())) == (depth, table)
    assert rmap.final_depth <= 12
    if kind == "bottom mass":
        assert [layer.depth for layer in rmap.layers] == list(range(steps + 1))


def test_layer_runs_round_trip(m4):
    layer = StepMap(2, {"00": "a", "01": "a", "10": "top", "11": "top"})
    assert (layer.ends, layer.values) == ([2, 4], ["a", "top"])
    assert dict(layer.items()) == {"00": "a", "01": "a", "10": "top",
                                   "11": "top"}
    assert layer.law(m4) == SimpleValuation(m4, {"a": HALF, "top": HALF})
    assert [layer.at(i) for i in range(4)] == ["a", "a", "top", "top"]
    with pytest.raises(PartialMap):
        StepMap(1, {"0": "a"})
    with pytest.raises(ValueError):
        StepMap(1, {"0": "a", "1": "b", "10": "top"})


def test_representation_map_rejects_bad_run_layouts(m4):
    bot = StepMap(0, {"": "bot"})
    with pytest.raises(ValueError, match="not total"):
        RepresentationMap(m4, [bot, StepMap(1, ends=[1], values=["a"])])
    with pytest.raises(ValueError, match="not total"):
        RepresentationMap(m4, [bot, StepMap(1, ends=[1, 1, 2],
                                          values=["a", "a", "b"])])
    parent = StepMap(1, {"0": "a", "1": "top"})
    RepresentationMap(m4, [bot, parent,
                           StepMap(2, ends=[2, 4], values=["a", "top"])])
    # the child's boundary at word 3 falls inside the parent's run over
    # words 2..3, so word 10 maps to a, below its parent's top
    with pytest.raises(NotComparable, match="'10'"):
        RepresentationMap(m4, [bot, parent,
                               StepMap(2, ends=[3, 4], values=["a", "top"])])


def test_represent_lifts_a_chain_that_is_not_way_below(m4):
    # a chain that is ordered but not strictly approximating: the middle
    # stage leaves no residual bottom mass, so it is not way below the top;
    # the lift needs only the order, and each layer's law is its stage
    stages = [delta(m4, "bot"), half_half(m4), delta(m4, "top")]
    rmap = represent(stages)
    assert [layer.law(m4) for layer in rmap.layers] == stages
    assert leq(half_half(m4), delta(m4, "top"))
    assert not way_below(half_half(m4), delta(m4, "top"), normalized=True)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 7))
def test_represent_lifts_any_chain_of_small_moves(rng, m):
    # delta_bot <= s_1 <= ... <= s_m, each step moving 2^-5 of mass up one
    # declared cover, until the mass sits on maximal elements. A move off
    # x other than the bottom leaves up(x) charged and unchanged, so that
    # pair is <= but not way below
    step = Dyadic(1, 5)
    base = random_poset(rng, max_elements=7)
    stages = [delta(base, base.bottom)]
    for _ in range(m):
        weights = dict(stages[-1].weights)
        moves = [(x, y) for x, y in base.covers if x != y and x in weights]
        if not moves:
            break
        x, y = rng.choice(moves)
        weights[x] -= step
        weights[y] = weights.get(y, Dyadic(0, 0)) + step
        stages.append(SimpleValuation(base, weights))
        if x != base.bottom:
            assert not way_below(stages[-2], stages[-1], normalized=True)
    rmap = represent(stages)
    assert len(rmap.layers) == len(stages)
    for layer, stage in zip(rmap.layers, stages):
        assert pushforward_counting(dict(layer.items()), layer.depth,
                                    base) == stage
    depth, table = 0, {"": base.bottom}
    for layer, stage in zip(rmap.layers[1:], stages[1:]):
        depth, table = lift_step_by_slots(table, depth, stage)
        assert (layer.depth, dict(layer.items())) == (depth, table)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 5))
def test_represent_lifts_random_chains_like_the_slot_oracle(rng, m):
    # delta_bot <= s_1 <= ... <= s_m, s_1 a random probability valuation
    # and each later stage every unit of the one before moved to a random
    # point above it, so the layers hold several runs, and one value may
    # hold several runs; represent lifts on checked integer units, the
    # oracle fills word by word from transport_plan's dyadic entries
    base = random_poset(rng, max_elements=7)
    stages = [delta(base, base.bottom),
              random_valuation(rng, base, exp=rng.randint(1, 4),
                               probability=True)]
    for _ in range(m - 1):
        stages.append(upward_shuffle(rng, stages[-1],
                                     exp=rng.randint(1, 4)))
    rmap = represent(stages)
    depth, table = 0, {"": base.bottom}
    for layer, stage in zip(rmap.layers[1:], stages[1:]):
        depth, table = lift_step_by_slots(table, depth, stage)
        assert (layer.depth, dict(layer.items())) == (depth, table)
        assert layer.law(base) == stage


def test_three_layer_tables_via_lift_steps(m4):
    # the same three-layer construction, stepped through lift_step (which
    # only needs the plain order between consecutive laws)
    first = lift_step(StepMap(0, {"": "bot"}), half_half(m4))
    second = lift_step(first, delta(m4, "top"))
    assert (first.depth, second.depth) == (1, 2)
    assert dict(first.items()) == {"0": "a", "1": "b"}
    assert dict(second.items()) == {w.bits: "top" for w in level(2)}


def test_represent_constant_bottom(m4):
    rmap = represent(build_schedule(delta(m4, "bot"), 3))
    for layer in rmap.layers:
        assert set(dict(layer.items()).values()) == {"bot"}
    single = represent([delta(m4, "bot")])
    assert len(single.layers) == 1
    assert single.evaluate(Word(""))[1] == "bot"


def test_evaluate_examples(m4):
    first = lift_step(StepMap(0, {"": "bot"}), half_half(m4))
    second = lift_step(first, delta(m4, "top"))
    from posetval import RepresentationMap
    rmap = RepresentationMap(m4, [StepMap(0, {"": "bot"}), first, second])
    chain, value = rmap.evaluate(Word("11"))
    assert chain == ["bot", "b", "top"] and value == "top"
    chain, value = rmap.evaluate(Word("00"))
    assert chain == ["bot", "a", "top"] and value == "top"
    assert sample(rmap, iter([1, 0])) == "top"
    with pytest.raises(DepthExceeded):
        rmap.evaluate(Word("1"))


def test_sample(m4):
    rmap = represent(build_schedule(half_half(m4), 1))
    assert sample(rmap, iter([0])) == "a"
    assert sample(rmap, iter([1])) == "b"
    with pytest.raises(SourceExhausted):
        sample(rmap, iter([]))
    bot_map = represent(build_schedule(delta(m4, "bot"), 1))
    assert sample(bot_map, iter([1, 0, 1, 1])) == "bot"


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_sample_reads_the_word_the_bits_spell(rng):
    base = random_poset(rng, max_elements=8)
    target = random_valuation(rng, base, exp=rng.randint(0, 5),
                              probability=True)
    rmap = represent(build_schedule(target, rng.randint(1, 4)))
    d = rmap.final_depth
    for _ in range(8):
        bits = [rng.randrange(2) for _ in range(d + 3)]
        source = iter([bool(b) for b in bits] if rng.random() < 0.5
                      else bits)
        word = Word("".join(map(str, bits)))
        assert sample(rmap, source) == rmap.evaluate(word)[1]
        assert next(source) == bits[d]      # exactly d bits were drawn
    short = rng.randrange(d)
    with pytest.raises(SourceExhausted,
                       match="^bit source ended after %d bits$" % short):
        sample(rmap, iter([1] * short))


def test_sample_reads_each_bit_as_its_truth_value(m4):
    # a draw tests each bit for truth, as `if bit` does, so any object is
    # a bit and draws as bool(bit) would
    rmap = represent(build_schedule(half_half(m4), 1))
    truthy, falsy = (2, "x", True), (None, "", [], False)
    for bit in truthy + falsy:
        assert sample(rmap, iter([bit])) == sample(rmap, iter([bool(bit)]))
    rng = random.Random(35)
    for _ in range(20):
        base = random_poset(rng, max_elements=8)
        target = random_valuation(rng, base, exp=rng.randint(0, 5),
                                  probability=True)
        rmap = represent(build_schedule(target, rng.randint(1, 4)))
        bits = [rng.randrange(2) for _ in range(rmap.final_depth)]
        source = [rng.choice(truthy if b else falsy) for b in bits]
        word = Word("".join(map(str, bits)))
        assert sample(rmap, source) == rmap.evaluate(word)[1]


def runs_map(m4, rng, depth, cuts):
    """bot, then a depth-level layer whose runs end at the sorted cuts and
    at 2^depth, each run on a random element above bot."""
    ends = cuts + [1 << depth]
    values = [rng.choice(["a", "b", "top"]) for _ in ends]
    return RepresentationMap(m4, [StepMap(0, {"": "bot"}),
                                  StepMap(depth, ends=ends, values=values)])


@pytest.mark.parametrize("depth", [65, 300])
def test_sample_draws_from_maps_deeper_than_the_parser_reads(m4, depth):
    # the public constructor bounds no depth, so neither may a draw: its
    # place values are made for any depth, not read off a fixed table
    rng = random.Random(depth)
    cuts = sorted({rng.getrandbits(depth) for _ in range(6)} - {0})
    rmap = runs_map(m4, rng, depth, cuts)
    numbers = [0, (1 << depth) - 1] + [c + k for c in cuts for k in (-1, 0)]
    numbers += [rng.getrandbits(depth) for _ in range(20)]
    for i in numbers:
        extra = [rng.randrange(2) for _ in range(3)]
        bits = [int(b) for b in format(i, "0%db" % depth)] + extra
        source = iter(bits)
        word = Word("".join(map(str, bits)))
        assert sample(rmap, source) == rmap.evaluate(word)[1]
        assert list(source) == extra        # exactly depth bits were drawn
    for short in (0, 64, depth - 1):
        with pytest.raises(SourceExhausted,
                           match="^bit source ended after %d bits$" % short):
            sample(rmap, iter([1] * short))


def test_draws_keep_no_memory(m4):
    # a draw's buffer is freed with it: 20 000 draws from one source leave
    # the traced size where it was. A tuple buffer fails this: tuple()
    # grows its result by resizing, and the resized tuples pile up on
    # CPython's free lists
    rng = random.Random(36)
    rmap = runs_map(m4, rng, 12, sorted(rng.sample(range(1, 1 << 12), 40)))
    source = cycle([rng.randrange(2) for _ in range(4099)])
    for _ in range(10):
        sample(rmap, source)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20000):
            sample(rmap, source)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, grown


def test_sampling_exhaustive_exactness(m4):
    rng = random.Random(33)
    for _ in range(20):
        base = random_poset(rng)
        target = random_valuation(rng, base, probability=True)
        rmap = represent(build_schedule(target, rng.randint(1, 3)))
        d = rmap.final_depth
        counts = {}
        for w in level(d):
            value = rmap.evaluate(w)[1]
            counts[value] = counts.get(value, 0) + 1
        tabulated = SimpleValuation(base, {x: Dyadic(c, d)
                                           for x, c in counts.items()})
        assert tabulated == target


def test_determinism(m4):
    rng = random.Random(34)
    for _ in range(10):
        base = random_poset(rng)
        target = random_valuation(rng, base, probability=True)
        a = represent(build_schedule(target, 3))
        b = represent(build_schedule(target, 3))
        assert format_map(a) == format_map(b)


def test_evaluate_chains_ascend(m4):
    rng = random.Random(37)
    for _ in range(15):
        base = random_poset(rng)
        target = random_valuation(rng, base, probability=True)
        rmap = represent(build_schedule(target, 2))
        for w in level(rmap.final_depth):
            chain, value = rmap.evaluate(w)
            assert value == chain[-1]
            for lo, hi in zip(chain, chain[1:]):
                assert base.leq(lo, hi)


def geometric_then_limit(base, limit, rng, length=5):
    """A family approaching the limit and attaining it at the end."""
    bot = delta(base, base.bottom)
    seq = []
    for n in range(1, length):
        eps = Dyadic(1, n)
        seq.append(add(scale(limit, ONE - eps), scale(bot, eps)))
    seq.append(limit)
    return seq


def test_represent_sequence(m4):
    top = delta(m4, "top")
    seq = geometric_then_limit(m4, top, None)
    maps, limit_map = represent_sequence(seq, top, 2)
    assert len(maps) == len(seq)
    for target, rmap in zip(seq, maps):
        assert rmap.law() == target
    assert limit_map.law() == top

    constant = [half_half(m4)] * 3
    cmaps, climit = represent_sequence(constant, half_half(m4), 2)
    assert all(format_map(m) == format_map(climit) for m in cmaps)

    with pytest.raises(NotConvergent):
        represent_sequence([delta(m4, "a")] * 3, top, 2)


def test_represent_sequence_shares_one_map_per_valuation(m4, solves):
    # equal terms, built apart, and a tail equal to the limit; the gate
    # reads the tail from index 3, where the deficits halve
    limit = half_half(m4)
    bot = delta(m4, "bot")

    def approach(n):
        return add(scale(limit, ONE - Dyadic(1, n)), scale(bot, Dyadic(1, n)))

    seq = [approach(2), approach(1), approach(2), approach(1), approach(2),
           approach(3), half_half(m4), limit]
    steps = 3
    maps, limit_map = represent_sequence(seq, limit, steps, 3)
    assert maps[0] is maps[2] is maps[4]
    assert maps[1] is maps[3]
    assert maps[6] is maps[7] is limit_map
    assert len({id(m) for m in maps}) == 4
    assert len(solves) == (steps - 1) * 4
    for target, rmap in zip(seq, maps):
        assert rmap.law() == target

    witnesses, limit_witness, report = skorohod_sequence(seq, limit, steps, 3)
    assert limit_witness.rmap is witnesses[-1].rmap
    fresh = [represent_target(v, steps) for v in seq]
    fresh_limit = represent_target(limit, steps)
    assert [format_map(w.rmap) for w in witnesses] \
        == [format_map(m) for m in fresh]
    words = [r.word for r in report.convergence.records]
    depth = max(m.final_depth for m in fresh + [fresh_limit])
    assert [w.bits for w in words] == [w.bits for w in level(depth)]
    assert report.convergence == convergence_by_words(fresh, fresh_limit,
                                                      words)


def test_convergence_check_dichotomy(m4):
    top = delta(m4, "top")
    seq = geometric_then_limit(m4, top, None)
    maps, limit_map = represent_sequence(seq, top, 2)
    report = _sequence_report(maps, limit_map).convergence
    assert report.verdict
    for rec in report.records:
        assert rec.maximal  # the limit is concentrated on the top
        assert rec.equal_from is not None

    constant = [half_half(m4)] * 4
    cmaps, climit = represent_sequence(constant, half_half(m4), 1)
    creport = _sequence_report(cmaps, climit).convergence
    assert len(creport.records) == 2
    assert all(rec.equal_from == 0 or not rec.maximal
               for rec in creport.records)


def test_never_attaining_family_settles_on_all_ones_word(m4):
    # the family (1 - 2^-n) top + 2^-n a never reaches its limit, so its
    # deviation cells keep some words unsettled; the all-ones word is never
    # in them (slot-filling parks the top block last), so it still reports
    # a finite settling index
    top = delta(m4, "top")
    seq = [add(scale(top, ONE - Dyadic(1, n)),
               scale(delta(m4, "a"), Dyadic(1, n))) for n in range(1, 5)]
    maps, limit_map = represent_sequence(seq, top, 3)
    depth = max(m.final_depth for m in maps + [limit_map])
    report = _sequence_report(maps, limit_map).convergence
    ones = [r for r in report.records if r.word.bits == "1" * depth]
    assert len(ones) == 1 and ones[0].maximal
    assert ones[0].equal_from == 0
    # and the family as a whole is honestly reported as not yet settled
    assert not report.verdict


def test_convergence_check_non_maximal_limit(m4):
    # limit sits at bottom: only the at-least check applies, and any
    # sequence of probability maps satisfies it
    bot = delta(m4, "bot")
    seq = [add(scale(half_half(m4), Dyadic(1, n)),
               scale(bot, ONE - Dyadic(1, n))) for n in (1, 2, 3)] + [bot]
    maps, limit_map = represent_sequence(seq, bot, 1)
    report = _sequence_report(maps, limit_map).convergence
    assert report.verdict
    for rec in report.records:
        assert not rec.maximal
        assert rec.geq_from is not None and rec.equal_from is None


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_convergence_check_matches_word_by_word_oracle(seed):
    rng = random.Random(seed)
    base = random_poset(rng, 8)
    limit = random_valuation(rng, base, rng.randint(1, 3), probability=True)
    if rng.random() < 0.5:
        seq = geometric_then_limit(base, limit, rng, rng.randint(1, 5))
    else:  # unrelated targets: usually not convergent
        seq = [random_valuation(rng, base, rng.randint(1, 3),
                                probability=True)
               for _ in range(rng.randint(0, 4))]
    maps = [represent(build_schedule(v, rng.randint(1, 3))) for v in seq]
    limit_map = represent(build_schedule(limit, rng.randint(1, 3)))
    # the settling runs, copied out to the grid words, against every map
    # evaluated at every word; the family need not pass the gate
    depth = max(m.final_depth for m in maps + [limit_map])
    report = _sequence_report(maps, limit_map)
    want = convergence_by_words(maps, limit_map, level(depth))
    assert report.convergence == want
    assert report.maximal_words == sum(r.maximal for r in want.records)
    assert report.equal_words == sum(r.maximal and r.equal_from is not None
                                     for r in want.records)
    # a family that passes the gate: skorohod_sequence's own records
    if not seq:
        return
    try:
        witnesses, limit_witness, got = skorohod_sequence(
            seq, limit, rng.randint(1, 3))
    except NotConvergent:
        return
    maps = [w.rmap for w in witnesses]
    depth = max(m.final_depth for m in maps + [limit_witness.rmap])
    assert got.convergence == convergence_by_words(maps, limit_witness.rmap,
                                                   level(depth))


def test_order_masks_refuse_a_foreign_value(m4):
    # the order is read off up-set masks, indexed by element; a value
    # outside the poset is refused by name, never by a bare KeyError, and a
    # map holding one is refused where it is made, one layer or several
    with pytest.raises(UnknownElement, match="'zz'"):
        RepresentationMap(m4, [StepMap(0, ends=[1], values=["zz"])])
    with pytest.raises(UnknownElement, match="'zz'"):
        RepresentationMap(m4, [StepMap(0, ends=[1], values=["bot"]),
                               StepMap(1, ends=[1, 2], values=["a", "zz"])])
    with pytest.raises(UnknownElement, match="'zz'"):
        StepMap(1, ends=[2], values=["zz"]).first_disagreement(
            StepMap(2, ends=[4], values=["top"]), m4)


def test_represent_subprobability_examples(m4):
    target = scale(delta(m4, "top"), HALF)
    rep = skorohod(target, 2)
    assert rep.law_on_grid() == target
    points = grid(rep.precision)
    defined = [r for r in points if rep.driver(r) != rep.fresh_bottom]
    assert len(defined) * 2 == len(points)

    full = skorohod(half_half(m4), 2)
    assert full.fresh_bottom is None and full.rmap.base is m4
    assert all(full.driver(r) != full.fresh_bottom
               for r in grid(full.precision))

    nothing = skorohod(SimpleValuation(m4, {}), 2)
    assert all(nothing.driver(r) == nothing.fresh_bottom
               for r in grid(nothing.precision))
    assert nothing.law_on_grid() == SimpleValuation(m4, {})


def test_subprobability_randomized():
    rng = random.Random(35)
    for _ in range(25):
        base = random_poset(rng)
        target = random_valuation(rng, base)
        rep = skorohod(target, rng.randint(1, 3))
        assert rep.law_on_grid() == target
        if target.is_probability():
            assert rep.fresh_bottom is None and rep.rmap.base is base
        else:
            assert rep.rmap.base.leq(rep.fresh_bottom, base.bottom)


def test_map_serialization_round_trip(m4):
    rng = random.Random(36)
    for _ in range(15):
        base = random_poset(rng)
        target = random_valuation(rng, base, probability=True)
        rmap = represent(build_schedule(target, 2))
        text = format_map(rmap)
        again = parse_map(text, base)
        assert format_map(again) == text
        assert [l.depth for l in again.layers] \
            == [l.depth for l in rmap.layers]


def test_parse_map_refuses_repeated_headers_and_words(m4):
    text = "layers 2\nlayer 0\nmap - bot\nlayer 1\nmap 0 a\nmap 1 top\n"
    assert format_map(parse_map(text, m4)) == text
    with pytest.raises(ParseError, match="^line 2: second layers header$"):
        parse_map(text.replace("layer 0\n", "layers 2\n", 1), m4)
    with pytest.raises(ParseError, match="^line 7: word '0' listed twice$"):
        parse_map(text + "map 0 top\n", m4)
    with pytest.raises(ParseError, match="^line 4: word '-' listed twice$"):
        parse_map(text.replace("layer 1\n", "map - bot\nlayer 1\n"), m4)


def test_parse_map_reads_counts_as_ascii_digits(m4):
    text = "layers 2\nlayer 0\nmap - bot\nlayer 1\nmap 0 a\nmap 1 top\n"
    for old, new, word in (("layers 2", "layers +1", "layers"),
                           ("layer 0", "layer +0", "layer"),
                           ("layers 2", "layers 0_1", "layers"),
                           ("layers 2", "layers \uff11", "layers")):
        line = 1 if word == "layers" else 2
        with pytest.raises(ParseError, match="^line %d: expected an integer "
                           "after '%s'$" % (line, word)):
            parse_map(text.replace(old, new, 1), m4)


def test_map_dot(m4):
    rmap = represent(build_schedule(delta(m4, "top"), 2))
    dot = rmap.to_dot()
    assert "digraph" in dot and '"L0_-"' in dot
