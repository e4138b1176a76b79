import copy
import pickle
import random
import time
import tracemalloc
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from posetval import (Dyadic, ONE, Poset, SimpleValuation, Word, add, delta,
                      portmanteau_check, sample,
                      scale, skorohod, skorohod_sequence, unit_to_word)
from posetval.errors import NotConvergent, OutOfRange, TooLarge
from posetval.pipeline import _sequence_report, _settling, represent_sequence
from posetval.valuation import portmanteau_witness

from conftest import grid, make_chain, random_poset, random_valuation
from oracles import convergence_by_words, law_by_grid_tabulation

HALF = Dyadic(1, 1)


def half_half(m4):
    return SimpleValuation(m4, {"a": HALF, "b": HALF})


def test_point_mass_witness(m4):
    w = skorohod(delta(m4, "top"), 2)
    assert all(w.driver(r) == "top" for r in grid(w.precision))
    assert w.law_on_grid() == delta(m4, "top")


def test_half_half_witness(m4):
    w = skorohod(half_half(m4), 1)
    values = [w.driver(r) for r in grid(w.precision)]
    assert sorted(values) == ["a", "b"]
    assert w.law_on_grid() == half_half(m4)


def test_probability_precondition(m4):
    # below mass 1 the target's poset is lifted under a fresh bottom, which
    # takes the missing mass; the defined grid points carry the target
    target = SimpleValuation(m4, {"a": Dyadic(1, 2), "top": Dyadic(1, 1)})
    w = skorohod(target, 2)
    assert w.fresh_bottom not in m4.index
    assert w.rmap.base.bottom == w.fresh_bottom
    assert w.rmap.base.leq(w.fresh_bottom, m4.bottom)
    assert w.law_on_grid() == target
    defined = sum(w.driver(r) != w.fresh_bottom for r in grid(w.precision))
    assert defined == target.mass.rescale(w.precision) \
        == 3 << (w.precision - 2)


def test_exact_law_randomized():
    rng = random.Random(41)
    for _ in range(40):
        base = random_poset(rng)
        target = random_valuation(rng, base, probability=True)
        w = skorohod(target, rng.randint(1, 3))
        assert w.law_on_grid() == target


def test_grid_bijects_with_words(m4):
    w = skorohod(half_half(m4), 2)
    d = w.precision
    words = [unit_to_word(r, d).bits for r in grid(d)]
    assert sorted(words) == sorted(format(i, "0%db" % d)
                                   for i in range(1 << d))


def test_unit_map_lex_monotone(m4):
    # the word-level map respects the lexicographic order even though the
    # composed driver need not be monotone into the poset
    w = skorohod(half_half(m4), 2)
    words = [unit_to_word(r, w.precision).bits for r in grid(w.precision)]
    assert words == sorted(words)


def test_subprobability_witness(m4):
    target = scale(delta(m4, "top"), HALF)
    w = skorohod(target, 2)
    points = grid(w.precision)
    defined = [r for r in points if w.driver(r) != w.fresh_bottom]
    assert len(defined) * 2 == len(points)
    assert all(w.driver(r) == "top" for r in defined)
    assert w.law_on_grid() == target

    full = skorohod(half_half(m4), 2)
    assert full.fresh_bottom is None and full.rmap.base is m4
    assert all(full.driver(r) != full.fresh_bottom
               for r in grid(full.precision))
    assert full.law_on_grid() == half_half(m4)

    nothing = skorohod(SimpleValuation(m4, {}), 2)
    assert all(nothing.driver(r) == nothing.fresh_bottom
               for r in grid(nothing.precision))


def test_driver_rejects_points_outside_the_unit_interval(m4):
    for w in (skorohod(half_half(m4), 2),
              skorohod(scale(delta(m4, "top"), HALF), 2)):
        assert w.driver(ONE) in ("a", "b", "top")
        with pytest.raises(OutOfRange):
            w.driver(Dyadic(3, 1))


def test_bottom_target_witness(m4):
    w = skorohod(delta(m4, "bot"), 1)
    assert w.law_on_grid() == delta(m4, "bot")
    assert all(w.driver(r) == "bot" for r in grid(w.precision))


def test_single_element_poset_subprobability():
    from posetval import Poset
    single = Poset(["x"], [], "x")
    zero = SimpleValuation(single, {})
    w = skorohod(zero, 1)
    assert all(w.driver(r) == w.fresh_bottom for r in grid(w.precision))
    assert w.law_on_grid() == zero


def test_subprobability_randomized():
    rng = random.Random(42)
    for _ in range(30):
        base = random_poset(rng)
        target = random_valuation(rng, base)
        w = skorohod(target, rng.randint(1, 3))
        assert w.law_on_grid() == target


def attaining_family(base, limit, length=4):
    bot = delta(base, base.bottom)
    seq = [add(scale(limit, ONE - Dyadic(1, n)), scale(bot, Dyadic(1, n)))
           for n in range(1, length)]
    seq.append(limit)
    return seq


def test_sequence_pipeline(m4):
    top = delta(m4, "top")
    seq = attaining_family(m4, top)
    witnesses, limit_witness, report = skorohod_sequence(seq, top, 2)
    assert len(witnesses) == len(seq)
    assert report.verdict
    assert report.almost_sure
    assert report.maximal_words == report.equal_words > 0
    for target, w in zip(seq, witnesses):
        assert w.law_on_grid() == target
    assert limit_witness.law_on_grid() == top


def test_sequence_pipeline_constant(m4):
    v = half_half(m4)
    witnesses, limit_witness, report = skorohod_sequence([v, v, v], v, 1)
    assert report.verdict
    for rec in report.convergence.records:
        if rec.maximal:
            assert rec.equal_from == 0
        else:
            assert rec.geq_from == 0


def test_sequence_pipeline_rejects_divergence(m4):
    with pytest.raises(NotConvergent):
        skorohod_sequence([delta(m4, "a")] * 3, delta(m4, "top"), 2)


def test_depth_16_sampler_is_fast():
    # weights k/2^14 and two schedule steps give a depth-16 map whose
    # layers hold a handful of runs; building it and drawing 1000 values
    # must not tabulate the 2^16 words
    chain = make_chain(4)
    target = SimpleValuation(chain, {"c0": Dyadic(1, 14), "c1": Dyadic(3, 14),
                                     "c2": Dyadic(5, 14),
                                     "c3": Dyadic((1 << 14) - 9, 14)})
    rng = random.Random(41)
    bits = "".join(rng.choice("01") for _ in range(1000 * 16))
    t0 = time.perf_counter()
    w = skorohod(target, 2)
    source = (b == "1" for b in bits)
    draws = [sample(w.rmap, source) for _ in range(1000)]
    elapsed = time.perf_counter() - t0
    assert w.precision == 16
    assert [len(layer.ends) for layer in w.rmap.layers] == [1, 4, 4]
    assert w.rmap.law() == target
    for i, x in enumerate(draws):
        chain_values, value = w.rmap.evaluate(Word(bits[16 * i:16 * i + 16]))
        assert value == x
        assert all(chain.leq(lo, hi)
                   for lo, hi in zip(chain_values, chain_values[1:]))
    assert elapsed < 1.0


def test_sequence_on_16_elements_is_fast():
    # three 5-element legs over a bottom (217 upper sets) and targets at
    # 2^-6 give 8192 grid words; the 2^16-mask upper-set scan and a map
    # evaluation per word took about 0.3 s here
    names = ["bot"] + ["l%d_%d" % (a, k) for a in range(3) for k in range(5)]
    covers = [("bot" if k == 0 else "l%d_%d" % (a, k - 1), "l%d_%d" % (a, k))
              for a in range(3) for k in range(5)]
    base = Poset(names, covers, "bot")
    limit = SimpleValuation(base, {"l0_4": Dyadic(21, 6),
                                   "l1_2": Dyadic(27, 6),
                                   "l2_1": Dyadic(13, 6), "bot": Dyadic(3, 6)})
    rho = SimpleValuation(base, {"l0_1": HALF, "l2_0": HALF})
    seq = [add(scale(limit, ONE - Dyadic(1, c)), scale(rho, Dyadic(1, c)))
           for c in range(1, 5)] + [limit]
    t0 = time.perf_counter()
    witnesses, limit_witness, report = skorohod_sequence(seq, limit, 3)
    elapsed = time.perf_counter() - t0
    depth = max(w.precision for w in witnesses + [limit_witness])
    words = [unit_to_word(Dyadic(i, depth), depth)
             for i in range(1, (1 << depth) + 1)]
    records = report.convergence.records
    assert len(records) == 8192
    assert [r.word for r in records] == words
    assert all(r.word.truncated for r in records)
    assert report.convergence == convergence_by_words(
        [w.rmap for w in witnesses], limit_witness.rmap, words)
    assert report.verdict and report.almost_sure
    assert report.maximal_words == 2688
    assert elapsed < 0.2


def grid_words(depth):
    return [unit_to_word(Dyadic(i, depth), depth)
            for i in range(1, (1 << depth) + 1)]


def blends(limit, rho, halvings, tail):
    """(1 - 2^-c) limit + 2^-c rho for c = 1..halvings, then the limit
    `tail` times."""
    return [add(scale(limit, ONE - Dyadic(1, c)), scale(rho, Dyadic(1, c)))
            for c in range(1, halvings + 1)] + [limit] * tail


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_gate_agrees_with_portmanteau_check(rng):
    # the gate reads the Portmanteau rows for their first failure alone;
    # convergent blends halve their distance to the limit and escaping ones
    # double it, and the tail may start anywhere, so both verdicts occur
    base = random_poset(rng, max_elements=10,
                        density=rng.choice([0.1, 0.3, 0.5]))
    limit = random_valuation(rng, base, exp=rng.randint(0, 3),
                             probability=True)
    rho = random_valuation(rng, base, exp=rng.randint(0, 3),
                           probability=True)
    halvings = rng.randint(1, 4)
    if rng.random() < 0.5:
        seq = blends(limit, rho, halvings, rng.randint(0, 2))
    else:
        seq = blends(limit, rho, halvings, 0)[::-1]
    from_index = rng.randrange(len(seq))
    report = portmanteau_check(seq, limit, from_index)
    witness = portmanteau_witness(seq, limit, from_index)
    assert (witness is None) == report.verdict
    assert witness == report.witness
    if witness is None:
        represent_sequence(seq, limit, 1, from_index)
        return
    with pytest.raises(NotConvergent) as refused:
        represent_sequence(seq, limit, 1, from_index)
    assert str(refused.value) == ("sequence fails weak convergence at %s"
                                  % report.witness)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_sequence_report_matches_word_by_word_oracle(rng):
    # the report is decided on runs; the oracle evaluates every map at
    # every grid word. A family that stops short of its limit may pass
    # the gate and still fail to settle, so both verdicts occur
    base = random_poset(rng, max_elements=8)
    limit = random_valuation(rng, base, exp=rng.randint(0, 3),
                             probability=True)
    rho = random_valuation(rng, base, exp=rng.randint(0, 3),
                           probability=True)
    tail = rng.randint(0, 2)
    seq = blends(limit, rho, rng.randint(0 if tail else 1, 4), tail)
    try:
        witnesses, limit_witness, report = skorohod_sequence(
            seq, limit, rng.randint(1, 3))
    except NotConvergent:
        assume(False)
    depth = max(w.precision for w in witnesses + [limit_witness])
    want = convergence_by_words([w.rmap for w in witnesses],
                                limit_witness.rmap, grid_words(depth))
    maximal = [r for r in want.records if r.maximal]
    assert report.verdict == want.verdict
    assert report.maximal_words == len(maximal)
    assert report.equal_words == sum(r.equal_from is not None
                                     for r in maximal)
    records = report.convergence.records
    assert records == want.records
    assert [(r.word.bits, r.word.truncated) for r in records] \
        == [(w.bits, True) for w in grid_words(depth)]
    assert report.convergence == want


def test_sequence_report_copies_and_pickles(m4):
    top = delta(m4, "top")
    seq = attaining_family(m4, top)
    _, _, report = skorohod_sequence(seq, top, 2)
    conv = report.convergence
    again = pickle.loads(pickle.dumps(conv))
    assert again == conv and again.verdict == conv.verdict
    # an edit to a record of a deep copy is seen by the copy alone
    bad = copy.deepcopy(conv)
    assert bad == conv
    bad.records[0].equal_from = (bad.records[0].equal_from or 0) + 1
    assert bad.records[0].equal_from != conv.records[0].equal_from
    assert bad != conv


def depth_16_family():
    """Weights at 2^-12 and blends c = 1, 2 give terms at 2^-14, so K = 2
    reaches depth 16: 65536 grid words, but only a handful of runs."""
    chain = make_chain(4)
    limit = SimpleValuation(chain, {"c0": Dyadic(1, 12), "c1": Dyadic(3, 12),
                                    "c2": Dyadic(5, 12),
                                    "c3": Dyadic((1 << 12) - 9, 12)})
    rho = SimpleValuation(chain, {"c0": HALF, "c2": HALF})
    return blends(limit, rho, 2, 1), limit


def test_depth_16_sequence_settles_on_runs():
    # the family is settled on its runs without a record per word
    seq, limit = depth_16_family()
    maps, limit_map = represent_sequence(seq, limit, 2)
    tracemalloc.start()
    try:
        runs = _settling(maps, limit_map)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert runs.depth == 16 and len(runs.ends) < 64
    assert peak < 1 << 20
    _, _, report = skorohod_sequence(seq, limit, 2)
    assert report.verdict and report.almost_sure
    records = report.convergence.records
    assert len(records) == 1 << 16
    assert [r.word.bits for r in records[:3]] \
        == ["0" * 16, "0" * 15 + "1", "0" * 14 + "10"]
    assert report.maximal_words == sum(r.maximal for r in records) > 0


def test_reports_at_alternating_depths_list_each_level_words(m4):
    # the level's words are kept for the last depth asked alone, so going
    # from one depth to another and back again replaces them twice
    top = delta(m4, "top")
    seq = attaining_family(m4, top)
    built = {steps: represent_sequence(seq, top, steps) for steps in (1, 3)}
    depths = []
    for steps in (1, 3, 1, 3):
        report = _sequence_report(*built[steps])
        records = report.convergence.records
        d = len(records).bit_length() - 1
        depths.append(d)
        assert len(records) == 1 << d
        assert [r.word for r in records] \
            == [Word(format(i, "0%db" % d), True) for i in range(1 << d)]
        assert all(r.word.truncated for r in records)
    assert depths[0] == depths[2] != depths[1] == depths[3]


def test_reports_at_one_depth_share_words_not_records(m4):
    top = delta(m4, "top")
    maps, limit_map = represent_sequence(attaining_family(m4, top), top, 2)
    first = _sequence_report(maps, limit_map).convergence
    second = _sequence_report(maps, limit_map).convergence
    assert first == second
    assert all(a.word is b.word and a is not b
               for a, b in zip(first.records, second.records))
    kept = copy.deepcopy(first)
    rec = second.records[0]
    rec.equal_from = (rec.equal_from or 0) + 1
    rec.geq_from = (rec.geq_from or 0) + 1
    assert first == kept != second
    with pytest.raises(FrozenInstanceError):
        rec.word.bits = "1" * len(rec.word)
    assert first.records[0].word.bits == "0" * len(rec.word)


def test_a_second_depth_16_report_holds_little_per_record():
    # the words of the level are made with the first report; the second
    # adds a slotted record per word and the list that holds them
    seq, limit = depth_16_family()
    maps, limit_map = represent_sequence(seq, limit, 2)
    first = _sequence_report(maps, limit_map)
    tracemalloc.start()
    try:
        second = _sequence_report(maps, limit_map)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    records = second.convergence.records
    assert len(records) == 1 << 16
    assert records == first.convergence.records
    assert peak < 128 * len(records)


@settings(max_examples=120, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_law_on_grid_matches_grid_tabulation(rng, probability):
    # the law is read off the final layer's runs; the oracle calls the
    # driver at every grid point
    base = random_poset(rng, max_elements=8)
    target = random_valuation(rng, base, exp=rng.randint(0, 6),
                              probability=probability)
    steps = rng.randint(1, 5)
    w = skorohod(target, steps)
    assert w.precision <= 12
    assert w.law_on_grid() == law_by_grid_tabulation(w) == target


def test_unrepresentable_step_counts_are_refused_at_once(m4):
    # every lift deepens the map by a level, so 100000 steps never fit
    # under the depth bound, and the schedule is not built
    target = half_half(m4)
    calls = [lambda: skorohod(target, 100000),
             lambda: skorohod(scale(target, HALF), 100000),
             lambda: represent_sequence([target], target, 100000),
             lambda: skorohod_sequence([target], target, 100000)]
    for call in calls:
        t0 = time.perf_counter()
        with pytest.raises(TooLarge, match="exceeds the bound"):
            call()
        assert time.perf_counter() - t0 < 1.0
    # a sequence that fails the convergence gate still says so first
    with pytest.raises(NotConvergent):
        represent_sequence([delta(m4, "a")], delta(m4, "b"), 100000)
