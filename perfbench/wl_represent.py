"""represent: build Skorohod samplers, then draw from them.

Targets are probability valuations on posets of 4..12 elements with weights
k/2^E, E in 8..11, and schedules of K = 2..4 steps. The final tree depth is
E + K, 10..13, and the lift tables hold 2^depth words, so those tables
dominate and the flows are tiny. Each operation then draws DRAWS values
through `skorohod.sample`; the draws are timed apart as well.
"""

import random

from posetval import pipeline

import gen
from common import (Inputs, Op, build_poset, build_valuation, clock,
                    law_counts, skorohod, value_at)
from oracle import check_law, expect

POSET_SIZES = list(range(4, 13))
# (E, K) pairs for each final depth E + K
DEPTHS = {
    10: [(8, 2)],
    11: [(8, 3), (9, 2)],
    12: [(8, 4), (9, 3), (10, 2)],
    13: [(9, 4), (10, 3), (11, 2)],
}
# operations per depth: the median falls inside the depth-11 block and
# the 90th percentile in the middle of the depth-13 one
PER_DEPTH = {10: 25, 11: 35, 12: 20, 13: 20}
DRAWS = 64


def _op(target_f, target, steps, bits, depth, counters):
    def run():
        witness = pipeline.skorohod(target, steps)
        source = iter(bits)
        t0 = clock()
        drawn = [skorohod.sample(witness.rmap, source) for _ in range(DRAWS)]
        counters["draw_s"] += clock() - t0
        counters["draws"] += DRAWS
        return witness, drawn

    def check(out):
        witness, drawn = out
        d = witness.precision
        expect(d == depth, "sampler depth %d, expected %d", d, depth)
        check_law(target_f, law_counts(witness), d)
        text = "".join(str(b) for b in bits)
        for i, x in enumerate(drawn):
            want = value_at(witness.rmap, text[i * d:(i + 1) * d])
            expect(want == x, "draw %d is %s, the map says %s", i, x, want)
        return fingerprint(out)

    def fingerprint(out):
        witness, drawn = out
        return witness.precision, tuple(drawn)

    return Op("depth%d" % depth, run, check, fingerprint)


def setup(seed, workdir):
    rng = random.Random(seed)
    specs = [gen.random_poset(n, "r%d_" % n, window=3)
             for n in POSET_SIZES]
    plan = []
    for depth, pairs in DEPTHS.items():
        for i in range(PER_DEPTH[depth]):
            exp, steps = pairs[i % len(pairs)]
            spec = specs[(i * 5 + depth) % len(specs)]
            size = 2 + i % (len(spec.names) - 1)
            target = gen.random_probability(
                rng, gen.pick_support(rng, spec, size), exp)
            bits = [rng.randrange(2) for _ in range(DRAWS * depth)]
            plan.append((spec, target, steps, bits, depth))
    rng.shuffle(plan)

    t0 = clock()
    posets = {id(s): build_poset(s) for s in specs}
    built = [(target, build_valuation(posets[id(spec)], target), steps, bits,
              depth) for spec, target, steps, bits, depth in plan]
    program_s = clock() - t0

    counters = {"draws": 0, "draw_s": 0.0}
    return Inputs([_op(*b, counters) for b in built], program_s, counters)
