"""converge: the paper's theorem end to end through `skorohod_sequence`.

Each operation hands a sequence and its candidate limit, on a poset of
8..16 elements, to `pipeline.skorohod_sequence`. Convergent sequences
(1 - 2^-c) nu + 2^-c rho, c = 1, 2, ..., halve their distance to the limit
nu at every step and then reach it inside the window, so the Portmanteau
gate passes and every grid word settles. Escaping sequences run c
downward, doubling the distance, so the gate must refuse them with
`NotConvergent`. This is the only workload where upper-set enumeration,
the Portmanteau gate and the pointwise check over every grid word carry
the load.
"""

import random

from posetval import pipeline
from posetval.errors import NotConvergent

import gen
from common import (Inputs, Op, build_poset, build_valuation, clock,
                    law_counts, value_at)
from oracle import check_law, expect, settling, words

STEPS = 2
EXP = 3
HALVINGS = 3     # terms before the limit is reached: tree depth 3 + 3 + 2
# (count, poset size, converges). Cost grows with the poset through the
# upper-set enumeration, so the blocks are laid out for the median to
# fall inside the 12-element block and the 90th percentile inside the
# 16-element one; escaping sequences stop at the gate and cost least.
PLAN = [
    (10, 8, False), (10, 10, False),
    (10, 8, True), (10, 10, True), (20, 12, True), (20, 14, True),
    (20, 16, True),
]


def _op(spec, seq_f, limit_f, seq, limit, converges):
    def run():
        try:
            return pipeline.skorohod_sequence(seq, limit, STEPS)
        except NotConvergent:
            return None

    def check(out):
        if not converges:
            expect(out is None, "escaping sequence passed the gate")
            return None
        expect(out is not None, "convergent sequence was refused")
        witnesses, limit_witness, report = out
        for target, w in zip(seq_f + [limit_f], witnesses + [limit_witness]):
            check_law(target, law_counts(w), w.precision)
        depth = max(w.precision for w in witnesses + [limit_witness])
        grid = words(depth)
        records = report.convergence.records
        expect([r.word.bits for r in records] == grid,
               "report does not list the %d grid words in order", len(grid))
        maximal = equal = 0
        for r, word in zip(records, grid):
            lv = value_at(limit_witness.rmap, word)
            values = [value_at(w.rmap, word) for w in witnesses]
            want = (lv,) + settling(spec.order, lv, values)
            got = (r.limit_value, r.maximal, r.geq_from, r.equal_from, r.ok)
            expect(got == want, "word %s: report %s, expected %s",
                   word, got, want)
            maximal += r.maximal
            equal += r.maximal and r.equal_from is not None
            expect(r.ok, "word %s does not settle", word)
        expect((report.maximal_words, report.equal_words) == (maximal, equal),
               "word counts %d/%d, expected %d/%d", report.maximal_words,
               report.equal_words, maximal, equal)
        expect(report.verdict and report.almost_sure,
               "convergent sequence reported as failing")
        return fingerprint(out)

    def fingerprint(out):
        if out is None:
            return None
        _, _, report = out
        return hash(tuple((r.word.bits, r.limit_value, r.geq_from,
                           r.equal_from) for r in report.convergence.records))

    return Op("convergent" if converges else "escaping", run, check,
              fingerprint)


def setup(seed, workdir):
    rng = random.Random(seed)
    specs = {n: gen.random_poset(n, "s%d_" % n, window=4)
             for n in sorted({n for _, n, _ in PLAN})}
    plan = []
    for count, n, converges in PLAN:
        spec = specs[n]
        for i in range(count):
            sizes = (2 + i % 3, 2 + (i + 1) % 3)
            support = gen.pick_support(rng, spec, sum(sizes))
            # disjoint supports and an odd weight in each keep every
            # term's exponent at EXP + c, so the depth is the same for
            # every seed
            nu = gen.random_probability(rng, support[:sizes[0]], EXP)
            rho = gen.random_probability(rng, support[sizes[0]:], EXP)
            if converges:
                seq = [gen.blend(nu, rho, c) for c in range(1, HALVINGS + 1)]
                seq += [dict(nu)] * (1 + i % 2)
            else:
                seq = [gen.blend(nu, rho, c) for c in range(2 + i % 2, 0, -1)]
            plan.append((spec, seq, nu, converges))
    rng.shuffle(plan)

    t0 = clock()
    posets = {id(s): build_poset(s) for s in specs.values()}
    built = []
    for spec, seq, nu, converges in plan:
        base = posets[id(spec)]
        built.append((spec, seq, nu, [build_valuation(base, v) for v in seq],
                      build_valuation(base, nu), converges))
    program_s = clock() - t0
    return Inputs([_op(*b) for b in built], program_s)
