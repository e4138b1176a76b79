"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every check here is exact (dyadic equality) except the sampling
statistic, whose tolerance is the stated total-variation bound.
"""

import io
import random
import sys
import time

import pytest

from posetval import (Dyadic, ONE, SimpleValuation, StepMap, ZERO, add,
                      build_schedule, cdf, delta, leq, lift_step,
                      lower_adjoint, portmanteau_check, pushforward_lebesgue,
                      represent, sample, scale, skorohod, skorohod_sequence,
                      transport_plan, way_below)
from posetval.cli import main as cli_main

from conftest import make_chain, normalize, random_poset, random_valuation
from oracles import (leq_oracle, level, pushforward_counting, quantile_leq,
                     strict_transport_exists)
from test_chain import random_quantile

PASS = "ACCEPTANCE %-2d PASS - %s"


@pytest.fixture(scope="module")
def corpus():
    """Shared corpus for criteria 1-3: posets <= 6 elements, pairs at 2^-4."""
    rng = random.Random(1001)
    out = []
    for _ in range(200):
        base = random_poset(rng, max_elements=6)
        pairs = [(random_valuation(rng, base, exp=4),
                  random_valuation(rng, base, exp=4)) for _ in range(10)]
        out.append((base, pairs))
    return out


def test_criterion_1_order_oracle_equivalence(corpus):
    started = time.monotonic()
    checked = 0
    for base, pairs in corpus:
        for mu, nu in pairs:
            assert leq(mu, nu) == leq_oracle(mu, nu)
            checked += 1
    elapsed = time.monotonic() - started
    assert checked >= 2000
    assert elapsed < 60
    print(PASS % (1, "order oracle equivalence on %d pairs in %.1fs"
                  % (checked, elapsed)))


def test_criterion_2_transport_witness_validity(corpus):
    positives = 0
    for base, pairs in corpus:
        for mu, nu in pairs:
            if not leq(mu, nu):
                continue
            positives += 1
            plan = transport_plan(mu, nu)
            bound = max(mu.max_exponent(), nu.max_exponent())
            rows = {x: Dyadic(0, 0) for x in mu.support}
            cols = {y: Dyadic(0, 0) for y in nu.support}
            for (x, y), t in plan.entries.items():
                assert base.leq(x, y) and not t.is_zero()
                assert t.exp <= bound
                rows[x] = rows[x] + t
                cols[y] = cols[y] + t
            for x in mu.support:
                assert rows[x] == mu.weights.get(x, ZERO)
            for y in nu.support:
                assert cols[y] <= nu.weights.get(y, ZERO)
    assert positives > 100
    print(PASS % (2, "transport plans valid on %d positive instances"
                  % positives))


def test_criterion_3_way_below_consistency(corpus):
    rng = random.Random(1002)
    strict_agreements = implications = hits = 0
    for base, pairs in corpus:
        for mu, nu in pairs:
            if way_below(mu, nu):
                assert leq(mu, nu)
                implications += 1
            pmu, pnu = normalize(mu), normalize(nu)
            if way_below(pmu, pnu, normalized=True):
                assert leq(pmu, pnu)
            assert way_below(pmu, pnu, normalized=True) \
                == strict_transport_exists(pmu, pnu)
            strict_agreements += 1
    for base, pairs in rng.sample(corpus, 60):
        (mu, nu), (rho, _) = rng.sample(pairs, 2)
        if way_below(mu, nu) and leq(nu, rho):
            hits += 1
            assert way_below(mu, rho)
        pmu, pnu, prho = normalize(mu), normalize(nu), normalize(rho)
        if way_below(pmu, pnu, normalized=True) and leq(pnu, prho):
            hits += 1
            assert way_below(pmu, prho, normalized=True)
    assert strict_agreements >= 2000 and hits > 0
    print(PASS % (3, "way-below consistent (%d strict-search agreements, "
                  "%d interpolation triples)" % (strict_agreements, hits)))


def test_criterion_4_lift_step_exactness():
    rng = random.Random(1003)
    for _ in range(500):
        base = random_poset(rng, max_elements=6)
        depth = rng.randint(0, 3)
        table = {w.bits: rng.choice(base.elements) for w in level(depth)}
        law = pushforward_counting(table, depth, base)
        target = {}
        for x, w in law.weights.items():
            ups = [y for y in base.elements if base.leq(x, y)]
            for _ in range(w.rescale(4)):
                y = rng.choice(ups)
                target[y] = target.get(y, Dyadic(0, 0)) + Dyadic(1, 4)
        mu_prime = SimpleValuation(base, target)
        lifted = lift_step(StepMap(depth, table), mu_prime)
        assert lifted.depth > depth
        assert pushforward_counting(dict(lifted.items()), lifted.depth,
                                    base) == mu_prime
        for bits, y in lifted.items():
            assert base.leq(table[bits[:depth]], y)
    print(PASS % (4, "lift step exact on 500 instances"))


def test_criterion_5_representation_exactness():
    rng = random.Random(1004)
    for _ in range(100):
        base = random_poset(rng, max_elements=6)
        target = random_valuation(rng, base, exp=3, probability=True)
        steps = rng.randint(1, 4)
        sched = build_schedule(target, steps)
        rmap = represent(sched)
        for layer, stage in zip(rmap.layers, sched):
            assert pushforward_counting(dict(layer.items()), layer.depth,
                                        base) == stage
        counts = {}
        for w in level(rmap.final_depth):
            v = rmap.evaluate(w)[1]
            counts[v] = counts.get(v, 0) + 1
        assert SimpleValuation(base, {x: Dyadic(c, rmap.final_depth)
                                      for x, c in counts.items()}) == target
    print(PASS % (5, "representation exact on 100 targets"))


def _attaining_family(base, limit, rng, length=4):
    """Weakly convergent family that reaches its limit inside the window."""
    carrier = delta(base, rng.choice(base.elements))
    seq = [add(scale(limit, ONE - Dyadic(1, n)), scale(carrier, Dyadic(1, n)))
           for n in range(1, length)]
    seq.append(limit)
    return seq


def test_criterion_6_convergence_dichotomy():
    rng = random.Random(1005)
    words_checked = 0
    for _ in range(20):
        base = random_poset(rng, max_elements=5)
        limit = random_valuation(rng, base, exp=2, probability=True)
        seq = _attaining_family(base, limit, rng)
        _, _, report = skorohod_sequence(seq, limit, 2)
        for rec in report.convergence.records:
            words_checked += 1
            assert rec.geq_from is not None or rec.maximal
            if rec.maximal:
                assert rec.equal_from is not None
                assert 0 <= rec.equal_from < len(seq)
            else:
                assert rec.geq_from is not None
    print(PASS % (6, "convergence dichotomy on 20 families (%d words)"
                  % words_checked))


def test_criterion_7_skorohod_law_exactness():
    rng = random.Random(1006)
    for i in range(50):
        base = random_poset(rng, max_elements=6)
        steps = rng.randint(1, 3)
        target = random_valuation(rng, base, exp=3, probability=i % 2 == 0)
        assert skorohod(target, steps).law_on_grid() == target
    print(PASS % (7, "grid tabulation exact on 50 witnesses"))


def test_criterion_8_chain_round_trip():
    rng = random.Random(1007)
    for _ in range(500):
        chain = make_chain(rng.randint(1, 8))
        v = random_valuation(rng, chain, probability=True)
        assert pushforward_lebesgue(lower_adjoint(cdf(v))) == v
    for _ in range(40):
        chain = make_chain(rng.randint(1, 8))
        v = random_valuation(rng, chain, probability=True)
        f = cdf(v)
        g = lower_adjoint(f)
        for i in range(0, 65):
            r = Dyadic(i, 6)
            for x in chain.elements:
                assert chain.leq(g(r), x) == (r <= f(x))
    for _ in range(500):
        chain = make_chain(rng.randint(1, 6))
        g1, g2 = random_quantile(rng, chain), random_quantile(rng, chain)
        assert quantile_leq(g1, g2) \
            == leq(pushforward_lebesgue(g1), pushforward_lebesgue(g2))
    print(PASS % (8, "chain round trip, adjunction grid, order isomorphism"))


def test_criterion_9_portmanteau_self_consistency():
    rng = random.Random(1008)
    passed = failed = 0
    while passed < 50 or failed < 50:
        base = random_poset(rng, max_elements=5)
        limit = random_valuation(rng, base, exp=2, probability=True)
        if passed < 50:
            seq = _attaining_family(base, limit, rng)
            report = portmanteau_check(seq, limit, 0)
            assert report.verdict, "convergent family rejected"
            passed += 1
        if failed < 50:
            z = rng.choice(base.elements)
            if delta(base, z) != limit:
                escaping = [add(scale(limit, Dyadic(3, 2)),
                                scale(delta(base, z), Dyadic(1, 2)))] * 4
                report = portmanteau_check(escaping, limit, 0)
                assert not report.verdict, "escaping family accepted"
                assert report.witness is not None
                failed += 1
    print(PASS % (9, "portmanteau verdicts on 50 + 50 families"))


def test_criterion_10_sampling_statistics(m4):
    target = SimpleValuation(m4, {"a": Dyadic(1, 1), "b": Dyadic(1, 1)})
    witness = skorohod(target, 1)
    rng = random.Random(0)
    bits = iter(lambda: rng.randrange(2), None)
    draws = 10_000
    counts = {}
    for _ in range(draws):
        x = sample(witness.rmap, bits)
        counts[x] = counts.get(x, 0) + 1
    want = {x: target.weights.get(x, ZERO) for x in m4.elements}
    tv = sum(abs(counts.get(x, 0) / draws - w.num / (1 << w.exp))
             for x, w in want.items()) / 2
    assert witness.law_on_grid() == target  # the authoritative exact check
    assert tv <= 0.03
    print(PASS % (10, "empirical TV distance %.4f <= 0.03 on %d draws"
                  % (tv, draws)))


def _run_cli(argv):
    buf = io.StringIO()
    real = sys.stdout
    sys.stdout = buf
    try:
        code = cli_main(argv)
    finally:
        sys.stdout = real
    return code, buf.getvalue()


def test_criterion_11_determinism(tmp_path):
    poset_file = tmp_path / "m4.poset"
    poset_file.write_text(
        "element bot\nelement a\nelement b\nelement top\nbottom bot\n"
        "cover bot a\ncover bot b\ncover a top\ncover b top\n")
    c3_file = tmp_path / "c3.poset"
    c3_file.write_text("element c0\nelement c1\nelement c2\nbottom c0\n"
                       "cover c0 c1\ncover c1 c2\n")
    mu = tmp_path / "mu.val"
    mu.write_text("a 1/2^1\nb 1/2^1\n")
    top = tmp_path / "top.val"
    top.write_text("top 1\n")
    stage = tmp_path / "stage.val"
    stage.write_text("bot 1/2^1\ntop 1/2^1\n")
    v3 = tmp_path / "v3.val"
    v3.write_text("c0 1/2^2\nc1 1/2^2\nc2 1/2^1\n")

    battery = [
        ["order", "--poset", str(poset_file), "--mu", str(mu),
         "--nu", str(top)],
        ["transport", "--poset", str(poset_file), "--mu", str(mu),
         "--nu", str(top)],
        ["classify", "--poset", str(poset_file)],
        ["schedule", "--poset", str(poset_file), "--mu", str(top),
         "--K", "3"],
        ["represent", "--poset", str(poset_file), "--mu", str(top),
         "--K", "2"],
        ["sample", "--poset", str(poset_file), "--mu", str(mu), "--K", "1",
         "--seed", "5", "--count", "64"],
        ["skorohod", "--poset", str(poset_file), "--mu", str(mu),
         "--K", "2"],
        ["cdf", "--poset", str(c3_file), "--mu", str(v3)],
        ["quantile", "--poset", str(c3_file), "--mu", str(v3)],
        ["portmanteau", "--poset", str(poset_file),
         "--seq", "%s,%s" % (stage, top), "--nu", str(top)],
        ["converge", "--poset", str(poset_file),
         "--seq", "%s,%s" % (stage, top), "--nu", str(top), "--K", "2"],
        ["waybelow", "--poset", str(poset_file), "--mu", str(stage),
         "--nu", str(top), "--normalized"],
    ]
    qfile = tmp_path / "q.break"
    code, _ = _run_cli(["quantile", "--poset", str(c3_file), "--mu", str(v3),
                        "--out", str(qfile)])
    assert code == 0
    battery.append(["pushforward-lebesgue", "--poset", str(c3_file),
                    "--quantile", str(qfile)])
    for argv in battery:
        out_a = tmp_path / "a.out"
        out_b = tmp_path / "b.out"
        code_a, stdout_a = _run_cli(argv + ["--out", str(out_a)]
                                    if argv[0] != "classify" else argv)
        code_b, stdout_b = _run_cli(argv + ["--out", str(out_b)]
                                    if argv[0] != "classify" else argv)
        assert code_a == code_b
        assert stdout_a == stdout_b
        if argv[0] != "classify":
            assert out_a.read_bytes() == out_b.read_bytes()
    print(PASS % (11, "byte-identical reruns across %d commands"
                  % len(battery)))
