"""cli: `posetval.cli.main(argv)` in process over generated files.

Set-up builds posets and valuations through the library's constructors,
renders them with its formatters and writes the files. Each operation is
one `main(argv)` call with stdout and stderr captured; the round walks the
README commands on every small poset in a fixed order, then `cdf`,
`quantile` and `pushforward-lebesgue` on chains of 30..100 elements. The
calls run in process so that interpreter start-up does not drown the
program's own time. This is the only workload that exercises the parsers,
the formatters, argument handling and `chain`.
"""

import contextlib
import io
import os
import random

from posetval import cli, format_poset, format_valuation

import gen
from common import Inputs, Op, build_poset, build_valuation, clock
from oracle import (check_law, check_plan, check_witness, classify,
                    dyadic_text, expect, mass_on, parse_dyadic_text,
                    portmanteau_lines, schedule_stage, words)

SMALL_SIZES = gen.spread(6, 11, 8)
# chain commands cost about n^4 (the chain test classifies the poset), so
# they are the costliest; six equal chains put the 90th percentile in the
# middle of their 18 commands, and one short and one long chain keep the
# range
CHAIN_SIZES = [30] + [64] * 6 + [96]
SAMPLE_COUNT = 32


def _run_main(argv, counters):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    counters["stdout_bytes"] += len(text.encode())
    return code, text, err.getvalue()


def _lines(text):
    return text.splitlines()


def _val_lines(order, val):
    """`format_valuation` output, in declaration order."""
    return ["%s %s" % (x, dyadic_text(val[x]))
            for x in order.names if val.get(x)]


def _parse_plan(lines):
    entries = {}
    for line in lines:
        tag, x, y, w = line.split()
        expect(tag == "t", "not a plan line: %r", line)
        entries[x, y] = parse_dyadic_text(w)
    return entries


class Group:
    """Files and independent facts for one small poset."""

    def __init__(self, rng, spec, k):
        self.spec = spec
        self.k = 2
        self.rho = gen.random_probability(
            rng, gen.pick_support(rng, spec, 3 + k % 3), 6)
        self.up = gen.push_up(rng, spec, self.rho)
        self.down = gen.push_down(rng, spec, self.rho)
        self.half = gen.halve(self.rho)
        # small targets keep every group command within a few
        # milliseconds, so the median falls among them and only the chain
        # commands lie beyond the 90th percentile
        exp = 3 + k % 2
        support = gen.pick_support(rng, spec, 4 + k % 2)
        self.target = gen.random_probability(rng, support[:2 + k % 2], exp)
        other = gen.random_probability(rng, support[2 + k % 2:], exp)
        # one halving step, then the limit itself; the escaping sequence
        # doubles its distance instead
        self.conv = [gen.blend(self.target, other, 1), dict(self.target)]
        self.esc = [gen.blend(self.target, other, c) for c in (2, 1)]
        self.seed = rng.randrange(1000)
        self.final_table = None    # filled in by the checked `represent`

    def valuations(self):
        return {"rho": self.rho, "up": self.up, "down": self.down,
                "half": self.half, "target": self.target,
                "c0": self.conv[0], "c1": self.conv[1],
                "e0": self.esc[0], "e1": self.esc[1]}


def _op(kind, argv, check, counters):
    """One `main(argv)` call; `check` raises on a wrong output."""
    def checked(out):
        check(out)
        return hash(out)
    return Op(kind, lambda: _run_main(argv, counters), checked, hash)


def _group_ops(g, path, counters):
    order = g.spec.order
    P = ["--poset", path("poset")]

    def op(kind, argv, check):
        return _op(kind, argv, check, counters)

    def exit_with(out, code):
        expect(out[0] == code, "exit %s, expected %s (stderr %r)",
               out[0], code, out[2])
        return _lines(out[1])

    def order_true(out):
        lines = exit_with(out, 0)
        expect(lines[0] == "LEQ: true", "order: %r", lines[:1])
        check_plan(order, g.rho, g.up, _parse_plan(lines[1:]))

    def order_false(out):
        lines = exit_with(out, 1)
        expect(lines[0] == "LEQ: false" and len(lines) == 4,
               "order: %r", lines)
        members = lines[1].split(" ", 1)[1].strip("{}").split(",")
        check_witness(order, g.rho, g.down, members)
        mask = order.mask(members)
        expect(lines[2:] == ["mu %s" % dyadic_text(mass_on(g.rho, mask, order)),
                             "nu %s" % dyadic_text(mass_on(g.down, mask, order))],
               "order: witness masses %r", lines[2:])

    def verdict(code, line):
        def check(out):
            expect(exit_with(out, code) == [line], "got %r", out[1])
        return check

    def transport(out):
        check_plan(order, g.rho, g.up, _parse_plan(exit_with(out, 0)))

    def classify_check(out):
        flags = classify(order)
        want = ["%s: %s" % (k, "true" if flags[k] else "false")
                for k in sorted(flags)]
        expect(exit_with(out, 0) == want, "classify: %r", out[1])

    def schedule(out):
        want = []
        for k in range(g.k + 1):
            want.append("stage %d" % k)
            want += _val_lines(order, schedule_stage(g.target, order.bottom,
                                                     k, g.k))
        expect(exit_with(out, 0) == want, "schedule: %r", out[1])

    def represent(out):
        lines = exit_with(out, 0)
        expect(lines[0] == "layers %d" % (g.k + 1), "represent: %r", lines[0])
        layers = []
        for line in lines[1:]:
            tag, *rest = line.split()
            if tag == "layer":
                layers.append((int(rest[0]), {}))
            else:
                expect(tag == "map", "represent: %r", line)
                layers[-1][1]["" if rest[0] == "-" else rest[0]] = rest[1]
        for (d0, t0), (d1, t1) in zip(layers, layers[1:]):
            expect(d0 < d1, "layer depths do not increase")
            for w, y in t1.items():
                expect(order.leq(t0[w[:d0]], y), "map is not monotone at %s", w)
        depth, table = layers[-1]
        expect(sorted(table) == words(depth), "final layer is not total")
        counts = {}
        for y in table.values():
            counts[y] = counts.get(y, 0) + 1
        check_law(g.target, counts, depth)
        g.final_table = (depth, table)

    def sample(out):
        depth, table = g.final_table
        rng = random.Random(g.seed)
        drawn = [table["".join("1" if rng.randrange(2) else "0"
                               for _ in range(depth))]
                 for _ in range(SAMPLE_COUNT)]
        want = drawn + ["tally %s %d" % (x, drawn.count(x))
                        for x in order.names if x in drawn]
        expect(exit_with(out, 0) == want, "sample: %r", out[1][:200])

    def skorohod(out):
        lines = exit_with(out, 0)
        depth = g.final_table[0]
        expect(lines[:2] == ["precision %d" % depth, "grid %d" % (1 << depth)],
               "skorohod: %r", lines[:2])
        expect(lines[2].startswith("driver "), "skorohod: %r", lines[2])
        expect(lines[3:] == ["EXACT_LAW: true"] + [
            "law " + line for line in _val_lines(order, g.target)],
            "skorohod: %r", lines[3:])

    def converge(out):
        lines = exit_with(out, 0)
        records = [line.split() for line in lines[:-3]]
        depth = len(records[0][1])
        expect([r[1] for r in records] == words(depth),
               "converge: grid words out of order")
        counts, maximal, equal = {}, 0, 0
        for r in records:
            lv = r[3]
            counts[lv] = counts.get(lv, 0) + 1
            is_max = order.is_maximal(lv)
            expect(r[4] == ("equal_from" if is_max else "geq_from"),
                   "converge: word %s reports %s", r[1], r[4])
            expect(r[5] != "-", "converge: word %s never settles", r[1])
            maximal += is_max
            equal += is_max and r[5] != "-"
        check_law(g.target, counts, depth)
        expect(lines[-3:] == ["maximal_words %d" % maximal,
                              "equal_words %d" % equal, "CONVERGENCE: pass"],
               "converge: %r", lines[-3:])

    def refused(out):
        expect(out[0] == 1 and out[1] == "" and out[2].startswith("NEGATIVE:"),
               "escaping converge: %r", out)

    def portmanteau(seq, code):
        def check(out):
            want = portmanteau_lines(order, seq, g.target)
            expect(exit_with(out, code) == want, "portmanteau: %r",
                   out[1][-200:])
        return check

    K = ["--K", str(g.k)]
    conv = ",".join(path(n) for n in ("c0", "c1"))
    esc = ",".join(path(n) for n in ("e0", "e1"))
    limit = ["--nu", path("target")]
    return [
        op("order_true", ["order"] + P + ["--mu", path("rho"), "--nu",
                                          path("up")], order_true),
        op("order_false", ["order"] + P + ["--mu", path("rho"), "--nu",
                                           path("down")], order_false),
        op("waybelow_true", ["waybelow"] + P + ["--mu", path("half"), "--nu",
                                                path("up")],
           verdict(0, "WAY_BELOW: true")),
        op("waybelow_false", ["waybelow"] + P + ["--mu", path("up"), "--nu",
                                                 path("up"), "--normalized"],
           verdict(1, "WAY_BELOW: false")),
        op("transport", ["transport"] + P + ["--mu", path("rho"), "--nu",
                                             path("up")], transport),
        op("classify", ["classify"] + P, classify_check),
        op("schedule", ["schedule"] + P + ["--mu", path("target")] + K,
           schedule),
        op("represent", ["represent"] + P + ["--mu", path("target")] + K,
           represent),
        op("sample", ["sample"] + P + ["--mu", path("target")] + K + [
            "--seed", str(g.seed), "--count", str(SAMPLE_COUNT)], sample),
        op("skorohod", ["skorohod"] + P + ["--mu", path("target")] + K,
           skorohod),
        op("converge", ["converge"] + P + ["--seq", conv] + limit + K,
           converge),
        op("converge_escaping", ["converge"] + P + ["--seq", esc] + limit + K,
           refused),
        op("portmanteau", ["portmanteau"] + P + ["--seq", conv] + limit,
           portmanteau(g.conv, 0)),
        op("portmanteau_escaping", ["portmanteau"] + P + ["--seq", esc] + limit,
           portmanteau(g.esc, 1)),
    ]


def _chain_ops(spec, val, path, counters):
    order = spec.order
    P = ["--poset", path("poset")]
    qfile = path("quantile")

    def op(kind, argv, check):
        return _op(kind, argv, check, counters)

    def cdf(out):
        running, want = 0, []
        for x in order.ascending():
            running += val.get(x, 0)
            want.append("F %s %s" % (x, dyadic_text(running)))
        expect(out[0] == 0 and _lines(out[1]) == want, "cdf: %r", out[1][:200])

    def quantile(out):
        expect(out == (0, "", ""), "quantile --out: %r", out)
        running, last, want = 0, 0, []
        for x in order.ascending():
            running += val.get(x, 0)
            if running > last:
                want.append("break %s %s" % (dyadic_text(running), x))
                last = running
        with open(qfile, encoding="utf-8") as fh:
            expect(_lines(fh.read()) == want, "quantile file differs")

    def pushforward(out):
        expect(out[0] == 0 and _lines(out[1]) == _val_lines(order, val),
               "pushforward-lebesgue does not give the valuation back: %r",
               out[1][:200])

    return [
        op("cdf", ["cdf"] + P + ["--mu", path("mu")], cdf),
        op("quantile", ["quantile"] + P + ["--mu", path("mu"), "--out", qfile],
           quantile),
        op("pushforward_lebesgue", ["pushforward-lebesgue"] + P + [
            "--quantile", qfile], pushforward),
    ]


def setup(seed, workdir):
    rng = random.Random(seed)
    groups = [Group(rng, gen.random_poset(n, "g%d_" % i, window=3), i)
              for i, n in enumerate(SMALL_SIZES)]
    chains = []
    for i, n in enumerate(CHAIN_SIZES):
        spec = gen.chain(n, "c%d_" % i)
        chains.append((spec, gen.random_probability(
            rng, gen.pick_support(rng, spec, n // 3), 12)))

    t0 = clock()
    texts = {}
    for i, g in enumerate(groups):
        base = build_poset(g.spec)
        texts["g%d.poset" % i] = format_poset(base)
        for name, val in g.valuations().items():
            texts["g%d.%s" % (i, name)] = format_valuation(
                build_valuation(base, val))
    for i, (spec, val) in enumerate(chains):
        base = build_poset(spec)
        texts["c%d.poset" % i] = format_poset(base)
        texts["c%d.mu" % i] = format_valuation(build_valuation(base, val))
    program_s = clock() - t0

    os.makedirs(workdir, exist_ok=True)
    for name, text in texts.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    counters = {"stdout_bytes": 0}
    ops = []
    for i, g in enumerate(groups):
        ops += _group_ops(g, lambda n, i=i: os.path.join(
            workdir, "g%d.%s" % (i, n)), counters)
    for i, (spec, val) in enumerate(chains):
        ops += _chain_ops(spec, val, lambda n, i=i: os.path.join(
            workdir, "c%d.%s" % (i, n)), counters)
    return Inputs(ops, program_s, counters)
