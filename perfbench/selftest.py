"""Self-test of the benchmark's checkers and of its known-answer inputs.

    python3 perfbench/selftest.py

Part one builds 60 small random instances of every known-answer
construction in `gen.py` and confirms each answer with the brute-force
oracles in `oracle.py` (upper-set enumeration and subset scans), so that
the workloads' expected verdicts do not rest on the library.

Part two runs one operation of every kind in every workload, requires its
checker to accept the real output, then hands the checker deliberately
wrong outputs (a flipped verdict, a plan entry moved downward, a law off by
one count, a changed `F` line, ...) and requires it to reject each one.
Exit status 0 means every checker behaved.
"""

import copy
import os
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gen                                                    # noqa: E402
from oracle import (Mismatch, brute_leq, brute_way_below_norm,  # noqa: E402
                    brute_way_below_sub)

INSTANCES = 60
failures = []


def confirm(cond, what):
    if not cond:
        failures.append(what)


def constructions():
    """Known answers against brute force on posets of 4..9 elements."""
    rng = random.Random(2024)
    for i in range(INSTANCES):
        spec = gen.random_poset(4 + i % 6, "t%d_" % i, window=3)
        o = spec.order
        rho = gen.random_probability(
            rng, gen.pick_support(rng, spec, 2 + i % 3), 5)
        up = gen.push_up(rng, spec, rho)
        down = gen.push_down(rng, spec, rho)
        j = 1 + i % 4
        shifted = gen.blend(rho, {spec.bottom: 1}, j)
        confirm(brute_leq(o, rho, up), "rho <= push_up(rho) #%d" % i)
        confirm(not brute_leq(o, rho, down), "rho <= push_down(rho) #%d" % i)
        confirm(brute_way_below_norm(o, shifted, up),
                "shifted rho << nu, normalized, #%d" % i)
        confirm(brute_way_below_sub(o, gen.halve(rho), up),
                "rho/2 << nu, subprobability, #%d" % i)
        for nu in (rho, up):
            if nu != {spec.bottom: 1}:
                confirm(not brute_way_below_norm(o, nu, nu),
                        "nu << nu, normalized, #%d" % i)
                confirm(not brute_way_below_sub(o, nu, nu),
                        "nu << nu, subprobability, #%d" % i)


def first_of_each_kind(inputs):
    seen = {}
    for op in inputs.ops:
        seen.setdefault(op.kind, op)
    return seen


def accepts_then_rejects(op, out, wrongs):
    """op.check passes on out, returning the fingerprint a repeat must
    match, and raises Mismatch on every wrong output."""
    try:
        fingerprint = op.check(out)
    except Mismatch as exc:
        failures.append("%s: rejected a correct output: %s" % (op.kind, exc))
        return
    if fingerprint != op.fingerprint(out):
        failures.append("%s: a repeat of a correct output would not match"
                        % op.kind)
    for what, bad in wrongs:
        try:
            op.check(bad)
        except Mismatch:
            continue
        failures.append("%s: accepted %s" % (op.kind, what))


def decide():
    import wl_decide
    for kind, op in first_of_each_kind(wl_decide.setup(5, None)).items():
        out = op.run()
        if kind.startswith("leq"):
            holds, detail = out
            wrongs = [("a flipped verdict", (not holds, detail))]
            if holds:
                wrongs.append(("a plan entry turned downward",
                               (True, _turned_down(detail))))
            else:
                wrongs.append(("an empty witness", (False, frozenset())))
        else:
            wrongs = [("a flipped verdict", not out)]
        accepts_then_rejects(op, out, wrongs)


def _turned_down(entries):
    """The plan with one upward entry x -> y replaced by y -> x."""
    for (x, y), t in entries.items():
        if x != y:
            bad = dict(entries)
            del bad[x, y]
            bad[y, x] = t
            return bad
    raise LookupError("plan moves no mass")


def represent():
    import wl_represent
    from common import skorohod
    real_sample = skorohod.sample

    def all_zeros_elsewhere(rmap, bits):
        """`skorohod.sample`, but with the word 0...0 sent off the poset."""
        bits = list(bits)
        x = real_sample(rmap, bits)
        return x if any(bits) else "no such element"

    for kind, op in first_of_each_kind(wl_represent.setup(5, None)).items():
        out = op.run()
        witness, drawn = out
        accepts_then_rejects(op, out, [
            ("a changed draw", (witness, ["no such element"] + drawn[1:])),
        ])
        # a law off by one count: the check tabulates the law through
        # `skorohod.sample`, so the wrong map is made by changing that
        skorohod.sample = all_zeros_elsewhere
        try:
            op.check(out)
            failures.append("%s: accepted a law off by one count" % kind)
        except Mismatch:
            pass
        finally:
            skorohod.sample = real_sample


def converge():
    import wl_converge
    for kind, op in first_of_each_kind(wl_converge.setup(5, None)).items():
        out = op.run()
        if kind == "escaping":
            accepts_then_rejects(op, out, [("an escaping sequence let through",
                                            ("report",))])
            continue
        bad = copy.deepcopy(out)
        rec = bad[2].convergence.records[0]
        if rec.maximal:
            rec.equal_from = (rec.equal_from or 0) + 1
        else:
            rec.geq_from = (rec.geq_from or 0) + 1
        accepts_then_rejects(op, out, [
            ("a shifted settling index", bad),
            ("a convergent sequence refused", None),
        ])


def _edit(out, old, new):
    code, text, err = out
    if old not in text:
        raise LookupError("%r not in output" % old)
    return code, text.replace(old, new, 1), err


def _edit_line(out, index, new):
    code, text, err = out
    lines = text.splitlines()
    lines[index] = new
    return code, "\n".join(lines) + "\n", err


def _append(out, index):
    """Line `index` with a digit appended, which changes its last value."""
    return _edit_line(out, index, out[1].splitlines()[index] + "1")


def _flip_first(out):
    line = out[1].splitlines()[0]
    flipped = line.replace("true", "false") if line.endswith("true") \
        else line.replace("false", "true")
    return _edit_line(out, 0, flipped)


CLI_WRONGS = {
    "order_true": lambda o: [("a flipped verdict",
                              _edit(o, "LEQ: true", "LEQ: false"))],
    "order_false": lambda o: [("a changed nu mass", _append(o, 3))],
    "waybelow_true": lambda o: [("exit 1", (1,) + o[1:])],
    "waybelow_false": lambda o: [("a flipped verdict",
                                  (0, "WAY_BELOW: true\n", ""))],
    "transport": lambda o: [("a changed plan weight", _append(o, 0))],
    "classify": lambda o: [("a flipped flag", _flip_first(o))],
    "schedule": lambda o: [("a changed stage weight", _append(o, -1))],
    "represent": lambda o: [("a map entry sent elsewhere",
                             _edit_line(o, -1, _swap_last_map(o)))],
    "sample": lambda o: [("a changed draw", _swap_first_draw(o))],
    "skorohod": lambda o: [("a failed law",
                            _edit(o, "EXACT_LAW: true", "EXACT_LAW: false"))],
    "converge": lambda o: [("a changed word count", _append(o, -3))],
    "converge_escaping": lambda o: [("exit 0", (0,) + o[1:])],
    "portmanteau": lambda o: [("a flipped record",
                               _edit(o, "open ok", "open fail"))],
    "portmanteau_escaping": lambda o: [("a passing verdict",
                                        _edit(o, "PORTMANTEAU: fail",
                                              "PORTMANTEAU: pass"))],
    "cdf": lambda o: [("a changed F line", _append(o, 0))],
    "quantile": lambda o: [("output on stdout", (0, "break 1 x\n", ""))],
    "pushforward_lebesgue": lambda o: [("a changed weight", _append(o, 0))],
}


def _swap_last_map(out):
    lines = out[1].splitlines()
    tag, word, y = lines[-1].split()
    others = sorted({line.split()[2] for line in lines
                     if line.startswith("map ")} - {y})
    return "%s %s %s" % (tag, word, others[0])


def _swap_first_draw(out):
    lines = out[1].splitlines()
    tallied = [line.split()[1] for line in lines if line.startswith("tally")]
    other = next((x for x in tallied if x != lines[0]), lines[0] + "_")
    return _edit_line(out, 0, other)


def cli():
    import wl_cli
    workdir = ROOT / ".bench_out" / ("selftest-%d" % os.getpid())
    try:
        inputs = wl_cli.setup(5, str(workdir))
        outs = {}
        for op in inputs.ops:
            out = op.run()
            if op.kind not in outs:
                outs[op.kind] = (op, out)
            op.check(out)     # later checks read what earlier ones record
        for kind, (op, out) in outs.items():
            accepts_then_rejects(op, out, CLI_WRONGS[kind](out))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    constructions()
    for part in (decide, represent, converge, cli):
        try:
            part()
        except (Mismatch, LookupError) as exc:
            failures.append("%s: %s" % (part.__name__, exc))
    for f in failures:
        print("SELFTEST FAIL: %s" % f)
    print("selftest: %d constructions x 6 answers confirmed; checkers %s"
          % (INSTANCES, "ok" if not failures else "FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
