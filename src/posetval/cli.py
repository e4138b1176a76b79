"""Command-line front end.

One command per invocation; deterministic output. Exit status is 0 for a
positive result, 1 for a negative verdict (an order that does not hold, a
failed convergence check, ...), and 2 for usage or parse errors. A
command's output is written only once it is computed and every output
file is open, so exit 2 writes no answer. `--out` and `--dot` that name
one regular file are refused before either is opened, so that file keeps
what it held.

`main` builds the argument parser on its first call and reuses it for the
rest of the process: a parser keeps no state between `parse_args` calls,
and its usage, error and help paths read `sys.stderr` and the terminal
width only when they print.
"""

from __future__ import annotations

import argparse
import os
import random
import stat
import sys
from contextlib import nullcontext

from . import chain as chainmod
from . import flow as flowmod
from . import pipeline
from . import valuation as valmod
from .errors import Error, NotComparable, NotConvergent
from .poset import parse_poset
from .skorohod import _schedule_stages, format_map, represent_target
from .skorohod import sample as draw_sample
from .valuation import parse_valuation


# draws that `sample` holds before writing them out
_SAMPLE_BATCH = 4096


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _opened(path: str | None, default):
    """The file at path, opened for writing, or default if there is none."""
    if path is None:
        return nullcontext(default)
    return open(path, "w", encoding="utf-8")


def _one_file(a: str, b: str) -> bool:
    """Whether two output paths name one regular file, or would create one.

    Paths that both exist are compared by device and inode, so a link or
    a second spelling is caught; a device such as /dev/null may be named
    twice. A path that does not exist yet is compared by its resolved
    spelling, since opening it would create it.
    """
    try:
        sa, sb = os.stat(a), os.stat(b)
    except FileNotFoundError:
        return bool(a) and os.path.realpath(a) == os.path.realpath(b)
    return stat.S_ISREG(sa.st_mode) and os.path.samestat(sa, sb)


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _bit_source(seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="posetval",
        description="exact dyadic valuations on finite posets")
    sub = ap.add_subparsers(dest="command", required=True)

    def cmd(name, helptext, *, mu=False, nu=False, seq=False, k=False,
            dot=False, out=False):
        c = sub.add_parser(name, help=helptext)
        c.add_argument("--poset", required=True, help="poset file")
        if mu:
            c.add_argument("--mu", required=True, help="valuation file")
        if nu:
            c.add_argument("--nu", required=True,
                           help="second valuation file")
        if seq:
            c.add_argument("--seq", required=True,
                           help="comma-separated valuation files")
        if k:
            c.add_argument("--K", type=int, default=2, dest="steps",
                           help="schedule length (default 2)")
        if dot:
            c.add_argument("--dot", help="write a DOT rendering here")
        if out:
            c.add_argument("--out", help="write the main output here")
        return c

    cmd("order", "decide mu <= nu; print a transport plan or a witness",
        mu=True, nu=True, dot=True, out=True)
    wb = cmd("waybelow", "decide whether mu approximates nu",
             mu=True, nu=True, out=True)
    wb.add_argument("--normalized", action="store_true",
                    help="probability-valuation mode")
    cmd("transport", "print the transport plan for mu <= nu",
        mu=True, nu=True, out=True)
    cmd("classify", "report chain/bounded-complete/lattice flags", dot=True)
    cmd("schedule", "print the approximation schedule of mu",
        mu=True, k=True, out=True)
    cmd("represent", "build and print the representation map of mu",
        mu=True, k=True, dot=True, out=True)
    sp = cmd("sample", "draw elements from the representation of mu",
             mu=True, k=True, out=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=1)
    cv = cmd("converge", "represent a sequence and check pointwise settling",
             seq=True, nu=True, k=True, out=True)
    cv.add_argument("--from", type=int, default=0, dest="from_index",
                    help="tail start for the convergence gate")
    cmd("skorohod", "build a unit-interval sampler and verify its law",
        mu=True, k=True, out=True)
    cmd("cdf", "print the cumulative distribution of mu on a chain",
        mu=True, out=True)
    cmd("quantile", "print the quantile map of mu on a chain",
        mu=True, out=True)
    pl = cmd("pushforward-lebesgue",
             "push the uniform measure through a quantile map", out=True)
    pl.add_argument("--quantile", required=True, help="quantile map file")
    pm = cmd("portmanteau", "check weak convergence of a sequence",
             seq=True, nu=True, out=True)
    pm.add_argument("--from", type=int, default=0, dest="from_index",
                    help="tail start index")
    return ap


def _draws(rmap, seed: int, count: int):
    """The text of count draws from rmap, a batch at a time so that memory
    stays flat however many there are, then one tally line per element
    drawn; no draws, no text."""
    bits = _bit_source(seed)
    tally = dict.fromkeys(rmap.base.elements, 0)
    while count:
        batch = [draw_sample(rmap, bits)
                 for _ in range(min(count, _SAMPLE_BATCH))]
        count -= len(batch)
        for x in batch:
            tally[x] += 1
        yield "\n".join(batch) + "\n"
    yield "".join("tally %s %d\n" % (x, n) for x, n in tally.items() if n)


def _run(args, stdout) -> int:
    """Compute the command's exit code, its main text (a string, or the
    draws of `sample` or the stages of `schedule` as they are made) and
    its DOT text (None without --dot), then write them."""
    base = parse_poset(_read(args.poset))

    def load(path):
        return None if path is None else parse_valuation(_read(path), base)

    mu = load(getattr(args, "mu", None))
    nu = load(getattr(args, "nu", None))
    seq = getattr(args, "seq", None)
    if seq is not None:
        seq = [load(p) for p in seq.split(",")]
    code, text, dot = 0, None, None

    if args.command == "order":
        witness = valmod.leq_witness(mu, nu)
        holds = witness is None
        lines = ["LEQ: %s" % _bool(holds)]
        if holds:
            lines.extend(valmod.transport_plan(mu, nu).lines())
        else:
            lines.append("witness %s" % witness)
            lines.append("mu %s" % mu.evaluate(witness))
            lines.append("nu %s" % nu.evaluate(witness))
        code = 0 if holds else 1
        if args.dot is not None:
            # the flow leq_witness solved, read back from the kept slot
            dot = flowmod.to_dot(valmod._order_flow(mu, nu))

    elif args.command == "waybelow":
        holds = valmod.way_below(mu, nu, normalized=args.normalized)
        code = 0 if holds else 1
        lines = ["WAY_BELOW: %s" % _bool(holds)]

    elif args.command == "transport":
        plan = valmod.transport_plan(mu, nu)
        lines = plan.lines()

    elif args.command == "classify":
        flags = base.classify()
        text = "".join("%s: %s\n" % (k, _bool(v))
                       for k, v in sorted(flags.items()))
        if args.dot is not None:
            dot = base.to_dot()

    elif args.command == "schedule":
        # a stage is made only once the text of the one before it is
        # written, so memory holds one stage however long the schedule is
        text = ("stage %d\n%s" % (k, valmod.format_valuation(stage))
                for k, stage in enumerate(_schedule_stages(mu, args.steps)))

    elif args.command == "represent":
        rmap = represent_target(mu, args.steps)
        text = format_map(rmap)
        if args.dot is not None:
            dot = rmap.to_dot()

    elif args.command == "sample":
        if args.count < 0:
            raise ValueError("sample count must be at least 0, not %d"
                             % args.count)
        text = _draws(represent_target(mu, args.steps), args.seed,
                      args.count)

    elif args.command == "converge":
        witnesses, limit_witness, report = pipeline.skorohod_sequence(
            seq, nu, args.steps, args.from_index)
        lines = []
        for rec in report.convergence.records:
            name, value = (("equal_from", rec.equal_from) if rec.maximal
                           else ("geq_from", rec.geq_from))
            lines.append("word %s limit %s %s %s"
                         % (rec.word, rec.limit_value, name,
                            "-" if value is None else value))
        lines.append("maximal_words %d" % report.maximal_words)
        lines.append("equal_words %d" % report.equal_words)
        lines.append("CONVERGENCE: %s" % ("pass" if report.verdict
                                          else "fail"))
        code = 0 if report.verdict else 1

    elif args.command == "skorohod":
        witness = pipeline.skorohod(mu, args.steps)
        law = witness.law_on_grid()
        exact = law == mu
        d = witness.precision
        # grid point (i + 1)/2^d lands on word i, so the law's mass counts
        # the defined grid points
        third = ("driver %s" % witness.describe() if mu.is_probability()
                 else "defined %d" % law.mass.rescale(d))
        lines = ["precision %d" % d, "grid %d" % (1 << d), third,
                 "EXACT_LAW: %s" % _bool(exact)]
        lines.extend("law %s %s" % (x, law.weights[x]) for x in law.support)
        code = 0 if exact else 1

    elif args.command == "cdf":
        f = chainmod.cdf(mu)
        # cdf lists the chain from bottom to top
        text = "".join("F %s %s\n" % (x, v) for x, v in f.values.items())

    elif args.command == "quantile":
        g = chainmod.lower_adjoint(chainmod.cdf(mu))
        text = chainmod.format_quantile(g)

    elif args.command == "pushforward-lebesgue":
        g = chainmod.parse_quantile(_read(args.quantile), base)
        v = chainmod.pushforward_lebesgue(g)
        text = valmod.format_valuation(v)

    else:
        # portmanteau, the last command the parser knows
        report = valmod.portmanteau_check(seq, nu, args.from_index)
        lines = []
        for u in base.enumerate_upper_sets():
            rec = report.record_for(u)
            lines.append("U %s open %s closed %s"
                         % (u, "ok" if rec.open_ok else "fail",
                            "ok" if rec.closed_ok else "fail"))
        lines.append("PORTMANTEAU: %s" % ("pass" if report.verdict
                                          else "fail"))
        if report.witness is not None:
            lines.append("witness %s" % report.witness)
        code = 0 if report.verdict else 1

    if text is None:
        text = "\n".join(lines) + "\n"
    # every output is opened before any is written, so a run that cannot
    # open one writes no answer; two names of one file are refused before
    # either is opened, since opening truncates
    out, dotpath = getattr(args, "out", None), getattr(args, "dot", None)
    if out is not None and dotpath is not None and _one_file(out, dotpath):
        raise ValueError("--out and --dot name the same file")
    with _opened(out, stdout) as fh, _opened(dotpath, None) as dh:
        fh.writelines((text,) if isinstance(text, str) else text)
        if dh is not None:
            dh.write(dot)
    return code


# the parser `main` builds on its first call
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        return _run(args, sys.stdout)
    except (NotComparable, NotConvergent) as exc:
        print("NEGATIVE: %s" % exc, file=sys.stderr)
        return 1
    except (Error, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
