"""Verdicts depend on the poset, not on the order of its file's lines.

Each generated poset file is run through the CLI in process twice: as
written, and with its `element` lines and its `cover` lines shuffled. The
valuation files name elements, so they serve both runs unchanged. A
declaration order tie-breaks some outputs (a transport plan, the order of
law lines, the listing of upper sets), so those are compared as what they
mean; the other outputs must be equal byte for byte. `converge` is left
out: its verdict is about the maps it builds, and those deal their targets
in declaration order (README).
"""

import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

from posetval import (Dyadic, TransportPlan, format_poset, format_valuation,
                      parse_poset, parse_valuation)
from posetval.cli import main

from conftest import make_chain, normalize, random_poset, random_valuation


def run(argv):
    """(exit code, stdout, stderr) of one CLI run in process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def shuffled_lines(text, rng):
    """The poset file text with its element lines shuffled among
    themselves, and so its cover lines, reversed where the shuffle gave
    the text back; the bottom line stays."""
    lines = text.splitlines()
    elements = [ln for ln in lines if ln.startswith("element ")]
    covers = [ln for ln in lines if ln.startswith("cover ")]
    rest = [ln for ln in lines if ln not in elements and ln not in covers]
    rng.shuffle(elements)
    rng.shuffle(covers)
    out = "\n".join(elements + rest + covers) + "\n"
    if out == text:
        out = "\n".join(elements[::-1] + rest + covers[::-1]) + "\n"
    return out


def members(text):
    """The members of an upper set as the CLI prints it, {x,y,...}."""
    return frozenset(text[1:-1].split(",")) - {""}


def listing(out):
    """portmanteau's (upper set, flags) lines as a dict, its verdict line
    and its witness (None without one)."""
    flags, verdict, witness = {}, None, None
    for line in out.splitlines():
        m = re.fullmatch(r"U (\{.*\}) open (ok|fail) closed (ok|fail)", line)
        if m:
            flags[members(m[1])] = (m[2], m[3])
        elif line.startswith("PORTMANTEAU: "):
            verdict = line
        else:
            witness = members(line[len("witness "):])
    return flags, verdict, witness


def inputs(seed):
    """A poset file's text, and valuation files' texts by name: mu and nu
    of any mass, pmu and pnu of mass 1, and a tail s0, s1, s2 with its
    limit lim."""
    rng = random.Random(seed)
    if seed % 4:
        base = random_poset(rng, 7, rng.choice([0.2, 0.4, 0.6]))
    else:
        base = make_chain(rng.randint(1, 7))
    vals = {name: random_valuation(rng, base, rng.randint(0, 3))
            for name in ("mu", "nu")}
    for name in ("pmu", "pnu", "s0", "s1", "s2", "lim"):
        vals[name] = normalize(random_valuation(rng, base, rng.randint(0, 3)))
    return (format_poset(base),
            {name: format_valuation(v) for name, v in vals.items()}, rng)


def check_plan(out, poset_path, mu_path, nu_path):
    """Every t line of a printed plan, read against the parsed files, makes
    a plan that verifies."""
    with open(poset_path) as fh:
        base = parse_poset(fh.read())
    with open(mu_path) as fh:
        mu = parse_valuation(fh.read(), base)
    with open(nu_path) as fh:
        nu = parse_valuation(fh.read(), base)
    entries = {}
    for line in filter(None, out.splitlines()):    # an empty plan is "\n"
        _, x, y, w = line.split()
        num, _, exp = w.partition("/2^")
        entries[x, y] = Dyadic(int(num), int(exp or 0))
    TransportPlan(mu, nu, entries).verify()


@pytest.mark.parametrize("seed", range(60))
def test_verdicts_do_not_depend_on_line_order(tmp_path, seed):
    text, vals, rng = inputs(seed)
    for name, body in vals.items():
        (tmp_path / ("%s.val" % name)).write_text(body)
    posets = []
    for i, body in enumerate([text, shuffled_lines(text, rng)]):
        path = tmp_path / ("p%d.poset" % i)
        path.write_text(body)
        posets.append(str(path))

    def val(name):
        return str(tmp_path / ("%s.val" % name))

    def both(command, *args):
        return [run([command, "--poset", p, *args]) for p in posets]

    pair = ["--mu", val("mu"), "--nu", val("nu")]

    # order: the verdict, and on failure the witness as a set with its
    # two values; a plan may differ, so it is checked by transport below
    runs = both("order", *pair)
    (code, out, _), (code2, out2, _) = runs
    assert code == code2
    lines, lines2 = out.splitlines(), out2.splitlines()
    assert lines[0] == lines2[0]
    if code == 1:
        assert members(lines[1].split()[1]) == members(lines2[1].split()[1])
        assert lines[2:] == lines2[2:]

    # transport: each printed plan is valid against its own files
    runs = both("transport", *pair)
    assert runs[0][0] == runs[1][0]
    for p, (code, out, _) in zip(posets, runs):
        if code == 0:
            check_plan(out, p, val("mu"), val("nu"))

    # byte-equal outputs
    for argv in (["waybelow", *pair],
                 ["waybelow", "--mu", val("pmu"), "--nu", val("pnu"),
                  "--normalized"],
                 ["classify"],
                 ["cdf", "--mu", val("pmu")],
                 ["quantile", "--mu", val("pmu")],
                 ["quantile", "--mu", val("mu")]):
        first, second = both(*argv)
        assert first == second, argv

    # skorohod: equal lines, the law lines up to their order
    for mu in ("mu", "pmu"):
        (code, out, err), (code2, out2, err2) = both(
            "skorohod", "--mu", val(mu), "--K", "2")
        assert (code, err) == (code2, err2)
        lines, lines2 = out.splitlines(), out2.splitlines()
        law = [ln for ln in lines if ln.startswith("law ")]
        law2 = [ln for ln in lines2 if ln.startswith("law ")]
        assert lines[:len(lines) - len(law)] \
            == lines2[:len(lines2) - len(law2)]
        assert sorted(law) == sorted(law2)

    # portmanteau: the same flags on each upper set and the same verdict;
    # each run's witness fails in that run's own listing
    seq = ",".join(val(s) for s in ("s0", "s1", "s2"))
    (code, out, _), (code2, out2, _) = both(
        "portmanteau", "--seq", seq, "--nu", val("lim"), "--from", "1")
    assert code == code2
    (flags, verdict, witness), (flags2, verdict2, witness2) = \
        listing(out), listing(out2)
    assert (flags, verdict) == (flags2, verdict2)
    for f, w in ((flags, witness), (flags2, witness2)):
        assert (w is None) == (verdict == "PORTMANTEAU: pass")
        if w is not None:
            assert "fail" in f[w]
