import contextlib
import io
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import posetval
from posetval import (build_schedule, format_poset, format_valuation,
                      parse_poset, parse_valuation, portmanteau_check,
                      skorohod)
from posetval import cli
from posetval.cli import main

from conftest import grid, random_poset, random_valuation
from oracles import law_by_grid_tabulation, portmanteau_by_upper_sets

M4 = """element bot
element a
element b
element top
bottom bot
cover bot a
cover bot b
cover a top
cover b top
"""

C3 = """element c0
element c1
element c2
bottom c0
cover c0 c1
cover c1 c2
"""


@pytest.fixture
def files(tmp_path):
    paths = {}

    def put(name, content):
        p = tmp_path / name
        p.write_text(content)
        paths[name] = str(p)
        return paths[name]

    put("m4.poset", M4)
    put("c3.poset", C3)
    put("mu.val", "a 1/2^1\nb 1/2^1\n")
    put("top.val", "top 1\n")
    put("da.val", "a 1\n")
    put("db.val", "b 1\n")
    put("halftop.val", "top 1/2^1\n")
    put("stage1.val", "bot 1/2^1\ntop 1/2^1\n")
    put("stage2.val", "bot 1/2^2\ntop 3/2^2\n")
    put("v3.val", "c0 1/2^2\nc1 1/2^2\nc2 1/2^1\n")
    paths["dir"] = str(tmp_path)
    return paths


def run(argv):
    buf = io.StringIO()
    real = sys.stdout
    sys.stdout = buf
    try:
        code = main(argv)
    finally:
        sys.stdout = real
    return code, buf.getvalue()


def test_order_positive(files):
    code, out = run(["order", "--poset", files["m4.poset"],
                     "--mu", files["mu.val"], "--nu", files["top.val"]])
    assert code == 0
    assert out.splitlines()[0] == "LEQ: true"
    assert "t a top 1/2^1" in out and "t b top 1/2^1" in out


def test_order_with_dot_solves_one_flow(files, tmp_path, solves):
    # the verdict, the plan or witness and the DOT text share one solve,
    # and so do the verdict and the plan or witness without --dot
    dot = str(tmp_path / "flow.dot")
    for nu, code in (("top.val", 0), ("db.val", 1)):
        for extra in ([], ["--dot", dot]):
            solves.clear()
            assert run(["order", "--poset", files["m4.poset"], "--mu",
                        files["da.val"], "--nu", files[nu]] + extra)[0] \
                == code
            assert len(solves) == 1
        assert "digraph" in Path(dot).read_text()


def test_printed_plans_are_breadth_first_flows(files, tmp_path):
    # the plan is not unique: bot a, a top, b b, b top (1/4 each) is the
    # flow along breadth-first augmenting paths, bot b, a a (1/4 each),
    # b top (1/2) another one
    mu = tmp_path / "plan_mu.val"
    nu = tmp_path / "plan_nu.val"
    mu.write_text("bot 1/2^2\na 1/2^2\nb 1/2^1\n")
    nu.write_text("a 1/2^2\nb 1/2^2\ntop 1/2^1\n")
    plan = "t bot a 1/2^2\nt a top 1/2^2\nt b b 1/2^2\nt b top 1/2^2\n"
    args = ["--poset", files["m4.poset"], "--mu", str(mu), "--nu", str(nu)]
    assert run(["order"] + args) == (0, "LEQ: true\n" + plan)
    assert run(["transport"] + args) == (0, plan)


def test_order_dot_bytes_on_the_diamond(files, tmp_path):
    # middle edges run in declaration order of mu's and nu's supports
    mu = tmp_path / "plan_mu.val"
    nu = tmp_path / "plan_nu.val"
    mu.write_text("bot 1/2^2\na 1/2^2\nb 1/2^1\n")
    nu.write_text("a 1/2^2\nb 1/2^2\ntop 1/2^1\n")
    dot = tmp_path / "flow.dot"
    assert run(["order", "--poset", files["m4.poset"], "--mu", str(mu),
                "--nu", str(nu), "--dot", str(dot)])[0] == 0
    assert dot.read_text() == """digraph flow {
  rankdir=LR;
  "source" -> "L_bot" [label="1/2^2 of 1/2^2"];
  "source" -> "L_a" [label="1/2^2 of 1/2^2"];
  "source" -> "L_b" [label="1/2^1 of 1/2^1"];
  "L_bot" -> "R_a" [label="1/2^2 of 2"];
  "L_bot" -> "R_b" [label="2"];
  "L_bot" -> "R_top" [label="2"];
  "L_a" -> "R_a" [label="2"];
  "L_a" -> "R_top" [label="1/2^2 of 2"];
  "L_b" -> "R_b" [label="1/2^2 of 2"];
  "L_b" -> "R_top" [label="1/2^2 of 2"];
  "R_a" -> "sink" [label="1/2^2 of 1/2^2"];
  "R_b" -> "sink" [label="1/2^2 of 1/2^2"];
  "R_top" -> "sink" [label="1/2^1 of 1/2^1"];
}
"""
    assert run(["order", "--poset", files["m4.poset"], "--mu", files["mu.val"],
                "--nu", files["db.val"], "--dot", str(dot)])[0] == 1
    assert dot.read_text() == """digraph flow {
  rankdir=LR;
  "source" -> "L_a" [label="1/2^1"];
  "source" -> "L_b" [label="1/2^1 of 1/2^1"];
  "L_b" -> "R_b" [label="1/2^1 of 2"];
  "R_b" -> "sink" [label="1/2^1 of 1"];
}
"""


@pytest.mark.parametrize("nu_text, code, statements", [
    ("top 1/2^1\nb 1/2^2\n", 0, [
        '"source" -> "L_bot" [label="1/2^3 of 1/2^3"];',
        '"source" -> "L_a" [label="1/2^2 of 1/2^2"];',
        '"source" -> "L_b" [label="1/2^3 of 1/2^3"];',
        '"source" -> "L_top" [label="1/2^2 of 1/2^2"];',
        '"L_bot" -> "R_b" [label="1/2^3 of 2"];',
        '"L_bot" -> "R_top" [label="2"];',
        '"L_a" -> "R_top" [label="1/2^2 of 2"];',
        '"L_b" -> "R_b" [label="1/2^3 of 2"];',
        '"L_b" -> "R_top" [label="2"];',
        '"L_top" -> "R_top" [label="1/2^2 of 2"];',
        '"R_b" -> "sink" [label="1/2^2 of 1/2^2"];',
        '"R_top" -> "sink" [label="1/2^1 of 1/2^1"];']),
    ("top 1/2^1\nbot 1/2^2\n", 1, [
        '"source" -> "L_bot" [label="1/2^3 of 1/2^3"];',
        '"source" -> "L_a" [label="1/2^2 of 1/2^2"];',
        '"source" -> "L_b" [label="1/2^3 of 1/2^3"];',
        '"source" -> "L_top" [label="1/2^3 of 1/2^2"];',
        '"L_bot" -> "R_bot" [label="1/2^3 of 2"];',
        '"L_bot" -> "R_top" [label="2"];',
        '"L_a" -> "R_top" [label="1/2^2 of 2"];',
        '"L_b" -> "R_top" [label="1/2^3 of 2"];',
        '"L_top" -> "R_top" [label="1/2^3 of 2"];',
        '"R_bot" -> "sink" [label="1/2^3 of 1/2^2"];',
        '"R_top" -> "sink" [label="1/2^1 of 1/2^1"];'])])
def test_order_dot_bytes_with_weights_listed_out_of_order(
        files, tmp_path, nu_text, code, statements):
    # the valuation files list their points against the declaration order,
    # and every side of the network follows the declaration order
    mu = tmp_path / "shuffled_mu.val"
    nu = tmp_path / "shuffled_nu.val"
    mu.write_text("top 1/2^2\nb 1/2^3\na 1/2^2\nbot 1/2^3\n")
    nu.write_text(nu_text)
    dot = tmp_path / "flow.dot"
    assert run(["order", "--poset", files["m4.poset"], "--mu", str(mu),
                "--nu", str(nu), "--dot", str(dot)])[0] == code
    lines = dot.read_text().split("\n")
    assert lines[:2] == ["digraph flow {", "  rankdir=LR;"]
    assert lines[2:-2] == ["  " + s for s in statements]
    assert lines[-2:] == ["}", ""]


# a quoted DOT ID: backslash escapes the next character, nothing else may
# hold a quote or a backslash
QUOTED = r'"((?:[^"\\]|\\.)*)"'
DOT_STATEMENT = re.compile(r"  %s(?: -> %s)?(?: \[label=%s\])?;"
                           % (QUOTED, QUOTED, QUOTED))


def dot_statements(text):
    """(IDs, label) per statement of a DOT file, each one unescaped."""
    lines = text.splitlines()
    assert lines[0].startswith("digraph ") and lines[-1] == "}"
    result = []
    for line in lines[2:-1]:
        m = DOT_STATEMENT.fullmatch(line)
        assert m, line
        tokens = [None if t is None else re.sub(r"\\(.)", r"\1", t)
                  for t in m.groups()]
        result.append(([t for t in tokens[:2] if t is not None], tokens[2]))
    return result


def test_dot_quotes_names_holding_quotes_and_backslashes(tmp_path):
    names = ["bot", 'a"b', "c\\d", "e\\"]
    poset = tmp_path / "q.poset"
    poset.write_text("".join("element %s\n" % x for x in names)
                     + "bottom bot\ncover bot a\"b\ncover bot c\\d\n"
                     + "cover a\"b e\\\ncover c\\d e\\\n")
    mu = tmp_path / "mu.val"
    mu.write_text('a"b 1/2^2\nc\\d 1/2^2\ne\\ 1/2^1\n')
    nu = tmp_path / "nu.val"
    nu.write_text("e\\ 1\n")
    dots = [tmp_path / ("%s.dot" % c) for c in ("classify", "order", "rep")]
    common = ["--poset", str(poset), "--mu", str(mu)]
    for argv in (["classify", "--poset", str(poset), "--dot", str(dots[0])],
                 ["order", *common, "--nu", str(nu), "--dot", str(dots[1])],
                 ["represent", *common, "--dot", str(dots[2])]):
        assert run(argv)[0] == 0

    hasse = dot_statements(dots[0].read_text())
    assert [ids for ids, _ in hasse] == [[x] for x in names] + [
        ["bot", 'a"b'], ["bot", "c\\d"], ['a"b', "e\\"], ["c\\d", "e\\"]]
    flow_ids = {i for ids, _ in dot_statements(dots[1].read_text())
                for i in ids}
    assert flow_ids == {"source", "sink", 'L_a"b', "L_c\\d", "L_e\\",
                        "R_e\\"}
    labels = [label for _, label in dot_statements(dots[2].read_text())
              if label is not None]
    assert {label.split(":", 1)[1] for label in labels} == set(names)


def test_empty_output_paths_exit_2(files, capsys):
    # every output is opened before any is written, so exit 2 writes no
    # answer, and an output opened before the failing one is left empty
    m4, mu = files["m4.poset"], files["mu.val"]
    out = os.path.join(files["dir"], "o.txt")
    missing = os.path.join(files["dir"], "nodir", "d.dot")
    for argv in (["order", "--mu", mu, "--nu", files["top.val"], "--out", ""],
                 ["order", "--mu", mu, "--nu", files["top.val"], "--dot", ""],
                 ["classify", "--dot", ""],
                 ["sample", "--mu", mu, "--out", ""]):
        capsys.readouterr()
        assert run(argv + ["--poset", m4]) == (2, "")
        assert capsys.readouterr().err \
            == "error: [Errno 2] No such file or directory: ''\n"
    assert run(["order", "--poset", m4, "--mu", mu, "--nu", files["top.val"],
                "--out", out, "--dot", missing]) == (2, "")
    assert capsys.readouterr().err \
        == "error: [Errno 2] No such file or directory: %r\n" % missing
    assert Path(out).read_text() == ""


def test_out_and_dot_on_one_file_exit_2(files, capsys):
    # two names of one regular file are refused before either is opened:
    # nothing on stdout, the file keeps what it held, and a file that did
    # not exist is not created
    m4, mu, nu = files["m4.poset"], files["mu.val"], files["top.val"]
    path = os.path.join(files["dir"], "both.txt")
    alias = os.path.join(files["dir"], "alias.txt")
    fresh = os.path.join(files["dir"], "fresh.txt")
    Path(path).write_text("kept\n")
    os.symlink(path, alias)
    for argv in (["order", "--mu", mu, "--nu", nu],
                 ["represent", "--mu", files["da.val"]]):
        for out, dot in ((path, path), (path, alias), (alias, path),
                         (fresh, fresh),
                         (fresh, os.path.join(files["dir"], ".",
                                              "fresh.txt"))):
            capsys.readouterr()
            assert run(argv + ["--poset", m4, "--out", out,
                               "--dot", dot]) == (2, "")
            assert capsys.readouterr().err \
                == "error: --out and --dot name the same file\n"
            assert Path(path).read_text() == "kept\n"
            assert not os.path.exists(fresh)
    other = os.path.join(files["dir"], "other.dot")
    assert run(["order", "--poset", m4, "--mu", mu, "--nu", nu,
                "--out", path, "--dot", other]) == (0, "")
    assert Path(path).read_text().startswith("LEQ: true\n")
    assert Path(other).read_text().startswith("digraph")


def test_out_and_dot_may_both_be_a_device(files, capsys):
    # a device is not a regular file: naming it twice is no conflict
    assert run(["order", "--poset", files["m4.poset"], "--mu", files["mu.val"],
                "--nu", files["top.val"], "--out", os.devnull,
                "--dot", os.devnull]) == (0, "")
    assert capsys.readouterr().err == ""


def test_order_negative_with_witness(files):
    code, out = run(["order", "--poset", files["m4.poset"],
                     "--mu", files["da.val"], "--nu", files["db.val"]])
    assert code == 1
    assert out.splitlines()[0] == "LEQ: false"
    assert "witness" in out


def test_usage_error_exit_2(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["order", "--poset", files["m4.poset"], "--bogus", "x"])
    assert exc.value.code == 2


def test_parse_error_exit_2(files, tmp_path):
    bad = tmp_path / "bad.poset"
    bad.write_text("element a\ncover a b\n")  # no bottom
    code, _ = run(["classify", "--poset", str(bad)])
    assert code == 2
    dup = tmp_path / "dup.poset"
    dup.write_text("element a\nelement a\nbottom a\n")
    code, _ = run(["classify", "--poset", str(dup)])
    assert code == 2
    heavy = tmp_path / "heavy.val"
    heavy.write_text("a 1\nb 1/2^3\n")
    code, _ = run(["order", "--poset", files["m4.poset"],
                   "--mu", str(heavy), "--nu", files["top.val"]])
    assert code == 2


def test_out_of_memory_exits_2(files, monkeypatch, capsys):
    # exit 1 is a negative verdict, so running out of memory must not be it
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(posetval.valuation, "way_below", exhausted)
    code, out = run(["waybelow", "--poset", files["m4.poset"],
                     "--mu", files["top.val"], "--nu", files["top.val"]])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: out of memory\n"


def test_waybelow_modes(files):
    code, out = run(["waybelow", "--poset", files["m4.poset"],
                     "--mu", files["stage1.val"], "--nu", files["top.val"],
                     "--normalized"])
    assert code == 0 and "WAY_BELOW: true" in out
    code, out = run(["waybelow", "--poset", files["m4.poset"],
                     "--mu", files["top.val"], "--nu", files["top.val"]])
    assert code == 1 and "WAY_BELOW: false" in out


def test_transport_negative_verdict(files):
    code, _ = run(["transport", "--poset", files["m4.poset"],
                   "--mu", files["da.val"], "--nu", files["db.val"]])
    assert code == 1


def test_classify(files):
    code, out = run(["classify", "--poset", files["c3.poset"]])
    assert code == 0
    assert "is_chain: true" in out


def test_schedule_and_represent_round_trip(files, tmp_path):
    out_path = tmp_path / "map.txt"
    code, _ = run(["represent", "--poset", files["m4.poset"],
                   "--mu", files["top.val"], "--K", "2",
                   "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("layers 3")

    from posetval import format_map, parse_map, parse_poset
    base = parse_poset(M4)
    assert format_map(parse_map(text, base)) == text


def test_represent_past_the_depth_bound_exits_2(tmp_path, capsys):
    # the first lift needs depth 21, a table of 2^21 words
    poset = tmp_path / "c2.poset"
    poset.write_text("element a\nelement b\nbottom a\ncover a b\n")
    mu = tmp_path / "deep.val"
    mu.write_text("a 1048575/2^20\nb 1/2^20\n")
    t0 = time.perf_counter()
    code, out = run(["represent", "--poset", str(poset), "--mu", str(mu),
                     "--K", "2"])
    assert time.perf_counter() - t0 < 5.0
    assert code == 2 and out == ""
    assert "exceeds the bound" in capsys.readouterr().err


def test_unrepresentable_K_exits_2_at_once(tmp_path, capsys):
    # every lift deepens the map by a level, so K steps need depth K or
    # more; the refusal comes before the schedule, whose stage exponents
    # grow with K, is built
    poset = tmp_path / "c2.poset"
    poset.write_text("element a\nelement b\nbottom a\ncover a b\n")
    mu = tmp_path / "half.val"
    mu.write_text("a 1/2^1\nb 1/2^1\n")
    for argv in (["sample", "--mu", str(mu)],
                 ["skorohod", "--mu", str(mu)],
                 ["represent", "--mu", str(mu)],
                 ["converge", "--seq", str(mu), "--nu", str(mu)]):
        capsys.readouterr()
        t0 = time.perf_counter()
        code, out = run(argv + ["--poset", str(poset), "--K", "100000"])
        assert time.perf_counter() - t0 < 2.0
        assert code == 2 and out == ""
        assert "exceeds the bound" in capsys.readouterr().err


def test_schedule_past_the_exponent_bound_exits_2_at_once(tmp_path, capsys):
    # stage k's exponent grows with k: K = 100000 ran 15 s, then failed
    # to print a numerator past Python's int-to-str digit limit
    poset = tmp_path / "c2.poset"
    poset.write_text("element a\nelement b\nbottom a\ncover a b\n")
    mu = tmp_path / "half.val"
    mu.write_text("a 1/2^1\nb 1/2^1\n")
    t0 = time.perf_counter()
    code, out = run(["schedule", "--poset", str(poset), "--mu", str(mu),
                     "--K", "100000"])
    assert time.perf_counter() - t0 < 2.0
    assert code == 2 and out == ""
    assert "exceeds the bound" in capsys.readouterr().err


def run_captured(argv):
    """main(argv) with stdout and stderr captured; help and usage errors
    leave through SystemExit, whose code stands for the exit status."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def mixed_argvs(files):
    """Answers, verdicts, help, usage errors and library errors."""
    cyclic = os.path.join(files["dir"], "cyclic.poset")
    with open(cyclic, "w", encoding="utf-8") as fh:
        fh.write("element a\nelement b\nbottom a\ncover a b\ncover b a\n")
    m4, c3 = ["--poset", files["m4.poset"]], ["--poset", files["c3.poset"]]
    mu, top = files["mu.val"], files["top.val"]
    return [
        ["order"] + m4 + ["--mu", mu, "--nu", top],
        ["order"] + m4 + ["--mu", top, "--nu", mu],
        ["--help"],
        ["order", "-h"],
        ["order"] + m4 + ["--mu", mu],
        ["nonsense"],
        [],
        ["schedule"] + m4 + ["--mu", top, "--K", "two"],
        ["schedule"] + m4 + ["--mu", top, "--K", "0"],
        ["classify", "--poset", cyclic],
        ["cdf"] + c3 + ["--mu", files["v3.val"]],
        ["waybelow"] + m4 + ["--mu", files["halftop.val"], "--nu", top],
        ["sample"] + m4 + ["--mu", mu, "--K", "2", "--count", "5"],
    ]


def test_parser_built_once_per_process(files, monkeypatch):
    # wrapped the way a tracer wraps it: count the builds and re-wrap the
    # parse_args of each parser built
    builds, parses = [], []
    real = cli._build_parser

    def counting():
        parser = real()
        builds.append(parser)
        inner = parser.parse_args

        def parse_args(*args, **kwargs):
            parses.append(args)
            return inner(*args, **kwargs)

        parser.parse_args = parse_args
        return parser

    monkeypatch.setattr(cli, "_build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    argvs = mixed_argvs(files)
    codes = [run_captured(argv)[0] for argv in argvs]
    assert len(builds) == 1 and len(parses) == len(argvs)
    assert {0, 1, 2} <= set(codes)


def test_reused_parser_prints_what_a_fresh_one_does(files, monkeypatch):
    argvs = mixed_argvs(files)
    monkeypatch.setattr(cli, "_parser", None)
    reused = [run_captured(argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(run_captured(argv))
    assert reused == fresh
    assert [r[0] for r in reused] == [0, 1, 0, 0, 2, 2, 2, 2, 2, 2, 0, 0, 0]
    # help reads the terminal width when it prints, not when it is built
    wraps = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        reused = run_captured(["order", "--help"])
        monkeypatch.setattr(cli, "_parser", None)
        assert run_captured(["order", "--help"]) == reused
        wraps.append(reused[1])
    assert wraps[0] != wraps[1]


def test_empty_file_names_exit_2(files, capsys):
    m4, mu = files["m4.poset"], files["mu.val"]
    for argv in (["order", "--mu", "", "--nu", mu],
                 ["order", "--mu", mu, "--nu", ""],
                 ["portmanteau", "--seq", mu + ",", "--nu", mu]):
        capsys.readouterr()
        code, out = run(argv + ["--poset", m4])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: ")


def test_skorohod_stdout_matches_grid_tabulation(tmp_path):
    rng = random.Random(2025)
    modes = set()
    for case in range(16):
        base = random_poset(rng, max_elements=7, density=0.35)
        poset = tmp_path / ("p%d.poset" % case)
        poset.write_text(format_poset(base))
        probability = case % 2 == 0
        target = random_valuation(rng, base, exp=rng.randint(0, 4),
                                  probability=probability)
        path = tmp_path / ("v%d.val" % case)
        path.write_text(format_valuation(target))
        steps = rng.randint(1, 4)
        w = skorohod(target, steps)
        d = w.precision
        law = law_by_grid_tabulation(w)
        if w.fresh_bottom is None:
            third = "driver %s" % w.describe()
        else:
            third = "defined %d" % sum(w.driver(r) != w.fresh_bottom
                                       for r in grid(d))
        modes.add(third.split()[0])
        want = ["precision %d" % d, "grid %d" % 2 ** d, third,
                "EXACT_LAW: true"]
        want.extend("law %s %s" % (x, law.weights[x]) for x in law.support)
        code, out = run(["skorohod", "--poset", str(poset),
                         "--mu", str(path), "--K", str(steps)])
        assert (code, out) == (0, "\n".join(want) + "\n")
    assert modes == {"driver", "defined"}


def test_sample_deterministic(files):
    argv = ["sample", "--poset", files["m4.poset"], "--mu", files["mu.val"],
            "--K", "1", "--seed", "7", "--count", "20"]
    code1, out1 = run(argv)
    code2, out2 = run(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "tally" in out1


def test_negative_sample_count_exits_2(files, capsys):
    argv = ["sample", "--poset", files["m4.poset"], "--mu", files["mu.val"]]
    capsys.readouterr()
    code, out = run(argv + ["--count", "-1"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("error: sample count")
    code, out = run(argv + ["--count", "0"])
    assert code == 0 and out == ""


def test_sample_tallies_a_long_chain_fast(tmp_path):
    # the tally is one pass over the draws, not one scan per element
    names = ["c%d" % i for i in range(4000)]
    poset = tmp_path / "chain.poset"
    poset.write_text(format_poset(posetval.Poset(
        names, list(zip(names, names[1:])), names[0])))
    mu = tmp_path / "mu.val"
    mu.write_text("c0 1/2^2\nc1999 1/2^1\nc3999 1/2^2\n")
    start = time.perf_counter()
    code, out = run(["sample", "--poset", str(poset), "--mu", str(mu),
                     "--count", "100000", "--seed", "3"])
    assert time.perf_counter() - start < 5
    assert code == 0
    lines = out.splitlines()
    draws, tally = lines[:100000], lines[100000:]
    counts = Counter(draws)
    assert tally == ["tally %s %d" % (x, counts[x]) for x in names
                     if counts[x]]
    assert len(tally) == 3


def test_sample_streams_its_draws(files, tmp_path):
    # draws go to the file a batch at a time: the whole list of 300 000 and
    # then its joined text took about 4 MB at the peak
    path = tmp_path / "draws.txt"
    argv = ["sample", "--poset", files["m4.poset"], "--mu", files["mu.val"],
            "--K", "1", "--seed", "5"]
    tracemalloc.start()
    try:
        code = main(argv + ["--count", "300000", "--out", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1 << 20
    lines = path.read_text().splitlines()
    draws, tally = lines[:300000], lines[300000:]
    counts = Counter(draws)
    assert tally == ["tally %s %d" % (x, counts[x]) for x in ("a", "b")]
    # across batch boundaries, a run's draws start every longer run's
    code, out = run(argv + ["--count", "10000"])
    assert code == 0 and out.splitlines()[:10000] == draws[:10000]


def test_schedule_streams_its_stages(tmp_path):
    # stages are made and written one at a time: 600 stages of a 40-point
    # target, each weight's numerator up to 606 bits, peaked at 8.5 MB
    # when every stage and then the whole text were held first (0.3 MB
    # when streamed, Python 3.11)
    names = ["x%d" % i for i in range(39)]
    poset = tmp_path / "flat40.poset"
    poset.write_text("element bot\nbottom bot\n" + "".join(
        "element %s\ncover bot %s\n" % (x, x) for x in names))
    mu = tmp_path / "t40.val"
    mu.write_text("".join("%s %d/2^6\n" % (x, 2 if i < 24 else 1)
                          for i, x in enumerate(["bot"] + names)))
    path = tmp_path / "schedule.txt"
    argv = ["schedule", "--poset", str(poset), "--mu", str(mu), "--K", "600"]
    tracemalloc.start()
    try:
        code = main(argv + ["--out", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1 << 20
    target = parse_valuation(mu.read_text(), parse_poset(poset.read_text()))
    want = []
    for k, stage in enumerate(build_schedule(target, 600)):
        want.append("stage %d" % k)
        want.extend("%s %s" % (x, w) for x, w in stage.weights.items())
    assert path.read_text() == "\n".join(want) + "\n"


def test_skorohod_command(files):
    code, out = run(["skorohod", "--poset", files["m4.poset"],
                     "--mu", files["mu.val"], "--K", "1"])
    assert code == 0
    assert "EXACT_LAW: true" in out
    code, out = run(["skorohod", "--poset", files["m4.poset"],
                     "--mu", files["halftop.val"], "--K", "2"])
    assert code == 0
    assert "defined" in out and "EXACT_LAW: true" in out


def test_the_driver_line_names_what_the_package_exports(files):
    # skorohod prints its driver as a formula over library functions; each
    # function it names stays reachable from the package, and the formula,
    # read with them on the witness's own map, is the driver at every point
    code, out = run(["skorohod", "--poset", files["m4.poset"],
                     "--mu", files["mu.val"], "--K", "2"])
    assert code == 0
    line = next(x for x in out.splitlines() if x.startswith("driver "))
    assert re.findall(r"(\w+)\(", line) == ["evaluate", "unit_to_word"]
    evaluate = posetval.RepresentationMap.evaluate
    unit_to_word = posetval.unit_to_word
    base = parse_poset(Path(files["m4.poset"]).read_text())
    w = skorohod(parse_valuation(Path(files["mu.val"]).read_text(), base), 2)
    d = w.precision
    assert line == "driver %s" % w.describe()
    assert all(evaluate(w.rmap, unit_to_word(r, d))[1] == w.driver(r)
               for r in grid(d))


def test_chain_commands(files, tmp_path):
    code, out = run(["cdf", "--poset", files["c3.poset"],
                     "--mu", files["v3.val"]])
    assert code == 0
    assert out.splitlines() == ["F c0 1/2^2", "F c1 1/2^1", "F c2 1"]

    qpath = tmp_path / "q.txt"
    code, _ = run(["quantile", "--poset", files["c3.poset"],
                   "--mu", files["v3.val"], "--out", str(qpath)])
    assert code == 0
    code, out = run(["pushforward-lebesgue", "--poset", files["c3.poset"],
                     "--quantile", str(qpath)])
    assert code == 0
    assert out == "c0 1/2^2\nc1 1/2^2\nc2 1/2^1\n"


def test_chain_command_bytes_on_a_chain_declared_out_of_order(tmp_path):
    # the chain c0 < c1 < c2 < c3 < c4, declared c3, c0, c4, c1, c2: cdf
    # and quantile list the chain from the bottom, and the pushforward
    # lists its law in declaration order
    poset = tmp_path / "c5.poset"
    poset.write_text("element c3\nelement c0\nelement c4\nelement c1\n"
                     "element c2\nbottom c0\ncover c2 c3\ncover c0 c1\n"
                     "cover c3 c4\ncover c1 c2\n")
    mu = tmp_path / "v.val"
    mu.write_text("c4 1/2^2\nc0 1/2^3\nc2 5/2^3\n")
    qpath = tmp_path / "q.txt"
    given = ["--poset", str(poset), "--mu", str(mu)]
    assert run(["cdf"] + given) == (0, "F c0 1/2^3\nF c1 1/2^3\n"
                                       "F c2 3/2^2\nF c3 3/2^2\nF c4 1\n")
    quantile = "break 1/2^3 c0\nbreak 3/2^2 c2\nbreak 1 c4\n"
    assert run(["quantile"] + given) == (0, quantile)
    assert run(["quantile"] + given + ["--out", str(qpath)]) == (0, "")
    assert qpath.read_text() == quantile
    assert run(["pushforward-lebesgue", "--poset", str(poset),
                "--quantile", str(qpath)]) \
        == (0, "c0 1/2^3\nc4 1/2^2\nc2 5/2^3\n")


def test_quantile_threshold_above_one_exits_2(files, tmp_path, capsys):
    qpath = tmp_path / "q.txt"
    for text, bad in (("break 2 c0\n", "line 1: threshold 2"),
                      ("break 3/2^2 c0\nbreak 3/2^1 c2\n",
                       "line 2: threshold 3/2^1")):
        qpath.write_text(text)
        capsys.readouterr()
        code, out = run(["pushforward-lebesgue", "--poset", files["c3.poset"],
                         "--quantile", str(qpath)])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: %s exceeds 1\n" % bad


def test_portmanteau_command(files):
    seq = ",".join([files["stage1.val"], files["stage2.val"],
                    files["top.val"]])
    code, out = run(["portmanteau", "--poset", files["m4.poset"],
                     "--seq", seq, "--nu", files["top.val"], "--from", "0"])
    assert code == 0
    assert "PORTMANTEAU: pass" in out

    bad = ",".join([files["da.val"], files["da.val"]])
    code, out = run(["portmanteau", "--poset", files["m4.poset"],
                     "--seq", bad, "--nu", files["top.val"]])
    assert code == 1
    assert "PORTMANTEAU: fail" in out and "witness" in out


def test_converge_command(files):
    seq = ",".join([files["stage1.val"], files["stage2.val"],
                    files["top.val"]])
    code, out = run(["converge", "--poset", files["m4.poset"],
                     "--seq", seq, "--nu", files["top.val"], "--K", "2"])
    assert code == 0
    assert "CONVERGENCE: pass" in out

    code, _ = run(["converge", "--poset", files["m4.poset"],
                   "--seq", ",".join([files["da.val"]] * 3),
                   "--nu", files["top.val"], "--K", "2"])
    assert code == 1


def _legs_poset(count, length):
    lines = ["element bot"]
    lines += ["element l%d_%d" % (a, k)
              for a in range(count) for k in range(length)]
    lines.append("bottom bot")
    lines += ["cover %s l%d_%d" % ("bot" if k == 0 else "l%d_%d" % (a, k - 1),
                                   a, k)
              for a in range(count) for k in range(length)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("shape, top, uppers", [
    (_legs_poset(4, 4), "l3_3", 5 ** 4 + 1),    # 17 elements
    (_legs_poset(1, 39), "l0_38", 41),          # a 40-element chain
], ids=["17-elements", "40-chain"])
def test_convergence_commands_past_16_elements(tmp_path, shape, top, uppers):
    poset = tmp_path / "big.poset"
    poset.write_text(shape)
    vals = []
    for k, text in enumerate(["bot 1/2^1\n%s 1/2^1\n" % top,
                              "bot 1/2^2\n%s 3/2^2\n" % top,
                              "%s 1\n" % top]):
        path = tmp_path / ("s%d.val" % k)
        path.write_text(text)
        vals.append(str(path))
    seq = ",".join(vals)
    code, out = run(["portmanteau", "--poset", str(poset), "--seq", seq,
                     "--nu", vals[-1]])
    assert code == 0
    assert out.count("\nU ") + out.startswith("U ") == uppers
    assert out.endswith("PORTMANTEAU: pass\n")
    code, out = run(["converge", "--poset", str(poset), "--seq", seq,
                     "--nu", vals[-1], "--K", "2"])
    assert code == 0
    assert out.endswith("CONVERGENCE: pass\n")
    code, out = run(["converge", "--poset", str(poset),
                     "--seq", ",".join([vals[0]] * 3), "--nu", vals[-1],
                     "--K", "2"])
    assert code == 1 and out == ""


def test_convergence_on_small_support_past_the_upper_set_budget(
        tmp_path, capsys):
    # e0 under 16 incomparable elements: 2^16 + 1 upper sets, but only 3
    # traces on the support {e0, e1}
    names = ["e%d" % i for i in range(17)]
    base = posetval.Poset(names, [("e0", x) for x in names[1:]], "e0")
    poset = tmp_path / "wide.poset"
    poset.write_text(format_poset(base))
    val = tmp_path / "v.val"
    val.write_text("e0 1/2^1\ne1 1/2^1\n")
    v = posetval.parse_valuation(val.read_text(), base)
    start = time.perf_counter()
    report = portmanteau_check([v, v], v)
    assert report.verdict and len(report.records) == 3
    args = ["--poset", str(poset), "--seq", "%s,%s" % (val, val),
            "--nu", str(val)]
    code, out = run(["converge"] + args + ["--K", "2"])
    assert code == 0 and out.endswith("CONVERGENCE: pass\n")
    assert time.perf_counter() - start < 2
    # the default listing still walks every upper set of the poset
    capsys.readouterr()
    assert run(["portmanteau"] + args) == (2, "")
    assert "oracle budget" in capsys.readouterr().err


def test_portmanteau_bytes_match_whole_poset_loop(tmp_path):
    rng = random.Random(2024)
    exits = set()
    for case in range(12):
        base = random_poset(rng, max_elements=9, density=0.3)
        poset = tmp_path / ("p%d.poset" % case)
        poset.write_text(format_poset(base))
        vals = [random_valuation(rng, base, exp=2) for _ in range(4)]
        if case % 3 == 0:       # a constant tail passes
            vals = [vals[0]] * 4
        paths = []
        for k, v in enumerate(vals):
            path = tmp_path / ("v%d_%d.val" % (case, k))
            path.write_text(format_valuation(v))
            paths.append(str(path))
        from_index = rng.randrange(3)
        records, witness = portmanteau_by_upper_sets(vals[:3], vals[3],
                                                     from_index)
        want = ["U %s open %s closed %s"
                % (r.upper, "ok" if r.open_ok else "fail",
                   "ok" if r.closed_ok else "fail") for r in records]
        want.append("PORTMANTEAU: %s" % ("pass" if witness is None
                                         else "fail"))
        if witness is not None:
            want.append("witness %s" % witness)
        code, out = run(["portmanteau", "--poset", str(poset),
                         "--seq", ",".join(paths[:3]), "--nu", paths[3],
                         "--from", str(from_index)])
        assert (code, out) == (int(witness is not None),
                               "\n".join(want) + "\n")
        exits.add(code)
    assert exits == {0, 1}


def test_subprocess_entry_point(files):
    # the module entry point behaves like main(): the answer and exit 0 of
    # a run that succeeds, then exit 2 with an error line and no answer
    # for a --poset file that is missing; the child imports the same
    # package as this test, installed or from the source tree
    src = os.path.dirname(os.path.dirname(posetval.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def entry(poset):
        return subprocess.run(
            [sys.executable, "-m", "posetval", "classify", "--poset", poset],
            capture_output=True, text=True, env=env)

    proc = entry(files["m4.poset"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "is_bounded_complete: true\nis_chain: false\nis_lattice: true\n",
        "")
    missing = os.path.join(files["dir"], "missing.poset")
    proc = entry(missing)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: [Errno 2] No such file or directory: %r\n"
                           % missing)
