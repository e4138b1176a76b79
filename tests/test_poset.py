import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetval import Poset, format_poset, parse_poset
from posetval import poset as posetmod
from posetval.errors import OrderViolation, ParseError, TooLarge, UnknownElement

from conftest import make_chain, random_poset, shuffled_poset
from oracles import (classify_by_scan, down_set, reachable_by_search, up_set,
                     upper_sets_by_filtering, upper_sets_by_masks)


def test_leq_examples(m4):
    assert m4.leq("bot", "top")
    assert not m4.leq("a", "b")
    assert m4.leq("a", "a")
    with pytest.raises(UnknownElement):
        m4.leq("a", "zz")


def test_upper_set_enumeration(m4, c3):
    m4_uppers = {u.members for u in m4.enumerate_upper_sets()}
    assert m4_uppers == set(upper_sets_by_filtering(m4))
    assert len(m4_uppers) == 6
    assert frozenset() in m4_uppers and frozenset(m4.elements) in m4_uppers

    single = Poset(["x"], [], "x")
    assert len(single.enumerate_upper_sets()) == 2
    assert len(c3.enumerate_upper_sets()) == 4
    assert {u.members for u in c3.enumerate_upper_sets()} \
        == set(upper_sets_by_filtering(c3))


def test_upper_sets_form_topology(m4):
    uppers = {u.members for u in m4.enumerate_upper_sets()}
    for u in uppers:
        for v in uppers:
            assert u | v in uppers
            assert u & v in uppers


def test_oracle_bound():
    # 2^16 + 1 upper sets on 17 elements pass 16 * 2^16, the most a
    # 16-element poset can need; the message names the budget
    big = Poset(["e%d" % i for i in range(17)],
                [("e0", "e%d" % i) for i in range(1, 17)], "e0")
    with pytest.raises(TooLarge, match=r"^upper sets of 17 elements exceed "
                       r"the oracle budget 16 \* 2\^16$"):
        big.enumerate_upper_sets()


def legs(count, length):
    """A bottom under `count` disjoint chains of `length` elements."""
    names = ["bot"] + ["l%d_%d" % (a, k)
                       for a in range(count) for k in range(length)]
    covers = [("bot" if k == 0 else "l%d_%d" % (a, k - 1), "l%d_%d" % (a, k))
              for a in range(count) for k in range(length)]
    return Poset(names, covers, "bot")


def test_upper_set_budget_follows_the_output(monkeypatch):
    # a 17-element poset with 5^4 + 1 upper sets is well inside the budget
    four = legs(4, 4)
    uppers = [u.members for u in four.enumerate_upper_sets()]
    assert len(uppers) == 5 ** 4 + 1 == len(set(uppers))
    assert all(four.is_upper(u) for u in uppers)
    masks = [sum(1 << four.index[x] for x in u) for u in uppers]
    assert masks == sorted(masks)
    chain = make_chain(40)
    assert [len(u.members) for u in chain.enumerate_upper_sets()] \
        == list(range(41))
    # (sets found) x (elements) against 16 * 2^16: the 2^16 upper sets of a
    # 16-antichain, given as raw up-masks, come to exactly the budget, and
    # a 17-antichain passes it
    masks = posetmod.upper_masks([1 << i for i in range(16)])
    assert masks == list(range(1 << 16))
    with pytest.raises(TooLarge, match="17 elements exceed the oracle "
                       "budget 16 \\* 2\\^16"):
        posetmod.upper_masks([1 << i for i in range(17)])
    # the budget stops a poset's enumeration before it builds any UpperSet
    built = []
    wide = Poset(["e%d" % i for i in range(17)],
                 [("e0", "e%d" % i) for i in range(1, 17)], "e0")
    with monkeypatch.context() as m:
        m.setattr(posetmod, "UpperSet", lambda *args: built.append(args))
        with pytest.raises(TooLarge, match="budget 16 \\* 2\\^16"):
            wide.enumerate_upper_sets()
    assert built == []


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_upper_sets_match_mask_scan(seed):
    rng = random.Random(seed)
    p = shuffled_poset(rng, 14, rng.choice([0.05, 0.2, 0.5]))
    uppers = [u.members for u in p.enumerate_upper_sets()]
    assert uppers == upper_sets_by_masks(p)
    for x in p.elements:
        assert up_set(p, x) == frozenset(y for y in p.elements if p.leq(x, y))
    sub = [x for x in p.elements if rng.random() < 0.5]
    assert p.is_upper(sub) == (frozenset(sub) in uppers)


def test_classify(m4, c3):
    assert m4.classify() == {"is_chain": False, "is_bounded_complete": True,
                             "is_lattice": True}
    assert c3.classify() == {"is_chain": True, "is_bounded_complete": True,
                             "is_lattice": True}
    vee = Poset(["bot", "a", "b"], [("bot", "a"), ("bot", "b")], "bot")
    assert vee.classify() == {"is_chain": False, "is_bounded_complete": True,
                              "is_lattice": False}
    # a bowtie under a top: c and d have the common lower bounds a and b
    # but no greatest one, so a top alone does not make a lattice
    bowtie = Poset(["bot", "a", "b", "c", "d", "top"],
                   [("bot", "a"), ("bot", "b"), ("a", "c"), ("a", "d"),
                    ("b", "c"), ("b", "d"), ("c", "top"), ("d", "top")],
                   "bot")
    assert bowtie.classify() == {"is_chain": False,
                                 "is_bounded_complete": False,
                                 "is_lattice": False}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_classify_matches_scan(seed):
    rng = random.Random(seed)
    p = shuffled_poset(rng, 30, rng.choice([0.05, 0.2, 0.5, 0.9]))
    if rng.random() < 0.5:
        # a fresh top above every maximal element, declared anywhere
        names = list(p.elements)
        names.insert(rng.randrange(len(names) + 1), "top")
        p = Poset(names, p.covers + [(x, "top") for x in p.elements
                                     if up_set(p, x) == {x}], p.bottom)
    assert p.classify() == classify_by_scan(p)
    # a chain in shuffled declaration order goes through the same scan
    n = rng.randint(1, 12)
    names = ["c%d" % k for k in range(n)]
    chain = Poset(rng.sample(names, n), list(zip(names, names[1:])), "c0")
    assert chain.classify() == classify_by_scan(chain) \
        == {"is_chain": True, "is_bounded_complete": True, "is_lattice": True}


def test_leq_returns_bool(m4):
    assert m4.leq("bot", "top") is True
    assert m4.leq("a", "b") is False


def test_long_chain_builds_and_classifies_fast():
    # Warshall's closure and the pairwise scans of `classify` took 5 s here
    t0 = time.perf_counter()
    chain = make_chain(2000)
    flags = chain.classify()
    assert time.perf_counter() - t0 < 1.0
    assert flags == {"is_chain": True, "is_bounded_complete": True,
                     "is_lattice": True}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(["chain", "chain+1",
                                                 "random"]))
def test_is_chain_matches_scan(seed, shape):
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    if shape == "random":
        p = shuffled_poset(rng, n, rng.choice([0.2, 0.6, 0.9]))
    else:
        # a chain in shuffled declaration order; "chain+1" hangs one more
        # element above a random link, incomparable with the links above
        ranks = list(range(n))
        rng.shuffle(ranks)
        names = ["x%d" % r for r in ranks]
        covers = [("x%d" % r, "x%d" % (r + 1)) for r in range(n - 1)]
        if shape == "chain+1" and n > 1:
            names.insert(rng.randrange(n + 1), "odd")
            covers.append(("x%d" % rng.randrange(n - 1), "odd"))
        p = Poset(names, covers, "x0")
    assert p._is_chain() == classify_by_scan(p)["is_chain"]
    if shape == "chain":
        assert p._is_chain()
    elif shape == "chain+1" and n > 1:
        assert not p._is_chain()


def test_classify_is_fast_on_long_chains():
    # the pairwise scan over all common bounds took 0.61 s here
    chain = make_chain(96)
    t0 = time.perf_counter()
    flags = chain.classify()
    assert time.perf_counter() - t0 < 0.2
    assert flags == {"is_chain": True, "is_bounded_complete": True,
                     "is_lattice": True}
    assert legs(3, 30).classify() == {"is_chain": False,
                                      "is_bounded_complete": True,
                                      "is_lattice": False}


def test_construction_rejects_bad_orders():
    with pytest.raises(OrderViolation):
        Poset(["a", "b"], [("a", "b"), ("b", "a")], "a")  # cycle
    with pytest.raises(OrderViolation):
        Poset(["a", "b"], [], "a")  # bottom not below b
    with pytest.raises(OrderViolation):
        Poset(["a", "a"], [], "a")  # duplicate
    with pytest.raises(UnknownElement):
        Poset(["a"], [("a", "b")], "a")


def test_up_down_sets(m4):
    assert up_set(m4, "bot") == frozenset(m4.elements)
    assert up_set(m4, "a") == frozenset({"a", "top"})
    assert down_set(m4, "a") == frozenset({"bot", "a"})
    for x in m4.elements:
        assert m4.is_upper(up_set(m4, x))


def test_random_posets_are_valid_orders():
    rng = random.Random(7)
    for _ in range(30):
        p = random_poset(rng)
        for x in p.elements:
            assert p.leq(p.bottom, x)
            assert p.leq(x, x)
        for x in p.elements:
            for y in p.elements:
                for z in p.elements:
                    if p.leq(x, y) and p.leq(y, z):
                        assert p.leq(x, z)
                if x != y:
                    assert not (p.leq(x, y) and p.leq(y, x))


def test_lift(m4):
    lifted = m4.lift()
    assert len(lifted) == 5
    assert lifted.leq(lifted.bottom, "bot")
    assert lifted.bottom not in m4.index


def test_parse_format_round_trip(m4):
    text = format_poset(m4)
    again = parse_poset(text)
    assert again.elements == m4.elements
    assert again.covers == m4.covers
    assert again.bottom == m4.bottom


def test_parse_two_chain():
    p = parse_poset("element a\nelement b\nbottom a\ncover a b\n")
    assert p.classify()["is_chain"] and len(p) == 2


def test_parse_errors():
    with pytest.raises(OrderViolation):
        parse_poset("element a\nelement b\ncover a b\n")  # no bottom
    with pytest.raises(ParseError):
        parse_poset("element a\nelement a\nbottom a\n")  # duplicate line
    with pytest.raises(ParseError):
        parse_poset("elemnt a\nbottom a\n")  # typo directive
    with pytest.raises(ParseError) as err:
        parse_poset("element a\nbottom a\nbogus\n")
    assert err.value.line == 3


def test_dot_export(m4):
    dot = m4.to_dot()
    assert dot.startswith("digraph")
    assert '"bot" -> "a";' in dot


def test_dot_export_of_non_string_names():
    dot = Poset([0, 1], [(0, 1)], 0).to_dot()
    assert dot == ('digraph poset {\n  rankdir=BT;\n  "0";\n  "1";\n'
                   '  "0" -> "1";\n}\n')


def test_chain_factory():
    c8 = make_chain(8)
    assert c8.classify()["is_chain"]
    assert len(c8.enumerate_upper_sets()) == 9


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_closure_matches_reachability(seed):
    # covers run forward along a shuffled order, plus, half the time, one
    # to three backward covers that may close cycles, several of them
    # disjoint with different least elements; e0 is the bottom
    rng = random.Random(seed)
    n = rng.randint(1, 60)
    order = list(range(1, n))
    rng.shuffle(order)
    order = [0] + order
    density = rng.choice([0.02, 0.08, 0.3])
    covers = [(0, i) for i in range(1, n) if rng.random() < 0.5]
    covers += [(order[a], order[b]) for a in range(1, n)
               for b in range(a + 1, n) if rng.random() < density]
    covers += [(0, order[a]) for a in range(1, n)
               if not any(j == order[a] for _, j in covers)]
    for _ in range(rng.randint(1, 3) if n > 1 and rng.random() < 0.5 else 0):
        b = rng.randrange(1, n)
        a = rng.randrange(b)
        covers.append((order[b], order[a]))
    names = ["e%d" % i for i in range(n)]
    up = reachable_by_search(n, covers)
    cyclic = any(j in up[i] and i in up[j]
                 for i in range(n) for j in range(n) if i != j)
    args = (names, [(names[i], names[j]) for i, j in covers], "e0")
    if cyclic:
        # the message names the first pair, in declaration order, that
        # lie on a common cycle
        i, j = next((i, j) for i in range(n) for j in range(i + 1, n)
                    if j in up[i] and i in up[j])
        with pytest.raises(OrderViolation) as err:
            Poset(*args)
        assert str(err.value) == ("antisymmetry fails: %s and %s"
                                  % (names[i], names[j]))
        return
    p = Poset(*args)
    assert all(p.leq(names[i], names[j]) == (j in up[i])
               for i in range(n) for j in range(n))
    assert p._up_mask == [sum(1 << j for j in up[i]) for i in range(n)]


def test_long_cycle_refused_quickly():
    # c0 < ... < c3999 lead up to a cycle through c4000..c7999; the first
    # pair on it is its two least elements
    names = ["c%d" % i for i in range(8000)]
    covers = list(zip(names, names[1:])) + [("c7999", "c4000")]
    start = time.perf_counter()
    with pytest.raises(OrderViolation) as err:
        Poset(names, covers, "c0")
    assert time.perf_counter() - start < 2
    assert str(err.value) == "antisymmetry fails: c4000 and c4001"


def _sparse_covers(names, seed):
    """Element i covers two of the 50 elements before it."""
    rng = random.Random(seed)
    return [(names[j], names[i]) for i in range(1, len(names))
            for j in rng.sample(range(max(0, i - 50), i), min(2, i))]


@pytest.mark.parametrize("shape", ["chain", "sparse"])
def test_large_posets_stay_small_and_fast(shape):
    # 4000 elements: the order is n bitsets, so building, classifying and
    # a down-set stay well under 32 MB and 5 s
    n = 4000
    names = ["s%d" % i for i in range(n)]
    covers = (list(zip(names, names[1:])) if shape == "chain"
              else _sparse_covers(names, 11))
    below = {x: [] for x in names}
    for lo, hi in covers:
        below[hi].append(lo)
    down, stack = {names[-1]}, [names[-1]]
    while stack:
        for lo in below[stack.pop()]:
            if lo not in down:
                down.add(lo)
                stack.append(lo)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        p = Poset(names, covers, names[0])
        flags = p.classify()
        top_down = down_set(p, names[-1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5
    assert peak < 32 << 20
    assert flags["is_chain"] == (shape == "chain")
    assert top_down == down
