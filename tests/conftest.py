import random

import pytest

from posetval import (ONE, Dyadic, Poset, SimpleValuation, add, delta, flow,
                      scale)

from oracles import down_set


@pytest.fixture
def m4():
    """Diamond: bot below incomparable a, b below top."""
    return Poset(["bot", "a", "b", "top"],
                 [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
                 "bot")


@pytest.fixture
def c3():
    return Poset(["c0", "c1", "c2"], [("c0", "c1"), ("c1", "c2")], "c0")


def make_chain(length):
    names = ["c%d" % i for i in range(length)]
    return Poset(names, list(zip(names, names[1:])), names[0])


@pytest.fixture
def solves(monkeypatch):
    """The networks passed to flow.max_flow, from every caller, in order."""
    calls = []
    real = flow.max_flow

    def counting(net):
        calls.append(net)
        return real(net)

    monkeypatch.setattr(flow, "max_flow", counting)
    return calls


def random_poset(rng: random.Random, max_elements=6, density=0.4,
                 size=None) -> Poset:
    """Random order on e0..ek with e0 as bottom; acyclic by index order.
    It has `size` elements if given, else 1..max_elements at random."""
    n = rng.randint(1, max_elements) if size is None else size
    names = ["e%d" % i for i in range(n)]
    covers = [("e0", x) for x in names[1:]]
    for i in range(1, n):
        for j in range(i + 1, n):
            if rng.random() < density:
                covers.append((names[i], names[j]))
    return Poset(names, covers, "e0")


def shuffled_poset(rng, max_elements, density, size=None):
    """A random poset whose declaration order need not extend its order."""
    p = random_poset(rng, max_elements, density, size)
    names = list(p.elements)
    rng.shuffle(names)
    return Poset(names, p.covers, p.bottom)


def random_valuation(rng: random.Random, base: Poset, exp=4,
                     probability=False) -> SimpleValuation:
    """Weights are unit multiples of 2^-exp spread over random elements."""
    units = (1 << exp) if probability else rng.randint(0, 1 << exp)
    weights = {}
    for _ in range(units):
        x = rng.choice(base.elements)
        weights[x] = weights.get(x, Dyadic(0, 0)) + Dyadic(1, exp)
    return SimpleValuation(base, weights)


def random_monotone_integrand(rng: random.Random, base: Poset, exp=4):
    """f(x) = max of raw random values over the down-set of x."""
    raw = {x: Dyadic(rng.randint(0, 1 << exp), exp) for x in base.elements}
    return {x: max((raw[y] for y in down_set(base, x)), default=raw[x])
            for x in base.elements}


def normalize(v: SimpleValuation) -> SimpleValuation:
    """Send the missing mass to bottom; a projection onto probability."""
    gap = ONE - v.mass
    if gap.is_zero():
        return v
    return add(v, scale(delta(v.base, v.base.bottom), gap))


def grid(d: int) -> list:
    """The grid {i/2^d : 1 <= i <= 2^d} of a witness of precision d."""
    return [Dyadic(i, d) for i in range(1, (1 << d) + 1)]
