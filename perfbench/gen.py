"""Seeded input generators.

Everything a workload feeds the program is drawn here from a
`random.Random(seed)`, as plain names, cover lists and `Fraction` weights.
Decision pairs are built so that their answer is known in advance:

* rho <= nu when nu is rho with its mass pushed upward;
* rho <= nu fails when nu is rho with some mass pushed strictly downward;
* (1 - 2^-j) rho + 2^-j delta_bottom << nu in normalized mode, for rho <= nu;
* rho / 2 << nu in subprobability mode, for rho <= nu;
* nu << nu fails in both modes whenever nu is not delta_bottom.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from oracle import Order


@dataclass
class PosetSpec:
    names: list        # declaration order
    covers: list       # (lower, upper) name pairs
    bottom: str
    order: Order


def random_poset(n, prefix="x", window=8):
    """A sparse poset: element i covers one or two of the `window` before it.

    Element 0 is the bottom, and elements are declared bottom-up, as a
    user would write the file. The cover structure comes from a generator
    seeded by the name and size alone: a poset of a given size has the
    same shape under every benchmark seed, so the cost of the operations
    on it does not swing with the seed, which draws supports and weights.
    """
    shape = random.Random("%s/%d/%d" % (prefix, n, window))
    names = ["%s%d" % (prefix, i) for i in range(n)]
    covers = []
    for i in range(1, n):
        lows = range(max(0, i - window), i)
        for j in shape.sample(lows, min(len(lows), shape.choice((1, 1, 2)))):
            covers.append((names[j], names[i]))
    return PosetSpec(names, covers, names[0], Order(names, covers, names[0]))


def chain(n, prefix="c"):
    """A chain declared from the bottom up, as a user would write it."""
    names = ["%s%d" % (prefix, i) for i in range(n)]
    covers = [(names[i], names[i + 1]) for i in range(n - 1)]
    return PosetSpec(names, covers, names[0], Order(names, covers, names[0]))


def random_probability(rng, support, exp):
    """Weights k/2^exp summing to 1 over `support`, at least one k odd."""
    total = 1 << exp
    if 2 * len(support) > total:
        raise ValueError("support too large for 2^%d" % exp)
    cuts = sorted(rng.sample(range(1, total), len(support) - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    if all(k % 2 == 0 for k in parts) and len(parts) > 1:
        parts[0] -= 1
        parts[1] += 1
    return {x: Fraction(k, total) for x, k in zip(support, parts)}


def pick_support(rng, spec, size):
    return rng.sample(spec.names, size)


def _add(out, x, w):
    out[x] = out.get(x, 0) + w


def push_up(rng, spec, val):
    """Move each weight, whole or in two pieces, to elements above it."""
    out = {}
    for x, w in val.items():
        ups = spec.order.up(x)
        den = w.denominator
        units = w.numerator
        if units >= 2 and rng.random() < 0.5:
            first = rng.randrange(1, units)
            pieces = [Fraction(first, den), Fraction(units - first, den)]
        else:
            pieces = [w]
        for piece in pieces:
            _add(out, rng.choice(ups), piece)
    return out


def push_down(rng, spec, val):
    """Move mass downward, strictly for at least one support element."""
    out = {}
    strict = next(x for x in val if x != spec.bottom)
    for x, w in val.items():
        downs = [y for y in spec.order.down(x) if y != x]
        if x == strict or (downs and rng.random() < 0.5):
            _add(out, rng.choice(downs), w)
        else:
            _add(out, x, w)
    return out


def blend(nu, rho, c):
    """(1 - 2^-c) nu + 2^-c rho."""
    eps = Fraction(1, 1 << c)
    out = {x: (1 - eps) * w for x, w in nu.items()}
    for x, w in rho.items():
        _add(out, x, eps * w)
    return out


def halve(val):
    return {x: w / 2 for x, w in val.items()}


def spread(lo, hi, count):
    """`count` integers spread evenly over [lo, hi]."""
    if count == 1:
        return [lo]
    return [lo + round((hi - lo) * i / (count - 1)) for i in range(count)]
