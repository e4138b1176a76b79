"""Checks made apart from posetval.

Nothing here calls the library. Orders are closed from the generated cover
lists by a reverse topological sweep (the library uses Warshall), weights
are `fractions.Fraction`, and upper sets are enumerated from bitmasks. Every
checker raises `Mismatch` on a wrong result and returns quietly otherwise.
"""

from fractions import Fraction


class Mismatch(Exception):
    """A program output disagrees with the independent computation."""


def expect(cond, message, *args):
    if not cond:
        raise Mismatch(message % args if args else message)


# -- dyadic text form ---------------------------------------------------------

def dyadic_text(f: Fraction) -> str:
    """The library's printed form of a dyadic, derived from the fraction."""
    den = f.denominator
    expect(den & (den - 1) == 0, "not dyadic: %s", f)
    if den == 1:
        return str(f.numerator)
    return "%d/2^%d" % (f.numerator, den.bit_length() - 1)


def parse_dyadic_text(text: str) -> Fraction:
    if "/" in text:
        num, den = text.split("/")
        expect(den.startswith("2^"), "bad dyadic %r", text)
        return Fraction(int(num), 1 << int(den[2:]))
    return Fraction(int(text))


# -- orders -------------------------------------------------------------------

class Order:
    """Reflexive-transitive closure of a cover list, as upward bitmasks."""

    def __init__(self, names, covers, bottom):
        self.names = list(names)
        self.bottom = bottom
        self.index = {x: i for i, x in enumerate(self.names)}
        above = [[] for _ in self.names]
        below_count = [0] * len(self.names)
        for lo, hi in covers:
            above[self.index[lo]].append(self.index[hi])
            below_count[self.index[hi]] += 1
        # Kahn order from the minimal elements, then close in reverse
        ready = [i for i, c in enumerate(below_count) if c == 0]
        topo = []
        while ready:
            i = ready.pop()
            topo.append(i)
            for j in above[i]:
                below_count[j] -= 1
                if below_count[j] == 0:
                    ready.append(j)
        expect(len(topo) == len(self.names), "cover list has a cycle")
        up = [0] * len(self.names)
        for i in reversed(topo):
            m = 1 << i
            for j in above[i]:
                m |= up[j]
            up[i] = m
        self.up_mask = up

    def leq(self, x, y) -> bool:
        return bool(self.up_mask[self.index[x]] >> self.index[y] & 1)

    def mask(self, members) -> int:
        m = 0
        for x in members:
            m |= 1 << self.index[x]
        return m

    def members(self, mask):
        return [x for i, x in enumerate(self.names) if mask >> i & 1]

    def up(self, x):
        return self.members(self.up_mask[self.index[x]])

    def down(self, x):
        i = self.index[x]
        return [y for j, y in enumerate(self.names) if self.up_mask[j] >> i & 1]

    def is_upper_mask(self, mask) -> bool:
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            if self.up_mask[i] & ~mask:
                return False
            m &= m - 1
        return True

    def upper_masks(self):
        """Every upper set as a bitmask, ascending."""
        return [m for m in range(1 << len(self.names)) if self.is_upper_mask(m)]

    def is_maximal(self, x) -> bool:
        return self.up_mask[self.index[x]] == 1 << self.index[x]

    def ascending(self):
        """A chain's elements from bottom to top."""
        return sorted(self.names,
                      key=lambda x: -bin(self.up_mask[self.index[x]]).count("1"))


def mass_on(val: dict, mask: int, order: Order) -> Fraction:
    return sum((w for x, w in val.items() if mask >> order.index[x] & 1),
               Fraction(0))


# -- decisions ----------------------------------------------------------------

def check_plan(order: Order, mu: dict, nu: dict, entries: dict):
    """entries[(x, y)] moves mass only upward, empties mu, fits in nu."""
    rows, cols = {}, {}
    for (x, y), t in entries.items():
        expect(t > 0, "plan entry %s->%s is not positive", x, y)
        expect(order.leq(x, y), "plan moves mass down from %s to %s", x, y)
        rows[x] = rows.get(x, 0) + t
        cols[y] = cols.get(y, 0) + t
    for x in set(mu) | set(rows):
        expect(rows.get(x, 0) == mu.get(x, 0),
               "plan row %s sums to %s, not %s", x, rows.get(x, 0), mu.get(x, 0))
    for y, c in cols.items():
        expect(c <= nu.get(y, 0), "plan column %s exceeds nu", y)


def check_witness(order: Order, mu: dict, nu: dict, members):
    """members is an upper set carrying more mu-mass than nu-mass."""
    mask = order.mask(members)
    expect(order.is_upper_mask(mask), "witness %s is not upward closed",
           sorted(members))
    expect(mass_on(mu, mask, order) > mass_on(nu, mask, order),
           "witness %s does not separate mu from nu", sorted(members))


def brute_leq(order: Order, mu: dict, nu: dict) -> bool:
    """mu <= nu on every upper set; exponential, for small posets only."""
    return all(mass_on(mu, m, order) <= mass_on(nu, m, order)
               for m in order.upper_masks())


def brute_way_below_sub(order: Order, mu: dict, nu: dict) -> bool:
    """Strict Hall condition over every nonempty subset of mu's support."""
    supp = list(mu)
    for bits in range(1, 1 << len(supp)):
        sub = [supp[i] for i in range(len(supp)) if bits >> i & 1]
        up = 0
        for x in sub:
            up |= order.up_mask[order.index[x]]
        if not sum((mu[x] for x in sub), Fraction(0)) < mass_on(nu, up, order):
            return False
    return True


def brute_way_below_norm(order: Order, mu: dict, nu: dict, depth=40) -> bool:
    """mu <= (1 - 2^-k) nu + 2^-k bottom for some k <= depth."""
    for k in range(1, depth + 1):
        eps = Fraction(1, 1 << k)
        shifted = {x: (1 - eps) * w for x, w in nu.items()}
        shifted[order.bottom] = shifted.get(order.bottom, 0) + eps
        if brute_leq(order, mu, shifted):
            return True
    return False


# -- representation maps ------------------------------------------------------

def check_law(target: dict, counts: dict, depth: int):
    """counts over all 2^depth words equal the target weights exactly."""
    expect(sum(counts.values()) == 1 << depth, "tabulated %d words, not 2^%d",
           sum(counts.values()), depth)
    law = {x: Fraction(c, 1 << depth) for x, c in counts.items() if c}
    expect(law == {x: w for x, w in target.items() if w},
           "law by counting %s differs from target %s", law, target)


def words(depth: int):
    """Every depth-bit word in lexicographic order."""
    return [format(i, "0%db" % depth) if depth else "" for i in range(1 << depth)]


def schedule_stage(target: dict, bottom, k: int, steps: int) -> dict:
    """Stage k of the convex schedule: (1 - 2^-k) target + 2^-k bottom."""
    if k == 0:
        return {bottom: Fraction(1)}
    if k == steps or target == {bottom: Fraction(1)}:
        return dict(target)
    eps = Fraction(1, 1 << k)
    out = {x: (1 - eps) * w for x, w in target.items()}
    out[bottom] = out.get(bottom, 0) + eps
    return out


def tail_index(flags):
    """Least n with flags[n:] all true; None when the last flag is false."""
    if not flags or not flags[-1]:
        return None
    n = len(flags) - 1
    while n > 0 and flags[n - 1]:
        n -= 1
    return n


def settling(order: Order, limit_value, values):
    """(maximal, geq_from, equal_from, ok) for one grid word."""
    maximal = order.is_maximal(limit_value)
    geq_from = tail_index([order.leq(limit_value, v) for v in values])
    equal_from = None
    ok = geq_from is not None
    if maximal:
        equal_from = tail_index([v == limit_value for v in values])
        ok = equal_from is not None
    return maximal, geq_from, equal_from, ok


def approaches(values, limit, from_below: bool) -> bool:
    """Decay certificate: a value on the wrong side of the limit must be
    followed by one at least halfway to it, and a value on the right side
    must not be followed by one on the wrong side."""
    def wrong(v):
        return v < limit if from_below else v > limit
    if len(values) == 1:
        return not wrong(values[0])
    for v, nxt in zip(values, values[1:]):
        if wrong(v):
            halfway = (v + limit) / 2
            if (nxt < halfway) if from_below else (nxt > halfway):
                return False
        elif wrong(nxt):
            return False
    return True


def portmanteau_lines(order: Order, seq, limit, from_index=0):
    """The expected `posetval portmanteau` stdout, line by line."""
    tail = seq[from_index:]
    lines, witness = [], None
    for m in order.upper_masks():
        values = [mass_on(v, m, order) for v in tail]
        target = mass_on(limit, m, order)
        ok_open = approaches(values, target, True)
        ok_closed = approaches(values, target, False)
        text = "{%s}" % ",".join(order.members(m))
        lines.append("U %s open %s closed %s" % (
            text, "ok" if ok_open else "fail", "ok" if ok_closed else "fail"))
        if witness is None and not (ok_open and ok_closed):
            witness = text
    lines.append("PORTMANTEAU: %s" % ("pass" if witness is None else "fail"))
    if witness is not None:
        lines.append("witness %s" % witness)
    return lines


# -- posets -------------------------------------------------------------------

def classify(order: Order) -> dict:
    """Chain, bounded-complete and lattice flags from the closure."""
    n = len(order.names)
    up = order.up_mask
    down = [0] * n
    for i in range(n):
        for j in range(n):
            if up[i] >> j & 1:
                down[j] |= 1 << i
    is_chain = all(up[i] >> j & 1 or up[j] >> i & 1
                   for i in range(n) for j in range(n))

    def has_extreme(mask, rel):
        # some member k of mask with mask inside rel[k]: the greatest lower
        # bound when rel is `down`, the least upper bound when rel is `up`
        return any(mask >> k & 1 and mask & ~rel[k] == 0 for k in range(n))

    meets = joins = True
    for i in range(n):
        for j in range(i, n):
            if not has_extreme(down[i] & down[j], down):
                meets = False
            if not has_extreme(up[i] & up[j], up):
                joins = False
    return {"is_bounded_complete": meets, "is_chain": is_chain,
            "is_lattice": meets and joins}
