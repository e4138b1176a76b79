"""Independent brute-force reference computations for the test suite, and
the laws of the paper that the library no longer holds.

No reference reuses the code paths under test: the order is decided by
comparing two valuations on every upper set, cuts are enumerated rather
than derived from flows, a maximum flow is grown one breadth-first
augmenting path at a time (Edmonds-Karp, on dyadics) rather than by
blocking flows, a flow network's shape is checked condition by condition
rather than trusted from its builder, upper sets are filtered straight
from the order relation or scanned over every bitmask, strict-transport
feasibility and subprobability way-below are decided by exhaustive
Hall-style subset conditions, the words of a level are spelled out one
by one and a table on them is pushed forward by tallying every word, a
lift step fills the new level word by word, the order is reachability by
graph search (and the first pair an integrand decreases on, or a map
breaks, is scanned over it), meets and joins are found by scanning every
candidate, convergence is checked by evaluating every map at every word,
and quantile maps are compared at every threshold of either map, the
Portmanteau bullets are checked on every upper set of the whole poset
with dyadic arithmetic, a sampler's law is tabulated by calling its
driver at every grid point, a valuation's weights and mass are collected
by walking every element of the poset and adding dyadics, and a
schedule's stages are convex sums of scaled valuations.

The library keeps none of these. The laws at the end of the file left the
package because none of its commands or functions reads them, and they
keep their library form and refusals, reading the poset's up-set masks
and the step maps' merged runs: `up_set`, `down_set` and `upward_closure`
of a poset, `integrate_monotone` (its monotonicity check against
first_decrease_by_scan), `quantile_leq` (against
quantile_leq_by_thresholds), and `project`, `embed` and `word_to_unit` on
words (against the expansion values and the adjunction with
`unit_to_word` in tests/test_cantor.py).
"""

import weakref
from collections import deque
from itertools import combinations, product

from posetval import (ONE, Dyadic, SimpleValuation, UpperSet, Word, ZERO,
                      add, delta, scale, transport_plan)
from posetval.flow import FlowNetwork, MaskEdges
from posetval.poset import _bits
from posetval.valuation import PortmanteauRecord
from posetval.errors import DepthExceeded, NotAChain, NotMonotone, PartialMap
from posetval.pipeline import ConvergenceRecord, ConvergenceReport


def weights_by_elements(base, weights: dict):
    """(nonzero weights in declaration order, their total mass), walking
    every element of the poset and summing with dyadic additions."""
    clean = {}
    for x in base.elements:
        w = weights.get(x)
        if w is not None and not w.is_zero():
            clean[x] = w
    mass = ZERO
    for w in clean.values():
        mass = mass + w
    return clean, mass


def level(n: int):
    """All 2^n words of depth n in lexicographic order, spelled bit by bit."""
    return [Word("".join(bits)) for bits in product("01", repeat=n)]


def pushforward_counting(table: dict, depth: int,
                         base) -> SimpleValuation:
    """Normalized counting measure on a level pushed through a table.

    table maps every depth-bit string to an element; each element weighs
    its preimage count over 2^depth, tallied one word at a time.
    """
    counts = {}
    for w in level(depth):
        if w.bits not in table:
            raise PartialMap("level map undefined on %r" % w.bits)
        y = table[w.bits]
        counts[y] = counts.get(y, 0) + 1
    return SimpleValuation(base, {y: Dyadic(c, depth)
                                  for y, c in counts.items()})


def leq_oracle(mu: SimpleValuation, nu: SimpleValuation) -> bool:
    """The order by its definition: mu(U) <= nu(U) on every upper set U,
    each scanned over all bitmasks and valued by summing weights."""
    return all(not value_on(nu, u) < value_on(mu, u)
               for u in upper_sets_by_masks(mu.base))


def dyadic_caps(net: FlowNetwork, caps: dict) -> dict:
    """A network's integer capacities of 2^-p as the dyadics they stand
    for."""
    return {key: Dyadic(c, net.p) for key, c in caps.items()}


def middle_edges(net: FlowNetwork) -> dict:
    """A network's middle edges as (x, y) -> capacity, a dyadic, read bit by
    bit off its MaskEdges rows: by left node, then by ascending bit."""
    mid = net.mid_caps
    cap = Dyadic(mid.cap, net.p)
    return {(x, mid.names[b]): cap for x, row in mid.rows.items()
            for b in range(row.bit_length()) if row >> b & 1}


def network_violations(net: FlowNetwork) -> list:
    """Each way the network breaks the one shape the flow engine trusts,
    as a message; empty for a network of that shape.

    The middle edges must be MaskEdges rows that list the left side in
    order, whose set bits, ORed over the rows and read from the lowest,
    name right nodes in the right side's order; terminal capacities sit on
    nodes of their side; no right name repeats; p and every capacity are
    integers of at least zero; the middle capacity is above zero and above
    every sink capacity.
    """
    out = []
    mid = net.mid_caps
    if not isinstance(mid, MaskEdges):
        return ["the middle edges are not MaskEdges rows"]
    if any(type(c) is not int or c < 0
           for c in [net.p, mid.cap, *net.source_caps.values(),
                     *net.sink_caps.values()]):
        return ["p or a capacity is not an integer of at least zero"]
    if list(mid.rows) != list(net.left):
        out.append("the rows do not list the left side in order")
    position = {y: j for j, y in enumerate(net.right)}
    union = 0
    for row in mid.rows.values():
        union |= row
    last = -1
    for b in range(union.bit_length()):
        if union >> b & 1:
            j = position.get(mid.names[b]) if b < len(mid.names) else None
            if j is None or j <= last:
                out.append("bit %d is no right node, or out of the right "
                           "side's order" % b)
                break
            last = j
    if any(x not in net.left for x in net.source_caps) \
            or any(y not in position for y in net.sink_caps):
        out.append("a terminal capacity sits on an unknown node")
    if len(position) != len(net.right):
        out.append("a right name repeats")
    if not 0 < mid.cap or any(not c < mid.cap
                              for c in net.sink_caps.values()):
        out.append("the middle capacity %s is not above zero and every sink "
                   "capacity" % (mid.cap,))
    return out


def min_cut_by_enumeration(net: FlowNetwork) -> Dyadic:
    """Minimum over all source/sink partitions of the crossing capacity."""
    inner = [("left", x) for x in net.left] + [("right", y) for y in net.right]
    sources = dyadic_caps(net, net.source_caps)
    sinks = dyadic_caps(net, net.sink_caps)
    best = None
    for k in range(len(inner) + 1):
        for chosen in combinations(inner, k):
            side = set(chosen) | {"source"}
            value = ZERO
            for x, c in sources.items():
                if ("left", x) not in side:
                    value = value + c
            for (x, y), c in middle_edges(net).items():
                if ("left", x) in side and ("right", y) not in side:
                    value = value + c
            for y, c in sinks.items():
                if ("right", y) in side:
                    value = value + c
            if best is None or value < best:
                best = value
    return best


def max_flow_by_shortest_paths(net: FlowNetwork) -> dict:
    """Edmonds-Karp: augment along the breadth-first path, neighbours in
    declaration order, until none is left; the last search marks the cut.
    The capacities are taken as dyadics, so the search runs on dyadics, not
    on the engine's integers. Returns the fields of the flow by name."""
    nodes = ["source"] + [("left", x) for x in net.left] \
        + [("right", y) for y in net.right] + ["sink"]
    # res[v][w], w in declaration order; the network has no antiparallel
    # edges, so res[w][v] starts at zero for every edge v -> w
    res = {v: dict.fromkeys(nodes, ZERO) for v in nodes}
    for x, c in dyadic_caps(net, net.source_caps).items():
        res["source"][("left", x)] = c
    for (x, y), c in middle_edges(net).items():
        res[("left", x)][("right", y)] = c
    for y, c in dyadic_caps(net, net.sink_caps).items():
        res[("right", y)]["sink"] = c
    cap = {v: dict(out) for v, out in res.items()}
    while True:
        parent = {"source": None}
        queue = deque(["source"])
        while queue and "sink" not in parent:
            v = queue.popleft()
            for w, r in res[v].items():
                if w not in parent and ZERO < r:
                    parent[w] = v
                    queue.append(w)
        if "sink" not in parent:
            break
        path = []
        w = "sink"
        while parent[w] is not None:
            path.append((parent[w], w))
            w = parent[w]
        bottleneck = min(res[v][w] for v, w in path)
        for v, w in path:
            res[v][w] = res[v][w] - bottleneck
            res[w][v] = res[w][v] + bottleneck

    def moved(edges):
        return {key: cap[v][w] - res[v][w] for key, (v, w) in edges
                if ZERO < cap[v][w] - res[v][w]}

    from_source = moved((x, ("source", ("left", x))) for x in net.left)
    return {"value": sum(from_source.values(), ZERO),
            "cut": frozenset(parent),
            "from_source": from_source,
            "across": moved(((x, y), (("left", x), ("right", y)))
                            for x, y in middle_edges(net)),
            "to_sink": moved((y, (("right", y), "sink")) for y in net.right)}


def upper_sets_by_filtering(base):
    """All upward-closed subsets, straight from the definition."""
    out = []
    n = len(base.elements)
    for mask in range(1 << n):
        members = {e for i, e in enumerate(base.elements) if mask >> i & 1}
        if all(base.leq(x, y) <= (y in members)
               for x in members for y in base.elements):
            out.append(frozenset(members))
    return out


# poset -> its upper sets: the exhaustive sweep asks for the same poset's
# sets once per pair of valuations, so each poset is scanned only once
_upper_sets_scanned = weakref.WeakKeyDictionary()


def upper_sets_by_masks(base):
    """Members of every upper set, scanning all 2^n bitmasks in order.

    The scan runs once per poset; each call gets a new list of its sets.
    """
    found = _upper_sets_scanned.get(base)
    if found is None:
        n = len(base.elements)
        found = _upper_sets_scanned[base] = tuple(
            frozenset(e for j, e in enumerate(base.elements) if mask >> j & 1)
            for mask in range(1 << n)
            if all(not base._up_mask[i] & ~mask
                   for i in range(n) if mask >> i & 1))
    return list(found)


def _approaches_dyadic(values, limit, from_below):
    """The decay certificate of valuation._approaches, on dyadics."""

    def deficit_side(v):
        return v < limit if from_below else limit < v

    if len(values) == 1:
        return not deficit_side(values[0])
    two = Dyadic(2, 0)
    for v, nxt in zip(values, values[1:]):
        if deficit_side(v):
            if from_below:
                if two * nxt < limit + v:
                    return False
            elif limit + v < two * nxt:
                return False
        elif deficit_side(nxt):
            return False
    return True


def portmanteau_by_upper_sets(seq, limit, from_index=0):
    """The Portmanteau records on every upper set of the whole poset, in
    ascending bitmask order, and the first failing one (None if none).

    Each valuation is evaluated on each upper set by summing its dyadic
    weights; returns (records, witness).
    """
    base = limit.base
    tail = seq[from_index:]
    records, witness = [], None
    for members in upper_sets_by_masks(base):
        u = UpperSet(base, members)
        values = [v.evaluate(u) for v in tail]
        target = limit.evaluate(u)
        rec = PortmanteauRecord(u, _approaches_dyadic(values, target, True),
                                _approaches_dyadic(values, target, False))
        records.append(rec)
        if witness is None and not (rec.open_ok and rec.closed_ok):
            witness = u
    return records, witness


def classify_by_scan(base):
    """Shape flags by scanning every pair for a greatest lower bound and a
    least upper bound among all their common bounds; O(n^4)."""
    names = base.elements
    n = len(names)
    leq = [[base.leq(x, y) for y in names] for x in names]
    has_meet = has_join = True
    for i in range(n):
        for j in range(i, n):
            lower = [k for k in range(n) if leq[k][i] and leq[k][j]]
            if not any(all(leq[l][k] for l in lower) for k in lower):
                has_meet = False
            upper = [k for k in range(n) if leq[i][k] and leq[j][k]]
            if not any(all(leq[k][u] for u in upper) for k in upper):
                has_join = False
    chain = all(leq[i][j] or leq[j][i] for i in range(n) for j in range(n))
    return {"is_chain": chain, "is_bounded_complete": has_meet,
            "is_lattice": has_meet and has_join}


def _settled_from(flags):
    """Least N with every flag from N on set, or None."""
    n = None
    for k in range(len(flags) - 1, -1, -1):
        if not flags[k]:
            break
        n = k
    return n


def convergence_by_words(maps, limit_map, words):
    """The convergence report, evaluating every map at every word."""
    base = limit_map.base
    records = []
    for w in words:
        _, lv = limit_map.evaluate(w)
        maximal = all(not base.leq(lv, y) or y == lv for y in base.elements)
        values = [m.evaluate(w)[1] for m in maps]
        geq_from = _settled_from([base.leq(lv, v) for v in values])
        equal_from = None
        ok = geq_from is not None
        if maximal:
            equal_from = _settled_from([v == lv for v in values])
            ok = equal_from is not None
        records.append(ConvergenceRecord(w, lv, maximal, geq_from,
                                         equal_from, ok))
    return ConvergenceReport(records, all(r.ok for r in records))


def schedule_by_convex_sums(target: SimpleValuation, steps: int) -> list:
    """The stages (1 - 2^-k) target + 2^-k bottom, k = 0..steps, each one
    summed from the two scaled valuations."""
    bot = delta(target.base, target.base.bottom)
    stages = [bot]
    for k in range(1, steps):
        eps = Dyadic(1, k)
        stages.append(add(scale(target, ONE - eps), scale(bot, eps)))
    return stages + [target]


def quantile_leq_by_thresholds(g, h) -> bool:
    """Pointwise comparison of two quantile maps over their full domain.

    Both maps are constant on the half-open intervals of their merged
    threshold grid, so comparing at each interval's right endpoint (plus
    r = 0, where both sit at the chain's bottom) decides the pointwise
    order exactly. Domains must agree.
    """
    if g.base is not h.base:
        raise NotAChain("quantile maps over different chains")
    if g.total() != h.total():
        return False
    grid = sorted({t for t, _ in g.breakpoints}
                  | {t for t, _ in h.breakpoints})
    return all(g.base.leq(g(r), h(r)) for r in grid)


def _hall_feasible(rows, reachable_caps, universe_caps):
    """Gale/Hall condition: every row subset fits inside its reachable caps."""
    names = list(rows)
    for k in range(1, len(names) + 1):
        for chosen in combinations(names, k):
            supply = sum(rows[x] for x in chosen)
            reach = set()
            for x in chosen:
                reach |= reachable_caps[x]
            if supply > sum(universe_caps[y] for y in reach):
                return False
    return True


def strict_transport_exists(mu: SimpleValuation, nu: SimpleValuation,
                            min_exp=6) -> bool:
    """Bounded-denominator search for a probability-order strict transport.

    Looks for integer transport numbers at denominator 2^q with exact row
    sums, strictly slack columns away from bottom, and mass moving only
    upward; existence is decided by the exhaustive subset condition. The
    denominator starts at 2^min_exp and is raised to the provably
    sufficient level for the inputs, so the search is exact.
    """
    base = mu.base
    cols = [y for y in nu.support if y != base.bottom]
    q = max(min_exp,
            max(mu.max_exponent(), nu.max_exponent())
            + max(0, (max(len(cols), 1) - 1).bit_length()))
    total = 1 << q
    rows = {x: w.rescale(q) for x, w in mu.weights.items()}
    caps = {y: nu.weights[y].rescale(q) - 1 for y in cols}
    caps[base.bottom] = total  # unconstrained column at bottom
    reachable = {}
    for x in mu.support:
        reach = {y for y in cols if base.leq(x, y)}
        if base.leq(x, base.bottom):
            reach.add(base.bottom)
        reachable[x] = reach
    return _hall_feasible(rows, reachable, caps)


def value_on(v: SimpleValuation, members) -> Dyadic:
    """Mass on an arbitrary element subset (no upper-closure check)."""
    total = ZERO
    for x, w in v.weights.items():
        if x in members:
            total = total + w
    return total


def way_below_by_subsets(mu: SimpleValuation, nu: SimpleValuation) -> bool:
    """Subprobability way-below from its definition, over every subset.

    Every nonempty subset S of mu's support must carry strictly less mass
    than nu gives its upward closure; exponential in the support size.
    """
    supp = mu.support
    for mask in range(1, 1 << len(supp)):
        sub = [supp[i] for i in range(len(supp)) if mask >> i & 1]
        above = upward_closure(mu.base, sub)
        if not (value_on(mu, sub) < value_on(nu, above)):
            return False
    return True


def lift_step_by_slots(table: dict, depth: int, target: SimpleValuation):
    """The lift step filled one word at a time, as (new depth, table).

    Every extension of every current word, in lexicographic order, goes to
    the first target in declaration order whose transport budget from the
    word's current value is still positive; 2^new_depth steps.
    """
    base = target.base
    law = pushforward_counting(table, depth, base)
    plan = transport_plan(law, target)
    new_depth = max(depth + 1, law.max_exponent(), target.max_exponent(),
                    max((t.exp for t in plan.entries.values()), default=0))
    budgets = {xy: t.rescale(new_depth) for xy, t in plan.entries.items()}
    out = {}
    for w in level(depth):
        x = table[w.bits]
        for suffix in level(new_depth - depth):
            bits = w.bits + suffix.bits
            y = next(y for y in target.support
                     if budgets.get((x, y), 0) > 0)
            budgets[x, y] -= 1
            out[bits] = y
    if any(budgets.values()):     # an if, so that python -O keeps it
        raise AssertionError("the plan's budgets are not all spent")
    return new_depth, out


def first_decrease_by_scan(base, f):
    """The first pair (x, y) in declaration order with x <= y and
    f(y) < f(x), the order found by graph search; None if f is monotone."""
    names, index = base.elements, base.index
    up = reachable_by_search(len(names), [(index[lo], index[hi])
                                          for lo, hi in base.covers])
    for i, x in enumerate(names):
        for j in sorted(up[i]):
            if f[names[j]] < f[x]:
                return x, names[j]
    return None


def _spelled_out(m):
    """A step map's value on each word it is defined on, a word at a time."""
    out, start = [], 0
    for end, y in zip(m.ends, m.values):
        out += [y] * (end - start)
        start = end
    return out


def first_disagreement_by_words(f, g, base):
    """StepMap.first_disagreement, by scanning every word of the deeper
    depth below the shorter total, in word order."""
    top = max(f.depth, g.depth)
    a, b = _spelled_out(f), _spelled_out(g)
    stop = min(len(a) << top - f.depth, len(b) << top - g.depth)
    return next((i for i in range(stop)
                 if not base.leq(a[i >> top - f.depth],
                                 b[i >> top - g.depth])), None)


def first_break_by_scan(source, target, mapping):
    """The first pair (x, y) of the map's domain, x and then y in mapping
    order, with x <= y and mapping[x] not <= mapping[y], both orders found
    by graph search; None if the map is monotone."""

    def order(base):
        index = base.index
        up = reachable_by_search(len(base.elements), [
            (index[lo], index[hi]) for lo, hi in base.covers])
        return lambda a, b: index[b] in up[index[a]]

    below, above = order(source), order(target)
    for x in mapping:
        for y in mapping:
            if below(x, y) and not above(mapping[x], mapping[y]):
                return x, y
    return None


def reachable_by_search(n, covers):
    """up[i]: the indices reachable from i along (lo, hi) index covers."""
    succ = [[] for _ in range(n)]
    for i, j in covers:
        succ[i].append(j)
    up = []
    for i in range(n):
        seen, stack = {i}, [i]
        while stack:
            for j in succ[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        up.append(seen)
    return up


def law_by_grid_tabulation(witness) -> SimpleValuation:
    """The driver tabulated at every grid point i/2^d, 1 <= i <= 2^d, on
    the target's poset, skipping the points it sends to the fresh bottom;
    one driver call per point."""
    d = witness.precision
    counts = {}
    for i in range(1, (1 << d) + 1):
        x = witness.driver(Dyadic(i, d))
        if x != witness.fresh_bottom:
            counts[x] = counts.get(x, 0) + 1
    return SimpleValuation(witness.target.base,
                           {x: Dyadic(c, d) for x, c in counts.items()})


# The laws that left the library, in their library form (see the module
# docstring).


def up_set(base, x) -> frozenset:
    """The elements above x, x included, read off its up-set mask."""
    base._check(x)
    return base._members(base._up_mask[base.index[x]])


def down_set(base, x) -> frozenset:
    """The elements below x, x included: those whose up-set masks hold x."""
    base._check(x)
    i = base.index[x]
    return frozenset(e for e, m in zip(base.elements, base._up_mask)
                     if m >> i & 1)


def upward_closure(base, xs) -> frozenset:
    """The least upper set holding xs, the OR of their up-set masks."""
    mask = 0
    for x in xs:
        base._check(x)
        mask |= base._up_mask[base.index[x]]
    return base._members(mask)


def integrate_monotone(f: dict, v: SimpleValuation) -> Dyadic:
    """Sum of weight(x) * f(x) for a monotone dyadic-valued f.

    f must cover the whole poset and respect the order: every pair x <= y
    is checked, x and then y in declaration order, and the error names the
    first pair with f(y) < f(x). Each x walks the bits of its up-set mask,
    so the check costs the order's pairs, not every pair of elements.
    """
    base = v.base
    names, up = base.elements, base._up_mask
    for x in names:
        if x not in f:
            raise PartialMap("integrand undefined on %r" % (x,))
    for i, x in enumerate(names):
        fx = f[x]
        for j in _bits(up[i]):
            if f[names[j]] < fx:
                raise NotMonotone("integrand decreases from %s to %s"
                                  % (x, names[j]))
    total = ZERO
    for x, w in v.weights.items():
        total = total + w * f[x]
    return total


def quantile_leq(g, h) -> bool:
    """Pointwise comparison of two quantile maps over their full domain.

    Domains must agree; then one walk over the merged runs decides the
    order exactly (at r = 0 both sit at the chain's bottom).
    """
    if g.base is not h.base:
        raise NotAChain("quantile maps over different chains")
    return (g.total() == h.total()
            and g.first_disagreement(h, g.base) is None)


def project(w: Word, m: int) -> Word:
    """The m-bit prefix; functorial over nested depths.

    The prefix of a word is known exactly even when the word stands for
    an infinite one, so the result is a genuine finite word.
    """
    if m < 0:
        raise ValueError("depth must be nonnegative, not %d" % m)
    if m > len(w.bits):
        raise DepthExceeded("cannot project %r to depth %d" % (w.bits, m))
    return Word(w.bits[:m])


def embed(w: Word, n: int) -> Word:
    """Pad with zeros to depth n; a section of project. Below the word's
    own depth there is nothing to pad, and the word comes back as it is."""
    return Word(w.bits + "0" * (n - len(w.bits)), w.truncated)


def word_to_unit(w: Word) -> Dyadic:
    """Binary-expansion value: sum of bit_i / 2^(i+1), the word's number
    over 2^len."""
    return Dyadic(int(w.bits or "0", 2), len(w.bits))
