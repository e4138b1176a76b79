"""Independent brute-force reference computations for the test suite.

Nothing here reuses the code paths under test: cuts are enumerated rather
than derived from flows, upper sets are filtered straight from the order
relation, and strict-transport feasibility and subprobability way-below
are decided by exhaustive Hall-style subset conditions.
"""

from itertools import combinations

from posetval import Dyadic, FlowNetwork, SimpleValuation, ZERO


def min_cut_by_enumeration(net: FlowNetwork) -> Dyadic:
    """Minimum over all source/sink partitions of the crossing capacity."""
    inner = [("left", x) for x in net.left] + [("right", y) for y in net.right]
    best = None
    for k in range(len(inner) + 1):
        for chosen in combinations(inner, k):
            side = set(chosen) | {"source"}
            value = ZERO
            for x, c in net.source_caps.items():
                if ("left", x) not in side:
                    value = value + c
            for (x, y), c in net.mid_caps.items():
                if ("left", x) in side and ("right", y) not in side:
                    value = value + c
            for y, c in net.sink_caps.items():
                if ("right", y) in side:
                    value = value + c
            if best is None or value < best:
                best = value
    return best


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
    rows = {x: mu.weight(x).rescale(q) for x in mu.support}
    caps = {y: nu.weight(y).rescale(q) - 1 for y in cols}
    caps[base.bottom] = total  # unconstrained column at bottom
    reachable = {}
    for x in mu.support:
        reach = {y for y in cols if base.leq(x, y)}
        if base.leq(x, base.bottom):
            reach.add(base.bottom)
        reachable[x] = reach
    return _hall_feasible(rows, reachable, caps)


def way_below_by_subsets(mu: SimpleValuation, nu: SimpleValuation) -> bool:
    """Subprobability way-below from its definition, over every subset.

    Every nonempty subset S of mu's support must carry strictly less mass
    than nu gives its upward closure; exponential in the support size.
    """
    supp = mu.support
    for mask in range(1, 1 << len(supp)):
        sub = [supp[i] for i in range(len(supp)) if mask >> i & 1]
        above = mu.base.upward_closure(sub)
        if not (mu.value_on(sub) < nu.value_on(above)):
            return False
    return True
