"""Every small input, for sweeps that check each decision on all of them.

`posets_with_bottom(n)` lists the posets of n elements with a least
element, one per isomorphism class: 1, 1, 2, 5, 16 and 63 of them for n =
1..6. Such a poset is a least element under any poset of n - 1 elements,
and every poset has a labelling that its order respects (a linear
extension), so the classes are found among the transitively closed
relations on 0..n-2 whose pairs all ascend in label, kept once per
canonical form: the least bitmask the relation takes under any
relabelling.

`valuations(base, exp)` lists every valuation on a poset whose weights are
multiples of 2^-exp, of mass at most 1 or, with `probability`, exactly 1.

Run as a script, `exhaustive.py N EXP` prints the class count for N and
the valuation counts at EXP on the first class.
"""

import sys
from itertools import combinations, permutations

from posetval import Dyadic, Poset, SimpleValuation


def _canonical(pairs, m: int) -> int:
    """The least bitmask of the relation over all relabellings of 0..m-1."""
    return min(sum(1 << (p[i] * m + p[j]) for i, j in pairs)
               for p in permutations(range(m)))


def _closed(pairs) -> bool:
    return all((i, l) in pairs
               for i, j in pairs for k, l in pairs if j == k)


def posets_with_bottom(n: int) -> list:
    """One poset of n >= 1 elements with a bottom per isomorphism class.

    The elements are "e0", the bottom, then "e1".."e{n-1}", declared in an
    order the poset's order respects; the covers are the Hasse diagram's.
    Classes come in the order of their first relation, smallest first.
    """
    m = n - 1
    candidates = list(combinations(range(m), 2))
    seen, out = set(), []
    for size in range(len(candidates) + 1):
        for chosen in combinations(candidates, size):
            pairs = set(chosen)
            if not _closed(pairs):
                continue
            form = _canonical(pairs, m)
            if form in seen:
                continue
            seen.add(form)
            names = ["e%d" % (i + 1) for i in range(m)]
            covers = [(names[i], names[j]) for i, j in sorted(pairs)
                      if not any((i, k) in pairs and (k, j) in pairs
                                 for k in range(m))]
            covers += [("e0", names[j]) for j in range(m)
                       if not any((i, j) in pairs for i in range(m))]
            out.append(Poset(["e0"] + names, covers, "e0"))
    return out


def valuations(base: Poset, exp: int, probability: bool = False) -> list:
    """Every valuation on base with weights k/2^exp: mass at most 1, or
    exactly 1 with probability. Each is a number of units of 2^-exp, cut
    into one share per element (stars and bars); they are listed by that
    number, then in the order of the cuts."""
    n, full = len(base.elements), 1 << exp
    out = []
    for total in ([full] if probability else range(full + 1)):
        # the units on each element: compositions of total into n parts
        for cuts in combinations(range(total + n - 1), n - 1):
            units = [b - a - 1 for a, b in zip((-1,) + cuts,
                                               cuts + (total + n - 1,))]
            out.append(SimpleValuation(base, {
                x: Dyadic(k, exp) for x, k in zip(base.elements, units)}))
    return out


if __name__ == "__main__":
    n, exp = int(sys.argv[1]), int(sys.argv[2])
    classes = posets_with_bottom(n)
    print("%d classes on %d elements; %d valuations, %d of mass 1, at "
          "exponent %d" % (len(classes), n, len(valuations(classes[0], exp)),
                           len(valuations(classes[0], exp, True)), exp))
