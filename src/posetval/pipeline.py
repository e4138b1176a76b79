"""End-to-end samplers: unit interval -> binary words -> poset elements.

A witness packages a representation map with the unit-interval adjoint: a
grid point r lands on the word unit_to_word(r, depth) and then on the
final layer's value there. The grid {i/2^d : 1 <= i <= 2^d} bijects with
the depth-d words ((i + 1)/2^d lands on word i), so the driver's law over
the grid is the final layer's run-length count, and it equals the target
exactly -- a counting identity, not a limit.

Sequences route through the weak-convergence gate and report, per grid
word, how the witnesses' values settle on the limit's: each run of
consecutive grid words that settle alike is settled once, and its fields
are copied out to the words of the run. A subprobability target is
represented over its poset lifted under a fresh bottom that takes the
missing mass; its witness is undefined at the grid points routed there,
and its law skips them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .cantor import Word, _level_bits
from .dyadic import ONE, Dyadic
from .errors import NotProbability
from .skorohod import (ConvergenceRecord, ConvergenceReport,
                       RepresentationMap, _settling, represent_sequence,
                       represent_target)
from .valuation import SimpleValuation


@dataclass
class SkorohodWitness:
    """A sampler [0, 1] -> poset whose exact law is the target.

    With a fresh bottom the map runs over the target's poset lifted under
    it, and the sampler is undefined where the map reaches that bottom.
    """

    target: SimpleValuation
    rmap: RepresentationMap
    fresh_bottom: object = None

    @property
    def precision(self) -> int:
        return self.rmap.final_depth

    def describe(self) -> str:
        return ("r -> evaluate(map, unit_to_word(r, %d)) over the grid "
                "{i/2^%d : 1 <= i <= 2^%d}"
                % (self.precision, self.precision, self.precision))

    def driver(self, r: Dyadic):
        """Value at a unit-interval point."""
        return self.rmap.layers[-1](r)

    def defined(self, r: Dyadic) -> bool:
        return self.driver(r) != self.fresh_bottom

    def grid(self):
        d = self.precision
        return [Dyadic(i, d) for i in range(1, (1 << d) + 1)]

    def law_on_grid(self) -> SimpleValuation:
        """The driver's law over the defined grid points, on the target's
        poset; equals the target exactly. Grid point (i + 1)/2^d lands on
        word i, so this is the map's law without the fresh bottom."""
        law = self.rmap.law()
        return SimpleValuation(self.target.base,
                               {x: w for x, w in law.weights.items()
                                if x != self.fresh_bottom})


def skorohod(target: SimpleValuation, steps: int) -> SkorohodWitness:
    """Witness for a probability target with dyadic weights."""
    if not target.is_probability():
        raise NotProbability("pipeline target must have mass 1; "
                             "use the subprobability variant")
    return SkorohodWitness(target, represent_target(target, steps))


def skorohod_subprobability(target: SimpleValuation,
                            steps: int) -> SkorohodWitness:
    """Witness for mass <= 1; its law on the defined grid is the target.

    The target's poset is lifted under a fresh bottom, which takes the
    missing mass, and the lifted probability target is represented.
    """
    lifted = target.base.lift()
    weights = dict(target.weights)
    gap = ONE - target.mass
    if not gap.is_zero():
        weights[lifted.bottom] = gap
    rmap = represent_target(SimpleValuation(lifted, weights), steps)
    return SkorohodWitness(target, rmap, lifted.bottom)


@dataclass
class SequenceReport:
    """Convergence of a witness family over the common grid; the counts
    are of grid words."""

    convergence: ConvergenceReport
    maximal_words: int
    equal_words: int

    @property
    def almost_sure(self) -> bool:
        """True iff every maximal-limit grid word reaches eventual equality."""
        return self.maximal_words == self.equal_words

    @property
    def verdict(self) -> bool:
        return self.convergence.verdict


def skorohod_sequence(targets, limit: SimpleValuation, steps: int,
                      from_index: int = 0):
    """Witnesses for a weakly convergent family plus the settling report.

    The report covers the grid of the maps' top depth (the grid point
    (i + 1)/2^depth lands on word i, as unit_to_word says), one record per
    word in word order, each word the truncation of an infinite one. It
    is settled a run at a time: a run's fields are copied to its words,
    and its length is added to the word counts.
    """
    maps, limit_map = represent_sequence(targets, limit, steps, from_index)
    runs = _settling(maps, limit_map)
    bits = _level_bits(runs.depth)
    records = []
    maximal = equal = start = 0
    for end, (lv, is_maximal, geq_from, equal_from, ok) in zip(runs.ends,
                                                               runs.values):
        records += [ConvergenceRecord(Word(b, True), lv, is_maximal,
                                      geq_from, equal_from, ok)
                    for b in islice(bits, end - start)]
        if is_maximal:
            maximal += end - start
            if equal_from is not None:
                equal += end - start
        start = end
    conv = ConvergenceReport(records, all(fields[-1]
                                          for fields in runs.values))
    report = SequenceReport(conv, maximal, equal)
    witnesses = [SkorohodWitness(t, m) for t, m in zip(targets, maps)]
    return witnesses, SkorohodWitness(limit, limit_map), report
