"""End-to-end samplers: unit interval -> binary words -> poset elements.

A witness packages a representation map with the unit-interval adjoint: a
grid point r lands on the word unit_to_word(r, depth) and then on the
map's value there. The grid {i/2^d : 1 <= i <= 2^d} bijects with the
depth-d words (the adjoint picks non-terminating expansions), so
exhaustively tabulating the driver over the grid reproduces the target
valuation exactly -- the law is a counting identity, not a limit.

Sequences route through the weak-convergence gate and report, per grid
word, how the witnesses' values settle on the limit's; subprobability
targets run over a lifted poset and exclude the grid points routed to the
fresh bottom.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cantor import Word, unit_to_word
from .dyadic import Dyadic
from .errors import NotProbability
from .skorohod import (ConvergenceReport, RepresentationMap,
                       SubprobabilityRepresentation, build_schedule,
                       convergence_check, represent, represent_sequence,
                       represent_subprobability)
from .valuation import SimpleValuation


@dataclass
class SkorohodWitness:
    """A sampler [0, 1] -> poset whose exact law is the target."""

    target: SimpleValuation
    rmap: RepresentationMap

    @property
    def precision(self) -> int:
        return self.rmap.final_depth

    def describe(self) -> str:
        return ("r -> evaluate(map, unit_to_word(r, %d)) over the grid "
                "{i/2^%d : 1 <= i <= 2^%d}"
                % (self.precision, self.precision, self.precision))

    def driver(self, r: Dyadic):
        """Value at a unit-interval point."""
        _, value = self.rmap.evaluate(unit_to_word(r, self.precision))
        return value

    def grid(self):
        d = self.precision
        return [Dyadic(i, d) for i in range(1, (1 << d) + 1)]

    def law_on_grid(self) -> SimpleValuation:
        """Exhaustive tabulation of the driver; equals the target exactly."""
        d = self.precision
        counts = {}
        for r in self.grid():
            x = self.driver(r)
            counts[x] = counts.get(x, 0) + 1
        return SimpleValuation(self.rmap.base,
                               {x: Dyadic(c, d) for x, c in counts.items()})


def skorohod(target: SimpleValuation, steps: int) -> SkorohodWitness:
    """Witness for a probability target with dyadic weights."""
    if not target.is_probability():
        raise NotProbability("pipeline target must have mass 1; "
                             "use the subprobability variant")
    return SkorohodWitness(target, represent(build_schedule(target, steps)))


@dataclass
class SequenceReport:
    """Convergence of a witness family, word by word over the common grid."""

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
    """Witnesses for a weakly convergent family plus the settling report."""
    maps, limit_map = represent_sequence(targets, limit, steps, from_index)
    depth = max(m.final_depth for m in maps + [limit_map])
    # the grid point (i + 1)/2^depth lands on word i, as unit_to_word says
    words = [Word(format(i, "0%db" % depth) if depth else "", truncated=True)
             for i in range(1 << depth)]
    conv = convergence_check(maps, limit_map, words)
    maximal = [r for r in conv.records if r.maximal]
    report = SequenceReport(conv, len(maximal),
                            sum(1 for r in maximal
                                if r.equal_from is not None))
    witnesses = [SkorohodWitness(t, m) for t, m in zip(targets, maps)]
    return witnesses, SkorohodWitness(limit, limit_map), report


@dataclass
class SubprobabilityWitness:
    """A partial sampler; undefined where the lift parked the missing mass."""

    target: SimpleValuation
    representation: SubprobabilityRepresentation

    @property
    def precision(self) -> int:
        return self.representation.rmap.final_depth

    def grid(self):
        d = self.precision
        return [Dyadic(i, d) for i in range(1, (1 << d) + 1)]

    def defined(self, r: Dyadic) -> bool:
        word = unit_to_word(r, self.precision)
        return self.representation.defined(word)

    def driver(self, r: Dyadic):
        _, value = self.representation.rmap.evaluate(
            unit_to_word(r, self.precision))
        return value

    def law_on_grid(self) -> SimpleValuation:
        """Tabulation over the defined grid points, on the original poset."""
        d = self.precision
        counts = {}
        for r in self.grid():
            x = self.driver(r)
            if x != self.representation.fresh_bottom:
                counts[x] = counts.get(x, 0) + 1
        return SimpleValuation(self.representation.original_base,
                               {x: Dyadic(c, d) for x, c in counts.items()})


def skorohod_subprobability(target: SimpleValuation,
                            steps: int) -> SubprobabilityWitness:
    """Witness for mass <= 1; restricted tabulation equals the target."""
    return SubprobabilityWitness(target,
                                 represent_subprobability(target, steps))
