"""End-to-end samplers: unit interval -> binary words -> poset elements.

A witness packages a representation map with the unit-interval adjoint: a
grid point r lands on the word unit_to_word(r, depth) and then on the
final layer's value there. The grid {i/2^d : 1 <= i <= 2^d} bijects with
the depth-d words ((i + 1)/2^d lands on word i), so the driver's law over
the grid is the final layer's run-length count, and it equals the target
exactly -- a counting identity, not a limit.

Sequences route through the weak-convergence gate, which reads the
Portmanteau rows for its verdict and witness alone, get one map per
distinct valuation, and report, per grid word, how the witnesses' values
settle on the limit's: each run of consecutive grid words that settle
alike is settled once, and its records are made a run at a time, its
fields copied out to the words of the run. The records of every report at
one depth share that level's immutable words (cantor._level_words), made
once per depth, not once per record. `skorohod` is the one entry point
for a target of any mass up to 1: the target's own mass decides whether
its poset is lifted. A target below mass 1 is represented over
its poset lifted under a fresh bottom that takes the missing mass; its
witness is undefined at the grid points routed there, and its law skips
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .cantor import StepMap, Word, _level_words, _segments
from .dyadic import ONE, Dyadic
from .errors import NotConvergent
from .skorohod import RepresentationMap, represent_target
from .valuation import SimpleValuation, portmanteau_witness


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

    def law_on_grid(self) -> SimpleValuation:
        """The driver's law over the defined grid points, on the target's
        poset; equals the target exactly. Grid point (i + 1)/2^d lands on
        word i, so this is the final layer's run-length count without the
        fresh bottom, over 2^precision."""
        d = self.precision
        return SimpleValuation(self.target.base,
                               {x: Dyadic(c, d) for x, c
                                in self.rmap.layers[-1].counts().items()
                                if x != self.fresh_bottom})


def skorohod(target: SimpleValuation, steps: int) -> SkorohodWitness:
    """Witness for a target of mass <= 1; its law on the defined grid is
    the target.

    A probability target is represented as it is. Below mass 1 the
    target's poset is lifted under a fresh bottom, which takes the missing
    mass, and the lifted probability target is represented.
    """
    if target.is_probability():
        return SkorohodWitness(target, represent_target(target, steps))
    lifted = target.base.lift()
    weights = dict(target.weights)
    weights[lifted.bottom] = ONE - target.mass
    rmap = represent_target(SimpleValuation(lifted, weights), steps)
    return SkorohodWitness(target, rmap, lifted.bottom)


def represent_sequence(targets, limit: SimpleValuation, steps: int,
                       from_index: int = 0):
    """One representation per target plus one for the limit.

    The sequence must pass the weak-convergence check first: the gate,
    portmanteau_witness, reads the Portmanteau rows and raises
    NotConvergent at the first failing upper set, portmanteau_check's
    witness, with no record built for the rest. All maps use the shared
    schedule formula, so approximants inherit closeness from the measures
    themselves. Equal valuations share one map, built once: the map depends
    only on the valuation, and maps are never mutated. The weights, kept in
    declaration order with canonical dyadics, are the key.
    """
    witness = portmanteau_witness(targets, limit, from_index)
    if witness is not None:
        raise NotConvergent("sequence fails weak convergence at %s"
                            % witness)
    built = {}

    def rep(v):
        key = tuple(v.weights.items())
        if key not in built:
            built[key] = represent_target(v, steps)
        return built[key]

    maps = [rep(t) for t in targets]
    return maps, rep(limit)


@dataclass(slots=True)
class ConvergenceRecord:
    word: Word
    limit_value: object
    maximal: bool
    geq_from: int | None   # least tail index from which value >= limit value
    equal_from: int | None  # least index from which equality holds (maximal)
    ok: bool


@dataclass
class ConvergenceReport:
    records: list
    verdict: bool


def _tail_index(flags) -> int | None:
    """Least N such that every flag from N on is set; None if the last fails."""
    if not flags or not flags[-1]:
        return None
    n = len(flags) - 1
    while n > 0 and flags[n - 1]:
        n -= 1
    return n


def _settling(maps, limit_map: RepresentationMap) -> StepMap:
    """The settling fields of every word of the family's top depth, as runs.

    Where the limit value is maximal, the sequence must become equal to it
    and stay equal; elsewhere only the eventually-at-least check applies
    (the maps need not be ordered among themselves). Every map is constant
    on each of the merged runs of the final layers (cantor._segments), so
    the fields (limit_value, maximal, geq_from, equal_from, ok) are settled
    once per segment, and the result's runs are the segments. The order
    is read off up-set masks: a limit value is maximal iff its up-set is
    itself alone. Every value is an element of the poset, since every map
    comes from represent or from the public constructor, which checks
    each layer's values.
    """
    base = limit_map.base
    index, up = base.index, base._up_mask
    top, ends, columns = _segments([m.layers[-1]
                                    for m in [limit_map, *maps]])
    fields = []
    for lv, *values in columns:
        k = index[lv]
        maximal = up[k] == 1 << k
        geq_from = _tail_index([up[k] >> index[v] & 1 for v in values])
        equal_from = None
        ok = geq_from is not None
        if maximal:
            equal_from = _tail_index([v == lv for v in values])
            ok = equal_from is not None
        fields.append((lv, maximal, geq_from, equal_from, ok))
    return StepMap(top, ends=ends, values=fields)


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


def _sequence_report(maps, limit_map: RepresentationMap) -> SequenceReport:
    """How a family of maps settles on the limit map, over the grid of the
    maps' top depth (the grid point (i + 1)/2^depth lands on word i, as
    unit_to_word says): one record per word in word order, each word the
    truncation of an infinite one. It is settled a run at a time: a run's
    fields are copied out to a record per word of the run, and its length
    is added to the word counts. The records share the level's words,
    made once per depth (cantor._level_words), so reports at one depth
    hold the same immutable word objects. Every record is built here, in
    the call. The family need not pass the weak-convergence gate."""
    runs = _settling(maps, limit_map)
    words = iter(_level_words(runs.depth))
    records = []
    maximal = equal = start = 0
    for end, (lv, is_maximal, geq_from, equal_from, ok) in zip(runs.ends,
                                                               runs.values):
        records += [ConvergenceRecord(w, lv, is_maximal, geq_from,
                                      equal_from, ok)
                    for w in islice(words, end - start)]
        if is_maximal:
            maximal += end - start
            if equal_from is not None:
                equal += end - start
        start = end
    conv = ConvergenceReport(records, all(fields[-1]
                                          for fields in runs.values))
    return SequenceReport(conv, maximal, equal)


def skorohod_sequence(targets, limit: SimpleValuation, steps: int,
                      from_index: int = 0):
    """Witnesses for a weakly convergent family, one map per distinct
    valuation (represent_sequence), plus their settling report
    (_sequence_report)."""
    maps, limit_map = represent_sequence(targets, limit, steps, from_index)
    report = _sequence_report(maps, limit_map)
    witnesses = [SkorohodWitness(t, m) for t, m in zip(targets, maps)]
    return witnesses, SkorohodWitness(limit, limit_map), report
