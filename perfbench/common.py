"""Pieces shared by the workloads: the operation record and conversions
between the benchmark's `Fraction` weights and the library's types."""

import importlib
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter as clock
from typing import Callable

from posetval import Dyadic, Poset, SimpleValuation

# the package attribute `posetval.skorohod` is the pipeline function of
# that name, so the module is looked up by its full name
skorohod = importlib.import_module("posetval.skorohod")


@dataclass
class Op:
    """One operation of a round.

    `run` is the only timed call. `check` verifies its output against the
    independent computation and returns a fingerprint; a later round's
    output must have the same fingerprint, since the library is
    deterministic.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], object]
    fingerprint: Callable[[object], object]


@dataclass
class Inputs:
    """A workload's operations and the set-up time spent in the library.

    `counters` holds tallies the operations keep as they run, such as
    draws taken or stdout bytes written; the runner resets it per pass.
    """

    ops: list
    program_s: float
    counters: dict = field(default_factory=dict)


class Calibration:
    """Host speed, from a fixed pure-Python kernel timed between operations.

    Shared machines change speed by a fifth or more for seconds at a time,
    and that shift hits every operation of a run alike. `scale(dt)` turns a
    wall time into the time it would take on a host where the kernel takes
    exactly REFERENCE_S, using the median of the last WINDOW kernel timings
    (each the best of three back-to-back runs, re-taken every INTERVAL_S
    between operations). The kernel is integer arithmetic on locals: it
    allocates nothing lasting, so its time follows the processor and not
    the state of the heap the workload left behind.
    """

    REFERENCE_S = 0.0005
    INTERVAL_S = 0.05
    WINDOW = 9

    def __init__(self):
        self.samples = []
        self.last = -1e9

    @staticmethod
    def kernel():
        s = 0
        for i in range(5000):
            s = (s * 31 + i) & 0xFFFFF
        return s

    def refresh(self, force=False):
        now = clock()
        if now - self.last < self.INTERVAL_S and not force:
            return
        best = None
        for _ in range(3):
            t0 = clock()
            self.kernel()
            dt = clock() - t0
            best = dt if best is None else min(best, dt)
        self.samples = self.samples[1 - self.WINDOW:] + [best]
        self.last = clock()

    def scale(self, dt: float) -> float:
        return dt * self.REFERENCE_S / statistics.median(self.samples)


def dyadic(f: Fraction) -> Dyadic:
    return Dyadic(f.numerator, f.denominator.bit_length() - 1)


def fraction(d: Dyadic) -> Fraction:
    return Fraction(d.num, 1 << d.exp)


def build_poset(spec) -> Poset:
    return Poset(spec.names, spec.covers, spec.bottom)


def build_valuation(base: Poset, val: dict) -> SimpleValuation:
    return SimpleValuation(base, {x: dyadic(w) for x, w in val.items()})


def value_at(rmap, word: str):
    """The map's value at a word of 0/1 characters, through `skorohod.sample`."""
    return skorohod.sample(rmap, (c == "1" for c in word))


def law_counts(witness) -> dict:
    """How many final-depth words the witness's map sends to each element.

    Every word goes through the public `skorohod.sample`, one at a time, so
    the count needs no copy of the map's tables and no knowledge of how the
    map stores them.
    """
    d = witness.precision
    counts = {}
    for i in range(1 << d):
        x = value_at(witness.rmap, format(i, "0%db" % d) if d else "")
        counts[x] = counts.get(x, 0) + 1
    return counts
