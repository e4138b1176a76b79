"""Spans around the library's layers, recorded from outside the library.

`Tracer.install()` replaces every public function of every posetval module
with a wrapper, in each module that binds it (so `from .valuation import
leq` in a sibling module is seen too), plus a few methods named in
`METHODS`. A wrapper opens a span on entry and closes it on exit; the span's
parent is the span open when it started. Closed spans are folded at once
into per-name totals (calls, self time, total time), since a span per
`Dyadic` construction would otherwise hold millions of records. Self time
is a span's duration minus the durations of its child spans.

`uninstall()` restores every binding. While `active` is false the wrappers
pass straight through, so the benchmark's own checks are not counted.
"""

import importlib
import inspect
import sys
from time import perf_counter_ns

MODULES = ["dyadic", "poset", "flow", "valuation", "cantor", "chain",
           "skorohod", "pipeline", "cli"]
# (module, class, attribute) wrapped besides the public functions
METHODS = [
    ("dyadic", "Dyadic", "__post_init__"),
    ("poset", "Poset", "__init__"),
    ("poset", "Poset", "classify"),
    ("poset", "Poset", "enumerate_upper_sets"),
    ("pipeline", "SkorohodWitness", "law_on_grid"),
    ("pipeline", "SkorohodWitness", "driver"),
    ("cli", None, "_build_parser"),
]


class Stat:
    """Totals of the closed spans of one name, plus up to two tallies."""

    __slots__ = ("calls", "self_ns", "total_ns", "items", "edges")

    def __init__(self):
        self.calls = self.self_ns = self.total_ns = self.items = self.edges = 0


def _count_result(tracer, stat, args, result):
    stat.items += len(result)


def _count_network(tracer, stat, args, result):
    net = args[0]
    stat.items += len(net.left) + len(net.right) + 2    # with both terminals
    stat.edges += len(net.source_caps) + len(net.mid_caps) + len(net.sink_caps)


def _count_words(tracer, stat, args, result):
    stat.items += len(args[2])


def _trace_parse_args(tracer, stat, args, result):
    # `main` calls parse_args on the parser it just built
    result.parse_args = tracer._wrap(result.parse_args, "cli.parse_args")


# extra tallies read off a call's arguments or result
COUNTERS = {
    "cantor.level": _count_result,
    "poset.Poset.enumerate_upper_sets": _count_result,
    "flow.max_flow": _count_network,
    "flow.min_cut": _count_network,
    "skorohod.convergence_check": _count_words,
    "cli._build_parser": _trace_parse_args,
}


class Tracer:
    def __init__(self):
        self.stats = {}
        self.active = False
        self._open = [0]     # child time accumulated by each open span
        self._saved = []     # (owner, name, original) to restore

    def _wrap(self, fn, name):
        stat = self.stats.setdefault(name, Stat())
        count = COUNTERS.get(name)
        open_ = self._open
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = perf_counter_ns()
            open_.append(0)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter_ns() - t0
                children = open_.pop()
                open_[-1] += span
                stat.calls += 1
                stat.self_ns += span - children
                stat.total_ns += span
            if count is not None:
                count(tracer, stat, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        mods = {m: importlib.import_module("posetval." + m) for m in MODULES}
        wrappers = {}    # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(obj, "%s.%s" % (short, attr))
        for short, cls, attr in METHODS:
            owner = getattr(mods[short], cls) if cls else mods[short]
            original = getattr(owner, attr)
            name = ".".join(p for p in (short, cls, attr) if p)
            wrapper = self._wrap(original, name)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            wrappers[id(original)] = wrapper
        owners = list(mods.values()) + [sys.modules["posetval"]]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper is not obj:
                    self._saved.append((owner, attr, obj))
                    setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- reading -------------------------------------------------------------

    def stat(self, name) -> Stat:
        return self.stats.get(name) or Stat()

    def self_s(self, *names) -> float:
        return sum(self.stat(n).self_ns for n in names) / 1e9

    def module_self_s(self, module) -> float:
        return sum(s.self_ns for n, s in self.stats.items()
                   if n.startswith(module + ".")) / 1e9

    def calls(self, *names) -> int:
        return sum(self.stat(n).calls for n in names)

    def items(self, *names) -> int:
        return sum(self.stat(n).items for n in names)
