"""Layered monotone maps from binary-tree levels onto a poset.

A probability valuation is realized as the law of a map from the tree: a
list of stages, each below the next in the probability order, climbs from
the point mass at bottom up to the target, and each climb is realized by
refining the current level map so that normalized counting measure pushes
forward to the next stage exactly. The refinement step distributes the
slots under each word among the targets prescribed by a transport plan;
the matching this requires always exists for probability measures, and
the deterministic slot-filling below constructs one outright.

A level map is a step function on the words of its level in lexicographic
order, so a layer is a total `cantor.StepMap`: the end of each run of
consecutive words with one value, and that value. Lifting, the law, the
checks and evaluation all work on the runs, so their cost grows with the
number of runs, not with 2^depth.

Everything here is exact: pushforwards are counting arguments, so equality
with the schedule stages is dyadic equality, not approximation. A lift
works on integers throughout: the current layer's run counts and the next
stage's numerators, both written in words of the new layer, go into one
flow network at that depth, so each unit of the plan is one word; the
schedule that represent_target lifts is made as integer numerators and
never as valuations.
"""

from __future__ import annotations

from functools import cache
from itertools import compress, islice

from . import flow as flowmod
from .cantor import StepMap, Word, _word_bits
from .dyadic import MAX_PARSED_EXPONENT, Dyadic
from .errors import (DepthExceeded, MixedBase, NotComparable, NotProbability,
                     ParseError, SourceExhausted, TooLarge)
from .poset import Poset
from .text import digits, digraph, known, read_lines, statement, writable
from .valuation import (SimpleValuation, _check_units, _network, _numerators,
                        _transport_units)

# deepest layer lift_step builds; layers are runs, and laws, draws and the
# settling of a sequence work on the runs, but format_map still lists all
# 2^depth words of a map, and a sequence's report one record per word
MAX_DEPTH = 16


def build_schedule(target: SimpleValuation, steps: int) -> list:
    """The convex schedule (1 - 2^-k) * target + 2^-k * bottom, k = 0..steps.

    Stage 0 is the bottom point mass, stage `steps` the target itself. With
    E the target's largest exponent and t(x) = n_x / 2^E, stage k weighs x
    by n_x (2^k - 1) / 2^(k + E), plus 2^E / 2^(k + E) at the bottom. The
    stages are the integer numerators _stages makes, each wrapped in one
    valuation, so the formula lives in one place, which represent_target
    reads without the wrapping; a bottom target gives the constant
    schedule. The stages are way below each other by construction: with t
    the target, on every upper set U without the bottom that stage k
    charges, (1 - 2^-k) t(U) < (1 - 2^-(k + 1)) t(U) <= stage (k + 1)(U),
    so stage k approximates stage k + 1.

    Stage k's exponent is at most E + k, E the target's largest; raises
    TooLarge before building when E + steps - 1 passes the parser's
    exponent bound, so every stage printed can be read back.
    """
    return list(_schedule_stages(target, steps))


def _schedule_stages(target: SimpleValuation, steps: int):
    """The stages of build_schedule(target, steps), made one at a time as
    they are read, so that a caller writing each one holds one stage.

    Its refusals are raised at the call, before any stage is made.
    """
    base = target.base
    return (SimpleValuation(base, {x: Dyadic(n, e) for x, n in nums.items()})
            for e, nums in _schedule(target, steps))


def _schedule(target: SimpleValuation, steps: int):
    """The schedule's stages as _stages makes them, after its refusals,
    which are raised at the call."""
    if steps < 1:
        raise ValueError("schedule length must be at least 1")
    if not target.is_probability():
        raise NotProbability("schedule target must have mass 1")
    e = target.max_exponent()
    top = e + steps - 1
    if top > MAX_PARSED_EXPONENT:
        raise TooLarge("schedule exponent %d exceeds the bound %d"
                       % (top, MAX_PARSED_EXPONENT))
    return _stages(target, e, steps)


def _stages(target: SimpleValuation, e: int, steps: int):
    """The schedule's stages, one at a time, each as (an exponent, the
    integer numerators of 2^-exponent in declaration order); e is the
    target's largest exponent.

    Stage k of 1..steps - 1 is written at k + e. That is its largest
    exponent, the one its valuation has: for e > 0 some n_x is odd, so
    n_x (2^k - 1) is odd, and so is the bottom's n (2^k - 1) + 2^e; for
    e = 0 the target is a point mass at x, and a point other than the
    bottom keeps 2^k - 1. The bottom point mass alone has stage k at 2^k
    over 2^k, and there the layer the lift makes lies at depth k either
    way, since every lift deepens the map by a level at least.
    """
    base = target.base
    bottom = base.bottom
    nums = _numerators(target, e)
    yield 0, {bottom: 1}
    # the target's points and the bottom, in declaration order
    padded = {x: nums.get(x, 0)
              for x in sorted({*nums, bottom}, key=base.index.__getitem__)}
    for k in range(1, steps):
        keep = (1 << k) - 1
        stage = {x: n * keep for x, n in padded.items()}
        stage[bottom] += 1 << e
        yield k + e, stage
    yield e, nums


def lift_step(current: StepMap, target: SimpleValuation) -> StepMap:
    """Refine a level map so counting measure pushes to `target` exactly.

    The current map's law, taken on the target's poset, must lie below
    `target` in the probability order; a value of the map that is not an
    element of that poset raises UnknownElement, and a target that is not
    a probability NotProbability, before any plan is made. The new depth
    is the smallest one past the current depth at which the target's
    weights become integer counts of words: the target's exponent if
    larger. There the law's numerators are the map's run counts in words
    of the new level, and they go to _lift with the target's.
    """
    base = target.base
    law = current.law(base)
    if not target.is_probability():
        raise NotProbability("lift target must have mass 1")
    depth = max(current.depth + 1, target.max_exponent())
    return _lift(base, current, _numerators(law, depth),
                 _numerators(target, depth), depth)


def _lift(base: Poset, current: StepMap, counts: dict, nums: dict,
          depth: int) -> StepMap:
    """The layer at `depth` refining `current` whose counting law is nums.

    counts holds the current layer's run counts and nums the stage's
    numerators, both in words of the new level, 2^-depth, and both in
    declaration order. The transport plan from counts to nums is solved at
    that depth, so each of its units is one word of the new level. Each
    run of the current layer, taken in word order, covers a block of the
    new level, which is dealt out to the targets its value x sends words
    to, in the poset's declaration order, each taking as many words as its
    remaining budget allows. That is the word-by-word lexicographic
    filling, done a run at a time over x's own targets, so the cost grows
    with the runs and the plan's entries, not with 2^depth; the result is
    deterministic and monotone over the current layer. Raises TooLarge
    when depth exceeds MAX_DEPTH, once the plan is made, so a stage that is
    not above the last is refused as such whatever its depth.

    A layer of one run, with value x, has law delta_x, whose only transport
    plan to the stage sends each point y its whole count from x; that plan
    is read off nums, with no flow solved, once x is found below every
    point (NotComparable otherwise, as a flow that cannot saturate
    refuses). Any other layer's plan comes from a fresh solve of the order
    network of counts and nums (valuation._network), outside the order
    decisions' slot: a lift never asks for the same pair twice, so it
    neither builds the slot's key nor evicts the pair kept there. Every
    plan takes the one plan check, _check_units, which is what lets
    represent trust the layers it builds.
    """
    if len(current.values) == 1:
        units = _forced_units(base, counts, nums)
    else:
        # NotComparable unless counts lie below nums
        _, units = _transport_units(
            base, flowmod.max_flow(_network(base, depth, counts, nums)))
    if depth > MAX_DEPTH:
        raise TooLarge("representation depth %d exceeds the bound %d"
                       % (depth, MAX_DEPTH))
    # x -> [y, budget in words of the new level], y in reverse declaration
    # order, so the next target to fill is last
    deals = {}
    for (x, y), k in reversed(units):
        deals.setdefault(x, []).append([y, k])
    stride = depth - current.depth
    ends, values = [], []
    start = pos = 0
    for end, x in zip(current.ends, current.values):
        need = (end - start) << stride
        start = end
        deal = deals.get(x, ())
        while need:
            if not deal:
                raise AssertionError("slot without budget at %r"
                                     % _word_bits(pos, depth))
            entry = deal[-1]
            y, take = entry
            if take <= need:
                deal.pop()
            else:
                take = need
                entry[1] -= need
            need -= take
            pos += take
            if values and values[-1] == y:
                ends[-1] = pos
            else:
                ends.append(pos)
                values.append(y)
    if any(deals.values()):
        raise AssertionError("transport budget left after the lift")
    return StepMap(depth, ends=ends, values=values)


def _forced_units(base: Poset, counts: dict, nums: dict) -> list:
    """The one transport plan from a point mass counts = {x: n} to nums,
    as checked integer units [((x, y), k), ...]."""
    (x,) = counts
    index = base.index
    up = base._up_mask[index[x]]
    if any(not up >> index[y] & 1 for y in nums):
        raise NotComparable("valuations are not ordered; no transport plan")
    units = [((x, y), k) for y, k in nums.items()]
    _check_units(base, counts, nums, units)
    return units


class RepresentationMap:
    """Stack of layers realizing a valuation as a law on tree levels.

    Layers are monotone along projections and strictly deepen; the final
    layer's counting pushforward is the represented valuation.

    The public constructor, and parse_map through it, checks that every
    layer is total, that its values are elements of base (UnknownElement
    otherwise), and that each layer lies above the one before on every
    word (first_disagreement). represent builds its map through _built,
    which checks none of this: each of its layers is total and one level
    deeper than the last by construction of the lift, its values are
    points of a stage's support, and every unit the lift deals moves from
    x up to some y >= x, which _check_units has checked on the plan, so
    each word's value lies above its prefix's. A property test re-runs the
    public check on the maps represent builds.
    """

    def __init__(self, base: Poset, layers):
        if not layers:
            raise ValueError("need at least one layer")
        self.base = base
        self.layers = list(layers)
        for layer in self.layers:
            ends = layer.ends
            if (not ends or ends[-1] != 1 << layer.depth
                    or len(ends) != len(layer.values)
                    or any(lo >= hi for lo, hi in zip([0] + ends, ends))):
                raise ValueError("layer at depth %d is not total"
                                 % layer.depth)
            base._check(*layer.values)
        for a, b in zip(self.layers, self.layers[1:]):
            if not a.depth < b.depth:
                raise ValueError("layer depths must increase strictly")
            i = a.first_disagreement(b, base)
            if i is not None:
                raise NotComparable("layers disagree above word %r"
                                    % _word_bits(i, b.depth))

    @classmethod
    def _built(cls, base: Poset, layers: list) -> "RepresentationMap":
        """The map of these layers, trusted as given: no check runs."""
        rmap = cls.__new__(cls)
        rmap.base, rmap.layers = base, layers
        return rmap

    @property
    def final_depth(self) -> int:
        return self.layers[-1].depth

    def law(self) -> SimpleValuation:
        return self.layers[-1].law(self.base)

    def evaluate(self, w: Word):
        """(chain of layer values along w, final value)."""
        top = self.final_depth
        if len(w.bits) < top:
            raise DepthExceeded("word %r shorter than depth %d"
                                % (w.bits, top))
        i = int(w.bits[:top], 2) if top else 0
        chain = [layer.at(i >> (top - layer.depth)) for layer in self.layers]
        return chain, chain[-1]

    def to_dot(self) -> str:
        statements = []
        for k, layer in enumerate(self.layers):
            for bits, y in layer.items():
                name = "L%d_%s" % (k, bits or "-")
                statements.append(statement(name, label="%s:%s"
                                            % (bits or "-", y)))
                if k:
                    prev = self.layers[k - 1]
                    statements.append(statement(
                        "L%d_%s" % (k - 1, bits[:prev.depth] or "-"), name))
        return digraph("layers", "TB", statements)


def represent(stages) -> RepresentationMap:
    """Realize a chain of probability valuations, each <= the next, stage by
    stage via _lift, from the depth-0 layer at the bottom.

    The first stage must be the bottom point mass (NotComparable
    otherwise); a later stage is refused as lift_step refuses it:
    NotProbability, then MixedBase when it lies on another poset, then
    NotComparable when it is not above the stage before. Way-below is not
    needed. Each stage goes to _represent as its largest exponent and its
    numerators there.
    """
    if not stages:
        raise ValueError("schedule needs at least one stage")
    base = stages[0].base
    layer = StepMap(0, ends=[1], values=[base.bottom])
    if stages[0] != layer.law(base):
        raise NotComparable("schedule must start at the bottom mass")

    def numerators(stage):
        if not stage.is_probability():
            raise NotProbability("lift target must have mass 1")
        if stage.base is not base:
            raise MixedBase("valuations live on different posets")
        e = stage.max_exponent()
        return e, _numerators(stage, e)

    return _represent(base, layer, map(numerators, stages[1:]))


def _represent(base: Poset, layer: StepMap, stages) -> RepresentationMap:
    """The map whose first layer is `layer`, the bottom's at depth 0, and
    whose later layers lift it through stages, each given as (e, integer
    numerators of 2^-e in declaration order): e is the stage's largest
    exponent, or one that gives its layer the same depth (see _stages).

    Each layer lies one level past the last at least, at e if that is
    deeper; there the current layer's counts and the stage's numerators
    are integer counts of words, and _lift deals them out. Every layer's
    law equals its stage exactly, and this is checked rather than trusted:
    each layer's run lengths are counted once and compared with its
    stage's numerators at the layer's depth (AssertionError otherwise,
    kept under `python -O`). The stage, equal to the layer's counts, is
    then the next lift's counts, whose plan travels as checked integer
    units. Those two checks make the layers total and monotone, so the map
    is returned without the public constructor's walk over them (see
    RepresentationMap).
    """
    layers = [layer]
    counts = {base.bottom: 1}
    for e, nums in stages:
        depth = max(layer.depth + 1, e)
        stride = depth - layer.depth
        if depth != e:
            nums = {x: n << (depth - e) for x, n in nums.items()}
        layer = _lift(base, layer, {x: n << stride for x, n in counts.items()},
                      nums, depth)
        if layer.counts() != nums:
            raise AssertionError("layer at depth %d does not push forward "
                                 "to its stage" % layer.depth)
        layers.append(layer)
        counts = nums
    return RepresentationMap._built(base, layers)


def represent_target(target: SimpleValuation,
                     steps: int) -> RepresentationMap:
    """represent(build_schedule(target, steps)), on the schedule's integer
    numerators, with no stage made a valuation; refused before the
    schedule when it cannot fit: every lift deepens the map by at least
    one level, so `steps` stages need depth `steps` or more."""
    if steps > MAX_DEPTH:
        raise TooLarge("representation depth %d or more exceeds the bound %d"
                       % (steps, MAX_DEPTH))
    stages = _schedule(target, steps)
    next(stages)    # the bottom mass, the first layer's law
    base = target.base
    return _represent(base, StepMap(0, ends=[1], values=[base.bottom]),
                      stages)


@cache
def _places(d: int) -> tuple:
    """The place values of a word of d bits, highest first."""
    return tuple(1 << k for k in range(d - 1, -1, -1))


def sample(rmap: RepresentationMap, bits):
    """The final layer's value at a word of d = final_depth bits drawn from
    an iterator; the bits, first bit highest, spell the word's number.

    The word is read in one slice of exactly d bits and folded by place
    value: its number is the sum of the place values of the bits that are
    true, so any object serves as a bit and counts as its truth value. A
    source that ends sooner raises SourceExhausted. The slice is a list,
    not a tuple: tuple() grows its result by resizing, and CPython keeps
    resized tuples on its free lists, where 20 000 depth-12 draws left
    about 300 KB (Python 3.11).
    """
    final = rmap.layers[-1]
    d = final.depth
    word = list(islice(bits, d))
    if len(word) < d:
        raise SourceExhausted("bit source ended after %d bits" % len(word))
    return final.at(sum(compress(_places(d), word)))


# -- serialization -----------------------------------------------------------

# a serialized layer at depth d must list 2^d entries, so anything beyond
# this is either corrupt or hostile
MAX_PARSED_DEPTH = 64


def format_map(rmap: RepresentationMap) -> str:
    """Line format: layers <count>, then per layer its depth and entries.

    The empty word (depth 0) is spelled "-".
    """
    lines = ["layers %d" % len(rmap.layers)]
    for layer in rmap.layers:
        writable(layer.values)
        lines.append("layer %d" % layer.depth)
        for bits, y in layer.items():
            lines.append("map %s %s" % (bits or "-", y))
    return "\n".join(lines) + "\n"


def parse_map(text: str, base: Poset) -> RepresentationMap:
    declared = None
    layers = []
    current = None
    for lineno, line, parts in read_lines(text):
        if parts[0] in ("layers", "layer") and len(parts) == 2:
            try:
                count = digits(parts[1])
            except ValueError:
                raise ParseError("expected an integer after %r" % parts[0],
                                 lineno)
            if count > MAX_PARSED_DEPTH:
                raise ParseError("%s %d out of range" % (parts[0], count),
                                 lineno)
            if parts[0] == "layers":
                if declared is not None:
                    raise ParseError("second layers header", lineno)
                declared = count
            else:
                current = (count, {})
                layers.append(current)
        elif parts[0] == "map" and len(parts) == 3:
            if current is None:
                raise ParseError("map entry before any layer", lineno)
            depth, table = current
            bits = "" if parts[1] == "-" else parts[1]
            if len(bits) != depth or bits.strip("01"):
                raise ParseError("word %r does not fit depth %d"
                                 % (parts[1], depth), lineno)
            known(parts[2], base, lineno)
            if bits in table:
                raise ParseError("word %r listed twice" % parts[1], lineno)
            table[bits] = parts[2]
        else:
            raise ParseError("unrecognized directive %r" % line, lineno)
    if declared is None or declared != len(layers):
        raise ParseError("layer count mismatch")
    if not layers:
        raise ParseError("no layers")
    for depth, table in layers:
        if len(table) != 1 << depth:
            raise ParseError("layer %d is not total" % depth)
    return RepresentationMap(base, [StepMap(d, t) for d, t in layers])
