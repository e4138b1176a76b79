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
with the schedule stages is dyadic equality, not approximation.
"""

from __future__ import annotations

from .cantor import StepMap, Word, _bits
from .dyadic import MAX_PARSED_EXPONENT, Dyadic
from .errors import (DepthExceeded, NotComparable, NotProbability,
                     ParseError, SourceExhausted, TooLarge)
from .poset import Poset
from .text import digits, digraph, known, read_lines, statement, writable
from .valuation import (SimpleValuation, _check_units, _same_base,
                        _transport_units, delta)

# deepest layer lift_step builds; layers are runs, and laws, draws and the
# settling of a sequence work on the runs, but format_map still lists all
# 2^depth words of a map, and a sequence's report one record per word
MAX_DEPTH = 16


def build_schedule(target: SimpleValuation, steps: int) -> list:
    """The convex schedule (1 - 2^-k) * target + 2^-k * bottom, k = 0..steps.

    Stage 0 is the bottom point mass, stage `steps` the target itself. With
    E the target's largest exponent and t(x) = n_x / 2^E, stage k weighs x
    by n_x (2^k - 1) / 2^(k + E), plus 2^E / 2^(k + E) at the bottom, so
    each stage is one valuation built from integer numerators; a bottom
    target gives the constant schedule. The stages are way below each other
    by construction: with t the target, on every upper set U without the
    bottom that stage k charges, (1 - 2^-k) t(U) < (1 - 2^-(k + 1)) t(U)
    <= stage (k + 1)(U), so stage k approximates stage k + 1.

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
    """The schedule's stages, one at a time; e is the target's largest
    exponent."""
    nums = {x: w.rescale(e) for x, w in target.weights.items()}
    base = target.base
    yield delta(base, base.bottom)
    for k in range(1, steps):
        keep = (1 << k) - 1
        weights = {x: n * keep for x, n in nums.items()}
        weights[base.bottom] = weights.get(base.bottom, 0) + (1 << e)
        yield SimpleValuation(base, {x: Dyadic(n, k + e)
                                     for x, n in weights.items()})
    yield target


def lift_step(current: StepMap, target: SimpleValuation,
              base: Poset) -> StepMap:
    """Refine a level map so counting measure pushes to `target` exactly.

    The current map's law must lie below `target` in the probability
    order. The new depth is the smallest one past the current depth at
    which the laws and the transport numbers all become integer counts:
    the target's exponent if larger, since the current law's exponent is
    at most its depth and a flow's at most its capacities'. The transport
    plan travels as the flow's checked integer units of 2^-p, and each
    unit from x to y becomes 2^(depth - p) words of the new level. Each
    run of the current layer, taken in word order, covers a block of the
    new level, which is dealt out to the targets its value x sends mass to,
    in the poset's declaration order, each taking as many words as its
    remaining budget allows. That is the word-by-word lexicographic
    filling, done a run at a time over x's own targets, so the cost grows
    with the runs and the plan's entries, not with 2^depth; the result is
    deterministic and monotone over the current layer. Raises TooLarge
    when that depth exceeds MAX_DEPTH.

    A layer of one run, with value x, has law delta_x, whose only transport
    plan to the target sends each target point y its whole weight from x;
    that plan is read off the target's numerators, with no flow solved,
    once x is found below the whole support (NotComparable otherwise, as
    transport_plan raises). Every plan takes the one plan check.
    """
    return _lift(current, current.law(base), target, base)


def _lift(current: StepMap, law: SimpleValuation, target: SimpleValuation,
          base: Poset) -> StepMap:
    """lift_step, given the current layer's law."""
    if not target.is_probability():
        raise NotProbability("lift target must have mass 1")
    if len(current.values) == 1:
        p, units = _forced_units(law, target)
    else:
        p, units = _transport_units(law, target)  # NotComparable unless <=
    depth = max(current.depth + 1, target.max_exponent())
    if depth > MAX_DEPTH:
        raise TooLarge("representation depth %d exceeds the bound %d"
                       % (depth, MAX_DEPTH))
    # x -> [y, budget in words of the new level], y in reverse declaration
    # order, so the next target to fill is last
    deals = {}
    for (x, y), k in reversed(units):
        deals.setdefault(x, []).append([y, k << (depth - p)])
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
                                     % _bits(pos, depth))
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


def _forced_units(law: SimpleValuation, target: SimpleValuation) -> tuple:
    """The one transport plan from a point mass law = delta_x to target, as
    checked integer units (p, [((x, y), k), ...]) of 2^-p."""
    _same_base(law, target)
    (x,) = law.weights
    index = law.base.index
    up = law.base._up_mask[index[x]]
    if any(not up >> index[y] & 1 for y in target.weights):
        raise NotComparable("valuations are not ordered; no transport plan")
    p = target.max_exponent()
    units = [((x, y), w.rescale(p)) for y, w in target.weights.items()]
    _check_units(law, target, p, units)
    return p, units


class RepresentationMap:
    """Stack of layers realizing a valuation as a law on tree levels.

    Layers are monotone along projections and strictly deepen; the final
    layer's counting pushforward is the represented valuation.
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
        for a, b in zip(self.layers, self.layers[1:]):
            if not a.depth < b.depth:
                raise ValueError("layer depths must increase strictly")
            i = a.first_disagreement(b, base)
            if i is not None:
                raise NotComparable("layers disagree above word %r"
                                    % _bits(i, b.depth))

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
    stage via lift_step, from the depth-0 layer at the bottom.

    The first stage must be the bottom point mass (NotComparable
    otherwise); a later stage is refused as lift_step refuses it:
    NotProbability, MixedBase, or NotComparable when it is not above the
    stage before. Way-below is not needed. Every layer's law equals its
    stage exactly, and this is checked rather than trusted: each layer's
    run lengths are counted once and compared with its stage's numerators
    at the layer's depth (AssertionError otherwise, kept under `python
    -O`). The stage, equal to the layer's law, then goes to the next lift,
    whose plan travels as checked integer units.
    """
    if not stages:
        raise ValueError("schedule needs at least one stage")
    base = stages[0].base
    layers = [StepMap(0, ends=[1], values=[base.bottom])]
    if stages[0] != layers[0].law(base):
        raise NotComparable("schedule must start at the bottom mass")
    for law, stage in zip(stages, stages[1:]):
        layer = _lift(layers[-1], law, stage, base)
        if layer.counts() != {x: w.rescale(layer.depth)
                              for x, w in stage.weights.items()}:
            raise AssertionError("layer at depth %d does not push forward "
                                 "to its stage" % layer.depth)
        layers.append(layer)
    return RepresentationMap(base, layers)


def represent_target(target: SimpleValuation,
                     steps: int) -> RepresentationMap:
    """represent(build_schedule(target, steps)), refused before the build
    when it cannot fit: every lift deepens the map by at least one level,
    so `steps` stages need depth `steps` or more."""
    if steps > MAX_DEPTH:
        raise TooLarge("representation depth %d or more exceeds the bound %d"
                       % (steps, MAX_DEPTH))
    return represent(build_schedule(target, steps))


def sample(rmap: RepresentationMap, bits):
    """The final layer's value at a word drawn bit by bit from an iterator
    of 0/1; the bits, first bit highest, spell the word's number."""
    it = iter(bits)
    i = 0
    for n in range(rmap.final_depth):
        try:
            bit = next(it)
        except StopIteration:
            raise SourceExhausted("bit source ended after %d bits" % n)
        i = i << 1 | (1 if bit else 0)
    return rmap.layers[-1].at(i)


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
