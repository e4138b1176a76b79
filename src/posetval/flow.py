"""Exact max-flow / min-cut on order networks: source -> left -> right -> sink.

This is the computational engine behind the order test for finitely
supported measures: the question "can all of mu's mass be routed upward
into nu's mass?" is a max-flow problem whose capacities are dyadic. A
network carries them as integers in units of 2^-p, its field p, so the
search runs over plain integers (termination and exactness are trivial)
and reads no exponent: every flow it returns counts units of 2^-p too.

The module is internal: valuation._network makes every network it
solves, the order decisions' and the Skorohod lifts'. A network has one
shape. Its middle edges are one bitmask row per
left node (see MaskEdges), all of one capacity, which exceeds every sink
capacity. The flow on x -> y is at most y's sink capacity, so a middle
edge never saturates and a minimum cut never crosses the middle layer:
the solver never reads the middle capacity, and the rows never change.

The residual network is held as bitmasks. Left node k is bit k of a left
mask; a right node is the bit it has in the rows, and the bits ascend in
the right side's declaration order. The solver keeps, per right node, the
mask of left nodes whose edge to it carries flow (its residual edges
back); a flow count only for the (left, right) pairs that carry flow; and
one mask each of the left nodes with source residual and of the right
nodes with sink residual, a bit cleared as its terminal edge saturates
(terminal edges only lose residual: no path runs back through the source
or the sink).

It is solved by Dinic's method. Each phase levels the network by a
breadth-first search in which a level is one mask, the OR of the rows of
the level before less the nodes already levelled. The search stops at the
sink's level: no node that deep lies on a shortest path to the sink. A
blocking flow then saturates the level graph by a depth-first search that
steps from each node to the lowest set bit of (its successor mask & the
next level); a node found to be a dead end clears its own bit from its
level.

Every augmenting path is the one a breadth-first (Edmonds-Karp) search with
neighbours in declaration order would take, so the returned flow, and hence
every transport plan built from it, is deterministic. Within a phase an
edge between consecutive levels only loses residual (augmenting raises only
reverse edges, which lead one level back) and a dead end stays dead, so
every successor below the lowest usable bit is out of use for the rest of
the phase: the lowest set bit is the node an edge-pointer scan of the
sorted adjacency would reach, with no pointer kept. Bits ascend in
declaration order, so each path found is the lexicographically first
shortest path of the residual network, the path a breadth-first search
records, since its tree path to a node is the first shortest one. The last
search, the one that fails to reach the sink, marks the source side of a
minimum cut; the returned flow keeps it as `cut`, the search's two masks,
left and right, so one solve answers both the flow and the cut question.

A phase whose levels are two masks, paths source -> x -> y -> sink, runs
as a direct greedy pass instead: for each left node x of the first level
in bit order, for each set bit y of (x's row & the right level) in bit
order, push the lesser of the two terminal residuals; a drained right node
leaves the level, the unit on x -> y sets x's bit in y's back mask, and x
is done once its source edge saturates. This makes the augmentations of
the general search, in the same order and by the same amounts, so every
flow, cut and transport plan is the same:
- Only the first phase can have two levels, since the shortest path
  length grows strictly from phase to phase. So nothing has moved yet and
  no back edge exists.
- The search takes the lowest x of the first level and the lowest y of
  (x's row & the right level), augments, and resumes at the tail of the
  first saturated edge. If that is the source edge, x has left the first
  level and the search goes on at the next x. Otherwise y has left the
  right level, and no other bit changed, so the search goes on at x's next
  set bit after y.
- A left node with no set bit left is a dead end, and the search moves on
  to the next x; once the first level is spent, the phase ends.
The greedy pass walks exactly these steps, without building a path.

A phase whose levels are four masks, paths source -> x -> y -> x2 -> y2
-> sink, runs as a direct pass too: for each left node x of the first
level in bit order, take the lowest y of (x's row & the second level), the
lowest x2 of (y's back mask & the third level) and the lowest y2 of (x2's
row & the last level), and push the least of the source, back and sink
residuals. Each saturated edge then leaves its mask: the source edge takes
x out of the first level (the pass goes on at the next x), the back edge
takes x2 out of y's back mask, and the sink edge takes y2 out of the last
level. Then the pass searches again from x's row. A node with no set bit
left at its step is a dead end and clears its own bit from its level: y
from the second, x2 from the third; an x with none is done. This makes
the augmentations of the general search, in the same order and by the
same amounts:
- The general search takes the same four lowest-bit steps, augments by
  the same least residual, and resumes at the tail of the first saturated
  edge; at a dead end it clears the node's bit and steps back to the node
  before it.
- Within the phase no mask the pass reads gains a bit: augmenting sets x
  in y's back mask, but x lies in the first level, not the third, and sets
  x2 in y2's back mask, which the phase never reads, since y2 is in the
  last level. Edges ahead of the first saturated one keep residual, and
  their nodes stay in their levels.
- So the search again from x's row finds the same y, x2 and y2 up to the
  tail of the first saturated edge, and from there takes the step the
  general search takes on resuming; after a dead end it takes the step
  the general search takes on stepping back.
The direct pass walks exactly these steps, without building a path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .dyadic import Dyadic
from .poset import _bits
from .text import digraph, statement

SOURCE = "source"
SINK = "sink"


class MaskEdges:
    """Middle edges of one capacity, given as one bitmask row per left node.

    Bit b of rows[x] is the edge (x, names[b]); rows lists the left side in
    order, and set bits must ascend in the right side's declaration order.
    cap is the one capacity, an integer in the network's units. `columns`,
    the OR of the rows, masks every right node an edge reaches; it is taken
    once, here, for every solve. len counts the edges, the set bits of the
    rows.
    """

    def __init__(self, rows: dict, names, cap: int):
        self.rows, self.names, self.cap = rows, names, cap
        columns = 0
        for row in rows.values():
            columns |= row
        self.columns = columns

    def __len__(self):
        return sum(row.bit_count() for row in self.rows.values())


@dataclass
class FlowNetwork:
    """Bipartite network with terminals: the order network's shape.

    Edges run source -> left, left -> right (mid_caps, MaskEdges rows),
    right -> sink. Left and right node names may overlap (they are
    distinct nodes). Every capacity is a nonnegative integer count of
    units of 2^-p: a terminal capacity c stands for c / 2^p. The middle
    capacity is positive and exceeds every sink capacity, so no middle
    edge can saturate.

    The fields are trusted as given: nothing checks them. Their one
    producer, valuation._network, builds the rows as up-set masks
    restricted to the sinks' support, listed in the sources' order, with
    one capacity above every sink's, so the shape holds by construction;
    the test suite keeps a reference check of it and runs it on the
    networks the decisions and the lifts solve.
    """

    left: list
    right: list
    source_caps: dict
    mid_caps: MaskEdges
    sink_caps: dict
    p: int


class Flow:
    """A maximum flow; capacity and conservation hold exactly.

    `cut` is the source side of a minimum cut, the nodes still reachable
    in the final residual network, as the last search's (left mask, right
    mask): bit k of the left mask stands for left[k], bit b of the right
    one for the right node names[b]. Its crossing capacity equals `value`.
    `saturated` tells whether every source edge is full, that is, whether
    the flow routes all the supply. `units` is (p, (((x, y), k), ...)),
    p the network's: the k units of 2^-p moved on each
    middle edge that carries flow, by left node, then right node, in
    declaration order. Every k is positive: the solve keeps a count only
    for an edge that carries flow, since each of its passes deletes a count
    that falls to 0. It is the flow's one form: a transport plan travels in
    it, and by conservation a left node's row sum is the flow on its source
    edge, a right node's column sum the flow on its sink edge. It is built
    on first use, since the decisions need only `saturated` and the cut,
    and it is a tuple of tuples, so a flow shared between callers cannot
    be changed through it. `net` is the network the flow was solved on.
    """

    def __init__(self, net: FlowNetwork, moved: dict, total: int,
                 cut: tuple, saturated: bool):
        # moved[k, b]: units of 2^-p from left[k] to the right node names[b];
        # total: the units that left the source
        self.net, self._moved, self.cut = net, moved, cut
        self.saturated = saturated
        self._total = total

    @cached_property
    def value(self) -> Dyadic:
        """The units that left the source, over 2^p; made on first read,
        since no decision reads it."""
        return Dyadic(self._total, self.net.p)

    @cached_property
    def units(self) -> tuple:
        """The flow's units, by left node, then right node: the keys
        (k, b) of `moved` are unique, so sorting the keys alone gives the
        order sorting its items would, without comparing (key, count)
        pairs."""
        left, names = self.net.left, self.net.mid_caps.names
        moved = self._moved
        # from a list: tuple() grows a generator's tuple by resizing it,
        # which raised peak RSS by about 1 MB per 6 000 Skorohod builds
        # (Python 3.11)
        return self.net.p, tuple([((left[k], names[b]), moved[k, b])
                                  for k, b in sorted(moved)])


def _levels(source: int, sink: int, fwd: list, back: list):
    """The levels of a breadth-first search from the source, one mask each.

    source and sink mask the left and right nodes with terminal residual;
    fwd[k] is left node k's row, back[b] right node b's mask of left nodes
    whose edge to it carries flow. Returns (levels, seen): levels[i] is
    level i + 1, left nodes at even i and right nodes at odd i, and the last
    level keeps only the right nodes with sink residual. levels is None
    when the sink is out of reach; seen, the masks of the left and right
    nodes reached, is then the source side of a minimum cut.
    """
    levels, seen = [source], [source, 0]
    while levels[-1]:
        side = len(levels) & 1      # 1: the next level is right
        succ = fwd if side else back
        nxt, mask = 0, levels[-1]
        while mask:
            low = mask & -mask
            nxt |= succ[low.bit_length() - 1]
            mask ^= low
        nxt &= ~seen[side]
        if side and nxt & sink:
            return levels + [nxt & sink], seen
        seen[side] |= nxt
        levels.append(nxt)
    return None, seen


def max_flow(net: FlowNetwork) -> Flow:
    """A maximum flow together with a minimum cut (integer Dinic on masks).

    Each phase levels the residual network into one mask per level, then
    finds a blocking flow. A phase of three-edge paths, only ever the
    first, is a greedy pass over the left level's bits and then each one's
    right bits. A phase of five-edge paths is a direct pass of nested
    lowest-bit steps over its four level masks, which searches again from
    the left node's row after each augmentation. A deeper phase runs a
    depth-first search on an explicit path that steps to the lowest usable
    bit of the next level and, after an augmentation, resumes at the tail
    of the first saturated edge, which is a terminal or a back edge: middle
    edges never saturate. All three take the breadth-first augmenting
    paths, in the same order and by the same amounts (see the module
    docstring). The capacities are read as the integers they are.
    """
    names = net.mid_caps.names
    # fwd[k]: the right nodes of left node k's middle edges, all residual;
    # back[b]: left nodes whose middle edge to right node b carries flow
    fwd = list(net.mid_caps.rows.values())
    sources, sinks = net.source_caps, net.sink_caps
    sent = [sources.get(x, 0) for x in net.left]
    columns = net.mid_caps.columns
    back = [0] * columns.bit_length()
    drained = back[:]
    snk = 0
    while columns:
        low = columns & -columns
        columns ^= low
        b = low.bit_length() - 1
        c = sinks.get(names[b])
        if c:
            drained[b] = c
            snk |= low
    # from here on, sent and drained hold the terminal residuals
    supply = sum(sent)
    moved = {}
    src = sum(1 << k for k, r in enumerate(sent) if r)
    while True:
        levels, seen = _levels(src, snk, fwd, back)
        if levels is None:
            break   # seen is exactly the source side of a cut
        top = len(levels)
        if top == 2:
            # the first phase, as a greedy pass (see the module docstring)
            right, ks = levels[1], levels[0]
            while ks:
                xbit = ks & -ks
                ks ^= xbit
                k = xbit.bit_length() - 1
                s = sent[k]
                bs = fwd[k] & right
                while bs:
                    ybit = bs & -bs
                    bs ^= ybit
                    b = ybit.bit_length() - 1
                    t = drained[b]
                    back[b] |= xbit
                    if t < s:
                        # the sink edge saturates: y leaves, x goes on
                        moved[k, b] = t
                        drained[b] = 0
                        right ^= ybit
                        snk ^= ybit
                        s -= t
                        continue
                    # the source edge saturates, and the sink edge too
                    # when t == s: x is done
                    moved[k, b] = s
                    t -= s
                    drained[b] = t
                    if not t:
                        right ^= ybit
                        snk ^= ybit
                    s = 0
                    src ^= xbit
                    break
                sent[k] = s
            continue
        if top == 4:
            # paths source -> x -> y -> x2 -> y2 -> sink, as a direct pass
            # (see the module docstring)
            ks, ys, xs, zs = levels
            while ks:
                xbit = ks & -ks
                ks ^= xbit
                k = xbit.bit_length() - 1
                row = fwd[k]
                s = sent[k]
                while True:
                    nxt = row & ys
                    if not nxt:
                        break                   # x is a dead end
                    ybit = nxt & -nxt
                    b = ybit.bit_length() - 1
                    nxt = back[b] & xs
                    if not nxt:
                        ys ^= ybit              # y is a dead end
                        continue
                    x2bit = nxt & -nxt
                    k2 = x2bit.bit_length() - 1
                    nxt = fwd[k2] & zs
                    if not nxt:
                        xs ^= x2bit             # x2 is a dead end
                        continue
                    zbit = nxt & -nxt
                    b2 = zbit.bit_length() - 1
                    f = moved[k2, b]
                    t = drained[b2]
                    delta = s if s < f else f
                    if t < delta:
                        delta = t
                    moved[k, b] = moved.get((k, b), 0) + delta
                    back[b] |= xbit
                    if f == delta:
                        del moved[k2, b]
                        back[b] ^= x2bit
                    else:
                        moved[k2, b] = f - delta
                    moved[k2, b2] = moved.get((k2, b2), 0) + delta
                    back[b2] |= x2bit
                    drained[b2] = t - delta
                    if t == delta:
                        zs ^= zbit
                        snk ^= zbit
                    s -= delta
                    if not s:
                        src ^= xbit
                        break
                sent[k] = s
            continue
        # path[i] is at level i + 1: left at even i, right at odd; d nodes
        # of it are live
        path, d = [0] * top, 0
        last = top - 1
        while True:
            if d == top:
                # one pass over the bounded edges in path order (the source
                # edge, the back edges path[e - 1] -> path[e] at even e,
                # the sink edge) finds the least residual and the first
                # edge with it; the search resumes at that edge's tail,
                # and a saturated sink edge leaves its right node a dead end
                k = path[0]
                delta, d = sent[k], 0
                for e in range(2, top, 2):
                    f = moved[path[e], path[e - 1]]
                    if f < delta:
                        delta, d = f, e
                z = path[last]
                t = drained[z]
                if t < delta:
                    delta, d = t, last
                sent[k] -= delta
                if not sent[k]:
                    levels[0] ^= 1 << k
                    src ^= 1 << k
                # one step per forward edge path[e - 1] -> path[e] and the
                # back edge path[e] -> path[e + 1] after it, which cancels
                # flow on path[e + 1] -> path[e]
                for e in range(1, last, 2):
                    b, k = path[e], path[e - 1]
                    moved[k, b] = moved.get((k, b), 0) + delta
                    mask = back[b] | 1 << k
                    k = path[e + 1]
                    f = moved[k, b] - delta
                    if f:
                        moved[k, b] = f
                    else:
                        del moved[k, b]
                        mask ^= 1 << k
                    back[b] = mask
                k = path[last - 1]
                moved[k, z] = moved.get((k, z), 0) + delta
                back[z] |= 1 << k
                drained[z] = t - delta
                if t == delta:
                    levels[last] ^= 1 << z
                    snk ^= 1 << z
                continue
            if d:
                u = path[d - 1]
                nxt = (fwd[u] if d & 1 else back[u]) & levels[d]
            else:
                nxt = levels[0]
            if nxt:
                path[d] = (nxt & -nxt).bit_length() - 1
                d += 1
            elif d:
                d -= 1
                levels[d] ^= 1 << path[d]       # dead end
            else:
                break

    return Flow(net, moved, supply - sum(sent), tuple(seen), not src)


def to_dot(flow: Flow) -> str:
    """Debug rendering of a flow's network, each edge labelled with its flow.

    The flow on an edge is read off `units`: the edge's own units in the
    middle, a row sum on a source edge, a column sum on a sink edge. An
    edge that carries nothing shows its capacity alone. Flows and
    capacities are shown as the dyadics their units of 2^-p stand for. The
    middle edges are read off the rows: by left node, then by ascending
    bit.
    """
    net = flow.net
    p, units = flow.units
    rows, cols = {}, {}
    for (x, y), k in units:
        rows[x] = rows.get(x, 0) + k
        cols[y] = cols.get(y, 0) + k
    across = dict(units)

    def label(c, k):
        c = Dyadic(c, p)
        return "%s of %s" % (Dyadic(k, p), c) if k else str(c)

    statements = []
    for x, c in net.source_caps.items():
        statements.append(statement(SOURCE, "L_%s" % x,
                                    label=label(c, rows.get(x))))
    names, cap = net.mid_caps.names, net.mid_caps.cap
    for x, row in net.mid_caps.rows.items():
        for b in _bits(row):
            y = names[b]
            statements.append(statement("L_%s" % x, "R_%s" % y,
                                        label=label(cap, across.get((x, y)))))
    for y, c in net.sink_caps.items():
        statements.append(statement("R_%s" % y, SINK,
                                    label=label(c, cols.get(y))))
    return digraph("flow", "LR", statements)
