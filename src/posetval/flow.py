"""Exact max-flow / min-cut on order networks: source -> left -> right -> sink.

This is the computational engine behind the order test for finitely
supported measures: the question "can all of mu's mass be routed upward
into nu's mass?" is a max-flow problem whose capacities are dyadic. All
capacities are rescaled to a common denominator 2^p, the search runs over
plain integers (so termination and exactness are trivial), and results are
scaled back; every returned flow is therefore dyadic with exponent <= p.

A network has one shape. Its middle edges are one bitmask row per left
node (see MaskEdges), all of one capacity, which must exceed every sink
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
minimum cut; the returned flow keeps it as the search's two masks, left
and right, so one solve answers both the flow and the cut question. The
cut's tagged node set is built from the masks on its first read: the
order decisions and the lift never read it.

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
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

from .dyadic import Dyadic
from .poset import _bits
from .text import digraph, statement

SOURCE = "source"
SINK = "sink"


class MaskEdges(Mapping):
    """Middle edges of one capacity, given as one bitmask row per left node.

    Bit b of rows[x] is the edge (x, names[b]); rows lists the left side in
    order, and set bits must ascend in the right side's declaration order.
    `columns`, the OR of the rows, masks every right node an edge reaches;
    it is taken once, here, for the network's check and every solve.
    Read as a mapping (x, y) -> cap, the edges come in left order, then by
    ascending bit; the dict is built on the first lookup or iteration, and
    len counts bits.
    """

    def __init__(self, rows: dict, names, cap: Dyadic):
        self.rows, self.names, self.cap = rows, names, cap
        columns = 0
        for row in rows.values():
            columns |= row
        self.columns = columns

    def __len__(self):
        return sum(row.bit_count() for row in self.rows.values())

    def __iter__(self):
        return iter(self._edges)

    def __getitem__(self, key):
        return self._edges[key]

    def __repr__(self):
        return "MaskEdges(%r)" % (self._edges,)

    @cached_property
    def _edges(self) -> dict:
        names, cap = self.names, self.cap
        return {(x, names[b]): cap for x, row in self.rows.items()
                for b in _bits(row)}


@dataclass
class FlowNetwork:
    """Bipartite network with terminals: the order network's shape.

    Edges run source -> left, left -> right (mid_caps, MaskEdges rows),
    right -> sink. Left and right node names may overlap (they are
    distinct nodes). The middle capacity must be positive and exceed every
    sink capacity, so no middle edge can saturate.
    """

    left: list
    right: list
    source_caps: dict
    mid_caps: MaskEdges
    sink_caps: dict

    def __post_init__(self):
        right = {y: j for j, y in enumerate(self.right)}
        if len(right) != len(self.right):
            raise ValueError("duplicate right node name")
        if set(self.source_caps) - set(self.left) \
                or set(self.sink_caps) - right.keys():
            raise ValueError("terminal capacity on unknown node")
        mid = self.mid_caps
        if not isinstance(mid, MaskEdges):
            raise TypeError("middle edges must be MaskEdges rows")
        cap = mid.cap   # c < cap, as numerators over 2^(c.exp + cap.exp)
        if not cap.num or any(c.num << cap.exp >= cap.num << c.exp
                              for c in self.sink_caps.values()):
            raise ValueError("middle capacity %s is not above zero and every "
                             "sink capacity" % cap)
        if list(mid.rows) != self.left:
            # rows is a dict, so this refuses a repeated left name too
            raise ValueError("mask rows must list the left side in order")
        last = -1
        for b in _bits(mid.columns):
            j = right.get(mid.names[b]) if b < len(mid.names) else None
            if j is None or j <= last:
                raise ValueError("mask bit %d is no right node, or out of "
                                 "the right side's order" % b)
            last = j

    def common_exponent(self) -> int:
        caps = [*self.source_caps.values(), *self.sink_caps.values()]
        return max((c.exp for c in caps), default=0)


class Flow:
    """A maximum flow; capacity and conservation hold exactly.

    `cut` is the source side of a minimum cut: SOURCE plus the tagged nodes
    ("left", x) / ("right", y) still reachable in the final residual
    network. Its crossing capacity equals `value`. The flow keeps that side
    as `_seen`, the last search's (left mask, right mask): bit k of the
    left mask stands for left[k], bit b of the right one for the right node
    names[b]. `cut` is built from the masks on its first read; a caller
    that needs only the masks reads `_seen`. `units` is (p,
    (((x, y), k), ...)): the k units of 2^-p moved on each middle edge that
    carries flow, by left node, then right node, in declaration order. It
    is the flow's one form: a transport plan travels in it, and by
    conservation a left node's row sum is the flow on its source edge, a
    right node's column sum the flow on its sink edge. It is built on first
    use, since the decisions need only `value` and the cut's masks, and it
    is a tuple of tuples, so a flow shared between callers cannot be
    changed through it. `net` is the network the flow was solved on.
    """

    def __init__(self, net: FlowNetwork, p: int, moved: dict, total: int,
                 seen: tuple):
        # moved[k, b]: units of 2^-p from left[k] to the right node names[b];
        # total: the units that left the source
        self.net, self._p, self._moved = net, p, moved
        self._seen = seen
        self.value = Dyadic(total, p)

    @cached_property
    def cut(self) -> frozenset:
        left, names = self.net.left, self.net.mid_caps.names
        seen_left, seen_right = self._seen
        cut = {SOURCE}
        cut.update(("left", left[k]) for k in _bits(seen_left))
        cut.update(("right", names[b]) for b in _bits(seen_right))
        return frozenset(cut)

    @cached_property
    def units(self) -> tuple:
        left, names = self.net.left, self.net.mid_caps.names
        # from a list: tuple() grows a generator's tuple by resizing it,
        # which raised peak RSS by about 1 MB per 6 000 Skorohod builds
        # (Python 3.11)
        return self._p, tuple([((left[k], names[b]), f)
                               for (k, b), f in sorted(self._moved.items())
                               if f])


def _levels(source: int, sink: int, fwd: list, back: dict):
    """The levels of a breadth-first search from the source, one mask each.

    source and sink mask the left and right nodes with terminal residual.
    Returns (levels, seen): levels[i] is level i + 1, left nodes at even i
    and right nodes at odd i, and the last level keeps only the right nodes
    with sink residual. levels is None when the sink is out of reach; seen,
    the masks of the left and right nodes reached, is then the source side
    of a minimum cut.
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
    finds a blocking flow by a depth-first search on an explicit path that
    steps to the lowest usable bit of the next level. After an augmentation
    the search resumes at the tail of the first saturated edge, which is a
    terminal or a back edge: middle edges never saturate. A phase of
    three-edge paths, only ever the first, is a greedy pass over the left
    level's bits and then each one's right bits instead. The augmenting
    paths are the breadth-first ones (see the module docstring).
    """
    p = net.common_exponent()
    names = net.mid_caps.names
    # fwd[k]: the right nodes of left node k's middle edges, all residual;
    # back[b]: left nodes whose middle edge to right node b carries flow
    fwd = list(net.mid_caps.rows.values())
    sent = [0 if c is None else c.num << (p - c.exp)
            for c in map(net.source_caps.get, net.left)]
    columns = net.mid_caps.columns
    back, drained = {}, {}
    while columns:
        low = columns & -columns
        columns ^= low
        b = low.bit_length() - 1
        c = net.sink_caps.get(names[b])
        back[b] = 0
        drained[b] = 0 if c is None else c.num << (p - c.exp)
    # from here on, sent and drained hold the terminal residuals
    supply = sum(sent)
    moved = {}
    src = sum(1 << k for k, r in enumerate(sent) if r)
    snk = sum(1 << b for b, r in drained.items() if r)
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
        path = []   # path[i] is at level i + 1: left at even i, right at odd
        while True:
            d = len(path)
            if d == top:
                # one pass over the bounded edges in path order (the source
                # edge, the back edges path[e - 1] -> path[e] at even e,
                # the sink edge) finds the least residual and the first
                # edge with it; the search resumes at that edge's tail,
                # and a saturated sink edge leaves its right node a dead end
                k = path[0]
                delta, resume = sent[k], 0
                for e in range(2, top, 2):
                    f = moved[path[e], path[e - 1]]
                    if f < delta:
                        delta, resume = f, e
                b = path[-1]
                if drained[b] < delta:
                    delta, resume = drained[b], top - 1
                sent[k] -= delta
                if not sent[k]:
                    levels[0] &= ~(1 << k)
                    src &= ~(1 << k)
                for e in range(1, top):
                    if e & 1:       # forward along left k -> right b
                        k, b = path[e - 1], path[e]
                        moved[k, b] = moved.get((k, b), 0) + delta
                        back[b] |= 1 << k
                    else:           # back from right b, cancelling k -> b
                        b, k = path[e - 1], path[e]
                        f = moved[k, b] - delta
                        if f:
                            moved[k, b] = f
                        else:
                            del moved[k, b]
                            back[b] &= ~(1 << k)
                drained[b] -= delta
                if not drained[b]:
                    levels[-1] &= ~(1 << b)
                    snk &= ~(1 << b)
                del path[resume:]
                continue
            if d:
                u = path[-1]
                nxt = (fwd[u] if d & 1 else back[u]) & levels[d]
            else:
                nxt = levels[0]
            if nxt:
                path.append((nxt & -nxt).bit_length() - 1)
            elif d:
                levels[d - 1] &= ~(1 << path.pop())  # dead end
            else:
                break

    return Flow(net, p, moved, supply - sum(sent), tuple(seen))


def to_dot(flow: Flow) -> str:
    """Debug rendering of a flow's network, each edge labelled with its flow.

    The flow on an edge is read off `units`: the edge's own units in the
    middle, a row sum on a source edge, a column sum on a sink edge. An
    edge that carries nothing shows its capacity alone.
    """
    net = flow.net
    p, units = flow.units
    rows, cols = {}, {}
    for (x, y), k in units:
        rows[x] = rows.get(x, 0) + k
        cols[y] = cols.get(y, 0) + k
    across = dict(units)

    def label(c, k):
        return "%s of %s" % (Dyadic(k, p), c) if k else str(c)

    statements = []
    for x, c in net.source_caps.items():
        statements.append(statement(SOURCE, "L_%s" % x,
                                    label=label(c, rows.get(x))))
    for (x, y), c in net.mid_caps.items():
        statements.append(statement("L_%s" % x, "R_%s" % y,
                                    label=label(c, across.get((x, y)))))
    for y, c in net.sink_caps.items():
        statements.append(statement("R_%s" % y, SINK,
                                    label=label(c, cols.get(y))))
    return digraph("flow", "LR", statements)
