"""Exact max-flow / min-cut on source->left->right->sink networks.

This is the computational engine behind the order test for finitely
supported measures: the question "can all of mu's mass be routed upward
into nu's mass?" is a max-flow problem whose capacities are dyadic. All
capacities are rescaled to a common denominator 2^p, the search runs over
plain integers (so termination and exactness are trivial), and results are
scaled back; every returned flow is therefore dyadic with exponent <= p.

The residual network is kept as adjacency lists and solved by Dinic's
method: each phase levels it by breadth-first search and saturates the
level graph with a blocking flow. Every node's neighbours are explored in
declaration order, so each augmenting path is the lexicographically first
shortest path, the very path a breadth-first (Edmonds-Karp) search would
take; the returned flow, and hence every transport plan built from it, is
deterministic. The last search, the one that fails to reach the sink,
marks the source side of a minimum cut; the returned flow carries it, so
one solve answers both the flow and the cut question.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .dyadic import Dyadic

SOURCE = "source"
SINK = "sink"


@dataclass
class FlowNetwork:
    """Bipartite network with terminals; the only shape this package needs.

    Edges run source -> left, left -> right (where declared), right -> sink.
    Left and right node names may overlap (they are distinct nodes).
    """

    left: list
    right: list
    source_caps: dict
    mid_caps: dict   # (x, y) -> Dyadic
    sink_caps: dict

    def __post_init__(self):
        if len(set(self.left)) != len(self.left) \
                or len(set(self.right)) != len(self.right):
            raise ValueError("duplicate node name within a side")
        left, right = set(self.left), set(self.right)
        if set(self.source_caps) - left or set(self.sink_caps) - right:
            raise ValueError("terminal capacity on unknown node")
        for x, y in self.mid_caps:
            if x not in left or y not in right:
                raise ValueError("middle edge (%r, %r) off the bipartition"
                                 % (x, y))

    def common_exponent(self) -> int:
        caps = list(self.source_caps.values()) \
            + list(self.mid_caps.values()) + list(self.sink_caps.values())
        return max((c.exp for c in caps), default=0)


class Flow:
    """A maximum flow; capacity and conservation hold exactly.

    `cut` is the source side of a minimum cut: SOURCE plus the tagged nodes
    ("left", x) / ("right", y) still reachable in the final residual
    network. Its crossing capacity equals `value`. `from_source`, `across`
    and `to_sink` map each edge that carries flow to its flow. They are
    read off the final residual network on first use, since the decisions
    need only `value` and `cut`.
    """

    def __init__(self, net: FlowNetwork, p: int, res: list, left: dict,
                 right: dict, cut: frozenset):
        # res is the final residual network at exponent p, left and right
        # number the side nodes; an edge's reverse entry holds its flow
        self._net, self._p, self._res = net, p, res
        self._left, self._right = left, right
        self.cut = cut
        self.value = Dyadic(sum(res[u].get(0, 0) for u in left.values()), p)

    def _dyadics(self, units) -> dict:
        return {key: Dyadic(k, self._p) for key, k in units if k}

    @cached_property
    def from_source(self) -> dict:
        res = self._res
        return self._dyadics((x, res[u].get(0, 0))
                             for x, u in self._left.items())

    @cached_property
    def across(self) -> dict:
        res, left, right = self._res, self._left, self._right
        return self._dyadics(((x, y), res[right[y]].get(left[x], 0))
                             for x, y in self._net.mid_caps)

    @cached_property
    def to_sink(self) -> dict:
        into_sink = self._res[-1]
        return self._dyadics((y, into_sink.get(v, 0))
                             for y, v in self._right.items())


def max_flow(net: FlowNetwork) -> Flow:
    """A maximum flow together with a minimum cut (integer Dinic).

    The blocking flow of a phase is found by a depth-first search on an
    explicit stack that keeps one edge pointer per node; a node found to be
    a dead end leaves the level graph for the rest of the phase.
    """
    p = net.common_exponent()
    nodes = [SOURCE] + [("left", x) for x in net.left] \
        + [("right", y) for y in net.right] + [SINK]
    n = len(nodes)
    sink = n - 1
    left = {x: i for i, x in enumerate(net.left, 1)}
    right = {y: i for i, y in enumerate(net.right, len(left) + 1)}
    # res[u][v] is the residual capacity of u -> v; the network has no
    # antiparallel edges, so an edge's reverse entry holds exactly its flow
    res = [{} for _ in nodes]

    def edge(u, v, c):
        res[u][v] = c.num << (p - c.exp)
        res[v][u] = 0

    for x, c in net.source_caps.items():
        edge(0, left[x], c)
    for (x, y), c in net.mid_caps.items():
        edge(left[x], right[y], c)
    for y, c in net.sink_caps.items():
        edge(right[y], sink, c)
    adj = [sorted(r) for r in res]
    while True:
        level = [-1] * n
        level[0] = 0
        queue = [0]
        for u in queue:
            ru, lv = res[u], level[u] + 1
            for v in adj[u]:
                if level[v] < 0 and ru[v] > 0:
                    level[v] = lv
                    queue.append(v)
        if level[sink] < 0:
            break  # this search reached exactly the source side of a cut
        ptr = [0] * n
        path = [0]
        while path:
            u = path[-1]
            if u == sink:
                bottleneck = min(res[a][b] for a, b in zip(path, path[1:]))
                cut_at = None
                for i in range(len(path) - 1):
                    a, b = path[i], path[i + 1]
                    res[a][b] -= bottleneck
                    res[b][a] += bottleneck
                    if cut_at is None and not res[a][b]:
                        cut_at = i
                del path[cut_at + 1:]  # resume at the first saturated edge
                continue
            ru, out, lv = res[u], adj[u], level[u] + 1
            for i in range(ptr[u], len(out)):
                v = out[i]
                if level[v] == lv and ru[v]:
                    ptr[u] = i
                    path.append(v)
                    break
            else:
                path.pop()  # dead end: u reaches the sink no more
                level[u] = -1

    return Flow(net, p, res, left, right,
                frozenset(v for v, lv in zip(nodes, level) if lv >= 0))


def to_dot(net: FlowNetwork, flow: Flow | None = None) -> str:
    """Debug rendering of a network, optionally annotated with a flow."""

    def label(c, f):
        return "%s of %s" % (f, c) if f is not None else str(c)

    lines = ["digraph flow {", "  rankdir=LR;"]
    for x, c in net.source_caps.items():
        f = flow.from_source.get(x) if flow else None
        lines.append('  "%s" -> "L_%s" [label="%s"];'
                     % (SOURCE, x, label(c, f)))
    for (x, y), c in net.mid_caps.items():
        f = flow.across.get((x, y)) if flow else None
        lines.append('  "L_%s" -> "R_%s" [label="%s"];' % (x, y, label(c, f)))
    for y, c in net.sink_caps.items():
        f = flow.to_sink.get(y) if flow else None
        lines.append('  "R_%s" -> "%s" [label="%s"];'
                     % (y, SINK, label(c, f)))
    lines.append("}")
    return "\n".join(lines) + "\n"
