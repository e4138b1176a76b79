"""Exact max-flow / min-cut on source->left->right->sink networks.

This is the computational engine behind the order test for finitely
supported measures: the question "can all of mu's mass be routed upward
into nu's mass?" is a max-flow problem whose capacities are dyadic. All
capacities are rescaled to a common denominator 2^p, the search runs over
plain integers (so termination and exactness are trivial), and results are
scaled back; every returned flow is therefore dyadic with exponent <= p.

The residual network is kept as adjacency lists. Augmenting paths are found
breadth-first with each node's neighbours explored in declaration order,
which makes the returned flow (and hence every transport plan built from
it) deterministic. The last search, the one that fails to reach the sink,
marks the source side of a minimum cut; the returned flow carries it, so
one solve answers both the flow and the cut question.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .dyadic import ZERO, Dyadic

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


@dataclass
class Flow:
    """A maximum flow; capacity and conservation hold exactly.

    `cut` is the source side of a minimum cut: SOURCE plus the tagged nodes
    ("left", x) / ("right", y) still reachable in the final residual
    network. Its crossing capacity equals `value`.
    """

    value: Dyadic
    from_source: dict = field(default_factory=dict)
    across: dict = field(default_factory=dict)
    to_sink: dict = field(default_factory=dict)
    cut: frozenset = frozenset()


def max_flow(net: FlowNetwork) -> Flow:
    """A maximum flow together with a minimum cut (integer Edmonds-Karp)."""
    p = net.common_exponent()
    nodes = [SOURCE] + [("left", x) for x in net.left] \
        + [("right", y) for y in net.right] + [SINK]
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    sink = n - 1
    # res[u][v] is the residual capacity of u -> v; the network has no
    # antiparallel edges, so an edge's reverse entry holds exactly its flow
    res = [{} for _ in range(n)]

    def edge(u, v, c):
        res[u][v] = c.rescale(p)
        res[v][u] = 0

    for x, c in net.source_caps.items():
        edge(0, idx["left", x], c)
    for (x, y), c in net.mid_caps.items():
        edge(idx["left", x], idx["right", y], c)
    for y, c in net.sink_caps.items():
        edge(idx["right", y], sink, c)
    adj = [sorted(r) for r in res]
    while True:
        parent = [-1] * n
        parent[0] = 0
        queue = deque([0])
        while queue and parent[sink] < 0:
            u = queue.popleft()
            ru = res[u]
            for v in adj[u]:
                if parent[v] < 0 and ru[v] > 0:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] < 0:
            break  # this search reached exactly the source side of a cut
        path = []
        v = sink
        while v:
            path.append((parent[v], v))
            v = parent[v]
        bottleneck = min(res[u][v] for u, v in path)
        for u, v in path:
            res[u][v] -= bottleneck
            res[v][u] += bottleneck

    def units(u, v):
        return res[v].get(u, 0)

    flow = Flow(value=ZERO,
                cut=frozenset(nodes[i] for i in range(n) if parent[i] >= 0))
    total = 0
    for x in net.left:
        k = units(0, idx["left", x])
        total += k
        if k:
            flow.from_source[x] = Dyadic(k, p)
    flow.value = Dyadic(total, p)
    for (x, y) in net.mid_caps:
        k = units(idx["left", x], idx["right", y])
        if k:
            flow.across[x, y] = Dyadic(k, p)
    for y in net.right:
        k = units(idx["right", y], sink)
        if k:
            flow.to_sink[y] = Dyadic(k, p)
    return flow


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
