"""Multigraphs and brute-force orientation/spanning-tree counts.

The counting oracles here are deliberately exhaustive: they exist to
cross-check Tutte polynomial evaluations (spanning trees at (1,1), acyclic
orientations at (2,0), totally cyclic orientations at (0,2)), so they must
not share any machinery with the polynomial engines.
"""

from __future__ import annotations

from itertools import combinations

from .errors import InputError, LimitExceededError, require_int

ORIENTATION_EDGE_LIMIT = 15
FOREST_EDGE_LIMIT = 20


class Multigraph:
    """Vertices 0..vertex_count-1 and an ordered list of undirected edges
    (parallel edges and self-loops allowed); an edge's index is its identity."""

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges):
        edges = tuple((int(u), int(v)) for u, v in edges)
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u},{v}) has an endpoint >= {vertex_count}")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, name, value):
        raise AttributeError("Multigraph instances are immutable")

    def __repr__(self):
        return f"Multigraph(vertices={self.vertex_count}, edges={len(self.edges)})"

    def component_count(self) -> int:
        parent = list(range(self.vertex_count))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comps = self.vertex_count
        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                comps -= 1
        return comps

    def is_connected(self) -> bool:
        return self.vertex_count >= 1 and self.component_count() == 1

    def max_spanning_forests(self) -> list[int]:
        """Edge-index masks of all maximum spanning forests (spanning trees
        when the graph is connected)."""
        m = len(self.edges)
        size = self.vertex_count - self.component_count()
        forests = []
        for combo in combinations(range(m), size):
            parent = list(range(self.vertex_count))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            acyclic = True
            for idx in combo:
                u, v = self.edges[idx]
                ru, rv = find(u), find(v)
                if ru == rv:
                    acyclic = False
                    break
                parent[ru] = rv
            if acyclic:
                mask = 0
                for idx in combo:
                    mask |= 1 << idx
                forests.append(mask)
        return forests

    def bridges(self) -> list[int]:
        """Indices of edges whose removal increases the component count."""
        base = self.component_count()
        out = []
        for i in range(len(self.edges)):
            rest = self.edges[:i] + self.edges[i + 1:]
            if Multigraph(self.vertex_count, rest).component_count() > base:
                out.append(i)
        return out

    def to_dict(self) -> dict:
        return {"format": "multigraph-v1", "vertices": self.vertex_count,
                "edges": [[u, v] for u, v in self.edges]}


def multigraph_from_dict(d: dict) -> Multigraph:
    """Parse a multigraph-v1 record: an object whose `vertices` is an exact
    int >= 0 and whose `edges` is a list of [u, v] pairs of exact ints
    below `vertices`.  Any breach raises InputError."""
    if not isinstance(d, dict):
        raise InputError(f"expected a JSON object, got {type(d).__name__}")
    if d.get("format") != "multigraph-v1":
        raise InputError(f"not a multigraph-v1 record: {d.get('format')!r}")
    for key in ("vertices", "edges"):
        if key not in d:
            raise InputError(f"multigraph-v1 record has no {key!r}")
    vertices, edges = d["vertices"], d["edges"]
    require_int("vertices", vertices)
    if vertices < 0:
        raise InputError(f"vertices must be >= 0, got {vertices}")
    if not isinstance(edges, list):
        raise InputError("'edges' must be a list of [u, v] pairs")
    for edge in edges:
        if not (isinstance(edge, list) and len(edge) == 2):
            raise InputError(f"edge {edge!r} is not a [u, v] pair")
        for end in edge:
            require_int("edge endpoint", end)
            if not 0 <= end < vertices:
                raise InputError(f"edge {edge} has an endpoint outside "
                                 f"0..{vertices - 1}")
    return Multigraph(vertices, edges)


def count_spanning_trees(g: Multigraph, limit: int = FOREST_EDGE_LIMIT) -> int:
    """Number of maximum spanning forests of g (spanning trees if connected)."""
    if len(g.edges) > limit:
        raise LimitExceededError(f"{len(g.edges)} edges exceed limit {limit}")
    return len(g.max_spanning_forests())


def _scc_labels(nv: int, adj: list[list[int]], radj: list[list[int]]) -> list[int]:
    # Kosaraju with explicit stacks.
    seen = [False] * nv
    order = []
    for s in range(nv):
        if seen[s]:
            continue
        seen[s] = True
        stack = [(s, 0)]
        while stack:
            v, i = stack[-1]
            if i < len(adj[v]):
                stack[-1] = (v, i + 1)
                w = adj[v][i]
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, 0))
            else:
                order.append(v)
                stack.pop()
    comp = [-1] * nv
    label = 0
    for v in reversed(order):
        if comp[v] != -1:
            continue
        comp[v] = label
        stack = [v]
        while stack:
            x = stack.pop()
            for w in radj[x]:
                if comp[w] == -1:
                    comp[w] = label
                    stack.append(w)
        label += 1
    return comp


def _orientation_counts(g: Multigraph) -> tuple[int, int]:
    """(acyclic, totally cyclic) orientation counts by 2^m enumeration.

    An orientation is acyclic iff it has no directed cycle, and totally
    cyclic iff every edge lies on a directed cycle (equivalently both
    endpoints of every edge share a strongly connected component).  A
    self-loop is a directed cycle under either of its two (identical-looking
    but separately counted) orientations.
    """
    edges = g.edges
    m = len(edges)
    nv = g.vertex_count
    has_selfloop = any(u == v for u, v in edges)
    real = [(i, u, v) for i, (u, v) in enumerate(edges) if u != v]
    acyclic = 0
    totally = 0
    for mask in range(1 << m):
        adj = [[] for _ in range(nv)]
        radj = [[] for _ in range(nv)]
        for i, u, v in real:
            if mask >> i & 1:
                u, v = v, u
            adj[u].append(v)
            radj[v].append(u)
        comp = _scc_labels(nv, adj, radj)
        if all(comp[u] == comp[v] for _, u, v in real):
            totally += 1
        if not has_selfloop and all(comp[u] != comp[v] for _, u, v in real):
            acyclic += 1
    return acyclic, totally


def count_acyclic_orientations(g: Multigraph,
                               limit: int = ORIENTATION_EDGE_LIMIT) -> int:
    if len(g.edges) > limit:
        raise LimitExceededError(f"{len(g.edges)} edges exceed limit {limit}")
    return _orientation_counts(g)[0]


def count_totally_cyclic_orientations(g: Multigraph,
                                      limit: int = ORIENTATION_EDGE_LIMIT) -> int:
    if len(g.edges) > limit:
        raise LimitExceededError(f"{len(g.edges)} edges exceed limit {limit}")
    return _orientation_counts(g)[1]
