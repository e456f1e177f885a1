"""Multigraphs and brute-force orientation/spanning-tree counts.

The counting oracles here are deliberately exhaustive: they exist to
cross-check Tutte polynomial evaluations (spanning trees at (1,1), acyclic
orientations at (2,0), totally cyclic orientations at (0,2)), so they must
not share any machinery with the polynomial engines.  The orientation
counts share nothing with `matroid` either.  The spanning-tree count does:
it counts `max_spanning_forests`, the list `graphic` takes its bases from,
so it is independent of the engines but not of the input builder.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from .errors import InputError, check_size, require_int, require_record


def _join(parent: dict[int, int], u: int, v: int) -> bool:
    """Merge the trees of u and v in a union-find forest with path
    splitting; False if they were one tree already.  Only vertices merged
    under another are keys, so isolated vertices cost nothing: the work is
    linear in the edges, not in the vertices."""
    while u in parent:
        up = parent[u]
        parent[u] = parent.get(up, up)
        u = up
    while v in parent:
        vp = parent[v]
        parent[v] = parent.get(vp, vp)
        v = vp
    if u == v:
        return False
    parent[u] = v
    return True


class Multigraph:
    """Vertices 0..vertex_count-1 and an ordered list of undirected edges
    (parallel edges and self-loops allowed); an edge's index is its identity."""

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges):
        require_int("vertex_count", vertex_count)
        edges = tuple((u, v) for u, v in edges)
        for u, v in edges:
            require_int("edge endpoint", u)
            require_int("edge endpoint", v)
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u},{v}) has an endpoint >= {vertex_count}")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, name, value):
        raise AttributeError("Multigraph instances are immutable")

    def __repr__(self):
        return f"Multigraph(vertices={self.vertex_count}, edges={len(self.edges)})"

    def component_count(self) -> int:
        """Vertices minus the merges of a union-find over the edges."""
        parent: dict[int, int] = {}
        return self.vertex_count - sum(_join(parent, u, v) for u, v in self.edges)

    def is_connected(self) -> bool:
        return self.vertex_count >= 1 and self.component_count() == 1

    def max_spanning_forests(self) -> list[int]:
        """Edge-index masks of all maximum spanning forests (spanning trees
        when the graph is connected), in lexicographic order of their edge
        lists.  A depth-first search adds edges in index order to a copy of
        its forest's union-find, so it never extends a set with a cycle."""
        edges = self.edges
        forests = []
        # (next edge to try, mask, edges still to add, union-find)
        stack = [(0, 0, self.vertex_count - self.component_count(), {})]
        while stack:
            start, mask, left, parent = stack.pop()
            if not left:
                forests.append(mask)
                continue
            # pushed from the last edge down, so popped in index order
            for i in range(len(edges) - left, start - 1, -1):
                grown = parent.copy()
                if _join(grown, *edges[i]):
                    stack.append((i + 1, mask | 1 << i, left - 1, grown))
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
    require_record(d, "multigraph-v1", ("vertices", "edges"))
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


def count_spanning_trees(g: Multigraph) -> int:
    """Number of maximum spanning forests of g (spanning trees if connected)."""
    check_size("spanning-forests", len(g.edges))
    return len(g.max_spanning_forests())


def _orientation_counts(g: Multigraph) -> tuple[int, int]:
    """(acyclic, totally cyclic) orientation counts by 2^m enumeration.

    An arc u->v lies on a directed cycle iff v reaches u, so an orientation
    is acyclic iff no arc does and totally cyclic iff every arc does.  Reach
    is closed as bitmasks over the vertices that edges touch (isolated ones
    cost nothing), from reach[x] = {x}, with one Warshall pass per vertex of
    degree >= 2: only those can be inside a path, so at most m passes.  A
    self-loop's head is its tail, so it lies on a cycle under both of its
    (separately counted) orientations.
    """
    edges = g.edges
    m = len(edges)
    check_size("orientations", m)
    degree = Counter(chain.from_iterable(edges))
    label = {v: i for i, v in enumerate(degree)}
    ends = [(label[u], label[v]) for u, v in edges]
    start = [1 << x for x in range(len(label))]
    passes = [(x, 1 << x) for x, d in enumerate(degree.values()) if d >= 2]
    acyclic = 0
    totally = 0
    for mask in range(1 << m):
        arcs = [(v, u) if mask >> i & 1 else (u, v) for i, (u, v) in enumerate(ends)]
        reach = start[:]
        for u, v in arcs:
            reach[u] |= 1 << v
        for x, bit in passes:
            through = reach[x]
            reach = [r | through if r & bit else r for r in reach]
        on_cycles = sum(reach[v] >> u & 1 for u, v in arcs)
        acyclic += on_cycles == 0
        totally += on_cycles == m
    return acyclic, totally


def count_acyclic_orientations(g: Multigraph) -> int:
    return _orientation_counts(g)[0]


def count_totally_cyclic_orientations(g: Multigraph) -> int:
    return _orientation_counts(g)[1]
