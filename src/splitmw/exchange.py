"""Maurer's exchange check on a family of equal-size masks, and the witness
of a failure (see `Matroid.check_exchange`, which imports this module when
it runs: a dense paving family, which the reader accepts by its
hyperplanes, loads none of it).
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from operator import or_

from .matroid import _extensions


def _exchange_witness(family) -> tuple[int, int, int] | None:
    """Maurer's criterion (see `Matroid.check_exchange`) on a family of
    equal-size masks: None if it holds, else a witness (b1, b2, e) of
    failed exchange, two masks and an element."""
    ext = _extensions(family)
    # links[z] = the neighbourhoods ext[z + a] of the vertices a of z's
    # link, for each (r-2)-set z
    links = defaultdict(list)
    for s, nbhd in ext.items():
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            links[s ^ low].append(nbhd)
    # The c vertices with neighbourhood N lie outside N, so c <= m - |N| on
    # a link of m vertices, and the c add up to m over the distinct N.  So
    # the sum of m - |N| over the distinct N is m iff every class has
    # c = m - |N|, that is, iff each vertex's non-neighbours are exactly
    # the vertices with its neighbourhood: iff the link is complete
    # multipartite.
    for z, nbhds in links.items():
        m = len(nbhds)
        classes = set(nbhds)
        if m * len(classes) - sum(map(int.bit_count, classes)) != m:
            return _link_witness(z, reduce(or_, classes), ext)

    # Connectivity of the basis graph: a search from the smallest member
    # that takes the members through each (r-1)-set once.
    start = min(family)
    reached = {start}
    stack = [start]
    pop = ext.pop
    while stack:
        b = stack.pop()
        rest = b
        while rest:
            low = rest & -rest
            rest ^= low
            s = b ^ low
            others = pop(s, 0)
            while others:
                f = others & -others
                others ^= f
                nb = s | f
                if nb not in reached:
                    reached.add(nb)
                    stack.append(nb)
    if len(reached) == len(family):
        return None
    return _walk_witness(family, start, min(family - reached))


def _walk_witness(family, b1: int, b2: int) -> tuple[int, int, int]:
    """A witness of failed exchange between members b1 and b2 that lie in
    different components of the basis graph: walk b1 toward b2, one swap
    b1 - e + f (e in b1 - b2, f in b2 - b1) at a time.  Each step stays in
    b1's component and comes one closer to b2, which it never reaches, so
    within r steps some e has no such f, and (b1, b2, e) is the witness."""
    while True:
        away = b1 & ~b2
        e = away & -away
        base = b1 ^ e
        toward = b2 & ~b1
        while toward:
            f = toward & -toward
            toward ^= f
            if base | f in family:
                b1 = base | f
                break
        else:
            return b1, b2, e.bit_length() - 1


def _link_witness(z: int, vertices: int, ext: dict) -> tuple[int, int, int]:
    """A witness in the link of z that fails the class count: non-adjacent
    u and v with w in N(u) - N(v); for any a in N(v), exchange of a from
    z+a+v toward z+u+w fails, since v is adjacent to neither u nor w."""
    classes = {}
    rest = vertices
    while rest:
        a = rest & -rest
        rest ^= a
        nbhd = ext[z | a]
        classes[nbhd] = classes.get(nbhd, 0) | a
    for nu, members in classes.items():
        others = vertices & ~nu & ~members
        if others:
            break
    u, v = members & -members, others & -others
    nv = ext[z | v]
    if not nu & ~nv:
        u, v, nu, nv = v, u, nv, nu
    only_u = nu & ~nv
    w, a = only_u & -only_u, nv & -nv
    return z | a | v, z | u | w, a.bit_length() - 1
