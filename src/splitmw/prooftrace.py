"""Certificate trees for the multiplicative Merino-Welsh inequality on
split matroids.

`trace` replays a strong induction on the ground set size as a concrete,
machine-checked tree: disconnected matroids split into their components,
connected ones either hit a recognized base case (rank or corank at most 2,
or a minimal matroid) or recurse through a deletion/contraction pivot whose
two minors are both loopless and coloopless.  Every node re-derives its own
inequality verdict from scratch -- nothing is propagated from children -- so
a verified trace is an independent check of the argument, not a replay of
trust.

Each distinct minor is checked once per trace: a matroid equal to one
already built (same size, rank and bases, whatever its `element_map`)
shares that node, with its pivot, children, record and verdict, so a
direct sum of equal components or a minor reached along two pivot orders
costs one subtree.  The output is the same tree, node for node.

A connected split matroid in which *no* element admits a clean pivot must
be one of the base cases; `classify_base_case` checks exactly that and
raising `ExhaustivenessFailureError` would refute the classification on a
concrete instance.
"""

from __future__ import annotations

from typing import NamedTuple

from .bitset import disjoint_columns
from .errors import (
    ClassificationFailureError,
    ExhaustivenessFailureError,
    NotSplitError,
    check_size,
)
from .flats import is_split
from .isomorphism import recognize_minimal
from .matroid import Matroid
from .merino_welsh import MWReport, check_mw

RULE_DIRECT_SUM = "direct-sum-split"
RULE_DELETE_CONTRACT = "delete-contract"
RULE_BASE_RANK1 = "base-rank-1"
RULE_BASE_CORANK1 = "base-corank-1"
RULE_BASE_RANK2 = "base-rank-2"
RULE_BASE_CORANK2 = "base-corank-2"
RULE_BASE_MINIMAL = "base-minimal"

BASE_RULES = frozenset({RULE_BASE_RANK1, RULE_BASE_CORANK1, RULE_BASE_RANK2,
                        RULE_BASE_CORANK2, RULE_BASE_MINIMAL})


def matroid_digest(m: Matroid) -> str:
    """Short hash of a matroid's matroid-bases-v1 record: the sha256 of its
    compact, key-sorted JSON text, written by `Matroid.record_json`."""
    # imported here: only `trace` hashes, and the import costs every CLI
    # verb's start-up
    import hashlib
    return hashlib.sha256(m.record_json().encode()).hexdigest()[:16]


class ProofNode(NamedTuple):
    """One step of a certificate tree.  `record` is the matroid's
    matroid-bases-v1 record, built once and shared by `to_dict` and by
    every node of the trace with an equal matroid; it holds a dict, so
    nodes compare but do not hash."""

    matroid: Matroid
    record: dict
    digest: str
    rule: str
    mw: MWReport
    children: tuple = ()
    element: int | None = None              # pivot for delete-contract
    minimal_kn: tuple[int, int] | None = None   # (k, n) for base-minimal

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        params: dict = {}
        if self.element is not None:
            params["element"] = self.element
        if self.minimal_kn is not None:
            params["k"], params["n"] = self.minimal_kn
        return {"rule": self.rule, "params": params, "digest": self.digest,
                "matroid": self.record, "mw": self.mw.to_dict(),
                "children": [c.to_dict() for c in self.children]}


class ProofTrace(NamedTuple):
    root: ProofNode
    verified: bool

    def walk(self):
        yield from self.root.walk()

    def node_count(self) -> int:
        return sum(1 for _ in self.walk())

    def to_dict(self) -> dict:
        d = {"format": "trace-v1", "verified": self.verified}
        d.update(self.root.to_dict())
        return d


def _clean_pivot(m: Matroid) -> int | None:
    """The lowest element whose deletion and contraction both have no loop
    and no coloop, or None.  Decided from the columns, building no minor.

    A loop or coloop f of M stays one in both minors of any other element,
    and removing a loop or coloop e leaves the others as they were; so with
    any loop or coloop, only a sole one can be a clean pivot.  Otherwise,
    for e and f != e: M\\e (the bases outside column e) has the coloop f
    iff ~cols[e] & ~cols[f] is empty, a series pair, and M/e (the bases in
    column e) has the loop f iff cols[e] & cols[f] is empty, a parallel
    pair.  M/e has no coloop: a basis holding e and f exchanges f against
    a basis without f (f is no coloop of M) into one that holds e but not
    f.  Dually, M\\e has no loop."""
    cols, ones, _ = m.columns()
    flawed = [e for e, col in enumerate(cols) if not col or col == ones]
    if flawed:
        return flawed[0] if len(flawed) == 1 else None
    parallel = disjoint_columns(cols)
    series = disjoint_columns([ones ^ col for col in cols])
    return next((e for e, (p, s) in enumerate(zip(parallel, series)) if not p | s),
                None)


def no_clean_pivot(m: Matroid) -> bool:
    """True iff for every element, deleting or contracting it leaves a loop
    or a coloop somewhere."""
    return _clean_pivot(m) is None


class BaseCaseClassification(NamedTuple):
    kind: str  # "rank-or-corank-at-most-2" | "minimal" | "both"
    minimal_kn: tuple[int, int] | None = None


def classify_base_case(m: Matroid) -> BaseCaseClassification:
    """Classify a connected split pivotless matroid as a small-rank case, a
    minimal matroid, or both; anything else is an exhaustiveness failure."""
    check_size("tables", m.n)
    m.require_clean()
    if not m.is_connected():
        raise ValueError("classify_base_case requires a connected matroid")
    if not is_split(m):
        raise NotSplitError(f"matroid is not split: {m!r}")
    pivot = _clean_pivot(m)
    if pivot is not None:
        raise ValueError(
            f"matroid has a clean pivot at element {pivot}; not a base case")
    small = m.rank <= 2 or m.n - m.rank <= 2
    kn = recognize_minimal(m)
    if small and kn:
        return BaseCaseClassification("both", kn)
    if small:
        return BaseCaseClassification("rank-or-corank-at-most-2")
    if kn:
        return BaseCaseClassification("minimal", kn)
    raise ExhaustivenessFailureError(
        m, "connected split matroid with no clean pivot matches no base case")


def _base_rule(rank: int, corank: int) -> str | None:
    if rank == 1:
        return RULE_BASE_RANK1
    if corank == 1:
        return RULE_BASE_CORANK1
    if rank == 2:
        return RULE_BASE_RANK2
    if corank == 2:
        return RULE_BASE_CORANK2
    return None


def _build(m: Matroid, built: dict) -> ProofNode:
    """The node of m, built once per distinct matroid of the trace: `built`
    maps each matroid built so far to its node.  A repeat shares that node,
    relabeled by `_replace` when its `element_map` differs."""
    node = built.get(m)
    if node is not None:
        if node.matroid.element_map != m.element_map:
            node = node._replace(matroid=m)
        return node
    node = built[m] = _new_node(m, built)
    return node


def _new_node(m: Matroid, built: dict) -> ProofNode:
    mw = check_mw(m)
    record = m.to_dict()
    digest = matroid_digest(m)
    comps = m.components()
    if len(comps) != 1:
        children = tuple(_build(m.restrict(c), built) for c in comps)
        return ProofNode(m, record, digest, RULE_DIRECT_SUM, mw, children)
    rank, corank = m.rank, m.n - m.rank
    rule = _base_rule(rank, corank)
    if rule is not None:
        return ProofNode(m, record, digest, rule, mw)
    kn = recognize_minimal(m)
    if kn is not None:
        return ProofNode(m, record, digest, RULE_BASE_MINIMAL, mw, minimal_kn=kn)
    e = _clean_pivot(m)
    if e is None:
        # would contradict the base-case classification; abort loudly
        raise ClassificationFailureError(m)
    children = (_build(m.delete(e), built), _build(m.contract(e), built))
    return ProofNode(m, record, digest, RULE_DELETE_CONTRACT, mw, children,
                     element=e)


def trace(m: Matroid) -> ProofTrace:
    """Build the certificate tree for a loopless, coloopless split matroid.

    The trace is `verified` iff every node's multiplicative inequality
    holds; structural rule checks are enforced during construction."""
    check_size("trace", m.n)
    m.require_clean()
    if not is_split(m):
        raise NotSplitError(
            f"trace requires a split matroid; {m!r} has nested or multiple "
            f"non-uniform structure")
    root = _build(m, {})
    verified = all(node.mw.mult_ok for node in root.walk())
    return ProofTrace(root=root, verified=verified)


def to_dot(t: ProofTrace) -> str:
    """Graph description of the tree for external rendering."""
    lines = ["digraph prooftrace {", '  node [shape=box, fontname="monospace"];']
    counter = 0

    def visit(node: ProofNode) -> int:
        nonlocal counter
        my_id = counter
        counter += 1
        label = node.rule
        if node.element is not None:
            label += f" e={node.element}"
        if node.minimal_kn is not None:
            label += " k={} n={}".format(*node.minimal_kn)
        label += (f"\\nn={node.matroid.n} r={node.matroid.rank}"
                  f"\\nT11={node.mw.t11} mult={'ok' if node.mw.mult_ok else 'FAIL'}")
        lines.append(f'  n{my_id} [label="{label}"];')
        for child in node.children:
            child_id = visit(child)
            lines.append(f"  n{my_id} -> n{child_id};")
        return my_id

    visit(t.root)
    lines.append("}")
    return "\n".join(lines)
