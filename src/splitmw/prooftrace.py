"""Certificate trees for the multiplicative Merino-Welsh inequality on
split matroids.

`trace` replays a strong induction on the ground set size as a concrete,
machine-checked tree: disconnected matroids split into their components,
connected ones either hit a recognized base case (rank or corank at most 2,
or a minimal matroid) or recurse through a deletion/contraction pivot whose
two minors are both loopless and coloopless.

No node runs a Tutte engine.  A base-case leaf takes its evaluations at
(2,0), (0,2) and (1,1) from the closed form of its class, in O(n)
(`_leaf_report`).  Every node above takes its evaluations from its
children by the induction's two recurrences: the sum T(M\\e) + T(M/e) for
a clean pivot e, which is neither a loop nor a coloop, and the product
T(M1) T(M2) ... over the components of a direct sum.  Each node still
decides its own three inequalities from its own numbers.  The same process
computes every number, and equal minors share one node (below), so a
verified trace is not an independent check of the argument (ROADMAP.md,
open item 9: an independent trace checker).

Each distinct minor is checked once per trace: a matroid equal to one
already built (same size, rank and bases) shares that node, with its
pivot, children, record and verdict, so a direct sum of equal components
or a minor reached along two pivot orders costs one subtree.  The output
is the same tree, node for node.  A node keeps only what it writes, and
`matroid_from_dict(node.record)` rebuilds its matroid.  Every node's
record and digest text come from one `records.RecordWriter` per trace,
which writes each basis once, so the records share basis lists.

A connected split matroid in which *no* element admits a clean pivot must
be one of the base cases.  The trace checks that lemma on every node it
builds: a connected node with no base case and no clean pivot raises
`ClassificationFailureError`, which would refute the classification on a
concrete instance.
"""

from __future__ import annotations

from collections import Counter
from math import prod
from typing import NamedTuple

from .errors import ClassificationFailureError, NotSplitError, check_size
from .flats import is_split
from .matroid import Matroid, recognize_minimal
# perfbench/tracing.py wraps this module's `check_mw` too, so the name
# stays although nothing here calls it
from .merino_welsh import MWReport, check_mw, report_from_evaluations  # noqa: F401
from .records import RecordWriter

RULE_DIRECT_SUM = "direct-sum-split"
RULE_DELETE_CONTRACT = "delete-contract"
RULE_BASE_RANK1 = "base-rank-1"
RULE_BASE_CORANK1 = "base-corank-1"
RULE_BASE_RANK2 = "base-rank-2"
RULE_BASE_CORANK2 = "base-corank-2"
RULE_BASE_MINIMAL = "base-minimal"

BASE_RULES = frozenset({RULE_BASE_RANK1, RULE_BASE_CORANK1, RULE_BASE_RANK2,
                        RULE_BASE_CORANK2, RULE_BASE_MINIMAL})


def matroid_digest(text: str) -> str:
    """Short hash of a matroid's matroid-bases-v1 record from its compact,
    key-sorted JSON text (`RecordWriter.write`): the first 16 hex digits of
    its sha256; the text is written by the caller."""
    # imported here: only `trace` hashes, and the import costs every CLI
    # verb's start-up
    import hashlib
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class ProofNode(NamedTuple):
    """One step of a certificate tree, holding only what `to_dict` writes:
    `record` (from the trace's `RecordWriter`) is shared by every node with
    an equal matroid, and its basis lists by other records: they are
    read-only.  It holds a dict, so nodes compare but do not hash."""

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
    """The lowest element of m, which has no loop or coloop, whose deletion
    and contraction both have none either, or None.  Decided from the
    columns, building no minor.  Every trace node is clean: `trace`
    requires it of the root, components of a clean matroid are clean, and
    so are both minors of a clean pivot.

    For e and f != e: M\\e (the bases outside column e) has the coloop f
    iff ~cols[e] & ~cols[f] is empty, a series pair, and M/e (the bases in
    column e) has the loop f iff cols[e] & cols[f] is empty, a parallel
    pair.  M/e has no coloop: a basis holding e and f exchanges f against
    a basis without f (f is no coloop of M) into one that holds e but not
    f.  Dually, M\\e has no loop."""
    cols, ones, _ = m.columns()
    return next((e for e, col in enumerate(cols)
                 if all(col & c and (ones ^ col) & (ones ^ c)
                        for f, c in enumerate(cols) if f != e)), None)


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


def _build(m: Matroid, nodes: dict, writer: RecordWriter) -> ProofNode:
    """The node of m, built once per distinct matroid of the trace and kept
    in `nodes` under (n, rank, `_lex_slots`), the bases m's record is
    written from, so the nodes hold no `Matroid`."""
    key = (m.n, m.rank, m._lex_slots())
    node = nodes.get(key)
    if node is None:
        node = nodes[key] = _new_node(m, nodes, writer)
    return node


def _from_children(m: Matroid, children: tuple, combine) -> MWReport:
    """m's report from its children's evaluations at each of the three
    points, combined by `sum` (deletion-contraction) or `prod` (direct
    sum); the verdicts are decided from m's own numbers."""
    return report_from_evaluations(
        m.n, m.rank, *(combine(getattr(c.mw, point) for c in children)
                       for point in ("t20", "t02", "t11")))


def _leaf_report(m: Matroid, rule: str) -> MWReport:
    """The report of a base-case leaf from the closed form of its class, in
    O(n) (the leaf has no loop or coloop, and is connected):

      * rank 1, U(1,n): T = x + y + ... + y^(n-1), so (2, 2^n - 2, n);
      * rank 2, with m parallel classes of sizes p_i:
        (2m, 2^n - 2 * sum(2^p_i - 1), |B|).  An element of a class of p
        elements lies in the n - p bases that pair it outside its class, so
        each element's class size is n less its column degree;
      * T_{k,n}: T = x^k + (1 + y + ... + y^(n-k-1))(x^(k-1) + ... + x + y),
        so (2^(k+1) - 2, 2(2^(n-k) - 1), k(n-k) + 1);
      * corank 1 and 2 by duality: the dual's bases are the complements, so
        an element's dual degree is |B| less its degree, and T(2,0) and
        T(0,2) trade places."""
    n, k, count = m.n, m.rank, len(m.bases)
    dual = rule in (RULE_BASE_CORANK1, RULE_BASE_CORANK2)
    if rule == RULE_BASE_MINIMAL:
        t20, t02 = 2 ** (k + 1) - 2, 2 * (2 ** (n - k) - 1)
    elif rule in (RULE_BASE_RANK1, RULE_BASE_CORANK1):
        t20, t02 = 2, 2 ** n - 2
    else:
        degrees = (col.bit_count() for col in m.columns()[0])
        sizes = Counter(n - (count - d if dual else d) for d in degrees)
        t20 = 2 * sum(c // p for p, c in sizes.items())
        t02 = 2 ** n - 2 * sum(c // p * (2 ** p - 1) for p, c in sizes.items())
    if dual:
        t20, t02 = t02, t20
    return report_from_evaluations(n, k, t20, t02, count)


def _new_node(m: Matroid, nodes: dict, writer: RecordWriter) -> ProofNode:
    record, text = writer.write(m)
    digest = matroid_digest(text)
    comps = m.components()
    if len(comps) != 1:
        children = tuple(_build(m.restrict(c), nodes, writer) for c in comps)
        return ProofNode(record, digest, RULE_DIRECT_SUM,
                         _from_children(m, children, prod), children)
    rule = _base_rule(m.rank, m.n - m.rank)
    if rule is not None:
        return ProofNode(record, digest, rule, _leaf_report(m, rule))
    kn = recognize_minimal(m)
    if kn is not None:
        return ProofNode(record, digest, RULE_BASE_MINIMAL,
                         _leaf_report(m, RULE_BASE_MINIMAL), minimal_kn=kn)
    e = _clean_pivot(m)
    if e is None:
        # would contradict the base-case classification; abort loudly
        raise ClassificationFailureError(m)
    children = (_build(m.delete(e), nodes, writer),
                _build(m.contract(e), nodes, writer))
    return ProofNode(record, digest, RULE_DELETE_CONTRACT,
                     _from_children(m, children, sum), children, element=e)


def trace(m: Matroid) -> ProofTrace:
    """Build the certificate tree for a loopless, coloopless split matroid.

    Leaves are evaluated by their closed forms (`_leaf_report`), and each
    internal node sums (pivot) or multiplies (direct sum) its children's
    evaluations.  The trace is `verified` iff every node's multiplicative
    inequality holds; structural rule checks are enforced during
    construction."""
    check_size("trace", m.n)
    m.require_clean()
    if not is_split(m):
        raise NotSplitError(
            f"trace requires a split matroid; {m!r} has nested or multiple "
            f"non-uniform structure")
    nodes = {}
    root = _build(m, nodes, RecordWriter())
    return ProofTrace(root, all(node.mw.mult_ok for node in nodes.values()))


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
        label += (f"\\nn={node.mw.n} r={node.mw.rank}"
                  f"\\nT11={node.mw.t11} mult={'ok' if node.mw.mult_ok else 'FAIL'}")
        lines.append(f'  n{my_id} [label="{label}"];')
        for child in node.children:
            child_id = visit(child)
            lines.append(f"  n{my_id} -> n{child_id};")
        return my_id

    visit(t.root)
    lines.append("}")
    return "\n".join(lines)
