"""The toolkit's acceptance suite.

Each criterion is a self-contained check with an explicit time budget where
one applies; `run()` prints one pass/fail line per criterion.  The same
functions back both `tests/test_acceptance.py` and the `selftest` CLI verb.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stdout
from typing import NamedTuple

from . import corpus
from .errors import ClassificationFailureError, EngineMismatchError
from .flats import cyclic_flats, is_copaving, is_paving, is_split
from .graphs import _orientation_counts, count_spanning_trees
from .matroid import graphic, minimal, rank2_from_partition, uniform
from .merino_welsh import rank2_census_partitions, rank2_threshold_check
from .prooftrace import trace
from .tutte import check_identities, tutte_dc, tutte_subset_sum


def _criterion_1() -> tuple[bool, str]:
    """Rank-1 closed form: T(U_{1,n}) = x + y + ... + y^(n-1) for n <= 20."""
    for n in range(2, 21):
        t = tutte_dc(uniform(1, n))
        expected = [[0] * n, [0] * n]
        expected[1][0] = 1
        for j in range(1, n):
            expected[0][j] = 1
        if [list(r) for r in t.coeffs] != expected:
            return False, f"coefficients wrong at n={n}"
        if (t.evaluate(2, 0), t.evaluate(0, 2), t.evaluate(1, 1)) != (2, 2 ** n - 2, n):
            return False, f"evaluations wrong at n={n}"
    return True, "n=2..20 coefficients and evaluations exact"


def _criterion_2() -> tuple[bool, str]:
    """Minimal matroid basis count k(n-k)+1 via T(1,1), all 1<=k<n<=12."""
    checked = 0
    for n in range(2, 13):
        for k in range(1, n):
            if tutte_dc(minimal(k, n)).evaluate(1, 1) != k * (n - k) + 1:
                return False, f"T(1,1) wrong for minimal({k},{n})"
            checked += 1
    return True, f"{checked} (k,n) pairs exact"


def _criterion_3() -> tuple[bool, str]:
    """Exhaustive rank-2 verification through n=12 via the CLI, plus the
    2^n vs C(n,2)^2 threshold flip between n=12 and n=13."""
    from . import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["enumerate-rank2", "--max-n", "12"])
    if code != 0:
        return False, f"CLI exit code {code}"
    censuses = [json.loads(line) for line in buf.getvalue().splitlines()
                if '"rank2-census-v1"' in line]
    if len(censuses) != 11 or not all(c["all_pass"] for c in censuses):
        return False, "census stream not all_pass"
    if rank2_threshold_check(12):
        return False, "threshold claims C(12,2)^2 <= 2^12"
    if not rank2_threshold_check(13):
        return False, "threshold fails at n=13"
    return True, "all censuses pass through n=12; threshold flips at 13"


def _criterion_4() -> tuple[bool, str]:
    """Rank-2 census coefficients [x^2] = 1 and [y^(n-2)] = 1."""
    checked = 0
    for n in range(2, 13):
        for p in rank2_census_partitions(n):
            t = tutte_dc(rank2_from_partition(p))
            if t.coeffs[2][0] != 1 or t.coeffs[0][n - 2] != 1:
                return False, f"coefficient wrong for partition {p}"
            checked += 1
    return True, f"{checked} census matroids exact"


def _criterion_5() -> tuple[bool, str]:
    """Duality transpose and direct-sum multiplicativity on the corpus."""
    members = corpus.tutte_identity_corpus()
    if len(members) < 200:
        return False, f"corpus too small: {len(members)}"
    for m in members:
        if tutte_dc(m.dual()) != tutte_dc(m).transpose():
            return False, f"duality transpose fails for {m!r}"
    pairs = corpus.direct_sum_pairs(members, count=40, max_n=14)
    for a, b in pairs:
        if tutte_dc(a.direct_sum(b)) != tutte_dc(a) * tutte_dc(b):
            return False, f"direct-sum product fails for {a!r} + {b!r}"
    return True, f"{len(members)} duals and {len(pairs)} products exact"


def _criterion_6() -> tuple[bool, str]:
    """Engine equivalence (deletion-contraction vs subset sum), n <= 14,
    and T(1,1) = |B| and T(2,2) = 2^n, which code both engines share
    cannot fake (`tutte.check_identities`)."""
    members = list(corpus.tutte_identity_corpus())
    members.extend(a.direct_sum(b)
                   for a, b in corpus.direct_sum_pairs(members, count=40, max_n=14))
    checked = 0
    for m in members:
        if m.n > 14:
            continue
        t = tutte_dc(m)
        if t != tutte_subset_sum(m):
            return False, f"engines disagree on {m!r}"
        try:
            check_identities(m, t)
        except EngineMismatchError as exc:
            return False, f"{exc} for {m!r}"
        checked += 1
    return True, f"{checked} matroids coefficient-identical"


def _criterion_7() -> tuple[bool, str]:
    """Orientation oracles vs Tutte evaluations on bridgeless multigraphs.
    The spanning-tree check pins T(1,1) = |B| only: the forests it counts
    are the bases `graphic` builds."""
    graphs = corpus.bridgeless_graphs(min_count=30, max_edges=12)
    for g in graphs:
        t = tutte_dc(graphic(g))
        if t.evaluate(1, 1) != count_spanning_trees(g):
            return False, f"spanning trees mismatch on {g!r}"
        acyclic, totally = _orientation_counts(g)
        if t.evaluate(2, 0) != acyclic:
            return False, f"acyclic orientations mismatch on {g!r}"
        if t.evaluate(0, 2) != totally:
            return False, f"totally cyclic mismatch on {g!r}"
    return True, f"{len(graphs)} graphs, all three evaluations exact"


def _criterion_8() -> tuple[bool, str]:
    """End-to-end certificate trees over the split corpus with n <= 10."""
    members = corpus.split_trace_corpus(10)
    nodes = 0
    try:
        for m in members:
            t = trace(m)
            if not t.verified:
                return False, f"unverified trace for {m!r}"
            nodes += t.node_count()
    except ClassificationFailureError as exc:  # a node broke the base-case lemma
        return False, f"classification failure: {exc}"
    return True, f"{len(members)} traces verified ({nodes} nodes)"


def _criterion_9() -> tuple[bool, str]:
    """Split recognition fixtures: T_{4,7} and the doubled-doubled 4-cycle."""
    t47 = minimal(4, 7)
    if not is_split(t47) or is_paving(t47) or is_copaving(t47):
        return False, "minimal(4,7) classification wrong"
    report = cyclic_flats(graphic(corpus.doubled_doubled_4cycle()))
    if report.is_split or report.is_antichain:
        return False, "doubled-doubled 4-cycle not recognized as non-split"
    nested = any(a & b == a for a in report.proper_flats
                 for b in report.proper_flats if a != b)
    if not nested:
        return False, "no nested chain reported"
    return True, "fixtures classified correctly, nested chain reported"


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    elapsed: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} criterion {self.number} [{self.name}] "
                f"({self.elapsed:.2f}s): {self.detail}")


_CRITERIA = (
    (1, "rank-1 closed form", _criterion_1, 1.0),
    (2, "minimal basis counts", _criterion_2, 5.0),
    (3, "rank-2 computer check", _criterion_3, 30.0),
    (4, "rank-2 coefficients", _criterion_4, None),
    (5, "duality and direct sums", _criterion_5, 60.0),
    (6, "engine equivalence", _criterion_6, None),
    (7, "orientation oracles", _criterion_7, 60.0),
    (8, "certificate trees", _criterion_8, 300.0),
    (9, "split recognition fixtures", _criterion_9, None),
)


def run_criterion(number: int) -> CriterionResult:
    for num, name, fn, budget in _CRITERIA:
        if num != number:
            continue
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not a suite abort
            ok, detail = False, f"exception: {exc!r}"
        elapsed = time.perf_counter() - start
        if ok and budget is not None and elapsed >= budget:
            ok, detail = False, f"over time budget {budget}s: {detail}"
        return CriterionResult(num, name, ok, elapsed, detail)
    raise ValueError(f"no acceptance criterion numbered {number}")


def run(numbers=None, echo=print) -> list[CriterionResult]:
    if numbers is None:
        numbers = [num for num, *_ in _CRITERIA]
    results = [run_criterion(num) for num in numbers]
    if echo is not None:
        for r in results:
            echo(r.line())
    return results
