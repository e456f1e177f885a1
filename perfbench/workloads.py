"""The three benchmark workloads: their seeded inputs, jobs and output checks.

Every workload is a closed loop with one client and one job in flight, and
one pass runs every job once in a fixed order.  A job's `run` is the timed
call; its `check` is untimed and returns the output bytes plus a failure
reason or None.  Checks compare outputs with sha256 goldens recorded from the
program (`goldens.json`, keyed by workload, record and verb) where the
output is the same for every seed, and byte for byte with expected outputs
derived in `inputs` without splitmw where that is possible instead.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import inputs
import tracing
from inputs import Record, compact, sha256

HERE = Path(__file__).resolve().parent
ENTRY = HERE / "entry.py"
GOLDENS = HERE / "goldens.json"

# circuit-hyperplane counts of the seeded sparse paving matroids, below the
# smallest maximal family the greedy builder reached on 30 seeds (far below
# for (7,16), which keeps set-up short), so every seed gets the same count,
# and with it the same Tutte polynomial and basis count
SPARSE_PAVING = {(4, 12): 30, (5, 12): 48, (6, 14): 140, (7, 14): 160,
                 (5, 15): 140, (7, 16): 150}

# spanning tree (basis) count ranges of the seeded graphs: within 5% of the
# median over seeds, so that every seed gives jobs and a set-up of about the
# same cost, and a change between two runs is not a change of input size
GRAPH_TREES = {(8, 16): (1680, 1850), (9, 17): (2800, 3080), (9, 18): (4750, 5250)}

PETERSEN = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7),
            (3, 8), (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]


class Goldens:
    """sha256 digests keyed by `workload:record:verb`.  In record mode every
    check passes and the digests are collected instead."""

    def __init__(self, digests: dict[str, str] | None = None, record: bool = False):
        self.digests = dict(digests or {})
        self.record = record

    @classmethod
    def load(cls) -> Goldens:
        with open(GOLDENS, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def check(self, key: str, data: bytes | str) -> str | None:
        digest = sha256(data)
        if self.record:
            self.digests[key] = digest
            return None
        if key not in self.digests:
            return f"no golden recorded for {key}"
        if self.digests[key] != digest:
            return f"output differs from the golden for {key}"
        return None


@dataclass
class Job:
    name: str
    run: object      # run(tracer) -> value; the timed part
    check: object    # check(value) -> (output bytes, failure reason or None)


@dataclass
class Plan:
    """A workload's inputs and jobs, as built by one set-up."""

    jobs: list[Job]
    warm: Job                         # untimed, run once at set-up
    inputs: list[dict]
    children_rss: bool = False        # peak RSS is the largest child's
    before_pass: object = None        # before_pass() -> None
    after_pass: object = None         # after_pass(tracer) -> None
    smallest: list[str] = field(default_factory=list)  # jobs of the smoke check


def _first_error(*errors):
    return next((e for e in errors if e), None)


def _exact(data: bytes, expected: bytes, what: str) -> str | None:
    return None if data == expected else f"{what}: output differs from the expected output"


# -- ingest --------------------------------------------------------------------

def _cli_job(name: str, path: Path, verb: str, workdir: Path, expect_exit: int,
             expect) -> Job:
    """One `splitmw VERB FILE` subprocess.  `expect(stdout)` returns a failure
    reason or None."""
    def run(tracer):
        cmd = [sys.executable, str(ENTRY), verb, str(path)]
        if tracer is None:
            return subprocess.run(cmd, capture_output=True, check=False)
        spans_path = workdir / "child-spans.json"
        cmd[2:2] = ["--spans", str(spans_path)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, check=False)
        wall = time.perf_counter() - start
        with open(spans_path, encoding="utf-8") as fh:
            tracing.merge(tracer, json.load(fh), wall)
        return proc

    def check(proc):
        out = proc.stdout
        if proc.returncode != expect_exit:
            return out, (f"{name}: exit {proc.returncode}, expected {expect_exit}: "
                         f"{proc.stderr.decode(errors='replace')[:200]}")
        if expect_exit == 2:
            ok = out == b"" and proc.stderr.startswith(b"error: exchange fails")
            return out, None if ok else f"{name}: not rejected by the exchange check"
        return out, _first_error(proc.stderr and f"{name}: stderr not empty", expect(out))

    return Job(name, run, check)


def _trace_checks(key: str, rec: Record, data: bytes, goldens: Goldens,
                  tutte=None) -> str | None:
    """trace-v1 output: verified, root digest of the input record, and, for
    a seeded sparse paving matroid, the root's mw record from the closed form
    and the seed-independent shape (node count per rule) against its golden;
    other records are compared whole against their golden."""
    d = json.loads(data)
    if d.get("verified") is not True:
        return f"{key}: trace not verified"
    if d.get("digest") != rec.digest:
        return f"{key}: root digest does not match the input"
    if tutte is None:
        return goldens.check(key, data)
    if d["mw"] != inputs.mw_record(rec.n, rec.rank, tutte):
        return f"{key}: root mw record differs from the closed form"
    rules: dict[str, int] = {}
    stack = [d]
    while stack:
        node = stack.pop()
        rules[node["rule"]] = rules.get(node["rule"], 0) + 1
        stack.extend(node["children"])
    return goldens.check(key + "-shape", compact(dict(sorted(rules.items()))))


def build_ingest(seed: int, workdir: Path, goldens: Goldens) -> Plan:
    from splitmw.graphs import Multigraph
    from splitmw.matroid import graphic

    def write(rec: Record) -> Path:
        path = workdir / f"{rec.name}.json"
        path.write_text(compact(rec.to_dict()), encoding="utf-8")
        return path

    # M(K6): 15 elements and 1,296 bases, the largest validation per job
    k6_graph = graphic(Multigraph(6, list(combinations(range(6), 2))))
    k6 = inputs.record("M(K6)", k6_graph.n, k6_graph.rank, k6_graph.bases)
    # U(6,12): 924 bases, uniform, so its output has a closed form
    u612 = inputs.uniform(6, 12)
    # seeded sparse paving (4,12) and (5,12): mid-size validation, and split,
    # so they take the trace verb
    sp412, _ = inputs.sparse_paving(4, 12, SPARSE_PAVING[4, 12], seed)
    sp512, chs512 = inputs.sparse_paving(5, 12, SPARSE_PAVING[5, 12], seed)
    # minimal(4,7): 13 bases, so a job is almost all process start-up
    min47 = inputs.minimal(4, 7)
    # one near-matroid per size class, for the validator's failure path; the
    # basis dropped from M(K6) puts the witness about a third of the way
    # through a full validation
    near = [inputs.drop_basis(k6, len(k6.bases) * 3 // 5, "near-M(K6)"),
            inputs.near_sparse_paving(sp512, chs512),
            inputs.drop_basis(min47, len(min47.bases) // 2, "near-minimal(4,7)")]
    records = [k6, u612, sp412, sp512, min47] + near
    paths = {rec.name: write(rec) for rec in records}

    t_sp412 = inputs.sparse_paving_tutte(4, 12, SPARSE_PAVING[4, 12])
    t_u612 = inputs.sparse_paving_tutte(6, 12, 0)

    def line(obj) -> bytes:
        return (compact(obj) + "\n").encode()

    def golden(key, rec=None):
        def expect(out):
            if rec is not None:
                coeffs = [[int(c) for c in row] for row in json.loads(out)["coeffs"]]
                t11 = inputs.evaluate(coeffs, 1, 1)
                if t11 != len(rec.bases):
                    return f"{key}: T(1,1) = {t11} is not the basis count {len(rec.bases)}"
            return goldens.check(key, out)
        return expect

    def exact(key, expected: bytes):
        return lambda out: _exact(out, expected, key)

    def cyclic_flats(rec, chs):
        expected = line(inputs.sparse_paving_cyclic_flats(rec, chs))
        return lambda out: _exact(out, expected, f"ingest:{rec.name}:cyclic-flats")

    def trace(rec, tutte=None):
        key = f"ingest:{rec.name}:trace"
        return lambda out: _trace_checks(key, rec, out, goldens, tutte)

    # one pass is 10 jobs covering all five verbs: four start-up-bound jobs
    # (~0.12 s), two sparse-paving(4,12) jobs (~0.3 s) and four
    # validation-bound jobs (0.5 s and up), so job_p50_s, the median of the
    # jobs' fastest latencies, lies between the two sparse-paving(4,12) jobs
    specs = [
        (k6, "tutte", 0, golden("ingest:M(K6):tutte", k6)),
        (u612, "check-mw", 0, exact("ingest:U(6,12):check-mw",
                                    line(inputs.mw_record(12, 6, t_u612)))),
        (sp512, "cyclic-flats", 0, cyclic_flats(sp512, chs512)),
        (near[0], "tutte", 2, None),
        (sp412, "trace", 0, trace(sp412, t_sp412)),
        (sp412, "is-split", 0, exact("ingest:sparse-paving(4,12):is-split", b"true\n")),
        (near[1], "check-mw", 2, None),
        (min47, "tutte", 0, golden("ingest:minimal(4,7):tutte")),
        (min47, "trace", 0, trace(min47)),
        (near[2], "is-split", 2, None),
    ]
    jobs = [_cli_job(f"{rec.name}/{verb}", paths[rec.name], verb, workdir, code, expect)
            for rec, verb, code, expect in specs]
    warm = next(job for job in jobs if job.name == "minimal(4,7)/tutte")
    return Plan(jobs=jobs, warm=warm, inputs=[r.describe() for r in records],
                children_rss=True,
                smallest=[j.name for j in jobs if j.name.startswith(("minimal", "near-minimal"))])


# -- engines -------------------------------------------------------------------

POINTS = ((2, 0), (0, 2), (1, 1))


def engines_output(tutte_record: dict, evals: list[int]) -> bytes:
    """An engines job's output: the tutte-v1 record and T at POINTS."""
    return compact({"tutte": tutte_record,
                    **{f"t{x}{y}": str(v) for (x, y), v in zip(POINTS, evals)}}).encode()


def build_engines(seed: int, workdir: Path, goldens: Goldens) -> Plan:
    from splitmw.graphs import Multigraph
    from splitmw.matroid import Matroid, graphic
    tutte = importlib.import_module("splitmw.tutte")

    def from_graph(name, vertices, edges):
        m = graphic(Multigraph(vertices, edges))
        return inputs.record(name, m.n, m.rank, m.bases)

    closed_form, spanning_trees = {}, {}
    records = [
        # Petersen: 15 edges, 2,000 spanning trees, fixed, so compared whole
        from_graph("Petersen", 10, PETERSEN),
    ]
    # seeded bridgeless graphic matroids with 16-18 edges: subset-sum bound
    # (2^n rank table), with deletion-contraction a third to half as costly
    for (vertices, edges), trees in GRAPH_TREES.items():
        name = f"G({vertices},{edges})"
        graph = inputs.bridgeless_multigraph(vertices, edges, seed, trees)
        records.append(from_graph(name, vertices, graph))
        spanning_trees[name] = inputs.spanning_trees(vertices, graph)
    # seeded sparse paving (6,14) and (7,16): deletion-contraction bound
    for r, n in ((6, 14), (7, 16)):
        rec, _ = inputs.sparse_paving(r, n, SPARSE_PAVING[r, n], seed)
        records.append(rec)
        closed_form[rec.name] = inputs.sparse_paving_tutte(r, n, SPARSE_PAVING[r, n])
    # minimal(8,16): 65 bases, a short recursion but a 2^16 rank table
    records.append(inputs.minimal(8, 16))
    # minimal(8,17): fixed; Petersen, G(8,16), sparse-paving(6,14) and
    # minimal(8,16) are cheaper and the other four dearer, so it is the
    # median job, whose fastest latency is job_p50_s
    records.append(inputs.minimal(8, 17))
    # U(9,18): one closed-form step for deletion-contraction, 2^18 for subset-sum
    u918 = inputs.uniform(9, 18)
    records.append(u918)
    closed_form[u918.name] = inputs.sparse_paving_tutte(9, 18, 0)

    def job(rec: Record) -> Job:
        def run(tracer):
            m = Matroid(rec.n, rec.rank, rec.bases)
            memo = tutte.TutteMemo()
            dc = tutte.tutte_dc(m, memo=memo)
            subset = tutte.tutte_subset_sum(m)
            agree = dc == subset
            evals = [dc.evaluate(x, y) for x, y in POINTS]
            if tracer is not None:
                tracer.counters["tutte.memo_entries"] += len(memo)
            return dc, agree, evals

        def check(value):
            dc, agree, evals = value
            out = engines_output(dc.to_dict(), evals)
            key = f"engines:{rec.name}"
            if not agree:
                return out, f"{key}: deletion-contraction and subset-sum disagree"
            if evals[2] != len(rec.bases):
                return out, f"{key}: T(1,1) = {evals[2]} is not the basis count {len(rec.bases)}"
            if rec.name in closed_form:
                coeffs = closed_form[rec.name]
                expected = engines_output(inputs.tutte_record(coeffs),
                                          [inputs.evaluate(coeffs, x, y) for x, y in POINTS])
                return out, _exact(out, expected, key)
            if rec.name in spanning_trees:   # seeded: no golden
                trees = spanning_trees[rec.name]
                return out, None if evals[2] == trees else (
                    f"{key}: T(1,1) = {evals[2]} is not the spanning tree count {trees}")
            return out, goldens.check(key, out)

        return Job(rec.name, run, check)

    jobs = [job(rec) for rec in records]
    return Plan(jobs=jobs, warm=jobs[0], inputs=[r.describe() for r in records],
                smallest=["Petersen"])


# -- certify -------------------------------------------------------------------

def build_certify(seed: int, workdir: Path, goldens: Goldens) -> Plan:
    from splitmw.matroid import Matroid
    prooftrace = importlib.import_module("splitmw.prooftrace")
    tutte = importlib.import_module("splitmw.tutte")

    closed_form = {}
    records = []
    # seeded sparse paving matroids: split but not minimal, so their traces
    # recurse through delete-contract nodes whose minors coalesce in the memo
    for r, n in ((4, 12), (5, 12), (6, 14), (7, 14), (5, 15)):
        rec, _ = inputs.sparse_paving(r, n, SPARSE_PAVING[r, n], seed)
        records.append(rec)
        closed_form[rec.name] = inputs.sparse_paving_tutte(r, n, SPARSE_PAVING[r, n])
    # clean split direct sums of minimal matroids: direct-sum-split roots
    # with base-case leaves, small and fixed
    m = inputs.minimal
    for parts in ((m(3, 7), m(1, 4)), (m(4, 8), m(2, 3)),
                  (m(2, 5), m(1, 2), m(3, 4)), (m(4, 9), m(1, 3)),
                  (m(6, 10), m(2, 3)), (m(5, 9), m(1, 3), m(2, 3))):
        records.append(inputs.direct_sum(*parts))

    def job(rec: Record) -> Job:
        def run(tracer):
            t = prooftrace.trace(Matroid(rec.n, rec.rank, rec.bases))

            def serialize():
                return json.dumps(t.to_dict())
            return tracer.call("cli.serialize", serialize) if tracer else serialize()

        def check(text):
            out = text.encode()
            key = f"certify:{rec.name}"
            return out, _trace_checks(key, rec, out, goldens, closed_form.get(rec.name))

        return Job(rec.name, run, check)

    def after_pass(tracer):
        tracer.counters["tutte.memo_entries"] += len(tutte._global_memo)

    jobs = [job(rec) for rec in records]
    # every pass starts from an empty process-wide memo, as one corpus run
    # in a fresh process would; minors still coalesce across a pass's jobs
    return Plan(jobs=jobs, warm=jobs[-1], inputs=[r.describe() for r in records],
                before_pass=tutte._global_memo.clear, after_pass=after_pass,
                smallest=[records[5].name])


BUILDERS = {"ingest": build_ingest, "engines": build_engines,
            "certify": build_certify}
