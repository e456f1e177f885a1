import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitmw
from splitmw import SplitMWError, cli, matroid_from_dict
from splitmw.errors import SIZE_LIMITS
from splitmw.graphs import multigraph_from_dict

from conftest import derived_matroids


def run_cli(argv, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def construct(argv_tail, monkeypatch, capsys):
    code, out, _ = run_cli(["construct"] + argv_tail, None, monkeypatch, capsys)
    assert code == 0
    return out


class TestConstruct:
    def test_round_trip_is_byte_identical(self, monkeypatch, capsys):
        first = construct(["--minimal", "4,7"], monkeypatch, capsys)
        second = construct(["--minimal", "4,7"], monkeypatch, capsys)
        assert first == second
        doc = json.loads(first)
        assert doc["format"] == "matroid-bases-v1"
        assert len(doc["bases"]) == 13

    def test_uniform_and_rank2(self, monkeypatch, capsys):
        doc = json.loads(construct(["--uniform", "2,4"], monkeypatch, capsys))
        assert len(doc["bases"]) == 6
        doc = json.loads(construct(["--rank2", "3,1,1"], monkeypatch, capsys))
        assert len(doc["bases"]) == 7
        doc = json.loads(construct(["--uniform", "2,100"], monkeypatch, capsys))
        assert len(doc["bases"]) == 4950

    def test_graphic_from_file(self, tmp_path, monkeypatch, capsys):
        gfile = tmp_path / "triangle.json"
        gfile.write_text(json.dumps({"format": "multigraph-v1", "vertices": 3,
                                     "edges": [[0, 1], [1, 2], [2, 0]]}))
        doc = json.loads(construct(["--graphic", str(gfile)], monkeypatch, capsys))
        assert doc["rank"] == 2 and len(doc["bases"]) == 3

    def test_wide_empty_basis_at_once(self, monkeypatch, capsys):
        # one empty basis on 20,000 elements: no byte of the record's
        # 2,500-byte slot holds an element, so none is looked up
        start = time.perf_counter()
        out = construct(["--uniform", "0,20000"], monkeypatch, capsys)
        assert time.perf_counter() - start < 1
        assert out == '{"format":"matroid-bases-v1","n":20000,"rank":0,"bases":[[]]}\n'

    def test_wide_empty_basis_at_the_limit(self):
        # one empty basis of SIZE_LIMITS["basis-bits"] bits, in its own
        # process: its masks are built without a pool of n elements, and
        # its one all-zero slot is written without a look at each byte
        n = SIZE_LIMITS["basis-bits"]
        src = str(Path(splitmw.__file__).resolve().parent.parent)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "splitmw.cli", "construct",
                               "--uniform", f"0,{n}"], check=False,
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True)
        assert time.perf_counter() - start < 1
        assert (proc.returncode, proc.stdout) == (
            0, f'{{"format":"matroid-bases-v1","n":{n},"rank":0,"bases":[[]]}}\n')

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB")
    def test_wide_full_basis(self, tmp_path):
        # one basis of a million elements, in its own process with 1 GB of
        # address space: a slot past 64 bits is written through its own
        # numeral, in time and memory linear in its elements
        import resource
        n = 10 ** 6
        src = str(Path(splitmw.__file__).resolve().parent.parent)
        out = tmp_path / "record.json"
        with out.open("wb") as stdout:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "splitmw.cli", "construct", "--uniform",
                 f"{n},{n}"], stdout=stdout, env=dict(os.environ, PYTHONPATH=src),
                preexec_fn=lambda: resource.setrlimit(
                    resource.RLIMIT_AS, (1 << 30, 1 << 30)))
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        assert elapsed < 2
        assert usage.ru_maxrss < 300 * 1024
        assert out.read_text() == json.dumps(
            {"format": "matroid-bases-v1", "n": n, "rank": n,
             "bases": [list(range(n))]}, separators=(",", ":")) + "\n"

    # C(40,14) = 23,206,929,840 bases, and counts too large to compute in full
    @pytest.mark.parametrize("argv", [
        ["--uniform", "14,40"], ["--uniform", "500000000,1000000000"],
        ["--minimal", "3,2000000"], ["--rank2", "2000,2000"]])
    def test_too_many_bases_exits_2_at_once(self, argv, monkeypatch, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(["construct"] + argv, None, monkeypatch, capsys)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "") and "bases limit 2704156" in err

    # counts inside the bases limit, each basis a 2,000,000-bit mask
    @pytest.mark.parametrize("argv", [
        ["--minimal", "1,2000000"], ["--rank2", "1,1999999"]])
    def test_too_many_basis_bits_exits_2_at_once(self, argv, monkeypatch,
                                                  capsys):
        start = time.perf_counter()
        code, out, err = run_cli(["construct"] + argv, None, monkeypatch, capsys)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "") and "basis-bits limit 64899744" in err

    def test_bad_parameters_exit_2(self, monkeypatch, capsys):
        code, _, err = run_cli(["construct", "--minimal", "9,4"],
                               None, monkeypatch, capsys)
        assert code == 2
        assert "error" in err


class TestPipelines:
    def test_construct_then_check_mw(self, monkeypatch, capsys):
        doc = construct(["--minimal", "4,7"], monkeypatch, capsys)
        code, out, _ = run_cli(["check-mw", "-"], doc, monkeypatch, capsys)
        assert code == 0
        record = json.loads(out)
        assert record["format"] == "mw-v1"
        assert record["mult"] is True
        assert record["t11"] == "13"

    def test_check_mw_rejects_coloops(self, monkeypatch, capsys):
        doc = construct(["--uniform", "1,1"], monkeypatch, capsys)
        code, _, err = run_cli(["check-mw", "-"], doc, monkeypatch, capsys)
        assert code == 2
        assert "coloop" in err

    def test_tutte_both_engines(self, monkeypatch, capsys):
        doc = construct(["--minimal", "4,7"], monkeypatch, capsys)
        code, out, _ = run_cli(["tutte", "-", "--engine", "both"],
                               doc, monkeypatch, capsys)
        assert code == 0
        record = json.loads(out)
        assert record["format"] == "tutte-v1"
        assert record["rank"] == 4 and record["corank"] == 3

    def test_tutte_engine_mismatch_exits_1(self, monkeypatch, capsys):
        from splitmw.tutte import TuttePolynomial
        monkeypatch.setattr("splitmw.tutte.tutte_subset_sum",
                            lambda m: TuttePolynomial(((0, 7),)))
        doc = construct(["--uniform", "1,2"], monkeypatch, capsys)
        code, _, err = run_cli(["tutte", "-", "--engine", "both"],
                               doc, monkeypatch, capsys)
        assert code == 1
        assert "mismatch" in err

    # one defect in the Whitney expansion that both engines share (the
    # uniform closed form is built by it too): on the first corpus matroid
    # where they agree on a wrong polynomial, which `--engine both` printed
    # with exit 0, the free identities T(1,1) = |B| and T(2,2) = 2^n fail
    def test_shared_defect_fails_the_identities(self, monkeypatch, capsys):
        from splitmw import tutte
        from splitmw.corpus import tutte_identity_corpus

        def defective(whitney):
            total, row = 0, tutte._FIELD * tutte._STRIDE
            for ws in reversed(whitney):
                across = 0
                for w in reversed(ws):
                    across = (across << tutte._FIELD) - across + w + (w > 5)
                total = (total << row) - total + across
            return total

        def clear():
            tutte._uniform_packed.cache_clear()
            tutte._uniform_tutte.cache_clear()

        corpus = tutte_identity_corpus()
        truth = {id(m): tutte.tutte_subset_sum(m) for m in corpus}
        monkeypatch.setattr(tutte, "_from_whitney", defective)
        clear()
        try:
            m = next(m for m in corpus
                     if tutte.tutte_dc(m, memo=tutte.TutteMemo())
                     == tutte.tutte_subset_sum(m) != truth[id(m)])
            code, out, err = run_cli(["tutte", "-", "--engine", "both"],
                                     json.dumps(m.to_dict()), monkeypatch, capsys)
        finally:
            clear()
        assert code == 1 and out == ""
        assert err == ("engine mismatch: T(1,1) is not the basis count or "
                       "T(2,2) is not 2^n\n")

    def test_cyclic_flats_fixture(self, monkeypatch, capsys):
        gdoc = json.dumps({"format": "multigraph-v1", "vertices": 4,
                           "edges": [[0, 1], [0, 1], [1, 2], [1, 2], [2, 3], [3, 0]]})
        code, out, _ = run_cli(["construct", "--graphic", "-"],
                               gdoc, monkeypatch, capsys)
        assert code == 0
        code, out, _ = run_cli(["cyclic-flats", "-"], out, monkeypatch, capsys)
        assert code == 0
        record = json.loads(out)
        assert record["split"] is False
        assert record["proper_antichain"] is False

    def test_is_split(self, monkeypatch, capsys):
        doc = construct(["--minimal", "4,7"], monkeypatch, capsys)
        code, out, _ = run_cli(["is-split", "-"], doc, monkeypatch, capsys)
        assert code == 0 and out.strip() == "true"

    def test_trace_verb(self, monkeypatch, capsys):
        doc = construct(["--minimal", "4,7"], monkeypatch, capsys)
        code, out, _ = run_cli(["trace", "-"], doc, monkeypatch, capsys)
        assert code == 0
        record = json.loads(out)
        assert record["format"] == "trace-v1"
        assert record["verified"] is True
        assert record["rule"] == "base-minimal"

    def test_trace_dot(self, monkeypatch, capsys):
        doc = construct(["--minimal", "4,7"], monkeypatch, capsys)
        code, out, _ = run_cli(["trace", "-", "--dot"], doc, monkeypatch, capsys)
        assert code == 0
        assert out.startswith("digraph")

    def test_tutte_subset_engine(self, monkeypatch, capsys):
        doc = construct(["--uniform", "1,3"], monkeypatch, capsys)
        code, out, _ = run_cli(["tutte", "-", "--engine", "subset"],
                               doc, monkeypatch, capsys)
        assert code == 0
        assert json.loads(out)["coeffs"] == [["0", "1", "1"], ["1", "0", "0"]]

    def test_unverified_trace_exits_1(self, monkeypatch, capsys):
        from splitmw import ProofTrace, trace as real_trace

        def fake_trace(m):
            return ProofTrace(real_trace(m).root, verified=False)

        monkeypatch.setattr(cli, "trace", fake_trace)
        doc = construct(["--minimal", "4,7"], monkeypatch, capsys)
        code, out, _ = run_cli(["trace", "-"], doc, monkeypatch, capsys)
        assert code == 1
        assert json.loads(out)["verified"] is False

    def test_trace_non_split_exits_2(self, monkeypatch, capsys):
        gdoc = json.dumps({"format": "multigraph-v1", "vertices": 4,
                           "edges": [[0, 1], [0, 1], [1, 2], [1, 2], [2, 3], [3, 0]]})
        code, mdoc, _ = run_cli(["construct", "--graphic", "-"],
                                gdoc, monkeypatch, capsys)
        code, _, err = run_cli(["trace", "-"], mdoc, monkeypatch, capsys)
        assert code == 2
        assert "split" in err

    def test_violation_reports_exit_1(self, monkeypatch, capsys):
        from splitmw.merino_welsh import report_from_evaluations
        monkeypatch.setattr(cli, "check_mw",
                            lambda m: report_from_evaluations(2, 1, 1, 1, 5))
        doc = construct(["--uniform", "1,2"], monkeypatch, capsys)
        code, out, _ = run_cli(["check-mw", "-"], doc, monkeypatch, capsys)
        assert code == 1
        assert json.loads(out)["mult"] is False


class TestEnumerateRank2:
    def test_stream_and_exit_code(self, monkeypatch, capsys):
        code, out, _ = run_cli(["enumerate-rank2", "--max-n", "5"],
                               None, monkeypatch, capsys)
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        census_lines = [r for r in lines if r["format"] == "rank2-census-v1"]
        report_lines = [r for r in lines if r["format"] == "mw-v1"]
        assert [c["n"] for c in census_lines] == [2, 3, 4, 5]
        assert all(c["all_pass"] for c in census_lines)
        assert all("partition" in r for r in report_lines)
        n4 = [tuple(r["partition"]) for r in report_lines if r["n"] == 4]
        assert n4 == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_max_n_past_the_limit_exits_2_before_any_census(self, monkeypatch,
                                                            capsys):
        from splitmw import merino_welsh

        def refuse(m):
            raise AssertionError("check_mw ran")
        monkeypatch.setattr(merino_welsh, "check_mw", refuse)
        code, out, err = run_cli(["enumerate-rank2", "--max-n", "25"],
                                 None, monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert "deletion-contraction limit 24" in err


class TestOracle:
    def test_triangle_counts(self, monkeypatch, capsys):
        gdoc = json.dumps({"format": "multigraph-v1", "vertices": 3,
                           "edges": [[0, 1], [1, 2], [2, 0]]})
        code, out, _ = run_cli(["oracle", "-"], gdoc, monkeypatch, capsys)
        assert code == 0
        record = json.loads(out)
        assert record["spanning_trees"] == 3
        assert record["acyclic_orientations"] == 6
        assert record["totally_cyclic_orientations"] == 2

    def test_one_enumeration_per_graph(self, monkeypatch, capsys):
        from splitmw import graphs
        calls = []
        enumerate_once = graphs._orientation_counts

        def counted(g):
            calls.append(g)
            return enumerate_once(g)

        monkeypatch.setattr(graphs, "_orientation_counts", counted)
        # a self-loop at 0, a triangle 0-1-2, a bridge 2-3, vertex 4 isolated
        gdoc = json.dumps({"format": "multigraph-v1", "vertices": 5,
                           "edges": [[0, 0], [0, 1], [1, 2], [2, 0], [2, 3]]})
        code, out, _ = run_cli(["oracle", "-"], gdoc, monkeypatch, capsys)
        assert code == 0
        assert len(calls) == 1
        # the loop leaves no acyclic orientation, the bridge no totally
        # cyclic one
        assert out == ('{"format":"orientation-oracle-v1","spanning_trees":3,'
                       '"acyclic_orientations":0,'
                       '"totally_cyclic_orientations":0}\n')


class TestSelftest:
    def test_selected_criteria(self, monkeypatch, capsys):
        code, out, _ = run_cli(["selftest", "--criteria", "1,9"],
                               None, monkeypatch, capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("PASS") for line in lines)


class TestErrors:
    def test_missing_file_exits_2(self, monkeypatch, capsys):
        code, _, err = run_cli(["tutte", "/nonexistent/path.json"],
                               None, monkeypatch, capsys)
        assert code == 2

    def test_malformed_json_exits_2(self, monkeypatch, capsys):
        code, _, err = run_cli(["check-mw", "-"], "not json",
                               monkeypatch, capsys)
        assert code == 2

    @pytest.mark.parametrize("doc", [
        '{"format":"matroid-bases-v1","n":2,"rank":1,"bases":5}',
        '[1,2]',
        '{"format":"matroid-bases-v1","n":1,"rank":1,"bases":[[0.5]]}',
        '{"format":"matroid-bases-v1","n":true,"rank":1,"bases":[[0]]}',
        '{"format":"matroid-bases-v1","n":2,"rank":1,"bases":[[0,0]]}',
        '{"format":"matroid-bases-v1","n":2,"rank":1,"bases":[[0],[0],[1]]}',
        '{"format":"matroid-bases-v1","n":2,"rank":1,"bases":[[true],[0]]}',
    ], ids=["bases-not-list", "record-not-object", "float-element", "bool-n",
            "repeated-element", "duplicate-basis", "bool-element"])
    def test_malformed_matroid_exits_2(self, doc, monkeypatch, capsys):
        code, out, err = run_cli(["tutte", "-"], doc, monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("doc, reason", [
        ('{"format":"multigraph-v1","vertices":2,"edges":5}', "'edges' must be a list"),
        ('[1]', "expected a JSON object"),
        ('{"format":"multigraph-v1","vertices":true,"edges":[[0,0]]}',
         "vertices must be an integer"),
        ('{"format":"multigraph-v1","vertices":3,"edges":[[0.5,1]]}',
         "edge endpoint must be an integer"),
        ('{"format":"multigraph-v1","vertices":3,"edges":[[0,1,2]]}',
         "is not a [u, v] pair"),
    ], ids=["edges-not-list", "record-not-object", "bool-vertices",
            "float-endpoint", "three-endpoints"])
    def test_malformed_multigraph_exits_2(self, doc, reason, monkeypatch, capsys):
        code, out, err = run_cli(["oracle", "-"], doc, monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and reason in err

    def test_deeply_nested_json_exits_2(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run_cli(["tutte", str(path)], None, monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "nested too deeply" in err

    def test_memo_cap_is_a_usage_error(self, monkeypatch, capsys):
        # the memo's bound is the fixed "memo-bytes" size limit
        doc = construct(["--minimal", "5,10"], monkeypatch, capsys)
        with pytest.raises(SystemExit) as exc:
            run_cli(["--memo-cap", "4000", "tutte", "-"], doc, monkeypatch, capsys)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: splitmw")


# Arbitrary JSON, records with the right format and arbitrary fields, and
# matroid records with one basis dropped or not, so that some documents get
# past each reader.
small_ints = st.integers(-1, 7)
wide_ints = st.integers(-1, 10**9)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 80) | st.floats() | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=5)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=12)
matroid_like = st.fixed_dictionaries({
    "format": st.just("matroid-bases-v1"),
    "n": small_ints | wide_ints | json_values,
    "rank": small_ints | json_values,
    "bases": st.lists(st.lists(small_ints, max_size=4), max_size=8) | json_values})
graph_like = st.fixed_dictionaries({
    "format": st.just("multigraph-v1"),
    "vertices": small_ints | wide_ints | json_values,
    "edges": st.lists(st.lists(small_ints, min_size=2, max_size=2), max_size=6)
    | json_values})


def drop_basis(record: dict, i: int) -> dict:
    bases = record["bases"]
    return dict(record, bases=bases[:i] + bases[i + 1:])


matroid_records = derived_matroids().map(lambda m: m.to_dict())
near_records = st.builds(drop_basis, matroid_records, st.integers(0, 30))
documents = json_values | matroid_like | graph_like | matroid_records | near_records

# every verb that reads a file, with the reader it applies
FILE_VERBS = [(["tutte"], matroid_from_dict), (["check-mw"], matroid_from_dict),
              (["cyclic-flats"], matroid_from_dict), (["is-split"], matroid_from_dict),
              (["trace"], matroid_from_dict), (["oracle"], multigraph_from_dict),
              (["construct", "--graphic"], multigraph_from_dict)]


def well_formed(reader, doc) -> bool:
    try:
        reader(doc)
    except (SplitMWError, ValueError):
        return False
    return True


# each example runs seven whole CLI invocations
@settings(max_examples=50)
@given(documents)
def test_arbitrary_json_exits_0_1_or_2(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    for verb, reader in FILE_VERBS:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(verb + [str(path)])
        assert code in (0, 1, 2), verb
        if code == 1:
            assert well_formed(reader, doc), verb


def run_file(argv, doc, path):
    """(exit code, stdout, stderr, seconds) of one CLI run on `doc`."""
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + [str(path)])
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


# Records whose size fields ask for far more than the file holds: a rank-0
# matroid whose 200,000 loops are listed in no error message, an n that no
# mask is built for, and isolated vertices that no graph count walks.
WIDE_MATROIDS = [
    {"format": "matroid-bases-v1", "n": 200_000, "rank": 0, "bases": [[]]},
    {"format": "matroid-bases-v1", "n": 10**8, "rank": 1, "bases": [[0]]}]
EDGE = {"format": "multigraph-v1", "vertices": 2, "edges": [[0, 1]]}


@pytest.mark.parametrize("verb, reader", FILE_VERBS,
                         ids=[" ".join(verb) for verb, _ in FILE_VERBS])
def test_wide_inputs_answer_at_once(verb, reader, tmp_path):
    path = tmp_path / "wide.json"
    if reader is matroid_from_dict:
        for doc in WIDE_MATROIDS:
            code, out, err, seconds = run_file(verb, doc, path)
            assert (code, out) == (2, "") and len(err.encode()) < 1024
            assert seconds < 1
    else:
        _, narrow, _, _ = run_file(verb, EDGE, path)
        code, out, _, seconds = run_file(verb, dict(EDGE, vertices=10**6), path)
        assert (code, out) == (0, narrow)
        assert seconds < 1


# what a verb that does not run it must not pay for at start-up
UNUSED_AT_START = {"dataclasses", "hashlib", "splitmw.graphs",
                   "splitmw.merino_welsh", "splitmw.prooftrace",
                   "splitmw.acceptance", "splitmw.corpus", "splitmw.tutte",
                   "splitmw.flats"}


def modules_added(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running `code` that it
    did not hold before (so site hooks of the host do not count)."""
    src = str(Path(splitmw.__file__).resolve().parent.parent)
    script = ("import sys\nbefore = set(sys.modules)\n" + code
              + "\nprint(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", script], check=False,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_module_entry_point_runs_the_cli():
    src = str(Path(splitmw.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "splitmw.cli", "tutte",
                           "/nonexistent.json"], check=False,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["construct", "--uniform", "2,4"],
                                  ["enumerate-rank2", "--max-n", "6"]],
                         ids=["construct", "enumerate-rank2"])
def test_closed_stdout_exits_0_and_says_nothing(argv, unbuffered):
    # the reader closes the pipe before the verb writes: stopping is its
    # choice, not bad input, whether the write fails inside the verb
    # (unbuffered) or at the last flush (buffered)
    src = str(Path(splitmw.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "splitmw.cli", *argv],
                              check=False, stdout=write_end,
                              stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_cli_import_leaves_unused_modules_out():
    assert modules_added("import splitmw.cli") & UNUSED_AT_START == set()


@pytest.mark.parametrize("verb, loads", [
    ("tutte", {"splitmw.tutte"}), ("is-split", {"splitmw.flats"}),
    ("cyclic-flats", {"splitmw.flats"}),
    ("check-mw", {"splitmw.merino_welsh", "splitmw.tutte"}),
    ("trace", {"hashlib", "splitmw.flats", "splitmw.merino_welsh",
               "splitmw.prooftrace"})])
def test_file_verb_loads_only_what_it_runs(verb, loads, tmp_path):
    path = tmp_path / "t47.json"
    path.write_text(json.dumps(splitmw.minimal(4, 7).to_dict()))
    code = ("import contextlib, io\nfrom splitmw.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main([{verb!r}, {str(path)!r}]) == 0")
    assert modules_added(code) & UNUSED_AT_START == loads


@pytest.mark.parametrize("verb", ["tutte", "is-split", "cyclic-flats",
                                  "check-mw", "trace"])
def test_refused_file_loads_no_engine(verb, tmp_path):
    # minimal(4,7) less a basis breaks exchange: the reader exits 2 before
    # the verb imports what it would run
    record = splitmw.minimal(4, 7).to_dict()
    del record["bases"][6]
    path = tmp_path / "near47.json"
    path.write_text(json.dumps(record))
    code = ("import contextlib, io\nfrom splitmw.cli import main\n"
            "with contextlib.redirect_stderr(io.StringIO()):\n"
            f"    assert main([{verb!r}, {str(path)!r}]) == 2")
    assert modules_added(code) & UNUSED_AT_START == set()


def test_prooftrace_import_loads_no_engine():
    assert "splitmw.tutte" not in modules_added("import splitmw.prooftrace")


def test_one_verb_parser_keeps_the_usage_line():
    full = cli.build_parser()
    for verb in cli.VERBS:
        one = cli.build_parser(verb)
        assert one.format_usage() == full.format_usage()
        (sub,) = [a for a in one._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == [verb]
