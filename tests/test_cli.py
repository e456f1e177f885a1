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

    # C(40,14) = 23,206,929,840 bases, and counts too large to compute in full
    @pytest.mark.parametrize("argv", [
        ["--uniform", "14,40"], ["--uniform", "500000000,1000000000"],
        ["--minimal", "3,2000000"], ["--rank2", "2000,2000"]])
    def test_too_many_bases_exits_2_at_once(self, argv, monkeypatch, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(["construct"] + argv, None, monkeypatch, capsys)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "") and "bases limit 2704156" in err

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
        monkeypatch.setattr(cli.tutte_mod, "tutte_subset_sum",
                            lambda m: TuttePolynomial(((0, 7),)))
        doc = construct(["--uniform", "1,2"], monkeypatch, capsys)
        code, _, err = run_cli(["tutte", "-", "--engine", "both"],
                               doc, monkeypatch, capsys)
        assert code == 1
        assert "mismatch" in err

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

    @pytest.mark.parametrize("cap", ["-1", "x"])
    def test_bad_memo_cap_exits_2(self, cap, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--memo-cap", cap, "selftest"], None, monkeypatch, capsys)
        assert exc.value.code == 2
        assert "--memo-cap: expected a byte count of at least 0" in capsys.readouterr().err

    def test_memo_cap_flag(self, monkeypatch, capsys):
        doc = construct(["--minimal", "5,10"], monkeypatch, capsys)
        code, out, _ = run_cli(["--memo-cap", "4000", "tutte", "-"],
                               doc, monkeypatch, capsys)
        assert code == 0
        record = json.loads(out)
        assert record["rank"] == 5


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
UNUSED_AT_START = {"dataclasses", "hashlib", "splitmw.graphs", "splitmw.isomorphism",
                   "splitmw.merino_welsh", "splitmw.prooftrace",
                   "splitmw.acceptance", "splitmw.corpus"}


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


def test_cli_import_leaves_unused_modules_out():
    assert modules_added("import splitmw.cli") & UNUSED_AT_START == set()


@pytest.mark.parametrize("verb, loads", [
    ("tutte", set()), ("is-split", set()), ("cyclic-flats", set()),
    ("check-mw", {"splitmw.merino_welsh"}),
    ("trace", {"hashlib", "splitmw.isomorphism", "splitmw.merino_welsh",
               "splitmw.prooftrace"})])
def test_file_verb_loads_only_what_it_runs(verb, loads, tmp_path):
    path = tmp_path / "t47.json"
    path.write_text(json.dumps(splitmw.minimal(4, 7).to_dict()))
    code = ("import contextlib, io\nfrom splitmw.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main([{verb!r}, {str(path)!r}]) == 0")
    assert modules_added(code) & UNUSED_AT_START == loads
