"""Golden CLI outputs: one sha256 per (verb, input) of exit code, stdout and
stderr, kept in `golden_cli.json` next to this file.

Every run goes through `cli.main` in this process, with its input on
standard input (`-`), so that no temporary path reaches an error message.
Help text and usage errors are laid out by argparse, which changes between
Python versions, so their keys are compared only on the Python minor version
that the file records; every other key is compared on every version.

A change that alters an output on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden_cli.py

and names each changed key in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from itertools import combinations
from pathlib import Path

from splitmw import cli
from splitmw.corpus import bridgeless_graphs, split_trace_corpus, tutte_identity_corpus

GOLDEN = Path(__file__).resolve().with_name("golden_cli.json")

FILE_VERBS = ("tutte", "check-mw", "cyclic-flats", "is-split", "trace")
ALL_VERBS = ("construct", "tutte", "check-mw", "cyclic-flats", "is-split",
             "enumerate-rank2", "trace", "oracle", "selftest")

# keys whose text argparse lays out: compared on the recorded version only
ARGPARSE_PREFIXES = ("help ", "usage ")


def _record(n, rank, bases) -> str:
    return json.dumps({"format": "matroid-bases-v1", "n": n, "rank": rank,
                       "bases": bases})


# Records that each matroid reader must refuse (or, for rank 0, accept),
# each naming its first offender.
MALFORMED = {
    "float-element": _record(3, 1, [[0], [1.0]]),
    "bool-element": _record(3, 1, [[0], [True]]),
    "string-element": _record(3, 1, [[0], ["1"]]),
    "negative-element": _record(3, 1, [[0], [-1]]),
    "out-of-range-element": _record(3, 1, [[0], [3]]),
    "first-offender": _record(4, 2, [[0, 1], [2, "x"], [5, 1]]),
    "repeated-element": _record(3, 2, [[0, 1], [2, 2]]),
    "repeated-basis": _record(3, 2, [[0, 1], [1, 0]]),
    "wrong-size": _record(3, 2, [[0, 1], [2]]),
    "empty-bases": _record(3, 1, []),
    "rank-out-of-range": _record(3, 4, [[0, 1, 2]]),
    "rank-0": _record(3, 0, [[]]),
    "float-n": _record(3.0, 1, [[0], [1]]),
    "bool-rank": _record(3, True, [[0], [1]]),
    # every link complete multipartite, the basis graph disconnected: the
    # witness is found by a walk, on the bases or through their complements
    "disconnected": _record(6, 3, [[0, 1, 2], [3, 4, 5]]),
    "disconnected-dual": _record(7, 4, [[0, 1, 2, 3], [3, 4, 5, 6]]),
    "not-lists": _record(3, 1, [0, 1]),
    "not-an-object": "[1, 2]",
    "wrong-format": '{"format": "matroid-bases-v0", "n": 1, "rank": 1, "bases": [[0]]}',
    "not-json": "{",
}


def _bases(m) -> list[list[int]]:
    return m.to_dict()["bases"]


def _near_matroids(corpus):
    """Every 6th non-uniform member, with its first basis dropped and with
    the first rank-sized set it lacks added: most break exchange, and those
    of rank above n/2 take the complement path of `Matroid.check_exchange`."""
    members = [(i, m) for i, m in enumerate(corpus) if not m.is_uniform()]
    for i, m in members[::6]:
        bases = _bases(m)
        held = set(map(tuple, bases))
        extra = next(list(c) for c in combinations(range(m.n), m.rank)
                     if c not in held)
        yield f"identity[{i}]-drop", _record(m.n, m.rank, bases[1:])
        yield f"identity[{i}]-add", _record(m.n, m.rank, sorted(bases + [extra]))


def _graph(g) -> str:
    return json.dumps({"format": "multigraph-v1", "vertices": g.vertex_count,
                       "edges": [list(e) for e in g.edges]})


def cases():
    """(key, argv, stdin text or None) for every pinned run."""
    identity = tutte_identity_corpus()
    inputs = [(f"identity[{i}]", _record(m.n, m.rank, _bases(m)))
              for i, m in enumerate(identity)]
    split = [(f"split[{i}]", _record(m.n, m.rank, _bases(m)))
             for i, m in enumerate(split_trace_corpus())]
    malformed = [(f"malformed:{name}", text) for name, text in MALFORMED.items()]
    for name, text in inputs + split + malformed + list(_near_matroids(identity)):
        for verb in FILE_VERBS:
            yield f"{verb} {name}", [verb, "-"], text
    for name, text in inputs[::25]:
        for engine in ("subset", "both"):
            yield f"tutte --engine {engine} {name}", ["tutte", "-", "--engine", engine], text
    for name, text in split[::15]:
        yield f"trace --dot {name}", ["trace", "-", "--dot"], text

    for flag, value in (("--uniform", "3,6"), ("--uniform", "0,4"),
                        ("--minimal", "3,7"), ("--rank2", "3,1,2"),
                        ("--uniform", "4,2"), ("--minimal", "0,3"),
                        ("--rank2", "4"), ("--uniform", "x")):
        yield f"construct {flag} {value}", ["construct", flag, value], None
    graphs = bridgeless_graphs()
    for i, g in enumerate(graphs[:12]):
        yield f"construct --graphic bridgeless[{i}]", ["construct", "--graphic", "-"], _graph(g)
        yield f"oracle bridgeless[{i}]", ["oracle", "-"], _graph(g)
    yield "oracle malformed:endpoint-out-of-range", ["oracle", "-"], \
        '{"format": "multigraph-v1", "vertices": 2, "edges": [[0, 2]]}'
    yield "enumerate-rank2 --max-n 8", ["enumerate-rank2", "--max-n", "8"], None

    yield "help splitmw", ["--help"], None
    for verb in ALL_VERBS:
        yield f"help {verb}", [verb, "--help"], None
    yield "usage splitmw", [], None
    yield "usage splitmw no-such-verb", ["no-such-verb"], None
    usage = {"construct": ["--uniform", "2,4", "--minimal", "2,4"],
             "tutte": ["-", "--engine", "fast"], "check-mw": [],
             "cyclic-flats": ["-", "-"], "is-split": [],
             "enumerate-rank2": ["--max-n", "eight"], "trace": ["-", "--svg"],
             "oracle": [], "selftest": ["--criteria"]}
    for verb in ALL_VERBS:
        yield f"usage {verb}", [verb] + usage[verb], None


def run(argv, stdin_text) -> str:
    """sha256 of the exit code, stdout and stderr of `splitmw argv`."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:       # argparse: --help and usage errors
                code = exc.code
    finally:
        sys.stdin = saved_stdin
    text = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(text.encode()).hexdigest()


def outputs() -> dict[str, str]:
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    digests = {}
    try:
        for key, argv, text in cases():
            assert key not in digests, f"two cases share the key {key!r}"
            digests[key] = run(argv, text)
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return digests


def python_version() -> str:
    return "%d.%d" % sys.version_info[:2]


def test_cli_outputs_match_the_goldens():
    golden = json.loads(GOLDEN.read_text())
    expected, actual = golden["outputs"], outputs()
    if golden["python"] != python_version():
        expected = {k: v for k, v in expected.items()
                    if not k.startswith(ARGPARSE_PREFIXES)}
        actual = {k: v for k, v in actual.items()
                  if not k.startswith(ARGPARSE_PREFIXES)}
    changed = sorted(k for k in expected.keys() & actual.keys()
                     if expected[k] != actual[k])
    missing = sorted(expected.keys() - actual.keys())
    extra = sorted(actual.keys() - expected.keys())
    assert (changed, missing, extra) == ([], [], []), (
        f"{len(changed)} changed, {len(missing)} missing, {len(extra)} new "
        f"golden CLI outputs; changed: {changed[:20]}, missing: {missing[:20]}, "
        f"new: {extra[:20]}")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"python": python_version(), "outputs": outputs()},
                                 indent=0, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
