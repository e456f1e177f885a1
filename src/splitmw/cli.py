"""Command-line interface.

Exit codes: 0 = success / all checks pass, or stdout closed by its reader;
1 = a mathematically interesting failure (an inequality violation, an
unverified trace, an engine mismatch, or a classification breach); 2 =
input or usage error.  Every verb reads `-` as standard input, and all
output records are single-line canonical JSON so pipelines compose.

A run of `VERB INPUT`, for a verb whose one positional is its input
(`INPUT_DEFAULTS`) and an INPUT that is `-` or no option, takes its
arguments with no parser (`_input_args`), so the job imports no argparse.
Any other run builds the argparse parser of its verb alone (`VERBS`,
`build_parser`), which writes every option, `--help` and usage error.
Each verb imports, after the reader, only the modules it runs, so a job
compiles no engine, flats, tracer or record writer it does not call.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from .errors import (ClassificationFailureError, EngineMismatchError, InputError,
                     SplitMWError, check_size)
from .matroid import (
    Matroid,
    graphic,
    matroid_from_dict,
    minimal,
    rank2_from_partition,
    uniform,
)

# Each verb imports only what it runs: `tutte`, `flats`, `merino_welsh`,
# `prooftrace` and `graphs` load on first use, here and in the handlers
# below, so a file that the reader refuses compiles none of them.


def cyclic_flats(m: Matroid):
    """`flats.cyclic_flats`, imported on first call."""
    from .flats import cyclic_flats
    return cyclic_flats(m)


def is_split(m: Matroid):
    """`flats.is_split`, imported on first call."""
    from .flats import is_split
    return is_split(m)


def check_mw(m: Matroid):
    """`merino_welsh.check_mw`, imported on first call."""
    from . import merino_welsh
    return merino_welsh.check_mw(m)


def trace(m: Matroid):
    """`prooftrace.trace`, imported on first call."""
    from . import prooftrace
    return prooftrace.trace(m)


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        # the decoder recurses once per level of [ or {
        raise InputError(f"{path}: JSON nested too deeply to read") from None


def _load_matroid(path: str, work: str) -> Matroid:
    """Read a matroid-bases-v1 file for `work` (a key of SIZE_LIMITS),
    checking its n against the limit before any mask of n bits is built."""
    record = _read_json(path)
    n = record.get("n") if isinstance(record, dict) else None
    if type(n) is int:
        check_size(work, n)
    return matroid_from_dict(record)


def _load_multigraph(path: str):
    from .graphs import multigraph_from_dict
    return multigraph_from_dict(_read_json(path))


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected K,N but got {text!r}")
    return int(parts[0]), int(parts[1])


def _cmd_construct(args) -> int:
    if args.uniform:
        k, n = _parse_pair(args.uniform)
        m = uniform(k, n)
    elif args.minimal:
        k, n = _parse_pair(args.minimal)
        m = minimal(k, n)
    elif args.graphic:
        m = graphic(_load_multigraph(args.graphic))
    else:
        sizes = [int(s) for s in args.rank2.split(",")]
        m = rank2_from_partition(sizes)
    print(_dumps(m.to_dict()))
    return 0


def _cmd_tutte(args) -> int:
    m = _load_matroid(args.input,
                      "deletion-contraction" if args.engine == "dc" else "tables")
    from . import tutte

    if args.engine == "subset":
        t = tutte.tutte_subset_sum(m)
    else:
        t = tutte.tutte_dc(m)
    if args.engine == "both" and t != tutte.tutte_subset_sum(m):
        raise EngineMismatchError("deletion-contraction and subset-sum disagree")
    print(_dumps(tutte.check_identities(m, t).to_dict()))
    return 0


def _cmd_check_mw(args) -> int:
    report = check_mw(_load_matroid(args.input, "deletion-contraction"))
    print(_dumps(report.to_dict()))
    return 0 if report.all_ok else 1


def _cmd_cyclic_flats(args) -> int:
    report = cyclic_flats(_load_matroid(args.input, "tables"))
    print(_dumps(report.to_dict()))
    return 0


def _cmd_is_split(args) -> int:
    print(_dumps(is_split(_load_matroid(args.input, "tables"))))
    return 0


def _cmd_enumerate_rank2(args) -> int:
    from .merino_welsh import verify_rank2_exhaustive

    ok = True
    for census in verify_rank2_exhaustive(args.max_n):
        for partition, report in zip(census.partitions, census.reports):
            record = report.to_dict()
            record["partition"] = list(partition)
            print(_dumps(record))
        print(_dumps(census.to_dict()))
        ok = ok and census.all_pass
    return 0 if ok else 1


def _cmd_trace(args) -> int:
    t = trace(_load_matroid(args.input, "trace"))
    if args.dot:
        from .prooftrace import to_dot
        print(to_dot(t))
    else:
        print(_dumps(t.to_dict()))
    return 0 if t.verified else 1


def _cmd_oracle(args) -> int:
    from .graphs import _orientation_counts, count_spanning_trees

    g = _load_multigraph(args.input)
    trees = count_spanning_trees(g)
    acyclic, totally = _orientation_counts(g)
    record = {
        "format": "orientation-oracle-v1",
        "spanning_trees": trees,
        "acyclic_orientations": acyclic,
        "totally_cyclic_orientations": totally,
    }
    print(_dumps(record))
    return 0


def _cmd_selftest(args) -> int:
    from . import acceptance

    numbers = None
    if args.criteria:
        numbers = [int(s) for s in args.criteria.split(",")]
    results = acceptance.run(numbers)
    return 0 if all(r.passed for r in results) else 1


# verb -> the defaults of its options, for each verb whose one positional is
# its input: `_input_args` reads `VERB INPUT` of these with no parser, and
# their argparse options take the same defaults
INPUT_DEFAULTS = {"tutte": {"engine": "dc"}, "check-mw": {}, "cyclic-flats": {},
                  "is-split": {}, "trace": {"dot": False}, "oracle": {}}


def _input(p) -> None:
    p.add_argument("input")


def _construct_arguments(p) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--uniform", metavar="K,N")
    grp.add_argument("--minimal", metavar="K,N")
    grp.add_argument("--graphic", metavar="FILE")
    grp.add_argument("--rank2", metavar="A1,A2,...")


def _tutte_arguments(p) -> None:
    _input(p)
    p.add_argument("--engine", choices=("subset", "dc", "both"),
                   default=INPUT_DEFAULTS["tutte"]["engine"])


def _enumerate_rank2_arguments(p) -> None:
    p.add_argument("--max-n", type=int, required=True, dest="max_n")


def _trace_arguments(p) -> None:
    _input(p)
    p.add_argument("--dot", action="store_true", default=INPUT_DEFAULTS["trace"]["dot"],
                   help="emit a DOT graph instead of JSON")


def _selftest_arguments(p) -> None:
    p.add_argument("--criteria", metavar="N,N,...",
                   help="run only the listed criteria")


# verb -> (help, handler, what adds its arguments), in the order of `--help`
VERBS = {
    "construct": ("build a matroid and emit matroid-bases-v1",
                  _cmd_construct, _construct_arguments),
    "tutte": ("Tutte polynomial of a matroid (tutte-v1)", _cmd_tutte, _tutte_arguments),
    "check-mw": ("Merino-Welsh inequalities (mw-v1)", _cmd_check_mw, _input),
    "cyclic-flats": ("cyclic flats and classification (cyclic-flats-v1)",
                     _cmd_cyclic_flats, _input),
    "is-split": ("print whether the matroid is split", _cmd_is_split, _input),
    "enumerate-rank2": ("stream the exhaustive rank-2 verification",
                        _cmd_enumerate_rank2, _enumerate_rank2_arguments),
    "trace": ("certificate tree for a split matroid (trace-v1)", _cmd_trace,
              _trace_arguments),
    "oracle": ("brute-force spanning tree and orientation counts for a "
               "multigraph", _cmd_oracle, _input),
    "selftest": ("run the acceptance suite", _cmd_selftest, _selftest_arguments),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb, or, given one, of that verb alone.  The
    one-verb parser's usage line lists every verb, as the full one's does;
    the full one's errors name the verb argument `verb`, which a fixed
    metavar would rename, so only the one-verb parser takes one.  argparse
    is imported here: a `VERB INPUT` run builds no parser."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="splitmw",
        description="Exact matroid toolkit: Tutte polynomials, cyclic flats, "
                    "split recognition, Merino-Welsh certification.")
    sub = parser.add_subparsers(
        dest="verb", required=True,
        metavar=None if verb is None else "{%s}" % ",".join(VERBS))
    for name, (text, handler, add_arguments) in VERBS.items():
        if verb in (None, name):
            p = sub.add_parser(name, help=text)
            add_arguments(p)
            p.set_defaults(func=handler)
    return parser


def _input_args(argv) -> SimpleNamespace | None:
    """What `build_parser(verb).parse_args(argv)` returns for argv =
    [VERB, INPUT], with VERB in `INPUT_DEFAULTS` and INPUT either `-` or
    not starting with `-`, which argparse reads as the positional: the
    verb, the input, the handler and the option defaults.  None for any
    other argv, which the parser reads."""
    if len(argv) != 2 or argv[0] not in INPUT_DEFAULTS:
        return None
    verb, path = argv
    if path.startswith("-") and path != "-":
        return None
    return SimpleNamespace(verb=verb, input=path, **INPUT_DEFAULTS[verb],
                           func=VERBS[verb][1])


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _input_args(argv)
    if args is None:
        # a verb first builds its own parser alone; `splitmw --help`, no
        # verb and an unknown verb take the full one
        verb = argv[0] if argv and argv[0] in VERBS else None
        args = build_parser(verb).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()      # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:     # the reader's choice; the last flush goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except ClassificationFailureError as exc:
        print(f"classification failure: {exc}", file=sys.stderr)
        return 1
    except EngineMismatchError as exc:  # `tutte`, and `check_mw`'s identities
        print(f"engine mismatch: {exc}", file=sys.stderr)
        return 1
    except (SplitMWError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
