"""Command-line interface.

Exit codes: 0 = success / all checks pass; 1 = a mathematically interesting
failure (an inequality violation, an unverified trace, an engine mismatch,
or a classification breach); 2 = input or usage error.  Every verb reads
`-` as standard input, and all output records are single-line canonical
JSON so pipelines compose.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import tutte as tutte_mod
from .errors import ClassificationFailureError, InputError, SplitMWError, check_size
from .flats import cyclic_flats, is_split
from .matroid import (
    Matroid,
    graphic,
    matroid_from_dict,
    minimal,
    rank2_from_partition,
    uniform,
)

# Each verb imports only what it runs: `merino_welsh`, `prooftrace` and
# `graphs` load on first use, here and in the handlers below.


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


def _byte_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a byte count of at least 0, got {text!r}")
    return value


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
    if args.engine == "subset":
        t = tutte_mod.tutte_subset_sum(m)
    elif args.engine == "dc":
        t = tutte_mod.tutte_dc(m)
    else:
        t = tutte_mod.tutte_dc(m)
        reference = tutte_mod.tutte_subset_sum(m)
        if t != reference:
            print("engine mismatch: deletion-contraction and subset-sum "
                  "disagree", file=sys.stderr)
            return 1
    print(_dumps(t.to_dict()))
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
    from .graphs import (
        count_acyclic_orientations,
        count_spanning_trees,
        count_totally_cyclic_orientations,
    )

    g = _load_multigraph(args.input)
    record = {
        "format": "orientation-oracle-v1",
        "spanning_trees": count_spanning_trees(g),
        "acyclic_orientations": count_acyclic_orientations(g),
        "totally_cyclic_orientations": count_totally_cyclic_orientations(g),
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitmw",
        description="Exact matroid toolkit: Tutte polynomials, cyclic flats, "
                    "split recognition, Merino-Welsh certification.")
    parser.add_argument("--memo-cap", type=_byte_count, metavar="BYTES", default=None,
                        help="capacity of the Tutte memo table in bytes")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("construct", help="build a matroid and emit matroid-bases-v1")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--uniform", metavar="K,N")
    grp.add_argument("--minimal", metavar="K,N")
    grp.add_argument("--graphic", metavar="FILE")
    grp.add_argument("--rank2", metavar="A1,A2,...")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("tutte", help="Tutte polynomial of a matroid (tutte-v1)")
    p.add_argument("input")
    p.add_argument("--engine", choices=("subset", "dc", "both"), default="dc")
    p.set_defaults(func=_cmd_tutte)

    p = sub.add_parser("check-mw", help="Merino-Welsh inequalities (mw-v1)")
    p.add_argument("input")
    p.set_defaults(func=_cmd_check_mw)

    p = sub.add_parser("cyclic-flats", help="cyclic flats and classification "
                                            "(cyclic-flats-v1)")
    p.add_argument("input")
    p.set_defaults(func=_cmd_cyclic_flats)

    p = sub.add_parser("is-split", help="print whether the matroid is split")
    p.add_argument("input")
    p.set_defaults(func=_cmd_is_split)

    p = sub.add_parser("enumerate-rank2",
                       help="stream the exhaustive rank-2 verification")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.set_defaults(func=_cmd_enumerate_rank2)

    p = sub.add_parser("trace", help="certificate tree for a split matroid "
                                     "(trace-v1)")
    p.add_argument("input")
    p.add_argument("--dot", action="store_true",
                   help="emit a DOT graph instead of JSON")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("oracle", help="brute-force spanning tree and "
                                      "orientation counts for a multigraph")
    p.add_argument("input")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--criteria", metavar="N,N,...",
                   help="run only the listed criteria")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.memo_cap is not None:
        tutte_mod.set_memo_capacity(args.memo_cap)
    try:
        return args.func(args)
    except ClassificationFailureError as exc:
        print(f"classification failure: {exc}", file=sys.stderr)
        return 1
    except (SplitMWError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
