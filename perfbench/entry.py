"""Run the splitmw CLI from the source tree, as the `splitmw` console script
would, optionally recording spans.

    python3 perfbench/entry.py VERB ARGS...
    python3 perfbench/entry.py --spans OUT.json VERB ARGS...

With `--spans`, the tracing wrappers are installed before `cli.main` runs,
and the spans and counters (plus `tutte.memo_entries`, the size of the
process-wide memo at exit) are written to OUT.json.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    if argv[:1] != ["--spans"]:
        from splitmw.cli import main as cli_main
        return cli_main(argv)
    out, argv = argv[1], argv[2:]
    import tracing
    from splitmw import cli, tutte
    recorder = tracing.Recorder()
    recorder.install()
    try:
        return recorder.call("cli.main", cli.main, argv)
    finally:
        recorder.uninstall()
        recorder.counters["tutte.memo_entries"] += len(tutte._global_memo)
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
