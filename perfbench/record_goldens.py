"""Record `goldens.json`: the sha256 of every job output that is the same
for every seed, as the current source tree produces it.

    python3 perfbench/record_goldens.py

Each workload is built and run once for two seeds; a key whose digest
differs between them is an error, since a golden must hold for any seed.
Re-record only when an output is meant to change, and say so in the change.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2)


def main() -> int:
    digests: dict[str, str] = {}
    workdir = run.WORK / "record-goldens"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, builder in workloads.BUILDERS.items():
            per_seed = []
            for seed in SEEDS:
                goldens = workloads.Goldens(record=True)
                outcome = run.Outcome()
                outcome.run_pass(builder(seed, workdir, goldens))
                if outcome.failures:
                    print("\n".join(outcome.failures), file=sys.stderr)
                    return 1
                per_seed.append(goldens.digests)
            moved = [k for k in per_seed[0] if per_seed[0][k] != per_seed[1].get(k)]
            if moved:
                print(f"{name}: seed-dependent outputs: {moved}", file=sys.stderr)
                return 1
            digests.update(per_seed[0])
            print(f"{name}: {len(per_seed[0])} goldens")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
