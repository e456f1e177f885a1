"""Spans around the calls into each splitmw module, recorded from outside.

`Recorder.install` replaces each traced function on every name where the
program looks it up (module globals bound by `from x import y`, and
`Matroid` methods) with a wrapper that records one span per call:
(job, name, start, end, parent).  Spans stay in memory until the benchmark
writes them out; `uninstall` restores the originals.  Nothing under `src/`
changes.

A layer's self time is the sum of its spans' durations minus the time their
direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

# (module, attribute, span name), one row per place the program looks the
# function up.  `splitmw.flats` is imported with importlib because the
# package attribute of that name is the function `flats`, not the module.
FUNCTIONS = [
    ("splitmw.cli", "_load_matroid", "cli.parse"),
    ("splitmw.cli", "_read_json", "cli.parse"),
    ("splitmw.cli", "_dumps", "cli.serialize"),
    ("splitmw.cli", "check_mw", "merino_welsh.check_mw"),
    ("splitmw.cli", "cyclic_flats", "flats.cyclic_flats"),
    ("splitmw.cli", "is_split", "flats.is_split"),
    ("splitmw.cli", "trace", "prooftrace.trace"),
    ("splitmw.tutte", "tutte_dc", "tutte.dc"),
    ("splitmw.tutte", "tutte_subset_sum", "tutte.subset"),
    ("splitmw.merino_welsh", "tutte_dc", "tutte.dc"),
    ("splitmw.merino_welsh", "tutte_subset_sum", "tutte.subset"),
    ("splitmw.flats", "is_split", "flats.is_split"),
    ("splitmw.prooftrace", "check_mw", "merino_welsh.check_mw"),
    ("splitmw.prooftrace", "is_split", "flats.is_split"),
    ("splitmw.prooftrace", "recognize_minimal", "isomorphism.recognize_minimal"),
    ("splitmw.prooftrace", "matroid_digest", "prooftrace.digest"),
    ("splitmw.prooftrace", "trace", "prooftrace.trace"),
]

# (module, class, method, span name)
METHODS = [
    ("splitmw.matroid", "Matroid", "check_exchange", "matroid.check_exchange"),
    ("splitmw.matroid", "Matroid", "rank_table", "matroid.rank_table"),
    ("splitmw.matroid", "Matroid", "components", "matroid.components"),
    ("splitmw.matroid", "Matroid", "delete", "matroid.minor"),
    ("splitmw.matroid", "Matroid", "contract", "matroid.minor"),
    ("splitmw.matroid", "Matroid", "restrict", "matroid.minor"),
    ("splitmw.graphs", "Multigraph", "max_spanning_forests", "graphs.forests"),
    ("splitmw.prooftrace", "ProofTrace", "to_dict", "cli.serialize"),
]

RULES = ("direct-sum-split", "delete-contract", "base-rank-1", "base-corank-1",
         "base-rank-2", "base-corank-2", "base-minimal")

# per-layer metric -> (span names, what to sum over them)
SPAN_METRICS = {
    "cli.parse_s": (("cli.parse",), "self"),
    "cli.serialize_s": (("cli.serialize",), "self"),
    "matroid.validate_s": (("matroid.check_exchange",), "self"),
    "matroid.validate_calls": (("matroid.check_exchange",), "calls"),
    "matroid.rank_table_s": (("matroid.rank_table",), "self"),
    "matroid.components_s": (("matroid.components",), "self"),
    "matroid.components_calls": (("matroid.components",), "calls"),
    "matroid.minors_s": (("matroid.minor",), "self"),
    "matroid.minors_calls": (("matroid.minor",), "calls"),
    "tutte.dc_s": (("tutte.dc",), "self"),
    "tutte.dc_calls": (("tutte.dc",), "calls"),
    "tutte.subset_s": (("tutte.subset",), "self"),
    "tutte.subset_calls": (("tutte.subset",), "calls"),
    "merino_welsh.check_s": (("merino_welsh.check_mw",), "self"),
    "merino_welsh.check_calls": (("merino_welsh.check_mw",), "calls"),
    "flats.is_split_s": (("flats.is_split",), "self"),
    "flats.cyclic_flats_s": (("flats.cyclic_flats",), "self"),
    "isomorphism.recognize_minimal_s": (("isomorphism.recognize_minimal",), "self"),
    "isomorphism.recognize_minimal_calls": (("isomorphism.recognize_minimal",), "calls"),
    "prooftrace.self_s": (("prooftrace.trace",), "self"),
    "prooftrace.digest_s": (("prooftrace.digest",), "self"),
}

# cli.overhead_s is kept as a counter: each CLI subprocess adds its wall
# time minus its cli.main span, which is start-up, import and exit
COUNTER_METRICS = (["cli.overhead_s", "matroid.bases_validated",
                    "tutte.memo_entries", "prooftrace.nodes"]
                   + [f"prooftrace.nodes.{rule}" for rule in RULES])

UNITS = {name: "s" if name.endswith("_s") else "count"
         for name in [*SPAN_METRICS, *COUNTER_METRICS, "graphs.forests_s"]}
UNITS["bench.trace_overhead_frac"] = "frac"


def _count_validated(counters, args, result):
    counters["matroid.bases_validated"] += len(args[0].bases)


def _count_nodes(counters, args, result):
    for node in result.walk():
        counters["prooftrace.nodes"] += 1
        counters[f"prooftrace.nodes.{node.rule}"] += 1


# span name -> hook run on the outermost completed call, for counts taken
# where the work happens
AFTER = {"matroid.check_exchange": _count_validated,
         "prooftrace.trace": _count_nodes}


class Recorder:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans: list[list] = []     # [job, name, start, end, parent]
        self.counters: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._saved: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = [self.job, name, 0.0, 0.0, parent]
        self.spans.append(span)
        self._stack.append(index)
        self._open[name] += 1
        span[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1
        hook = AFTER.get(name)
        if hook is not None and not self._open[name]:
            hook(self.counters, args, result)
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        for module, attr, name in FUNCTIONS:
            owner = importlib.import_module(module)
            self._replace(owner, attr, name)
        for module, cls, attr, name in METHODS:
            owner = getattr(importlib.import_module(module), cls)
            self._replace(owner, attr, name)

    def _replace(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters = [], Counter()
        return spans, counters

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def merge(recorder: Recorder, child: dict, wall: float) -> None:
    """Add what a traced CLI subprocess wrote (see entry.py) to `recorder`:
    its spans, tagged with the current job and re-pointed past the spans
    already held, its counters, and its start-up overhead."""
    offset = len(recorder.spans)
    for _, name, start, end, parent in child["spans"]:
        recorder.spans.append([recorder.job, name, start, end,
                               parent + offset if parent >= 0 else -1])
        if name == "cli.main":
            recorder.counters["cli.overhead_s"] += wall - (end - start)
    recorder.counters.update(child["counters"])


def self_times(spans: list[list], key=lambda span: span[1]) -> tuple[Counter, Counter]:
    """Per span name (or other `key`): total self time (seconds) and call
    count."""
    covered = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    own, calls = Counter(), Counter()
    for i, span in enumerate(spans):
        own[key(span)] += span[3] - span[2] - covered[i]
        calls[key(span)] += 1
    return own, calls


def layer_metrics(spans: list[list], counters: Counter) -> dict[str, float]:
    """Every span and counter metric, 0 for layers a workload never calls."""
    own, calls = self_times(spans)
    out = {}
    for metric, (names, kind) in SPAN_METRICS.items():
        source = own if kind == "self" else calls
        out[metric] = sum(source[n] for n in names)
    for metric in COUNTER_METRICS:
        out[metric] = counters[metric]
    return out
