#!/usr/bin/env python3
"""slimfork benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload campaign-S --seed 1 --seconds 20 --trace 0

Set-up (importing slimfork from ./src, writing inputs and temp dirs) is
repeated SETUP_REPEATS times and reported as its median. With
``--trace 0`` the workload then runs pass after pass, as long as the next
pass is expected to end within ``--seconds``, and each end-to-end metric
is the median over passes. With ``--trace 1`` one untraced pass is
followed by one traced pass, which gives the per-layer metrics. Times
are reported in reference seconds (see speed.py); the raw clocks are in
the run context.

The last stdout line is the result object; the line before it holds the
run context (revision, interpreter, CPUs, load, per-pass figures). Exit
status is 2, with no result, when ./src/slimfork is missing.
Everything runs in this one thread; temp files live in a directory
under the repo root that is removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import speed
import tracer as tracing
from workloads import WORKLOADS, Tally

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9

# Counts the traced pass gave at the commit that introduced this
# benchmark. A mismatch is reported in the run context, not as a failure:
# later engine changes are meant to move closures and congruence counts.
TRACE_COUNTS_AT_BASELINE = {
    "campaign-S": {
        "campaign.candidates": 1737,
        "construct.insert_fork.calls": 1728,
        "campaign.classes": 842,
        "congruence.principal_congruence.calls": 37032,
        "congruence.con_members_total": 61805,
        "congruence.lattice_isomorphic.calls": 0,
    },
    "enum-M": {
        "campaign.candidates": 15163,
        "campaign.classes": 6235,
    },
    "search-batch": {
        "campaign.enumerate_family.calls": 5,
    },
}


def import_slimfork():
    """A fresh import of slimfork and its CLI from ./src."""
    for name in [m for m in sys.modules if m == "slimfork" or m.startswith("slimfork.")]:
        del sys.modules[name]
    lib = importlib.import_module("slimfork")
    importlib.import_module("slimfork.cli")
    if Path(lib.__file__).resolve().parent != SRC / "slimfork":
        raise ImportError(f"slimfork was imported from {lib.__file__}, not from {SRC}")
    return lib


def git_revision():
    """HEAD of the enclosing git checkout, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "slimfork").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


@dataclass
class Pass:
    """One workload pass: its tally, raw clocks and host-speed probe."""

    tally: Tally
    wall_s: float
    cpu_s: float
    probe: speed.Probe

    @property
    def ref_wall_s(self) -> float:
        return (self.wall_s - self.probe.wall_s) * self.probe.factor

    @property
    def ref_cpu_s(self) -> float:
        return (self.cpu_s - self.probe.cpu_s) * self.probe.factor


def timed_pass(workload, lib, state, index) -> Pass:
    gc.collect()
    with speed.Probe() as probe:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        tally = workload.run_pass(lib, state, index)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return Pass(tally, wall, cpu, probe)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args, tmp: Path) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]
    setups = []
    for i in range(SETUP_REPEATS):
        factor = speed.factor_now()
        start = time.perf_counter()
        lib = import_slimfork()
        state = workload.setup(lib, tmp / f"setup-{i}", args.seed)
        setups.append((time.perf_counter() - start, factor))

    passes: list[Pass] = []
    layers = None
    if args.trace:
        passes.append(timed_pass(workload, lib, state, 0))
        tracer = tracing.Tracer()
        with tracing.installed(tracer, lib):
            passes.append(timed_pass(workload, lib, state, 1))
        untraced, traced = passes
        layers = tracing.layer_metrics(
            tracer, traced.wall_s, traced.probe.factor, untraced.ref_wall_s, traced.ref_wall_s)
    else:
        start = time.perf_counter()
        while True:
            passes.append(timed_pass(workload, lib, state, len(passes)))
            if time.perf_counter() - start + passes[-1].wall_s > args.seconds:
                break

    attempted = sum(p.tally.attempted for p in passes)
    failed = sum(p.tally.failed for p in passes)
    for p in passes:
        for problem in p.tally.problems:
            print(f"mismatch: {problem}", file=sys.stderr)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "setup_raw_s": [t for t, _ in setups],
        "setup_speed_factor": [f for _, f in setups],
        "pass_raw_wall_s": [p.wall_s for p in passes],
        "pass_raw_cpu_s": [p.cpu_s for p in passes],
        "pass_probe_s": [p.probe.wall_s for p in passes],
        "pass_speed_factor": [p.probe.factor for p in passes],
        "pass_ref_wall_s": [p.ref_wall_s for p in passes],
    }
    if layers is not None:
        expected = TRACE_COUNTS_AT_BASELINE[args.workload]
        context["trace_counts_match_baseline"] = {
            name: layers[name][0] == want for name, want in expected.items()}
        self_total = sum(v for name, (v, _) in layers.items()
                         if name.endswith(".self_s") or name == "trace.unattributed_s")
        context["trace_sum_residual_s"] = self_total - layers["trace.wall_s"][0]
        metrics = {name: metric(v, unit) for name, (v, unit) in layers.items()}
    else:
        metrics = {
            "wall_s": metric(statistics.median(p.ref_wall_s for p in passes), "s"),
            "cpu_s": metric(statistics.median(p.ref_cpu_s for p in passes), "s"),
            "classes_per_s": metric(
                statistics.median(p.tally.classes / p.ref_wall_s for p in passes), "1/s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": metric(statistics.median(t * f for t, f in setups), "s"),
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return context, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "slimfork" / "__init__.py").is_file():
        print(f"error: no slimfork sources at {SRC / 'slimfork'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        context, result = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
