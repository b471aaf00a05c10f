"""The fringelab benchmark: one command, three workloads.

    python3 bench/run.py --workload {fringe-design,experiment,large-n} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The package is imported from ``src/``,
with nothing to build or install. Workload processes run one at a
time, each single-threaded (see ``workload.py``):

- ``--trace 0``: six set-up-only processes, then one process that runs
  the workload for ``--seconds``. Prints the end-to-end metrics
  ``setup_s`` (median of the seven set-ups), ``wall_s`` (mean time of
  one round, the workload's fixed list of jobs), ``job_p50_ms`` (mean
  over rounds of each round's median job latency) and ``peak_rss_mb``.
- ``--trace 1``: one untraced and one traced process, each for
  ``--seconds``. Prints the per-layer metrics of the traced process,
  per job, and ``trace.overhead_s``, the traced minus the untraced
  ``wall_s``.

Lines before the last describe the run. The last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit status is 0 when that line was printed, and 1
when a workload process failed, in which case no result is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fringe-design", "experiment", "large-n")
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 150.0

#: name -> unit of every per-layer metric, in the order printed.
LAYER_UNITS = {
    "fringes.self_ms": "ms",
    "fringes.calls": "count",
    "fringes.phase_evals": "count",
    "fringes.phases_per_call": "phases/call",
    "fringes.fit_ms": "ms",
    "fisher.self_ms": "ms",
    "fisher.calls": "count",
    "fisher.peak_ms": "ms",
    "fisher.peak_evals": "count",
    "fock.self_ms": "ms",
    "fock.splitter_builds": "count",
    "fock.splitter_build_ms": "ms",
    "states.self_ms": "ms",
    "states.calls": "count",
    "detection.self_ms": "ms",
    "detection.calls": "count",
    "estimation.self_ms": "ms",
    "estimation.calls": "count",
    "estimation.simulate_ms": "ms",
    "estimation.direct_ms": "ms",
    "estimation.mle_ms": "ms",
    "cli.self_ms": "ms",
    "cli.calls": "count",
    "cli.bytes_out": "bytes",
    "cli.bytes_in": "bytes",
    "trace.overhead_s": "s",
}


class WorkloadFailed(RuntimeError):
    """A workload process exited with an error or printed no result."""


def run_workload(args, *extra: str) -> dict:
    """Run one workload process to its end and decode its result line."""
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *extra,
    ]
    if args.toy:
        cmd.append("--toy")
    env = dict(os.environ)
    env["BENCH_T0"] = repr(time.monotonic())
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkloadFailed(f"{' '.join(cmd[1:])} ran over {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkloadFailed(f"{' '.join(cmd[1:])} exited {proc.returncode}")
    return json.loads(lines[-1])


def _report_problems(result: dict) -> None:
    for line in result["problems"]:
        print(f"check failed: {line}", file=sys.stderr)


def end_to_end(args) -> tuple[dict, dict]:
    setups = [run_workload(args, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    main = run_workload(args)
    setups.append(main["setup_s"])
    rounds, jobs, size = main["round_s"], main["job_ms"], main["jobs_per_round"]
    round_p50 = [statistics.median(jobs[i:i + size]) for i in range(0, len(jobs), size)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.fmean(rounds), "s"),
        "job_p50_ms": (statistics.fmean(round_p50), "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"mean of {len(rounds)} rounds of {size} jobs",
        "job_p50_ms": f"mean over {len(rounds)} rounds of each round's median of {size} jobs",
        "peak_rss_mb": "peak resident set of the workload process",
    }
    _report_problems(main)
    return main, {name: (value, unit, notes[name]) for name, (value, unit) in metrics.items()}


def per_layer(args) -> tuple[dict, dict]:
    plain = run_workload(args)
    traced = run_workload(args, "--trace")
    _report_problems(plain)
    _report_problems(traced)
    layers = dict(traced["layers"])
    calls = layers["fringes.calls"]
    layers["fringes.phases_per_call"] = layers["fringes.phase_evals"] / calls if calls else 0.0
    layers["trace.overhead_s"] = (
        statistics.fmean(traced["round_s"]) - statistics.fmean(plain["round_s"])
    )
    note = f"per job, over {traced['attempted']} traced jobs ({traced['spans']} spans)"
    metrics = {name: (layers[name], unit, note) for name, unit in LAYER_UNITS.items()}
    metrics["trace.overhead_s"] = (
        layers["trace.overhead_s"], "s", "traced minus untraced mean round time"
    )
    both = {key: plain[key] + traced[key] for key in ("attempted", "failed", "host_loop_ms")}
    return both, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fringelab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "fringelab" / "__init__.py").is_file():
        print(f"run.py: no fringelab package under {ROOT / 'src'}", file=sys.stderr)
        return 1

    try:
        run, metrics = per_layer(args) if args.trace else end_to_end(args)
    except WorkloadFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{run['attempted']} jobs attempted, {run['failed']} failed"
    )
    for name, (value, unit, note) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}  ({note})")
    host = run["host_loop_ms"]
    print(
        f"  host loop = {statistics.median(host):.4g} ms, median of {len(host)} "
        f"readings (range {min(host):.4g}-{max(host):.4g}; a reading of host speed, not a metric)"
    )
    correct = run["attempted"] > 0 and all(math.isfinite(v) for v, _, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
