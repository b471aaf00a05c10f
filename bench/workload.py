"""One workload process of the fringelab benchmark.

    python3 bench/workload.py --workload NAME --seed N --seconds S [--trace] [--setup-only] [--toy]

Runs the named workload as a closed loop with one client: whole rounds
of a fixed list of jobs, one job after another, until the rounds have
taken ``--seconds``. After each round, outside the timed section, it
checks every job's output and times a fixed pure-Python loop as a
reading of the host's speed. The last line of standard output is one
JSON object with the raw timings, which ``run.py`` turns into metrics.

The BLAS thread pool is set to one thread before numpy is imported:
OpenBLAS's default threading stalls small complex mat-vecs now and then
for milliseconds, which would swamp the per-phase kernel. The process
imports only the standard library, numpy and the fringelab module its
workload drives, so that the cost of importing anything else (scipy,
say) shows in ``setup_s`` only where the program itself pays it.
"""

from __future__ import annotations

import os
import sys
import time

START = float(os.environ.get("BENCH_T0", time.monotonic()))

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FRINGELAB_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402

#: Directory, relative to the checkout root, where traced runs write spans.
SPAN_DIR = ".bench_out"


def _run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI command in-process with stdout and stderr kept in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _exit_problems(runs: dict) -> list[str]:
    return [
        f"{key}: exit {code}: {err.strip()}"
        for key, (code, _, err) in runs.items()
        if code != 0
    ]


def _grid_flags(grid: tuple[float, float, float]) -> list[str]:
    start, end, step = grid
    return ["--phi-start", f"{start:g}", "--phi-end", f"{end:g}", "--phi-step", f"{step:g}"]


class FringeDesign:
    """The paper's N = 6 analysis session, one per job, through `cli.main`.

    All jobs run the same six commands. The analysis has no random
    input, so the seed does not reach it.
    """

    def __init__(self, seed: int, toy: bool, workdir: Path) -> None:
        import fringelab.cli

        self.cli = fringelab.cli
        self.jobs_per_round = 2 if toy else 8
        self.fringe_grid = (0.0, 180.0, 15.0 if toy else 0.5)
        self.fisher_grid = (0.0, 30.0, 3.0 if toy else 0.1)
        self.n_max = 10 if toy else 100
        hb = ["--state", "hb", "--n", "6", "--outcome", "3:3"]
        fisher = ["fisher", "--mode", "single", *hb, *_grid_flags(self.fisher_grid)]
        self.session = {
            "fringe": ["fringe", *hb, *_grid_flags(self.fringe_grid)],
            "single": fisher,
            "affine": [*fisher, "--model", "affine", "--visibility", "0.94", "--band"],
            "full": ["fisher", "--mode", "full", "--state", "hb", "--n", "6",
                     *_grid_flags(self.fisher_grid)],
            "noon": ["fisher", "--mode", "single", "--state", "noon", "--n", "6",
                     "--outcome", "3:3", *_grid_flags(self.fisher_grid)],
            "scaling": ["scaling", "--n-max", str(self.n_max), "--asymptotic"],
        }

    def jobs(self) -> list[int]:
        return list(range(self.jobs_per_round))

    def new_round(self) -> None:
        pass

    def run(self, job: int) -> dict:
        return {key: _run_cli(self.cli, argv) for key, argv in self.session.items()}

    def check(self, job: int, runs: dict) -> list[str]:
        problems = _exit_problems(runs)
        if problems:
            return problems
        out = {key: stdout for key, (_, stdout, _) in runs.items()}
        ideal = 24.0  # 2 n1 n2 + N for the 3:3 outcome
        exact = (ideal * (1 - checks.TABLE_RTOL), ideal * (1 + checks.TABLE_RTOL))
        noon = checks.noon_peak(6)
        return [
            *checks.check_fringe(out["fringe"], *self.fringe_grid),
            *checks.check_fisher_peak("single", out["single"], 6, ideal, exact),
            *checks.check_fisher_peak(
                "affine", out["affine"], 6, ideal, (19.0, 22.0),
                peak_phi_deg=(12.0, 18.0), min_snl_ratio=3.0,
            ),
            *checks.check_band(out["affine"]),
            *checks.check_full_fisher(out["full"], 6),
            *checks.check_fisher_peak(
                "noon", out["noon"], 6, noon,
                (noon * (1 - checks.TABLE_RTOL), noon * (1 + checks.TABLE_RTOL)),
            ),
            *checks.check_scaling(out["scaling"], self.n_max),
        ]

    def io_bytes(self, job: int, runs: dict) -> tuple[int, int]:
        """Bytes the CLI wrote (stdout and stderr) and read (no files)."""
        return sum(len(o.encode()) + len(e.encode()) for _, o, e in runs.values()), 0


class Experiment:
    """Seeded plans through `simulate` and `estimate`, files on disk.

    Job j of a run with seed s uses plan seeds 1000 s + 10 j + 1, 2, 3
    for its scan, detector and single-phase plans. Rounds repeat the
    same jobs, so every round does identical work.
    """

    SHOTS = 100_000
    PLANTED_DEG = 15.0
    DETECTORS = {"k": 5, "eta": 0.9}

    def __init__(self, seed: int, toy: bool, workdir: Path) -> None:
        import fringelab.cli

        self.cli = fringelab.cli
        self.seed = seed
        self.workdir = workdir
        self.jobs_per_round = 2 if toy else 8
        self.shots = 1_000 if toy else self.SHOTS
        self.scan_deg = [3.0 * i for i in range(11)]  # the plan default, 0..30 by 3

    def _plans(self, job: int) -> dict[str, dict]:
        base = 1000 * self.seed + 10 * job
        scan = {"state": "hb", "n": 6, "phi_start": 0, "phi_end": 30, "phi_step": 3,
                "shots": self.shots, "seed": base + 1}
        return {
            "scan": scan,
            "detectors": {**scan, "seed": base + 2, "detectors": self.DETECTORS},
            "single": {"state": "hb", "n": 6, "phases_deg": [self.PLANTED_DEG],
                       "shots": self.shots, "seed": base + 3},
        }

    def jobs(self) -> list[int]:
        return list(range(self.jobs_per_round))

    def new_round(self) -> None:
        pass

    def _path(self, job: int, name: str) -> str:
        return str(self.workdir / f"job{job}-{name}")

    def run(self, job: int) -> dict:
        runs = {}
        for name, plan in self._plans(job).items():
            plan_path = self._path(job, f"{name}.plan.json")
            with open(plan_path, "w", encoding="utf-8") as handle:
                json.dump(plan, handle)
            for fmt in ("csv", "json"):
                runs[f"simulate-{name}-{fmt}"] = _run_cli(self.cli, [
                    "simulate", "--plan", plan_path, "--format", fmt,
                    "--out", self._path(job, f"{name}.counts.{fmt}"),
                ])
        estimate = ["estimate", "--outcome", "3:3"]
        runs["fit"] = _run_cli(self.cli, [
            *estimate, "--counts", self._path(job, "scan.counts.csv"), "--method", "fit"])
        runs["direct"] = _run_cli(self.cli, [
            *estimate, "--counts", self._path(job, "scan.counts.json"),
            "--method", "direct", "--window", "9:30"])
        runs["mle"] = _run_cli(self.cli, [
            *estimate, "--counts", self._path(job, "single.counts.csv"),
            "--method", "mle", "--interval", "0:30"])
        runs["mle-full"] = _run_cli(self.cli, [
            *estimate, "--counts", self._path(job, "single.counts.json"),
            "--method", "mle", "--model", "full", "--interval", "0:30"])
        return runs

    def _read(self, job: int, name: str) -> str:
        with open(self._path(job, name), encoding="utf-8") as handle:
            return handle.read()

    def check(self, job: int, runs: dict) -> list[str]:
        problems = _exit_problems(runs)
        if problems:
            return problems
        counts = {
            name: (
                checks.parse_counts_csv(self._read(job, f"{name}.counts.csv")),
                checks.parse_counts_json(self._read(job, f"{name}.counts.json")),
            )
            for name in ("scan", "detectors", "single")
        }
        report = {key: json.loads(runs[key][1]) for key in ("fit", "direct", "mle", "mle-full")}
        return [
            *checks.check_counts_pair("scan", *counts["scan"], self.scan_deg, self.shots, True),
            *checks.check_counts_pair(
                "detectors", *counts["detectors"], self.scan_deg, self.shots, False),
            *checks.check_detector_counts(
                counts["detectors"][0], self.shots, self.DETECTORS["k"], self.DETECTORS["eta"]),
            *checks.check_counts_pair(
                "single", *counts["single"], [self.PLANTED_DEG], self.shots, True),
            *checks.check_fit(report["fit"]),
            *checks.check_direct(report["direct"], 24.0),
            *checks.check_mle("mle", report["mle"], self.PLANTED_DEG),
            *checks.check_mle("mle-full", report["mle-full"], self.PLANTED_DEG),
        ]

    def io_bytes(self, job: int, runs: dict) -> tuple[int, int]:
        """Bytes the CLI wrote (counts files, reports, messages) and read
        (plan files once per simulate, counts files once per estimate)."""
        size = lambda name: os.path.getsize(self._path(job, name))  # noqa: E731
        files_out = sum(size(f"{p}.counts.{f}") for p in ("scan", "detectors", "single")
                        for f in ("csv", "json"))
        streams = sum(len(o.encode()) + len(e.encode()) for _, o, e in runs.values())
        plans_in = 2 * sum(size(f"{p}.plan.json") for p in ("scan", "detectors", "single"))
        counts_in = sum(size(name) for name in (
            "scan.counts.csv", "scan.counts.json", "single.counts.csv", "single.counts.json"))
        return files_out + streams, plans_in + counts_in


class LargeN:
    """Library calls at large N, one N per job, with a cold splitter.

    The round's list of distinct even N is fixed. The seed draws the
    four phases at which each job evaluates full_fisher, uniformly in
    [0.05, 1.5] rad, away from the exact extrema 0 and pi/2.
    """

    NS = (64, 96, 128, 160, 192, 224, 256)
    TOY_NS = (8, 12, 16)
    FULL_PHASES = 4
    PROFILE_POINTS = 64

    def __init__(self, seed: int, toy: bool, workdir: Path) -> None:
        import fringelab.fisher
        import fringelab.fock
        import fringelab.states

        self.fisher = fringelab.fisher
        self.fock = fringelab.fock
        self.states = fringelab.states
        rng = np.random.default_rng(seed)
        self.ns = self.TOY_NS if toy else self.NS
        self.phases = {n: rng.uniform(0.05, 1.5, self.FULL_PHASES).tolist() for n in self.ns}

    def jobs(self) -> list[int]:
        return list(self.ns)

    def new_round(self) -> None:
        """Empty the splitter cache, so that every job builds its splitter cold."""
        clear = getattr(self.fock.beam_splitter_matrix, "cache_clear", None)
        if clear is not None:
            clear()

    def run(self, n: int) -> dict:
        fisher = self.fisher
        state = self.states.hb_state(n)
        full = [fisher.full_fisher(state, phi) for phi in self.phases[n]]
        outcome = self.fock.OutcomePattern(n // 2, n // 2)
        hi = 4.0 / n  # the bright peak at phi = 0 is about 1/N wide

        def fringe_fisher(phi: float) -> float:
            return fisher.single_fringe_fisher(state, outcome, phi)

        grid = np.linspace(0.0, hi, self.PROFILE_POINTS + 1)
        profile = [fringe_fisher(phi) for phi in grid]
        _, peak = fisher.find_peak(fringe_fisher, 0.0, hi, hi / self.PROFILE_POINTS)
        return {"full": full, "profile": profile, "peak": peak}

    def check(self, n: int, result: dict) -> list[str]:
        matrix = self.fock.beam_splitter_matrix(n)
        return [
            *checks.check_splitter(np.asarray(matrix)),
            *checks.check_large_n(n, result["full"], result["profile"], result["peak"]),
        ]

    def io_bytes(self, n: int, result: dict) -> tuple[int, int]:
        return 0, 0


WORKLOADS = {"fringe-design": FringeDesign, "experiment": Experiment, "large-n": LargeN}


def host_loop_ms() -> float:
    """Time of a fixed pure-Python loop: a reading of the host's speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return (time.perf_counter() - start) * 1e3


def _splitter_misses(fock) -> int:
    info = getattr(fock.beam_splitter_matrix, "cache_info", None) if fock else None
    return info().misses if info is not None else 0


def measure(args, workdir: Path) -> dict:
    workload = WORKLOADS[args.workload](args.seed, args.toy, workdir)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    jobs = workload.jobs()
    workload.run(jobs[0])  # warm-up: code paths, lazy imports, caches
    setup_s = time.monotonic() - START
    if args.setup_only:
        return {"setup_s": setup_s}

    fock = sys.modules.get("fringelab.fock")
    job_ms: list[float] = []
    round_s: list[float] = []
    host_ms: list[float] = []
    attempted = failed = bytes_out = bytes_in = builds = 0
    problems: list[str] = []
    peak_rss_kb = 0
    # The host's CPUs change speed independently of each other, by up to
    # 40 % for seconds to minutes at a time. Rounds take turns on them, and
    # a run ends on a whole turn, so each CPU does the same share of rounds.
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    while not round_s or sum(round_s) < args.seconds or len(round_s) % max(len(cpus), 1):
        if cpus:
            os.sched_setaffinity(0, {cpus[len(round_s) % len(cpus)]})
        workload.new_round()
        results = []
        misses = _splitter_misses(fock)
        if tracer is not None:
            tracer.recording = True
        round_start = time.perf_counter()
        for job in jobs:
            start = time.perf_counter()
            try:
                result, error = workload.run(job), None
            except Exception:  # a failed job is counted, and the run goes on
                result, error = None, traceback.format_exc()
            job_ms.append((time.perf_counter() - start) * 1e3)
            results.append((job, result, error))
        round_s.append(time.perf_counter() - round_start)
        if tracer is not None:
            tracer.recording = False
        builds += _splitter_misses(fock) - misses
        peak_rss_kb = max(peak_rss_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

        for job, result, error in results:
            attempted += 1
            found = [error] if error else workload.check(job, result)
            if found:
                failed += 1
                problems.extend(f"job {job}: {p}" for p in found)
            else:
                out_b, in_b = workload.io_bytes(job, result)
                bytes_out += out_b
                bytes_in += in_b
        host_ms.append(host_loop_ms())

    report = {
        "setup_s": setup_s,
        "job_ms": job_ms,
        "round_s": round_s,
        "jobs_per_round": len(jobs),
        "host_loop_ms": host_ms,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
    }
    if tracer is not None:
        layers = tracing.layer_totals(tracer)
        layers["fock.splitter_builds"] = float(builds)
        layers["cli.bytes_out"] = float(bytes_out)
        layers["cli.bytes_in"] = float(bytes_in)
        report["layers"] = {key: value / attempted for key, value in layers.items()}
        report["spans"] = len(tracer)
        span_dir = ROOT / SPAN_DIR
        span_dir.mkdir(exist_ok=True)
        tracer.dump(span_dir / f"spans-{args.workload}.csv.gz")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true", help="wrap public functions in spans")
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    parser.add_argument("--toy", action="store_true", help="toy input sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        report = measure(args, Path(tmp))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
