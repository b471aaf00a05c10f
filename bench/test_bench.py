"""Self-test of the benchmark at toy sizes.

    python3 -m pytest -q bench/test_bench.py

It runs the command end to end on every workload and checks the shape
of what it prints against BENCHMARK.json, and it feeds every output
check one deliberately wrong value to confirm the check reports it.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """Run the benchmark command, with this interpreter as its python3."""
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_test_", dir=ROOT) as tmp:
        yield Path(tmp)


# ---------------------------------------------------------------------------
# the command's output


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_result_line_shape(name, trace):
    proc = _run("--workload", name, "--seed", "7",
                "--seconds", "1", "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0, proc.stderr
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"} and math.isfinite(metric["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program():
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_bare_", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("--workload", SPEC["workloads"][0]["name"],
                    "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert "no fringelab package" in proc.stderr
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------------
# each check reports one wrong value


def _replace_cell(text: str, row: int, col: int, value: str) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _replace_meta(text: str, key: str, value: str) -> str:
    return "\n".join(
        f"# {key}={value}" if line.startswith(f"# {key}=") else line
        for line in text.splitlines()
    ) + "\n"


@pytest.fixture(scope="module")
def fringe_design(workdir):
    bench = workload.FringeDesign(1, True, workdir)
    return bench, bench.run(0)


def _with_stdout(runs: dict, key: str, text: str) -> dict:
    changed = dict(runs)
    code, _, err = runs[key]
    changed[key] = (code, text, err)
    return changed


def test_fringe_design_passes(fringe_design):
    bench, runs = fringe_design
    assert bench.check(0, runs) == []


@pytest.mark.parametrize(
    "key, mutate",
    [
        ("fringe", lambda t: _replace_cell(t, 3, 1, f"{float(t.splitlines()[3].split(',')[1]) + 1e-6:.12g}")),
        ("fringe", lambda t: "\n".join(t.splitlines()[:-1]) + "\n"),
        ("single", lambda t: _replace_meta(t, "peak_fisher", "23.9")),
        ("single", lambda t: _replace_cell(t, 5, 1, "24.001")),
        ("affine", lambda t: _replace_meta(t, "peak_phi_deg", "18.5")),
        ("affine", lambda t: _replace_meta(t, "snl_ratio", "2.9")),
        ("affine", lambda t: _replace_cell(t, 4, 2, "-0.1")),
        ("full", lambda t: _replace_cell(t, 2, 1, "23.999")),
        ("full", lambda t: _replace_cell(t, 2, 1, "0")),
        ("noon", lambda t: _replace_meta(t, "peak_fisher", "22.6")),
        ("scaling", lambda t: _replace_cell(t, 3, 2, "22.5000001")),
        ("scaling", lambda t: _replace_cell(t, 2, 4, "12.7")),
    ],
)
def test_fringe_design_reports(fringe_design, key, mutate):
    bench, runs = fringe_design
    assert bench.check(0, _with_stdout(runs, key, mutate(runs[key][1])))


def test_full_fisher_accepts_zero_only_at_extremum_rows(fringe_design):
    _, runs = fringe_design
    text = runs["full"][1]
    assert checks.check_full_fisher(_replace_cell(text, 1, 1, "0"), 6) == []
    assert checks.check_full_fisher(_replace_cell(text, 3, 1, "0"), 6)


def test_nonzero_exit_is_reported(fringe_design):
    bench, runs = fringe_design
    broken = dict(runs, noon=(3, "", "fringelab: physics error"))
    assert bench.check(0, broken)


@pytest.fixture(scope="module")
def experiment(workdir):
    bench = workload.Experiment(1, True, workdir)
    return bench, bench.run(0)


def _report(runs: dict, key: str, **changes) -> dict:
    code, text, err = runs[key]
    return dict(runs, **{key: (code, json.dumps({**json.loads(text), **changes}), err)})


def test_experiment_passes(experiment):
    bench, runs = experiment
    assert bench.check(0, runs) == []


@pytest.mark.parametrize(
    "key, changes",
    [
        ("fit", {"estimate": 0.9, "stderr": 0.01}),
        ("direct", {"estimate": 30.0, "stderr": 1.0}),
        ("mle", {"estimate": 16.0, "stderr": 0.1}),
        ("mle-full", {"estimate": 14.0, "stderr": 0.1}),
        ("mle", {"stderr": None}),
    ],
)
def test_experiment_reports_wrong_estimates(experiment, key, changes):
    bench, runs = experiment
    assert bench.check(0, _report(runs, key, **changes))


def test_counts_checks_report_wrong_totals(experiment):
    bench, _ = experiment
    csv_rows = checks.parse_counts_csv(bench._read(0, "scan.counts.csv"))
    json_rows = checks.parse_counts_json(bench._read(0, "scan.counts.json"))
    args = (bench.scan_deg, bench.shots)
    assert checks.check_counts_pair("scan", csv_rows, json_rows, *args, True) == []
    off_by_one = copy.deepcopy(csv_rows)
    off_by_one[4][2]["3:3"] += 1
    assert checks.check_counts_pair("scan", off_by_one, off_by_one, *args, True)
    assert checks.check_counts_pair("scan", off_by_one, json_rows, *args, True)
    assert checks.check_counts_pair("scan", csv_rows[1:], json_rows[1:], *args, True)
    too_many = copy.deepcopy(csv_rows)
    too_many[0][2]["3:3"] += 1
    assert checks.check_counts_pair("detectors", too_many, too_many, *args, False)


def test_detector_check_reports_a_shifted_count(experiment):
    bench, _ = experiment
    rows = checks.parse_counts_csv(bench._read(0, "detectors.counts.csv"))
    k, eta = bench.DETECTORS["k"], bench.DETECTORS["eta"]
    assert checks.check_detector_counts(rows, bench.shots, k, eta) == []
    phi, shots, counts = rows[2]
    q = checks.p33(math.radians(phi)) * checks.resolve_rate(k, eta) ** 2
    shifted = dict(counts, **{"3:3": shots * q + 6 * math.sqrt(shots * q * (1 - q))})
    assert checks.check_detector_counts([(phi, shots, shifted)], shots, k, eta)


@pytest.fixture(scope="module")
def large_n(workdir):
    bench = workload.LargeN(1, True, workdir)
    bench.new_round()
    n = bench.jobs()[-1]
    return bench, n, bench.run(n)


def test_large_n_passes(large_n):
    bench, n, result = large_n
    assert bench.check(n, result) == []


@pytest.mark.parametrize(
    "field, change",
    [
        ("full", lambda v: [v[0] * (1 + 1e-8), *v[1:]]),
        ("profile", lambda v: [*v[:-1], 1.01 * max(v)]),
        ("peak", lambda v: v - 1.0),
    ],
)
def test_large_n_reports(large_n, field, change):
    bench, n, result = large_n
    assert bench.check(n, dict(result, **{field: change(result[field])}))


def test_splitter_check_reports_a_bad_entry(large_n):
    bench, n, _ = large_n
    matrix = np.array(bench.fock.beam_splitter_matrix(n))
    assert checks.check_splitter(matrix) == []
    matrix[1, 2] += 1e-10
    assert checks.check_splitter(matrix)
