"""Output checks for the benchmark's workloads.

Every check compares program output with a value computed here from a
closed form, or with a property the method must have; none compares
with a stored copy of earlier output. Each function returns a list of
problems, empty when the output passes. Tolerances are fixed by the
precision of the output, never by a particular draw:

- ``TABLE_RTOL``: CLI tables print 12 significant digits, so a printed
  value is within 5e-12 of the true one relative; 1e-10 leaves room
  for double-precision roundoff in the kernel.
- ``API_RTOL``: full-counting and single-fringe Fisher values from the
  library API, against N(N+2)/2 and N^2/2 + N (roundoff is ~1e-15).
- ``SPLITTER_ATOL``: symmetry and B.B = I of the splitter, entrywise.
- ``SIGMAS``: statistical checks allow 5 standard deviations, a chance
  of about 6e-7 per two-sided check.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

TABLE_RTOL = 1e-10
API_RTOL = 1e-9
SPLITTER_ATOL = 1e-12
SIGMAS = 5.0


def _close(value: float, expected: float, rtol: float) -> bool:
    return abs(value - expected) <= rtol * max(1.0, abs(expected))


# ---------------------------------------------------------------------------
# CLI tables


def parse_table(text: str) -> tuple[list[str], list[list[float]], dict[str, float]]:
    """Split a CSV table printed by the CLI into columns, rows and the
    ``# key=value`` metadata lines."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty table")
    columns = lines[0].split(",")
    rows, meta = [], {}
    for line in lines[1:]:
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = float(value)
        else:
            rows.append([float(cell) for cell in line.split(",")])
    return columns, rows, meta


def p33(phi: float) -> float:
    """The six-photon Holland-Burnett (3,3) fringe (5/8 cos 3phi + 3/8 cos phi)^2."""
    g = 0.625 * math.cos(3.0 * phi) + 0.375 * math.cos(phi)
    return g * g


def noon_peak(n: int) -> float:
    """Best balanced single-fringe Fisher information of an N-photon NOON
    state, N^2 C(N, N/2) / 2^(N-1), in exact arithmetic."""
    return float(Fraction(n * n * math.comb(n, n // 2), 2 ** (n - 1)))


def _grid_problems(label: str, rows, start: float, end: float, step: float) -> list[str]:
    count = int(math.floor((end - start) / step + 1e-9)) + 1
    if len(rows) != count:
        return [f"{label}: {len(rows)} rows, expected {count}"]
    bad = [r[0] for i, r in enumerate(rows) if not _close(r[0], start + i * step, TABLE_RTOL)]
    return [f"{label}: phase column off the grid at {bad[:3]}"] if bad else []


def check_fringe(text: str, start: float, end: float, step: float) -> list[str]:
    """`fringe` of the HB (3,3) outcome equals the closed form row by row."""
    columns, rows, _ = parse_table(text)
    if columns != ["phi_deg", "probability"]:
        return [f"fringe: columns {columns}"]
    problems = _grid_problems("fringe", rows, start, end, step)
    bad = [phi for phi, p in rows if not _close(p, p33(math.radians(phi)), TABLE_RTOL)]
    if bad:
        problems.append(f"fringe: rows at {bad[:3]} deg differ from the closed form")
    return problems


def check_fisher_peak(
    label: str,
    text: str,
    n: int,
    ceiling: float,
    peak: tuple[float, float],
    peak_phi_deg: tuple[float, float] | None = None,
    min_snl_ratio: float | None = None,
) -> list[str]:
    """A single-fringe Fisher table: every row at most ``ceiling``, the
    reported peak inside ``peak`` (and at a phase inside
    ``peak_phi_deg``), and snl_ratio = peak / N."""
    columns, rows, meta = parse_table(text)
    if columns[:2] != ["phi_deg", "fisher"]:
        return [f"{label}: columns {columns}"]
    problems = []
    top = ceiling * (1.0 + TABLE_RTOL)
    over = [r[0] for r in rows if not 0.0 <= r[1] <= top]
    if over:
        problems.append(f"{label}: rows at {over[:3]} deg outside [0, {ceiling}]")
    value = meta.get("peak_fisher", math.nan)
    if not peak[0] <= value <= peak[1]:
        problems.append(f"{label}: peak {value} outside [{peak[0]}, {peak[1]}]")
    if value < max((r[1] for r in rows), default=0.0) * (1.0 - TABLE_RTOL):
        problems.append(f"{label}: peak {value} below the table maximum")
    where = meta.get("peak_phi_deg", math.nan)
    if peak_phi_deg is not None and not peak_phi_deg[0] <= where <= peak_phi_deg[1]:
        problems.append(f"{label}: peak at {where} deg outside {peak_phi_deg}")
    ratio = meta.get("snl_ratio", math.nan)
    if not _close(ratio, value / n, TABLE_RTOL):
        problems.append(f"{label}: snl_ratio {ratio} is not peak / N = {value / n}")
    if min_snl_ratio is not None and not ratio >= min_snl_ratio:
        problems.append(f"{label}: snl_ratio {ratio} below {min_snl_ratio}")
    return problems


def check_full_fisher(text: str, n: int) -> list[str]:
    """Full-counting rows equal N(N+2)/2. A row at an exact multiple of
    90 degrees may read 0: full_fisher drops every term there as a
    removable singularity (a known fault of the program, see CHANGES.md)."""
    columns, rows, _ = parse_table(text)
    if columns[:2] != ["phi_deg", "fisher"]:
        return [f"full: columns {columns}"]
    limit = n * (n + 2) / 2.0
    bad = [
        phi for phi, value in (r[:2] for r in rows)
        if not _close(value, limit, TABLE_RTOL)
        and not (value == 0.0 and phi % 90.0 == 0.0)
    ]
    return [f"full: rows at {bad[:3]} deg differ from N(N+2)/2 = {limit}"] if bad else []


def check_band(text: str) -> list[str]:
    """The --band column is a finite, non-negative standard deviation."""
    columns, rows, _ = parse_table(text)
    if columns != ["phi_deg", "fisher", "sigma"]:
        return [f"band: columns {columns}"]
    bad = [r[0] for r in rows if not (math.isfinite(r[2]) and r[2] >= 0.0)]
    return [f"band: sigma at {bad[:3]} deg is negative or not finite"] if bad else []


def check_scaling(text: str, n_max: int) -> list[str]:
    """`scaling --asymptotic` columns against their formulas."""
    columns, rows, _ = parse_table(text)
    expected = ["n", "snl", "noon_single", "hb_single", "noon_asymptotic"]
    if columns != expected:
        return [f"scaling: columns {columns}"]
    ns = list(range(2, n_max + 1, 2))
    if [int(r[0]) for r in rows] != ns:
        return [f"scaling: n column is not 2, 4, ..., {n_max}"]
    problems = []
    for n, row in zip(ns, rows):
        want = (
            float(n),
            noon_peak(n),
            n * (n + 2) / 2.0,
            math.sqrt(8.0 / math.pi) * n**1.5,
        )
        for name, got, ref in zip(expected[1:], row[1:], want):
            if not _close(got, ref, TABLE_RTOL):
                problems.append(f"scaling: {name} at n={n} is {got}, expected {ref}")
    return problems


# ---------------------------------------------------------------------------
# counts files and estimate reports


def parse_counts_csv(text: str) -> list[tuple[float, int, dict[str, float]]]:
    """Rows (phi_deg, shots, {"n1:n2": count}) of a counts CSV file."""
    rows = []
    for line in text.splitlines()[1:]:
        if not line or line.startswith("#"):
            continue
        phi, shots, cells = line.split(",")
        counts = {}
        for cell in filter(None, cells.split(";")):
            key, _, value = cell.partition("=")
            counts[key] = float(value)
        rows.append((float(phi), int(shots), counts))
    return rows


def parse_counts_json(text: str) -> list[tuple[float, int, dict[str, float]]]:
    return [
        (float(r["phi_deg"]), int(r["shots"]), {k: float(v) for k, v in r["counts"].items()})
        for r in json.loads(text)["records"]
    ]


def check_counts_pair(label: str, csv_rows, json_rows, phases_deg, shots, lossless) -> list[str]:
    """The CSV and JSON writers hold the same records, one per planned
    phase; lossless rows sum to shots, others to at most shots."""
    if csv_rows != json_rows:
        return [f"{label}: CSV and JSON counts differ"]
    if [r[1] for r in csv_rows] != [shots] * len(phases_deg):
        return [f"{label}: expected {len(phases_deg)} rows of {shots} shots"]
    problems = []
    for (phi, _, counts), want in zip(csv_rows, phases_deg):
        total = sum(counts.values())
        if not _close(phi, want, TABLE_RTOL):
            problems.append(f"{label}: row at {phi} deg, planned {want}")
        if (total != shots) if lossless else (total > shots):
            problems.append(f"{label}: row at {phi} deg sums to {total} of {shots} shots")
    return problems


def resolve_rate(k: int, eta: float) -> float:
    """Chance that three photons on one port give three clicks:
    eta^3 k(k-1)(k-2)/k^3."""
    return eta**3 * k * (k - 1) * (k - 2) / k**3


def check_detector_counts(rows, shots: int, k: int, eta: float) -> list[str]:
    """Each row's 3:3 count within SIGMAS binomial standard deviations of
    shots * p33(phi) * r3^2."""
    r3 = resolve_rate(k, eta)
    problems = []
    for phi, _, counts in rows:
        q = p33(math.radians(phi)) * r3 * r3
        sigma = math.sqrt(shots * q * (1.0 - q))
        got = counts.get("3:3", 0.0)
        if abs(got - shots * q) > SIGMAS * max(sigma, 1.0):
            problems.append(
                f"detectors: 3:3 count {got} at {phi} deg, expected "
                f"{shots * q:.1f} +/- {sigma:.1f}"
            )
    return problems


def check_fit(report: dict) -> list[str]:
    """The affine fit of a perfect fringe has visibility consistent with 1."""
    v, s = report["estimate"], report["stderr"]
    if not (s is not None and s > 0.0 and abs(v - 1.0) <= SIGMAS * s):
        return [f"fit: visibility {v} +/- {s} is not consistent with 1"]
    return []


def check_direct(report: dict, ceiling: float) -> list[str]:
    """A single fringe's direct Fisher estimate respects the ceiling."""
    f, s = report["estimate"], report["stderr"]
    if not (s is not None and f <= ceiling + SIGMAS * s):
        return [f"direct: {f} +/- {s} exceeds {ceiling} by more than {SIGMAS} sigma"]
    return []


def check_mle(label: str, report: dict, planted_deg: float) -> list[str]:
    """An MLE lies within SIGMAS standard errors of the planted phase."""
    est, s = report["estimate"], report["stderr"]
    if not (s is not None and s > 0.0 and abs(est - planted_deg) <= SIGMAS * s):
        return [f"{label}: {est} +/- {s} deg, planted {planted_deg}"]
    return []


# ---------------------------------------------------------------------------
# library results at large N


def check_splitter(matrix: np.ndarray) -> list[str]:
    """The 50:50 splitter is symmetric and its own inverse."""
    n = matrix.shape[0]
    problems = []
    asym = float(np.max(np.abs(matrix - matrix.T)))
    if not asym <= SPLITTER_ATOL:
        problems.append(f"splitter N={n - 1}: asymmetric by {asym:.2e}")
    off = float(np.max(np.abs(matrix @ matrix - np.eye(n))))
    if not off <= SPLITTER_ATOL:
        problems.append(f"splitter N={n - 1}: B.B differs from I by {off:.2e}")
    return problems


def check_large_n(n: int, full: list[float], profile: list[float], peak: float) -> list[str]:
    """Full counting gives N(N+2)/2 at every phase; the balanced single
    fringe never exceeds its ceiling N^2/2 + N and peaks at it."""
    limit = n * (n + 2) / 2.0
    ceiling = n * n / 2.0 + n
    problems = []
    bad = [f for f in full if not _close(f, limit, API_RTOL)]
    if bad:
        problems.append(f"full_fisher N={n}: {bad[:3]}, expected {limit}")
    if not all(0.0 <= f <= ceiling * (1.0 + API_RTOL) for f in profile):
        problems.append(f"profile N={n}: a value outside [0, {ceiling}]")
    if not _close(peak, ceiling, API_RTOL):
        problems.append(f"peak N={n}: {peak}, expected {ceiling}")
    return problems
