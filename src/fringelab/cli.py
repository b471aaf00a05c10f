"""Command-line front end emitting plot-ready tables and reports.

Subcommands:

  fringe    single-fringe probability over a phase scan
  fisher    Fisher-information profile with a deterministic peak report
  scaling   benchmark table (SNL, best NOON fringe, HB value) versus N
  simulate  seeded Monte Carlo counts from a JSON plan
  estimate  fit / direct-Fisher / maximum-likelihood reports from counts

Angles cross this boundary in degrees; the library core works in
radians. Numbers are written with 12 significant digits in both output
formats, so the CSV and JSON emissions of one run parse to identical
values. Exit status is 0 on success, 2 for usage problems, and 3 when a
physics constraint is violated (odd N for an HB state, outcome photon
totals that do not match N, and the like).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from functools import lru_cache, partial

import numpy as np

from .detection import DetectorArrayConfig
from .estimation import (
    ExperimentPlan,
    direct_fisher_from_data,
    mle_phase,
    simulate_counts,
    snl_comparison,
)
from .fisher import (
    find_peak,
    full_fisher,
    model_fisher_sigma,
    noon_asymptotic,
    scaling_table,
    single_fringe_fisher_model,
)
from .fock import OutcomePattern, PhysicsError
from .fringes import (
    DEFAULT_FRINGE_PEAK,
    CountRecord,
    FringeModel,
    affine_from_visibility,
    apply_model,
    fit_fringe,
    ideal_model,
    noon_cosine_model,
    _MODEL_KINDS,
    _visibility_cov,
)
from .states import build_state


class UsageError(Exception):
    """Bad flag combination or malformed input file (exit status 2)."""


#: Longest phase grid a scan or a plan may ask for; a longer one is a
#: usage error rather than an allocation failure.
MAX_GRID_POINTS = 1_000_000


# ---------------------------------------------------------------------------
# formatting and I/O helpers

def _fmt(value) -> str:
    """Render one table cell: floats at 12 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _jsonable(value):
    """JSON twin of _fmt: floats rounded to the same 12 digits."""
    if isinstance(value, bool) or not isinstance(value, float):
        return value
    if not math.isfinite(value):
        return None
    return float(format(value, ".12g"))


def _write_text(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _csv_lines(rows) -> list[str]:
    """CSV lines of ``rows``, through one format template taken from the
    cell types of the first row: floats (numpy floats too) at 12
    significant digits, every other column rendered by _fmt. The bytes
    are those of joining _fmt of every cell."""
    cells = [
        column if isinstance(column[0], float) else [_fmt(c) for c in column]
        for column in zip(*rows)
    ]
    template = ",".join(
        "{:.12g}" if isinstance(column[0], float) else "{}" for column in cells
    )
    return [template.format(*row) for row in zip(*cells)]


def _emit_table(args, columns, rows, meta=None) -> None:
    if args.format == "csv":
        lines = [",".join(columns), *_csv_lines(rows)]
        for key, value in (meta or {}).items():
            lines.append(f"# {key}={_fmt(value)}")
        text = "\n".join(lines) + "\n"
    else:
        payload: dict = {
            "columns": list(columns),
            "rows": [[_jsonable(cell) for cell in row] for row in rows],
        }
        if meta:
            payload["meta"] = {k: _jsonable(v) for k, v in meta.items()}
        text = json.dumps(payload, indent=2) + "\n"
    _write_text(args.out, text)


# ---------------------------------------------------------------------------
# flag parsing helpers

def _parse_outcome(text: str) -> OutcomePattern:
    match = re.fullmatch(r"(\d+):(\d+)", text.strip())
    if match is None:
        raise UsageError(f"outcome must look like 3:3, got {text!r}")
    return OutcomePattern(int(match.group(1)), int(match.group(2)))


def _parse_range(text: str, flag: str) -> tuple[float, float]:
    match = re.fullmatch(r"\s*(-?[\d.]+)\s*:\s*(-?[\d.]+)\s*", text)
    if match is None:
        raise UsageError(f"{flag} must look like LO:HI in degrees, got {text!r}")
    lo, hi = _number(match.group(1), flag), _number(match.group(2), flag)
    if hi <= lo:
        raise UsageError(f"{flag} needs LO < HI, got {text!r}")
    return lo, hi


def _number(raw, what: str, kind=float):
    """``raw`` as a finite float, or as an int when ``kind`` is int, else a
    usage error. An int must be integral: 6 and 6.0 are 6, 6.7 is refused
    rather than truncated. A JSON true or false is not a number."""
    try:
        value = math.nan if isinstance(raw, bool) else float(raw)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise UsageError(f"{what} must be a finite number, got {raw!r}")
    if kind is float:
        return value
    if not value.is_integer():
        raise UsageError(f"{what} must be a whole number, got {raw!r}")
    try:
        return int(raw)  # exact for ints and digit strings beyond 2^53
    except ValueError:
        return int(value)


def _phase_grid(start: float, end: float, step: float) -> np.ndarray:
    if step <= 0:
        raise UsageError(f"--phi-step must be positive, got {step}")
    if end < start:
        raise UsageError("--phi-end must not precede --phi-start")
    span = (end - start) / step + 1e-9
    if span >= MAX_GRID_POINTS:
        raise UsageError(
            f"the phase grid would hold more than {MAX_GRID_POINTS} points"
        )
    count = int(math.floor(span)) + 1
    return start + step * np.arange(count)


def _build_model(
    kind: str,
    state_kind: str,
    total_photons: int,
    outcome: OutcomePattern,
    visibility: float,
    peak: float,
    amplitude: float | None = None,
) -> FringeModel:
    if kind == "ideal":
        return ideal_model(state_kind, total_photons, outcome)
    if kind == "affine":
        return affine_from_visibility(
            state_kind, total_photons, outcome, visibility, peak
        )
    if kind == "noon-cosine":
        return noon_cosine_model(total_photons, outcome, visibility, amplitude)
    raise UsageError(f"unknown model kind {kind!r}")


def _model_from_args(args, kind: str, total_photons: int, outcome) -> FringeModel:
    """The ``kind`` model of --state, shaped by --visibility, --peak, --amplitude."""
    return _build_model(kind, args.state, total_photons, outcome,
                        args.visibility, args.peak, args.amplitude)


# ---------------------------------------------------------------------------
# CountRecord serialization

_COUNTS_HEADER = "phi_deg,shots,counts"


def records_to_csv(records: list[CountRecord], seed: int | None = None) -> str:
    """CountRecord rows as CSV, phases in degrees, counts packed as
    semicolon-joined n1:n2=count cells, seed in a trailing comment."""
    lines = [_COUNTS_HEADER]
    for record in records:
        cell = ";".join(
            f"{pattern}={_fmt(count)}"
            for pattern, count in sorted(record.outcome_counts.items())
        )
        lines.append(f"{_fmt(math.degrees(record.phi))},{record.shots},{cell}")
    if seed is not None:
        lines.append(f"# seed={seed}")
    return "\n".join(lines) + "\n"


def records_to_json(records: list[CountRecord], seed: int | None = None) -> str:
    payload = {
        "seed": seed,
        "records": [
            {
                "phi_deg": _jsonable(math.degrees(record.phi)),
                "shots": record.shots,
                "counts": {
                    str(pattern): _jsonable(count)
                    for pattern, count in sorted(record.outcome_counts.items())
                },
            }
            for record in records
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _counts_value(raw):
    number = _number(raw, "an event count")
    return int(number) if number == int(number) else number


def records_from_csv(text: str) -> tuple[list[CountRecord], int | None]:
    seed = None
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            match = re.search(r"seed\s*=\s*(\S+)", line)
            if match:
                seed = _number(match.group(1), "counts seed", int)
            continue
        rows.append(line)
    if not rows or rows[0] != _COUNTS_HEADER:
        raise UsageError(
            f"counts file must start with the header {_COUNTS_HEADER!r}"
        )
    records = []
    for line in rows[1:]:
        parts = line.split(",")
        if len(parts) != 3:
            raise UsageError(f"bad counts row {line!r}")
        counts = {}
        if parts[2]:
            for item in parts[2].split(";"):
                key, sep, value = item.partition("=")
                if not sep:
                    raise UsageError(f"bad counts entry {item!r}")
                counts[_parse_outcome(key)] = _counts_value(value)
        records.append(
            CountRecord(
                phi=math.radians(_number(parts[0], "phi_deg")),
                shots=_number(parts[1], "shots", int),
                outcome_counts=counts,
            )
        )
    return records, seed


def records_from_json(text: str) -> tuple[list[CountRecord], int | None]:
    try:
        data = json.loads(text)
        records = [
            CountRecord(
                phi=math.radians(_number(item["phi_deg"], "phi_deg")),
                shots=_number(item["shots"], "shots", int),
                outcome_counts={
                    _parse_outcome(key): _counts_value(value)
                    for key, value in _json_typed(
                        item["counts"], dict, "record counts"
                    ).items()
                },
            )
            for item in data["records"]
        ]
    except PhysicsError:
        raise  # a well-formed but physically invalid record, as in CSV
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed counts JSON: {exc}") from exc
    seed = data.get("seed")
    return records, None if seed is None else _number(seed, "counts seed", int)


def read_counts(path: str) -> tuple[list[CountRecord], int | None]:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return records_from_json(text)
    return records_from_csv(text)


# ---------------------------------------------------------------------------
# config and plan files

_BLOCK_RE = re.compile(r"(\w+)\s*\{([^}]*)\}")


def parse_config_blocks(text: str) -> dict[str, dict[str, float]]:
    """Parse `name { key = value, ... }` blocks; '#' starts a comment."""
    clean = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    blocks: dict[str, dict[str, float]] = {}
    for match in _BLOCK_RE.finditer(clean):
        body: dict[str, float] = {}
        for part in re.split(r"[,\n]", match.group(2)):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            if not sep:
                raise UsageError(f"bad config entry {part!r}")
            body[key.strip()] = _number(value.strip(), f"config value {key.strip()!r}")
        blocks[match.group(1)] = body
    return blocks


def _detectors_from_mapping(data: dict) -> DetectorArrayConfig:
    unknown = set(data) - {"k", "eta"}
    if unknown:
        raise UsageError(
            f"unknown detector settings {sorted(unknown)}; expected k, eta"
        )
    return DetectorArrayConfig(
        detectors_per_port=_number(data.get("k", 5), "detector k", int),
        efficiency=_number(data.get("eta", 1.0), "detector eta"),
    )


def _detectors_from_config(path: str) -> DetectorArrayConfig:
    blocks = parse_config_blocks(_read_text(path))
    if "detectors" not in blocks:
        raise UsageError(f"{path} has no detectors block")
    return _detectors_from_mapping(blocks["detectors"])


def _model_from_mapping(data: dict, state_kind: str, total_photons: int) -> FringeModel:
    """The model block of a plan; its state and N are the plan's own."""
    unknown = set(data) - {"kind", "outcome", "visibility", "peak", "amplitude"}
    if unknown:
        raise UsageError(
            f"unknown model settings {sorted(unknown)}; "
            f"expected kind, outcome, visibility, peak, amplitude"
        )
    kind = data.get("kind", "ideal")
    outcome_text = data.get("outcome", f"{total_photons // 2}:{total_photons // 2}")
    outcome = _parse_outcome(str(outcome_text))
    amplitude = data.get("amplitude")
    return _build_model(
        kind,
        state_kind,
        total_photons,
        outcome,
        _number(data.get("visibility", 1.0), "model visibility"),
        _number(data.get("peak", DEFAULT_FRINGE_PEAK), "model peak"),
        None if amplitude is None else _number(amplitude, "model amplitude"),
    )


def _json_typed(value, kind: type, what: str):
    """``value`` when it is a JSON array (``kind`` list) or object (dict),
    else a usage error."""
    if not isinstance(value, kind):
        name = "array" if kind is list else "object"
        raise UsageError(f"{what} must be a JSON {name}, got {value!r}")
    return value


def plan_from_dict(data: dict, detectors: DetectorArrayConfig | None = None) -> ExperimentPlan:
    """Build an ExperimentPlan from a decoded plan file; `detectors`
    (from --config) overrides the plan's own detector block."""
    if not isinstance(data, dict):
        raise UsageError("plan file must hold a JSON object")
    missing = [key for key in ("n", "shots", "seed") if key not in data]
    if missing:
        raise UsageError(f"plan is missing required keys {missing}")
    state_kind = str(data.get("state", "hb"))
    total_photons = _number(data["n"], "plan n", int)
    seed = _number(data["seed"], "plan seed", int)
    if seed < 0:
        raise UsageError(f"plan seed must not be negative, got {seed}")
    if "phases_deg" in data:
        listed = _json_typed(data["phases_deg"], list, "plan phases_deg")
        phases = tuple(math.radians(_number(x, "phases_deg")) for x in listed)
    else:
        grid = _phase_grid(
            _number(data.get("phi_start", 0.0), "plan phi_start"),
            _number(data.get("phi_end", 30.0), "plan phi_end"),
            _number(data.get("phi_step", 3.0), "plan phi_step"),
        )
        phases = tuple(math.radians(float(x)) for x in grid)
    if detectors is None and "detectors" in data:
        detectors = _detectors_from_mapping(
            _json_typed(data["detectors"], dict, "plan detectors")
        )
    model = None
    if "model" in data:
        model = _model_from_mapping(
            _json_typed(data["model"], dict, "plan model"), state_kind, total_photons
        )
    return ExperimentPlan(
        state_kind=state_kind,
        total_photons=total_photons,
        phases=phases,
        shots=_number(data["shots"], "plan shots", int),
        seed=seed,
        detectors=detectors,
        model=model,
    )


# ---------------------------------------------------------------------------
# subcommands

def cmd_fringe(args) -> int:
    outcome = _parse_outcome(args.outcome)
    grid_deg = _phase_grid(args.phi_start, args.phi_end, args.phi_step)
    model = _model_from_args(args, args.model, args.n, outcome)
    probs = apply_model(model, np.radians(grid_deg))
    rows = [[float(deg), float(p)] for deg, p in zip(grid_deg, probs)]
    _emit_table(args, ["phi_deg", "probability"], rows)
    return 0


def cmd_fisher(args) -> int:
    grid_deg = _phase_grid(args.phi_start, args.phi_end, args.phi_step)
    band = None
    if args.mode == "full":
        if args.band:
            raise UsageError("--band applies to single-fringe models only")
        fun = partial(full_fisher, build_state(args.state, args.n))
    else:
        if args.band and args.model == "ideal":
            raise UsageError("--band needs --model affine or noon-cosine")
        if args.outcome is None:
            raise UsageError("--outcome is required for --mode single")
        outcome = _parse_outcome(args.outcome)
        model = _model_from_args(args, args.model, args.n, outcome)
        fun = partial(single_fringe_fisher_model, model)
        if args.band:
            cov = _visibility_cov(model, args.visibility_sigma)
            band = model_fisher_sigma(model, cov, np.radians(grid_deg))

    values = fun(np.radians(grid_deg))
    if args.phi_start == args.phi_end:
        # A one-point grid has no interval to search: its point is the peak.
        peak_deg, peak_value = args.phi_start, float(values[0])
    else:
        lo_rad = math.radians(args.phi_start)
        hi_rad = math.radians(args.phi_end)
        peak_phi, peak_value = find_peak(fun, lo_rad, hi_rad)
        peak_deg = math.degrees(peak_phi)
    meta = {
        "peak_phi_deg": peak_deg,
        "peak_fisher": peak_value,
        "snl_ratio": snl_comparison(peak_value, args.n),
    }
    print(
        f"peak: phi_deg={_fmt(meta['peak_phi_deg'])} "
        f"fisher={_fmt(meta['peak_fisher'])} "
        f"snl_ratio={_fmt(meta['snl_ratio'])}",
        file=sys.stderr,
    )
    columns = ["phi_deg", "fisher"]
    rows = [[float(deg), float(f)] for deg, f in zip(grid_deg, values)]
    if band is not None:
        columns.append("sigma")
        for row, sigma in zip(rows, band):
            row.append(float(sigma))
    _emit_table(args, columns, rows, meta)
    return 0


def cmd_scaling(args) -> int:
    if args.n_max // 2 > MAX_GRID_POINTS:
        raise UsageError(
            f"the scaling table would hold more than {MAX_GRID_POINTS} rows"
        )
    table = scaling_table(args.n_max)
    columns = ["n", "snl", "noon_single", "hb_single"]
    rows = [
        [row.total_photons, row.snl, row.noon_single, row.hb_single]
        for row in table
    ]
    if args.asymptotic:
        columns.append("noon_asymptotic")
        for cells, row in zip(rows, table):
            cells.append(noon_asymptotic(row.total_photons))
    _emit_table(args, columns, rows)
    return 0


def cmd_simulate(args) -> int:
    try:
        plan_data = json.loads(_read_text(args.plan))
    except json.JSONDecodeError as exc:
        raise UsageError(f"plan file is not valid JSON: {exc}") from exc
    detectors = _detectors_from_config(args.config) if args.config else None
    plan = plan_from_dict(plan_data, detectors)
    records = simulate_counts(plan)
    if args.format == "csv":
        text = records_to_csv(records, seed=plan.seed)
    else:
        text = records_to_json(records, seed=plan.seed)
    _write_text(args.out, text)
    return 0


def cmd_estimate(args) -> int:
    records, seed = read_counts(args.counts)
    outcome = _parse_outcome(args.outcome)
    total_photons = args.n if args.n is not None else outcome.total
    total_shots = sum(record.shots for record in records)
    report: dict = {
        "method": args.method,
        "outcome": str(outcome),
        "records": len(records),
        "shots": total_shots,
        "seed": seed,
    }

    if args.method == "fit":
        kind = args.model or "affine"
        if kind not in _MODEL_KINDS:
            raise UsageError("--method fit supports --model affine or noon-cosine")
        result = fit_fringe(records, outcome, kind, state_kind=args.state)
        report.update(
            {
                "model_kind": kind,
                "estimate": _jsonable(result.visibility),
                "stderr": _jsonable(result.visibility_sigma),
                "param_names": list(result.param_names),
                "params": [_jsonable(float(x)) for x in result.params],
                "cov": [
                    [_jsonable(float(x)) for x in row] for row in result.cov
                ],
                "model_params": {
                    "amplitude": _jsonable(result.model.amplitude),
                    "offset": _jsonable(result.model.offset),
                    "visibility": _jsonable(result.model.visibility),
                },
            }
        )
    elif args.method == "direct":
        lo, hi = _parse_range(args.window, "--window")
        result = direct_fisher_from_data(
            records, outcome, (math.radians(lo), math.radians(hi))
        )
        report.update(
            {
                "estimate": _jsonable(result.fisher),
                "stderr": _jsonable(result.sigma),
                "phi_mid_deg": _jsonable(math.degrees(result.phi_mid)),
                "window": [lo, hi],
                "points": result.points,
                "low_confidence": result.low_confidence,
                "snl_ratio": _jsonable(snl_comparison(result.fisher, total_photons)),
            }
        )
    else:
        lo, hi = _parse_range(args.interval, "--interval")
        kind = args.model or "ideal"
        if kind == "full":
            model = build_state(args.state, total_photons)
        else:
            model = _model_from_args(args, kind, total_photons, outcome)
        result = mle_phase(records, model, (math.radians(lo), math.radians(hi)))
        report.update(
            {
                "model_kind": kind,
                "estimate": _jsonable(math.degrees(result.phi_hat)),
                "stderr": _jsonable(math.degrees(result.stderr)),
                "window": [lo, hi],
                "at_boundary": result.at_boundary,
                "log_likelihood": _jsonable(result.log_likelihood),
            }
        )
    _write_text(args.out, json.dumps(report, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def _add_output_flags(parser) -> None:
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="output format (default csv)",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write to FILE instead of stdout",
    )


#: The input state families a command line may name.
_STATE_KINDS = ("hb", "noon", "snl")


def _add_state_flags(parser) -> None:
    parser.add_argument(
        "--state", choices=_STATE_KINDS, default="hb",
        help="input state family (default hb)",
    )
    parser.add_argument(
        "--n", type=int, required=True, help="total photon number N"
    )


def _add_model_flags(parser, models=("ideal", *_MODEL_KINDS), default="ideal",
                     model_help="fringe model family (default ideal)") -> None:
    parser.add_argument("--model", choices=models, default=default, help=model_help)
    parser.add_argument(
        "--visibility", type=float, default=1.0,
        help="fringe contrast for affine / noon-cosine models (default 1)",
    )
    parser.add_argument(
        "--peak", type=float, default=DEFAULT_FRINGE_PEAK,
        help="peak probability a+b of the affine family "
        f"(default {DEFAULT_FRINGE_PEAK})",
    )
    parser.add_argument(
        "--amplitude", type=float, default=None,
        help="noon-cosine baseline q (default: symmetric binomial weight)",
    )


def _add_grid_flags(parser, start: float, end: float, step: float) -> None:
    parser.add_argument("--phi-start", type=float, default=start,
                        help=f"scan start in degrees (default {start})")
    parser.add_argument("--phi-end", type=float, default=end,
                        help=f"scan end in degrees (default {end})")
    parser.add_argument("--phi-step", type=float, default=step,
                        help=f"scan step in degrees (default {step})")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later ``main`` call of the process: parsing leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="fringelab",
        description="Exact two-mode photon-counting interferometry tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fringe = sub.add_parser(
        "fringe", help="single-fringe probability over a phase scan"
    )
    _add_state_flags(fringe)
    fringe.add_argument("--outcome", required=True, metavar="A:B",
                        help="detection pattern, e.g. 3:3")
    _add_grid_flags(fringe, 0.0, 360.0, 1.0)
    _add_model_flags(fringe)
    _add_output_flags(fringe)
    fringe.set_defaults(func=cmd_fringe)

    fisher = sub.add_parser(
        "fisher", help="Fisher-information profile and peak report"
    )
    fisher.add_argument("--mode", choices=("single", "full"), required=True,
                        help="one fringe or all N+1 outcomes")
    _add_state_flags(fisher)
    fisher.add_argument("--outcome", default=None, metavar="A:B",
                        help="detection pattern for --mode single")
    _add_grid_flags(fisher, 0.0, 30.0, 0.1)
    _add_model_flags(fisher)
    fisher.add_argument("--band", action="store_true",
                        help="add a 1-sigma column from --visibility-sigma")
    fisher.add_argument("--visibility-sigma", type=float, default=0.02,
                        help="visibility uncertainty for --band (default 0.02)")
    _add_output_flags(fisher)
    fisher.set_defaults(func=cmd_fisher)

    scaling = sub.add_parser(
        "scaling", help="Fisher benchmarks versus photon number"
    )
    scaling.add_argument("--n-max", type=int, required=True,
                         help="largest photon number to tabulate")
    scaling.add_argument("--asymptotic", action="store_true",
                         help="add the sqrt(8/pi) N^1.5 NOON asymptote column")
    _add_output_flags(scaling)
    scaling.set_defaults(func=cmd_scaling)

    simulate = sub.add_parser(
        "simulate", help="draw seeded Monte Carlo counts from a plan"
    )
    simulate.add_argument("--plan", required=True, metavar="FILE",
                          help="JSON plan with state, n, phases, shots, seed")
    simulate.add_argument("--config", default=None, metavar="FILE",
                          help="detector config file overriding the plan")
    _add_output_flags(simulate)
    simulate.set_defaults(func=cmd_simulate)

    estimate = sub.add_parser(
        "estimate", help="fit, direct-Fisher, or MLE report from counts"
    )
    estimate.add_argument("--counts", required=True, metavar="FILE",
                          help="CountRecord CSV or JSON file")
    estimate.add_argument("--outcome", required=True, metavar="A:B")
    estimate.add_argument("--method", choices=("fit", "direct", "mle"),
                          required=True)
    estimate.add_argument("--window", default="9:30", metavar="LO:HI",
                          help="degrees window for --method direct "
                          "(default 9:30)")
    estimate.add_argument("--interval", default="0:30", metavar="LO:HI",
                          help="degrees search interval for --method mle "
                          "(default 0:30)")
    estimate.add_argument("--state", choices=_STATE_KINDS, default="hb")
    estimate.add_argument("--n", type=int, default=None,
                          help="total photon number (default: outcome total)")
    _add_model_flags(estimate, ("ideal", *_MODEL_KINDS, "full"), None,
                     "model for fit/mle (fit default affine, mle default ideal)")
    estimate.add_argument("--out", default=None, metavar="FILE",
                          help="write the JSON report to FILE")
    estimate.set_defaults(func=cmd_estimate)
    return parser


#: Flags that take a negative value.
_SIGNED_FLAGS = ("--phi-start", "--phi-end")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Pass '--phi-start -1e2' as '--phi-start=-1e2': argparse reads a
    negative number written with an exponent as an option name."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in _SIGNED_FLAGS and re.match(r"-\.?\d", arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _attach_signed_values(sys.argv[1:] if argv is None else argv)
    )
    try:
        for name, value in vars(args).items():
            if isinstance(value, float):
                _number(value, "--" + name.replace("_", "-"))
        return int(args.func(args))
    except UsageError as exc:
        print(f"fringelab: error: {exc}", file=sys.stderr)
        return 2
    except PhysicsError as exc:
        print(f"fringelab: physics error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
