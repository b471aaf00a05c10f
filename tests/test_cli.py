"""End-to-end tests of the command-line front end."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fringelab import (
    CountRecord,
    ExperimentPlan,
    OutcomePattern,
    affine_from_visibility,
    fringe_probabilities,
    hb_state,
    p33_closed_form,
    simulate_counts,
)
from fringelab import cli
from fringelab.cli import (
    _emit_table,
    _fmt,
    build_parser,
    main,
    parse_config_blocks,
    read_counts,
    records_from_csv,
    records_from_json,
    records_to_csv,
    records_to_json,
)

P33 = OutcomePattern(3, 3)


def _csv_rows(text):
    """Split CSV output into (header, data rows, comment lines)."""
    lines = [line for line in text.splitlines() if line]
    comments = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if not line.startswith("#")]
    return data[0], [line.split(",") for line in data[1:]], comments


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFringeCommand:
    ARGS = ["fringe", "--state", "hb", "--n", "6", "--outcome", "3:3"]

    def test_default_scan_matches_closed_form(self, capsys):
        code, out, _ = _run(capsys, self.ARGS)
        assert code == 0
        header, rows, _ = _csv_rows(out)
        assert header == "phi_deg,probability"
        assert len(rows) == 361
        for deg_text, prob_text in rows:
            expected = p33_closed_form(math.radians(float(deg_text)))
            assert abs(float(prob_text) - expected) <= 1e-11

    def test_json_and_csv_parse_to_identical_values(self, capsys, tmp_path):
        csv_path = tmp_path / "scan.csv"
        json_path = tmp_path / "scan.json"
        assert main(self.ARGS + ["--out", str(csv_path)]) == 0
        assert main(self.ARGS + ["--format", "json", "--out", str(json_path)]) == 0
        _, rows, _ = _csv_rows(csv_path.read_text())
        payload = json.loads(json_path.read_text())
        assert payload["columns"] == ["phi_deg", "probability"]
        assert len(payload["rows"]) == len(rows)
        for csv_row, json_row in zip(rows, payload["rows"]):
            assert [float(cell) for cell in csv_row] == json_row

    def test_model_scan(self, capsys):
        code, out, _ = _run(
            capsys,
            self.ARGS
            + ["--model", "affine", "--visibility", "0.94", "--phi-end", "90"],
        )
        assert code == 0
        _, rows, _ = _csv_rows(out)
        assert len(rows) == 91
        probs = [float(row[1]) for row in rows]
        assert max(probs) <= 1.0
        assert min(probs) > 0.0  # the affine floor keeps the fringe bright

    @pytest.mark.parametrize(
        "grid, first, last",
        [
            (["--phi-start", "-1e2", "--phi-end", "0"], -100.0, 0.0),
            (["--phi-start", "-3e2", "--phi-end", "-2.5E1"], -300.0, -30.0),
        ],
        ids=["start", "end"],
    )
    def test_negative_value_with_an_exponent(self, capsys, grid, first, last):
        # argparse alone takes "-1e2" for an option name; both spellings of
        # the flag must give the same bytes.
        spaced = self.ARGS + grid + ["--phi-step", "10"]
        joined = self.ARGS + [f"{k}={v}" for k, v in zip(grid[::2], grid[1::2])]
        result = _run(capsys, spaced)
        assert result == _run(capsys, joined + ["--phi-step", "10"])
        code, out, _ = result
        assert code == 0
        _, rows, _ = _csv_rows(out)
        assert (float(rows[0][0]), float(rows[-1][0])) == (first, last)

    def test_bad_step_exits_2(self, capsys):
        code, _, err = _run(capsys, self.ARGS + ["--phi-step", "0"])
        assert code == 2
        assert "error" in err

    def test_odd_photon_number_exits_3(self, capsys):
        code, _, err = _run(
            capsys, ["fringe", "--state", "hb", "--n", "5", "--outcome", "3:3"]
        )
        assert code == 3
        assert "physics error" in err

    def test_malformed_outcome_exits_2(self, capsys):
        code, _, err = _run(
            capsys, ["fringe", "--state", "hb", "--n", "6", "--outcome", "3x3"]
        )
        assert code == 2
        assert "outcome" in err

    def test_missing_required_flag_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as info:
            main(["fringe", "--state", "hb", "--n", "6"])
        assert info.value.code == 2

    def test_argparse_error_leaves_the_next_command_unchanged(self, capsys):
        band = [
            "fisher", "--mode", "single", "--state", "hb", "--n", "6",
            "--outcome", "3:3", "--model", "affine", "--visibility", "0.94",
            "--band",
        ]
        build_parser.cache_clear()
        alone = _run(capsys, band)
        with pytest.raises(SystemExit) as info:
            main(["fisher", "--mode", "bogus"])
        assert info.value.code == 2
        capsys.readouterr()
        assert _run(capsys, band) == alone
        assert build_parser.cache_info().misses == 1


class TestFisherCommand:
    def test_single_ideal_peak_report(self, capsys):
        code, out, err = _run(
            capsys,
            [
                "fisher", "--mode", "single", "--state", "hb", "--n", "6",
                "--outcome", "3:3", "--format", "json",
            ],
        )
        assert code == 0
        assert err.startswith("peak: phi_deg=")
        meta = json.loads(out)["meta"]
        assert meta["peak_phi_deg"] < 0.5
        assert 23.9 <= meta["peak_fisher"] <= 24.0 + 1e-9
        assert meta["snl_ratio"] == pytest.approx(meta["peak_fisher"] / 6.0, rel=1e-9)

    def test_affine_band_profile(self, capsys):
        code, out, err = _run(
            capsys,
            [
                "fisher", "--mode", "single", "--state", "hb", "--n", "6",
                "--outcome", "3:3", "--model", "affine",
                "--visibility", "0.94", "--band", "--format", "json",
            ],
        )
        assert code == 0
        assert "peak:" in err
        payload = json.loads(out)
        assert payload["columns"] == ["phi_deg", "fisher", "sigma"]
        sigmas = [row[2] for row in payload["rows"][1:]]
        assert all(sigma > 0.0 for sigma in sigmas)
        meta = payload["meta"]
        assert 12.0 <= meta["peak_phi_deg"] <= 18.0
        assert 19.0 <= meta["peak_fisher"] <= 22.0
        assert meta["snl_ratio"] >= 3.0

    def test_noon_cosine_peak(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "fisher", "--mode", "single", "--state", "noon", "--n", "6",
                "--outcome", "3:3", "--model", "noon-cosine",
                "--visibility", "0.94", "--format", "json",
            ],
        )
        assert code == 0
        meta = json.loads(out)["meta"]
        assert meta["peak_fisher"] == pytest.approx(16.91, abs=0.05)

    def test_full_mode_is_phase_independent(self, capsys):
        code, out, _ = _run(
            capsys,
            [
                "fisher", "--mode", "full", "--state", "hb", "--n", "6",
                "--phi-step", "1", "--format", "json",
            ],
        )
        assert code == 0
        values = [row[1] for row in json.loads(out)["rows"]]
        assert max(values) - min(values) < 1e-8
        assert values[0] == pytest.approx(24.0, abs=1e-8)

    @pytest.mark.parametrize(
        "mode", [["single", "--outcome", "3:3"], ["full"]], ids=["single", "full"]
    )
    def test_one_point_grid_is_its_own_peak(self, capsys, mode):
        code, out, err = _run(
            capsys,
            ["fisher", "--mode", *mode, "--state", "hb", "--n", "6",
             "--phi-start", "1", "--phi-end", "1", "--format", "json"],
        )
        assert code == 0
        assert err.startswith("peak: phi_deg=1 ")
        payload = json.loads(out)
        meta, rows = payload["meta"], payload["rows"]
        assert rows == [[1.0, meta["peak_fisher"]]] and meta["peak_phi_deg"] == 1.0

    def test_band_requires_a_contrast_model(self, capsys):
        code, _, err = _run(
            capsys,
            [
                "fisher", "--mode", "single", "--state", "hb", "--n", "6",
                "--outcome", "3:3", "--band",
            ],
        )
        assert code == 2
        assert "--band" in err

    def test_band_is_rejected_in_full_mode(self, capsys):
        code, _, err = _run(
            capsys, ["fisher", "--mode", "full", "--state", "hb", "--n", "6", "--band"]
        )
        assert code == 2
        assert "--band" in err


class TestScalingCommand:
    def test_table_to_forty(self, capsys):
        code, out, _ = _run(capsys, ["scaling", "--n-max", "40"])
        assert code == 0
        header, rows, _ = _csv_rows(out)
        assert header == "n,snl,noon_single,hb_single"
        assert len(rows) == 20
        assert rows[0][0] == "2"
        assert rows[-1][0] == "40"
        assert float(rows[-1][3]) == 840.0

    def test_small_photon_numbers_tie(self, capsys):
        code, out, _ = _run(capsys, ["scaling", "--n-max", "4"])
        assert code == 0
        _, rows, _ = _csv_rows(out)
        for row in rows:
            assert float(row[2]) == float(row[3])

    def test_odd_max_rounds_down(self, capsys):
        code, out, _ = _run(capsys, ["scaling", "--n-max", "3"])
        assert code == 0
        _, rows, _ = _csv_rows(out)
        assert [row[0] for row in rows] == ["2"]

    def test_asymptotic_column(self, capsys):
        code, out, _ = _run(
            capsys, ["scaling", "--n-max", "8", "--asymptotic", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"][-1] == "noon_asymptotic"
        for row in payload["rows"]:
            assert row[-1] == pytest.approx(
                math.sqrt(8.0 / math.pi) * row[0] ** 1.5, rel=1e-9
            )

    def test_too_small_exits_3(self, capsys):
        code, _, err = _run(capsys, ["scaling", "--n-max", "1"])
        assert code == 3
        assert "physics error" in err


class TestSimulateCommand:
    def _plan(self, tmp_path, **overrides):
        data = {
            "state": "hb",
            "n": 6,
            "phases_deg": [0.0],
            "shots": 50,
            "seed": 7,
        }
        data.update(overrides)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_bright_fringe_counts(self, capsys, tmp_path):
        plan = self._plan(tmp_path)
        code, out, _ = _run(capsys, ["simulate", "--plan", plan])
        assert code == 0
        header, rows, comments = _csv_rows(out)
        assert header == "phi_deg,shots,counts"
        assert rows == [["0", "50", "3:3=50"]]
        assert comments == ["# seed=7"]

    def test_same_plan_reproduces(self, capsys, tmp_path):
        plan = self._plan(tmp_path, phases_deg=[5.0, 15.0], shots=400)
        _, first, _ = _run(capsys, ["simulate", "--plan", plan])
        _, second, _ = _run(capsys, ["simulate", "--plan", plan])
        assert first == second

    def test_json_output_mirrors_csv(self, capsys, tmp_path):
        plan = self._plan(tmp_path, phases_deg=[5.0, 15.0], shots=400)
        _, csv_text, _ = _run(capsys, ["simulate", "--plan", plan])
        _, json_text, _ = _run(
            capsys, ["simulate", "--plan", plan, "--format", "json"]
        )
        from_csv = records_from_csv(csv_text)
        from_json = records_from_json(json_text)
        assert from_csv == from_json

    def test_grid_plan(self, capsys, tmp_path):
        data = {
            "state": "hb",
            "n": 6,
            "shots": 50,
            "seed": 7,
            "phi_start": 0.0,
            "phi_end": 9.0,
            "phi_step": 3.0,
        }
        plan = tmp_path / "grid_plan.json"
        plan.write_text(json.dumps(data))
        code, out, _ = _run(capsys, ["simulate", "--plan", str(plan)])
        assert code == 0
        _, rows, _ = _csv_rows(out)
        assert [row[0] for row in rows] == ["0", "3", "6", "9"]

    def test_invalid_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        code, _, err = _run(capsys, ["simulate", "--plan", str(path)])
        assert code == 2
        assert "JSON" in err

    def test_missing_keys_exit_2(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"state": "hb", "n": 6}))
        code, _, err = _run(capsys, ["simulate", "--plan", str(path)])
        assert code == 2
        assert "missing" in err

    def test_model_plan_takes_state_and_n_from_the_plan(self, capsys, tmp_path):
        model = {"kind": "affine", "visibility": 0.94, "peak": 0.9, "outcome": "3:3"}
        plan = self._plan(tmp_path, phases_deg=[5.0, 15.0], shots=400, model=model)
        code, out, _ = _run(capsys, ["simulate", "--plan", plan])
        assert code == 0
        expected = simulate_counts(ExperimentPlan(
            "hb", 6, (math.radians(5.0), math.radians(15.0)), 400, 7,
            model=affine_from_visibility("hb", 6, P33, 0.94, 0.9),
        ))
        assert records_from_csv(out) == (expected, 7)

    def test_config_overrides_plan_detectors(self, capsys, tmp_path):
        # One counter per port saturates at one click, so no six-photon
        # event survives; the config file restores a resolving array.
        plan = self._plan(
            tmp_path, phases_deg=[15.0], shots=300, detectors={"k": 1}
        )
        config = tmp_path / "detectors.conf"
        config.write_text(
            "# detector array\ndetectors { k = 5, eta = 1.0 }\n"
        )
        code, starved, _ = _run(capsys, ["simulate", "--plan", plan])
        assert (code, starved) == (3, "")
        code, out, _ = _run(
            capsys, ["simulate", "--plan", plan, "--config", str(config)]
        )
        assert code == 0
        _, rows, _ = _csv_rows(out)
        assert rows[0][2] != ""

    def test_plan_that_can_record_nothing_exits_3(self, capsys, tmp_path):
        # k counters per port register at most 2k photons, so an N = 12
        # plan with k = 5 has no click pattern to record; the check runs
        # on the detectors left after a --config override.
        plan = self._plan(tmp_path, n=12, detectors={"k": 5, "eta": 0.9})
        code, out, err = _run(capsys, ["simulate", "--plan", plan])
        assert (code, out) == (3, "")
        assert err.startswith("fringelab: physics error: ")
        assert err.count("\n") == 1
        assert "N = 12" in err and "2k = 10" in err
        config = tmp_path / "detectors.conf"
        config.write_text("detectors { k = 6, eta = 0.9 }\n")
        code, _, _ = _run(
            capsys, ["simulate", "--plan", plan, "--config", str(config)]
        )
        assert code == 0

    def test_unknown_detector_key_exits_2(self, capsys, tmp_path):
        plan = self._plan(tmp_path)
        config = tmp_path / "detectors.conf"
        config.write_text("detectors { gain = 2 }\n")
        code, _, err = _run(
            capsys, ["simulate", "--plan", plan, "--config", str(config)]
        )
        assert code == 2
        assert "unknown detector settings" in err


class TestEstimateCommand:
    def test_help_documents_the_model_flags(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["estimate", "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        for text in ("fringe contrast", "peak probability a+b", "noon-cosine baseline q"):
            assert text in out

    def _counts_file(self, tmp_path, records, seed=None):
        path = tmp_path / "counts.csv"
        path.write_text(records_to_csv(records, seed=seed))
        return str(path)

    def _simulated_counts(self, capsys, tmp_path, **overrides):
        data = {
            "state": "hb",
            "n": 6,
            "phases_deg": list(np.linspace(9.0, 30.0, 8)),
            "shots": 100_000,
            "seed": 31_000,
        }
        data.update(overrides)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(data))
        counts = tmp_path / "counts.csv"
        code = main(
            ["simulate", "--plan", str(plan), "--out", str(counts)]
        )
        assert code == 0
        capsys.readouterr()
        return str(counts)

    def test_direct_report(self, capsys, tmp_path):
        counts = self._simulated_counts(capsys, tmp_path)
        code, out, _ = _run(
            capsys,
            [
                "estimate", "--counts", counts, "--outcome", "3:3",
                "--method", "direct",
            ],
        )
        assert code == 0
        report = json.loads(out)
        assert report["method"] == "direct"
        assert report["outcome"] == "3:3"
        assert report["records"] == 8
        assert report["shots"] == 800_000
        assert report["seed"] == 31_000
        assert report["window"] == [9.0, 30.0]
        assert report["points"] == 8
        assert report["snl_ratio"] == pytest.approx(report["estimate"] / 6.0, rel=1e-9)
        assert isinstance(report["low_confidence"], bool)
        assert report["phi_mid_deg"] == pytest.approx(19.5, abs=1e-9)

    def test_direct_window_narrows_points(self, capsys, tmp_path):
        counts = self._simulated_counts(capsys, tmp_path)
        code, out, _ = _run(
            capsys,
            [
                "estimate", "--counts", counts, "--outcome", "3:3",
                "--method", "direct", "--window", "9:21",
            ],
        )
        assert code == 0
        assert json.loads(out)["points"] == 5

    def test_fit_report(self, capsys, tmp_path):
        counts = self._simulated_counts(
            capsys,
            tmp_path,
            phases_deg=list(np.arange(0.0, 91.0, 7.5)),
            shots=20_000,
            seed=424,
        )
        code, out, _ = _run(
            capsys,
            ["estimate", "--counts", counts, "--outcome", "3:3", "--method", "fit"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["model_kind"] == "affine"
        assert report["param_names"] == ["a", "b"]
        assert len(report["params"]) == 2
        assert len(report["cov"]) == 2
        assert report["estimate"] == pytest.approx(1.0, abs=0.02)
        assert report["stderr"] > 0.0
        assert set(report["model_params"]) == {"amplitude", "offset", "visibility"}

    def test_mle_report_in_degrees(self, capsys, tmp_path):
        counts = self._simulated_counts(
            capsys, tmp_path, phases_deg=[15.0], shots=20_000, seed=21
        )
        code, out, _ = _run(
            capsys,
            ["estimate", "--counts", counts, "--outcome", "3:3", "--method", "mle"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["model_kind"] == "ideal"
        assert report["window"] == [0.0, 30.0]
        assert report["estimate"] == pytest.approx(15.0, abs=0.5)
        assert 0.0 < report["stderr"] < 0.5
        assert report["at_boundary"] is False
        assert report["log_likelihood"] < 0.0

    def test_mle_full_model(self, capsys, tmp_path):
        counts = self._simulated_counts(
            capsys, tmp_path, phases_deg=[15.0], shots=20_000, seed=21
        )
        code, out, _ = _run(
            capsys,
            [
                "estimate", "--counts", counts, "--outcome", "3:3",
                "--method", "mle", "--model", "full",
            ],
        )
        assert code == 0
        report = json.loads(out)
        assert report["model_kind"] == "full"
        assert report["estimate"] == pytest.approx(15.0, abs=0.5)

    def test_bad_window_exits_2(self, capsys, tmp_path):
        counts = self._counts_file(
            tmp_path,
            [CountRecord(phi=0.0, shots=10, outcome_counts={P33: 5})],
        )
        code, _, err = _run(
            capsys,
            [
                "estimate", "--counts", counts, "--outcome", "3:3",
                "--method", "direct", "--window", "30:9",
            ],
        )
        assert code == 2
        assert "--window" in err

    def test_wrong_header_exits_2(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("phi,shots,counts\n0,10,3:3=5\n")
        code, _, err = _run(
            capsys,
            ["estimate", "--counts", str(path), "--outcome", "3:3",
             "--method", "direct"],
        )
        assert code == 2
        assert "header" in err

    def test_too_few_phases_exit_3(self, capsys, tmp_path):
        counts = self._counts_file(
            tmp_path,
            [
                CountRecord(phi=math.radians(10.0), shots=10, outcome_counts={P33: 5}),
                CountRecord(phi=math.radians(20.0), shots=10, outcome_counts={P33: 5}),
            ],
        )
        code, _, err = _run(
            capsys,
            ["estimate", "--counts", counts, "--outcome", "3:3",
             "--method", "direct"],
        )
        assert code == 3
        assert "three distinct phases" in err


class TestRecordSerialization:
    RECORDS = [
        CountRecord(
            phi=math.radians(12.0),
            shots=100,
            outcome_counts={OutcomePattern(6, 0): 3, P33: 55},
        ),
        CountRecord(phi=math.radians(21.5), shots=100, outcome_counts={}),
    ]

    def test_csv_round_trip(self):
        text = records_to_csv(self.RECORDS, seed=99)
        records, seed = records_from_csv(text)
        assert seed == 99
        assert records == self.RECORDS

    def test_json_round_trip(self):
        text = records_to_json(self.RECORDS, seed=99)
        records, seed = records_from_json(text)
        assert seed == 99
        assert records == self.RECORDS

    def test_read_counts_sniffs_format(self, tmp_path):
        csv_path = tmp_path / "a.csv"
        csv_path.write_text(records_to_csv(self.RECORDS))
        json_path = tmp_path / "b.json"
        json_path.write_text(records_to_json(self.RECORDS))
        assert read_counts(str(csv_path)) == read_counts(str(json_path))

    def test_float_counts_survive(self):
        records = [
            CountRecord(phi=0.1, shots=10, outcome_counts={P33: 2.5})
        ]
        round_tripped, _ = records_from_csv(records_to_csv(records))
        assert round_tripped[0].outcome_counts[P33] == 2.5


class TestCsvTable:
    COLUMNS = ["x", "np", "n", "flag", "nan", "inf", "zero", "name"]
    ROWS = [
        [0.1, np.float64(1.0) / 3.0, 2, True, math.nan, math.inf, -0.0, "3:3"],
        [1e-300, np.float64(-2.5e20), 10**15, False, math.nan, -math.inf, 0.0, "a"],
        [123456789.0123, np.float64(7.0), -4, True, math.nan, math.inf, -0.0, ""],
    ]
    META = {"peak": 24.0, "ok": True}

    @staticmethod
    def _per_cell(columns, rows, meta):
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
        lines.extend(f"# {key}={_fmt(value)}" for key, value in meta.items())
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("rows", [ROWS, []], ids=["typed", "empty"])
    def test_matches_per_cell_formatting(self, capsys, rows):
        args = argparse.Namespace(format="csv", out=None)
        _emit_table(args, self.COLUMNS, rows, self.META)
        assert capsys.readouterr().out == self._per_cell(self.COLUMNS, rows, self.META)


class TestConfigParsing:
    def test_blocks_commas_and_comments(self):
        text = (
            "# detector array used on the bench\n"
            "detectors { k = 5, eta = 0.8 }  # inline note\n"
            "other {\n  x = 1\n  y = 2\n}\n"
        )
        blocks = parse_config_blocks(text)
        assert blocks["detectors"] == {"k": 5.0, "eta": 0.8}
        assert blocks["other"] == {"x": 1.0, "y": 2.0}

    def test_bad_entry_rejected(self):
        from fringelab.cli import UsageError

        with pytest.raises(UsageError):
            parse_config_blocks("detectors { k 5 }")


_PLAN = {"state": "hb", "n": 6, "phases_deg": [15.0], "shots": 100, "seed": 5}
_SIMULATE = ["simulate", "--plan", "{file}"]
_ESTIMATE = ["estimate", "--counts", "{file}", "--outcome", "3:3", "--method", "mle"]
_HB6 = ["--state", "hb", "--n", "6", "--outcome", "3:3"]


# A scan whose every recorded pattern holds 7 photons, read for the 6-photon
# outcome 3:3.
_COUNTS_OF_OTHER_N = (
    "phi_deg,shots,counts\n0,100,3:4=90\n10,100,3:4=50\n20,100,3:4=10\n30,100,3:4=5\n"
)


def _counts_json(value):
    """A one-record counts file whose 3:3 count is the JSON text ``value``."""
    return _counts_record('{"3:3": %s}' % value)


def _counts_record(counts, seed="null"):
    """A one-record counts file whose counts and seed fields are the JSON
    texts ``counts`` and ``seed``."""
    return (
        '{"seed": %s, "records": [{"phi_deg": 15, "shots": 100, "counts": %s}]}'
        % (seed, counts)
    )


class TestExitContract:
    @staticmethod
    def _exits_with_one_line(capsys, tmp_path, text, argv, status, prefix):
        """Run ``argv`` with ``{file}`` holding ``text``; return its one line
        of stderr after checking the exit status and that stdout is empty."""
        path = tmp_path / "input"
        path.write_text(text)
        code, out, err = _run(capsys, [a.replace("{file}", str(path)) for a in argv])
        assert code == status
        assert out == ""
        assert err.startswith(prefix)
        assert err.count("\n") == 1 and err.endswith("\n")
        return err

    @pytest.mark.parametrize(
        "text, argv, fragment",
        [
            (json.dumps({**_PLAN, "n": "abc"}), _SIMULATE, "plan n"),
            (json.dumps({**_PLAN, "seed": -1}), _SIMULATE, "plan seed"),
            (json.dumps({**_PLAN, "n": 6.7}), _SIMULATE, "plan n"),
            (json.dumps({**_PLAN, "shots": 100.9}), _SIMULATE, "plan shots"),
            (json.dumps({**_PLAN, "phases_deg": ["nan"]}), _SIMULATE, "phases_deg"),
            (
                "phi_deg,shots,counts\nabc,10,3:3=5\n",
                ["estimate", "--counts", "{file}", "--outcome", "3:3",
                 "--method", "mle"],
                "phi_deg",
            ),
            (
                "",
                ["fringe", "--state", "hb", "--n", "6", "--outcome", "3:3",
                 "--phi-end", "nan"],
                "--phi-end",
            ),
            (json.dumps({**_PLAN, "shots": True}), _SIMULATE, "plan shots"),
            (_counts_json("1e400"), _ESTIMATE, "event count"),
            (_counts_json('"abc"'), _ESTIMATE, "event count"),
            (_counts_json("true"), _ESTIMATE, "event count"),
            (
                "",
                ["fringe", "--state", "hb", "--n", "6", "--outcome", "3:3",
                 "--phi-end", "1e9", "--phi-step", "1e-9"],
                "phase grid",
            ),
            (json.dumps({**_PLAN, "phases_deg": 5}), _SIMULATE, "plan phases_deg"),
            (json.dumps({**_PLAN, "detectors": 5}), _SIMULATE, "plan detectors"),
            (json.dumps({**_PLAN, "model": "affine"}), _SIMULATE, "plan model"),
            ("", ["fringe", *_HB6, "--model", "noon-cosine", "--amplitude", "nan"],
             "--amplitude must be a finite number"),
            (
                "",
                ["fisher", "--mode", "single", *_HB6, "--model", "affine", "--band",
                 "--visibility-sigma", "nan"],
                "--visibility-sigma must be a finite number",
            ),
            ("", ["fringe", *_HB6, "--model", "affine", "--visibility", "inf"],
             "--visibility must be a finite number"),
            (_counts_record("[1, 2]"), _ESTIMATE, "record counts must be a JSON object"),
            (_counts_record('"3:3=5"'), _ESTIMATE, "record counts must be a JSON object"),
            (json.dumps({**_PLAN, "model": {"kind": "affine", "visiblity": 0.5}}),
             _SIMULATE, "unknown model settings ['visiblity']"),
            (json.dumps({**_PLAN, "model": {"n": 4, "outcome": "2:2"}}), _SIMULATE,
             "unknown model settings ['n']"),
            (_counts_record("{}", '"x"'), _ESTIMATE, "counts seed must be a finite number"),
            (_counts_record("{}", "1.5"), _ESTIMATE, "counts seed must be a whole number"),
            (_counts_record("{}", "true"), _ESTIMATE, "counts seed must be a finite number"),
            ("phi_deg,shots,counts\n15,100,3:3=5\n# seed=1.5\n", _ESTIMATE,
             "counts seed must be a whole number"),
            ("", ["scaling", "--n-max", "100000000"], "scaling table"),
        ],
        ids=["plan-n-abc", "plan-negative-seed", "plan-fractional-n",
             "plan-fractional-shots", "plan-nan-phase", "counts-text-phase",
             "fringe-nan-end", "plan-bool-shots", "counts-json-inf",
             "counts-json-text", "counts-json-bool", "fringe-oversized-grid",
             "plan-phases-not-list", "plan-detectors-not-object",
             "plan-model-not-object", "fringe-nan-amplitude",
             "fisher-nan-visibility-sigma", "fringe-inf-visibility",
             "counts-json-list", "counts-json-string", "plan-model-misspelt-key",
             "plan-model-n", "counts-json-text-seed", "counts-json-fractional-seed",
             "counts-json-bool-seed", "counts-csv-fractional-seed",
             "scaling-oversized-table"],
    )
    def test_malformed_input_exits_2_with_one_line(
        self, capsys, tmp_path, text, argv, fragment
    ):
        err = self._exits_with_one_line(
            capsys, tmp_path, text, argv, 2, "fringelab: error: "
        )
        assert fragment in err

    @pytest.mark.parametrize(
        "text, argv, fragment",
        [
            (json.dumps({**_PLAN, "model": {"kind": "affine"}, "detectors": {"k": 5}}),
             _SIMULATE, "takes no detectors"),
            (json.dumps({**_PLAN, "model": {"outcome": "2:2"}}), _SIMULATE,
             "2:2 has 4 photons, model has 6"),
            (_counts_record('{"3:4": 4}'), [*_ESTIMATE, "--model", "ideal"],
             "3:4 has 7 photons, state has 6"),
            (_counts_record('{"3:4": 4}'), [*_ESTIMATE, "--model", "noon-cosine"],
             "3:4 has 7 photons, state has 6"),
            (_COUNTS_OF_OTHER_N,
             ["estimate", "--counts", "{file}", "--outcome", "3:3", "--method", "fit"],
             "3:4 has 7 photons, state has 6"),
            (_COUNTS_OF_OTHER_N,
             ["estimate", "--counts", "{file}", "--outcome", "3:3", "--method", "direct",
              "--window", "0:30"],
             "3:4 has 7 photons, state has 6"),
        ],
        ids=["plan-model-with-detectors", "plan-model-outcome-of-other-n",
             "mle-ideal-pattern-of-other-n", "mle-noon-pattern-of-other-n",
             "fit-pattern-of-other-n", "direct-pattern-of-other-n"],
    )
    def test_physics_violation_exits_3_with_one_line(
        self, capsys, tmp_path, text, argv, fragment
    ):
        err = self._exits_with_one_line(
            capsys, tmp_path, text, argv, 3, "fringelab: physics error: "
        )
        assert fragment in err

    @pytest.mark.parametrize(
        "kernel, argv",
        [
            ("apply_model", ["fringe", *_HB6]),
            ("single_fringe_fisher_model", ["fisher", "--mode", "single", *_HB6]),
            ("full_fisher", ["fisher", "--mode", "full", "--state", "hb", "--n", "6"]),
            ("simulate_counts", _SIMULATE),
        ],
        ids=["fringe", "fisher-single", "fisher-full", "simulate"],
    )
    def test_out_of_memory_exits_2_with_one_line(
        self, capsys, tmp_path, monkeypatch, kernel, argv
    ):
        # The kernel raises as numpy does when an array cannot be allocated,
        # without allocating anything.
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, kernel, exhausted)
        err = self._exits_with_one_line(
            capsys, tmp_path, json.dumps(_PLAN), argv, 2, "fringelab: error: "
        )
        assert err == (
            "fringelab: error: needs more memory than is available; "
            "use a coarser grid or a smaller N\n"
        )

    @pytest.mark.parametrize(
        "text",
        [
            "phi_deg,shots,counts\n15,0,3:3=0\n",
            json.dumps({"records": [{"phi_deg": 15, "shots": 0, "counts": {"3:3": 0}}]}),
        ],
        ids=["csv", "json"],
    )
    def test_zero_shots_is_a_physics_error_in_both_formats(self, capsys, tmp_path, text):
        path = tmp_path / "counts"
        path.write_text(text)
        code, out, err = _run(
            capsys,
            ["estimate", "--counts", str(path), "--outcome", "3:3", "--method", "mle"],
        )
        assert code == 3
        assert out == ""
        assert err.startswith("fringelab: physics error: ")
        assert err.count("\n") == 1 and "shots" in err

    def test_integral_float_counts_as_an_integer(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({**_PLAN, "n": 6.0, "shots": 100.0}))
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(_PLAN))
        assert _run(capsys, ["simulate", "--plan", str(path)]) == _run(
            capsys, ["simulate", "--plan", str(plain)]
        )


class TestImports:
    @staticmethod
    def _python(code):
        """Run ``code`` in a fresh interpreter that imports this fringelab."""
        import fringelab

        src = str(Path(fringelab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        return subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=60,
        )

    def test_all_names_exactly_the_public_surface(self):
        import fringelab

        star = {}
        exec("from fringelab import *", star)  # raises on a name that is not there
        assert sorted(set(star) - {"__builtins__"}) == sorted(fringelab.__all__)

    def test_cli_import_leaves_scipy_unloaded(self):
        # The runtime depends on numpy alone; scipy is a test dependency.
        result = self._python(
            "import fringelab.cli, sys; assert 'scipy' not in sys.modules"
        )
        assert result.returncode == 0, result.stderr

    def test_parser_is_built_once_on_first_use(self):
        # Importing builds nothing; the six commands of the N = 6 analysis
        # session then share one parser.
        session = [
            ["fringe", "--state", "hb", "--n", "6", "--outcome", "3:3",
             "--phi-end", "180", "--phi-step", "0.5"],
            ["fisher", "--mode", "single", "--state", "hb", "--n", "6",
             "--outcome", "3:3"],
            ["fisher", "--mode", "single", "--state", "hb", "--n", "6",
             "--outcome", "3:3", "--model", "affine", "--visibility", "0.94",
             "--band"],
            ["fisher", "--mode", "full", "--state", "hb", "--n", "6"],
            ["fisher", "--mode", "single", "--state", "noon", "--n", "6",
             "--outcome", "3:3"],
            ["scaling", "--n-max", "100", "--asymptotic"],
        ]
        result = self._python(
            "import contextlib, io\n"
            "from fringelab.cli import build_parser, main\n"
            "assert build_parser.cache_info().currsize == 0\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    codes = [main(argv) for argv in {session!r}]\n"
            "assert codes == [0] * 6, codes\n"
            "info = build_parser.cache_info()\n"
            "assert (info.misses, info.hits) == (1, 5), info\n"
        )
        assert result.returncode == 0, result.stderr

    def test_mle_estimate_leaves_scipy_unloaded(self, tmp_path):
        probs = fringe_probabilities(hb_state(6), math.radians(15.0))
        counts = {OutcomePattern(k, 6 - k): int(1000 * p) for k, p in enumerate(probs)}
        path = tmp_path / "counts.csv"
        path.write_text(records_to_csv([CountRecord(0.0, 1000, counts)]))
        argv = ["estimate", "--counts", str(path), "--outcome", "3:3", "--method", "mle"]
        result = self._python(
            "import sys\n"
            "from fringelab.cli import main\n"
            "for model in ('ideal', 'full'):\n"
            f"    assert main({argv!r} + ['--model', model]) == 0\n"
            "assert 'scipy' not in sys.modules\n"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.count('"method": "mle"') == 2
