import contextlib
import errno
import inspect
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bb84rate import (ChannelModel, DetectorModel, NoPositiveRateError, OptimizationConfig,
                      ProtocolParams, SecurityParams, SourceModel, TrialConfig, click_error_probs,
                      optimize_point)
from bb84rate import cli
from bb84rate.cli import main, read_result_csv
from bb84rate.config import _SCHEMA, ConfigError, load_config, parse_values

FAST_OPT = """
[optimizer]
grid_resolution = 8
refinement_rounds = 1
loss_bisection_tol_db = 0.1
"""

QUICK_ORACLE = """
[oracle]
seed = 4242
n_pulses = 200000
eps_test = 0.01
chernoff_trials = 20000
sampling_trials = 2000
losses_db = 0,20
"""


def kernel_qber(distance_km, p_mis):
    src = SourceModel(0.0142, 0.036, 160.7e6)
    det = DetectorModel(0.6525, 1.47e-7, 27.5e-9, p_mis)
    p_c, p_e = click_error_probs(src, ChannelModel.from_fiber(distance_km, 0.1904), det)
    return p_e / p_c


def os_error_text(code, path):
    """The text of the OSError with errno code that opening path raises."""
    return f"[Errno {code}] {os.strerror(code)}: {path!r}"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def curve_rows(tmp_path, command, cfg):
    """The header, the CSV rows and the JSON rows of one curve run.

    Each JSON row is re-dumped as a list in header order, so the text tells
    0 from 0.0 and shows NaN.
    """
    csv_out, json_out = tmp_path / "out.csv", tmp_path / "out.json"
    assert main([command, "--config", cfg, "--out", str(csv_out)]) == 0
    assert main([command, "--config", cfg, "--out", str(json_out), "--format", "json"]) == 0
    _, header, rows = read_result_csv(str(csv_out))
    payload = json.loads(json_out.read_text(encoding="utf-8"))
    return header, rows, [json.dumps([row[c] for c in header]) for row in payload["rows"]]


class TestRunSweep:
    def test_per_point_errors_flagged(self, source, detector, fast_opt):
        def row_at(d):
            point = optimize_point(source, ChannelModel.from_fiber(d), detector, fast_opt,
                                   mode="asymptotic")
            return [d, point.rate_bps]

        rows = cli.run_sweep((-5.0, 10.0), row_at, lambda d: [d, 0.0])
        assert rows[0] == [-5.0, 0.0, "error: length_km must be >= 0, got -5.0"]
        assert rows[1][0] == 10.0 and rows[1][1] > 0.0 and rows[1][2] == "ok"

    def test_each_rejection_has_its_status(self):
        def row_at(value):
            if value == 1:
                raise NoPositiveRateError("no key")
            if value == 2:
                raise ZeroDivisionError("float division by zero")
            return [value, 10 * value]

        rows = cli.run_sweep([0, 1, 2, 3], row_at, lambda value: [value, -1])
        assert rows == [[0, 0, "ok"], [1, -1, "no_key_at_any_loss"],
                        [2, -1, "error: float division by zero"], [3, 30, "ok"]]

    def test_other_failures_propagate(self):
        def row_at(value):
            raise RuntimeError("not a sweep rejection")

        with pytest.raises(RuntimeError, match="^not a sweep rejection$"):
            cli.run_sweep([0], row_at, lambda value: [value])


class TestAsymptoticCommand:
    def test_curve_file(self, tmp_path):
        cfg = write(tmp_path / "run.ini", FAST_OPT + "[asymptotic]\ndistances_km = 0,100,175\n")
        out = tmp_path / "akr.csv"
        assert main(["asymptotic", "--config", cfg, "--out", str(out)]) == 0
        echo, header, rows = read_result_csv(str(out))
        assert header[:6] == ["distance_km", "loss_db", "rate_bps",
                              "single_photon_fraction", "qber", "p_click"]
        assert len(rows) == 3
        assert echo["source.mean_photon_number"] == "0.0142"
        # positive rate through the longest demonstrated distance
        assert float(rows[-1][header.index("rate_bps")]) > 0.0

    def test_empty_distance_list(self, tmp_path):
        cfg = write(tmp_path / "run.ini", "[asymptotic]\ndistances_km =\n")
        out = tmp_path / "akr.csv"
        assert main(["asymptotic", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_result_csv(str(out))
        assert header and rows == []

    def test_zero_brightness_gives_zero_rates(self, tmp_path):
        cfg = write(tmp_path / "run.ini",
                    FAST_OPT + "[source]\nmean_photon_number = 0\n"
                    "[asymptotic]\ndistances_km = 0,50\n")
        out = tmp_path / "akr.csv"
        assert main(["asymptotic", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_result_csv(str(out))
        assert all(float(r[header.index("rate_bps")]) == 0.0 for r in rows)

    def test_error_rows_keep_csv_shape(self, tmp_path):
        # a failed point must not smuggle commas into the unquoted schema
        cfg = write(tmp_path / "run.ini", FAST_OPT + "[asymptotic]\ndistances_km = -5,10\n")
        out = tmp_path / "akr.csv"
        assert main(["asymptotic", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_result_csv(str(out))
        assert all(len(r) == len(header) for r in rows)
        assert rows[0][header.index("status")].startswith("error:")
        assert rows[1][header.index("status")] == "ok"

    def test_error_rows_pin_every_cell(self, tmp_path):
        # a rejected distance keeps its distance and loss, with rate 0 and NaN elsewhere
        cfg = write(tmp_path / "run.ini",
                    FAST_OPT + "[asymptotic]\ndistances_km = -5,10,1e400\n")
        _, rows, json_rows = curve_rows(tmp_path, "asymptotic", cfg)
        assert rows[0] == ["-5", "-0.952", "0", "nan", "nan", "nan", "nan",
                           "error: length_km must be >= 0; got -5.0"]
        assert rows[1][-1] == "ok"
        assert rows[2] == ["inf", "inf", "0", "nan", "nan", "nan", "nan",
                           "error: length_km must be finite; got inf"]
        assert json_rows[0] == ('[-5.0, -0.9520000000000001, 0.0, NaN, NaN, NaN, NaN, '
                                '"error: length_km must be >= 0, got -5.0"]')
        assert json_rows[1].endswith(', "ok"]')
        assert json_rows[2] == ('[Infinity, Infinity, 0.0, NaN, NaN, NaN, NaN, '
                                '"error: length_km must be finite, got inf"]')

    def test_infinite_distance_row_names_the_length(self, tmp_path):
        # the row once read "error: loss_db must be finite and >= 0; got inf"
        cfg = write(tmp_path / "run.ini", FAST_OPT + "[asymptotic]\ndistances_km = 10,inf\n")
        out = tmp_path / "akr.csv"
        assert main(["asymptotic", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_result_csv(str(out))
        assert [r[header.index("status")] for r in rows] == [
            "ok", "error: length_km must be finite; got inf"]

    def test_byte_deterministic(self, tmp_path):
        cfg = write(tmp_path / "run.ini", FAST_OPT + "[asymptotic]\ndistances_km = 0,50\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["asymptotic", "--config", cfg, "--out", str(a)]) == 0
        assert main(["asymptotic", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFiniteCommand:
    def test_acquisition_time_rows(self, tmp_path):
        cfg = write(tmp_path / "run.ini",
                    FAST_OPT + "[channel]\ndistance_km = 100\n"
                    "[finite]\nacquisition_times_s = 1,60\n")
        out = tmp_path / "fin.csv"
        assert main(["finite", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_result_csv(str(out))
        assert header[0] == "acquisition_time_s"
        rates = [float(r[header.index("rate_bps")]) for r in rows]
        assert rates[1] > 0.0
        # every intermediate is emitted for audit
        for col in ("phi_x_upper", "lambda_ec", "n_nmp_x", "ell"):
            assert col in header

    def test_tiny_block_below_penalty_floor(self, tmp_path):
        # a microsecond of pulses cannot pay the fixed security penalties
        cfg = write(tmp_path / "run.ini",
                    FAST_OPT + "[finite]\nacquisition_times_s = 1e-6\n")
        out = tmp_path / "fin.csv"
        assert main(["finite", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_result_csv(str(out))
        assert float(rows[0][header.index("rate_bps")]) == 0.0
        assert int(rows[0][header.index("ell")]) == 0

    def test_tiny_misalignment_keeps_its_key(self, tmp_path):
        # at an error rate of 1e-300 the sampling correction once overflowed
        # to NaN, which clamped the phase error to 1/2 and gave 0 bps
        rates = []
        for misalignment in ("1e-300", "1e-200"):
            cfg = write(tmp_path / "run.ini",
                        f"[detector]\nmisalignment = {misalignment}\ndark_count_prob = 0\n"
                        "[source]\ng2 = 0\n[finite]\nblock_sizes_received = 1e8\n")
            out = tmp_path / "fin.csv"
            assert main(["finite", "--config", cfg, "--out", str(out)]) == 0
            _, header, rows = read_result_csv(str(out))
            rates.append(float(rows[0][header.index("rate_bps")]))
        assert rates[0] > 0.0
        assert rates[0] == pytest.approx(rates[1], rel=0.02)

    def test_less_than_one_pe_detection_is_an_ok_row(self, tmp_path):
        # at eps_prime = 0.2 the Z block of 5 received detections is below one
        # detection but above the Chernoff cap; that row was once an error row
        # ("n and k must be finite and >= 1") between two ok rows
        cfg = write(tmp_path / "run.ini",
                    "[security]\neps_prime = 0.2\n[finite]\nblock_sizes_received = 1.5,2,5\n"
                    "[optimizer]\np_x_max = 0.6\n")
        out = tmp_path / "fin.csv"
        assert main(["finite", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_result_csv(str(out))
        assert [r[header.index("status")] for r in rows] == ["ok"] * 3
        assert [int(r[header.index("ell")]) for r in rows] == [0] * 3
        assert 0.0 < float(rows[2][header.index("n_rx_z")]) < 1.0
        assert float(rows[2][header.index("phi_x_upper")]) == 0.5

    def test_block_size_rows_ordered(self, tmp_path):
        cfg = write(tmp_path / "run.ini",
                    FAST_OPT + "[channel]\nloss_db = 0\n"
                    "[finite]\nblock_sizes_received = 1e5,1e6,1e7\n")
        out = tmp_path / "fin.csv"
        assert main(["finite", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_result_csv(str(out))
        rates = [float(r[header.index("rate_bps")]) for r in rows]
        assert rates == sorted(rates)

    @pytest.mark.parametrize("line, block", [
        ("block_sizes_received = nan", "n_received"),
        ("block_sizes_received = inf", "n_received"),
        ("block_sizes_received = -1", "n_received"),
        ("acquisition_times_s = inf", "n_sent"),
    ])
    def test_block_that_is_not_finite_and_non_negative_is_an_error_row(self, tmp_path, line,
                                                                        block):
        # such a block once gave an "ok" row with NaN or inf counts
        cfg = write(tmp_path / "run.ini", FAST_OPT + f"[finite]\n{line}\n")
        out = tmp_path / "fin.csv"
        assert main(["finite", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_result_csv(str(out))
        assert rows[0][header.index("status")].startswith(
            f"error: {block} must be finite and >= 0")
        assert float(rows[0][header.index("rate_bps")]) == 0.0

    def test_error_row_pins_every_cell(self, tmp_path):
        # a rejected block keeps its size and the channel loss; the rates and
        # the key length are 0, and p_x, att and every tally are NaN
        cfg = write(tmp_path / "run.ini", FAST_OPT + "[finite]\nblock_sizes_received = 1e4,1e20\n")
        _, rows, json_rows = curve_rows(tmp_path, "finite", cfg)
        assert rows[0][-1] == "ok"
        message = "error: n must satisfy 1 <= n <= 10**13, got 25502500000000000000"
        assert rows[1] == ["1e+20", "19.04", "nan", "nan", "0", "0", "0", *["nan"] * 12,
                           message.replace(",", ";")]
        assert json_rows[0].endswith(', "ok"]')
        assert json_rows[1] == ("[1e+20, 19.040000000000003, NaN, NaN, 0.0, 0.0, 0, "
                                + "NaN, " * 12 + f'"{message}"]')

    def test_att_grid_ends_on_its_range_end(self, tmp_path):
        # at att_min = 0.08 a 4-point grid once rounded its top to 1.0000000000000002
        cfg = write(tmp_path / "run.ini",
                    "[optimizer]\natt_min = 0.08\ngrid_resolution = 4\n")
        out = tmp_path / "fin.csv"
        assert main(["finite", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_result_csv(str(out))
        assert rows and all(r[header.index("status")] == "ok" for r in rows)

    def test_column_that_never_clicks_is_an_ok_row(self, tmp_path):
        # without dark counts the transmittance 10**-400 underflows to 0: the
        # row has no result, so key length 0 and NaN tallies
        cfg = write(tmp_path / "run.ini",
                    FAST_OPT + "[detector]\ndark_count_prob = 0\n[channel]\nloss_db = 4000\n")
        out = tmp_path / "fin.csv"
        assert main(["finite", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_result_csv(str(out))
        row = dict(zip(header, rows[0]))
        assert (row["p_x"], row["att"], row["rate_bps"], row["ell"]) == ("0.995", "1", "0", "0")
        assert all(row[c] == "nan" for c in header[header.index("n_sent"):-1])
        assert row["status"] == "ok"

    def test_json_format(self, tmp_path):
        cfg = write(tmp_path / "run.ini",
                    FAST_OPT + "[finite]\nacquisition_times_s = 1\n")
        out = tmp_path / "fin.json"
        assert main(["finite", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["source"]["mean_photon_number"] == 0.0142
        assert len(payload["rows"]) == 1


class TestMaxlossCommand:
    def test_rows(self, tmp_path):
        cfg = write(tmp_path / "run.ini", FAST_OPT + "[maxloss]\nacquisition_times_s = 1\n")
        out = tmp_path / "ml.csv"
        assert main(["maxloss", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_result_csv(str(out))
        assert header == ["acquisition_time_s", "max_loss_db", "p_x_opt", "att_opt", "status"]
        assert rows[0][-1] == "ok"
        assert 20.0 < float(rows[0][1]) < 30.0

    def test_no_key_at_zero_loss_is_flagged(self, tmp_path):
        # a detector this noisy cannot make key anywhere
        cfg = write(tmp_path / "run.ini",
                    FAST_OPT + "[detector]\ndark_count_prob = 0.4\nmisalignment = 0.45\n"
                    "[maxloss]\nacquisition_times_s = 1\n")
        out = tmp_path / "ml.csv"
        assert main(["maxloss", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_result_csv(str(out))
        assert rows[0][header.index("status")] == "no_key_at_any_loss"
        assert rows[0][header.index("max_loss_db")] == "nan"

    def test_time_the_models_reject_is_an_error_row(self, tmp_path):
        # 1e16 s of pulses exceeds the block sizes lambda_ec accepts; the
        # other time still gets its boundary
        cfg = write(tmp_path / "run.ini",
                    "[optimizer]\ngrid_resolution = 6\nrefinement_rounds = 1\n"
                    "loss_bisection_tol_db = 0.5\n[maxloss]\nacquisition_times_s = 1,1e16\n")
        out = tmp_path / "ml.csv"
        assert main(["maxloss", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_result_csv(str(out))
        status = [row[header.index("status")] for row in rows]
        assert status[0] == "ok" and status[1].startswith("error: ")
        assert rows[1][header.index("max_loss_db")] == "nan"


    def test_error_rows_pin_every_cell(self, tmp_path):
        # a time without key and a time the models reject keep only their time
        cfg = write(tmp_path / "run.ini",
                    "[optimizer]\ngrid_resolution = 6\nrefinement_rounds = 1\n"
                    "loss_bisection_tol_db = 0.5\n[maxloss]\nacquisition_times_s = 0,1,1e300\n")
        _, rows, json_rows = curve_rows(tmp_path, "maxloss", cfg)
        assert rows[0] == ["0", "nan", "nan", "nan", "no_key_at_any_loss"]
        assert rows[1][-1] == "ok"
        assert rows[2] == ["1e+300", "nan", "nan", "nan",
                           "error: bound out of regime: log argument 0.0 <= 1"]
        assert json_rows[0] == '[0.0, NaN, NaN, NaN, "no_key_at_any_loss"]'
        assert json_rows[1].endswith(', "ok"]')
        assert json_rows[2] == ('[1e+300, NaN, NaN, NaN, '
                                '"error: bound out of regime: log argument 0.0 <= 1"]')


class TestFitQberCommand:
    def synth_csv(self, tmp_path, p_mis=0.003, blank=False):
        lines = ["distance_km,qber"]
        for d in (0.0, 50.0, 100.0, 150.0):
            lines.append(f"{d},{kernel_qber(d, p_mis)!r}")
            if blank and d == 50.0:
                lines.append("")
        return write(tmp_path / "qber.csv", "\n".join(lines) + "\n")

    def test_recovers_misalignment(self, tmp_path):
        data = self.synth_csv(tmp_path)
        out = tmp_path / "fit.json"
        assert main(["fit-qber", "--data", data, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["p_mis"] == pytest.approx(0.003, abs=1e-9)
        assert len(report["points"]) == 4
        assert all(abs(r) < 1e-12 for r in report["residuals"])

    def test_model_column_is_the_kernel_qber(self, tmp_path):
        data = write(tmp_path / "qber.csv",
                     "distance_km,qber\n0,0.004\n50,0.0045\n100,0.0062\n150,0.013\n")
        out = tmp_path / "fit.json"
        assert main(["fit-qber", "--data", data, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        for point in report["points"]:
            assert point["qber_model"] == pytest.approx(
                kernel_qber(point["distance_km"], report["p_mis"]), rel=1e-12)

    def test_all_half_qber_fits_half(self, tmp_path):
        # p_mis = 0.5 is outside DetectorModel's range, so the modeled
        # column cannot come from rebuilding a detector at the fit
        data = write(tmp_path / "half.csv", "distance_km,qber\n0,0.5\n100,0.5\n")
        out = tmp_path / "fit.json"
        assert main(["fit-qber", "--data", data, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["p_mis"] == 0.5
        assert [p["qber_model"] for p in report["points"]] == pytest.approx([0.5, 0.5],
                                                                             rel=1e-12)

    def test_single_row(self, tmp_path):
        data = write(tmp_path / "one.csv", "distance_km,qber\n0.0,0.004\n")
        out = tmp_path / "fit.json"
        assert main(["fit-qber", "--data", data, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["p_mis"] > 0.0

    def test_blank_line_warns_and_passes(self, tmp_path, capsys):
        data = self.synth_csv(tmp_path, blank=True)
        out = tmp_path / "fit.json"
        assert main(["fit-qber", "--data", data, "--out", str(out)]) == 0
        assert "blank line skipped" in capsys.readouterr().err

    def test_missing_column_is_config_error(self, tmp_path, capsys):
        data = write(tmp_path / "bad.csv", "distance,qber\n0.0,0.004\n")
        assert main(["fit-qber", "--data", data, "--out", "-"]) == 1
        assert "header" in capsys.readouterr().err

    def test_non_numeric_row_reports_line(self, tmp_path, capsys):
        data = write(tmp_path / "bad.csv", "distance_km,qber\n0.0,0.004\nfifty,0.01\n")
        assert main(["fit-qber", "--data", data, "--out", "-"]) == 1
        assert ":3:" in capsys.readouterr().err

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        data = str(tmp_path / "missing.csv")
        assert main(["fit-qber", "--data", data, "--out", "-"]) == 1
        assert capsys.readouterr().err == (f"config error: cannot read QBER data {data!r}: "
                                           f"{os_error_text(errno.ENOENT, data)}\n")

    @pytest.mark.parametrize("text, message", [
        ("", ": empty file, expected header distance_km,qber"),
        ("distance_km,qber\n0,0.004,1\n", ":2: expected 2 columns, got 3"),
    ], ids=["empty", "extra_cell"])
    def test_malformed_file_is_config_error(self, tmp_path, capsys, text, message):
        data = write(tmp_path / "bad.csv", text)
        assert main(["fit-qber", "--data", data, "--out", "-"]) == 1
        assert capsys.readouterr().err == f"config error: {data}{message}\n"

    @pytest.mark.parametrize("distance", ["-5", "-200", "nan"])
    def test_bad_distance_is_config_error(self, tmp_path, capsys, distance):
        data = write(tmp_path / "bad.csv", f"distance_km,qber\n0.0,0.004\n{distance},0.01\n")
        assert main(["fit-qber", "--data", data, "--out", "-"]) == 1
        assert ":3:" in capsys.readouterr().err


class TestOracleCommand:
    def test_report_and_determinism(self, tmp_path):
        cfg = write(tmp_path / "run.ini", QUICK_ORACLE)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["oracle", "--config", cfg, "--out", str(a)]) == 0
        assert main(["oracle", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        report = json.loads(a.read_text())
        assert report["all_passed"]
        assert report["trial"]["seed"] == 4242

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write(tmp_path / "run.ini", QUICK_ORACLE)
        out = tmp_path / "r.json"
        assert main(["oracle", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
        assert json.loads(out.read_text())["trial"]["seed"] == 7

    def test_corrupted_bound_exits_nonzero(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini",
                    QUICK_ORACLE.replace("losses_db = 0,20",
                                         "losses_db = 0\nselftest_bound_scale = 0.5"))
        out = tmp_path / "r.json"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == 2
        report = json.loads(out.read_text())
        assert not report["all_passed"]
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failed
        assert capsys.readouterr().err == f"oracle checks failed: {', '.join(failed)}\n"


# (section, key) -> (a valid non-default value, the RunConfig field it sets,
# the value expected there, with units converted)
_ROUTES = {
    ("source", "mean_photon_number"): ("0.02", lambda c: c.source.mean_photon_number, 0.02),
    ("source", "g2"): ("0.05", lambda c: c.source.g2, 0.05),
    ("source", "rep_rate_mhz"): ("80", lambda c: c.source.rep_rate, 80 * 1e6),
    ("detector", "efficiency"): ("0.5", lambda c: c.detector.det_efficiency, 0.5),
    ("detector", "dark_count_prob"): ("2e-7", lambda c: c.detector.dark_count_prob, 2e-7),
    ("detector", "dead_time_ns"): ("50", lambda c: c.detector.dead_time, 50 * 1e-9),
    ("detector", "misalignment"): ("0.01", lambda c: c.detector.misalignment, 0.01),
    ("channel", "loss_per_km_db"): ("0.2", lambda c: (c.loss_per_km_db, c.channel),
                                    (0.2, ChannelModel.from_fiber(100.0, 0.2))),
    ("channel", "distance_km"): ("50", lambda c: c.channel,
                                 ChannelModel.from_fiber(50.0, 0.1904)),
    ("channel", "loss_db"): ("12.5", lambda c: c.channel, ChannelModel(loss_db=12.5)),
    ("protocol", "p_x"): ("0.7", lambda c: c.protocol, ProtocolParams(p_x=0.7)),
    ("protocol", "att"): ("0.8", lambda c: c.protocol, ProtocolParams(att=0.8)),
    ("security", "eps_prime"): ("1e-11", lambda c: c.security, SecurityParams(eps_prime=1e-11)),
    ("security", "n_pe"): ("3", lambda c: c.security, SecurityParams(n_pe=3)),
    ("security", "eps_cor"): ("1e-12", lambda c: c.security, SecurityParams(eps_cor=1e-12)),
    ("optimizer", "p_x_min"): ("0.6", lambda c: c.optimizer.p_x_range, (0.6, 0.995)),
    ("optimizer", "p_x_max"): ("0.9", lambda c: c.optimizer.p_x_range, (0.505, 0.9)),
    ("optimizer", "att_min"): ("0.3", lambda c: c.optimizer.att_range, (0.3, 1.0)),
    ("optimizer", "att_max"): ("0.95", lambda c: c.optimizer.att_range, (0.01, 0.95)),
    ("optimizer", "grid_resolution"): ("9", lambda c: c.optimizer.grid_resolution, 9),
    ("optimizer", "refinement_rounds"): ("2", lambda c: c.optimizer.refinement_rounds, 2),
    ("optimizer", "shrink_factor"): ("2.5", lambda c: c.optimizer.shrink_factor, 2.5),
    ("optimizer", "loss_bisection_tol_db"): (
        "0.05", lambda c: c.optimizer.loss_bisection_tol_db, 0.05),
    ("optimizer", "loss_cap_db"): ("40", lambda c: c.optimizer.loss_cap_db, 40.0),
    ("asymptotic", "distances_km"): ("0,50,100", lambda c: c.asymptotic_distances_km,
                                     [0.0, 50.0, 100.0]),
    ("finite", "acquisition_times_s"): ("1,10", lambda c: c.finite_acquisition_times_s,
                                        [1.0, 10.0]),
    ("finite", "block_sizes_received"): (
        "1e4,1e6", lambda c: (c.finite_acquisition_times_s, c.finite_block_sizes),
        (None, [1e4, 1e6])),
    ("maxloss", "acquisition_times_s"): ("2,20", lambda c: c.maxloss_times_s, [2.0, 20.0]),
    ("oracle", "seed"): ("7", lambda c: c.oracle["seed"], 7),
    ("oracle", "n_pulses"): ("1000", lambda c: c.oracle["n_pulses"], 1000),
    ("oracle", "eps_test"): ("0.02", lambda c: c.oracle["eps_test"], 0.02),
    ("oracle", "chernoff_trials"): ("2000", lambda c: c.oracle["chernoff_trials"], 2000),
    ("oracle", "sampling_trials"): ("20", lambda c: c.oracle["sampling_trials"], 20),
    ("oracle", "losses_db"): ("0,5", lambda c: c.oracle["losses_db"], [0.0, 5.0]),
    ("oracle", "selftest_bound_scale"): ("0.5", lambda c: c.oracle["selftest_bound_scale"], 0.5),
}


class TestRuntimeFailure:
    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert main(["finite", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    # each --out fails with the error that opening it for writing raises
    @pytest.mark.parametrize("command", ["finite", "oracle"])
    @pytest.mark.parametrize("parts, code", [
        pytest.param(("missing", "x.csv"), errno.ENOENT, id="in-missing-dir"),
        pytest.param(("file", "x.csv"), errno.ENOTDIR, id="in-file"),
    ])
    def test_unwritable_output_fails_before_the_command_runs(self, tmp_path, capsys,
                                                             monkeypatch, command, parts, code):
        def handler(cfg, args):
            raise AssertionError("the command ran")

        monkeypatch.setitem(cli._COMMANDS, command, ("", handler))
        (tmp_path / "file").write_text("", encoding="utf-8")
        out = os.path.join(tmp_path, *parts)
        assert main([command, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {os_error_text(code, out)}\n"


    @pytest.mark.parametrize("command", ["finite", "oracle"])
    @pytest.mark.parametrize("parts", [pytest.param((), id="dir"),
                                       pytest.param(("missing", ""), id="missing-dir-slash")])
    def test_directory_as_output_fails_before_the_command_runs(self, tmp_path, capsys,
                                                                 monkeypatch, command, parts):
        # such an --out once failed only when it was opened, after the whole run
        def handler(cfg, args):
            raise AssertionError("the command ran")

        monkeypatch.setitem(cli._COMMANDS, command, ("", handler))
        out = os.path.join(tmp_path, *parts)
        assert main([command, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {os_error_text(errno.EISDIR, out)}\n"


def test_read_result_csv_skips_blank_lines(tmp_path):
    path = write(tmp_path / "rows.csv", "# a.b = 1\n\nx,y\n\n1,2\n\n")
    assert read_result_csv(path) == ({"a.b": "1"}, ["x", "y"], [["1", "2"]])


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", "[source]\nbrightness = 1\n")
        assert main(["asymptotic", "--config", cfg, "--out", "-"]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_missing_config_file_rejected(self, tmp_path, capsys):
        cfg = str(tmp_path / "missing.ini")
        assert main(["finite", "--config", cfg, "--out", "-"]) == 1
        assert capsys.readouterr().err == (f"config error: cannot read config file {cfg!r}: "
                                           f"{os_error_text(errno.ENOENT, cfg)}\n")

    # configparser's messages span up to three lines; each parse error is one
    # line that names the file and the line number
    def test_key_before_any_section_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", "x = 1\n[source]\n")
        assert main(["finite", "--config", cfg, "--out", "-"]) == 1
        assert capsys.readouterr().err == ("config error: config parse error: File contains no "
                                           f"section headers. file: {cfg!r}, line: 1 "
                                           "'x = 1\\n'\n")

    def test_line_without_a_key_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", "[source]\nfoo\n")
        assert main(["finite", "--config", cfg, "--out", "-"]) == 1
        assert capsys.readouterr().err == ("config error: config parse error: Source contains "
                                           f"parsing errors: {cfg!r} [line  2]: 'foo\\n'\n")

    def test_percent_sign_is_a_bad_value(self, tmp_path, capsys):
        # configparser's interpolation once raised on it, after reading: exit 2
        cfg = write(tmp_path / "run.ini", "[channel]\nloss_db = 5%\n")
        assert main(["finite", "--config", cfg, "--out", "-"]) == 1
        assert capsys.readouterr().err == ("config error: bad value for [channel] loss_db = "
                                           "'5%': could not convert string to float: '5%'\n")

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", "[lasers]\npower = 1\n")
        assert main(["asymptotic", "--config", cfg, "--out", "-"]) == 1
        assert "unknown config section" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, text", [
        ("asymptotic", "[detector]\nefficiency = 1.5\n"),
        ("finite", "[channel]\ndistance_km = -5\n"),
        ("asymptotic", "[channel]\nloss_per_km_db = 0\n"),
        ("fit-qber --data qber.csv", "[channel]\nloss_per_km_db = -1\n"),
        ("finite", "[channel]\nloss_db = 5\nloss_per_km_db = -1\n"),
        ("maxloss", "[maxloss]\nacquisition_times_s = -1\n"),
        ("maxloss", "[maxloss]\nacquisition_times_s = 1,nan\n"),
        ("maxloss", "[maxloss]\nacquisition_times_s = inf\n"),
        ("oracle --seed -1", ""),
        ("maxloss", "[optimizer]\nloss_bisection_tol_db = nan\n"),
        ("maxloss", "[optimizer]\nshrink_factor = nan\n"),
        ("maxloss", "[optimizer]\nloss_cap_db = nan\n"),
        ("maxloss", "[optimizer]\nloss_cap_db = inf\n"),
        ("maxloss", "[detector]\ndead_time_ns = nan\n"),
        ("asymptotic", "[source]\nrep_rate_mhz = inf\n"),
        ("fit-qber --data qber.csv", "[detector]\ndead_time_ns = inf\n"),
        ("fit-qber --data qber.csv", "[source]\nmean_photon_number = 0\n"),
        ("finite", "[security]\neps_prime = 0.3\n"),
    ], ids=["efficiency", "distance", "loss_per_km_asymptotic", "loss_per_km_fit_qber",
            "loss_per_km_with_loss_db", "maxloss_time_negative", "maxloss_time_nan",
            "maxloss_time_inf", "seed_flag", "bisection_tol_nan", "shrink_factor_nan",
            "loss_cap_nan", "loss_cap_inf", "dead_time_nan", "rep_rate_inf",
            "dead_time_inf", "fit_without_signal", "eps_pe_not_below_one"])
    def test_out_of_range_value_rejected(self, tmp_path, monkeypatch, capsys, argv, text):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "qber.csv", "distance_km,qber\n0,0.004\n")
        cfg = write(tmp_path / "run.ini", text)
        assert main([*argv.split(), "--config", cfg, "--out", "-"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, distance", [
        ("asymptotic", "100"), ("finite", "0"), ("fit-qber --data qber.csv", "0")])
    def test_infinite_fibre_loss_names_its_key(self, tmp_path, monkeypatch, capsys, argv,
                                               distance):
        # the fibre's loss once came out inf (or NaN at 0 km), and the error
        # named loss_db, a key the config never set
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "qber.csv", "distance_km,qber\n0,0.004\n")
        cfg = write(tmp_path / "run.ini",
                    f"[channel]\ndistance_km = {distance}\nloss_per_km_db = inf\n")
        assert main([*argv.split(), "--config", cfg, "--out", "-"]) == 1
        err = capsys.readouterr().err
        assert err == "config error: loss_per_km_db must be finite and > 0, got inf\n"

    @pytest.mark.parametrize("command", ["asymptotic", "finite"])
    @pytest.mark.parametrize("distance", ["inf", "nan"])
    def test_distance_that_is_not_finite_names_its_key(self, tmp_path, capsys, command,
                                                        distance):
        # it once named loss_db: "loss_db must be finite and >= 0, got inf"
        cfg = write(tmp_path / "run.ini", f"[channel]\ndistance_km = {distance}\n")
        assert main([command, "--config", cfg, "--out", "-"]) == 1
        assert capsys.readouterr().err == ("config error: [channel] distance_km must be finite "
                                           f"and >= 0, got {distance}\n")

    def test_range_value_limit(self, tmp_path, capsys):
        assert len(parse_values("0:99999:1")) == 100_000
        # 1e20 + 1 == 1e20: without the limit this range never ends
        with pytest.raises(ConfigError, match="100000"):
            parse_values("1e20:1e20:1")
        cfg = write(tmp_path / "run.ini", "[asymptotic]\ndistances_km = 0:200000:1\n")
        assert main(["asymptotic", "--config", cfg, "--out", "-"]) == 1
        err = capsys.readouterr().err
        assert "[asymptotic] distances_km" in err and "100000" in err

    @pytest.mark.parametrize("text, reason", [
        pytest.param(text, reason, id=text) for text, reason in [
            ("0:175:nan", "step must be positive"),
            ("0:nan:5", "start and stop must be finite"),
            ("nan:10:1", "start and stop must be finite"),
            ("-inf:0:1", "start and stop must be finite"),
            ("0:inf:1", "start and stop must be finite"),
            ("inf:inf:1", "start and stop must be finite"),
            ("1:2", "range must be start:stop:step"),
        ]])
    def test_nan_range_rejected(self, tmp_path, capsys, text, reason):
        # the NaN ranges once gave one row, or none, with exit code 0; the
        # infinite ones built 100,000 values before a misleading error
        cfg = write(tmp_path / "run.ini", f"[asymptotic]\ndistances_km = {text}\n")
        assert main(["asymptotic", "--config", cfg, "--out", "-"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "[asymptotic] distances_km" in err
        assert reason in err

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_utf8_byte_order_mark_accepted(self, tmp_path, bom):
        # spreadsheet exports often start with a UTF-8 byte-order mark, which
        # once hid the first section header and the first CSV column name
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(bom + b"[channel]\nloss_per_km_db = 0.2\n")
        data = tmp_path / "qber.csv"
        data.write_bytes(bom + b"distance_km,qber\n0,0.004\n100,0.006\n")
        out = tmp_path / "fit.json"
        assert main(["fit-qber", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["config"]["channel"]["loss_per_km_db"] == 0.2
        assert [p["distance_km"] for p in report["points"]] == [0.0, 100.0]
        assert out.read_bytes().startswith(b"{")

    @pytest.mark.parametrize("text, message", [
        ("[channel]\ndistance_km = 10\nloss_db = 5\n",
         "[channel] distance_km and loss_db are mutually exclusive"),
        ("[finite]\nacquisition_times_s = 60\nblock_sizes_received = 1e6\n",
         "[finite] acquisition_times_s and block_sizes_received are mutually exclusive"),
    ], ids=["channel", "finite"])
    def test_mutually_exclusive_channel_keys(self, tmp_path, capsys, text, message):
        cfg = write(tmp_path / "run.ini", text)
        assert main(["finite", "--config", cfg, "--out", "-"]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command, section, key, values", [
        ("asymptotic", "asymptotic", "distances_km", "10,5"),
        ("finite", "finite", "acquisition_times_s", "60,1"),
        ("finite", "finite", "block_sizes_received", "1e6,1e6"),
        # every comparison with NaN is False, so these once passed as increasing
        ("asymptotic", "asymptotic", "distances_km", "50,nan,10"),
        ("finite", "finite", "acquisition_times_s", "1,nan,60"),
        ("finite", "finite", "block_sizes_received", "1e6,nan,1e7"),
    ])
    def test_unordered_sweep_values_rejected(self, tmp_path, capsys, command, section, key,
                                             values):
        cfg = write(tmp_path / "run.ini", f"[{section}]\n{key} = {values}\n")
        assert main([command, "--config", cfg, "--out", "-"]) == 1
        assert f"[{section}] {key} must be strictly increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["n_pulses = 0", "eps_test = 2", "eps_test = 0.3",
                                      "chernoff_trials = 10", "sampling_trials = 0",
                                      "losses_db = -1", "seed = -1"])
    def test_bad_oracle_value_rejected_before_sampling(self, tmp_path, capsys, monkeypatch,
                                                       line):
        def sampled(*args, **kwargs):
            pytest.fail("the oracle sampled before rejecting its config")

        monkeypatch.setattr("bb84rate.cli.run_oracle_suite", sampled)
        monkeypatch.setattr("bb84rate.mc_oracle.sample_session", sampled)
        cfg = write(tmp_path / "run.ini", f"[oracle]\n{line}\n")
        assert main(["oracle", "--config", cfg, "--out", "-"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_dataclass_defaults_match_schema(self):
        # defaults written both in a dataclass and in config._SCHEMA agree
        cfg = load_config(None)
        assert cfg.optimizer == OptimizationConfig()
        assert cfg.security == SecurityParams()
        assert cfg.protocol == ProtocolParams()
        fiber = inspect.signature(ChannelModel.from_fiber).parameters["loss_per_km_db"]
        assert fiber.default == cfg.loss_per_km_db
        assert inspect.signature(TrialConfig).parameters["eps_test"].default \
            == cfg.oracle["eps_test"]

    def test_round_trip_echo_contains_all_defaults(self, tmp_path):
        cfg = write(tmp_path / "run.ini", FAST_OPT + "[asymptotic]\ndistances_km = 0\n")
        out = tmp_path / "akr.csv"
        assert main(["asymptotic", "--config", cfg, "--out", str(out)]) == 0
        echo, _, _ = read_result_csv(str(out))
        for key in ("source.g2", "detector.dark_count_prob", "security.eps_cor",
                    "optimizer.grid_resolution", "channel.loss_per_km_db"):
            assert key in echo

    @pytest.mark.parametrize("section, key", [
        pytest.param(s, k, id=f"{s}.{k}") for s in _SCHEMA for k in _SCHEMA[s]])
    def test_each_key_reaches_its_field(self, tmp_path, section, key):
        text, field, expected = _ROUTES[section, key]
        parse, default = _SCHEMA[section][key]
        assert parse(text) != default
        cfg = load_config(write(tmp_path / "run.ini", f"[{section}]\n{key} = {text}\n"))
        assert field(cfg) == expected


# Work-scaling keys draw only small values: the default grid_resolution, or
# loss_cap_db = 1e300 (about 1,000 bisection probes), would take seconds.
_SMALL_VALUES = {
    ("optimizer", "grid_resolution"): ["-1", "0", "1", "2", "3", "nan"],
    ("optimizer", "refinement_rounds"): ["-1", "0", "1", "nan"],
    ("optimizer", "loss_cap_db"): ["-inf", "-1", "0", "1", "40", "nan", "inf"],
    ("optimizer", "loss_bisection_tol_db"): ["-inf", "-1", "0", "2", "nan", "inf", "1e300"],
}
_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e300", "1", "0.5", ""]
_TINY_RUN = {("optimizer", "grid_resolution"): "2", ("optimizer", "refinement_rounds"): "1",
             ("optimizer", "loss_bisection_tol_db"): "2",
             ("asymptotic", "distances_km"): "100", ("maxloss", "acquisition_times_s"): "60"}


def _schema_values(key):
    if key in _SMALL_VALUES:
        return _SMALL_VALUES[key]
    default = _SCHEMA[key[0]][key[1]][1]
    if isinstance(default, list):
        return [",".join(map(str, default)), *_VALUES]
    return _VALUES if default is None else [str(default), *_VALUES]


@st.composite
def _overrides(draw):
    keys = draw(st.lists(st.sampled_from([(s, k) for s in _SCHEMA for k in _SCHEMA[s]]),
                         min_size=1, max_size=2, unique=True))
    return {key: draw(st.sampled_from(_schema_values(key))) for key in keys}


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(["asymptotic", "finite", "maxloss", "fit-qber"]),
       overrides=_overrides())
def test_schema_values_exit_0_or_1(command, overrides):
    # oracle is left out: its exit 2 on a failed coverage check is the contract
    sections = {}
    for (section, key), value in {**_TINY_RUN, **overrides}.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write(Path(tmp) / "run.ini", "".join(
            f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items()))
        data = write(Path(tmp) / "qber.csv", "distance_km,qber\n0,0.004\n100,0.006\n")
        extra = ["--data", data] if command == "fit-qber" else []
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, *extra, "--config", cfg, "--out", str(Path(tmp) / "out")])
    assert code in (0, 1), (overrides, err.getvalue())
    if code == 1:
        assert err.getvalue().startswith("config error: ") and err.getvalue().count("\n") == 1
