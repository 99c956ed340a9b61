"""End-to-end tests of the command-line surface."""

import csv
import json
import math
import warnings

import numpy as np
import pytest

from qbuffer import cli
from qbuffer.cli import (DEFAULT_CONFIG, SWEEP_CSV_HEADER, ConfigError,
                         build_config, cmd_sweep, cmd_tomo, load_config, main)
from qbuffer.dynamics import length_from_time, prob_pasy, p3 as p3_model
from qbuffer.fitting import DataSeries, series_to_csv
from qbuffer.measures import correlation_report


@pytest.fixture
def config():
    return build_config({})


class TestConfig:
    def test_defaults_valid(self, config):
        assert config.units.n_r == pytest.approx(1.468)
        assert config.cavity.kappa2 == pytest.approx(3528.0)
        assert config.n_points >= 2

    def test_field_level_messages(self):
        with pytest.raises(ConfigError, match="n_points"):
            build_config({"n_points": 1})
        with pytest.raises(ConfigError, match="t_end_s"):
            build_config({"t_start_s": 1.0, "t_end_s": 0.5})
        with pytest.raises(ConfigError, match="accidental_rate"):
            build_config({"accidental_rate": 1.5})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            build_config({"not_a_field": 1.0})

    def test_numpy_scalars_and_integral_floats_accepted(self):
        # an int too large for a float is still finite and integral
        config = build_config({"n_points": np.int64(11), "gates": 1e8,
                               "a1": np.float64(0.2), "seed": 10 ** 400})
        assert (config.n_points, config.gates, config.pmd.a1) == (11, 100_000_000, 0.2)
        assert config.seed == 10 ** 400

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7, "n_points": 11}))
        config = load_config(str(path), {"seed": 9})
        assert config.seed == 9
        assert config.n_points == 11


class TestSweep:
    def test_header_schema(self, config):
        text = cmd_sweep(config)
        assert text.splitlines()[0] == SWEEP_CSV_HEADER

    def test_two_point_grid_initial_values(self):
        config = build_config({"n_points": 2, "t_start_s": 0.0, "t_end_s": 1e-9})
        rows = cmd_sweep(config).splitlines()
        first = dict(zip(SWEEP_CSV_HEADER.split(","), rows[1].split(",")))
        a_sum = DEFAULT_CONFIG["a1"] + DEFAULT_CONFIG["a2"]
        w_sum = DEFAULT_CONFIG["w1"] + DEFAULT_CONFIG["w2"]
        assert float(first["P_pasy"]) == pytest.approx(a_sum, abs=1e-6)
        assert float(first["P_p3"]) == pytest.approx(w_sum, abs=1e-6)

    def test_p3_column_oscillates_pasy_smooth(self, config):
        rows = cmd_sweep(config).splitlines()[1:]
        cols = np.array([[float(v) for v in row.split(",")] for row in rows])
        t = cols[:, 0]
        p_pasy, p_p3 = cols[:, 2], cols[:, 3]
        d_pasy = np.diff(p_pasy)[t[:-1] < 0.5e-3]
        assert np.all(d_pasy < 0)  # smooth near-exponential early on
        d_p3 = np.diff(p_p3)
        assert np.sum(np.diff(np.sign(d_p3[d_p3 != 0])) != 0) >= 1

    def test_matches_library_models(self, config):
        rows = cmd_sweep(config).splitlines()[1:]
        sample = rows[100].split(",")
        t = float(sample[0])
        assert float(sample[2]) == pytest.approx(
            prob_pasy(t, config.pmd, config.units), rel=1e-9)
        assert float(sample[3]) == pytest.approx(p3_model(t, config.cavity), rel=1e-9)

    def test_byte_identical_runs(self, config):
        assert cmd_sweep(config) == cmd_sweep(config)

    def test_clipped_rows_and_scalar_reference(self):
        # a1 + a2 = 1.2, so P_pasy starts above 1: the P column keeps the raw
        # model value and the measure columns are evaluated at min(P, 1)
        config = build_config({"a1": 0.6, "a2": 0.6})
        rows = cmd_sweep(config).splitlines()[1:]
        cols = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert cols[0, 2] == 1.2
        assert list(cols[0, 4:8]) == [2.0, 1.0, 1.0, 1.0]
        reference = []
        for t in np.linspace(config.t_start_s, config.t_end_s, config.n_points):
            t = float(t)
            p_a = prob_pasy(t, config.pmd, config.units)
            p_b = p3_model(t, config.cavity)
            ma = correlation_report(min(p_a, 1.0))
            mb = correlation_report(min(p_b, 1.0))
            reference.append([t, length_from_time(t, config.units), p_a, p_b,
                              ma.total, ma.classical, ma.discord, ma.concurrence,
                              mb.total, mb.classical, mb.discord, mb.concurrence])
        np.testing.assert_allclose(cols, reference, rtol=1e-11, atol=0.0)


class TestTomo:
    def test_exact_round_trip(self, config):
        _, report = cmd_tomo(config, werner_p=0.9, xi=0.0, exact=True)
        assert report["P_hat"] == pytest.approx(0.9, abs=1e-3)
        assert report["converged"]

    def test_damped_round_trip_matches_average_identity(self, config):
        _, report = cmd_tomo(config, werner_p=0.9, xi=0.02, exact=True)
        expect = 0.9 * (4 - 4 * 0.02 + 2 * np.sqrt(1 - 0.02)) / 6
        assert report["P_hat"] == pytest.approx(expect, abs=1e-3)
        assert report["fidelity"] > 0.999

    def test_near_pure_fidelity_at_most_one(self, config):
        # the roots of near-zero eigenvalues read 1.0000000105 before the clamp
        _, report = cmd_tomo(config, werner_p=0.9999999999999999, xi=0.0, exact=True)
        assert report["fidelity"] <= 1.0

    def test_seeded_reports_reproducible(self, config):
        csv_a, rep_a = cmd_tomo(config, werner_p=0.8, xi=0.01)
        csv_b, rep_b = cmd_tomo(config, werner_p=0.8, xi=0.01)
        assert csv_a == csv_b
        assert json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)


class TestMainDispatch:
    def test_sweep_writes_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == SWEEP_CSV_HEADER

    def test_sweep_unallocatable_grid_errors(self, tmp_path, capsys):
        # 10**15 points need petabytes, so the grid allocation fails at once
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({"n_points": 10 ** 15}))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert not out.exists()

    def test_sweep_requires_out(self, capsys):
        assert main(["sweep"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_tomo_writes_artifacts(self, tmp_path):
        prefix = str(tmp_path / "tomo")
        code = main(["tomo", "--werner-p", "0.9", "--xi", "0.02", "--exact",
                     "--out", prefix])
        assert code == 0
        records = (tmp_path / "tomo_records.csv").read_text()
        assert records.splitlines()[0] == "signal,idler,coincidences,accidentals,gates"
        report = json.loads((tmp_path / "tomo_report.json").read_text())
        assert report["converged"]
        assert len(report["rho_hat"]) == 4

    def test_tomo_byte_identical_with_seed(self, tmp_path):
        texts = []
        for run in ("a", "b"):
            prefix = str(tmp_path / f"t{run}")
            assert main(["tomo", "--werner-p", "0.85", "--seed", "77",
                         "--out", prefix]) == 0
            texts.append((tmp_path / f"t{run}_report.json").read_bytes())
        assert texts[0] == texts[1]

    def test_fit_pasy_round_trip(self, tmp_path, config):
        t = np.linspace(0.0, 1.5e-3, 50)
        data = DataSeries.from_points(t, prob_pasy(t, config.pmd, config.units))
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(series_to_csv(data))
        out = tmp_path / "fit.json"
        code = main(["fit", str(csv_path), "--model", "pasy", "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["converged"]
        assert result["mu_per_m"] == pytest.approx(config.pmd.mu, rel=0.01)

    def test_fit_pasy_uses_config_detuning(self, tmp_path):
        # the fit used to hold the detuning at 2 pi x 200 GHz whatever the
        # config said, and reported d_p2 at 2e-4 of the truth here
        values = {"delta_omega_rad_s": 2.0 * np.pi * 100e9, "a1": 0.5, "a2": 0.5}
        config = build_config(values)
        t = np.linspace(0.0, 5e-3, 300)
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(series_to_csv(DataSeries.from_points(
            t, prob_pasy(t, config.pmd, config.units))))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(values))
        out = tmp_path / "fit.json"
        assert main(["fit", str(csv_path), "--model", "pasy", "--config",
                     str(config_path), "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["delta_omega_rad_s"] == config.pmd.delta_omega
        assert result["sign"] == config.pmd.sign
        for key, truth in (("d_p1_s_per_sqrt_m", config.pmd.d_p1),
                           ("d_p2_s_per_sqrt_m", config.pmd.d_p2),
                           ("mu_per_m", config.pmd.mu), ("a1", 0.5), ("a2", 0.5)):
            assert result[key] == pytest.approx(truth, rel=1e-6), key

    def test_fit_p3_uses_config_lambda(self, tmp_path):
        # the fit used to write lambda_per_s 1e6 whatever the config said
        t = np.linspace(0.0, 1.5e-3, 50)
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(series_to_csv(DataSeries.from_points(
            t, p3_model(t, build_config({}).cavity))))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"lambda_per_s": 5e5}))
        out = tmp_path / "fit.json"
        assert main(["fit", str(csv_path), "--model", "p3", "--config",
                     str(config_path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["lambda_per_s"] == 5e5

    @pytest.mark.parametrize("model", ["pasy", "p3", "exp"])
    def test_fit_header_only_csv_errors(self, tmp_path, capsys, model):
        # an empty body used to fail unpacking its columns, with an error
        # that named no points
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text("t_s,p,sigma\n")
        assert main(["fit", str(csv_path), "--model", model]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: need at least ")
        assert captured.err.endswith("got 0\n") and captured.err.count("\n") == 1

    def test_fit_exp_control(self, tmp_path):
        t = np.linspace(0.0, 5e-3, 30)
        rate = 2 * 6e-6 * 2.99792458e8 / 1.468
        csv_path = tmp_path / "exp.csv"
        csv_path.write_text(series_to_csv(DataSeries.from_points(
            t, np.exp(-rate * t))))
        out = tmp_path / "exp.json"
        assert main(["fit", str(csv_path), "--model", "exp", "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["rate_per_s"] == pytest.approx(rate, rel=1e-6)

    def test_fit_underdetermined_errors(self, tmp_path, capsys):
        t = np.linspace(0.0, 1e-3, 3)
        csv_path = tmp_path / "tiny.csv"
        csv_path.write_text(series_to_csv(DataSeries.from_points(t, [1.0, 0.9, 0.8])))
        assert main(["fit", str(csv_path), "--model", "p3"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_fit_nonfinite_sigma_errors(self, tmp_path, capsys):
        # a NaN sigma used to be replaced by 1.0 and the fit reported converged
        csv_path = tmp_path / "nan.csv"
        csv_path.write_text("t_s,p,sigma\n" + "".join(
            f"{i * 1e-4},{0.9 - 0.01 * i},{'nan' if i == 3 else 0.01}\n"
            for i in range(10)))
        assert main(["fit", str(csv_path), "--model", "p3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_fit_zero_sigma_errors(self, tmp_path, capsys):
        # a zero sigma used to be replaced by 1.0 and the fit reported converged
        csv_path = tmp_path / "zero.csv"
        csv_path.write_text("t_s,p,sigma\n" + "".join(
            f"{i * 1e-4},{0.9 - 0.01 * i},{0.0 if i == 3 else 0.01}\n"
            for i in range(20)))
        assert main(["fit", str(csv_path), "--model", "p3"]) == 1
        err = capsys.readouterr().err
        assert err == "error: uncertainties must be positive\n"

    @pytest.mark.parametrize("model, row", [
        # LAPACK wrote DLASCL lines to stdout, then a misleading error
        ("exp", lambda i: (i * 1e-4, 0.9 - 0.01 * i, 1e-320 if i == 3 else 0.01)),
        ("pasy", lambda i: (i * 1e-4, 0.9 - 0.01 * i, 1e-320 if i == 3 else 0.01)),
        # exit 0 with a zero covariance after overflow warnings
        ("exp", lambda i: (i * 1e300, 0.9 - 0.01 * i, 0.01)),
        # an OverflowError traceback
        ("exp", lambda i: (i * 1e-4, (0.9 - 0.01 * i) * 1e300, 0.01)),
    ], ids=["sigma-exp", "sigma-pasy", "t-exp", "p-exp"])
    def test_fit_overflowing_values_error(self, tmp_path, capfd, model, row):
        csv_path = tmp_path / "big.csv"
        csv_path.write_text("t_s,p,sigma\n" + "".join(
            ",".join(map(repr, row(i))) + "\n" for i in range(10)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", str(csv_path), "--model", model]) == 1
        out, err = capfd.readouterr()
        assert out == ""  # file-descriptor level, so LAPACK's own prints show
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "too large" in err

    @pytest.mark.parametrize("model, row, message", [
        # consecutive doubles: exp exited 0 with p0 1 and a rate of 4.6e-17;
        # pasy and p3 printed a RankWarning and exited 0 with converged true
        *[(model, lambda i: (1e16 + 2.0 * i, 0.9 * math.exp(-0.3 * i), 0.01),
           "too close together") for model in ("exp", "pasy", "p3")],
        # p0 = 1e450: exit 0 with Infinity and NaN after overflow warnings
        ("exp", lambda i: (10.0 + i, 10.0 ** (150 - 30 * i), 1.0), "overflows"),
        # p0 = 1e180 squared raised an OverflowError traceback
        ("exp", lambda i: (1.0 + i, 10.0 ** (150 - 30 * i), 1.0), "overflows"),
        # both components vanish this far from t = 0: exit 0 with converged
        # true, the weights at the scan's floor and the residual of P = 0
        *[(model, lambda i: (1e12 + 2.0 * i, 0.9 * 0.6 ** i, 0.01),
           f"the {model} scan grid fits times 1000000000000 to 1000000000018 s")
          for model in ("pasy", "p3")],
    ], ids=["unresolved-times", "unresolved-times-pasy", "unresolved-times-p3", "p0",
            "p0-squared", "far-from-zero-pasy", "far-from-zero-p3"])
    def test_fit_exp_unfittable_record_errors(self, tmp_path, capfd, model, row, message):
        csv_path = tmp_path / "exp.csv"
        csv_path.write_text("t_s,p,sigma\n" + "".join(
            ",".join(map(repr, row(i))) + "\n" for i in range(10)))
        assert main(["fit", str(csv_path), "--model", model]) == 1
        out, err = capfd.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_fit_unknown_model_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "x.csv", "--model", "bogus"])
        assert exc.value.code == 2

    def test_threshold_exp_closed_form(self, capsys):
        code = main(["threshold", "--model", "exp", "--level",
                     str(1.0 / 3.0)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["L_star_m"] / 1e3 == pytest.approx(91.5510, abs=1e-2)

    def test_threshold_no_crossing_errors(self, tmp_path, capsys):
        # lossless, dispersion-free config: the model stays constant at 1
        cfg = tmp_path / "flat.json"
        cfg.write_text(json.dumps({"mu_per_m": 0.0, "d_p1_s_per_sqrt_m": 0.0,
                                   "d_p2_s_per_sqrt_m": 0.0}))
        code = main(["threshold", "--model", "pasy", "--level", "0.5",
                     "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert "never crosses" in err

    def test_threshold_csv_format(self, capsys):
        assert main(["threshold", "--model", "exp", "--level", "0.5",
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "L_star_m,t_star_s"

    def test_classify(self, capsys):
        assert main(["classify", "--kappa", "4281", "--gamma0", "16292"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["regime"] == "NonMarkovian"
        assert report["delta_per_s"] == pytest.approx(5272.77, abs=0.01)

    def test_classify_tiny_rates(self, capsys):
        # 16 kappa**2 and gamma0**2 both underflow here, and the regime must not
        # depend on them
        assert main(["classify", "--kappa", "1e-187", "--gamma0", "3e-187"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["regime"] == "NonMarkovian"
        assert report["delta_per_s"] == pytest.approx(math.sqrt(7.0) * 1e-187, rel=1e-15)

    def test_classify_boundary(self, capsys):
        assert main(["classify", "--kappa", "25", "--gamma0", "100"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["regime"] == "Boundary"
        assert report["delta_per_s"] == 0.0

    @pytest.mark.parametrize("flag", ["--kappa", "--gamma0"])
    @pytest.mark.parametrize("value", ["nan", "inf", "1e300"])  # 1e300: above the rate ceiling
    def test_classify_nonfinite_errors(self, capsys, flag, value):
        argv = {"--kappa": "4281", "--gamma0": "16292", flag: value}
        assert main(["classify", *(x for kv in argv.items() for x in kv)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("values, command, message", [
        # a negative loss once overflowed into a silent P_pasy of 2.4e177
        ({"mu_per_m": -1}, ["sweep", "--out", "sweep.csv"],
         "mu must be nonnegative, got -1.0"),
        ({"mu_per_m": -1}, ["threshold", "--model", "pasy", "--level", "0.5"],
         "mu must be nonnegative, got -1.0"),
        ({"d_p2_s_per_sqrt_m": 1e300}, ["sweep", "--out", "sweep.csv"],
         "P_pasy is not finite at t = 0 s: nan"),
        ({"t_end_s": 1e300}, ["sweep", "--out", "sweep.csv"], "L_m is not finite"),
        # kappa2 t overflows with no decay to take it to 0: cos^2 of it has no value
        ({"kappa2_per_s": 1e300, "gamma0_per_s": 0, "t_end_s": 1e10},
         ["sweep", "--out", "sweep.csv"], "P_p3 is not finite"),
        ({"d_p2_s_per_sqrt_m": 1e300}, ["threshold", "--model", "pasy", "--level", "0.5"],
         "model 'pasy' is not finite at t = 0 s: nan"),
        ({"mu_per_m": 1e300}, ["threshold", "--model", "exp", "--level", "0.5"],
         "model 'exp' is not finite at t = 0 s: nan"),
        # fits printed numpy warnings, then scipy's "array must not contain infs or NaNs";
        # d_p per radian at the last time is 2.6e-303 s/sqrt(m), so 1e-20 of
        # that record unit is subnormal in SI for both signs
        *[({"delta_omega_rad_s": value}, ["fit", "decay.csv", "--model", "pasy"],
           "the pasy fit's record units are too small: 1e-20 of one is not a normal float in SI")
          for value in (-1e300, 1e300)],
        # no phase to resolve: a 1e-30 rad floor on the grid ceiling made these
        # exit 0 with converged true and a d_p2 of 2.2e15 s/sqrt(m); at 1e-300,
        # d_p per radian is 2.6e297 s/sqrt(m) and its variance about 1e594
        ({"delta_omega_rad_s": 0}, ["fit", "decay.csv", "--model", "pasy"],
         "the pasy model is not finite on this record's scan grid"),
        ({"delta_omega_rad_s": 1e-300}, ["fit", "decay.csv", "--model", "pasy"],
         "the pasy fit overflows on this record"),
    ])
    def test_bad_model_config_errors(self, tmp_path, capsys, monkeypatch,
                                     values, command, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(values))
        (tmp_path / "decay.csv").write_text("t_s,p,sigma\n" + "".join(
            f"{i * 1e-4},{0.9 * 0.6 ** i},0.01\n" for i in range(8)))
        assert main([*command, "--config", "cfg.json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_sweep_overflowing_phase_under_a_zero_envelope(self, tmp_path, capsys, monkeypatch):
        # kappa2 t overflows past t = 0, where e^(-gamma0 t / 2) is already 0:
        # P_p3 was nan there and the sweep exited 1; the limit, 0, is written
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"kappa2_per_s": 1e300, "t_end_s": 1e10}))
        assert main(["sweep", "--out", "sweep.csv", "--config", "cfg.json"]) == 0
        assert capsys.readouterr().err == ""
        with open(tmp_path / "sweep.csv", newline="") as handle:
            p3 = [float(row["P_p3"]) for row in csv.DictReader(handle)]
        assert p3[0] == 1.0 and p3[1:] == [0.0] * (len(p3) - 1)

    def test_fit_pasy_phase_overflow_errors(self, tmp_path, capsys, monkeypatch):
        # the PMD phase on this record overflows: the lab-unit grid ceiling was
        # pi/inf = 0 and numpy's "Geometric sequence cannot include zero" the error
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"delta_omega_rad_s": 1e300}))
        (tmp_path / "decay.csv").write_text("t_s,p,sigma\n" + "".join(
            f"{i * 1e100!r},{0.9 * 0.6 ** i!r},0.01\n" for i in range(8)))
        assert main(["fit", "decay.csv", "--model", "pasy", "--config", "cfg.json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the pasy ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("text, field", [
        ("[1, 2]", "JSON object"),
        ('{"gates": "abc"}', "gates"),
        ('{"n_points": "5"}', "n_points"),
        ('{"w1": true}', "w1"),
        ('{"a1": [0.5]}', "a1"),
        ('{"seed": null}', "seed"),
        ('{"gates": 1.5}', "gates"),
        ('{"seed": 2.5}', "seed"),
        ('{"n_points": 10.5}', "n_points"),
        ('{"sign": 0.5}', "sign"),
        ('{"t_end_s": NaN}', "t_end_s"),
        ('{"mu_per_m": -Infinity}', "mu_per_m"),
        ('{"t_end_s": 1' + "0" * 400 + "}", "t_end_s"),
        ('{"gates": 1' + "0" * 400 + "}", "gates"),
        ('{"gates": 1e300}', "gates"),
    ])
    def test_malformed_config_errors(self, tmp_path, capsys, text, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["classify", "--kappa", "1", "--gamma0", "2",
                     "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert field in captured.err

    def test_bad_config_path_errors(self, capsys):
        assert main(["classify", "--kappa", "1", "--gamma0", "2",
                     "--config", "/nonexistent.json"]) == 1
        assert "error:" in capsys.readouterr().err
