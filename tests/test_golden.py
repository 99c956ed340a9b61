"""Golden outputs of the default config: refactors must keep these bytes.

The values were captured from the code as it stood before the decay models
were moved into one definition each, and the fit digests from the code that
fits pasy and p3 in the record's own units (each golden parameter moved by
at most 2.6e-8 of its reported standard error on the noisy records, and by
at most 1.7e-13 relative on the clean ones, when the fits left lab units)
with a closed-form Jacobian (moves of at most 1.7e-14 sd and 2.1e-13
relative from the complex-step one), polished by qbuffer's own bounded
Levenberg-Marquardt solver (moves of at most 4.0e-7 sd and 2.7e-13 relative
from the trust-region one) from starts whose weights the scan's closed-form
NNLS solved (moves of at most 2.6e-8 sd and 2.2e-13 relative from scipy's
nnls at a 1e-6 floor);
a change that alters any of them changes the CLI artifacts and must say so.
"""

import hashlib

import numpy as np
import pytest

from qbuffer import cli, dynamics, fitting


@pytest.fixture(scope="module")
def config():
    return cli.build_config({})


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_sweep_csv(config):
    assert sha256(cli.cmd_sweep(config)) == (
        "ebdce64bd5bd00a3a374a1a4adc76c39fb353e704b8e3e5613689a350ee558b8")


@pytest.mark.parametrize("model, t_star", [("pasy", 0.00022777312836972548),
                                           ("p3", 7.694370044564911e-05),
                                           ("exp", 0.00028284569149668196)])
def test_threshold(config, model, t_star):
    assert cli.cmd_threshold(config, model, 0.5)["t_star_s"] == t_star


@pytest.mark.parametrize("exact, records, report", [
    (False, "9605d979ed32befc9d0c4887aa93a8b34e3885eef8907d76aa953741779468b1",
     "51252565802d732a6a82b64685d687a4d18014ec7034d2c812073ebca9d88289"),
    (True, "27a4694ebf836b4163722760778474a21876405b2a2ecce1af8d96a6f3a04e5a",
     "171d12d0e122fce7e947a1ab382bc00c97353df01fe369e0d460686f5e9d5b14"),
])
def test_tomo(config, exact, records, report):
    records_csv, report_dict = cli.cmd_tomo(config, 0.9, 0.02, exact=exact)
    assert config.seed == 12345
    assert sha256(records_csv) == records
    assert sha256(cli._json_text(report_dict)) == report


def test_classify():
    assert cli._json_text(cli.cmd_classify(4281.0, 16292.0)) == (
        '{\n  "delta_is_imaginary": false,\n'
        '  "delta_per_s": 5272.770808597696,\n'
        '  "regime": "NonMarkovian"\n}\n')


def fit_record(config, model: str, noise: float) -> str:
    """CSV of the default model curve: 300 points to 5 ms for pasy, 50 to
    1.5 ms for p3, with relative Gaussian noise of known sigma (seed 7)."""
    if model == "pasy":
        t = np.linspace(0.0, 5e-3, 300)
        y = dynamics.prob_pasy(t, config.pmd, config.units)
    else:
        t = np.linspace(0.0, 1.5e-3, 50)
        y = dynamics.p3(t, config.cavity)
    if not noise:
        return fitting.series_to_csv(fitting.DataSeries.from_points(t, y))
    sigma = noise * np.abs(y)
    noisy = y + np.random.default_rng(7).normal(0.0, sigma)
    return fitting.series_to_csv(fitting.DataSeries(t, noisy, sigma))


@pytest.mark.parametrize("model, noise, digest", [
    ("pasy", 0.0, "7b127bfd0cd35aabe8629117a1bee2fe586fe7f1b575b2ad878a65ce06e8a626"),
    ("pasy", 0.02, "1ad989a6edaa620e0b9e57373233d09a17bdff08d16c3fdb609785c2819cf495"),
    ("p3", 0.0, "f1e8b633db0645cc2ba19761cb835054d94714048ae9b4dcf20dc3c2e055892a"),
    ("p3", 0.02, "8bbc975c3206782311d449e424e75eb94c040938df935d0a74919b2f3739daab"),
])
def test_fit_json(config, model, noise, digest):
    fit = cli.cmd_fit(model, fit_record(config, model, noise))
    assert sha256(fitting.fit_result_to_json(fit)) == digest
