"""Golden outputs of the default config: refactors must keep these bytes.

The values were captured from the code as it stood before the decay models
were moved into one definition each; a change that alters any of them
changes the CLI artifacts and must say so.
"""

import hashlib

import pytest

from qbuffer import cli


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
