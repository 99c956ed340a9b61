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
nnls at a 1e-6 floor), and whose model values and scan columns come from the
Jacobian's closed form in record units (moves of at most 1.4e-9 sd and
6.0e-14 relative from the dynamics components evaluated in SI), and the tomo
report digests from the MLE that returns a PSD linear inversion as is (rho_hat
entries moved by at most 1.9e-16 on the noisy record and 4.4e-16 on the exact
one, where P_hat moved by 3.3e-16 and the fidelity by 4.4e-16; the
log-likelihoods and the records did not move);
a change that alters any of them changes the CLI artifacts and must say so.
The fit records are written by the tests' own CSV writer (``csv_writer``),
which took over the package's former ``series_to_csv`` with its bytes, so the
fit digests did not change.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from qbuffer import cli, dynamics, fitting

from csv_writer import series_csv


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
     "1e4d83d87e7593f4c6a506491bc4131dc8e7354ef78ca2afa7051a7d99777306"),
    (True, "27a4694ebf836b4163722760778474a21876405b2a2ecce1af8d96a6f3a04e5a",
     "ce6e80bc1067238effcb3f6b11f2bd91e48c8da72e7656434301c0a80c52af44"),
])
def test_tomo(config, exact, records, report):
    records_csv, report_dict = cli.cmd_tomo(config, 0.9, 0.02, exact=exact)
    assert config.seed == 12345
    assert sha256(records_csv) == records
    assert sha256(cli._json_text(report_dict)) == report


def test_boundary_tomo(config):
    # a near-pure state whose linear inversion is unphysical, so the MLE
    # iterates; pinned from the code that still checked the inversion's
    # counts and fidelity's arguments
    records_csv, report_dict = cli.cmd_tomo(config, 0.995, 0.02, exact=False)
    assert report_dict["converged"] and report_dict["iterations"] == 280
    assert sha256(records_csv) == (
        "a796f98acc1c40f6c773d39872b2024f0f2748cb3983f6143c9c4352427784d3")
    assert sha256(cli._json_text(report_dict)) == (
        "0be8eb9e93e1f288d7e607ed01bee46ba97164685abebfbc31016a4154c0ad58")


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
        y = dynamics.prob_pasy(t, config.pmd, config.n_r)
    else:
        t = np.linspace(0.0, 1.5e-3, 50)
        y = dynamics.p3(t, config.cavity)
    if not noise:
        return series_csv(t, y)
    sigma = noise * np.abs(y)
    noisy = y + np.random.default_rng(7).normal(0.0, sigma)
    return series_csv(t, noisy, sigma)


@pytest.mark.parametrize("model, noise, digest", [
    ("pasy", 0.0, "863c7e9407a79c293812db75ab4e29c54fd2240435c9a4c2ef8269d67d30834d"),
    ("pasy", 0.02, "a6ac933a08357360d9d3aa9a69fda6efbbf2dd7f2a3f7fad2e9118982d44d9c3"),
    ("p3", 0.0, "60296d2680b742ca65993163268e877ab57c3d82e412cde5ed054c84f49884ea"),
    ("p3", 0.02, "441a808a33fe32ad19a3e5f7513eed3101119d501f57b0221c5f36b140f1e774"),
])
def test_fit_json(config, model, noise, digest):
    fit = cli.cmd_fit(model, fit_record(config, model, noise))
    assert sha256(fitting.fit_result_to_json(fit)) == digest


BENCH = Path(__file__).resolve().parents[1] / "bench"


# workload -> (items, digest chain) of its first items at seed 11
BENCH_CHAINS = {
    "curves": (12, "a5aefd017a3f7b898d5dc0790ac91692d888c43b17a0977de7c895d228cb0ca4"),
    "tomo-interior": (12, "d3c2cc27ba409f7043e276cc041e8f06fc6ed65f2787d5b7270f394ade6a7cf0"),
    "tomo-boundary": (12, "d2387af5c048e44f6692f5c08759e1055d7dcb0b82a940d7abce159d09978dbb"),
    "fit": (6, "242836d06730c051c86e3185e784b0664482944e03b6b70e30852048beed4442"),
}


@pytest.mark.parametrize("workload", BENCH_CHAINS)
def test_bench_items(workload):
    # the first benchmark items at seed 11, chained as bench/run.py chains
    # them into outputs_sha256, so its bytes are a tier-1 fact
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    from qbbench import harness
    from qbbench.workloads import WORKLOADS
    n_items, chain = BENCH_CHAINS[workload]
    digests = []
    for i in range(n_items):
        task = WORKLOADS[workload].item(11, i)
        result, _, _, error = harness.call_item(task)
        digests.append(harness.digest(harness.verdict_of(task, result, error).texts))
    assert sha256("".join(digests)) == chain
