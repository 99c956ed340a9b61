"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  PYTHONPATH=src python -m pytest -q bench
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
for path in (str(SRC), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

from qbbench import child_env, harness  # noqa: E402
from qbbench.workloads import WORKLOADS, TomoBoundary  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.fixture
def env():
    return child_env(SRC)


def test_spec_names_the_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_reports_every_end_to_end_metric(name, env, tmp_path):
    workload = WORKLOADS[name]
    n = max(workload.cycle // 4, 2)   # p90 needs two items
    metrics, tally = harness.measure(workload, 7, 0.01, tmp_path / "work", env,
                                     n_cold=1, n_items=n)
    assert {k: unit for k, (_, unit) in metrics.items()} == _units("end_to_end")
    assert tally.attempted == n + 1
    assert tally.incorrect == 0, tally.messages
    assert all(value > 0 for value, _ in metrics.values()), metrics


def test_size_depends_on_seconds_only():
    for workload in WORKLOADS.values():
        assert workload.size(0.01) == workload.cycle
        assert workload.size(30) % workload.cycle == 0


def test_smoke_reports_every_per_layer_metric(env, tmp_path):
    metrics, tally, _ = harness.trace(WORKLOADS["tomo-boundary"], 7, 0.01,
                                      tmp_path / "work", env, n_import=1, n_items=3)
    assert {k: unit for k, (_, unit) in metrics.items()} == _units("per_layer")
    assert tally.incorrect == 0, tally.messages
    assert metrics["import.scipy_optimize_s"][0] > 0
    assert metrics["tomography.mle.iterations"][0] > 0


@pytest.mark.parametrize("name", ["fit", "tomo-boundary"])
def test_counts_repeat_for_a_seed(name, env, tmp_path):
    runs = [harness.trace(WORKLOADS[name], 11, 0.01, tmp_path / "work", env,
                          n_import=0, n_items=2)[0]
            for _ in range(2)]
    counts = [{k: run[k] for k in harness.EXACT_COUNTS} for run in runs]
    assert counts[0] == counts[1]
    assert any(value for value, _ in counts[0].values())


class _KnownNonConvergence(TomoBoundary):
    """cmd_tomo(werner_p=0.99, xi=0.0) at seed 12345 stops unconverged."""

    COLD_P = 0.99
    warmup = 0

    def _draw(self, seed, stream, index):
        return 0.99, 0.0, 12345


def test_known_failure_is_counted(env, tmp_path):
    metrics, tally = harness.measure(_KnownNonConvergence(), 1, 0.01, tmp_path / "work",
                                     env, n_cold=1, n_items=1)
    assert (tally.attempted, tally.failed, tally.incorrect) == (2, 2, 0)
    assert metrics["ok_ratio"][0] == 0.0
    assert any("converged: false" in m for m in tally.messages)
    assert any("exit code 1" in m for m in tally.messages)
