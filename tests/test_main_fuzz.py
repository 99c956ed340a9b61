"""Property tests of the command-line entry point, run in-process.

Whatever the config file and the flags hold, ``main`` either exits 0 with
output that parses, or exits 1 with nothing on stdout and exactly one
``error:`` line on stderr.  argparse's own usage error (exit 2) is expected
exactly when a flag's text is not a number of the flag's type.  A warning
raised inside ``main`` fails the example: a numpy RuntimeWarning means a bad
value got through.
"""

import contextlib
import csv
import io
import json
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbuffer.cli import DEFAULT_CONFIG, SWEEP_CSV_HEADER, main

BIG = 10 ** 400
VALUES = st.sampled_from([0, 0.0, -0.0, -1, -1e-3, -1e300, 1e-300, 1e300, BIG, -BIG,
                          "1", "", True, False, None, math.nan, math.inf, -math.inf])
TEXTS = st.sampled_from(["0", "-0", "-1", "-1e-300", "1e-300", "1e300", "-1e300",
                         "1" + "0" * 400, "nan", "inf", "-Infinity", "abc", "true",
                         "null", ""])
# up to two config fields replaced; n_points is drawn on its own for sweep
OVERRIDES = st.dictionaries(st.sampled_from(sorted(set(DEFAULT_CONFIG) - {"n_points"})),
                            VALUES, max_size=2)
# derandomized, so every run draws the same examples; the @example rows pin
# inputs that once broke the contract
FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def number_text(low: float, high: float):
    """Flag text: a plain number in [low, high] or one of ``TEXTS``."""
    return st.one_of(st.floats(low, high).map(repr), TEXTS)


def optional(strategy):
    return st.one_of(st.none(), strategy)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def parses(kind: type, text: str) -> bool:
    try:
        kind(text)
    except ValueError:
        return False
    return True


def run(work, config: dict, argv: list[str], flags: dict[str, tuple[type, str | None]]):
    """Run ``main`` on ``argv`` plus ``--config`` and the set ``flags``;
    return stdout on success, None on an error, after checking the contract."""
    path = work / "config.json"
    path.write_text(json.dumps(config))
    argv = [*argv, f"--config={path}"]
    argv += [f"{name}={text}" for name, (kind, text) in flags.items() if text is not None]
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings()):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    if not all(text is None or parses(kind, text) for kind, text in flags.values()):
        assert code == 2, (argv, out.getvalue(), err.getvalue())
        return None
    if code == 0:
        assert err.getvalue() == "", argv
        return out.getvalue()
    assert code == 1, argv
    assert out.getvalue() == "", argv
    lines = err.getvalue().splitlines(keepends=True)
    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    return None


def parse_report(text: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(text)
    keys, values = text.splitlines()
    return dict(zip(keys.split(","), values.split(",")))


@FUZZ
@given(config=OVERRIDES, n_points=st.one_of(st.integers(2, 64), VALUES),
       seed=optional(TEXTS))
@example(config={"t_end_s": BIG}, n_points=2, seed=None)
@example(config={"mu_per_m": -1e-3}, n_points=2, seed=None)
@example(config={"d_p2_s_per_sqrt_m": 1e300}, n_points=2, seed=None)
@example(config={"t_end_s": 1e300}, n_points=2, seed=None)
def test_sweep(work, config, n_points, seed):
    out = work / "sweep.csv"
    out.unlink(missing_ok=True)
    stdout = run(work, {**config, "n_points": n_points},
                 ["sweep", f"--out={out}"], {"--seed": (int, seed)})
    if stdout is None:
        assert not out.exists()
        return
    assert stdout == ""
    header, *rows = csv.reader(out.read_text().splitlines())
    assert ",".join(header) == SWEEP_CSV_HEADER
    assert len(rows) == n_points
    assert all(len(row) == 12 and all(math.isfinite(float(x)) for x in row) for row in rows)
    # each component is a squared bracket (at most 2) under an envelope of at most 1
    merged = {**DEFAULT_CONFIG, **config}
    for column, (w1, w2) in ((2, ("a1", "a2")), (3, ("w1", "w2"))):
        bound = (2.0 * merged[w1] + merged[w2]) * (1.0 + 1e-12)
        assert all(0.0 <= float(row[column]) <= bound for row in rows), header[column]


@FUZZ
@given(config=OVERRIDES, model=st.sampled_from(["pasy", "p3", "exp"]),
       level=number_text(1e-3, 0.999), fmt=st.sampled_from(["json", "csv"]),
       seed=optional(TEXTS))
@example(config={"d_p2_s_per_sqrt_m": 1e300}, model="pasy", level="0.5", fmt="json",
         seed=None)
def test_threshold(work, config, model, level, fmt, seed):
    stdout = run(work, config, ["threshold", f"--model={model}", f"--format={fmt}"],
                 {"--level": (float, level), "--seed": (int, seed)})
    if stdout is not None:
        report = parse_report(stdout, fmt)
        assert sorted(report) == ["L_star_m", "t_star_s"]
        assert all(0.0 <= float(v) < math.inf for v in report.values())


@FUZZ
@given(config=OVERRIDES, kappa=number_text(0.0, 1e5), gamma0=number_text(0.0, 1e5),
       fmt=st.sampled_from(["json", "csv"]), seed=optional(TEXTS))
@example(config={}, kappa="1e300", gamma0="16292", fmt="json", seed=None)
def test_classify(work, config, kappa, gamma0, fmt, seed):
    stdout = run(work, config, ["classify", f"--format={fmt}"],
                 {"--kappa": (float, kappa), "--gamma0": (float, gamma0),
                  "--seed": (int, seed)})
    if stdout is not None:
        report = parse_report(stdout, fmt)
        assert report["regime"] in ("Markovian", "NonMarkovian", "Boundary")
        assert 0.0 <= float(report["delta_per_s"]) < math.inf
