"""Property tests of the command-line entry point, run in-process.

Whatever the config file, the flags and a ``fit`` CSV hold, ``main`` either
exits 0 with output that parses, or exits 1 with nothing on stdout and
exactly one ``error:`` line on stderr.  ``tomo`` and ``fit`` may also exit 1
after writing their output when the solver did not converge, with that one
verdict line.  argparse's own usage error (exit 2) is expected exactly when a
flag's text is not a number of the flag's type.  A warning raised inside
``main`` fails the example: a numpy RuntimeWarning means a bad value got
through.
"""

import contextlib
import csv
import decimal
import io
import json
import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbuffer.cli import DEFAULT_CONFIG, SWEEP_CSV_HEADER, main
from qbuffer.fitting import SERIES_CSV_HEADER, series_from_csv
from qbuffer.tomography import RECORDS_CSV_HEADER

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


def run(work, config: dict | None, argv: list[str], flags: dict[str, tuple[type, str | None]],
        unconverged: str | None = None):
    """Run ``main`` on ``argv`` plus ``--config`` (none when ``config`` is
    None) and the set ``flags``; return stdout on success, None on an error,
    after checking the contract.  Exit 1 with exactly the ``unconverged`` line
    on stderr also returns stdout: the solver's verdict, written after the
    output."""
    if config is not None:
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
    if unconverged is not None and err.getvalue() == unconverged:
        return out.getvalue()
    assert out.getvalue() == "", argv
    lines = err.getvalue().splitlines(keepends=True)
    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    return None


def finite_json(text: str):
    """Parse JSON that may not hold NaN or Infinity."""
    def refuse(name):
        raise AssertionError(f"{name} in output")
    return json.loads(text, parse_constant=refuse)


def parse_report(text: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(text)
    keys, values = text.splitlines()
    return dict(zip(keys.split(","), values.split(",")))


@FUZZ
@given(config=OVERRIDES, n_points=st.one_of(st.integers(2, 64), VALUES))
@example(config={"t_end_s": BIG}, n_points=2)
@example(config={"mu_per_m": -1e-3}, n_points=2)
@example(config={"d_p2_s_per_sqrt_m": 1e300}, n_points=2)
@example(config={"t_end_s": 1e300}, n_points=2)
def test_sweep(work, config, n_points):
    out = work / "sweep.csv"
    out.unlink(missing_ok=True)
    stdout = run(work, {**config, "n_points": n_points}, ["sweep", f"--out={out}"], {})
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
       level=number_text(1e-3, 0.999), fmt=st.sampled_from(["json", "csv"]))
@example(config={"d_p2_s_per_sqrt_m": 1e300}, model="pasy", level="0.5", fmt="json")
def test_threshold(work, config, model, level, fmt):
    stdout = run(work, config, ["threshold", f"--model={model}", f"--format={fmt}"],
                 {"--level": (float, level)})
    if stdout is not None:
        report = parse_report(stdout, fmt)
        assert sorted(report) == ["L_star_m", "t_star_s"]
        assert all(0.0 <= float(v) < math.inf for v in report.values())


@FUZZ
@given(kappa=number_text(0.0, 1e5), gamma0=number_text(0.0, 1e5),
       fmt=st.sampled_from(["json", "csv"]))
@example(kappa="1e300", gamma0="16292", fmt="json")
@example(kappa="1e-187", gamma0="3e-187", fmt="json")
@example(kappa="3e-170", gamma0="1e-169", fmt="json")
def test_classify(work, kappa, gamma0, fmt):
    stdout = run(work, None, ["classify", f"--format={fmt}"],
                 {"--kappa": (float, kappa), "--gamma0": (float, gamma0)})
    if stdout is None:
        return
    report = parse_report(stdout, fmt)
    delta = float(report["delta_per_s"])
    assert math.copysign(1.0, delta) == 1.0 and delta < math.inf
    # exact oracle: the sign of 4 kappa - gamma0 and the root of 16 kappa^2 - gamma0^2
    four_kappa, g = 4 * Fraction(float(kappa)), Fraction(float(gamma0))
    if report["regime"] == "Boundary":
        assert abs(four_kappa - g) <= Fraction(2, 10**12) * max(four_kappa, g)
        assert delta == 0.0
        return
    assert report["regime"] == ("NonMarkovian" if four_kappa > g else "Markovian")
    assert str(report["delta_is_imaginary"]) == str(four_kappa < g)
    square = abs(four_kappa - g) * (four_kappa + g)
    with decimal.localcontext(decimal.Context(prec=60)):
        exact = float((decimal.Decimal(square.numerator)
                       / decimal.Decimal(square.denominator)).sqrt())
    # json carries every bit, csv twelve significant digits
    tol = 4.0 * math.ulp(exact) if fmt == "json" else 1e-11 * exact
    assert abs(delta - exact) <= tol, (kappa, gamma0, delta, exact)


@FUZZ
@given(config=st.one_of(st.just({}), OVERRIDES),
       gates=st.one_of(st.just(DEFAULT_CONFIG["gates"]), st.integers(1, 2**60), VALUES),
       werner_p=number_text(0.0, 1.0), xi=optional(number_text(0.0, 1.0)),
       exact=st.booleans(), seed=optional(TEXTS))
@example(config={}, gates=BIG, werner_p="0.9", xi=None, exact=False, seed=None)
@example(config={}, gates=1e300, werner_p="0.9", xi=None, exact=False, seed=None)
def test_tomo(work, config, gates, werner_p, xi, exact, seed):
    prefix = work / "tomo"
    paths = [work / "tomo_records.csv", work / "tomo_report.json"]
    for path in paths:
        path.unlink(missing_ok=True)
    stdout = run(work, {**config, "gates": gates},
                 ["tomo", f"--out={prefix}", *(["--exact"] if exact else [])],
                 {"--werner-p": (float, werner_p), "--xi": (float, xi), "--seed": (int, seed)},
                 unconverged="reconstruction did not converge\n")
    if stdout is None:
        assert not any(path.exists() for path in paths)
        return
    assert stdout == ""
    header, *rows = csv.reader(paths[0].read_text().splitlines())
    assert ",".join(header) == RECORDS_CSV_HEADER
    assert len(rows) == 16
    for row in rows:
        assert len(row) == 5
        cc, acc, n_gates = float(row[2]), float(row[3]), int(row[4])
        assert n_gates == gates and 0.0 <= cc <= n_gates and 0.0 <= acc < math.inf
    report = finite_json(paths[1].read_text())
    assert -1.0 <= report["P_hat"] <= 1.0 + 1e-9
    assert 0.0 <= report["fidelity"] <= 1.0
    assert report["exact"] is exact


CELLS = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-320", "1e300", "-1e300",
                         "", "abc", "1" + "0" * 400])
# a table carries at most one fault: in its header, in a magnitude, or in one row
FAULTS = [{"header": None}, {"header": "t,p,sigma"}, {"step": 1e-320}, {"step": 1e300},
          {"scale": 1e300}, {"scale": -0.9}, {"sigma": "1e-320"}, {"sigma": "0"},
          {"row": "cell"}, {"row": "extra"}, {"row": "short"}]


@st.composite
def fit_tables(draw):
    """CSV text of up to 12 rows of a decay, clean or with one drawn fault."""
    table = {"header": SERIES_CSV_HEADER, "step": 1e-4, "scale": 0.9, "sigma": "0.01",
             "row": None, **draw(st.sampled_from([{}] * len(FAULTS) + FAULTS))}
    n = draw(st.integers(0, 12))
    decay = draw(st.floats(0.0, 0.5))  # per row
    rows = [[repr(i * table["step"]), repr(table["scale"] * math.exp(-decay * i)),
             table["sigma"]] for i in range(n)]
    if n and table["row"] is not None:
        row = rows[draw(st.integers(0, n - 1))]
        if table["row"] == "cell":
            row[draw(st.integers(0, 2))] = draw(CELLS)
        elif table["row"] == "extra":
            row.append(draw(CELLS))
        else:
            row.pop()
    lines = [table["header"]] if table["header"] is not None else []
    return "".join(line + "\n" for line in lines + [",".join(row) for row in rows])


# the free parameters of each two-component fit as its report names them,
# the last two its weights
FREE = {"pasy": ("d_p1_s_per_sqrt_m", "d_p2_s_per_sqrt_m", "mu_per_m", "a1", "a2"),
        "p3": ("kappa1_per_s", "kappa2_per_s", "gamma0_per_s", "w1", "w2")}


def table_of(row) -> str:
    """A fit CSV of 8 rows, row i holding the three numbers ``row(i)``."""
    return SERIES_CSV_HEADER + "\n" + "".join(",".join(map(repr, row(i))) + "\n"
                                              for i in range(8))


@settings(FUZZ, max_examples=100)
@given(config=st.one_of(st.just({}), OVERRIDES), model=st.sampled_from(["pasy", "p3", "exp"]),
       table=fit_tables())
@example(config={}, model="exp",
         table=table_of(lambda i: (i * 1e-4, 0.9 - 0.01 * i, 1e-320 if i == 3 else 0.01)))
@example(config={}, model="exp", table=table_of(lambda i: (i * 1e300, 0.9 - 0.01 * i, 0.01)))
@example(config={}, model="exp",
         table=table_of(lambda i: (i * 1e-4, (0.9 - 0.01 * i) * 1e300, 0.01)))
@example(config={"delta_omega_rad_s": 1e300}, model="pasy",
         table=table_of(lambda i: (i * 1e-4, 0.9 * 0.6 ** i, 0.01)))
@example(config={"delta_omega_rad_s": -1e300}, model="pasy",
         table=table_of(lambda i: (i * 1e-4, 0.9 * 0.6 ** i, 0.01)))
@example(config={"delta_omega_rad_s": 0}, model="pasy",
         table=table_of(lambda i: (i * 1e-4, 0.9 * 0.6 ** i, 0.01)))
@example(config={"delta_omega_rad_s": 1e-300}, model="pasy",
         table=table_of(lambda i: (i * 1e-4, 0.9 * 0.6 ** i, 0.01)))
@example(config={"n_r": 1e300}, model="pasy",
         table=table_of(lambda i: (i * 1e-4, 0.9 * 0.6 ** i, 0.01)))
@example(config={}, model="pasy", table=table_of(lambda i: (1e16 + 2.0 * i, 0.9 * 0.6 ** i, 0.01)))
@example(config={}, model="p3", table=table_of(lambda i: (1e16 + 2.0 * i, 0.9 * 0.6 ** i, 0.01)))
@example(config={}, model="pasy", table=table_of(lambda i: (1e12 + 2.0 * i, 0.9 * 0.6 ** i, 0.01)))
@example(config={}, model="p3", table=table_of(lambda i: (1e12 + 2.0 * i, 0.9 * 0.6 ** i, 0.01)))
@example(config={}, model="p3",
         table=table_of(lambda i: (i * 5e-324 if i < 6 else (i - 5) * 1e-150,
                                   0.9 - 0.05 * i, 0.01)))
@example(config={"delta_omega_rad_s": 1e300}, model="pasy",
         table=table_of(lambda i: (i * 1e100, 0.9 * 0.6 ** i, 0.01)))
@example(config={}, model="p3", table=table_of(lambda i: (i * 1e-4 - 1e-2, 0.9 * 0.6 ** i, 0.01)))
@example(config={"delta_omega_rad_s": 1e-200}, model="pasy",
         table=table_of(lambda i: (i * 1e-4, 0.9 * 0.6 ** i, 0.01)))
def test_fit(work, config, model, table):
    data = work / "fit.csv"
    data.write_text(table)
    stdout = run(work, config, ["fit", str(data), f"--model={model}"], {},
                 unconverged="fit did not converge\n")
    if stdout is not None:
        report = finite_json(stdout)
        assert report["model"] == model
        assert 0.0 <= report["residual_norm"] < math.inf
        assert all(v >= 0.0 for v in report["covariance_diag"])
        if model != "exp":  # a pasy or p3 fit beats P = 0
            series = series_from_csv(table)
            assert report["residual_norm"] < math.hypot(*(series.p / series.sigma))
            # the records check nothing: the solver keeps them in range
            free = [report[key] for key in FREE[model]]
            assert min(free) >= 0.0 and free[3] + free[4] > 0.0
