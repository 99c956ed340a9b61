"""Seeded inputs, in-process items, cold commands and output checks.

Every input is drawn from ``numpy.random.default_rng([seed, stream, index])``,
so item ``i`` (or cold command ``j``) is the same for a given seed however
long a run lasts.  Discrete choices (sweep size, threshold model, fit
model, exact or Poisson counts) are stratified: each block of ``cycle``
items holds every choice in fixed proportion, in a seeded order, so the mix
of a run does not depend on the seed.  Tomography draws P and xi in a Latin
hypercube over each block for the same reason.

Checks compare outputs with references the benchmark computes itself.  A
``Problem`` is ``exact`` when it breaks an identity that holds for every
input (a model value, a residual, a closed form); such a problem makes the
run incorrect.  The others judge estimation quality (Poisson tomography
error, fit recovery, reduced chi-square); they fail the item but not the run.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

SPEED_OF_LIGHT = 2.99792458e8  # m/s
PS_PER_SQRT_KM = 1e-12 / math.sqrt(1000.0)

# The model parameters of qbuffer's default configuration.  Inputs are
# generated from this copy, so a change of the program's defaults does not
# change the benchmark's inputs.
BASE_CONFIG = {
    "n_r": 1.468,
    "delta_omega_rad_s": 2.0 * math.pi * 200e9,
    "d_p1_s_per_sqrt_m": 0.0017 * PS_PER_SQRT_KM,
    "d_p2_s_per_sqrt_m": 0.047 * PS_PER_SQRT_KM,
    "mu_per_m": 6.0e-6,
    "a1": 0.15, "a2": 0.85, "sign": 1,
    "kappa1_per_s": 753.0, "kappa2_per_s": 3528.0, "gamma0_per_s": 16292.0,
    "w1": 0.05, "w2": 0.95, "lambda_per_s": 1e6,
}
ACQUISITION = {"gates": 100_000_000, "accidental_rate": 1e-6}
THRESHOLD_BRACKET_S = (0.0, 10e-3)
THRESHOLD_GRID = 10_000
SWEEP_COLUMNS = ("t_s,L_m,P_pasy,P_p3,total_pasy,classical_pasy,discord_pasy,"
                 "concurrence_pasy,total_p3,classical_p3,discord_p3,concurrence_p3")

# random streams
_ITEM, _COLD, _STRATA = 0, 1, 2

POISSON_P_TOL = 0.025   # ~9 sigma of the Poisson error of P_hat at 1e5 pairs
EXACT_P_TOL = 1e-4      # expected-value counts
CLEAN_FIT_RTOL = 0.01
CHISQ_SIGMAS = 6.0      # reduced chi-square window: 1 +/- 6 sqrt(2 / dof)


@dataclass(frozen=True)
class Problem:
    message: str
    exact: bool


@dataclass
class Verdict:
    texts: dict[str, str]
    converged: bool = True
    problems: list[Problem] = field(default_factory=list)


@dataclass
class Task:
    """One in-process item: ``call`` is timed, ``verify`` is not."""

    label: str
    call: Callable[[], object]
    verify: Callable[[object], Verdict]


@dataclass
class ColdCommand:
    """One ``qbuffer`` command run in a fresh interpreter.

    ``files`` are written to the work directory first; ``outputs`` name the
    files read back afterwards (``"-"`` is standard output).  The command
    runs in the work directory, so its paths are relative to it.
    """

    label: str
    argv: list[str]
    files: dict[str, str]
    outputs: tuple[str, ...]
    verify: Callable[[dict[str, str]], list[Problem]]


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def _stratified(seed: int, tag: int, index: int, choices: tuple):
    """choices[...] for ``index``: every block of len(choices) is a permutation."""
    block, slot = divmod(index, len(choices))
    order = _rng(seed, _STRATA, 1000 * tag + block).permutation(len(choices))
    return choices[order[slot]]


def _jitter(rng: np.random.Generator, value: float) -> float:
    return float(value * rng.uniform(0.8, 1.2))


def jittered_config(rng: np.random.Generator) -> dict:
    """Model parameters within +/-20 % of the defaults; each weight pair sums to 1."""
    cfg = dict(BASE_CONFIG)
    for key in ("delta_omega_rad_s", "d_p1_s_per_sqrt_m", "d_p2_s_per_sqrt_m",
                "mu_per_m", "kappa1_per_s", "kappa2_per_s", "gamma0_per_s"):
        cfg[key] = _jitter(rng, cfg[key])
    cfg["a1"] = _jitter(rng, cfg["a1"])
    cfg["a2"] = 1.0 - cfg["a1"]
    cfg["w1"] = _jitter(rng, cfg["w1"])
    cfg["w2"] = 1.0 - cfg["w1"]
    return cfg


# ---------------------------------------------------------------------------
# reference models (closed forms in numpy, independent of the package)
# ---------------------------------------------------------------------------

def pasy_ref(t, cfg: dict):
    length = SPEED_OF_LIGHT / cfg["n_r"] * np.asarray(t, dtype=float)
    root = np.sqrt(length)
    ph1 = cfg["delta_omega_rad_s"] * cfg["d_p1_s_per_sqrt_m"] * root
    ph2 = cfg["delta_omega_rad_s"] * cfg["d_p2_s_per_sqrt_m"] * root
    att = np.exp(-2.0 * cfg["mu_per_m"] * length)
    return (cfg["a1"] * att * (np.cos(ph1) + cfg["sign"] * np.sin(ph1)) ** 2
            + cfg["a2"] * att * np.cos(ph2) ** 2)


def p3_ref(t, cfg: dict):
    t = np.asarray(t, dtype=float)
    env = np.exp(-cfg["gamma0_per_s"] * t / 2.0)
    x = cfg["kappa1_per_s"] * t / math.sqrt(2.0)
    return (cfg["w1"] * env * (np.cos(x) + np.sin(x)) ** 2
            + cfg["w2"] * env * np.cos(cfg["kappa2_per_s"] * t) ** 2)


def exp_ref(t, cfg: dict):
    rate = 2.0 * cfg["mu_per_m"] * SPEED_OF_LIGHT / cfg["n_r"]
    return np.exp(-rate * np.asarray(t, dtype=float))


MODELS = {"pasy": pasy_ref, "p3": p3_ref, "exp": exp_ref}


def _close(value: float, ref: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isfinite(value) and abs(value - ref) <= atol + rtol * abs(ref)


def _parse_json(text: str, what: str) -> tuple[dict | None, list[Problem]]:
    try:
        return json.loads(text), []
    except (ValueError, TypeError):
        return None, [Problem(f"{what}: output is not JSON", True)]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_sweep(text: str, cfg: dict) -> list[Problem]:
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_COLUMNS:
        return [Problem("sweep: header differs from the documented columns", True)]
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    grid = np.linspace(cfg["t_start_s"], cfg["t_end_s"], cfg["n_points"])
    if rows.shape != (cfg["n_points"], 12):
        return [Problem(f"sweep: {rows.shape} table, expected {(cfg['n_points'], 12)}", True)]
    t, length, p_pasy, p_p3 = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
    problems = []

    def expect(name, got, ref, tol=1e-10):
        err = np.abs(got - ref) - tol * (1.0 + np.abs(ref))
        if not np.all(err <= 0):
            row = int(np.argmax(err))
            problems.append(Problem(
                f"sweep: {name} row {row} is {got[row]!r}, reference {ref[row]!r}", True))

    expect("t_s", t, grid)
    expect("L_m", length, SPEED_OF_LIGHT / cfg["n_r"] * grid)
    expect("P_pasy", p_pasy, pasy_ref(grid, cfg))
    expect("P_p3", p_p3, p3_ref(grid, cfg))
    for offset, p in ((4, p_pasy), (8, p_p3)):
        total, classical, disc, conc = rows[:, offset:offset + 4].T
        name = SWEEP_COLUMNS.split(",")[offset].split("_")[1]
        expect(f"total = classical + discord ({name})", total, classical + disc)
        expect(f"concurrence ({name})", conc,
               np.maximum(0.0, (3.0 * np.minimum(p, 1.0) - 1.0) / 2.0))
    return problems


def check_threshold(text: str, cfg: dict, model: str, level: float) -> list[Problem]:
    report, problems = _parse_json(text, "threshold")
    if report is None:
        return problems
    f = MODELS[model]
    t_star = float(report["t_star_s"])
    residual = abs(float(f(t_star, cfg)) - level)
    if not residual <= 1e-9:
        problems.append(Problem(f"threshold: |model(t*) - level| = {residual:.3g}", True))
    grid = np.linspace(*THRESHOLD_BRACKET_S, THRESHOLD_GRID)
    values = f(grid, cfg) - level
    hits = np.nonzero((values[:-1] == 0.0)
                      | (np.sign(values[:-1]) * np.sign(values[1:]) < 0))[0]
    if hits.size == 0:
        problems.append(Problem("threshold: reference grid has no crossing", True))
    else:
        lo, hi = grid[hits[0]], grid[hits[0] + 1]
        slack = 1e-12 * hi
        if not lo - slack <= t_star <= hi + slack:
            problems.append(Problem(
                f"threshold: t* = {t_star!r} is not in the first crossing "
                f"interval [{lo!r}, {hi!r}] of the solver grid", True))
    if not _close(float(report["L_star_m"]), SPEED_OF_LIGHT / cfg["n_r"] * t_star, 1e-12):
        problems.append(Problem("threshold: L_star_m != (c / n_r) t_star_s", True))
    return problems


def check_classify(text: str, kappa: float, gamma0: float) -> list[Problem]:
    report, problems = _parse_json(text, "classify")
    if report is None:
        return problems
    disc = 16.0 * kappa ** 2 - gamma0 ** 2
    delta = math.sqrt(abs(disc))
    if not _close(float(report["delta_per_s"]), delta, 1e-12):
        problems.append(Problem(
            f"classify: delta {report['delta_per_s']!r}, formula gives {delta!r}", True))
    regime = "NonMarkovian" if disc > 0 else "Markovian"
    if report["regime"] != regime or report["delta_is_imaginary"] != (disc < 0):
        problems.append(Problem(f"classify: regime {report['regime']!r}, expected {regime}", True))
    return problems


def werner_p_after_damping(p: float, xi: float) -> float:
    """Mean of the six single-element estimators on damp_werner(p, xi)."""
    return p * (4.0 - 4.0 * xi + 2.0 * math.sqrt(1.0 - xi)) / 6.0


def check_tomo(records_csv: str, report_text: str, p: float, xi: float,
               exact: bool = False) -> list[Problem]:
    from qbuffer import states

    report, problems = _parse_json(report_text, "tomo")
    if report is None:
        return problems
    if len(records_csv.strip().splitlines()) != 17:
        problems.append(Problem("tomo: records CSV does not hold 16 settings", True))
    rho = np.array([[complex(re, im) for re, im in row] for row in report["rho_hat"]])
    if not states.validate(rho).passed:
        problems.append(Problem("tomo: rho_hat fails states.validate", True))
    expected = werner_p_after_damping(p, xi)
    tol = EXACT_P_TOL if exact else POISSON_P_TOL
    if not _close(float(report["P_hat"]), expected, 0.0, tol):
        # expected-value counts leave no estimation error, so a miss is a defect
        problems.append(Problem(
            f"tomo: P_hat {report['P_hat']!r}, expected {expected!r} +/- {tol}", exact))
    return problems


def _fit_params(report: dict, model: str) -> tuple[dict, tuple[str, ...]]:
    if model == "pasy":
        keys = ("d_p1_s_per_sqrt_m", "d_p2_s_per_sqrt_m", "mu_per_m", "a1", "a2")
        cfg = {"n_r": BASE_CONFIG["n_r"], "sign": report["sign"],
               "delta_omega_rad_s": report["delta_omega_rad_s"]}
    else:
        keys = ("kappa1_per_s", "kappa2_per_s", "gamma0_per_s", "w1", "w2")
        cfg = {}
    cfg.update({k: float(report[k]) for k in keys})
    return cfg, keys


def check_fit(text: str, model: str, truth: dict, t, p, sigma,
              noisy: bool) -> list[Problem]:
    report, problems = _parse_json(text, "fit")
    if report is None:
        return problems
    norm = float(report["residual_norm"])
    if model == "exp":
        # weighted linear fit of ln p, as documented for fit_exponential
        w = p / sigma if noisy else np.ones_like(p)
        design = np.column_stack([np.ones_like(t), -t]) * w[:, None]
        (ln_p0, rate), *_ = np.linalg.lstsq(design, np.log(p) * w, rcond=None)
        for key, ref in (("p0", math.exp(ln_p0)), ("rate_per_s", rate)):
            if not _close(float(report[key]), ref, 1e-7):
                problems.append(Problem(f"fit exp: {key} {report[key]!r}, reference {ref!r}", True))
        model_p = float(report["p0"]) * np.exp(-float(report["rate_per_s"]) * t)
    else:
        cfg, keys = _fit_params(report, model)
        model_p = MODELS[model](t, cfg)
        if noisy:
            dof = len(t) - 5
            chisq = norm ** 2 / dof
            half = CHISQ_SIGMAS * math.sqrt(2.0 / dof)
            if not abs(chisq - 1.0) <= half:
                problems.append(Problem(
                    f"fit {model}: reduced chi-square {chisq:.4g} outside 1 +/- {half:.3g}",
                    False))
        else:
            for key in keys:
                if not _close(cfg[key], truth[key], CLEAN_FIT_RTOL):
                    problems.append(Problem(
                        f"fit {model}: {key} {cfg[key]!r} not within 1 % of {truth[key]!r}",
                        False))
    recomputed = float(np.linalg.norm((model_p - p) / sigma))
    if not _close(norm, recomputed, 1e-6, 1e-6):
        problems.append(Problem(
            f"fit {model}: residual_norm {norm!r} does not match its parameters "
            f"({recomputed!r})", True))
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _json_text(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class Workload:
    """A seeded item sequence and a cold-command mix; ``item(seed, i)`` and
    ``cold(seed, j)`` build input ``i`` or command ``j`` without running it."""

    name = ""
    cycle = 1    # items per stratified block
    rate = 1.0   # items per second of ``--seconds``, with the cold commands
    warmup = 1   # leading items run once, untimed, before the measured pass
    repeat = 1   # back-to-back calls of an item; its latency is the least

    def size(self, seconds: float) -> int:
        """Items of a run: whole blocks, about ``rate * seconds`` of them.

        The count depends on ``seconds`` and not on the machine's speed, so
        a seed always gives the same work and the same failures."""
        return self.cycle * max(1, round(seconds * self.rate / self.cycle))

    def item(self, seed: int, i: int) -> Task:
        raise NotImplementedError

    def cold(self, seed: int, j: int) -> ColdCommand:
        raise NotImplementedError


class Curves(Workload):
    """Sweeps and threshold solves; the scalar model loops do the work."""

    name = "curves"
    # weights keep the p50 and p90 ranks inside one class of items
    SWEEP_SIZES = (201, 1501, 1501, 1501, 5001, 5001)
    THRESHOLD_MODELS = ("exp", "exp", "exp", "p3", "pasy", "pasy")
    cycle = 12
    rate = 4.0
    warmup = 6

    def item(self, seed: int, i: int) -> Task:
        from qbuffer import cli

        rng = _rng(seed, _ITEM, i)
        cfg = jittered_config(rng)
        if i % 2 == 0:
            n_points = _stratified(seed, 0, i // 2, self.SWEEP_SIZES)
            cfg.update(t_start_s=0.0, t_end_s=float(rng.uniform(0.5e-3, 5e-3)),
                       n_points=n_points)
            config = cli.build_config(cfg)
            return Task(f"sweep n={n_points}", lambda: cli.cmd_sweep(config),
                        lambda out: Verdict({"sweep.csv": out}, True,
                                            check_sweep(out, cfg)))
        model = _stratified(seed, 1, i // 2, self.THRESHOLD_MODELS)
        level = float(rng.uniform(0.05, 0.9))
        config = cli.build_config(cfg)

        def verify(out: dict) -> Verdict:
            text = _json_text(out)
            return Verdict({"threshold.json": text}, True,
                           check_threshold(text, cfg, model, level))

        return Task(f"threshold {model}", lambda: cli.cmd_threshold(config, model, level),
                    verify)

    # (command, threshold model); three sweeps in six, so the median cold
    # command is a sweep and not the boundary between two kinds of command
    COLD_MIX = (("classify", ""), ("sweep", ""), ("threshold", "pasy"),
                ("sweep", ""), ("threshold", "p3"), ("sweep", ""))

    def cold(self, seed: int, j: int) -> ColdCommand:
        rng = _rng(seed, _COLD, j)
        kind, model = self.COLD_MIX[j % len(self.COLD_MIX)]
        if kind == "classify":
            kappa = _jitter(rng, 4281.0)
            gamma0 = _jitter(rng, 16292.0)
            return ColdCommand("classify", ["classify", "--kappa", repr(kappa),
                                            "--gamma0", repr(gamma0)], {}, ("-",),
                               lambda out: check_classify(out["-"], kappa, gamma0))
        cfg = jittered_config(rng)
        cfg.update(t_start_s=0.0, t_end_s=float(rng.uniform(0.5e-3, 5e-3)),
                   n_points=1501)
        files = {"config.json": json.dumps(cfg)}
        if kind == "sweep":
            return ColdCommand("sweep", ["sweep", "--config", "config.json",
                                         "--out", "sweep.csv"], files, ("sweep.csv",),
                               lambda out: check_sweep(out["sweep.csv"], cfg))
        level = float(rng.uniform(0.05, 0.9))
        return ColdCommand(f"threshold {model}",
                           ["threshold", "--config", "config.json", "--model", model,
                            "--level", repr(level)], files, ("-",),
                           lambda out: check_threshold(out["-"], cfg, model, level))


class TomoInterior(Workload):
    """Tomography of damped Werner states well inside the physical region.

    The linear inversion is already physical, so the MLE stops at iteration
    0; the time goes to count simulation, the design matrix, validation and
    serialization.  One item in four uses expected-value counts.
    """

    name = "tomo-interior"
    P_RANGE = (0.0, 0.95)
    XI_RANGE = (0.0, 0.3)
    EXACT = (False, False, False, True)   # one item in four, stratified
    COLD_P: float | None = None           # cold commands draw P like items
    cycle = 120
    rate = 36.0
    warmup = 8
    repeat = 3

    def _draw(self, seed: int, stream: int, index: int) -> tuple[float, float, int]:
        """(P, xi, count seed).  Items draw P and xi in a Latin hypercube over
        each block of ``cycle`` items, so every run covers both ranges evenly."""
        rng = _rng(seed, stream, index)
        if stream != _ITEM:
            return (float(rng.uniform(*self.P_RANGE)), float(rng.uniform(*self.XI_RANGE)),
                    int(rng.integers(2 ** 31)))
        strata = tuple(range(self.cycle))
        (p_lo, p_hi), (xi_lo, xi_hi) = self.P_RANGE, self.XI_RANGE
        p = p_lo + (p_hi - p_lo) * (_stratified(seed, 1, index, strata) + rng.uniform()) / self.cycle
        xi = xi_lo + (xi_hi - xi_lo) * (_stratified(seed, 2, index, strata) + rng.uniform()) / self.cycle
        return float(p), float(xi), int(rng.integers(2 ** 31))

    def _exact(self, seed: int, stream: int, index: int) -> bool:
        if not self.EXACT:
            return False
        if stream == _ITEM:
            return _stratified(seed, 3, index, self.EXACT)
        return index % 2 == 1

    def item(self, seed: int, i: int) -> Task:
        from qbuffer import cli

        p, xi, run_seed = self._draw(seed, _ITEM, i)
        exact = self._exact(seed, _ITEM, i)
        config = cli.build_config({**ACQUISITION, "seed": run_seed})

        def verify(out) -> Verdict:
            records_csv, report = out
            report_text = _json_text(report)
            return Verdict({"records.csv": records_csv, "report.json": report_text},
                           bool(report["converged"]),
                           check_tomo(records_csv, report_text, p, xi, exact))

        return Task(f"tomo {'exact' if exact else 'poisson'}",
                    lambda: cli.cmd_tomo(config, p, xi, exact), verify)

    def cold(self, seed: int, j: int) -> ColdCommand:
        p, xi, run_seed = self._draw(seed, _COLD, j)
        if self.COLD_P is not None:
            p = self.COLD_P
        exact = self._exact(seed, _COLD, j)
        argv = ["tomo", "--config", "config.json", "--werner-p", repr(p), "--xi", repr(xi),
                "--seed", str(run_seed), "--out", "run", *(["--exact"] if exact else [])]
        return ColdCommand(
            f"tomo{' --exact' if exact else ''}", argv,
            {"config.json": json.dumps(ACQUISITION)},
            ("run_records.csv", "run_report.json"),
            lambda out: check_tomo(out["run_records.csv"], out["run_report.json"],
                                   p, xi, exact))


class TomoBoundary(TomoInterior):
    """Tomography of near-pure damped Werner states from Poisson counts.

    The linear inversion of such counts is often unphysical, so the MLE runs
    tens to hundreds of L-BFGS-B iterations and now and then stops unconverged.
    """

    name = "tomo-boundary"
    P_RANGE = (0.99, 1.0)
    XI_RANGE = (0.0, 0.05)
    EXACT = ()
    COLD_P = 1.0
    cycle = 60
    rate = 18.0
    repeat = 1


class Fit(Workload):
    """Decay-model fits of CSV records; exp is the control that skips scan and polish."""

    name = "fit"
    KINDS = (("pasy", False), ("pasy", True), ("p3", False), ("p3", True),
             ("exp", False), ("exp", True))
    cycle = 6
    rate = 4.0
    warmup = 6

    @staticmethod
    def record(rng: np.random.Generator, model: str, noisy: bool):
        """(truth, t, p, sigma, csv_text) of one generated record."""
        if model == "p3":
            t = np.linspace(0.0, 1.5e-3, 50)
            truth = {"kappa1_per_s": 753.0, "kappa2_per_s": 3528.0,
                     "gamma0_per_s": 16292.0, "w1": 0.5, "w2": 0.5}
            truth = {k: _jitter(rng, v) for k, v in truth.items()}
            y = p3_ref(t, truth)
        else:
            t = np.linspace(0.0, 5e-3, 300)
            truth = {"d_p1_s_per_sqrt_m": 0.0017 * PS_PER_SQRT_KM,
                     "d_p2_s_per_sqrt_m": 0.047 * PS_PER_SQRT_KM,
                     "mu_per_m": 6.0e-6, "a1": 0.5, "a2": 0.5}
            truth = {k: _jitter(rng, v) for k, v in truth.items()}
            truth.update(n_r=BASE_CONFIG["n_r"], sign=1,
                         delta_omega_rad_s=2.0 * math.pi * 200e9)
            y = pasy_ref(t, truth)
        if noisy:
            sigma = 0.02 * np.abs(y)
            p = y + rng.normal(0.0, sigma)
        else:
            sigma = np.ones_like(y)
            p = y
        rows = "".join(f"{format(a, '.17g')},{format(b, '.17g')},{format(c, '.17g')}\n"
                       for a, b, c in zip(t, p, sigma))
        return truth, t, p, sigma, "t_s,p,sigma\n" + rows

    def item(self, seed: int, i: int) -> Task:
        from qbuffer import cli, fitting

        model, noisy = _stratified(seed, 0, i, self.KINDS)
        truth, t, p, sigma, text = self.record(_rng(seed, _ITEM, i), model, noisy)

        def call():
            result = cli.cmd_fit(model, text)
            return result.converged, fitting.fit_result_to_json(result)

        def verify(out) -> Verdict:
            converged, fit_json = out
            return Verdict({"fit.json": fit_json}, converged,
                           check_fit(fit_json, model, truth, t, p, sigma, noisy))

        return Task(f"fit {model} {'noisy' if noisy else 'clean'}", call, verify)

    def cold(self, seed: int, j: int) -> ColdCommand:
        # five pasy per p3, so the median command lies inside the pasy fits
        model = "p3" if j % 6 == 0 else "pasy"
        noisy = j % 2 == 1
        truth, t, p, sigma, text = self.record(_rng(seed, _COLD, j), model, noisy)
        return ColdCommand(f"fit {model}", ["fit", "data.csv", "--model", model],
                           {"data.csv": text}, ("-",),
                           lambda out: check_fit(out["-"], model, truth, t, p, sigma, noisy))


WORKLOADS = {w.name: w for w in (Curves(), TomoInterior(), TomoBoundary(), Fit())}
