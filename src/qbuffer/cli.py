"""Command-line surface: sweep, tomo, fit, threshold, classify.

Every command but classify reads a JSON config (flat schema, one row per field
in CONFIG_FIELDS) and checks every field of it, read or not; tomo's --seed
overrides its seed, and each emits plot-ready CSV/JSON.  Runs are deterministic
for a fixed config and seed: repeated invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import channels, dynamics, states

_NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")

# the config's schema: one (key, default, rule) row per field, where rule is a
# (predicate, message) pair or None.  The default's type is the field's kind:
# an int default makes the field integral, a float default a float.  Each
# default is the one default of that model input: the other modules take each
# as an argument, and build_config({}) gives them as typed objects
CONFIG_FIELDS = (
    # propagation
    ("n_r", 1.468, (lambda v: v > 1, "must exceed 1")),
    # sqrt(L)-phase model; the co-rotating component carries most of the
    # weight (D_p2 >> D_p1, same asymmetry as the weights)
    ("delta_omega_rad_s", 2.0 * np.pi * 200e9, None),
    ("d_p1_s_per_sqrt_m", 0.0017 * dynamics.PS_PER_SQRT_KM, None),
    ("d_p2_s_per_sqrt_m", 0.047 * dynamics.PS_PER_SQRT_KM, None),
    ("mu_per_m", 6.0e-6, _NONNEGATIVE),
    ("a1", 0.15, _NONNEGATIVE),
    ("a2", 0.85, _NONNEGATIVE),
    ("sign", 1, (lambda v: v in (1, -1), "must be +1 or -1")),
    # linear-phase model; equal weights would let the envelope swamp the
    # oscillation, so the dominant-harmonic split is the default here too
    ("kappa1_per_s", 753.0, _NONNEGATIVE),
    ("kappa2_per_s", 3528.0, _NONNEGATIVE),
    ("gamma0_per_s", 16292.0, _NONNEGATIVE),
    ("w1", 0.05, _NONNEGATIVE),
    ("w2", 0.95, _NONNEGATIVE),
    ("lambda_per_s", 1e6, _NONNEGATIVE),
    # tomography acquisition; the count model holds gates in a float
    ("gates", 100_000_000, (lambda v: 0 < v <= 2**53, "must lie in [1, 2**53]")),
    ("accidental_rate", 1e-6, (lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)")),
    ("seed", 12345, _NONNEGATIVE),
    # sweep grid
    ("t_start_s", 0.0, _NONNEGATIVE),
    ("t_end_s", 1.5e-3, None),
    ("n_points", 1501, (lambda v: v >= 2, "must be at least 2")),
)
# the rules that read two fields: (first, second, predicate, message)
CONFIG_PAIRS = (
    ("a1", "a2", lambda a1, a2: a1 + a2 > 0, "a1 + a2: must be positive"),
    ("w1", "w2", lambda w1, w2: w1 + w2 > 0, "w1 + w2: must be positive"),
    ("t_start_s", "t_end_s", lambda start, end: end > start, "t_end_s: must exceed t_start_s"),
)
DEFAULT_CONFIG: dict = {key: default for key, default, _ in CONFIG_FIELDS}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    n_r: float
    pmd: dynamics.PmdModelParams
    cavity: dynamics.CavityModelParams
    gates: int
    accidental_rate: float
    seed: int
    t_start_s: float
    t_end_s: float
    n_points: int


def build_config(values: dict) -> RunConfig:
    """Check a flat config dict against ``CONFIG_FIELDS`` and assemble the
    typed RunConfig.  Each field must be a finite real number (numpy scalars
    pass, bools do not), integral where its default is an int and within the
    float range where it is a float.  Each field that passes meets its row's
    rule, and each ``CONFIG_PAIRS`` rule whose two fields pass holds.  One
    error names every problem, the fields' in table order and then the
    pairs'.  No other module checks the config, whichever command reads it."""
    if not isinstance(values, dict):
        raise ConfigError(f"config must be a JSON object, got {type(values).__name__}")
    unknown = sorted(set(values) - set(DEFAULT_CONFIG))
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    typed, problems = {}, []
    for key, default, rule in CONFIG_FIELDS:
        value = values.get(key, default)
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (real and -math.inf < value < math.inf):  # ints of any size pass
            problems.append(f"{key}: must be a finite number, got {value!r}")
        elif isinstance(default, int) and int(value) != value:
            problems.append(f"{key}: must be an integer, got {value!r}")
        elif isinstance(default, float) and abs(value) > sys.float_info.max:
            problems.append(f"{key}: must lie within the float range, got an "
                            f"integer of {len(str(abs(value)))} digits")
        else:
            typed[key] = type(default)(value)
            if rule is not None and not rule[0](typed[key]):
                problems.append(f"{key}: {rule[1]}")
    problems += [message for first, second, holds, message in CONFIG_PAIRS
                 if first in typed and second in typed and not holds(typed[first], typed[second])]
    if problems:
        raise ConfigError("; ".join(problems))
    return RunConfig(
        pmd=dynamics.PmdModelParams(**{attr: typed[key]
                                       for key, attr in dynamics._PMD_FIELDS.items()}),
        cavity=dynamics.CavityModelParams(**{attr: typed[key]
                                             for key, attr in dynamics._CAVITY_FIELDS.items()}),
        **{key: typed[key] for key in ("n_r", "gates", "accidental_rate", "seed",
                                       "t_start_s", "t_end_s", "n_points")})


def load_config(path: str | None, overrides: dict | None) -> RunConfig:
    values = json.loads(Path(path).read_text()) if path is not None else {}
    if overrides and isinstance(values, dict):
        values = {**values, **overrides}
    return build_config(values)


SWEEP_CSV_HEADER = ("t_s,L_m,P_pasy,P_p3,total_pasy,classical_pasy,discord_pasy,"
                    "concurrence_pasy,total_p3,classical_p3,discord_p3,concurrence_p3")


_SWEEP_ROW = ",".join(["%.12g"] * len(SWEEP_CSV_HEADER.split(","))) + "\n"
_SWEEP_BLOCK = 128  # rows held as Python floats at once, to bound peak memory


def _finite(name: str, model: Callable, t, *args):
    """``model(t, *args)`` with numpy's floating-point warnings off; a value
    that overflowed to inf or nan raises one error naming ``name``."""
    with np.errstate(all="ignore"):
        values = model(t, *args)
    bad = ~np.isfinite(values)
    if np.any(bad):
        t_bad = np.broadcast_to(t, np.shape(values))[bad][0]
        raise ValueError(f"{name} is not finite at t = {t_bad:.12g} s: "
                         f"{np.asarray(values)[bad][0]}")
    return values


def _sweep_table(config: RunConfig) -> np.ndarray:
    """The sweep's 12 columns, one row per grid point."""
    from . import measures
    t = np.linspace(config.t_start_s, config.t_end_s, config.n_points)
    length = _finite("L_m", dynamics.length_from_time, t, config.n_r)
    p_pasy = _finite("P_pasy", dynamics.prob_pasy, t, config.pmd, config.n_r)
    p_p3 = _finite("P_p3", dynamics.p3, t, config.cavity)
    # model curves are proportionalities and may poke above 1; the
    # information measures are defined on [0, 1]
    m = measures.correlation_report(np.minimum([p_pasy, p_p3], 1.0))
    by_model = np.stack((m.total, m.classical, m.discord, m.concurrence), axis=1)
    return np.column_stack((t, length, p_pasy, p_p3, *by_model.reshape(8, -1)))


def cmd_sweep(config: RunConfig) -> str:
    """Evaluate both decay models and their correlation measures on the grid."""
    table = _sweep_table(config)
    parts = [SWEEP_CSV_HEADER + "\n"]
    for start in range(0, len(table), _SWEEP_BLOCK):
        block = table[start:start + _SWEEP_BLOCK].tolist()
        parts.append("".join(_SWEEP_ROW % tuple(row) for row in block))
    return "".join(parts)


def cmd_tomo(config: RunConfig, werner_p: float, xi: float,
             exact: bool) -> tuple[str, dict]:
    """Simulate the full tomography pipeline on a damped Werner state.

    Returns the records CSV and the reconstruction report.  ``exact``
    replaces Poisson draws with expected-value counts.
    """
    from . import tomography
    rho_true = channels.damp_werner(werner_p, xi)
    if exact:
        record = tomography.expected_counts(rho_true, config.gates,
                                            config.accidental_rate)
    else:
        record = tomography.simulate_counts(rho_true, config.gates,
                                            config.accidental_rate, config.seed)
    result = tomography.reconstruct_mle(tomography.subtract_accidentals(record))
    report = {
        "P_true": werner_p,
        "xi": xi,
        "P_hat": tomography.estimate_werner_probability(result.rho_hat),
        "fidelity": tomography.fidelity(rho_true, result.rho_hat),
        "converged": result.converged,
        "iterations": result.iterations,
        "log_likelihood": result.log_likelihood,
        "seed": config.seed,
        "exact": exact,
        "rho_hat": states.rho_to_pairs(result.rho_hat),
    }
    return tomography.records_to_csv(record), report


MODELS = ("pasy", "p3", "exp")  # the decay models fit and threshold take; argparse checks --model


def cmd_fit(model_name: str, csv_text: str,
            config: RunConfig | None = None) -> fitting.FitResult:
    """Fit the named model, one of ``MODELS``, to CSV data; pasy holds the
    config's detuning and sign branch fixed and converts times with its n_r,
    p3 carries the config's reservoir width (default config when none is given)."""
    from . import fitting
    data = fitting.series_from_csv(csv_text)
    config = config if config is not None else build_config({})
    if model_name == "pasy":
        return fitting.fit_pasy(data, n_r=config.n_r,
                                delta_omega=config.pmd.delta_omega, sign=config.pmd.sign)
    if model_name == "p3":
        return fitting.fit_p3(data, lambda_width=config.cavity.lambda_width)
    return fitting.fit_exponential(data)


THRESHOLD_BRACKET_S = (0.0, 10e-3)


def cmd_threshold(config: RunConfig, model_name: str, level: float) -> dict:
    """Locate the first time the named model, one of ``MODELS``, crosses
    ``level`` in [0, 10 ms]."""
    from . import measures
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    if model_name == "pasy":
        model = lambda t: dynamics.prob_pasy(t, config.pmd, config.n_r)
    elif model_name == "p3":
        model = lambda t: dynamics.p3(t, config.cavity)
    else:
        model = lambda t: dynamics.markovian_exponential(t, config.pmd.mu, config.n_r)
    t_star = measures.solve_level_crossing(
        lambda t: _finite(f"model {model_name!r}", model, t), level, THRESHOLD_BRACKET_S)
    if t_star is None:
        raise ValueError(
            f"model {model_name!r} never crosses level {level} in "
            f"[{THRESHOLD_BRACKET_S[0]}, {THRESHOLD_BRACKET_S[1]}] s")
    return {"t_star_s": t_star,
            "L_star_m": dynamics.length_from_time(t_star, config.n_r)}


def cmd_classify(kappa: float, gamma0: float) -> dict:
    result = dynamics.classify_regime(kappa, gamma0)
    return {"regime": result.regime, "delta_per_s": result.delta,
            "delta_is_imaginary": result.delta_is_imaginary}


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _json_text(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _dict_csv(obj: dict) -> str:
    keys = sorted(obj)
    values = ",".join(format(obj[k], ".12g") if isinstance(obj[k], float)
                      else str(obj[k]) for k in keys)
    return ",".join(keys) + "\n" + values + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbuffer",
        description="Buffered photon-pair decoherence toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--out", metavar="PATH", help="output path")

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="evaluate both decay models over the time grid")

    p_tomo = sub.add_parser("tomo", parents=[common],
                            help="simulate tomography of a damped Werner state")
    p_tomo.add_argument("--werner-p", type=float, required=True,
                        help="Werner probability of the prepared state")
    p_tomo.add_argument("--xi", type=float, default=0.0,
                        help="amplitude-damping probability on the buffered arm")
    p_tomo.add_argument("--exact", action="store_true",
                        help="use expected-value counts instead of Poisson draws")
    p_tomo.add_argument("--seed", type=int, help="override the config seed")

    p_fit = sub.add_parser("fit", parents=[common], help="fit a decay model to CSV data")
    p_fit.add_argument("data", metavar="DATA_CSV", help="input CSV with header t_s,p,sigma")
    p_fit.add_argument("--model", choices=MODELS, required=True)

    p_thr = sub.add_parser("threshold", parents=[common],
                           help="first crossing time of a model below a level")
    p_thr.add_argument("--model", choices=MODELS, required=True)
    p_thr.add_argument("--level", type=float, required=True)
    p_thr.add_argument("--format", choices=("json", "csv"), default="json")

    p_cls = sub.add_parser("classify", help="Markovian / non-Markovian regime of a rate pair")
    p_cls.add_argument("--out", metavar="PATH", help="output path")
    p_cls.add_argument("--kappa", type=float, required=True, help="coupling rate, 1/s")
    p_cls.add_argument("--gamma0", type=float, required=True, help="reservoir rate, 1/s")
    p_cls.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "classify":  # reads no config
            report = cmd_classify(args.kappa, args.gamma0)
            _emit(_json_text(report) if args.format == "json" else _dict_csv(report), args.out)
            return 0
        seed = args.seed if args.command == "tomo" else None
        config = load_config(args.config, None if seed is None else {"seed": seed})
        if args.command == "sweep":
            if args.out is None:
                raise ValueError("sweep requires --out for the CSV file")
            _emit(cmd_sweep(config), args.out)
        elif args.command == "tomo":
            if args.out is None:
                raise ValueError("tomo requires --out as an output prefix")
            records_csv, report = cmd_tomo(config, args.werner_p, args.xi, args.exact)
            Path(args.out + "_records.csv").write_text(records_csv)
            Path(args.out + "_report.json").write_text(_json_text(report))
            if not report["converged"]:
                sys.stderr.write("reconstruction did not converge\n")
                return 1
        elif args.command == "fit":
            from . import fitting
            result = cmd_fit(args.model, Path(args.data).read_text(), config)
            _emit(fitting.fit_result_to_json(result) + "\n", args.out)
            if not result.converged:
                sys.stderr.write("fit did not converge\n")
                return 1
        elif args.command == "threshold":
            report = cmd_threshold(config, args.model, args.level)
            _emit(_json_text(report) if args.format == "json" else _dict_csv(report), args.out)
        return 0
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
