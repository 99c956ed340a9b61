"""Every function in ``src/qbuffer`` is reached by a command, or is held by an
acceptance criterion or a layer-identity test that this module names; so is
every line of the functions that commands reach.

A fresh interpreter imports ``qbuffer.cli`` and runs ``cli.main`` in-process
under ``sys.settrace`` for each command in ``commands``: the five commands,
each model of ``threshold`` and ``fit``, each regime of ``classify``, the
kinds of ``tomo`` record (a PSD linear inversion, a boundary state the MLE
iterates on, exact counts, no rectilinear count), every rejection of outside
input, each with its one-line error and exit status 1, and the two solvers'
unconverged exits.  A fresh interpreter also runs what a command runs on
first use (the package imports a submodule when it is first named).  The
functions it never calls must be exactly ``HELD``: the supplementary
document's equations, and the constructors of their inputs, that an
acceptance criterion or a layer-identity test checks and no command
evaluates.  A function that nothing reaches fails this test until a command
reaches it, it is deleted, or it is listed with the test that holds it; a
listed function that a command reaches fails it too.  ``HELD`` also holds
the oracles that the tests compare the package's results against, each with
a test that uses it.  No held function's own body raises: no command hands it
outside data, so a check there would test only what the tests pass it.

Within the functions that commands call, every line that can report a line
event must run under some command or be in ``HELD_LINES``, with the test
that runs it and why no command does; a listed line that a command runs
fails too.  A check that re-tests what the pipeline built from checked
inputs is neither: it is deleted, and a property test holds its producer.

Functions are every ``def`` and ``lambda`` in the package's source, keyed by
module and qualified name (``states.ValidationReport.passed``); the
names are built from the code objects, as Python 3.10 gives no
``co_qualname``.  Lines are keyed by that name and their stripped source text.

A default that only tests leave unset is code kept for tests, too: every
parameter default and dataclass-field default in the package, read from its
source with ``ast``, must be exactly ``ALLOWED_DEFAULTS``, each naming the
caller outside the tests that leaves it unset.
"""

import ast
import dis
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import qbuffer
from qbuffer import cli, dynamics

from csv_writer import series_csv

PACKAGE = Path(qbuffer.__file__).resolve().parent
ROOT = PACKAGE.parents[1]


def criterion(name):
    return "tests/test_acceptance.py::test_criterion_" + name


PMD_MAP = "tests/test_dynamics.py::TestModelIdentities::test_prob_pf_is_dd_projection_of_pmd_map"

# each function no command reaches, and the test that holds it
HELD = {
    "dynamics.prob_asym": criterion("10_algebraic_equivalences"),
    "dynamics.asym_series_residual": criterion("10_algebraic_equivalences"),
    "dynamics.cavity_p": criterion("10_algebraic_equivalences"),
    "channels.amplitude_damping_kraus": criterion("05_amplitude_damping_identities"),
    "tomography.trace_distance": criterion("06_tomography_round_trip"),
    "measures.discord": criterion("03_separability_point"),
    "measures.discord_concurrence_crossover": criterion("02_discord_concurrence_crossover"),
    "measures.discord_concurrence_crossover.<locals>.<lambda>":
        criterion("02_discord_concurrence_crossover"),
    "dynamics.prob_pf": PMD_MAP,
    "channels.pmd_operator": PMD_MAP,
    "states.apply_operator": PMD_MAP,
    "states.validate": "tests/test_tomography.py::TestReconstructMle::test_output_always_physical",
    "states.ValidationReport.passed":
        "tests/test_tomography.py::TestReconstructMle::test_output_always_physical",
}

# each parameter default and dataclass-field default in the package, and the
# caller outside the tests that leaves it unset; the model inputs (n_r, the
# detuning, sign, lambda, the accidental rate) have one default each, in
# cli.CONFIG_FIELDS, and reach the package through cli.build_config
ALLOWED_DEFAULTS = {
    "cli.cmd_fit.config": "bench/qbbench/workloads.py: the fit items call cmd_fit(model, text)",
    "cli.main.argv": "the qbuffer console script calls main()",
    "fitting.FitResult.at_bounds": "fitting.fit_exponential",
}

OPTIMIZE = "tests/test_optimize.py::"
BRENT_ORACLE = OPTIMIZE + "test_brentq_is_scipys"
BRENT_RAISES = OPTIMIZE + "test_brentq_raises_as_scipy_does"

# each line that no command runs, in a function that a command calls, keyed
# by the function's qualified name and the line's stripped source text, with
# the test that runs it and why no command does
HELD_LINES = {
    ("qbuffer.__getattr__",
     'raise AttributeError(f"module {__name__!r} has no attribute {name!r}")'):
        (OPTIMIZE + "test_import_qbuffer_loads_no_submodule_until_it_is_named",
         "the commands name only the package's own submodules"),
    ("_optimize.brentq", "except ZeroDivisionError:  # inf or nan in C, which bisects too"):
        (BRENT_ORACLE, "an interpolation step divides by zero only on equal values at "
                       "distinct points; no threshold bracket has given them"),
    ("_optimize.brentq", "pass"): (BRENT_ORACLE, "the ZeroDivisionError clause's body"),
    ("_optimize.brentq",
     'raise ValueError(f"The function value at x={xcur} is NaN; solver cannot continue.")'):
        (BRENT_RAISES, "cmd_threshold's _finite raises on a nan model value first"),
    ("_optimize.brentq",
     'raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}")'):
        (BRENT_RAISES, "a bracket one grid step wide reaches its tolerance in about 40 "
                       "bisections, well within the 200 iterations"),
    ("_optimize.minimize", "task[:] = 5, 504"):
        (OPTIMIZE + "test_minimize_stops_at_scipys_caps",
         "no record needs 10 000 iterations; the slowest known boundary record takes 280"),
    ("_optimize.minimize", "task[:] = 5, 502"):
        (OPTIMIZE + "test_minimize_stops_at_scipys_caps",
         "no record needs 40 000 objective calls"),
    ("_optimize.lockstep", "for row in np.flatnonzero(flat).tolist():"):
        (OPTIMIZE + "test_zero_gradient_stops_a_start_where_it_is",
         "a gradient zero to the last bit in all five entries; no fit record has given one"),
    ("_optimize.lockstep", "status[row] = 1"):
        (OPTIMIZE + "test_zero_gradient_stops_a_start_where_it_is", "the zero-gradient stop"),
    ("_optimize.lockstep", "continue"):
        (OPTIMIZE + "test_zero_gradient_stops_a_start_where_it_is", "the zero-gradient stop"),
    ("fitting._scan",
     'best[k] = np.argsort(by_theta2[k], kind="stable")[0]  # no finite point: nan last'):
        ("tests/test_fitting.py::TestScan::test_picks_equal_the_ranked_walk_over_every_point",
         "every SSE of one theta2 nan; the scan's columns are checked finite, so no record "
         "has given one"),
    ("fitting._polish.<locals>.fun.<locals>.jac",
     'raise FittingError(f"the {model.name} model\'s derivative is not finite at "'):
        ("tests/test_fitting.py::TestFitP3::test_a_derivative_that_overflows_raises",
         "finite residuals whose derivative overflows; no record has given them"),
}

TRACE = """
import contextlib, io, json, sys

package, argvs = sys.argv[1], json.loads(sys.argv[2])
reached, lines = set(), set()

def line(frame, event, arg):
    if event == "line":
        lines.add((frame.f_code.co_filename, frame.f_lineno))
    return line

def call(frame, event, arg):
    if frame.f_code.co_filename.startswith(package):
        reached.add(frame.f_code)
        return line
    return None

runs = []
sys.settrace(call)
try:
    from qbuffer import cli
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            runs.append([cli.main(argv), err.getvalue()])
finally:
    sys.settrace(None)
print(json.dumps({"runs": runs, "lines": sorted(lines), "reached": sorted(
    (code.co_filename, code.co_firstlineno, code.co_name) for code in reached)}))
"""

COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def functions(code, path, prefix):
    """(file, first line, name), qualified name and code object of each def
    and lambda in ``code``."""
    for const in code.co_consts:
        if not isinstance(const, types.CodeType) or const.co_name in COMPREHENSIONS:
            continue
        name = prefix + const.co_name
        if const.co_flags & inspect.CO_OPTIMIZED:  # a def or a lambda, not a class body
            yield (str(path), const.co_firstlineno, const.co_name), name, const
            yield from functions(const, path, name + ".<locals>.")
        else:
            yield from functions(const, path, name + ".")


def function_table():
    """Qualified name and code object of each function, by (file, first line, name)."""
    table = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = "qbuffer" if path.stem == "__init__" else path.stem
        code = compile(path.read_text(), str(path), "exec")
        for key, name, function in functions(code, path, module + "."):
            assert key not in table, key
            table[key] = name, function
    return table


def instruction_lines(code):
    """The line of each instruction in ``code`` and in the comprehensions in it."""
    lines = {line for _, line in dis.findlinestarts(code) if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and const.co_name in COMPREHENSIONS:
            lines |= instruction_lines(const)
    return lines


def commands(tmp_path):
    """Each command's argv and its stderr: exit 0 with none, or exit 1 with
    that one line.  The failures are every rejection of outside input, and
    the two solvers' unconverged exits."""
    def write(name, text):
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    config, t, i = cli.build_config({}), np.linspace(0.0, 1.5e-3, 20), np.arange(8)
    out = str(tmp_path / "out")
    cfg = lambda name, values: ["--config", write(f"{name}.json", json.dumps(values))]
    fit = lambda name, text, model: ["fit", write(f"{name}.csv", text), "--model", model,
                                     "--out", out]
    decay, p3_curve = 0.9 * np.exp(-0.3 * i), dynamics.p3(t, config.cavity)
    t_50 = np.linspace(0.0, 1.5e-3, 50)  # a noisy record that stops on the polish's cost test
    sigma = 0.02 * dynamics.p3(t_50, config.cavity)
    noisy = dynamics.p3(t_50, config.cavity) + np.random.default_rng(7).normal(0.0, sigma)
    succeed = [
        ["sweep", "--out", out],
        ["tomo", "--werner-p", "0.5", "--out", out],
        ["tomo", "--werner-p", "1.0", "--out", out],
        ["tomo", "--werner-p", "0.9", "--xi", "0.02", "--exact", "--out", out],
        # no rectilinear count: the MLE starts from I/4
        ["tomo", "--werner-p", "0", "--seed", "2", *cfg("gates_1000", {"gates": 1000}),
         "--out", out],
        ["threshold", "--model", "pasy", "--level", "0.5", "--out", out],
        ["threshold", "--model", "p3", "--level", "0.5", "--format", "csv", "--out", out],
        ["threshold", "--model", "exp", "--level", "0.5", "--out", out],
        # P(0) = a1 + a2 is the level: a crossing on the grid's first point
        ["threshold", "--model", "pasy", "--level", "0.5",
         *cfg("half", {"a1": 0.25, "a2": 0.25}), "--out", out],
        ["classify", "--kappa", "4281", "--gamma0", "16292", "--out", out],
        ["classify", "--kappa", "1000", "--gamma0", "16292"],  # Markovian, to stdout
        ["classify", "--kappa", "4073", "--gamma0", "16292", "--format", "csv", "--out", out],
        fit("pasy", series_csv(t, dynamics.prob_pasy(t, config.pmd, config.n_r)), "pasy"),
        fit("p3", series_csv(t, p3_curve), "p3"),
        fit("noisy", series_csv(t_50, noisy, sigma), "p3"),
        fit("exp", series_csv(t, p3_curve), "exp"),
    ]
    fail = [
        # build_config
        (cfg("list", []), "config must be a JSON object, got list"),
        (cfg("unknown", {"colour": 1}), "unknown config fields: colour"),
        (cfg("text", {"n_r": "1.5"}), "n_r: must be a finite number, got '1.5'"),
        (cfg("fraction", {"gates": 1.5}), "gates: must be an integer, got 1.5"),
        (cfg("huge", {"n_r": 10**400}),
         "n_r: must lie within the float range, got an integer of 401 digits"),
        (cfg("problems", {"n_points": 1, "t_start_s": -1.0, "t_end_s": -2.0, "seed": -1,
                          "gates": 0, "accidental_rate": 1.0}),
         "gates: must lie in [1, 2**53]; accidental_rate: must lie in [0, 1); seed: must "
         "be nonnegative; t_start_s: must be nonnegative; n_points: must be at least 2; "
         "t_end_s: must exceed t_start_s"),
        (cfg("gates", {"gates": 2**53 + 1}), "gates: must lie in [1, 2**53]"),
        (cfg("index", {"n_r": 1.0}), "n_r: must exceed 1"),
        (cfg("mu", {"mu_per_m": -1.0}), "mu_per_m: must be nonnegative"),
        (cfg("weights", {"a1": 0.0, "a2": 0.0}), "a1 + a2: must be positive"),
        (cfg("sign", {"sign": 2}), "sign: must be +1 or -1"),
        (cfg("kappa", {"kappa1_per_s": -1.0}), "kappa1_per_s: must be nonnegative"),
        (cfg("cavity_weights", {"w1": 0.0, "w2": 0.0}), "w1 + w2: must be positive"),
        (cfg("model_problems", {"n_r": 1.0, "mu_per_m": -1, "sign": 2, "w1": 0, "w2": 0}),
         "n_r: must exceed 1; mu_per_m: must be nonnegative; sign: must be +1 or -1; "
         "w1 + w2: must be positive"),
        # type errors and rules, named together
        (cfg("mistyped", {"n_r": "x", "seed": 1.5, "mu_per_m": -1}),
         "n_r: must be a finite number, got 'x'; mu_per_m: must be nonnegative; "
         "seed: must be an integer, got 1.5"),
        (cfg("fraction_and_rules", {"gates": 0.5, "a1": -1}),
         "a1: must be nonnegative; gates: must be an integer, got 0.5; "
         "a1 + a2: must be positive"),
    ]
    failures = [(["sweep", *argv, "--out", out], f"error: {message}\n")
                for argv, message in fail]
    failures += [(argv, f"error: {message}\n") for argv, message in [
        (["sweep"], "sweep requires --out for the CSV file"),
        (["sweep", *cfg("overflow", {"a1": 1e308, "a2": 1e308}), "--out", out],
         "P_pasy is not finite at t = 0 s: inf"),
        (["tomo", "--werner-p", "0.5"], "tomo requires --out as an output prefix"),
        (["tomo", "--werner-p", "1.5", "--out", out],
         "Werner probability must lie in [0, 1], got 1.5"),
        (["tomo", "--werner-p", "0.5", "--xi", "2", "--out", out],
         "damping probability must lie in [0, 1], got 2.0"),
        (["tomo", "--werner-p", "0.5", "--seed", "-1", "--out", out],
         "seed: must be nonnegative"),
        (["tomo", "--werner-p", "0.5", *cfg("gates_1", {"gates": 1}), "--out", out],
         "all counts are zero; nothing to reconstruct"),
        (["threshold", "--model", "exp", "--level", "1.5", "--out", out],
         "level must lie in (0, 1), got 1.5"),
        (["threshold", "--model", "exp", "--level", "0.5", *cfg("lossless", {"mu_per_m": 0}),
          "--out", out], "model 'exp' never crosses level 0.5 in [0.0, 0.01] s"),
        # a terahertz oscillation: brentq bisects, and ends 1e-18 s from the
        # crossing with a residual above 1e-9
        (["threshold", "--model", "p3", "--level", "0.5", *cfg("fast", {"kappa2_per_s": 1e12}),
          "--out", out], "root refinement stalled: residual 9.56e-08"),
        (["classify", "--kappa", "-1", "--gamma0", "16292"],
         "kappa and gamma0 must be finite, nonnegative and at most 1e+150, "
         "got -1.0 and 16292.0"),
        # series_from_csv and DataSeries
        (fit("header", "t,p,sigma\n", "exp"), "expected header 't_s,p,sigma'"),
        (fit("cell", "t_s,p,sigma\n0,x,1\n", "exp"), "could not convert string to float: 'x'"),
        (fit("row", "t_s,p,sigma\n0,1\n", "exp"), "every data row must have t_s,p,sigma"),
        (fit("nan", series_csv([0.0, 1.0], [np.nan, 0.5]), "exp"),
         "probabilities must be finite"),
        (fit("order", series_csv([1.0, 0.0], [0.5, 0.4]), "exp"),
         "times must be strictly increasing"),
        (fit("sigma", series_csv([0.0, 1.0], [0.5, 0.4], [1.0, 0.0]), "exp"),
         "uncertainties must be positive"),
        (fit("large", series_csv(1e160 * i, decay), "exp"),
         "times are too large: their sum of squares overflows"),
        (fit("small", series_csv(1e-170 * i, decay), "exp"),
         "times are too small: their sum of squares underflows"),
        # _fit and its scan
        (fit("three", series_csv(i[:3], decay[:3]), "pasy"),
         "need at least 6 points for 5 free parameters, got 3"),
        (fit("negative", series_csv(i - 1.0, decay), "p3"), "time must be nonnegative"),
        (["fit", write("decay.csv", series_csv(1e-4 * i, decay)), "--model", "pasy",
          *cfg("detuning", {"delta_omega_rad_s": 1e300}), "--out", out],
         "the pasy fit's record units are too small: 1e-20 of one is not a normal float in SI"),
        (fit("one_positive", series_csv(i, np.where(i > 0, -1.0, 1.0)), "pasy"),
         "too few positive points for the envelope pre-fit"),
        (fit("unresolved_pasy", series_csv(1e16 + 2.0 * i, decay), "pasy"),
         "times 10000000000000000 to 10000000000000014 s are too close together for their "
         "size to resolve a rate"),
        (fit("ceiling", series_csv([0.0, 1e-160, 2e-160, 3e-160, 4e-160, 5e-160, 1e150],
                                   decay[:7]), "p3"),
         "the p3 model is not finite on this record's scan grid; check its times and the "
         "fixed model parameters"),
        (fit("below_zero", series_csv(i[:7], [-1.0, -1.0, -1.0, -1.0, 1e-3, 1e-3, -1.0]), "p3"),
         "no point of the p3 scan grid fits times 0 to 6 s better than P = 0"),
        (fit("vague", series_csv(1e-7 * i, decay, np.full(8, 1e150)), "p3"),
         "the p3 fit overflows on this record"),
        # fit_exponential
        (fit("one", series_csv([0.0], [0.5]), "exp"), "need at least 2 points, got 1"),
        (fit("zero", series_csv(i, decay - 0.5), "exp"),
         "exponential fit requires strictly positive p"),
        (fit("steep", series_csv([99.0, 100.0], [1e100, 1e-100]), "exp"),
         "the exponential fit overflows on this record"),
        (fit("unresolved", series_csv(1e16 + 2.0 * i, decay), "exp"),
         "times 10000000000000000 to 10000000000000014 s are too close together for their "
         "size to resolve a rate"),
    ]]
    unconverged = [  # each writes its output, then exits 1
        (["tomo", "--werner-p", "0.99", "--out", out], "reconstruction did not converge\n"),
        (fit("cap", series_csv(np.linspace(0.0, 1e-5, 8),
                               np.cos(1e3 * np.linspace(0.0, 1e-5, 8)) ** 2), "p3"),
         "fit did not converge\n"),
    ]
    return [(argv, "") for argv in succeed] + failures + unconverged


@pytest.fixture(scope="module")
def listed(tmp_path_factory):
    return commands(tmp_path_factory.mktemp("reach"))


@pytest.fixture(scope="module")
def traced(listed):
    """What the commands did: each one's exit status and stderr, the lines
    of the package they ran and the functions they called."""
    argvs = json.dumps([argv for argv, _ in listed])
    run = subprocess.run([sys.executable, "-c", TRACE, str(PACKAGE), argvs],
                         capture_output=True, text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_each_command_exits_as_listed(listed, traced):
    assert [(argv, run) for (argv, _), run in zip(listed, traced["runs"])] == [
        (argv, [1 if stderr else 0, stderr]) for argv, stderr in listed]


def test_every_function_is_reached_by_a_command_or_held(traced):
    table = function_table()
    reached = {table[tuple(key)][0] for key in traced["reached"] if tuple(key) in table}
    unreached = {name for name, _ in table.values()} - reached
    assert {"unreached, not held": sorted(unreached - HELD.keys()),
            "held, but reached": sorted(HELD.keys() - unreached)} == {
        "unreached, not held": [], "held, but reached": []}


def test_every_line_of_a_reached_function_is_run_or_held(traced):
    ran = {tuple(key) for key in traced["lines"]}
    table = function_table()
    sources = {path: Path(path).read_text().splitlines() for path, _, _ in table}
    unrun = set()
    for path, first, name in map(tuple, traced["reached"]):
        if (path, first, name) in table:
            qualname, code = table[path, first, name]
            # a function's first line is its entry, which reports no line
            # event, or a lambda's body, which runs on its defining line
            unrun |= {(qualname, sources[path][line - 1].strip())
                      for line in instruction_lines(code) - {first} if (path, line) not in ran}
    assert {"unrun, not held": sorted(unrun - HELD_LINES.keys()),
            "held, but run": sorted(HELD_LINES.keys() - unrun)} == {
        "unrun, not held": [], "held, but run": []}


def names_a_test(holder):
    path, *names = holder.split("::")
    scope = ast.parse((ROOT / path).read_text())
    for name in names:
        scope = next((node for node in getattr(scope, "body", ())
                      if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                      and node.name == name), None)
    return isinstance(scope, ast.FunctionDef) and scope.name.startswith("test_")


def test_each_held_function_names_a_test_that_exists():
    for holder in set(HELD.values()):
        assert names_a_test(holder), holder


def function_nodes(tree, prefix):
    """Qualified name and ``ast`` node of each def and lambda under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from function_nodes(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            name = prefix + getattr(node, "name", "<lambda>")
            yield name, node
            yield from function_nodes(node, name + ".<locals>.")
        else:
            yield from function_nodes(node, prefix)


def raises(node):
    """Whether a ``raise`` sits in ``node``'s own body, outside the functions
    and classes defined in it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Raise):
            return True
        if not isinstance(child, (ast.FunctionDef, ast.Lambda, ast.ClassDef)) and raises(child):
            return True
    return False


def test_no_held_function_raises():
    nodes = {name: node for path in sorted(PACKAGE.glob("*.py"))
             for name, node in function_nodes(ast.parse(path.read_text()), (
                 "qbuffer" if path.stem == "__init__" else path.stem) + ".")}
    assert sorted(name for name in HELD if raises(nodes[name])) == []


def test_each_held_line_names_a_test_and_a_reason():
    for key, (holder, reason) in HELD_LINES.items():
        assert names_a_test(holder) and reason, key


def defaults(tree, prefix):
    """``module.qualname.name`` of each parameter default and dataclass-field
    default under ``tree``; a field annotated ``ClassVar`` is a constant."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                        and "ClassVar" not in ast.unparse(stmt.annotation)):
                    yield f"{prefix}{node.name}.{stmt.target.id}"
            yield from defaults(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args, name = node.args, getattr(node, "name", "<lambda>")
            positional = args.posonlyargs + args.args
            for arg in positional[len(positional) - len(args.defaults):]:
                yield f"{prefix}{name}.{arg.arg}"
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{prefix}{name}.{arg.arg}"
            yield from defaults(node, f"{prefix}{name}.<locals>.")
        else:
            yield from defaults(node, prefix)


def test_every_default_names_a_caller_that_leaves_it_unset():
    found = [name for path in sorted(PACKAGE.glob("*.py"))
             for name in defaults(ast.parse(path.read_text()),
                                  ("qbuffer" if path.stem == "__init__" else path.stem) + ".")]
    assert sorted(found) == sorted(ALLOWED_DEFAULTS)
