"""Every function in ``src/qbuffer`` is reached by a command, or is held by an
acceptance criterion or a layer-identity test that this module names.

A fresh interpreter imports ``qbuffer.cli`` and runs ``cli.main`` in-process
under ``sys.setprofile`` for each command in ``commands``: the five commands,
each model of ``threshold`` and ``fit``, the three kinds of ``tomo`` record
(a PSD linear inversion, a boundary state the MLE iterates on, and exact
counts) and one fit that fails.  A fresh interpreter also runs what a command
runs on first use (the package imports a submodule when it is first named).
The functions it never calls must be exactly ``HELD``: the supplementary
document's equations, and the constructors of their inputs, that an
acceptance criterion or a layer-identity test checks and no command evaluates.  A function that nothing reaches fails this
test until a command reaches it, it is deleted, or it is listed with the test
that holds it; a listed function that a command reaches fails it too.
``HELD`` also holds the oracles that the tests compare the package's results
against, each with a test that uses it.

Functions are every ``def`` and ``lambda`` in the package's source, keyed by
module and qualified name (``dynamics.PmdModelParams.from_lab_units``); the
names are built from the code objects, as Python 3.10 gives no
``co_qualname``.

A default that only tests leave unset is code kept for tests, too: every
parameter default and dataclass-field default in the package, read from its
source with ``ast``, must be exactly ``ALLOWED_DEFAULTS``, each naming the
caller outside the tests that leaves it unset.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

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
    "channels.PmdPhases.__post_init__": criterion("10_algebraic_equivalences"),
    "dynamics.prob_asym": criterion("10_algebraic_equivalences"),
    "dynamics.asym_series_residual": criterion("10_algebraic_equivalences"),
    "dynamics.cavity_p": criterion("10_algebraic_equivalences"),
    "channels.amplitude_damping_kraus": criterion("05_amplitude_damping_identities"),
    "tomography.trace_distance": criterion("06_tomography_round_trip"),
    "dynamics.PmdModelParams.from_lab_units": criterion("07_fit_round_trips"),
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
# cli.DEFAULT_CONFIG, and reach the package through cli.build_config
ALLOWED_DEFAULTS = {
    "cli.cmd_fit.config": "bench/qbbench/workloads.py: the fit items call cmd_fit(model, text)",
    "cli.main.argv": "the qbuffer console script calls main()",
    "fitting.FitResult.at_bounds": "fitting.fit_exponential",
    "dynamics.PmdModelParams.from_lab_units.sign": criterion("07_fit_round_trips"),
}

TRACE = """
import json, sys

reached = set()

def profile(frame, event, arg):
    if event == "call":
        reached.add(frame.f_code)

argvs = json.loads(sys.argv[1])
sys.setprofile(profile)
try:
    from qbuffer import cli
    codes = [cli.main(argv) for argv in argvs]
finally:
    sys.setprofile(None)
print(json.dumps({"codes": codes, "reached": sorted(
    (code.co_filename, code.co_firstlineno, code.co_name) for code in reached)}))
"""

COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def functions(code, path, prefix):
    """(file, first line, name) and qualified name of each def and lambda in ``code``."""
    for const in code.co_consts:
        if not isinstance(const, types.CodeType) or const.co_name in COMPREHENSIONS:
            continue
        name = prefix + const.co_name
        if const.co_flags & inspect.CO_OPTIMIZED:  # a def or a lambda, not a class body
            yield (str(path), const.co_firstlineno, const.co_name), name
            yield from functions(const, path, name + ".<locals>.")
        else:
            yield from functions(const, path, name + ".")


def function_table():
    table = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = "qbuffer" if path.stem == "__init__" else path.stem
        code = compile(path.read_text(), str(path), "exec")
        for key, name in functions(code, path, module + "."):
            assert key not in table, key
            table[key] = name
    return table


def commands(tmp_path):
    """Each command's argv; the last is a fit that fails, the rest exit 0."""
    config, t, i = cli.build_config({}), np.linspace(0.0, 1.5e-3, 20), np.arange(8)
    records = {"pasy": series_csv(t, dynamics.prob_pasy(t, config.pmd, config.units)),
               "p3": series_csv(t, dynamics.p3(t, config.cavity)),
               "exp": series_csv(t, dynamics.p3(t, config.cavity)),
               "unresolved": series_csv(1e16 + 2.0 * i, 0.9 * np.exp(-0.3 * i))}
    for name, text in records.items():
        (tmp_path / f"{name}.csv").write_text(text)
    out = str(tmp_path / "out")
    return [
        ["sweep", "--out", out],
        ["tomo", "--werner-p", "0.5", "--out", out],
        ["tomo", "--werner-p", "1.0", "--out", out],
        ["tomo", "--werner-p", "0.9", "--xi", "0.02", "--exact", "--out", out],
        ["threshold", "--model", "pasy", "--level", "0.5", "--out", out],
        ["threshold", "--model", "p3", "--level", "0.5", "--format", "csv", "--out", out],
        ["threshold", "--model", "exp", "--level", "0.5", "--out", out],
        ["classify", "--kappa", "4281", "--gamma0", "16292", "--out", out],
        *[["fit", str(tmp_path / f"{model}.csv"), "--model", model, "--out", out]
          for model in ("pasy", "p3", "exp")],
        ["fit", str(tmp_path / "unresolved.csv"), "--model", "exp", "--out", out],
    ]


def test_every_function_is_reached_by_a_command_or_held(tmp_path):
    argvs = commands(tmp_path)
    run = subprocess.run([sys.executable, "-c", TRACE, json.dumps(argvs)], capture_output=True,
                         text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert run.returncode == 0, run.stderr
    traced = json.loads(run.stdout.splitlines()[-1])
    assert traced["codes"] == [0] * (len(argvs) - 1) + [1]
    assert run.stderr == ("error: times 10000000000000000 to 10000000000000014 s are too close "
                          "together for their size to resolve a rate\n")
    table = function_table()
    reached = {table.get((path, line, name)) for path, line, name in traced["reached"]}
    unreached = set(table.values()) - reached
    assert {"unreached, not held": sorted(unreached - HELD.keys()),
            "held, but reached": sorted(HELD.keys() - unreached)} == {
        "unreached, not held": [], "held, but reached": []}


def test_each_held_function_names_a_test_that_exists():
    for holder in set(HELD.values()):
        path, *names = holder.split("::")
        scope = ast.parse((ROOT / path).read_text())
        for name in names:
            scope = next((node for node in getattr(scope, "body", ())
                          if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                          and node.name == name), None)
        assert isinstance(scope, ast.FunctionDef) and scope.name.startswith("test_"), holder


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
