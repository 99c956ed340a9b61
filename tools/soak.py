"""Run hypothesis tests under many seeds, each with an empty example database.

    python tools/soak.py [--seeds 20] TEST [TEST ...]

TEST is anything pytest takes: a file, or a node id such as
``tests/test_tomography.py::TestReconstructMle::test_objective_is_the_reference_form``.
Of the named tests, only those hypothesis marks as its own (``-m hypothesis``)
run, since a seed changes nothing else.  Seed k, for k from 1 to N, runs them
in a new interpreter with ``--hypothesis-seed=k`` and its hypothesis home
directory set to a new temporary directory, so it starts with no stored
examples and stores none where a later seed or an ordinary test run would
replay them.  Each seed stops at its first failing test.

The report gives one line per seed, ``passed`` or ``failed`` with the first
failing test, then the number of seeds that failed.  The exit status is 1 when
any seed failed or ran no test.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
import tempfile

# hypothesis is imported once pytest has loaded its plugin, as a test run imports it
RUN = """
import sys, pytest

class FreshHome:
    def pytest_configure(self, config):
        from hypothesis.configuration import set_hypothesis_home_dir
        set_hypothesis_home_dir(sys.argv[1])

sys.exit(pytest.main(sys.argv[2:], plugins=[FreshHome()]))
"""
FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def run_seed(tests: list[str], seed: int) -> str:
    """``passed``, or ``failed`` with the first failing test, for one seed."""
    with tempfile.TemporaryDirectory(prefix="soak-") as home:
        run = subprocess.run(
            [sys.executable, "-c", RUN, home, "-q", "-x", "-rfE", "-p", "no:cacheprovider",
             "-m", "hypothesis", f"--hypothesis-seed={seed}", *tests],
            capture_output=True, text=True)
    if run.returncode == 0:
        return "passed"
    if run.returncode == 5:
        return "failed: no hypothesis test among those named"
    first = FAILED.search(run.stdout)
    return f"failed: {first.group(1) if first else f'pytest exit status {run.returncode}'}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tests", nargs="+", metavar="TEST")
    parser.add_argument("--seeds", type=int, default=20, help="number of seeds")
    args = parser.parse_args(argv)
    failed = 0
    for seed in range(1, args.seeds + 1):
        verdict = run_seed(args.tests, seed)
        failed += verdict != "passed"
        print(f"seed {seed}: {verdict}", flush=True)
    print(f"failed on {failed} of {args.seeds} seeds")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
