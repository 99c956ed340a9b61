"""Desk-scale toolkit for photon pairs stored in fiber delay-line buffers.

Submodules:

* ``states``     two-qubit states, Werner family, validation, [re, im] pairs
* ``channels``   PMD map and amplitude damping of the buffered arm
* ``dynamics``   scalar decay models and the regime classifier
* ``tomography`` one 16-setting count record per acquisition; reconstruction
* ``measures``   correlation measures and threshold solvers
* ``fitting``    nonlinear least-squares fits of the decay models
* ``cli``        command-line entry points

Each submodule is imported on first use: ``import qbuffer`` loads none of
them, and ``qbuffer.fitting`` (or ``from qbuffer import fitting``) loads that
one and what it imports, so a command loads only the code it runs.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("states", "channels", "dynamics", "tomography", "measures", "fitting",
               "cli", "_optimize")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
