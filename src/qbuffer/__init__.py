"""Desk-scale toolkit for photon pairs stored in fiber delay-line buffers.

Submodules:

* ``states``     two-qubit states, Werner family, validation, [re, im] pairs
* ``channels``   PMD map and amplitude damping of the buffered arm
* ``dynamics``   scalar decay models and the regime classifier
* ``tomography`` one 16-setting count record per acquisition; reconstruction
* ``measures``   correlation measures and threshold solvers
* ``fitting``    nonlinear least-squares fits of the decay models
* ``cli``        command-line entry points
"""

from .channels import PmdPhases, amplitude_damping_kraus, damp_werner, pmd_operator
from .dynamics import (CavityModelParams, PmdModelParams, RegimeResult,
                       UnitContext, cavity_p, classify_regime, length_from_time,
                       markovian_exponential, p1, p2, p3, pmd_phase, prob_pasy,
                       prob_pf)
from .fitting import DataSeries, FitResult, fit_exponential, fit_p3, fit_pasy
from .measures import (CorrelationReport, classical_correlation, concurrence,
                       correlation_report, discord, discord_concurrence_crossover,
                       solve_level_crossing, total_correlation)
from .states import (ValidationReport, apply_operator, make_bell_phi_plus,
                     make_werner, rho_to_pairs, validate)
from .tomography import (ReconstructionResult, SETTINGS, TomographyError,
                         TomographyRecord, estimate_werner_probability,
                         expected_counts, fidelity, linear_inversion,
                         reconstruct_mle, records_to_csv, simulate_counts,
                         subtract_accidentals, trace_distance)

__version__ = "0.1.0"
