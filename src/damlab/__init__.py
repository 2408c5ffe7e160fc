"""damlab: dissipative adiabatic measurement simulation and estimation.

Builds Liouvillian superoperators for small open quantum systems, computes
steady states and group pseudoinverses, simulates the weakly coupled Gaussian
pointer exactly on a momentum grid, and validates the resulting estimation
error formulas (1/N scaling) against Monte Carlo runs, the projective
measurement baseline and quantum Fisher information bounds.

Importing damlab pins OpenBLAS to one thread, by setting
OPENBLAS_NUM_THREADS=1, unless one of OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS (the variables OpenBLAS reads, in that
order) is already set; a value the user sets always wins. OpenBLAS starts
its thread pool when numpy loads it, and with the default of one thread per
core that start is about 40 % of ``import numpy``, paid by every command.
The second thread gets no work here: every matrix of the shipped configs
and registered models is at most 64x64 (``product_gad_3``'s
superoperator), and on 2 cores ``scaling`` on such a model took 0.335 s
wall and 0.449 s CPU by default against 0.259 s wall and 0.258 s CPU with
one thread (6 alternating runs). The pin acts only when damlab is imported
before numpy; once numpy is loaded, its pool is already started and the
variable changes nothing.
"""

import os

__version__ = "0.1.0"

# the variables OpenBLAS reads for its thread count; the first one set wins
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if not any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .backend import KERNEL_BACKEND  # the first import that loads numpy
from .estimation import (
    EstimationReport,
    LinkFunction,
    conventional_povm_error,
    cramer_rao_bound,
    dam_error_formula,
    dam_estimate,
    gad_channel_decomposition_check,
    identity_link,
    ideal_error_floor,
    mc_dam_error,
    multiparam_error_formula,
    qfi_output_bound_check,
    qfi_state,
)
from .models import (
    LindbladModel,
    SteadyStateBundle,
    dissipation_coefficient,
    gad_model,
    gad_pseudoinverse_closed_form,
    product_gad_model,
    steady_state_bundle,
)
from .operators import (
    devectorize,
    is_density_matrix,
    is_hermitian,
    left_mult,
    lindblad_superoperator,
    mat_exp,
    right_mult,
    vectorize,
)
from .pointer import (
    ApparatusConfig,
    DamRun,
    PointerDistribution,
    coupled_generator,
    default_apparatus,
    nonadiabaticity,
    perturbative_kernel,
    pointer_distribution,
    sample_pointer,
    trace_kernel,
    variance_closed_form,
)
from .acceptance import CheckResult, VerifyParams, run_checks
from .scenario import Scenario, ScenarioError, load_model_file, load_scenario
from .sweeps import (
    SweepResult,
    SweepRow,
    nonadiabaticity_sweep,
    scaling_sweep,
)

__all__ = [
    "__version__",
    "KERNEL_BACKEND",
    "vectorize",
    "devectorize",
    "left_mult",
    "right_mult",
    "is_hermitian",
    "is_density_matrix",
    "lindblad_superoperator",
    "mat_exp",
    "LindbladModel",
    "SteadyStateBundle",
    "gad_model",
    "product_gad_model",
    "steady_state_bundle",
    "gad_pseudoinverse_closed_form",
    "dissipation_coefficient",
    "ApparatusConfig",
    "DamRun",
    "PointerDistribution",
    "default_apparatus",
    "coupled_generator",
    "trace_kernel",
    "perturbative_kernel",
    "pointer_distribution",
    "variance_closed_form",
    "nonadiabaticity",
    "sample_pointer",
    "LinkFunction",
    "EstimationReport",
    "identity_link",
    "dam_estimate",
    "dam_error_formula",
    "multiparam_error_formula",
    "ideal_error_floor",
    "mc_dam_error",
    "conventional_povm_error",
    "qfi_state",
    "cramer_rao_bound",
    "gad_channel_decomposition_check",
    "qfi_output_bound_check",
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "load_model_file",
    "SweepRow",
    "SweepResult",
    "scaling_sweep",
    "nonadiabaticity_sweep",
    "VerifyParams",
    "CheckResult",
    "run_checks",
]
