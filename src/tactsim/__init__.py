"""Collective-spin squeezing under two-axis counter-twisting.

Build the special states (coherent, equally-weighted superposition,
twin-Fock, cat), evolve under the counter-twisting interaction, evaluate
fidelities, distributions, and Cramer-Rao sensitivity bounds, scan the
evolution time for the optimal squeezing protocols, and fit the resulting
scaling laws.
"""

from .dynamics import (
    DEFAULT_PROTOCOL,
    PropagationError,
    TwistProtocol,
    evolve,
    evolve_many,
    make_sss,
    rotate,
    tact_generator,
)
from .fitting import FitError, FitModel, FitResult, evaluate, fit
from .observables import (
    FieldEstimationParams,
    FisherBound,
    QpdGrid,
    SpinMoments,
    fidelity,
    fisher_bound,
    prob_distribution,
    qpd,
    spin_moments,
)
from .operators import BandedOperator, build_operator
from .reference import REFERENCE_LAWS, reference_value
from .reproduce import ReproductionReport, run_reproduction
from .scan import ScanResult, ScanSpec, SweepRow, scaling_sweep, scan_tau
from .states import (
    CoherentSpinParams,
    SpinState,
    basis_state,
    make_cat,
    make_css,
    make_ewss,
    make_twin_fock,
)

__version__ = "0.1.0"

__all__ = [
    "BandedOperator",
    "CoherentSpinParams",
    "DEFAULT_PROTOCOL",
    "FieldEstimationParams",
    "FisherBound",
    "FitError",
    "FitModel",
    "FitResult",
    "PropagationError",
    "QpdGrid",
    "REFERENCE_LAWS",
    "ReproductionReport",
    "ScanResult",
    "ScanSpec",
    "SpinMoments",
    "SpinState",
    "SweepRow",
    "TwistProtocol",
    "basis_state",
    "build_operator",
    "evaluate",
    "evolve",
    "evolve_many",
    "fidelity",
    "fisher_bound",
    "fit",
    "make_cat",
    "make_css",
    "make_ewss",
    "make_sss",
    "make_twin_fock",
    "prob_distribution",
    "qpd",
    "reference_value",
    "rotate",
    "run_reproduction",
    "scaling_sweep",
    "scan_tau",
    "spin_moments",
    "tact_generator",
]
