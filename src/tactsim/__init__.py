"""Collective-spin squeezing under two-axis counter-twisting.

Build the special states (coherent, equally-weighted superposition,
twin-Fock, cat), evolve under the counter-twisting interaction, evaluate
fidelities, distributions, and Cramer-Rao sensitivity bounds, scan the
evolution time for the optimal squeezing protocols, and fit the resulting
scaling laws.
"""

from types import ModuleType as _ModuleType

from .dynamics import (
    PropagationError,
    evolve,
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

# every name imported above, and nothing else: the import lists are the one source
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
