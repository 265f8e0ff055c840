"""Published reference coefficients for the scaling laws.

These are the values the reproduction pipeline compares against: the
large-J fidelity maxima, the Jz-fluctuation growth laws, and the optimal
evolution times, each with the J range over which the published fit was
stated to hold and the reproduction series column it is fitted to.
"""

from dataclasses import dataclass

from .fitting import FitModel, evaluate


@dataclass(frozen=True)
class ReferenceLaw:
    key: str
    column: str  # the reproduction series column the law is fitted to
    model: FitModel
    stated_range: str


REFERENCE_LAWS = {
    law.key: law
    for law in (
        ReferenceLaw(
            key="fid_ewss_max", column="value_fid_ewss",
            model=FitModel("sq_power_offset", (0.0298, 0.621, 0.995)),
            stated_range="J >= 400",
        ),
        ReferenceLaw(
            key="fid_tfs_max", column="value_fid_tfs",
            model=FitModel("sq_power_offset", (0.0743, 1.00, 0.932)),
            stated_range="all J",
        ),
        ReferenceLaw(
            key="dz_at_tau_ewss", column="dz_at_tau_ewss",
            model=FitModel("shifted_power", (0.557, 1.03, 1.00)),
            stated_range="J >= 300",
        ),
        ReferenceLaw(
            key="dz_at_tau_tfs", column="dz_at_tau_tfs",
            model=FitModel("shifted_power", (0.775, 0.494, 1.00)),
            stated_range="all J",
        ),
        ReferenceLaw(
            key="dz_max", column="value_var_z_max",
            model=FitModel("shifted_power", (0.799, 0.453, 1.00)),
            stated_range="all J",
        ),
        ReferenceLaw(
            key="tau_ewss", column="tau_fid_ewss",
            model=FitModel("log_over_linear", (1.10, 4.02)),
            stated_range="all J",
        ),
        ReferenceLaw(
            key="tau_tfs", column="tau_fid_tfs",
            model=FitModel("log_over_linear", (25.2, 3.93)),
            stated_range="all J",
        ),
        ReferenceLaw(
            key="tau_dz_max", column="tau_var_z_max",
            model=FitModel("log_over_linear", (11.5, 3.94)),
            stated_range="all J",
        ),
    )
}


def reference_value(key: str, j) -> float:
    return evaluate(REFERENCE_LAWS[key].model, j)


def default_tau_max(j) -> float:
    """Scan window upper edge: three times the predicted twin-Fock time.

    Every optimum of interest falls well inside this window at any J.
    """
    return 3.0 * reference_value("tau_tfs", j)
