"""Evolution-time scans: locate the times optimizing each squeezing metric.

A scan evaluates its metric on a coarse tau grid, brackets the best grid
point (the first one when the grid optimum is ambiguous within 1e-12,
which targets the first peak rather than later revivals), and refines by
golden-section search.  Scans are deterministic: identical specs yield
bitwise-identical results.

The metrics are defined on R psi(tau), R = exp(-i pi/2 Jy), but a scan scores
psi(tau) = exp(G tau)|J,J> = modes @ exp(-i lam tau), the form of the twisted |J,J>
cached per (J, chi, gamma) by ``dynamics._twist_spectrum``, with R moved onto the
metric: each metric binds one projection M per scan and scores the rows M modes
against the phases exp(-i lam tau), a whole grid in one product; no state is built.
As psi fills the even rows alone, M reads the modes as cached: the bras' even entries,
and the odd rows of Jx psi and Jy psi from the ladder coefficients.  The grid phases
are built once per (J, window, grid) and shared read-only, with the modes, by the
metrics of that J (``_scan_basis``); the phases have unit modulus, so the norm is
checked once, on the spectrum.  The optimum is re-evaluated on the single-state path
(``squeezed_state``: ``make_sss`` multiplies the same modes by the phases, then turns
the state) and that state is kept as ``ScanResult.state``; a disagreement above 1e-10
relative plus 8 eps max(1, J) raises PropagationError.
"""

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .dynamics import PropagationError, _quarter_turn_t, _twist_spectrum, make_sss
from .observables import fidelity, spin_moments
from .reference import default_tau_max
from .states import SpinState, make_ewss, make_twin_fock
from .operators import ladder_coefficients, validate_spin

_GRID_TIE_TOL = 1e-12
_CROSS_CHECK_TOL = 1e-10
# per unit of max(1, J): an exact-zero optimum (J=1 var_y_min) is round-off
_CROSS_CHECK_ROUND_OFF = 8 * np.finfo(float).eps
_INV_PHI = (math.sqrt(5) - 1) / 2  # 1/phi
_INV_PHI_SQ = (3 - math.sqrt(5)) / 2  # 1/phi^2


def _bra_row(make_target, j, modes, turned=True):
    """|<target|R psi>|^2 = |<R^dag target|psi>|^2: one row, the bra target^dag R,
    which is R^T conj(target) on Delta's real blocks, or conj(target) itself when R
    fixes the target (``turned`` False: the twin-Fock state, the Jy = 0 eigenstate)."""
    bra = np.conj(make_target(j).amplitudes)
    return (_quarter_turn_t(validate_spin(j), bra) if turned else bra)[None, 0::2] @ modes


def _odd_rows(axis, j, modes):
    """J_x and J_y (axis 0, 1) flip the parity of M, so their mean on psi is exactly
    0 and <(dJ)^2>^{1/2}, the unit the scaling laws are stated in, is |J psi|.  With c
    the ladder coefficients, row 2k+1 of J+ psi is c_2k+1 psi_2k+2, of J- psi c_2k psi_2k."""
    lad = ladder_coefficients(j)[:, None]
    down = lad[0::2] * modes[: len(lad[0::2])]
    up = np.zeros_like(down)
    up[: len(modes) - 1] = lad[1::2] * modes[1:]
    return (up + down) / 2 if axis == 0 else (up - down) * -0.5j


# metric -> (+1 maximize or -1 minimize, power p, projection, single-state metric).
# With psi(tau) = modes @ exp(-i lam tau), projection(j, modes) is M, bound once
# per scan, and the metric of psi is |M exp(-i lam tau)|^p; the single-state metric
# scores one post-rotation state R psi.  M carries R: fidelities take the bra
# target^dag R (R fixes the twin-Fock state), and as R^dag Jz R = -Jx and
# R^dag Jy R = Jy, dJz is |Jx psi|.
METRICS = {
    "fid_ewss": (1.0, 2, partial(_bra_row, make_ewss),
                 lambda state: fidelity(make_ewss(state.j), state)),
    "fid_tfs": (1.0, 2, partial(_bra_row, make_twin_fock, turned=False),
                lambda state: fidelity(make_twin_fock(state.j), state)),
    "var_z_max": (1.0, 1, partial(_odd_rows, 0),
                  lambda state: math.sqrt(spin_moments(state).variance_z)),
    "var_y_min": (-1.0, 1, partial(_odd_rows, 1),
                  lambda state: math.sqrt(spin_moments(state).variance_y)),
}


def squeezed_state(j, tau):
    """The canonical squeezed state (chi = 1, gamma = 0) at time tau."""
    return make_sss(j, tau)


@dataclass(frozen=True)
class ScanSpec:
    """What to scan: spin, metric, window, grid size, refinement tolerance."""

    j: float
    metric: str
    tau_min: float
    tau_max: float
    n_grid: int = 512
    refine_tol: float = 1e-8

    def __post_init__(self):
        validate_spin(self.j)
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}; "
                             f"choose from {sorted(METRICS)}")
        if self.metric == "fid_tfs" and abs(self.j - round(self.j)) > 1e-9:
            raise ValueError("metric fid_tfs is undefined at half-integer j "
                             "(twin-Fock requires integer J)")
        for name in ("tau_min", "tau_max", "refine_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (0 <= self.tau_min < self.tau_max):
            raise ValueError("need 0 <= tau_min < tau_max")
        if not isinstance(self.n_grid, numbers.Integral):
            raise ValueError(f"n_grid must be an integer, got {self.n_grid!r}")
        if self.n_grid < 8:
            raise ValueError("n_grid must be at least 8")
        if not self.refine_tol > 0:
            raise ValueError("refine_tol must be positive")

    @classmethod
    def auto(cls, j, metric, n_grid: int = 512) -> "ScanSpec":
        """Default window [0, 3*predicted twin-Fock time], tol 1e-6*tau_max."""
        tau_max = default_tau_max(j)
        return cls(j=j, metric=metric, tau_min=0.0, tau_max=tau_max,
                   n_grid=n_grid, refine_tol=1e-6 * tau_max)


@dataclass(frozen=True, eq=False)
class ScanResult:
    spec: ScanSpec
    grid_taus: np.ndarray
    grid_values: np.ndarray
    tau_star: float
    value_star: float
    state: SpinState = field(default=None, repr=False)  # R psi(tau_star); not in JSON

    def __post_init__(self):
        if not self.spec.tau_min <= self.tau_star <= self.spec.tau_max:
            raise ValueError("tau_star fell outside the scan window")
        sign = METRICS[self.spec.metric][0]
        if sign * self.value_star < np.max(sign * np.asarray(self.grid_values)) - _GRID_TIE_TOL:
            raise ValueError("refined optimum is worse than the best grid sample")
        for name in ("grid_taus", "grid_values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _golden_section(f, a, b, tol, sign):
    """Deterministic golden-section optimization of sign*f on [a, b]."""
    h = b - a
    if h <= tol:
        return (a + b) / 2
    n = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    c = a + _INV_PHI_SQ * h
    d = a + _INV_PHI * h
    yc = sign * f(c)
    yd = sign * f(d)
    for _ in range(n - 1):
        h *= _INV_PHI
        if yc > yd:
            b, d, yd = d, c, yc
            c = a + _INV_PHI_SQ * h
            yc = sign * f(c)
        else:
            a, c, yc = c, d, yd
            d = a + _INV_PHI * h
            yd = sign * f(d)
    return (a + d) / 2 if yc > yd else (c + b) / 2


@lru_cache(maxsize=1)  # sweeps run a J's metrics back to back; phases are 1.3 MB at J=2000
def _scan_basis(j, tau_min, tau_max, n_grid):
    """Read-only (lam, modes, taus, phases) shared by the metrics of one spin, window
    and grid: psi(tau) = modes @ exp(-i lam tau) on the even rows, ``_twist_spectrum``'s
    cached (lam, modes) as they are, and phases[:, k] = exp(-i lam taus[k])."""
    lam, modes, _ = _twist_spectrum(j, 1.0, 0.0)
    taus = np.linspace(tau_min, tau_max, n_grid)
    phases = np.exp(-1j * np.multiply.outer(lam, taus))
    for arr in (taus, phases):
        arr.flags.writeable = False
    return lam, modes, taus, phases


def scan_tau(spec: ScanSpec) -> ScanResult:
    """Coarse grid plus golden-section refinement of one metric."""
    sign, power, project, on_state = METRICS[spec.metric]
    lam, modes, taus, phases = _scan_basis(spec.j, spec.tau_min, spec.tau_max, spec.n_grid)
    projection = project(spec.j, modes)

    def values_at(phases):
        return np.linalg.norm(projection @ phases, axis=0) ** power

    def f(tau):
        return float(values_at(np.exp(-1j * np.multiply.outer(lam, [tau])))[0])

    values = values_at(phases)
    signed = sign * values
    idx = int(np.nonzero(signed >= signed.max() - _GRID_TIE_TOL)[0][0])
    tau_ref = _golden_section(f, taus[max(idx - 1, 0)], taus[min(idx + 1, spec.n_grid - 1)],
                              spec.refine_tol, sign)
    val_ref = f(tau_ref)
    # refinement must never lose to the best coarse sample
    if sign * val_ref >= signed[idx]:
        tau_star, value_star = float(tau_ref), float(val_ref)
    else:
        tau_star, value_star = float(taus[idx]), float(values[idx])
    check = on_state(state := squeezed_state(spec.j, tau_star))
    if not abs(check - value_star) <= (_CROSS_CHECK_TOL * max(abs(check), abs(value_star))
                                       + _CROSS_CHECK_ROUND_OFF * max(1.0, spec.j)):
        raise PropagationError(
            f"{spec.metric} at tau={tau_star!r}: grid path gives {value_star!r}, "
            f"single-state path {check!r}")
    return ScanResult(spec=spec, grid_taus=taus, grid_values=values,
                      tau_star=tau_star, value_star=value_star, state=state)


@dataclass(frozen=True)
class SweepRow:
    j: float
    metric: str
    tau_star: float
    value_star: float
    grid_size: int
    refine_tol: float
    status: str  # "ok" or "failed"
    error: str = None
    result: ScanResult = None


def _run_row(j, metric, n_grid) -> SweepRow:
    try:
        spec = ScanSpec.auto(j, metric, n_grid=n_grid)
        res = scan_tau(spec)
        return SweepRow(j=j, metric=metric, tau_star=res.tau_star,
                        value_star=res.value_star, grid_size=n_grid,
                        refine_tol=spec.refine_tol, status="ok", result=res)
    except (ValueError, PropagationError) as exc:
        # domain failures are recorded per row; anything else is a bug and raises
        return SweepRow(j=j, metric=metric, tau_star=math.nan,
                        value_star=math.nan, grid_size=n_grid,
                        refine_tol=math.nan, status="failed",
                        error=f"{type(exc).__name__}: {exc}")


def scaling_sweep(j_list, metrics, n_grid: int = 512):
    """Run scan_tau for every (j, metric) pair, in input order.

    Rows either complete or are explicitly marked failed: a ValueError or
    PropagationError becomes a failed row with the exception type in
    ``error``, and any other exception propagates to the caller.
    """
    for name, value in (("j_list", j_list), ("metrics", metrics)):
        if isinstance(value, str):
            raise ValueError(f"{name} must be a sequence, not the string {value!r}")
    j_list = list(j_list)
    metrics = list(metrics)
    if not j_list or not metrics:
        raise ValueError("j_list and metrics must be nonempty")
    return [_run_row(j, m, n_grid) for j in j_list for m in metrics]
