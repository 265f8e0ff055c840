"""Evolution-time scans: locate the times optimizing each squeezing metric.

A scan evaluates its metric on a coarse tau grid, brackets the best grid
point (the first one when the grid optimum is ambiguous within 1e-12,
which targets the first peak rather than later revivals), and refines by
golden-section search.  Scans are deterministic: identical specs yield
bitwise-identical results.

The metrics are defined on the protocol's output R psi(tau), with
R = exp(-i pi/2 Jy), but a scan scores the twisted state psi(tau) itself
and moves R onto the metric (see ``METRICS``): the grid is one
``evolve_many`` block of |J,J>, under ``auto`` one product with the cached
eigensystem of each parity block, and no state is rotated.  The optimum is
re-evaluated on the single-state path (``squeezed_state``, which rotates);
a disagreement above 1e-10 relative plus 8 eps max(1, J) raises
PropagationError.  The ``dense_expm``/``krylov`` oracles stay selectable.
"""

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .dynamics import (
    DEFAULT_CONFIG,
    DEFAULT_PROTOCOL,
    PropagationError,
    PropagatorConfig,
    _rotation_matrix,
    _shared_generator,
    evolve_many,
    make_sss,
)
from .observables import column_variances, fidelity, spin_moments
from .reference import default_tau_max
from .states import basis_state, make_ewss, make_twin_fock
from .operators import validate_spin

_GRID_TIE_TOL = 1e-12
_CROSS_CHECK_TOL = 1e-10
# per unit of max(1, J): an exact-zero optimum (J=1 var_y_min) is round-off
_CROSS_CHECK_ROUND_OFF = 8 * np.finfo(float).eps
_INV_PHI = (math.sqrt(5) - 1) / 2  # 1/phi
_INV_PHI_SQ = (3 - math.sqrt(5)) / 2  # 1/phi^2


def _fidelity_to(make_target):
    """|<target|R psi>|^2 = |<R^dag target|psi>|^2, with the bra built once per scan."""
    def bind(j):
        target = make_target(j)
        bra = np.conj(target.amplitudes) @ _rotation_matrix(j, "y", math.pi / 2)
        return (lambda block: np.abs(bra @ block) ** 2,
                lambda state: fidelity(target, state))
    return bind


def _deviation(axis, twisted_axis):
    """<(dJ_axis)^2>^{1/2}, the unit the scaling laws are stated in."""
    def bind(j):
        return (lambda block: np.sqrt(column_variances(j, block, twisted_axis)),
                lambda state: math.sqrt(getattr(spin_moments(state), "variance_" + axis)))
    return bind


# metric -> (+1 maximize or -1 minimize, evaluator).  evaluator(j) builds
# what the metric needs at spin j once and returns the metric of a (2J+1, k)
# block of twisted states psi(tau) and of one post-rotation state R psi.
# The block side carries R: fidelities take the bra target^dag R, and since
# R^dag Jz R = -Jx and R^dag Jy R = Jy, dJz becomes dJx and dJy stays.
METRICS = {
    "fid_ewss": (1.0, _fidelity_to(make_ewss)),
    "fid_tfs": (1.0, _fidelity_to(make_twin_fock)),
    "var_z_max": (1.0, _deviation("z", "x")),
    "var_y_min": (-1.0, _deviation("y", "y")),
}


def squeezed_state(j, tau, cfg: PropagatorConfig = DEFAULT_CONFIG):
    """The canonical squeezed state (default protocol) at time tau."""
    return make_sss(j, tau, DEFAULT_PROTOCOL, cfg)


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

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, record: dict) -> "ScanSpec":
        """Each field converted to its annotated type (float, str or int)."""
        return cls(**{f.name: f.type(record[f.name]) for f in fields(cls)})


@dataclass(frozen=True, eq=False)
class ScanResult:
    spec: ScanSpec
    grid_taus: np.ndarray
    grid_values: np.ndarray
    tau_star: float
    value_star: float

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

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "grid_taus": [float(t) for t in self.grid_taus],
            "grid_values": [float(v) for v in self.grid_values],
            "tau_star": self.tau_star,
            "value_star": self.value_star,
        }

    @classmethod
    def from_json_dict(cls, record: dict) -> "ScanResult":
        return cls(spec=ScanSpec.from_json_dict(record["spec"]),
                   grid_taus=np.asarray(record["grid_taus"], dtype=float),
                   grid_values=np.asarray(record["grid_values"], dtype=float),
                   tau_star=float(record["tau_star"]),
                   value_star=float(record["value_star"]))


def _golden_section(f, lo, hi, tol, sign):
    """Deterministic golden-section optimization of sign*f on [lo, hi]."""
    a, b = lo, hi
    h = b - a
    if h <= tol:
        return (a + b) / 2
    n = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    c = a + _INV_PHI_SQ * h
    d = a + _INV_PHI * h
    yc = sign * f(c)
    yd = sign * f(d)
    for _ in range(n - 1):
        if yc > yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI_SQ * h
            yc = sign * f(c)
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            yd = sign * f(d)
    return (a + d) / 2 if yc > yd else (c + b) / 2


def scan_tau(spec: ScanSpec, cfg: PropagatorConfig = DEFAULT_CONFIG) -> ScanResult:
    """Coarse grid plus golden-section refinement of one metric."""
    sign, evaluator = METRICS[spec.metric]
    on_block, on_state = evaluator(spec.j)
    initial = basis_state(spec.j, spec.j)
    gen = _shared_generator(float(spec.j), DEFAULT_PROTOCOL.chi, DEFAULT_PROTOCOL.gamma)

    def grid_values(taus):
        return on_block(evolve_many(initial, gen, taus, cfg))

    def f(tau):
        return float(grid_values([tau])[0])

    taus = np.linspace(spec.tau_min, spec.tau_max, spec.n_grid)
    values = grid_values(taus)
    signed = sign * values
    best = float(signed.max())
    idx = int(np.nonzero(signed >= best - _GRID_TIE_TOL)[0][0])
    lo = taus[max(idx - 1, 0)]
    hi = taus[min(idx + 1, spec.n_grid - 1)]
    tau_ref = _golden_section(f, lo, hi, spec.refine_tol, sign)
    val_ref = f(tau_ref)
    # refinement must never lose to the best coarse sample
    if sign * val_ref >= signed[idx]:
        tau_star, value_star = float(tau_ref), float(val_ref)
    else:
        tau_star, value_star = float(taus[idx]), float(values[idx])
    check = on_state(squeezed_state(spec.j, tau_star, cfg))
    if not abs(check - value_star) <= (_CROSS_CHECK_TOL * max(abs(check), abs(value_star))
                                       + _CROSS_CHECK_ROUND_OFF * max(1.0, spec.j)):
        raise PropagationError(
            f"{spec.metric} at tau={tau_star!r}: grid path gives {value_star!r}, "
            f"single-state path {check!r}")
    return ScanResult(spec=spec, grid_taus=taus, grid_values=values,
                      tau_star=tau_star, value_star=value_star)


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

    def to_csv_dict(self) -> dict:
        return {
            "j": self.j,
            "metric": self.metric,
            "tau_star": self.tau_star,
            "value_star": self.value_star,
            "grid_size": self.grid_size,
            "tol": self.refine_tol,
            "status": self.status,
        }


def _run_row(j, metric, cfg, n_grid) -> SweepRow:
    try:
        spec = ScanSpec.auto(j, metric, n_grid=n_grid)
        res = scan_tau(spec, cfg)
        return SweepRow(j=j, metric=metric, tau_star=res.tau_star,
                        value_star=res.value_star, grid_size=n_grid,
                        refine_tol=spec.refine_tol, status="ok", result=res)
    except (ValueError, PropagationError) as exc:
        # domain failures are recorded per row; anything else is a bug and raises
        return SweepRow(j=j, metric=metric, tau_star=math.nan,
                        value_star=math.nan, grid_size=n_grid,
                        refine_tol=math.nan, status="failed",
                        error=f"{type(exc).__name__}: {exc}")


def scaling_sweep(j_list, metrics, cfg: PropagatorConfig = DEFAULT_CONFIG,
                  n_grid: int = 512):
    """Run scan_tau for every (j, metric) pair, in input order.

    Rows either complete or are explicitly marked failed: a ValueError or
    PropagationError becomes a failed row with the exception type in
    ``error``, and any other exception propagates to the caller.
    """
    j_list = list(j_list)
    metrics = list(metrics)
    if not j_list or not metrics:
        raise ValueError("j_list and metrics must be nonempty")
    return [_run_row(j, m, cfg, n_grid) for j in j_list for m in metrics]
