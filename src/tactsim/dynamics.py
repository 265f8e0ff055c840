"""Counter-twisting Hamiltonian, time propagation, and collective rotations.

Units: hbar = 1, so the evolution operator for the twisting generator G is
exp(G*tau) with G skew-hermitian and tau dimensionless when chi = 1.

Generators that couple only M <-> M+-2 are propagated per parity block,
so amplitudes of the untouched parity stay exactly zero.  Each parity
block of such a generator is tridiagonal, and so are Jx, Jy and any
unit-vector J_n.  The default route exploits this:

* ``auto``: one cached eigendecomposition per tridiagonal Hermitian H
  (H = iG for a parity block of a skew-hermitian generator, H = J_axis
  for a rotation), H = P V diag(lam) V^T P* with a unit phase gauge P
  and ``scipy.linalg.eigh_tridiagonal``; then
  exp(-i t H) v = P V (exp(-i lam t) * V^T P* v) for every t at
  round-off accuracy.  Other generators use dense scaling-and-squaring
  up to dimension 64 and the Krylov route above.

Two independent routes stay selectable as oracles and are cross-checked
against ``auto`` by the tests:

* ``dense_expm``: scaling-and-squaring on the dense generator (scipy).
* ``krylov``: Lanczos exponential action with full reorthogonalization and
  adaptive substepping.  The substep error is controlled through the
  standard residual estimate beta0 * beta_{m+1} * dt * |y_m|; if the
  accumulated estimate cannot be brought below the requested tolerance
  within ``max_substeps`` the propagation fails loudly instead of
  returning an inaccurate state.  The tolerance and the substep cap bind
  only this route.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .operators import (
    HERMITIAN,
    SKEW_HERMITIAN,
    BandedOperator,
    build_operator,
    ladder_coefficients,
    m_values,
    spin_dimension,
    validate_spin,
)
from .states import SpinState, basis_state

_DENSE_DIM_LIMIT = 64
_ROTATION_DENSE_LIMIT = 2048
_KRYLOV_M = 40
_KRYLOV_STEP_BUDGET = 0.3  # target ||G||*dt per substep, in units of m
_EVOLVE_NORM_TOL = 1e-10
_EIGEN_CACHE_SIZE = 32  # eigensystems: ~3 per J (x, y, one twisting block)
_ROTATION_CACHE_SIZE = 32

AXIS_LABELS = ("x", "y", "z")


class PropagationError(RuntimeError):
    """Propagation could not reach the requested accuracy."""


@dataclass(frozen=True)
class TwistProtocol:
    """Squeezing parameters plus the final rotation specification."""

    chi: float = 1.0
    gamma: float = 0.0
    tau: float = 0.0
    rotation_axis: object = "y"
    rotation_angle: float = math.pi / 2

    def __post_init__(self):
        if not (self.chi > 0 and math.isfinite(self.chi)):
            raise ValueError("chi must be positive and finite")
        if not (self.tau >= 0 and math.isfinite(self.tau)):
            raise ValueError("tau must be nonnegative and finite")
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")
        if not math.isfinite(self.rotation_angle):
            raise ValueError("rotation angle must be finite")
        axis = self.rotation_axis
        if isinstance(axis, str):
            if axis not in AXIS_LABELS:
                raise ValueError(f"rotation axis label must be one of {AXIS_LABELS}")
        else:
            vec = np.asarray(axis, dtype=float)
            if vec.shape != (3,):
                raise ValueError("rotation axis vector must have 3 components")
            if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
                raise ValueError("rotation axis vector must be normalized (1e-12)")
            object.__setattr__(self, "rotation_axis", tuple(float(c) for c in vec))


@dataclass(frozen=True)
class PropagatorConfig:
    """How to apply the matrix exponential.

    method "auto" applies the cached tridiagonal eigendecomposition to each
    parity block of a parity-preserving skew-hermitian generator (for other
    generators: dense scaling-and-squaring up to dimension 64, Krylov
    above).  "dense_expm" and "krylov" force one of the oracle routes;
    tolerance and max_substeps bind only "krylov".
    """

    method: str = "auto"
    tolerance: float = 1e-10
    max_substeps: int = 4096

    def __post_init__(self):
        if self.method not in ("auto", "dense_expm", "krylov"):
            raise ValueError(f"unknown propagation method {self.method!r}")
        if not (0.0 < self.tolerance <= 1e-6):
            raise ValueError("tolerance must lie in (0, 1e-6]")
        if int(self.max_substeps) < 1:
            raise ValueError("max_substeps must be positive")


DEFAULT_CONFIG = PropagatorConfig()
DEFAULT_PROTOCOL = TwistProtocol()


def tact_generator(j, chi=1.0, gamma=0.0) -> BandedOperator:
    """G = -i H / hbar = -(chi/2) (e^{-2i gamma} J+^2 - e^{2i gamma} J-^2).

    Skew-hermitian with bandwidth 2; real antisymmetric when gamma = 0.
    """
    validate_spin(j)
    if not (chi > 0 and math.isfinite(chi)):
        raise ValueError("chi must be positive and finite")
    lad = ladder_coefficients(j)
    quad = lad[:-1] * lad[1:]
    if gamma == 0.0:
        upper = -(chi / 2) * quad
        lower = (chi / 2) * quad
    else:
        upper = -(chi / 2) * np.exp(-2j * gamma) * quad
        lower = (chi / 2) * np.exp(2j * gamma) * quad
    return BandedOperator(j, {2: upper, -2: lower}, SKEW_HERMITIAN)


class _Bands:
    """Minimal banded matrix: offset -> coefficient array, any dimension."""

    __slots__ = ("n", "items", "is_real")

    def __init__(self, n, bands):
        self.n = n
        items = []
        real = True
        for d, coef in bands.items():
            coef = np.asarray(coef)
            if np.iscomplexobj(coef):
                if np.all(coef.imag == 0.0):
                    coef = coef.real.copy()
                else:
                    real = False
            items.append((d, coef))
        self.items = items
        self.is_real = real

    def apply_real(self, v):
        out = np.zeros(self.n)
        for d, coef in self.items:
            if d >= 0:
                out[: self.n - d] += coef * v[d:]
            else:
                out[-d:] += coef * v[: self.n + d]
        return out

    def apply_complex(self, v):
        out = np.zeros(self.n, dtype=complex)
        for d, coef in self.items:
            if d >= 0:
                out[: self.n - d] += coef * v[d:]
            else:
                out[-d:] += coef * v[: self.n + d]
        return out

    def sup_norm(self):
        rows = np.zeros(self.n)
        for d, coef in self.items:
            if d >= 0:
                rows[: self.n - d] += np.abs(coef)
            else:
                rows[-d:] += np.abs(coef)
        return float(rows.max()) if self.n else 0.0

    def dense(self):
        dtype = float if self.is_real else complex
        out = np.zeros((self.n, self.n), dtype=dtype)
        for d, coef in self.items:
            out += np.diag(coef, d)
        return out


def _lanczos_herm_step(apply_g, v, dt, m):
    """exp(dt*G) v for one substep, G skew-hermitian, via Lanczos on iG.

    Returns (result, local error estimate).
    """
    n = v.shape[0]
    beta0 = float(np.linalg.norm(v))
    if beta0 == 0.0:
        return v.copy(), 0.0
    m = min(m, n)
    V = np.empty((m, n), dtype=complex)
    alpha = np.zeros(m)
    beta = np.zeros(m)  # beta[k] couples basis vectors k-1 and k
    V[0] = v / beta0
    used = m
    beta_next = 0.0
    for k in range(m):
        w = 1j * apply_g(V[k])
        ak = float(np.vdot(V[k], w).real)
        w -= ak * V[k]
        if k:
            w -= beta[k] * V[k - 1]
        proj = np.conj(V[: k + 1] @ np.conj(w))  # <V_i, w> without copying V
        w -= V[: k + 1].T @ proj
        alpha[k] = ak
        b = float(np.linalg.norm(w))
        if k + 1 < m:
            if b <= 1e-14 * max(1.0, abs(ak)):
                used = k + 1
                break
            beta[k + 1] = b
            V[k + 1] = w / b
        else:
            beta_next = b
    lam, Q = scipy.linalg.eigh_tridiagonal(alpha[:used], beta[1:used])
    y = Q @ (np.exp(-1j * dt * lam) * Q[0])
    out = beta0 * (y @ V[:used])
    err = beta0 * beta_next * abs(dt) * abs(y[-1])
    return out, err


def _lanczos_skew_step(apply_g, v, dt, m):
    """Real-arithmetic variant for G real antisymmetric and v real.

    The recurrence G v_k = beta_{k+1} v_{k+1} - beta_k v_{k-1} keeps the
    whole computation in the reals, so exactly-real states stay real.
    """
    n = v.shape[0]
    beta0 = float(np.linalg.norm(v))
    if beta0 == 0.0:
        return v.copy(), 0.0
    m = min(m, n)
    V = np.empty((m, n))
    beta = np.zeros(m)
    V[0] = v / beta0
    used = m
    beta_next = 0.0
    for k in range(m):
        w = apply_g(V[k])
        if k:
            w += beta[k] * V[k - 1]
        proj = V[: k + 1] @ w
        w -= V[: k + 1].T @ proj
        b = float(np.linalg.norm(w))
        if k + 1 < m:
            if b <= 1e-14:
                used = k + 1
                break
            beta[k + 1] = b
            V[k + 1] = w / b
        else:
            beta_next = b
    T = np.zeros((used, used))
    if used > 1:
        sub = beta[1:used]
        T[np.arange(1, used), np.arange(used - 1)] = sub
        T[np.arange(used - 1), np.arange(1, used)] = -sub
    y = scipy.linalg.expm(dt * T)[:, 0]
    out = beta0 * (y @ V[:used])
    err = beta0 * beta_next * abs(dt) * abs(y[-1])
    return out, err


def _krylov_expm_action(bands: _Bands, v, tau, tolerance, max_substeps):
    real_path = bands.is_real and np.all(np.asarray(v).imag == 0.0)
    if real_path:
        work = np.asarray(v).real.astype(float)
        step = _lanczos_skew_step
        apply_g = bands.apply_real
    else:
        work = np.asarray(v, dtype=complex)
        step = _lanczos_herm_step
        apply_g = bands.apply_complex
    m = min(_KRYLOV_M, bands.n)
    if m >= bands.n:
        n_sub = 1  # the Krylov space spans everything; one step is exact
    else:
        n_sub = max(1, math.ceil(abs(tau) * bands.sup_norm() / (_KRYLOV_STEP_BUDGET * m)))
    while True:
        if n_sub > max_substeps:
            raise PropagationError(
                f"accuracy {tolerance:g} not reached within {max_substeps} substeps"
            )
        dt = tau / n_sub
        w = work
        err = 0.0
        for _ in range(n_sub):
            w, e = step(apply_g, w, dt, m)
            err += e
            if err > tolerance:
                break
        if err <= tolerance:
            return w
        n_sub *= 2


def _matvec(a, x):
    """a @ x, with a real ``a`` applied to a complex x as two real columns.

    numpy would otherwise copy ``a`` to complex on every product.  A real
    ``a`` and an exactly-real x give an exactly-real result.
    """
    if np.iscomplexobj(a) or not np.iscomplexobj(x):
        return a @ x
    if not np.any(x.imag):
        return a @ x.real
    return (a @ np.ascontiguousarray(x).view(float).reshape(-1, 2)).view(complex).ravel()


class _TridiagonalExp:
    """exp(-i t H) for a Hermitian tridiagonal H, from one eigendecomposition.

    H = P T P* with unit phases P chosen so that T is real symmetric
    tridiagonal with off-diagonal |e_k|; T = V diag(values) V^T comes from
    ``eigh_tridiagonal``.  When H is purely imaginary, exp(-i t H) is real,
    and its action on a real vector is returned real.
    """

    __slots__ = ("phase", "values", "vectors", "is_real")

    def __init__(self, diag, upper):
        mag = np.abs(upper)
        unit = np.ones(len(upper), dtype=complex)
        nonzero = mag > 0
        unit[nonzero] = np.conj(upper[nonzero]) / mag[nonzero]
        phase = np.cumprod(np.concatenate(([1.0 + 0j], unit)))
        self.phase = phase / np.abs(phase)  # keep |p_k| = 1 to round-off
        self.values, self.vectors = scipy.linalg.eigh_tridiagonal(diag, mag)
        self.is_real = not (np.any(diag) or np.any(upper.real))
        for arr in (self.phase, self.values, self.vectors):
            arr.flags.writeable = False

    def apply(self, t, v):
        """exp(-i t H) v."""
        coeff = _matvec(self.vectors.T, np.conj(self.phase) * v)
        out = self.phase * _matvec(self.vectors, np.exp(-1j * t * self.values) * coeff)
        return out.real if self.is_real and not np.any(np.imag(v)) else out

    def matrix(self, t):
        """exp(-i t H) as a dense matrix (real when H is purely imaginary)."""
        vec, lam = self.vectors, self.values
        core = (vec * np.cos(t * lam)) @ vec.T - 1j * ((vec * np.sin(t * lam)) @ vec.T)
        mat = self.phase[:, None] * core * np.conj(self.phase)
        return mat.real.copy() if self.is_real else mat  # copy: drop the complex buffer


@lru_cache(maxsize=_EIGEN_CACHE_SIZE)
def _cached_eigensystem(diag: bytes, upper: bytes) -> _TridiagonalExp:
    return _TridiagonalExp(np.frombuffer(diag), np.frombuffer(upper, dtype=complex))


def _tridiagonal_exp(diag, upper) -> _TridiagonalExp:
    """The shared eigensystem of the Hermitian tridiagonal with these bands.

    Keyed on the band content, so equal operators share one decomposition
    whoever built them.
    """
    return _cached_eigensystem(np.asarray(diag, dtype=float).tobytes(),
                               np.asarray(upper, dtype=complex).tobytes())


def _propagate_vector(bands: _Bands, v, tau, cfg: PropagatorConfig):
    method = cfg.method
    if method == "auto":
        method = "dense_expm" if bands.n <= _DENSE_DIM_LIMIT else "krylov"
    if method == "dense_expm":
        dense = bands.dense()
        if bands.is_real and np.all(np.asarray(v).imag == 0.0):
            return scipy.linalg.expm(dense * tau) @ np.asarray(v).real
        return scipy.linalg.expm(dense.astype(complex) * tau) @ np.asarray(v, dtype=complex)
    return _krylov_expm_action(bands, v, tau, cfg.tolerance, int(cfg.max_substeps))


def evolve(state: SpinState, generator: BandedOperator, tau,
           cfg: PropagatorConfig = DEFAULT_CONFIG) -> SpinState:
    """Apply exp(G*tau) to the state.

    The generator must act on the same spin J.  tau = 0 returns the input
    unchanged.  The output norm is re-verified to 1 within 1e-10; a
    propagation that cannot meet the configured tolerance raises
    PropagationError rather than returning a silently inaccurate state.
    """
    if generator.j != state.j:
        raise ValueError(
            f"generator spin {generator.j} does not match state spin {state.j}"
        )
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    if tau == 0.0:
        return state
    v = state.amplitudes
    n = state.dim
    out = np.zeros(n, dtype=complex)
    if generator.even_offsets_only:
        # parity-preserving generator: the two M-parity sectors evolve
        # independently, and an empty sector stays exactly zero
        spectral = cfg.method == "auto" and generator.hermiticity_tag == SKEW_HERMITIAN
        for parity in (0, 1):
            sub = v[parity::2]
            if not np.any(sub != 0.0):
                continue
            block = {d // 2: c[parity::2] for d, c in generator.bands.items()
                     if d % 2 == 0}
            if spectral:
                size = len(sub)
                exp_h = _tridiagonal_exp((1j * block.get(0, np.zeros(size))).real,
                                         1j * block.get(1, np.zeros(size - 1)))
                out[parity::2] = exp_h.apply(tau, sub)
            else:
                out[parity::2] = _propagate_vector(_Bands(len(sub), block), sub, tau, cfg)
    else:
        out[:] = _propagate_vector(_Bands(n, generator.bands), v, tau, cfg)
    nrm = float(np.linalg.norm(out))
    if abs(nrm - 1.0) > _EVOLVE_NORM_TOL:
        raise PropagationError(f"propagated norm deviates from 1 by {nrm - 1.0:.3e}")
    out = out / nrm
    return SpinState(j=state.j, amplitudes=out,
                     real_flag=bool(np.all(out.imag == 0.0)))


def _axis_operator(j, axis) -> BandedOperator:
    if isinstance(axis, str):
        if axis not in AXIS_LABELS:
            raise ValueError(f"rotation axis label must be one of {AXIS_LABELS}")
        return build_operator(j, "J" + axis)
    vec = np.asarray(axis, dtype=float)
    if vec.shape != (3,):
        raise ValueError("rotation axis vector must have 3 components")
    if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
        raise ValueError("rotation axis vector must be normalized (1e-12)")
    lad = ladder_coefficients(j)
    bands = {
        0: vec[2] * m_values(j),
        1: (vec[0] / 2 - 0.5j * vec[1]) * lad,
        -1: (vec[0] / 2 + 0.5j * vec[1]) * lad,
    }
    return BandedOperator(j, bands, HERMITIAN)


def _axis_exp(j, axis) -> _TridiagonalExp:
    """Eigensystem of J_axis, which is tridiagonal for every axis."""
    bands = _axis_operator(j, axis).bands
    n = spin_dimension(j)
    return _tridiagonal_exp(bands.get(0, np.zeros(n)).real, bands.get(1, np.zeros(n - 1)))


@lru_cache(maxsize=_ROTATION_CACHE_SIZE)
def _rotation_cache(two_j, axis, angle):
    """exp(-i * angle * J_axis) for spin two_j/2, shared read-only."""
    mat = _axis_exp(two_j / 2, axis).matrix(angle)
    mat.flags.writeable = False
    return mat


def _rotation_matrix(j, axis, angle):
    """Cached exp(-i * angle * J_axis); real for y-like axes."""
    axis_key = axis if isinstance(axis, str) else tuple(float(c) for c in axis)
    return _rotation_cache(validate_spin(j), axis_key, float(angle))


def rotate(state: SpinState, axis, angle) -> SpinState:
    """Apply exp(-i * angle * J_axis); axis is "x", "y", "z" or a unit vector."""
    if not math.isfinite(angle):
        raise ValueError("rotation angle must be finite")
    if axis == "z":
        # Jz is diagonal here; apply the phases exactly
        out = state.amplitudes * np.exp(-1j * angle * state.m_values)
    elif state.dim <= _ROTATION_DENSE_LIMIT:
        out = _matvec(_rotation_matrix(state.j, axis, angle), state.amplitudes)
    else:
        out = _axis_exp(state.j, axis).apply(angle, state.amplitudes)
    nrm = float(np.linalg.norm(out))
    if abs(nrm - 1.0) > _EVOLVE_NORM_TOL:
        raise PropagationError(f"rotated norm deviates from 1 by {nrm - 1.0:.3e}")
    out = np.asarray(out, dtype=complex) / nrm
    return SpinState(j=state.j, amplitudes=out,
                     real_flag=bool(np.all(out.imag == 0.0)))


def make_sss(j, tau=None, protocol: TwistProtocol = DEFAULT_PROTOCOL,
             cfg: PropagatorConfig = DEFAULT_CONFIG) -> SpinState:
    """Squeeze |J,J> for time tau, then apply the protocol rotation.

    This is the canonical post-rotation squeezed state every downstream
    metric is evaluated on.  tau defaults to protocol.tau.
    """
    if tau is None:
        tau = protocol.tau
    if not (tau >= 0 and math.isfinite(tau)):
        raise ValueError("tau must be nonnegative and finite")
    initial = basis_state(j, j)
    gen = tact_generator(j, chi=protocol.chi, gamma=protocol.gamma)
    evolved = evolve(initial, gen, tau, cfg)
    return rotate(evolved, protocol.rotation_axis, protocol.rotation_angle)
