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
  round-off accuracy; ``evolve_many`` takes a whole vector of t in one
  product.  ``auto`` takes no other generator: it raises ValueError and
  names the oracles below, which take any generator.

Two independent routes stay selectable as oracles and are cross-checked
against ``auto`` by the tests:

* ``dense_expm``: scaling-and-squaring on the dense generator (scipy).
* ``krylov``: Lanczos exponential action with full reorthogonalization and
  adaptive substepping (the real part is returned for a real generator
  and state, where the exponential is real).  The substep error is controlled through the
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

_ROTATION_DENSE_LIMIT = 2048
_KRYLOV_M = 40
_KRYLOV_STEP_BUDGET = 0.3  # target ||G||*dt per substep, in units of m
_EVOLVE_NORM_TOL = 1e-10
_EIGEN_CACHE_SIZE = 32  # eigensystems: ~3 per J (x, y, one twisting block)
_ROTATION_CACHE_SIZE = 32
_GENERATOR_CACHE_SIZE = 64

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
        object.__setattr__(self, "rotation_axis", _axis_key(self.rotation_axis))


def _axis_key(axis):
    """A rotation axis as its label or as a unit vector of three floats.

    Accepts "x", "y", "z" or any 3-sequence (tuple, list, ndarray) of unit
    length within 1e-12; anything else raises ValueError.
    """
    if isinstance(axis, str):
        if axis not in AXIS_LABELS:
            raise ValueError(f"rotation axis label must be one of {AXIS_LABELS}")
        return axis
    vec = np.asarray(axis, dtype=float)
    if vec.shape != (3,):
        raise ValueError("rotation axis vector must have 3 components")
    if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
        raise ValueError("rotation axis vector must be normalized (1e-12)")
    return tuple(float(c) for c in vec)


@dataclass(frozen=True)
class PropagatorConfig:
    """How to apply the matrix exponential.

    method "auto" applies the cached tridiagonal eigendecomposition to each
    parity block of a parity-preserving skew-hermitian generator, and
    rejects any other generator.  "dense_expm" and "krylov" are the oracle
    routes, for any generator; tolerance and max_substeps bind only "krylov".
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


def _lanczos_step(g, v, dt, m):
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
        w = 1j * _matvec(g, V[k])
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


def _krylov_expm_action(g, v, tau, tolerance, max_substeps):
    """exp(tau*g) v; real for a real g and v, since exp(tau*g) is then real."""
    real = not np.iscomplexobj(g) and not np.any(np.imag(v))
    work = np.asarray(v, dtype=complex)
    n = g.shape[0]
    m = min(_KRYLOV_M, n)
    if m >= n:
        n_sub = 1  # the Krylov space spans everything; one step is exact
    else:
        sup_norm = float(np.abs(g).sum(axis=1).max())
        n_sub = max(1, math.ceil(abs(tau) * sup_norm / (_KRYLOV_STEP_BUDGET * m)))
    while True:
        if n_sub > max_substeps:
            raise PropagationError(
                f"accuracy {tolerance:g} not reached within {max_substeps} substeps"
            )
        dt = tau / n_sub
        w = work
        err = 0.0
        for _ in range(n_sub):
            w, e = _lanczos_step(g, w, dt, m)
            err += e
            if err > tolerance:
                break
        if err <= tolerance:
            return w.real if real else w
        n_sub *= 2


def _matvec(a, x):
    """a @ x for a vector or a block of columns x.

    A real ``a`` meets a complex x as real columns; numpy would otherwise
    copy ``a`` to complex on every product.  A real ``a`` and an
    exactly-real x give an exactly-real result.
    """
    if np.iscomplexobj(a) or not np.iscomplexobj(x):
        return a @ x
    if not np.any(x.imag):
        return a @ x.real
    pairs = np.ascontiguousarray(x).view(float).reshape(x.shape[0], -1)
    return (a @ pairs).view(complex).reshape(x.shape)


def _scale_rows(d, x):
    """d[i] * x[i] for a vector or each row of a block of columns x."""
    return d.reshape((-1,) + (1,) * (x.ndim - 1)) * x


def _unit_columns(out, what):
    """out divided by its column norms, which must be 1 within 1e-10 (a
    non-finite column fails too)."""
    nrm = np.linalg.norm(out, axis=0)
    worst = np.max(np.abs(nrm - 1.0), initial=0.0)
    if not worst <= _EVOLVE_NORM_TOL:
        raise PropagationError(f"{what} norm deviates from 1 by {worst:.3e}")
    return np.asarray(out, dtype=complex) / nrm


def _spin_state(j, amplitudes) -> SpinState:
    return SpinState(j=j, amplitudes=amplitudes,
                     real_flag=bool(np.all(amplitudes.imag == 0.0)))


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
        """exp(-i t H) v.  An array t gives one column per t (v a vector);
        a scalar t may act on a block of columns v."""
        coeff = _matvec(self.vectors.T, _scale_rows(np.conj(self.phase), v))
        waves = np.exp(-1j * np.multiply.outer(self.values, t))
        waves = waves * coeff[:, None] if np.ndim(t) else _scale_rows(waves, coeff)
        out = _scale_rows(self.phase, _matvec(self.vectors, waves))
        return out.real if self.is_real and not np.any(np.imag(v)) else out

    def matrix(self, t):
        """exp(-i t H) = P (V cos V^T - i V sin V^T) P* as a dense matrix.  For a
        purely imaginary H the phases are (+-i)^k and the result is real: the cos
        part on even j-k, the sin part on odd j-k, from three half-size products."""
        vec, phase = self.vectors, self.phase
        cos, sin = np.cos(t * self.values), np.sin(t * self.values)
        if not self.is_real:
            core = (vec * cos) @ vec.T - 1j * ((vec * sin) @ vec.T)
            return phase[:, None] * core * np.conj(phase)
        even, odd, pe, po = vec[0::2], vec[1::2], phase[0::2], phase[1::2]
        mat = np.empty((len(phase), len(phase)))
        mat[0::2, 0::2] = (pe[:, None] * np.conj(pe)).real * ((even * cos) @ even.T)
        mat[1::2, 1::2] = (po[:, None] * np.conj(po)).real * ((odd * cos) @ odd.T)
        mat[0::2, 1::2] = (pe[:, None] * np.conj(po)).imag * ((even * sin) @ odd.T)
        mat[1::2, 0::2] = -mat[0::2, 1::2].T
        return mat


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


def _propagate_vector(g, v, tau, cfg: PropagatorConfig):
    """exp(g*tau) v by the configured oracle route, for a dense generator block g."""
    if cfg.method == "dense_expm":
        return scipy.linalg.expm(g * tau) @ v
    return _krylov_expm_action(g, v, tau, cfg.tolerance, int(cfg.max_substeps))


def evolve_many(state: SpinState, generator: BandedOperator, taus,
                cfg: PropagatorConfig = DEFAULT_CONFIG) -> np.ndarray:
    """exp(G*tau) applied to the state for every tau, as (dim, len(taus)) columns.

    The generator must act on the same spin J and every tau must be finite.
    A parity-preserving generator propagates each M-parity sector on its
    own, so an empty sector stays exactly zero.  Under "auto" the generator
    must also be skew-hermitian, and each non-empty sector costs one product
    with the cached eigensystem of H = iG there; the oracle methods
    propagate each tau separately.  Every column's norm is verified to 1
    within 1e-10 and divided out; a column that fails raises
    PropagationError rather than returning a silently inaccurate state.
    """
    if generator.j != state.j:
        raise ValueError(
            f"generator spin {generator.j} does not match state spin {state.j}"
        )
    taus = np.asarray(taus, dtype=float)
    if not np.all(np.isfinite(taus)):
        raise ValueError("tau must be finite")
    spectral = cfg.method == "auto"
    if spectral and not (generator.even_offsets_only
                         and generator.hermiticity_tag == SKEW_HERMITIAN):
        raise ValueError("method 'auto' takes only parity-preserving skew-hermitian "
                         "generators; use 'dense_expm' or 'krylov'")
    v, bands, zeros = state.amplitudes, generator.bands, np.zeros(state.dim)
    if not spectral:
        g = generator.to_dense()
        g = g.real if generator.is_real else g
    sectors = ((slice(0, None, 2), slice(1, None, 2)) if generator.even_offsets_only
               else (slice(None),))
    out = np.zeros((state.dim, len(taus)), dtype=complex)
    for sector in sectors:
        if not np.any(v[sector]):
            continue
        if spectral:
            # H = iG on this parity sector is tridiagonal: offsets 0 and 2 of G
            exp_h = _tridiagonal_exp((1j * bands.get(0, zeros)[sector]).real,
                                     1j * bands.get(2, zeros[2:])[sector])
            out[sector] = exp_h.apply(taus, v[sector])
        else:
            block = np.ascontiguousarray(g[sector, sector])
            for k, tau in enumerate(taus):
                out[sector, k] = _propagate_vector(block, v[sector], tau, cfg)
    if spectral:
        return _unit_columns(out, "propagated")
    # one column at a time, so each equals its own ``evolve`` bit for bit
    for column in out.T:
        column[:] = _unit_columns(column, "propagated")
    return out


def evolve(state: SpinState, generator: BandedOperator, tau,
           cfg: PropagatorConfig = DEFAULT_CONFIG) -> SpinState:
    """Apply exp(G*tau) to the state: ``evolve_many`` at the single time tau.

    tau = 0 returns the input unchanged once the arguments are checked.
    """
    amplitudes = evolve_many(state, generator, [tau], cfg)[:, 0]
    return state if tau == 0.0 else _spin_state(state.j, amplitudes)


def _axis_operator(j, axis) -> BandedOperator:
    axis = _axis_key(axis)
    if isinstance(axis, str):
        return build_operator(j, "J" + axis)
    lad = ladder_coefficients(j)
    bands = {
        0: axis[2] * m_values(j),
        1: (axis[0] / 2 - 0.5j * axis[1]) * lad,
        -1: (axis[0] / 2 + 0.5j * axis[1]) * lad,
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
    return _rotation_cache(validate_spin(j), _axis_key(axis), float(angle))


def _rotate_amplitudes(j, axis, angle, amplitudes):
    """exp(-i * angle * J_axis) on a vector or on each column of a block.

    Every result column is verified to unit norm within 1e-10.
    """
    if not math.isfinite(angle):
        raise ValueError("rotation angle must be finite")
    axis = _axis_key(axis)
    if axis == "z":
        # Jz is diagonal here; apply the phases exactly
        out = _scale_rows(np.exp(-1j * angle * m_values(j)), amplitudes)
    elif spin_dimension(j) <= _ROTATION_DENSE_LIMIT:
        out = _matvec(_rotation_matrix(j, axis, angle), amplitudes)
    else:
        out = _axis_exp(j, axis).apply(angle, amplitudes)
    return _unit_columns(out, "rotated")


def rotate(state: SpinState, axis, angle) -> SpinState:
    """Apply exp(-i * angle * J_axis); axis is "x", "y", "z" or a unit vector."""
    return _spin_state(state.j, _rotate_amplitudes(state.j, axis, angle, state.amplitudes))


@lru_cache(maxsize=_GENERATOR_CACHE_SIZE)
def _shared_generator(j, chi, gamma) -> BandedOperator:
    """tact_generator, built once per spin and parameters (it is immutable)."""
    return tact_generator(j, chi=chi, gamma=gamma)


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
    gen = _shared_generator(float(j), protocol.chi, protocol.gamma)
    evolved = evolve(initial, gen, tau, cfg)
    return rotate(evolved, protocol.rotation_axis, protocol.rotation_angle)


def make_sss_many(j, taus, protocol: TwistProtocol = DEFAULT_PROTOCOL,
                  cfg: PropagatorConfig = DEFAULT_CONFIG) -> np.ndarray:
    """``make_sss`` at every tau, as the (2J+1, len(taus)) amplitude columns.

    One ``evolve_many`` product and one rotation product for the block.
    """
    taus = np.asarray(taus, dtype=float)
    if not np.all(np.isfinite(taus) & (taus >= 0)):
        raise ValueError("tau must be nonnegative and finite")
    gen = _shared_generator(float(j), protocol.chi, protocol.gamma)
    evolved = evolve_many(basis_state(j, j), gen, taus, cfg)
    return _rotate_amplitudes(j, protocol.rotation_axis, protocol.rotation_angle, evolved)
