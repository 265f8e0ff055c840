"""Counter-twisting Hamiltonian, time propagation, and collective rotations.

Units: hbar = 1, so the evolution operator for the twisting generator G is
exp(G*tau) with G skew-hermitian and tau dimensionless when chi = 1.

``evolve_many`` is the one propagator, for parity-preserving skew-hermitian
generators (any other raises ValueError).  Each M-parity block of H = iG is
tridiagonal with one cached eigendecomposition H = P V diag(lam) V^T P* (unit
phase gauge P, ``scipy.linalg.eigh_tridiagonal``), so exp(-i t H) v =
P V (exp(-i lam t) * V^T P* v) for a whole vector of t in one product; an empty
block stays exactly zero.  Scans read the same cache for |J,J> alone
(``_twist_spectrum``): lam, B = P V and w = V^T P* e_0, whose norm is checked
once for every t, as |exp(-i lam t)| = 1.

Rotations need no eigensolve.  exp(-i pi/2 Jy) is the real Wigner matrix
Delta = d^J(pi/2), built once per J by a three-term recursion in O(J^2);
its columns are the Jx eigenvectors with the exact eigenvalues M, so every
other axis and angle is a phase-dressed product with Delta (see
``_rotation_cache``).  Rotation matrices are cached read-only.

Two independent oracles take any generator on the whole dense matrix; the
tests cross-check the propagator against them:

* ``dense_expm_evolve``: scaling-and-squaring (scipy; Moler & Van Loan,
  SIAM Rev. 45, 3 (2003)).
* ``krylov_evolve``: Lanczos exponential action (Hochbruck & Lubich,
  SINUM 34, 1911 (1997)) with full reorthogonalization and adaptive
  substepping, its substep error controlled through the residual estimate
  beta0 * beta_{m+1} * dt * |y_m|.  If the accumulated estimate cannot be
  brought below ``_KRYLOV_TOL`` within ``_KRYLOV_MAX_SUBSTEPS`` it fails
  loudly instead of returning an inaccurate state.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

# build_operator is unused here, but the bench tracer (perfbench/tracer.py)
# wraps it as dynamics.build_operator, and a missing attribute breaks every
# traced run
from .operators import (  # noqa: F401
    SKEW_HERMITIAN,
    BandedOperator,
    build_operator,
    ladder_coefficients,
    m_values,
    validate_spin,
)
from .states import SpinState, basis_state

_KRYLOV_M = 40
_KRYLOV_STEP_BUDGET = 0.3  # target ||G||*dt per substep, in units of m
_KRYLOV_TOL = 1e-10
_KRYLOV_MAX_SUBSTEPS = 4096
_EVOLVE_NORM_TOL = 1e-10
_EIGEN_CACHE_SIZE = 32  # twisting parity blocks: one per (J, chi, gamma) from |J,J>
_ROTATION_CACHE_SIZE = 32
_GENERATOR_CACHE_SIZE = 64

AXIS_LABELS = ("x", "y", "z")
_AXIS_VECTORS = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


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
    if not abs(np.linalg.norm(vec) - 1.0) <= 1e-12:  # NaN fails too
        raise ValueError("rotation axis vector must be normalized (1e-12)")
    return tuple(float(c) for c in vec)


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


def _krylov_expm_action(g, v, tau):
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
        if n_sub > _KRYLOV_MAX_SUBSTEPS:
            raise PropagationError(f"accuracy {_KRYLOV_TOL:g} not reached "
                                   f"within {_KRYLOV_MAX_SUBSTEPS} substeps")
        dt = tau / n_sub
        w = work
        err = 0.0
        for _ in range(n_sub):
            w, e = _lanczos_step(g, w, dt, m)
            err += e
            if err > _KRYLOV_TOL:
                break
        if err <= _KRYLOV_TOL:
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
    """exp(-i t H) for a Hermitian tridiagonal H (a parity block of the
    twisting generator), from one eigendecomposition.

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
        """exp(-i t H) v for every entry of the array t, one column per t."""
        coeff = _matvec(self.vectors.T, np.conj(self.phase) * v)
        waves = np.exp(-1j * np.multiply.outer(self.values, t)) * coeff[:, None]
        out = self.phase[:, None] * _matvec(self.vectors, waves)
        return out.real if self.is_real and not np.any(np.imag(v)) else out


@lru_cache(maxsize=_EIGEN_CACHE_SIZE)
def _cached_eigensystem(diag: bytes, upper: bytes) -> _TridiagonalExp:
    return _TridiagonalExp(np.frombuffer(diag), np.frombuffer(upper, dtype=complex))


def _sector_eigensystem(generator: BandedOperator, sector: slice) -> _TridiagonalExp:
    """The cached eigensystem of H = iG, tridiagonal, on one parity sector of G."""
    zeros = np.zeros(generator.dim)
    diag = (1j * generator.bands.get(0, zeros)[sector]).real
    upper = 1j * generator.bands.get(2, zeros[2:])[sector]
    return _cached_eigensystem(diag.tobytes(), upper.tobytes())


def _checked_taus(state: SpinState, generator: BandedOperator, taus) -> np.ndarray:
    """taus as a 1-D float array, once the generator's spin matches the
    state's and every tau is finite."""
    if generator.j != state.j:
        raise ValueError(f"generator spin {generator.j} does not match state spin {state.j}")
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1:
        raise ValueError(f"taus must be a 1-D sequence of times, got shape {taus.shape}")
    if not np.all(np.isfinite(taus)):
        raise ValueError("tau must be finite")
    return taus


def evolve_many(state: SpinState, generator: BandedOperator, taus) -> np.ndarray:
    """exp(G*tau) applied to the state for every tau, as (dim, len(taus)) columns.

    The generator must act on the same spin J, be skew-hermitian and couple
    only M <-> M+-2; every tau must be finite.  Each non-empty M-parity
    sector costs one product with the cached eigensystem of H = iG there,
    and an empty sector stays exactly zero.  Every column's norm is
    verified to 1 within 1e-10 and divided out; a column that fails raises
    PropagationError rather than returning a silently inaccurate state.
    """
    taus = _checked_taus(state, generator, taus)
    if not (generator.even_offsets_only and generator.hermiticity_tag == SKEW_HERMITIAN):
        raise ValueError("evolve_many takes only parity-preserving skew-hermitian "
                         "generators; the oracles dense_expm_evolve and "
                         "krylov_evolve take any")
    v = state.amplitudes
    out = np.zeros((state.dim, len(taus)), dtype=complex)
    for sector in (slice(0, None, 2), slice(1, None, 2)):
        if np.any(v[sector]):
            out[sector] = _sector_eigensystem(generator, sector).apply(taus, v[sector])
    return _unit_columns(out, "propagated")


def evolve(state: SpinState, generator: BandedOperator, tau) -> SpinState:
    """Apply exp(G*tau) to the state: ``evolve_many`` at the single time tau.

    tau = 0 returns the input unchanged once the arguments are checked.
    """
    amplitudes = evolve_many(state, generator, [tau])[:, 0]
    return state if tau == 0.0 else _spin_state(state.j, amplitudes)


def _oracle_evolve(state, generator, tau, action) -> SpinState:
    """action(g, v, tau) = exp(tau*g) v on the whole dense generator, with
    the checks of ``evolve_many``; any generator is taken."""
    tau = _checked_taus(state, generator, [tau])[0]
    g = generator.to_dense()
    out = action(g.real if generator.is_real else g, state.amplitudes, tau)
    return _spin_state(state.j, _unit_columns(out, "propagated"))


def dense_expm_evolve(state: SpinState, generator: BandedOperator, tau) -> SpinState:
    """Oracle: exp(G*tau) applied to the state by scaling-and-squaring."""
    return _oracle_evolve(state, generator, tau,
                          lambda g, v, t: scipy.linalg.expm(g * t) @ v)


def krylov_evolve(state: SpinState, generator: BandedOperator, tau) -> SpinState:
    """Oracle: exp(G*tau) applied to the state by a substepped Lanczos action."""
    return _oracle_evolve(state, generator, tau, _krylov_expm_action)


def _wigner_quarter(two_j):
    """Delta = d^J(pi/2) = exp(-i pi/2 Jy) for spin two_j/2, in O(J^2).

    Column k is the Jx eigenvector with eigenvalue M' = J - k (Edmonds 1957).
    Its three-term recursion runs from the edge row inward, where the
    amplitudes grow, and d_{-M,M'} = (-1)^(J-M') d_{M,M'} gives the lower
    half.  The exact edge row sqrt(C(2J, k)) / 2^J underflows past J ~ 1000,
    so each column starts from its sign, is rescaled past 1e150, and is
    normalized at the end."""
    n = two_j + 1
    lad = np.concatenate(([0.0], ladder_coefficients(two_j / 2)))  # lad[i] couples i-1, i
    twice_m = two_j - 2.0 * np.arange(n)
    sign = 1.0 - 2.0 * (np.arange(n) % 2)  # (-1)^(J-M')
    top = (n + 1) // 2  # the rows with M >= 0
    delta = np.zeros((n, n))  # row -1 stays zero until the loop ends
    delta[0] = sign
    for i in range(top - 1):
        delta[i + 1] = (twice_m * delta[i] - lad[i] * delta[i - 1]) / lad[i + 1]
        delta[: i + 2, np.abs(delta[i + 1]) > 1e150] *= 1e-150
    if n % 2:
        delta[top - 1] *= sign > 0  # d_{0,M'} vanishes for odd J - M'
    np.multiply(delta[n // 2 - 1::-1], sign, out=delta[top:])
    delta /= np.sqrt(np.einsum("ij,ij->j", delta, delta))
    return delta


def _x_rotation(quarter, m, angle):
    """exp(-i angle Jx) = Delta diag(exp(-i angle M)) Delta^T from three half-size
    products: Jx flips the parity of M, so cos fills even a-b, -i sin odd a-b."""
    cos, sin = np.cos(angle * m), np.sin(angle * m)
    even, odd = quarter[0::2], quarter[1::2]
    mat = np.empty((len(m), len(m)), dtype=complex)
    mat[0::2, 0::2] = (even * cos) @ even.T
    mat[1::2, 1::2] = (odd * cos) @ odd.T
    mat[0::2, 1::2] = -1j * ((even * sin) @ odd.T)
    mat[1::2, 0::2] = mat[0::2, 1::2].T
    return mat


@lru_cache(maxsize=_ROTATION_CACHE_SIZE)
def _rotation_cache(two_j, axis, angle):
    """exp(-i * angle * J_axis) for spin two_j/2, shared read-only.

    Delta = exp(-i pi/2 Jy) is the ("y", pi/2) entry.  An axis at polar
    angle theta and azimuth phi gives P V diag(exp(-i angle M)) V^T P* with
    V = d(theta) (Delta in the xy-plane) and P = exp(i phi k), k = J - M;
    for y, P = i^k exactly, so the matrix is exactly real.
    """
    if axis == "y" and angle == math.pi / 2:
        mat = _wigner_quarter(two_j)
    else:
        x, y, z = _AXIS_VECTORS.get(axis, axis)
        t = angle * math.hypot(x, y, z)  # a vector axis may miss unit length by 1e-12
        m, k = two_j / 2 - np.arange(two_j + 1), np.arange(two_j + 1)
        vec = _rotation_cache(two_j, "y", math.atan2(math.hypot(x, y), z))
        if z == 0:
            core = _x_rotation(vec, m, t)
        else:
            core = (vec * np.cos(t * m)) @ vec.T - 1j * ((vec * np.sin(t * m)) @ vec.T)
        phase = (np.array([1, 1j, -1, -1j])[k % 4] if axis == "y"
                 else np.exp(1j * math.atan2(y, x) * k))
        mat = phase[:, None] * core * np.conj(phase)
        mat = np.ascontiguousarray(mat.real) if axis == "y" else mat
    mat.flags.writeable = False
    return mat


def _rotation_key(axis, angle):
    """The rotation exp(-i angle n.J) as (label, angle) when n lies along a
    coordinate axis, so y-like vectors get the real y matrix, else as given."""
    axis = _axis_key(axis)
    if isinstance(axis, tuple) and np.count_nonzero(axis) == 1:
        k = int(np.flatnonzero(axis)[0])
        return AXIS_LABELS[k], angle * axis[k]
    return axis, angle


def _rotation_matrix(j, axis, angle):
    """Cached exp(-i * angle * J_axis); real for y-like axes."""
    return _rotation_cache(validate_spin(j), *_rotation_key(axis, float(angle)))


def rotate(state: SpinState, axis, angle) -> SpinState:
    """Apply exp(-i * angle * J_axis); axis is "x", "y", "z" or a unit vector.

    The result is verified to unit norm within 1e-10.
    """
    if not math.isfinite(angle):
        raise ValueError("rotation angle must be finite")
    axis, angle = _rotation_key(axis, float(angle))
    if axis == "z":
        # Jz is diagonal here; apply the phases exactly
        out = np.exp(-1j * angle * m_values(state.j)) * state.amplitudes
    else:
        out = _matvec(_rotation_cache(validate_spin(state.j), axis, angle), state.amplitudes)
    return _spin_state(state.j, _unit_columns(out, "rotated"))


@lru_cache(maxsize=_GENERATOR_CACHE_SIZE)
def _shared_generator(j, chi, gamma) -> BandedOperator:
    """tact_generator, built once per spin and parameters (it is immutable)."""
    return tact_generator(j, chi=chi, gamma=gamma)


def _twist_spectrum(j, chi, gamma):
    """(lam, B, w) on the parity sector of |J,J>, exp(G tau)|J,J> = B (w * exp(-i lam
    tau)) there and 0 off it, for G = tact_generator(j, chi, gamma).  The norm is
    checked once for every tau: |w| = 1 and B w = e_0 within 1e-10, else
    PropagationError."""
    eig = _sector_eigensystem(_shared_generator(float(j), chi, gamma), slice(0, None, 2))
    basis = eig.phase[:, None] * eig.vectors
    coeffs = np.conj(eig.phase[0]) * eig.vectors[0]
    drift = basis @ coeffs - (np.arange(len(coeffs)) == 0)
    worst = max(abs(np.linalg.norm(coeffs) - 1.0), np.max(np.abs(drift)))
    if not worst <= _EVOLVE_NORM_TOL:
        raise PropagationError(f"twisted |J,J> at J={j} is off by {worst:.3e} in its eigenbasis")
    return eig.values, basis, coeffs


def make_sss(j, tau=None, protocol: TwistProtocol = DEFAULT_PROTOCOL) -> SpinState:
    """Squeeze |J,J> for time tau, then apply the protocol rotation.

    This is the canonical post-rotation squeezed state the squeezing
    metrics are defined on; scans score them on the twisted state before
    the rotation instead (see ``scan``).  tau defaults to protocol.tau.
    """
    if tau is None:
        tau = protocol.tau
    if not (tau >= 0 and math.isfinite(tau)):
        raise ValueError("tau must be nonnegative and finite")
    initial = basis_state(j, j)
    gen = _shared_generator(float(j), protocol.chi, protocol.gamma)
    evolved = evolve(initial, gen, tau)
    return rotate(evolved, protocol.rotation_axis, protocol.rotation_angle)
