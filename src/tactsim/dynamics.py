"""Counter-twisting Hamiltonian, time propagation, and collective rotations.

Units: hbar = 1, so the evolution operator for the twisting generator G is
exp(G*tau) with G skew-hermitian and tau dimensionless when chi = 1.

``evolve`` is the one general propagator, for parity-preserving skew-hermitian
generators with no diagonal band (any other raises ValueError).  Each M-parity
block of H = iG has one cached eigendecomposition H = P V diag(lam) V^T P* (unit
phase gauge P, ``_bipartite_eigh``), so exp(-i t H) v = P V (exp(-i lam t) *
V^T P* v) is two products with V; an empty block stays exactly zero.  A twisted
|J,J> has one cached form instead, per (J, chi, gamma) (``_twist_spectrum``):
modes = P V diag(w) on the modes |J,J> occupies (117 of 401 at J=400), w = V^T P*
e_0 being V's first row there, so each state is the one product
modes @ exp(-i lam t), for scans and ``make_sss`` alike.

Rotations need no eigensolve and no rotation matrix.  exp(-i pi/2 Jy) is the
real Wigner matrix Delta = d^J(pi/2), built in O(J^2) by a three-term recursion
and stored as its top rows (M >= 0), one block of at most (J+1) x (J+1) per
column parity, each cached on first use (``_wigner_block``).  Rows -M are rows
M times (-1)^(J-M'), so ``_quarter_turn`` and ``_quarter_turn_t`` get the
bottom half from the same products, and build no block for a parity sector of
the vector (or fold of it) that is all zero.  The twisted |J,J> fills one
sector and the M-symmetric EWSS and twin-Fock have a zero odd fold, so
``make_sss`` and every scan use the even block alone.  ``rotate`` turns by any
angle about "x", "y" or "z" only, as diagonal phases Rz(a) = exp(-i a Jz) and
products with Delta and Delta^T: about y through ``_y_turn``, about x as
Delta Rz(a) Delta^T, in O(J^2) time and O(J) memory beyond Delta's two blocks.

The tests cross-check the propagator against two oracles that take any
generator on its whole dense matrix (``tests/oracles.py``).
"""

import math
from functools import lru_cache

import numpy as np

# build_operator is unused here, but the bench tracer (perfbench/tracer.py)
# wraps it as dynamics.build_operator, and a missing attribute breaks every
# traced run
from .operators import (  # noqa: F401
    BandedOperator,
    build_operator,
    ladder_coefficients,
    m_values,
    spin_dimension,
    validate_spin,
)
from .states import SpinState

_EVOLVE_NORM_TOL = 1e-10
_WINDOW_TAIL = 1e-14  # norm of the |J,J> coefficients a mode window may drop
_EIGEN_CACHE_SIZE = 32  # twisting parity blocks, and twisted |J,J> forms, one per (J, chi, gamma)
_WIGNER_CACHE_SIZE = 32  # Delta blocks (_wigner_block): one per J and column parity

AXIS_LABELS = ("x", "y", "z")


class PropagationError(RuntimeError):
    """Propagation could not reach the requested accuracy."""


def tact_generator(j, chi=1.0, gamma=0.0) -> BandedOperator:
    """G = -i H / hbar = -(chi/2) (e^{-2i gamma} J+^2 - e^{2i gamma} J-^2).

    Skew-hermitian with bandwidth 2 by construction (its lower band is minus
    the conjugate of the upper); real antisymmetric when gamma = 0.
    """
    validate_spin(j)
    if not (chi > 0 and math.isfinite(chi)):
        raise ValueError("chi must be positive and finite")
    if not math.isfinite(gamma):
        raise ValueError("gamma must be finite")
    lad = ladder_coefficients(j)
    upper = -(chi / 2) * (np.exp(-2j * gamma) if gamma else 1.0) * (lad[:-1] * lad[1:])
    return BandedOperator(j, {2: upper, -2: -np.conj(upper)})


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
    return (a @ pairs).view(complex).reshape((a.shape[0],) + x.shape[1:])


def _unit_columns(out, what):
    """out divided by its column norms, which must be 1 within 1e-10 (a
    non-finite column fails too)."""
    nrm = np.linalg.norm(out, axis=0)
    worst = np.max(np.abs(nrm - 1.0), initial=0.0)
    if not worst <= _EVOLVE_NORM_TOL:
        raise PropagationError(f"{what} norm deviates from 1 by {worst:.3e}")
    return np.asarray(out, dtype=complex) / nrm


def _bipartite_eigh(mag):
    """Ascending eigenvalues and orthonormal eigenvectors of the symmetric tridiagonal T with
    zero diagonal and off-diagonal mag, from numpy's SVD U diag(s) W^T of its even-odd block
    B = T[0::2, 1::2] (Golub & Kahan, SIAM J. Numer. Anal. B 2, 205 (1965)): [u; +-w]/sqrt(2)
    on the even and odd rows is an eigenvector at +-s, and for odd n [U's last column; 0] at 0."""
    n, q = len(mag) + 1, (len(mag) + 1) // 2
    block = np.zeros((n - q, q))  # lower bidiagonal
    block.flat[:: q + 1], block.flat[q:: q + 1] = mag[0::2], mag[1::2]
    u, s, wt = np.linalg.svd(block)
    vectors = np.zeros((n, n))
    even, odd = vectors[0::2], vectors[1::2]  # views; columns at -s, 0 (odd n), +s
    np.multiply(u[:, :q], math.sqrt(0.5), out=even[:, :q])
    np.multiply(wt.T, -math.sqrt(0.5), out=odd[:, :q])
    even[:, q: n - q] = u[:, q:]
    even[:, n - q:], odd[:, n - q:] = even[:, :q][:, ::-1], -odd[:, :q][:, ::-1]
    return np.concatenate((-s, np.zeros(n - 2 * q), s[::-1])), vectors


def _tridiagonal_eigensystem(upper):
    """Read-only (phase, lam, V) of a Hermitian tridiagonal H with zero diagonal (a
    parity block of the twisting generator) and upper band e: H = P T P* with unit
    phases P such that T has off-diagonal |e|, and T = V diag(lam) V^T
    (``_bipartite_eigh``)."""
    mag = np.abs(upper)
    unit = np.ones(len(upper), dtype=complex)
    nonzero = mag > 0
    unit[nonzero] = np.conj(upper[nonzero]) / mag[nonzero]
    phase = np.cumprod(np.concatenate(([1.0 + 0j], unit)))
    system = (phase / np.abs(phase), *_bipartite_eigh(mag))  # |p_k| = 1 to round-off
    for arr in system:
        arr.flags.writeable = False
    return system


@lru_cache(maxsize=_EIGEN_CACHE_SIZE)
def _cached_eigensystem(upper: bytes):
    return _tridiagonal_eigensystem(np.frombuffer(upper, dtype=complex))


def _single_time(tau) -> float:
    """tau as a float, once it is one finite time."""
    tau = np.asarray(tau, dtype=float)
    if tau.ndim:
        raise ValueError(f"tau must be a single time, got shape {tau.shape}")
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    return float(tau)


def _checked_tau(state: SpinState, generator: BandedOperator, tau) -> float:
    """tau as a float, once the generator's spin matches the state's and tau is
    one finite time."""
    if generator.j != state.j:
        raise ValueError(f"generator spin {generator.j} does not match state spin {state.j}")
    return _single_time(tau)


def evolve(state: SpinState, generator: BandedOperator, tau) -> SpinState:
    """Apply exp(G*tau) to the state.

    The generator must act on the same spin J, be skew-hermitian and couple
    only M <-> M+-2, with no diagonal band; tau must be one finite time.  Each
    non-empty M-parity sector costs one product with the cached eigensystem of
    H = iG there, and an empty sector stays exactly zero.  The norm is verified
    to 1 within 1e-10 and divided out, else PropagationError.  tau = 0 returns
    the input unchanged once the arguments are checked.
    """
    tau = _checked_tau(state, generator, tau)
    if not (generator.even_offsets_only and generator.is_symmetric(-1)
            and not np.any(generator.bands.get(0, 0))):
        raise ValueError("evolve takes only parity-preserving skew-hermitian "
                         "generators with no diagonal band; the test oracles "
                         "dense_expm_evolve and krylov_evolve (tests/oracles.py) take any")
    v = state.amplitudes
    out = np.zeros(state.dim, dtype=complex)
    for sector in (slice(0, None, 2), slice(1, None, 2)):
        if np.any(v[sector]):
            upper = 1j * generator.bands.get(2, np.zeros(state.dim - 2))[sector]
            phase, lam, vectors = _cached_eigensystem(upper.tobytes())
            coeff = _matvec(vectors.T, np.conj(phase) * v[sector])
            block = phase * _matvec(vectors, np.exp(-1j * (lam * tau)) * coeff)
            real = not (np.any(upper.real) or np.any(v[sector].imag))  # exp(-i t H) real
            out[sector] = block.real if real else block
    amplitudes = _unit_columns(out, "propagated")
    return state if tau == 0.0 else SpinState(state.j, amplitudes)


@lru_cache(maxsize=_WIGNER_CACHE_SIZE)
def _wigner_block(two_j, parity):
    """The top rows (M >= 0) of Delta = d^J(pi/2) = exp(-i pi/2 Jy) for spin two_j/2
    on its columns k = J - M' of one parity, as a read-only C-contiguous square block.

    Column k is the Jx eigenvector with eigenvalue M' = J - k (Edmonds 1957).  Its
    three-term recursion runs from the edge row inward, where the amplitudes grow, and
    is independent of the other columns; the rows M < 0 are the mirror d_{-M,M'} =
    (-1)^(J-M') d_{M,M'} and are never stored (``_quarter_turn``), nor is the M = 0 row
    of the odd block, as d_{0,M'} vanishes for odd J - M'.  The exact edge row
    sqrt(C(2J, k)) / 2^J underflows past J ~ 1000, so each column starts from its sign,
    is rescaled past 1e150, and is normalized over both halves."""
    n = two_j + 1
    top = (n + 1) // 2
    lad = np.concatenate(([0.0], ladder_coefficients(two_j / 2)))  # lad[i] couples i-1, i
    twice_m = two_j - 2.0 * np.arange(parity, n, 2)
    rows = np.zeros((top, len(twice_m)))  # row -1 stays zero until the loop ends
    rows[0] = 1 - 2 * parity  # (-1)^(J-M')
    for i in range(top - 1):
        rows[i + 1] = (twice_m * rows[i] - lad[i] * rows[i - 1]) / lad[i + 1]
        big = np.abs(rows[i + 1]) > 1e150
        if big.any():
            rows[: i + 2, big] *= 1e-150
    if n % 2 and parity:
        rows[top - 1] = 0.0
    # the mirror counts every row twice but the M = 0 row
    rows /= np.sqrt(2 * np.einsum("ij,ij->j", rows, rows) - (n % 2) * rows[top - 1] ** 2)
    block = np.ascontiguousarray(rows[: n // 2 if parity else top])
    block.flags.writeable = False
    return block


def _quarter_turn(two_j, v):
    """Delta v for a vector or a block of columns v, from Delta's blocks.

    Row -M is row M times (-1)^(J-M'), so the top rows take even + odd and the
    bottom rows even - odd, mirrored; a parity sector of v that is all zero
    costs nothing, and its block is not built."""
    prods = [(_matvec(_wigner_block(two_j, p), v[p::2]), mirror)
             for p, mirror in ((0, np.add), (1, np.subtract)) if np.any(v[p::2])]
    out = np.zeros(v.shape, np.result_type(float, *(prod for prod, _ in prods)))
    bottom = out[: two_j // 2: -1]
    for prod, mirror in prods:
        out[: len(prod)] += prod
        mirror(bottom, prod[: len(bottom)], out=bottom)
    return out


def _quarter_turn_t(two_j, v):
    """Delta^T v for a vector or a block of columns v, from Delta's blocks: v's
    halves fold into v_M + v_-M for the even columns and v_M - v_-M, M > 0, for
    the odd ones; a fold that is all zero (the odd one of an M-symmetric v)
    costs nothing, and its block is not built."""
    top = two_j // 2 + 1
    head, tail = v[:top], np.zeros_like(v[:top])
    tail[: len(v) - top] = v[: top - 1: -1]
    prods = [(p, _matvec(_wigner_block(two_j, p).T, fold))
             for p, fold in enumerate((head + tail, (head - tail)[: len(v) - top]))
             if np.any(fold)]
    out = np.zeros(v.shape, np.result_type(float, *(prod for _, prod in prods)))
    for p, prod in prods:
        out[p::2] = prod
    return out


def _y_turn(two_j, beta, v):
    """exp(-i beta Jy) v = P Delta Rz(beta) Delta^T P* v, with Rz(beta) =
    exp(-i beta Jz) and P = i^(J-M), which is Rz(pi/2) up to a global phase
    that cancels: exactly Delta v at beta = pi/2 and Delta^T v at -pi/2."""
    if beta == math.pi / 2:
        return _quarter_turn(two_j, v)
    if beta == -math.pi / 2:
        return _quarter_turn_t(two_j, v)
    phase = np.array([1, 1j, -1, -1j])[np.arange(two_j + 1) % 4]
    turned = np.exp(-1j * beta * m_values(two_j / 2)) * _quarter_turn_t(two_j, np.conj(phase) * v)
    return phase * _quarter_turn(two_j, turned)


def rotate(state: SpinState, axis, angle) -> SpinState:
    """Apply exp(-i * angle * J_axis) about the axis "x", "y" or "z".

    About z the phases Rz(angle) = exp(-i angle Jz) are exact; about y the real and
    imaginary parts are turned apart (``_y_turn``), so a real state stays real; about
    x, exp(-i angle Jx) = Delta Rz(angle) Delta^T, as Delta Jz Delta^T = Jx.  No
    rotation matrix is built, and the result is verified to unit norm within 1e-10.
    """
    if not (isinstance(axis, str) and axis in AXIS_LABELS):
        raise ValueError(f"rotation axis must be one of {AXIS_LABELS}, got {axis!r}")
    if not math.isfinite(angle):
        raise ValueError("rotation angle must be finite")
    j, v, angle, two_j = state.j, state.amplitudes, float(angle), validate_spin(state.j)
    if axis == "z":  # Jz is diagonal here; apply the phases exactly
        out = np.exp(-1j * angle * m_values(j)) * v
    elif axis == "y":  # exp(-i angle Jy) is real: turn the real and imaginary parts apart
        out = _y_turn(two_j, angle, v.real).real + 1j * _y_turn(two_j, angle, v.imag).real
    else:
        out = _quarter_turn(two_j, np.exp(-1j * angle * m_values(j)) * _quarter_turn_t(two_j, v))
    return SpinState(j, _unit_columns(out, "rotated"))


@lru_cache(maxsize=_EIGEN_CACHE_SIZE)
def _twist_spectrum(j, chi, gamma):
    """Read-only (lam, modes, real): exp(G tau)|J,J> = modes @ exp(-i lam tau) on the
    parity sector of |J,J> (0 off it), G = tact_generator(j, chi, gamma), and whether G
    is real.  The eigensystem (phase, lam, V) of H = iG there is solved uncached and kept on
    the modes |J,J> occupies, the least |w_k| of w = V^T P* e_0 = V's first row dropped
    while their norm stays within 1e-14; modes = P V diag(w), column k being mode k's
    share of |J,J>.  Checked once for every tau, as |exp(-i lam tau)| = 1: |w| = 1 and
    |modes 1 - e_0| within 1e-10, else PropagationError."""
    upper = 1j * tact_generator(j, chi, gamma).bands[2][0::2]
    phase, lam, vectors = _tridiagonal_eigensystem(upper)
    coeffs = vectors[0]
    order = np.argsort(np.abs(coeffs))
    keep = np.sort(order[np.cumsum(coeffs[order] ** 2) > _WINDOW_TAIL**2])
    lam, coeffs = lam[keep], coeffs[keep]
    # (P V) diag(w); made first, so that the temporary V[:, keep] leaves no heap hole below it
    modes = np.empty((len(phase), len(keep)), dtype=complex)
    np.multiply(phase[:, None], vectors[:, keep], out=modes)
    modes *= coeffs
    for arr in (lam, modes):
        arr.flags.writeable = False
    drift = modes.sum(axis=1) - (np.arange(len(phase)) == 0)
    worst = max(abs(np.linalg.norm(coeffs) - 1.0), np.linalg.norm(drift))
    if not worst <= _EVOLVE_NORM_TOL:
        raise PropagationError(f"twisted |J,J> at J={j} is off by {worst:.3e} in its eigenbasis")
    return lam, modes, not np.any(upper.real)


def make_sss(j, tau, chi=1.0, gamma=0.0) -> SpinState:
    """Squeeze |J,J> for time tau under tact_generator(j, chi, gamma), then turn
    it by pi/2 about y (Kitagawa & Ueda, PRA 47, 5138 (1993)).

    This is the canonical post-rotation squeezed state the squeezing
    metrics are defined on; scans score them on the twisted state before
    the rotation instead (see ``scan``).  The twisted state is one product,
    modes @ exp(-i lam tau), on the cached ``_twist_spectrum`` (its real part when
    the generator is real), turned as amplitudes by Delta (``_quarter_turn``), each
    verified to unit norm; one state is built.
    """
    tau = _single_time(tau)
    if tau < 0:
        raise ValueError("tau must be nonnegative and finite")
    lam, modes, real = _twist_spectrum(j, chi, gamma)
    twisted = np.eye(spin_dimension(j), 1, dtype=complex)[:, 0]  # |J,J>, exact at tau = 0
    if tau:
        sector = modes @ np.exp(-1j * tau * lam)
        twisted[0::2] = sector.real if real else sector
    twisted = _unit_columns(twisted, "propagated")
    return SpinState(j, _unit_columns(_quarter_turn(validate_spin(j), twisted), "rotated"))
