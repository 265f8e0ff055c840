"""Scalar and distribution-valued metrics on spin states.

Includes state fidelity, the Jz probability distribution, the
coherent-state quasi-probability distribution (QPD) over the sphere,
first and second spin moments, and the Fisher-information/Cramer-Rao
field-estimation bounds derived from them.
"""

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.fft  # noqa: F401  (numpy would load it inside the first qpd)

# build_operator is unused here, but the bench tracer (perfbench/tracer.py) wraps it
# as observables.build_operator, and a missing attribute breaks every traced run
from .operators import build_operator, ladder_products, m_values, validate_spin  # noqa: F401
from .states import SpinState, css_magnitudes

_VARIANCE_ROUND_OFF = 64 * np.finfo(float).eps  # per unit of max(1, <J_a^2>)

def fidelity(a: SpinState, b: SpinState) -> float:
    """|<a|b>|^2; symmetric and invariant under global phases."""
    if a.j != b.j:
        raise ValueError(f"states have different spins: {a.j} vs {b.j}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def prob_distribution(state: SpinState) -> np.ndarray:
    """P(M) = |<J,M|state>|^2, indexed like the amplitudes (descending M)."""
    amps = state.amplitudes
    return amps.real**2 + amps.imag**2


@dataclass(frozen=True)
class SpinMoments:
    mean: np.ndarray  # (<Jx>, <Jy>, <Jz>)
    variance_z: float
    variance_y: float


def spin_moments(state: SpinState) -> SpinMoments:
    """First moments of (Jx, Jy, Jz) and the variances of Jz and Jy, from the ladder
    products (J+ v, J- v).  A variance below zero by round-off (down to -64 eps max(1,
    <J_a^2>)) is 0; one lower, or not finite, raises ValueError naming axis and value."""
    v = state.amplitudes
    up, down = ladder_products(state.j, v)
    means, var = [], {}
    for axis, ov in (("x", (up + down) / 2), ("y", (up - down) * -0.5j),
                     ("z", m_values(state.j) * v)):
        means.append(float(np.vdot(v, ov).real))
        if axis in ("y", "z"):
            second = float(np.vdot(ov, ov).real)
            var[axis] = second - means[-1] ** 2
            if not var[axis] >= -_VARIANCE_ROUND_OFF * max(1.0, second):
                raise ValueError(f"variance of J{axis} is {var[axis]!r}, not >= 0 within round-off")
    return SpinMoments(mean=np.array(means), variance_z=max(var["z"], 0.0),
                       variance_y=max(var["y"], 0.0))


@dataclass(frozen=True, eq=False)
class QpdGrid:
    """|<CSS(phi, theta)|state>|^2 on a uniform grid.

    phi runs over [0, 2pi) (n_phi points, half-open) and theta over
    [0, pi] (n_theta points, endpoints included).  values has shape
    (n_phi, n_theta).
    """

    j: float
    phis: np.ndarray
    thetas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("phis", "thetas", "values"):
            arr = np.asarray(getattr(self, name), dtype=float)  # a JSON null reads as NaN
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.values.shape != (len(self.phis), len(self.thetas)):
            raise ValueError("QPD value matrix does not match the grid")
        if not (self.values.min() >= -1e-12 and self.values.max() <= 1.0 + 1e-12):  # NaN too
            raise ValueError("QPD values must lie in [0, 1]")

    @property
    def n_phi(self) -> int:
        return len(self.phis)

    @property
    def n_theta(self) -> int:
        return len(self.thetas)

    def value_at(self, phi, theta) -> float:
        """Value at the grid node nearest to (phi, theta); phi wraps modulo 2 pi, and a
        non-finite phi or a theta outside [0, pi] raises ValueError."""
        if not math.isfinite(phi):
            raise ValueError(f"phi must be finite, got {phi!r}")
        if not 0.0 <= theta <= math.pi:  # NaN fails too
            raise ValueError(f"theta must lie in [0, pi], got {theta!r}")
        ip = int(np.argmin(np.abs((self.phis - phi + math.pi) % (2 * math.pi) - math.pi)))
        it = int(np.argmin(np.abs(self.thetas - theta)))
        return float(self.values[ip, it])


@lru_cache(maxsize=8)
def _grid_axes(n_phi, n_theta):
    """(phis, thetas) of the QPD grid, built once per size and shared read-only."""
    axes = 2 * math.pi * np.arange(n_phi) / n_phi, np.linspace(0.0, math.pi, n_theta)
    for arr in axes:
        arr.flags.writeable = False
    return axes


@lru_cache(maxsize=8)
def _css_table(two_j, n_theta):
    """css_magnitudes of spin two_j/2 on the QPD theta grid, theta-major: one
    C-contiguous row of 2J+1 magnitudes per theta, shared read-only."""
    mags = np.ascontiguousarray(css_magnitudes(two_j / 2, np.linspace(0.0, math.pi, n_theta)).T)
    mags.flags.writeable = False
    return mags


def qpd(state: SpinState, n_phi: int = 360, n_theta: int = 180) -> QpdGrid:
    """Quasi-probability distribution of the state over the Bloch sphere.

    The overlap with CSS(phi, theta) is a polynomial in e^{-i phi} with
    theta-dependent coefficients, so each theta row is evaluated for all phi
    at once by an FFT along it.  The coherent-state magnitudes are cached per
    (J, n_theta), one contiguous row per theta (``_css_table``); the rows'
    coefficients fold modulo n_phi in one pass, real and imaginary parts apart,
    and |.|^2 is written into the (n_phi, n_theta) values transposed.  When
    every amplitude is real (any SSS with gamma = 0, the EWSS, a CSS with
    alpha = 0), a real FFT gives phi in [0, pi] and Q(-phi, theta) = Q(phi,
    theta) mirrors the rest.  If also a_-M = a_M exactly (the default-protocol
    SSS, the EWSS), Q(phi, pi - theta) = Q(phi, theta): the first
    ceil(n_theta/2) rows are computed and mirrored.
    """
    for name, size in (("n_phi", n_phi), ("n_theta", n_theta)):
        if not isinstance(size, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {size!r}")
    if n_phi < 2 or n_theta < 2:
        raise ValueError("grid resolutions must be at least 2")
    n = validate_spin(state.j) + 1
    amps = state.amplitudes
    real = not np.any(amps.imag)
    parts = amps.real[None] if real else np.stack((amps.real, amps.imag))
    half = (n_theta + 1) // 2 if real and np.array_equal(parts, parts[:, ::-1]) else n_theta
    mags = _css_table(n - 1, n_theta)[:half]  # (theta, k)
    values = np.empty((n_phi, n_theta))
    # a real fold lives in the output's buffer until the FFT has read it; a complex one
    # is the real and imaginary parts of the FFT's input, which it transforms in place
    source = values if real else np.empty((half, n_phi), complex)
    folded = source.reshape(-1).view(float)[: len(parts) * half * n_phi]
    folded = folded.reshape(half, n_phi, len(parts)).transpose(2, 0, 1)  # (part, theta, phi)
    width = min(n, n_phi)
    whole = n // width * width  # k in whole blocks of width; the rest adds after
    np.einsum("tbr,cbr->ctr", mags[:, :whole].reshape(half, -1, width),
              parts[:, :whole].reshape(len(parts), -1, width), out=folded[..., :width])
    folded[..., : n - whole] += mags[:, whole:] * parts[:, None, whole:]
    folded[..., width:] = 0.0  # zero-padded here, which is cheaper than by the FFT
    squares = (np.fft.rfft(folded[0]) if real else np.fft.fft(source, out=source)).view(float)
    squares *= squares  # |.|^2 in place, summed into the real parts' slots
    power = squares[:, 0::2]  # (theta, phi)
    np.add(power, squares[:, 1::2], out=power)
    np.minimum(power, 1.0, out=power)  # a sum of squares needs no clip at 0
    rows = power.shape[1]
    values[:rows, :half] = power.T
    values[:rows, half:] = power[: n_theta - half][::-1].T  # Q(phi, pi - theta)
    values[rows:] = values[n_phi - rows:0:-1]  # real: Q(-phi) = Q(phi)
    return QpdGrid(state.j, *_grid_axes(n_phi, n_theta), values)


@dataclass(frozen=True)
class FieldEstimationParams:
    """Gyromagnetic ratio and interrogation time for field estimation."""

    gamma_s: float
    t: float

    def __post_init__(self):
        if not (self.gamma_s > 0 and math.isfinite(self.gamma_s)):
            raise ValueError("gamma_s must be positive and finite")
        if not (self.t > 0 and math.isfinite(self.t)):
            raise ValueError("t must be positive and finite")


@dataclass(frozen=True)
class FisherBound:
    """Upper bound on the Fisher information and the implied lower bound
    on the field standard deviation.  These are bounds, not achieved
    estimator variances."""

    fisher_upper: float
    sigma_lower: float


def fisher_bound(variance_z, params: FieldEstimationParams) -> FisherBound:
    """fisher_upper = 4 (gamma_s t)^2 <(dJz)^2>; sigma_lower = fisher_upper^{-1/2}."""
    if not (math.isfinite(variance_z) and variance_z >= 0):
        raise ValueError("variance must be finite and nonnegative")
    fisher = 4.0 * (params.gamma_s * params.t) ** 2 * variance_z
    sigma = math.inf if fisher == 0.0 else 1.0 / math.sqrt(fisher)
    return FisherBound(fisher_upper=fisher, sigma_lower=sigma)
