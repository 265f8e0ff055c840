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

from .operators import build_operator, spin_dimension, validate_spin
from .states import SpinState, css_magnitudes


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


@lru_cache(maxsize=64)
def _spin_operators(two_j):
    """(Jx, Jy, Jz) of spin two_j/2; operators are immutable, so shared."""
    return tuple(build_operator(two_j / 2, "J" + axis) for axis in ("x", "y", "z"))


def spin_moments(state: SpinState) -> SpinMoments:
    """First moments of (Jx, Jy, Jz) and the variances of Jz and Jy."""
    v = state.amplitudes
    means = []
    second = {}
    for axis, op in zip(("x", "y", "z"), _spin_operators(validate_spin(state.j))):
        ov = op.apply(v)
        means.append(float(np.vdot(v, ov).real))
        if axis in ("y", "z"):
            second[axis] = float(np.vdot(ov, ov).real)
    mean = np.array(means)
    var_z = max(second["z"] - mean[2] ** 2, 0.0)
    var_y = max(second["y"] - mean[1] ** 2, 0.0)
    return SpinMoments(mean=mean, variance_z=var_z, variance_y=var_y)


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
        vals = np.asarray(self.values)
        if vals.shape != (len(self.phis), len(self.thetas)):
            raise ValueError("QPD value matrix does not match the grid")
        if vals.min() < -1e-12 or vals.max() > 1.0 + 1e-12:
            raise ValueError("QPD values must lie in [0, 1]")
        for name in ("phis", "thetas", "values"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_phi(self) -> int:
        return len(self.phis)

    @property
    def n_theta(self) -> int:
        return len(self.thetas)

    def value_at(self, phi, theta) -> float:
        """Value at the grid node nearest to (phi, theta)."""
        ip = int(np.argmin(np.abs((self.phis - phi + math.pi) % (2 * math.pi) - math.pi)))
        it = int(np.argmin(np.abs(self.thetas - theta)))
        return float(self.values[ip, it])

    def to_json_dict(self) -> dict:
        return {
            "j": self.j,
            "n_phi": self.n_phi,
            "n_theta": self.n_theta,
            "phi": [float(p) for p in self.phis],
            "theta": [float(t) for t in self.thetas],
            "values": [[float(v) for v in row] for row in self.values],
        }

    @classmethod
    def from_json_dict(cls, record: dict) -> "QpdGrid":
        grid = cls(j=float(record["j"]),
                   phis=np.asarray(record["phi"], dtype=float),
                   thetas=np.asarray(record["theta"], dtype=float),
                   values=np.asarray(record["values"], dtype=float))
        if grid.n_phi != record["n_phi"] or grid.n_theta != record["n_theta"]:
            raise ValueError("QPD metadata disagrees with the value matrix")
        return grid

    def csv_rows(self):
        """Yield (phi, theta, value) in row-major phi-then-theta order."""
        for ip, phi in enumerate(self.phis):
            for it, theta in enumerate(self.thetas):
                yield float(phi), float(theta), float(self.values[ip, it])


@lru_cache(maxsize=8)
def _css_table(two_j, n_theta):
    """css_magnitudes of spin two_j/2 on the QPD theta grid, shared read-only."""
    mags = css_magnitudes(two_j / 2, np.linspace(0.0, math.pi, n_theta))
    mags.flags.writeable = False
    return mags


def qpd(state: SpinState, n_phi: int = 360, n_theta: int = 180) -> QpdGrid:
    """Quasi-probability distribution of the state over the Bloch sphere.

    The overlap with CSS(phi, theta) is a polynomial in e^{-i phi} with
    theta-dependent coefficients, so each theta column is evaluated for
    all phi at once with an FFT (after folding indices modulo n_phi).  The
    coherent-state magnitudes are cached per (J, n_theta).  When every
    amplitude is real (any SSS with gamma = 0, the EWSS, a CSS with alpha =
    0), the fold is real and is kept in the output array, a real FFT gives
    phi in [0, pi], and Q(-phi, theta) = Q(phi, theta) mirrors the rest;
    |.|^2 and the clip are taken in place in that one array.
    """
    for name, size in (("n_phi", n_phi), ("n_theta", n_theta)):
        if not isinstance(size, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {size!r}")
    if n_phi < 2 or n_theta < 2:
        raise ValueError("grid resolutions must be at least 2")
    n = spin_dimension(state.j)
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = 2 * math.pi * np.arange(n_phi) / n_phi
    mags = _css_table(validate_spin(state.j), n_theta)  # (n, n_theta)
    amps = state.amplitudes
    real = not np.any(amps.imag)
    amps = (amps.real if real else amps)[:, None]
    values = np.empty((n_phi, n_theta))
    # a real fold lives in the output rows, which |spectrum| then overwrites
    folded = values[: min(n, n_phi)] if real else np.empty((min(n, n_phi), n_theta), complex)
    np.multiply(mags[:n_phi], amps[:n_phi], out=folded)
    for start in range(n_phi, n, n_phi):  # fold M-index blocks of n_phi rows in place
        folded[: n - start] += mags[start:start + n_phi] * amps[start:start + n_phi]
    spectrum = (np.fft.rfft if real else np.fft.fft)(folded, n=n_phi, axis=0)
    rows = values[: len(spectrum)]
    np.abs(spectrum, out=rows)
    np.square(rows, out=rows)
    np.clip(rows, 0.0, 1.0, out=rows)
    values[len(rows):] = values[n_phi - len(rows):0:-1]  # real: Q(-phi) = Q(phi)
    return QpdGrid(j=state.j, phis=phis, thetas=thetas, values=values)


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
