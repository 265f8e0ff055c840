"""Pure collective-spin states and the special-state factories.

States live in the |J,M> basis ordered by descending M (index 0 <-> M=J).
Coherent-state and twin-Fock amplitudes are closed forms evaluated in log
space, so spins up to J ~ 1000 (binomials like C(2000,1000)) do not overflow.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .operators import m_values, spin_dimension, validate_spin

NORM_TOL = 1e-12

TWO_PI = 2 * math.pi


@dataclass(frozen=True)
class CoherentSpinParams:
    """Bloch angles of a coherent spin state: azimuth alpha, polar beta."""

    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        alpha, beta = float(self.alpha), float(self.beta)
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise ValueError("coherent-state angles must be finite")
        beta = beta % TWO_PI
        if beta > math.pi:
            # (alpha, beta) and (alpha+pi, 2pi-beta) label the same direction
            beta = TWO_PI - beta
            alpha = alpha + math.pi
        alpha = alpha % TWO_PI
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True, eq=False)
class SpinState:
    """Normalized pure state of a collective spin J.

    amplitudes[i] is the coefficient of |J, M=J-i>.  real_flag is advisory
    metadata: when set, every imaginary part is exactly zero.
    """

    j: float
    amplitudes: np.ndarray
    real_flag: bool = False

    def __post_init__(self):
        n = spin_dimension(self.j)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (n,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({n},)"
            )
        nrm2 = float(np.sum(amps.real**2 + amps.imag**2))
        if abs(nrm2 - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 deviates from 1 by {nrm2 - 1.0:.3e}")
        if self.real_flag and np.any(amps.imag != 0.0):
            raise ValueError("real_flag set but amplitudes have imaginary parts")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return spin_dimension(self.j)

    @property
    def m_values(self) -> np.ndarray:
        return m_values(self.j)

    def to_json_dict(self) -> dict:
        return {
            "j": self.j,
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        }

    @classmethod
    def from_json_dict(cls, record: dict) -> "SpinState":
        amps = np.array(
            [complex(re, im) for re, im in record["amplitudes"]], dtype=complex
        )
        return cls(
            j=float(record["j"]),
            amplitudes=amps,
            real_flag=bool(np.all(amps.imag == 0.0)),
        )


def _normalized(j, amps, real_flag=False) -> SpinState:
    amps = np.asarray(amps, dtype=complex)
    amps = amps / np.linalg.norm(amps)
    return SpinState(j=j, amplitudes=amps, real_flag=real_flag)


def basis_state(j, m) -> SpinState:
    """The Jz eigenstate |J, M>."""
    validate_spin(j)
    idx = int(round(j - m))
    if abs((j - m) - idx) > 1e-9 or not 0 <= idx < spin_dimension(j):
        raise ValueError(f"M={m} is not a level of spin J={j}")
    amps = np.zeros(spin_dimension(j), dtype=complex)
    amps[idx] = 1.0
    return SpinState(j=j, amplitudes=amps, real_flag=True)


def css_magnitudes(j, beta) -> np.ndarray:
    """|coefficient| of the coherent state over M, evaluated in log space.

    beta may be a scalar or an array; the result has shape (2J+1,) or
    (2J+1, len(beta)).
    """
    two_j = validate_spin(j)
    k = np.arange(two_j + 1.0)  # k = J - M, the basis index
    log_binom = 0.5 * (
        gammaln(two_j + 1) - gammaln(k + 1) - gammaln(two_j - k + 1)
    )
    beta = np.asarray(beta, dtype=float)
    scalar = beta.ndim == 0
    half = np.atleast_1d(beta) / 2
    with np.errstate(divide="ignore"):  # log 0 = -inf gives the exact zeros
        log_c, log_s = np.log(np.abs(np.cos(half))), np.log(np.abs(np.sin(half)))
    # One table, summed as (log_binom + (2J-k) log|c|) + k log|s|; a zero power
    # adds nothing, so row 2J skips log|c| and row 0 skips log|s|.  |cos| drops
    # the sign for beta outside [0, pi]; callers wrap angles first.
    mag = np.empty((two_j + 1, len(half)))
    np.multiply.outer(two_j - k[:-1], log_c, out=mag[:-1])
    mag[-1] = 0.0
    mag += log_binom[:, None]
    mag[1:] += np.multiply.outer(k[1:], log_s)
    np.exp(mag, out=mag)
    return mag[:, 0] if scalar else mag


def make_css(j, params: CoherentSpinParams = None) -> SpinState:
    """Coherent spin state with amplitudes
    sqrt(C(2J, J-M)) e^{i(J-M)alpha} cos^{J+M}(beta/2) sin^{J-M}(beta/2).
    """
    if params is None:
        params = CoherentSpinParams()
    validate_spin(j)
    mag = css_magnitudes(j, params.beta)
    k = np.arange(spin_dimension(j))
    amps = mag * np.exp(1j * k * params.alpha)
    real = bool(np.all(amps.imag == 0.0))
    return _normalized(j, amps, real_flag=real)


def make_ewss(j) -> SpinState:
    """Equally-weighted superposition: amplitude 1/sqrt(2J+1) at every M."""
    n = spin_dimension(j)
    return SpinState(j=j, amplitudes=np.full(n, 1.0 / math.sqrt(n), dtype=complex),
                     real_flag=True)


def make_twin_fock(j) -> SpinState:
    """|J,0> rotated by pi/2 about x (integer J), from the closed form of the Wigner
    d^J_{M0}(pi/2) in log space: (-i)^J sqrt((J+M)!(J-M)!) / (2^J ((J+M)/2)!
    ((J-M)/2)!) for even J-M, and exactly zero for odd J-M."""
    two_j = validate_spin(j)
    if two_j % 2:
        raise ValueError("twin-Fock requires integer J")
    k = np.arange(0, two_j + 1, 2.0)  # k = J - M over the even sector
    log_amp = (0.5 * (gammaln(two_j - k + 1) + gammaln(k + 1)) - two_j / 2 * math.log(2)
               - gammaln((two_j - k) / 2 + 1) - gammaln(k / 2 + 1))
    amps = np.zeros(two_j + 1, dtype=complex)
    amps[::2] = (1, -1j, -1, 1j)[two_j // 2 % 4] * np.exp(log_amp)  # (-i)^J, exactly
    return _normalized(j, amps, real_flag=two_j % 4 == 0)


def make_cat(j) -> SpinState:
    """Equal superposition of the highest- and lowest-weight states."""
    n = spin_dimension(j)
    amps = np.zeros(n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2)
    return SpinState(j=j, amplitudes=amps, real_flag=True)
