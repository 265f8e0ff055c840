"""Collective spin operators stored in banded form.

Basis convention (shared by the whole package): the (2J+1)-dimensional
space is indexed in descending M, index 0 <-> M = J.  A band with offset
d holds the matrix elements A[i, i+d] for d >= 0 and A[i-d, i] for d < 0,
mirroring ``numpy.diag`` semantics.  All operators used here have
bandwidth at most 2.
"""

import math
from dataclasses import dataclass

import numpy as np

HERMITIAN = "hermitian"
SKEW_HERMITIAN = "skew-hermitian"
GENERAL = "general"

_SYMMETRY_TOL = 1e-14


def validate_spin(j) -> int:
    """Check that j is a half-integer >= 1/2 and return 2j as an int."""
    if not math.isfinite(j):
        raise ValueError(f"total spin must be finite, got {j!r}")
    two_j = int(round(2 * j))
    if abs(2 * j - two_j) > 1e-9 or two_j < 1:
        raise ValueError(f"total spin must be a half-integer >= 1/2, got {j!r}")
    return two_j


def spin_dimension(j) -> int:
    return validate_spin(j) + 1


def m_values(j) -> np.ndarray:
    """Jz eigenvalues in descending order, M = J, J-1, ..., -J."""
    validate_spin(j)
    return j - np.arange(spin_dimension(j))


def ladder_coefficients(j) -> np.ndarray:
    """<J,M+1|J+|J,M> = sqrt(J(J+1) - M(M+1)) laid out on band offset +1.

    Entry i is the element coupling index i (M) to index i+1 (M-1),
    i.e. the coefficient with M = m_values(j)[i+1].
    """
    m = m_values(j)[1:]
    return np.sqrt(j * (j + 1) - m * (m + 1))


@dataclass(frozen=True, eq=False)
class BandedOperator:
    """Operator on the (2J+1)-dimensional spin space with bandwidth <= 2."""

    j: float
    bands: dict
    hermiticity_tag: str = GENERAL

    def __post_init__(self):
        n = spin_dimension(self.j)
        if self.hermiticity_tag not in (HERMITIAN, SKEW_HERMITIAN, GENERAL):
            raise ValueError(f"unknown hermiticity tag {self.hermiticity_tag!r}")
        clean = {}
        for d, coef in self.bands.items():
            if d not in (-2, -1, 0, 1, 2):
                raise ValueError(f"band offset {d} outside bandwidth 2")
            coef = np.asarray(coef)
            if coef.shape != (n - abs(d),):
                raise ValueError(
                    f"band {d} has length {coef.shape}, expected {n - abs(d)}"
                )
            coef = coef.copy()
            coef.flags.writeable = False
            clean[d] = coef
        object.__setattr__(self, "bands", clean)
        self._check_symmetry()

    def _check_symmetry(self):
        if self.hermiticity_tag == GENERAL:
            return
        sign = 1.0 if self.hermiticity_tag == HERMITIAN else -1.0
        n = self.dim
        for d in (0, 1, 2):
            upper = self.bands.get(d, np.zeros(n - d))
            lower = self.bands.get(-d, np.zeros(n - d))
            if not np.allclose(lower, sign * np.conj(upper), atol=_SYMMETRY_TOL, rtol=0):
                raise ValueError(
                    f"bands at offsets +-{d} violate the {self.hermiticity_tag} tag"
                )

    @property
    def dim(self) -> int:
        return spin_dimension(self.j)

    @property
    def is_real(self) -> bool:
        return all(np.all(c.imag == 0) if np.iscomplexobj(c) else True
                   for c in self.bands.values())

    @property
    def even_offsets_only(self) -> bool:
        """True when the operator couples only M <-> M, M+-2 (parity preserving)."""
        return all(d % 2 == 0 for d, c in self.bands.items() if np.any(c != 0))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Product with a vector, or with each column of an (n, k) block,
        using only the stored bands."""
        n = self.dim
        if vec.shape[:1] != (n,) or vec.ndim > 2:
            raise ValueError(f"vector length {vec.shape} does not match dim {n}")
        out = np.zeros(vec.shape, dtype=np.result_type(vec.dtype, *[c.dtype for c in self.bands.values()]))
        for d, coef in self.bands.items():
            coef = coef.reshape((-1,) + (1,) * (vec.ndim - 1))
            if d >= 0:
                out[: n - d] += coef * vec[d:]
            else:
                k = -d
                out[k:] += coef * vec[: n - k]
        return out

    def to_dense(self) -> np.ndarray:
        dtype = complex if any(np.iscomplexobj(c) for c in self.bands.values()) else float
        out = np.zeros((self.dim, self.dim), dtype=dtype)
        for d, coef in self.bands.items():
            out += np.diag(coef, d)
        return out


def build_operator(j, kind: str) -> BandedOperator:
    """Standard collective operators: Jx, Jy, Jz, J+, J-, and J+^2 - J-^2."""
    validate_spin(j)
    if kind == "Jz":
        return BandedOperator(j, {0: m_values(j)}, HERMITIAN)
    lad = ladder_coefficients(j)
    if kind == "Jplus":
        return BandedOperator(j, {1: lad}, GENERAL)
    if kind == "Jminus":
        return BandedOperator(j, {-1: lad}, GENERAL)
    if kind == "Jx":
        return BandedOperator(j, {1: lad / 2, -1: lad / 2}, HERMITIAN)
    if kind == "Jy":
        return BandedOperator(j, {1: -0.5j * lad, -1: 0.5j * lad}, HERMITIAN)
    if kind == "Jplus2_minus_Jminus2":
        # <M|J+^2|M-2> = c(M-2)c(M-1); J-^2 is its transpose, so the
        # difference is real antisymmetric.
        quad = lad[:-1] * lad[1:]
        return BandedOperator(j, {2: quad, -2: -quad}, SKEW_HERMITIAN)
    raise ValueError(f"unknown operator kind {kind!r}")
