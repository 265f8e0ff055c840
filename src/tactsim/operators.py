"""Collective spin operators stored in banded form, and their action as ladder products.

Basis convention (shared by the whole package): the (2J+1)-dimensional
space is indexed in descending M, index 0 <-> M = J.  A band with offset
d holds the matrix elements A[i, i+d] for d >= 0 and A[i-d, i] for d < 0,
mirroring ``numpy.diag`` semantics.  All operators used here have
bandwidth at most 2.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_SYMMETRY_TOL = 1e-14


def validate_spin(j) -> int:
    """Check that j is a half-integer >= 1/2 and return 2j as an int."""
    if not math.isfinite(j):
        raise ValueError(f"total spin must be finite, got {j!r}")
    two_j = int(round(2 * j))
    if abs(2 * j - two_j) > 1e-9 or two_j < 1:
        raise ValueError(f"total spin must be a half-integer >= 1/2, got {j!r}")
    return two_j


def single_number(value, name, kind="number") -> float:
    """value as a float, once it is one finite number; else a ValueError naming it."""
    value = np.asarray(value, dtype=float)
    if value.ndim:
        raise ValueError(f"{name} must be a single {kind}, got shape {value.shape}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    return float(value)


def spin_dimension(j) -> int:
    return validate_spin(j) + 1


def m_values(j) -> np.ndarray:
    """Jz eigenvalues in descending order, M = J, J-1, ..., -J (one read-only array per J)."""
    return _spin_tables(validate_spin(j))[0]


def ladder_coefficients(j) -> np.ndarray:
    """<J,M+1|J+|J,M> = sqrt(J(J+1) - M(M+1)) on band offset +1 (one read-only array per J).

    Entry i is the element coupling index i (M) to index i+1 (M-1),
    i.e. the coefficient with M = m_values(j)[i+1].
    """
    return _spin_tables(validate_spin(j))[1]


@lru_cache(maxsize=32)
def _spin_tables(two_j):
    """(m_values, ladder_coefficients) of spin two_j / 2, shared by every caller."""
    j = two_j / 2
    m = j - np.arange(two_j + 1)
    lad = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    m.flags.writeable = lad.flags.writeable = False
    return m, lad


def ladder_products(j, v):
    """(J+ v, J- v) for a vector or a block of columns v of spin j, from the ladder
    coefficients c alone: (J+ v)_i = c_i v_(i+1) and (J- v)_(i+1) = c_i v_i."""
    lad = ladder_coefficients(j).reshape((-1,) + (1,) * (v.ndim - 1))
    up = np.zeros(v.shape, np.result_type(v, float))
    down = np.zeros_like(up)
    up[:-1], down[1:] = lad * v[1:], lad * v[:-1]
    return up, down


@dataclass(frozen=True, eq=False)
class BandedOperator:
    """Operator on the (2J+1)-dimensional spin space with bandwidth <= 2."""

    j: float
    bands: dict

    def __post_init__(self):
        n = spin_dimension(self.j)
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

    def is_symmetric(self, sign) -> bool:
        """True when A^dagger = sign * A within 1e-14 per element: sign 1 for a
        hermitian operator, -1 for a skew-hermitian one."""
        n = self.dim
        return all(np.allclose(self.bands.get(-d, np.zeros(n - d)),
                               sign * np.conj(self.bands.get(d, np.zeros(n - d))),
                               atol=_SYMMETRY_TOL, rtol=0) for d in (0, 1, 2))

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

    def to_dense(self) -> np.ndarray:
        dtype = complex if any(np.iscomplexobj(c) for c in self.bands.values()) else float
        out = np.zeros((self.dim, self.dim), dtype=dtype)
        for d, coef in self.bands.items():
            out += np.diag(coef, d)
        return out


# kind -> its bands from the M values and the ladder coefficients.  <M|J+^2|M-2> =
# c(M-2)c(M-1) and J-^2 is its transpose, so J+^2 - J-^2 is real antisymmetric.
_OPERATOR_BANDS = {
    "Jx": lambda m, lad: {1: lad / 2, -1: lad / 2},
    "Jy": lambda m, lad: {1: -0.5j * lad, -1: 0.5j * lad},
    "Jz": lambda m, lad: {0: m},
    "Jplus": lambda m, lad: {1: lad},
    "Jminus": lambda m, lad: {-1: lad},
    "Jplus2_minus_Jminus2": lambda m, lad: {2: lad[:-1] * lad[1:], -2: -(lad[:-1] * lad[1:])},
}


def build_operator(j, kind: str) -> BandedOperator:
    """Standard collective operators: Jx, Jy, Jz, J+, J-, and J+^2 - J-^2."""
    validate_spin(j)
    if kind not in _OPERATOR_BANDS:
        raise ValueError(f"unknown operator kind {kind!r}")
    return BandedOperator(j, _OPERATOR_BANDS[kind](m_values(j), ladder_coefficients(j)))
