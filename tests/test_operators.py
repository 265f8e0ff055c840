import math

import numpy as np
import pytest

from tactsim.dynamics import tact_generator
from tactsim.operators import (
    BandedOperator,
    build_operator,
    ladder_coefficients,
    ladder_products,
    m_values,
    spin_dimension,
    validate_spin,
)


def dense(j, kind):
    return build_operator(j, kind).to_dense()


def test_jz_diagonal():
    assert np.array_equal(dense(1, "Jz"), np.diag([1.0, 0.0, -1.0]))


def test_jplus_ladder_action():
    up, down = ladder_products(1, np.array([0.0, 0.0, 1.0]))
    # J+|1,-1> = sqrt(2) |1,0>, and J- annihilates |1,-1>
    assert np.allclose(up, [0.0, np.sqrt(2), 0.0], atol=1e-15)
    assert not np.any(down)


def test_jx_spin_half_is_half_pauli():
    assert np.allclose(dense(0.5, "Jx"), [[0, 0.5], [0.5, 0]], atol=1e-16)


@pytest.mark.parametrize("j", [0.5, 1, 1.5, 2, 3.5, 5])
def test_commutator_jx_jy_equals_i_jz(j):
    jx, jy, jz = dense(j, "Jx"), dense(j, "Jy"), dense(j, "Jz")
    comm = jx @ jy - jy @ jx
    assert np.max(np.abs(comm - 1j * jz)) < 1e-12


def test_quadrupole_matches_dense_ladder_square():
    j = 3
    plus = dense(j, "Jplus")
    minus = dense(j, "Jminus")
    expected = plus @ plus - minus @ minus
    op = build_operator(j, "Jplus2_minus_Jminus2")
    assert op.is_symmetric(-1)
    assert np.allclose(op.to_dense(), expected, atol=1e-12)


@pytest.mark.parametrize("j", [0.5, 3, 7.5, 400])
@pytest.mark.parametrize("shape", [(), (4,)], ids=["vector", "block"])
def test_ladder_products_match_dense(j, shape):
    # Jx and Jy as spin_moments forms them, and Jz = (J+ J- - J- J+) / 2 from the helper twice
    rng = np.random.default_rng(round(2 * j))
    size = (spin_dimension(j),) + shape
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    up, down = ladder_products(j, v)
    formed = {"Jplus": up, "Jminus": down, "Jx": (up + down) / 2, "Jy": (up - down) * -0.5j,
              "Jz": (ladder_products(j, down)[0] - ladder_products(j, up)[1]) / 2}
    scale = np.max(np.abs(v)) * max(1.0, j)
    for kind, got in formed.items():
        assert got.shape == v.shape
        expect = dense(j, kind) @ v
        assert np.max(np.abs(got - expect)) <= 1e-14 * scale * (max(1.0, j) if kind == "Jz" else 1)


def test_symmetry_is_computed_from_the_bands():
    for j in (0.5, 1, 2.5, 40):
        for kind in ("Jx", "Jy", "Jz"):
            op = build_operator(j, kind)
            assert op.is_symmetric(1) and not op.is_symmetric(-1)
        assert build_operator(j, "Jplus2_minus_Jminus2").is_symmetric(-1)
        for chi, gamma in ((1.0, 0.0), (0.7, 0.9), (3.0, -2.5)):
            assert tact_generator(j, chi, gamma).is_symmetric(-1)
    # an absolute tolerance of 1e-14 per element, and NaN is never symmetric
    band = np.array([1.0, 0.0])
    assert BandedOperator(1, {1: band, -1: band + 1e-15}).is_symmetric(1)
    assert not BandedOperator(1, {1: band, -1: band + 1e-13}).is_symmetric(1)
    assert not BandedOperator(1, {1: band, -1: 2 * band}).is_symmetric(1)
    assert not BandedOperator(1, {0: np.array([math.nan, 0.0, 0.0])}).is_symmetric(1)


def test_band_shape_validated():
    with pytest.raises(ValueError, match="length"):
        BandedOperator(1, {1: np.array([1.0, 2.0, 3.0])})
    with pytest.raises(ValueError, match="bandwidth"):
        BandedOperator(2, {3: np.zeros(2)})


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown operator kind"):
        build_operator(1, "Jq")


def test_non_half_integer_spin_rejected():
    with pytest.raises(ValueError, match="half-integer"):
        build_operator(0.7, "Jz")
    with pytest.raises(ValueError):
        m_values(-1)


@pytest.mark.parametrize("j", [0.5, 3, 7.5, 400])
def test_spin_tables_are_cached_read_only(j):
    """m_values and ladder_coefficients are built once per 2J and handed to every
    caller, so none may write to them; the values are the closed forms."""
    m, lad = m_values(j), ladder_coefficients(j)
    assert m is m_values(float(j)) and lad is ladder_coefficients(np.float64(j))
    assert not m.flags.writeable and not lad.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        m[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        lad[0] = 0.0
    exact = j - np.arange(2 * j + 1)
    np.testing.assert_array_equal(m, exact)
    np.testing.assert_array_equal(lad, np.sqrt(j * (j + 1) - exact[1:] * (exact[1:] + 1)))


@pytest.mark.parametrize("j", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_spin_rejected_by_name(j):
    with pytest.raises(ValueError, match="total spin must be finite"):
        validate_spin(j)


def test_ladders_are_neither_hermitian_nor_skew_hermitian():
    for kind in ("Jplus", "Jminus"):
        op = build_operator(2, kind)
        assert not op.is_symmetric(1) and not op.is_symmetric(-1)
