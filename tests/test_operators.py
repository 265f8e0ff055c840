import math

import numpy as np
import pytest

from tactsim.dynamics import tact_generator
from tactsim.operators import (
    BandedOperator,
    build_operator,
    m_values,
    spin_dimension,
    validate_spin,
)


def dense(j, kind):
    return build_operator(j, kind).to_dense()


def test_jz_diagonal():
    assert np.array_equal(dense(1, "Jz"), np.diag([1.0, 0.0, -1.0]))


def test_jplus_ladder_action():
    op = build_operator(1, "Jplus")
    out = op.apply(np.array([0.0, 0.0, 1.0]))
    # J+|1,-1> = sqrt(2) |1,0>
    assert np.allclose(out, [0.0, np.sqrt(2), 0.0], atol=1e-15)


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


def test_apply_matches_dense_matvec():
    j = 2.5
    vec = np.linspace(-1, 1, spin_dimension(j)) + 0.3j
    for kind in ("Jx", "Jy", "Jz", "Jplus", "Jminus", "Jplus2_minus_Jminus2"):
        op = build_operator(j, kind)
        assert np.allclose(op.apply(vec), op.to_dense() @ vec, atol=1e-13)


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


@pytest.mark.parametrize("j", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_spin_rejected_by_name(j):
    with pytest.raises(ValueError, match="total spin must be finite"):
        validate_spin(j)


def test_ladders_are_neither_hermitian_nor_skew_hermitian():
    for kind in ("Jplus", "Jminus"):
        op = build_operator(2, kind)
        assert not op.is_symmetric(1) and not op.is_symmetric(-1)
