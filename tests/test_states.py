import json
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from tactsim import cli
from tactsim.dynamics import rotate
from tactsim.observables import prob_distribution, spin_moments
from tactsim.operators import build_operator
from tactsim.states import (
    CoherentSpinParams,
    SpinState,
    _log_binomials,
    basis_state,
    css_magnitudes,
    make_cat,
    make_css,
    make_ewss,
    make_twin_fock,
)


def _css_magnitudes_reference(j, beta):
    """css_magnitudes as separate log terms joined by np.where, summed in the
    same order (log binomial + (2J-k) log|c|) + k log|s|, with zero powers as 0."""
    two_j = round(2 * j)
    k = np.arange(two_j + 1.0)
    log_binom = 0.5 * _log_binomials(two_j)
    half = np.atleast_1d(np.asarray(beta, dtype=float)) / 2
    c, s = np.cos(half), np.sin(half)
    kc, ks = (two_j - k)[:, None], k[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_c = np.where(kc > 0, kc * np.log(np.abs(c)), 0.0)
        log_s = np.where(ks > 0, ks * np.log(np.abs(s)), 0.0)
    mag = np.exp(log_binom[:, None] + log_c + log_s)
    mag = np.where((c == 0) & (kc > 0), 0.0, mag)
    return np.where((s == 0) & (ks > 0), 0.0, mag)


def _assert_close_to(got, ref, rel):
    """got within rel of the float ref as a whole (relative to max |ref|), and
    within 2 rel entry by entry where ref is a normal float; an entry that
    underflows in ref must be below 1e-290 in got."""
    err = np.abs(got - ref)
    assert np.max(err) <= rel * np.max(ref)
    normal = ref > 1e-290
    assert np.all(err[normal] <= 2 * rel * ref[normal])
    assert np.all(got[~normal] <= 1e-290)


class TestExactTables:
    """log C(n, k), the twin-Fock amplitudes and css_magnitudes against a
    40-digit mpmath evaluation of the exact integers and angles."""

    @pytest.mark.parametrize("j", [50, 400, 1000, 2000])
    def test_log_binomials_and_twin_fock(self, j):
        two_j = 2 * j
        with mpmath.workdps(40):
            ref = [mpmath.log(math.comb(two_j, k)) for k in range(two_j + 1)]
            got = _log_binomials(two_j)
            assert all(abs(g - r) <= 5e-13 * abs(r) for g, r in zip(got, ref))
            centre = mpmath.sqrt(math.comb(two_j, j)) / mpmath.mpf(2) ** j
            tfs = np.array([float(math.comb(j, m) * centre / mpmath.sqrt(math.comb(two_j, 2 * m)))
                            for m in range(j + 1)])
        amps = make_twin_fock(j).amplitudes
        phase = (1, -1j, -1, 1j)[j % 4]
        _assert_close_to((amps[::2] / phase).real, tfs, 5e-13)
        assert np.all(amps[1::2] == 0) and not np.any((amps[::2] / phase).imag)

    @pytest.mark.parametrize("j", [50, 400, 1000, 2000])
    def test_css_magnitudes(self, j):
        two_j = 2 * j
        betas = (0.3, 1.0, math.pi / 2, 2.5, 3.0)
        got = css_magnitudes(j, np.array(betas))
        with mpmath.workdps(40):
            roots = [mpmath.sqrt(math.comb(two_j, k)) for k in range(two_j + 1)]
            for col, beta in enumerate(betas):
                c, s = mpmath.cos(mpmath.mpf(beta) / 2), mpmath.sin(mpmath.mpf(beta) / 2)
                ref = np.array([float(r * c ** (two_j - k) * s**k) for k, r in enumerate(roots)])
                _assert_close_to(got[:, col], ref, 5e-13)


class TestCoherentState:
    @pytest.mark.parametrize("j", [0.5, 1, 3.5, 50, 400, 1000])
    def test_magnitudes_match_the_term_by_term_table_bit_for_bit(self, j):
        betas = np.array([0.0, 1e-300, 0.3, math.pi / 2, 3.0, math.pi, 4.0, 2 * math.pi])
        assert np.array_equal(css_magnitudes(j, betas), _css_magnitudes_reference(j, betas))
        grid = np.linspace(0.0, math.pi, 180)
        assert np.array_equal(css_magnitudes(j, grid), _css_magnitudes_reference(j, grid))
        assert np.array_equal(css_magnitudes(j, 1.3), _css_magnitudes_reference(j, 1.3)[:, 0])

    def test_polar_state_is_highest_weight(self):
        s = make_css(5, CoherentSpinParams(alpha=0, beta=0))
        expect = np.zeros(11)
        expect[0] = 1.0
        assert np.array_equal(s.amplitudes.real, expect)
        assert np.array_equal(s.amplitudes.imag, np.zeros(11))

    def test_equator_spin_half(self):
        s = make_css(0.5, CoherentSpinParams(alpha=0, beta=math.pi / 2))
        assert np.allclose(s.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)],
                           atol=1e-15)

    def test_j1_with_phase(self):
        # direct term-by-term evaluation of the three coefficients
        s = make_css(1, CoherentSpinParams(alpha=math.pi / 2, beta=math.pi / 2))
        expect = np.array([0.5, 1j / math.sqrt(2), -0.5])
        assert np.allclose(s.amplitudes, expect, atol=1e-15)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(two_j=st.integers(1, 400), alpha=st.floats(-10.0, 10.0),
           beta=st.floats(0.0, math.pi, exclude_min=True, exclude_max=True))
    def test_level_distribution_is_binomial(self, two_j, alpha, beta):
        # J - M ~ Binomial(2J, sin^2(beta/2)), the pmf from log-gamma
        state = make_css(two_j / 2, CoherentSpinParams(alpha=alpha, beta=beta))
        p, q = math.sin(beta / 2) ** 2, math.cos(beta / 2) ** 2
        pmf = [math.exp(math.lgamma(two_j + 1) - math.lgamma(k + 1) - math.lgamma(two_j - k + 1))
               * p**k * q ** (two_j - k) for k in range(two_j + 1)]
        assert np.max(np.abs(prob_distribution(state) - pmf)) <= 1e-12

    def test_large_spin_normalized(self):
        s = make_css(1000, CoherentSpinParams(alpha=1.2, beta=2.1))
        assert abs(np.vdot(s.amplitudes, s.amplitudes).real - 1.0) < 1e-12

    def test_beta_pi_is_lowest_weight(self):
        s = make_css(7, CoherentSpinParams(alpha=0.4, beta=math.pi))
        assert abs(abs(s.amplitudes[-1]) - 1.0) < 1e-14

    def test_angle_wrapping(self):
        p = CoherentSpinParams(alpha=2 * math.pi + 0.3, beta=0.5)
        assert math.isclose(p.alpha, 0.3, abs_tol=1e-12)
        p = CoherentSpinParams(alpha=0.0, beta=-0.1)
        assert math.isclose(p.beta, 0.1, abs_tol=1e-15)
        assert math.isclose(p.alpha, math.pi, abs_tol=1e-12)

    def test_rejects_bad_spin(self):
        with pytest.raises(ValueError, match="half-integer"):
            make_css(0.3, CoherentSpinParams())

    def test_rejects_an_angle_that_is_not_one_finite_number(self):
        # a ValueError naming the angle, not numpy's "only 0-dimensional arrays" TypeError
        with pytest.raises(ValueError, match=r"^beta must be a single angle, got shape \(2,\)$"):
            CoherentSpinParams(beta=np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="^alpha must be finite$"):
            CoherentSpinParams(alpha=math.inf)


class TestSpecialStates:
    def test_ewss_small(self):
        assert np.allclose(make_ewss(0.5).amplitudes.real,
                           [1 / math.sqrt(2)] * 2, atol=1e-16)
        assert np.allclose(make_ewss(1).amplitudes.real,
                           [1 / math.sqrt(3)] * 3, atol=1e-16)

    def test_ewss_variance_large_j(self):
        s = make_ewss(50)
        assert np.all(np.abs(s.amplitudes.real - 1 / math.sqrt(101)) < 1e-16)
        assert abs(spin_moments(s).variance_z - 850.0) < 1e-10

    def test_twin_fock_matches_dense_exponential_oracle(self):
        jx = build_operator(1, "Jx").to_dense()
        expected = scipy.linalg.expm(-1j * (math.pi / 2) * jx) @ np.array([0, 1, 0])
        got = make_twin_fock(1).amplitudes
        assert np.max(np.abs(got - expected)) < 1e-14

    def test_twin_fock_variance(self):
        assert abs(spin_moments(make_twin_fock(2)).variance_z - 3.0) < 1e-12

    def test_twin_fock_distribution_is_even(self):
        for j in (2, 5):
            p = prob_distribution(make_twin_fock(j))
            assert np.allclose(p, p[::-1], atol=1e-14)

    def test_twin_fock_needs_integer_spin(self):
        for j in (0.5, 1.5, 7.5):
            with pytest.raises(ValueError, match="twin-Fock requires integer J"):
                make_twin_fock(j)

    @pytest.mark.parametrize("j", [1, 2, 3, 10, 50, 200, 400])
    def test_twin_fock_closed_form_matches_x_rotation(self, j):
        got = make_twin_fock(j)
        oracle = rotate(basis_state(j, 0), "x", math.pi / 2).amplitudes
        assert np.max(np.abs(got.amplitudes - oracle)) <= 1e-12
        assert np.all(got.amplitudes[1::2] == 0)  # odd J-M: exactly empty
        assert got.real_flag == (j % 2 == 0)  # the global phase is (-i)^J

    def test_cat_small(self):
        assert np.allclose(make_cat(1).amplitudes.real,
                           [1 / math.sqrt(2), 0, 1 / math.sqrt(2)], atol=1e-16)

    def test_cat_fluctuation(self):
        assert abs(math.sqrt(spin_moments(make_cat(10)).variance_z) - 10.0) < 1e-12

    def test_cat_spin_half_equals_equatorial_css(self):
        cat = make_cat(0.5)
        css = make_css(0.5, CoherentSpinParams(alpha=0, beta=math.pi / 2))
        assert np.allclose(cat.amplitudes, css.amplitudes, atol=1e-15)

    def test_basis_state_validates_level(self):
        with pytest.raises(ValueError, match="not a level"):
            basis_state(1, 0.5)

    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
    def test_basis_state_names_a_non_finite_level(self, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^M={m} is not a level of spin J=3$"):
                basis_state(3, m)


class TestSpinStateInvariants:
    def test_length_checked(self):
        with pytest.raises(ValueError, match="shape"):
            SpinState(j=1, amplitudes=np.array([1.0, 0.0]))

    def test_normalization_checked(self):
        with pytest.raises(ValueError, match="norm"):
            SpinState(j=0.5, amplitudes=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
    def test_non_finite_amplitude_rejected(self, bad):
        with pytest.raises(ValueError, match="norm"):
            SpinState(j=1, amplitudes=np.array([bad, 0, 0]))
        with pytest.raises(ValueError, match="norm"):
            SpinState(j=0.5, amplitudes=np.array([1.0, bad]))

    def test_real_flag_follows_amplitudes(self):
        assert SpinState(j=0.5, amplitudes=np.array([1.0, -0.0j])).real_flag
        assert not SpinState(j=0.5, amplitudes=np.array([1j, 0.0])).real_flag
        with pytest.raises(AttributeError):
            make_ewss(1).real_flag = False

    def test_amplitudes_immutable(self):
        s = make_ewss(1)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0


def _from_record(record) -> SpinState:
    """The state of a state JSON record, through the validating constructor."""
    return SpinState(record["j"], np.array(record["amplitudes"]) @ (1, 1j))


class TestSerialization:
    def test_round_trip(self):
        s = make_css(3, CoherentSpinParams(alpha=0.7, beta=1.1))
        back = _from_record(json.loads(cli._json_text(s)))
        assert back.j == s.j
        assert np.allclose(back.amplitudes, s.amplitudes, atol=1e-16)

    def test_round_trip_preserves_real_flag(self):
        back = _from_record(json.loads(cli._json_text(make_ewss(2))))
        assert back.real_flag

    def test_corrupted_record_rejected(self):
        record = json.loads(cli._json_text(make_ewss(1)))
        record["amplitudes"][0] = [0.9, 0.0]
        with pytest.raises(ValueError, match="norm"):
            _from_record(record)
