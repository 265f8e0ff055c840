import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg

from tactsim import dynamics
from tactsim.dynamics import (
    PropagationError,
    PropagatorConfig,
    TwistProtocol,
    _rotation_matrix,
    evolve,
    evolve_many,
    make_sss,
    rotate,
    tact_generator,
)
from tactsim.observables import spin_moments
from tactsim.operators import SKEW_HERMITIAN, BandedOperator, build_operator, ladder_coefficients
from tactsim.reference import default_tau_max
from tactsim.states import CoherentSpinParams, basis_state, make_css, make_twin_fock

KRYLOV = PropagatorConfig(method="krylov")
DENSE = PropagatorConfig(method="dense_expm")


class TestGenerator:
    def test_j1_entries(self):
        g = tact_generator(1).to_dense()
        expect = np.zeros((3, 3))
        expect[0, 2] = -1.0  # couples M=1 <- M=-1
        expect[2, 0] = 1.0
        assert np.allclose(g, expect, atol=1e-15)

    def test_spin_half_is_zero(self):
        g = tact_generator(0.5).to_dense()
        assert np.array_equal(g, np.zeros((2, 2)))

    def test_j2_antisymmetric(self):
        g = tact_generator(2).to_dense()
        assert np.max(np.abs(g + g.T)) == 0.0

    def test_general_gamma_skew_hermitian(self):
        g = tact_generator(2, chi=0.7, gamma=0.9).to_dense()
        assert np.max(np.abs(g + g.conj().T)) < 1e-14

    def test_gamma_zero_is_real(self):
        assert tact_generator(3).is_real


class TestEvolve:
    @pytest.mark.parametrize("cfg", [DENSE, KRYLOV], ids=["dense", "krylov"])
    def test_j1_closed_form(self, cfg):
        g = tact_generator(1)
        start = basis_state(1, 1)
        for tau in np.linspace(0, 2.0, 20):
            out = evolve(start, g, tau, cfg).amplitudes
            expect = np.array([math.cos(tau), 0.0, math.sin(tau)])
            assert np.max(np.abs(out - expect)) < 1e-10

    def test_zero_time_short_circuits(self):
        s = basis_state(2, 2)
        assert evolve(s, tact_generator(2), 0.0) is s

    def test_j2_matches_dense_exponential_oracle(self):
        g = tact_generator(2)
        out = evolve(basis_state(2, 2), g, 0.3, KRYLOV).amplitudes
        oracle = scipy.linalg.expm(g.to_dense() * 0.3) @ np.eye(5)[0]
        assert np.max(np.abs(out - oracle)) < 1e-10

    def test_group_property(self):
        j = 3.5
        g = tact_generator(j)
        s = make_css(j, CoherentSpinParams(alpha=0.3, beta=1.2))
        one = evolve(evolve(s, g, 0.11, KRYLOV), g, 0.07, KRYLOV)
        two = evolve(s, g, 0.18, KRYLOV)
        assert np.max(np.abs(one.amplitudes - two.amplitudes)) < 1e-9

    @pytest.mark.parametrize("j", [1, 5, 50])
    def test_unitarity(self, j):
        g = tact_generator(j)
        for tau in np.linspace(0, default_tau_max(j), 7):
            out = evolve(basis_state(j, j), g, tau)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10

    @pytest.mark.parametrize("j", [5, 50])
    def test_parity_block_stays_exactly_empty(self, j):
        g = tact_generator(j)
        out = evolve(basis_state(j, j), g, 0.8 * default_tau_max(j))
        assert np.all(out.amplitudes[1::2] == 0.0)

    def test_krylov_keeps_real_states_real(self):
        # block dimension 51 exceeds the Krylov space, so substeps are taken
        out = evolve(basis_state(100, 100), tact_generator(100), 0.02, KRYLOV)
        assert out.real_flag

    def test_reality_preserved_at_gamma_zero(self):
        out = evolve(basis_state(20, 20), tact_generator(20), 0.05)
        assert out.real_flag
        rotated = rotate(out, "y", math.pi / 2)
        assert rotated.real_flag

    def test_krylov_agrees_with_dense(self):
        for j in (3, 5.5, 10):
            g = tact_generator(j)
            for tau in np.linspace(0, default_tau_max(j), 9):
                a = evolve(basis_state(j, j), g, tau, KRYLOV).amplitudes
                b = evolve(basis_state(j, j), g, tau, DENSE).amplitudes
                assert np.max(np.abs(a - b)) < 1e-9

    def test_mismatched_spin_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            evolve(basis_state(1, 1), tact_generator(2), 0.1)

    def test_substep_cap_fails_loudly(self):
        # block dimension 61 exceeds the Krylov space, so real substepping
        # is needed and the cap of 1 cannot reach the tolerance
        cfg = PropagatorConfig(method="krylov", tolerance=1e-12, max_substeps=1)
        with pytest.raises(PropagationError, match="substeps"):
            evolve(basis_state(60, 60), tact_generator(60), default_tau_max(60), cfg)


class TestSpectralDefault:
    """The default eigensolve route against the dense and Krylov oracles."""

    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    @pytest.mark.parametrize("j", [0.5, 1, 3, 5.5, 10, 50, 100])
    def test_auto_matches_oracles(self, j, gamma):
        g = tact_generator(j, gamma=gamma)
        start = basis_state(j, j)
        for tau in np.linspace(0, default_tau_max(j), 4)[1:]:
            auto = evolve(start, g, tau).amplitudes
            for cfg in (DENSE, KRYLOV):
                oracle = evolve(start, g, tau, cfg).amplitudes
                assert np.max(np.abs(auto - oracle)) <= 1e-12

    def test_general_start_state_matches_dense(self):
        j = 10
        g = tact_generator(j, chi=0.7, gamma=0.9)
        s = make_css(j, CoherentSpinParams(alpha=0.3, beta=1.2))
        for tau in (0.01, 0.2, 1.0):
            auto = evolve(s, g, tau).amplitudes
            dense = evolve(s, g, tau, DENSE).amplitudes
            assert np.max(np.abs(auto - dense)) <= 1e-12

    @pytest.mark.parametrize("axis", ["x", "y", (0.48, 0.6, 0.64), (0.0, -1.0, 0.0)])
    @pytest.mark.parametrize("j", [0.5, 1, 7.5, 50])
    def test_rotation_matrix_matches_expm(self, j, axis):
        vec = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0)}.get(axis, axis)
        j_n = sum(c * build_operator(j, kind).to_dense()
                  for c, kind in zip(vec, ("Jx", "Jy", "Jz")))
        for angle in (0.4, math.pi / 2, 2.9):
            mat = _rotation_matrix(j, axis, angle)
            oracle = scipy.linalg.expm(-1j * angle * j_n)
            assert np.max(np.abs(mat - oracle)) <= 1e-12

    def test_y_rotation_matrix_is_real(self):
        assert not np.iscomplexobj(_rotation_matrix(20, "y", 0.7))
        assert not np.iscomplexobj(_rotation_matrix(20, (0.0, -1.0, 0.0), 0.7))

    def test_large_y_rotation_matrix_is_real_orthogonal(self):
        mat = _rotation_matrix(400, "y", math.pi / 2)
        assert mat.dtype == np.float64
        assert np.max(np.abs(mat @ mat.T - np.eye(801))) <= 1e-12

    @pytest.mark.parametrize("j", [3, 50, 100])
    def test_real_flag_survives_evolve_and_y_rotation(self, j):
        out = evolve(basis_state(j, j), tact_generator(j), 0.5 * default_tau_max(j))
        assert out.real_flag
        assert rotate(out, "y", math.pi / 2).real_flag

    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    def test_empty_parity_sector_stays_exactly_zero(self, gamma):
        for j in (5.5, 100):
            g = tact_generator(j, gamma=gamma)
            for parity in (0, 1):
                start = basis_state(j, j - parity)
                out = evolve(start, g, default_tau_max(j)).amplitudes
                assert np.all(out[1 - parity::2] == 0.0)


def _minus_i_jx(j):
    """G = -i Jx: skew-hermitian, but it couples the two M-parity sectors."""
    half = -0.5j * ladder_coefficients(j)
    return BandedOperator(j, {1: half, -1: half}, SKEW_HERMITIAN)


class TestAutoBoundary:
    """``auto`` takes only parity-preserving skew-hermitian generators; the
    oracles take any generator."""

    @pytest.mark.parametrize("make_generator", [_minus_i_jx, lambda j: build_operator(j, "Jz")],
                             ids=["odd_offsets", "hermitian"])
    def test_auto_rejects_other_generators(self, make_generator):
        for propagate in (evolve, lambda s, g, tau: evolve_many(s, g, [tau])):
            with pytest.raises(ValueError, match="dense_expm"):
                propagate(basis_state(3, 3), make_generator(3), 0.2)

    @pytest.mark.parametrize("cfg", [DENSE, KRYLOV], ids=["dense", "krylov"])
    @pytest.mark.parametrize("j", [0.5, 3, 7.5, 50])
    def test_oracles_match_x_rotation(self, j, cfg):
        s = make_css(j, CoherentSpinParams(alpha=0.3, beta=1.2))
        g = _minus_i_jx(j)
        for tau in (0.4, math.pi / 2, 2.9):
            oracle = evolve(s, g, tau, cfg).amplitudes
            assert np.max(np.abs(oracle - rotate(s, "x", tau).amplitudes)) <= 1e-12


class TestEvolveMany:
    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    @pytest.mark.parametrize("j", [0.5, 1, 5.5, 50])
    def test_columns_match_repeated_evolve(self, j, gamma):
        g = tact_generator(j, gamma=gamma)
        taus = np.linspace(0, default_tau_max(j), 9)
        for start in (basis_state(j, j), make_css(j, CoherentSpinParams(0.3, 1.2))):
            block = evolve_many(start, g, taus)
            assert block.shape == (start.dim, len(taus))
            for k, tau in enumerate(taus):
                assert np.max(np.abs(block[:, k] - evolve(start, g, tau).amplitudes)) <= 1e-12

    @pytest.mark.parametrize("cfg", [DENSE, KRYLOV], ids=["dense", "krylov"])
    def test_oracles_stack_evolve_columns(self, cfg):
        g = tact_generator(5, gamma=0.3)
        block = evolve_many(basis_state(5, 5), g, [0.05, 0.2], cfg)
        for k, tau in enumerate([0.05, 0.2]):
            assert np.array_equal(block[:, k], evolve(basis_state(5, 5), g, tau, cfg).amplitudes)

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_non_finite_tau_rejected_up_front(self, tau):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="tau must be finite"):
                evolve_many(basis_state(10, 10), tact_generator(10), [0.1, tau])

    def test_mismatched_spin_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            evolve_many(basis_state(1, 1), tact_generator(2), [0.1])

    def test_generator_built_once_per_spin(self, monkeypatch):
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return tact_generator(*args, **kwargs)

        monkeypatch.setattr(dynamics, "tact_generator", counted)
        dynamics._shared_generator.cache_clear()
        for tau in (0.01, 0.02, 0.03):
            make_sss(7, tau)
        assert len(built) == 1


class TestRotate:
    @pytest.mark.parametrize("make_axis", [np.array, list, tuple])
    def test_axis_sequence_types_agree(self, make_axis):
        s = make_css(6, CoherentSpinParams(alpha=0.2, beta=0.9))
        expect = rotate(s, (0.0, 0.6, 0.8), 0.5).amplitudes
        assert np.array_equal(rotate(s, make_axis([0.0, 0.6, 0.8]), 0.5).amplitudes, expect)

    def test_non_unit_array_axis_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            rotate(basis_state(2, 2), np.array([0.0, 2.0, 0.0]), 0.5)

    @pytest.mark.parametrize("axis", [(math.nan, 0.0, 0.0), (0.0, math.nan, 1.0)])
    def test_nan_axis_rejected_by_name(self, axis):
        with pytest.raises(ValueError, match="normalized"):
            rotate(basis_state(2, 2), axis, 0.5)
        with pytest.raises(ValueError, match="normalized"):
            TwistProtocol(rotation_axis=axis)

    def test_axis_length_scales_the_angle(self):
        # exp(-i angle n.J) for an accepted axis 9e-13 longer than unit
        s = make_css(400, CoherentSpinParams(alpha=0.3, beta=1.2))
        axis = np.array([0.48, 0.6, 0.64]) * (1 + 9e-13)
        length = float(np.linalg.norm(axis))
        expect = rotate(s, tuple(axis / length), 2.9 * length).amplitudes
        assert np.max(np.abs(rotate(s, tuple(axis), 2.9).amplitudes - expect)) <= 1e-12

    def test_quarter_turn_about_y_is_the_cached_wigner_matrix(self):
        first = _rotation_matrix(30, "y", math.pi / 2)
        assert _rotation_matrix(30, "y", math.pi / 2) is first
        assert not first.flags.writeable
        assert np.array_equal(first, dynamics._wigner_quarter(60))

    @pytest.mark.parametrize("axis", ["x", "y", (0.48, 0.6, 0.64)])
    @pytest.mark.parametrize("j", [0.5, 1, 7.5, 50, 400])
    def test_group_law_and_periodicity(self, j, axis):
        s = make_css(j, CoherentSpinParams(alpha=0.3, beta=1.2))
        twice = rotate(rotate(s, axis, 0.7), axis, 1.9).amplitudes
        assert np.max(np.abs(twice - rotate(s, axis, 0.7 + 1.9).amplitudes)) <= 1e-12
        full_turn = rotate(s, axis, 2 * math.pi).amplitudes
        sign = (-1) ** round(2 * j)
        assert np.max(np.abs(full_turn - sign * s.amplitudes)) <= 1e-12

    def test_z_rotation_is_global_phase_on_highest_weight(self):
        s = basis_state(4, 4)
        out = rotate(s, "z", 0.77)
        assert np.allclose(np.abs(out.amplitudes), np.abs(s.amplitudes), atol=1e-15)
        assert abs(out.amplitudes[0] - np.exp(-1j * 0.77 * 4)) < 1e-14

    def test_y_rotation_spin_half(self):
        out = rotate(basis_state(0.5, 0.5), "y", math.pi / 2)
        assert np.allclose(out.amplitudes.real, [1 / math.sqrt(2)] * 2, atol=1e-14)

    def test_x_rotation_defines_twin_fock(self):
        out = rotate(basis_state(1, 0), "x", math.pi / 2)
        assert np.allclose(out.amplitudes, make_twin_fock(1).amplitudes, atol=1e-15)

    def test_vector_axis_matches_label(self):
        s = make_css(2, CoherentSpinParams(alpha=0.2, beta=0.9))
        a = rotate(s, "y", 0.6)
        b = rotate(s, (0.0, 1.0, 0.0), 0.6)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-13

    def test_norm_preserved(self):
        s = make_css(30, CoherentSpinParams(alpha=1.0, beta=0.4))
        out = rotate(s, "x", 1.3)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


class TestWignerQuarter:
    """Delta = d^J(pi/2) past the J where its edge row would underflow, against
    oracles that share no code with its recursion."""

    @pytest.mark.parametrize("two_j", [1, 2, 7, 14])
    def test_mirror_symmetry_is_exact(self, two_j):
        delta = dynamics._wigner_quarter(two_j)
        sign = (-1.0) ** np.arange(two_j + 1)  # (-1)^(J-M')
        assert np.array_equal(delta[::-1], delta * sign)  # d_{-M,M'} = (-1)^(J-M') d_{M,M'}
        if two_j % 2 == 0:
            assert np.all(delta[two_j // 2, 1::2] == 0.0)  # d_{0,M'} for odd J - M'

    @pytest.mark.parametrize("j", [1100, 2000])
    def test_against_closed_forms_and_jx(self, j):
        delta = dynamics._wigner_quarter(2 * j)
        m = np.arange(j, -j - 1, -1)
        # column M' = J is |J,J> turned by pi/2 about y: the coherent state
        css = make_css(j, CoherentSpinParams(beta=math.pi / 2)).amplitudes
        assert np.max(np.abs(delta[:, 0] - css)) <= 1e-12
        # make_twin_fock = exp(-i pi/2 Jx)|J,0> = i^Jz Delta |J,0>
        tfs = make_twin_fock(j).amplitudes
        quarter_turns = np.array([1, -1j, -1, 1j])[m % 4]  # (-i)^M, exactly
        assert np.max(np.abs(delta[:, j] - quarter_turns * tfs)) <= 1e-12
        n = 2 * j + 1
        for v in (np.eye(n)[3], np.full(n, n ** -0.5), np.cos(np.arange(n)) / math.sqrt(n / 2)):
            assert np.max(np.abs(delta.T @ (delta @ v) - v)) <= 1e-12
        # Jx Delta = Delta diag(M); Jx has norm J, so the residual is taken
        # relative to J (the absolute one is 1.5e-12 at J=1100, 1.7e-12 at 2000)
        jx = build_operator(j, "Jx")
        for cols in np.array_split(np.arange(n), 8):
            block = delta[:, cols]
            assert np.max(np.abs(jx.apply(block) - block * m[cols])) <= 1e-12 * j


def _mp_spin_matrices(j):
    """J+, Jx, Jy, Jz as mpmath matrices from the textbook matrix elements
    <M|J+|M-1> = sqrt(J(J+1) - M(M-1)), indexed by descending M."""
    n = round(2 * j) + 1
    jp, jz = mpmath.zeros(n, n), mpmath.zeros(n, n)
    for a in range(n):
        m = mpmath.mpf(j) - a
        jz[a, a] = m
        if a + 1 < n:
            jp[a, a + 1] = mpmath.sqrt(j * (j + 1) - m * (m - 1))
    jm = jp.T
    return jp, (jp + jm) / 2, (jp - jm) / 2j, jz


class TestMpmathOracle:
    """40-digit mpmath.expm shares neither LAPACK nor any package code with
    the rotations and the propagator."""

    @pytest.mark.parametrize("j", [0.5, 1, 2.5, 6])
    def test_rotations(self, j):
        with mpmath.workdps(40):
            _, jx, jy, jz = _mp_spin_matrices(j)
            for axis in ("x", "y", (0.48, 0.6, 0.64)):
                vec = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0)}.get(axis, axis)
                j_n = vec[0] * jx + vec[1] * jy + vec[2] * jz
                for angle in (0.4, math.pi / 2, 2.9):
                    oracle = np.array(mpmath.expm(-1j * angle * j_n).tolist(), dtype=complex)
                    assert np.max(np.abs(_rotation_matrix(j, axis, angle) - oracle)) <= 1e-13

    @pytest.mark.parametrize("j", [2.5, 6])
    def test_twisting(self, j):
        chi, gamma = 0.7, 0.3
        with mpmath.workdps(40):
            jp = _mp_spin_matrices(j)[0]
            jm = jp.T
            g = -(chi / 2) * (mpmath.exp(-2j * gamma) * jp * jp - mpmath.exp(2j * gamma) * jm * jm)
            for tau in (0.05, 0.6):
                oracle = np.array(mpmath.expm(g * tau).tolist(), dtype=complex)[:, 0]
                got = evolve(basis_state(j, j), tact_generator(j, chi, gamma), tau).amplitudes
                assert np.max(np.abs(got - oracle)) <= 1e-13


class TestMakeSSS:
    def test_j1_quarter_pi_reaches_max_fluctuation(self):
        s = make_sss(1, math.pi / 4)
        assert abs(spin_moments(s).variance_z - 1.0) < 1e-12

    def test_zero_time_gives_x_polarized_css(self):
        s = make_sss(50, 0.0)
        m = spin_moments(s)
        assert abs(m.variance_z - 25.0) < 1e-10
        assert abs(m.mean[0] - 50.0) < 1e-9

    def test_spin_half_only_rotates(self):
        s = make_sss(0.5, 5.0)
        expect = rotate(basis_state(0.5, 0.5), "y", math.pi / 2)
        assert np.allclose(s.amplitudes, expect.amplitudes, atol=1e-14)


class TestConfigValidation:
    def test_tolerance_range(self):
        with pytest.raises(ValueError, match="tolerance"):
            PropagatorConfig(tolerance=1e-5)
        with pytest.raises(ValueError, match="tolerance"):
            PropagatorConfig(tolerance=0.0)

    def test_method_names(self):
        with pytest.raises(ValueError, match="method"):
            PropagatorConfig(method="magnus")

    def test_substep_cap_positive(self):
        with pytest.raises(ValueError, match="max_substeps"):
            PropagatorConfig(max_substeps=0)

    def test_protocol_validation(self):
        with pytest.raises(ValueError, match="chi"):
            TwistProtocol(chi=0.0)
        with pytest.raises(ValueError, match="tau"):
            TwistProtocol(tau=-1.0)
        with pytest.raises(ValueError, match="normalized"):
            TwistProtocol(rotation_axis=(1.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="axis label"):
            TwistProtocol(rotation_axis="w")
