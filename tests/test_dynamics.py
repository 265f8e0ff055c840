import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import oracles
from oracles import dense_expm_evolve, krylov_evolve
from tactsim import dynamics
from tactsim.dynamics import (
    PropagationError,
    _matvec,
    _quarter_turn,
    _quarter_turn_t,
    evolve,
    make_sss,
    rotate,
    tact_generator,
)
from tactsim.observables import spin_moments
from tactsim.operators import (
    BandedOperator,
    build_operator,
    ladder_coefficients,
    ladder_products,
    m_values,
)
from tactsim.reference import default_tau_max
from tactsim.states import CoherentSpinParams, SpinState, basis_state, make_css, make_twin_fock

# drawn examples of the random-state oracle test: with the Krylov oracle on a sparse
# generator, ten take 3-4 s on 2 CPUs, twelve up to 5.5 s, the test's budget being 5 s
MAX_EXAMPLES = 10
ORACLES = pytest.mark.parametrize("oracle", [dense_expm_evolve, krylov_evolve],
                                  ids=["dense", "krylov"])


def _turn(state, axis, angle):
    """exp(-i angle n.J) state for a label "x", "y", "z", or for a unit vector n at polar
    angle theta and azimuth phi composed of label turns, Rz(phi) Ry(theta) Rz(angle)
    Ry(-theta) Rz(-phi): the package turns about x, y and z only, and a vector axis
    checks that those compose as rotations do."""
    if isinstance(axis, str):
        return rotate(state, axis, angle)
    x, y, z = axis
    polar, azimuth = math.atan2(math.hypot(x, y), z), math.atan2(y, x)
    for label, a in (("z", -azimuth), ("y", -polar), ("z", angle), ("y", polar), ("z", azimuth)):
        state = rotate(state, label, a)
    return state


def _rotation_columns(j, axis, angle):
    """exp(-i angle J_axis) as the rotated basis states |J,M>, one column per M."""
    return np.column_stack([_turn(basis_state(j, j - k), axis, angle).amplitudes
                            for k in range(round(2 * j) + 1)])

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
    @ORACLES
    def test_j1_closed_form(self, oracle):
        g = tact_generator(1)
        start = basis_state(1, 1)
        for tau in np.linspace(0, 2.0, 20):
            out = oracle(start, g, tau).amplitudes
            expect = np.array([math.cos(tau), 0.0, math.sin(tau)])
            assert np.max(np.abs(out - expect)) < 1e-10

    def test_zero_time_short_circuits(self):
        s = basis_state(2, 2)
        assert evolve(s, tact_generator(2), 0.0) is s

    def test_j2_matches_dense_exponential_oracle(self):
        g = tact_generator(2)
        out = krylov_evolve(basis_state(2, 2), g, 0.3).amplitudes
        oracle = scipy.linalg.expm(g.to_dense() * 0.3) @ np.eye(5)[0]
        assert np.max(np.abs(out - oracle)) < 1e-10

    def test_group_property(self):
        j = 3.5
        g = tact_generator(j)
        s = make_css(j, CoherentSpinParams(alpha=0.3, beta=1.2))
        one = krylov_evolve(krylov_evolve(s, g, 0.11), g, 0.07)
        two = krylov_evolve(s, g, 0.18)
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
        # dimension 201 exceeds the Krylov space, so substeps are taken
        out = krylov_evolve(basis_state(100, 100), tact_generator(100), 0.02)
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
                a = krylov_evolve(basis_state(j, j), g, tau).amplitudes
                b = dense_expm_evolve(basis_state(j, j), g, tau).amplitudes
                assert np.max(np.abs(a - b)) < 1e-9

    def test_mismatched_spin_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            evolve(basis_state(1, 1), tact_generator(2), 0.1)

    def test_mismatched_spin_reported_before_tau_shape(self):
        # a list of times with the wrong spin names the spin, not the tau shape
        with pytest.raises(ValueError, match="does not match"):
            evolve(basis_state(1, 1), tact_generator(2), [0.1])

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_non_finite_tau_rejected_up_front(self, tau):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="tau must be finite"):
                evolve(basis_state(10, 10), tact_generator(10), tau)

    def test_non_scalar_tau_rejected(self):
        # a ValueError, which the CLI reports as an error rather than a traceback
        with pytest.raises(ValueError, match="tau must be a single time"):
            evolve(basis_state(3, 3), tact_generator(3), [0.1, 0.2])

    def test_substep_cap_fails_loudly(self, monkeypatch):
        # dimension 121 exceeds the Krylov space, so real substepping is
        # needed and the cap of 1 cannot reach the tolerance
        monkeypatch.setattr(oracles, "_KRYLOV_TOL", 1e-12)
        monkeypatch.setattr(oracles, "_KRYLOV_MAX_SUBSTEPS", 1)
        with pytest.raises(PropagationError, match="substeps"):
            krylov_evolve(basis_state(60, 60), tact_generator(60), default_tau_max(60))


class TestSpectralDefault:
    """The default eigensolve route against the dense and Krylov oracles."""

    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    @pytest.mark.parametrize("j", [0.5, 1, 3, 5.5, 10, 50, 100])
    def test_auto_matches_oracles(self, j, gamma):
        g = tact_generator(j, gamma=gamma)
        start = basis_state(j, j)
        for tau in np.linspace(0, default_tau_max(j), 4)[1:]:
            auto = evolve(start, g, tau).amplitudes
            for oracle_evolve in (dense_expm_evolve, krylov_evolve):
                oracle = oracle_evolve(start, g, tau).amplitudes
                assert np.max(np.abs(auto - oracle)) <= 1e-12

    @settings(max_examples=MAX_EXAMPLES, deadline=None, derandomize=True, database=None)
    @given(two_j=st.integers(1, 400), empty=st.sampled_from([None, 0, 1]),
           seed=st.integers(0, 2**32 - 1), chi=st.floats(0.1, 10.0),
           gamma=st.floats(-math.pi, math.pi), fraction=st.floats(0.0, 1.0))
    @example(two_j=1, empty=None, seed=0, chi=1.0, gamma=0.0, fraction=1.0)
    @example(two_j=400, empty=None, seed=0, chi=1.0, gamma=0.0, fraction=1.0)
    def test_evolve_matches_oracles_on_random_states(self, two_j, empty, seed, chi,
                                                     gamma, fraction):
        # a random complex state in both parity sectors or one (empty: the sector
        # left zero); any twisting generator passes evolve's symmetry check
        j = two_j / 2
        rng = np.random.default_rng(seed)
        v = rng.normal(size=two_j + 1) + 1j * rng.normal(size=two_j + 1)
        if empty is not None:
            v[empty::2] = 0.0
        start = SpinState(j, v / np.linalg.norm(v))
        g = tact_generator(j, chi, gamma)
        tau = fraction * default_tau_max(j)
        got = evolve(start, g, tau).amplitudes
        for oracle_evolve in (dense_expm_evolve, krylov_evolve):
            assert np.max(np.abs(got - oracle_evolve(start, g, tau).amplitudes)) <= 1e-12

    def test_general_start_state_matches_dense(self):
        j = 10
        g = tact_generator(j, chi=0.7, gamma=0.9)
        s = make_css(j, CoherentSpinParams(alpha=0.3, beta=1.2))
        for tau in (0.01, 0.2, 1.0):
            auto = evolve(s, g, tau).amplitudes
            dense = dense_expm_evolve(s, g, tau).amplitudes
            assert np.max(np.abs(auto - dense)) <= 1e-12

    @pytest.mark.parametrize("axis", ["x", "y", (0.48, 0.6, 0.64), (0.0, -1.0, 0.0), "z"])
    @pytest.mark.parametrize("j", [0.5, 1, 7.5, 50])
    def test_rotation_matrix_matches_expm(self, j, axis):
        vec = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}.get(axis, axis)
        j_n = sum(c * build_operator(j, kind).to_dense()
                  for c, kind in zip(vec, ("Jx", "Jy", "Jz")))
        for angle in (0.4, math.pi / 2, 2.9):
            mat = _rotation_columns(j, axis, angle)
            oracle = scipy.linalg.expm(-1j * angle * j_n)
            assert np.max(np.abs(mat - oracle)) <= 1e-12

    def test_y_rotation_matrix_is_real(self):
        # every real basis state turns into an exactly real state
        assert not np.any(_rotation_columns(20, "y", 0.7).imag)
        assert not np.any(_rotation_columns(20, "y", -0.7).imag)

    def test_large_y_rotation_matrix_is_real_orthogonal(self):
        eye = np.eye(801)
        turned = _quarter_turn(800, eye)
        assert turned.dtype == np.float64
        assert np.max(np.abs(_quarter_turn_t(800, turned) - eye)) <= 1e-12

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
    return BandedOperator(j, {1: half, -1: half})


def _twist_minus_i_jz2(j):
    """The TACT generator plus -i Jz^2: parity preserving, with a diagonal band."""
    g = tact_generator(j)
    return BandedOperator(j, {**g.bands, 0: -1j * m_values(j) ** 2})


class TestAutoBoundary:
    """The propagator takes only parity-preserving skew-hermitian generators
    with no diagonal band; the oracles take any generator."""

    @pytest.mark.parametrize("make_generator", [_minus_i_jx, lambda j: build_operator(j, "Jz"),
                                                _twist_minus_i_jz2],
                             ids=["odd_offsets", "hermitian", "diagonal_band"])
    def test_auto_rejects_other_generators(self, make_generator):
        with pytest.raises(ValueError, match="dense_expm_evolve and krylov_evolve"):
            evolve(basis_state(3, 3), make_generator(3), 0.2)

    @ORACLES
    @pytest.mark.parametrize("j", [0.5, 3, 7.5, 20])
    def test_oracles_take_a_diagonal_band(self, j, oracle):
        s = make_css(j, CoherentSpinParams(alpha=0.3, beta=1.2))
        g = _twist_minus_i_jz2(j)
        expect = scipy.linalg.expm(g.to_dense() * 0.2) @ s.amplitudes
        assert np.max(np.abs(oracle(s, g, 0.2).amplitudes - expect)) <= 1e-10

    @ORACLES
    @pytest.mark.parametrize("j", [0.5, 3, 7.5, 50])
    def test_oracles_match_x_rotation(self, j, oracle):
        s = make_css(j, CoherentSpinParams(alpha=0.3, beta=1.2))
        g = _minus_i_jx(j)
        for tau in (0.4, math.pi / 2, 2.9):
            oracle_out = oracle(s, g, tau).amplitudes
            assert np.max(np.abs(oracle_out - rotate(s, "x", tau).amplitudes)) <= 1e-12


class TestBipartiteEigh:
    """``_bipartite_eigh`` against scipy's ``eigh_tridiagonal``: eigenvalues and
    the residual ||T V - V diag(values)|| within 1e-13 ||T||, and V^T V within
    1e-13 of the identity."""

    @staticmethod
    def _check(mag):
        values, vectors = dynamics._bipartite_eigh(mag)
        expect = scipy.linalg.eigh_tridiagonal(np.zeros(len(mag) + 1), mag, eigvals_only=True)
        scale = np.max(np.abs(expect))  # ||T||_2, as T is symmetric
        tri = np.diag(mag, 1) + np.diag(mag, -1)
        assert np.max(np.abs(values - expect)) <= 1e-13 * scale
        assert np.linalg.norm(tri @ vectors - vectors * values, 2) <= 1e-13 * scale
        assert np.linalg.norm(vectors.T @ vectors - np.eye(len(values)), 2) <= 1e-13

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 801), seed=st.integers(0, 2**32 - 1), spread=st.floats(0.0, 5.0))
    def test_random_positive_off_diagonals(self, n, seed, spread):
        self._check(np.exp(np.random.default_rng(seed).uniform(-spread, spread, n - 1)))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(two_j=st.integers(1, 1600), chi=st.floats(0.05, 20.0).filter(lambda c: c != 1.0),
           gamma=st.floats(-math.pi, math.pi).filter(lambda g: g != 0.0), parity=st.integers(0, 1))
    def test_twisting_sector_bands(self, two_j, chi, gamma, parity):
        band = tact_generator(two_j / 2, chi=chi, gamma=gamma).bands[2]
        self._check(np.abs(band[parity::2]))


class TestRotate:
    @pytest.mark.parametrize("axis", ["w", "X", None, (0.0, 1.0, 0.0), [0.0, 0.0, 1.0],
                                      (math.nan, 0.0, 0.0), (0.0, math.nan, 1.0),
                                      np.array([0.0, 2.0, 0.0])])
    def test_axis_must_be_a_label(self, axis):
        # rotate turns about x, y and z only: a vector, a NaN one included, fails by name
        with pytest.raises(ValueError, match=r"rotation axis must be one of \('x', 'y', 'z'\)"):
            rotate(basis_state(2, 2), axis, 0.5)

    def test_quarter_turn_about_y_is_the_cached_wigner_matrix(self):
        dense = _quarter_turn(60, np.eye(61))
        for parity, rows in ((0, 31), (1, 30)):  # the odd block has no M = 0 row
            block = dynamics._wigner_block(60, parity)
            assert dynamics._wigner_block(60, parity) is block
            assert block.flags.c_contiguous and not block.flags.writeable
            assert np.array_equal(dense[:rows, parity::2], block)
        s = make_css(40, CoherentSpinParams(alpha=0.3, beta=1.2))
        turned = rotate(s, "y", math.pi / 2).amplitudes
        assert np.max(np.abs(turned - _quarter_turn(80, s.amplitudes))) <= 1e-14

    def test_general_rotation_keeps_no_dense_matrix(self):
        # a (2J+1)^2 complex matrix at J = 1000 would hold 64 MB; about x, the turn
        # Delta Rz(angle) Delta^T uses both of Delta's blocks
        s = make_css(1000, CoherentSpinParams(alpha=0.3, beta=1.2))
        dynamics._wigner_block(2000, 0), dynamics._wigner_block(2000, 1)
        tracemalloc.start()
        try:
            rotate(s, "x", 2.9)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1e6

    @pytest.mark.parametrize("j", [400, 2000])
    @pytest.mark.parametrize("axis", ["x", "y", (0.48, 0.6, 0.64)])
    def test_mean_spin_turns_like_a_vector(self, axis, j):
        # <J> of |J,J> turned by exp(-i t n.J) is J R(n, t) z, with R from scipy
        vec = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0)}.get(axis, axis)
        for t in (0.7, 2.9):
            expect = j * Rotation.from_rotvec(t * np.array(vec)).apply([0.0, 0.0, 1.0])
            got = spin_moments(_turn(basis_state(j, j), axis, t)).mean
            assert np.max(np.abs(np.asarray(got) - expect)) <= 1e-12 * j

    @pytest.mark.parametrize("axis", ["x", "y", (0.48, 0.6, 0.64)])
    @pytest.mark.parametrize("j", [0.5, 1, 7.5, 50, 400, 2000])
    def test_group_law_and_periodicity(self, j, axis):
        s = make_css(j, CoherentSpinParams(alpha=0.3, beta=1.2))
        twice = _turn(_turn(s, axis, 0.7), axis, 1.9).amplitudes
        assert np.max(np.abs(twice - _turn(s, axis, 0.7 + 1.9).amplitudes)) <= 1e-12
        full_turn = _turn(s, axis, 2 * math.pi).amplitudes
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

    def test_norm_preserved(self):
        s = make_css(30, CoherentSpinParams(alpha=1.0, beta=0.4))
        out = rotate(s, "x", 1.3)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10


class TestWignerQuarter:
    """Delta = d^J(pi/2) past the J where its edge row would underflow, against
    oracles that share no code with its recursion."""

    @pytest.mark.parametrize("two_j", [1, 2, 7, 14])
    def test_mirror_symmetry_is_exact(self, two_j):
        # d_{-M,M'} = (-1)^(J-M') d_{M,M'}: even columns mirror, odd ones flip sign
        eye = np.eye(two_j + 1)
        even, odd = _quarter_turn(two_j, eye[:, 0::2]), _quarter_turn(two_j, eye[:, 1::2])
        assert np.array_equal(even[::-1], even)
        assert np.array_equal(odd[::-1], -odd)
        if two_j % 2 == 0:
            assert np.all(odd[two_j // 2] == 0.0)  # d_{0,M'} for odd J - M'

    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("two_j", [1, 2, 7, 14, 399, 400])
    def test_each_block_alone(self, two_j, parity):
        # Delta's columns k = J - M' of one parity, built and applied without the
        # other block: square top rows (M >= 0), of which the odd block leaves out
        # the M = 0 row, zero for integer J; the edge row is the closed form
        # d_{J,M'} = (-1)^(J-M') sqrt(C(2J, J-M')) / 2^J and each column is the Jx
        # eigenvector of eigenvalue M'
        dynamics._wigner_block.cache_clear()
        n, j = two_j + 1, two_j / 2
        cols = _quarter_turn(two_j, np.eye(n)[:, parity::2])
        block = dynamics._wigner_block(two_j, parity)
        assert dynamics._wigner_block.cache_info().currsize == 1
        rows = n // 2 if parity else (n + 1) // 2
        assert block.shape == (rows, rows)
        assert np.array_equal(cols[:rows], block)
        if parity and n % 2:
            assert np.all(cols[rows] == 0.0)
        k = np.arange(parity, n, 2)
        edge = [(-1) ** kk * math.sqrt(math.comb(two_j, kk)) / 2**j for kk in k]
        assert np.max(np.abs(block[0] - edge)) <= 1e-14
        up, down = ladder_products(j, cols)  # Jx = (J+ + J-) / 2
        assert np.max(np.abs((up + down) / 2 - cols * (j - k))) <= 1e-12 * max(1.0, j)

    @pytest.mark.parametrize("j", [1100, 2000])
    def test_against_closed_forms_and_jx(self, j):
        m = np.arange(j, -j - 1, -1)
        n = 2 * j + 1
        # column M' = J is |J,J> turned by pi/2 about y: the coherent state
        css = make_css(j, CoherentSpinParams(beta=math.pi / 2)).amplitudes
        assert np.max(np.abs(_quarter_turn(2 * j, np.eye(1, n, 0)[0]) - css)) <= 1e-12
        # make_twin_fock = exp(-i pi/2 Jx)|J,0> = i^Jz Delta |J,0>
        tfs = make_twin_fock(j).amplitudes
        quarter_turns = np.array([1, -1j, -1, 1j])[m % 4]  # (-i)^M, exactly
        delta_j = _quarter_turn(2 * j, np.eye(1, n, j)[0])
        assert np.max(np.abs(delta_j - quarter_turns * tfs)) <= 1e-12
        for v in (np.eye(1, n, 3)[0], np.full(n, n ** -0.5),
                  np.cos(np.arange(n)) / math.sqrt(n / 2)):
            assert np.max(np.abs(_quarter_turn_t(2 * j, _quarter_turn(2 * j, v)) - v)) <= 1e-12
        # Jx Delta = Delta diag(M); Jx has norm J, so the residual is taken
        # relative to J (the absolute one is 1.5e-12 at J=1100, 1.7e-12 at 2000)
        for cols in np.array_split(np.arange(n), 8):
            block = _quarter_turn(2 * j, np.eye(n, len(cols), -cols[0]))  # Delta[:, cols]
            up, down = ladder_products(j, block)  # Jx = (J+ + J-) / 2
            assert np.max(np.abs((up + down) / 2 - block * m[cols])) <= 1e-12 * j

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(two_j=st.integers(1, 400), sectors=st.sampled_from([(0,), (1,), (0, 1)]),
           seed=st.integers(0, 2**32 - 1))
    def test_block_apply_matches_the_dense_matrix(self, two_j, sectors, seed):
        n, j = two_j + 1, two_j / 2
        rng = np.random.default_rng(seed)
        v = np.zeros(n, dtype=complex)
        for p in sectors:
            v[p::2] = rng.normal(size=len(v[p::2])) + 1j * rng.normal(size=len(v[p::2]))
        v /= np.linalg.norm(v)
        dense = _quarter_turn(two_j, np.eye(n))
        out = _quarter_turn(two_j, v)
        assert np.max(np.abs(out - dense @ v)) <= 1e-14
        assert np.max(np.abs(_quarter_turn_t(two_j, v) - dense.T @ v)) <= 1e-14
        if sectors != (0, 1):  # rows -M are rows M times (-1)^(J-M')
            assert np.array_equal(out[::-1], out if sectors == (0,) else -out)
        resident = sum(dynamics._wigner_block(two_j, p).nbytes for p in (0, 1))
        assert resident == (((n + 1) // 2) ** 2 + (n // 2) ** 2) * 8
        assert resident <= (j + 1) * (2 * j + 2) * 8


class TestMatvec:
    @pytest.mark.parametrize("shape", [(7, 4), (4, 7)])
    @pytest.mark.parametrize("columns", [(), (3,)])
    def test_real_block_times_complex_columns(self, shape, columns):
        rng = np.random.default_rng(3)
        a = rng.normal(size=shape)
        x = rng.normal(size=shape[1:] + columns) + 1j * rng.normal(size=shape[1:] + columns)
        out = _matvec(a, x)
        assert out.shape == shape[:1] + columns
        assert np.max(np.abs(out - a.astype(complex) @ x)) <= 1e-14
        assert np.array_equal(_matvec(a, x.real + 0j), a @ x.real)


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
                    assert np.max(np.abs(_rotation_columns(j, axis, angle) - oracle)) <= 1e-13

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

    @pytest.mark.parametrize("j", [0.5, 5.5, 10, 100, 400, 1000])
    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    def test_matches_propagating_basis_state(self, j, gamma):
        # the windowed modes against the full propagator on |J,J>, then the same rotation
        gen = tact_generator(j, gamma=gamma)
        for fraction in (0.0, 0.3, 0.8):
            tau = fraction * default_tau_max(j)
            got = make_sss(j, tau, gamma=gamma)
            expect = rotate(evolve(basis_state(j, j), gen, tau), "y", math.pi / 2)
            assert got.j == expect.j
            assert np.max(np.abs(got.amplitudes - expect.amplitudes)) <= 1e-13

    @pytest.mark.parametrize("j, kept", [(10, 11), (100, 77), (400, 117), (1000, 141)])
    def test_window_keeps_the_modes_of_the_initial_state(self, j, kept):
        spectrum = dynamics._twist_spectrum(j, 1.0, 0.0)
        lam, modes, real = spectrum
        assert len(lam) == modes.shape[1] == kept
        assert modes.shape[0] == round(j) + 1
        assert real is True
        for arr in (lam, modes):
            assert not arr.flags.writeable
        assert dynamics._twist_spectrum(float(j), 1.0, 0.0) is spectrum

    def test_no_eigensolve_or_propagator_call_when_warm(self, monkeypatch):
        make_sss(60, 0.01)

        def forbidden(*args, **kwargs):
            raise AssertionError("a warm make_sss reached the general propagator")

        for name in ("evolve", "_cached_eigensystem", "_bipartite_eigh"):
            monkeypatch.setattr(dynamics, name, forbidden)
        assert make_sss(60, 0.02).j == 60

    def test_generator_built_once_per_spin(self, monkeypatch):
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return tact_generator(*args, **kwargs)

        monkeypatch.setattr(dynamics, "tact_generator", counted)
        dynamics._twist_spectrum.cache_clear()
        for tau in (0.01, 0.02, 0.03):
            make_sss(7, tau)
        assert len(built) == 1


class TestConfigValidation:
    def test_protocol_validation(self):
        with pytest.raises(ValueError, match="chi must be positive and finite"):
            make_sss(5, 0.1, chi=0.0)
        with pytest.raises(ValueError, match="gamma must be finite"):
            make_sss(5, 0.1, gamma=math.nan)
        with pytest.raises(ValueError, match="gamma must be finite"):
            tact_generator(5, gamma=math.inf)
        with pytest.raises(ValueError, match="tau"):
            make_sss(5, -1.0)

    def test_non_scalar_tau_rejected(self):
        # evolve's message, not numpy's "truth value of an array is ambiguous"
        with pytest.raises(ValueError, match="tau must be a single time"):
            make_sss(5, np.array([0.1, 0.2]))
