import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tactsim import dynamics, observables
from tactsim.dynamics import make_sss, rotate
from tactsim.observables import (
    FieldEstimationParams,
    QpdGrid,
    fidelity,
    fisher_bound,
    prob_distribution,
    qpd,
    spin_moments,
)
from tactsim.operators import build_operator
from tactsim.reference import default_tau_max
from tactsim.states import (
    CoherentSpinParams,
    SpinState,
    basis_state,
    css_magnitudes,
    make_cat,
    make_css,
    make_ewss,
    make_twin_fock,
)


class TestFidelity:
    def test_self_overlap_is_one(self):
        s = make_css(3, CoherentSpinParams(alpha=0.4, beta=1.0))
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_basis_states(self):
        assert fidelity(basis_state(2, 2), basis_state(2, -2)) == 0.0

    def test_cat_against_pole(self):
        assert fidelity(make_cat(4), basis_state(4, 4)) == pytest.approx(0.5, abs=1e-14)

    def test_symmetric_and_phase_invariant(self):
        from tactsim.states import SpinState

        a = make_css(2, CoherentSpinParams(alpha=0.3, beta=0.8))
        b = make_twin_fock(2)
        assert fidelity(a, b) == fidelity(b, a)
        phased = SpinState(j=a.j, amplitudes=a.amplitudes * np.exp(0.7j))
        assert fidelity(phased, b) == pytest.approx(fidelity(a, b), abs=1e-15)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(two_j=st.integers(1, 100), seed=st.integers(0, 2**32 - 1),
           phase_a=st.floats(-10.0, 10.0), phase_b=st.floats(-10.0, 10.0))
    def test_symmetric_and_phase_invariant_on_random_states(self, two_j, seed, phase_a,
                                                            phase_b):
        rng = np.random.default_rng(seed)
        a, b = (rng.normal(size=(two_j + 1, 2)) @ np.array([1.0, 1j]) for _ in range(2))
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        sa, sb = SpinState(two_j / 2, a), SpinState(two_j / 2, b)
        assert fidelity(sa, sb) == fidelity(sb, sa)
        phased = fidelity(SpinState(two_j / 2, a * np.exp(1j * phase_a)),
                          SpinState(two_j / 2, b * np.exp(1j * phase_b)))
        assert phased == pytest.approx(fidelity(sa, sb), abs=1e-14)

    def test_mismatched_spins_rejected(self):
        with pytest.raises(ValueError, match="different spins"):
            fidelity(make_ewss(1), make_ewss(2))


class TestProbDistribution:
    def test_ewss_uniform(self):
        assert np.allclose(prob_distribution(make_ewss(1)), [1 / 3] * 3, atol=1e-16)

    def test_cat(self):
        assert np.allclose(prob_distribution(make_cat(1)), [0.5, 0, 0.5], atol=1e-16)

    def test_sums_to_one(self):
        for state in (make_css(20, CoherentSpinParams(1.1, 0.7)),
                      make_twin_fock(10), make_sss(10, 0.05)):
            assert abs(prob_distribution(state).sum() - 1.0) < 1e-12


def _gauss_legendre(m):
    """Nodes and weights of the m-point Gauss-Legendre rule, rounded from 30 digits.

    numpy's nodes take one Newton step and w = 2 (1 - x^2) / (m P_{m-1}(x))^2 is
    evaluated there; numpy's own end weights are off by 3e-11 relative at m = 201.
    The rule is symmetric, so half the nodes are computed and mirrored."""
    half = []
    with mpmath.workdps(30):
        for guess in np.polynomial.legendre.leggauss(m)[0][: (m + 1) // 2]:
            x = mpmath.mpf(guess)
            for newton in (True, False):
                p_prev, p = mpmath.mpf(1), x
                for n in range(2, m + 1):  # (n) P_n = (2n - 1) x P_{n-1} - (n - 1) P_{n-2}
                    p_prev, p = p, ((2 * n - 1) * x * p - (n - 1) * p_prev) / n
                if newton:  # P_m' = m (x P_m - P_{m-1}) / (x^2 - 1)
                    x -= p * (x * x - 1) / (m * (x * p - p_prev))
            half.append((float(x), float(2 * (1 - x * x) / (m * p_prev) ** 2)))
    x, w = np.array(half).T
    return np.concatenate((x, -x[: m // 2][::-1])), np.concatenate((w, w[: m // 2][::-1]))


# (name, state, n_phi, has complex amplitudes) for the direct inner-product check
_DIRECT_CASES = [
    ("sss-j4-nphi12", lambda: make_sss(4, 0.2), 12, False),
    ("sss-j30-nphi16-folded", lambda: make_sss(30, 0.05), 16, False),
    ("sss-j20-nphi7-odd", lambda: make_sss(20, 0.05), 7, False),
    ("sss-j10-nphi2", lambda: make_sss(10, 0.05), 2, False),
    ("sss-j179-nphi360", lambda: make_sss(179, 0.003), 360, False),
    ("sss-j180-nphi360-folded", lambda: make_sss(180, 0.003), 360, False),
    ("css-j5-nphi7-odd", lambda: make_css(5, CoherentSpinParams(0.7, 1.1)), 7, True),
    ("css-j30-nphi13-folded", lambda: make_css(30, CoherentSpinParams(2.0, 0.9)), 13, True),
    ("css-j10-nphi2", lambda: make_css(10, CoherentSpinParams(0.4, 2.0)), 2, True),
    ("css-j180-nphi360-folded", lambda: make_css(180, CoherentSpinParams(1.3, 1.2)), 360, True),
    ("sss-gamma-j10-nphi13", lambda: make_sss(10, 0.05, gamma=0.3), 13, True),
    ("sss-gamma-j180-nphi360", lambda: make_sss(180, 0.003, gamma=0.3), 360, True),
]


class TestQpd:
    def test_pole_state(self):
        grid = qpd(basis_state(5, 5), n_phi=16, n_theta=9)
        assert grid.value_at(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert grid.value_at(0.0, math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_ewss_j1_equator_value(self):
        # independent 3-term oracle: CSS(0, pi/2) coefficients against
        # uniform 1/sqrt(3) amplitudes give ((1 + sqrt(2)/2)^2)/3
        oracle = (0.5 + 1 / math.sqrt(2) + 0.5) ** 2 / 3
        assert oracle == pytest.approx(0.5 + math.sqrt(2) / 3, abs=1e-15)
        grid = qpd(make_ewss(1), n_phi=8, n_theta=5)
        assert grid.value_at(0.0, math.pi / 2) == pytest.approx(oracle, abs=1e-13)

    def test_values_bounded_by_one(self):
        grid = qpd(make_sss(10, 0.1), n_phi=48, n_theta=24)
        assert grid.values.max() <= 1.0
        assert grid.values.min() >= 0.0

    @staticmethod
    def _direct(state, grid):
        """|<CSS(phi, theta)|state>|^2 at every node of the grid, as inner products."""
        css_phases = np.exp(-1j * np.outer(grid.phis, np.arange(state.dim)))  # (n_phi, 2J+1)
        return np.abs(css_phases @ (css_magnitudes(state.j, grid.thetas)
                                    * state.amplitudes[:, None])) ** 2

    def test_matches_direct_inner_products(self):
        # real amplitudes take the real FFT and the phi mirror, complex ones the full FFT
        for name, make, n_phi, complex_amps in _DIRECT_CASES:
            state = make()
            assert bool(np.any(state.amplitudes.imag)) == complex_amps, name
            grid = qpd(state, n_phi=n_phi, n_theta=7)
            assert np.max(np.abs(grid.values - self._direct(state, grid))) <= 1e-13, name

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(two_j=st.integers(1, 900), complex_amps=st.booleans(), symmetric=st.booleans(),
           folded=st.booleans(), phi_fraction=st.floats(0.0, 1.0), n_theta=st.integers(2, 9),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_direct_inner_products_on_random_states(
            self, two_j, complex_amps, symmetric, folded, phi_fraction, n_theta, seed):
        # every route: real or complex, a_-M = a_M or not (the theta mirror), n_phi
        # below 2J+1 (the fold) or above it (the zero padding), odd or even n_theta
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=two_j + 1) + 1j * complex_amps * rng.normal(size=two_j + 1)
        if symmetric:
            amps = amps + amps[::-1]
        state = SpinState(j=two_j / 2, amplitudes=amps / np.linalg.norm(amps))
        assert np.array_equal(state.amplitudes, state.amplitudes[::-1]) == symmetric
        if folded and two_j > 1:
            n_phi = 2 + round(phi_fraction * (two_j - 2))
        else:
            n_phi = two_j + 1 + round(phi_fraction * 40)
        grid = qpd(state, n_phi=n_phi, n_theta=n_theta)
        assert np.max(np.abs(grid.values - self._direct(state, grid))) <= 1e-13

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(two_j=st.integers(1, 120), extra=st.integers(1, 40), n_theta=st.integers(2, 9),
           complex_amps=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_parseval_per_theta_column(self, two_j, extra, n_theta, complex_amps, seed):
        # with n_phi > 2J nothing folds, and Parseval makes the phi mean of each
        # column sum_k c_k(theta)^2 |a_k|^2 exactly; a misplaced mirror row breaks it
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=two_j + 1) + 1j * complex_amps * rng.normal(size=two_j + 1)
        state = SpinState(j=two_j / 2, amplitudes=amps / np.linalg.norm(amps))
        n_phi = two_j + extra
        grid = qpd(state, n_phi=n_phi, n_theta=n_theta)
        weights = np.abs(state.amplitudes) ** 2
        expect = weights @ css_magnitudes(state.j, grid.thetas) ** 2
        assert np.max(np.abs(grid.values.sum(axis=0) / n_phi - expect)) <= 1e-13

    @pytest.mark.parametrize("j", [0.5, 1, 5, 50, 200])
    def test_coherent_weights_normalized_exactly(self, j):
        # c_k(theta)^2 is a polynomial of degree 2J in x = cos(theta), so floor(J) + 1
        # Gauss-Legendre nodes integrate it exactly; with the Parseval test this
        # makes (2J+1)/(4 pi) int Q dOmega = 1 exact for every state
        x, w = _gauss_legendre(math.floor(j) + 1)
        mags = css_magnitudes(j, np.arccos(x))  # (2J+1, nodes)
        integrals = (2 * j + 1) / 2 * (mags**2 @ w)
        assert np.max(np.abs(integrals - 1.0)) <= 1e-12

    @pytest.mark.parametrize("j", [2, 20])
    def test_resolution_of_identity(self, j):
        state = make_sss(j, 0.1) if j > 2 else make_twin_fock(j)
        grid = qpd(state, n_phi=256, n_theta=256)
        w_theta = np.ones(256)
        w_theta[0] = w_theta[-1] = 0.5  # trapezoid on [0, pi]
        dtheta = math.pi / 255
        dphi = 2 * math.pi / 256
        integral = float(
            (grid.values * (np.sin(grid.thetas) * w_theta)).sum() * dtheta * dphi
        )
        total = (2 * j + 1) / (4 * math.pi) * integral
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_grid_resolution_validated(self):
        with pytest.raises(ValueError, match="at least 2"):
            qpd(make_ewss(1), n_phi=1, n_theta=8)

    @pytest.mark.parametrize("kwargs, name", [({"n_phi": 4.0}, "n_phi"),
                                              ({"n_theta": 9.0}, "n_theta")])
    def test_grid_resolution_must_be_integer(self, kwargs, name):
        # J=10 has 21 levels > n_phi=4: the folded branch, which needs integers
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            qpd(make_sss(10, 0.1), **kwargs)

    @pytest.mark.parametrize("j, n_phi", [(10, 48), (30, 16)])  # plain and folded
    def test_cached_table_matches_fresh_magnitudes(self, monkeypatch, j, n_phi):
        state = make_sss(j, 0.05)
        cached = qpd(state, n_phi=n_phi, n_theta=24)
        assert np.array_equal(qpd(state, n_phi=n_phi, n_theta=24).values, cached.values)
        monkeypatch.setattr(observables, "_css_table", lambda two_j, n_theta:
                            np.ascontiguousarray(css_magnitudes(j, cached.thetas).T))
        fresh = qpd(state, n_phi=n_phi, n_theta=24)
        assert np.array_equal(fresh.values, cached.values)

    def test_table_built_once_through_module_global_and_read_only(self, monkeypatch):
        calls = []

        def counting(j, beta):
            calls.append(j)
            return css_magnitudes(j, beta)

        monkeypatch.setattr(observables, "css_magnitudes", counting)
        observables._css_table.cache_clear()
        grids = [qpd(make_ewss(3), n_phi=8, n_theta=7) for _ in range(3)]
        assert calls == [3.0]
        # the axes too are built once per grid size and shared read-only
        assert grids[0].phis is grids[2].phis and grids[0].thetas is grids[2].thetas
        assert not (grids[0].phis.flags.writeable or grids[0].thetas.flags.writeable)
        table = observables._css_table(6, 7)
        assert not table.flags.writeable
        # theta-major: one contiguous row of the 2J+1 magnitudes per theta
        assert table.shape == (7, 7) and table.flags.c_contiguous
        assert np.array_equal(table, css_magnitudes(3.0, np.linspace(0.0, math.pi, 7)).T)
        with pytest.raises(ValueError):
            table[0, 0] = 1.0

    @pytest.mark.parametrize("j", [10, 400])
    def test_mirrored_half_matches_the_full_theta_grid(self, j):
        # a global phase makes the amplitudes complex, which takes the full route
        for fraction in (0.3, 0.8):
            state = make_sss(j, fraction * default_tau_max(j))
            assert np.array_equal(state.amplitudes, state.amplitudes[::-1])
            phased = SpinState(j, np.exp(0.7j) * state.amplitudes)
            for n_theta in (180, 31):
                half = qpd(state, n_phi=64, n_theta=n_theta).values
                full = qpd(phased, n_phi=64, n_theta=n_theta).values
                assert np.max(np.abs(half - full)) <= 1e-13

    @staticmethod
    def _fft_widths(monkeypatch):
        """The number of theta rows each FFT that qpd takes transforms, each
        along its contiguous last axis."""
        widths = []
        for name in ("fft", "rfft"):
            def counted(a, *args, _transform=getattr(np.fft, name), **kwargs):
                assert a.ndim == 2 and a.flags.c_contiguous and kwargs.get("axis", -1) == -1
                widths.append(a.shape[0])
                return _transform(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        return widths

    @pytest.mark.parametrize("n_theta", [18, 19])
    def test_route_by_symmetry(self, monkeypatch, n_theta):
        states = [make_sss(12, 0.05), make_ewss(12),  # real and a_-M = a_M: half
                  make_css(12, CoherentSpinParams(alpha=0.0, beta=math.pi / 3)),
                  make_sss(12, 0.05, gamma=0.3)]
        widths = self._fft_widths(monkeypatch)
        grids = [qpd(state, n_phi=16, n_theta=n_theta) for state in states]
        half = (n_theta + 1) // 2
        assert widths == [half, half, n_theta, n_theta]
        css = grids[2].values  # not mirror-symmetric: the full route computed it all
        assert np.max(np.abs(css - css[:, ::-1])) > 0.1
        for state, grid in zip(states, grids):
            direct = np.abs(np.exp(-1j * np.outer(grid.phis, np.arange(25)))
                            @ (css_magnitudes(12, grid.thetas) * state.amplitudes[:, None])) ** 2
            assert np.max(np.abs(grid.values - direct)) <= 1e-13

    @pytest.mark.parametrize("phi, theta, name", [
        (math.nan, 0.3, "phi"), (math.inf, 0.3, "phi"), (-math.inf, 0.3, "phi"),
        (0.3, math.nan, "theta"), (0.0, 7.0, "theta"), (0.0, -1.0, "theta"),
        (0.0, math.inf, "theta")])
    def test_value_at_rejects_bad_angles(self, phi, theta, name):
        grid = qpd(make_ewss(2), n_phi=8, n_theta=5)
        with pytest.raises(ValueError, match=name):
            grid.value_at(phi, theta)

    def test_value_at_wraps_phi(self):
        grid = qpd(make_css(2, CoherentSpinParams(alpha=0.5, beta=1.0)), n_phi=8, n_theta=5)
        for ip, phi in enumerate(grid.phis):
            for turns in (-2, 1, 3):
                assert grid.value_at(phi + turns * 2 * math.pi, math.pi) == grid.values[ip, -1]
        assert grid.value_at(0.0, 0.0) == grid.values[0, 0]

    def test_grid_invariants(self):
        with pytest.raises(ValueError, match="match"):
            QpdGrid(j=1, phis=np.zeros(3), thetas=np.zeros(4), values=np.zeros((4, 3)))
        with pytest.raises(ValueError, match="lie in"):
            QpdGrid(j=1, phis=np.zeros(2), thetas=np.zeros(2),
                    values=np.full((2, 2), 1.5))

    @pytest.mark.parametrize("values", [np.full((4, 3), math.nan),
                                        json.loads("[[0.5, null, 0.5]" + ", [0.5, 0.5, 0.5]" * 3 + "]")],
                             ids=["nan", "json-null"])
    def test_grid_rejects_non_finite_values(self, values):
        # NaN fails neither range test by itself, and the CLI writes a non-finite value as null
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            QpdGrid(1, np.linspace(0.0, 4.0, 4), np.linspace(0.0, math.pi, 3), values)


class TestSpinMoments:
    @pytest.mark.parametrize("j", [1, 2, 10, 50])
    def test_reference_variances(self, j):
        assert spin_moments(make_ewss(j)).variance_z == pytest.approx(
            j * (j + 1) / 3, abs=1e-10)
        assert spin_moments(make_twin_fock(j)).variance_z == pytest.approx(
            j * (j + 1) / 2, abs=1e-10)
        cat = spin_moments(make_cat(j))
        assert cat.variance_z == pytest.approx(j * j, abs=1e-10)
        assert np.max(np.abs(cat.mean)) < 1e-12

    def test_sss_variance_matches_dense_oracle(self):
        for j in (2, 5.5, 10):
            state = make_sss(j, 0.07)
            jz = build_operator(j, "Jz").to_dense()
            v = state.amplitudes
            mean = np.vdot(v, jz @ v).real
            var = np.vdot(jz @ v, jz @ v).real - mean**2
            assert spin_moments(state).variance_z == pytest.approx(var, abs=1e-10)

    def test_variance_nonnegative(self):
        m = spin_moments(basis_state(3, 1))
        assert m.variance_z == 0.0

    def test_round_off_below_zero_is_clamped(self):
        # |J,M> scaled by 1 + eps: <Jz^2> - <Jz>^2 is about -2 eps M^2
        amps = basis_state(3, 1).amplitudes * (1 + np.finfo(float).eps)
        v = amps[2]
        assert abs(v) ** 2 - abs(v) ** 4 < 0
        assert spin_moments(SpinState(3, amps)).variance_z == 0.0

    @pytest.mark.parametrize("axis", ["z", "y"])
    def test_negative_variance_beyond_round_off_raises(self, axis):
        # a Jz (Jy) eigenstate off unit norm by 2%: its variance is -0.02 M^2
        state = basis_state(3, 1) if axis == "z" else rotate(basis_state(3, 1), "x", math.pi / 2)
        corrupted = object.__new__(SpinState)
        object.__setattr__(corrupted, "j", 3)
        object.__setattr__(corrupted, "amplitudes", 1.01 * state.amplitudes)
        with pytest.raises(ValueError, match=f"variance of J{axis} is -0.0"):
            spin_moments(corrupted)

    def test_non_finite_variance_raises(self):
        # SpinState rejects a NaN amplitude, so the state is made past its check
        state = object.__new__(SpinState)
        object.__setattr__(state, "j", 2)
        object.__setattr__(state, "amplitudes", np.array([np.nan, 0, 0, 0, 0], dtype=complex))
        with pytest.raises(ValueError, match="variance of Jy is nan"):
            spin_moments(state)


def test_repeated_requests_build_each_per_j_table_once(monkeypatch):
    # the calls of one single-state request (make_sss, moments, both target
    # fidelities, QPD), twelve times at one J
    caches = (dynamics._twist_spectrum, dynamics._wigner_block, observables._css_table,
              make_ewss, make_twin_fock)
    for cache in caches:
        cache.cache_clear()
    j = 40
    for k in range(12):
        state = make_sss(j, (k + 0.5) * default_tau_max(j) / 12)
        spin_moments(state)
        fidelity(make_ewss(j), state)
        fidelity(make_twin_fock(j), state)
        qpd(state, n_phi=36, n_theta=18)
    assert [cache.cache_info().misses for cache in caches] == [1] * len(caches)
    # a warm make_sss builds one state, the one it returns, and a warm qpd no table
    built, tables = [], []
    monkeypatch.setattr(dynamics, "SpinState",
                        lambda *args: built.append(args) or SpinState(*args))
    monkeypatch.setattr(observables, "css_magnitudes",
                        lambda *args: tables.append(args) or css_magnitudes(*args))
    state = make_sss(j, 0.4 * default_tau_max(j))
    qpd(state, n_phi=36, n_theta=18)
    assert (len(built), len(tables)) == (1, 0)
    for target in (make_ewss(j), make_twin_fock(j)):
        assert not target.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            target.amplitudes[0] = 0.0
    assert type(make_ewss(10).j) is int and make_ewss(10).j == 10
    assert type(make_ewss(10.0).j) is float and make_ewss(10.0).j == 10.0
    assert type(make_twin_fock(10.0).j) is float


class TestFisherBound:
    def test_cat_reaches_best_precision(self):
        p = FieldEstimationParams(gamma_s=1.0, t=1.0)
        j = 8
        b = fisher_bound(j * j, p)
        assert b.sigma_lower == pytest.approx(1 / (2 * j), rel=1e-14)

    def test_css_standard_quantum_limit(self):
        p = FieldEstimationParams(gamma_s=1.0, t=1.0)
        j = 8
        b = fisher_bound(j / 2, p)
        assert b.sigma_lower == pytest.approx(1 / math.sqrt(2 * j), rel=1e-14)

    def test_zero_variance_gives_infinite_bound(self):
        b = fisher_bound(0.0, FieldEstimationParams(gamma_s=2.0, t=3.0))
        assert b.fisher_upper == 0.0
        assert math.isinf(b.sigma_lower)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            fisher_bound(-1.0, FieldEstimationParams(gamma_s=1.0, t=1.0))

    @pytest.mark.parametrize("variance", [math.nan, math.inf])
    def test_non_finite_variance_rejected(self, variance):
        with pytest.raises(ValueError, match="variance must be finite and nonnegative"):
            fisher_bound(variance, FieldEstimationParams(gamma_s=1.0, t=1.0))

    def test_sigma_scales_inverse_sqrt(self):
        p = FieldEstimationParams(gamma_s=0.7, t=1.3)
        one = fisher_bound(5.0, p).sigma_lower
        two = fisher_bound(10.0, p).sigma_lower
        assert two == pytest.approx(one / math.sqrt(2), rel=1e-14)

    def test_params_validated(self):
        with pytest.raises(ValueError, match="gamma_s"):
            FieldEstimationParams(gamma_s=0.0, t=1.0)
        with pytest.raises(ValueError, match="t must"):
            FieldEstimationParams(gamma_s=1.0, t=-1.0)
