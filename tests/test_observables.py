import math

import numpy as np
import pytest

from tactsim import observables
from tactsim.dynamics import make_sss
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
from tactsim.states import (
    CoherentSpinParams,
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

    def test_matches_direct_inner_products(self):
        # J=30 has 61 levels > n_phi=16: the folded branch
        for state, n_phi in ((make_sss(4, 0.2), 12), (make_sss(30, 0.05), 16)):
            grid = qpd(state, n_phi=n_phi, n_theta=7)
            for ip in (0, 3, 7, 11):
                for it in (0, 2, 6):
                    phi, theta = grid.phis[ip], grid.thetas[it]
                    mags = css_magnitudes(state.j, theta)
                    k = np.arange(state.dim)
                    css = mags * np.exp(1j * k * phi)
                    direct = abs(np.vdot(css, state.amplitudes)) ** 2
                    assert grid.values[ip, it] == pytest.approx(direct, abs=1e-13)

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
        monkeypatch.setattr(observables, "_css_table",
                            lambda two_j, n_theta: css_magnitudes(j, cached.thetas))
        fresh = qpd(state, n_phi=n_phi, n_theta=24)
        assert np.array_equal(fresh.values, cached.values)

    def test_table_built_once_through_module_global_and_read_only(self, monkeypatch):
        calls = []

        def counting(j, beta):
            calls.append(j)
            return css_magnitudes(j, beta)

        monkeypatch.setattr(observables, "css_magnitudes", counting)
        observables._css_table.cache_clear()
        for _ in range(3):
            qpd(make_ewss(3), n_phi=8, n_theta=7)
        assert calls == [3.0]
        table = observables._css_table(6, 7)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0

    def test_grid_invariants(self):
        with pytest.raises(ValueError, match="match"):
            QpdGrid(j=1, phis=np.zeros(3), thetas=np.zeros(4), values=np.zeros((4, 3)))
        with pytest.raises(ValueError, match="lie in"):
            QpdGrid(j=1, phis=np.zeros(2), thetas=np.zeros(2),
                    values=np.full((2, 2), 1.5))


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
