import math
import warnings

import numpy as np
import pytest

from tactsim.fitting import FitError, FitModel, evaluate, fit

JS = np.arange(10.0, 101.0, 10.0)


def model_data(family, params, js=JS):
    model = FitModel(family, params)
    return [(j, evaluate(model, j)) for j in js]


class TestExactRecovery:
    def test_shifted_power(self):
        res = fit("shifted_power", model_data("shifted_power", (0.5, 1.0, 1.0)))
        assert res.converged
        assert np.allclose(res.model.params, (0.5, 1.0, 1.0), atol=1e-6)
        assert res.rss < 1e-20

    def test_log_over_linear(self):
        res = fit("log_over_linear", model_data("log_over_linear", (2.0, 4.0)))
        assert res.converged
        assert np.allclose(res.model.params, (2.0, 4.0), atol=1e-6)

    def test_sq_power_offset(self):
        res = fit("sq_power_offset",
                  model_data("sq_power_offset", (0.03, 0.6, 0.99)))
        assert res.converged
        assert np.allclose(res.model.params, (0.03, 0.6, 0.99), atol=1e-6)


class TestJacobians:
    @pytest.mark.parametrize("family,params", [
        ("sq_power_offset", (0.05, 0.7, 0.9)),
        ("shifted_power", (0.8, 0.5, 1.1)),
        ("log_over_linear", (3.0, 4.0)),
    ])
    def test_matches_central_differences(self, family, params):
        from tactsim.fitting import _family_spec

        spec = _family_spec(family)
        jj = np.array([7.0, 23.0, 61.0, 140.0])
        p = np.asarray(params)
        analytic = spec.jacobian(jj, p)
        for i in range(len(p)):
            h = 1e-6 * max(abs(p[i]), 1.0)
            plus, minus = p.copy(), p.copy()
            plus[i] += h
            minus[i] -= h
            fd = (spec.evaluate(jj, plus) - spec.evaluate(jj, minus)) / (2 * h)
            denom = np.maximum(np.abs(fd), 1e-12)
            assert np.max(np.abs(analytic[:, i] - fd) / denom) < 1e-6


class TestOptimality:
    def test_residual_orthogonal_to_jacobian(self):
        from tactsim.fitting import _family_spec

        # deterministic wiggle so the optimum has nonzero residuals
        wiggle = 1e-3 * np.array([1, -2, 1.5, -0.5, 2, -1, 0.5, -1.5, 1, -1])
        data = [(j, y * (1 + w)) for (j, y), w in
                zip(model_data("shifted_power", (0.7, 0.4, 1.0)), wiggle)]
        res = fit("shifted_power", data)
        spec = _family_spec("shifted_power")
        jj = np.array([d[0] for d in data])
        yy = np.array([d[1] for d in data])
        p = np.asarray(res.model.params)
        r = spec.evaluate(jj, p) - yy
        jac = spec.jacobian(jj, p)
        cols = np.linalg.norm(jac, axis=0)
        cosines = np.abs(jac.T @ r) / (cols * np.linalg.norm(r))
        assert np.max(cosines) < 1e-8

    def test_scale_stability(self):
        data = model_data("shifted_power", (0.7, 0.4, 1.0))
        base = fit("shifted_power", data)
        scaled = fit("shifted_power", [(j, 10 * y) for j, y in data])
        assert scaled.model.params[0] == pytest.approx(10 * base.model.params[0],
                                                       rel=1e-9)
        assert scaled.model.params[1] == pytest.approx(base.model.params[1],
                                                       abs=1e-9)
        assert scaled.model.params[2] == pytest.approx(base.model.params[2],
                                                       abs=1e-9)


class TestEvaluate:
    def test_large_j_limits(self):
        assert evaluate(FitModel("sq_power_offset", (0.0743, 1.00, 0.932)),
                        math.inf) == pytest.approx(0.868624, abs=1e-6)
        assert evaluate(FitModel("sq_power_offset", (0.0298, 0.621, 0.995)),
                        math.inf) == pytest.approx(0.990025, abs=1e-6)

    def test_identity_model(self):
        assert evaluate(FitModel("shifted_power", (1.0, 0.0, 1.0)), 7) == 7.0

    def test_domain_violations(self):
        with pytest.raises(ValueError, match="a\\*j > 0"):
            evaluate(FitModel("log_over_linear", (-1.0, 4.0)), 10)
        with pytest.raises(ValueError, match="j \\+ b > 0"):
            evaluate(FitModel("shifted_power", (1.0, -20.0, 0.5)), 10)
        with pytest.raises(ValueError, match="j > 0"):
            evaluate(FitModel("sq_power_offset", (1.0, 1.0, 0.5)), 0.0)

    @pytest.mark.parametrize("family, params, expected", [
        ("sq_power_offset", (2.0, 0.5, 3.0), 9.0),
        ("sq_power_offset", (2.0, 0.0, 3.0), 25.0),
        ("sq_power_offset", (2.0, -0.5, 3.0), math.inf),
        ("shifted_power", (2.0, 1.0, 0.5), math.inf),
        ("shifted_power", (-2.0, 1.0, 0.5), -math.inf),
        ("shifted_power", (2.0, 1.0, 0.0), 2.0),
        ("shifted_power", (2.0, 1.0, -0.5), 0.0),
        ("log_over_linear", (2.0, 3.0), 0.0),
    ])
    def test_every_limit_branch(self, family, params, expected):
        assert evaluate(FitModel(family, params), math.inf) == expected

    def test_domain_boundaries(self):
        assert evaluate(FitModel("sq_power_offset", (2.0, 1.0, 3.0)), 4) == 12.25
        assert evaluate(FitModel("shifted_power", (1.0, -10.0, 0.5)), 10.25) == 0.5
        with pytest.raises(ValueError, match="got j=10, b=-10.0"):
            evaluate(FitModel("shifted_power", (1.0, -10.0, 0.5)), 10)
        with pytest.raises(ValueError, match="got a=0.0, j=5"):
            evaluate(FitModel("log_over_linear", (0.0, 1.0)), 5)


class TestValidation:
    def test_needs_three_points(self):
        with pytest.raises(FitError, match="3 data points"):
            fit("shifted_power", [(1.0, 1.0), (2.0, 2.0)])

    def test_needs_distinct_positive_j(self):
        with pytest.raises(FitError, match="distinct"):
            fit("shifted_power", [(1.0, 1.0), (1.0, 2.0), (3.0, 3.0)])
        with pytest.raises(FitError, match="positive"):
            fit("shifted_power", [(-1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])

    @pytest.mark.parametrize("bad", [(math.inf, 3.0), (4.0, math.nan), (math.nan, 3.0)])
    def test_non_finite_data_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError, match="finite"):
                fit("shifted_power", [(1.0, 1.0), (2.0, 2.0), bad])

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown model family"):
            fit("cubic", [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])

    def test_model_param_count_checked(self):
        with pytest.raises(ValueError, match="parameters"):
            FitModel("log_over_linear", (1.0, 2.0, 3.0))

    def test_bad_init_leaves_domain(self):
        with pytest.raises(FitError, match="domain"):
            fit("log_over_linear", model_data("log_over_linear", (2.0, 4.0)),
                init=(-5.0, 4.0))


class TestDiagnostics:
    def test_iteration_cap_reports_unconverged(self):
        wiggle = np.sin(np.arange(10))
        data = [(j, y * (1 + 0.05 * w)) for (j, y), w in
                zip(model_data("sq_power_offset", (0.5, 0.3, 0.8)), wiggle)]
        res = fit("sq_power_offset", data, max_iterations=1)
        assert not res.converged
        assert res.iterations == 1

    def test_standard_errors_shrink_with_noise(self):
        data = model_data("log_over_linear", (2.0, 4.0))
        clean = fit("log_over_linear", data)
        noisy = fit("log_over_linear",
                    [(j, y * (1 + 0.01 * (-1) ** i)) for i, (j, y) in enumerate(data)])
        assert all(se < 1e-8 for se in clean.param_se)
        assert all(se > c for se, c in zip(noisy.param_se, clean.param_se))

    def test_result_serializes(self):
        res = fit("log_over_linear", model_data("log_over_linear", (2.0, 4.0)))
        record = res.to_json_dict()
        assert record["family"] == "log_over_linear"
        assert set(record["params"]) == {"a", "b"}
        assert record["converged"] is True
