import json
import math
import warnings

import numpy as np
import pytest

from tactsim import cli
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

    @pytest.mark.parametrize("family, params", [
        ("sq_power_offset", (0.0743, 1.0, 0.932)),
        ("shifted_power", (0.557, 1.03, 1.0)),
        ("log_over_linear", (1.1, 4.02)),
        ("log_over_linear", (-1.1, 4.02)),  # a*j = +inf at j = -inf
    ])
    @pytest.mark.parametrize("j", [-math.inf, math.nan])
    def test_only_plus_infinity_is_the_limit(self, family, params, j):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="requires"):
                evaluate(FitModel(family, params), j)

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

    def test_overflowing_trial_step_is_rejected_without_warning(self):
        # noisy data whose damped steps overflow the model: such a step is a
        # worse step, not a RuntimeWarning
        data = [(25, 0.7926911399973717), (78, 0.6176460129200676), (203, 0.10706675073775672),
                (334, 0.8360032256758796), (486, 0.5323071995682607)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit("sq_power_offset", data)
        assert math.isfinite(res.rss) and all(map(math.isfinite, res.model.params))

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
        with pytest.raises(FitError, match=r"^initial parameters \(-5\.0, 4\.0\) leave"):
            fit("log_over_linear", model_data("log_over_linear", (2.0, 4.0)),
                init=np.array([-5.0, 4.0]))

    @pytest.mark.parametrize("init", [(1.0, math.nan), (math.inf, 4.0)])
    def test_non_finite_init_rejected_by_name(self, init):
        with pytest.raises(FitError, match=r"^init must be finite, got \((1\.0, nan|inf, 4\.0)\)$"):
            fit("log_over_linear", model_data("log_over_linear", (2.0, 4.0)), init=init)


class TestDiagnostics:
    def test_standard_errors_shrink_with_noise(self):
        data = model_data("log_over_linear", (2.0, 4.0))
        clean = fit("log_over_linear", data)
        noisy = fit("log_over_linear",
                    [(j, y * (1 + 0.01 * (-1) ** i)) for i, (j, y) in enumerate(data)])
        assert all(se < 1e-8 for se in clean.param_se)
        assert all(se > c for se, c in zip(noisy.param_se, clean.param_se))

    def test_result_serializes(self):
        res = fit("log_over_linear", model_data("log_over_linear", (2.0, 4.0)))
        record = json.loads(cli._json_text(res))
        assert record["family"] == "log_over_linear"
        assert set(record["params"]) == set(record["param_se"]) == {"a", "b"}
        assert record["converged"] is True


DESK_J = (5, 10, 20, 50)


class TestDeskIterates:
    """The fits of ``reproduce-paper --j-list 5,10,20,50``, pinned to the iterates
    recorded for them (series at 17 digits).  The 4-point, 3-parameter
    fid_ewss_max fit sits on a ridge: data perturbations of 1e-16 to 1e-13 move
    its 200th iterate by up to 2.5e-9, so its parameters are pinned to 1e-8."""

    @pytest.mark.parametrize("family,values,params,iterations,converged,rtol", [
        pytest.param("sq_power_offset",
                     (0.9994818236759185, 0.9984725646352484, 0.9969868795821042,
                      0.9948373352989097),
                     (0.6336107087865096, 0.0016194328286489943, 0.36787952269142954),
                     200, False, 1e-8, id="fid_ewss_max"),
        # stops before the cap, not converged: the damping is exhausted
        pytest.param("shifted_power",
                     (4.269335390097451, 8.14182120861292, 15.8885435189244,
                      39.13607107875067),
                     (0.7735887879689054, 0.5153353571828928, 1.0003779367853314),
                     10, False, 1e-12, id="dz_at_tau_tfs"),
        pytest.param("log_over_linear",
                     (0.09037554290346625, 0.06077226664301212, 0.03864397256333443,
                      0.019952228492346458),
                     (1.4199075532867458, 4.342457420982031),
                     1, True, 1e-12, id="tau_ewss"),
    ])
    def test_iterates_pinned(self, family, values, params, iterations, converged, rtol):
        res = fit(family, list(zip(DESK_J, values)))
        assert (res.iterations, res.converged) == (iterations, converged)
        np.testing.assert_allclose(res.model.params, params, rtol=rtol, atol=0)


# the three time-law series of reproduce-paper on the default J list (17 digits); the
# desk list is its first four points
DEFAULT_J = (5, 10, 20, 50, 100, 200, 400)
TIME_LAW_SERIES = {
    "tau_ewss": (0.09037554290346625, 0.06077226664301212, 0.03864397256333443,
                 0.019952228492346458, 0.011695818642149112, 0.006711009538772291,
                 0.0037877811190238837),
    "tau_tfs": (0.23495896542453024, 0.13769066857540693, 0.0785185402096395,
                0.03630184116473968, 0.019947683279600226, 0.010858568598247218,
                0.00586763382103558),
    "tau_dz_max": (0.20533759807094512, 0.119659170515623, 0.06880680211009346,
                   0.032268387735951684, 0.017908077782185713, 0.009833259855794932,
                   0.005353625669946963),
}


@pytest.mark.parametrize("n_points", [4, 7], ids=["desk", "default"])
@pytest.mark.parametrize("law", sorted(TIME_LAW_SERIES))
def test_time_law_fit_matches_minpack(law, n_points):
    """log_over_linear is linear in (log(a)/b, 1/b), so its start is the least-squares
    answer: the fit stops at its first iterate, where MINPACK's Levenberg-Marquardt
    (started 1% off) reaches the same rss and parameters."""
    from scipy.optimize import least_squares

    data = list(zip(DEFAULT_J, TIME_LAW_SERIES[law]))[:n_points]
    res = fit("log_over_linear", data)
    assert (res.iterations, res.converged) == (1, True)
    jj, yy = np.array(data).T
    oracle = least_squares(lambda p: np.log(p[0] * jj) / (p[1] * jj) - yy,
                           1.01 * np.array(res.model.params), method="lm")
    assert res.rss == pytest.approx(2 * oracle.cost, rel=1e-12)
    np.testing.assert_allclose(res.model.params, oracle.x, rtol=1e-7, atol=0)


# the fidelity and dz series of reproduce-paper on the default J list (17 digits, one
# BLAS thread), with the family each is fitted to; the desk list is its first four points
DAMPED_SERIES = {
    "fid_ewss_max": ("sq_power_offset", (
        0.9994818236759183, 0.9984725646352464, 0.996986879582106, 0.9948373352989088,
        0.9934408842757931, 0.9923739920801598, 0.9916216663668672)),
    "fid_tfs_max": ("sq_power_offset", (
        0.8947969315143762, 0.8814618036640212, 0.8746228832931855, 0.8704858530184855,
        0.8691062034503819, 0.8684173209668066, 0.8680733414002141)),
    "dz_at_tau_ewss": ("shifted_power", (
        3.1413956936276497, 5.969656346706005, 11.578851268768888, 28.322515398013586,
        56.163743510502755, 111.78506571899682, 222.95738841352986)),
    "dz_at_tau_tfs": ("shifted_power", (
        4.269335390097451, 8.141821208612923, 15.888543518924402, 39.13607107875069,
        77.8867744244241, 155.39084086429813, 310.40080084617136)),
    "dz_max": ("shifted_power", (
        4.351213361444426, 8.355384881094077, 16.352278864726163, 40.336517313157344,
        80.30991327658082, 160.25742113989097, 320.15316033394043)),
}
ORACLE_MODELS = {
    "sq_power_offset": lambda p, jj: (p[0] / jj ** p[1] + p[2]) ** 2,
    "shifted_power": lambda p, jj: p[0] * (jj + p[1]) ** p[2],
    "log_over_linear": lambda p, jj: np.log(p[0] * jj) / (p[1] * jj),
}
ORACLE_JACOBIANS = {  # the columns the array forms had
    "sq_power_offset": lambda a, b, c, jj: [
        2 * (a * jj ** -b + c) * jj ** -b, -2 * (a * jj ** -b + c) * a * jj ** -b * np.log(jj),
        2 * (a * jj ** -b + c)],
    "shifted_power": lambda a, b, c, jj: [
        (jj + b) ** c, a * c * (jj + b) ** (c - 1), a * (jj + b) ** c * np.log(jj + b)],
    "log_over_linear": lambda a, b, jj: [1.0 / (a * b * jj), -np.log(a * jj) / (b**2 * jj)],
}


@pytest.mark.parametrize("family, params", [
    ("sq_power_offset", (1.0, -500.0, 0.0)),  # J^b underflows, J^-b overflows
    ("sq_power_offset", (1.0, 500.0, 0.5)),  # J^b overflows inside a finite value
    ("shifted_power", (1.0, -10.0, 0.5)),  # J + b < 0, = 0 and > 0
    ("shifted_power", (-2.0, -15.0, 401.0)),  # an odd power of a negative base overflows
    ("shifted_power", (1.0, -5.0, -1.0)),  # a negative power of 0
    ("log_over_linear", (0.0, 1.0)),
    ("log_over_linear", (-1.0, 2.0)),
    ("log_over_linear", (1.0, 0.0)),
])
def test_scalar_forms_keep_numpy_ieee_values(family, params):
    """Off the model domain the scalar value and gradient give numpy's inf and nan
    where math raises, so a trial step there is rejected, not an exception."""
    from tactsim.fitting import _family_spec

    spec, jj = _family_spec(family), np.array(DESK_J, float)
    with np.errstate(all="ignore"):
        values, columns = ORACLE_MODELS[family](params, jj), ORACLE_JACOBIANS[family](*params, jj)
    np.testing.assert_allclose(spec.evaluate(jj, params), values, rtol=1e-15, atol=0)
    np.testing.assert_allclose(spec.jacobian(jj, params), np.column_stack(columns),
                               rtol=1e-15, atol=0)


@pytest.mark.parametrize("law, n_points", [
    pytest.param(law, n, id=f"{law}-{name}")
    for law in sorted(DAMPED_SERIES) for n, name in ((4, "desk"), (7, "default"))
    if (law, n) != ("fid_ewss_max", 4)  # a ridge: that fit stops at the iteration cap
])
def test_damped_fit_matches_minpack(law, n_points):
    """From the fit's own auto-init start, MINPACK's Levenberg-Marquardt run to its
    tightest tolerances reaches the damped loop's rss and parameters."""
    from scipy.optimize import least_squares

    from tactsim.fitting import _family_spec

    family, series = DAMPED_SERIES[law]
    data = list(zip(DEFAULT_J, series))[:n_points]
    res = fit(family, data)
    jj, yy = np.array(data).T
    oracle = least_squares(lambda p: ORACLE_MODELS[family](p, jj) - yy,
                           _family_spec(family).auto_init(jj, yy), method="lm",
                           ftol=1e-15, xtol=1e-15, gtol=1e-15)
    assert res.rss == pytest.approx(2 * oracle.cost, rel=1e-10)
    np.testing.assert_allclose(res.model.params, oracle.x, rtol=1e-6, atol=0)


def test_desk_ridge_fit_solves_on_floats(monkeypatch):
    """All 200 iterations of the desk fid_ewss_max fit call np.linalg.solve never and
    np.linalg.inv at most once, for the standard errors."""
    calls = []
    solve, inv = np.linalg.solve, np.linalg.inv

    def counted_solve(*args, **kwargs):
        calls.append("solve")
        return solve(*args, **kwargs)

    def counted_inv(*args, **kwargs):
        calls.append("inv")
        return inv(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(np.linalg, "inv", counted_inv)
    family, series = DAMPED_SERIES["fid_ewss_max"]
    res = fit(family, list(zip(DESK_J, series)))
    assert res.iterations == 200
    assert calls.count("solve") == 0
    assert calls.count("inv") <= 1
