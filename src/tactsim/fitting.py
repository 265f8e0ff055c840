"""Nonlinear least-squares fitting of the three scaling-law families.

Families
--------
* ``sq_power_offset``   F(J) = (a / J^b + c)^2
* ``shifted_power``     V(J) = a (J + b)^c
* ``log_over_linear``   tau(J) = log(a J) / (b J)

The solver is Gauss-Newton with Levenberg-style damping, analytic
Jacobians, and per-family auto-initialization obtained from the obvious
linearization of each model.  Residuals are unweighted.  A fit runs under one
``np.errstate``: a trial step that leaves the model domain has a nan or inf
rss, which fails rss_try < rss like any worse step.
"""

import math
from dataclasses import dataclass

import numpy as np

MAX_ITERATIONS = 200
GRADIENT_TOL = 1e-10  # cosine between residual and Jacobian columns


class FitError(ValueError):
    """Fitting could not proceed (bad data, degenerate Jacobian, ...)."""


@dataclass(frozen=True)
class FitModel:
    """A model family plus its parameter vector."""

    family: str
    params: tuple

    def __post_init__(self):
        spec = _family_spec(self.family)
        params = tuple(float(p) for p in self.params)
        if len(params) != len(spec.param_names):
            raise ValueError(
                f"{self.family} takes {len(spec.param_names)} parameters, "
                f"got {len(params)}"
            )
        if not all(math.isfinite(p) for p in params):
            raise ValueError("model parameters must be finite")
        object.__setattr__(self, "params", params)

    @property
    def param_names(self) -> tuple:
        return _family_spec(self.family).param_names


@dataclass(frozen=True)
class FitResult:
    model: FitModel
    rss: float
    param_se: tuple
    n_points: int
    iterations: int
    converged: bool


# --- model families ---------------------------------------------------


def _sqpo_eval(jj, p):
    a, b, c = p
    return (a / jj**b + c) ** 2


def _sqpo_jac(jj, p):
    a, b, c = p
    pw = jj ** (-b)
    base = a * pw + c
    return np.column_stack([2 * base * pw, -2 * base * a * pw * np.log(jj),
                            2 * base])


def _sqpo_init(jj, yy):
    order = np.argsort(jj)
    jj, yy = jj[order], yy[order]
    if np.any(yy < 0):
        raise FitError("sq_power_offset auto-init needs nonnegative values")
    root = np.sqrt(yy)
    c = root[-1]
    resid = root[:-1] - c
    mask = resid > 0
    if mask.sum() >= 2:
        slope, intercept = np.polyfit(np.log(jj[:-1][mask]), np.log(resid[mask]), 1)
        return np.array([math.exp(intercept), -slope, c])
    return np.array([1.0, 1.0, c])


def _shp_eval(jj, p):
    a, b, c = p
    return a * (jj + b) ** c


def _shp_jac(jj, p):
    a, b, c = p
    shifted = jj + b
    pw = shifted**c
    return np.column_stack([pw, a * c * shifted ** (c - 1), a * pw * np.log(shifted)])


def _shp_init(jj, yy):
    if np.any(yy <= 0):
        raise FitError(
            "shifted_power auto-init needs positive values; pass init explicitly"
        )
    slope, intercept = np.polyfit(np.log(jj), np.log(yy), 1)
    return np.array([math.exp(intercept), 0.0, slope])


def _lol_eval(jj, p):
    a, b = p
    return np.log(a * jj) / (b * jj)


def _lol_jac(jj, p):
    a, b = p
    return np.column_stack([1.0 / (a * b * jj), -np.log(a * jj) / (b**2 * jj)])


def _lol_init(jj, yy):
    # y = u / J + v log(J) / J, u = log(a) / b and v = 1 / b, is linear in (u, v):
    # its unweighted least squares is the fit itself
    (u, v), *_ = np.linalg.lstsq(np.column_stack([1.0 / jj, np.log(jj) / jj]), yy, rcond=None)
    if v <= 0:
        raise FitError(
            "log_over_linear auto-init needs data increasing in J*y; pass init"
        )
    return np.array([math.exp(u / v), 1.0 / v])


@dataclass(frozen=True)
class _FamilySpec:
    param_names: tuple
    evaluate: callable
    jacobian: callable
    auto_init: callable
    limit: callable  # (*params) -> value at J = inf
    domain_error: callable  # (j, *params) -> message when j is outside the domain, else None


_FAMILIES = {
    "sq_power_offset": _FamilySpec(
        ("a", "b", "c"), _sqpo_eval, _sqpo_jac, _sqpo_init,
        limit=lambda a, b, c: c**2 if b > 0 else (a + c) ** 2 if b == 0 else math.inf,
        domain_error=lambda j, a, b, c: None if j > 0 else "sq_power_offset requires j > 0"),
    "shifted_power": _FamilySpec(
        ("a", "b", "c"), _shp_eval, _shp_jac, _shp_init,
        limit=lambda a, b, c: math.copysign(math.inf, a) if c > 0 else a if c == 0 else 0.0,
        domain_error=lambda j, a, b, c: None if j + b > 0
        else f"shifted_power requires j + b > 0, got j={j}, b={b}"),
    "log_over_linear": _FamilySpec(
        ("a", "b"), _lol_eval, _lol_jac, _lol_init,
        limit=lambda a, b: 0.0,
        domain_error=lambda j, a, b: None if 0 < a * j < math.inf
        else f"log_over_linear requires a finite a*j > 0, got a={a}, j={j}"),
}

FAMILY_NAMES = tuple(_FAMILIES)


def _family_spec(family: str) -> _FamilySpec:
    try:
        return _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown model family {family!r}") from None


def evaluate(model: FitModel, j) -> float:
    """Closed-form model value at j; j = math.inf gives the J -> infinity limit, and
    any other j outside the family's domain (-math.inf, NaN) raises ValueError."""
    spec = _family_spec(model.family)
    if j == math.inf:
        return spec.limit(*model.params)
    problem = spec.domain_error(j, *model.params)
    if problem:
        raise ValueError(problem)
    return float(spec.evaluate(j, model.params))


def _prepare_data(data):
    arr = np.asarray([(float(j), float(y)) for j, y in data])
    if arr.ndim != 2 or arr.shape[0] < 3:
        raise FitError("fit needs at least 3 data points")
    if not np.all(np.isfinite(arr)):
        raise FitError("fit needs finite J and values")
    jj, yy = arr[:, 0], arr[:, 1]
    if np.any(jj <= 0):
        raise FitError("fit needs positive J values")
    if not np.all(np.diff(np.sort(jj))):
        raise FitError("fit needs distinct J values")
    return jj, yy


def _gradient_cosine(jac, g, rss):
    """Largest |cos| between r and a Jacobian column, from g = jac^T r and rss = |r|^2 > 0."""
    cols = np.sqrt(np.add.reduce(jac * jac, axis=0))
    cols = np.where(cols > 0, cols, 1.0)
    return float((np.abs(g) / (cols * math.sqrt(rss))).max())


def fit(family: str, data, init=None) -> FitResult:
    """Least-squares fit of one family to (J, y) pairs, for at most
    MAX_ITERATIONS iterations, converged at GRADIENT_TOL.

    Args:
        family: one of FAMILY_NAMES.
        data: iterable of (J, y) pairs; at least 3, J distinct and positive.
        init: optional starting parameters; auto-derived when omitted.

    Returns:
        FitResult with the fitted model, residual sum of squares,
        linearized standard errors, and honest convergence diagnostics.
    """
    spec = _family_spec(family)
    jj, yy = _prepare_data(data)
    if init is not None:
        p = np.asarray([float(v) for v in init])
        if p.shape != (len(spec.param_names),):
            raise FitError(f"{family} needs {len(spec.param_names)} initial parameters")
        if not np.all(np.isfinite(p)):
            raise FitError(f"init must be finite, got {tuple(p.tolist())}")
    else:
        p = spec.auto_init(jj, yy)

    with np.errstate(all="ignore"):
        r = spec.evaluate(jj, p) - yy
        if not np.isfinite(r).all():
            raise FitError(f"initial parameters {tuple(p.tolist())} leave the model domain")
        rss = float(r @ r)
        rss_floor = (1e-14 * (1.0 + float(np.linalg.norm(yy)))) ** 2
        lam, converged, iterations = 1e-3, False, 0
        for iterations in range(1, MAX_ITERATIONS + 1):
            jac = spec.jacobian(jj, p)
            if not np.isfinite(jac).all():
                raise FitError("Jacobian left the model domain during iteration")
            g = jac.T @ r
            if rss <= rss_floor or _gradient_cosine(jac, g, rss) <= GRADIENT_TOL:
                converged = True
                break
            jtj = jac.T @ jac
            jtj_diag = jtj.diagonal()
            scale = np.where(jtj_diag > 0, jtj_diag, 1.0)
            damped = jtj.copy()
            damped_diag = damped.reshape(-1)[:: len(p) + 1]  # a writable view
            neg_g = -g
            while lam < 1e15:
                damped_diag[:] = jtj_diag + lam * scale
                try:
                    step = np.linalg.solve(damped, neg_g)
                except np.linalg.LinAlgError:
                    lam *= 10
                    continue
                p_try = p + step
                r_try = spec.evaluate(jj, p_try) - yy
                rss_try = float(r_try @ r_try)
                if rss_try < rss:
                    p, r, rss = p_try, r_try, rss_try
                    lam = max(lam / 3, 1e-14)
                    break
                lam *= 3
            else:
                break  # damping exhausted; report honestly below
        jac = spec.jacobian(jj, p)
        if not converged and np.isfinite(jac).all():
            converged = rss <= rss_floor or _gradient_cosine(jac, jac.T @ r, rss) <= GRADIENT_TOL
        param_se = _standard_errors(jac, rss, len(jj), len(p))
    model = FitModel(family=family, params=tuple(p))
    return FitResult(model=model, rss=rss, param_se=param_se,
                     n_points=len(jj), iterations=iterations,
                     converged=bool(converged))


def _standard_errors(jac, rss, n, k):
    dof = n - k
    if dof <= 0 or not np.all(np.isfinite(jac)):
        return tuple([math.nan] * k)
    try:
        cov = np.linalg.inv(jac.T @ jac) * (rss / dof)
    except np.linalg.LinAlgError:
        return tuple([math.nan] * k)
    diag = np.diag(cov)
    return tuple(math.sqrt(d) if d >= 0 else math.nan for d in diag)
