"""Nonlinear least-squares fitting of the three scaling-law families.

Families
--------
* ``sq_power_offset``   F(J) = (a / J^b + c)^2
* ``shifted_power``     V(J) = a (J + b)^c
* ``log_over_linear``   tau(J) = log(a J) / (b J)

The solver is Gauss-Newton with Levenberg-style damping, analytic
Jacobians, and per-family auto-initialization obtained from the obvious
linearization of each model.  Residuals are unweighted.  A fit has a few points
and two or three parameters, so it runs on Python floats: each family is one
scalar value and gradient in IEEE arithmetic (overflow is inf, an invalid log or
power nan), and the damped system is solved by Gaussian elimination.  A trial
step that leaves the model domain has a nan or inf rss, which fails rss_try < rss.
"""

import math
from dataclasses import dataclass
from itertools import chain
from operator import mul

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
            raise ValueError(f"{self.family} takes {len(spec.param_names)} parameters, "
                             f"got {len(params)}")
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


def _pow(x, y):
    """x ** y in IEEE arithmetic, as numpy has it where math.pow raises: inf on overflow
    or at 0 to y < 0 (-inf for x < 0 and an odd y), nan for x < 0 and a fractional y."""
    try:
        return math.pow(x, y)
    except (OverflowError, ValueError):
        if x < 0 and not float(y).is_integer():
            return math.nan
        return math.copysign(math.inf, x) if y % 2 == 1 else math.inf


def _log(x):  # log x in IEEE arithmetic: -inf at 0, nan below
    return math.log(x) if x > 0 else -math.inf if x == 0 else math.nan


def _div(x, y):  # x / y in IEEE arithmetic: x times a signed inf at y = 0
    return x / y if y else x * math.copysign(math.inf, y)


def _sqpo_value(j, a, b, c):
    base = _div(a, _pow(j, b)) + c
    return base * base


def _sqpo_gradient(j, a, b, c):
    pw = _pow(j, -b)
    base = a * pw + c
    return 2 * base * pw, -2 * base * a * pw * math.log(j), 2 * base


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


def _shp_gradient(j, a, b, c):
    shifted = j + b
    pw = _pow(shifted, c)
    return pw, a * c * _pow(shifted, c - 1), a * pw * _log(shifted)


def _shp_init(jj, yy):
    if np.any(yy <= 0):
        raise FitError("shifted_power auto-init needs positive values; pass init explicitly")
    slope, intercept = np.polyfit(np.log(jj), np.log(yy), 1)
    return np.array([math.exp(intercept), 0.0, slope])


def _lol_init(jj, yy):
    # y = u / J + v log(J) / J, u = log(a) / b and v = 1 / b, is linear in (u, v):
    # its unweighted least squares is the fit itself
    (u, v), *_ = np.linalg.lstsq(np.column_stack([1.0 / jj, np.log(jj) / jj]), yy, rcond=None)
    if v <= 0:
        raise FitError("log_over_linear auto-init needs data increasing in J*y; pass init")
    return np.array([math.exp(u / v), 1.0 / v])


@dataclass(frozen=True)
class _FamilySpec:
    param_names: tuple
    value: callable  # (j, *params) -> model value at one J, in float arithmetic
    gradient: callable  # (j, *params) -> its derivative by each parameter
    auto_init: callable
    limit: callable  # (*params) -> value at J = inf
    domain_error: callable  # (j, *params) -> message when j is outside the domain, else None

    def evaluate(self, jj, p):  # the values at the points jj, as an array
        return np.array([self.value(j, *map(float, p)) for j in np.asarray(jj, float).tolist()])

    def jacobian(self, jj, p):  # the (points, parameters) Jacobian at the points jj
        return np.array([self.gradient(j, *map(float, p)) for j in np.asarray(jj, float).tolist()])


_FAMILIES = {
    "sq_power_offset": _FamilySpec(
        ("a", "b", "c"), _sqpo_value, _sqpo_gradient, _sqpo_init,
        limit=lambda a, b, c: c**2 if b > 0 else (a + c) ** 2 if b == 0 else math.inf,
        domain_error=lambda j, a, b, c: None if j > 0 else "sq_power_offset requires j > 0"),
    "shifted_power": _FamilySpec(
        ("a", "b", "c"), lambda j, a, b, c: a * _pow(j + b, c), _shp_gradient, _shp_init,
        limit=lambda a, b, c: math.copysign(math.inf, a) if c > 0 else a if c == 0 else 0.0,
        domain_error=lambda j, a, b, c: None if j + b > 0
        else f"shifted_power requires j + b > 0, got j={j}, b={b}"),
    "log_over_linear": _FamilySpec(
        ("a", "b"), lambda j, a, b: _div(_log(a * j), b * j),
        lambda j, a, b: (_div(1.0, a * b * j), _div(-_log(a * j), b * b * j)), _lol_init,
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
    return spec.value(float(j), *model.params)


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


def _normal_equations(rows, r):
    """(J^T J, J^T r) as lists of floats, from the Jacobian's rows and the residuals."""
    cols = list(zip(*rows))
    return [[sum(map(mul, a, b)) for b in cols] for a in cols], [sum(map(mul, a, r)) for a in cols]


def _stationary(jtj, g, rss):
    """True when |cos| between r and every Jacobian column is at most GRADIENT_TOL, from
    jtj = J^T J, g = J^T r and rss = |r|^2 > 0; a nan cosine is not small."""
    root = math.sqrt(rss)
    return all(abs(g[k]) / ((math.sqrt(row[k]) if row[k] > 0 else 1.0) * root) <= GRADIENT_TOL
               for k, row in enumerate(jtj))


def _damped_step(jtj, g, lam):
    """The step x of (J^T J + lam D) x = -g, D = diag(J^T J) with zeros set to 1, by gesv's
    Gaussian elimination with partial pivoting; None at an exactly 0 (singular) pivot."""
    n = len(g)
    m = [row + [-gk] for row, gk in zip(jtj, g)]
    for k, row in enumerate(m):
        row[k] += lam * (row[k] if row[k] > 0 else 1.0)
    for k in range(n):
        p = k
        for i in range(k + 1, n):
            if abs(m[i][k]) > abs(m[p][k]):
                p = i
        m[k], m[p] = m[p], m[k]
        top = m[k]
        if top[k] == 0:
            return None
        for row in m[k + 1:]:
            f = row[k] / top[k]
            for c in range(k + 1, n + 1):
                row[c] -= f * top[c]
    for k in range(n - 1, -1, -1):  # back substitution, into the last column
        for c in range(k + 1, n):
            m[k][n] -= m[k][c] * m[c][n]
        m[k][n] /= m[k][k]
    return [row[n] for row in m]


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
        p = [float(v) for v in init]
        if len(p) != len(spec.param_names):
            raise FitError(f"{family} needs {len(spec.param_names)} initial parameters")
        if not all(map(math.isfinite, p)):
            raise FitError(f"init must be finite, got {tuple(p)}")
    else:
        p = [float(v) for v in spec.auto_init(jj, yy)]
    value, gradient, points = spec.value, spec.gradient, list(zip(jj.tolist(), yy.tolist()))
    r = [value(j, *p) - y for j, y in points]
    if not all(map(math.isfinite, r)):
        raise FitError(f"initial parameters {tuple(p)} leave the model domain")
    rss = sum(map(mul, r, r))
    rss_floor = (1e-14 * (1.0 + float(np.linalg.norm(yy)))) ** 2
    lam, converged, iterations = 1e-3, False, 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        rows = [gradient(j, *p) for j, _ in points]
        if not all(map(math.isfinite, chain.from_iterable(rows))):
            raise FitError("Jacobian left the model domain during iteration")
        jtj, g = _normal_equations(rows, r)
        if rss <= rss_floor or _stationary(jtj, g, rss):
            converged = True
            break
        while lam < 1e15:
            step = _damped_step(jtj, g, lam)
            if step is None:
                lam *= 10
                continue
            p_try = [pk + sk for pk, sk in zip(p, step)]
            r_try = [value(j, *p_try) - y for j, y in points]
            rss_try = sum(map(mul, r_try, r_try))
            if rss_try < rss:
                p, r, rss = p_try, r_try, rss_try
                lam = max(lam / 3, 1e-14)
                break
            lam *= 3
        else:
            break  # damping exhausted; report honestly below
    jac = spec.jacobian(jj, p)
    if not converged and np.isfinite(jac).all():
        converged = rss <= rss_floor or _stationary(*_normal_equations(jac.tolist(), r), rss)
    return FitResult(model=FitModel(family=family, params=tuple(p)), rss=rss,
                     param_se=_standard_errors(jac, rss, len(jj), len(p)), n_points=len(jj),
                     iterations=iterations, converged=converged)


def _standard_errors(jac, rss, n, k):
    dof = n - k
    if dof <= 0 or not np.all(np.isfinite(jac)):
        return tuple([math.nan] * k)
    try:
        cov = np.linalg.inv(jac.T @ jac) * (rss / dof)
    except np.linalg.LinAlgError:
        return tuple([math.nan] * k)
    return tuple(math.sqrt(d) if d >= 0 else math.nan for d in np.diag(cov))
