"""Nonlinear least-squares fitting of the three scaling-law families.

Families
--------
* ``sq_power_offset``   F(J) = (a / J^b + c)^2
* ``shifted_power``     V(J) = a (J + b)^c
* ``log_over_linear``   tau(J) = log(a J) / (b J)

The solver is Gauss-Newton with Levenberg-style damping, analytic
Jacobians, and per-family auto-initialization obtained from the obvious
linearization of each model.  Residuals are unweighted.
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

    def to_json_dict(self) -> dict:
        spec = _family_spec(self.family)
        return {
            "family": self.family,
            "params": dict(zip(spec.param_names, self.params)),
        }


@dataclass(frozen=True)
class FitResult:
    model: FitModel
    rss: float
    param_se: tuple
    n_points: int
    iterations: int
    converged: bool

    def to_json_dict(self) -> dict:
        spec = _family_spec(self.model.family)
        return {
            "family": self.model.family,
            "params": dict(zip(spec.param_names, self.model.params)),
            "param_se": dict(zip(spec.param_names,
                                 [None if math.isnan(s) else s for s in self.param_se])),
            "rss": self.rss,
            "n_points": self.n_points,
            "iterations": self.iterations,
            "converged": self.converged,
        }

    @classmethod
    def from_json_dict(cls, record: dict) -> "FitResult":
        spec = _family_spec(record["family"])
        params = tuple(record["params"][name] for name in spec.param_names)
        se = tuple(math.nan if record["param_se"][name] is None
                   else float(record["param_se"][name])
                   for name in spec.param_names)
        return cls(model=FitModel(record["family"], params),
                   rss=float(record["rss"]), param_se=se,
                   n_points=int(record["n_points"]),
                   iterations=int(record["iterations"]),
                   converged=bool(record["converged"]))


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
    # y*J = (log J + log a) / b is linear in log J
    slope, intercept = np.polyfit(np.log(jj), yy * jj, 1)
    if slope <= 0:
        raise FitError(
            "log_over_linear auto-init needs data increasing in J*y; pass init"
        )
    return np.array([math.exp(intercept / slope), 1.0 / slope])


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
        domain_error=lambda j, a, b: None if a * j > 0
        else f"log_over_linear requires a*j > 0, got a={a}, j={j}"),
}

FAMILY_NAMES = tuple(_FAMILIES)


def _family_spec(family: str) -> _FamilySpec:
    try:
        return _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown model family {family!r}") from None


def evaluate(model: FitModel, j) -> float:
    """Closed-form model value at j; j may be math.inf for the limit."""
    spec = _family_spec(model.family)
    if math.isinf(j):
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
    if len(np.unique(jj)) != len(jj):
        raise FitError("fit needs distinct J values")
    return jj, yy


def _gradient_cosine(jac, r):
    """Largest |cos| between the residual and a Jacobian column."""
    rnorm = np.linalg.norm(r)
    if rnorm == 0:
        return 0.0
    cols = np.linalg.norm(jac, axis=0)
    cols = np.where(cols > 0, cols, 1.0)
    return float(np.max(np.abs(jac.T @ r) / (cols * rnorm)))


def fit(family: str, data, init=None,
        max_iterations: int = MAX_ITERATIONS,
        gradient_tol: float = GRADIENT_TOL) -> FitResult:
    """Least-squares fit of one family to (J, y) pairs.

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
    else:
        p = spec.auto_init(jj, yy)

    def residuals(params):
        with np.errstate(all="ignore"):
            model = spec.evaluate(jj, params)
        return model - yy

    r = residuals(p)
    if not np.all(np.isfinite(r)):
        raise FitError(f"initial parameters {tuple(p)} leave the model domain")
    rss = float(r @ r)
    rss_floor = (1e-14 * (1.0 + float(np.linalg.norm(yy)))) ** 2
    lam = 1e-3
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        with np.errstate(all="ignore"):
            jac = spec.jacobian(jj, p)
        if not np.all(np.isfinite(jac)):
            raise FitError("Jacobian left the model domain during iteration")
        if rss <= rss_floor or _gradient_cosine(jac, r) <= gradient_tol:
            converged = True
            break
        jtj = jac.T @ jac
        g = jac.T @ r
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = 1.0
        improved = False
        while lam < 1e15:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            p_try = p + step
            r_try = residuals(p_try)
            with np.errstate(invalid="ignore"):
                finite = np.all(np.isfinite(r_try))
            if finite:
                rss_try = float(r_try @ r_try)
                if rss_try < rss:
                    p, r, rss = p_try, r_try, rss_try
                    lam = max(lam / 3, 1e-14)
                    improved = True
                    break
            lam *= 3
        if not improved:
            break  # damping exhausted; report honestly below
    with np.errstate(all="ignore"):
        jac = spec.jacobian(jj, p)
    if converged is False and np.all(np.isfinite(jac)):
        converged = rss <= rss_floor or _gradient_cosine(jac, r) <= gradient_tol
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
