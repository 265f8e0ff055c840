"""Two independent propagation oracles for the tests.

Both take any generator on its whole dense matrix, with the argument checks
and the norm check of ``tactsim.dynamics.evolve``, the one general
propagator; the tests cross-check it against them:

* ``dense_expm_evolve``: scaling-and-squaring on the complex matrix (scipy;
  Moler & Van Loan, SIAM Rev. 45, 3 (2003)).
* ``krylov_evolve``: Lanczos exponential action (Hochbruck & Lubich,
  SINUM 34, 1911 (1997)) on the dense matrix stored as scipy CSR, so a
  Lanczos step costs O(nonzeros) rather than O(n^2), with full
  reorthogonalization and adaptive substepping, its substep error
  controlled through the residual estimate
  beta0 * beta_{m+1} * dt * |y_m|.  If the accumulated estimate cannot be
  brought below ``_KRYLOV_TOL`` within ``_KRYLOV_MAX_SUBSTEPS`` it fails
  loudly instead of returning an inaccurate state.
"""

import math

import numpy as np
import scipy.linalg
import scipy.sparse

from tactsim.dynamics import PropagationError, _checked_tau, _unit_columns
from tactsim.operators import BandedOperator
from tactsim.states import SpinState

_KRYLOV_M = 40
_KRYLOV_STEP_BUDGET = 0.3  # target ||G||*dt per substep, in units of m
_KRYLOV_TOL = 1e-10
_KRYLOV_MAX_SUBSTEPS = 4096


def _lanczos_step(g, v, dt, m):
    """exp(dt*G) v for one substep, G skew-hermitian, via Lanczos on iG.

    Returns (result, local error estimate).
    """
    n = v.shape[0]
    beta0 = float(np.linalg.norm(v))
    if beta0 == 0.0:
        return v.copy(), 0.0
    m = min(m, n)
    V = np.empty((m, n), dtype=complex)
    alpha = np.zeros(m)
    beta = np.zeros(m)  # beta[k] couples basis vectors k-1 and k
    V[0] = v / beta0
    used = m
    beta_next = 0.0
    for k in range(m):
        w = 1j * (g @ V[k])
        ak = float(np.vdot(V[k], w).real)
        w -= ak * V[k]
        if k:
            w -= beta[k] * V[k - 1]
        proj = np.conj(V[: k + 1] @ np.conj(w))  # <V_i, w> without copying V
        w -= V[: k + 1].T @ proj
        alpha[k] = ak
        b = float(np.linalg.norm(w))
        if k + 1 < m:
            if b <= 1e-14 * max(1.0, abs(ak)):
                used = k + 1
                break
            beta[k + 1] = b
            V[k + 1] = w / b
        else:
            beta_next = b
    lam, Q = scipy.linalg.eigh_tridiagonal(alpha[:used], beta[1:used])
    y = Q @ (np.exp(-1j * dt * lam) * Q[0])
    out = beta0 * (y @ V[:used])
    err = beta0 * beta_next * abs(dt) * abs(y[-1])
    return out, err


def _krylov_expm_action(g, v, tau):
    """exp(tau*g) v; real for a real g and v, since exp(tau*g) is then real."""
    real = not np.iscomplexobj(g) and not np.any(np.imag(v))
    work = np.asarray(v, dtype=complex)
    n = g.shape[0]
    m = min(_KRYLOV_M, n)
    if m >= n:
        n_sub = 1  # the Krylov space spans everything; one step is exact
    else:
        sup_norm = float(abs(g).sum(axis=1).max())
        n_sub = max(1, math.ceil(abs(tau) * sup_norm / (_KRYLOV_STEP_BUDGET * m)))
    while True:
        if n_sub > _KRYLOV_MAX_SUBSTEPS:
            raise PropagationError(f"accuracy {_KRYLOV_TOL:g} not reached "
                                   f"within {_KRYLOV_MAX_SUBSTEPS} substeps")
        dt = tau / n_sub
        w = work
        err = 0.0
        for _ in range(n_sub):
            w, e = _lanczos_step(g, w, dt, m)
            err += e
            if err > _KRYLOV_TOL:
                break
        if err <= _KRYLOV_TOL:
            return w.real if real else w
        n_sub *= 2


def _oracle_evolve(state, generator, tau, action) -> SpinState:
    """action(g, v, tau) = exp(tau*g) v on the whole dense generator, with
    the checks of ``evolve``; any generator is taken."""
    tau = _checked_tau(state, generator, tau)
    g = generator.to_dense()
    out = action(g.real if generator.is_real else g, state.amplitudes, tau)
    return SpinState(state.j, _unit_columns(out, "propagated"))


def dense_expm_evolve(state: SpinState, generator: BandedOperator, tau) -> SpinState:
    """Oracle: exp(G*tau) applied to the state by scaling-and-squaring, always on
    the complex matrix: scipy 1.17's expm of the real twisting generator is up to
    1.4e-11 off at J = 200 (tau = default_tau_max), its complex route 1.2e-13."""
    return _oracle_evolve(state, generator, tau,
                          lambda g, v, t: scipy.linalg.expm(g.astype(complex) * t) @ v)


def krylov_evolve(state: SpinState, generator: BandedOperator, tau) -> SpinState:
    """Oracle: exp(G*tau) applied to the state by a substepped Lanczos action."""
    return _oracle_evolve(state, generator, tau,
                          lambda g, v, t: _krylov_expm_action(scipy.sparse.csr_array(g), v, t))
