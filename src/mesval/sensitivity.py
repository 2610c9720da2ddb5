"""Parameter sensitivities of linear-program solutions.

At a nondegenerate optimum the stationarity, complementarity, and equality
residuals pin the primal-dual point ``w = (z, lam, mu)`` as an implicit
function of the right-hand-side parameters ``M``.  Writing the stacked
residual map

    G(w, M) = [ c + A_f' lam + A_h' mu ]
              [ diag(lam) (A_f z - b_f(M)) ]
              [ A_h z - b_h(M) ]

the implicit-function theorem gives ``dw/dM = -G_w^{-1} G_M``.  All bound
constraints are folded into inequality rows before assembly so the system
covers every active set uniformly; folding also turns a sparse ``A_f`` or
``A_h`` into a dense one, which these dense factorizations need.

The cost slope ``dC*/dM`` is available two ways, and they must agree away
from degeneracy:

  * primal route: ``c' dz/dM`` from the solved linear system above;
  * dual route (envelope): ``-(lam' B_f + mu' B_h)``, no linear solve.

On degenerate vertices ``G_w`` is singular; after one damped retry the solve
is abandoned and :func:`cost_gradient` falls back to the dual route, flagging
the result so callers can audit how often the fallback fires.

:func:`finite_difference_gradient` is the independent numerical oracle: it
re-solves the LP at ``M +- h`` per slot, reports one-sided and central
slopes, and marks slots where the two sides disagree (the optimal cost is
piecewise linear in ``M``, so a disagreement means a kink, not noise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import (LPNumericalError, LPSolution, LPStandardForm,
                 solve_bland_batch)
# not called here; kept importable for tools that wrap mesval.sensitivity
from .lp import solve_lp  # noqa: F401

DAMPING = 1e-10
COND_LIMIT = 1e12
FD_STEP = 1e-5
KINK_TOL = 1e-6
ACTIVE_TOL = 1e-7


class DegenerateSolutionError(RuntimeError):
    """Stacked optimality jacobian is numerically singular."""

    def __init__(self, message: str, cond: float):
        super().__init__(message)
        self.cond = cond


class FDOracleError(RuntimeError):
    """A perturbed solve needed by the finite-difference oracle failed."""


@dataclass(frozen=True)
class KktJacobians:
    """Blocks of the implicit-function system at a solved point."""

    G_z: np.ndarray       # (n+q+m, n+q+m) jacobian in the primal-dual point
    G_M: np.ndarray       # (n+q+m, p) jacobian in the parameters
    n: int
    q: int
    m: int


@dataclass(frozen=True)
class Conditioning:
    cond: float
    regularization: float
    degenerate: bool


@dataclass(frozen=True)
class GradientResult:
    """Cost and primal slopes with the conditioning of the solve behind them.

    ``dz_dM`` is None wherever no implicit-function solve succeeded: on the
    dual route, and when ``conditioning.degenerate`` is set. Only the cost
    slope exists there. The dual route solves no system, so its
    ``conditioning`` is None too.
    """

    dz_dM: np.ndarray | None          # (n, p)
    dcost_dM: np.ndarray              # (p,)
    conditioning: Conditioning | None


@dataclass(frozen=True)
class FDGradient:
    value: np.ndarray     # (p,) central difference
    left: np.ndarray      # (p,) backward difference
    right: np.ndarray     # (p,) forward difference
    kink: np.ndarray      # (p,) bool, True where left and right disagree


@dataclass(frozen=True)
class DegeneracyInfo:
    n_active_ineq: int
    n_eq: int
    n_vars: int
    primal_degenerate: bool   # more tight rows than variables
    dual_degenerate: bool     # a tight row carrying a (near) zero multiplier
    nondegenerate: bool


def assemble_kkt_jacobians(lp: LPStandardForm, M: np.ndarray,
                           sol: LPSolution) -> KktJacobians:
    """Build the two jacobian blocks of the stacked residual map.

    Bounds are folded into rows first, so ``sol`` must carry folded-length
    inequality duals (every solution from :func:`mesval.lp.solve_lp` does).
    """
    if sol.status != "optimal":
        raise ValueError(f"cannot differentiate a {sol.status!r} solution")
    folded = lp.fold_bounds()
    M = np.asarray(M, dtype=float)
    n, q, m = folded.n_vars, folded.n_ineq, folded.n_eq
    z = np.asarray(sol.primal, dtype=float)
    lam = np.asarray(sol.ineq_duals, dtype=float)
    if lam.shape[0] != q:
        raise ValueError(
            f"expected {q} inequality duals on the folded form, got {lam.shape[0]}")
    f = folded.A_f @ z - folded.b_f(M)

    G_z = np.zeros((n + q + m, n + q + m))
    G_z[:n, n:n + q] = folded.A_f.T
    G_z[:n, n + q:] = folded.A_h.T
    G_z[n:n + q, :n] = lam[:, None] * folded.A_f
    G_z[n:n + q, n:n + q] = np.diag(f)
    G_z[n + q:, :n] = folded.A_h

    p = folded.param_dim
    G_M = np.zeros((n + q + m, p))
    # rhs enters f and h with a minus sign: d f / dM = -B_f, d h / dM = -B_h
    G_M[n:n + q] = -(lam[:, None] * folded.B_f)
    G_M[n + q:] = -folded.B_h
    return KktJacobians(G_z=G_z, G_M=G_M, n=n, q=q, m=m)


def solution_sensitivity(jac: KktJacobians
                         ) -> tuple[np.ndarray, Conditioning]:
    """Solve ``dw/dM = -G_z^{-1} G_M``, with one damped retry.

    Returns the full primal-dual sensitivity stacked as in the residual map
    (rows 0..n-1 are dz/dM).  A system whose condition number exceeds
    ``COND_LIMIT`` is retried once with ``DAMPING`` added to its diagonal;
    :class:`DegenerateSolutionError` is raised when it stays above the
    limit after that.
    """
    A = jac.G_z
    cond = np.linalg.cond(A)
    if np.isfinite(cond) and cond <= COND_LIMIT:
        S = -np.linalg.solve(A, jac.G_M)
        return S, Conditioning(cond=float(cond), regularization=0.0,
                               degenerate=False)
    damped = A + DAMPING * np.eye(A.shape[0])
    cond2 = np.linalg.cond(damped)
    if not np.isfinite(cond2) or cond2 > COND_LIMIT:
        raise DegenerateSolutionError(
            f"optimality jacobian singular (cond {cond:.3e}, "
            f"damped cond {cond2:.3e})", cond=float(cond2))
    S = -np.linalg.solve(damped, jac.G_M)
    return S, Conditioning(cond=float(cond2), regularization=DAMPING,
                           degenerate=False)


def envelope_gradient(lp: LPStandardForm, sol: LPSolution) -> np.ndarray:
    """Dual route for dC*/dM: ``-(lam' B_f + mu' B_h)``.

    Exact wherever the optimal cost is differentiable, and a valid
    subgradient at kinks.  Works on folded and unfolded forms alike since
    appended bound rows carry a zero parameter jacobian.
    """
    if sol.status != "optimal":
        raise ValueError(f"cannot differentiate a {sol.status!r} solution")
    lam = np.asarray(sol.ineq_duals, dtype=float)
    mu = np.asarray(sol.eq_duals, dtype=float)
    q = lp.B_f.shape[0]
    return -(lam[:q] @ lp.B_f + mu @ lp.B_h)


def dual_gradient_result(lp: LPStandardForm, sol: LPSolution) -> GradientResult:
    """Package the envelope slope as a GradientResult.

    The dual route never solves the implicit system, so no primal
    sensitivity and no condition number exist: ``dz_dM`` and
    ``conditioning`` are None.
    """
    return GradientResult(dz_dM=None, dcost_dM=envelope_gradient(lp, sol),
                          conditioning=None)


def cost_gradient(lp: LPStandardForm, M: np.ndarray,
                  sol: LPSolution) -> GradientResult:
    """Cost slope via the implicit-function solve, dual fallback on failure."""
    jac = assemble_kkt_jacobians(lp, M, sol)
    try:
        S, cond = solution_sensitivity(jac)
    except DegenerateSolutionError as err:
        return GradientResult(
            dz_dM=None, dcost_dM=envelope_gradient(lp, sol),
            conditioning=Conditioning(cond=err.cond, regularization=DAMPING,
                                      degenerate=True))
    dz = S[:jac.n]
    return GradientResult(dz_dM=dz, dcost_dM=lp.c @ dz, conditioning=cond)


def finite_difference_gradient(lp: LPStandardForm,
                               M: np.ndarray) -> FDGradient:
    """Numerical oracle: central and one-sided slopes of C*(M) per slot.

    Each slot moves by ``FD_STEP`` either way and every problem is solved
    by the Bland engine: ``M`` and its 2p perturbations go through one
    :func:`mesval.lp.solve_bland_batch` call, which returns what solving
    them one by one would. Every perturbed problem must stay solvable; a
    non-optimal status raises :class:`FDOracleError` naming the slot. A
    failure is raised where one-by-one solves would meet it: the base
    problem first, then slot by slot, a breakdown of the ``+h`` or ``-h``
    solve before either's status. Kinks are flagged where the two
    one-sided slopes disagree by more than ``KINK_TOL`` times their scale.
    """
    h = FD_STEP
    M = np.asarray(M, dtype=float)
    p = M.shape[0]
    value = np.zeros(p)
    left = np.zeros(p)
    right = np.zeros(p)
    kink = np.zeros(p, dtype=bool)
    Ms = [M]
    for k in range(p):
        e = np.zeros(p)
        e[k] = h
        Ms += [M + e, M - e]
    sols = solve_bland_batch(lp, np.array(Ms))
    base = sols[0]
    if isinstance(base, LPNumericalError):
        raise base
    if base.status != "optimal":
        raise FDOracleError(f"base problem is {base.status}")
    for k in range(p):
        up, dn = sols[1 + 2 * k], sols[2 + 2 * k]
        for s in (up, dn):
            if isinstance(s, LPNumericalError):
                raise s
        for tag, s in (("+", up), ("-", dn)):
            if s.status != "optimal":
                raise FDOracleError(
                    f"perturbation {tag}h on slot {k} is {s.status}")
        right[k] = (up.objective - base.objective) / h
        left[k] = (base.objective - dn.objective) / h
        value[k] = (up.objective - dn.objective) / (2 * h)
        scale = 1.0 + max(abs(left[k]), abs(right[k]))
        kink[k] = abs(right[k] - left[k]) > KINK_TOL * scale
    return FDGradient(value=value, left=left, right=right, kink=kink)


def vertex_degeneracy(lp: LPStandardForm, M: np.ndarray,
                      sol: LPSolution) -> DegeneracyInfo:
    """Classify the solved vertex (folded form).

    A row is tight when its residual is at most ``ACTIVE_TOL * (1 + max
    |b_f0|)``, and a multiplier is near zero when at most ``ACTIVE_TOL``.
    Primal degenerate: tight rows plus equalities exceed the variable count.
    Dual degenerate: some tight inequality carries a near-zero multiplier, so
    the active set is not identified by the duals.  ``nondegenerate`` means
    square active system and strict complementarity, the regime where the
    implicit-function solve is trustworthy.
    """
    if sol.status != "optimal":
        raise ValueError(f"cannot classify a {sol.status!r} solution")
    folded = lp.fold_bounds()
    z = np.asarray(sol.primal, dtype=float)
    lam = np.asarray(sol.ineq_duals, dtype=float)
    f = folded.A_f @ z - folded.b_f(np.asarray(M, dtype=float))
    scale = 1.0 + np.abs(folded.b_f0).max(initial=0.0)
    active = np.abs(f) <= ACTIVE_TOL * scale
    n_active = int(active.sum())
    primal_deg = n_active + folded.n_eq > folded.n_vars
    dual_deg = bool(np.any(active & (lam <= ACTIVE_TOL)))
    nondeg = (n_active + folded.n_eq == folded.n_vars) and not dual_deg
    return DegeneracyInfo(
        n_active_ineq=n_active, n_eq=folded.n_eq, n_vars=folded.n_vars,
        primal_degenerate=primal_deg, dual_degenerate=dual_deg,
        nondegenerate=nondeg)
