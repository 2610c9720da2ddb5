"""Shared test helpers: a vertex-enumeration LP oracle, instance factories,
bitwise comparisons of arrays and LP solutions, a KKT residual check, and
the forecaster's passes on a stack of one model.

The oracle is written directly against the math (enumerate active sets,
solve, filter, take the best) and shares no logic with the package under
test. The KKT check reads a solution against the optimality conditions of
the folded form, which it gets from ``LPStandardForm.fold_bounds``.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from mesval.lp import DEFAULT_TOL, LinearProgram, LPSolution, LPStandardForm
from mesval.lstm import (apply_external_gradient, backward_day, forward_day,
                         forward_days)


def oracle_min_objective(c, A_ub, b_ub, A_eq, b_eq, tol=1e-9):
    """Minimum of c.z over {A_ub z <= b_ub, A_eq z = b_eq} by enumerating
    candidate vertices (every choice of active inequality rows that, together
    with all equality rows, pins down z). Only valid when the optimum is
    attained at a vertex, which holds for the bounded instances used here.
    """
    n = len(c)
    m_eq = 0 if A_eq is None else A_eq.shape[0]
    rows_needed = n - m_eq
    q = 0 if A_ub is None else A_ub.shape[0]
    if rows_needed < 0:
        raise ValueError("over-determined equality block")
    best = np.inf
    best_z = None
    for active in combinations(range(q), rows_needed):
        blocks_A = [A_eq] if m_eq else []
        blocks_b = [b_eq] if m_eq else []
        if active:
            blocks_A.append(A_ub[list(active)])
            blocks_b.append(b_ub[list(active)])
        if not blocks_A:
            continue
        A = np.vstack(blocks_A)
        b = np.concatenate(blocks_b)
        try:
            z = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if np.abs(A @ z - b).max() > tol:  # reject near-singular systems
            continue
        if q and (A_ub @ z - b_ub > tol).any():
            continue
        if m_eq and np.abs(A_eq @ z - b_eq).max() > tol:
            continue
        val = float(c @ z)
        if val < best - 1e-12:
            best, best_z = val, z
    return best, best_z


def folded_arrays(lp, M):
    """Concrete folded-row arrays (bounds as rows) for feeding the oracle."""
    f = lp.fold_bounds()
    return f.A_f, f.b_f(M), f.A_h, f.b_h(M)


def random_box_lp(rng, n_vars, n_ineq, n_eq, param_dim):
    """Feasible-by-construction LP with finite box bounds and RHS params.

    Returns (program, M0). A strictly interior point z0 seeds the inequality
    RHS so the instance is always feasible; box bounds keep it bounded.
    """
    prog = LinearProgram()
    for k in range(param_dim):
        prog.add_param(f"m{k}")
    lo = -1.0 - rng.random(n_vars)
    hi = 1.0 + rng.random(n_vars)
    cost = rng.standard_normal(n_vars)
    for j in range(n_vars):
        prog.add_var(f"z{j}", lb=float(lo[j]), ub=float(hi[j]), cost=float(cost[j]))
    z0 = lo + (hi - lo) * (0.25 + 0.5 * rng.random(n_vars))
    M0 = rng.standard_normal(param_dim)
    names = [f"z{j}" for j in range(n_vars)]
    for i in range(n_ineq):
        a = rng.standard_normal(n_vars)
        slack = 0.1 + rng.random()
        pc = {}
        if param_dim and rng.random() < 0.7:
            k = int(rng.integers(param_dim))
            pc = {f"m{k}": float(rng.standard_normal())}
        const = float(a @ z0 + slack) - sum(
            coef * M0[int(name[1:])] for name, coef in pc.items()
        )
        prog.add_constraint(dict(zip(names, a)), "<=", const, params=pc)
    for i in range(n_eq):
        a = rng.standard_normal(n_vars)
        pc = {}
        if param_dim and rng.random() < 0.5:
            k = int(rng.integers(param_dim))
            pc = {f"m{k}": float(rng.standard_normal())}
        const = float(a @ z0) - sum(
            coef * M0[int(name[1:])] for name, coef in pc.items()
        )
        prog.add_constraint(dict(zip(names, a)), "==", const, params=pc)
    return prog, M0


def _bits(a):
    """dtype, shape and raw bytes: equal only for bit-identical arrays."""
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _assert_same_solution(got, want):
    """Two LP solutions agree on every field, bit for bit."""
    assert got.status == want.status
    assert got.basis == want.basis
    for name in ("primal", "ineq_duals", "eq_duals", "objective"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert _bits(a) == _bits(b), name


@dataclass(frozen=True)
class KktReport:
    """Worst-case residuals of the five optimality condition groups plus the
    primal/dual objective gap, each compared against tol * (1 + |C*|)."""

    ok: bool
    primal_ineq: float
    primal_eq: float
    dual_nonneg: float
    complementarity: float
    stationarity: float
    gap: float
    scale: float
    tol: float

    def __str__(self) -> str:  # compact diagnostic line
        return ("KKT(ok={0}, f+={1:.2e}, |h|={2:.2e}, lam-={3:.2e}, "
                "comp={4:.2e}, stat={5:.2e}, gap={6:.2e})").format(
                    self.ok, self.primal_ineq, self.primal_eq,
                    self.dual_nonneg, self.complementarity,
                    self.stationarity, self.gap)


def check_kkt(lp: LPStandardForm, M: np.ndarray,
              sol: LPSolution) -> KktReport:
    """Evaluate KKT residuals of an optimal-status solution on the folded
    form, each against ``DEFAULT_TOL * (1 + |C*|)``."""
    if sol.status != "optimal":
        raise ValueError(f"cannot check a solution with status {sol.status!r}")
    folded = lp.fold_bounds()
    M = np.asarray(M, dtype=float)
    z = sol.primal
    lam = sol.ineq_duals
    mu = sol.eq_duals
    f = folded.A_f @ z - folded.b_f(M)
    h = folded.A_h @ z - folded.b_h(M) if folded.n_eq else np.zeros(0)
    stat = folded.c + folded.A_f.T @ lam
    if folded.n_eq:
        stat = stat + folded.A_h.T @ mu
    primal_obj = float(folded.c @ z)
    dual_obj = -float(lam @ folded.b_f(M))
    if folded.n_eq:
        dual_obj -= float(mu @ folded.b_h(M))
    scale = 1.0 + abs(primal_obj)
    rep = {
        "primal_ineq": float(np.maximum(f, 0.0).max(initial=0.0)),
        "primal_eq": float(np.abs(h).max(initial=0.0)),
        "dual_nonneg": float(np.maximum(-lam, 0.0).max(initial=0.0)),
        "complementarity": float(np.abs(lam * f).max(initial=0.0)),
        "stationarity": float(np.abs(stat).max(initial=0.0)),
        "gap": abs(primal_obj - dual_obj),
    }
    ok = all(v <= DEFAULT_TOL * scale for v in rep.values())
    return KktReport(ok=ok, scale=scale, tol=DEFAULT_TOL, **rep)


# The forecaster's passes take a stack of models; these run one model as
# a stack of one.

def forecast_one(model, window):
    """``model``'s 24 kW forecasts from one window."""
    return forward_day([model], [window]).forecasts[0]


def forecast_days_one(model, windows):
    """``model``'s forecasts ``(B, 24)`` from a sequence of B windows."""
    return forward_days([model], [windows])[0]


def backward_one(model, window, dloss):
    """``backward_day``'s LstmParams gradient of ``dloss . forecast`` for
    ``model`` on one window."""
    tape = forward_day([model], [window])
    return backward_day(tape, np.asarray(dloss, dtype=float)[None], [0])[0]


def step_one(model, dloss, window, lr):
    """``model`` after ``apply_external_gradient``'s step on one window."""
    tape = forward_day([model], [window])
    return apply_external_gradient(tape, np.asarray(dloss, dtype=float)[None],
                                   [0], lr)[0]
