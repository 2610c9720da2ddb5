"""Tests for the canonical LP layer: builder, both solver engines, KKT checks.

Groups:
  1. Structured build -> canonical form (row canonicalization, parameter
     jacobians, bound folding, deterministic ordering, round trip).
  2. Bland-rule simplex engine: frozen small instances, statuses, duals,
     a randomized battery cross-checked against a vertex-enumeration oracle,
     bit-identical determinism, objective affinity in the RHS parameters,
     and bitwise agreement of single and batched solves with a verbatim
     copy of the engine's earlier per-row loops.
  3. HiGHS engine adapter: same contracts, cross-engine agreement; bitwise
     agreement of cold solves with scipy.optimize.linprog on random,
     edge-case and dispatch LPs; warm starts inside a search, against cold
     solves; the post-solve check and the status map.
  4. check_kkt: accepts solver output, flags constructed violations.

The vertex-enumeration oracle in _util.py is written directly against the
mathematical definition (enumerate active sets, solve, filter feasible,
take the best) and shares no code with the solver under test.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from _util import (_assert_same_solution, _bits, check_kkt, folded_arrays,
                   oracle_min_objective, random_box_lp)
from mesval.lp import (
    DEFAULT_TOL,
    PIVOT_TOL,
    LinearProgram,
    LPBuildError,
    LPNumericalError,
    LPSolution,
    LPStandardForm,
    _FEAS_TOL,
    _check_feasible,
    _highs_outcome,
    solve_bland_batch,
    solve_lp,
    to_standard_form,
)

RNG_SEED = 20240814


# ---------------------------------------------------------------------------
# 1. structured build -> canonical form
# ---------------------------------------------------------------------------

def test_ge_row_canonicalized_with_param_jacobian():
    # min x subject to x >= M: canonical row -x <= -M, so A_f = [-1] and
    # d b_f / d M = [-1].
    prog = LinearProgram()
    prog.add_param("M")
    prog.add_var("x", cost=1.0)
    prog.add_constraint({"x": 1.0}, ">=", 0.0, params={"M": 1.0})
    lp = to_standard_form(prog)
    assert lp.n_vars == 1 and lp.param_dim == 1
    np.testing.assert_allclose(lp.A_f, [[-1.0]])
    np.testing.assert_allclose(lp.b_f0, [0.0])
    np.testing.assert_allclose(lp.B_f, [[-1.0]])
    assert lp.A_h.shape == (0, 1)
    np.testing.assert_allclose(lp.b_f(np.array([3.0])), [-3.0])


def test_equality_row_lands_in_equality_block():
    prog = LinearProgram()
    prog.add_var("x", cost=1.0)
    prog.add_var("y", cost=0.0)
    prog.add_constraint({"x": 2.0, "y": 1.0}, "==", 5.0)
    lp = to_standard_form(prog)
    assert lp.A_f.shape == (0, 2)
    np.testing.assert_allclose(lp.A_h, [[2.0, 1.0]])
    np.testing.assert_allclose(lp.b_h0, [5.0])
    assert lp.B_h.shape == (1, 0)


def test_row_and_variable_order_is_declaration_order():
    prog = LinearProgram()
    prog.add_var("a", cost=1.0)
    prog.add_var("b", cost=2.0)
    prog.add_constraint({"b": 1.0}, "<=", 4.0, name="cap_b")
    prog.add_constraint({"a": 1.0, "b": -1.0}, ">=", -1.0, name="link")
    lp = to_standard_form(prog)
    assert lp.var_names == ("a", "b")
    assert lp.ineq_names == ("cap_b", "link")
    np.testing.assert_allclose(lp.A_f, [[0.0, 1.0], [-1.0, 1.0]])
    np.testing.assert_allclose(lp.b_f0, [4.0, 1.0])


def test_round_trip_through_canonical_form():
    rng = np.random.default_rng(RNG_SEED)
    prog, M0 = random_box_lp(rng, 3, 4, 1, 2)
    lp = to_standard_form(prog)
    rebuilt = LinearProgram()
    for k in range(lp.param_dim):
        rebuilt.add_param(lp.param_names[k])
    for j, name in enumerate(lp.var_names):
        rebuilt.add_var(name, lb=float(lp.lb[j]), ub=float(lp.ub[j]),
                        cost=float(lp.c[j]))
    for i, name in enumerate(lp.ineq_names):
        rebuilt.add_constraint(
            dict(zip(lp.var_names, lp.A_f[i])), "<=", float(lp.b_f0[i]),
            params=dict(zip(lp.param_names, lp.B_f[i])), name=name)
    for i, name in enumerate(lp.eq_names):
        rebuilt.add_constraint(
            dict(zip(lp.var_names, lp.A_h[i])), "==", float(lp.b_h0[i]),
            params=dict(zip(lp.param_names, lp.B_h[i])), name=name)
    lp2 = to_standard_form(rebuilt)
    np.testing.assert_array_equal(lp.c, lp2.c)
    np.testing.assert_array_equal(lp.A_f, lp2.A_f)
    np.testing.assert_array_equal(lp.B_f, lp2.B_f)
    np.testing.assert_array_equal(lp.A_h, lp2.A_h)
    np.testing.assert_array_equal(lp.B_h, lp2.B_h)
    np.testing.assert_array_equal(lp.lb, lp2.lb)
    np.testing.assert_array_equal(lp.ub, lp2.ub)


def test_canonical_form_keeps_the_signed_zeros_of_negated_rows():
    # a >= row is negated whole: what it leaves unset, and an explicit 0.0,
    # read -0.0; an explicit -0.0 reads +0.0, and on a <= row it stays
    # -0.0. The CSR form built from the same triplets stores none of them
    from mesval.lp import _csr_standard_form

    prog = LinearProgram()
    for k in range(2):
        prog.add_param(f"m{k}")
    for name in "xyz":
        prog.add_var(name, lb=0.0, ub=1.0, cost=1.0)
    prog.add_constraint({"x": 1.0, "y": 0.0}, "<=", 2.0, params={"m0": -0.0})
    prog.add_constraint({"z": 2.0, "x": -0.0}, ">=", 0.0, params={"m1": 1.0})
    prog.add_constraint({"y": 0.0}, ">=", -1.0)
    lp = to_standard_form(prog)
    np.testing.assert_array_equal(lp.A_f, [[1.0, 0.0, 0.0], [0.0, 0.0, -2.0],
                                           [0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(np.signbit(lp.A_f), [[0, 0, 0], [0, 1, 1],
                                                       [1, 1, 1]])
    np.testing.assert_array_equal(lp.B_f, [[0.0, 0.0], [0.0, -1.0],
                                           [0.0, 0.0]])
    np.testing.assert_array_equal(np.signbit(lp.B_f), [[1, 0], [1, 1],
                                                       [1, 1]])
    np.testing.assert_array_equal(lp.b_f0, [2.0, 0.0, 1.0])
    np.testing.assert_array_equal(np.signbit(lp.b_f0), [0, 1, 0])
    for field, shape in (("A_h", (0, 3)), ("B_h", (0, 2)), ("b_h0", (0,))):
        assert getattr(lp, field).shape == shape, field
    csr = _csr_standard_form(prog)
    for field in ("A_f", "A_h"):
        got, want = getattr(csr, field), sparse.csr_array(getattr(lp, field))
        for part in ("data", "indices", "indptr"):
            assert _bits(getattr(got, part)) == _bits(getattr(want, part))
    assert _bits(csr.A_f.data) == _bits(np.array([1.0, -2.0]))
    assert _bits(csr.A_f.indices) == _bits(np.array([0, 2], dtype=np.int32))
    for field in ("c", "b_f0", "B_f", "b_h0", "B_h", "lb", "ub"):
        assert _bits(getattr(csr, field)) == _bits(getattr(lp, field)), field


def test_fold_bounds_appends_rows_in_documented_order():
    prog = LinearProgram()
    prog.add_var("x", lb=0.0, ub=2.0, cost=1.0)
    prog.add_var("y", lb=-1.0, cost=1.0)  # no upper bound
    prog.add_constraint({"x": 1.0, "y": 1.0}, "<=", 3.0)
    lp = to_standard_form(prog)
    f = lp.fold_bounds()
    # order: declared rows, then -z_j <= -lb_j for finite lb, then z_j <= ub_j
    np.testing.assert_allclose(f.A_f, [[1.0, 1.0], [-1.0, 0.0],
                                       [0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_allclose(f.b_f0, [3.0, 0.0, 1.0, 2.0])
    assert f.B_f.shape[0] == 4
    np.testing.assert_allclose(f.B_f[1:], 0.0)  # bound rows carry no params
    assert np.isinf(f.lb).all() and np.isinf(f.ub).all()
    np.testing.assert_array_equal(f.lb_row_vars, [0, 1])
    np.testing.assert_array_equal(f.ub_row_vars, [0])


def test_builder_rejects_bad_input():
    prog = LinearProgram()
    prog.add_var("x")
    with pytest.raises(LPBuildError):
        prog.add_var("x")  # duplicate name
    with pytest.raises(LPBuildError):
        prog.add_constraint({"nope": 1.0}, "<=", 0.0)
    with pytest.raises(LPBuildError):
        prog.add_constraint({"x": 1.0}, "<<", 0.0)
    with pytest.raises(LPBuildError):
        prog.add_constraint({"x": np.nan}, "<=", 0.0)
    with pytest.raises(LPBuildError):
        prog.add_constraint({"x": 1.0}, "<=", 0.0, params={"ghost": 1.0})
    with pytest.raises(LPBuildError):
        prog.add_var("y", lb=2.0, ub=1.0)


# ---------------------------------------------------------------------------
# 2. Bland-rule engine
# ---------------------------------------------------------------------------

def simple_lp(sense_rows, cost, bounds=None, params=0):
    """Helper: one- or two-variable program from terse row tuples."""
    prog = LinearProgram()
    for k in range(params):
        prog.add_param(f"m{k}")
    nv = len(cost)
    for j in range(nv):
        lb, ub = (None, None) if bounds is None else bounds[j]
        prog.add_var(f"z{j}", lb=lb, ub=ub, cost=cost[j])
    for coeffs, sense, rhs in sense_rows:
        prog.add_constraint(dict(zip([f"z{j}" for j in range(nv)], coeffs)),
                            sense, rhs)
    return to_standard_form(prog)


def test_single_binding_row_primal_and_dual():
    # min x subject to x >= 3: optimum x = 3 with dual weight 1 on the row.
    lp = simple_lp([((1.0,), ">=", 3.0)], (1.0,))
    sol = solve_lp(lp, np.zeros(0))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.primal, [3.0], atol=1e-9)
    assert abs(sol.objective - 3.0) < 1e-9
    np.testing.assert_allclose(sol.ineq_duals, [1.0], atol=1e-9)
    assert check_kkt(lp, np.zeros(0), sol).ok


def test_box_vertex_optimum_matches_oracle():
    # min -x - y subject to x + y <= 1.5, 0 <= x,y <= 1: optimum value -1.5.
    lp = simple_lp([((1.0, 1.0), "<=", 1.5)], (-1.0, -1.0),
                   bounds=[(0.0, 1.0), (0.0, 1.0)])
    sol = solve_lp(lp, np.zeros(0))
    assert sol.status == "optimal"
    assert abs(sol.objective - (-1.5)) < 1e-9
    A_ub, b_ub, A_eq, b_eq = folded_arrays(lp, np.zeros(0))
    best, _ = oracle_min_objective(lp.c, A_ub, b_ub, None, None)
    assert abs(sol.objective - best) < 1e-9
    assert check_kkt(lp, np.zeros(0), sol).ok


def test_unbounded_reported_as_status():
    lp = simple_lp([((1.0,), ">=", 0.0)], (-1.0,))
    sol = solve_lp(lp, np.zeros(0))
    assert sol.status == "unbounded"
    assert sol.primal is None


def test_infeasible_reported_as_status():
    lp = simple_lp([((1.0,), ">=", 1.0), ((1.0,), "<=", 0.0)], (1.0,))
    sol = solve_lp(lp, np.zeros(0))
    assert sol.status == "infeasible"


def test_equality_pinned_point():
    lp = simple_lp([((2.0, 1.0), "==", 5.0), ((1.0, -1.0), "==", 1.0)],
                   (1.0, 1.0))
    sol = solve_lp(lp, np.zeros(0))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.primal, [2.0, 1.0], atol=1e-9)
    assert check_kkt(lp, np.zeros(0), sol).ok


def test_redundant_rows_do_not_break_duals():
    lp = simple_lp([((1.0, 1.0), "<=", 2.0), ((2.0, 2.0), "<=", 4.0),
                    ((1.0, 0.0), ">=", 0.5), ((1.0, 0.0), ">=", 0.5)],
                   (-1.0, -1.0), bounds=[(0.0, 3.0), (0.0, 3.0)])
    sol = solve_lp(lp, np.zeros(0))
    assert sol.status == "optimal"
    assert abs(sol.objective - (-2.0)) < 1e-9
    assert check_kkt(lp, np.zeros(0), sol).ok


def test_battery_matches_vertex_oracle_and_kkt():
    rng = np.random.default_rng(RNG_SEED)
    solved = 0
    for trial in range(40):
        n = int(rng.integers(2, 5))
        prog, M0 = random_box_lp(rng, n, int(rng.integers(1, 5)),
                                 int(rng.integers(0, min(2, n))), 2)
        lp = to_standard_form(prog)
        sol = solve_lp(lp, M0)
        assert sol.status == "optimal", f"trial {trial} unexpectedly {sol.status}"
        A_ub, b_ub, A_eq, b_eq = folded_arrays(lp, M0)
        best, _ = oracle_min_objective(
            lp.c, A_ub, b_ub, A_eq if A_eq.size else None,
            b_eq if A_eq.size else None)
        assert abs(sol.objective - best) < 1e-7, f"trial {trial}"
        rep = check_kkt(lp, M0, sol)
        assert rep.ok, f"trial {trial}: {rep}"
        solved += 1
    assert solved == 40


def test_repeat_solve_is_bit_identical():
    rng = np.random.default_rng(RNG_SEED + 1)
    prog, M0 = random_box_lp(rng, 4, 5, 1, 2)
    lp = to_standard_form(prog)
    a = solve_lp(lp, M0)
    b = solve_lp(lp, M0)
    assert a.objective == b.objective
    assert np.array_equal(a.primal, b.primal)
    assert np.array_equal(a.ineq_duals, b.ineq_duals)
    assert np.array_equal(a.eq_duals, b.eq_duals)
    assert a.basis == b.basis


def test_objective_affine_in_rhs_parameters_for_fixed_basis():
    # three-point collinearity: C*(M - d), C*(M), C*(M + d) on a line while
    # the basis does not move.
    rng = np.random.default_rng(RNG_SEED + 2)
    checked = 0
    for trial in range(20):
        prog, M0 = random_box_lp(rng, 3, 4, 0, 2)
        lp = to_standard_form(prog)
        d = 1e-3 * rng.standard_normal(2)
        sols = [solve_lp(lp, M0 + s * d) for s in (-1.0, 0.0, 1.0)]
        if any(s.status != "optimal" for s in sols):
            continue
        if sols[0].basis != sols[1].basis or sols[1].basis != sols[2].basis:
            continue
        curvature = sols[0].objective + sols[2].objective - 2 * sols[1].objective
        assert abs(curvature) < 1e-9 * (1.0 + abs(sols[1].objective))
        checked += 1
    assert checked >= 10


# ---------------------------------------------------------------------------
# 2b. Bland engine against its earlier per-row loops, bit for bit
# ---------------------------------------------------------------------------
# _pivot, _bland_loop and _solve_bland below are the engine as it stood
# before its per-pivot Python was vectorised, kept verbatim as the
# reference. Only the tiny-pivot refresh after a dropped dependent row
# differs: the reference raises there (see the test after the comparison).
# The engine now solves a batch of parameter vectors, grouped by the sign
# pattern of b(M) and pivoted in lockstep; solve_lp is a batch of one, run
# by the 2-D loop. Both are held to the reference: every item of a batch,
# sign bits included, over the same cases spread across several sign
# patterns and mixed with infeasible, unbounded, dependent-row and
# tiny-pivot items.

def _pivot(T: np.ndarray, basis: np.ndarray, i: int, j: int) -> None:
    T[i] /= T[i, j]
    col = T[:, j].copy()
    col[i] = 0.0
    T -= np.outer(col, T[i])
    T[:, j] = 0.0
    T[i, j] = 1.0
    basis[i] = j


def _bland_loop(T, basis, cost, allowed, tol, pivot_tol, max_iter, refresh):
    """Run Bland iterations in place. Returns 'optimal' or 'unbounded'."""
    N = T.shape[1] - 1
    retried = False
    for _ in range(max_iter):
        red = cost - cost[basis] @ T[:, :N]
        red[basis] = 0.0
        cand = np.flatnonzero(allowed & (red < -tol))
        if cand.size == 0:
            return "optimal"
        j = int(cand[0])
        col = T[:, j]
        pos = col > pivot_tol
        if not pos.any():
            if (col > 0.0).any() and not retried:
                refresh(T, basis)  # tiny pivots only: rebuild and retry once
                retried = True
                continue
            return "unbounded"
        ratios = np.where(pos, T[:, -1] / np.where(pos, col, 1.0), np.inf)
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + 1e-12 * (1.0 + abs(best)))
        i = int(ties[np.argmin(basis[ties])])
        _pivot(T, basis, i, j)
        retried = False
    raise LPNumericalError("simplex iteration limit exceeded")


def _solve_bland(lp: LPStandardForm, M: np.ndarray,
                 max_iter: int = 200_000) -> LPSolution:
    folded = lp.fold_bounds()
    q = folded.n_ineq
    m = folded.n_eq
    n = folded.n_vars
    b_f = folded.b_f(M)
    b_h = folded.b_h(M)
    b = np.concatenate([b_f, b_h])
    rows = q + m

    # columns: z+ (n) | z- (n) | slack (q) | artificials (eq rows and
    # negative-RHS ineq rows). Artificial coefficient is sign(b_i) so the
    # initial basic value is |b_i|.
    art_rows = [i for i in range(rows) if i >= q or b[i] < 0.0]
    n_art = len(art_rows)
    N = 2 * n + q + n_art
    D = np.zeros((rows, N + 1))
    D[:q, :n] = folded.A_f
    D[:q, n:2 * n] = -folded.A_f
    D[q:, :n] = folded.A_h
    D[q:, n:2 * n] = -folded.A_h
    D[np.arange(q), 2 * n + np.arange(q)] = 1.0
    art_col_of_row = {}
    for k, i in enumerate(art_rows):
        jcol = 2 * n + q + k
        D[i, jcol] = 1.0 if b[i] >= 0.0 else -1.0
        art_col_of_row[i] = jcol
    D[:, -1] = b

    art_mask = np.zeros(N, dtype=bool)
    art_mask[2 * n + q:] = True
    allowed = ~art_mask

    basis = np.empty(rows, dtype=int)
    for i in range(rows):
        basis[i] = art_col_of_row.get(i, 2 * n + i)

    T = D.copy()
    neg = T[:, -1] < 0.0  # rows whose initial basic column has coefficient -1
    T[neg] *= -1.0

    def refresh(T_, basis_):
        B = D[:, basis_]
        try:
            T_[:] = np.linalg.solve(B, D)
        except np.linalg.LinAlgError as exc:
            raise LPNumericalError("basis matrix became singular") from exc

    tol = 1e-9
    if n_art:
        cost1 = np.zeros(N)
        cost1[art_mask] = 1.0
        status = _bland_loop(T, basis, cost1, allowed, tol, PIVOT_TOL,
                             max_iter, refresh)
        if status != "optimal":
            raise LPNumericalError("phase-1 subproblem unbounded")
        phase1_obj = float(cost1[basis] @ T[:, -1])
        if phase1_obj > DEFAULT_TOL * (1.0 + float(np.abs(b).max(initial=0.0))):
            return LPSolution("infeasible", None, None, None, None, None)
        # drive leftover artificials out of the basis (degenerate pivots)
        dead_rows = []
        for i in range(rows):
            if not art_mask[basis[i]]:
                continue
            cands = np.flatnonzero(~art_mask & (np.abs(T[i, :N]) > PIVOT_TOL))
            if cands.size:
                _pivot(T, basis, i, int(cands[0]))
            else:
                dead_rows.append(i)  # dependent row, implied by the others
        if dead_rows:
            keep = np.setdiff1d(np.arange(T.shape[0]), dead_rows)
            T = T[keep]
            basis = basis[keep]

    cost2 = np.zeros(N)
    cost2[:n] = folded.c
    cost2[n:2 * n] = -folded.c
    status = _bland_loop(T, basis, cost2, allowed, tol, PIVOT_TOL,
                         max_iter, refresh)
    if status == "unbounded":
        return LPSolution("unbounded", None, None, None, None, None)

    values = np.zeros(N)
    values[basis] = T[:, -1]
    z = values[:n] - values[n:2 * n]

    # duals from final reduced costs: y_r = -red[unit column of row r] / sign
    red = cost2 - cost2[basis] @ T[:, :N]
    red[basis] = 0.0
    y = np.zeros(rows)
    for r in range(rows):
        if r in art_col_of_row:
            sign = 1.0 if b[r] >= 0.0 else -1.0
            y[r] = -red[art_col_of_row[r]] / sign
        else:
            y[r] = -red[2 * n + r]
    lam = -y[:q]
    mu = -y[q:]
    objective = float(folded.c @ z) + folded.c0
    return LPSolution("optimal", z, lam, mu, objective,
                      tuple(int(v) for v in sorted(basis)))


def _reference_cases():
    """The LPs and parameter vectors the engine is held to its reference on:
    random box LPs, every node of some searches, pinned assignments and
    hand-made infeasible, one-sided, unbounded and dependent-row LPs."""
    from mesval.batteries import random_milp
    from mesval.bnb import branch_and_bound, subproblem_for_trail

    rng = np.random.default_rng(RNG_SEED + 40)
    cases = []
    for trial in range(30):                       # random box LPs
        n = int(rng.integers(1, 6))
        prog, M0 = random_box_lp(rng, n, int(rng.integers(0, 5)),
                                 int(rng.integers(0, min(3, n + 1))),
                                 int(rng.integers(0, 3)))
        cases.append((to_standard_form(prog), M0))
    for trial in range(8):                        # every node of a search
        problem, M0 = random_milp(rng, max_binaries=5)
        log = []
        branch_and_bound(problem, M0, node_log=log)
        cases += [(subproblem_for_trail(problem, rec.trail), M0)
                  for rec in log]
        z = rng.integers(0, 2, size=len(problem.integer_vars))
        lb, ub = problem.lp.lb.copy(), problem.lp.ub.copy()
        lb[list(problem.integer_vars)] = ub[list(problem.integer_vars)] = z
        cases.append((replace(problem.lp, lb=lb, ub=ub), M0))  # pinned
    cases += [
        (simple_lp([((1.0,), ">=", 1.0), ((1.0,), "<=", 0.0)], (1.0,)),
         np.zeros(0)),                                         # infeasible
        (simple_lp([((1.0, -1.0), "==", 2.0)], (1.0, 1.0),   # one-sided
                   bounds=[(0.0, 3.0), (0.0, None)]), np.zeros(0)),
        (simple_lp([((1.0,), ">=", 0.0)], (-1.0,)), np.zeros(0)),  # unbounded
        (simple_lp([((1.0, 1.0), "==", 2.0), ((2.0, 2.0), "==", 4.0),
                    ((1.0, -1.0), "==", 0.0)], (1.0, -1.0)),
         np.zeros(0)),                                         # dependent
        (simple_lp([((1.0, 1.0), "==", 2.0), ((-1.0, -1.0), "==", -2.0),
                    ((1.0, 0.0), "<=", 1.5)], (-1.0, 0.0),
                   bounds=[(0.0, None), (0.0, None)]), np.zeros(0)),
    ]
    return cases


def test_bland_engine_matches_its_reference_bitwise():
    statuses = set()
    for lp, M in _reference_cases():
        got = solve_lp(lp, M, engine="bland")
        _assert_same_solution(got, _solve_bland(lp, M))
        statuses.add(got.status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def _tiny_pivot_lp(dependent):
    # min -x s.t. 1e-11 x <= 1, y == 1 (x free): the only entering column
    # has a positive entry below the pivot tolerance, so the engine
    # rebuilds its tableau from the basis once before it reports unbounded
    prog = LinearProgram()
    prog.add_var("x", cost=-1.0)
    prog.add_var("y")
    prog.add_constraint({"x": 1e-11}, "<=", 1.0)
    prog.add_constraint({"y": 1.0}, "==", 1.0)
    if dependent:
        prog.add_constraint({"y": 2.0}, "==", 2.0)
    return to_standard_form(prog)


def test_tiny_pivot_refresh_after_a_dependent_row_is_dropped():
    # the dependent row 2y == 2 is dropped after phase 1; the rebuild must
    # drop it too, or it solves a non-square basis matrix
    plain = solve_lp(_tiny_pivot_lp(False), np.zeros(0))
    dependent = solve_lp(_tiny_pivot_lp(True), np.zeros(0))
    assert plain.status == dependent.status == "unbounded"
    with pytest.raises(LPNumericalError, match="singular"):
        _solve_bland(_tiny_pivot_lp(True), np.zeros(0))


def _parametric(rows, cost, n_params, bounds=None):
    """An LP of ``rows`` = [(coeffs, sense, rhs, params)] over free (or
    ``bounds``-bounded) variables x0, x1, ... and parameters m0, m1, ..."""
    prog = LinearProgram()
    for k in range(n_params):
        prog.add_param(f"m{k}")
    for j, c in enumerate(cost):
        lo, hi = bounds[j] if bounds else (None, None)
        prog.add_var(f"x{j}", lb=lo, ub=hi, cost=c)
    for coeffs, sense, rhs, params in rows:
        prog.add_constraint({f"x{j}": a for j, a in enumerate(coeffs)},
                            sense, rhs,
                            params={f"m{k}": a for k, a in params.items()})
    return to_standard_form(prog)


def _spread(M, rng, count=6):
    """``M`` and ``count - 1`` draws around it at growing scales, so that
    the right-hand sides the parameters reach change sign between items."""
    return np.array([M] + [M + s * rng.standard_normal(M.size)
                           for s in np.geomspace(0.3, 30.0, count - 1)])


def _sign_patterns(lp, Ms):
    f = lp.fold_bounds()
    return {(np.concatenate([f.b_f(M), f.b_h(M)]) < 0.0).tobytes()
            for M in Ms}


def _assert_batch_matches(lp, Ms, reference):
    got = solve_bland_batch(lp, Ms)
    assert len(got) == len(Ms)
    outcomes = []
    for M, sol in zip(Ms, got):
        try:
            want = reference(lp, M)
        except LPNumericalError as exc:
            assert isinstance(sol, LPNumericalError)
            assert str(sol) == str(exc)
            outcomes.append("error")
            continue
        _assert_same_solution(sol, want)
        outcomes.append(sol.status)
    return outcomes


def test_bland_batch_matches_the_reference_bitwise():
    # each reference case as one batch of several parameter vectors, so a
    # call spans several tableau layouts and runs the lockstep loop
    rng = np.random.default_rng(RNG_SEED + 41)
    statuses, spanned = set(), 0
    for lp, M in _reference_cases():
        Ms = _spread(M, rng)
        statuses.update(_assert_batch_matches(lp, Ms, _solve_bland))
        spanned += len(_sign_patterns(lp, Ms)) > 1
    assert statuses == {"optimal", "infeasible", "unbounded"}
    assert spanned >= 20

    # rare branches among ordinary items of the same call: dependent rows
    # dropped after phase 1 (x0 + x1 == 2 + m0 twice over when m1 == 2 m0,
    # infeasible otherwise), in several sign patterns
    dependent = _parametric(
        [((1.0, 1.0), "==", 2.0, {0: 1.0}), ((2.0, 2.0), "==", 4.0, {1: 1.0}),
         ((1.0, -1.0), "==", 0.0, {2: 1.0}), ((1.0, 0.0), "<=", 3.0, {2: 1.0})],
        (1.0, -1.0), 3)
    Ms = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 0.5], [0.0, 1.0, 0.0],
                   [-3.0, -6.0, 0.2], [-3.0, -6.0, -9.0], [0.5, 1.0, -1.0],
                   [2.0, 3.0, 0.0]])
    outcomes = _assert_batch_matches(dependent, Ms, _solve_bland)
    assert outcomes.count("optimal") >= 3 and "infeasible" in outcomes
    assert len(_sign_patterns(dependent, Ms)) >= 3

    # items that meet tiny pivots in a lockstep batch: unbounded after the
    # rebuild where 1e-11 x0 <= 1 + m0 has b >= 0, infeasible within
    # tolerance where it has b < 0 (an LP's recession cone does not move
    # with b, so no item of it is optimal)
    tiny = _parametric([((1e-11, 0.0), "<=", 1.0, {0: 1.0}),
                        ((0.0, 1.0), "==", 1.0, {1: 1.0})], (-1.0, 0.0), 2)
    Ms = np.array([[0.0, 0.0], [0.5, -2.0], [-3.0, 0.0], [0.0, 3.0],
                   [2.0, -3.0], [-5.0, 1.0]])
    outcomes = _assert_batch_matches(tiny, Ms, _solve_bland)
    assert outcomes == ["unbounded", "unbounded", "infeasible", "unbounded",
                        "unbounded", "infeasible"]
    # here the items reach the tiny column after different numbers of
    # pivots, so some leave the stack while the others pivot on
    Ms = np.array([[3.6, 0.2], [0.8, 2.9], [1.6, 0.6], [1.0, 1.7]])
    assert _assert_batch_matches(_staggered_tiny_lp(), Ms, _solve_bland) == [
        "unbounded"] * 4

    # the tiny-pivot refresh after a dropped dependent row, which the
    # reference cannot rebuild: each item equals its batch-of-one solve
    tiny_dead = _parametric([((1e-11, 0.0), "<=", 1.0, {0: 1.0}),
                             ((0.0, 1.0), "==", 1.0, {1: 1.0}),
                             ((0.0, 2.0), "==", 2.0, {2: 1.0})],
                            (-1.0, 0.0), 3)
    Ms = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 1.0], [0.0, 0.0, 1.0],
                   [2.0, -3.0, -6.0]])
    outcomes = _assert_batch_matches(tiny_dead, Ms, solve_lp)
    assert outcomes == ["unbounded", "unbounded", "infeasible", "unbounded"]
    with pytest.raises(LPNumericalError, match="singular"):
        _solve_bland(tiny_dead, Ms[0])


def _staggered_tiny_lp():
    # the items of a batch reach the tiny entering column (x2) after
    # different numbers of pivots, and then leave the lockstep
    return _parametric([((-0.6, -1.4, 0.0), "<=", 0.3, {0: 1.0}),
                        ((1.0, -2.2, 0.0), "<=", 0.3, {1: 1.0}),
                        ((-2.1, 0.2, 0.0), "<=", 0.5, {0: 1.0}),
                        ((0.0, 0.0, 1e-11), "<=", 1.0, {})],
                       (-2.1, 0.1, -1.0), 2,
                       [(-2.0, 2.0), (-2.0, 2.0), (None, None)])


def test_tiny_pivot_item_keeps_its_iteration_limit(monkeypatch):
    # an item that leaves the lockstep at its tiny column after j pivots
    # finishes on the 2-D loop within the limit it had left, so at every
    # limit it stops, or not, where its batch-of-one solve does
    from mesval import lp as lp_module
    lp = _staggered_tiny_lp()
    Ms = np.array([[3.6, 0.2], [0.8, 2.9], [1.6, 0.6], [1.0, 1.7]])
    assert len(_sign_patterns(lp, Ms)) == 1     # one stack of four
    seen = set()
    for limit in range(1, 9):
        monkeypatch.setattr(lp_module, "MAX_ITER", limit)
        got = solve_bland_batch(lp, Ms)
        for k, sol in enumerate(got):
            alone = solve_bland_batch(lp, Ms[k:k + 1])[0]
            if isinstance(alone, LPNumericalError):
                assert isinstance(sol, LPNumericalError), (limit, k)
                assert str(sol) == str(alone)
                seen.add("limit")
            else:
                _assert_same_solution(sol, alone)
                seen.add(sol.status)
    assert seen == {"limit", "unbounded"}


def _phase1_breakdown_lp():
    # twelve rows -9e-11 x <= m: at m >= 0 the slacks are a feasible basis
    # and x = 0 is optimal; at m < 0 phase 1 prices x below -1e-9 while no
    # entry of its column clears the pivot tolerance, so the engine stops
    return _parametric([((-9e-11,), "<=", 0.0, {0: 1.0})] * 12, (0.0,), 1)


def test_stored_numerical_error_is_raised_by_solve_lp():
    lp = _phase1_breakdown_lp()
    got = solve_bland_batch(lp, np.array([[1.0], [-1.0], [0.0], [-2.0]]))
    assert [type(s).__name__ for s in got] == [
        "LPSolution", "LPNumericalError", "LPSolution", "LPNumericalError"]
    assert got[0].status == got[2].status == "optimal"
    assert "phase-1" in str(got[1])
    with pytest.raises(LPNumericalError, match="phase-1"):
        solve_lp(lp, np.array([-1.0]))
    with pytest.raises(LPNumericalError, match="phase-1"):
        _solve_bland(lp, np.array([-1.0]))


def test_bland_batch_rejects_a_misshapen_parameter_block():
    lp = _phase1_breakdown_lp()
    assert solve_bland_batch(lp, np.zeros((0, 1))) == []
    for Ms in (np.zeros(1), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="Ms has shape"):
            solve_bland_batch(lp, Ms)
    with pytest.raises(ValueError, match="M has shape"):
        solve_lp(lp, np.zeros((1, 1)))


# ---------------------------------------------------------------------------
# 3. HiGHS engine adapter
# ---------------------------------------------------------------------------

def test_highs_engine_agrees_with_bland():
    rng = np.random.default_rng(RNG_SEED + 3)
    for trial in range(25):
        n = int(rng.integers(2, 5))
        prog, M0 = random_box_lp(rng, n, int(rng.integers(1, 5)),
                                 int(rng.integers(0, 2)), 2)
        lp = to_standard_form(prog)
        a = solve_lp(lp, M0, engine="bland")
        b = solve_lp(lp, M0, engine="highs")
        assert a.status == b.status == "optimal"
        assert abs(a.objective - b.objective) < 1e-8 * (1 + abs(a.objective))
        assert check_kkt(lp, M0, b).ok, f"trial {trial}"


def test_engines_agree_on_folded_and_unfolded_forms():
    # a folded form has no bounds left, so its duals are its own rows
    rng = np.random.default_rng(RNG_SEED + 4)
    for trial in range(10):
        prog, M0 = random_box_lp(rng, 3, 3, 1, 2)
        lp = to_standard_form(prog)
        sols = [solve_lp(form, M0, engine=engine)
                for form in (lp, lp.fold_bounds())
                for engine in ("bland", "highs")]
        ref = sols[0]
        assert all(s.status == "optimal" for s in sols), f"trial {trial}"
        for s in sols[1:]:
            assert abs(s.objective - ref.objective) < \
                1e-8 * (1 + abs(ref.objective))
            assert s.ineq_duals.shape == ref.ineq_duals.shape
            assert s.eq_duals.shape == ref.eq_duals.shape


def test_sparse_constraint_matrices_solve_like_dense():
    rng = np.random.default_rng(RNG_SEED + 5)
    prog, M0 = random_box_lp(rng, 4, 3, 1, 2)
    lp = to_standard_form(prog)
    sp = replace(lp, A_f=sparse.csr_array(lp.A_f),
                 A_h=sparse.csr_array(lp.A_h))
    for engine in ("bland", "highs"):
        a = solve_lp(lp, M0, engine=engine)
        b = solve_lp(sp, M0, engine=engine)
        assert a.status == b.status == "optimal"
        assert a.objective == b.objective
        for got, want in ((b.primal, a.primal), (b.ineq_duals, a.ineq_duals),
                          (b.eq_duals, a.eq_duals)):
            np.testing.assert_array_equal(got, want)
        assert check_kkt(sp, M0, b).ok
    folded = sp.fold_bounds()
    assert isinstance(folded.A_f, np.ndarray)
    np.testing.assert_array_equal(folded.A_f, lp.fold_bounds().A_f)
    np.testing.assert_array_equal(folded.A_h, lp.A_h)


def test_highs_statuses():
    lp = simple_lp([((1.0,), ">=", 1.0), ((1.0,), "<=", 0.0)], (1.0,))
    assert solve_lp(lp, np.zeros(0), engine="highs").status == "infeasible"
    lp2 = simple_lp([((1.0,), ">=", 0.0)], (-1.0,))
    assert solve_lp(lp2, np.zeros(0), engine="highs").status == "unbounded"


def test_highs_bound_duals_cover_folded_rows():
    # active upper bound must show up as a positive dual on its folded row
    lp = simple_lp([], (-1.0,), bounds=[(0.0, 2.0)])
    sol = solve_lp(lp, np.zeros(0), engine="highs")
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.primal, [2.0], atol=1e-9)
    f = lp.fold_bounds()
    assert sol.ineq_duals.shape == (f.A_f.shape[0],)
    # rows: -x <= 0 (lb), x <= 2 (ub); only the ub row is active
    np.testing.assert_allclose(sol.ineq_duals, [0.0, 1.0], atol=1e-9)
    assert check_kkt(lp, np.zeros(0), sol).ok


# ---------------------------------------------------------------------------
# 3b. the HiGHS engine against scipy.optimize.linprog, bit for bit
# ---------------------------------------------------------------------------
#
# The engine drives scipy's private HiGHS binding with the model, options
# and post-solve check that linprog(method="highs") uses. The reference
# below is the engine written over linprog; every field of every solution
# must match it bitwise, so a scipy upgrade that changes the binding fails
# here instead of drifting silently.

def _linprog_reference(lp, M):
    from scipy.optimize import linprog

    q, m = lp.n_ineq, lp.n_eq
    res = linprog(
        lp.c,
        A_ub=lp.A_f if q else None, b_ub=lp.b_f(M) if q else None,
        A_eq=lp.A_h if m else None, b_eq=lp.b_h(M) if m else None,
        bounds=np.column_stack([lp.lb, lp.ub]), method="highs",
        options={"presolve": True, "primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10})
    if res.status in (2, 3):
        status = "infeasible" if res.status == 2 else "unbounded"
        return LPSolution(status, None, None, None, None, None)
    assert res.status == 0, res.message
    lo = np.flatnonzero(np.isfinite(lp.lb))
    hi = np.flatnonzero(np.isfinite(lp.ub))
    lam = np.zeros(q + lo.size + hi.size)
    if q:
        lam[:q] = np.maximum(-res.ineqlin.marginals, 0.0)
    lam[q:q + lo.size] = np.maximum(res.lower.marginals[lo], 0.0)
    lam[q + lo.size:] = np.maximum(-res.upper.marginals[hi], 0.0)
    mu = -res.eqlin.marginals if m else np.zeros(0)
    z = np.asarray(res.x, dtype=float)
    return LPSolution("optimal", z, lam, mu, float(res.fun) + lp.c0, None)


def _assert_matches_linprog(lp, M):
    got = solve_lp(lp, M, engine="highs")
    _assert_same_solution(got, _linprog_reference(lp, M))
    return got


def _assert_feasible(lp, M, z):
    """Bounds and rows hold at ``z`` within the post-solve tolerance."""
    assert np.all(z >= lp.lb - _FEAS_TOL) and np.all(z <= lp.ub + _FEAS_TOL)
    assert np.all(lp.A_f @ z - lp.b_f(M) <= _FEAS_TOL)
    assert np.all(np.abs(lp.A_h @ z - lp.b_h(M)) <= _FEAS_TOL)


def _box_lps(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        prog, M0 = random_box_lp(rng, n, int(rng.integers(0, 6)),
                                 int(rng.integers(0, 3)), 2)
        yield to_standard_form(prog), M0


def test_highs_matches_linprog_on_random_box_lps():
    for lp, M0 in _box_lps(RNG_SEED + 6, 40):
        sp = replace(lp, A_f=sparse.csr_array(lp.A_f),
                     A_h=sparse.csr_array(lp.A_h))
        for form in (lp, sp):
            assert _assert_matches_linprog(form, M0).status == "optimal"


def test_highs_matches_linprog_without_rows():
    lp = simple_lp([], (-1.0, 2.0, 0.5),
                   bounds=[(0.0, 2.0), (-1.0, 3.0), (-4.0, 4.0)])
    sol = _assert_matches_linprog(lp, np.zeros(0))
    np.testing.assert_array_equal(sol.primal, [2.0, -1.0, -4.0])
    assert sol.basis is None     # HiGHS solutions carry no basis


def test_highs_matches_linprog_on_fixed_columns():
    # a column pinned by lb == ub takes its reduced cost as a bound dual
    pinned_duals = 0
    for lp, M0 in _box_lps(RNG_SEED + 7, 30):
        z0 = solve_lp(lp, M0, engine="highs").primal
        lb, ub = lp.lb.copy(), lp.ub.copy()
        fix = np.arange(lp.n_vars) % 2 == 0
        lb[fix] = ub[fix] = z0[fix] + 0.01 * (lp.ub[fix] - z0[fix])
        sol = _assert_matches_linprog(replace(lp, lb=lb, ub=ub), M0)
        if sol.status != "optimal":
            continue
        rows = np.flatnonzero(fix)
        q, k = lp.n_ineq, lp.n_vars
        pinned_duals += int(np.count_nonzero(
            sol.ineq_duals[q + rows]) + np.count_nonzero(
            sol.ineq_duals[q + k + rows]))
    assert pinned_duals >= 10


def test_highs_matches_linprog_on_infeasible_and_unbounded_lps():
    lp = simple_lp([((1.0,), ">=", 1.0), ((1.0,), "<=", 0.0)], (1.0,))
    assert _assert_matches_linprog(lp, np.zeros(0)).status == "infeasible"
    lp = simple_lp([((1.0,), ">=", 0.0)], (-1.0,))
    assert _assert_matches_linprog(lp, np.zeros(0)).status == "unbounded"
    lp = simple_lp([((1.0, 1.0), "==", 3.0)], (1.0, 1.0),
                   bounds=[(0.0, 1.0), (0.0, 1.0)])
    assert _assert_matches_linprog(lp, np.zeros(0)).status == "infeasible"


def test_highs_matches_linprog_where_options_decide():
    # gaps and reduced costs near the 1e-10 tolerances, where a looser
    # tolerance, presolve off or another simplex strategy ends elsewhere
    near_infeasible = simple_lp(
        [((1.0, 1.0), ">=", 1e-8), ((1.0, -1.0), "==", 0.0)], (1.0, 1.0),
        bounds=[(0.0, 0.0), (None, None)])
    assert _assert_matches_linprog(
        near_infeasible, np.zeros(0)).status == "infeasible"
    rng = np.random.default_rng(RNG_SEED + 10)
    for _ in range(5):
        prog = LinearProgram()
        for j, cost in enumerate(rng.choice([-3e-8, -2e-8, -1e-8, 1e-9], 4)):
            prog.add_var(f"z{j}", lb=0.0, ub=1.0, cost=float(cost))
        for i in range(3):
            prog.add_constraint({f"z{j}": float(abs(rng.standard_normal()))
                                 for j in range(4)}, "<=", 1.0)
        _assert_matches_linprog(to_standard_form(prog), np.zeros(0))


def _shipped_day(hub, seed=RNG_SEED + 8):
    """A shipped hub and one day's forecasts and actual loads. On the
    showcase hub the default day's joint search runs deep."""
    from pathlib import Path

    import mesval
    from mesval.hub import load_hub_config

    cfg = load_hub_config(Path(mesval.__file__).parent / "configs" / hub)
    rng = np.random.default_rng(seed)
    fc = np.vstack([rng.uniform(1500.0, 2500.0, 24),
                    rng.uniform(800.0, 1600.0, 24),
                    rng.uniform(300.0, 900.0, 24)])
    act = np.maximum(fc + rng.normal(0.0, 0.05 * fc.mean(), fc.shape), 0.0)
    return cfg, fc, act


@pytest.mark.parametrize("hub", ["hub_experiment.yaml", "hub_showcase.yaml"])
def test_highs_matches_linprog_on_shipped_hub_stages(hub, monkeypatch):
    # every node of one day's three searches, plus a node branched by hand
    from mesval import bnb
    from mesval.dispatch import (build_day_ahead, build_intra_day,
                                 build_joint, storage_repair)

    cfg, fc, act = _shipped_day(hub)
    nodes = []

    def compared(lp, M, engine, warm=False):
        # roots are solved cold and match bitwise; later nodes re-solve
        # from the held basis and may land on another optimal vertex
        assert engine == "highs"
        nodes.append(warm)
        if not warm:
            return _assert_matches_linprog(lp, M)
        got = solve_lp(lp, M, engine="highs", warm=True)
        want = _linprog_reference(lp, M)
        assert got.status == want.status
        if got.status == "optimal":
            np.testing.assert_allclose(got.objective, want.objective,
                                       rtol=1e-9, atol=0.0)
            _assert_feasible(lp, M, got.primal)
        return got

    monkeypatch.setattr(bnb, "solve_lp", compared)

    def search(prob):
        res = bnb.branch_and_bound(prob.milp, prob.M0, engine="highs",
                                   round_repair=storage_repair(prob))
        assert res.status == "optimal"
        return res

    da = build_day_ahead(fc, cfg)
    intra = build_intra_day(da, search(da), act)
    search(intra)
    search(build_joint(fc, act, cfg))
    assert nodes.count(False) == 3     # one cold root per search
    lp = da.milp.lp
    j = da.milp.integer_vars[0]
    ub = lp.ub.copy()
    ub[j] = 0.0
    node = bnb.subproblem_for_trail(da.milp, (bnb.BranchStep(j, "floor",
                                                             0.0),))
    assert node.A_f is lp.A_f and node.A_h is lp.A_h
    np.testing.assert_array_equal(node.ub, ub)
    assert _assert_matches_linprog(node, da.M0).status == "optimal"


# ---------------------------------------------------------------------------
# 3c. warm starts
# ---------------------------------------------------------------------------
# Each constraint matrix solves on a solver of its own. A warm request
# re-solves from the basis that solver holds only when it holds the same
# model up to row and column bounds; any other request is a cold solve,
# bit for bit. At the held M (a search's nodes) only column bounds move; at
# another M (the same template on another day) the row bounds that moved
# with M move too. A search solves its root cold, so it does not depend on
# what was solved before it, unless its caller asks for a warm root.

class _SolverSpy:
    """A solver's HiGHS instance, with its model passes and bound moves
    logged to ``calls`` and, on request, its first warm run reported as
    stopped short or every basis read reported as failed."""

    def __init__(self, highs, core, calls, fail_warm=False, no_basis=False):
        self._highs, self._core = highs, core
        self.calls = calls
        self.fail_next = False
        self.fail_warm = fail_warm
        self.no_basis = no_basis

    def passModel(self, *args):
        self.calls.append("passModel")
        return self._highs.passModel(*args)

    def changeRowBounds(self, *args):
        self.calls.append("changeRowBounds")
        return self._highs.changeRowBounds(*args)

    def changeColsBounds(self, *args):
        self.calls.append("changeColsBounds")
        self.fail_next, self.fail_warm = self.fail_warm, False
        return self._highs.changeColsBounds(*args)

    def getModelStatus(self):
        if self.fail_next:
            self.fail_next = False
            return self._core.HighsModelStatus.kIterationLimit
        return self._highs.getModelStatus()

    def getBasicVariables(self):
        if self.no_basis:
            return self._core.HighsStatus.kError, np.zeros(0, np.int32)
        return self._highs.getBasicVariables()

    def __getattr__(self, name):
        return getattr(self._highs, name)


def _on_each_solver(monkeypatch, setup):
    """Run ``setup`` once on each solver the test solves on. The registry
    starts empty and is put back after the test, so every solver is made
    in the test and what it does to them stays there."""
    from mesval import lp as lp_module

    real, made = lp_module._solver_of, []

    def solver_of(lp):
        solver = real(lp)
        if not any(s is solver for s in made):
            made.append(solver)
            setup(solver)
        return solver

    monkeypatch.setattr(lp_module, "_SOLVERS", {})
    monkeypatch.setattr(lp_module, "_solver_of", solver_of)


def _spy_on_solvers(monkeypatch, **kw):
    """Spy on every solver of the test; returns the one log they share."""
    calls = []

    def spy(solver):
        solver.highs = _SolverSpy(solver.highs, solver.core, calls, **kw)

    _on_each_solver(monkeypatch, spy)
    return calls


def _floor_node(prob):
    from mesval import bnb

    j = prob.milp.integer_vars[0]
    return bnb.subproblem_for_trail(prob.milp,
                                    (bnb.BranchStep(j, "floor", 0.0),))


def test_warm_request_on_a_model_not_held_is_a_cold_solve(monkeypatch):
    from mesval.dispatch import build_day_ahead

    calls = _spy_on_solvers(monkeypatch)
    cfg, fc, _ = _shipped_day("hub_experiment.yaml")
    _, fc2, _ = _shipped_day("hub_experiment.yaml", RNG_SEED + 11)
    da, da2 = build_day_ahead(fc, cfg), build_day_ahead(fc2, cfg)
    node = _floor_node(da)
    lp = da.milp.lp
    cold = {"node": solve_lp(node, da.M0, engine="highs"),
            "node2": solve_lp(node, da2.M0, engine="highs")}
    # the same matrices held with another cost or another right-hand-side
    # array, and a copy of the matrices, whose solver holds nothing
    for held in (replace(lp, c=lp.c.copy()), replace(lp, b_f0=lp.b_f0.copy()),
                 replace(lp, B_h=lp.B_h.copy())):
        solve_lp(held, da.M0, engine="highs")
        calls.clear()
        got = solve_lp(node, da.M0, engine="highs", warm=True)
        assert calls == ["passModel"]
        _assert_same_solution(got, cold["node"])
    calls.clear()
    got = solve_lp(replace(node, A_f=node.A_f.copy()), da.M0,
                   engine="highs", warm=True)
    assert calls == ["passModel"]
    _assert_same_solution(got, cold["node"])
    # the held model up to column bounds: the bounds move, no model passes
    solve_lp(da.milp.lp, da.M0, engine="highs")
    calls.clear()
    got = solve_lp(node, da.M0, engine="highs", warm=True)
    assert calls == ["changeColsBounds"]
    assert got.status == cold["node"].status == "optimal"
    np.testing.assert_allclose(got.objective, cold["node"].objective,
                               rtol=1e-9, atol=0.0)
    # the same template at another M: the row bounds that moved move too
    solve_lp(da.milp.lp, da.M0, engine="highs")
    calls.clear()
    got = solve_lp(node, da2.M0, engine="highs", warm=True)
    assert calls == ["changeRowBounds"] * _moved_rows(
        node, da.M0, da2.M0) + ["changeColsBounds"]
    assert got.status == cold["node2"].status == "optimal"
    np.testing.assert_allclose(got.objective, cold["node2"].objective,
                               rtol=1e-9, atol=0.0)


def test_warm_run_that_stops_short_is_solved_cold(monkeypatch):
    from mesval.dispatch import build_day_ahead

    cfg, fc, _ = _shipped_day("hub_experiment.yaml")
    da = build_day_ahead(fc, cfg)
    node = _floor_node(da)
    cold = solve_lp(node, da.M0, engine="highs")
    calls = _spy_on_solvers(monkeypatch, fail_warm=True)
    solve_lp(da.milp.lp, da.M0, engine="highs")
    calls.clear()
    got = solve_lp(node, da.M0, engine="highs", warm=True)
    assert calls == ["changeColsBounds", "passModel"]
    _assert_same_solution(got, cold)


def _moved_rows(lp, M_held, M):
    """How many row bounds differ between the template at two M."""
    return int(np.count_nonzero(
        np.concatenate((lp.b_f(M), lp.b_h(M)))
        != np.concatenate((lp.b_f(M_held), lp.b_h(M_held)))))


def test_warm_root_on_the_held_template_moves_only_bounds(monkeypatch):
    from mesval.dispatch import build_joint

    calls = _spy_on_solvers(monkeypatch)
    cfg, fc, act = _shipped_day("hub_experiment.yaml")
    _, fc2, act2 = _shipped_day("hub_experiment.yaml", RNG_SEED + 11)
    day1, day2 = build_joint(fc, act, cfg), build_joint(fc2, act2, cfg)
    lp = day2.milp.lp
    assert lp is day1.milp.lp            # one template, two days
    node = _floor_node(day2)
    moved = _moved_rows(lp, day1.M0, day2.M0)
    assert moved == 144                  # the forecast and load rows
    for target in (lp, node):
        cold = solve_lp(target, day2.M0, engine="highs")
        solve_lp(lp, day1.M0, engine="highs")
        calls.clear()
        got = solve_lp(target, day2.M0, engine="highs", warm=True)
        # the moved row bounds one at a time, then the column bounds
        assert calls == ["changeRowBounds"] * moved + [
            "changeColsBounds"]
        assert got.status == cold.status == "optimal"
        np.testing.assert_allclose(got.objective, cold.objective,
                                   rtol=1e-9, atol=0.0)
        _assert_feasible(target, day2.M0, got.primal)
    # the held model is now the node at day 2: a warm root on day 1's root
    # moves the rows back and frees the branched column
    calls.clear()
    got = solve_lp(lp, day1.M0, engine="highs", warm=True)
    assert calls == ["changeRowBounds"] * moved + ["changeColsBounds"]
    want = solve_lp(lp, day1.M0, engine="highs")
    assert got.status == want.status == "optimal"
    np.testing.assert_allclose(got.objective, want.objective,
                               rtol=1e-9, atol=0.0)


def test_warm_root_on_a_model_not_held_is_a_cold_solve(monkeypatch):
    from mesval.dispatch import build_joint

    calls = _spy_on_solvers(monkeypatch)
    cfg, fc, act = _shipped_day("hub_experiment.yaml")
    _, fc2, act2 = _shipped_day("hub_experiment.yaml", RNG_SEED + 11)
    day1, day2 = build_joint(fc, act, cfg), build_joint(fc2, act2, cfg)
    lp = day2.milp.lp
    cold = solve_lp(lp, day2.M0, engine="highs")
    # the template held, then a form on its matrices with another cost or
    # another right-hand-side array solved in between
    for other in (replace(lp, c=lp.c.copy()),
                  replace(lp, b_h0=lp.b_h0.copy())):
        solve_lp(lp, day1.M0, engine="highs")
        solve_lp(other, day1.M0, engine="highs")
        calls.clear()
        got = solve_lp(lp, day2.M0, engine="highs", warm=True)
        assert calls == ["passModel"]
        _assert_same_solution(got, cold)


def test_warm_root_that_stops_short_is_solved_cold(monkeypatch):
    from mesval.dispatch import build_joint

    cfg, fc, act = _shipped_day("hub_experiment.yaml")
    _, fc2, act2 = _shipped_day("hub_experiment.yaml", RNG_SEED + 11)
    day1, day2 = build_joint(fc, act, cfg), build_joint(fc2, act2, cfg)
    lp = day2.milp.lp
    cold = solve_lp(lp, day2.M0, engine="highs")
    calls = _spy_on_solvers(monkeypatch, fail_warm=True)
    solve_lp(lp, day1.M0, engine="highs")
    calls.clear()
    got = solve_lp(lp, day2.M0, engine="highs", warm=True)
    assert calls == (["changeRowBounds"] * _moved_rows(lp, day1.M0, day2.M0)
                     + ["changeColsBounds", "passModel"])
    _assert_same_solution(got, cold)


def _deep_search(node_log=None):
    """The showcase day's joint search, which runs deep."""
    from mesval import bnb
    from mesval.dispatch import build_joint, storage_repair

    cfg, fc, act = _shipped_day("hub_showcase.yaml")
    joint = build_joint(fc, act, cfg)
    return joint, bnb.branch_and_bound(joint.milp, joint.M0, engine="highs",
                                       node_log=node_log,
                                       round_repair=storage_repair(joint))


def test_warm_search_agrees_with_cold_solves(monkeypatch):
    from mesval import bnb
    from mesval.dispatch import verify_dispatch

    calls = _spy_on_solvers(monkeypatch)
    solved = []

    def recorded(lp, M, engine, warm=False):
        sol = solve_lp(lp, M, engine=engine, warm=warm)
        solved.append((lp, M, warm, sol))
        return sol

    monkeypatch.setattr(bnb, "solve_lp", recorded)
    joint, res = _deep_search()
    # one model passed for the whole search; every later node moves bounds
    assert res.node_count == len(solved) > 10
    assert calls == (["passModel"]
                     + ["changeColsBounds"] * (len(solved) - 1))
    assert [warm for _, _, warm, _ in solved] == [False] + [True] * (
        len(solved) - 1)
    # every node, re-solved cold afterwards: same status, same objective
    for lp, M, _, sol in solved:
        ref = solve_lp(lp, M, engine="highs")
        assert ref.status == sol.status
        if sol.status == "optimal":
            np.testing.assert_allclose(sol.objective, ref.objective,
                                       rtol=1e-9, atol=0.0)
    # a search that solves every node cold reaches the same optimum
    monkeypatch.setattr(bnb, "solve_lp", lambda lp, M, engine, warm=False:
                        solve_lp(lp, M, engine=engine))
    _, cold = _deep_search()
    assert res.status == cold.status == "optimal"
    np.testing.assert_allclose(res.objective, cold.objective,
                               rtol=1e-9, atol=0.0)
    check = verify_dispatch(joint, res)
    assert check.ok, check.violations


def test_repeated_warm_search_is_bitwise_identical():
    logs = [[], []]
    _, first = _deep_search(node_log=logs[0])
    prog, M_box = random_box_lp(np.random.default_rng(RNG_SEED + 13),
                                5, 4, 1, 2)
    solve_lp(to_standard_form(prog), M_box, engine="highs")
    _, again = _deep_search(node_log=logs[1])
    assert first.node_count == again.node_count > 10
    assert first.trail == again.trail
    for name in ("status", "objective", "primal", "integer_values"):
        assert _bits(getattr(first, name)) == _bits(getattr(again, name))
    _assert_same_solution(first.relaxation, again.relaxation)
    # repr writes each float so that it reads back to the same bits
    assert repr(logs[0]) == repr(logs[1])


def test_each_constraint_matrix_solves_on_a_solver_of_its_own():
    # a template, its nodes and its days share one solver; another
    # template has its own; forms on the same A_f/A_h objects share one,
    # a copy of either matrix gets another, and an entry leaves with
    # either matrix
    import gc

    from mesval import lp as lp_module
    from mesval.dispatch import build_day_ahead, build_joint

    solver_of, solvers = lp_module._solver_of, lp_module._SOLVERS
    cfg, fc, act = _shipped_day("hub_experiment.yaml")
    _, fc2, act2 = _shipped_day("hub_experiment.yaml", RNG_SEED + 11)
    day1, day2 = build_joint(fc, act, cfg), build_joint(fc2, act2, cfg)
    da = build_day_ahead(fc, cfg)
    joint = solver_of(day1.milp.lp)
    assert solver_of(day2.milp.lp) is joint
    assert solver_of(_floor_node(day1)) is joint
    assert solver_of(da.milp.lp) is not joint
    box = to_standard_form(random_box_lp(np.random.default_rng(
        RNG_SEED + 14), 4, 3, 1, 2)[0])
    assert solver_of(replace(box, c=-box.c, b_f0=box.b_f0 + 1.0)) is \
        solver_of(box)
    for matrix in ("A_f", "A_h"):
        copy = replace(box, **{matrix: getattr(box, matrix).copy()})
        assert solver_of(copy) not in (solver_of(box), joint)
        key = (id(copy.A_f), id(copy.A_h))
        assert key in solvers
        del copy
        gc.collect()
        assert key not in solvers


def test_solves_of_other_templates_leave_the_held_model(monkeypatch):
    # the joint template's solver holds day 1 while the day-ahead
    # template and an LP on matrices of its own solve in between: day 2's
    # warm root still only moves bounds on it
    from mesval import lp as lp_module
    from mesval.dispatch import build_day_ahead, build_joint

    cfg, fc, act = _shipped_day("hub_experiment.yaml")
    _, fc2, act2 = _shipped_day("hub_experiment.yaml", RNG_SEED + 11)
    day1, day2 = build_joint(fc, act, cfg), build_joint(fc2, act2, cfg)
    da = build_day_ahead(fc, cfg)
    lp = day2.milp.lp
    solver = lp_module._solver_of(lp)
    spy = _SolverSpy(solver.highs, solver.core, [])
    monkeypatch.setattr(solver, "highs", spy)
    cold = solve_lp(lp, day2.M0, engine="highs")
    prog, M_box = random_box_lp(np.random.default_rng(RNG_SEED + 12),
                                5, 4, 1, 2)
    solve_lp(lp, day1.M0, engine="highs")
    assert solve_lp(da.milp.lp, da.M0, engine="highs").status == "optimal"
    solve_lp(to_standard_form(prog), M_box, engine="highs")
    spy.calls.clear()
    got = solve_lp(lp, day2.M0, engine="highs", warm=True)
    assert spy.calls == ["changeRowBounds"] * _moved_rows(
        lp, day1.M0, day2.M0) + ["changeColsBounds"]
    assert got.status == cold.status == "optimal"
    np.testing.assert_allclose(got.objective, cold.objective,
                               rtol=1e-9, atol=0.0)


def _enum_reader(highs, core, lp, row_hi, status):
    """The HiGHS outcome reader as it read the basis before: one
    ``HighsBasisStatus`` enum per column. The reference for the reader
    that reads the basic columns in bulk."""
    outcome = _highs_outcome(status, core)
    if outcome != "optimal":
        return LPSolution(outcome, None, None, None, None, None)

    q = lp.n_ineq
    sol = highs.getSolution()
    z = np.array(sol.col_value)
    slack = row_hi - np.array(sol.row_value)
    objective = highs.getInfo().objective_function_value
    _check_feasible(z, objective, slack[:q], slack[q:], lp.lb, lp.ub)
    row_dual = np.array(sol.row_dual)
    col_dual = np.array(sol.col_dual)
    col_status = np.array([s.value for s in highs.getBasis().col_status])

    # folded row order (see fold_bounds): declared rows, finite lower
    # bounds, finite upper bounds; a bound's dual is the column dual of a
    # column nonbasic at that bound
    lo = np.flatnonzero(np.isfinite(lp.lb))
    hi = np.flatnonzero(np.isfinite(lp.ub))
    at_lo = col_status[lo] == core.HighsBasisStatus.kLower.value
    at_hi = col_status[hi] == core.HighsBasisStatus.kUpper.value
    lam = np.zeros(q + lo.size + hi.size)
    lam[:q] = np.maximum(-row_dual[:q], 0.0)
    lam[q:q + lo.size] = np.maximum(np.where(at_lo, col_dual[lo], 0.0), 0.0)
    lam[q + lo.size:] = np.maximum(-np.where(at_hi, col_dual[hi], 0.0), 0.0)
    mu = -row_dual[q:]
    return LPSolution("optimal", z, lam, mu, float(objective) + lp.c0, None)


def _read_both_ways(monkeypatch):
    """Make every HiGHS outcome read by both readers after the same run and
    assert they agree bit for bit, signs of zero duals included. Returns
    the statuses read and, for each nonbasic fixed column of an optimal
    run, the status HiGHS gave it with its column dual."""
    from mesval import lp as lp_module

    bulk = lp_module._highs_solution
    read, fixed = [], []

    def both(highs, core, lp, row_hi, status):
        want = _enum_reader(highs, core, lp, row_hi, status)
        got = bulk(highs, core, lp, row_hi, status)
        _assert_same_solution(got, want)
        if got.status == "optimal":
            for name in ("ineq_duals", "eq_duals"):
                np.testing.assert_array_equal(
                    np.signbit(getattr(got, name)),
                    np.signbit(getattr(want, name)))
            col_status = highs.getBasis().col_status
            col_dual = highs.getSolution().col_dual
            fixed.extend((col_status[j], col_dual[j])
                         for j in np.flatnonzero(lp.lb == lp.ub)
                         if col_status[j] != core.HighsBasisStatus.kBasic)
        read.append(got.status)
        return got

    monkeypatch.setattr(lp_module, "_highs_solution", both)
    return read, fixed


def test_bulk_basis_reader_matches_the_enum_reader(monkeypatch):
    # every node of the deep search, cold root and warm children, and of
    # both shipped hubs' three stages, read both ways after the same run
    from mesval import bnb
    from mesval.dispatch import (build_day_ahead, build_intra_day,
                                 build_joint, storage_repair)

    read, fixed = _read_both_ways(monkeypatch)
    _, res = _deep_search()
    assert len(read) == res.node_count > 10
    searched = res.node_count
    for hub in ("hub_experiment.yaml", "hub_showcase.yaml"):
        cfg, fc, act = _shipped_day(hub)

        def search(prob):
            nonlocal searched
            out = bnb.branch_and_bound(prob.milp, prob.M0, engine="highs",
                                       round_repair=storage_repair(prob))
            assert out.status == "optimal"
            searched += out.node_count
            return out

        da = build_day_ahead(fc, cfg)
        search(build_intra_day(da, search(da), act))
        search(build_joint(fc, act, cfg))
    assert len(read) == searched
    S = _highs_core().HighsBasisStatus
    assert {S.kLower, S.kUpper} <= {status for status, _ in fixed}


def test_bulk_reader_puts_a_fixed_column_dual_on_the_reported_side(
        monkeypatch):
    # x is fixed at 1 with a cost that is its dual: zero of either sign,
    # just off zero on either side, and well off it. Solved cold, where
    # presolve removes x, and warm from a basis where x was free to move:
    # a form from to_standard_form, with no template, warms by moving
    # column bounds alone
    read, fixed = _read_both_ways(monkeypatch)
    calls = _spy_on_solvers(monkeypatch)
    costs = (0.0, -0.0, 1e-14, -1e-14, 1.0, -1.0)
    for cost in costs:
        lp = simple_lp([((0.0, 1.0), ">=", 1.0)], (cost, 1.0),
                       bounds=[(0.0, 2.0), (0.0, 2.0)])
        node = replace(lp, lb=np.array([1.0, 0.0]),
                       ub=np.array([1.0, 2.0]))
        assert solve_lp(node, np.zeros(0), engine="highs").status == \
            "optimal"
        solve_lp(lp, np.zeros(0), engine="highs")
        calls.clear()
        assert solve_lp(node, np.zeros(0), engine="highs",
                        warm=True).status == "optimal"
        assert calls == ["changeColsBounds"]
    assert read == ["optimal"] * 3 * len(costs)
    # x is the only fixed column, nonbasic at each node: kLower exactly
    # where its dual is >= 0, and the readers above agreed on every dual
    S = _highs_core().HighsBasisStatus
    assert [dual for _, dual in fixed] == [c for c in costs for _ in "cw"]
    assert [status for status, _ in fixed] == [
        S.kLower if c >= 0 else S.kUpper for c in costs for _ in "cw"]


# ---------------------------------------------------------------------------
# 3d. HiGHS failure paths
# ---------------------------------------------------------------------------

def test_optimal_point_outside_a_bound_is_rejected():
    tol = 10 * np.sqrt(1e-9)
    lb, ub = np.zeros(2), np.ones(2)
    ok = dict(objective=0.0, ineq_slack=np.zeros(1), eq_residual=np.zeros(1),
              lb=lb, ub=ub)
    _check_feasible(np.array([-0.9 * tol, 1.0 + 0.9 * tol]), **ok)
    for z in ([-1.1 * tol, 0.5], [0.5, 1.0 + 1.1 * tol]):
        with pytest.raises(LPNumericalError, match="HiGHS"):
            _check_feasible(np.array(z), **ok)
    bad_rows = [dict(ineq_slack=np.array([-1.1 * tol])),
                dict(eq_residual=np.array([1.1 * tol])),
                dict(eq_residual=np.array([np.nan])),
                dict(objective=np.nan)]
    for bad in bad_rows:
        with pytest.raises(LPNumericalError, match="HiGHS"):
            _check_feasible(np.array([0.5, 0.5]), **{**ok, **bad})


def test_optimal_point_without_a_basis_is_rejected(monkeypatch):
    _spy_on_solvers(monkeypatch, no_basis=True)
    lp = simple_lp([((1.0,), ">=", 1.0)], (1.0,))
    with pytest.raises(LPNumericalError, match="no basis"):
        solve_lp(lp, np.zeros(0), engine="highs")


def _highs_core():
    from scipy.optimize._highspy import _core
    return _core


def test_highs_status_map():
    core = _highs_core()
    S = core.HighsModelStatus
    kept = {S.kOptimal: "optimal", S.kInfeasible: "infeasible",
            S.kModelError: "infeasible", S.kUnbounded: "unbounded"}
    others = [s for s in S.__members__.values() if s not in kept]
    assert S.kUnboundedOrInfeasible in others and S.kIterationLimit in others
    for status, outcome in kept.items():
        assert _highs_outcome(status, core) == outcome
    for status in others:
        with pytest.raises(LPNumericalError,
                           match=f"HiGHS .*model status {status.name}"):
            _highs_outcome(status, core)


def test_missing_binding_names_the_requirement(monkeypatch):
    import sys

    from mesval import lp as lp_module

    monkeypatch.setattr(lp_module, "_SOLVERS", {})
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    lp = simple_lp([((1.0,), ">=", 1.0)], (1.0,))
    with pytest.raises(ImportError, match=r"scipy>=1\.17"):
        solve_lp(lp, np.zeros(0), engine="highs")


def test_highs_iteration_limit_raises(monkeypatch):
    def limit(solver):
        solver.highs.setOptionValue("presolve", "off")
        solver.highs.setOptionValue("simplex_iteration_limit", 0)

    _on_each_solver(monkeypatch, limit)
    prog, M0 = random_box_lp(np.random.default_rng(RNG_SEED + 9), 6, 5, 1, 2)
    with pytest.raises(LPNumericalError, match="kIterationLimit"):
        solve_lp(to_standard_form(prog), M0, engine="highs")


# ---------------------------------------------------------------------------
# 4. check_kkt flags constructed violations
# ---------------------------------------------------------------------------

def _clean_solution():
    lp = simple_lp([((1.0,), ">=", 3.0)], (1.0,))
    sol = solve_lp(lp, np.zeros(0))
    return lp, sol


def test_check_kkt_flags_primal_violation():
    lp, sol = _clean_solution()
    bad = LPSolution(status="optimal", primal=np.array([2.0]),
                     ineq_duals=sol.ineq_duals, eq_duals=sol.eq_duals,
                     objective=2.0, basis=sol.basis)
    rep = check_kkt(lp, np.zeros(0), bad)
    assert not rep.ok and rep.primal_ineq > 1e-6


def test_check_kkt_flags_negative_dual():
    lp, sol = _clean_solution()
    bad = LPSolution(status="optimal", primal=sol.primal,
                     ineq_duals=np.array([-1.0]), eq_duals=sol.eq_duals,
                     objective=sol.objective, basis=sol.basis)
    rep = check_kkt(lp, np.zeros(0), bad)
    assert not rep.ok and rep.dual_nonneg > 1e-6


def test_check_kkt_flags_complementarity_violation():
    lp = simple_lp([((1.0,), ">=", 3.0), ((1.0,), "<=", 10.0)], (1.0,))
    sol = solve_lp(lp, np.zeros(0))
    lam = sol.ineq_duals.copy()
    lam[1] += 0.5  # inactive row given weight
    bad = LPSolution(status="optimal", primal=sol.primal, ineq_duals=lam,
                     eq_duals=sol.eq_duals, objective=sol.objective,
                     basis=sol.basis)
    rep = check_kkt(lp, np.zeros(0), bad)
    assert not rep.ok and rep.complementarity > 1e-6


def test_check_kkt_flags_stationarity_violation():
    lp, sol = _clean_solution()
    bad = LPSolution(status="optimal", primal=sol.primal,
                     ineq_duals=np.array([0.0]), eq_duals=sol.eq_duals,
                     objective=sol.objective, basis=sol.basis)
    rep = check_kkt(lp, np.zeros(0), bad)
    assert not rep.ok and rep.stationarity > 1e-6
