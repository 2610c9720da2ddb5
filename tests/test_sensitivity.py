"""Tests for the optimality-system differentiation layer.

Groups:
  1. Jacobian assembly: frozen scalar blocks, shapes, and a finite-difference
     cross-check of the parameter jacobian against the raw residual map.
  2. solution_sensitivity: pinned analytic cases, randomized battery against
     re-solve finite differences, degeneracy handling.
  3. cost_gradient: analytic slopes, agreement with the finite-difference
     oracle away from kinks, envelope (dual) equality on nondegenerate
     instances, fallback behavior on a constructed degenerate instance.
  4. finite_difference_gradient: exact slopes on affine pieces, kink
     detection at a basis change, infeasible-perturbation error.
"""

import numpy as np
import pytest

from _util import random_box_lp
from mesval.lp import LinearProgram, solve_lp, to_standard_form
from mesval.sensitivity import (
    FDOracleError,
    assemble_kkt_jacobians,
    cost_gradient,
    dual_gradient_result,
    envelope_gradient,
    finite_difference_gradient,
    solution_sensitivity,
    vertex_degeneracy,
)

RNG_SEED = 77113355


def scalar_ge_lp(cost=1.0):
    # min cost*x subject to x >= M
    prog = LinearProgram()
    prog.add_param("M")
    prog.add_var("x", cost=cost)
    prog.add_constraint({"x": 1.0}, ">=", 0.0, params={"M": 1.0})
    return to_standard_form(prog)


def scalar_eq_lp(cost=2.0):
    # min cost*x subject to x = M
    prog = LinearProgram()
    prog.add_param("M")
    prog.add_var("x", cost=cost)
    prog.add_constraint({"x": 1.0}, "==", 0.0, params={"M": 1.0})
    return to_standard_form(prog)


# ---------------------------------------------------------------------------
# 1. jacobian assembly
# ---------------------------------------------------------------------------

def test_scalar_blocks_frozen():
    lp = scalar_ge_lp()
    M = np.array([3.0])
    sol = solve_lp(lp, M)
    jac = assemble_kkt_jacobians(lp, M, sol)
    # primal-dual vector is (x, lam); LP has no curvature, the binding row
    # contributes -1 entries, and the complementarity row is scaled by lam=1.
    np.testing.assert_allclose(jac.G_z, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(jac.G_M, [[0.0], [1.0]], atol=1e-12)


def test_jacobian_shapes_cover_folded_rows():
    rng = np.random.default_rng(RNG_SEED)
    prog, M0 = random_box_lp(rng, 3, 4, 1, 2)
    lp = to_standard_form(prog)
    sol = solve_lp(lp, M0)
    jac = assemble_kkt_jacobians(lp, M0, sol)
    folded = lp.fold_bounds()
    dim = folded.n_vars + folded.n_ineq + folded.n_eq
    assert jac.G_z.shape == (dim, dim)
    assert jac.G_M.shape == (dim, 2)
    assert (jac.n, jac.q, jac.m) == (folded.n_vars, folded.n_ineq, folded.n_eq)


def test_parameter_jacobian_matches_residual_map_fd():
    # independently re-derive G_M: difference the stacked residual map over M
    # with the primal-dual point frozen.
    rng = np.random.default_rng(RNG_SEED + 1)
    prog, M0 = random_box_lp(rng, 3, 3, 1, 2)
    lp = to_standard_form(prog)
    sol = solve_lp(lp, M0)
    jac = assemble_kkt_jacobians(lp, M0, sol)
    folded = lp.fold_bounds()
    z, lam, mu = sol.primal, sol.ineq_duals, sol.eq_duals

    def residual(M):
        stat = folded.c + folded.A_f.T @ lam + folded.A_h.T @ mu
        f = folded.A_f @ z - folded.b_f(M)
        h = folded.A_h @ z - folded.b_h(M)
        return np.concatenate([stat, lam * f, h])

    h = 1e-6
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        col = (residual(M0 + e) - residual(M0 - e)) / (2 * h)
        np.testing.assert_allclose(jac.G_M[:, k], col, atol=1e-6)


# ---------------------------------------------------------------------------
# 2. solution sensitivity
# ---------------------------------------------------------------------------

def test_equality_pinned_variable_tracks_parameter():
    lp = scalar_eq_lp()
    M = np.array([1.5])
    sol = solve_lp(lp, M)
    jac = assemble_kkt_jacobians(lp, M, sol)
    S, cond = solution_sensitivity(jac)
    np.testing.assert_allclose(S[0], [1.0], atol=1e-10)   # dz/dM
    np.testing.assert_allclose(S[1], [0.0], atol=1e-10)   # dmu/dM
    assert not cond.degenerate


def test_binding_inequality_tracks_parameter():
    lp = scalar_ge_lp()
    M = np.array([3.0])
    sol = solve_lp(lp, M)
    jac = assemble_kkt_jacobians(lp, M, sol)
    S, _ = solution_sensitivity(jac)
    np.testing.assert_allclose(S[0], [1.0], atol=1e-10)   # dz/dM
    np.testing.assert_allclose(S[1], [0.0], atol=1e-10)   # dlam/dM


def test_battery_primal_sensitivity_matches_resolve_fd():
    rng = np.random.default_rng(RNG_SEED + 2)
    checked = 0
    for trial in range(60):
        prog, M0 = random_box_lp(rng, int(rng.integers(2, 5)),
                                 int(rng.integers(1, 5)), 0, 2)
        lp = to_standard_form(prog)
        sol = solve_lp(lp, M0)
        if sol.status != "optimal":
            continue
        if not vertex_degeneracy(lp, M0, sol).nondegenerate:
            continue
        h = 1e-5
        fd = np.zeros((lp.n_vars, 2))
        stable = True
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            up = solve_lp(lp, M0 + e)
            dn = solve_lp(lp, M0 - e)
            if (up.status != "optimal" or dn.status != "optimal"
                    or up.basis != sol.basis or dn.basis != sol.basis):
                stable = False
                break
            fd[:, k] = (up.primal - dn.primal) / (2 * h)
        if not stable:
            continue
        jac = assemble_kkt_jacobians(lp, M0, sol)
        S, cond = solution_sensitivity(jac)
        assert not cond.degenerate
        np.testing.assert_allclose(S[:lp.n_vars], fd, atol=1e-4, rtol=1e-4)
        checked += 1
    assert checked >= 20


# ---------------------------------------------------------------------------
# 3. cost gradient
# ---------------------------------------------------------------------------

def test_scalar_cost_slopes():
    lp = scalar_ge_lp(cost=1.0)
    M = np.array([3.0])
    sol = solve_lp(lp, M)
    g = cost_gradient(lp, M, sol)
    np.testing.assert_allclose(g.dcost_dM, [1.0], atol=1e-10)
    lp2 = scalar_eq_lp(cost=2.0)
    sol2 = solve_lp(lp2, M)
    g2 = cost_gradient(lp2, M, sol2)
    np.testing.assert_allclose(g2.dcost_dM, [2.0], atol=1e-10)


def test_battery_cost_gradient_matches_fd_and_envelope():
    rng = np.random.default_rng(RNG_SEED + 3)
    full_checked = envelope_checked = 0
    for trial in range(60):
        prog, M0 = random_box_lp(rng, int(rng.integers(2, 5)),
                                 int(rng.integers(1, 5)),
                                 int(rng.integers(0, 2)), 2)
        lp = to_standard_form(prog)
        sol = solve_lp(lp, M0)
        if sol.status != "optimal":
            continue
        if not vertex_degeneracy(lp, M0, sol).nondegenerate:
            continue
        g = cost_gradient(lp, M0, sol)
        assert not g.conditioning.degenerate
        fd = finite_difference_gradient(lp, M0)
        smooth = ~fd.kink
        if smooth.any():
            np.testing.assert_allclose(
                g.dcost_dM[smooth], fd.value[smooth],
                atol=1e-6, rtol=1e-4)
            full_checked += 1
        env = envelope_gradient(lp, sol)
        np.testing.assert_allclose(g.dcost_dM, env,
                                   atol=1e-10 * (1 + abs(sol.objective)))
        envelope_checked += 1
    assert full_checked >= 20 and envelope_checked >= 20


def test_degenerate_instance_falls_back_to_envelope():
    # duplicated binding rows make the multiplier split non-unique and the
    # stacked jacobian singular; the large row amplitude keeps the damped
    # retry above the conditioning limit, so the fallback must return the
    # (still correct) dual slope with no primal sensitivity.
    prog = LinearProgram()
    prog.add_param("M")
    prog.add_var("x", cost=1000.0)
    prog.add_constraint({"x": 1000.0}, ">=", 0.0, params={"M": 1000.0}, name="a")
    prog.add_constraint({"x": 1000.0}, ">=", 0.0, params={"M": 1000.0}, name="b")
    lp = to_standard_form(prog)
    M = np.array([2.0])
    sol = solve_lp(lp, M)
    assert sol.status == "optimal"
    g = cost_gradient(lp, M, sol)
    assert g.conditioning.degenerate
    assert g.dz_dM is None
    np.testing.assert_allclose(g.dcost_dM, [1000.0], atol=1e-6)


def test_envelope_shortcut_equals_dual_weighted_rhs_jacobians():
    lp = scalar_ge_lp()
    M = np.array([3.0])
    sol = solve_lp(lp, M)
    # by hand: -(lam' B_f + mu' B_h) with lam = [1], B_f = [[-1]]
    np.testing.assert_allclose(envelope_gradient(lp, sol), [1.0], atol=1e-12)


def test_dual_gradient_result_carries_no_primal_sensitivity():
    # the dual route solves no system: no dz/dM and no condition number
    lp = scalar_ge_lp()
    M = np.array([3.0])
    sol = solve_lp(lp, M)
    g = dual_gradient_result(lp, sol)
    assert g.dz_dM is None and g.conditioning is None
    np.testing.assert_array_equal(g.dcost_dM, envelope_gradient(lp, sol))


# ---------------------------------------------------------------------------
# 4. finite-difference oracle
# ---------------------------------------------------------------------------

def test_fd_exact_on_affine_piece():
    lp = scalar_ge_lp()
    fd = finite_difference_gradient(lp, np.array([3.0]))
    np.testing.assert_allclose(fd.value, [1.0], atol=1e-9)
    assert not fd.kink.any()


def test_fd_reports_kink_at_basis_change():
    # C*(M) = |M| from {min x : x >= M, x >= -M}: slope jumps at M = 0
    prog = LinearProgram()
    prog.add_param("M")
    prog.add_var("x", cost=1.0)
    prog.add_constraint({"x": 1.0}, ">=", 0.0, params={"M": 1.0})
    prog.add_constraint({"x": 1.0}, ">=", 0.0, params={"M": -1.0})
    lp = to_standard_form(prog)
    fd = finite_difference_gradient(lp, np.array([0.0]))
    assert fd.kink[0]
    np.testing.assert_allclose(fd.left, [-1.0], atol=1e-9)
    np.testing.assert_allclose(fd.right, [1.0], atol=1e-9)


def test_fd_raises_on_infeasible_perturbation():
    prog = LinearProgram()
    prog.add_param("M")
    prog.add_var("x", lb=-1.0, ub=0.0, cost=1.0)
    prog.add_constraint({"x": 1.0}, ">=", 0.0, params={"M": 1.0})
    lp = to_standard_form(prog)
    with pytest.raises(FDOracleError, match="0"):
        finite_difference_gradient(lp, np.array([0.0]))


def _fd_one_by_one(lp, M):
    """The oracle as it read before the batch: one Bland solve per
    problem, in the order base, then +h and -h per slot."""
    h = 1e-5
    p = M.shape[0]
    base = solve_lp(lp, M)
    out = [np.zeros(p) for _ in range(3)] + [np.zeros(p, dtype=bool)]
    value, left, right, kink = out
    for k in range(p):
        e = np.zeros(p)
        e[k] = h
        up, dn = solve_lp(lp, M + e), solve_lp(lp, M - e)
        right[k] = (up.objective - base.objective) / h
        left[k] = (base.objective - dn.objective) / h
        value[k] = (up.objective - dn.objective) / (2 * h)
        scale = 1.0 + max(abs(left[k]), abs(right[k]))
        kink[k] = abs(right[k] - left[k]) > 1e-6 * scale
    return out


def test_fd_batch_equals_one_solve_per_problem_bitwise():
    rng = np.random.default_rng(RNG_SEED + 7)
    compared = 0
    for _ in range(30):
        prog, M0 = random_box_lp(rng, int(rng.integers(2, 6)),
                                 int(rng.integers(1, 6)),
                                 int(rng.integers(0, 2)), 3)
        lp = to_standard_form(prog)
        try:
            fd = finite_difference_gradient(lp, M0)
        except FDOracleError:
            continue
        want = _fd_one_by_one(lp, M0)
        for got, ref in zip((fd.value, fd.left, fd.right, fd.kink), want):
            assert got.tobytes() == ref.tobytes()
        compared += 1
    assert compared >= 15


def test_fd_raises_what_one_by_one_solves_meet_first(monkeypatch):
    # base first, then slot by slot: a breakdown of the +h or -h solve
    # before either one's status
    from mesval import sensitivity
    from mesval.lp import LPNumericalError, LPSolution

    ok = LPSolution("optimal", np.zeros(1), None, None, 1.0, None)
    bad = LPSolution("infeasible", None, None, None, None, None)
    broken = LPNumericalError("breakdown")
    cases = [([bad, broken, ok, ok, ok], FDOracleError, "base"),
             ([broken, bad, ok, ok, ok], LPNumericalError, "breakdown"),
             ([ok, bad, broken, ok, ok], LPNumericalError, "breakdown"),
             ([ok, ok, bad, broken, ok], FDOracleError, r"-h on slot 0"),
             ([ok, ok, ok, bad, broken], LPNumericalError, "breakdown"),
             ([ok, ok, ok, bad, ok], FDOracleError, r"\+h on slot 1"),
             ([ok, ok, ok, ok, broken], LPNumericalError, "breakdown")]
    batches = []
    for results, error, match in cases:
        monkeypatch.setattr(sensitivity, "solve_bland_batch",
                            lambda lp, Ms: batches.append(Ms) or results)
        with pytest.raises(error, match=match):
            finite_difference_gradient(scalar_ge_lp(), np.array([1.0, 2.0]))
    # one batch per call: M, then M + h e_k and M - h e_k per slot
    h = 1e-5
    want = np.array([[1.0, 2.0], [1.0 + h, 2.0], [1.0 - h, 2.0],
                     [1.0, 2.0 + h], [1.0, 2.0 - h]])
    assert all(np.array_equal(Ms, want) for Ms in batches)
    assert len(batches) == len(cases)
