"""Tests for branch-and-bound over parametric LPs.

Hand-frozen fixtures (knapsack optimum, node-by-node search trace) pin the
search rules: depth-first, floor child before ceil child, strict bound prune,
lowest-index fractional branching. The randomized battery checks objectives
against exhaustive enumeration of integer assignments, and the gradient tests
require the embedded route (differentiate the relaxation solution the search
returns with its winner) to agree with the after-the-fact route (re-solve the
winning node and differentiate) to machine precision.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from _util import _assert_same_solution, random_box_lp
from mesval import bnb
from mesval.bnb import (
    ENUM_CHUNK,
    INT_TOL,
    MAX_ASSIGNMENTS,
    MILPBuildError,
    MILPProblem,
    MILPResult,
    NodeLimitError,
    backward_optimal_subproblem,
    branch_and_bound,
    embedded_gradient,
    enumerate_integer_assignments,
    subproblem_for_trail,
)
from mesval.lp import (LinearProgram, LPNumericalError, LPStandardForm,
                       solve_lp, to_standard_form)
from mesval.sensitivity import cost_gradient, envelope_gradient

RNG_SEED = 424242


def binary_program(costs, rows, names=None):
    """min costs'x over binaries subject to rows = [(coeffs, sense, rhs)]."""
    prog = LinearProgram()
    for j, c in enumerate(costs):
        prog.add_var(f"x{j}", lb=0.0, ub=1.0, cost=c)
    for i, (coeffs, sense, rhs) in enumerate(rows):
        prog.add_constraint({f"x{j}": a for j, a in coeffs.items()},
                            sense, rhs, name=None if names is None else names[i])
    lp = to_standard_form(prog)
    return MILPProblem(lp=lp, integer_vars=tuple(range(len(costs))))


def random_milp(rng, n_vars, n_ineq, n_int, param_dim=0):
    prog, M0 = random_box_lp(rng, n_vars, n_ineq, 0, param_dim)
    lp = to_standard_form(prog)
    return MILPProblem(lp=lp, integer_vars=tuple(range(n_int))), M0


# ---------------------------------------------------------------------------
# hand-frozen fixtures
# ---------------------------------------------------------------------------

def test_knapsack_hand_optimum():
    # max 5a + 4b + 3c s.t. 2a + 3b + c <= 4 over binaries; optimum picks
    # items a and c for value 8 (checked by listing all 8 assignments).
    prob = binary_program([-5.0, -4.0, -3.0],
                          [({0: 2.0, 1: 3.0, 2: 1.0}, "<=", 4.0)])
    res = branch_and_bound(prob, np.zeros(0))
    assert res.status == "optimal"
    np.testing.assert_allclose(res.objective, -8.0, atol=1e-9)
    np.testing.assert_allclose(res.integer_values, [1, 0, 1])


def test_integral_relaxation_short_circuits():
    # relaxation optimum already integral: exactly one node evaluated
    prob = binary_program([-1.0], [({0: 1.0}, "<=", 1.0)])
    res = branch_and_bound(prob, np.zeros(0))
    assert res.status == "optimal"
    assert res.node_count == 1
    np.testing.assert_allclose(res.objective, -1.0, atol=1e-12)


def test_search_trace_floor_first_and_strict_prune():
    # min -(x0 + x1) s.t. x0 + x1 <= 1.5 over binaries.
    # root:  relaxation -1.5, branch on the fractional slot
    # next:  floor child first -> integral incumbent at -1
    # then:  ceil child -> fractional -1.5, expands
    # then:  its floor child hits -1, NOT strictly below the incumbent: prune
    # last:  its ceil child is infeasible
    prob = binary_program([-1.0, -1.0], [({0: 1.0, 1: 1.0}, "<=", 1.5)])
    log = []
    res = branch_and_bound(prob, np.zeros(0), node_log=log)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.objective, -1.0, atol=1e-9)
    assert res.node_count == 5
    assert [rec.outcome for rec in log] == [
        "branch", "incumbent", "branch", "pruned_bound", "infeasible"]
    # the first child explored must be the floor side of the branched slot
    assert log[1].trail[-1].side == "floor"
    assert log[2].trail[-1].side == "ceil"


def test_child_of_a_tied_parent_is_skipped(monkeypatch):
    # min -y s.t. y <= x0 + x1, 2 x0 <= 1, x0, x1 binary, y <= 1.
    # root:  relaxation -1 at x0 = 0.5, branch on x0
    # next:  floor child reaches -1 with x1 = 1: incumbent
    # then:  the ceil child's parent bound -1 is not below -1, so its LP
    #        (infeasible: 2 x0 <= 1) is never solved, counted or logged
    prog = LinearProgram()
    prog.add_var("x0", lb=0.0, ub=1.0)
    prog.add_var("x1", lb=0.0, ub=1.0)
    prog.add_var("y", lb=0.0, ub=1.0, cost=-1.0)
    prog.add_constraint({"y": 1.0, "x0": -1.0, "x1": -1.0}, "<=", 0.0)
    prog.add_constraint({"x0": 2.0}, "<=", 1.0)
    prob = MILPProblem(lp=to_standard_form(prog), integer_vars=(0, 1))
    ref = enumerate_integer_assignments(prob, np.zeros(0))
    solved = []

    def counted(lp, M, engine, warm=False):
        solved.append(lp)
        return solve_lp(lp, M, engine=engine, warm=warm)

    monkeypatch.setattr(bnb, "solve_lp", counted)
    for engine in ("bland", "highs"):
        solved.clear()
        log = []
        res = branch_and_bound(prob, np.zeros(0), engine=engine,
                               node_log=log)
        assert res.status == ref.status == "optimal"
        np.testing.assert_allclose(res.objective, ref.objective, atol=1e-12)
        np.testing.assert_allclose(res.integer_values, ref.integer_values)
        assert [rec.outcome for rec in log] == ["branch", "incumbent"]
        assert log[0].branch_var == 0
        assert res.node_count == len(solved) == 2


def test_branches_lowest_index_fractional():
    # both slots fractional at the root; slot 0 must be branched first
    prob = binary_program([-1.0, -1.0],
                          [({0: 2.0}, "<=", 1.0), ({1: 2.0}, "<=", 1.0)])
    log = []
    res = branch_and_bound(prob, np.zeros(0), node_log=log)
    assert res.status == "optimal"
    np.testing.assert_allclose(res.objective, 0.0, atol=1e-9)
    assert log[0].branch_var == 0


def test_parity_infeasibility():
    # x0 + x1 = 1.5 has no binary solution although the relaxation is fine
    prog = LinearProgram()
    prog.add_var("x0", lb=0.0, ub=1.0, cost=1.0)
    prog.add_var("x1", lb=0.0, ub=1.0, cost=1.0)
    prog.add_constraint({"x0": 1.0, "x1": 1.0}, "==", 1.5)
    prob = MILPProblem(lp=to_standard_form(prog), integer_vars=(0, 1))
    res = branch_and_bound(prob, np.zeros(0))
    assert res.status == "infeasible"
    ref = enumerate_integer_assignments(prob, np.zeros(0))
    assert ref.status == "infeasible"


def test_infeasible_and_unbounded_status():
    prog = LinearProgram()
    prog.add_var("x", lb=0.0, ub=1.0, cost=1.0)
    prog.add_constraint({"x": 1.0}, ">=", 2.0)
    prob = MILPProblem(lp=to_standard_form(prog), integer_vars=(0,))
    res = branch_and_bound(prob, np.zeros(0))
    assert res.status == "infeasible"
    assert res.objective is None

    prog2 = LinearProgram()
    prog2.add_var("x", lb=0.0, ub=1.0, cost=0.0)
    prog2.add_var("y", cost=-1.0)     # free, drives the objective down
    prog2.add_constraint({"x": 1.0, "y": 0.0}, "<=", 1.0)
    prob2 = MILPProblem(lp=to_standard_form(prog2), integer_vars=(0,))
    res2 = branch_and_bound(prob2, np.zeros(0))
    assert res2.status == "unbounded"


def test_integer_vars_require_finite_bounds():
    prog = LinearProgram()
    prog.add_var("x", lb=0.0, cost=1.0)   # no upper bound
    prog.add_constraint({"x": 1.0}, ">=", 0.5)
    with pytest.raises(MILPBuildError):
        MILPProblem(lp=to_standard_form(prog), integer_vars=(0,))


def _three_var_lp():
    # x0, x1 boxed, x2 bounded below only
    prog = LinearProgram()
    prog.add_var("x0", lb=0.0, ub=1.0, cost=1.0)
    prog.add_var("x1", lb=0.0, ub=2.0, cost=1.0)
    prog.add_var("x2", lb=0.0, cost=1.0)
    return to_standard_form(prog)


@pytest.mark.parametrize("integer_vars, message", [
    ((0, 3), "integer variable index 3 out of range"),
    ((-1, 0), "integer variable index -1 out of range"),
    ((1, 0, 1), "integer variable index 1 repeated"),
    ((0, 2), "integer variable 2 needs finite bounds to terminate"),
    ((0, 1.0), "integer variable index 1.0 is not an integer"),
    ((True,), "integer variable index True is not an integer"),
    # the first bad index in the given order names the fault
    ((2, 0, 0, 5), "integer variable 2 needs finite bounds"),
    ((1, 1, 2, 7), "integer variable index 1 repeated"),
])
def test_integer_vars_name_the_first_bad_index(integer_vars, message):
    with pytest.raises(MILPBuildError, match=message):
        MILPProblem(lp=_three_var_lp(), integer_vars=integer_vars)


def test_valid_integer_vars_are_kept_sorted():
    lp = _three_var_lp()
    assert MILPProblem(lp=lp, integer_vars=(1, 0)).integer_vars == (0, 1)
    assert MILPProblem(lp=lp, integer_vars=()).integer_vars == ()


def test_node_limit_raises(monkeypatch):
    # the trace fixture needs 5 nodes; a budget of 1 must trip the guard,
    # which the search reads from the module when it runs
    monkeypatch.setattr(bnb, "MAX_NODES", 1)
    prob = binary_program([-1.0, -1.0], [({0: 1.0, 1: 1.0}, "<=", 1.5)])
    with pytest.raises(NodeLimitError, match="node budget 1 exhausted"):
        branch_and_bound(prob, np.zeros(0))


# ---------------------------------------------------------------------------
# enumeration oracle battery
# ---------------------------------------------------------------------------

def test_enumeration_matches_knapsack_hand():
    prob = binary_program([-5.0, -4.0, -3.0],
                          [({0: 2.0, 1: 3.0, 2: 1.0}, "<=", 4.0)])
    res = enumerate_integer_assignments(prob, np.zeros(0))
    assert res.status == "optimal"
    np.testing.assert_allclose(res.objective, -8.0, atol=1e-9)
    np.testing.assert_allclose(res.integer_values, [1, 0, 1])


def test_enumeration_tie_break_is_lexicographic():
    # two symmetric optima (1,0) and (0,1); enumeration must report (0,1)
    prob = binary_program([-1.0, -1.0], [({0: 1.0, 1: 1.0}, "<=", 1.0)])
    res = enumerate_integer_assignments(prob, np.zeros(0))
    np.testing.assert_allclose(res.integer_values, [0, 1])


def test_enumeration_guard_on_huge_grids():
    prog = LinearProgram()
    for j in range(25):
        prog.add_var(f"x{j}", lb=0.0, ub=1.0, cost=1.0)
    prog.add_constraint({"x0": 1.0}, "<=", 1.0)
    prob = MILPProblem(lp=to_standard_form(prog),
                       integer_vars=tuple(range(25)))
    with pytest.raises(ValueError):
        enumerate_integer_assignments(prob, np.zeros(0))


def test_battery_bnb_matches_enumeration():
    rng = np.random.default_rng(RNG_SEED + 1)
    solved = 0
    for trial in range(40):
        n_vars = int(rng.integers(2, 6))
        n_int = int(rng.integers(1, min(n_vars, 4) + 1))
        prob, M0 = random_milp(rng, n_vars, int(rng.integers(1, 5)), n_int,
                               param_dim=int(rng.integers(0, 3)))
        log = []
        res = branch_and_bound(prob, M0, node_log=log)
        ref = enumerate_integer_assignments(prob, M0)
        assert res.status == ref.status
        if res.status != "optimal":
            continue
        np.testing.assert_allclose(res.objective, ref.objective,
                                   atol=1e-9, rtol=1e-9)
        # the incumbent itself must satisfy integrality
        frac = np.abs(res.integer_values - np.round(res.integer_values))
        assert frac.max(initial=0.0) <= 1e-6
        # accepted incumbents strictly decrease
        incumbents = [r.objective for r in log if r.outcome == "incumbent"]
        assert all(b < a for a, b in zip(incumbents, incumbents[1:]))
        # every bound-pruned node's relaxation bound is sound
        for rec in log:
            if rec.outcome == "pruned_bound":
                assert rec.objective >= res.objective - 1e-9
        solved += 1
    assert solved >= 15


# ---------------------------------------------------------------------------
# gradients through the winning node
# ---------------------------------------------------------------------------

def test_trail_reconstruction_reproduces_incumbent():
    rng = np.random.default_rng(RNG_SEED + 2)
    reproduced = 0
    for trial in range(20):
        prob, M0 = random_milp(rng, int(rng.integers(2, 6)),
                               int(rng.integers(1, 4)),
                               int(rng.integers(1, 3)), param_dim=2)
        res = branch_and_bound(prob, M0)
        if res.status != "optimal":
            continue
        node_lp = subproblem_for_trail(prob, res.trail)
        np.testing.assert_array_equal(node_lp.lb, res.subproblem.lb)
        np.testing.assert_array_equal(node_lp.ub, res.subproblem.ub)
        sol = solve_lp(node_lp, M0)
        assert sol.status == "optimal"
        np.testing.assert_array_equal(sol.primal, res.primal)
        assert sol.objective == res.objective
        _assert_same_solution(sol, res.relaxation)
        reproduced += 1
    assert reproduced >= 10


def test_embedded_equals_two_stage_gradient():
    rng = np.random.default_rng(RNG_SEED + 3)
    compared = 0
    for trial in range(30):
        prob, M0 = random_milp(rng, int(rng.integers(2, 6)),
                               int(rng.integers(1, 4)),
                               int(rng.integers(1, 3)), param_dim=2)
        res_emb, grad_emb = embedded_gradient(prob, M0)
        if res_emb.status != "optimal":
            assert grad_emb is None
            continue
        res_two = branch_and_bound(prob, M0)
        grad_two = backward_optimal_subproblem(res_two, M0)
        np.testing.assert_allclose(grad_emb.dcost_dM, grad_two.dcost_dM,
                                   atol=1e-12, rtol=0)
        assert (grad_emb.dz_dM is None) == (grad_two.dz_dM is None)
        if grad_emb.dz_dM is not None:
            np.testing.assert_allclose(grad_emb.dz_dM, grad_two.dz_dM,
                                       atol=1e-12, rtol=0)
        compared += 1
    assert compared >= 15


def test_embedded_gradient_differentiates_the_winner_once(monkeypatch):
    # the search passes through three incumbents here; only the winner's
    # relaxation is differentiated, after the search
    calls = []

    def counted(lp, M, sol):
        calls.append(sol)
        return cost_gradient(lp, M, sol)

    monkeypatch.setattr("mesval.bnb.cost_gradient", counted)
    prob = knapsack_with_spill()
    M0 = np.array([2.6])
    log = []
    res, grad = embedded_gradient(prob, M0, node_log=log)
    assert sum(r.outcome == "incumbent" for r in log) >= 2
    assert len(calls) == 1 and calls[0] is res.relaxation
    np.testing.assert_array_equal(
        grad.dcost_dM, backward_optimal_subproblem(res, M0).dcost_dM)


def test_pure_lp_instance_reduces_to_lp_gradient():
    rng = np.random.default_rng(RNG_SEED + 4)
    prog, M0 = random_box_lp(rng, 4, 3, 1, 2)
    lp = to_standard_form(prog)
    prob = MILPProblem(lp=lp, integer_vars=())
    res = branch_and_bound(prob, M0)
    assert res.status == "optimal" and res.node_count == 1
    sol = solve_lp(lp, M0)
    assert res.objective == sol.objective
    grad = backward_optimal_subproblem(res, M0)
    ref = cost_gradient(lp, M0, sol)
    np.testing.assert_allclose(grad.dcost_dM, ref.dcost_dM, atol=1e-12)
    ref_enum = enumerate_integer_assignments(prob, M0)
    assert ref_enum.objective == sol.objective


def knapsack_with_spill():
    # capacity overflow is soft: spill costs 4/kW, expensive enough that the
    # optimal item set flips as the capacity parameter grows, making the
    # optimal cost piecewise linear with kinks at the flips
    prog = LinearProgram()
    prog.add_param("cap")
    for j, c in enumerate([-5.0, -4.0, -3.0]):
        prog.add_var(f"x{j}", lb=0.0, ub=1.0, cost=c)
    prog.add_var("spill", lb=0.0, ub=10.0, cost=4.0)
    prog.add_constraint({"x0": 2.0, "x1": 3.0, "x2": 1.0, "spill": -1.0},
                        "<=", 0.0, params={"cap": 1.0})
    return MILPProblem(lp=to_standard_form(prog), integer_vars=(0, 1, 2))


def test_gradient_matches_parameter_shift_fd():
    # away from flips of the optimal item set the dual slope matches a
    # central difference computed by re-running the full search
    prob = knapsack_with_spill()
    M0 = np.array([2.6])
    res = branch_and_bound(prob, M0)
    assert res.status == "optimal"
    grad = backward_optimal_subproblem(res, M0)
    h = 1e-5
    up = branch_and_bound(prob, M0 + h)
    dn = branch_and_bound(prob, M0 - h)
    fd = (up.objective - dn.objective) / (2 * h)
    np.testing.assert_allclose(grad.dcost_dM, [fd], atol=1e-6)


def test_gradient_sides_across_assignment_flip():
    # drive the capacity across a flip of the optimal assignment: gradients
    # from the two sides differ, and each matches its own one-sided
    # difference of the re-solved search
    prob = knapsack_with_spill()
    h = 1e-5
    lo, hi = np.array([2.5]), np.array([8.0])
    res_lo = branch_and_bound(prob, lo)
    res_hi = branch_and_bound(prob, hi)
    assert not np.array_equal(res_lo.integer_values, res_hi.integer_values)
    for M in (lo, hi):
        res = branch_and_bound(prob, M)
        grad = backward_optimal_subproblem(res, M)
        left = (res.objective - branch_and_bound(prob, M - h).objective) / h
        right = (branch_and_bound(prob, M + h).objective - res.objective) / h
        np.testing.assert_allclose(left, right, atol=1e-6)
        np.testing.assert_allclose(grad.dcost_dM, [left], atol=1e-6)
    g_lo = backward_optimal_subproblem(res_lo, lo).dcost_dM
    g_hi = backward_optimal_subproblem(res_hi, hi).dcost_dM
    assert abs(g_lo[0] - g_hi[0]) > 0.1


# ---------------------------------------------------------------------------
# repair proposals
# ---------------------------------------------------------------------------

def test_repair_proposals_are_verified_not_trusted():
    # acceptance needs direct-substitution evidence: integral, feasible for
    # the node, and no costlier than its bound. every proposal here fails
    # one of those, so the search must come out exactly as if run plain.
    prob = binary_program([-5.0, -4.0, -3.0],
                          [({0: 2.0, 1: 3.0, 2: 1.0}, "<=", 4.0)])
    plain_log = []
    plain = branch_and_bound(prob, np.zeros(0), node_log=plain_log)

    def overfull(node_lp, M, sol, int_idx):      # breaks the capacity row
        z = sol.primal.copy()
        z[list(int_idx)] = 1.0
        return z

    def lazy(node_lp, M, sol, int_idx):          # integral, above the bound
        z = sol.primal.copy()
        z[list(int_idx)] = 0.0
        return z

    for proposal in (overfull, lazy, lambda *args: None):
        log = []
        res = branch_and_bound(prob, np.zeros(0), round_repair=proposal,
                               node_log=log)
        assert res.status == "optimal"
        np.testing.assert_allclose(res.objective, plain.objective, atol=1e-12)
        np.testing.assert_allclose(res.integer_values, plain.integer_values)
        assert res.node_count == plain.node_count
        assert [r.outcome for r in log] == [r.outcome for r in plain_log]


def test_repair_acceptance_closes_node_and_matches_enumeration():
    # two exclusive supply routes at identical cost: the relaxation may mix
    # them with a fractional selector, and a proposal moving everything onto
    # one route ties the bound exactly, so the node closes as "rounded".
    # the accepted point must still be the true optimum.
    prog = LinearProgram()
    prog.add_param("demand")
    prog.add_var("buy1", lb=0.0, ub=5.0, cost=1.0)
    prog.add_var("buy2", lb=0.0, ub=5.0, cost=1.0)
    prog.add_var("pick", lb=0.0, ub=1.0, cost=0.0)
    prog.add_constraint({"buy1": 1.0, "buy2": 1.0}, "==", 0.0,
                        params={"demand": 1.0})
    prog.add_constraint({"buy1": 1.0, "pick": -5.0}, "<=", 0.0)
    prog.add_constraint({"buy2": 1.0, "pick": 5.0}, "<=", 5.0)
    prob = MILPProblem(lp=to_standard_form(prog), integer_vars=(2,))

    def one_route(node_lp, M, sol, int_idx):
        z = sol.primal.copy()
        z[0], z[1] = 0.0, 3.0
        z[2] = float(np.clip(0.0, node_lp.lb[2], node_lp.ub[2]))
        return z

    M0 = np.array([3.0])
    ref = enumerate_integer_assignments(prob, M0)
    outcomes = set()
    for engine in ("bland", "highs"):
        log = []
        res = branch_and_bound(prob, M0, engine=engine,
                               round_repair=one_route, node_log=log)
        assert res.status == "optimal"
        np.testing.assert_allclose(res.objective, 3.0, atol=1e-9)
        np.testing.assert_allclose(res.objective, ref.objective, atol=1e-9)
        # whichever vertex the engine returned, the proposal ties the
        # bound, so the search ends at the root
        assert res.node_count == 1
        outcomes.add(log[0].outcome)
        if log[0].outcome == "rounded":
            np.testing.assert_allclose(res.primal[:2], [0.0, 3.0], atol=1e-9)
            # the repaired point is reported, but the relaxation keeps the
            # node's duals, and its envelope slope is the two-stage one
            assert not np.array_equal(res.relaxation.primal, res.primal)
            node = solve_lp(res.subproblem, M0, engine=engine)
            np.testing.assert_array_equal(res.relaxation.ineq_duals,
                                          node.ineq_duals)
            np.testing.assert_array_equal(res.relaxation.eq_duals,
                                          node.eq_duals)
            slope = envelope_gradient(res.subproblem, res.relaxation)
            two = backward_optimal_subproblem(res, M0, engine=engine)
            np.testing.assert_allclose(slope, two.dcost_dM, atol=1e-12)
            np.testing.assert_allclose(slope, [1.0], atol=1e-9)
    # Bland lands on a pure vertex, HiGHS on the mixed one
    assert outcomes == {"incumbent", "rounded"}


# ---------------------------------------------------------------------------
# enumeration over the continuous columns vs pinning the integer columns
# ---------------------------------------------------------------------------
# _pinned_enumeration is the enumeration as it stood when every assignment's
# LP carried the integer columns pinned by their bounds, kept verbatim (but
# for its name) as the reference.

def _pinned_enumeration(problem: MILPProblem, M: np.ndarray,
                        engine: str = "bland",
                        max_assignments: int = MAX_ASSIGNMENTS
                        ) -> MILPResult:
    """Brute-force reference: try every integer assignment, keep the best.

    Assignments are visited in lexicographic order over ascending variable
    index; among objectives tied within machine precision the first one seen
    is kept, which makes the reported assignment deterministic.
    """
    lp = problem.lp
    M = np.asarray(M, dtype=float)
    ranges = []
    for j in problem.integer_vars:
        lo = math.ceil(lp.lb[j] - INT_TOL)
        hi = math.floor(lp.ub[j] + INT_TOL)
        if hi < lo:
            return MILPResult(status="infeasible", objective=None, primal=None,
                              integer_values=None, node_count=0, trail=None)
        ranges.append(range(lo, hi + 1))
    total = math.prod(len(r) for r in ranges)
    if total > max_assignments:
        raise ValueError(
            f"{total} integer assignments exceed the cap {max_assignments}")
    best_obj = math.inf
    best: tuple | None = None
    count = 0
    for combo in itertools.product(*ranges):
        count += 1
        lb = lp.lb.copy()
        ub = lp.ub.copy()
        for j, val in zip(problem.integer_vars, combo):
            lb[j] = ub[j] = float(val)
        sol = solve_lp(replace(lp, lb=lb, ub=ub), M, engine=engine)
        if sol.status == "unbounded":
            return MILPResult(status="unbounded", objective=None, primal=None,
                              integer_values=None, node_count=count,
                              trail=None)
        if sol.status != "optimal":
            continue
        tie = 1e-12 * (1.0 + abs(best_obj) if math.isfinite(best_obj) else 1.0)
        if sol.objective < best_obj - tie:
            best_obj = sol.objective
            best = (sol, combo)
    if best is None:
        return MILPResult(status="infeasible", objective=None, primal=None,
                          integer_values=None, node_count=count, trail=None)
    sol, combo = best
    return MILPResult(status="optimal", objective=sol.objective,
                      primal=sol.primal,
                      integer_values=np.array(combo, dtype=float),
                      node_count=count, trail=None)


def mixed_milp(rng, n_cont, n_int, n_ineq, n_eq, param_dim, fixed=False):
    """Random MILP around a feasible point: integers with ranges of 2-4
    values in scattered columns, continuous columns, inequality and
    equality rows, parameters; ``fixed`` pins one integer to lb == ub."""
    n = n_cont + n_int
    ints = np.sort(rng.choice(n, size=n_int, replace=False))
    is_int = np.zeros(n, dtype=bool)
    is_int[ints] = True
    lb = np.where(is_int, rng.integers(-1, 1, size=n), -rng.random(n))
    ub = np.where(is_int, lb + rng.integers(1, 4, size=n),
                  1.0 + 2.0 * rng.random(n))
    if fixed:
        ub[ints[0]] = lb[ints[0]]
    x0 = np.where(is_int, rng.integers(lb, ub + 1),
                  lb + (ub - lb) * rng.uniform(0.2, 0.8, size=n))
    M0 = rng.standard_normal(param_dim)
    A_f = rng.standard_normal((n_ineq, n))
    B_f = rng.standard_normal((n_ineq, param_dim))
    A_h = rng.standard_normal((n_eq, n))
    B_h = rng.standard_normal((n_eq, param_dim))
    lp = LPStandardForm(
        c=rng.standard_normal(n), c0=float(rng.standard_normal()),
        A_f=A_f, b_f0=A_f @ x0 + rng.uniform(0.1, 1.0, n_ineq) - B_f @ M0,
        B_f=B_f, A_h=A_h, b_h0=A_h @ x0 - B_h @ M0, B_h=B_h,
        lb=lb.astype(float), ub=ub.astype(float))
    return MILPProblem(lp=lp, integer_vars=tuple(int(j) for j in ints)), M0


def with_row(problem, a, rhs):
    """The problem with one more inequality row ``a . z <= rhs``."""
    lp = problem.lp
    lp = replace(lp, A_f=np.vstack([lp.A_f, a]),
                 b_f0=np.append(lp.b_f0, rhs),
                 B_f=np.vstack([lp.B_f, np.zeros(lp.param_dim)]))
    return replace(problem, lp=lp)


def with_free_column(problem):
    """The problem with one more continuous column, free, in no row, at
    negative cost: every feasible assignment's LP is unbounded."""
    lp = problem.lp
    lp = replace(lp, c=np.append(lp.c, -1.0),
                 A_f=np.hstack([lp.A_f, np.zeros((lp.n_ineq, 1))]),
                 A_h=np.hstack([lp.A_h, np.zeros((lp.n_eq, 1))]),
                 lb=np.append(lp.lb, -np.inf), ub=np.append(lp.ub, np.inf))
    return replace(problem, lp=lp)


def _assert_enumeration_matches_pinned(prob, M0):
    """The enumeration agrees with the pinned-column reference; returns it."""
    got = enumerate_integer_assignments(prob, M0)
    want = _pinned_enumeration(prob, M0)
    assert got.status == want.status
    assert got.node_count == want.node_count
    if got.status != "optimal":
        assert got.primal is None and got.integer_values is None
        return got
    np.testing.assert_array_equal(got.integer_values, want.integer_values)
    np.testing.assert_allclose(got.objective, want.objective,
                               rtol=1e-12, atol=1e-12)
    # the point is feasible for every row of the original problem, and
    # carries the assignment and the cost it reports
    lp, z = prob.lp, got.primal
    feas = 1e-9 * (1.0 + np.abs(z).max())
    assert np.all(lp.A_f @ z <= lp.b_f(M0) + feas)
    np.testing.assert_allclose(lp.A_h @ z, lp.b_h(M0), atol=feas)
    assert np.all(lp.lb - feas <= z) and np.all(z <= lp.ub + feas)
    np.testing.assert_array_equal(z[list(prob.integer_vars)],
                                  got.integer_values)
    np.testing.assert_allclose(lp.c @ z + lp.c0, got.objective,
                               rtol=1e-12, atol=1e-12)
    return got


def test_enumeration_matches_pinned_columns():
    rng = np.random.default_rng(RNG_SEED + 5)
    seen = {"no continuous": 0, "equality rows": 0, "parameters": 0,
            "lb == ub": 0, "infeasible": 0, "unbounded": 0, "optimal": 0}
    for trial in range(42):
        n_cont = trial % 4
        n_eq = int(trial % 3 == 0 and n_cont > 0)
        prob, M0 = mixed_milp(rng, n_cont, int(rng.integers(1, 4)),
                              int(rng.integers(1, 4)), n_eq, trial % 3,
                              fixed=trial % 5 == 0)
        j = prob.integer_vars[-1]
        if trial % 7 == 3:          # no integer value of z_j reaches it
            prob = with_row(prob, -np.eye(prob.lp.n_vars)[j],
                            -prob.lp.ub[j] - 0.5)
        elif trial % 7 == 5:
            prob = with_free_column(prob)
        got = _assert_enumeration_matches_pinned(prob, M0)
        seen[got.status] += 1
        seen["no continuous"] += n_cont == 0
        seen["equality rows"] += n_eq
        seen["parameters"] += M0.size > 0
        seen["lb == ub"] += trial % 5 == 0
    assert min(seen.values()) >= 3, seen

    # more assignments than one batch holds: 4 x 3**4 = 324
    for n_eq in (0, 1):
        prob, M0 = mixed_milp(rng, 2, 5, 3, n_eq, 2)
        lp, ints = prob.lp, list(prob.integer_vars)
        ub = lp.ub.copy()
        ub[ints] = lp.lb[ints] + [3, 2, 2, 2, 2]   # wider: x0 stays feasible
        prob = replace(prob, lp=replace(lp, ub=ub))
        got = _assert_enumeration_matches_pinned(prob, M0)
        assert got.status == "optimal" and got.node_count == 324

    # nine binaries: 512 assignments, two batches of 256; in lexicographic
    # order assignment 255 is (0, 1, ..., 1) and assignment 256 (1, 0, ..., 0).
    # Two optima tied exactly, the last of the first batch and the first of
    # the second: the earlier one is reported
    assert ENUM_CHUNK == 256
    tied = binary_program([-8.0] + [-1.0] * 8,
                          [({j: 8.0 if j == 0 else 1.0 for j in range(9)},
                            "<=", 8.0)])
    got = _assert_enumeration_matches_pinned(tied, np.zeros(0))
    np.testing.assert_array_equal(got.integer_values, [0] + [1] * 8)
    assert got.objective == -8.0 and got.node_count == 512

    # the first feasible assignment (1, 0, 1, 0, ...) is number 321, in the
    # second batch, and its LP is unbounded: the scan stops there
    first_at_321 = with_free_column(binary_program(
        [1.0] * 9, [({0: -1.0, 2: -1.0}, "<=", -2.0)]))
    got = _assert_enumeration_matches_pinned(first_at_321, np.zeros(0))
    assert got.status == "unbounded" and got.node_count == 321


def _stored_error_milp(a, m):
    # twelve rows -9e-11 x + a z <= m over free x, free y at cost -1 in no
    # row, and z in {0, 1}: where m - a z >= 0 the LP over (x, y) is
    # unbounded; where it is negative phase 1 breaks down
    # (tests/test_lp.py::_phase1_breakdown_lp)
    A_f = np.tile([-9e-11, 0.0, a], (12, 1))
    lp = LPStandardForm(
        c=np.array([0.0, -1.0, 0.0]), c0=0.0, A_f=A_f, b_f0=np.full(12, m),
        B_f=np.zeros((12, 0)), A_h=np.zeros((0, 3)), b_h0=np.zeros(0),
        B_h=np.zeros((0, 0)), lb=np.array([-np.inf, -np.inf, 0.0]),
        ub=np.array([np.inf, np.inf, 1.0]))
    return MILPProblem(lp=lp, integer_vars=(2,))


def test_enumeration_raises_a_stored_error_only_when_its_scan_reaches_it():
    # z = 0 is unbounded and ends the scan before z = 1 breaks down
    prob = _stored_error_milp(2.0, 1.0)
    got = _assert_enumeration_matches_pinned(prob, np.zeros(0))
    assert got.status == "unbounded" and got.node_count == 1
    # z = 0 breaks down first, although z = 1 is unbounded
    with pytest.raises(LPNumericalError, match="phase-1"):
        enumerate_integer_assignments(_stored_error_milp(-2.0, -1.0),
                                      np.zeros(0))
    with pytest.raises(LPNumericalError, match="phase-1"):
        _pinned_enumeration(_stored_error_milp(-2.0, -1.0), np.zeros(0))
