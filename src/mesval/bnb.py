"""Depth-first branch-and-bound over parametric LPs with integer variables.

Search rules, all deliberately plain:

  * the relaxation at each node is solved exactly, with no cuts; the root
    is solved cold and every later node with ``warm=True``, so HiGHS
    re-solves it from the basis of the node before, which shares its model
    up to column bounds (the Bland engine always solves cold). A caller
    that has just solved another day of the same template may ask for a
    warm root (``warm_root=True``, the root also solved with
    ``warm=True``), which re-solves the root from the held basis after
    moving the row bounds that changed with ``M``. HiGHS keeps one solver
    per constraint matrix, which a template shares with its nodes and
    days, so searches of other templates in between leave that basis. The
    result then depends on what the template's solver holds, so only a
    caller that controls what was solved on it before asks for it;
  * a node survives only if its relaxation is optimal AND its bound is
    strictly below the incumbent objective, so ties prune;
  * a child whose parent's relaxation bound is not strictly below the
    incumbent objective when it leaves the stack cannot survive, so its
    LP is not solved: it is neither counted nor logged;
  * branching picks the lowest-index integer variable whose relaxed value
    sits further than ``INT_TOL`` from an integer, and splits on floor/ceil;
  * the floor child is explored before the ceil child (LIFO stack, ceil
    pushed first);
  * every integer variable must carry finite bounds, which makes the tree
    finite without any extra termination argument;
  * a search past ``MAX_NODES`` nodes raises :class:`NodeLimitError`; the
    budget is a module constant, read when the search runs.

``round_repair`` adds one shortcut on top of those rules: before branching
a fractional node, a callable ``(node_lp, M, sol, int_idx) -> point or
None`` proposes an integral point, which is tested against the node's own
constraints by direct substitution. If it is feasible and costs no more
than the relaxation bound (within a machine tie window), the node is closed
with the proposed point as an incumbent instead of being split. Scheduling
models whose exclusivity binaries carry no objective weight sit on flat LP
plateaus where vertices report fractional binaries; without the repair the
search grinds through thousands of equal-cost nodes. A problem-aware
proposal (for example netting a storage unit's simultaneous charge and
discharge before picking the binary side) closes such nodes at once.
Acceptance is decided only by the verification, so a bad proposal costs
one branch and the returned optimum is unchanged; only the node trace
differs. Off (``False``) by default to keep the plain search rules.

A node whose relaxation is unbounded makes the whole problem report
``unbounded`` without certifying that an integer point realizes the ray;
the dispatch models built in this package bound every variable, so the case
only arises on malformed inputs.

Gradients: the optimal cost inherits the winning node's LP geometry, so its
parameter slope is obtained by differentiating that node's relaxation with
the branching bounds pinned. The search returns the winner's own relaxation
solution (``MILPResult.relaxation``), and :func:`embedded_gradient`
differentiates it once the search ends. :func:`backward_optimal_subproblem`
re-solves the winning node instead; the search is deterministic, so both
routes differentiate the same LP at the same point, and the batteries test
them against each other. A folded system of at most ``KKT_AUTO_LIMIT`` rows
is differentiated by the implicit-function solve (primal sensitivities
included); a larger one takes the dual (envelope) slope only.

:func:`enumerate_integer_assignments` is the brute-force reference used by
the acceptance battery: it tries every integer assignment in lexicographic
order, solving the continuous columns with the assignment substituted into
the right-hand side, and keeps the first optimum within a machine-precision
tie window. It is exhaustive and runs on the Bland engine: the assignments
go in lexicographic chunks of ``ENUM_CHUNK`` through one
:func:`mesval.lp.solve_bland_batch` call each, which returns what solving
them one by one would, and each chunk is then scanned in order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .lp import (LPNumericalError, LPSolution, LPStandardForm, _dense,
                 solve_bland_batch, solve_lp)
from .sensitivity import GradientResult, cost_gradient, dual_gradient_result

INT_TOL = 1e-6
MAX_NODES = 100_000
MAX_ASSIGNMENTS = 1 << 20
ENUM_CHUNK = 256          # assignments per Bland batch
KKT_AUTO_LIMIT = 600      # folded system rows above which: envelope only


class MILPBuildError(ValueError):
    """Problem description rejected before any search."""


class NodeLimitError(RuntimeError):
    """Search exceeded its node budget."""


@dataclass(frozen=True)
class BranchStep:
    """One bound tightening on the path from the root to a node."""

    var: int
    side: str        # "floor" (new upper bound) | "ceil" (new lower bound)
    bound: float


@dataclass(frozen=True)
class MILPProblem:
    """Box-form LP plus the indices that must land on integers."""

    lp: LPStandardForm
    integer_vars: tuple[int, ...]

    def __post_init__(self):
        lp = self.lp
        if lp.lb_row_vars is not None:
            raise MILPBuildError("expected box-form LP, bounds already folded")
        finite = (np.isfinite(lp.lb) & np.isfinite(lp.ub)).tolist()
        seen = set()
        for j in self.integer_vars:
            if isinstance(j, bool) or not isinstance(j, (int, np.integer)):
                raise MILPBuildError(
                    f"integer variable index {j!r} is not an integer")
            if not 0 <= j < lp.n_vars:
                raise MILPBuildError(f"integer variable index {j} out of range")
            if j in seen:
                raise MILPBuildError(f"integer variable index {j} repeated")
            seen.add(j)
            if not finite[j]:
                raise MILPBuildError(
                    f"integer variable {j} needs finite bounds to terminate")
        object.__setattr__(self, "integer_vars",
                           tuple(sorted(self.integer_vars)))


@dataclass(frozen=True)
class MILPResult:
    status: str                                # optimal|infeasible|unbounded
    objective: float | None
    primal: np.ndarray | None
    integer_values: np.ndarray | None
    node_count: int
    trail: tuple[BranchStep, ...] | None       # path of the winning node
    subproblem: LPStandardForm | None = None   # winning node's relaxation
    relaxation: LPSolution | None = None       # that relaxation's solution


@dataclass(frozen=True)
class NodeRecord:
    """One line of the search log (for tests and debugging)."""

    index: int
    trail: tuple[BranchStep, ...]
    status: str
    objective: float | None
    outcome: str       # branch|incumbent|rounded|pruned_bound|infeasible
    branch_var: int | None


def subproblem_for_trail(problem: MILPProblem,
                         trail: tuple[BranchStep, ...]) -> LPStandardForm:
    """The node relaxation: base LP with the trail's bounds applied."""
    lb = problem.lp.lb.copy()
    ub = problem.lp.ub.copy()
    for step in trail:
        if step.side == "floor":
            ub[step.var] = min(ub[step.var], step.bound)
        elif step.side == "ceil":
            lb[step.var] = max(lb[step.var], step.bound)
        else:
            raise ValueError(f"unknown branch side {step.side!r}")
    return replace(problem.lp, lb=lb, ub=ub)


def _verified_point(node_lp, b_f, b_h, sol, z, ints):
    """Accept a repair proposal only on direct-substitution evidence:
    integral, feasible for every node constraint (right-hand sides ``b_f``
    and ``b_h``), and no costlier than the relaxation bound (within a
    machine tie window). Returns None otherwise.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != sol.primal.shape or not np.all(np.isfinite(z)):
        return None
    if ints.size and np.max(np.abs(z[ints] - np.round(z[ints]))) > INT_TOL:
        return None
    obj = float(node_lp.c @ z) + node_lp.c0
    tie = 1e-9 * (1.0 + abs(sol.objective))
    if obj > sol.objective + tie:
        return None
    feas = 1e-8 * (1.0 + max(
        float(np.max(np.abs(b_f), initial=0.0)),
        float(np.max(np.abs(b_h), initial=0.0)),
        float(np.max(np.abs(z), initial=0.0))))
    if node_lp.n_ineq and np.max(node_lp.A_f @ z - b_f) > feas:
        return None
    if node_lp.n_eq and np.max(np.abs(node_lp.A_h @ z - b_h)) > feas:
        return None
    if np.any(z < node_lp.lb - feas) or np.any(z > node_lp.ub + feas):
        return None
    return z


def branch_and_bound(problem: MILPProblem, M: np.ndarray,
                     engine: str = "bland", node_log: list | None = None,
                     round_repair=False, warm_root: bool = False
                     ) -> MILPResult:
    """Solve the integer-constrained problem at parameter vector ``M``.

    ``round_repair``: False (plain search) or a callable repair proposal
    (see module docstring). ``warm_root``: solve the root with
    ``warm=True`` instead of cold (see module docstring).
    """
    M = np.asarray(M, dtype=float)
    int_idx = list(problem.integer_vars)
    ints = np.array(int_idx, dtype=int)
    if round_repair:
        # the nodes differ from the root in column bounds only
        b_f, b_h = problem.lp.b_f(M), problem.lp.b_h(M)
    # each open node with the relaxation bound of its parent
    stack: list[tuple[tuple[BranchStep, ...], float]] = [((), -math.inf)]
    best_obj = math.inf
    best: tuple | None = None
    count = 0
    while stack:
        trail, parent_bound = stack.pop()
        if not parent_bound < best_obj:
            continue
        if count >= MAX_NODES:
            raise NodeLimitError(f"node budget {MAX_NODES} exhausted")
        count += 1
        node_lp = subproblem_for_trail(problem, trail)
        sol = solve_lp(node_lp, M, engine=engine,
                       warm=bool(trail) or warm_root)
        if sol.status == "unbounded":
            return MILPResult(status="unbounded", objective=None, primal=None,
                              integer_values=None, node_count=count,
                              trail=None)
        if sol.status != "optimal":
            _log(node_log, count, trail, sol.status, None, "infeasible", None)
            continue
        if not sol.objective < best_obj:
            _log(node_log, count, trail, sol.status, sol.objective,
                 "pruned_bound", None)
            continue
        vals = sol.primal[ints]
        frac = np.abs(vals - np.round(vals))
        loose = np.flatnonzero(frac > INT_TOL)
        if loose.size == 0:
            best_obj = sol.objective
            best = (sol, sol, trail)
            _log(node_log, count, trail, sol.status, sol.objective,
                 "incumbent", None)
            continue
        if round_repair:
            cand = round_repair(node_lp, M, sol, int_idx)
            z = (None if cand is None else
                 _verified_point(node_lp, b_f, b_h, sol, cand, ints))
            if z is not None:
                obj = float(node_lp.c @ z) + node_lp.c0
                if obj < best_obj:
                    best_obj = obj
                    best = (replace(sol, primal=z, objective=obj), sol, trail)
                _log(node_log, count, trail, sol.status, obj, "rounded", None)
                continue
        j = int_idx[loose[0]]
        v = sol.primal[j]
        _log(node_log, count, trail, sol.status, sol.objective, "branch", j)
        stack.append((trail + (BranchStep(j, "ceil", float(math.ceil(v))),),
                      sol.objective))
        stack.append((trail + (BranchStep(j, "floor",
                                          float(math.floor(v))),),
                      sol.objective))
    if best is None:
        return MILPResult(status="infeasible", objective=None, primal=None,
                          integer_values=None, node_count=count,
                          trail=None)
    sol, relaxation, trail = best
    return MILPResult(status="optimal", objective=sol.objective,
                      primal=sol.primal,
                      integer_values=np.round(sol.primal[ints]).astype(float),
                      node_count=count, trail=trail,
                      subproblem=subproblem_for_trail(problem, trail),
                      relaxation=relaxation)


def _log(node_log, index, trail, status, objective, outcome, branch_var):
    if node_log is not None:
        node_log.append(NodeRecord(index=index, trail=trail, status=status,
                                   objective=objective, outcome=outcome,
                                   branch_var=branch_var))


def _node_gradient(node_lp, M, sol) -> GradientResult:
    # size of the folded system: every finite bound becomes a row
    bound_rows = int(np.isfinite(node_lp.lb).sum()
                     + np.isfinite(node_lp.ub).sum())
    dim = node_lp.n_vars + node_lp.n_ineq + bound_rows + node_lp.n_eq
    if dim <= KKT_AUTO_LIMIT:
        return cost_gradient(node_lp, M, sol)
    return dual_gradient_result(node_lp, sol)


def embedded_gradient(problem: MILPProblem, M: np.ndarray,
                      engine: str = "bland", node_log: list | None = None,
                      round_repair=False, warm_root: bool = False
                      ) -> tuple[MILPResult, GradientResult | None]:
    """Search, then differentiate the winning node's relaxation once.

    Returns ``(result, gradient)``; the gradient is None when the search
    ends without an optimum. A rounded incumbent differentiates its node's
    relaxation, the same LP the two-stage route re-solves. ``warm_root``
    is passed to :func:`branch_and_bound`.
    """
    M = np.asarray(M, dtype=float)
    result = branch_and_bound(problem, M, engine, node_log, round_repair,
                              warm_root)
    if result.status != "optimal":
        return result, None
    return result, _node_gradient(result.subproblem, M, result.relaxation)


def backward_optimal_subproblem(result: MILPResult, M: np.ndarray,
                                engine: str = "bland") -> GradientResult:
    """Differentiate a finished search: re-solve the winning node's
    relaxation (branching bounds pinned), then take its cost slope."""
    if result.status != "optimal":
        raise ValueError(f"cannot differentiate a {result.status!r} result")
    if result.subproblem is None:
        raise ValueError("result carries no winning-node relaxation")
    M = np.asarray(M, dtype=float)
    sol = solve_lp(result.subproblem, M, engine=engine)
    if sol.status != "optimal":
        raise RuntimeError(
            f"winning node failed to re-solve (status {sol.status})")
    return _node_gradient(result.subproblem, M, sol)


def enumerate_integer_assignments(problem: MILPProblem,
                                  M: np.ndarray) -> MILPResult:
    """Brute-force reference: try every integer assignment, keep the best.

    Each assignment ``z`` is an LP over the continuous columns alone,
    solved by the Bland engine: ``z`` enters the right-hand side as extra
    parameter entries (``A_cont x <= b(M) - A_int z``, likewise for the
    equality rows) and its cost ``c_int . z`` is added to the LP optimum.
    That LP is built and folded once per problem. Assignments are visited
    in lexicographic order over ascending variable index; among objectives
    tied within machine precision the first one seen is kept, which makes
    the reported assignment deterministic.

    The assignments are solved in chunks of at most ``ENUM_CHUNK``, one
    :func:`mesval.lp.solve_bland_batch` call each (the chunk bounds the
    stacked tableaux in memory), and each chunk is scanned in order: an
    unbounded assignment ends the search and sets ``node_count``, and a
    numerical breakdown stored for an assignment is raised only when the
    scan reaches it, as solving one assignment at a time would.
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
    if total > MAX_ASSIGNMENTS:
        raise ValueError(
            f"{total} integer assignments exceed the cap {MAX_ASSIGNMENTS}")
    ints = np.array(problem.integer_vars, dtype=int)
    cont = np.setdiff1d(np.arange(lp.n_vars), ints)
    A_f = _dense(lp.A_f)
    A_h = _dense(lp.A_h)
    rest = LPStandardForm(
        c=lp.c[cont], c0=lp.c0,
        A_f=A_f[:, cont], b_f0=lp.b_f0, B_f=np.hstack([lp.B_f, -A_f[:, ints]]),
        A_h=A_h[:, cont], b_h0=lp.b_h0, B_h=np.hstack([lp.B_h, -A_h[:, ints]]),
        lb=lp.lb[cont], ub=lp.ub[cont]).fold_bounds()
    c_int = lp.c[ints]
    combos = itertools.product(*ranges)
    best_obj = math.inf
    best: tuple | None = None
    count = 0
    while chunk := list(itertools.islice(combos, ENUM_CHUNK)):
        Z = np.array(chunk, dtype=float)
        sols = solve_bland_batch(rest, np.hstack(
            (np.broadcast_to(M, (len(Z), M.size)), Z)))
        for z, sol in zip(Z, sols):
            count += 1
            if isinstance(sol, LPNumericalError):
                raise sol
            if sol.status == "unbounded":
                return MILPResult(status="unbounded", objective=None,
                                  primal=None, integer_values=None,
                                  node_count=count, trail=None)
            if sol.status != "optimal":
                continue
            obj = sol.objective + float(c_int @ z)
            tie = 1e-12 * (1.0 + abs(best_obj) if math.isfinite(best_obj)
                           else 1.0)
            if obj < best_obj - tie:
                best_obj = obj
                best = (sol.primal, z)
    if best is None:
        return MILPResult(status="infeasible", objective=None, primal=None,
                          integer_values=None, node_count=count, trail=None)
    x, z = best
    primal = np.empty(lp.n_vars)
    primal[cont] = x
    primal[ints] = z
    return MILPResult(status="optimal", objective=best_obj, primal=primal,
                      integer_values=z, node_count=count, trail=None)
