"""Randomized self-check batteries for the differentiable solver stack.

Four batteries, each pitting an analytic path against an independent
reference on freshly generated instances:

  * lp-gradient: implicit-function cost slopes vs central finite
    differences (off detected kinks), and the dual envelope slope on
    nondegenerate vertices;
  * milp-optimality: branch and bound vs brute-force enumeration of the
    integer assignments;
  * gradient-equivalence: the search-embedded gradient vs re-solving the
    winning node afterwards;
  * lstm-bptt: backpropagation through time vs central finite differences
    over every parameter tensor.

Battery k (1-4 in the order above) draws its instances from ``SEED + k``;
the batteries power both the ``gradcheck`` command and the acceptance tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .bnb import (MILPProblem, backward_optimal_subproblem, branch_and_bound,
                  embedded_gradient, enumerate_integer_assignments)
from .lp import LPStandardForm, solve_lp
from .lstm import (ForecastModel, LstmParams, Normalization, backward_day,
                   forecast_batch, forward_day, init_params)
from .sensitivity import (cost_gradient, envelope_gradient,
                          finite_difference_gradient, vertex_degeneracy)

__all__ = [
    "BatteryResult",
    "bptt_battery",
    "equivalence_battery",
    "lp_gradient_battery",
    "milp_optimality_battery",
    "random_box_lp",
    "random_milp",
    "run_all_batteries",
]

# largest random instances: variables, inequality rows, parameter slots
# and, in a mixed problem, continuous columns
MAX_VARS, MAX_ROWS, MAX_PARAMS, MAX_CONT = 10, 8, 3, 4

# pass thresholds
FD_REL_TOL = 1e-4          # analytic vs finite-difference cost slope
ENVELOPE_TOL = 1e-10       # implicit-function vs envelope cost slope
OBJ_TOL = 1e-9             # branch and bound vs enumeration objective
EQUIVALENCE_TOL = 1e-12    # embedded vs re-solved gradient
BPTT_REL_TOL = 1e-4        # backward pass vs finite differences
BPTT_STEP = 1e-5           # finite-difference step on an LSTM weight

SEED = 700                 # battery k draws from SEED + k
KEEP_NOTES = 5             # failure notes kept per battery


@dataclass(frozen=True)
class BatteryResult:
    name: str
    n_instances: int
    n_checks: int
    n_failures: int
    worst: float                 # largest error seen across all checks
    seconds: float
    failures: tuple = field(default_factory=tuple)   # first few, as text

    @property
    def passed(self) -> bool:
        return self.n_failures == 0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{self.name:<22} {self.n_instances:>4} instances "
                f"{self.n_checks:>6} checks {self.n_failures:>3} failures "
                f"worst {self.worst:9.3e}  {self.seconds:6.2f}s  {status}")


class _Tally:
    def __init__(self):
        self.checks = 0
        self.failed = 0
        self.worst = 0.0
        self.notes = []

    def check(self, err: float, limit: float, label: str) -> None:
        self.checks += 1
        self.worst = max(self.worst, float(err))
        if err > limit:
            self.failed += 1
            if len(self.notes) < KEEP_NOTES:
                self.notes.append(f"{label}: {err:.3e} > {limit:.1e}")

    def result(self, name: str, n_instances: int,
               seconds: float) -> BatteryResult:
        return BatteryResult(name=name, n_instances=n_instances,
                             n_checks=self.checks, n_failures=self.failed,
                             worst=self.worst, seconds=seconds,
                             failures=tuple(self.notes))


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------

def random_box_lp(rng: np.random.Generator):
    """Random bounded-feasible LP whose inequality RHS is parametric.

    Feasibility at the returned base point is built in: the RHS leaves a
    strictly positive margin around a random interior point, so small
    finite-difference steps stay solvable. Finite bounds keep every
    instance bounded.
    """
    n = int(rng.integers(2, MAX_VARS + 1))
    m = int(rng.integers(1, MAX_ROWS + 1))
    p = int(rng.integers(1, MAX_PARAMS + 1))
    A = rng.normal(size=(m, n))
    ub = rng.uniform(1.0, 5.0, size=n)
    x0 = ub * rng.uniform(0.2, 0.8, size=n)
    B = rng.normal(size=(m, p)) * (rng.random(size=(m, p)) < 0.7)
    M0 = rng.normal(size=p)
    margin = rng.uniform(0.3, 1.0, size=m)
    b_f0 = A @ x0 + margin - B @ M0
    lp = LPStandardForm(
        c=rng.normal(size=n), c0=0.0,
        A_f=A, b_f0=b_f0, B_f=B,
        A_h=np.zeros((0, n)), b_h0=np.zeros(0), B_h=np.zeros((0, p)),
        lb=np.zeros(n), ub=ub)
    return lp, M0


def random_milp(rng: np.random.Generator, max_binaries: int = 10):
    """Random mixed problem with a guaranteed-feasible binary assignment."""
    nb = int(rng.integers(1, max_binaries + 1))
    nc = int(rng.integers(0, MAX_CONT + 1))
    n = nb + nc
    m = int(rng.integers(1, MAX_ROWS + 1))
    p = int(rng.integers(1, MAX_PARAMS + 1))
    A = rng.normal(size=(m, n))
    ub = np.concatenate([rng.uniform(1.0, 5.0, size=nc), np.ones(nb)])
    z0 = rng.integers(0, 2, size=nb).astype(float)
    x0 = np.concatenate([ub[:nc] * rng.uniform(0.2, 0.8, size=nc), z0])
    B = rng.normal(size=(m, p)) * (rng.random(size=(m, p)) < 0.7)
    M0 = rng.normal(size=p)
    margin = rng.uniform(0.3, 1.0, size=m)
    b_f0 = A @ x0 + margin - B @ M0
    lp = LPStandardForm(
        c=rng.normal(size=n), c0=0.0,
        A_f=A, b_f0=b_f0, B_f=B,
        A_h=np.zeros((0, n)), b_h0=np.zeros(0), B_h=np.zeros((0, p)),
        lb=np.zeros(n), ub=ub)
    problem = MILPProblem(lp=lp, integer_vars=tuple(range(nc, n)))
    return problem, M0


# ---------------------------------------------------------------------------
# batteries
# ---------------------------------------------------------------------------

def lp_gradient_battery(n_instances: int = 100) -> BatteryResult:
    """Analytic cost slopes vs finite differences and the dual envelope."""
    rng = np.random.default_rng(SEED + 1)
    tally = _Tally()
    t0 = time.perf_counter()
    for i in range(n_instances):
        lp, M0 = random_box_lp(rng)
        sol = solve_lp(lp, M0, engine="bland")
        if sol.status != "optimal":
            tally.check(np.inf, 1.0, f"lp[{i}]: solve is {sol.status}")
            continue
        grad = cost_gradient(lp, M0, sol)
        fd = finite_difference_gradient(lp, M0)
        for k in range(M0.shape[0]):
            if fd.kink[k]:
                continue
            err = abs(grad.dcost_dM[k] - fd.value[k])
            tally.check(err / (1.0 + abs(fd.value[k])), FD_REL_TOL,
                        f"lp[{i}] slot {k} vs fd")
        if vertex_degeneracy(lp, M0, sol).nondegenerate:
            env = envelope_gradient(lp, sol)
            err = float(np.max(np.abs(grad.dcost_dM - env)))
            tally.check(err, ENVELOPE_TOL, f"lp[{i}] envelope")
    return tally.result("lp-gradient", n_instances,
                        time.perf_counter() - t0)


def milp_optimality_battery(n_instances: int = 100) -> BatteryResult:
    """Branch and bound vs brute-force enumeration."""
    rng = np.random.default_rng(SEED + 2)
    tally = _Tally()
    t0 = time.perf_counter()
    for i in range(n_instances):
        problem, M0 = random_milp(rng)
        got = branch_and_bound(problem, M0)
        want = enumerate_integer_assignments(problem, M0)
        if got.status != want.status:
            tally.check(np.inf, 1.0,
                        f"milp[{i}] status {got.status} vs {want.status}")
            continue
        if got.status == "optimal":
            tally.check(abs(got.objective - want.objective), OBJ_TOL,
                        f"milp[{i}] objective")
    return tally.result("milp-optimality", n_instances,
                        time.perf_counter() - t0)


def equivalence_battery(n_instances: int = 50) -> BatteryResult:
    """Search-embedded gradient vs differentiating the finished search."""
    rng = np.random.default_rng(SEED + 3)
    tally = _Tally()
    t0 = time.perf_counter()
    for i in range(n_instances):
        problem, M0 = random_milp(rng, max_binaries=6)
        res, emb = embedded_gradient(problem, M0)
        if res.status != "optimal":
            continue
        two = backward_optimal_subproblem(res, M0)
        err_cost = float(np.max(np.abs(emb.dcost_dM - two.dcost_dM)))
        tally.check(err_cost, EQUIVALENCE_TOL, f"eqv[{i}] cost slope")
        if emb.dz_dM is None or two.dz_dM is None:   # dual route: no jacobian
            err_sol = 0.0 if emb.dz_dM is two.dz_dM else np.inf
        else:
            err_sol = float(np.max(np.abs(emb.dz_dM - two.dz_dM)))
        tally.check(err_sol, EQUIVALENCE_TOL, f"eqv[{i}] solution jacobian")
    return tally.result("gradient-equivalence", n_instances,
                        time.perf_counter() - t0)


def bptt_battery(n_configs: int = 20) -> BatteryResult:
    """Exact backward pass vs central finite differences, all parameters.

    The normalization window keeps every forecast strictly positive so the
    output clamp never kinks the finite differences.
    """
    rng = np.random.default_rng(SEED + 4)
    tally = _Tally()
    t0 = time.perf_counter()
    for i in range(n_configs):
        hidden = int(rng.integers(2, 9))
        w = int(rng.integers(4, 13))
        params = init_params(seed=int(rng.integers(0, 2**31)),
                             hidden_size=hidden)
        norm = Normalization(lo=3000.0, hi=3600.0)
        window = rng.normal(0.0, 0.5, size=(w, params.input_dim))
        dloss = rng.normal(size=params.horizon)
        model = ForecastModel(params=params, norm=norm, window=w)
        grads = backward_day(forward_day([model], [window]), dloss[None],
                             [0])[0]
        for name in type(params).field_names():
            analytic = getattr(grads, name)
            fds = _fd_slots(model, name, window, dloss, BPTT_STEP)
            for idx, fd in zip(np.ndindex(analytic.shape), fds):
                err = abs(analytic[idx] - fd) / (1.0 + abs(fd))
                tally.check(err, BPTT_REL_TOL, f"bptt[{i}] {name}{idx}")
    return tally.result("lstm-bptt", n_configs, time.perf_counter() - t0)


def _fd_slots(model: ForecastModel, name: str, window, dloss,
              h: float) -> list:
    """Central differences of ``dloss . forecast`` for every slot of one
    parameter tensor, in C order.

    All ``+h`` and ``-h`` copies of the tensor go through one batched
    forward on the network axis; each item runs the same products as a
    forward of its own, so every difference keeps its bits.
    """
    base = getattr(model.params, name)
    n = base.size
    bumped = np.repeat(base[None], 2 * n, axis=0)
    flat = bumped.reshape(2 * n, n)
    slots = np.arange(n)
    flat[slots, slots] += h
    flat[n + slots, slots] += -h
    fields = {f: getattr(model.params, f)[None]
              for f in LstmParams.field_names()}
    params = SimpleNamespace(**{**fields, name: bumped})
    fc = forecast_batch(params, model.norm, window[None, None])
    loss = [float(dloss @ fc[k, 0]) for k in range(2 * n)]
    return [(loss[k] - loss[n + k]) / (2.0 * h) for k in range(n)]


def run_all_batteries(quick: bool = False) -> list:
    """Every battery at acceptance sizes (or a fifth of them for quick)."""
    scale = 5 if quick else 1
    return [
        lp_gradient_battery(max(100 // scale, 5)),
        milp_optimality_battery(max(100 // scale, 5)),
        equivalence_battery(max(50 // scale, 5)),
        bptt_battery(max(20 // scale, 2)),
    ]
