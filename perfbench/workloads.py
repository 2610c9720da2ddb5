"""The four workloads: inputs made from the seed, one timed unit each.

Each workload drives the package through its public functions, the way
the ``mesval`` command does, and returns the outputs the harness checks.
Module attributes are looked up at call time (``valuation.evaluate_cost``),
so a traced run sees the same calls through its wrappers.

Why these four (see README.md for what each stresses and bypasses):

* ``valuate`` is the paper's pipeline and the only one that runs the
  coalition loop; every layer takes a share of it.
* ``fto-showcase`` prices days on the larger hub, where later days need
  deep searches, so branch and bound and the LP solver do the work.
* ``train-base`` runs only the LSTM: a scheduling change must not move it.
* ``gradcheck`` is the only workload on the dense Bland engine, the KKT
  route, finite differences and enumeration, on tiny dense problems.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from mesval import batteries, config, dispatch, hub, lstm, valuation
from mesval.config import ExperimentConfig, fan_out, split_dataset
from mesval.hub import SECTORS
from mesval.lstm import TrainingConfig
from mesval.valuation import (LETTERS, DispatchInfeasible, coalition_value,
                              ledger_rows)

BALANCE_TOL = 1e-9      # kCNY, payouts vs the grand coalition value (CLI)


class Audit:
    """``on_dispatch`` hook: verifies every solved dispatch, as ``mesval
    valuate`` and ``run-fto`` do, and notes when each day completes.

    A joint solve completes a training day; an intra-day solve completes a
    priced day (the workloads run the sequential protocol).
    """

    KINDS = {"joint": "train", "intra_day": "price"}

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.dispatches = 0
        self.nodes = 0
        self.violations: list[str] = []
        self.completions: list[tuple[float, str]] = []

    def __call__(self, day, prob, res):
        check = dispatch.verify_dispatch(prob, res)
        self.dispatches += 1
        self.nodes += int(res.node_count)
        if not check.ok:
            self.violations.append(f"day {day} {prob.stage}: "
                                   f"{check.violations[:3]}")
        kind = self.KINDS.get(prob.stage)
        if kind is not None:
            self.completions.append((self.clock(), kind))

    def day_seconds(self, kind: str) -> list[float]:
        """Time between consecutive completions of ``kind`` with no other
        kind completing in between."""
        out = []
        for (t0, k0), (t1, k1) in zip(self.completions,
                                      self.completions[1:]):
            if k0 == k1 == kind:
                out.append(t1 - t0)
        return out

    def counters(self) -> dict:
        return {"audit.dispatches": self.dispatches,
                "audit.nodes": self.nodes}


@dataclass
class Outcome:
    """What one timed unit produced.

    ``outputs`` are compared with the stored reference and across units;
    ``ops``/``failed`` count the unit's own operations (days, battery
    checks); ``problems`` lists wrong answers found inside the unit.
    """

    outputs: dict
    ops: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def _inputs(cfg: ExperimentConfig):
    ds = config.dataset_from_config(cfg)
    return ds, hub.load_hub_config(cfg.hub_path())


def _train_base(cfg: ExperimentConfig, train) -> tuple[dict, dict]:
    """Per-sector MSE forecasters, seeded as ``mesval train-base`` seeds
    them."""
    seeds = fan_out(cfg.seed)
    models, traces = {}, {}
    for i, sector in enumerate(SECTORS):
        models[sector], traces[sector] = lstm.train_mse(
            train.loads[:, i, :], train.dows, cfg.training,
            seed=seeds.sectors[i])
    return models, traces


@dataclass(frozen=True)
class Valuate:
    """``full_valuation`` on the experiment hub, sequential, audited.

    The default config takes about two minutes per valuation, longer than
    one benchmark run may last, so the workload shrinks the split and the
    epochs; the coalition loop, the per-day work and the audit are the
    same, and a run times several valuations.
    """

    train_days: int = 4
    test_days: int = 3
    mse_epochs: int = 10
    e2e_epochs: int = 1
    name = "valuate"
    seeded = True             # inputs are made from --seed
    tolerance = (1e-6, 0.0)   # the CSV's six decimals, kCNY

    def experiment(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            seed=seed, hub="experiment", train_days=self.train_days,
            test_days=self.test_days,
            training=TrainingConfig(mse_epochs=self.mse_epochs,
                                    e2e_epochs=self.e2e_epochs))

    def setup(self, seed: int):
        cfg = self.experiment(seed)
        ds, hub_cfg = _inputs(cfg)
        return cfg, ds, hub_cfg

    def unit(self, state, audit: Audit) -> Outcome:
        cfg, ds, hub_cfg = state
        report = valuation.full_valuation(ds, cfg, hub=hub_cfg,
                                          on_dispatch=audit)
        outputs = {}
        for label, cost, value in ledger_rows(report.ledger):
            outputs[f"cost[{label}]"] = cost
            outputs[f"value[{label}]"] = value
        for s, pay in zip(report.allocation.sectors,
                          report.allocation.payouts):
            outputs[f"payout[{s}]"] = pay
        return Outcome(outputs, ops=1,
                       problems=balance_problems(report))


def balance_problems(report) -> list[str]:
    """The CLI's budget-balance rule: payouts sum to the grand coalition's
    value, or to nothing when the run is degenerate."""
    v_total = coalition_value(report.ledger, frozenset(LETTERS))
    paid = sum(report.allocation.payouts)
    if v_total > 0.0 and sum(report.allocation.raw) > 0.0:
        if abs(paid - v_total) > BALANCE_TOL:
            return [f"payouts sum to {paid!r}, grand coalition value is "
                    f"{v_total!r}"]
    elif paid != 0.0:
        return [f"degenerate run must pay nothing, got {paid!r}"]
    return []


@dataclass(frozen=True)
class FtoShowcase:
    """The ``run-fto`` flow on the showcase hub, one day at a time.

    Set-up trains the base forecasters on the first 30 days; the unit
    prices test days ``first_day``..``last_day`` each on its own (a two-day
    slice: the feature day and the priced day). Search depth grows with
    forecast age: days 61-80 close at the root or within ten nodes, days
    81-90 need up to 150. A day the hub cannot schedule is one
    failed operation and the unit goes on.

    The forecasters train for 10 epochs, not the default 50, to keep
    set-up short; the searches keep the same profile (370 nodes over days
    61-90 with 10 epochs, 382 with 50). The series and the forecasters
    always come from seed ``DATA_SEED``: across seeds the day on which deep
    searches start moves by several days, which swings a unit's node count
    from 294 to 490 (seeds 0-7), more than any run length averages out.
    """

    train_days: int = 30
    first_day: int = 61
    last_day: int = 90
    mse_epochs: int = 10
    name = "fto-showcase"
    seeded = False            # the same inputs for every --seed
    tolerance = (1e-6, 0.0)   # kCNY
    DATA_SEED = 0

    def experiment(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            seed=self.DATA_SEED, hub="showcase", train_days=self.train_days,
            test_days=self.last_day,
            training=TrainingConfig(mse_epochs=self.mse_epochs))

    def setup(self, seed: int):
        cfg = self.experiment(seed)
        ds, hub_cfg = _inputs(cfg)
        train, test = split_dataset(ds, cfg)
        models, _ = _train_base(cfg, train)
        return models, test, hub_cfg

    def unit(self, state, audit: Audit) -> Outcome:
        models, test, hub_cfg = state
        return price_days(models, test, hub_cfg, audit,
                          range(self.first_day, self.last_day + 1))


def price_days(models, test, hub_cfg, audit, days) -> Outcome:
    """Price each test day in ``days`` separately; an infeasible day is
    counted as a failed operation and recorded as ``None``."""
    out = Outcome(outputs={})
    for d in days:
        out.ops += 1
        try:
            cost = valuation.evaluate_cost(models, test.slice(d - 1, d + 1),
                                           hub_cfg, "sequential", "highs",
                                           audit)
        except DispatchInfeasible:
            out.failed += 1
            cost = None
        out.outputs[f"cost[day {d}]"] = cost
    return out


@dataclass(frozen=True)
class TrainBase:
    """``train_mse`` for the three sectors on the default training split,
    with a fifth of the default epochs so that a run times several units."""

    train_days: int = 30
    mse_epochs: int = 10
    name = "train-base"
    seeded = True             # inputs are made from --seed
    tolerance = (0.0, 1e-9)   # relative, on the final MSE

    def experiment(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            seed=seed, hub="experiment", train_days=self.train_days,
            training=TrainingConfig(mse_epochs=self.mse_epochs))

    def setup(self, seed: int):
        cfg = self.experiment(seed)
        ds, _ = _inputs(cfg)
        train, _ = split_dataset(ds, cfg)
        return cfg, train

    def unit(self, state, audit: Audit) -> Outcome:
        cfg, train = state
        _, traces = _train_base(cfg, train)
        outputs = {f"final_mse[{s}]": float(traces[s][-1]) for s in SECTORS}
        return Outcome(outputs, ops=len(SECTORS))


@dataclass(frozen=True)
class Gradcheck:
    """``run_all_batteries(quick=True)``, as ``mesval gradcheck --quick``
    runs it: every battery at a fifth of its acceptance size, so that a
    run times several units.

    The batteries seed their own instances (seed 700), so the inputs do
    not depend on the workload seed; set-up has nothing to load.
    """

    name = "gradcheck"
    seeded = False            # the same inputs for every --seed
    tolerance = (0.0, 0.0)

    def setup(self, seed: int):
        return None

    def unit(self, state, audit: Audit) -> Outcome:
        results = batteries.run_all_batteries(quick=True)
        out = Outcome(outputs={})
        for r in results:
            out.outputs[f"{r.name}.instances"] = r.n_instances
            out.outputs[f"{r.name}.checks"] = r.n_checks
            out.outputs[f"{r.name}.failures"] = r.n_failures
            out.ops += r.n_checks
            out.failed += r.n_failures
            if not r.passed:
                out.problems.append(f"battery {r.name} failed: "
                                    f"{'; '.join(r.failures)}")
        return out


WORKLOADS = {w.name: w for w in (Valuate, FtoShowcase, TrainBase, Gradcheck)}
