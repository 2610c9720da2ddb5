"""Coalition valuation of load data and the clipped-Shapley profit split.

The pipeline prices what each sector's data contributes to cheaper
operation:

  * one forecaster per sector is trained on squared error (benchmark);
  * for a coalition, only its members' forecasters are fine-tuned with
    cost gradients taken through the joint scheduling problem, every
    coalition starting from the same benchmark snapshot;
  * a coalition's cost is its held-out scheduling bill; its value is the
    saving against the benchmark; the grand coalition's saving is split
    by the clipped-marginal Shapley rule and normalized so the payouts
    exhaust it exactly.

Costs are reported in kCNY (dispatch objectives are CNY per day).
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .bnb import branch_and_bound, embedded_gradient
from .config import ExperimentConfig, fan_out, split_dataset
from .data import DayDataset
from .dispatch import (build_day_ahead, build_intra_day, build_joint,
                       storage_repair)
from .hub import SECTORS, HubConfig, load_hub_config
from .lstm import (apply_external_gradient, build_window, forecast_metrics,
                   forward_day, train_mse)

__all__ = [
    "LETTERS",
    "ORACLE_FORECASTS",
    "Allocation",
    "CoalitionLedger",
    "DispatchInfeasible",
    "ValuationError",
    "ValuationReport",
    "allocation_rows",
    "coalition_label",
    "coalition_value",
    "evaluate_cost",
    "full_valuation",
    "ledger_rows",
    "normalize_allocation",
    "parse_coalition",
    "sector_metrics",
    "subsets_in_order",
    "train_base_models",
    "train_end_to_end",
    "zero_shapley",
]

log = logging.getLogger(__name__)

LETTERS = ("e", "h", "c")

MAX_SECTORS = 20


class ValuationError(ValueError):
    """Bad valuation input or an infeasible scheduling day."""


class DispatchInfeasible(ValuationError):
    """A scheduling stage has no optimal dispatch for some day."""


class _OracleForecasts:
    """Sentinel: evaluate with forecasts identical to the actual loads."""

    def __repr__(self):
        return "ORACLE_FORECASTS"


ORACLE_FORECASTS = _OracleForecasts()


# ---------------------------------------------------------------------------
# coalition bookkeeping
# ---------------------------------------------------------------------------

def parse_coalition(label: str) -> frozenset:
    if label in ("", "none"):
        return frozenset()
    letters = set(label)
    unknown = letters - set(LETTERS)
    if unknown:
        raise ValuationError(f"unknown sector letters {sorted(unknown)} in "
                             f"coalition label {label!r}")
    return frozenset(letters)


def coalition_label(U) -> str:
    return "none" if not U else "".join(l for l in LETTERS if l in U)


def subsets_in_order(sectors) -> tuple:
    """All subsets, smallest first, members in the given sector order."""
    subsets = []
    for k in range(len(sectors) + 1):
        for combo in itertools.combinations(sectors, k):
            subsets.append(frozenset(combo))
    return tuple(subsets)


@dataclass(frozen=True)
class CoalitionLedger:
    """Held-out cost of every coalition, in kCNY."""

    sectors: tuple
    costs: Mapping

    def __post_init__(self):
        missing = [coalition_label(U) for U in subsets_in_order(self.sectors)
                   if U not in self.costs]
        if missing:
            raise ValuationError(f"ledger is missing coalitions: {missing}")
        for U, c in self.costs.items():
            if not np.isfinite(c):
                raise ValuationError(f"non-finite cost for "
                                     f"{coalition_label(U)}")

    def value(self, U: frozenset) -> float:
        """Savings of coalition U against the no-cooperation baseline."""
        if U not in self.costs:
            raise ValuationError(f"no cost recorded for "
                                 f"{coalition_label(U)}")
        return self.costs[frozenset()] - self.costs[U]

    def values(self) -> dict:
        return {U: self.value(U) for U in subsets_in_order(self.sectors)}


def coalition_value(ledger: CoalitionLedger, U: frozenset) -> float:
    return ledger.value(frozenset(U))


# ---------------------------------------------------------------------------
# allocation math
# ---------------------------------------------------------------------------

def zero_shapley(values: Mapping, sectors) -> dict:
    """Clipped-marginal Shapley raw values by full subset enumeration."""
    sectors = tuple(sectors)
    n = len(sectors)
    if n > MAX_SECTORS:
        raise ValuationError(f"{n} sectors exceed the enumeration guard "
                             f"({MAX_SECTORS})")
    for U in subsets_in_order(sectors):
        if U not in values:
            raise ValuationError(f"values map is missing coalition "
                                 f"{coalition_label(U)}")
    if values[frozenset()] != 0.0:
        raise ValuationError("the empty coalition must have value 0")
    out = {}
    for player in sectors:
        others = [s for s in sectors if s != player]
        acc = 0.0
        for k in range(n):
            coef = 1.0 / math.comb(n - 1, k)
            for combo in itertools.combinations(others, k):
                S = frozenset(combo)
                marginal = values[S | {player}] - values[S]
                if marginal > 0.0:
                    acc += coef * marginal
        out[player] = acc / n
    return out


@dataclass(frozen=True)
class Allocation:
    """Raw clipped-Shapley values and the budget-balanced payouts."""

    sectors: tuple
    raw: tuple
    payouts: tuple


def normalize_allocation(raw: Mapping, total_value: float,
                         sectors) -> Allocation:
    """Scale raw values so the payouts sum to the grand coalition's value.

    Degenerate rules: all-zero raw values pay nothing (the scale is 0/0),
    and a grand coalition that saved nothing (or lost) pays nothing, which
    keeps every payout nonnegative.
    """
    sectors = tuple(sectors)
    vals = tuple(float(raw[s]) for s in sectors)
    if any(v < 0.0 for v in vals):
        raise ValuationError("internal error: negative raw value from the "
                             "clipped split")
    scale = sum(vals)
    if scale == 0.0 or total_value <= 0.0:
        payouts = (0.0,) * len(sectors)
    else:
        parts = [v / scale * total_value for v in vals]
        # close the float dust so the payouts sum to the total exactly;
        # the largest share absorbs it, staying positive and within one ulp
        parts[max(range(len(vals)), key=vals.__getitem__)] += (
            total_value - sum(parts))
        payouts = tuple(parts)
    return Allocation(sectors=sectors, raw=vals, payouts=payouts)


# ---------------------------------------------------------------------------
# cost evaluation
# ---------------------------------------------------------------------------

def _forecast_day(models: Mapping, prev_loads: np.ndarray,
                  dow: int) -> tuple:
    """The day's forecasts, one row per sector, and the input window each
    sector's forecaster read."""
    rows, windows = [], []
    for i, sector in enumerate(SECTORS):
        m = models[sector]
        windows.append(build_window(prev_loads[i], dow, m.norm, m.window))
        rows.append(forward_day(m, windows[-1]))
    return np.vstack(rows), windows


def _check_models(models) -> None:
    if models is ORACLE_FORECASTS:
        return
    missing = [s for s in SECTORS if s not in models]
    if missing:
        raise ValuationError(f"models missing for sectors: {missing}")


def _solve_stage(prob, engine, day, stage, on_dispatch):
    res = branch_and_bound(prob.milp, prob.M0, engine=engine,
                           round_repair=storage_repair(prob))
    if res.status != "optimal":
        raise DispatchInfeasible(f"day {day}: {stage} is {res.status}")
    if on_dispatch is not None:
        on_dispatch(day, prob, res)
    return res


def _dispatch_day(fc, act, hub, mode, engine, day, on_dispatch) -> float:
    if mode == "joint":
        res = _solve_stage(build_joint(fc, act, hub), engine, day,
                           "joint dispatch", on_dispatch)
        return float(res.objective)
    da = build_day_ahead(fc, hub)
    res_da = _solve_stage(da, engine, day, "day-ahead commitment",
                          on_dispatch)
    res_id = _solve_stage(build_intra_day(da, res_da, act), engine, day,
                          "intra-day recourse", on_dispatch)
    # the recourse objective carries the commitment cost as its constant
    return float(res_id.objective)


def evaluate_cost(models, dataset: DayDataset, hub: HubConfig,
                  mode: str = "sequential", engine: str = "highs",
                  on_dispatch=None) -> float:
    """Total scheduling cost over the dataset's forecastable days, kCNY.

    Day d is priced with forecasts from day d-1's loads, so the first day
    only provides features. ``models`` is a per-sector mapping or the
    ORACLE_FORECASTS sentinel (forecasts identical to actuals).
    """
    if mode not in ("joint", "sequential"):
        raise ValuationError(f"unknown mode {mode!r}")
    _check_models(models)
    total = 0.0
    for d in range(1, dataset.days):
        act = dataset.loads[d]
        if models is ORACLE_FORECASTS:
            fc = act
        else:
            fc, _ = _forecast_day(models, dataset.loads[d - 1],
                                  int(dataset.dows[d - 1]))
        total += _dispatch_day(fc, act, hub, mode, engine, d, on_dispatch)
    return total / 1000.0


def sector_metrics(models, dataset: DayDataset) -> dict:
    """Pooled per-sector forecast metrics (MAE kW, RMSE kW, MAPE %)."""
    _check_models(models)
    if dataset.days < 2:
        raise ValuationError("need at least two days to score forecasts")
    fc_parts = []
    for d in range(1, dataset.days):
        if models is ORACLE_FORECASTS:
            fc_parts.append(dataset.loads[d])
        else:
            fc_parts.append(_forecast_day(models, dataset.loads[d - 1],
                                          int(dataset.dows[d - 1]))[0])
    fc = np.stack(fc_parts)                  # (days-1, 3, 24)
    act = dataset.loads[1:]
    return {sector: forecast_metrics(fc[:, i, :], act[:, i, :])
            for i, sector in enumerate(SECTORS)}


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def train_base_models(train: DayDataset, config: ExperimentConfig) -> tuple:
    """Per-sector benchmark forecasters on squared error and their
    per-epoch loss traces, each sector seeded from the config seed."""
    seeds = fan_out(config.seed).sectors
    models, traces = {}, {}
    for i, sector in enumerate(SECTORS):
        models[sector], traces[sector] = train_mse(
            train.loads[:, i, :], train.dows, config.training, seed=seeds[i])
    return models, traces


def train_end_to_end(U, models: Mapping, dataset: DayDataset,
                     hub: HubConfig, training, mode: str = "sequential",
                     engine: str = "highs", on_dispatch=None,
                     start_cost=None) -> dict:
    """Fine-tune coalition members' forecasters with scheduling-cost slopes.

    Every training day solves the joint problem once and takes the cost
    gradient with respect to the forecast slots; only sectors in ``U``
    step, each from the input window its forecast read. The returned
    parameters are the best epoch by training-split cost, the untrained
    starting point included, so the result never prices worse than the
    benchmark on that split.

    A training day whose joint solve is not optimal (an overshooting step
    can push forecasts beyond what the hub can commit to) is logged and
    skipped rather than fatal, and an epoch whose model cannot be
    dispatched at all scores an infinite cost so the snapshot rule never
    picks it. The starting point's own evaluation stays strict: broken
    data raises before any training happens. A caller that has already
    priced ``models`` on ``dataset`` passes that cost as ``start_cost``
    and the starting point is not priced again.
    """
    U = frozenset(U)
    unknown = U - set(LETTERS)
    if unknown:
        raise ValuationError(f"unknown sectors in coalition: "
                             f"{sorted(unknown)}")
    _check_models(models)
    current = dict(models)
    if not U or training.e2e_epochs == 0:
        return current
    members = [(i, sector) for i, sector in enumerate(SECTORS)
               if _letter(sector) in U]
    horizon = hub.horizon

    best = dict(current)
    if start_cost is None:
        best_cost = evaluate_cost(current, dataset, hub, mode, engine,
                                  on_dispatch)
    else:
        best_cost = start_cost
    for epoch in range(training.e2e_epochs):
        for d in range(1, dataset.days):
            prev = dataset.loads[d - 1]
            dow = int(dataset.dows[d - 1])
            act = dataset.loads[d]
            fc, windows = _forecast_day(current, prev, dow)
            prob = build_joint(fc, act, hub)
            res, grad = embedded_gradient(prob.milp, prob.M0, engine=engine,
                                          round_repair=storage_repair(prob))
            if res.status != "optimal":
                log.warning("day %d: joint dispatch is %s during coalition "
                            "training, update skipped", d, res.status)
                continue
            if on_dispatch is not None:
                on_dispatch(d, prob, res)
            slope = grad.dcost_dM[:len(SECTORS) * horizon]
            slope = slope.reshape(len(SECTORS), horizon)
            for i, sector in members:
                current[sector] = apply_external_gradient(
                    current[sector], slope[i], windows[i], training.e2e_lr)
        try:
            cost = evaluate_cost(current, dataset, hub, mode, engine,
                                 on_dispatch)
        except ValuationError as exc:
            log.warning("epoch %d model cannot be dispatched (%s), "
                        "not snapshotted", epoch, exc)
            cost = np.inf
        if cost < best_cost:
            best_cost = cost
            best = dict(current)
    return best


def _letter(sector: str) -> str:
    return LETTERS[SECTORS.index(sector)]


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValuationReport:
    ledger: CoalitionLedger
    allocation: Allocation


def full_valuation(dataset: DayDataset, config: ExperimentConfig,
                   hub: Optional[HubConfig] = None,
                   on_dispatch=None) -> ValuationReport:
    """Benchmark training, all 2^n coalition runs, ledger, allocation."""
    if hub is None:
        hub = load_hub_config(config.hub_path())
    train, test = split_dataset(dataset, config)
    base, _ = train_base_models(train, config)

    costs = {}
    base_train_cost = None    # every coalition starts from the same models
    for U in subsets_in_order(LETTERS):
        if U and config.training.e2e_epochs > 0 and base_train_cost is None:
            base_train_cost = evaluate_cost(base, train, hub, config.mode,
                                            config.engine, on_dispatch)
        models_U = train_end_to_end(U, base, train, hub, config.training,
                                    mode=config.mode, engine=config.engine,
                                    on_dispatch=on_dispatch,
                                    start_cost=base_train_cost)
        costs[U] = evaluate_cost(models_U, test, hub, config.mode,
                                 config.engine, on_dispatch)
        log.info("coalition %s: test cost %.4f kCNY",
                 coalition_label(U), costs[U])

    ledger = CoalitionLedger(sectors=LETTERS, costs=costs)
    raw = zero_shapley(ledger.values(), LETTERS)
    allocation = normalize_allocation(raw,
                                      ledger.value(frozenset(LETTERS)),
                                      LETTERS)
    return ValuationReport(ledger=ledger, allocation=allocation)


# ---------------------------------------------------------------------------
# report rows
# ---------------------------------------------------------------------------

def ledger_rows(ledger: CoalitionLedger) -> list:
    """(label, cost kCNY, value kCNY) per coalition, smallest first."""
    return [(coalition_label(U), float(ledger.costs[U]), ledger.value(U))
            for U in subsets_in_order(ledger.sectors)]


def allocation_rows(allocation: Allocation) -> list:
    """(sector letter, raw value, payout) per sector."""
    return [(s, allocation.raw[i], allocation.payouts[i])
            for i, s in enumerate(allocation.sectors)]
