"""Release gate: one test per numbered acceptance criterion.

Each test prints a single ``criterion NN <name>: PASS`` line (visible with
``-s`` or on failure) and asserts the stated tolerance. The multi-seed
experiment behind criteria 6 to 9 runs once as a module fixture; expect a
few minutes for the full file.
"""

import itertools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from mesval.batteries import (bptt_battery, equivalence_battery,
                              lp_gradient_battery, milp_optimality_battery)
from mesval.bnb import branch_and_bound
from mesval.cli import DispatchMonitor
from mesval.config import (ExperimentConfig, dataset_from_config,
                           split_dataset)
from mesval.dispatch import build_joint, storage_repair
from mesval.hub import SECTORS, load_hub_config
from mesval.valuation import (LETTERS, ORACLE_FORECASTS, evaluate_cost,
                              normalize_allocation, parse_coalition,
                              sector_metrics, subsets_in_order,
                              train_base_models, train_end_to_end,
                              zero_shapley)

# held-out coalition costs and savings from the reference experiment, CNY/1e3
PUBLISHED_COSTS = {
    "ehc": 31294.04, "eh": 31291.83, "ec": 31311.15, "hc": 31403.95,
    "e": 31412.30, "h": 31314.79, "c": 31410.94, "none": 31418.71,
}
PUBLISHED_VALUES = {
    "ehc": 124.66, "eh": 126.87, "ec": 107.56, "hc": 14.76,
    "e": 6.40, "h": 103.92, "c": 7.77, "none": 0.0,
}

SEEDS = tuple(range(10))


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {name}: FAIL")
        raise
    print(f"criterion {num:02d} {name}: PASS")


# ---------------------------------------------------------------------------
# criteria 1-4: numerical batteries on random instances
# ---------------------------------------------------------------------------

def test_criterion_01_lp_gradient_battery():
    with criterion(1, "lp gradients vs finite differences"):
        res = lp_gradient_battery(n_instances=100)
        assert res.passed, res.line()
        assert res.seconds < 30.0, res.line()


def test_criterion_02_milp_optimality_battery():
    with criterion(2, "search matches exhaustive enumeration"):
        res = milp_optimality_battery(n_instances=100)
        assert res.passed, res.line()
        assert res.seconds < 60.0, res.line()


def test_criterion_03_gradient_route_equivalence():
    with criterion(3, "embedded and two-stage gradients agree"):
        res = equivalence_battery(n_instances=50)
        assert res.passed, res.line()
        assert res.worst <= 1e-12, res.line()


def test_criterion_04_lstm_bptt_battery():
    with criterion(4, "backprop through time vs finite differences"):
        res = bptt_battery(n_configs=20)
        assert res.passed, res.line()


# ---------------------------------------------------------------------------
# criterion 5: the published valuation table
# ---------------------------------------------------------------------------

def test_criterion_05_published_valuation():
    with criterion(5, "published coalition values and exact split"):
        costs = {parse_coalition(k): v for k, v in PUBLISHED_COSTS.items()}
        empty = costs[frozenset()]
        for label, expected in PUBLISHED_VALUES.items():
            derived = empty - costs[parse_coalition(label)]
            assert derived == pytest.approx(expected, abs=0.01), label

        values = {parse_coalition(k): v for k, v in PUBLISHED_VALUES.items()}
        raw = zero_shapley(values, LETTERS)

        # brute force with exact rationals, clipped marginals
        frac = {U: Fraction(str(v)) for U, v in values.items()}
        n = len(LETTERS)
        for s in LETTERS:
            others = [t for t in LETTERS if t != s]
            acc = Fraction(0)
            for k in range(n):
                coef = Fraction(1, math.comb(n - 1, k))
                for combo in itertools.combinations(others, k):
                    S = frozenset(combo)
                    marginal = frac[S | {s}] - frac[S]
                    if marginal > 0:
                        acc += coef * marginal
            assert abs(raw[s] - float(acc / n)) <= 1e-12, s

        total = values[frozenset(LETTERS)]
        alloc = normalize_allocation(raw, total, LETTERS)
        assert all(p >= 0.0 for p in alloc.payouts)
        assert sum(alloc.payouts) == total
        assert math.fsum(alloc.payouts) == total


# ---------------------------------------------------------------------------
# criteria 6-9: the multi-seed training experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeedRun:
    seed: int
    base_train: float
    base_test: float
    coop_train: float
    coop_test: float
    ideal_train: float
    ideal_test: float
    base_mape: dict
    coop_mape: dict
    monitor: DispatchMonitor


@dataclass(frozen=True)
class Sweep:
    runs: tuple
    seconds: float
    hub: object


def _run_seed(seed):
    config = ExperimentConfig(seed=seed)
    ds = dataset_from_config(config)
    train, test = split_dataset(ds, config)
    hub = load_hub_config(config.hub_path())
    monitor = DispatchMonitor()

    base, _ = train_base_models(train, config)
    coop = train_end_to_end(frozenset(LETTERS), base, train, hub,
                            config.training, mode=config.mode,
                            on_dispatch=monitor)

    def cost(models, split, mode=config.mode):
        return evaluate_cost(models, split, hub, mode, on_dispatch=monitor)

    base_scores = sector_metrics(base, test)
    coop_scores = sector_metrics(coop, test)
    return SeedRun(
        seed=seed,
        base_train=cost(base, train), base_test=cost(base, test),
        coop_train=cost(coop, train), coop_test=cost(coop, test),
        ideal_train=cost(ORACLE_FORECASTS, train, mode="joint"),
        ideal_test=cost(ORACLE_FORECASTS, test, mode="joint"),
        base_mape={s: base_scores[s][2] for s in SECTORS},
        coop_mape={s: coop_scores[s][2] for s in SECTORS},
        monitor=monitor)


@pytest.fixture(scope="module")
def sweep():
    t0 = time.perf_counter()
    runs = tuple(_run_seed(seed) for seed in SEEDS)
    seconds = time.perf_counter() - t0
    hub = load_hub_config(ExperimentConfig(seed=0).hub_path())
    return Sweep(runs=runs, seconds=seconds, hub=hub)


def test_criterion_06_training_creates_value(sweep):
    with criterion(6, "cooperative training saves money"):
        # the recourse premium the experiment depends on
        for carrier, da in sweep.hub.prices.day_ahead.items():
            np.testing.assert_allclose(sweep.hub.prices.intra_day[carrier],
                                       1.5 * np.asarray(da), rtol=1e-12)
        savings = [r.base_test - r.coop_test for r in sweep.runs]
        assert float(np.median(savings)) > 0.0, savings
        for r in sweep.runs:
            assert r.coop_train <= r.base_train + 1e-12, r.seed
        assert sweep.seconds < 900.0, sweep.seconds


def test_criterion_07_forecast_accuracy_bounded(sweep):
    with criterion(7, "fine-tuning keeps forecasts accurate"):
        for s in SECTORS:
            deltas = [r.coop_mape[s] - r.base_mape[s] for r in sweep.runs]
            assert float(np.median(deltas)) <= 2.0, (s, deltas)


def test_criterion_08_dispatch_invariants(sweep):
    with criterion(8, "every solved dispatch is physical"):
        for r in sweep.runs:
            r.monitor.fail_if_violated()
            assert r.monitor.max_residual <= 1e-7, r.seed
            assert r.monitor.n_solves >= 600, r.seed


def test_criterion_09_perfect_forecast_ideal(sweep):
    with criterion(9, "oracle cost is the unbeatable floor"):
        for r in sweep.runs:
            floor = r.ideal_train - 1e-9
            assert r.base_train >= floor and r.coop_train >= floor, r.seed
            floor = r.ideal_test - 1e-9
            assert r.base_test >= floor and r.coop_test >= floor, r.seed

        # seed 0: the floor really is the sum of per-day joint optima,
        # and a sequential oracle evaluation cannot undercut it either
        config = ExperimentConfig(seed=0)
        ds = dataset_from_config(config)
        _, test = split_dataset(ds, config)
        hub = load_hub_config(config.hub_path())
        total = 0.0
        for d in range(1, test.days):
            act = test.loads[d]
            prob = build_joint(act, act, hub)
            res = branch_and_bound(prob.milp, prob.M0, engine="highs",
                                   round_repair=storage_repair(prob))
            assert res.status == "optimal", d
            total += float(res.objective)
        assert abs(total / 1000.0 - sweep.runs[0].ideal_test) <= 1e-9

        seq_oracle = evaluate_cost(ORACLE_FORECASTS, test, hub,
                                   "sequential", "highs")
        assert seq_oracle >= sweep.runs[0].ideal_test - 1e-9

        # cross-certify one day's optimum with the textbook pivot engine
        prob = build_joint(test.loads[1], test.loads[1], hub)
        res_h = branch_and_bound(prob.milp, prob.M0, engine="highs",
                                 round_repair=storage_repair(prob))
        res_b = branch_and_bound(prob.milp, prob.M0, engine="bland",
                                 round_repair=storage_repair(prob))
        assert res_h.status == "optimal" and res_b.status == "optimal"
        assert abs(res_h.objective - res_b.objective) <= 1e-6


# ---------------------------------------------------------------------------
# criterion 10: allocation axioms on random value maps
# ---------------------------------------------------------------------------

def _random_value_map(rng, n):
    """Superadditive-ish map with a symmetric pair and a dummy sector.

    Coalition value = member weights + pairwise synergies summed in a
    fixed global order, so the dummy's zero terms and the pair swap are
    float-exact, not just approximate.
    """
    sectors = tuple(f"s{i}" for i in range(n))
    a, b, dummy = sectors[0], sectors[1], sectors[-1]
    base = {s: float(rng.uniform(2.0, 10.0)) for s in sectors}
    base[b] = base[a]
    base[dummy] = 0.0
    syn = {}
    for x, y in itertools.combinations(sectors, 2):
        key = frozenset((x, y))
        syn[key] = 0.0 if dummy in key else float(rng.uniform(-1.0, 5.0))
    for f in sectors[2:-1]:
        syn[frozenset((b, f))] = syn[frozenset((a, f))]
    values = {}
    for U in subsets_in_order(sectors):
        members = [s for s in sectors if s in U]
        v = 0.0
        for s in members:
            v += base[s]
        for x, y in itertools.combinations(members, 2):
            v += syn[frozenset((x, y))]
        values[U] = v
    return sectors, (a, b), dummy, values


def test_criterion_10_allocation_axioms():
    with criterion(10, "dummy, symmetry and budget axioms"):
        rng = np.random.default_rng(905)
        for n in (3, 4):
            for _ in range(100):
                sectors, (a, b), dummy, values = _random_value_map(rng, n)
                total = values[frozenset(sectors)]
                assert total > 0.0
                raw = zero_shapley(values, sectors)
                alloc = normalize_allocation(raw, total, sectors)
                pay = dict(zip(alloc.sectors, alloc.payouts))
                assert raw[dummy] == 0.0
                assert pay[dummy] == 0.0
                assert abs(raw[a] - raw[b]) <= 1e-9
                assert abs(pay[a] - pay[b]) <= 1e-9
                assert abs(sum(alloc.payouts) - total) <= 1e-9
                assert all(p >= 0.0 for p in alloc.payouts)
