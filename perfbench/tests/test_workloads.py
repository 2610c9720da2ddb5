"""Failure accounting, output checks and tracing transparency, on small
sizes of the benchmark's workloads."""

import json
from pathlib import Path

import pytest

import harness
import workloads
from mesval.config import ExperimentConfig, dataset_from_config
from mesval.valuation import DispatchInfeasible
from tracing import Tracer
from workloads import Audit, FtoShowcase, Gradcheck, TrainBase, Valuate

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.fixture(autouse=True)
def build_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "BUILD_DIR", tmp_path)
    return tmp_path


def test_an_infeasible_day_is_counted_and_the_unit_goes_on(monkeypatch):
    test = dataset_from_config(ExperimentConfig(seed=0, train_days=2,
                                                test_days=3))
    priced = []

    def evaluate(models, split, hub, mode, engine, on_dispatch):
        day = len(priced) + 1
        priced.append(day)
        if day == 2:
            raise DispatchInfeasible("day 1: day-ahead commitment is "
                                     "infeasible")
        return 10.0 * day

    monkeypatch.setattr(workloads.valuation, "evaluate_cost", evaluate)
    out = workloads.price_days({}, test, None, Audit(), range(1, 5))
    assert priced == [1, 2, 3, 4]
    assert (out.ops, out.failed) == (4, 1)
    assert out.outputs == {"cost[day 1]": 10.0, "cost[day 2]": None,
                           "cost[day 3]": 30.0, "cost[day 4]": 40.0}

    unit = harness.Unit("unit0", 1.0, out, Audit())
    reference = {"outputs": dict(out.outputs)}
    checked = harness.check(FtoShowcase(), 0, [unit], reference)
    # four days, four outputs against the reference, one between-run check
    assert (checked.attempted, checked.failed) == (9, 1)
    assert checked.problems == []


def test_a_wrong_answer_is_a_failure():
    out = workloads.Outcome(outputs={"final_mse[electricity]": 0.25},
                            ops=1)
    unit = harness.Unit("unit0", 1.0, out, Audit())
    reference = {"outputs": {"final_mse[electricity]": 0.5}}
    checked = harness.check(TrainBase(), 0, [unit], reference)
    assert checked.failed == 1
    assert checked.problems == ["final_mse[electricity]: got 0.25, "
                                "reference 0.5"]


def test_drift_between_units_and_runs_is_a_determinism_failure():
    def unit(run, value):
        out = workloads.Outcome(outputs={"x": value}, ops=1)
        return harness.Unit(run, 1.0, out, Audit())

    checked = harness.check(TrainBase(), 7, [unit("unit0", 1.0),
                                             unit("unit1", 1.0 + 1e-15)],
                            None)
    assert checked.failed == 1
    assert checked.problems[0].startswith("determinism (unit1 vs unit0)")

    again = harness.check(TrainBase(), 7, [unit("unit0", 2.0)], None)
    assert (again.attempted, again.failed) == (2, 1)
    assert again.problems == ["determinism (against an earlier run): "
                              "x: got 2.0, reference 1.0"]


def _traced_unit(run, fold_calls):
    layers = dict.fromkeys(harness.EXACT_TRACED, 0)
    layers["lp.fold_calls"] = fold_calls
    out = workloads.Outcome(outputs={"x": 1.0}, ops=1)
    return harness.Unit(run, 1.0, out, Audit(), layers)


def test_traced_counters_drift_within_a_run_is_a_failure():
    untraced = harness.Unit("untraced0", 1.0,
                            workloads.Outcome(outputs={"x": 1.0}, ops=1),
                            Audit())
    units = [untraced, _traced_unit("unit1", 40),
             harness.Unit("untraced2", 1.0,
                          workloads.Outcome(outputs={"x": 1.0}, ops=1),
                          Audit()),
             _traced_unit("unit3", 41)]
    checked = harness.check(TrainBase(), 7, units, None)
    assert checked.failed == 1
    assert checked.problems == ["determinism (unit3 vs unit1): "
                                "lp.fold_calls: got 41, reference 40"]


def test_a_site_the_program_no_longer_has_fails_a_traced_run():
    tracer = Tracer()
    tracer.broken["mesval.valuation.build_joint"] = "not found in the program"
    checked = harness.check(TrainBase(), 7, [_traced_unit("unit0", 40)],
                            None, tracer)
    assert checked.failed == 1
    assert checked.attempted == 1 + 1 + len(harness.SITES)
    assert checked.problems == ["traced site mesval.valuation.build_joint: "
                                "not found in the program"]


SMALL = [
    Valuate(train_days=3, test_days=2, mse_epochs=2, e2e_epochs=1),
    FtoShowcase(train_days=3, first_day=1, last_day=2, mse_epochs=2),
    TrainBase(train_days=3, mse_epochs=2),
    Gradcheck(),
]


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_tracing_is_transparent(workload):
    tracer = Tracer()
    _, units = harness.measure(workload, 0, 0.0, tracer)
    untraced, traced = units
    assert untraced.layers is None and traced.layers is not None
    assert untraced.outcome == traced.outcome
    assert untraced.audit.counters() == traced.audit.counters()
    if workload.name != "gradcheck":      # every search there is audited
        assert traced.layers["bnb.searches"] == untraced.audit.dispatches
    checked = harness.check(workload, 0, units, None, tracer)
    assert checked.problems == []
    assert checked.failed == 0

    m = traced.layers
    layer_self = sum(m[f"{layer}.self_s"] for layer in harness.LAYERS)
    assert layer_self + m["trace.unwrapped_s"] == pytest.approx(
        traced.wall_s, abs=1e-9)
    assert 0.0 <= m["trace.unwrapped_s"] < 0.05 * traced.wall_s


def test_benchmark_json_names_what_the_harness_reports():
    import run
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    for key, table in (("end_to_end", harness.END_TO_END),
                       ("per_layer", harness.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] \
            == list(table)
