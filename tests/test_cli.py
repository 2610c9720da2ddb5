"""Tests for the command-line harness.

Everything runs in process through ``main`` so exit codes and artifacts
are asserted directly. The experiment fixtures use a small single-bus
hub whose dispatches solve in milliseconds.
"""

import copy
import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import mesval
from mesval.bnb import NodeLimitError
from mesval.cli import main
from mesval.config import fan_out
from mesval.data import LoadSeries, load_series_csv, synth_data, \
    write_series_csv
from mesval.lp import LPNumericalError
from mesval.lstm import TrainingConfig, load_model, train_mse

FLAT_HUB = {
    "schema_version": 1,
    "name": "cli-toy",
    "inputs": [
        {"name": "grid", "carrier": "electricity", "capacity_kw": 8000.0,
         "reserve_up_kw": 2500.0, "reserve_down_kw": 2500.0},
        {"name": "gas_supply", "carrier": "gas", "capacity_kw": 8000.0,
         "reserve_up_kw": 3000.0, "reserve_down_kw": 3000.0},
    ],
    "outputs": [{"name": "elec_load", "sector": "electricity"},
                {"name": "heat_load", "sector": "heat"},
                {"name": "cool_load", "sector": "cooling"}],
    "nodes": [{"name": "elec_bus", "carrier": "electricity"}],
    "converters": [
        {"name": "boiler", "kind": "gas_boiler", "capacity_kw": 4000.0,
         "efficiency_curve": [[0.0, 0.9], [1.0, 0.9]]},
        {"name": "fridge", "kind": "electric_refrigerator",
         "capacity_kw": 2000.0,
         "efficiency_curve": [[0.0, 1.4], [1.0, 1.4]]},
    ],
    "storages": [],
    "branches": [
        {"name": "gas_feed", "from": "gas_supply", "to": "boiler",
         "carrier": "gas"},
        {"name": "heat_out", "from": "boiler", "to": "heat_load",
         "carrier": "heat"},
        {"name": "grid_draw", "from": "grid", "to": "elec_bus",
         "carrier": "electricity"},
        {"name": "elec_out", "from": "elec_bus", "to": "elec_load",
         "carrier": "electricity"},
        {"name": "fridge_feed", "from": "elec_bus", "to": "fridge",
         "carrier": "electricity"},
        {"name": "cool_out", "from": "fridge", "to": "cool_load",
         "carrier": "cooling"},
    ],
    "prices": {
        "refund_fraction": 0.7,
        "electricity": {"day_ahead": 0.5, "intra_day": 0.75},
        "gas": {"day_ahead": 0.4, "intra_day": 0.6},
    },
    "temporary_purchase_kw": 4000.0,
}


@pytest.fixture()
def workdir(tmp_path):
    hub_path = tmp_path / "hub.yaml"
    hub_path.write_text(yaml.safe_dump(FLAT_HUB))
    config = {
        "seed": 7,
        "hub": str(hub_path),
        "train_days": 3,
        "test_days": 2,
        "mode": "sequential",
        "engine": "highs",
        "output_dir": str(tmp_path / "out"),
        "training": {"hidden_size": 4, "mse_epochs": 6, "e2e_epochs": 1,
                     "e2e_lr": 1.0e-7},
    }
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(config))
    return tmp_path, config_path


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_writes_reproducible_csv(tmp_path):
    out = tmp_path / "s"
    assert main(["synth", "--seed", "3", "--days", "3",
                 "--out", str(out)]) == 0
    csv_path = out / "synthetic_loads.csv"
    series = load_series_csv(csv_path)
    assert series.loads.shape == (3, 72)
    first = csv_path.read_bytes()
    assert main(["synth", "--seed", "3", "--days", "3",
                 "--out", str(out)]) == 0
    assert csv_path.read_bytes() == first
    assert (out / "synth_summary.txt").exists()


def test_synth_rejects_zero_days(tmp_path):
    assert main(["synth", "--days", "0",
                 "--out", str(tmp_path / "x")]) == 1


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

def test_usage_exit_codes(tmp_path):
    assert main(["not-a-command"]) == 1
    assert main([]) == 1
    assert main(["--help"]) == 0
    assert main(["run-fto", "--config", str(tmp_path / "missing.yaml")]) == 1
    assert main(["train-e2e", "--coalition", "zz",
                 "--config", str(tmp_path / "missing.yaml")]) == 1


def test_missing_hub_file_is_usage_error(workdir, capsys):
    tmp, config = workdir
    missing = tmp / "absent_hub.yaml"
    assert main(["run-fto", "--config", str(config),
                 "--hub", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("hub: ") and "absent_hub.yaml" in err


def test_misspelled_hub_key_is_usage_error(workdir, capsys):
    tmp, config = workdir
    hub = copy.deepcopy(FLAT_HUB)
    hub["inputs"][0]["capacty_kw"] = hub["inputs"][0].pop("capacity_kw")
    path = tmp / "typo_hub.yaml"
    path.write_text(yaml.safe_dump(hub))
    assert main(["run-fto", "--config", str(config),
                 "--hub", str(path)]) == 1
    err = capsys.readouterr().err
    assert "typo_hub.yaml" in err and "capacty_kw" in err


def test_hub_value_of_the_wrong_type_is_usage_error(workdir, capsys):
    # a non-numeric price is a hub error, reported without a traceback
    tmp, config = workdir
    hub = copy.deepcopy(FLAT_HUB)
    hub["prices"]["gas"]["day_ahead"] = "cheap"
    path = tmp / "typed_hub.yaml"
    path.write_text(yaml.safe_dump(hub))
    assert main(["run-fto", "--config", str(config),
                 "--hub", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("hub: ") and "typed_hub.yaml" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("route", ["flag", "config", "synth"])
def test_negative_seed_is_usage_error(tmp_path, capsys, route):
    out = ["--out", str(tmp_path / "out")]
    argv = {"flag": ["train-base", "--seed", "-1", "--train-days", "2",
                     "--test-days", "1", *out],
            "config": ["train-base", "--config", str(tmp_path / "c.yaml"),
                       *out],
            "synth": ["synth", "--seed", "-1", "--days", "2", *out]}[route]
    (tmp_path / "c.yaml").write_text("seed: -1\ntrain_days: 2\n"
                                     "test_days: 1\n")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config: ") and "seed" in err
    assert "Traceback" not in err


def test_list_valued_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "listed.yaml"
    path.write_text("- seed: 1\n- train_days: 3\n")
    assert main(["train-base", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config: ") and "listed.yaml" in err


def test_empty_config_reads_as_defaults_under_the_flags(tmp_path, capsys):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    # the flags layer over the empty mapping before validation
    assert main(["train-base", "--config", str(path),
                 "--train-days", "1"]) == 1
    assert "train_days" in capsys.readouterr().err
    # with a valid split the run takes the default seed 0 and training
    assert main(["train-base", "--config", str(path), "--train-days", "2",
                 "--test-days", "1", "--out", str(tmp_path / "out")]) == 0
    trace = read_rows(tmp_path / "out" / "training_trace.csv")
    assert len(trace) == 1 + 3 * TrainingConfig().mse_epochs
    assert load_model(tmp_path / "out" / "model_base_heat.npz").seed == \
        fan_out(0).sectors[1]


@pytest.mark.parametrize("field,value", [
    ("window", 30),             # longer than the 24 hours of a day
    ("mse_epochs", "ten"),
    ("mse_epochs", 2.5),
    ("mse_epochs", True),
    ("hidden_size", 4.5),
])
def test_bad_training_value_is_usage_error(workdir, capsys, field, value):
    tmp, config = workdir
    raw = yaml.safe_load(config.read_text())
    raw["training"][field] = value
    # the data file is absent, so reading the data would exit 2 instead
    raw["data_csv"] = str(tmp / "absent.csv")
    config.write_text(yaml.safe_dump(raw))
    assert main(["train-base", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config: bad training section: ")
    assert field in err



def test_exponent_floats_without_a_dot_configure_train_base(workdir):
    tmp, config = workdir
    raw = yaml.safe_load(config.read_text())
    del raw["training"]
    config.write_text(yaml.safe_dump(raw) + (
        "training: {hidden_size: 4, mse_epochs: 2, lr: 1e-3, "
        "e2e_lr: 5e-4}\n"))
    assert main(["train-base", "--config", str(config)]) == 0
    assert len(read_rows(tmp / "out" / "training_trace.csv")) == 1 + 3 * 2

def test_bad_coalition_label_is_usage_error(workdir):
    tmp, config = workdir
    assert main(["train-e2e", "--coalition", "xq",
                 "--config", str(config)]) == 1


# ---------------------------------------------------------------------------
# train-base
# ---------------------------------------------------------------------------

def test_train_base_needs_no_hub(workdir):
    # train-base never dispatches, so an absent hub file is no error
    tmp, config = workdir
    assert main(["train-base", "--config", str(config),
                 "--hub", str(tmp / "absent.yaml")]) == 0
    for sector in ("electricity", "heat", "cooling"):
        load_model(tmp / "out" / f"model_base_{sector}.npz")   # written


def test_train_base_artifacts_match_library_training(workdir):
    tmp, config = workdir
    assert main(["train-base", "--config", str(config)]) == 0
    out = tmp / "out"
    trace = read_rows(out / "training_trace.csv")
    assert trace[0] == ["sector", "epoch", "mse"]
    assert len(trace) == 1 + 3 * 6          # three sectors, six epochs

    # the saved models are exactly what the library trains for this seed
    ds = synth_data(seed=fan_out(7).synth, days=5)
    from mesval.data import DayDataset
    days = DayDataset.from_series(ds).slice(0, 3)
    training = TrainingConfig(hidden_size=4, mse_epochs=6, e2e_epochs=1,
                              e2e_lr=1e-7)
    want, _ = train_mse(days.loads[:, 0, :], days.dows, training,
                        seed=fan_out(7).sectors[0])
    got = load_model(out / "model_base_electricity.npz")
    assert np.array_equal(got.params.W_out, want.params.W_out)
    assert got.norm == want.norm


# ---------------------------------------------------------------------------
# run-fto
# ---------------------------------------------------------------------------

def test_run_fto_monthly_report_conserves_total(workdir):
    tmp, config = workdir
    assert main(["run-fto", "--config", str(config)]) == 0
    out = tmp / "out"
    rows = read_rows(out / "fto_monthly_costs.csv")
    assert rows[0] == ["month", "priced_days", "cost_kcny"]
    months = rows[1:]
    assert sum(int(r[1]) for r in months) == 2
    total_from_months = sum(float(r[2]) for r in months)
    summary = (out / "fto_summary.txt").read_text()
    line = [l for l in summary.splitlines() if l.startswith("total cost")][0]
    total = float(line.split(":")[1].split()[0])
    assert total_from_months == pytest.approx(total, abs=1e-6)
    assert total > 0.0


def test_run_fto_synthesizes_the_series_once(workdir, monkeypatch):
    tmp, config = workdir
    calls = []

    def counted(**kwargs):
        calls.append(kwargs)
        return synth_data(**kwargs)

    monkeypatch.setattr("mesval.config.synth_data", counted)
    assert main(["run-fto", "--config", str(config)]) == 0
    assert calls == [{"seed": fan_out(7).synth, "days": 5}]


def test_run_fto_is_byte_reproducible(workdir):
    tmp, config = workdir
    assert main(["run-fto", "--config", str(config)]) == 0
    path = tmp / "out" / "fto_monthly_costs.csv"
    first = path.read_bytes()
    assert main(["run-fto", "--config", str(config)]) == 0
    assert path.read_bytes() == first


def test_seed_override_changes_the_data(workdir):
    tmp, config = workdir
    assert main(["run-fto", "--config", str(config),
                 "--out", str(tmp / "a")]) == 0
    assert main(["run-fto", "--config", str(config), "--seed", "8",
                 "--out", str(tmp / "b")]) == 0
    a = (tmp / "a" / "fto_monthly_costs.csv").read_bytes()
    b = (tmp / "b" / "fto_monthly_costs.csv").read_bytes()
    assert a != b


# ---------------------------------------------------------------------------
# valuate and composability
# ---------------------------------------------------------------------------

def test_valuate_ledger_allocation_and_composability(workdir):
    tmp, config = workdir
    assert main(["run-fto", "--config", str(config)]) == 0
    assert main(["train-e2e", "--coalition", "eh",
                 "--config", str(config)]) == 0
    assert main(["valuate", "--config", str(config)]) == 0
    out = tmp / "out"

    ledger = read_rows(out / "valuation_ledger.csv")
    assert ledger[0] == ["coalition", "cost_kcny", "value_kcny"]
    labels = [r[0] for r in ledger[1:]]
    assert labels == ["none", "e", "h", "c", "eh", "ec", "hc", "ehc"]
    by_label = {r[0]: r for r in ledger[1:]}

    # standalone valuate equals the composed subcommands, byte for byte
    summary = (out / "fto_summary.txt").read_text()
    line = [l for l in summary.splitlines() if l.startswith("total cost")][0]
    fto_total = line.split(":")[1].split()[0]
    assert by_label["none"][1] == fto_total

    e2e = read_rows(out / "e2e_eh_costs.csv")
    test_e2e = [r for r in e2e[1:] if r[0] == "test" and r[1] == "end-to-end"]
    assert by_label["eh"][1] == test_e2e[0][2]

    alloc = read_rows(out / "valuation_allocation.csv")
    assert [r[0] for r in alloc[1:]] == ["e", "h", "c"]
    payouts = [float(r[2]) for r in alloc[1:]]
    assert all(p >= 0.0 for p in payouts)
    v_total = float(by_label["ehc"][2])
    raws = [float(r[1]) for r in alloc[1:]]
    if v_total > 0.0 and sum(raws) > 0.0:
        assert sum(payouts) == pytest.approx(v_total, abs=1e-9)
    else:
        assert payouts == [0.0, 0.0, 0.0]

    # value column restates the cost column against the baseline; the CSV
    # rounds to 1e-6 kCNY, so the cross-check carries two half-ulps
    base_cost = float(by_label["none"][1])
    for label in labels:
        assert float(by_label[label][2]) == pytest.approx(
            base_cost - float(by_label[label][1]), abs=1.1e-6)


def test_valuate_is_byte_reproducible(workdir):
    tmp, config = workdir
    assert main(["valuate", "--config", str(config)]) == 0
    led = tmp / "out" / "valuation_ledger.csv"
    alloc = tmp / "out" / "valuation_allocation.csv"
    first = led.read_bytes(), alloc.read_bytes()
    assert main(["valuate", "--config", str(config)]) == 0
    assert (led.read_bytes(), alloc.read_bytes()) == first


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_metrics_reports_both_model_families(workdir):
    tmp, config = workdir
    assert main(["metrics", "--config", str(config)]) == 0
    rows = read_rows(tmp / "out" / "sector_metrics.csv")
    assert rows[0] == ["model", "sector", "mae_kw", "rmse_kw", "mape_pct"]
    assert len(rows) == 7
    models = {r[0] for r in rows[1:]}
    assert models == {"benchmark", "end-to-end"}
    for r in rows[1:]:
        mae, rmse, mape = float(r[2]), float(r[3]), float(r[4])
        assert mae > 0.0 and rmse >= mae and mape > 0.0


# ---------------------------------------------------------------------------
# failure exit codes
# ---------------------------------------------------------------------------

def test_missing_data_file_is_data_error(workdir):
    tmp, config = workdir
    assert main(["run-fto", "--config", str(config),
                 "--data", str(tmp / "absent.csv")]) == 2


def test_negative_load_is_data_error(workdir):
    tmp, config = workdir
    series = synth_data(seed=4, days=5)
    bad = tmp / "bad.csv"
    write_series_csv(series, bad)
    lines = bad.read_text().splitlines()
    parts = lines[30].split(",")
    parts[2] = "-5.0"
    lines[30] = ",".join(parts)
    bad.write_text("\n".join(lines) + "\n")
    assert main(["run-fto", "--config", str(config),
                 "--data", str(bad)]) == 2


def test_unservable_day_is_infeasibility_error(workdir):
    tmp, config = workdir
    series = synth_data(seed=11, days=5)
    loads = series.loads.copy()
    loads[0, 96:120] += 20000.0       # far beyond reserve + temp purchases
    spiked = tmp / "spiked.csv"
    write_series_csv(LoadSeries(timestamps=series.timestamps, loads=loads,
                                source="file"), spiked)
    assert main(["run-fto", "--config", str(config),
                 "--data", str(spiked)]) == 3


@pytest.mark.parametrize("error", [
    NodeLimitError("node budget 100000 exhausted"),
    LPNumericalError("HiGHS did not solve the LP: model status kSolveError"),
], ids=["node-limit", "lp-numerical"])
def test_solver_failure_is_exit_3(workdir, monkeypatch, capsys, error):
    tmp, config = workdir

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr("mesval.valuation.branch_and_bound", fail)
    assert main(["run-fto", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    module = type(error).__module__.rsplit(".", 1)[-1]
    assert err.strip() == f"{module}: {error}"


def test_highs_stopping_short_is_exit_3(workdir, monkeypatch, capsys):
    # a real solver that stops at an iteration limit, not a mocked error
    from mesval import lp

    tmp, config = workdir
    monkeypatch.setattr(lp, "_HIGHS", None)
    highs, _ = lp._highs()
    highs.setOptionValue("presolve", "off")
    highs.setOptionValue("simplex_iteration_limit", 0)
    assert main(["run-fto", "--config", str(config)]) == 3
    assert capsys.readouterr().err.strip() == (
        "lp: HiGHS did not solve the LP: model status kIterationLimit")


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def test_gradcheck_quick_passes(tmp_path):
    out = tmp_path / "gc"
    assert main(["gradcheck", "--quick", "--out", str(out)]) == 0
    rows = read_rows(out / "gradcheck_report.csv")
    assert [r[0] for r in rows[1:]] == [
        "lp-gradient", "milp-optimality", "gradient-equivalence",
        "lstm-bptt"]
    assert all(r[-1] == "PASS" for r in rows[1:])


def test_gradcheck_report_is_byte_reproducible(tmp_path):
    # timings go to the summary only, so the CSV repeats byte for byte
    paths = [tmp_path / name / "gradcheck_report.csv" for name in "ab"]
    for path in paths:
        assert main(["gradcheck", "--quick", "--out", str(path.parent)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------

def test_module_invocation():
    # the child imports the same package as this process, installed or not
    package_root = str(Path(mesval.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "mesval", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "valuate" in proc.stdout
