"""The benchmark's tracer finds every program name it wraps.

``perfbench/tracing.py`` wraps functions at the names their callers bind
(``mesval.dispatch.to_standard_form``, ``mesval.valuation.build_joint``,
...). A name the program drops or renames leaves its site out of a traced
run, and the benchmark counts that as a failed operation; this test makes
the same loss fail here. It only reads ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.broken == {}
    assert tracing.SITES


def test_a_traced_valuation_runs_the_lstm_through_traced_names():
    # the stacked passes are entered through the names the tracer wraps:
    # one train_mse for the three sectors, one forward and one step per
    # training day, and the LSTM work is in their spans
    from collections import Counter

    from mesval import valuation
    from mesval.config import ExperimentConfig, dataset_from_config
    from mesval.hub import load_hub_config
    from mesval.lstm import TrainingConfig

    config = ExperimentConfig(
        seed=0, train_days=3, test_days=2,
        training=TrainingConfig(hidden_size=4, mse_epochs=2, e2e_epochs=1))
    dataset = dataset_from_config(config)
    hub = load_hub_config(config.hub_path())
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.scope("unit"):
        valuation.full_valuation(dataset, config, hub=hub)
    assert tracer.broken == {}
    spans = tracer.run_spans("unit")
    by_id = {s.id: s for s in spans}
    names = Counter(s.name for s in spans)
    training_days = sum(s.name == "bnb.search" and s.parent is not None
                        and by_id[s.parent].name == "valuation.e2e"
                        for s in spans)
    assert training_days == 7 * (config.train_days - 1)
    assert names["lstm.train_mse"] == 1
    assert names["lstm.forward"] == names["lstm.step"] == training_days
    selfs = tracing.self_times(spans)
    assert all(selfs[s.id] > 0.0 for s in spans
               if s.name in ("lstm.train_mse", "lstm.forward", "lstm.step"))
