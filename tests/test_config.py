"""Tests for experiment configuration loading and seed fan-out."""

import numpy as np
import pytest

from mesval.config import (
    ConfigError,
    ExperimentConfig,
    dataset_from_config,
    experiment_config_from_dict,
    fan_out,
    load_experiment_config,
    split_dataset,
)
from mesval.data import synth_data, write_series_csv, DayDataset


def test_defaults_and_yaml_roundtrip(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(
        "seed: 11\n"
        "train_days: 6\n"
        "test_days: 3\n"
        "mode: joint\n"
        "training:\n"
        "  hidden_size: 8\n"
        "  e2e_epochs: 2\n")
    cfg = load_experiment_config(path)
    assert cfg.seed == 11
    assert cfg.mode == "joint" and cfg.engine == "highs"
    assert cfg.train_days == 6 and cfg.test_days == 3
    assert cfg.training.hidden_size == 8
    assert cfg.training.e2e_epochs == 2
    assert cfg.training.lr == 1e-3          # untouched defaults
    assert cfg.hub_path().exists()          # shipped hub resolves
    assert cfg.output_dir.is_absolute()



def test_exponent_floats_without_a_dot_read_as_floats(tmp_path):
    # YAML 1.1 reads 1e-3 as a string; configs take the YAML 1.2 float
    path = tmp_path / "exp.yaml"
    path.write_text("seed: 1\ntraining: {lr: 1e-3, e2e_lr: 5E-4}\n")
    cfg = load_experiment_config(path)
    assert type(cfg.training.lr) is float and cfg.training.lr == 1e-3
    assert type(cfg.training.e2e_lr) is float and cfg.training.e2e_lr == 5e-4

def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config"):
        experiment_config_from_dict({"seed": 1, "wat": 2})
    with pytest.raises(ConfigError, match="unknown training"):
        experiment_config_from_dict({"seed": 1, "training": {"depth": 3}})


def test_seed_required_and_mode_validated():
    with pytest.raises(ConfigError, match="seed"):
        experiment_config_from_dict({})
    with pytest.raises(ConfigError, match="mode"):
        experiment_config_from_dict({"seed": 1, "mode": "both"})
    with pytest.raises(ConfigError, match="engine"):
        experiment_config_from_dict({"seed": 1, "engine": "simplex9000"})
    with pytest.raises(ConfigError, match="train_days"):
        experiment_config_from_dict({"seed": 1, "train_days": 1})


@pytest.mark.parametrize("key, value", [
    ("hub", [1]),
    ("output_dir", [1]),
    ("data_csv", 5),
    ("seed", 1.9),
    ("train_days", 5.7),
    ("test_days", True),
])
def test_config_value_of_the_wrong_type_names_the_key(key, value):
    # a path must be a string and a count an int, never truncated
    with pytest.raises(ConfigError, match=key):
        experiment_config_from_dict({"seed": 1, key: value})


def test_negative_seed_names_the_key():
    # numpy's seed sequence takes no negative seed
    with pytest.raises(ConfigError, match="seed"):
        experiment_config_from_dict({"seed": -1})
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig(seed=-1)


def test_fan_out_deterministic_and_distinct():
    a = fan_out(123)
    b = fan_out(123)
    c = fan_out(124)
    assert a == b
    assert a != c
    seeds = {a.synth, *a.sectors}
    assert len(seeds) == 4


def test_dataset_from_config_synth_route():
    cfg = experiment_config_from_dict(
        {"seed": 5, "train_days": 4, "test_days": 2})
    ds1 = dataset_from_config(cfg)
    ds2 = dataset_from_config(cfg)
    assert ds1.days == 6
    np.testing.assert_array_equal(ds1.loads, ds2.loads)


def test_dataset_from_config_csv_route(tmp_path):
    series = synth_data(seed=2, days=5)
    csv_path = tmp_path / "loads.csv"
    write_series_csv(series, csv_path)
    conf_path = tmp_path / "exp.yaml"
    conf_path.write_text(
        "seed: 3\ndata_csv: loads.csv\ntrain_days: 3\ntest_days: 2\n")
    cfg = load_experiment_config(conf_path)
    ds = dataset_from_config(cfg)
    assert ds.days == 5
    np.testing.assert_allclose(ds.loads[0, 0], series.loads[0, :24],
                               atol=1e-9)


def test_split_has_one_day_overlap():
    cfg = experiment_config_from_dict(
        {"seed": 5, "train_days": 4, "test_days": 2})
    ds = dataset_from_config(cfg)
    train, test = split_dataset(ds, cfg)
    assert train.days == 4 and test.days == 3
    np.testing.assert_array_equal(train.loads[-1], test.loads[0])


def test_split_rejects_short_dataset():
    cfg = experiment_config_from_dict(
        {"seed": 5, "train_days": 4, "test_days": 2})
    short = DayDataset(loads=np.ones((5, 3, 24)), dows=np.zeros(5, dtype=int))
    with pytest.raises(ConfigError, match="5 days"):
        split_dataset(short, cfg)


@pytest.mark.parametrize("text, match", [
    ("", "seed"),                       # an empty file holds no seed
    ("- seed: 1\n", "mapping"),
    ("seed: [1\n", "YAML"),
], ids=["empty", "list", "bad-yaml"])
def test_unusable_config_files_raise_config_error(tmp_path, text, match):
    path = tmp_path / "exp.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=match) as info:
        load_experiment_config(path)
    assert text == "" or "exp.yaml" in str(info.value)


def test_unreadable_config_file_names_the_file(tmp_path):
    with pytest.raises(ConfigError, match="absent.yaml"):
        load_experiment_config(tmp_path / "absent.yaml")
