"""Experiment configuration: one YAML file, one seed.

Every random choice in a run derives from the single config seed through
`fan_out`, so two runs of the same config are bit-identical regardless of
which subcommand produced which artifact.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .data import DayDataset, DataError, load_series_csv, synth_data
from .hub import YamlLoader
from .lstm import TrainingConfig

MODES = ("sequential", "joint")
ENGINES = ("highs", "bland")
SHIPPED_HUBS = {"experiment": "hub_experiment.yaml",
                "showcase": "hub_showcase.yaml"}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class SeedPlan:
    """Per-module sub-seeds derived from the config seed."""

    synth: int
    sectors: tuple          # one init/training seed per sector


def fan_out(seed: int) -> SeedPlan:
    state = np.random.SeedSequence(seed).generate_state(4)
    return SeedPlan(synth=int(state[0]),
                    sectors=(int(state[1]), int(state[2]), int(state[3])))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs: hub, data source, split, training, seed."""

    seed: int
    hub: str = "experiment"
    training: TrainingConfig = field(default_factory=TrainingConfig)
    train_days: int = 30
    test_days: int = 10
    data_csv: Optional[Path] = None      # None: synthesize the series
    mode: str = "sequential"
    engine: str = "highs"
    output_dir: Path = Path("out")

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, "
                              f"got {self.mode!r}")
        if self.engine not in ENGINES:
            raise ConfigError(f"engine must be one of {ENGINES}, "
                              f"got {self.engine!r}")
        if self.train_days < 2:
            raise ConfigError("train_days must be >= 2 (the first day only "
                              "provides features)")
        if self.test_days < 1:
            raise ConfigError("test_days must be >= 1")

    def hub_path(self) -> Path:
        name = str(self.hub)
        if name in SHIPPED_HUBS:
            return Path(__file__).parent / "configs" / SHIPPED_HUBS[name]
        return Path(name)

    @property
    def total_days(self) -> int:
        return self.train_days + self.test_days


def read_config_file(path) -> dict:
    """The mapping a YAML config file holds; an empty file holds {}."""
    path = Path(path)
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"),
                        Loader=YamlLoader)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"bad YAML in {path}: {exc}") from exc
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} does not hold a mapping")
    return raw


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    return experiment_config_from_dict(read_config_file(path),
                                       base_dir=path.parent)


def experiment_config_from_dict(raw: dict,
                                base_dir: Path = Path(".")
                                ) -> ExperimentConfig:
    raw = dict(raw)
    known = {"seed", "hub", "training", "train_days", "test_days",
             "data_csv", "mode", "engine", "output_dir"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "seed" not in raw:
        raise ConfigError("config must set a seed")
    # bool is an int subclass, and YAML reads `true` as one
    for key in ("seed", "train_days", "test_days"):
        value = raw.get(key, 0)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
    for key in ("hub", "data_csv", "output_dir"):
        value = raw.get(key, "")
        if not (isinstance(value, str)
                or (key == "data_csv" and value is None)):
            raise ConfigError(f"{key} must be a string, got {value!r}")

    training_raw = raw.pop("training", {})
    if not isinstance(training_raw, dict):
        raise ConfigError("training section must be a mapping")
    t_known = {"lr", "mse_epochs", "e2e_epochs", "e2e_lr", "window",
               "hidden_size"}
    t_unknown = set(training_raw) - t_known
    if t_unknown:
        raise ConfigError(f"unknown training keys: {sorted(t_unknown)}")
    try:
        training = TrainingConfig(**training_raw)
    except ValueError as exc:
        raise ConfigError(f"bad training section: {exc}") from exc

    hub = raw.get("hub", "experiment")
    if hub not in SHIPPED_HUBS:
        hub = str((base_dir / hub).resolve())
    data_csv = raw.get("data_csv")
    if data_csv is not None:
        data_csv = (base_dir / data_csv).resolve()
    out = Path(raw.get("output_dir", "out"))
    if not out.is_absolute():
        out = (base_dir / out).resolve()
    try:
        return ExperimentConfig(
            seed=int(raw["seed"]), hub=hub, training=training,
            train_days=int(raw.get("train_days", 30)),
            test_days=int(raw.get("test_days", 10)),
            data_csv=data_csv, mode=raw.get("mode", "sequential"),
            engine=raw.get("engine", "highs"), output_dir=out)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad config value: {exc}") from exc


def series_from_config(config: ExperimentConfig):
    """The hourly series behind the experiment (file or deterministic synth)."""
    if config.data_csv is not None:
        return load_series_csv(config.data_csv)
    return synth_data(seed=fan_out(config.seed).synth,
                      days=config.total_days)


def dataset_from_config(config: ExperimentConfig) -> DayDataset:
    ds = DayDataset.from_series(series_from_config(config))
    if ds.days < config.total_days:
        raise ConfigError(f"dataset holds {ds.days} days; split needs "
                          f"{config.total_days}")
    return ds


def split_dataset(ds: DayDataset, config: ExperimentConfig):
    """Train/test day split; the test slice starts one day early because
    the first test forecast needs the previous day's loads as features."""
    if ds.days < config.total_days:
        raise ConfigError(f"dataset holds {ds.days} days; split needs "
                          f"{config.total_days}")
    train = ds.slice(0, config.train_days)
    test = ds.slice(config.train_days - 1, config.total_days)
    return train, test
