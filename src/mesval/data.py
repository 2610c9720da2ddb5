"""Hourly load series: CSV ingestion, synthetic generation, day views.

The CSV schema is ``timestamp,electricity_kw,heat_kw,cooling_kw`` with
ISO-8601 hourly timestamps. Gaps are rejected rather than imputed:
valuation compares coalition costs over a fixed day set, so every
coalition must see exactly the same days.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .hub import HORIZON, SECTORS

SCHEMA = ("timestamp", "electricity_kw", "heat_kw", "cooling_kw")
ONE_HOUR = np.timedelta64(1, "h")
SYNTH_START = "2016-01-01"     # first day of every synthetic series


class DataError(ValueError):
    """Malformed series file or an ill-formed series operation."""


@dataclass(frozen=True)
class LoadSeries:
    """Contiguous hourly loads for the three sectors."""

    timestamps: np.ndarray        # datetime64[h], shape (n,)
    loads: np.ndarray             # (3, n) kW, order matches SECTORS
    source: str

    def __post_init__(self):
        ts = self.timestamps
        if ts.ndim != 1 or ts.size == 0:
            raise DataError("series needs at least one timestamped row")
        if self.loads.shape != (len(SECTORS), ts.size):
            raise DataError(f"loads shape {self.loads.shape} does not match "
                            f"{ts.size} timestamps")
        gaps = np.diff(ts) != ONE_HOUR
        if np.any(gaps):
            at = int(np.argmax(gaps))
            raise DataError(f"series is not contiguous hourly after "
                            f"{ts[at]}")
        if not np.all(np.isfinite(self.loads)):
            raise DataError("loads must be finite")
        if np.any(self.loads < 0.0):
            raise DataError("loads must be >= 0")

    @property
    def n_hours(self) -> int:
        return self.timestamps.size

    def day_loads(self) -> np.ndarray:
        """(days, 3, HORIZON) view; needs midnight alignment, whole days."""
        first = self.timestamps[0]
        if (first - first.astype("datetime64[D]")) != np.timedelta64(0, "h"):
            raise DataError(f"series starts at {first}, not at midnight")
        if self.n_hours % HORIZON != 0:
            raise DataError(f"{self.n_hours} hours do not form whole days")
        return self.loads.reshape(len(SECTORS), -1, HORIZON).transpose(1, 0, 2)

    def day_of_week(self) -> np.ndarray:
        """Weekday per whole day, Monday = 0."""
        days = self.day_loads().shape[0]
        dates = self.timestamps[::HORIZON][:days].astype("datetime64[D]")
        # 1970-01-01 was a Thursday
        return (dates.astype(int) + 3) % 7


@dataclass(frozen=True)
class DayDataset:
    """Day-major loads plus weekday labels, the shape valuation consumes."""

    loads: np.ndarray             # (days, 3, HORIZON) kW
    dows: np.ndarray              # (days,) int, Monday = 0

    def __post_init__(self):
        if self.loads.ndim != 3 or self.loads.shape[1] != len(SECTORS) \
                or self.loads.shape[2] != HORIZON:
            raise DataError(f"loads must be (days, 3, {HORIZON}), "
                            f"got {self.loads.shape}")
        if self.dows.shape != (self.loads.shape[0],):
            raise DataError("one weekday label per day required")

    @classmethod
    def from_series(cls, series: LoadSeries) -> "DayDataset":
        return cls(loads=series.day_loads(), dows=series.day_of_week())

    @property
    def days(self) -> int:
        return self.loads.shape[0]

    def slice(self, start: int, stop: int) -> "DayDataset":
        if not 0 <= start < stop <= self.days:
            raise DataError(f"bad day slice [{start}, {stop}) of "
                            f"{self.days} days")
        return DayDataset(loads=self.loads[start:stop],
                          dows=self.dows[start:stop])


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def load_series_csv(path) -> LoadSeries:
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path} is empty") from None
    if tuple(h.strip() for h in header) != SCHEMA:
        raise DataError(f"column header must be {','.join(SCHEMA)}, "
                        f"got {','.join(header)}")
    stamps = []
    values = []
    prev = None
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(SCHEMA):
            raise DataError(f"line {lineno}: expected "
                            f"{len(SCHEMA)} fields, got {len(row)}")
        try:
            ts = np.datetime64(row[0].strip(), "h")
        except ValueError as exc:
            raise DataError(f"line {lineno}: bad timestamp "
                            f"{row[0]!r}") from exc
        if prev is not None:
            if ts <= prev:
                raise DataError(f"line {lineno}: timestamp {ts} is not "
                                f"after {prev}")
            if ts - prev != ONE_HOUR:
                raise DataError(f"line {lineno}: gap in series, missing "
                                f"{prev + ONE_HOUR}")
        prev = ts
        vals = []
        for name, field in zip(SCHEMA[1:], row[1:]):
            try:
                v = float(field)
            except ValueError as exc:
                raise DataError(f"line {lineno}: bad {name} value "
                                f"{field!r}") from exc
            if not np.isfinite(v):
                raise DataError(f"line {lineno}: non-finite {name}")
            if v < 0.0:
                raise DataError(f"line {lineno}: negative {name}")
            vals.append(v)
        stamps.append(ts)
        values.append(vals)
    if not stamps:
        raise DataError(f"{path} holds no data rows")
    return LoadSeries(timestamps=np.array(stamps, dtype="datetime64[h]"),
                      loads=np.array(values, dtype=float).T,
                      source=f"file:{path}")


def write_series_csv(series: LoadSeries, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(SCHEMA)
        minutes = series.timestamps.astype("datetime64[m]")
        for k in range(series.n_hours):
            writer.writerow([str(minutes[k]),
                             f"{series.loads[0, k]:.6f}",
                             f"{series.loads[1, k]:.6f}",
                             f"{series.loads[2, k]:.6f}"])


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def synth_data(seed: int, days: int) -> LoadSeries:
    """Deterministic stand-in series from ``SYNTH_START`` on: daily/weekly
    shapes, seasonal trend (cooling peaks in summer, heat in winter),
    bounded uniform noise.

    Levels are sized to the shipped park hub: all loads stay strictly
    positive and inside converter capacities.
    """
    if days < 1:
        raise DataError("days must be >= 1")
    rng = np.random.default_rng(seed)
    n = days * HORIZON
    first = np.datetime64(SYNTH_START, "h")
    ts = first + np.arange(n) * ONE_HOUR
    hour = np.arange(n) % HORIZON
    dates = ts.astype("datetime64[D]")
    dow = (dates.astype(int) + 3) % 7
    doy = (dates - dates.astype("datetime64[Y]")).astype(int)

    weekend = 1.0 - 0.08 * (dow >= 5)
    season = 2.0 * np.pi * doy / 365.0
    daily = lambda peak: np.cos(2.0 * np.pi * (hour - peak) / HORIZON)

    elec = (2000.0 + 420.0 * daily(14) + 120.0 * np.cos(season)) * weekend \
        + rng.uniform(-50.0, 50.0, n)
    heat = 1250.0 + 330.0 * daily(7) + 430.0 * np.cos(season) \
        + rng.uniform(-40.0, 40.0, n)
    cool = 750.0 + 270.0 * daily(15) - 340.0 * np.cos(season) \
        + rng.uniform(-30.0, 30.0, n)

    loads = np.vstack([elec, heat, cool])
    if np.any(loads <= 0.0):
        raise AssertionError("synthetic envelope left the positive range")
    return LoadSeries(timestamps=ts, loads=loads, source=f"synthetic:{seed}")
