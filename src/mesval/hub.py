"""Multi-energy hub topology: configuration, incidence matrices, curves.

A hub is described by a small YAML document listing inputs (purchased
carriers), junctions, converters, storages, outputs (one per served
sector), and the directed branches wiring them together.  From that we
derive three matrices over the vector of branch flows V:

    X @ V = purchased input flows        (one row per input)
    Y @ V = delivered output flows       (one row per output)
    Z @ V = 0                            (junction balances, conversion
                                          rows, cogeneration coupling)

Conversion rows in Z use the full-load efficiency; part-load curves are
handled separately through `piecewise_linearize` when the scheduling
problems are built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

SCHEMA_VERSION = 1
HORIZON = 24            # hours per scheduled day, the one day length

SECTORS = ("electricity", "heat", "cooling")
CARRIERS = SECTORS + ("gas",)

# converter kind -> (input carrier, output carriers)
CONVERTER_PORTS = {
    "CHP": ("gas", ("electricity", "heat")),
    "gas_boiler": ("gas", ("heat",)),
    "electric_boiler": ("electricity", ("heat",)),
    "electric_refrigerator": ("electricity", ("cooling",)),
}

MAX_EFFICIENCY = 1.5

_TOP_KEYS = frozenset({"schema_version", "name", "options", "inputs",
                       "outputs", "nodes", "converters", "storages",
                       "branches", "prices", "temporary_purchase_kw"})
_OPTION_KEYS = frozenset({"enforce_price_order", "require_terminal_soc"})
_BRANCH_KEYS = frozenset({"name", "from", "to", "carrier"})
_PRICE_KEYS = frozenset({"day_ahead", "intra_day"})


class HubConfigError(ValueError):
    """Raised when a hub description is malformed or inconsistent."""


class YamlLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that also reads YAML 1.2 floats written with an
    exponent that YAML 1.1 leaves as strings (``1e-3``, ``5E-4``,
    ``6e3``); :func:`read_yaml_mapping` reads hub and experiment config
    files with it."""


YamlLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


# ---------------------------------------------------------------------------
# piecewise efficiency curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseBlock:
    """Chord linearization of output = efficiency(load) * load.

    Levels are in load-fraction space; multiply by converter capacity to
    get flows.  `n_binaries` is the number of segment selectors needed to
    enforce the chord in a mixed-integer model.
    """

    input_levels: np.ndarray
    output_levels: np.ndarray

    @property
    def n_binaries(self) -> int:
        return len(self.input_levels) - 1

    def approx_output(self, load_fraction: float) -> float:
        return float(np.interp(load_fraction, self.input_levels,
                               self.output_levels))


def piecewise_linearize(curve, segments: int) -> PiecewiseBlock:
    """Build the chord approximation of an efficiency curve.

    `curve` is a sequence of (load_fraction, efficiency) pairs spanning
    [0, 1].  When `segments` differs from the native segment count the
    chord is resampled on a uniform grid.
    """
    if segments < 1:
        raise ValueError("need at least one segment")
    pts = [(float(x), float(e)) for x, e in curve]
    if len(pts) < 2:
        raise ValueError("need at least two breakpoints")
    xs = np.array([p[0] for p in pts])
    outs = np.array([p[0] * p[1] for p in pts])
    if segments == len(pts) - 1:
        return PiecewiseBlock(xs, outs)
    grid = np.linspace(xs[0], xs[-1], segments + 1)
    return PiecewiseBlock(grid, np.interp(grid, xs, outs))


# ---------------------------------------------------------------------------
# component specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConverterSpec:
    name: str
    kind: str
    capacity_kw: float
    efficiency_curve: tuple
    heat_to_power_ratio: float | None = None
    reserve_up_kw: float | None = None
    reserve_down_kw: float | None = None
    segments: int | None = None

    def __post_init__(self):
        if self.kind not in CONVERTER_PORTS:
            raise HubConfigError(
                f"unknown converter kind {self.kind!r} for {self.name!r}")
        if not self.capacity_kw > 0:
            raise HubConfigError(f"converter {self.name!r} needs a "
                                 "positive capacity")
        pts = tuple((float(x), float(e)) for x, e in self.efficiency_curve)
        object.__setattr__(self, "efficiency_curve", pts)
        if len(pts) < 2:
            raise HubConfigError(f"converter {self.name!r} needs at least "
                                 "two curve points")
        fracs = [p[0] for p in pts]
        if fracs[0] != 0.0 or fracs[-1] != 1.0:
            raise HubConfigError(f"converter {self.name!r} curve must span "
                                 "load fractions 0 to 1")
        if any(b <= a for a, b in zip(fracs, fracs[1:])):
            raise HubConfigError(f"converter {self.name!r} curve fractions "
                                 "must be strictly increasing")
        for _, eta in pts:
            if not 0.0 < eta <= MAX_EFFICIENCY:
                raise HubConfigError(
                    f"converter {self.name!r} efficiency {eta} outside "
                    f"(0, {MAX_EFFICIENCY}]")
        if self.kind == "CHP":
            if self.heat_to_power_ratio is None or \
                    not self.heat_to_power_ratio > 0:
                raise HubConfigError(f"cogeneration unit {self.name!r} "
                                     "needs a positive heat-to-power ratio")
        elif self.heat_to_power_ratio is not None:
            raise HubConfigError(f"converter {self.name!r} does not take a "
                                 "heat-to-power ratio")
        if self.segments is not None and self.segments < 1:
            raise HubConfigError(f"converter {self.name!r} segment count "
                                 "must be positive")

    @property
    def input_carrier(self) -> str:
        return CONVERTER_PORTS[self.kind][0]

    @property
    def output_carriers(self) -> tuple:
        return CONVERTER_PORTS[self.kind][1]

    @property
    def fixed_efficiency(self) -> float | None:
        etas = {eta for _, eta in self.efficiency_curve}
        return etas.pop() if len(etas) == 1 else None

    @property
    def full_load_efficiency(self) -> float:
        return self.efficiency_curve[-1][1]

    def block(self) -> PiecewiseBlock:
        native = len(self.efficiency_curve) - 1
        return piecewise_linearize(self.efficiency_curve,
                                   self.segments or native)


@dataclass(frozen=True)
class StorageSpec:
    name: str
    carrier: str
    capacity_kwh: float
    max_charge_kw: float
    max_discharge_kw: float
    charge_cost: float
    discharge_cost: float
    initial_soc_kwh: float

    def __post_init__(self):
        if self.carrier not in SECTORS:
            raise HubConfigError(f"storage {self.name!r} carrier must be "
                                 f"one of {SECTORS}")
        if not self.capacity_kwh > 0:
            raise HubConfigError(f"storage {self.name!r} needs positive "
                                 "capacity")
        if not (self.max_charge_kw > 0 and self.max_discharge_kw > 0):
            raise HubConfigError(f"storage {self.name!r} needs positive "
                                 "charge and discharge limits")
        if self.charge_cost < 0 or self.discharge_cost < 0:
            raise HubConfigError(f"storage {self.name!r} usage cost must "
                                 "be nonnegative")
        if not 0.0 <= self.initial_soc_kwh <= self.capacity_kwh:
            raise HubConfigError(f"storage {self.name!r} initial state of "
                                 "charge outside [0, capacity]")


@dataclass(frozen=True)
class InputSpec:
    name: str
    carrier: str
    capacity_kw: float
    reserve_up_kw: float | None = None
    reserve_down_kw: float | None = None

    def __post_init__(self):
        if self.carrier not in CARRIERS:
            raise HubConfigError(f"input {self.name!r} carrier "
                                 f"{self.carrier!r} unknown")
        if not self.capacity_kw > 0:
            raise HubConfigError(f"input {self.name!r} needs positive "
                                 "capacity")

    @property
    def up_limit(self) -> float:
        return self.capacity_kw if self.reserve_up_kw is None \
            else self.reserve_up_kw

    @property
    def down_limit(self) -> float:
        return self.capacity_kw if self.reserve_down_kw is None \
            else self.reserve_down_kw


@dataclass(frozen=True)
class OutputSpec:
    name: str
    sector: str

    def __post_init__(self):
        if self.sector not in SECTORS:
            raise HubConfigError(f"output {self.name!r} sector "
                                 f"{self.sector!r} unknown")


@dataclass(frozen=True)
class JunctionSpec:
    name: str
    carrier: str

    def __post_init__(self):
        if self.carrier not in CARRIERS:
            raise HubConfigError(f"junction {self.name!r} carrier "
                                 f"{self.carrier!r} unknown")


@dataclass(frozen=True)
class Branch:
    name: str
    source: str
    target: str
    carrier: str


def _price_vector(value, label: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        arr = np.full(HORIZON, arr[0])
    if arr.shape != (HORIZON,):
        raise HubConfigError(f"price {label} must be a scalar or a "
                             f"{HORIZON}-hour vector")
    if (arr < 0).any():
        raise HubConfigError(f"price {label} must be nonnegative")
    return arr


@dataclass(frozen=True)
class PriceSchedule:
    day_ahead: dict
    intra_day: dict
    refund_fraction: float

    @classmethod
    def from_dict(cls, d: dict, enforce_order: bool = True):
        _require_mapping(d, "prices")
        refund = float(d.get("refund_fraction", 0.0))
        if not 0.0 <= refund <= 1.0:
            raise HubConfigError("refund_fraction must lie in [0, 1]")
        da, intra = {}, {}
        for carrier, spec in d.items():
            if carrier == "refund_fraction":
                continue
            if carrier not in CARRIERS:
                raise HubConfigError(f"price carrier {carrier!r} unknown")
            _require_mapping(spec, f"price {carrier!r}")
            _reject_unknown(spec, _PRICE_KEYS, f"in price {carrier!r}")
            da[carrier] = _price_vector(spec["day_ahead"],
                                        f"{carrier}.day_ahead")
            intra[carrier] = _price_vector(spec["intra_day"],
                                           f"{carrier}.intra_day")
            if enforce_order and (intra[carrier] < da[carrier]).any():
                raise HubConfigError(
                    f"intra-day price for {carrier} dips below the "
                    "day-ahead price; set enforce_price_order: false to "
                    "allow this")
        return cls(day_ahead=da, intra_day=intra, refund_fraction=refund)


# ---------------------------------------------------------------------------
# hub config
# ---------------------------------------------------------------------------

def _require_mapping(value, what: str) -> None:
    if not isinstance(value, dict):
        raise HubConfigError(f"{what} must be a mapping, got {value!r}")


def _reject_unknown(d: dict, known: frozenset, where: str) -> None:
    unknown = sorted(set(d) - known)
    if unknown:
        raise HubConfigError(f"unknown key {unknown[0]!r} {where}")


@dataclass(frozen=True)
class HubConfig:
    name: str
    inputs: tuple
    outputs: tuple
    junctions: tuple
    converters: tuple
    storages: tuple
    branches: tuple
    prices: PriceSchedule
    temporary_purchase_kw: float = 0.0
    require_terminal_soc: bool = True

    @classmethod
    def from_dict(cls, d: dict) -> "HubConfig":
        if d.get("schema_version") != SCHEMA_VERSION:
            raise HubConfigError(
                f"unsupported schema_version {d.get('schema_version')!r}, "
                f"expected {SCHEMA_VERSION}")
        _reject_unknown(d, _TOP_KEYS, "at top level")
        options = d.get("options", {})
        _require_mapping(options, "options")
        _reject_unknown(options, _OPTION_KEYS, "under options")
        inputs = tuple(InputSpec(**i) for i in d.get("inputs", []))
        outputs = tuple(OutputSpec(**o) for o in d.get("outputs", []))
        junctions = tuple(JunctionSpec(**j) for j in d.get("nodes", []))
        converters = tuple(
            ConverterSpec(**{**c, "efficiency_curve": tuple(
                map(tuple, c["efficiency_curve"]))})
            for c in d.get("converters", []))
        storages = tuple(StorageSpec(**s) for s in d.get("storages", []))
        for b in d.get("branches", []):
            _reject_unknown(b, _BRANCH_KEYS, f"in branch {b['name']!r}")
        branches = tuple(Branch(name=b["name"], source=b["from"],
                                target=b["to"], carrier=b["carrier"])
                         for b in d.get("branches", []))
        prices = PriceSchedule.from_dict(
            d.get("prices", {}),
            enforce_order=options.get("enforce_price_order", True))
        cfg = cls(
            name=d.get("name", "hub"),
            inputs=inputs, outputs=outputs, junctions=junctions,
            converters=converters, storages=storages, branches=branches,
            prices=prices,
            temporary_purchase_kw=float(d.get("temporary_purchase_kw", 0.0)),
            require_terminal_soc=options.get("require_terminal_soc", True))
        cfg._validate_wiring()
        return cfg

    # lookup helpers -------------------------------------------------------

    def output_for_sector(self, sector: str) -> OutputSpec | None:
        for o in self.outputs:
            if o.sector == sector:
                return o
        return None

    # validation -----------------------------------------------------------

    def _validate_wiring(self) -> None:
        names = [n.name for n in
                 (*self.inputs, *self.outputs, *self.junctions,
                  *self.converters, *self.storages)]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise HubConfigError(f"duplicate component names: {dupes}")
        bnames = [b.name for b in self.branches]
        if len(set(bnames)) != len(bnames):
            raise HubConfigError("duplicate branch names")

        inputs = {i.name: i for i in self.inputs}
        outputs = {o.name: o for o in self.outputs}
        junctions = {j.name: j for j in self.junctions}
        converters = {c.name: c for c in self.converters}

        sectors_served = [o.sector for o in self.outputs]
        if len(set(sectors_served)) != len(sectors_served):
            raise HubConfigError("at most one output per sector")

        for b in self.branches:
            if b.carrier not in CARRIERS:
                raise HubConfigError(f"branch {b.name!r} carrier "
                                     f"{b.carrier!r} unknown")
            if b.source in inputs:
                want = inputs[b.source].carrier
            elif b.source in junctions:
                want = junctions[b.source].carrier
            elif b.source in converters:
                conv = converters[b.source]
                if b.carrier not in conv.output_carriers:
                    raise HubConfigError(
                        f"branch {b.name!r} carrier {b.carrier!r} is not "
                        f"produced by converter {b.source!r}")
                want = b.carrier
            else:
                raise HubConfigError(f"branch {b.name!r} starts at unknown "
                                     f"endpoint {b.source!r}")
            if b.carrier != want:
                raise HubConfigError(
                    f"branch {b.name!r} carrier {b.carrier!r} does not "
                    f"match {b.source!r} carrier {want!r}")

            if b.target in junctions:
                want = junctions[b.target].carrier
            elif b.target in converters:
                want = converters[b.target].input_carrier
            elif b.target in outputs:
                want = outputs[b.target].sector
            else:
                raise HubConfigError(f"branch {b.name!r} ends at unknown "
                                     f"endpoint {b.target!r}")
            if b.carrier != want:
                raise HubConfigError(
                    f"branch {b.name!r} carrier {b.carrier!r} does not "
                    f"match {b.target!r} carrier {want!r}")

        arriving = {}
        departing = {}
        for b in self.branches:
            departing.setdefault(b.source, []).append(b)
            arriving.setdefault(b.target, []).append(b)

        for i in self.inputs:
            if i.name not in departing:
                raise HubConfigError(f"input {i.name!r} feeds no branch")
        for o in self.outputs:
            if o.name not in arriving:
                raise HubConfigError(f"output {o.name!r} is fed by no "
                                     "branch")
        for j in self.junctions:
            if j.name not in arriving or j.name not in departing:
                raise HubConfigError(f"junction {j.name!r} is not connected "
                                     "on both sides")
        for c in self.converters:
            feeds = arriving.get(c.name, [])
            if len(feeds) != 1:
                raise HubConfigError(f"converter {c.name!r} needs exactly "
                                     "one feed branch")
            out_carriers = [b.carrier for b in departing.get(c.name, [])]
            for carrier in c.output_carriers:
                if out_carriers.count(carrier) != 1:
                    raise HubConfigError(
                        f"converter {c.name!r} needs exactly one outgoing "
                        f"{carrier} branch")
            if len(out_carriers) != len(c.output_carriers):
                raise HubConfigError(f"converter {c.name!r} has extra "
                                     "outgoing branches")

        for s in self.storages:
            if self.output_for_sector(s.carrier) is None:
                raise HubConfigError(
                    f"storage {s.name!r} serves sector {s.carrier!r} but "
                    "the hub has no such output")
        if self.temporary_purchase_kw < 0:
            raise HubConfigError("temporary_purchase_kw must be "
                                 "nonnegative")
        if self.temporary_purchase_kw > 0 and \
                self.output_for_sector("electricity") is None:
            raise HubConfigError("temporary purchases need an electricity "
                                 "output")
        for i in self.inputs:
            if i.carrier not in self.prices.day_ahead:
                raise HubConfigError(f"no price given for purchased "
                                     f"carrier {i.carrier!r}")


def read_yaml_mapping(path, error) -> dict:
    """The mapping a UTF-8 YAML file holds, read with :class:`YamlLoader`;
    an empty file holds {}. An unreadable file, bytes that are not UTF-8,
    bad YAML or a top-level value that is not a mapping raise ``error``
    naming the file. Hub and experiment config files are read here."""
    try:
        with open(Path(path), encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=YamlLoader)
    except OSError as exc:
        raise error(f"{path}: cannot read file ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from exc
    except yaml.YAMLError as exc:
        raise error(f"{path}: not valid YAML: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise error(f"{path}: expected a mapping at top level")
    return data


def load_hub_config(path) -> HubConfig:
    """Read a hub YAML file. An unreadable file, bad YAML, an unknown,
    misspelled or missing key, a value of the wrong type, or an invalid
    hub raises :class:`HubConfigError` naming the file."""
    data = read_yaml_mapping(path, HubConfigError)
    try:
        return HubConfig.from_dict(data)
    except KeyError as exc:
        raise HubConfigError(f"{path}: missing key {exc}") from exc
    # TypeError: component fields; ValueError: a number that is not one,
    # and HubConfigError itself
    except (TypeError, ValueError) as exc:
        raise HubConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# incidence matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HubMatrices:
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    branch_names: tuple
    input_names: tuple
    output_names: tuple
    z_row_names: tuple


def build_hub_matrices(config: HubConfig) -> HubMatrices:
    branch_index = {b.name: k for k, b in enumerate(config.branches)}
    nb = len(config.branches)

    X = np.zeros((len(config.inputs), nb))
    for r, inp in enumerate(config.inputs):
        for b in config.branches:
            if b.source == inp.name:
                X[r, branch_index[b.name]] = 1.0

    Y = np.zeros((len(config.outputs), nb))
    for r, out in enumerate(config.outputs):
        for b in config.branches:
            if b.target == out.name:
                Y[r, branch_index[b.name]] = 1.0

    rows = []
    row_names = []
    for j in config.junctions:
        row = np.zeros(nb)
        for b in config.branches:
            if b.target == j.name:
                row[branch_index[b.name]] = 1.0
            elif b.source == j.name:
                row[branch_index[b.name]] = -1.0
        rows.append(row)
        row_names.append(f"node[{j.name}]")
    for c in config.converters:
        feed = next(b for b in config.branches if b.target == c.name)
        outs = {b.carrier: b for b in config.branches if b.source == c.name}
        row = np.zeros(nb)
        row[branch_index[feed.name]] = c.full_load_efficiency
        for b in outs.values():
            row[branch_index[b.name]] = -1.0
        rows.append(row)
        row_names.append(f"conv[{c.name}]")
        if c.kind == "CHP":
            row = np.zeros(nb)
            row[branch_index[outs["electricity"].name]] = \
                c.heat_to_power_ratio
            row[branch_index[outs["heat"].name]] = -1.0
            rows.append(row)
            row_names.append(f"ratio[{c.name}]")

    Z = np.array(rows) if rows else np.zeros((0, nb))
    return HubMatrices(
        X=X, Y=Y, Z=Z,
        branch_names=tuple(b.name for b in config.branches),
        input_names=tuple(i.name for i in config.inputs),
        output_names=tuple(o.name for o in config.outputs),
        z_row_names=tuple(row_names))
