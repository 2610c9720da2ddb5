"""Tests for hub topology parsing, incidence matrices, and piecewise curves.

The single-converter matrix fixture is written out by hand; the larger
topology's dimensions are derived by counting its branch list in the config.
Chord-approximation errors for piecewise efficiency curves are checked
against the closed-form gap between the chord and the underlying
fraction-times-efficiency curve.
"""

import numpy as np
import pytest
import yaml

from mesval.hub import (
    ConverterSpec,
    HubConfig,
    HubConfigError,
    PiecewiseBlock,
    StorageSpec,
    build_hub_matrices,
    load_hub_config,
    piecewise_linearize,
)


def boiler_only_dict(eta=0.9):
    return {
        "schema_version": 1,
        "name": "boiler-only",
        "inputs": [{"name": "gas_supply", "carrier": "gas",
                    "capacity_kw": 100.0}],
        "outputs": [{"name": "heat_load", "sector": "heat"}],
        "nodes": [],
        "converters": [{
            "name": "boiler", "kind": "gas_boiler", "capacity_kw": 100.0,
            "efficiency_curve": [[0.0, eta], [1.0, eta]]}],
        "storages": [],
        "branches": [
            {"name": "b_gas", "from": "gas_supply", "to": "boiler",
             "carrier": "gas"},
            {"name": "b_heat", "from": "boiler", "to": "heat_load",
             "carrier": "heat"},
        ],
        "prices": {
            "refund_fraction": 0.7,
            "gas": {"day_ahead": 0.4, "intra_day": 0.6},
        },
    }


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_single_boiler_matrices_by_hand():
    cfg = HubConfig.from_dict(boiler_only_dict(eta=0.9))
    mats = build_hub_matrices(cfg)
    assert mats.branch_names == ("b_gas", "b_heat")
    np.testing.assert_array_equal(mats.X, [[1.0, 0.0]])
    np.testing.assert_array_equal(mats.Y, [[0.0, 1.0]])
    np.testing.assert_array_equal(mats.Z, [[0.9, -1.0]])


def test_every_branch_appears_in_some_row():
    cfg = load_hub_config(_shipped("hub_showcase.yaml"))
    mats = build_hub_matrices(cfg)
    stacked = np.vstack([mats.X, mats.Y, mats.Z])
    assert (np.abs(stacked).sum(axis=0) > 0).all()


def test_showcase_dimensions_match_branch_count():
    # the showcase wiring: 2 supply branches, 2 gas feeds, 2 turbine outputs,
    # 1 gas-boiler output, electric boiler in/out, refrigerator in/out, and
    # 3 delivery branches = 14; rows: 4 junctions + turbine conversion +
    # turbine ratio coupling + 3 single-output conversions = 9
    cfg = load_hub_config(_shipped("hub_showcase.yaml"))
    mats = build_hub_matrices(cfg)
    assert len(mats.branch_names) == 14
    assert mats.X.shape == (2, 14)
    assert mats.Y.shape == (3, 14)
    assert mats.Z.shape == (9, 14)


def test_experiment_config_dimensions():
    cfg = load_hub_config(_shipped("hub_experiment.yaml"))
    mats = build_hub_matrices(cfg)
    assert len(mats.branch_names) == 12
    assert mats.X.shape == (2, 12)
    assert mats.Y.shape == (3, 12)
    assert mats.Z.shape == (8, 12)


def test_junction_balance_rows_sum_to_zero_coefficients():
    # each junction row must have +1 for every arriving branch and -1 for
    # every departing one, nothing else
    cfg = load_hub_config(_shipped("hub_experiment.yaml"))
    mats = build_hub_matrices(cfg)
    by_name = dict(zip(mats.z_row_names, mats.Z))
    row = by_name["node[elec_bus]"]
    arriving = {"grid_draw", "chp_power"}
    departing = {"elec_delivery", "refrigerator_feed"}
    for b, coef in zip(mats.branch_names, row):
        if b in arriving:
            assert coef == 1.0
        elif b in departing:
            assert coef == -1.0
        else:
            assert coef == 0.0


def _shipped(fname):
    import mesval
    from pathlib import Path
    return Path(mesval.__file__).parent / "configs" / fname


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_disconnected_junction_rejected():
    d = boiler_only_dict()
    d["nodes"] = [{"name": "lonely_bus", "carrier": "heat"}]
    with pytest.raises(HubConfigError, match="lonely_bus"):
        HubConfig.from_dict(d)


def test_unknown_branch_endpoint_rejected():
    d = boiler_only_dict()
    d["branches"][0]["from"] = "nowhere"
    with pytest.raises(HubConfigError, match="nowhere"):
        HubConfig.from_dict(d)


def test_converter_port_without_branch_rejected():
    d = boiler_only_dict()
    d["branches"] = [d["branches"][0]]   # drop the heat output branch
    d["outputs"] = []
    with pytest.raises(HubConfigError, match="boiler"):
        HubConfig.from_dict(d)


def test_branch_carrier_mismatch_rejected():
    d = boiler_only_dict()
    d["branches"][0]["carrier"] = "heat"  # gas input feeding a heat branch
    with pytest.raises(HubConfigError, match="carrier"):
        HubConfig.from_dict(d)


def test_price_order_enforced_by_default():
    d = boiler_only_dict()
    d["prices"]["gas"]["intra_day"] = 0.3   # below day-ahead
    with pytest.raises(HubConfigError, match="intra"):
        HubConfig.from_dict(d)
    d["options"] = {"enforce_price_order": False}
    HubConfig.from_dict(d)   # explicitly allowed


def test_converter_spec_validation():
    with pytest.raises(HubConfigError, match="efficiency"):
        ConverterSpec(name="x", kind="gas_boiler", capacity_kw=10.0,
                      efficiency_curve=((0.0, 0.0), (1.0, 0.9)))
    with pytest.raises(HubConfigError, match="efficiency"):
        ConverterSpec(name="x", kind="gas_boiler", capacity_kw=10.0,
                      efficiency_curve=((0.0, 0.9), (1.0, 1.6)))
    with pytest.raises(HubConfigError, match="increasing"):
        ConverterSpec(name="x", kind="gas_boiler", capacity_kw=10.0,
                      efficiency_curve=((0.0, 0.9), (0.5, 0.9),
                                        (0.5, 0.8), (1.0, 0.9)))
    with pytest.raises(HubConfigError, match="ratio"):
        ConverterSpec(name="x", kind="CHP", capacity_kw=10.0,
                      efficiency_curve=((0.0, 0.8), (1.0, 0.8)))
    with pytest.raises(HubConfigError, match="ratio"):
        ConverterSpec(name="x", kind="gas_boiler", capacity_kw=10.0,
                      efficiency_curve=((0.0, 0.8), (1.0, 0.8)),
                      heat_to_power_ratio=1.2)
    with pytest.raises(HubConfigError, match="kind"):
        ConverterSpec(name="x", kind="fusion_reactor", capacity_kw=10.0,
                      efficiency_curve=((0.0, 0.8), (1.0, 0.8)))


def test_storage_spec_validation():
    good = dict(name="tank", carrier="heat", capacity_kwh=100.0,
                max_charge_kw=20.0, max_discharge_kw=20.0,
                charge_cost=0.01, discharge_cost=0.01, initial_soc_kwh=50.0)
    StorageSpec(**good)
    with pytest.raises(HubConfigError, match="state of charge"):
        StorageSpec(**{**good, "initial_soc_kwh": 120.0})
    with pytest.raises(HubConfigError, match="cost"):
        StorageSpec(**{**good, "charge_cost": -0.1})
    with pytest.raises(HubConfigError, match="carrier"):
        StorageSpec(**{**good, "carrier": "gas"})


@pytest.mark.parametrize("place, key", [
    ("top", "storage"),
    ("options", "require_terminal_sco"),
    ("converter", "segmentz"),
    ("branch", "capacity_kw"),
    ("price", "intra_dya"),
])
def test_unknown_hub_key_names_file_and_key(tmp_path, place, key):
    # a misspelled optional key would otherwise load as if it were absent
    d = boiler_only_dict()
    target = {"top": d, "options": d.setdefault("options", {}),
              "converter": d["converters"][0], "branch": d["branches"][0],
              "price": d["prices"]["gas"]}[place]
    target[key] = 1
    path = tmp_path / "typo_hub.yaml"
    path.write_text(yaml.safe_dump(d))
    with pytest.raises(HubConfigError) as err:
        load_hub_config(path)
    assert "typo_hub.yaml" in str(err.value) and key in str(err.value)
    entry = {"branch": "'b_gas'", "price": "'gas'"}.get(place)
    assert entry is None or f"{place} {entry}" in str(err.value)
    del target[key]
    path.write_text(yaml.safe_dump(d))
    assert load_hub_config(path).name == "boiler-only"


@pytest.mark.parametrize("where, key, value", [
    (("prices", "gas"), "day_ahead", "cheap"),
    (("converters", 0, "efficiency_curve", 1), 1, "high"),
    (("prices",), "refund_fraction", "most"),
    ((), "temporary_purchase_kw", "some"),
    ((), "prices", 3),
    ((), "options", []),
], ids=["day-ahead-price", "curve-point", "refund-fraction",
        "temporary-purchase", "prices-not-mapping", "options-not-mapping"])
def test_hub_value_of_the_wrong_type_names_the_file(tmp_path, where, key,
                                                    value):
    # a wrong type ends in HubConfigError naming the file, not in a bare
    # ValueError or AttributeError
    d = boiler_only_dict()
    target = d
    for step in where:
        target = target[step]
    target[key] = value
    path = tmp_path / "typed_hub.yaml"
    path.write_text(yaml.safe_dump(d))
    with pytest.raises(HubConfigError, match="typed_hub.yaml"):
        load_hub_config(path)


def test_hub_yaml_reads_exponent_floats(tmp_path):
    # YAML 1.1 leaves 6e3 a string; hub files take the YAML 1.2 float
    text = _shipped("hub_experiment.yaml").read_text()
    assert text.count("capacity_kw: 6000.0") == 1
    path = tmp_path / "exponent_hub.yaml"
    path.write_text(text.replace("capacity_kw: 6000.0", "capacity_kw: 6e3"))
    grid = load_hub_config(path).inputs[0]
    assert type(grid.capacity_kw) is float and grid.capacity_kw == 6000.0


def test_schema_version_checked():
    d = boiler_only_dict()
    d["schema_version"] = 99
    with pytest.raises(HubConfigError, match="schema"):
        HubConfig.from_dict(d)


# ---------------------------------------------------------------------------
# piecewise linearization
# ---------------------------------------------------------------------------

def chord_output(curve, x):
    xs = np.array([p[0] for p in curve])
    ys = np.array([p[0] * p[1] for p in curve])
    return float(np.interp(x, xs, ys))


def true_output(curve, x):
    xs = np.array([p[0] for p in curve])
    es = np.array([p[1] for p in curve])
    return float(np.interp(x, xs, es)) * x


def test_affine_curve_reproduced_exactly_any_segment_count():
    curve = [(0.0, 0.85), (1.0, 0.85)]
    for segments in (1, 2, 5):
        block = piecewise_linearize(curve, segments)
        for x in np.linspace(0.0, 1.0, 17):
            assert abs(block.approx_output(x) - 0.85 * x) < 1e-12


def test_breakpoint_loads_are_exact():
    curve = [(0.0, 0.8), (0.5, 0.9), (1.0, 0.85)]
    block = piecewise_linearize(curve, 2)
    for x, eta in curve:
        assert abs(block.approx_output(x) - eta * x) < 1e-12


def test_mid_segment_error_equals_chord_gap():
    # the underlying map is fraction * interpolated efficiency, quadratic
    # inside a segment, so the chord misses it by an amount computable in
    # closed form; the block must land exactly on the chord
    curve = [(0.0, 0.8), (0.5, 0.9), (1.0, 0.85)]
    block = piecewise_linearize(curve, 2)
    for x in (0.25, 0.75):
        approx = block.approx_output(x)
        assert abs(approx - chord_output(curve, x)) < 1e-12
        gap = approx - true_output(curve, x)
        # hand value at x = 0.25: chord 0.225, curve 0.85 * 0.25 = 0.2125
        if x == 0.25:
            np.testing.assert_allclose(gap, 0.0125, atol=1e-12)
        assert abs(gap) > 1e-4   # the gap is the claim, not a rounding issue


def test_resampling_changes_breakpoint_grid():
    curve = [(0.0, 0.8), (0.5, 0.9), (1.0, 0.85)]
    block = piecewise_linearize(curve, 4)
    np.testing.assert_allclose(block.input_levels,
                               [0.0, 0.25, 0.5, 0.75, 1.0])
    assert block.n_binaries == 4


def test_piecewise_rejects_bad_inputs():
    with pytest.raises(ValueError, match="segment"):
        piecewise_linearize([(0.0, 0.8), (1.0, 0.9)], 0)
    with pytest.raises(ValueError, match="breakpoint"):
        piecewise_linearize([(0.0, 0.8)], 2)
