"""Tests for the two-settlement scheduling problems built over a hub.

The toy hub used throughout has fully pinned flows (each demand has
exactly one supply route), so day-ahead costs have a closed form:

    grid = elec + cooling / cop        gas = heat / eta
    cost = sum_t  P_elec * grid_t + P_gas * gas_t

Intra-day adjustments trade at the intra price for upward deviations and
refund a fraction of the day-ahead price for downward ones, which gives
equally explicit expectations for perturbed actuals.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from _util import _bits
from mesval import dispatch
from mesval.bnb import branch_and_bound
from mesval.dispatch import (
    DispatchBuildError,
    build_day_ahead,
    build_intra_day,
    build_joint,
    dispatch_cost,
    storage_repair,
    verify_dispatch,
)
from mesval.hub import HORIZON, SECTORS, HubConfig, load_hub_config

RNG_SEED = 20240917

ELEC_DA, ELEC_ID = 0.5, 0.75
GAS_DA, GAS_ID = 0.4, 0.6
REFUND = 0.5
COP = 1.25
ETA = 0.9


def tri_toy(storage=False, grid_ru=None, grid_rd=None, gas_ru=None,
            gas_rd=None, temp=0.0, terminal=True, gas_da=GAS_DA,
            gas_intra=GAS_ID, tank_initial=50.0, second_boiler=False):
    grid = {"name": "grid", "carrier": "electricity", "capacity_kw": 1000.0}
    if grid_ru is not None:
        grid["reserve_up_kw"] = grid_ru
    if grid_rd is not None:
        grid["reserve_down_kw"] = grid_rd
    gas = {"name": "gas_supply", "carrier": "gas", "capacity_kw": 1000.0}
    if gas_ru is not None:
        gas["reserve_up_kw"] = gas_ru
    if gas_rd is not None:
        gas["reserve_down_kw"] = gas_rd
    d = {
        "schema_version": 1,
        "name": "tri-toy",
        "inputs": [grid, gas],
        "outputs": [{"name": "elec_load", "sector": "electricity"},
                    {"name": "heat_load", "sector": "heat"},
                    {"name": "cool_load", "sector": "cooling"}],
        "nodes": [{"name": "elec_bus", "carrier": "electricity"}],
        "converters": [
            {"name": "boiler", "kind": "gas_boiler", "capacity_kw": 500.0,
             "efficiency_curve": [[0.0, ETA], [1.0, ETA]]},
            {"name": "fridge", "kind": "electric_refrigerator",
             "capacity_kw": 500.0,
             "efficiency_curve": [[0.0, COP], [1.0, COP]]},
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
            "refund_fraction": REFUND,
            "electricity": {"day_ahead": ELEC_DA, "intra_day": ELEC_ID},
            "gas": {"day_ahead": gas_da, "intra_day": gas_intra},
        },
        "temporary_purchase_kw": temp,
        "options": {"require_terminal_soc": terminal},
    }
    if second_boiler:     # a second branch out of the gas supply
        d["converters"].append(
            {"name": "boiler2", "kind": "gas_boiler", "capacity_kw": 20.0,
             "efficiency_curve": [[0.0, 0.95], [1.0, 0.95]]})
        d["branches"] += [
            {"name": "gas_feed2", "from": "gas_supply", "to": "boiler2",
             "carrier": "gas"},
            {"name": "heat_out2", "from": "boiler2", "to": "heat_load",
             "carrier": "heat"}]
    if storage:
        d["storages"] = [{
            "name": "heat_tank", "carrier": "heat", "capacity_kwh": 100.0,
            "max_charge_kw": 50.0, "max_discharge_kw": 50.0,
            "charge_cost": 0.02, "discharge_cost": 0.02,
            "initial_soc_kwh": tank_initial}]
    return HubConfig.from_dict(d)


def toy_loads(rng):
    E = rng.uniform(80.0, 260.0, 24)
    H = rng.uniform(40.0, 200.0, 24)
    C = rng.uniform(10.0, 90.0, 24)
    return np.vstack([E, H, C])


def analytic_day_ahead(loads):
    E, H, C = loads
    return float(np.sum(ELEC_DA * (E + C / COP) + GAS_DA * H / ETA))


def solve(problem, M=None, engine="highs"):
    M = problem.M0 if M is None else M
    return branch_and_bound(problem.milp, np.asarray(M, dtype=float),
                            engine=engine,
                            round_repair=storage_repair(problem))


def val(problem, result, name):
    return float(result.primal[problem.var_index[name]])


# ---------------------------------------------------------------------------
# day-ahead stage
# ---------------------------------------------------------------------------

def test_day_ahead_cost_matches_closed_form():
    rng = np.random.default_rng(RNG_SEED)
    cfg = tri_toy()
    loads = toy_loads(rng)
    prob = build_day_ahead(loads, cfg)
    res = solve(prob)
    assert res.status == "optimal"
    expect = analytic_day_ahead(loads)
    np.testing.assert_allclose(res.objective, expect, rtol=1e-8)
    assert prob.milp.integer_vars == ()


def test_day_ahead_parameter_slots():
    rng = np.random.default_rng(RNG_SEED + 1)
    cfg = tri_toy()
    loads = toy_loads(rng)
    prob = build_day_ahead(loads, cfg)
    expect_names = tuple(f"fc[{s}][{t}]" for s in SECTORS for t in range(24))
    assert prob.param_names == expect_names
    np.testing.assert_array_equal(prob.M0, loads.reshape(-1))
    # the same problem re-solved at doubled loads doubles the cost
    res2 = solve(prob, M=2.0 * prob.M0)
    np.testing.assert_allclose(res2.objective,
                               2.0 * analytic_day_ahead(loads), rtol=1e-8)


def test_zero_loads_cost_zero():
    cfg = tri_toy()
    prob = build_day_ahead(np.zeros((3, 24)), cfg)
    res = solve(prob)
    assert abs(res.objective) < 1e-9


def test_negative_forecast_rejected():
    cfg = tri_toy()
    loads = np.zeros((3, 24))
    loads[1, 5] = -1.0
    with pytest.raises(DispatchBuildError, match="negative"):
        build_day_ahead(loads, cfg)


def test_day_ahead_cost_monotone_in_demand():
    rng = np.random.default_rng(RNG_SEED + 2)
    cfg = tri_toy()
    loads = toy_loads(rng)
    prob = build_day_ahead(loads, cfg)
    base = solve(prob).objective
    for sector in range(3):
        bumped = prob.M0.copy()
        bumped[sector * 24 + 11] += 10.0
        assert solve(prob, M=bumped).objective > base


# ---------------------------------------------------------------------------
# intra-day stage, sequential
# ---------------------------------------------------------------------------

def test_intra_day_matching_actuals_add_nothing():
    rng = np.random.default_rng(RNG_SEED + 3)
    cfg = tri_toy()
    loads = toy_loads(rng)
    da = build_day_ahead(loads, cfg)
    da_res = solve(da)
    intra = build_intra_day(da, da_res, loads)
    res = solve(intra)
    np.testing.assert_allclose(res.objective, da_res.objective, rtol=1e-9)
    parts = dispatch_cost(intra, res)
    np.testing.assert_allclose(parts.day_ahead, da_res.objective, rtol=1e-9)
    assert abs(parts.intra_day) < 1e-7
    assert abs(parts.storage) < 1e-12


def test_under_forecast_pays_intra_premium():
    rng = np.random.default_rng(RNG_SEED + 4)
    cfg = tri_toy(grid_ru=50.0)
    loads = toy_loads(rng)
    da = build_day_ahead(loads, cfg)
    da_res = solve(da)
    actual = loads.copy()
    actual[0, 5] += 10.0
    intra = build_intra_day(da, da_res, actual)
    res = solve(intra)
    np.testing.assert_allclose(res.objective,
                               da_res.objective + 10.0 * ELEC_ID, rtol=1e-9)
    # relative to a perfect day-ahead plan the slip costs (id - da) * delta
    baseline = analytic_day_ahead(actual)
    np.testing.assert_allclose(res.objective - baseline,
                               10.0 * (ELEC_ID - ELEC_DA), atol=1e-6)
    assert abs(val(intra, res, "id.up[grid][5]") - 10.0) < 1e-7


def test_over_forecast_refunds_partially():
    rng = np.random.default_rng(RNG_SEED + 5)
    cfg = tri_toy()
    loads = toy_loads(rng)
    da = build_day_ahead(loads, cfg)
    da_res = solve(da)
    actual = loads.copy()
    actual[0, 5] -= 10.0
    intra = build_intra_day(da, da_res, actual)
    res = solve(intra)
    np.testing.assert_allclose(
        res.objective, da_res.objective - REFUND * ELEC_DA * 10.0, rtol=1e-9)
    assert abs(val(intra, res, "id.down[grid][5]") - 10.0) < 1e-7


def test_reserve_exhausted_without_backstop_is_infeasible():
    rng = np.random.default_rng(RNG_SEED + 6)
    cfg = tri_toy(grid_ru=5.0, temp=0.0)
    loads = toy_loads(rng)
    da = build_day_ahead(loads, cfg)
    da_res = solve(da)
    actual = loads.copy()
    actual[0, 5] += 10.0
    intra = build_intra_day(da, da_res, actual)
    assert solve(intra).status == "infeasible"


def test_temporary_purchase_fills_reserve_gap():
    rng = np.random.default_rng(RNG_SEED + 7)
    cfg = tri_toy(grid_ru=5.0, temp=3000.0)
    loads = toy_loads(rng)
    da = build_day_ahead(loads, cfg)
    da_res = solve(da)
    actual = loads.copy()
    actual[0, 5] += 10.0
    intra = build_intra_day(da, da_res, actual)
    res = solve(intra)
    # temp power trades at the same intra tariff, so cost matches full up
    np.testing.assert_allclose(res.objective,
                               da_res.objective + 10.0 * ELEC_ID, rtol=1e-9)
    assert abs(val(intra, res, "id.up[grid][5]") - 5.0) < 1e-7
    assert abs(val(intra, res, "id.temp[5]") - 5.0) < 1e-7


# ---------------------------------------------------------------------------
# joint problem
# ---------------------------------------------------------------------------

def test_joint_equals_sequential_when_day_ahead_is_pinned():
    rng = np.random.default_rng(RNG_SEED + 8)
    cfg = tri_toy(grid_ru=50.0, grid_rd=50.0)
    loads = toy_loads(rng)
    actual = loads.copy()
    actual[0, 3] += 8.0
    actual[1, 7] -= 9.0
    actual[2, 12] += 5.0

    da = build_day_ahead(loads, cfg)
    da_res = solve(da)
    intra = build_intra_day(da, da_res, actual)
    seq_res = solve(intra)

    joint = build_joint(loads, actual, cfg)
    joint_res = solve(joint)
    np.testing.assert_allclose(joint_res.objective, seq_res.objective,
                               rtol=1e-9)
    jp = dispatch_cost(joint, joint_res)
    sp = dispatch_cost(intra, seq_res)
    np.testing.assert_allclose(jp.day_ahead, sp.day_ahead, rtol=1e-9)
    np.testing.assert_allclose(jp.intra_day, sp.intra_day, rtol=1e-7)


def test_joint_perfect_forecast_is_a_lower_bound():
    rng = np.random.default_rng(RNG_SEED + 9)
    cfg = tri_toy(grid_ru=80.0, grid_rd=80.0)
    actual = toy_loads(rng)
    joint = build_joint(actual, actual, cfg)
    ideal = solve(joint).objective
    for _ in range(5):
        fc = np.maximum(actual + rng.normal(0.0, 15.0, actual.shape), 0.0)
        M = np.concatenate([fc.reshape(-1), actual.reshape(-1)])
        res = solve(joint, M=M)
        if res.status != "optimal":
            continue
        assert res.objective >= ideal - 1e-9 * (1.0 + abs(ideal))


def test_joint_parameter_separation():
    cfg = tri_toy(storage=True)
    loads = toy_loads(np.random.default_rng(RNG_SEED + 10))
    joint = build_joint(loads, loads, cfg)
    lp = joint.milp.lp
    assert lp.param_dim == 144
    expect = tuple(f"fc[{s}][{t}]" for s in SECTORS for t in range(24))
    expect += tuple(f"act[{s}][{t}]" for s in SECTORS for t in range(24))
    assert joint.param_names == expect
    assert not lp.B_f.any()   # parameters enter through balances only
    for j in range(144):
        rows = np.flatnonzero(lp.B_h[:, j])
        assert len(rows) == 1
        name = lp.eq_names[rows[0]]
        if j < 72:
            assert name.startswith("da.balance[")
        else:
            assert name.startswith("id.balance[")


# ---------------------------------------------------------------------------
# storage behavior
# ---------------------------------------------------------------------------
# The committed stage pays no storage fees, so under flat day-ahead prices
# any balanced tank cycling is an alternate optimum and the plan's tank use
# is arbitrary. The storage fixtures therefore start the tank empty and tilt
# the day-ahead gas price slightly downward over the day: charging before
# discharging then strictly loses money, so the committed plan provably
# leaves the tank alone and the intra-day stage owns every tank move.

GAS_DA_TILT = [GAS_DA - 1e-3 * t for t in range(24)]


def tilted_day_ahead(loads):
    E, H, C = loads
    grid = E + C / COP
    return float(np.sum(ELEC_DA * grid + np.array(GAS_DA_TILT) * H / ETA))


def test_hub_horizon_is_the_fixed_day():
    # the horizon is no setting: every stage has HORIZON hours, in its
    # parameter slots and in M0 alike
    cfg = load_hub_config(_shipped("hub_showcase.yaml"))
    with pytest.raises(TypeError):
        dataclasses.replace(cfg, horizon=12)
    assert cfg.horizon == HORIZON
    loads = np.full((len(SECTORS), HORIZON), 500.0)
    joint = build_joint(loads, loads, cfg)
    assert joint.milp.lp.param_dim == 2 * len(SECTORS) * HORIZON
    assert joint.M0.shape == (2 * len(SECTORS) * HORIZON,)


def test_storage_shifts_adjustment_to_cheap_hours():
    # committed plan built from the forecast alone; a heat slip then lands
    # at an hour with punitive intra gas. charging the tank at the one
    # cheap early hour and discharging into the slip beats spot gas.
    rng = np.random.default_rng(RNG_SEED + 11)
    gas_intra = [GAS_ID] * 24
    gas_intra[0] = 0.45
    gas_intra[4] = 2.0
    cfg = tri_toy(storage=True, gas_da=GAS_DA_TILT, gas_intra=gas_intra,
                  tank_initial=0.0)
    loads = toy_loads(rng)
    da = build_day_ahead(loads, cfg)
    da_res = solve(da)
    assert da_res.status == "optimal"
    np.testing.assert_allclose(da_res.objective, tilted_day_ahead(loads),
                               rtol=1e-8)
    for t in range(24):
        assert abs(val(da, da_res, f"da.q_ch[heat_tank][{t}]")) < 1e-7
    actual = loads.copy()
    actual[1, 4] += 20.0
    intra = build_intra_day(da, da_res, actual)
    res = solve(intra)
    assert res.status == "optimal"
    assert abs(val(intra, res, "id.q_ch[heat_tank][0]") - 20.0) < 1e-6
    assert abs(val(intra, res, "id.q_dis[heat_tank][4]") - 20.0) < 1e-6
    assert abs(val(intra, res, "id.soc[heat_tank][0]") - 20.0) < 1e-6
    assert abs(val(intra, res, "id.soc[heat_tank][4]")) < 1e-6
    parts = dispatch_cost(intra, res)
    np.testing.assert_allclose(parts.storage, 2 * 20.0 * 0.02, atol=1e-7)
    # tank gas bought at the cheap hour: 20 / eta * 0.45, plus both fees
    np.testing.assert_allclose(
        res.objective,
        da_res.objective + 20.0 / ETA * 0.45 + 0.8, rtol=1e-8)
    check = verify_dispatch(intra, res)
    assert check.ok, check.violations


def test_storage_charge_absorbs_pinned_surplus():
    # downward gas moves are blocked, so a heat surplus has nowhere to go
    # but the tank; the terminal rule is satisfied by ending above start
    rng = np.random.default_rng(RNG_SEED + 12)
    cfg = tri_toy(storage=True, gas_da=GAS_DA_TILT, gas_rd=0.0,
                  tank_initial=0.0)
    loads = toy_loads(rng)
    da = build_day_ahead(loads, cfg)
    da_res = solve(da)
    assert da_res.status == "optimal"
    actual = loads.copy()
    actual[1, 4] -= 20.0
    intra = build_intra_day(da, da_res, actual)
    res = solve(intra)
    assert res.status == "optimal"
    assert abs(val(intra, res, "id.q_ch[heat_tank][4]") - 20.0) < 1e-6
    assert abs(val(intra, res, "id.soc[heat_tank][4]") - 20.0) < 1e-6
    np.testing.assert_allclose(res.objective,
                               da_res.objective + 20.0 * 0.02, rtol=1e-8)
    check = verify_dispatch(intra, res)
    assert check.ok, check.violations


def test_joint_overcommits_when_recourse_is_pinned():
    # the joint problem sees the actuals, so with the gas route pinned in
    # both directions it overbuys committed gas at the slip hour and parks
    # the surplus in the planned tank, fee-free; the delivered stage then
    # serves the slip directly and never touches its own tank. the same
    # day is infeasible when the commitment is made blind: the delivered
    # boiler output is pinned to the plan, so the slip can only come from
    # a net tank drawdown, which the terminal rule forbids.
    rng = np.random.default_rng(RNG_SEED + 13)
    cfg = tri_toy(storage=True, gas_ru=0.0, gas_rd=0.0, terminal=True)
    loads = toy_loads(rng)
    actual = loads.copy()
    actual[1, 4] += 20.0
    joint = build_joint(loads, actual, cfg)
    res = solve(joint)
    assert res.status == "optimal"
    assert abs(val(joint, res, "da.flow[gas_feed][4]")
               - (loads[1, 4] + 20.0) / ETA) < 1e-6
    assert abs(val(joint, res, "da.q_ch[heat_tank][4]") - 20.0) < 1e-6
    for t in range(24):
        assert abs(val(joint, res, f"id.q_ch[heat_tank][{t}]")) < 1e-7
        assert abs(val(joint, res, f"id.q_dis[heat_tank][{t}]")) < 1e-7
    parts = dispatch_cost(joint, res)
    assert abs(parts.storage) < 1e-9
    np.testing.assert_allclose(
        res.objective,
        analytic_day_ahead(loads) + 20.0 / ETA * GAS_DA, rtol=1e-8)
    check = verify_dispatch(joint, res)
    assert check.ok, check.violations

    da = build_day_ahead(loads, cfg)
    da_res = solve(da)
    assert da_res.status == "optimal"
    intra = build_intra_day(da, da_res, actual)
    assert solve(intra).status == "infeasible"


# ---------------------------------------------------------------------------
# converter coupling
# ---------------------------------------------------------------------------

def chp_toy():
    return HubConfig.from_dict({
        "schema_version": 1,
        "name": "chp-toy",
        "inputs": [{"name": "gas_supply", "carrier": "gas",
                    "capacity_kw": 1000.0}],
        "outputs": [{"name": "elec_load", "sector": "electricity"},
                    {"name": "heat_load", "sector": "heat"}],
        "nodes": [],
        "converters": [{
            "name": "chp", "kind": "CHP", "capacity_kw": 600.0,
            "heat_to_power_ratio": 1.2,
            "efficiency_curve": [[0.0, 0.8], [1.0, 0.8]]}],
        "storages": [],
        "branches": [
            {"name": "fuel", "from": "gas_supply", "to": "chp",
             "carrier": "gas"},
            {"name": "power", "from": "chp", "to": "elec_load",
             "carrier": "electricity"},
            {"name": "warmth", "from": "chp", "to": "heat_load",
             "carrier": "heat"},
        ],
        "prices": {"refund_fraction": 0.5,
                   "gas": {"day_ahead": GAS_DA, "intra_day": GAS_ID}},
    })


def test_cogeneration_ratio_couples_outputs():
    cfg = chp_toy()
    loads = np.zeros((3, 24))
    loads[0] = 100.0
    loads[1] = 120.0   # exactly ratio * power
    prob = build_day_ahead(loads, cfg)
    res = solve(prob)
    assert res.status == "optimal"
    # fuel = (power + heat) / eta = 220 / 0.8 = 275 each hour
    np.testing.assert_allclose(res.objective, 24 * GAS_DA * 275.0, rtol=1e-9)
    loads[1] = 130.0   # incompatible with the ratio
    prob2 = build_day_ahead(loads, cfg)
    assert solve(prob2).status == "infeasible"


def pw_boiler_toy():
    return HubConfig.from_dict({
        "schema_version": 1,
        "name": "pw-toy",
        "inputs": [{"name": "gas_supply", "carrier": "gas",
                    "capacity_kw": 1000.0}],
        "outputs": [{"name": "heat_load", "sector": "heat"}],
        "nodes": [],
        "converters": [{
            "name": "pboiler", "kind": "gas_boiler", "capacity_kw": 100.0,
            "efficiency_curve": [[0.0, 0.8], [0.5, 0.9], [1.0, 0.85]]}],
        "storages": [],
        "branches": [
            {"name": "fuel", "from": "gas_supply", "to": "pboiler",
             "carrier": "gas"},
            {"name": "warmth", "from": "pboiler", "to": "heat_load",
             "carrier": "heat"},
        ],
        "prices": {"refund_fraction": 0.5,
                   "gas": {"day_ahead": GAS_DA, "intra_day": GAS_ID}},
    })


def test_piecewise_converter_follows_the_chord():
    cfg = pw_boiler_toy()
    # chord in fraction space: (0,0) -> (0.5,0.45) -> (1,0.85); demand 30
    # sits on the first piece (input 100/3), demand 60 on the second
    # (input 68.75)
    loads = np.zeros((3, 24))
    loads[1] = 30.0
    prob = build_day_ahead(loads, cfg)
    res = solve(prob)
    assert res.status == "optimal"
    assert abs(val(prob, res, "da.flow[fuel][7]") - 100.0 / 3.0) < 1e-5
    np.testing.assert_allclose(res.objective, 24 * GAS_DA * 100.0 / 3.0,
                               rtol=1e-7)

    M = prob.M0.copy()
    M[24:48] = 60.0
    res2 = solve(prob, M=M)
    assert res2.status == "optimal"
    assert abs(val(prob, res2, "da.flow[fuel][7]") - 68.75) < 1e-5
    # selected weights sit on adjacent breakpoints of the second piece
    w = [val(prob, res2, f"da.w[pboiler][7][{k}]") for k in range(3)]
    np.testing.assert_allclose(w, [0.0, 0.625, 0.375], atol=1e-6)
    for v in res2.integer_values:
        assert v in (0, 1)
    check = verify_dispatch(prob, res2, M=M)
    assert check.ok, check.violations


def test_converter_reserve_box_pins_intra_feed():
    base = tri_toy(grid_ru=50.0, grid_rd=50.0)
    frozen = dataclasses.replace(
        base, converters=tuple(
            dataclasses.replace(c, reserve_up_kw=0.0, reserve_down_kw=0.0)
            if c.name == "boiler" else c
            for c in base.converters))
    rng = np.random.default_rng(RNG_SEED + 14)
    loads = toy_loads(rng)
    actual = loads.copy()
    actual[1, 9] += 15.0
    joint = build_joint(loads, actual, frozen)
    assert solve(joint).status == "infeasible"
    # the same deviation is fine when the box is left open
    open_joint = build_joint(loads, actual, tri_toy(grid_ru=50.0,
                                                    grid_rd=50.0))
    res = solve(open_joint)
    assert res.status == "optimal"
    np.testing.assert_allclose(
        res.objective,
        analytic_day_ahead(loads) + 15.0 / ETA * GAS_ID, rtol=1e-8)


# ---------------------------------------------------------------------------
# accounting and checking
# ---------------------------------------------------------------------------

def test_cost_components_partition_the_objective():
    rng = np.random.default_rng(RNG_SEED + 15)
    cfg = tri_toy(storage=True, grid_ru=60.0, grid_rd=60.0)
    loads = toy_loads(rng)
    actual = np.maximum(loads + rng.normal(0.0, 8.0, loads.shape), 0.0)
    joint = build_joint(loads, actual, cfg)
    res = solve(joint)
    assert res.status == "optimal"
    parts = dispatch_cost(joint, res)
    np.testing.assert_allclose(
        parts.day_ahead + parts.intra_day + parts.storage, parts.total,
        rtol=1e-12)
    np.testing.assert_allclose(parts.total, res.objective, rtol=1e-12)
    np.testing.assert_allclose(parts.day_ahead, analytic_day_ahead(loads),
                               rtol=1e-8)
    check = verify_dispatch(joint, res)
    assert check.ok, check.violations


def test_verify_dispatch_catches_tampering():
    rng = np.random.default_rng(RNG_SEED + 16)
    cfg = tri_toy()
    loads = toy_loads(rng)
    prob = build_day_ahead(loads, cfg)
    res = solve(prob)
    bad = res.primal.copy()
    bad[prob.var_index["da.flow[grid_draw][4]"]] += 1.0
    tampered = dataclasses.replace(res, primal=bad)
    check = verify_dispatch(prob, tampered)
    assert not check.ok
    names = [name for name, _ in check.violations]
    assert any("node" in n or "balance" in n for n in names)


def test_experiment_config_joint_solves_and_verifies():
    # the planned tank pays no fees, so its exclusivity binaries sit on an
    # equal-cost plateau; the netting repair keeps the node count sane
    cfg = load_hub_config(_shipped("hub_experiment.yaml"))
    rng = np.random.default_rng(RNG_SEED + 17)
    fc = np.vstack([rng.uniform(1500.0, 2500.0, 24),
                    rng.uniform(800.0, 1600.0, 24),
                    rng.uniform(300.0, 900.0, 24)])
    act = np.maximum(fc + rng.normal(0.0, 100.0, fc.shape), 0.0)
    joint = build_joint(fc, act, cfg)
    assert joint.milp.lp.param_dim == 144
    assert len(joint.milp.integer_vars) == 48
    res = branch_and_bound(joint.milp, joint.M0, engine="highs",
                           round_repair=storage_repair(joint))
    assert res.status == "optimal"
    assert res.node_count < 200
    check = verify_dispatch(joint, res)
    assert check.ok, check.violations
    parts = dispatch_cost(joint, res)
    np.testing.assert_allclose(
        parts.day_ahead + parts.intra_day + parts.storage,
        res.objective, rtol=1e-9)


def _loop_storage_repair(problem):
    """The per-triple loop that storage_repair vectorises (the reference)."""
    triples = []
    for s in dispatch._PARTS[problem.stage]:
        for store in problem.config.storages:
            for t in range(problem.config.horizon):
                triples.append((
                    problem.var_index[f"{s}.q_ch[{store.name}][{t}]"],
                    problem.var_index[f"{s}.q_dis[{store.name}][{t}]"],
                    problem.var_index[f"{s}.u[{store.name}][{t}]"]))

    def propose(node_lp, M, sol, int_idx):
        ints = np.asarray(int_idx, dtype=int)
        z = sol.primal.copy()
        z[ints] = np.clip(np.round(z[ints]), node_lp.lb[ints],
                          node_lp.ub[ints])
        for ch_i, dis_i, u_i in triples:
            net = sol.primal[ch_i] - sol.primal[dis_i]
            z[ch_i] = max(net, 0.0)
            z[dis_i] = max(-net, 0.0)
            if z[ch_i] > 1e-9:
                u = 1.0
            elif z[dis_i] > 1e-9:
                u = 0.0
            else:
                u = float(np.round(sol.primal[u_i]))
            z[u_i] = float(np.clip(u, node_lp.lb[u_i], node_lp.ub[u_i]))
        return z

    return propose


@pytest.mark.parametrize("hub", ["hub_experiment.yaml", "hub_showcase.yaml"])
def test_storage_repair_matches_the_loop_bit_for_bit(hub):
    # every proposal of three days' searches, then the same nodes with
    # primals full of signed zeros, threshold values and out-of-box binaries
    cfg = load_hub_config(_shipped(hub))
    rng = np.random.default_rng(RNG_SEED + 21)
    calls = []
    for day in range(3):
        fc, act = _hub_day_loads(rng, hub)
        da = build_day_ahead(fc, cfg)
        for prob in (da, build_intra_day(da, solve(da), act),
                     build_joint(fc, act, cfg)):
            repair = storage_repair(prob)

            def recorded(node_lp, M, sol, int_idx, repair=repair, prob=prob):
                calls.append((prob, node_lp, M, sol, int_idx))
                return repair(node_lp, M, sol, int_idx)

            branch_and_bound(prob.milp, prob.M0, engine="highs",
                             round_repair=recorded)
    assert len(calls) >= 9
    odd = np.array([-0.0, 0.0, 1e-9, 2e-9, -1e-12, 0.3, 0.5, 1.5, -0.3, 1.0])
    for prob, node_lp, M, sol, int_idx in list(calls):
        calls.append((prob, node_lp, M, dataclasses.replace(
            sol, primal=rng.choice(odd, size=sol.primal.size)), int_idx))
    for prob, node_lp, M, sol, int_idx in calls:
        got = storage_repair(prob)(node_lp, M, sol, int_idx)
        want = _loop_storage_repair(prob)(node_lp, M, sol, int_idx)
        assert _bits(got) == _bits(want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def _shipped(fname):
    import mesval
    from pathlib import Path
    return Path(mesval.__file__).parent / "configs" / fname


# ---------------------------------------------------------------------------
# templates: compiled once per hub, filled in per day
# ---------------------------------------------------------------------------

def _assert_bitwise_equal(got, want):
    a, b = got.milp.lp, want.milp.lp
    for field in ("c", "c0", "b_f0", "B_f", "b_h0", "B_h", "lb", "ub"):
        assert _bits(getattr(a, field)) == _bits(getattr(b, field)), field
    for field in ("A_f", "A_h"):
        assert _bits(getattr(a, field).toarray()) == \
            _bits(getattr(b, field).toarray()), field
    for field in ("var_names", "ineq_names", "eq_names", "param_names"):
        assert getattr(a, field) == getattr(b, field), field
    for field in ("M0", "cost_day_ahead", "cost_intra", "cost_storage"):
        assert _bits(getattr(got, field)) == _bits(getattr(want, field)), \
            field
    assert dict(got.var_index) == dict(want.var_index)
    assert got.milp.integer_vars == want.milp.integer_vars
    assert got.param_names == want.param_names
    assert got.stage == want.stage
    assert got.config is want.config
    assert got.da_reference == want.da_reference


def _reserve_toy(**toy):
    base = tri_toy(**{"storage": True, "grid_ru": 60.0, "grid_rd": 60.0,
                      **toy})
    return dataclasses.replace(base, converters=tuple(
        dataclasses.replace(c, reserve_up_kw=40.0, reserve_down_kw=30.0)
        if c.name == "boiler" else c for c in base.converters))


def _hub_day_loads(rng, hub):
    if hub == "toy":
        fc = toy_loads(rng)
    else:
        fc = np.vstack([rng.uniform(1500.0, 2500.0, 24),
                        rng.uniform(800.0, 1600.0, 24),
                        rng.uniform(300.0, 900.0, 24)])
    return fc, np.maximum(fc + rng.normal(0.0, 0.05 * fc.mean(), fc.shape),
                          0.0)


@pytest.mark.parametrize("hub", ["toy", "two-feed", "empty-tank",
                                 "hub_experiment.yaml", "hub_showcase.yaml"])
def test_template_builds_equal_one_off_compiles(hub):
    # the two-feed toy's gas link rows sum two committed flows, the grid's
    # one; the empty tank's terminal row has a -0.0 right-hand side
    cfg = {"toy": _reserve_toy,
           "two-feed": lambda: tri_toy(storage=True, grid_ru=60.0,
                                       second_boiler=True),
           "empty-tank": lambda: _reserve_toy(tank_initial=0.0),
           }.get(hub, lambda: load_hub_config(_shipped(hub)))()
    rng = np.random.default_rng(RNG_SEED + 18)
    for day in range(3):
        fc, act = _hub_day_loads(
            rng, "toy" if hub in ("two-feed", "empty-tank") else hub)
        da = build_day_ahead(fc, cfg)
        _assert_bitwise_equal(da, dataclasses.replace(
            dispatch._compile(cfg, "day_ahead"), M0=fc.reshape(-1)))
        joint = build_joint(fc, act, cfg)
        _assert_bitwise_equal(joint, dataclasses.replace(
            dispatch._compile(cfg, "joint"),
            M0=np.concatenate([fc.reshape(-1), act.reshape(-1)])))
        res = solve(da)
        assert res.status == "optimal"
        da_ref = {name: float(res.primal[i])
                  for name, i in da.var_index.items()
                  if name.startswith("da.flow[")}
        intra = build_intra_day(da, res, act)
        if hub in ("toy", "empty-tank", "hub_showcase.yaml"):
            assert any(n.startswith("id.cres_dn[")     # converter reserves
                       for n in intra.milp.lp.ineq_names)
        if hub == "empty-tank":
            lp = intra.milp.lp
            assert np.signbit(
                lp.b_f0[lp.ineq_names.index("id.terminal[heat_tank]")])
        if hub == "two-feed":     # both gas branches carry flow
            assert da_ref["da.flow[gas_feed][5]"] > 0.0
            assert da_ref["da.flow[gas_feed2][5]"] > 0.0
        _assert_bitwise_equal(intra, dataclasses.replace(
            dispatch._compile(cfg, "intra_day", da_ref,
                              float(res.objective)),
            M0=act.reshape(-1)))


def test_repeated_builds_compile_each_stage_once(monkeypatch):
    compiled = []
    real = dispatch.to_standard_form

    def counting(prog):
        compiled.append(prog)
        return real(prog)

    monkeypatch.setattr(dispatch, "to_standard_form", counting)
    cfg = tri_toy(storage=True, grid_ru=60.0, grid_rd=60.0)
    rng = np.random.default_rng(RNG_SEED + 19)
    for day in range(4):
        fc, act = _hub_day_loads(rng, "toy")
        da = build_day_ahead(fc, cfg)
        build_intra_day(da, solve(da), act)
        build_joint(fc, act, cfg)
    assert len(compiled) == 3


def test_templates_belong_to_one_config_object():
    path = _shipped("hub_experiment.yaml")
    a, b = load_hub_config(path), load_hub_config(path)
    fc, _ = _hub_day_loads(np.random.default_rng(RNG_SEED + 20), "shipped")
    pa, pb = build_day_ahead(fc, a), build_day_ahead(fc, b)
    assert pa.config is a and pb.config is b
    assert pb.milp is not pa.milp
    assert build_day_ahead(fc, a).milp is pa.milp
    with pytest.raises(ValueError):
        pa.milp.lp.lb[0] = 1.0      # shared by every day: read-only
    # the template goes with its config
    gone, key = weakref.ref(b), id(b)
    del pb, b
    gc.collect()
    assert gone() is None
    assert key not in dispatch._TEMPLATES


# ---------------------------------------------------------------------------
# the audit: compiled per-family arrays against the per-check loop
# ---------------------------------------------------------------------------

from mesval.dispatch import (  # noqa: E402
    _LOAD_PREFIX, _PARTS, DispatchCheck, _conv_ports)


def _reference_verify(problem, result, M=None, tol=1e-7):
    """The per-check loop that verify_dispatch compiles (the reference)."""
    if result.status != "optimal":
        raise ValueError(f"cannot verify a {result.status!r} result")
    M = np.asarray(problem.M0 if M is None else M, dtype=float)
    config = problem.config
    H = config.horizon
    z = result.primal
    limit = tol * (1.0 + float(np.abs(M).max(initial=0.0)))
    pidx = {n: i for i, n in enumerate(problem.param_names)}

    def g(name):
        return float(z[problem.var_index[name]])

    violations = []
    state = {"checks": 0, "max": 0.0}

    def record(name, amount):
        state["checks"] += 1
        state["max"] = max(state["max"], amount)
        if amount > limit:
            violations.append((name, amount))

    stages = _PARTS[problem.stage]

    lp = problem.milp.lp
    over = np.maximum(z - lp.ub, 0.0)
    under = np.maximum(lp.lb - z, 0.0)
    record("bounds", float(np.maximum(over, under).max(initial=0.0)))

    for s in stages:
        for j in config.junctions:
            for t in range(H):
                res = 0.0
                for b in config.branches:
                    if b.target == j.name:
                        res += g(f"{s}.flow[{b.name}][{t}]")
                    elif b.source == j.name:
                        res -= g(f"{s}.flow[{b.name}][{t}]")
                record(f"{s}.node[{j.name}][{t}]", abs(res))

        for c in config.converters:
            feed, outs = _conv_ports(config, c)
            eta = c.fixed_efficiency
            block = None if eta is not None else c.block()
            for t in range(H):
                fin = g(f"{s}.flow[{feed.name}][{t}]")
                total_out = sum(g(f"{s}.flow[{b.name}][{t}]") for b in outs)
                if eta is not None:
                    res = eta * fin - total_out
                else:
                    res = total_out - c.capacity_kw * block.approx_output(
                        fin / c.capacity_kw)
                record(f"{s}.conv[{c.name}][{t}]", abs(res))
                if c.kind == "CHP":
                    eb = next(b for b in outs if b.carrier == "electricity")
                    hb = next(b for b in outs if b.carrier == "heat")
                    res = c.heat_to_power_ratio * \
                        g(f"{s}.flow[{eb.name}][{t}]") - \
                        g(f"{s}.flow[{hb.name}][{t}]")
                    record(f"{s}.ratio[{c.name}][{t}]", abs(res))

        load_prefix = _LOAD_PREFIX[s]
        for sector in SECTORS:
            out = config.output_for_sector(sector)
            if out is None:
                continue
            for t in range(H):
                served = sum(g(f"{s}.flow[{b.name}][{t}]")
                             for b in config.branches
                             if b.target == out.name)
                for st in config.storages:
                    if st.carrier == sector:
                        served += g(f"{s}.q_dis[{st.name}][{t}]")
                        served -= g(f"{s}.q_ch[{st.name}][{t}]")
                if s == "id" and sector == "electricity" and \
                        config.temporary_purchase_kw > 0:
                    served += g(f"id.temp[{t}]")
                load = M[pidx[f"{load_prefix}[{sector}][{t}]"]]
                record(f"{s}.balance[{sector}][{t}]", abs(served - load))

        for st in config.storages:
            prev = st.initial_soc_kwh
            for t in range(H):
                soc = g(f"{s}.soc[{st.name}][{t}]")
                ch = g(f"{s}.q_ch[{st.name}][{t}]")
                dis = g(f"{s}.q_dis[{st.name}][{t}]")
                record(f"{s}.soc_rec[{st.name}][{t}]",
                       abs(soc - prev - ch + dis))
                record(f"{s}.soc_range[{st.name}][{t}]",
                       max(-soc, soc - st.capacity_kwh, 0.0))
                record(f"{s}.excl[{st.name}][{t}]", min(ch, dis))
                prev = soc
            if config.require_terminal_soc:
                record(f"{s}.terminal[{st.name}]",
                       max(st.initial_soc_kwh - prev, 0.0))

    if "id" in stages:
        for inp in config.inputs:
            branches = [b for b in config.branches if b.source == inp.name]
            for t in range(H):
                idv = sum(g(f"id.flow[{b.name}][{t}]") for b in branches)
                if problem.da_reference is None:
                    dav = sum(g(f"da.flow[{b.name}][{t}]")
                              for b in branches)
                else:
                    dav = sum(problem.da_reference[
                        f"da.flow[{b.name}][{t}]"] for b in branches)
                up = g(f"id.up[{inp.name}][{t}]")
                down = g(f"id.down[{inp.name}][{t}]")
                record(f"id.link[{inp.name}][{t}]",
                       abs(idv - dav - up + down))
                record(f"id.reserve_up[{inp.name}][{t}]",
                       max(up - inp.up_limit, 0.0))
                record(f"id.reserve_down[{inp.name}][{t}]",
                       max(down - inp.down_limit, 0.0))
        for c in config.converters:
            if c.reserve_up_kw is None and c.reserve_down_kw is None:
                continue
            feed, _ = _conv_ports(config, c)
            for t in range(H):
                idf = g(f"id.flow[{feed.name}][{t}]")
                if problem.da_reference is None:
                    daf = g(f"da.flow[{feed.name}][{t}]")
                else:
                    daf = problem.da_reference[f"da.flow[{feed.name}][{t}]"]
                if c.reserve_up_kw is not None:
                    record(f"id.cres_up[{c.name}][{t}]",
                           max(idf - daf - c.reserve_up_kw, 0.0))
                if c.reserve_down_kw is not None:
                    record(f"id.cres_dn[{c.name}][{t}]",
                           max(daf - idf - c.reserve_down_kw, 0.0))

    return DispatchCheck(ok=not violations, violations=tuple(violations),
                         max_residual=state["max"],
                         n_checks=state["checks"])


def _f64(x):
    return np.float64(x).tobytes()


def _assert_audits_agree(problem, result, M=None):
    """verify_dispatch equals the reference: verdict, check count, every
    violation's name, order and amount, and the largest residual, bit for
    bit. Returns the check."""
    got = verify_dispatch(problem, result, M=M)
    want = _reference_verify(problem, result, M=M)
    assert (got.ok, got.n_checks) == (want.ok, want.n_checks)
    assert [n for n, _ in got.violations] == [n for n, _ in want.violations]
    assert [_f64(a) for _, a in got.violations] == \
        [_f64(a) for _, a in want.violations]
    assert _f64(got.max_residual) == _f64(want.max_residual)
    return got


def _stage_dispatches(cfg, fc, act):
    """(problem, result) of every stage of one day: the sequential pair,
    the recourse stage reading the commitment from da_reference, and the
    joint problem."""
    da = build_day_ahead(fc, cfg)
    da_res = solve(da)
    assert da_res.status == "optimal"
    intra = build_intra_day(da, da_res, act)
    joint = build_joint(fc, act, cfg)
    return [(da, da_res), (intra, solve(intra)), (joint, solve(joint))]


def _noisy(result, rng, share):
    z = result.primal.copy()
    hit = rng.random(z.size) < share
    z[hit] += rng.normal(0.0, 1.0, hit.sum())
    return dataclasses.replace(result, primal=z)


@pytest.mark.parametrize("hub", ["hub_experiment.yaml", "hub_showcase.yaml"])
def test_audit_matches_the_loop_on_shipped_hubs(hub):
    cfg = load_hub_config(_shipped(hub))
    rng = np.random.default_rng(RNG_SEED + 22)
    for day in range(3):
        fc, act = _hub_day_loads(rng, hub)
        for prob, res in _stage_dispatches(cfg, fc, act):
            assert res.status == "optimal"
            assert prob.stage != "intra_day" or prob.da_reference
            assert _assert_audits_agree(prob, res).ok
            assert not _assert_audits_agree(prob, _noisy(res, rng, 0.05)).ok


def _small_loads(rng, toy):
    # the cogeneration toy serves heat at its fixed ratio to power; the
    # part-load boiler delivers at most 85 kW
    loads = np.zeros((3, 24))
    if toy == "chp":
        loads[0] = rng.uniform(50.0, 150.0, 24)
        loads[1] = 1.2 * loads[0]
    else:
        loads[1] = rng.uniform(10.0, 70.0, 24)
    return loads


@pytest.mark.parametrize("toy", ["reserves", "temporary", "no-terminal",
                                 "chp", "part-load"])
def test_audit_matches_the_loop_on_toy_hubs(toy):
    # converter reserve boxes, temporary purchases, the terminal rule on
    # and off, cogeneration, a part-load curve; each with the default M
    # and an explicit one, on solved, noisy and arbitrary primals
    cfg = {"reserves": _reserve_toy,
           "temporary": lambda: tri_toy(storage=True, grid_ru=20.0,
                                        grid_rd=20.0, temp=100.0),
           "no-terminal": lambda: tri_toy(storage=True, terminal=False),
           "chp": chp_toy, "part-load": pw_boiler_toy}[toy]()
    rng = np.random.default_rng(RNG_SEED + 23)
    if toy in ("chp", "part-load"):
        fc = _small_loads(rng, toy)
        act = fc * 1.05
    else:
        fc, act = _hub_day_loads(rng, "toy")
    for prob, res in _stage_dispatches(cfg, fc, act):
        if res.status != "optimal":     # any optimal-status result will do
            res = dataclasses.replace(solve(build_day_ahead(fc, cfg)),
                                      primal=np.zeros(prob.milp.lp.n_vars))
        arbitrary = dataclasses.replace(
            res, primal=rng.uniform(-20.0, 300.0, res.primal.size))
        for M in (None, prob.M0 * 1.1):
            for r in (res, _noisy(res, rng, 0.1), arbitrary):
                _assert_audits_agree(prob, r, M=M)


# one variable per family of checks, with the families it must trip
_MUTANTS = [
    ("bound", "da.flow[grid_draw][1]", -1e4, ("bounds",)),
    ("node", "da.flow[gas_draw][2]", 3.0, ("da.node[gas_bus][2]",)),
    ("conversion", "da.flow[boiler_heat][3]", 2.0,
     ("da.conv[gas_boiler][3]",)),
    ("part-load", "da.flow[chp_fuel][4]", 5.0, ("da.conv[chp][4]",)),
    ("ratio", "da.flow[chp_heat][5]", 1.5, ("da.ratio[chp][5]",)),
    ("balance", "id.flow[elec_delivery][6]", 4.0,
     ("id.balance[electricity][6]",)),
    ("discharge", "id.q_dis[heat_tank][7]", 2.5,
     ("id.balance[heat][7]", "id.soc_rec[heat_tank][7]")),
    ("state", "da.soc[battery][8]", 600.0,
     ("da.soc_range[battery][8]", "da.soc_rec[battery][9]")),
    ("terminal", "id.soc[ice_bank][23]", -150.0,
     ("id.terminal[ice_bank]",)),
    ("link", "id.up[grid][10]", 30.0, ("id.link[grid][10]",)),
    ("reserve", "id.down[gas_supply][11]", 5000.0,
     ("id.reserve_down[gas_supply][11]",)),
    ("converter box", "id.flow[chp_fuel][12]", 900.0,
     ("id.cres_up[chp][12]",)),
    ("temporary", "id.temp[13]", 9.0, ("id.balance[electricity][13]",)),
]


@pytest.mark.parametrize("family, var, delta, names", _MUTANTS,
                         ids=[m[0] for m in _MUTANTS])
def test_audit_flags_each_family_like_the_loop(family, var, delta, names):
    cfg = load_hub_config(_shipped("hub_showcase.yaml"))
    fc, act = _hub_day_loads(np.random.default_rng(RNG_SEED + 24),
                             "hub_showcase.yaml")
    joint = build_joint(fc, act, cfg)
    res = solve(joint)
    z = res.primal.copy()
    z[joint.var_index[var]] += delta
    check = _assert_audits_agree(joint, dataclasses.replace(res, primal=z))
    flagged = {n for n, _ in check.violations}
    assert set(names) <= flagged, (names, check.violations)


def test_audit_reads_the_commitment_from_da_reference():
    cfg = load_hub_config(_shipped("hub_showcase.yaml"))
    fc, act = _hub_day_loads(np.random.default_rng(RNG_SEED + 25),
                             "hub_showcase.yaml")
    _, (intra, res), _ = _stage_dispatches(cfg, fc, act)
    ref = dict(intra.da_reference)
    ref["da.flow[grid_draw][3]"] += 2.0
    ref["da.flow[chp_fuel][4]"] -= 1000.0
    moved = dataclasses.replace(intra, da_reference=ref)
    check = _assert_audits_agree(moved, res)
    assert {n for n, _ in check.violations} >= {"id.link[grid][3]",
                                                "id.cres_up[chp][4]"}


def test_audit_compiles_once_per_hub_and_stage(monkeypatch):
    compiled = []
    real = dispatch._compile_audit

    def counting(config, stage, *args):
        compiled.append(stage)
        return real(config, stage, *args)

    monkeypatch.setattr(dispatch, "_compile_audit", counting)
    cfg = _reserve_toy()
    rng = np.random.default_rng(RNG_SEED + 26)
    for day in range(3):
        fc, act = _hub_day_loads(rng, "toy")
        for prob, res in _stage_dispatches(cfg, fc, act):
            assert verify_dispatch(prob, res).ok
    assert sorted(compiled) == ["day_ahead", "intra_day", "joint"]


def test_audit_flags_non_finite_primals():
    cfg = load_hub_config(_shipped("hub_experiment.yaml"))
    fc, act = _hub_day_loads(np.random.default_rng(RNG_SEED + 27),
                             "hub_experiment.yaml")
    joint = build_joint(fc, act, cfg)
    res = solve(joint)
    nan = dataclasses.replace(res, primal=np.full(res.primal.size, np.nan))
    check = verify_dispatch(joint, nan)
    assert not check.ok and np.isnan(check.max_residual)
    assert len(check.violations) == check.n_checks
    z = res.primal.copy()
    z[joint.var_index["id.soc[heat_tank][5]"]] = np.inf
    check = verify_dispatch(joint, dataclasses.replace(res, primal=z))
    flagged = {n for n, _ in check.violations}
    assert {"bounds", "id.soc_rec[heat_tank][5]",
            "id.soc_range[heat_tank][5]"} <= flagged
    assert "id.soc_rec[heat_tank][4]" not in flagged


def test_audit_rejects_a_primal_of_the_wrong_length():
    cfg = tri_toy()
    prob = build_day_ahead(toy_loads(np.random.default_rng(RNG_SEED)), cfg)
    res = solve(prob)
    n = res.primal.size
    short = dataclasses.replace(res, primal=res.primal[:-1])
    with pytest.raises(ValueError, match=f"{n - 1} entries.* {n} variables"):
        verify_dispatch(prob, short)
