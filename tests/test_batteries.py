"""Contracts of the random instance generators behind the check batteries."""

import dataclasses

import numpy as np

from mesval.batteries import (_fd_slots, random_box_lp, random_milp,
                              run_all_batteries)
from mesval.bnb import branch_and_bound
from mesval.lp import solve_lp
from mesval.lstm import (ForecastModel, LstmParams, Normalization,
                         forward_day, init_params)


def test_random_box_lp_is_feasible_at_seed_point():
    rng = np.random.default_rng(11)
    for _ in range(20):
        lp, M0 = random_box_lp(rng)
        sol = solve_lp(lp, M0)
        assert sol.status == "optimal"


def test_random_milp_is_feasible_at_seed_point():
    rng = np.random.default_rng(12)
    for _ in range(10):
        prob, M0 = random_milp(rng)
        res = branch_and_bound(prob, M0, engine="highs")
        assert res.status == "optimal"


def test_quick_batteries_pass_and_report():
    results = run_all_batteries(quick=True)
    assert len(results) == 4
    for res in results:
        assert res.passed, res.line()
        assert res.name in res.line()
        assert "PASS" in res.line()


def fd_slot_reference(model, name, idx, window, dloss, h):
    """The one-model-per-bump finite difference the batched one replaced."""
    def loss_at(delta: float) -> float:
        arr = getattr(model.params, name).copy()
        arr[idx] += delta
        params = dataclasses.replace(model.params, **{name: arr})
        bumped = dataclasses.replace(model, params=params)
        return float(dloss @ forward_day(bumped, window))

    return (loss_at(h) - loss_at(-h)) / (2.0 * h)


def test_batched_fd_slots_match_one_forward_per_bump_bitwise():
    # two configurations drawn as the BPTT battery draws them
    rng = np.random.default_rng(704)
    for _ in range(2):
        hidden = int(rng.integers(2, 9))
        w = int(rng.integers(4, 13))
        params = init_params(seed=int(rng.integers(0, 2**31)),
                             hidden_size=hidden)
        model = ForecastModel(params=params,
                              norm=Normalization(lo=3000.0, hi=3600.0),
                              window=w)
        window = rng.normal(0.0, 0.5, size=(w, params.input_dim))
        dloss = rng.normal(size=params.horizon)
        for name in LstmParams.field_names():
            got = _fd_slots(model, name, window, dloss, 1e-5)
            want = [fd_slot_reference(model, name, idx, window, dloss, 1e-5)
                    for idx in np.ndindex(getattr(params, name).shape)]
            assert got == want, name
