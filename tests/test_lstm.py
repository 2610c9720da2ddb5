"""Tests for the recurrent load forecaster.

Oracles, in order of independence:

  * hand arithmetic on the cell equations (zero weights make every gate
    sigma(0) = 0.5, so one step from c_prev = 1 gives c = 0.5 and
    h = 0.5 * tanh(0.5));
  * an inline loop re-implementation of the unrolled forward pass, kept
    deliberately naive, which the vectorized code must match to 1e-12;
  * central finite differences for every gradient the backward pass emits;
  * the one-window-at-a-time forward, backward and training loop the
    batched code replaced, kept verbatim below, which the day passes and
    one-window training must match bit for bit, and training on many
    windows within the bound of its reordered sums.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import expit as _sigmoid

import mesval
from mesval.lstm import (
    FEATURES,
    FORMAT_VERSION,
    ForecastError,
    ForecastModel,
    LstmParams,
    Normalization,
    TrainingConfig,
    apply_external_gradient,
    backward_day,
    build_window,
    fit_normalization,
    forecast_metrics,
    forward_day,
    forward_days,
    init_params,
    load_model,
    save_model,
    train_mse,
)
from mesval.lstm import _step

from _util import backward_one, forecast_days_one, forecast_one, step_one

RNG_SEED = 77031


def zero_params(hidden, input_dim, horizon=24):
    H, D = hidden, input_dim
    z = np.zeros
    return LstmParams(W_x=z((4, H, D)), W_h=z((4, H, H)), b=z((4, H)),
                      W_out=z((horizon, H)), b_out=z(horizon))


def identity_model(params, window=24):
    return ForecastModel(params=params, norm=Normalization(lo=0.0, hi=1.0),
                         window=window, seed=0)


def reference_forward(window, params, norm):
    """Naive unrolled forward pass, straight off the cell equations."""
    W_xf, W_xi, W_xo, W_xg = params.W_x
    W_hf, W_hi, W_ho, W_hg = params.W_h
    b_f, b_i, b_o, b_g = params.b
    H = b_f.shape[0]
    h = np.zeros(H)
    c = np.zeros(H)
    sig = lambda a: 1.0 / (1.0 + np.exp(-a))
    for t in range(window.shape[0]):
        x = window[t]
        f = sig(W_xf @ x + W_hf @ h + b_f)
        i = sig(W_xi @ x + W_hi @ h + b_i)
        o = sig(W_xo @ x + W_ho @ h + b_o)
        g = np.tanh(W_xg @ x + W_hg @ h + b_g)
        c = f * c + i * g
        h = o * np.tanh(c)
    out = params.W_out @ h + params.b_out
    return np.maximum(norm.lo + norm.span * out, 0.0)


# ---------------------------------------------------------------------------
# cell equations, hand arithmetic
# ---------------------------------------------------------------------------

def cell_step(params, x, h_prev, c_prev):
    """One step of the stacked cell on one network and one window; returns
    (h, c)."""
    stack = SimpleNamespace(**{name: getattr(params, name)[None]
                               for name in LstmParams.field_names()})
    xw = params.W_x @ np.asarray(x, dtype=float)
    _, c, _, h = _step(stack, xw[None, None], h_prev[None, None],
                       c_prev[None, None])
    return h[0, 0], c[0, 0]


def test_cell_zero_everything():
    p = zero_params(3, 5)
    h, c = cell_step(p, np.zeros(5), np.zeros(3), np.zeros(3))
    np.testing.assert_allclose(c, 0.0, atol=1e-15)
    np.testing.assert_allclose(h, 0.0, atol=1e-15)


def test_cell_zero_weights_carries_half_the_memory():
    # every gate is sigma(0) = 0.5 and the candidate is tanh(0) = 0, so
    # c = 0.5 * c_prev and h = 0.5 * tanh(c)
    p = zero_params(1, 2)
    h, c = cell_step(p, np.array([3.0, -4.0]), np.zeros(1), np.ones(1))
    np.testing.assert_allclose(c, [0.5], atol=1e-15)
    expect = 0.5 * math.tanh(0.5)          # 0.23105857863000487
    np.testing.assert_allclose(h, [expect], atol=1e-15)


def test_cell_saturated_forget_gate_keeps_memory():
    b = np.zeros((4, 2))
    b[0] = 40.0                             # forget gate bias
    p = dataclasses.replace(zero_params(2, 2), b=b)
    _, c = cell_step(p, np.zeros(2), np.zeros(2), np.array([2.0, -1.0]))
    # forget ~ 1, input 0.5, candidate 0: c ~ c_prev exactly
    np.testing.assert_allclose(c, [2.0, -1.0], rtol=1e-12)


def test_cell_shape_mismatch_raises():
    # the cell takes no outside state; its input reaches it only as a
    # window, whose feature width both day passes check
    model = identity_model(zero_params(3, 5), window=6)
    with pytest.raises(ForecastError, match="shape"):
        forecast_one(model, np.zeros((6, 4)))
    with pytest.raises(ForecastError, match="shape"):
        backward_one(model, np.zeros((6, 4)), np.zeros(24))


# ---------------------------------------------------------------------------
# day forward pass
# ---------------------------------------------------------------------------

def test_forward_zero_params_returns_clamped_head_bias():
    p = zero_params(4, 5)
    p = dataclasses.replace(p, b_out=np.linspace(-1.0, 1.0, 24))
    model = identity_model(p)
    fc = forecast_one(model, np.zeros((24, 5)))
    np.testing.assert_allclose(fc, np.maximum(np.linspace(-1.0, 1.0, 24), 0.0),
                               atol=1e-15)


def test_forward_matches_reference_loop():
    rng = np.random.default_rng(RNG_SEED)
    for trial in range(5):
        H = int(rng.integers(2, 8))
        w = int(rng.integers(3, 12))
        params = init_params(seed=int(rng.integers(1 << 30)), hidden_size=H)
        norm = Normalization(lo=80.0, hi=320.0)
        model = ForecastModel(params=params, norm=norm, window=w, seed=0)
        window = rng.uniform(-1.0, 1.0, (w, 5))
        got = forecast_one(model, window)
        np.testing.assert_allclose(got, reference_forward(window, params, norm),
                                    rtol=1e-12, atol=1e-12)
        assert np.all(got >= 0.0)


def test_forward_seeded_golden_vector():
    # regression pin: generated once from the audited forward pass above
    params = init_params(seed=20240917, hidden_size=4)
    model = ForecastModel(params=params, norm=Normalization(lo=100.0, hi=300.0),
                          window=6, seed=20240917)
    hours = np.arange(6)
    window = np.column_stack([
        np.linspace(0.2, 0.8, 6),
        np.sin(2 * np.pi * hours / 24), np.cos(2 * np.pi * hours / 24),
        np.full(6, np.sin(2 * np.pi * 3 / 7)),
        np.full(6, np.cos(2 * np.pi * 3 / 7)),
    ])
    got = forecast_one(model, window)
    np.testing.assert_allclose(got, reference_forward(window, params,
                                                      model.norm),
                               rtol=1e-12)
    np.testing.assert_allclose(got[:3], GOLDEN_FORWARD_HEAD, rtol=1e-10)


GOLDEN_FORWARD_HEAD = np.array([
    # frozen after the first audited run; slot 0 lands on the kW clamp
    0.0, 21.532685995199373, 196.52437817355366,
])


def test_forward_wrong_window_length_raises():
    model = identity_model(zero_params(3, 5), window=24)
    with pytest.raises(ForecastError, match="window"):
        forecast_one(model, np.zeros((10, 5)))


def test_forward_nan_features_raise():
    model = identity_model(zero_params(3, 5))
    bad = np.zeros((24, 5))
    bad[3, 1] = np.nan
    with pytest.raises(ForecastError, match="finite"):
        forecast_one(model, bad)


def test_forward_days_equals_forward_day_bitwise_with_its_checks():
    rng = np.random.default_rng(RNG_SEED + 3)
    params = init_params(seed=20240917, hidden_size=6)
    model = ForecastModel(params=params, norm=Normalization(lo=50.0, hi=400.0),
                          window=8, seed=0)
    windows = [rng.uniform(-1.0, 1.0, (8, 5)) for _ in range(5)]
    for batch in (windows, windows[:1]):
        got = forecast_days_one(model, batch)
        want = np.stack([forecast_one(model, w) for w in batch])
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    bad = windows[2].copy()
    bad[3, 1] = np.nan
    with pytest.raises(ForecastError, match="finite"):
        forecast_days_one(model, [windows[0], bad])
    with pytest.raises(ForecastError, match="shape"):
        forecast_days_one(model, [windows[0], np.zeros((8, 4))])
    with pytest.raises(ForecastError, match="window"):
        forecast_days_one(model, [np.zeros((10, 5))])
    with pytest.raises(ForecastError, match="non-empty"):
        forecast_days_one(model, [])


def test_forward_randomized_stress_stays_finite():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(20):
        params = init_params(seed=int(rng.integers(1 << 30)), hidden_size=8)
        scale = 10.0 ** rng.integers(-2, 3)
        params = dataclasses.replace(
            params, W_out=params.W_out * scale, b_out=params.b_out * scale)
        model = ForecastModel(params=params,
                              norm=Normalization(lo=0.0, hi=4000.0),
                              window=24, seed=0)
        fc = forecast_one(model, rng.uniform(-1, 1, (24, 5)))
        assert np.all(np.isfinite(fc))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def fd_gradients(model, window, weights, h=1e-5):
    """Central finite differences of weights . forecast over every param."""
    grads = {}
    for name in LstmParams.field_names():
        arr = getattr(model.params, name)
        g = np.zeros_like(arr)
        flat = g.reshape(-1)
        base = arr.reshape(-1)
        for k in range(base.size):
            for sign in (+1.0, -1.0):
                bumped = base.copy()
                bumped[k] += sign * h
                p = dataclasses.replace(model.params,
                                        **{name: bumped.reshape(arr.shape)})
                m = dataclasses.replace(model, params=p)
                val = float(weights @ forecast_one(m, window))
                flat[k] += sign * val / (2 * h)
        grads[name] = g
    return grads


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(RNG_SEED + 2)
    for trial in range(4):
        H = int(rng.integers(2, 8))
        w = int(rng.integers(3, 12))
        params = init_params(seed=int(rng.integers(1 << 30)), hidden_size=H)
        # keep the head output far from the clamp so the loss is smooth
        model = ForecastModel(params=params,
                              norm=Normalization(lo=3000.0, hi=3600.0),
                              window=w, seed=0)
        window = rng.uniform(-1.0, 1.0, (w, 5))
        weights = rng.normal(0.0, 1.0, 24)
        got = backward_one(model, window, weights)
        want = fd_gradients(model, window, weights)
        for name in LstmParams.field_names():
            np.testing.assert_allclose(
                getattr(got, name), want[name], rtol=1e-4, atol=1e-7,
                err_msg=f"gradient mismatch in {name} (trial {trial})")


def test_backward_zero_loss_gives_zero_gradients():
    params = init_params(seed=5, hidden_size=4)
    model = identity_model(params, window=8)
    got = backward_one(model, np.ones((8, 5)) * 0.3, np.zeros(24))
    for name in LstmParams.field_names():
        np.testing.assert_allclose(getattr(got, name), 0.0, atol=0)


def test_backward_output_bias_gradient_is_masked_loss():
    # the head is affine, so d(loss)/d(b_out) = unclamped loss weights
    # scaled by the de-normalization span
    rng = np.random.default_rng(RNG_SEED + 3)
    params = init_params(seed=11, hidden_size=5)
    norm = Normalization(lo=2000.0, hi=2400.0)
    model = ForecastModel(params=params, norm=norm, window=6, seed=0)
    window = rng.uniform(-1, 1, (6, 5))
    weights = rng.normal(0.0, 1.0, 24)
    fc = forecast_one(model, window)
    assert np.all(fc > 0)                   # nothing clamped here
    got = backward_one(model, window, weights)
    np.testing.assert_allclose(got.b_out, weights * norm.span, rtol=1e-12)


def test_clamped_slots_contribute_exactly_zero_gradient():
    params = init_params(seed=13, hidden_size=4)
    # head bias pushed far negative: every de-normalized output is clamped
    params = dataclasses.replace(params, b_out=np.full(24, -50.0))
    model = ForecastModel(params=params, norm=Normalization(lo=0.0, hi=100.0),
                          window=6, seed=0)
    window = np.full((6, 5), 0.4)
    fc = forecast_one(model, window)
    np.testing.assert_allclose(fc, 0.0, atol=0)
    got = backward_one(model, window, np.ones(24))
    for name in LstmParams.field_names():
        np.testing.assert_allclose(getattr(got, name), 0.0, atol=0,
                                   err_msg=name)


def test_apply_external_gradient_single_slot_sparsity():
    rng = np.random.default_rng(RNG_SEED + 4)
    params = init_params(seed=17, hidden_size=6)
    model = ForecastModel(params=params, norm=Normalization(lo=50.0, hi=250.0),
                          window=8, seed=0)
    window = rng.uniform(-1, 1, (8, 5))
    g = np.zeros(24)
    g[7] = 2.5
    stepped = step_one(model, g, window, lr=1e-3)
    dW = stepped.params.W_out - model.params.W_out
    db = stepped.params.b_out - model.params.b_out
    assert np.any(dW[7] != 0.0)
    np.testing.assert_allclose(np.delete(dW, 7, axis=0), 0.0, atol=0)
    assert db[7] != 0.0
    np.testing.assert_allclose(np.delete(db, 7), 0.0, atol=0)
    # recurrent parameters are shared by every slot, so they may all move
    assert np.any(stepped.params.W_x[3] != model.params.W_x[3])


def test_apply_external_gradient_zero_cases():
    rng = np.random.default_rng(RNG_SEED + 5)
    params = init_params(seed=19, hidden_size=4)
    model = ForecastModel(params=params, norm=Normalization(lo=50.0, hi=250.0),
                          window=6, seed=0)
    window = rng.uniform(-1, 1, (6, 5))
    for same in (step_one(model, np.zeros(24), window, 1e-2),
                 step_one(model, rng.normal(size=24), window, 0.0)):
        for name in LstmParams.field_names():
            np.testing.assert_allclose(getattr(same.params, name),
                                       getattr(model.params, name), atol=0)


# ---------------------------------------------------------------------------
# initialization and training
# ---------------------------------------------------------------------------

def test_init_uniform_range_and_determinism():
    a = init_params(seed=123, hidden_size=16)
    b = init_params(seed=123, hidden_size=16)
    c = init_params(seed=124, hidden_size=16)
    lim = 1.0 / math.sqrt(16)
    for name in LstmParams.field_names():
        arr = getattr(a, name)
        assert np.all(np.abs(arr) <= lim)
        np.testing.assert_array_equal(arr, getattr(b, name))
    assert any(not np.array_equal(getattr(a, n), getattr(c, n))
               for n in LstmParams.field_names())


def test_training_config_validation():
    cfg = TrainingConfig()
    assert cfg.lr == 1e-3 and cfg.mse_epochs == 50 and cfg.e2e_epochs == 5
    assert cfg.window == 24 and cfg.hidden_size == 32
    with pytest.raises(ForecastError, match="lr"):
        TrainingConfig(lr=0.0)
    with pytest.raises(ForecastError, match="window"):
        TrainingConfig(window=0)
    with pytest.raises(ForecastError, match="epoch"):
        TrainingConfig(mse_epochs=-1)
    with pytest.raises(ForecastError, match="window"):
        TrainingConfig(window=25)
    for field, bad in (("mse_epochs", True), ("e2e_epochs", 1.0),
                       ("hidden_size", "8"), ("lr", "1e-3"),
                       ("e2e_lr", False)):
        with pytest.raises(ForecastError, match=field):
            TrainingConfig(**{field: bad})
    assert TrainingConfig(lr=1, mse_epochs=np.int64(3)).mse_epochs == 3


def synthetic_loads(rng, days, base=200.0, swing=60.0):
    hours = np.arange(24)
    shape = base + swing * np.sin(2 * np.pi * (hours - 7) / 24)
    return shape + rng.normal(0.0, 5.0, (days, 24))


def test_train_mse_deterministic_and_zero_epochs():
    rng = np.random.default_rng(RNG_SEED + 6)
    loads = synthetic_loads(rng, 12)
    dows = np.arange(12) % 7
    cfg = TrainingConfig(hidden_size=6, mse_epochs=4)
    m1, tr1 = train_mse(loads, dows, cfg, seed=31)
    m2, tr2 = train_mse(loads, dows, cfg, seed=31)
    np.testing.assert_array_equal(tr1, tr2)
    for name in LstmParams.field_names():
        np.testing.assert_array_equal(getattr(m1.params, name),
                                      getattr(m2.params, name))
    frozen, tr0 = train_mse(loads, dows,
                            dataclasses.replace(cfg, mse_epochs=0), seed=31)
    assert tr0.size == 0
    init = init_params(seed=31, hidden_size=6)
    for name in LstmParams.field_names():
        np.testing.assert_array_equal(getattr(frozen.params, name),
                                      getattr(init, name))


def test_train_mse_loss_trace_non_increasing_small_lr():
    rng = np.random.default_rng(RNG_SEED + 7)
    loads = synthetic_loads(rng, 10)
    dows = np.arange(10) % 7
    cfg = TrainingConfig(hidden_size=4, mse_epochs=40, lr=1e-3)
    _, trace = train_mse(loads, dows, cfg, seed=37)
    assert trace.size == 40
    assert np.all(np.diff(trace) <= 1e-12)


def test_train_mse_fits_constant_loads():
    # one repeated day (same weekday throughout), so an exact fit exists
    loads = np.full((8, 24), 150.0)
    dows = np.zeros(8, dtype=int)
    cfg = TrainingConfig(hidden_size=4, mse_epochs=200, lr=0.5)
    model, trace = train_mse(loads, dows, cfg, seed=41)
    assert trace[-1] < 1e-4
    window = build_window(loads[0], int(dows[0]), model.norm, model.window)
    np.testing.assert_allclose(forecast_one(model, window), 150.0, atol=2.0)


def test_train_mse_empty_dataset_raises():
    cfg = TrainingConfig(hidden_size=4)
    with pytest.raises(ForecastError, match="day"):
        train_mse(np.zeros((1, 24)), np.zeros(1, dtype=int), cfg, seed=1)


# ---------------------------------------------------------------------------
# batched passes vs the one-window-at-a-time loop
# ---------------------------------------------------------------------------

# The per-window cell, unroll, backward sweep and training loop that the
# batched code replaced, kept verbatim (names prefixed with ref_). The day
# passes keep every product at its per-window shape and add in the same
# order, so they must reproduce these bits exactly; so must training on
# one window per network, where no sum runs across windows.

def ref_step(params, x, h_prev, c_prev):
    """Stacked gate activations (rows in GATES order), c, tanh(c) and h."""
    z = params.W_x @ x + params.W_h @ h_prev + params.b
    z[:3] = _sigmoid(z[:3])
    z[3] = np.tanh(z[3])
    f, i, o, g = z
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return z, c, tc, o * tc


def ref_unroll(params, window):
    """Run the window through the cell; keep per-step values for backward."""
    H = params.hidden_size
    h = np.zeros(H)
    c = np.zeros(H)
    steps = []
    for t in range(window.shape[0]):
        x = window[t]
        z, c_new, tc, h_new = ref_step(params, x, h, c)
        steps.append((x, z, c, tc, h))
        h, c = h_new, c_new
    out = params.W_out @ h + params.b_out
    return steps, h, out


def ref_backward_from_head(params, steps, h_final, dout):
    """Reverse-mode sweep from a gradient at the (normalized) head output."""
    g_x = np.zeros_like(params.W_x)
    g_h = np.zeros_like(params.W_h)
    g_b = np.zeros_like(params.b)
    W_hT = params.W_h.transpose(0, 2, 1)
    dh = params.W_out.T @ dout
    dc = np.zeros(params.hidden_size)
    for x, z, c_prev, tc, h_prev in reversed(steps):
        f, i, o, g = z
        dc = dc + dh * o * (1.0 - tc * tc)
        da = np.stack([dc * c_prev, dc * g, dh * tc, dc * i])
        da[:3] *= z[:3]
        da[:3] *= 1.0 - z[:3]
        da[3] *= 1.0 - g * g
        g_x += da[:, :, None] * x
        g_h += da[:, :, None] * h_prev
        g_b += da
        dh = (W_hT @ da[:, :, None])[:, :, 0].sum(axis=0)
        dc = dc * f
    return {"W_x": g_x, "W_h": g_h, "b": g_b,
            "W_out": np.outer(dout, h_final), "b_out": dout.copy()}


def ref_train_mse(loads, dows, config, seed):
    norm = fit_normalization(loads)
    windows = [build_window(loads[d - 1], int(dows[d - 1]), norm,
                            config.window)
               for d in range(1, loads.shape[0])]
    targets = [norm.scale(loads[d]) for d in range(1, loads.shape[0])]
    n = len(windows)

    params = init_params(seed, hidden_size=config.hidden_size)
    trace = np.zeros(config.mse_epochs)
    denom = float(n * 24)
    for epoch in range(config.mse_epochs):
        total = {name: np.zeros_like(getattr(params, name))
                 for name in LstmParams.field_names()}
        loss = 0.0
        for window, y in zip(windows, targets):
            steps, h_final, out = ref_unroll(params, window)
            err = out - y
            loss += float(err @ err)
            sample = ref_backward_from_head(params, steps, h_final,
                                            2.0 * err / denom)
            for name in total:
                total[name] += sample[name]
        trace[epoch] = loss / denom
        params = LstmParams(**{
            name: getattr(params, name) - config.lr * total[name]
            for name in LstmParams.field_names()})
    return params, trace


def assert_params_identical(got, want):
    for name in LstmParams.field_names():
        a, b = getattr(got, name), want[name]
        assert np.array_equal(a, b), (
            f"{name} differs, worst {np.max(np.abs(a - b)):.3e}")


def test_day_passes_match_per_window_reference_bitwise():
    rng = np.random.default_rng(RNG_SEED + 9)
    for _ in range(40):
        H = int(rng.integers(1, 13))
        w = int(rng.integers(1, 25))
        params = init_params(seed=int(rng.integers(1 << 30)), hidden_size=H)
        norm = Normalization(lo=float(rng.uniform(-20.0, 20.0)), hi=60.0)
        model = ForecastModel(params=params, norm=norm, window=w, seed=0)
        window = rng.normal(0.0, 1.0, (w, 5))
        dloss = rng.normal(size=24)
        steps, h_final, out = ref_unroll(params, window)
        raw = norm.unscale(out)
        assert np.array_equal(forecast_one(model, window),
                              np.maximum(raw, 0.0))
        dout = np.where(raw > 0.0, dloss, 0.0) * norm.span
        want = ref_backward_from_head(params, steps, h_final, dout)
        assert_params_identical(backward_one(model, window, dloss), want)


def train_cases():
    # a single training window, the smallest window and hidden size, zero
    # epochs, the default split's 29 windows, then random shapes
    cases = [(2, 24, 3, 4), (6, 1, 2, 3), (5, 9, 1, 3), (4, 5, 3, 0),
             (30, 24, 32, 2)]
    rng = np.random.default_rng(RNG_SEED + 10)
    for _ in range(4):
        cases.append((int(rng.integers(2, 17)), int(rng.integers(1, 25)),
                      int(rng.integers(1, 13)), int(rng.integers(0, 6))))
    return cases


def sum_order_tolerance(windows, epochs):
    """Relative bound on what summing over the windows in another order
    moves, per epoch trained.

    train_mse adds its windows' gradients per network in BLAS order and
    its loss in one reduction, where the per-window loop adds window by
    window. Each sum has at most n = windows * 24 terms (24 steps, or 24
    horizon slots, per window). Any order of an n-term sum is within
    (n - 1) u sum|terms| of the exact one, u = eps / 2 (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., 2002, section 4.2), so
    two orders differ by at most (n - 1) eps sum|terms|: about 1.5e-13 of
    the terms' scale per epoch at the default split's 29 windows. The
    worst seen in this file's training cases was 1.6e-16 relative on
    weights and 2.8e-16 on traces, under 3% of this bound.
    """
    return max(epochs, 1) * (windows * 24 - 1) * np.finfo(float).eps


def assert_within(got, want, tol):
    """``got`` within ``tol`` of ``want``, relative to ``want``'s scale."""
    scale = np.max(np.abs(want), initial=0.0)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= tol * scale


def assert_params_within(got, want, tol):
    for name in LstmParams.field_names():
        assert_within(getattr(got, name), getattr(want, name), tol)


@pytest.mark.parametrize("days,window,hidden,epochs", train_cases())
def test_train_mse_matches_per_window_loop_within_sum_order_tolerance(
        days, window, hidden, epochs):
    rng = np.random.default_rng(days * 1000 + window * 10 + hidden)
    loads = synthetic_loads(rng, days)
    dows = rng.integers(0, 7, days)
    cfg = TrainingConfig(window=window, hidden_size=hidden,
                         mse_epochs=epochs, lr=0.05)
    model, trace = train_mse(loads, dows, cfg, seed=days + hidden)
    want_params, want_trace = ref_train_mse(loads, dows, cfg,
                                            seed=days + hidden)
    tol = sum_order_tolerance(days - 1, epochs)
    assert trace.shape == (epochs,)
    np.testing.assert_allclose(trace, want_trace, rtol=tol, atol=0.0)
    assert_params_within(model.params, want_params, tol)


def _bytes(params):
    """Every field's bytes, signs of zero included."""
    if isinstance(params, dict):
        return [params[name].tobytes() for name in LstmParams.field_names()]
    return [getattr(params, name).tobytes()
            for name in LstmParams.field_names()]


def _sector_loads(rng, days):
    """(days, 3, 24) loads, one column per sector at its own level."""
    return np.stack([synthetic_loads(rng, days, base=b, swing=w)
                     for b, w in ((1800.0, 500.0), (900.0, 300.0),
                                  (450.0, 150.0))], axis=1)


@pytest.mark.parametrize("days,window,hidden,epochs",
                         [(2, 24, 3, 2), (6, 7, 4, 3), (9, 24, 32, 2)])
def test_stacked_train_mse_matches_each_sector_bitwise(days, window, hidden,
                                                       epochs):
    # three sectors train as one stack; each comes out as it trains alone,
    # sign bits included, and as the per-window loop trains it within the
    # bound of the reordered sums
    rng = np.random.default_rng(RNG_SEED + 11 + days)
    loads = _sector_loads(rng, days)
    dows = rng.integers(0, 7, days)
    cfg = TrainingConfig(window=window, hidden_size=hidden,
                         mse_epochs=epochs, lr=0.05)
    seeds = (days, days + 1, days + 2)
    models, traces = train_mse(loads, dows, cfg, seed=seeds)
    assert len(models) == 3 and traces.shape == (3, epochs)
    tol = sum_order_tolerance(days - 1, epochs)
    for j, seed in enumerate(seeds):
        want_params, want_trace = ref_train_mse(loads[:, j], dows, cfg, seed)
        np.testing.assert_allclose(traces[j], want_trace, rtol=tol, atol=0.0)
        assert_params_within(models[j].params, want_params, tol)
        alone, alone_trace = train_mse(loads[:, j], dows, cfg, seed=seed)
        assert _bytes(alone.params) == _bytes(models[j].params)
        assert alone_trace.tobytes() == traces[j].tobytes()
        assert models[j].norm == alone.norm and models[j].seed == seed
    with pytest.raises(ForecastError, match="seeds"):
        train_mse(loads, dows, cfg, seed=seeds[:2])


@pytest.mark.parametrize("window,hidden,epochs",
                         [(24, 3, 4), (12, 6, 2), (1, 1, 3), (7, 32, 2)])
def test_one_window_training_matches_per_window_loop_bitwise(window, hidden,
                                                             epochs):
    # two days make one training window, so no sum runs across windows:
    # every weight is the per-window loop's, sign bits included, alone and
    # in a three-sector stack; only the loss's own sum may reorder
    rng = np.random.default_rng(RNG_SEED + 15 + window * 10 + hidden)
    loads = _sector_loads(rng, 2)
    dows = rng.integers(0, 7, 2)
    cfg = TrainingConfig(window=window, hidden_size=hidden,
                         mse_epochs=epochs, lr=0.05)
    seeds = (3, 4, 5)
    models, traces = train_mse(loads, dows, cfg, seed=seeds)
    tol = sum_order_tolerance(1, epochs)
    for j, seed in enumerate(seeds):
        want_params, want_trace = ref_train_mse(loads[:, j], dows, cfg, seed)
        alone, alone_trace = train_mse(loads[:, j], dows, cfg, seed=seed)
        assert _bytes(alone.params) == _bytes(want_params)
        assert _bytes(models[j].params) == _bytes(want_params)
        np.testing.assert_allclose(alone_trace, want_trace, rtol=tol,
                                   atol=0.0)
        assert traces[j].tobytes() == alone_trace.tobytes()


# Trains a three-sector stack on loads read from argv[1] and prints a hash
# of every weight's and trace's bytes. With 420 windows per sector the
# weight gradients' products are large enough for OpenBLAS to use two
# threads, and long enough that it would cut their sums by thread count.
_THREADED_TRAINING = """
import hashlib, sys
import numpy as np
from mesval.lstm import LstmParams, TrainingConfig, train_mse
loads = np.load(sys.argv[1])
cfg = TrainingConfig(window=4, hidden_size=32, mse_epochs=2, lr=0.05)
models, traces = train_mse(loads, np.arange(len(loads)) % 7, cfg,
                           seed=(7, 8, 9))
digest = hashlib.sha256(traces.tobytes())
for m in models:
    for name in LstmParams.field_names():
        digest.update(getattr(m.params, name).tobytes())
print(digest.hexdigest())
"""


def test_stacked_train_mse_is_byte_identical_at_one_and_two_blas_threads(
        tmp_path):
    path = tmp_path / "loads.npy"
    np.save(path, _sector_loads(np.random.default_rng(RNG_SEED + 16), 421))
    package_root = str(Path(mesval.__file__).resolve().parent.parent)
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", _THREADED_TRAINING, str(path)],
            capture_output=True, text=True, env=env, check=True)
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def _three_models(rng, hidden, window):
    return [ForecastModel(params=init_params(seed=int(rng.integers(1 << 30)),
                                             hidden_size=hidden),
                          norm=Normalization(lo=lo, hi=hi), window=window,
                          seed=0)
            for lo, hi in ((-30.0, 60.0), (5.0, 80.0), (-60.0, 20.0))]


def test_stacked_training_day_matches_each_sector_bitwise():
    # one stacked forward for three models; the members step from its
    # tape as the per-window reference steps each alone, and a non-member
    # is returned untouched
    rng = np.random.default_rng(RNG_SEED + 12)
    lr = 1e-3
    for _ in range(10):
        H, w = int(rng.integers(1, 9)), int(rng.integers(1, 25))
        models = _three_models(rng, H, w)
        windows = [rng.normal(0.0, 1.0, (w, 5)) for _ in models]
        dloss = rng.normal(size=(3, 24))
        tape = forward_day(models, windows)
        assert all(a is b for a, b in zip(tape.windows, windows))
        members = sorted(rng.choice(3, int(rng.integers(1, 4)),
                                    replace=False).tolist())
        stepped = apply_external_gradient(tape, dloss, members, lr)
        for k, (m, window) in enumerate(zip(models, windows)):
            steps, h_final, out = ref_unroll(m.params, window)
            raw = m.norm.unscale(out)
            assert tape.forecasts[k].tobytes() == \
                np.maximum(raw, 0.0).tobytes()
            assert tape.forecasts[k].tobytes() == \
                forecast_one(m, window).tobytes()
            if k not in members:
                assert stepped[k] is m
                continue
            dout = np.where(raw > 0.0, dloss[k], 0.0) * m.norm.span
            grads = ref_backward_from_head(m.params, steps, h_final, dout)
            want = {name: getattr(m.params, name) - lr * grads[name]
                    for name in LstmParams.field_names()}
            assert _bytes(stepped[k].params) == _bytes(want)
            alone = step_one(m, dloss[k], window, lr)
            assert _bytes(stepped[k].params) == _bytes(alone.params)


def test_stacked_split_forecasts_match_each_model_bitwise():
    rng = np.random.default_rng(RNG_SEED + 13)
    models = _three_models(rng, 5, 8)
    windows = [[rng.normal(0.0, 1.0, (8, 5)) for _ in range(4)]
               for _ in models]
    got = forward_days(models, windows)
    assert got.shape == (3, 4, 24)
    for k, m in enumerate(models):
        assert got[k].tobytes() == forecast_days_one(m, windows[k]).tobytes()


def test_stacked_passes_check_their_inputs():
    rng = np.random.default_rng(RNG_SEED + 14)
    models = _three_models(rng, 4, 6)
    windows = [rng.normal(0.0, 1.0, (6, 5)) for _ in models]
    wider = models[:2] + [dataclasses.replace(
        models[2], params=init_params(seed=1, hidden_size=5))]
    with pytest.raises(ForecastError, match="one parameter layout"):
        forward_day(wider, windows)
    with pytest.raises(ForecastError, match="windows"):
        forward_day(models, windows[:2])
    with pytest.raises(ForecastError, match="shape"):
        forward_day(models, windows[:2] + [np.zeros((5, 5))])
    with pytest.raises(ForecastError, match="windows"):
        forward_days(models, [windows, windows, windows[:1]])
    tape = forward_day(models, windows)
    with pytest.raises(ForecastError, match="forecasts"):
        apply_external_gradient(tape, np.zeros((2, 24)), [0], 1e-3)
    with pytest.raises(ForecastError, match="finite"):
        apply_external_gradient(tape, np.full((3, 24), np.nan), [0], 1e-3)
    with pytest.raises(ForecastError, match="members"):
        apply_external_gradient(tape, np.zeros((3, 24)), [3], 1e-3)
    with pytest.raises(ForecastError, match="lr"):
        apply_external_gradient(tape, np.zeros((3, 24)), [0], -1.0)
    assert apply_external_gradient(tape, np.zeros((3, 24)), [],
                                   1e-3) == tape.models


def test_member_positions_must_be_integers():
    # a float or a bool would pass the range check and then index numpy
    rng = np.random.default_rng(RNG_SEED + 17)
    models = _three_models(rng, 4, 6)
    tape = forward_day(models, [rng.normal(0.0, 1.0, (6, 5)) for _ in models])
    dloss = np.zeros((3, 24))
    for bad in ([0.5], [True], [np.bool_(False)], [0, 1.0]):
        with pytest.raises(ForecastError, match="integer"):
            apply_external_gradient(tape, dloss, bad, 1e-3)
        with pytest.raises(ForecastError, match="integer"):
            backward_day(tape, dloss, bad)
    assert set(backward_day(tape, dloss, [np.int64(2), 0])) == {0, 2}


def test_backward_day_gives_each_member_the_per_window_gradient_bitwise():
    # a member subset of a three-model tape: each member's gradient is the
    # per-window reference sweep's, as the one-model day pass is (a clamped
    # slot's zero may carry the other sign), and nothing else comes back
    rng = np.random.default_rng(RNG_SEED + 18)
    for members in ([1], [0, 2], [2, 1, 0], [2, 2]):
        H, w = int(rng.integers(1, 9)), int(rng.integers(1, 25))
        models = _three_models(rng, H, w)
        windows = [rng.normal(0.0, 1.0, (w, 5)) for _ in models]
        dloss = rng.normal(size=(3, 24))
        got = backward_day(forward_day(models, windows), dloss, members)
        assert sorted(got) == sorted(set(members))
        for k in got:
            m = models[k]
            steps, h_final, out = ref_unroll(m.params, windows[k])
            raw = m.norm.unscale(out)
            dout = np.where(raw > 0.0, dloss[k], 0.0) * m.norm.span
            want = ref_backward_from_head(m.params, steps, h_final, dout)
            assert_params_identical(got[k], want)


def test_backward_day_checks_its_inputs():
    rng = np.random.default_rng(RNG_SEED + 19)
    models = _three_models(rng, 4, 6)
    tape = forward_day(models, [rng.normal(0.0, 1.0, (6, 5)) for _ in models])
    with pytest.raises(ForecastError, match="forecasts"):
        backward_day(tape, np.zeros((3, 23)), [0])
    with pytest.raises(ForecastError, match="finite"):
        backward_day(tape, np.full((3, 24), np.inf), [0])
    with pytest.raises(ForecastError, match="members"):
        backward_day(tape, np.zeros((3, 24)), [-1])
    assert backward_day(tape, np.zeros((3, 24)), []) == {}


def test_one_tape_unrolls_once(monkeypatch):
    # the backward pass and the step read the forward pass's step values
    import mesval.lstm as lstm
    calls = []
    real = lstm._unroll

    def counting(params, windows):
        calls.append(windows.shape)
        return real(params, windows)

    monkeypatch.setattr(lstm, "_unroll", counting)
    rng = np.random.default_rng(RNG_SEED + 20)
    models = _three_models(rng, 3, 5)
    tape = forward_day(models, [rng.normal(0.0, 1.0, (5, 5)) for _ in models])
    dloss = rng.normal(size=(3, 24))
    grads = backward_day(tape, dloss, [0, 2])
    stepped = apply_external_gradient(tape, dloss, [0, 2], 1e-3)
    assert calls == [(3, 1, 5, 5)]
    for k in (0, 2):
        assert _bytes(stepped[k].params) == _bytes({
            name: getattr(models[k].params, name) - 1e-3 * getattr(
                grads[k], name) for name in LstmParams.field_names()})


# ---------------------------------------------------------------------------
# features and normalization
# ---------------------------------------------------------------------------

def test_normalization_roundtrip_and_degenerate_span():
    n = fit_normalization(np.array([100.0, 220.0, 180.0]))
    assert n.lo == 100.0 and n.hi == 220.0
    x = np.array([100.0, 160.0, 220.0])
    np.testing.assert_allclose(n.scale(x), [0.0, 0.5, 1.0], atol=1e-15)
    np.testing.assert_allclose(n.unscale(n.scale(x)), x, atol=1e-12)
    flat = fit_normalization(np.full(5, 42.0))
    assert flat.span == 1.0
    np.testing.assert_allclose(flat.scale(np.array([42.0])), [0.0], atol=0)
    np.testing.assert_allclose(flat.unscale(np.array([0.0])), [42.0], atol=0)


def test_build_window_layout():
    norm = Normalization(lo=0.0, hi=200.0)
    loads = np.linspace(0.0, 200.0, 24)
    w = build_window(loads, day_of_week=2, norm=norm, window=24)
    assert w.shape == (24, 5)
    np.testing.assert_allclose(w[:, 0], np.linspace(0.0, 1.0, 24), atol=1e-15)
    np.testing.assert_allclose(w[:, 1], np.sin(2 * np.pi * np.arange(24) / 24))
    np.testing.assert_allclose(w[:, 2], np.cos(2 * np.pi * np.arange(24) / 24))
    np.testing.assert_allclose(w[:, 3], np.sin(2 * np.pi * 2 / 7))
    np.testing.assert_allclose(w[:, 4], np.cos(2 * np.pi * 2 / 7))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_metrics_perfect_forecast_is_zero():
    x = np.array([100.0, 200.0, 300.0])
    mae, rmse, mape = forecast_metrics(x, x)
    assert mae == 0.0 and rmse == 0.0 and mape == 0.0


def test_metrics_single_pair_closed_form():
    mae, rmse, mape = forecast_metrics(np.array([110.0]), np.array([100.0]))
    np.testing.assert_allclose([mae, rmse, mape], [10.0, 10.0, 10.0],
                               atol=1e-12)


def test_metrics_symmetric_errors():
    mae, rmse, mape = forecast_metrics(np.array([110.0, 90.0]),
                                       np.array([100.0, 100.0]))
    np.testing.assert_allclose([mae, rmse, mape], [10.0, 10.0, 10.0],
                               atol=1e-12)


def test_metrics_zero_actual_raises():
    with pytest.raises(ForecastError, match="zero"):
        forecast_metrics(np.array([1.0]), np.array([0.0]))


def test_metrics_length_mismatch_raises():
    with pytest.raises(ForecastError, match="length"):
        forecast_metrics(np.ones(3), np.ones(4))


# ---------------------------------------------------------------------------
# save / load
# ---------------------------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(RNG_SEED + 8)
    loads = synthetic_loads(rng, 9)
    cfg = TrainingConfig(hidden_size=5, mse_epochs=3)
    model, _ = train_mse(loads, np.arange(9) % 7, cfg, seed=47)
    path = tmp_path / "sector.npz"
    save_model(model, path)
    back = load_model(path)
    assert back.window == model.window and back.seed == model.seed
    assert back.norm == model.norm
    for name in LstmParams.field_names():
        np.testing.assert_array_equal(getattr(back.params, name),
                                      getattr(model.params, name))
    window = build_window(loads[0], 0, model.norm, model.window)
    np.testing.assert_array_equal(forecast_one(back, window),
                                  forecast_one(model, window))


# format version 1 as first written: one array per gate, in this order
V1_GATES = "fiog"                       # forget, input, output, candidate


def v1_shapes(hidden, input_dim, horizon):
    H, D = hidden, input_dim
    return {**{f"W_x{k}": (H, D) for k in V1_GATES},
            **{f"W_h{k}": (H, H) for k in V1_GATES},
            **{f"b_{k}": (H,) for k in V1_GATES},
            "W_out": (horizon, H), "b_out": (horizon,)}


def v1_arrays(params):
    """The stacked parameters under their v1 per-gate names."""
    out = {}
    for k, gate in enumerate(V1_GATES):
        out[f"W_x{gate}"] = params.W_x[k]
        out[f"W_h{gate}"] = params.W_h[k]
        out[f"b_{gate}"] = params.b[k]
    out["W_out"] = params.W_out
    out["b_out"] = params.b_out
    return out


def test_v1_payload_loads_each_gate_into_its_slot(tmp_path):
    H, D, T = 3, len(FEATURES), 24
    shapes = v1_shapes(H, D, T)
    # distinct values per gate and per element: field index plus a ramp
    v1 = {name: n + 0.001 * np.arange(np.prod(shape)).reshape(shape)
          for n, (name, shape) in enumerate(shapes.items())}
    path = tmp_path / "v1.npz"
    np.savez(path, format_version=np.array(1),
             flat=np.concatenate([v1[name].ravel() for name in shapes]),
             hidden_size=np.array(H), input_dim=np.array(D),
             horizon=np.array(T), window=np.array(24), seed=np.array(5),
             norm_lo=np.array(10.0), norm_hi=np.array(90.0))
    model = load_model(path)
    np.testing.assert_array_equal(model.params.b[0], v1["b_f"])
    np.testing.assert_array_equal(model.params.W_h[3], v1["W_hg"])
    np.testing.assert_array_equal(model.params.W_x[2], v1["W_xo"])
    got = v1_arrays(model.params)
    for name in shapes:
        np.testing.assert_array_equal(got[name], v1[name], err_msg=name)
    # and the model writes the same payload back
    save_model(model, tmp_path / "again.npz")
    with np.load(path) as first, np.load(tmp_path / "again.npz") as again:
        np.testing.assert_array_equal(again["flat"], first["flat"])
        assert int(again["format_version"]) == 1


def test_init_draws_in_v1_gate_order():
    seed, H = 2024, 6
    rng = np.random.default_rng(seed)
    lim = 1.0 / math.sqrt(H)
    want = {name: rng.uniform(-lim, lim, shape)
            for name, shape in v1_shapes(H, len(FEATURES), 24).items()}
    got = v1_arrays(init_params(seed, hidden_size=H))
    for name in want:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


def test_load_rejects_wrong_version(tmp_path):
    model = identity_model(zero_params(3, 5))
    path = tmp_path / "m.npz"
    save_model(model, path)
    blob = dict(np.load(path))
    blob["format_version"] = np.array(FORMAT_VERSION + 1)
    np.savez(path, **blob)
    with pytest.raises(ForecastError, match="version"):
        load_model(path)


def test_load_rejects_truncated_payload(tmp_path):
    model = identity_model(zero_params(3, 5))
    path = tmp_path / "m.npz"
    save_model(model, path)
    blob = dict(np.load(path))
    blob["flat"] = blob["flat"][:-1]
    np.savez(path, **blob)
    with pytest.raises(ForecastError, match="length"):
        load_model(path)
