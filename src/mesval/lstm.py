"""Recurrent day-ahead load forecaster, one model per sector.

A single-layer LSTM reads a window of hourly features (the previous
day's own-sector loads plus calendar encodings) and a linear head maps
the final hidden state to 24 hourly forecasts.  Forecasts are produced
in kW, de-normalized from the model's per-sector min-max statistics and
clamped at zero.

Two training paths share the same unrolled network:

  * :func:`train_mse` runs full-batch gradient descent on the mean
    squared error in normalized space;
  * :func:`apply_external_gradient` takes a gradient of some outside
    objective with respect to the kW forecast (for example the scheduling
    cost) and performs one descent step through the clamp and the
    de-normalization.

The backward pass is exact reverse-mode differentiation of the unrolled
cell; clamped forecast slots contribute zero gradient.

The four gates share one stacked layout, as in PyTorch's ``nn.LSTM``:
``W_x`` is ``(4, H, D)``, ``W_h`` is ``(4, H, H)`` and ``b`` is ``(4, H)``,
row ``k`` of each belonging to gate ``GATES[k]`` (forget, input, output,
candidate). Raveled in field order this is the order of the saved
``flat`` payload, which format version 1 wrote one gate array at a time
(input weights gate by gate, then recurrent weights, then biases, then
the head), so those files load unchanged.

The unrolled pass and its backward sweep run a batch: windows are
``(B, T, D)`` and every step value carries the batch axis first.
:func:`train_mse` unrolls all of a sector's training windows at once,
:func:`forward_days` a sequence of forecast days; :func:`forward_day` and
:func:`backward_day` are the batch of one. The weights may carry the same
batch axis, one network per item, so several sectors' forecasters run as
one stack: :func:`train_mse` on a ``(days, sectors, 24)`` load array,
:func:`forward_days` on a split's windows per model, and
:func:`forward_day` on one window per model, whose :class:`DayTape` keeps
the step values that :func:`apply_external_gradient` sweeps backward for
the members, with no second forward pass. The day passes (forecasts,
:func:`backward_day` and the members' step) are bit-identical to running
one window at a time, one network at a time, because of two rules:

  * every product keeps its per-window shape: the gate pre-activations
    come from ``W_x @ x[..., None]`` (for all steps at once) and
    ``W_h @ h[:, None, :, None]``, so each item is still an
    ``(H, D) @ (D, 1)`` or ``(H, H) @ (H, 1)`` product and numpy makes
    the same BLAS call per item; the head works the same way, and a
    weight gradient's product over a network's one window has a single
    term;
  * every sum keeps its order: a window's gradients build up over
    reversed time, and no sum runs across networks.

:func:`train_mse` keeps the forward pass but sums across windows: at
each reversed step one ``(4H, B) @ (B, D)`` and one ``(4H, B) @ (B, H)``
product per network add its B windows' weight gradients in BLAS order,
and each network's loss is one reduction. That moves the weights' last
bits, within ``(n - 1) eps`` of the summed terms' magnitude for sums of
``n`` = windows * 24 terms; with one window per network (two days of
loads) they are the per-window loop's bit for bit. A network trains to
the same bits stacked with others or alone, and at any BLAS thread
count (see :data:`_WINDOW_BLOCK`). One ``(4H, D) @ (D, B)`` product per
network in the forward pass would be faster still but would move the
forecasts' last bits.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.special import expit as _sigmoid

from .hub import HORIZON

FEATURES = ("load", "sin_hour", "cos_hour", "sin_dow", "cos_dow")
GATES = ("forget", "input", "output", "candidate")
FORMAT_VERSION = 1


class ForecastError(ValueError):
    """Invalid forecaster input, configuration, or saved payload."""


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Normalization:
    """Min-max statistics of one sector's training loads."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ForecastError("normalization bounds must be finite")
        if self.hi < self.lo:
            raise ForecastError("normalization hi below lo")

    @property
    def span(self) -> float:
        # constant series would make scaling divide by zero
        width = self.hi - self.lo
        return width if width > 1e-12 else 1.0

    def scale(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=float) - self.lo) / self.span

    def unscale(self, values: np.ndarray) -> np.ndarray:
        return self.lo + self.span * np.asarray(values, dtype=float)


def fit_normalization(values: np.ndarray) -> Normalization:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ForecastError("cannot fit normalization to an empty series")
    if not np.all(np.isfinite(arr)):
        raise ForecastError("loads must be finite to fit normalization")
    return Normalization(lo=float(arr.min()), hi=float(arr.max()))


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LstmParams:
    """All weights of the network; also reused as the gradient container."""

    W_x: np.ndarray
    W_h: np.ndarray
    b: np.ndarray
    W_out: np.ndarray
    b_out: np.ndarray

    def __post_init__(self):
        H = self.b.shape[1] if self.b.ndim == 2 else -1
        D = self.W_x.shape[2] if self.W_x.ndim == 3 else -1
        T = self.b_out.shape[0] if self.b_out.ndim == 1 else -1
        want = _field_shapes(H, D, T)
        for name in self.field_names():
            arr = getattr(self, name)
            if arr.shape != want[name]:
                raise ForecastError(
                    f"parameter {name} has shape {arr.shape}, "
                    f"expected {want[name]}")
            if not np.all(np.isfinite(arr)):
                raise ForecastError(f"parameter {name} is not finite")

    @classmethod
    def field_names(cls) -> tuple:
        return tuple(f.name for f in dataclasses.fields(cls))

    @property
    def hidden_size(self) -> int:
        return self.b.shape[1]

    @property
    def input_dim(self) -> int:
        return self.W_x.shape[2]

    @property
    def horizon(self) -> int:
        return self.b_out.shape[0]


def _field_shapes(hidden: int, input_dim: int, horizon: int) -> dict:
    n = len(GATES)
    return {"W_x": (n, hidden, input_dim), "W_h": (n, hidden, hidden),
            "b": (n, hidden), "W_out": (horizon, hidden), "b_out": (horizon,)}


def init_params(seed: int, hidden_size: int = 32) -> LstmParams:
    """Seeded uniform init on [-1/sqrt(hidden), +1/sqrt(hidden)]."""
    if hidden_size < 1:
        raise ForecastError("hidden_size must be >= 1")
    rng = np.random.default_rng(seed)
    lim = 1.0 / math.sqrt(hidden_size)
    shapes = _field_shapes(hidden_size, len(FEATURES), HORIZON)
    return LstmParams(**{name: rng.uniform(-lim, lim, shape)
                         for name, shape in shapes.items()})


# ---------------------------------------------------------------------------
# batched cell and unrolled forward pass
# ---------------------------------------------------------------------------

def _step(params, xw, h_prev, c_prev):
    """One recurrence step for a batch.

    ``xw`` is the step's input product ``W_x @ x``, ``(B, 4, H)``;
    ``h_prev`` and ``c_prev`` are ``(B, H)``. Returns the stacked gate
    activations ``(B, 4, H)`` (rows in GATES order), then c, tanh(c) and
    h, each ``(B, H)``.
    """
    z = (xw + (params.W_h @ h_prev[:, None, :, None])[..., 0]) + params.b
    _sigmoid(z[:, :3], out=z[:, :3])
    np.tanh(z[:, 3], out=z[:, 3])
    f, i, o, g = z.swapaxes(0, 1)
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return z, c, tc, o * tc


def _unroll(params, windows: np.ndarray):
    """Run a batch of windows ``(B, T, D)`` through the cell; keep the
    per-step values for backward."""
    h = np.zeros((windows.shape[0], params.b.shape[-1]))
    c = np.zeros_like(h)
    # the input products of every step at once, (B, T, 4, H); a time axis
    # goes in before the gate axis of W_x, batched or not
    xw = (np.expand_dims(params.W_x, -4)
          @ windows[:, :, None, :, None])[..., 0]
    steps = []
    for t in range(windows.shape[1]):
        z, c_new, tc, h_new = _step(params, xw[:, t], h, c)
        steps.append((windows[:, t], z, c, tc, h))
        h, c = h_new, c_new
    out = (params.W_out @ h[:, :, None])[..., 0] + params.b_out
    return steps, h, out


def forecast_batch(params, norm: Normalization,
                   windows: np.ndarray) -> np.ndarray:
    """Forecasts ``(B, 24)`` in kW, clamped at zero, for windows
    ``(B, T, D)``.

    ``params`` needs only the five weight fields. Any of them may carry a
    leading batch axis that broadcasts against the windows', so one call
    can evaluate many perturbed copies of a network on one window.
    """
    _, _, out = _unroll(params, windows)
    return np.maximum(norm.unscale(out), 0.0)


def _check_window(model: "ForecastModel", window: np.ndarray) -> np.ndarray:
    arr = np.asarray(window, dtype=float)
    want = (model.window, model.params.input_dim)
    if arr.ndim != 2 or arr.shape != want:
        raise ForecastError(f"expected window of shape {want}, "
                            f"got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ForecastError("window features must be finite")
    return arr


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForecastModel:
    """Trained network plus the statistics needed to leave model space."""

    params: LstmParams
    norm: Normalization
    window: int
    seed: int = 0

    def __post_init__(self):
        if self.window < 1:
            raise ForecastError("window must be >= 1")


def _stack_weights(models, repeats: int = 1) -> SimpleNamespace:
    """The weights of ``models`` on one batch axis, each model's
    ``repeats`` times in a row: item ``k * repeats + j`` is model k's."""
    shapes = {(m.window,) + tuple(getattr(m.params, name).shape
                                  for name in LstmParams.field_names())
              for m in models}
    if len(shapes) != 1:
        raise ForecastError("stacked forecasters need one window length "
                            "and one parameter layout")
    stacked = {name: np.stack([getattr(m.params, name) for m in models])
               for name in LstmParams.field_names()}
    if repeats > 1:
        stacked = {name: np.repeat(a, repeats, axis=0)
                   for name, a in stacked.items()}
    return SimpleNamespace(**stacked)


def _norm_columns(models, repeats: int = 1) -> tuple:
    """Each item's normalization ``(lo, span)`` as ``(items, 1)`` columns,
    in :func:`_stack_weights`' item order."""
    lo = np.repeat([m.norm.lo for m in models], repeats)[:, None]
    span = np.repeat([m.norm.span for m in models], repeats)[:, None]
    return lo, span


@dataclass(frozen=True)
class DayTape:
    """One forward pass of several forecasters, one window each, run as a
    stack: the forecasts, and the step values the members' backward pass
    sweeps (see :func:`apply_external_gradient`)."""

    models: tuple
    windows: tuple            # the windows read, as passed
    forecasts: np.ndarray     # (S, 24) kW, clamped at zero
    raw: np.ndarray           # (S, 24) kW before the clamp
    weights: SimpleNamespace  # the models' weights on the batch axis
    steps: list
    h_final: np.ndarray


def forward_day(model, window):
    """Forecast 24 hourly loads in kW, clamped at zero.

    Given a sequence of S models and a sequence of S windows, one each,
    the models run as one stack and the result is a :class:`DayTape`
    whose ``forecasts`` row k is ``forward_day(models[k], windows[k])``,
    bit for bit.
    """
    if isinstance(model, ForecastModel):
        arr = _check_window(model, window)
        return forecast_batch(model.params, model.norm, arr[None])[0]
    models, windows = tuple(model), tuple(window)
    if len(models) != len(windows) or not models:
        raise ForecastError(f"{len(models)} models need as many windows, "
                            f"got {len(windows)}")
    weights = _stack_weights(models)
    arr = np.stack([_check_window(m, w) for m, w in zip(models, windows)])
    steps, h_final, out = _unroll(weights, arr)
    lo, span = _norm_columns(models)
    raw = lo + span * out
    return DayTape(models=models, windows=windows,
                   forecasts=np.maximum(raw, 0.0), raw=raw, weights=weights,
                   steps=steps, h_final=h_final)


def forward_days(model, windows) -> np.ndarray:
    """Forecasts ``(B, 24)`` for a non-empty sequence of B windows: each
    row is :func:`forward_day` of its window, bit for bit, with the same
    window checks, but all of them run in one batch.

    Given a sequence of S models and, per model, a sequence of B windows,
    all S * B forecasts run in one batch and come back as ``(S, B, 24)``.
    """
    if isinstance(model, ForecastModel):
        arr = [_check_window(model, w) for w in windows]
        if not arr:
            raise ForecastError("forecasts need a non-empty sequence of "
                                "windows")
        return forecast_batch(model.params, model.norm, np.stack(arr))
    models, per_model = tuple(model), [list(w) for w in windows]
    counts = {len(w) for w in per_model}
    if len(per_model) != len(models) or len(counts) != 1 or 0 in counts:
        raise ForecastError("stacked forecasts need one non-empty sequence "
                            "of windows per model, all of one length")
    B = counts.pop()
    arr = np.stack([_check_window(m, w)
                    for m, ws in zip(models, per_model) for w in ws])
    _, _, out = _unroll(_stack_weights(models, B), arr)
    lo, span = _norm_columns(models, B)
    return np.maximum(lo + span * out, 0.0).reshape(len(models), B, -1)


def _check_dloss(dloss_dforecast, shape: tuple, what: str) -> np.ndarray:
    dloss = np.asarray(dloss_dforecast, dtype=float)
    if dloss.shape != shape:
        raise ForecastError(f"loss gradient shape {dloss.shape} does not "
                            f"match {what} {shape}")
    if not np.all(np.isfinite(dloss)):
        raise ForecastError("loss gradient must be finite")
    return dloss


def backward_day(model: ForecastModel, window: np.ndarray,
                 dloss_dforecast: np.ndarray) -> LstmParams:
    """Exact gradient of dloss_dforecast . forecast w.r.t. every parameter.

    Slots where the kW clamp is active pass no gradient.
    """
    arr = _check_window(model, window)
    dloss = _check_dloss(dloss_dforecast, (model.params.horizon,),
                         "horizon")
    steps, h_final, out = _unroll(model.params, arr[None])
    raw = model.norm.unscale(out[0])
    dout = np.where(raw > 0.0, dloss, 0.0) * model.norm.span
    grads = _backward_from_head(model.params, steps, h_final, dout[None], 1)
    return LstmParams(**{name: g[0] for name, g in grads.items()})


# OpenBLAS cuts a long GEMM sum into blocks, and past a few hundred terms
# where it cuts depends on its thread count; sums of at most this many
# windows are one block at any thread count, so training's bits are too
_WINDOW_BLOCK = 256


def _window_sum(a, b):
    """``a @ b`` for stacks ``(nets, m, per)`` and ``(nets, per, k)``: the
    sum over the ``per`` windows, one block of windows after another."""
    total = a[..., :_WINDOW_BLOCK] @ b[:, :_WINDOW_BLOCK]
    for lo in range(_WINDOW_BLOCK, b.shape[1], _WINDOW_BLOCK):
        total += a[..., lo:lo + _WINDOW_BLOCK] @ b[:, lo:lo + _WINDOW_BLOCK]
    return total


def _backward_from_head(params: LstmParams, steps, h_final, dout,
                        nets: int) -> dict:
    """Reverse-mode sweep from gradients ``(B, 24)`` at the (normalized)
    head output, for ``nets`` networks whose batches of windows sit one
    after another on the batch axis, all of one size. Every returned
    gradient is its network's total over its windows, with the network
    axis first. ``params`` may carry a batch axis of its own, one network
    per item.

    At each step the windows' terms go into their network's totals as one
    ``(4H, per) @ (per, D)`` and one ``(4H, per) @ (per, H)`` product per
    network, summed in BLAS order (in blocks of :data:`_WINDOW_BLOCK`
    windows); the head gradients are one product per network. With one
    window per network every such product has a single term and is exact,
    so the sweep is bit for bit the per-window one.
    """
    n, horizon = dout.shape
    per = n // nets
    rows = params.b.shape[-2] * params.b.shape[-1]    # 4H, gate by gate
    g_x = np.zeros((nets, rows, params.W_x.shape[-1]))
    g_h = np.zeros((nets, rows, params.W_h.shape[-1]))
    g_b = np.zeros((nets, rows))
    W_hT = params.W_h.swapaxes(-1, -2)
    dh = (params.W_out.swapaxes(-1, -2) @ dout[:, :, None])[..., 0]
    dc = np.zeros_like(dh)
    for x, z, c_prev, tc, h_prev in reversed(steps):
        f, i, o, g = z.swapaxes(0, 1)
        dc = dc + dh * o * (1.0 - tc * tc)
        # gradient at the gate outputs, then through sigmoid' = s (1 - s)
        # for forget, input and output and tanh' = 1 - g^2 for the candidate
        da = np.stack([dc * c_prev, dc * g, dh * tc, dc * i], axis=1)
        da[:, :3] *= z[:, :3]
        da[:, :3] *= 1.0 - z[:, :3]
        da[:, 3] *= 1.0 - g * g
        dA = da.reshape(nets, per, rows)
        dAT = dA.swapaxes(1, 2)
        g_x += _window_sum(dAT, x.reshape(nets, per, -1))
        g_h += _window_sum(dAT, h_prev.reshape(nets, per, -1))
        g_b += dA.sum(axis=1)
        # one product per gate, summed in gate order: a single 4H-term
        # product would reorder the sum and move the last bits
        dh = (W_hT @ da[..., None])[..., 0].sum(axis=1)
        dc = dc * f
    d_out = dout.reshape(nets, per, horizon)
    return {"W_x": g_x.reshape((nets,) + params.W_x.shape[-3:]),
            "W_h": g_h.reshape((nets,) + params.W_h.shape[-3:]),
            "b": g_b.reshape((nets,) + params.b.shape[-2:]),
            "W_out": _window_sum(d_out.swapaxes(1, 2),
                                 h_final.reshape(nets, per, -1)),
            "b_out": d_out.sum(axis=1)}


def _stepped(model: ForecastModel, grads, lr: float) -> ForecastModel:
    """``model`` after one descent step along ``grads[name]``."""
    params = LstmParams(**{
        name: getattr(model.params, name) - lr * grads[name]
        for name in LstmParams.field_names()})
    return dataclasses.replace(model, params=params)


def apply_external_gradient(model, dloss_dforecast: np.ndarray, window,
                            lr: float):
    """One descent step against a gradient taken at the kW forecast.

    The stacked form is ``apply_external_gradient(tape, dloss_dforecast,
    members, lr)``: a :class:`DayTape` in place of the model, one gradient
    row per tape model, and in place of the window the positions of the
    models that step (the members). It returns the tape's models with
    each member stepped and every other model as it was. The members'
    backward pass runs as one stack from the tape's step values, with no
    second forward pass; each stepped model equals the one the
    single-model call returns, bit for bit.
    """
    if lr < 0.0 or not np.isfinite(lr):
        raise ForecastError("lr must be finite and >= 0")
    if isinstance(model, ForecastModel):
        grads = backward_day(model, window, dloss_dforecast)
        return _stepped(model, vars(grads), lr)
    tape = model
    members = sorted(set(window))
    if not all(0 <= k < len(tape.models) for k in members):
        raise ForecastError(f"members {members} are not positions of the "
                            f"{len(tape.models)} models on the tape")
    dloss = _check_dloss(dloss_dforecast, tape.raw.shape,
                         "the tape's forecasts")
    if not members:
        return tape.models
    weights, steps, h_final = tape.weights, tape.steps, tape.h_final
    if len(members) < len(tape.models):     # the members' items alone
        weights = SimpleNamespace(**{name: a[members] for name, a
                                     in vars(weights).items()})
        steps = [tuple(a[members] for a in step) for step in steps]
        h_final = h_final[members]
    _, span = _norm_columns([tape.models[k] for k in members])
    dout = np.where(tape.raw[members] > 0.0, dloss[members], 0.0) * span
    grads = _backward_from_head(weights, steps, h_final, dout,
                                len(members))
    out = list(tape.models)
    for j, k in enumerate(members):
        out[k] = _stepped(tape.models[k],
                          {name: g[j] for name, g in grads.items()}, lr)
    return tuple(out)


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def build_window(prev_loads: np.ndarray, day_of_week: int,
                 norm: Normalization, window: int) -> np.ndarray:
    """Feature matrix for one forecast day.

    Rows are the trailing `window` hours of the previous day: scaled load,
    cyclic hour-of-day encoding, cyclic day-of-week encoding.
    """
    loads = np.asarray(prev_loads, dtype=float)
    if loads.ndim != 1 or loads.size == 0:
        raise ForecastError("prev_loads must be a non-empty 1-D array")
    if not np.all(np.isfinite(loads)):
        raise ForecastError("prev_loads must be finite")
    w = int(window)
    if not 1 <= w <= loads.size:
        raise ForecastError(f"window {w} exceeds the {loads.size} "
                            f"available hours")
    tail = loads[-w:]
    hours = np.arange(loads.size - w, loads.size, dtype=float)
    dow = int(day_of_week) % 7
    return np.column_stack([
        norm.scale(tail),
        np.sin(2.0 * np.pi * hours / HORIZON),
        np.cos(2.0 * np.pi * hours / HORIZON),
        np.full(w, np.sin(2.0 * np.pi * dow / 7.0)),
        np.full(w, np.cos(2.0 * np.pi * dow / 7.0)),
    ])


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters shared by the pre-training and fine-tuning paths."""

    lr: float = 1e-3
    mse_epochs: int = 50
    e2e_epochs: int = 5
    e2e_lr: float = 1e-6
    window: int = HORIZON
    hidden_size: int = 32

    def __post_init__(self):
        # bool is an int subclass, and YAML reads `true` as one
        for name, kind, what in (
                ("lr", numbers.Real, "a number"),
                ("e2e_lr", numbers.Real, "a number"),
                ("mse_epochs", numbers.Integral, "an integer"),
                ("e2e_epochs", numbers.Integral, "an integer"),
                ("window", numbers.Integral, "an integer"),
                ("hidden_size", numbers.Integral, "an integer")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ForecastError(f"{name} must be {what}, "
                                    f"got {value!r}")
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise ForecastError("lr must be positive")
        if not (np.isfinite(self.e2e_lr) and self.e2e_lr > 0.0):
            raise ForecastError("e2e_lr must be positive")
        if self.mse_epochs < 0 or self.e2e_epochs < 0:
            raise ForecastError("epoch counts must be >= 0")
        if not 1 <= self.window <= HORIZON:
            raise ForecastError(f"window must be between 1 and the "
                                f"{HORIZON} hours of a day, got {self.window}")
        if self.hidden_size < 1:
            raise ForecastError("hidden_size must be >= 1")


def _mse_gradient(params, windows: np.ndarray, targets: np.ndarray,
                  nets: int) -> tuple:
    """Mean squared error of each of ``nets`` networks over its batch of
    windows, and its gradient.

    ``windows`` holds the networks' batches one after another, all of one
    size; ``params`` carries one network per item, or, for one network,
    none. Each network's loss is one reduction over its errors, and its
    gradients come summed over its windows from the backward sweep. The
    batch's step values die on return, before the next epoch unrolls.
    """
    steps, h_final, out = _unroll(params, windows)
    err = out - targets
    denom = float(err.size // nets)
    grads = _backward_from_head(params, steps, h_final, 2.0 * err / denom,
                                nets)
    per_net = err.reshape(nets, -1)
    return (per_net * per_net).sum(axis=1) / denom, grads


def train_mse(loads: np.ndarray, day_of_week: np.ndarray,
              config: TrainingConfig, seed) -> tuple:
    """Full-batch gradient descent on normalized mean squared error.

    `loads` is (days, 24) in kW; day d is forecast from day d-1's window.
    Returns the trained model and the per-epoch loss trace.

    With `loads` (days, S, 24), one column per sector as a
    :class:`mesval.data.DayDataset` holds them, and `seed` a sequence of
    S seeds, the S networks train as one stack and the result is the list
    of S models and the (S, epochs) traces; each is what the call on its
    column alone returns, bit for bit.

    Each epoch sums a network's window gradients in BLAS order (see
    :func:`_backward_from_head`), so the weights are those of a
    one-window-at-a-time loop up to the order of those sums, and bit for
    bit with one window (two days).
    """
    loads = np.asarray(loads, dtype=float)
    dows = np.asarray(day_of_week, dtype=int)
    stacked = loads.ndim == 3
    if loads.ndim not in (2, 3) or loads.shape[-1] != HORIZON:
        raise ForecastError(f"loads must be (days, {HORIZON}) or "
                            f"(days, sectors, {HORIZON})")
    columns = loads if stacked else loads[:, None, :]
    seeds = tuple(seed) if stacked else (seed,)
    if len(seeds) != columns.shape[1]:
        raise ForecastError(f"{columns.shape[1]} load columns need as many "
                            f"seeds, got {len(seeds)}")
    if not np.all(np.isfinite(loads)):
        raise ForecastError("loads must be finite")
    if dows.shape != (loads.shape[0],):
        raise ForecastError("day_of_week must have one entry per day")
    if loads.shape[0] < 2:
        raise ForecastError("need at least two days to form one "
                            "window/target pair")

    S = len(seeds)
    norms = [fit_normalization(columns[:, j]) for j in range(S)]
    windows = np.stack([build_window(columns[d - 1, j], int(dows[d - 1]),
                                     norms[j], config.window)
                        for j in range(S) for d in range(1, loads.shape[0])])
    targets = np.concatenate([norms[j].scale(columns[1:, j])
                              for j in range(S)])

    inits = [init_params(sd, hidden_size=config.hidden_size) for sd in seeds]
    params = {name: np.stack([getattr(p, name) for p in inits])
              for name in LstmParams.field_names()}
    B = loads.shape[0] - 1
    trace = np.zeros((S, config.mse_epochs))
    for epoch in range(config.mse_epochs):
        # one network per item, or the one network for all of them
        items = SimpleNamespace(**{
            name: np.repeat(a, B, axis=0) if S > 1 else a[0]
            for name, a in params.items()})
        loss, grads = _mse_gradient(items, windows, targets, S)
        trace[:, epoch] = loss
        params = {name: params[name] - config.lr * grads[name]
                  for name in params}
        for name, a in params.items():
            if not np.all(np.isfinite(a)):
                raise ForecastError(f"parameter {name} is not finite")
    models = [ForecastModel(
        params=LstmParams(**{name: a[j] for name, a in params.items()}),
        norm=norms[j], window=config.window, seed=seeds[j])
        for j in range(S)]
    if stacked:
        return models, trace
    return models[0], trace[0]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def forecast_metrics(forecast: np.ndarray, actual: np.ndarray) -> tuple:
    """(MAE, RMSE, MAPE) in kW, kW and percent."""
    f = np.asarray(forecast, dtype=float).ravel()
    a = np.asarray(actual, dtype=float).ravel()
    if f.shape != a.shape:
        raise ForecastError(f"length mismatch: {f.size} forecasts, "
                            f"{a.size} actuals")
    if f.size == 0:
        raise ForecastError("length zero: no samples to score")
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(a))):
        raise ForecastError("metrics need finite inputs")
    if np.any(a == 0.0):
        raise ForecastError("actual loads contain zero values; "
                            "percentage error is undefined")
    err = f - a
    mae = float(np.mean(np.abs(err)))
    rmse = float(math.sqrt(np.mean(err * err)))
    mape = float(100.0 * np.mean(np.abs(err / a)))
    return mae, rmse, mape


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_model(model: ForecastModel, path) -> None:
    """Write the model as a flat parameter vector plus shape metadata."""
    p = model.params
    flat = np.concatenate([getattr(p, name).ravel()
                           for name in LstmParams.field_names()])
    np.savez(path, format_version=np.array(FORMAT_VERSION), flat=flat,
             hidden_size=np.array(p.hidden_size),
             input_dim=np.array(p.input_dim),
             horizon=np.array(p.horizon),
             window=np.array(model.window),
             seed=np.array(model.seed),
             norm_lo=np.array(model.norm.lo),
             norm_hi=np.array(model.norm.hi))


def load_model(path) -> ForecastModel:
    with np.load(path) as z:
        missing = [k for k in ("format_version", "flat", "hidden_size",
                               "input_dim", "horizon", "window", "seed",
                               "norm_lo", "norm_hi") if k not in z.files]
        if missing:
            raise ForecastError(f"saved model is missing keys: {missing}")
        version = int(z["format_version"])
        if version != FORMAT_VERSION:
            raise ForecastError(f"unsupported format version {version}, "
                                f"expected {FORMAT_VERSION}")
        shapes = _field_shapes(int(z["hidden_size"]), int(z["input_dim"]),
                               int(z["horizon"]))
        flat = np.asarray(z["flat"], dtype=float)
        expected = sum(int(np.prod(s)) for s in shapes.values())
        if flat.size != expected:
            raise ForecastError(f"parameter payload length {flat.size}, "
                                f"expected {expected}")
        fields = {}
        at = 0
        for name, shape in shapes.items():
            size = int(np.prod(shape))
            fields[name] = flat[at:at + size].reshape(shape)
            at += size
        norm = Normalization(lo=float(z["norm_lo"]), hi=float(z["norm_hi"]))
        return ForecastModel(params=LstmParams(**fields), norm=norm,
                             window=int(z["window"]), seed=int(z["seed"]))
