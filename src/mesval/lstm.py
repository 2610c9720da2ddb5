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

Every pass runs a stack of networks, each on its own batch of windows,
in one layout: every weight field carries a leading network axis
(``W_x`` is ``(nets, 4, H, D)``), windows are ``(nets, per, T, D)`` and
every step value is ``(nets, per, ...)``. A network axis of 1, on the
weights or on the windows, broadcasts against the other, so no weight is
copied per window. The passes take a sequence of models:
:func:`train_mse` trains one network per column of a ``(days, sectors,
24)`` load array (a ``(days, 24)`` array is a stack of one),
:func:`forward_days` forecasts a split's windows per model, and
:func:`forward_day` one window per model. Its :class:`DayTape` keeps the
step values that :func:`backward_day` and :func:`apply_external_gradient`
sweep backward for the members, with no second forward pass.
:func:`forecast_batch` runs raw weights in the same layout, such as a
finite-difference check's bumped copies of one network. The day passes
(forecasts, :func:`backward_day` and the members' step) are bit-identical
to running one window at a time, one network at a time, because of two
rules:

  * every product keeps its per-window shape: the gate pre-activations
    come from ``W_x @ x[..., None]`` (for all steps at once) and
    ``W_h @ h[..., None]``, so each item is still an ``(H, D) @ (D, 1)``
    or ``(H, H) @ (H, 1)`` product and numpy makes the same BLAS call per
    item; the head works the same way, and a weight gradient's product
    over a network's one window has a single term;
  * every sum keeps its order: a window's gradients build up over
    reversed time, and no sum runs across networks.

:func:`train_mse`, with more than one window per network, runs each
network's products over its windows as BLAS GEMMs instead, in the layout
of Appleyard et al. ("Optimizing Performance of Recurrent Neural
Networks on GPUs", 2016): the input products of every window and step
are one ``(per T, D) @ (D, 4H)`` product, the recurrent products of a
step one ``(per, H) @ (H, 4H)`` product, and backward, a step's ``dh``
one ``(per, 4H) @ (4H, H)`` product. At each reversed step one
``(4H, per) @ (per, D)`` and one ``(4H, per) @ (per, H)`` product per
network add its windows' weight gradients, and each network's loss is
one reduction. These sums run in BLAS order, which moves the weights' last
bits; the tests hold the move per epoch within ``(n - 1) eps`` of the
weights' magnitude, ``n`` = windows * 24. With one window per network
(two days of loads) every product keeps its per-window shape, and
training is the per-window loop's bit for bit. A network trains to the
same bits stacked with others or alone, and at any BLAS thread count
(see :data:`_WINDOW_BLOCK`). The forecast passes keep the per-window
products although GEMMs would be faster there too: a GEMM's sums run in
another order than the per-window product's, so the forecasts, and with
them every priced cost, would move in their last bits.
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
# stacked cell and unrolled forward pass
# ---------------------------------------------------------------------------

def _cell(z, c_prev):
    """The cell on the stacked pre-activations ``z`` ``(nets, per, 4, H)``,
    activated in place. Returns z (rows in GATES order), then c, tanh(c)
    and h, each ``(nets, per, H)``."""
    _sigmoid(z[:, :, :3], out=z[:, :, :3])
    np.tanh(z[:, :, 3], out=z[:, :, 3])
    f, i, o, g = z.transpose(2, 0, 1, 3)
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return z, c, tc, o * tc


def _step(params, xw, h_prev, c_prev):
    """One recurrence step for a stack, its recurrent product at the
    per-window shape.

    ``xw`` is the step's input product ``W_x @ x``, ``(nets, per, 4, H)``;
    ``h_prev`` and ``c_prev`` are ``(nets, per, H)``. Returns what
    :func:`_cell` returns.
    """
    hw = (params.W_h[:, None] @ h_prev[..., None, :, None])[..., 0]
    return _cell(xw + hw + params.b[:, None], c_prev)


def _unroll(params, windows: np.ndarray, gemm: bool):
    """Run windows ``(nets, per, T, D)`` through the stacked cell; keep the
    per-step values for backward.

    With ``gemm`` false every product keeps its per-window shape (see the
    module docstring). With ``gemm`` true, for weights and windows with
    the same number of networks, each network's products run over all
    its windows as GEMMs: the input products of every window and step as
    one ``(per T, D) @ (D, 4H)`` product, and the recurrent products of a
    step as one ``(per, H) @ (H, 4H)`` product. That is faster but moves
    the last bits, so only training asks for it.
    """
    h = np.zeros(windows.shape[:2] + params.b.shape[-1:])
    c = np.zeros_like(h)
    if gemm:
        nets, per, T, D = windows.shape
        rows = params.b.shape[-2] * params.b.shape[-1]    # 4H, gate by gate
        xw = (windows.reshape(nets, per * T, D)
              @ params.W_x.reshape(nets, rows, D).swapaxes(1, 2))
        xw = xw.reshape(windows.shape[:3] + params.b.shape[-2:])
        W_hT = params.W_h.reshape(nets, rows, -1).swapaxes(1, 2)
    else:
        # the input products of every step at once, (nets, per, T, 4, H)
        xw = (params.W_x[:, None, None] @ windows[..., None, :, None])[..., 0]
    steps = []
    for t in range(windows.shape[2]):
        if gemm:
            hw = (h @ W_hT).reshape(h.shape[:2] + params.b.shape[-2:])
            z, c_new, tc, h_new = _cell(xw[:, :, t] + hw + params.b[:, None],
                                        c)
        else:
            z, c_new, tc, h_new = _step(params, xw[:, :, t], h, c)
        steps.append((windows[:, :, t], z, c, tc, h))
        h, c = h_new, c_new
    out = ((params.W_out[:, None] @ h[..., None])[..., 0]
           + params.b_out[:, None])
    return steps, h, out


def _forecast(params, lo, span, windows: np.ndarray) -> tuple:
    """The unrolled pass and its kW forecasts: the step values, the final
    hidden state, the forecasts ``lo + span * out`` before the clamp at
    zero, and after it, each forecast array ``(nets, per, 24)``."""
    steps, h_final, out = _unroll(params, windows, False)
    raw = lo + span * out
    return steps, h_final, raw, np.maximum(raw, 0.0)


def forecast_batch(params, norm: Normalization,
                   windows: np.ndarray) -> np.ndarray:
    """Forecasts ``(nets, per, 24)`` in kW, clamped at zero, for windows
    ``(nets, per, T, D)``.

    ``params`` needs only the five weight fields, each with the network
    axis first. A network axis of 1, on a field or on the windows,
    broadcasts against the other, so one call can evaluate many perturbed
    copies of a network on one window.
    """
    return _forecast(params, norm.lo, norm.span, windows)[3]


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


def _stack(models: tuple, windows_per_model) -> tuple:
    """The stacked layout of ``models`` and a non-empty sequence of windows
    per model, all of one length: the weights with the network axis first,
    the checked windows ``(nets, per, T, D)``, and each model's
    normalization ``lo`` and ``span`` as ``(nets, 1, 1)`` columns."""
    per_model = [list(ws) for ws in windows_per_model]
    counts = {len(ws) for ws in per_model}
    if (not models or len(per_model) != len(models) or len(counts) != 1
            or 0 in counts):
        raise ForecastError(f"{len(models)} models need as many non-empty "
                            f"sequences of windows, all of one length, got "
                            f"{len(per_model)}")
    names = LstmParams.field_names()
    if len({(m.window,) + tuple(getattr(m.params, name).shape
                                for name in names) for m in models}) != 1:
        raise ForecastError("stacked forecasters need one window length "
                            "and one parameter layout")
    want = (models[0].window, models[0].params.input_dim)
    arr = np.empty((len(models), counts.pop()) + want)
    for k, ws in enumerate(per_model):
        for j, window in enumerate(ws):
            window = np.asarray(window, dtype=float)
            if window.shape != want:
                raise ForecastError(f"expected window of shape {want}, "
                                    f"got {window.shape}")
            arr[k, j] = window
    if not np.all(np.isfinite(arr)):
        raise ForecastError("window features must be finite")
    weights = SimpleNamespace(**{
        name: np.stack([getattr(m.params, name) for m in models])
        for name in names})
    lo = np.array([m.norm.lo for m in models])[:, None, None]
    span = np.array([m.norm.span for m in models])[:, None, None]
    return weights, arr, lo, span


@dataclass(frozen=True)
class DayTape:
    """One forward pass of S forecasters, one window each, run as a stack:
    the forecasts, and the step values that the members' backward pass
    sweeps (see :func:`backward_day`)."""

    models: tuple
    windows: tuple            # the windows read, as passed
    forecasts: np.ndarray     # (S, 24) kW, clamped at zero
    raw: np.ndarray           # (S, 24) kW before the clamp
    span: np.ndarray          # (S, 1, 1) the models' normalization spans
    weights: SimpleNamespace  # the models' weights on the network axis
    steps: list               # step values, each (S, 1, ...)
    h_final: np.ndarray


def forward_day(models, windows) -> DayTape:
    """Forecast 24 hourly loads in kW, clamped at zero, for a sequence of
    S models and a sequence of S windows, one each.

    The models run as one stack. Row k of the returned tape's
    ``forecasts`` is what ``models[k]`` forecasts from ``windows[k]`` in a
    stack of its own, bit for bit.
    """
    models, windows = tuple(models), tuple(windows)
    weights, arr, lo, span = _stack(models, [[w] for w in windows])
    steps, h_final, raw, forecasts = _forecast(weights, lo, span, arr)
    return DayTape(models=models, windows=windows, forecasts=forecasts[:, 0],
                   raw=raw[:, 0], span=span, weights=weights, steps=steps,
                   h_final=h_final)


def forward_days(models, windows_per_model) -> np.ndarray:
    """Forecasts ``(S, B, 24)`` for a sequence of S models and, per model,
    a non-empty sequence of B windows: row ``[k, j]`` is what
    :func:`forward_day` forecasts for ``models[k]`` from
    ``windows_per_model[k][j]``, bit for bit, with the same window checks,
    but all S * B forecasts run in one batch."""
    weights, arr, lo, span = _stack(tuple(models), windows_per_model)
    return _forecast(weights, lo, span, arr)[3]


# OpenBLAS cuts a long GEMM sum into blocks, and past a few hundred terms
# where it cuts depends on its thread count; sums of at most this many
# windows are one block at any thread count, so training's bits are too
_WINDOW_BLOCK = 256


def _window_sum(a, b):
    """``a @ b`` for stacks ``(nets, m, per)`` and ``(nets, per, k)``: the
    sum over the ``per`` windows, one block of windows after another."""
    if b.shape[1] == 1:
        # numpy's matmul runs an inner dimension of 1 in its own scalar
        # loop; einsum forms the same single-term products, bit for bit,
        # in half the time
        return np.einsum("nip,npj->nij", a, b)
    total = a[..., :_WINDOW_BLOCK] @ b[:, :_WINDOW_BLOCK]
    for lo in range(_WINDOW_BLOCK, b.shape[1], _WINDOW_BLOCK):
        total += a[..., lo:lo + _WINDOW_BLOCK] @ b[:, lo:lo + _WINDOW_BLOCK]
    return total


def _backward_from_head(params, steps, h_final, dout) -> dict:
    """Reverse-mode sweep from gradients ``(nets, per, 24)`` at the
    (normalized) head output. Every returned gradient is its network's
    total over its windows, with the network axis first.

    At each step the windows' terms go into their network's totals as one
    ``(4H, per) @ (per, D)`` and one ``(4H, per) @ (per, H)`` product per
    network, summed in BLAS order (in blocks of :data:`_WINDOW_BLOCK`
    windows); the head gradients are one product per network. With more
    than one window per network, which only :func:`train_mse` sweeps, the
    windows' ``dh`` of a step is one ``(per, 4H) @ (4H, H)`` GEMM per
    network too. With one window per network every weight-gradient
    product has a single term and is exact, and ``dh`` keeps the
    per-window products, so the sweep is bit for bit the per-window one.
    """
    nets, per, _ = dout.shape
    gates, hidden = params.b.shape[-2:]
    rows = gates * hidden                             # 4H, gate by gate
    g_x = np.zeros((nets, rows, params.W_x.shape[-1]))
    g_h = np.zeros((nets, rows, hidden))
    g_b = np.zeros((nets, rows))
    if per > 1:
        W_h = params.W_h.reshape(nets, rows, hidden)
    else:
        W_hT = params.W_h.swapaxes(-1, -2)[:, None]
    dh = (params.W_out.swapaxes(-1, -2)[:, None] @ dout[..., None])[..., 0]
    dc = np.zeros_like(dh)
    da = np.empty((nets, per, gates, hidden))
    dA = da.reshape(nets, per, rows)
    dAT = dA.swapaxes(1, 2)
    for x, z, c_prev, tc, h_prev in reversed(steps):
        f, i, o, g = z.transpose(2, 0, 1, 3)
        dc = dc + dh * o * (1.0 - tc * tc)
        # gradient at the gate outputs, then through sigmoid' = s (1 - s)
        # for forget, input and output and tanh' = 1 - g^2 for the candidate
        np.multiply(dc, c_prev, out=da[:, :, 0])
        np.multiply(dc, g, out=da[:, :, 1])
        np.multiply(dh, tc, out=da[:, :, 2])
        np.multiply(dc, i, out=da[:, :, 3])
        da[:, :, :3] *= z[:, :, :3]
        da[:, :, :3] *= 1.0 - z[:, :, :3]
        da[:, :, 3] *= 1.0 - g * g
        g_x += _window_sum(dAT, x)
        g_h += _window_sum(dAT, h_prev)
        g_b += dA.sum(axis=1)
        if per > 1:
            dh = dA @ W_h
        else:
            # one product per gate, summed in gate order: a single 4H-term
            # product would reorder the sum and move the last bits
            dh = (W_hT @ da[..., None])[..., 0].sum(axis=2)
        dc = dc * f
    return {"W_x": g_x.reshape(params.W_x.shape),
            "W_h": g_h.reshape(params.W_h.shape),
            "b": g_b.reshape(params.b.shape),
            "W_out": _window_sum(dout.swapaxes(1, 2), h_final),
            "b_out": dout.sum(axis=1)}


def _member_gradients(tape: DayTape, dloss_dforecast, members) -> tuple:
    """The sorted positions of ``members`` on ``tape`` and the gradients of
    ``dloss_dforecast[k] . forecasts[k]`` for each member k, every field
    with the members' axis first, swept from the tape's step values.

    A slot where the member's kW clamp is active passes no gradient; the
    others pass it scaled by the member's normalization span.
    """
    members = list(members)
    for k in members:
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise ForecastError(f"member position {k!r} is not an integer")
    members = sorted(set(members))
    if not all(0 <= k < len(tape.models) for k in members):
        raise ForecastError(f"members {members} are not positions of the "
                            f"{len(tape.models)} models on the tape")
    dloss = np.asarray(dloss_dforecast, dtype=float)
    if dloss.shape != tape.raw.shape:
        raise ForecastError(f"loss gradient shape {dloss.shape} does not "
                            f"match the tape's forecasts {tape.raw.shape}")
    if not np.all(np.isfinite(dloss)):
        raise ForecastError("loss gradient must be finite")
    if not members:
        return members, {}
    weights, steps, h_final = tape.weights, tape.steps, tape.h_final
    if len(members) < len(tape.models):     # the members' networks alone
        weights = SimpleNamespace(**{name: a[members] for name, a
                                     in vars(weights).items()})
        steps = [tuple(a[members] for a in step) for step in steps]
        h_final = h_final[members]
    dout = (np.where(tape.raw[members] > 0.0, dloss[members], 0.0)[:, None]
            * tape.span[members])
    return members, _backward_from_head(weights, steps, h_final, dout)


def backward_day(tape: DayTape, dloss_dforecast, members) -> dict:
    """Exact gradient of ``dloss_dforecast[k] . forecasts[k]`` with respect
    to every parameter of each member k, one of the positions ``members``
    on ``tape``, as a dict from position to :class:`LstmParams`.

    ``dloss_dforecast`` has one row per tape model; a non-member's row is
    not read. The sweep reads the tape's step values, with no second
    forward pass, and slots where the kW clamp is active pass no gradient.
    """
    members, grads = _member_gradients(tape, dloss_dforecast, members)
    return {k: LstmParams(**{name: g[j] for name, g in grads.items()})
            for j, k in enumerate(members)}


def apply_external_gradient(tape: DayTape, dloss_dforecast, members,
                            lr: float) -> tuple:
    """One descent step against a gradient taken at the kW forecasts.

    ``dloss_dforecast`` has one row per tape model, and ``members`` are the
    positions of the models that step. Returns the tape's models with each
    member stepped along its :func:`backward_day` gradient, bit for bit,
    and every other model as it was. The members' backward pass runs as one
    stack from the tape's step values, with no second forward pass.
    """
    if lr < 0.0 or not np.isfinite(lr):
        raise ForecastError("lr must be finite and >= 0")
    members, grads = _member_gradients(tape, dloss_dforecast, members)
    out = list(tape.models)
    for j, k in enumerate(members):
        params = LstmParams(**{name: getattr(out[k].params, name) - lr * g[j]
                               for name, g in grads.items()})
        out[k] = dataclasses.replace(out[k], params=params)
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


def _mse_gradient(params, windows: np.ndarray, targets: np.ndarray) -> tuple:
    """Mean squared error of each network of the stack over its windows
    ``(nets, per, T, D)`` against its targets ``(nets, per, 24)``, and its
    gradient.

    Each network's loss is one reduction over its errors, and its gradients
    come summed over its windows from the backward sweep. With more than
    one window per network both sweeps run their products as GEMMs over
    the windows. The batch's step values die on return, before the next
    epoch unrolls.
    """
    steps, h_final, out = _unroll(params, windows,
                                  windows.shape[1] > 1)
    err = out - targets
    denom = float(err[0].size)
    grads = _backward_from_head(params, steps, h_final, 2.0 * err / denom)
    per_net = err.reshape(err.shape[0], -1)
    return (per_net * per_net).sum(axis=1) / denom, grads


def train_mse(loads: np.ndarray, day_of_week: np.ndarray,
              config: TrainingConfig, seed) -> tuple:
    """Full-batch gradient descent on normalized mean squared error.

    `loads` is (days, S, 24) in kW, one column per sector as a
    :class:`mesval.data.DayDataset` holds them, and `seed` a sequence of
    S seeds, each a non-negative int; day d is forecast from day d-1's
    window. The S networks train as one stack, and the result is the list
    of S models and the (S, epochs) per-epoch loss traces; each is what
    the call on its column alone returns, bit for bit. `loads` (days, 24)
    with one int `seed` is the stack of one, and returns its model and its
    trace.

    With more than one window per network (three days or more), every
    epoch runs each network's products as GEMMs over its windows, forward
    and backward (see :func:`_unroll` and :func:`_backward_from_head`), so
    the weights are those of a one-window-at-a-time loop up to the order
    of those products' sums. With one window (two days) every product
    keeps its per-window shape, and the weights are the loop's bit for
    bit.
    """
    loads = np.asarray(loads, dtype=float)
    dows = np.asarray(day_of_week, dtype=int)
    stacked = loads.ndim == 3
    if loads.ndim not in (2, 3) or loads.shape[-1] != HORIZON:
        raise ForecastError(f"loads must be (days, {HORIZON}) or "
                            f"(days, sectors, {HORIZON})")
    columns = loads if stacked else loads[:, None, :]
    try:
        seeds = tuple(seed) if stacked else (seed,)
    except TypeError:
        raise ForecastError(f"{columns.shape[1]} load columns need a "
                            f"sequence of seeds, got {seed!r}") from None
    if len(seeds) != columns.shape[1]:
        raise ForecastError(f"{columns.shape[1]} load columns need as many "
                            f"seeds, got {len(seeds)}")
    for sd in seeds:
        # bool is an int subclass, and a sequence would seed numpy too
        if (isinstance(sd, bool) or not isinstance(sd, (int, np.integer))
                or sd < 0):
            raise ForecastError(f"seed {sd!r} is not a non-negative integer")
    if not np.all(np.isfinite(loads)):
        raise ForecastError("loads must be finite")
    if dows.shape != (loads.shape[0],):
        raise ForecastError("day_of_week must have one entry per day")
    if loads.shape[0] < 2:
        raise ForecastError("need at least two days to form one "
                            "window/target pair")

    S = len(seeds)
    norms = [fit_normalization(columns[:, j]) for j in range(S)]
    windows = np.array([[build_window(columns[d - 1, j], int(dows[d - 1]),
                                      norms[j], config.window)
                         for d in range(1, loads.shape[0])]
                        for j in range(S)])
    targets = np.stack([norms[j].scale(columns[1:, j]) for j in range(S)])

    inits = [init_params(sd, hidden_size=config.hidden_size) for sd in seeds]
    params = {name: np.stack([getattr(p, name) for p in inits])
              for name in LstmParams.field_names()}
    trace = np.zeros((S, config.mse_epochs))
    for epoch in range(config.mse_epochs):
        loss, grads = _mse_gradient(SimpleNamespace(**params), windows,
                                    targets)
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
