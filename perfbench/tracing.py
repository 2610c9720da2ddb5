"""Spans around the program's layer boundaries, recorded from outside.

A traced run replaces each public function listed in ``SITES`` at the name
its callers bind (``mesval.valuation.build_joint`` is what the valuation
code calls, ``mesval.bnb.solve_lp`` what the search calls) with a wrapper
that records one span per call: name, start, end, parent span and run id.
No program file changes. Spans stay in memory until the run ends.

A span's self time is its duration minus the part of it that its child
spans cover; a layer's self time is the sum over its spans. The first
component of a span name is its layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("data", "config", "hub", "dispatch", "lp", "sensitivity", "bnb",
          "lstm", "valuation", "batteries")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    run: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans for wrapped calls; one stack, one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.run: str | None = None
        self._stack: list[Span] = []
        # arguments of observed calls stay referenced until the unit ends so
        # the ids used as identity keys cannot be reused
        self.keepalive: list = []
        # site -> why its spans or counts cannot be trusted: the program no
        # longer has it, or its observer failed on a result
        self.broken: dict[str, str] = {}

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=len(self.spans), name=name, start=self.clock(),
                    parent=parent, run=self.run)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def scope(self, run: str):
        """Tag the spans opened inside with the run id ``run``."""
        previous, self.run = self.run, run
        try:
            yield
        finally:
            self.run = previous

    def wrap(self, func, name: str, observe=None, site: str | None = None):
        tracer = self
        site = name if site is None else site

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span)
                span.attrs["raised"] = type(exc).__name__
                raise
            tracer.close(span)
            if observe is not None:
                try:
                    span.attrs.update(observe(tracer, args, kwargs, result))
                except Exception as exc:    # the observer's fault only
                    tracer.broken.setdefault(
                        site, f"observer failed: {exc!r}")
            return result

        return traced

    @contextmanager
    def installed(self, sites=None):
        """Wrap every site for the duration of the block, then restore.

        A site the program no longer has is left out and noted in
        ``broken``: its spans and counts would read zero, which looks the
        same as a layer that did not run, so the harness counts it as a
        failed operation.
        """
        saved = []
        try:
            for target, attr, name, observe in (SITES if sites is None
                                                 else sites):
                if isinstance(target, str):
                    owner, site = _resolve(target), f"{target}.{attr}"
                else:
                    owner, site = target, f"{type(target).__name__}.{attr}"
                original = getattr(owner, attr, None)
                if original is None:
                    self.broken.setdefault(site, "not found in the program")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, observe, site))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def run_spans(self, run: str) -> list[Span]:
        return [s for s in self.spans if s.run == run]


def _resolve(target: str):
    """``"pkg.mod"`` or ``"pkg.mod.Class"`` to the object it names, or
    None when it does not exist."""
    try:
        return importlib.import_module(target)
    except ModuleNotFoundError:
        module, _, attr = target.rpartition(".")
        try:
            return getattr(importlib.import_module(module), attr, None)
        except ModuleNotFoundError:
            return None


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(s.start, s.end,
                                              children.get(s.id, ()))
            for s in spans}


# ---------------------------------------------------------------------------
# observers: counts recorded at the boundary where the work happens
# ---------------------------------------------------------------------------

def _nbytes(a) -> int:
    """Bytes held by a dense array, or by a sparse matrix's buffers."""
    if isinstance(a, np.ndarray):
        return a.nbytes
    return sum(getattr(a, part).nbytes
               for part in ("data", "indices", "indptr"))


def _nnz(a) -> int:
    nnz = getattr(a, "nnz", None)
    return int(nnz) if nnz is not None else int(np.count_nonzero(a))


def _observe_build(tracer, args, kwargs, prob):
    lp = prob.milp.lp
    mats = (lp.A_f, lp.A_h, lp.B_f, lp.B_h)
    size = sum(int(np.prod(m.shape)) for m in (lp.A_f, lp.A_h))
    return {"bytes": sum(_nbytes(m) for m in mats),
            "nnz": _nnz(lp.A_f) + _nnz(lp.A_h), "size": size}


def _observe_verify(tracer, args, kwargs, check):
    return {"violation": not check.ok}


def _observe_solve(tracer, args, kwargs, sol):
    return {"optimal": sol.status == "optimal"}


def _observe_fold(tracer, args, kwargs, folded):
    if folded is args[0]:
        return {"bytes": 0}
    return {"bytes": sum(_nbytes(m) for m in (folded.A_f, folded.b_f0,
                                               folded.B_f))}


def _observe_search(tracer, args, kwargs, out):
    res, grad = out if isinstance(out, tuple) else (out, True)
    return {"nodes": int(res.node_count), "optimal": res.status == "optimal",
            "gradient": grad is not None}


def _observe_kkt(tracer, args, kwargs, grad):
    return {"degenerate": bool(grad.conditioning.degenerate)}


def _observe_evaluate(tracer, args, kwargs, total):
    models, dataset = args[0], args[1]
    tracer.keepalive.append((models, dataset))
    if isinstance(models, dict):
        ident = tuple(sorted((k, id(v)) for k, v in models.items()))
    else:
        ident = id(models)
    return {"key": (ident, id(dataset))}


def _observe_battery(tracer, args, kwargs, result):
    return {"checks": result.n_checks, "failures": result.n_failures,
            "seconds": result.seconds}


V, B = "mesval.valuation", "mesval.batteries"

# (object whose attribute callers read, attribute, span name, observer)
SITES = (
    ("mesval.config", "synth_data", "data.synth", None),
    ("mesval.config", "dataset_from_config", "config.dataset", None),
    (V, "split_dataset", "config.split", None),
    ("mesval.hub", "load_hub_config", "hub.load", None),
    ("mesval.dispatch", "build_hub_matrices", "hub.matrices", None),
    (V, "build_joint", "dispatch.build", _observe_build),
    (V, "build_day_ahead", "dispatch.build", _observe_build),
    (V, "build_intra_day", "dispatch.build", _observe_build),
    ("mesval.dispatch", "verify_dispatch", "dispatch.verify",
     _observe_verify),
    ("mesval.dispatch", "to_standard_form", "lp.canon", None),
    ("mesval.bnb", "solve_lp", "lp.solve", _observe_solve),
    ("mesval.sensitivity", "solve_lp", "lp.solve", _observe_solve),
    (B, "solve_lp", "lp.solve", _observe_solve),
    ("mesval.lp.LPStandardForm", "fold_bounds", "lp.fold", _observe_fold),
    (V, "branch_and_bound", "bnb.search", _observe_search),
    (V, "embedded_gradient", "bnb.search", _observe_search),
    (B, "branch_and_bound", "bnb.search", _observe_search),
    (B, "embedded_gradient", "bnb.search", _observe_search),
    (B, "backward_optimal_subproblem", "bnb.backward", None),
    (B, "enumerate_integer_assignments", "bnb.enumerate", None),
    ("mesval.bnb", "dual_gradient_result", "sensitivity.envelope", None),
    (B, "envelope_gradient", "sensitivity.envelope", None),
    ("mesval.bnb", "cost_gradient", "sensitivity.kkt", _observe_kkt),
    (B, "cost_gradient", "sensitivity.kkt", _observe_kkt),
    (B, "finite_difference_gradient", "sensitivity.fd", None),
    (B, "vertex_degeneracy", "sensitivity.degeneracy", None),
    ("mesval.lstm", "train_mse", "lstm.train_mse", None),
    (V, "train_mse", "lstm.train_mse", None),
    (V, "build_window", "lstm.window", None),
    (V, "forward_day", "lstm.forward", None),
    (B, "forward_day", "lstm.forward", None),
    (V, "apply_external_gradient", "lstm.step", None),
    ("mesval.lstm", "backward_day", "lstm.backward", None),
    (B, "backward_day", "lstm.backward", None),
    (V, "full_valuation", "valuation.full", None),
    (V, "evaluate_cost", "valuation.evaluate", _observe_evaluate),
    (V, "train_end_to_end", "valuation.e2e", None),
    (V, "zero_shapley", "valuation.shapley", None),
    (B, "run_all_batteries", "batteries.run_all", None),
    (B, "lp_gradient_battery", "batteries.lp_gradient", _observe_battery),
    (B, "milp_optimality_battery", "batteries.milp_optimality",
     _observe_battery),
    (B, "equivalence_battery", "batteries.gradient_equivalence",
     _observe_battery),
    (B, "bptt_battery", "batteries.lstm_bptt", _observe_battery),
)
