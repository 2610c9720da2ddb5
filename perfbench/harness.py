"""Measurement loop, output checks and report for one benchmark run.

One process, one client, closed loop: set-up runs once, then timed units
run back to back until ``--seconds`` have passed (at least one).
``wall_s`` is the median unit. ``setup_s`` is the median, over this
process and ``SETUP_SAMPLES - 1`` fresh ones, of the time from process
start to the first timed call. A traced run alternates units with tracing
off and on, so the tracing overhead is the difference of the two medians.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from stats import median, tail
from tracing import LAYERS, SITES, Tracer, self_times
from workloads import WORKLOADS, Audit, Outcome

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
REFERENCES = Path(__file__).with_name("references.json")
RUN = Path(__file__).with_name("run.py")
SETUP_SAMPLES = 3       # cold set-ups per untraced run, this process included
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_share", "ratio", "higher"),
)


def _latency(prefix):
    return ((f"{prefix}_ms_p50", "ms", "lower"),
            (f"{prefix}_ms_tail", "ms", "lower"),
            (f"{prefix}_tail_pct", "%", "higher"))


PER_LAYER = (
    ("dispatch.build_calls", "count", "lower"),
    ("dispatch.build_s", "s", "lower"),
    ("dispatch.build_mb", "MB", "lower"),
    ("dispatch.nnz_share", "ratio", "higher"),
    ("dispatch.verify_calls", "count", "lower"),
    ("dispatch.verify_s", "s", "lower"),
    ("dispatch.violations", "count", "lower"),
    ("lp.solve_calls", "count", "lower"),
    ("lp.solve_s", "s", "lower"),
    *_latency("lp.solve"),
    ("lp.nonoptimal", "count", "lower"),
    ("lp.fold_calls", "count", "lower"),
    ("lp.fold_s", "s", "lower"),
    ("lp.fold_mb", "MB", "lower"),
    ("lp.canon_calls", "count", "lower"),
    ("lp.canon_s", "s", "lower"),
    ("bnb.searches", "count", "lower"),
    ("bnb.search_s", "s", "lower"),
    ("bnb.nodes", "count", "lower"),
    ("bnb.nodes_per_search", "node/search", "lower"),
    ("bnb.nonoptimal", "count", "lower"),
    ("bnb.enumerate_calls", "count", "lower"),
    ("bnb.enumerate_s", "s", "lower"),
    ("sensitivity.envelope_calls", "count", "lower"),
    ("sensitivity.envelope_s", "s", "lower"),
    ("sensitivity.kkt_calls", "count", "lower"),
    ("sensitivity.kkt_s", "s", "lower"),
    ("sensitivity.kkt_degenerate", "count", "lower"),
    ("sensitivity.fd_calls", "count", "lower"),
    ("sensitivity.fd_s", "s", "lower"),
    ("lstm.train_mse_calls", "count", "lower"),
    ("lstm.train_mse_s", "s", "lower"),
    ("lstm.forward_calls", "count", "lower"),
    ("lstm.forward_s", "s", "lower"),
    ("lstm.step_calls", "count", "lower"),
    ("lstm.step_s", "s", "lower"),
    ("lstm.backward_calls", "count", "lower"),
    ("lstm.backward_s", "s", "lower"),
    ("lstm.setup_s", "s", "lower"),
    ("valuation.evaluate_calls", "count", "lower"),
    ("valuation.evaluate_s", "s", "lower"),
    ("valuation.evaluate_repeats", "count", "lower"),
    ("valuation.e2e_calls", "count", "lower"),
    ("valuation.e2e_s", "s", "lower"),
    ("valuation.e2e_days", "count", "higher"),
    ("valuation.e2e_days_skipped", "count", "lower"),
    ("valuation.shapley_s", "s", "lower"),
    *_latency("valuation.train_day"),
    ("valuation.train_day_samples", "count", "higher"),
    *_latency("valuation.price_day"),
    ("valuation.price_day_samples", "count", "higher"),
    ("hub.load_s", "s", "lower"),
    ("data.synth_s", "s", "lower"),
    ("config.dataset_s", "s", "lower"),
    ("batteries.lp_gradient_s", "s", "lower"),
    ("batteries.milp_optimality_s", "s", "lower"),
    ("batteries.gradient_equivalence_s", "s", "lower"),
    ("batteries.lstm_bptt_s", "s", "lower"),
    ("batteries.checks", "count", "higher"),
    ("batteries.failures", "count", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.unwrapped_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

# counters that must repeat exactly between units and between runs
EXACT_TRACED = ("bnb.searches", "bnb.nodes", "lp.solve_calls",
                "lp.fold_calls", "dispatch.build_mb", "lp.fold_mb",
                "valuation.evaluate_repeats", "valuation.e2e_days_skipped")


@dataclass
class Unit:
    run: str
    wall_s: float
    outcome: Outcome
    audit: Audit
    layers: dict | None = None      # per-layer metrics, traced units only

    def exact(self) -> dict:
        out = {"outputs": self.outcome.outputs,
               "counters": self.audit.counters()}
        if self.layers is not None:
            out["traced"] = {k: self.layers[k] for k in EXACT_TRACED}
        return out


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

@contextmanager
def _traced(tracer, run):
    if tracer is None:
        yield
        return
    with tracer.installed(), tracer.scope(run):
        yield


def run_unit(workload, state, tracer, run) -> Unit:
    audit = Audit()
    with _traced(tracer, run):
        t0 = time.perf_counter()
        outcome = workload.unit(state, audit)
        wall = time.perf_counter() - t0
    unit = Unit(run=run, wall_s=wall, outcome=outcome, audit=audit)
    if tracer is not None:
        unit.layers = layer_metrics(tracer.run_spans(run), wall)
        tracer.keepalive.clear()
    return unit


def measure(workload, seed: int, seconds: float, tracer=None):
    """Set up once, then run units until ``seconds`` have passed. Returns
    the ``time.perf_counter()`` reading at which the first unit starts,
    and the units."""
    with _traced(tracer, "setup"):
        state = workload.setup(seed)
    first_unit_at = time.perf_counter()
    deadline = first_unit_at + seconds
    units = []
    while True:
        if tracer is not None:      # pairs: tracing off, then on
            units.append(run_unit(workload, state, None,
                                  f"untraced{len(units)}"))
        units.append(run_unit(workload, state, tracer, f"unit{len(units)}"))
        if time.perf_counter() >= deadline:
            return first_unit_at, units


def setup_probe(name: str, seed: int, started: float) -> float:
    """Set up ``name`` once in this process; seconds from ``started``
    (the process start) to the state the first unit would get."""
    WORKLOADS[name]().setup(seed)
    return time.perf_counter() - started


def probe_setups(name: str, seed: int, count: int) -> list[float]:
    """``count`` cold set-ups, one after another, each in a fresh
    interpreter running ``run.py --setup-probe``; each process has ended
    before the next starts."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", name, "--seed",
             str(seed), "--seconds", "1", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code "
                               f"{proc.returncode}: {proc.stderr.strip()}")
        last = proc.stdout.strip().splitlines()[-1]
        samples.append(float(json.loads(last)["setup_s"]))
    return samples


# ---------------------------------------------------------------------------
# per-layer metrics from one unit's spans
# ---------------------------------------------------------------------------

def _latency_values(prefix, seconds) -> dict:
    ms = [1e3 * s for s in seconds]
    t = tail(ms)
    return {f"{prefix}_ms_p50": median(ms) if ms else 0.0,
            f"{prefix}_ms_tail": t[0] if t else 0.0,
            f"{prefix}_tail_pct": t[1] if t else 0.0}


def layer_metrics(spans, wall_s: float) -> dict:
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name])

    def secs(name):
        return sum(selfs[s.id] for s in by_name[name])

    def total(name, attr):
        return sum(s.attrs.get(attr, 0) for s in by_name[name])

    def misses(name, attr):
        return sum(not s.attrs.get(attr, False) for s in by_name[name])

    m = {}
    size = total("dispatch.build", "size")
    m.update({
        "dispatch.build_calls": calls("dispatch.build"),
        "dispatch.build_s": secs("dispatch.build"),
        "dispatch.build_mb": total("dispatch.build", "bytes") / 1e6,
        "dispatch.nnz_share": (total("dispatch.build", "nnz") / size
                               if size else 0.0),
        "dispatch.verify_calls": calls("dispatch.verify"),
        "dispatch.verify_s": secs("dispatch.verify"),
        "dispatch.violations": total("dispatch.verify", "violation"),
    })
    m.update({
        "lp.solve_calls": calls("lp.solve"),
        "lp.solve_s": secs("lp.solve"),
        **_latency_values("lp.solve",
                          [s.end - s.start for s in by_name["lp.solve"]]),
        "lp.nonoptimal": misses("lp.solve", "optimal"),
        "lp.fold_calls": calls("lp.fold"),
        "lp.fold_s": secs("lp.fold"),
        "lp.fold_mb": total("lp.fold", "bytes") / 1e6,
        "lp.canon_calls": calls("lp.canon"),
        "lp.canon_s": secs("lp.canon"),
    })
    searches = calls("bnb.search")
    nodes = total("bnb.search", "nodes")
    m.update({
        "bnb.searches": searches,
        "bnb.search_s": secs("bnb.search"),
        "bnb.nodes": nodes,
        "bnb.nodes_per_search": nodes / searches if searches else 0.0,
        "bnb.nonoptimal": misses("bnb.search", "optimal"),
        "bnb.enumerate_calls": calls("bnb.enumerate"),
        "bnb.enumerate_s": secs("bnb.enumerate"),
    })
    m.update({
        "sensitivity.envelope_calls": calls("sensitivity.envelope"),
        "sensitivity.envelope_s": secs("sensitivity.envelope"),
        "sensitivity.kkt_calls": calls("sensitivity.kkt"),
        "sensitivity.kkt_s": secs("sensitivity.kkt"),
        "sensitivity.kkt_degenerate": total("sensitivity.kkt",
                                            "degenerate"),
        "sensitivity.fd_calls": calls("sensitivity.fd"),
        "sensitivity.fd_s": secs("sensitivity.fd"),
    })
    for op in ("train_mse", "forward", "step", "backward"):
        m[f"lstm.{op}_calls"] = calls(f"lstm.{op}")
        m[f"lstm.{op}_s"] = secs(f"lstm.{op}")

    seen = set()
    repeats = 0
    for s in by_name["valuation.evaluate"]:
        key = s.attrs.get("key")
        if key is not None:
            repeats += key in seen
            seen.add(key)
    e2e_days = [s for s in by_name["bnb.search"]
                if s.parent is not None
                and by_id[s.parent].name == "valuation.e2e"]
    m.update({
        "valuation.evaluate_calls": calls("valuation.evaluate"),
        "valuation.evaluate_s": secs("valuation.evaluate"),
        "valuation.evaluate_repeats": repeats,
        "valuation.e2e_calls": calls("valuation.e2e"),
        "valuation.e2e_s": secs("valuation.e2e"),
        "valuation.e2e_days": len(e2e_days),
        "valuation.e2e_days_skipped": sum(
            not (s.attrs.get("optimal") and s.attrs.get("gradient"))
            for s in e2e_days),
        "valuation.shapley_s": secs("valuation.shapley"),
    })

    for battery in ("lp_gradient", "milp_optimality", "gradient_equivalence",
                    "lstm_bptt"):
        m[f"batteries.{battery}_s"] = total(f"batteries.{battery}",
                                            "seconds")
    names = [f"batteries.{b}" for b in ("lp_gradient", "milp_optimality",
                                        "gradient_equivalence", "lstm_bptt")]
    m["batteries.checks"] = sum(total(n, "checks") for n in names)
    m["batteries.failures"] = sum(total(n, "failures") for n in names)

    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s.layer] += selfs[s.id]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.unwrapped_s"] = wall_s - sum(layer_self.values())
    m["trace.wall_s"] = wall_s
    m["trace.spans"] = len(spans)
    return m


def day_metrics(audit: Audit) -> dict:
    """Per-day latencies of one unit, from the completions its audit hook
    saw (untraced units, so no wrapper overhead is in them)."""
    m = {}
    for kind in ("train", "price"):
        seconds = audit.day_seconds(kind)
        m.update(_latency_values(f"valuation.{kind}_day", seconds))
        m[f"valuation.{kind}_day_samples"] = len(seconds)
    return m


def setup_metrics(tracer) -> dict:
    """The set-up layers' self time in the run's one set-up."""
    spans = tracer.run_spans("setup")
    selfs = self_times(spans)
    sums = defaultdict(float)
    for s in spans:
        sums[s.name] += selfs[s.id]
        if s.layer == "lstm":
            sums["lstm.setup"] += selfs[s.id]
    return {metric: sums[span]
            for metric, span in (("hub.load_s", "hub.load"),
                                 ("data.synth_s", "data.synth"),
                                 ("config.dataset_s", "config.dataset"),
                                 ("lstm.setup_s", "lstm.setup"))}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _close(got, want, tolerance) -> bool:
    if got == want:
        return True
    if not all(isinstance(v, (int, float)) for v in (got, want)):
        return False
    abs_tol, rel_tol = tolerance
    return abs(got - want) <= abs_tol + rel_tol * abs(want)


def compare(outputs: dict, expected: dict, tolerance) -> list[str]:
    """One line per output that differs from ``expected`` beyond the
    tolerance (``(absolute, relative)``), missing outputs included."""
    problems = []
    for key in sorted(set(outputs) | set(expected), key=str):
        got, want = outputs.get(key, "missing"), expected.get(key, "missing")
        if not _close(got, want, tolerance):
            problems.append(f"{key}: got {got!r}, reference {want!r}")
    return problems


def drift(first: dict, other: dict) -> list[str]:
    """Exact-repeat differences between two ``Unit.exact()`` records;
    the traced counters are compared only when both sides have them."""
    keys = ["outputs", "counters"]
    if "traced" in first and "traced" in other:
        keys.append("traced")
    return [line for key in keys
            for line in compare(other[key], first[key], (0.0, 0.0))]


def load_reference(name: str, seed: int):
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    return refs["workloads"].get(name, {}).get("seeds", {}).get(str(seed))


def fingerprint(workload) -> str:
    """Program source plus workload size: runs that share it must repeat
    every exact counter."""
    h = hashlib.sha256(repr(workload).encode())
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".yaml"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_between_runs(workload, seed: int, record: dict) -> list[str]:
    """Compare with the record an earlier run of the same program and size
    left in the build directory, then keep the union of both."""
    path = BUILD_DIR / "exact" / f"{workload.name}-seed{seed}-" \
                                 f"{fingerprint(workload)}.json"
    previous = None
    if path.exists():
        previous = json.loads(path.read_text(encoding="utf-8"))
    problems = [] if previous is None else drift(previous, record)
    merged = dict(previous or {}, **record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(merged, sort_keys=True), encoding="utf-8")
    return problems


@dataclass
class Checked:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, ops: int, wrong: list[str], failed: int | None = None):
        self.attempted += ops
        self.failed += len(wrong) if failed is None else failed
        self.problems.extend(wrong)


def check(workload, seed: int, units: list[Unit], reference,
          tracer=None) -> Checked:
    """Count operations and failures; every wrong answer is a failure.
    ``seed`` is the seed the inputs were made from.

    Per unit: the unit's own operations (days, battery checks, the balance
    rule), one per audited dispatch, one per output compared with the
    reference, and one exact-repeat check against the unit before it of
    the same kind (traced or not); the first traced unit is compared with
    the untraced unit before it. With a tracer, one operation per wrapped
    site: it fails when the program no longer has the site or the site's
    observer failed.
    """
    c = Checked()
    last = {}       # traced? -> the latest unit of that kind
    for u in units:
        kind = u.layers is not None
        prev = last.get(kind, last.get(not kind))
        last[kind] = u
        o = u.outcome
        c.add(o.ops, list(o.problems), failed=o.failed)
        c.add(u.audit.dispatches, list(u.audit.violations))
        if reference is not None:
            expected = reference["outputs"]
            c.add(len(set(o.outputs) | set(expected)),
                  compare(o.outputs, expected, workload.tolerance))
        if prev is not None:
            found = drift(prev.exact(), u.exact())
            c.add(1, [f"determinism ({u.run} vs {prev.run}): "
                      f"{'; '.join(found)}"] if found else [])
    traced = [u for u in units if u.layers is not None]
    record = (traced[0] if traced else units[0]).exact()
    found = check_between_runs(workload, seed, record)
    c.add(1, [f"determinism (against an earlier run): {'; '.join(found)}"]
          if found else [])
    if tracer is not None:
        c.add(len(SITES), [f"traced site {site}: {why}"
                           for site, why in tracer.broken.items()])
    return c


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    """High-water resident set of this process plus its largest child
    (Linux reports KiB)."""
    kib = sum(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib * 1024 / 1e6


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "machine": platform.machine()}


def _metric_block(table, values) -> dict:
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit, _ in table}


def run(name: str, seed: int, seconds: float, trace: bool,
        started: float) -> dict:
    """``started`` is the ``time.perf_counter()`` reading at process
    start."""
    workload = WORKLOADS[name]()
    tracer = Tracer() if trace else None
    first_unit_at, units = measure(workload, seed, seconds, tracer)
    input_seed = seed if workload.seeded else 0
    checked = check(workload, input_seed, units,
                    load_reference(name, input_seed), tracer)
    setup_samples = [first_unit_at - started]

    if tracer is None:
        # read before the probes, which are the benchmark's processes
        peak = peak_rss_mb()
        setup_samples += probe_setups(name, seed, SETUP_SAMPLES - 1)
        values = {
            "setup_s": median(setup_samples),
            "wall_s": median(u.wall_s for u in units),
            "peak_rss_mb": peak,
            "success_share": 1.0 - checked.failed / checked.attempted,
        }
        table = END_TO_END
    else:
        traced = [u for u in units if u.layers is not None]
        untraced = [u for u in units if u.layers is None]
        values = {k: median(u.layers[k] for u in traced)
                  for k in traced[0].layers}
        days = [day_metrics(u.audit) for u in untraced]
        values.update({k: median(d[k] for d in days) for k in days[0]})
        values.update(setup_metrics(tracer))
        values["trace.untraced_wall_s"] = median(u.wall_s for u in untraced)
        values["trace.overhead_s"] = (values["trace.wall_s"]
                                      - values["trace.untraced_wall_s"])
        table = PER_LAYER

    env = environment()
    result = {"correct": not checked.problems,
              "attempted": checked.attempted, "failed": checked.failed,
              "metrics": _metric_block(table, values)}
    _save(name, seed, trace, env, setup_samples, units, result, checked,
          tracer)

    print(f"perfbench {name} seed {seed}: {len(units)} units "
          f"({', '.join(f'{u.run} {u.wall_s:.3f}s' for u in units)}); "
          f"set-ups {', '.join(f'{t:.3f}s' for t in setup_samples)}; "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for metric, v in result["metrics"].items():
        print(f"  {metric:<36} {v['value']:>14.6g} {v['unit']}")
    for line in checked.problems:
        print(f"perfbench: wrong answer: {line}", file=sys.stderr)
    return result


def _save(name, seed, trace, env, setup_samples, units, result, checked,
          tracer) -> None:
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    stem = BUILD_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    report = {"environment": env, "result": result,
              "problems": checked.problems, "setup_samples": setup_samples,
              "units": [{"run": u.run, "wall_s": u.wall_s,
                         "ops": u.outcome.ops, "failed": u.outcome.failed,
                         "dispatches": u.audit.dispatches} for u in units]}
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1),
                                         encoding="utf-8")
    if tracer is not None:
        spans = [(s.id, s.name, s.start, s.end, s.parent, s.run)
                 for s in tracer.spans]
        Path(f"{stem}-spans.json").write_text(json.dumps(spans),
                                              encoding="utf-8")
