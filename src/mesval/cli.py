"""Command-line harness: data synthesis, training runs, valuation reports.

Every subcommand derives everything it needs from the experiment config
and its single seed, so composing subcommands and running ``valuate``
standalone produce identical numbers, and rerunning any subcommand
reproduces its CSV artifacts byte for byte.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 scheduling infeasibility or solver failure, 4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import errno
import sys
from pathlib import Path

from .batteries import run_all_batteries
from .bnb import NodeLimitError
from .config import (ConfigError, ExperimentConfig,
                     experiment_config_from_dict, read_config_file,
                     series_from_config, split_dataset)
from .data import DataError, DayDataset, write_series_csv
from .dispatch import DispatchBuildError, verify_dispatch
from .hub import HORIZON, SECTORS, HubConfigError, load_hub_config
from .lp import LPNumericalError
from .lstm import ForecastError, save_model
from .valuation import (LETTERS, DispatchInfeasible, ValuationError,
                        allocation_rows, coalition_label, coalition_value,
                        evaluate_cost, full_valuation, ledger_rows,
                        parse_coalition, sector_metrics, train_base_models,
                        train_end_to_end)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INFEASIBLE = 3
EXIT_INVARIANT = 4

CONSERVATION_TOL = 1e-6     # kCNY, monthly rows vs the summary scalar
BALANCE_TOL = 1e-9          # kCNY, payout sum vs the grand coalition value


class DispatchMonitor:
    """Verifies every solved dispatch and keeps per-day settled costs."""

    def __init__(self):
        self.day_costs = {}
        self.violations = []
        self.n_solves = 0
        self.max_residual = 0.0

    def __call__(self, day, prob, res):
        self.n_solves += 1
        check = verify_dispatch(prob, res)
        self.max_residual = max(self.max_residual, check.max_residual)
        if not check.ok:
            self.violations.append((day, prob.stage, check.violations[:3]))
        if prob.stage in ("joint", "intra_day"):
            self.day_costs[day] = float(res.objective) / 1000.0

    def fail_if_violated(self) -> None:
        if self.violations:
            day, stage, worst = self.violations[0]
            raise _InvariantFailure(
                f"{len(self.violations)} dispatch invariant violations; "
                f"first on day {day} ({stage}): {worst}")


class _InvariantFailure(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# small output helpers
# ---------------------------------------------------------------------------

def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _table(headers, rows) -> str:
    cells = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in cells)
              for i in range(len(headers))]
    def fmt(row):
        out = [row[0].ljust(widths[0])]
        out += [c.rjust(w) for c, w in zip(row[1:], widths[1:])]
        return "  ".join(out).rstrip()
    lines = [fmt(cells[0]), "  ".join("-" * w for w in widths)]
    lines += [fmt(r) for r in cells[1:]]
    return "\n".join(lines)


def _emit(path: Path, text: str) -> None:
    path.write_text(text + "\n", encoding="utf-8")
    print(text)


def _artifacts(out_dir: Path, *names) -> list:
    """A subcommand's artifact paths in ``out_dir``, made if missing; a name
    held by a directory fails here, before the work, not after it."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / name for name in names]
    for path in paths:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, "Is a directory", str(path))
    return paths


def _money(x: float) -> str:
    return f"{x:.6f}"


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _config_from_args(args) -> ExperimentConfig:
    raw = {}
    base_dir = Path(".")
    if args.config is not None:
        raw = read_config_file(args.config)
        base_dir = Path(args.config).resolve().parent
    overrides = {
        "seed": args.seed, "hub": args.hub, "mode": args.mode,
        "data_csv": args.data,
        "train_days": args.train_days, "test_days": args.test_days,
        "output_dir": args.out,
    }
    for key, val in overrides.items():
        if val is not None:
            raw[key] = val
    raw.setdefault("seed", 0)
    return experiment_config_from_dict(raw, base_dir)


def _experiment_inputs(config: ExperimentConfig):
    series = series_from_config(config)
    ds = DayDataset.from_series(series)
    train, test = split_dataset(ds, config)
    return series, ds, train, test


def _month_of(series, absolute_day: int) -> str:
    return str(series.timestamps[HORIZON * absolute_day])[:7]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    if args.days < 1:
        raise ConfigError("--days must be at least 1")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    csv_path, summary = _artifacts(Path(args.out), "synthetic_loads.csv",
                                   "synth_summary.txt")
    from .data import synth_data
    series = synth_data(seed=args.seed, days=args.days)
    write_series_csv(series, csv_path)
    rows = []
    for i, sector in enumerate(SECTORS):
        col = series.loads[i]
        rows.append((sector, f"{col.min():.1f}", f"{col.mean():.1f}",
                     f"{col.max():.1f}"))
    text = "\n".join([
        f"synthetic series: seed {args.seed}, {args.days} days "
        f"({series.loads.shape[1]} hours) -> {csv_path}",
        _table(("sector", "min kW", "mean kW", "max kW"), rows),
    ])
    _emit(summary, text)
    return EXIT_OK


def cmd_train_base(args) -> int:
    config = _config_from_args(args)
    trace_csv, summary, *model_paths = _artifacts(
        config.output_dir, "training_trace.csv", "train_base_summary.txt",
        *(f"model_base_{sector}.npz" for sector in SECTORS))
    _, _, train, _ = _experiment_inputs(config)
    models, traces = train_base_models(train, config)
    trace_rows = []
    for sector in SECTORS:
        for epoch, loss in enumerate(traces[sector]):
            trace_rows.append((sector, epoch, f"{loss:.12g}"))
    _write_csv(trace_csv, ("sector", "epoch", "mse"), trace_rows)
    rows = []
    for sector, path in zip(SECTORS, model_paths):
        save_model(models[sector], path)
        rows.append((sector, f"{traces[sector][-1]:.6g}", path.name))
    text = "\n".join([
        f"benchmark forecasters: seed {config.seed}, "
        f"{train.days} training days, {config.training.mse_epochs} epochs",
        _table(("sector", "final mse", "model file"), rows),
    ])
    _emit(summary, text)
    return EXIT_OK


def cmd_run_fto(args) -> int:
    config = _config_from_args(args)
    month_csv, summary = _artifacts(config.output_dir,
                                    "fto_monthly_costs.csv", "fto_summary.txt")
    series, _, train, test = _experiment_inputs(config)
    hub = load_hub_config(config.hub_path())
    models, _ = train_base_models(train, config)
    monitor = DispatchMonitor()
    total = evaluate_cost(models, test, hub, config.mode, on_dispatch=monitor)
    monitor.fail_if_violated()

    months = {}
    for slice_day, cost in sorted(monitor.day_costs.items()):
        month = _month_of(series, config.train_days - 1 + slice_day)
        days, acc = months.get(month, (0, 0.0))
        months[month] = (days + 1, acc + cost)
    month_rows = [(m, d, _money(c)) for m, (d, c) in sorted(months.items())]
    _write_csv(month_csv, ("month", "priced_days", "cost_kcny"), month_rows)
    spread = sum(c for _, c in months.values())
    if abs(spread - total) > CONSERVATION_TOL:
        raise _InvariantFailure(
            f"monthly rows sum to {spread!r} but the run settled {total!r}")

    text = "\n".join([
        f"forecast-then-optimize benchmark: seed {config.seed}, "
        f"{config.mode} protocol, {len(monitor.day_costs)} priced test days",
        _table(("month", "priced days", "cost kCNY"), month_rows),
        f"total cost (no data cooperation): {_money(total)} kCNY",
        f"dispatch checks: {monitor.n_solves} solves, "
        f"max residual {monitor.max_residual:.2e} kW",
    ])
    _emit(summary, text)
    return EXIT_OK


def cmd_train_e2e(args) -> int:
    config = _config_from_args(args)
    U = parse_coalition(args.coalition)
    label = coalition_label(U)
    cost_csv, summary, *model_paths = _artifacts(
        config.output_dir, f"e2e_{label}_costs.csv",
        f"e2e_{label}_summary.txt",
        *(f"model_e2e_{label}_{sector}.npz" for sector in SECTORS))
    _, _, train, test = _experiment_inputs(config)
    hub = load_hub_config(config.hub_path())
    base, _ = train_base_models(train, config)
    monitor = DispatchMonitor()

    def price(models, split):
        return evaluate_cost(models, split, hub, config.mode,
                             on_dispatch=monitor)

    base_train = price(base, train)
    trained = train_end_to_end(U, base, train, hub, config.training,
                               mode=config.mode, on_dispatch=monitor,
                               start_cost=base_train)
    costs = {
        ("train", "benchmark"): base_train,
        ("train", "end-to-end"): price(trained, train),
        ("test", "benchmark"): price(base, test),
        ("test", "end-to-end"): price(trained, test),
    }
    monitor.fail_if_violated()
    for sector, path in zip(SECTORS, model_paths):
        save_model(trained[sector], path)
    rows = [(split, model, _money(cost))
            for (split, model), cost in costs.items()]
    _write_csv(cost_csv, ("split", "model", "cost_kcny"), rows)
    text = "\n".join([
        f"end-to-end refit: coalition {label}, seed {config.seed}, "
        f"{config.training.e2e_epochs} epochs at lr "
        f"{config.training.e2e_lr:g}",
        _table(("split", "model", "cost kCNY"), rows),
        f"test saving vs benchmark: "
        f"{_money(costs[('test', 'benchmark')] - costs[('test', 'end-to-end')])}"
        f" kCNY",
    ])
    _emit(summary, text)
    return EXIT_OK


def cmd_valuate(args) -> int:
    config = _config_from_args(args)
    ledger_csv, allocation_csv, summary = _artifacts(
        config.output_dir, "valuation_ledger.csv", "valuation_allocation.csv",
        "valuate_summary.txt")
    _, ds, train, test = _experiment_inputs(config)
    hub = load_hub_config(config.hub_path())
    monitor = DispatchMonitor()
    report = full_valuation(ds, config, hub=hub, on_dispatch=monitor)
    monitor.fail_if_violated()

    led_rows = [(label, _money(cost), _money(value))
                for label, cost, value in ledger_rows(report.ledger)]
    _write_csv(ledger_csv, ("coalition", "cost_kcny", "value_kcny"),
               led_rows)
    alloc_rows = [(s, _money(raw), _money(pay))
                  for s, raw, pay in allocation_rows(report.allocation)]
    _write_csv(allocation_csv, ("sector", "raw_value_kcny", "payout_kcny"),
               alloc_rows)

    v_total = coalition_value(report.ledger, frozenset(LETTERS))
    paid = sum(report.allocation.payouts)
    if v_total > 0.0 and sum(report.allocation.raw) > 0.0:
        if abs(paid - v_total) > BALANCE_TOL:
            raise _InvariantFailure(
                f"payouts sum to {paid!r}, grand coalition value "
                f"is {v_total!r}")
    elif paid != 0.0:
        raise _InvariantFailure(
            f"degenerate run must pay nothing, got {paid!r}")

    text = "\n".join([
        f"coalition ledger: seed {config.seed}, {config.mode} protocol, "
        f"{test.days - 1} priced test days",
        _table(("coalition", "cost kCNY", "value kCNY"), led_rows),
        "",
        f"allocation (grand coalition value {_money(v_total)} kCNY):",
        _table(("sector", "raw value", "payout kCNY"), alloc_rows),
        f"dispatch checks: {monitor.n_solves} solves, "
        f"max residual {monitor.max_residual:.2e} kW",
    ])
    _emit(summary, text)
    return EXIT_OK


def cmd_metrics(args) -> int:
    config = _config_from_args(args)
    metrics_csv, summary = _artifacts(config.output_dir, "sector_metrics.csv",
                                      "metrics_summary.txt")
    _, _, train, test = _experiment_inputs(config)
    hub = load_hub_config(config.hub_path())
    base, _ = train_base_models(train, config)
    trained = train_end_to_end(frozenset(LETTERS), base, train, hub,
                               config.training, mode=config.mode)
    rows = []
    for name, models in (("benchmark", base), ("end-to-end", trained)):
        scored = sector_metrics(models, test)
        for sector in SECTORS:
            mae, rmse, mape = scored[sector]
            rows.append((name, sector, f"{mae:.6f}", f"{rmse:.6f}",
                         f"{mape:.6f}"))
    _write_csv(metrics_csv,
               ("model", "sector", "mae_kw", "rmse_kw", "mape_pct"), rows)
    text = "\n".join([
        f"held-out forecast accuracy: seed {config.seed}, "
        f"{test.days - 1} scored days",
        _table(("model", "sector", "MAE kW", "RMSE kW", "MAPE %"), rows),
    ])
    _emit(summary, text)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    report_csv, summary = _artifacts(Path(args.out), "gradcheck_report.csv",
                                     "gradcheck_summary.txt")
    results = run_all_batteries(quick=args.quick)
    rows = [(r.name, r.n_instances, r.n_checks, r.n_failures,
             f"{r.worst:.3e}", "PASS" if r.passed else "FAIL")
            for r in results]
    _write_csv(report_csv,
               ("battery", "instances", "checks", "failures", "worst",
                "status"), rows)
    lines = [r.line() for r in results]
    for r in results:
        lines += [f"    {note}" for note in r.failures]
    _emit(summary, "\n".join(lines))
    if not all(r.passed for r in results):
        return EXIT_INVARIANT
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def _add_experiment_flags(sub) -> None:
    sub.add_argument("--config", help="experiment config YAML")
    sub.add_argument("--seed", type=int, help="master seed override")
    sub.add_argument("--hub", help="hub name (experiment|showcase) or path")
    sub.add_argument("--mode", choices=("sequential", "joint"),
                     help="settlement protocol override")
    sub.add_argument("--data", help="hourly load CSV instead of synthesis")
    sub.add_argument("--train-days", type=int, help="training days override")
    sub.add_argument("--test-days", type=int, help="held-out days override")
    sub.add_argument("--out", help="output directory override")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mesval",
        description="Value multi-sector load data through a differentiable "
                    "energy-hub scheduler.")
    subs = parser.add_subparsers(dest="command", metavar="command")

    p = subs.add_parser("synth", help="generate a synthetic load CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--days", type=int, default=40)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("train-base",
                        help="train per-sector benchmark forecasters")
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_train_base)

    p = subs.add_parser("run-fto",
                        help="benchmark cost report (no cooperation)")
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_run_fto)

    p = subs.add_parser("train-e2e",
                        help="refit one coalition end to end")
    p.add_argument("--coalition", required=True,
                   help="sector letters, e.g. ehc or h (or 'none')")
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_train_e2e)

    p = subs.add_parser("valuate",
                        help="full coalition ledger and payout split")
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_valuate)

    p = subs.add_parser("metrics",
                        help="per-sector forecast accuracy report")
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_metrics)

    p = subs.add_parser("gradcheck",
                        help="run the randomized gradient batteries")
    p.add_argument("--quick", action="store_true",
                   help="fifth-size batteries for a fast smoke check")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def _qualified(exc: Exception) -> str:
    module = type(exc).__module__.rsplit(".", 1)[-1]
    return f"{module}: {exc}"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (DispatchInfeasible, NodeLimitError, LPNumericalError) as exc:
        print(_qualified(exc), file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConfigError, HubConfigError, ValuationError) as exc:
        print(_qualified(exc), file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:    # an output path that cannot be made or written
        print(f"{exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ForecastError, DispatchBuildError) as exc:
        print(_qualified(exc), file=sys.stderr)
        return EXIT_DATA
    except _InvariantFailure as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
