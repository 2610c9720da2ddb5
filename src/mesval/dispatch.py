"""Two-settlement scheduling problems over a hub, as parametric MILPs.

Three builders share one variable/row vocabulary:

``build_day_ahead``
    Commitment stage alone. Parameters are the 72 forecast slots
    (sector-major, 24 hours each); the objective is the day-ahead tariff
    times purchased input flows. Storage can be scheduled but planned
    cycling carries no fee; fees accrue on what the device actually does
    intra-day.

``build_intra_day``
    Recourse stage after a committed day-ahead solve. Parameters are the
    72 actual-load slots followed by one slot per committed day-ahead flow
    the recourse rows read; the committed cost is the objective's constant
    ``c0``. Upward deviations on purchased inputs trade at the
    intra-day tariff, downward ones refund a fraction of the day-ahead
    price, and an optional temporary purchase covers electricity beyond
    the reserve band.

``build_joint``
    Both stages in one problem with 144 parameter slots (72 forecast,
    72 actual). Forecast slots appear only in commitment balance rows and
    actual slots only in recourse balance rows, which is what makes the
    optimal cost differentiable with respect to the forecast.

Templates: loads enter a problem only through its parameter vector, so
each stage is compiled once per hub (``LinearProgram`` -> the canonical
form, its constraint matrices built as CSR straight from the row triplets,
with no dense rows x columns matrix) on the first build and reused for
every later day. A build only checks the loads and sets ``M0``; an
intra-day build also appends the day's committed flows to it and writes
the committed cost into ``c0``. The ``id.link``,
``id.cres_up`` and ``id.cres_dn`` rows are written once, in the joint form
with their ``da.flow`` terms; the intra-day stage has no day-ahead
columns, so there each such term is a parameter slot instead. Templates
are kept per ``HubConfig`` object and dropped when it is collected. Every
day's problem shares the template's matrices, right-hand-side arrays,
bounds, cost split and ``var_index``; these are read-only.

Variable names follow ``<stage>.<kind>[...]`` with stages ``da``/``id``;
`DispatchProblem.var_index` maps them to primal positions.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .bnb import MILPProblem
from .hub import HORIZON, SECTORS, HubConfig, HubMatrices, build_hub_matrices
from .lp import LinearProgram, _csr_standard_form
# not called here; kept importable for tools that wrap mesval.dispatch
from .lp import to_standard_form  # noqa: F401

__all__ = [
    "DispatchBuildError",
    "DispatchProblem",
    "DispatchCost",
    "DispatchCheck",
    "build_day_ahead",
    "build_intra_day",
    "build_joint",
    "dispatch_cost",
    "verify_dispatch",
]


AUDIT_TOL = 1e-7     # verify_dispatch's residual bound, times 1 + max load


class DispatchBuildError(ValueError):
    """Bad loads or an ill-posed builder call."""


@dataclass(frozen=True)
class DispatchProblem:
    """A built scheduling problem plus the bookkeeping to read it back.

    ``M0`` holds the parameter values of ``param_names``: the loads, and
    on the intra-day stage the committed ``da.flow`` values after them.
    """

    stage: str                    # "day_ahead" | "intra_day" | "joint"
    config: HubConfig
    matrices: HubMatrices
    milp: MILPProblem
    M0: np.ndarray
    param_names: tuple
    var_index: dict
    cost_day_ahead: np.ndarray    # per-variable objective split
    cost_intra: np.ndarray
    cost_storage: np.ndarray


@dataclass(frozen=True)
class DispatchCost:
    day_ahead: float
    intra_day: float
    storage: float
    total: float


@dataclass(frozen=True)
class DispatchCheck:
    ok: bool
    violations: tuple
    max_residual: float
    n_checks: int


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

# variable-name stages of each problem, and the parameter block whose loads
# each one balances
_PARTS = {"day_ahead": ("da",), "intra_day": ("id",), "joint": ("da", "id")}
_LOAD_PREFIX = {"da": "fc", "id": "act"}

def _check_loads(loads, config: HubConfig, label: str) -> np.ndarray:
    arr = np.asarray(loads, dtype=float)
    if arr.shape != (len(SECTORS), HORIZON):
        raise DispatchBuildError(
            f"{label} must have shape ({len(SECTORS)}, {HORIZON}), "
            f"got {arr.shape}")
    if not np.isfinite(arr).all():
        raise DispatchBuildError(f"{label} contains non-finite entries")
    if (arr < 0).any():
        raise DispatchBuildError(f"{label} contains negative entries")
    for k, sector in enumerate(SECTORS):
        if config.output_for_sector(sector) is None and arr[k].any():
            raise DispatchBuildError(
                f"{label} nonzero for sector {sector!r} but the hub has "
                "no such output")
    return arr


def _flow_bounds(config: HubConfig, branch):
    inputs = {i.name: i for i in config.inputs}
    convs = {c.name: c for c in config.converters}
    ub = np.inf
    if branch.source in inputs:
        ub = min(ub, inputs[branch.source].capacity_kw)
    if branch.target in convs:
        ub = min(ub, convs[branch.target].capacity_kw)
    if branch.source in convs:
        conv = convs[branch.source]
        ub = min(ub, conv.capacity_kw * max(
            eta for _, eta in conv.efficiency_curve))
    return 0.0, ub


def _conv_ports(config: HubConfig, conv):
    feed = next(b for b in config.branches if b.target == conv.name)
    outs = [b for b in config.branches if b.source == conv.name]
    return feed, outs


def _add_stage(prog: LinearProgram, s: str, config: HubConfig,
               integers: list, cost_class: dict, *,
               day_ahead_prices: bool, storage_fees: bool) -> None:
    H = HORIZON
    inputs = {i.name: i for i in config.inputs}
    prices = config.prices

    for b in config.branches:
        lo, ub = _flow_bounds(config, b)
        for t in range(H):
            cost = 0.0
            name = f"{s}.flow[{b.name}][{t}]"
            if day_ahead_prices and b.source in inputs:
                cost = float(prices.day_ahead[b.carrier][t])
                cost_class[name] = "day_ahead"
            prog.add_var(name, lb=lo, ub=ub, cost=cost)

    for c in config.converters:
        feed, outs = _conv_ports(config, c)
        eta = c.fixed_efficiency
        block = None if eta is not None else c.block()
        for t in range(H):
            fname = f"{s}.flow[{feed.name}][{t}]"
            onames = [f"{s}.flow[{b.name}][{t}]" for b in outs]
            if eta is not None:
                coeffs = {fname: eta}
                coeffs.update({o: -1.0 for o in onames})
                prog.add_constraint(coeffs, "==", 0.0,
                                    name=f"{s}.conv[{c.name}][{t}]")
            else:
                K = block.n_binaries
                wnames = [f"{s}.w[{c.name}][{t}][{k}]" for k in range(K + 1)]
                snames = [f"{s}.s[{c.name}][{t}][{k}]" for k in range(K)]
                for wn in wnames:
                    prog.add_var(wn, lb=0.0, ub=1.0)
                for sn in snames:
                    prog.add_var(sn, lb=0.0, ub=1.0)
                    integers.append(sn)
                prog.add_constraint({w: 1.0 for w in wnames}, "==", 1.0,
                                    name=f"{s}.wsum[{c.name}][{t}]")
                prog.add_constraint({x: 1.0 for x in snames}, "==", 1.0,
                                    name=f"{s}.ssum[{c.name}][{t}]")
                for k in range(K + 1):
                    adj = {wnames[k]: 1.0}
                    if k > 0:
                        adj[snames[k - 1]] = -1.0
                    if k < K:
                        adj[snames[k]] = -1.0
                    prog.add_constraint(
                        adj, "<=", 0.0, name=f"{s}.adj[{c.name}][{t}][{k}]")
                pin = {fname: 1.0}
                pout = {o: 1.0 for o in onames}
                for k, wn in enumerate(wnames):
                    pin[wn] = -c.capacity_kw * float(block.input_levels[k])
                    pout[wn] = -c.capacity_kw * float(block.output_levels[k])
                prog.add_constraint(pin, "==", 0.0,
                                    name=f"{s}.pin[{c.name}][{t}]")
                prog.add_constraint(pout, "==", 0.0,
                                    name=f"{s}.pout[{c.name}][{t}]")
            if c.kind == "CHP":
                eb = next(b for b in outs if b.carrier == "electricity")
                hb = next(b for b in outs if b.carrier == "heat")
                prog.add_constraint(
                    {f"{s}.flow[{eb.name}][{t}]": c.heat_to_power_ratio,
                     f"{s}.flow[{hb.name}][{t}]": -1.0},
                    "==", 0.0, name=f"{s}.ratio[{c.name}][{t}]")

    for j in config.junctions:
        for t in range(H):
            coeffs = {}
            for b in config.branches:
                if b.target == j.name:
                    coeffs[f"{s}.flow[{b.name}][{t}]"] = 1.0
                elif b.source == j.name:
                    coeffs[f"{s}.flow[{b.name}][{t}]"] = -1.0
            prog.add_constraint(coeffs, "==", 0.0,
                                name=f"{s}.node[{j.name}][{t}]")

    for st in config.storages:
        for t in range(H):
            chn = f"{s}.q_ch[{st.name}][{t}]"
            dsn = f"{s}.q_dis[{st.name}][{t}]"
            socn = f"{s}.soc[{st.name}][{t}]"
            un = f"{s}.u[{st.name}][{t}]"
            prog.add_var(chn, 0.0, st.max_charge_kw,
                         cost=st.charge_cost if storage_fees else 0.0)
            prog.add_var(dsn, 0.0, st.max_discharge_kw,
                         cost=st.discharge_cost if storage_fees else 0.0)
            if storage_fees:
                cost_class[chn] = "storage"
                cost_class[dsn] = "storage"
            prog.add_var(socn, 0.0, st.capacity_kwh)
            prog.add_var(un, 0.0, 1.0)
            integers.append(un)
        for t in range(H):
            rec = {f"{s}.soc[{st.name}][{t}]": 1.0,
                   f"{s}.q_ch[{st.name}][{t}]": -1.0,
                   f"{s}.q_dis[{st.name}][{t}]": 1.0}
            rhs = 0.0
            if t == 0:
                rhs = st.initial_soc_kwh
            else:
                rec[f"{s}.soc[{st.name}][{t - 1}]"] = -1.0
            prog.add_constraint(rec, "==", rhs,
                                name=f"{s}.soc_rec[{st.name}][{t}]")
            prog.add_constraint(
                {f"{s}.q_ch[{st.name}][{t}]": 1.0,
                 f"{s}.u[{st.name}][{t}]": -st.max_charge_kw},
                "<=", 0.0, name=f"{s}.excl_ch[{st.name}][{t}]")
            prog.add_constraint(
                {f"{s}.q_dis[{st.name}][{t}]": 1.0,
                 f"{s}.u[{st.name}][{t}]": st.max_discharge_kw},
                "<=", st.max_discharge_kw,
                name=f"{s}.excl_dis[{st.name}][{t}]")
        if config.require_terminal_soc:
            prog.add_constraint(
                {f"{s}.soc[{st.name}][{HORIZON - 1}]": 1.0},
                ">=", st.initial_soc_kwh, name=f"{s}.terminal[{st.name}]")


def _add_balance_rows(prog: LinearProgram, s: str,
                      config: HubConfig) -> None:
    prefix = _LOAD_PREFIX[s]
    for sector in SECTORS:
        out = config.output_for_sector(sector)
        if out is None:
            continue
        for t in range(HORIZON):
            coeffs = {}
            for b in config.branches:
                if b.target == out.name:
                    coeffs[f"{s}.flow[{b.name}][{t}]"] = 1.0
            for st in config.storages:
                if st.carrier == sector:
                    coeffs[f"{s}.q_dis[{st.name}][{t}]"] = 1.0
                    coeffs[f"{s}.q_ch[{st.name}][{t}]"] = -1.0
            if s == "id" and sector == "electricity" and \
                    config.temporary_purchase_kw > 0:
                coeffs[f"id.temp[{t}]"] = 1.0
            prog.add_constraint(
                coeffs, "==", 0.0, params={f"{prefix}[{sector}][{t}]": 1.0},
                name=f"{s}.balance[{sector}][{t}]")


def _add_intra_links(prog: LinearProgram, config: HubConfig,
                     cost_class: dict, committed: bool) -> None:
    """The rows that settle the recourse against the commitment, each
    written once with its committed ``da.flow`` terms. On the intra-day
    stage (``committed``: it has no day-ahead columns) each such term is a
    parameter slot of the same name, declared on first use."""
    H = HORIZON
    prices = config.prices
    declared: set = set()

    def add_row(coeffs, sense, rhs, name):
        params = {}
        if committed:
            for var in [v for v in coeffs if v.startswith("da.")]:
                if var not in declared:
                    prog.add_param(var)
                    declared.add(var)
                params[var] = -coeffs.pop(var)
        prog.add_constraint(coeffs, sense, rhs, params=params, name=name)

    for inp in config.inputs:
        branches = [b for b in config.branches if b.source == inp.name]
        for t in range(H):
            upn = f"id.up[{inp.name}][{t}]"
            dnn = f"id.down[{inp.name}][{t}]"
            prog.add_var(upn, 0.0, inp.up_limit,
                         cost=float(prices.intra_day[inp.carrier][t]))
            prog.add_var(
                dnn, 0.0, inp.down_limit,
                cost=-prices.refund_fraction
                * float(prices.day_ahead[inp.carrier][t]))
            cost_class[upn] = "intra"
            cost_class[dnn] = "intra"
            coeffs = {f"id.flow[{b.name}][{t}]": 1.0 for b in branches}
            coeffs[upn] = -1.0
            coeffs[dnn] = 1.0
            for b in branches:
                coeffs[f"da.flow[{b.name}][{t}]"] = -1.0
            add_row(coeffs, "==", 0.0, f"id.link[{inp.name}][{t}]")

    if config.temporary_purchase_kw > 0:
        if "electricity" not in prices.intra_day:
            raise DispatchBuildError(
                "temporary purchases need an electricity price")
        for t in range(H):
            tn = f"id.temp[{t}]"
            prog.add_var(tn, 0.0, config.temporary_purchase_kw,
                         cost=float(prices.intra_day["electricity"][t]))
            cost_class[tn] = "intra"

    for c in config.converters:
        feed, _ = _conv_ports(config, c)
        for t in range(H):
            idf = f"id.flow[{feed.name}][{t}]"
            daf = f"da.flow[{feed.name}][{t}]"
            if c.reserve_up_kw is not None:
                add_row({idf: 1.0, daf: -1.0}, "<=", c.reserve_up_kw,
                        f"id.cres_up[{c.name}][{t}]")
            if c.reserve_down_kw is not None:
                add_row({idf: -1.0, daf: 1.0}, "<=", c.reserve_down_kw,
                        f"id.cres_dn[{c.name}][{t}]")


def _finish(prog: LinearProgram, stage: str, config: HubConfig,
            integers: list, cost_class: dict) -> DispatchProblem:
    sf = _csr_standard_form(prog)
    var_index = {n: i for i, n in enumerate(sf.var_names)}
    milp = MILPProblem(lp=sf, integer_vars=tuple(var_index[n]
                                                 for n in integers))
    n = sf.n_vars
    split = {"day_ahead": np.zeros(n), "intra": np.zeros(n),
             "storage": np.zeros(n)}
    for name, kind in cost_class.items():
        i = var_index[name]
        split[kind][i] = sf.c[i]
    total = split["day_ahead"] + split["intra"] + split["storage"]
    if not np.array_equal(total, sf.c):
        raise DispatchBuildError("objective entries left unclassified")
    return DispatchProblem(
        stage=stage, config=config, matrices=build_hub_matrices(config),
        milp=milp, M0=np.zeros(sf.param_dim),
        param_names=sf.param_names, var_index=var_index,
        cost_day_ahead=split["day_ahead"], cost_intra=split["intra"],
        cost_storage=split["storage"])


def _add_params(prog: LinearProgram, prefix: str) -> None:
    for sector in SECTORS:
        for t in range(HORIZON):
            prog.add_param(f"{prefix}[{sector}][{t}]")


def _compile(config: HubConfig, stage: str) -> DispatchProblem:
    """One stage through ``LinearProgram`` -> its CSR canonical form.

    The problem holds for any day: loads, and on the intra-day stage the
    committed flows, enter only through ``M``, and ``M0`` is left at zero.
    """
    parts = _PARTS[stage]
    prog = LinearProgram()
    for s in parts:
        _add_params(prog, _LOAD_PREFIX[s])
    integers: list = []
    cost_class: dict = {}
    for s in parts:
        _add_stage(prog, s, config, integers, cost_class,
                   day_ahead_prices=s == "da", storage_fees=s == "id")
    if "id" in parts:
        _add_intra_links(prog, config, cost_class, "da" not in parts)
    for s in parts:
        _add_balance_rows(prog, s, config)
    return _finish(prog, stage, config, integers, cost_class)


# ---------------------------------------------------------------------------
# templates: one compile per (hub, stage)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Template:
    problem: DispatchProblem
    # the intra-day stage only: the day-ahead column of each committed-flow
    # parameter slot, in slot order
    commitment: np.ndarray | None
    # (3, k): the charge, discharge and exclusivity-binary columns of each
    # storage unit and hour, for storage_repair
    storage_cols: np.ndarray
    audit: "_Audit"            # index arrays of verify_dispatch


# id(config) -> (weak reference to the config, {stage: _Template}); an entry
# leaves with its config, before the id can be reused
_TEMPLATES: dict = {}


def _template(config: HubConfig, stage: str) -> _Template:
    key = id(config)
    entry = _TEMPLATES.get(key)
    if entry is None or entry[0]() is not config:
        entry = (weakref.ref(config), {})
        _TEMPLATES[key] = entry
        weakref.finalize(config, _TEMPLATES.pop, key, None)
    templates = entry[1]
    if stage not in templates:
        templates[stage] = _compile_template(config, stage)
    return templates[stage]


def _compile_template(config: HubConfig, stage: str) -> _Template:
    prob = _compile(config, stage)
    lp = prob.milp.lp
    for a in (lp.c, lp.b_f0, lp.B_f, lp.b_h0, lp.B_h, lp.lb, lp.ub,
              prob.cost_day_ahead, prob.cost_intra, prob.cost_storage,
              *(getattr(A, part) for A in (lp.A_f, lp.A_h)
                for part in ("data", "indices", "indptr"))):
        a.flags.writeable = False
    storage_cols = np.array(
        [[prob.var_index[f"{s}.{kind}[{store.name}][{t}]"]
          for s in _PARTS[stage] for store in config.storages
          for t in range(HORIZON)]
         for kind in ("q_ch", "q_dis", "u")], dtype=int)
    commitment = None
    if stage == "intra_day":
        da_index = _template(config, "day_ahead").problem.var_index
        commitment = np.array(
            [da_index[n] for n in prob.param_names[len(SECTORS) * HORIZON:]],
            dtype=np.intp)
    # the cache must not keep its key alive: builds put the config back
    return _Template(
        problem=replace(prob, config=None,
                        var_index=MappingProxyType(prob.var_index)),
        commitment=commitment,
        storage_cols=storage_cols,
        audit=_compile_audit(config, stage, prob.var_index,
                             prob.param_names))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_day_ahead(forecasts, config: HubConfig) -> DispatchProblem:
    fc = _check_loads(forecasts, config, "forecasts")
    return replace(_template(config, "day_ahead").problem, config=config,
                   M0=fc.reshape(-1))


def build_intra_day(da_problem: DispatchProblem, da_result,
                    actual) -> DispatchProblem:
    """The recourse stage of the day ``da_result`` committed: the intra-day
    template at ``M0 = [actual loads, committed flows]``, the flows read
    from the day-ahead primal, with the committed cost as ``c0``."""
    if da_problem.stage != "day_ahead":
        raise DispatchBuildError("first argument must be a day-ahead "
                                 "problem")
    if da_result.status != "optimal":
        raise DispatchBuildError(
            f"day-ahead solve has status {da_result.status!r}")
    config = da_problem.config
    act = _check_loads(actual, config, "actual loads")
    tpl = _template(config, "intra_day")
    flows = np.asarray(da_result.primal, dtype=float)[tpl.commitment]
    prob = tpl.problem
    lp = replace(prob.milp.lp, c0=float(da_result.objective))
    return replace(prob, config=config, milp=replace(prob.milp, lp=lp),
                   M0=np.concatenate([act.reshape(-1), flows]))


def build_joint(forecasts, actual, config: HubConfig) -> DispatchProblem:
    fc = _check_loads(forecasts, config, "forecasts")
    act = _check_loads(actual, config, "actual loads")
    return replace(_template(config, "joint").problem, config=config,
                   M0=np.concatenate([fc.reshape(-1), act.reshape(-1)]))


def storage_repair(problem: DispatchProblem):
    """Repair proposal for the search, aware of the storage structure.

    The committed stage pays no storage fees, so relaxation vertices may
    carry simultaneous charge and discharge; every balance and state row
    sees only their difference, so netting the pair and setting the
    exclusivity binary to the surviving side changes nothing physical and
    never raises the cost. Remaining integers round to the nearest value.
    The search verifies each proposal by substitution before accepting it,
    so a proposal this function gets wrong only costs one branch.
    """
    ch, dis, u_col = _template(problem.config, problem.stage).storage_cols

    def propose(node_lp, M, sol, int_idx):
        ints = np.asarray(int_idx, dtype=int)
        z = sol.primal.copy()
        z[ints] = np.clip(np.round(z[ints]), node_lp.lb[ints],
                          node_lp.ub[ints])
        # max(x, 0.0) and a scalar clip, elementwise: both keep -0.0
        net = sol.primal[ch] - sol.primal[dis]
        z[ch] = np.where(0.0 > net, 0.0, net)
        z[dis] = np.where(0.0 > -net, 0.0, -net)
        u = np.where(z[ch] > 1e-9, 1.0,
                     np.where(z[dis] > 1e-9, 0.0, np.round(sol.primal[u_col])))
        lo, hi = node_lp.lb[u_col], node_lp.ub[u_col]
        z[u_col] = np.where(u < lo, lo, np.where(u > hi, hi, u))
        return z

    return propose


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

def dispatch_cost(problem: DispatchProblem, result) -> DispatchCost:
    if result.status != "optimal":
        raise ValueError(f"cannot account a {result.status!r} result")
    z = result.primal
    da = float(problem.cost_day_ahead @ z) + problem.milp.lp.c0
    intra = float(problem.cost_intra @ z)
    sto = float(problem.cost_storage @ z)
    total = float(result.objective)
    if abs(da + intra + sto - total) > 1e-9 * (1.0 + abs(total)):
        raise RuntimeError("cost components do not partition the objective")
    return DispatchCost(day_ahead=da, intra_day=intra, storage=sto,
                        total=total)


# ---------------------------------------------------------------------------
# solution checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Family:
    """One kind of check: ``width`` checks per item (the horizon, or 1),
    the check of item ``i`` at hour ``t`` named
    ``fmt.format(*labels[i], t)``."""

    fmt: str
    labels: tuple
    width: int


# the audit's families in the order `_residuals` returns them; part-load
# converters follow, one family each
_KINDS = ("bounds", "node", "conv", "ratio", "balance", "soc_rec",
          "soc_range", "excl", "terminal", "link", "reserve_up",
          "reserve_down", "cres_up", "cres_dn")


@dataclass(frozen=True)
class _Audit:
    """What `verify_dispatch` needs of one ``(hub, stage)``, compiled once.

    Built from the hub config and the variable and parameter names alone,
    never from the constraint rows: the audit checks the solver against
    the physics, not against the builder. Indices point into
    ``zx = [primal, M, 0.0]``, so an intra-day check reads each committed
    flow from its parameter slot. A sum over a varying number of terms is
    a ``(terms, items, H)`` index array, short items padded with the
    trailing zero, and ``(terms, items, 1)`` signs; other arrays are
    ``(items, H)`` indices or ``(items, 1)`` constants.
    """

    n_vars: int
    families: tuple        # _Family per kind of `_KINDS`, then part-load
    offsets: np.ndarray    # start of each family in the concatenation
    order: np.ndarray      # concatenation position of each check, in order
    node: tuple            # (idx, sign): signed branch flows
    conv: tuple            # (feed, outs, eta): fixed-efficiency converters
    ratio: tuple           # (power, heat, heat-to-power ratio)
    balance: tuple         # (idx, sign, load index into M)
    storage: tuple         # (soc, charge, discharge, initial, capacity)
    terminal: bool
    link: tuple            # (intra flows, committed flows, up, down,
                           #  up limit, down limit)
    cres_up: tuple         # (intra feed, committed feed, reserve)
    cres_dn: tuple
    part_load: tuple       # per converter: (feed, outs, capacity, x, y)

    def name(self, check: int) -> str:
        pos = int(self.order[check])
        f = int(np.searchsorted(self.offsets, pos, side="right")) - 1
        fam = self.families[f]
        item, t = divmod(pos - int(self.offsets[f]), fam.width)
        return fam.fmt.format(*fam.labels[item], t)


def _check_format(kind: str) -> str:
    if kind == "bounds":
        return "bounds"
    if kind == "terminal":
        return "{0}.terminal[{1}]"
    if kind.startswith("part_load["):
        kind = "conv"
    return "{0}.%s[{1}][{2}]" % kind


def _stack_terms(rows, H: int, pad: int) -> tuple:
    """Per-item lists of ``(sign, columns)`` as ``(terms, items, H)``
    indices and ``(terms, items, 1)`` signs; short lists end in ``pad``."""
    K = max(map(len, rows), default=0)
    idx = np.full((K, len(rows), H), pad, dtype=np.intp)
    sign = np.ones((K, len(rows), 1))
    for i, terms in enumerate(rows):
        for k, (sg, cols) in enumerate(terms):
            idx[k, i] = cols
            sign[k, i] = sg
    return idx, sign


def _compile_audit(config: HubConfig, stage: str, var_index,
                   param_names) -> _Audit:
    H = HORIZON
    hours = range(H)
    stages = _PARTS[stage]
    n = len(var_index)
    pidx = {p: i for i, p in enumerate(param_names)}

    def cols(s, kind, name):
        return [var_index[f"{s}.{kind}[{name}][{t}]"] for t in hours]

    def flows(s, branch):
        return cols(s, "flow", branch.name)

    def committed(branch):
        # variables of a joint problem; after a separate day-ahead solve,
        # parameters
        if "da" in stages:
            return flows("da", branch)
        return [n + pidx[f"da.flow[{branch.name}][{t}]"] for t in hours]

    labels = {kind: [] for kind in _KINDS}
    labels["bounds"].append(())
    seq = [("bounds", 0, 0)]    # (family, item, hour) of every check

    def item(kind, *label):
        labels.setdefault(kind, []).append(label)
        return len(labels[kind]) - 1

    node, conv, ratio, balance, load, storage = [], [], [], [], [], []
    link, cres_up, cres_dn, part_load = [], [], [], {}
    for s in stages:
        for j in config.junctions:
            i = item("node", s, j.name)
            node.append([(1.0 if b.target == j.name else -1.0, flows(s, b))
                         for b in config.branches
                         if j.name in (b.target, b.source)])
            seq += [("node", i, t) for t in hours]

        for c in config.converters:
            feed, outs = _conv_ports(config, c)
            terms = [(1.0, flows(s, b)) for b in outs]
            if c.fixed_efficiency is not None:
                kind = "conv"
                conv.append((flows(s, feed), terms, c.fixed_efficiency))
            else:
                kind = f"part_load[{c.name}]"
                part_load.setdefault(kind, (c, c.block(), []))[2].append(
                    (flows(s, feed), terms))
            i = item(kind, s, c.name)
            chp = c.kind == "CHP"
            if chp:
                eb = next(b for b in outs if b.carrier == "electricity")
                hb = next(b for b in outs if b.carrier == "heat")
                r = item("ratio", s, c.name)
                ratio.append((flows(s, eb), flows(s, hb),
                              c.heat_to_power_ratio))
            for t in hours:
                seq.append((kind, i, t))
                if chp:
                    seq.append(("ratio", r, t))

        prefix = _LOAD_PREFIX[s]
        for sector in SECTORS:
            out = config.output_for_sector(sector)
            if out is None:
                continue
            terms = [(1.0, flows(s, b)) for b in config.branches
                     if b.target == out.name]
            for st in config.storages:
                if st.carrier == sector:
                    terms += [(1.0, cols(s, "q_dis", st.name)),
                              (-1.0, cols(s, "q_ch", st.name))]
            if s == "id" and sector == "electricity" and \
                    config.temporary_purchase_kw > 0:
                terms.append((1.0, [var_index[f"id.temp[{t}]"]
                                    for t in hours]))
            i = item("balance", s, sector)
            balance.append(terms)
            load.append([pidx[f"{prefix}[{sector}][{t}]"] for t in hours])
            seq += [("balance", i, t) for t in hours]

        for st in config.storages:
            i = item("soc_rec", s, st.name)
            item("soc_range", s, st.name)
            item("excl", s, st.name)
            storage.append((cols(s, "soc", st.name), cols(s, "q_ch", st.name),
                            cols(s, "q_dis", st.name), st.initial_soc_kwh,
                            st.capacity_kwh))
            for t in hours:
                seq += [("soc_rec", i, t), ("soc_range", i, t),
                        ("excl", i, t)]
            if config.require_terminal_soc:
                seq.append(("terminal", item("terminal", s, st.name), 0))

    if "id" in stages:
        for inp in config.inputs:
            branches = [b for b in config.branches if b.source == inp.name]
            i = item("link", "id", inp.name)
            item("reserve_up", "id", inp.name)
            item("reserve_down", "id", inp.name)
            link.append(([(1.0, flows("id", b)) for b in branches],
                         [(1.0, committed(b)) for b in branches],
                         cols("id", "up", inp.name),
                         cols("id", "down", inp.name),
                         inp.up_limit, inp.down_limit))
            for t in hours:
                seq += [("link", i, t), ("reserve_up", i, t),
                        ("reserve_down", i, t)]
        for c in config.converters:
            if c.reserve_up_kw is None and c.reserve_down_kw is None:
                continue
            feed, _ = _conv_ports(config, c)
            pair = (flows("id", feed), committed(feed))
            up = dn = None
            if c.reserve_up_kw is not None:
                up = item("cres_up", "id", c.name)
                cres_up.append((*pair, c.reserve_up_kw))
            if c.reserve_down_kw is not None:
                dn = item("cres_dn", "id", c.name)
                cres_dn.append((*pair, c.reserve_down_kw))
            for t in hours:
                if up is not None:
                    seq.append(("cres_up", up, t))
                if dn is not None:
                    seq.append(("cres_dn", dn, t))

    pad = n + len(param_names)

    def index(rows):
        return np.array(rows, dtype=np.intp).reshape(-1, H)

    def const(values):
        return np.array(values, dtype=float).reshape(-1, 1)

    def field(rows, k):
        return [row[k] for row in rows]

    families = tuple(_Family(fmt=_check_format(kind),
                             labels=tuple(labels[kind]),
                             width=1 if kind in ("bounds", "terminal") else H)
                     for kind in labels)
    sizes = [len(f.labels) * f.width for f in families]
    offsets = np.cumsum([0] + sizes[:-1])
    start = dict(zip(labels, offsets.tolist()))
    width = {kind: f.width for kind, f in zip(labels, families)}
    order = np.array([start[kind] + i * width[kind] + t
                      for kind, i, t in seq], dtype=np.intp)

    def cres(rows):
        return (index(field(rows, 0)), index(field(rows, 1)),
                const(field(rows, 2)))

    return _Audit(
        n_vars=n, families=families, offsets=offsets, order=order,
        node=_stack_terms(node, H, pad),
        conv=(index(field(conv, 0)),
              _stack_terms(field(conv, 1), H, pad)[0],
              const(field(conv, 2))),
        ratio=(index(field(ratio, 0)), index(field(ratio, 1)),
               const(field(ratio, 2))),
        balance=(*_stack_terms(balance, H, pad), index(load)),
        storage=(index(field(storage, 0)), index(field(storage, 1)),
                 index(field(storage, 2)), const(field(storage, 3)),
                 const(field(storage, 4))),
        terminal=config.require_terminal_soc,
        link=(_stack_terms(field(link, 0), H, pad)[0],
              _stack_terms(field(link, 1), H, pad)[0],
              index(field(link, 2)), index(field(link, 3)),
              const(field(link, 4)), const(field(link, 5))),
        cres_up=cres(cres_up), cres_dn=cres(cres_dn),
        part_load=tuple(
            (index(field(rows, 0)), _stack_terms(field(rows, 1), H, pad)[0],
             c.capacity_kw, block.input_levels, block.output_levels)
            for c, block, rows in part_load.values()))


def _sum(zx: np.ndarray, idx: np.ndarray, sign=None) -> np.ndarray:
    """The gathered terms added left to right, one array add per term."""
    res = np.zeros(idx.shape[1:])
    for k in range(len(idx)):
        res = res + (zx[idx[k]] if sign is None else sign[k] * zx[idx[k]])
    return res


def _residuals(a: _Audit, zx: np.ndarray, M: np.ndarray) -> list:
    """Each family's amounts after ``bounds``, in `_Audit.families` order.

    Every expression keeps the operation order of the per-check form
    (``((soc - prev) - ch) + dis``, ``eta * fin - total_out``), so each
    amount equals it bit for bit.
    """
    idx, sign = a.node
    out = [np.abs(_sum(zx, idx, sign))]
    feed, outs, eta = a.conv
    out.append(np.abs(eta * zx[feed] - _sum(zx, outs)))
    power, heat, r = a.ratio
    out.append(np.abs(r * zx[power] - zx[heat]))
    idx, sign, load = a.balance
    out.append(np.abs(_sum(zx, idx, sign) - M[load]))

    soc_i, ch_i, dis_i, init, cap = a.storage
    soc, ch, dis = zx[soc_i], zx[ch_i], zx[dis_i]
    prev = np.concatenate([init, soc[:, :-1]], axis=1)
    out.append(np.abs(((soc - prev) - ch) + dis))
    out.append(np.maximum(np.maximum(-soc, soc - cap), 0.0))
    out.append(np.minimum(ch, dis))
    out.append(np.maximum(init[:, 0] - soc[:, -1], 0.0) if a.terminal
               else np.zeros(0))

    id_idx, da_idx, up_i, down_i, up_lim, down_lim = a.link
    up, down = zx[up_i], zx[down_i]
    out.append(np.abs(((_sum(zx, id_idx) - _sum(zx, da_idx)) - up) + down))
    out.append(np.maximum(up - up_lim, 0.0))
    out.append(np.maximum(down - down_lim, 0.0))
    idf, daf, reserve = a.cres_up
    out.append(np.maximum((zx[idf] - zx[daf]) - reserve, 0.0))
    idf, daf, reserve = a.cres_dn
    out.append(np.maximum((zx[daf] - zx[idf]) - reserve, 0.0))

    for feed, outs, cap, x, y in a.part_load:
        out.append(np.abs(_sum(zx, outs)
                          - cap * np.interp(zx[feed] / cap, x, y)))
    return out


def verify_dispatch(problem: DispatchProblem, result,
                    M=None) -> DispatchCheck:
    """Re-derive every physical requirement from the raw primal vector.

    Residuals are compared against ``AUDIT_TOL * (1 + max load)``, the
    largest absolute load slot of ``M``, so the check scales with the load
    level; a residual that is not finite (a NaN or infinite primal entry)
    is a violation too, and ``max_residual`` carries it. Covers junction
    balances, conversion curves, cogeneration coupling, demand balances,
    deviation links and reserve containment, storage dynamics and
    exclusivity, and variable bounds. The index arrays behind it are
    compiled once per ``(hub, stage)`` from the hub config and the
    variable and parameter names, independently of the constraint rows.
    """
    if result.status != "optimal":
        raise ValueError(f"cannot verify a {result.status!r} result")
    audit = _template(problem.config, problem.stage).audit
    z = np.asarray(result.primal, dtype=float)
    if z.shape != (audit.n_vars,):
        raise ValueError(f"primal has {z.size} entries, the problem has "
                         f"{audit.n_vars} variables")
    M = np.asarray(problem.M0 if M is None else M, dtype=float)
    if M.shape != problem.M0.shape:
        raise ValueError(f"M has {M.size} entries, the problem has "
                         f"{problem.M0.size} parameters")
    # the load slots only: an intra-day M also holds the committed flows
    loads = M[audit.balance[2]]
    limit = AUDIT_TOL * (1.0 + float(np.abs(loads).max(initial=0.0)))
    lp = problem.milp.lp
    over = np.maximum(z - lp.ub, 0.0)
    under = np.maximum(lp.lb - z, 0.0)
    bounds = np.maximum(over, under).max(initial=0.0)
    zx = np.concatenate([z, M, [0.0]])
    amounts = np.concatenate(
        [[bounds], *(r.ravel() for r in _residuals(audit, zx, M))]
    )[audit.order]
    bad = np.flatnonzero(~(amounts <= limit))
    top = float(amounts.max())
    return DispatchCheck(
        ok=bad.size == 0,
        violations=tuple((audit.name(i), float(amounts[i])) for i in bad),
        max_residual=top if not top <= 0.0 else 0.0,
        n_checks=amounts.size)
