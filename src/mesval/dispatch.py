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
    72 actual-load slots; the commitment enters as constants plus a fixed
    objective offset. Upward deviations on purchased inputs trade at the
    intra-day tariff, downward ones refund a fraction of the day-ahead
    price, and an optional temporary purchase covers electricity beyond
    the reserve band.

``build_joint``
    Both stages in one problem with 144 parameter slots (72 forecast,
    72 actual). Forecast slots appear only in commitment balance rows and
    actual slots only in recourse balance rows, which is what makes the
    optimal cost differentiable with respect to the forecast.

Templates: loads enter a problem only through its parameter vector, so
each stage is compiled once per hub (``LinearProgram`` ->
``to_standard_form``, constraint matrices stored as CSR) on the first build
and reused for every later day. A day-ahead or joint build only checks the
loads and sets ``M0``. An intra-day build also writes the committed flows
into the right-hand sides of the ``id.link``, ``id.cres_up`` and
``id.cres_dn`` rows and the committed cost into ``c0``. Templates are kept
per ``HubConfig`` object and dropped when it is collected. Every day's
problem shares the template's matrices, bounds, cost split and
``var_index``; these are read-only.

Variable names follow ``<stage>.<kind>[...]`` with stages ``da``/``id``;
`DispatchProblem.var_index` maps them to primal positions.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np
from scipy import sparse

from .bnb import MILPProblem
from .hub import SECTORS, HubConfig, HubMatrices, build_hub_matrices
from .lp import LinearProgram, to_standard_form

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


class DispatchBuildError(ValueError):
    """Bad loads or an ill-posed builder call."""


@dataclass(frozen=True)
class DispatchProblem:
    """A built scheduling problem plus the bookkeeping to read it back."""

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
    da_reference: dict | None = None   # committed flows (sequential stage)

    def value(self, result, name: str) -> float:
        return float(result.primal[self.var_index[name]])


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
    if arr.shape != (len(SECTORS), config.horizon):
        raise DispatchBuildError(
            f"{label} must have shape ({len(SECTORS)}, {config.horizon}), "
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
    H = config.horizon
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
                {f"{s}.soc[{st.name}][{config.horizon - 1}]": 1.0},
                ">=", st.initial_soc_kwh, name=f"{s}.terminal[{st.name}]")


def _add_balance_rows(prog: LinearProgram, s: str,
                      config: HubConfig) -> None:
    prefix = _LOAD_PREFIX[s]
    for sector in SECTORS:
        out = config.output_for_sector(sector)
        if out is None:
            continue
        for t in range(config.horizon):
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


def _commitment_rhs(config: HubConfig, da_reference) -> tuple[dict, dict]:
    """Right-hand sides of the recourse rows that carry committed flows.

    Returns ``(link, reserve)``: the ``id.link`` equality rows and the
    ``id.cres_up``/``id.cres_dn`` inequality rows, each a row-name -> RHS
    mapping in row order. With every committed flow at zero these are the
    joint problem's right-hand sides, where the flows are variables.
    """
    H = config.horizon
    link, reserve = {}, {}
    for inp in config.inputs:
        branches = [b for b in config.branches if b.source == inp.name]
        for t in range(H):
            link[f"id.link[{inp.name}][{t}]"] = sum(
                da_reference[f"da.flow[{b.name}][{t}]"] for b in branches)
    for c in config.converters:
        if c.reserve_up_kw is None and c.reserve_down_kw is None:
            continue
        feed, _ = _conv_ports(config, c)
        for t in range(H):
            base = da_reference[f"da.flow[{feed.name}][{t}]"]
            if c.reserve_up_kw is not None:
                reserve[f"id.cres_up[{c.name}][{t}]"] = c.reserve_up_kw + base
            if c.reserve_down_kw is not None:
                reserve[f"id.cres_dn[{c.name}][{t}]"] = \
                    c.reserve_down_kw - base
    return link, reserve


def _add_intra_links(prog: LinearProgram, config: HubConfig,
                     cost_class: dict, da_reference: dict | None) -> None:
    H = config.horizon
    prices = config.prices
    coupled = da_reference is None
    link_rhs, reserve_rhs = _commitment_rhs(
        config, defaultdict(float) if coupled else da_reference)
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
            if coupled:
                for b in branches:
                    coeffs[f"da.flow[{b.name}][{t}]"] = -1.0
            name = f"id.link[{inp.name}][{t}]"
            prog.add_constraint(coeffs, "==", link_rhs[name], name=name)

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
        if c.reserve_up_kw is None and c.reserve_down_kw is None:
            continue
        feed, _ = _conv_ports(config, c)
        for t in range(H):
            idf = f"id.flow[{feed.name}][{t}]"
            daf = f"da.flow[{feed.name}][{t}]"
            if c.reserve_up_kw is not None:
                name = f"id.cres_up[{c.name}][{t}]"
                coeffs = {idf: 1.0}
                if coupled:
                    coeffs[daf] = -1.0
                prog.add_constraint(coeffs, "<=", reserve_rhs[name],
                                    name=name)
            if c.reserve_down_kw is not None:
                name = f"id.cres_dn[{c.name}][{t}]"
                coeffs = {idf: -1.0}
                if coupled:
                    coeffs[daf] = 1.0
                prog.add_constraint(coeffs, "<=", reserve_rhs[name],
                                    name=name)


def _finish(prog: LinearProgram, stage: str, config: HubConfig,
            integers: list, cost_class: dict,
            da_reference: dict | None) -> DispatchProblem:
    sf = to_standard_form(prog)
    sf = replace(sf, A_f=sparse.csr_array(sf.A_f),
                 A_h=sparse.csr_array(sf.A_h)).with_stacked_rows()
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
        cost_storage=split["storage"], da_reference=da_reference)


def _add_params(prog: LinearProgram, prefix: str) -> None:
    for sector in SECTORS:
        for t in range(24):
            prog.add_param(f"{prefix}[{sector}][{t}]")


def _compile(config: HubConfig, stage: str, da_reference: dict | None = None,
             commitment: float = 0.0) -> DispatchProblem:
    """One stage through ``LinearProgram`` -> ``to_standard_form``.

    The problem holds for any day: loads enter only through ``M``, and
    ``M0`` is left at zero. The intra-day stage takes the committed flows
    ``da_reference`` and cost ``commitment`` as constants.
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
        _add_intra_links(prog, config, cost_class, da_reference)
    for s in parts:
        _add_balance_rows(prog, s, config)
    if stage == "intra_day":
        prog.add_constant(commitment)
    return _finish(prog, stage, config, integers, cost_class, da_reference)


# ---------------------------------------------------------------------------
# templates: one compile per (hub, stage)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Template:
    problem: DispatchProblem
    link_rows: np.ndarray      # A_h rows of the id.link constraints
    reserve_rows: np.ndarray   # A_f rows of the id.cres_* constraints
    # (3, k): the charge, discharge and exclusivity-binary columns of each
    # storage unit and hour, for storage_repair
    storage_cols: np.ndarray


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
    # the intra-day template is compiled against zero committed flows;
    # each build writes the day's flows into the rows found here
    sequential = stage == "intra_day"
    prob = _compile(config, stage,
                    defaultdict(float) if sequential else None)
    lp = prob.milp.lp
    link, reserve = (_commitment_rhs(config, defaultdict(float))
                     if sequential else ({}, {}))
    eq = {n: i for i, n in enumerate(lp.eq_names)}
    ineq = {n: i for i, n in enumerate(lp.ineq_names)}
    for a in (lp.c, lp.b_f0, lp.B_f, lp.b_h0, lp.B_h, lp.lb, lp.ub,
              prob.cost_day_ahead, prob.cost_intra, prob.cost_storage):
        a.flags.writeable = False
    storage_cols = np.array(
        [[prob.var_index[f"{s}.{kind}[{store.name}][{t}]"]
          for s in _PARTS[stage] for store in config.storages
          for t in range(config.horizon)]
         for kind in ("q_ch", "q_dis", "u")], dtype=int)
    # the cache must not keep its key alive: builds put the config back
    return _Template(
        problem=replace(prob, config=None, da_reference=None,
                        var_index=MappingProxyType(prob.var_index)),
        link_rows=np.array([eq[n] for n in link], dtype=int),
        reserve_rows=np.array([ineq[n] for n in reserve], dtype=int),
        storage_cols=storage_cols)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_day_ahead(forecasts, config: HubConfig) -> DispatchProblem:
    fc = _check_loads(forecasts, config, "forecasts")
    return replace(_template(config, "day_ahead").problem, config=config,
                   M0=fc.reshape(-1))


def build_intra_day(da_problem: DispatchProblem, da_result,
                    actual) -> DispatchProblem:
    if da_problem.stage != "day_ahead":
        raise DispatchBuildError("first argument must be a day-ahead "
                                 "problem")
    if da_result.status != "optimal":
        raise DispatchBuildError(
            f"day-ahead solve has status {da_result.status!r}")
    config = da_problem.config
    act = _check_loads(actual, config, "actual loads")
    da_ref = {name: float(da_result.primal[i])
              for name, i in da_problem.var_index.items()
              if name.startswith("da.flow[")}
    tpl = _template(config, "intra_day")
    lp = tpl.problem.milp.lp
    link, reserve = _commitment_rhs(config, da_ref)
    b_h0 = lp.b_h0.copy()
    b_h0[tpl.link_rows] = list(link.values())
    b_f0 = lp.b_f0.copy()
    b_f0[tpl.reserve_rows] = list(reserve.values())
    lp = replace(lp, c0=float(da_result.objective), b_f0=b_f0, b_h0=b_h0)
    return replace(tpl.problem, config=config,
                   milp=replace(tpl.problem.milp, lp=lp),
                   M0=act.reshape(-1), da_reference=da_ref)


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

def verify_dispatch(problem: DispatchProblem, result, M=None,
                    tol: float = 1e-7) -> DispatchCheck:
    """Re-derive every physical requirement from the raw primal vector.

    Residuals are compared against ``tol * (1 + max |M|)`` so the check
    scales with the load level. Covers junction balances, conversion
    curves, cogeneration coupling, demand balances, deviation links and
    reserve containment, storage dynamics and exclusivity, and variable
    bounds.
    """
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
