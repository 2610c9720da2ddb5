"""Parametric linear programs in a canonical form, with two solver engines.

Canonical form
--------------
    minimize    c.z + c0
    subject to  f(z, M) = A_f z - b_f(M) <= 0
                h(z, M) = A_h z - b_h(M)  = 0
                lb <= z <= ub

The right-hand sides are affine in a parameter vector M:
``b_f(M) = b_f0 + B_f M`` and ``b_h(M) = b_h0 + B_h M``; the jacobians
``B_f = d b_f / d M`` and ``B_h = d b_h / d M`` are constant and dense. The
matrices ``A_f``/``A_h`` never depend on M, and neither does the objective.
They are dense arrays as :func:`to_standard_form` returns them, or scipy
sparse matrices where a caller stores them that way. Canonicalization reads
each row's coefficients once into COO triplets and negates the ``>=`` rows
after assembly; the dense matrices are written from those triplets, and
the dispatch problems take CSR matrices built from the same triplets, byte
for byte ``csr_array`` of the dense ones, with no dense matrix in between.

Dual convention
---------------
Solutions carry multipliers for the *folded* inequality set (declared rows
first, then ``-z_j <= -lb_j`` rows, then ``z_j <= ub_j`` rows; see
:meth:`LPStandardForm.fold_bounds`). They satisfy the Lagrangian convention

    L(z, lam, mu) = c.z + lam.f(z, M) + mu.h(z, M),    lam >= 0,

so stationarity reads ``c + A_f' lam + A_h' mu = 0`` and the optimal value
responds to the RHS parameters as ``dC*/dM = -(lam' B_f + mu' B_h)``.

Engines
-------
``engine="bland"`` (default): dense two-phase tableau simplex with Bland's
smallest-index rule, fixed variable ordering and no randomization, so repeated
solves of identical inputs are bit-identical. Intended for desk-scale
instances; this is also the engine whose pivoting the tests pin down.

:func:`solve_bland_batch` runs it on one LP at many parameter vectors. The
sign pattern of ``b(M)`` fixes the artificial rows, the column count and the
column signs, so the items are grouped by it, and each group stacks its
tableaux, which differ only in the right-hand-side column. A group of more
than one pivots in lockstep: each step takes the stacked reduced costs,
runs the ratio test and the smallest-basis-index leaving rule per item, and
applies :func:`_pivot`'s operations to the whole stack, so each item makes
the pivots, and the arithmetic, it would make alone. Items leave the stack
once optimal or unbounded. Every rare step runs for the item concerned
alone, on the 2-D loop: an item whose entering column has only tiny
positive entries leaves the stack too, and the 2-D loop rebuilds its
tableau and finishes it within the iterations it has left; driving leftover
artificials out and dropping dependent rows also leave the item to finish
on its own. A group of one runs the 2-D loop. A numerical breakdown of one
item is stored in its slot, not raised. :func:`solve_lp` with this engine
is a batch of one that raises it.

``engine="highs"``: HiGHS behind the same contract, through the binding
scipy bundles (``scipy.optimize._highspy``, scipy>=1.17). There is one
solver per constraint matrix: the forms on the same ``A_f`` and ``A_h``
objects (a dispatch template, and every node and day ``replace`` derives
from it) share one, made on their first solve and kept for as long as
both objects live. It holds the options scipy's own HiGHS LP method sets
(presolve on, dual simplex, feasibility tolerances 1e-10) and the rows
``[A_f; A_h]`` as CSC, stacked once. A cold solve hands it a fresh model:
those rows, row bounds ``-inf``/``b_h(M)`` below and ``b_f(M)``/``b_h(M)``
above, and the bounds as column bounds. No basis carries over into a cold
solve, so it returns what scipy's LP method returns for the same problem,
bit for bit; ``tests/test_lp.py`` checks that.

Each solver remembers the model it was last passed, so a solve on one
matrix leaves what another matrix's solver holds. A solve asks for one of
two things through ``warm``:

  * ``False``, a cold solve: a fresh model, whatever the solver holds;
  * ``True``, a warm solve: when the held model is this one up to row and
    column bounds, move the bounds that differ and re-run the dual simplex
    from the basis the solver holds, skipping presolve (Bixby, Oper. Res.
    2002). "This one" means the same ``c``, ``b_f0``, ``B_f``, ``b_h0``
    and ``B_h`` objects on the solver's matrix, as every node and every
    day of one template have. At the held ``M`` (the nodes of one search)
    the row bounds are the held ones and are not recomputed; at another
    ``M`` (a later day's root) the row bounds that moved are moved one row
    at a time (the binding has no plural form). Then the column bounds
    that differ move.

The rows are stacked once per matrix object, so an in-place edit of
``A_f``/``A_h`` after a HiGHS solve goes unseen, as does one of ``c`` or
the right-hand-side arrays between solves; the dispatch builders make
theirs read-only. A warm result's status and objective are
a cold solve's, but at ties it may end at another optimal vertex. A warm
request on any other model, and a warm run that fails or whose point
fails the post-solve check, is solved cold, once.

On both paths, an "optimal" point that breaks a bound or a row by more
than ``10 * sqrt(1e-9)`` raises :class:`LPNumericalError`, as does any
HiGHS model status other than optimal, infeasible and unbounded. The
bound duals are the column duals of columns nonbasic at that bound,
mapped onto the folded rows through the indices of the finite bounds, so
no folded matrix is built. The basis is read in bulk: the basic columns
from ``getBasicVariables``, and a nonbasic column is at the bound its
value equals exactly. A fixed column equals both; its dual lands on the
side its sign picks, which is the side HiGHS reports. The basis serves
the duals alone: a HiGHS solution's ``basis`` is None. HiGHS solves the
larger dispatch problems, where a dense tableau would be needlessly slow.

The Bland engine, :meth:`LPStandardForm.fold_bounds` and the KKT routines
in :mod:`mesval.sensitivity` work on dense matrices: folding expands a
sparse ``A_f``/``A_h``, and each of them folds first.

Infeasible and unbounded problems are reported through
:attr:`LPSolution.status`, never as exceptions.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
from scipy import sparse

__all__ = [
    "LinearProgram",
    "LPStandardForm",
    "LPSolution",
    "LPBuildError",
    "LPNumericalError",
    "to_standard_form",
    "solve_lp",
    "solve_bland_batch",
    "DEFAULT_TOL",
    "PIVOT_TOL",
]

DEFAULT_TOL = 1e-8
PIVOT_TOL = 1e-10
MAX_ITER = 200_000     # Bland pivots per phase before giving up

_SENSES = ("<=", ">=", "==")


class LPBuildError(ValueError):
    """Malformed structured program (bad names, senses, bounds, NaNs)."""


class LPNumericalError(RuntimeError):
    """Numerical breakdown inside a solver engine."""


# ---------------------------------------------------------------------------
# structured description
# ---------------------------------------------------------------------------

class LinearProgram:
    """Structured LP description: named variables, rows, parameter slots.

    Rows may be "<=", ">=" or "=="; ">=" rows are negated into "<=" during
    canonicalization. Each row's RHS is ``rhs + sum(coef * M[slot])`` over its
    ``params`` entries. Variables and rows keep declaration order, which fixes
    the canonical column/row order deterministically.
    """

    def __init__(self) -> None:
        self._vars: list[tuple[str, float, float, float]] = []
        self._var_index: dict[str, int] = {}
        self._params: list[str] = []
        self._param_index: dict[str, int] = {}
        self._rows: list[tuple[str, dict[str, float], str, float, dict[str, float]]] = []
        self._row_names: set[str] = set()

    def add_param(self, name: str) -> int:
        if name in self._param_index:
            raise LPBuildError(f"duplicate parameter name {name!r}")
        self._param_index[name] = len(self._params)
        self._params.append(name)
        return self._param_index[name]

    def add_var(self, name: str, lb: float | None = None,
                ub: float | None = None, cost: float = 0.0) -> int:
        if name in self._var_index:
            raise LPBuildError(f"duplicate variable name {name!r}")
        lo = -np.inf if lb is None else float(lb)
        hi = np.inf if ub is None else float(ub)
        if not np.isfinite(cost):
            raise LPBuildError(f"non-finite cost for {name!r}")
        if np.isnan(lo) or np.isnan(hi) or lo > hi:
            raise LPBuildError(f"bad bounds for {name!r}: [{lo}, {hi}]")
        self._var_index[name] = len(self._vars)
        self._vars.append((name, lo, hi, float(cost)))
        return self._var_index[name]

    def add_constraint(self, coeffs: dict[str, float], sense: str, rhs: float,
                       params: dict[str, float] | None = None,
                       name: str | None = None) -> None:
        if sense not in _SENSES:
            raise LPBuildError(f"unknown sense {sense!r}")
        if name is None:
            name = f"row{len(self._rows)}"
        if name in self._row_names:
            raise LPBuildError(f"duplicate row name {name!r}")
        clean = {}
        for var, coef in coeffs.items():
            if var not in self._var_index:
                raise LPBuildError(f"row {name!r} references unknown variable {var!r}")
            if not np.isfinite(coef):
                raise LPBuildError(f"row {name!r}: non-finite coefficient on {var!r}")
            clean[var] = float(coef)
        pclean = {}
        for slot, coef in (params or {}).items():
            if slot not in self._param_index:
                raise LPBuildError(f"row {name!r} references unknown parameter {slot!r}")
            if not np.isfinite(coef):
                raise LPBuildError(f"row {name!r}: non-finite parameter coefficient")
            pclean[slot] = float(coef)
        if not np.isfinite(rhs):
            raise LPBuildError(f"row {name!r}: non-finite RHS")
        self._row_names.add(name)
        self._rows.append((name, clean, sense, float(rhs), pclean))

    @property
    def n_vars(self) -> int:
        return len(self._vars)

    @property
    def param_dim(self) -> int:
        return len(self._params)


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LPStandardForm:
    """Canonical parametric LP (see module docstring for conventions)."""

    c: np.ndarray
    c0: float
    A_f: np.ndarray
    b_f0: np.ndarray
    B_f: np.ndarray
    A_h: np.ndarray
    b_h0: np.ndarray
    B_h: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    var_names: tuple[str, ...] = ()
    ineq_names: tuple[str, ...] = ()
    eq_names: tuple[str, ...] = ()
    param_names: tuple[str, ...] = ()
    # set on folded forms only: var index behind each appended bound row
    lb_row_vars: np.ndarray | None = None
    ub_row_vars: np.ndarray | None = None

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @property
    def n_ineq(self) -> int:
        return self.A_f.shape[0]

    @property
    def n_eq(self) -> int:
        return self.A_h.shape[0]

    @property
    def param_dim(self) -> int:
        return self.B_f.shape[1]

    def b_f(self, M: np.ndarray) -> np.ndarray:
        return self.b_f0 + self.B_f @ np.asarray(M, dtype=float)

    def b_h(self, M: np.ndarray) -> np.ndarray:
        return self.b_h0 + self.B_h @ np.asarray(M, dtype=float)

    def fold_bounds(self) -> "LPStandardForm":
        """Bounds rewritten as inequality rows.

        Row order: declared inequality rows, then ``-z_j <= -lb_j`` for every
        finite lower bound (ascending j), then ``z_j <= ub_j`` for every
        finite upper bound (ascending j). Bound rows have zero parameter
        jacobian. ``lb_row_vars``/``ub_row_vars`` record which variable each
        appended row constrains. Idempotent on already-folded forms. The
        folded ``A_f``/``A_h`` are dense, whatever the input held.
        """
        if self.lb_row_vars is not None:
            return self
        n = self.n_vars
        lo_idx = np.flatnonzero(np.isfinite(self.lb))
        hi_idx = np.flatnonzero(np.isfinite(self.ub))
        rows = [_dense(self.A_f)]
        rhs = [self.b_f0]
        names = list(self.ineq_names)
        if lo_idx.size:
            E = np.zeros((lo_idx.size, n))
            E[np.arange(lo_idx.size), lo_idx] = -1.0
            rows.append(E)
            rhs.append(-self.lb[lo_idx])
            names += [f"_lb[{self.var_names[j] if self.var_names else j}]"
                      for j in lo_idx]
        if hi_idx.size:
            E = np.zeros((hi_idx.size, n))
            E[np.arange(hi_idx.size), hi_idx] = 1.0
            rows.append(E)
            rhs.append(self.ub[hi_idx])
            names += [f"_ub[{self.var_names[j] if self.var_names else j}]"
                      for j in hi_idx]
        A_f = np.vstack(rows)
        b_f0 = np.concatenate(rhs)
        B_f = np.vstack([self.B_f,
                         np.zeros((lo_idx.size + hi_idx.size, self.param_dim))])
        free = np.full(n, -np.inf), np.full(n, np.inf)
        return LPStandardForm(
            c=self.c, c0=self.c0, A_f=A_f, b_f0=b_f0, B_f=B_f,
            A_h=_dense(self.A_h), b_h0=self.b_h0, B_h=self.B_h,
            lb=free[0], ub=free[1],
            var_names=self.var_names, ineq_names=tuple(names),
            eq_names=self.eq_names, param_names=self.param_names,
            lb_row_vars=lo_idx, ub_row_vars=hi_idx)


def _dense(a):
    """A constraint block as a dense array."""
    return a.toarray() if sparse.issparse(a) else a


@dataclass(frozen=True)
class _Rows:
    """One block of canonical rows, the inequality or the equality rows in
    declaration order. ``terms`` and ``params`` are the COO triplets
    ``(row, column, coefficient)`` and ``(row, slot, coefficient)`` of
    every declared entry, with the sign it was declared with; ``neg``
    marks the ``>=`` rows, which each matrix negates after assembly, and
    ``rhs`` is already signed."""

    names: tuple
    rhs: np.ndarray
    neg: np.ndarray
    terms: tuple
    params: tuple


def _triplets(dicts: list, index: dict) -> tuple:
    """``(row, position, coefficient)`` of every entry of ``dicts``, one
    dict per row, ``index`` giving each key its position."""
    counts = np.array([len(d) for d in dicts], dtype=np.intp)
    total = int(counts.sum())
    at = np.fromiter((index[key] for d in dicts for key in d), np.intp, total)
    val = np.fromiter((coef for d in dicts for coef in d.values()), float,
                      total)
    return np.repeat(np.arange(len(dicts)), counts), at, val


def _canonical_rows(prog: LinearProgram) -> tuple[_Rows, _Rows]:
    """The inequality and the equality rows of ``prog``, each row's
    coefficients read once into triplets."""
    blocks = {"<=": [], "==": []}
    for row in prog._rows:
        blocks["==" if row[2] == "==" else "<="].append(row)
    out = []
    for rows in blocks.values():
        neg = np.array([row[2] == ">=" for row in rows], dtype=bool)
        rhs = np.array([row[3] for row in rows], dtype=float)
        np.negative(rhs, out=rhs, where=neg)
        out.append(_Rows(
            names=tuple(row[0] for row in rows), rhs=rhs, neg=neg,
            terms=_triplets([row[1] for row in rows], prog._var_index),
            params=_triplets([row[4] for row in rows], prog._param_index)))
    return tuple(out)


def _dense_rows(triplets: tuple, neg: np.ndarray, width: int) -> np.ndarray:
    """The ``(rows, width)`` matrix of ``triplets``: one allocation, a
    scatter and the row negation, so a negated row holds ``-0.0`` wherever
    it declares nothing or ``+0.0``."""
    out = np.zeros((neg.size, width))
    out[triplets[0], triplets[1]] = triplets[2]
    np.negative(out, out=out, where=neg[:, None])
    return out


def _csr_rows(triplets: tuple, neg: np.ndarray,
              width: int) -> sparse.csr_array:
    """What ``csr_array`` makes of :func:`_dense_rows`'s matrix, byte for
    byte (no stored zeros, int32 sorted indices), made without it."""
    row, col, val = triplets
    val = np.where(neg[row], -val, val)
    keep = val != 0.0
    row, col, val = row[keep], col[keep], val[keep]
    order = np.lexsort((col, row))
    indptr = np.zeros(neg.size + 1, dtype=np.int32)
    np.cumsum(np.bincount(row, minlength=neg.size), out=indptr[1:])
    return sparse.csr_array((val[order], col[order].astype(np.int32), indptr),
                            shape=(neg.size, width))


def _standard_form(prog: LinearProgram, rows_of) -> LPStandardForm:
    """The canonical form of ``prog``, its ``A_f``/``A_h`` assembled by
    ``rows_of`` and every other array by :func:`_dense_rows`."""
    n, p = prog.n_vars, prog.param_dim
    ineq, eq = _canonical_rows(prog)
    return LPStandardForm(
        c=np.array([v[3] for v in prog._vars], dtype=float), c0=0.0,
        A_f=rows_of(ineq.terms, ineq.neg, n), b_f0=ineq.rhs,
        B_f=_dense_rows(ineq.params, ineq.neg, p),
        A_h=rows_of(eq.terms, eq.neg, n), b_h0=eq.rhs,
        B_h=_dense_rows(eq.params, eq.neg, p),
        lb=np.array([v[1] for v in prog._vars], dtype=float),
        ub=np.array([v[2] for v in prog._vars], dtype=float),
        var_names=tuple(name for name, *_ in prog._vars),
        ineq_names=ineq.names, eq_names=eq.names,
        param_names=tuple(prog._params))


def to_standard_form(prog: LinearProgram) -> LPStandardForm:
    """Canonicalize a structured description (deterministic ordering)."""
    return _standard_form(prog, _dense_rows)


def _csr_standard_form(prog: LinearProgram) -> LPStandardForm:
    """:func:`to_standard_form` with ``A_f``/``A_h`` as CSR, built from the
    row triplets without a dense constraint matrix: ``csr_array`` of its
    dense matrices, byte for byte, and every other field bit for bit."""
    return _standard_form(prog, _csr_rows)


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LPSolution:
    """Solver output. Duals index the folded inequality rows (see module doc).

    ``basis`` is the Bland engine's sorted basic column set (internal
    standard-form numbering), deterministic and usable as a "did the
    active set move" fingerprint. The HiGHS engine reports None: nothing
    reads a basis from it, so none is built.
    """

    status: str
    primal: np.ndarray | None
    ineq_duals: np.ndarray | None
    eq_duals: np.ndarray | None
    objective: float | None
    basis: tuple[int, ...] | None


# ---------------------------------------------------------------------------
# Bland-rule tableau engine
# ---------------------------------------------------------------------------

_ENTER_TOL = 1e-9      # a column enters when its reduced cost is below -this


def _pivot(T: np.ndarray, basis: np.ndarray, i: int, j: int) -> None:
    T[i] /= T[i, j]
    col = T[:, j].copy()
    col[i] = 0.0
    T -= col[:, None] * T[i]
    T[:, j] = 0.0
    T[i, j] = 1.0
    basis[i] = j


def _bland_loop(T, basis, cost, allowed, max_iter, refresh):
    """Run Bland iterations in place. Returns 'optimal' or 'unbounded'."""
    N = T.shape[1] - 1
    if N == 0:
        return "optimal"    # no columns, nothing can enter
    retried = False
    for _ in range(max_iter):
        red = cost - cost[basis] @ T[:, :N]
        red[basis] = 0.0
        mask = allowed & (red < -_ENTER_TOL)
        j = int(mask.argmax())
        if not mask[j]:
            return "optimal"
        col = T[:, j]
        pos = col > PIVOT_TOL
        if not pos.any():
            if (col > 0.0).any() and not retried:
                refresh(T, basis)  # tiny pivots only: rebuild and retry once
                retried = True
                continue
            return "unbounded"
        ratios = np.where(pos, T[:, -1] / np.where(pos, col, 1.0), np.inf)
        best = ratios.min()
        ties = (ratios <= best + 1e-12 * (1.0 + abs(best))).nonzero()[0]
        i = int(ties[basis[ties].argmin()])
        _pivot(T, basis, i, j)
        retried = False
    raise LPNumericalError("simplex iteration limit exceeded")


def _lockstep_pivot(W: np.ndarray, basis: np.ndarray, i: np.ndarray,
                    j: np.ndarray) -> None:
    """:func:`_pivot` on every tableau of a stack: item k on (i[k], j[k])."""
    k = np.arange(W.shape[0])
    W[k, i] /= W[k, i, j][:, None]
    row = W[k, i]
    col = W[k, :, j]
    col[k, i] = 0.0
    W -= col[:, :, None] * row[:, None, :]
    W[k, :, j] = 0.0
    W[k, i, j] = 1.0
    basis[k, i] = j


def _lockstep_loop(T, basis, cost, allowed) -> list:
    """:func:`_bland_loop`'s common pivot over a stack ``T`` (K, rows, N+1)
    with bases ``basis`` (K, rows), in place. Each item takes the steps and
    the arithmetic the 2-D loop takes on it alone, and leaves the stack once
    it is optimal or unbounded, or once its entering column has only tiny
    positive entries. Returns one outcome per item: 'optimal', 'unbounded',
    the :class:`LPNumericalError` that stopped it, or, for an item that met
    tiny pivots, the number of iterations it has left: the 2-D loop takes
    it from there (see :func:`_bland_phase`)."""
    K, _, width = T.shape
    N = width - 1
    if N == 0:
        return ["optimal"] * K    # no columns, nothing can enter
    out: list = [None] * K
    at = np.arange(K)        # the stack position of each working tableau
    W, B = T, basis
    for it in range(MAX_ITER):
        k = np.arange(at.size)
        red = cost - (cost[B][:, None, :] @ W[:, :, :N])[:, 0]
        red[k[:, None], B] = 0.0
        mask = allowed & (red < -_ENTER_TOL)
        j = mask.argmax(axis=1)
        done = ~mask[k, j]
        col = W[k, :, j]
        pos = col > PIVOT_TOL
        gone = done | ~pos.any(axis=1)
        if gone.any():
            tiny = (col > 0.0).any(axis=1)
            for t in np.flatnonzero(gone):
                out[at[t]] = ("optimal" if done[t] else
                              MAX_ITER - it if tiny[t] else "unbounded")
            T[at[gone]] = W[gone]
            basis[at[gone]] = B[gone]
            stay = ~gone
            if not stay.any():
                return out
            W, B, at = W[stay], B[stay], at[stay]
            j, col, pos = j[stay], col[stay], pos[stay]
        ratios = np.where(pos, W[:, :, -1] / np.where(pos, col, 1.0), np.inf)
        best = ratios.min(axis=1, keepdims=True)
        ties = ratios <= best + 1e-12 * (1.0 + np.abs(best))
        i = np.where(ties, B, N).argmin(axis=1)   # smallest basic column
        _lockstep_pivot(W, B, i, j)
    for t in range(at.size):
        out[at[t]] = LPNumericalError("simplex iteration limit exceeded")
    T[at], basis[at] = W, B
    return out


def _bland_phase(T, basis, cost, allowed, refresh_of, items) -> list:
    """One simplex phase on a stack of tableaux. A stack of more than one
    runs the common pivots in lockstep; the 2-D loop runs a stack of one,
    and finishes each item the lockstep hands back within the iterations
    it has left, rebuilding the item's tableau through
    ``refresh_of(items[k])`` when only tiny pivots remain. One outcome per
    item: 'optimal', 'unbounded' or the :class:`LPNumericalError` that
    stopped it."""
    outcomes = ([MAX_ITER] if T.shape[0] == 1
                else _lockstep_loop(T, basis, cost, allowed))
    for k, left in enumerate(outcomes):
        if isinstance(left, int):
            try:
                outcomes[k] = _bland_loop(T[k], basis[k], cost, allowed,
                                          left, refresh_of(items[k]))
            except LPNumericalError as exc:
                outcomes[k] = exc
    return outcomes


def _bland_solution(folded: LPStandardForm, T, basis, cost2, unit,
                    sign) -> LPSolution:
    """The optimal point, the duals and the basis of a finished tableau."""
    n = folded.n_vars
    q = folded.n_ineq
    N = T.shape[1] - 1
    values = np.zeros(N)
    values[basis] = T[:, -1]
    z = values[:n] - values[n:2 * n]

    # duals from final reduced costs: y_r = -red[unit column of row r] / sign
    red = cost2 - cost2[basis] @ T[:, :N]
    red[basis] = 0.0
    y = -red[unit] / sign
    lam = -y[:q]
    mu = -y[q:]
    objective = float(folded.c @ z) + folded.c0
    return LPSolution("optimal", z, lam, mu, objective,
                      tuple(sorted(basis.tolist())))


def _solve_bland_group(folded: LPStandardForm, bs: np.ndarray) -> list:
    """Solve ``folded`` at each right-hand side ``bs[k]`` (rows ``[b_f;
    b_h]``), all of one sign pattern and so of one tableau layout. One
    result per row: an :class:`LPSolution`, or the
    :class:`LPNumericalError` that stopped it."""
    q = folded.n_ineq
    n = folded.n_vars
    K, rows = bs.shape
    b = bs[0]     # the sign pattern every item shares

    # columns: z+ (n) | z- (n) | slack (q) | artificials (eq rows and
    # negative-RHS ineq rows). Artificial coefficient is sign(b_i) so the
    # initial basic value is |b_i|.
    art_rows = np.flatnonzero((np.arange(rows) >= q) | (b < 0.0))
    n_art = art_rows.size
    N = 2 * n + q + n_art
    sign = np.where(b >= 0.0, 1.0, -1.0)
    D = np.zeros((rows, N + 1))     # each item's b goes in the last column
    D[:q, :n] = folded.A_f
    D[:q, n:2 * n] = -folded.A_f
    D[q:, :n] = folded.A_h
    D[q:, n:2 * n] = -folded.A_h
    D[np.arange(q), 2 * n + np.arange(q)] = 1.0
    # each row's initial basic column: its slack, or its artificial
    unit = 2 * n + np.arange(rows)
    unit[art_rows] = 2 * n + q + np.arange(n_art)
    D[art_rows, unit[art_rows]] = sign[art_rows]

    art_mask = np.zeros(N, dtype=bool)
    art_mask[2 * n + q:] = True
    allowed = ~art_mask

    basis = unit[None].repeat(K, axis=0)
    T = np.empty((K, rows, N + 1))
    T[:] = D
    T[:, :, -1] = bs
    T[:, b < 0.0] *= -1.0  # rows whose initial basic column has coefficient -1

    cut = {}    # item -> the rows it keeps after dropping dependent ones

    def refresh_of(k):
        def refresh(T_, basis_):
            Dk = D.copy()
            Dk[:, -1] = bs[k]
            if k in cut:
                Dk = Dk[cut[k]]  # solves Dk[:, basis], square only if cut too
            try:
                T_[:] = np.linalg.solve(Dk[:, basis_], Dk)
            except np.linalg.LinAlgError as exc:
                raise LPNumericalError("basis matrix became singular") from exc
        return refresh

    out: list = [None] * K
    if n_art:
        cost1 = np.zeros(N)
        cost1[art_mask] = 1.0
        outcomes = _bland_phase(T, basis, cost1, allowed, refresh_of,
                                range(K))
        limit = DEFAULT_TOL * (1.0 + np.abs(bs).max(axis=1, initial=0.0))
        leftover = art_mask[basis]
        for k, status in enumerate(outcomes):
            if status != "optimal":
                out[k] = (status if isinstance(status, LPNumericalError)
                          else LPNumericalError("phase-1 subproblem unbounded"))
                continue
            Tk, Bk = T[k], basis[k]
            if float(cost1[Bk] @ Tk[:, -1]) > limit[k]:
                out[k] = LPSolution("infeasible", None, None, None, None, None)
                continue
            if not leftover[k].any():
                continue
            # drive leftover artificials out of the basis (degenerate pivots)
            dead_rows = []
            for i in leftover[k].nonzero()[0]:
                cands = (~art_mask & (np.abs(Tk[i, :N])
                                      > PIVOT_TOL)).nonzero()[0]
                if cands.size:
                    _pivot(Tk, Bk, i, int(cands[0]))
                else:
                    dead_rows.append(i)  # dependent row, implied by the others
            if dead_rows:    # the item's tableau loses rows: it goes on alone
                cut[k] = np.setdiff1d(np.arange(rows), dead_rows)

    cost2 = np.zeros(N)
    cost2[:n] = folded.c
    cost2[n:2 * n] = -folded.c

    def finish(T2, B2, items):
        outcomes = _bland_phase(T2, B2, cost2, allowed, refresh_of, items)
        for k, Tk, Bk, status in zip(items, T2, B2, outcomes):
            if isinstance(status, LPNumericalError):
                out[k] = status
            elif status == "unbounded":
                out[k] = LPSolution("unbounded", None, None, None, None, None)
            else:
                out[k] = _bland_solution(folded, Tk, Bk, cost2, unit, sign)

    live = [k for k in range(K) if out[k] is None and k not in cut]
    if len(live) == K:
        finish(T, basis, live)
    elif live:
        finish(T[live], basis[live], live)
    for k, keep in cut.items():
        finish(T[k][keep][None], basis[k][keep][None], [k])
    return out


def solve_bland_batch(lp: LPStandardForm, Ms: np.ndarray) -> list:
    """Solve ``lp`` with the Bland engine at each parameter vector ``Ms[k]``.

    ``Ms`` has shape ``(K, param_dim)``; the K results come back in order.
    Each is the :class:`LPSolution` :func:`solve_lp` returns at ``Ms[k]``,
    bit for bit, or the :class:`LPNumericalError` it raises there, stored
    in that item's slot instead of raised. The items are grouped by the
    sign pattern of ``b(M)``, which fixes the tableau layout; each group
    pivots in lockstep, or with the 2-D loop when it holds one item.
    """
    Ms = np.asarray(Ms, dtype=float)
    if Ms.ndim != 2 or Ms.shape[1] != lp.param_dim:
        raise ValueError(
            f"Ms has shape {Ms.shape}, expected (K, {lp.param_dim})")
    folded = lp.fold_bounds()
    q = folded.n_ineq
    # the rows [b_f; b_h] of each item. B @ M runs as a stack of
    # matrix-vector products, bitwise the 2-D product; a matrix-matrix
    # product would sum in another order
    Mv = Ms[:, :, None]
    bs = np.empty((len(Ms), q + folded.n_eq))
    np.add(folded.b_f0, (folded.B_f @ Mv)[:, :, 0], out=bs[:, :q])
    np.add(folded.b_h0, (folded.B_h @ Mv)[:, :, 0], out=bs[:, q:])
    if len(bs) == 1:
        return _solve_bland_group(folded, bs)    # one item, one group
    # the layout reads b < 0 (artificial rows) and b >= 0 (their signs)
    groups: dict = {}
    for k, key in enumerate(np.hstack((bs < 0.0, bs >= 0.0))):
        groups.setdefault(key.tobytes(), []).append(k)
    out: list = [None] * len(bs)
    for members in groups.values():
        for k, res in zip(members, _solve_bland_group(folded, bs[members])):
            out[k] = res
    return out


# ---------------------------------------------------------------------------
# HiGHS engine
# ---------------------------------------------------------------------------

_FEAS_TOL = 10 * np.sqrt(1e-9)   # post-solve check on bounds and rows


def _stack_rows(A_f, A_h) -> sparse.csc_array:
    """``[A_f; A_h]`` as the int32 CSC matrix handed to HiGHS: zeros
    dropped, row indices sorted within each column."""
    A = sparse.csc_array(sparse.vstack((sparse.coo_array(A_f),
                                        sparse.coo_array(A_h))))
    A.indptr = A.indptr.astype(np.int32, copy=False)
    A.indices = A.indices.astype(np.int32, copy=False)
    return A


class _Solver:
    """The HiGHS solver of the forms on one constraint matrix: the options
    scipy's own HiGHS LP method sets, its binding module, the rows
    ``[A_f; A_h]`` stacked once, and the record of the model it was last
    passed. ``model`` holds that model's ``(c, b_f0, B_f, b_h0, B_h)``
    objects (held, so their ids stay theirs; None before the first run and
    after a failed warm run), and ``M``, ``row_hi``, ``lb`` and ``ub`` the
    parameter, row upper bounds and column bounds it was solved at."""

    def __init__(self, A_f, A_h):
        try:
            import scipy.optimize._highspy._core as core
            highs, opts = core._Highs(), core.HighsOptions()
        except (ImportError, AttributeError) as exc:
            raise ImportError(
                "engine='highs' needs scipy>=1.17, whose bundled HiGHS "
                "binding scipy.optimize._highspy._core it calls") from exc
        opts.presolve = "on"
        opts.simplex_strategy = (
            core.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
        opts.primal_feasibility_tolerance = 1e-10
        opts.dual_feasibility_tolerance = 1e-10
        opts.output_flag = False
        opts.log_to_console = False
        opts.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
        if highs.passOptions(opts) == core.HighsStatus.kError:
            raise LPNumericalError("HiGHS rejected its options")
        self.highs, self.core = highs, core
        self.rows = _stack_rows(A_f, A_h)
        self.model = self.M = self.row_hi = self.lb = self.ub = None

    def hold(self, model: tuple, M: np.ndarray, row_hi: np.ndarray,
             lp: LPStandardForm) -> None:
        """Record ``model`` as solved at ``M`` and ``lp``'s bounds."""
        self.model, self.M, self.row_hi = model, M.copy(), row_hi
        self.lb, self.ub = lp.lb.copy(), lp.ub.copy()


# (id(A_f), id(A_h)) -> the solver of the forms on those matrices; an
# entry leaves with either object, before its id can be reused
_SOLVERS: dict = {}


def _solver_of(lp: LPStandardForm) -> _Solver:
    """The solver ``lp`` is solved on, made on its first HiGHS solve: one
    per ``A_f``/``A_h`` pair of objects (a dispatch template and every
    node and day derived from it)."""
    key = (id(lp.A_f), id(lp.A_h))
    solver = _SOLVERS.get(key)
    if solver is None:
        solver = _SOLVERS[key] = _Solver(lp.A_f, lp.A_h)
        for matrix in (lp.A_f, lp.A_h):
            weakref.finalize(matrix, _SOLVERS.pop, key, None)
    return solver


def _highs_outcome(model_status, core) -> str:
    """'optimal', 'infeasible' or 'unbounded' for a HiGHS model status;
    any other status is a solver failure."""
    S = core.HighsModelStatus
    if model_status == S.kOptimal:
        return "optimal"
    if model_status in (S.kInfeasible, S.kModelError):
        return "infeasible"
    if model_status == S.kUnbounded:
        return "unbounded"
    raise LPNumericalError(
        f"HiGHS did not solve the LP: model status {model_status.name}")


def _check_feasible(z, objective, ineq_slack, eq_residual, lb, ub) -> None:
    """Reject an 'optimal' point that breaks a bound or a row by more than
    ``_FEAS_TOL``, or that holds a NaN."""
    if (np.isnan(z).any() or np.isnan(objective)
            or np.isnan(ineq_slack).any() or np.isnan(eq_residual).any()):
        raise LPNumericalError("HiGHS reported optimal with a NaN solution")
    if not (np.all(z >= lb - _FEAS_TOL) and np.all(z <= ub + _FEAS_TOL)
            and np.all(ineq_slack >= -_FEAS_TOL)
            and np.all(np.abs(eq_residual) <= _FEAS_TOL)):
        raise LPNumericalError(
            "HiGHS reported optimal at a point that violates the "
            f"constraints by more than {_FEAS_TOL:.2e}")


def _row_bounds(lp: LPStandardForm, M: np.ndarray) -> tuple:
    """Row bounds ``(lower, upper)`` of ``[A_f; A_h]`` at ``M``."""
    b_h = lp.b_h(M)
    return (np.concatenate((np.full(lp.n_ineq, -np.inf), b_h)),
            np.concatenate((lp.b_f(M), b_h)))


def _solve_highs(lp: LPStandardForm, M: np.ndarray,
                 warm: bool) -> LPSolution:
    solver = _solver_of(lp)
    highs, core, A = solver.highs, solver.core, solver.rows
    model = (lp.c, lp.b_f0, lp.B_f, lp.b_h0, lp.B_h)
    held, solver.model = solver.model, None
    if warm and held is not None and all(
            a is b for a, b in zip(held, model)):
        sol = _solve_warm(solver, model, lp, M)
        if sol is not None:
            return sol
    row_lo, row_hi = _row_bounds(lp, M)
    if highs.passModel(
            lp.n_vars, lp.n_ineq + lp.n_eq, A.nnz, core.MatrixFormat.kColwise,
            core.ObjSense.kMinimize, 0.0, lp.c, lp.lb, lp.ub, row_lo, row_hi,
            A.indptr, A.indices, A.data,
            np.zeros(lp.n_vars, dtype=np.int32)) == core.HighsStatus.kError:
        status = core.HighsModelStatus.kModelError
    else:
        highs.run()
        status = highs.getModelStatus()
        solver.hold(model, M, row_hi, lp)
    return _highs_solution(highs, core, lp, row_hi, status)


def _solve_warm(solver: _Solver, model: tuple, lp: LPStandardForm,
                M: np.ndarray) -> LPSolution | None:
    """Re-solve ``lp`` from the basis ``solver`` holds, whose model is
    ``lp``'s ``model`` up to row and column bounds; None if the run
    fails."""
    highs, core = solver.highs, solver.core
    row_hi = solver.row_hi
    if not np.array_equal(solver.M, M):
        # move the row bounds that changed with M
        row_lo, row_hi = _row_bounds(lp, M)
        for i in np.flatnonzero(row_hi != solver.row_hi).tolist():
            if highs.changeRowBounds(i, row_lo[i], row_hi[i]) == (
                    core.HighsStatus.kError):
                return None
    # move the column bounds that differ and re-run
    moved = np.flatnonzero((lp.lb != solver.lb) | (lp.ub != solver.ub))
    if highs.changeColsBounds(moved.size, moved.astype(np.int32),
                              lp.lb[moved],
                              lp.ub[moved]) == core.HighsStatus.kError:
        return None
    highs.run()
    try:
        sol = _highs_solution(highs, core, lp, row_hi,
                              highs.getModelStatus())
    except LPNumericalError:
        return None     # a failed warm start gets one cold solve
    solver.hold(model, M, row_hi, lp)
    return sol


def _floats(values: list) -> np.ndarray:
    """A solution vector, which the binding hands over as a list."""
    return np.fromiter(values, float, len(values))


def _highs_solution(highs, core, lp: LPStandardForm, row_hi: np.ndarray,
                    status) -> LPSolution:
    """Read the solver's outcome for ``lp`` after a cold or a warm run:
    the status map, the post-solve check and the duals."""
    outcome = _highs_outcome(status, core)
    if outcome != "optimal":
        return LPSolution(outcome, None, None, None, None, None)

    q = lp.n_ineq
    sol = highs.getSolution()
    z = _floats(sol.col_value)
    slack = row_hi - _floats(sol.row_value)
    objective = highs.getObjectiveValue()
    _check_feasible(z, objective, slack[:q], slack[q:], lp.lb, lp.ub)
    row_dual = _floats(sol.row_dual)
    col_dual = _floats(sol.col_dual)

    # a nonbasic column sits exactly on the bound it is nonbasic at. A
    # fixed one (lb == ub) sits on both. HiGHS reports it kLower if its
    # dual is >= 0 and kUpper if not (the rule of HEkk::getHighsBasis after
    # a simplex run, and of HighsPostsolveStack::FixedCol::undo for a column
    # presolve fixed); the clamps below keep its dual on that same side,
    # and a zero dual of either sign reads +0.0 on both
    read, basic = highs.getBasicVariables()
    if read == core.HighsStatus.kError:
        raise LPNumericalError("HiGHS holds no basis for its optimal point")
    nonbasic = np.ones(lp.n_vars, dtype=bool)
    nonbasic[basic[basic >= 0]] = False
    at_lo = nonbasic & (z == lp.lb)
    at_hi = nonbasic & (z == lp.ub)

    # folded row order (see fold_bounds): declared rows, finite lower
    # bounds, finite upper bounds; a bound's dual is the column dual of a
    # column nonbasic at that bound
    lo = np.flatnonzero(np.isfinite(lp.lb))
    hi = np.flatnonzero(np.isfinite(lp.ub))
    lam = np.zeros(q + lo.size + hi.size)
    lam[:q] = np.maximum(-row_dual[:q], 0.0)
    lam[q:q + lo.size] = np.maximum(np.where(at_lo[lo], col_dual[lo], 0.0),
                                    0.0)
    lam[q + lo.size:] = np.maximum(-np.where(at_hi[hi], col_dual[hi], 0.0),
                                   0.0)
    mu = -row_dual[q:]
    return LPSolution("optimal", z, lam, mu, float(objective) + lp.c0, None)


def solve_lp(lp: LPStandardForm, M: np.ndarray,
             engine: str = "bland", warm: bool = False) -> LPSolution:
    """Solve the LP at parameter value M. Statuses, never exceptions, for
    infeasible/unbounded instances.

    With ``engine="bland"`` this is :func:`solve_bland_batch` on a batch of
    one, raising the :class:`LPNumericalError` it stores.

    ``warm`` (HiGHS only; see the module docstring): ``False`` solves cold.
    ``True`` asks for a warm solve: when the solver still holds this LP's
    model up to row and column bounds, move the bounds that differ and
    re-run from the basis it holds instead of passing a fresh model. At
    ties the result may be another optimal vertex than a cold solve's. Any
    other model is solved cold.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (lp.param_dim,):
        raise ValueError(f"M has shape {M.shape}, expected ({lp.param_dim},)")
    if engine == "bland":
        sol, = solve_bland_batch(lp, M[None])
        if isinstance(sol, LPNumericalError):
            raise sol
        return sol
    if engine == "highs":
        return _solve_highs(lp, M, warm)
    raise ValueError(f"unknown engine {engine!r}")
