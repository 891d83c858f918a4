"""Self-contained linear-program solver: a sparse bounded revised simplex.

The problem is min c.x over rows (<=, >=, ==) and variable bounds
[lower, upper], upper possibly infinite.  The constraint matrix stays
sparse: coordinate arrays built once from the row dicts.  It is scaled by
powers of two, rows and columns, and then as a whole so that the primal
values and the costs are of order one; every rescaling is exact in
floating point, so the tolerances below are relative to the problem's own
units and a problem solved in other units gives the same answer.

Every row gets a slack column (>= rows are negated into <= rows; the slack
of an == row is fixed at zero).  Of a basis only its *kernel* is factored:
the basic structural (or phase-1 artificial) columns restricted to the rows
whose slack is nonbasic.  Basic slacks are read off their rows.  The kernel
is held as an explicit inverse, updated at every pivot (column replace, row
replace, border grow or shrink) and re-inverted with ``np.linalg.inv``
every ``_REINVERT`` pivots.  A pivot costs one kernel solve, one sparse
pivot-row product (e_r B^-1) A, the steepest-edge update and the bounded
ratio test.

Pricing is steepest edge: exact weights at the start of a run, then
Goldfarb-Reid updates (Forrest and Goldfarb 1992), lowest index on ties.
The ratio test is bounded, includes bound flips of the entering variable
and takes the largest pivot among near-tied ratios.  After a run of
degenerate pivots the solver falls back to Bland's lowest-index rule,
which guarantees termination, and returns to steepest edge once the
objective moves.  Ties among optimal vertices go to the one whose bounded
variables sit nearest their lower bounds.

A caller's starting basis skips phase 1 when it is feasible; otherwise
phase 1 minimises a sum of artificials from the slack basis.  An optimal
solution carries the row duals, and ``certify`` checks a primal point and
duals against each other and returns the dual bound they prove.  No
external solver is used.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

FEASIBILITY_TOL = 1e-9
REDUCED_COST_TOL = 1e-9
_PIVOT_TOL = 1e-9       # entries below this share of max(1, largest |entry|) of a column are noise
_DEGEN_TOL = 1e-9
_PHASE1_TOL = 1e-7
_STALL_LIMIT = 64
_REINVERT = 100         # kernel re-inverted, primal values and reduced costs refreshed, this often
_BLOCK = 1 << 20        # entries of a dense column block when computing edge weights

_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2
_LE, _GE, _EQ = 0, 1, 2
_RELATION_CODE = {"<=": _LE, ">=": _GE, "==": _EQ}

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LpProblem:
    """min c.x subject to rows (coeffs, relation, rhs) and variable bounds.

    Rows hold sparse coefficient maps {var_index: coef}; relations are
    "<=", ">=" or "==".  Default bounds are [0, +inf).
    """

    num_vars: int
    objective: np.ndarray = None
    constraints: list = field(default_factory=list)
    bounds: list = None

    def __post_init__(self):
        if self.objective is None:
            self.objective = np.zeros(self.num_vars)
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.shape != (self.num_vars,):
            raise ValueError("objective length does not match num_vars")
        if self.bounds is None:
            self.bounds = [(0.0, math.inf)] * self.num_vars
        if len(self.bounds) != self.num_vars:
            raise ValueError("bounds length does not match num_vars")
        for lo, hi in self.bounds:
            if not math.isfinite(lo):
                raise ValueError("lower bounds must be finite")
            if lo > hi:
                raise ValueError(f"empty bound interval [{lo}, {hi}]")

    def add_constraint(self, coeffs: dict, relation: str, rhs: float) -> None:
        if relation == "=":
            relation = "=="
        if relation not in ("<=", ">=", "=="):
            raise ValueError(f"unknown relation {relation!r}")
        for j in coeffs:
            if not 0 <= j < self.num_vars:
                raise ValueError(f"variable index {j} out of range")
        self.constraints.append((dict(coeffs), relation, float(rhs)))

    def set_bounds(self, j: int, lower: float, upper: float) -> None:
        if not 0 <= j < self.num_vars:
            raise ValueError(f"variable index {j} out of range")
        if not math.isfinite(lower) or lower > upper:
            raise ValueError(f"bad bounds [{lower}, {upper}]")
        self.bounds[j] = (float(lower), float(upper))


@dataclass
class SolveStats:
    """What the simplex did: pivots (basis changes), bound flips of the
    entering variable, switches to Bland's rule, kernel re-inversions,
    whether the caller's starting basis was accepted, whether phase 1 ran,
    and whether a warm start was retried cold."""

    pivots: int = 0
    bound_flips: int = 0
    bland_switches: int = 0
    reinversions: int = 0
    crash_accepted: bool = False
    phase1: bool = False
    cold_retry: bool = False


@dataclass
class LpSolution:
    """``duals`` holds one value per row, in the sign convention of min
    c.x: >= rows have y >= 0, <= rows y <= 0, and the reduced costs are
    c - A'y.  It is None unless the status is optimal."""

    status: str
    objective_value: float
    values: np.ndarray
    duals: np.ndarray | None = None
    stats: SolveStats = field(default_factory=SolveStats)


class Violation(NamedTuple):
    kind: str        # "row", "lower" or "upper"
    index: int
    amount: float


@dataclass
class FeasibilityReport:
    ok: bool
    violations: list


class Certificate(NamedTuple):
    """A primal point and row duals checked against each other.

    ``ok`` says that the point is feasible, the duals have the right signs
    and no variable without an upper bound has a negative reduced cost;
    then ``dual_bound`` is a lower bound on the LP optimum (weak duality)
    and ``gap`` is (c.x - dual_bound) relative to the larger magnitude.
    ``violations`` names each failed check."""

    ok: bool
    objective: float
    dual_bound: float
    gap: float
    violations: list


class _Rows(NamedTuple):
    """The rows of an LpProblem as coordinate arrays in row order."""

    row_of: np.ndarray
    col_of: np.ndarray
    val: np.ndarray
    rhs: np.ndarray
    rel: np.ndarray     # _LE / _GE / _EQ per row

    @classmethod
    def of(cls, problem: LpProblem) -> "_Rows":
        cons = problem.constraints
        m = len(cons)
        sizes = np.fromiter((len(c) for c, _, _ in cons), dtype=np.int64, count=m)
        nnz = int(sizes.sum())
        chain = itertools.chain.from_iterable
        return cls(
            np.repeat(np.arange(m), sizes),
            np.fromiter(chain(c for c, _, _ in cons), dtype=np.int64, count=nnz),
            np.fromiter(chain(c.values() for c, _, _ in cons), dtype=float, count=nnz),
            np.fromiter((rhs for _, _, rhs in cons), dtype=float, count=m),
            np.fromiter((_RELATION_CODE[r] for _, r, _ in cons), dtype=np.int8, count=m),
        )

    def times(self, x: np.ndarray) -> np.ndarray:
        """A x."""
        return _sum_by(self.row_of, self.val * x[self.col_of], len(self.rhs))

    def transpose_times(self, y: np.ndarray, n: int) -> np.ndarray:
        """A' y."""
        return _sum_by(self.col_of, self.val * y[self.row_of], n)


def check_feasible(
    problem: LpProblem, point: Sequence[float], tol: float = FEASIBILITY_TOL
) -> FeasibilityReport:
    """Check a point against all rows and bounds; list violations with slack."""
    x = np.asarray(point, dtype=float)
    if x.shape != (problem.num_vars,):
        raise ValueError("point length does not match num_vars")
    return _feasibility(problem, _Rows.of(problem), x, tol, tol)


def _feasibility(problem: LpProblem, rows: _Rows, x: np.ndarray, row_tol, bound_tol) -> FeasibilityReport:
    """Row violations in row order, then bound violations by variable; each
    tolerance is a scalar or one value per row (per variable)."""
    lhs = rows.times(x)
    gap = np.where(
        rows.rel == _LE, lhs - rows.rhs, np.where(rows.rel == _GE, rows.rhs - lhs, np.abs(lhs - rows.rhs))
    )
    violations = [Violation("row", int(i), float(gap[i])) for i in np.flatnonzero(gap > row_tol)]
    lower = np.array([lo for lo, _ in problem.bounds])
    upper = np.array([hi for _, hi in problem.bounds])
    below = lower - x > bound_tol
    above = x - upper > bound_tol
    for j in np.flatnonzero(below | above):
        if below[j]:
            violations.append(Violation("lower", int(j), float(lower[j] - x[j])))
        if above[j]:
            violations.append(Violation("upper", int(j), float(x[j] - upper[j])))
    return FeasibilityReport(ok=not violations, violations=violations)


def certify(problem: LpProblem, x: Sequence[float], y: Sequence[float]) -> Certificate:
    """Check a primal point x and row duals y (sign convention of
    ``LpSolution.duals``) and return the dual bound they prove.

    Four checks, each relative to the magnitudes it compares: x satisfies
    every row and bound; y >= 0 on >= rows and y <= 0 on <= rows; no
    variable with an infinite upper bound has a negative reduced cost
    c_j - (A'y)_j.  The dual bound is b.y plus, per variable, the reduced
    cost times the bound it pushes against (lower when the reduced cost is
    nonnegative, else upper).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = problem.num_vars, len(problem.constraints)
    if x.shape != (n,) or y.shape != (m,):
        raise ValueError("x must have one entry per variable and y one per row")
    rows = _Rows.of(problem)
    c = problem.objective
    lower = np.array([lo for lo, _ in problem.bounds])
    upper = np.array([hi for _, hi in problem.bounds])
    violations = []

    row_tol = FEASIBILITY_TOL * (np.abs(rows.rhs) + _sum_by(rows.row_of, np.abs(rows.val * x[rows.col_of]), m))
    bound_tol = FEASIBILITY_TOL * (np.abs(x) + np.abs(lower) + np.abs(np.where(np.isfinite(upper), upper, 0.0)))
    for v in _feasibility(problem, rows, x, row_tol, bound_tol).violations:
        violations.append(f"primal: {v.kind} {v.index} violated by {v.amount:.3g}")

    y_tol = FEASIBILITY_TOL * (np.abs(y).max() if m else 0.0)
    for i in np.flatnonzero(((rows.rel == _GE) & (y < -y_tol)) | ((rows.rel == _LE) & (y > y_tol))):
        kind = ">=" if rows.rel[i] == _GE else "<="
        violations.append(f"dual sign: y[{i}] = {y[i]:.3g} on a {kind} row")

    reduced = c - rows.transpose_times(y, n)
    r_tol = FEASIBILITY_TOL * (np.abs(c) + _sum_by(rows.col_of, np.abs(rows.val * y[rows.row_of]), n))
    for j in np.flatnonzero(np.isinf(upper) & (reduced < -r_tol)):
        violations.append(f"reduced cost: variable {j} has {reduced[j]:.3g} and no upper bound")

    pushes_upper = (reduced < 0) & np.isfinite(upper)
    bound_terms = np.where(pushes_upper, reduced * np.where(pushes_upper, upper, 0.0), reduced * lower)
    dual_bound = float(rows.rhs @ y + bound_terms.sum())
    objective = float(c @ x)
    scale = max(abs(objective), abs(dual_bound))
    gap = (objective - dual_bound) / scale if scale > 0 else 0.0
    return Certificate(not violations, objective, dual_bound, gap, violations)


def solve(
    problem: LpProblem,
    basis_hint: Sequence[int] | None = None,
    upper_start: Sequence[int] | None = None,
) -> LpSolution:
    """Solve to proven optimality, or report infeasible/unbounded.

    Deterministic: identical problems produce identical solutions.

    ``basis_hint`` optionally names, per constraint row, a variable to
    start basic there (-1 keeps the row's slack), and ``upper_start``
    lists variables that begin at their upper bound instead of the lower.
    When the hinted basis is feasible, phase 1 is skipped entirely;
    otherwise the hint is discarded and the ordinary two-phase path runs.

    Optimal points are re-verified against the constraints; a warm start
    that went numerically bad is retried cold before giving up.
    """
    rows = _Rows.of(problem)
    stats = SolveStats()
    sol = _solve_once(problem, rows, basis_hint, upper_start, stats)
    if sol.status != OPTIMAL:
        return sol
    scale = max(1.0, *(abs(rhs) for _, _, rhs in problem.constraints)) if problem.constraints else 1.0
    if _feasibility(problem, rows, sol.values, 1e-6 * scale, 1e-6 * scale).ok:
        return sol
    if basis_hint is not None:
        stats.cold_retry = True
        sol = _solve_once(problem, rows, None, None, stats)
        if sol.status != OPTIMAL:
            return sol
        if _feasibility(problem, rows, sol.values, 1e-6 * scale, 1e-6 * scale).ok:
            return sol
    raise RuntimeError("simplex returned an out-of-tolerance point; problem is badly scaled")


def _pow2(v: float) -> float:
    """The power of two nearest to v > 0 in log scale (1.0 for v <= 0)."""
    return 2.0 ** math.floor(math.log2(v) + 0.5) if v > 0 and math.isfinite(v) else 1.0


def _pow2_scaling(row_of, col_of, val, m: int, n: int):
    """Row and column factors, powers of two, that bring each row's and
    each column's largest and smallest magnitude to straddle one
    (geometric-mean scaling, four passes, rounded in the log domain)."""
    log_a = np.log2(np.abs(val))
    log_r = np.zeros(m)
    log_c = np.zeros(n)
    for _ in range(4):
        for log_s, idx, size in ((log_c, col_of, n), (log_r, row_of, m)):
            lv = log_a + log_r[row_of] + log_c[col_of]
            hi = np.full(size, -np.inf)
            lo = np.full(size, np.inf)
            np.maximum.at(hi, idx, lv)
            np.minimum.at(lo, idx, lv)
            used = np.isfinite(hi)
            log_s[used] -= np.floor((hi[used] + lo[used]) / 2 + 0.5)
    return np.exp2(log_r), np.exp2(log_c)


def _solve_once(
    problem: LpProblem,
    rows: _Rows,
    basis_hint: Sequence[int] | None,
    upper_start: Sequence[int] | None,
    stats: SolveStats,
) -> LpSolution:
    n = problem.num_vars
    m = len(rows.rhs)
    lower = np.array([b[0] for b in problem.bounds])
    upper = np.array([b[1] for b in problem.bounds])
    nz = rows.val != 0.0
    row_of, col_of, val = rows.row_of[nz], rows.col_of[nz], rows.val[nz]

    # shift variables to start at zero (x = lower + y, 0 <= y <= upper -
    # lower), negate >= rows into <= rows, then scale: x = lower + C y^,
    # row i multiplied by R_i, objective divided by gamma
    b = rows.rhs - _sum_by(row_of, val * lower[col_of], m)
    sign = np.where(rows.rel == _GE, -1.0, 1.0)
    row_scale, col_scale = _pow2_scaling(row_of, col_of, val, m, n)
    b_s = b * sign * row_scale
    ub_s = (upper - lower) / col_scale
    finite_ub = ub_s[np.isfinite(ub_s)]
    tau = _pow2(max(np.abs(b_s).max(initial=0.0), finite_ub.max(initial=0.0)))
    b_s /= tau
    ub_s /= tau
    col_scale *= tau
    row_scale /= tau
    c_s = problem.objective * col_scale
    gamma = _pow2(np.abs(c_s).max(initial=0.0))
    c_s /= gamma
    val_s = val * (sign * row_scale)[row_of] * col_scale[col_of]

    simplex = None
    if basis_hint is not None:
        simplex = _crash(row_of, col_of, val_s, m, n, b_s, ub_s, rows.rel, basis_hint, upper_start, stats)
        stats.crash_accepted = simplex is not None
    if simplex is None:
        simplex = _phase1(row_of, col_of, val_s, m, n, b_s, ub_s, rows.rel, stats)
        if simplex is None:
            return LpSolution(INFEASIBLE, math.nan, np.full(n, math.nan), stats=stats)

    cost = np.zeros(simplex.nx + m)
    cost[:n] = c_s
    if simplex.run(cost) == UNBOUNDED:
        return LpSolution(UNBOUNDED, -math.inf, np.full(n, math.nan), stats=stats)
    # Ties among optimal vertices go to the corner nearest the lower bounds
    # of the bounded variables: minimise their sum, each over its bound
    # width, moving only along edges of zero reduced cost.
    width = simplex.ub[:n]
    bounded = np.isfinite(width) & (width > 0)
    if bounded.any():
        tie_cost = np.zeros_like(cost)
        tie_cost[:n][bounded] = 1.0 / width[bounded]
        simplex.run(tie_cost, face=np.abs(simplex.d) <= REDUCED_COST_TOL)
        simplex.run(cost)

    # round-off within tolerance of a bound is snapped onto it; the clamp
    # removes the last bit that shifting back by ``lower`` can add
    y = simplex.x[:n]
    y = np.where(np.abs(y) <= FEASIBILITY_TOL, 0.0, y)
    y = np.where(np.abs(y - width) <= FEASIBILITY_TOL, width, y)
    values = lower + col_scale * y
    values = np.minimum(np.maximum(values, lower), np.where(np.isfinite(upper), upper, values))
    duals = gamma * sign * row_scale * simplex.pi
    return LpSolution(OPTIMAL, float(problem.objective @ values), values, duals, stats)


def _crash(row_of, col_of, val, m, n, b, ub, rel, basis_hint, upper_start, stats):
    """The caller's starting basis, or None when it is unusable.

    The hint must name a distinct variable for every == row (there is no
    slack to fall back on), the hinted columns must form a nonsingular
    kernel on the hinted rows, and the resulting basic values must respect
    their bounds; otherwise the caller reverts to phase 1.
    """
    if len(basis_hint) != m:
        return None
    hint = np.array([-1 if h is None else int(h) for h in basis_hint], dtype=np.int64)
    kernel_rows = np.flatnonzero(hint >= 0)
    kernel_cols = hint[kernel_rows]
    if (kernel_cols >= n).any() or len(set(kernel_cols.tolist())) != len(kernel_cols):
        return None
    if (rel[hint < 0] == _EQ).any():
        return None  # == row with no hinted variable
    at_upper = sorted(set(upper_start or ()))
    hinted = set(kernel_cols.tolist())
    if any(not 0 <= j < n or not math.isfinite(ub[j]) or j in hinted for j in at_upper):
        return None
    simplex = _Simplex(row_of, col_of, val, m, n, b, ub, rel, stats)
    simplex.x[at_upper] = ub[at_upper]
    simplex.status[at_upper] = _AT_UPPER
    if not simplex.install(kernel_cols, kernel_rows, check=True):
        return None
    basic = simplex.basic
    xb = simplex.x[basic]
    if (xb < -FEASIBILITY_TOL).any() or (xb > simplex.ub[basic] + FEASIBILITY_TOL).any():
        return None
    return simplex


def _phase1(row_of, col_of, val, m, n, b, ub, rel, stats):
    """Minimise a sum of artificials from the slack basis.  One artificial
    column per row whose slack would start outside its bounds, basic in
    that row; afterwards the artificials are fixed at zero and never enter
    again.  Returns None when the problem is infeasible."""
    art_rows = np.flatnonzero((b < -FEASIBILITY_TOL) | ((rel == _EQ) & (b > FEASIBILITY_TOL)))
    na = len(art_rows)
    art_cols = n + np.arange(na)
    simplex = _Simplex(
        np.concatenate([row_of, art_rows]),
        np.concatenate([col_of, art_cols]),
        np.concatenate([val, np.sign(b[art_rows])]),
        m, n + na, b, np.concatenate([ub, np.full(na, math.inf)]), rel, stats,
    )
    simplex.install(art_cols, art_rows)
    if na == 0:
        return simplex
    stats.phase1 = True
    cost = np.zeros(simplex.nx + m)
    cost[art_cols] = 1.0
    if simplex.run(cost) == UNBOUNDED:
        raise RuntimeError("phase-1 objective cannot be unbounded")
    if simplex.x[art_cols].sum() > _PHASE1_TOL * max(1.0, np.abs(b).max()):
        return None
    simplex.ub[art_cols] = 0.0
    simplex.enterable[art_cols] = False
    return simplex


def _sum_by(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Float sums of ``weights`` grouped by ``index`` into ``size`` bins."""
    return np.bincount(index, weights, minlength=size).astype(float, copy=False)


def _entries(ptr: np.ndarray, ids: np.ndarray):
    """Positions of the entries of the given CSR rows (or CSC columns), and
    for each entry the index in ``ids`` of its row (column)."""
    starts = ptr[ids]
    lens = ptr[ids + 1] - starts
    owner = np.repeat(np.arange(len(ids)), lens)
    return np.arange(len(owner)) + (starts - np.cumsum(lens) + lens)[owner], owner


class _Simplex:
    """Bounded primal simplex over rows A y + s = b (A sparse, scaled),
    0 <= y <= ub and slacks s in [0, inf) on <= rows, [0, 0] on == rows.

    Variables 0..nx-1 are structural (artificials included) and nx + i is
    the slack of row i.  The basis is the kernel columns ``kcols`` (basic
    structurals, in kernel order), the kernel rows ``krows`` (rows whose
    slack is nonbasic, in kernel order) and the basic slacks of all other
    rows.  ``G`` is the inverse of the kernel A[krows][:, kcols]; its rows
    follow ``kcols`` and its columns ``krows``.
    """

    def __init__(self, row_of, col_of, val, m, nx, b, ub_struct, rel, stats):
        self.m, self.nx = m, nx
        self.row_of, self.col_of, self.val = row_of, col_of, val
        by_col = np.argsort(col_of, kind="stable")
        self.csc_rows, self.csc_vals = row_of[by_col], val[by_col]
        self.csc_ptr = np.concatenate(([0], np.cumsum(np.bincount(col_of, minlength=nx))))
        self.csc_cols = col_of[by_col]
        by_row = np.argsort(row_of, kind="stable")
        self.csr_rows, self.csr_cols, self.csr_vals = row_of[by_row], col_of[by_row], val[by_row]
        self.csr_ptr = np.concatenate(([0], np.cumsum(np.bincount(row_of, minlength=m))))
        self.b = b
        self.ub = np.concatenate([ub_struct, np.where(rel == _EQ, 0.0, math.inf)])
        ncols = nx + m
        self.x = np.zeros(ncols)
        self.status = np.full(ncols, _AT_LOWER, dtype=np.int8)
        self.enterable = self.ub > 0        # a fixed variable can never improve
        self.weights = None                 # steepest-edge weights 1 + |B^-1 a_j|^2
        self.stats = stats
        self.max_iters = max(20000, 60 * (m + ncols))
        self.cost = None
        self._buffer = np.empty((0, 0))

    # -- basis bookkeeping -------------------------------------------------

    def install(self, kcols, krows, check: bool = False) -> bool:
        """Make kcols basic on krows and every other row's slack basic.
        With ``check``, reject a kernel that is singular or nearly so."""
        self.kcols = np.array(kcols, dtype=np.int64)
        self.krows = np.array(krows, dtype=np.int64)
        self._positions()
        self.status[self.status == _BASIC] = _AT_LOWER
        self.status[self.basic] = _BASIC
        return self.refresh(check)

    def _positions(self) -> None:
        """Kernel positions, basic list and kernel entries, from scratch."""
        self.colpos = np.full(self.nx, -1, dtype=np.int64)
        self.colpos[self.kcols] = np.arange(len(self.kcols))
        self.rowpos = np.full(self.m, -1, dtype=np.int64)
        self.rowpos[self.krows] = np.arange(len(self.krows))
        self.slack_rows = np.flatnonzero(self.rowpos < 0)
        self.basic = np.concatenate([self.kcols, self.nx + self.slack_rows])
        self._kernel_columns()
        # the entries of the kernel rows, each with its kernel position
        pos, self.kr_owner = _entries(self.csr_ptr, self.krows)
        self.kr_cols, self.kr_vals = self.csr_cols[pos], self.csr_vals[pos]

    def _kernel_columns(self) -> None:
        """The entries of the kernel columns, each with its kernel position."""
        pos, self.kc_owner = _entries(self.csc_ptr, self.kcols)
        self.kc_rows, self.kc_vals = self.csc_rows[pos], self.csc_vals[pos]

    def refresh(self, check: bool = False) -> bool:
        """Re-invert the kernel and recompute the basic values (and the
        reduced costs once a cost vector is set) from scratch."""
        k = len(self.kcols)
        rp = self.rowpos[self.row_of]
        cp = self.colpos[self.col_of]
        inside = (rp >= 0) & (cp >= 0)
        kernel = np.zeros((k, k))
        kernel[rp[inside], cp[inside]] = self.val[inside]
        try:
            inverse = np.linalg.inv(kernel)
        except np.linalg.LinAlgError:
            return False
        if check and k and not np.allclose(kernel @ inverse, np.eye(k), rtol=0.0, atol=1e-9):
            return False
        # G lives in the top-left corner of a larger buffer, so that the
        # kernel can grow and shrink in place
        if self._buffer.shape[0] < k:
            self._buffer = np.empty((min(self.m, 2 * k), min(self.m, 2 * k)))
        self._buffer[:k, :k] = inverse
        self.G = self._buffer[:k, :k]
        self.stats.reinversions += 1
        x = self.x
        xs = x[: self.nx].copy()
        xs[self.kcols] = 0.0
        rest = self.b - _sum_by(self.row_of, self.val * xs[self.col_of], self.m)
        x[self.kcols] = self.G @ rest[self.krows]
        xs[self.kcols] = x[self.kcols]
        slack = self.b - _sum_by(self.row_of, self.val * xs[self.col_of], self.m)
        x[self.nx + self.slack_rows] = slack[self.slack_rows]
        if self.cost is not None:
            self._reduced_costs()
        return True

    def _reduced_costs(self) -> None:
        pi = np.zeros(self.m)
        pi[self.krows] = self.cost[self.kcols] @ self.G
        d = self.cost.copy()
        d[: self.nx] -= _sum_by(self.col_of, self.val * pi[self.row_of], self.nx)
        d[self.nx:] -= pi
        d[self.basic] = 0.0
        self.pi, self.d = pi, d

    # -- the simplex loop --------------------------------------------------

    def run(self, cost: np.ndarray, face: np.ndarray | None = None) -> str:
        """Pivot to optimality for ``cost``, or report unbounded.  Only
        variables in ``face`` (all when None) may enter."""
        self.cost = cost
        enterable = self.enterable if face is None else self.enterable & face
        self.refresh()
        self.weights = None
        stats = self.stats
        stall = 0
        use_bland = False
        since_refresh = 0
        fresh = True
        for _ in range(self.max_iters):
            d, status = self.d, self.status
            viol = np.where(status == _AT_LOWER, -d, d)
            cand = (viol > REDUCED_COST_TOL) & enterable & (status != _BASIC)
            if not cand.any():
                if fresh:
                    return OPTIMAL
                # certify against values and reduced costs from a fresh kernel
                self.refresh()
                since_refresh = 0
                fresh = True
                continue
            fresh = False
            if self.weights is None:
                # exact weights for the main runs; a run restricted to a face
                # (few pivots, if any) prices by the plain violation
                self.weights = self._edge_weights() if face is None else np.ones(len(d))
            if use_bland:
                q = int(np.flatnonzero(cand)[0])
            else:
                scores = np.where(cand, viol * viol / self.weights, -np.inf)
                q = int(np.argmax(scores))  # argmax takes the lowest index on ties
            direction = 1.0 if status[q] == _AT_LOWER else -1.0
            alpha = self._column(q)
            eff = direction * alpha

            # bounded ratio test over the basic variables that move
            basic = self.basic
            size = np.abs(eff)
            moving = np.flatnonzero(size > _PIVOT_TOL * max(1.0, float(size.max(initial=0.0))))
            size = size[moving]
            falls = eff[moving] > 0  # else the basic variable rises toward its upper bound
            xb = self.x[basic[moving]]
            limits = np.where(falls, xb, self.ub[basic[moving]] - xb) / size
            np.maximum(limits, 0.0, out=limits)
            step = float(limits.min(initial=np.inf))
            flip = self.ub[q]  # length of q's bound interval
            if flip <= step and math.isfinite(flip):
                # bound flip: q jumps to its opposite bound, basis unchanged
                self.x[basic] -= eff * flip
                self.x[q] = flip if direction > 0 else 0.0
                status[q] = _AT_UPPER if direction > 0 else _AT_LOWER
                stats.bound_flips += 1
                if flip > _DEGEN_TOL:
                    stall = 0
                    use_bland = False
                continue
            if not math.isfinite(step):
                return UNBOUNDED
            ties = np.flatnonzero(limits <= step + _DEGEN_TOL)
            if use_bland:
                at = int(ties[np.argmin(basic[moving[ties]])])  # lowest variable index
            else:
                at = int(ties[np.argmax(size[ties])])  # largest pivot
            step = float(limits[at])
            r = int(moving[at])
            if step <= _DEGEN_TOL:
                stall += 1
                if stall > _STALL_LIMIT and not use_bland:
                    use_bland = True
                    stats.bland_switches += 1
            else:
                stall = 0
                use_bland = False
            leaving = int(basic[r])
            hit_upper = not falls[at]
            self.x[basic] -= eff * step
            self.x[q] += direction * step
            self.x[leaving] = self.ub[leaving] if hit_upper else 0.0
            status[leaving] = _AT_UPPER if hit_upper else _AT_LOWER
            status[q] = _BASIC
            self._pivot(q, r, alpha, leaving)
            stats.pivots += 1
            since_refresh += 1
            if since_refresh >= _REINVERT:
                self.refresh()
                since_refresh = 0
                fresh = True
        raise RuntimeError("simplex iteration limit exceeded")

    def _edge_weights(self) -> np.ndarray:
        """Steepest-edge weights 1 + |B^-1 a_j|^2 of every nonbasic column,
        computed exactly in column blocks of at most ``_BLOCK`` entries."""
        m, nx, G = self.m, self.nx, self.G
        # entries of the kernel columns, grouped by row
        in_kernel = self.colpos[self.csr_cols] >= 0
        k_rows = self.csr_rows[in_kernel]
        k_pos = self.colpos[self.csr_cols[in_kernel]]
        k_vals = self.csr_vals[in_kernel]
        starts = np.flatnonzero(np.diff(k_rows, prepend=-1))

        def edge_sq(block: np.ndarray) -> np.ndarray:
            # block holds columns a_j densely; B^-1 a_j is G a_j[krows] on
            # the kernel and (a_j - A_K G a_j[krows]) on the slack rows
            on_kernel = G @ block[self.krows]
            if k_rows.size:
                block[k_rows[starts]] -= np.add.reduceat(k_vals[:, None] * on_kernel[k_pos], starts, axis=0)
            return 1.0 + (on_kernel * on_kernel).sum(axis=0) + (block[self.slack_rows] ** 2).sum(axis=0)

        weights = np.ones(nx + m)
        width = max(1, _BLOCK // max(m, len(k_rows), 1))
        for j0 in range(0, nx, width):
            j1 = min(nx, j0 + width)
            lo, hi = self.csc_ptr[j0], self.csc_ptr[j1]
            block = np.zeros((m, j1 - j0))
            block[self.csc_rows[lo:hi], self.csc_cols[lo:hi] - j0] = self.csc_vals[lo:hi]
            weights[j0:j1] = edge_sq(block)
        for a0 in range(0, len(self.krows), width):
            rows = self.krows[a0:a0 + width]
            block = np.zeros((m, len(rows)))
            block[rows, np.arange(len(rows))] = 1.0
            weights[nx + rows] = edge_sq(block)
        weights[self.basic] = 1.0
        return weights

    def _column(self, q: int) -> np.ndarray:
        """B^-1 a_q over the basic variables, in ``self.basic`` order."""
        m, nx = self.m, self.nx
        col = np.zeros(m)
        if q < nx:
            lo, hi = self.csc_ptr[q], self.csc_ptr[q + 1]
            rows, vals = self.csc_rows[lo:hi], self.csc_vals[lo:hi]
            col[rows] = vals
            pos = self.rowpos[rows]
            inside = pos >= 0
            alpha_k = self.G[:, pos[inside]] @ vals[inside]
        else:
            col[q - nx] = 1.0
            alpha_k = self.G[:, self.rowpos[q - nx]].copy()
        col -= _sum_by(self.kc_rows, self.kc_vals * alpha_k[self.kc_owner], m)
        return np.concatenate([alpha_k, col[self.slack_rows]])

    def _pivot(self, q: int, r: int, alpha: np.ndarray, leaving: int) -> None:
        """Basis change: q enters in basis position r, where ``leaving``
        was.  Updates the reduced costs, the steepest-edge weights and the kernel
        inverse."""
        m, nx, G = self.m, self.nx, self.G
        k = len(self.kcols)
        piv = alpha[r]
        # row r of B^-1 (rho, over the rows) times every column
        rho = np.zeros(m)
        if r < k:
            z = None
            rho_k = G[r]
            alpha_r = _sum_by(self.kr_cols, self.kr_vals * rho_k[self.kr_owner], nx)
        else:
            i = int(self.slack_rows[r - k])
            lo, hi = self.csr_ptr[i], self.csr_ptr[i + 1]
            cols_i, vals_i = self.csr_cols[lo:hi], self.csr_vals[lo:hi]
            pos = self.colpos[cols_i]
            inside = pos >= 0
            z = vals_i[inside] @ G[pos[inside]]
            rho_k = -z
            rho[i] = 1.0
            alpha_r = _sum_by(self.kr_cols, self.kr_vals * rho_k[self.kr_owner], nx)
            alpha_r[cols_i] += vals_i
        rho[self.krows] = rho_k
        alpha_r = np.concatenate([alpha_r, rho])
        theta = self.d[q] / piv
        self.d -= theta * alpha_r
        self.d[leaving] = -theta

        # Goldfarb-Reid update of the steepest-edge weights, with
        # tau = B^-T alpha and gamma_q = 1 + |alpha|^2 taken fresh
        tau = np.zeros(m)
        tau[self.slack_rows] = alpha[k:]
        spill = _sum_by(self.kc_owner, self.kc_vals * tau[self.kc_rows], k)
        tau_k = (alpha[:k] - spill) @ G
        tau[self.krows] = tau_k
        a_tau = np.concatenate([_sum_by(self.col_of, self.val * tau[self.row_of], nx), tau])
        gamma_q = 1.0 + float(alpha @ alpha)
        ratio = alpha_r / piv
        w = self.weights
        w += ratio * (ratio * gamma_q - 2.0 * a_tau)
        np.maximum(w, 1.0 + ratio * ratio, out=w)
        w[leaving] = max(gamma_q / (piv * piv), 1.0)

        alpha_k = alpha[:k]
        if q < nx and r < k:
            # column replace: q takes kernel column r
            g = G[r] / piv
            G -= np.outer(alpha_k, g)
            G[r] = g
            self.kcols[r] = q
            self.basic[r] = q
            self.colpos[leaving] = -1
            self.colpos[q] = r
            self._kernel_columns()
        elif q < nx:
            # border grow: row i joins the kernel with column q
            if self._buffer.shape[0] <= k:
                grown = np.empty((min(self.m, 2 * k + 16),) * 2)
                grown[:k, :k] = G
                self._buffer, G = grown, grown[:k, :k]
            buf = self._buffer
            G += np.outer(alpha_k, z / piv)
            buf[:k, k] = -alpha_k / piv
            buf[k, :k] = -z / piv
            buf[k, k] = 1.0 / piv
            self.G = buf[: k + 1, : k + 1]
            self.kcols = np.append(self.kcols, q)
            self.krows = np.append(self.krows, i)
        elif r < k:
            # border shrink: q's row and column r leave the kernel; the last
            # kernel row and column move into their places
            a = int(self.rowpos[q - nx])
            G -= np.outer(G[:, a], G[r] / piv)
            last = k - 1
            G[r] = G[last]
            G[:, a] = G[:, last]
            self.G = self._buffer[:last, :last]
            self.kcols[r] = self.kcols[last]
            self.krows[a] = self.krows[last]
            self.kcols = self.kcols[:last]
            self.krows = self.krows[:last]
        else:
            # row replace: row i takes the kernel row of q's row
            a = int(self.rowpos[q - nx])
            z_a = z.copy()
            z_a[a] -= 1.0
            G -= np.outer(G[:, a], z_a) / z[a]
            self.krows[a] = i
        if not (q < nx and r < k):
            self._positions()
        self.d[q] = 0.0
        self.d[self.basic] = 0.0
