"""Self-contained linear-program solver: a sparse bounded revised simplex.

The problem is min c.x over rows (<=, >=, ==) and variable bounds
[0, upper], upper possibly infinite.  ``LpProblem`` stores the
constraint matrix once, as sparse coordinate arrays that the relaxation
builders write directly and the solver reads as they are.  It is scaled by
powers of two, rows and columns, and then as a whole so that the primal
values and the costs are of order one; every rescaling is exact in
floating point, so the tolerances below are relative to the problem's own
units and a problem solved in other units gives the same answer.  Columns
fixed at zero (upper bound 0) that the starting basis does not name never
enter; after scaling they are left out of the solve and read 0.0 in the
answer.

Every row gets a slack column (>= rows are negated into <= rows; the slack
of an == row is fixed at zero).  Of a basis only its *kernel* is factored:
the basic structural (or phase-1 artificial) columns restricted to the rows
whose slack is nonbasic.  Basic slacks are read off their rows.  The kernel
is held as an explicit inverse, updated at every pivot (column replace, row
replace, border grow or shrink) and re-inverted with ``np.linalg.inv``
every ``_REINVERT`` pivots.  The basis bookkeeping (kernel positions, the
basic list and the entries of the kernel's columns and rows) is kept
across basis changes too: a pivot rewrites, appends or moves one block of
entries and shifts a few positions instead of rebuilding them.  A pivot
costs one kernel solve, one sparse pivot-row product (e_r B^-1) A, the
steepest-edge update with its whole-matrix product A' tau, the update of
the kernel inverse and the bounded ratio test; at a few hundred rows that
is mostly the overhead of about a hundred numpy calls, not arithmetic.

Pricing is steepest edge: exact weights at the start of a run, then
Goldfarb-Reid updates (Forrest and Goldfarb 1992), lowest index on ties.
The ratio test is bounded, includes bound flips of the entering variable
and takes the largest pivot among near-tied ratios.  After a run of
degenerate pivots the solver falls back to Bland's lowest-index rule,
which guarantees termination, and returns to steepest edge once the
objective moves.  Ties among optimal vertices go to the one whose bounded
variables sit nearest zero.

A caller's starting basis, a ``Basis`` value (or several, tried in order
until one's kernel installs), skips phase 1.  When its basic values are
within their bounds the primal simplex starts from it.  When they are not,
as after the right-hand side and coefficients change under an earlier
optimal basis, a dual simplex runs from it first (Koberstein, *The dual
simplex method*, 2005): boxed nonbasic columns whose reduced cost has the
wrong sign move to their other bound, unbounded ones get a temporary upper
bound and move to it, and dual pivots on the same kernel and bookkeeping
follow until the basis is primal feasible.  The leaving row is priced by
dual steepest edge (exact weights at the start, then the Forrest-Goldfarb
update), and the ratio test flips the boxed columns it passes while the
leaving value still falls short of its bound.  The temporary bounds then
go, a column still at one moves off it by primal steps, and the primal
simplex finishes as from any feasible start.  The dual simplex gives up to
phase 1 when no column can enter, so infeasibility is always proven by
phase 1.  With no usable start, phase 1 minimises a sum
of artificials from the slack basis.  An optimal solution carries the row
duals, its final basis and the ``Certificate`` that ``certify`` made of
it: the point and duals checked against each other and the dual bound
they prove.  No external solver is used.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

FEASIBILITY_TOL = 1e-9
REDUCED_COST_TOL = 1e-9
_PIVOT_TOL = 1e-9       # entries below this share of max(1, largest |entry|) of a column are noise
_DEGEN_TOL = 1e-9
_PHASE1_TOL = 1e-7
_FEASIBILITY_CAP = 1e-6  # no primal tolerance exceeds this share of max(1, max |b|)
_STALL_LIMIT = 64
_REINVERT = 100         # kernel re-inverted, primal values and reduced costs refreshed, this often
_BLOCK = 1 << 20        # entries of a dense column block when computing edge weights
_ARTIFICIAL_BOUND = 1e3  # temporary upper bound of a dual-infeasible unbounded column (scaled units)

_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2
LE, GE, EQ = 0, 1, 2                # relation codes of the rows
RELATIONS = ("<=", ">=", "==")      # indexed by relation code

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class _View(Sequence):
    """A read-only sequence whose items are made from the problem's arrays
    on access."""

    def __init__(self, size, item):
        self._size, self._item = size, item

    def __len__(self) -> int:
        return self._size()

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._item(j) for j in range(*i.indices(len(self)))]
        return self._item(range(len(self))[i])


class LpProblem:
    """min c.x subject to rows sum_j a_ij x_j (<=, >=, ==) b_i and bounds
    0 <= x <= upper, upper possibly infinite.

    The rows are stored once, as coordinate arrays in row order: per entry
    ``row_of``, ``col_of`` and ``val``, per row ``rhs`` and ``rel`` (LE, GE
    or EQ); a row holds each column at most once.  Builders pass whole
    arrays to the constructor; ``add_constraint`` and ``set_upper`` write
    into the same arrays for LPs written by hand.  ``constraints`` and
    ``bounds`` are read-only views of them as ``(coeffs, relation, rhs)``
    rows and ``(0.0, upper)`` pairs.  Default upper bounds are +inf.
    Costs, right-hand sides and coefficients must be finite: the
    constructor and ``add_constraint`` raise ValueError naming the first
    NaN or infinite one.
    """

    def __init__(self, num_vars: int, *, objective=None, upper=None,
                 row_of=(), col_of=(), val=(), rhs=(), rel=()):
        n = self.num_vars = num_vars
        self.objective = np.zeros(n) if objective is None else np.array(objective, dtype=float)
        self.upper = np.full(n, math.inf) if upper is None else np.array(upper, dtype=float)
        if self.objective.shape != (n,):
            raise ValueError("objective length does not match num_vars")
        if self.upper.shape != (n,):
            raise ValueError("upper bounds length does not match num_vars")
        bad = np.flatnonzero(~(self.upper >= 0.0))
        if bad.size:
            raise ValueError(f"upper bound {self.upper[bad[0]]} of variable {bad[0]} is negative or NaN")
        self.row_of = np.asarray(row_of, dtype=np.int64)
        self.col_of = np.asarray(col_of, dtype=np.int64)
        self.val = np.asarray(val, dtype=float)
        self.rhs = np.asarray(rhs, dtype=float)
        self.rel = np.asarray(rel, dtype=np.int8)
        nnz, m = len(self.row_of), len(self.rhs)
        if len(self.col_of) != nnz or len(self.val) != nnz or len(self.rel) != m:
            raise ValueError("row arrays differ in length")
        if nnz and (self.row_of[0] < 0 or self.row_of[-1] >= m or (np.diff(self.row_of) < 0).any()):
            raise ValueError("row ids must be in row order and name existing rows")
        if nnz and (self.col_of.min() < 0 or self.col_of.max() >= n):
            raise ValueError("variable index out of range")
        if ((self.rel < LE) | (self.rel > EQ)).any():
            raise ValueError("unknown relation code")
        _refuse_non_finite(self.objective, lambda j: f"cost of variable {j}")
        _refuse_non_finite(self.val, lambda e: f"coefficient of variable {self.col_of[e]} in row {self.row_of[e]}")
        _refuse_non_finite(self.rhs, lambda i: f"right-hand side of row {i}")

    def add_constraint(self, coeffs: dict, relation: str, rhs: float) -> None:
        if relation == "=":
            relation = "=="
        if relation not in RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        for j, c in coeffs.items():
            if not 0 <= j < self.num_vars:
                raise ValueError(f"variable index {j} out of range")
            if not math.isfinite(c):
                raise ValueError(f"coefficient of variable {j} in row {len(self.rhs)} is {c}, not finite")
        if not math.isfinite(rhs):
            raise ValueError(f"right-hand side of row {len(self.rhs)} is {rhs}, not finite")
        size = len(coeffs)
        self.row_of = np.concatenate([self.row_of, np.full(size, len(self.rhs), dtype=np.int64)])
        self.col_of = np.concatenate([self.col_of, np.fromiter(coeffs, dtype=np.int64, count=size)])
        self.val = np.concatenate([self.val, np.fromiter(coeffs.values(), dtype=float, count=size)])
        self.rhs = np.append(self.rhs, float(rhs))
        self.rel = np.append(self.rel, np.int8(RELATIONS.index(relation)))

    def set_upper(self, j: int, upper: float) -> None:
        if not 0 <= j < self.num_vars:
            raise ValueError(f"variable index {j} out of range")
        if not upper >= 0.0:
            raise ValueError(f"upper bound {upper} is negative or NaN")
        self.upper[j] = upper

    @property
    def constraints(self) -> Sequence:
        """The rows as ``(coeffs, relation, rhs)``, coeffs a {column: value} map."""
        return _View(lambda: len(self.rhs), self._row)

    @property
    def bounds(self) -> Sequence:
        """The ``(0.0, upper)`` pair of every variable."""
        return _View(lambda: self.num_vars, lambda j: (0.0, float(self.upper[j])))

    def _row(self, i: int) -> tuple:
        lo, hi = np.searchsorted(self.row_of, (i, i + 1))
        coeffs = dict(zip(self.col_of[lo:hi].tolist(), self.val[lo:hi].tolist()))
        return coeffs, RELATIONS[self.rel[i]], float(self.rhs[i])


def _refuse_non_finite(values: np.ndarray, name) -> None:
    """Raise ValueError for the first NaN or infinite entry of ``values``,
    ``name(index)`` saying what it is."""
    if not np.isfinite(values).all():
        at = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ValueError(f"{name(at)} is {values[at]}, not finite")


class Basis(NamedTuple):
    """A starting basis: ``columns[i]`` is basic in row ``rows[i]``, every
    other row's slack is basic, and the nonbasic variables in ``at_upper``
    start at their upper bound (all others at zero).  The
    kernel is factored in the given order."""

    rows: Sequence[int]
    columns: Sequence[int]
    at_upper: Sequence[int] = ()


@dataclass
class SolveStats:
    """What the simplex did: pivots of the primal simplex (basis changes),
    bound flips of the entering variable or of the boxed columns that the
    dual ratio test passes, switches to Bland's rule, kernel
    re-inversions, whether a caller's starting basis was accepted and which
    of those passed (``start_index``), whether phase 1 ran, whether a warm
    start was retried cold, and how many columns fixed at zero the last
    attempt solved without.  ``ties`` says that the final basis does not
    prove the optimum unique (a column could enter at zero reduced cost
    for the cost and then for the tie-break), so another path may end at
    another optimal vertex; ``tie_retry`` is for a caller that solved such
    an answer again from another start, and added up both solves' counts.
    A start that installs
    but is not primal feasible sets ``dual``: ``start_flips`` boxed columns
    moved to their other bound and ``artificial_bounds`` unbounded ones
    given a temporary bound, then ``dual_pivots`` pivots of the dual
    simplex."""

    pivots: int = 0
    bound_flips: int = 0
    bland_switches: int = 0
    reinversions: int = 0
    crash_accepted: bool = False
    phase1: bool = False
    cold_retry: bool = False
    dropped_columns: int = 0
    start_index: int = 0
    ties: bool = False
    tie_retry: bool = False
    dual: bool = False
    dual_pivots: int = 0
    start_flips: int = 0
    artificial_bounds: int = 0

    @property
    def start_use(self) -> str:
        """How the solve began: "cold" (phase 1 or the slack basis),
        "fallback" (a later start, the earlier ones unusable or the answer
        solved again), or from the first start "dual-artificial",
        "dual-flips" or "primal"."""
        if self.cold_retry or not self.crash_accepted:
            return "cold"
        if self.start_index or self.tie_retry:
            return "fallback"
        if self.dual:
            return "dual-artificial" if self.artificial_bounds else "dual-flips"
        return "primal"


@dataclass
class LpSolution:
    """``duals`` holds one value per row, in the sign convention of min
    c.x: >= rows have y >= 0, <= rows y <= 0, and the reduced costs are
    c - A'y.  ``certificate`` is ``certify`` of ``values`` and ``duals``;
    ``solve`` returns no optimal solution whose certificate fails.
    ``basis`` is the final basis, a start for a related problem; kernel
    members that are phase-1 artificials are left out, their rows' slacks
    named basic instead.  All three are None unless the status is optimal."""

    status: str
    objective_value: float
    values: np.ndarray
    duals: np.ndarray | None = None
    stats: SolveStats = field(default_factory=SolveStats)
    certificate: Certificate | None = None
    basis: Basis | None = None


class Certificate(NamedTuple):
    """A primal point and row duals checked against each other.

    ``ok`` says that the point is feasible, the duals have the right signs
    and no variable without an upper bound has a negative reduced cost;
    then ``dual_bound`` is a lower bound on the LP optimum (weak duality)
    and ``gap`` is (c.x - dual_bound) relative to the terms summed (``certify``).
    ``violations`` names each failed check."""

    ok: bool
    objective: float
    dual_bound: float
    gap: float
    violations: list


class CertificateError(RuntimeError):
    """An optimal LP answer whose duals do not certify it."""


def check_feasible(problem: LpProblem, point: Sequence[float]) -> list:
    """The rows and bounds that ``point`` violates, as strings such as
    ``"primal: row 3 violated by 1"``; empty when it is feasible.  Row
    violations come in row order, then bound violations by variable.  Each
    check is relative to the magnitudes it compares: ``FEASIBILITY_TOL``
    times |b_i| + sum_j |a_ij x_j| per row and |x_j| + upper_j per variable
    (an infinite upper bound counted as zero), never more than
    ``_FEASIBILITY_CAP`` * max(1, max |b|)."""
    x = np.asarray(point, dtype=float)
    if x.shape != (problem.num_vars,):
        raise ValueError("point length does not match num_vars")
    rhs, rel, upper = problem.rhs, problem.rel, problem.upper
    cap = _FEASIBILITY_CAP * max(1.0, np.abs(rhs).max(initial=0.0))
    products = problem.val * x[problem.col_of]
    row_tol = np.minimum(FEASIBILITY_TOL * (np.abs(rhs) + _sum_by(problem.row_of, np.abs(products), len(rhs))), cap)
    bound_tol = np.minimum(FEASIBILITY_TOL * (np.abs(x) + np.where(np.isfinite(upper), upper, 0.0)), cap)
    lhs = _sum_by(problem.row_of, products, len(rhs))
    gap = np.where(rel == LE, lhs - rhs, np.where(rel == GE, rhs - lhs, np.abs(lhs - rhs)))
    violations = [f"primal: row {i} violated by {gap[i]:.3g}" for i in np.flatnonzero(gap > row_tol)]
    below = -x > bound_tol
    above = x - upper > bound_tol
    for j in np.flatnonzero(below | above):
        if below[j]:
            violations.append(f"primal: lower {j} violated by {-x[j]:.3g}")
        if above[j]:
            violations.append(f"primal: upper {j} violated by {x[j] - upper[j]:.3g}")
    return violations


def certify(problem: LpProblem, x: Sequence[float], y: Sequence[float]) -> Certificate:
    """Check a primal point x and row duals y (sign convention of
    ``LpSolution.duals``) and return the dual bound they prove.

    Four checks, each relative to the magnitudes it compares: x satisfies
    every row and bound (``check_feasible``); y >= 0 on >= rows and y <= 0
    on <= rows; no variable with an infinite upper bound has a negative
    reduced cost c_j - (A'y)_j.  The dual bound is b.y plus, per variable
    whose reduced cost is negative and whose upper bound is finite, the
    reduced cost times that bound.  The gap is c.x less the dual bound over
    the larger of the magnitudes summed on each side, sum_j |c_j x_j| and
    sum_i |b_i y_i| plus the bound terms' magnitudes (0 when all are 0).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = problem.num_vars, len(problem.rhs)
    if x.shape != (n,) or y.shape != (m,):
        raise ValueError("x must have one entry per variable and y one per row")
    c, rel, upper = problem.objective, problem.rel, problem.upper
    violations = check_feasible(problem, x)

    y_tol = FEASIBILITY_TOL * (np.abs(y).max() if m else 0.0)
    for i in np.flatnonzero(((rel == GE) & (y < -y_tol)) | ((rel == LE) & (y > y_tol))):
        violations.append(f"dual sign: y[{i}] = {y[i]:.3g} on a {RELATIONS[rel[i]]} row")

    products = problem.val * y[problem.row_of]
    reduced = c - _sum_by(problem.col_of, products, n)
    r_tol = FEASIBILITY_TOL * (np.abs(c) + _sum_by(problem.col_of, np.abs(products), n))
    for j in np.flatnonzero(np.isinf(upper) & (reduced < -r_tol)):
        violations.append(f"reduced cost: variable {j} has {reduced[j]:.3g} and no upper bound")

    pushes_upper = (reduced < 0) & np.isfinite(upper)
    bound_terms = reduced * np.where(pushes_upper, upper, 0.0)
    dual_bound = float(problem.rhs @ y + bound_terms.sum())
    objective = float(c @ x)
    scale = max(float(np.abs(c * x).sum()), float(np.abs(problem.rhs * y).sum() + np.abs(bound_terms).sum()))
    gap = (objective - dual_bound) / scale if scale > 0 else 0.0
    return Certificate(not violations, objective, dual_bound, gap, violations)


def solve(problem: LpProblem, start: Basis | Sequence[Basis] | None = None) -> LpSolution:
    """Solve to proven optimality, or report infeasible/unbounded.

    Deterministic: identical problems produce identical solutions.

    ``start`` optionally names the basis to begin from, or several to try in
    order.  The first that ``_crash`` installs is used (an index out of
    range, an == row left to its slack, or a singular kernel, as when a row
    or column is named twice, passes to the next); phase 1 is skipped, and
    a start that is not primal feasible goes through the dual simplex
    first (module docstring).  With none usable the ordinary two-phase path
    runs.

    Every optimal answer is certified (``certify``) and carries its
    certificate.  A warm-started answer that fails it is retried cold; an
    answer that still fails raises ``CertificateError``, naming the failed
    checks.
    """
    starts = () if start is None else (start,) if isinstance(start, Basis) else tuple(start)
    stats = SolveStats()
    sol = _solve_once(problem, starts, stats)
    while sol.status == OPTIMAL:
        sol.certificate = certify(problem, sol.values, sol.duals)
        if sol.certificate.ok:
            break
        if not starts or stats.cold_retry:
            raise CertificateError("LP duals do not certify the optimum: " + "; ".join(sol.certificate.violations))
        stats.cold_retry = True
        sol = _solve_once(problem, (), stats)
    return sol


def _pow2(v: float) -> float:
    """The power of two nearest to v > 0 in log scale (1.0 for v <= 0)."""
    return 2.0 ** math.floor(math.log2(v) + 0.5) if v > 0 and math.isfinite(v) else 1.0


def _pow2_scaling(row_of, col_of, val, m: int, n: int):
    """Row and column factors, powers of two, that bring each row's and
    each column's largest and smallest magnitude to straddle one
    (geometric-mean scaling, four passes, rounded in the log domain).  The
    entries are in row order; each pass takes the extremes of the entries
    grouped by column, then by row, with one ``reduceat`` each.  Every
    entry is finite (``LpProblem`` refuses the rest) and nonzero (the
    caller drops zeros), so every line's extremes are finite."""
    log_a = np.log2(np.abs(val))
    log_r = np.zeros(m)
    log_c = np.zeros(n)
    if not len(val):
        return np.exp2(log_r), np.exp2(log_c)
    # per line kind: its factors, the entries in line order (the rows'
    # are in order already), where each line with entries starts, and which
    # lines those are
    lines = []
    by_col = np.argsort(col_of, kind="stable")
    for log_s, order, idx in ((log_c, by_col, col_of[by_col]), (log_r, slice(None), row_of)):
        first = np.flatnonzero(np.diff(idx, prepend=-1))
        lines.append((log_s, order, first, idx[first]))
    for _ in range(4):
        for log_s, order, first, used in lines:
            lv = (log_a + log_r[row_of] + log_c[col_of])[order]
            hi = np.maximum.reduceat(lv, first)
            lo = np.minimum.reduceat(lv, first)
            log_s[used] -= np.floor((hi + lo) / 2 + 0.5)
    return np.exp2(log_r), np.exp2(log_c)


def _solve_once(problem: LpProblem, starts: tuple, stats: SolveStats) -> LpSolution:
    n = problem.num_vars
    m = len(problem.rhs)
    upper, rel = problem.upper, problem.rel
    nz = problem.val != 0.0
    row_of, col_of, val = problem.row_of[nz], problem.col_of[nz], problem.val[nz]

    # negate >= rows into <= rows, then scale: x = C y^, row i multiplied
    # by R_i, objective divided by gamma
    sign = np.where(rel == GE, -1.0, 1.0)
    row_scale, col_scale = _pow2_scaling(row_of, col_of, val, m, n)
    b_s = problem.rhs * sign * row_scale
    ub_s = upper / col_scale
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

    # A column fixed at zero that no start makes basic or puts at its bound
    # never enters and holds 0.0, so it adds only zeros to the products and
    # its own reduced cost and weight are never read: the simplex runs
    # without it, takes the same path and gives the same bits.
    keep = ub_s != 0.0
    for start in starts:
        named = np.concatenate((np.asarray(start.columns, dtype=np.int64), np.asarray(start.at_upper, dtype=np.int64)))
        keep[named[(named >= 0) & (named < n)]] = True
    kept = np.flatnonzero(keep)
    nk = len(kept)
    stats.dropped_columns = n - nk
    if nk < n:
        new_id = np.cumsum(keep) - 1
        entries = keep[col_of]
        row_of, col_of, val_s = row_of[entries], new_id[col_of[entries]], val_s[entries]
        ub_s, c_s = ub_s[keep], c_s[keep]

        # an index out of range becomes -1, which _crash refuses as before
        def renumber(ids):
            ids = np.asarray(ids, dtype=np.int64)
            return np.where((ids >= 0) & (ids < n), new_id[np.clip(ids, 0, n - 1)], -1)
        starts = [Basis(start.rows, renumber(start.columns), renumber(start.at_upper)) for start in starts]

    simplex = None
    for index, start in enumerate(starts):
        simplex = _crash(row_of, col_of, val_s, m, nk, b_s, ub_s, rel, start, stats)
        if simplex is not None:
            stats.start_index = index
            if not simplex.feasible():
                stats.dual = True
                if not simplex.dual_run(np.concatenate((c_s, np.zeros(m)))):
                    simplex = None  # phase 1 proves infeasibility, or finds a start
            break
    if starts:
        stats.crash_accepted = simplex is not None
    if simplex is None:
        simplex = _phase1(row_of, col_of, val_s, m, nk, b_s, ub_s, rel, stats)
        if simplex is None:
            return LpSolution(INFEASIBLE, math.nan, np.full(n, math.nan), stats=stats)

    cost = np.zeros(simplex.nx + m)
    cost[:nk] = c_s
    if simplex.run(cost) == UNBOUNDED:
        return LpSolution(UNBOUNDED, -math.inf, np.full(n, math.nan), stats=stats)
    # Ties among optimal vertices go to the corner nearest zero of the
    # bounded variables: minimise their sum, each over its bound width,
    # moving only along edges of zero reduced cost.
    width = simplex.ub[:nk]
    bounded = np.isfinite(width) & (width > 0)
    face = np.abs(simplex.d) <= REDUCED_COST_TOL
    if bounded.any():
        tie_cost = np.zeros_like(cost)
        tie_cost[:nk][bounded] = 1.0 / width[bounded]
        simplex.run(tie_cost, face=face)
        face &= np.abs(simplex.d) <= REDUCED_COST_TOL
        simplex.run(cost)
    stats.ties = bool((face & simplex.enterable & (simplex.status != _BASIC)).any())

    # round-off within tolerance of a bound is snapped onto it, and the
    # clamp keeps the rest inside [0, upper]
    y = simplex.x[:nk]
    y = np.where(np.abs(y) <= FEASIBILITY_TOL, 0.0, y)
    y = np.where(np.abs(y - width) <= FEASIBILITY_TOL, width, y)
    values = np.zeros(n)
    values[kept] = np.minimum(np.maximum(col_scale[kept] * y, 0.0), upper[kept])
    duals = gamma * sign * row_scale * simplex.pi
    structural = simplex.kcols < nk
    basis = Basis(simplex.krows[structural], kept[simplex.kcols[structural]],
                  kept[np.flatnonzero(simplex.status[:nk] == _AT_UPPER)])
    return LpSolution(OPTIMAL, float(problem.objective @ values), values, duals, stats, basis=basis)


def _crash(row_of, col_of, val, m, n, b, ub, rel, start, stats):
    """The caller's starting basis, installed, or None when it is unusable:
    an index out of range, an == row left to its slack (it has none to fall
    back on), a variable at an infinite upper bound, or a singular
    kernel."""
    rows = np.asarray(start.rows, dtype=np.int64)
    cols = np.asarray(start.columns, dtype=np.int64)
    upper = np.asarray(start.at_upper, dtype=np.int64)
    if rows.shape != cols.shape or ((rows < 0) | (rows >= m)).any() or ((cols < 0) | (cols >= n)).any():
        return None
    if ((upper < 0) | (upper >= n)).any() or not np.isfinite(ub[upper]).all():
        return None
    slack_basic = np.ones(m, dtype=bool)
    slack_basic[rows] = False
    if (rel[slack_basic] == EQ).any():
        return None
    simplex = _Simplex(row_of, col_of, val, m, n, b, ub, rel, stats)
    simplex.x[upper] = ub[upper]
    simplex.status[upper] = _AT_UPPER
    return simplex if simplex.install(cols, rows, check=True) else None


def _phase1(row_of, col_of, val, m, n, b, ub, rel, stats):
    """Minimise a sum of artificials from the slack basis.  One artificial
    column per row whose slack would start outside its bounds, basic in
    that row; afterwards the artificials are fixed at zero and never enter
    again.  Returns None when the problem is infeasible."""
    art_rows = np.flatnonzero((b < -FEASIBILITY_TOL) | ((rel == EQ) & (b > FEASIBILITY_TOL)))
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


class _KernelEntries:
    """The entries of the kernel columns (or rows) of a CSC (CSR) view
    ``ptr``, ``idx``, ``val``: one block per kernel position, in kernel
    order, each block in the order of the view.  Per entry ``idx`` holds
    its row (column), ``val`` its value and ``owner`` its kernel position;
    block p is entries ``self.ptr[p]:self.ptr[p + 1]``.  These are the arrays that
    ``_entries`` gives for the same kernel, so every product over them adds
    the same terms in the same order."""

    def __init__(self, ptr, idx, val, ids, capacity: int):
        self.view = (ptr, idx, val)
        pos, self.owner = _entries(ptr, ids)
        self.idx, self.val = idx[pos], val[pos]
        self.ptr = np.zeros(capacity + 1, dtype=np.int64)
        np.cumsum(ptr[ids + 1] - ptr[ids], out=self.ptr[1:len(ids) + 1])

    def _splice(self, p: int, stop: int, idx, val, lo: int, hi: int) -> None:
        """Block p becomes entries lo:hi of (idx, val), blocks p + 1 to
        stop - 1 follow it unchanged, and the blocks from ``stop`` on go."""
        ptr = self.ptr
        s, e, end = ptr[p], ptr[p + 1], ptr[stop]
        self.idx = np.concatenate((self.idx[:s], idx[lo:hi], self.idx[e:end]))
        self.val = np.concatenate((self.val[:s], val[lo:hi], self.val[e:end]))
        self.owner = np.concatenate((self.owner[:s], np.full(hi - lo, p), self.owner[e:end]))
        ptr[p + 1:stop + 1] += (hi - lo) - (e - s)

    def replace(self, p: int, k: int, j: int) -> None:
        """Block p of the k becomes line j of the view."""
        ptr, idx, val = self.view
        self._splice(p, k, idx, val, ptr[j], ptr[j + 1])

    def append(self, k: int, j: int) -> None:
        """Line j of the view becomes block k, after the k blocks."""
        self.ptr[k + 1] = self.ptr[k]
        self.replace(k, k + 1, j)

    def move_last(self, p: int, k: int) -> None:
        """The last of the k blocks moves into position p, whose block goes."""
        last = k - 1
        lo, hi = (self.ptr[last], self.ptr[k]) if p < last else (0, 0)
        self._splice(p, last, self.idx, self.val, lo, hi)


class _Simplex:
    """Bounded primal simplex over rows A y + s = b (A sparse, scaled),
    0 <= y <= ub and slacks s in [0, inf) on <= rows, [0, 0] on == rows.

    Variables 0..nx-1 are structural (artificials included) and nx + i is
    the slack of row i.  The basis is the kernel columns ``kcols`` (basic
    structurals, in kernel order), the kernel rows ``krows`` (rows whose
    slack is nonbasic, in kernel order) and the basic slacks of all other
    rows.  ``G`` is the inverse of the kernel A[krows][:, kcols]; its rows
    follow ``kcols`` and its columns ``krows``.

    ``install`` builds the bookkeeping (``_positions``): the kernel
    positions ``colpos`` and ``rowpos``, the basic list, ``slack_rows`` and
    the kernel entry lists ``kc`` and ``kr``.  Each basis change then keeps
    it current in place, in the order that a rebuild would give, so the
    products over it add the same terms in the same order.
    """

    def __init__(self, row_of, col_of, val, m, nx, b, ub_struct, rel, stats):
        self.m, self.nx = m, nx
        # the entries sorted by row, stably, serve as the CSR view and for
        # the whole-matrix products: each row keeps its entries in the
        # given order, and so does each column.  An LpProblem's entries are
        # in row order already; only phase 1's artificials come after them.
        if (row_of[1:] < row_of[:-1]).any():
            by_row = np.argsort(row_of, kind="stable")
            row_of, col_of, val = row_of[by_row], col_of[by_row], val[by_row]
        self.row_of, self.col_of, self.val = row_of, col_of, val
        self.row_len = np.bincount(row_of, minlength=m)
        self.csr_ptr = np.concatenate(([0], np.cumsum(self.row_len)))
        by_col = np.argsort(self.col_of, kind="stable")
        self.csc_rows, self.csc_cols, self.csc_vals = self.row_of[by_col], self.col_of[by_col], self.val[by_col]
        self.csc_ptr = np.concatenate(([0], np.cumsum(np.bincount(col_of, minlength=nx))))
        self.b = b
        self.ub = np.concatenate([ub_struct, np.where(rel == EQ, 0.0, math.inf)])
        ncols = nx + m
        self.x = np.zeros(ncols)
        self.status = np.full(ncols, _AT_LOWER, dtype=np.int8)
        self.enterable = self.ub > 0        # a fixed variable can never improve
        self.weights = None                 # steepest-edge weights 1 + |B^-1 a_j|^2
        self.stats = stats
        self.max_iters = max(20000, 60 * (m + ncols))
        self.cost = None
        self.fresh = False  # G and x from a refresh, with no pivot or bound flip since
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
        """Kernel positions, basic list, slack rows and kernel entries, from
        scratch, in new arrays; ``_pivot`` keeps them current after."""
        k = len(self.kcols)
        self.colpos = np.full(self.nx, -1, dtype=np.int64)
        self.colpos[self.kcols] = np.arange(k)
        self.rowpos = np.full(self.m, -1, dtype=np.int64)
        self.rowpos[self.krows] = np.arange(k)
        slack_rows = np.flatnonzero(self.rowpos < 0)
        # basic is the kernel columns, then the basic slacks in row order;
        # kcols, krows and slack_rows are views of buffers as long as basic
        # (m entries, unless a start names a row twice and refresh refuses
        # it), so that a border grow or shrink moves no other entry
        self.basic = np.concatenate([self.kcols, self.nx + slack_rows])
        size = len(self.basic)
        self._krows = np.empty(size, dtype=np.int64)
        self._krows[:k] = self.krows
        self._slack = np.empty(size, dtype=np.int64)
        self._slack[k:] = slack_rows
        self._kernel_size(k)
        self.kc = _KernelEntries(self.csc_ptr, self.csc_rows, self.csc_vals, self.kcols, size)
        self.kr = _KernelEntries(self.csr_ptr, self.col_of, self.val, self.krows, size)

    def _kernel_size(self, k: int) -> None:
        """Point kcols, krows and slack_rows at a kernel of k."""
        self.kcols = self.basic[:k]
        self.krows = self._krows[:k]
        self.slack_rows = self._slack[k:]

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
        self._values()
        return True

    def _values(self) -> None:
        """The basic values from the nonbasic ones through G, and the
        reduced costs once a cost vector is set.  A kernel row's slack is
        nonzero only at a temporary bound of ``dual_run``."""
        x = self.x
        xs = x[: self.nx].copy()
        xs[self.kcols] = 0.0
        rest = self.b - _sum_by(self.row_of, self.val * xs[self.col_of], self.m)
        x[self.kcols] = self.G @ (rest[self.krows] - x[self.nx + self.krows])
        xs[self.kcols] = x[self.kcols]
        slack = self.b - _sum_by(self.row_of, self.val * xs[self.col_of], self.m)
        x[self.nx + self.slack_rows] = slack[self.slack_rows]
        if self.cost is not None:
            self._reduced_costs()
        self.fresh = True

    def feasible(self) -> bool:
        """Whether every basic value is within its bounds, to FEASIBILITY_TOL."""
        xb = self.x[self.basic]
        return not ((xb < -FEASIBILITY_TOL).any() or (xb > self.ub[self.basic] + FEASIBILITY_TOL).any())

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
        if self.fresh:
            # a re-inversion would give G and x the same bits again
            self._reduced_costs()
        else:
            self.refresh()
        self.weights = None
        stats = self.stats
        stall = 0
        use_bland = False
        since_refresh = 0
        for _ in range(self.max_iters):
            d, status = self.d, self.status
            viol = np.where(status == _AT_LOWER, -d, d)
            # d is exactly 0.0 on the basic columns, so none of them is a candidate
            cand = (viol > REDUCED_COST_TOL) & enterable
            if not cand.any():
                if self.fresh:
                    return OPTIMAL
                # certify against values and reduced costs from a fresh kernel
                self.refresh()
                since_refresh = 0
                continue
            self.fresh = False
            if self.weights is None:
                # exact weights for the main runs; a run restricted to a face
                # (few pivots, if any) prices by the plain violation
                self.weights = self._edge_weights() if face is None else np.ones(len(d))
            if use_bland:
                q = int(cand.argmax())  # the first candidate
            else:
                scores = np.where(cand, viol * viol / self.weights, -np.inf)
                q = int(scores.argmax())  # argmax takes the lowest index on ties
            # q's bound interval is as long as its upper bound
            step, pivoted = self._step(q, 1.0 if status[q] == _AT_LOWER else -1.0, self.ub[q], use_bland)
            if not pivoted:
                if not math.isfinite(step):
                    return UNBOUNDED
                if step > _DEGEN_TOL:
                    stall = 0
                    use_bland = False
                continue
            if step <= _DEGEN_TOL:
                stall += 1
                if stall > _STALL_LIMIT and not use_bland:
                    use_bland = True
                    stats.bland_switches += 1
            else:
                stall = 0
                use_bland = False
            since_refresh += 1
            if since_refresh >= _REINVERT:
                self.refresh()
                since_refresh = 0
        raise RuntimeError("simplex iteration limit exceeded")

    def _step(self, q: int, direction: float, flip: float, use_bland: bool) -> tuple:
        """One primal step: nonbasic q moves by ``direction`` until a basic
        variable reaches a bound and leaves in its place (Bland's rule or the
        largest pivot among near ties), or, if that comes first, to its
        other bound ``flip`` away, the basis unchanged.  Returns the step
        and whether the basis changed; an infinite step means nothing stops
        q."""
        alpha = self._column(q)
        eff = direction * alpha

        # bounded ratio test over the basic variables that move
        basic, status = self.basic, self.status
        size = np.abs(eff)
        moving = (size > _PIVOT_TOL * max(1.0, float(size.max(initial=0.0)))).nonzero()[0]
        size = size[moving]
        falls = eff[moving] > 0  # else the basic variable rises toward its upper bound
        on_move = basic[moving]
        xb = self.x[on_move]
        limits = np.where(falls, xb, self.ub[on_move] - xb) / size
        np.maximum(limits, 0.0, out=limits)
        step = float(limits.min(initial=np.inf))
        if flip <= step and math.isfinite(flip):
            # bound flip: q jumps to its opposite bound, basis unchanged
            self.x[basic] -= eff * flip
            self.x[q] = flip if direction > 0 else 0.0
            status[q] = _AT_UPPER if direction > 0 else _AT_LOWER
            self.stats.bound_flips += 1
            return flip, False
        if not math.isfinite(step):
            return step, False
        ties = (limits <= step + _DEGEN_TOL).nonzero()[0]
        if use_bland:
            at = int(ties[on_move[ties].argmin()])  # lowest variable index
        else:
            at = int(ties[size[ties].argmax()])  # largest pivot
        step = float(limits[at])
        r = int(moving[at])
        leaving = int(basic[r])
        hit_upper = not falls[at]
        self.x[basic] -= eff * step
        self.x[q] += direction * step
        self.x[leaving] = self.ub[leaving] if hit_upper else 0.0
        status[leaving] = _AT_UPPER if hit_upper else _AT_LOWER
        status[q] = _BASIC
        self._pivot(q, r, alpha, leaving)
        self.stats.pivots += 1
        return step, True

    def dual_run(self, cost: np.ndarray) -> bool:
        """Make the installed basis primal feasible with the dual simplex,
        for ``cost``; see the module docstring.  Returns False, for phase 1
        to take over, when no column can enter (the problem with the
        temporary bounds is infeasible), when a column leaving a temporary
        bound meets no basic bound (the problem is unbounded), or at the
        iteration limit."""
        self.cost = cost
        self._reduced_costs()
        d, x, ub, status, stats = self.d, self.x, self.ub, self.status, self.stats
        # the basic reduced costs are 0.0, so only nonbasic columns are wrong
        wrong = np.flatnonzero((np.where(status == _AT_UPPER, d, -d) > REDUCED_COST_TOL) & self.enterable)
        artificial = wrong[np.isinf(ub[wrong])]
        ub[artificial] = _ARTIFICIAL_BOUND
        status[wrong] ^= _AT_UPPER
        x[wrong] = np.where(status[wrong] == _AT_UPPER, ub[wrong], 0.0)
        stats.start_flips += len(wrong) - len(artificial)
        stats.artificial_bounds += len(artificial)
        if len(wrong):
            self._values()
        beta = self._row_weights()
        # per column: 1 at its lower bound, -1 at its upper, 0 basic or fixed
        sign = np.where(status == _AT_UPPER, -1.0, 1.0) * (self.enterable & (status != _BASIC))
        since_refresh = 0
        for _ in range(self.max_iters):
            basic, d = self.basic, self.d
            xb = x[basic]
            gap = np.maximum(-xb, xb - ub[basic])
            if gap.max() <= FEASIBILITY_TOL:
                if self.fresh:
                    break
                self.refresh()
                since_refresh = 0
                continue
            # dual steepest edge: the largest infeasibility over its row's weight
            r = int(np.where(gap > FEASIBILITY_TOL, gap * gap / beta[basic], 0.0).argmax())
            self.fresh = False
            leaving = int(basic[r])
            bound = 0.0 if xb[r] < 0.0 else ub[leaving]
            # the entering column moves the leaving value toward its bound,
            # and its reduced cost reaches zero first
            row = self._pivot_row(r)
            alpha_r = row[0]
            push = alpha_r * sign
            if xb[r] < 0.0:
                np.negative(push, out=push)
            cand = np.flatnonzero(push > _PIVOT_TOL * max(1.0, float(np.abs(alpha_r).max())))
            if not cand.size:
                return False
            ratios = np.maximum(sign[cand] * d[cand], 0.0) / push[cand]
            # bound-flipping ratio test: boxed candidates are passed in ratio
            # order, each flipped to its other bound, while the leaving value
            # still falls short of its bound
            order = np.argsort(ratios, kind="stable")
            by_ratio = cand[order]
            short = abs(xb[r] - bound) - np.cumsum(push[by_ratio] * ub[by_ratio]) > 0.0
            passed = int(short.argmin())
            if short[passed]:
                return False
            at = order[passed:]
            ties = cand[at[ratios[at] <= ratios[order[passed]] + _DEGEN_TOL]]
            q = int(ties[np.abs(alpha_r[ties]).argmax()])  # largest pivot
            if passed:
                self._flip(by_ratio[:passed])
                sign[by_ratio[:passed]] *= -1.0
            alpha = self._column(q)
            # Forrest-Goldfarb update of the weights, with tau = B^-1 rho_r
            rho = alpha_r[self.nx:]
            beta_r = float(rho @ rho)
            ratio = alpha / alpha[r]
            w = beta[basic]
            w += ratio * (ratio * beta_r - 2.0 * self._ftran(rho.copy()))
            beta[basic] = np.maximum(w, 1e-12, out=w)
            beta[q] = max(beta_r / (alpha[r] * alpha[r]), 1e-12)
            step = (x[leaving] - bound) / alpha[r]
            x[basic] -= alpha * step
            x[q] += step
            x[leaving] = bound
            status[leaving] = _AT_LOWER if bound == 0.0 else _AT_UPPER
            status[q] = _BASIC
            sign[q] = 0.0
            if self.enterable[leaving]:
                sign[leaving] = 1.0 if bound == 0.0 else -1.0
            self._pivot(q, r, alpha, leaving, row)
            stats.dual_pivots += 1
            since_refresh += 1
            if since_refresh >= _REINVERT:
                self.refresh()
                since_refresh = 0
        else:
            return False
        # the temporary bounds go; a column still at one steps off it, down
        # unless its reduced cost asks for more
        ub[artificial] = math.inf
        for j in artificial[status[artificial] == _AT_UPPER]:
            self.fresh = False
            up = self.d[j] < -REDUCED_COST_TOL
            step, _ = self._step(int(j), 1.0 if up else -1.0, math.inf if up else x[j], False)
            if not math.isfinite(step):
                return False
        return True

    def _edge_weights(self) -> np.ndarray:
        """Steepest-edge weights 1 + |B^-1 a_j|^2 of every nonbasic column,
        computed exactly in column blocks of at most ``_BLOCK`` entries."""
        m, nx, G = self.m, self.nx, self.G
        # entries of the kernel columns, grouped by row
        in_kernel = self.colpos[self.col_of] >= 0
        k_rows = self.row_of[in_kernel]
        k_pos = self.colpos[self.col_of[in_kernel]]
        k_vals = self.val[in_kernel]
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
        kc = self.kc
        col -= _sum_by(kc.idx, kc.val * alpha_k[kc.owner], m)
        return np.concatenate([alpha_k, col[self.slack_rows]])

    def _flip(self, cols: np.ndarray) -> None:
        """Move the nonbasic ``cols`` to their other bounds, and the basic
        values with them."""
        x, status, m, nx = self.x, self.status, self.m, self.nx
        move = np.where(status[cols] == _AT_UPPER, -self.ub[cols], self.ub[cols])
        x[cols] += move
        status[cols] ^= _AT_UPPER
        self.stats.bound_flips += len(cols)
        # B^-1 of the moved columns' sum, as _column takes it
        shown = cols < nx
        pos, owner = _entries(self.csc_ptr, cols[shown])
        col = _sum_by(self.csc_rows[pos], self.csc_vals[pos] * move[shown][owner], m)
        col[cols[~shown] - nx] += move[~shown]
        x[self.basic] -= self._ftran(col)

    def _ftran(self, col: np.ndarray) -> np.ndarray:
        """B^-1 col over the basic variables, in ``self.basic`` order, for
        a dense ``col`` over the rows, which it overwrites."""
        alpha_k = self.G @ col[self.krows]
        kc = self.kc
        col -= _sum_by(kc.idx, kc.val * alpha_k[kc.owner], self.m)
        return np.concatenate([alpha_k, col[self.slack_rows]])

    def _row_weights(self) -> np.ndarray:
        """|e_p B^-1|^2 of each basic variable's row p of B^-1, by variable:
        |G_p|^2 for a kernel column, 1 + |A_iK G|^2 for the slack of row i
        (A_iK its entries in the kernel columns); 1.0 for the others."""
        m, kc, slack_rows = self.m, self.kc, self.slack_rows
        at = np.full(m, -1)
        at[slack_rows] = np.arange(len(slack_rows))
        out = at[kc.idx] >= 0
        spill = np.zeros((len(slack_rows), len(self.kcols)))
        spill[at[kc.idx[out]], kc.owner[out]] = kc.val[out]
        spill = spill @ self.G
        beta = np.ones(self.nx + m)
        beta[self.kcols] = (self.G * self.G).sum(axis=1)
        beta[self.nx + slack_rows] += (spill * spill).sum(axis=1)
        return beta

    def _pivot_row(self, r: int) -> tuple:
        """Row r of B^-1 (rho, over the rows) times every column, and for a
        slack row the kernel part z of that row of B^-1, negated (None for
        a kernel row)."""
        m, nx, G = self.m, self.nx, self.G
        k = len(self.kcols)
        rho = np.zeros(m)
        if r < k:
            z = None
            rho_k = G[r]
        else:
            i = int(self.slack_rows[r - k])
            lo, hi = self.csr_ptr[i], self.csr_ptr[i + 1]
            cols_i, vals_i = self.col_of[lo:hi], self.val[lo:hi]
            pos = self.colpos[cols_i]
            inside = pos >= 0
            z = vals_i[inside] @ G[pos[inside]]
            rho_k = -z
            rho[i] = 1.0
        kr = self.kr
        alpha_r = _sum_by(kr.idx, kr.val * rho_k[kr.owner], nx)
        if r >= k:
            alpha_r[cols_i] += vals_i
        rho[self.krows] = rho_k
        return np.concatenate([alpha_r, rho]), z

    def _pivot(self, q: int, r: int, alpha: np.ndarray, leaving: int, row: tuple | None = None) -> None:
        """Basis change: q enters in basis position r, where ``leaving``
        was; ``row`` is ``_pivot_row(r)`` when the caller has it.  Updates
        the reduced costs, the steepest-edge weights (when a run keeps
        them), the kernel inverse and the basis bookkeeping, the last in
        place of a rebuild."""
        m, nx, G = self.m, self.nx, self.G
        k = len(self.kcols)
        piv = alpha[r]
        alpha_r, z = self._pivot_row(r) if row is None else row
        if r >= k:
            i = int(self.slack_rows[r - k])
        theta = self.d[q] / piv
        self.d -= theta * alpha_r
        self.d[leaving] = -theta

        if self.weights is not None:
            # Goldfarb-Reid update of the steepest-edge weights, with
            # tau = B^-T alpha and gamma_q = 1 + |alpha|^2 taken fresh:
            # w += ratio (ratio gamma_q - 2 A'tau), then w >= 1 + ratio^2
            kc = self.kc
            tau = np.zeros(m)
            tau[self.slack_rows] = alpha[k:]
            spill = _sum_by(kc.owner, kc.val * tau[kc.idx], k)
            tau_k = (alpha[:k] - spill) @ G
            tau[self.krows] = tau_k
            a_tau = np.concatenate([_sum_by(self.col_of, self.val * np.repeat(tau, self.row_len), nx), tau])
            gamma_q = 1.0 + float(alpha @ alpha)
            ratio = alpha_r / piv
            w = self.weights
            a_tau *= 2.0
            change = ratio * gamma_q
            change -= a_tau
            change *= ratio
            w += change
            np.multiply(ratio, ratio, out=change)
            change += 1.0
            np.maximum(w, change, out=w)
            w[leaving] = max(gamma_q / (piv * piv), 1.0)

        # the kernel inverse, then the kernel, the basic list and the
        # kernel entries in the order that _positions() would give them
        alpha_k = alpha[:k]
        basic, colpos, rowpos, kc, kr = self.basic, self.colpos, self.rowpos, self.kc, self.kr
        if q < nx and r < k:
            # column replace: q takes kernel column r
            g = G[r] / piv
            G -= alpha_k[:, None] * g
            G[r] = g
            basic[r] = q
            colpos[leaving] = -1
            colpos[q] = r
            kc.replace(r, k, q)
        elif q < nx:
            # border grow: row i joins the kernel with column q
            if self._buffer.shape[0] <= k:
                grown = np.empty((min(self.m, 2 * k + 16),) * 2)
                grown[:k, :k] = G
                self._buffer, G = grown, grown[:k, :k]
            buf = self._buffer
            G += alpha_k[:, None] * (z / piv)
            buf[:k, k] = -alpha_k / piv
            buf[k, :k] = -z / piv
            buf[k, k] = 1.0 / piv
            self.G = buf[: k + 1, : k + 1]
            # the basic slacks before row i move up one place
            basic[k + 1:r + 1] = basic[k:r]
            self._slack[k + 1:r + 1] = self._slack[k:r]
            basic[k] = q
            self._krows[k] = i
            colpos[q] = k
            rowpos[i] = k
            kc.append(k, q)
            kr.append(k, i)
            self._kernel_size(k + 1)
        else:
            h = q - nx
            a = int(rowpos[h])
            slack = self._slack
            # the basis position of h's slack among the basic slacks, which
            # are in row order
            at = k + int(self.slack_rows.searchsorted(h))
            if r < k:
                # border shrink: q's row h and column r leave the kernel;
                # the last kernel row and column move into their places
                G -= G[:, a, None] * (G[r] / piv)
                last = k - 1
                G[r] = G[last]
                G[:, a] = G[:, last]
                self.G = self._buffer[:last, :last]
                basic[r] = basic[last]
                self._krows[a] = self._krows[last]
                colpos[basic[r]] = r
                colpos[leaving] = -1
                rowpos[self._krows[a]] = a
                rowpos[h] = -1
                # the basic slacks before h move down one place
                basic[last:at - 1] = basic[k:at]
                slack[last:at - 1] = slack[k:at]
                basic[at - 1] = q
                slack[at - 1] = h
                kc.move_last(r, k)
                kr.move_last(a, k)
                self._kernel_size(last)
            else:
                # row replace: row i takes the kernel row of q's row h
                z_a = z.copy()
                z_a[a] -= 1.0
                G -= G[:, a, None] * z_a / z[a]
                self._krows[a] = i
                rowpos[i] = a
                rowpos[h] = -1
                # h's slack replaces row i's in basis position r, and
                # the basic slacks between them move one place
                if at > r:
                    basic[r:at - 1] = basic[r + 1:at]
                    slack[r:at - 1] = slack[r + 1:at]
                    at -= 1
                else:
                    basic[at + 1:r + 1] = basic[at:r]
                    slack[at + 1:r + 1] = slack[at:r]
                basic[at] = q
                slack[at] = h
                kr.replace(a, k, i)
        self.d[q] = 0.0
        self.d[basic] = 0.0
