"""Self-contained linear-program solver: dense two-phase primal simplex.

Supports variable bounds [lower, upper] with upper possibly infinite, and
<=, >=, == rows.  Pivot selection is deterministic (largest reduced-cost
violation, lowest index on ties); after a run of degenerate pivots the
solver falls back to Bland's lowest-index rule, which guarantees
termination, and returns to the fast rule once the objective moves again.
No external solver is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

FEASIBILITY_TOL = 1e-9
REDUCED_COST_TOL = 1e-9
_PIVOT_TOL = 1e-8       # smaller tableau entries are treated as zero noise
_DEGEN_TOL = 1e-9
_PHASE1_TOL = 1e-7
_STALL_LIMIT = 64
_REFRESH_EVERY = 128    # reduced costs recomputed from scratch this often

_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2

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
class LpSolution:
    status: str
    objective_value: float
    values: np.ndarray


class Violation(NamedTuple):
    kind: str        # "row", "lower" or "upper"
    index: int
    amount: float


@dataclass
class FeasibilityReport:
    ok: bool
    violations: list


def check_feasible(
    problem: LpProblem, point: Sequence[float], tol: float = FEASIBILITY_TOL
) -> FeasibilityReport:
    """Check a point against all rows and bounds; list violations with slack."""
    x = np.asarray(point, dtype=float)
    if x.shape != (problem.num_vars,):
        raise ValueError("point length does not match num_vars")
    violations = []
    for idx, (coeffs, relation, rhs) in enumerate(problem.constraints):
        lhs = sum(c * x[j] for j, c in coeffs.items())
        gap = 0.0
        if relation == "<=":
            gap = lhs - rhs
        elif relation == ">=":
            gap = rhs - lhs
        else:
            gap = abs(lhs - rhs)
        if gap > tol:
            violations.append(Violation("row", idx, gap))
    for j, (lo, hi) in enumerate(problem.bounds):
        if x[j] < lo - tol:
            violations.append(Violation("lower", j, lo - x[j]))
        if x[j] > hi + tol:
            violations.append(Violation("upper", j, x[j] - hi))
    return FeasibilityReport(ok=not violations, violations=violations)


class _Tableau:
    """Internal dense tableau for the bounded-variable simplex."""

    def __init__(self, T, xb, basis, status, ub, n_struct, art_cols):
        self.T = T                  # (m, ncols) rows of B^-1 A
        self.xb = xb                # (m,) values of basic variables
        self.basis = basis          # (m,) variable index per row
        self.status = status        # (ncols,) _AT_LOWER/_AT_UPPER/_BASIC
        self.ub = ub                # (ncols,) shifted upper bounds
        self.n_struct = n_struct
        self.art_cols = art_cols    # indices of artificial columns
        self.enterable = np.ones(T.shape[1], dtype=bool)

    @property
    def m(self) -> int:
        return self.T.shape[0]


def _pivot(T: np.ndarray, zrow: np.ndarray | None, r: int, j: int) -> None:
    """Make column j the unit vector of row r (in place), reduced costs too."""
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    # rank-1 elimination of column j everywhere but the pivot row
    T -= np.outer(col, T[r])
    if zrow is not None:
        zrow -= zrow[j] * T[r]
    T[:, j] = 0.0
    T[r, j] = 1.0


def _refresh_zrow(tab: _Tableau, cost: np.ndarray) -> np.ndarray:
    """Reduced costs recomputed from scratch (kills accumulated drift)."""
    zrow = cost.copy()
    basic_cost = cost[tab.basis]
    nz = np.flatnonzero(basic_cost)
    if nz.size:
        zrow -= basic_cost[nz] @ tab.T[nz]
    zrow[tab.basis] = 0.0
    return zrow


def _iterate(tab: _Tableau, cost: np.ndarray, max_iters: int) -> str:
    """Run simplex pivots until optimal or unbounded.  Returns a status.

    Pricing is steepest-edge on the explicit tableau (violation squared
    over column norm), which keeps iteration counts low; a run of
    degenerate pivots switches to Bland's lowest-index rule until the
    objective moves again, so the loop always terminates.
    """
    zrow = _refresh_zrow(tab, cost)
    stall = 0
    use_bland = False
    since_refresh = 0
    certified = True
    for _ in range(max_iters):
        viol = np.where(
            tab.status == _AT_LOWER, -zrow, np.where(tab.status == _AT_UPPER, zrow, 0.0)
        )
        cand = (viol > REDUCED_COST_TOL) & tab.enterable & (tab.status != _BASIC)
        if not cand.any():
            if certified:
                return OPTIMAL
            # certify against reduced costs recomputed from scratch
            zrow = _refresh_zrow(tab, cost)
            certified = True
            continue
        certified = False
        if use_bland:
            j = int(np.flatnonzero(cand)[0])
        else:
            gamma = 1.0 + np.einsum("ij,ij->j", tab.T, tab.T)
            scores = np.where(cand, viol * viol / gamma, -np.inf)
            j = int(np.argmax(scores))  # argmax takes the lowest index on ties
        direction = 1.0 if tab.status[j] == _AT_LOWER else -1.0
        eff = direction * tab.T[:, j]

        ub_basic = tab.ub[tab.basis]
        with np.errstate(divide="ignore", invalid="ignore"):
            down = np.where(eff > _PIVOT_TOL, tab.xb / eff, np.inf)
            up = np.where(eff < -_PIVOT_TOL, (ub_basic - tab.xb) / (-eff), np.inf)
        down = np.where(down < 0, 0.0, down)
        up = np.where(up < 0, 0.0, up)
        limits = np.minimum(down, up)
        r = int(np.argmin(limits))
        step = limits[r]
        flip = tab.ub[j]  # length of j's bound interval
        if flip <= step and math.isfinite(flip):
            # bound flip: j jumps to its opposite bound, basis unchanged
            tab.xb -= eff * flip
            tab.status[j] = _AT_UPPER if tab.status[j] == _AT_LOWER else _AT_LOWER
            if flip > _DEGEN_TOL:
                stall = 0
                use_bland = False
            continue
        if not math.isfinite(step):
            return UNBOUNDED
        if step <= _DEGEN_TOL:
            stall += 1
            if stall > _STALL_LIMIT:
                use_bland = True
        else:
            stall = 0
            use_bland = False
        # deterministic leaving choice: smallest ratio, then lowest basis var
        ties = np.flatnonzero(limits <= step + _DEGEN_TOL)
        r = int(ties[np.argmin(tab.basis[ties])])
        leaving = tab.basis[r]
        hit_upper = up[r] <= down[r]
        tab.xb -= eff * step
        entering_value = step if direction > 0 else tab.ub[j] - step
        _pivot(tab.T, zrow, r, j)
        tab.xb[r] = entering_value
        tab.basis[r] = j
        tab.status[j] = _BASIC
        tab.status[leaving] = _AT_UPPER if hit_upper else _AT_LOWER
        if leaving in tab.art_cols:
            tab.enterable[leaving] = False
        since_refresh += 1
        if since_refresh >= _REFRESH_EVERY:
            zrow = _refresh_zrow(tab, cost)
            since_refresh = 0
            certified = True
    raise RuntimeError("simplex iteration limit exceeded")


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
    sol = _solve_once(problem, basis_hint, upper_start)
    if sol.status != OPTIMAL:
        return sol
    scale = max(1.0, *(abs(rhs) for _, _, rhs in problem.constraints)) if problem.constraints else 1.0
    if check_feasible(problem, sol.values, tol=1e-6 * scale).ok:
        return sol
    if basis_hint is not None:
        sol = _solve_once(problem, None, None)
        if sol.status != OPTIMAL:
            return sol
        if check_feasible(problem, sol.values, tol=1e-6 * scale).ok:
            return sol
    raise RuntimeError("simplex returned an out-of-tolerance point; problem is badly scaled")


def _solve_once(
    problem: LpProblem,
    basis_hint: Sequence[int] | None = None,
    upper_start: Sequence[int] | None = None,
) -> LpSolution:
    n = problem.num_vars
    m = len(problem.constraints)
    lower = np.array([b[0] for b in problem.bounds])
    upper = np.array([b[1] for b in problem.bounds])

    A = np.zeros((m, n))
    b = np.zeros(m)
    rels = []
    for r, (coeffs, relation, rhs) in enumerate(problem.constraints):
        for j, c in coeffs.items():
            A[r, j] += c
        b[r] = rhs
        rels.append(relation)

    # shift variables to start at zero: x = lower + y, 0 <= y <= ub
    b = b - A @ lower
    ub_struct = upper - lower

    # normalize rows so every rhs is nonnegative
    for r in range(m):
        if b[r] < 0:
            A[r] *= -1
            b[r] *= -1
            if rels[r] == "<=":
                rels[r] = ">="
            elif rels[r] == ">=":
                rels[r] = "<="
    # a >= row with zero rhs is just a flipped <= row
    for r in range(m):
        if rels[r] == ">=" and b[r] == 0:
            A[r] *= -1
            rels[r] = "<="

    tab = None
    if basis_hint is not None:
        tab = _crash_tableau(A, b, rels, ub_struct, basis_hint, upper_start)

    if tab is None:
        tab = _phase1_tableau(A, b, rels, ub_struct)
    max_iters = max(20000, 60 * (m + tab.T.shape[1]))
    if tab.art_cols:  # only the phase-1 tableau has artificials
        # phase 1: minimize the sum of artificials
        c1 = np.zeros(tab.T.shape[1])
        c1[list(tab.art_cols)] = 1.0
        outcome = _iterate(tab, c1, max_iters)
        if outcome == UNBOUNDED:
            raise RuntimeError("phase-1 objective cannot be unbounded")
        infeas = sum(tab.xb[r] for r in range(tab.m) if tab.basis[r] in tab.art_cols)
        if infeas > _PHASE1_TOL * max(1.0, abs(b).max() if m else 1.0):
            return LpSolution(INFEASIBLE, math.nan, np.full(n, math.nan))
        _evict_artificials(tab)

    # phase 2: the real objective over the feasible tableau
    c2 = np.zeros(tab.T.shape[1])
    c2[:n] = problem.objective
    for j in tab.art_cols:
        tab.ub[j] = 0.0
        tab.enterable[j] = False
    outcome = _iterate(tab, c2, max_iters)
    if outcome == UNBOUNDED:
        return LpSolution(UNBOUNDED, -math.inf, np.full(n, math.nan))

    values = np.where(tab.status[:n] == _AT_UPPER, tab.ub[:n], 0.0)
    for r in range(tab.m):
        if tab.basis[r] < n:
            values[tab.basis[r]] = tab.xb[r]
    values = lower + values
    # snap round-off that drifted just past a bound
    values = np.minimum(np.maximum(values, lower), np.where(np.isfinite(upper), upper, values))
    objective = float(problem.objective @ values)
    return LpSolution(OPTIMAL, objective, values)


def _columns(A, rels, ub_struct, artificials: bool):
    """Tableau columns: the structural ones, then one slack per inequality
    row (+1 on <=, -1 on >=), then, for phase 1, one artificial per >= and
    == row.  Returns the matrix, the shifted upper bounds and the slack and
    artificial column of each row that has one."""
    m, n = A.shape
    slack_rows = [r for r in range(m) if rels[r] != "=="]
    art_rows = [r for r in range(m) if rels[r] != "<="] if artificials else []
    slack_of = {r: n + i for i, r in enumerate(slack_rows)}
    art_of = {r: n + len(slack_rows) + i for i, r in enumerate(art_rows)}
    ncols = n + len(slack_rows) + len(art_rows)
    T = np.zeros((m, ncols))
    T[:, :n] = A
    for r, s in slack_of.items():
        T[r, s] = 1.0 if rels[r] == "<=" else -1.0
    for r, a in art_of.items():
        T[r, a] = 1.0
    ub = np.full(ncols, math.inf)
    ub[:n] = ub_struct
    return T, ub, slack_of, art_of


def _phase1_tableau(A, b, rels, ub_struct) -> _Tableau:
    """All-slack/artificial starting tableau for the two-phase path."""
    m, n = A.shape
    T, ub, slack_of, art_of = _columns(A, rels, ub_struct, artificials=True)
    basis = np.array([slack_of[r] if rels[r] == "<=" else art_of[r] for r in range(m)], dtype=int)
    status = np.full(T.shape[1], _AT_LOWER, dtype=np.int8)
    status[basis] = _BASIC
    return _Tableau(T, b.copy(), basis, status, ub, n, set(art_of.values()))


def _crash_tableau(A, b, rels, ub_struct, basis_hint, upper_start=None) -> _Tableau | None:
    """Install a caller-supplied starting basis; None when it is unusable.

    The hint must name a variable for every == row (there is no slack to
    fall back on) and the resulting basic values must respect their
    bounds, otherwise the caller reverts to the two-phase path.
    """
    m, n = A.shape
    if len(basis_hint) != m:
        return None
    T, ub, slack_of, _ = _columns(A, rels, ub_struct, artificials=False)
    basis = np.full(m, -1, dtype=int)
    xb = b.copy()
    for r in range(m):
        h = basis_hint[r]
        if h is None or h < 0:
            if r not in slack_of:
                return None  # == row with no hinted variable
            continue
        if not 0 <= h < n:
            return None
    hinted = {h for h in basis_hint if h is not None and h >= 0}
    at_upper = sorted(set(upper_start or ()))
    for j in at_upper:
        if not 0 <= j < n or not math.isfinite(ub[j]) or j in hinted:
            return None
        xb -= T[:, j] * ub[j]
    # install slack basics first (cheap), then pivot the hinted columns in
    for r in range(m):
        h = basis_hint[r]
        if h is None or h < 0:
            s = slack_of[r]
            if T[r, s] < 0:  # surplus: normalize the row so the basis entry is +1
                T[r] *= -1.0
                xb[r] *= -1.0
            basis[r] = s
    for r in range(m):
        h = basis_hint[r]
        if h is None or h < 0:
            continue
        if abs(T[r, h]) <= _PIVOT_TOL:
            return None
        # the basic values follow the same elimination, before the matrix does
        xb[r] /= T[r, h]
        col = T[:, h].copy()
        col[r] = 0.0
        xb -= col * xb[r]
        _pivot(T, None, r, h)
        basis[r] = h
    if len(set(basis.tolist())) != m:
        return None
    ub_basic = ub[basis]
    if (xb < -FEASIBILITY_TOL).any() or (xb > ub_basic + FEASIBILITY_TOL).any():
        return None
    status = np.full(T.shape[1], _AT_LOWER, dtype=np.int8)
    if at_upper:
        status[at_upper] = _AT_UPPER
    status[basis] = _BASIC
    return _Tableau(T, np.maximum(xb, 0.0), basis, status, ub, n, set())


def _evict_artificials(tab: _Tableau) -> None:
    """Pivot zero-valued artificials out of the basis; drop redundant rows."""
    drop = []
    for r in range(tab.m):
        v = tab.basis[r]
        if v not in tab.art_cols:
            continue
        row = tab.T[r]
        choices = np.flatnonzero(np.abs(row) > _PIVOT_TOL)
        choices = [j for j in choices if j not in tab.art_cols]
        if choices:
            j = max(choices, key=lambda jj: (abs(row[jj]), -jj))
            old_status = tab.status[j]
            entering_value = tab.ub[j] if old_status == _AT_UPPER else 0.0
            _pivot(tab.T, None, r, int(j))
            tab.status[v] = _AT_LOWER
            tab.status[j] = _BASIC
            tab.basis[r] = int(j)
            tab.xb[r] = entering_value
        else:
            drop.append(r)  # row is redundant after elimination
    if drop:
        keep = np.setdiff1d(np.arange(tab.m), drop)
        tab.T = tab.T[keep]
        tab.xb = tab.xb[keep]
        tab.basis = tab.basis[keep]
