"""Two-phase dense simplex for small linear programs.

Variables carry box bounds that are handled implicitly: a nonbasic variable
may rest at either of its bounds, so the tableau keeps one row per
functional constraint no matter how many variables are boxed.

Pricing takes the improving column with the largest reduced cost (Dantzig's
rule; at the upper bound the reduced cost counts negated), ties going to
the lowest index. Largest-coefficient pricing can cycle on degenerate
vertices, so after DEGENERATE_RUN consecutive degenerate pivots the entering
column is the lowest improving index instead (Bland's rule), until a pivot
moves the point or a variable flips bounds. Bland's rule cannot cycle, and
every non-degenerate step raises the objective, so the solve terminates.
The leaving row is the lowest basis index among rows within 1e-12 of the
smallest step. Every choice is a pure function of the tableau, so identical
inputs take the identical pivot path and return the identical point.

A solved tableau can be re-optimized instead of solved again. Changing
only the objective leaves the optimal basis primal feasible, so phase two
resumes from it; appending a `<=` row that the current point meets makes
its slack basic at the current value, so the larger program needs no phase
one either. region.py walks its boundary sweep this way and refines each
point on a copy with the keep-value row appended. Every solve, warm or
cold, counts its own pivots against its own stall cap, and every returned
point is re-checked against the program it belongs to. Warm starts keep
the determinism contract: the same inputs in the same order take the same
pivot path.

This is meant for the small dense programs produced elsewhere in the
package, not as a general solver.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericalFailure

TOL = 1e-9
VERIFY_TOL = 1e-8
# consecutive degenerate pivots after which pricing falls back to Bland's rule
DEGENERATE_RUN = 50
LE = "<="
EQ = "="

AT_LOWER, AT_UPPER, BASIC = 0, 1, 2


@dataclass
class LinearProgram:
    """maximize objective @ x subject to the constraints and box bounds.

    constraints: list of (coefficients, "<=" or "=", rhs).
    bounds: per-variable (lo, hi); lo must be finite, hi may be math.inf.
    """

    objective: np.ndarray
    constraints: list
    bounds: list

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.ndim != 1 or self.objective.shape[0] < 1:
            raise ContractViolation("objective must be a nonempty vector")
        n = self.objective.shape[0]
        rows = []
        for k, (coefs, rel, rhs) in enumerate(self.constraints):
            coefs = np.asarray(coefs, dtype=float)
            if coefs.shape != (n,):
                raise ContractViolation(f"constraint {k}: expected {n} coefficients")
            if rel not in (LE, EQ):
                raise ContractViolation(f"constraint {k}: relation must be '<=' or '='")
            rows.append((coefs, rel, float(rhs)))
        self.constraints = rows
        if len(self.bounds) != n:
            raise ContractViolation("bounds must cover every variable")
        boxed = []
        for j, (lo, hi) in enumerate(self.bounds):
            lo, hi = float(lo), float(hi)
            if not math.isfinite(lo):
                raise ContractViolation(f"variable {j}: lower bound must be finite")
            if hi < lo:
                raise ContractViolation(f"variable {j}: upper bound below lower bound")
            boxed.append((lo, hi))
        self.bounds = boxed

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]


@dataclass
class LpSolution:
    status: str                      # 'Optimal' | 'Infeasible' | 'Unbounded'
    value: float | None
    point: np.ndarray | None
    tight: tuple[int, ...] = ()
    pivots: int = 0                  # iterations of this solve, both phases if cold


class _Simplex:
    def __init__(self, lp: LinearProgram):
        # the program the tableau encodes: with_row extends the constraints
        # and reoptimize replaces the objective
        self.objective = lp.objective
        self.constraints = lp.constraints
        self.bounds = lp.bounds
        n = lp.num_vars
        m = len(lp.constraints)
        lo = np.array([b[0] for b in lp.bounds])
        hi = np.array([b[1] for b in lp.bounds])
        self.lo = lo
        n_le = sum(1 for _, rel, _ in lp.constraints if rel == LE)
        # column layout: structural, slacks for <= rows, artificials, then
        # the slacks of rows appended by with_row
        a = np.zeros((m, n + n_le + m))
        b = np.zeros(m)
        slack_of = {}
        s = n
        for i, (coefs, rel, rhs) in enumerate(lp.constraints):
            a[i, :n] = coefs
            b[i] = rhs - coefs @ lo
            if rel == LE:
                a[i, s] = 1.0
                slack_of[i] = s
                s += 1
        basis = []
        art_cols = []
        u = np.concatenate([hi - lo, np.full(n_le + m, math.inf)])
        for i in range(m):
            if b[i] < 0.0:
                a[i] *= -1.0
                b[i] = -b[i]
                flipped = True
            else:
                flipped = False
            if i in slack_of and not flipped:
                basis.append(slack_of[i])
            else:
                col = s
                a[i, col] = 1.0
                art_cols.append(col)
                basis.append(col)
                s += 1
        self.T = a[:, :s].copy()
        self.beta = b.copy()
        self.basis = np.array(basis, dtype=np.intp)
        self.N = s
        self.m_rows = m
        self.n_struct = n
        self.u = u[:s]
        self.is_artificial = np.zeros(s, dtype=bool)
        self.is_artificial[art_cols] = True
        self.fixed = self.u <= TOL
        self.status_arr = np.full(s, AT_LOWER, dtype=np.int8)
        for j in basis:
            self.status_arr[j] = BASIC
        self.pivots = 0
        self.cap = _stall_cap(m, s)

    def _reduced(self, c: np.ndarray) -> np.ndarray:
        if len(self.basis) == 0:
            return c.copy()
        return c - c[self.basis] @ self.T

    def _entering(self, red: np.ndarray, bland: bool) -> int:
        """Improving nonbasic column with the largest gain, or with the lowest
        index when bland is set; -1 at optimality. The gain is the reduced
        cost at the lower bound and its negation at the upper bound."""
        status = self.status_arr
        gain = np.where(status == AT_UPPER, -red, red)
        gain[(status == BASIC) | self.fixed] = 0.0
        if bland:
            improving = np.flatnonzero(gain > TOL)
            return int(improving[0]) if improving.size else -1
        e = int(np.argmax(gain))
        return e if gain[e] > TOL else -1

    def _ratio(self, e: int, direction: int):
        """Bounded ratio test for column e moving in direction. Returns
        (step, row, to_upper); row is -1 when no basic variable limits the
        step. Among rows within 1e-12 of the smallest step the lowest basis
        index leaves."""
        col = direction * self.T[:, e]
        beta = self.beta
        ub = self.u[self.basis]
        down = col > TOL
        up = (col < -TOL) & np.isfinite(ub)
        steps = np.full(self.m_rows, math.inf)
        steps[down] = np.maximum(beta[down], 0.0) / col[down]
        steps[up] = np.maximum(ub[up] - beta[up], 0.0) / -col[up]
        best_t = float(steps.min(initial=math.inf))
        if not math.isfinite(best_t):
            return math.inf, -1, False
        ties = np.flatnonzero(steps <= best_t + 1e-12)
        row = int(ties[np.argmin(self.basis[ties])])
        return float(steps[row]), row, bool(up[row])

    def _pivot(self, r: int, e: int, t: float, direction: int, to_upper: bool):
        T, beta = self.T, self.beta
        col = T[:, e].copy()
        beta -= direction * t * col
        np.maximum(beta, 0.0, out=beta)
        leaving = self.basis[r]
        piv = col[r]
        row = T[r] / piv
        # rows with a zero in the pivot column are unchanged by the update
        rows = np.flatnonzero(col)
        T[rows] -= np.outer(col[rows], row)
        T[r] = row
        beta[r] = t if direction > 0 else self.u[e] - t
        self.basis[r] = e
        self.status_arr[e] = BASIC
        self.status_arr[leaving] = AT_UPPER if to_upper else AT_LOWER
        if self.is_artificial[leaving]:
            self.fixed[leaving] = True
        return row

    def _iterate(self, c: np.ndarray, phase: int) -> str:
        red = self._reduced(c)
        degenerate = 0
        while True:
            e = self._entering(red, bland=degenerate >= DEGENERATE_RUN)
            if e < 0:
                return "optimal"
            if self.pivots >= self.cap:
                raise NumericalFailure(
                    "simplex stalled",
                    {"phase": phase, "pivots": self.pivots, "entering": int(e)})
            self.pivots += 1
            direction = 1 if self.status_arr[e] == AT_LOWER else -1
            best_t, best_row, to_upper = self._ratio(e, direction)
            own = self.u[e]
            if own <= best_t + 1e-12:
                if not math.isfinite(own):
                    if phase == 1:
                        raise NumericalFailure("phase one ray", {"entering": int(e)})
                    return "unbounded"
                # bound flip, no basis change
                self.beta -= direction * own * self.T[:, e]
                np.maximum(self.beta, 0.0, out=self.beta)
                self.status_arr[e] = AT_UPPER if direction > 0 else AT_LOWER
                degenerate = 0
                continue
            degenerate = degenerate + 1 if best_t <= TOL else 0
            row = self._pivot(best_row, e, best_t, direction, to_upper)
            red = red - red[e] * row

    def _drive_out_artificials(self):
        r = 0
        while r < self.m_rows:
            j = self.basis[r]
            if not self.is_artificial[j]:
                r += 1
                continue
            e = -1
            for cand in range(self.N):
                if self.is_artificial[cand] or self.status_arr[cand] == BASIC:
                    continue
                if abs(self.T[r, cand]) > TOL:
                    e = cand
                    break
            if e < 0:
                # row is redundant in the structural columns; drop it
                self.T = np.delete(self.T, r, axis=0)
                self.beta = np.delete(self.beta, r)
                self.basis = np.delete(self.basis, r)
                self.m_rows -= 1
                self.status_arr[j] = AT_LOWER
                self.fixed[j] = True
                continue
            direction = 1 if self.status_arr[e] == AT_LOWER else -1
            self._pivot(r, e, 0.0, direction, to_upper=False)
            r += 1

    def phase_one(self) -> bool:
        c1 = np.zeros(self.N)
        c1[self.is_artificial] = -1.0
        self._iterate(c1, phase=1)
        infeas = sum(self.beta[i] for i in range(self.m_rows)
                     if self.is_artificial[self.basis[i]])
        if infeas > TOL:
            return False
        self._drive_out_artificials()
        self.u[self.is_artificial] = 0.0
        self.fixed |= self.is_artificial
        return True

    def phase_two(self) -> str:
        c2 = np.zeros(self.N)
        c2[:self.n_struct] = self.objective
        return self._iterate(c2, phase=2)

    def extract(self) -> np.ndarray:
        x = np.where(self.status_arr == AT_UPPER,
                     np.where(np.isfinite(self.u), self.u, 0.0), 0.0)
        for i in range(self.m_rows):
            x[self.basis[i]] = self.beta[i]
        return self.lo + x[:self.n_struct]

    def _vector(self, v, what: str) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n_struct,):
            raise ContractViolation(f"{what}: expected {self.n_struct} coefficients")
        return v

    def _result(self, phase_two: str) -> LpSolution:
        if phase_two == "unbounded":
            return LpSolution("Unbounded", None, None, pivots=self.pivots)
        x = self.extract()
        tight = _verify(self.constraints, self.bounds, x)
        return LpSolution("Optimal", float(self.objective @ x), x, tight, self.pivots)

    def solve(self) -> LpSolution:
        """Both phases from the slack-and-artificial starting basis."""
        if not self.phase_one():
            return LpSolution("Infeasible", None, None, pivots=self.pivots)
        return self._result(self.phase_two())

    def reoptimize(self, objective) -> LpSolution:
        """Phase two under a new objective, resuming from the current basis.
        The constraints are unchanged, so a basis without artificials stays
        primal feasible and phase one is not needed."""
        if self.is_artificial[self.basis].any():
            raise ContractViolation("reoptimize needs a primal feasible basis")
        self.objective = self._vector(objective, "objective")
        self.pivots = 0
        return self._result(self.phase_two())

    def with_row(self, coefs, rhs: float) -> "_Simplex":
        """A copy with the row coefs @ x <= rhs appended. The current point
        must meet the row; its slack enters the basis at its current value,
        so the copy is primal feasible as it stands. The original tableau is
        left untouched."""
        coefs = self._vector(coefs, "appended row")
        n, m, s = self.n_struct, self.m_rows, self.N
        a = np.zeros(s + 1)
        a[:n] = coefs
        a[s] = 1.0
        T = np.zeros((m + 1, s + 1))
        T[:m, :s] = self.T
        # eliminate the basic columns so the new row is in tableau form
        T[m] = a - a[self.basis] @ T[:m]
        value = rhs - float(coefs @ self.extract())
        if value < -VERIFY_TOL:
            raise ContractViolation(f"the current point violates the appended row by {-value:.3g}")
        sx = copy.copy(self)
        sx.constraints = self.constraints + [(coefs, LE, float(rhs))]
        sx.T = T
        sx.beta = np.append(self.beta, max(value, 0.0))
        sx.basis = np.append(self.basis, s)
        sx.N = s + 1
        sx.m_rows = m + 1
        sx.u = np.append(self.u, math.inf)
        sx.is_artificial = np.append(self.is_artificial, False)
        sx.fixed = np.append(self.fixed, False)
        sx.status_arr = np.append(self.status_arr, np.int8(BASIC))
        sx.pivots = 0
        sx.cap = _stall_cap(m + 1, s + 1)
        return sx


def _verify(constraints, bounds, x: np.ndarray):
    """Re-check x against the constraints and bounds; returns the indices of
    the constraints tight at x."""
    tight = []
    for k, (coefs, rel, rhs) in enumerate(constraints):
        lhs = float(coefs @ x)
        if rel == LE and lhs > rhs + VERIFY_TOL:
            raise NumericalFailure("solution violates a constraint",
                                   {"constraint": k, "lhs": lhs, "rhs": rhs})
        if rel == EQ and abs(lhs - rhs) > VERIFY_TOL:
            raise NumericalFailure("solution violates an equality",
                                   {"constraint": k, "lhs": lhs, "rhs": rhs})
        if abs(lhs - rhs) <= VERIFY_TOL:
            tight.append(k)
    for j, (lo, hi) in enumerate(bounds):
        if x[j] < lo - VERIFY_TOL or x[j] > hi + VERIFY_TOL:
            raise NumericalFailure("solution violates a variable bound",
                                   {"variable": j, "value": float(x[j])})
    return tuple(tight)


def _stall_cap(rows: int, cols: int) -> int:
    """Pivots one solve may take before it counts as stalled."""
    return 1000 + 100 * (rows + cols)


def solve(lp: LinearProgram) -> LpSolution:
    """Solve to optimality from scratch. Identical inputs take the identical
    pivot path."""
    return _Simplex(lp).solve()
