"""Two-phase dense simplex for small linear programs.

Variables carry box bounds that are handled implicitly: a nonbasic variable
may rest at either of its bounds. The tableau keeps one row per functional
constraint, however many variables are boxed, for the whole solve. Phase one
ends one way: once the artificials sum to zero, each gets the bound zero. One
left basic on a redundant row stays at zero until a pivot through that row
moves it out, and a column whose bound is zero never enters.

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

This is meant for the small dense programs produced elsewhere in the
package, not as a general solver.
"""

from __future__ import annotations

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
    pivots: int = 0                  # iterations of this solve, both phases


class _Simplex:
    """The working state of one solve: the tableau T and basic values beta
    over the structural columns, one slack per <= row and one artificial
    per row that needs one, in that order and each in row order; basis
    names each row's basic column, and at_upper marks the nonbasic columns
    resting at their upper bound."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n = lp.num_vars
        lo = np.array([b[0] for b in lp.bounds])
        hi = np.array([b[1] for b in lp.bounds])
        beta = np.array([rhs - coefs @ lo for coefs, _, rhs in lp.constraints], dtype=float)
        # an equality row, or a row whose right-hand side is negative at the
        # lower bounds, starts on an artificial column
        art = [rel == EQ or r < 0.0 for (_, rel, _), r in zip(lp.constraints, beta)]
        n_le = sum(rel == LE for _, rel, _ in lp.constraints)
        T = np.zeros((len(beta), n + n_le + sum(art)))
        basis = np.empty(len(beta), dtype=np.intp)
        slack, extra = n, n + n_le
        for i, (coefs, rel, _) in enumerate(lp.constraints):
            T[i, :n] = coefs
            if rel == LE:
                T[i, slack] = 1.0
                basis[i] = slack
                slack += 1
            if beta[i] < 0.0:
                T[i] *= -1.0
                beta[i] = -beta[i]
            if art[i]:
                T[i, extra] = 1.0
                basis[i] = extra
                extra += 1
        self.T, self.beta, self.basis = T, beta, basis
        self.u = np.concatenate([hi - lo, np.full(T.shape[1] - n, math.inf)])
        self.is_artificial = np.arange(T.shape[1]) >= n + n_le
        self.at_upper = np.zeros(T.shape[1], dtype=bool)
        self.pivots = 0
        self.cap = 1000 + 100 * sum(T.shape)   # pivots before the solve counts as stalled

    def _reduced(self, c: np.ndarray) -> np.ndarray:
        return c - c[self.basis] @ self.T

    def _entering(self, red: np.ndarray, bland: bool) -> int:
        """Improving nonbasic column with the largest gain, or with the lowest
        index when bland is set; -1 at optimality. The gain is the reduced
        cost at the lower bound and its negation at the upper bound. A column
        whose bound is zero never enters."""
        gain = np.where(self.at_upper, -red, red)
        gain[self.basis] = 0.0
        gain[self.u <= TOL] = 0.0
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
        steps = np.full(len(beta), math.inf)
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
        self.at_upper[e] = False
        self.at_upper[leaving] = to_upper
        if self.is_artificial[leaving]:
            self.u[leaving] = 0.0
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
            direction = -1 if self.at_upper[e] else 1
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
                self.at_upper[e] = direction > 0
                degenerate = 0
                continue
            degenerate = degenerate + 1 if best_t <= TOL else 0
            row = self._pivot(best_row, e, best_t, direction, to_upper)
            red = red - red[e] * row

    def phase_one(self) -> bool:
        c1 = np.zeros(len(self.u))
        c1[self.is_artificial] = -1.0
        self._iterate(c1, phase=1)
        if self.beta[self.is_artificial[self.basis]].sum() > TOL:
            return False
        self.u[self.is_artificial] = 0.0
        return True

    def extract(self) -> np.ndarray:
        # a column rests at its upper bound only when that bound is finite
        x = np.where(self.at_upper, self.u, 0.0)
        x[self.basis] = self.beta
        return np.array([b[0] for b in self.lp.bounds]) + x[:self.lp.num_vars]

    def solve(self) -> LpSolution:
        """Both phases from the slack-and-artificial starting basis."""
        if not self.phase_one():
            return LpSolution("Infeasible", None, None, self.pivots)
        c2 = np.zeros(len(self.u))
        c2[:self.lp.num_vars] = self.lp.objective
        if self._iterate(c2, phase=2) == "unbounded":
            return LpSolution("Unbounded", None, None, self.pivots)
        x = self.extract()
        _verify(self.lp.constraints, self.lp.bounds, x)
        return LpSolution("Optimal", float(self.lp.objective @ x), x, self.pivots)


def _verify(constraints, bounds, x: np.ndarray) -> None:
    """Re-check x against the constraints and bounds."""
    for k, (coefs, rel, rhs) in enumerate(constraints):
        lhs = float(coefs @ x)
        if rel == LE and lhs > rhs + VERIFY_TOL:
            raise NumericalFailure("solution violates a constraint",
                                   {"constraint": k, "lhs": lhs, "rhs": rhs})
        if rel == EQ and abs(lhs - rhs) > VERIFY_TOL:
            raise NumericalFailure("solution violates an equality",
                                   {"constraint": k, "lhs": lhs, "rhs": rhs})
    for j, (lo, hi) in enumerate(bounds):
        if x[j] < lo - VERIFY_TOL or x[j] > hi + VERIFY_TOL:
            raise NumericalFailure("solution violates a variable bound",
                                   {"variable": j, "value": float(x[j])})


def solve(lp: LinearProgram) -> LpSolution:
    """Solve to optimality from scratch. Identical inputs take the identical
    pivot path."""
    return _Simplex(lp).solve()
