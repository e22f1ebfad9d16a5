"""Two-phase dense simplex for small linear programs.

Variables carry box bounds that are handled implicitly: a nonbasic variable
may rest at either of its bounds. The tableau keeps one row per functional
constraint, however many variables are boxed, for the whole solve. Phase one
ends one way: once the artificials sum to zero, each gets the bound zero. One
left basic on a redundant row stays at zero until a pivot through that row
moves it out, and a column whose bound is zero never enters.

Both phases run one loop, _Simplex._iterate, which prices, ratio-tests and
pivots in place on the tableau. Pricing takes the improving column with the
largest reduced cost (Dantzig's rule; at the upper bound the reduced cost
counts negated), ties going to the lowest index; it keeps one array of
signs, zero on a blocked column (basic, or with bound zero). A pivot reads
and writes only the rows with a nonzero in the pivot column: the ratio test
runs in Python floats over those rows, only their basic values move, and
only they are rewritten, on a sparse pivot row only at that row's nonzero
columns, through flat indices into the tableau. On the L = 4 robust
program a pivot column has about 16 nonzeros in 260 rows on average, and
the median pivot row 4 in 1030 columns. Largest-coefficient
pricing can cycle on degenerate vertices, so after DEGENERATE_RUN
consecutive degenerate pivots the entering column is the lowest improving
index instead (Bland's rule), until a pivot moves the point or a variable
flips bounds. Bland's rule cannot cycle, and every non-degenerate step
raises the objective, so the solve terminates. The leaving row is the
lowest basis index among rows within 1e-12 of the smallest step. Every
choice is a pure function of the tableau, so identical inputs take the
identical pivot path and return the identical point. A solution reports
its pivots in all and those of phase one.

A program must be finite: LinearProgram refuses a NaN or infinite
objective entry, coefficient or right-hand side, and a NaN bound. Every
comparison with a NaN is false, so such a program would pass each of the
solver's checks and come back "Optimal".

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
# a pivot row with fewer than 1 / SPARSE_ROW of its entries nonzero updates
# only those columns, through flat indices; a denser one updates whole rows,
# which costs less than gathering and scattering most of them. Timing both
# updates at every basis change of the L = 2..5 robust programs, any value
# from 2 to 5 gave each L the same total update time within 1%.
SPARSE_ROW = 4
LE = "<="
EQ = "="


@dataclass
class LinearProgram:
    """maximize objective @ x subject to the constraints and box bounds.

    constraints: list of (coefficients, "<=" or "=", rhs), all finite, as
    is the objective.
    bounds: per-variable (lo, hi); lo must be finite, hi may be math.inf.
    """

    objective: np.ndarray
    constraints: list
    bounds: list

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.ndim != 1 or self.objective.shape[0] < 1:
            raise ContractViolation("objective must be a nonempty vector")
        bad = np.flatnonzero(~np.isfinite(self.objective))
        if bad.size:
            raise ContractViolation(f"variable {bad[0]}: objective entry must be finite")
        n = self.objective.shape[0]
        rows = []
        for k, (coefs, rel, rhs) in enumerate(self.constraints):
            coefs = np.asarray(coefs, dtype=float)
            if coefs.shape != (n,):
                raise ContractViolation(f"constraint {k}: expected {n} coefficients")
            if rel not in (LE, EQ):
                raise ContractViolation(f"constraint {k}: relation must be '<=' or '='")
            rhs = float(rhs)
            if not (math.isfinite(rhs) and np.isfinite(coefs).all()):
                raise ContractViolation(f"constraint {k}: coefficients and right-hand side "
                                        "must be finite")
            rows.append((coefs, rel, rhs))
        self.constraints = rows
        if len(self.bounds) != n:
            raise ContractViolation("bounds must cover every variable")
        boxed = []
        for j, (lo, hi) in enumerate(self.bounds):
            lo, hi = float(lo), float(hi)
            if not math.isfinite(lo):
                raise ContractViolation(f"variable {j}: lower bound must be finite")
            if not hi >= lo:
                raise ContractViolation(f"variable {j}: upper bound NaN or below lower bound")
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
    phase_one_pivots: int = 0        # of which in phase one


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
        le = np.array([rel == LE for _, rel, _ in lp.constraints], dtype=bool)
        # an equality row, or a row whose right-hand side is negative at the
        # lower bounds (negated below, so that beta starts nonnegative),
        # starts on an artificial column
        neg = beta < 0.0
        art = ~le | neg
        n_le, n_art = int(le.sum()), int(art.sum())
        T = np.zeros((len(beta), n + n_le + n_art))
        for i, (coefs, _, _) in enumerate(lp.constraints):
            T[i, :n] = coefs
        basis = np.empty(len(beta), dtype=np.intp)
        basis[le] = n + np.arange(n_le)
        T[le, basis[le]] = 1.0
        T[neg] *= -1.0
        np.negative(beta, out=beta, where=neg)
        basis[art] = n + n_le + np.arange(n_art)
        T[art, basis[art]] = 1.0
        self.T, self.beta, self.basis = T, beta, basis
        self.u = np.concatenate([hi - lo, np.full(T.shape[1] - n, math.inf)])
        self.is_artificial = np.arange(T.shape[1]) >= n + n_le
        self.at_upper = np.zeros(T.shape[1], dtype=bool)
        self.pivots = 0
        self.cap = 1000 + 10 * sum(T.shape)   # pivots before the solve counts as stalled

    def _iterate(self, c: np.ndarray, phase: int) -> str:
        """Price, ratio-test and pivot (or flip a bound) until no column
        improves c. Returns "optimal" or "unbounded"."""
        T, beta, basis, u, at_upper = self.T, self.beta, self.basis, self.u, self.at_upper
        red = c - c[basis] @ T
        # pricing reads at_upper, basis and u through one array kept in step
        # with them below: the gain of a column is its reduced cost times its
        # sign, which is negative at the upper bound and zero on a blocked
        # column (basic, or with bound zero), which never enters
        sign = np.where(at_upper, -1.0, 1.0)
        sign[u <= TOL] = 0.0
        sign[basis] = 0.0
        ub = u[basis]
        gain = np.empty_like(red)
        flat = T.reshape(-1)
        width = T.shape[1]
        degenerate = 0
        while True:
            np.multiply(red, sign, out=gain)
            e = int((gain > TOL).argmax() if degenerate >= DEGENERATE_RUN else gain.argmax())
            if not gain[e] > TOL:
                return "optimal"
            if self.pivots >= self.cap:
                raise NumericalFailure(
                    "simplex stalled",
                    {"phase": phase, "pivots": self.pivots, "entering": e})
            self.pivots += 1
            direction = -1 if at_upper[e] else 1
            # only the rows with a nonzero in the pivot column move, so the
            # ratio test, the basic values and the row update read just those
            # (col and moved hold their entries and basic values); the other
            # basic values started nonnegative and need no clamp, up to a
            # -0.0 left on a row still on its starting slack or artificial,
            # which no returned point includes
            column = T[:, e]
            rows = column.nonzero()[0]
            col = column[rows]
            moved = beta[rows]
            # bounded ratio test, in Python floats over those rows: a basic
            # value moving down stops at zero, one moving up at its finite
            # bound (an infinite bound gives an infinite step), and a row
            # whose entry is within TOL of zero gives no step
            steps = []
            for a, b, bound in zip((col if direction > 0 else -col).tolist(),
                                   moved.tolist(), ub[rows].tolist()):
                if a > TOL:
                    steps.append((b if b > 0.0 else 0.0) / a)
                elif a < -TOL:
                    b = bound - b
                    steps.append((b if b > 0.0 else 0.0) / -a)
                else:
                    steps.append(math.inf)
            t = min(steps, default=math.inf)
            own = u[e]
            # a column whose own bound comes first flips with no tie search;
            # otherwise among rows within 1e-12 of the smallest step the
            # lowest basis index leaves, and its step (up to 1e-12 above the
            # smallest) is the one the flip test is repeated against
            if own > t + 1e-12:
                ties = [k for k, s in enumerate(steps) if s <= t + 1e-12]
                k = ties[0] if len(ties) == 1 else ties[int(basis[rows[ties]].argmin())]
                t = steps[k]
            if own <= t + 1e-12:
                if not math.isfinite(own):
                    if phase == 1:
                        raise NumericalFailure("phase one ray", {"entering": e})
                    return "unbounded"
                # bound flip, no basis change
                beta[rows] = np.maximum(moved - direction * own * col, 0.0)
                at_upper[e] = direction > 0
                sign[e] = -direction
                degenerate = 0
                continue
            degenerate = degenerate + 1 if t <= TOL else 0
            beta[rows] = np.maximum(moved - direction * t * col, 0.0)
            r = int(rows[k])
            down = direction * col[k] > 0.0
            row = T[r] / col[k]
            # columns with a zero in the pivot row are unchanged by the
            # update, up to the sign of a zero, which no comparison and no
            # returned point sees; a sparse row updates only its nonzero
            # columns, through flat indices into T
            nz = row.nonzero()[0]
            if SPARSE_ROW * len(nz) < len(row):
                flat[(rows * width)[:, None] + nz] -= col[:, None] * row[nz]
            else:
                T[rows] -= col[:, None] * row
            T[r] = row
            beta[r] = t if direction > 0 else own - t
            leaving = basis[r]
            basis[r] = e
            at_upper[e] = False
            # row r has a finite step, so its entry is nonzero: it moved up
            # unless it moved down
            at_upper[leaving] = not down
            if self.is_artificial[leaving]:
                u[leaving] = 0.0
            sign[e] = 0.0
            sign[leaving] = 0.0 if u[leaving] <= TOL else 1.0 if down else -1.0
            ub[r] = own
            red -= red[e] * row

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
            return LpSolution("Infeasible", None, None, self.pivots, self.pivots)
        first = self.pivots
        c2 = np.zeros(len(self.u))
        c2[:self.lp.num_vars] = self.lp.objective
        if self._iterate(c2, phase=2) == "unbounded":
            return LpSolution("Unbounded", None, None, self.pivots, first)
        x = self.extract()
        _verify(self.lp.constraints, self.lp.bounds, x)
        return LpSolution("Optimal", float(self.lp.objective @ x), x, self.pivots, first)


def _verify(constraints, bounds, x: np.ndarray) -> None:
    """Re-check x against the constraints and bounds. Each test states what
    holds, so a NaN fails it; the first violation raises."""
    lhs = np.array([coefs @ x for coefs, _, _ in constraints], dtype=float)
    rhs = np.array([b for _, _, b in constraints], dtype=float)
    eq = np.array([rel == EQ for _, rel, _ in constraints], dtype=bool)
    ok = np.where(eq, np.abs(lhs - rhs) <= VERIFY_TOL, lhs <= rhs + VERIFY_TOL)
    if not ok.all():
        k = int(np.argmin(ok))
        raise NumericalFailure("solution violates an equality" if eq[k] else
                               "solution violates a constraint",
                               {"constraint": k, "lhs": float(lhs[k]), "rhs": float(rhs[k])})
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    ok = (x >= lo - VERIFY_TOL) & (x <= hi + VERIFY_TOL)
    if not ok.all():
        j = int(np.argmin(ok))
        raise NumericalFailure("solution violates a variable bound",
                               {"variable": j, "value": float(x[j])})


def solve(lp: LinearProgram) -> LpSolution:
    """Solve to optimality from scratch. Identical inputs take the identical
    pivot path."""
    return _Simplex(lp).solve()
