"""Independent reference implementations used to check the package.

Everything here recomputes results by a different method than the library:
state-path enumeration instead of recursive filtering, vertex enumeration
instead of simplex pivoting, augmenting paths instead of cut formulas,
Gaussian elimination instead of merged components, the region as a linear program
instead of a polygon built by sorting, per-window (x, y, t) fractions
instead of action shares, a linear scan instead of bisection, graph
searches instead of a boolean reachability closure. The
row-indexed filter update and prediction are the exception: they repeat
the library's arithmetic term by term, so the column kernels must match
them exactly. So are the one-at-a-time forms of batched code (the
depth-first window table, the running sums of the rows drawn from, the
per-sample forgetting loop, the json.dumps
and f-string trace writers, the json.loads trace reader, the
slot-at-a-time simulation with its queue move as one function, _apply,
the row-by-row simplex setup and its iteration as three methods): the
batched code must reproduce them bit for bit. So are the link capacities
and cut values written out link by link, which the sums over the arc
table must reproduce bit for bit.
"""

import itertools
import json
import math
import random
import sys
from bisect import bisect_right
from collections import deque
from functools import reduce
from operator import add

import numpy as np

import xorcast as xc
from xorcast.errors import NumericalFailure
from xorcast.filtering import _step
from xorcast.lp import DEGENERATE_RUN, EQ, LE, TOL, LinearProgram, _Simplex, _verify
from xorcast.region import _ANY, _ARCS, _HEARD, _OTHER, _RATE_OF_ROW, _rate_rows, _rate_terms
from xorcast.sim import (_COUNT_KEYS, CHECKPOINTS, FRESH1, FRESH2, IDLE, MIX_FRESH, REMEDY,
                         SUB1, SUB2, WARMUP_FRAC, XOR_BACKLOG, SimReport, _well_formed,
                         maxweight_action, substitute_action)


def cumulative_rows(rows):
    """The running sum of each row as a tuple, one left fold per row from
    0.0: the cumulative rows the package samples from, a float at a time."""
    out = []
    for row in rows:
        acc = 0.0
        cum = []
        for v in row:
            acc += v
            cum.append(acc)
        out.append(tuple(cum))
    return tuple(out)


def draw_oracle(cum, u):
    """The sampling rule as a linear scan: the index of the first cumulative
    entry above u, else the last index."""
    for i, c in enumerate(cum):
        if u < c:
            return i
    return len(cum) - 1


def _reachable(adj, start):
    """States reachable from start along the support graph, by depth-first
    search."""
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in np.flatnonzero(adj[u]):
            v = int(v)
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def strongly_connected_oracle(adj):
    """Every state reaches state 0 and is reached from it."""
    n = adj.shape[0]
    return len(_reachable(adj, 0)) == n and len(_reachable(adj.T, 0)) == n


def aperiodic_oracle(adj):
    """True when every cycle-carrying strongly connected component has
    period one. Components come from forward and backward searches; the
    period of one is the gcd of level[u] + 1 - level[v] over its internal
    edges (u, v), with levels from a breadth-first search."""
    remaining = set(range(adj.shape[0]))
    while remaining:
        u = next(iter(remaining))
        comp = _reachable(adj, u) & _reachable(adj.T, u)
        remaining -= comp
        if len(comp) == 1:
            continue
        root = min(comp)
        level = {root: 0}
        queue = [root]
        while queue:
            a = queue.pop(0)
            for b in np.flatnonzero(adj[a]):
                b = int(b)
                if b in comp and b not in level:
                    level[b] = level[a] + 1
                    queue.append(b)
        g = 0
        for a in comp:
            for b in np.flatnonzero(adj[a]):
                b = int(b)
                if b in comp:
                    g = math.gcd(g, level[a] + 1 - level[b])
        if g != 1:
            return False
    return True


def random_model(rng, n_states, floor=0.02):
    """Random strictly positive model: every entry at least floor after
    normalization pushes mass around."""
    def rows(n, k):
        out = []
        for _ in range(n):
            row = [floor + rng.random() for _ in range(k)]
            s = sum(row)
            out.append([v / s for v in row])
        return out
    return xc.ChannelModel(rows(n_states, n_states), rows(n_states, 4))


def sparse_model(rng, n_states):
    """Random model with zero transition and emission entries. The cycle
    s -> s+1 stays positive, so the chain is irreducible, while whole
    pattern windows can become impossible."""
    def row(k, keep):
        vals = [0.0 if j != keep and rng.random() < 0.4 else 0.05 + rng.random()
                for j in range(k)]
        total = sum(vals)
        return [v / total for v in vals]
    transition = [row(n_states, (s + 1) % n_states) for s in range(n_states)]
    emission = [row(4, rng.randrange(4)) for _ in range(n_states)]
    return xc.ChannelModel(transition, emission)


def trajectory_oracle(model, n, rng):
    """sample_trajectory one rng.random() call and one linear-scan draw at
    a time, from the generator rng and advancing it: for a fresh
    random.Random(seed), sample_trajectory(model, n, seed)."""
    pi_cum = cumulative_rows([xc.init_belief(model)])[0]
    t_cum = cumulative_rows(model.transition_rows)
    e_cum = cumulative_rows(model.emission_rows)
    states, patterns = [], []
    s = draw_oracle(pi_cum, rng.random())
    for _ in range(n):
        states.append(s)
        patterns.append(xc.PATTERNS[draw_oracle(e_cum[s], rng.random())])
        s = draw_oracle(t_cum[s], rng.random())
    return states, patterns


def filter_step_oracle(model, belief, z):
    """One filter update indexed by state, as a left fold over rows from
    0.0: condition on pattern index z, then advance one slot. Returns
    (next_belief, likelihood), the belief unchanged on zero likelihood."""
    em = model.emission_rows
    tr = model.transition_rows
    n = model.num_states
    post = [belief[s] * em[s][z] for s in range(n)]
    ell = reduce(add, post, 0.0)
    if ell <= 0.0:
        return belief, 0.0
    inv = 1.0 / ell
    nxt = tuple(reduce(add, (post[s] * tr[s][sp] for s in range(n)), 0.0) * inv
                for sp in range(n))
    return nxt, ell


def predict_oracle(model, belief):
    """Next-slot pattern distribution, as a left fold over rows from 0.0."""
    em = model.emission_rows
    n = model.num_states
    return tuple(reduce(add, (belief[s] * em[s][z] for s in range(n)), 0.0) for z in range(4))


def window_table_dfs(model, L):
    """window_table by depth-first recursion over prefixes, one scalar
    filter step per node: (probs, pattern_probs)."""
    m = 4 ** L
    probs = np.zeros(m)
    pattern_probs = np.zeros((m, 4))
    uniform = tuple(1.0 / model.num_states for _ in range(model.num_states))
    uniform_pp = xc.predict_pattern_probs(model, uniform)
    stack = [(0, 0, xc.init_belief(model), 1.0)]
    while stack:
        depth, prefix, belief, prob = stack.pop()
        if depth == L:
            probs[prefix] = prob
            pattern_probs[prefix] = xc.predict_pattern_probs(model, belief)
            continue
        width = 4 ** (L - depth - 1)
        for z in range(4):
            child = prefix * 4 + z
            nxt, ell = _step(model, belief, z)
            p = prob * ell
            if p <= 0.0:
                # whole subtree is impossible; fill its leaves directly
                lo = child * width
                pattern_probs[lo:lo + width] = uniform_pp
                continue
            stack.append((depth + 1, child, nxt, p))
    return probs, pattern_probs


def empirical_forgetting_loop(model, L, horizon, seed, samples):
    """empirical_forgetting one sampled history at a time: each drawn by
    trajectory_oracle from where the last left one generator seeded with
    seed, then filtered through filter_step."""
    t = horizon - 1
    worst = 0.0
    pi = xc.init_belief(model)
    rng = random.Random(seed)
    for _ in range(samples):
        _, patterns = trajectory_oracle(model, t, rng)
        full = pi
        for p in patterns:
            full = xc.filter_step(model, full, p)
        tail = pi
        for p in patterns[-L:]:
            tail = xc.filter_step(model, tail, p)
        a = xc.predict_pattern_probs(model, full)
        b = xc.predict_pattern_probs(model, tail)
        worst = max(worst, sum(abs(u - v) for u, v in zip(a, b)))
    return worst


def save_trace_json(trace, path):
    """save_trace through json.dumps, one record per line."""
    with open(path, "w", encoding="utf-8") as f:
        for slot, action, combo, r1, r2, delivered in trace:
            f.write(json.dumps({
                "slot": slot, "action": action, "combo": list(combo),
                "received_rx1": bool(r1), "received_rx2": bool(r2),
                "delivered": [[j, pid] for j, pid in delivered],
            }) + "\n")


def write_trace_fstring(trace, out):
    """write_trace as one f-string per record."""
    out.writelines(
        f'{{"slot": {slot}, "action": {action}, "combo": [{", ".join(map(str, combo))}], '
        f'"received_rx1": {"true" if r1 else "false"}, '
        f'"received_rx2": {"true" if r2 else "false"}, '
        f'"delivered": [{", ".join(f"[{j}, {pid}]" for j, pid in delivered)}]}}\n'
        for slot, action, combo, r1, r2, delivered in trace)


def load_trace_oracle(path):
    """load_trace through json.loads, one line at a time, with each check a
    step of its own in the order of the error messages."""
    rows = []
    with open(path, "rb") as f:
        for i, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise xc.TraceFormatError(f"line {i}: not UTF-8 text", line=i) from e
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise xc.TraceFormatError(f"line {i}: {e.msg}", line=i) from e
            except ValueError as e:     # int() refuses an integer past the digit limit
                raise xc.TraceFormatError(f"line {i}: integer longer than "
                                          f"{sys.get_int_max_str_digits()} digits", line=i) from e
            try:
                slot = obj["slot"]
                action = obj["action"]
                combo = tuple(obj["combo"])
                r1 = obj["received_rx1"]
                r2 = obj["received_rx2"]
                delivered = tuple([(j, pid) for j, pid in obj["delivered"]])
                if (type(slot) is not int or type(r1) is not bool or
                        type(r2) is not bool or
                        not all([type(c) is int for c in combo])):
                    raise TypeError
            except (KeyError, TypeError, ValueError) as e:
                raise xc.TraceFormatError(f"line {i}: bad trace record", line=i) from e
            if type(action) is not int or not FRESH1 <= action <= REMEDY:
                raise xc.TraceFormatError(f"line {i}: action {action!r} is not a transmit "
                                          "action code 1..5", line=i)
            if not _well_formed(combo):
                raise xc.TraceFormatError(f"line {i}: combination {list(combo)} is not one "
                                          "packet id or two distinct ones", line=i)
            for j, pid in delivered:
                if type(j) is not int or type(pid) is not int:
                    raise xc.TraceFormatError(f"line {i}: delivery claim {[j, pid]!r} is "
                                              "not two integers", line=i)
                if j not in (1, 2):
                    raise xc.TraceFormatError(f"line {i}: delivery claim names receiver "
                                              f"{j}; receivers are 1 and 2", line=i)
            rows.append((slot, action, combo, r1, r2, delivered))
    return rows


def feasible(lp):
    """Phase one only. Returns (True, witness) or (False, None)."""
    sx = _Simplex(lp)
    if not sx.phase_one():
        return False, None
    x = sx.extract()
    _verify(lp.constraints, lp.bounds, x)
    return True, x


class SimplexOracle(_Simplex):
    """The simplex with one row at a time in its setup and its iteration as
    three methods (_entering, _ratio, _pivot), each rebuilding its masks
    from at_upper, basis and u. _Simplex must take the same pivot path and
    return the same bits."""

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


def robust_witness_xyt(table, wit, backoff):
    """robust_witness over (x, y, t) per window, with two rows per window
    stating t <= min(x + y, 2 - x - y) and the objective sum p * t: the
    same optimum by another program, with 4 + 2m rows. Returns (witness,
    solution); the witness is None if the solve fails."""
    r1 = wit.R1 * backoff
    r2 = wit.R2 * backoff
    m = len(table)
    g1, g2, g12, full = _rate_terms(table)
    n = 3 * m
    obj = np.concatenate([np.zeros(2 * m), table.probs])
    zeros = np.zeros(m)

    def rate_row(xcoefs, ycoefs, rhs):
        return (np.concatenate([xcoefs, ycoefs, zeros]), "<=", rhs)

    eps = 1e-9
    constraints = [
        rate_row(-g1, zeros, -(r1 - eps)),
        rate_row(zeros, g12, full - (r1 - eps)),
        rate_row(zeros, -g2, -(r2 - eps)),
        rate_row(g12, zeros, full - (r2 - eps)),
    ]
    for i in range(m):
        lo = np.zeros(n)
        lo[i] = -1.0
        lo[m + i] = -1.0
        lo[2 * m + i] = 1.0
        constraints.append((lo, "<=", 0.0))
        hi = np.zeros(n)
        hi[i] = 1.0
        hi[m + i] = 1.0
        hi[2 * m + i] = 1.0
        constraints.append((hi, "<=", 2.0))
    sol = xc.solve(xc.LinearProgram(obj, constraints, [(0.0, 1.0)] * n))
    if sol.status != "Optimal":
        return None, sol
    out = xc.RegionWitness(L=wit.L, w1=wit.w1, w2=wit.w2, slack=wit.slack,
                           status="Optimal", R1=r1, R2=r2,
                           x=sol.point[:m].copy(), y=sol.point[m:2 * m].copy())
    return out, sol


def brute_force_window(model, L, state=None):
    """Window probabilities and predictive pattern distributions by summing
    over all hidden state paths. Given a state, only the paths whose oldest
    slot is in it count, so the probabilities are P(state, window) and the
    predictions condition on both."""
    n = model.num_states
    pi = xc.stationary_distribution(model)
    T = np.asarray(model.transition)
    E = np.asarray(model.emission)
    m = 4 ** L
    probs = np.zeros(m)
    preds = np.zeros((m, 4))
    for widx in range(m):
        codes = xc.window_codes(widx, L)
        total = 0.0
        nxt = np.zeros(4)
        for path in itertools.product(range(n), repeat=L):
            if state is not None and path[0] != state:
                continue
            w = pi[path[0]]
            for k in range(L):
                w *= E[path[k], codes[k]]
                if k + 1 < L:
                    w *= T[path[k], path[k + 1]]
            if w == 0.0:
                continue
            total += w
            for nxt_state in range(n):
                nxt += w * T[path[L - 1], nxt_state] * E[nxt_state]
        probs[widx] = total
        if total > 0.0:
            preds[widx] = nxt / total
    return probs, preds


def region_lp(table, w1, w2):
    """The L-th order region as a linear program, maximizing w1*R1 + w2*R2.

    Variables: [R1, R2, x per window, y per window], with the four rate rows
    of _rate_rows. The rows bound both rates, so the rates need no upper
    bound."""
    m = len(table)
    X, Y, rhs = _rate_rows(table)
    obj = np.zeros(2 + 2 * m)
    obj[0], obj[1] = w1, w2
    rows = np.hstack([np.eye(2)[list(_RATE_OF_ROW)], X, Y])
    constraints = [(row, LE, b) for row, b in zip(rows, rhs)]
    bounds = [(0.0, math.inf)] * 2 + [(0.0, 1.0)] * (2 * m)
    return xc.LinearProgram(obj, constraints, bounds)


def highs_region(table, w1, w2):
    """The optimum of region_lp by HiGHS (see highs_optimum)."""
    return highs_optimum(region_lp(table, w1, w2))


def highs_optimum(lp):
    """The optimum of a LinearProgram of "<=" rows by scipy's HiGHS at
    primal and dual feasibility tolerances of 1e-10 (its defaults leave the
    region program up to 2e-8 short). Scipy is a test-only cross-check, not
    a dependency of the package."""
    from scipy.optimize import linprog
    assert all(rel == LE for _coefs, rel, _rhs in lp.constraints)
    ref = linprog(-lp.objective,
                  A_ub=np.array([coefs for coefs, _rel, _rhs in lp.constraints]),
                  b_ub=np.array([rhs for _coefs, _rel, rhs in lp.constraints]),
                  bounds=lp.bounds, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert ref.status == 0, ref.message
    return -ref.fun


def vertex_oracle(lp, tol=1e-7):
    """Best objective value over all vertices of the feasible polytope.

    Only valid for programs whose feasible set is bounded (finite boxes).
    Returns None when no feasible vertex exists, which for bounded sets
    means the program is infeasible.
    """
    verts = feasible_vertices(lp, tol)
    return float((verts @ lp.objective).max()) if len(verts) else None


VERTEX_BLOCK = 8192   # n-subsets solved at once by feasible_vertices


def feasible_vertices(lp, tol=1e-7):
    """Every vertex of the feasible polytope, one row each, found by
    solving each n-subset of the constraint and bound hyperplanes and
    keeping the feasible solutions; the objective plays no part, so one
    enumeration serves every objective over the same constraints. The
    subsets are solved VERTEX_BLOCK at a time, in combinations order."""
    n = lp.num_vars
    normals = []
    offsets = []
    for coefs, _rel, rhs in lp.constraints:
        normals.append(np.asarray(coefs, dtype=float))
        offsets.append(float(rhs))
    for j, (lo, hi) in enumerate(lp.bounds):
        e = np.zeros(n)
        e[j] = 1.0
        normals.append(e.copy())
        offsets.append(float(lo))
        if math.isfinite(hi):
            normals.append(e)
            offsets.append(float(hi))
    A = np.asarray(normals)
    b = np.asarray(offsets)
    combos = itertools.combinations(range(len(normals)), n)
    found = []
    while True:
        block = np.asarray(list(itertools.islice(combos, VERTEX_BLOCK)), dtype=np.intp)
        if not len(block):
            break
        mats = A[block]
        keep = np.abs(np.linalg.det(mats)) > 1e-10
        if keep.any():
            found.append(np.linalg.solve(mats[keep], b[block][keep][..., None])[..., 0])
    if not found:
        return np.zeros((0, n))
    sols = np.concatenate(found)
    ok = np.ones(len(sols), dtype=bool)
    for coefs, rel, rhs in lp.constraints:
        lhs = sols @ np.asarray(coefs)
        if rel == "=":
            ok &= np.abs(lhs - rhs) <= tol
        else:
            ok &= lhs <= rhs + tol
    for j, (lo, hi) in enumerate(lp.bounds):
        ok &= sols[:, j] >= lo - tol
        if math.isfinite(hi):
            ok &= sols[:, j] <= hi + tol
    return sols[ok]


def _edmonds_karp(cap, source, sink):
    n = len(cap)
    flow = 0.0
    while True:
        parent = [-1] * n
        parent[source] = source
        queue = [source]
        while queue:
            u = queue.pop(0)
            for v in range(n):
                if parent[v] < 0 and cap[u][v] > 1e-15:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] < 0:
            return flow
        aug = math.inf
        v = sink
        while v != source:
            u = parent[v]
            aug = min(aug, cap[u][v])
            v = u
        v = sink
        while v != source:
            u = parent[v]
            cap[u][v] -= aug
            cap[v][u] += aug
            v = u
        flow += aug


def pipeline_max_flow(caps, receiver):
    """Max flow from the fresh queue to delivery in one receiver's pipeline,
    computed with augmenting paths. Nodes: 0 fresh, 1 overheard, 2 poison,
    3 delivery."""
    j = receiver - 1
    cap = [[0.0] * 4 for _ in range(4)]
    cap[0][1] += caps.c12[j]
    cap[0][2] += caps.c13
    cap[0][3] += caps.c14[j]
    cap[1][3] += caps.c24[j]
    cap[2][1] += caps.c32[j]
    cap[2][3] += caps.c34[j]
    return _edmonds_karp(cap, 0, 3)


def link_capacities_oracle(table, dist):
    """link_capacities as six hand sums, one expression per link: fresh
    sends feed delivery when heard by their receiver and the overheard
    queue when heard only by the other; mixtures feed the poison queue when
    heard by anyone; remedies feed delivery or the overheard queue
    depending on who hears them."""
    p = table.probs
    pp = table.pattern_probs
    e1, e2, e12 = table.eps_arrays()
    only2 = pp[:, 2]   # erased at 1, heard at 2
    only1 = pp[:, 1]   # heard at 1, erased at 2
    P = dist.table

    def tot(w):
        return float(np.sum(p * w))

    return xc.CapacitySet(
        c12=(tot(only2 * P[:, 0]), tot(only1 * P[:, 1])),
        c13=tot((1.0 - e12) * P[:, 3]),
        c14=(tot((1.0 - e1) * P[:, 0]), tot((1.0 - e2) * P[:, 1])),
        c24=(tot((1.0 - e1) * P[:, 2]), tot((1.0 - e2) * P[:, 2])),
        c32=(tot(only2 * P[:, 4]), tot(only1 * P[:, 4])),
        c34=(tot((1.0 - e1) * P[:, 4]), tot((1.0 - e2) * P[:, 4])),
    )


def cut_values_oracle(caps):
    """cut_values as four hand sums per receiver, each added left to right:
    the links leaving {1}, {1,2}, {1,3} and {1,2,3}."""
    a, b, c, d = [], [], [], []
    for j in (0, 1):
        a.append(caps.c12[j] + caps.c13 + caps.c14[j])
        b.append(caps.c13 + caps.c14[j] + caps.c24[j])
        c.append(caps.c12[j] + caps.c14[j] + caps.c32[j] + caps.c34[j])
        d.append(caps.c14[j] + caps.c24[j] + caps.c34[j])
    return xc.CutValues(a=tuple(a), b=tuple(b), c=tuple(c), d=tuple(d))


def memoryless_residuals(e1, e2, e12, R1, R2):
    """Slack of the two single-letter boundary constraints, in the divided
    form R1/(1-e1) + R2/(1-e12) <= 1 and its mirror."""
    c1 = 1.0 - (R1 / (1.0 - e1) + R2 / (1.0 - e12))
    c2 = 1.0 - (R1 / (1.0 - e12) + R2 / (1.0 - e2))
    return c1, c2


def _reduce(basis, row):
    """Reduce a GF(2) row (a set of ids) against an elimination basis keyed
    by each stored row's largest id; returns the residue."""
    while row:
        other = basis.get(max(row))
        if other is None:
            return row
        row = row ^ other
    return row


def gf2_decode_oracle(trace):
    """decode_verify by Gaussian elimination over GF(2), for combinations of
    any weight: each receiver keeps a basis of the rows it heard, and a
    claim for packet p holds when e_p reduces to zero against it."""
    bases = ({}, {})
    fails = []
    bad = [False, False]
    for slot, _action, combo, r1, r2, delivered in trace:
        row = set()
        for pid in combo:
            row ^= {pid}
        for heard, basis in zip((r1, r2), bases):
            if heard:
                residue = _reduce(basis, row)
                if residue:
                    basis[max(residue)] = residue
        for j, pid in delivered:
            if not bad[j - 1] and _reduce(bases[j - 1], {pid}):
                bad[j - 1] = True
                fails.append((j, pid, slot))
    receiver_ok = (not bad[0], not bad[1])
    return xc.DecodeReport(ok=all(receiver_ok), receiver_ok=receiver_ok, failures=fails)


class QueueState:
    """Queue contents of one slot-at-a-time run.

    q1: per-receiver deques of packet ids.
    q2: per-receiver deques of (account_id, transmit_id).
    q3: shared deque of (id_rx1, id_rx2, remedy_id): the remedy is the
        packet of the receiver that missed the mixture, receiver 1's when
        both heard it.
    """

    __slots__ = ("q1", "q2", "q3")

    def __init__(self):
        self.q1 = (deque(), deque())
        self.q2 = (deque(), deque())
        self.q3 = deque()

    def lengths(self) -> tuple:
        """(n11, n12, n21, n22, n3), as the action rules take them: the
        fresh and overheard queue lengths of receivers 1 and 2, then the
        poisoned pairs."""
        return (len(self.q1[0]), len(self.q1[1]), len(self.q2[0]), len(self.q2[1]),
                len(self.q3))

    def backlog(self) -> int:
        # a poisoned pair still owes one packet to each receiver
        n11, n12, n21, n22, n3 = self.lengths()
        return n11 + n12 + n21 + n22 + 2 * n3


def _apply(state, action, z1, z2):
    """Execute a feasible action under erasure pattern (z1, z2), in place:
    the queue move that simulate's slot loop makes in each action's branch.

    Returns (combo, delivered): the ids on air and a tuple of (receiver,
    account_id) deliveries. Every branch moves each queue entry at most one
    hop, so every queue length changes by at most one per slot.
    """
    q1, q2, q3 = state.q1, state.q2, state.q3
    if action == IDLE:
        return (), ()
    if action == FRESH1 or action == FRESH2:
        j = 0 if action == FRESH1 else 1
        zj, zo = (z1, z2) if j == 0 else (z2, z1)
        p = q1[j][0]
        if zj == 0:
            q1[j].popleft()
            return (p,), ((j + 1, p),)
        if zo == 0:
            q1[j].popleft()
            q2[j].append((p, p))
        return (p,), ()
    if action == SUB1 or action == SUB2:
        j = 0 if action == SUB1 else 1
        zj = z1 if j == 0 else z2
        acct, tid = q2[j][0]
        if zj == 0:
            q2[j].popleft()
            return (tid,), ((j + 1, acct),)
        # heard only by the other receiver: it already knows tid, no move
        return (tid,), ()
    if action == XOR_BACKLOG:
        a1, t1 = q2[0][0]
        a2, t2 = q2[1][0]
        combo = tuple(sorted((t1, t2)))
        if z1 == 0:
            q2[0].popleft()
            if z2 == 0:
                q2[1].popleft()
                return combo, ((1, a1), (2, a2))
            return combo, ((1, a1),)
        if z2 == 0:
            q2[1].popleft()
            return combo, ((2, a2),)
        return combo, ()
    if action == MIX_FRESH:
        p1 = q1[0][0]
        p2 = q1[1][0]
        if z1 == 0 or z2 == 0:
            q1[0].popleft()
            q1[1].popleft()
            q3.append((p1, p2, p2 if z2 else p1))
        return tuple(sorted((p1, p2))), ()
    if action == REMEDY:
        p1, p2, remedy = q3[0]
        if z1 == 0 and z2 == 0:
            q3.popleft()
            return (remedy,), ((1, p1), (2, p2))
        if z1 == 0:
            q3.popleft()
            q2[1].append((p2, remedy))
            return (remedy,), ((1, p1),)
        if z2 == 0:
            q3.popleft()
            q2[0].append((p1, remedy))
            return (remedy,), ((2, p2),)
        return (remedy,), ()
    raise xc.ContractViolation(f"unknown action {action!r}")


def arc_events(z1, z2):
    """Which events of region._ARCS a slot of pattern (z1, z2) makes happen,
    for receivers 1 and 2."""
    heard = (z1 == 0, z2 == 0)
    return tuple({_HEARD: heard[j], _OTHER: heard[1 - j] and not heard[j], _ANY: any(heard)}
                 for j in (0, 1))


def backpressure_weights(n11, n12, n21, n22, n3, p01, p10, p11):
    """The weights of maxweight_action read off region._ARCS: an action's
    weight is the sum, over its arcs that leave a nonempty queue, of
    P(event) (n_from - n_to) with n4 = 0, added in table order. An action is
    feasible when all its arcs leave nonempty queues, and the backlog XOR
    also with one overheard queue empty, when it sends as SUBj. Returns
    {action: weight} over the feasible actions, in action order."""
    e1, e2 = p10 + p11, p01 + p11
    odds = {_HEARD: (1.0 - e1, 1.0 - e2), _OTHER: (p10, p01), _ANY: (1.0 - p11,) * 2}
    nodes = ((n11, n21, n3, 0), (n12, n22, n3, 0))
    weights = {}
    for action in (FRESH1, FRESH2, XOR_BACKLOG, MIX_FRESH, REMEDY):
        arcs = [(j, event, u, v) for a, j, event, u, v in _ARCS if a == action - 1]
        live = [(j, event, u, v) for j, event, u, v in arcs if nodes[j - 1][u - 1]]
        if live and (len(live) == len(arcs) or action == XOR_BACKLOG):
            weights[action] = reduce(add, [odds[event][j - 1] * (nodes[j - 1][u - 1] -
                                                                 nodes[j - 1][v - 1])
                                           for j, event, u, v in live])
    return weights


def simulate_oracle(model, scheduler, R1, R2, n, seed, dist=None, collect_trace=False,
                    collect_slots=False):
    """simulate one slot at a time: every draw is one rng.random() call
    picked by bisection, and the max-weight belief is the sequential _step
    chain. Assumes valid arguments."""
    probabilistic = scheduler == "probabilistic"
    if probabilistic:
        cum_rows = cumulative_rows(dist.table)
        mask = 4 ** dist.L - 1
    rng = random.Random(seed)
    belief = xc.init_belief(model)
    pi_cum = cumulative_rows([belief])[0]
    t_cum = cumulative_rows(model.transition_rows)
    e_cum = cumulative_rows(model.emission_rows)
    if not probabilistic:
        stats = xc.predict_stats(model, belief)
    state = QueueState()
    win = 0
    counts = {v: 0 for v in _COUNT_KEYS.values()}
    arrivals = [0, 0]
    delivered_n = [0, 0]
    next_id = 0
    cp = max(1, n // CHECKPOINTS)
    checkpoints = []
    trace = [] if collect_trace else None
    slot_rows = [] if collect_slots else None
    last = len(pi_cum) - 1
    s = bisect_right(pi_cum, rng.random(), 0, last)
    for slot in range(n):
        if rng.random() < R1:
            state.q1[0].append(next_id)
            next_id += 1
            arrivals[0] += 1
        if rng.random() < R2:
            state.q1[1].append(next_id)
            next_id += 1
            arrivals[1] += 1
        if probabilistic:
            a = bisect_right(cum_rows[win], rng.random(), 0, 4)
            action = substitute_action(a + 1, *state.lengths())
        else:
            action = maxweight_action(*state.lengths(), stats.eps_n12, stats.eps1_n2,
                                      stats.eps12)
        zi = bisect_right(e_cum[s], rng.random(), 0, 3)
        z1, z2 = xc.PATTERNS[zi]
        combo, delivered = _apply(state, action, z1, z2)
        counts[_COUNT_KEYS[action]] += 1
        for j, _pid in delivered:
            delivered_n[j - 1] += 1
        code = 3 if action in (SUB1, SUB2) else action
        if trace is not None and combo:
            trace.append((slot, code, combo, z1 == 0, z2 == 0, tuple(delivered)))
        if slot_rows is not None:
            slot_rows.append((slot, code, z1, z2, state.backlog(),
                              delivered_n[0], delivered_n[1]))
        if probabilistic:
            win = ((win << 2) | zi) & mask
        else:
            belief, ell = _step(model, belief, zi)
            if ell <= 0.0:
                raise xc.ZeroLikelihood(
                    f"pattern {xc.PATTERNS[zi]} has probability zero under the current belief")
            stats = xc.predict_stats(model, belief)
        s = bisect_right(t_cum[s], rng.random(), 0, last)
        if (slot + 1) % cp == 0 or slot + 1 == n:
            checkpoints.append((slot + 1, state.backlog(), delivered_n[0], delivered_n[1]))
    return SimReport(scheduler=scheduler, R1=R1, R2=R2, n=n, seed=seed,
                     arrivals=tuple(arrivals), delivered=tuple(delivered_n),
                     action_counts=counts, checkpoints=checkpoints,
                     final_backlog=state.backlog(), warmup=int(n * WARMUP_FRAC),
                     trace=trace, slot_rows=slot_rows)
