"""Rate-region approximation and action-distribution machinery.

The L-th order region is a linear program over per-window transmit
fractions: x (share of slots spent on fresh data for receiver 1 or on
mixtures that serve it) and y (same for receiver 2), with the two coupling
constraints that mixture slots are shared. Witnesses convert to
distributions over the five transmit actions, which in turn induce link
capacities on the four-node relay picture of one receiver's pipeline:
node 1 holds fresh packets, node 2 overheard-but-undelivered ones, node 3
poisoned pairs and node 4 is delivery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, forgetting_rate_bound
from .errors import ContractViolation, ModelFormatError, NumericalFailure
from .filtering import WindowTable, window_table
from .lp import LE, LinearProgram, _Simplex, solve

RATE_CAP = 2.0  # loose box for the rate variables; keeps the LP bounded
CASE_TOL = 1e-10
_TINY = 1e-15


@dataclass
class RegionWitness:
    """One boundary point of the L-th order region with its LP witness."""

    L: int
    w1: float
    w2: float
    slack: float
    status: str
    R1: float | None
    R2: float | None
    x: np.ndarray | None
    y: np.ndarray | None

    @property
    def value(self) -> float | None:
        if self.R1 is None:
            return None
        return self.w1 * self.R1 + self.w2 * self.R2


@dataclass
class ActionDistribution:
    """Per-window distribution over the five transmit actions.

    Column order: fresh to receiver 1, fresh to receiver 2, backlog XOR,
    fresh-pair mix, remedy retransmit. Rows follow window-table indexing.
    """

    L: int
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.shape != (4 ** self.L, 5):
            raise ContractViolation(f"table must have shape ({4 ** self.L}, 5), got {t.shape}")
        if np.any(t < -1e-12):
            raise ContractViolation("action probabilities must be nonnegative")
        sums = t.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise ContractViolation(f"row {bad} sums to {sums[bad]:.17g}")
        self.table = t


@dataclass
class CapacitySet:
    """Average per-slot service rates on the six links of the pipeline graph,
    per receiver where the rate depends on it. c13 is receiver-independent
    because a mixture enters the poison queue when anyone hears it."""

    c12: tuple
    c13: float
    c14: tuple
    c24: tuple
    c32: tuple
    c34: tuple


@dataclass
class CutValues:
    """The four relevant cut weights of the pipeline graph, per receiver:
    a = {1}, b = {1,2}, c = {1,3}, d = {1,2,3} as source-side sets."""

    a: tuple
    b: tuple
    c: tuple
    d: tuple


@dataclass
class CanonicalizationReport:
    case: str
    theta: float
    cuts_before: CutValues
    cuts_after: CutValues


def _rate_terms(table: WindowTable):
    """Per-window weights of the four rate constraints: (g1, g2, g12, full).
    g1 and g2 weight a window by its success toward receiver 1 or 2, g12 by
    reaching at least one receiver, and full is the sum of g12."""
    p = table.probs
    e1, e2, e12 = table.eps_arrays()
    g12 = p * (1.0 - e12)
    return p * (1.0 - e1), p * (1.0 - e2), g12, float(g12.sum())


def _rate_objective(n: int, w1: float, w2: float) -> np.ndarray:
    """w1*R1 + w2*R2 over the n variables of the region program."""
    if w1 + w2 <= 0.0 or w1 < 0.0 or w2 < 0.0:
        raise ContractViolation("weights must be nonnegative with a positive sum")
    obj = np.zeros(n)
    obj[0], obj[1] = w1, w2
    return obj


def region_lp(table: WindowTable, w1: float, w2: float, slack: float = 0.0) -> LinearProgram:
    """Build the L-th order region program, maximizing w1*R1 + w2*R2.

    Variables: [R1, R2, x per window, y per window]. A nonzero slack
    loosens (positive) or tightens (negative) every rate constraint by the
    same amount, which is how the sandwich bounds are produced.
    """
    m = len(table)
    g1, g2, g12, full = _rate_terms(table)
    n = 2 + 2 * m
    obj = _rate_objective(n, w1, w2)

    def row(rate_idx, xcoefs, ycoefs, rhs):
        c = np.zeros(n)
        c[rate_idx] = 1.0
        c[2:2 + m] = xcoefs
        c[2 + m:] = ycoefs
        return (c, LE, rhs)

    constraints = [
        row(0, -g1, np.zeros(m), slack),
        row(0, np.zeros(m), g12, slack + full),
        row(1, np.zeros(m), -g2, slack),
        row(1, g12, np.zeros(m), slack + full),
    ]
    bounds = [(0.0, RATE_CAP), (0.0, RATE_CAP)] + [(0.0, 1.0)] * (2 * m)
    return LinearProgram(obj, constraints, bounds)


def _witness_from_point(table, w1, w2, slack, point):
    m = len(table)
    return RegionWitness(L=table.L, w1=w1, w2=w2, slack=slack, status="Optimal",
                         R1=float(point[0]), R2=float(point[1]),
                         x=point[2:2 + m].copy(), y=point[2 + m:].copy())


def _refined(sx: _Simplex, table: WindowTable, w1: float, w2: float, slack: float,
             value: float) -> RegionWitness:
    """Maximize R1 + R2 subject to keeping w1*R1 + w2*R2 >= value - 1e-12,
    on a copy of the tableau sx solved for those weights. The keep-value row
    holds at that optimum, so the copy starts primal feasible."""
    n = sx.n_struct
    keep = np.zeros(n)
    keep[0], keep[1] = -w1, -w2
    sol = sx.with_row(keep, -(value - 1e-12)).reoptimize(_rate_objective(n, 1.0, 1.0))
    if sol.status != "Optimal":
        raise NumericalFailure("refinement solve failed", {"status": sol.status})
    return _witness_from_point(table, w1, w2, slack, sol.point)


def solve_region(table: WindowTable, w1: float, w2: float, slack: float = 0.0,
                 refine: bool = True) -> RegionWitness:
    """Maximize w1*R1 + w2*R2 over the region.

    With refine on, a second solve maximizes R1 + R2 subject to keeping the
    weighted value, which lands on a unique Pareto corner instead of a
    weight-dependent point of a face. That matters when a witness feeds the
    simulator: corners have all four constraints doing real work. The
    second solve re-optimizes the first one's tableau with the keep-value
    row appended, so it needs no phase one.
    """
    sx = _Simplex(region_lp(table, w1, w2, slack))
    sol = sx.solve()
    if sol.status != "Optimal":
        return RegionWitness(L=table.L, w1=w1, w2=w2, slack=slack, status=sol.status,
                             R1=None, R2=None, x=None, y=None)
    if not refine:
        return _witness_from_point(table, w1, w2, slack, sol.point)
    return _refined(sx, table, w1, w2, slack, sol.value)


def robust_witness(table: WindowTable, wit: RegionWitness,
                   backoff: float = 1.0) -> RegionWitness:
    """Re-select (x, y) for the rates backoff * (R1, R2), maximizing the
    uncoded share.

    Any (x, y) satisfying the four rate constraints at a rate pair
    certifies it, but a simplex vertex tends to be bang-bang (x and y in
    {0, 1} per window), which leaves the mapped action distribution with no
    mass on the two plain transmissions. The running scheduler then serves
    the two fresh queues only in lockstep through mixtures, so their
    difference is never pushed back and one of them drifts off even for
    arrival rates strictly inside the region. Maximizing the pooled
    per-window uncoded share min(x + y, 2 - x - y) restores that slack.

    Exactly on the boundary the certifying set can be pinned with almost no
    uncoded share at all, so callers that feed a scheduler pass a backoff
    slightly below 1 and trade a sliver of rate for breathing room. The
    returned witness records the backed-off rates it actually certifies.

    Falls back to the given witness if the re-selection solve fails.
    """
    if wit.status != "Optimal":
        raise ContractViolation("cannot rebalance a non-optimal witness")
    if not 0.0 < backoff <= 1.0:
        raise ContractViolation("backoff must lie in (0, 1]")
    r1 = wit.R1 * backoff
    r2 = wit.R2 * backoff
    m = len(table)
    p = table.probs
    g1, g2, g12, full = _rate_terms(table)
    # variables: x (m), y (m), t (m) with t <= x + y and t <= 2 - x - y
    n = 3 * m
    obj = np.concatenate([np.zeros(2 * m), p])
    zeros = np.zeros(m)

    def rate_row(xcoefs, ycoefs, rhs):
        return (np.concatenate([xcoefs, ycoefs, zeros]), LE, rhs)

    # allow a hair of slack: the witness meets the constraints only to
    # solver tolerance and an exactly tight program may round infeasible
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
        constraints.append((lo, LE, 0.0))
        hi = np.zeros(n)
        hi[i] = 1.0
        hi[m + i] = 1.0
        hi[2 * m + i] = 1.0
        constraints.append((hi, LE, 2.0))
    bounds = [(0.0, 1.0)] * n
    sol = solve(LinearProgram(obj, constraints, bounds))
    if sol.status != "Optimal":
        return wit
    return RegionWitness(L=wit.L, w1=wit.w1, w2=wit.w2, slack=wit.slack,
                         status="Optimal", R1=r1, R2=r2,
                         x=sol.point[:m].copy(), y=sol.point[m:2 * m].copy())


def witness_residual(table: WindowTable, wit: RegionWitness) -> float:
    """Largest violation of the four rate constraints at the witness."""
    g1, g2, g12, _ = _rate_terms(table)
    s1 = float(np.sum(g1 * wit.x))
    s2 = float(np.sum(g2 * wit.y))
    sx = float(np.sum(g12 * (1.0 - wit.x)))
    sy = float(np.sum(g12 * (1.0 - wit.y)))
    c = wit.slack
    return max(wit.R1 - s1 - c, wit.R1 - sy - c, wit.R2 - s2 - c, wit.R2 - sx - c)


def boundary_sweep(model: ChannelModel, L: int, k: int = 33,
                   slack: float = 0.0) -> list[RegionWitness]:
    table = window_table(model, L)
    return sweep_table(table, k, slack)


def sweep_table(table: WindowTable, k: int = 33, slack: float = 0.0) -> list[RegionWitness]:
    """Trace the boundary with k weight vectors (lam, 1 - lam) on a uniform
    grid including both endpoints. Points are sorted by R1 and deduplicated
    at 1e-9; every returned witness is re-checked against the constraints.

    Only the objective changes along the grid, so one tableau walks it:
    each weight re-optimizes from the previous optimal basis, and each point
    is refined as in solve_region on a copy of that tableau."""
    if k < 2:
        raise ContractViolation("a sweep needs at least two weight points")
    sx = _Simplex(region_lp(table, 0.0, 1.0, slack))
    if sx.solve().status != "Optimal":
        return []   # feasibility does not depend on the weights
    out = []
    for i in range(k):
        lam = i / (k - 1)
        sol = sx.reoptimize(_rate_objective(sx.n_struct, lam, 1.0 - lam))
        if sol.status != "Optimal":
            continue
        wit = _refined(sx, table, lam, 1.0 - lam, slack, sol.value)
        if witness_residual(table, wit) > 1e-8:
            raise NumericalFailure("witness failed re-check", {"lam": lam})
        out.append(wit)
    out.sort(key=lambda w: (w.R1, w.R2))
    dedup = []
    for wit in out:
        if dedup and abs(dedup[-1].R1 - wit.R1) <= 1e-9 and abs(dedup[-1].R2 - wit.R2) <= 1e-9:
            continue
        dedup.append(wit)
    return dedup


@dataclass
class SandwichResult:
    nominal: RegionWitness
    inner: RegionWitness | None
    outer: RegionWitness | None
    sigma: float | None
    margin: float | None
    degraded: bool


def sandwich(model: ChannelModel, L: int, w1: float, w2: float) -> SandwichResult:
    """Nominal boundary point bracketed by provable inner and outer points.

    The bracket width is 2 * (1 - sigma) ** L per rate constraint, using the
    forgetting rate of the model. Without a usable sigma only the nominal
    point is returned, flagged as degraded. An empty inner region comes back
    as inner=None.
    """
    table = window_table(model, L)
    nominal = solve_region(table, w1, w2)
    sigma = forgetting_rate_bound(model)
    if sigma is None:
        return SandwichResult(nominal, None, None, None, None, True)
    margin = 2.0 * (1.0 - sigma) ** L
    inner = solve_region(table, w1, w2, slack=-margin)
    if inner.status != "Optimal":
        inner = None
    outer = solve_region(table, w1, w2, slack=margin)
    vals = [v.value for v in (inner, nominal, outer) if v is not None]
    for lo, hi in zip(vals, vals[1:]):
        if lo > hi + 1e-8:
            raise NumericalFailure("sandwich ordering violated", {"values": vals})
    return SandwichResult(nominal, inner, outer, sigma, margin, False)


def xy_to_actions(wit: RegionWitness, s_param: float = 0.0) -> ActionDistribution:
    """Turn an LP witness into per-window action probabilities.

    Per window, x is the total share of fresh-1 plus mixing actions and y
    the same for receiver 2; the overlap s (mixing share) is free inside
    [max(0, x + y - 1), min(x, y)]. s_param interpolates linearly across
    that interval, 0 meaning the least mixing possible. The remedy action
    gets probability zero here; canonicalize reapportions it.
    """
    if not 0.0 <= s_param <= 1.0:
        raise ContractViolation("s_param must lie in [0, 1]")
    if wit.x is None:
        raise ContractViolation("witness has no solution attached")
    for name, arr in (("x", wit.x), ("y", wit.y)):
        if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
            raise ContractViolation(f"witness {name} leaves [0, 1]")
    x = np.clip(wit.x, 0.0, 1.0)
    y = np.clip(wit.y, 0.0, 1.0)
    s_lo = np.maximum(0.0, x + y - 1.0)
    s_hi = np.minimum(x, y)
    s = s_lo + s_param * (s_hi - s_lo)
    cols = np.stack([x - s, y - s, s, 1.0 - x - y + s, np.zeros_like(s)], axis=1)
    cols = np.maximum(cols, 0.0)
    cols /= cols.sum(axis=1, keepdims=True)
    return ActionDistribution(L=wit.L, table=cols)


def link_capacities(table: WindowTable, dist: ActionDistribution) -> CapacitySet:
    """Average service rates induced by the action distribution.

    Fresh transmissions feed delivery when heard by their receiver and the
    overheard queue when heard only by the other; mixtures feed the poison
    queue when heard by anyone; remedies feed delivery or the overheard
    queue depending on who hears them.
    """
    if dist.L != table.L:
        raise ContractViolation("window length mismatch between table and distribution")
    p = table.probs
    pp = table.pattern_probs
    e1, e2, e12 = table.eps_arrays()
    only2 = pp[:, 2]   # erased at 1, heard at 2
    only1 = pp[:, 1]   # heard at 1, erased at 2
    P = dist.table

    def tot(w):
        return float(np.sum(p * w))

    return CapacitySet(
        c12=(tot(only2 * P[:, 0]), tot(only1 * P[:, 1])),
        c13=tot((1.0 - e12) * P[:, 3]),
        c14=(tot((1.0 - e1) * P[:, 0]), tot((1.0 - e2) * P[:, 1])),
        c24=(tot((1.0 - e1) * P[:, 2]), tot((1.0 - e2) * P[:, 2])),
        c32=(tot(only2 * P[:, 4]), tot(only1 * P[:, 4])),
        c34=(tot((1.0 - e1) * P[:, 4]), tot((1.0 - e2) * P[:, 4])),
    )


def cut_values(caps: CapacitySet) -> CutValues:
    a, b, c, d = [], [], [], []
    for j in (0, 1):
        a.append(caps.c12[j] + caps.c13 + caps.c14[j])
        b.append(caps.c13 + caps.c14[j] + caps.c24[j])
        c.append(caps.c12[j] + caps.c14[j] + caps.c32[j] + caps.c34[j])
        d.append(caps.c14[j] + caps.c24[j] + caps.c34[j])
    return CutValues(a=tuple(a), b=tuple(b), c=tuple(c), d=tuple(d))


def max_rate(caps: CapacitySet, receiver: int) -> float:
    """Min cut between the fresh queue and delivery for one receiver (1 or 2)."""
    cuts = cut_values(caps)
    j = receiver - 1
    return min(cuts.a[j], cuts.b[j], cuts.c[j], cuts.d[j])


def canonicalize(dist: ActionDistribution, table: WindowTable):
    """Reapportion each window's mixing mass between the backlog-XOR and
    remedy actions with a single scalar theta, leaving everything else
    bit-identical.

    The uniform scaling preserves the cuts a and d for both receivers. When
    some receiver has a <= d (case I), theta matches remedy drain to poison
    inflow exactly for both receivers at once. Otherwise (case II) theta is
    chosen so the larger remedy-delivery rate meets the poison inflow, or
    saturates at 1 when it cannot (case IIb), which empties the backlog-XOR
    share entirely. Afterwards min(a, b, c, d) = min(a, d) for both
    receivers; the minimum never decreases.
    """
    if dist.L != table.L:
        raise ContractViolation("window length mismatch between table and distribution")
    g1, g2, g12, _ = _rate_terms(table)
    P = dist.table
    mass = P[:, 2] + P[:, 4]
    h1 = float(np.sum(g1 * mass))
    h2 = float(np.sum(g2 * mass))
    g = float(np.sum(g12 * mass))
    caps = link_capacities(table, dist)
    before = cut_values(caps)
    case_one = any(before.a[j] <= before.d[j] + CASE_TOL for j in (0, 1))
    if case_one:
        theta = 0.0 if g <= _TINY else min(1.0, caps.c13 / g)
        case = "I"
    else:
        max_h = max(h1, h2)
        if max_h <= _TINY or caps.c13 / max_h >= 1.0:
            theta = 1.0
            case = "IIb"
        else:
            theta = caps.c13 / max_h
            case = "IIa"
    new_table = P.copy()
    p5 = theta * mass
    new_table[:, 4] = p5
    new_table[:, 2] = mass - p5
    new_dist = ActionDistribution(L=dist.L, table=new_table)
    after = cut_values(link_capacities(table, new_dist))
    return new_dist, CanonicalizationReport(case=case, theta=theta,
                                            cuts_before=before, cuts_after=after)


def achievable_check(table: WindowTable, dist: ActionDistribution,
                     R1: float, R2: float, tol: float = 1e-8) -> bool:
    """True when each rate clears both split-invariant cuts (a and d) of its
    receiver's pipeline within tol."""
    cuts = cut_values(link_capacities(table, dist))
    return (R1 <= min(cuts.a[0], cuts.d[0]) + tol and
            R2 <= min(cuts.a[1], cuts.d[1]) + tol)


def simulation_distribution(table: WindowTable, lam: float, s_param: float = 0.0,
                            backoff: float = 0.99):
    """Boundary witness at weights (lam, 1 - lam) turned into a canonical
    action distribution, ready to drive the probabilistic scheduler.

    The distribution comes from a witness rebalanced toward uncoded
    transmissions at backoff * (R1, R2) (see robust_witness): exactly on the
    boundary the witness is pinned nearly free of plain sends, and a
    scheduler driven that way serves the two fresh queues only in lockstep,
    so one of them random-walks away. One percent of rate buys the mass
    that keeps them individually served. Simulating closer to the boundary
    than the backoff needs a hand-built distribution instead.

    If the canonical distribution at s_param fails the achievability
    re-check slightly inside the backed-off point, a grid of overlap
    choices is tried before giving up.

    Returns (witness at the full boundary rates, distribution, report).
    """
    wit = solve_region(table, lam, 1.0 - lam)
    if wit.status != "Optimal":
        raise NumericalFailure("region solve failed", {"status": wit.status})
    rob = robust_witness(table, wit, backoff)
    r1 = rob.R1 - 1e-6
    r2 = rob.R2 - 1e-6
    tried = [s_param] + [k / 10.0 for k in range(11) if k / 10.0 != s_param]
    for s in tried:
        dist, report = canonicalize(xy_to_actions(rob, s), table)
        if achievable_check(table, dist, r1, r2):
            return wit, dist, report
    raise NumericalFailure("no overlap choice passed the achievability re-check",
                           {"R1": rob.R1, "R2": rob.R2})


def dist_to_dict(dist: ActionDistribution) -> dict:
    return {"L": dist.L, "actions": [[float(v) for v in row] for row in dist.table]}


def dist_from_dict(obj) -> ActionDistribution:
    """Parse {"L": n, "actions": [[5 floats] x 4**n]} with field-precise
    errors."""
    if not isinstance(obj, dict):
        raise ModelFormatError(f"top level: expected an object, got {type(obj).__name__}")
    for key in sorted(set(obj) - {"L", "actions"}):
        raise ModelFormatError(f"unknown key {key!r}")
    if "L" not in obj or "actions" not in obj:
        raise ModelFormatError("missing key 'L' or 'actions'")
    L = obj["L"]
    if isinstance(L, bool) or not isinstance(L, int) or L < 1:
        raise ModelFormatError("L: expected a positive integer")
    rows = obj["actions"]
    if not isinstance(rows, list) or len(rows) != 4 ** L:
        raise ModelFormatError(f"actions: expected {4 ** L} rows")
    table = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 5:
            raise ModelFormatError(f"actions[{i}]: expected 5 numbers")
        vals = []
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ModelFormatError(f"actions[{i}][{j}]: expected a number")
            vals.append(float(v))
        table.append(vals)
    try:
        return ActionDistribution(L=L, table=np.asarray(table))
    except ContractViolation as e:
        raise ModelFormatError(f"actions: {e}") from e


def load_dist(path) -> ActionDistribution:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"line {e.lineno} column {e.colno}: {e.msg}") from e
    return dist_from_dict(obj)


def save_dist(dist: ActionDistribution, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(dist_to_dict(dist), f)
        f.write("\n")
