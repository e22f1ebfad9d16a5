"""Rate-region approximation and action-distribution machinery.

The L-th order region bounds the two rates through per-window transmit
fractions: x (share of slots spent on fresh data for receiver 1 or on
mixtures that serve it) and y (same for receiver 2), with the two coupling
constraints that mixture slots are shared. Each receiver's side of those
four rate rows is a fractional knapsack, so the region is an exact polygon
built by sorting the windows (Dantzig's greedy rule): boundary points and
sweeps are its vertices, and a vertex's witness is the two greedy fills.
The same polygon over the finer contexts (hidden state of the window's
oldest slot, window) is an outer region, so the two bracket the capacity
region. Only the robust re-selection of a witness solves a linear
program. Witnesses convert to distributions over the five transmit
actions, which in turn induce link capacities on each receiver's queue
network (_ARCS): node 1 holds its fresh packets, node 2 its overheard
ones, node 3 the poisoned pairs and node 4 is delivery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from functools import reduce
from operator import add

import numpy as np

from .channel import ChannelModel, _parse_matrix, _read_json
from .errors import ContractViolation, ModelFormatError, NumericalFailure, ResourceLimit
from .filtering import WindowTable, _check_window_cap, _refined_table, window_table
from .lp import LE, LinearProgram, solve

CASE_TOL = 1e-10
CUT_TOL = 1e-8   # how far a rate may exceed its cut and still pass achievable_check
_TINY = 1e-15
# most windows of a robust witness: at L = 6 (m = 4096) its dense LP is a 0.54 GB tableau,
# (4 + m) x (3m + (4 + m) + 2) doubles, beside 0.40 GB of box rows, m x 3m doubles
ROBUST_WINDOW_CAP = 4 ** 6
_RATE_OF_ROW = (0, 0, 1, 1)  # the rate each row of _rate_rows bounds: R1, R1, R2, R2
# The queue network: an arc (column, j, event, from, to) moves a packet of receiver j when
# the action of that ActionDistribution column is sent and the event happens.
_HEARD, _OTHER, _ANY = range(3)   # j hears the slot; only the other receiver does; someone does
_ARCS = tuple((a, j, event, u, v) for j in (1, 2) for a, event, u, v in (
    (j - 1, _OTHER, 1, 2),   # fresh to j, overheard by the other
    (3, _ANY, 1, 3),         # fresh-pair mix, heard by someone
    (j - 1, _HEARD, 1, 4),   # fresh to j
    (2, _HEARD, 2, 4),       # backlog XOR
    (4, _OTHER, 3, 2),       # remedy heard by the other: j's packet waits in its node 2
    (4, _HEARD, 3, 4)))      # remedy; six arcs per receiver, sorted by (from, to)


@dataclass
class RegionWitness:
    """One boundary point of the L-th order region with its witness (x, y)."""

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
        _check_window_cap(self.L)
        t = np.asarray(self.table, dtype=float)
        if t.shape != (4 ** self.L, 5):
            raise ContractViolation(f"table must have shape ({4 ** self.L}, 5), got {t.shape}")
        # written so that nan fails: it compares false with everything
        if not np.all(t >= -1e-12):
            raise ContractViolation("action probabilities must be nonnegative numbers")
        sums = t.sum(axis=1)
        if not np.all(np.abs(sums - 1.0) <= 1e-9):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise ContractViolation(f"row {bad} sums to {sums[bad]:.17g}")
        # the tolerated round-off below zero is zero, so every cumulative
        # row sampled from (channel._pick) is nondecreasing
        self.table = np.where(t < 0.0, 0.0, t)


@dataclass
class CapacitySet:
    """Average per-slot service rates on the links cuv of _ARCS, as pairs
    (receiver 1, receiver 2) but c13: a mixture parks one pair for both."""

    c12: tuple
    c13: float
    c14: tuple
    c24: tuple
    c32: tuple
    c34: tuple


@dataclass
class CutValues:
    """The four cut weights of each receiver's queue network, as pairs, by
    source side: a = {1}, b = {1,2}, c = {1,3}, d = {1,2,3}."""

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


# what `xorcast canonicalize` writes beside a distribution's own keys
_REPORT_KEYS = frozenset(f.name for f in fields(CanonicalizationReport))


def _rate_terms(table: WindowTable):
    """Per-window weights of the four rate constraints: (g1, g2, g12, full).
    g1 and g2 weight a window by its success toward receiver 1 or 2, g12 by
    reaching at least one receiver, and full is the sum of g12."""
    p = table.probs
    e1, e2, e12 = table.eps_arrays()
    g12 = p * (1.0 - e12)
    return p * (1.0 - e1), p * (1.0 - e2), g12, float(g12.sum())


def _rate_rows(table: WindowTable):
    """The four rate constraints as (X, Y, rhs): row k reads
    R + X[k] @ x + Y[k] @ y <= rhs[k] for the rate R of _RATE_OF_ROW[k].
    R1 is bounded by what receiver 1 hears of x-slots and by the y-slots
    that reach someone, and R2 the same way round."""
    g1, g2, g12, full = _rate_terms(table)
    zeros = np.zeros(len(table))
    X = np.array([-g1, zeros, zeros, g12])
    Y = np.array([zeros, g12, -g2, zeros])
    return X, Y, np.array([0.0, full, 0.0, full])


def _greedy(g: np.ndarray, g12: np.ndarray):
    """One side of the region as a fractional knapsack. Buying window i in
    full adds g[i] to this side's rate and spends g12[i] of the other side's
    room, so the cheapest way to any rate fills the windows with g > 0 by
    decreasing g / g12, ties to the lowest index, the last one in part
    (Dantzig 1957). g <= g12, so g12 > 0 wherever g > 0. Returns (order, B,
    A): the fill order and the breakpoints of the concave gain A = F(B),
    cumulative budget and rate from (0, 0)."""
    keep = np.flatnonzero(g > 0.0)
    order = keep[np.argsort(-(g[keep] / g12[keep]), kind="stable")]
    return (order, np.concatenate(([0.0], np.cumsum(g12[order]))),
            np.concatenate(([0.0], np.cumsum(g[order]))))


def _fill(side, rate: float, m: int) -> np.ndarray:
    """The least-budget x in [0, 1]^m with g @ x = rate along one side's
    greedy order: the windows before the first breakpoint at or above rate
    in full, the one that reaches it in part. So a flat run of equal
    breakpoints, which the polygon does not pay for, is not bought."""
    order, _, A = side
    x = np.zeros(m)
    j = int(np.count_nonzero(A < rate))     # A is sorted: the first index at or above rate
    if j > 0:
        x[order[:j - 1]] = 1.0
        x[order[j - 1]] = (rate - A[j - 1]) / (A[j] - A[j - 1])
    return x


def _polygon(table: WindowTable):
    """The region as an exact polygon: the two greedy sides and the
    candidate vertices of the upper boundary, sorted by R1.

    Given R1, the largest R2 is min(F2(full - R1), full - F1^-1(R1)): y may
    spend only the room R1 leaves it, and x must buy R1 at the least budget.
    Both pieces are concave and piecewise linear in R1, so the boundary's
    vertices lie at the breakpoints of F1, at full minus those of F2, and
    where the two pieces cross between adjacent breakpoints."""
    g1, g2, g12, full = _rate_terms(table)
    one, two = _greedy(g1, g12), _greedy(g2, g12)

    def bounds(a, b, r):
        """Side b's two bounds beside the rates r of side a: what the room
        r leaves buys, and full less the least budget that buys r."""
        return np.interp(full - r, b[1], b[2]), full - np.interp(r, a[2], a[1])

    def top(a, b, r):
        """The largest rate of side b beside the rates r of side a; rounding
        may leave full less a whole side's budget an ulp below zero."""
        return np.maximum(np.minimum(*bounds(a, b, r)), 0.0)

    # one sort routine for the whole builder, the stable argsort of
    # _greedy: each further numpy routine pages in code, which shows in the
    # peak memory of a small solve
    r = np.concatenate((one[2], full - two[1]))
    r = r[np.argsort(r, kind="stable")]
    r = r[(r >= 0.0) & (r <= one[2][-1])]
    r = r[np.append(True, r[1:] != r[:-1])]
    room, rest = bounds(one, two, r)
    gap = room - rest
    i = np.flatnonzero(gap[:-1] * gap[1:] < 0.0)
    r = np.insert(r, i + 1, r[i] + (r[i + 1] - r[i]) * (gap[i] / (gap[i] - gap[i + 1])))
    return (one, two), np.column_stack((r, top(one, two, r)))


def _corner(table: WindowTable, sides, points: np.ndarray, w1: float,
            w2: float) -> RegionWitness:
    """The vertex of the polygon that maximizes w1*R1 + w2*R2, ties within
    1e-12 going to the largest R1 + R2, with its greedy witness: x and y
    fill the vertex's rates at the least budget."""
    value = w1 * points[:, 0] + w2 * points[:, 1]
    best = np.where(value >= value.max() - 1e-12, points[:, 0] + points[:, 1], -np.inf)
    k = int(np.argmax(best))
    m = len(table)
    return RegionWitness(L=table.L, w1=w1, w2=w2, slack=0.0, status="Optimal",
                         R1=float(points[k, 0]), R2=float(points[k, 1]),
                         x=_fill(sides[0], points[k, 0], m),
                         y=_fill(sides[1], points[k, 1], m))


def solve_region(table: WindowTable, w1: float, w2: float) -> RegionWitness:
    """Maximize w1*R1 + w2*R2 over the region.

    The answer is a vertex of the exact polygon (see _polygon); among
    vertices within 1e-12 of the best weighted value the one with the
    largest R1 + R2 wins, so a weight normal to an edge lands on its Pareto
    end rather than on a point of the face. That matters when a witness
    feeds the simulator: corners have all four constraints doing real
    work. The region holds the origin, so the status is always "Optimal".
    """
    _check_weights(w1, w2)
    return _corner(table, *_polygon(table), w1, w2)


def _check_weights(w1: float, w2: float) -> None:
    if not (0.0 <= w1 < np.inf and 0.0 <= w2 < np.inf and w1 + w2 > 0.0):    # nan fails
        raise ContractViolation("weights must be finite, nonnegative and of positive sum")


def robust_witness(table: WindowTable, wit: RegionWitness, backoff: float) -> RegionWitness:
    """Re-select (x, y) for the rates backoff * (R1, R2), maximizing the
    uncoded share.

    Any (x, y) satisfying the four rate constraints at a rate pair
    certifies it, but the greedy witness of a vertex is bang-bang (x and y
    in {0, 1} in every window but one per side), which leaves the mapped
    action distribution with no mass on the two plain transmissions. The
    running scheduler then serves the two fresh queues only in lockstep
    through mixtures, so their difference is never pushed back and one of
    them drifts off even for arrival rates strictly inside the region. Maximizing the pooled
    uncoded share restores that slack.

    The program runs over per-window action shares, fresh-1 f1, fresh-2 f2
    and backlog XOR c, with one row f1 + f2 + c <= 1 per window whose slack
    is the fresh-pair mix: 4 + m rows for m windows. The rate constraints
    act on x = f1 + c and y = f2 + c, and sum p * (f1 + f2) is maximized,
    which for fixed (x, y) is the pooled min(x + y, 2 - x - y).

    Exactly on the boundary the certifying set can be pinned with almost no
    uncoded share at all, so callers that feed a scheduler pass a backoff
    slightly below 1 and trade a sliver of rate for breathing room. The
    returned witness records the backed-off rates it actually certifies.
    A failed solve raises NumericalFailure, and a table of more than
    ROBUST_WINDOW_CAP windows ResourceLimit before anything is allocated.
    """
    if wit.status != "Optimal":
        raise ContractViolation("cannot rebalance a non-optimal witness")
    if not 0.0 < backoff <= 1.0:
        raise ContractViolation("backoff must lie in (0, 1]")
    if len(table) > ROBUST_WINDOW_CAP:
        raise ResourceLimit(f"a robust witness over {len(table)} windows exceeds the cap "
                            f"of {ROBUST_WINDOW_CAP}")
    rates = (wit.R1 * backoff, wit.R2 * backoff)
    m = len(table)
    p = table.probs
    X, Y, rhs = _rate_rows(table)
    # variables: f1 (m), f2 (m), c (m)
    obj = np.concatenate([p, p, np.zeros(m)])
    # allow a hair of slack: the witness meets the constraints only to
    # solver tolerance and an exactly tight program may round infeasible
    eps = 1e-9
    constraints = [(row, LE, b - (rates[k] - eps))
                   for row, b, k in zip(np.hstack([X, Y, X + Y]), rhs, _RATE_OF_ROW)]
    # one box row f1 + f2 + c <= 1 per window, each its own small array: one
    # (m, 3m) block is large enough to be mapped afresh, and faulted in, on
    # every call
    for i in range(m):
        row = np.zeros(3 * m)
        row[i::m] = 1.0
        constraints.append((row, LE, 1.0))
    sol = solve(LinearProgram(obj, constraints, [(0.0, 1.0)] * (3 * m)))
    if sol.status != "Optimal":
        raise NumericalFailure("robust witness solve failed", {"status": sol.status})
    f1, f2, c = sol.point.reshape(3, m)
    return replace(wit, R1=rates[0], R2=rates[1], x=f1 + c, y=f2 + c)


def witness_residual(table: WindowTable, wit: RegionWitness) -> float:
    """Largest violation of the four rate constraints at the witness."""
    X, Y, rhs = _rate_rows(table)
    rates = np.array([wit.R1, wit.R2])[list(_RATE_OF_ROW)]
    return float(np.max(rates + X @ wit.x + Y @ wit.y - rhs))


def boundary_sweep(model: ChannelModel, L: int, k: int = 33) -> list[RegionWitness]:
    return sweep_table(window_table(model, L), k)


def sweep_table(table: WindowTable, k: int = 33) -> list[RegionWitness]:
    """Trace the boundary with k weight vectors (lam, 1 - lam) on a uniform
    grid including both endpoints. The polygon is built once and each weight
    picks its vertex as solve_region does. A point within 1e-9 of the last
    one kept in grid order is dropped, so each vertex keeps the first weight
    that reaches it; the points are then sorted by R1. Every returned
    witness is re-checked against the constraints, and one that fails
    raises NumericalFailure."""
    if k < 2:
        raise ContractViolation("a sweep needs at least two weight points")
    sides, points = _polygon(table)
    out = []
    for i in range(k):
        lam = i / (k - 1)
        wit = _corner(table, sides, points, lam, 1.0 - lam)
        if witness_residual(table, wit) > 1e-8:
            raise NumericalFailure("witness failed re-check", {"lam": lam})
        if out and abs(out[-1].R1 - wit.R1) <= 1e-9 and abs(out[-1].R2 - wit.R2) <= 1e-9:
            continue
        out.append(wit)
    return sorted(out, key=lambda w: (w.R1, w.R2))


@dataclass
class SandwichResult:
    inner: RegionWitness
    outer: RegionWitness


def sandwich(model: ChannelModel, L: int, w1: float, w2: float) -> SandwichResult:
    """The boundary point of R(L) bracketed with that of the outer region
    R(L)-bar, R(L) <= C <= R(L)-bar in the weighted value.

    inner is the vertex of the L-th order region R(L), which the
    probabilistic scheme achieves. outer is the vertex of the region over
    the finer contexts (hidden state of the window's oldest slot, window):
    refining contexts only grows the region, and given that state the
    older past says nothing more about the next slot, so R(L)-bar contains
    the capacity region and shrinks as L grows. The gap between the two
    values closes exponentially fast in L. A table of more rows than
    4**WINDOW_CAP raises ResourceLimit before it is built, and weights
    solve_region refuses raise ContractViolation before either table is.
    """
    _check_weights(w1, w2)
    outer_table = _refined_table(model, L)
    inner = solve_region(window_table(model, L), w1, w2)
    outer = solve_region(outer_table, w1, w2)
    if inner.value > outer.value + 1e-8:
        raise NumericalFailure("sandwich ordering violated",
                               {"values": [inner.value, outer.value]})
    return SandwichResult(inner, outer)


def xy_to_actions(wit: RegionWitness, s_param: float = 0.0) -> ActionDistribution:
    """Turn a region witness into per-window action probabilities.

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
    """Average service rates induced by the action distribution: link cuv of
    receiver j sums p(window) P(its arc's event) P(its arc's action)."""
    if dist.L != table.L:
        raise ContractViolation("window length mismatch between table and distribution")
    pp = table.pattern_probs
    e1, e2, e12 = table.eps_arrays()
    # each event's probability per window for receivers 1 and 2 (only 2 hears pattern 2)
    odds = {_HEARD: (1.0 - e1, 1.0 - e2), _OTHER: (pp[:, 2], pp[:, 1]), _ANY: (1.0 - e12,) * 2}
    links = {}
    for a, j, event, u, v in _ARCS:
        link = f"c{u}{v}"
        if event == _ANY and link in links:     # c13: one rate for both receivers
            continue
        rate = float((table.probs * (odds[event][j - 1] * dist.table[:, a])).sum())
        links[link] = rate if event == _ANY else links.get(link, ()) + (rate,)
    return CapacitySet(**links)


def cut_values(caps: CapacitySet) -> CutValues:
    """Each cut's weight per receiver: the rates of the arcs that leave its
    source side, added left to right in the order of _ARCS. Each arc's rate
    is read from caps once."""
    cuts = {side: ([], []) for side in ((1,), (1, 2), (1, 3), (1, 2, 3))}
    for _, j, event, u, v in _ARCS:
        link = getattr(caps, f"c{u}{v}")
        rate = link if event == _ANY else link[j - 1]
        for side, cut in cuts.items():
            if u in side and v not in side:
                cut[j - 1].append(rate)
    return CutValues(*(tuple(reduce(add, c) for c in cut) for cut in cuts.values()))


def max_rate(caps: CapacitySet, receiver: int) -> float:
    """Min cut between the fresh queue and delivery for one receiver (1 or 2)."""
    if type(receiver) is not int or receiver not in (1, 2):
        raise ContractViolation(f"receiver must be 1 or 2, got {receiver!r}")
    cuts = cut_values(caps)
    return min(cut[receiver - 1] for cut in (cuts.a, cuts.b, cuts.c, cuts.d))


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
                     R1: float, R2: float) -> bool:
    """True when each rate clears both split-invariant cuts (a and d) of its
    receiver's pipeline within CUT_TOL."""
    cuts = cut_values(link_capacities(table, dist))
    return (R1 <= min(cuts.a[0], cuts.d[0]) + CUT_TOL and
            R2 <= min(cuts.a[1], cuts.d[1]) + CUT_TOL)


def simulation_distribution(table: WindowTable, lam: float, backoff: float = 0.99):
    """Boundary witness at weights (lam, 1 - lam) turned into a canonical
    action distribution, ready to drive the probabilistic scheduler.

    The distribution comes from a witness rebalanced toward uncoded
    transmissions at backoff * (R1, R2) (see robust_witness): exactly on the
    boundary the witness is pinned nearly free of plain sends, and a
    scheduler driven that way serves the two fresh queues only in lockstep,
    so one of them random-walks away. One percent of rate buys the mass
    that keeps them individually served. Simulating closer to the boundary
    than the backoff needs a hand-built distribution instead.

    The witness is mapped at the least overlap only: the cuts a and d that
    the achievability re-check reads do not depend on the overlap.

    Returns (witness at the full boundary rates, distribution, report).
    """
    wit = solve_region(table, lam, 1.0 - lam)
    rob = robust_witness(table, wit, backoff)
    dist, report = canonicalize(xy_to_actions(rob), table)
    if not achievable_check(table, dist, rob.R1 - 1e-6, rob.R2 - 1e-6):
        raise NumericalFailure("the canonical distribution failed the achievability re-check",
                               {"R1": rob.R1, "R2": rob.R2})
    return wit, dist, report


def dist_to_dict(dist: ActionDistribution) -> dict:
    return {"L": dist.L, "actions": [[float(v) for v in row] for row in dist.table]}


def dist_from_dict(obj) -> ActionDistribution:
    """Parse {"L": n, "actions": [[5 floats] x 4**n]} with field-precise
    errors. The report keys that `xorcast canonicalize` writes beside them
    are ignored, so its output reads back."""
    if not isinstance(obj, dict):
        raise ModelFormatError(f"top level: expected an object, got {type(obj).__name__}")
    for key in sorted(set(obj) - {"L", "actions"} - _REPORT_KEYS):
        raise ModelFormatError(f"unknown key {key!r}")
    if "L" not in obj or "actions" not in obj:
        raise ModelFormatError("missing key 'L' or 'actions'")
    L = obj["L"]
    if isinstance(L, bool) or not isinstance(L, int) or L < 1:
        raise ModelFormatError("L: expected a positive integer")
    _check_window_cap(L)
    table = _parse_matrix(obj["actions"], "actions", 4 ** L, 5)
    try:
        return ActionDistribution(L=L, table=np.asarray(table))
    except ContractViolation as e:
        raise ModelFormatError(f"actions: {e}") from e


def load_dist(path) -> ActionDistribution:
    return dist_from_dict(_read_json(path))


def save_dist(dist: ActionDistribution, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(dist_to_dict(dist), f)
        f.write("\n")
