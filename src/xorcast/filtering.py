"""Exact conditional filtering of the hidden channel state.

The filter tracks P(state of the next slot | observed erasure patterns) and
turns it into predicted erasure statistics. The window table enumerates the
same computation for every pattern window of a fixed length L, seeded from
the stationary distribution, or from each hidden state for the refined
table of the region's outer bound.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import reduce
from operator import add, mul

import numpy as np

from .channel import (PATTERN_INDEX, PATTERNS, ChannelModel, _check_seed, _draw_codes,
                      _path_cums, pattern_label, sample_trajectory,  # noqa: F401
                      stationary_distribution)
from .errors import ContractViolation, NumericalFailure, ResourceLimit, ZeroLikelihood

WINDOW_CAP = 10
LANE = 32     # slots per lane of filter_path
PASSES = 3    # lane passes of filter_path before it steps one slot at a time
# parents per _step_batch call of a window-table level: a temporary of 4 * 2048
# doubles, 64 KB, stays below glibc's 128 KB mmap threshold, so a warm table
# build reuses heap pages instead of faulting in fresh ones
_CHUNK = 2048


@dataclass(frozen=True)
class ErasureStats:
    """Next-slot erasure probabilities under some conditioning.

    eps1 and eps2 are the marginal erasure probabilities of receivers 1
    and 2, eps12 is the both-erased probability, eps_n12 is P(received at 1,
    erased at 2) and eps1_n2 is P(erased at 1, received at 2). By
    construction eps1 = eps12 + eps1_n2 and eps2 = eps12 + eps_n12.
    """

    eps1: float
    eps2: float
    eps12: float
    eps_n12: float
    eps1_n2: float

    @classmethod
    def from_pattern_probs(cls, probs) -> "ErasureStats":
        p00, p01, p10, p11 = (float(v) for v in probs)
        return cls(eps1=p10 + p11, eps2=p01 + p11, eps12=p11, eps_n12=p01, eps1_n2=p10)


def init_belief(model: ChannelModel):
    """Belief about the slot-0 state: the stationary distribution."""
    return tuple(float(v) for v in stationary_distribution(model))


def _step(model: ChannelModel, belief, z: int):
    """Condition on pattern index z, then advance one slot.

    Returns (next_belief, likelihood). A zero likelihood returns the belief
    unchanged; callers decide how to treat that. Every sum is a left fold
    over the states in order from 0 (sum() compensates float sums from
    Python 3.12 on), so plain floats, numpy scalars and _step_batch's
    arrays give the same floats.
    """
    post = list(map(mul, belief, model.emission_cols[z]))
    ell = reduce(add, post, 0.0)
    if ell <= 0.0:
        return belief, 0.0
    inv = 1.0 / ell
    return tuple([reduce(add, map(mul, post, col), 0.0) * inv
                  for col in model.transition_cols]), ell


def _step_batch(model: ChannelModel, belief, z):
    """_step over a batch of beliefs, the state along the first axis, with z
    one pattern index for all rows or one per row, broadcast against them;
    the next beliefs come back as a tuple over the states. Every row does
    _step's floating-point operations in _step's order (its folds start from
    the first term, not 0.0, as no term is -0.0); a row of zero likelihood
    keeps its belief and reports likelihood 0."""
    post = list(map(mul, belief, np.take(model.emission, z, axis=1)))
    ell = reduce(add, post)
    dead = ell <= 0.0
    masked = dead.any()
    inv = 1.0 / (np.where(dead, 1.0, ell) if masked else ell)
    nxt = tuple([reduce(add, map(mul, post, col)) * inv for col in model.transition_cols])
    if masked:
        nxt = tuple([np.where(dead, b, v) for b, v in zip(belief, nxt)])
        ell = np.where(dead, 0.0, ell)
    return nxt, ell


def filter_path(model: ChannelModel, belief, codes):
    """The exact filter along the pattern path codes from belief: one array
    of shape (states, n + 1), holding the belief before each slot and, last,
    after the final one. Every value equals the sequential _step chain bit
    for bit, and an impossible pattern raises ZeroLikelihood as filter_step
    does, at the first slot where filter_step would.

    The path is cut into lanes of LANE slots, filtered side by side with
    _step_batch in one (states, lanes, LANE + 1) grid. The first pass starts
    every lane from belief; each later pass starts lane b + 1 where lane b
    ended and re-filters from the first lane whose start changed, until none
    does. Lane 0 starts exact, so a lane whose start no longer changes is
    exact by induction. On a channel that forgets a wrong start to the last
    bit within a lane, two passes suffice. The worst case settles one lane
    per pass, and a batch step costs several sequential ones, so after
    PASSES passes the unsettled lanes run through _step one slot at a time,
    from the first one's exact start.
    """
    n = len(codes)
    lanes = n // LANE + 1                   # slot n, the end, lies in a lane too
    z = np.zeros(lanes * LANE, dtype=np.intp)
    z[:n] = codes
    z = z.reshape(lanes, LANE)
    grid = np.empty((len(belief), lanes, LANE + 1))    # lane b: start, ..., end
    ell = np.empty((lanes, LANE))
    grid[:, :, 0] = np.reshape(belief, (-1, 1))
    first = 0
    for _ in range(PASSES):
        cur = grid[:, first:, 0]
        for t in range(LANE):
            cur, ell[first:, t] = _step_batch(model, cur, z[first:, t])
            grid[:, first:, t + 1] = cur
        changed = (grid[:, first + 1:, 0] != grid[:, first:-1, LANE]).any(axis=0)
        if not changed.any():
            first = lanes
            break
        first += 1 + int(changed.argmax())
        grid[:, first:, 0] = grid[:, first - 1:-1, LANE]
    # path order: slot i is column i % LANE of lane i // LANE
    path = grid[:, :, :LANE].reshape(len(belief), -1)[:, :n + 1]
    ells = ell.reshape(-1)[:n]              # padded slots are not judged
    start = first * LANE
    if start < n:
        b = tuple(path[:, start].tolist())
        seq = []
        for i, zi in enumerate(z.reshape(-1)[start:n].tolist(), start):
            b, ells[i] = _step(model, b, zi)
            seq.append(b)
        path[:, start + 1:] = np.transpose(seq)
    dead = ells <= 0.0
    if dead.any():
        raise ZeroLikelihood(f"pattern {PATTERNS[codes[dead.argmax()]]} has probability "
                             "zero under the current belief")
    return path


def _pattern_arg(pattern) -> int:
    if isinstance(pattern, int):
        if not 0 <= pattern < 4:
            raise ContractViolation(f"pattern index {pattern} out of range")
        return pattern
    return PATTERN_INDEX[tuple(pattern)]


def filter_step(model: ChannelModel, belief, pattern):
    """One exact filter update; raises ZeroLikelihood on impossible patterns."""
    z = _pattern_arg(pattern)
    nxt, ell = _step(model, belief, z)
    if ell <= 0.0:
        raise ZeroLikelihood(
            f"pattern {PATTERNS[z]} has probability zero under the current belief")
    return nxt


def predict_pattern_probs(model: ChannelModel, belief):
    """Distribution of the next slot's erasure pattern given the belief,
    each entry a left fold from its first term, as in _step_batch."""
    return tuple([reduce(add, map(mul, belief, col)) for col in model.emission_cols])


def predict_stats(model: ChannelModel, belief) -> ErasureStats:
    return ErasureStats.from_pattern_probs(predict_pattern_probs(model, belief))


def window_index(codes) -> int:
    """Base-4 index of a window of pattern indices, the oldest most significant."""
    idx = 0
    for c in codes:
        idx = idx * 4 + c
    return idx


def window_codes(idx: int, L: int):
    out = []
    for k in range(L - 1, -1, -1):
        out.append((idx >> (2 * k)) & 3)
    return tuple(out)


def window_label(idx: int, L: int) -> str:
    return ".".join(pattern_label(c) for c in window_codes(idx, L))


@dataclass
class WindowTable:
    """Window probabilities and per-window predictive pattern distributions.

    Row i covers the window with base-4 index i (oldest observation most
    significant). probs[i] is the stationary probability of seeing that
    window; pattern_probs[i] is the predictive distribution of the next
    slot's pattern given it. Windows of probability zero carry the
    prediction from a uniform state belief, by convention.
    """

    L: int
    probs: np.ndarray
    pattern_probs: np.ndarray

    def __len__(self) -> int:
        return self.probs.shape[0]

    def eps_arrays(self):
        """(eps1, eps2, eps12) as vectors over windows."""
        pp = self.pattern_probs
        return pp[:, 2] + pp[:, 3], pp[:, 1] + pp[:, 3], pp[:, 3]


def _check_window_cap(L: int) -> None:
    """Raise ResourceLimit for a window length above WINDOW_CAP, before
    anything of size 4**L is formed."""
    if L > WINDOW_CAP:
        raise ResourceLimit(f"window length {L} exceeds the cap of {WINDOW_CAP}")


def window_table(model: ChannelModel, L: int) -> WindowTable:
    """Enumerate all 4**L windows from the stationary belief (see _extend),
    so each window's probability is exactly its stationary probability. L
    is capped at WINDOW_CAP to bound memory."""
    if L < 1:
        raise ContractViolation("window length must be at least 1")
    _check_window_cap(L)
    return _extend(model, np.reshape(init_belief(model), (-1, 1)), np.ones(1), L)


def _refined_table(model: ChannelModel, L: int) -> WindowTable:
    """The window table refined by the hidden state of the window's oldest
    slot: row s * 4**L + i holds (state s, window i), started from the
    point-mass belief on s with probability pi_s. Its n * 4**L rows are
    capped at 4**WINDOW_CAP."""
    n = model.num_states
    if n * 4 ** L > 4 ** WINDOW_CAP:
        raise ResourceLimit(f"a refined table of {n} x 4**{L} rows exceeds the cap "
                            f"of 4**{WINDOW_CAP}")
    return _extend(model, np.eye(n), stationary_distribution(model), L)


def _extend(model: ChannelModel, belief, probs: np.ndarray, L: int) -> WindowTable:
    """Extend each start row (its belief about the state of the window's
    oldest slot, a column of the (states, rows) array belief, and its
    probability) by all 4**L windows, level by level over prefixes.

    Level d holds one belief and one probability per row and length-d
    prefix, and the children of row i are rows 4i..4i+3 of level d+1, so
    row r * 4**L + i of the last level holds start row r and window i. A
    step is one _step_batch call on (row, pattern) arrays, beliefs of shape
    (states, rows, 1) against the four emission entries, whose C-order
    reshape to (states, rows * 4) is the next level. A level is stepped
    _CHUNK parents at a time, each block carried down to the last level,
    which is written into the table: only the table is held at full size. A
    probability is the start row's times the product of one-step
    likelihoods; an impossible prefix passes probability 0 down its whole
    subtree, and its rows carry the prediction from a uniform belief.
    """
    rows = len(probs) * 4 ** L
    table = WindowTable(L=L, probs=np.empty(rows), pattern_probs=np.empty((rows, 4), order="F"))
    _descend(model, belief, probs, L, table, 0)
    uniform = tuple(1.0 / model.num_states for _ in range(model.num_states))
    table.pattern_probs[table.probs <= 0.0] = predict_pattern_probs(model, uniform)
    total = table.probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise NumericalFailure("window probabilities do not sum to one",
                               {"L": L, "total": float(total)})
    return table


def _descend(model: ChannelModel, belief, probs: np.ndarray, depth: int, table: WindowTable,
             at: int) -> None:
    """Write the rows of table from row at on: the start rows (belief's
    columns, probs) extended by all 4**depth windows, _CHUNK parents a step."""
    for a in range(0, len(probs), _CHUNK):
        b, p = belief[:, a:a + _CHUNK], probs[a:a + _CHUNK]
        start = at + a * 4 ** depth
        if depth:
            b, ell = _step_batch(model, b[:, :, None], np.arange(4))
            p = (p[:, None] * ell).reshape(-1)
        if depth > 1:       # the last level reads the tuple over the states as it is
            b = np.reshape(b, (len(b), -1))
            _descend(model, b, p, depth - 1, table, start)
            continue
        rows = slice(start, start + len(p))
        table.probs[rows] = p
        for k, col in enumerate(predict_pattern_probs(model, b)):
            table.pattern_probs[rows, k] = col.reshape(-1)


def dump_window_table(table: WindowTable, out) -> None:
    """Write the table to the open text file out as CSV with columns
    window, prob, eps1, eps2, eps12, eps_n12, eps1_n2."""
    writer = csv.writer(out)
    writer.writerow(["window", "prob", "eps1", "eps2", "eps12", "eps_n12", "eps1_n2"])
    pp = table.pattern_probs
    cols = (table.probs, *table.eps_arrays(), pp[:, 1], pp[:, 2])
    for i, row in enumerate(zip(*(c.tolist() for c in cols))):
        writer.writerow([window_label(i, table.L)] + [f"{v:.12g}" for v in row])


def _check_horizon(Ls, horizon: int) -> int:
    if min(Ls) < 1:
        raise ContractViolation("window length must be at least 1")
    if horizon <= max(Ls):
        raise ContractViolation("horizon must exceed the window length")
    return horizon - 1


def _tv(full, window):
    """Per history, the TV: the sum over the four patterns of |f - w|, f of
    full and w of window, broadcast against f, as a left fold in place from
    0.0 (each |f - w| is formed in term; 0.0 + |x| is |x|)."""
    tv, term = np.empty((2, *np.shape(full[0])))
    tv.fill(0.0)
    for f, w in zip(full, window):
        tv += np.abs(np.subtract(f, w, out=term), out=term)
    return tv


def _exhaustive_tvs(model: ChannelModel, Ls, horizon: int):
    """exhaustive_forgetting for each window length in Ls, from one full table."""
    full = window_table(model, _check_horizon(Ls, horizon))
    dead = full.probs <= 0.0
    tvs = []
    for L in Ls:
        # history i's window is row i mod 4**L: the last axis of blocks of 4**L rows
        tv = _tv(full.pattern_probs.T.reshape(4, -1, 4 ** L),
                 window_table(model, L).pattern_probs.T).reshape(-1)
        tv[dead] = 0.0
        tvs.append(float(tv.max()))
    return tvs


def exhaustive_forgetting(model: ChannelModel, L: int, horizon: int) -> float:
    """Worst-case total variation between full-history and window predictions.

    Enumerates every positive-probability pattern history of length
    horizon - 1 and compares the prediction for the next slot from the full
    history against the one using only the last L observations. Because full
    histories are themselves windows of length horizon - 1, both sides come
    from window tables; each history's TV is _tv's fold.
    """
    return _exhaustive_tvs(model, (L,), horizon)[0]


def _filter_batch(model: ChannelModel, pi, codes):
    """Beliefs after filtering each column of codes (slots along axis 0)
    from the belief pi; raises ZeroLikelihood as filter_step does."""
    belief = np.repeat(np.reshape(pi, (-1, 1)), codes.shape[1], axis=1)
    for z in codes:
        belief, ell = _step_batch(model, belief, z)
        dead = ell <= 0.0
        if dead.any():
            raise ZeroLikelihood(f"pattern {PATTERNS[z[dead.argmax()]]} has probability "
                                 "zero under the current belief")
    return belief


def _sampled_tvs(model: ChannelModel, Ls, horizon: int, seed: int, samples: int):
    """empirical_forgetting for each window length in Ls, from one draw and its full filter."""
    t = _check_horizon(Ls, horizon)
    _check_seed(seed)
    if samples < 1:
        raise ContractViolation("sample count must be at least 1")
    if samples * t > 4 ** WINDOW_CAP:
        raise ResourceLimit(f"{samples} x {t} sampled slots exceed the cap of 4**{WINDOW_CAP}")
    pi = init_belief(model)
    codes = _draw_codes(_path_cums(model, pi), t, seed, samples)
    full = predict_pattern_probs(model, _filter_batch(model, pi, codes))
    wins = (predict_pattern_probs(model, _filter_batch(model, pi, codes[t - L:])) for L in Ls)
    return [float(_tv(full, win).max()) for win in wins]


def empirical_forgetting(model: ChannelModel, L: int, horizon: int, seed: int,
                         samples: int = 256) -> float:
    """Sampled version of exhaustive_forgetting for horizons too long to
    enumerate. Every history is drawn from the model itself, so all have
    positive probability, by one generator seeded with seed: history k takes
    the next 2 * horizon - 1 doubles of its stream after history k - 1, in
    the order sample_trajectory uses them, so history 0 is
    sample_trajectory(model, horizon - 1, seed)'s. All histories are filtered
    together. The seed must be nonnegative, since random.Random seeds -s as
    s. More than 4**WINDOW_CAP slots in all, a window table's row cap, raise
    ResourceLimit before anything is drawn."""
    return _sampled_tvs(model, (L,), horizon, seed, samples)[0]
