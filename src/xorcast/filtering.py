"""Exact conditional filtering of the hidden channel state.

The filter tracks P(state of the next slot | observed erasure patterns) and
turns it into predicted erasure statistics. The window table enumerates the
same computation for every pattern window of a fixed length L, seeded from
the stationary distribution.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from operator import mul

import numpy as np

from .channel import (PATTERN_INDEX, PATTERNS, ChannelModel, pattern_label,
                      sample_trajectory, stationary_distribution)
from .errors import ContractViolation, NumericalFailure, ResourceLimit, ZeroLikelihood

WINDOW_CAP = 10


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
    unchanged; callers decide how to treat that. Every sum runs over the
    states in order from 0, so a plain-float belief and the same belief as
    numpy scalars give the same floats.
    """
    post = list(map(mul, belief, model.emission_cols[z]))
    ell = sum(post)
    if ell <= 0.0:
        return belief, 0.0
    inv = 1.0 / ell
    return tuple([sum(map(mul, post, col)) * inv for col in model.transition_cols]), ell


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
    """Distribution of the next slot's erasure pattern given the belief."""
    return tuple([sum(map(mul, belief, col)) for col in model.emission_cols])


def predict_stats(model: ChannelModel, belief) -> ErasureStats:
    return ErasureStats.from_pattern_probs(predict_pattern_probs(model, belief))


def window_index(codes) -> int:
    """Base-4 index of a pattern window, oldest slot most significant."""
    idx = 0
    for c in codes:
        if isinstance(c, tuple):
            c = PATTERN_INDEX[c]
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

    def stats(self, idx: int) -> ErasureStats:
        return ErasureStats.from_pattern_probs(self.pattern_probs[idx])

    def label(self, idx: int) -> str:
        return window_label(idx, self.L)

    def eps_arrays(self):
        """(eps1, eps2, eps12) as vectors over windows."""
        pp = self.pattern_probs
        return pp[:, 2] + pp[:, 3], pp[:, 1] + pp[:, 3], pp[:, 3]


def window_table(model: ChannelModel, L: int) -> WindowTable:
    """Enumerate all 4**L windows by depth-first recursion over prefixes.

    Each leaf's probability is the product of one-step likelihoods starting
    from the stationary belief, which is exactly the stationary probability
    of the window. L is capped at WINDOW_CAP to bound memory.
    """
    if L < 1:
        raise ContractViolation("window length must be at least 1")
    if L > WINDOW_CAP:
        raise ResourceLimit(f"window length {L} exceeds the cap of {WINDOW_CAP}")
    m = 4 ** L
    probs = np.zeros(m)
    pattern_probs = np.zeros((m, 4))
    uniform = tuple(1.0 / model.num_states for _ in range(model.num_states))
    uniform_pp = predict_pattern_probs(model, uniform)
    stack = [(0, 0, init_belief(model), 1.0)]
    while stack:
        depth, prefix, belief, prob = stack.pop()
        if depth == L:
            probs[prefix] = prob
            pattern_probs[prefix] = predict_pattern_probs(model, belief)
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
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise NumericalFailure("window probabilities do not sum to one",
                               {"L": L, "total": float(total)})
    return WindowTable(L=L, probs=probs, pattern_probs=pattern_probs)


def dump_window_table(table: WindowTable, out) -> None:
    """Write the table as CSV with columns window, prob, eps1, eps2, eps12,
    eps_n12, eps1_n2. Accepts a path or an open text file."""
    close = False
    if isinstance(out, (str, bytes)) or hasattr(out, "__fspath__"):
        out = open(out, "w", encoding="utf-8", newline="")
        close = True
    try:
        writer = csv.writer(out)
        writer.writerow(["window", "prob", "eps1", "eps2", "eps12", "eps_n12", "eps1_n2"])
        for i in range(len(table)):
            st = table.stats(i)
            writer.writerow([table.label(i)] + [
                f"{v:.12g}" for v in
                (table.probs[i], st.eps1, st.eps2, st.eps12, st.eps_n12, st.eps1_n2)])
    finally:
        if close:
            out.close()


def _check_horizon(L: int, horizon: int) -> int:
    if L < 1:
        raise ContractViolation("window length must be at least 1")
    if horizon <= L:
        raise ContractViolation("horizon must exceed the window length")
    return horizon - 1


def exhaustive_forgetting(model: ChannelModel, L: int, horizon: int) -> float:
    """Worst-case total variation between full-history and window predictions.

    Enumerates every positive-probability pattern history of length
    horizon - 1 and compares the prediction for the next slot from the full
    history against the one using only the last L observations. Because full
    histories are themselves windows of length horizon - 1, both sides come
    from window tables; the length-L suffix of history index i is i mod 4**L.
    """
    t = _check_horizon(L, horizon)
    full = window_table(model, t)
    win = window_table(model, L)
    idx = np.arange(4 ** t) % (4 ** L)
    diffs = np.abs(full.pattern_probs - win.pattern_probs[idx]).sum(axis=1)
    diffs[full.probs <= 0.0] = 0.0
    return float(diffs.max())


def empirical_forgetting(model: ChannelModel, L: int, horizon: int, seed: int,
                         samples: int = 256) -> float:
    """Sampled version of exhaustive_forgetting for horizons too long to
    enumerate. Histories are drawn from the model itself, so all have
    positive probability. Deterministic in the seed."""
    t = _check_horizon(L, horizon)
    worst = 0.0
    pi = init_belief(model)
    for k in range(samples):
        _, patterns = sample_trajectory(model, t, seed + k)
        full = pi
        for p in patterns:
            full = filter_step(model, full, p)
        tail = pi
        for p in patterns[-L:]:
            tail = filter_step(model, tail, p)
        a = predict_pattern_probs(model, full)
        b = predict_pattern_probs(model, tail)
        worst = max(worst, sum(abs(u - v) for u, v in zip(a, b)))
    return worst
