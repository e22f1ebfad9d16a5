"""Hidden-Markov models of the two-receiver erasure channel state.

A model is a finite-state Markov chain together with a per-state
distribution over the four erasure patterns (z1, z2), where z = 1 means
the corresponding receiver erased the slot. The pattern order is fixed
everywhere in the package: (0,0), (0,1), (1,0), (1,1).
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ModelFormatError, NoUniqueStationary, StructuralError

PATTERNS = ((0, 0), (0, 1), (1, 0), (1, 1))
PATTERN_INDEX = {p: i for i, p in enumerate(PATTERNS)}
ROW_SUM_TOL = 1e-12   # a stochastic row may miss a sum of one by this much
BALANCE_TOL = 1e-10   # largest residual of pi T = pi a stationary pi may leave


def pattern_label(idx: int) -> str:
    z1, z2 = PATTERNS[idx]
    return f"{z1}{z2}"


class ChannelModel:
    """Transition matrix over hidden states plus per-state pattern probabilities.

    transition has shape (n, n) and emission (n, 4), both row-stochastic.
    Shape problems raise StructuralError; probabilistic validity is checked
    separately by validate_model so that broken models can still be inspected.
    """

    def __init__(self, transition, emission, labels=None):
        t = np.array(transition, dtype=float)
        e = np.array(emission, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] < 1:
            raise StructuralError(f"transition must be a square matrix, got shape {t.shape}")
        if e.ndim != 2 or e.shape != (t.shape[0], 4):
            raise StructuralError(f"emission must have shape ({t.shape[0]}, 4), got {e.shape}")
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != t.shape[0]:
                raise StructuralError("labels length does not match the state count")
        t.setflags(write=False)
        e.setflags(write=False)
        self.transition = t
        self.emission = e
        self.labels = labels
        self.num_states = int(t.shape[0])
        # plain-float copies, as model_to_dict writes them
        self.transition_rows = tuple(tuple(float(v) for v in row) for row in t)
        self.emission_rows = tuple(tuple(float(v) for v in row) for row in e)
        # columns of the same floats: the filter kernel takes dot products with them
        self.transition_cols = tuple(zip(*self.transition_rows))
        self.emission_cols = tuple(zip(*self.emission_rows))

    def __repr__(self):
        return f"ChannelModel(states={self.num_states})"


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str]
    strictly_positive: bool
    irreducible: bool
    aperiodic: bool


def _closure(adj: np.ndarray) -> np.ndarray:
    """Reachability of the support graph: reach[i, j] is True when state j
    can be reached from state i in zero or more steps. Squares adj | I
    until nothing changes."""
    reach = adj | np.eye(adj.shape[0], dtype=bool)
    while True:
        nxt = reach @ reach
        if (nxt == reach).all():
            return reach
        reach = nxt


def _aperiodic_flag(adj: np.ndarray, reach: np.ndarray) -> bool:
    """True when every cycle-carrying component has period one.

    Row i of reach & reach.T is the component of state i. A component of
    k > 1 states has period one iff its support submatrix is primitive, that
    is iff its 2^j-th boolean power is all True once 2^j >= (k - 1)^2 + 1
    (Wielandt's bound). States that lie on no cycle are ignored.
    """
    for i, comp in enumerate(reach & reach.T):
        if comp.argmax() < i:   # checked already, from its lowest state
            continue
        k = int(comp.sum())
        if k == 1:   # a self-loop has period one; no loop, no cycle
            continue
        power = adj[comp][:, comp]
        for _ in range(((k - 1) ** 2).bit_length()):   # to a power 2^j > (k - 1)^2
            power = power @ power
        if not power.all():
            return False
    return True


def validate_model(model: ChannelModel) -> ValidationReport:
    """Check stochasticity (rows sum to one within ROW_SUM_TOL), entry
    ranges, irreducibility and aperiodicity.

    Structural problems (wrong shapes) are raised by the ChannelModel
    constructor; everything else lands in the violations list.
    """
    violations: list[str] = []
    for name, mat in (("transition", model.transition), ("emission", model.emission)):
        # written so that nan fails: it compares false with everything
        if not np.all((mat >= 0.0) & (mat <= 1.0)):
            violations.append(f"{name} has entries outside [0, 1]")
        sums = mat.sum(axis=1)
        for i in np.flatnonzero(~(np.abs(sums - 1.0) <= ROW_SUM_TOL)):
            violations.append(f"{name} row {int(i)} sums to {sums[i]:.17g}")
    support = model.transition > 0.0
    reach = _closure(support)
    strictly_positive = bool(np.all(model.transition > 0.0) and np.all(model.emission > 0.0))
    irreducible = bool(reach.all())
    aperiodic = _aperiodic_flag(support, reach)
    if not irreducible:
        violations.append("transition support graph is not strongly connected")
    if not aperiodic:
        violations.append("chain has period greater than one")
    return ValidationReport(not violations, violations, strictly_positive, irreducible, aperiodic)


def stationary_distribution(model: ChannelModel) -> np.ndarray:
    """Unique stationary distribution of the transition matrix.

    Solved as an augmented linear system by least squares, clipped to be
    nonnegative, normalized and verified to satisfy the balance equations
    within BALANCE_TOL. Reducible chains, a matrix with an entry that is
    not finite (refused before LAPACK sees it), and any chain the solve
    cannot meet the balance equations on raise NoUniqueStationary.
    """
    t = model.transition
    n = model.num_states
    if not np.isfinite(t).all():
        raise NoUniqueStationary("transition matrix has an entry that is not finite")
    if not _closure(t > 0.0).all():
        raise NoUniqueStationary("transition support graph is not strongly connected")
    a = np.vstack([t.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[n] = 1.0
    try:
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    except np.linalg.LinAlgError as e:
        raise NoUniqueStationary(f"stationary solve failed: {e}") from e
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if not total > 0.0:
        raise NoUniqueStationary("stationary solve returned no probability mass")
    pi = pi / total
    if np.max(np.abs(pi @ t - pi)) > BALANCE_TOL:
        raise NoUniqueStationary("balance equations not satisfied; chain is numerically reducible")
    return pi


def _uniforms(rng: random.Random, k: int) -> np.ndarray:
    """The k doubles that k rng.random() calls return, advancing rng past
    them. They are made of the 2k 32-bit words those calls consume, taken
    in order as little-endian bytes (getrandbits lays its words out least
    significant first): two words each, the first first, as
    (a >> 5) * 2**26 + (b >> 6) over 2**53."""
    w = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), "<u4")
    u = (w[0::2] >> 5) * 67108864.0
    u += w[1::2] >> 6
    u /= 9007199254740992.0
    return u


def _pick(cum, u):
    """The package's sampling rule, over the last axis of cum against u
    (broadcast to cum's other axes): the index of the first cumulative entry
    above u, else the last index. For a nondecreasing row that is the count
    of entries at or below u among all but the last, and every row drawn
    from in the package is one: a running sum of nonnegative
    probabilities. It is counted one column at a time."""
    count = np.zeros(np.broadcast_shapes(cum.shape[:-1], u.shape), dtype=np.intp)
    for j in range(cum.shape[-1] - 1):
        count += cum[..., j] <= u
    return count


def _check_seed(seed: int) -> None:
    # random.Random seeds an int by its absolute value, so -s would replay s
    if seed < 0:
        raise ContractViolation(f"seed {seed} is negative; seeds are nonnegative integers")


def _path_cums(model: ChannelModel, pi):
    """Cumulative rows of the start distribution pi, the transitions and the
    emissions as arrays: what drawing a channel path needs."""
    return (np.cumsum(pi), np.cumsum(model.transition, axis=-1),
            np.cumsum(model.emission, axis=-1))


def _walk(cums, s: int, u_pat, u_next):
    """The slots whose pattern and next-state doubles are u_pat and u_next,
    from hidden state s: returns (states, codes, s) with the state and
    pattern index of each slot and the state after the last. Only the walk
    along the states is sequential; its next-state candidates are picked
    beforehand, one list per state."""
    _pi_cum, t_cum, e_cum = cums
    nxt = [_pick(row, u_next).tolist() for row in t_cum]
    states = []
    for i in range(len(u_next)):
        states.append(s)
        s = nxt[s][i]
    return states, _pick(np.take(e_cum, states, axis=0), u_pat), s


def _draw_codes(cums, n: int, seed: int, samples: int):
    """Pattern indices of n slots for each of samples paths (one column
    each) from the start distribution of cums, all from one generator seeded
    with seed: path k takes doubles k(2n + 1) to (k + 1)(2n + 1) - 1 of its
    stream, in the order sample_trajectory uses them. So path 0 is
    sample_trajectory's for seed, and fewer samples draw a prefix of more."""
    pi_cum, t_cum, e_cum = cums
    u = _uniforms(random.Random(seed), samples * (2 * n + 1))
    u = np.ascontiguousarray(u.reshape(samples, 2 * n + 1).T)   # row j: double j of each path
    s = _pick(pi_cum, u[0])
    codes = np.empty((n, samples), dtype=np.intp)
    for i in range(n):
        codes[i] = _pick(np.take(e_cum, s, axis=0), u[2 * i + 1])
        s = _pick(np.take(t_cum, s, axis=0), u[2 * i + 2])
    return codes


def sample_trajectory(model: ChannelModel, n: int, seed: int):
    """Sample n slots of hidden states and erasure patterns.

    The slot-0 state is drawn from the stationary distribution, then per
    slot its pattern and the next state. Returns (states, patterns) where
    patterns are (z1, z2) tuples. Deterministic in the seed, which must be
    nonnegative, and so must n be.
    """
    _check_seed(seed)
    if n < 0:
        raise ContractViolation("n must be nonnegative")
    cums = _path_cums(model, stationary_distribution(model))
    u = _uniforms(random.Random(seed), 2 * n + 1)
    states, codes, _s = _walk(cums, int(_pick(cums[0], u[:1])[0]), u[1::2], u[2::2])
    return states, [PATTERNS[z] for z in codes.tolist()]


def forgetting_rate_bound(model: ChannelModel) -> float | None:
    """Geometric forgetting rate sigma in (0, 1], or None when unavailable.

    Observations more than L slots old perturb the predicted erasure
    statistics by at most forgetting_margin(model, L) in total variation. The rate
    used here is num_states * min(transition) * min(emission) / max(emission),
    clamped to 1. A single-state model carries no hidden memory at all, so
    sigma is 1 regardless of its emission row. Any zero transition or
    emission entry voids the bound and returns None.
    """
    if model.num_states == 1:
        return 1.0
    t, e = model.transition, model.emission
    if np.any(t <= 0.0) or np.any(e <= 0.0):
        return None
    sigma = model.num_states * float(t.min()) * float(e.min()) / float(e.max())
    return min(sigma, 1.0)


def forgetting_margin(model: ChannelModel, L: int) -> float | None:
    """The total-variation bound 2 * (1 - sigma) ** L on what observations
    more than L slots old change, or None when forgetting_rate_bound is."""
    sigma = forgetting_rate_bound(model)
    return None if sigma is None else 2.0 * (1.0 - sigma) ** L


def model_to_dict(model: ChannelModel) -> dict:
    out = {
        "states": model.num_states,
        "transition": [list(row) for row in model.transition_rows],
        "emission": [list(row) for row in model.emission_rows],
    }
    if model.labels is not None:
        out["labels"] = list(model.labels)
    return out


def _parse_matrix(rows, name: str, nrows: int, ncols: int):
    if not isinstance(rows, list) or len(rows) != nrows:
        got = len(rows) if isinstance(rows, list) else type(rows).__name__
        raise ModelFormatError(f"{name}: expected {nrows} rows, got {got}")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != ncols:
            raise ModelFormatError(f"{name}[{i}]: expected a list of {ncols} numbers")
        vals = []
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ModelFormatError(
                    f"{name}[{i}][{j}]: expected a number, got {type(v).__name__}")
            try:
                vals.append(float(v))
            except OverflowError as e:
                raise ModelFormatError(f"{name}[{i}][{j}]: number out of range") from e
        out.append(vals)
    return out


def model_from_dict(obj) -> ChannelModel:
    """Build and validate a model from its JSON dictionary form.

    Schema: {"states": n, "transition": n x n, "emission": n x 4,
    "labels": [n strings], optional}. Any schema or validity violation
    raises ModelFormatError naming the offending field.
    """
    if not isinstance(obj, dict):
        raise ModelFormatError(f"top level: expected an object, got {type(obj).__name__}")
    allowed = {"states", "transition", "emission", "labels"}
    for key in sorted(set(obj) - allowed):
        raise ModelFormatError(f"unknown key {key!r}")
    for key in ("states", "transition", "emission"):
        if key not in obj:
            raise ModelFormatError(f"missing key {key!r}")
    n = obj["states"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ModelFormatError("states: expected a positive integer")
    transition = _parse_matrix(obj["transition"], "transition", n, n)
    emission = _parse_matrix(obj["emission"], "emission", n, 4)
    labels = None
    if "labels" in obj:
        raw = obj["labels"]
        if not isinstance(raw, list) or len(raw) != n or not all(isinstance(s, str) for s in raw):
            raise ModelFormatError(f"labels: expected a list of {n} strings")
        labels = raw
    model = ChannelModel(transition, emission, labels)
    report = validate_model(model)
    if not report.ok:
        raise ModelFormatError("invalid model: " + "; ".join(report.violations))
    return model


def _read_json(path):
    """The JSON value in the file at path; text that is not UTF-8 raises
    ModelFormatError, and so does a syntax error, with its line and column,
    a value nested deeper than the decoder's recursion limit and an integer
    longer than the interpreter converts."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except UnicodeDecodeError as e:
        raise ModelFormatError(f"not UTF-8 text: {e.reason}") from e
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"line {e.lineno} column {e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise ModelFormatError("JSON value nested too deeply") from e
    except ValueError as e:     # the interpreter's digit limit on int()
        raise ModelFormatError(f"integer longer than {sys.get_int_max_str_digits()} "
                               "digits") from e


def load_model(path) -> ChannelModel:
    return model_from_dict(_read_json(path))


def save_model(model: ChannelModel, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(model_to_dict(model), f, indent=2)
        f.write("\n")
