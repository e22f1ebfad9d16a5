"""Slotted simulation of the two feedback coding schemes on a queue network.

Each receiver's undelivered data lives in three pools: fresh packets (q1),
packets overheard by the wrong receiver and awaiting an XOR opportunity
(q2), and poisoned pairs parked after a fresh-pair mixture was heard
somewhere (q3, shared, one entry per pair). Feedback is immediate and
error-free, so every queue move is driven by the realized erasure pattern
of the slot.

q2 entries are (account_id, transmit_id): the packet credited on delivery
versus the bits actually sent on air. They differ after a partial remedy
reception, where the stored remedy packet stands in as a proxy for the
pair-mate that still needs conveying; the proxy is always known to the
opposite receiver, which keeps XOR coding decodable.
"""

from __future__ import annotations

import functools
import gc
import json
import random
import re
import sys
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

from .channel import ChannelModel, _check_seed, _path_cums, _pick, _uniforms, _walk
from .errors import ContractViolation, NumericalFailure, TraceFormatError
# the traced benchmark wraps filter_step and predict_stats by name in this module
from .filtering import (filter_path, filter_step, init_belief,  # noqa: F401
                        predict_pattern_probs, predict_stats)

if TYPE_CHECKING:   # read by an annotation only: region would load the LP code too
    from .region import ActionDistribution

IDLE = 0
FRESH1 = 1
FRESH2 = 2
XOR_BACKLOG = 3
MIX_FRESH = 4
REMEDY = 5
SUB1 = "sub1"   # lone uncoded retransmission from q2 of receiver 1
SUB2 = "sub2"

CHECKPOINTS = 4096      # about this many backlog checkpoints per run
WARMUP_FRAC = 0.1       # share of a run's first slots left out of throughput
SLOPE_STABLE = 1e-4     # stability verdict thresholds, packets per slot
SLOPE_UNSTABLE = 1e-2
BACKLOG_BOUND = 500.0   # largest mean backlog of a Stable run, packets
BLOCK = 8192            # slots whose channel side and arrivals simulate computes at once

_COUNT_KEYS = {IDLE: "idle", FRESH1: "fresh1", FRESH2: "fresh2", XOR_BACKLOG: "xor",
               MIX_FRESH: "mix", REMEDY: "remedy", SUB1: "sub1", SUB2: "sub2"}


def _gc_paused(fn):
    """Run fn with the cyclic garbage collector paused, then restore the
    collector's state on entry, also when fn raises.

    Only for functions that build many long-lived containers and never a
    reference cycle: the collector would walk them again and again (a
    trace row reaches the oldest generation still tracked) and free
    nothing, while reference counting frees all they drop.

    On exit everything young moves to the oldest generation unwalked:
    gc.freeze() and gc.unfreeze() each splice a list, and unfreeze puts the
    frozen objects into the oldest generation, which only a full collection
    walks. Otherwise the first young collection after fn walks all it built.
    A caller who froze objects keeps them frozen: with a nonzero freeze
    count nothing moves.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if gc.get_freeze_count() == 0:
                gc.freeze()
                gc.unfreeze()
            if enabled:
                gc.enable()
    return paused


def substitute_action(sampled: int, n11: int, n12: int, n21: int, n22: int, n3: int):
    """Feasibility ladder of the probabilistic scheme, for a sampled
    transmit action 1..5 and the queue lengths: n1j and n2j are the fresh
    and overheard queues of receiver j, n3 the poisoned pairs.

    A sampled action with an empty source idles, except two that send the
    head of an overheard queue uncoded (SUBj): the backlog XOR when only
    receiver j's holds packets, and FRESHj when receiver j has none fresh.
    """
    if sampled == FRESH1:
        return FRESH1 if n11 else SUB1 if n21 else IDLE
    if sampled == FRESH2:
        return FRESH2 if n12 else SUB2 if n22 else IDLE
    if sampled == XOR_BACKLOG:
        if n21:
            return XOR_BACKLOG if n22 else SUB1
        return SUB2 if n22 else IDLE
    if sampled == MIX_FRESH:
        return MIX_FRESH if n11 and n12 else IDLE
    if sampled == REMEDY:
        return REMEDY if n3 else IDLE
    raise ContractViolation(f"unknown action {sampled!r}")


def maxweight_action(n11: int, n12: int, n21: int, n22: int, n3: int,
                     p01: float, p10: float, p11: float):
    """Pick the feasible action of maximal weight; ties go to the lowest
    action index, and an empty system idles.

    The queue lengths are substitute_action's; p01 = eps_n12, p10 = eps1_n2
    and p11 = eps12 are the predicted pattern probabilities of the slot.
    An action's weight is its backpressure over its arcs in region._ARCS,
    the sum of P(event) (n_from - n_to) with n4 = 0, written out for speed.
    The overheard queues score together when either is nonempty: the
    backlog XOR serves both, a lone retransmission (SUB1 or SUB2) the only
    one.
    """
    e1, e2, e12 = p10 + p11, p01 + p11, p11
    only2, only1 = p10, p01
    best = IDLE
    best_w = None
    if n11:
        best, best_w = FRESH1, (1.0 - e1) * n11 + only2 * (n11 - n21)
    if n12:
        w = (1.0 - e2) * n12 + only1 * (n12 - n22)
        if best_w is None or w > best_w:
            best, best_w = FRESH2, w
    if n21 or n22:
        w = (1.0 - e1) * n21 + (1.0 - e2) * n22
        if best_w is None or w > best_w:
            best, best_w = (XOR_BACKLOG if n21 and n22 else SUB1 if n21 else SUB2), w
    if n11 and n12:
        w = (1.0 - e12) * (n11 - n3 + n12 - n3)
        if best_w is None or w > best_w:
            best, best_w = MIX_FRESH, w
    if n3:
        w = (only2 * (n3 - n21) + (1.0 - e1) * n3 +
             only1 * (n3 - n22) + (1.0 - e2) * n3)
        if best_w is None or w > best_w:
            best, best_w = REMEDY, w
    return best


@dataclass
class SimReport:
    scheduler: str
    R1: float
    R2: float
    n: int
    seed: int
    arrivals: tuple
    delivered: tuple
    action_counts: dict
    checkpoints: list            # (slot, backlog, delivered1, delivered2)
    final_backlog: int
    warmup: int
    trace: list | None = field(default=None, repr=False)
    slot_rows: list | None = field(default=None, repr=False)

    def throughput(self) -> tuple:
        """Delivery rate per receiver from the last checkpoint at or before
        the warmup to the end of the run."""
        start = base1 = base2 = 0
        for slot, _b, d1, d2 in self.checkpoints:
            if slot <= self.warmup:
                start, base1, base2 = slot, d1, d2
        span = self.n - start
        return ((self.delivered[0] - base1) / span, (self.delivered[1] - base2) / span)


@_gc_paused
def simulate(model: ChannelModel, scheduler: str, R1: float, R2: float, n: int,
             seed: int, dist: ActionDistribution | None = None,
             collect_trace: bool = False, collect_slots: bool = False) -> SimReport:
    """Run n slots of one scheduler against a sampled channel path.

    Bernoulli arrivals at rates R1, R2. The seed, a nonnegative integer,
    fixes the whole run: after one double for the slot-0 state, each slot
    takes its doubles in a fixed order (arrival 1, arrival 2, action sample
    for the probabilistic scheduler, erasure pattern, next state). Idle
    slots still advance the channel and the filter.

    The probabilistic scheduler samples from dist's row for the current
    window of past patterns (seeded as all-clear) and never looks at queue
    sizes beyond the feasibility ladder. The max-weight scheduler tracks
    the exact state filter instead and needs no distribution.

    Nothing on the channel side or the arrivals depends on the queues, so
    they are computed BLOCK slots at a time: the doubles
    (channel._uniforms), the hidden-state path and its patterns, the
    probabilistic window and its sampled action, every pick by
    channel._pick's rule, the max-weight belief (filtering.filter_path, bit
    for bit the sequential filter), and the arrivals, whose ids are numbered
    in slot order, receiver 1 before receiver 2, and appended to the fresh
    queues once per block. A pattern of zero likelihood raises
    ZeroLikelihood before its block's slots run.

    Each queue is kept once. Fresh queue j is receiver j's list of ids,
    trimmed of departed ones at each block start so that an untraced run's
    memory stays bounded in n, and its departure count: its length is its
    arrivals so far less its departures, and its head is found by index.
    The overheard queues and the pairs are deques. The action rules
    (substitute_action, maxweight_action) read only the queue lengths. Each
    action's branch moves the queues, counts the deliveries and sets the
    combination on air, the claims and the action code; one tail then
    appends the trace row (none for IDLE) and the slot row. Each checkpoint
    checks that every packet gone from fresh queue j is in its overheard
    queue or a pair, or was delivered, and raises NumericalFailure if not.
    Slot n is always a checkpoint, and its backlog is final_backlog.

    A run builds no reference cycle, so the cyclic garbage collector is
    paused while it runs (_gc_paused): otherwise its full collections walk
    every trace row again and free nothing. On return what the run built
    sits in the oldest generation, so no young collection walks it either.
    """
    if scheduler not in ("maxweight", "probabilistic"):
        raise ContractViolation(f"unknown scheduler {scheduler!r}")
    if not (0.0 <= R1 <= 1.0 and 0.0 <= R2 <= 1.0):
        raise ContractViolation("arrival rates must lie in [0, 1]")
    if n < 1:
        raise ContractViolation("n must be positive")
    _check_seed(seed)
    probabilistic = scheduler == "probabilistic"
    if probabilistic:
        if dist is None:
            raise ContractViolation("the probabilistic scheduler needs an action distribution")
        cum_rows = np.cumsum(dist.table, axis=-1)
        tail = np.zeros(dist.L, dtype=np.intp)   # the window starts all-clear
    rng = random.Random(seed)
    belief = init_belief(model)
    cums = _path_cums(model, belief)
    width = 5 if probabilistic else 4    # doubles per slot
    # fresh1, fresh2: receiver j's ids from the first not gone at the block
    # start, so the head of fresh queue j is fresh_j[gone_j - cut_j];
    # over1, over2: (account_id, transmit_id) entries; pairs: (id_rx1,
    # id_rx2, remedy_id) of each poisoned pair
    fresh1, fresh2, over1, over2, pairs = [], [], deque(), deque(), deque()
    total1 = total2 = 0     # arrivals up to the end of the block
    gone1 = gone2 = 0       # departures from the fresh queues
    cut1 = cut2 = 0         # departures up to the block start
    done1 = done2 = 0       # deliveries
    counts = dict.fromkeys(_COUNT_KEYS, 0)
    cp = max(1, n // CHECKPOINTS)
    next_cp = min(cp, n)      # checkpoints follow slots cp, 2 cp, ... and n
    warmup = int(n * WARMUP_FRAC)
    checkpoints = []
    trace = [] if collect_trace else None
    record = trace.append if collect_trace else None
    slot_rows = [] if collect_slots else None

    s = int(_pick(cums[0], _uniforms(rng, 1))[0])
    for base in range(0, n, BLOCK):
        m = min(BLOCK, n - base)
        u = _uniforms(rng, m * width).reshape(m, width)
        codes, s = _walk(cums, s, u[:, -2], u[:, -1])[1:]   # drops the states
        if probabilistic:
            # the window of slot i is the L patterns before it, oldest first
            ext = np.concatenate((tail, codes))
            wins = np.zeros(m, dtype=np.intp)
            for k in range(dist.L):
                wins = (wins << 2) | ext[k:k + m]
            tail = ext[m:]
            # the one rule column: the sampled action of each slot
            lead = (_pick(np.take(cum_rows, wins, axis=0), u[:, 2]) + 1).tolist()
            p10s = p11s = repeat(None)
        else:
            beliefs = filter_path(model, belief, codes)
            belief = beliefs[:, -1]
            # the rule columns p01, p10 and p11 of each slot
            _p00, *probs = predict_pattern_probs(model, beliefs[:, :-1])
            lead, p10s, p11s = (col.tolist() for col in probs)
        new1 = u[:, 0] < R1
        new2 = u[:, 1] < R2
        upto1 = np.cumsum(new1)
        upto2 = np.cumsum(new2)
        taken = total1 + total2 + upto1 + upto2     # ids taken up to each slot
        del fresh1[:gone1 - cut1], fresh2[:gone2 - cut2]
        cut1, cut2 = gone1, gone2
        fresh1.extend((taken - 1 - new2)[new1].tolist())
        fresh2.extend((taken - 1)[new2].tolist())
        arrived1 = (total1 + upto1).tolist()
        arrived2 = (total2 + upto2).tolist()
        total1 += int(upto1[-1])
        total2 += int(upto2[-1])
        # PATTERNS[code] is (code >> 1, code & 1): receiver 1 hears codes 0
        # and 1, receiver 2 the even codes
        for slot, h1, h2, a1, a2, first, p10, p11 in zip(
                range(base, base + m), (codes < 2).tolist(), ((codes & 1) == 0).tolist(),
                arrived1, arrived2, lead, p10s, p11s):
            if probabilistic:
                action = substitute_action(first, a1 - gone1, a2 - gone2,
                                           len(over1), len(over2), len(pairs))
            else:
                action = maxweight_action(a1 - gone1, a2 - gone2, len(over1), len(over2),
                                          len(pairs), first, p10, p11)
            counts[action] += 1
            code = action
            got = ()
            if action == IDLE:
                pass
            elif action == FRESH1:
                p = fresh1[gone1 - cut1]
                combo = (p,)
                if h1:
                    gone1 += 1
                    done1 += 1
                    got = ((1, p),)
                elif h2:
                    gone1 += 1
                    over1.append((p, p))
            elif action == FRESH2:
                p = fresh2[gone2 - cut2]
                combo = (p,)
                if h2:
                    gone2 += 1
                    done2 += 1
                    got = ((2, p),)
                elif h1:
                    gone2 += 1
                    over2.append((p, p))
            elif action == XOR_BACKLOG:
                acct1, t1 = over1[0]
                acct2, t2 = over2[0]
                combo = (t1, t2) if t1 < t2 else (t2, t1)
                if h1:
                    over1.popleft()
                    done1 += 1
                    got = ((1, acct1),)
                if h2:
                    over2.popleft()
                    done2 += 1
                    got += ((2, acct2),)
            elif action == MIX_FRESH:
                p1 = fresh1[gone1 - cut1]
                p2 = fresh2[gone2 - cut2]
                combo = (p1, p2) if p1 < p2 else (p2, p1)
                if h1 or h2:
                    gone1 += 1
                    gone2 += 1
                    # the remedy is the packet of the receiver that missed
                    # the mixture, receiver 1's when both heard it
                    pairs.append((p1, p2, p1 if h2 else p2))
            elif action == REMEDY:
                p1, p2, remedy = pairs[0]
                combo = (remedy,)
                if h1 or h2:
                    pairs.popleft()
                    # a receiver that missed the remedy still needs its
                    # packet, and the remedy stands in for it on air
                    if h1:
                        done1 += 1
                        got = ((1, p1),)
                    else:
                        over1.append((p1, remedy))
                    if h2:
                        done2 += 1
                        got += ((2, p2),)
                    else:
                        over2.append((p2, remedy))
            elif action == SUB1:
                acct1, t1 = over1[0]
                combo = (t1,)
                code = XOR_BACKLOG
                if h1:
                    over1.popleft()
                    done1 += 1
                    got = ((1, acct1),)
                # else receiver 2 already knows t1: no move
            else:   # SUB2
                acct2, t2 = over2[0]
                combo = (t2,)
                code = XOR_BACKLOG
                if h2:
                    over2.popleft()
                    done2 += 1
                    got = ((2, acct2),)
            if record is not None and code:     # no trace row for IDLE
                record((slot, code, combo, h1, h2, got))
            if slot_rows is not None or slot + 1 == next_cp:
                backlog = a1 - gone1 + a2 - gone2 + len(over1) + len(over2) + 2 * len(pairs)
                if slot_rows is not None:
                    slot_rows.append((slot, code, 1 - h1, 1 - h2, backlog, done1, done2))
                if slot + 1 == next_cp:
                    # every packet that left fresh queue j sits in its
                    # overheard queue or in a pair, or was delivered
                    for j, arrived, gone, over, done in ((1, a1, gone1, over1, done1),
                                                         (2, a2, gone2, over2, done2)):
                        held = arrived - gone + len(over) + len(pairs) + done
                        if held != arrived:
                            raise NumericalFailure("packet conservation broken",
                                                   {"receiver": j, "slot": slot + 1,
                                                    "held": held, "arrivals": arrived})
                    checkpoints.append((slot + 1, backlog, done1, done2))
                    next_cp = min(next_cp + cp, n)
    return SimReport(scheduler=scheduler, R1=R1, R2=R2, n=n, seed=seed,
                     arrivals=(total1, total2), delivered=(done1, done2),
                     action_counts={_COUNT_KEYS[a]: c for a, c in counts.items()},
                     checkpoints=checkpoints,
                     final_backlog=checkpoints[-1][1], warmup=warmup, trace=trace,
                     slot_rows=slot_rows)


def stability_verdict(report: SimReport) -> str:
    """Classify a run as Stable, Unstable or Inconclusive.

    Fits a least-squares line to the backlog over the last half of the run:
    Stable needs both a flat slope (<= SLOPE_STABLE packets per slot) and a
    mean backlog of at most BACKLOG_BOUND; a slope >= SLOPE_UNSTABLE is
    Unstable; anything in between stays Inconclusive. Runs shorter than
    10**4 slots are refused.
    """
    if report.n < 10_000:
        raise ContractViolation("a stability verdict needs at least 10^4 slots")
    half = report.n / 2
    xs = [c[0] for c in report.checkpoints if c[0] >= half]
    ys = [c[1] for c in report.checkpoints if c[0] >= half]
    if len(xs) < 2:
        raise ContractViolation("not enough checkpoints in the last half of the run")
    slope = float(np.polyfit(xs, ys, 1)[0])
    mean = float(np.mean(ys))
    if slope <= SLOPE_STABLE and mean <= BACKLOG_BOUND:
        return "Stable"
    if slope >= SLOPE_UNSTABLE:
        return "Unstable"
    return "Inconclusive"


def _well_formed(combo) -> bool:
    """The trace contract: a combination is one packet id or two distinct ones."""
    return len(combo) == 1 or (len(combo) == 2 and combo[0] != combo[1])


@dataclass
class DecodeReport:
    ok: bool
    receiver_ok: tuple
    failures: list   # (receiver, packet_id, slot), first failure per receiver


def decode_verify(trace) -> DecodeReport:
    """Replay a trace and check every claimed delivery is linearly decodable.

    Each receiver accumulates the GF(2) span of the combinations it heard;
    a delivery claim fails if the packet is outside the span at claim time.
    The trace contract limits every combination to one packet id or two
    distinct ones, as the simulator sends them, and every delivery claim to
    receiver 1 or 2; anything else raises ContractViolation.

    Under that limit the span is a graph question. The weight-2 vectors
    e_a + e_b a receiver heard are the edges of a graph on packet ids, and
    a component is grounded once it holds a heard weight-1 vector. e_p lies
    in the span exactly when p's component is grounded: a path from p to a
    grounded id sums with that singleton to e_p, while every sum of edges
    has even weight on a component.

    So each receiver keeps the set known of the ids it has decoded, and
    pending, which maps every id it heard only inside sums to that id's
    undecoded component, and a claim holds when its id is in known. A
    heard singleton decodes its component; an edge with one end decoded
    decodes the other end's component; an edge between two undecoded ids
    joins their components, smaller into larger (weighted set merging,
    Hopcroft & Ullman 1973), so no id moves more than log2 n times; an
    edge inside one component or between decoded ids changes nothing.
    Each rule keeps known the union of the grounded components, and the
    keys of pending the ids of the other components of two or more ids, so
    known answers every claim as the span does. A component of two ids, as every MIX_FRESH pair
    waiting for its remedy is, keeps each id's partner in pending; a larger
    one shares one list of its ids, told apart by type, since an id may be
    any hashable.
    """
    known = (set(), set())
    known1, known2 = known
    pending1, pending2 = {}, {}
    fails: list = []
    bad = [False, False]
    for slot, _action, combo, r1, r2, delivered in trace:
        n = len(combo)
        if not (n == 1 or n == 2 and combo[0] != combo[1]):
            raise ContractViolation(f"slot {slot}: combination {list(combo)} is not "
                                    "one packet id or two distinct ones")
        if n == 1:      # most rows: one packet, each receiver written out
            a = combo[0]
            if r1 and a not in known1:
                if a in pending1:
                    _ground(known1, pending1, a)
                else:
                    known1.add(a)
            if r2 and a not in known2:
                if a in pending2:
                    _ground(known2, pending2, a)
                else:
                    known2.add(a)
        else:
            a, b = combo
            if r1:
                _edge(known1, pending1, a, b)
            if r2:
                _edge(known2, pending2, a, b)
        for j, pid in delivered:
            if type(j) is not int or j not in (1, 2):
                raise ContractViolation(f"slot {slot}: delivery claim names receiver {j!r}; "
                                        "receivers are 1 and 2")
            if pid not in known[j - 1] and not bad[j - 1]:
                bad[j - 1] = True
                fails.append((j, pid, slot))
    receiver_ok = (not bad[0], not bad[1])
    return DecodeReport(ok=all(receiver_ok), receiver_ok=receiver_ok, failures=fails)


def _edge(known, pending, a, b):
    """One receiver hears e_a + e_b (see decode_verify)."""
    if a in known:
        if b in known:
            return
        a = b       # the end to decode
    elif b not in known:
        if a in pending or b in pending:
            _join(pending, a, b)
        else:
            pending[a] = b
            pending[b] = a
        return
    if a in pending:
        _ground(known, pending, a)
    else:
        known.add(a)


def _ground(known, pending, p):
    """Decode the component of p, an id in pending."""
    c = pending.pop(p)
    known.add(p)
    if type(c) is list:
        for q in c:
            pending.pop(q, None)
        known.update(c)
    else:
        del pending[c]
        known.add(c)


def _members(pending, p):
    """The ids of p's undecoded component: its shared list, else a new
    list of p and its partner, or of p alone."""
    if p not in pending:
        return [p]
    c = pending[p]
    return c if type(c) is list else [p, c]


def _join(pending, a, b):
    """Join the undecoded components of a and b, at least one of them in
    pending, unless they are one already. The smaller one's ids go into
    the larger one's shared list; two components of at most two ids each
    form a new one."""
    big, small = _members(pending, a), _members(pending, b)
    if big is small or len(big) == 2 and big[1] == b:
        return
    if len(big) < len(small):
        big, small = small, big
    shared = len(big) > 2       # a shared list holds three or more ids
    big += small
    for q in small if shared else big:
        pending[q] = big


def save_trace(trace, path) -> None:
    """Write a JSON-lines trace to path (see write_trace)."""
    with open(path, "w", encoding="utf-8") as f:
        write_trace(trace, f)


_CHUNK = 4096            # trace lines write_trace hands to the file at once


def write_trace(trace, out) -> None:
    """Write a JSON-lines trace to the open text file out, one record per
    transmission, formatted as json.dumps formats the record's dict. Every
    field goes through str(), as an f-string would format it. Each row shape
    (combination width, the truth of each heard flag, claim count) has one
    %-template with the flags and the claim brackets written in."""
    lines, templates = [], {}
    for slot, action, combo, r1, r2, delivered in trace:
        args = (slot, action, *combo)
        for j, pid in delivered:    # claims may be any iterable, so count them here
            args += (j, pid)
        shape = (len(combo), bool(r1), bool(r2), len(args))
        template = templates.get(shape)
        if template is None:
            n, h1, h2, width = shape
            template = templates[shape] = (
                '{"slot": %s, "action": %s, "combo": [' + ", ".join(["%s"] * n) +
                f'], "received_rx1": {"true" if h1 else "false"}, '
                f'"received_rx2": {"true" if h2 else "false"}, "delivered": [' +
                ", ".join(["[%s, %s]"] * ((width - 2 - n) // 2)) + ']}\n')
        lines.append(template % args)
        if len(lines) == _CHUNK:
            out.write("".join(lines))
            lines.clear()
    out.write("".join(lines))


_ID = rb"(0|-?[1-9][0-9]{0,17})"     # an int as str() writes it, far below the digit limit
_DIGIT = {b"%d" % k: k for k in range(1, 6)}  # the action and receiver fields' one-digit ints
# A line as write_trace writes a row of simulate, and no other text: one id
# or two distinct ones (str() gives each int one spelling, so the lookahead
# refuses a second id whose text repeats the first), a transmit code 1..5,
# the two heard flags, and up to two claims to receivers 1 and 2.
_CANONICAL = re.compile(
    rb'\{"slot": ' + _ID + rb', "action": ([1-5]), "combo": \[' + _ID +
    rb'(?:, (?!\3\])' + _ID + rb')?\], "received_rx1": (true|false), '
    rb'"received_rx2": (true|false), "delivered": \[(?:\[([12]), ' + _ID +
    rb'\](?:, \[([12]), ' + _ID + rb'\])?)?\]\}\n?')


@_gc_paused
def load_trace(path) -> list:
    """Read a JSON-lines trace. A line exactly as write_trace writes a row
    of simulate (_CANONICAL) becomes its row straight from the pattern's
    groups. Every other line, valid or not, goes through json.loads and
    then the record checks. Malformed lines, among them text that is not
    UTF-8, a combination that is not one packet id or two distinct ones, or
    a delivery claim that is not two integers or names a receiver other
    than 1 or 2, raise TraceFormatError with the 1-based line number, as
    does an action other than the transmit codes 1..5 that write_trace
    writes. Ids, receivers, slots and actions must be JSON integers: a
    float, a string or a bool is rejected, not converted. A value nested
    deeper than the decoder's recursion limit is malformed too, as is an
    integer longer than the interpreter converts; lines that str.strip()
    empties are skipped.

    A canonical line's ids share ints as the simulator's rows do: an id
    whose text is one of the previous canonical line's combination ids
    takes that line's int (and an equal combination its tuple), and a
    claim whose id is in its own combination takes that int. _ID admits
    one spelling per value, so equal text is an equal int."""
    rows = []
    canonical = _CANONICAL.fullmatch
    digit = _DIGIT
    t1 = t2 = x1 = x2 = combo = None    # the last canonical combination's texts, ints, tuple
    with open(path, "rb") as f:
        for i, raw in enumerate(f, start=1):
            m = canonical(raw)
            if m is not None:
                slot, action, c1, c2, r1, r2, j1, p1, j2, p2 = m.groups()
                if c1 != t1 or c2 != t2:
                    x1, x2 = (x1 if c1 == t1 else x2 if c1 == t2 else int(c1),
                              None if c2 is None else
                              x1 if c2 == t1 else x2 if c2 == t2 else int(c2))
                    t1, t2 = c1, c2
                    combo = (x1,) if c2 is None else (x1, x2)
                if j1 is None:
                    delivered = ()
                else:
                    delivered = ((digit[j1], x1 if p1 == c1 else x2 if p1 == c2 else int(p1)),)
                    if j2 is not None:
                        delivered += ((digit[j2], x1 if p2 == c1 else x2 if p2 == c2 else int(p2)),)
                rows.append((int(slot), digit[action], combo, r1 == b"true", r2 == b"true",
                             delivered))
                continue
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise TraceFormatError(f"line {i}: not UTF-8 text", line=i) from e
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise TraceFormatError(f"line {i}: {e.msg}", line=i) from e
            except RecursionError as e:
                raise TraceFormatError(f"line {i}: JSON value nested too deeply", line=i) from e
            except ValueError as e:     # the interpreter's digit limit on int()
                raise TraceFormatError(f"line {i}: integer longer than "
                                       f"{sys.get_int_max_str_digits()} digits", line=i) from e
            try:
                slot = obj["slot"]
                action = obj["action"]
                combo = tuple(obj["combo"])
                r1 = obj["received_rx1"]
                r2 = obj["received_rx2"]
                delivered = tuple([(j, pid) for j, pid in obj["delivered"]])
                # json yields exact ints, and type() also rules out bools
                if (type(slot) is not int or type(r1) is not bool or type(r2) is not bool or
                        not all([type(c) is int for c in combo])):
                    raise TypeError
            except (KeyError, TypeError, ValueError) as e:
                raise TraceFormatError(f"line {i}: bad trace record", line=i) from e
            if type(action) is not int or not FRESH1 <= action <= REMEDY:
                raise TraceFormatError(f"line {i}: action {action!r} is not a transmit "
                                       "action code 1..5", line=i)
            if not _well_formed(combo):
                raise TraceFormatError(f"line {i}: combination {list(combo)} is not one "
                                       "packet id or two distinct ones", line=i)
            for j, pid in delivered:
                if type(j) is not int or type(pid) is not int:
                    raise TraceFormatError(f"line {i}: delivery claim {[j, pid]!r} is not "
                                           "two integers", line=i)
                if j not in (1, 2):
                    raise TraceFormatError(f"line {i}: delivery claim names receiver {j}; "
                                           "receivers are 1 and 2", line=i)
            rows.append((slot, action, combo, r1, r2, delivered))
    return rows
