import contextvars
import gc
import hashlib
import io
import itertools
import json
import random
import time
import tracemalloc
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import xorcast as xc
from xorcast.cli import main as cli_main
from xorcast.filtering import LANE
from xorcast.sim import (BLOCK, FRESH1, FRESH2, IDLE, MIX_FRESH, REMEDY, SUB1, SUB2,
                         XOR_BACKLOG, _well_formed, maxweight_action, substitute_action)

from xorcast.region import _ARCS

from oracles import (QueueState, _apply, arc_events, backpressure_weights, gf2_decode_oracle,
                     load_trace_oracle, random_model, save_trace_json, simulate_oracle,
                     sparse_model, write_trace_fstring)


def filled(q1_1=(), q1_2=(), q2_1=(), q2_2=(), q3=()):
    st = QueueState()
    st.q1[0].extend(q1_1)
    st.q1[1].extend(q1_2)
    st.q2[0].extend(q2_1)
    st.q2[1].extend(q2_2)
    st.q3.extend(q3)
    return st


def probs(e1, e2, e12):
    """(p01, p10, p11) of erasure probabilities eps1, eps2 and eps12."""
    return (e2 - e12, e1 - e12, e12)


def snapshot(st):
    return (tuple(st.q1[0]), tuple(st.q1[1]), tuple(st.q2[0]), tuple(st.q2[1]),
            tuple(st.q3))


def run_slot(st, pattern, action, after, delivered=()):
    """One slot of the move rule (oracles._apply) on st, checked against the queues of the state
    after and the deliveries; returns the combination on air."""
    combo, got = _apply(st, action, *pattern)
    assert snapshot(st) == snapshot(after), (action, pattern)
    assert sorted(got) == sorted(delivered), (action, pattern)
    return combo


def test_step_fresh_movements():
    run_slot(filled(q1_1=[7]), (0, 1), FRESH1, QueueState(), [(1, 7)])
    # overheard by the wrong receiver
    run_slot(filled(q1_1=[7]), (1, 0), FRESH1, filled(q2_1=[(7, 7)]))
    assert run_slot(filled(q1_1=[7]), (1, 1), FRESH1, filled(q1_1=[7])) == (7,)
    run_slot(filled(q1_2=[9]), (1, 0), FRESH2, QueueState(), [(2, 9)])


def test_step_xor_movements():
    both = dict(q2_1=[(3, 3)], q2_2=[(8, 8)])
    combo = run_slot(filled(**both), (0, 1), XOR_BACKLOG, filled(q2_2=[(8, 8)]), [(1, 3)])
    assert combo == (3, 8)
    run_slot(filled(**both), (0, 0), XOR_BACKLOG, QueueState(), [(1, 3), (2, 8)])


def test_step_poison_remedy_designation():
    pair = dict(q1_1=[1], q1_2=[2])
    # heard at both: the remedy is the first receiver's packet
    run_slot(filled(**pair), (0, 0), MIX_FRESH, filled(q3=[(1, 2, 1)]))
    # only receiver 1 heard; 2 still needs its packet
    run_slot(filled(**pair), (0, 1), MIX_FRESH, filled(q3=[(1, 2, 2)]))
    run_slot(filled(**pair), (1, 0), MIX_FRESH, filled(q3=[(1, 2, 1)]))
    assert run_slot(filled(**pair), (1, 1), MIX_FRESH, filled(**pair)) == (1, 2)


def test_step_remedy_rows():
    entry = (1, 2, 1)
    run_slot(filled(q3=[entry]), (0, 0), REMEDY, QueueState(), [(1, 1), (2, 2)])
    # received only at receiver 1: the pair-mate waits, remedy id as proxy
    run_slot(filled(q3=[entry]), (0, 1), REMEDY, filled(q2_2=[(2, 1)]), [(1, 1)])
    run_slot(filled(q3=[entry]), (1, 0), REMEDY, filled(q2_1=[(1, 1)]), [(2, 2)])
    assert run_slot(filled(q3=[entry]), (1, 1), REMEDY, filled(q3=[entry])) == (1,)


def test_step_levels_move_one_hop():
    # every queue level changes by at most one entry per slot
    builders = {
        XOR_BACKLOG: lambda: filled(q2_1=[(1, 1)], q2_2=[(2, 2)]),
        MIX_FRESH: lambda: filled(q1_1=[1], q1_2=[2]),
        REMEDY: lambda: filled(q3=[(1, 2, 1)]),
    }
    for action, build in builders.items():
        for pattern in ((0, 0), (0, 1), (1, 0), (1, 1)):
            st = build()
            before = [len(q) for q in snapshot(st)]
            _apply(st, action, *pattern)
            after = [len(q) for q in snapshot(st)]
            assert all(abs(a - b) <= 1 for a, b in zip(after, before)), \
                (action, pattern)


ACTIONS = (IDLE, FRESH1, FRESH2, XOR_BACKLOG, MIX_FRESH, REMEDY, SUB1, SUB2)


def feasible(st, action):
    """True when every queue the action reads a head packet from is nonempty."""
    q1, q2 = st.q1, st.q2
    return {IDLE: True, FRESH1: bool(q1[0]), FRESH2: bool(q1[1]),
            XOR_BACKLOG: bool(q2[0] and q2[1]), MIX_FRESH: bool(q1[0] and q1[1]),
            REMEDY: bool(st.q3), SUB1: bool(q2[0]), SUB2: bool(q2[1])}[action]


def held(st, j):
    """Account ids that receiver j + 1 is still owed, as a multiset."""
    return Counter([*st.q1[j], *(a for a, _t in st.q2[j]), *(e[j] for e in st.q3)])


@hs.composite
def queue_states(draw):
    """Queues with distinct packet ids, as a run builds them: a q2 entry goes
    on air as itself or as a proxy id, and a poisoned pair names either of
    its packets as the remedy, as the fresh-pair mix does."""
    ids = itertools.count()
    sizes = draw(hs.lists(hs.integers(0, 3), min_size=5, max_size=5))
    st = QueueState()
    for j in (0, 1):
        st.q1[j].extend(next(ids) for _ in range(sizes[j]))
        for _ in range(sizes[2 + j]):
            acct = next(ids)
            st.q2[j].append((acct, next(ids) if draw(hs.booleans()) else acct))
    for _ in range(sizes[4]):
        p1, p2 = next(ids), next(ids)
        st.q3.append((p1, p2, p2 if draw(hs.booleans()) else p1))
    return st


@settings(derandomize=True, deadline=None, max_examples=200)
@given(queue_states())
def test_apply_conserves_and_moves_one_hop(st):
    # every feasible action under every pattern, from the same queues
    before = snapshot(st)
    for action in ACTIONS:
        if not feasible(st, action):
            continue
        for pattern in ((0, 0), (0, 1), (1, 0), (1, 1)):
            cur = filled(*before)
            combo, delivered = _apply(cur, action, *pattern)
            assert _well_formed(combo) if action != IDLE else combo == ()
            # the trace keeps the deliveries as they come, so they must be a tuple
            assert type(delivered) is tuple and all(type(d) is tuple for d in delivered)
            for j in (0, 1):
                got = Counter(pid for r, pid in delivered if r == j + 1)
                assert held(cur, j) + got == held(st, j), (action, pattern, j)
            assert all(r in (1, 2) for r, _pid in delivered)
            assert all(abs(len(a) - len(b)) <= 1 for a, b in zip(snapshot(cur), before))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(queue_states(),
       hs.lists(hs.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0))
def test_schedulers_pick_feasible_actions(st, weights):
    for sampled in (FRESH1, FRESH2, XOR_BACKLOG, MIX_FRESH, REMEDY):
        got = substitute_action(sampled, *st.lengths())
        assert feasible(st, got)
        if feasible(st, sampled):
            assert got == sampled
    total = sum(weights)
    _p00, p01, p10, p11 = (w / total for w in weights)
    assert feasible(st, maxweight_action(*st.lengths(), p01, p10, p11))


def test_maxweight_hand_arithmetic():
    # symmetric 10-deep fresh queues: mixing doubles the service weight
    sv = probs(0.3, 0.25, 0.1)
    assert maxweight_action(10, 10, 0, 0, 0, *sv) == MIX_FRESH
    w1 = (1 - 0.3) * 10 + (0.3 - 0.1) * 10
    w4 = (1 - 0.1) * 20
    assert abs(w1 - 9.0) < 1e-12 and abs(w4 - 18.0) < 1e-12

    assert maxweight_action(0, 0, 0, 0, 0, *sv) == IDLE
    assert maxweight_action(1, 0, 0, 0, 0, *sv) == FRESH1
    assert maxweight_action(0, 1, 0, 0, 0, *sv) == FRESH2
    # exact weight tie resolves to the lowest action index: symmetric
    # stats make the backlog XOR and the remedy weigh the same here
    tie = (0, 0, 1, 1, 1)
    tie_stats = probs(0.5, 0.5, 0.25)
    w3 = (1 - 0.5) * 1 + (1 - 0.5) * 1
    w5 = 0.25 * (1 - 1) + (1 - 0.5) * 1 + 0.25 * (1 - 1) + (1 - 0.5) * 1
    assert w3 == w5
    assert maxweight_action(*tie, *tie_stats) == XOR_BACKLOG


def test_maxweight_is_backpressure_over_arcs():
    # maxweight_action writes the arc table's backpressure sums out by hand,
    # factored and reordered, so the two may part only on ties within 1e-9;
    # half the pattern vectors lie on a grid of tenths, where ties are common
    rng = np.random.default_rng(13)
    n = 200_000
    queues = rng.integers(0, 10, size=(n, 5)).tolist()
    pats = np.concatenate((rng.dirichlet(np.ones(4), size=n // 2),
                           rng.multinomial(10, [0.25] * 4, size=n // 2) / 10)).tolist()
    parted = 0
    for lengths, (_p00, p01, p10, p11) in zip(queues, pats):
        got = maxweight_action(*lengths, p01, p10, p11)
        weights = backpressure_weights(*lengths, p01, p10, p11)
        want = max(weights, key=weights.get) if weights else IDLE
        if want == XOR_BACKLOG and not (lengths[2] and lengths[3]):
            want = SUB1 if lengths[2] else SUB2
        if got != want:
            parted += 1
            sent = XOR_BACKLOG if got in (SUB1, SUB2) else got
            assert abs(weights[sent] - max(weights.values())) <= 1e-9, (lengths, got, want)
    assert parted < n // 1000


def test_arc_table_matches_slot_oracle():
    # every action under every pattern, from two packets in each queue:
    # each receiver's (n1, n2, n3) moves along the table's arcs that fire
    for action in (FRESH1, FRESH2, XOR_BACKLOG, MIX_FRESH, REMEDY):
        for pattern in xc.PATTERNS:
            st = filled([1, 2], [3, 4], [(5, 5), (6, 6)], [(7, 7), (8, 8)],
                        [(1, 3, 1), (2, 4, 4)])
            before = st.lengths()
            _apply(st, action, *pattern)
            moved = [a - b for a, b in zip(st.lengths(), before)]
            for j, fired in zip((1, 2), arc_events(*pattern)):
                want = [0, 0, 0, 0]
                for a, i, event, u, v in _ARCS:
                    if a == action - 1 and i == j and fired[event]:
                        want[u - 1] -= 1
                        want[v - 1] += 1
                got = [moved[j - 1], moved[j + 1], moved[4]]
                assert got == want[:3], (action, pattern, j)


def test_maxweight_prefers_remedy_backlog():
    assert maxweight_action(2, 0, 1, 0, 6, *probs(0.3, 0.25, 0.1)) == REMEDY


def test_maxweight_drains_one_sided_traffic(ref_model):
    # a packet overheard only by the wrong receiver waits in q2 with no
    # pair-mate under one-sided traffic; a lone retransmission must serve it
    sv = probs(0.3, 0.25, 0.1)
    assert maxweight_action(0, 0, 1, 0, 0, *sv) == SUB1
    assert maxweight_action(0, 0, 0, 1, 0, *sv) == SUB2
    for r1, r2 in ((0.3, 0.0), (0.0, 0.3), (0.3, 0.01)):
        rep = xc.simulate(ref_model, "maxweight", r1, r2, 20_000, 1)
        assert xc.stability_verdict(rep) == "Stable", (r1, r2, rep.final_backlog)


def test_substitute_ladder():
    both = (0, 0, 1, 1, 0)
    assert substitute_action(XOR_BACKLOG, *both) == XOR_BACKLOG
    assert substitute_action(XOR_BACKLOG, 0, 0, 1, 0, 0) == SUB1
    assert substitute_action(XOR_BACKLOG, 0, 0, 0, 1, 0) == SUB2
    assert substitute_action(XOR_BACKLOG, 0, 0, 0, 0, 0) == IDLE
    for a in (FRESH1, FRESH2, MIX_FRESH, REMEDY):
        assert substitute_action(a, 0, 0, 0, 0, 0) == IDLE
    assert substitute_action(FRESH1, 1, 0, 0, 0, 0) == FRESH1
    assert substitute_action(FRESH1, 0, 0, 1, 0, 0) == SUB1
    assert substitute_action(FRESH2, 0, 0, 0, 1, 0) == SUB2
    assert substitute_action(FRESH2, 0, 1, 0, 1, 0) == FRESH2
    assert substitute_action(MIX_FRESH, 1, 0, 0, 0, 0) == IDLE
    for unknown in (IDLE, SUB1, 6):   # not a sampled transmit action
        with pytest.raises(xc.ContractViolation):
            substitute_action(unknown, *both)


# the probabilistic ladder as data: each sampled action's rungs in order,
# (the queues that must be nonempty, the action sent); a queue is an index
# into substitute_action's lengths (n11, n12, n21, n22, n3)
LADDER = {
    FRESH1: (((0,), FRESH1), ((2,), SUB1)),
    FRESH2: (((1,), FRESH2), ((3,), SUB2)),
    XOR_BACKLOG: (((2, 3), XOR_BACKLOG), ((2,), SUB1), ((3,), SUB2)),
    MIX_FRESH: (((0, 1), MIX_FRESH),),
    REMEDY: (((4,), REMEDY),),
}


def test_substitute_action_follows_ladder_table():
    # every sampled action under all 32 empty/nonempty patterns of the five
    # queues; a nonempty queue holds from 1 to 3 packets, so only emptiness
    # may matter
    for sampled, rungs in LADDER.items():
        for mask in range(32):
            lengths = [(mask >> k & 1) * (1 + (mask + k) % 3) for k in range(5)]
            want = next((action for need, action in rungs
                         if all(lengths[k] for k in need)), IDLE)
            assert substitute_action(sampled, *lengths) == want, (sampled, lengths)


def test_backlog_moves_under_every_pattern_match_slot_oracle(ref_model, monkeypatch):
    # XOR_BACKLOG, SUB1 and SUB2 each sent under all four erasure patterns,
    # by both schedulers, with every report field the slot oracle's
    wit, dist, _ = xc.simulation_distribution(xc.window_table(ref_model, 2), 0.5)
    R1, R2 = 0.95 * wit.R1, 0.95 * wit.R2
    for sched, name in (("probabilistic", "substitute_action"),
                        ("maxweight", "maxweight_action")):
        kw = dict(dist=dist if sched == "probabilistic" else None,
                  collect_trace=True, collect_slots=True)
        actions = []

        def recorded(*args, rule=getattr(xc.sim, name)):
            actions.append(rule(*args))
            return actions[-1]

        with monkeypatch.context() as m:
            m.setattr(xc.sim, name, recorded)
            got = xc.simulate(ref_model, sched, R1, R2, 5000, 1, **kw)
        assert got == simulate_oracle(ref_model, sched, R1, R2, 5000, 1, **kw), sched
        seen = {(action, row[2], row[3])
                for action, row in zip(actions, got.slot_rows, strict=True)}
        for action in (XOR_BACKLOG, SUB1, SUB2):
            assert {(z1, z2) for a, z1, z2 in seen if a == action} == set(xc.PATTERNS), \
                (sched, action)


def test_probabilistic_drains_overheard_queue_at_a_corner(ref_model):
    # at the single-user corner lambda = 0.65 of the L=1 region the backlog
    # XOR is almost never sampled, so the overheard queue of receiver j
    # drains only through a sampled FRESHj with an empty fresh queue
    wit, dist, _ = xc.simulation_distribution(xc.window_table(ref_model, 1), 0.65)
    for seed in (1, 2):
        rep = xc.simulate(ref_model, "probabilistic", 0.9 * wit.R1, 0.9 * wit.R2,
                          200_000, seed, dist=dist)
        assert xc.stability_verdict(rep) == "Stable", (seed, rep.final_backlog)


def test_sub_transmits_stored_proxy():
    entry = (12, 34)  # credited id and on-air id differ
    assert run_slot(filled(q2_2=[entry]), (1, 0), SUB2, QueueState(), [(2, 12)]) == (34,)
    run_slot(filled(q2_2=[entry]), (1, 1), SUB2, filled(q2_2=[entry]))


def test_simulate_validation(ref_model):
    with pytest.raises(xc.ContractViolation):
        xc.simulate(ref_model, "greedy", 0.1, 0.1, 100, 0)
    with pytest.raises(xc.ContractViolation):
        xc.simulate(ref_model, "maxweight", 1.2, 0.1, 100, 0)
    with pytest.raises(xc.ContractViolation):
        xc.simulate(ref_model, "maxweight", 0.1, 0.1, 0, 0)
    with pytest.raises(xc.ContractViolation):
        xc.simulate(ref_model, "probabilistic", 0.1, 0.1, 100, 0)


def test_simulate_rejects_negative_seed(ref_model):
    # random.Random(-3) seeds as random.Random(3) does, so -3 would replay 3
    with pytest.raises(xc.ContractViolation, match="negative"):
        xc.simulate(ref_model, "maxweight", 0.1, 0.1, 100, -3)


@pytest.mark.parametrize("n", [True, 2.5, "10", None, np.int64(10), -1],
                         ids=["True", "float", "str", "None", "int64", "-1"])
def test_simulate_refuses_a_slot_count_not_a_positive_integer(ref_model, n):
    # True once ran one slot and reported n=True; 2.5 reached range()
    with pytest.raises(xc.ContractViolation, match="^n: expected a positive integer$"):
        xc.simulate(ref_model, "maxweight", 0.1, 0.1, n, 0)


def _random_dist(rng, L):
    """Action distribution with random rows, about a third of them zeros."""
    rows = []
    for _ in range(4 ** L):
        w = [0.0 if rng.random() < 0.3 else rng.random() for _ in range(5)]
        w[rng.randrange(5)] += 0.1
        rows.append([v / sum(w) for v in w])
    return xc.ActionDistribution(L, np.array(rows))


def test_simulate_matches_slot_oracle(ref_model):
    # the block-drawn channel and the lane filter against the one-slot-at-a-
    # time loop: every report field, at lengths around a lane and into the
    # second block by a lane and a slot (the block-edge test below runs the
    # other lengths around a block)
    rng = random.Random(21)
    models = [ref_model, random_model(rng, 1), random_model(rng, 2), random_model(rng, 3),
              sparse_model(rng, 2), sparse_model(rng, 3)]
    lengths = (1, LANE - 1, LANE + 1, BLOCK + LANE + 1)
    for k, model in enumerate(models):
        for sched in ("probabilistic", "maxweight"):
            dist = _random_dist(rng, 1 + k % 2) if sched == "probabilistic" else None
            for n in lengths:
                seed = rng.randrange(1000)
                R1, R2 = rng.uniform(0.05, 0.6), rng.uniform(0.05, 0.6)
                kw = dict(dist=dist, collect_trace=True, collect_slots=True)
                got = xc.simulate(model, sched, R1, R2, n, seed, **kw)
                assert got == simulate_oracle(model, sched, R1, R2, n, seed, **kw), \
                    (k, sched, n)


def test_simulate_matches_slot_oracle_at_block_edges(ref_model):
    # the arrivals are numbered per block: no arrival at all, an arrival in
    # every slot of one receiver or of both, at lengths around the block
    dist = _random_dist(random.Random(5), 2)
    kw = dict(dist=dist, collect_trace=True, collect_slots=True)
    for n in (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1):
        for R1, R2 in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
            for sched in ("probabilistic", "maxweight"):
                got = xc.simulate(ref_model, sched, R1, R2, n, 7, **kw)
                assert got == simulate_oracle(ref_model, sched, R1, R2, n, 7, **kw), \
                    (sched, n, R1, R2)
                assert got.arrivals == (round(R1) * n, round(R2) * n)


def test_conservation_check_reads_the_deques(ref_model, monkeypatch):
    # an overheard queue that keeps each entry twice holds more than the
    # arrivals and the length counters say: the next checkpoint raises
    class Doubling(deque):
        def append(self, x):
            super().append(x)
            super().append(x)

    monkeypatch.setattr(xc.sim, "deque", Doubling)
    with pytest.raises(xc.NumericalFailure, match="conservation"):
        xc.simulate(ref_model, "maxweight", 0.3, 0.3, 5000, 1)


def test_conservation_check_counts_each_receiver(ref_model, monkeypatch):
    # a poisoned pair that lands on receiver 1's overheard queue instead of
    # the pairs' leaves receiver 1's total intact but takes one packet from
    # receiver 2's; with fewer than CHECKPOINTS slots every slot is a
    # checkpoint, so the first such move raises, naming receiver 2
    run = xc.simulate(ref_model, "maxweight", 0.3, 0.3, 2000, 1, collect_trace=True)
    ids1 = {p for *_, got in run.trace for j, p in got if j == 1}
    made, moved = [], []

    class Misrouted(deque):
        # only pairs take 3-tuples; receiver 1's overheard queue is the one
        # whose entries credit receiver 1's packets
        def __init__(self):
            super().__init__()
            made.append(self)

        def append(self, x):
            over1 = [q for q in made if any(len(e) == 2 and e[0] in ids1 for e in q)]
            if len(x) == 3 and over1:
                moved.append(x)
                deque.append(over1[0], x)
            else:
                deque.append(self, x)

    monkeypatch.setattr(xc.sim, "deque", Misrouted)
    with pytest.raises(xc.NumericalFailure, match="conservation broken") as err:
        xc.simulate(ref_model, "maxweight", 0.3, 0.3, 2000, 1)
    assert len(moved) == 1
    assert err.value.diagnostics["receiver"] == 2


def test_slot_loop_calls_the_rules_through_the_module(ref_model, monkeypatch):
    # one call of the scheduler's rule per slot, looked up in xorcast.sim as
    # the traced benchmark replaces it, and the same report as without
    _, dist, _ = xc.simulation_distribution(xc.window_table(ref_model, 2), 0.5)
    n = BLOCK + 333
    for sched, name in (("probabilistic", "substitute_action"),
                        ("maxweight", "maxweight_action")):
        kw = dict(dist=dist if sched == "probabilistic" else None,
                  collect_trace=True, collect_slots=True)
        want = xc.simulate(ref_model, sched, 0.3, 0.3, n, 4, **kw)
        calls = []
        rule = getattr(xc.sim, name)

        def counted(*args, rule=rule):
            calls.append(None)
            return rule(*args)

        with monkeypatch.context() as m:
            m.setattr(xc.sim, name, counted)
            got = xc.simulate(ref_model, sched, 0.3, 0.3, n, 4, **kw)
        assert len(calls) == n, sched
        assert got == want, sched


def test_simulate_zero_likelihood_matches_oracle():
    # emission rows summing to 0.9 leave u >= 0.9 to pattern (1, 1), which
    # no state emits: the filter raises as the one-slot loop does
    model = xc.ChannelModel([[0.9, 0.1], [0.2, 0.8]],
                            [[0.6, 0.15, 0.15, 0.0], [0.1, 0.4, 0.4, 0.0]])
    with pytest.raises(xc.ZeroLikelihood) as want:
        simulate_oracle(model, "maxweight", 0.2, 0.2, 500, 1)
    with pytest.raises(xc.ZeroLikelihood) as got:
        xc.simulate(model, "maxweight", 0.2, 0.2, 500, 1)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_survives_runs_and_reads(tmp_path, ref_model, enabled):
    # simulate and load_trace pause the cyclic collector; whatever its state
    # on entry, it is the same on exit, also when they raise
    # emission rows short of 1 by eps leave pattern (1, 1), which no state
    # emits, a chance of eps in every slot: at eps = 1 / (4 BLOCK) the first
    # impossible draw is expected near slot 4 BLOCK, and at seed 1 the
    # one-slot loop meets it after the first block and within ten
    eps = 1.0 / (4 * BLOCK)
    late = xc.ChannelModel([[0.9, 0.1], [0.2, 0.8]],
                           [[0.6, 0.2, 0.2 - eps, 0.0], [0.1, 0.45, 0.45 - eps, 0.0]])
    simulate_oracle(late, "maxweight", 0.2, 0.2, BLOCK, 1)
    with pytest.raises(xc.ZeroLikelihood):
        simulate_oracle(late, "maxweight", 0.2, 0.2, 10 * BLOCK, 1)
    path = tmp_path / "trace.jsonl"
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"slot": 0, "action": 9, "combo": [1], "received_rx1": true, '
                   '"received_rx2": false, "delivered": []}\n')
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        rep = xc.simulate(late, "maxweight", 0.2, 0.2, BLOCK, 1, collect_trace=True)
        assert gc.isenabled() is enabled
        # the impossible pattern comes after the first block's slots ran
        with pytest.raises(xc.ZeroLikelihood):
            xc.simulate(late, "maxweight", 0.2, 0.2, 10 * BLOCK, 1)
        assert gc.isenabled() is enabled
        xc.save_trace(rep.trace, path)
        assert xc.load_trace(path) == rep.trace
        assert gc.isenabled() is enabled
        with pytest.raises(xc.TraceFormatError):
            xc.load_trace(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_runs_and_reads_build_no_cycles(tmp_path, ref_model):
    # what pausing the collector relies on: nothing a run or a trace read
    # leaves behind is garbage that only the cyclic collector can free
    _, dist, _ = xc.simulation_distribution(xc.window_table(ref_model, 2), 0.5)
    path = tmp_path / "trace.jsonl"
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        reps = [xc.simulate(ref_model, sched, 0.3, 0.3, 3000, 5,
                            dist=dist if sched == "probabilistic" else None,
                            collect_trace=True, collect_slots=True)
                for sched in ("probabilistic", "maxweight")]
        xc.save_trace(reps[1].trace, path)
        rows = xc.load_trace(path)
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
    assert rows == reps[1].trace


def test_runs_and_reads_leave_nothing_young(tmp_path, ref_model):
    # what a run or a trace read built is handed to the oldest generation
    # on return, so no young collection walks it afterwards
    path = tmp_path / "trace.jsonl"
    was = gc.isenabled()
    gc.enable()
    try:
        assert gc.get_freeze_count() == 0
        rep = xc.simulate(ref_model, "maxweight", 0.3, 0.3, 10_000, 2, collect_trace=True)
        assert len(gc.get_objects(generation=0)) < 1000
        xc.save_trace(rep.trace, path)
        rows = xc.load_trace(path)
        assert len(gc.get_objects(generation=0)) < 1000
    finally:
        if not was:
            gc.disable()
    assert len(rows) > 5000 and rows == rep.trace


def test_runs_and_reads_keep_frozen_objects_frozen(tmp_path, ref_model):
    # gc.unfreeze would thaw what the caller froze, so then nothing moves.
    # numpy sets a context variable (its error state) inside some calls, and
    # the new mapping frees frozen nodes of the old one; in a fresh context
    # no frozen object dies
    path = tmp_path / "trace.jsonl"
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        rep = contextvars.Context().run(xc.simulate, ref_model, "maxweight", 0.3, 0.3, 2000, 2,
                                        collect_trace=True)
        assert gc.get_freeze_count() == frozen
        xc.save_trace(rep.trace, path)
        rows = contextvars.Context().run(xc.load_trace, path)
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()
    assert rows == rep.trace


def test_simulate_deterministic(ref_model):
    t = xc.window_table(ref_model, 1)
    _, dist, _ = xc.simulation_distribution(t, 0.5)
    for sched in ("maxweight", "probabilistic"):
        kw = {"dist": dist} if sched == "probabilistic" else {}
        a = xc.simulate(ref_model, sched, 0.2, 0.2, 3000, 11, **kw)
        b = xc.simulate(ref_model, sched, 0.2, 0.2, 3000, 11, **kw)
        assert a.checkpoints == b.checkpoints
        assert a.delivered == b.delivered
        assert a.action_counts == b.action_counts
        c = xc.simulate(ref_model, sched, 0.2, 0.2, 3000, 12, **kw)
        assert c.checkpoints != a.checkpoints
        assert sum(a.action_counts.values()) == 3000


def test_zero_arrivals(ref_model):
    rep = xc.simulate(ref_model, "maxweight", 0.0, 0.0, 20_000, 3)
    assert rep.arrivals == (0, 0)
    assert rep.delivered == (0, 0)
    assert rep.final_backlog == 0
    assert xc.stability_verdict(rep) == "Stable"


def test_overload_unstable():
    perfect = xc.ChannelModel([[1.0]], [[1.0, 0.0, 0.0, 0.0]])
    rep = xc.simulate(perfect, "maxweight", 1.0, 1.0, 20_000, 3)
    assert xc.stability_verdict(rep) == "Unstable"
    # memoryless channel pushed past its closed-form boundary grows linearly
    lossy = xc.ChannelModel([[1.0]], [[1.66 / 3, 0.34 / 3, 0.34 / 3, 0.22]])
    r = 0.359447 + 0.05
    rep = xc.simulate(lossy, "maxweight", r, r, 20_000, 3)
    assert xc.stability_verdict(rep) == "Unstable"
    assert rep.final_backlog > 0.01 * rep.n


def test_perfect_channel_throughput():
    perfect = xc.ChannelModel([[1.0]], [[1.0, 0.0, 0.0, 0.0]])
    rep = xc.simulate(perfect, "maxweight", 0.45, 0.45, 20_000, 5)
    for j in (0, 1):
        assert abs(rep.delivered[j] / rep.n - rep.arrivals[j] / rep.n) < 0.02
    assert xc.stability_verdict(rep) == "Stable"


def test_probabilistic_run_counts(ref_model):
    t = xc.window_table(ref_model, 1)
    wit, dist, _ = xc.simulation_distribution(t, 0.5)
    rep = xc.simulate(ref_model, "probabilistic", 0.3, 0.3, 10_000, 2, dist=dist)
    assert sum(rep.action_counts.values()) == rep.n
    assert rep.delivered[0] > 0 and rep.delivered[1] > 0
    th = rep.throughput()
    assert 0.2 < th[0] < 0.4 and 0.2 < th[1] < 0.4


def test_throughput_counts_from_its_checkpoint(ref_model):
    # the warmup of 3000 slots falls between the checkpoints every 7 slots,
    # so the count starts at slot 2996 and the rate divides by the slots
    # after it
    rep = xc.simulate(ref_model, "maxweight", 0.3, 0.3, 30_000, 1, collect_slots=True)
    start = max(slot for slot, *_ in rep.checkpoints if slot <= rep.warmup)
    assert (rep.warmup, start) == (3000, 2996)
    _slot, _code, _z1, _z2, _q, d1, d2 = rep.slot_rows[start - 1]
    span = rep.n - start
    assert rep.throughput() == ((rep.delivered[0] - d1) / span,
                                (rep.delivered[1] - d2) / span)


def test_stability_verdict_contract(ref_model):
    rep = xc.simulate(ref_model, "maxweight", 0.1, 0.1, 5000, 1)
    with pytest.raises(xc.ContractViolation):
        xc.stability_verdict(rep)


def test_decode_verify_hand_poison_chain():
    # pair mixed and heard only at receiver 2, then the remedy heard there
    # too: receiver 2 works out both ids from the two receptions
    trace = [
        (0, MIX_FRESH, (0, 1), False, True, ()),
        (1, REMEDY, (0,), False, True, ((2, 1),)),
        (2, 3, (0,), True, False, ((1, 0),)),
    ]
    rep = xc.decode_verify(trace)
    assert rep.ok and rep.receiver_ok == (True, True)
    assert rep.failures == []


def test_decode_verify_proxy_substitution():
    # remedy heard by the wrong receiver: its pair-mate is later conveyed
    # by retransmitting the remedy id, which the loop below reproduces
    # through the queue mechanics rather than a hand trace
    st = filled(q1_1=[0], q1_2=[1])
    trace = []
    patterns = {MIX_FRESH: (1, 0), REMEDY: (0, 1), SUB2: (1, 0)}
    for slot, action in enumerate([MIX_FRESH, REMEDY, SUB2]):
        z1, z2 = patterns[action]
        combo, delivered = _apply(st, action, z1, z2)
        code = 3 if action in (SUB1, SUB2) else action
        trace.append((slot, code, combo, z1 == 0, z2 == 0, tuple(delivered)))
    assert st.backlog() == 0
    assert trace[1][5] == ((1, 0),)   # remedy delivered its own side first
    assert trace[2][2] == (0,)        # proxy on air, pair-mate credited
    assert trace[2][5] == ((2, 1),)
    rep = xc.decode_verify(trace)
    assert rep.ok


def test_decode_verify_uncoded_only(ref_model):
    rows = np.tile([0.5, 0.5, 0.0, 0.0, 0.0], (4, 1))
    dist = xc.ActionDistribution(L=1, table=rows)
    rep = xc.simulate(ref_model, "probabilistic", 0.25, 0.25, 4000, 9,
                      dist=dist, collect_trace=True)
    assert xc.decode_verify(rep.trace).ok


def test_decode_verify_corrupted(ref_model):
    t = xc.window_table(ref_model, 1)
    _, dist, _ = xc.simulation_distribution(t, 0.5)
    rep = xc.simulate(ref_model, "probabilistic", 0.3, 0.3, 4000, 9,
                      dist=dist, collect_trace=True)
    assert xc.decode_verify(rep.trace).ok
    # a delivery claim without any reception must be caught
    bad = rep.trace + [(rep.n, FRESH1, (999999,), False, False, ((1, 999999),))]
    out = xc.decode_verify(bad)
    assert not out.ok
    assert out.receiver_ok == (False, True)
    assert (1, 999999, rep.n) in out.failures
    bad2 = rep.trace + [(rep.n, FRESH2, (999998,), False, False, ((2, 999998),))]
    assert xc.decode_verify(bad2).receiver_ok == (True, False)


def _flip_receptions(rng, trace, rate):
    return [(s, a, c, r1 ^ (rng.random() < rate), r2 ^ (rng.random() < rate), d)
            for s, a, c, r1, r2, d in trace]


def _inject_unheard_claims(rng, trace, count):
    """Copy of trace with delivery claims nobody heard: extra claims in rows
    that neither receiver heard (decodable only if an earlier reception
    covers them), and fresh ids sent with both receivers erased."""
    out = list(trace)
    unheard = [k for k, row in enumerate(out) if not (row[3] or row[4])]
    for k in rng.sample(unheard, count):
        s, a, c, r1, r2, d = out[k]
        out[k] = (s, a, c, r1, r2, d + ((rng.choice((1, 2)), rng.choice(c)),))
    for n in range(count):
        pid = 10**9 + n
        k = rng.randrange(len(out) + 1)
        slot = out[k - 1][0] if k else 0
        out.insert(k, (slot, FRESH1, (pid,), False, False, ((rng.choice((1, 2)), pid),)))
    return out


def _random_trace(rng, n_ids, n_rows):
    """Combinations of weight 1 or 2 over a few ids, random receptions and
    random claims: many merges of grounded and ungrounded components."""
    trace = []
    for slot in range(n_rows):
        combo = tuple(rng.sample(range(n_ids), rng.choice((1, 2, 2, 2))))
        claims = tuple((rng.choice((1, 2)), rng.randrange(n_ids))
                       for _ in range(rng.random() < 0.2))
        trace.append((slot, MIX_FRESH, combo, rng.random() < 0.5,
                      rng.random() < 0.5, claims))
    return trace


def _widest_undecoded(trace):
    """The most ids one receiver's undecoded component ever held: a naive
    replay with one set per component."""
    widest = 0
    for heard in (3, 4):
        known, comp = set(), {}
        for row in trace:
            if not row[heard]:
                continue
            left = [p for p in row[2] if p not in known]
            if len(left) == 2:
                joined = comp.get(left[0], {left[0]}) | comp.get(left[1], {left[1]})
                comp.update(dict.fromkeys(joined, joined))
                widest = max(widest, len(joined))
            elif len(left) == 1:
                for p in comp.get(left[0], {left[0]}):
                    comp.pop(p, None)
                    known.add(p)
    return widest


def test_decode_verify_matches_oracle(ref_model):
    # the decoder against set-based elimination: same verdicts and the same
    # first failure per receiver, on intact and corrupted traces
    rng = random.Random(7)
    t = xc.window_table(ref_model, 1)
    wit, dist, _ = xc.simulation_distribution(t, 0.5)
    traces = []
    for sched in ("probabilistic", "maxweight"):
        for load in (0.95, 1.10):
            rep = xc.simulate(ref_model, sched, load * wit.R1, load * wit.R2, 6000, 3,
                              dist=dist, collect_trace=True)
            assert any(len(row[2]) == 2 for row in rep.trace)
            assert xc.decode_verify(rep.trace).ok
            traces.append(rep.trace)
            for rate in (0.001, 0.01, 0.1):
                traces.append(_flip_receptions(rng, rep.trace, rate))
            for count in (1, 3):
                traces.append(_inject_unheard_claims(rng, rep.trace, count))
    traces += [_random_trace(rng, n_ids, 200) for n_ids in (5, 20, 60) for _ in range(20)]
    # the simulator's traces join no more than two ids; the random ones
    # also build components of three or more
    assert max(map(_widest_undecoded, traces[-60:])) >= 3
    failed = [0, 0]
    for trace in traces:
        got = xc.decode_verify(trace)
        assert got == gf2_decode_oracle(trace)
        failed[0] += not got.receiver_ok[0]
        failed[1] += not got.receiver_ok[1]
    assert min(failed) >= 10 and max(failed) < len(traces)


def _decoded(trace, expected):
    rep = xc.decode_verify(trace)
    assert rep == gf2_decode_oracle(trace)
    assert rep.failures == expected
    return rep


def test_decode_verify_hand_joins():
    # receiver 1 hears every row; claims of receiver 1 before a component is
    # grounded fail, and the first failure is the one reported
    pair_twice = [(0, MIX_FRESH, (0, 1), True, False, ()),
                  (1, MIX_FRESH, (1, 0), True, False, ((1, 1),)),
                  (2, REMEDY, (1,), True, False, ((1, 0), (1, 1)))]
    _decoded(pair_twice, [(1, 1, 1)])
    pair_pair = [(0, MIX_FRESH, (0, 1), True, False, ()),
                 (1, MIX_FRESH, (2, 3), True, False, ()),
                 (2, XOR_BACKLOG, (1, 2), True, False, ()),
                 (3, XOR_BACKLOG, (0, 3), True, False, ()),    # inside the component
                 (4, REMEDY, (3,), True, False, ((1, 0), (1, 1), (1, 2)))]
    _decoded(pair_pair, [])
    list_pair = [(0, MIX_FRESH, (0, 1), True, False, ()),
                 (1, MIX_FRESH, (1, 2), True, False, ()),    # three ids: one list
                 (2, MIX_FRESH, (5, 6), True, False, ()),
                 (3, XOR_BACKLOG, (6, 2), True, False, ((1, 5),)),
                 (4, XOR_BACKLOG, (0, 5), True, False, ()),
                 (5, REMEDY, (6,), True, False, ((1, 0), (1, 1), (1, 2), (1, 5)))]
    _decoded(list_pair, [(1, 5, 3)])
    pair_list = [(0, MIX_FRESH, (0, 1), True, False, ()),
                 (1, MIX_FRESH, (2, 3), True, False, ()),
                 (2, MIX_FRESH, (3, 4), True, False, ()),
                 (3, XOR_BACKLOG, (1, 2), True, False, ()),    # pair into a list
                 (4, FRESH1, (4,), True, False, ((1, 0),))]
    _decoded(pair_list, [])


def test_decode_verify_hand_xor_with_decoded_id():
    # a pending pair decodes through an XOR with a decoded id, either way
    # round, and only at the receiver that heard it
    for combo in ((7, 0), (0, 7)):
        trace = [(0, FRESH1, (7,), True, True, ()),
                 (1, MIX_FRESH, (0, 1), True, True, ()),
                 (2, XOR_BACKLOG, combo, True, False, ((1, 1),)),
                 (3, XOR_BACKLOG, (1, 9), False, False, ((2, 1), (1, 9)))]
        rep = _decoded(trace, [(2, 1, 3), (1, 9, 3)])
        assert rep.receiver_ok == (False, False)


def test_decode_verify_hand_failures_keep_claim_order():
    # both receivers fail in one row: failures follow the row's claims,
    # and later failures of either receiver are not reported
    trace = [(0, MIX_FRESH, (3, 4), True, True, ()),
             (1, REMEDY, (3,), False, False, ((2, 4), (1, 3))),
             (2, FRESH1, (8,), False, False, ((1, 8), (2, 8)))]
    rep = _decoded(trace, [(2, 4, 1), (1, 3, 1)])
    assert not rep.ok


def test_decode_verify_join_keeps_pairs_and_lists():
    # a pair heard again keeps its partners; an edge inside a shared list
    # adds nothing to it
    pending = {0: 1, 1: 0}
    xc.sim._join(pending, 1, 0)
    assert pending == {0: 1, 1: 0}
    xc.sim._join(pending, 1, 2)
    members = pending[0]
    assert sorted(members) == [0, 1, 2] and all(pending[p] is members for p in (0, 1, 2))
    xc.sim._join(pending, 2, 0)
    assert sorted(members) == [0, 1, 2] and len(pending) == 3


def test_decode_verify_large_component_in_budget():
    # 5e4 ids joined into one component at both receivers: pairs chained
    # pair by pair, then lone ids, each edge written with the component
    # on alternate ends, so that merging the larger component into the
    # smaller would take quadratic time; one singleton then decodes it all
    n = 50_000
    half = n // 2
    edges = [(2 * k, 2 * k + 1) for k in range(half // 2)]
    edges += [(2 * k - 1, 2 * k) if k % 2 else (2 * k, 2 * k - 1) for k in range(1, half // 2)]
    edges += [(0, p) if p % 2 else (p, 0) for p in range(half, n)]
    trace = [(slot, XOR_BACKLOG, combo, True, True, ()) for slot, combo in enumerate(edges)]
    claims = ((2, 1),) + tuple((1, p) for p in range(n))
    trace.append((len(edges), REMEDY, (n - 1,), True, False, claims))
    t0 = time.perf_counter()
    rep = xc.decode_verify(trace)
    elapsed = time.perf_counter() - t0
    assert rep.failures == [(2, 1, len(edges))]
    assert elapsed < 2.0, f"{elapsed:.2f} s for {n} ids"


def test_decode_verify_rejects_malformed_combo():
    for combo in ((1, 2, 3), (4, 4), ()):
        trace = [(0, FRESH1, (9,), True, True, ((1, 9),)),
                 (1, MIX_FRESH, combo, False, False, ())]
        with pytest.raises(xc.ContractViolation):
            xc.decode_verify(trace)


def test_load_trace_rejects_malformed_combo(tmp_path, capsys):
    # a repeated id sums to zero over GF(2), and three or more ids break the
    # weight limit the decoder relies on
    def line(combo):
        return json.dumps({"slot": 0, "action": 4, "combo": combo,
                           "received_rx1": True, "received_rx2": False,
                           "delivered": []}) + "\n"
    path = tmp_path / "bad.jsonl"
    for combo in ([1, 2, 3], [4, 4], []):
        path.write_text(line([1]) + line(combo))
        with pytest.raises(xc.TraceFormatError) as err:
            xc.load_trace(path)
        assert err.value.line == 2
        assert cli_main(["verify", "--trace", str(path)]) == 3
        assert "line 2" in capsys.readouterr().err


def test_decode_verify_rejects_unknown_receiver():
    # receiver 0 would index receiver 2's span through j - 1
    for j in (0, 3):
        trace = [(0, FRESH2, (5,), False, True, ((j, 5),))]
        with pytest.raises(xc.ContractViolation):
            xc.decode_verify(trace)


def test_decode_verify_rejects_a_receiver_that_is_not_an_int():
    # load_trace's rule: 1.0 once raised a bare TypeError, True passed as
    # receiver 1, and '1' was refused as "receiver 1"
    for j, shown in ((1.0, "1.0"), (True, "True"), ("1", "'1'")):
        trace = [(0, FRESH1, (5,), True, False, ((j, 5),))]
        with pytest.raises(xc.ContractViolation, match=f"names receiver {shown};"):
            xc.decode_verify(trace)


def test_load_trace_rejects_unknown_receiver(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    for j in (0, 3):
        path.write_text(json.dumps({"slot": 0, "action": 2, "combo": [5],
                                    "received_rx1": False, "received_rx2": True,
                                    "delivered": [[j, 5]]}) + "\n")
        with pytest.raises(xc.TraceFormatError) as err:
            xc.load_trace(path)
        assert err.value.line == 1
        assert cli_main(["verify", "--trace", str(path)]) == 3
        assert "line 1" in capsys.readouterr().err


def test_load_trace_rejects_unknown_action(tmp_path, capsys):
    # write_trace writes the transmit codes 1..5 only, as JSON integers
    path = tmp_path / "bad.jsonl"
    good = {"slot": 0, "action": 1, "combo": [5], "received_rx1": True,
            "received_rx2": False, "delivered": [[1, 5]]}
    for action in ("x", 2.5, 99, 0, True, None):
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "action": action}) + "\n")
        with pytest.raises(xc.TraceFormatError) as err:
            xc.load_trace(path)
        assert err.value.line == 2
        assert cli_main(["verify", "--trace", str(path)]) == 3
        assert "line 2" in capsys.readouterr().err


def test_load_trace_rejects_non_integer_claim(tmp_path, capsys):
    # a claim used to go through int(), so [1.9, "5"] verified as (1, 5)
    path = tmp_path / "bad.jsonl"
    for claim in ([1.9, "5"], [1, "5"], [True, 5]):
        path.write_text(json.dumps({"slot": 0, "action": 1, "combo": [5],
                                    "received_rx1": True, "received_rx2": False,
                                    "delivered": [claim]}) + "\n")
        with pytest.raises(xc.TraceFormatError) as err:
            xc.load_trace(path)
        assert err.value.line == 1
        assert cli_main(["verify", "--trace", str(path)]) == 3
        assert "line 1" in capsys.readouterr().err


# sha256 of repr((trace, checkpoints, action_counts, delivered)), recorded
# with the row-indexed filter that the column kernel replaced; the max-weight
# digests since max-weight scores a lone overheard queue (SUB1 or SUB2)
PINNED_RUNS = {
    (0.95, "probabilistic", 1): "148aafe8a6d4f1a603a9ebfdac87940dd66af0b85643acb64a0a8e78d2dface0",
    (0.95, "probabilistic", 2): "07c3968bbd894cc7ff453acec8427f6d53220c3dd8792ae11343af51b577ee04",
    (0.95, "probabilistic", 4): "e7f9334079d7dd38ec1cff4e453c13d12fd1a274aa979fd21ac1c64c3ddff867",
    (0.95, "maxweight", 1): "6ad8324f3ba0efeb708cab409c3da761c76d6fe20ecfb120d61ce149aab94176",
    (0.95, "maxweight", 2): "275c8266b24d99ba31f90d72aa7133eba0e2d22487ae13a978db7b5a6160a46d",
    (0.95, "maxweight", 4): "5aa0e281d16c506f890f23f2a403ec722ec0e26f36f5cd6442274feb8458309c",
    (1.10, "probabilistic", 1): "3770ca2c0471219c8c8461991012d7962ec7058f682a294bbc2d367cb6b3c283",
    (1.10, "probabilistic", 2): "9dcaf8261fa4e29dfd9e378995d1908450c6fdc0b45a741762cabdab06eb284c",
    (1.10, "probabilistic", 4): "beadb553ac8cc698722c1283c739dbaa5533bb872b35a9c6d69b15a34821a566",
    (1.10, "maxweight", 1): "dc853058ae05061096a6f955ffee9cdbf575a4730dccec3bd693fd8df0cd09c9",
    (1.10, "maxweight", 2): "bc635639372a9e061fa2062273d4b81795ca759c5fd687f6963e1a5904ae1d38",
    (1.10, "maxweight", 4): "ed0048053511e8c3fc3aad9aedc96e9d1c9a803665427e65096f42d3dd2a7522",
}


def test_simulate_pinned_runs(ref_model):
    # both schedulers at the acceptance seeds, 0.95x and 1.10x of the
    # lambda=0.5 point of the L=2 region, 2e4 slots: any change to a
    # queue, a draw or a near-tie max-weight decision moves a digest
    wit, dist, _ = xc.simulation_distribution(xc.window_table(ref_model, 2), 0.5)
    got = {}
    for (factor, sched, seed) in PINNED_RUNS:
        rep = xc.simulate(ref_model, sched, min(1.0, wit.R1 * factor),
                          min(1.0, wit.R2 * factor), 20_000, seed,
                          dist=dist if sched == "probabilistic" else None,
                          collect_trace=True)
        blob = repr((rep.trace, rep.checkpoints, rep.action_counts, rep.delivered))
        got[(factor, sched, seed)] = hashlib.sha256(blob.encode()).hexdigest()
    assert got == PINNED_RUNS


def test_trace_round_trip(tmp_path, ref_model):
    t = xc.window_table(ref_model, 1)
    _, dist, _ = xc.simulation_distribution(t, 0.5)
    rep = xc.simulate(ref_model, "probabilistic", 0.3, 0.3, 2000, 4,
                      dist=dist, collect_trace=True)
    path = tmp_path / "trace.jsonl"
    xc.save_trace(rep.trace, path)
    assert xc.load_trace(path) == rep.trace

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"slot": 0, "action": 1, "combo": [1], '
                   '"received_rx1": true, "received_rx2": false, '
                   '"delivered": []}\nnot json\n')
    with pytest.raises(xc.TraceFormatError) as err:
        xc.load_trace(bad)
    assert err.value.line == 2
    missing = tmp_path / "missing.jsonl"
    missing.write_text('{"slot": 0}\n')
    with pytest.raises(xc.TraceFormatError) as err:
        xc.load_trace(missing)
    assert err.value.line == 1
    blank = tmp_path / "blank.jsonl"
    blank.write_text("\n\n")
    assert xc.load_trace(blank) == []


def test_load_trace_reads_written_lines_without_json(tmp_path, ref_model, monkeypatch):
    # every line write_trace writes from a run, SUB, REMEDY, MIX_FRESH and
    # two-claim rows among them, takes the compiled canonical-line path
    def refuse(*args):
        raise AssertionError("a written trace line went through json.loads")

    wit, dist, _ = xc.simulation_distribution(xc.window_table(ref_model, 2), 0.5)
    monkeypatch.setattr(xc.sim.json, "loads", refuse)
    path = tmp_path / "trace.jsonl"
    for sched in ("probabilistic", "maxweight"):
        trace = xc.simulate(ref_model, sched, 0.95 * wit.R1, 0.95 * wit.R2, 3000, 3,
                            dist=dist, collect_trace=True).trace
        assert any(row[1] == XOR_BACKLOG and len(row[2]) == 1 for row in trace)
        assert {REMEDY, MIX_FRESH} <= {row[1] for row in trace}
        assert any(len(row[5]) == 2 for row in trace)
        xc.save_trace(trace, path)
        assert xc.load_trace(path) == trace


def test_load_trace_shares_ids_as_the_simulator_does(tmp_path, ref_model):
    # a claim naming an id of its row's combination holds that very int, an
    # id of the row before holds that row's int, and a combination equal to
    # the row before's is its tuple
    wit, dist, _ = xc.simulation_distribution(xc.window_table(ref_model, 2), 0.5)
    path = tmp_path / "trace.jsonl"
    for sched in ("probabilistic", "maxweight"):
        trace = xc.simulate(ref_model, sched, 0.95 * wit.R1, 0.95 * wit.R2, 3000, 3,
                            dist=dist, collect_trace=True).trace
        xc.save_trace(trace, path)
        rows = xc.load_trace(path)
        assert rows == trace
        shared = Counter()
        for prev, row in zip([(None,) * 6] + rows, rows):
            combo, before = row[2], prev[2] or ()
            for _, pid in row[5]:
                if pid in combo:
                    assert any(pid is c for c in combo), row
                    shared["claim"] += pid > 256        # past CPython's cached small ints
            for c in combo:
                if c in before:
                    assert any(c is b for b in before), (prev, row)
                    shared["id"] += c > 256
            if combo == before:
                assert combo is before, (prev, row)
                shared["combo"] += 1
        assert min(shared["claim"], shared["id"], shared["combo"]) > 100, shared


def test_load_trace_reuse_matches_oracle_on_hand_rows(tmp_path):
    # proxy claims, ids that are negative or 18 digits long, equal and
    # swapped combinations, a json.loads line between two canonical lines
    # with the same ids, and a last line with no newline
    big, neg = 10 ** 17 + 3, -(10 ** 18 - 1)
    rows = [(0, FRESH1, (neg,), True, False, ((1, neg),)),
            (1, REMEDY, (big,), True, True, ((2, 4), (1, big))),
            (2, XOR_BACKLOG, (big, neg), False, True, ((2, neg), (1, big))),
            (3, XOR_BACKLOG, (big, neg), True, True, ((1, neg),)),
            (4, MIX_FRESH, (neg, big), True, False, ((1, big),)),
            (5, XOR_BACKLOG, (big,), True, False, ((1, neg),)),
            (6, REMEDY, (-1,), False, True, ((2, 0),)),
            (7, FRESH2, (0, -1), True, True, ((1, -1), (2, 0)))]
    out = io.StringIO()
    xc.sim.write_trace(rows, out)
    lines = out.getvalue().splitlines(keepends=True)
    rewritten = json.dumps(json.loads(lines[3]), separators=(",", ":")) + "\n"
    assert xc.sim._CANONICAL.fullmatch(rewritten.encode()) is None
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(lines[:3] + [rewritten] + lines[4:]).rstrip("\n"))
    got = xc.load_trace(path)
    assert got == rows == load_trace_oracle(path)
    assert got[4][2][0] is got[2][2][1]     # the canonical row before, past the json line


def test_load_trace_retains_less_than_a_fresh_int_per_id(tmp_path, ref_model):
    # tracemalloc's size of the rows each reader returns for the same file:
    # ids shared as the simulator shares them keep at most 95% of what one
    # int per id (the json.loads oracle) keeps
    def retained(reader):
        gc.collect()
        tracemalloc.start()
        try:
            rows = reader(path)
            return tracemalloc.get_traced_memory()[0], rows
        finally:
            tracemalloc.stop()

    wit, dist, _ = xc.simulation_distribution(xc.window_table(ref_model, 2), 0.5)
    path = tmp_path / "trace.jsonl"
    for sched, seed in itertools.product(("probabilistic", "maxweight"), (1, 3)):
        trace = xc.simulate(ref_model, sched, 0.95 * wit.R1, 0.95 * wit.R2, 20_000, seed,
                            dist=dist, collect_trace=True).trace
        xc.save_trace(trace, path)
        got, rows = retained(xc.load_trace)
        want, oracle_rows = retained(load_trace_oracle)
        assert rows == oracle_rows == trace
        assert got <= 0.95 * want, (sched, seed, got / want)


def test_load_trace_reads_rewritten_runs(tmp_path, ref_model):
    # both schedulers' runs written by json.dumps in another spelling (keys
    # reordered, no spaces, CRLF endings): no line matches the canonical
    # pattern, and json.loads with the record checks gives back each row
    wit, dist, _ = xc.simulation_distribution(xc.window_table(ref_model, 2), 0.5)
    path = tmp_path / "trace.jsonl"
    for sched in ("probabilistic", "maxweight"):
        trace = xc.simulate(ref_model, sched, 0.95 * wit.R1, 0.95 * wit.R2, 3000, 3,
                            dist=dist, collect_trace=True).trace
        assert any(row[1] == XOR_BACKLOG and len(row[2]) == 1 for row in trace)
        assert {REMEDY, MIX_FRESH} <= {row[1] for row in trace}
        assert any(len(row[5]) == 2 for row in trace)
        with open(path, "w", encoding="utf-8", newline="") as f:
            for slot, action, combo, r1, r2, delivered in trace:
                f.write(json.dumps({"delivered": delivered, "received_rx2": r2,
                                    "received_rx1": r1, "combo": combo, "action": action,
                                    "slot": slot}, separators=(",", ":")) + "\r\n")
        lines = path.read_bytes().splitlines(keepends=True)
        assert not any(map(xc.sim._CANONICAL.fullmatch, lines))
        assert xc.load_trace(path) == trace
        assert load_trace_oracle(path) == trace


def test_save_trace_matches_json_oracle(tmp_path, ref_model):
    wit, dist, _ = xc.simulation_distribution(xc.window_table(ref_model, 2), 0.5)
    traces = [xc.simulate(ref_model, sched, 0.95 * wit.R1, 0.95 * wit.R2, 3000, 3,
                          dist=dist if sched == "probabilistic" else None,
                          collect_trace=True).trace
              for sched in ("probabilistic", "maxweight")]
    assert all(any(len(row[2]) == 2 for row in trace) for trace in traces)
    traces.append([(0, FRESH1, (7,), True, False, ()),
                   (1, XOR_BACKLOG, (7, 8), False, True, ((1, 7), (2, 8))),
                   (2 ** 40, REMEDY, (10 ** 15, 3), True, True, ((2, 10 ** 15),)),
                   (3, FRESH2, (), False, False, ())])
    for k, trace in enumerate(traces):
        got, want = tmp_path / f"got{k}.jsonl", tmp_path / f"want{k}.jsonl"
        xc.save_trace(trace, got)
        save_trace_json(trace, want)
        assert got.read_bytes() == want.read_bytes()


def test_write_trace_matches_fstring_oracle(ref_model):
    # the %-templates format every field with str(), as the f-strings did:
    # bools and floats where ints belong, no combination or a wide one, ids
    # above 2**63, any truthy heard flag; and a run longer than one chunk
    rep = xc.simulate(ref_model, "maxweight", 0.3, 0.3, 6000, 2, collect_trace=True)
    assert len(rep.trace) > xc.sim._CHUNK
    odd = [(True, 1.5, (2 ** 64, 3), 1, 0.0, ((1, 2 ** 64), (2, 3))),
           (2.0, False, (), True, False, ()),
           (5, XOR_BACKLOG, (1, 2, 3), "", [0], [(True, 2.5)]),
           (2 ** 70, REMEDY, (-1,), 0, 7, ((3, -1),))]
    for trace in (rep.trace, odd, rep.trace + odd):
        got, want = io.StringIO(), io.StringIO()
        xc.sim.write_trace(trace, got)
        write_trace_fstring(trace, want)
        assert got.getvalue() == want.getvalue()
    got, want = io.StringIO(), io.StringIO()
    xc.sim.write_trace(iter(odd), got)      # any iterable of rows will do
    write_trace_fstring(odd, want)
    assert got.getvalue() == want.getvalue()


def test_write_trace_reads_claims_from_any_iterable():
    # a row's template is chosen after its claims are read, so claims that
    # are an iterator, a generator or lists format as the f-strings do
    def rows():
        return [(0, FRESH1, (7,), True, False, iter([(1, 7)])),
                (1, XOR_BACKLOG, [7, 8], 1, "", ([1, 7], (2, 8))),
                (2, REMEDY, (9,), False, True, (claim for claim in [(2, 9)]))]
    got, want = io.StringIO(), io.StringIO()
    xc.sim.write_trace(rows(), got)
    write_trace_fstring(rows(), want)
    assert got.getvalue() == want.getvalue()


def _record(**fields):
    """One trace line as json.dumps writes it, with fields replaced."""
    return json.dumps({"slot": 3, "action": MIX_FRESH, "combo": [7, 8], "received_rx1": True,
                       "received_rx2": False, "delivered": [[1, 7]], **fields})


GOOD = _record()
# file text, and what load_trace makes of it: a row count or the error text
READER_CASES = [
    ("   " + GOOD + "\n", 1),
    (GOOD + "\r\n" + GOOD + "\r\n", 2),
    (GOOD + "\t\n", 1),
    (GOOD + "\u00a0\n", "line 1: Extra data"),        # not JSON whitespace
    (GOOD + "\n\u00a0\n" + GOOD, 2),                  # but str.strip() empties it
    ("1, 2\n", "line 1: Extra data"),
    ("NaN\n", "line 1: bad trace record"),
    ("[1, 2]\n", "line 1: bad trace record"),
    (_record(combo=[True]) + "\n", "line 1: bad trace record"),
    (_record(delivered=[[1, True]]), "line 1: delivery claim [1, True] is not two integers"),
    (_record(combo=[2 ** 64, 2 ** 63], delivered=[[2, 2 ** 64]]) + "\n", 1),
    (GOOD.encode() + b"\n" + GOOD.encode()[:30] + b"\xff\xfe" + b"\n" + GOOD.encode(),
     "line 2: not UTF-8 text"),
    ("\ufeff" + GOOD + "\n", "line 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    (" \ufeff" + GOOD + "\n", "line 1: Expecting value"),
    (GOOD + " " + GOOD + "\n", "line 1: Extra data"),
    ('{"slot": "a\n', "line 1: Invalid control character at"),
    ('{"slot": 1\n', "line 1: Expecting ',' delimiter"),
    ("\n \r\n\t\x0c\n\r", 0),
    ("\x0c" + GOOD + "\n", "line 1: Expecting value"),
    (GOOD + "\x0c\n", "line 1: Extra data"),
    (_record(delivered=0), "line 1: bad trace record"),
    (_record(delivered=None), "line 1: bad trace record"),
    (_record(delivered={}, combo={"5": 0}), "line 1: bad trace record"),
    (_record(delivered={"12": 0}), "line 1: delivery claim ['1', '2'] is not two integers"),
    (_record(combo=""), "line 1: combination [] is not one packet id or two distinct ones"),
    (_record(action=99, delivered=[[1, 2, 3]]), "line 1: bad trace record"),
    (_record(action=99, combo=[1, 1]), "line 1: action 99 is not a transmit action code 1..5"),
    (_record(combo=[1, 1], delivered=[[3, 1]]),
     "line 1: combination [1, 1] is not one packet id or two distinct ones"),
    (_record(delivered=[[1, 7], [3, "x"]]), "line 1: delivery claim [3, 'x'] is not two integers"),
    (_record(delivered=[[1, 7], [0, 5]]),
     "line 1: delivery claim names receiver 0; receivers are 1 and 2"),
    # text beside what write_trace writes: the lines the compiled pattern
    # refuses go through json and the record checks
    (GOOD.replace("[7, 8]", "[-0, 8]") + "\n", 1),
    (GOOD.replace("[7, 8]", "[0, -0]") + "\n",
     "line 1: combination [0, 0] is not one packet id or two distinct ones"),
    (GOOD.replace("[7, 8]", "[07, 8]") + "\n", "line 1: Expecting ',' delimiter"),
    (_record(combo=[-5, 10 ** 17 + 1], delivered=[[2, -5]]) + "\n", 1),     # 18 digits
    (_record(combo=[10 ** 18], delivered=[[1, -10 ** 18]]) + "\n", 1),       # 19 digits
    pytest.param(GOOD.replace("[7, 8]", "[" + "9" * 4301 + ", 8]") + "\n",
                 "line 1: integer longer than 4300 digits", id="4301-digit-id"),
    (_record(combo=[7, 7]) + "\n",
     "line 1: combination [7, 7] is not one packet id or two distinct ones"),
    (_record(delivered=[[1, 7], [2, 8], [1, 8]]) + "\n", 1),
    (_record(delivered=[[3, 7]]) + "\n",
     "line 1: delivery claim names receiver 3; receivers are 1 and 2"),
    (_record(action=0) + "\n", "line 1: action 0 is not a transmit action code 1..5"),
    (_record(action=6) + "\n", "line 1: action 6 is not a transmit action code 1..5"),
    (json.dumps(dict(reversed(json.loads(GOOD).items()))) + "\n", 1),
    (GOOD + "\n" + _record(delivered=[]), 2),
]


def _read(reader, path):
    """A trace reader's rows, or the line and text of its error."""
    try:
        return reader(path)
    except xc.TraceFormatError as e:
        return (e.line, str(e))


@pytest.mark.parametrize("text, want", READER_CASES)
def test_load_trace_matches_json_loads_oracle(tmp_path, text, want):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    got = _read(xc.load_trace, path)
    assert got == _read(load_trace_oracle, path)
    assert len(got) == want if isinstance(want, int) else got[1] == want


def test_load_trace_matches_oracle_on_mutated_lines(tmp_path):
    # records with fields swapped for other JSON values, then text edits:
    # every outcome, rows or (line, message), is the one json.loads and the
    # step-by-step checks give
    rng = random.Random(17)
    values = {"slot": [3, True, 1.5, "x", None, -1, 2 ** 64],
              "action": [1, 5, 0, 6, True, 2.5, "x", None],
              "combo": [[7], [7, 8], [], [1, 1], [1, 2, 3], [True], [1.5], "ab", {}, None, 5],
              "received_rx1": [True, False, 1, None, "true"],
              "received_rx2": [True, False, 0, None, "false"],
              "delivered": [[], [[1, 7]], [[2, 7], [1, 8]], [[3, 1]], [[0, 1]], [[1, 2, 3]],
                            [[2, "x"]], [[True, 5]], [1], {}, {"12": 0}, None, 0, "ab",
                            [[1, 2 ** 64]]]}
    chars = list(set(GOOD)) + [" ", "\t", "\r", "\n", "\u00a0", "\ufeff", "\x0c", "NaN"]
    checks = ("bad trace record", "transmit action", "packet id", "two integers", "receivers are")
    outcomes = Counter()
    path = tmp_path / "trace.jsonl"
    for _ in range(600):
        record = json.loads(GOOD)
        for key in rng.sample(list(values), rng.randint(0, 2)):
            record[key] = rng.choice(values[key])
        if rng.random() < 0.1:
            del record[rng.choice(list(values))]
        line = json.dumps(record)
        for _ in range(rng.choice((0, 0, 1, 2))):
            k = rng.randrange(len(line) + 1)
            line = line[:k] + rng.choice(chars + [""]) + line[k + rng.randint(0, 2):]
        path.write_text(GOOD + "\n" + line + "\n", encoding="utf-8")
        got = _read(xc.load_trace, path)
        assert got == _read(load_trace_oracle, path), line
        kinds = [k for k in checks if k in got[1]] if isinstance(got, tuple) else ["rows"]
        outcomes[kinds[0] if kinds else "json"] += 1
    # the edits reach good rows, the parser's errors and every record check
    assert set(outcomes) == {"rows", "json", *checks}, outcomes


def _verdict(n, backlog, every=1000):
    """The verdict on a hand-built run of n slots whose checkpoints, every
    `every` slots, read backlog(slot)."""
    rep = xc.SimReport(scheduler="maxweight", R1=0.1, R2=0.1, n=n, seed=0,
                       arrivals=(0, 0), delivered=(0, 0), action_counts={},
                       checkpoints=[(s, backlog(s), 0, 0) for s in range(0, n + 1, every)],
                       final_backlog=0, warmup=0)
    return xc.stability_verdict(rep)


def test_stability_verdict_branches():
    # the fit reads only the checkpoints in the last half of the run
    assert _verdict(20_000, lambda s: 10 + (s < 10_000) * s) == "Stable"
    assert _verdict(20_000, lambda s: 2 * xc.sim.SLOPE_UNSTABLE * s) == "Unstable"
    # between the two slopes, or flat above the backlog bound
    assert _verdict(20_000, lambda s: 10 * xc.sim.SLOPE_STABLE * s) == "Inconclusive"
    assert _verdict(20_000, lambda s: 2 * xc.sim.BACKLOG_BOUND) == "Inconclusive"
    with pytest.raises(xc.ContractViolation, match="10\\^4 slots"):
        _verdict(9_999, lambda s: 0)
    # one checkpoint in the last half fits no line
    with pytest.raises(xc.ContractViolation, match="checkpoints"):
        _verdict(20_000, lambda s: 0, every=15_000)
