import hashlib
import importlib.util
import io
import itertools
import math
import random
import tracemalloc
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest

import xorcast as xc

from xorcast import filtering
from xorcast.channel import _draw_codes, _path_cums
from xorcast.filtering import (LANE, _filter_batch, _refined_table, _step, _step_batch,
                               filter_path)

from oracles import (brute_force_window, empirical_forgetting_loop,
                     filter_step_oracle, predict_oracle, random_model, sparse_model,
                     window_table_dfs)

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def joint_posterior(model, observed):
    """Belief about the next slot's state given a pattern sequence, by
    enumerating hidden paths and advancing one step. Matches the library's
    convention that a belief always refers to the upcoming slot."""
    n = model.num_states
    pi = xc.stationary_distribution(model)
    T = np.asarray(model.transition)
    E = np.asarray(model.emission)
    codes = [xc.PATTERN_INDEX[z] for z in observed]
    L = len(codes)
    post = np.zeros(n)
    for path in itertools.product(range(n), repeat=L):
        w = pi[path[0]]
        for k in range(L):
            w *= E[path[k], codes[k]]
            if k + 1 < L:
                w *= T[path[k], path[k + 1]]
        post[path[-1]] += w
    return (post / post.sum()) @ T


def run_filter(model, observed):
    belief = xc.init_belief(model)
    for z in observed:
        belief = xc.filter_step(model, belief, z)
    return np.asarray(belief)


def test_filter_matches_path_enumeration(ref_model):
    rng = random.Random(3)
    for _ in range(30):
        seq = [xc.PATTERNS[rng.randrange(4)] for _ in range(rng.randrange(1, 6))]
        got = run_filter(ref_model, seq)
        want = joint_posterior(ref_model, seq)
        assert np.max(np.abs(got - want)) < 1e-12


def test_filter_random_models():
    rng = random.Random(17)
    for _ in range(10):
        m = random_model(rng, rng.randrange(2, 4))
        seq = [xc.PATTERNS[rng.randrange(4)] for _ in range(4)]
        assert np.max(np.abs(run_filter(m, seq) - joint_posterior(m, seq))) < 1e-12


def test_filter_zero_likelihood():
    m = xc.ChannelModel([[1.0]], [[0.5, 0.5, 0.0, 0.0]])
    belief = xc.init_belief(m)
    with pytest.raises(xc.ZeroLikelihood):
        xc.filter_step(m, belief, (1, 0))


def _random_belief(rng, n):
    w = [rng.random() + 1e-3 for _ in range(n)]
    total = sum(w)
    return tuple(v / total for v in w)


def test_kernel_matches_row_oracle_exactly():
    # the column kernel does the oracle's multiplications and additions in
    # the same order, so every float must agree exactly, for plain floats
    # and for numpy scalars alike
    rng = random.Random(2024)
    models = [random_model(rng, 1 + i % 4) for i in range(40)]
    models.append(xc.ChannelModel([[1.0]], [[0.5, 0.5, 0.0, 0.0]]))
    models.append(xc.ChannelModel([[0.0, 1.0], [1.0, 0.0]],
                                  [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]))
    for model in models:
        for _ in range(5):
            plain = _random_belief(rng, model.num_states)
            scalars = tuple(np.asarray(plain))
            assert all(type(v) is np.float64 for v in scalars)
            for belief in (plain, scalars):
                assert xc.predict_pattern_probs(model, belief) == predict_oracle(model, belief)
                for z in range(4):
                    got = _step(model, belief, z)
                    assert got == filter_step_oracle(model, belief, z)
                    assert got == _step(model, plain, z)


def test_step_sums_are_left_folds():
    # sum() compensates float sums from Python 3.12 on, and not array sums,
    # so _step and predict_pattern_probs add in the plain left-to-right
    # order of _step_batch; a compensated sum differs on some of these
    rng = random.Random(312)
    compensated_differs = 0
    for n_states in (3, 4):
        for _ in range(25):
            model = random_model(rng, n_states)
            belief = tuple(rng.random() * 10.0 ** rng.randint(-8, 0) for _ in range(n_states))
            want_pp = tuple(reduce(add, [b * e for b, e in zip(belief, col)])
                            for col in model.emission_cols)
            assert xc.predict_pattern_probs(model, belief) == want_pp
            for z in range(4):
                post = [b * e for b, e in zip(belief, model.emission_cols[z])]
                ell = reduce(add, post)
                terms = [[p * t for p, t in zip(post, col)] for col in model.transition_cols]
                want = tuple(reduce(add, ts) * (1.0 / ell) for ts in terms)
                assert _step(model, belief, z) == (want, ell)
                got, got_ell = _step_batch(model, tuple(np.array([b]) for b in belief), z)
                assert tuple(float(v[0]) for v in got) == want and float(got_ell[0]) == ell
                compensated_differs += any(math.fsum(ts) != reduce(add, ts)
                                           for ts in [post] + terms)
    assert compensated_differs > 0


def test_kernel_matches_row_oracle_along_sampled_path():
    rng = random.Random(7)
    for n_states in (1, 2, 3, 4):
        model = random_model(rng, n_states)
        _, patterns = xc.sample_trajectory(model, 10_000, seed=n_states)
        got = xc.init_belief(model)
        want = tuple(xc.stationary_distribution(model))
        assert got == want
        for p in patterns:
            z = xc.PATTERN_INDEX[p]
            got = xc.filter_step(model, got, z)
            want, ell = filter_step_oracle(model, want, z)
            assert ell > 0.0
            assert got == want
            assert xc.predict_pattern_probs(model, got) == predict_oracle(model, want)


def test_stats_from_pattern_probs():
    st = xc.ErasureStats.from_pattern_probs((0.4, 0.3, 0.2, 0.1))
    assert abs(st.eps12 - 0.1) < 1e-15
    assert abs(st.eps_n12 - 0.3) < 1e-15
    assert abs(st.eps1_n2 - 0.2) < 1e-15
    assert abs(st.eps1 - 0.3) < 1e-15
    assert abs(st.eps2 - 0.4) < 1e-15


STAT_FIELDS = ("eps1", "eps2", "eps12", "eps_n12", "eps1_n2")


def test_stats_over_windows_match_each_row():
    # one map for floats and arrays: the columns of a table give, row by
    # row, the very floats its rows give one at a time
    table = xc.window_table(random_model(random.Random(5), 3), 3)
    cols = xc.ErasureStats.from_pattern_probs(table.pattern_probs.T)
    stats = table.stats()
    for f in STAT_FIELDS:
        got = getattr(cols, f).tolist()
        assert got == getattr(stats, f).tolist()
        assert got == [getattr(xc.ErasureStats.from_pattern_probs(row), f)
                       for row in table.pattern_probs.tolist()], f


def test_predict_stats_over_a_belief_batch_matches_each_belief():
    model = random_model(random.Random(6), 3)
    beliefs = np.random.default_rng(6).random((3, 40))
    beliefs /= beliefs.sum(axis=0)
    batch = xc.predict_stats(model, beliefs)
    for k, belief in enumerate(beliefs.T.tolist()):
        one = xc.predict_stats(model, belief)
        for f in STAT_FIELDS:
            assert getattr(batch, f)[k] == getattr(one, f), (k, f)


def test_window_index_roundtrip():
    for L in (1, 2, 3):
        for idx in range(4 ** L):
            codes = xc.window_codes(idx, L)
            assert len(codes) == L
            assert xc.window_index(codes) == idx


def test_window_label():
    assert xc.window_label(xc.window_index([0, 1]), 2) == "00.01"
    assert xc.window_label(xc.window_index([3]), 1) == "11"


def test_window_table_matches_enumeration(ref_model):
    for L in (1, 2):
        table = xc.window_table(ref_model, L)
        probs, preds = brute_force_window(ref_model, L)
        assert np.max(np.abs(np.asarray(table.probs) - probs)) < 1e-12
        got = np.asarray(table.pattern_probs)
        mask = probs > 0
        assert np.max(np.abs(got[mask] - preds[mask])) < 1e-12
        assert abs(probs.sum() - 1.0) < 1e-12


def test_window_table_random_models():
    rng = random.Random(29)
    for _ in range(8):
        m = random_model(rng, rng.randrange(1, 4))
        table = xc.window_table(m, 2)
        probs, preds = brute_force_window(m, 2)
        assert np.max(np.abs(np.asarray(table.probs) - probs)) < 1e-12
        assert np.max(np.abs(np.asarray(table.pattern_probs) - preds)) < 1e-12


def test_refined_table_matches_enumeration():
    # row s * 4**L + i of the refined table holds P(state s at the oldest
    # slot, window i) and the prediction given both
    rng = random.Random(31)
    for _ in range(6):
        m = random_model(rng, rng.randint(2, 3))
        for L in (1, 2, 3):
            table = _refined_table(m, L)
            assert len(table) == m.num_states * 4 ** L
            for s in range(m.num_states):
                probs, preds = brute_force_window(m, L, s)
                rows = slice(s * 4 ** L, (s + 1) * 4 ** L)
                assert np.max(np.abs(table.probs[rows] - probs)) < 1e-12
                assert np.max(np.abs(table.pattern_probs[rows] - preds)) < 1e-12


def test_window_stats_identities(ref_model):
    table = xc.window_table(ref_model, 2)
    for i in range(16):
        st = xc.ErasureStats.from_pattern_probs(table.pattern_probs[i])
        assert abs(st.eps1 - (st.eps12 + st.eps1_n2)) < 1e-12
        assert abs(st.eps2 - (st.eps12 + st.eps_n12)) < 1e-12


def test_window_marginal_invariant_in_length(ref_model):
    # averaging the per-window prediction over windows must reproduce the
    # stationary one-slot-ahead marginal regardless of window length
    pi = np.asarray(xc.stationary_distribution(ref_model))
    marg = (pi @ ref_model.transition) @ ref_model.emission
    for L in (1, 2, 3):
        table = xc.window_table(ref_model, L)
        probs = np.asarray(table.probs)
        pp = np.asarray(table.pattern_probs)
        assert np.max(np.abs(probs @ pp - marg)) < 1e-9


def test_filter_agrees_with_window(ref_model):
    table = xc.window_table(ref_model, 3)
    rng = random.Random(41)
    for _ in range(20):
        codes = [rng.randrange(4) for _ in range(3)]
        belief = xc.init_belief(ref_model)
        for c in codes:
            belief = xc.filter_step(ref_model, belief, xc.PATTERNS[c])
        want = xc.predict_stats(ref_model, belief)
        got = xc.ErasureStats.from_pattern_probs(table.pattern_probs[xc.window_index(codes)])
        for f in ("eps1", "eps2", "eps12", "eps_n12", "eps1_n2"):
            assert abs(getattr(got, f) - getattr(want, f)) < 1e-12


def test_zero_probability_window_uses_uniform_belief():
    m = xc.ChannelModel([[1.0]], [[0.5, 0.5, 0.0, 0.0]])
    table = xc.window_table(m, 1)
    idx = xc.window_index([3])
    assert table.probs[idx] == 0.0
    uni = xc.predict_pattern_probs(m, (1.0,))
    assert np.max(np.abs(np.asarray(table.pattern_probs[idx]) - uni)) < 1e-15


def test_window_length_cap(ref_model):
    with pytest.raises(xc.ResourceLimit):
        xc.window_table(ref_model, 11)


def test_dump_window_table(ref_model):
    table = xc.window_table(ref_model, 1)
    buf = io.StringIO()
    xc.dump_window_table(table, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "window,prob,eps1,eps2,eps12,eps_n12,eps1_n2"
    assert len(lines) == 5
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["window"] == "00"
    assert abs(float(row["prob"]) - table.probs[0]) < 1e-12
    st = xc.ErasureStats.from_pattern_probs(table.pattern_probs[0])
    assert abs(float(row["eps1"]) - st.eps1) < 1e-12


def test_dump_window_table_golden(ref_model):
    # sha256 of the whole CSV, so a drift in any column's format shows
    def digest(table):
        buf = io.StringIO()
        xc.dump_window_table(table, buf)
        return hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest(xc.window_table(ref_model, 3)) == (
        "8b5b721f55767a41d782ae065f1f778923d71b95603eddf12e28548cd2e11ff7")
    assert digest(xc.window_table(random_model(random.Random(0), 3), 2)) == (
        "324711c94e9f21b21fca9c9ec8d141ff6cf8104e9be48d0c63baa26d2bf4f627")


def test_table_and_draw_bytes_golden(ref_model):
    # sha256 of the bytes of the refined table and of a 4096-path draw, so a
    # reordered fold or a reordered draw shows; window_table(ref_model, 8) is
    # pinned bit for bit by test_window_table_matches_dfs_oracle
    table = _refined_table(ref_model, 3)
    assert hashlib.sha256(table.probs.tobytes() + table.pattern_probs.tobytes()).hexdigest() == (
        "1abd2c909220f3e12b021c821c3fbed08103f5804e74842e1d4f8ac691c53429")
    codes = _draw_codes(_path_cums(ref_model, xc.init_belief(ref_model)), 11, 1, 4096)
    assert hashlib.sha256(codes.astype("<i8").tobytes()).hexdigest() == (
        "96af5d672b59d1abd767038ea72c54eda63fa1c388acbcede95234a2cd0b177f")


def test_exhaustive_forgetting_reference(ref_model):
    tv1 = xc.exhaustive_forgetting(ref_model, 1, 6)
    tv2 = xc.exhaustive_forgetting(ref_model, 2, 6)
    tv3 = xc.exhaustive_forgetting(ref_model, 3, 6)
    # frozen from an independent state-path enumeration of the same quantity
    assert abs(tv1 - 0.435781148288) < 1e-9
    assert abs(tv2 - 0.261586948061) < 1e-9
    assert abs(tv3 - 0.182327692841) < 1e-9
    assert tv1 >= tv2 >= tv3


def test_forgetting_zero_when_window_covers_history(ref_model):
    assert xc.exhaustive_forgetting(ref_model, 5, 6) < 1e-12


def test_forgetting_horizon_too_short(ref_model):
    with pytest.raises(xc.ContractViolation):
        xc.exhaustive_forgetting(ref_model, 3, 3)


def test_exhaustive_forgetting_skips_impossible_histories():
    # the worst case runs over positive-probability histories only: a dead
    # history carries the uniform belief's prediction, which its window's
    # need not match, so on these sparse models counting it would raise
    # the worst case at least once
    rng = random.Random(11)
    raised = 0
    for _ in range(40):
        model = sparse_model(rng, rng.choice([2, 3]))
        for L in (1, 2):
            probs, full = window_table_dfs(model, 5)
            win = window_table_dfs(model, L)[1]
            tvs = [reduce(add, [abs(f - w) for f, w in zip(full[i], win[i % 4 ** L])])
                   for i in range(4 ** 5)]
            live = max(tv for tv, p in zip(tvs, probs) if p > 0.0)
            assert xc.exhaustive_forgetting(model, L, 6) == live
            raised += max(tvs) > live
    assert raised


def test_empirical_below_exhaustive(ref_model):
    ex = xc.exhaustive_forgetting(ref_model, 2, 6)
    em = xc.empirical_forgetting(ref_model, 2, 6, seed=9, samples=200)
    assert em <= ex + 1e-12
    assert em > 0.0


def test_window_table_matches_dfs_oracle(ref_model):
    # the level-order table does the depth-first recursion's arithmetic
    # node by node, so both arrays must agree bit for bit
    for L in range(1, 9):
        table = xc.window_table(ref_model, L)
        probs, pattern_probs = window_table_dfs(ref_model, L)
        assert np.array_equal(table.probs, probs)
        assert np.array_equal(table.pattern_probs, pattern_probs)
    rng = random.Random(55)
    dead_tables = 0
    for i in range(24):
        n_states = 1 + i % 9
        model = sparse_model(rng, n_states) if i % 2 else random_model(rng, n_states)
        for L in range(1, 7):
            table = xc.window_table(model, L)
            probs, pattern_probs = window_table_dfs(model, L)
            assert np.array_equal(table.probs, probs), (i, L)
            assert np.array_equal(table.pattern_probs, pattern_probs), (i, L)
            dead_tables += L == 6 and n_states > 1 and bool((probs == 0.0).any())
    assert dead_tables >= 3   # impossible windows in multi-state models occurred


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_window_table_chunk_edges(ref_model, monkeypatch, chunk):
    # a few parents per step cut every level into many blocks, so a block
    # written at a wrong offset moves rows; on the sparse models a dead
    # parent of the last level sits on each side of some block edge
    monkeypatch.setattr(filtering, "_CHUNK", chunk)
    for L in range(1, 7):
        table = xc.window_table(ref_model, L)
        probs, pattern_probs = window_table_dfs(ref_model, L)
        assert np.array_equal(table.probs, probs), L
        assert np.array_equal(table.pattern_probs, pattern_probs), L
    rng = random.Random(57)
    straddled = 0
    for i in range(12):
        model = sparse_model(rng, 2 + i % 3)
        for L in range(2, 6):
            table = xc.window_table(model, L)
            probs, pattern_probs = window_table_dfs(model, L)
            assert np.array_equal(table.probs, probs), (i, L)
            assert np.array_equal(table.pattern_probs, pattern_probs), (i, L)
            dead = (probs.reshape(-1, 4) == 0.0).all(axis=1)
            edges = np.arange(chunk, len(dead), chunk)
            straddled += bool((dead[edges - 1] & dead[edges]).any())
    assert straddled >= 3


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_refined_table_chunk_edges(monkeypatch, chunk):
    rng = random.Random(32)
    models = [random_model(rng, 2), random_model(rng, 3), sparse_model(rng, 3)]
    unchunked = [_refined_table(m, L) for m in models for L in (1, 2, 4)]
    monkeypatch.setattr(filtering, "_CHUNK", chunk)
    for want, got in zip(unchunked, (_refined_table(m, L) for m in models for L in (1, 2, 4))):
        assert np.array_equal(got.probs, want.probs)
        assert np.array_equal(got.pattern_probs, want.pattern_probs)
    test_refined_table_matches_enumeration()


def test_refined_table_bytes_golden(ref_model):
    # sha256 of the bytes of the L=8 refined table, 2 x 4**8 rows, whose
    # levels are stepped in many blocks; and the L=0 table, which is the
    # start rows themselves: pi and each state's emission row
    table = _refined_table(ref_model, 8)
    assert hashlib.sha256(table.probs.tobytes() + table.pattern_probs.tobytes()).hexdigest() == (
        "b36f131b0b4b056820dc8e4f435f97fce5a183cf5e82b8132b02bee97bf187e0")
    model = random_model(random.Random(8), 3)
    table = _refined_table(model, 0)
    assert table.probs.tobytes() == xc.stationary_distribution(model).tobytes()
    assert table.pattern_probs.tobytes() == np.asarray(model.emission).tobytes()
    assert hashlib.sha256(table.probs.tobytes() + table.pattern_probs.tobytes()).hexdigest() == (
        "f566411e0209c7ac0cb78e9873d34f947d408b7d3ca8b99125c4b9a8da2d54cf")


@pytest.mark.parametrize("call", [lambda m: xc.window_table(m, 8),
                                  lambda m: xc.exhaustive_forgetting(m, 4, 9)],
                         ids=["window_table", "exhaustive_forgetting"])
def test_window_table_working_memory(ref_model, call):
    # numpy reports its buffers to tracemalloc, so the peak counts every
    # array the call holds, whatever the allocator does with freed memory:
    # the 4**8 table, blocks of its levels, and the TV's two buffers
    out = 4 ** 8 * 5 * 8        # probs and four pattern columns of doubles
    tracemalloc.start()
    try:
        call(ref_model)
        assert tracemalloc.get_traced_memory()[1] <= 1.5 * out
    finally:
        tracemalloc.stop()


def test_step_batch_masks_where_step_has_zero_likelihood():
    rng = random.Random(81)
    models = [sparse_model(rng, 1 + i % 5) for i in range(20)]
    models.append(xc.ChannelModel([[1.0]], [[0.5, 0.5, 0.0, 0.0]]))
    for model in models:
        n = model.num_states
        rows = [_random_belief(rng, n) for _ in range(30)]
        # beliefs concentrated on single states give zero likelihoods
        rows += [tuple(float(s == k) for s in range(n)) for k in range(n)]
        belief = tuple(np.array(col) for col in zip(*rows))
        zs = np.array([rng.randrange(4) for _ in rows])
        for z in [0, 1, 2, 3, zs]:
            nxt, ell = _step_batch(model, belief, z)
            for r, row in enumerate(rows):
                want, want_ell = _step(model, row, z if isinstance(z, int) else int(z[r]))
                assert ell[r] == want_ell
                assert tuple(v[r] for v in nxt) == want
    model = xc.ChannelModel([[1.0]], [[0.5, 0.5, 0.0, 0.0]])
    _, ell = _step_batch(model, (np.ones(2),), np.array([0, 2]))
    assert ell.tolist() == [0.5, 0.0]
    # the batched sampled-history filter raises where filter_step would
    _filter_batch(model, (1.0,), np.array([[0, 1], [1, 0]]))
    with pytest.raises(xc.ZeroLikelihood):
        _filter_batch(model, (1.0,), np.array([[0, 1], [1, 2]]))


def test_empirical_forgetting_matches_loop_oracle(ref_model):
    rng = random.Random(12)
    models = [ref_model, random_model(rng, 3), sparse_model(rng, 4)]
    for model in models:
        for L in (1, 2, 3, 4):
            for seed, samples in ((1, 1), (2, 1), (3, 7), (40, 150)):
                got = xc.empirical_forgetting(model, L, 12, seed, samples)
                assert got == empirical_forgetting_loop(model, L, 12, seed, samples)


def test_sampled_histories_share_one_stream(ref_model):
    # one generator per draw: history 0 is sample_trajectory's path for the
    # seed, and a draw of k histories is the first k columns of a larger one
    rng = random.Random(31)
    for model in (ref_model, random_model(rng, 3), sparse_model(rng, 4)):
        cums = _path_cums(model, xc.init_belief(model))
        for t, seed, k in ((1, 0, 1), (7, 123, 9), (11, 5, 64)):
            codes = _draw_codes(cums, t, seed, k + 7)
            _, patterns = xc.sample_trajectory(model, t, seed)
            assert codes[:, 0].tolist() == [xc.PATTERN_INDEX[z] for z in patterns]
            assert np.array_equal(_draw_codes(cums, t, seed, k), codes[:, :k])


def test_exhaustive_forgetting_frozen_horizon9(ref_model):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for L, frozen in zip((1, 2, 3, 4), workloads.TV_HORIZON9):
        assert xc.exhaustive_forgetting(ref_model, L, 9) == frozen


def test_tv_is_a_left_fold_over_the_patterns():
    # history by history and bit for bit, (((0 + |f0 - w0|) + |f1 - w1|) + ...)
    # in pattern order 0..3, each window row broadcast against its block;
    # terms of mixed magnitude make the reversed fold differ, so the order shows
    rng = np.random.default_rng(11)
    full = rng.random((4, 40, 16)) * 10.0 ** rng.integers(-17, 1, (4, 40, 16))
    window = rng.random((4, 16)) * 10.0 ** rng.integers(-17, 1, (4, 16))
    got = filtering._tv(full, window)
    assert got.shape == (40, 16)
    reversed_differs = False
    for h, k in itertools.product(range(40), range(16)):
        terms = [abs(float(full[p, h, k]) - float(window[p, k])) for p in range(4)]
        left = reduce(add, terms, 0.0)
        assert float(got[h, k]).hex() == left.hex(), (h, k)
        reversed_differs |= reduce(add, terms[::-1], 0.0) != left
    assert reversed_differs


def test_empirical_forgetting_needs_a_sample(ref_model):
    for samples in (0, -3):
        with pytest.raises(xc.ContractViolation):
            xc.empirical_forgetting(ref_model, 2, 12, seed=1, samples=samples)


def test_empirical_forgetting_sample_cap(ref_model, monkeypatch):
    # one sampled slot past 4**WINDOW_CAP raises before a double is drawn
    def no_draw(*args):
        raise AssertionError("drew a path past the cap")
    monkeypatch.setattr(xc.filtering, "_draw_codes", no_draw)
    cap = 4 ** xc.filtering.WINDOW_CAP
    for horizon, samples in ((cap + 2, 1), (2, cap + 1)):
        with pytest.raises(xc.ResourceLimit, match="exceed the cap"):
            xc.empirical_forgetting(ref_model, 1, horizon, seed=0, samples=samples)


def test_empirical_forgetting_rejects_negative_seed(ref_model):
    # random.Random(-128) seeds as random.Random(128) does, so -128 would
    # replay seed 128's histories
    with pytest.raises(xc.ContractViolation, match="negative"):
        xc.empirical_forgetting(ref_model, 2, 12, -128, 256)


def _step_chain(model, belief, codes):
    """Beliefs before each slot of codes and after the last, by _step."""
    out = [belief]
    for z in codes:
        belief, ell = _step(model, belief, int(z))
        assert ell > 0.0
        out.append(belief)
    return out


def test_filter_path_matches_step_chain(ref_model):
    # a slow-mixing chain forgets a wrong lane start slowly, so the lanes
    # after the first need fix-up passes before they match; with nearly
    # equal emission rows no lane forgets it within PASSES passes, and the
    # rest of the path runs one slot at a time
    slow = xc.ChannelModel([[0.999, 0.001], [0.002, 0.998]], ref_model.emission)
    weak = xc.ChannelModel(slow.transition, [[0.5, 0.2, 0.2, 0.1], [0.49, 0.21, 0.2, 0.1]])
    rng = random.Random(5)
    models = [slow, weak, ref_model, random_model(rng, 3), sparse_model(rng, 3)]
    for model in models:
        for n in (0, 1, LANE - 1, LANE, LANE + 1, 3 * LANE + 7, 5000):
            _, patterns = xc.sample_trajectory(model, n, seed=n)
            codes = np.array([xc.PATTERN_INDEX[p] for p in patterns], dtype=np.intp)
            start = xc.init_belief(model)
            got = filter_path(model, start, codes)
            assert got.dtype == np.float64 and got.shape == (model.num_states, n + 1)
            assert all(len(v) == n + 1 for v in got)
            assert list(zip(*(v.tolist() for v in got))) == _step_chain(model, start, codes)


def test_filter_path_raises_where_filter_step_does():
    # pattern 3 is emitted by no state: the path raises at its first slot
    model = xc.ChannelModel([[0.7, 0.3], [0.4, 0.6]],
                            [[0.6, 0.2, 0.2, 0.0], [0.1, 0.5, 0.4, 0.0]])
    rng = random.Random(9)
    k = 2 * LANE + 9
    codes = np.array([rng.randrange(3) for _ in range(k)] + [3, 0, 1], dtype=np.intp)
    start = xc.init_belief(model)
    assert (list(zip(*(v.tolist() for v in filter_path(model, start, codes[:k]))))
            == _step_chain(model, start, codes[:k]))
    with pytest.raises(xc.ZeroLikelihood) as want:
        run_filter(model, [xc.PATTERNS[z] for z in codes])
    with pytest.raises(xc.ZeroLikelihood) as got:
        filter_path(model, start, codes)
    assert str(got.value) == str(want.value)
    # states alternate, and the first pattern names the state: at slot LANE
    # the state is 0, which never emits pattern 1, while a lane started
    # from the even belief would take it
    model = xc.ChannelModel([[0.0, 1.0], [1.0, 0.0]],
                            [[0.5, 0.0, 0.0, 0.5], [0.0, 0.5, 0.5, 0.0]])
    codes = np.array([(0, 1)[t % 2] for t in range(LANE)] + [1, 2], dtype=np.intp)
    filter_path(model, (0.5, 0.5), codes[:LANE])
    with pytest.raises(xc.ZeroLikelihood, match=r"\(0, 1\)"):
        filter_path(model, (0.5, 0.5), codes)


# every entry that takes a window length, at the horizon 13 whose window
# table of 4**12 rows the forgetting checks would refuse next
WINDOW_ENTRIES = {
    "window_table": lambda m, L: xc.window_table(m, L),
    "boundary_sweep": lambda m, L: xc.boundary_sweep(m, L),
    "sandwich": lambda m, L: xc.sandwich(m, L, 0.5, 0.5),
    "ActionDistribution": lambda m, L: xc.ActionDistribution(L, [[0.2] * 5] * 4),
    "dist_from_dict": lambda m, L: xc.dist_from_dict({"L": L, "actions": []}),
    "exhaustive_forgetting": lambda m, L: xc.exhaustive_forgetting(m, L, 13),
    "empirical_forgetting": lambda m, L: xc.empirical_forgetting(m, L, 13, 0, 4),
}


@pytest.fixture
def no_tables(monkeypatch):
    def refuse(*args):
        raise AssertionError("work began before the window length was checked")
    monkeypatch.setattr(filtering, "_extend", refuse)
    monkeypatch.setattr(filtering, "_draw_codes", refuse)


@pytest.mark.parametrize("L", [True, np.int64(2), 2.0, "2", None, 0, -1],
                         ids=["True", "int64", "float", "str", "None", "0", "-1"])
@pytest.mark.parametrize("entry", sorted(WINDOW_ENTRIES))
def test_every_entry_refuses_a_window_length_not_a_positive_integer(ref_model, no_tables,
                                                                     entry, L):
    error = xc.ModelFormatError if entry == "dist_from_dict" else xc.ContractViolation
    with pytest.raises(error, match="^L: expected a positive integer$") as got:
        WINDOW_ENTRIES[entry](ref_model, L)
    assert type(got.value) is error


@pytest.mark.parametrize("entry", sorted(set(WINDOW_ENTRIES) - {"empirical_forgetting"}))
def test_every_table_entry_refuses_a_window_length_above_the_cap(ref_model, no_tables, entry):
    with pytest.raises(xc.ResourceLimit, match="cap of 10$"):
        WINDOW_ENTRIES[entry](ref_model, 11)


def test_sampled_forgetting_takes_a_window_length_above_the_table_cap(ref_model):
    # it builds no table, so WINDOW_CAP does not apply to it
    assert 0.0 <= xc.empirical_forgetting(ref_model, 11, 13, 0, 4) <= 2.0


@pytest.mark.parametrize("pattern", [(0, 2), (1,), True, 4, -1, None, "01", 1.0], ids=repr)
def test_filter_step_refuses_what_is_no_pattern(ref_model, pattern):
    # a pattern is an index 0..3 or a pair (z1, z2): a bool is neither
    with pytest.raises(xc.ContractViolation):
        xc.filter_step(ref_model, xc.init_belief(ref_model), pattern)


@pytest.mark.parametrize("samples", [True, 2.5, 0], ids=repr)
def test_sampled_forgetting_refuses_a_sample_count_not_a_positive_integer(ref_model,
                                                                          no_tables, samples):
    with pytest.raises(xc.ContractViolation, match="^samples: expected a positive integer$"):
        xc.empirical_forgetting(ref_model, 2, 5, 0, samples)
