import json
import math
import random

import numpy as np
import pytest

import xorcast as xc
from xorcast.channel import BALANCE_TOL, _pick, _uniforms

from oracles import (aperiodic_oracle, cumulative_rows, draw_oracle, random_model,
                     sparse_model, strongly_connected_oracle, trajectory_oracle)


def test_model_shapes_and_readonly(ref_model):
    assert ref_model.num_states == 2
    assert ref_model.transition.shape == (2, 2)
    assert ref_model.emission.shape == (2, 4)
    with pytest.raises(ValueError):
        ref_model.transition[0, 0] = 0.5


def test_model_rejects_bad_shapes():
    with pytest.raises(xc.StructuralError):
        xc.ChannelModel([[1.0, 0.0]], [[0.25, 0.25, 0.25, 0.25]])
    with pytest.raises(xc.StructuralError):
        xc.ChannelModel([[1.0]], [[0.5, 0.5]])
    with pytest.raises(xc.StructuralError, match="labels"):
        xc.ChannelModel([[1.0]], [[0.25] * 4], labels=["calm", "storm"])


def test_validate_ok(ref_model):
    rep = xc.validate_model(ref_model)
    assert rep.ok
    assert rep.strictly_positive
    assert rep.irreducible
    assert rep.aperiodic
    assert rep.violations == []


def test_validate_bad_row_sum():
    rep = xc.validate_model(
        xc.ChannelModel([[0.9, 0.2], [0.5, 0.5]], [[0.25] * 4, [0.25] * 4])
    )
    assert not rep.ok
    assert any("sum" in v for v in rep.violations)


def test_validate_negative_entry():
    rep = xc.validate_model(
        xc.ChannelModel([[1.1, -0.1], [0.5, 0.5]], [[0.25] * 4, [0.25] * 4])
    )
    assert not rep.ok


def test_validate_periodic_chain():
    m = xc.ChannelModel([[0.0, 1.0], [1.0, 0.0]], [[0.25] * 4, [0.25] * 4])
    rep = xc.validate_model(m)
    assert rep.irreducible
    assert not rep.aperiodic
    assert not rep.strictly_positive


def test_validate_reducible_chain():
    m = xc.ChannelModel([[1.0, 0.0], [0.0, 1.0]], [[0.25] * 4, [0.25] * 4])
    rep = xc.validate_model(m)
    assert not rep.irreducible


def _support_model(support):
    """A model whose transition support is the given boolean matrix; rows
    without an edge stay zero, which only the row-sum check reads."""
    t = support.astype(float)
    sums = t.sum(axis=1, keepdims=True)
    t = np.divide(t, sums, out=np.zeros_like(t), where=sums > 0)
    return xc.ChannelModel(t, np.full((len(t), 4), 0.25))


def test_graph_flags_match_search_oracle():
    rng = np.random.default_rng(11)
    supports = []
    for density in (0.2, 0.4, 0.7):
        for _ in range(700):
            n = int(rng.integers(1, 8))
            supports.append(rng.random((n, n)) < density)
    for n in range(2, 9):
        cycle = np.roll(np.eye(n, dtype=bool), 1, axis=1)
        looped = cycle.copy()
        looped[n - 1, n - 1] = True
        supports += [cycle, looped]
    seen = set()
    for support in supports:
        rep = xc.validate_model(_support_model(support))
        want = (strongly_connected_oracle(support), aperiodic_oracle(support))
        assert (rep.irreducible, rep.aperiodic) == want, support.astype(int)
        seen.add(want)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_stationary_direct_solve_meets_balance(monkeypatch):
    rng = np.random.default_rng(5)
    chains = []
    for n in range(2, 9):
        cycle = np.roll(np.eye(n), 1, axis=1)
        chains.append(cycle)
        for k in range(3, 16):
            leave = 10.0 ** -k   # nearly decomposable: each state almost absorbing
            mix = rng.random((n, n))
            mix /= mix.sum(axis=1, keepdims=True)
            chains.append((1.0 - leave) * np.eye(n) + leave * mix)
            chains.append((1.0 - leave) * np.eye(n) + leave * cycle)
    for t in chains:
        m = xc.ChannelModel(t, np.full((len(t), 4), 0.25))
        pi = xc.stationary_distribution(m)
        assert np.all(pi >= 0.0) and abs(pi.sum() - 1.0) < 1e-12
        assert np.max(np.abs(pi @ m.transition - pi)) <= BALANCE_TOL

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(np.linalg, "lstsq", broken)
    with pytest.raises(xc.NoUniqueStationary, match="SVD"):
        xc.stationary_distribution(xc.ChannelModel(chains[0], np.full((2, 4), 0.25)))


def test_stationary_two_state(ref_model):
    # balance: 0.1 * pi0 = 0.2 * pi1
    pi = xc.stationary_distribution(ref_model)
    assert abs(pi[0] - 2.0 / 3.0) < 1e-10
    assert abs(pi[1] - 1.0 / 3.0) < 1e-10


def test_stationary_periodic_still_unique():
    m = xc.ChannelModel([[0.0, 1.0], [1.0, 0.0]], [[0.25] * 4, [0.25] * 4])
    pi = xc.stationary_distribution(m)
    assert abs(pi[0] - 0.5) < 1e-10


def test_stationary_reducible_raises():
    m = xc.ChannelModel([[1.0, 0.0], [0.0, 1.0]], [[0.25] * 4, [0.25] * 4])
    with pytest.raises(xc.NoUniqueStationary):
        xc.stationary_distribution(m)


def test_stationary_one_state_goes_through_the_solve():
    # a one-state chain gets the general solve and the balance check: [[1.0]]
    # comes out exactly [1.0], and a chain with no stationary distribution
    # raises, where a shortcut once returned [1.0] for all three
    def one(p):
        return xc.ChannelModel([[p]], [[0.25] * 4])
    pi = xc.stationary_distribution(one(1.0))
    assert pi.dtype == np.float64 and pi.tolist() == [1.0]
    for p in (0.5, math.nan):
        with pytest.raises(xc.NoUniqueStationary):
            xc.stationary_distribution(one(p))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_stationary_refuses_a_non_finite_matrix_before_the_solve(capfd, bad):
    # LAPACK would print its illegal-value line to the process's stderr
    capfd.readouterr()
    for t in ([[bad]], [[0.5, 0.5], [bad, 0.5]]):
        with pytest.raises(xc.NoUniqueStationary, match="not finite"):
            xc.stationary_distribution(xc.ChannelModel(t, np.full((len(t), 4), 0.25)))
    assert capfd.readouterr().err == ""


def test_stationary_random_models_fixed_point():
    rng = random.Random(7)
    for _ in range(25):
        m = random_model(rng, rng.randrange(1, 5))
        pi = np.asarray(xc.stationary_distribution(m))
        assert np.all(pi >= 0)
        assert abs(pi.sum() - 1.0) < 1e-9
        assert np.max(np.abs(pi @ m.transition - pi)) < 1e-9


def test_trajectory_deterministic(ref_model):
    a = xc.sample_trajectory(ref_model, 200, seed=5)
    b = xc.sample_trajectory(ref_model, 200, seed=5)
    c = xc.sample_trajectory(ref_model, 200, seed=6)
    assert a == b
    assert a != c


def test_trajectory_matches_stationary(ref_model):
    n = 200_000
    states, patterns = xc.sample_trajectory(ref_model, n, seed=11)
    pi = xc.stationary_distribution(ref_model)
    freq0 = states.count(0) / n
    assert abs(freq0 - pi[0]) < 0.01
    marg = np.asarray(pi) @ np.asarray(ref_model.emission)
    for k in range(4):
        assert abs(patterns.count(xc.PATTERNS[k]) / n - marg[k]) < 0.01


def test_forgetting_bound_one_state(memoryless_model):
    assert xc.forgetting_rate_bound(memoryless_model) == 1.0


def test_forgetting_bound_zero_entry():
    m = xc.ChannelModel(
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.25] * 4, [0.25] * 4],
    )
    assert xc.forgetting_rate_bound(m) is None


def test_forgetting_bound_reference(ref_model):
    # 2 * min(T) * min(E) / max(E) = 2 * 0.1 * 0.01 / 0.81
    sigma = xc.forgetting_rate_bound(ref_model)
    assert abs(sigma - 2.0 * 0.1 * 0.01 / 0.81) < 1e-15


def test_forgetting_margin(ref_model, memoryless_model):
    sigma = xc.forgetting_rate_bound(ref_model)
    for L in (1, 3, 8):
        assert xc.forgetting_margin(ref_model, L) == 2.0 * (1.0 - sigma) ** L
    assert xc.forgetting_margin(memoryless_model, 2) == 0.0
    zero = xc.ChannelModel([[0.0, 1.0], [1.0, 0.0]], [[0.25] * 4, [0.25] * 4])
    assert xc.forgetting_margin(zero, 2) is None


def test_forgetting_bound_clamped():
    m = xc.ChannelModel(
        [[0.5, 0.5], [0.5, 0.5]],
        [[0.25] * 4, [0.25] * 4],
    )
    assert xc.forgetting_rate_bound(m) == 1.0


def test_model_json_roundtrip(tmp_path, ref_model):
    path = tmp_path / "model.json"
    xc.save_model(ref_model, path)
    loaded = xc.load_model(path)
    assert np.array_equal(loaded.transition, ref_model.transition)
    assert np.array_equal(loaded.emission, ref_model.emission)
    assert loaded.labels is None
    labelled = xc.ChannelModel(ref_model.transition, ref_model.emission,
                               labels=["calm", "storm"])
    xc.save_model(labelled, path)
    assert xc.load_model(path).labels == ("calm", "storm")


def test_model_dict_errors():
    good = xc.model_to_dict(xc.ChannelModel([[1.0]], [[0.25] * 4]))
    missing = dict(good)
    del missing["transition"]
    with pytest.raises(xc.ModelFormatError, match="transition"):
        xc.model_from_dict(missing)

    extra = dict(good, junk=1)
    with pytest.raises(xc.ModelFormatError, match="junk"):
        xc.model_from_dict(extra)

    bad_type = dict(good, emission=[["a", 0, 0, 0]])
    with pytest.raises(xc.ModelFormatError):
        xc.model_from_dict(bad_type)

    ragged = dict(good, emission=[[0.5, 0.5]])
    with pytest.raises(xc.ModelFormatError):
        xc.model_from_dict(ragged)

    invalid = dict(good, transition=[[0.7]])
    with pytest.raises(xc.ModelFormatError, match="invalid model"):
        xc.model_from_dict(invalid)


def test_load_model_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(xc.ModelFormatError, match="line 1"):
        xc.load_model(path)


def test_draw_matches_linear_scan():
    rng = random.Random(3)
    rows = [(0.25, 0.25, 0.25, 0.25), (1.0,), (0.0, 1.0), (1.0, 0.0, 0.0),
            (0.0, 0.5, 0.0, 0.5, 0.0), (0.0, 0.0, 0.0, 0.0),
            (0.2, 0.3, 0.2, 0.2)]   # sums to 0.9: u may land above the last entry
    for n in (1, 2, 3, 4, 5, 7):
        for _ in range(40):
            w = [rng.random() if rng.random() < 0.7 else 0.0 for _ in range(n)]
            total = sum(w) or 1.0
            rows.append(tuple(v / total for v in w))
    cases = 0
    for cum in cumulative_rows(rows):
        # every cumulative entry exactly, its neighbours, and the ends
        us = {0.0, 0.5, 0.95, 1.0 - 2 ** -53, cum[-1]}
        for c in cum:
            us.update((c, math.nextafter(c, 0.0), math.nextafter(c, 1.0)))
        us.update(rng.random() for _ in range(20))
        us = sorted(v for v in us if 0.0 <= v < 1.0)
        # one row against many doubles, and the row repeated once per double
        got = _pick(np.array(cum), np.array(us))
        tiled = _pick(np.tile(cum, (len(us), 1)), np.array(us))
        for u, g, t in zip(us, got.tolist(), tiled.tolist()):
            assert g == t == draw_oracle(cum, u), (cum, u)
            cases += 1
    # gathered rows, as _walk and _draw_codes call the rule: distinct rows of
    # one length, a row index per double, the doubles of all rows shuffled
    # together, so a rule that counted one row's entries for another fails
    for n in (2, 3, 4, 5, 7):
        table = sorted({cum for cum in cumulative_rows(rows) if len(cum) == n})
        pairs = []
        for i, cum in enumerate(table):
            for c in cum:
                pairs += [(i, c), (i, math.nextafter(c, 0.0)), (i, math.nextafter(c, 1.0))]
            pairs += [(i, rng.random()) for _ in range(5)]
        pairs = [(i, u) for i, u in pairs if 0.0 <= u < 1.0]
        rng.shuffle(pairs)
        idx, us = (np.array(col) for col in zip(*pairs))
        got = _pick(np.take(np.array(table), idx, axis=0), us)
        assert got.tolist() == [draw_oracle(table[i], u) for i, u in pairs], n
        cases += len(pairs)
    assert cases > 6000
    # the package's rows come from np.cumsum, the same left fold
    for n in (1, 2, 3, 4, 5, 7):
        block = [row for row in rows if len(row) == n]
        assert np.cumsum(block, axis=-1).tolist() == list(map(list, cumulative_rows(block)))


def test_uniforms_match_random():
    for seed in (0, 1, 2 ** 40 + 3):
        rng, ref = random.Random(seed), random.Random(seed)
        for k in (0, 1, 2, 5, 1000, 20_001):
            assert _uniforms(rng, k).tolist() == [ref.random() for _ in range(k)]
            assert rng.getstate() == ref.getstate()


def test_negative_seed_rejected(ref_model):
    # random.Random(-s) seeds as random.Random(s) does
    with pytest.raises(xc.ContractViolation, match="negative"):
        xc.sample_trajectory(ref_model, 10, seed=-5)


def test_negative_length_rejected(ref_model, monkeypatch):
    # a negative length raises before a double is drawn; zero slots are a
    # valid, empty trajectory
    assert xc.sample_trajectory(ref_model, 0, seed=3) == ([], [])

    def no_draw(*args):
        raise AssertionError("drew doubles for a negative length")
    monkeypatch.setattr(xc.channel, "_uniforms", no_draw)
    for n in (-1, -7):
        with pytest.raises(xc.ContractViolation, match="nonnegative"):
            xc.sample_trajectory(ref_model, n, seed=3)


def test_trajectory_matches_scalar_draws(ref_model):
    rng = random.Random(8)
    models = [ref_model, random_model(rng, 1), random_model(rng, 3), sparse_model(rng, 4)]
    for model in models:
        for n, seed in ((0, 2), (1, 0), (7, 5), (300, 11)):
            assert xc.sample_trajectory(model, n, seed) == trajectory_oracle(
                model, n, random.Random(seed))
