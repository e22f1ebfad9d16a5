import json
import random

import numpy as np
import pytest

import xorcast as xc
from xorcast.lp import VERIFY_TOL, _Simplex
from xorcast.region import region_lp, witness_residual

from oracles import (pipeline_max_flow, random_model, sweep_table_cold,
                     vertex_oracle)

# frozen weighted-sum values for the two-state fixture, weights (1, 1)
REF_SUMS = {
    1: 0.7358500788364166,
    2: 0.7365062660023993,
    3: 0.7366079951121407,
    4: 0.7366129841048126,
}
# closed form for the memoryless fixture: R/(1-e1) + R/(1-e12) = 1 at R1=R2=R
MEMORYLESS_SUM = 0.7188940092165899


def make_witness(L, x, y):
    x = np.asarray(x, dtype=float)
    return xc.RegionWitness(L=L, w1=1.0, w2=1.0, slack=0.0, status="Optimal",
                            R1=0.1, R2=0.1, x=x, y=np.asarray(y, dtype=float))


def test_region_lp_rejects_bad_weights(ref_model):
    t = xc.window_table(ref_model, 1)
    with pytest.raises(xc.ContractViolation):
        region_lp(t, -0.1, 0.5)
    with pytest.raises(xc.ContractViolation):
        region_lp(t, 0.0, 0.0)


def test_memoryless_closed_form_sum(memoryless_model):
    t = xc.window_table(memoryless_model, 1)
    wit = xc.solve_region(t, 1.0, 1.0)
    assert abs(wit.value - MEMORYLESS_SUM) < 1e-9
    # symmetric marginals, so the refined corner is symmetric too
    assert abs(wit.R1 - wit.R2) < 1e-9


def test_reference_sums_frozen_and_monotone(ref_model):
    vals = {}
    for L, want in REF_SUMS.items():
        wit = xc.solve_region(xc.window_table(ref_model, L), 1.0, 1.0)
        assert abs(wit.value - want) < 1e-9, f"L={L}"
        vals[L] = wit.value
    for L in (1, 2, 3):
        assert vals[L] <= vals[L + 1] + 1e-12
    # longer windows change the sum by less than the forgetting slack
    sigma = xc.forgetting_rate_bound(ref_model)
    assert vals[2] - vals[1] <= 4.0 * (1.0 - sigma)


def test_perfect_channel_time_sharing():
    model = xc.ChannelModel([[1.0]], [[1.0, 0.0, 0.0, 0.0]])
    t = xc.window_table(model, 1)
    assert abs(xc.solve_region(t, 1.0, 1.0).value - 1.0) < 1e-9
    corner = xc.solve_region(t, 1.0, 0.0)
    assert abs(corner.R1 - 1.0) < 1e-9
    assert abs(corner.R2) < 1e-9


def test_max_single_user_rate_is_marginal(ref_model):
    # weight (1, 0) endpoint: all slots serve receiver 1 uncoded
    t = xc.window_table(ref_model, 1)
    wit = xc.solve_region(t, 1.0, 0.0)
    e1 = t.pattern_probs[:, 2] + t.pattern_probs[:, 3]
    marginal = float(np.dot(t.probs, 1.0 - e1))
    assert abs(wit.R1 - marginal) < 1e-6
    assert abs(marginal - 2.0 / 3.0) < 1e-12


def test_solve_matches_vertex_oracle(ref_model):
    t = xc.window_table(ref_model, 1)
    for w1, w2 in ((1.0, 1.0), (1.0, 0.0), (0.2, 0.8), (0.7, 0.3)):
        expected = vertex_oracle(region_lp(t, w1, w2))
        got = xc.solve_region(t, w1, w2, refine=False).value
        assert abs(got - expected) < 1e-7, f"w=({w1},{w2})"


def test_region_lp_reports_pivots(ref_model):
    sol = xc.solve(region_lp(xc.window_table(ref_model, 4), 1.0, 1.0))
    assert sol.status == "Optimal"
    assert sol.pivots > 0


def test_refine_keeps_value(ref_model):
    t = xc.window_table(ref_model, 2)
    plain = xc.solve_region(t, 0.3, 0.7, refine=False)
    refined = xc.solve_region(t, 0.3, 0.7)
    assert abs(plain.value - refined.value) < 1e-9
    assert refined.R1 + refined.R2 >= plain.R1 + plain.R2 - 1e-9


def test_sweep_sorted_dedup_feasible(ref_model):
    t = xc.window_table(ref_model, 1)
    points = xc.sweep_table(t, 9)
    assert len(points) >= 2
    r1s = [w.R1 for w in points]
    assert r1s == sorted(r1s)
    for a, b in zip(points, points[1:]):
        assert abs(a.R1 - b.R1) > 1e-9 or abs(a.R2 - b.R2) > 1e-9
    for w in points:
        assert w.status == "Optimal"
        assert witness_residual(t, w) <= 1e-8
    assert abs(max(r1s) - 2.0 / 3.0) < 1e-6
    with pytest.raises(xc.ContractViolation):
        xc.sweep_table(t, 1)


def test_boundary_sweep_wrapper(ref_model):
    direct = xc.sweep_table(xc.window_table(ref_model, 1), 5)
    wrapped = xc.boundary_sweep(ref_model, 1, 5)
    assert [(w.R1, w.R2) for w in direct] == [(w.R1, w.R2) for w in wrapped]


def test_sandwich_memoryless_collapse(memoryless_model):
    res = xc.sandwich(memoryless_model, 1, 1.0, 1.0)
    assert not res.degraded
    assert res.sigma == 1.0
    assert res.margin == 0.0
    assert abs(res.inner.value - res.nominal.value) < 1e-9
    assert abs(res.outer.value - res.nominal.value) < 1e-9


def test_sandwich_ordering(ref_model):
    res = xc.sandwich(ref_model, 2, 1.0, 1.0)
    assert not res.degraded
    assert abs(res.margin - 2.0 * (1.0 - res.sigma) ** 2) < 1e-15
    # fixture forgets slowly, so the inner region at this L is empty
    vals = [v.value for v in (res.inner, res.nominal, res.outer) if v is not None]
    assert vals == sorted(vals)
    assert res.outer.value >= res.nominal.value - 1e-8


def test_sandwich_degraded_without_sigma():
    model = xc.ChannelModel([[0.9, 0.1], [0.2, 0.8]],
                            [[0.82, 0.09, 0.09, 0.0], [0.04, 0.16, 0.16, 0.64]])
    assert xc.forgetting_rate_bound(model) is None
    res = xc.sandwich(model, 1, 1.0, 1.0)
    assert res.degraded
    assert res.inner is None and res.outer is None
    assert res.nominal.status == "Optimal"


def test_outer_monotone_in_slack(ref_model):
    t = xc.window_table(ref_model, 1)
    vals = [xc.solve_region(t, 1.0, 1.0, slack=s).value for s in (0.0, 0.05, 0.1)]
    assert vals == sorted(vals)


def test_xy_to_actions_hand_rows():
    wit = make_witness(1, [1.0, 1.0, 0.6, 0.0], [0.0, 1.0, 0.7, 0.0])
    dist = xc.xy_to_actions(wit)
    assert np.allclose(dist.table[0], [1, 0, 0, 0, 0], atol=1e-12)
    assert np.allclose(dist.table[1], [0, 0, 1, 0, 0], atol=1e-12)
    assert np.allclose(dist.table[2], [0.3, 0.4, 0.3, 0, 0], atol=1e-12)
    assert np.allclose(dist.table[3], [0, 0, 0, 1, 0], atol=1e-12)


def test_xy_to_actions_overlap_interval():
    wit = make_witness(1, [0.6] * 4, [0.7] * 4)
    full = xc.xy_to_actions(wit, s_param=1.0)  # s = min(x, y)
    assert np.allclose(full.table[0], [0.0, 0.1, 0.6, 0.3, 0], atol=1e-12)
    half = xc.xy_to_actions(wit, s_param=0.5)
    assert np.allclose(half.table[0], [0.15, 0.25, 0.45, 0.15, 0], atol=1e-12)


def test_xy_to_actions_validation():
    wit = make_witness(1, [0.5] * 4, [0.5] * 4)
    for bad in (-0.1, 1.1):
        with pytest.raises(xc.ContractViolation):
            xc.xy_to_actions(wit, s_param=bad)
    with pytest.raises(xc.ContractViolation):
        xc.xy_to_actions(make_witness(1, [1.2] * 4, [0.5] * 4))
    empty = xc.RegionWitness(L=1, w1=1, w2=1, slack=0.0, status="Infeasible",
                             R1=None, R2=None, x=None, y=None)
    with pytest.raises(xc.ContractViolation):
        xc.xy_to_actions(empty)


def test_link_capacities_hand_sum():
    # memoryless channel with distinct marginals, one fixed action row
    model = xc.ChannelModel([[1.0]], [[0.45, 0.15, 0.25, 0.15]])
    t = xc.window_table(model, 1)
    row = [0.2, 0.2, 0.3, 0.2, 0.1]
    dist = xc.ActionDistribution(L=1, table=np.tile(row, (4, 1)))
    caps = xc.link_capacities(t, dist)
    # direct summation, one window and pattern at a time
    acc = {"c12": [0, 0], "c13": 0.0, "c14": [0, 0], "c24": [0, 0],
           "c32": [0, 0], "c34": [0, 0]}
    for m in range(len(t)):
        pm = t.probs[m]
        pz = t.pattern_probs[m]
        e1 = pz[2] + pz[3]
        e2 = pz[1] + pz[3]
        e12 = pz[3]
        only = (pz[2], pz[1])  # heard by exactly the other receiver
        eps = (e1, e2)
        for j in (0, 1):
            acc["c12"][j] += pm * only[j] * row[j]
            acc["c14"][j] += pm * (1 - eps[j]) * row[j]
            acc["c24"][j] += pm * (1 - eps[j]) * row[2]
            acc["c32"][j] += pm * only[j] * row[4]
            acc["c34"][j] += pm * (1 - eps[j]) * row[4]
        acc["c13"] += pm * (1 - e12) * row[3]
    assert abs(caps.c13 - acc["c13"]) < 1e-12
    for name in ("c12", "c14", "c24", "c32", "c34"):
        got = getattr(caps, name)
        for j in (0, 1):
            assert abs(got[j] - acc[name][j]) < 1e-12, f"{name}[{j}]"


def test_cut_values_hand_cases():
    zero = xc.CapacitySet(c12=(0, 0), c13=0.0, c14=(0, 0), c24=(0, 0),
                          c32=(0, 0), c34=(0, 0))
    cz = xc.cut_values(zero)
    assert cz.a == (0, 0) and cz.b == (0, 0) and cz.c == (0, 0) and cz.d == (0, 0)
    direct = xc.CapacitySet(c12=(0, 0), c13=0.0, c14=(1, 1), c24=(0, 0),
                            c32=(0, 0), c34=(0, 0))
    cd = xc.cut_values(direct)
    for j in (0, 1):
        assert cd.a[j] == cd.b[j] == cd.c[j] == cd.d[j] == 1.0
    ones = xc.CapacitySet(c12=(1, 1), c13=1.0, c14=(1, 1), c24=(1, 1),
                          c32=(1, 1), c34=(1, 1))
    assert xc.max_rate(ones, 1) == 3.0
    assert abs(pipeline_max_flow(ones, 1) - 3.0) < 1e-9
    cutoff = xc.CapacitySet(c12=(0, 0), c13=0.0, c14=(0, 0), c24=(1, 1),
                            c32=(1, 1), c34=(1, 1))
    assert xc.max_rate(cutoff, 2) == 0.0


def test_min_cut_equals_max_flow_random():
    rng = random.Random(7)
    for _ in range(50):
        caps = xc.CapacitySet(
            c12=(rng.random(), rng.random()), c13=rng.random(),
            c14=(rng.random(), rng.random()), c24=(rng.random(), rng.random()),
            c32=(rng.random(), rng.random()), c34=(rng.random(), rng.random()))
        for j in (1, 2):
            assert abs(xc.max_rate(caps, j) - pipeline_max_flow(caps, j)) < 1e-9


def test_canonicalize_reference_point(ref_model):
    t = xc.window_table(ref_model, 1)
    wit = xc.solve_region(t, 1.0, 1.0)
    raw = xc.xy_to_actions(wit)
    dist, rep = xc.canonicalize(raw, t)
    assert rep.case == "I"
    assert abs(rep.theta - 0.8607652964762408) < 1e-9
    assert abs(dist.table[0, 4] - 0.5382794935510583) < 1e-9
    # untouched columns are bit-identical, mixing mass preserved
    assert np.array_equal(dist.table[:, [0, 1, 3]], raw.table[:, [0, 1, 3]])
    assert np.max(np.abs((dist.table[:, 2] + dist.table[:, 4])
                         - (raw.table[:, 2] + raw.table[:, 4]))) < 1e-12
    for j in (0, 1):
        before = rep.cuts_before
        after = rep.cuts_after
        min_b = min(before.a[j], before.b[j], before.c[j], before.d[j])
        min_a = min(after.a[j], after.b[j], after.c[j], after.d[j])
        assert min_a >= min_b - 1e-8
        assert abs(min_a - min(after.a[j], after.d[j])) < 1e-8
    # the re-split lifts the bottleneck up to the witness rate here
    assert abs(min(rep.cuts_after.a[0], rep.cuts_after.d[0]) - wit.R1) < 1e-9


def test_canonicalize_no_mixing_mass_is_identity(ref_model):
    t = xc.window_table(ref_model, 1)
    table = np.tile([0.5, 0.5, 0.0, 0.0, 0.0], (4, 1))
    dist, rep = xc.canonicalize(xc.ActionDistribution(L=1, table=table), t)
    assert np.array_equal(dist.table, table)
    for j in (0, 1):
        a = rep.cuts_after
        assert abs(min(a.a[j], a.b[j], a.c[j], a.d[j]) - min(a.a[j], a.d[j])) < 1e-8


def test_canonicalize_length_mismatch(ref_model):
    t = xc.window_table(ref_model, 1)
    dist = xc.ActionDistribution(L=2, table=np.tile([0.2] * 5, (16, 1)))
    with pytest.raises(xc.ContractViolation):
        xc.canonicalize(dist, t)
    with pytest.raises(xc.ContractViolation):
        xc.link_capacities(t, dist)


def test_achievable_check_basics(ref_model):
    t = xc.window_table(ref_model, 1)
    dist = xc.ActionDistribution(L=1, table=np.tile([0.2] * 5, (4, 1)))
    assert xc.achievable_check(t, dist, 0.0, 0.0)
    model = xc.ChannelModel([[1.0]], [[1.0, 0.0, 0.0, 0.0]])
    tp = xc.window_table(model, 1)
    share = xc.ActionDistribution(L=1, table=np.tile([0.5, 0.5, 0, 0, 0], (4, 1)))
    assert xc.achievable_check(tp, share, 0.5, 0.5)
    assert not xc.achievable_check(tp, share, 0.51, 0.5)


def test_achievable_check_rejects_beyond_boundary(ref_model):
    t = xc.window_table(ref_model, 1)
    wit, dist, _ = xc.simulation_distribution(t, 0.5)
    assert not xc.achievable_check(t, dist, wit.R1 + 0.01, wit.R2 + 0.01)


def test_region_achievability_equivalence(ref_model):
    # every swept Pareto point admits an overlap choice whose canonical
    # distribution certifies the point (minus a whisker) through the cuts
    t = xc.window_table(ref_model, 1)
    for wit in xc.sweep_table(t, 9):
        ok = False
        for k in range(11):
            dist, _ = xc.canonicalize(xc.xy_to_actions(wit, k / 10.0), t)
            if xc.achievable_check(t, dist, wit.R1 - 1e-6, wit.R2 - 1e-6):
                ok = True
                break
        assert ok, f"no overlap works at ({wit.R1}, {wit.R2})"


def test_robust_witness_restores_uncoded_mass(ref_model):
    t = xc.window_table(ref_model, 2)
    wit = xc.solve_region(t, 1.0, 1.0)

    def uncoded(w):
        return float(np.sum(t.probs * np.minimum(w.x + w.y, 2.0 - w.x - w.y)))

    assert uncoded(wit) < 0.05  # the plain vertex is nearly all bang-bang
    rob = xc.robust_witness(t, wit, backoff=0.99)
    assert uncoded(rob) > 0.5
    assert abs(rob.R1 - 0.99 * wit.R1) < 1e-15
    assert abs(rob.R2 - 0.99 * wit.R2) < 1e-15
    assert witness_residual(t, rob) <= 1e-8


def test_robust_witness_validation(ref_model):
    t = xc.window_table(ref_model, 1)
    wit = xc.solve_region(t, 1.0, 1.0)
    for bad in (0.0, 1.0001, -0.5):
        with pytest.raises(xc.ContractViolation):
            xc.robust_witness(t, wit, backoff=bad)
    failed = xc.RegionWitness(L=1, w1=1, w2=1, slack=0.0, status="Infeasible",
                              R1=None, R2=None, x=None, y=None)
    with pytest.raises(xc.ContractViolation):
        xc.robust_witness(t, failed)


def test_simulation_distribution(ref_model):
    t = xc.window_table(ref_model, 2)
    wit, dist, rep = xc.simulation_distribution(t, 0.5)
    # the returned witness sits on the full boundary, not the backed-off one
    assert abs(wit.R1 + wit.R2 - REF_SUMS[2]) < 1e-9
    assert rep.case in ("I", "IIa", "IIb")
    assert xc.achievable_check(t, dist, 0.99 * wit.R1 - 1e-6, 0.99 * wit.R2 - 1e-6)
    # enough plain-transmission mass to serve each fresh queue on its own
    pooled = dist.table.T @ t.probs
    assert pooled[0] + pooled[1] > 0.3


def test_dist_round_trip(tmp_path, ref_model):
    t = xc.window_table(ref_model, 1)
    wit, dist, _ = xc.simulation_distribution(t, 0.5)
    path = tmp_path / "dist.json"
    xc.save_dist(dist, path)
    back = xc.load_dist(path)
    assert back.L == dist.L
    assert np.array_equal(back.table, dist.table)


def test_dist_parse_errors(tmp_path):
    cases = [
        ([], "top level"),
        ({"L": 1}, "missing key"),
        ({"L": 1, "actions": [], "extra": 0}, "unknown key 'extra'"),
        ({"L": 0, "actions": []}, "positive integer"),
        ({"L": True, "actions": []}, "positive integer"),
        ({"L": 1, "actions": [[0.2] * 5] * 3}, "expected 4 rows"),
        ({"L": 1, "actions": [[0.2] * 4] + [[0.2] * 5] * 3}, "actions[0]"),
        ({"L": 1, "actions": [[0.2] * 5] * 3 + [[0.2, 0.2, 0.2, 0.2, "x"]]},
         "actions[3][4]"),
        ({"L": 1, "actions": [[0.3] * 5] * 4}, "sums to"),
    ]
    for obj, fragment in cases:
        with pytest.raises(xc.ModelFormatError) as err:
            xc.dist_from_dict(obj)
        assert fragment in str(err.value), fragment
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(xc.ModelFormatError) as err:
        xc.load_dist(bad)
    assert "line 1" in str(err.value)


def _support(points, k):
    """Best weighted value over the points at each grid weight (lam, 1 - lam)."""
    return np.array([max(i / (k - 1) * p.R1 + (1 - i / (k - 1)) * p.R2 for p in points)
                     for i in range(k)])


def test_warm_sweep_matches_cold_reference(ref_model):
    # one re-optimized tableau against two cold solves per weight; the
    # weighted values are compared as the best value at each grid weight,
    # since near-duplicate points may keep a different weight label
    k = 33
    for L in (1, 2, 3, 4):
        t = xc.window_table(ref_model, L)
        for slack in (0.0, 0.05, -0.02):
            warm = xc.sweep_table(t, k, slack)
            cold = sweep_table_cold(t, k, slack)
            assert len(warm) == len(cold) >= 2, (L, slack)
            for a, b in zip(warm, cold):
                assert abs(a.R1 - b.R1) <= 1e-9 and abs(a.R2 - b.R2) <= 1e-9, (L, slack)
            assert np.max(np.abs(_support(warm, k) - _support(cold, k))) <= 1e-12


def test_warm_sweep_matches_cold_random_models():
    # On random models both sweeps are optimal only to the solver's absolute
    # pricing tolerance, and a cold solve can stop a few 1e-10 short where
    # the warm one does not (or the reverse), which may split or merge
    # near-duplicate points. So the sweeps are compared as boundaries: equal
    # best values at every grid weight, and every point of either sweep
    # optimal for its own weight among the other's points, to VERIFY_TOL.
    rng = random.Random(2024)
    k = 17
    for _ in range(6):
        model = random_model(rng, 2)
        for L in (1, 2, 3):
            t = xc.window_table(model, L)
            for slack in (0.0, 0.03, -0.01):
                warm = xc.sweep_table(t, k, slack)
                cold = sweep_table_cold(t, k, slack)
                if not cold:
                    assert warm == []
                    continue
                assert np.max(np.abs(_support(warm, k) - _support(cold, k))) <= VERIFY_TOL
                for ours, theirs in ((warm, cold), (cold, warm)):
                    for p in ours:
                        best = max(p.w1 * q.R1 + p.w2 * q.R2 for q in theirs)
                        assert abs(p.value - best) <= VERIFY_TOL, (L, slack, p.w1)


def test_infeasible_sweep_is_empty(ref_model):
    t = xc.window_table(ref_model, 1)
    assert xc.solve_region(t, 0.5, 0.5, slack=-0.9).status == "Infeasible"
    assert xc.sweep_table(t, 5, slack=-0.9) == []


def _record_pivots(monkeypatch):
    """Pivot count of every warm re-optimization, in call order."""
    counts = []
    reoptimize = _Simplex.reoptimize

    def recording(self, objective):
        sol = reoptimize(self, objective)
        counts.append((sol.pivots, self.cap))
        return sol

    monkeypatch.setattr(_Simplex, "reoptimize", recording)
    return counts


def test_warm_sweep_deterministic(ref_model, monkeypatch):
    t = xc.window_table(ref_model, 3)
    counts = _record_pivots(monkeypatch)
    first = xc.sweep_table(t, 33)
    first_counts = list(counts)
    counts.clear()
    second = xc.sweep_table(t, 33)
    assert counts == first_counts and sum(c for c, _ in counts) > 0
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert (a.w1, a.R1, a.R2) == (b.w1, b.R1, b.R2)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_long_sweep_counts_pivots_per_solve(ref_model, monkeypatch):
    # 257 weights at L=4: each re-optimization has its own pivot count and
    # stall cap, so a long chain cannot trip the cap however many it runs
    t = xc.window_table(ref_model, 4)
    counts = _record_pivots(monkeypatch)
    points = xc.sweep_table(t, 257)
    assert len(counts) == 2 * 257
    assert all(0 <= c < cap for c, cap in counts)
    assert len(points) >= 2
    assert all(witness_residual(t, p) <= 1e-8 for p in points)
