import math
import random
import time
import tracemalloc

import numpy as np
import pytest

import xorcast as xc
from xorcast import filtering, region
from xorcast.cli import main as cli_main
from xorcast.channel import _pick
from xorcast.region import witness_residual

from oracles import (cumulative_rows, cut_values_oracle, draw_oracle, feasible_vertices,
                     highs_region, link_capacities_oracle, pipeline_max_flow, random_model,
                     region_lp, robust_witness_xyt)

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


def test_solve_region_rejects_bad_weights(ref_model):
    t = xc.window_table(ref_model, 1)
    with pytest.raises(xc.ContractViolation):
        xc.solve_region(t, -0.1, 0.5)
    with pytest.raises(xc.ContractViolation):
        xc.solve_region(t, 0.0, 0.0)


# every public float argument, as a call of (model, its L=1 table, value)
FLOAT_ARGS = {
    "solve_region.w1": lambda m, t, v: xc.solve_region(t, v, 0.5),
    "solve_region.w2": lambda m, t, v: xc.solve_region(t, 0.5, v),
    "sandwich.w1": lambda m, t, v: xc.sandwich(m, 1, v, 0.5),
    "sandwich.w2": lambda m, t, v: xc.sandwich(m, 1, 0.5, v),
    "simulation_distribution.lam": lambda m, t, v: xc.simulation_distribution(t, v),
    "simulation_distribution.backoff": lambda m, t, v: xc.simulation_distribution(t, 0.5, v),
    "simulate.R1": lambda m, t, v: xc.simulate(m, "maxweight", v, 0.1, 100, 1),
    "simulate.R2": lambda m, t, v: xc.simulate(m, "maxweight", 0.1, v, 100, 1),
    "robust_witness.backoff": lambda m, t, v: xc.robust_witness(t, xc.solve_region(t, 1, 1), v),
    "xy_to_actions.s_param": lambda m, t, v: xc.xy_to_actions(xc.solve_region(t, 1, 1), v),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("arg", sorted(FLOAT_ARGS))
def test_float_arguments_refuse_nan_and_inf(ref_model, arg, value):
    # each must be a finite number; nan compares false with everything, so
    # a guard of the form "refuse if x < 0" once let it through
    with pytest.raises(xc.ContractViolation):
        FLOAT_ARGS[arg](ref_model, xc.window_table(ref_model, 1), value)


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


def test_one_deaf_receiver():
    # receiver 2 never hears: the region is the segment R2 = 0, R1 <= 0.9.
    # Under the weights (0, 1) every point ties at 0 and the Pareto end wins
    t = xc.window_table(xc.ChannelModel([[1.0]], [[0.0, 0.9, 0.0, 0.1]]), 1)
    wit = xc.solve_region(t, 0.0, 1.0)
    assert abs(wit.R1 - 0.9) < 1e-15 and wit.R2 == 0.0
    # receiver 1 never hears: R1 = 0
    t = xc.window_table(xc.ChannelModel([[1.0]], [[0.0, 0.0, 0.9, 0.1]]), 1)
    assert abs(xc.solve_region(t, 0.0, 1.0).R2 - 0.9) < 1e-15


def test_greedy_ties_go_to_the_lowest_window():
    # on a uniform memoryless channel every window weighs the same, so the
    # greedy fills run in window order: ones, at most one fraction, zeros
    t = xc.window_table(xc.ChannelModel([[1.0]], [[0.25] * 4]), 3)
    wit = xc.solve_region(t, 0.5, 0.5)
    for v in (wit.x, wit.y):
        assert np.all(np.diff(v) <= 0.0) and v[0] == 1.0 and v[-1] == 0.0
        assert np.count_nonzero((v > 0.0) & (v < 1.0)) <= 1


def test_fill_skips_a_flat_run(tmp_path, capsys):
    # windows whose g is too small to move the cumulative rate leave a flat
    # run of equal breakpoints; a fill that bought the run spent budget the
    # polygon does not count, and the witness broke a rate row by 0.016
    model = xc.ChannelModel([[0.5813, 0.4187], [1, 0]],
                            [[0, 0.4588, 0, 0.5412], [0.2877, 0.3107, 0.0998, 0.3018]])
    t = xc.window_table(model, 3)
    sides, _ = region._polygon(t)
    assert any(np.any(np.diff(A) == 0.0) for _, _, A in sides)
    assert witness_residual(t, xc.solve_region(t, 0.0, 1.0)) <= 1e-12
    path = tmp_path / "flat.json"
    xc.save_model(model, path)
    assert cli_main(["region", "--model", str(path), "--L", "3"]) == 0
    assert capsys.readouterr().err == ""


def test_max_single_user_rate_is_marginal(ref_model):
    # weight (1, 0) endpoint: all slots serve receiver 1 uncoded
    t = xc.window_table(ref_model, 1)
    wit = xc.solve_region(t, 1.0, 0.0)
    e1 = t.pattern_probs[:, 2] + t.pattern_probs[:, 3]
    marginal = float(np.dot(t.probs, 1.0 - e1))
    assert abs(wit.R1 - marginal) < 1e-6
    assert abs(marginal - 2.0 / 3.0) < 1e-12


def test_solve_matches_vertex_oracle(ref_model):
    # the weights change only the objective, so one vertex enumeration
    # prices all four
    t = xc.window_table(ref_model, 1)
    vertices = feasible_vertices(region_lp(t, 1.0, 1.0))
    for w1, w2 in ((1.0, 1.0), (1.0, 0.0), (0.2, 0.8), (0.7, 0.3)):
        expected = float((vertices[:, :2] @ [w1, w2]).max())
        got = xc.solve_region(t, w1, w2)
        assert abs(got.value - expected) < 1e-7, f"w=({w1},{w2})"
        assert witness_residual(t, got) <= 1e-15


HIGHS_CASES = ([(L, lam) for L in range(1, 6) for lam in (0.25, 0.5, 0.75)]
               + [(L, 0.5) for L in (6, 7, 8)])


@pytest.mark.parametrize("L,lam", HIGHS_CASES)
def test_region_lp_matches_highs(ref_model, L, lam):
    pytest.importorskip("scipy.optimize")
    t = xc.window_table(ref_model, L)
    ref = highs_region(t, lam, 1.0 - lam)
    assert abs(xc.solve_region(t, lam, 1.0 - lam).value - ref) <= 1e-12 * ref


def test_region_matches_highs_random_models():
    # random 1-3-state models at L = 1..3, over windows and over the
    # refined contexts (state, window): the same optimum as HiGHS
    pytest.importorskip("scipy.optimize")
    rng = random.Random(41)
    for _ in range(40):
        model, L = random_model(rng, rng.randint(1, 3)), rng.randint(1, 3)
        w1 = rng.choice((0.0, 0.5, 1.0, rng.random()))
        for t in (xc.window_table(model, L), filtering._refined_table(model, L)):
            wit = xc.solve_region(t, w1, 1.0 - w1)
            ref = highs_region(t, w1, 1.0 - w1)
            assert wit.status == "Optimal", w1
            assert abs(wit.value - ref) <= 1e-12 * ref, w1
            assert witness_residual(t, wit) <= 1e-12
            assert min(wit.R1, wit.R2) >= 0.0


def test_simplex_reports_pivots(ref_model):
    sol = xc.solve(region_lp(xc.window_table(ref_model, 4), 1.0, 1.0))
    assert sol.status == "Optimal"
    assert sol.pivots > 0


def test_solve_region_matches_simplex_optimum(ref_model):
    # the polygon's vertex has the simplex optimum's value and, of the
    # points with that value, the largest R1 + R2
    t = xc.window_table(ref_model, 2)
    plain = xc.solve(region_lp(t, 0.3, 0.7))
    refined = xc.solve_region(t, 0.3, 0.7)
    assert abs(plain.value - refined.value) < 1e-9
    assert refined.R1 + refined.R2 >= plain.point[0] + plain.point[1] - 1e-9


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
    # one state: refining the contexts by it changes nothing, so the two
    # tables and their vertices are the same floats
    res = xc.sandwich(memoryless_model, 1, 1.0, 1.0)
    assert (res.outer.R1, res.outer.R2) == (res.inner.R1, res.inner.R2)
    assert abs(res.inner.value - MEMORYLESS_SUM) < 1e-9


@pytest.mark.parametrize("w1, w2", [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5),
                                    (0.5, math.inf), (-math.inf, 0.5), (0.5, -math.inf),
                                    (-0.1, 0.5), (0.5, -2.0), (0.0, 0.0)])
def test_sandwich_checks_weights_before_either_table(ref_model, monkeypatch, w1, w2):
    # refused at once, with solve_region's message, even at an L whose
    # tables take tens of milliseconds to build
    with pytest.raises(xc.ContractViolation) as want:
        xc.solve_region(xc.window_table(ref_model, 1), w1, w2)

    def refuse(*args):
        raise AssertionError("a table was built before the weights were checked")
    monkeypatch.setattr(region, "window_table", refuse)
    monkeypatch.setattr(region, "_refined_table", refuse)
    with pytest.raises(xc.ContractViolation) as got:
        xc.sandwich(ref_model, 9, w1, w2)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("L", [-1, 0])
def test_sandwich_checks_window_length_before_either_table(ref_model, monkeypatch, L):
    # a negative L would ask _refined_table for a fractional row count, and
    # L = 0 is a refined table window_table then refuses
    def refuse(*args):
        raise AssertionError("a table was built before the window length was checked")
    monkeypatch.setattr(region, "window_table", refuse)
    monkeypatch.setattr(region, "_refined_table", refuse)
    with pytest.raises(xc.ContractViolation, match="L: expected a positive integer"):
        xc.sandwich(ref_model, L, 0.5, 0.5)


def test_sandwich_ordering(ref_model):
    # inner is the R(L) vertex itself, outer the vertex over (state, window)
    res = xc.sandwich(ref_model, 2, 1.0, 1.0)
    plain = xc.solve_region(xc.window_table(ref_model, 2), 1.0, 1.0)
    assert (res.inner.R1, res.inner.R2) == (plain.R1, plain.R2)
    assert abs(res.inner.value - REF_SUMS[2]) < 1e-9
    assert 0.0 < res.outer.value - res.inner.value < 1e-3
    outer_table = filtering._refined_table(ref_model, 2)
    assert len(outer_table) == len(res.outer.x) == 2 * 16
    assert witness_residual(outer_table, res.outer) <= 1e-12


def test_sandwich_degraded_without_sigma():
    # a zero emission entry leaves no forgetting rate, and the bracket
    # needs none
    model = xc.ChannelModel([[0.9, 0.1], [0.2, 0.8]],
                            [[0.82, 0.09, 0.09, 0.0], [0.04, 0.16, 0.16, 0.64]])
    assert xc.forgetting_rate_bound(model) is None
    res = xc.sandwich(model, 1, 1.0, 1.0)
    assert res.inner.status == res.outer.status == "Optimal"
    assert res.inner.value <= res.outer.value


def test_sandwich_caps_the_refined_table(tmp_path, monkeypatch):
    # 4 states by 4**10 windows: refused before any table is built
    model = random_model(random.Random(3), 4)
    monkeypatch.setattr(filtering, "_extend", None)
    with pytest.raises(xc.ResourceLimit):
        xc.sandwich(model, 10, 0.5, 0.5)
    path = tmp_path / "four.json"
    xc.save_model(model, path)
    assert cli_main(["region", "--model", str(path), "--L", "10", "--lambda", "0.5",
                     "--sandwich"]) == 2


def test_refined_region_at_zero_is_the_told_state():
    # with no window the contexts are the states: probabilities pi and
    # each state's emission row as its prediction
    model = random_model(random.Random(8), 3)
    t = filtering._refined_table(model, 0)
    told = filtering.WindowTable(L=0, probs=xc.stationary_distribution(model),
                                 pattern_probs=np.asarray(model.emission))
    for lam in (0.0, 0.3, 0.5, 1.0):
        got = xc.solve_region(t, lam, 1.0 - lam)
        want = xc.solve_region(told, lam, 1.0 - lam)
        assert (got.R1, got.R2) == (want.R1, want.R2), lam


def test_bracket_on_random_models():
    # R(L) <= C <= R(L)-bar for every L, so every inner value lies below
    # every outer one; the inner sequence rises and the outer one falls
    rng = random.Random(23)
    for _ in range(30):
        model = random_model(rng, rng.randint(2, 3))
        lam = rng.random()
        inner, outer = [], []
        for L in range(1, 6):
            res = xc.sandwich(model, L, lam, 1.0 - lam)
            inner.append(res.inner.value)
            outer.append(res.outer.value)
        assert max(inner) <= min(outer) + 1e-12, (inner, outer)
        assert all(a <= b + 1e-12 for a, b in zip(inner, inner[1:])), inner
        assert all(a >= b - 1e-12 for a, b in zip(outer, outer[1:])), outer


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


def test_link_capacities_match_hand_sums(ref_model, memoryless_model, sticky_model):
    # the sums over the arc table are the six hand sums, bit for bit
    rng = np.random.default_rng(11)
    for model in (ref_model, memoryless_model, sticky_model):
        for L in (1, 2, 3):
            t = xc.window_table(model, L)
            dists = [xc.simulation_distribution(t, 0.5)[1]]
            for _ in range(3):
                table = rng.dirichlet(np.ones(5), size=4 ** L)
                table[rng.random(table.shape) < 0.2] = 0.0
                table[:, 0] += 1e-3
                dists.append(xc.ActionDistribution(L, table / table.sum(axis=1, keepdims=True)))
            for dist in dists:
                assert xc.link_capacities(t, dist) == link_capacities_oracle(t, dist)


def test_cut_values_match_hand_sums():
    # each cut adds the arcs leaving its side in the hand sums' order, bit for bit
    rng = random.Random(12)
    for _ in range(1000):
        caps = xc.CapacitySet(
            c12=(rng.random(), rng.random()), c13=rng.random(),
            c14=(rng.random(), rng.random()), c24=(rng.random(), rng.random()),
            c32=(rng.random(), rng.random()), c34=(rng.random(), rng.random()))
        assert xc.cut_values(caps) == cut_values_oracle(caps)


def test_max_rate_rejects_unknown_receiver():
    ones = xc.CapacitySet(c12=(1, 2), c13=1.0, c14=(1, 2), c24=(1, 2), c32=(1, 2), c34=(1, 2))
    assert (xc.max_rate(ones, 1), xc.max_rate(ones, 2)) == (3.0, 5.0)
    # 0 once read receiver 2's rate through index -1, and 3 raised IndexError
    for bad in (0, 3, -1):
        with pytest.raises(xc.ContractViolation):
            xc.max_rate(ones, bad)


def test_max_rate_rejects_a_receiver_that_is_not_an_int():
    ones = xc.CapacitySet(c12=(1, 2), c13=1.0, c14=(1, 2), c24=(1, 2), c32=(1, 2), c34=(1, 2))
    # True once read receiver 1's rate, and 1.0 raised a bare TypeError
    for bad in (True, 1.0, "1"):
        with pytest.raises(xc.ContractViolation, match=f"got {bad!r}$"):
            xc.max_rate(ones, bad)


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
        xc.robust_witness(t, failed, 0.99)


def _robust_cases(ref_model):
    """(table, boundary witness) pairs: the reference model at L=1..4 and
    random 2-3-state models at L=1..3, at random weights."""
    rng = random.Random(17)
    cases = [(xc.window_table(ref_model, L), 0.5) for L in range(1, 5)]
    for _ in range(20):
        model = random_model(rng, rng.choice((2, 3)))
        cases.append((xc.window_table(model, rng.randint(1, 3)), rng.random()))
    return [(t, xc.solve_region(t, lam, 1.0 - lam)) for t, lam in cases]


def test_robust_witness_matches_xyt_oracle(ref_model, monkeypatch):
    # at the backoff simulation_distribution uses, the action-share program
    # has 4 + m rows and the optimum of the (x, y, t) program with its
    # 4 + 2m rows
    solved = []

    def recorded(lp):
        solved.append((lp, xc.solve(lp)))
        return solved[-1][1]

    monkeypatch.setattr(region, "solve", recorded)
    for t, wit in _robust_cases(ref_model):
        rob = xc.robust_witness(t, wit, 0.99)
        lp, sol = solved.pop()
        old, old_sol = robust_witness_xyt(t, wit, 0.99)
        assert len(lp.constraints) == 4 + len(t)
        assert sol.status == "Optimal" and old is not None
        assert abs(sol.value - old_sol.value) <= 1e-12 * old_sol.value
        share = float(np.sum(t.probs * np.minimum(rob.x + rob.y, 2.0 - rob.x - rob.y)))
        assert abs(share - old_sol.value) <= 1e-12 * old_sol.value
        assert (rob.R1, rob.R2) == (old.R1, old.R2)
        assert witness_residual(t, rob) <= 1e-8
        assert witness_residual(t, old) <= 1e-8


def test_cuts_a_and_d_ignore_the_overlap(ref_model):
    # why simulation_distribution maps at one overlap only: the cuts the
    # achievability re-check reads are the same at every overlap
    for t, wit in _robust_cases(ref_model)[:12]:
        for w in (wit, xc.robust_witness(t, wit, 0.99)):
            ref = xc.cut_values(xc.link_capacities(t, xc.xy_to_actions(w)))
            for k in range(1, 11):
                dist = xc.xy_to_actions(w, k / 10.0)
                for d in (dist, xc.canonicalize(dist, t)[0]):
                    cuts = xc.cut_values(xc.link_capacities(t, d))
                    assert np.allclose(cuts.a, ref.a, rtol=0.0, atol=1e-12)
                    assert np.allclose(cuts.d, ref.d, rtol=0.0, atol=1e-12)


def test_simulation_distribution_checks_once(ref_model, monkeypatch):
    # one robust solve of 4 + m rows, then one achievability check
    rows, checks = [], []

    def counted_solve(lp):
        rows.append(len(lp.constraints))
        return xc.solve(lp)

    def counted_check(*args):
        checks.append(xc.achievable_check(*args))
        return checks[-1]

    monkeypatch.setattr(region, "solve", counted_solve)
    monkeypatch.setattr(region, "achievable_check", counted_check)
    xc.simulation_distribution(xc.window_table(ref_model, 4), 0.5)
    assert rows == [4 + 4 ** 4]
    assert checks == [True]


def test_robust_witness_failure_raises(ref_model, monkeypatch, tmp_path, capsys):
    table = xc.window_table(ref_model, 2)
    wit = xc.solve_region(table, 0.5, 0.5)
    monkeypatch.setattr(region, "solve", lambda lp: xc.LpSolution("Infeasible", None, None))
    with pytest.raises(xc.NumericalFailure) as err:
        xc.robust_witness(table, wit, 0.99)
    assert err.value.diagnostics == {"status": "Infeasible"}
    with pytest.raises(xc.NumericalFailure):
        xc.simulation_distribution(table, 0.5)
    model = tmp_path / "model.json"
    xc.save_model(ref_model, model)
    assert cli_main(["simulate", "--model", str(model), "--scheduler", "probabilistic",
                     "--rates", "0.3,0.3", "--slots", "100",
                     "--L", "2", "--lambda", "0.5"]) == 1
    assert "robust witness solve failed" in capsys.readouterr().err


def test_robust_witness_refuses_long_windows(ref_model, monkeypatch, tmp_path, capsys):
    # at L = 7 the dense program would need tens of gigabytes: the refusal
    # comes before any of it is allocated or solved
    table = xc.window_table(ref_model, 7)
    wit = xc.solve_region(table, 0.5, 0.5)
    eye = np.eye

    def small_eye(n, *args, **kwargs):
        if n > 64:
            raise AssertionError(f"np.eye({n}) reached")
        return eye(n, *args, **kwargs)

    def no_solve(lp):
        raise AssertionError("region.solve reached")

    monkeypatch.setattr(np, "eye", small_eye)
    monkeypatch.setattr(region, "solve", no_solve)
    assert len(table) > region.ROBUST_WINDOW_CAP == 4 ** 6
    with pytest.raises(xc.ResourceLimit):
        xc.robust_witness(table, wit, 0.99)
    model = tmp_path / "model.json"
    xc.save_model(ref_model, model)
    assert cli_main(["simulate", "--model", str(model), "--scheduler", "probabilistic",
                     "--rates", "0.3,0.3", "--slots", "100",
                     "--L", "7", "--lambda", "0.5"]) == 2
    assert "exceeds the cap of 4096" in capsys.readouterr().err


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


def test_loaded_dist_samples_by_the_documented_rule():
    # an entry inside the tolerance below zero would make the cumulative
    # row dip below 0.3, where _pick would count it and the rule would not
    row = [0.3, -1e-13, 0.2, 0.2, 0.3 + 1e-13]
    dist = xc.dist_from_dict({"L": 1, "actions": [row] * 4})
    assert (dist.table >= 0.0).all()
    cums = cumulative_rows(dist.table)
    u = 0.29999999999995
    got = _pick(np.array(cums), np.full(4, u)).tolist()
    assert got == [draw_oracle(cum, u) for cum in cums] == [0] * 4


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


def test_action_distribution_refuses_a_window_length_not_a_positive_integer():
    # refused before the cap and the shape checks: a bool would be saved as
    # "L": true, which load_dist refuses, and a float would reach numpy only
    # in simulate
    for L in (True, False, 2.0, 0, -1, "2", None):
        with pytest.raises(xc.ContractViolation, match="L: expected a positive integer"):
            xc.ActionDistribution(L, [[0.2] * 5] * 4)


def test_sweep_failure_raises(ref_model, monkeypatch):
    # a witness that fails its re-check raises, as the robust witness does,
    # instead of leaving a gap in the sweep
    t = xc.window_table(ref_model, 1)
    monkeypatch.setattr(region, "witness_residual", lambda table, wit: 1.0)
    with pytest.raises(xc.NumericalFailure) as failure:
        xc.sweep_table(t, 5)
    assert failure.value.diagnostics == {"lam": 0.0}


def test_sweep_support_matches_highs(ref_model):
    # at every grid weight the best swept point has the HiGHS optimum, and
    # each vertex keeps the first weight that reaches it, so the labels
    # increase with R1
    pytest.importorskip("scipy.optimize")
    k = 17
    for L in (1, 2, 3, 4):
        t = xc.window_table(ref_model, L)
        points = xc.sweep_table(t, k)
        labels = [p.w1 for p in points]
        assert len(points) >= 2 and labels == sorted(labels), L
        for i in range(k):
            lam = i / (k - 1)
            ref = highs_region(t, lam, 1.0 - lam)
            best = max(lam * p.R1 + (1.0 - lam) * p.R2 for p in points)
            assert abs(best - ref) <= 1e-12 * ref, (L, lam)


def test_sweep_never_empty():
    # the region holds the origin, so a sweep is never empty: on a channel
    # that erases every slot at both receivers it is the origin alone
    deaf = xc.window_table(xc.ChannelModel([[1.0]], [[0.0, 0.0, 0.0, 1.0]]), 1)
    assert [(p.w1, p.R1, p.R2) for p in xc.sweep_table(deaf, 5)] == [(0.0, 0.0, 0.0)]


def test_sweep_deterministic(ref_model):
    t = xc.window_table(ref_model, 3)
    first = xc.sweep_table(t, 33)
    second = xc.sweep_table(t, 33)
    assert len(first) == len(second) >= 2
    for a, b in zip(first, second):
        assert (a.w1, a.R1, a.R2) == (b.w1, b.R1, b.R2)
        assert a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()


# R(L) at lambda = 0.5 for L = 1..8: the reference model, and a model with
# long memory (stay probability 0.995; independent erasures of 0.05 in the
# good state and 0.5 in the bad one)
REF_RATES = (0.3679250394, 0.3682531330, 0.3683039976, 0.3683064921,
             0.3683065350, 0.3683065396, 0.3683065402, 0.3683065403)
MEMORY_RATES = (0.4144740763, 0.4206484697, 0.4223154558, 0.4242650357,
                0.4251877665, 0.4253539588, 0.4255318821, 0.4256406964)


def test_rate_nondecreasing_in_window(ref_model):
    # a longer window conditions on more feedback, so R(L) never falls; at
    # L = 8 (65536 windows) the region still takes two sorts, well under
    # 0.2 s. The outer region over (state, window) never rises and stays
    # above; at L = 8 the two meet to 1e-10 on the reference model and to
    # 2e-4 on the long-memory one
    def independent(e):
        return [(1 - e) ** 2, (1 - e) * e, e * (1 - e), e * e]

    long_memory = xc.ChannelModel([[0.995, 0.005], [0.005, 0.995]],
                                  [independent(0.05), independent(0.5)])
    for model, want, gap in ((ref_model, REF_RATES, 1e-10),
                             (long_memory, MEMORY_RATES, 2e-4)):
        rates, outer = [], []
        for L in range(1, 9):
            t = xc.window_table(model, L)
            t0 = time.perf_counter()
            wit = xc.solve_region(t, 0.5, 0.5)
            assert time.perf_counter() - t0 < 0.2, L
            assert witness_residual(t, wit) <= 1e-12, L
            rates.append(wit.R1)
            outer.append(xc.solve_region(filtering._refined_table(model, L), 0.5, 0.5).R1)
        assert np.max(np.abs(np.array(rates) - want)) <= 1e-10, rates
        assert all(a <= b for a, b in zip(rates, rates[1:])), rates
        assert all(a >= b for a, b in zip(outer, outer[1:])), outer
        assert max(rates) <= min(outer), (rates, outer)
        assert outer[-1] - rates[-1] < gap, (rates, outer)


def test_sandwich_refuses_a_large_window_before_computing_4_to_the_L(ref_model):
    # the refined table's row cap reads 4**L, an integer of L/4 bytes: at
    # L = 10**7 it alone is 2.5 MB, and 4**(10**9) would take hours
    tracemalloc.start()
    try:
        with pytest.raises(xc.ResourceLimit, match="window length 10000000 exceeds the cap of 10$"):
            xc.sandwich(ref_model, 10 ** 7, 0.5, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
