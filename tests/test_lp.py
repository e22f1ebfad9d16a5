import math
import random

import numpy as np
import pytest

import xorcast as xc
from xorcast.lp import _Simplex

from oracles import feasible, vertex_oracle

INF = math.inf


def lp(objective, constraints, bounds):
    return xc.LinearProgram(objective, constraints, bounds)


def test_simple_max():
    # max x + y, x + y <= 1 on the unit box: any point on the diagonal
    sol = xc.solve(lp([1, 1], [([1, 1], "<=", 1)], [(0, 1), (0, 1)]))
    assert sol.status == "Optimal"
    assert abs(sol.value - 1.0) < 1e-9


def test_vertex_solution():
    # max 2x + y over x <= 0.5, x + y <= 1, box [0,1]^2: (0.5, 0.5)
    sol = xc.solve(
        lp([2, 1], [([1, 0], "<=", 0.5), ([1, 1], "<=", 1)], [(0, 1), (0, 1)])
    )
    assert abs(sol.value - 1.5) < 1e-9
    assert np.max(np.abs(sol.point - [0.5, 0.5])) < 1e-9


def test_equality_constraint():
    sol = xc.solve(lp([1, 0], [([1, 1], "=", 0.6)], [(0, 1), (0, 1)]))
    assert abs(sol.value - 0.6) < 1e-9
    assert abs(sol.point[1]) < 1e-9


def test_upper_bound_inactive_objective():
    # maximizing a zero objective is fine; any feasible point works
    sol = xc.solve(lp([0, 0], [([1, 1], "<=", 1)], [(0, 1), (0, 1)]))
    assert sol.status == "Optimal"
    assert abs(sol.value) < 1e-12


def test_infeasible():
    sol = xc.solve(lp([1], [([1], "<=", -1)], [(0, 1)]))
    assert sol.status == "Infeasible"
    assert sol.value is None


def test_infeasible_equality():
    sol = xc.solve(lp([1, 1], [([1, 1], "=", 5)], [(0, 1), (0, 1)]))
    assert sol.status == "Infeasible"


def test_unbounded():
    sol = xc.solve(lp([1, 0], [([0, 1], "<=", 1)], [(0, INF), (0, 1)]))
    assert sol.status == "Unbounded"


def test_unbounded_via_free_direction():
    sol = xc.solve(lp([1, -1], [([1, -1], "<=", 0)], [(0, INF), (0, INF)]))
    # x - y <= 0 with objective x - y caps at 0
    assert sol.status == "Optimal"
    assert abs(sol.value) < 1e-9


def test_nonzero_lower_bounds():
    sol = xc.solve(lp([-1, -1], [([1, 1], "<=", 10)], [(2, 5), (3, 7)]))
    assert abs(sol.value - (-5.0)) < 1e-9
    assert np.max(np.abs(sol.point - [2, 3])) < 1e-9


def test_negative_lower_bounds():
    sol = xc.solve(lp([-1], [], [(-3, 4)]))
    assert abs(sol.value - 3.0) < 1e-9
    assert abs(sol.point[0] + 3.0) < 1e-9


def test_degenerate_redundant_rows():
    cons = [
        ([1, 1], "<=", 1),
        ([1, 1], "<=", 1),
        ([2, 2], "=", 2),
        ([1, 1], "=", 1),
    ]
    sol = xc.solve(lp([1, 2], cons, [(0, 1), (0, 1)]))
    assert sol.status == "Optimal"
    assert abs(sol.value - 2.0) < 1e-9


def test_tight_set():
    sol = xc.solve(
        lp([1, 1], [([1, 0], "<=", 0.25), ([0, 1], "<=", 0.5)], [(0, 1), (0, 1)])
    )
    assert set(sol.tight) == {0, 1}


def test_deterministic():
    program = lp(
        [3, 1, 2],
        [([1, 1, 3], "<=", 30), ([2, 2, 5], "<=", 24), ([4, 1, 2], "<=", 36)],
        [(0, INF)] * 3,
    )
    a = xc.solve(program)
    b = xc.solve(program)
    assert a.value == b.value
    assert np.array_equal(a.point, b.point)
    assert a.pivots == b.pivots
    assert abs(a.value - 28.0) < 1e-9


def test_beale_cycling_example():
    # Beale (1955): largest-coefficient pricing alone cycles through
    # degenerate bases on this program; the Bland fallback breaks out
    sol = xc.solve(lp(
        [0.75, -150, 0.02, -6],
        [([0.25, -60, -0.04, 9], "<=", 0),
         ([0.5, -90, -0.02, 3], "<=", 0),
         ([0, 0, 1, 0], "<=", 1)],
        [(0, INF)] * 4,
    ))
    assert sol.status == "Optimal"
    assert abs(sol.value - 0.05) < 1e-9
    assert np.max(np.abs(sol.point - [0.04, 0, 1, 0])) < 1e-9


def test_feasible_check():
    ok, witness = feasible(lp([0, 0], [([1, 1], "=", 1)], [(0, 1), (0, 1)]))
    assert ok
    assert abs(witness.sum() - 1.0) < 1e-9
    bad, none = feasible(lp([0, 0], [([1, 1], "=", 3)], [(0, 1), (0, 1)]))
    assert not bad
    assert none is None


def random_program(rng, max_vars=4, max_cons=4):
    n = rng.randrange(1, max_vars + 1)
    m = rng.randrange(0, max_cons + 1)
    obj = [rng.uniform(-2, 2) for _ in range(n)]
    cons = []
    for _ in range(m):
        coefs = [rng.uniform(-2, 2) for _ in range(n)]
        rel = "<=" if rng.random() < 0.8 else "="
        rhs = rng.uniform(-1, 2)
        cons.append((coefs, rel, rhs))
    bounds = []
    for _ in range(n):
        lo = rng.uniform(-1, 0.5)
        bounds.append((lo, lo + rng.uniform(0.1, 2.5)))
    return lp(obj, cons, bounds)


def test_random_against_vertex_enumeration():
    rng = random.Random(123)
    solved = 0
    for _ in range(200):
        program = random_program(rng)
        sol = xc.solve(program)
        want = vertex_oracle(program)
        if want is None:
            assert sol.status == "Infeasible"
        else:
            assert sol.status == "Optimal"
            assert abs(sol.value - want) < 1e-7
            solved += 1
    assert solved > 50


def test_reoptimize_matches_cold_solve():
    # a new objective on a solved tableau gives the cold optimum of the new
    # program, counting only its own pivots
    rng = random.Random(31)
    checked = 0
    for _ in range(200):
        program = random_program(rng)
        sx = _Simplex(program)
        if sx.solve().status != "Optimal":
            continue
        again = sx.reoptimize(program.objective)
        assert again.status == "Optimal" and again.pivots == 0
        obj = [rng.uniform(-2, 2) for _ in range(program.num_vars)]
        warm = sx.reoptimize(obj)
        cold = xc.solve(lp(obj, program.constraints, program.bounds))
        assert warm.status == cold.status == "Optimal"
        assert abs(warm.value - cold.value) < 1e-9
        checked += 1
    assert checked > 50


def test_with_row_matches_cold_solve():
    # appending a row the current point meets, then re-optimizing, gives the
    # cold optimum of the extended program; the original is untouched
    rng = random.Random(47)
    checked = 0
    for _ in range(200):
        program = random_program(rng)
        sx = _Simplex(program)
        first = sx.solve()
        if first.status != "Optimal":
            continue
        coefs = np.array([rng.uniform(-2, 2) for _ in range(program.num_vars)])
        rhs = float(coefs @ first.point) + rng.choice([0.0, 0.3])
        obj = [rng.uniform(-2, 2) for _ in range(program.num_vars)]
        warm = sx.with_row(coefs, rhs).reoptimize(obj)
        extended = lp(obj, program.constraints + [(coefs, "<=", rhs)], program.bounds)
        cold = xc.solve(extended)
        assert warm.status == cold.status == "Optimal"
        assert abs(warm.value - cold.value) < 1e-9
        assert abs(warm.value - vertex_oracle(extended)) < 1e-7
        assert len(warm.point) == program.num_vars
        same = sx.reoptimize(program.objective)
        assert same.pivots == 0 and np.array_equal(same.point, first.point)
        checked += 1
    assert checked > 50


def test_warm_start_preconditions():
    infeasible = _Simplex(lp([1], [([1], "<=", -1)], [(0, 1)]))
    assert infeasible.solve().status == "Infeasible"
    with pytest.raises(xc.ContractViolation):
        infeasible.reoptimize([1.0])
    sx = _Simplex(lp([1, 1], [([1, 1], "<=", 1)], [(0, 1), (0, 1)]))
    assert sx.solve().status == "Optimal"
    with pytest.raises(xc.ContractViolation):
        sx.with_row([-1, -1], -1.5)   # the optimum has x + y = 1
