import math
import random

import numpy as np

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
    bounds = [(0, 1), (0, 1)]
    program = lp([1, 2], cons, bounds)
    sol = xc.solve(program)
    assert sol.status == "Optimal"
    assert abs(sol.value - 2.0) < 1e-9
    # phase one ends with artificials basic on the redundant rows; every
    # row stays in the tableau, and the solve goes on from there
    sx = _Simplex(program)
    assert sx.solve().value == sol.value
    assert sx.T.shape[0] == len(sx.beta) == len(sx.basis) == len(cons)
    assert sx.is_artificial[sx.basis].any()
    for obj in ([2, 1], [-1, 0], [1, -1], [0, -1], [1, 2]):
        other = xc.solve(lp(obj, cons, bounds))
        assert other.status == "Optimal"
        assert abs(other.value - vertex_oracle(lp(obj, cons, bounds))) < 1e-7
    # the redundant rows plus x <= 0.5: maximizing x pivots through the
    # new row
    extended = lp([1, 0], cons + [([1, 0], "<=", 0.5)], bounds)
    cut = xc.solve(extended)
    assert cut.status == "Optimal" and cut.pivots > 0
    assert abs(cut.value - vertex_oracle(extended)) < 1e-7
    assert abs(cut.value - 0.5) < 1e-9
    # -x - y = 0 twice: phase one starts optimal with both artificials basic
    # at zero on rows that still hold x and y, so only their zero bound
    # stops the first pivot from lifting them
    pinned = lp([1, 0], [([-1, -1], "=", 0), ([-2, -2], "=", 0)], bounds)
    sx = _Simplex(pinned)
    assert sx.phase_one() and sx.is_artificial[sx.basis].all()
    sol = xc.solve(pinned)
    assert sol.status == "Optimal" and sol.value == 0.0
    assert abs(vertex_oracle(pinned)) < 1e-7


def test_tight_set():
    # the optimum lies on both rows
    program = lp([1, 1], [([1, 0], "<=", 0.25), ([0, 1], "<=", 0.5)], [(0, 1), (0, 1)])
    sol = xc.solve(program)
    for coefs, _rel, rhs in program.constraints:
        assert abs(coefs @ sol.point - rhs) < 1e-12


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


def test_tableau_has_one_column_per_slack_and_artificial():
    # a <= row with a nonnegative right-hand side at the lower bounds starts
    # on its slack; a <= row with a negative one and an = row need an
    # artificial, and lower bounds of 1 make 2x + y <= 1 such a row
    program = lp([1, 1], [([1, 1], "<=", 5), ([2, 1], "<=", 1), ([1, -1], "=", 0)],
                 [(1, 2), (1, 2)])
    sx = _Simplex(program)
    assert sx.T.shape == (3, 2 + 2 + 2)
    assert list(sx.basis) == [2, 4, 5]
    assert list(sx.is_artificial) == [False] * 4 + [True] * 2
    assert xc.solve(program).status == "Infeasible"
    # both columns end at their upper bound, neither of them basic
    sx = _Simplex(lp([1, 1], [([1, 1], "<=", 5)], [(0, 1), (0, 1)]))
    assert sx.solve().value == 2.0
    assert list(sx.at_upper) == [True, True, False]
    rng = random.Random(123)
    for _ in range(200):
        program = random_program(rng)
        lo = np.array([b[0] for b in program.bounds])
        n_le = sum(rel == "<=" for _coefs, rel, _rhs in program.constraints)
        n_art = sum(rel == "=" or rhs - coefs @ lo < 0.0
                    for coefs, rel, rhs in program.constraints)
        sx = _Simplex(program)
        assert sx.T.shape == (len(program.constraints), program.num_vars + n_le + n_art)
        assert sx.is_artificial.sum() == n_art
        sx.solve()
        assert not sx.at_upper[sx.basis].any()
