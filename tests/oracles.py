"""Independent reference implementations used to check the package.

Everything here recomputes results by a different method than the library:
state-path enumeration instead of recursive filtering, vertex enumeration
instead of simplex pivoting, augmenting paths instead of cut formulas,
Gaussian elimination instead of union-find, a cold two-phase solve per
weight instead of one re-optimized tableau. The row-indexed filter update
and prediction are the exception: they repeat the library's arithmetic
term by term, so the column kernels must match them exactly. So are the
one-at-a-time forms of batched code (the depth-first window table, the
per-sample forgetting loop, the json.dumps trace writer): the batched code
must reproduce them bit for bit.
"""

import itertools
import json
import math

import numpy as np

import xorcast as xc
from xorcast.filtering import _step
from xorcast.lp import _Simplex, _verify
from xorcast.region import _witness_from_point, region_lp


def random_model(rng, n_states, floor=0.02):
    """Random strictly positive model: every entry at least floor after
    normalization pushes mass around."""
    def rows(n, k):
        out = []
        for _ in range(n):
            row = [floor + rng.random() for _ in range(k)]
            s = sum(row)
            out.append([v / s for v in row])
        return out
    return xc.ChannelModel(rows(n_states, n_states), rows(n_states, 4))


def filter_step_oracle(model, belief, z):
    """One filter update indexed by state, as a generator sum over rows:
    condition on pattern index z, then advance one slot. Returns
    (next_belief, likelihood), the belief unchanged on zero likelihood."""
    em = model.emission_rows
    tr = model.transition_rows
    n = model.num_states
    post = [belief[s] * em[s][z] for s in range(n)]
    ell = sum(post)
    if ell <= 0.0:
        return belief, 0.0
    inv = 1.0 / ell
    nxt = tuple(sum(post[s] * tr[s][sp] for s in range(n)) * inv for sp in range(n))
    return nxt, ell


def predict_oracle(model, belief):
    """Next-slot pattern distribution, as a generator sum over rows."""
    em = model.emission_rows
    n = model.num_states
    return tuple(sum(belief[s] * em[s][z] for s in range(n)) for z in range(4))


def window_table_dfs(model, L):
    """window_table by depth-first recursion over prefixes, one scalar
    filter step per node: (probs, pattern_probs)."""
    m = 4 ** L
    probs = np.zeros(m)
    pattern_probs = np.zeros((m, 4))
    uniform = tuple(1.0 / model.num_states for _ in range(model.num_states))
    uniform_pp = xc.predict_pattern_probs(model, uniform)
    stack = [(0, 0, xc.init_belief(model), 1.0)]
    while stack:
        depth, prefix, belief, prob = stack.pop()
        if depth == L:
            probs[prefix] = prob
            pattern_probs[prefix] = xc.predict_pattern_probs(model, belief)
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
    return probs, pattern_probs


def empirical_forgetting_loop(model, L, horizon, seed, samples):
    """empirical_forgetting one sampled history at a time, through
    sample_trajectory and filter_step."""
    t = horizon - 1
    worst = 0.0
    pi = xc.init_belief(model)
    for k in range(samples):
        _, patterns = xc.sample_trajectory(model, t, seed + k)
        full = pi
        for p in patterns:
            full = xc.filter_step(model, full, p)
        tail = pi
        for p in patterns[-L:]:
            tail = xc.filter_step(model, tail, p)
        a = xc.predict_pattern_probs(model, full)
        b = xc.predict_pattern_probs(model, tail)
        worst = max(worst, sum(abs(u - v) for u, v in zip(a, b)))
    return worst


def save_trace_json(trace, path):
    """save_trace through json.dumps, one record per line."""
    with open(path, "w", encoding="utf-8") as f:
        for slot, action, combo, r1, r2, delivered in trace:
            f.write(json.dumps({
                "slot": slot, "action": action, "combo": list(combo),
                "received_rx1": bool(r1), "received_rx2": bool(r2),
                "delivered": [[j, pid] for j, pid in delivered],
            }) + "\n")


def feasible(lp):
    """Phase one only. Returns (True, witness) or (False, None)."""
    sx = _Simplex(lp)
    if not sx.phase_one():
        return False, None
    x = sx.extract()
    _verify(lp.constraints, lp.bounds, x)
    return True, x


def solve_region_cold(table, w1, w2, slack=0.0):
    """solve_region with its refine step as a second cold solve of the
    region program plus the keep-value row."""
    lp = region_lp(table, w1, w2, slack)
    sol = xc.solve(lp)
    if sol.status != "Optimal":
        return None
    n = lp.num_vars
    keep = np.zeros(n)
    keep[0], keep[1] = -w1, -w2
    lp2 = xc.LinearProgram(
        np.concatenate([[1.0, 1.0], np.zeros(n - 2)]),
        lp.constraints + [(keep, "<=", -(sol.value - 1e-12))],
        lp.bounds)
    sol2 = xc.solve(lp2)
    assert sol2.status == "Optimal", sol2.status
    return _witness_from_point(table, w1, w2, slack, sol2.point)


def sweep_table_cold(table, k=33, slack=0.0):
    """sweep_table with two cold solves per weight: sorted by R1 and
    deduplicated at 1e-9, as the library does."""
    out = []
    for i in range(k):
        lam = i / (k - 1)
        wit = solve_region_cold(table, lam, 1.0 - lam, slack)
        if wit is not None:
            out.append(wit)
    out.sort(key=lambda w: (w.R1, w.R2))
    dedup = []
    for wit in out:
        if dedup and abs(dedup[-1].R1 - wit.R1) <= 1e-9 and abs(dedup[-1].R2 - wit.R2) <= 1e-9:
            continue
        dedup.append(wit)
    return dedup


def brute_force_window(model, L):
    """Window probabilities and predictive pattern distributions by summing
    over all hidden state paths."""
    n = model.num_states
    pi = xc.stationary_distribution(model)
    T = np.asarray(model.transition)
    E = np.asarray(model.emission)
    m = 4 ** L
    probs = np.zeros(m)
    preds = np.zeros((m, 4))
    for widx in range(m):
        codes = xc.window_codes(widx, L)
        total = 0.0
        nxt = np.zeros(4)
        for path in itertools.product(range(n), repeat=L):
            w = pi[path[0]]
            for k in range(L):
                w *= E[path[k], codes[k]]
                if k + 1 < L:
                    w *= T[path[k], path[k + 1]]
            if w == 0.0:
                continue
            total += w
            for nxt_state in range(n):
                nxt += w * T[path[L - 1], nxt_state] * E[nxt_state]
        probs[widx] = total
        if total > 0.0:
            preds[widx] = nxt / total
    return probs, preds


def vertex_oracle(lp, tol=1e-7):
    """Best objective value over all vertices of the feasible polytope.

    Only valid for programs whose feasible set is bounded (finite boxes).
    Returns None when no feasible vertex exists, which for bounded sets
    means the program is infeasible.
    """
    n = lp.num_vars
    normals = []
    offsets = []
    for coefs, _rel, rhs in lp.constraints:
        normals.append(np.asarray(coefs, dtype=float))
        offsets.append(float(rhs))
    for j, (lo, hi) in enumerate(lp.bounds):
        e = np.zeros(n)
        e[j] = 1.0
        normals.append(e.copy())
        offsets.append(float(lo))
        if math.isfinite(hi):
            normals.append(e)
            offsets.append(float(hi))
    A = np.asarray(normals)
    b = np.asarray(offsets)
    combos = np.asarray(list(itertools.combinations(range(len(normals)), n)))
    mats = A[combos]
    rhss = b[combos]
    dets = np.linalg.det(mats)
    keep = np.abs(dets) > 1e-10
    if not keep.any():
        return None
    sols = np.linalg.solve(mats[keep], rhss[keep][..., None])[..., 0]
    ok = np.ones(len(sols), dtype=bool)
    for coefs, rel, rhs in lp.constraints:
        lhs = sols @ np.asarray(coefs)
        if rel == "=":
            ok &= np.abs(lhs - rhs) <= tol
        else:
            ok &= lhs <= rhs + tol
    for j, (lo, hi) in enumerate(lp.bounds):
        ok &= sols[:, j] >= lo - tol
        if math.isfinite(hi):
            ok &= sols[:, j] <= hi + tol
    if not ok.any():
        return None
    return float((sols[ok] @ lp.objective).max())


def _edmonds_karp(cap, source, sink):
    n = len(cap)
    flow = 0.0
    while True:
        parent = [-1] * n
        parent[source] = source
        queue = [source]
        while queue:
            u = queue.pop(0)
            for v in range(n):
                if parent[v] < 0 and cap[u][v] > 1e-15:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] < 0:
            return flow
        aug = math.inf
        v = sink
        while v != source:
            u = parent[v]
            aug = min(aug, cap[u][v])
            v = u
        v = sink
        while v != source:
            u = parent[v]
            cap[u][v] -= aug
            cap[v][u] += aug
            v = u
        flow += aug


def pipeline_max_flow(caps, receiver):
    """Max flow from the fresh queue to delivery in one receiver's pipeline,
    computed with augmenting paths. Nodes: 0 fresh, 1 overheard, 2 poison,
    3 delivery."""
    j = receiver - 1
    cap = [[0.0] * 4 for _ in range(4)]
    cap[0][1] += caps.c12[j]
    cap[0][2] += caps.c13
    cap[0][3] += caps.c14[j]
    cap[1][3] += caps.c24[j]
    cap[2][1] += caps.c32[j]
    cap[2][3] += caps.c34[j]
    return _edmonds_karp(cap, 0, 3)


def memoryless_residuals(e1, e2, e12, R1, R2):
    """Slack of the two single-letter boundary constraints, in the divided
    form R1/(1-e1) + R2/(1-e12) <= 1 and its mirror."""
    c1 = 1.0 - (R1 / (1.0 - e1) + R2 / (1.0 - e12))
    c2 = 1.0 - (R1 / (1.0 - e12) + R2 / (1.0 - e2))
    return c1, c2


def _reduce(basis, row):
    """Reduce a GF(2) row (a set of ids) against an elimination basis keyed
    by each stored row's largest id; returns the residue."""
    while row:
        other = basis.get(max(row))
        if other is None:
            return row
        row = row ^ other
    return row


def gf2_decode_oracle(trace):
    """decode_verify by Gaussian elimination over GF(2), for combinations of
    any weight: each receiver keeps a basis of the rows it heard, and a
    claim for packet p holds when e_p reduces to zero against it."""
    bases = ({}, {})
    fails = []
    bad = [False, False]
    for slot, _action, combo, r1, r2, delivered in trace:
        row = set()
        for pid in combo:
            row ^= {pid}
        for heard, basis in zip((r1, r2), bases):
            if heard:
                residue = _reduce(basis, row)
                if residue:
                    basis[max(residue)] = residue
        for j, pid in delivered:
            if not bad[j - 1] and _reduce(bases[j - 1], {pid}):
                bad[j - 1] = True
                fails.append((j, pid, slot))
    receiver_ok = (not bad[0], not bad[1])
    return xc.DecodeReport(ok=all(receiver_ok), receiver_ok=receiver_ok, failures=fails)
