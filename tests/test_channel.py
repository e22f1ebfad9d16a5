import json
import math
import random

import numpy as np
import pytest

import xorcast as xc
from xorcast.channel import _cumulative_rows, _draw

from oracles import draw_oracle, random_model


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


class _Uniforms:
    """Stub generator whose random() hands out the given doubles in order."""

    def __init__(self, us):
        self._us = iter(us)

    def random(self):
        return next(self._us)


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
    for cum in _cumulative_rows(rows):
        # every cumulative entry exactly, its neighbours, and the ends
        us = {0.0, 0.5, 0.95, 1.0 - 2 ** -53, cum[-1]}
        for c in cum:
            us.update((c, math.nextafter(c, 0.0), math.nextafter(c, 1.0)))
        us.update(rng.random() for _ in range(20))
        for u in sorted(v for v in us if 0.0 <= v < 1.0):
            assert _draw(_Uniforms([u]), cum) == draw_oracle(cum, u), (cum, u)
            cases += 1
    assert cases > 3000
