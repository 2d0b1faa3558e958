"""Checkers measure, ``run_property`` judges.

Each ``verify_<id>`` returns its residual as a float and takes no tolerance
or seed; the residual does not depend on the tolerance it is judged at,
nor on the scale of the inputs ``run_property`` (and so replay) is given.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_bm
from schurblock import (
    PROPERTIES,
    BlockMatrix,
    block_identity,
    block_matrix_to_json,
    run_property,
    vector_to_json,
)
from schurblock import blocks, cli, verify
from schurblock.cli import TrialConfig, replay_instance, run_suite


def _instance(seed=307, n=3, d=2):
    rng = np.random.default_rng(seed)
    return {"A": random_bm(rng, n, d), "B": random_bm(rng, n, d),
            "xi": rng.standard_normal(n * d) + 1j * rng.standard_normal(n * d),
            "gamma": rng.standard_normal(n * d) + 1j * rng.standard_normal(n * d)}


def _checker_args(pid, x):
    return [x[key] for key in PROPERTIES[pid].needs]


@pytest.mark.parametrize("pid", list(PROPERTIES))
def test_checker_returns_a_float(pid):
    x = _instance()
    residual = getattr(verify, f"verify_{pid}")(*_checker_args(pid, x))
    assert type(residual) is float
    assert residual == run_property(pid, x).worst_residual


@pytest.mark.parametrize("pid", list(PROPERTIES))
def test_residual_does_not_depend_on_the_tolerance(pid):
    x = _instance()
    default = PROPERTIES[pid].tol
    residuals = {run_property(pid, x, tol=t).worst_residual
                 for t in (default, 2 * default, default / 2)}
    assert len(residuals) == 1


@pytest.mark.parametrize("pid", list(PROPERTIES))
@pytest.mark.parametrize("knob", ["tol", "seed"])
def test_checkers_take_no_tolerance_or_seed(pid, knob):
    x = _instance()
    with pytest.raises(TypeError):
        getattr(verify, f"verify_{pid}")(*_checker_args(pid, x), **{knob: 1e-8})


def _routes_scaled(monkeypatch, diag_factor, sum_factor):
    original = verify.cauchy_schwarz_rhs_routes

    def scaled(*args):
        rhs_diag, rhs_sum = original(*args)
        return rhs_diag * diag_factor, rhs_sum * sum_factor

    monkeypatch.setattr(verify, "cauchy_schwarz_rhs_routes", scaled)


@pytest.mark.parametrize("s", [1.0, 1e-4, 1e-5, 1e-150, 1e150])
def test_halved_cauchy_schwarz_bound_fails_at_every_scale(s, monkeypatch):
    # the identity pair reaches the bound exactly, so half of it is exceeded
    # by a factor 2 whatever the scale of the vectors
    _routes_scaled(monkeypatch, 0.5, 0.5)
    i = block_identity(2, 2)
    e1 = np.zeros(4, dtype=complex)
    e1[0] = s
    result = run_property("cauchy_schwarz", {"A": i, "B": i, "xi": e1, "gamma": e1})
    assert not result.passed
    assert result.worst_residual == 1.0


@pytest.mark.parametrize("disagreement,passes", [(2e-10, False), (5e-11, True)])
def test_rhs_routes_must_agree_to_1e_10(disagreement, passes, monkeypatch):
    x = _instance()
    assert run_property("cauchy_schwarz", x).passed
    _routes_scaled(monkeypatch, 1.0, 1.0 + disagreement)
    assert run_property("cauchy_schwarz", x).passed is passes


def _write_instance(x, path):
    encode = {"A": block_matrix_to_json, "B": block_matrix_to_json,
              "xi": vector_to_json, "gamma": vector_to_json}
    path.write_text(json.dumps({key: f(x[key]) for key, f in encode.items()}))


def _replay_all(x, path):
    """Each property's residual on instance x, written to path and replayed."""
    _write_instance(x, path)
    return {pid: replay_instance(str(path), pid) for pid in PROPERTIES}


def _scaled(x, powers):
    """x with each input multiplied by its own power of two, exactly."""
    return {key: BlockMatrix(v.n, v.d, np.ldexp(1.0, k) * v.blocks)
            if isinstance(v, BlockMatrix) else np.ldexp(1.0, k) * v
            for (key, v), k in zip(x.items(), powers)}


ZERO = BlockMatrix(3, 2, np.zeros((3, 3, 2, 2)))
SCALE_INSTANCES = {
    "gaussian": _instance(n=3, d=2),
    # every deviation and every reference is 0, and 0 over 0 is a residual of 0.0
    "zero": {"A": ZERO, "B": ZERO, "xi": np.zeros(6), "gamma": np.zeros(6)},
}


@pytest.mark.parametrize("name", SCALE_INSTANCES)
@settings(max_examples=20, deadline=None)
@given(powers=st.lists(st.integers(-900, 900), min_size=4, max_size=4))
def test_power_of_two_scale_leaves_every_residual_bit_for_bit(name, powers,
                                                              tmp_path_factory):
    path = tmp_path_factory.mktemp("scale") / "x.json"
    x = SCALE_INSTANCES[name]
    at_one = _replay_all(x, path)
    scaled = _scaled(x, powers)
    for pid, result in _replay_all(scaled, path).items():
        assert result.worst_residual == at_one[pid].worst_residual, (pid, powers)
        assert run_property(pid, scaled).worst_residual == result.worst_residual, pid
        assert result.passed, pid
        if name == "zero":
            assert result.worst_residual == 0.0, pid


def _count_scalings(monkeypatch):
    """The calls of the array-level scaler, one entry (its ndim) per call."""
    calls = []
    original = blocks._unit_scale

    def counted(z, ndim):
        calls.append(ndim)
        return original(z, ndim)

    for module in (blocks, verify):
        monkeypatch.setattr(module, "_unit_scale", counted)
    return calls


def test_a_suite_chunk_scales_each_input_once(monkeypatch):
    # A, B, xi, gamma and the level-k pair: a BlockMatrix keeps its scaled
    # form for every property of the chunk, and the vectors are scaled for
    # cauchy_schwarz alone
    monkeypatch.setattr(cli, "CHUNK_BYTES", 512)
    assert cli.chunk_trials(2, 1, 1) == 2
    calls = _count_scalings(monkeypatch)
    report = run_suite(TrialConfig(n=2, d=1, k=1, trials=3))
    assert [r.trials for r in report.results] == [3] * len(PROPERTIES)
    assert sorted(calls) == [1] * 4 + [4] * 8


def test_replay_scales_only_the_inputs_its_property_needs(monkeypatch, tmp_path):
    path = tmp_path / "x.json"
    _write_instance(_instance(), path)
    calls = _count_scalings(monkeypatch)
    assert cli.main(["replay", str(path), "--property", "sandwich"]) == 0
    assert calls == [4]
