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
    diag_block,
    run_property,
)
from schurblock import blocks, cli, verify
from schurblock.cli import TrialConfig, replay_instance, run_suite


def _instance(seed=307, n=3, d=2):
    rng = np.random.default_rng(seed)
    return {"A": random_bm(rng, n, d), "B": random_bm(rng, n, d)}


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


# the residual at each scale s of the identity pair, with D halved
HALVED_RESIDUALS = {1.0: 1.0, 1e-4: 1.0, 1e-5: 1 - 2.0 ** -53, 1e-150: 1.0,
                    1e150: 1 + 2.0 ** -52}


@pytest.mark.parametrize("s", HALVED_RESIDUALS)
def test_halved_cauchy_schwarz_bound_fails_at_every_scale(s, monkeypatch):
    # the identity pair reaches the bound: G = [[I, I], [I, I]] is singular.
    # With D_A and D_B halved, G's smallest eigenvalue is -1/2, as large as
    # r = 1/2, at every scale: the unit-scaled pair is c I, and the residual
    # is 1 up to the rounding of c^2 when c is not a power of two
    monkeypatch.setattr(verify, "diag_block", lambda a: BlockMatrix(
        a.n, a.d, 0.5 * diag_block(a).blocks))
    i = BlockMatrix(2, 2, s * block_identity(2, 2).blocks)
    result = run_property("cauchy_schwarz", {"A": i, "B": i})
    assert not result.passed
    assert result.worst_residual == HALVED_RESIDUALS[s]


def _write_instance(x, path):
    path.write_text(json.dumps({key: block_matrix_to_json(v) for key, v in x.items()}))


def _replay_all(x, path):
    """Each property's residual on instance x, written to path and replayed."""
    _write_instance(x, path)
    return {pid: replay_instance(str(path), pid) for pid in PROPERTIES}


def _scaled(x, powers):
    """x with each input multiplied by its own power of two, exactly."""
    return {key: BlockMatrix(v.n, v.d, np.ldexp(1.0, k) * v.blocks)
            for (key, v), k in zip(x.items(), powers)}


ZERO = BlockMatrix(3, 2, np.zeros((3, 3, 2, 2)))
SCALE_INSTANCES = {
    "gaussian": _instance(n=3, d=2),
    # every deviation and every reference is 0, and 0 over 0 is a residual of 0.0
    "zero": {"A": ZERO, "B": ZERO},
}


@pytest.mark.parametrize("name", SCALE_INSTANCES)
@settings(max_examples=20, deadline=None)
@given(powers=st.lists(st.integers(-900, 900), min_size=2, max_size=2))
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
    """The calls of the array-level scaler, one entry (its input's shape) per call."""
    calls = []
    original = blocks._unit_scale

    def counted(z):
        calls.append(z.shape)
        return original(z)

    monkeypatch.setattr(blocks, "_unit_scale", counted)
    return calls


def test_a_suite_chunk_scales_each_input_once(monkeypatch):
    # A, B and the level-k pair of each of the two chunks: a BlockMatrix
    # keeps its scaled form for every property of the chunk
    monkeypatch.setattr(cli, "CHUNK_BYTES", 512)
    assert cli.chunk_trials(2, 1, 1) == 2
    calls = _count_scalings(monkeypatch)
    report = run_suite(TrialConfig(n=2, d=1, k=1, trials=3))
    assert [r.trials for r in report.results] == [3] * len(PROPERTIES)
    assert calls == [(2, 2, 2, 1, 1)] * 4 + [(1, 2, 2, 1, 1)] * 4


def test_replay_scales_only_the_inputs_its_property_needs(monkeypatch, tmp_path):
    path = tmp_path / "x.json"
    _write_instance(_instance(), path)
    calls = _count_scalings(monkeypatch)
    assert cli.main(["replay", str(path), "--property", "sandwich"]) == 0
    assert calls == [(3, 3, 2, 2)]
