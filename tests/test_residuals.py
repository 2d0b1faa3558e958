"""Checkers state claims, ``run_property`` judges.

Each ``verify_<id>`` returns its named claims and takes no tolerance or
seed; each claim's residual can be read by name, and their fold,
``worst_residual``, is a float for one instance. The residual does not
depend on the tolerance it is judged at, nor on the scale of the inputs
``run_property`` (and so replay) is given.
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
    mix64,
    run_property,
    sample_chunk,
    worst_residual,
)
from schurblock import blocks, cli, verify
from schurblock.cli import TrialConfig, replay_instance, run_suite


def _instance(seed=307, n=3, d=2):
    rng = np.random.default_rng(seed)
    return {"A": random_bm(rng, n, d), "B": random_bm(rng, n, d)}


def _checker_args(pid, x):
    return [x[key] for key in PROPERTIES[pid].needs]


@pytest.mark.parametrize("pid", list(PROPERTIES))
def test_claims_fold_to_a_float(pid):
    x = _instance()
    residual = worst_residual(getattr(verify, f"verify_{pid}")(*_checker_args(pid, x)))
    assert type(residual) is float
    assert residual == run_property(pid, x).worst_residual


# each property's named claims, and the relation each is judged by
CLAIMS = {
    "factorization": {"identity": "equal"},
    "structure": {"operators": "same", "diagonal": "equal"},
    "livshits": {"bound": "at_most"},
    "sharpness": {"rows": "same", "largest": "same"},
    "sandwich": {"order": "psd"},
    "cauchy_schwarz": {"gram": "psd"},
    "decomposition": {"operators": "same", "diagonal": "equal"},
    "norm_lemmas": {"columns": "same", "rows": "same"},
    "cb_level": {"bound": "at_most"},
}


def _per_trial(r, trials: int) -> np.ndarray:
    """A claim's residuals as one value per trial: the largest of a trial's
    rows, and a once-per-shape value repeated for every trial."""
    r = np.asarray(r)
    return np.broadcast_to(r, (trials,)) if r.ndim == 0 else r.reshape(trials, -1).max(axis=1)


@pytest.mark.parametrize("n, d, k", [(4, 2, 2), (8, 4, 3)])
def test_each_claim_reads_by_name_and_folds_to_the_report(n, d, k):
    # a seeded chunk, as the suite draws it: each property's claims on the
    # scaled inputs, judged one by one by name, fold per trial into the
    # residuals whose first largest run_property reports, bit for bit
    seeds = [mix64(7, t) for t in range(5)]
    pair, level_k = sample_chunk(seeds, n, d, k)
    assert list(CLAIMS) == list(PROPERTIES)
    for pid, relations in CLAIMS.items():
        x = level_k if pid == "cb_level" else pair
        claims = getattr(verify, f"verify_{pid}")(
            *(x[key].unit_scaled for key in PROPERTIES[pid].needs))
        assert {name: claim[0] for name, claim in claims.items()} == relations, pid
        by_name = {name: verify._residual(*claims[name]) for name in relations}
        for name, r in by_name.items():
            assert np.all(np.asarray(r) <= PROPERTIES[pid].tol), (pid, name)
        want = np.max([_per_trial(r, len(seeds)) for r in by_name.values()], axis=0)
        folded = worst_residual(claims, (len(seeds),))
        assert folded.tobytes() == want.tobytes(), pid
        result = run_property(pid, x, seeds=seeds)
        assert np.float64(result.worst_residual).tobytes() == folded.max().tobytes(), pid
        assert result.worst_seed == seeds[int(np.argmax(folded))], pid


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
