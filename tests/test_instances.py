"""The chunk sampler against the per-instance samplers it reproduces.

A report's ``worst_seed`` names one trial; regenerating it through
``sample_block_matrix`` and ``sample_lift`` must give
the exact instance the suite checked, compared as bytes so that a -0.0
where +0.0 belongs counts as a difference.
"""

import numpy as np
import pytest

from schurblock import (
    mix64,
    regroup_lift,
    sample_block_matrix,
    sample_chunk,
    sample_lift,
    sample_vector,
)
from schurblock import cli
from schurblock.cli import TrialConfig, chunk_trials, run_suite
from schurblock.errors import ShapeError
from schurblock.verify import run_property


def per_instance(seed, n, d, k):
    """Trial ``seed`` through the public samplers, in the documented order."""
    rng = np.random.default_rng(seed)
    a = sample_block_matrix(rng, n, d)
    b = sample_block_matrix(rng, n, d)
    ka = regroup_lift(sample_lift(rng, k, n, d))
    kb = regroup_lift(sample_lift(rng, k, n, d))
    return {"A": a, "B": b}, {"A": ka, "B": kb}


def assert_rows_regenerate(x, level_k, seeds, n, d, k):
    """Row t of every stack is, byte for byte, trial seeds[t] drawn alone."""
    for t, seed in enumerate(seeds):
        for got, want in zip((x, level_k), per_instance(seed, n, d, k)):
            assert got.keys() == want.keys()
            for key, w in want.items():
                g, w = got[key].blocks[t], w.blocks
                assert g.shape == w.shape, key
                assert g.tobytes() == w.tobytes(), (seed, key)


@pytest.mark.parametrize("n, d, k", [(1, 1, 1), (3, 2, 2), (2, 3, 1), (8, 4, 3)])
def test_chunk_rows_are_the_per_instance_draws(n, d, k):
    seeds = [mix64(2017, t) for t in range(3)]
    x, level_k = sample_chunk(seeds, n, d, k)
    assert (x["A"].n, x["A"].d, level_k["A"].n, level_k["A"].d) == (n, d, n, k * d)
    assert x["A"].batch == level_k["B"].batch == (len(seeds),)
    assert_rows_regenerate(x, level_k, seeds, n, d, k)


def test_a_trial_is_one_generator_call():
    # the row layout: A, B, then the k*k blocks of each level-k matrix,
    # every draw's real parts before its imaginary parts
    n, d, k, seed = 3, 2, 2, 5
    m = n * d
    size = 2 * (2 * m * m + 2 * k * k * m * m)
    z = np.random.default_rng(seed).standard_normal(size)
    x, level_k = sample_chunk([seed], n, d, k)

    def normals(offset, size):
        re, im = z[offset:offset + size], z[offset + size:offset + 2 * size]
        return (re + 1j * im) / np.sqrt(2.0)

    a = normals(0, m * m).reshape(m, m) / np.sqrt(m)
    assert np.array_equal(x["A"].blocks[0], a.reshape(n, d, n, d).swapaxes(1, 2))
    b = normals(2 * m * m, m * m).reshape(m, m) / np.sqrt(m)
    assert np.array_equal(x["B"].blocks[0], b.reshape(n, d, n, d).swapaxes(1, 2))
    # the level-k A's grid entry (0, 0) follows B directly
    first = normals(4 * m * m, m * m).reshape(m, m) / np.sqrt(m)
    corner = level_k["A"].blocks[0][:, :, :d, :d]
    assert np.array_equal(corner, first.reshape(n, d, n, d).swapaxes(1, 2))
    # the last block drawn is the level-k B's grid entry (k-1, k-1)
    last = normals(z.size - 2 * m * m, m * m).reshape(m, m) / np.sqrt(m)
    corner = level_k["B"].blocks[0][:, :, (k - 1) * d:, (k - 1) * d:]
    assert np.array_equal(corner, last.reshape(n, d, n, d).swapaxes(1, 2))


def test_suite_chunks_regenerate_across_the_chunk_boundary(monkeypatch):
    # 300 trials at (4, 2, 2) run as chunks of 256 and 44
    n, d, k, trials = 4, 2, 2, 300
    assert chunk_trials(n, d, k) == 256
    seen = {}

    def record(p, x, **kw):
        seen.setdefault(tuple(kw["seeds"]), {})[p] = x
        return run_property(p, x, **kw)

    monkeypatch.setattr(cli, "run_property", record)
    run_suite(TrialConfig(n=n, d=d, k=k, trials=trials, seed=42,
                          properties=("livshits", "cb_level")))
    assert [len(s) for s in seen] == [256, 44]
    assert [s for chunk in seen for s in chunk] == [mix64(42, t) for t in range(trials)]
    for seeds, by_property in seen.items():
        # the suite hands run_property each trial as drawn
        assert_rows_regenerate(by_property["livshits"], by_property["cb_level"],
                               seeds, n, d, k)


@pytest.mark.parametrize("dim", [0, -1])
def test_sample_vector_rejects_dimension_below_one(dim):
    with pytest.raises(ShapeError, match="vector dimension must be positive"):
        sample_vector(np.random.default_rng(0), dim)


@pytest.mark.parametrize("k", [0, -1])
def test_sample_lift_rejects_level_below_one(k):
    with pytest.raises(ShapeError, match="lift level must be positive"):
        sample_lift(np.random.default_rng(0), k, 2, 2)


def test_sample_chunk_rejects_sizes_below_one():
    with pytest.raises(ShapeError, match="must be positive"):
        sample_chunk([1], 2, 2, 0)


def test_sample_chunk_takes_no_ensemble():
    # every trial is Ginibre: a distribution argument raises, not draws otherwise
    with pytest.raises(TypeError):
        sample_chunk([mix64(2017, 0)], 2, 1, 1, "haar")
