"""Seeded random instance generation: complex Ginibre draws.

Complex Ginibre is the one distribution the suite draws: normal
matrices (A*A = AA*) and unitary blocks (row_norm = col_norm) hide
adjoint-order and swapped-norm bugs that Ginibre draws expose.

All sampling flows through an explicit ``numpy.random.Generator``, so a
fixed seed reproduces every matrix bit for bit. The ``sample_*``
functions are the per-instance API: each takes a live generator and draws
one block matrix, vector or (k, k)-stacked lift from it. ``sample_chunk``
draws a chunk of the suite's trials at once and reproduces that API: the
trial of seed s is, byte for byte, what ``default_rng(s)`` gives through
``sample_block_matrix`` (A, then B) and ``regroup_lift(sample_lift(...))``
(the level-k A, then B), so a report's ``worst_seed`` regenerates its
instance through either. No trial draws a vector.
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockMatrix, _grid, _regroup, unflatten
from .errors import ShapeError

_MASK64 = (1 << 64) - 1


def mix64(seed: int, index: int) -> int:
    """Derive a per-trial seed from (suite seed, trial index), splitmix64 style."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """i.i.d. standard complex Gaussian entries (unit variance per entry).

    Built in place, with the bits of (re + 1j*im) / sqrt(2).
    """
    g = 1j * im
    g += re
    g /= np.sqrt(2.0)
    return g


def _operators(z: np.ndarray) -> np.ndarray:
    """Ginibre (..., size, size) operators from (..., 2, size, size) normals.

    Axis -3 holds the real, then the imaginary parts. The draw is scaled
    by 1/sqrt(size), which keeps spectral norms O(1) so relative
    tolerances stay meaningful. Every step acts on each matrix of the
    stack alone, so a stack gives the same bits as its matrices one at a
    time.
    """
    x = _complex(z[..., 0, :, :], z[..., 1, :, :])
    x *= 1.0 / np.sqrt(z.shape[-1])
    return x


def sample_block_matrix(rng: np.random.Generator, n: int, d: int) -> BlockMatrix:
    """One (n, d) block matrix: a Ginibre operator of size n*d, unflattened."""
    if min(n, d) < 1:
        raise ShapeError(f"n and d must be positive, got n={n}, d={d}")
    return unflatten(_operators(rng.standard_normal((2, n * d, n * d))), n, d)


def sample_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Standard complex Gaussian vector of the given dimension."""
    if dim < 1:
        raise ShapeError(f"vector dimension must be positive, got {dim}")
    return _complex(*rng.standard_normal((2, dim)))


def sample_lift(rng: np.random.Generator, k: int, n: int, d: int) -> BlockMatrix:
    """k-by-k ``sample_block_matrix`` draws, row-major, as one lift stacked over (k, k)."""
    if k < 1:
        raise ShapeError(f"lift level must be positive, got {k}")
    if min(n, d) < 1:
        raise ShapeError(f"n and d must be positive, got n={n}, d={d}")
    return unflatten(_operators(rng.standard_normal((k, k, 2, n * d, n * d))), n, d)


def sample_chunk(seeds, n: int, d: int, k: int) -> tuple[dict, dict]:
    """The trials of ``seeds``, stacked along a leading trial axis.

    Trial t fills its row of one normals buffer with a single
    ``standard_normal`` call on ``default_rng(seeds[t])``, in the order
    the per-instance samplers draw them: A and B, then the k*k blocks of
    the level-k A and those of the level-k B in row-major order, the real
    parts of each before its imaginary parts. The Ginibre transform then
    runs once over the whole chunk. Returns the mapping of A and B, and
    that of the level-k pair, regrouped at block size k*d, as A and B.
    """
    if min(n, d, k) < 1:
        raise ShapeError(f"n, d and k must be positive, got n={n}, d={d}, k={k}")
    t, m = len(seeds), n * d
    normals = np.empty((t, 2 * (1 + k * k) * 2 * m * m))
    for i, seed in enumerate(seeds):
        np.random.default_rng(seed).standard_normal(out=normals[i])
    pair, lifts = np.split(normals, [2 * 2 * m * m], axis=1)
    a, b = np.moveaxis(_operators(pair.reshape(t, 2, 2, m, m)), 1, 0)
    ops = _operators(lifts.reshape(t, 2, k, k, 2, m, m))
    del normals, pair, lifts  # free the normals before the regroup copy
    ka, kb = np.moveaxis(_regroup(_grid(ops, n, d)), 1, 0)
    return ({"A": unflatten(a, n, d), "B": unflatten(b, n, d)},
            {"A": BlockMatrix(n, k * d, ka), "B": BlockMatrix(n, k * d, kb)})
