"""Seeded random instance generation.

All sampling flows through an explicit ``numpy.random.Generator``, so a
fixed seed reproduces every matrix bit for bit. The ``sample_*``
functions take a live generator for streaming use inside trial loops.
"""

from __future__ import annotations

import numpy as np

from .blocks import BlockMatrix, unflatten
from .errors import ShapeError

GINIBRE = "ginibre"
HERMITIAN = "hermitian"
HAAR = "haar"
ENSEMBLES = (GINIBRE, HERMITIAN, HAAR)

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


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """i.i.d. standard complex Gaussian entries (unit variance per entry)."""
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def sample_operator(rng: np.random.Generator, rows: int, cols: int,
                    ensemble: str = GINIBRE, scale: float | None = None) -> np.ndarray:
    """Draw one random matrix from the given ensemble.

    hermitian and haar draws are generated at size max(rows, cols) and
    sliced, so the square case is exactly Hermitian / approximately Haar.
    scale=None means 1/sqrt(rows), which keeps spectral norms O(1) so
    relative tolerances stay meaningful; scale=0 yields zeros.
    """
    if rows < 1 or cols < 1:
        raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if ensemble not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {ensemble!r}, expected one of {ENSEMBLES}")
    if scale is None:
        scale = 1.0 / np.sqrt(rows)
    if ensemble == GINIBRE:
        return scale * _ginibre(rng, rows, cols)
    m = max(rows, cols)
    g = _ginibre(rng, m, m)
    if ensemble == HERMITIAN:
        h = (g + g.conj().T) / 2
        return scale * h[:rows, :cols]
    # haar: Ginibre + QR with the phase fix that makes Q Haar distributed
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    absd = np.abs(diag)
    phases = diag / np.where(absd == 0, 1.0, absd)
    phases = np.where(absd == 0, 1.0, phases)
    q = q * phases
    return scale * q[:rows, :cols]


def sample_block_matrix(rng: np.random.Generator, n: int, d: int,
                        ensemble: str = GINIBRE,
                        scale: float | None = None) -> BlockMatrix:
    return unflatten(sample_operator(rng, n * d, n * d, ensemble, scale), n, d)


def sample_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Standard complex Gaussian vector of the given dimension."""
    return (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / np.sqrt(2.0)


def sample_lift(rng: np.random.Generator, k: int, n: int, d: int,
                ensemble: str = GINIBRE, scale: float | None = None) -> list:
    """k-by-k grid of independent random BlockMatrix draws."""
    return [
        [sample_block_matrix(rng, n, d, ensemble, scale) for _ in range(k)]
        for _ in range(k)
    ]
