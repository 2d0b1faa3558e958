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


def _ginibre(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. standard complex Gaussian entries (unit variance per entry)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def sample_operator(rng: np.random.Generator, size: int,
                    ensemble: str = GINIBRE) -> np.ndarray:
    """Draw one size-by-size random matrix from the given ensemble.

    The draw is scaled by 1/sqrt(size), which keeps spectral norms O(1) so
    relative tolerances stay meaningful. hermitian draws are exactly
    Hermitian; haar draws are a scaled Haar unitary.
    """
    if size < 1:
        raise ShapeError(f"matrix size must be positive, got {size}")
    if ensemble not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {ensemble!r}, expected one of {ENSEMBLES}")
    scale = 1.0 / np.sqrt(size)
    g = _ginibre(rng, (size, size))
    if ensemble == GINIBRE:
        return scale * g
    if ensemble == HERMITIAN:
        return scale * ((g + g.conj().T) / 2)
    # haar: Ginibre + QR with the phase fix that makes Q Haar distributed
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    absd = np.abs(diag)
    phases = diag / np.where(absd == 0, 1.0, absd)
    phases = np.where(absd == 0, 1.0, phases)
    q = q * phases
    return scale * q


def sample_block_matrix(rng: np.random.Generator, n: int, d: int,
                        ensemble: str = GINIBRE) -> BlockMatrix:
    return unflatten(sample_operator(rng, n * d, ensemble), n, d)


def sample_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Standard complex Gaussian vector of the given dimension."""
    return _ginibre(rng, dim)


def sample_lift(rng: np.random.Generator, k: int, n: int, d: int,
                ensemble: str = GINIBRE) -> list:
    """k-by-k grid of independent random BlockMatrix draws."""
    return [[sample_block_matrix(rng, n, d, ensemble) for _ in range(k)]
            for _ in range(k)]
