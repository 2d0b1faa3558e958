"""Dense complex matrix kernel: validation, norms and Hermitian spectra.

Everything in this module works on plain 2-D ``numpy.ndarray`` values with
dtype complex128; ``as_operator`` is the single validation gate used at API
boundaries. ``spectral_norm`` is a full SVD: the largest operator a
suite config builds is n*d*n = 8*4*8 = 256 on a side, and replay, which
takes block size up to 12 (a level-3 pair at d = 4), can build
n*d*n = 8*12*8 = 768. Functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError

ABS_FLOOR = 1e-12


def as_operator(x) -> np.ndarray:
    """Coerce to a finite 2-D complex128 matrix, raising on anything else."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D operator, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ContractError("operator entries must be finite (no NaN/Inf)")
    return a


def spectral_norm(x) -> float:
    """Largest singular value of a nonempty matrix x."""
    x = as_operator(x)
    if x.size == 0:
        raise ShapeError(f"spectral_norm of an empty matrix, shape {x.shape}")
    return float(np.linalg.svd(x, compute_uv=False)[0])


def identity_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """||lhs - rhs|| / max(1, ||rhs||), the deviation from lhs = rhs.

    An exactly zero difference returns 0.0 at once, without an SVD and
    without the ||rhs|| denominator: identities among 0/1 permutation
    operators hold bit for bit, and this is the value the norms would give.
    """
    diff = lhs - rhs
    if not diff.any():
        return 0.0
    return spectral_norm(diff) / max(1.0, spectral_norm(rhs))


def hermitian_min_eig(x, tol: float = 1e-10) -> float:
    """Smallest eigenvalue of the Hermitian part (x + x*) / 2.

    x must be square and Hermitian up to ||x - x*||_F <= tol * ||x||_F;
    beyond that the input is rejected rather than silently symmetrized.
    """
    x = as_operator(x)
    if x.shape[0] != x.shape[1]:
        raise ShapeError(f"hermitian_min_eig needs a square matrix, got {x.shape}")
    scale = float(np.linalg.norm(x))
    dev = float(np.linalg.norm(x - x.conj().T))
    if dev > tol * max(scale, ABS_FLOOR):
        raise ContractError(
            f"matrix is not Hermitian: ||x - x*|| = {dev:.3e} exceeds "
            f"{tol:.1e} * ||x|| = {tol * scale:.3e}"
        )
    h = (x + x.conj().T) / 2
    return float(np.linalg.eigvalsh(h)[0])


def psd_sqrt(x, tol: float = 1e-10) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [-lim, 0) with lim = tol * max(1, max_eig) are clamped to
    zero; anything below -lim raises ContractError, since a genuinely
    indefinite input signals corruption upstream.
    """
    x = as_operator(x)
    if x.shape[0] != x.shape[1]:
        raise ShapeError(f"psd_sqrt needs a square matrix, got {x.shape}")
    h = (x + x.conj().T) / 2
    w, u = np.linalg.eigh(h)
    lim = tol * max(1.0, float(w[-1]) if w.size else 0.0)
    if w.size and float(w[0]) < -lim:
        raise ContractError(f"matrix is not PSD: min eigenvalue {float(w[0]):.3e}")
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.conj().T
