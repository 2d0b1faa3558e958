"""Dense complex matrix kernel.

Everything in this module works on plain 2-D ``numpy.ndarray`` values with
dtype complex128; ``as_operator`` is the single validation gate used at API
boundaries. Functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ConvergenceError, ShapeError

SVD_CUTOFF = 256
POWER_MAX_ITER = 10_000
ABS_FLOOR = 1e-12


def as_operator(x) -> np.ndarray:
    """Coerce to a finite 2-D complex128 matrix, raising on anything else."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D operator, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ContractError("operator entries must be finite (no NaN/Inf)")
    return a


def matmul(x, y) -> np.ndarray:
    """Matrix product x @ y with an explicit conformance check."""
    x = as_operator(x)
    y = as_operator(y)
    if x.shape[1] != y.shape[0]:
        raise ShapeError(f"cannot multiply shapes {x.shape} and {y.shape}")
    return x @ y


def adjoint(x) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(as_operator(x)).T


def kron(x, y) -> np.ndarray:
    """Kronecker product, row-major convention.

    Entry at ((i*y.rows + k), (j*y.cols + l)) equals x[i, j] * y[k, l], so
    kron(a, b) @ kron(c, d) == kron(a @ c, b @ d) whenever the shapes conform.
    """
    return np.kron(as_operator(x), as_operator(y))


def spectral_norm(x, tol: float = 1e-10, *, svd_cutoff: int = SVD_CUTOFF,
                  max_iter: int = POWER_MAX_ITER) -> float:
    """Largest singular value of x.

    Parameters
    ----------
    x : array_like
        Nonempty matrix.
    tol : float
        Relative accuracy target for the iterative path.
    svd_cutoff : int
        Matrices with max dimension <= svd_cutoff use a full SVD; larger
        ones fall back to power iteration on x*x.
    max_iter : int
        Iteration budget for the power-iteration path.
    """
    x = as_operator(x)
    if x.size == 0:
        raise ShapeError(f"spectral_norm of an empty matrix, shape {x.shape}")
    if max(x.shape) <= svd_cutoff:
        return float(np.linalg.svd(x, compute_uv=False)[0])
    return power_iteration_norm(x, tol=tol, max_iter=max_iter)


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


def power_iteration_norm(x, tol: float = 1e-10,
                         max_iter: int = POWER_MAX_ITER) -> float:
    """Largest singular value via power iteration on x*x.

    Stops when the Rayleigh quotient for x*x is stable to relative ``tol``;
    raises ConvergenceError (carrying the iteration count) past ``max_iter``.
    The starting vector comes from a fixed-seed generator, which keeps the
    function a pure map of its inputs.
    """
    x = as_operator(x)
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(x.shape[1]) + 1j * rng.standard_normal(x.shape[1])
    v /= np.linalg.norm(v)
    prev = -1.0
    for _ in range(max_iter):
        w = x.conj().T @ (x @ v)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            # random start in the kernel of x*x only happens for x == 0
            return 0.0
        rayleigh = float(np.vdot(v, w).real)
        v = w / nw
        if prev >= 0.0 and abs(rayleigh - prev) <= tol * max(rayleigh, ABS_FLOOR):
            return float(np.sqrt(max(rayleigh, 0.0)))
        prev = rayleigh
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations",
        iterations=max_iter,
    )


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
