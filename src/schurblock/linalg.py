"""Dense complex matrix kernel: validation, norms and Hermitian spectra.

Everything in this module works on complex128 ``numpy.ndarray`` values
holding one matrix in the last two axes, or a stack of them over any
leading axes; ``as_operator`` is the single validation gate used at API
boundaries. A kernel makes one batched LAPACK call for a whole stack,
which gives the same bits as one call per matrix, and returns one value
per matrix: a float for a plain 2-D input, an array over the leading axes
for a stack. ``spectral_norm`` takes a square matrix by its SVD and a
non-square one by the SVD of its Gram matrix on the narrow side, so no
SVD is wider than that side: the suite's largest operator, n*d*n by n*d
= 256 by 32 at (n, d) = (8, 4), costs a 32 by 256 by 32 product and a
32-square SVD. Replay, which takes block size up to 12 (a level-3 pair
at d = 4), can build n*d*n = 8*12*8 = 768 on a side.
Functions are pure and never mutate their arguments.
Every residual is a deviation over its reference, by ``ratio``, with no
floor, and ``verify``'s judge alone forms one. No kernel judges: an
indefinite matrix gets an all-NaN ``psd_sqrt``, and a matrix with a NaN
or infinite entry, which a wrong checker can build, gets a NaN
``spectral_norm`` and ``hermitian_min_eig``, not an exception. No
checker calls ``psd_sqrt``: perfbench's tracer names it.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError

# psd_sqrt clamps eigenvalues in [-PSD_TOL * max_eig, 0) to zero
PSD_TOL = 1e-10
# the smallest normal float64; spectral_norm trusts a Gram at or above it
NORMAL_MIN = 2.0 ** -1022


def as_scalar(x):
    """x as a float when it is one value, else as the array it is."""
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x


def _matrices(x) -> np.ndarray:
    """Coerce to a complex128 matrix, or stack of matrices, entries unchecked."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim < 2:
        raise ShapeError(f"expected a 2-D operator, got ndim={a.ndim}")
    return a


def as_operator(x) -> np.ndarray:
    """Coerce to a finite complex128 matrix, or stack of matrices, raising on anything else."""
    a = _matrices(x)
    if not np.isfinite(a).all():
        raise ContractError("operator entries must be finite (no NaN/Inf)")
    return a


def _finite_or_nan(kernel, x: np.ndarray):
    """kernel(x) for a stack of finite matrices; NaN for each matrix of x
    with a NaN or infinite entry, which the judge fails. A finite x costs
    the one pass of ``as_operator``'s check and no per-matrix mask."""
    if np.isfinite(x).all():
        return kernel(x)
    finite = np.isfinite(x).all(axis=(-2, -1))
    out = np.full(finite.shape, np.nan)
    if finite.any():
        out[finite] = kernel(x[finite])
    return as_scalar(out)


def _adjoint(x: np.ndarray) -> np.ndarray:
    return x.conj().swapaxes(-1, -2)


def _square(x: np.ndarray, name: str) -> np.ndarray:
    if x.shape[-1] != x.shape[-2]:
        raise ShapeError(f"{name} needs a square matrix, got {x.shape[-2:]}")
    return x


def _largest_sv(x: np.ndarray) -> np.ndarray:
    return np.linalg.svd(x, compute_uv=False)[..., 0]


def spectral_norm(x):
    """Largest singular value of each nonempty matrix of x.

    A matrix and its transpose have the same singular values, so a wide x
    is taken as its tall transposed view, with no copy: x and
    x.swapaxes(-1, -2) get the same bits. A square matrix goes to
    ``np.linalg.svd`` as it is. A tall m-by-c one is the square root of
    the norm of its c-square Gram matrix x*x (||x||^2 = ||x* x||), whose
    SVD is far cheaper than that of x. Forming x*x rounds its largest
    eigenvalue by about m*u relative (u = 2^-53), so the norm by about
    m*u/2. That holds where no entry of x*x overflowed and its largest
    diagonal entry, the largest squared column norm, is normal; a matrix
    of the stack where either fails, an all-zero one included, is the
    SVD of x itself, which LAPACK scales internally. A matrix with a NaN
    or infinite entry gets NaN (``_finite_or_nan``). Its Gram is not
    finite either, so x itself is checked for finiteness only on the
    square route and where the Gram fails: a finite Gram needs no pass.
    """
    x = _matrices(x)
    if x.size == 0:
        raise ShapeError(f"spectral_norm of an empty matrix, shape {x.shape}")
    if x.shape[-2] < x.shape[-1]:
        x = x.swapaxes(-1, -2)
    if x.shape[-2] == x.shape[-1]:
        return as_scalar(_finite_or_nan(_largest_sv, x))
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.conj(x).swapaxes(-1, -2) @ x
    top = np.diagonal(gram, axis1=-2, axis2=-1).real.max(axis=-1)
    ok = (top >= NORMAL_MIN) & np.isfinite(gram).all(axis=(-2, -1))
    if ok.all():
        return as_scalar(np.sqrt(_largest_sv(gram)))
    norm = np.empty(ok.shape)
    if ok.any():
        norm[ok] = np.sqrt(_largest_sv(gram[ok]))
    norm[~ok] = _finite_or_nan(_largest_sv, x[~ok])
    return as_scalar(norm)


def _norm_where(x: np.ndarray, mask):
    """spectral_norm of each matrix of x where mask holds, 0.0 elsewhere.

    No SVD runs where mask fails, and no masked copy of the stack is made
    where it holds everywhere.
    """
    if mask.all():
        return spectral_norm(x)
    out = np.zeros(mask.shape)
    if mask.any():
        out[mask] = spectral_norm(x[mask])
    return as_scalar(out)


def gap_norm(diff: np.ndarray):
    """spectral_norm of each matrix of diff; an exactly zero one is 0.0.

    The zero matrices cost no SVD: identities among 0/1 permutation
    operators hold bit for bit, and 0.0 is what the norm would give.
    """
    return _norm_where(diff, diff.reshape(*diff.shape[:-2], -1).any(axis=-1))


def ratio(num, den):
    """num / den per value, and 0.0 wherever num == 0, den == 0 included."""
    num = np.asarray(num, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return as_scalar(np.where(num == 0, 0.0, num / den))


def hermitian_min_eig(x):
    """Smallest eigenvalue of the Hermitian part (x + x*) / 2 of each square
    matrix; NaN for one with a NaN or infinite entry (``_finite_or_nan``)."""
    return _finite_or_nan(
        lambda h: as_scalar(np.linalg.eigvalsh((h + _adjoint(h)) / 2)[..., 0]),
        _square(_matrices(x), "hermitian_min_eig"))


def psd_sqrt(x) -> np.ndarray:
    """Hermitian square root of each positive semidefinite matrix of x.

    Eigenvalues in [-PSD_TOL * max_eig, 0) are clamped to zero; a matrix
    with one below that is indefinite, and its root is all NaN.
    """
    x = _square(as_operator(x), "psd_sqrt")
    w, u = np.linalg.eigh((x + _adjoint(x)) / 2)
    if w.shape[-1]:
        low = w[..., 0] < -PSD_TOL * w[..., -1]
        w = np.where(low[..., None], np.nan, w)
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)[..., None, :]) @ _adjoint(u)
