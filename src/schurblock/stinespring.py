"""Concrete operators on the triple tensor space C^n (x) C^d (x) C^n.

Index convention, fixed for every builder here and referenced nowhere
else: the basis vector labeled (i, s, k), with i and k in {0..n-1} and s
in {0..d-1}, sits at flat index (i*d + s)*n + k. Left representations act
on the (i, s) legs, right representations on the (s, k) legs, and the
flip exchanges the two outer legs.

The builders return one matrix per grid of a stacked BlockMatrix, n*d*n
(at most 256) on a side, or for build_lambda the rows and columns asked
for. The fixed operators V and F are 0/1 matrices and are defined by
index arrays, which StinespringSystem.build computes from the closed
forms, writing idx(i, s, k) for the flat index of (i, s, k):

    v_rows[j*d + t]    = idx(j, t, j)
    f_perm[idx(i,s,k)] = idx(k, s, i)

so V* X = X[v_rows], X V = X[:, v_rows], F X = X[f_perm] and
X F = X[:, f_perm]: the checkers pass these arrays to build_lambda, and
V* lambda(A) F is build_lambda(A, v_rows, f_perm). The dense V, F and Q are
scattered from them on each access. ``operator_residual`` checks the
laws of V and F exactly on the arrays themselves, and proves the
builders' two gather laws, F lambda(A) F = rho(A) and
sigma(A) = V flatten(A) V*, once per (n, d) on a labelled instance. The
proof holds one dense n*d*n stack at a time: rho(A) is compared with
F lambda(A) F one first-leg row group (d*n rows) at a time, and freed
before sigma(A) is built, so its peak is one stack plus 1/n of one, not
two.

Entry formulas, with row label (i, s, k) and column label (j, t, l):

    build_lambda(A)[(i,s,k), (j,t,l)] = A_ij[s, t] * delta(k, l)
    build_rho(A)   [(i,s,k), (j,t,l)] = delta(i, j) * A_kl[s, t]
    build_sigma(A) [(i,s,k), (j,t,l)] = A_ij[s, t] * delta(i, k) * delta(j, l)
    F              [(i,s,k), (j,t,l)] = delta(i, l) * delta(k, j) * delta(s, t)
    V              [(i,s,k), (j,t)]   = delta(i, j) * delta(k, j) * delta(s, t)

so lambda(A) rho(B) has entry (a_ij b_kl)[s, t], which for d = 1 is the
classical Kronecker product of the two scalar matrices.

lambda and rho are unital *-homomorphisms; sigma is a *-homomorphism that
is unital only for n = 1, with sigma(identity) the orthogonal projection Q
onto the span of the (j, s, j) basis vectors. The isometry V satisfies
V*V = I, VV* = Q, FV = V and sigma(A) = V flatten(A) V*, and the Schur
block product factors as

    flatten(A [] B) = V* lambda(A) F lambda(B) V = V* lambda(A) rho(B) V.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .blocks import BlockMatrix, flatten
from .errors import ShapeError


def triple_dim(n: int, d: int) -> int:
    return n * d * n


def build_lambda(a: BlockMatrix, rows: np.ndarray | None = None,
                 cols: np.ndarray | None = None) -> np.ndarray:
    """Left representation: flatten(a) acting on the first two legs.

    kron(flatten(a), I_n) for each matrix of a stack, at the given rows
    and columns: lambda(a)[rows][:, cols], each index array defaulting to
    all n*d*n. Entry (R, C) is flat[R // n, C // n] * delta(R % n, C % n)
    with flat = flatten(a): two gathers of flat and one in-place multiply
    by the 0/1 mask, so every entry is flat * 0.0 or flat * 1.0, bit for
    bit what np.kron forms, signed zeros included. A checker passes the
    index arrays of V and F here and so builds only the strip it reads.
    """
    full = np.arange(triple_dim(a.n, a.d))
    rows = full if rows is None else rows
    cols = full if cols is None else cols
    out = np.take(np.take(flatten(a), rows // a.n, axis=-2), cols // a.n, axis=-1)
    out *= rows[:, None] % a.n == cols % a.n
    return out


def build_rho(a: BlockMatrix) -> np.ndarray:
    """Right representation: I_n (x) M with M[(s,k), (t,l)] = A_kl[s, t]."""
    n, d = a.n, a.d
    # (..., k, l, s, t) -> (..., s, k, t, l)
    m = np.moveaxis(a.blocks, (-2, -4, -1, -3), (-4, -3, -2, -1))
    out = np.zeros((*a.batch, n, d * n, n, d * n), dtype=np.complex128)
    idx = np.arange(n)
    out[..., idx, :, idx, :] = m.reshape(*a.batch, d * n, d * n)
    return out.reshape(*a.batch, triple_dim(n, d), triple_dim(n, d))


def build_sigma(a: BlockMatrix) -> np.ndarray:
    """Diagonal mix: block (i, j) lands at row group (i,*,i), column group (j,*,j)."""
    n, d = a.n, a.d
    six = np.zeros((*a.batch, n, d, n, n, d, n), dtype=np.complex128)
    i, j = np.arange(n)[:, None], np.arange(n)[None, :]
    # the (i, j) index grid leads the selection, ahead of the stack axes
    six[..., i, :, i, j, :, j] = np.moveaxis(a.blocks, (-4, -3), (0, 1))
    return six.reshape(*a.batch, triple_dim(n, d), triple_dim(n, d))


@dataclass(frozen=True)
class StinespringSystem:
    """The fixed operators V and F for one (n, d), defined by index arrays.

    ``v_rows`` and ``f_perm`` (closed forms in the module docstring) are the
    single source, and the checkers apply V and F through them by index.
    ``build`` is memoised per (n, d), so every caller in a process shares
    one system, and ``operator_residual`` checks the laws of V and F on its
    arrays, and the builders' gather laws on a labelled instance, exactly
    and once per (n, d). The dense V, F and Q = VV* serve emit-system,
    the demos and the tests; they are derived on each access and never
    kept, so a shared system holds only its index arrays.
    """

    n: int
    d: int
    v_rows: np.ndarray
    f_perm: np.ndarray

    @classmethod
    @cache
    def build(cls, n: int, d: int) -> "StinespringSystem":
        if n < 1 or d < 1:
            raise ShapeError(f"n and d must be positive, got n={n}, d={d}")
        # flat[i, s, k] = idx(i, s, k); the two closed forms are gathers of it
        flat = np.arange(triple_dim(n, d)).reshape(n, d, n)
        j = np.arange(n)
        v_rows = flat[j, :, j].reshape(-1)
        f_perm = flat.transpose(2, 1, 0).reshape(-1)
        for arr in (v_rows, f_perm):
            arr.setflags(write=False)
        return cls(n=n, d=d, v_rows=v_rows, f_perm=f_perm)

    @property
    def V(self) -> np.ndarray:
        """The isometry with a 1 at (v_rows[c], c) in each column c."""
        r = self.v_rows
        v = np.zeros((triple_dim(self.n, self.d), r.size), dtype=np.complex128)
        v[r, np.arange(r.size)] = 1
        v.setflags(write=False)
        return v

    @property
    def F(self) -> np.ndarray:
        """The permutation matrix with a 1 at (i, f_perm[i]) in each row i."""
        p = self.f_perm
        f = np.zeros((p.size, p.size), dtype=np.complex128)
        f[np.arange(p.size), p] = 1
        f.setflags(write=False)
        return f

    @property
    def Q(self) -> np.ndarray:
        """VV*, the projection onto the span of the (j, s, j) basis vectors:
        a 1 at (r, r) for each r in v_rows."""
        r = self.v_rows
        q = np.zeros((triple_dim(self.n, self.d),) * 2, dtype=np.complex128)
        q[r, r] = 1
        q.setflags(write=False)
        return q

    @cached_property
    def operator_residual(self) -> float:
        """0.0 when the fixed-operator and gather laws hold exactly, 1.0 otherwise.

        With r = v_rows and p = f_perm: V*V = V[r] = I holds when no entry
        of r repeats; F = F* = F^-1 when p[p] is the identity permutation,
        which also makes p a permutation; and FV = V when p[r] = r.
        F lambda(A) F = rho(A) and sigma(A) = V flatten(A) V* must hold bit
        for bit on ``_labelled``'s instance, alone and as a stack of two.
        Every entry of each side is one entry of A or zero, so this proves
        them for every A as long as the builders stay free of branches on
        values; sigma(I) = Q is then the case A = I. A nonzero difference
        of 0/1 matrices has spectral norm at least 1, so 1.0 is of the
        order a dense comparison gives, and far above every tolerance.

        It runs lazily, on the first read: ``build`` stays cheap. It holds
        one dense n*d*n stack at a time, plus one first-leg row group of
        F lambda(A) F (1/n of a stack): rho(A) stays whole while lambda is
        compared with it group by group, and is freed before sigma(A) is
        built. At (8, 4) one stack of two is 2 MiB, more than a warm
        one-trial verify call peaks at, so two of them at once would set
        the peak memory of a verify run.
        """
        r, p = self.v_rows, self.f_perm
        stack = _labelled(self.n, self.d)
        alone = BlockMatrix(self.n, self.d, stack.blocks[0])
        holds = (
            np.bincount(r).max() == 1
            and np.array_equal(p[p], np.arange(p.size))
            and np.array_equal(p[r], r)
            and all(_gathers_hold(x, r, p) for x in (alone, stack))
        )
        return 0.0 if holds else 1.0


def _labelled(n: int, d: int) -> BlockMatrix:
    """A stack of two (n, d) block matrices whose real and imaginary parts
    are distinct integers in [1, 2^52), with random signs, from a fixed seed.

    Each label is exact in float64, so a gather reproduces it bit for bit,
    while a dropped conj flips an imaginary sign, a wrong index lands
    another label, a sum of two entries is no label, and a slip on the
    stack axes lands the other grid's labels.
    """
    rng = np.random.default_rng(0)
    shape = (2, 2, n, n, d, d)  # (re/im, stack, grid, block)
    labels = rng.choice(2**52 - 1, size=np.prod(shape), replace=False) + 1
    signed = (labels * rng.choice([-1, 1], size=labels.size)).reshape(shape)
    return BlockMatrix(n, d, signed[0] + 1j * signed[1])


def _gathers_hold(a: BlockMatrix, r: np.ndarray, p: np.ndarray) -> bool:
    """F lambda(a) F = rho(a) and sigma(a) = V flatten(a) V*, bit for bit.

    F lambda(a) F = build_lambda(a, p, p), the formula every checker calls,
    so this covers each entry of lambda. It is built one first-leg row
    group at a time: the d*n rows (i, *, *) of F lambda(a) F are
    build_lambda(a, p[g], p) for the slice g of those rows, compared with
    the same rows of rho(a). V flatten(a) V* is flatten(a) at rows r and
    columns r and zero elsewhere. sigma(a)'s (r, r) block is compared and
    then zeroed in place, so no difference array is formed. rho(a) is freed
    before sigma(a) is built, so the proof holds one dense n*d*n stack,
    plus 1/n of one, at a time.
    """
    rho = build_rho(a)
    group = a.d * a.n
    for start in range(0, p.size, group):
        g = slice(start, start + group)
        if not np.array_equal(build_lambda(a, p[g], p), rho[..., g, :]):
            return False
    del rho
    sigma = build_sigma(a)
    if not np.array_equal(sigma[..., r[:, None], r], flatten(a)):
        return False
    sigma[..., r[:, None], r] = 0
    return not sigma.any()
