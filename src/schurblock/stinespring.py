"""Concrete operators on the triple tensor space C^n (x) C^d (x) C^n.

Index convention, fixed for every builder here and referenced nowhere
else: the basis vector labeled (i, s, k), with i and k in {0..n-1} and s
in {0..d-1}, sits at flat index (i*d + s)*n + k. Left representations act
on the (i, s) legs, right representations on the (s, k) legs, and the
flip exchanges the two outer legs.

The builders materialize dense matrices (n*d*n is at most 256 on a side).
V and F are 0/1 matrices, so StinespringSystem also keeps them as index
arrays: V* X = X[v_rows], X V = X[:, v_rows], F X = X[f_perm] and
X F = X[:, f_perm]. Its ``operator_residual`` certifies, once per system,
that V and F are exactly the matrices of those gathers.

Entry formulas, with row label (i, s, k) and column label (j, t, l):

    build_lambda(A)[(i,s,k), (j,t,l)] = A_ij[s, t] * delta(k, l)
    build_rho(A)   [(i,s,k), (j,t,l)] = delta(i, j) * A_kl[s, t]
    build_sigma(A) [(i,s,k), (j,t,l)] = A_ij[s, t] * delta(i, k) * delta(j, l)
    build_flip(n,d)[(i,s,k), (j,t,l)] = delta(i, l) * delta(k, j) * delta(s, t)
    build_isometry(n,d)[(i,s,k), (j,t)] = delta(i, j) * delta(k, j) * delta(s, t)

so lambda(A) rho(B) has entry (a_ij b_kl)[s, t], which for d = 1 is the
classical Kronecker product of the two scalar matrices.

lambda and rho are unital *-homomorphisms; sigma is a *-homomorphism that
is unital only for n = 1, with sigma(identity) the orthogonal projection Q
onto the span of the (j, s, j) basis vectors. The isometry V satisfies
V*V = I, VV* = Q, FV = V and sigma(A)V = V flatten(A), and the Schur block
product factors as

    flatten(A [] B) = V* lambda(A) F lambda(B) V = V* lambda(A) rho(B) V.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blocks import BlockMatrix, block_identity, flatten
from .errors import ShapeError
from .linalg import identity_residual


def triple_dim(n: int, d: int) -> int:
    return n * d * n


def build_lambda(a: BlockMatrix) -> np.ndarray:
    """Left representation: flatten(a) acting on the first two legs."""
    return np.kron(flatten(a), np.eye(a.n))


def build_rho(a: BlockMatrix) -> np.ndarray:
    """Right representation: I_n (x) M with M[(s,k), (t,l)] = A_kl[s, t]."""
    n, d = a.n, a.d
    m = a.blocks.transpose(2, 0, 3, 1).reshape(d * n, d * n)
    out = np.zeros((n, d * n, n, d * n), dtype=np.complex128)
    idx = np.arange(n)
    out[idx, :, idx, :] = m
    return out.reshape(triple_dim(n, d), triple_dim(n, d))


def build_sigma(a: BlockMatrix) -> np.ndarray:
    """Diagonal mix: block (i, j) lands at row group (i,*,i), column group (j,*,j)."""
    n, d = a.n, a.d
    six = np.zeros((n, d, n, n, d, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            six[i, :, i, j, :, j] = a.blocks[i, j]
    return six.reshape(triple_dim(n, d), triple_dim(n, d))


def build_flip(n: int, d: int) -> np.ndarray:
    """Self-adjoint unitary permutation exchanging the two outer tensor legs."""
    six = np.einsum("il,st,kj->iskjtl", np.eye(n), np.eye(d), np.eye(n))
    return six.reshape(triple_dim(n, d), triple_dim(n, d))


def build_isometry(n: int, d: int) -> np.ndarray:
    """Isometry duplicating the outer index: (j, t) goes to (j, t, j)."""
    v = np.zeros((n, d, n, n, d), dtype=np.complex128)
    for j in range(n):
        v[j, :, j, j, :] = np.eye(d)
    return v.reshape(triple_dim(n, d), n * d)


@dataclass(frozen=True)
class StinespringSystem:
    """The fixed operators V and F for one (n, d), and Q = VV* derived from V.

    Invariants (all exact for these 0/1 matrices): V*V = I, F = F* = F^-1,
    FV = V, and sigma(I) = Q. ``v_rows`` and ``f_perm`` are V and F as
    index arrays, read off the matrices themselves, so a system with a
    replaced V or F gets its own, and its own Q.
    ``operator_residual`` measures the invariants, and that V and F are
    exactly the selection and the permutation those arrays give, on first
    use and keeps the result on this object, so a system checked in every
    trial of a suite is checked once.
    """

    n: int
    d: int
    V: np.ndarray
    F: np.ndarray

    @classmethod
    def build(cls, n: int, d: int) -> "StinespringSystem":
        if n < 1 or d < 1:
            raise ShapeError(f"n and d must be positive, got n={n}, d={d}")
        v = build_isometry(n, d)
        f = build_flip(n, d)
        for arr in (v, f):
            arr.setflags(write=False)
        return cls(n=n, d=d, V=v, F=f)

    @cached_property
    def Q(self) -> np.ndarray:
        """VV*, the projection onto the span of the (j, s, j) basis vectors."""
        q = self.V @ self.V.conj().T
        q.setflags(write=False)
        return q

    @cached_property
    def v_rows(self) -> np.ndarray:
        """Row of the 1 in each column of V: V* X = X[v_rows], X V = X[:, v_rows]."""
        rows = np.abs(self.V).argmax(axis=0)
        rows.setflags(write=False)
        return rows

    @cached_property
    def f_perm(self) -> np.ndarray:
        """Column of the 1 in each row of F: F X = X[f_perm].

        Since F = F*, also X F = X[:, f_perm].
        """
        perm = np.abs(self.F).argmax(axis=1)
        perm.setflags(write=False)
        return perm

    @cached_property
    def operator_residual(self) -> float:
        """Worst deviation from the invariants and the index forms of V and F.

        Measures V = I[:, v_rows] and F = I[f_perm], and with them, through
        the same gathers the checkers apply, V*V = V[v_rows] = I,
        F^2 = F[f_perm] = I and FV = V[f_perm] = V; also F = F* and
        sigma(I) = Q. On a healthy system each difference is exactly zero
        and costs no SVD.
        """
        v, f, r, p = self.V, self.F, self.v_rows, self.f_perm
        eye = np.eye(triple_dim(self.n, self.d))
        return max(
            identity_residual(v, eye[:, r]),
            identity_residual(f, eye[p]),
            identity_residual(v[r], np.eye(self.n * self.d)),
            identity_residual(f[p], eye),
            identity_residual(v[p], v),
            identity_residual(f, f.conj().T),
            identity_residual(build_sigma(block_identity(self.n, self.d)), self.Q),
        )
