#!/usr/bin/env python3
"""The three inequalities that fall out of the factorization.

1. Operator norm bound     ||A [] B|| <= row_norm(A) * col_norm(B)
2. Sandwich in PSD order   -diag(A*A) <= A* [] A <= diag(A*A)
3. Cauchy-Schwarz bound    |<(A [] B) xi, gamma>| <= ||diag(B*B)^(1/2) xi||
                                                   * ||diag(AA*)^(1/2) gamma||
   for all xi and gamma, which holds exactly when the Gram matrix
   G = [[diag(AA*), A [] B], [(A [] B)*, diag(B*B)]] is positive semidefinite

Each is shown on the hand-checkable 2x2 scalar pair and then sampled on
random block instances, including the equality cases. Last, the suite's
named claims for each inequality are read on one random pair.
"""

import numpy as np

from schurblock import (
    adjoint_block,
    block_identity,
    block_matmul,
    col_norm,
    diag_block,
    flatten,
    row_norm,
    row_norms_via_schur,
    sample_block_matrix,
    schur_block_product,
    spectral_norm,
    unflatten,
    verify_cauchy_schwarz,
    verify_livshits,
    verify_sandwich,
    verify_sharpness,
    worst_residual,
)

rng = np.random.default_rng(7)
A = unflatten(np.array([[1.0, 2.0], [3.0, 4.0]]), 2, 1)
B = unflatten(np.array([[5.0, 6.0], [7.0, 8.0]]), 2, 1)

print("=" * 70)
print("1. Norm bound")
print("=" * 70)
lhs = spectral_norm(flatten(schur_block_product(A, B)))
print(f"||A [] B|| = {lhs:.6f}  <=  row_norm(A) * col_norm(B) "
      f"= {row_norm(A)} * {col_norm(B)} = {row_norm(A) * col_norm(B)}")

print()
print("Equality case: pick B with identity blocks on one row only.")
X = sample_block_matrix(rng, 3, 2)
for k, norm in enumerate(row_norms_via_schur(X)):
    print(f"  ||X [] indicator(row {k})|| = {norm:.6f}")
print(f"  max of those = row_norm(X) = {row_norm(X):.6f}")

print()
print("=" * 70)
print("2. Sandwich in the PSD order")
print("=" * 70)
S = flatten(schur_block_product(adjoint_block(A), A))
D = flatten(diag_block(block_matmul(adjoint_block(A), A)))
print("A* [] A =\n", S.real)
print("diag(A*A) =\n", D.real)
print("eigenvalues of diag(A*A) - A* [] A:", np.linalg.eigvalsh(D - S))
print("eigenvalues of diag(A*A) + A* [] A:", np.linalg.eigvalsh(D + S))
print("(the upper gap touches zero: this instance sits on the boundary)")

print()
print("Random block instances, smallest eigenvalue of both gaps:")
for trial in range(5):
    Y = sample_block_matrix(rng, 4, 2)
    Sy = flatten(schur_block_product(adjoint_block(Y), Y))
    Sy = (Sy + Sy.conj().T) / 2
    Dy = flatten(diag_block(block_matmul(adjoint_block(Y), Y)))
    lo = np.linalg.eigvalsh(Dy - Sy)[0]
    hi = np.linalg.eigvalsh(Dy + Sy)[0]
    print(f"  trial {trial}: min eig(D - S) = {lo:+.2e}, "
          f"min eig(D + S) = {hi:+.2e}")

print()
print("=" * 70)
print("3. Cauchy-Schwarz bound, for all vectors at once")
print("=" * 70)


def gram(Y, Z):
    """G = [[diag(YY*), Y [] Z], [(Y [] Z)*, diag(Z*Z)]]."""
    M = flatten(schur_block_product(Y, Z))
    return np.block([[flatten(diag_block(block_matmul(Y, adjoint_block(Y)))), M],
                     [M.conj().T, flatten(diag_block(block_matmul(adjoint_block(Z), Z)))]])


G = gram(A, B)
print("G =\n", G.real)
print("eigenvalues of G:", np.linalg.eigvalsh(G))
print()
print("Equality case: the identity pair, G = [[I, I], [I, I]], is singular.")
I2 = block_identity(2, 2)
print("  eigenvalues of G:", np.linalg.eigvalsh(gram(I2, I2)))
print()
print("Random block instances, smallest eigenvalue of G:")
for trial in range(5):
    Y = sample_block_matrix(rng, 4, 2)
    Z = sample_block_matrix(rng, 4, 2)
    print(f"  trial {trial}: min eig(G) = {np.linalg.eigvalsh(gram(Y, Z))[0]:+.2e}")

print()
print("=" * 70)
print("The suite's named claims on one random pair, each judged alone")
print("=" * 70)
Y, Z = sample_block_matrix(rng, 4, 2), sample_block_matrix(rng, 4, 2)
for check, args in ((verify_livshits, (Y, Z)), (verify_sharpness, (Y,)),
                    (verify_sandwich, (Y,)), (verify_cauchy_schwarz, (Y, Z))):
    for name, claim in check(*args).items():
        print(f"  {check.__name__}: {name} ({claim[0]}) residual = "
              f"{worst_residual({name: claim}):.3e}")
