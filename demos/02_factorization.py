#!/usr/bin/env python3
"""The explicit factorization A [] B = V* lambda(A) F lambda(B) V.

Walks through the triple tensor space construction at n = 2, d = 1, where
every operator is small enough to print: the isometry V duplicating the
outer index, the flip F exchanging the outer legs, the projection
Q = VV*, and the left representation lambda. Then checks the identity on
random instances at a larger size.
"""

import numpy as np

from schurblock import (
    StinespringSystem,
    build_lambda,
    build_rho,
    build_sigma,
    flatten,
    sample_block_matrix,
    schur_block_product,
    spectral_norm,
    unflatten,
)

np.set_printoptions(precision=4, suppress=True, linewidth=100)

print("=" * 70)
print("The cast at (n, d) = (2, 1): everything lives on C^2 (x) C^1 (x) C^2")
print("=" * 70)

sys21 = StinespringSystem.build(2, 1)
print("V (duplicates the outer index, (j) -> (j, j)):\n", sys21.V.real)
print("F (swaps the outer legs):\n", sys21.F.real)
print("Q = V V* (projection onto the duplicated-index subspace):\n", sys21.Q.real)

A = unflatten(np.array([[1.0, 2.0], [3.0, 4.0]]), 2, 1)
B = unflatten(np.array([[5.0, 6.0], [7.0, 8.0]]), 2, 1)
lamA = build_lambda(A)
lamB = build_lambda(B)
print("lambda(A) = A (x) I_2:\n", lamA.real)

lhs = flatten(schur_block_product(A, B))
rhs = sys21.V.conj().T @ lamA @ sys21.F @ lamB @ sys21.V
print("A [] B  =\n", lhs.real)
print("V* lambda(A) F lambda(B) V =\n", rhs.real)

print()
print("Two equivalent routes to the same compression:")
rho_form = sys21.V.conj().T @ lamA @ build_rho(B) @ sys21.V
print("  V* lambda(A) rho(B) V        ->", np.allclose(rhs, rho_form))
sigma_form = sys21.Q @ (lamA @ build_rho(B)) @ sys21.Q
print("  Q lambda(A) rho(B) Q == sigma(A [] B) ->",
      np.allclose(sigma_form, build_sigma(schur_block_product(A, B))))

print()
print("=" * 70)
print("Residuals on random instances at (n, d) = (4, 3)")
print("=" * 70)

rng = np.random.default_rng(2024)
sys43 = StinespringSystem.build(4, 3)
for trial in range(5):
    X = sample_block_matrix(rng, 4, 3)
    Y = sample_block_matrix(rng, 4, 3)
    target = flatten(schur_block_product(X, Y))
    via = (sys43.V.conj().T @ build_lambda(X) @ sys43.F
           @ build_lambda(Y) @ sys43.V)
    res = spectral_norm(via - target) / spectral_norm(target)
    print(f"  trial {trial}: relative residual = {res:.3e}")
