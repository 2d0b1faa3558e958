#!/usr/bin/env python3
"""Tour of block matrices and the Schur block product.

Builds a few small block matrices, multiplies them slotwise, and shows the
two facts that make the block case interesting: the product is no longer
commutative once blocks stop commuting, and its unit is the all-identity
matrix rather than the ordinary identity.
"""

import numpy as np

from schurblock import (
    block_identity,
    block_matrix,
    col_norm,
    flatten,
    row_norm,
    schur_block_product,
    schur_unit,
    unflatten,
    zero_block_matrix,
)

print("=" * 70)
print("Scalar case (d = 1): the classical entrywise product")
print("=" * 70)

A = unflatten(np.array([[1.0, 2.0], [3.0, 4.0]]), n=2, d=1)
B = unflatten(np.array([[5.0, 6.0], [7.0, 8.0]]), n=2, d=1)
AB = schur_block_product(A, B)
print("A =\n", flatten(A).real)
print("B =\n", flatten(B).real)
print("A [] B (entrywise) =\n", flatten(AB).real)

print()
print("Row norm of A:", row_norm(A), " (max row length: sqrt(1+4), sqrt(9+16))")
print("Col norm of B:", col_norm(B), " (max col length: sqrt(25+49), sqrt(36+64))")

print()
print("=" * 70)
print("Block case (d = 2): noncommutativity appears")
print("=" * 70)

# one nonzero slot holding the nilpotent pair x, y with xy != yx
x = np.array([[0.0, 1.0], [0.0, 0.0]])
y = np.array([[0.0, 0.0], [1.0, 0.0]])
blocks_a = np.zeros((2, 2, 2, 2))
blocks_b = np.zeros((2, 2, 2, 2))
blocks_a[0, 1] = x
blocks_b[0, 1] = y
Ablk = block_matrix(blocks_a)
Bblk = block_matrix(blocks_b)

print("slot (0,1) of A [] B:\n", schur_block_product(Ablk, Bblk).blocks[0, 1].real)
print("slot (0,1) of B [] A:\n", schur_block_product(Bblk, Ablk).blocks[0, 1].real)
print("The two products differ: xy = diag(1,0) while yx = diag(0,1).")
print("A [] A is zero though A is not (x^2 = 0), which no d = 1 matrix allows:",
      schur_block_product(Ablk, Ablk) == zero_block_matrix(2, 2))

print()
print("=" * 70)
print("Units")
print("=" * 70)

E = schur_unit(2, 2)
I = block_identity(2, 2)
print("E (every slot I_2) satisfies E [] E == E:",
      schur_block_product(E, E) == E)
print("I [] I == I as well (diagonal slots multiply):",
      schur_block_product(I, I) == I)
print("but E [] A returns A while I [] A only keeps the diagonal of A.")
print("E [] A == A:", schur_block_product(E, Ablk) == Ablk)
