#!/usr/bin/env python3
"""Complete boundedness: the Livshits bound holds at every level.

The level-k lift multiplies k-by-k grids of (n, d) block matrices with the
Schur block product as entry multiplication: entry (p, q) of the product
is sum_l a_pl [] b_lq. A grid is one BlockMatrix stacked over (k, k).
M_k(M_n(M_d)) regroups as M_n(M_kd), and under that regrouping the lift
is the plain Schur block product at block size k*d. So level k obeys the Livshits bound
||A_k [] B_k|| <= row_norm(A_k) col_norm(B_k) of the regrouped pair,
random draws stay below it, and the lifted identity and the Schur unit
reach it exactly.
"""

import numpy as np

from schurblock import (
    PROPERTIES,
    BlockMatrix,
    block_identity,
    col_norm,
    flatten,
    lift_schur_k,
    regroup_lift,
    row_norm,
    sample_lift,
    schur_block_product,
    schur_unit,
    spectral_norm,
    verify_cb_level,
    worst_residual,
)

rng = np.random.default_rng(11)
n, d = 3, 2


def lhs_over_rhs(a, b):
    """||A [] B|| / (row_norm(A) col_norm(B)): 1 means the bound is reached."""
    return spectral_norm(flatten(schur_block_product(a, b))) / (
        row_norm(a) * col_norm(b))


print("=" * 70)
print("The lift is the Schur block product at block size k*d")
print("=" * 70)
k = 2
a, b = sample_lift(rng, k, n, d), sample_lift(rng, k, n, d)
lifted = lift_schur_k(a, b)
regrouped = schur_block_product(regroup_lift(a), regroup_lift(b))
for p in range(k):
    for q in range(k):
        # lift entry (p, q), sum_l a_pl [] b_lq, sits in the d-by-d
        # sub-blocks (p, q) of the regrouped product's slots
        gap = np.abs(regrouped.blocks[:, :, p * d:(p + 1) * d, q * d:(q + 1) * d]
                     - lifted.blocks[p, q]).max()
        print(f"  k = {k}, lift entry ({p}, {q}): max deviation {gap:.1e}")

print()
print("=" * 70)
print(f"Random lifted instances at (n, d) = ({n}, {d})")
print("=" * 70)
for k in (1, 2, 3):
    ratios = []
    for _ in range(200):
        a = regroup_lift(sample_lift(rng, k, n, d))
        b = regroup_lift(sample_lift(rng, k, n, d))
        # the level-k claim, "bound", judged as the suite judges it
        assert worst_residual(verify_cb_level(a, b)) <= PROPERTIES["cb_level"].tol
        ratios.append(lhs_over_rhs(a, b))
    print(f"  k = {k}: closest approach over 200 draws = {max(ratios):.6f} "
          f"(mean {np.mean(ratios):.4f})")

print()
print("=" * 70)
print("Saturation: where lhs/rhs hits 1")
print("=" * 70)
identity = block_identity(n, d)
for k in (1, 2, 3):
    lifted_identity = regroup_lift(
        BlockMatrix(n, d, np.multiply.outer(np.eye(k), identity.blocks)))
    unit = schur_unit(n, k * d)
    print(f"  k = {k}: lifted ordinary identity "
          f"{lhs_over_rhs(lifted_identity, lifted_identity):.15f}, "
          f"Schur unit {lhs_over_rhs(unit, unit):.15f}")

print()
print("The unit E of the slotwise product (every slot I) has E [] E = E and")
print("||E|| = n = row_norm(E) col_norm(E), so it reaches the bound at every n.")
