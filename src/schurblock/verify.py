"""Checkers for the identities and inequalities obeyed by the Schur block product.

Each checker measures one instance and returns its residual as a float;
only ``run_property`` judges: the residual passes at or below the
tolerance, and it wraps the outcome in a PropertyResult with trials=1.
Residuals are relative: matrix identities divide the deviation norm by
max(1, ||reference||) (``identity_residual``), scalar equalities divide
the gap by the reference (``_gap``), and bounds divide the excess over
the right-hand side by it (``_excess``), both with the absolute floor
``ABS_FLOOR`` = 1e-12. ``merge_results`` folds per-trial results into
suite aggregates (sums of counts, max of residuals), which is
order-independent. ``PROPERTIES`` is the one list of the nine
properties: each id's default tolerance, the instance pieces it needs,
and the call that runs its checker; ``run_property`` dispatches through
it and the CLI derives its flags and validation from it.

The laws of the fixed operators V, F and Q do not depend on the
instance. They are checked exactly once per StinespringSystem object, on
its index arrays and on first use, and ``structure`` and
``decomposition`` fold that stored value into each trial's max, so a
broken system still fails every trial. Those two checkers apply the 0/1
operators V, F, Q and P = (F + I)/2 by index (``system.v_rows``,
``system.f_perm``), the form the system is defined by;
``factorization`` and ``norm_lemmas`` multiply by the dense V and F
scattered from those arrays, so they state the paper's identities
literally and tie the index route back to the matrices. An identity whose
two sides agree bit for bit costs no SVD: an exactly zero difference is a
residual of 0.0, which is what its norm would give. So only identities
that can carry rounding (factorization, the Q lambda rho Q identity, the
decomposition sum) pay for spectral norms.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .blocks import (
    BlockMatrix,
    _check_same_shape,
    adjoint_block,
    block_matmul,
    col_norm,
    diag_block,
    flatten,
    row_norm,
    schur_block_product,
)
from .errors import ShapeError
from .linalg import (
    ABS_FLOOR,
    hermitian_min_eig,
    identity_residual,
    psd_sqrt,
    spectral_norm,
)
from .stinespring import (
    StinespringSystem,
    build_lambda,
    build_rho,
    build_sigma,
)


class Property(NamedTuple):
    """One row of PROPERTIES: default tolerance, needed inputs, checker call.

    ``check(x, system)`` returns the checker's residual on the instance
    mapping x, keyed like the instance file (A, B, xi, gamma); ``needs``
    names the keys it must have. It reaches ``verify_<id>`` through its
    module-level name at call time, so a wrapper installed on that name (a
    profiler, a tracer) sees every call.
    """

    tol: float
    needs: tuple
    check: Callable


PROPERTIES = {
    "factorization": Property(1e-10, ("A", "B"), lambda x, system: (
        verify_factorization(x["A"], x["B"], system=system))),
    "structure": Property(1e-12, ("A", "B"), lambda x, system: (
        verify_structure(x["A"], x["B"], system=system))),
    "livshits": Property(1e-8, ("A", "B"), lambda x, system: (
        verify_livshits(x["A"], x["B"]))),
    "sharpness": Property(1e-8, ("A",), lambda x, system: (
        verify_sharpness(x["A"]))),
    "sandwich": Property(1e-10, ("A",), lambda x, system: (
        verify_sandwich(x["A"]))),
    "cauchy_schwarz": Property(1e-8, ("A", "B", "xi", "gamma"), lambda x, system: (
        verify_cauchy_schwarz(x["A"], x["B"], x["xi"], x["gamma"]))),
    "decomposition": Property(1e-10, ("A", "B"), lambda x, system: (
        verify_decomposition(x["A"], x["B"], system=system))),
    "norm_lemmas": Property(1e-8, ("A",), lambda x, system: (
        verify_norm_lemmas(x["A"], system=system))),
    "cb_level": Property(1e-8, ("A", "B"), lambda x, system: (
        verify_cb_level(x["A"], x["B"]))),
}

# at the default cauchy_schwarz tolerance, the checker's two right-hand-side
# routes must agree to this relative tolerance; at tolerance T, to T/100
RHS_AGREEMENT_TOL = 1e-10


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of running one property over one or more trials."""

    property_id: str
    trials: int
    failures: int
    worst_residual: float
    worst_seed: int
    tolerance_used: float

    def __post_init__(self):
        if self.failures > self.trials:
            raise ValueError("failures cannot exceed trials")
        if self.worst_residual < 0:
            raise ValueError("worst_residual must be nonnegative")
        if self.trials > 0 and (self.failures == 0) != (
            self.worst_residual <= self.tolerance_used
        ):
            raise ValueError(
                "inconsistent result: failures == 0 must match "
                "worst_residual <= tolerance_used"
            )

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def as_dict(self) -> dict:
        return asdict(self)


def merge_results(results) -> PropertyResult:
    """Fold per-trial results for one property into a single aggregate."""
    results = list(results)
    if not results:
        raise ValueError("nothing to merge")
    pid = results[0].property_id
    tol = results[0].tolerance_used
    if any(r.property_id != pid or r.tolerance_used != tol for r in results):
        raise ValueError("can only merge results of one property at one tolerance")
    worst = max(results, key=lambda r: r.worst_residual)
    return PropertyResult(
        property_id=pid,
        trials=sum(r.trials for r in results),
        failures=sum(r.failures for r in results),
        worst_residual=worst.worst_residual,
        worst_seed=worst.worst_seed,
        tolerance_used=tol,
    )


def _gap(x: float, ref: float) -> float:
    """How far the scalar x misses ref, relative to ref."""
    return abs(x - ref) / max(ref, ABS_FLOOR)


def _excess(lhs: float, rhs: float) -> float:
    """How far lhs exceeds the bound rhs, relative to rhs; 0.0 within it."""
    return max(0.0, lhs - rhs) / max(rhs, ABS_FLOOR)


def _system_for(a: BlockMatrix, system: StinespringSystem | None) -> StinespringSystem:
    if system is None:
        return StinespringSystem.build(a.n, a.d)
    if (system.n, system.d) != (a.n, a.d):
        raise ShapeError(
            f"system built for (n={system.n}, d={system.d}) does not match "
            f"instance (n={a.n}, d={a.d})"
        )
    return system


def _embed(x: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape) -> np.ndarray:
    """The zero matrix of ``shape`` with x at ``rows`` by ``cols``.

    With r = system.v_rows, V x is _embed(x, r, all columns) and V x V* is
    _embed(x, r, r).
    """
    out = np.zeros(shape, dtype=np.complex128)
    out[np.ix_(rows, cols)] = x
    return out


def verify_factorization(a: BlockMatrix, b: BlockMatrix, *,
                         system: StinespringSystem | None = None) -> float:
    """flatten(A [] B) = V* lambda(A) F lambda(B) V, and the rho form."""
    _check_same_shape(a, b)
    sys_ = _system_for(a, system)
    target = flatten(schur_block_product(a, b))
    la, lb = build_lambda(a), build_lambda(b)
    vh = sys_.V.conj().T
    via_flip = vh @ la @ sys_.F @ lb @ sys_.V
    via_rho = vh @ la @ build_rho(b) @ sys_.V
    # both routes share the ||target|| denominator; a route that matches
    # target bit for bit contributes 0.0 without an SVD
    gaps = [g for g in (target - via_flip, target - via_rho) if g.any()]
    residual = 0.0
    if gaps:
        denom = max(1.0, spectral_norm(target))
        residual = max(spectral_norm(g) for g in gaps) / denom
    return residual


def verify_structure(a: BlockMatrix, b: BlockMatrix, *,
                     system: StinespringSystem | None = None) -> float:
    """Exactness of the fixed operators and the representation identities.

    Covers V*V = I, F self-adjoint and involutive, FV = V,
    sigma(I) = Q, F lambda(A) F = rho(A), sigma(A) V = V flatten(A),
    Q lambda(A) rho(B) Q = sigma(A [] B), and the diagonal compression
    flatten(diag(A)) = V* lambda(A) V. V, F and Q = VV* are applied by
    index through ``system.v_rows`` and ``system.f_perm``; the
    instance-independent identities come from
    ``system.operator_residual``, checked once per system object.
    """
    _check_same_shape(a, b)
    sys_ = _system_for(a, system)
    r, f = sys_.v_rows, sys_.f_perm
    la = build_lambda(a)
    big, nd = la.shape[0], r.size
    residuals = [
        sys_.operator_residual,
        identity_residual(la[np.ix_(f, f)], build_rho(a)),
        identity_residual(build_sigma(a)[:, r],
                          _embed(flatten(a), r, np.arange(nd), (big, nd))),
        # Q M Q = V (V* M V) V*
        identity_residual(_embed((la[r] @ build_rho(b))[:, r], r, r, (big, big)),
                          build_sigma(schur_block_product(a, b))),
        identity_residual(flatten(diag_block(a)), la[np.ix_(r, r)]),
    ]
    return max(residuals)


def _livshits_violation(a: BlockMatrix, b: BlockMatrix) -> float:
    """How far ||A [] B|| exceeds row_norm(A) * col_norm(B), relative to it."""
    _check_same_shape(a, b)
    lhs = spectral_norm(flatten(schur_block_product(a, b)))
    return _excess(lhs, row_norm(a) * col_norm(b))


def verify_livshits(a: BlockMatrix, b: BlockMatrix) -> float:
    """||A [] B|| <= row_norm(A) * col_norm(B)."""
    return _livshits_violation(a, b)


def row_norm_via_schur(x: BlockMatrix, k: int) -> float:
    """Norm of block row k of X, recovered through the Schur block product.

    Multiplies X slotwise by the indicator matrix whose row k holds I_d and
    which vanishes elsewhere; the operator norm of the result is exactly
    the norm of the k-th block row, and the max over k is row_norm(X).
    """
    if not 0 <= k < x.n:
        raise IndexError(f"row index {k} out of range for n={x.n}")
    y = np.zeros((x.n, x.n, x.d, x.d), dtype=np.complex128)
    y[k, :] = np.eye(x.d)
    indicator = BlockMatrix(n=x.n, d=x.d, blocks=y)
    return spectral_norm(flatten(schur_block_product(x, indicator)))


def _block_row_norm(x: BlockMatrix, k: int) -> float:
    """Direct oracle: spectral norm of the d-by-(n*d) strip of row k."""
    strip = x.blocks[k].transpose(1, 0, 2).reshape(x.d, x.n * x.d)
    return spectral_norm(strip)


def verify_sharpness(x: BlockMatrix) -> float:
    """Row norms recovered through [] match direct block-row norms, every row."""
    residual = 0.0
    recovered = []
    for k in range(x.n):
        via = row_norm_via_schur(x, k)
        direct = _block_row_norm(x, k)
        recovered.append(via)
        residual = max(residual, _gap(via, direct))
    return max(residual, _gap(max(recovered), row_norm(x)))


def verify_sandwich(a: BlockMatrix) -> float:
    """-diag(A*A) <= A* [] A <= diag(A*A) in the PSD order."""
    star = adjoint_block(a)
    s = flatten(schur_block_product(star, a))
    dmat = flatten(diag_block(block_matmul(star, a)))
    # both gaps are Hermitian up to rounding by the adjoint law; the
    # min-eig routine gates on that and symmetrizes
    lo = hermitian_min_eig(dmat - s, tol=1e-8)
    hi = hermitian_min_eig(dmat + s, tol=1e-8)
    deficit = max(0.0, -lo, -hi)
    return deficit / max(spectral_norm(dmat), ABS_FLOOR)


def cauchy_schwarz_rhs_routes(a: BlockMatrix, b: BlockMatrix,
                              xi: np.ndarray, gamma: np.ndarray) -> tuple[float, float]:
    """The bound's right-hand side computed two independent ways.

    Route one applies per-block PSD square roots of diag(B*B) and diag(AA*)
    to the vectors; route two accumulates sum ||b_ij xi_j||^2 and
    sum ||a_ij* gamma_i||^2 directly.
    """
    n, d = a.n, a.d
    xi = np.asarray(xi, dtype=np.complex128).reshape(n, d)
    gamma = np.asarray(gamma, dtype=np.complex128).reshape(n, d)

    bsb = block_matmul(adjoint_block(b), b)
    aas = block_matmul(a, adjoint_block(a))
    left_sq = sum(
        float(np.linalg.norm(psd_sqrt(bsb.blocks[j, j]) @ xi[j]) ** 2)
        for j in range(n)
    )
    right_sq = sum(
        float(np.linalg.norm(psd_sqrt(aas.blocks[i, i]) @ gamma[i]) ** 2)
        for i in range(n)
    )
    rhs_diag = float(np.sqrt(left_sq) * np.sqrt(right_sq))

    sum_b = sum(
        float(np.linalg.norm(b.blocks[i, j] @ xi[j]) ** 2)
        for i in range(n) for j in range(n)
    )
    sum_a = sum(
        float(np.linalg.norm(a.blocks[i, j].conj().T @ gamma[i]) ** 2)
        for i in range(n) for j in range(n)
    )
    rhs_sum = float(np.sqrt(sum_b) * np.sqrt(sum_a))
    return rhs_diag, rhs_sum


def verify_cauchy_schwarz(a: BlockMatrix, b: BlockMatrix, xi, gamma) -> float:
    """|<(A [] B) xi, gamma>| <= ||diag(B*B)^(1/2) xi|| ||diag(AA*)^(1/2) gamma||.

    Also recomputes the right-hand side by direct summation. The gap
    between the two routes is weighted by the default tolerance over
    RHS_AGREEMENT_TOL (100), so at the default tolerance the residual
    fails whenever either the inequality or the 1e-10 route agreement
    does, and it does not depend on the tolerance it is judged at.
    """
    _check_same_shape(a, b)
    dim = a.n * a.d
    xi = np.asarray(xi, dtype=np.complex128)
    gamma = np.asarray(gamma, dtype=np.complex128)
    if xi.shape != (dim,) or gamma.shape != (dim,):
        raise ShapeError(
            f"vectors must have length n*d = {dim}, got {xi.shape} and {gamma.shape}"
        )
    lhs = float(abs(np.vdot(gamma, flatten(schur_block_product(a, b)) @ xi)))
    rhs_diag, rhs_sum = cauchy_schwarz_rhs_routes(a, b, xi, gamma)
    route_gap = _gap(rhs_sum, rhs_diag)
    return max(_excess(lhs, rhs_diag),
               route_gap * (PROPERTIES["cauchy_schwarz"].tol / RHS_AGREEMENT_TOL))


def verify_decomposition(a: BlockMatrix, b: BlockMatrix, *,
                         system: StinespringSystem | None = None) -> float:
    """Difference-of-positive-parts form and the absolute-value identity.

    With P = (F + I)/2, an orthogonal projection since F = F* = F^-1:
    flatten(A [] B) equals V* lambda(A) P lambda(B) V minus
    V* lambda(A) (I - P) lambda(B) V, and V* lambda(AB) V equals
    flatten(diag(AB)). V and P are applied by index, X P = (X + XF)/2 with
    XF = X[:, f_perm]; the laws of V and F come from
    ``system.operator_residual``, checked once per system object.
    """
    _check_same_shape(a, b)
    sys_ = _system_for(a, system)
    r, f = sys_.v_rows, sys_.f_perm
    vla = build_lambda(a)[r]
    vlaf = vla[:, f]
    lb = build_lambda(b)

    target = flatten(schur_block_product(a, b))
    plus = (((vla + vlaf) / 2) @ lb)[:, r]
    minus = (((vla - vlaf) / 2) @ lb)[:, r]
    prod = block_matmul(a, b)
    residuals = [
        sys_.operator_residual,
        identity_residual(plus - minus, target),
        identity_residual(build_lambda(prod)[np.ix_(r, r)],
                          flatten(diag_block(prod))),
    ]
    return max(residuals)


def verify_norm_lemmas(a: BlockMatrix, *,
                       system: StinespringSystem | None = None) -> float:
    """col_norm(A) = ||lambda(A) V|| and row_norm(A) = ||V* lambda(A)||."""
    sys_ = _system_for(a, system)
    la = build_lambda(a)
    cn, rn = col_norm(a), row_norm(a)
    return max(_gap(spectral_norm(la @ sys_.V), cn),
               _gap(spectral_norm(sys_.V.conj().T @ la), rn))


def verify_cb_level(a: BlockMatrix, b: BlockMatrix) -> float:
    """Complete boundedness at level k: the Livshits bound of a level-k pair.

    The level-k lift is the Schur block product at block size k*d, so A
    and B are a pair regrouped by ``blocks.regroup_lift``.
    """
    return _livshits_violation(a, b)


# ---------------------------------------------------------------------------
# Dispatch used by the suite runner and replay
# ---------------------------------------------------------------------------


def run_property(property_id: str, x, *, tol: float | None = None,
                 system: StinespringSystem | None = None,
                 seed: int = 0) -> PropertyResult:
    """Run one named property on the instance mapping x and judge it.

    The checker's residual (see ``Property``) passes at or below tol, by
    default the property's own; the one-trial result records seed as
    its ``worst_seed``.
    """
    if property_id not in PROPERTIES:
        raise ValueError(f"unknown property {property_id!r}")
    prop = PROPERTIES[property_id]
    for what in prop.needs:
        if what not in x:
            raise ValueError(f"property {property_id!r} needs {what}")
    tol = prop.tol if tol is None else tol
    residual = prop.check(x, system)
    return PropertyResult(
        property_id=property_id,
        trials=1,
        failures=0 if residual <= tol else 1,
        worst_residual=residual,
        worst_seed=seed,
        tolerance_used=tol,
    )
