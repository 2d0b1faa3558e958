"""Checkers for the identities and inequalities obeyed by the Schur block product.

Each checker runs one instance and returns a PropertyResult with trials=1.
Residuals are relative with an absolute floor of 1e-12: identity checks
divide the deviation norm by max(1, ||reference||), inequality checks
divide the violation by the right-hand side. A result passes when its
residual is at or below the tolerance, and ``merge_results`` folds
per-trial results into suite aggregates (sums of counts, max of
residuals), which is order-independent. ``PROPERTIES`` is the one list
of the nine properties: each id's default tolerance, the instance pieces
it needs, and the call that runs its checker; ``run_property`` dispatches
through it and the CLI derives its flags and validation from it.

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

    ``check(x, tol, system, seed)`` runs the checker on the instance
    mapping x, keyed like the instance file (A, B, xi, gamma); ``needs``
    names the keys it must have. It reaches ``verify_<id>`` through its
    module-level name at call time, so a wrapper installed on that name (a
    profiler, a tracer) sees every call.
    """

    tol: float
    needs: tuple
    check: Callable


PROPERTIES = {
    "factorization": Property(1e-10, ("A", "B"), lambda x, tol, system, seed: (
        verify_factorization(x["A"], x["B"], tol, system=system, seed=seed))),
    "structure": Property(1e-12, ("A", "B"), lambda x, tol, system, seed: (
        verify_structure(x["A"], x["B"], tol, system=system, seed=seed))),
    "livshits": Property(1e-8, ("A", "B"), lambda x, tol, system, seed: (
        verify_livshits(x["A"], x["B"], tol, seed=seed))),
    "sharpness": Property(1e-8, ("A",), lambda x, tol, system, seed: (
        verify_sharpness(x["A"], tol, seed=seed))),
    "sandwich": Property(1e-10, ("A",), lambda x, tol, system, seed: (
        verify_sandwich(x["A"], tol, seed=seed))),
    "cauchy_schwarz": Property(
        1e-8, ("A", "B", "xi", "gamma"), lambda x, tol, system, seed: (
            verify_cauchy_schwarz(x["A"], x["B"], x["xi"], x["gamma"], tol,
                                  seed=seed))),
    "decomposition": Property(1e-10, ("A", "B"), lambda x, tol, system, seed: (
        verify_decomposition(x["A"], x["B"], tol, system=system, seed=seed))),
    "norm_lemmas": Property(1e-8, ("A",), lambda x, tol, system, seed: (
        verify_norm_lemmas(x["A"], tol, system=system, seed=seed))),
    "cb_level": Property(1e-8, ("A", "B"), lambda x, tol, system, seed: (
        verify_cb_level(x["A"], x["B"], tol, seed=seed))),
}

# the two right-hand-side routes in the Cauchy-Schwarz checker must agree
# to this relative tolerance regardless of the inequality tolerance
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


def _single(pid: str, residual: float, tol: float, seed: int) -> PropertyResult:
    return PropertyResult(
        property_id=pid,
        trials=1,
        failures=0 if residual <= tol else 1,
        worst_residual=float(residual),
        worst_seed=seed,
        tolerance_used=tol,
    )


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


def verify_factorization(a: BlockMatrix, b: BlockMatrix,
                         tol: float = PROPERTIES["factorization"].tol, *,
                         system: StinespringSystem | None = None,
                         seed: int = 0) -> PropertyResult:
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
    return _single("factorization", residual, tol, seed)


def verify_structure(a: BlockMatrix, b: BlockMatrix,
                     tol: float = PROPERTIES["structure"].tol, *,
                     system: StinespringSystem | None = None,
                     seed: int = 0) -> PropertyResult:
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
    return _single("structure", max(residuals), tol, seed)


def _livshits_violation(a: BlockMatrix, b: BlockMatrix) -> float:
    """How far ||A [] B|| exceeds row_norm(A) * col_norm(B), relative to it."""
    _check_same_shape(a, b)
    lhs = spectral_norm(flatten(schur_block_product(a, b)))
    rhs = row_norm(a) * col_norm(b)
    return max(0.0, lhs - rhs) / max(rhs, ABS_FLOOR)


def verify_livshits(a: BlockMatrix, b: BlockMatrix,
                    tol: float = PROPERTIES["livshits"].tol, *,
                    seed: int = 0) -> PropertyResult:
    """||A [] B|| <= row_norm(A) * col_norm(B)."""
    return _single("livshits", _livshits_violation(a, b), tol, seed)


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


def verify_sharpness(x: BlockMatrix,
                     tol: float = PROPERTIES["sharpness"].tol, *,
                     seed: int = 0) -> PropertyResult:
    """Row norms recovered through [] match direct block-row norms, every row."""
    residual = 0.0
    recovered = []
    for k in range(x.n):
        via = row_norm_via_schur(x, k)
        direct = _block_row_norm(x, k)
        recovered.append(via)
        residual = max(residual, abs(via - direct) / max(direct, ABS_FLOOR))
    rn = row_norm(x)
    residual = max(residual, abs(max(recovered) - rn) / max(rn, ABS_FLOOR))
    return _single("sharpness", residual, tol, seed)


def verify_sandwich(a: BlockMatrix,
                    tol: float = PROPERTIES["sandwich"].tol, *,
                    seed: int = 0) -> PropertyResult:
    """-diag(A*A) <= A* [] A <= diag(A*A) in the PSD order."""
    star = adjoint_block(a)
    s = flatten(schur_block_product(star, a))
    dmat = flatten(diag_block(block_matmul(star, a)))
    # both gaps are Hermitian up to rounding by the adjoint law; the
    # min-eig routine gates on that and symmetrizes
    lo = hermitian_min_eig(dmat - s, tol=1e-8)
    hi = hermitian_min_eig(dmat + s, tol=1e-8)
    deficit = max(0.0, -lo, -hi)
    residual = deficit / max(spectral_norm(dmat), ABS_FLOOR)
    return _single("sandwich", residual, tol, seed)


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


def verify_cauchy_schwarz(a: BlockMatrix, b: BlockMatrix, xi, gamma,
                          tol: float = PROPERTIES["cauchy_schwarz"].tol, *,
                          seed: int = 0) -> PropertyResult:
    """|<(A [] B) xi, gamma>| <= ||diag(B*B)^(1/2) xi|| ||diag(AA*)^(1/2) gamma||.

    Also recomputes the right-hand side by direct summation and requires
    the two routes to agree to RHS_AGREEMENT_TOL; that sub-residual is
    scaled into the same pass threshold, so the result fails whenever
    either the inequality or the route agreement does.
    """
    _check_same_shape(a, b)
    dim = a.n * a.d
    xi = np.asarray(xi, dtype=np.complex128)
    gamma = np.asarray(gamma, dtype=np.complex128)
    if xi.shape != (dim,) or gamma.shape != (dim,):
        raise ShapeError(
            f"vectors must have length n*d = {dim}, got {xi.shape} and {gamma.shape}"
        )
    lhs = abs(np.vdot(gamma, flatten(schur_block_product(a, b)) @ xi))
    rhs_diag, rhs_sum = cauchy_schwarz_rhs_routes(a, b, xi, gamma)
    ineq_residual = max(0.0, lhs - rhs_diag) / (1.0 + rhs_diag)
    route_gap = abs(rhs_diag - rhs_sum) / max(rhs_diag, ABS_FLOOR)
    residual = max(ineq_residual, route_gap * (tol / RHS_AGREEMENT_TOL))
    return _single("cauchy_schwarz", residual, tol, seed)


def verify_decomposition(a: BlockMatrix, b: BlockMatrix,
                         tol: float = PROPERTIES["decomposition"].tol, *,
                         system: StinespringSystem | None = None,
                         seed: int = 0) -> PropertyResult:
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
    return _single("decomposition", max(residuals), tol, seed)


def verify_norm_lemmas(a: BlockMatrix,
                       tol: float = PROPERTIES["norm_lemmas"].tol, *,
                       system: StinespringSystem | None = None,
                       seed: int = 0) -> PropertyResult:
    """col_norm(A) = ||lambda(A) V|| and row_norm(A) = ||V* lambda(A)||."""
    sys_ = _system_for(a, system)
    la = build_lambda(a)
    cn, rn = col_norm(a), row_norm(a)
    residual = max(
        abs(cn - spectral_norm(la @ sys_.V)) / max(cn, ABS_FLOOR),
        abs(rn - spectral_norm(sys_.V.conj().T @ la)) / max(rn, ABS_FLOOR),
    )
    return _single("norm_lemmas", residual, tol, seed)


def verify_cb_level(a: BlockMatrix, b: BlockMatrix,
                    tol: float = PROPERTIES["cb_level"].tol, *,
                    seed: int = 0) -> PropertyResult:
    """Complete boundedness at level k: the Livshits bound of a level-k pair.

    The level-k lift is the Schur block product at block size k*d, so A
    and B are a pair regrouped by ``blocks.regroup_lift``.
    """
    return _single("cb_level", _livshits_violation(a, b), tol, seed)


# ---------------------------------------------------------------------------
# Dispatch used by the suite runner and replay
# ---------------------------------------------------------------------------


def run_property(property_id: str, x, *, tol: float | None = None,
                 system: StinespringSystem | None = None,
                 seed: int = 0) -> PropertyResult:
    """Run one named property on the instance mapping x (see ``Property``)."""
    if property_id not in PROPERTIES:
        raise ValueError(f"unknown property {property_id!r}")
    prop = PROPERTIES[property_id]
    for what in prop.needs:
        if what not in x:
            raise ValueError(f"property {property_id!r} needs {what}")
    return prop.check(x, prop.tol if tol is None else tol, system, seed)
