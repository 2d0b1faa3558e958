"""Checkers for the identities and inequalities obeyed by the Schur block product.

Each checker, ``verify_<id>``, returns its named claims,
``{name: (relation, *sides)}``, and judges none of them; only
``run_property`` compares residuals with a tolerance. A checker is
written on stacks of trials: its BlockMatrix arguments may carry a
leading trial axis (blocks of shape (T, n, n, d, d)), each kernel runs
once for the whole stack (one batched @, cholesky, svd or eigvalsh), and
each side holds one value or matrix per trial, or per trial and row. A
single instance is the batch-of-one case of the same code. Trial t's
residual is, bit for bit, the one its instance gives alone: a batched
LAPACK or BLAS call makes the same call per matrix, and every sum runs in
one fixed order whatever the stack.

One judge, ``_residual``, alone turns a claim into its residual, by the
rule of the claim's relation (``_RULES``): ``equal`` for matrix sides,
||lhs - rhs|| over ||lhs||; ``same`` for per-trial values, |lhs - rhs|
over lhs; ``at_most`` for a norm bound ||X|| <= R, the excess over R
relative to R; ``psd`` for a PSD order, how far a smallest eigenvalue
falls below 0 relative to a reference. Each divides by ``linalg.ratio``,
with no floor, and takes a reference norm only where the deviation is
nonzero. One fold, ``worst_residual``, judges each claim of a checker
and keeps, per trial, the largest residual over its rows and its claims,
with NaN the largest, so a NaN residual stays NaN and fails.
``run_property`` judges a whole stack, which the suite feeds it one
chunk of trials at a time: a residual passes at or below the tolerance,
and the chunk's PropertyResult counts the trials that do not and keeps
the first largest residual in trial order; ``merge_results`` folds the
chunks (sums of counts, the first largest residual). Once per process,
before the first property runs, the judge judges planted claims, one
that its rule must fail and one that it must pass per relation
(``_check_judge``); a wrong verdict raises ``JudgeError``, so a run whose
judge could not fail gives no report.

Every property is homogeneous in each input, so ``run_property`` judges
each input of each trial scaled by a power of two, exactly, with its
largest entry in [1/2, 1): its verdict does not depend on the scale of
the input, and no finite instance overflows. A BlockMatrix keeps its
scaled form (``BlockMatrix.unit_scaled``), so the properties of one
chunk scale each matrix once. A ``verify_<id>`` states its claims on its
inputs as given. Its row and column norms, ``row_norm`` and
``col_norm``, are the largest ``spectral_norm`` of a block-row or
block-column strip: ``spectral_norm``, the package's one Gram route to a
norm, takes a strip's own SVD where its Gram overflows or underflows, so
both norms are right at every finite scale of A.

``PROPERTIES`` is the one list of the nine properties: each id's default
tolerance and the instance pieces its checker takes; ``run_property``
dispatches through it and the CLI derives its flags and validation from
it. No checker reads it.

The fixed operators V, F and Q depend on (n, d) alone:
``StinespringSystem.build(a.n, a.d)`` is memoised per (n, d) and checks
their laws exactly once per (n, d), on its index arrays, together with
the builders' two gather laws F lambda(A) F = rho(A) and
sigma(A) = V flatten(A) V*, proven on a labelled instance; ``structure``
and ``decomposition`` state that stored value as their ``operators``
claim, which the fold takes into each trial's max, so a broken system or
builder fails every trial. Every checker applies the 0/1
operators V, F, Q and P = (F + I)/2 by index, the form the system is
defined by: V* X = X[r], X V = X[:, r] and X F = X[:, f] with
r = ``v_rows`` and f = ``f_perm``, which gathers exactly the entries a
dense product would sum, so no checker reads the dense ``V``, ``F`` or
``Q``. V and F reach lambda as its index arguments, so a checker builds
only the strip it reads, from one formula: V* lambda(A) F lambda(B) V is
V* lambda(A) = ``build_lambda(a, r)``, gathered at f, times
``build_lambda(b, None, r)``, a (n*d) x (n*d*n) by (n*d*n) x (n*d)
product. No checker builds rho, and no array of a trial is n*d*n on both
sides; the once-per-(n, d) proof holds one such stack at a time. Each of
the paper's statements is checked once: the identity by ``factorization``
alone, while ``structure`` and ``decomposition`` compare exact gathers
(V* lambda(X) V = flatten(diag(X))). An exactly zero difference is a
residual of 0.0 with no SVD, so only ``factorization``,
the one identity that can carry rounding, pays for a spectral norm, and
not on a matrix wider than n*d.

Each inequality says a Hermitian matrix H is PSD (R^2 I - X* X for
livshits and cb_level, diag(A*A) -+ A* [] A for sandwich, the Gram
matrix G for cauchy_schwarz), and the ``at_most`` and ``psd`` rules prove
it through ``_judge`` before they measure it, at a proof scale: R^2, or
the largest diagonal entry of the bound side (diag(A*A) or G), which
the ``psd`` claim states. No checker calls the proof or branches on it.

The properties of one chunk share what they compute alike, through
``_once``, which keeps each value on the chunk's scaled A
(``BlockMatrix._memo``) and so drops it with the chunk: A [] B and its
flatten X; row_norm(A); V* lambda(A); and A*. A value that one property
alone reads, such as col_norm(B) or lambda(B) V, is not kept, nor is a
norm a rule takes only where a claim misses. The first property in
``PROPERTIES`` order that reads a shared value pays for it in its
``seconds``. An entry's key is the function this module binds at call
time and the identity of each argument, so a mutant or a wrapper
installed on a name is a new key, never a stale hit.
Replay runs one property on a new instance per call, so it shares
nothing.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .blocks import (
    BlockMatrix,
    _check_same_shape,
    _row_strips,
    _unchecked,
    adjoint_block,
    block_matmul,
    col_norm,
    diag_block,
    flatten,
    row_norm,
    schur_block_product,
)
from .errors import JudgeError
from .linalg import (
    _norm_where,
    as_scalar,
    gap_norm,
    hermitian_min_eig,
    ratio,
    spectral_norm,
)
from .stinespring import StinespringSystem, build_lambda


class Property(NamedTuple):
    """One row of PROPERTIES: default tolerance and needed inputs.

    ``needs`` names the keys of the instance mapping (A, B), keyed like
    the instance file, that the checker ``verify_<id>`` takes, in order.
    """

    tol: float
    needs: tuple


PROPERTIES = {
    "factorization": Property(1e-10, ("A", "B")),
    "structure": Property(1e-12, ("A", "B")),
    "livshits": Property(1e-8, ("A", "B")),
    "sharpness": Property(1e-8, ("A",)),
    "sandwich": Property(1e-10, ("A",)),
    "cauchy_schwarz": Property(1e-8, ("A", "B")),
    "decomposition": Property(1e-10, ("A", "B")),
    "norm_lemmas": Property(1e-8, ("A",)),
    "cb_level": Property(1e-8, ("A", "B")),
}

# _proves_psd shifts by PROOF_MARGIN * scale. The factorization's backward
# error, with the rounding of the Gram, the eigensolver and the SVD, is
# about m^3 u relative to scale: below 1e-9 at m = 192, the largest Gram
# replay builds. So a proven matrix is one the measured route gives 0.0
PROOF_MARGIN = 2.0 ** -20


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of running one property over one or more trials; ``seconds``
    is the wall time spent building and judging its claims, including the
    shared values of a chunk it is the first property to compute (see the
    module docstring)."""

    property_id: str
    trials: int
    failures: int
    worst_residual: float
    worst_seed: int
    tolerance_used: float
    seconds: float = 0.0

    def __post_init__(self):
        if self.failures > self.trials:
            raise ValueError("failures cannot exceed trials")
        if self.worst_residual < 0:
            raise ValueError("worst_residual must be nonnegative")
        if self.trials > 0 and self.passed != (self.worst_residual <= self.tolerance_used):
            raise ValueError("inconsistent result: failures == 0 must match "
                             "worst_residual <= tolerance_used")

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def merge_results(results) -> PropertyResult:
    """Fold the results of one property's chunks, in trial order, into one."""
    results = list(results)
    if not results:
        raise ValueError("nothing to merge")
    pid = results[0].property_id
    tol = results[0].tolerance_used
    if any(r.property_id != pid or r.tolerance_used != tol for r in results):
        raise ValueError("can only merge results of one property at one tolerance")
    # the first largest, as in run_property, with NaN the largest
    worst = results[int(np.argmax([r.worst_residual for r in results]))]
    return replace(worst, trials=sum(r.trials for r in results),
                   failures=sum(r.failures for r in results),
                   seconds=sum(r.seconds for r in results))


def _max(first, *rest):
    """Elementwise max of per-trial values; a NaN anywhere gives NaN, which
    never passes."""
    return functools.reduce(np.maximum, rest, np.asarray(first))


def _once(owner: BlockMatrix, fn, *args):
    """fn(*args), computed once per owner, a checker's first input (the
    chunk's scaled A), and reused by every property of the chunk. It lives
    on the owner (``BlockMatrix._memo``), so it is dropped with the chunk.

    The key is fn, the object this module binds at call time, so a mutant
    or a wrapper installed on a name is a new key, never a stale hit, and
    the identity of each argument. The entry holds its arguments, so no
    identity in a live key is reused; not the owner, which holds the entry.
    """
    key = (fn, *map(id, args))
    entry = owner._memo.get(key)
    if entry is None:
        entry = owner._memo[key] = fn(*args), [x for x in args if x is not owner]
    return entry[0]


def _ab(a: BlockMatrix, b: BlockMatrix) -> np.ndarray:
    """flatten(A [] B), formed once per chunk."""
    return _once(a, flatten, _once(a, schur_block_product, a, b))


# ---------------------------------------------------------------------------
# The judge: one rule per relation turns a claim into its residual
# ---------------------------------------------------------------------------


def _proves_psd(h, scale) -> bool:
    """Whether one Cholesky factorization proves, for every matrix of the
    stack h, that its Hermitian part is at least PROOF_MARGIN * scale * I.

    A factorization that succeeds in floating point is the proof (Rump,
    "Verification of positive definiteness", BIT 46, 2006): the shift is
    far above its backward error. scale holds one value per matrix. False
    proves nothing: a matrix of the stack failed to factor, or its factor
    is not finite (LAPACK passes a NaN or an infinity through).
    """
    h = (h + np.conj(h).swapaxes(-1, -2)) / 2
    i = np.arange(h.shape[-1])
    h[..., i, i] -= PROOF_MARGIN * np.asarray(scale)[..., None]
    try:
        factor = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(factor).all())


def _judge(h, scale, measure):
    """0.0 over h's stack where one Cholesky factorization (``_proves_psd``
    at scale) proves the Hermitian part of every matrix of h PSD, else
    ``measure()``. A proven chunk is one the measure would also give 0.0;
    one it cannot prove (on or near its bound, an overflow) is measured as
    if no proof had been tried, so the proof moves no residual bit."""
    if _proves_psd(h, scale):
        return as_scalar(np.zeros(h.shape[:-2]))
    return measure()


def _equal(lhs, rhs):
    """lhs = rhs, matrix sides: ||lhs - rhs|| / ||lhs||. An exactly zero
    gap is 0.0 with no SVD (``gap_norm``), and ||lhs|| is taken only where
    the gap is not."""
    gap = gap_norm(lhs - rhs)
    return ratio(gap, _norm_where(lhs, np.asarray(gap) != 0))


def _same(lhs, rhs):
    """lhs = rhs, per-trial values: |lhs - rhs| / lhs."""
    return ratio(np.abs(lhs - rhs), lhs)


def _at_most(x, r):
    """||X|| <= R per matrix of x: (||X|| - R) / R where it is positive.

    It holds exactly when H = R^2 I - X* X is PSD, so the judge proves H
    at scale R^2 and takes ||X|| by its SVD only where the proof fails.
    """
    bound = np.square(r)
    h = bound[..., None, None] * np.eye(x.shape[-1]) - np.conj(x).swapaxes(-1, -2) @ x
    return _judge(h, bound, lambda: ratio(_max(0.0, spectral_norm(x) - r), r))


def _psd(h, scale, ref, extra=0.0):
    """H >= 0 for each matrix of h, proven at scale, one value per trial.

    Where the proof fails, the deviation is max(0, -lambda_min) of H's
    Hermitian part; h may stack several sides of a trial ahead of scale's
    axes, and the worst side counts. ``extra`` is added to it, and the sum
    is divided by the largest spectral norm of the stack ref (..., k, p, q)
    of each trial, taken only where the sum is nonzero: a claim that holds
    everywhere, the usual case, forms no reference at all.
    """
    deficit = np.asarray(_judge(h, scale, lambda: _max(0.0, -hermitian_min_eig(h))))
    dev = deficit.max(axis=tuple(range(deficit.ndim - np.ndim(scale)))) + extra
    if not dev.any():
        return dev
    nonzero = np.broadcast_to((dev != 0)[..., None], ref.shape[:-2])
    return ratio(dev, _norm_where(ref, nonzero).max(axis=-1))


_RULES = {"equal": _equal, "same": _same, "at_most": _at_most, "psd": _psd}


def _residual(relation, *claim):
    """The judge: the residual of a claim, by its relation's rule in
    ``_RULES``; a float for one instance, one value per trial for a stack."""
    return as_scalar(_RULES[relation](*claim))


# Each relation's planted claims, one its rule must fail at every default
# tolerance and one it must pass at every one: a gap far above them, a norm
# at (1 + 2^-10) times its bound, an eigenvalue at -2^-10 of its scale; the
# passing claims hold exactly, or with room to spare. The matrices are
# complex, as the checkers' are, so the controls run the same LAPACK routines
_I2 = np.eye(2, dtype=np.complex128)
_CONTROLS = {
    "equal": ((_I2, 2 * _I2), (_I2, _I2)),
    "same": ((1.0, 2.0), (1.0, 1.0)),
    "at_most": ((_I2 * [1 + 2.0 ** -10, 0.5], 1.0), (_I2 * [1 - 2.0 ** -10, 0.5], 1.0)),
    "psd": ((_I2 * [1, -2.0 ** -10], 1.0, _I2[None]), (_I2 * [1, 2.0 ** -10], 1.0, _I2[None])),
}


@functools.cache
def _check_judge() -> None:
    """Judge each relation's planted claims, once per process; raise
    ``JudgeError`` naming the first relation given a wrong verdict, so a
    judge that cannot fail a claim (or cannot pass one) gives no report.
    The controls go through the names this module binds at call time, so
    they judge the rules the checkers use."""
    tols = [prop.tol for prop in PROPERTIES.values()]
    for relation, (failing, passing) in _CONTROLS.items():
        if not (_residual(relation, *failing) > max(tols)
                and _residual(relation, *passing) <= min(tols)):
            raise JudgeError(f"judge control failed: {relation}")


def worst_residual(claims: dict, batch=()):
    """The residual of a checker's claims ``{name: (relation, *sides)}``.

    Each claim is judged by ``_residual``; its residuals over the axes
    after ``batch``, the trial axes (a claim's rows), and then over the
    claims, fold into their largest per trial, with NaN the largest: a
    float for one instance (batch ()), an array of shape batch for a stack.
    """
    def per_trial(claim):
        r = np.asarray(_residual(*claim))
        return r.max(axis=tuple(range(len(batch), r.ndim)))

    return as_scalar(_max(np.zeros(batch), *map(per_trial, claims.values())))


# ---------------------------------------------------------------------------
# The checkers: each returns its named claims
# ---------------------------------------------------------------------------


def verify_factorization(a: BlockMatrix, b: BlockMatrix) -> dict:
    """flatten(A [] B) = V* lambda(A) F lambda(B) V, the one identity:
    ``identity``, X = flatten(A [] B) equal to V* lambda(A) F lambda(B) V.

    ||X|| is taken, by the ``equal`` rule, only for the trials whose gap is
    nonzero; the SVD of a matrix gives the same bits in any stack.
    """
    _check_same_shape(a, b)
    sys_ = StinespringSystem.build(a.n, a.d)
    r, f = sys_.v_rows, sys_.f_perm
    # V* lambda(A) F: np.take gathers the contiguous array build_lambda(a, r, f)
    # builds, so the product runs the same GEMM
    via_flip = np.take(_once(a, build_lambda, a, r), f, axis=-1) @ build_lambda(b, None, r)
    return {"identity": ("equal", _ab(a, b), via_flip)}


def verify_structure(a: BlockMatrix, b: BlockMatrix) -> dict:
    """Exactness of the fixed operators and the representation identities.

    ``operators``: proven once per (n, d) by the system's
    ``operator_residual``, 0.0 or 1.0, so this ``same`` claim's residual
    is exactly that: V*V = I, F self-adjoint and involutive,
    FV = V, and the two gather laws F lambda(A) F = rho(A) and
    sigma(A) = V flatten(A) V*, on a labelled instance. ``diagonal``,
    checked per trial, in the n*d space: the diagonal compression
    flatten(diag(A)) = V* lambda(A) V, two gathers of A's entries, so it
    reads exactly 0.0 on correct code and spends no SVD. B is read for its
    shape alone: the identity V* lambda(A) rho(B) V = flatten(A [] B) is
    ``factorization``'s, with rho(B) = F lambda(B) F and FV = V.
    """
    _check_same_shape(a, b)
    sys_ = StinespringSystem.build(a.n, a.d)
    r = sys_.v_rows
    gather = _once(a, build_lambda, a, r)[..., :, r]
    return {"operators": ("same", 1.0, 1.0 + sys_.operator_residual),
            "diagonal": ("equal", flatten(diag_block(a)), gather)}


def verify_livshits(a: BlockMatrix, b: BlockMatrix) -> dict:
    """``bound``: ||A [] B|| <= R = row_norm(A) * col_norm(B)."""
    _check_same_shape(a, b)
    return {"bound": ("at_most", _ab(a, b), _once(a, row_norm, a) * col_norm(b))}


def row_norms_via_schur(x: BlockMatrix):
    """Norm of each block row of X, recovered through the Schur block product.

    X times, slotwise, the k-th indicator E_k (I_d on block row k, zero
    elsewhere) has operator norm exactly that of block row k; the max over
    k is row_norm(X). One product gives all n: (..., n). Every block row
    of X [] E_k but row k is zero, so its norm is that of its block row k,
    a d-by-(n*d) strip, and one norm call takes all n strips. Where a
    nonzero lands in another block row (a product that leaks), the whole
    (n*d)-square X [] E_k is measured instead.
    """
    n, d, k = x.n, x.d, np.arange(x.n)
    y = np.zeros((n, n, n, d, d), dtype=np.complex128)
    y[k, k] = np.eye(d)
    per_row = schur_block_product(_unchecked(n, d, x.blocks[..., None, :, :, :, :]),
                                  _unchecked(n, d, y))
    # block row k of X [] E_k: blocks (k, j) as rows k*d .. k*d + d - 1
    own_rows = per_row.blocks[..., k, k, :, :, :].swapaxes(-3, -2)
    norms = spectral_norm(own_rows.reshape(*x.batch, n, d, n * d))
    nonzero_rows = per_row.blocks.reshape(*per_row.batch, n, -1).any(axis=-1)
    leaks = (nonzero_rows & ~np.eye(n, dtype=bool)).any(axis=-1)
    if leaks.any():
        norms[leaks] = spectral_norm(flatten(per_row)[leaks])
    return norms


def verify_sharpness(x: BlockMatrix) -> dict:
    """Row norms recovered through [] match direct block-row norms: on
    every row (``rows``), and their largest matches ``row_norm``
    (``largest``).

    The direct norm of block row k is that of the d-by-(n*d) strip of
    rows k*d .. k*d + d - 1 of flatten(x), the strip ``row_norm`` takes.
    """
    via = row_norms_via_schur(x)
    return {"rows": ("same", spectral_norm(_row_strips(x)), via),
            "largest": ("same", _once(x, row_norm, x), via.max(axis=-1))}


def verify_sandwich(a: BlockMatrix) -> dict:
    """``order``: -diag(A*A) <= A* [] A <= diag(A*A) in the PSD order.

    One ``psd`` claim stacks both sides, diag(A*A) -+ A* [] A, and adds
    the Frobenius norm of A* [] A's skew part, relative to ||diag(A*A)||
    where that sum is nonzero.
    """
    star = _once(a, adjoint_block, a)
    s = flatten(schur_block_product(star, a))
    dmat = flatten(diag_block(block_matmul(star, a)))
    scale = np.diagonal(dmat, axis1=-2, axis2=-1).real.max(axis=-1)
    # s is Hermitian by the adjoint law, so its skew part counts against it
    skew = np.linalg.norm(s - np.conj(s).swapaxes(-1, -2), axis=(-2, -1))
    return {"order": ("psd", np.stack([dmat - s, dmat + s]), scale,
                      dmat[..., None, :, :], skew)}


def verify_cauchy_schwarz(a: BlockMatrix, b: BlockMatrix) -> dict:
    """|<(A [] B) u, v>| <= ||diag(B*B)^(1/2) u|| ||diag(AA*)^(1/2) v|| for
    all vectors u and v.

    With D_A = diag(AA*) and D_B = diag(B*B), the bound holds for all u, v
    exactly when G = [[D_A, A [] B], [(A [] B)*, D_B]] is positive
    semidefinite, the positivity test for a 2x2 operator matrix (Paulsen,
    *Completely Bounded Maps and Operator Algebras*, CUP 2002). G is the
    Gram matrix of the columns of [lambda(A)* V, F lambda(B) V], as F is a
    self-adjoint unitary, so this is the paper's proof step; it needs no
    inverse of D_A or D_B and has no singular case. ``gram`` claims G PSD:
    its residual is how far the smallest eigenvalue of G's Hermitian part
    falls below 0, relative to r, the largest spectral norm of the 2n
    diagonal blocks of D_A, D_B.
    """
    _check_same_shape(a, b)
    i = np.arange(a.n)
    d_a = diag_block(block_matmul(a, _once(a, adjoint_block, a)))
    d_b = diag_block(block_matmul(adjoint_block(b), b))
    ab = _ab(a, b)
    gram = np.block([[flatten(d_a), ab], [np.conj(ab).swapaxes(-1, -2), flatten(d_b)]])
    scale = np.diagonal(gram, axis1=-2, axis2=-1).real.max(axis=-1)
    diagonal = np.concatenate([d.blocks[..., i, i, :, :] for d in (d_a, d_b)], axis=-3)
    return {"gram": ("psd", gram, scale, diagonal)}


def verify_decomposition(a: BlockMatrix, b: BlockMatrix) -> dict:
    """Difference-of-positive-parts form and the absolute-value identity.

    With P = (F + I)/2, an orthogonal projection since F = F* = F^-1 (the
    laws of F, which the system's ``operator_residual`` proves once per
    (n, d), the ``operators`` claim), flatten(A [] B) =
    V* lambda(A) P lambda(B) V minus V* lambda(A) (I - P) lambda(B) V is
    ``factorization``'s identity with F = P - (I - P). ``diagonal``,
    checked per trial: V* lambda(AB) V equals flatten(diag(AB)), two
    gathers of AB's entries, so it reads exactly 0.0 on correct code and
    spends no SVD.
    """
    _check_same_shape(a, b)
    sys_ = StinespringSystem.build(a.n, a.d)
    r = sys_.v_rows
    prod = block_matmul(a, b)
    return {"operators": ("same", 1.0, 1.0 + sys_.operator_residual),
            "diagonal": ("equal", flatten(diag_block(prod)), build_lambda(prod, r, r))}


def verify_norm_lemmas(a: BlockMatrix) -> dict:
    """``columns``: col_norm(A) = ||lambda(A) V||, and ``rows``:
    row_norm(A) = ||V* lambda(A)||."""
    r = StinespringSystem.build(a.n, a.d).v_rows
    return {"columns": ("same", col_norm(a), spectral_norm(build_lambda(a, None, r))),
            "rows": ("same", _once(a, row_norm, a),
                     spectral_norm(_once(a, build_lambda, a, r)))}


def verify_cb_level(a: BlockMatrix, b: BlockMatrix) -> dict:
    """Complete boundedness at level k: ``bound``, the Livshits bound of a
    level-k pair.

    The level-k lift (``blocks.lift_schur_k``) is the Schur block product
    at block size k*d, so A and B are a pair of lifts, each (n, d) grids
    stacked over (k, k), regrouped by ``blocks.regroup_lift``. It states
    ``livshits``' claim itself, so a wrapper on either name times one
    property.
    """
    _check_same_shape(a, b)
    return {"bound": ("at_most", _ab(a, b), _once(a, row_norm, a) * col_norm(b))}


# ---------------------------------------------------------------------------
# Dispatch used by the suite runner and replay
# ---------------------------------------------------------------------------


def run_property(property_id: str, x, *, tol: float | None = None,
                 seeds=None) -> PropertyResult:
    """Run one named property on the instance mapping x and judge each trial.

    x holds one instance, or stacks of trials along a leading axis (see
    the module docstring). The checker ``verify_<id>``, looked up by its
    module-level name at call time so that a wrapper installed on that
    name (a profiler, a tracer) sees every call, states its claims on the
    inputs the property needs (``Property``), each one of each trial
    scaled by a power of two (``BlockMatrix.unit_scaled``), so the verdict
    does not depend on the scale of x; ``worst_residual`` judges them.
    ``seconds`` times the checker and the judging alone. Each residual
    passes at or below tol, by default the property's own; ``failures``
    counts those that do not, NaN included. The worst trial is the first
    largest residual in trial order, with NaN the largest; its entry of
    ``seeds``, the trials' seeds in order, is the result's ``worst_seed``
    (0 when seeds is None). The first call of a process first runs the
    judge's controls (``_check_judge``), and raises ``JudgeError`` if the
    judge gives a planted claim the wrong verdict.
    """
    if property_id not in PROPERTIES:
        raise ValueError(f"unknown property {property_id!r}")
    _check_judge()
    prop = PROPERTIES[property_id]
    for what in prop.needs:
        if what not in x:
            raise ValueError(f"property {property_id!r} needs {what}")
    scaled = {key: x[key].unit_scaled for key in prop.needs}
    tol = prop.tol if tol is None else tol
    t0 = time.perf_counter()
    claims = globals()[f"verify_{property_id}"](*scaled.values())
    residuals = np.ravel(worst_residual(claims, scaled[prop.needs[0]].batch))
    seconds = time.perf_counter() - t0
    worst = int(np.argmax(residuals))
    return PropertyResult(
        property_id=property_id,
        trials=residuals.size,
        failures=int(np.count_nonzero(~(residuals <= tol))),
        worst_residual=float(residuals[worst]),
        worst_seed=0 if seeds is None else int(seeds[worst]),
        tolerance_used=tol,
        seconds=seconds,
    )
