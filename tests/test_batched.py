"""The suite runs each property once per chunk of stacked trials.

A checker on a stack returns one residual per trial, and each must be,
bit for bit, the residual of that trial's instance checked alone (a batch
of one). On this holds the claim that a chunked report is the per-trial
report; a BLAS or LAPACK whose batched calls round differently from its
single ones would fail here first.
"""

import numpy as np
import pytest

from conftest import random_bm
from schurblock import (
    PROPERTIES,
    BlockMatrix,
    block_matrix,
    col_norm,
    flatten,
    merge_results,
    mix64,
    row_norm,
    run_property,
    spectral_norm,
)
from schurblock import cli, verify
from schurblock.cli import CHUNK_BYTES, TrialConfig, chunk_trials, run_suite


def _record_checkers(monkeypatch) -> list:
    """Wrap every verify_<id>; each call appends (id, args, residuals), the
    fold of its claims (``worst_residual``)."""
    calls = []
    for pid in PROPERTIES:
        checker = getattr(verify, f"verify_{pid}")

        def recorder(*args, _checker=checker, _pid=pid, **kwargs):
            claims = _checker(*args, **kwargs)
            calls.append((_pid, args, verify.worst_residual(claims, args[0].batch)))
            return claims

        monkeypatch.setattr(verify, f"verify_{pid}", recorder)
    return calls


def _trial(value, t):
    """Trial t of a stacked BlockMatrix, as one BlockMatrix."""
    return block_matrix(value.blocks[t])


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


CONFIGS = [(1, 1, 1, 5), (3, 1, 1, 5), (4, 2, 2, 5), (2, 3, 1, 5), (8, 4, 3, 6)]


@pytest.mark.parametrize("n,d,k,trials", CONFIGS)
def test_chunk_residuals_are_the_single_trial_residuals(n, d, k, trials, monkeypatch):
    calls = _record_checkers(monkeypatch)
    run_suite(TrialConfig(n=n, d=d, k=k, trials=trials, seed=29))
    monkeypatch.undo()

    chunks = {pid: 0 for pid in PROPERTIES}
    checked = {pid: 0 for pid in PROPERTIES}
    for pid, args, residuals in calls:
        assert isinstance(residuals, np.ndarray), pid
        chunks[pid] += 1
        for t, residual in enumerate(residuals):
            x = dict(zip(PROPERTIES[pid].needs, (_trial(v, t) for v in args)))
            single = run_property(pid, x).worst_residual
            assert _bits(single) == _bits(residual), (pid, t)
            checked[pid] += 1
    assert checked == {pid: trials for pid in PROPERTIES}
    want = -(-trials // chunk_trials(n, d, k))
    assert chunks == {pid: want for pid in PROPERTIES}
    if (n, d) == (8, 4):
        assert want > 1


def test_chunk_length_is_a_byte_budget():
    assert chunk_trials(4, 2, 2) == 256
    assert chunk_trials(8, 4, 3) == 4
    assert chunk_trials(1, 1, 1) == 262144
    # the flattened level-k pair, 12-square, outgrows the 4-square triple space
    assert chunk_trials(1, 4, 3) == 1820


def test_level_k_chunk_fits_the_byte_budget(monkeypatch):
    sizes = []

    def record(p, x, **kw):
        sizes.append(x["A"].blocks.nbytes)
        return run_property(p, x, **kw)

    monkeypatch.setattr(cli, "run_property", record)
    run_suite(TrialConfig(n=1, d=4, k=3, trials=2000, seed=3, properties=("cb_level",)))
    assert len(sizes) == 2
    assert max(sizes) <= CHUNK_BYTES


def test_ties_keep_the_first_trial_across_chunks():
    # random pairs stay far inside the Livshits bound: every residual is 0.0
    report = run_suite(TrialConfig(n=8, d=4, k=3, trials=6, seed=31,
                                   properties=("livshits",)))
    (result,) = report.results
    assert result.trials == 6 and result.worst_residual == 0.0
    assert result.worst_seed == mix64(31, 0)


def _judged(residuals, seeds, monkeypatch):
    """run_property at tolerance 1e-8 on a fold that gives the given residuals."""
    monkeypatch.setattr(verify, "worst_residual",
                        lambda claims, batch: np.array(residuals, dtype=float))
    one = block_matrix(np.ones((1, 1, 1, 1)))
    return run_property("livshits", {"A": one, "B": one}, tol=1e-8, seeds=seeds)


def test_run_property_judges_every_trial(monkeypatch):
    result = _judged([0.0, 3e-8, 3e-8, 1e-9, 1e-8], [11, 12, 13, 14, 15], monkeypatch)
    assert (result.trials, result.failures) == (5, 2)
    assert (result.worst_residual, result.worst_seed) == (3e-8, 12)


def test_nan_residual_fails_and_is_the_worst(monkeypatch):
    result = _judged([5.0, np.nan, 0.0], [21, 22, 23], monkeypatch)
    assert (result.trials, result.failures, result.worst_seed) == (3, 2, 22)
    assert np.isnan(result.worst_residual) and not result.passed
    first = _judged([1e-9, 0.0], [1, 2], monkeypatch)
    merged = merge_results([first, result])
    assert np.isnan(merged.worst_residual) and merged.worst_seed == 22
    assert (merged.trials, merged.failures) == (5, 2)


# The stacked code replaced per-row and per-column loops. The loops stay
# here as the reference its bits must match: the norm of block row i is
# that of the d-by-(n*d) strip s of flatten(a), that of block column j of
# the (n*d)-by-d strip c, each taken by its own spectral_norm call.

def _loop_row_col_norms(a):
    x, d = flatten(a), a.d
    rows = (x[i * d:(i + 1) * d, :] for i in range(a.n))
    cols = (x[:, j * d:(j + 1) * d] for j in range(a.n))
    return tuple(max(spectral_norm(s) for s in strips) for strips in (rows, cols))


@pytest.mark.parametrize("n,d", [(1, 1), (3, 1), (4, 2), (2, 3), (8, 4), (3, 12)])
def test_stacked_sums_match_the_loops_bit_for_bit(n, d):
    rng = np.random.default_rng(37 + n * d)
    singles = [random_bm(rng, n, d) for _ in range(3)]
    a = BlockMatrix(n, d, np.stack([x.blocks for x in singles]))
    rows, cols = row_norm(a), col_norm(a)
    for t, at in enumerate(singles):
        assert (row_norm(at), col_norm(at)) == _loop_row_col_norms(at)
        assert (rows[t], cols[t]) == _loop_row_col_norms(at)
