"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Random instances cycle deterministically over small (n, d) grids via
mix64-derived seeds, so every failure is reproducible from the printed data.
"""

import time

import numpy as np

from conftest import outer_lift, scalar_bm
from schurblock import (
    StinespringSystem,
    adjoint_block,
    block_identity,
    block_matmul,
    build_lambda,
    col_norm,
    diag_block,
    flatten,
    mix64,
    regroup_lift,
    row_norm,
    row_norms_via_schur,
    sample_block_matrix,
    sample_lift,
    schur_block_product,
    schur_unit,
    spectral_norm,
    verify_cauchy_schwarz,
    verify_cb_level,
    verify_factorization,
    verify_livshits,
    verify_sandwich,
    verify_sharpness,
    verify_structure,
)
from test_cli import run_cli, strip_timing

GRID = [(n, d) for n in range(1, 6) for d in range(1, 4)]


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num} ({name}): {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_factorization_identity():
    start = time.perf_counter()
    worst = 0.0
    for t in range(500):
        n, d = GRID[t % len(GRID)]
        rng = np.random.default_rng(mix64(1001, t))
        a = sample_block_matrix(rng, n, d)
        b = sample_block_matrix(rng, n, d)
        worst = max(worst, verify_factorization(a, b))
    elapsed = time.perf_counter() - start
    _report(1, "factorization identity", worst <= 1e-10 and elapsed < 30.0,
            f"500 instances, worst residual {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_structural_exactness():
    worst = 0.0
    for t in range(200):
        n, d = GRID[t % len(GRID)]
        rng = np.random.default_rng(mix64(1002, t))
        a = sample_block_matrix(rng, n, d)
        b = sample_block_matrix(rng, n, d)
        worst = max(worst, verify_structure(a, b))
    _report(2, "structural exactness", worst <= 1e-12,
            f"200 instances, worst residual {worst:.3e}")


def test_criterion_3_livshits_inequality():
    violations = 0
    for t in range(1000):
        n, d = GRID[t % len(GRID)]
        rng = np.random.default_rng(mix64(1003, t))
        a = sample_block_matrix(rng, n, d)
        b = sample_block_matrix(rng, n, d)
        if not verify_livshits(a, b) <= 1e-8:
            violations += 1
    a2 = scalar_bm([[1.0, 2.0], [3.0, 4.0]])
    b2 = scalar_bm([[5.0, 6.0], [7.0, 8.0]])
    lhs = spectral_norm(flatten(schur_block_product(a2, b2)))
    rhs = row_norm(a2) * col_norm(b2)
    hand_ok = abs(lhs - 40.35843836998762) <= 1e-10 and rhs == 50.0
    _report(3, "Livshits inequality", violations == 0 and hand_ok,
            f"1000 instances, {violations} violations; "
            f"hand case lhs={lhs:.4f}, rhs={rhs}")


def test_criterion_4_sharpness_of_row_recovery():
    worst = 0.0
    for t in range(200):
        n, d = GRID[t % len(GRID)]
        rng = np.random.default_rng(mix64(1004, t))
        x = sample_block_matrix(rng, n, d)
        worst = max(worst, verify_sharpness(x))
        recovered = row_norms_via_schur(x).max()
        rn = row_norm(x)
        worst = max(worst, abs(recovered - rn) / rn)
    _report(4, "row-norm sharpness", worst <= 1e-8,
            f"200 instances, worst relative error {worst:.3e}")


def test_criterion_5_sandwich_inequality():
    worst = 0.0
    for t in range(1000):
        n, d = GRID[t % len(GRID)]
        rng = np.random.default_rng(mix64(1005, t))
        a = sample_block_matrix(rng, n, d)
        worst = max(worst, verify_sandwich(a))
    a2 = scalar_bm([[1.0, 2.0], [3.0, 4.0]])
    star = adjoint_block(a2)
    gap = flatten(diag_block(block_matmul(star, a2))) - flatten(
        schur_block_product(star, a2))
    boundary = abs(float(np.linalg.eigvalsh(gap)[0]))
    _report(5, "sandwich inequality", worst <= 1e-10 and boundary <= 1e-12,
            f"1000 instances, worst deficit {worst:.3e}; "
            f"boundary min eigenvalue {boundary:.1e}")


def test_criterion_6_cauchy_schwarz_bound():
    failures = 0
    for t in range(1000):
        n, d = GRID[t % len(GRID)]
        rng = np.random.default_rng(mix64(1006, t))
        a = sample_block_matrix(rng, n, d)
        b = sample_block_matrix(rng, n, d)
        # the bound for all vectors at once: one Gram PSD test per pair
        if not verify_cauchy_schwarz(a, b) <= 1e-8:
            failures += 1
    _report(6, "Cauchy-Schwarz bound", failures == 0,
            f"1000 instances, {failures} failures")


def _lhs_over_rhs(a, b):
    return spectral_norm(flatten(schur_block_product(a, b))) / (
        row_norm(a) * col_norm(b))


def test_criterion_7_complete_boundedness():
    # level k is the Livshits bound of the pair regrouped at block size k*d
    lift_grid = [(n, d) for n in range(1, 4) for d in range(1, 3)]
    closest = 0.0
    failures = 0
    for k in (1, 2, 3):
        for t in range(300):
            n, d = lift_grid[t % len(lift_grid)]
            rng = np.random.default_rng(mix64(1007 + k, t))
            la = regroup_lift(sample_lift(rng, k, n, d))
            lb = regroup_lift(sample_lift(rng, k, n, d))
            if not verify_cb_level(la, lb) <= 1e-8:
                failures += 1
            closest = max(closest, _lhs_over_rhs(la, lb))
    # saturation: the Schur unit and the lifted ordinary identity reach the
    # bound at every level
    i = block_identity(3, 2)
    saturating = []
    for k in (1, 2, 3):
        unit = regroup_lift(outer_lift(np.ones((k, k)), schur_unit(3, 2)))
        lift = regroup_lift(outer_lift(np.eye(k), i))
        saturating += [_lhs_over_rhs(unit, unit), _lhs_over_rhs(lift, lift)]
    saturated = all(abs(r - 1.0) <= 1e-12 for r in saturating)
    _report(7, "complete boundedness at levels 1..3",
            failures == 0 and saturated,
            f"900 lifted instances, closest approach {closest:.10f}; "
            f"saturating lhs/rhs {saturating}")


def test_criterion_8_norm_and_diag_lemmas():
    worst_norms = 0.0
    worst_diag = 0.0
    worst_abs = 0.0
    for t in range(200):
        n, d = GRID[t % len(GRID)]
        rng = np.random.default_rng(mix64(1008, t))
        a = sample_block_matrix(rng, n, d)
        b = sample_block_matrix(rng, n, d)
        sys_ = StinespringSystem.build(n, d)
        la = build_lambda(a)
        vh = sys_.V.conj().T
        cn, rn = col_norm(a), row_norm(a)
        worst_norms = max(
            worst_norms,
            abs(cn - spectral_norm(la @ sys_.V)) / cn,
            abs(rn - spectral_norm(vh @ la)) / rn,
        )
        diag_res = spectral_norm(flatten(diag_block(a)) - vh @ la @ sys_.V)
        worst_diag = max(worst_diag, diag_res / spectral_norm(flatten(a)))
        prod = block_matmul(a, b)
        abs_res = spectral_norm(
            vh @ build_lambda(prod) @ sys_.V - flatten(diag_block(prod)))
        worst_abs = max(worst_abs, abs_res / spectral_norm(flatten(prod)))
    ok = worst_norms <= 1e-8 and worst_diag <= 1e-12 and worst_abs <= 1e-12
    _report(8, "norm and diagonal lemmas", ok,
            f"200 instances; norm ids {worst_norms:.3e} (<=1e-8), "
            f"diag {worst_diag:.3e} (<=1e-12), product diag {worst_abs:.3e}")


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path):
    args = ("verify", "--n", "3", "--d", "2", "--k", "2",
            "--trials", "5", "--seed", "42")
    p1 = run_cli(*args)
    p2 = run_cli(*args)
    deterministic = (p1.returncode == 0 and p2.returncode == 0
                     and strip_timing(p1.stdout) == strip_timing(p2.stdout))

    fail_run = run_cli("verify", "--n", "2", "--d", "2", "--trials", "1",
                       "--properties", "factorization",
                       "--tol.factorization", "0")
    config_run = run_cli("verify", "--n", "0")
    bad = tmp_path / "corrupt.json"
    bad.write_text("{not json")
    io_run = run_cli("replay", str(bad), "--property", "livshits")
    codes_ok = (fail_run.returncode == 1 and config_run.returncode == 2
                and io_run.returncode == 3)
    _report(9, "CLI determinism and exit codes", deterministic and codes_ok,
            f"exit codes pass=0 fail={fail_run.returncode} "
            f"config={config_run.returncode} io={io_run.returncode}")
