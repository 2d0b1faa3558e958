"""Realistic bugs in the block operations, each caught by the suite.

Each mutant replaces one operation of ``blocks`` by a plausible wrong
version, in ``blocks`` and in ``verify``, the two modules that bind the
name. A caught mutant fails its properties with exit code 1 and a
written report, never with an error exit, and its ``worst_seed``
regenerates an instance that replay fails too.
"""

import json

import numpy as np
import pytest

from schurblock import (
    BlockMatrix,
    block_matrix_to_json,
    flatten,
    sample_block_matrix,
    sample_vector,
    unflatten,
    vector_to_json,
)
from schurblock import blocks, verify
from schurblock.cli import main

N, D = 3, 2


def adjoint_without_conj(a):
    return BlockMatrix(a.n, a.d, a.blocks.swapaxes(-4, -3).swapaxes(-2, -1))


def adjoint_without_slot_swap(a):
    return BlockMatrix(a.n, a.d, np.conj(a.blocks.swapaxes(-2, -1)))


def schur_product_swapped(a, b):
    return BlockMatrix(a.n, a.d, np.matmul(b.blocks, a.blocks))


def block_matmul_swapped(a, b):
    return unflatten(flatten(b) @ flatten(a), a.n, a.d)


def diag_block_identity(a):
    return a


# (name, mutant, the properties it fails, those whose residual is NaN)
MUTANTS = [
    ("adjoint_block", adjoint_without_conj, {"sandwich", "cauchy_schwarz"},
     {"cauchy_schwarz"}),
    ("adjoint_block", adjoint_without_slot_swap, {"sandwich", "cauchy_schwarz"},
     {"cauchy_schwarz"}),
    ("schur_block_product", schur_product_swapped,
     {"factorization", "structure", "sandwich", "decomposition"}, set()),
    ("block_matmul", block_matmul_swapped, {"sandwich", "cauchy_schwarz"}, set()),
    ("diag_block", diag_block_identity, {"structure", "sandwich", "decomposition"}, set()),
]


def install(monkeypatch, name, mutant):
    for module in (blocks, verify):
        monkeypatch.setattr(module, name, mutant)


def write_trial_instance(path, seed):
    """The suite's trial for ``seed``: A, B, xi, gamma in their draw order."""
    rng = np.random.default_rng(seed)
    a, b = (sample_block_matrix(rng, N, D) for _ in range(2))
    xi, gamma = (sample_vector(rng, N * D) for _ in range(2))
    path.write_text(json.dumps({
        "A": block_matrix_to_json(a), "B": block_matrix_to_json(b),
        "xi": vector_to_json(xi), "gamma": vector_to_json(gamma)}))


@pytest.mark.parametrize("name, mutant, failing, nan", MUTANTS,
                         ids=[m[1].__name__ for m in MUTANTS])
def test_mutant_fails_its_properties(name, mutant, failing, nan, tmp_path,
                                     monkeypatch, capsys):
    install(monkeypatch, name, mutant)
    out = tmp_path / "report.json"
    code = main(["verify", "--n", str(N), "--d", str(D), "--k", "1",
                 "--trials", "5", "--seed", "1", "--out", str(out)])
    assert code == 1, capsys.readouterr().err
    results = {r["property_id"]: r for r in json.loads(out.read_text())["results"]}
    assert {p for p, r in results.items() if r["failures"]} == failing
    assert {p for p in failing if np.isnan(results[p]["worst_residual"])} == nan
    for p in failing:
        assert results[p]["failures"] == 5, p
        # the recorded seed regenerates an instance that replay fails
        path = tmp_path / f"{p}.json"
        write_trial_instance(path, results[p]["worst_seed"])
        assert main(["replay", str(path), "--property", p]) == 1
        assert "result=FAIL" in capsys.readouterr().out


def test_wrong_order_product_fails_factorization_at_every_scale(tmp_path, monkeypatch,
                                                                capsys):
    # replay scales each input by a power of two, so the residual is the
    # same at every scale: to the bit at 2**-600, and to the digits replay
    # prints where a decimal scale rounds the entries
    install(monkeypatch, "schur_block_product", schur_product_swapped)
    rng = np.random.default_rng(5)
    a, b = (sample_block_matrix(rng, N, D) for _ in range(2))
    lines = set()
    for scale in (1.0, 1e-5, 1e-100, 2.0 ** -600):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({
            "A": block_matrix_to_json(BlockMatrix(N, D, scale * a.blocks)),
            "B": block_matrix_to_json(BlockMatrix(N, D, scale * b.blocks))}))
        assert main(["replay", str(path), "--property", "factorization"]) == 1, scale
        lines.add(capsys.readouterr().out)
    assert len(lines) == 1, lines
