"""The judge: one rule per relation turns a checker's claim into its
residual, and planted claims show, once per process, that it can fail."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from schurblock import block_matrix_to_json, sample_block_matrix, spectral_norm
from schurblock import linalg
from schurblock import verify as verify_module

ROOT = Path(__file__).resolve().parent.parent


def residual(relation, *claim):
    return verify_module._residual(relation, *claim)


class TestEqualRule:
    def test_exact_zero_difference_takes_no_norm(self, monkeypatch):
        def no_norm(*args, **kwargs):
            raise AssertionError("spectral_norm called on an exact identity")

        for module in (linalg, verify_module):
            monkeypatch.setattr(module, "spectral_norm", no_norm)
        f = np.eye(6)[::-1]
        assert residual("equal", np.eye(6), f @ f) == 0.0

    def test_nonzero_difference_is_relative_to_lhs(self):
        lhs = np.diag([4.0, 2.0])
        rhs = lhs + np.diag([0.0, 1e-3])
        assert residual("equal", lhs, rhs) == spectral_norm(lhs - rhs) / 4.0
        # below unit norm too: no floor, so a power-of-two scale changes nothing
        for scale in (2.0 ** -20, 2.0 ** -600):
            assert residual("equal", lhs * scale, rhs * scale) == residual("equal", lhs, rhs)

    def test_nonzero_difference_from_zero_is_infinite(self):
        assert residual("equal", np.zeros((2, 2)), np.eye(2)) == np.inf

    def test_lhs_norm_only_where_the_gap_is_nonzero(self, monkeypatch):
        lhs = np.stack([np.eye(3), 2 * np.eye(3), 4 * np.eye(3)])
        rhs = lhs.copy()
        rhs[1, 0, 0] += 0.5
        sides = []
        norm = linalg.spectral_norm

        def recorded(x):
            sides.append(np.shape(x))
            return norm(x)

        monkeypatch.setattr(linalg, "spectral_norm", recorded)
        assert residual("equal", lhs, rhs).tolist() == [0.0, 0.25, 0.0]
        # the gap of trial 1, then ||lhs|| of trial 1 alone
        assert sides == [(1, 3, 3), (1, 3, 3)]


def test_each_control_claim_gets_its_planted_verdict():
    planted = {"equal": 1.0, "same": 1.0, "at_most": 2.0 ** -10, "psd": 2.0 ** -10}
    for relation, (failing, passing) in verify_module._CONTROLS.items():
        assert residual(relation, *failing) == pytest.approx(planted[relation], rel=1e-12)
        assert residual(relation, *passing) == 0.0
    assert verify_module._check_judge() is None


# Each judge mutant, as a statement run before the CLI, and the relation
# whose control it fails. Every one passes a verify run with the controls
# taken out; with them, the run exits 1 before any property runs.
JUDGE_MUTANTS = {
    "gap_norm_times_0": ("verify.gap_norm = lambda diff: 0 * linalg.gap_norm(diff)", "equal"),
    "judge_always_proven": (
        "verify._judge = lambda h, scale, measure: np.zeros(np.shape(h)[:-2])", "at_most"),
    "ratio_to_0": ("verify.ratio = lambda num, den: 0 * np.asarray(num, dtype=float)", "equal"),
    "at_most_rule_to_0": ("verify._RULES['at_most'] = lambda *claim: 0.0", "at_most"),
    "psd_rule_to_0": ("verify._RULES['psd'] = lambda *claim: 0.0", "psd"),
}


def run_python(script: str) -> subprocess.CompletedProcess:
    """script in a fresh interpreter on this checkout's src, where the
    controls' memo, which is per process, is empty."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=300)


def run_cli(mutant: str, argv: list) -> subprocess.CompletedProcess:
    """``cli.main(argv)`` in a fresh interpreter, after the statement ``mutant``."""
    return run_python("import sys; import numpy as np; from schurblock import cli, linalg, "
                      f"verify; {mutant}; sys.exit(cli.main({argv!r}))")


@pytest.mark.parametrize("name", JUDGE_MUTANTS)
def test_judge_mutant_fails_verify(name):
    mutant, relation = JUDGE_MUTANTS[name]
    p = run_cli(mutant, ["verify", "--trials", "5"])
    assert p.returncode == 1, p.stderr
    assert p.stderr == f"error: judge control failed: {relation}\n"
    assert p.stdout == ""


def test_correct_judge_passes_verify():
    p = run_cli("pass", ["verify", "--trials", "5"])
    assert p.returncode == 0, p.stderr
    assert p.stderr == ""
    # a correct report gains no field
    report = json.loads(p.stdout)
    assert sorted(report) == ["config", "pass", "results", "version"]


def test_judge_mutant_fails_replay(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({key: block_matrix_to_json(sample_block_matrix(rng, 3, 2))
                                for key in ("A", "B")}))
    mutant, relation = JUDGE_MUTANTS["psd_rule_to_0"]
    p = run_cli(mutant, ["replay", str(path), "--property", "factorization"])
    assert (p.returncode, p.stdout) == (1, "")
    assert p.stderr == f"error: judge control failed: {relation}\n"


def test_controls_run_once_on_the_first_property():
    # importing the CLI runs no control, so they stay out of start-up time
    p = run_python(
        "import json; from schurblock import cli, verify; "
        "from schurblock.blocks import block_identity; "
        "x = {'A': block_identity(2, 1), 'B': block_identity(2, 1)}; "
        "calls = [verify._check_judge.cache_info().misses]; "
        "[verify.run_property(pid, x) for pid in ('structure', 'livshits')]; "
        "print(json.dumps(calls + [verify._check_judge.cache_info().misses]))")
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout) == [0, 1]
