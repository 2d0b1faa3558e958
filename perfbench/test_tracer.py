"""Self-checks of the benchmark's tracer and child environment.

Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from schurblock import cli  # noqa: E402
from schurblock.blocks import BlockMatrix  # noqa: E402
from schurblock.stinespring import StinespringSystem  # noqa: E402

import run  # noqa: E402
from tracer import TARGETS, Tracer, package_modules  # noqa: E402


def bindings() -> dict:
    """Every attribute of every schurblock module and of the patched classes."""
    out = {}
    for mod in package_modules():
        out.update({(mod.__name__, k): v for k, v in vars(mod).items()})
    for cls in (BlockMatrix, StinespringSystem):
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def traced_verify(tmp_path, n, d, k, trials) -> Tracer:
    tracer = Tracer()
    with tracer:
        code = cli.main([
            "verify", "--n", str(n), "--d", str(d), "--k", str(k),
            "--trials", str(trials), "--seed", "3", "--out", str(tmp_path / "r.json"),
        ])
    assert code == 0
    return tracer


def test_uninstall_restores_every_binding(tmp_path):
    before = bindings()
    tracer = traced_verify(tmp_path, 2, 1, 1, 1)
    assert tracer.restored()
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_every_binding_of_a_target_is_wrapped(tmp_path):
    tracer = traced_verify(tmp_path, 2, 1, 1, 1)
    patched = {(getattr(p.owner, "__name__", None), p.attr) for p in tracer.patches}
    for module, attr, _ in TARGETS:
        if "." not in attr:
            assert (f"schurblock.{module}", attr) in patched
    # spectral_norm is imported by name into blocks and verify
    for module in ("linalg", "blocks", "verify"):
        assert (f"schurblock.{module}", "spectral_norm") in patched


@pytest.mark.parametrize("n,d,k,dim,at_dim,zero_at_dim,total,zero_total", [
    (8, 4, 3, 256, 22, 10, 94, 15),    # verify-max
    (4, 2, 2, 32, 22, 9, 66, 12),      # verify-default
])
def test_spectral_norm_counts_per_trial(tmp_path, n, d, k, dim, at_dim,
                                        zero_at_dim, total, zero_total):
    trials = 2
    s = traced_verify(tmp_path, n, d, k, trials).summary()
    norm = s["norm"]
    assert norm[dim]["calls"] == at_dim * trials
    assert norm[dim]["zero_calls"] == zero_at_dim * trials
    assert sum(v["calls"] for v in norm.values()) == total * trials
    assert sum(v["zero_calls"] for v in norm.values()) == zero_total * trials
    assert s["groups"]["linalg.spectral_norm"]["calls"] == total * trials


def test_self_times_partition_the_traced_time(tmp_path):
    tracer = traced_verify(tmp_path, 4, 2, 2, 1)
    s = tracer.summary()
    a = tracer.arrays()
    roots = a["parent"] < 0
    root_time = float((a["end"] - a["start"])[roots].sum())
    self_total = sum(g["self_s"] for g in s["groups"].values())
    assert self_total == pytest.approx(root_time, rel=1e-9)
    assert sum(s["modules"].values()) == pytest.approx(root_time, rel=1e-9)
    assert s["groups"]["cli.main"]["calls"] == 1
    assert s["groups"]["verify.structure"]["calls"] == 1


def test_child_environment_drops_seed_override_and_thread_settings(monkeypatch):
    monkeypatch.setenv("SCHURBLOCK_SEED", "5")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    env = run.child_env()
    assert "SCHURBLOCK_SEED" not in env and "OPENBLAS_NUM_THREADS" not in env
    assert run.child_env(OPENBLAS_NUM_THREADS="1")["OPENBLAS_NUM_THREADS"] == "1"
