"""schurblock benchmark: one workload, end to end or traced by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-max --seed 7 --seconds 10 --trace 0

The workload runs in a child process (``workload.py``) that drives
``schurblock.cli.main`` in process, in a closed loop with one client, on
inputs made from ``--seed``. Every output is checked. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps the package's public
functions from outside it and reports the per-layer metrics instead.
The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The line before it, prefixed ``perfbench:``, carries the machine, the
output digest, sample counts, the issue-named metrics and, for
verify-max, the single-thread reference. Full results and the spans of a
traced run are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workload import PROPERTIES, WORKLOADS, monotonic  # noqa: E402

SETUP_PROBES = 9            # set-up is the median of this many fresh children
ONE_THREAD_CALLS = 3        # single-thread verify-max calls, after one warm-up
CHILD_TIMEOUT_S = 150       # a run is stopped well inside 180 s
PROBE_TIMEOUT_S = 10
# Variables of the caller that would change what the program computes or
# how many BLAS threads it uses. SCHURBLOCK_SEED overrides --seed in verify.
SCRUBBED_ENV = ("SCHURBLOCK_SEED", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")
SPECTRAL_DIMS = (2, 4, 8, 16, 32, 96, 256)
MODULES = ("cli", "instances", "stinespring", "verify", "linalg", "blocks")


def child_env(**extra) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env.update(extra)
    return env


def run_child(args: list[str], env: dict, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run workload.py isolated (-I) and return its last stdout line as JSON."""
    cmd = [sys.executable, "-I", str(HERE / "workload.py"), *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"perfbench: child {args[0]} timed out after {timeout} s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"perfbench: child {args[0]} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure_setup(name: str, env: dict) -> list[float]:
    """Spawn-to-ready seconds of fresh children: import plus system build.

    One unmeasured child runs first, so the byte-code cache is warm, as it
    is for a user on every run after the first.
    """
    w = WORKLOADS[name]
    probe = ["probe", "--n", str(w.n), "--d", str(w.d)]
    run_child(probe, env, PROBE_TIMEOUT_S)
    times = []
    for _ in range(SETUP_PROBES):
        t0 = monotonic()
        times.append(run_child(probe, env, PROBE_TIMEOUT_S)["ready"] - t0)
    return times


def end_to_end(name: str, res: dict, setup: list[float]) -> tuple[dict, dict]:
    """The gated metrics, and the issue-named metrics printed beside them."""
    w = WORKLOADS[name]
    ops = res["untraced"]
    rss_mb = res["peak_rss_kb"] / 1024
    gated = {
        "setup_s": (statistics.median(setup), "s"),
        "op_cost_ref": (ops["op_cost_ref"], "ref"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    named = {
        "setup_s": (statistics.median(setup), "s"),
        "op_cost_ref": (ops["op_cost_ref"], "ref"),
        "peak_rss_mb": (rss_mb, "MB"),
        "fail_ratio": (res["failed"] / res["attempted"], "ratio"),
    }
    if w.kind == "verify":
        named["trials_per_s"] = (ops["units_per_s"], "1/s")
        named["trial_ms_p50"] = (ops["op_ms_p50"], "ms")
    elif w.kind == "replay":
        named["replay_ms_p50"] = (ops["op_ms_p50"], "ms")
        named["replay_ms_p90"] = (ops["op_ms_p90"], "ms")
    else:
        named["emit_s_p50"] = (ops["op_ms_p50"] / 1e3, "s")
    return gated, named


def per_layer(res: dict) -> dict:
    """Per-op layer metrics from the traced phase.

    An op is the workload's unit: a trial on the verify workloads, a CLI
    call on replay and emit. Every name exists on every workload; a layer
    the workload never enters reads 0.
    """
    tr, ops = res["trace"], res["traced"]
    units = ops["units"]
    groups = tr["groups"]
    norm = {int(k): v for k, v in tr["norm"].items()}

    def g(group, field):
        return groups[group][field] / units

    norm_calls = sum(v["calls"] for v in norm.values())
    norm_zero = sum(v["zero_calls"] for v in norm.values())
    m = {}
    for dim in SPECTRAL_DIMS:
        at = norm.get(dim, {"calls": 0, "s": 0.0})
        m[f"linalg.spectral_norm.calls.{dim}"] = (at["calls"] / units, "calls/op")
        m[f"linalg.spectral_norm.s.{dim}"] = (at["s"] / units, "s/op")
    m["linalg.spectral_norm.calls"] = (g("linalg.spectral_norm", "calls"), "calls/op")
    m["linalg.spectral_norm.s"] = (g("linalg.spectral_norm", "s"), "s/op")
    m["linalg.spectral_norm.zero_calls"] = (norm_zero / units, "calls/op")
    m["linalg.spectral_norm.zero_input_ratio"] = (
        norm_zero / norm_calls if norm_calls else 0.0, "ratio")
    m["linalg.eig.calls"] = (g("linalg.eig", "calls"), "calls/op")
    m["linalg.eig.s"] = (g("linalg.eig", "s"), "s/op")
    for p in PROPERTIES:
        m[f"verify.{p}.s_per_trial"] = (g(f"verify.{p}", "s"), "s/op")
        m[f"verify.{p}.self_s_per_trial"] = (g(f"verify.{p}", "self_s"), "s/op")
    m["stinespring.build_system.calls"] = (g("stinespring.build_system", "calls"),
                                           "calls/op")
    m["stinespring.build_system.s"] = (g("stinespring.build_system", "s"), "s/op")
    for b in ("lambda", "rho", "sigma"):
        m[f"stinespring.build_{b}.s_per_trial"] = (g(f"stinespring.build_{b}", "s"),
                                                   "s/op")
    m["blocks.blockmatrix_init.calls"] = (g("blocks.blockmatrix_init", "calls"),
                                          "calls/op")
    for b in ("blockmatrix_init", "schur_block_product", "block_matmul",
              "json_decode", "json_encode"):
        m[f"blocks.{b}.s"] = (g(f"blocks.{b}", "s"), "s/op")
    m["instances.sample.calls"] = (g("instances.sample", "calls"), "calls/op")
    m["instances.sample.s_per_trial"] = (g("instances.sample", "s"), "s/op")
    m["cli.run_suite.self_s_per_trial"] = (g("cli.run_suite", "self_s"), "s/op")
    m["cli.replay.self_ms"] = (g("cli.replay", "self_s") * 1e3, "ms/op")
    m["cli.emit.serialize_s"] = (tr["emit_serialize_s"] / units, "s/op")
    for mod in MODULES:
        m[f"module.{mod}.self_s_per_trial"] = (tr["modules"][mod] / units, "s/op")
    m["trace.spans_per_op"] = (tr["spans"] / units, "spans/op")
    m["trace.overhead_ratio"] = (ops["op_cost_ref"] / res["untraced"]["op_cost_ref"] - 1,
                                 "ratio")
    m["trace.overhead_ms_per_op"] = (
        ops["wall_s"] / units * 1e3
        - res["untraced"]["wall_s"] / res["untraced"]["units"] * 1e3, "ms/op")
    return m


def as_metrics(pairs: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in pairs.items()}


def main() -> int:
    p = argparse.ArgumentParser(description="schurblock benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if not (ROOT / "src" / "schurblock" / "cli.py").is_file():
        print(f"perfbench: no schurblock sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = child_env()
    try:
        setup = [] if args.trace else measure_setup(args.workload, env)
        res = run_child([
            "run", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir),
            "--spans", str(OUT / f"{args.workload}.spans.npz"),
        ], env)
        one_thread = None
        if args.workload == "verify-max" and not args.trace:
            one_thread = run_child([
                "one-thread", "--workload", args.workload, "--seed", str(args.seed),
                "--calls", str(ONE_THREAD_CALLS), "--workdir", str(workdir),
            ], child_env(OPENBLAS_NUM_THREADS="1"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if one_thread is not None and one_thread["failed"]:
        res["problems"].append(f"single-thread reference: {one_thread['failed']} failed")
    if args.trace:
        metrics, named = per_layer(res), {}
    else:
        metrics, named = end_to_end(args.workload, res, setup)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client, one child process",
        "machine": res["machine"],
        "digest": res["digest"],
        "problems": res["problems"],
        "untraced": res["untraced"],
        "traced": res.get("traced"),
        "setup_samples_s": setup,
        "named_metrics": as_metrics(named),
        "single_thread_reference": one_thread,
    }
    (OUT / f"{tag}.json").write_text(
        json.dumps(dict(info, metrics=as_metrics(metrics), trace=res.get("trace")),
                   indent=1), encoding="utf-8")
    print("perfbench: " + json.dumps(info))
    print(json.dumps({
        "correct": res["failed"] == 0 and not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": as_metrics(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
