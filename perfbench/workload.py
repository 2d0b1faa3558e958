"""Child process of the benchmark: one workload, or one set-up probe.

Started by ``run.py`` as ``python3 -I perfbench/workload.py ...`` with the
checkout's ``src`` put first on ``sys.path`` here, so the code under test is
the checkout's, whatever is installed. Every call goes in process through
``schurblock.cli.main``; the next call starts when the last one returns
(a closed loop with one client). The last stdout line is one JSON object.

Modes:
  probe      import schurblock, build the (n, d) system, print the
             CLOCK_MONOTONIC time at which that finished
  run        run a workload for --seconds and check every output
  one-thread a fixed number of calls, made under OPENBLAS_NUM_THREADS=1
             for the single-thread reference figure
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

PROPERTIES = (
    "factorization", "structure", "livshits", "sharpness", "sandwich",
    "cauchy_schwarz", "decomposition", "norm_lemmas", "cb_level",
)


@dataclass(frozen=True)
class Workload:
    """One named workload. ``unit`` is what one operation of it is."""

    kind: str          # "verify", "replay" or "emit"
    n: int
    d: int
    k: int = 1
    trials: int = 1    # trials per verify call
    unit: str = "call"
    kernel: str = "numpy"   # the ReferenceKernel work its op times are divided by


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "verify-default": Workload("verify", 4, 2, k=2, trials=10, unit="trial"),
    "verify-max": Workload("verify", 8, 4, k=3, trials=1, unit="trial",
                           kernel="lapack"),
    "replay": Workload("replay", 4, 2),
    "emit": Workload("emit", 8, 4),
}

SUITE_SEEDS = 4          # distinct verify seeds, cycled; repeats must agree
REPLAY_INSTANCES = 6     # instance files replayed under all nine properties
EMIT_INSTANCES = 2       # instance files emitted in turn
WINDOW_S = 0.2           # seconds of calls between two reference-kernel runs
KERNEL_SHARE = 0.05      # after a longer window, repeat the kernel for this share


def monotonic() -> float:
    """Clock shared by all processes on the machine, for spawn-to-ready."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def machine() -> dict:
    """nproc, Python, numpy, BLAS and BLAS threads as this process sees them."""
    import ctypes
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ---------------------------------------------------------------------------
# Inputs, made from the workload seed
# ---------------------------------------------------------------------------


def suite_seeds(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(63) for _ in range(SUITE_SEEDS)]


def write_instances(seed: int, w: Workload, count: int, workdir: Path,
                    with_pair: bool) -> list[Path]:
    """Instance files drawn with the library's own samplers and encoders."""
    import numpy as np

    from schurblock.blocks import block_matrix_to_json, vector_to_json
    from schurblock.instances import sample_block_matrix, sample_vector

    rng = np.random.default_rng(seed)
    paths = []
    for i in range(count):
        obj = {"A": block_matrix_to_json(sample_block_matrix(rng, w.n, w.d))}
        if with_pair:
            obj["B"] = block_matrix_to_json(sample_block_matrix(rng, w.n, w.d))
            obj["xi"] = vector_to_json(sample_vector(rng, w.n * w.d))
            obj["gamma"] = vector_to_json(sample_vector(rng, w.n * w.d))
        path = workdir / f"instance-{i}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


class Checker:
    """Counts operations and failures, and keeps the output digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict = {}
        self.emit_calls: dict = {}   # instance -> calls whose dump matched the first

    def problem(self, text: str):
        if len(self.problems) < 20:
            self.problems.append(text)

    def verify_report(self, w: Workload, seed: int, code: int, path: Path):
        """A verify call is nine property-trials per trial."""
        ops = len(PROPERTIES) * w.trials
        self.attempted += ops
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            self.failed += ops
            self.problem(f"verify seed {seed}: no report ({exc})")
            return
        cfg = report.get("config", {})
        results = report.get("results", [])
        want = {"n": w.n, "d": w.d, "k": w.k, "trials": w.trials, "seed": seed}
        bad = sum(r.get("failures", 0) for r in results)
        if (code != (0 if bad == 0 else 1) or report.get("pass") is not (bad == 0)
                or any(cfg.get(key) != v for key, v in want.items())
                or [r.get("property_id") for r in results] != list(PROPERTIES)
                or any(r.get("trials") != w.trials for r in results)):
            self.failed += ops
            self.problem(f"verify seed {seed}: exit {code}, bad report")
            return
        self.failed += bad
        if bad:
            self.problem(f"verify seed {seed}: {bad} property-trials failed")
        for r in results:
            r.pop("seconds", None)
        got = digest(report)
        first = self.digests.setdefault(seed, got)
        if got != first:
            self.failed += ops
            self.problem(f"verify seed {seed}: report differs from the first run")

    def replay_output(self, prop: str, code: int, text: str, key):
        self.attempted += 1
        ok = code == 0 and f"property={prop} " in text and "result=PASS" in text
        first = self.digests.setdefault(key, text)
        if not ok or text != first:
            self.failed += 1
            self.problem(f"replay {key}: exit {code}, output {text.strip()!r}")

    def emit_output(self, code: int, path: Path, key, keep: Path):
        self.attempted += 1
        if code != 0 or not path.exists():
            self.failed += 1
            self.problem(f"emit {key}: exit {code}")
            return
        got = file_digest(path)
        if key not in self.digests:
            self.digests[key] = got
            path.replace(keep)
        else:
            path.unlink()
            if got != self.digests[key]:
                self.failed += 1
                self.problem(f"emit {key}: output differs from the first call")
                return
        self.emit_calls[key] = self.emit_calls.get(key, 0) + 1


def check_emit_file(out_path: Path, instance_path: Path, n: int, d: int) -> str | None:
    """Independent check of one emit-system dump; returns a problem or None.

    V, F and Q are rebuilt from their index formulas, lambda(A) as
    kron(flatten(A), I_n), and the dump must equal them exactly.
    """
    import numpy as np

    def complex_grid(obj):
        a = np.asarray(obj, dtype=np.float64)
        return a[..., 0] + 1j * a[..., 1]

    try:
        out = json.loads(out_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"unreadable dump ({exc})"
    inst = json.loads(instance_path.read_text(encoding="utf-8"))
    big, small = n * d * n, n * d
    eye_n, eye_d = np.eye(n), np.eye(d)
    # basis (i, s, k) at flat index (i*d + s)*n + k
    v = np.einsum("ij,kj,st->iskjt", eye_n, eye_n, eye_d).reshape(big, small)
    f = np.einsum("il,st,kj->iskjtl", eye_n, eye_d, eye_n).reshape(big, big)
    blocks = complex_grid(inst["A"]["blocks"])            # (n, n, d, d)
    flat_a = blocks.transpose(0, 2, 1, 3).reshape(small, small)
    expected = {"V": v, "F": f, "Q": v @ v.T, "lambda_A": np.kron(flat_a, eye_n)}
    for key, want in expected.items():
        if key not in out:
            return f"missing {key}"
        got = complex_grid(out[key])
        if got.shape != want.shape or not np.array_equal(got, want):
            return f"{key} has shape {got.shape} or values different from expected"
    if out.get("A") != inst["A"] or (out.get("n"), out.get("d")) != (n, d):
        return "A, n or d do not round-trip"
    return None


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


def cli_call(argv: list[str]) -> tuple[int, str, float]:
    """One in-process CLI call: exit code, captured stdout, wall seconds."""
    from schurblock import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed operation; keep measuring
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - t0
    return code, buf.getvalue(), wall


class Loop:
    """Generates the workload's calls in a fixed cycle and checks each."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.w = WORKLOADS[name]
        self.workdir = workdir
        self.check = Checker()
        self.index = 0
        w = self.w
        if w.kind == "verify":
            self.seeds = suite_seeds(seed)
            self.cycle = len(self.seeds)
        elif w.kind == "replay":
            self.instances = write_instances(seed, w, REPLAY_INSTANCES, workdir, True)
            self.cycle = len(self.instances) * len(PROPERTIES)
        else:
            self.instances = write_instances(seed, w, EMIT_INSTANCES, workdir, False)
            self.cycle = len(self.instances)
        self.kept: dict[int, Path] = {}
        self.tracer = None

    def step(self) -> tuple[float, int]:
        """Make the next call; return its wall seconds and its units of work."""
        w, i = self.w, self.index
        self.index += 1
        if self.tracer is not None:
            self.tracer.call_id = i
        if w.kind == "verify":
            seed = self.seeds[i % len(self.seeds)]
            out = self.workdir / "report.json"
            out.unlink(missing_ok=True)
            code, _, wall = cli_call([
                "verify", "--n", str(w.n), "--d", str(w.d), "--k", str(w.k),
                "--trials", str(w.trials), "--seed", str(seed), "--out", str(out),
            ])
            self.check.verify_report(w, seed, code, out)
            return wall, w.trials
        if w.kind == "replay":
            path = self.instances[(i // len(PROPERTIES)) % len(self.instances)]
            prop = PROPERTIES[i % len(PROPERTIES)]
            code, text, wall = cli_call(["replay", str(path), "--property", prop])
            self.check.replay_output(prop, code, text, (path.name, prop))
            return wall, 1
        j = i % len(self.instances)
        out = self.workdir / "emit.json"
        code, _, wall = cli_call([
            "emit-system", "--n", str(w.n), "--d", str(w.d),
            "--instance", str(self.instances[j]), "--out", str(out),
        ])
        keep = self.workdir / f"emit-first-{j}.json"
        self.check.emit_output(code, out, j, keep)
        if keep.exists():
            self.kept[j] = keep
        return wall, 1

    def run_for(self, seconds: float, reference: "ReferenceKernel",
                min_calls: int = 0) -> list[tuple[list, float]]:
        """Closed loop for ``seconds``, cut into windows of calls.

        A window holds calls until they add up to WINDOW_S. The reference
        kernel follows it, repeated to fill KERNEL_SHARE of the window's
        time. Returns (calls, kernel seconds) per window, each call as
        (wall seconds, units of work).
        """
        windows, count = [], 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or count < min_calls:
            calls = []
            while sum(c[0] for c in calls) < WINDOW_S:
                calls.append(self.step())
            count += len(calls)
            busy = sum(c[0] for c in calls)
            windows.append((calls, reference(KERNEL_SHARE * busy)))
        return windows

    def final_checks(self):
        """Checks too heavy for the loop: the emit dumps, parsed in full."""
        w = self.w
        for j, path in sorted(self.kept.items()):
            problem = check_emit_file(path, self.instances[j], w.n, w.d)
            if problem is not None:
                # every call that wrote this same dump failed
                self.check.failed += self.check.emit_calls[j]
                self.check.problem(f"emit instance {j}: {problem}")

    def output_digest(self) -> str:
        return digest(sorted((str(k), v) for k, v in self.check.digests.items()))


class ReferenceKernel:
    """Fixed work timed after each window of calls, on the same machine.

    Shared hosts change speed by 10-50% from one fraction of a second to
    the next. An op's time divided by the kernel's time right after it
    cancels most of that drift, while any change in the program shows in
    full, since the kernel never changes. A kernel tracks the drift best
    when it does the same kind of work as the op: ``lapack`` (real 32x32
    and complex 128x128 SVDs through threaded BLAS) for verify-max, whose
    time is mostly size-256 SVDs, and ``numpy`` (small complex products
    and Kronecker products called from the interpreter) for the others.
    """

    def __init__(self, kind: str):
        import numpy as np

        rng = np.random.default_rng(20171214)
        self.small = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self.eye = np.eye(4)
        self.mid = rng.standard_normal((32, 32))
        self.big = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        self.np = np
        self.work = {"numpy": self._numpy, "lapack": self._lapack}[kind]

    def _numpy(self):
        for _ in range(100):
            self.np.kron(self.small @ self.small, self.eye)

    def _lapack(self):
        svd = self.np.linalg.svd
        for _ in range(5):
            svd(self.mid, compute_uv=False)
        svd(self.big, compute_uv=False)

    def once(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def __call__(self, budget: float = 0.0) -> float:
        """Mean seconds of one kernel run, over runs that fill ``budget``."""
        times = [self.once()]
        while sum(times) < budget:
            times.append(self.once())
        return statistics.fmean(times)


def op_stats(windows: list[tuple[list, float]]) -> dict:
    """Latency, throughput and reference-relative cost of one phase."""
    calls = [c for cs, _ in windows for c in cs]
    per_op = sorted(wall / units * 1e3 for wall, units in calls)
    cuts = statistics.quantiles(per_op, n=10, method="inclusive") if len(per_op) > 1 \
        else [per_op[0]] * 9
    wall = sum(c[0] for c in calls)
    units = sum(c[1] for c in calls)
    costs = [sum(c[0] for c in cs) / sum(c[1] for c in cs) / ref for cs, ref in windows]
    return {
        "calls": len(calls),
        "units": units,
        "windows": len(windows),
        "wall_s": wall,
        "op_ms_p50": statistics.median(per_op),
        "op_ms_p90": cuts[8],
        "units_per_s": units / wall,
        "op_cost_ref": statistics.median(costs),
        "reference_ms_p50": statistics.median(ref for _, ref in windows) * 1e3,
    }


def cmd_run(args) -> dict:
    from schurblock import cli  # noqa: F401  (import before timing)

    workdir = Path(args.workdir)
    loop = Loop(args.workload, args.seed, workdir)
    reference = ReferenceKernel(loop.w.kernel)
    reference()
    loop.step()                     # warm-up call, not timed, still checked
    untraced_s = args.seconds / 2 if args.trace else args.seconds
    result = {"untraced": op_stats(loop.run_for(untraced_s, reference, loop.cycle))}
    if args.trace:
        from tracer import Tracer

        loop.tracer = Tracer()
        with loop.tracer:
            traced = loop.run_for(args.seconds / 2, reference, 1)
        if not loop.tracer.restored():
            loop.check.problem("tracer left a wrapped binding behind")
            loop.check.failed += 1
        result["traced"] = op_stats(traced)
        result["trace"] = loop.tracer.summary()
        loop.tracer.save(Path(args.spans))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    loop.final_checks()
    result.update(
        attempted=loop.check.attempted,
        failed=loop.check.failed,
        problems=loop.check.problems,
        digest=loop.output_digest(),
        machine=machine(),
    )
    return result


def cmd_probe(args) -> dict:
    from schurblock import cli  # noqa: F401
    from schurblock.stinespring import StinespringSystem

    StinespringSystem.build(args.n, args.d)
    return {"ready": monotonic()}


def cmd_one_thread(args) -> dict:
    w = WORKLOADS[args.workload]
    loop = Loop(args.workload, args.seed, Path(args.workdir))
    loop.step()
    calls = [loop.step() for _ in range(args.calls)]
    return {
        "ms_per_unit": statistics.median(c[0] / c[1] * 1e3 for c in calls),
        "unit": w.unit,
        "failed": loop.check.failed,
        "machine": machine(),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("probe", "run", "one-thread"))
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir")
    p.add_argument("--spans")
    p.add_argument("--calls", type=int, default=2)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--d", type=int, default=2)
    args = p.parse_args()
    commands = {"probe": cmd_probe, "run": cmd_run, "one-thread": cmd_one_thread}
    print(json.dumps(commands[args.mode](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
