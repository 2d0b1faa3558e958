"""Command-line front end for the verification suite.

Subcommands:
  verify       run the randomized property suite for one configuration,
               on complex Ginibre draws (see ``instances``)
  replay       run a single checker on a stored instance file
  emit-system  dump V, F, Q (and, given an instance, lambda(A) and A)

Exit codes: 0 success / all properties passed, 1 verification failure
(a property failed, or the judge failed one of its controls and wrote
one ``error: judge control failed: <relation>`` line on stderr),
2 configuration or usage error (bad ranges, unknown, repeated or no
property, a tolerance that is not finite and nonnegative, shape
mismatch), 3 bad input (I/O or parse error, or an entry of an instance
file that is not a finite number). A wrong implementation fails its
properties with 1 and never exits 3: a kernel gives NaN for a matrix
with a NaN or infinite entry that a checker built, and the judge fails
that NaN. Property ids, their default tolerances and the --tol.<id>
flags all come from ``verify.PROPERTIES``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from collections.abc import Mapping
from dataclasses import astuple, dataclass, field, fields

from . import __version__
from .blocks import block_matrix_from_json, json_chunks
from .errors import JudgeError, ShapeError
from .instances import mix64, sample_chunk
from .stinespring import StinespringSystem, build_lambda, triple_dim
from .verify import PROPERTIES, PropertyResult, merge_results, run_property

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

MAX_N = 8
MAX_D = 4
MAX_K = 3

# the suite runs its trials in chunks sized by one nominal complex operator
# per trial, the n*d*n square or the flattened level-k pair, at this many bytes:
# 256 trials at (n, d) = (4, 2), 4 at (8, 4), 1820 at (n, d, k) = (1, 4, 3).
# No trial builds the square, only n*d-wide strips: it is a nominal size
CHUNK_BYTES = 4 << 20

# --out files are opened with this buffer. A piece longer than the buffer
# bypasses it and costs its own write(2), and the 1,024-pair pieces of an
# (8, 4) emit-system dump run to 48-109 KB: the default few-KiB buffer makes
# 207 raw writes per 9 MB dump, 256 KiB (two to five pieces) 36.
# A 1 MiB buffer was no faster
WRITE_BUFFER = 1 << 18


class ConfigError(ValueError):
    """Invalid suite configuration, rejected before any allocation."""


def _check_tolerance(property_id: str, tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(
            f"tolerance for {property_id!r} must be finite and nonnegative, got {tol}")


@dataclass(frozen=True)
class TrialConfig:
    """Dimensions, trial counts, seed and tolerances for one suite run."""

    n: int = 4
    d: int = 2
    k: int = 2
    trials: int = 200
    seed: int = 42
    tolerances: dict = field(default_factory=dict)
    properties: tuple = tuple(PROPERTIES)

    def __post_init__(self):
        if not 1 <= self.n <= MAX_N:
            raise ConfigError(f"n must be in 1..{MAX_N}, got {self.n}")
        if not 1 <= self.d <= MAX_D:
            raise ConfigError(f"d must be in 1..{MAX_D}, got {self.d}")
        if not 1 <= self.k <= MAX_K:
            raise ConfigError(f"k must be in 1..{MAX_K}, got {self.k}")
        if self.trials < 0:
            raise ConfigError(f"trials must be nonnegative, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        props = tuple(self.properties)
        if not props:
            raise ConfigError("no properties selected")
        for i, p in enumerate(props):
            if p not in PROPERTIES:
                raise ConfigError(f"unknown property {p!r}")
            if p in props[:i]:
                raise ConfigError(f"property {p!r} selected twice")
        object.__setattr__(self, "properties", props)
        for p, t in self.tolerances.items():
            if p not in PROPERTIES:
                raise ConfigError(f"tolerance given for unknown property {p!r}")
            _check_tolerance(p, t)

    def tolerance_for(self, property_id: str) -> float:
        return self.tolerances.get(property_id, PROPERTIES[property_id].tol)

    def as_dict(self) -> dict:
        return dict({f.name: getattr(self, f.name) for f in fields(self)},
                    properties=list(self.properties),
                    tolerances={p: self.tolerance_for(p) for p in self.properties})


@dataclass(frozen=True)
class VerificationReport:
    config: TrialConfig
    results: list

    @property
    def passed(self) -> bool:
        return all(r.failures == 0 for r in self.results)

    def as_dict(self) -> dict:
        return {
            "config": self.config.as_dict(),
            "results": [r.as_dict() for r in self.results],
            "pass": self.passed,
            "version": __version__,
        }


def chunk_trials(n: int, d: int, k: int) -> int:
    """Trials per chunk: as many as fit CHUNK_BYTES in their largest operator each."""
    return CHUNK_BYTES // (16 * max(triple_dim(n, d), n * k * d) ** 2)


def run_suite(config: TrialConfig) -> VerificationReport:
    """Run every selected property over seeded random trials.

    Trial t draws A, B and the level-k pair, in that fixed order, from a
    generator seeded with mix64(config.seed, t), so any recorded
    worst_seed regenerates its instance exactly. The trials run in chunks
    of ``chunk_trials(n, d, k)``: ``sample_chunk`` stacks a chunk's draws
    along a leading trial axis, and each property runs once per chunk, on
    those stacks, and is judged there; ``merge_results`` folds the chunks,
    summing their ``seconds``. ``cb_level`` runs on the level-k pair
    regrouped at block size k*d, the rest on A and B.
    """
    per_property: dict[str, list[PropertyResult]] = {p: [] for p in config.properties}
    step = chunk_trials(config.n, config.d, config.k)
    for first in range(0, config.trials, step):
        seeds = [mix64(config.seed, t)
                 for t in range(first, min(first + step, config.trials))]
        x, level_k = sample_chunk(seeds, config.n, config.d, config.k)
        for p in config.properties:
            per_property[p].append(run_property(
                p, level_k if p == "cb_level" else x,
                tol=config.tolerance_for(p), seeds=seeds))
    results = [merge_results(per_property[p]) for p in config.properties
               if per_property[p]]
    return VerificationReport(config=config, results=results)


def _load_instance(path: str) -> dict:
    """Parse an instance file: a JSON object with at least field "A"."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or "A" not in obj:
        raise ValueError('instance file must be an object with at least field "A"')
    return obj


def replay_instance(path: str, property_id: str,
                    tol: float | None = None) -> PropertyResult:
    """Run one checker on a stored {"A": ..., "B": ...} file.

    Any other key is ignored, so older files that also hold two random
    vectors replay as they are.
    """
    if property_id not in PROPERTIES:
        raise ConfigError(f"unknown property {property_id!r}")
    if tol is not None:
        _check_tolerance(property_id, tol)
    obj = _load_instance(path)
    x = {key: block_matrix_from_json(obj[key], field=key)
         for key in ("A", "B") if key in obj}
    # at most a suite instance: cb_level's level-k pair has block size k*d
    for key in ("A", "B"):
        if key in x and not (x[key].n <= MAX_N and x[key].d <= MAX_K * MAX_D):
            raise ConfigError(
                f"{key} has (n={x[key].n}, d={x[key].d}); replay takes n in "
                f"1..{MAX_N} and d in 1..{MAX_K * MAX_D}")
    return run_property(property_id, x, tol=tol)


class _BuiltOnAccess(Mapping):
    """A read-only mapping that calls its key's builder on each access and
    keeps no value, so a writer that takes one value at a time holds one."""

    def __init__(self, builders: dict):
        self._builders = builders

    def __getitem__(self, key):
        return self._builders[key]()

    def __iter__(self):
        return iter(self._builders)

    def __len__(self):
        return len(self._builders)


def emit_system_dict(n: int, d: int, instance_path: str | None = None) -> Mapping:
    """Dense V, F, Q for (n, d), plus lambda(A) and A when an instance is given.

    The operators, and A's ``blocks``, are ndarrays; ``blocks.json_chunks``
    writes them as grids of [re, im] pairs, so A reads back as
    ``block_matrix_to_json(A)``. The instance is read and checked here, but
    each dense operator is built on each access to its key and kept by no
    one but the caller: ``json_chunks``, which takes one key at a time, holds
    one n*d*n square at a time, not all four.
    """
    if not (1 <= n <= MAX_N and 1 <= d <= MAX_D):
        raise ConfigError(f"n must be in 1..{MAX_N} and d in 1..{MAX_D}")
    system = StinespringSystem.build(n, d)
    builders = {"n": lambda: n, "d": lambda: d, "V": lambda: system.V,
                "F": lambda: system.F, "Q": lambda: system.Q}
    if instance_path is not None:
        a = block_matrix_from_json(_load_instance(instance_path)["A"], field="A")
        if (a.n, a.d) != (n, d):
            raise ShapeError(
                f"instance has (n={a.n}, d={a.d}), requested (n={n}, d={d})"
            )
        builders["lambda_A"] = lambda: build_lambda(a)
        builders["A"] = lambda: {"blocks": a.blocks, "d": a.d, "n": a.n}
    return _BuiltOnAccess(builders)


def report_to_json(report: VerificationReport) -> str:
    return json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"


def report_to_csv(report: VerificationReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    # csv writes a float by repr, so a residual reads back bit for bit
    writer.writerow([f.name for f in fields(PropertyResult)])
    writer.writerows(astuple(r) for r in report.results)
    return buf.getvalue()


def _write_output(pieces, out: str | None):
    """Write the strings of ``pieces`` in turn to ``out``, or to stdout.

    ``out`` gets a WRITE_BUFFER buffer, so emit-system pieces reach the
    kernel in 256 KiB blocks rather than one write call each. stdout keeps
    the caller's stream and buffer: rewrapping fd 1 would bypass an
    in-process ``contextlib.redirect_stdout``, and a fallback for that
    case would be a second write path.
    """
    if out is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", encoding="utf-8", buffering=WRITE_BUFFER) as fh:
            fh.writelines(pieces)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; argparse reads
    ``COLUMNS`` when it formats help, not here."""
    parser = argparse.ArgumentParser(
        prog="schurblock",
        description="Randomized verification of the Schur block product "
                    "and its triple-tensor-space factorization.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the property suite")
    # the defaults are TrialConfig's, the ranges the ones it enforces
    pv.add_argument("--n", type=int, default=TrialConfig.n,
                    help=f"block rows/cols (1..{MAX_N})")
    pv.add_argument("--d", type=int, default=TrialConfig.d,
                    help=f"block dimension (1..{MAX_D})")
    pv.add_argument("--k", type=int, default=TrialConfig.k,
                    help=f"lift level (1..{MAX_K})")
    pv.add_argument("--trials", type=int, default=TrialConfig.trials)
    pv.add_argument("--seed", type=int, default=TrialConfig.seed,
                    help="suite seed")
    pv.add_argument("--properties", default=None,
                    help="comma-separated property ids (default: all)")
    for prop, spec in PROPERTIES.items():
        pv.add_argument(f"--tol.{prop}", type=float, default=None,
                        dest=f"tol_{prop}", metavar="TOL",
                        help=f"tolerance for {prop} (default {spec.tol:g})")
    pv.add_argument("--out", default=None, help="write the report here")
    pv.add_argument("--format", choices=("json", "csv"), default="json")
    pv.set_defaults(run=_cmd_verify)

    pr = sub.add_parser("replay", help="re-run one checker on a stored instance")
    pr.add_argument("instance", help="instance JSON file")
    pr.add_argument("--property", required=True, choices=tuple(PROPERTIES))
    pr.add_argument("--tol", type=float, default=None)
    pr.set_defaults(run=_cmd_replay)

    pe = sub.add_parser("emit-system", help="dump V, F, Q (and lambda(A) and A) as JSON")
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--d", type=int, required=True)
    pe.add_argument("--instance", default=None,
                    help="optional instance file; adds lambda(A) and A to the dump")
    pe.add_argument("--out", default=None)
    pe.set_defaults(run=_cmd_emit_system)

    return parser


def _cmd_verify(args) -> int:
    tolerances = {p: t for p in PROPERTIES
                  if (t := getattr(args, f"tol_{p}")) is not None}
    properties = tuple(PROPERTIES) if args.properties is None else tuple(
        p.strip() for p in args.properties.split(",") if p.strip()
    )
    config = TrialConfig(
        n=args.n, d=args.d, k=args.k, trials=args.trials, seed=args.seed,
        tolerances=tolerances, properties=properties,
    )
    report = run_suite(config)
    text = report_to_json(report) if args.format == "json" else report_to_csv(report)
    _write_output([text], args.out)
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED


def _cmd_replay(args) -> int:
    result = replay_instance(args.instance, args.property, args.tol)
    status = "PASS" if result.passed else "FAIL"
    print(f"property={result.property_id} residual={result.worst_residual:.6e} "
          f"tolerance={result.tolerance_used:.6e} result={status}")
    return EXIT_OK if result.passed else EXIT_VERIFICATION_FAILED


def _cmd_emit_system(args) -> int:
    out = emit_system_dict(args.n, args.d, args.instance)
    _write_output(json_chunks(out), args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except JudgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    except json.JSONDecodeError as exc:
        print(f"error: cannot parse JSON: {exc.msg} at line {exc.lineno} "
              f"column {exc.colno}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        # schema violations inside instance files carry the offending field
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
