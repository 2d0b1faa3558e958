"""Print a sha256 of each report that a schurblock source tree writes, and of all.

Usage: python3 scripts/report_digest.py SRC_DIR

SRC_DIR is the directory that holds the ``schurblock`` package (``src`` of
a checkout). The script runs its command line in process and hashes, in a
fixed order and each under a label:

- ``verify`` for every (n, d, k) x trials of CONFIGS and both SEEDS, once
  as JSON with each result's ``seconds`` dropped and once as CSV without
  its seconds column, each with its exit code;
- the ``replay`` line and exit code of all nine properties on the seeded
  instances of REPLAY_SHAPES;
- the ``emit-system`` bytes at (8, 4) with the (8, 4) instance, and at
  (2, 2) with an A that holds all four signed-zero pairs, a subnormal and
  1e16, so that the writer's zero-pair texts are part of the digest.

It prints one line per output, a short digest and the label, then two
sha256 lines over all of them, labels included:

- ``<sha256>  verdicts`` hashes each output's exit code, each verify
  result's ``trials`` and ``failures``, and each replay's PASS or FAIL;
- ``<sha256>  57 outputs`` hashes the outputs whole.

Two trees that print the same last line write the same reports, timings
apart; where they differ, a diff of the two printouts names the outputs
that changed, and an equal ``verdicts`` line shows that no verdict moved,
only residual bits. The residual bits depend on the LAPACK that numpy
calls, so compare two trees on one machine only.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

CONFIGS = [((8, 4, 3), 3), ((4, 2, 2), 40), ((3, 1, 1), 20), ((2, 3, 2), 20),
           ((1, 1, 1), 10), ((5, 3, 3), 5), ((1, 4, 3), 2000)]
SEEDS = (7, 11)
REPLAY_SHAPES = ((4, 2), (2, 2), (8, 4))


def _pairs(x: np.ndarray) -> list:
    return np.stack([x.real, x.imag], axis=-1).tolist()


def write_instance(path: Path, n: int, d: int) -> None:
    """A, B, xi and gamma with complex Gaussian entries, seeded by (n, d)."""
    rng = np.random.default_rng([n, d])

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    path.write_text(json.dumps({
        "A": {"n": n, "d": d, "blocks": _pairs(gauss(n, n, d, d))},
        "B": {"n": n, "d": d, "blocks": _pairs(gauss(n, n, d, d))},
        "xi": _pairs(gauss(n * d)),
        "gamma": _pairs(gauss(n * d)),
    }))


def write_zero_signs_instance(path: Path) -> None:
    """A (2, 2) instance whose A holds every sign pair of zeros, 5e-324 and 1e16."""
    pairs = [[0.0, 0.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0],
             [5e-324, -2.5], [1e16, -0.0], [-0.0, 1.0], [0.1, 0.0]]
    blocks = np.array(pairs * 2).reshape(2, 2, 2, 2, 2).tolist()
    path.write_text(json.dumps({"A": {"n": 2, "d": 2, "blocks": blocks}}))


def without_seconds(text: str, fmt: str) -> str:
    if fmt == "json":
        report = json.loads(text)
        for result in report["results"]:
            result.pop("seconds")
        return json.dumps(report, sort_keys=True)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][-1] == "seconds", rows[0]
    return "\n".join(",".join(row[:-1]) for row in rows)


def verdicts(text: str, fmt: str) -> str:
    """Each result's property, trials and failures, one line each."""
    if fmt == "json":
        rows = [(r["property_id"], r["trials"], r["failures"])
                for r in json.loads(text)["results"]]
    else:
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][:3] == ["property_id", "trials", "failures"], rows[0]
        rows = [row[:3] for row in rows[1:]]
    return "\n".join(" ".join(map(str, row)) for row in rows)


def pieces(main, properties, tmp: Path):
    """(label, bytes, verdict) of every output, in a fixed order."""
    out = tmp / "out"
    for (n, d, k), trials in CONFIGS:
        for seed in SEEDS:
            for fmt in ("json", "csv"):
                argv = ["verify", "--n", str(n), "--d", str(d), "--k", str(k),
                        "--trials", str(trials), "--seed", str(seed),
                        "--format", fmt, "--out", str(out)]
                code = main(argv)
                text = out.read_text(encoding="utf-8")
                yield (" ".join(argv[:-2]),
                       f"{code}\n{without_seconds(text, fmt)}".encode(),
                       f"{code}\n{verdicts(text, fmt)}")
    for n, d in REPLAY_SHAPES:
        path = tmp / f"instance_{n}_{d}.json"
        write_instance(path, n, d)
        for pid in properties:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(["replay", str(path), "--property", pid])
            line = buf.getvalue()
            status = "PASS" if "result=PASS" in line else "FAIL"
            yield f"replay ({n}, {d}) {pid}", f"{code}\n{line}".encode(), f"{code} {status}"
    code = main(["emit-system", "--n", "8", "--d", "4",
                 "--instance", str(tmp / "instance_8_4.json"), "--out", str(out)])
    yield "emit-system (8, 4)", f"{code}\n".encode() + out.read_bytes(), str(code)
    path = tmp / "zero_signs_2_2.json"
    write_zero_signs_instance(path)
    code = main(["emit-system", "--n", "2", "--d", "2", "--instance", str(path),
                 "--out", str(out)])
    yield ("emit-system (2, 2) signed zeros", f"{code}\n".encode() + out.read_bytes(),
           str(code))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 scripts/report_digest.py SRC_DIR", file=sys.stderr)
        return 2
    src = Path(args[0]).resolve()
    sys.path.insert(0, str(src))
    import schurblock
    from schurblock.cli import main as cli_main
    from schurblock.verify import PROPERTIES

    if not Path(schurblock.__file__).resolve().is_relative_to(src):
        print(f"error: schurblock imported from {schurblock.__file__}, not {src}",
              file=sys.stderr)
        return 2
    digest, verdict_digest = hashlib.sha256(), hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, data, verdict in pieces(cli_main, tuple(PROPERTIES), Path(tmp)):
            digest.update(f"{label}\n{len(data)}\n".encode())
            digest.update(data)
            verdict_digest.update(f"{label}\n{verdict}\n".encode())
            count += 1
            print(f"{hashlib.sha256(data).hexdigest()[:16]}  {label}")
    print(f"{verdict_digest.hexdigest()}  verdicts")
    print(f"{digest.hexdigest()}  {count} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
