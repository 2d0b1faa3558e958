import collections
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import PAIR_TEXT, as_json_lists, assert_same_text, checker_residual
from schurblock import (
    block_identity,
    block_matrix,
    block_matrix_from_json,
    block_matrix_to_json,
    operator_to_json,
    sample_block_matrix,
    sample_vector,
    triple_dim,
    vector_to_json,
)
from schurblock import blocks, cli, verify
from schurblock.blocks import _PIECE_PAIRS, json_chunks
from schurblock.verify import PROPERTIES, run_property
from schurblock.cli import (
    ConfigError,
    TrialConfig,
    emit_system_dict,
    main,
    replay_instance,
    report_to_csv,
    report_to_json,
    run_suite,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")
GOLDEN = Path(__file__).resolve().parent / "golden" / "report_skeleton.json"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "schurblock", *args],
        capture_output=True, text=True, env=env,
    )


def small_config(**overrides):
    base = dict(n=2, d=1, k=1, trials=3, seed=11,
                properties=("factorization", "livshits", "cb_level"))
    base.update(overrides)
    return TrialConfig(**base)


def identity_instance(tmp_path, name="inst.json"):
    i = block_identity(2, 1)
    payload = {"A": block_matrix_to_json(i), "B": block_matrix_to_json(i)}
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def strip_timing(report_text):
    obj = json.loads(report_text)
    for r in obj["results"]:
        r.pop("seconds")
    return json.dumps(obj, sort_keys=True)


class TestTrialConfig:
    def test_ranges(self):
        with pytest.raises(ConfigError):
            TrialConfig(n=0)
        with pytest.raises(ConfigError):
            TrialConfig(n=9)
        with pytest.raises(ConfigError):
            TrialConfig(d=5)
        with pytest.raises(ConfigError):
            TrialConfig(k=4)
        with pytest.raises(ConfigError):
            TrialConfig(trials=-1)
        with pytest.raises(ConfigError):
            TrialConfig(seed=2**64)

    def test_unknown_property_rejected(self):
        with pytest.raises(ConfigError, match="unknown property"):
            TrialConfig(properties=("factorization", "bogus"))
        with pytest.raises(ConfigError, match="unknown property"):
            TrialConfig(tolerances={"bogus": 1e-8})

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        # an infinite tolerance passes every finite residual, and a report
        # holding it is not strict JSON
        with pytest.raises(ConfigError, match="must be finite and nonnegative"):
            TrialConfig(tolerances={"livshits": tol})

    def test_ensemble_setting_is_gone(self):
        # every trial is Ginibre: the old setting fails loudly, not silently
        with pytest.raises(TypeError, match="ensemble"):
            TrialConfig(ensemble="ginibre")

    def test_duplicate_and_empty_selections_rejected(self):
        with pytest.raises(ConfigError, match="'livshits' selected twice"):
            TrialConfig(properties=("livshits", "factorization", "livshits"))
        with pytest.raises(ConfigError, match="no properties"):
            TrialConfig(properties=())


class TestRunSuite:
    def test_zero_trials_vacuous_pass(self):
        report = run_suite(small_config(trials=0))
        assert report.results == []
        assert report.passed

    def test_deterministic_reports(self):
        r1 = run_suite(small_config())
        r2 = run_suite(small_config())
        assert strip_timing(report_to_json(r1)) == strip_timing(report_to_json(r2))

    def test_small_suite_passes(self):
        report = run_suite(TrialConfig(n=3, d=2, k=2, trials=5, seed=3))
        assert report.passed
        assert {r.property_id for r in report.results} == set(
            TrialConfig().properties)
        for r in report.results:
            assert r.trials == 5

    def test_csv_has_one_row_per_property(self):
        report = run_suite(small_config())
        lines = report_to_csv(report).strip().splitlines()
        assert len(lines) == 1 + 3
        assert lines[0].startswith("property_id,")


class TestReplay:
    def test_identity_pair_factorization(self, tmp_path):
        result = replay_instance(str(identity_instance(tmp_path)), "factorization")
        assert result.worst_residual == 0.0

    def test_livshits_hand_pair(self, tmp_path):
        def enc(m):
            return {"n": 2, "d": 1,
                    "blocks": [[[[[float(m[i][j]), 0.0]]] for j in range(2)]
                               for i in range(2)]}
        payload = {"A": enc([[1, 2], [3, 4]]), "B": enc([[5, 6], [7, 8]])}
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(payload))
        result = replay_instance(str(path), "livshits")
        assert result.passed

    @pytest.mark.parametrize("pid", list(PROPERTIES))
    def test_vectors_in_an_instance_file_are_ignored(self, pid, tmp_path, capsys):
        # a file that also holds the vectors xi and gamma, drawn after A and B
        # as perfbench's write_instances draws them, replays as the same file
        # without them
        rng = np.random.default_rng(29)
        a, b = (block_matrix_to_json(sample_block_matrix(rng, 3, 2)) for _ in range(2))
        xi, gamma = (vector_to_json(sample_vector(rng, 6)) for _ in range(2))
        lines = []
        for name, obj in (("pair.json", {"A": a, "B": b}),
                          ("vectors.json", {"A": a, "B": b, "xi": xi, "gamma": gamma})):
            path = tmp_path / name
            path.write_text(json.dumps(obj))
            assert main(["replay", str(path), "--property", pid]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1]
        assert lines[0].endswith(" result=PASS\n")

    def test_cb_level_checks_the_file_pair(self, tmp_path):
        # I [] I = I reaches the Livshits bound exactly, a violation of 0.0
        result = replay_instance(str(identity_instance(tmp_path)), "cb_level")
        assert result.passed
        assert result.worst_residual == 0.0
        assert result.tolerance_used == PROPERTIES["cb_level"].tol

    @pytest.mark.parametrize("n, d, code", [(9, 1, 2), (1, 13, 2), (8, 12, 0)])
    def test_instance_size_range(self, n, d, code, tmp_path, capsys):
        # n up to MAX_N, d up to MAX_K * MAX_D: cb_level's level-k pair at
        # (8, 4, 3); every property replays the largest accepted shape, so
        # structure and decomposition run the labelled proof at (8, 12)
        a = sample_block_matrix(np.random.default_rng(7), n, d)
        path = tmp_path / "size.json"
        path.write_text(json.dumps({"A": block_matrix_to_json(a),
                                    "B": block_matrix_to_json(a)}))
        for pid in PROPERTIES:
            assert main(["replay", str(path), "--property", pid]) == code, pid
            if code:
                assert "replay takes n in 1..8 and d in 1..12" in capsys.readouterr().err

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"A": {"n": 1, "d": 1}}))
        with pytest.raises(ValueError, match="missing field"):
            replay_instance(str(path), "factorization")

    @pytest.mark.parametrize("n, d, k", [(2, 1, 1), (3, 2, 2), (2, 3, 1)])
    def test_replays_the_suite_worst_instance(self, n, d, k, tmp_path, monkeypatch):
        # cb_level's instance is its level-k pair, written as A and B; the
        # suite passes a chunk of trials, stacked, with their seeds in order
        seen = {}

        def record(p, x, **kw):
            for t, seed in enumerate(kw["seeds"]):
                seen[p, seed] = {key: block_matrix(v.blocks[t]) for key, v in x.items()}
            return run_property(p, x, **kw)

        with monkeypatch.context() as m:
            m.setattr(cli, "run_property", record)
            report = run_suite(TrialConfig(n=n, d=d, k=k, trials=4, seed=5))
        assert len(report.results) == len(PROPERTIES)
        for r in report.results:
            x = seen[r.property_id, r.worst_seed]
            path = tmp_path / f"{r.property_id}.json"
            path.write_text(json.dumps({key: block_matrix_to_json(v)
                                        for key, v in x.items()}))
            replayed = replay_instance(str(path), r.property_id, r.tolerance_used)
            assert replayed.worst_residual == r.worst_residual, r.property_id


def overflowing_instance(tmp_path, pair_scale):
    """A (2, 2) pair scaled by pair_scale: finite, but its products overflow
    when the scale is 1e160."""
    rng = np.random.default_rng(160)
    a, b = (block_matrix(pair_scale * sample_block_matrix(rng, 2, 2).blocks)
            for _ in range(2))
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"A": block_matrix_to_json(a), "B": block_matrix_to_json(b)}))
    return path, {"A": a, "B": b}


# the checkers whose only products are by 0/1 operators: structure compares
# two gathers, and the other two take their norms by spectral_norm, which
# falls back to an SVD where a Gram overflows
SCALE_ROBUST = ("structure", "sharpness", "norm_lemmas")


@pytest.mark.parametrize("pid", [p for p in PROPERTIES if p not in SCALE_ROBUST])
def test_overflow_never_passes(pid, tmp_path):
    # a checker takes its inputs as given, so at 1e160 a product overflows
    # inside it: the inf or NaN reaches the judge as a NaN residual that
    # fails, never a pass and never an error, as no block matrix a checker
    # builds is checked for finiteness
    _, x = overflowing_instance(tmp_path, 1e160)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = checker_residual(pid, x)
    assert np.isnan(residual)
    assert not residual <= PROPERTIES[pid].tol


@pytest.mark.parametrize("pid", SCALE_ROBUST)
def test_scale_robust_checkers_pass_at_1e160(pid, tmp_path):
    # no product of these checkers overflows, so they judge the inputs as
    # given, and a NaN would fail
    _, x = overflowing_instance(tmp_path, 1e160)
    assert checker_residual(pid, x) <= PROPERTIES[pid].tol


@pytest.mark.parametrize("pair_scale", [1e160, 1.0])
@pytest.mark.parametrize("pid", list(PROPERTIES))
def test_finite_instance_at_scale_1e160_passes(pid, pair_scale, tmp_path):
    # every property holds on any finite instance, and run_property scales
    # each input by a power of two before any product can overflow
    path, x = overflowing_instance(tmp_path, pair_scale)
    assert run_property(pid, x).passed
    assert main(["replay", str(path), "--property", pid]) == 0


def emit_text(tmp_path, n, d, instance=None) -> str:
    """The text `emit-system` writes with --out."""
    out = tmp_path / "emit.json"
    argv = ["emit-system", "--n", str(n), "--d", str(d), "--out", str(out)]
    if instance is not None:
        argv += ["--instance", str(instance)]
    assert main(argv) == 0
    return out.read_text(encoding="utf-8")


def seeded_instance(tmp_path):
    a = sample_block_matrix(np.random.default_rng(20171), 8, 4)
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps({"A": block_matrix_to_json(a)}))
    return path


def signed_zero_instance(tmp_path, n=2, d=2):
    """An (n, d) instance whose [re, im] pairs take every sign of zero."""
    pairs = [[-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, 1.5],
             [2.0, -0.0], [-1.0, -0.0], [0.0, 0.0], [-0.0, -3.0]]
    blocks = np.array(pairs * 2).reshape(n, n, d, d, 2).tolist()
    path = tmp_path / "zeros.json"
    path.write_text(json.dumps({"A": {"n": n, "d": d, "blocks": blocks}}))
    return path


class TestEmitSystem:
    def test_contains_exact_operators(self, tmp_path):
        out = emit_system_dict(2, 1)
        assert set(out) == {"n", "d", "V", "F", "Q"}
        v = out["V"].real
        assert np.array_equal(v, [[1, 0], [0, 0], [0, 0], [0, 1]])
        assert len(out["F"]) == triple_dim(2, 1)

    @pytest.mark.parametrize("n,d,digest", [
        (1, 1, "14bd91a3f54884916d4496d02f0765cef68385bb256df22974cbe84e28813f30"),
        (2, 1, "79aca0cf61f766e19791dfc9430150b8e3ad80493ee616fee4094db51ad8471a"),
        (3, 2, "1b8beb8bb409f03e0e9fb1ff9d25e8210435be32b76eac67f80d80ef2bde5da4"),
        (8, 4, "278973922e14c85d4b4bd5e73795080ec200f4861044f878c3563f69f2ec592b"),
    ])
    def test_dump_bytes_pinned(self, n, d, digest, tmp_path):
        text = json.dumps(json.loads(emit_text(tmp_path, n, d)), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n,d,seeded,digest", [
        (1, 1, False, "920412836bf08bb4b6ad6a79a085da203ac5a58e3b561c7586c7140c546a5cce"),
        (3, 2, False, "523b35bc8e5e67adf188a4b3156f0909b43d8546015fb532c49090cbbedbf534"),
        (8, 4, False, "b2f4d38e8074b77e1365128c87b893a7dc0b04b01cb1c690bcaf8ffe2df96bf8"),
        (8, 4, True, "cae02536cbe76b13641849d519267d3ff3d1fd0ccab34b628313c34bac54fb6d"),
    ])
    def test_cli_text_pinned(self, n, d, seeded, digest, tmp_path):
        instance = seeded_instance(tmp_path) if seeded else None
        text = emit_text(tmp_path, n, d, instance)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n,d,signed_zeros", [
        (1, 1, False), (2, 1, False), (3, 2, False), (2, 2, True),
    ])
    def test_text_is_the_stdlib_indented_dump(self, n, d, signed_zeros, tmp_path):
        instance = signed_zero_instance(tmp_path, n, d) if signed_zeros else None
        out = emit_system_dict(n, d, None if instance is None else str(instance))
        lists = as_json_lists(out)
        text = emit_text(tmp_path, n, d, instance)
        assert text == json.dumps(lists, indent=2, sort_keys=True) + "\n"
        if instance is not None:
            # the dump repeats the instance bit for bit, signs of zeros included
            blocks = json.loads(instance.read_text())["A"]["blocks"]
            assert json.dumps(json.loads(text)["A"]["blocks"]) == json.dumps(blocks)

    def test_with_instance(self, tmp_path):
        path = identity_instance(tmp_path)
        out = emit_system_dict(2, 1, str(path))
        assert np.array_equal(out["lambda_A"].real, np.eye(4))

    def test_pieces_hold_at_most_piece_pairs(self, tmp_path):
        # each piece holds at most _PIECE_PAIRS whole [re, im] pairs of one
        # array, each followed by a comma or by brackets; so no piece is
        # longer than that many of the dump's longest pair lines, each with
        # one array's brackets
        path = seeded_instance(tmp_path)
        out = emit_system_dict(8, 4, str(path))
        a = block_matrix_from_json(json.loads(path.read_text())["A"])
        arrays = [(v, 1) for v in out.values() if isinstance(v, np.ndarray)]
        arrays.append((a.blocks, 2))
        longest = brackets = 0
        for v, depth in arrays:
            indent = "\n" + "  " * (depth + v.ndim)
            for pair in operator_to_json(v.reshape(-1)):
                line = indent + json.dumps(pair, indent=2).replace("\n", indent)
                longest = max(longest, len(line))
            # every bracket of the array, each on its line, and a comma
            levels = ["\n" + "  " * (depth + i) for i in range(v.ndim)]
            brackets = max(brackets, 2 * sum(len(level) + 1 for level in levels) + 1)
        pieces = list(json_chunks(out))
        assert_same_text("".join(pieces), emit_text(tmp_path, 8, 4, path))
        pairs = [len(PAIR_TEXT.findall(piece)) for piece in pieces]
        assert sum(pairs) == sum(v.size for v, _ in arrays)
        assert max(pairs) <= _PIECE_PAIRS
        assert max(map(len, pieces)) <= _PIECE_PAIRS * (longest + brackets) + brackets

    def test_out_file_takes_few_raw_writes(self, tmp_path, monkeypatch):
        # the --out file as open() builds it, over a FileIO that counts its
        # writes. With open()'s default buffer of a few KiB each piece skips
        # it, and a dump takes 207 writes; a 256 KiB buffer takes 36
        class CountingFileIO(io.FileIO):
            writes = 0

            def write(self, b):
                CountingFileIO.writes += 1
                return super().write(b)

        def counting_open(file, mode, buffering=-1, encoding=None):
            if mode != "w":  # the instance file
                return open(file, mode, buffering, encoding)
            raw = CountingFileIO(file, mode)
            # open()'s own default: the file system's block size
            size = buffering if buffering > 1 else os.fstat(raw.fileno()).st_blksize
            return io.TextIOWrapper(io.BufferedWriter(raw, size), encoding=encoding)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        text = emit_text(tmp_path, 8, 4, seeded_instance(tmp_path))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "cae02536cbe76b13641849d519267d3ff3d1fd0ccab34b628313c34bac54fb6d")
        assert 0 < CountingFileIO.writes <= 64

    @pytest.mark.parametrize("n,d,make", [(8, 4, seeded_instance),
                                          (2, 2, signed_zero_instance)])
    def test_stdout_and_out_file_bytes_agree(self, n, d, make, tmp_path):
        # stdout keeps the interpreter's buffer, --out gets its own
        instance = make(tmp_path)
        p = run_cli("emit-system", "--n", str(n), "--d", str(d),
                    "--instance", str(instance))
        assert p.returncode == 0
        emit_text(tmp_path, n, d, instance)
        assert p.stdout.encode() == (tmp_path / "emit.json").read_bytes()

    def test_memory_peak(self, tmp_path):
        # the parent route through nested [re, im] lists peaked near 78 MB
        instance = seeded_instance(tmp_path)
        tracemalloc.start()
        try:
            emit_text(tmp_path, 8, 4, instance)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_each_distinct_pair_is_formatted_once(self, tmp_path, monkeypatch):
        # A, first in key order, formats its 1,024 distinct pairs and F its
        # [1.0, 0.0]; lambda(A), Q and V find theirs in the table of known
        # pairs. Formatting each array's pairs apart would take 2,051
        formatted = []
        float_texts = blocks._float_texts

        def counting(pairs):
            formatted.append(len(pairs))
            return float_texts(pairs)

        monkeypatch.setattr(blocks, "_float_texts", counting)
        text = emit_text(tmp_path, 8, 4, seeded_instance(tmp_path))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "cae02536cbe76b13641849d519267d3ff3d1fd0ccab34b628313c34bac54fb6d")
        assert formatted == [1024, 1]

    def test_writer_memory_peak(self, tmp_path):
        # the writer's own allocations, each piece dropped as it comes (a
        # list of them would hold the whole 9 MB text): one piece for a
        # whole array, a tolist of all its floats, or a table of every tail
        # of every distinct pair (1.26 MB) exceeds this bound. The table of
        # known pairs holds about 190 KB of texts, keys and words, paid for
        # by pair ids of the smallest unsigned type; the writer peaks near
        # 0.86 MB. emit_system_dict builds each operator on access, so they
        # are built first, outside the traced writer
        out = dict(emit_system_dict(8, 4, str(seeded_instance(tmp_path))))
        tracemalloc.start()
        try:
            collections.deque(json_chunks(out), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_one_operator_alive(self, tmp_path):
        # emit_system_dict builds V, F, Q and lambda(A) each when the writer
        # reaches it, and the writer drops each once its pair texts are made,
        # so a warm (8, 4) call holds one 1 MiB n*d*n square at a time. With
        # all four built up front the call peaked at 4.26 MB; it now peaks
        # near 2.2 MB
        instance, out = seeded_instance(tmp_path), tmp_path / "emit.json"
        argv = ["emit-system", "--n", "8", "--d", "4", "--instance", str(instance),
                "--out", str(out)]
        assert main(argv) == 0  # the system and its once-per-shape proof are cached
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "cae02536cbe76b13641849d519267d3ff3d1fd0ccab34b628313c34bac54fb6d")

    def test_emit_system_dict_builds_on_access(self, tmp_path):
        # a read-only mapping: each access builds its operator anew
        out = emit_system_dict(2, 2, str(signed_zero_instance(tmp_path)))
        assert set(out) == {"n", "d", "V", "F", "Q", "lambda_A", "A"}
        assert out["F"] is not out["F"]
        assert np.array_equal(out["F"], out["F"])
        with pytest.raises(TypeError):
            out["V"] = None


class TestCommandLine:
    def test_verify_exit_zero_and_determinism(self):
        args = ("verify", "--n", "2", "--d", "1", "--k", "1",
                "--trials", "3", "--seed", "11")
        p1 = run_cli(*args)
        p2 = run_cli(*args)
        assert p1.returncode == 0, p1.stderr
        assert strip_timing(p1.stdout) == strip_timing(p2.stdout)

    def test_verify_failure_exit_code(self):
        # zero tolerance turns rounding into a reported failure
        p = run_cli("verify", "--n", "2", "--d", "2", "--k", "1",
                    "--trials", "2", "--seed", "1",
                    "--properties", "factorization", "--tol.factorization", "0")
        assert p.returncode == 1
        assert json.loads(p.stdout)["pass"] is False

    def test_config_error_exit_code(self):
        p = run_cli("verify", "--n", "99", "--trials", "1")
        assert p.returncode == 2
        assert "n must be" in p.stderr

    def test_unknown_property_exit_code(self):
        p = run_cli("verify", "--properties", "bogus", "--trials", "1")
        assert p.returncode == 2

    def test_ensemble_flag_is_gone(self):
        p = run_cli("verify", "--ensemble", "haar", "--trials", "1")
        assert p.returncode == 2
        assert "unrecognized arguments: --ensemble haar" in p.stderr

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "corrupt.json"
        bad.write_text('{"A": [1, 2')
        p = run_cli("replay", str(bad), "--property", "factorization")
        assert p.returncode == 3
        assert "line" in p.stderr

    def test_missing_file_exit_code(self, tmp_path):
        p = run_cli("replay", str(tmp_path / "nope.json"),
                    "--property", "factorization")
        assert p.returncode == 3

    def test_replay_pass_output(self, tmp_path):
        path = identity_instance(tmp_path)
        p = run_cli("replay", str(path), "--property", "factorization")
        assert p.returncode == 0
        assert "result=PASS" in p.stdout

    def test_seed_comes_only_from_flag(self):
        p = run_cli("verify", "--n", "2", "--d", "1", "--trials", "1",
                    "--seed", "5", env_extra={"SCHURBLOCK_SEED": "77"})
        assert json.loads(p.stdout)["config"]["seed"] == 5

    def test_csv_format(self):
        p = run_cli("verify", "--n", "2", "--d", "1", "--k", "1", "--trials", "2",
                    "--properties", "livshits", "--format", "csv")
        assert p.returncode == 0
        lines = p.stdout.strip().splitlines()
        assert lines[0].startswith("property_id,")
        assert lines[1].startswith("livshits,")

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        p = run_cli("verify", "--n", "2", "--d", "1", "--trials", "1",
                    "--out", str(out))
        assert p.returncode == 0
        assert json.loads(out.read_text())["pass"] is True

    def test_emit_system_cli(self, tmp_path):
        p = run_cli("emit-system", "--n", "2", "--d", "1")
        assert p.returncode == 0
        assert set(json.loads(p.stdout)) == {"F", "Q", "V", "d", "n"}

    def test_instance_that_is_not_an_object_exit_code(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        for argv in (["emit-system", "--n", "2", "--d", "1", "--instance", str(path)],
                     ["replay", str(path), "--property", "livshits"]):
            assert main(argv) == 3
            assert "must be an object" in capsys.readouterr().err

    def test_boolean_dimension_exit_code(self, tmp_path, capsys):
        # JSON true loads as bool, which isinstance() counts as the int 1
        path = tmp_path / "bool.json"
        for dims in ({"n": True, "d": 1}, {"n": 1, "d": True}):
            a = {**dims, "blocks": [[[[[1.0, 0.0]]]]]}
            path.write_text(json.dumps({"A": a}))
            for argv in (["emit-system", "--n", "1", "--d", "1",
                          "--instance", str(path)],
                         ["replay", str(path), "--property", "sandwich"]):
                assert main(argv) == 3
                assert "positive integers" in capsys.readouterr().err

    @pytest.mark.parametrize("blocks,found", [
        ([[[[[1.0, 0.0]]], [[[0.0, 0.0]]]]], "1 row(s)"),
        ([[[[[1.0, 0.0]]]], [[[[0.0, 0.0]]], [[[1.0, 0.0]]]]], "1 block(s) in row 0"),
        ([[[[[1.0, 0.0]]], [[[0.0, 0.0]]]], 7], "a value of type int as row 1"),
        ({"0": []}, "a value of type dict"),
    ])
    def test_grid_shape_error_says_what_it_found(self, blocks, found, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"A": {"n": 2, "d": 1, "blocks": blocks}}))
        for argv in (["emit-system", "--n", "2", "--d", "1", "--instance", str(path)],
                     ["replay", str(path), "--property", "sandwich"]):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.err == (
                f"error: A: blocks must be a 2-by-2 grid of blocks, got {found}\n")
            assert captured.out == ""

    @pytest.mark.parametrize("bad", ["1.5", True, None])
    @pytest.mark.parametrize("field", ["A.blocks[0][0]"])
    def test_non_number_entry_exit_code(self, bad, field, tmp_path, capsys):
        # numpy would read "1.5" as 1.5, true as 1.0 and null as NaN; each
        # is refused as bad input, whatever the property
        i = block_matrix_to_json(block_identity(1, 1))
        instance = {"A": {"n": 1, "d": 1, "blocks": [[[[[bad, 0.0]]]]]}, "B": i}
        path = tmp_path / "not_a_number.json"
        path.write_text(json.dumps(instance))
        assert main(["replay", str(path), "--property", "cauchy_schwarz"]) == 3
        captured = capsys.readouterr()
        assert f"{field}: entries must be [re, im] number pairs" in captured.err
        assert captured.out == ""

    def test_declared_dimension_is_checked_before_allocation(self, tmp_path, capsys):
        # a 1x1 block under a declared d whose (n, n, d, d) array no machine holds
        path = tmp_path / "huge_d.json"
        path.write_text(json.dumps({"A": {"n": 1, "d": 10**6, "blocks": [[[[[0, 0]]]]]}}))
        for argv in (["emit-system", "--n", "1", "--d", "1", "--instance", str(path)],
                     ["replay", str(path), "--property", "sandwich"]):
            assert main(argv) == 3
            assert ("A.blocks[0][0]: expected 1000000x1000000, got (1, 1)"
                    in capsys.readouterr().err)

    def test_duplicate_or_empty_properties_exit_code(self, capsys):
        for selection in ("livshits,livshits", ","):
            assert main(["verify", "--n", "2", "--d", "1", "--trials", "1",
                         "--properties", selection]) == 2
        assert capsys.readouterr().out == ""

    def test_replay_bad_tolerance_exit_code(self, tmp_path, capsys):
        path = identity_instance(tmp_path)
        for tol in ("-1", "nan", "inf"):
            assert main(["replay", str(path), "--property", "livshits",
                         "--tol", tol]) == 2
            assert "must be finite and nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("pid", list(PROPERTIES))
def test_every_property_is_wired_through_the_table(pid, tmp_path, capsys,
                                                   monkeypatch):
    """--tol.<id>, replay --property <id> and the needs check, for each id."""
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert re.search(rf"--tol\.{pid} TOL\s+tolerance for {pid} "
                     rf"\(default {PROPERTIES[pid].tol:g}\)", capsys.readouterr().out)

    # the table reaches verify_<id> by its module attribute, so a wrapper
    # installed there (as the benchmark's tracer does) sees the call
    seen = []
    checker = getattr(verify, f"verify_{pid}")
    monkeypatch.setattr(verify, f"verify_{pid}", lambda *args, **kwargs: (
        seen.append(pid) or checker(*args, **kwargs)))
    tol = 2 * PROPERTIES[pid].tol
    out = tmp_path / "report.json"
    assert main(["verify", "--n", "2", "--d", "1", "--k", "1", "--trials", "1",
                 "--properties", pid, f"--tol.{pid}", repr(tol),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["tolerances"] == {pid: tol}
    assert seen == [pid]

    assert main(["replay", str(identity_instance(tmp_path)), "--property", pid]) == 0
    assert f"property={pid} " in capsys.readouterr().out

    pieces = {"A": block_identity(2, 1), "B": block_identity(2, 1)}
    assert set(PROPERTIES[pid].needs) <= set(pieces)
    for missing in PROPERTIES[pid].needs:
        given = {name: v for name, v in pieces.items() if name != missing}
        with pytest.raises(ValueError, match=f"needs {missing}$"):
            run_property(pid, given)


class TestGoldenSchema:
    def test_report_schema_is_pinned(self):
        report = run_suite(small_config())
        actual = json.loads(report_to_json(report))
        golden = json.loads(GOLDEN.read_text())
        _assert_same_schema(golden, actual, path="report")


def _assert_same_schema(golden, actual, path):
    assert type(golden) is type(actual), f"{path}: {type(golden)} != {type(actual)}"
    if isinstance(golden, dict):
        assert set(golden) == set(actual), f"{path}: keys differ"
        for key in golden:
            _assert_same_schema(golden[key], actual[key], f"{path}.{key}")
    elif isinstance(golden, list):
        assert len(golden) == len(actual), f"{path}: length differs"
        for i, (g, a) in enumerate(zip(golden, actual)):
            _assert_same_schema(g, a, f"{path}[{i}]")
    elif isinstance(golden, bool) or not isinstance(golden, (int, float)):
        assert golden == actual, f"{path}: {golden!r} != {actual!r}"
