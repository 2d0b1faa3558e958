import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import schurblock

INIT = Path(schurblock.__file__)


def imported_public_names() -> set:
    """Names bound by the ``from .x import ...`` statements of __init__.py."""
    tree = parse(INIT)
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_name_in_all_resolves():
    assert len(schurblock.__all__) == len(set(schurblock.__all__))
    missing = [name for name in schurblock.__all__ if not hasattr(schurblock, name)]
    assert missing == []


def test_every_imported_public_name_is_in_all():
    assert sorted(imported_public_names() - set(schurblock.__all__)) == []


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def referenced_names(tree: ast.AST) -> set:
    """Names a syntax tree loads, imports, reads as an attribute or spells
    as a string.

    A ``def``, a ``class`` or an assignment binds a name without loading it,
    so a module's own definitions do not count as references to them.
    """
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def test_every_public_name_is_used_outside_tests():
    # a public name whose only callers are tests is code kept for the tests
    root = INIT.parents[2]
    files = [p for p in INIT.parent.glob("*.py") if p != INIT]
    files += [*(root / "demos").glob("*.py"), *(root / "perfbench").glob("*.py")]
    used = set().union(*(referenced_names(parse(p)) for p in files))
    assert sorted(set(schurblock.__all__) - used) == []


def test_no_checker_reads_the_property_table():
    # tolerances belong to the judge: a verify_<id> measures its residual
    # without reading PROPERTIES
    readers = [node.name for node in parse(INIT.parent / "verify.py").body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("verify_")
               and "PROPERTIES" in referenced_names(node)]
    assert readers == []


def test_only_the_judges_rules_form_residuals():
    # a checker returns named claims and the judge's rules alone divide,
    # take gap norms, prove and take eigenvalues; only the fold and the
    # controls call the judge, so a verify_<id> that judges its own claims
    # or hand-codes a residual fails here; the Cholesky proof is _judge's
    readers = {name: [] for name in ("ratio", "gap_norm", "_judge", "_proves_psd",
                                     "hermitian_min_eig", "_residual")}
    checkers = []
    for node in parse(INIT.parent / "verify.py").body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        refs = referenced_names(node)
        for name, found in readers.items():
            if name in refs:
                found.append(getattr(node, "name", type(node).__name__))
        if isinstance(node, ast.FunctionDef) and node.name.startswith("verify_"):
            checkers.append(node.name)
    assert readers == {
        "ratio": ["_equal", "_same", "_at_most", "_psd"],
        "gap_norm": ["_equal"],
        "_judge": ["_at_most", "_psd"],
        "_proves_psd": ["_judge"],
        "hermitian_min_eig": ["_psd"],
        "_residual": ["_check_judge", "worst_residual"],
    }
    # no verify_<id> is among the readers of any of these
    assert len(checkers) == 9, checkers


# Run in an isolated interpreter: importing perfbench's tracer puts the
# checkout's src and perfbench on sys.path, which must not leak into the
# test process. Prints the targets that do not resolve to a callable.
RESOLVE_TRACER_TARGETS = """
import functools, importlib, json, pathlib, sys
sys.path.insert(0, sys.argv[1])
import tracer
src = pathlib.Path(sys.argv[1]).parent / "src"
missing = []
for module_name, attr, _ in tracer.TARGETS:
    module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
    assert pathlib.Path(module.__file__).is_relative_to(src), module.__file__
    target = functools.reduce(lambda o, a: getattr(o, a, None), attr.split("."), module)
    if not callable(target):
        missing.append(f"{module_name}.{attr}")
print(json.dumps(missing))
"""


def test_every_tracer_target_resolves():
    # perfbench/tracer.py wraps its TARGETS by name: a target deleted or
    # renamed here would break a traced benchmark run, so it fails tier-1
    perfbench = INIT.parents[2] / "perfbench"
    p = subprocess.run([sys.executable, "-I", "-c", RESOLVE_TRACER_TARGETS, str(perfbench)],
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout) == []


# The verdicts line of scripts/report_digest.py: each verify result's
# trials and failures and each replay's PASS or FAIL, over its fixed
# configs. A change that moves only residual bits keeps it.
REPORT_VERDICTS = "dc08842ca8df16a16d0dac55052a81a8bda57a9d6f51bbb0ac46ef79f213d613  verdicts"


def test_report_verdicts_are_pinned():
    root = INIT.parents[2]
    p = subprocess.run([sys.executable, str(root / "scripts" / "report_digest.py"),
                        str(root / "src")], capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr
    assert REPORT_VERDICTS in p.stdout.splitlines()


def test_version_is_declared_once():
    # pip reads pyproject's version and reports print __version__: the
    # first is read from the second, so they cannot drift apart
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((INIT.parents[2] / "pyproject.toml").read_text())
    assert "version" not in project["project"]
    assert "version" in project["project"]["dynamic"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "schurblock.__version__"}
