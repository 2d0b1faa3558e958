import json
import re
from collections.abc import Mapping

import numpy as np
import pytest

from schurblock import BlockMatrix, operator_to_json, unflatten
from schurblock import verify

# The judge's controls run once per process, on its first run_property
# call. Run them here, before any test, so that no test that counts kernel
# calls (SVDs, eigensolves, builders) counts theirs
verify._check_judge()


def scalar_bm(rows) -> BlockMatrix:
    """Scalar matrix as a d=1 block matrix."""
    a = np.asarray(rows, dtype=np.complex128)
    return unflatten(a, a.shape[0], 1)


def random_bm(rng, n, d) -> BlockMatrix:
    """Plain complex Gaussian block matrix, entries O(1)."""
    g = (rng.standard_normal((n * d, n * d))
         + 1j * rng.standard_normal((n * d, n * d))) / np.sqrt(2 * n * d)
    return unflatten(g, n, d)


def random_lift(rng, k, n, d) -> BlockMatrix:
    """k-by-k grid of ``random_bm`` draws, stacked over (k, k) as one lift."""
    return BlockMatrix(n, d, np.array([[random_bm(rng, n, d).blocks for _ in range(k)]
                                       for _ in range(k)]))


def outer_lift(grid, x: BlockMatrix) -> BlockMatrix:
    """The lift whose entry (p, q) is grid[p][q] times x."""
    return BlockMatrix(x.n, x.d, np.multiply.outer(grid, x.blocks))


# one [re, im] pair as the dump writes it, over its lines
PAIR_TEXT = re.compile(r"\[\s+[^\s\[\],]+,\s+[^\s\[\],]+\s+\]")


def as_json_lists(value):
    """value with each ndarray, at any depth of nested mappings, as its
    nested [re, im] lists: what ``json_chunks`` must write, for json.dumps."""
    if isinstance(value, Mapping):
        return {k: as_json_lists(v) for k, v in value.items()}
    return operator_to_json(value) if isinstance(value, np.ndarray) else value


def assert_same_text(text: str, want: str) -> None:
    """text == want. A mismatch names its first differing line: pytest's
    own diff of two texts of thousands of lines runs for minutes."""
    if text != want:
        got, ref = text.split("\n"), want.split("\n")
        i = next(i for i, (g, w) in enumerate(zip(got + [None], ref + [None]))
                 if g != w)
        pytest.fail(f"line {i + 1} is {got[i:i + 1]}, not {ref[i:i + 1]} "
                    f"({len(got)} lines, not {len(ref)})", pytrace=False)


def assert_stdlib_dump(text: str, obj) -> None:
    """text is ``json.dumps(as_json_lists(obj), indent=2, sort_keys=True)``
    plus a newline (``assert_same_text``)."""
    assert_same_text(text, json.dumps(as_json_lists(obj), indent=2, sort_keys=True) + "\n")


def svd_shapes(monkeypatch) -> list:
    """The matrix shape, the last two axes, of each ``np.linalg.svd`` call
    from now on."""
    shapes = []
    svd = np.linalg.svd

    def recorded(x, *args, **kwargs):
        shapes.append(np.shape(x)[-2:])
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return shapes
