import numpy as np

from schurblock import BlockMatrix, operator_to_json, unflatten


def scalar_bm(rows) -> BlockMatrix:
    """Scalar matrix as a d=1 block matrix."""
    a = np.asarray(rows, dtype=np.complex128)
    return unflatten(a, a.shape[0], 1)


def random_bm(rng, n, d) -> BlockMatrix:
    """Plain complex Gaussian block matrix, entries O(1)."""
    g = (rng.standard_normal((n * d, n * d))
         + 1j * rng.standard_normal((n * d, n * d))) / np.sqrt(2 * n * d)
    return unflatten(g, n, d)


def as_json_lists(value):
    """value with each ndarray, at any depth of nested dicts, as its
    nested [re, im] lists: what ``json_chunks`` must write, for json.dumps."""
    if isinstance(value, dict):
        return {k: as_json_lists(v) for k, v in value.items()}
    return operator_to_json(value) if isinstance(value, np.ndarray) else value
