"""Block matrices with operator entries and the Schur block product.

A BlockMatrix is an n-by-n grid of d-by-d complex blocks, stored as one
(n, n, d, d) array, or a stack of such grids, stored as one
(..., n, n, d, d) array whose leading axes index the stack (the suite's
trial axis). ``flatten`` identifies a grid with the (n*d)-by-(n*d)
operator whose ((i*d + s), (j*d + t)) entry is blocks[i, j, s, t]; this
bijection is the only index convention in the module. Every operation
here acts on each grid of a stack alone, through one numpy call for the
whole stack, and gives the same bits as on that grid by itself.

The Schur block product A [] B multiplies blocks slotwise,
(A [] B)_ij = a_ij b_ij, which for d >= 2 is associative but not
commutative. Its unit is ``schur_unit`` (every block the d-by-d identity),
distinct from ``block_identity`` (the ordinary matrix unit).
"""

from __future__ import annotations

import functools
import itertools
import json
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .linalg import as_scalar, spectral_norm


@dataclass(frozen=True, eq=False)
class BlockMatrix:
    """Square matrix of square operator blocks, or a stack of them.

    Attributes
    ----------
    n : int
        Number of block rows/columns (the finite index set is {0..n-1}).
    d : int
        Dimension of each block.
    blocks : numpy.ndarray
        Read-only (..., n, n, d, d) complex128 array; blocks[..., i, j] is
        the operator in slot (i, j). The leading axes, ``batch``, are empty
        for a single matrix.
    """

    n: int
    d: int
    blocks: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.blocks, dtype=np.complex128)
        if a.shape[max(a.ndim - 4, 0):] != (self.n, self.n, self.d, self.d):
            raise ShapeError(
                f"blocks array has shape {a.shape}, expected "
                f"{(self.n, self.n, self.d, self.d)} after any leading axes"
            )
        if self.n < 1 or self.d < 1:
            raise ShapeError(f"n and d must be positive, got n={self.n}, d={self.d}")
        if not np.isfinite(a).all():
            raise ContractError("block entries must be finite (no NaN/Inf)")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "blocks", a)

    @property
    def batch(self) -> tuple:
        """The leading (stack) axes of ``blocks``; () for a single matrix."""
        return self.blocks.shape[:-4]

    @functools.cached_property
    def unit_scaled(self) -> "BlockMatrix":
        """Each grid of the stack times a power of two (see ``_unit_scale``);
        computed once per BlockMatrix."""
        return _unchecked(self.n, self.d, _unit_scale(self.blocks))

    @functools.cached_property
    def _memo(self) -> dict:
        """Values computed from this matrix, kept as long as it is: the
        quantities the properties of one chunk share (``verify._once``)."""
        return {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockMatrix):
            return NotImplemented
        return (self.n, self.d) == (other.n, other.d) and np.array_equal(
            self.blocks, other.blocks
        )

    def __hash__(self):
        return hash((self.n, self.d, self.batch, self.blocks.tobytes()))


def _unchecked(n: int, d: int, blocks: np.ndarray) -> BlockMatrix:
    """A BlockMatrix of (..., n, n, d, d) complex blocks the package computed
    from checked ones, with no shape or finiteness pass: a NaN that a wrong
    operation makes reaches the judge, which fails it, where the constructor
    would raise. The blocks are made C-ordered, as the constructor's copy
    is, so every later kernel sees the same layout, and read-only."""
    a = np.ascontiguousarray(blocks, dtype=np.complex128)
    a.setflags(write=False)
    out = object.__new__(BlockMatrix)
    vars(out).update(n=n, d=d, blocks=a)
    return out


def _unit_scale(blocks: np.ndarray) -> np.ndarray:
    """Each (n, n, d, d) grid of blocks times 2^-e, e the frexp exponent of
    its largest |re| or |im|, so that largest is in [1/2, 1).

    ``np.ldexp`` on the float64 view makes this exact, signed zeros kept,
    and an all-zero grid stays as it is.
    """
    re_im = np.ascontiguousarray(blocks, dtype=np.complex128).view(np.float64)
    top = np.abs(re_im).max(axis=(-4, -3, -2, -1), keepdims=True)
    return np.ldexp(re_im, -np.frexp(top)[1]).view(np.complex128)


def block_matrix(blocks) -> BlockMatrix:
    """Build a BlockMatrix from an (n, n, d, d) array or nested block lists."""
    try:
        a = np.asarray(blocks, dtype=np.complex128)
    except ValueError as exc:
        raise ShapeError(f"ragged block structure: {exc}") from exc
    if a.ndim != 4:
        raise ShapeError(f"expected an (n, n, d, d) block array, got ndim={a.ndim}")
    n, m, d, e = a.shape
    if n != m or d != e:
        raise ShapeError(f"grid and blocks must be square, got shape {a.shape}")
    return BlockMatrix(n=n, d=d, blocks=a)


def unflatten(x, n: int, d: int) -> BlockMatrix:
    """Inverse of ``flatten``: carve each (n*d, n*d) matrix into d-by-d blocks."""
    a = np.asarray(x, dtype=np.complex128)
    if a.shape[max(a.ndim - 2, 0):] != (n * d, n * d):
        raise ShapeError(f"expected shape {(n * d, n * d)}, got {a.shape}")
    return BlockMatrix(n=n, d=d, blocks=_grid(a, n, d))


def _grid(a: np.ndarray, n: int, d: int) -> np.ndarray:
    """The (..., n, n, d, d) block view of (..., n*d, n*d) operators."""
    return a.reshape(*a.shape[:-2], n, d, n, d).swapaxes(-3, -2)


def flatten(a: BlockMatrix) -> np.ndarray:
    """The (..., n*d, n*d) operators with entry ((i*d + s), (j*d + t)) = blocks[..., i, j, s, t]."""
    return a.blocks.swapaxes(-3, -2).reshape(*a.batch, a.n * a.d, a.n * a.d)


def block_identity(n: int, d: int) -> BlockMatrix:
    """Ordinary identity: I_d on the diagonal slots, zero elsewhere."""
    b = np.zeros((n, n, d, d), dtype=np.complex128)
    i = np.arange(n)
    b[i, i] = np.eye(d)
    return BlockMatrix(n=n, d=d, blocks=b)


def schur_unit(n: int, d: int) -> BlockMatrix:
    """Unit of the Schur block product: every slot holds I_d."""
    b = np.zeros((n, n, d, d), dtype=np.complex128)
    b[:, :] = np.eye(d)
    return BlockMatrix(n=n, d=d, blocks=b)


def zero_block_matrix(n: int, d: int) -> BlockMatrix:
    return BlockMatrix(n=n, d=d, blocks=np.zeros((n, n, d, d), dtype=np.complex128))


def _check_same_shape(a: BlockMatrix, b: BlockMatrix):
    if (a.n, a.d) != (b.n, b.d):
        raise ShapeError(
            f"block shapes differ: (n={a.n}, d={a.d}) vs (n={b.n}, d={b.d})"
        )


def adjoint_block(a: BlockMatrix) -> BlockMatrix:
    """Adjoint of the whole matrix: slot (i, j) becomes blocks[j, i]*."""
    return _unchecked(a.n, a.d, np.conj(a.blocks.swapaxes(-4, -3).swapaxes(-2, -1)))


def schur_block_product(a: BlockMatrix, b: BlockMatrix) -> BlockMatrix:
    """Slotwise operator product: result block (i, j) = a_ij @ b_ij.

    Stacks broadcast: a single matrix multiplies every matrix of a stack.
    """
    _check_same_shape(a, b)
    return _unchecked(a.n, a.d, np.matmul(a.blocks, b.blocks))


def block_matmul(a: BlockMatrix, b: BlockMatrix) -> BlockMatrix:
    """Ordinary matrix product; flatten(block_matmul(a, b)) == flatten(a) @ flatten(b)."""
    _check_same_shape(a, b)
    return _unchecked(a.n, a.d, _grid(flatten(a) @ flatten(b), a.n, a.d))


def diag_block(a: BlockMatrix) -> BlockMatrix:
    """Zero the off-diagonal slots, keep the diagonal ones. Idempotent."""
    b = np.zeros_like(a.blocks)
    i = np.arange(a.n)
    b[..., i, i, :, :] = a.blocks[..., i, i, :, :]
    return _unchecked(a.n, a.d, b)


def _row_strips(a: BlockMatrix) -> np.ndarray:
    """The (..., n, d, n*d) block-row strips of flatten(a): strip i is
    [a_i1 ... a_in], rows i*d .. i*d + d - 1."""
    return flatten(a).reshape(*a.batch, a.n, a.d, a.n * a.d)


def row_norm(a: BlockMatrix):
    """max over i of || sum_j a_ij a_ij* ||^(1/2) = ||s_i||, the largest
    ``spectral_norm`` of a block-row strip s_i (``_row_strips``)."""
    return as_scalar(spectral_norm(_row_strips(a)).max(axis=-1))


def col_norm(a: BlockMatrix):
    """max over j of || sum_i a_ij* a_ij ||^(1/2) = ||c_j||, the largest
    ``spectral_norm`` of a strip c_j, columns j*d .. j*d + d - 1 of flatten(a)."""
    cols = flatten(a).reshape(*a.batch, a.n * a.d, a.n, a.d).swapaxes(-3, -2)
    return as_scalar(spectral_norm(cols).max(axis=-1))


# ---------------------------------------------------------------------------
# Level-k lifts
# ---------------------------------------------------------------------------


def _lift_level(xs) -> int:
    """k of the lift xs, a k-by-k grid of (n, d) block matrices stored as one
    BlockMatrix whose stack axes end in (k, k): blocks[..., p, q] is entry (p, q)."""
    if not isinstance(xs, BlockMatrix):
        raise TypeError(f"a lift must be a BlockMatrix, not {type(xs).__name__}")
    if len(xs.batch) < 2 or xs.batch[-1] != xs.batch[-2]:
        raise ShapeError(f"a lift's stack axes must end in (k, k), got {xs.batch}")
    return xs.batch[-1]


def regroup_lift(xs: BlockMatrix) -> BlockMatrix:
    """The lift xs, (n, d) grids stacked over (k, k), as (n, k*d) block matrices.

    M_k(M_n(M_d)) regroups as M_n(M_kd): d-by-d block (p, q) of slot (i, j)
    is slot (i, j) of xs.blocks[..., p, q]. The flattenings differ by a
    permutation, so the norms agree, and the level-k lift is the plain
    Schur block product of the regrouped pair.
    """
    k = _lift_level(xs)
    return BlockMatrix(n=xs.n, d=k * xs.d, blocks=_regroup(xs.blocks))


def _regroup(grids: np.ndarray) -> np.ndarray:
    """(..., k, k, n, n, d, d) lift grids as (..., n, n, k*d, k*d) blocks.

    Entry (p*d + s, q*d + t) of slot (i, j) is grids[..., p, q, i, j, s, t].
    """
    *batch, k, _, n, _, d, _ = grids.shape
    return np.moveaxis(grids, (-6, -5), (-4, -2)).reshape(*batch, n, n, k * d, k * d)


def lift_schur_k(a: BlockMatrix, b: BlockMatrix) -> BlockMatrix:
    """Level-k lift of the Schur block product.

    Entry (p, q) of the result is sum_l a[..., p, l] [] b[..., l, q],
    formed on the grids themselves, not through ``regroup_lift``, so that
    it can check the regroup. For k = 1 this is the Schur block product.
    """
    k, kb = _lift_level(a), _lift_level(b)
    if (k, a.n, a.d) != (kb, b.n, b.d):
        raise ShapeError(f"lift shapes differ: (k={k}, n={a.n}, d={a.d}) "
                         f"vs (k={kb}, n={b.n}, d={b.d})")
    products = np.matmul(np.expand_dims(a.blocks, -5), np.expand_dims(b.blocks, -7))
    return BlockMatrix(n=a.n, d=a.d, blocks=products.sum(axis=-6))  # sum over l


def flatten_lift(xs: BlockMatrix) -> np.ndarray:
    """Each lift as one (k*n*d)-square operator, nesting order (grid, i, s)."""
    k, m = _lift_level(xs), xs.n * xs.d
    return flatten(xs).swapaxes(-3, -2).reshape(*xs.batch[:-2], k * m, k * m)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------
# Schema: {"n": int, "d": int, "blocks": B} with B[i][j][s][t] == [re, im].


def _pairs(x) -> np.ndarray:
    """x as a C-ordered float64 array of [re, im] pairs, shape x.shape + (2,)."""
    a = np.ascontiguousarray(x, dtype=np.complex128)
    return a.view(np.float64).reshape(a.shape + (2,))


def operator_to_json(x) -> list:
    """Encode a matrix as nested lists of [re, im] pairs."""
    return _pairs(x).tolist()


def _from_pairs(obj, ndim: int, field: str) -> np.ndarray:
    """Inverse of ``_pairs`` for an ndim-dimensional complex array.

    Each leaf must be an int or a float: numpy would convert "1.5", true
    and null, and a bool among ints still infers an int dtype.
    """
    try:
        leaves = np.asarray(obj, dtype=object)
        if not set(map(type, leaves.flat)) <= {int, float}:
            raise TypeError("not a number")
        a = leaves.astype(np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{field}: entries must be [re, im] number pairs") from exc
    if a.ndim != ndim + 1 or a.shape[-1] != 2:
        what = "list" if ndim == 1 else f"{ndim}-D grid"
        raise ValueError(
            f"{field}: expected a {what} of [re, im] pairs, got shape {a.shape}"
        )
    # a view, not a[..., 0] + 1j * a[..., 1]: that sum turns -0.0 into 0.0
    return np.ascontiguousarray(a).view(np.complex128)[..., 0]


def operator_from_json(obj, field: str = "matrix") -> np.ndarray:
    return _from_pairs(obj, 2, field)


def vector_to_json(x) -> list:
    return _pairs(x).tolist()


def vector_from_json(obj, field: str = "vector") -> np.ndarray:
    """The finite complex vector of a list of [re, im] pairs."""
    x = _from_pairs(obj, 1, field)
    if not np.isfinite(x).all():
        raise ContractError(f"{field}: entries must be finite (no NaN/Inf)")
    return x


# the four [re, im] pairs of signed zeros, at 2*signbit(re) + signbit(im)
_ZERO_PAIRS = np.array([[0.0, 0.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]])
# pairs of text per piece of an array; with runs, 4,096 and 16,384 timed
# within noise of 1,024
_PIECE_PAIRS = 1024


def _pair_keys(words: np.ndarray) -> np.ndarray:
    """One 64-bit key per row of (m, 2) uint64 words, the same for equal rows."""
    keys = words[:, 0] * np.uint64(0x9E3779B97F4A7C15)
    keys ^= words[:, 1]
    return keys


def _float_texts(pairs: np.ndarray) -> np.ndarray:
    """The (m, 2) texts of m [re, im] pairs: ``repr``, as json writes a float."""
    return np.frompyfunc(repr, 1, 1)(pairs)


_ZERO_TEXTS = _float_texts(_ZERO_PAIRS)


class _PairTable:
    """The distinct nonzero [re, im] pairs one ``json_chunks`` call has
    formatted, in the order of their ``_pair_keys``: the keys, the pairs'
    two uint64 words and the texts of their two floats."""

    def __init__(self):
        self.keys = np.empty(0, dtype=np.uint64)
        self.words = np.empty((0, 2), dtype=np.uint64)
        self.texts = np.empty((0, 2), dtype=object)

    def find(self, words: np.ndarray):
        """(at, found) for (m, 2) uint64 words: at is where each pair's key
        sits in the table, found whether the pair there has the same 16
        bytes. A key collision is never a hit."""
        at = np.searchsorted(self.keys, _pair_keys(words))
        if not len(self.keys):
            return at, np.zeros(len(words), dtype=bool)
        np.minimum(at, len(self.keys) - 1, out=at)
        found = np.take(self.words[:, 0], at) == words[:, 0]
        found &= np.take(self.words[:, 1], at) == words[:, 1]
        return at, found

    def add(self, keys: np.ndarray, words: np.ndarray, texts: np.ndarray):
        """Merge in pairs given in key order, by insertion, with no sort."""
        at = np.searchsorted(self.keys, keys)
        self.keys = np.insert(self.keys, at, keys)
        self.words = np.insert(self.words, at, words, axis=0)
        self.texts = np.insert(self.texts, at, texts, axis=0)


def _pair_ids(value: np.ndarray, known: _PairTable):
    """(ids, floats): floats[ids] are the texts of the two floats of each
    [re, im] pair of value, ids made at its final size and in place.

    Two zeros take one of four ids by their sign bits. The nonzero pairs
    are looked up in ``known`` (``_PairTable.find``), and each known pair
    that value holds takes an id after the zeros', in table order, so its
    texts are copied, not formatted. The others are partitioned by one
    integer sort of their keys, and one starts a new id where its 16 bytes
    differ from those of the pair before it, so -0.0 and 0.0 stay apart.
    Different pairs whose keys collide may interleave in that order, which
    gives one pair several ids with equal texts, but no id ever holds two
    pairs. Their floats go through ``_float_texts`` and join ``known``.
    """
    pairs = _pairs(value).reshape(-1, 2)
    nz = np.flatnonzero(np.logical_or(pairs[:, 0], pairs[:, 1]))
    # the smallest type that holds every text id, the row ends' included
    # (``_array_chunks``)
    top = len(_ZERO_PAIRS) + nz.size + value.size // value.shape[-1]
    ids = np.signbit(pairs[:, 0]).astype(np.min_scalar_type(top))
    ids <<= 1
    ids += np.signbit(pairs[:, 1])
    at, found = known.find(np.take(pairs, nz, axis=0).view(np.uint64))
    hits = at[found]
    used = np.zeros(len(known.keys), dtype=bool)
    used[hits] = True
    rank = np.cumsum(used, dtype=ids.dtype)
    rank += len(_ZERO_PAIRS) - 1
    ids[nz[found]] = np.take(rank, hits)
    floats = [_ZERO_TEXTS, known.texts[used]]
    new = nz[~found]
    if new.size:
        keys = _pair_keys(np.take(pairs, new, axis=0).view(np.uint64))
        order = np.argsort(keys)
        keys, new = keys[order], new[order]
        words = np.take(pairs, new, axis=0).view(np.uint64)
        starts = np.empty(len(new), dtype=bool)
        starts[:1] = True
        np.any(words[1:] != words[:-1], axis=1, out=starts[1:])
        ids[new] = np.cumsum(starts) + (sum(map(len, floats)) - 1)
        texts = _float_texts(words[starts].view(np.float64))
        known.add(keys[starts], words[starts], texts)
        floats.append(texts)
    return ids.reshape(value.shape), np.concatenate(floats)


def _pair_texts(value: np.ndarray, indent: str, known: _PairTable):
    """(ids, texts): texts[ids] is the text of each [re, im] pair of value on
    its line at ``indent``. The ids are ``_pair_ids``', and each text is
    joined once from its two float texts, by object-array adds, which cost
    a third of a ``str.format`` per pair."""
    ids, floats = _pair_ids(value, known)
    inner = indent + "  "
    head, middle, tail = indent + "[" + inner, "," + inner, indent + "]"
    return ids, head + floats[:, 0] + middle + floats[:, 1] + tail


def _array_chunks(ids: np.ndarray, texts: np.ndarray, indent: str):
    """The pieces of an array's [re, im] lists by pair id, _PIECE_PAIRS pairs each.

    Each pair's text carries the text that follows it: a comma inside an
    innermost row; after the last pair of j innermost lists, their j closing
    brackets, a comma and j opening ones; after the array's last pair, every
    closing bracket. Only the pairs that end a row get texts of their own,
    so a row end also ends a run of equal ids, and each piece is one join
    over its runs, ``text * length`` each: a row of zeros is one item, not
    one per pair. Writes into both arrays: the row ends' new ids into
    ``ids``, and the commas into ``texts``.
    """
    k = ids.ndim
    levels = [indent + "  " * depth for depth in range(k)]
    # tails[j]: what follows a row that ends j lists; only the last ends k
    tails = np.empty(k + 1, dtype=object)
    for j in range(1, k + 1):
        closes = "".join(level + "]" for level in reversed(levels[k - j:]))
        opens = "".join(level + "[" for level in levels[k - j:])
        tails[j] = closes if j == k else closes + "," + opens
    rows = ids.reshape(-1, ids.shape[-1])
    # a row also ends each enclosing list whose last row it is
    ends = np.arange(1, len(rows) + 1)
    closed = np.ones(len(rows), dtype=np.intp)
    block = 1
    for length in ids.shape[-2::-1]:
        block *= length
        closed += ends % block == 0
    row_ends = texts[rows[:, -1]] + tails[closed]
    # in place, so no second set of pair texts is ever alive
    texts += ","
    rows[:, -1] = np.arange(len(texts), len(texts) + len(rows))
    table = np.concatenate([texts, row_ends])
    # runs of equal ids; a run also starts at each piece's first pair, and
    # a sentinel start at the end closes the last
    flat = ids.reshape(-1)
    firsts = np.ones(flat.size + 1, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=firsts[1:-1])
    firsts[::_PIECE_PAIRS] = True
    firsts = np.flatnonzero(firsts)
    runs = flat[firsts[:-1]]
    lengths = np.subtract(firsts[1:], firsts[:-1], dtype=np.int32)
    # piece p is runs bounds[p] to bounds[p + 1]
    bounds = np.searchsorted(firsts, [*range(0, flat.size, _PIECE_PAIRS), flat.size])
    # a generator over what the pieces need, so ids is dropped on return
    return itertools.chain(
        ["[" + "".join(level + "[" for level in levels[1:])],
        ("".join((table[runs[lo:hi]] * lengths[lo:hi]).tolist())
         for lo, hi in itertools.pairwise(bounds.tolist())))


def _chunks(value, indent: str, known: _PairTable):
    if isinstance(value, Mapping):
        inner = indent + "  "
        for i, key in enumerate(sorted(value)):
            yield f"{',' if i else '{'}{inner}{json.dumps(key)}: "
            yield from _chunks(value[key], inner, known)
        yield indent + "}"
    elif isinstance(value, np.ndarray):
        # all pairs of one array sit at one depth, so one set of texts serves
        # them; the array is let go once they are made, before its pieces
        pieces = _array_chunks(*_pair_texts(value, indent + "  " * value.ndim, known),
                              indent)
        del value
        yield from pieces
    else:
        yield json.dumps(value, indent=2, sort_keys=True).replace("\n", indent)


def json_chunks(obj: Mapping):
    """Yield, piece by piece, the text of
    ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` once each ndarray
    in obj, at any depth of nested mappings, is replaced by its
    ``operator_to_json`` lists. The mappings and arrays must be non-empty.

    With ``indent`` set, the json module runs its pure-Python encoder,
    which is slow on large operators. So each (finite, ndim >= 1) array is
    written from pair texts with no Python code per entry or per row: two
    zeros take one of four texts by their sign bits, and each other distinct
    pair, told apart by its 16 bytes, has its two floats formatted once per
    call by ``repr``, as json does. One table of the pairs formatted so far
    (``_PairTable``) lives for the call: a later array finds its known pairs
    there by one ``np.searchsorted`` and builds their texts at its own
    indent, and only its new pairs take an integer sort and ``repr``, so
    lambda(A) after A costs neither. An array's pieces are its opening
    brackets, then _PIECE_PAIRS pairs at a time, each pair with the comma or
    brackets that follow it and each run of equal pair texts written as one;
    so a caller that writes the pieces as they come holds at most that many
    pairs of text. Other values go through ``json.dumps``. Each value is read
    from its mapping once, when its text is due, and an array is let go as
    soon as its pair ids and texts are made, so a mapping that builds its
    values on access has at most one alive at a time.
    """
    yield from _chunks(obj, "\n", _PairTable())
    yield "\n"


def block_matrix_to_json(a: BlockMatrix) -> dict:
    return {"n": a.n, "d": a.d, "blocks": _pairs(a.blocks).tolist()}


def _grid_found(rows, n: int) -> str | None:
    """What a ``blocks`` field holds where an n-by-n list of lists belongs,
    or None when it is one."""
    if not isinstance(rows, list):
        return f"a value of type {type(rows).__name__}"
    if len(rows) != n:
        return f"{len(rows)} row(s)"
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            return f"a value of type {type(row).__name__} as row {i}"
        if len(row) != n:
            return f"{len(row)} block(s) in row {i}"
    return None


def block_matrix_from_json(obj, field: str = "block matrix") -> BlockMatrix:
    if not isinstance(obj, dict):
        raise ValueError(f"{field}: expected an object with n, d, blocks")
    for key in ("n", "d", "blocks"):
        if key not in obj:
            raise ValueError(f"{field}: missing field '{key}'")
    n, d = obj["n"], obj["d"]
    # type(), not isinstance(): JSON true/false load as bool, a subclass of int
    if not (type(n) is int and type(d) is int and n >= 1 and d >= 1):
        raise ValueError(f"{field}: n and d must be positive integers")
    rows = obj["blocks"]
    found = _grid_found(rows, n)
    if found is not None:
        raise ValueError(f"{field}: blocks must be a {n}-by-{n} grid of blocks, "
                         f"got {found}")
    # the grid is decoded in one conversion, which allocates only what the
    # file holds, so a d the blocks do not have allocates nothing. A grid
    # that does not come out as (n, n, d, d) blocks has a bad block; the
    # loop decodes block by block to name the first, and always raises,
    # since n*n valid d-by-d blocks convert whole
    try:
        blocks = _from_pairs(rows, 4, field)
    except ValueError:
        blocks = None
    if blocks is None or blocks.shape != (n, n, d, d):
        for i, row in enumerate(rows):
            for j, obj_ij in enumerate(row):
                block = operator_from_json(obj_ij, field=f"{field}.blocks[{i}][{j}]")
                if block.shape != (d, d):
                    raise ValueError(
                        f"{field}.blocks[{i}][{j}]: expected {d}x{d}, got {block.shape}"
                    )
    return BlockMatrix(n=n, d=d, blocks=blocks)
