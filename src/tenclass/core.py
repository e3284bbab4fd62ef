"""Dense order-m dimension-n tensors and the multilinear algebra behind the classifiers.

Everything here is exact bookkeeping: contraction of a tensor with copies of a
vector, principal and row subtensors, entrywise algebra, index relabeling and
diagonal scalings.  All operations are pure functions over immutable values.
"""

from __future__ import annotations

import math
import string
from functools import lru_cache

import numpy as np

__all__ = [
    "Tensor",
    "as_vector",
    "as_index_set",
    "apply",
    "apply_jacobian",
    "form_value",
    "principal_subtensor",
    "row_subtensor",
    "add",
    "scale",
    "permute",
    "scale_rows",
    "scale_modes",
    "diag",
    "is_symmetric",
    "symmetrize",
    "is_nonneg",
    "is_positive",
    "max_abs",
    "tolerance",
    "unit_scale",
    "unscale",
    "falls_short",
    "clears",
]


class Tensor:
    """Immutable dense real tensor of order ``m`` and dimension ``n``.

    Entries are stored as an ``(n, ..., n)`` float64 array with ``m`` axes.
    Indices are 0-based everywhere, including in the file format.
    """

    __slots__ = ("_data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim < 1:
            raise ValueError("tensor needs at least one axis")
        n = arr.shape[0]
        if n < 1:
            raise ValueError("tensor dimension must be at least 1")
        if arr.shape != (n,) * arr.ndim:
            raise ValueError(f"tensor axes must all have equal length, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(f"non-finite entry at index {tuple(int(i) for i in bad)}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "_data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @property
    def data(self) -> np.ndarray:
        """Read-only view of the entries."""
        return self._data

    @property
    def order(self) -> int:
        return self._data.ndim

    @property
    def dim(self) -> int:
        return self._data.shape[0]

    def __repr__(self):
        return f"Tensor(order={self.order}, dim={self.dim})"

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self._data.shape == other._data.shape and bool(
            np.array_equal(self._data, other._data)
        )

    def __hash__(self):
        return hash((self._data.shape, self._data.tobytes()))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, order: int, dim: int) -> "Tensor":
        return cls(np.zeros((dim,) * order))

    @classmethod
    def ones(cls, order: int, dim: int) -> "Tensor":
        return cls(np.ones((dim,) * order))

    @classmethod
    def identity(cls, order: int, dim: int) -> "Tensor":
        """Tensor with ones on the main diagonal and zeros elsewhere."""
        return cls.diagonal(np.ones(dim), order)

    @classmethod
    def diagonal(cls, values, order: int) -> "Tensor":
        values = np.asarray(values, dtype=np.float64)
        data = np.zeros((values.size,) * order)
        data[(np.arange(values.size),) * order] = values
        return cls(data)

    @classmethod
    def from_coo(cls, order: int, dim: int, entries) -> "Tensor":
        """Build a tensor from ``[(index_tuple, value), ...]``; missing entries are 0.

        Duplicate index tuples, index components that are not integers (a
        float, string or bool) and values that are not numbers (a string, a
        bool or an integer past the float range) are rejected so that fixture
        files stay unambiguous.
        """
        if order < 1 or dim < 1:
            raise ValueError("order and dim must be positive")
        data = np.zeros((dim,) * order)
        seen = set()
        for idx, value in entries:
            idx = _integers(idx)
            if len(idx) != order:
                raise ValueError(f"index {idx} has {len(idx)} components, expected {order}")
            if any(i < 0 or i >= dim for i in idx):
                raise ValueError(f"index {idx} out of range for dim {dim}")
            if idx in seen:
                raise ValueError(f"duplicate index {idx}")
            seen.add(idx)
            data[idx] = _number(value)
        return cls(data)


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate and convert ``x`` to a finite 1-d float64 array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a vector, got array of shape {arr.shape}")
    if dim is not None and arr.size != dim:
        raise ValueError(f"dimension mismatch: vector has {arr.size}, expected {dim}")
    if not np.isfinite(arr).all():
        raise ValueError("vector has non-finite entries")
    return arr


def _integers(idx) -> tuple[int, ...]:
    """``idx`` as ints; a float, string or bool component is rejected, never truncated."""
    idx = tuple(idx)
    if any(isinstance(i, bool) or not isinstance(i, (int, np.integer)) for i in idx):
        raise ValueError(f"index {list(idx)} has a non-integer component")
    return tuple(int(i) for i in idx)


def _number(value) -> float:
    """``value`` as a float; a string, a bool or an integer past the float range is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"entry value {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("an integer entry value does not fit in a float") from None


def as_index_set(J, dim: int) -> tuple[int, ...]:
    """Normalize an index set to a sorted tuple of distinct in-range indices."""
    idx = tuple(sorted(_integers(J)))
    if not idx:
        raise ValueError("index set must be nonempty")
    if len(set(idx)) != len(idx):
        raise ValueError(f"index set {idx} has repeated indices")
    if idx[0] < 0 or idx[-1] >= dim:
        raise ValueError(f"index set {idx} out of range for dim {dim}")
    return idx


_LETTERS = string.ascii_lowercase


@lru_cache(maxsize=None)
def _apply_subscripts(order: int) -> str:
    modes = _LETTERS[: order - 1]
    return ",".join(["z" + modes] + list(modes)) + "->z"


@lru_cache(maxsize=None)
def _form_subscripts(order: int) -> str:
    modes = _LETTERS[:order]
    return ",".join([modes] + list(modes)) + "->"


@lru_cache(maxsize=None)
def _jacobian_subscripts(order: int) -> tuple[str, ...]:
    """One contraction per slot: the slot's mode stays free, the others take ``x``."""
    modes = _LETTERS[: order - 1]
    return tuple(
        ",".join(["z" + modes] + [c for c in modes if c != free]) + "->z" + free
        for free in modes
    )


def apply(A: Tensor, x) -> np.ndarray:
    """Contract ``A`` with ``m - 1`` copies of ``x``.

    Component ``i`` is the sum of ``A[i, i2, ..., im] * x[i2] * ... * x[im]``
    over all index tuples, accumulated in a fixed deterministic order.
    """
    x = as_vector(x, A.dim)
    m = A.order
    if m == 1:
        return A.data.copy()
    return np.einsum(_apply_subscripts(m), A.data, *(x,) * (m - 1))


def apply_jacobian(A: Tensor, x) -> np.ndarray:
    """Jacobian of ``y -> apply(A, y)`` at ``x`` (an ``n x n`` matrix)."""
    x = as_vector(x, A.dim)
    m = A.order
    J = np.zeros((A.dim, A.dim))
    if m == 1:
        return J
    others = (x,) * (m - 2)
    for subs in _jacobian_subscripts(m):
        J += np.einsum(subs, A.data, *others)
    return J


def form_value(A: Tensor, x) -> float:
    """Value of the degree-``m`` homogeneous form ``sum a[i1..im] x[i1]...x[im]``."""
    x = as_vector(x, A.dim)
    m = A.order
    return float(np.einsum(_form_subscripts(m), A.data, *(x,) * m))


def principal_subtensor(A: Tensor, J) -> Tensor:
    """Restriction of every index to the set ``J``; dim-1 sets give the diagonal entry."""
    J = as_index_set(J, A.dim)
    idx = np.asarray(J, dtype=np.intp)
    return Tensor(A.data[np.ix_(*([idx] * A.order))])


def row_subtensor(A: Tensor, i: int) -> Tensor:
    """Order ``m - 1`` slice fixing the first index to ``i``."""
    i = int(i)
    if i < 0 or i >= A.dim:
        raise ValueError(f"row index {i} out of range for dim {A.dim}")
    if A.order < 2:
        raise ValueError("row subtensor needs order at least 2")
    return Tensor(A.data[i])


def add(A: Tensor, B: Tensor) -> Tensor:
    _same_shape(A, B)
    return Tensor(A.data + B.data)


def scale(A: Tensor, t: float) -> Tensor:
    return Tensor(A.data * float(t))


def permute(A: Tensor, sigma) -> Tensor:
    """Relabel indices: entry ``(i1, ..., im)`` of the result is ``A[sigma(i1), ..., sigma(im)]``."""
    sigma = np.asarray(sigma, dtype=np.intp)
    if sigma.shape != (A.dim,) or sorted(sigma.tolist()) != list(range(A.dim)):
        raise ValueError(f"{sigma!r} is not a permutation of 0..{A.dim - 1}")
    return Tensor(A.data[np.ix_(*([sigma] * A.order))])


def scale_rows(A: Tensor, d) -> Tensor:
    """Multiply entry ``(i1, ..., im)`` by ``d[i1]`` (left diagonal action)."""
    d = as_vector(d, A.dim)
    shape = (A.dim,) + (1,) * (A.order - 1)
    return Tensor(A.data * d.reshape(shape))


def scale_modes(A: Tensor, d) -> Tensor:
    """Multiply entry ``(i1, i2, ..., im)`` by ``d[i2] * ... * d[im]`` (right diagonal action).

    Requires ``d > 0`` componentwise so the action is invertible on the positive cone.
    """
    d = as_vector(d, A.dim)
    if np.any(d <= 0):
        raise ValueError("mode scaling requires strictly positive d")
    data = A.data.copy()
    for axis in range(1, A.order):
        shape = [1] * A.order
        shape[axis] = A.dim
        data *= d.reshape(shape)
    return Tensor(data)


def diag(A: Tensor) -> np.ndarray:
    """The diagonal entries ``a[i, i, ..., i]`` as a vector."""
    return A.data[(np.arange(A.dim),) * A.order].copy()


@lru_cache(maxsize=None)
def _orbit_inverse(order: int, dim: int, k: int) -> np.ndarray:
    # group multi-indices by their leading indices and the sorted form of the
    # trailing k; entries in one group belong to the same orbit of the
    # permutations of the trailing k slots
    grids = np.meshgrid(*([np.arange(dim)] * order), indexing="ij")
    idx = np.stack([g.ravel() for g in grids], axis=1)
    idx[:, order - k:] = np.sort(idx[:, order - k:], axis=1)
    codes = idx @ (dim ** np.arange(order))
    _, inverse = np.unique(codes, return_inverse=True)
    return inverse


def orbit_mean(data: np.ndarray, k: int) -> np.ndarray:
    """Average each entry of a cubical array over the permutations of its last
    ``k`` indices; the result is exactly symmetric in those slots."""
    inverse = _orbit_inverse(data.ndim, data.shape[0], k)
    sums = np.bincount(inverse, weights=data.ravel())
    counts = np.bincount(inverse)
    return (sums / counts)[inverse].reshape(data.shape)


def symmetrize(A: Tensor) -> Tensor:
    """Average each permutation orbit; the result is exactly index-symmetric."""
    return Tensor(orbit_mean(A.data, A.order))


def is_symmetric(A: Tensor) -> bool:
    """True when the entries are invariant under every index permutation."""
    A, _ = unit_scale(A)
    gap = float(np.max(np.abs(A.data - symmetrize(A).data)))
    return gap <= tolerance(A, 1e-12)


def is_nonneg(A: Tensor) -> bool:
    return bool(np.all(A.data >= 0.0))


def is_positive(A: Tensor) -> bool:
    return bool(np.all(A.data > 0.0))


def max_abs(A: Tensor) -> float:
    return float(np.max(np.abs(A.data)))


def tolerance(A: Tensor, rel: float) -> float:
    """The slack of every decision and stopping test: ``rel`` times the largest
    absolute entry (1 for the zero tensor), so units never move a status."""
    return rel * (max_abs(A) or 1.0)


def unit_scale(A: Tensor) -> tuple[Tensor, int]:
    """``A * 2**-e`` and ``e``, with ``e`` chosen so the largest absolute entry
    lies in [1/2, 1) (``e = 0`` for the zero tensor).

    Every class is a cone and scaling by a power of two is exact in binary
    floating point, except that an entry it pushes below the normal range is
    rounded, so a decision made on the copy with a tolerance is the decision
    on ``A``; and no convex combination of its entries can overflow.  An
    exact sign test must read ``A`` itself: the rounding may take a subnormal
    entry to 0.
    """
    e = math.frexp(max_abs(A))[1]
    return (A if e == 0 else Tensor(np.ldexp(A.data, -e))), e


def unscale(x: float | None, e: int) -> float | None:
    """A unit-scale number ``x`` back in the units of ``A``: ``x * 2**e``, or
    None where that does not fit in a float."""
    try:
        return None if x is None else math.ldexp(x, e)
    except OverflowError:
        return None


def falls_short(q, tol: float, strict: bool):
    """The one rule of every class pair, elementwise: ``q >= 0`` fails at
    ``q < -tol``, its strict partner ``q > 0`` at ``q <= tol``.  False on NaN."""
    return q <= tol if strict else q < -tol


def clears(q, tol: float, strict: bool):
    """The pass side of the rule; a NaN neither clears nor falls short."""
    return q > tol if strict else q >= -tol


def _same_shape(A: Tensor, B: Tensor) -> None:
    if A.order != B.order or A.dim != B.dim:
        raise ValueError(
            f"shape mismatch: ({A.order}, {A.dim}) vs ({B.order}, {B.dim})"
        )
