"""Reference coefficient path: one simplex at a time, from its vertices.

No verdict goes through this module, and it shares no code with the engine
(``subdivision``), which the tests check against it: the longest edge is a
loop over vertex pairs, the children are built from the midpoint, and the
coefficients and point values are contractions of the tensor itself.
"""

from __future__ import annotations

import numpy as np

from .core import _LETTERS, Tensor, _same_shape, as_vector

__all__ = ["Simplex", "standard_simplex", "refine", "component_coeffs", "form_coeffs",
           "apply_batch", "form_batch", "hadamard"]


class Simplex:
    """``r`` affinely independent vertices on the standard simplex of R^r."""

    __slots__ = ("vertices", "depth")

    def __init__(self, vertices, depth: int = 0, validate: bool = True):
        vertices = np.asarray(vertices, dtype=np.float64)
        if vertices.ndim != 2:
            raise ValueError("vertices must be a 2-d array (one row per vertex)")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "depth", int(depth))
        if validate:
            self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("Simplex is immutable")

    def _validate(self):
        V = self.vertices
        if np.any(V < -1e-12):
            raise ValueError("vertex leaves the nonnegative orthant")
        if np.max(np.abs(V.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("vertex coordinates must sum to 1")
        if self.shape_measure() <= 1e-14:
            raise ValueError("degenerate simplex: vertices nearly affinely dependent")

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def diameter(self) -> float:
        V = self.vertices
        diff = V[:, None, :] - V[None, :, :]
        return float(np.sqrt((diff * diff).sum(axis=2).max()))

    def shape_measure(self) -> float:
        """Scale-free volume (Gram volume of the diameter-normalized edges).

        Zero for affinely dependent vertices; longest-edge bisection keeps it
        bounded away from zero, so a fixed threshold detects degeneracy at any
        subdivision depth.
        """
        V = self.vertices
        if V.shape[0] < 2:
            return 1.0
        d = self.diameter()
        if d <= 0.0:
            return 0.0
        E = (V[1:] - V[0]) / d
        gram = E @ E.T
        return float(np.sqrt(max(np.linalg.det(gram), 0.0)))

    def longest_edge(self) -> tuple[int, int]:
        """Vertex pair ``a < b`` of the longest edge; the first pair wins a tie."""
        V, r = self.vertices, self.num_vertices
        if r < 2:
            raise ValueError("a single point has no edge")
        best = (-1.0, 0, 1)
        for a in range(r):
            for b in range(a + 1, r):
                d = V[a] - V[b]
                best = max(best, (float(d @ d), a, b), key=lambda t: t[0])  # a tie keeps best
        return best[1], best[2]

    def refine(self) -> tuple["Simplex", "Simplex"]:
        """Bisect the longest edge ``(a, b)``: the first child replaces vertex ``b``
        by the midpoint, the second replaces ``a``; together they partition this simplex."""
        a, b = self.longest_edge()
        V = self.vertices
        mid = 0.5 * (V[a] + V[b])
        first, second = V.copy(), V.copy()
        first[b] = mid
        second[a] = mid
        return (Simplex(first, self.depth + 1, validate=False),
                Simplex(second, self.depth + 1, validate=False))

    def barycentric(self, x) -> np.ndarray:
        """Barycentric coordinates of ``x`` with respect to the vertices."""
        x = as_vector(x, self.dim)
        M = np.vstack([self.vertices.T, np.ones(self.num_vertices)])
        rhs = np.concatenate([x, [1.0]])
        lam, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        return lam

    def contains(self, x, tol: float = 1e-10) -> bool:
        lam = self.barycentric(x)
        resid = self.vertices.T @ lam - as_vector(x, self.dim)
        return bool(np.all(lam >= -tol) and np.max(np.abs(resid)) <= 1e-9)


def standard_simplex(dim: int) -> Simplex:
    """The full standard simplex: vertices are the coordinate unit vectors."""
    if dim < 1:
        raise ValueError("dim must be positive")
    return Simplex(np.eye(dim), depth=0, validate=False)


def refine(S: Simplex) -> tuple[Simplex, Simplex]:
    return S.refine()


# ---------------------------------------------------------------------------
# barycentric coefficient tensors


def component_coeffs(A: Tensor, S: Simplex) -> np.ndarray:
    """Per-component barycentric coefficients ``c[k][j2...jm]`` on the simplex.

    For ``x`` with barycentric coordinates ``lam`` on ``S``, component ``k`` of
    ``apply(A, x)`` equals ``sum lam[j2]...lam[jm] * c[k][j2...jm]``; the
    barycentric monomials are nonnegative and sum to one, so the min and max
    of ``c[k]`` bound the component over the simplex.
    """
    if S.dim != A.dim:
        raise ValueError(f"simplex dim {S.dim} does not match tensor dim {A.dim}")
    V = S.vertices
    out = A.data
    for _ in range(A.order - 1):
        out = np.tensordot(out, V, axes=([1], [1]))
    return out


def form_coeffs(A: Tensor, S: Simplex) -> np.ndarray:
    """Scalar form coefficients ``c[j1...jm]``: the multilinear form at vertex tuples."""
    if S.dim != A.dim:
        raise ValueError(f"simplex dim {S.dim} does not match tensor dim {A.dim}")
    V = S.vertices
    out = A.data
    for _ in range(A.order):
        out = np.tensordot(out, V, axes=([0], [1]))
    return out


# ---------------------------------------------------------------------------
# contractions at many points


def _as_batch(A: Tensor, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != A.dim:
        raise ValueError(f"expected shape (k, {A.dim}), got {X.shape}")
    return X


def apply_batch(A: Tensor, X) -> np.ndarray:
    """Vectorized ``core.apply`` over the rows of ``X`` (shape ``(k, n)``)."""
    X = _as_batch(A, X)
    m = A.order
    if m == 1:
        return np.broadcast_to(A.data, X.shape).copy()
    modes = _LETTERS[: m - 1]
    subs = ",".join(["z" + modes] + ["t" + c for c in modes]) + "->tz"
    return np.einsum(subs, A.data, *(X,) * (m - 1), optimize=True)


def form_batch(A: Tensor, X) -> np.ndarray:
    """Vectorized ``core.form_value`` over the rows of ``X``."""
    X = _as_batch(A, X)
    modes = _LETTERS[: A.order]
    subs = ",".join([modes] + ["t" + c for c in modes]) + "->t"
    return np.einsum(subs, A.data, *(X,) * A.order, optimize=True)


def hadamard(A: Tensor, B: Tensor) -> Tensor:
    """Entrywise product."""
    _same_shape(A, B)
    return Tensor(A.data * B.data)
