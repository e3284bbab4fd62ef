"""Certified decision engine over the standard simplex.

Every quantified claim of the form "no nonnegative x makes all components of
``A x^{m-1}`` negative" or "``A x^m`` is nonnegative on the nonnegative
orthant" reduces, by homogeneity, to a statement over the standard simplex.
The engine bounds the multilinear forms on sub-simplices through their
barycentric coefficient tensors (the coefficients are a convex-combination
representation, so their min and max bound the form).  It refines one level
at a time: every leaf whose bound does not certify is bisected at its longest
edge, all of them in one set of array operations.  Which leaves a certificate
needs does not depend on the order they are refined in, so a ``Holds`` is the
one a best-first search would reach.  It stops with a three-valued verdict:

* ``Holds``        -- every leaf carries a certifying bound,
* ``Fails``        -- a concrete witness vector, re-checked against the claim,
* ``Inconclusive`` -- the depth or node budget ran out.

Strictness is handled through a declared margin ``epsilon``, measured on the
coefficient scale normalized by the tensor's largest absolute entry.  Each
search runs on the tensor's unit-scale copy (``core.unit_scale``) and reports
its bound and margins in the tensor's own units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, permutations
from typing import Callable, Mapping

import numpy as np

from .core import (
    Tensor,
    apply,
    apply_jacobian,
    as_vector,
    clears,
    falls_short,
    form_value,
    symmetrize,
    tolerance,
    unit_scale,
    unscale,
)

__all__ = [
    "HOLDS",
    "FAILS",
    "INCONCLUSIVE",
    "Verdict",
    "WitnessError",
    "Simplex",
    "standard_simplex",
    "refine",
    "component_coeffs",
    "form_coeffs",
    "decide_all_components_negative",
    "decide_form_nonneg",
    "search_nonneg_solution",
]

HOLDS = "Holds"
FAILS = "Fails"
INCONCLUSIVE = "Inconclusive"

DEFAULT_EPSILON = 1e-9
DEFAULT_MAX_DEPTH = 40
DEFAULT_MAX_NODES = 200_000
INTERIOR_MARGIN = 1e-6
POLISH_STEPS = 50

# candidates closer to the target than this fraction of the tensor scale are
# worth a polishing attempt
_POLISH_TRIGGER = 0.05


class WitnessError(RuntimeError):
    """A Fails verdict was about to be built with a witness that does not re-check."""


@dataclass(frozen=True)
class Verdict:
    """Three-valued certified decision with its numeric evidence.

    On an engine verdict ``worst_bound`` is the coefficient bound of the root
    simplex (the whole standard simplex), whatever the status, and an
    Inconclusive carries ``info["limit"]``, the budget that ran out:
    ``max_depth`` or ``max_nodes``.
    """

    status: str
    witness: np.ndarray | None
    epsilon: float
    nodes: int
    depth: int
    worst_bound: float | None
    info: Mapping = field(default_factory=dict)

    @classmethod
    def _checked(cls, status, kind, point, recheck, *, epsilon, nodes, depth,
                 worst_bound, info=None) -> "Verdict":
        """Build a verdict carrying ``point``; ``recheck`` re-evaluates it and must pass."""
        point = np.asarray(point, dtype=np.float64)
        ok, margin = recheck(point)
        if not ok:
            raise WitnessError(f"{kind} fails re-check with margin {margin}")
        info = dict(info or {})
        info[f"{kind}_margin"] = float(margin)
        return cls(status, point, epsilon, nodes, depth, worst_bound, info)

    @classmethod
    def fails(cls, witness, recheck: Callable[[np.ndarray], tuple[bool, float]],
              **evidence) -> "Verdict":
        """Build a Fails verdict; ``recheck`` re-evaluates the witness and must pass."""
        return cls._checked(FAILS, "witness", witness, recheck, **evidence)

    @classmethod
    def holds_with_solution(cls, solution, recheck, **evidence) -> "Verdict":
        """Holds verdict that carries a feasible point (used by the S/S0 searches)."""
        return cls._checked(HOLDS, "solution", solution, recheck, **evidence)

    @property
    def decisive(self) -> bool:
        return self.status != INCONCLUSIVE

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    def to_json(self) -> dict:
        doc = {
            "status": self.status,
            "witness": None if self.witness is None else [float(v) for v in self.witness],
            "epsilon": float(self.epsilon),
            "nodes": int(self.nodes),
            "depth": int(self.depth),
            "worst_bound": None if self.worst_bound is None else float(self.worst_bound),
        }
        if self.info:
            doc["info"] = {k: _jsonable(v) for k, v in sorted(self.info.items())}
        return doc


def _in_units(v: Verdict, e: int) -> Verdict:
    """``v``, decided on the unit-scale copy ``A * 2**-e``, with its bound and
    margins in the units of ``A`` (None where one does not fit in a float)."""
    info = {k: unscale(x, e) if k.endswith("_margin") else x for k, x in v.info.items()}
    return Verdict(v.status, v.witness, v.epsilon, v.nodes, v.depth,
                   unscale(v.worst_bound, e), info)


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return [float(x) for x in v]
    if isinstance(v, (np.floating, float)):
        return float(v)
    if isinstance(v, bool):  # before int: a flag stays a flag
        return v
    if isinstance(v, (np.integer, int)):
        return int(v)
    if isinstance(v, tuple):
        return list(v)
    return v


# ---------------------------------------------------------------------------
# simplices


@lru_cache(maxsize=None)
def _edge_pairs(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertex pairs ``a < b`` of an ``r``-vertex simplex, in lexicographic order."""
    pairs = np.triu_indices(r, 1)
    for idx in pairs:
        idx.setflags(write=False)
    return pairs


def _longest_edges(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertex pair ``(a[i], b[i])`` of the longest edge of each leaf ``V[i]``.

    ``V`` holds one ``(r, n)`` vertex array per leaf; ties go to the first
    pair in lexicographic order.
    """
    first, second = _edge_pairs(V.shape[1])
    diff = V[:, first] - V[:, second]
    best = (diff * diff).sum(axis=2).argmax(axis=1)
    return first[best], second[best]


def _halve(X: np.ndarray, axes: tuple[int, ...], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Both halves of each leaf's array, split at the midpoint of edge ``(a[i], b[i])``.

    ``X[i]`` is indexed by vertex along each of ``axes``: a vertex array
    (axes ``(0,)``) or a coefficient array.  Row ``2i`` replaces vertex
    ``b[i]`` by the midpoint, row ``2i + 1`` replaces ``a[i]``; multilinearity
    makes that an average of the two vertex slices along every axis in turn.
    """
    out = np.repeat(X, 2, axis=0)
    rows = np.arange(len(out))
    p, q = np.repeat(b, 2), np.repeat(a, 2)
    p[1::2], q[1::2] = a, b
    shape = X.shape[1:]
    for ax in axes:
        view = out.reshape(len(out), math.prod(shape[:ax]), shape[ax], -1)
        view[rows, :, p] = 0.5 * (view[rows, :, p] + view[rows, :, q])
    return out


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
        if V.shape[0] > 1:
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
        """Vertex pair of the longest edge, ties broken lexicographically."""
        if self.num_vertices < 2:
            raise ValueError("a single point has no edge")
        a, b = _longest_edges(self.vertices[None])
        return int(a[0]), int(b[0])

    def refine(self) -> tuple["Simplex", "Simplex"]:
        """Bisect the longest edge; the two children partition this simplex."""
        a, b = self.longest_edge()
        first, second = _halve(self.vertices[None], (0,), np.array([a]), np.array([b]))
        return (
            Simplex(first, self.depth + 1, validate=False),
            Simplex(second, self.depth + 1, validate=False),
        )

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


def _slot_symmetrized_rows(A: Tensor) -> np.ndarray:
    """Symmetrize each row subtensor over the contraction slots.

    ``apply`` only sees the slot-symmetric part of each row, and symmetrized
    coefficients give second-order tight bounds, so the engine's bound arrays
    start from these entries while all witness evaluation uses ``A`` itself.
    """
    m = A.order
    if m <= 2 or A.dim == 1:
        # nothing to average, and averaging m-1 equal copies can move an ulp
        return A.data.copy()
    acc = np.zeros_like(A.data)
    count = 0
    for perm in permutations(range(1, m)):
        acc += np.transpose(A.data, (0,) + perm)
        count += 1
    return acc / count


# ---------------------------------------------------------------------------
# witness polishing

@lru_cache(maxsize=None)
def _sum_zero_basis(n: int) -> np.ndarray:
    """Orthonormal basis of ``{d : sum(d) = 0}`` in ``R^n``, one column per direction."""
    _, _, vt = np.linalg.svd(np.ones((1, n)))
    return vt[1:].T


def _project_simplex(v: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Euclidean projection onto ``{y >= floor, sum(y) = 1}``.

    Scalar code for the few coordinates the engine has: the sequential running
    sum, the ``rho`` test and the clipping are the IEEE operations of the
    sort-and-``cumsum`` vector form in the same order, so the result is equal
    bit for bit.
    """
    z = np.asarray(v, dtype=np.float64).tolist()
    n = len(z)
    if n == 1:
        return np.array([1.0])
    if floor * n >= 1.0:
        floor = 0.5 / n
    z = [x - floor for x in z]
    total = 1.0 - n * floor
    u = sorted(z, reverse=True)
    css = [s - total for s in accumulate(u)]
    rho = next((i for i in range(n - 1, 0, -1) if u[i] * (i + 1) > css[i]), 0)
    theta = css[rho] / (rho + 1.0)
    return np.array([max(x - theta, 0.0) + floor for x in z])


def _polish_descent(y0, floor, value_fn, grad_fn, min_decrease):
    """Projected local descent with backtracking (factor 0.5) on a value.

    ``value_fn(y)`` returns ``(value, aux)`` and ``grad_fn(y, aux)`` the
    gradient at ``y``, so a contraction ``value_fn`` made is not repeated.  A
    step counts when it lowers the value by more than ``min_decrease``.
    Returns the final point and its value.
    """
    y = _project_simplex(y0, floor)
    val, aux = value_fn(y)
    step = 0.5
    for _ in range(POLISH_STEPS):
        grad = grad_fn(y, aux)
        norm = math.sqrt(grad.dot(grad))  # what np.linalg.norm computes on a real vector
        if norm < 1e-300:
            break
        direction = grad / norm
        trial = step
        improved = False
        for _ in range(25):
            y_new = _project_simplex(y - trial * direction, floor)
            val_new, aux_new = value_fn(y_new)
            if val_new < val - min_decrease:
                y, val, aux = y_new, val_new, aux_new
                step = min(2.0 * trial, 0.5)
                improved = True
                break
            trial *= 0.5
        if not improved:
            break
    return y, val


def _equalize(A: Tensor, y0, floor, scale: float, iters: int = 15):
    """Gauss-Newton steps driving the near-active components of ``apply`` to zero.

    Witness sets can be lower-dimensional (every active component vanishes at
    the witness), where subdivision and subgradient steps close in only
    linearly; these steps converge at Newton speed.  The active components are
    those within a quarter of ``scale`` (``tolerance(A, 1.0)``) below zero; a
    step is kept when it lowers the largest component.  Returns the best point
    and its largest component.
    """
    y = _project_simplex(y0, floor)
    basis = _sum_zero_basis(y.size)
    f = apply(A, y)
    best_y, best = y, float(f.max())
    for _ in range(iters):
        active = f > -0.25 * scale
        if not np.any(active):
            break
        J = apply_jacobian(A, y)[active] @ basis
        z, *_ = np.linalg.lstsq(J, -f[active], rcond=None)
        dy = basis @ z
        damp = 1.0
        stepped = False
        for _ in range(8):
            y_new = _project_simplex(y + damp * dy, floor)
            f_new = apply(A, y_new)
            s_new = float(f_new.max())
            if s_new < best - 1e-16 * scale:
                y, f = y_new, f_new
                best_y, best = y_new, s_new
                stepped = True
                break
            damp *= 0.5
        if not stepped:
            break
    return best_y, best


# ---------------------------------------------------------------------------
# searches


def _check_params(epsilon: float, max_depth: int) -> None:
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")


def decide_all_components_negative(
    A: Tensor,
    strict: bool,
    epsilon: float = DEFAULT_EPSILON,
    max_depth: int = DEFAULT_MAX_DEPTH,
    *,
    max_nodes: int = DEFAULT_MAX_NODES,
    interior_margin: float = INTERIOR_MARGIN,
) -> Verdict:
    """Decide whether some ``y > 0`` drives every component of ``apply(A, y)`` negative.

    ``strict=True`` asks for all components ``< 0``, ``strict=False`` for
    ``<= 0``.  Fails means such a ``y`` exists and carries it (interior, with
    margin ``interior_margin``); Holds certifies that none exists; an exhausted
    budget is Inconclusive.  Holds is the claim ``max_k >= 0`` on the simplex
    (``> 0`` when not ``strict``), so the class strictness is ``not strict``.
    """
    _check_params(epsilon, max_depth)
    A, e = unit_scale(A)
    floor = interior_margin
    scale = tolerance(A, 1.0)
    tol, min_decrease = epsilon * scale, 1e-13 * scale

    def value_fn(y):
        f = apply(A, y)
        return float(f.max()), f

    def grad_fn(y, f):
        return apply_jacobian(A, y)[int(f.argmax())]

    def polish(y):
        y, g = _polish_descent(y, floor, value_fn, grad_fn, min_decrease)
        # the descent missed a witness of the strict class
        if not strict and clears(g, tol, True):
            y2, g2 = _equalize(A, y, floor, scale)
            if g2 < g:
                y = y2
        return y

    return _in_units(_min_search(
        A, _slot_symmetrized_rows(A), tuple(range(1, A.order)), lambda y: value_fn(y)[0],
        strict=not strict, tol=tol, floor=floor, polish=polish, epsilon=epsilon,
        max_depth=max_depth, max_nodes=max_nodes,
    ), e)


def decide_form_nonneg(
    A: Tensor,
    strict: bool,
    epsilon: float = DEFAULT_EPSILON,
    max_depth: int = DEFAULT_MAX_DEPTH,
    *,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> Verdict:
    """Decide whether ``A x^m >= 0`` on the nonnegative orthant (``> 0`` off zero if strict).

    Holds certifies the sign through per-leaf coefficient lower bounds; Fails
    carries a simplex witness with ``A x^m < -eps`` (strict: ``<= eps``).
    """
    _check_params(epsilon, max_depth)
    A, e = unit_scale(A)
    sym = symmetrize(A)
    m = A.order
    min_decrease = tolerance(A, 1e-13)

    def polish(y):
        return _polish_descent(y, 0.0, lambda v: (form_value(A, v), None),
                               lambda v, _: m * apply(sym, v), min_decrease)[0]

    return _in_units(_min_search(
        A, sym.data, tuple(range(m)), lambda y: form_value(A, y),
        strict=strict, tol=tolerance(A, epsilon), floor=0.0, polish=polish,
        epsilon=epsilon, max_depth=max_depth, max_nodes=max_nodes,
    ), e)


def _leaf_bounds(G: np.ndarray) -> np.ndarray:
    """Each leaf's lower bound: the largest row minimum of its coefficients.

    ``G[i]`` holds leaf ``i``'s coefficients with the vertex axes flattened,
    one row per component (a single row for a form).
    """
    return G.min(axis=2).max(axis=1)


def _candidate_values(G: np.ndarray, r: int) -> np.ndarray:
    """Each leaf's value at its centroid, then at each of its ``r`` vertices.

    The values are read off the coefficients ``G`` (laid out as for
    :func:`_leaf_bounds`): at the centroid every barycentric monomial is
    equal, so a row's value is the mean of its coefficients, and at vertex
    ``j`` it is the ``(j, ..., j)`` coefficient, every ``step``-th flat entry.
    A leaf's value is its largest row value.
    """
    step = (G.shape[2] - 1) // (r - 1) if r > 1 else 1
    return np.concatenate((G.mean(axis=2).max(axis=1)[:, None],
                           G[:, :, ::step].max(axis=1)), axis=1)


def _min_search(A, root_coeffs, coeff_axes, point_value, *, strict, tol, floor, polish,
                epsilon, max_depth, max_nodes) -> Verdict:
    """Level-by-level hunt for a point whose ``point_value`` falls short of the class.

    The class asks ``point_value >= 0`` (``> 0`` if ``strict``) on the
    simplex.  ``root_coeffs`` bound it there: ``coeff_axes`` index vertices
    and any other axis (the component, in a component search) indexes rows,
    and a leaf's bound is its largest row minimum.  A leaf whose bound clears
    is certified; every other leaf of a level (a NaN bound among them) is
    bisected at its longest edge in one set of array operations.  A point
    that falls short, with no coordinate below the ``floor``, is a witness;
    every verdict reports the root bound as ``worst_bound``.

    Whether a leaf is refined depends only on its own bound and its
    ancestors', never on the order, so a Holds refines the same leaves, and
    reports the same ``nodes`` and ``depth``, as a best-first search would.
    Polishing keeps the best-first order within a level: the leaves whose
    best candidate (:func:`_candidate_values`) beats the gate are polished in
    bound order.  A search that ends on a witness may therefore report other
    ``nodes`` or another witness than a best-first one.
    """
    n = A.dim
    span = n ** len(coeff_axes)
    edge = tol if strict else -tol  # where the rule flips
    polish_gate = edge + tolerance(A, _POLISH_TRIGGER)
    V = np.eye(n)[None]
    C = root_coeffs[None]
    bounds = _leaf_bounds(C.reshape(1, -1, span))
    worst = float(bounds[0])
    nodes, depth = 1, 0

    def witness_ok(y):
        q = point_value(y)
        return falls_short(q, tol, strict) and float(np.min(y)) >= floor * 0.999, q

    def fails(y):
        return Verdict.fails(y, witness_ok, epsilon=epsilon, nodes=nodes,
                             depth=depth, worst_bound=worst)

    while True:
        keep = ~clears(bounds, tol, strict)
        if not keep.all():
            if not keep.any():
                return Verdict(HOLDS, None, epsilon, nodes, depth, worst)
            V, C, bounds = V[keep], C[keep], bounds[keep]
        if n == 1:
            # a one-vertex simplex is a point whose bound is its value
            return fails(V[0, 0])

        values = _candidate_values(C.reshape(len(C), -1, span), n)
        best = values.min(axis=1)
        starts = np.flatnonzero(best < polish_gate)
        for i in starts[np.argsort(bounds[starts], kind="stable")]:
            if not best[i] < polish_gate:
                continue
            j = int(values[i].argmin())
            y = polish(V[i].mean(axis=0) if j == 0 else V[i, j - 1])
            ok, reached = witness_ok(y)
            if ok:
                return fails(y)
            # a failed polish stops at or above the edge (its points keep
            # the floor), so later starts must beat the minimum it reached
            polish_gate = min(edge + 0.5 * (polish_gate - edge), reached)

        if depth >= max_depth:
            return Verdict(INCONCLUSIVE, None, epsilon, nodes, depth, worst,
                           {"limit": "max_depth"})
        room = max(max_nodes - nodes, 0) // 2
        if room < len(C):
            # the budget splits ``room`` more leaves, the least bounds first,
            # and ends the search there: their children are counted, not built
            nodes += 2 * room
            depth += 1 if room else 0
            return Verdict(INCONCLUSIVE, None, epsilon, nodes, depth, worst,
                           {"limit": "max_nodes"})
        a, b = _longest_edges(V)
        V, C = _halve(V, (0,), a, b), _halve(C, coeff_axes, a, b)
        bounds = _leaf_bounds(C.reshape(len(C), -1, span))
        nodes += len(C)
        depth += 1


def search_nonneg_solution(
    A: Tensor,
    strict: bool,
    epsilon: float = DEFAULT_EPSILON,
    max_depth: int = DEFAULT_MAX_DEPTH,
    *,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> Verdict:
    """Search the simplex for ``y`` with every component of ``apply(A, y)`` above the goal.

    ``strict=True`` looks for ``min_k > eps`` (a strictly positive image),
    ``strict=False`` for ``min_k >= -eps``.  Holds carries the solution; Fails
    certifies that no such point exists within tolerance; an exhausted budget
    is Inconclusive.

    Every component of ``apply(A, y)`` clears the goal exactly when every
    component of ``apply(-A, y)`` falls below its negation, so this is the
    component search on ``-A`` at floor 0 with Holds and Fails swapped; the
    solution is re-checked against ``A`` itself.
    """
    A, e = unit_scale(A)
    v = decide_all_components_negative(
        Tensor(-A.data), strict, epsilon, max_depth, max_nodes=max_nodes,
        interior_margin=0.0,
    )
    tol = tolerance(A, epsilon)
    worst = 0.0 - v.worst_bound  # the root bound of A; a plain minus would give -0.0

    def solution_ok(y):
        value = float(np.min(apply(A, y)))
        return clears(value, tol, strict), value

    if v.status == FAILS:
        out = Verdict.holds_with_solution(v.witness, solution_ok, epsilon=epsilon,
                                          nodes=v.nodes, depth=v.depth, worst_bound=worst)
    elif v.status == INCONCLUSIVE:
        out = Verdict(INCONCLUSIVE, None, epsilon, v.nodes, v.depth, worst, v.info)
    else:
        out = Verdict(FAILS, None, epsilon, v.nodes, v.depth, worst, {"reason": "no_solution"})
    return _in_units(out, e)
