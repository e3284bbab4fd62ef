"""Certified decision engine over the standard simplex.

Every quantified claim of the form "no nonnegative x makes all components of
``A x^{m-1}`` negative" or "``A x^m`` is nonnegative on the nonnegative
orthant" reduces, by homogeneity, to a statement over the standard simplex.
The engine bounds the multilinear forms on sub-simplices through their
barycentric coefficient tensors (the coefficients are a convex-combination
representation, so their min and max bound the form).  It refines one level
at a time, for every search of one shape at once: each leaf whose bound does
not certify is bisected at its longest edge, in one set of array operations.
The leaves a certificate needs do not depend on that order, so a ``Holds`` is
the one a best-first search would reach.  It ends with a three-valued verdict:

* ``Holds``        -- every leaf carries a certifying bound,
* ``Fails``        -- a concrete witness vector, re-checked against the claim,
* ``Inconclusive`` -- the depth or node budget ran out.

Strictness is a declared margin ``epsilon`` on the scale of the tensor's
largest absolute entry.  Each search runs on the unit-scale copy
(``core.unit_scale``) and reports its bound and margins in the tensor's units.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Mapping

import numpy as np

from .core import (
    Tensor,
    apply,
    apply_jacobian,
    clears,
    falls_short,
    form_value,
    orbit_mean,
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
# a batch level splits its first search and the next whose leaves fit in this
# many bytes, so a split's working set (about four levels) stays in L2 cache
_LEVEL_BYTES = 2 ** 18


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
# leaves: longest edges and halving


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
    best = np.add.reduce(diff * diff, axis=2).argmax(axis=1)
    return first[best], second[best]


def _halve(X: np.ndarray, axes: tuple[int, ...], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Both halves of each leaf's array, split at the midpoint of edge ``(a[i], b[i])``.

    ``X[i]`` is indexed by vertex along each of ``axes``: a vertex array
    (axes ``(0,)``) or a coefficient array.  Row ``2i`` replaces vertex
    ``b[i]`` by the midpoint, row ``2i + 1`` replaces ``a[i]``; multilinearity
    makes that an average of the two vertex slices along every axis in turn.
    """
    out = X.repeat(2, 0)
    rows = np.arange(len(out))
    p, q = b.repeat(2), a.repeat(2)
    p[1::2], q[1::2] = a, b
    shape = X.shape[1:]
    for ax in axes:
        view = out.reshape(len(out), math.prod(shape[:ax]), shape[ax], -1)
        view[rows, :, p] = 0.5 * (view[rows, :, p] + view[rows, :, q])
    return out


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


def _polish_descent(y0, project, value_fn, grad_fn, min_decrease, target=None):
    """Projected local descent with backtracking (factor 0.5) on a value.

    ``project`` maps a point back onto the feasible set, ``value_fn(y)``
    returns ``(value, aux)`` and ``grad_fn(y, aux)`` the gradient at ``y``, so
    a contraction ``value_fn`` made is not repeated.  A step counts when it
    lowers the value by more than ``min_decrease``.  With a ``target``, the
    value a witness must get below, the descent gives up once it is out of
    reach: when a step lowered the value by ``drop`` and the value still lies
    more than ``drop`` per remaining step above the target.  It does not stop
    at the target.  Returns the final point and its value.
    """
    y = project(y0)
    val, aux = value_fn(y)
    step = 0.5
    for k in range(POLISH_STEPS):
        grad = grad_fn(y, aux)
        norm = math.sqrt(grad.dot(grad))  # what np.linalg.norm computes on a real vector
        if norm < 1e-300:
            break
        direction = grad / norm
        trial = step
        improved = False
        for _ in range(25):
            y_new = project(y - trial * direction)
            val_new, aux_new = value_fn(y_new)
            if val_new < val - min_decrease:
                drop = val - val_new
                y, val, aux = y_new, val_new, aux_new
                step = min(2.0 * trial, 0.5)
                improved = True
                break
            trial *= 0.5
        if not improved:
            break
        if target is not None and val - target > (POLISH_STEPS - 1 - k) * drop:
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


def _check_count(name: str, value: int) -> None:
    # a bool is an int to Python, and a float cap would be truncated silently
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer of at least 1")


def _check_params(epsilon: float, max_depth: int) -> None:
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    _check_count("max_depth", max_depth)


# one search of a batch, on a unit-scale ``A`` with ``scale = tolerance(A, 1.0)``
_Search = namedtuple("_Search", "A root_coeffs point_value tol polish scale")


def _decided(search, tensors, epsilon, max_depth, **shared) -> list[Verdict]:
    """``search`` of each of the same-shape ``tensors`` (unit-scaled) in one loop."""
    _check_params(epsilon, max_depth)
    scaled = [unit_scale(A) for A in tensors]
    found = _min_search([search(A) for A, _ in scaled], epsilon=epsilon,
                        max_depth=max_depth, **shared)
    return [_in_units(v, e) for v, (_, e) in zip(found, scaled)]


def decide_all_components_negative(
    A: Tensor,
    strict: bool,
    epsilon: float = DEFAULT_EPSILON,
    max_depth: int = DEFAULT_MAX_DEPTH,
    *,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> Verdict:
    """Decide whether some ``y > 0`` drives every component of ``apply(A, y)`` negative.

    ``strict=True`` asks for all components ``< 0``, ``strict=False`` for
    ``<= 0``.  Fails means such a ``y`` exists and carries it (interior, with
    margin ``INTERIOR_MARGIN``); Holds certifies that none exists; an exhausted
    budget is Inconclusive.  Holds is the claim ``max_k >= 0`` on the simplex
    (``> 0`` when not ``strict``), so the class strictness is ``not strict``.
    """
    return _components_negative([A], strict, epsilon, max_depth, max_nodes)[0]


def _components_negative(tensors, strict, epsilon, max_depth, max_nodes=DEFAULT_MAX_NODES,
                         floor=INTERIOR_MARGIN, stop=FAILS) -> list[Verdict]:
    """The component search of each tensor, up to the first that ends ``stop``."""

    def search(A):
        scale = tolerance(A, 1.0)
        tol, min_decrease = epsilon * scale, 1e-13 * scale

        def value_fn(y):
            f = apply(A, y)
            return float(f.max()), f

        def grad_fn(y, f):
            return apply_jacobian(A, y)[int(f.argmax())]

        def polish(y, edge):
            y, g = _polish_descent(y, lambda v: _project_simplex(v, floor), value_fn, grad_fn,
                                   min_decrease, edge)
            # the descent missed a witness of the strict class
            if not strict and clears(g, tol, True):
                y2, g2 = _equalize(A, y, floor, scale)
                if g2 < g:
                    y = y2
            return y

        # apply sees only the slot-symmetric part of each row, and symmetrized coefficients
        # give second-order tight bounds, so the bound arrays start from each row's mean
        # over its m - 1 slots; witnesses are evaluated on A
        return _Search(A, orbit_mean(A.data, A.order - 1), lambda y: value_fn(y)[0], tol,
                       polish, scale)

    return _decided(search, tensors, epsilon, max_depth, strict=not strict, floor=floor,
                    coeff_axes=tuple(range(1, tensors[0].order)), max_nodes=max_nodes, stop=stop)


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
    return _forms_nonneg([A], strict, epsilon, max_depth, max_nodes)[0]


def _forms_nonneg(tensors, strict, epsilon, max_depth, max_nodes=DEFAULT_MAX_NODES):
    """The form search of each tensor, up to the first that Fails."""
    m = tensors[0].order

    def search(A):
        sym, scale = symmetrize(A), tolerance(A, 1.0)

        def polish(y, edge):
            return _polish_descent(y, _project_simplex, lambda v: (form_value(A, v), None),
                                   lambda v, _: m * apply(sym, v), 1e-13 * scale, edge)[0]

        return _Search(A, sym.data, lambda y: form_value(A, y), epsilon * scale, polish, scale)

    return _decided(search, tensors, epsilon, max_depth, strict=strict, floor=0.0,
                    coeff_axes=tuple(range(m)), max_nodes=max_nodes, stop=FAILS)


def _leaf_bounds(G: np.ndarray) -> np.ndarray:
    """Each leaf's lower bound: the largest row minimum of its coefficients.

    ``G[i]`` holds leaf ``i``'s coefficients with the vertex axes flattened,
    one row per component (a single row for a form).
    """
    return np.maximum.reduce(np.minimum.reduce(G, axis=2), axis=1)


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


def _min_search(searches, *, coeff_axes, strict, floor, epsilon, max_depth, max_nodes,
                stop) -> list[Verdict]:
    """Level-by-level hunt for a point whose ``point_value`` falls short of the class.

    The class asks ``point_value >= 0`` (``> 0`` if ``strict``) on the
    simplex.  ``root_coeffs`` bound it there: ``coeff_axes`` index vertices
    and any other axis (the component, in a component search) indexes rows,
    and a leaf's bound is its largest row minimum.  A leaf whose bound clears
    its search's ``tol`` is certified; every other leaf of a level (a NaN
    bound among them), whatever its search, is bisected at its longest edge
    in one set of array operations.  A point that falls short, with no
    coordinate below the ``floor``, is a witness; every verdict reports its
    root bound as ``worst_bound``.  A search whose next split would pass
    ``max_nodes`` ends Inconclusive with the nodes and depth it built.

    Whether a leaf is refined depends only on its own bound and its
    ancestors', never on the order, so a Holds refines the same leaves, and
    reports the same ``nodes`` and ``depth``, as a best-first search would.
    Polishing keeps the best-first order within a level: the leaves whose
    best candidate (:func:`_candidate_values`) beats the gate are polished in
    bound order, each start once per search (a repeat would fail the same
    way), with ``polish(start, edge)``.  A search that ends on a witness may
    therefore report other ``nodes`` or another witness than a best-first one.

    Each of ``searches`` (all of one shape) is such a hunt in one shared loop,
    ending as it would alone; it polishes its queued starts once every search
    before it has ended.  Returns the verdicts settled in order, a prefix of
    ``searches``: it ends at the first that ends ``stop``, or before the first
    that a level past ``_LEVEL_BYTES`` leaves out.
    """
    count, n = len(searches), searches[0].A.dim
    span = n ** len(coeff_axes)
    tol = np.array([s.tol for s in searches])
    edge = [s.tol if strict else -s.tol for s in searches]  # where the rule flips
    gate = np.array([e + _POLISH_TRIGGER * s.scale for e, s in zip(edge, searches)])
    sid = np.arange(count)  # the search of each leaf
    V = np.eye(n)[None].repeat(count, 0)
    C = np.array([s.root_coeffs for s in searches])
    bounds = _leaf_bounds(C.reshape(count, -1, span))
    worst = bounds.tolist()
    nodes, live = np.array([1] * count), np.array([True] * count)
    most, depth = 1, 0  # no search has more than ``most`` nodes
    ended, found = [None] * count, []  # every verdict, and those settled in order
    queued = [[] for _ in searches]  # (depth, nodes, value, start) not yet polished
    polished = [set() for _ in searches]  # the bytes of every start polished so far

    def witness_ok(s, y):
        q = searches[s].point_value(y)
        return falls_short(q, searches[s].tol, strict) and float(np.min(y)) >= floor * 0.999, q

    def fails(s, y, at_nodes, at_depth):
        return Verdict.fails(y, lambda p: witness_ok(s, p), epsilon=epsilon, nodes=at_nodes,
                             depth=at_depth, worst_bound=worst[s])

    def end(s, status, **info):
        ended[s] = Verdict(status, None, epsilon, int(nodes[s]), depth, worst[s], info)
        live[s] = False

    def settle():  # append the verdicts settled in order; True once one ends ``stop``
        while len(found) < count:
            s = len(found)
            while queued[s] and (live[s] or ended[s]):  # a dropped search polishes nothing
                at_depth, at_nodes, value, start = queued[s].pop(0)
                key = start.tobytes()
                if not value < gate[s] or key in polished[s]:
                    continue
                polished[s].add(key)
                y = searches[s].polish(start, edge[s])
                ok, reached = witness_ok(s, y)
                if ok:
                    ended[s], live[s] = fails(s, y, at_nodes, at_depth), False
                    break
                # a failed polish stops at or above the edge (its points keep
                # the floor), so later starts must beat the minimum it reached
                gate[s] = min(edge[s] + 0.5 * (gate[s] - edge[s]), reached)
            if ended[s] is None:
                return
            found.append(ended[s])
            if ended[s].status == stop:
                return True

    while True:
        keep = ~clears(bounds, tol[sid], strict)
        if np.count_nonzero(keep) < len(sid):
            # a search whose last leaf is certified holds
            for s in (live & (np.bincount(sid[keep], minlength=count) == 0)).nonzero()[0]:
                end(s, HOLDS)
            V, C, bounds, sid = V[keep], C[keep], bounds[keep], sid[keep]
        if not len(sid):
            break
        if n == 1:  # a one-vertex simplex is a point whose bound is its value
            for i, s in enumerate(sid):
                ended[s] = fails(s, V[i, 0], 1, 0)
            break

        values = _candidate_values(C.reshape(len(C), -1, span), n)
        best = values.min(axis=1)
        starts = (best < gate[sid]).nonzero()[0]
        for i in starts[bounds[starts].argsort(kind="stable")]:
            j = int(values[i].argmin())
            queued[sid[i]].append((depth, int(nodes[sid[i]]), best[i],
                                   V[i].mean(axis=0) if j == 0 else V[i, j - 1]))
        if settle():
            return found

        if depth >= max_depth:
            for s in live.nonzero()[0]:
                end(s, INCONCLUSIVE, limit="max_depth")
            break
        leaves = np.bincount(sid, minlength=count)
        most += 2 * len(sid)
        if most > max_nodes:
            for s in (live & (nodes + 2 * leaves > max_nodes)).nonzero()[0]:
                end(s, INCONCLUSIVE, limit="max_nodes")
        if C.nbytes > _LEVEL_BYTES:  # the searches past it run on their own turn
            live &= (np.cumsum(leaves * live) - leaves[live.argmax()]) * C[0].nbytes < _LEVEL_BYTES
        keep = live[sid]
        if np.count_nonzero(keep) < len(sid):
            V, C, sid = V[keep], C[keep], sid[keep]
            if not len(sid):
                break
        a, b = _longest_edges(V)
        V, C = _halve(V, (0,), a, b), _halve(C, coeff_axes, a, b)
        sid = sid.repeat(2)
        bounds = _leaf_bounds(C.reshape(len(C), -1, span))
        nodes += 2 * leaves
        depth += 1
    settle()
    return found


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
    return _nonneg_solutions([A], strict, epsilon, max_depth, max_nodes)[0]


def _nonneg_solutions(tensors, strict, epsilon, max_depth, max_nodes=DEFAULT_MAX_NODES):
    """The feasibility search of each tensor, up to the first that Fails."""
    scaled = [unit_scale(A) for A in tensors]
    found = _components_negative([Tensor(-A.data) for A, _ in scaled], strict, epsilon,
                                 max_depth, max_nodes, floor=0.0, stop=HOLDS)

    def swapped(A, v):  # the verdict on A from the component verdict on -A
        tol, worst = tolerance(A, epsilon), 0.0 - v.worst_bound  # a plain minus gives -0.0

        def solution_ok(y):
            value = float(np.min(apply(A, y)))
            return clears(value, tol, strict), value

        if v.status == FAILS:
            return Verdict.holds_with_solution(v.witness, solution_ok, epsilon=epsilon,
                                               nodes=v.nodes, depth=v.depth, worst_bound=worst)
        if v.status == INCONCLUSIVE:
            return Verdict(INCONCLUSIVE, None, epsilon, v.nodes, v.depth, worst, v.info)
        return Verdict(FAILS, None, epsilon, v.nodes, v.depth, worst, {"reason": "no_solution"})

    return [_in_units(swapped(A, v), e) for (A, e), v in zip(scaled, found)]
