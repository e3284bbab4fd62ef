"""Independent brute-force references the tests check the library against.

Everything here is deliberately naive: plain Python loops over index tuples,
dense grid scans of the simplex, and the engine's search one leaf at a time.
None of it shares code with the library paths it validates; the best-first
search reuses only the verdict, tolerance and polishing pieces that are not
what it checks, and takes its edges, children and point values from
``tenclass.reference``, which shares no code with the engine.
"""

import heapq
import math
from itertools import combinations, product

import numpy as np


def naive_apply(data: np.ndarray, x) -> np.ndarray:
    """Componentwise contraction by explicit summation over index tuples."""
    x = np.asarray(x, dtype=float)
    n = data.shape[0]
    m = data.ndim
    out = np.zeros(n)
    for i in range(n):
        total = 0.0
        for rest in product(range(n), repeat=m - 1):
            term = data[(i,) + rest]
            for j in rest:
                term *= x[j]
            total += term
        out[i] = total
    return out


def naive_form(data: np.ndarray, x) -> float:
    x = np.asarray(x, dtype=float)
    total = 0.0
    for idx in product(range(data.shape[0]), repeat=data.ndim):
        term = data[idx]
        for j in idx:
            term *= x[j]
        total += term
    return total


def segment_grid(k: int) -> np.ndarray:
    """The 2-d simplex sampled at k+1 points (rows sum to one)."""
    t = np.linspace(0.0, 1.0, k + 1)
    return np.column_stack([t, 1.0 - t])


def simplex_grid(n: int, k: int) -> np.ndarray:
    """All points of the n-dim standard simplex with coordinates in i/k."""
    pts = []
    for comp in product(range(k + 1), repeat=n - 1):
        s = sum(comp)
        if s <= k:
            pts.append(tuple(c / k for c in comp) + ((k - s) / k,))
    return np.asarray(pts)


def nonempty_subsets(n: int):
    for size in range(1, n + 1):
        yield from combinations(range(n), size)


def grid_is_semipositive(data: np.ndarray, strict: bool, k: int = 60) -> bool:
    """Grid scan of the defining quantifier over every support set.

    Fails when some grid point with full support inside some subset maps to an
    all-negative (all-nonpositive for strict) image on that support.
    """
    n = data.shape[0]
    for J in nonempty_subsets(n):
        J = list(J)
        sub = data[np.ix_(*([J] * data.ndim))]
        grid = simplex_grid(len(J), k)
        interior = grid[np.all(grid > 1e-9, axis=1)]
        for y in interior:
            f = naive_apply(sub, y)
            if strict:
                if np.all(f <= 1e-12):
                    return False
            else:
                if np.all(f < -1e-12):
                    return False
    return True


def grid_form_min(data: np.ndarray, k: int = 200) -> float:
    n = data.shape[0]
    grid = simplex_grid(n, k)
    return min(naive_form(data, y) for y in grid)


def replace_vertex(coeffs: np.ndarray, axes, p: int, q: int) -> np.ndarray:
    """One leaf's coefficients after vertex ``p`` moves to the midpoint of ``(p, q)``.

    The ``p`` and ``q`` slices are averaged along every vertex axis in turn.
    """
    out = coeffs.copy()
    for ax in axes:
        sl_p = [slice(None)] * out.ndim
        sl_q = [slice(None)] * out.ndim
        sl_p[ax], sl_q[ax] = p, q
        out[tuple(sl_p)] = 0.5 * (out[tuple(sl_p)] + out[tuple(sl_q)])
    return out


def best_first_search(A, root_coeffs, coeff_axes, point_value, *, strict, tol, floor,
                      polish, epsilon, max_depth, max_nodes):
    """The engine's search one leaf at a time, least bound first, from a heap.

    One search of ``subdivision._min_search`` (:func:`best_first_searches`
    runs a batch through it): it pops the least bound (a NaN
    as ``-inf``), certifies on the first pop that clears, and evaluates each
    popped leaf's candidates (the centroid, then the vertices) by contracting
    ``A`` at the points; like the engine, it polishes each start once.  Heap
    entries are ``(key, seq, depth, vertices, coeffs)``.
    """
    from tenclass.core import clears, falls_short, tolerance
    from tenclass.reference import Simplex, apply_batch, form_batch
    from tenclass.subdivision import _POLISH_TRIGGER, HOLDS, INCONCLUSIVE, Verdict

    n = A.dim
    form = coeff_axes[0] == 0

    def leaf_bound(c):
        return float(c.min()) if form else float(c.reshape(n, -1).min(axis=1).max())

    def candidate_values(points):
        return form_batch(A, points) if form else apply_batch(A, points).max(axis=1)

    def key(lb):
        return -math.inf if math.isnan(lb) else lb

    nodes, deepest, limit = 1, 0, None
    worst = leaf_bound(root_coeffs)
    heap = [(key(worst), 0, 0, np.eye(n), root_coeffs)]
    seq = 1
    edge = tol if strict else -tol
    polish_gate = edge + tolerance(A, _POLISH_TRIGGER)
    polished = set()

    def witness_ok(y):
        q = point_value(y)
        return falls_short(q, tol, strict) and float(np.min(y)) >= floor * 0.999, q

    def fails(y):
        return Verdict.fails(y, witness_ok, epsilon=epsilon, nodes=nodes,
                             depth=deepest, worst_bound=worst)

    while heap:
        lb, _, depth, V, coeffs = heapq.heappop(heap)
        if clears(lb, tol, strict):
            if limit is None:
                return Verdict(HOLDS, None, epsilon, nodes, deepest, worst)
            break
        if len(V) == 1:
            return fails(V[0])
        points = np.vstack((V.mean(axis=0), V))
        values = candidate_values(points)
        best_idx = int(values.argmin())
        start = points[best_idx]
        if float(values[best_idx]) < polish_gate and start.tobytes() not in polished:
            polished.add(start.tobytes())
            y = polish(start, edge)
            ok, reached = witness_ok(y)
            if ok:
                return fails(y)
            polish_gate = min(edge + 0.5 * (polish_gate - edge), reached)
        if depth >= max_depth:
            limit = "max_depth"
            continue
        if nodes + 2 > max_nodes:
            limit = "max_nodes"
            break
        S = Simplex(V, validate=False)
        a, b = S.longest_edge()
        nodes += 2
        deepest = max(deepest, depth + 1)
        first, second = S.refine()
        for child, cc in ((first, replace_vertex(coeffs, coeff_axes, b, a)),
                          (second, replace_vertex(coeffs, coeff_axes, a, b))):
            heapq.heappush(heap, (key(leaf_bound(cc)), seq, depth + 1, child.vertices, cc))
            seq += 1
    return Verdict(INCONCLUSIVE, None, epsilon, nodes, deepest, worst, {"limit": limit})


def best_first_searches(searches, *, coeff_axes, stop, **shared):
    """:func:`best_first_search` run on each search of a batch in turn, in the
    signature of ``subdivision._min_search``: the verdicts up to the first
    that ends ``stop``, None for every search after it."""
    out = []
    for s in searches:
        out.append(best_first_search(s.A, s.root_coeffs, coeff_axes, s.point_value,
                                     tol=s.tol, polish=s.polish, **shared))
        if out[-1].status == stop:
            break
    return out + [None] * (len(searches) - len(out))


def loop_apply_jacobian(data: np.ndarray, x) -> np.ndarray:
    """Jacobian of the contraction as a sum of one einsum per slot, slot by slot."""
    x = np.asarray(x, dtype=float)
    n, m = data.shape[0], data.ndim
    J = np.zeros((n, n))
    if m == 1:
        return J
    modes = "abcdefgh"[: m - 1]
    for pos in range(m - 1):
        subs_in = ["z" + modes] + [modes[p] for p in range(m - 1) if p != pos]
        subs = ",".join(subs_in) + "->z" + modes[pos]
        J += np.einsum(subs, data, *([x] * (m - 2)), optimize=False)
    return J


def numpy_project_simplex(v, floor: float = 0.0) -> np.ndarray:
    """Projection onto ``{y >= floor, sum(y) = 1}`` in the sort-and-cumsum vector form."""
    v = np.asarray(v, dtype=np.float64)
    n = v.size
    if n == 1:
        return np.array([1.0])
    if floor * n >= 1.0:
        floor = 0.5 / n
    z = v - floor
    total = 1.0 - n * floor
    u = np.sort(z)[::-1]
    css = u.cumsum() - total
    idx = (u * np.arange(1, n + 1) > css).nonzero()[0]
    rho = idx[-1] if idx.size else 0
    theta = css[rho] / (rho + 1.0)
    return np.maximum(z - theta, 0.0) + floor
