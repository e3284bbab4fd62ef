"""Independent brute-force references the tests check the library against.

Everything here is deliberately naive: plain Python loops over index tuples
and dense grid scans of the simplex.  None of it shares code with the library
paths it validates.
"""

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


def loop_longest_edge(V: np.ndarray) -> tuple[int, int]:
    """Longest edge by a double loop over vertex pairs; the first (a, b) wins a tie."""
    best = (-1.0, 0, 1)
    r = V.shape[0]
    for a in range(r):
        for b in range(a + 1, r):
            d = float(np.dot(V[a] - V[b], V[a] - V[b]))
            if d > best[0]:
                best = (d, a, b)
    return best[1], best[2]


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
