"""Spectral radius of nonnegative tensors and constrained eigenpair search.

The radius routine splits a nonnegative tensor into invariant blocks, whose
largest radius is the tensor's, and runs a shifted power iteration on each
weakly irreducible one: at a positive ``x`` the quotients
``(B x^{m-1})_i / x_i^{m-1}`` sandwich the block's radius, so each iterate
yields a certified enclosure.  The eigenpair routine minimizes the
homogeneous form of a symmetric tensor over ``{x >= 0, sum x_i^m = 1}``; an
interior stationary point solves ``A x^{m-1} = lambda x^{[m-1]}`` with a
strictly positive eigenvector, as the almost-class theory needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Tensor,
    apply,
    apply_jacobian,
    as_vector,
    diag,
    falls_short,
    form_value,
    is_symmetric,
    tolerance,
    unit_scale,
    unscale,
)
from .subdivision import INTERIOR_MARGIN, _polish_descent

__all__ = [
    "EigenPair",
    "RadiusEnclosure",
    "spectral_radius_nonneg",
    "find_negative_hpp_eigenpair",
    "residual",
]


@dataclass(frozen=True)
class EigenPair:
    """An H-eigenpair candidate with its max-norm defect."""

    lam: float
    x: np.ndarray
    residual: float

    def to_json(self) -> dict:
        return {
            "lambda": float(self.lam),
            "x": [float(v) for v in self.x],
            "residual": float(self.residual),
        }


@dataclass(frozen=True)
class RadiusEnclosure:
    """Certified interval around the spectral radius of a nonnegative tensor."""

    lower: float
    upper: float
    iterations: int
    converged: bool = True

    def __post_init__(self):
        # the quotients of a nonnegative tensor are >= 0; rounding may lift the
        # lower end past the upper one only by a slack relative to the upper
        if not 0.0 <= self.lower <= self.upper + 1e-12 * self.upper:
            raise ValueError(f"invalid enclosure [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def to_json(self) -> dict:
        return {
            "lower": float(self.lower),
            "upper": float(self.upper),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
        }


RHO_TOL = 1e-12
RHO_MAX_ITER = 3000


def _require_nonneg(B: Tensor) -> None:
    if np.any(B.data < 0):
        raise ValueError(f"negative entry at index {tuple(map(int, np.argwhere(B.data < 0)[0]))}")


def spectral_radius_nonneg(B: Tensor, tol: float = RHO_TOL,
                           max_iter: int = RHO_MAX_ITER) -> RadiusEnclosure:
    """Enclose the spectral radius of an entrywise nonnegative tensor.

    Index ``i`` reaches ``j`` when a positive entry of row ``i`` has ``j`` among
    its other indices.  The closed reach ``I`` of the index that reaches the
    fewest is invariant, so ``rho(B) = max(rho(B_I), rho(B_rest))``; blocks are
    split until each has dim 1, where the radius is the entry, or is weakly
    irreducible.  There ``x <- normalize((B x^{m-1} + s x^{[m-1]}) ** (1/(m-1)))``,
    with ``s`` the block's largest entry, converges from the all-ones start, and
    the quotients ``(B x^{m-1})_i / x_i^{m-1}`` at each iterate sandwich the
    block's radius.  An iterate with an underflowed coordinate has no quotient
    there, so the block stops at the iterate before it; the lower end is at
    least the largest diagonal entry.  ``tol`` is the width relative to the
    upper end; ``max_iter`` caps all blocks' iterations together (each
    iterating block makes at least one).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if B.order < 2:
        raise ValueError(f"order {B.order} tensor: the spectral radius needs order >= 2")
    _require_nonneg(B)

    power = B.order - 1
    lower, upper, iters = 0.0, 0.0, 0
    stack = [np.arange(B.dim)]
    while stack:
        J = stack.pop()
        block = Tensor(B.data[np.ix_(*[J] * B.order)])
        reach = np.eye(len(J), dtype=bool)
        rows, *others = np.nonzero(block.data)
        for cols in others:
            reach[rows, cols] = True
        for _ in range(len(J).bit_length()):  # transitive closure by squaring
            reach = (reach.astype(np.int64) @ reach) > 0
        if not reach.all():
            invariant = reach[np.argmin(reach.sum(axis=1))]
            stack += [J[~invariant], J[invariant]]
            continue
        if len(J) == 1:
            lo = hi = float(block.data.flat[0])
        else:
            shift = float(block.data.max())
            lo, hi, x = 0.0, np.inf, np.full(len(J), 1.0 / len(J))
            xm = x ** power
            while True:
                u = apply(block, x)
                q = u / xm
                lo, hi = max(lo, float(q.min())), min(hi, float(q.max()))
                iters += 1
                if hi - lo <= tol * hi or iters >= max_iter:
                    break
                y = (u + shift * xm) ** (1.0 / power)
                x = y / y.sum()
                xm = x ** power
                if not xm.all():  # an underflowed coordinate has no quotient
                    break
        lower, upper = max(lower, lo), max(upper, hi)
    # rho(B) is at least the radius of each principal subtensor, the 1 x 1
    # ones included, so a block stopped short still bounds it from below
    lower = max(lower, float(diag(B).max()))
    return RadiusEnclosure(lower, upper, iters, converged=upper - lower <= tol * upper)


def residual(A: Tensor, pair: EigenPair) -> float:
    """Max-norm defect of the eigenvalue equation ``A x^{m-1} = lambda x^{[m-1]}``."""
    x = as_vector(pair.x, A.dim)
    defect = apply(A, x) - pair.lam * x ** (A.order - 1)
    return float(np.max(np.abs(defect)))


def _project_cone_sphere(x: np.ndarray, m: int) -> np.ndarray:
    """Clip to the nonnegative orthant, then normalize onto ``sum x_i^m = 1``.

    ``x`` needs a positive coordinate.  The descent's starts are positive,
    and its steps move at most 1/2 from a point of m-norm 1, whose 2-norm is
    at least 1, so every trial point keeps one.
    """
    x = np.maximum(x, 0.0)
    return x / float(np.sum(x ** m)) ** (1.0 / m)


def _newton_polish(A: Tensor, x: np.ndarray, lam: float, iters: int = 12):
    """Newton steps on the eigenpair system; the m-norm row carries the tensor scale."""
    n = A.dim
    m = A.order
    scale = tolerance(A, 1.0)
    for _ in range(iters):
        xm1 = x ** (m - 1)
        res = np.concatenate([apply(A, x) - lam * xm1, [scale * (np.sum(x ** m) - 1.0)]])
        if np.max(np.abs(res)) < 1e-15 * scale:
            break
        J = np.zeros((n + 1, n + 1))
        J[:n, :n] = apply_jacobian(A, x) - lam * (m - 1) * np.diag(x ** (m - 2))
        J[:n, n] = -xm1
        J[n, :n] = scale * m * xm1
        try:
            delta = np.linalg.solve(J, -res)
        except np.linalg.LinAlgError:
            break
        x = x + delta[:n]
        lam = lam + delta[n]
        if np.any(x <= 0.0):
            return None
    return x, lam


def find_negative_hpp_eigenpair(
    A: Tensor,
    tol: float = 1e-10,
    *,
    nonpositive: bool = False,
) -> EigenPair | None:
    """Search for an H-eigenpair with strictly positive eigenvector and ``lambda < -tol``
    (``lambda <= tol`` when ``nonpositive`` is set); ``tol`` is absolute for
    ``lambda`` and relative to the largest absolute entry for the residual.

    Multistart on ``min A x^m`` over ``{x >= 0, sum x_i^m = 1}``, from the
    all-ones vector and 8 fixed draws of ``default_rng(0)``: each start
    descends through the engine's witness-polishing descent
    (``subdivision._polish_descent``, projected onto that set), then a Newton
    polish solves the stationarity system; an eigenvector with a coordinate
    below ``INTERIOR_MARGIN`` is rejected.  Returning ``None`` means the nonconvex
    search found nothing; it is never a certificate of nonexistence.  It runs
    on ``core.unit_scale(A)``, with the same eigenvectors, and reports in the
    units of ``A``: a ``lambda`` past the float range is a ``ValueError``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not is_symmetric(A):
        raise ValueError("symmetric tensor required")
    A, e = unit_scale(A)
    n = A.dim
    m = A.order
    starts = [np.full(n, 1.0), *np.random.default_rng(0).uniform(0.1, 1.0, (8, n))]
    min_decrease = tolerance(A, 1e-13)

    found: list[EigenPair] = []
    for start in starts:
        x, val = _polish_descent(start, lambda v: _project_cone_sphere(v, m),
                                 lambda v: (form_value(A, v), None),
                                 lambda v, _: m * apply(A, v), min_decrease)
        if float(np.min(x)) < INTERIOR_MARGIN:
            continue
        polished = _newton_polish(A, x, val)
        if polished is None:
            continue
        x, lam = polished
        if float(np.min(x)) < INTERIOR_MARGIN:
            continue
        pair = EigenPair(float(lam), x, 0.0)
        defect = residual(A, pair)
        if not defect <= tolerance(A, tol):  # a NaN residual is no eigenpair
            continue
        lam = unscale(float(lam), e)
        if lam is None:  # past the float range, with the sign of the copy's
            lam = float(np.copysign(np.inf, pair.lam))
        if falls_short(lam, tol, nonpositive):
            found.append(EigenPair(lam, x, unscale(defect, e)))

    if not found:
        return None
    best = min(found, key=lambda p: (p.lam, tuple(p.x)))
    if not np.isfinite(best.lam) or best.residual is None:
        raise ValueError(f"eigenpair found at scale 2**{e} does not fit in a float")
    return best
