"""Spectral radius of nonnegative tensors and constrained eigenpair search.

The radius routine is a cone-preserving power iteration: at a positive vector
``x`` the quotients ``(B x^{m-1})_i / x_i^{m-1}`` sandwich the spectral radius
of a nonnegative tensor, so each iterate yields a certified enclosure that the
iteration tightens.  The eigenpair routine minimizes the homogeneous form of a
symmetric tensor over ``{x >= 0, sum x_i^m = 1}``; an interior stationary
point solves ``A x^{m-1} = lambda x^{[m-1]}`` with a strictly positive
eigenvector, which is exactly the eigenpair the almost-class theory needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Tensor,
    apply,
    apply_jacobian,
    as_vector,
    falls_short,
    form_value,
    is_symmetric,
    tolerance,
)
from .subdivision import INTERIOR_MARGIN

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
        if self.lower > self.upper + 1e-12 or self.lower < -1e-12:
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


_ETAS = (0.0, 1e-10, 1e-8)
RHO_TOL = 1e-12
RHO_MAX_ITER = 3000


def spectral_radius_nonneg(B: Tensor, tol: float = RHO_TOL,
                           max_iter: int = RHO_MAX_ITER) -> RadiusEnclosure:
    """Enclose the spectral radius of an entrywise nonnegative tensor.

    Iterates ``x <- normalize(apply(B, x) ** (1/(m-1)))`` from the all-ones
    start.  Both enclosure sides come from the quotient sandwich at the
    current positive iterate, so they are valid at every step; reducible
    tensors, whose plain iteration can leave the open cone, are steered by
    re-running on ``B`` inflated with a small multiple of the all-ones tensor
    (the enclosure still brackets the radius of ``B`` itself).  ``tol`` is
    the enclosure width relative to its upper end.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if B.order < 2:
        raise ValueError(f"order {B.order} tensor: the spectral radius needs order >= 2")
    data = B.data
    if np.any(data < 0):
        idx = np.argwhere(data < 0)[0]
        raise ValueError(f"negative entry at index {tuple(int(i) for i in idx)}")
    if not np.any(data):
        return RadiusEnclosure(0.0, 0.0, 0)

    n = B.dim
    m = B.order
    power = m - 1
    lower = 0.0
    upper = np.inf
    iters = 0
    stage_iters = max(50, max_iter // len(_ETAS))
    inflate = tolerance(B, 1.0)  # the inflation is relative to B's largest entry

    for eta in _ETAS:
        x = np.full(n, 1.0 / n)
        stalled = 0
        for _ in range(stage_iters):
            u = apply(B, x)
            xm = x ** power
            q = u / xm
            gain = max(float(q.min()) - lower, upper - float(q.max()))
            lower = max(lower, float(q.min()))
            upper = min(upper, float(q.max()))
            iters += 1
            if upper - lower <= tol * upper:
                return RadiusEnclosure(lower, upper, iters)
            # reducible inputs pin one side of the quotient sandwich; give up
            # on the stage once the enclosure stops moving
            stalled = stalled + 1 if gain <= 1e-3 * tol * upper else 0
            if stalled >= 50:
                break
            u_eta = u + eta * inflate * (x.sum() ** power)
            if np.any(u_eta <= 0.0):
                break  # left the open cone; retry with a larger inflation
            y = u_eta ** (1.0 / power)
            x = y / y.sum()
        if iters >= max_iter:
            break

    return RadiusEnclosure(lower, upper, iters, converged=False)


def residual(A: Tensor, pair: EigenPair) -> float:
    """Max-norm defect of the eigenvalue equation ``A x^{m-1} = lambda x^{[m-1]}``."""
    x = as_vector(pair.x, A.dim)
    defect = apply(A, x) - pair.lam * x ** (A.order - 1)
    return float(np.max(np.abs(defect)))


def _project_cone_sphere(x: np.ndarray, m: int) -> np.ndarray | None:
    """Clip to the nonnegative orthant, then normalize onto ``sum x_i^m = 1``."""
    x = np.maximum(x, 0.0)
    norm = float(np.sum(x ** m)) ** (1.0 / m)
    if norm <= 0.0:
        return None
    return x / norm


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
    restarts: int = 8,
    *,
    nonpositive: bool = False,
    seed: int = 0,
) -> EigenPair | None:
    """Search for an H-eigenpair with strictly positive eigenvector and ``lambda < -tol``
    (``lambda <= tol`` when ``nonpositive`` is set); ``tol`` is absolute for
    ``lambda`` and relative to the largest absolute entry for the residual.

    Projected-gradient multistart on ``min A x^m`` over ``{x >= 0, sum x_i^m = 1}``
    with Armijo backtracking (at most 400 steps per start), followed by a Newton
    polish of the stationarity system; an eigenvector with a coordinate below
    ``INTERIOR_MARGIN`` is rejected.  Returning ``None`` means the nonconvex
    search found nothing; it is never a certificate of nonexistence.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not is_symmetric(A):
        raise ValueError("symmetric tensor required")
    n = A.dim
    m = A.order
    rng = np.random.default_rng(seed)

    starts = [np.full(n, 1.0)]
    for _ in range(restarts):
        starts.append(rng.uniform(0.1, 1.0, n))

    found: list[EigenPair] = []
    for start in starts:
        x = _project_cone_sphere(start, m)
        if x is None:
            continue
        val = form_value(A, x)
        for _ in range(400):
            grad = m * apply(A, x)
            gnorm = float(np.linalg.norm(grad))
            if gnorm < 1e-300:
                break
            step = 1.0
            moved = False
            for _ in range(30):
                x_new = _project_cone_sphere(x - step * grad, m)
                if x_new is not None:
                    val_new = form_value(A, x_new)
                    if val_new <= val - 1e-4 * step * gnorm * gnorm:
                        shift = float(np.max(np.abs(x_new - x)))
                        x, val = x_new, val_new
                        moved = shift > 1e-14
                        break
                step *= 0.5
            if not moved:
                break
        if float(np.min(x)) < INTERIOR_MARGIN:
            continue
        polished = _newton_polish(A, x, form_value(A, x))
        if polished is None:
            continue
        x, lam = polished
        if float(np.min(x)) < INTERIOR_MARGIN:
            continue
        pair = EigenPair(float(lam), x, 0.0)
        defect = residual(A, pair)
        if not defect <= tolerance(A, tol):  # a NaN residual is no eigenpair
            continue
        if falls_short(lam, tol, nonpositive):
            found.append(EigenPair(float(lam), x, defect))

    if not found:
        return None
    found.sort(key=lambda p: (p.lam, tuple(p.x)))
    return found[0]
