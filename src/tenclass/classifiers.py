"""Tensor-class predicates and the aggregate classifier.

Semi-positivity reduces to principal subtensors through support locality: a
tensor fails the class exactly when some principal subtensor maps a strictly
positive vector to an all-negative (all-nonpositive for the strict class)
image.  The almost-classes ask every *proper* principal subtensor to stay in
the class while the full tensor leaves it.  Copositivity and the S/S0
feasibility classes run on the same subdivision engine; Z/M membership runs
on the spectral radius enclosure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import spectral
from .core import (
    Tensor,
    add,
    apply,
    as_vector,
    diag,
    is_nonneg,
    is_positive,
    is_symmetric,
    max_abs,
    principal_subtensor,
    row_subtensor,
)
from .subdivision import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    Verdict,
    decide_all_components_negative,
    decide_form_nonneg,
    search_nonneg_solution,
)
from .tensor_io import tensor_digest

__all__ = [
    "Config",
    "CLASSES",
    "CLASS_NAMES",
    "ClassificationReport",
    "ZDecomposition",
    "NotZTensorError",
    "SubsetCapError",
    "EntryConditions",
    "TensorClassifier",
    "is_diag_dominant",
    "is_z_tensor",
    "z_decompose",
    "is_m_tensor",
    "is_semi_positive",
    "is_almost_semi_positive",
    "is_copositive",
    "is_almost_copositive",
    "is_s_tensor",
    "is_s0_tensor",
    "is_completely_s",
    "is_completely_s0",
    "has_nonneg_row_subtensor",
    "entry_conditions",
    "stabilizing_diagonal",
    "check_weighted_characterization",
    "classify",
]


@dataclass(frozen=True)
class Config:
    """Shared tolerances and limits; one epsilon knob reported everywhere."""

    epsilon: float = 1e-9
    max_depth: int = 40
    subset_cap: int = 12
    seed: int = 0
    max_nodes: int = 200_000
    interior_margin: float = 1e-6
    s0_certify_cap: int = 4
    rho_tol: float = 1e-12
    rho_max_iter: int = 3000

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")

    def to_json(self) -> dict:
        return {
            "epsilon": float(self.epsilon),
            "max_depth": int(self.max_depth),
            "subset_cap": int(self.subset_cap),
            "seed": int(self.seed),
            "max_nodes": int(self.max_nodes),
            "interior_margin": float(self.interior_margin),
            "s0_certify_cap": int(self.s0_certify_cap),
        }


class NotZTensorError(ValueError):
    """The tensor has a positive off-diagonal entry."""


class SubsetCapError(ValueError):
    """Subset enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class ZDecomposition:
    """Splitting ``A = t * I - B`` with ``B`` nonnegative."""

    t: float
    B: Tensor

    def reconstruct(self) -> Tensor:
        return add(Tensor.diagonal(np.full(self.B.dim, self.t), self.B.order),
                   Tensor(-self.B.data))


def _offdiag_mask(order: int, dim: int) -> np.ndarray:
    mask = np.ones((dim,) * order, dtype=bool)
    mask[(np.arange(dim),) * order] = False
    return mask


def is_z_tensor(A: Tensor) -> Verdict:
    """Holds when every off-diagonal entry is nonpositive (an exact entry check)."""
    mask = _offdiag_mask(A.order, A.dim)
    bad = A.data[mask] > 0.0
    if bad.any():
        idx = np.argwhere(mask)[np.nonzero(bad)[0][0]]
        return Verdict(FAILS, None, 0.0, 0, 0, None,
                       {"positive_offdiagonal_at": tuple(int(i) for i in idx)})
    return Verdict(HOLDS, None, 0.0, 0, 0, None)


def z_decompose(A: Tensor) -> ZDecomposition:
    """Canonical splitting with ``t = max_i a[i..i]``; raises unless ``A`` is a Z-tensor."""
    mask = _offdiag_mask(A.order, A.dim)
    offdiag = A.data[mask]
    if offdiag.size and offdiag.max() > 0.0:
        idx = np.argwhere(mask)[int(np.argmax(A.data[mask]))]
        raise NotZTensorError(
            f"positive off-diagonal entry at {tuple(int(i) for i in idx)}"
        )
    t = float(diag(A).max())
    B = Tensor(t * Tensor.identity(A.order, A.dim).data - A.data)
    return ZDecomposition(t, B)


def is_diag_dominant(A: Tensor, strict: bool = False) -> Verdict:
    """``|a[i..i]| >= sum of |off-diagonal row entries|`` for every row (``>`` if strict)."""
    d = np.abs(diag(A))
    row_abs = np.abs(A.data).reshape(A.dim, -1).sum(axis=1) - np.abs(diag(A))
    slack = d - row_abs
    tol = 1e-12 * max(1.0, max_abs(A))
    bad = np.nonzero(slack < -tol if not strict else slack <= tol)[0]
    if bad.size:
        row = int(bad[0])
        return Verdict(FAILS, None, 0.0, 0, 0, float(slack[row]), {"row": row})
    return Verdict(HOLDS, None, 0.0, 0, 0, float(slack.min()))


@dataclass(frozen=True)
class EntryConditions:
    """Necessary entry-sign conditions for membership in the almost classes.

    ``drops[k]`` is the diagonal entry of row ``k`` plus the sum of the
    negative off-diagonal entries of that row; an almost semi-positive tensor
    must have a nonnegative diagonal and some strictly negative drop, the
    strict variant a positive diagonal and some nonpositive drop.
    """

    diagonal: tuple
    drops: tuple

    @property
    def diag_nonneg(self) -> bool:
        return all(v >= 0.0 for v in self.diagonal)

    @property
    def diag_positive(self) -> bool:
        return all(v > 0.0 for v in self.diagonal)

    @property
    def has_negative_drop(self) -> bool:
        return any(v < 0.0 for v in self.drops)

    @property
    def has_nonpositive_drop(self) -> bool:
        return any(v <= 0.0 for v in self.drops)

    def satisfied(self, strict: bool) -> bool:
        if strict:
            return self.diag_positive and self.has_nonpositive_drop
        return self.diag_nonneg and self.has_negative_drop

    def to_json(self) -> dict:
        return {
            "diagonal": [float(v) for v in self.diagonal],
            "drops": [float(v) for v in self.drops],
            "diag_nonneg": self.diag_nonneg,
            "diag_positive": self.diag_positive,
            "has_negative_drop": self.has_negative_drop,
            "has_nonpositive_drop": self.has_nonpositive_drop,
        }


def entry_conditions(A: Tensor) -> EntryConditions:
    """Evaluate the entry-sign conditions (used as a fast rejection filter).

    Both variants are always reported; ``satisfied`` picks one.
    """
    d = diag(A)
    drops = []
    diag_pos = (np.arange(A.dim),) * (A.order - 1)
    for k in range(A.dim):
        row = A.data[k].copy()
        row[tuple(p[k] for p in diag_pos)] = 0.0  # ignore the diagonal entry itself
        drops.append(float(d[k] + row[row < 0.0].sum()))
    return EntryConditions(tuple(float(v) for v in d), tuple(drops))


def has_nonneg_row_subtensor(A: Tensor, positive: bool = False) -> int | None:
    """Index of the first entrywise nonnegative (positive) row subtensor, if any."""
    for i in range(A.dim):
        row = row_subtensor(A, i).data
        if (np.all(row > 0.0) if positive else np.all(row >= 0.0)):
            return i
    return None


def stabilizing_diagonal(A: Tensor, x) -> Tensor:
    """Diagonal tensor ``D`` with ``apply(A + D, x) = 0`` for an all-negative witness ``x``.

    Requires ``x > 0`` and ``apply(A, x) < 0`` componentwise; the diagonal is
    then strictly positive.
    """
    x = as_vector(x, A.dim)
    if np.any(x <= 0.0):
        raise ValueError("x must be strictly positive")
    f = apply(A, x)
    if np.any(f >= 0.0):
        raise ValueError("apply(A, x) must be strictly negative componentwise")
    return Tensor.diagonal(-f / x ** (A.order - 1), A.order)


def check_weighted_characterization(A: Tensor, x, trials: int = 32,
                                    rng=None) -> bool:
    """Test ``x^T D apply(A, x) < 0`` over sampled nonnegative diagonals.

    The coordinate diagonals are always included; they are decisive, because
    the weighted product with the i-th coordinate diagonal is ``x_i`` times
    component ``i`` of the image.
    """
    x = as_vector(x, A.dim)
    f = apply(A, x)
    rng = np.random.default_rng(rng if rng is not None else 0)
    weights = list(np.eye(A.dim))
    for _ in range(trials):
        d = rng.random(A.dim)
        if not d.any():
            d = np.ones(A.dim)
        weights.append(d)
    return all(float(np.sum(x * d * f)) < 0.0 for d in weights)


# ---------------------------------------------------------------------------
# subtensor-quantified classes


def _nonempty_subsets(n: int):
    """Index subsets of ``range(n)`` by size, then lexicographically (the full set last)."""
    for size in range(1, n + 1):
        yield from combinations(range(n), size)


def _embed(y: np.ndarray, J: tuple[int, ...], n: int) -> np.ndarray:
    full = np.zeros(n)
    full[list(J)] = y
    return full


class TensorClassifier:
    """Caches per-subset engine decisions so the class predicates share work."""

    def __init__(self, A: Tensor, config: Config | None = None):
        self.tensor = A
        self.config = config or Config()
        if A.dim > self.config.subset_cap:
            raise SubsetCapError(
                f"dim {A.dim} exceeds subset cap {self.config.subset_cap}; "
                "refusing to subsample"
            )
        self._sub: dict[tuple[int, ...], Tensor] = {}
        self._component: dict[tuple, Verdict] = {}
        self._form: dict[tuple, Verdict] = {}
        self._feasible: dict[tuple, Verdict] = {}
        self._full = tuple(range(A.dim))

    # -- cached engine calls ------------------------------------------------

    def subtensor(self, J: tuple[int, ...]) -> Tensor:
        sub = self._sub.get(J)
        if sub is None:
            sub = self.tensor if J == self._full else principal_subtensor(self.tensor, J)
            self._sub[J] = sub
        return sub

    def component_decision(self, J: tuple[int, ...], engine_strict: bool) -> Verdict:
        key = (J, engine_strict)
        v = self._component.get(key)
        if v is None:
            cfg = self.config
            v = decide_all_components_negative(
                self.subtensor(J), engine_strict, cfg.epsilon, cfg.max_depth,
                max_nodes=cfg.max_nodes, interior_margin=cfg.interior_margin,
            )
            self._component[key] = v
        return v

    def form_decision(self, J: tuple[int, ...], strict: bool) -> Verdict:
        key = (J, strict)
        v = self._form.get(key)
        if v is None:
            cfg = self.config
            v = decide_form_nonneg(
                self.subtensor(J), strict, cfg.epsilon, cfg.max_depth,
                max_nodes=cfg.max_nodes,
            )
            self._form[key] = v
        return v

    def feasibility_decision(self, J: tuple[int, ...], strict: bool) -> Verdict:
        key = (J, strict)
        v = self._feasible.get(key)
        if v is None:
            cfg = self.config
            certify = strict or len(J) <= cfg.s0_certify_cap
            v = search_nonneg_solution(
                self.subtensor(J), strict, cfg.epsilon, cfg.max_depth,
                max_nodes=cfg.max_nodes, certify_absence=certify,
            )
            self._feasible[key] = v
        return v

    # -- class predicates ----------------------------------------------------

    def is_semi_positive(self, strict: bool = False) -> Verdict:
        """Semi-positive (strictly, if asked): no principal subtensor maps a
        positive vector to an all-negative (all-nonpositive) image."""
        engine_strict = not strict
        n = self.tensor.dim
        nodes = depth = 0
        worst = None
        pending = []
        for J in _nonempty_subsets(n):
            v = self.component_decision(J, engine_strict)
            nodes += v.nodes
            depth = max(depth, v.depth)
            if v.status == FAILS:
                witness = _embed(v.witness, J, n)
                return Verdict(FAILS, witness, v.epsilon, nodes, depth, v.worst_bound,
                               {"subset": J, **dict(v.info)})
            if v.worst_bound is not None:
                worst = v.worst_bound if worst is None else min(worst, v.worst_bound)
            if v.status == INCONCLUSIVE:
                pending.append(J)
        if pending:
            return Verdict(INCONCLUSIVE, None, self.config.epsilon, nodes, depth,
                           worst, {"undecided_subsets": pending})
        return Verdict(HOLDS, None, self.config.epsilon, nodes, depth, worst)

    def _almost(self, decide, reason: str) -> Verdict:
        """Every proper principal subtensor stays in the class, the full tensor leaves it.

        ``decide(J)`` is the engine verdict for subset ``J``, Holds when ``J``
        is in the class; ``reason`` explains a Fails whose full tensor is in it.
        """
        n = self.tensor.dim
        if n < 2:
            # the almost classes are defined for n >= 2 only: a 1-dimensional
            # tensor has no proper principal subtensor, so it is in none of them
            return Verdict(FAILS, None, self.config.epsilon, 0, 0, None,
                           {"reason": "dim_below_2"})
        nodes = depth = 0
        pending = []
        for J in _nonempty_subsets(n):
            if J == self._full:
                continue
            v = decide(J)
            nodes += v.nodes
            depth = max(depth, v.depth)
            if v.status == FAILS:
                witness = _embed(v.witness, J, n)
                return Verdict(FAILS, witness, v.epsilon, nodes, depth, v.worst_bound,
                               {"reason": "proper_subtensor_leaves_class", "subset": J})
            if v.status == INCONCLUSIVE:
                pending.append(J)
        full = decide(self._full)
        nodes += full.nodes
        depth = max(depth, full.depth)
        if full.status == HOLDS:
            return Verdict(FAILS, None, full.epsilon, nodes, depth, full.worst_bound,
                           {"reason": reason})
        if pending or full.status == INCONCLUSIVE:
            info = {"undecided_subsets": pending} if pending else {}
            return Verdict(INCONCLUSIVE, None, full.epsilon, nodes, depth,
                           full.worst_bound, info)
        return Verdict(HOLDS, full.witness, full.epsilon, nodes, depth,
                       full.worst_bound, dict(full.info))

    def is_almost_semi_positive(self, strict: bool = False) -> Verdict:
        """Every proper principal subtensor in the class, while some ``x > 0``
        leaves the full tensor (the verdict carries that ``x``)."""
        return self._almost(lambda J: self.component_decision(J, not strict),
                            "no_interior_witness")

    def is_copositive(self, strict: bool = False) -> Verdict:
        return self.form_decision(self._full, strict)

    def is_almost_copositive(self, strict: bool = False) -> Verdict:
        return self._almost(lambda J: self.form_decision(J, strict), "tensor_is_copositive")

    def is_s_tensor(self) -> Verdict:
        return self.feasibility_decision(self._full, True)

    def is_s0_tensor(self) -> Verdict:
        return self.feasibility_decision(self._full, False)

    def _completely(self, strict: bool) -> Verdict:
        n = self.tensor.dim
        nodes = depth = 0
        pending = []
        for J in _nonempty_subsets(n):
            v = self.feasibility_decision(J, strict)
            nodes += v.nodes
            depth = max(depth, v.depth)
            if v.status == FAILS:
                return Verdict(FAILS, None, v.epsilon, nodes, depth, v.worst_bound,
                               {"subset": J, "reason": "subtensor_has_no_solution"})
            if v.status == INCONCLUSIVE:
                pending.append(J)
        if pending:
            return Verdict(INCONCLUSIVE, None, self.config.epsilon, nodes, depth,
                           None, {"undecided_subsets": pending})
        full = self.feasibility_decision(self._full, strict)
        return Verdict(HOLDS, full.witness, self.config.epsilon, nodes, depth,
                       full.worst_bound, dict(full.info))

    def is_completely_s(self) -> Verdict:
        return self._completely(True)

    def is_completely_s0(self) -> Verdict:
        return self._completely(False)

    def is_m_tensor(self, strong: bool = False) -> Verdict:
        try:
            dec = z_decompose(self.tensor)
        except NotZTensorError as exc:
            return Verdict(FAILS, None, self.config.epsilon, 0, 0, None,
                           {"reason": "not_a_z_tensor", "detail": str(exc)})
        enc = spectral.spectral_radius_nonneg(
            dec.B, tol=self.config.rho_tol, max_iter=self.config.rho_max_iter
        )
        eps_abs = self.config.epsilon * (max_abs(self.tensor) or 1.0)
        info = {"t": dec.t, "rho_lower": enc.lower, "rho_upper": enc.upper,
                "rho_converged": enc.converged}
        if strong:
            if dec.t > enc.upper + eps_abs:
                return Verdict(HOLDS, None, self.config.epsilon, 0, 0, None, info)
        else:
            if dec.t >= enc.upper - eps_abs:
                return Verdict(HOLDS, None, self.config.epsilon, 0, 0, None, info)
        if dec.t < enc.lower - eps_abs:
            return Verdict(FAILS, None, self.config.epsilon, 0, 0, None, info)
        return Verdict(INCONCLUSIVE, None, self.config.epsilon, 0, 0, None, info)

    # -- aggregation ----------------------------------------------------------

    def classify(self) -> "ClassificationReport":
        A = self.tensor
        verdicts = {name: predicate(self) for name, predicate in CLASSES.items()}
        symmetric = is_symmetric(A)
        return ClassificationReport(
            digest=tensor_digest(A),
            order=A.order,
            dim=A.dim,
            symmetric=symmetric,
            config=self.config,
            verdicts=verdicts,
            violations=_consistency(A, symmetric, verdicts),
        )


def _trivial(flag: bool) -> Verdict:
    return Verdict(HOLDS if flag else FAILS, None, 0.0, 0, 0, None)


# every class and its predicate on a TensorClassifier; the order is the order
# of evaluation and of the report keys, part of the external interface
CLASSES = {
    "E0": lambda c: c.is_semi_positive(False),
    "E": lambda c: c.is_semi_positive(True),
    "almostE0": lambda c: c.is_almost_semi_positive(False),
    "almostE": lambda c: c.is_almost_semi_positive(True),
    "C0": lambda c: c.is_copositive(False),
    "C": lambda c: c.is_copositive(True),
    "almostC0": lambda c: c.is_almost_copositive(False),
    "almostC": lambda c: c.is_almost_copositive(True),
    "Z": lambda c: is_z_tensor(c.tensor),
    "M": lambda c: c.is_m_tensor(False),
    "strongM": lambda c: c.is_m_tensor(True),
    "diagDominant": lambda c: is_diag_dominant(c.tensor, False),
    "strictDiagDominant": lambda c: is_diag_dominant(c.tensor, True),
    "S": lambda c: c.is_s_tensor(),
    "S0": lambda c: c.is_s0_tensor(),
    "completelyS": lambda c: c.is_completely_s(),
    "completelyS0": lambda c: c.is_completely_s0(),
    "nonneg": lambda c: _trivial(is_nonneg(c.tensor)),
    "positive": lambda c: _trivial(is_positive(c.tensor)),
}
CLASS_NAMES = tuple(CLASSES)


@dataclass(frozen=True)
class ClassificationReport:
    """Per-class verdicts for one tensor plus the logical cross-checks."""

    digest: str
    order: int
    dim: int
    symmetric: bool
    config: Config
    verdicts: dict
    violations: list = field(default_factory=list)

    @property
    def all_decisive(self) -> bool:
        return all(v.decisive for v in self.verdicts.values())

    def to_json(self) -> dict:
        return {
            "digest": self.digest,
            "order": self.order,
            "dim": self.dim,
            "symmetric": self.symmetric,
            "config": self.config.to_json(),
            "verdicts": {name: self.verdicts[name].to_json() for name in CLASS_NAMES},
            "consistency_violations": list(self.violations),
        }


def _consistency(A: Tensor, symmetric: bool, verdicts: dict) -> list[str]:
    """Cross-checks among decisive verdicts; a nonempty result flags an engine bug."""
    v = verdicts

    def dec(name):
        return v[name].decisive

    def holds(name):
        return v[name].status == HOLDS

    out = []

    def implies(name, a, b):
        if dec(a) and dec(b) and holds(a) and not holds(b):
            out.append(name)

    def iff(name, a, b):
        if dec(a) and dec(b) and holds(a) != holds(b):
            out.append(name)

    implies("E_implies_E0", "E", "E0")
    implies("C_implies_C0", "C", "C0")
    implies("C0_implies_E0", "C0", "E0")
    implies("S_implies_S0", "S", "S0")
    implies("completelyS_implies_S", "completelyS", "S")
    implies("completelyS0_implies_S0", "completelyS0", "S0")
    implies("completelyS_implies_completelyS0", "completelyS", "completelyS0")
    implies("nonneg_implies_E0", "nonneg", "E0")
    implies("positive_implies_E", "positive", "E")
    if symmetric:
        implies("sym_E0_implies_C0", "E0", "C0")
        iff("sym_almostE0_iff_almostC0", "almostE0", "almostC0")
        iff("sym_almostE_iff_almostC", "almostE", "almostC")
    if holds("Z"):
        iff("z_E0_iff_M", "E0", "M")
        iff("z_E_iff_strongM", "E", "strongM")
        implies("strongM_implies_M", "strongM", "M")
    d = diag(A)
    if holds("diagDominant") and np.all(d >= 0.0):
        implies("dd_nonneg_diag_implies_E0", "diagDominant", "E0")
    if holds("strictDiagDominant") and np.all(d > 0.0):
        implies("sdd_positive_diag_implies_E", "strictDiagDominant", "E")
    for name in ("almostE0", "almostE"):
        if dec(name) and holds(name):
            if has_nonneg_row_subtensor(A) is not None:
                out.append(f"{name}_row_subtensor_without_negative_entry")
            if not entry_conditions(A).satisfied(strict=(name == "almostE")):
                out.append(f"{name}_entry_conditions_violated")
    if dec("almostE") and holds("almostE"):
        if dec("almostE0") and dec("E0") and not (holds("almostE0") or holds("E0")):
            out.append("almostE_outside_trichotomy")
    return out


# ---------------------------------------------------------------------------
# module-level operation wrappers


def is_semi_positive(A: Tensor, strict: bool = False, config: Config | None = None) -> Verdict:
    return TensorClassifier(A, config).is_semi_positive(strict)


def is_almost_semi_positive(A: Tensor, strict: bool = False,
                            config: Config | None = None) -> Verdict:
    return TensorClassifier(A, config).is_almost_semi_positive(strict)


def is_copositive(A: Tensor, strict: bool = False, config: Config | None = None) -> Verdict:
    return TensorClassifier(A, config).is_copositive(strict)


def is_almost_copositive(A: Tensor, strict: bool = False,
                         config: Config | None = None) -> Verdict:
    return TensorClassifier(A, config).is_almost_copositive(strict)


def is_s_tensor(A: Tensor, config: Config | None = None) -> Verdict:
    return TensorClassifier(A, config).is_s_tensor()


def is_s0_tensor(A: Tensor, config: Config | None = None) -> Verdict:
    return TensorClassifier(A, config).is_s0_tensor()


def is_completely_s(A: Tensor, config: Config | None = None) -> Verdict:
    return TensorClassifier(A, config).is_completely_s()


def is_completely_s0(A: Tensor, config: Config | None = None) -> Verdict:
    return TensorClassifier(A, config).is_completely_s0()


def is_m_tensor(A: Tensor, strong: bool = False, config: Config | None = None) -> Verdict:
    return TensorClassifier(A, config).is_m_tensor(strong)


def classify(A: Tensor, config: Config | None = None) -> ClassificationReport:
    return TensorClassifier(A, config).classify()
