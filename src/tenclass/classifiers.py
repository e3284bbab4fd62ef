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

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from . import spectral, subdivision
from .core import (
    Tensor,
    add,
    apply,
    as_vector,
    clears,
    diag,
    falls_short,
    is_nonneg,
    is_positive,
    is_symmetric,
    principal_subtensor,
    row_subtensor,
    tolerance,
    unit_scale,
    unscale,
)
from .subdivision import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_NODES,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    INTERIOR_MARGIN,
    Verdict,
    _check_params,
    decide_all_components_negative,  # these three are bound for benchmarks/tracing.py
    decide_form_nonneg,
    search_nonneg_solution,
)
from .tensor_io import tensor_digest

__all__ = [
    "Config",
    "CLASSES",
    "CLASS_NAMES",
    "THEOREMS",
    "FACTS",
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
    """The settable tolerance and limits; ``to_json`` also echoes the fixed node
    budget, interior margin and spectral-radius settings every verdict is decided under."""

    epsilon: float = DEFAULT_EPSILON
    max_depth: int = DEFAULT_MAX_DEPTH
    subset_cap: int = 12

    def __post_init__(self):
        _check_params(self.epsilon, self.max_depth)

    def to_json(self) -> dict:
        return {
            "epsilon": float(self.epsilon),
            "max_depth": int(self.max_depth),
            "subset_cap": int(self.subset_cap),
            "max_nodes": DEFAULT_MAX_NODES,
            "interior_margin": float(INTERIOR_MARGIN),
            "rho_tol": float(spectral.RHO_TOL),
            "rho_max_iter": int(spectral.RHO_MAX_ITER),
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


def is_z_tensor(A: Tensor) -> Verdict:
    """Holds when every off-diagonal entry is nonpositive (an exact entry check)."""
    mask = np.ones(A.data.shape, dtype=bool)
    mask[(np.arange(A.dim),) * A.order] = False
    bad = A.data[mask] > 0.0
    if bad.any():
        idx = np.argwhere(mask)[np.nonzero(bad)[0][0]]
        return Verdict(FAILS, None, 0.0, 0, 0, None,
                       {"positive_offdiagonal_at": tuple(int(i) for i in idx)})
    return Verdict(HOLDS, None, 0.0, 0, 0, None)


def z_decompose(A: Tensor) -> ZDecomposition:
    """Canonical splitting with ``t = max_i a[i..i]``; raises unless ``A`` is a Z-tensor."""
    z = is_z_tensor(A)
    if not z.holds:
        at = z.info["positive_offdiagonal_at"]
        raise NotZTensorError(f"positive off-diagonal entry at {at}")
    t = float(diag(A).max())
    B = Tensor(t * Tensor.identity(A.order, A.dim).data - A.data)
    return ZDecomposition(t, B)


def is_diag_dominant(A: Tensor, strict: bool = False) -> Verdict:
    """``|a[i..i]| >= sum of |off-diagonal row entries|`` for every row (``>`` if strict)."""
    A, e = unit_scale(A)
    d = np.abs(diag(A))
    off = np.abs(A.data)
    off[(np.arange(A.dim),) * A.order] = 0.0
    slack = d - off.reshape(A.dim, -1).sum(axis=1)
    bad = np.nonzero(falls_short(slack, tolerance(A, 1e-12), strict))[0]
    if bad.size:
        row = int(bad[0])
        return Verdict(FAILS, None, 0.0, 0, 0, unscale(float(slack[row]), e), {"row": row})
    return Verdict(HOLDS, None, 0.0, 0, 0, unscale(float(slack.min()), e))


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

    def satisfied(self, strict: bool) -> bool:
        """The sign rule of the pair, exact: every diagonal entry clears, some drop falls short."""
        return (all(clears(v, 0.0, strict) for v in self.diagonal)
                and any(falls_short(v, 0.0, strict) for v in self.drops))


def entry_conditions(A: Tensor) -> EntryConditions:
    """Evaluate the entry-sign conditions (used as a fast rejection filter).

    Both variants are always reported; ``satisfied`` picks one.  A drop is at
    most its diagonal entry, so one past the float range is -inf, whose sign
    is all ``satisfied`` reads.
    """
    d = diag(A)
    drops = []
    diag_pos = (np.arange(A.dim),) * (A.order - 1)
    for k in range(A.dim):
        row = A.data[k].copy()
        row[tuple(p[k] for p in diag_pos)] = 0.0  # ignore the diagonal entry itself
        with np.errstate(over="ignore"):
            drops.append(float(d[k] + row[row < 0.0].sum()))
    return EntryConditions(tuple(float(v) for v in d), tuple(drops))


def has_nonneg_row_subtensor(A: Tensor) -> int | None:
    """Index of the first entrywise nonnegative row subtensor, if any."""
    for i in range(A.dim):
        if np.all(row_subtensor(A, i).data >= 0.0):
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


def check_weighted_characterization(A: Tensor, x) -> bool:
    """Test ``x^T D apply(A, x) < 0`` for every nonzero nonnegative diagonal ``D``.

    The coordinate diagonals decide it: the weighted product with the i-th
    coordinate diagonal is ``x_i`` times component ``i`` of the image, and
    every other ``D`` is a nonnegative combination of them.
    """
    x = as_vector(x, A.dim)
    return bool(np.all(x * apply(A, x) < 0.0))


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


def _memo(cache: dict, key, compute):
    """``cache[key]``, filled by ``compute()`` on the first request."""
    value = cache.get(key)
    if value is None:
        value = cache[key] = compute()
    return value


class TensorClassifier:
    """Caches per-subset engine decisions so the ``CLASSES`` rows share work."""

    def __init__(self, A: Tensor, config: Config | None = None):
        if A.order < 2:
            raise ValueError(f"order {A.order} tensor: the classes need order >= 2")
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
        self._verdicts: dict[str, Verdict] = {}
        self._full = tuple(range(A.dim))

    @cached_property
    def symmetric(self) -> bool:
        return is_symmetric(self.tensor)

    def verdict(self, name: str) -> Verdict:
        """The verdict on class ``name`` (a ``CLASSES`` key), computed once."""
        return _memo(self._verdicts, name, lambda: CLASSES[name](self))

    def status(self, name: str) -> str:
        """The three-valued status of a ``THEOREMS`` rule, a class or a ``FACTS`` fact."""
        if name in THEOREMS:
            return THEOREMS[name](self)
        if name in CLASSES:
            return self.verdict(name).status
        if name in FACTS:
            return _truth(FACTS[name](self))
        raise KeyError(f"no rule, class or fact named {name!r}")

    # -- cached engine calls ------------------------------------------------

    def subtensor(self, J: tuple[int, ...]) -> Tensor:
        return _memo(self._sub, J, lambda: self.tensor if J == self._full
                     else principal_subtensor(self.tensor, J))

    def _decided(self, cache: dict, J: tuple[int, ...], strict: bool, searches) -> Verdict:
        """``cache[J, strict]``; a miss is decided with the undecided rest of its size group."""
        if (J, strict) not in cache:
            batch = [J] + [K for K in combinations(self._full, len(J))
                           if K > J and (K, strict) not in cache]
            found = searches([self.subtensor(K) for K in batch], strict,
                             self.config.epsilon, self.config.max_depth)
            cache.update(((K, strict), v) for K, v in zip(batch, found))
        return cache[J, strict]

    def component_decision(self, J: tuple[int, ...], engine_strict: bool) -> Verdict:
        return self._decided(self._component, J, engine_strict, subdivision._components_negative)

    def form_decision(self, J: tuple[int, ...], strict: bool) -> Verdict:
        return self._decided(self._form, J, strict, subdivision._forms_nonneg)

    def feasibility_decision(self, J: tuple[int, ...], strict: bool) -> Verdict:
        return self._decided(self._feasible, J, strict, subdivision._nonneg_solutions)

    # -- scans the ``CLASSES`` rows call --------------------------------------

    def _scan(self, decide, fail_info, almost: str | None = None) -> Verdict:
        """Decide the nonempty subsets, sizes ascending and the full set last, up
        to the first that breaks the class (a miss decides its size group at once).

        ``decide(J)`` is the engine verdict for subset ``J``, Holds when ``J``
        is in the class.  A subset that Fails breaks it: the verdict Fails with
        the witness, embedded in the full index set, and ``fail_info(J, v)``.
        With an ``almost`` reason the full set must leave the class instead: if
        it Holds, the verdict Fails with ``{"reason": almost}``.  Else the
        verdict is Inconclusive, listing the undecided subsets and, aligned with
        them, the ``limits`` their searches hit; or Holds with the full set's
        witness and info.  Whatever the status, ``worst_bound`` is the least
        root bound among the subsets scanned, undecided ones included, and None
        when one of those does not fit in a float.
        """
        n = self.tensor.dim
        eps = self.config.epsilon
        nodes = depth = 0
        worst = np.inf  # None once a scanned bound does not fit in a float
        pending, limits = [], []
        for J in _nonempty_subsets(n):
            v = decide(J)
            nodes += v.nodes
            depth = max(depth, v.depth)
            worst = None if None in (worst, v.worst_bound) else min(worst, v.worst_bound)
            if v.status == INCONCLUSIVE:
                pending.append(J)
                limits.append(v.info.get("limit"))
            elif almost and J == self._full:
                if v.status == HOLDS:
                    return Verdict(FAILS, None, eps, nodes, depth, worst, {"reason": almost})
            elif v.status == FAILS:
                witness = None if v.witness is None else _embed(v.witness, J, n)
                return Verdict(FAILS, witness, eps, nodes, depth, worst, fail_info(J, v))
        if pending:
            return Verdict(INCONCLUSIVE, None, eps, nodes, depth, worst,
                           {"undecided_subsets": pending, "limits": limits})
        return Verdict(HOLDS, v.witness, eps, nodes, depth, worst, dict(v.info))

    def _almost(self, decide, reason: str) -> Verdict:
        """Every proper principal subtensor stays in the class, the full tensor leaves it.

        ``decide(J)`` is the engine verdict for subset ``J``, Holds when ``J``
        is in the class; ``reason`` explains a Fails whose full tensor is in it.
        """
        if self.tensor.dim < 2:
            # the almost classes are defined for n >= 2 only: a 1-dimensional
            # tensor has no proper principal subtensor, so it is in none of them
            return Verdict(FAILS, None, self.config.epsilon, 0, 0, None,
                           {"reason": "dim_below_2"})
        return self._scan(decide, lambda J, v: {"reason": "proper_subtensor_leaves_class",
                                                "subset": J}, reason)

    @cached_property
    def _z_split(self):
        """``(A, e, split, radius enclosure)`` of the unit-scale copy ``A = 2^-e``
        times the tensor, or the reason it is not a Z-tensor; M and strong M
        share it."""
        # the sign test reads the tensor: the copy may round a positive
        # subnormal entry to 0
        z = is_z_tensor(self.tensor)
        if not z.holds:
            return f"positive off-diagonal entry at {z.info['positive_offdiagonal_at']}"
        A, e = unit_scale(self.tensor)
        dec = z_decompose(A)
        return A, e, dec, spectral.spectral_radius_nonneg(dec.B)

    def _m(self, strong: bool) -> Verdict:
        if isinstance(self._z_split, str):
            return Verdict(FAILS, None, self.config.epsilon, 0, 0, None,
                           {"reason": "not_a_z_tensor", "detail": self._z_split})
        A, e, dec, enc = self._z_split
        tol = tolerance(A, self.config.epsilon)
        info = {"t": unscale(dec.t, e), "rho_lower": unscale(enc.lower, e),
                "rho_upper": unscale(enc.upper, e), "rho_converged": enc.converged}
        # M asks t - rho >= 0, strong M t - rho > 0, with t - rho somewhere in
        # [t - upper, t - lower]; strong M fails within tol, as E does
        holds = clears(dec.t - enc.upper, tol, strong)
        fails = falls_short(dec.t - enc.lower, tol, strong)
        status = HOLDS if holds else FAILS if fails else INCONCLUSIVE
        return Verdict(status, None, self.config.epsilon, 0, 0, None, info)

    # -- aggregation ----------------------------------------------------------

    def classify(self) -> "ClassificationReport":
        A = self.tensor
        verdicts = {name: self.verdict(name) for name in CLASSES}
        return ClassificationReport(
            digest=tensor_digest(A),
            order=A.order,
            dim=A.dim,
            symmetric=self.symmetric,
            config=self.config,
            verdicts=verdicts,
            violations=[name for name in THEOREMS if self.status(name) == FAILS],
        )


def _truth(flag: bool) -> str:
    return HOLDS if flag else FAILS


def _trivial(flag: bool) -> Verdict:
    return Verdict(_truth(flag), None, 0.0, 0, 0, None)


def _subset_info(J, v) -> dict:
    return {"subset": J, **dict(v.info)}


def _no_solution(J, v) -> dict:
    return {"subset": J, "reason": "subtensor_has_no_solution"}


# every class and the one place it is decided, read through
# ``TensorClassifier.verdict``; the order is the order of evaluation and of the
# report keys, part of the external interface.  E0 (E) fails on an x > 0 with an
# all-negative (all-nonpositive) image, so its engine search is strict (not strict).
CLASSES = {
    "E0": lambda c: c._scan(lambda J: c.component_decision(J, True), _subset_info),
    "E": lambda c: c._scan(lambda J: c.component_decision(J, False), _subset_info),
    "almostE0": lambda c: c._almost(lambda J: c.component_decision(J, True),
                                    "no_interior_witness"),
    "almostE": lambda c: c._almost(lambda J: c.component_decision(J, False),
                                   "no_interior_witness"),
    "C0": lambda c: c.form_decision(c._full, False),
    "C": lambda c: c.form_decision(c._full, True),
    "almostC0": lambda c: c._almost(lambda J: c.form_decision(J, False), "tensor_is_copositive"),
    "almostC": lambda c: c._almost(lambda J: c.form_decision(J, True), "tensor_is_copositive"),
    "Z": lambda c: is_z_tensor(c.tensor),
    "M": lambda c: c._m(False),
    "strongM": lambda c: c._m(True),
    "diagDominant": lambda c: is_diag_dominant(c.tensor, False),
    "strictDiagDominant": lambda c: is_diag_dominant(c.tensor, True),
    "S": lambda c: c.feasibility_decision(c._full, True),
    "S0": lambda c: c.feasibility_decision(c._full, False),
    "completelyS": lambda c: c._scan(lambda J: c.feasibility_decision(J, True), _no_solution),
    "completelyS0": lambda c: c._scan(lambda J: c.feasibility_decision(J, False), _no_solution),
    "nonneg": lambda c: _trivial(is_nonneg(c.tensor)),
    "positive": lambda c: _trivial(is_positive(c.tensor)),
}
CLASS_NAMES = tuple(CLASSES)


# ---------------------------------------------------------------------------
# theorem table
#
# A rule takes a TensorClassifier and returns the three-valued truth of one
# implication between classes on its tensor: Holds when it is satisfied, also
# when a guard or premise is false; Fails when it is violated, which flags an
# engine or tolerance bug; Inconclusive when undecided.  A term is a name,
# read through ``TensorClassifier.status``, or a nested rule.


def _status(c: TensorClassifier, term) -> str:
    return c.status(term) if isinstance(term, str) else term(c)


def _implies(premise, conclusion):
    def rule(c):
        p = _status(c, premise)
        if p == HOLDS:
            return _status(c, conclusion)
        return HOLDS if p == FAILS else INCONCLUSIVE
    return rule


def _both(combine, a, b):
    """Evaluates both terms; undecided unless both are decisive."""
    def rule(c):
        pair = (_status(c, a), _status(c, b))
        if INCONCLUSIVE in pair:
            return INCONCLUSIVE
        return _truth(combine(pair[0] == HOLDS, pair[1] == HOLDS))
    return rule


def _iff(a, b):
    return _both(operator.eq, a, b)


# the exact terms of the rules: a truth of the tensor decided without a search
FACTS = {
    "symmetric": lambda c: c.symmetric,
    "nonnegDiagonal": lambda c: bool(np.all(diag(c.tensor) >= 0.0)),
    "positiveDiagonal": lambda c: bool(np.all(diag(c.tensor) > 0.0)),
    "noNonnegRowSubtensor": lambda c: has_nonneg_row_subtensor(c.tensor) is None,
    "entrySigns": lambda c: entry_conditions(c.tensor).satisfied(False),
    "strictEntrySigns": lambda c: entry_conditions(c.tensor).satisfied(True),
}

# the theorems ``classify`` cross-checks and the suites test, by name; the
# order is the order of ``consistency_violations``
THEOREMS = {
    "E_implies_E0": _implies("E", "E0"),
    "C_implies_C0": _implies("C", "C0"),
    "C0_implies_E0": _implies("C0", "E0"),
    "S_implies_S0": _implies("S", "S0"),
    "completelyS_implies_S": _implies("completelyS", "S"),
    "completelyS0_implies_S0": _implies("completelyS0", "S0"),
    "completelyS_implies_completelyS0": _implies("completelyS", "completelyS0"),
    "nonneg_implies_E0": _implies("nonneg", "E0"),
    "positive_implies_E": _implies("positive", "E"),
    "sym_E0_implies_C0": _implies("symmetric", _implies("E0", "C0")),
    "sym_almostE0_iff_almostC0": _implies("symmetric", _iff("almostE0", "almostC0")),
    "sym_almostE_iff_almostC": _implies("symmetric", _iff("almostE", "almostC")),
    "z_E0_iff_M": _implies("Z", _iff("E0", "M")),
    "z_E_iff_strongM": _implies("Z", _iff("E", "strongM")),
    "strongM_implies_M": _implies("Z", _implies("strongM", "M")),
    "dd_nonneg_diag_implies_E0": _implies("nonnegDiagonal", _implies("diagDominant", "E0")),
    "sdd_positive_diag_implies_E": _implies("positiveDiagonal",
                                            _implies("strictDiagDominant", "E")),
    "almostE0_row_subtensor_without_negative_entry": _implies("almostE0", "noNonnegRowSubtensor"),
    "almostE0_entry_conditions_violated": _implies("almostE0", "entrySigns"),
    "almostE_row_subtensor_without_negative_entry": _implies("almostE", "noNonnegRowSubtensor"),
    "almostE_entry_conditions_violated": _implies("almostE", "strictEntrySigns"),
    "almostE_outside_trichotomy": _implies("almostE", _both(operator.or_, "almostE0", "E0")),
}


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


# ---------------------------------------------------------------------------
# module-level shorthands for ``TensorClassifier(A, config).verdict(name)``


def is_semi_positive(A: Tensor, strict: bool = False, config: Config | None = None) -> Verdict:
    return TensorClassifier(A, config).verdict("E" if strict else "E0")


def is_almost_semi_positive(A: Tensor, strict: bool = False,
                            config: Config | None = None) -> Verdict:
    return TensorClassifier(A, config).verdict("almostE" if strict else "almostE0")


def is_copositive(A: Tensor, strict: bool = False, config: Config | None = None) -> Verdict:
    return TensorClassifier(A, config).verdict("C" if strict else "C0")


def is_almost_copositive(A: Tensor, strict: bool = False,
                         config: Config | None = None) -> Verdict:
    return TensorClassifier(A, config).verdict("almostC" if strict else "almostC0")


def is_s_tensor(A: Tensor, config: Config | None = None) -> Verdict:
    return TensorClassifier(A, config).verdict("S")


def is_s0_tensor(A: Tensor, config: Config | None = None) -> Verdict:
    return TensorClassifier(A, config).verdict("S0")


def is_completely_s(A: Tensor, config: Config | None = None) -> Verdict:
    return TensorClassifier(A, config).verdict("completelyS")


def is_completely_s0(A: Tensor, config: Config | None = None) -> Verdict:
    return TensorClassifier(A, config).verdict("completelyS0")


def is_m_tensor(A: Tensor, strong: bool = False, config: Config | None = None) -> Verdict:
    return TensorClassifier(A, config).verdict("strongM" if strong else "M")


def classify(A: Tensor, config: Config | None = None) -> ClassificationReport:
    return TensorClassifier(A, config).classify()
