"""Random structured generators, theorem property suites, and the fixture corpus.

Each suite turns one implication or equivalence between tensor classes into a
seeded batch of generated instances.  A violation among decisive verdicts is
data, not an assertion failure: the implications are theorems, so a violation
means an engine or tolerance bug and the offending tensor is embedded in the
report for triage.  Undecided instances are counted separately.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from itertools import islice, repeat

import numpy as np

from .classifiers import (
    Config,
    TensorClassifier,
    _nonempty_subsets,
    is_diag_dominant,
    stabilizing_diagonal,
)
from .core import (
    Tensor,
    add,
    apply,
    form_value,
    permute,
    scale_rows,
    scale_modes,
    symmetrize,
)
from .spectral import spectral_radius_nonneg
from .subdivision import FAILS, HOLDS, INCONCLUSIVE, _check_count
from .tensor_io import parse_tensor, tensor_to_json

__all__ = [
    "GeneratorSpec",
    "RejectionBudgetError",
    "generate",
    "Fixture",
    "load_fixtures",
    "run_fixtures",
    "SUITES",
    "run_suite",
    "run_all",
    "thread_count",
]

# (order, dim) sweep for suite instances
_SIZES = ((3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4))


class RejectionBudgetError(RuntimeError):
    """The seeded generator ran out of rejection-sampling attempts."""


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    order: int
    dim: int
    count: int = 1
    seed: int = 0
    factor: float | None = None

    def __post_init__(self):
        if self.kind not in GENERATORS:
            raise ValueError(f"unknown generator kind {self.kind!r}; "
                             f"choose from {tuple(GENERATORS)}")
        for name in ("order", "dim", "count"):
            _check_count(name, getattr(self, name))
        if self.order < 2:
            raise ValueError("order must be at least 2")
        if self.factor is not None and self.kind != "zTensor":
            raise ValueError(f"factor applies only to the zTensor kind, not {self.kind!r}")


def thread_count() -> int:
    """Worker cap from TENCLASS_THREADS (default 1); results do not depend on it."""
    raw = os.environ.get("TENCLASS_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# generators


def _diag_index(order, dim):
    return (np.arange(dim),) * order


def _gen_diag_dominant(rng, m, n, strict):
    data = rng.uniform(-1.0, 1.0, (n,) * m)
    di = _diag_index(m, n)
    data[di] = 0.0
    row_abs = np.abs(data).reshape(n, -1).sum(axis=1)
    slack = 0.1 + rng.uniform(0.0, 0.5, n) if strict else rng.uniform(0.0, 0.5, n)
    data[di] = row_abs + slack
    A = Tensor(data)
    assert is_diag_dominant(A, strict).holds
    return A


def _gen_z(rng, m, n, factor):
    B = Tensor(rng.uniform(0.0, 1.0, (n,) * m))
    t = float(factor) * spectral_radius_nonneg(B).midpoint
    return Tensor(t * Tensor.identity(m, n).data - B.data)


def _gen_symmetric(rng, m, n, shift=0.0):
    A = symmetrize(Tensor(rng.uniform(-1.0, 1.0, (n,) * m)))
    if shift:
        A = add(A, Tensor(shift * Tensor.identity(m, n).data))
    return A


def _gen_nonneg(rng, m, n):
    return Tensor(rng.uniform(0.0, 1.0, (n,) * m))


def _gen_almost_e0(rng, m, n, config, budget=50):
    """Seeded construction of an almost semi-positive tensor and its witness.

    The witness ``x`` and a negative target image are drawn first.  Each row
    gets a positive diagonal, sparse nonnegative noise, and one negative entry
    whose modes avoid the row index and spread over as many other indices as
    possible; its coefficient is then solved so that ``apply(A, x)`` equals the
    target exactly.  Spreading the negative mass keeps every proper principal
    subtensor semi-positive (each one sees at most one tainted row, and that
    row's positive diagonal covers the single-index supports), which the
    accept filter re-certifies through the engine before a draw is emitted.
    """
    if n < 2:
        raise ValueError("seeded generation needs dim >= 2")
    di = _diag_index(m, n)
    neg_slots = []
    for i in range(n):
        modes = tuple((i + 1 + (k % (n - 1))) % n for k in range(m - 1))
        neg_slots.append((i,) + modes)
    for _ in range(budget):
        x = rng.uniform(0.85, 1.15, n)
        drop = rng.uniform(0.3, 1.0, n)
        data = np.zeros((n,) * m)
        for _ in range(2 * n):
            idx = tuple(int(v) for v in rng.integers(0, n, m))
            if idx not in neg_slots:
                data[idx] += rng.uniform(0.0, 0.2)
        data[di] = rng.uniform(0.8, 1.2, n)
        base = apply(Tensor(data), x)
        for i, slot in enumerate(neg_slots):
            mode_product = float(np.prod(x[list(slot[1:])]))
            data[slot] = -(base[i] + drop[i]) / mode_product
        A = Tensor(data)
        f = apply(A, x)
        if np.any(f >= -1e-9):
            continue
        clf = TensorClassifier(A, config)
        proper = list(_nonempty_subsets(n))[:-1]  # the full set comes last
        if all(clf.component_decision(J, True).status == HOLDS for J in proper):
            return A, x
    raise RejectionBudgetError(
        f"no almost semi-positive draw accepted in {budget} attempts (m={m}, n={n})"
    )


# every generator kind and its draw from (rng, spec, config)
GENERATORS = {
    "diagDominant": lambda rng, s, _: _gen_diag_dominant(rng, s.order, s.dim, False),
    "strictDiagDominant": lambda rng, s, _: _gen_diag_dominant(rng, s.order, s.dim, True),
    "zTensor": lambda rng, s, _: _gen_z(rng, s.order, s.dim,
                                        1.5 if s.factor is None else s.factor),
    "symmetric": lambda rng, s, _: _gen_symmetric(rng, s.order, s.dim),
    "nonneg": lambda rng, s, _: _gen_nonneg(rng, s.order, s.dim),
    "almostE0Seeded": lambda rng, s, config: _gen_almost_e0(rng, s.order, s.dim, config)[0],
}


def generate(spec: GeneratorSpec, config: Config | None = None) -> list[Tensor]:
    """Produce ``spec.count`` tensors; every output satisfies its kind's defining check."""
    config = config or Config()
    draw = GENERATORS[spec.kind]
    return [draw(np.random.default_rng([spec.seed, i]), spec, config)
            for i in range(spec.count)]


# ---------------------------------------------------------------------------
# suites


def _violation(i, detail, *tensors):
    return {
        "instance": i,
        "detail": detail,
        "tensors": [tensor_to_json(T) for T in tensors],
    }


def _checks(i, config, *checks):
    """Outcome of instance ``i`` from ``(tensor, name)`` checks.

    ``name`` is a ``THEOREMS`` rule, a class or a ``FACTS`` fact the tensor
    must satisfy, read through one classifier per tensor.  The checks run in
    order up to the first violation, whose detail is the name; without one,
    any undecided check makes the instance inconclusive.
    """
    classifiers = {}
    undecided = False
    for T, name in checks:
        if id(T) not in classifiers:
            classifiers[id(T)] = TensorClassifier(T, config)
        status = classifiers[id(T)].status(name)
        if status == FAILS:
            return "violation", _violation(i, name, T)
        undecided |= status == INCONCLUSIVE
    return ("inconclusive", None) if undecided else ("ok", None)


def _sweep(i: int, kinds: tuple) -> tuple:
    """The kind and ``(order, dim)`` shape of suite instance ``i``.

    The kinds cycle fastest, so every ``len(kinds) * len(_SIZES)`` instances
    meet each kind at each shape once.
    """
    return kinds[i % len(kinds)], _SIZES[(i // len(kinds)) % len(_SIZES)]


def _suite(salt, body, kinds=(None,)):
    """Suite instance runner: ``body(i, kind, rng, m, n, config)`` gives the
    outcome of instance ``i`` on the ``default_rng([seed, salt, i])`` stream, at
    the kind and shape ``(m, n)`` that ``_sweep(i, kinds)`` assigns it.
    """
    def run(i, seed, config):
        kind, (m, n) = _sweep(i, kinds)
        return body(i, kind, np.random.default_rng([seed, salt, i]), m, n, config)
    run.kinds = kinds  # so the sweep a suite runs can be read back through _sweep
    return run


def _dd(i, _, rng, m, n, config):
    A = _gen_diag_dominant(rng, m, n, False)
    return _checks(i, config, (A, "dd_nonneg_diag_implies_E0"))


def _sdd(i, _, rng, m, n, config):
    A = _gen_diag_dominant(rng, m, n, True)
    return _checks(i, config, (A, "sdd_positive_diag_implies_E"))


def _nonneg(i, _, rng, m, n, config):
    A = _gen_nonneg(rng, m, n)
    return _checks(i, config, (A, "nonneg_implies_E0"),
                   (Tensor(A.data + 0.05), "positive_implies_E"))


def _z(i, factor, rng, m, n, config):
    A = _gen_z(rng, m, n, factor)
    # t at the midpoint of the radius enclosure sits on the E boundary, which
    # is not numerically decidable; the E / strong M equivalence is exercised
    # off the boundary
    rules = ("z_E0_iff_M",) if factor == 1.0 else ("z_E0_iff_M", "z_E_iff_strongM")
    return _checks(i, config, *((A, rule) for rule in rules))


def _cop_implies_semi(i, symmetric, rng, m, n, config):
    A = Tensor(rng.uniform(-0.3, 1.0, (n,) * m))
    return _checks(i, config, (symmetrize(A) if symmetric else A, "C0_implies_E0"))


def _sym_semi_implies_cop(i, shift, rng, m, n, config):
    A = _gen_symmetric(rng, m, n, shift=shift)
    return _checks(i, config, (A, "sym_E0_implies_C0"))


# symmetric (3, 2) tensors in the almost classes, built from fixed entry patterns
_SYM_ALMOST = tuple(symmetrize(Tensor.from_coo(3, 2, entries)) for entries in (
    [((0, 0, 0), 1.0), ((0, 0, 1), -2.0), ((1, 0, 1), -3.0), ((1, 1, 1), 1.0)],
    [((0, 0, 0), 1.0), ((1, 1, 1), 1.0), ((0, 1, 1), -1.0), ((1, 0, 0), -1.0)],
))


def _sym_almost_iff(i, kind, rng, m, n, config):
    """``kind`` is the shift of a random symmetric draw, or one of the
    ``_SYM_ALMOST`` patterns, which is drawn at (3, 2) whatever the shape."""
    if isinstance(kind, Tensor):
        # conjugate the pattern by a positive diagonal and a permutation; both
        # transforms preserve the class and the symmetry
        d = rng.uniform(0.5, 2.0, kind.dim)
        A = permute(scale_rows(scale_modes(kind, d), d), rng.permutation(kind.dim))
    else:
        A = _gen_symmetric(rng, m, n, shift=kind)
    return _checks(i, config, (A, "sym_almostE0_iff_almostC0"), (A, "sym_almostE_iff_almostC"))


def _almost_invariance(i, _, rng, m, n, config):
    A, _ = _gen_almost_e0(rng, m, n, config)
    base = TensorClassifier(A, config).status("almostE0")
    if base == INCONCLUSIVE:
        return "inconclusive", None
    d = rng.uniform(0.5, 2.0, n)
    sigma = rng.permutation(n)
    transformed = {
        "row_scaled": scale_rows(A, d),
        "mode_scaled": scale_modes(A, d),
        "permuted": permute(A, sigma),
    }
    for label, T in transformed.items():
        status = TensorClassifier(T, config).status("almostE0")
        if status == INCONCLUSIVE:
            return "inconclusive", None
        if status != base:
            return "violation", _violation(
                i, f"almost semi-positivity not invariant under {label}: "
                   f"{base} vs {status}", A, T)
    return "ok", None


def _stabilized(rng, m, n, config):
    """A seeded almost semi-positive tensor, its witness and the tensor plus its
    stabilizing diagonal."""
    A, x = _gen_almost_e0(rng, m, n, config)
    return A, x, add(A, stabilizing_diagonal(A, x))


def _almost_rows(i, _, rng, m, n, config):
    A, _, A2 = _stabilized(rng, m, n, config)
    return _checks(i, config, (A, "noNonnegRowSubtensor"), (A2, "noNonnegRowSubtensor"))


def _almost_entries(i, _, rng, m, n, config):
    A, _, A2 = _stabilized(rng, m, n, config)
    return _checks(i, config, (A, "entrySigns"), (A2, "strictEntrySigns"))


def _stabilizer(i, _, rng, m, n, config):
    A, x, A2 = _stabilized(rng, m, n, config)
    res = float(np.max(np.abs(apply(A2, x))))
    if res > 1e-10:
        return "violation", _violation(i, f"stabilized image norm {res} exceeds 1e-10", A)
    return _checks(i, config, (A2, "almostE"), (A2, "completelyS0"))


def _trichotomy(i, _, rng, m, n, config):
    _, _, A2 = _stabilized(rng, m, n, config)
    return _checks(i, config, (A2, "almostE"), (A2, "almostE_outside_trichotomy"))


SUITES = {
    "dd_implies_E0": (_suite(20, _dd), 200,
                      "diagonal dominance with nonnegative diagonal implies E0"),
    "sdd_implies_E": (_suite(21, _sdd), 200,
                      "strict diagonal dominance with positive diagonal implies E"),
    "nonneg_implies_E0": (_suite(22, _nonneg), 200,
                          "nonnegative implies E0; positive implies E"),
    "z_E0_iff_M": (_suite(23, _z, (0.5, 1.0, 1.5)), 200,
                   "for Z-tensors: E0 iff M, E iff strong M (t swept around rho)"),
    "copositive_implies_semipositive": (_suite(24, _cop_implies_semi, (False, True)), 200,
                                        "copositive implies semi-positive"),
    "sym_semipositive_implies_copositive": (_suite(25, _sym_semi_implies_cop, (0.0, 0.5, 1.5)),
                                            200, "symmetric semi-positive implies copositive"),
    "sym_almostE0_iff_almostC0": (_suite(26, _sym_almost_iff, (0.0, 0.4, *_SYM_ALMOST)), 200,
                                  "symmetric: almost E0 iff almost C0, almost E iff almost C"),
    "almost_invariance": (_suite(27, _almost_invariance), 200,
                          "almost classes invariant under diagonal scalings and permutation"),
    "almost_row_negative": (_suite(28, _almost_rows), 200,
                            "almost-class members have a negative entry in every row subtensor"),
    "almost_entry_conditions": (_suite(29, _almost_entries), 200,
                                "almost-class members satisfy the entry-sign conditions"),
    "stabilizer": (_suite(30, _stabilizer), 50,
                   "adding the stabilizing diagonal gives an almost-E, completely-S0 tensor"),
    "almost_E_trichotomy": (_suite(31, _trichotomy), 200,
                            "almost E implies almost E0 or E0"),
}


def _suite_instance(name: str, seed: int, config: Config, i: int):
    """Instance ``i`` of suite ``name``; module level so a worker process can run it."""
    return SUITES[name][0](i, seed, config)


def _run(names, seed: int, count: int | None, config: Config | None,
         threads: int | None) -> dict:
    """Report of each suite in ``names``, at ``count`` instances or its own count.

    The instances of all the suites share one worker pool.  With more than one
    worker (at most ``threads``, one per CPU) they run in freshly spawned
    worker processes; the ordered ``map`` keeps the reports independent of the
    worker count.
    """
    if count is not None:
        # a suite of no instances would pass a gate that checked nothing
        _check_count("count", count)
    config = config or Config()
    # where an image vanishes, a leaf must be below epsilon / the image gradient
    config = replace(config, max_depth=max(config.max_depth, 128))
    counts = {name: SUITES[name][1] if count is None else count for name in names}
    jobs = [(name, i) for name, c in counts.items() for i in range(c)]
    threads = thread_count() if threads is None else max(1, threads)
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    args = ([name for name, _ in jobs], repeat(seed), repeat(config), [i for _, i in jobs])
    if workers > 1:
        # loaded here: a serial run, the default, pays no import time or memory for it
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
            results = iter(list(pool.map(_suite_instance, *args)))
    else:
        results = map(_suite_instance, *args)
    reports = {}
    for name, c in counts.items():
        statuses, details = zip(*islice(results, c))
        reports[name] = {
            "suite": name,
            "description": SUITES[name][2],
            "seed": seed,
            "instances": c,
            "violations": [d for s, d in zip(statuses, details) if s == "violation"],
            "inconclusive": statuses.count("inconclusive"),
            "config": config.to_json(),
        }
    return reports


def run_suite(name: str, seed: int = 0, count: int | None = None,
              config: Config | None = None, threads: int | None = None) -> dict:
    """Run one suite; the report is deterministic for fixed (seed, config)."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return _run([name], seed, count, config, threads)[name]


def run_all(seed: int = 0, count: int | None = None, config: Config | None = None,
            threads: int | None = None) -> dict:
    """Run every suite; the instances of all suites share one worker pool."""
    reports = _run(SUITES, seed, count, config, threads)
    return {
        "seed": seed,
        "instances": sum(r["instances"] for r in reports.values()),
        "violations": sum(len(r["violations"]) for r in reports.values()),
        "inconclusive": sum(r["inconclusive"] for r in reports.values()),
        "suites": reports,
    }


# ---------------------------------------------------------------------------
# fixture corpus


@dataclass(frozen=True)
class Fixture:
    """A corpus tensor with its expected class labels and value checks."""

    name: str
    description: str
    tensor: Tensor
    expected: dict
    checks: tuple = ()

    @classmethod
    def from_json(cls, doc: dict) -> "Fixture":
        return cls(
            name=doc["name"],
            description=doc.get("description", ""),
            tensor=parse_tensor(doc["tensor"]),
            expected=dict(doc.get("expected", {})),
            checks=tuple(doc.get("checks", ())),
        )


def load_fixtures() -> list[Fixture]:
    """The built-in corpus, shipped as JSON files inside the package."""
    import importlib.resources as resources
    import json

    out = []
    root = resources.files("tenclass") / "fixtures"
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out.append(Fixture.from_json(json.loads(entry.read_text())))
    return out


def _run_check(fixture: Fixture, check: dict) -> dict:
    from .core import principal_subtensor

    T = fixture.tensor
    if "J" in check:
        T = principal_subtensor(T, check["J"])
    x = np.asarray(check["x"], dtype=np.float64)
    if check["op"] == "apply":
        got = apply(T, x)
        expected = np.asarray(check["expected"], dtype=np.float64)
        ok = bool(np.array_equal(got, expected))
        return {"op": "apply", "ok": ok, "got": [float(v) for v in got]}
    if check["op"] == "form":
        got = form_value(T, x)
        ok = got == float(check["expected"])
        return {"op": "form", "ok": ok, "got": float(got)}
    raise ValueError(f"unknown check op {check['op']!r}")


def run_fixtures(config: Config | None = None) -> dict:
    """Evaluate every expected label and value check of the built-in corpus."""
    config = config or Config()
    results = []
    all_ok = True
    any_inconclusive = False
    for fixture in load_fixtures():
        clf = TensorClassifier(fixture.tensor, config)
        labels = []
        for cls_name, expected in fixture.expected.items():
            verdict = clf.verdict(cls_name)
            ok = verdict.status == expected
            all_ok &= ok
            any_inconclusive |= verdict.status == INCONCLUSIVE
            entry = {"class": cls_name, "expected": expected,
                     "got": verdict.status, "ok": ok}
            if verdict.witness is not None:
                entry["witness"] = [float(v) for v in verdict.witness]
            labels.append(entry)
        checks = []
        for check in fixture.checks:
            res = _run_check(fixture, check)
            all_ok &= res["ok"]
            checks.append(res)
        results.append({
            "fixture": fixture.name,
            "labels": labels,
            "checks": checks,
        })
    return {
        "passed": all_ok,
        "inconclusive": any_inconclusive,
        "fixtures": results,
        "config": config.to_json(),
    }
