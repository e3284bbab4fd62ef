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
    THEOREMS,
    Config,
    TensorClassifier,
    _nonempty_subsets,
    entry_conditions,
    has_nonneg_row_subtensor,
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
from .subdivision import FAILS, HOLDS, INCONCLUSIVE
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

GENERATOR_KINDS = (
    "diagDominant",
    "strictDiagDominant",
    "zTensor",
    "symmetric",
    "nonneg",
    "almostE0Seeded",
)

# (order, dim) sweep for suite instances
_SIZES = ((3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4))
# seeded almost-instances skip (4, 4): rejection sampling there is too slow
# for a 200-instance batch
_SIZES_SEEDED = ((3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 2))


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
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}; "
                             f"choose from {GENERATOR_KINDS}")
        if self.order < 2 or self.dim < 1 or self.count < 1:
            raise ValueError("order >= 2, dim >= 1 and count >= 1 required")


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
    return Tensor(data)


def _gen_z(rng, m, n, factor):
    B = Tensor(rng.uniform(0.0, 1.0, (n,) * m))
    enc = spectral_radius_nonneg(B)
    t = float(factor) * enc.midpoint
    A = Tensor(t * Tensor.identity(m, n).data - B.data)
    return A, B, t


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


def generate(spec: GeneratorSpec, config: Config | None = None) -> list[Tensor]:
    """Produce ``spec.count`` tensors; every output satisfies its kind's defining check."""
    config = config or Config()
    out = []
    for i in range(spec.count):
        rng = np.random.default_rng([spec.seed, i])
        m, n = spec.order, spec.dim
        if spec.kind == "diagDominant":
            A = _gen_diag_dominant(rng, m, n, strict=False)
            assert is_diag_dominant(A).holds
        elif spec.kind == "strictDiagDominant":
            A = _gen_diag_dominant(rng, m, n, strict=True)
            assert is_diag_dominant(A, strict=True).holds
        elif spec.kind == "zTensor":
            A, _, _ = _gen_z(rng, m, n, spec.factor if spec.factor is not None else 1.5)
        elif spec.kind == "symmetric":
            A = _gen_symmetric(rng, m, n)
        elif spec.kind == "nonneg":
            A = _gen_nonneg(rng, m, n)
        elif spec.kind == "almostE0Seeded":
            A, _ = _gen_almost_e0(rng, m, n, config)
        else:  # pragma: no cover
            raise ValueError(spec.kind)
        out.append(A)
    return out


# ---------------------------------------------------------------------------
# suites


def _violation(i, detail, *tensors):
    return {
        "instance": i,
        "detail": detail,
        "tensors": [tensor_to_json(T) for T in tensors],
    }


def _checks(i, *checks):
    """Outcome of instance ``i`` from ``(classifier, name)`` checks.

    ``name`` is a ``THEOREMS`` rule or a class the tensor must be in.  The
    checks run in order up to the first violation, whose detail is the name;
    without one, any undecided check makes the instance inconclusive.
    """
    undecided = False
    for clf, name in checks:
        status = THEOREMS[name](clf) if name in THEOREMS else clf.verdict(name).status
        if status == FAILS:
            return "violation", _violation(i, name, clf.tensor)
        undecided |= status == INCONCLUSIVE
    return ("inconclusive", None) if undecided else ("ok", None)


def _suite_dd(i, seed, config):
    rng = np.random.default_rng([seed, 20, i])
    m, n = _SIZES[i % len(_SIZES)]
    A = _gen_diag_dominant(rng, m, n, strict=False)
    return _checks(i, (TensorClassifier(A, config), "dd_nonneg_diag_implies_E0"))


def _suite_sdd(i, seed, config):
    rng = np.random.default_rng([seed, 21, i])
    m, n = _SIZES[i % len(_SIZES)]
    A = _gen_diag_dominant(rng, m, n, strict=True)
    return _checks(i, (TensorClassifier(A, config), "sdd_positive_diag_implies_E"))


def _suite_nonneg(i, seed, config):
    rng = np.random.default_rng([seed, 22, i])
    m, n = _SIZES[i % len(_SIZES)]
    A = _gen_nonneg(rng, m, n)
    P = Tensor(A.data + 0.05)
    return _checks(i, (TensorClassifier(A, config), "nonneg_implies_E0"),
                   (TensorClassifier(P, config), "positive_implies_E"))


def _suite_z(i, seed, config):
    # the t = rho boundary needs deep certification (leaf size must fall below
    # epsilon divided by the image gradient); raise the depth cap here only
    config = replace(config, max_depth=max(config.max_depth, 128))
    rng = np.random.default_rng([seed, 23, i])
    m, n = _SIZES[i % len(_SIZES)]
    factor = (0.5, 1.0, 1.5)[i % 3]
    A, _, _ = _gen_z(rng, m, n, factor)
    clf = TensorClassifier(A, config)
    # t at the midpoint of the radius enclosure sits on the E boundary, which
    # is not numerically decidable; the E / strong M equivalence is exercised
    # off the boundary
    rules = ("z_E0_iff_M",) if factor == 1.0 else ("z_E0_iff_M", "z_E_iff_strongM")
    return _checks(i, *((clf, rule) for rule in rules))


def _suite_cop_implies_semi(i, seed, config):
    rng = np.random.default_rng([seed, 24, i])
    m, n = _SIZES[i % len(_SIZES)]
    A = Tensor(rng.uniform(-0.3, 1.0, (n,) * m))
    if i % 2:
        A = symmetrize(A)
    return _checks(i, (TensorClassifier(A, config), "C0_implies_E0"))


def _suite_sym_semi_implies_cop(i, seed, config):
    rng = np.random.default_rng([seed, 25, i])
    m, n = _SIZES[i % len(_SIZES)]
    shift = (0.0, 0.5, 1.5)[i % 3]
    A = _gen_symmetric(rng, m, n, shift=shift)
    return _checks(i, (TensorClassifier(A, config), "sym_E0_implies_C0"))


def _sym_almost_seed(which: int) -> Tensor:
    """Symmetric tensors in the almost classes, built from fixed entry patterns."""
    if which == 0:
        A = Tensor.from_coo(3, 2, [
            ((0, 0, 0), 1.0), ((0, 0, 1), -2.0), ((1, 0, 1), -3.0), ((1, 1, 1), 1.0),
        ])
    else:
        A = Tensor.from_coo(3, 2, [
            ((0, 0, 0), 1.0), ((1, 1, 1), 1.0), ((0, 1, 1), -1.0), ((1, 0, 0), -1.0),
        ])
    return symmetrize(A)


def _suite_sym_almost_iff(i, seed, config):
    rng = np.random.default_rng([seed, 26, i])
    kind = i % 3
    if kind == 0:
        m, n = _SIZES[i % len(_SIZES)]
        A = _gen_symmetric(rng, m, n, shift=(0.0, 0.4)[i % 2])
    else:
        # conjugate a symmetric almost-class tensor by a positive diagonal and
        # a permutation; both transforms preserve the class and the symmetry
        A = _sym_almost_seed(kind - 1)
        d = rng.uniform(0.5, 2.0, A.dim)
        A = scale_rows(scale_modes(A, d), d)
        A = permute(A, rng.permutation(A.dim))
    clf = TensorClassifier(A, config)
    return _checks(i, (clf, "sym_almostE0_iff_almostC0"), (clf, "sym_almostE_iff_almostC"))


def _suite_almost_invariance(i, seed, config):
    rng = np.random.default_rng([seed, 27, i])
    m, n = _SIZES_SEEDED[i % len(_SIZES_SEEDED)]
    A, _ = _gen_almost_e0(rng, m, n, config)
    base = TensorClassifier(A, config).is_almost_semi_positive(False)
    if base.status == INCONCLUSIVE:
        return "inconclusive", None
    d = rng.uniform(0.5, 2.0, n)
    sigma = rng.permutation(n)
    transformed = {
        "row_scaled": scale_rows(A, d),
        "mode_scaled": scale_modes(A, d),
        "permuted": permute(A, sigma),
    }
    for label, T in transformed.items():
        v = TensorClassifier(T, config).is_almost_semi_positive(False)
        if v.status == INCONCLUSIVE:
            return "inconclusive", None
        if v.holds != base.holds:
            return "violation", _violation(
                i, f"almost semi-positivity not invariant under {label}: "
                   f"{base.status} vs {v.status}", A, T)
    return "ok", None


def _stabilized(rng, m, n, config):
    A, x = _gen_almost_e0(rng, m, n, config)
    D = stabilizing_diagonal(A, x)
    return A, x, D, add(A, D)


def _suite_almost_rows(i, seed, config):
    rng = np.random.default_rng([seed, 28, i])
    m, n = _SIZES_SEEDED[i % len(_SIZES_SEEDED)]
    A, x, _, A2 = _stabilized(rng, m, n, config)
    if has_nonneg_row_subtensor(A) is not None:
        return "violation", _violation(i, "almost semi-positive tensor has a "
                                          "nonnegative row subtensor", A)
    if has_nonneg_row_subtensor(A2) is not None:
        return "violation", _violation(i, "stabilized almost strictly semi-positive "
                                          "tensor has a nonnegative row subtensor", A2)
    return "ok", None


def _suite_almost_entries(i, seed, config):
    rng = np.random.default_rng([seed, 29, i])
    m, n = _SIZES_SEEDED[i % len(_SIZES_SEEDED)]
    A, x, _, A2 = _stabilized(rng, m, n, config)
    if not entry_conditions(A).satisfied(strict=False):
        return "violation", _violation(i, "almost semi-positive tensor fails the "
                                          "entry-sign conditions", A)
    if not entry_conditions(A2).satisfied(strict=True):
        return "violation", _violation(i, "almost strictly semi-positive tensor fails "
                                          "the strict entry-sign conditions", A2)
    return "ok", None


def _suite_stabilizer(i, seed, config):
    rng = np.random.default_rng([seed, 30, i])
    m, n = _SIZES_SEEDED[i % len(_SIZES_SEEDED)]
    A, x, D, A2 = _stabilized(rng, m, n, config)
    res = float(np.max(np.abs(apply(A2, x))))
    if res > 1e-10:
        return "violation", _violation(i, f"stabilized image norm {res} exceeds 1e-10", A)
    clf = TensorClassifier(A2, config)
    return _checks(i, (clf, "almostE"), (clf, "completelyS0"))


def _suite_trichotomy(i, seed, config):
    # deciding semi-positivity of the stabilized tensor certifies around the
    # point where its image vanishes, which needs the deep cap
    config = replace(config, max_depth=max(config.max_depth, 128))
    rng = np.random.default_rng([seed, 31, i])
    m, n = _SIZES_SEEDED[i % len(_SIZES_SEEDED)]
    _, _, _, A2 = _stabilized(rng, m, n, config)
    clf = TensorClassifier(A2, config)
    return _checks(i, (clf, "almostE"), (clf, "almostE_outside_trichotomy"))


SUITES = {
    "dd_implies_E0": (_suite_dd, 200, "diagonal dominance with nonnegative diagonal implies E0"),
    "sdd_implies_E": (_suite_sdd, 200, "strict diagonal dominance with positive diagonal implies E"),
    "nonneg_implies_E0": (_suite_nonneg, 200, "nonnegative implies E0; positive implies E"),
    "z_E0_iff_M": (_suite_z, 200, "for Z-tensors: E0 iff M, E iff strong M (t swept around rho)"),
    "copositive_implies_semipositive": (_suite_cop_implies_semi, 200,
                                        "copositive implies semi-positive"),
    "sym_semipositive_implies_copositive": (_suite_sym_semi_implies_cop, 200,
                                            "symmetric semi-positive implies copositive"),
    "sym_almostE0_iff_almostC0": (_suite_sym_almost_iff, 200,
                                  "symmetric: almost E0 iff almost C0, almost E iff almost C"),
    "almost_invariance": (_suite_almost_invariance, 200,
                          "almost classes invariant under diagonal scalings and permutation"),
    "almost_row_negative": (_suite_almost_rows, 200,
                            "almost-class members have a negative entry in every row subtensor"),
    "almost_entry_conditions": (_suite_almost_entries, 200,
                                "almost-class members satisfy the entry-sign conditions"),
    "stabilizer": (_suite_stabilizer, 50,
                   "adding the stabilizing diagonal gives an almost-E, completely-S0 tensor"),
    "almost_E_trichotomy": (_suite_trichotomy, 200,
                            "almost E implies almost E0 or E0"),
}


def _suite_instance(name: str, seed: int, config: Config, i: int):
    """Instance ``i`` of suite ``name``; module level so a worker process can run it."""
    return SUITES[name][0](i, seed, config)


def _run_instances(jobs: list[tuple[str, int]], seed: int, config: Config,
                   threads: int | None) -> list:
    """Results of the ``(suite name, instance)`` jobs, in order.

    With more than one worker (at most ``threads``, one per CPU) the jobs run
    in freshly spawned worker processes; the ordered ``map`` keeps the results
    independent of the worker count.
    """
    threads = thread_count() if threads is None else max(1, threads)
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    args = ([name for name, _ in jobs], repeat(seed), repeat(config), [i for _, i in jobs])
    if workers > 1:
        # loaded here: a serial run, the default, pays no import time or memory for it
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
            return list(pool.map(_suite_instance, *args))
    return list(map(_suite_instance, *args))


def _suite_report(name: str, seed: int, config: Config, results: list) -> dict:
    violations = [detail for status, detail in results if status == "violation"]
    inconclusive = sum(1 for status, _ in results if status == "inconclusive")
    return {
        "suite": name,
        "description": SUITES[name][2],
        "seed": seed,
        "instances": len(results),
        "violations": violations,
        "inconclusive": inconclusive,
        "config": config.to_json(),
    }


def run_suite(name: str, seed: int = 0, count: int | None = None,
              config: Config | None = None, threads: int | None = None) -> dict:
    """Run one suite; the report is deterministic for fixed (seed, config)."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    count = SUITES[name][1] if count is None else count
    config = config or Config()
    results = _run_instances([(name, i) for i in range(count)], seed, config, threads)
    return _suite_report(name, seed, config, results)


def run_all(seed: int = 0, count: int | None = None, config: Config | None = None,
            threads: int | None = None) -> dict:
    """Run every suite; the instances of all suites share one worker pool."""
    config = config or Config()
    counts = {name: default if count is None else count
              for name, (_, default, _) in SUITES.items()}
    jobs = [(name, i) for name, c in counts.items() for i in range(c)]
    results = iter(_run_instances(jobs, seed, config, threads))
    reports = {name: _suite_report(name, seed, config, list(islice(results, c)))
               for name, c in counts.items()}
    total_violations = sum(len(r["violations"]) for r in reports.values())
    total_inconclusive = sum(r["inconclusive"] for r in reports.values())
    total_instances = sum(r["instances"] for r in reports.values())
    return {
        "seed": seed,
        "instances": total_instances,
        "violations": total_violations,
        "inconclusive": total_inconclusive,
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
        ok = bool(np.array_equal(got, expected)) if check.get("exact") \
            else bool(np.allclose(got, expected, rtol=0, atol=1e-12))
        return {"op": "apply", "ok": ok, "got": [float(v) for v in got]}
    if check["op"] == "form":
        got = form_value(T, x)
        expected = float(check["expected"])
        ok = got == expected if check.get("exact") else abs(got - expected) <= 1e-12
        return {"op": "form", "ok": ok, "got": float(got)}
    raise ValueError(f"unknown check op {check['op']!r}")


def run_fixtures(config: Config | None = None) -> dict:
    """Evaluate every expected label and value check of the built-in corpus."""
    import time

    config = config or Config()
    results = []
    all_ok = True
    any_inconclusive = False
    for fixture in load_fixtures():
        start = time.perf_counter()
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
            "seconds": round(time.perf_counter() - start, 6),
        })
    return {
        "passed": all_ok,
        "inconclusive": any_inconclusive,
        "fixtures": results,
        "config": config.to_json(),
    }
