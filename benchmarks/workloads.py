"""The three benchmark workloads: inputs from a seed, one pass, correctness checks.

Every workload is a closed loop: the next operation starts when the previous
one returns.  A pass runs a fixed list of operations whose composition does
not depend on the seed (only the tensor entries do), so per-pass counts are
comparable across seeds and repeat exactly at one seed.  The benchmark calls
the package through module attributes (``classifiers.classify``, ...) so the
traced run sees the wrappers that :mod:`tracing` installs.
"""

from __future__ import annotations

import hashlib
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from tenclass import classifiers, spectral, tensor_io, verify
from tenclass.core import Tensor, symmetrize
from tenclass.subdivision import FAILS

# bound before any wrapper is installed: the benchmark's own hashing is not
# part of the traced work
_canonical_dumps = tensor_io.canonical_dumps

_clock = time.perf_counter


@dataclass
class PassResult:
    ops: int = 0
    failed: int = 0
    verdicts: int = 0
    undecided: int = 0
    latencies: list = field(default_factory=list)
    sha256: str = ""
    wall: float = 0.0
    cpu: float = 0.0


def _report_failure(what: str) -> None:
    print(f"benchmark: {what}", file=sys.stderr)


class Workload:
    """Pass ``p`` runs inputs built from ``(seed, p)``; a run goes through passes 0, 1, ..."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self._inputs = {}

    def make_inputs(self, p: int):
        raise NotImplementedError

    def inputs(self, p: int):
        """Inputs of pass ``p``, built once; call before timing the pass."""
        if p not in self._inputs:
            self._inputs[p] = self.make_inputs(p)
        return self._inputs[p]

    def setup(self) -> None:
        """Build pass 0's inputs afresh and warm up; repeatable."""
        self._inputs = {0: self.make_inputs(0)}
        self.warm_up()

    def warm_up(self) -> None:
        raise NotImplementedError

    def op(self, item):
        """One timed operation on one input; returns what :meth:`check` reads."""
        raise NotImplementedError

    def check(self, item, out) -> tuple[int, int, str, str]:
        """Untimed: ``(verdicts, undecided, what is wrong or "", canonical text to hash)``."""
        raise NotImplementedError

    def run_pass(self, p: int) -> PassResult:
        return self.run_ops(self.inputs(p))

    def run_ops(self, items) -> PassResult:
        res = PassResult()
        sha = hashlib.sha256()
        for item in items:
            res.ops += 1
            t0 = _clock()
            try:
                out = self.op(item)
            except Exception:  # a raising operation is counted, not fatal
                res.latencies.append(_clock() - t0)
                res.failed += 1
                _report_failure(traceback.format_exc())
                continue
            res.latencies.append(_clock() - t0)
            verdicts, undecided, wrong, text = self.check(item, out)
            res.verdicts += verdicts
            res.undecided += undecided
            if wrong:
                res.failed += 1
                _report_failure(f"{self.name}: {wrong}")
            sha.update(text.encode())
        res.sha256 = sha.hexdigest()
        return res


# ---------------------------------------------------------------------------
# certify_holds


def _sym_strict_diag_dominant(rng, m, n) -> Tensor:
    """Symmetric, strictly diagonally dominant, positive diagonal.

    Strict dominance with a positive diagonal gives E (and E0).  For a
    symmetric tensor the AM-GM bound ``x_{i1}...x_{im} <= sum_k x_{ik}^m / m``
    turns the off-diagonal mass of the form into ``sum_j R_j x_j^m`` with
    ``R_j`` the off-diagonal absolute row sum, so ``A x^m >= sum_j (a_j..j -
    R_j) x_j^m > 0`` on the nonnegative orthant: C (and C0) hold as well.
    """
    data = symmetrize(Tensor(rng.uniform(-1.0, 1.0, (n,) * m))).data.copy()
    di = (np.arange(n),) * m
    data[di] = 0.0
    data[di] = np.abs(data).reshape(n, -1).sum(axis=1) + 0.1 + rng.uniform(0.0, 0.5, n)
    return Tensor(data)


def _sym_z_tensor(rng, m, n, factor) -> Tensor:
    """``t I - B`` with ``B`` symmetric nonnegative and ``t = factor * rho(B)``.

    With ``factor > 1`` the tensor is a strong M-tensor, hence in E and E0;
    since ``B`` is symmetric, ``B x^m <= rho(B) sum x_j^m`` on the orthant, so
    it is also in C and C0.  ``t`` scales the certified upper end of the
    radius enclosure, so it clears the radius itself.
    """
    B = symmetrize(Tensor(rng.uniform(0.0, 1.0, (n,) * m)))
    t = factor * spectral.spectral_radius_nonneg(B, tol=1e-12, max_iter=3000).upper
    return Tensor(t * Tensor.identity(m, n).data - B.data)


_PREDICATES = (("is_semi_positive", False), ("is_semi_positive", True),
               ("is_copositive", False), ("is_copositive", True))
# (order, dim, family, tensors) in one pass.  Tensor k of a group is asked
# predicate k mod 4, so every operation sees a distinct tensor.  Z-tensors
# stay at (3, 5) and (4, 4): at (3, 6) one E0 or E call on them takes ~3 s.
_CERTIFY_GROUPS = ((3, 6, "dd", 24), (3, 5, "dd", 4), (3, 5, "z", 4),
                   (4, 4, "dd", 4), (4, 4, "z", 4))


class CertifyHolds(Workload):
    """Module-level E0/E/C0/C calls whose answer is Holds by construction."""

    name = "certify_holds"

    def make_inputs(self, p):
        ops = []
        for m, n, family, count in _CERTIFY_GROUPS:
            for k in range(count):
                rng = np.random.default_rng([self.seed, p, m, n, k, int(family == "z")])
                A = (_sym_z_tensor(rng, m, n, 1.5) if family == "z"
                     else _sym_strict_diag_dominant(rng, m, n))
                fn, strict = _PREDICATES[k % len(_PREDICATES)]
                ops.append((A, fn, strict))
        return ops

    def warm_up(self):
        self.run_ops(self.inputs(0)[-len(_PREDICATES):])

    def op(self, item):
        A, fn, strict = item
        return getattr(classifiers, fn)(A, strict)

    def check(self, item, v):
        A, fn, strict = item
        # in-class by construction: Fails is a wrong answer
        wrong = f"{fn}(strict={strict}) on a {A!r} returned Fails" if v.status == FAILS else ""
        return 1, int(not v.decisive), wrong, _canonical_dumps(v.to_json())


# ---------------------------------------------------------------------------
# classify_mixed

# (order, dim, tensors per kind) in one pass.  Dimension 5 and almost-E0
# tensors from dimension 4 up are left out: on some draws the S, S0 and
# completely-S feasibility searches there run 70 000-200 000 nodes (16-31 s
# for one tensor, e.g. a uniform (3, 5) draw at seed 14 and almost-E0 draws
# at (4, 4) and (3, 4)), so one draw can outlast a whole run and the spread
# between seeds has no bound.  Dimension 2 counts three times: with equal
# weights the median latency falls on the gap between the fast tensors
# (under 30 ms) and the engine-bound ones (40 ms and up) and moved 13%
# between seeds; with the weights below it sits inside the fast band.
_CLASSIFY_SHAPES = ((3, 2, 3), (3, 3, 1), (3, 4, 1), (4, 2, 3), (4, 3, 1), (4, 4, 1))
_ALMOST_SHAPES = ((3, 2, 3), (3, 3, 1), (4, 2, 3), (4, 3, 1))
# class labels that theory fixes for a generator kind: a Fails there is wrong
_EXPECTED_HOLDS = {
    "strictDiagDominant": ("E0", "E", "strictDiagDominant"),
    "zTensor15": ("Z", "E0", "E", "M"),
    "zTensor05": ("Z",),
    "almostE0Seeded": ("almostE0",),
}


def _classify_input(kind, m, n, seed) -> Tensor:
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return Tensor(rng.uniform(-1.0, 1.0, (n,) * m))
    if kind == "symmetric":
        shift = (0.0, 0.5, 1.5)[(m + n) % 3]
        return Tensor(symmetrize(Tensor(rng.uniform(-1.0, 1.0, (n,) * m))).data
                      + shift * Tensor.identity(m, n).data)
    sub_seed = int(rng.integers(2 ** 31))
    if kind.startswith("zTensor"):
        factor = 1.5 if kind == "zTensor15" else 0.5
        spec = verify.GeneratorSpec("zTensor", m, n, seed=sub_seed, factor=factor)
    else:
        spec = verify.GeneratorSpec(kind, m, n, seed=sub_seed)
    return verify.generate(spec)[0]


_CLASSIFY_KINDS = ("uniform", "symmetric", "zTensor05", "zTensor15",
                   "strictDiagDominant", "almostE0Seeded")


class ClassifyMixed(Workload):
    """parse_tensor, classify, canonical_dumps: the in-process path of ``tenclass classify``."""

    name = "classify_mixed"

    def make_inputs(self, p):
        ops = []
        for k, kind in enumerate(_CLASSIFY_KINDS):
            shapes = _ALMOST_SHAPES if kind == "almostE0Seeded" else _CLASSIFY_SHAPES
            for m, n, copies in shapes:
                for c in range(copies):
                    A = _classify_input(kind, m, n, [self.seed, p, k, m, n, c])
                    ops.append((kind, A, tensor_io.tensor_to_json(A)))
        return ops

    def warm_up(self):
        self.run_ops(self.inputs(0)[:1])

    def op(self, item):
        kind, A, doc = item
        parsed = tensor_io.parse_tensor(doc)
        report = classifiers.classify(parsed)
        return parsed, report, tensor_io.canonical_dumps(report.to_json(), indent=2)

    def check(self, item, out):
        kind, A, doc = item
        parsed, report, text = out
        wrong = [c for c in _EXPECTED_HOLDS.get(kind, ())
                 if report.verdicts[c].status == FAILS]
        problem = ""
        if parsed != A or report.violations or wrong:
            problem = (f"{kind} {A!r}: round trip {parsed == A}, "
                       f"violations {report.violations}, wrong Fails {wrong}")
        undecided = sum(not v.decisive for v in report.verdicts.values())
        return len(report.verdicts), undecided, problem, text


# ---------------------------------------------------------------------------
# verify_suites

# instances per suite in one run_all call (the default is 50-200).  At 3 a
# call takes about a second, so a 30 s run holds 20-30 of them and the tail
# latency (10 samples beyond it) is a steady order statistic; at 6 a run held
# 11-12 calls and the tail jumped between the fastest and the slowest call.
# The instances cover order 3 at dimensions 2-4.
SUITE_COUNT = 3


class VerifySuites(Workload):
    """One operation, and one pass, is ``run_all(suite_seed, count=SUITE_COUNT, threads=1)``.

    This is ``tenclass verify all`` at a reduced count.  The suites generate
    their own instances from the seed they are given, so the inputs of pass
    ``p`` are just that seed.  Finer operations gave no steady median: the
    latencies of single instances fall on a cliff at their median (2 ms at
    the 45th percentile, 9 ms at the 54th), and those of single suite runs
    form twelve clusters whose median sits between two of them; either moved
    by a quarter between runs.
    """

    name = "verify_suites"

    def make_inputs(self, p):
        return [self.seed * 1000 + p]

    def warm_up(self):
        report = verify.run_all(self.inputs(0)[0], count=1, threads=1)
        if report["violations"]:
            _report_failure(f"warm-up pass recorded {report['violations']} violations")
            raise RuntimeError("theorem suite violation during warm-up")

    def op(self, suite_seed):
        return verify.run_all(suite_seed, count=SUITE_COUNT, threads=1)

    def check(self, suite_seed, report):
        wrong = (f"theorem suites recorded {report['violations']} violations"
                 if report["violations"] else "")
        return report["instances"], report["inconclusive"], wrong, _canonical_dumps(report)


WORKLOADS = {w.name: w for w in (CertifyHolds, ClassifyMixed, VerifySuites)}
