"""Acceptance criteria, one test per criterion, with pinned tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) in addition to its assertions.  Criteria 2, 4 and 6 read one serial
``tenclass --seed 7 verify all`` report, run once per module.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tenclass import (
    Tensor,
    apply,
    apply_batch,
    component_coeffs,
    decide_all_components_negative,
    decide_form_nonneg,
    find_negative_hpp_eigenpair,
    form_batch,
    form_value,
    has_nonneg_row_subtensor,
    is_symmetric,
    load_fixtures,
    max_abs,
    principal_subtensor,
    run_fixtures,
    spectral_radius_nonneg,
    standard_simplex,
    symmetrize,
)
from tenclass.classifiers import Config, TensorClassifier
from tenclass.subdivision import FAILS, HOLDS

SEED = 7
EPSILON = 1e-9
MAX_DEPTH = 40


def _report(criterion, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {label}")
    assert ok, f"criterion {criterion} failed: {label}"


def _fixture(name):
    for f in load_fixtures():
        if f.name == name:
            return f
    raise KeyError(name)


def test_criterion_1_fixture_corpus():
    config = Config(epsilon=EPSILON, max_depth=MAX_DEPTH)
    start = time.perf_counter()
    report = run_fixtures(config)
    elapsed = time.perf_counter() - start
    ok = report["passed"] and not report["inconclusive"] and elapsed < 2.0

    # spot checks of the itemized values, straight through the core operations
    had = _fixture("hadamard_product").tensor
    ok &= float(np.max(apply(had, [1.0, 1.0]))) <= -1.0

    s0bar = _fixture("s0bar_not_semipositive").tensor
    ok &= np.array_equal(apply(s0bar, [1.0, 2.0]), [-1.0, -2.0])

    sbar = _fixture("sbar_not_strictly_semipositive").tensor
    ok &= np.array_equal(apply(sbar, [1.0, 1.0]), [0.0, 0.0])
    sol = TensorClassifier(sbar, config).verdict("completelyS")
    ok &= sol.status == HOLDS and float(np.min(apply(sbar, sol.witness))) > 0.0

    almost_e = _fixture("almost_e_construction").tensor
    ok &= np.array_equal(apply(almost_e, [1.0, 1.0]), [0.0, -2.0])

    both = _fixture("almost_e_and_e0").tensor
    clf = TensorClassifier(both, config)
    ok &= clf.verdict("almostE").status == HOLDS
    ok &= clf.verdict("E0").status == HOLDS

    almost_c = _fixture("almost_copositive_construction").tensor
    ok &= form_value(almost_c, [1.0, 1.0]) == -3.0

    row = _fixture("almost_c0_with_nonneg_row").tensor
    ok &= has_nonneg_row_subtensor(row) == 1

    dim3 = _fixture("almost_e0_dim3_not_almost_c0").tensor
    sub = principal_subtensor(dim3, [0, 1])
    ok &= form_value(sub, [1.0, 1.0]) == -1.0
    v = TensorClassifier(dim3, config).verdict("almostC0")
    ok &= v.status == FAILS and v.info.get("subset") == (0, 1)

    _report(1, "fixture corpus reproduced (labels, witnesses, exact values, "
               f"{elapsed:.2f} s < 2 s in all)", ok)


def _verify_all(out, threads):
    """Run ``tenclass --seed 7 verify all`` on ``threads`` workers in a child
    process; return its exit code and wall time."""
    env = dict(os.environ, TENCLASS_THREADS=threads)
    # the child interpreter does not see pytest's pythonpath setting
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "tenclass.cli", "--seed", str(SEED), "--out", str(out),
         "verify", "all"],
        env=env, capture_output=True, text=True, timeout=1800)
    return proc.returncode, time.perf_counter() - start, proc.stderr


@pytest.fixture(scope="module")
def seed7_run(tmp_path_factory):
    """One serial ``verify all --seed 7`` run, read by criteria 2, 4 and 6."""
    out = tmp_path_factory.mktemp("verify") / "verify_serial.json"
    code, seconds, stderr = _verify_all(out, "1")
    # exit 2 (an undecided instance or a violation) still writes the report
    assert code != 1 and out.exists(), stderr
    data = out.read_bytes()
    return {"code": code, "seconds": seconds, "bytes": data, "report": json.loads(data)}


def test_criterion_2_theorem_suites(seed7_run):
    suites = [
        "dd_implies_E0",
        "sdd_implies_E",
        "nonneg_implies_E0",
        "z_E0_iff_M",
        "copositive_implies_semipositive",
        "sym_semipositive_implies_copositive",
        "sym_almostE0_iff_almostC0",
        "almost_invariance",
        "almost_row_negative",
        "almost_entry_conditions",
    ]
    ok = True
    for name in suites:
        report = seed7_run["report"]["suites"][name]
        violations = len(report["violations"])
        rate = report["inconclusive"] / report["instances"]
        if report["instances"] != 200 or violations or rate >= 0.05:
            print(f"  suite {name}: instances={report['instances']} "
                  f"violations={violations} inconclusive_rate={rate:.3f}")
            ok = False
    # the run holds all 12 suites, so this bounds the 10 at least as tightly
    elapsed = seed7_run["seconds"]
    ok &= elapsed < 600.0
    _report(2, f"10 theorem suites x 200 instances, zero violations, "
               f"inconclusive < 5% ({elapsed:.0f}s for all 12 suites)", ok)


def test_criterion_3_spectral():
    ok = True
    for n, expected in ((2, 4.0), (3, 9.0), (4, 16.0)):
        enc = spectral_radius_nonneg(Tensor.ones(3, n), tol=1e-10)
        ok &= enc.lower - 1e-12 <= expected <= enc.upper + 1e-12
        ok &= enc.width <= 1e-6
    enc = spectral_radius_nonneg(Tensor.identity(3, 3), tol=1e-10)
    ok &= enc.lower - 1e-12 <= 1.0 <= enc.upper + 1e-12

    pair = find_negative_hpp_eigenpair(Tensor(-Tensor.identity(3, 2).data), tol=1e-10)
    ok &= pair is not None and abs(pair.lam + 1.0) <= 1e-12 and pair.residual <= 1e-10

    # every almost-semi-positive fixture, symmetrized where necessary and
    # re-certified, must admit a negative interior eigenpair
    config = Config(epsilon=EPSILON, max_depth=MAX_DEPTH)
    checked = 0
    for fixture in load_fixtures():
        if fixture.expected.get("almostE0") != "Holds":
            continue
        S = fixture.tensor if is_symmetric(fixture.tensor) else symmetrize(fixture.tensor)
        if not TensorClassifier(S, config).verdict("almostE0").holds:
            continue
        pair = find_negative_hpp_eigenpair(S, tol=1e-8)
        ok &= pair is not None and pair.lam < 0.0 and pair.residual <= 1e-8
        checked += 1
    ok &= checked >= 2

    # symmetric almost strictly semi-positive fixtures give a nonpositive one
    for fixture in load_fixtures():
        if fixture.expected.get("almostE") != "Holds":
            continue
        S = fixture.tensor if is_symmetric(fixture.tensor) else symmetrize(fixture.tensor)
        if not TensorClassifier(S, config).verdict("almostE").holds:
            continue
        pair = find_negative_hpp_eigenpair(S, tol=1e-8, nonpositive=True)
        ok &= pair is not None and pair.lam <= 1e-8

    _report(3, f"radius enclosures, eigenpair defects, {checked} symmetric "
               "almost-class fixtures with negative eigenvalues", ok)


def test_criterion_4_stabilizer(seed7_run):
    report = seed7_run["report"]["suites"]["stabilizer"]
    ok = report["instances"] == 50 and not report["violations"]
    ok &= report["inconclusive"] == 0
    _report(4, "50 stabilized tensors: almost-E and completely-S0 in 100% of cases, "
               "image norm <= 1e-10", ok)


def test_criterion_5_engine_soundness():
    rng = np.random.default_rng(SEED)
    ok = True

    # 10^4 randomized coefficient sandwiches at 1e-10
    bad = 0
    for _ in range(10_000):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        A = Tensor(rng.uniform(-2.0, 2.0, (n,) * m))
        S = standard_simplex(n)
        for _ in range(int(rng.integers(0, 7))):
            S = S.refine()[int(rng.integers(0, 2))]
        lam = rng.dirichlet(np.ones(n))
        x = lam @ S.vertices
        c = component_coeffs(A, S).reshape(n, -1)
        f = apply(A, x)
        if not (np.all(c.min(axis=1) <= f + 1e-10) and np.all(f <= c.max(axis=1) + 1e-10)):
            bad += 1
    ok &= bad == 0

    # 10^5-point grid scan agrees with every dim-2 fixture verdict
    t = np.linspace(0.0, 1.0, 100_001)
    grid = np.column_stack([t, 1.0 - t])
    for fixture in load_fixtures():
        A = fixture.tensor
        if A.dim != 2:
            continue
        eps_abs = EPSILON * (max_abs(A) or 1.0)
        g = apply_batch(A, grid).max(axis=1)
        forms = form_batch(A, grid)
        for strict in (True, False):
            v = decide_all_components_negative(A, strict, EPSILON, MAX_DEPTH)
            ok &= v.decisive
            threshold = -eps_abs if strict else eps_abs
            if v.status == HOLDS:
                ok &= not np.any(g < threshold - 1e-15)
            else:
                margin = float(np.max(apply(A, v.witness)))
                near = float(np.min(np.max(np.abs(grid - v.witness), axis=1)))
                ok &= margin <= threshold + 1e-15 or (not strict and margin <= threshold)
                ok &= near <= 1e-4
            w = decide_form_nonneg(A, strict, EPSILON, MAX_DEPTH)
            ok &= w.decisive
            fail_threshold = eps_abs if strict else -eps_abs
            if w.status == HOLDS:
                ok &= not np.any(forms < fail_threshold - 1e-15)
            else:
                value = form_value(A, w.witness)
                ok &= (value <= fail_threshold) if strict else (value < fail_threshold + 1e-15)

    _report(5, f"10^4 coefficient sandwiches clean ({bad} failures), dim-2 grid "
               "cross-validation agrees with every fixture verdict", ok)


def test_criterion_6_determinism(seed7_run, tmp_path):
    out = tmp_path / "verify_pooled.json"
    code, _, stderr = _verify_all(out, "8")
    assert seed7_run["code"] == 0 and code == 0, stderr
    pinned = Path(__file__).parent / "golden" / "verify_all_seed7.sha256"
    want = [line for line in pinned.read_text().splitlines() if not line.startswith("#")][0]
    ok = seed7_run["bytes"] == out.read_bytes()
    ok &= hashlib.sha256(seed7_run["bytes"]).hexdigest() == want
    _report(6, "verify all --seed 7 byte-identical with one worker and with "
               "TENCLASS_THREADS=8, and equal to the pinned sha256", ok)
