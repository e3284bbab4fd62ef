from itertools import product

import numpy as np
import pytest

from tenclass import (
    GeneratorSpec,
    apply,
    canonical_dumps,
    generate,
    is_diag_dominant,
    is_m_tensor,
    load_fixtures,
    run_all,
    run_fixtures,
    run_suite,
)
from tenclass.classifiers import (
    CLASSES,
    FACTS,
    THEOREMS,
    Config,
    TensorClassifier,
    classify,
)
from tenclass.subdivision import FAILS, INCONCLUSIVE, Verdict
from tenclass.verify import _SIZES, _SYM_ALMOST, SUITES, _gen_almost_e0, _sweep, thread_count


class TestGenerators:
    def test_diag_dominant_soundness(self):
        spec = GeneratorSpec("diagDominant", 3, 3, count=8, seed=5)
        for A in generate(spec):
            assert is_diag_dominant(A).holds
            assert np.all(A.data[(np.arange(3),) * 3] >= 0)

    def test_strict_diag_dominant_soundness(self):
        spec = GeneratorSpec("strictDiagDominant", 4, 2, count=8, seed=5)
        for A in generate(spec):
            assert is_diag_dominant(A, strict=True).holds

    def test_z_factor_controls_strong_m(self):
        strong = generate(GeneratorSpec("zTensor", 3, 3, count=4, seed=2, factor=1.5))
        for A in strong:
            assert is_m_tensor(A, strong=True).holds
        weak = generate(GeneratorSpec("zTensor", 3, 3, count=4, seed=2, factor=0.5))
        for A in weak:
            assert is_m_tensor(A).status == "Fails"

    def test_nonneg_kind(self):
        for A in generate(GeneratorSpec("nonneg", 3, 4, count=4, seed=9)):
            assert np.all(A.data >= 0)

    def test_symmetric_kind(self):
        from tenclass import is_symmetric

        for A in generate(GeneratorSpec("symmetric", 4, 3, count=4, seed=9)):
            assert is_symmetric(A)

    def test_seeded_almost_kind(self):
        cfg = Config()
        for A in generate(GeneratorSpec("almostE0Seeded", 3, 2, count=4, seed=3), cfg):
            assert TensorClassifier(A, cfg).verdict("almostE0").holds

    def test_seeded_generator_returns_valid_witness(self):
        cfg = Config()
        for (m, n) in [(3, 2), (3, 4), (4, 3), (4, 4)]:
            rng = np.random.default_rng([3, m, n])
            A, x = _gen_almost_e0(rng, m, n, cfg)
            assert np.all(x > 0)
            assert np.all(apply(A, x) < 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown generator kind"):
            GeneratorSpec("mystery", 3, 2)

    def test_determinism(self):
        spec = GeneratorSpec("symmetric", 3, 3, count=3, seed=11)
        a = generate(spec)
        b = generate(spec)
        assert all(x == y for x, y in zip(a, b))


class TestSuites:
    def test_registry_contents(self):
        required = {
            "dd_implies_E0", "sdd_implies_E", "nonneg_implies_E0", "z_E0_iff_M",
            "copositive_implies_semipositive", "sym_semipositive_implies_copositive",
            "sym_almostE0_iff_almostC0", "almost_invariance", "almost_row_negative",
            "almost_entry_conditions", "stabilizer",
        }
        assert required <= set(SUITES)

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_every_kind_meets_every_shape(self, name):
        run, count, _ = SUITES[name]
        reached = [_sweep(i, run.kinds) for i in range(count)]
        assert all(pair in reached for pair in product(run.kinds, _SIZES))

    def test_fixed_patterns_draw_at_3_2(self):
        # the one exception to the sweep: the symmetric almost suite assigns its
        # two fixed almost-class patterns every shape, but they always draw (3, 2)
        assert set(_SYM_ALMOST) <= set(SUITES["sym_almostE0_iff_almostC0"][0].kinds)
        assert [(T.order, T.dim) for T in _SYM_ALMOST] == [(3, 2), (3, 2)]

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("no_such_suite")

    @pytest.mark.parametrize("count", [0, True, 2.5])
    def test_count_is_a_positive_integer(self, count):
        # True would run one instance and report "instances": true
        with pytest.raises(ValueError, match="count must be an integer of at least 1"):
            run_suite("dd_implies_E0", count=count, threads=1)
        with pytest.raises(ValueError, match="count must be an integer of at least 1"):
            run_all(count=count, threads=1)

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_small_batches_clean(self, name):
        report = run_suite(name, seed=13, count=12)
        assert report["violations"] == []
        assert report["inconclusive"] == 0

    def test_byte_identical_reports(self):
        r1 = canonical_dumps(run_suite("dd_implies_E0", seed=7, count=10, threads=1))
        r2 = canonical_dumps(run_suite("dd_implies_E0", seed=7, count=10, threads=4))
        assert r1 == r2

    @pytest.mark.parametrize("name", ["almost_E_trichotomy", "z_E0_iff_M"])
    def test_process_pool_matches_serial(self, name):
        # these suites carry witnesses and details through the worker processes
        serial = canonical_dumps(run_suite(name, seed=7, count=8, threads=1))
        pooled = canonical_dumps(run_suite(name, seed=7, count=8, threads=2))
        assert serial == pooled

    def test_run_all_splits_one_pool_by_suite(self):
        serial = run_all(seed=5, count=2, threads=1)
        assert canonical_dumps(run_all(seed=5, count=2, threads=2)) == canonical_dumps(serial)
        for name, report in serial["suites"].items():
            assert report == run_suite(name, seed=5, count=2, threads=1)

    def test_thread_count_env(self, monkeypatch):
        monkeypatch.setenv("TENCLASS_THREADS", "6")
        assert thread_count() == 6
        monkeypatch.setenv("TENCLASS_THREADS", "junk")
        assert thread_count() == 1


class TestTheoremTable:
    """classify's cross-checks and the suites read the same rules, classes and
    facts through ``TensorClassifier.status``, so a broken class predicate or
    fact shows up on both."""

    @staticmethod
    def _inject(monkeypatch, status):
        monkeypatch.setitem(CLASSES, "E0", lambda c: Verdict(status, None, 0.0, 0, 0, None))

    def test_violation_on_both_surfaces(self, monkeypatch):
        self._inject(monkeypatch, FAILS)
        A = generate(GeneratorSpec("diagDominant", 3, 2, seed=1))[0]
        assert "dd_nonneg_diag_implies_E0" in classify(A).violations
        report = run_suite("dd_implies_E0", count=2, threads=1)
        assert [v["detail"] for v in report["violations"]] == ["dd_nonneg_diag_implies_E0"] * 2
        assert report["inconclusive"] == 0

    def test_broken_fact_on_both_surfaces(self, monkeypatch):
        monkeypatch.setitem(FACTS, "noNonnegRowSubtensor", lambda c: False)
        report = run_suite("almost_row_negative", count=2, threads=1)
        assert [v["detail"] for v in report["violations"]] == ["noNonnegRowSubtensor"] * 2
        A = next(f.tensor for f in load_fixtures() if f.name == "almost_e0_construction")
        assert "almostE0_row_subtensor_without_negative_entry" in classify(A).violations

    def test_names_are_disjoint(self):
        names = [*THEOREMS, *CLASSES, *FACTS]
        assert len(names) == len(set(names))

    def test_unknown_name_raises(self):
        clf = TensorClassifier(generate(GeneratorSpec("nonneg", 3, 2))[0])
        with pytest.raises(KeyError, match="no rule, class or fact"):
            clf.status("noSuchName")

    def test_undecided_counts_inconclusive(self, monkeypatch):
        self._inject(monkeypatch, INCONCLUSIVE)
        report = run_suite("dd_implies_E0", count=2, threads=1)
        assert report["violations"] == []
        assert report["inconclusive"] == 2


class TestFixtureCorpus:
    def test_loads(self):
        fixtures = load_fixtures()
        names = {f.name for f in fixtures}
        assert {"almost_e0_construction", "hadamard_product",
                "symmetric_almost_e0", "almost_e0_dim3_not_almost_c0"} <= names

    def test_all_pass(self):
        report = run_fixtures()
        assert report["passed"]
        assert not report["inconclusive"]

    def test_report_is_deterministic(self):
        # no wall time in the report: two runs serialize to equal bytes
        assert canonical_dumps(run_fixtures()) == canonical_dumps(run_fixtures())

    def test_expected_labels_use_known_classes(self):
        from tenclass.classifiers import CLASS_NAMES

        for fixture in load_fixtures():
            for name in fixture.expected:
                assert name in CLASS_NAMES
