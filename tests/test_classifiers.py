import hashlib
import operator
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tenclass import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    Tensor,
    Verdict,
    add,
    apply,
    check_weighted_characterization,
    classify,
    decide_all_components_negative,
    entry_conditions,
    has_nonneg_row_subtensor,
    hadamard,
    is_almost_copositive,
    is_almost_semi_positive,
    is_completely_s,
    is_completely_s0,
    is_copositive,
    is_diag_dominant,
    is_m_tensor,
    is_s0_tensor,
    is_s_tensor,
    is_semi_positive,
    is_z_tensor,
    load_fixtures,
    principal_subtensor,
    stabilizing_diagonal,
    symmetrize,
    z_decompose,
)
from tenclass import spectral, subdivision
from tenclass.classifiers import (
    CLASS_NAMES,
    CLASSES,
    Config,
    NotZTensorError,
    SubsetCapError,
    TensorClassifier,
    _both,
)
from tenclass.tensor_io import canonical_dumps
from tenclass.verify import _gen_diag_dominant
from _oracles import grid_is_semipositive, naive_apply


class TestDiagDominant:
    def test_identity_strict(self):
        assert is_diag_dominant(Tensor.identity(3, 2), strict=True).holds

    def test_almost_e0_fails_at_row(self, almost_e0_tensor):
        # row 1 has diagonal 0 against off-diagonal magnitude 1
        v = is_diag_dominant(almost_e0_tensor, strict=False)
        assert v.status == FAILS
        assert v.info["row"] == 1
        # the strict variant already fails at row 0 (slack exactly zero)
        strict = is_diag_dominant(almost_e0_tensor, strict=True)
        assert strict.status == FAILS
        assert strict.info["row"] == 0

    def test_constructed_dominant(self):
        A = Tensor.from_coo(3, 2, [
            ((0, 0, 0), 3.0), ((0, 0, 1), 1.0), ((0, 1, 0), -1.0),
            ((1, 1, 1), 3.0), ((1, 0, 1), -1.0), ((1, 1, 0), 1.0)])
        assert is_diag_dominant(A, strict=True).holds
        assert is_diag_dominant(A, strict=False).holds

    def test_failure_survives_tiny_units(self):
        # the slack -0.5 * 2^-43 lies inside an absolute 1e-12 floor
        A = Tensor(np.array([[1.0, -1.5], [0.0, 2.0]]) * 2.0 ** -43)
        assert is_diag_dominant(A).status == FAILS

    def test_near_overflow(self):
        # slack 0 on both rows; a row sum taken with the diagonal overflows
        A = Tensor.from_coo(3, 2, [((0, 0, 0), 1e308), ((0, 1, 1), -1e308),
                                   ((1, 0, 0), -1e308), ((1, 1, 1), 1e308)])
        assert is_diag_dominant(A).holds
        assert is_diag_dominant(A, strict=True).status == FAILS


class TestZDecomposition:
    def test_identity(self):
        dec = z_decompose(Tensor.identity(3, 2))
        assert dec.t == 1.0
        assert not dec.B.data.any()

    def test_offdiagonal_ones(self):
        ones_off = Tensor(np.ones((2, 2, 2)) - Tensor.identity(3, 2).data)
        A = add(Tensor(2.0 * Tensor.identity(3, 2).data), Tensor(-ones_off.data))
        dec = z_decompose(A)
        assert dec.t == 2.0
        assert np.array_equal(dec.B.data, ones_off.data)
        assert np.allclose(dec.reconstruct().data, A.data)

    def test_rejects_positive_offdiagonal(self, hadamard_pair):
        _, B = hadamard_pair  # has a +2 off-diagonal entry
        with pytest.raises(NotZTensorError, match="positive off-diagonal"):
            z_decompose(B)
        assert is_z_tensor(B).status == FAILS

    def test_hadamard_first_factor_is_z(self, hadamard_pair):
        A, _ = hadamard_pair
        assert is_z_tensor(A).holds
        assert z_decompose(A).t == 1.0


class TestMTensor:
    def test_identity_strong(self):
        assert is_m_tensor(Tensor.identity(3, 2), strong=True).holds

    def test_boundary_m_not_strong(self):
        n, m = 2, 3
        rho = float(n ** (m - 1))
        A = Tensor(rho * Tensor.identity(m, n).data - np.ones((n,) * m))
        assert is_m_tensor(A, strong=False).holds
        assert not is_m_tensor(A, strong=True).holds

    def test_boundary_one_tolerance_rule(self):
        # at t = rho, strong M and E fail together, M and E0 hold together
        n, m = 2, 3
        A = Tensor(float(n ** (m - 1)) * Tensor.identity(m, n).data - np.ones((n,) * m))
        report = classify(A)
        v = report.verdicts
        assert v["E"].status == FAILS and v["strongM"].status == FAILS
        assert v["M"].holds and v["E0"].holds
        assert report.violations == []

    def test_below_radius_not_m(self):
        n, m = 2, 3
        rho = float(n ** (m - 1))
        A = Tensor(0.5 * rho * Tensor.identity(m, n).data - np.ones((n,) * m))
        assert is_m_tensor(A, strong=False).status == FAILS

    def test_zero_radius_small_t_is_strong_m(self):
        # rho(B) = 0 exactly, so any t > tol makes t I - B a strong M-tensor
        B = Tensor.from_coo(3, 2, [((0, 0, 1), 0.7203811664111007),
                                   ((0, 1, 0), 0.6346140062618605)])
        A = Tensor(1e-5 * Tensor.identity(3, 2).data - B.data)
        for strong in (False, True):
            v = is_m_tensor(A, strong=strong)
            assert v.holds
            assert (v.info["rho_lower"], v.info["rho_upper"]) == (0.0, 0.0)

    def test_non_z_fails_with_reason(self, hadamard_pair):
        _, B = hadamard_pair
        v = is_m_tensor(B)
        assert v.status == FAILS
        assert v.info["reason"] == "not_a_z_tensor"

    def test_z_test_reads_the_tensor_itself(self):
        # the unit-scale copy rounds the 5e-324 entries to 0, which makes it Z
        A = Tensor(np.array([-0.0, -5e-324, -1e-310, 5e-324,
                             5e-324, -1.0, -1e-310, -1.0]).reshape(2, 2, 2))
        c = TensorClassifier(A)
        assert c.verdict("Z").info["positive_offdiagonal_at"] == (0, 1, 1)
        for name in ("M", "strongM"):
            v = c.verdict(name)
            assert v.status == FAILS
            assert v.info == {"reason": "not_a_z_tensor",
                              "detail": "positive off-diagonal entry at (0, 1, 1)"}

    def test_radius_with_an_underflowing_iterate(self):
        # B = -A has b_111 = 1 > t = 0, so rho(B) >= 1 and neither M holds
        A = Tensor(np.array([0.0, -1e-310, -1e-310, 0.0,
                             0.0, -1.0, -1.0, -1.0]).reshape(2, 2, 2))
        c = TensorClassifier(A)
        for name in ("M", "strongM"):
            v = c.verdict(name)
            assert v.status == FAILS
            assert (v.info["t"], v.info["rho_lower"]) == (0.0, 1.0)

    def test_one_radius_enclosure_per_classify(self, monkeypatch):
        # M and strong M read one split of the tensor and one enclosure of its radius
        calls = []
        enclose = spectral.spectral_radius_nonneg
        monkeypatch.setattr(spectral, "spectral_radius_nonneg",
                            lambda B, *a, **k: calls.append(B) or enclose(B, *a, **k))
        n, m = 2, 3
        A = Tensor(float(n ** (m - 1)) * Tensor.identity(m, n).data - np.ones((n,) * m))
        report = classify(A)
        assert len(calls) == 1
        assert report.verdicts["M"].info == report.verdicts["strongM"].info


class TestSemiPositive:
    def test_hadamard_factors_hold(self, hadamard_pair):
        A, B = hadamard_pair
        assert is_semi_positive(A).holds
        assert is_semi_positive(B).holds

    def test_hadamard_product_fails(self, hadamard_pair):
        A, B = hadamard_pair
        v = is_semi_positive(hadamard(A, B))
        assert v.status == FAILS
        f = naive_apply(hadamard(A, B).data, v.witness)
        support = v.witness > 0
        assert np.all(f[support] < 0)

    def test_vanishing_image_breaks_strictness(self, sbar_tensor):
        v = is_semi_positive(sbar_tensor, strict=True)
        assert v.status == FAILS
        assert is_semi_positive(sbar_tensor, strict=False).holds

    def test_subset_cap(self):
        A = Tensor.identity(2, 13)
        with pytest.raises(SubsetCapError):
            is_semi_positive(A)

    def test_witness_support_locality(self, almost_e0_tensor):
        v = is_semi_positive(almost_e0_tensor)
        assert v.status == FAILS
        f = naive_apply(almost_e0_tensor.data, v.witness)
        support = v.witness > 0
        assert np.all(f[support] < 0)

    def test_agreement_with_grid_oracle(self, rng):
        cfg = Config()
        for _ in range(25):
            A = Tensor(rng.uniform(-1, 1, (2, 2, 2)))
            for strict in (False, True):
                v = TensorClassifier(A, cfg).verdict("E" if strict else "E0")
                assert v.decisive
                if v.holds:
                    assert grid_is_semipositive(A.data, strict)
                else:
                    f = naive_apply(A.data, v.witness)
                    support = v.witness > 0
                    if strict:
                        assert np.all(f[support] <= 1e-9 * 2)
                    else:
                        assert np.all(f[support] < 0)


class TestAlmostSemiPositive:
    def test_almost_e0(self, almost_e0_tensor):
        v = is_almost_semi_positive(almost_e0_tensor)
        assert v.holds
        assert np.all(apply(almost_e0_tensor, v.witness) < 0)

    def test_almost_e(self, almost_e_tensor):
        v = is_almost_semi_positive(almost_e_tensor, strict=True)
        assert v.holds
        assert np.max(apply(almost_e_tensor, v.witness)) <= 1e-9 * 3

    def test_identity_fails(self):
        assert is_almost_semi_positive(Tensor.identity(3, 2)).status == FAILS

    def test_dim1_rejected(self):
        # the almost classes are defined for dim >= 2 only
        A = Tensor(np.full((1, 1, 1), -1.0))
        for v in (is_almost_semi_positive(A), is_almost_semi_positive(A, strict=True),
                  is_almost_copositive(A), is_almost_copositive(A, strict=True)):
            assert v.status == FAILS
            assert v.witness is None
            assert dict(v.info) == {"reason": "dim_below_2"}

    def test_sum_and_product_counterexample(self, sum_pair):
        A, B = sum_pair
        assert is_almost_semi_positive(A).holds
        assert is_almost_semi_positive(B).holds
        assert is_almost_semi_positive(add(A, B)).status == FAILS
        assert is_almost_semi_positive(hadamard(A, B)).status == FAILS

    def test_trichotomy_branches(self, almost_e_tensor, balanced_tensor):
        # one branch: almost E and almost E0 together
        assert is_almost_semi_positive(almost_e_tensor, strict=True).holds
        assert is_almost_semi_positive(almost_e_tensor, strict=False).holds
        # other branch: almost E together with E0
        assert is_almost_semi_positive(balanced_tensor, strict=True).holds
        assert is_semi_positive(balanced_tensor).holds
        assert is_almost_semi_positive(balanced_tensor, strict=False).status == FAILS

    def test_failing_subset_reported(self, dim3_tensor):
        v = is_almost_copositive(dim3_tensor)
        assert v.status == FAILS
        assert v.info["subset"] == (0, 1)


class TestCopositive:
    def test_ones_holds(self):
        assert is_copositive(Tensor.ones(3, 3)).holds

    def test_almost_c_tensor(self, almost_c_tensor):
        assert is_copositive(almost_c_tensor).status == FAILS
        assert is_almost_copositive(almost_c_tensor).holds
        assert is_almost_copositive(almost_c_tensor, strict=True).holds

    def test_nonneg_random_symmetric(self, rng):
        A = symmetrize(Tensor(rng.uniform(0, 1, (3, 3, 3))))
        assert is_copositive(A).holds

    def test_nonneg_row_tensor(self, nonneg_row_tensor):
        assert is_almost_copositive(nonneg_row_tensor).holds
        # the 1-dim zero subtensor blocks the strict variant
        assert is_almost_copositive(nonneg_row_tensor, strict=True).status == FAILS

    def test_dim3_counterexample(self, dim3_tensor):
        assert is_almost_semi_positive(dim3_tensor).holds
        assert is_almost_copositive(dim3_tensor).status == FAILS


class TestFeasibilityClasses:
    def test_identity_completely_s(self):
        v = is_completely_s(Tensor.identity(3, 3))
        assert v.holds

    def test_s0bar_tensor(self, almost_e0_tensor):
        assert is_completely_s0(almost_e0_tensor).holds
        assert is_semi_positive(almost_e0_tensor).status == FAILS

    def test_sbar_tensor(self, sbar_tensor):
        v = is_completely_s(sbar_tensor)
        assert v.holds
        assert np.min(apply(sbar_tensor, v.witness)) > 0
        assert is_semi_positive(sbar_tensor, strict=True).status == FAILS

    def test_s0_solution_vertex(self, almost_e0_tensor):
        v = is_s0_tensor(almost_e0_tensor)
        assert v.holds
        assert np.min(naive_apply(almost_e0_tensor.data, v.witness)) >= -1e-9

    def test_negative_identity_not_s(self):
        A = Tensor(-Tensor.identity(3, 2).data)
        assert is_s_tensor(A).status == FAILS
        assert is_s0_tensor(A).status == FAILS

    def test_s0_absence_certified_at_dim5(self):
        # S0 used to report a finished search Inconclusive from dimension 5 up
        A = Tensor(np.random.default_rng(8).uniform(-1.0, 1.0, (5,) * 3))
        c = TensorClassifier(A)
        for name in ("S", "S0"):
            v = c.verdict(name)
            assert (v.status, dict(v.info)) == (FAILS, {"reason": "no_solution"})


# A touch case: E's search on the full set finds no witness and no
# certificate, because the value reaches the threshold exactly.
TOUCH_TENSOR = Tensor(np.array([1e-310, -1e-310, -1.0, 0.0,
                                -5e-324, 0.0, 1.0, 1e-310]).reshape(2, 2, 2))


def _scripted(decision: str, table: dict) -> TensorClassifier:
    """A dim-2 classifier whose ``decision`` method answers from ``table``, by subset."""
    c = TensorClassifier(Tensor.zeros(3, 2))
    setattr(c, decision, lambda J, strict: table[J])
    return c


def _decided(status, bound, witness=None, info=None) -> Verdict:
    point = None if witness is None else np.asarray(witness, dtype=float)
    return Verdict(status, point, 1e-9, 1, 0, bound, info or {})


class TestSubsetScan:
    """Every subset-quantified class aggregates through one scan, whose
    ``worst_bound`` is the least root bound among the subsets it decided."""

    def test_e0_fails_with_least_bound_decided(self):
        c = _scripted("component_decision", {
            (0,): _decided(HOLDS, -1.0),
            (1,): _decided(FAILS, -0.25, [1.0], {"witness_margin": 0.5})})
        v = c.verdict("E0")
        assert (v.status, v.worst_bound, v.nodes) == (FAILS, -1.0, 2)
        assert v.witness.tolist() == [0.0, 1.0]
        assert dict(v.info) == {"subset": (1,), "witness_margin": 0.5}

    def test_almost_holds_carries_full_witness_and_least_bound(self):
        c = _scripted("component_decision", {
            (0,): _decided(HOLDS, -3.0), (1,): _decided(HOLDS, 0.5),
            (0, 1): _decided(FAILS, -2.0, [0.4, 0.6], {"witness_margin": 0.1})})
        v = c.verdict("almostE0")
        assert (v.status, v.worst_bound, v.nodes) == (HOLDS, -3.0, 3)
        assert v.witness.tolist() == [0.4, 0.6]
        assert dict(v.info) == {"witness_margin": 0.1}

    def test_almost_fails_when_the_full_set_stays(self):
        c = _scripted("form_decision", {
            (0,): _decided(HOLDS, 1.0), (1,): _decided(INCONCLUSIVE, 0.5),
            (0, 1): _decided(HOLDS, 2.0)})
        v = c.verdict("almostC0")
        assert (v.status, v.witness, v.worst_bound) == (FAILS, None, 0.5)
        assert dict(v.info) == {"reason": "tensor_is_copositive"}

    def test_almost_lists_an_undecided_full_set(self):
        c = _scripted("form_decision", {
            (0,): _decided(HOLDS, 1.0), (1,): _decided(HOLDS, 2.0),
            (0, 1): _decided(INCONCLUSIVE, -0.5, info={"limit": "max_depth"})})
        v = c.verdict("almostC0")
        assert (v.status, v.worst_bound) == (INCONCLUSIVE, -0.5)
        assert dict(v.info) == {"undecided_subsets": [(0, 1)], "limits": ["max_depth"]}

    def test_completely_s_holds_with_least_bound(self):
        c = _scripted("feasibility_decision", {
            (0,): _decided(HOLDS, 1.0, [1.0]), (1,): _decided(HOLDS, 0.5, [1.0]),
            (0, 1): _decided(HOLDS, 2.0, [0.5, 0.5], {"solution_margin": 1.5})})
        v = c.verdict("completelyS")
        assert (v.status, v.worst_bound) == (HOLDS, 0.5)
        assert v.witness.tolist() == [0.5, 0.5]
        assert dict(v.info) == {"solution_margin": 1.5}

    def test_completely_s0_inconclusive_carries_least_bound(self):
        c = _scripted("feasibility_decision", {
            (0,): _decided(HOLDS, 3.0, [1.0]),
            (1,): _decided(INCONCLUSIVE, -1.0, info={"limit": "max_depth"}),
            (0, 1): _decided(HOLDS, 2.0, [0.5, 0.5])})
        v = c.verdict("completelyS0")
        assert (v.status, v.witness, v.worst_bound) == (INCONCLUSIVE, None, -1.0)
        assert dict(v.info) == {"undecided_subsets": [(1,)], "limits": ["max_depth"]}

    def test_touch_case_names_its_limit(self):
        # the full set's minimum sits exactly at the threshold, so its search
        # bisects down to max_depth
        v = TensorClassifier(TOUCH_TENSOR).verdict("E")
        assert v.status == INCONCLUSIVE
        assert dict(v.info) == {"undecided_subsets": [(0, 1)], "limits": ["max_depth"]}

    def test_touch_case_polishes_each_start_once(self, monkeypatch):
        # every leaf that keeps the vertex at the threshold offers it as a
        # start; polishing it again fails the same way
        searches = []  # the starts each search polished, one list per search
        search = subdivision._min_search

        def recording(polish):
            starts = []
            searches.append(starts)

            def polishing(y0, edge):
                starts.append(np.asarray(y0).tobytes())
                return polish(y0, edge)
            return polishing

        def searching(batch, **kwargs):
            return search([s._replace(polish=recording(s.polish)) for s in batch], **kwargs)

        monkeypatch.setattr(subdivision, "_min_search", searching)
        doc = TensorClassifier(TOUCH_TENSOR).classify().to_json()
        assert all(len(starts) == len(set(starts)) for starts in searches)
        assert sum(map(len, searches)) == 2203  # 4,470 with the repeats
        # the report is the one repeated polishing gave, apart from ``limits``
        for v in doc["verdicts"].values():
            v.get("info", {}).pop("limits", None)
        assert hashlib.sha256(canonical_dumps(doc).encode()).hexdigest() == \
            "0fba7e8a76a28f73a3f45d7b2f8eb3fccdd73e80d47073b3bf3af93483912547"

    def test_real_completely_s_bound_is_the_subset_minimum(self, hadamard_pair):
        c = TensorClassifier(hadamard_pair[1])
        v = c.verdict("completelyS")
        assert v.holds
        bounds = [c.feasibility_decision(J, True).worst_bound for J in ((0,), (1,), (0, 1))]
        assert v.worst_bound == min(bounds) < bounds[-1]


class TestSizeGroups:
    """On a cache miss a decision settles its subset together with the
    undecided subsets of its size after it, in one level loop."""

    def test_one_level_loop_per_subset_size(self, monkeypatch):
        # every subset of a strictly dominant tensor is in E0, so the scan
        # decides all 63 subsets of the (3, 6) tensor
        A = _gen_diag_dominant(np.random.default_rng([23, 3, 6]), 3, 6, True)
        calls = []
        search = subdivision._min_search

        def counting(*args, **kwargs):
            calls.append(args[0])
            return search(*args, **kwargs)

        monkeypatch.setattr(subdivision, "_min_search", counting)
        assert TensorClassifier(A).verdict("E0").status == HOLDS
        assert len(calls) == 6  # one search per subset made 63
        assert [len(batch) for batch in calls] == [6, 15, 20, 15, 6, 1]

    def test_searches_a_level_leaves_out_are_decided_on_their_own_turn(self, monkeypatch):
        # a one-byte level cap leaves every search but the first out of a batch
        A = Tensor(np.random.default_rng([23, 3, 4]).uniform(-1.0, 1.0, (4,) * 3) + 0.3)
        want = classify(A).to_json()
        dropped = []
        search = subdivision._min_search

        def counting(batch, **kwargs):
            found = search(batch, **kwargs)
            dropped.append(len(batch) - len(found))
            return found

        monkeypatch.setattr(subdivision, "_LEVEL_BYTES", 1)
        monkeypatch.setattr(subdivision, "_min_search", counting)
        assert classify(A).to_json() == want
        assert sum(dropped) > 0

    def test_a_scan_stores_nothing_after_the_subset_that_fails(self):
        # the (0, 2) subtensor is almost semi-positive and leaves E0: the
        # second of the three pairs
        A = Tensor.from_coo(3, 3, [((0, 0, 0), 1.0), ((0, 0, 2), -1.0), ((2, 0, 2), -1.0),
                                   ((1, 1, 1), 1.0)])
        c = TensorClassifier(A)
        v = c.verdict("E0")
        assert (v.status, v.info["subset"]) == (FAILS, (0, 2))
        assert sorted(J for J, _ in c._component) == [(0,), (0, 1), (0, 2), (1,), (2,)]
        alone = decide_all_components_negative(principal_subtensor(A, (1, 2)), True)
        assert c.component_decision((1, 2), True).to_json() == alone.to_json()


class TestRowsAndEntries:
    def test_nonneg_row_examples(self, nonneg_row_tensor, almost_e0_tensor):
        assert has_nonneg_row_subtensor(nonneg_row_tensor) == 1
        assert has_nonneg_row_subtensor(almost_e0_tensor) is None
        assert has_nonneg_row_subtensor(Tensor.ones(3, 2)) == 0

    def test_entry_conditions_almost_e0(self, almost_e0_tensor):
        ec = entry_conditions(almost_e0_tensor)
        assert ec.diagonal == (1.0, 0.0)
        assert ec.drops == (0.0, -1.0)
        assert ec.satisfied(strict=False)
        assert not ec.satisfied(strict=True)  # zero diagonal entry

    def test_entry_conditions_almost_e(self, almost_e_tensor):
        ec = entry_conditions(almost_e_tensor)
        assert ec.diagonal == (1.0, 1.0)
        assert ec.drops == (0.0, -2.0)
        assert ec.satisfied(strict=True)

    def test_entry_conditions_identity(self):
        ec = entry_conditions(Tensor.identity(3, 2))
        assert ec.drops == (1.0, 1.0)  # no drop is negative, or even zero
        assert not ec.satisfied(strict=False)
        assert not ec.satisfied(strict=True)


class TestStabilizingDiagonal:
    def test_formula(self, almost_e0_tensor):
        D = stabilizing_diagonal(almost_e0_tensor, [1.0, 2.0])
        assert D.data[0, 0, 0] == 1.0
        assert D.data[1, 1, 1] == 0.5
        A2 = add(almost_e0_tensor, D)
        assert np.max(np.abs(apply(A2, [1.0, 2.0]))) <= 1e-10

    def test_stabilized_class_membership(self, almost_e0_tensor):
        D = stabilizing_diagonal(almost_e0_tensor, [1.0, 2.0])
        A2 = add(almost_e0_tensor, D)
        assert is_almost_semi_positive(A2, strict=True).holds
        assert is_completely_s0(A2).holds

    def test_rejects_bad_witness(self, almost_e0_tensor):
        with pytest.raises(ValueError, match="strictly positive"):
            stabilizing_diagonal(almost_e0_tensor, [1.0, 0.0])
        with pytest.raises(ValueError, match="strictly negative"):
            stabilizing_diagonal(almost_e0_tensor, [2.0, 1.0])


class TestWeightedCharacterization:
    def test_almost_e0_witness_passes(self, almost_e0_tensor):
        assert check_weighted_characterization(almost_e0_tensor, [1.0, 2.0])

    def test_identity_fails(self):
        assert not check_weighted_characterization(Tensor.identity(3, 2), [1.0, 1.0])

    def test_zero_image_fails(self, balanced_tensor):
        assert not check_weighted_characterization(balanced_tensor, [1.0, 1.0])

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_every_nonneg_diagonal_agrees(self, data):
        # entries on a quarter grid, x and the nonzero weights bounded away
        # from zero: no product x_i d_i f_i underflows to zero
        n = data.draw(st.integers(2, 3))
        entries = data.draw(st.lists(st.integers(-4, 4), min_size=n ** 3, max_size=n ** 3))
        shift = data.draw(st.integers(0, 4))
        A = Tensor(np.reshape(entries, (n,) * 3) / 4.0 - shift * Tensor.identity(3, n).data)
        x = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
        assume(check_weighted_characterization(A, x))
        d = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                                        min_size=n, max_size=n)))
        assume(d.any())
        assert np.sum(x * d * apply(A, x)) < 0.0


class TestClassify:
    def test_report_covers_all_classes(self, almost_e0_tensor):
        report = classify(almost_e0_tensor)
        assert set(report.verdicts) == set(CLASS_NAMES)
        doc = report.to_json()
        assert list(doc["verdicts"]) == list(CLASS_NAMES)
        assert doc["consistency_violations"] == []
        assert [f.name for f in fields(Config)] == ["epsilon", "max_depth", "subset_cap"]
        assert doc["config"]["max_nodes"] == 200000
        assert doc["config"]["interior_margin"] == 1e-6
        assert (doc["config"]["rho_tol"], doc["config"]["rho_max_iter"]) == (1e-12, 3000)
        assert "s0_certify_cap" not in doc["config"]
        assert "seed" not in doc["config"]

    def test_flags_serialize_as_booleans(self):
        fixture = next(f for f in load_fixtures() if f.name == "zero_order3_dim2")
        text = canonical_dumps(classify(fixture.tensor).to_json(), indent=2)
        assert '"rho_converged": true' in text

    def test_order1_rejected(self):
        with pytest.raises(ValueError, match="order >= 2"):
            classify(Tensor(np.array([1.0, -2.0])))

    def test_known_labels(self, almost_e0_tensor):
        report = classify(almost_e0_tensor)
        v = report.verdicts
        assert v["almostE0"].holds
        assert v["E0"].status == FAILS
        assert v["completelyS0"].holds
        # all off-diagonal entries are nonpositive, but t = 1 sits below the
        # decomposition radius, so the tensor is Z without being M
        assert v["Z"].holds
        assert v["M"].status == FAILS
        assert v["nonneg"].status == FAILS

    def test_zero_tensor_labels(self):
        report = classify(Tensor.zeros(3, 2))
        v = report.verdicts
        assert v["E0"].holds and v["E"].status == FAILS
        assert v["C0"].holds and v["C"].status == FAILS
        assert v["S0"].holds and v["S"].status == FAILS
        assert v["M"].holds

    def test_consistency_clean_on_random(self, rng):
        for _ in range(10):
            A = Tensor(rng.uniform(-1, 1, (3, 3, 3)))
            assert classify(A).violations == []

    def test_all_decisive_flag(self, almost_c_tensor):
        report = classify(almost_c_tensor)
        assert report.all_decisive


# every module-level predicate and the ``CLASSES`` row it is a shorthand for
_SHORTHANDS = [
    pytest.param(fn, kwargs, name, id=name) for fn, kwargs, name in (
        (is_semi_positive, {}, "E0"),
        (is_semi_positive, {"strict": True}, "E"),
        (is_almost_semi_positive, {}, "almostE0"),
        (is_almost_semi_positive, {"strict": True}, "almostE"),
        (is_copositive, {}, "C0"),
        (is_copositive, {"strict": True}, "C"),
        (is_almost_copositive, {}, "almostC0"),
        (is_almost_copositive, {"strict": True}, "almostC"),
        (is_z_tensor, {}, "Z"),
        (is_m_tensor, {}, "M"),
        (is_m_tensor, {"strong": True}, "strongM"),
        (is_diag_dominant, {}, "diagDominant"),
        (is_diag_dominant, {"strict": True}, "strictDiagDominant"),
        (is_s_tensor, {}, "S"),
        (is_s0_tensor, {}, "S0"),
        (is_completely_s, {}, "completelyS"),
        (is_completely_s0, {}, "completelyS0"),
    )
]


class TestTheoremRules:
    """A rule that reads two terms is decisive only where both are."""

    @pytest.mark.parametrize("combine", [operator.eq, operator.or_])
    @pytest.mark.parametrize("decided", [HOLDS, FAILS])
    def test_both_with_an_undecided_term_is_inconclusive(self, combine, decided):
        undecided = [lambda c: INCONCLUSIVE, lambda c: decided]
        assert _both(combine, *undecided)(None) == INCONCLUSIVE
        assert _both(combine, *undecided[::-1])(None) == INCONCLUSIVE

    @pytest.mark.parametrize("name", ["almostE0", "almostC0"])
    def test_iff_rule_with_an_undecided_class_is_inconclusive(self, monkeypatch, name):
        # the identity is symmetric and in neither class, so the rule reaches its iff
        A = Tensor.identity(3, 2)
        rule = "sym_almostE0_iff_almostC0"
        assert TensorClassifier(A).status(rule) == HOLDS
        assert TensorClassifier(A).verdict(name).status == FAILS
        monkeypatch.setitem(CLASSES, name,
                            lambda c: Verdict(INCONCLUSIVE, None, 1e-9, 0, 0, None))
        assert TensorClassifier(A).status(rule) == INCONCLUSIVE


class TestOnePath:
    """Each class is decided by its ``CLASSES`` row alone, read through ``verdict``."""

    @pytest.mark.parametrize("fn, kwargs, name", _SHORTHANDS)
    def test_predicate_is_its_row(self, fn, kwargs, name):
        fixtures = load_fixtures()
        assert len(fixtures) == 18
        for fixture in fixtures:
            A = fixture.tensor
            assert fn(A, **kwargs).to_json() == TensorClassifier(A).verdict(name).to_json()

    def test_classifier_has_no_other_entry(self):
        assert [a for a in dir(TensorClassifier) if a.startswith("is_")] == []


@st.composite
def quarter_grid_tensors(draw):
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, 3))
    vals = draw(st.lists(st.integers(-8, 8), min_size=n ** m, max_size=n ** m))
    return Tensor(np.array(vals, dtype=np.float64).reshape((n,) * m) / 4.0)


def _statuses(A):
    doc = classify(A).to_json()
    canonical_dumps(doc)
    return ({name: v["status"] for name, v in doc["verdicts"].items()},
            doc["symmetric"], doc["consistency_violations"])


class TestScaleInvariance:
    """Every tolerance is relative to the largest entry, so units move no status."""

    def test_tiny_nonsymmetric_matrix(self):
        # an absolute 1e-12 floor calls the 2^-43 copy symmetric, and the
        # symmetric-only theorems then report violations
        A = Tensor.from_coo(2, 2, [((0, 0), 1.0), ((0, 1), -4.0), ((1, 1), 1.0)])
        doc = classify(Tensor(A.data * 2.0 ** -43)).to_json()
        assert doc["symmetric"] is False
        assert doc["consistency_violations"] == []

    @settings(max_examples=100, deadline=None)
    @given(A=quarter_grid_tensors(), k=st.integers(-60, 60))
    def test_statuses_invariant_under_power_of_two_scaling(self, A, k):
        assert _statuses(Tensor(A.data * 2.0 ** k)) == _statuses(A)


# finite tensors whose unscaled sums overflow, or whose subnormal entries
# lose their digits in unscaled arithmetic
HUGE = Tensor.from_coo(3, 2, [((0, 0, 0), 1e308), ((0, 1, 1), -1e308),
                              ((1, 0, 0), -1e308), ((1, 1, 1), 1e308)])
Z2 = Tensor.from_coo(3, 2, [((0, 0, 0), 1e308), ((1, 1, 1), -1e308), ((0, 1, 1), -1.0)])
ROW_SUM = Tensor.from_coo(3, 2, [((0, 0, 0), 1e308), ((0, 0, 1), 1e308),
                                 ((0, 1, 0), 1e308), ((1, 1, 1), 1.0)])
SUBNORMAL = Tensor.from_coo(4, 2, [((0, 0, 0, 0), 5e-324), ((1, 1, 1, 1), 1e-320),
                                   ((0, 1, 1, 1), -3e-322)])
DBL_MAX = sys.float_info.max


@st.composite
def full_range_tensors(draw):
    m = draw(st.integers(3, 4))
    n = draw(st.integers(1, 3))
    entry = st.one_of(st.sampled_from([0.0, DBL_MAX, -DBL_MAX, 5e-324, -5e-324]),
                      st.floats(allow_nan=False, allow_infinity=False))
    vals = draw(st.lists(entry, min_size=n ** m, max_size=n ** m))
    return Tensor(np.array(vals).reshape((n,) * m))


class TestEdgeMagnitudes:
    """Every decision runs on its input scaled by a power of two."""

    @pytest.mark.parametrize("A, k", [(HUGE, -1000), (SUBNORMAL, 1070)])
    def test_statuses_equal_those_of_the_scaled_copy(self, A, k):
        assert _statuses(A) == _statuses(Tensor(np.ldexp(A.data, k)))

    def test_huge_entries(self):
        # unscaled, the bisected coefficients average +inf and -inf into NaN
        statuses = _statuses(HUGE)[0]
        assert (statuses["E0"], statuses["S"], statuses["S0"]) == (HOLDS, FAILS, HOLDS)
        assert classify(HUGE).verdicts["E0"].worst_bound == -1e308

    def test_subnormal_entries(self):
        # unscaled, the subnormal arithmetic refutes S and completely S
        statuses = _statuses(SUBNORMAL)[0]
        assert statuses["S"] == statuses["completelyS"] == statuses["E"] == HOLDS

    @pytest.mark.parametrize("A", [Z2, ROW_SUM, Tensor(np.full((2, 2, 2), DBL_MAX)),
                                   Tensor(np.full((2, 2, 2), -DBL_MAX))],
                             ids=["z2", "row_sum", "max", "minus_max"])
    def test_report_serializes(self, A):
        _statuses(A)

    def test_radius_past_the_float_range_is_null(self):
        # rho(B) of Z2 is about 2.2e308: the enclosure does not fit in a float
        v = classify(Z2).verdicts["M"]
        assert v.status == FAILS
        assert v.info["t"] == 1e308
        assert v.info["rho_lower"] is None and v.info["rho_upper"] is None
        assert v.to_json()["info"]["rho_upper"] is None

    @settings(max_examples=60, deadline=None)
    @given(A=full_range_tensors())
    def test_classify_serializes_on_the_whole_float_range(self, A):
        canonical_dumps(classify(A).to_json())
