import math
from itertools import combinations, product

import numpy as np
import pytest

from tenclass import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    Simplex,
    Tensor,
    Verdict,
    WitnessError,
    apply,
    component_coeffs,
    decide_all_components_negative,
    decide_form_nonneg,
    form_coeffs,
    form_value,
    principal_subtensor,
    refine,
    search_nonneg_solution,
    standard_simplex,
)
from tenclass import subdivision
from tenclass.classifiers import Config
from tenclass.subdivision import _halve
from tenclass.verify import GENERATORS, GeneratorSpec, _gen_almost_e0, _gen_z
from _oracles import best_first_searches


def random_sub_simplex(rng, dim, splits):
    S = standard_simplex(dim)
    for _ in range(splits):
        S = S.refine()[rng.integers(0, 2)]
    return S


class TestSimplex:
    def test_standard_simplex(self):
        S = standard_simplex(3)
        assert S.num_vertices == 3 and S.dim == 3 and S.depth == 0
        assert S.diameter() == pytest.approx(np.sqrt(2.0))

    def test_rejects_off_simplex_vertices(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Simplex(np.array([[0.5, 0.4], [0.0, 1.0]]))

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            Simplex(np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_single_point_has_no_edge(self):
        point = Simplex([[1.0]])
        with pytest.raises(ValueError, match="single point"):
            point.longest_edge()
        with pytest.raises(ValueError, match="single point"):
            point.refine()

    def test_segment_bisection(self):
        S = standard_simplex(2)
        left, right = refine(S)
        mid = np.array([0.5, 0.5])
        assert np.array_equal(left.vertices[1], mid)
        assert np.array_equal(right.vertices[0], mid)
        assert left.depth == right.depth == 1

    def test_triangle_bisection_shares_median(self):
        S = standard_simplex(3)
        c1, c2 = refine(S)
        shared = set(map(tuple, c1.vertices)) & set(map(tuple, c2.vertices))
        assert len(shared) == 2  # the midpoint and the opposite vertex

    def test_children_partition_parent(self, rng):
        for dim in (2, 3, 4):
            S = random_sub_simplex(rng, dim, 3)
            c1, c2 = refine(S)
            for _ in range(50):
                lam = rng.dirichlet(np.ones(dim))
                x = lam @ S.vertices
                inside = [c.contains(x) for c in (c1, c2)]
                assert any(inside)

    def test_diameter_decay(self, rng):
        # after 2r bisections along the worst child, the diameter drops by
        # at least the sqrt(3)/2 factor
        for r in (2, 3, 4):
            S = standard_simplex(r)
            start = S.diameter()
            for _ in range(2 * r):
                c1, c2 = refine(S)
                S = max((c1, c2), key=lambda c: c.diameter())
            assert S.diameter() <= (np.sqrt(3.0) / 2.0) * start + 1e-12

    def test_diameters_vanish(self):
        S = standard_simplex(3)
        for _ in range(40):
            S = max(refine(S), key=lambda c: c.diameter())
        assert S.diameter() < 1e-3
        assert S.shape_measure() > 1e-14


class TestCoefficients:
    def test_unit_simplex_coeffs_are_entries(self, almost_e0_tensor):
        c = component_coeffs(almost_e0_tensor, standard_simplex(2))
        assert np.array_equal(c, almost_e0_tensor.data)
        assert np.array_equal(c[0], [[1.0, -1.0], [0.0, 0.0]])
        assert np.array_equal(c[1], [[0.0, -1.0], [0.0, 0.0]])

    def test_zero_tensor_coeffs(self):
        c = component_coeffs(Tensor.zeros(3, 3), standard_simplex(3))
        assert not c.any()

    def test_form_coeffs_diagonal_is_vertex_value(self, almost_c_tensor, rng):
        S = random_sub_simplex(rng, 2, 4)
        c = form_coeffs(almost_c_tensor, S)
        for j in range(2):
            assert c[(j,) * 3] == pytest.approx(
                form_value(almost_c_tensor, S.vertices[j]), rel=1e-12)

    def test_dimension_mismatch(self, almost_c_tensor):
        with pytest.raises(ValueError, match="does not match"):
            component_coeffs(almost_c_tensor, standard_simplex(3))

    def test_sandwich_bounds_random(self, rng):
        # spec invariant: coefficient min/max bound each component over the simplex
        for _ in range(300):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            A = Tensor(rng.uniform(-2, 2, (n,) * m))
            S = random_sub_simplex(rng, n, int(rng.integers(0, 6)))
            lam = rng.dirichlet(np.ones(n))
            x = lam @ S.vertices
            c = component_coeffs(A, S).reshape(n, -1)
            f = apply(A, x)
            assert np.all(c.min(axis=1) <= f + 1e-10)
            assert np.all(f <= c.max(axis=1) + 1e-10)

    def test_form_sandwich_random(self, rng):
        for _ in range(300):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            A = Tensor(rng.uniform(-2, 2, (n,) * m))
            S = random_sub_simplex(rng, n, int(rng.integers(0, 6)))
            lam = rng.dirichlet(np.ones(n))
            x = lam @ S.vertices
            c = form_coeffs(A, S)
            v = form_value(A, x)
            assert c.min() - 1e-10 <= v <= c.max() + 1e-10

    def test_child_coeffs_match_direct_contraction(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            A = Tensor(rng.uniform(-2, 2, (n,) * m))
            S = random_sub_simplex(rng, n, 2)
            c = component_coeffs(A, S)
            a, b = S.longest_edge()
            c1, c2 = refine(S)
            halves = _halve(c[None], tuple(range(1, m)), np.array([a]), np.array([b]))
            assert np.allclose(halves[0], component_coeffs(A, c1), atol=1e-12)
            assert np.allclose(halves[1], component_coeffs(A, c2), atol=1e-12)

    def test_children_bounds_monotone(self, rng):
        # splitting can only tighten the scalar form bound
        for _ in range(50):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 4))
            A = Tensor(rng.uniform(-2, 2, (n,) * m))
            S = random_sub_simplex(rng, n, int(rng.integers(0, 4)))
            parent = form_coeffs(A, S).min()
            for child in refine(S):
                assert form_coeffs(A, child).min() >= parent - 1e-12


class TestDecideAllComponentsNegative:
    def test_identity_holds(self):
        v = decide_all_components_negative(Tensor.identity(3, 2), strict=True)
        assert v.status == HOLDS

    def test_identity_holds_nonstrict(self):
        v = decide_all_components_negative(Tensor.identity(3, 3), strict=False)
        assert v.status == HOLDS

    def test_almost_e0_witness(self, almost_e0_tensor):
        v = decide_all_components_negative(almost_e0_tensor, strict=True)
        assert v.status == FAILS
        assert np.all(apply(almost_e0_tensor, v.witness) < 0)
        assert np.min(v.witness) >= 1e-7

    def test_almost_e_witness(self, almost_e_tensor):
        v = decide_all_components_negative(almost_e_tensor, strict=False)
        assert v.status == FAILS
        f = apply(almost_e_tensor, v.witness)
        assert np.max(f) <= 1e-9 * 3.0

    def test_balanced_tensor_needs_equality_witness(self, balanced_tensor):
        # the only nonpositive image is the exact zero at equal coordinates
        v = decide_all_components_negative(balanced_tensor, strict=False)
        assert v.status == FAILS
        assert np.allclose(v.witness, [0.5, 0.5], atol=1e-6)
        strict = decide_all_components_negative(balanced_tensor, strict=True)
        assert strict.status == HOLDS

    def test_scalar_cases(self):
        neg = Tensor(np.full((1,) * 3, -2.0))
        v = decide_all_components_negative(neg, strict=True)
        assert v.status == FAILS and np.array_equal(v.witness, [1.0])
        pos = Tensor(np.full((1,) * 3, 0.5))
        assert decide_all_components_negative(pos, strict=True).status == HOLDS

    def test_invalid_parameters(self, almost_e0_tensor):
        with pytest.raises(ValueError):
            decide_all_components_negative(almost_e0_tensor, True, epsilon=0.0)
        with pytest.raises(ValueError):
            decide_all_components_negative(almost_e0_tensor, True, max_depth=0)

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan])
    def test_non_finite_epsilon_rejected(self, almost_e0_tensor, epsilon):
        # at tol = inf every bound clears a non-strict rule and every point
        # falls short of a strict one
        from tenclass import Config

        for search in (decide_all_components_negative, decide_form_nonneg,
                       search_nonneg_solution):
            with pytest.raises(ValueError, match="positive and finite"):
                search(almost_e0_tensor, True, epsilon=epsilon)
        with pytest.raises(ValueError, match="positive and finite"):
            Config(epsilon=epsilon)

    def test_inconclusive_on_tiny_budget(self):
        # certifying strict positivity of the identity image needs the leaves to
        # pull away from the simplex boundary, which one level cannot do in dim 3
        v = decide_all_components_negative(Tensor.identity(3, 3), strict=False,
                                           max_depth=1)
        assert v.status == INCONCLUSIVE
        assert v.info.get("limit") == "max_depth"
        assert decide_all_components_negative(Tensor.identity(3, 3),
                                              strict=False).status == HOLDS


class TestDecideFormNonneg:
    def test_ones_copositive(self):
        assert decide_form_nonneg(Tensor.ones(3, 3), strict=False).status == HOLDS

    def test_ones_strictly_copositive(self):
        assert decide_form_nonneg(Tensor.ones(3, 2), strict=True).status == HOLDS

    def test_almost_c_witness(self, almost_c_tensor):
        v = decide_form_nonneg(almost_c_tensor, strict=False)
        assert v.status == FAILS
        assert form_value(almost_c_tensor, v.witness) < -1e-9 * 3
        # the midpoint scaling of the unit-scale value -3
        assert form_value(almost_c_tensor, [0.5, 0.5]) == pytest.approx(-3.0 / 8.0)

    def test_nonneg_row_witness(self, nonneg_row_tensor):
        v = decide_form_nonneg(nonneg_row_tensor, strict=False)
        assert v.status == FAILS
        # the image value at the scaled-down paper point
        assert form_value(nonneg_row_tensor, [1 / 3, 2 / 3]) == pytest.approx(-1.0 / 9.0)

    def test_balanced_form_nonneg_but_not_strict(self, balanced_tensor):
        # form is (x1 - x2)^2 (x1 + x2): nonnegative with a zero on the diagonal
        assert decide_form_nonneg(balanced_tensor, strict=False).status == HOLDS
        strict = decide_form_nonneg(balanced_tensor, strict=True)
        assert strict.status == FAILS
        assert form_value(balanced_tensor, strict.witness) <= 1e-9 * 2

    def test_random_nonneg_tensors_copositive(self, rng):
        for _ in range(20):
            A = Tensor(rng.uniform(0, 1, (3, 3, 3)))
            assert decide_form_nonneg(A, strict=False).status == HOLDS


class TestSearchNonnegSolution:
    def test_identity_has_strict_solution(self):
        v = search_nonneg_solution(Tensor.identity(3, 3), strict=True)
        assert v.status == HOLDS
        assert np.min(apply(Tensor.identity(3, 3), v.witness)) > 0

    def test_s0bar_solution_at_vertex(self, almost_e0_tensor):
        v = search_nonneg_solution(almost_e0_tensor, strict=False)
        assert v.status == HOLDS
        assert np.min(apply(almost_e0_tensor, v.witness)) >= -1e-9

    def test_negative_identity_certified_absent(self):
        A = Tensor(-Tensor.identity(3, 2).data)
        v = search_nonneg_solution(A, strict=True)
        assert v.status == FAILS
        v0 = search_nonneg_solution(A, strict=False)
        assert v0.status == FAILS

    def test_sbar_strict_solution(self, sbar_tensor):
        v = search_nonneg_solution(sbar_tensor, strict=True)
        assert v.status == HOLDS
        assert np.min(apply(sbar_tensor, v.witness)) > 1e-9 * 2


# statuses at a = -1.5, 0, 0.75 of the three searches on the 1x...x1 tensor [a]
DIM1_STATUSES = {
    ("component", True): (FAILS, HOLDS, HOLDS),
    ("component", False): (FAILS, FAILS, HOLDS),
    ("form", True): (FAILS, FAILS, HOLDS),
    ("form", False): (FAILS, HOLDS, HOLDS),
    ("feasibility", True): (FAILS, FAILS, HOLDS),
    ("feasibility", False): (FAILS, HOLDS, HOLDS),
}
SEARCHES = {
    "component": decide_all_components_negative,
    "form": decide_form_nonneg,
    "feasibility": search_nonneg_solution,
}


class TestDimOne:
    """A one-vertex simplex is a point: decided at the root, never bisected."""

    @pytest.mark.parametrize("search", sorted(SEARCHES))
    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("k, a", enumerate([-1.5, 0.0, 0.75]))
    def test_point_decided_at_root(self, search, order, strict, k, a):
        v = SEARCHES[search](Tensor(np.full((1,) * order, a)), strict)
        assert v.status == DIM1_STATUSES[search, strict][k]
        assert (v.nodes, v.depth) == (1, 0)
        # a component or form Fails and a feasibility Holds carry the point
        carries_point = (v.status == HOLDS) == (search == "feasibility")
        if carries_point:
            assert np.array_equal(v.witness, [1.0])
        else:
            assert v.witness is None
        assert v.worst_bound == a

    @pytest.mark.parametrize("search, strict", [("component", True), ("form", False)])
    def test_value_on_the_tolerance_edge_holds(self, search, strict):
        # at epsilon 1 the tolerance of [-0.5] is 0.5, and the non-strict class
        # falls short only below -0.5: the point certifies instead of being
        # left Inconclusive between the leaf and the witness rules
        v = SEARCHES[search](Tensor(np.full((1, 1, 1), -0.5)), strict, epsilon=1.0)
        assert (v.status, v.nodes, v.info) == (HOLDS, 1, {})

    @pytest.mark.parametrize("search", sorted(SEARCHES))
    def test_bound_is_the_entry_exactly(self, search):
        # averaging the six slot permutations of an order-4 entry 0.1 is off by an ulp
        for a in (0.1, -0.7):
            v = SEARCHES[search](Tensor(np.full((1,) * 4, a)), True)
            assert v.worst_bound == a


class TestOverflow:
    """Each search runs on its unit-scale copy, where no coefficient overflows;
    a NaN leaf bound still neither certifies nor refutes."""

    # finite entries whose coefficients overflow on the unscaled tensor
    HUGE = Tensor.from_coo(3, 2, [((0, 0, 0), 1e308), ((0, 1, 1), -1e308),
                                  ((1, 0, 0), -1e308), ((1, 1, 1), 1e308)])

    @pytest.mark.parametrize("search", ["component", "feasibility"])
    def test_search_matches_its_scaled_copy(self, search):
        v = SEARCHES[search](self.HUGE, True, max_depth=6)
        w = SEARCHES[search](Tensor(np.ldexp(self.HUGE.data, -1000)), True, max_depth=6)
        assert (v.status, v.nodes, v.depth, v.info) == (w.status, w.nodes, w.depth, w.info)
        assert v.witness is None and w.witness is None
        assert v.worst_bound == math.ldexp(w.worst_bound, 1000)

    def test_huge_root_is_refuted_at_its_centroid(self):
        # the root's candidate values, read off its unit-scale coefficients,
        # put the centroid at 0, where every component vanishes
        v = SEARCHES["component"](self.HUGE, False)
        assert (v.status, v.nodes) == (FAILS, 1)
        assert np.array_equal(v.witness, [0.5, 0.5])
        assert (v.worst_bound, v.info) == (-1e308, {"witness_margin": 0.0})

    def test_nan_child_is_searched_before_a_certified_sibling(self, monkeypatch):
        # root bound -1; the first child clears, the second is NaN:
        # certifying the level once a sibling clears would certify the NaN leaf
        bounds = iter([[-1.0], [1.0, math.nan]])
        monkeypatch.setattr(subdivision, "_leaf_bounds",
                            lambda G: np.array(next(bounds, [math.nan] * len(G))))
        v = decide_form_nonneg(Tensor.identity(2, 2), False, max_depth=4)
        # the NaN leaf and its descendants are bisected down to the depth cap
        assert (v.status, v.nodes, v.info) == (INCONCLUSIVE, 17, {"limit": "max_depth"})


class TestVerdict:
    def test_fails_constructor_validates(self):
        with pytest.raises(WitnessError):
            Verdict.fails(np.array([1.0, 0.0]),
                          lambda y: (False, 1.0),
                          epsilon=1e-9, nodes=1, depth=0, worst_bound=None)

    def test_fails_records_margin(self):
        v = Verdict.fails(np.array([0.5, 0.5]),
                          lambda y: (True, -0.25),
                          epsilon=1e-9, nodes=3, depth=1, worst_bound=-1.0)
        assert v.status == FAILS
        assert v.info["witness_margin"] == -0.25

    def test_json_shape(self, almost_e0_tensor):
        v = decide_all_components_negative(almost_e0_tensor, strict=True)
        doc = v.to_json()
        assert set(doc) >= {"status", "witness", "epsilon", "nodes", "depth",
                            "worst_bound"}
        assert doc["status"] == FAILS
        assert isinstance(doc["witness"], list)


class TestGridAgreement:
    def grid(self, k=2000):
        t = np.linspace(0.0, 1.0, k + 1)
        return np.column_stack([t, 1.0 - t])

    def test_component_verdicts_match_grid(self, almost_e0_tensor, balanced_tensor,
                                           sbar_tensor):
        from tenclass import apply_batch, max_abs

        for A in (almost_e0_tensor, balanced_tensor, sbar_tensor):
            eps_abs = 1e-9 * max_abs(A)
            g = apply_batch(A, self.grid()).max(axis=1)
            for strict in (True, False):
                v = decide_all_components_negative(A, strict=strict)
                if strict:
                    grid_says_exists = bool(np.any(g < -eps_abs))
                else:
                    grid_says_exists = bool(np.any(g <= eps_abs))
                assert v.decisive
                assert (v.status == FAILS) == grid_says_exists

    def test_feasibility_verdicts_match_grid(self, almost_e0_tensor, balanced_tensor,
                                             sbar_tensor):
        from tenclass import apply_batch, max_abs

        for A in (almost_e0_tensor, balanced_tensor, sbar_tensor):
            eps_abs = 1e-9 * max_abs(A)
            g = apply_batch(A, self.grid()).min(axis=1)
            for strict in (True, False):
                v = search_nonneg_solution(A, strict=strict)
                if strict:
                    grid_says_exists = bool(np.any(g > eps_abs))
                else:
                    grid_says_exists = bool(np.any(g >= -eps_abs))
                assert v.decisive
                assert (v.status == HOLDS) == grid_says_exists


def _order_inputs(m, n):
    """Seeded tensors at one shape: uniform entries, a shifted copy, a dominant
    diagonal and, from dim 2 on, an almost semi-positive draw and a Z-tensor
    just outside E (both fail away from the vertices)."""
    rng = np.random.default_rng([m, n])
    noise = rng.uniform(-1.0, 1.0, (n,) * m)
    diagonal = Tensor.identity(m, n).data
    out = [Tensor(noise), Tensor(noise + 0.6), Tensor(0.5 * noise + (n - 0.5) * diagonal)]
    if n > 1:
        out.append(_gen_almost_e0(rng, m, n, None)[0])
        out.append(_gen_z(rng, m, n, 0.98))
    return out


class TestLevelOrder:
    """The level loop against the best-first heap loop it replaced.

    A certificate refines the same leaves in any order, so every search that
    ends certified (a component or form Holds, a feasibility Fails) must equal
    the oracle's verdict field for field.  The polish order within a level can
    move the witness, nodes or depth of a search that ends on a witness, and
    the depth of one that ends on the node budget, but never a status or a
    limit; the test prints those differences.
    """

    CASES = [(m, n) for m in (2, 3, 4) for n in range(1, 6)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("m, n", CASES)
    def test_verdicts_equal_the_best_first_search(self, m, n, monkeypatch):
        differ = []
        for A in _order_inputs(m, n):
            for name, search in sorted(SEARCHES.items()):
                for strict in (True, False):
                    for max_depth, max_nodes in ((40, 200_000), (5, 200_000), (40, 41)):
                        args = (A, strict, 1e-9, max_depth)
                        level = search(*args, max_nodes=max_nodes)
                        with monkeypatch.context() as patch:
                            patch.setattr(subdivision, "_min_search", best_first_searches)
                            heap = search(*args, max_nodes=max_nodes)
                        case = (name, strict, max_depth, max_nodes, level.status)
                        assert (level.status, level.info.get("limit")) == \
                            (heap.status, heap.info.get("limit")), case
                        if level.status == HOLDS and name != "feasibility" \
                                or level.status == FAILS and name == "feasibility":
                            assert level.to_json() == heap.to_json(), case
                        else:
                            ours, theirs = level.to_json(), heap.to_json()
                            fields = [k for k in theirs if ours.get(k) != theirs[k]]
                            if fields:
                                differ.append((case, fields, heap.nodes, level.nodes))
        # the searches that ended on a witness, or on the node budget, elsewhere
        print(f"\n({m}, {n}): {len(differ)} verdicts differ from best-first:")
        for case, fields, heap_nodes, level_nodes in differ:
            print(f"  {case}: {fields}, nodes {heap_nodes} -> {level_nodes}")


BATCHES = {
    "component": subdivision._components_negative,
    "form": subdivision._forms_nonneg,
    "feasibility": subdivision._nonneg_solutions,
}


def _batch_inputs(m, n):
    """Seeded tensors of four kinds at one shape: uniform entries, strictly
    dominant, a Z-tensor and an almost semi-positive draw."""
    rng = np.random.default_rng([23, m, n])
    out = [Tensor(rng.uniform(-1.0, 1.0, (n,) * m))]
    for kind in ("strictDiagDominant", "zTensor", "almostE0Seeded"):
        out.append(GENERATORS[kind](rng, GeneratorSpec(kind, m, n), Config()))
    return out


class TestBatch:
    """A size group decided in one level loop against one search per subset.

    Each verdict of a batch must be the single search's, field for field.
    The first search always ends; the searches after the first that Fails
    (the status that breaks a scan) are dropped, and so are those a level
    past ``_LEVEL_BYTES`` leaves out (a one-byte cap leaves out all but one).
    The batch polishes as often as the single searches it settled do.
    """

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("m, n, level_bytes", [
        (3, 2, None), (3, 3, None), (3, 4, None), (4, 2, None), (4, 3, None), (4, 4, None),
        (3, 5, None), (3, 4, 1), (4, 3, 1)])
    def test_batched_verdicts_equal_single_searches(self, m, n, level_bytes, monkeypatch):
        polished = []
        search = subdivision._min_search

        def counting(polish):
            def polishing(y0, edge):
                polished.append(y0)
                return polish(y0, edge)
            return polishing

        monkeypatch.setattr(subdivision, "_min_search", lambda batch, **kwargs: search(
            [s._replace(polish=counting(s.polish)) for s in batch], **kwargs))
        if level_bytes:
            monkeypatch.setattr(subdivision, "_LEVEL_BYTES", level_bytes)
        for A, size, name, strict, (max_depth, max_nodes) in product(
                _batch_inputs(m, n), range(1, n + 1), sorted(BATCHES), (True, False),
                ((40, 200_000), (5, 200_000), (40, 41))):
            subs = [principal_subtensor(A, J) for J in combinations(range(n), size)]
            found = BATCHES[name](subs, strict, 1e-9, max_depth, max_nodes)
            batch_polishes = len(polished)
            case = (name, size, strict, max_depth, max_nodes)
            statuses = [v and v.status for v in found]
            last = statuses.index(FAILS) if FAILS in statuses else len(subs) - 1
            assert found[0] is not None, case
            assert statuses[last + 1:] == [None] * (len(subs) - last - 1), case
            for B, v in zip(subs, found):
                if v is not None:
                    alone = SEARCHES[name](B, strict, 1e-9, max_depth, max_nodes=max_nodes)
                    assert v.to_json() == alone.to_json(), case
            assert 2 * batch_polishes == len(polished), case
            polished.clear()
