"""The engine's contraction, node-step and polishing kernels match their plain forms bit for bit.

The engine's verdicts, witnesses and node counts are part of the behaviour
contract, so every fast path here is compared with ``np.array_equal`` (not a
tolerance) against the straightforward computation it replaces.  The one
exception is the candidate values the engine reads off a leaf's coefficients
instead of contracting at its points: they only choose polishing starts, and
are checked against the contractions to 1e-12 of the tensor scale.
"""

from collections import Counter

import numpy as np
import pytest

from tenclass import Tensor, apply, apply_batch, apply_jacobian, form_batch, form_value
from tenclass import reference, subdivision
from tenclass.core import as_vector, orbit_mean, symmetrize
from tenclass.reference import Simplex, refine, standard_simplex
from tenclass.verify import _gen_diag_dominant
from tenclass.subdivision import (
    _candidate_values,
    _halve,
    _longest_edges,
    _polish_descent,
    _project_simplex,
)
from _oracles import loop_apply_jacobian, numpy_project_simplex, replace_vertex

ORDERS = (1, 2, 3, 4)
DIMS = range(1, 9)


def _modes(m):
    return "abcd"[:m]


def _apply_batch_subscripts(m):
    modes = _modes(m - 1)
    return ",".join(["z" + modes] + ["t" + c for c in modes]) + "->tz"


def _form_batch_subscripts(m):
    modes = _modes(m)
    return ",".join([modes] + ["t" + c for c in modes]) + "->t"


def _random_tensor(rng, m, n):
    return Tensor(rng.normal(size=(n,) * m))


def _batches(rng, n):
    """Batches of 1 and n + 1 rows: general vectors and simplex points."""
    for k in (1, n + 1):
        yield rng.normal(size=(k, n))
        yield rng.dirichlet(np.ones(n), size=k)


class TestBatchContractions:
    @pytest.mark.parametrize("m", ORDERS)
    @pytest.mark.parametrize("n", DIMS)
    def test_apply_batch_equals_optimized_einsum(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        A = _random_tensor(rng, m, n)
        for X in _batches(rng, n):
            if m == 1:
                expected = np.broadcast_to(A.data, X.shape)
            else:
                expected = np.einsum(_apply_batch_subscripts(m), A.data,
                                     *[X] * (m - 1), optimize=True)
            # a repeat call returns the same array
            for _ in range(2):
                got = apply_batch(A, X)
                assert got.shape == expected.shape
                assert np.array_equal(got, expected)

    @pytest.mark.parametrize("m", ORDERS)
    @pytest.mark.parametrize("n", DIMS)
    def test_form_batch_equals_optimized_einsum(self, m, n):
        rng = np.random.default_rng(200 * m + n)
        A = _random_tensor(rng, m, n)
        for X in _batches(rng, n):
            expected = np.einsum(_form_batch_subscripts(m), A.data, *[X] * m,
                                 optimize=True)
            for _ in range(2):
                got = form_batch(A, X)
                assert got.shape == expected.shape
                assert np.array_equal(got, expected)

    def test_batch_rows_match_pointwise_calls(self):
        rng = np.random.default_rng(5)
        A = _random_tensor(rng, 3, 4)
        X = rng.dirichlet(np.ones(4), size=5)
        np.testing.assert_allclose(apply_batch(A, X), [apply(A, x) for x in X],
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(form_batch(A, X), [form_value(A, x) for x in X],
                                   rtol=1e-12, atol=1e-12)

    def test_batch_shape_rejected(self):
        A = Tensor.ones(3, 3)
        with pytest.raises(ValueError, match="expected shape"):
            apply_batch(A, np.ones((2, 4)))
        with pytest.raises(ValueError, match="expected shape"):
            form_batch(A, np.ones(3))


class TestPointwiseContractions:
    @pytest.mark.parametrize("m", ORDERS)
    @pytest.mark.parametrize("n", DIMS)
    def test_jacobian_equals_slot_loop(self, m, n):
        rng = np.random.default_rng(300 * m + n)
        A = _random_tensor(rng, m, n)
        for x in (rng.normal(size=n), rng.dirichlet(np.ones(n))):
            assert np.array_equal(apply_jacobian(A, x), loop_apply_jacobian(A.data, x))

    @pytest.mark.parametrize("m", (2, 3, 4))
    @pytest.mark.parametrize("n", DIMS)
    def test_apply_and_form_equal_plain_einsum(self, m, n):
        rng = np.random.default_rng(400 * m + n)
        A = _random_tensor(rng, m, n)
        x = rng.dirichlet(np.ones(n))
        modes = _modes(m - 1)
        apply_subs = ",".join(["z" + modes] + list(modes)) + "->z"
        form_subs = ",".join([_modes(m)] + list(_modes(m))) + "->"
        assert np.array_equal(apply(A, x), np.einsum(apply_subs, A.data, *[x] * (m - 1)))
        assert form_value(A, x) == float(np.einsum(form_subs, A.data, *[x] * m))


class TestAsVector:
    def test_float_vector_passes_through(self):
        x = np.array([0.25, 0.75])
        assert as_vector(x, 2) is x

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            as_vector(np.array([0.5, bad, 0.5]), 3)
        with pytest.raises(ValueError, match="non-finite"):
            as_vector([0.5, bad])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError, match="expected a vector"):
            as_vector(np.ones((2, 2)), 2)
        with pytest.raises(ValueError, match="expected a vector"):
            as_vector(np.ones((1, 3)), 3)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            as_vector(np.ones(3), 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            as_vector([1.0, 2.0], 3)

    def test_lists_and_int_arrays_converted(self):
        for x in ([1, 2, 3], np.array([1, 2, 3]), (1.0, 2.0, 3.0)):
            out = as_vector(x, 3)
            assert out.dtype == np.float64 and out.ndim == 1
            assert np.array_equal(out, [1.0, 2.0, 3.0])

    def test_huge_finite_entries_accepted(self):
        # the entries are finite although their squares overflow
        x = np.array([1e200, -1e300, 1e308])
        assert np.array_equal(as_vector(x, 3), x)


def _bisection_walk(rng, n, depth):
    """Vertex arrays met on one random root-to-leaf path of longest-edge bisection."""
    V = np.eye(n)
    for _ in range(depth):
        yield V
        V = Simplex(V, validate=False).refine()[0 if rng.random() < 0.5 else 1].vertices


def _one_leaf_edge(V):
    a, b = _longest_edges(V[None])
    return int(a[0]), int(b[0])


class TestNodeStep:
    """The level step (longest edges, halving) equals the per-leaf step bit for bit."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_longest_edge_matches_loop_to_depth_40(self, n):
        rng = np.random.default_rng(n)
        leaves = [V for _ in range(40) for V in _bisection_walk(rng, n, 40)]
        assert len(leaves) == 1600
        a, b = _longest_edges(np.stack(leaves))
        for V, pair in zip(leaves, zip(a.tolist(), b.tolist())):
            assert pair == Simplex(V, validate=False).longest_edge() == _one_leaf_edge(V)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_standard_simplex_picks_first_pair(self, n):
        # every edge of the standard simplex has the same length
        assert _one_leaf_edge(np.eye(n)) == (0, 1)
        assert standard_simplex(n).longest_edge() == (0, 1)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("m", (2, 3, 4))
    def test_halving_matches_per_leaf_updates(self, m, n):
        rng = np.random.default_rng([m, n])
        leaves = np.stack([V for _ in range(3) for V in _bisection_walk(rng, n, 12)])
        k = len(leaves)
        a, b = _longest_edges(leaves)
        halves = _halve(leaves, (0,), a, b)
        # component layout: one row per component, then m - 1 vertex axes
        rows = rng.normal(size=(k, n) + (n,) * (m - 1))
        row_halves = _halve(rows, tuple(range(1, m)), a, b)
        # form layout: m vertex axes
        forms = rng.normal(size=(k,) + (n,) * m)
        form_halves = _halve(forms, tuple(range(m)), a, b)
        for i in range(k):
            first, second = refine(Simplex(leaves[i], validate=False))
            assert np.array_equal(halves[2 * i], first.vertices)
            assert np.array_equal(halves[2 * i + 1], second.vertices)
            for got, coeffs, axes in ((row_halves, rows, tuple(range(1, m))),
                                      (form_halves, forms, tuple(range(m)))):
                assert np.array_equal(got[2 * i], replace_vertex(coeffs[i], axes, b[i], a[i]))
                assert np.array_equal(got[2 * i + 1], replace_vertex(coeffs[i], axes, a[i], b[i]))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_candidates_are_centroid_then_vertices(self, n):
        """Values read off the coefficients equal contractions at the candidate points."""
        for m in (2, 3, 4):
            rng = np.random.default_rng([60, m, n])
            A = _random_tensor(rng, m, n)
            scale = float(np.max(np.abs(A.data)))
            layouts = (
                (symmetrize(A).data, tuple(range(m)), lambda X: form_batch(A, X)),
                (orbit_mean(A.data, m - 1), tuple(range(1, m)),
                 lambda X: apply_batch(A, X).max(axis=1)),
            )
            for root, axes, contract in layouts:
                V, C = np.eye(n)[None], root[None]
                for level in range(8):
                    values = _candidate_values(C.reshape(len(C), -1, n ** len(axes)), n)
                    points = np.concatenate((V.mean(axis=1)[:, None], V), axis=1)
                    expected = np.stack([contract(P) for P in points])
                    if level == 0:
                        # the root's vertices are the unit vectors, whose values are
                        # entries: an orbit of one entry averages to itself
                        assert np.array_equal(values[:, 1:], expected[:, 1:])
                    np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12 * scale)
                    if n == 1:
                        break
                    a, b = _longest_edges(V)
                    V, C = _halve(V, (0,), a, b), _halve(C, axes, a, b)
                    keep = rng.permutation(len(V))[:6]
                    V, C = V[keep], C[keep]


class TestTracedNames:
    """Polishing and witness checks go through the names ``subdivision`` binds.

    The benchmark's per-layer tracing wraps exactly those names, so a
    pointwise kernel that bypassed them would go unseen.  The engine reads
    every bound and candidate off its coefficient arrays, so it makes no
    batch contraction at all.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("apply", "apply_jacobian", "form_value"):
            monkeypatch.setattr(subdivision, name, counting(name, getattr(subdivision, name)))
        for name in ("apply_batch", "form_batch"):
            assert not hasattr(subdivision, name)
            monkeypatch.setattr(reference, name, counting(name, getattr(reference, name)))
        return counts

    def test_component_search_fails_with_polishing(self, calls, almost_e0_tensor):
        v = subdivision.decide_all_components_negative(almost_e0_tensor, strict=True)
        assert v.status == subdivision.FAILS
        assert calls["apply_batch"] == calls["form_batch"] == 0
        assert calls["apply"] > 0 and calls["apply_jacobian"] > 0

    def test_component_search_holds(self, calls):
        A = Tensor.identity(3, 3)
        v = subdivision.decide_all_components_negative(A, strict=False)
        assert v.holds and v.nodes > 1
        # no candidate beat the gate, so nothing was polished or evaluated
        assert sum(calls.values()) == 0

    def test_form_search_polishes_through_bound_names(self, calls, almost_c_tensor):
        v = subdivision.decide_form_nonneg(almost_c_tensor, strict=False)
        assert v.status == subdivision.FAILS
        assert calls["apply_batch"] == calls["form_batch"] == 0
        assert calls["form_value"] > 0 and calls["apply"] > 0


def _projection_inputs(rng, n, count):
    """Seeded vectors at magnitudes 1e-3..1e3: general, near-simplex, and tied with signed zeros."""
    mags = 10.0 ** rng.uniform(-3.0, 3.0, size=(count, 1))
    third = count // 3
    general = rng.normal(size=(third, n))
    near = rng.dirichlet(np.ones(n), size=third) + 1e-3 * rng.normal(size=(third, n))
    tied = np.round(rng.normal(size=(count - 2 * third, n)) * 2.0) / 2.0
    tied[rng.random(tied.shape) < 0.3] = -0.0
    return np.vstack([general, near, tied]) * mags


class TestProjection:
    """The scalar projection equals the sort-and-cumsum vector form bit for bit."""

    FLOORS = (0.0, 1e-6, 0.3)  # 0.3 * n >= 1 from n = 4 on: the clamped floor

    @pytest.mark.parametrize("n", DIMS)
    def test_scalar_equals_vector_form(self, n):
        rng = np.random.default_rng([7, n])
        checked = 0
        for floor in self.FLOORS:
            for v in _projection_inputs(rng, n, 4200):
                got = _project_simplex(v, floor)
                want = numpy_project_simplex(v, floor)
                assert np.array_equal(got, want), (v, floor)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (v, floor)
                checked += 1
        # 8 dimensions x 12,600 vectors: over 100,000 seeded inputs in all
        assert checked == 12_600

    def test_descent_returns_the_value_of_its_point(self, almost_e0_tensor):
        A = almost_e0_tensor

        def value_fn(y):
            f = apply(A, y)
            return float(f.max()), f

        y, val = _polish_descent(np.array([0.9, 0.1]), lambda v: _project_simplex(v, 1e-6),
                                 value_fn,
                                 lambda y, f: apply_jacobian(A, y)[int(f.argmax())], 1e-13)
        assert val == float(apply(A, y).max())


# A tensor drawn by ``verify.run_all(3000, count=3)`` (the first pass of the
# verify_suites benchmark at seed 3).  Its strict component search and its
# form search both hold with a minimum just above the threshold.  A failed
# polish caps the gate at the value its descent reached.  The form search
# polishes once; the component search's first descent gives up above the
# local minimum, so one later start beats its value and is polished too.
# Halving the gate alone polished 25 and 15 times.
REPEATING_TENSOR = Tensor(np.array([
    [[6.169286665284805, -1.9686933052328046], [-1.9686933052328046, -1.8847008772721094]],
    [[-1.9686933052328044, -1.8847008772721092], [-1.8847008772721092, 5.412875719161666]],
]))

# The distinct entries of a symmetric (4, 3) tensor drawn by
# ``verify.run_all(7, count=20)``, keyed by sorted index.  Its strict component
# search fails, but only from its second polishing start.
LATE_WITNESS_ENTRIES = {
    (0, 0, 0, 0): 0.6005059699547264, (0, 0, 0, 1): -0.29588320138331053,
    (0, 0, 0, 2): -0.21351951327895807, (0, 0, 1, 1): -0.12745445294999927,
    (0, 0, 1, 2): 0.1321877575106507, (0, 0, 2, 2): -0.10718627031646859,
    (0, 1, 1, 1): 0.2669815405586971, (0, 1, 1, 2): -0.03895149481788555,
    (0, 1, 2, 2): -0.2662055429125311, (0, 2, 2, 2): 0.38419965069760775,
    (1, 1, 1, 1): 1.3408353282538719, (1, 1, 1, 2): 0.2292192485318425,
    (1, 1, 2, 2): -0.11198568849462498, (1, 2, 2, 2): -0.05268769074837304,
    (2, 2, 2, 2): 2.0708861675638888,
}
LATE_WITNESS_TENSOR = Tensor(np.array(
    [LATE_WITNESS_ENTRIES[tuple(sorted(i))] for i in np.ndindex((3,) * 4)]).reshape((3,) * 4))


class TestPolishStarts:
    """A start is polished only when it beats the value the last failed polish
    reached, and never twice in one search."""

    @pytest.fixture
    def starts(self, monkeypatch):
        seen = []

        def recording(y0, *args):
            seen.append(np.asarray(y0).tobytes())
            return _polish_descent(y0, *args)

        monkeypatch.setattr(subdivision, "_polish_descent", recording)
        return seen

    @pytest.fixture
    def contractions(self, monkeypatch):
        calls = Counter()
        for name in ("apply", "form_value"):
            def counting(*args, fn=getattr(subdivision, name), name=name):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(subdivision, name, counting)
        return calls

    def test_component_search(self, starts, contractions):
        v = subdivision.decide_all_components_negative(REPEATING_TENSOR, strict=True)
        assert (v.status, v.nodes) == (subdivision.HOLDS, 59)
        assert len(starts) == len(set(starts)) == 2
        # one start and 98 calls when every descent ran all POLISH_STEPS
        assert contractions["apply"] <= 74

    def test_form_search(self, starts, contractions):
        v = subdivision.decide_form_nonneg(REPEATING_TENSOR, strict=False)
        assert (v.status, v.nodes) == (subdivision.HOLDS, 31)
        assert len(starts) == len(set(starts)) == 1
        # 60 calls when the descent ran all POLISH_STEPS
        assert contractions["form_value"] <= 32

    def test_witness_after_a_failed_polish(self, starts):
        A = LATE_WITNESS_TENSOR
        v = subdivision.decide_all_components_negative(A, strict=True)
        # the search returns at its first successful polish, so the first
        # missed; it comes in the level of depth 3 (a best-first search got
        # there after 15 nodes)
        assert (v.status, v.nodes, v.depth) == (subdivision.FAILS, 13, 3)
        assert len(starts) == len(set(starts)) == 2
        assert float(np.max(apply(A, v.witness))) < -1e-9 * float(np.max(np.abs(A.data)))


class TestGiveUp:
    """A descent toward a target stops once, at its last rate, the steps it has
    left cannot reach the target; it does not stop at the target."""

    @staticmethod
    def _descend(target):
        A = REPEATING_TENSOR
        steps = []

        def value_fn(y):
            f = apply(A, y)
            return float(f.max()), f

        def grad_fn(y, f):
            steps.append(y)
            return apply_jacobian(A, y)[int(f.argmax())]

        y, val = _polish_descent(np.array([0.9, 0.1]), lambda v: _project_simplex(v, 1e-6),
                                 value_fn, grad_fn, 1e-13, target)
        return y, val, len(steps)

    def test_a_reached_target_changes_nothing(self):
        y, val, steps = self._descend(None)
        y_inf, val_inf, steps_inf = self._descend(np.inf)
        assert np.array_equal(y, y_inf) and (val, steps) == (val_inf, steps_inf)
        assert steps > 1

    def test_an_unreachable_target_ends_after_one_step(self):
        assert self._descend(-np.inf)[2] == 1

    def test_dominant_holds_search(self, monkeypatch):
        # a strictly dominant tensor, in E0: its one descent ran all 50 steps
        # and ended far above the threshold
        steps = []

        def counting(y0, project, value_fn, grad_fn, *rest):
            grads = []
            out = _polish_descent(y0, project, value_fn,
                                  lambda *a: grads.append(1) or grad_fn(*a), *rest)
            steps.append(len(grads))
            return out

        monkeypatch.setattr(subdivision, "_polish_descent", counting)
        A = _gen_diag_dominant(np.random.default_rng(1), 3, 5, True)
        v = subdivision.decide_all_components_negative(A, strict=False)
        assert v.to_json() == {"status": "Holds", "witness": None, "epsilon": 1e-09,
                               "nodes": 161, "depth": 9, "worst_bound": -0.4798051045255536}
        assert steps and max(steps) < subdivision.POLISH_STEPS
