import numpy as np
import pytest

from tenclass import (
    EigenPair,
    RadiusEnclosure,
    Tensor,
    apply,
    find_negative_hpp_eigenpair,
    form_value,
    principal_subtensor,
    residual,
    spectral_radius_nonneg,
    symmetrize,
)


class TestSpectralRadius:
    def test_zero_tensor(self):
        enc = spectral_radius_nonneg(Tensor.zeros(3, 2))
        assert (enc.lower, enc.upper) == (0.0, 0.0)

    @pytest.mark.parametrize("m,n", [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)])
    def test_all_ones(self, m, n):
        enc = spectral_radius_nonneg(Tensor.ones(m, n), tol=1e-10)
        expected = float(n ** (m - 1))
        assert enc.lower - 1e-9 <= expected <= enc.upper + 1e-9
        assert enc.width <= 1e-6
        assert enc.converged

    def test_identity(self):
        enc = spectral_radius_nonneg(Tensor.identity(3, 3), tol=1e-10)
        assert enc.lower - 1e-9 <= 1.0 <= enc.upper + 1e-9
        assert enc.width <= 1e-6

    def test_reducible_diagonal_exact(self):
        enc = spectral_radius_nonneg(Tensor.diagonal([1.0, 2.0], 3), tol=1e-10)
        assert enc.lower == enc.upper == 2.0
        assert enc.iterations == 0 and enc.converged

    def test_zero_radius_exact(self):
        # row 1 is zero and row 0 only reaches index 1, so both one-index
        # blocks are 0; a plain power iteration stalls above 0 here
        B = Tensor.from_coo(3, 2, [((0, 0, 1), 0.7203811664111007),
                                   ((0, 1, 0), 0.6346140062618605)])
        enc = spectral_radius_nonneg(B)
        assert (enc.lower, enc.upper, enc.iterations, enc.converged) == (0.0, 0.0, 0, True)

    def test_underflowed_iterate_ends_the_block(self):
        # b_001 = b_010 = 5e-311 couple index 0 so weakly that the iterate's
        # first coordinate underflows to 0; its quotient would be 0 / 0
        B = Tensor(np.array([0.0, 5e-311, 5e-311, 0.0, 0.0, 0.5, 0.5, 0.5]).reshape(2, 2, 2))
        enc = spectral_radius_nonneg(B)
        assert (enc.lower, enc.upper, enc.converged) == (0.5, 0.5, True)
        assert enc.iterations < 3000

    def test_lower_end_is_at_least_the_largest_diagonal_entry(self):
        # one iteration from the uniform start: the quotients are the row sums
        # 1.01 and 0.01, but rho(B) >= b_000 = 1
        B = Tensor.from_coo(3, 2, [((0, 0, 0), 1.0), ((0, 1, 1), 0.01), ((1, 0, 0), 0.01)])
        enc = spectral_radius_nonneg(B, max_iter=1)
        assert (enc.lower, enc.upper, enc.iterations) == (1.0, 1.01, 1)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="negative entry"):
            spectral_radius_nonneg(Tensor.from_coo(3, 2, [((0, 1, 1), -1.0)]))

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError, match="tol"):
            spectral_radius_nonneg(Tensor.ones(3, 2), tol=0.0)

    def test_rejects_order_one(self):
        with pytest.raises(ValueError, match="order >= 2"):
            spectral_radius_nonneg(Tensor(np.array([1.0, 2.0])))

    def test_enclosure_does_not_depend_on_units(self):
        # an absolute floor in the stop test would end the 2^-40 copy after one
        # iteration, at a relative width of 0.3
        B = np.random.default_rng(3).uniform(0.0, 1.0, (2, 2, 2))
        enc = spectral_radius_nonneg(Tensor(B))
        tiny = spectral_radius_nonneg(Tensor(B * 2.0 ** -40))
        assert tiny.iterations == enc.iterations == 24
        assert tiny.width / tiny.upper == enc.width / enc.upper <= 1e-12

    def test_sandwich_against_random_points(self, rng):
        # quotient bounds from sampled positive points must stay inside the
        # enclosure margins (lower bounds below the enclosure top and vice versa)
        D = Tensor.diagonal(rng.uniform(0.0, 1.0, 3), 3)
        sparse = rng.uniform(0.0, 1.0, (3, 3, 3)) * (rng.uniform(size=(3, 3, 3)) < 0.3)
        # block-triangular: {0, 1} is invariant, row 2 also touches it; the
        # corner entry of {2} is below, then above, the radius of {0, 1}
        triangular = []
        for corner in (0.1, 5.0):
            T = np.zeros((3, 3, 3))
            T[np.ix_([0, 1], [0, 1], [0, 1])] = rng.uniform(0.1, 1.0, (2, 2, 2))
            T[2, 0, 1], T[2, 1, 2], T[2, 2, 2] = 0.5, 0.3, corner
            triangular.append(Tensor(T))
        inputs = [Tensor(D.data + c) for c in (0.2, 1.0)] + [D, Tensor(sparse)] + triangular
        for B in inputs:
            enc = spectral_radius_nonneg(B, tol=1e-10)
            assert enc.converged
            X = rng.dirichlet(np.ones(3), size=20000)
            X = X[np.all(X > 1e-6, axis=1)]
            quot = np.stack([apply(B, x) / x ** 2 for x in X])
            best_lower = float(quot.min(axis=1).max())
            best_upper = float(quot.max(axis=1).min())
            assert best_lower <= enc.upper + 1e-8
            assert enc.lower <= best_upper + 1e-8
        for B in triangular:
            enc = spectral_radius_nonneg(B, tol=1e-10)
            blocks = [spectral_radius_nonneg(principal_subtensor(B, J), tol=1e-10)
                      for J in ([0, 1], [2])]
            assert abs(enc.lower - max(e.lower for e in blocks)) <= enc.width
            assert abs(enc.upper - max(e.upper for e in blocks)) <= enc.width

    def test_sparse_sweep_converges_and_is_monotone(self):
        # reducible inputs are common among sparse tensors; without the block
        # split 82 of these 300 stay unconverged
        rng = np.random.default_rng(1)
        for _ in range(300):
            m, n = int(rng.integers(3, 5)), int(rng.integers(2, 5))
            density = rng.uniform(0.05, 0.30)
            B = Tensor(rng.uniform(0.0, 1.0, (n,) * m) * (rng.uniform(size=(n,) * m) < density))
            enc = spectral_radius_nonneg(B)
            assert enc.converged, B
            up = spectral_radius_nonneg(Tensor(B.data + 1e-9 * B.data.max()))
            assert enc.lower <= up.upper

    @pytest.mark.parametrize("unit", [1.0, 1e-20])
    def test_enclosure_check_is_relative(self, unit):
        RadiusEnclosure(unit * (1.0 + 1e-13), unit, 0)
        with pytest.raises(ValueError, match="invalid enclosure"):
            RadiusEnclosure(2.0 * unit, unit, 0)
        with pytest.raises(ValueError, match="invalid enclosure"):
            RadiusEnclosure(-1e-300, unit, 0)
        assert RadiusEnclosure(0.0, 0.0, 0).width == 0.0

    def test_monotone_in_entries(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            B = Tensor(rng.uniform(0, 1, (n,) * m))
            Bp = Tensor(B.data + rng.uniform(0, 1, (n,) * m))
            u1 = spectral_radius_nonneg(B, tol=1e-10).upper
            u2 = spectral_radius_nonneg(Bp, tol=1e-10).upper
            assert u1 <= u2 + 1e-8


class TestEigenpairSearch:
    def test_negative_identity(self):
        A = Tensor(-Tensor.identity(3, 2).data)
        pair = find_negative_hpp_eigenpair(A, tol=1e-10)
        assert pair is not None
        assert pair.lam == pytest.approx(-1.0, abs=1e-12)
        assert pair.residual <= 1e-10
        assert np.min(pair.x) > 1e-6

    def test_identity_has_none(self):
        assert find_negative_hpp_eigenpair(Tensor.identity(3, 2), tol=1e-10) is None

    def test_balanced_symmetrized_zero_eigenvalue(self, balanced_tensor):
        S = symmetrize(balanced_tensor)
        pair = find_negative_hpp_eigenpair(S, tol=1e-8, nonpositive=True)
        assert pair is not None
        assert abs(pair.lam) <= 1e-8
        assert np.allclose(pair.x / pair.x[0], [1.0, 1.0], atol=1e-6)
        # without the nonpositive flag a zero eigenvalue does not qualify
        assert find_negative_hpp_eigenpair(S, tol=1e-8) is None

    def test_symmetric_almost_semipositive_has_negative(self, almost_c_tensor):
        S = symmetrize(almost_c_tensor)
        pair = find_negative_hpp_eigenpair(S, tol=1e-8)
        assert pair is not None
        assert pair.lam < -1e-8
        assert pair.residual <= 1e-8
        # stationarity ties the eigenvalue to the form value
        assert pair.lam == pytest.approx(
            form_value(S, pair.x) / float(np.sum(pair.x ** 3)), abs=1e-9)

    def test_requires_symmetric(self, almost_e_tensor):
        with pytest.raises(ValueError, match="symmetric"):
            find_negative_hpp_eigenpair(almost_e_tensor)

    @pytest.mark.parametrize("k", [-3, 5, 1000])
    def test_search_does_not_depend_on_units(self, almost_c_tensor, k):
        # the search runs on the same unit-scale copy of S and of S * 2^k
        S = symmetrize(almost_c_tensor)
        pair = find_negative_hpp_eigenpair(S, tol=1e-8)
        big = find_negative_hpp_eigenpair(Tensor(np.ldexp(S.data, k)), tol=1e-8)
        assert np.array_equal(big.x, pair.x)
        assert big.lam == np.ldexp(pair.lam, k)
        assert big.residual == np.ldexp(pair.residual, k)

    def test_eigenvalue_past_the_float_range_is_an_error(self):
        # lambda = -4e308 for the all -1e308 tensor, at x = 2^(-1/3) (1, 1)
        with pytest.raises(ValueError, match="does not fit in a float"):
            find_negative_hpp_eigenpair(Tensor(np.full((2,) * 3, -1e308)))

    def test_deterministic_for_fixed_seed(self, almost_c_tensor):
        # the starts are fixed: all-ones and eight draws of default_rng(0)
        S = symmetrize(almost_c_tensor)
        p1 = find_negative_hpp_eigenpair(S, tol=1e-8)
        p2 = find_negative_hpp_eigenpair(S, tol=1e-8)
        assert p1.lam == p2.lam
        assert np.array_equal(p1.x, p2.x)

    @pytest.mark.parametrize("seed,m,n,shift,lam", [
        (10, 3, 4, 0.3, -0.712063),
        (3, 3, 5, 0.0, -1.193523),
    ])
    def test_descent_reaches_interior_pairs(self, seed, m, n, shift, lam):
        # interior pairs that the descent from the fixed starts must reach
        rng = np.random.default_rng([seed, m, n])
        S = symmetrize(Tensor(rng.uniform(-1, 1, (n,) * m)))
        A = Tensor(S.data + shift * Tensor.identity(m, n).data)
        pair = find_negative_hpp_eigenpair(A, tol=1e-9)
        assert pair is not None
        assert pair.lam == pytest.approx(lam, abs=1e-6)
        assert residual(A, pair) <= 1e-9 * float(np.max(np.abs(A.data)))
        assert np.min(pair.x) > 1e-6

    @pytest.mark.parametrize("nonpositive", [False, True])
    def test_newton_from_the_starts_keeps_an_interior_pair(self, nonpositive):
        # the 5th draw of this stream, symmetrized (order 3, dim 4, largest
        # entry 2e-4): the descent from every fixed start slides to a boundary
        # minimum, while Newton from a start itself reaches the interior pair
        rng = np.random.default_rng(11)
        for _ in range(5):
            m, n = rng.integers(3, 5), rng.integers(2, 5)
            s = 10 ** rng.uniform(-5, 5)
            data = rng.uniform(-1, 1, (n,) * m) * s
        A = symmetrize(Tensor(data))
        pair = find_negative_hpp_eigenpair(A, tol=1e-9, nonpositive=nonpositive)
        assert pair is not None
        assert pair.lam == pytest.approx(-3.3377e-4, abs=1e-8)
        assert residual(A, pair) <= 1e-9 * float(np.max(np.abs(A.data)))
        assert np.min(pair.x) > 1e-6


class TestResidual:
    def test_exact_pair(self):
        A = Tensor.identity(3, 2)
        pair = EigenPair(1.0, np.array([1.0, 0.0]), 0.0)
        assert residual(A, pair) == 0.0

    def test_perturbed_pair_small_defect(self):
        A = Tensor(-Tensor.identity(3, 3).data)
        x = np.full(3, 3.0 ** (-1.0 / 3.0)) + 1e-6
        pair = EigenPair(-1.0, x, 0.0)
        assert residual(A, pair) <= 1e-4

    def test_matches_definition(self, rng):
        A = symmetrize(Tensor(rng.uniform(-1, 1, (3, 3, 3))))
        x = rng.uniform(0.2, 1.0, 3)
        lam = 0.7
        pair = EigenPair(lam, x, 0.0)
        expected = np.max(np.abs(apply(A, x) - lam * x ** 2))
        assert residual(A, pair) == pytest.approx(expected, rel=1e-15)
