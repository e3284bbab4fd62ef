import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenclass import (
    Tensor,
    add,
    apply,
    apply_jacobian,
    diag,
    form_value,
    hadamard,
    is_nonneg,
    is_positive,
    is_symmetric,
    permute,
    principal_subtensor,
    row_subtensor,
    scale,
    scale_modes,
    scale_rows,
    symmetrize,
)
from tenclass.core import clears, falls_short, max_abs, tolerance, unit_scale, unscale
from _oracles import naive_apply, naive_form


@st.composite
def tensors(draw, min_order=2, max_order=4, max_dim=3):
    m = draw(st.integers(min_order, max_order))
    n = draw(st.integers(1, max_dim))
    vals = draw(st.lists(
        st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
        min_size=n ** m, max_size=n ** m))
    return Tensor(np.asarray(vals).reshape((n,) * m))


def vectors_for(A, positive=False):
    lo = 0.1 if positive else -2.0
    return st.lists(st.floats(lo, 2.0, allow_nan=False, allow_infinity=False),
                    min_size=A.dim, max_size=A.dim).map(np.asarray)


class TestTensorType:
    def test_shape_and_immutability(self):
        A = Tensor.identity(3, 2)
        assert (A.order, A.dim) == (3, 2)
        with pytest.raises(ValueError):
            A.data[0, 0, 0] = 5.0
        with pytest.raises(AttributeError):
            A.order = 4

    def test_rejects_non_finite(self):
        data = np.zeros((2, 2, 2))
        data[0, 1, 0] = np.nan
        with pytest.raises(ValueError, match=r"\(0, 1, 0\)"):
            Tensor(data)

    def test_rejects_ragged_shape(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 3, 2)))

    def test_from_coo_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Tensor.from_coo(3, 2, [((0, 0, 0), 1.0), ((0, 0, 0), 2.0)])

    def test_from_coo_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Tensor.from_coo(3, 2, [((0, 0, 2), 1.0)])

    def test_signed_zeros_hash_equal(self):
        # == compares values, so -0.0 and 0.0 entries must hash alike
        A, B = Tensor(np.zeros((2, 2, 2))), Tensor(-np.zeros((2, 2, 2)))
        assert A == B and hash(A) == hash(B)
        assert len({A, B}) == 1


class TestApply:
    def test_identity_gives_powers(self):
        A = Tensor.identity(3, 2)
        assert np.array_equal(apply(A, [2.0, 3.0]), [4.0, 9.0])

    def test_almost_e0_image(self, almost_e0_tensor):
        assert np.array_equal(apply(almost_e0_tensor, [1.0, 2.0]), [-1.0, -2.0])

    def test_vanishing_image(self, sbar_tensor):
        assert np.array_equal(apply(sbar_tensor, [1.0, 1.0]), [0.0, 0.0])

    def test_dimension_mismatch(self, almost_e0_tensor):
        with pytest.raises(ValueError, match="mismatch"):
            apply(almost_e0_tensor, [1.0, 2.0, 3.0])

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), A=tensors())
    def test_matches_naive_sum(self, data, A):
        x = data.draw(vectors_for(A))
        assert np.allclose(apply(A, x), naive_apply(A.data, x), rtol=0, atol=1e-10)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), A=tensors(), t=st.floats(0.1, 3.0))
    def test_homogeneous(self, data, A, t):
        x = data.draw(vectors_for(A))
        lhs = apply(A, t * x)
        rhs = t ** (A.order - 1) * apply(A, x)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), A=tensors())
    def test_jacobian_matches_finite_differences(self, data, A):
        x = data.draw(vectors_for(A, positive=True))
        J = apply_jacobian(A, x)
        h = 1e-6
        for j in range(A.dim):
            e = np.zeros(A.dim)
            e[j] = h
            fd = (apply(A, x + e) - apply(A, x - e)) / (2 * h)
            assert np.allclose(J[:, j], fd, rtol=1e-4, atol=1e-4)


class TestFormValue:
    def test_zero_tensor(self):
        assert form_value(Tensor.zeros(3, 2), [5.0, -7.0]) == 0.0

    def test_almost_c_value(self, almost_c_tensor):
        assert form_value(almost_c_tensor, [1.0, 1.0]) == -3.0

    def test_nonneg_row_value(self, nonneg_row_tensor):
        assert form_value(nonneg_row_tensor, [1.0, 2.0]) == -3.0

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), A=tensors())
    def test_form_is_inner_product_with_apply(self, data, A):
        x = data.draw(vectors_for(A))
        lhs = form_value(A, x)
        rhs = float(np.dot(x, apply(A, x)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), A=tensors(max_dim=2))
    def test_matches_naive(self, data, A):
        x = data.draw(vectors_for(A))
        assert form_value(A, x) == pytest.approx(naive_form(A.data, x), abs=1e-10)


class TestPrincipalSubtensor:
    def test_full_set_is_identity(self, almost_e_tensor):
        sub = principal_subtensor(almost_e_tensor, [0, 1])
        assert np.array_equal(sub.data, almost_e_tensor.data)

    def test_singleton_is_diagonal_entry(self, nonneg_row_tensor):
        sub = principal_subtensor(nonneg_row_tensor, [1])
        assert sub.dim == 1 and sub.order == 3
        assert sub.data.reshape(-1)[0] == 0.0

    def test_dim3_pair_restriction(self, dim3_tensor):
        sub = principal_subtensor(dim3_tensor, [0, 1])
        expected = Tensor.from_coo(3, 2, [((0, 0, 0), 1.0), ((0, 0, 1), -2.0)])
        assert np.array_equal(sub.data, expected.data)

    def test_empty_rejected(self, dim3_tensor):
        with pytest.raises(ValueError, match="nonempty"):
            principal_subtensor(dim3_tensor, [])

    @pytest.mark.parametrize("J", [[1.5], [True], ["1"], [0, 1.0], [np.float64(1.0)]])
    def test_non_integer_index_rejected(self, dim3_tensor, J):
        # int() would truncate 1.5 and True to index 1
        with pytest.raises(ValueError, match="non-integer component"):
            principal_subtensor(dim3_tensor, J)

    def test_numpy_integers_accepted(self, dim3_tensor):
        J = np.array([0, 1])
        assert principal_subtensor(dim3_tensor, J) == principal_subtensor(dim3_tensor, [0, 1])

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), A=tensors())
    def test_support_locality(self, data, A):
        n = A.dim
        size = data.draw(st.integers(1, n))
        J = tuple(sorted(data.draw(
            st.lists(st.integers(0, n - 1), min_size=size, max_size=size,
                     unique=True))))
        xj = data.draw(st.lists(st.floats(0.0, 2.0, allow_nan=False),
                                min_size=len(J), max_size=len(J)).map(np.asarray))
        x = np.zeros(n)
        x[list(J)] = xj
        unrestricted = apply(A, x)[list(J)]
        restricted = apply(principal_subtensor(A, J), xj)
        assert np.allclose(unrestricted, restricted, rtol=0, atol=1e-10)


class TestRowSubtensor:
    def test_identity_row(self):
        R = row_subtensor(Tensor.identity(3, 2), 0)
        assert np.array_equal(R.data, [[1.0, 0.0], [0.0, 0.0]])

    def test_zero_row(self, nonneg_row_tensor):
        R = row_subtensor(nonneg_row_tensor, 1)
        assert not R.data.any()

    def test_entry_slice(self, almost_e0_tensor):
        R = row_subtensor(almost_e0_tensor, 0)
        assert np.array_equal(R.data, [[1.0, -1.0], [0.0, 0.0]])

    def test_out_of_range(self, almost_e0_tensor):
        with pytest.raises(ValueError, match="out of range"):
            row_subtensor(almost_e0_tensor, 2)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), A=tensors(min_order=3))
    def test_component_equals_row_form(self, data, A):
        x = data.draw(vectors_for(A))
        image = apply(A, x)
        for i in range(A.dim):
            assert image[i] == pytest.approx(
                form_value(row_subtensor(A, i), x), rel=1e-12, abs=1e-12)


class TestEntrywiseAlgebra:
    def test_hadamard_with_ones(self, almost_e_tensor):
        assert hadamard(almost_e_tensor, Tensor.ones(3, 2)) == almost_e_tensor

    def test_hadamard_pair_image(self, hadamard_pair):
        A, B = hadamard_pair
        P = hadamard(A, B)
        # (x1^2 - 2 x2^2, -2 x1^2 + x2^2)
        assert np.array_equal(apply(P, [1.0, 0.0]), [1.0, -2.0])
        assert np.array_equal(apply(P, [0.0, 1.0]), [-2.0, 1.0])
        assert np.array_equal(apply(P, [1.0, 1.0]), [-1.0, -1.0])

    def test_sum_pair_images(self, sum_pair):
        A, B = sum_pair
        S = add(A, B)
        assert np.array_equal(apply(S, [1.0, 2.0]), [1.0 - 4.0, -1.0 + 4.0])
        P = hadamard(A, B)
        assert np.array_equal(apply(P, [2.0, 2.0]), [1.0, 1.0])

    def test_add_zero(self, almost_c_tensor):
        assert add(almost_c_tensor, Tensor.zeros(3, 2)) == almost_c_tensor

    def test_scale_identity(self):
        assert np.array_equal(diag(scale(Tensor.identity(3, 2), 2.5)), [2.5, 2.5])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            add(Tensor.zeros(3, 2), Tensor.zeros(3, 3))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), A=tensors(), B=tensors())
    def test_entrywise_commutes_with_restriction(self, data, A, B):
        if (A.order, A.dim) != (B.order, B.dim):
            return
        n = A.dim
        size = data.draw(st.integers(1, n))
        J = tuple(sorted(data.draw(
            st.lists(st.integers(0, n - 1), min_size=size, max_size=size,
                     unique=True))))
        assert principal_subtensor(hadamard(A, B), J) == hadamard(
            principal_subtensor(A, J), principal_subtensor(B, J))
        assert principal_subtensor(add(A, B), J) == add(
            principal_subtensor(A, J), principal_subtensor(B, J))


class TestPermute:
    def test_identity_permutation(self, almost_e0_tensor):
        assert permute(almost_e0_tensor, [0, 1]) == almost_e0_tensor

    def test_swap_relabels_entries(self, almost_e0_tensor):
        P = permute(almost_e0_tensor, [1, 0])
        expected = Tensor.from_coo(3, 2, [
            ((1, 1, 1), 1.0), ((0, 1, 0), -1.0), ((1, 1, 0), -1.0)])
        assert P == expected

    def test_inverse_restores(self, dim3_tensor, rng):
        sigma = rng.permutation(3)
        inv = np.argsort(sigma)
        assert permute(permute(dim3_tensor, sigma), inv) == dim3_tensor

    def test_not_a_permutation(self, almost_e0_tensor):
        with pytest.raises(ValueError, match="permutation"):
            permute(almost_e0_tensor, [0, 0])

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), A=tensors())
    def test_conjugation_identity(self, data, A):
        # with entries relabeled as b[i1...] = a[sigma(i1)...], the image of x
        # under the relabeled tensor is the sigma-permutation of the image of
        # the inverse-permuted x
        n = A.dim
        sigma = np.array(data.draw(st.permutations(range(n))))
        x = data.draw(vectors_for(A))
        lhs = apply(permute(A, sigma), x)
        rhs = apply(A, x[np.argsort(sigma)])
        for i in range(n):
            assert lhs[i] == pytest.approx(rhs[sigma[i]], rel=1e-12, abs=1e-12)


class TestDiagonalScalings:
    def test_scale_rows_ones(self, almost_e_tensor):
        assert scale_rows(almost_e_tensor, [1.0, 1.0]) == almost_e_tensor

    def test_scale_rows_image(self, almost_e0_tensor):
        scaled = scale_rows(almost_e0_tensor, [2.0, 3.0])
        assert np.array_equal(apply(scaled, [1.0, 2.0]), [-2.0, -6.0])

    def test_scale_rows_identity_diag(self):
        assert np.array_equal(diag(scale_rows(Tensor.identity(3, 2), [2.0, 5.0])),
                              [2.0, 5.0])

    def test_scale_modes_entry_factor(self):
        A = Tensor.from_coo(3, 2, [((0, 1, 1), 1.0)])
        scaled = scale_modes(A, [2.0, 3.0])
        assert scaled.data[0, 1, 1] == 9.0

    def test_scale_modes_rejects_nonpositive(self, almost_e_tensor):
        with pytest.raises(ValueError, match="positive"):
            scale_modes(almost_e_tensor, [1.0, 0.0])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), A=tensors())
    def test_left_right_scaling_identity(self, data, A):
        # (A D x^{m-1})_i = (1/d_i) (D A (Dx)^{m-1})_i
        n = A.dim
        d = np.asarray(data.draw(st.lists(
            st.floats(0.2, 2.5, allow_nan=False), min_size=n, max_size=n)))
        x = data.draw(vectors_for(A))
        lhs = apply(scale_modes(A, d), x)
        assert np.allclose(lhs, apply(A, d * x), rtol=1e-10, atol=1e-10)
        rhs = apply(scale_rows(A, d), d * x) / d
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


class TestToleranceRule:
    def test_tolerance_is_relative_to_the_largest_entry(self):
        assert tolerance(Tensor(np.array([[0.5, -4.0], [0.0, 1.0]])), 1e-3) == 4e-3
        assert tolerance(Tensor.zeros(3, 2), 1e-3) == 1e-3

    def test_falls_short_at_the_edges(self):
        # strict: fails up to and at +tol; non-strict: only below -tol
        assert falls_short(0.25, 0.25, True) and not falls_short(0.5, 0.25, True)
        assert falls_short(-0.5, 0.25, False) and not falls_short(-0.25, 0.25, False)
        assert falls_short(np.array([0.5, -0.5]), 0.25, False).tolist() == [False, True]

    def test_clears_is_the_pass_side(self):
        for q in (-0.5, -0.25, 0.25, 0.5):
            for strict in (True, False):
                assert clears(q, 0.25, strict) != falls_short(q, 0.25, strict)

    def test_nan_neither_clears_nor_falls_short(self):
        for strict in (True, False):
            assert not clears(math.nan, 0.25, strict)
            assert not falls_short(math.nan, 0.25, strict)


class TestUnitScale:
    @pytest.mark.parametrize("top, e", [(1.0, 1), (0.75, 0), (-3.0, 2), (1e308, 1024),
                                        (5e-324, -1073), (0.0, 0)])
    def test_largest_entry_lands_in_half_open_unit(self, top, e):
        A = Tensor.from_coo(3, 2, [((0, 0, 0), top), ((1, 0, 1), top / 3.0)])
        U, got = unit_scale(A)
        assert got == e
        assert np.array_equal(U.data, np.ldexp(A.data, -e))
        assert top == 0.0 or 0.5 <= max_abs(U) < 1.0

    def test_unscale_gives_none_past_the_float_range(self):
        assert unscale(0.75, 4) == 12.0
        assert unscale(-0.75, -1080) == -0.0
        assert unscale(None, 3) is None
        assert unscale(1.0, 1024) is None
        assert unscale(-0.75, 1025) is None

    def test_symmetry_of_huge_entries(self):
        # unscaled, three entries of 1e308 in one orbit sum past the float range
        A = Tensor.from_coo(3, 2, [((0, 0, 0), 1e308), ((0, 0, 1), 1e308),
                                   ((0, 1, 0), 1e308), ((1, 1, 1), 1.0)])
        assert not is_symmetric(A)
        assert is_symmetric(Tensor(np.full((2, 2, 2), -sys.float_info.max)))


class TestPredicatesAndSymmetry:
    def test_identity_flags(self):
        A = Tensor.identity(3, 2)
        assert is_symmetric(A)
        assert np.array_equal(diag(A), [1.0, 1.0])
        assert is_nonneg(A) and not is_positive(A)

    def test_ones_positive(self):
        assert is_positive(Tensor.ones(3, 3))

    def test_almost_e_not_symmetric(self, almost_e_tensor):
        assert not is_symmetric(almost_e_tensor)

    def test_symmetrize_is_symmetric_and_form_preserving(self, almost_c_tensor):
        S = symmetrize(almost_c_tensor)
        assert is_symmetric(S)
        for x in ([1.0, 1.0], [0.3, 0.9], [2.0, 0.1]):
            assert form_value(S, x) == pytest.approx(form_value(almost_c_tensor, x),
                                                     rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(A=tensors())
    def test_symmetrize_idempotent(self, A):
        S = symmetrize(A)
        assert is_symmetric(S)
        assert np.allclose(symmetrize(S).data, S.data, rtol=1e-15, atol=1e-15)
