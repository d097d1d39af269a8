import math

import numpy as np
import pytest

from helpers import conv_oracle, dense_conv_param_grads, kmax_oracle, kmax_reference
from pacrr.gradcheck import GradCheckResult, check_op_gradients, gradient_check
from pacrr.neural import (ParamGroup, conv2d, conv2d_backward, hinge_gradients, hinge_loss,
                          kmax_per_row, max_over_filters, max_over_filters_backward,
                          recurrent_sequence, sgd_step, softmax)


class TestConv2d:
    def test_identity_kernel_with_rectification(self):
        # conv2d is not rectified; the filter max is.
        out, _ = conv2d(np.array([[2.0, -3.0]]), np.ones((1, 1, 1)), np.zeros(1))
        np.testing.assert_array_equal(out[0], [[2.0, -3.0]])
        np.testing.assert_array_equal(max_over_filters(out), [[2.0, 0.0]])

    def test_hand_cross_correlation(self):
        out, _ = conv2d(np.array([[1.0, 2.0], [3.0, 4.0]]), np.ones((1, 2, 2)), np.zeros(1))
        assert out[0, 0, 0] == 10.0

    def test_strided_output_width(self):
        out, _ = conv2d(np.zeros((3, 6)), np.ones((2, 2, 2)), np.zeros(2), stride=2)
        assert out.shape == (2, 3, 3)

    def test_bias_added_before_rectification(self):
        out, _ = conv2d(np.array([[1.0]]), np.ones((1, 1, 1)), np.array([-2.0]))
        assert out[0, 0, 0] == -1.0
        assert max_over_filters(out)[0, 0] == 0.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            conv2d(np.zeros((0, 3)), np.ones((1, 2, 2)), np.zeros(1))

    @pytest.mark.parametrize("density", [1.0, 0.05, 0.0])
    def test_param_gradients_equal_dense_sums(self, density):
        # Cells without a gradient are skipped; the sums must not change. The
        # conv is linear in its parameters: no rectifier masks the sums.
        rng = np.random.default_rng(17)
        kernels = rng.uniform(-1, 1, (4, 3, 3))
        x, bias = rng.uniform(-1, 1, (6, 20)), rng.uniform(-0.5, 0.5, 4)
        out, cache = conv2d(x, kernels, bias, stride=3)
        d_out = rng.uniform(-1, 1, out.shape) * (rng.random(out.shape) < density)
        d_cells = d_out.reshape(4, -1)
        filters, cells = np.nonzero(d_cells)
        d_k, d_b = conv2d_backward((filters, cells, d_cells[filters, cells]), cache, kernels)
        _, cols = conv_oracle(x, kernels, bias, stride=(1, 3))
        ref_k, ref_b = dense_conv_param_grads(d_out, cols, np.ones((len(cols), 4)))
        np.testing.assert_allclose(d_k.reshape(4, -1), ref_k, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(d_b, ref_b, rtol=1e-12, atol=1e-15)
        assert (d_k.any() and d_b.any()) == (density > 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("strided", [False, True])
    def test_output_and_rectifier_state_equal_the_oracle(self, dtype, n, strided):
        rng = np.random.default_rng(n + 10 * strided)
        stride = n if strided else 1
        kernels = rng.uniform(-1, 1, (5, n, n)).astype(dtype)
        bias = rng.uniform(-0.5, 0.5, 5).astype(dtype)
        for rows in range(1, 7):
            for width in (1, n - 1, n, n + 1, 2 * n + 1, 17):
                x = rng.uniform(-1, 1, (rows, width)).astype(dtype)
                out, cache = conv2d(x, kernels, bias, stride)
                ref_out, ref_cols = conv_oracle(x, kernels, bias, (1, stride))
                assert out.dtype == ref_out.dtype and out.shape == ref_out.shape
                assert np.array_equal(out, ref_out), (rows, width)
                assert cache.out is out
                # The rectifier runs once per cell, after the filter max.
                pooled = max_over_filters(out)
                assert np.array_equal(pooled, (ref_out * (ref_out > 0.0)).max(axis=0)), \
                    (rows, width)
                assert np.array_equal(pooled > 0.0, (ref_out > 0.0).any(axis=0)), (rows, width)
                assert np.array_equal(cache.cols, ref_cols), (rows, width)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("strided", [False, True])
    def test_zero_tail_is_cut_after_tail_columns(self, dtype, n, strided):
        # Every output column whose receptive field lies wholly past the
        # written width holds the bias, so only `tail` of them are computed.
        rng = np.random.default_rng(n + 10 * strided)
        stride = n if strided else 1
        kernels = rng.uniform(-1, 1, (5, n, n)).astype(dtype)
        bias = rng.uniform(-0.5, 0.5, 5).astype(dtype)
        for W in (n, 2 * n + 1, 17):
            full_w = -(-W // stride)
            for width in range(W + 1):
                x = np.zeros((3, W), dtype=dtype)
                x[:, :width] = rng.uniform(-1, 1, (3, width))
                full, _ = conv2d(x, kernels, bias, stride)
                for tail in (1, 2, 4):
                    out, cache = conv2d(x, kernels, bias, stride, width, tail)
                    cut = out.shape[2]
                    assert out.shape[:2] == full.shape[:2] and cut <= full_w
                    assert out.tobytes() == full[:, :, :cut].tobytes(), (W, width, tail)
                    assert cache.cols.shape == (3 * cut, n * n)
                    if cut < full_w:  # the last `tail` kept and every cut column
                        zero_field = full[:, :, cut - tail :]
                        assert np.array_equal(zero_field, np.broadcast_to(
                            bias[:, None, None], zero_field.shape)), (W, width, tail)


class TestMaxOverFilters:
    def test_single_filter_identity(self):
        # One filter: its values, rectified.
        x = np.array([[[1.0, -2.0]]])
        out = max_over_filters(x)
        np.testing.assert_array_equal(out, [[1.0, 0.0]])

    def test_two_scalars(self):
        out = max_over_filters(np.array([[[1.0]], [[3.0]]]))
        assert out[0, 0] == 3.0

    def test_elementwise(self):
        out = max_over_filters(np.array([[[2.0, 5.0]], [[4.0, 1.0]]]))
        np.testing.assert_array_equal(out, [[4.0, 5.0]])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (5, 4, 6))
        out = max_over_filters(x)
        out_perm = max_over_filters(x[rng.permutation(5)])
        np.testing.assert_array_equal(out, out_perm)

    def test_backward_takes_the_first_maximal_filter_at_given_cells(self):
        # Where the max over filters is not positive the rectifier blocks the
        # gradient, and the cell routes a zero to filter 0.
        x = np.array([[[1.0, 2.0, 0.0, -1.0]], [[3.0, 2.0, -0.0, -0.5]]])
        d_out = (np.zeros(4, dtype=np.intp), np.array([2, 0, 1, 3]),
                 np.array([0.5, 1.5, 2.5, -3.5]))
        filters, cells, values = max_over_filters_backward(d_out, x)
        np.testing.assert_array_equal(filters, [0, 1, 0, 0])
        np.testing.assert_array_equal(cells, [2, 0, 1, 3])
        np.testing.assert_array_equal(values, [0.0, 1.5, 2.5, 0.0])


class TestKmaxPerRow:
    def test_top_two(self):
        out, _ = kmax_per_row(np.array([[0.1, 0.9, 0.5, 0.7]]), 2)
        np.testing.assert_array_equal(out, [[0.9, 0.7]])

    def test_zero_padding(self):
        out, _ = kmax_per_row(np.array([[0.3]]), 3)
        np.testing.assert_array_equal(out, [[0.3, 0.0, 0.0]])

    def test_ties(self):
        out, src = kmax_per_row(np.array([[0.5, 0.5, 0.5]]), 2)
        np.testing.assert_array_equal(out, [[0.5, 0.5]])
        np.testing.assert_array_equal(src, [[0, 1]])  # earliest positions win

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            width = int(rng.integers(1, 12))
            k = int(rng.integers(1, 6))
            row = rng.uniform(-1, 1, (1, width))
            out, _ = kmax_per_row(row, k)
            np.testing.assert_array_equal(out[0], kmax_oracle(row[0].tolist(), k))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_out_and_src_match_stable_argsort_on_ties(self, k, dtype):
        # src routes the gradient, so ties must pick the same columns too.
        rng = np.random.default_rng(k)
        for width in sorted({max(k - 1, 1), k, k + 1, 3 * k, 64}):
            x = np.round(rng.uniform(-1, 1, (300, width)), 1).astype(dtype)
            x[100:200] *= x[100:200] > 0  # rectified as conv2d does: -0.0 where negative
            x[200:][rng.random((100, width)) < 0.3] = -0.0
            out, src = kmax_per_row(x, k)
            ref_out, ref_src = kmax_reference(x, k)
            assert out.tobytes() == ref_out.tobytes()
            assert src.tobytes() == ref_src.tobytes()


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(np.zeros(2)), [0.5, 0.5])

    def test_large_inputs_stable(self):
        np.testing.assert_allclose(softmax(np.array([1000.0, 1000.0])), [0.5, 0.5])

    def test_hand_values(self):
        out = softmax(np.array([math.log(1), math.log(3)]))
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)

    def test_single_element_is_exactly_one(self):
        assert softmax(np.array([3.7]))[0] == 1.0

    def test_sums_to_one_and_translation_invariant(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            v = rng.uniform(-5, 5, int(rng.integers(1, 10)))
            out = softmax(v)
            assert abs(out.sum() - 1.0) <= 1e-9
            np.testing.assert_allclose(out, softmax(v + 17.3), atol=1e-12)
            assert np.all(out > 0)


class TestRecurrentSequence:
    def test_zero_parameters_give_zero(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-1, 1, (4, 3))
        h, _ = recurrent_sequence(xs, np.zeros((4, 3)), np.zeros(4), np.zeros(4))
        assert h == 0.0

    def test_single_step_hand_evaluation(self):
        # D = 1, T = 1, all recurrent terms vanish since h_0 = c_0 = 0
        w = np.array([[0.5], [-0.3], [0.8], [1.0]])
        u = np.array([0.2, -0.1, 0.4, 0.3])
        b = np.array([0.1, 0.2, -0.2, 0.05])
        h, _ = recurrent_sequence(np.array([[1.0]]), w, u, b)

        def sig(x):
            return 1.0 / (1.0 + math.exp(-x))

        i = sig(0.5 * 1.0 + 0.1)
        o = sig(0.8 * 1.0 - 0.2)
        g = math.tanh(1.0 * 1.0 + 0.05)
        c = i * g  # forget gate contributes nothing at c_0 = 0
        expected = o * math.tanh(c)
        assert h == pytest.approx(expected, abs=1e-15)

    def test_output_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            t, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            h, _ = recurrent_sequence(
                rng.uniform(-3, 3, (t, d)), rng.uniform(-2, 2, (4, d)),
                rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4))
            assert -1.0 < h < 1.0

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            recurrent_sequence(np.zeros((0, 2)), np.zeros((4, 2)), np.zeros(4), np.zeros(4))


class TestHingeLoss:
    def test_margin_satisfied(self):
        assert hinge_loss(1.5, 0.2) == 0.0

    def test_equal_scores(self):
        assert hinge_loss(0.5, 0.5) == 1.0

    def test_violated_margin(self):
        assert hinge_loss(0.2, 0.5) == pytest.approx(1.3)

    def test_gradients(self):
        assert hinge_gradients(0.2, 0.5) == (-1.0, 1.0)
        assert hinge_gradients(2.5, 0.0) == (0.0, 0.0)


class TestSgdStep:
    def test_update(self):
        group = ParamGroup("w", np.array([1.0]))
        grads = {"w": np.array([0.5])}
        sgd_step([group], grads, 0.1)
        assert group.value[0] == pytest.approx(0.95)
        assert grads["w"][0] == 0.5

    def test_zero_gradient_is_identity(self):
        group = ParamGroup("w", np.array([1.0, 2.0]))
        sgd_step([group], {"w": np.zeros(2)}, 0.1)
        np.testing.assert_array_equal(group.value, [1.0, 2.0])

    def test_nan_gradient_names_group(self):
        group = ParamGroup("conv_kernels", np.array([1.0]))
        with pytest.raises(FloatingPointError, match="conv_kernels"):
            sgd_step([group], {"conv_kernels": np.array([np.nan])}, 0.1)

    def test_nonpositive_learning_rate(self):
        with pytest.raises(ValueError):
            sgd_step([], {}, 0.0)

    @pytest.mark.parametrize("learning_rate", [1e300, math.inf, math.nan])
    def test_non_finite_update_names_group_and_leaves_it(self, learning_rate):
        # A float64 gradient against float32 weights: 1e300 * 0.5 is finite
        # in float64 and overflows only in the weights' dtype.
        group = ParamGroup("rnn_w", np.array([1.0, -2.0], dtype=np.float32))
        grads = {"rnn_w": np.array([0.5, 0.0])}
        with pytest.raises(FloatingPointError, match="rnn_w.*learning_rate"):
            sgd_step([group], grads, learning_rate)
        np.testing.assert_array_equal(group.value, [1.0, -2.0])
        np.testing.assert_array_equal(grads["rnn_w"], [0.5, 0.0])

    def test_non_finite_gradient_in_a_later_group_leaves_every_group(self):
        first = ParamGroup("conv2_kernels", np.array([1.0, 2.0], dtype=np.float32))
        second = ParamGroup("rnn_b", np.array([3.0], dtype=np.float32))
        grads = {"conv2_kernels": np.array([0.5, 0.5]), "rnn_b": np.array([np.inf])}
        with pytest.raises(FloatingPointError, match="rnn_b"):
            sgd_step([first, second], grads, 0.1)
        np.testing.assert_array_equal(first.value, [1.0, 2.0])
        np.testing.assert_array_equal(second.value, [3.0])


class TestGradientCheck:
    def test_all_ops_pass(self):
        for name, result in check_op_gradients(seed=0).items():
            assert result.max_rel_error < 1e-6, name
            assert result.checked > 0, name

    def test_hinge_kink_excluded(self):
        # the pair sits exactly on the margin boundary: rel_pos - rel_neg = 1
        pair = np.array([1.0, 0.0])

        def f(flat):
            return hinge_loss(flat[0], flat[1]), (1.0 - flat[0] + flat[1] > 0.0,)

        result = gradient_check(f, pair, np.array([0.0, 0.0]), h=1e-5)
        assert result.excluded == 2
        assert result.checked == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_gradient_fails(self, bad):
        def f(flat):
            return float(flat @ flat), b""

        result = gradient_check(f, np.array([3.0, 1.0]), np.array([bad, 2.0]))
        assert result.max_rel_error == math.inf
        assert result.checked == 2

    def test_non_finite_value_fails(self):
        result = gradient_check(lambda flat: (math.nan, b""), np.array([1.0]), np.array([0.0]))
        assert result.max_rel_error == math.inf
        assert result.checked == 1

    def test_result_type(self):
        def f(flat):
            return float(flat[0] ** 2), b""

        result = gradient_check(f, np.array([3.0]), np.array([6.0]))
        assert isinstance(result, GradCheckResult)
        assert result.max_rel_error < 1e-8


class TestDeterminism:
    def test_ops_bitwise_deterministic(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(-1, 1, (4, 9))
        kernels = rng.uniform(-1, 1, (3, 2, 2))
        bias = rng.uniform(-1, 1, 3)
        out1, _ = conv2d(x, kernels, bias, stride=2)
        out2, _ = conv2d(x, kernels, bias, stride=2)
        assert out1.tobytes() == out2.tobytes()
        h1, _ = recurrent_sequence(x[:, :3], kernels.reshape(3, 4)[:, :3][[0, 0, 1, 2]],
                                   bias[[0, 1, 2, 0]], bias[[1, 2, 0, 1]])
        h2, _ = recurrent_sequence(x[:, :3], kernels.reshape(3, 4)[:, :3][[0, 0, 1, 2]],
                                   bias[[0, 1, 2, 0]], bias[[1, 2, 0, 1]])
        assert h1 == h2
