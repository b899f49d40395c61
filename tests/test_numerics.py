import numpy as np
import pytest

from snnkit import numerics
from snnkit.errors import ConfigurationError, DimensionError, NumericalError


def conv_bruteforce(x, w, stride, padding):
    """Quadruple-loop cross-correlation oracle, zero padding, no bias."""
    ci, h, ww = x.shape
    co, _, k, _ = w.shape
    ho = (h + 2 * padding - k) // stride + 1
    wo = (ww + 2 * padding - k) // stride + 1
    out = np.zeros((co, ho, wo), dtype=np.float64)
    for o in range(co):
        for y in range(ho):
            for xx in range(wo):
                acc = 0.0
                for c in range(ci):
                    for dy in range(k):
                        for dx in range(k):
                            yy = y * stride + dy - padding
                            xs = xx * stride + dx - padding
                            if 0 <= yy < h and 0 <= xs < ww:
                                acc += float(x[c, yy, xs]) * float(w[o, c, dy, dx])
                out[o, y, xx] = acc
    return out


class TestConv2d:
    def test_zero_input(self):
        w = np.random.default_rng(0).normal(size=(2, 1, 3, 3)).astype(np.float32)
        out = numerics.conv2d(np.zeros((2, 1, 5, 5), dtype=np.float32), w)
        assert out.shape == (2, 2, 3, 3) and not out.any()

    def test_identity_kernel(self):
        x = np.random.default_rng(1).normal(size=(1, 1, 4, 4)).astype(np.float32)
        out = numerics.conv2d(x, np.ones((1, 1, 1, 1), dtype=np.float32))
        np.testing.assert_array_equal(out, x)

    def test_all_ones_sum(self):
        out = numerics.conv2d(np.ones((1, 1, 3, 3), dtype=np.float32), np.ones((1, 1, 3, 3), dtype=np.float32))
        np.testing.assert_array_equal(out, [[[[9.0]]]])

    @pytest.mark.parametrize(
        "shape,kshape,stride,padding",
        [
            ((1, 5, 5), (2, 1, 3, 3), 1, 0),
            ((3, 6, 6), (4, 3, 3, 3), 1, 1),
            ((2, 7, 7), (3, 2, 3, 3), 2, 0),
            ((2, 8, 8), (2, 2, 5, 5), 1, 2),
            ((1, 6, 6), (1, 1, 2, 2), 2, 0),
        ],
    )
    def test_against_bruteforce(self, shape, kshape, stride, padding):
        rng = np.random.default_rng(hash((shape, kshape)) % 2**32)
        x = rng.normal(size=shape).astype(np.float32)
        w = rng.normal(size=kshape).astype(np.float32)
        got = numerics.conv2d(x[None], w, stride, padding)[0]
        want = conv_bruteforce(x, w, stride, padding)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)

    def test_non_integral_extent(self):
        with pytest.raises(ConfigurationError, match="not a positive integer"):
            numerics.conv2d(np.ones((1, 1, 5, 5), dtype=np.float32), np.ones((1, 1, 2, 2), dtype=np.float32), stride=2)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError, match="input channels 2"):
            numerics.conv2d(np.ones((1, 2, 5, 5), dtype=np.float32), np.ones((1, 3, 3, 3), dtype=np.float32))

    @pytest.mark.parametrize("shape", [(1, 5, 5), (5, 5), (1, 1, 1, 5, 5)])
    def test_only_a_batch_is_accepted(self, shape):
        with pytest.raises(DimensionError, match="batch"):
            numerics.conv2d(np.ones(shape, dtype=np.float32), np.ones((1, 1, 3, 3), dtype=np.float32))

    def test_input_unmodified(self):
        x = np.random.default_rng(3).normal(size=(1, 1, 4, 4)).astype(np.float32)
        x0 = x.copy()
        numerics.conv2d(x, np.ones((1, 1, 3, 3), dtype=np.float32), padding=1)
        np.testing.assert_array_equal(x, x0)

    def test_non_finite_raises(self):
        x = np.full((1, 1, 2, 2), np.float32(3e38))
        with np.errstate(over="ignore"), pytest.raises(NumericalError):
            numerics.conv2d(x, np.full((1, 1, 1, 1), np.float32(3e38)))


class TestConvGradients:
    """Hand-coded conv backward helpers against central finite differences."""

    def _setup(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        dout = rng.normal(size=(2, 3, 6, 6))
        return x, w, dout

    def test_weight_grad(self):
        x, w, dout = self._setup()
        analytic = numerics.conv2d_weight_grad(dout, numerics.im2col(x, 3, 1, 1))
        eps = 1e-6
        for flat in [0, 7, 25, 53]:
            wp, wm = w.copy(), w.copy()
            wp.flat[flat] += eps
            wm.flat[flat] -= eps
            num = ((numerics.conv2d(x, wp, 1, 1) - numerics.conv2d(x, wm, 1, 1)) * dout).sum() / (2 * eps)
            assert abs(analytic.flat[flat] - num) < 1e-5 * max(1.0, abs(num))

    def test_input_grad(self):
        x, w, dout = self._setup()
        analytic = numerics.conv2d_input_grad(dout, w, x.shape, 1, 1)
        eps = 1e-6
        for flat in [0, 31, 100, 143]:
            xp, xm = x.copy(), x.copy()
            xp.flat[flat] += eps
            xm.flat[flat] -= eps
            num = ((numerics.conv2d(xp, w, 1, 1) - numerics.conv2d(xm, w, 1, 1)) * dout).sum() / (2 * eps)
            assert abs(analytic.flat[flat] - num) < 1e-5 * max(1.0, abs(num))


def avgpool_reference(x, window):
    """Pooling as a multi-axis numpy mean, the oracle for the strided-slice kernel."""
    b, c, h, w = x.shape
    return x.reshape(b, c, h // window, window, w // window, window).mean(axis=(3, 5)).astype(x.dtype)


def avgpool_grad_reference(dout, window):
    return np.repeat(np.repeat(dout, window, axis=-2), window, axis=-1) / (window * window)


def pool_cases():
    """Random batches for windows 2-4: both dtypes, batches of 1-3, magnitudes 1e-3..1e4, spike maps."""
    rng = np.random.default_rng(2024)
    for window in (2, 3, 4):
        for dtype in (np.float32, np.float64):
            for case in range(12):
                shape = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
                shape += (window * int(rng.integers(1, 5)), window * int(rng.integers(2, 5)))
                if case % 3 == 2:
                    x = (rng.random(shape) < 0.3).astype(dtype)
                else:
                    x = (rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 4, size=shape)).astype(dtype)
                yield window, x[:1] if case % 2 else x


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestAvgPool:
    def test_matches_reference_bit_for_bit(self):
        for window, x in pool_cases():
            x0 = x.copy()
            assert same_bits(numerics.avgpool2d(x, window), avgpool_reference(x, window)), (window, x.dtype, x.shape)
            np.testing.assert_array_equal(x, x0)

    def test_grad_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for window, x in pool_cases():
            pooled = avgpool_reference(x, window)
            dout = (rng.normal(size=pooled.shape) * 10.0 ** rng.uniform(-3, 4, size=pooled.shape)).astype(x.dtype)
            want = avgpool_grad_reference(dout, window)
            assert same_bits(numerics.avgpool2d_input_grad(dout, window), want), (window, x.dtype, x.shape)

    def test_negative_zero_window_pools_to_positive_zero(self):
        x = np.full((1, 2, 4, 4), -0.0, dtype=np.float32)
        assert same_bits(numerics.avgpool2d(x, 2), avgpool_reference(x, 2))
        assert not np.signbit(numerics.avgpool2d(x, 2)).any()

    def test_single_column_output_agrees_to_rounding(self):
        # When the pooled map is one column wide the multi-axis mean reduces
        # each window as one flat run, not row by row, so the kernel agrees
        # with it only to float32 rounding there.
        rng = np.random.default_rng(3)
        for window in (2, 3, 4):
            x = rng.normal(size=(2, 3, 2 * window, window)).astype(np.float32)
            got = numerics.avgpool2d(x, window)
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, avgpool_reference(x.astype(np.float64), window), rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, bad):
        x = np.ones((1, 1, 4, 4), dtype=np.float32)
        x[0, 0, 1, 2] = bad
        with pytest.raises(NumericalError):
            numerics.avgpool2d(x, 2)

    def test_input_unmodified(self):
        x = np.random.default_rng(4).normal(size=(2, 3, 6, 6)).astype(np.float32)
        x0 = x.copy()
        numerics.avgpool2d(x, 3)
        np.testing.assert_array_equal(x, x0)

    def test_constant(self):
        out = numerics.avgpool2d(np.full((1, 1, 4, 4), 2.5, dtype=np.float32), 2)
        np.testing.assert_allclose(out, np.full((1, 1, 2, 2), 2.5))

    def test_hand_mean(self):
        out = numerics.avgpool2d(np.array([[[[1.0, 3.0], [5.0, 7.0]]]], dtype=np.float32), 2)
        np.testing.assert_allclose(out, [[[[4.0]]]])

    def test_zero(self):
        assert not numerics.avgpool2d(np.zeros((1, 2, 4, 4), dtype=np.float32), 2).any()

    def test_indivisible(self):
        with pytest.raises(ConfigurationError, match="does not divide"):
            numerics.avgpool2d(np.ones((1, 1, 5, 5), dtype=np.float32), 2)

    def test_only_a_batch_is_accepted(self):
        with pytest.raises(DimensionError, match="batch"):
            numerics.avgpool2d(np.ones((1, 4, 4), dtype=np.float32), 2)

    def test_grad_spreads_uniformly(self):
        dout = np.ones((1, 1, 2, 2))
        g = numerics.avgpool2d_input_grad(dout, 2)
        np.testing.assert_allclose(g, np.full((1, 1, 4, 4), 0.25))

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 2, 4, 4))
        dout = rng.normal(size=(1, 2, 2, 2))
        analytic = numerics.avgpool2d_input_grad(dout, 2)
        eps = 1e-6
        for flat in [0, 9, 21, 31]:
            xp, xm = x.copy(), x.copy()
            xp.flat[flat] += eps
            xm.flat[flat] -= eps
            num = ((numerics.avgpool2d(xp, 2) - numerics.avgpool2d(xm, 2)) * dout).sum() / (2 * eps)
            assert abs(analytic.flat[flat] - num) < 1e-6


def im2col_reference(x, k, stride, padding):
    """Unfold through an explicitly zero-padded copy of the input."""
    b, c, h, w = x.shape
    ho = numerics.conv_output_extent(h, k, stride, padding)
    wo = numerics.conv_output_extent(w, k, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((b, c, k, k, ho, wo), dtype=x.dtype)
    for ky in range(k):
        for kx in range(k):
            cols[:, :, ky, kx] = xp[:, :, ky : ky + stride * ho : stride, kx : kx + stride * wo : stride]
    return cols.reshape(b, c * k * k, ho * wo)


def col2im_reference(cols, shape, k, stride, padding):
    """Scatter-add onto an explicitly zero-padded grid, then crop the padding."""
    b, c, h, w = shape
    ho = numerics.conv_output_extent(h, k, stride, padding)
    wo = numerics.conv_output_extent(w, k, stride, padding)
    padded = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols = cols.reshape(b, c, k, k, ho, wo)
    for ky in range(k):
        for kx in range(k):
            padded[:, :, ky : ky + stride * ho : stride, kx : kx + stride * wo : stride] += cols[:, :, ky, kx]
    return padded[:, :, padding : padding + h, padding : padding + w]


class TestUnfoldWithoutPadding:
    """im2col and col2im give the bits of the np.pad formulation they replace."""

    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_matches_padded_reference(self, rng, k, stride, padding):
        for h, w in ((7, 9), (11, 11), (12, 8)):
            if (h + 2 * padding - k) % stride or (w + 2 * padding - k) % stride:
                continue
            x = rng.standard_normal((3, 2, h, w)).astype(np.float32)
            x[x > 1.0] = -0.0
            got, want = numerics.im2col(x, k, stride, padding), im2col_reference(x, k, stride, padding)
            assert same_bits(got, want)
            cols = rng.standard_normal(want.shape).astype(np.float32)
            got = numerics.col2im(cols, x.shape, k, stride, padding)
            assert same_bits(got, col2im_reference(cols, x.shape, k, stride, padding))


def test_rng_is_deterministic():
    a = numerics.make_rng(123).random(5)
    b = numerics.make_rng(123).random(5)
    np.testing.assert_array_equal(a, b)
