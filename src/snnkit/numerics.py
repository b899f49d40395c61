"""Minimal dense-tensor arithmetic: 2-D convolution and average pooling.

All operations are pure functions over numpy arrays in row-major layout,
default dtype float32, preserving the dtype of their inputs so verification
code can run the same paths in float64. Convolution is implemented via
im2col; the backward helpers for convolution and pooling live here as well
because both the ANN trainer and the spiking BPTT reuse them.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigurationError, DimensionError, NumericalError


def make_rng(seed) -> np.random.Generator:
    """Deterministic seedable generator (PCG64) owned by the caller."""
    return np.random.default_rng(seed)


def require_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"{name} produced non-finite values")
    return arr


def conv_output_extent(extent: int, kernel: int, stride: int, padding: int) -> int:
    """Output size of a convolution along one axis; must come out integral."""
    span = extent + 2 * padding - kernel
    if span < 0 or span % stride != 0:
        raise ConfigurationError(
            f"conv output extent for size {extent} (kernel {kernel}, stride {stride}, "
            f"padding {padding}) is not a positive integer"
        )
    return span // stride + 1


@functools.lru_cache(maxsize=None)
def _windows(kernel: int, stride: int, padding: int, in_hw: tuple, out_hw: tuple) -> tuple:
    """Per kernel offset: the part of its (B,C,k,k,Ho,Wo) columns whose taps fall inside the
    unpadded input, the strided input window those taps read, and the parts that read padding."""

    def valid(offset, extent, n):  # output o reads input offset - padding + stride * o
        lo = min(n, max(0, -((offset - padding) // stride)))
        hi = max(lo, min(n, (extent - 1 + padding - offset) // stride + 1))
        start = offset - padding + stride * lo
        return lo, hi, slice(start, start + stride * (hi - lo), stride)

    (ho, wo), every, out = out_hw, slice(None), []
    for ky in range(kernel):
        y0, y1, in_y = valid(ky, in_hw[0], ho)
        for kx in range(kernel):
            x0, x1, in_x = valid(kx, in_hw[1], wo)
            at = (every, every, ky, kx)
            parts = ((0, y0, 0, wo), (y1, ho, 0, wo), (y0, y1, 0, x0), (y0, y1, x1, wo))
            borders = tuple(at + (slice(a, b), slice(c, d)) for a, b, c, d in parts if a < b and c < d)
            out.append((at + (slice(y0, y1), slice(x0, x1)), (every, every, in_y, in_x), borders))
    return tuple(out)


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Unfold (B,C,H,W) into patch columns of shape (B, C*k*k, Ho*Wo), with no padded copy of ``x``."""
    b, c, h, w = x.shape
    ho = conv_output_extent(h, kernel, stride, padding)
    wo = conv_output_extent(w, kernel, stride, padding)
    cols = np.empty((b, c, kernel, kernel, ho, wo), dtype=x.dtype)
    for window, source, borders in _windows(kernel, stride, padding, (h, w), (ho, wo)):
        for border in borders:
            cols[border] = 0
        cols[window] = x[source]
    return cols.reshape(b, c * kernel * kernel, ho * wo)


def col2im(cols: np.ndarray, in_shape, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Scatter-add patch columns back onto the (B,C,H,W) input grid; taps on the padding are dropped."""
    b, c, h, w = in_shape
    ho = conv_output_extent(h, kernel, stride, padding)
    wo = conv_output_extent(w, kernel, stride, padding)
    out = np.zeros((b, c, h, w), dtype=cols.dtype)
    cols = cols.reshape(b, c, kernel, kernel, ho, wo)
    for window, source, _ in _windows(kernel, stride, padding, (h, w), (ho, wo)):
        out[source] += cols[window]
    return out


def conv_from_cols(weights: np.ndarray, cols: np.ndarray, out_hw) -> np.ndarray:
    """Apply a (Co,Ci,k,k) kernel to pre-unfolded columns."""
    co = weights.shape[0]
    wmat = weights.reshape(co, -1)
    out = wmat @ cols
    return out.reshape(cols.shape[0], co, out_hw[0], out_hw[1])


def conv2d(x, weights, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Cross-correlation with zero padding and no bias term.

    Takes a batch (B,Ci,H,W) and a (Co,Ci,k,k) kernel; returns the (B,Co,Ho,Wo) map.
    """
    x = np.asarray(x)
    weights = np.asarray(weights)
    if weights.ndim != 4 or weights.shape[2] != weights.shape[3]:
        raise DimensionError(f"conv kernel must be (Co,Ci,k,k), got {weights.shape}")
    if x.ndim != 4:
        raise DimensionError(f"conv input must be a (B,Ci,H,W) batch, got shape {x.shape}")
    if x.shape[1] != weights.shape[1]:
        raise DimensionError(
            f"conv input channels {x.shape[1]} do not match kernel channels {weights.shape[1]}"
        )
    k = weights.shape[2]
    ho = conv_output_extent(x.shape[2], k, stride, padding)
    wo = conv_output_extent(x.shape[3], k, stride, padding)
    out = conv_from_cols(weights, im2col(x, k, stride, padding), (ho, wo))
    return require_finite("conv2d", out)


def conv2d_input_grad(dout: np.ndarray, weights: np.ndarray, in_shape, stride: int, padding: int) -> np.ndarray:
    """Gradient of a convolution w.r.t. its input, for batched (B,Co,Ho,Wo) dout."""
    b, co, ho, wo = dout.shape
    k = weights.shape[2]
    wmat = weights.reshape(co, -1)
    dcols = wmat.T @ dout.reshape(b, co, ho * wo)
    return col2im(dcols, in_shape, k, stride, padding)


def conv2d_weight_grad(dout: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Kernel gradient as a (Co, Ci*k*k) matrix, summed over the batch.

    ``cols`` are the im2col columns of the forward input, (B, Ci*k*k, Ho*Wo).
    """
    b, co = dout.shape[:2]
    return np.matmul(dout.reshape(b, co, -1), cols.transpose(0, 2, 1)).sum(0)


def avgpool2d(x, window: int) -> np.ndarray:
    """Mean over non-overlapping window x window blocks of a (B,C,H,W) batch.

    Each window row is summed left to right, the row sums are added top to
    bottom, and the total is divided by ``window * window``. Starting from
    ``0.0 + x`` makes a window of negative zeros sum to +0.0. For windows
    below 8 whose pooled map is at least two columns wide this is the order
    and result of ``reshape(...).mean(axis=(3, 5))``, bit for bit.
    """
    x = np.asarray(x)
    if x.ndim != 4:
        raise DimensionError(f"pool input must be a (B,C,H,W) batch, got shape {x.shape}")
    h, w = x.shape[2:]
    if h % window or w % window:
        raise ConfigurationError(f"pool window {window} does not divide extents {(h, w)}")

    def row_sum(ky):
        row = x[:, :, ky::window, 0::window] + 0.0
        for kx in range(1, window):
            row += x[:, :, ky::window, kx::window]
        return row

    out = row_sum(0)
    for ky in range(1, window):
        out += row_sum(ky)
    out /= window * window
    out = out.astype(x.dtype, copy=False)
    return require_finite("avgpool2d", out)


def avgpool2d_input_grad(dout: np.ndarray, window: int) -> np.ndarray:
    """Spread pooled gradients uniformly back over each window."""
    g = dout / (window * window)
    out = np.empty(g.shape[:-2] + (g.shape[-2] * window, g.shape[-1] * window), dtype=g.dtype)
    for ky in range(window):
        for kx in range(window):
            out[..., ky::window, kx::window] = g
    return out
