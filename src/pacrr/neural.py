"""Minimal differentiable numeric core.

Each forward function returns (output, cache); the matching *_backward
function consumes the cache plus the upstream gradient and produces exact
gradients for inputs and parameters (parameters only for conv2d, whose input
is never trained). The piecewise-linear ops (rectification, max pooling,
hinge) are differentiable away from ties and kinks. `pacrr.gradcheck`
checks every backward function against central finite differences, one
entry of its `OP_CHECKS` table per differentiable forward function.

conv2d folds its bias into the im2col matmul as the last kernel column
(against a last im2col row of ones) and returns the pre-activation; the
rectifier runs after the filter max, once per cell rather than once per
filter, since relu(max_f z) = max_f relu(z). conv2d also skips the zero
tail that distillation pads a short document with: every output cell whose
receptive field lies wholly in it holds the same values (the bias), and
k-max keeps the earliest of equal values, so only the first few such
columns are computed.

Pooling is exact and lazy: conv2d's output is filter-major, so filter-max
is one reduction, and k-max is a few argmax passes, one per kept value. Each
pooling backward reads only its own forward's data and finds its own routes:
k-max the cells it kept, filter-max the first winning filter at those cells
and whether the rectifier after it passes the gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class ParamGroup:
    """A named trainable tensor."""

    name: str
    value: np.ndarray


def _sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _same_pad(size: int, kernel: int, stride: int) -> tuple[int, int, int]:
    # Zero padding so the output extent is ceil(size / stride); when the total
    # is odd the extra zero goes after the data (keeps window 0 anchored at 0).
    out = -(-size // stride)
    total = max((out - 1) * stride + kernel - size, 0)
    beg = total // 2
    return out, beg, total - beg


# ---------------------------------------------------------------------------
# Convolution

@dataclass
class Conv2dCache:
    cols: np.ndarray  # (out_h*out_w, n*n) im2col patches, no ones row; a transposed view
    out: np.ndarray  # (n_f, out_h, out_w) the pre-activation output, as returned


def conv2d(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray, stride: int = 1,
           width: int | None = None, tail: int = 0):
    """Same-padded 2-D cross-correlation with n_f square kernels, not rectified.

    x: (H, W); kernels: (n_f, n, n); bias: (n_f,); stride: along columns only.
    Output shape (n_f, H, ceil(W/stride)), filter-major and C-contiguous.

    When x is zero from column `width` on, the output columns whose
    receptive field lies wholly in that zero tail all hold the bias; only
    the first `tail` of them are computed, and the output ends there, with
    fewer columns. The padding is that of the full width W either way.
    """
    H, W = x.shape
    n_f, n, n2 = kernels.shape
    if n != n2:
        raise ValueError("kernels must be square")
    if H == 0 or W == 0:
        raise ValueError("conv2d input must be non-empty")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    width = W if width is None else min(width, W)
    out_h, pad_top, pad_bot = _same_pad(H, n, 1)
    out_w, pad_left, _ = _same_pad(W, n, stride)
    out_w = min(out_w, -(-(width + pad_left) // stride) + tail)
    padded_w = max(out_w - 1, 0) * stride + n
    padded = np.zeros((H + pad_top + pad_bot, padded_w), dtype=x.dtype)
    copied = min(width, padded_w - pad_left)
    padded[pad_top : pad_top + H, pad_left : pad_left + copied] = x[:, :copied]
    # Patch (a, b) of every cell, read through one strided view of padded.
    rows, step = padded.strides
    patches = np.ndarray((n, n, out_h, out_w), x.dtype, padded, 0,
                         (rows, step, rows, step * stride))
    cols = np.empty((n * n + 1, out_h, out_w), dtype=x.dtype)
    cols[: n * n].reshape(n, n, out_h, out_w)[...] = patches
    cols[n * n] = 1.0
    cols = cols.reshape(n * n + 1, out_h * out_w)
    out = (np.column_stack((kernels.reshape(n_f, n * n), bias)) @ cols).reshape(n_f, out_h, out_w)
    return out, Conv2dCache(cols=cols[: n * n].T, out=out)


def conv2d_backward(d_out, cache: Conv2dCache, kernels: np.ndarray):
    """Gradients w.r.t. (kernels, bias) given d(loss)/d(output).

    d_out holds the gradient at a few (filter, cell) pairs as `(filters,
    cells, values)`, cell = row * out_w + column; these alone enter the
    sums, in cell order, each pair as one row of the kernel gradient's
    product (`max_over_filters_backward` gives each cell once). No input
    gradient is formed: the conv inputs are fixed features.
    """
    n_f, n, _ = kernels.shape
    filters, cells, values = d_out
    order = np.argsort(cells)
    d_pre = np.zeros((len(order), n_f), dtype=values.dtype)
    d_pre[np.arange(len(order)), filters[order]] = values[order]
    d_kernels = (d_pre.T @ cache.cols[cells[order]]).reshape(n_f, n, n)
    return d_kernels, d_pre.sum(axis=0)


# ---------------------------------------------------------------------------
# Pooling

def max_over_filters(x: np.ndarray) -> np.ndarray:
    """The rectified max across the leading filter axis, relu(max_f x):
    (n_f, H, W) -> (H, W). x is conv2d's pre-activation output.

    Fastest on a C-contiguous x, as conv2d returns it.
    """
    if x.ndim != 3 or x.shape[0] < 1:
        raise ValueError("expected a non-empty (n_f, H, W) array")
    out = x.max(axis=0)
    return np.maximum(out, 0.0, out=out)


def max_over_filters_backward(d_out, x: np.ndarray):
    """Route the gradient at cells of the (H, W) filter max, `(rows, cols,
    values)` as `kmax_per_row_backward` returns it, to the first filter of
    x (n_f, H, W) attaining the max at each cell, passing it only where
    that max is > 0; a cell the rectifier blocks routes a zero to filter 0,
    the first maximal filter of the rectified x. Returns `(filters, cells,
    values)` with cell = row * W + col, for `conv2d_backward`."""
    rows, cols, values = d_out
    column = x[:, rows, cols]
    live = column.max(axis=0) > 0.0
    return column.argmax(axis=0) * live, rows * x.shape[2] + cols, values * live


def kmax_per_row(x: np.ndarray, k: int):
    """Per row, the k largest values sorted descending (ties keep the earlier
    column); rows shorter than k are zero-padded. x must not hold -inf.

    Returns (out, src) where src holds each output's source column, -1 for
    padding cells. Each of the min(k, width) passes takes every row's first
    argmax and sets it to -inf in a working copy.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rows, width = x.shape
    m = min(width, k)
    src = np.empty((rows, k), dtype=np.int64)
    work = x.copy()
    every = np.arange(rows)
    for j in range(m):
        src[:, j] = work.argmax(axis=1)
        work[every, src[:, j]] = -np.inf
    if m == k:
        return x[every[:, None], src], src
    src[:, m:] = -1
    out = np.zeros((rows, k), dtype=x.dtype)
    out[:, :m] = x[every[:, None], src[:, :m]]
    return out, src


def kmax_per_row_backward(d_out: np.ndarray, src: np.ndarray):
    """Gradient w.r.t. the input at the cells k-max read, row by row, as
    `(rows, cols, values)`; padding outputs (src -1) and zero gradients
    carry none."""
    rows, kept = np.nonzero((src >= 0) & (d_out != 0.0))
    return rows, src[rows, kept], d_out[rows, kept]


# ---------------------------------------------------------------------------
# Softmax

def softmax(v: np.ndarray) -> np.ndarray:
    """Numerically stable softmax (max-subtracted)."""
    v = np.asarray(v, dtype=np.float64)
    if v.size < 1:
        raise ValueError("softmax input must be non-empty")
    z = np.exp(v - v.max())
    return z / z.sum()


def softmax_backward(d_out: np.ndarray, out: np.ndarray) -> np.ndarray:
    return out * (d_out - float(np.dot(d_out, out)))


# ---------------------------------------------------------------------------
# Recurrent aggregation (single-unit gated cell)

@dataclass
class RnnCache:
    xs: np.ndarray
    # per step: (i, f, o, g, c_prev, h_prev, tanh_c)
    steps: list[tuple[float, float, float, float, float, float, float]]


def recurrent_sequence(xs: np.ndarray, w: np.ndarray, u: np.ndarray, b: np.ndarray):
    """Gated recurrence with a scalar hidden state over T input vectors.

    xs: (T, D); w: (4, D) input weights; u: (4,) recurrent weights; b: (4,)
    biases. Gate order along axis 0: input, forget, output, candidate.
    Starting from h_0 = c_0 = 0:

        i,f,o = sigmoid(w_g . x_t + u_g h_{t-1} + b_g),  g = tanh(...)
        c_t = f c_{t-1} + i g,  h_t = o tanh(c_t)

    Returns (h_T, cache); h_T lies in (-1, 1).
    """
    xs = np.atleast_2d(np.asarray(xs))
    T = xs.shape[0]
    if T < 1:
        raise ValueError("recurrent_sequence needs at least one input vector")
    h = 0.0
    c = 0.0
    steps = []
    for t in range(T):
        z = w @ xs[t] + u * h + b
        i = _sigmoid(float(z[0]))
        f = _sigmoid(float(z[1]))
        o = _sigmoid(float(z[2]))
        g = math.tanh(float(z[3]))
        c_new = f * c + i * g
        tanh_c = math.tanh(c_new)
        steps.append((i, f, o, g, c, h, tanh_c))
        h = o * tanh_c
        c = c_new
    return h, RnnCache(xs=xs, steps=steps)


def recurrent_backward(d_h: float, cache: RnnCache, w: np.ndarray, u: np.ndarray):
    """Backpropagate through time; returns (d_xs, d_w, d_u, d_b).

    A scalar loop carries dh and dc back and records each step's gate
    gradient in dz. d_w, d_u and d_b are then sums over the steps, last step
    first: numpy adds the rows in order from 0.0, as a step-by-step += would.
    """
    xs = cache.xs
    w64 = np.asarray(w, dtype=np.float64)
    d_xs = np.empty(xs.shape, dtype=np.float64)
    dz = np.empty((len(xs), 4), dtype=np.float64)
    dh = float(d_h)
    dc = 0.0
    for t in reversed(range(len(xs))):
        i, f, o, g, c_prev, _, tanh_c = cache.steps[t]
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        dz[t] = (dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                 do * o * (1.0 - o), dc * i * (1.0 - g * g))
        d_xs[t] = dz[t] @ w64
        dh = float(np.dot(dz[t], u))
        dc = dc * f
    h_prev = np.array([step[5] for step in cache.steps])
    dz = dz[::-1]
    d_w = (dz[:, :, None] * xs[::-1, None, :]).sum(axis=0)
    return d_xs, d_w, (dz * h_prev[::-1, None]).sum(axis=0), dz.sum(axis=0)


# ---------------------------------------------------------------------------
# Loss and optimization

def hinge_loss(rel_pos: float, rel_neg: float) -> float:
    """Pairwise max-margin loss max(0, 1 - rel_pos + rel_neg)."""
    return max(0.0, 1.0 - rel_pos + rel_neg)


def hinge_gradients(rel_pos: float, rel_neg: float) -> tuple[float, float]:
    """(d/d rel_pos, d/d rel_neg); zero once the margin is satisfied."""
    if 1.0 - rel_pos + rel_neg > 0.0:
        return -1.0, 1.0
    return 0.0, 0.0


def sgd_step(groups, grads: dict[str, np.ndarray], learning_rate: float) -> None:
    """In-place SGD update `value -= lr * grads[name]`, each gradient cast to
    its group's dtype first. Raises FloatingPointError naming the group, and
    before any group is written, when a gradient or an update is non-finite.
    """
    if learning_rate <= 0.0:
        raise ValueError("learning_rate must be positive")
    updates = []
    with np.errstate(over="ignore", invalid="ignore"):
        for group in groups:
            grad = np.asarray(grads[group.name], dtype=group.value.dtype)
            if not np.isfinite(grad).all():
                raise FloatingPointError(f"non-finite gradient in parameter group "
                                         f"{group.name!r} at learning_rate {learning_rate}")
            updated = group.value - learning_rate * grad
            if not np.isfinite(updated).all():
                raise FloatingPointError(f"non-finite update to parameter group "
                                         f"{group.name!r} at learning_rate {learning_rate}")
            updates.append((group, updated))
    for group, updated in updates:
        group.value[...] = updated
