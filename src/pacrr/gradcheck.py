"""Finite-difference gradient checking of the numeric core and the pipeline.

`check_op_gradients` covers every differentiable primitive in
`pacrr.neural`, `check_pipeline_gradients` the whole scoring pipeline of
`pacrr.model`, and `gradcheck_report` gathers both for `pacrr gradcheck`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import neural
from .model import PacrrConfig, ScoreCache, init_params, score, score_gradients
from .neural import ParamGroup
from .simmat import MODES, distill

GRADCHECK_THRESHOLD = 1e-4
TINY_CONFIG_KWARGS = dict(l_q=4, l_d=12, l_g=3, n_f=4, n_s=2)


@dataclass
class GradCheckResult:
    max_rel_error: float
    checked: int
    excluded: int


def gradient_check(f, x0: np.ndarray, analytic: np.ndarray, h: float = 1e-5) -> GradCheckResult:
    """Compare an analytic gradient against central finite differences.

    `f` maps a flat float64 vector to (scalar value, signature); a coordinate
    is excluded when the signature differs between x-h and x+h, i.e. the
    perturbation crossed an argmax tie or a rectification/hinge kink. The
    relative-error denominator is floored at 1e-6 so vanishing gradients do
    not amplify finite-difference noise.
    """
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    if x0.shape != analytic.shape:
        raise ValueError("analytic gradient shape must match the input")
    max_err = 0.0
    checked = 0
    excluded = 0
    for idx in range(x0.size):
        xp = x0.copy()
        xp[idx] += h
        vp, sig_p = f(xp)
        xm = x0.copy()
        xm[idx] -= h
        vm, sig_m = f(xm)
        if sig_p != sig_m:
            excluded += 1
            continue
        numeric = (vp - vm) / (2.0 * h)
        a = analytic[idx]
        denom = max(abs(a), abs(numeric), 1e-6)
        err = abs(a - numeric) / denom
        max_err = max(max_err, err)
        checked += 1
    return GradCheckResult(max_rel_error=max_err, checked=checked, excluded=excluded)


def pipeline_signature(cache: ScoreCache) -> tuple:
    """Hashable record of every rectifier state (where a conv output is
    positive) and of the conv pooling routes, as the pooling backward ops
    find them (each k-max survivor's cell and winning filter, filter 0 where
    the rectifier blocks it); two runs with equal signatures lie on the same
    smooth piece of the pipeline."""
    parts = []
    for n, conv in sorted(cache.conv_caches.items()):
        src = cache.kmax_srcs[n]
        d_pooled = neural.kmax_per_row_backward(np.ones(src.shape), src)
        routes = neural.max_over_filters_backward(d_pooled, conv.out)
        parts += [(conv.out > 0.0).tobytes(), routes[0].tobytes(), routes[1].tobytes()]
    return tuple(parts)


def _pack(groups: list[ParamGroup]) -> np.ndarray:
    return np.concatenate([g.value.ravel().astype(np.float64) for g in groups])


def _unpack_into(groups: list[ParamGroup], flat: np.ndarray) -> None:
    pos = 0
    for g in groups:
        size = g.value.size
        g.value = flat[pos : pos + size].reshape(g.value.shape).astype(np.float64)
        pos += size


def check_pipeline_gradients(config: PacrrConfig, seed: int = 0) -> GradCheckResult:
    """Finite-difference check of d rel / d theta through the whole pipeline."""
    rng = np.random.default_rng(seed)
    params = init_params(config)
    for group in params:
        group.value = rng.uniform(-0.5, 0.5, group.value.shape)
    query_len = min(3, config.l_q)
    doc_len = config.l_d + 5
    sim = rng.uniform(-1.0, 1.0, (query_len, doc_len))
    distilled = distill(sim, config.mode, config.l_d, config.l_g)
    idf_vec = rng.uniform(0.5, 3.0, query_len)

    groups = list(params)
    x0 = _pack(groups)

    def f(flat):
        _unpack_into(groups, flat)
        rel, cache = score(params, config, distilled, idf_vec)
        return rel, pipeline_signature(cache)

    _unpack_into(groups, x0)
    rel, cache = score(params, config, distilled, idf_vec)
    grads = score_gradients(params, config, cache, 1.0)
    analytic = np.concatenate([grads[g.name].ravel() for g in groups])
    result = gradient_check(f, x0, analytic)
    _unpack_into(groups, x0)
    return result


def check_op_gradients(seed: int = 0) -> dict[str, GradCheckResult]:
    """Finite-difference checks for every differentiable primitive.

    Each check calls the functions the pipeline calls; a backward pass that
    gives its gradient at a few cells is made dense here."""
    rng = np.random.default_rng(seed)
    results: dict[str, GradCheckResult] = {}

    # conv2d: kernels and bias of a strided same-padded layer, which is
    # linear in them (its input is never trained, so it has no input
    # gradient, and it is rectified after the filter max).
    x = rng.uniform(-1.0, 1.0, (4, 9))
    kernels = rng.uniform(-0.8, 0.8, (3, 2, 2))
    bias = rng.uniform(-0.2, 0.2, 3)
    d_out = rng.uniform(-1.0, 1.0, (3, 4, 5))

    def conv_f(flat):
        ks = flat[: kernels.size].reshape(kernels.shape)
        out, _ = neural.conv2d(x, ks, flat[kernels.size :], stride=2)
        return float(np.sum(out * d_out)), b""

    out, cache = neural.conv2d(x, kernels, bias, stride=2)
    d_cells = d_out.reshape(3, -1)
    filters, cells = np.nonzero(d_cells)
    d_k, d_b = neural.conv2d_backward((filters, cells, d_cells[filters, cells]), cache, kernels)
    flat0 = np.concatenate([kernels.ravel(), bias])
    analytic = np.concatenate([d_k.ravel(), d_b])
    results["conv2d"] = gradient_check(conv_f, flat0, analytic)

    # max_over_filters and its rectifier, routed at every cell as if k-max
    # kept whole rows; about one cell in eight has no positive filter.
    mx = rng.uniform(-1.0, 1.0, (3, 4, 5))
    d_mo = rng.uniform(-1.0, 1.0, (4, 5))
    d_every = (*np.divmod(np.arange(d_mo.size), d_mo.shape[1]), d_mo.ravel())

    def mof_f(flat):
        x = flat.reshape(mx.shape)
        out = neural.max_over_filters(x)
        signature = (neural.max_over_filters_backward(d_every, x)[0].tobytes(),
                     (out > 0.0).tobytes())
        return float(np.sum(out * d_mo)), signature

    filters, cells, values = neural.max_over_filters_backward(d_every, mx)
    analytic = np.zeros((mx.shape[0], d_mo.size))
    analytic[filters, cells] = values
    results["max_over_filters"] = gradient_check(mof_f, mx.ravel(), analytic.ravel())

    # kmax_per_row
    kx = rng.uniform(-1.0, 1.0, (4, 7))
    d_km = rng.uniform(-1.0, 1.0, (4, 3))

    def kmax_f(flat):
        out, src = neural.kmax_per_row(flat.reshape(kx.shape), 3)
        return float(np.sum(out * d_km)), src.tobytes()

    out, src = neural.kmax_per_row(kx, 3)
    rows, cols, values = neural.kmax_per_row_backward(d_km, src)
    analytic = np.zeros(kx.shape)
    analytic[rows, cols] = values
    results["kmax_per_row"] = gradient_check(kmax_f, kx.ravel(), analytic.ravel())

    # softmax
    sv = rng.uniform(-2.0, 2.0, 5)
    d_sm = rng.uniform(-1.0, 1.0, 5)

    def softmax_f(flat):
        return float(np.dot(neural.softmax(flat), d_sm)), b""

    analytic = neural.softmax_backward(d_sm, neural.softmax(sv))
    results["softmax"] = gradient_check(softmax_f, sv, analytic)

    # recurrent_sequence: inputs and all parameters.
    T, D = 3, 5
    xs = rng.uniform(-1.0, 1.0, (T, D))
    w = rng.uniform(-0.7, 0.7, (4, D))
    u = rng.uniform(-0.7, 0.7, 4)
    b = rng.uniform(-0.3, 0.3, 4)
    sizes = [xs.size, w.size, u.size, b.size]

    def rnn_f(flat):
        parts = np.split(flat, np.cumsum(sizes)[:-1])
        h_out, _ = neural.recurrent_sequence(
            parts[0].reshape(T, D), parts[1].reshape(4, D), parts[2], parts[3]
        )
        return h_out, b""

    h_out, cache = neural.recurrent_sequence(xs, w, u, b)
    d_xs, d_w, d_u, d_b = neural.recurrent_backward(1.0, cache, w, u)
    flat0 = np.concatenate([xs.ravel(), w.ravel(), u, b])
    analytic = np.concatenate([d_xs.ravel(), d_w.ravel(), d_u, d_b])
    results["recurrent_sequence"] = gradient_check(rnn_f, flat0, analytic)

    # hinge_loss
    pair = np.array([0.2, 0.5])

    def hinge_f(flat):
        loss = neural.hinge_loss(flat[0], flat[1])
        return loss, (1.0 - flat[0] + flat[1] > 0.0,)

    analytic = np.array(neural.hinge_gradients(*pair))
    results["hinge_loss"] = gradient_check(hinge_f, pair, analytic)

    return results


def gradcheck_report(seed: int = 0) -> dict[str, GradCheckResult]:
    """Every primitive plus the full pipeline in both distillation modes, at
    the TINY_CONFIG_KWARGS shape."""
    results = check_op_gradients(seed=seed)
    for mode in MODES:
        config = PacrrConfig(mode=mode, seed=seed, **TINY_CONFIG_KWARGS)
        results[f"pipeline_{mode}"] = check_pipeline_gradients(config, seed=seed)
    return results
