"""Finite-difference gradient checking of the numeric core and the pipeline.

Every check goes through `check_flat`, which perturbs a list of arrays as
one float64 vector. `OP_CHECKS` lists one check per differentiable
primitive of `pacrr.neural`, `check_pipeline` covers the whole scoring
pipeline of `pacrr.model`, and `gradcheck_report` gathers both for
`pacrr gradcheck`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import neural
from .model import PacrrConfig, PacrrParams, ScoreCache, init_params, score, score_gradients
from .neural import ParamGroup
from .simmat import MODES, distill

GRADCHECK_THRESHOLD = 1e-4
TINY_CONFIG_KWARGS = dict(l_q=4, l_d=12, l_g=3, n_f=4, n_s=2)


@dataclass
class GradCheckResult:
    max_rel_error: float
    checked: int
    excluded: int

    @property
    def passed(self) -> bool:
        """True when at least one coordinate was checked and none erred by
        GRADCHECK_THRESHOLD or more."""
        return self.checked > 0 and self.max_rel_error < GRADCHECK_THRESHOLD


def gradient_check(f, x0: np.ndarray, analytic: np.ndarray, h: float = 1e-5) -> GradCheckResult:
    """Compare an analytic gradient against central finite differences.

    `f` maps a flat float64 vector to (scalar value, signature); a coordinate
    is excluded when the signature differs between x-h and x+h, i.e. the
    perturbation crossed an argmax tie or a rectification/hinge kink. The
    relative-error denominator is floored at 1e-6 so vanishing gradients do
    not amplify finite-difference noise. A checked coordinate whose analytic
    gradient, either value or numeric difference is not finite has error inf.
    """
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    if x0.shape != analytic.shape:
        raise ValueError("analytic gradient shape must match the input")
    max_err, checked, excluded = 0.0, 0, 0
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
        finite = all(map(math.isfinite, (a, vp, vm, numeric)))
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6) if finite else math.inf
        max_err = max(max_err, err)
        checked += 1
    return GradCheckResult(max_rel_error=max_err, checked=checked, excluded=excluded)


def check_flat(value, inputs, grads) -> GradCheckResult:
    """`gradient_check` of `value(*inputs)` -> (scalar, signature) with the
    arrays of `inputs` taken together as one float64 vector; `grads` holds
    the analytic gradient of each, in its shape or flattened."""
    shapes = [np.shape(a) for a in inputs]
    splits = np.cumsum([math.prod(shape) for shape in shapes])[:-1]

    def f(flat):
        return value(*(part.reshape(shape) for part, shape in zip(np.split(flat, splits), shapes)))

    return gradient_check(f, np.concatenate([np.ravel(a) for a in inputs]),
                          np.concatenate([np.ravel(g) for g in grads]))


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


def check_pipeline(params: PacrrParams, config: PacrrConfig, distilled, idf) -> GradCheckResult:
    """Finite-difference check of d rel / d theta through the whole pipeline
    at `params`; each perturbation is scored with fresh parameter groups."""
    names = [group.name for group in params]

    def value(*values):
        groups = {name: ParamGroup(name, v) for name, v in zip(names, values)}
        rel, cache = score(PacrrParams(groups), config, distilled, idf)
        return rel, pipeline_signature(cache)

    _, cache = score(params, config, distilled, idf)
    grads = score_gradients(params, config, cache, 1.0)
    return check_flat(value, [group.value for group in params], [grads[name] for name in names])


def check_pipeline_gradients(config: PacrrConfig, seed: int = 0) -> GradCheckResult:
    """`check_pipeline` at random parameters, similarities and IDF."""
    rng = np.random.default_rng(seed)
    params = init_params(config)
    for group in params:
        group.value = rng.uniform(-0.5, 0.5, group.value.shape)
    query_len = min(3, config.l_q)
    sim = rng.uniform(-1.0, 1.0, (query_len, config.l_d + 5))
    distilled = distill(sim, config.mode, config.l_d, config.l_g)
    return check_pipeline(params, config, distilled, rng.uniform(0.5, 3.0, query_len))


def densify(shape: tuple[int, ...], sparse) -> np.ndarray:
    """The dense gradient of `shape` that a pooling backward gives as
    (index..., values), its last index running over the remaining axes."""
    *index, values = sparse
    dense = np.zeros(shape).reshape(*shape[: len(index) - 1], -1)
    dense[tuple(index)] = values
    return dense.reshape(shape)


# Each op check draws its inputs from the shared generator, calls the
# functions the pipeline calls, and returns `check_flat`'s arguments.

def _conv2d(rng):
    # Kernels and bias of a strided same-padded layer, which is linear in
    # them (its input is never trained, so it has no input gradient, and it
    # is rectified after the filter max).
    x = rng.uniform(-1.0, 1.0, (4, 9))
    kernels = rng.uniform(-0.8, 0.8, (3, 2, 2))
    bias = rng.uniform(-0.2, 0.2, 3)
    d_out = rng.uniform(-1.0, 1.0, (3, 4, 5))
    _, cache = neural.conv2d(x, kernels, bias, stride=2)
    d_cells = d_out.reshape(3, -1)
    filters, cells = np.nonzero(d_cells)
    grads = neural.conv2d_backward((filters, cells, d_cells[filters, cells]), cache, kernels)
    return (lambda k, b: (float(np.sum(neural.conv2d(x, k, b, stride=2)[0] * d_out)), b""),
            (kernels, bias), grads)


def _max_over_filters(rng):
    # The filter max and its rectifier, routed at every cell as if k-max
    # kept whole rows; about one cell in eight has no positive filter.
    x = rng.uniform(-1.0, 1.0, (3, 4, 5))
    d_out = rng.uniform(-1.0, 1.0, (4, 5))
    d_every = (*np.divmod(np.arange(d_out.size), d_out.shape[1]), d_out.ravel())

    def value(v):
        out = neural.max_over_filters(v)
        return float(np.sum(out * d_out)), (
            neural.max_over_filters_backward(d_every, v)[0].tobytes(), (out > 0.0).tobytes())

    return value, (x,), (densify(x.shape, neural.max_over_filters_backward(d_every, x)),)


def _kmax_per_row(rng):
    x = rng.uniform(-1.0, 1.0, (4, 7))
    d_out = rng.uniform(-1.0, 1.0, (4, 3))

    def value(v):
        out, src = neural.kmax_per_row(v, 3)
        return float(np.sum(out * d_out)), src.tobytes()

    src = neural.kmax_per_row(x, 3)[1]
    return value, (x,), (densify(x.shape, neural.kmax_per_row_backward(d_out, src)),)


def _softmax(rng):
    s = rng.uniform(-2.0, 2.0, 5)
    d_out = rng.uniform(-1.0, 1.0, 5)
    return (lambda v: (float(np.dot(neural.softmax(v), d_out)), b""), (s,),
            (neural.softmax_backward(d_out, neural.softmax(s)),))


def _recurrent_sequence(rng):
    # The inputs and all parameters.
    xs = rng.uniform(-1.0, 1.0, (3, 5))
    w = rng.uniform(-0.7, 0.7, (4, 5))
    u = rng.uniform(-0.7, 0.7, 4)
    b = rng.uniform(-0.3, 0.3, 4)
    _, cache = neural.recurrent_sequence(xs, w, u, b)
    return (lambda *args: (neural.recurrent_sequence(*args)[0], b""), (xs, w, u, b),
            neural.recurrent_backward(1.0, cache, w, u))


def _hinge_loss(rng):
    pair = np.array([0.2, 0.5])
    return (lambda p: (neural.hinge_loss(p[0], p[1]), (1.0 - p[0] + p[1] > 0.0,)), (pair,),
            (np.array(neural.hinge_gradients(*pair)),))


OP_CHECKS = {"conv2d": _conv2d, "max_over_filters": _max_over_filters,
             "kmax_per_row": _kmax_per_row, "softmax": _softmax,
             "recurrent_sequence": _recurrent_sequence, "hinge_loss": _hinge_loss}


def check_op_gradients(seed: int = 0) -> dict[str, GradCheckResult]:
    """Finite-difference checks of every differentiable primitive, in
    `OP_CHECKS` order, all drawing from one generator."""
    rng = np.random.default_rng(seed)
    return {name: check_flat(*make(rng)) for name, make in OP_CHECKS.items()}


def gradcheck_report(seed: int = 0) -> dict[str, GradCheckResult]:
    """Every primitive plus the full pipeline in both distillation modes, at
    the TINY_CONFIG_KWARGS shape."""
    results = check_op_gradients(seed=seed)
    for mode in MODES:
        config = PacrrConfig(mode=mode, seed=seed, **TINY_CONFIG_KWARGS)
        results[f"pipeline_{mode}"] = check_pipeline_gradients(config, seed=seed)
    return results
