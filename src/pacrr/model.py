"""The relevance-scoring pipeline and its trainable parameters.

A distilled query_len x l_d input (one row per real query term, at most
l_q of them) is scored as:

    per n in 2..l_g: conv2d (n x n kernels, rectified) -> max over filters
    k-max per query row (n_s strongest signals) on each result and on the
    unigram matrix; per real query term the l_g x n_s signal block is
    flattened, the softmax-normalized IDF is appended, and the sequence of
    term vectors is folded by a single-unit gated recurrence into rel(q, d).
"""

from __future__ import annotations

import json
import logging
import math
import os
import struct
import zlib
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import neural
from .corpus import EmbeddingTable, IdfTable, Query, TokenizedDocument
from .errors import CheckpointError
from .neural import ParamGroup
from .simmat import (FIRSTK, KWINDOW, MODES, DistilledInput, SimilarityMatrix,
                     build_sim_matrix, distill)

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"PACRR1"

# Hyper-parameter grid defaults.
L_D_GRID = (256, 384, 512, 640, 768)
N_S_GRID = (1, 2, 3, 4)
L_G_GRID = (2, 3, 4)
N_F_DEFAULT = 32
FIRSTK_L_D = 768


@dataclass(frozen=True)
class PacrrConfig:
    l_q: int
    l_d: int
    l_g: int = 3
    n_f: int = N_F_DEFAULT
    n_s: int = 2
    mode: str = FIRSTK
    learning_rate: float = 0.001
    seed: int = 42

    def __post_init__(self):
        if self.l_q < 1:
            raise ValueError("l_q must be >= 1")
        if self.l_g < 2:
            raise ValueError("l_g must be >= 2")
        if self.n_s < 1 or self.n_f < 1:
            raise ValueError("n_s and n_f must be >= 1")
        if self.l_d < self.l_g:
            raise ValueError("l_d must be >= l_g")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")

    @property
    def rnn_input_dim(self) -> int:
        return self.l_g * self.n_s + 1

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "PacrrConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)


@dataclass
class PacrrParams:
    """All trainable weights, insertion-ordered (checkpoint order)."""

    groups: dict[str, ParamGroup]

    def __getitem__(self, name: str) -> ParamGroup:
        return self.groups[name]

    def __iter__(self):
        return iter(self.groups.values())

    def accumulate(self, grads: dict[str, np.ndarray]) -> None:
        for name, grad in grads.items():
            self.groups[name].grad += grad

    def zero_grads(self) -> None:
        for group in self:
            group.grad[...] = 0.0


def conv_sizes(config: PacrrConfig) -> range:
    return range(2, config.l_g + 1)


def init_params(config: PacrrConfig, dtype=np.float32) -> PacrrParams:
    """Seed-determined Glorot-uniform weights, zero biases.

    Convolution kernels use fan_in = fan_out = n*n; the recurrent input and
    recurrent weights are drawn jointly over the concatenated (x, h) input of
    size D+1 with a single output unit.
    """
    rng = np.random.default_rng(config.seed)
    groups: dict[str, ParamGroup] = {}

    def add(name, value):
        groups[name] = ParamGroup.create(name, value.astype(dtype))

    for n in conv_sizes(config):
        limit = math.sqrt(6.0 / (n * n + n * n))
        add(f"conv{n}_kernels", rng.uniform(-limit, limit, (config.n_f, n, n)))
        add(f"conv{n}_bias", np.zeros(config.n_f))
    d = config.rnn_input_dim
    limit = math.sqrt(6.0 / (d + 2))
    wu = rng.uniform(-limit, limit, (4, d + 1))
    add("rnn_w", wu[:, :d])
    add("rnn_u", wu[:, d])
    add("rnn_b", np.zeros(4))
    return PacrrParams(groups)


def param_count(config: PacrrConfig) -> int:
    total = sum(config.n_f * n * n + config.n_f for n in conv_sizes(config))
    # per gate: D input weights, one recurrent weight, one bias
    return total + 4 * (config.rnn_input_dim + 2)


def default_grid(mode: str, l_q: int, *, learning_rate: float = 0.001,
                 seed: int = 42) -> list[PacrrConfig]:
    """The hyper-parameter grid; firstk pins l_d to its maximum value."""
    l_ds = (FIRSTK_L_D,) if mode == FIRSTK else L_D_GRID
    return [
        PacrrConfig(l_q=l_q, l_d=l_d, l_g=l_g, n_f=N_F_DEFAULT, n_s=n_s, mode=mode,
                    learning_rate=learning_rate, seed=seed)
        for l_d in l_ds
        for n_s in N_S_GRID
        for l_g in L_G_GRID
    ]


# ---------------------------------------------------------------------------
# Forward / backward

@dataclass
class ScoreCache:
    conv_caches: dict[int, neural.Conv2dCache]
    filter_args: dict[int, np.ndarray]
    kmax_srcs: dict[int, np.ndarray]  # key 1 = unigram matrix
    kmax_widths: dict[int, int]
    idf_norm: np.ndarray
    rnn_cache: neural.RnnCache


def score(params: PacrrParams, config: PacrrConfig, distilled: DistilledInput,
          idf_vector) -> tuple[float, ScoreCache]:
    """Relevance of one (query, document) pair; returns (rel, cache)."""
    idf_vector = np.asarray(idf_vector, dtype=np.float64)
    if distilled.mode != config.mode:
        raise ValueError(f"distilled mode {distilled.mode!r} != config mode {config.mode!r}")
    t_len = distilled.query_len
    if t_len < 1 or t_len > config.l_q:
        raise ValueError(f"query length {t_len} outside 1..{config.l_q}")
    if any(getattr(distilled.per_n.get(n), "shape", None) != (t_len, config.l_d)
           for n in range(1, config.l_g + 1)):
        raise ValueError("distilled input does not match config dimensions")
    if idf_vector.shape != (t_len,):
        raise ValueError("idf vector length must equal the query length")
    dtype = params["rnn_w"].value.dtype

    conv_caches: dict[int, neural.Conv2dCache] = {}
    filter_args: dict[int, np.ndarray] = {}
    kmax_srcs: dict[int, np.ndarray] = {}
    kmax_widths: dict[int, int] = {}
    signals: dict[int, np.ndarray] = {}

    km1, src1 = neural.kmax_per_row(distilled.per_n[1], config.n_s)
    signals[1] = km1
    kmax_srcs[1] = src1
    kmax_widths[1] = config.l_d

    for n in conv_sizes(config):
        stride = (1, n) if config.mode == KWINDOW else (1, 1)
        conv_out, ccache = neural.conv2d(
            distilled.per_n[n],
            params[f"conv{n}_kernels"].value,
            params[f"conv{n}_bias"].value,
            stride,
        )
        pooled, arg = neural.max_over_filters(conv_out)
        km, src = neural.kmax_per_row(pooled, config.n_s)
        conv_caches[n] = ccache
        filter_args[n] = arg
        kmax_srcs[n] = src
        kmax_widths[n] = pooled.shape[1]
        signals[n] = km

    # salient signals per query term: rows are n-gram sizes 1..l_g
    salient = np.stack([signals[n] for n in range(1, config.l_g + 1)], axis=1)
    idf_norm = neural.softmax(idf_vector)
    d = config.rnn_input_dim
    xs = np.empty((t_len, d), dtype=dtype)
    xs[:, : d - 1] = salient.reshape(t_len, config.l_g * config.n_s)
    xs[:, d - 1] = idf_norm

    rel, rnn_cache = neural.recurrent_sequence(
        xs, params["rnn_w"].value, params["rnn_u"].value, params["rnn_b"].value
    )
    cache = ScoreCache(
        conv_caches=conv_caches,
        filter_args=filter_args,
        kmax_srcs=kmax_srcs,
        kmax_widths=kmax_widths,
        idf_norm=idf_norm,
        rnn_cache=rnn_cache,
    )
    return float(rel), cache


def score_gradients(params: PacrrParams, config: PacrrConfig, cache: ScoreCache,
                    d_rel: float) -> dict[str, np.ndarray]:
    """Analytic gradients of d_rel * rel for every parameter group."""
    d_xs, d_w, d_u, d_b = neural.recurrent_backward(
        d_rel, cache.rnn_cache, params["rnn_w"].value, params["rnn_u"].value
    )
    grads = {"rnn_w": d_w, "rnn_u": d_u, "rnn_b": d_b}

    n_s = config.n_s
    for n in conv_sizes(config):
        d_km = d_xs[:, (n - 1) * n_s : n * n_s]
        d_pooled = neural.kmax_per_row_backward(d_km, cache.kmax_srcs[n], cache.kmax_widths[n])
        d_conv = neural.max_over_filters_backward(d_pooled, cache.filter_args[n], config.n_f)
        d_kernels, d_bias = neural.conv2d_backward(
            d_conv, cache.conv_caches[n], params[f"conv{n}_kernels"].value
        )
        grads[f"conv{n}_kernels"] = d_kernels
        grads[f"conv{n}_bias"] = d_bias
    return grads


def pipeline_signature(cache: ScoreCache) -> tuple:
    """Hashable record of every max selection and rectifier state; two runs
    with equal signatures lie on the same smooth piece of the pipeline."""
    parts = [cache.conv_caches[n].mask.tobytes() for n in sorted(cache.conv_caches)]
    parts += [cache.filter_args[n].tobytes() for n in sorted(cache.filter_args)]
    parts += [cache.kmax_srcs[n].tobytes() for n in sorted(cache.kmax_srcs)]
    return tuple(parts)


# ---------------------------------------------------------------------------
# Checkpoint container
#
# Layout (all integers little-endian):
#   magic "PACRR1"
#   u64 config length | config JSON (UTF-8, sorted keys)
#   u64 tensor count
#   per tensor: u64 name length | name UTF-8 | u64 ndim | u64 dims... |
#               u64 data length in bytes
#   per tensor: raw float32 little-endian values
#   u32 CRC-32 of everything above

def save_params(params: PacrrParams, config: PacrrConfig, path) -> None:
    """Write a self-describing binary checkpoint (bit-exact across platforms)."""
    chunks = [CHECKPOINT_MAGIC]
    config_json = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    chunks.append(struct.pack("<Q", len(config_json)))
    chunks.append(config_json)
    groups = list(params)
    chunks.append(struct.pack("<Q", len(groups)))
    blobs = []
    for group in groups:
        name = group.name.encode("utf-8")
        data = np.ascontiguousarray(group.value, dtype="<f4").tobytes()
        chunks.append(struct.pack("<Q", len(name)))
        chunks.append(name)
        chunks.append(struct.pack("<Q", group.value.ndim))
        chunks.append(struct.pack(f"<{group.value.ndim}Q", *group.value.shape))
        chunks.append(struct.pack("<Q", len(data)))
        blobs.append(data)
    chunks.extend(blobs)
    body = b"".join(chunks)
    write_atomic(path, body + struct.pack("<I", zlib.crc32(body)))


def write_atomic(path, data: bytes) -> None:
    """Write through a temp file in the same directory and `os.replace`, so
    the path holds either its old bytes or all of the new ones."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_params(path) -> tuple[PacrrParams, PacrrConfig]:
    """Read a checkpoint; verifies magic, structure, and the trailing CRC-32."""
    raw = Path(path).read_bytes()
    if len(raw) < len(CHECKPOINT_MAGIC) + 4:
        raise CheckpointError(f"{path}: truncated checkpoint")
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"{path}: bad magic (not a PACRR1 checkpoint)")
    body, crc_bytes = raw[:-4], raw[-4:]
    if zlib.crc32(body) != struct.unpack("<I", crc_bytes)[0]:
        raise CheckpointError(f"{path}: CRC mismatch, file is corrupt")

    pos = len(CHECKPOINT_MAGIC)

    def take(count):
        nonlocal pos
        if pos + count > len(body):
            raise CheckpointError(f"{path}: truncated checkpoint")
        piece = body[pos : pos + count]
        pos += count
        return piece

    def take_u64():
        return struct.unpack("<Q", take(8))[0]

    try:
        config = PacrrConfig.from_dict(json.loads(take(take_u64()).decode("utf-8")))
    except (ValueError, TypeError) as exc:
        raise CheckpointError(f"{path}: bad config header ({exc})") from exc
    headers = []
    for _ in range(take_u64()):
        name = take(take_u64()).decode("utf-8")
        dims = tuple(take_u64() for _ in range(take_u64()))
        headers.append((name, dims, take_u64()))
    groups: dict[str, ParamGroup] = {}
    for name, dims, nbytes in headers:
        expected = int(np.prod(dims, dtype=np.int64)) * 4
        if nbytes != expected:
            raise CheckpointError(f"{path}: tensor {name!r} length mismatch")
        value = np.frombuffer(take(nbytes), dtype="<f4").reshape(dims)
        groups[name] = ParamGroup.create(name, value.astype(np.float32))
    if pos != len(body):
        raise CheckpointError(f"{path}: trailing bytes after tensor data")
    return PacrrParams(groups), config


# ---------------------------------------------------------------------------
# Batch scoring over a corpus

class Scorer:
    """Shared state for scoring many (query, document) pairs with one model.

    Queries are truncated here, and only here, to the model's l_q: the
    checkpoint's when scoring, the run config's when training. Distilled
    inputs and per-query IDF vectors are cached; scoring is read-only over
    the parameters, so training may interleave updates with fresh scoring
    passes.
    """

    def __init__(self, config: PacrrConfig, params: PacrrParams,
                 queries, docs, embeddings: EmbeddingTable, idf: IdfTable):
        self.config = config
        self.params = params
        self.embeddings = embeddings
        self.idf = idf
        self.queries: dict[str, Query] = {}
        truncated: list[str] = []
        for q in queries:
            if len(q.tokens) > config.l_q:
                truncated.append(q.query_id)
            self.queries[q.query_id] = Query(q.query_id, q.tokens[: config.l_q])
        if truncated:
            logger.warning("truncated %d queries to l_q=%d tokens: %s",
                           len(truncated), config.l_q, " ".join(truncated))
        self.docs: dict[str, TokenizedDocument] = {d.doc_id: d for d in docs}
        self._distilled: dict[tuple[str, str], DistilledInput] = {}
        self._idf_vecs: dict[str, np.ndarray] = {}

    def idf_vector(self, query_id: str) -> np.ndarray:
        vec = self._idf_vecs.get(query_id)
        if vec is None:
            query = self.queries[query_id]
            vec = np.array([self.idf.idf(t) for t in query.tokens], dtype=np.float64)
            self._idf_vecs[query_id] = vec
        return vec

    def distilled(self, query_id: str, doc_id: str) -> DistilledInput:
        key = (query_id, doc_id)
        cached = self._distilled.get(key)
        if cached is None:
            sim = build_sim_matrix(self.queries[query_id], self.docs[doc_id], self.embeddings)
            cached = distill(sim, self.config.mode, self.config.l_d, self.config.l_g)
            self._distilled[key] = cached
        return cached

    def score_with_cache(self, query_id: str, doc_id: str) -> tuple[float, ScoreCache]:
        return score(self.params, self.config, self.distilled(query_id, doc_id),
                     self.idf_vector(query_id))

    def score(self, query_id: str, doc_id: str) -> float:
        return self.score_with_cache(query_id, doc_id)[0]

    def score_docs(self, query_id: str, doc_ids) -> tuple[dict[str, float], list[str]]:
        """Scores for the given documents; unknown doc ids are skipped and
        returned separately."""
        scores: dict[str, float] = {}
        missing: list[str] = []
        for did in doc_ids:
            if did in self.docs:
                scores[did] = self.score(query_id, did)
            else:
                missing.append(did)
        return scores, missing

    def score_runs(self, doc_ids_by_query) -> dict[str, dict[str, float]]:
        """{query id: {doc id: score}} for the given documents of each query.

        Query ids not in the query file and documents not in the corpus are
        skipped, with one warning that counts both.
        """
        scores: dict[str, dict[str, float]] = {}
        unknown = 0
        missing = 0
        for qid in sorted(doc_ids_by_query):
            if qid not in self.queries:
                unknown += 1
                continue
            scores[qid], absent = self.score_docs(qid, doc_ids_by_query[qid])
            missing += len(absent)
        if unknown or missing:
            logger.warning("skipped %d query ids not in the query file and %d "
                           "documents not in the corpus", unknown, missing)
        return scores


# ---------------------------------------------------------------------------
# Gradient-check suite

TINY_CONFIG_KWARGS = dict(l_q=4, l_d=12, l_g=3, n_f=4, n_s=2)


def _pack(groups: list[ParamGroup]) -> np.ndarray:
    return np.concatenate([g.value.ravel().astype(np.float64) for g in groups])


def _unpack_into(groups: list[ParamGroup], flat: np.ndarray) -> None:
    pos = 0
    for g in groups:
        size = g.value.size
        g.value = flat[pos : pos + size].reshape(g.value.shape).astype(np.float64)
        pos += size


def check_pipeline_gradients(config: PacrrConfig, seed: int = 0,
                             h: float = 1e-5) -> neural.GradCheckResult:
    """Finite-difference check of d rel / d theta through the whole pipeline."""
    rng = np.random.default_rng(seed)
    params = init_params(config, dtype=np.float64)
    for group in params:
        group.value = rng.uniform(-0.5, 0.5, group.value.shape)
    query_len = min(3, config.l_q)
    doc_len = config.l_d + 5
    sim = SimilarityMatrix("q", "d", rng.uniform(-1.0, 1.0, (query_len, doc_len)))
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
    result = neural.gradient_check(f, x0, analytic, h=h)
    _unpack_into(groups, x0)
    return result


def check_op_gradients(seed: int = 0, h: float = 1e-5) -> dict[str, neural.GradCheckResult]:
    """Finite-difference checks for every differentiable primitive."""
    rng = np.random.default_rng(seed)
    results: dict[str, neural.GradCheckResult] = {}

    # conv2d: kernels and bias of a strided same-padded layer (its input is
    # never trained, so it has no input gradient).
    x = rng.uniform(-1.0, 1.0, (4, 9))
    kernels = rng.uniform(-0.8, 0.8, (3, 2, 2))
    bias = rng.uniform(-0.2, 0.2, 3)
    d_out = rng.uniform(-1.0, 1.0, (3, 4, 5))

    def conv_f(flat):
        ks = flat[: kernels.size].reshape(kernels.shape)
        out, cache = neural.conv2d(x, ks, flat[kernels.size :], stride=(1, 2))
        return float(np.sum(out * d_out)), cache.mask.tobytes()

    out, cache = neural.conv2d(x, kernels, bias, stride=(1, 2))
    d_k, d_b = neural.conv2d_backward(d_out, cache, kernels)
    flat0 = np.concatenate([kernels.ravel(), bias])
    analytic = np.concatenate([d_k.ravel(), d_b])
    results["conv2d"] = neural.gradient_check(conv_f, flat0, analytic, h=h)

    # max_over_filters
    mx = rng.uniform(-1.0, 1.0, (3, 4, 5))
    d_mo = rng.uniform(-1.0, 1.0, (4, 5))

    def mof_f(flat):
        out, arg = neural.max_over_filters(flat.reshape(mx.shape))
        return float(np.sum(out * d_mo)), arg.tobytes()

    out, arg = neural.max_over_filters(mx)
    analytic = neural.max_over_filters_backward(d_mo, arg, mx.shape[0]).ravel()
    results["max_over_filters"] = neural.gradient_check(mof_f, mx.ravel(), analytic, h=h)

    # kmax_per_row
    kx = rng.uniform(-1.0, 1.0, (4, 7))
    d_km = rng.uniform(-1.0, 1.0, (4, 3))

    def kmax_f(flat):
        out, src = neural.kmax_per_row(flat.reshape(kx.shape), 3)
        return float(np.sum(out * d_km)), src.tobytes()

    out, src = neural.kmax_per_row(kx, 3)
    analytic = neural.kmax_per_row_backward(d_km, src, kx.shape[1]).ravel()
    results["kmax_per_row"] = neural.gradient_check(kmax_f, kx.ravel(), analytic, h=h)

    # softmax
    sv = rng.uniform(-2.0, 2.0, 5)
    d_sm = rng.uniform(-1.0, 1.0, 5)

    def softmax_f(flat):
        return float(np.dot(neural.softmax(flat), d_sm)), b""

    analytic = neural.softmax_backward(d_sm, neural.softmax(sv))
    results["softmax"] = neural.gradient_check(softmax_f, sv, analytic, h=h)

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
    results["recurrent_sequence"] = neural.gradient_check(rnn_f, flat0, analytic, h=h)

    # hinge_loss
    pair = np.array([0.2, 0.5])

    def hinge_f(flat):
        loss = neural.hinge_loss(flat[0], flat[1])
        return loss, (1.0 - flat[0] + flat[1] > 0.0,)

    analytic = np.array(neural.hinge_gradients(*pair))
    results["hinge_loss"] = neural.gradient_check(hinge_f, pair, analytic, h=h)

    return results


def gradcheck_report(seed: int = 0, h: float = 1e-5,
                     config_kwargs: dict | None = None) -> dict[str, neural.GradCheckResult]:
    """Every primitive plus the full pipeline in both distillation modes."""
    kwargs = dict(TINY_CONFIG_KWARGS if config_kwargs is None else config_kwargs)
    results = check_op_gradients(seed=seed, h=h)
    for mode in MODES:
        config = PacrrConfig(mode=mode, seed=seed, **kwargs)
        results[f"pipeline_{mode}"] = check_pipeline_gradients(config, seed=seed, h=h)
    return results
