"""The relevance-scoring pipeline and its trainable parameters.

A distilled query_len x l_d input (one row per real query term, at most
l_q of them) is scored as:

    per n in 2..l_g: conv2d (n x n kernels) -> rectified max over filters
    k-max per query row (n_s strongest signals) on each result and on the
    unigram matrix, reading only n_s columns of the zero tail that distill
    pads a short document with; per real query term the l_g x n_s signal
    block is flattened, the softmax-normalized IDF is appended, and the
    sequence of term vectors is folded by a single-unit gated recurrence
    into rel(q, d).
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import struct
import zlib
from collections import defaultdict
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import neural
from .corpus import EmbeddingTable, IdfTable, Query, TokenizedDocument, write_atomic
from .errors import CheckpointError
from .neural import ParamGroup
from .simmat import FIRSTK, KWINDOW, MODES, DistilledInput, build_sim_matrix, distill

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"PACRR1"


@dataclass(frozen=True)
class PacrrConfig:
    l_q: int = 16
    l_d: int = 768
    l_g: int = 3
    n_f: int = 32
    n_s: int = 2
    mode: str = FIRSTK
    learning_rate: float = 0.001
    seed: int = 42

    def __post_init__(self):
        for name in ("l_q", "l_d", "l_g", "n_f", "n_s", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")

    @property
    def rnn_input_dim(self) -> int:
        return self.l_g * self.n_s + 1

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class PacrrParams:
    """All trainable weights, insertion-ordered (checkpoint order)."""

    groups: dict[str, ParamGroup]

    def __getitem__(self, name: str) -> ParamGroup:
        return self.groups[name]

    def __iter__(self):
        return iter(self.groups.values())


def conv_sizes(config: PacrrConfig) -> range:
    return range(2, config.l_g + 1)


def param_shapes(config: PacrrConfig):
    """(name, shape) of every parameter group, in checkpoint order."""
    for n in conv_sizes(config):
        yield f"conv{n}_kernels", (config.n_f, n, n)
        yield f"conv{n}_bias", (config.n_f,)
    yield "rnn_w", (4, config.rnn_input_dim)
    yield "rnn_u", (4,)
    yield "rnn_b", (4,)


def init_params(config: PacrrConfig) -> PacrrParams:
    """Seed-determined float32 Glorot-uniform weights, zero biases.

    Convolution kernels use fan_in = fan_out = n*n; the recurrent input and
    recurrent weights are drawn jointly over the concatenated (x, h) input of
    size D+1 with a single output unit.
    """
    rng = np.random.default_rng(config.seed)
    groups: dict[str, ParamGroup] = {}
    for name, shape in param_shapes(config):
        if name.endswith("_kernels"):
            limit = math.sqrt(6.0 / (2 * shape[1] * shape[2]))
            value = rng.uniform(-limit, limit, shape)
        elif name == "rnn_w":
            limit = math.sqrt(6.0 / (shape[1] + 2))
            value, rnn_u = np.hsplit(rng.uniform(-limit, limit, (4, shape[1] + 1)), [shape[1]])
        elif name == "rnn_u":
            value = rnn_u[:, 0]
        else:
            value = np.zeros(shape)
        groups[name] = ParamGroup(name, value.astype(np.float32))
    return PacrrParams(groups)


# ---------------------------------------------------------------------------
# Forward / backward

@dataclass
class ScoreCache:
    conv_caches: dict[int, neural.Conv2dCache]
    kmax_srcs: dict[int, np.ndarray]  # per conv size n, the filter max's k-max sources
    rnn_cache: neural.RnnCache


def score(params: PacrrParams, config: PacrrConfig, distilled: DistilledInput,
          idf_vector) -> tuple[float, ScoreCache]:
    """Relevance of one (query, document) pair; returns (rel, cache)."""
    idf_vector = np.asarray(idf_vector, dtype=np.float64)
    if distilled.mode != config.mode:
        raise ValueError(f"distilled mode {distilled.mode!r} != config mode {config.mode!r}")
    per_n, widths = distilled.per_n, distilled.widths
    t_len = distilled.query_len
    if t_len < 1 or t_len > config.l_q:
        raise ValueError(f"query length {t_len} outside 1..{config.l_q}")
    shape = (t_len, config.l_d)
    if any(getattr(per_n.get(n), "shape", None) != shape for n in range(1, config.l_g + 1)):
        raise ValueError("distilled input does not match config dimensions")
    if idf_vector.shape != (t_len,):
        raise ValueError("idf vector length must equal the query length")

    # Per query term: the k-max signals of n-gram sizes 1..l_g, n_s columns
    # each, then the softmax-normalized IDF. The zero tail past a matrix's
    # written width holds equal values, of which k-max keeps the earliest,
    # so no pooling reads more than n_s columns of it.
    n_s = config.n_s
    xs = np.empty((t_len, config.rnn_input_dim), dtype=params["rnn_w"].value.dtype)
    conv_caches: dict[int, neural.Conv2dCache] = {}
    kmax_srcs: dict[int, np.ndarray] = {}
    xs[:, :n_s] = neural.kmax_per_row(per_n[1][:, : widths[1] + n_s], n_s)[0]
    for n in conv_sizes(config):
        conv_out, conv_caches[n] = neural.conv2d(
            per_n[n], params[f"conv{n}_kernels"].value, params[f"conv{n}_bias"].value,
            n if config.mode == KWINDOW else 1, widths[n], n_s)
        xs[:, (n - 1) * n_s : n * n_s], kmax_srcs[n] = neural.kmax_per_row(
            neural.max_over_filters(conv_out), n_s)
    xs[:, -1] = neural.softmax(idf_vector)

    rel, rnn_cache = neural.recurrent_sequence(
        xs, params["rnn_w"].value, params["rnn_u"].value, params["rnn_b"].value
    )
    return float(rel), ScoreCache(conv_caches, kmax_srcs, rnn_cache)


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
        d_pooled = neural.kmax_per_row_backward(d_km, cache.kmax_srcs[n])
        d_conv = neural.max_over_filters_backward(d_pooled, cache.conv_caches[n].out)
        grads[f"conv{n}_kernels"], grads[f"conv{n}_bias"] = neural.conv2d_backward(
            d_conv, cache.conv_caches[n], params[f"conv{n}_kernels"].value)
    return grads


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

def _entry(name: str, shape: tuple[int, ...]) -> bytes:
    """One tensor-table entry, as `save_params` writes it and `load_params` checks it."""
    encoded = name.encode("utf-8")
    return struct.pack(f"<Q{len(encoded)}sQ{len(shape)}QQ", len(encoded), encoded,
                       len(shape), *shape, 4 * math.prod(shape))


def save_params(params: PacrrParams, config: PacrrConfig, path) -> None:
    """Write a self-describing binary checkpoint (bit-exact across platforms)."""
    config_json = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    body = b"".join([CHECKPOINT_MAGIC, struct.pack("<Q", len(config_json)), config_json,
                     struct.pack("<Q", len(params.groups)),
                     *(_entry(g.name, g.value.shape) for g in params),
                     *(np.ascontiguousarray(g.value, dtype="<f4").tobytes() for g in params)])
    write_atomic(path, body + struct.pack("<I", zlib.crc32(body)))


def load_params(path) -> tuple[PacrrParams, PacrrConfig]:
    """Read a checkpoint; verifies magic, CRC-32, the config header, and that
    the tensor table is byte for byte the one `save_params` writes for it,
    encoding each entry only once the data it implies fits in the file."""
    raw = Path(path).read_bytes()
    if len(raw) < len(CHECKPOINT_MAGIC) + 4:
        raise CheckpointError(f"{path}: truncated checkpoint")
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"{path}: bad magic (not a PACRR1 checkpoint)")
    body = raw[:-4]
    if struct.pack("<I", zlib.crc32(body)) != raw[-4:]:
        raise CheckpointError(f"{path}: CRC mismatch, file is corrupt")

    start = len(CHECKPOINT_MAGIC) + 8
    table = start + int.from_bytes(body[start - 8 : start], "little")
    try:
        config = PacrrConfig(**json.loads(body[start:table].decode("utf-8")))
    except (ValueError, TypeError, RecursionError) as exc:
        raise CheckpointError(f"{path}: bad config header ({exc})") from exc
    mismatch = CheckpointError(f"{path}: tensors do not match its config's layout")
    layout, pos, nbytes = [], table + 8, 0
    for name, shape in param_shapes(config):
        nbytes += 4 * math.prod(shape)
        if pos + nbytes > len(body) or not body.startswith(entry := _entry(name, shape), pos):
            raise mismatch
        pos += len(entry)
        layout.append((name, shape))
    if body[table : table + 8] != struct.pack("<Q", len(layout)) or pos + nbytes != len(body):
        raise mismatch
    data = np.frombuffer(body, dtype="<f4", offset=pos)
    chunks = np.split(data, np.cumsum([math.prod(shape) for _, shape in layout])[:-1])
    return PacrrParams({name: ParamGroup(name, chunk.reshape(shape).astype(np.float32))
                        for (name, shape), chunk in zip(layout, chunks)}), config


# ---------------------------------------------------------------------------
# Batch scoring over a corpus

class Scorer:
    """Shared state for scoring many (query, document) pairs with one model.

    Each query and each document becomes model input here, and only here.
    A query is truncated to the model's l_q (the checkpoint's when scoring,
    the run config's when training) and given its token ids and IDF vector
    once, at construction; a document is given its token ids the first
    time it is read. A pair's distilled input is kept only when the pair is
    in `keep`, the (query id, doc id) pairs the caller will score again, so
    the cache never outgrows that set; every other pair is distilled each
    time it is scored and kept nowhere. Scoring is read-only over the
    parameters, so training may interleave updates with fresh scoring
    passes.
    """

    def __init__(self, config: PacrrConfig, params: PacrrParams,
                 queries, docs, embeddings: EmbeddingTable, idf: IdfTable,
                 keep=frozenset()):
        self.config = config
        self.params = params
        self.embeddings = embeddings
        self._token_ids = defaultdict(itertools.count(len(embeddings)).__next__,
                                      zip(embeddings.vectors, range(len(embeddings))))
        self.queries: dict[str, Query] = {}
        self._query_ids: dict[str, np.ndarray] = {}
        self._query_idf: dict[str, np.ndarray] = {}
        truncated: list[str] = []
        for q in queries:
            if len(q.tokens) > config.l_q:
                truncated.append(q.query_id)
            tokens = q.tokens[: config.l_q]
            self.queries[q.query_id] = Query(q.query_id, tokens)
            self._query_ids[q.query_id] = self.token_ids(tokens)
            self._query_idf[q.query_id] = np.array([idf.idf(t) for t in tokens],
                                                   dtype=np.float64)
        if truncated:
            logger.warning("truncated %d queries to l_q=%d tokens: %s",
                           len(truncated), config.l_q, " ".join(truncated))
        self.docs: dict[str, TokenizedDocument] = {d.doc_id: d for d in docs}
        self._doc_ids: dict[str, np.ndarray] = {}
        self._keep = frozenset(keep)
        self._distilled: dict[tuple[str, str], DistilledInput] = {}

    def token_ids(self, tokens) -> np.ndarray:
        """Each token's id: its row of `embeddings.units` when it has a
        vector; otherwise the next unused id past those rows, given in
        first-seen order by the id table's `defaultdict`, whose factory
        draws from a counter, so the lookup runs at C level."""
        return np.fromiter(map(self._token_ids.__getitem__, tokens), dtype=np.intp,
                           count=len(tokens))

    def distilled(self, query_id: str, doc_id: str) -> DistilledInput:
        key = (query_id, doc_id)
        cached = self._distilled.get(key)
        if cached is None:
            d_ids = self._doc_ids.get(doc_id)
            if d_ids is None:
                d_ids = self._doc_ids[doc_id] = self.token_ids(self.docs[doc_id].tokens)
            sim = build_sim_matrix(self._query_ids[query_id], d_ids, self.embeddings.units)
            cached = distill(sim, self.config.mode, self.config.l_d, self.config.l_g)
            if key in self._keep:
                self._distilled[key] = cached
        return cached

    def score_with_cache(self, query_id: str, doc_id: str) -> tuple[float, ScoreCache]:
        return score(self.params, self.config, self.distilled(query_id, doc_id),
                     self._query_idf[query_id])

    def score_docs(self, query_id: str, doc_ids) -> tuple[dict[str, float], list[str]]:
        """Scores for the given documents; unknown doc ids are skipped and
        returned separately."""
        scores: dict[str, float] = {}
        missing: list[str] = []
        for did in doc_ids:
            if did in self.docs:
                scores[did] = self.score_with_cache(query_id, did)[0]
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
