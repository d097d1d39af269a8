"""Independent reference implementations used as test oracles.

The oracles are written with plain Python loops, deliberately sharing no code
with the library paths they check. The dense references at the end do the
full work that an optimised library path skips (padding rows, dead cells,
the zero tail of a short document, a rectifier per filter, repeated
normalisation), so a test can require equal results. The last
helpers build crafted checkpoints and run a snippet in a child process whose
memory and time are bounded.
"""

import itertools
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np

from pacrr import neural
from pacrr.errors import DataError
from pacrr.model import init_params, save_params
from pacrr.training import Triple


def kmax_oracle(row, k):
    """k largest values of a row, descending, ties by earlier position,
    zero-padded to length k."""
    order = sorted(range(len(row)), key=lambda j: (-row[j], j))[:k]
    values = [row[j] for j in order]
    return values + [0.0] * (k - len(values))


def kwindow_oracle(values, n, l_q, l_d):
    """Exhaustive disjoint-window enumeration for the kwindow distillation."""
    rows = len(values)
    cols = len(values[0]) if rows else 0
    num_windows = math.ceil(cols / n)
    scores = []
    for w in range(num_windows):
        total = 0.0
        for j in range(w * n, w * n + n):
            if j < cols:
                total += max(values[i][j] for i in range(rows))
        scores.append(total / n)
    k = l_d // n
    chosen = sorted(range(num_windows), key=lambda w: (-scores[w], w))[:k]
    chosen.sort()
    out = [[0.0] * l_d for _ in range(l_q)]
    col = 0
    for w in chosen:
        for j in range(w * n, w * n + n):
            for i in range(rows):
                out[i][col] = values[i][j] if j < cols else 0.0
            col += 1
    return np.array(out, dtype=np.float64)


def kwindow_reference(sim, n, l_d):
    """The float32 kwindow matrix for window length n, from a full stable
    argsort of the window scores (ties keep the earlier window) and a sort
    of the kept windows into document order."""
    rows, cols = sim.shape
    n_windows = -(-cols // n)
    col_max = np.zeros(n_windows * n, dtype=np.float64)
    col_max[:cols] = sim.max(axis=0)
    scores = col_max.reshape(n_windows, n).mean(axis=1)
    selected = np.sort(np.argsort(-scores, kind="stable")[: l_d // n])
    columns = (selected[:, None] * n + np.arange(n)).ravel()
    padded = np.zeros((rows, n_windows * n), dtype=np.float32)
    padded[:, :cols] = sim
    out = np.zeros((rows, l_d), dtype=np.float32)
    out[:, : len(columns)] = padded.take(columns, axis=1)
    return out


def err_oracle(grades, k, g_max):
    """Direct transcription of the cascade formula."""
    total = 0.0
    for r in range(1, min(k, len(grades)) + 1):
        g = max(grades[r - 1], 0)
        rel = (2.0 ** g - 1.0) / 2.0 ** g_max
        stop = 1.0
        for i in range(1, r):
            gi = max(grades[i - 1], 0)
            stop *= 1.0 - (2.0 ** gi - 1.0) / 2.0 ** g_max
        total += rel * stop / r
    return total


def kmax_reference(x, k):
    """Per row of x, the k largest values sorted descending and their source
    columns, from a full stable argsort (ties keep the earlier column); rows
    shorter than k are zero-padded with source column -1."""
    rows, width = x.shape
    m = min(width, k)
    out = np.zeros((rows, k), dtype=x.dtype)
    src = np.full((rows, k), -1, dtype=np.int64)
    order = np.argsort(-x, axis=1, kind="stable")[:, :m]
    out[:, :m] = np.take_along_axis(x, order, axis=1)
    src[:, :m] = order
    return out, src


def pooling_routes_reference(d_km, src, x):
    """The gradient routes below k-max and the rectified filter-max, by
    loops: for each k-max output (row r, slot j) whose source column
    c = src[r, j] is not padding (-1) and whose gradient d_km[r, j] is not
    zero, the first filter f of x (n_f, H, W) whose value at (r, c) equals
    the max over filters there, or filter 0 when that max is not positive;
    the flat cell r * W + c; and d_km[r, j], or a zero when that max is not
    positive. Returned as three lists in row, then slot order."""
    n_f, _, width = x.shape
    filters, cells, values = [], [], []
    for r, row in enumerate(src.tolist()):
        for j, c in enumerate(row):
            if c < 0 or d_km[r, j] == 0.0:
                continue
            column = [x[f, r, c] for f in range(n_f)]
            live = max(column) > 0.0
            filters.append(column.index(max(column)) if live else 0)
            cells.append(r * width + c)
            values.append(float(d_km[r, j]) if live else 0.0)
    return [filters, cells, values]


def conv_oracle(x, kernels, bias, stride):
    """Same-padded cross-correlation of x (H, W) with the n_f n x n kernels,
    not rectified, from an explicitly padded copy of x and patches unfolded
    by loops: returns (out, cols) with out (n_f, out_h, out_w) and cols the
    (cells, n*n) patches, cell = row * out_w + column. The extra zero of an
    odd padding goes after the data."""
    H, W = x.shape
    n_f, n, _ = kernels.shape
    s_q, s_d = stride
    out_h, out_w = math.ceil(H / s_q), math.ceil(W / s_d)
    pad_h = max((out_h - 1) * s_q + n - H, 0)
    pad_w = max((out_w - 1) * s_d + n - W, 0)
    padded = np.zeros((H + pad_h, W + pad_w), dtype=x.dtype)
    padded[pad_h // 2 : pad_h // 2 + H, pad_w // 2 : pad_w // 2 + W] = x
    cols = np.array([[padded[r * s_q + a, c * s_d + b] for a in range(n) for b in range(n)]
                     for r in range(out_h) for c in range(out_w)], dtype=x.dtype)
    pre = kernels.reshape(n_f, n * n) @ np.ascontiguousarray(cols.T) + bias[:, None]
    return pre.reshape(n_f, out_h, out_w), cols


def dense_conv_param_grads(d_out, cols, mask):
    """Kernel and bias gradients of a rectified conv summed over every output
    cell: d_pre.T @ cols with d_pre = d_out (as cells x filters) * mask."""
    n_f = d_out.shape[0]
    d_pre = d_out.reshape(n_f, -1).T * mask
    return (d_pre.T @ cols).reshape(n_f, -1), d_pre.sum(axis=0)


def all_rows_score(params, config, distilled, idf_vector):
    """rel and the parameter gradients of rel for the PACRR pipeline run over
    all l_q rows, the distilled real rows zero-padded to l_q, with its own
    convolution (`conv_oracle`, rectified per filter) and pooling (a dense
    filter argmax at every cell, `kmax_reference`), the pooling routes undone
    by loops and dense conv gradient sums."""
    dtype = params["rnn_w"].value.dtype
    t_len, n_s = distilled.query_len, config.n_s

    def padded(n):
        out = np.zeros((config.l_q, config.l_d), dtype=dtype)
        out[:t_len] = distilled.per_n[n]
        return out

    signals = [kmax_reference(padded(1), n_s)[0]]
    routes = []
    for n in range(2, config.l_g + 1):
        stride = (1, n) if config.mode == "kwindow" else (1, 1)
        pre, cols = conv_oracle(padded(n), params[f"conv{n}_kernels"].value,
                                params[f"conv{n}_bias"].value, stride)
        active = (pre > 0.0).reshape(pre.shape[0], -1).T
        out = pre * (pre > 0.0)
        arg = np.argmax(out, axis=0)
        pooled = np.take_along_axis(out, arg[None], axis=0)[0]
        km, src = kmax_reference(pooled, n_s)
        signals.append(km)
        routes.append((n, out.shape, cols, active, arg, src))
    salient = np.stack(signals, axis=1)[:t_len].reshape(t_len, config.l_g * n_s)
    xs = np.column_stack([salient, neural.softmax(idf_vector)]).astype(dtype)
    w, u = params["rnn_w"].value, params["rnn_u"].value
    rel, rnn_cache = neural.recurrent_sequence(xs, w, u, params["rnn_b"].value)
    d_xs, d_w, d_u, d_b = neural.recurrent_backward(1.0, rnn_cache, w, u)
    grads = {"rnn_w": d_w, "rnn_u": d_u, "rnn_b": d_b}
    for n, shape, cols, active, arg, src in routes:
        d_conv = np.zeros(shape)
        for r in range(t_len):
            for j in range(n_s):
                c = src[r, j]
                if c >= 0:
                    d_conv[arg[r, c], r, c] += d_xs[r, (n - 1) * n_s + j]
        d_k, d_bias = dense_conv_param_grads(d_conv, cols, active)
        grads[f"conv{n}_kernels"] = d_k.reshape(params[f"conv{n}_kernels"].value.shape)
        grads[f"conv{n}_bias"] = d_bias
    return float(rel), grads


def conv2d_reference(x, kernels, bias, stride=1):
    """Rectified same-padded convolution over the whole width of x (H, W),
    as `neural.conv2d` computed it with the rectifier inside: the same
    im2col matmul with the bias as the last kernel column, rectified in
    place. Returns (out, cols), out (n_f, H, ceil(W/stride)) and cols the
    (cells, n*n) patches."""
    H, W = x.shape
    n_f, n, _ = kernels.shape
    out_w = -(-W // stride)
    pad_h, pad_w = n - 1, max((out_w - 1) * stride + n - W, 0)
    padded = np.zeros((H + pad_h, W + pad_w), dtype=x.dtype)
    padded[pad_h // 2 : pad_h // 2 + H, pad_w // 2 : pad_w // 2 + W] = x
    cols = np.empty((n * n + 1, H, out_w), dtype=x.dtype)
    for a in range(n):
        for b in range(n):
            cols[a * n + b] = padded[a:, b::stride][:H, :out_w]
    cols[n * n] = 1.0
    cols = cols.reshape(n * n + 1, H * out_w)
    out = (np.column_stack((kernels.reshape(n_f, n * n), bias)) @ cols).reshape(n_f, H, out_w)
    np.maximum(out, 0.0, out=out)
    return out, cols[: n * n].T


def score_reference(params, config, distilled, idf_vector):
    """rel and the parameter gradients of rel for one pair, computed the way
    `model.score` and `score_gradients` did with a rectifier per filter and
    no zero tail skipped: `conv2d_reference` over all l_d columns, the max
    of its rectified output, `kmax_reference` over whole rows, each k-max
    survivor routed to the first maximal filter of the rectified output,
    and conv gradients summed over the distinct cells with a nonzero
    gradient, in cell order, each masked by its rectifier state."""
    dtype = params["rnn_w"].value.dtype
    n_s = config.n_s
    t_len = distilled.query_len
    xs = np.empty((t_len, config.rnn_input_dim), dtype=dtype)
    xs[:, :n_s] = kmax_reference(distilled.per_n[1], n_s)[0]
    convs = {}
    for n in range(2, config.l_g + 1):
        stride = n if config.mode == "kwindow" else 1
        out, cols = conv2d_reference(distilled.per_n[n], params[f"conv{n}_kernels"].value,
                                     params[f"conv{n}_bias"].value, stride)
        xs[:, (n - 1) * n_s : n * n_s], src = kmax_reference(out.max(axis=0), n_s)
        convs[n] = out, cols, src
    xs[:, -1] = neural.softmax(np.asarray(idf_vector, dtype=np.float64))
    w, u = params["rnn_w"].value, params["rnn_u"].value
    rel, rnn_cache = neural.recurrent_sequence(xs, w, u, params["rnn_b"].value)
    d_xs, d_w, d_u, d_b = neural.recurrent_backward(1.0, rnn_cache, w, u)
    grads = {"rnn_w": d_w, "rnn_u": d_u, "rnn_b": d_b}
    for n, (out, cols, src) in convs.items():
        n_f, _, width = out.shape
        d_km = d_xs[:, (n - 1) * n_s : n * n_s]
        rows, kept = np.nonzero(src >= 0)
        r, c, values = rows, src[rows, kept], d_km[rows, kept]
        filters, cells = np.argmax(out[:, r, c], axis=0), r * width + c
        nonzero = values != 0.0
        filters, cells, values = filters[nonzero], cells[nonzero], values[nonzero]
        live, pos = np.unique(cells, return_inverse=True)
        d_pre = np.zeros((len(live), n_f), dtype=values.dtype)
        d_pre[pos, filters] = values * (out.reshape(n_f, -1)[filters, cells] > 0.0)
        grads[f"conv{n}_kernels"] = (d_pre.T @ cols[live]).reshape(n_f, n, n)
        grads[f"conv{n}_bias"] = d_pre.sum(axis=0)
    return float(rel), grads


def recurrent_backward_reference(d_h: float, cache: neural.RnnCache, w: np.ndarray,
                                 u: np.ndarray):
    """Backpropagation through time that accumulates every gradient step by
    step, last step first, with a new gate-gradient array per step; returns
    (d_xs, d_w, d_u, d_b)."""
    xs = cache.xs
    T = xs.shape[0]
    w64 = np.asarray(w, dtype=np.float64)
    d_xs = np.zeros_like(xs, dtype=np.float64)
    d_w = np.zeros(w.shape, dtype=np.float64)
    d_u = np.zeros(u.shape, dtype=np.float64)
    d_b = np.zeros(u.shape, dtype=np.float64)
    dh = float(d_h)
    dc = 0.0
    for t in reversed(range(T)):
        i, f, o, g, c_prev, h_prev, tanh_c = cache.steps[t]
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dc_prev = dc * f
        dz = np.array(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                do * o * (1.0 - o),
                dg * (1.0 - g * g),
            ],
            dtype=np.float64,
        )
        d_w += np.outer(dz, xs[t])
        d_u += dz * h_prev
        d_b += dz
        d_xs[t] = dz @ w64
        dh = float(np.dot(dz, u))
        dc = dc_prev
    return d_xs, d_w, d_u, d_b


def per_pair_sim_matrix(q_tokens, d_tokens, emb):
    """Cosine-similarity matrix that normalises every embedding afresh."""
    sim = np.zeros((len(q_tokens), len(d_tokens)))
    if not d_tokens:
        return sim

    def unit_rows(tokens):
        mat = np.zeros((len(tokens), emb.dim))
        has = np.zeros(len(tokens), dtype=bool)
        for i, tok in enumerate(tokens):
            vec = emb.vectors.get(tok)
            if vec is not None and float(np.linalg.norm(vec)) > 0.0:
                mat[i] = vec / float(np.linalg.norm(vec))
                has[i] = True
        return mat, has

    q_mat, q_has = unit_rows(q_tokens)
    d_mat, d_has = unit_rows(d_tokens)
    sim = np.clip(q_mat @ d_mat.T, -1.0, 1.0)
    sim[~q_has, :] = 0.0
    sim[:, ~d_has] = 0.0
    for i, q_tok in enumerate(q_tokens):
        for j, d_tok in enumerate(d_tokens):
            if q_tok == d_tok:
                sim[i, j] = 1.0
    return sim


_REFERENCE_PAIR_TYPES = (
    ("Nav", "HRel"),
    ("Nav", "Rel"),
    ("Nav", "NRel"),
    ("HRel", "Rel"),
    ("HRel", "NRel"),
    ("Rel", "NRel"),
)
_REFERENCE_MERGED_RANK = {"NRel": 0, "Rel": 1, "HRel": 2, "Nav": 3}


def corpus_records(corpus):
    """(doc id, tokens) of each document of a `Corpus`, in order."""
    words = list(corpus.vocab)
    return [(doc_id, tuple(words[i] for i in corpus.doc(doc_id))) for doc_id in corpus.doc_ids]


def _reference_merge(grade):
    if grade == 4:
        return "Nav"
    if grade in (2, 3):
        return "HRel"
    if grade == 1:
        return "Rel"
    if grade in (0, -2):
        return "NRel"
    raise ValueError(f"grade {grade} is not on the canonical scale")


def pair_accuracy_reference(scores, qrels):
    """Pairwise label accuracy with the label pairs listed by hand and each
    pair's stronger document found by comparing label ranks; returns the
    `PairAccuracyReport.to_dict()` form."""
    counts = {pt: [0, 0] for pt in _REFERENCE_PAIR_TYPES}  # [pairs, correct]
    queries_with = {pt: set() for pt in _REFERENCE_PAIR_TYPES}
    for qid in sorted(scores):
        judged = qrels.for_query(qid)
        docs = sorted(d for d in scores[qid] if d in judged)
        labels = {d: _reference_merge(judged[d]) for d in docs}
        for d1, d2 in itertools.combinations(docs, 2):
            l1, l2 = labels[d1], labels[d2]
            if l1 == l2:
                continue
            if _REFERENCE_MERGED_RANK[l1] > _REFERENCE_MERGED_RANK[l2]:
                hi_doc, hi, lo = d1, l1, l2
            else:
                hi_doc, hi, lo = d2, l2, l1
            lo_doc = d2 if hi_doc == d1 else d1
            key = (hi, lo)
            counts[key][0] += 1
            queries_with[key].add(qid)
            if scores[qid][hi_doc] > scores[qid][lo_doc]:
                counts[key][1] += 1
    total = sum(c[0] for c in counts.values())
    pairs = []
    weighted = 0.0
    for pt in _REFERENCE_PAIR_TYPES:
        n_pairs, n_correct = counts[pt]
        accuracy = n_correct / n_pairs if n_pairs else 0.0
        volume = n_pairs / total if total else 0.0
        weighted += accuracy * volume
        pairs.append({"label_pair": f"{pt[0]}-{pt[1]}", "accuracy": accuracy,
                      "volume": volume, "n_pairs": n_pairs,
                      "n_queries": len(queries_with[pt])})
    return {"pairs": pairs, "total_pairs": total, "weighted_average": weighted}


def reference_groups(qrels, train_query_ids):
    """Every judged document of the training queries by grade bucket:
    (highly, relevant, non_relevant, highly_pairs, relevant_pairs), with no
    positive left out for want of a negative."""
    train_ids = set(train_query_ids)
    highly, relevant, non_relevant = {}, {}, {}
    for qid, did, grade in sorted((qid, did, grade) for qid in train_ids
                                  for did, grade in qrels.for_query(qid).items()):
        if grade > 1:
            highly.setdefault(qid, []).append(did)
        elif grade == 1:
            relevant.setdefault(qid, []).append(did)
        else:
            non_relevant.setdefault(qid, []).append(did)
    highly_pairs = [(q, d) for q in sorted(highly) for d in highly[q]]
    relevant_pairs = [(q, d) for q in sorted(relevant) for d in relevant[q]]
    return highly, relevant, non_relevant, highly_pairs, relevant_pairs


def reference_sample_triple(rng, groups, max_attempts=1000):
    """Draw a triple from `reference_groups` the rejection way: choose the
    bucket in proportion to all its positives, then redraw the positive
    until its query has a negative in the next bucket down."""
    _, relevant, non_relevant, highly_pairs, relevant_pairs = groups
    n_high, n_rel = len(highly_pairs), len(relevant_pairs)
    if n_high + n_rel == 0:
        raise DataError("no positive documents available for sampling")
    use_highly = rng.random() < n_high / (n_high + n_rel)
    pos_pairs = highly_pairs if use_highly else relevant_pairs
    neg_lists = relevant if use_highly else non_relevant
    for _ in range(max_attempts):
        qid, pos = pos_pairs[rng.integers(len(pos_pairs))]
        negatives = neg_lists.get(qid)
        if negatives:
            return Triple(qid, pos, negatives[rng.integers(len(negatives))])
    raise DataError(f"{max_attempts} consecutive rejections while sampling a negative")


def checkpoint_with_header(config, **keys) -> bytes:
    """The checkpoint `save_params` writes for config's initial weights, with
    the given keys changed in its config header and its CRC made valid."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.pacrr"
        save_params(init_params(config), config, path)
        raw = path.read_bytes()
    table = 14 + int.from_bytes(raw[6:14], "little")
    header = json.dumps(dict(config.to_dict(), **keys), sort_keys=True).encode("utf-8")
    body = raw[:6] + struct.pack("<Q", len(header)) + header + raw[table:-4]
    return body + struct.pack("<I", zlib.crc32(body))


def run_bounded(code: str, max_bytes: int, timeout: float) -> subprocess.CompletedProcess:
    """Run a Python snippet in a child process with `src/` on PYTHONPATH, one
    BLAS thread, an address space of at most max_bytes and a timeout in
    seconds; returns the completed process, with text stdout and stderr.
    The child sets its own limit before it runs the snippet."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    limit = ("import resource\n"
             f"resource.setrlimit(resource.RLIMIT_AS, ({max_bytes}, {max_bytes}))\n")
    return subprocess.run([sys.executable, "-c", limit + code], env=env,
                          capture_output=True, text=True, timeout=timeout)
