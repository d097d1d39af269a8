"""Query-document cosine-similarity matrices and fixed-size distillation.

Raw matrices are |q| x |d|; the two distillation strategies reduce them to
|q| x l_d model inputs: `firstk` truncates/pads the document axis, while
`kwindow` keeps only the highest-scoring disjoint n-term windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import EmbeddingTable, Query, TokenizedDocument

FIRSTK = "firstk"
KWINDOW = "kwindow"
MODES = (FIRSTK, KWINDOW)


@dataclass
class SimilarityMatrix:
    query_id: str
    doc_id: str
    values: np.ndarray  # shape (|q|, |d|), entries in [-1, 1]

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


@dataclass
class DistilledInput:
    """query_len x l_d inputs, one matrix per n-gram size.

    Under firstk every per_n entry is the same matrix object; under kwindow
    each n has its own window-selected matrix.
    """

    query_id: str
    doc_id: str
    mode: str
    per_n: dict[int, np.ndarray]

    @property
    def query_len(self) -> int:
        return self.per_n[1].shape[0]


def build_sim_matrix(query: Query, doc: TokenizedDocument, emb: EmbeddingTable) -> SimilarityMatrix:
    """Cosine similarity between every query and document term.

    String-equal tokens score exactly 1.0 even without an embedding; a pair
    where either token lacks an embedding (or has a zero vector) scores 0.0.
    """
    n_q, n_d = len(query.tokens), len(doc.tokens)
    sim = np.zeros((n_q, n_d), dtype=np.float64)
    if n_d == 0:
        return SimilarityMatrix(query.query_id, doc.doc_id, sim)

    def unit_rows(tokens):
        units = [emb.unit(tok) for tok in tokens]
        has = np.array([u is not None for u in units], dtype=bool)
        mat = np.zeros((len(tokens), emb.dim), dtype=np.float64)
        if has.any():
            mat[has] = np.stack([u for u in units if u is not None])
        return mat, has

    q_mat, q_has = unit_rows(query.tokens)
    d_mat, d_has = unit_rows(doc.tokens)
    sim = np.clip(q_mat @ d_mat.T, -1.0, 1.0)
    sim[~q_has, :] = 0.0
    sim[:, ~d_has] = 0.0
    positions: dict[str, list[int]] = {}
    for j, d_tok in enumerate(doc.tokens):
        positions.setdefault(d_tok, []).append(j)
    for i, q_tok in enumerate(query.tokens):
        for j in positions.get(q_tok, ()):
            sim[i, j] = 1.0
    return SimilarityMatrix(query.query_id, doc.doc_id, sim)


def distill_firstk(sim: SimilarityMatrix, l_q: int, l_d: int) -> np.ndarray:
    """Keep the first l_d document columns, zero-padded to l_q x l_d."""
    if l_q < sim.rows:
        raise ValueError(f"l_q={l_q} is smaller than the query length {sim.rows}")
    out = np.zeros((l_q, l_d), dtype=np.float64)
    width = min(sim.cols, l_d)
    out[: sim.rows, :width] = sim.values[:, :width]
    return out


def distill_kwindow(sim: SimilarityMatrix, n: int, l_q: int, l_d: int) -> np.ndarray:
    """Select the top floor(l_d/n) disjoint n-term windows of the document.

    Candidate windows start at positions 0, n, 2n, ...; a final partial window
    is zero-padded to length n. A window's score is the mean over its columns
    of the per-column maximum similarity (padding columns contribute 0). The
    highest-scoring windows are kept (ties break toward earlier positions),
    re-ordered by document position, concatenated, and zero-padded to l_q x l_d.
    """
    if n < 1:
        raise ValueError("window length n must be >= 1")
    if n > l_d:
        raise ValueError(f"window length n={n} exceeds l_d={l_d}")
    if l_q < sim.rows:
        raise ValueError(f"l_q={l_q} is smaller than the query length {sim.rows}")
    out = np.zeros((l_q, l_d), dtype=np.float64)
    n_windows = -(-sim.cols // n)  # ceil
    if n_windows == 0:
        return out
    padded = np.zeros((sim.rows, n_windows * n), dtype=np.float64)
    padded[:, : sim.cols] = sim.values
    col_max = padded.max(axis=0)
    scores = col_max.reshape(n_windows, n).mean(axis=1)
    k = l_d // n
    top = np.argsort(-scores, kind="stable")[:k]
    selected = np.sort(top)
    block = np.hstack([padded[:, w * n : (w + 1) * n] for w in selected])
    out[: sim.rows, : block.shape[1]] = block
    return out


def distill(sim: SimilarityMatrix, mode: str, l_d: int, l_g: int) -> DistilledInput:
    """Distill one similarity matrix for all n-gram sizes 1..l_g.

    Only the sim.rows real query rows are kept, as float32: the model's
    input dtype, so the cast is made once here and never per score.
    """
    if mode == FIRSTK:
        matrix = distill_firstk(sim, sim.rows, l_d).astype(np.float32)
        per_n = {n: matrix for n in range(1, l_g + 1)}
    elif mode == KWINDOW:
        per_n = {n: distill_kwindow(sim, n, sim.rows, l_d).astype(np.float32)
                 for n in range(1, l_g + 1)}
    else:
        raise ValueError(f"unknown distillation mode {mode!r}")
    return DistilledInput(sim.query_id, sim.doc_id, mode, per_n)
