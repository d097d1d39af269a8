"""Query-document cosine-similarity matrices and fixed-size distillation.

Raw matrices are |q| x |d|, built from embedding-row ids (assigned by
`model.Scorer`) and the embedding table's unit-vector matrix; the two
distillation strategies reduce them to at most l_d document columns:
`firstk` truncates the document axis, while `kwindow` keeps only the
highest-scoring disjoint n-term windows, ranked by one partition per n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FIRSTK = "firstk"
KWINDOW = "kwindow"
MODES = (FIRSTK, KWINDOW)


@dataclass
class DistilledInput:
    """The document columns distill kept, one float32 matrix per n-gram
    size: query_len rows and at most l_d columns.

    Under firstk every per_n entry is the same matrix object. Under kwindow
    the n that keep every window of the document share that same matrix,
    and each other n has its own window-selected one. A matrix may thus
    serve several n, so no reader may write into it.
    """

    mode: str
    per_n: dict[int, np.ndarray]

    @property
    def query_len(self) -> int:
        return self.per_n[1].shape[0]


def build_sim_matrix(q_ids: np.ndarray, d_ids: np.ndarray, units: np.ndarray) -> np.ndarray:
    """The (|q|, |d|) cosine similarity between every query and document
    term, with entries in [-1, 1].

    Row ids index the rows of `units` (`EmbeddingTable.units`); an id past
    its last row reads that zero row, so a pair where either token lacks a
    vector (or has a zero one) scores 0.0. Equal ids, i.e. equal tokens,
    score exactly 1.0 even without a vector.
    """
    zero_row = len(units) - 1
    q_units = units[np.minimum(q_ids, zero_row)]
    d_units = units[np.minimum(d_ids, zero_row)]
    sim = q_units @ d_units.T
    np.clip(sim, -1.0, 1.0, out=sim)
    sim[q_ids[:, None] == d_ids[None, :]] = 1.0
    return sim


def distill(sim: np.ndarray, mode: str, l_d: int, l_g: int) -> DistilledInput:
    """Distill one (|q|, |d|) similarity matrix for all n-gram sizes 1..l_g.

    Only the |q| real query rows are kept, as float32: the model's input
    dtype, so the cast is made once here and never per score.

    `firstk` keeps the first min(|d|, l_d) document columns; every n shares
    that one matrix. `kwindow` keeps, for each n, the top
    k = floor(l_d/n) disjoint n-term windows. Candidate windows start at
    positions 0, n, 2n, ...; a final partial window is zero-padded to length
    n. A window's score is the mean over its columns of the per-column
    maximum similarity (padding columns contribute 0). Every window scoring
    above the k-th largest score t is kept, and then the earliest windows
    scoring exactly t until k are kept (a stable sort's tie rule), found by
    one partition. The window means are summed column by column with strided
    adds, which equal numpy's mean up to the sign of a zero, and `>`, `==`
    and the partition treat both zeros alike. The kept windows are
    concatenated in document order, a partial last window with only its real
    columns: at most l_d columns. An n with at most k windows keeps them
    all, which is the `firstk` matrix, so those n share it.
    """
    if l_g > l_d:
        raise ValueError(f"l_g={l_g} exceeds l_d={l_d}")
    if mode not in MODES:
        raise ValueError(f"unknown distillation mode {mode!r}")
    _, cols = sim.shape
    sizes = range(1, l_g + 1)
    ranked = [n for n in sizes if -(-cols // n) > l_d // n] if mode == KWINDOW else []
    per_n = {}
    if len(ranked) < l_g:
        per_n = dict.fromkeys(sizes, sim[:, :l_d].astype(np.float32))
    if ranked:
        # The column max does not depend on n: a prefix of one zero-padded
        # copy serves every window length up to l_g.
        col_max = np.zeros(cols + l_g - 1, dtype=np.float64)
        col_max[:cols] = sim.max(axis=0)
    for n in ranked:
        n_windows, k = -(-cols // n), l_d // n
        scores = col_max[: n_windows * n : n].copy()
        for j in range(1, n):
            scores += col_max[j : n_windows * n : n]
        scores /= n
        t = np.partition(scores, n_windows - k)[n_windows - k]
        keep = scores > t
        keep[np.flatnonzero(scores == t)[: k - np.count_nonzero(keep)]] = True
        per_n[n] = np.compress(np.repeat(keep, n)[:cols], sim, axis=1).astype(np.float32)
    return DistilledInput(mode, per_n)
