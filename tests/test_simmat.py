import math

import numpy as np
import pytest

from helpers import assert_kept_columns, kwindow_oracle, per_pair_sim_matrix
from pacrr.corpus import Corpus, EmbeddingTable, Query, compute_idf
from pacrr.model import PacrrConfig, Scorer, init_params
from pacrr.simmat import FIRSTK, KWINDOW, build_sim_matrix, distill


def table(**vectors):
    dim = len(next(iter(vectors.values())))
    return EmbeddingTable(dim=dim, vectors={k: np.array(v, float) for k, v in vectors.items()})


def build(q_tokens, d_tokens, emb):
    """The similarity matrix of two token lists, with ids as `Scorer` gives
    them: a token's row of `emb.units`, else a distinct id past those rows."""
    ids = dict(zip(emb.vectors, range(len(emb))))
    for token in q_tokens + d_tokens:
        ids.setdefault(token, len(ids))
    q_ids, d_ids = ([ids[t] for t in tokens] for tokens in (q_tokens, d_tokens))
    return build_sim_matrix(np.array(q_ids, dtype=np.intp), np.array(d_ids, dtype=np.intp),
                            emb.units)


class TestBuildSimMatrix:
    def test_identical_tokens_score_one(self):
        emb = table(dog=[1.0, 0.0])
        sim = build(("dog",), ("dog",), emb)
        assert sim[0, 0] == 1.0

    def test_identical_oov_tokens_score_one(self):
        emb = table(other=[1.0, 0.0])
        sim = build(("zzz",), ("zzz",), emb)
        assert sim[0, 0] == 1.0

    def test_orthogonal_vectors(self):
        emb = table(a=[1.0, 0.0], b=[0.0, 1.0])
        sim = build(("a",), ("b",), emb)
        assert sim[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_hand_cosine(self):
        emb = table(a=[1.0, 1.0], b=[1.0, 0.0])
        sim = build(("a",), ("b",), emb)
        assert sim[0, 0] == pytest.approx(1.0 / math.sqrt(2), abs=1e-12)

    def test_missing_embedding_different_tokens(self):
        emb = table(a=[1.0, 0.0])
        sim = build(("a", "zzz"), ("yyy",), emb)
        assert sim[0, 0] == 0.0
        assert sim[1, 0] == 0.0

    def test_empty_document(self):
        sim = build(("a", "b"), (), table(a=[1.0]))
        assert sim.shape == (2, 0)

    def test_id_build_matches_per_pair_normalisation(self):
        rng = np.random.default_rng(8)
        vecs = {f"t{i}": rng.standard_normal(6) * rng.uniform(0.1, 5.0) for i in range(30)}
        vecs["t0"] = np.zeros(6)
        emb = EmbeddingTable(dim=6, vectors=vecs)
        # t0 has a zero vector and o* have none; shared tokens hit the
        # exact-match override.
        pool = [f"t{i}" for i in range(30)] + ["o1", "o2"]
        queries = [("t0", "o1", "t3"), ("o2",), tuple(rng.choice(pool, 5))]
        docs = [tuple(rng.choice(pool, size)) for size in (1, 7, 60)] + [()]
        for q in queries:
            for d in docs + docs:
                got = build(q, d, emb)
                want = per_pair_sim_matrix(q, d, emb)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_values_in_range(self):
        rng = np.random.default_rng(5)
        vecs = {f"t{i}": rng.standard_normal(8) for i in range(20)}
        emb = EmbeddingTable(dim=8, vectors=vecs)
        sim = build(tuple(f"t{i}" for i in range(4)), tuple(f"t{i}" for i in range(20)), emb)
        assert np.all(sim >= -1.0) and np.all(sim <= 1.0)


class TestScorerRowIds:
    """`Scorer.distilled` reads each token's row, or a distinct id past the table."""

    def distilled(self, query):
        emb = table(a=[1.0, 0.0], b=[0.6, 0.8], q=[0.8, 0.6])
        docs = Corpus.build([("d", ("a", "doc-only", "b", "doc-only"))])
        config = PacrrConfig(l_q=len(query), l_d=4)
        scorer = Scorer(config, init_params(config), [Query("q", query)], docs, emb,
                        compute_idf(docs))
        return scorer.distilled("q", "d").per_n[1]

    def test_query_only_token_with_a_vector_reads_it(self):
        np.testing.assert_array_equal(self.distilled(("q",)),
                                      np.float32([[0.8, 0.0, 0.96, 0.0]]))

    def test_query_only_token_without_a_vector_scores_zero(self):
        np.testing.assert_array_equal(self.distilled(("query-only",)), np.zeros((1, 4)))

    def test_document_token_without_a_vector_matches_only_itself(self):
        np.testing.assert_array_equal(self.distilled(("doc-only", "a")),
                                      np.float32([[0, 1, 0, 1], [1, 0, 0.6, 0]]))


def firstk(sim, l_d):
    return distill(sim, FIRSTK, l_d=l_d, l_g=1).per_n[1]


def kwindow(sim, n, l_d):
    return distill(sim, KWINDOW, l_d=l_d, l_g=n).per_n[n]


def f32(values):
    return np.asarray(values, dtype=np.float32)


class TestDistillFirstk:
    def test_short_document_keeps_its_columns_unpadded(self):
        sim = np.arange(6, dtype=float).reshape(2, 3) / 10
        out = firstk(sim, l_d=4)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, f32(sim))

    def test_truncation(self):
        sim = np.linspace(-1, 1, 1000).reshape(1, 1000)
        out = firstk(sim, l_d=4)
        np.testing.assert_array_equal(out, f32(sim[:, :4]))

    def test_identity_case(self):
        values = np.array([[0.2, 0.9], [0.4, 0.1]])
        out = firstk(values, l_d=2)
        np.testing.assert_array_equal(out, f32(values))

    def test_idempotent(self):
        values = np.random.default_rng(0).uniform(-1, 1, (3, 5))
        once = firstk(values, l_d=5)
        twice = firstk(once, l_d=5)
        np.testing.assert_array_equal(once, twice)

    def test_shared_matrix_across_sizes(self):
        sim = np.zeros((2, 2))
        distilled = distill(sim, FIRSTK, l_d=3, l_g=3)
        assert distilled.per_n[1] is distilled.per_n[2] is distilled.per_n[3]


class TestDistillKwindow:
    def test_unigram_top_k_in_document_order(self):
        sim = np.array([[0.1, 0.9, 0.5, 0.7, 0.2]])
        out = kwindow(sim, n=1, l_d=3)
        np.testing.assert_array_equal(out, f32([[0.9, 0.5, 0.7]]))

    def test_bigram_windows(self):
        sim = np.array([[0.9, 0.1, 0.2, 0.2, 0.8, 0.8]])
        out = kwindow(sim, n=2, l_d=4)
        np.testing.assert_array_equal(out, f32([[0.9, 0.1, 0.8, 0.8]]))

    def test_document_shorter_than_window(self):
        sim = np.array([[0.4, 0.6]])
        out = kwindow(sim, n=3, l_d=6)
        expected = np.zeros((1, 6))
        expected[0, :2] = [0.4, 0.6]
        assert out.shape == (1, 2)
        assert_kept_columns(out, f32(expected))

    def test_window_longer_than_l_d(self):
        sim = np.zeros((1, 5))
        with pytest.raises(ValueError, match="exceeds"):
            kwindow(sim, n=6, l_d=5)

    def test_empty_document(self):
        sim = np.zeros((2, 0))
        out = kwindow(sim, n=2, l_d=4)
        assert out.shape == (2, 0)
        assert_kept_columns(out, f32(np.zeros((2, 4))))

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(1234)
        for case in range(120):
            n_q = int(rng.integers(1, 6))
            n_d = int(rng.integers(0, 41))
            l_g = int(rng.integers(1, 4))
            l_d = int(rng.integers(l_g, 16))
            values = rng.uniform(-1, 1, (n_q, n_d))
            # Ties decide window order: half the cases are tie-heavy.
            if case % 4 == 1:
                values = np.round(values, 1)
            elif case % 4 == 2:
                values[:, rng.random(n_d) < 0.7] = 0.0
            elif case % 4 == 3:
                values = rng.choice([-1.0, -0.0, 0.0, 1.0], (n_q, n_d))
            distilled = distill(values, KWINDOW, l_d=l_d, l_g=l_g)
            for n in range(1, l_g + 1):
                want = kwindow_oracle(values.tolist(), n, n_q, l_d)
                assert_kept_columns(distilled.per_n[n], f32(want))

    @pytest.mark.parametrize("l_d, l_g", [(768, 3), (64, 4)])
    def test_tie_heavy_documents_around_l_d(self, l_d, l_g):
        # |d| from l_d - n - 1 to l_d + n + 1 for every n covers each n's
        # switch between keeping every window and ranking them; at l_d = 64,
        # n = 3 ranks already at |d| = 64, as ceil(64/3) = 22 > 21 windows.
        rng = np.random.default_rng(l_d)
        for n_d in range(l_d - l_g - 1, l_d + l_g + 2):
            values = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], (3, n_d))
            distilled = distill(values, KWINDOW, l_d=l_d, l_g=l_g)
            for n in range(1, l_g + 1):
                assert_kept_columns(distilled.per_n[n],
                                    f32(kwindow_oracle(values.tolist(), n, 3, l_d)))
            # The sizes that keep every window share one matrix; each other
            # size has its own.
            keep_all = [n for n in range(1, l_g + 1) if math.ceil(n_d / n) <= l_d // n]
            ids = {n: id(m) for n, m in distilled.per_n.items()}
            assert len({ids[n] for n in keep_all}) == min(len(keep_all), 1)
            assert len(set(ids.values())) == l_g - len(keep_all) + min(len(keep_all), 1)

    def test_selected_windows_dominate_unselected(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            n_d = int(rng.integers(n, 30))
            values = rng.uniform(-1, 1, (3, n_d))
            l_d = int(rng.integers(n, 12))
            num_w = math.ceil(n_d / n)
            padded = np.zeros((3, num_w * n))
            padded[:, :n_d] = values
            scores = padded.max(axis=0).reshape(num_w, n).mean(axis=1)
            k = min(l_d // n, num_w)
            top = sorted(np.argsort(-scores, kind="stable")[:k])
            rest = [w for w in range(num_w) if w not in top]
            if rest:
                assert min(scores[w] for w in top) >= max(scores[w] for w in rest)

    def test_order_preservation(self):
        # selected windows appear in ascending original position
        sim = np.array([[0.0, 0.0, 0.9, 0.9, 0.5, 0.5]])
        out = kwindow(sim, n=2, l_d=4)
        np.testing.assert_array_equal(out, f32([[0.9, 0.9, 0.5, 0.5]]))

    def test_tied_windows_keep_the_earliest_whatever_the_sign_of_zero(self):
        # Windows of n = 2 scoring 0.5, -0.0 (the strided sum of two -0.0
        # maxima), 0.0, -0.0 and 0.0; keeping l_d // n = 3 takes the 0.5
        # window and the two earliest zero windows, which the reversed tie
        # rule would not.
        sim = np.array([[-0.0, -0.0, 0.5, 0.5, 0.0, -0.0, -0.0, -0.0, 0.0, 0.0]])
        distilled = distill(sim, KWINDOW, l_d=6, l_g=2)
        assert distilled.per_n[2].tobytes() == f32(sim[:, :6]).tobytes()
        assert distilled.per_n[1].tobytes() == f32(sim[:, :6]).tobytes()

    def test_unselected_column_permutation_invariance(self):
        # permuting columns strictly outside the n=1 selection changes nothing
        values = np.array([[0.9, 0.8, 0.7, 0.1, 0.2, 0.3]])
        swapped = values.copy()
        swapped[0, [3, 4, 5]] = values[0, [5, 3, 4]]
        a = kwindow(values, n=1, l_d=3)
        b = kwindow(swapped, n=1, l_d=3)
        np.testing.assert_array_equal(a, b)


class TestDistilledInvariants:
    def test_values_in_range_real_rows_float32(self):
        rng = np.random.default_rng(7)
        for mode in (FIRSTK, KWINDOW):
            values = rng.uniform(-1, 1, (3, 9))
            distilled = distill(values, mode, l_d=6, l_g=3)
            assert distilled.query_len == 3
            for matrix in distilled.per_n.values():
                assert matrix.shape == (3, 6) and matrix.dtype == np.float32
                assert np.all(matrix >= -1.0) and np.all(matrix <= 1.0)
