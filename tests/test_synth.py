import collections

import numpy as np
import pytest

from helpers import corpus_records
from pacrr import synth
from pacrr.synth import SynthSpec, generate, planted_grade


class TestPlantedGrade:
    def test_contiguous_bigram_scores_two(self):
        assert planted_grade(("a", "b", "c"), ("x", "a", "b", "y")) == 2

    def test_scattered_terms_score_one(self):
        assert planted_grade(("a", "b", "c"), ("a", "x", "y", "c")) == 1

    def test_single_term_scores_zero(self):
        assert planted_grade(("a", "b"), ("a", "x", "y")) == 0

    def test_reversed_pair_is_not_a_bigram(self):
        assert planted_grade(("a", "b"), ("b", "a")) == 1

    def test_repeated_single_term_scores_zero(self):
        assert planted_grade(("a", "b"), ("a", "x", "a")) == 0


class TestGenerate:
    def test_deterministic_given_seed(self, tmp_path):
        spec = SynthSpec(n_docs=40, n_train_queries=4, n_val_queries=2, seed=3)
        synth.write(generate(spec), tmp_path / "a")
        synth.write(generate(spec), tmp_path / "b")
        for name in ("corpus.jsonl", "queries.jsonl", "qrels.txt", "run.txt",
                     "embeddings.txt", "train_qids.txt", "val_qids.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_planted_class_matches_rule_grade(self):
        spec = SynthSpec(n_docs=120, n_train_queries=8, n_val_queries=4, seed=5)
        data = generate(spec)
        n_queries = len(data.queries)
        for i, doc_id in enumerate(data.docs.doc_ids):
            target = data.queries[i % n_queries]
            assert data.qrels.for_query(target.query_id)[doc_id] == \
                data.planted_classes[i]

    def test_qrels_follow_rule_for_every_pair(self):
        spec = SynthSpec(n_docs=30, n_train_queries=3, n_val_queries=2, seed=9)
        data = generate(spec)
        for q in data.queries:
            for doc_id, tokens in corpus_records(data.docs):
                assert data.qrels.for_query(q.query_id)[doc_id] == \
                    planted_grade(q.tokens, tokens)

    def test_class_distribution_matches_proportions(self):
        spec = SynthSpec(n_docs=10000, n_train_queries=8, n_val_queries=2,
                         p_bigram=0.25, p_scatter=0.35, seed=17)
        data = generate(spec)
        counts = collections.Counter(data.planted_classes)
        assert counts[2] / spec.n_docs == pytest.approx(0.25, abs=0.05)
        assert counts[1] / spec.n_docs == pytest.approx(0.35, abs=0.05)
        assert counts[0] / spec.n_docs == pytest.approx(0.40, abs=0.05)

    def test_run_ranked_by_unigram_overlap(self):
        spec = SynthSpec(n_docs=50, n_train_queries=4, n_val_queries=2, seed=21)
        data = generate(spec)
        docs = dict(corpus_records(data.docs))
        for q in data.queries:
            run = data.runs[q.query_id]
            overlaps = [len(set(q.tokens) & set(docs[d]))
                        for d in run.doc_ids()]
            assert overlaps == sorted(overlaps, reverse=True)
            assert all(score == float(ov)
                       for ov, (_, _, score) in zip(overlaps, run.entries))

    def test_embeddings_unit_norm(self):
        data = generate(SynthSpec(n_docs=10, n_train_queries=2, n_val_queries=1, seed=1))
        for vec in data.embeddings.vectors.values():
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_split_sizes(self):
        data = generate(SynthSpec(n_docs=10, n_train_queries=6, n_val_queries=3, seed=1))
        assert len(data.train_query_ids) == 6
        assert len(data.val_query_ids) == 3
        assert not set(data.train_query_ids) & set(data.val_query_ids)


@pytest.mark.parametrize("kwargs", [dict(n_docs=0), dict(n_docs=-1), dict(run_depth=0),
                                    dict(n_train_queries=0, n_val_queries=0),
                                    dict(n_train_queries=-1, n_val_queries=3)])
def test_spec_rejects_empty_or_negative_sizes(kwargs):
    with pytest.raises(ValueError, match=">= "):
        SynthSpec(**kwargs)
