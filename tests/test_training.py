import json
from collections import Counter

import numpy as np
import pytest

from pacrr import model, synth, training
from pacrr.corpus import JudgmentSet, RunRanking, compute_idf
from pacrr.errors import DataError
from pacrr.model import PacrrConfig, Scorer, init_params, load_params, score_gradients
from pacrr.neural import hinge_gradients, hinge_loss
from pacrr.training import (BATCH_SIZE, Triple, build_groups, sample_triple, train,
                            train_batch)

EMPTY = "no positive documents available for sampling"


class TestBuildGroups:
    def test_direct_mapping(self):
        qrels = JudgmentSet({"q": {"d1": 4, "d2": 1, "d3": 0}})
        groups = build_groups(qrels, ["q"])
        assert groups.highly_pairs == [("q", "d1")]
        assert groups.relevant == {"q": ["d2"]}
        assert groups.non_relevant == {"q": ["d3"]}

    def test_hrel_counts_as_highly(self):
        groups = build_groups(JudgmentSet({"q": {"d": 2, "r": 1}}), ["q"])
        assert groups.highly_pairs == [("q", "d")]

    def test_junk_is_an_eligible_negative(self):
        groups = build_groups(JudgmentSet({"q": {"p": 1, "d": -2}}), ["q"])
        assert groups.non_relevant == {"q": ["d"]}
        assert groups.relevant_pairs == [("q", "p")]

    def test_restricted_to_training_queries(self):
        qrels = JudgmentSet({"q1": {"d": 1, "n": 0}, "q2": {"d": 1, "n": 0}})
        groups = build_groups(qrels, ["q1"])
        assert groups.relevant_pairs == [("q1", "d")]


def proportional_groups(n_high=30, n_rel=70):
    # the highly queries also need relevant docs; counted once here
    by_query = {f"qh{i}": {"pos": 2, "mid": 1} for i in range(n_high)}
    by_query.update({f"qr{i}": {"pos": 1, "neg": 0} for i in range(n_rel)})
    qrels = JudgmentSet(by_query)
    return build_groups(qrels, qrels.query_ids())


class TestSampleTriple:
    def test_group_proportions(self):
        groups = proportional_groups()
        n_high = len(groups.highly_pairs)
        n_total = n_high + len(groups.relevant_pairs)
        rng = np.random.default_rng(0)
        draws = 20000
        highly = sum(
            1 for _ in range(draws)
            if sample_triple(rng, groups).query_id.startswith("qh")
        )
        assert highly / draws == pytest.approx(n_high / n_total, abs=0.02)

    def test_positive_outranks_negative(self):
        groups = proportional_groups()
        qrels_grades = {pair: 2 for pair in groups.highly_pairs}
        for grade, bucket in ((1, groups.relevant), (0, groups.non_relevant)):
            qrels_grades.update({(q, d): grade for q, docs in bucket.items() for d in docs})
        rng = np.random.default_rng(1)
        for _ in range(2000):
            t = sample_triple(rng, groups)
            assert qrels_grades[(t.query_id, t.pos_doc_id)] > qrels_grades[
                (t.query_id, t.neg_doc_id)]

    def test_rejection_skips_queries_without_negatives(self):
        # one highly query has no relevant docs: its positives can never emit
        by_query = {"qa": {"p": 2}, "qb": {"p": 2, "r": 1, "n": 0}}
        groups = build_groups(JudgmentSet(by_query), ["qa", "qb"])
        rng = np.random.default_rng(2)
        for _ in range(500):
            t = sample_triple(rng, groups)
            if t.query_id == "qa":
                pytest.fail("query without negatives emitted a triple")

    @pytest.mark.parametrize("dead_grade", [2, 1])
    def test_only_the_pairable_query_is_drawn(self, dead_grade):
        # One positive per bucket can be paired; 2001 positives of one bucket
        # cannot, and must neither be drawn nor weigh the choice of bucket.
        by_query = {"live": {"p": 2, "r": 1, "n": 0}}
        by_query.update({f"dead{i}": {"d": dead_grade} for i in range(2001)})
        groups = build_groups(JudgmentSet(by_query), list(by_query))
        assert groups.unpaired == 2001
        rng = np.random.default_rng(0)
        draws = Counter(sample_triple(rng, groups) for _ in range(200))
        assert set(draws) == {Triple("live", "p", "r"), Triple("live", "r", "n")}
        assert min(draws.values()) >= 70, draws

    def test_degenerate_training_set(self):
        with pytest.raises(DataError, match=EMPTY):
            build_groups(JudgmentSet({"q": {"p": 2}}), ["q"])

    def test_no_positives(self):
        with pytest.raises(DataError, match=EMPTY):
            build_groups(JudgmentSet({"q": {"n": 0}}), ["q"])

    def test_seeded_sequence_identical(self):
        groups = proportional_groups(5, 10)
        seq1 = [sample_triple(np.random.default_rng(42), groups) for _ in range(1)]
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        seq_a = [sample_triple(rng_a, groups) for _ in range(50)]
        seq_b = [sample_triple(rng_b, groups) for _ in range(50)]
        assert seq_a == seq_b
        assert seq1  # silence unused


@pytest.fixture(scope="module")
def small_synth():
    spec = synth.SynthSpec(n_docs=80, n_train_queries=6, n_val_queries=3, seed=13)
    data = synth.generate(spec)
    return data, compute_idf(data.docs)


def tiny_config(**overrides):
    kwargs = dict(l_q=4, l_d=12, l_g=3, n_f=4, n_s=2, mode="kwindow",
                  learning_rate=0.1, seed=42)
    kwargs.update(overrides)
    return PacrrConfig(**kwargs)


def run_training(data, idf, out_dir, config=None, iterations=2, batches=4, **kwargs):
    return train(
        config or tiny_config(), data.docs, data.queries, data.qrels,
        data.train_query_ids, data.val_query_ids, data.runs,
        data.embeddings, idf, iterations=iterations,
        batches_per_iteration=batches, out_dir=out_dir, **kwargs,
    )


class TestTrain:
    def test_log_and_checkpoints(self, small_synth, tmp_path):
        data, idf = small_synth
        params, state = run_training(data, idf, tmp_path, iterations=3)
        assert len(state.logs) == 3
        log_lines = (tmp_path / "training_log.jsonl").read_text().splitlines()
        assert len(log_lines) == 3
        record = json.loads(log_lines[0])
        assert set(record) == {"iteration", "mean_loss", "val_err20", "val_ndcg20",
                               "checkpoint_path"}
        for log in state.logs:
            assert (tmp_path / log.checkpoint_path).exists()

    @pytest.mark.parametrize("iterations, batches", [(0, 1), (1, 0)])
    def test_empty_schedule_rejected(self, small_synth, tmp_path, iterations, batches):
        data, idf = small_synth
        with pytest.raises(ValueError, match="must be >= 1"):
            run_training(data, idf, tmp_path, iterations=iterations, batches=batches)

    @pytest.mark.parametrize("role", ["training", "validation"])
    def test_missing_query_ids_rejected(self, small_synth, tmp_path, role):
        data, idf = small_synth
        qid = (data.train_query_ids if role == "training" else data.val_query_ids)[0]
        queries = [q for q in data.queries if q.query_id != qid]
        with pytest.raises(DataError, match=rf"{role} query ids .*'{qid}'"):
            train(tiny_config(), data.docs, queries, data.qrels,
                  data.train_query_ids, data.val_query_ids, data.runs,
                  data.embeddings, idf, iterations=1,
                  batches_per_iteration=1, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_best_selection_is_argmax(self, small_synth, tmp_path):
        data, idf = small_synth
        _, state = run_training(data, idf, tmp_path, iterations=3)
        errs = [log.val_err for log in state.logs]
        assert state.best_err == max(errs)
        assert state.best_iteration == errs.index(max(errs)) + 1

    def test_returned_params_match_best_checkpoint(self, small_synth, tmp_path):
        data, idf = small_synth
        params, state = run_training(data, idf, tmp_path, iterations=2)
        reloaded, _ = load_params(tmp_path / state.best_checkpoint_path)
        for group in params:
            assert group.value.tobytes() == reloaded[group.name].value.tobytes()

    def test_bit_reproducible(self, small_synth, tmp_path):
        data, idf = small_synth
        run_training(data, idf, tmp_path / "a", iterations=2)
        run_training(data, idf, tmp_path / "b", iterations=2)
        log_a = (tmp_path / "a" / "training_log.jsonl").read_bytes()
        log_b = (tmp_path / "b" / "training_log.jsonl").read_bytes()
        assert log_a == log_b

    def test_empty_validation_set_rejected(self, small_synth, tmp_path):
        data, idf = small_synth
        with pytest.raises(DataError, match="val_qids is empty"):
            train(tiny_config(), data.docs, data.queries, data.qrels,
                  data.train_query_ids, [], data.runs, data.embeddings, idf,
                  iterations=1, batches_per_iteration=1, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("train_ids, dropped, message", [
        ("none", (), EMPTY),
        # grade 1 dropped: no grade > 1 positive has a negative, and no grade 1 positive
        ("all", (1,), EMPTY),
    ])
    def test_unsampleable_training_set_rejected(self, small_synth, tmp_path, train_ids,
                                                dropped, message):
        data, idf = small_synth
        train_ids = data.train_query_ids if train_ids == "all" else []
        qrels = JudgmentSet({qid: {did: grade for did, grade in judged.items()
                                   if qid not in train_ids or grade not in dropped}
                             for qid, judged in data.qrels.by_query.items()})
        with pytest.raises(DataError, match=message):
            train(tiny_config(), data.docs, data.queries, qrels, train_ids,
                  data.val_query_ids, data.runs, data.embeddings, idf, iterations=1,
                  batches_per_iteration=1, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_positives_without_a_negative_are_left_out(self, small_synth, tmp_path,
                                                       monkeypatch, caplog):
        # grade <= 0 dropped: only the grade > 1 positives can be paired
        data, idf = small_synth
        train_ids = set(data.train_query_ids)
        qrels = JudgmentSet({qid: {did: grade for did, grade in judged.items()
                                   if qid not in train_ids or grade > 0}
                             for qid, judged in data.qrels.by_query.items()})
        unpaired = sum(1 for qid in train_ids for grade in qrels.for_query(qid).values()
                       if grade == 1)
        drawn = []

        def recording(rng, groups):
            drawn.append(sample_triple(rng, groups))
            return drawn[-1]

        monkeypatch.setattr(training, "sample_triple", recording)
        with caplog.at_level("WARNING"):
            train(tiny_config(), data.docs, data.queries, qrels, data.train_query_ids,
                  data.val_query_ids, data.runs, data.embeddings, idf, iterations=1,
                  batches_per_iteration=2, out_dir=tmp_path)
        assert len(drawn) == 2 * BATCH_SIZE
        for t in drawn:
            assert qrels.for_query(t.query_id)[t.pos_doc_id] > 1
            assert qrels.for_query(t.query_id)[t.neg_doc_id] == 1
        assert [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()] == [
            f"skipped 0 judged training documents not in the corpus, {unpaired} positives "
            "with no document in the next grade bucket down and 0 validation-run documents "
            "not in the corpus"]

    def test_missing_validation_run_rejected(self, small_synth, tmp_path):
        data, idf = small_synth
        runs = {q: r for q, r in data.runs.items() if q != data.val_query_ids[0]}
        with pytest.raises(DataError, match="validation run"):
            train(tiny_config(), data.docs, data.queries, data.qrels,
                  data.train_query_ids, data.val_query_ids, runs,
                  data.embeddings, idf, iterations=1,
                  batches_per_iteration=1, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_judged_documents_missing_from_the_corpus_are_skipped(self, small_synth,
                                                                  tmp_path, caplog):
        data, idf = small_synth
        qid = data.train_query_ids[0]
        qrels = JudgmentSet({**data.qrels.by_query,
                             qid: {**data.qrels.for_query(qid), "NOPE": 2, "NOPE2": 0}})
        val_qid = data.val_query_ids[0]
        run = data.runs[val_qid]
        runs = {**data.runs, val_qid: RunRanking(
            val_qid, [*run.entries, ("NOPE3", run.entries[-1][1] + 1, -1.0)])}
        with caplog.at_level("WARNING"):
            train(tiny_config(), data.docs, data.queries, qrels,
                  data.train_query_ids, data.val_query_ids, runs,
                  data.embeddings, idf, iterations=2,
                  batches_per_iteration=2, out_dir=tmp_path / "a")
            run_training(data, idf, tmp_path / "b", iterations=2, batches=2)
        skips = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
        assert skips == ["skipped 2 judged training documents not in the corpus, 0 positives "
                         "with no document in the next grade bucket down and 1 validation-run "
                         "documents not in the corpus"]
        # Dropping them leaves the groups, hence every sampled triple, and the
        # validation scores as they were.
        assert (tmp_path / "a" / "training_log.jsonl").read_bytes() == \
            (tmp_path / "b" / "training_log.jsonl").read_bytes()

    def test_batch_size_constant(self):
        assert BATCH_SIZE == 32


class TestFeatureCache:
    def test_train_keeps_only_judged_training_and_validation_pairs(self, small_synth, tmp_path,
                                                                   monkeypatch, caplog):
        data, idf = small_synth
        scorers, first_batch = [], []

        class Recording(Scorer):
            def __init__(self, *args):
                super().__init__(*args)
                scorers.append(self)

        def recording_batch(scorer, triples):
            first_batch.append(len(caplog.records))
            return train_batch(scorer, triples)

        monkeypatch.setattr(training, "Scorer", Recording)
        monkeypatch.setattr(training, "train_batch", recording_batch)
        with caplog.at_level("INFO", logger="pacrr.training"):
            run_training(data, idf, tmp_path, iterations=2, batches=2)
        [scorer] = scorers
        train_ids = set(data.train_query_ids)
        judged = {(qid, did) for qid in train_ids for did in data.qrels.for_query(qid)}
        val = {(qid, did) for qid in data.val_query_ids for did in data.runs[qid].doc_ids()}
        assert val <= set(scorer._distilled) <= judged | val
        assert scorer._keep == judged | val
        # The bound is logged once, before the first batch.
        bound = [i for i, r in enumerate(caplog.records) if "feature cache" in r.getMessage()]
        assert bound == [0] and first_batch[0] == 1
        assert caplog.records[0].levelname == "INFO"
        assert caplog.records[0].getMessage() == (
            f"feature cache holds at most {len(judged | val)} pairs: {len(judged)} judged "
            f"training pairs and {len(val)} validation pairs")

    def test_each_pair_train_scores_is_distilled_once(self, small_synth, tmp_path,
                                                      monkeypatch):
        # Every pair scored again is kept, so `train` distils once per
        # distinct pair, as when every pair was kept.
        data, idf = small_synth
        looked_up, distilled = [], []
        lookup, distill = Scorer.distilled, model.distill

        def counted_lookup(self, query_id, doc_id):
            looked_up.append((query_id, doc_id))
            return lookup(self, query_id, doc_id)

        monkeypatch.setattr(Scorer, "distilled", counted_lookup)
        monkeypatch.setattr(model, "distill", lambda *args: distilled.append(args) or
                            distill(*args))
        run_training(data, idf, tmp_path, iterations=3, batches=4)
        assert len(looked_up) == 3 * (4 * 2 * BATCH_SIZE + sum(
            len(data.runs[qid].entries) for qid in data.val_query_ids))
        assert len(distilled) == len(set(looked_up)) < len(looked_up)


class TestTrainBatch:
    def test_one_step_on_the_mean_hinge_loss(self, small_synth):
        data, idf = small_synth
        config = tiny_config()
        scorer = Scorer(config, init_params(config), data.queries, data.docs,
                        data.embeddings, idf)
        groups = build_groups(data.qrels, data.train_query_ids)
        rng = np.random.default_rng(0)
        triples = [sample_triple(rng, groups) for _ in range(4)]
        before = {g.name: g.value.copy() for g in scorer.params}
        losses = []
        summed = {name: np.zeros(value.shape) for name, value in before.items()}
        for t in triples:
            rel_pos, cache_pos = scorer.score_with_cache(t.query_id, t.pos_doc_id)
            rel_neg, cache_neg = scorer.score_with_cache(t.query_id, t.neg_doc_id)
            losses.append(hinge_loss(rel_pos, rel_neg))
            d_pos, d_neg = hinge_gradients(rel_pos, rel_neg)
            for cache, d_rel in ((cache_pos, d_pos), (cache_neg, d_neg)):
                for name, grad in score_gradients(scorer.params, config, cache,
                                                  d_rel).items():
                    summed[name] += grad
        assert sum(losses) > 0.0

        assert train_batch(scorer, triples) == sum(losses) / 4
        for group in scorer.params:
            want = before[group.name] - config.learning_rate * summed[group.name] / 4
            np.testing.assert_allclose(group.value, want, rtol=1e-5, err_msg=group.name)
