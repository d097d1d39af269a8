"""Acceptance suite: one test per criterion, each at a fixed tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion. The end-to-end training fixture is shared between the synthetic
benchmark criterion and the determinism criterion (which repeats the full run
with the same seed and compares artifacts byte for byte).
"""

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from helpers import assert_kept_columns, kmax_oracle, kwindow_oracle
from pacrr import evaluation, neural, synth, training
from pacrr.corpus import compute_idf, save_run
from pacrr.gradcheck import TINY_CONFIG_KWARGS, gradcheck_report
from pacrr.model import PacrrConfig, Scorer, init_params, load_params, save_params
from pacrr.simmat import KWINDOW, distill

TINY = dict(l_q=4, l_d=12, l_g=3, n_f=4, n_s=2)
GRADCHECK_TOL = 1e-4


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    print(f"[criterion {number}] {name}: PASS")


def test_criterion_1_paper_scale_substitution():
    with criterion(1, "paper-scale substitution"):
        # Reported full-collection numbers need ClueWeb09/12, the TREC runs,
        # and 300-query qrels, none of which exist at desk scale; criteria
        # 2-8 below are the property-based and oracle substitutes.
        assert callable(gradcheck_report) and callable(synth.generate)


def test_criterion_2_gradient_integrity():
    with criterion(2, "gradient integrity"):
        start = time.monotonic()
        assert TINY_CONFIG_KWARGS == TINY
        results = gradcheck_report(seed=0)
        elapsed = time.monotonic() - start
        expected = {"conv2d", "max_over_filters", "kmax_per_row", "softmax",
                    "recurrent_sequence", "hinge_loss", "pipeline_firstk",
                    "pipeline_kwindow"}
        assert set(results) == expected
        for name, result in results.items():
            assert result.max_rel_error < GRADCHECK_TOL, (name, result)
            assert result.checked > 0, name
        assert elapsed < 60.0


def test_criterion_3_distillation_oracles():
    with criterion(3, "distillation oracles"):
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n_q = int(rng.integers(1, 6))
            n_d = int(rng.integers(0, 41))
            n = int(rng.integers(1, 4))
            l_q = n_q + int(rng.integers(0, 3))
            l_d = int(rng.integers(n, 16))
            values = rng.uniform(-1.0, 1.0, (n_q, n_d))
            got = distill(values, KWINDOW, l_d, n).per_n[n]
            want = kwindow_oracle(values.tolist(), n, l_q, l_d)
            assert_kept_columns(got, want[:n_q].astype(np.float32))
        for _ in range(1000):
            width = int(rng.integers(1, 30))
            k = int(rng.integers(1, 8))
            row = rng.uniform(-1.0, 1.0, (1, width))
            out, _ = neural.kmax_per_row(row, k)
            np.testing.assert_array_equal(out[0], kmax_oracle(row[0].tolist(), k))
        assert time.monotonic() - start < 30.0


def test_criterion_4_metric_oracles():
    with criterion(4, "metric oracles"):
        assert abs(evaluation.err_at_k([4], 20, 4) - 0.9375) < 1e-9
        assert abs(evaluation.err_at_k([4, 1], 20, 4) - 0.939453125) < 1e-9
        assert evaluation.err_at_k([0, 0, 0]) == 0.0
        assert abs(evaluation.ndcg_at_k([0, 1], [1, 0]) - 1.0 / np.log2(3)) < 1e-9
        assert evaluation.ndcg_at_k([0, 0], [0]) == 0.0

        # every permutation of every grade multiset of length <= 5, grades <= 4
        for length in range(1, 6):
            for grades in itertools.product(range(5), repeat=length):
                base = evaluation.err_at_k(list(grades), k=5, g_max=4)
                for i in range(length):
                    for j in range(i + 1, length):
                        if grades[j] > grades[i]:
                            swapped = list(grades)
                            swapped[i], swapped[j] = swapped[j], swapped[i]
                            better = evaluation.err_at_k(swapped, k=5, g_max=4)
                            assert better >= base - 1e-15

        rng = np.random.default_rng(4)
        checked = 0
        while checked < 100:
            judged = list(rng.integers(0, 5, int(rng.integers(1, 12))))
            if max(judged) == 0:
                continue
            ranked = sorted(judged, reverse=True)
            assert abs(evaluation.ndcg_at_k(ranked, judged) - 1.0) < 1e-9
            checked += 1


def test_criterion_5_memorization():
    with criterion(5, "memorization"):
        start = time.monotonic()
        spec = synth.SynthSpec(n_docs=60, n_train_queries=6, n_val_queries=2, seed=11)
        data = synth.generate(spec)
        idf = compute_idf(data.docs)
        config = PacrrConfig(mode="kwindow", learning_rate=0.1, seed=42, **TINY)
        params = init_params(config)
        scorer = Scorer(config, params, data.queries, data.docs, data.embeddings, idf)

        triples = []
        for qid in data.train_query_ids:
            judged = data.qrels.for_query(qid)
            pos = sorted(d for d, g in judged.items() if g >= 1)
            neg = sorted(d for d, g in judged.items() if g == 0)
            if pos and neg:
                triples.append(training.Triple(qid, pos[0], neg[0]))
                if len(triples) < 8 and len(pos) > 1:
                    triples.append(training.Triple(qid, pos[1], neg[min(1, len(neg) - 1)]))
            if len(triples) >= 8:
                break
        triples = triples[:8]
        assert len(triples) == 8

        final_loss = None
        for step in range(500):
            final_loss = training.train_batch(scorer, triples)
            if final_loss < 0.05:
                break
        elapsed = time.monotonic() - start
        assert final_loss is not None and final_loss < 0.05, final_loss
        assert elapsed < 60.0


# ---------------------------------------------------------------------------
# End-to-end synthetic benchmark (criteria 6 and 8)

E2E_SPEC = synth.SynthSpec(n_docs=500, n_train_queries=30, n_val_queries=10, seed=7)
E2E_CONFIG = PacrrConfig(mode="kwindow", learning_rate=0.1, seed=42, **TINY)
E2E_ITERATIONS = 20  # within the allowed 50 x 64-batch budget
E2E_BATCHES = 64


@dataclass
class E2ERun:
    out_dir: Path
    state: training.TrainState
    rerank_path: Path
    elapsed: float
    pair_report: evaluation.PairAccuracyReport
    per_query_err: list[tuple[str, float, float]]  # (qid, before, after)


def _run_e2e(data, idf, out_dir: Path) -> E2ERun:
    start = time.monotonic()
    params, state = training.train(
        E2E_CONFIG, data.docs, data.queries, data.qrels, data.train_query_ids,
        data.val_query_ids, data.runs, data.embeddings, idf,
        iterations=E2E_ITERATIONS, batches_per_iteration=E2E_BATCHES,
        out_dir=out_dir,
    )
    scorer = Scorer(E2E_CONFIG, params, data.queries, data.docs,
                    data.embeddings, idf)
    val_scores = {}
    reranked = {}
    per_query_err = []
    for qid in data.val_query_ids:
        judged = data.qrels.for_query(qid)
        scores, _ = scorer.score_docs(qid, sorted(judged))
        val_scores[qid] = scores
        run = data.runs[qid]
        identity = {d: -rank for d, rank, _ in run.entries}
        before = evaluation.run_metrics(
            evaluation.rerank_run(run, identity, data.qrels), data.qrels)
        after_run = evaluation.rerank_run(
            run, {d: scores[d] for d in run.doc_ids()}, data.qrels)
        after = evaluation.run_metrics(after_run, data.qrels)
        reranked[qid] = after_run
        per_query_err.append((qid, before.err, after.err))
    rerank_path = out_dir / "reranked_run.txt"
    save_run(reranked, rerank_path)
    pair_report = evaluation.pair_accuracy(val_scores, data.qrels)
    return E2ERun(
        out_dir=out_dir,
        state=state,
        rerank_path=rerank_path,
        elapsed=time.monotonic() - start,
        pair_report=pair_report,
        per_query_err=per_query_err,
    )


@pytest.fixture(scope="session")
def e2e_runs(tmp_path_factory):
    data = synth.generate(E2E_SPEC)
    idf = compute_idf(data.docs)
    root = tmp_path_factory.mktemp("e2e")
    run_a = _run_e2e(data, idf, root / "run_a")
    run_b = _run_e2e(data, idf, root / "run_b")
    return run_a, run_b


def test_criterion_6_synthetic_end_to_end(e2e_runs):
    with criterion(6, "synthetic end-to-end"):
        run_a, _ = e2e_runs
        rel_nrel = run_a.pair_report.stats[("Rel", "NRel")]
        assert rel_nrel.n_pairs > 0
        assert rel_nrel.accuracy >= 0.90, rel_nrel
        wins = sum(1 for _, before, after in run_a.per_query_err if after > before)
        assert wins >= 8, run_a.per_query_err
        assert run_a.elapsed < 600.0


def test_criterion_7_sampling_fidelity():
    with criterion(7, "sampling fidelity"):
        spec = synth.SynthSpec(n_docs=400, n_train_queries=20, n_val_queries=5,
                               p_bigram=0.3, p_scatter=0.3, seed=23)
        data = synth.generate(spec)
        groups = training.build_groups(data.qrels, data.train_query_ids)
        n_high = len(groups.highly_pairs)
        n_rel = len(groups.relevant_pairs)
        assert n_high > 0 and n_rel > 0
        expected_high = n_high / (n_high + n_rel)

        rng = np.random.default_rng(101)
        draws = 100_000
        high_count = 0
        for _ in range(draws):
            triple = training.sample_triple(rng, groups)
            judged = data.qrels.for_query(triple.query_id)
            pos, neg = judged[triple.pos_doc_id], judged[triple.neg_doc_id]
            assert pos > neg
            if pos > 1:
                high_count += 1
        observed = high_count / draws
        assert abs(observed - expected_high) <= 0.01, (observed, expected_high)


def test_criterion_8_determinism_and_persistence(e2e_runs):
    with criterion(8, "determinism and persistence"):
        run_a, run_b = e2e_runs
        log_a = (run_a.out_dir / "training_log.jsonl").read_bytes()
        log_b = (run_b.out_dir / "training_log.jsonl").read_bytes()
        assert log_a == log_b

        ckpts_a = sorted((run_a.out_dir / "checkpoints").glob("*.pacrr"))
        ckpts_b = sorted((run_b.out_dir / "checkpoints").glob("*.pacrr"))
        assert [p.name for p in ckpts_a] == [p.name for p in ckpts_b]
        assert len(ckpts_a) == E2E_ITERATIONS
        for a, b in zip(ckpts_a, ckpts_b):
            assert a.read_bytes() == b.read_bytes(), a.name

        assert run_a.rerank_path.read_bytes() == run_b.rerank_path.read_bytes()

        # checkpoint round-trip is bit-exact
        best = run_a.out_dir / run_a.state.best_checkpoint_path
        params, config = load_params(best)
        resaved = run_a.out_dir / "roundtrip.pacrr"
        save_params(params, config, resaved)
        assert best.read_bytes() == resaved.read_bytes()


def test_training_log_records_are_well_formed(e2e_runs):
    run_a, _ = e2e_runs
    lines = (run_a.out_dir / "training_log.jsonl").read_text().splitlines()
    assert len(lines) == E2E_ITERATIONS
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"iteration", "mean_loss", "val_err20",
                               "val_ndcg20", "checkpoint_path"}
