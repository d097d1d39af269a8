import itertools
import math

import numpy as np
import pytest

from helpers import err_oracle
from pacrr.corpus import CANONICAL_GRADES, JudgmentSet, RunRanking
from pacrr.errors import DataError
from pacrr.evaluation import (PAIR_TYPES, err_at_k, merge_grades, ndcg_at_k,
                              pair_accuracy, rerank_run, report_for_runs,
                              run_metrics)


class TestMergeGrades:
    @pytest.mark.parametrize("grade,label", [
        (4, "Nav"), (3, "HRel"), (2, "HRel"), (1, "Rel"), (0, "NRel"), (-2, "NRel"),
    ])
    def test_mapping(self, grade, label):
        assert merge_grades(grade) == label

    def test_unknown_grade(self):
        with pytest.raises(DataError):
            merge_grades(5)


class TestErrAtK:
    def test_all_zero(self):
        assert err_at_k([0, 0, 0]) == 0.0

    def test_single_nav_document(self):
        assert err_at_k([4], k=20, g_max=4) == 15.0 / 16.0

    def test_two_documents(self):
        assert err_at_k([4, 1], k=20, g_max=4) == pytest.approx(0.939453125, abs=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            grades = list(rng.integers(-2, 5, int(rng.integers(1, 10))))
            assert err_at_k(grades, 5, 4) == pytest.approx(
                err_oracle(grades, 5, 4), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            grades = list(rng.integers(0, 5, int(rng.integers(1, 30))))
            value = err_at_k(grades)
            assert 0.0 <= value < 1.0

    def test_in_unit_interval_on_every_short_canonical_list(self):
        for length in range(6):
            for grades in itertools.product(sorted(CANONICAL_GRADES), repeat=length):
                assert 0.0 <= err_at_k(list(grades), k=20, g_max=4) <= 1.0

    @pytest.mark.parametrize("grades, g_max", [([4, 4], 1), ([2], 1), ([1], 1024)])
    def test_grade_above_g_max_raises_and_large_g_max_stays_in_range(self, grades, g_max):
        if max(grades) > g_max:
            with pytest.raises(ValueError, match="g_max"):
                err_at_k(grades, 20, g_max)
        else:
            assert 0.0 <= err_at_k(grades, 20, g_max) <= 1.0

    def test_monotone_under_improving_swaps(self):
        # brute force over short lists: moving a higher grade earlier never hurts
        for grades in itertools.product(range(5), repeat=4):
            base = err_at_k(list(grades), k=4, g_max=4)
            for i in range(4):
                for j in range(i + 1, 4):
                    if grades[j] > grades[i]:
                        swapped = list(grades)
                        swapped[i], swapped[j] = swapped[j], swapped[i]
                        assert err_at_k(swapped, k=4, g_max=4) >= base - 1e-15


class TestNdcgAtK:
    def test_ideal_ordering_is_one(self):
        assert ndcg_at_k([3, 2, 1, 0], [0, 1, 2, 3]) == pytest.approx(1.0)

    def test_no_relevant_judged(self):
        assert ndcg_at_k([0, 0], [0, 0, 0]) == 0.0

    def test_hand_value(self):
        assert ndcg_at_k([0, 1], [1, 0]) == pytest.approx(1.0 / math.log2(3), abs=1e-12)

    def test_ideal_is_one_on_random_sets(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            judged = list(rng.integers(0, 5, int(rng.integers(1, 15))))
            if max(judged) == 0:
                continue
            ranked = sorted(judged, reverse=True)
            assert ndcg_at_k(ranked, judged) == pytest.approx(1.0, abs=1e-12)

    def test_junk_grades_do_not_go_negative(self):
        value = ndcg_at_k([-2, 1], [1, -2])
        assert 0.0 <= value <= 1.0


def _run(qid, doc_ids):
    return RunRanking(qid, [(d, i, float(10 - i)) for i, d in enumerate(doc_ids, 1)])


class TestRerankRun:
    def test_reversal(self):
        qrels = JudgmentSet({"q": {d: 1 for d in "abc"}})
        run = _run("q", ["a", "b", "c"])
        out = rerank_run(run, {"a": 1.0, "b": 2.0, "c": 3.0}, qrels)
        assert out.doc_ids() == ["c", "b", "a"]

    def test_constant_scores_preserve_order(self):
        qrels = JudgmentSet({"q": {d: 1 for d in "abc"}})
        run = _run("q", ["a", "b", "c"])
        out = rerank_run(run, {d: 0.5 for d in "abc"}, qrels)
        assert out.doc_ids() == ["a", "b", "c"]

    def test_unjudged_documents_dropped(self):
        qrels = JudgmentSet({"q": {"a": 1, "c": 0}})
        run = _run("q", ["a", "b", "c"])
        out = rerank_run(run, {"a": 1.0, "b": 5.0, "c": 2.0}, qrels)
        assert out.doc_ids() == ["c", "a"]

    def test_output_is_permutation_of_judged_scored_input(self):
        rng = np.random.default_rng(3)
        docs = [f"d{i}" for i in range(20)]
        qrels = JudgmentSet({"q": {d: int(rng.integers(0, 3)) for d in docs[:15]}})
        run = _run("q", docs)
        scores = {d: float(rng.uniform()) for d in docs[5:]}
        out = rerank_run(run, scores, qrels)
        expected = {d for d in docs if d in qrels.for_query("q") and d in scores}
        assert set(out.doc_ids()) == expected
        assert [r for _, r, _ in out.entries] == list(range(1, len(expected) + 1))


class TestRunMetrics:
    def test_report_aggregates_means(self):
        qrels = JudgmentSet({"q1": {"a": 4}, "q2": {"a": 0}})
        runs = {"q1": _run("q1", ["a"]), "q2": _run("q2", ["a"])}
        report = report_for_runs(runs, qrels)
        per = {m.query_id: m.err for m in report.per_query}
        assert per["q1"] == 15.0 / 16.0 and per["q2"] == 0.0
        assert report.mean_err == pytest.approx((15.0 / 16.0) / 2)

    def test_unjudged_scored_as_zero(self):
        qrels = JudgmentSet({"q1": {"b": 1}})
        metrics = run_metrics(_run("q1", ["a", "b"]), qrels)
        assert metrics.err == pytest.approx(err_at_k([0, 1]))


class TestPairAccuracy:
    def test_perfect_scorer(self):
        qrels = JudgmentSet({"q": {"a": 4, "b": 2, "c": 1, "d": 0}})
        scores = {"q": {"a": 4.0, "b": 2.0, "c": 1.0, "d": 0.0}}
        report = pair_accuracy(scores, qrels)
        for stats in report.stats.values():
            if stats.n_pairs:
                assert stats.accuracy == 1.0
        assert report.weighted_average == pytest.approx(1.0)

    def test_negated_scorer(self):
        qrels = JudgmentSet({"q": {"a": 4, "b": 1, "c": 0}})
        scores = {"q": {"a": -4.0, "b": -1.0, "c": 0.0}}
        report = pair_accuracy(scores, qrels)
        assert report.weighted_average == 0.0

    def test_three_label_worked_example(self):
        qrels = JudgmentSet({"q": {"a": 4, "b": 1, "c": 0}})
        scores = {"q": {"a": 3.0, "b": 1.0, "c": 2.0}}
        report = pair_accuracy(scores, qrels)
        assert report.stats[("Nav", "Rel")].accuracy == 1.0
        assert report.stats[("Nav", "NRel")].accuracy == 1.0
        assert report.stats[("Rel", "NRel")].accuracy == 0.0
        assert report.weighted_average == pytest.approx(2.0 / 3.0)

    def test_volume_shares_sum_to_one(self):
        rng = np.random.default_rng(4)
        by_query = {}
        scores = {}
        for qi in range(5):
            qid = f"q{qi}"
            by_query[qid], scores[qid] = {}, {}
            for di in range(8):
                did = f"d{di}"
                by_query[qid][did] = int(rng.choice([-2, 0, 1, 2, 3, 4]))
                scores[qid][did] = float(rng.uniform())
        report = pair_accuracy(scores, JudgmentSet(by_query))
        assert sum(s.volume for s in report.stats.values()) == pytest.approx(1.0)
        recomputed = sum(s.accuracy * s.volume for s in report.stats.values())
        assert report.weighted_average == pytest.approx(recomputed)

    def test_scorer_plus_negation_sums_to_one_without_ties(self):
        rng = np.random.default_rng(5)
        qrels = JudgmentSet({"q": {f"d{i}": int(rng.choice([0, 1, 2, 4])) for i in range(10)}})
        base = {f"d{i}": float(i) * 1.37 for i in range(10)}  # all distinct
        fwd = pair_accuracy({"q": base}, qrels)
        rev = pair_accuracy({"q": {d: -s for d, s in base.items()}}, qrels)
        for pt in PAIR_TYPES:
            if fwd.stats[pt].n_pairs:
                assert fwd.stats[pt].accuracy + rev.stats[pt].accuracy == pytest.approx(1.0)

    def test_ties_count_as_incorrect(self):
        qrels = JudgmentSet({"q": {"a": 1, "b": 0}})
        report = pair_accuracy({"q": {"a": 0.5, "b": 0.5}}, qrels)
        assert report.stats[("Rel", "NRel")].accuracy == 0.0
