"""Graded retrieval metrics, run re-ranking, and pairwise label accuracy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .corpus import CANONICAL_GRADES, JudgmentSet, RunRanking
from .errors import DataError

# The metric cutoff: ERR@20 and nDCG@20, as the paper reports them.
K = 20

# Canonical grades collapse into four merged labels, strongest first; a
# label pair names its stronger label first.
MERGED_LABELS = ("Nav", "HRel", "Rel", "NRel")
_MERGED = {4: "Nav", 3: "HRel", 2: "HRel", 1: "Rel", 0: "NRel", -2: "NRel"}
PAIR_TYPES = tuple(combinations(MERGED_LABELS, 2))


def merge_grades(grade: int) -> str:
    """Collapse the canonical scale to {Nav, HRel, Rel, NRel}: Key(3) and
    HRel(2) merge to HRel, NRel(0) and Junk(-2) to NRel."""
    try:
        return _MERGED[grade]
    except KeyError:
        raise DataError(f"grade {grade} is not on the canonical scale") from None


def err_at_k(grades, k: int = K, g_max: int = max(CANONICAL_GRADES)) -> float:
    """Expected Reciprocal Rank truncated at k.

    ERR@k = sum_{r<=k} (1/r) R_r prod_{i<r} (1 - R_i) with
    R_r = (2^g_r - 1) / 2^g_max, grades clipped below at 0. g_max is the top
    grade of the scale (Nav = 4 on the canonical one), so R_r is in [0, 1].
    """
    err = 0.0
    not_stopped = 1.0
    for rank, grade in enumerate(grades[:k], start=1):
        grade = max(grade, 0)
        if grade > g_max:
            raise ValueError(f"grade {grade} is above the top grade g_max = {g_max}")
        r = math.ldexp(2.0 ** grade - 1.0, -g_max)
        err += not_stopped * r / rank
        not_stopped *= 1.0 - r
    return err


def ndcg_at_k(ranked_grades, judged_grades, k: int = K) -> float:
    """Normalized DCG at k; the ideal ranking uses every judged grade for the
    query. Returns 0 when the ideal DCG is 0."""

    def dcg(grades):
        return sum(
            (2.0 ** max(g, 0) - 1.0) / math.log2(rank + 1)
            for rank, g in enumerate(grades[:k], start=1)
        )

    ideal = dcg(sorted(judged_grades, reverse=True))
    if ideal == 0.0:
        return 0.0
    return dcg(ranked_grades) / ideal


def rerank_run(run: RunRanking, scores: dict[str, float], qrels: JudgmentSet) -> RunRanking:
    """Re-rank the judged-and-scored documents of a run by descending score;
    score ties keep the original order."""
    judged = qrels.for_query(run.query_id)
    kept = [e for e in run.entries if e[0] in judged and e[0] in scores]
    kept.sort(key=lambda e: (-scores[e[0]], e[1]))
    return RunRanking(
        run.query_id,
        [(doc_id, i, float(scores[doc_id])) for i, (doc_id, _, _) in enumerate(kept, start=1)],
    )


@dataclass
class QueryMetrics:
    query_id: str
    err: float
    ndcg: float


@dataclass
class MetricReport:
    per_query: list[QueryMetrics]
    mean_err: float
    mean_ndcg: float

    def to_json_records(self) -> list[dict]:
        key_err, key_ndcg = f"err{K}", f"ndcg{K}"
        records = [
            {"query_id": m.query_id, key_err: m.err, key_ndcg: m.ndcg}
            for m in self.per_query
        ]
        records.append({"query_id": "all", key_err: self.mean_err, key_ndcg: self.mean_ndcg})
        return records


def run_metrics(run: RunRanking, qrels: JudgmentSet) -> QueryMetrics:
    """ERR@K and nDCG@K of one ranked list; unjudged documents score as
    grade 0."""
    judged = qrels.for_query(run.query_id)
    grades = [judged.get(doc_id, 0) for doc_id in run.doc_ids()]
    return QueryMetrics(
        query_id=run.query_id,
        err=err_at_k(grades),
        ndcg=ndcg_at_k(grades, list(judged.values())),
    )


def report_for_runs(runs: dict[str, RunRanking], qrels: JudgmentSet) -> MetricReport:
    per_query = [run_metrics(runs[qid], qrels) for qid in sorted(runs)]
    n = len(per_query)
    return MetricReport(
        per_query=per_query,
        mean_err=sum(m.err for m in per_query) / n if n else 0.0,
        mean_ndcg=sum(m.ndcg for m in per_query) / n if n else 0.0,
    )


@dataclass
class PairTypeStats:
    n_pairs: int
    n_queries: int
    accuracy: float
    volume: float


@dataclass
class PairAccuracyReport:
    stats: dict[tuple[str, str], PairTypeStats]
    total_pairs: int
    weighted_average: float

    def to_dict(self) -> dict:
        return {
            "pairs": [
                {
                    "label_pair": f"{higher}-{lower}",
                    "accuracy": s.accuracy,
                    "volume": s.volume,
                    "n_pairs": s.n_pairs,
                    "n_queries": s.n_queries,
                }
                for (higher, lower), s in self.stats.items()
            ],
            "total_pairs": self.total_pairs,
            "weighted_average": self.weighted_average,
        }


def pair_accuracy(scores: dict[str, dict[str, float]], qrels: JudgmentSet) -> PairAccuracyReport:
    """Accuracy of pairwise orderings between documents with different merged
    labels, per label pair.

    For each query, every pair of judged-and-scored documents whose merged
    labels differ counts once; the pair is correct iff the higher-labeled
    document's score is strictly greater (ties are incorrect). The weighted
    average weights each label pair's accuracy by its share of all pairs.
    """
    counts = {pt: [0, 0] for pt in PAIR_TYPES}  # [pairs, correct]
    queries_with = {pt: set() for pt in PAIR_TYPES}
    for qid in sorted(scores):
        judged, per_query = qrels.for_query(qid), scores[qid]
        # Strongest label first, so each pair below is (higher, lower).
        docs = sorted((MERGED_LABELS.index(merge_grades(judged[d])), d)
                      for d in per_query if d in judged)
        for (hi, hi_doc), (lo, lo_doc) in combinations(docs, 2):
            if hi == lo:
                continue
            key = (MERGED_LABELS[hi], MERGED_LABELS[lo])
            counts[key][0] += 1
            queries_with[key].add(qid)
            if per_query[hi_doc] > per_query[lo_doc]:
                counts[key][1] += 1
    total = sum(c[0] for c in counts.values())
    stats: dict[tuple[str, str], PairTypeStats] = {}
    weighted = 0.0
    for pt in PAIR_TYPES:
        n_pairs, n_correct = counts[pt]
        accuracy = n_correct / n_pairs if n_pairs else 0.0
        volume = n_pairs / total if total else 0.0
        weighted += accuracy * volume
        stats[pt] = PairTypeStats(n_pairs=n_pairs, n_queries=len(queries_with[pt]),
                                  accuracy=accuracy, volume=volume)
    return PairAccuracyReport(stats=stats, total_pairs=total, weighted_average=weighted)
