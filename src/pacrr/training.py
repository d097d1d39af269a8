"""Pairwise max-margin training with validation-driven model selection."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import evaluation, neural
from .corpus import JudgmentSet, RunRanking
from .errors import DataError
from .model import (PacrrConfig, PacrrParams, Scorer, init_params, load_params,
                    save_params, score_gradients)

logger = logging.getLogger(__name__)

BATCH_SIZE = 32
MAX_SAMPLE_ATTEMPTS = 1000


@dataclass(frozen=True)
class Triple:
    query_id: str
    pos_doc_id: str
    neg_doc_id: str


@dataclass
class RelevanceGroups:
    """Per-query grade buckets plus flattened (query, doc) candidate lists.

    highly: grade > 1 (HRel/Key/Nav); relevant: grade == 1; non_relevant:
    grade <= 0 (NRel and Junk).
    """

    highly: dict[str, list[str]]
    relevant: dict[str, list[str]]
    non_relevant: dict[str, list[str]]
    highly_pairs: list[tuple[str, str]]
    relevant_pairs: list[tuple[str, str]]


def build_groups(qrels: JudgmentSet, train_query_ids) -> RelevanceGroups:
    """Bucket the judged documents of the training queries by grade."""
    train_ids = set(train_query_ids)
    highly: dict[str, list[str]] = {}
    relevant: dict[str, list[str]] = {}
    non_relevant: dict[str, list[str]] = {}
    for (qid, did), grade in sorted(qrels.entries.items()):
        if qid not in train_ids:
            continue
        if grade > 1:
            highly.setdefault(qid, []).append(did)
        elif grade == 1:
            relevant.setdefault(qid, []).append(did)
        else:
            non_relevant.setdefault(qid, []).append(did)
    highly_pairs = [(q, d) for q in sorted(highly) for d in highly[q]]
    relevant_pairs = [(q, d) for q in sorted(relevant) for d in relevant[q]]
    return RelevanceGroups(highly, relevant, non_relevant, highly_pairs, relevant_pairs)


def require_sampleable(groups: RelevanceGroups) -> None:
    """Raise DataError unless some positive exists and each non-empty
    positive bucket, which `sample_triple` may draw, holds one whose query
    has a negative in the next bucket."""
    if not (groups.highly_pairs or groups.relevant_pairs):
        raise DataError("no positive documents available for sampling")
    for pairs, negatives, pos, neg in ((groups.highly_pairs, groups.relevant, "> 1", "1"),
                                       (groups.relevant_pairs, groups.non_relevant, "1", "<= 0")):
        if pairs and not any(qid in negatives for qid, _ in pairs):
            raise DataError(f"degenerate training set: no training query with a grade {pos} "
                            f"document has a grade {neg} document to pair it with")


def sample_triple(rng: np.random.Generator, groups: RelevanceGroups) -> Triple:
    """Draw one (query, d+, d-) training triple.

    The positive's group is chosen with probability proportional to the
    global group sizes; d+ is uniform within the group and carries its query;
    the negative comes from the next grade bucket of that query. Positives
    whose query has no eligible negative are rejected and redrawn.
    """
    n_high = len(groups.highly_pairs)
    n_rel = len(groups.relevant_pairs)
    if n_high + n_rel == 0:
        raise DataError("no positive documents available for sampling")
    use_highly = rng.random() < n_high / (n_high + n_rel)
    pos_pairs = groups.highly_pairs if use_highly else groups.relevant_pairs
    neg_lists = groups.relevant if use_highly else groups.non_relevant
    for _ in range(MAX_SAMPLE_ATTEMPTS):
        qid, pos = pos_pairs[rng.integers(len(pos_pairs))]
        negatives = neg_lists.get(qid)
        if negatives:
            neg = negatives[rng.integers(len(negatives))]
            return Triple(qid, pos, neg)
    raise DataError(
        f"degenerate training set: {MAX_SAMPLE_ATTEMPTS} consecutive rejections while "
        "sampling a negative document"
    )


def train_batch(scorer: Scorer, triples: list[Triple]) -> float:
    """One SGD step on the mean hinge loss of `triples`; returns that loss.
    Each active triple's gradients, scaled by 1/len(triples), are summed in
    the parameters' dtype, positive before negative."""
    params, config = scorer.params, scorer.config
    grads = {g.name: np.zeros_like(g.value) for g in params}
    scale = 1.0 / len(triples)
    total_loss = 0.0
    for triple in triples:
        rel_pos, cache_pos = scorer.score_with_cache(triple.query_id, triple.pos_doc_id)
        rel_neg, cache_neg = scorer.score_with_cache(triple.query_id, triple.neg_doc_id)
        total_loss += neural.hinge_loss(rel_pos, rel_neg)
        d_pos, d_neg = neural.hinge_gradients(rel_pos, rel_neg)
        if d_pos != 0.0:
            for cache, d_rel in ((cache_pos, d_pos), (cache_neg, d_neg)):
                for name, grad in score_gradients(params, config, cache,
                                                  d_rel * scale).items():
                    grads[name] += grad
    neural.sgd_step(params, grads, config.learning_rate)
    return total_loss / len(triples)


@dataclass
class IterationLog:
    iteration: int
    mean_loss: float
    val_err: float
    val_ndcg: float
    checkpoint_path: str

    def to_record(self) -> dict:
        return {
            "iteration": self.iteration,
            "mean_loss": self.mean_loss,
            f"val_err{evaluation.K}": self.val_err,
            f"val_ndcg{evaluation.K}": self.val_ndcg,
            "checkpoint_path": self.checkpoint_path,
        }


@dataclass
class TrainState:
    logs: list[IterationLog] = field(default_factory=list)
    best_iteration: int = 0
    best_err: float = -1.0
    best_checkpoint_path: str = ""


def _validation_metrics(scorer: Scorer, val_runs: dict[str, RunRanking],
                        qrels: JudgmentSet):
    scores = scorer.score_runs({qid: run.doc_ids() for qid, run in val_runs.items()})
    reranked = {qid: evaluation.rerank_run(val_runs[qid], per_query, qrels)
                for qid, per_query in scores.items()}
    report = evaluation.report_for_runs(reranked, qrels)
    return report.mean_err, report.mean_ndcg


def train(config: PacrrConfig, docs, queries, qrels: JudgmentSet,
          train_query_ids, val_query_ids, val_runs: dict[str, RunRanking],
          embeddings, idf, *, iterations: int = 150,
          batches_per_iteration: int = 64, out_dir) -> tuple[PacrrParams, TrainState]:
    """Mini-batch max-margin training with per-iteration validation.

    Each iteration runs `batches_per_iteration` batches of BATCH_SIZE sampled
    triples, saves a checkpoint, and re-ranks the validation runs; the
    checkpoint with the highest validation ERR@K is returned. Checkpoint
    paths in the log are relative to `out_dir`, which is created only once
    every input has been checked.
    """
    if iterations < 1 or batches_per_iteration < 1:
        raise ValueError("iterations and batches_per_iteration must be >= 1")
    if not val_query_ids:
        raise DataError("no validation queries to select a model: val_qids is empty")
    missing_runs = [qid for qid in val_query_ids if qid not in val_runs]
    if missing_runs:
        raise DataError(f"validation run missing queries: {missing_runs}")
    known = {q.query_id for q in queries}
    for role, ids in (("training", train_query_ids), ("validation", val_query_ids)):
        absent = [qid for qid in ids if qid not in known]
        if absent:
            raise DataError(f"{role} query ids missing from the query file: {absent}")
    val_runs = {qid: val_runs[qid] for qid in val_query_ids}

    params = init_params(config)
    scorer = Scorer(config, params, queries, docs, embeddings, idf)
    absent = {(qid, did) for qid in set(train_query_ids) for did in qrels.for_query(qid)
              if did not in scorer.docs}
    train_qrels = qrels
    if absent:
        logger.warning("skipped %d judged training documents not in the corpus", len(absent))
        train_qrels = JudgmentSet({key: grade for key, grade in qrels.entries.items()
                                   if key not in absent})
    groups = build_groups(train_qrels, train_query_ids)
    require_sampleable(groups)
    rng = np.random.default_rng([config.seed, 1])
    state = TrainState()

    out_dir = Path(out_dir)
    (out_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
    with (out_dir / "training_log.jsonl").open("w", encoding="utf-8") as log_file:
        for iteration in range(1, iterations + 1):
            batch_losses = []
            for _ in range(batches_per_iteration):
                triples = [sample_triple(rng, groups) for _ in range(BATCH_SIZE)]
                batch_losses.append(train_batch(scorer, triples))

            ckpt_rel = f"checkpoints/iter_{iteration:04d}.pacrr"
            save_params(params, config, out_dir / ckpt_rel)
            val_err, val_ndcg = _validation_metrics(scorer, val_runs, qrels)
            entry = IterationLog(
                iteration=iteration,
                mean_loss=sum(batch_losses) / len(batch_losses),
                val_err=val_err,
                val_ndcg=val_ndcg,
                checkpoint_path=ckpt_rel,
            )
            state.logs.append(entry)
            log_file.write(json.dumps(entry.to_record(), sort_keys=True) + "\n")
            log_file.flush()
            if val_err > state.best_err:
                state.best_err = val_err
                state.best_iteration = iteration
                state.best_checkpoint_path = ckpt_rel
            logger.info("iteration %d: loss %.4f, val ERR@%d %.4f",
                        iteration, entry.mean_loss, evaluation.K, val_err)

    best_params, _ = load_params(out_dir / state.best_checkpoint_path)
    return best_params, state
