"""Pairwise max-margin training with validation-driven model selection."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import evaluation, neural
from .corpus import JudgmentSet, RunRanking
from .errors import ConfigError, DataError
from .model import (PacrrConfig, PacrrParams, Scorer, init_params, load_params,
                    save_params, score_gradients)

logger = logging.getLogger(__name__)

BATCH_SIZE = 32


@dataclass(frozen=True)
class Triple:
    query_id: str
    pos_doc_id: str
    neg_doc_id: str


@dataclass
class RelevanceGroups:
    """The drawable positives of the training queries, as (query, doc)
    lists, and each query's documents of the two lower grade buckets.

    A positive is drawable when its query has a document in the next bucket
    down: grade > 1 (HRel/Key/Nav) pairs with grade 1, and grade 1 with
    grade <= 0 (NRel and Junk). `unpaired` counts the positives left out.
    """

    relevant: dict[str, list[str]]
    non_relevant: dict[str, list[str]]
    highly_pairs: list[tuple[str, str]]
    relevant_pairs: list[tuple[str, str]]
    unpaired: int


def build_groups(qrels: JudgmentSet, train_query_ids) -> RelevanceGroups:
    """Bucket the judged documents of the training queries by grade and keep
    the drawable positives; raise DataError when there are none."""
    highly: dict[str, list[str]] = {}
    relevant: dict[str, list[str]] = {}
    non_relevant: dict[str, list[str]] = {}
    for qid in sorted(set(train_query_ids)):
        for did, grade in sorted(qrels.for_query(qid).items()):
            bucket = highly if grade > 1 else relevant if grade == 1 else non_relevant
            bucket.setdefault(qid, []).append(did)
    highly_pairs = [(q, d) for q in sorted(highly) if q in relevant for d in highly[q]]
    relevant_pairs = [(q, d) for q in sorted(relevant) if q in non_relevant
                      for d in relevant[q]]
    if not (highly_pairs or relevant_pairs):
        raise DataError("no positive documents available for sampling: no training query "
                        "has a grade > 1 and a grade 1 document, or a grade 1 and a "
                        "grade <= 0 document")
    unpaired = (sum(map(len, highly.values())) + sum(map(len, relevant.values()))
                - len(highly_pairs) - len(relevant_pairs))
    return RelevanceGroups(relevant, non_relevant, highly_pairs, relevant_pairs, unpaired)


def sample_triple(rng: np.random.Generator, groups: RelevanceGroups) -> Triple:
    """Draw one (query, d+, d-) training triple.

    The positive's bucket is chosen in proportion to its drawable positives;
    d+ is uniform within the bucket and carries its query, and d- is uniform
    over that query's documents in the next bucket down.
    """
    n_high = len(groups.highly_pairs)
    use_highly = rng.random() < n_high / (n_high + len(groups.relevant_pairs))
    pos_pairs, neg_lists = ((groups.highly_pairs, groups.relevant) if use_highly
                            else (groups.relevant_pairs, groups.non_relevant))
    qid, pos = pos_pairs[rng.integers(len(pos_pairs))]
    negatives = neg_lists[qid]
    return Triple(qid, pos, negatives[rng.integers(len(negatives))])


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


def _validation_metrics(scorer: Scorer, val_docs: dict[str, list[str]],
                        val_runs: dict[str, RunRanking], qrels: JudgmentSet):
    """Mean ERR@K and nDCG@K of `val_runs` re-ranked by scoring `val_docs`."""
    scores = scorer.score_runs(val_docs)
    reranked = {qid: evaluation.rerank_run(val_runs[qid], per_query, qrels)
                for qid, per_query in scores.items()}
    report = evaluation.report_for_runs(reranked, qrels)
    return report.mean_err, report.mean_ndcg


def _first_run_file(out_dir: Path) -> Path | None:
    """The first file of an earlier training run in `out_dir`, or None."""
    for path in (out_dir / "training_log.jsonl", out_dir / "best.pacrr"):
        if path.exists():
            return path
    return min((out_dir / "checkpoints").glob("iter_*"), default=None)


def train(config: PacrrConfig, docs, queries, qrels: JudgmentSet,
          train_query_ids, val_query_ids, val_runs: dict[str, RunRanking],
          embeddings, idf, *, iterations: int, batches_per_iteration: int,
          out_dir) -> tuple[PacrrParams, TrainState]:
    """Mini-batch max-margin training with per-iteration validation.

    Each iteration runs `batches_per_iteration` batches of BATCH_SIZE sampled
    triples, saves a checkpoint, and re-ranks the validation runs; the
    checkpoint with the highest validation ERR@K is returned. Checkpoint
    paths in the log are relative to `out_dir`, which is created only once
    every input has been checked. An `out_dir` that already holds a run's
    log, `best.pacrr` or a checkpoint is refused, and nothing in it is
    touched.
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
    out_dir = Path(out_dir)
    used = _first_run_file(out_dir)
    if used is not None:
        raise ConfigError(f"output directory {out_dir} already holds a training run "
                          f"({used}); train into a new directory")

    train_ids = set(train_query_ids)
    val_docs = {qid: [did for did, _, _ in val_runs[qid].entries if did in docs.doc_ids]
                for qid in val_query_ids}
    # Batches score judged training pairs and validation passes score
    # `val_docs`: the only pairs scored again, and so the only ones whose
    # features the scorer keeps, a bound known before the first batch.
    val_pairs = {(qid, did) for qid, kept in val_docs.items() for did in kept}
    judged: dict[str, dict[str, int]] = {}
    keep = set(val_pairs)
    absent = 0
    for qid in train_ids:
        judged[qid] = {did: grade for did, grade in qrels.for_query(qid).items()
                       if did in docs.doc_ids}
        absent += len(qrels.for_query(qid)) - len(judged[qid])
        keep.update((qid, did) for did in judged[qid])
    n_judged = sum(map(len, judged.values()))
    params = init_params(config)
    scorer = Scorer(config, params, queries, docs, embeddings, idf, keep)
    groups = build_groups(JudgmentSet(judged), train_ids)
    val_absent = sum(len(val_runs[qid].entries) - len(kept) for qid, kept in val_docs.items())
    if absent or groups.unpaired or val_absent:
        logger.warning("skipped %d judged training documents not in the corpus, %d "
                       "positives with no document in the next grade bucket down and %d "
                       "validation-run documents not in the corpus",
                       absent, groups.unpaired, val_absent)
    logger.info("feature cache holds at most %d pairs: %d judged training pairs and "
                "%d validation pairs", len(keep), n_judged, len(val_pairs))
    rng = np.random.default_rng([config.seed, 1])
    state = TrainState()

    (out_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
    with (out_dir / "training_log.jsonl").open("w", encoding="utf-8") as log_file:
        for iteration in range(1, iterations + 1):
            batch_losses = []
            for _ in range(batches_per_iteration):
                triples = [sample_triple(rng, groups) for _ in range(BATCH_SIZE)]
                batch_losses.append(train_batch(scorer, triples))

            ckpt_rel = f"checkpoints/iter_{iteration:04d}.pacrr"
            save_params(params, config, out_dir / ckpt_rel)
            val_err, val_ndcg = _validation_metrics(scorer, val_docs, val_runs, qrels)
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
