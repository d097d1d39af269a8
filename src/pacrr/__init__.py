"""Position-aware convolutional-recurrent relevance matching for re-ranking."""

from .corpus import (EmbeddingTable, IdfTable, JudgmentSet, Query, RunRanking,
                     TokenizedDocument, compute_idf, load_corpus,
                     load_embeddings, load_qrels, load_queries, load_run)
from .evaluation import (err_at_k, merge_grades, ndcg_at_k, pair_accuracy,
                         rerank_run)
from .model import (PacrrConfig, PacrrParams, Scorer, init_params, load_params,
                    save_params, score, score_gradients)
from .simmat import DistilledInput, build_sim_matrix, distill
from .training import Triple, build_groups, sample_triple, train

__version__ = "0.1.0"

__all__ = [
    "EmbeddingTable", "IdfTable", "JudgmentSet", "Query", "RunRanking",
    "TokenizedDocument", "compute_idf", "load_corpus", "load_embeddings",
    "load_qrels", "load_queries", "load_run",
    "err_at_k", "merge_grades", "ndcg_at_k", "pair_accuracy", "rerank_run",
    "PacrrConfig", "PacrrParams", "Scorer", "init_params", "load_params",
    "save_params", "score", "score_gradients",
    "DistilledInput", "build_sim_matrix", "distill",
    "Triple", "build_groups", "sample_triple", "train",
    "__version__",
]
