"""Synthetic corpus generator with planted positional relevance.

A document is graded against a query by a fixed rule: grade 2 if it contains
two adjacent query terms contiguously (a query bigram), grade 1 if it
contains at least two distinct query terms, else grade 0. Each document
plants one of these classes for a round-robin-assigned target query, so
bigram-aware models can be separated from unigram-overlap ranking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import (Corpus, EmbeddingTable, JudgmentSet, Query, RunRanking, save_corpus,
                     save_embeddings, save_qrels, save_queries, save_run, write_atomic)


@dataclass(frozen=True)
class SynthSpec:
    n_docs: int = 500
    n_train_queries: int = 30
    n_val_queries: int = 10
    vocab_size: int = 200
    emb_dim: int = 32
    doc_len_min: int = 20
    doc_len_max: int = 40
    query_len_min: int = 2
    query_len_max: int = 4
    p_bigram: float = 0.3
    p_scatter: float = 0.3
    run_depth: int = 100
    seed: int = 7

    def __post_init__(self):
        if self.n_docs < 1 or self.run_depth < 1:
            raise ValueError("n_docs and run_depth must be >= 1")
        if min(self.n_train_queries, self.n_val_queries) < 0 or \
                self.n_train_queries + self.n_val_queries < 1:
            raise ValueError("query counts must be >= 0 and sum to at least 1")
        if self.p_bigram + self.p_scatter > 1.0:
            raise ValueError("class proportions exceed 1")
        if self.query_len_min < 2:
            raise ValueError("queries need at least 2 tokens to plant a bigram")
        if self.doc_len_min < 4:
            raise ValueError("documents too short to plant scattered terms")


@dataclass
class SynthData:
    docs: Corpus
    queries: list[Query]
    qrels: JudgmentSet
    runs: dict[str, RunRanking]
    embeddings: EmbeddingTable
    train_query_ids: list[str]
    val_query_ids: list[str]
    planted_classes: list[int] = field(default_factory=list)


def planted_grade(query_tokens, doc_tokens) -> int:
    """The grading rule: 2 for a contiguous query bigram, 1 for >= 2 distinct
    query terms, else 0."""
    bigrams = set(zip(query_tokens[:-1], query_tokens[1:]))
    if any(pair in bigrams for pair in zip(doc_tokens[:-1], doc_tokens[1:])):
        return 2
    if len(set(query_tokens) & set(doc_tokens)) >= 2:
        return 1
    return 0


def generate(spec: SynthSpec) -> SynthData:
    """Deterministically generate corpus, queries, qrels, baseline run, and
    unit-norm embeddings from the spec's seed."""
    rng = np.random.default_rng(spec.seed)
    vocab = [f"t{i:03d}" for i in range(spec.vocab_size)]

    vectors = {}
    for token in vocab:
        v = rng.standard_normal(spec.emb_dim)
        vectors[token] = v / np.linalg.norm(v)
    embeddings = EmbeddingTable(dim=spec.emb_dim, vectors=vectors)

    n_queries = spec.n_train_queries + spec.n_val_queries
    queries = []
    for qi in range(n_queries):
        length = int(rng.integers(spec.query_len_min, spec.query_len_max + 1))
        tokens = tuple(rng.choice(spec.vocab_size, size=length, replace=False))
        queries.append(Query(f"q{qi:03d}", tuple(vocab[t] for t in tokens)))

    docs = []
    planted = []
    for di in range(spec.n_docs):
        target = queries[di % n_queries]
        roll = rng.random()
        if roll < spec.p_bigram:
            cls = 2
        elif roll < spec.p_bigram + spec.p_scatter:
            cls = 1
        else:
            cls = 0
        length = int(rng.integers(spec.doc_len_min, spec.doc_len_max + 1))
        filler = [t for t in vocab if t not in target.tokens]
        tokens = [filler[i] for i in rng.integers(len(filler), size=length)]
        if cls == 2:
            j = int(rng.integers(len(target.tokens) - 1))
            pos = int(rng.integers(length - 1))
            tokens[pos] = target.tokens[j]
            tokens[pos + 1] = target.tokens[j + 1]
        elif cls == 1:
            t1, t2 = rng.choice(len(target.tokens), size=2, replace=False)
            p1 = int(rng.integers(length))
            gaps = [p for p in range(length) if abs(p - p1) >= 2]
            p2 = gaps[int(rng.integers(len(gaps)))]
            tokens[p1] = target.tokens[int(t1)]
            tokens[p2] = target.tokens[int(t2)]
        planted.append(cls)
        docs.append((f"d{di:04d}", tokens))

    qrels = JudgmentSet({q.query_id: {did: planted_grade(q.tokens, tokens)
                                      for did, tokens in docs} for q in queries})

    runs = {}
    for q in queries:
        q_set = set(q.tokens)
        overlaps = [(len(q_set & set(tokens)), did) for did, tokens in docs]
        overlaps.sort(key=lambda t: (-t[0], t[1]))
        top = overlaps[: spec.run_depth]
        runs[q.query_id] = RunRanking(
            q.query_id,
            [(did, rank, float(ov)) for rank, (ov, did) in enumerate(top, start=1)],
        )

    query_ids = [q.query_id for q in queries]
    return SynthData(
        docs=Corpus.build(docs),
        queries=queries,
        qrels=qrels,
        runs=runs,
        embeddings=embeddings,
        train_query_ids=query_ids[: spec.n_train_queries],
        val_query_ids=query_ids[spec.n_train_queries :],
        planted_classes=planted,
    )


def artifact_paths(out_dir) -> dict[str, Path]:
    """Where `write` puts each artifact under out_dir."""
    out = Path(out_dir)
    return {
        "corpus": out / "corpus.jsonl",
        "queries": out / "queries.jsonl",
        "qrels": out / "qrels.txt",
        "run": out / "run.txt",
        "embeddings": out / "embeddings.txt",
        "train_qids": out / "train_qids.txt",
        "val_qids": out / "val_qids.txt",
    }


def write(data: SynthData, out_dir) -> dict[str, Path]:
    """Write every artifact in its loadable on-disk format."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    paths = artifact_paths(out_dir)
    save_corpus(data.docs, paths["corpus"])
    save_queries(data.queries, paths["queries"])
    save_qrels(data.qrels, paths["qrels"])
    save_run(data.runs, paths["run"], tag="overlap")
    save_embeddings(data.embeddings, paths["embeddings"])
    for role, qids in (("train_qids", data.train_query_ids), ("val_qids", data.val_query_ids)):
        write_atomic(paths[role], "".join(f"{qid}\n" for qid in qids).encode("utf-8"))
    return paths
