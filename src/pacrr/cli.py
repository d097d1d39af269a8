"""Command-line entry point.

Commands: train, rerank, score, eval, pairacc, gradcheck, synth.
Exit codes: 0 success, 1 usage/config error, 2 data or I/O error,
3 gradient-check failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import evaluation, synth
from .config import RunConfig, load_run_config, run_config_text, write_run_config
from .corpus import (compute_idf, load_corpus, load_embeddings, load_qrels,
                     load_queries, load_run, read_lines, save_run, write_atomic)
from .errors import ConfigError, DataError
from .gradcheck import gradcheck_report
from .model import PacrrConfig, Scorer, load_params
from .training import train

logger = logging.getLogger(__name__)

MODEL_KEYS = ("l_q", "l_d", "l_g", "n_f", "n_s", "mode")


def _read_qid_list(path) -> list[str]:
    return [line.strip() for _, line in read_lines(path) if line.strip()]


def _load_scoring_inputs(cfg: RunConfig):
    cfg.require_paths("corpus", "queries", "embeddings")
    docs = load_corpus(cfg.corpus)
    queries = load_queries(cfg.queries)
    embeddings = load_embeddings(cfg.embeddings)
    idf = compute_idf(docs)
    return docs, queries, embeddings, idf


def _build_scorer(cfg: RunConfig, checkpoint):
    """A `Scorer` for the checkpoint's model, whose keys win over the run
    config's; each key that differs is named in one warning."""
    params, model_config = load_params(checkpoint)
    ours, theirs = cfg.model.to_dict(), model_config.to_dict()
    differing = [f"{key}={ours[key]!r} (checkpoint {theirs[key]!r})"
                 for key in MODEL_KEYS if ours[key] != theirs[key]]
    if differing:
        logger.warning("using the checkpoint's model keys; ignoring config %s",
                       ", ".join(differing))
    docs, queries, embeddings, idf = _load_scoring_inputs(cfg)
    return Scorer(model_config, params, queries, docs, embeddings, idf)


def _write_report(path: Path, text: str) -> None:
    """Write a report atomically, creating its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, text.encode("utf-8"))


def cmd_train(cfg: RunConfig, args) -> int:
    cfg.require_paths("corpus", "queries", "qrels", "embeddings", "run",
                      "train_qids", "val_qids")
    docs, queries, embeddings, idf = _load_scoring_inputs(cfg)
    qrels = load_qrels(cfg.qrels, cfg.parsed_grade_map())
    runs = load_run(cfg.run)
    train_qids = _read_qid_list(cfg.train_qids)
    val_qids = _read_qid_list(cfg.val_qids)
    out_dir = Path(cfg.out_dir)
    params, state = train(
        cfg.model, docs, queries, qrels, train_qids, val_qids, runs,
        embeddings, idf, iterations=cfg.iterations,
        batches_per_iteration=cfg.batches_per_iteration, out_dir=out_dir,
    )
    best = out_dir / "best.pacrr"
    write_atomic(best, (out_dir / state.best_checkpoint_path).read_bytes())
    print(f"best iteration {state.best_iteration} "
          f"(validation ERR@{evaluation.K} {state.best_err:.4f}); checkpoint: {best}")
    return 0


def cmd_score(cfg: RunConfig, args) -> int:
    cfg.require_paths("run")
    scorer = _build_scorer(cfg, args.checkpoint)
    runs = load_run(cfg.run)
    out_path = Path(cfg.out_dir) / "scores.jsonl"
    scores = scorer.score_runs({qid: run.doc_ids() for qid, run in runs.items()})
    _write_report(out_path, "".join(
        json.dumps({"query_id": qid, "doc_id": did, "score": score}) + "\n"
        for qid, per_query in scores.items() for did, score in per_query.items()))
    print(f"wrote {out_path}")
    return 0


def cmd_rerank(cfg: RunConfig, args) -> int:
    cfg.require_paths("run", "qrels")
    scorer = _build_scorer(cfg, args.checkpoint)
    qrels = load_qrels(cfg.qrels, cfg.parsed_grade_map())
    runs = load_run(cfg.run)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    before = {}
    after = {}
    scores = scorer.score_runs({qid: run.doc_ids() for qid, run in runs.items()})
    for qid, per_query in scores.items():
        run = runs[qid]
        # Both metric passes cover the same judged-and-scored documents, so
        # a constant scorer reproduces the original metrics exactly.
        identity = {did: -rank for did, rank, _ in run.entries if did in per_query}
        before[qid] = evaluation.rerank_run(run, identity, qrels)
        after[qid] = evaluation.rerank_run(run, per_query, qrels)

    run_path = out_dir / "reranked_run.txt"
    save_run(after, run_path, tag=cfg.run_tag)
    report_before = evaluation.report_for_runs(before, qrels)
    report_after = evaluation.report_for_runs(after, qrels)
    metrics_path = out_dir / "rerank_metrics.jsonl"
    _write_report(metrics_path, "".join(
        json.dumps({**record, "stage": stage}, sort_keys=True) + "\n"
        for stage, report in (("before", report_before), ("after", report_after))
        for record in report.to_json_records()))
    print(f"ERR@{evaluation.K}: {report_before.mean_err:.4f} -> {report_after.mean_err:.4f}   "
          f"nDCG@{evaluation.K}: {report_before.mean_ndcg:.4f} -> {report_after.mean_ndcg:.4f}")
    print(f"wrote {run_path} and {metrics_path}")
    return 0


def cmd_eval(cfg: RunConfig, args) -> int:
    cfg.require_paths("run", "qrels")
    qrels = load_qrels(cfg.qrels, cfg.parsed_grade_map())
    runs = load_run(cfg.run)
    report = evaluation.report_for_runs(runs, qrels)
    out_path = Path(cfg.out_dir) / "metrics.jsonl"
    _write_report(out_path, "".join(json.dumps(record, sort_keys=True) + "\n"
                                    for record in report.to_json_records()))
    print(f"mean ERR@{evaluation.K} {report.mean_err:.4f}, mean nDCG@{evaluation.K} "
          f"{report.mean_ndcg:.4f} over {len(report.per_query)} queries")
    print(f"wrote {out_path}")
    return 0


def cmd_pairacc(cfg: RunConfig, args) -> int:
    cfg.require_paths("qrels")
    scorer = _build_scorer(cfg, args.checkpoint)
    qrels = load_qrels(cfg.qrels, cfg.parsed_grade_map())
    scores = scorer.score_runs(
        {qid: sorted(qrels.for_query(qid)) for qid in qrels.query_ids()})
    report = evaluation.pair_accuracy(scores, qrels)
    out_path = Path(cfg.out_dir) / "pair_accuracy.json"
    _write_report(out_path, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    for (higher, lower), stats in report.stats.items():
        print(f"{higher}-{lower}: accuracy {stats.accuracy:.3f} "
              f"volume {stats.volume:.3f} queries {stats.n_queries}")
    print(f"weighted average {report.weighted_average:.3f}")
    print(f"wrote {out_path}")
    return 0


def cmd_gradcheck(cfg: RunConfig, args) -> int:
    results = gradcheck_report(seed=cfg.model.seed)
    failed = False
    for name, result in results.items():
        status = "ok" if result.passed else "FAIL"
        failed = failed or status == "FAIL"
        print(f"{name}: max_rel_error={result.max_rel_error:.3e} "
              f"checked={result.checked} excluded={result.excluded} [{status}]")
    return 3 if failed else 0


def cmd_synth(cfg: RunConfig, args) -> int:
    try:
        spec = synth.SynthSpec(n_docs=args.docs, n_train_queries=args.train_queries,
                               n_val_queries=args.val_queries, run_depth=args.run_depth,
                               seed=cfg.model.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out_dir = Path(cfg.out_dir)
    # A ready-to-train config pointing at the generated files.
    run_cfg = RunConfig(
        **{key: str(path) for key, path in synth.artifact_paths(out_dir).items()},
        out_dir=str(out_dir / "train_out"),
        model=PacrrConfig(l_q=spec.query_len_max, l_d=12, n_f=4, mode="kwindow",
                          learning_rate=0.05, seed=cfg.model.seed),
        iterations=20,
        batches_per_iteration=64,
    )
    try:
        run_config_text(run_cfg)
    except ConfigError as exc:
        raise ConfigError(f"out_dir {cfg.out_dir!r} gives a config that cannot be read "
                          f"back: {exc}") from None
    synth.write(synth.generate(spec), out_dir)
    config_path = out_dir / "config.txt"
    write_run_config(run_cfg, config_path)
    print(f"wrote synthetic dataset under {out_dir} (config: {config_path})")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Usage errors exit 1, like config errors (argparse's default is 2)."""
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pacrr",
        description="Train, apply, and evaluate a position-aware convolutional-"
                    "recurrent re-ranker.",
    )
    parser.add_argument("--config", help="run-config file (key = value lines)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the config output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("train", help="train and select the best checkpoint")

    p = sub.add_parser("score", help="score the documents of a run file")
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("rerank", help="re-rank a run file with a checkpoint")
    p.add_argument("--checkpoint", required=True)

    sub.add_parser("eval", help="ERR/nDCG of a run file against qrels")

    p = sub.add_parser("pairacc", help="pairwise label accuracy of a checkpoint")
    p.add_argument("--checkpoint", required=True)

    sub.add_parser("gradcheck", help="finite-difference check of all gradients")

    p = sub.add_parser("synth", help="generate a synthetic benchmark")
    p.add_argument("--docs", type=int, default=500)
    p.add_argument("--train-queries", type=int, default=30)
    p.add_argument("--val-queries", type=int, default=10)
    p.add_argument("--run-depth", type=int, default=100)
    return parser


COMMANDS = {
    "train": cmd_train,
    "score": cmd_score,
    "rerank": cmd_rerank,
    "eval": cmd_eval,
    "pairacc": cmd_pairacc,
    "gradcheck": cmd_gradcheck,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = {"seed": args.seed, "out_dir": args.out}
        cfg = load_run_config(args.config, overrides)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"config error: training diverged ({exc}); lower learning_rate",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
