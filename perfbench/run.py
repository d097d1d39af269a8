"""End-to-end benchmark of pacrr: set-up, pairwise training and re-ranking.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run generates seeded synthetic inputs with `pacrr.synth` and writes
them in the on-disk formats (untimed). It then repeats one user session, a
round, until `--seconds` is used up (at least MIN_ROUNDS times):

    set-up   load corpus, queries, qrels, run, embeddings; compute IDF;
             load a checkpoint and build a `Scorer`
    train    `training.train` on a fixed schedule; per-iteration checkpoint
             writes and validation passes are included
    check    reload every checkpoint written
    re-rank  every query of the run file, with the selected checkpoint in a
             fresh `Scorer`, as `pacrr rerank` does

Every round does identical, deterministic work, so quality must repeat
exactly. Set-up is timed SETUP_REPEATS times per round. On a shared host
the speed of all work drifts by up to 1.6x over seconds to minutes, so the
host's speed is sampled throughout each phase, and the metrics are given at
reference speed (see hostclock.py); their wall-time values are printed
beside them. Throughputs divide the work of all rounds by their total time,
set-up time is the median over all set-ups, and per-query latencies are
pooled over the rounds.

With `--trace 0` the last line holds the end-to-end metrics; with
`--trace 1` rounds alternate untraced and traced, and the last line holds
the per-layer metrics of the traced rounds. The lines before it are a
human-readable report. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# Single-threaded BLAS: the matrices are small and the machine is shared,
# so extra threads add noise, not speed. `main` sets these before numpy loads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"

MIN_ROUNDS = 3
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # SynthSpec fields other than the seed
    model: dict  # PacrrConfig fields other than the seed
    n_val: int  # leading validation queries used by `train`; the rest are test queries
    iterations: int
    batches: int


PAPER_SPEC = dict(vocab_size=2000, emb_dim=64, doc_len_min=200, doc_len_max=1200,
                  query_len_min=2, query_len_max=6)
PAPER_MODEL = dict(l_q=16, l_d=768, l_g=3, n_f=32, n_s=2, learning_rate=0.001)

# A round is kept to several seconds so that a run holds several of them.
# The acceptance desk shape (l_q=4, l_d=12, n_f=4) is not a workload: its
# interpreter-bound timings spread the most under host load, up to 27% (IQR
# over median) across ten seeds, beyond any allowed bound; see README.md.
WORKLOADS = {
    w.name: w for w in (
        # 3 train, 10 validation and 30 test queries over 80 documents: the
        # 240 judged training pairs are revisited within a round, and the
        # validation pairs in every iteration after the first, so the feature
        # cache warms as in a long `pacrr train`.
        Workload(
            name="train-paper-firstk",
            spec=dict(PAPER_SPEC, n_docs=80, n_train_queries=3, n_val_queries=40,
                      run_depth=4),
            model=dict(PAPER_MODEL, mode="firstk"),
            n_val=10, iterations=4, batches=1,
        ),
        # 10 train, 10 validation and 90 test queries: the re-rank covers 110.
        Workload(
            name="rerank-paper-kwindow",
            spec=dict(PAPER_SPEC, n_docs=330, n_train_queries=10, n_val_queries=100,
                      run_depth=5),
            model=dict(PAPER_MODEL, mode="kwindow"),
            n_val=10, iterations=1, batches=3,
        ),
    )
}


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Checks:
    """Attempted and failed operations; every failure is reported."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.messages.append(what)

    def fail(self, what: str, count: int = 1) -> None:
        self.check(False, what, count)


@dataclass
class Inputs:
    paths: dict
    train_qids: list
    val_qids: list
    init_checkpoint: Path


@dataclass
class Loaded:
    docs: list
    queries: list
    qrels: object
    runs: dict
    embeddings: object
    idf: object
    scorer: object


@dataclass
class Round:
    # Timed units, as (start, end) in `HostClock.now()` seconds.
    setup: list  # SETUP_REPEATS set-ups
    train: tuple  # `training.train`
    queries: dict  # query id -> `score_docs` through `rerank_run`
    report: tuple  # `report_for_runs` of the re-ranked run
    pairs: int
    val_err20: float
    rerank_err20: float
    wall_s: float = 0.0
    traced: bool = False
    spans: tuple = (0, 0)  # the round's span range in the tracer
    counts: dict = field(default_factory=dict)  # tracer counters added by the round


def model_config(workload: Workload, seed: int):
    from pacrr.model import PacrrConfig
    return PacrrConfig(seed=seed, **workload.model)


def triples_per_round(workload: Workload) -> int:
    from pacrr.training import BATCH_SIZE
    return workload.iterations * workload.batches * BATCH_SIZE


def generate_inputs(workload: Workload, seed: int, out_dir: Path) -> Inputs:
    """Seeded inputs on disk, and a checkpoint of seeded initial weights."""
    from pacrr import model, synth
    data = synth.generate(synth.SynthSpec(seed=seed, **workload.spec))
    paths = synth.write(data, out_dir)
    config = model_config(workload, seed)
    init_checkpoint = out_dir / "init.pacrr"
    model.save_params(model.init_params(config), config, init_checkpoint)
    return Inputs(paths, data.train_query_ids, data.val_query_ids[: workload.n_val],
                  init_checkpoint)


def set_up(inputs: Inputs) -> Loaded:
    """What `pacrr train` and `pacrr rerank` load before any scoring."""
    from pacrr import corpus, model
    p = inputs.paths
    docs = corpus.load_corpus(p["corpus"])
    queries = corpus.load_queries(p["queries"])
    qrels = corpus.load_qrels(p["qrels"])
    runs = corpus.load_run(p["run"])
    embeddings = corpus.load_embeddings(p["embeddings"])
    idf = corpus.compute_idf(docs)
    params, config = model.load_params(inputs.init_checkpoint)
    # Built for its cost; each round re-ranks with a fresh one on its own checkpoint.
    scorer = model.Scorer(config, params, queries, docs, embeddings, idf)
    return Loaded(docs, queries, qrels, runs, embeddings, idf, scorer)


def run_round(workload: Workload, seed: int, inputs: Inputs, out_dir: Path,
              checks: Checks, host: HostClock) -> Round:
    import numpy as np
    from pacrr import evaluation, model, training
    from pacrr.errors import CheckpointError

    setup = []
    host.enter("setup")
    for _ in range(SETUP_REPEATS):
        t0 = host.now()
        data = set_up(inputs)
        setup.append((t0, host.now()))
    host.enter(None)

    if out_dir.exists():
        shutil.rmtree(out_dir)
    host.enter("train")
    t0 = host.now()
    best_params, state = training.train(
        model_config(workload, seed), data.docs, data.queries, data.qrels,
        inputs.train_qids, inputs.val_qids, data.runs, data.embeddings, data.idf,
        iterations=workload.iterations, batches_per_iteration=workload.batches,
        out_dir=out_dir)
    train = (t0, host.now())
    host.enter(None)

    for log in state.logs:
        checks.check(math.isfinite(log.mean_loss) and math.isfinite(log.val_err),
                     f"iteration {log.iteration}: non-finite loss or validation ERR")
        try:
            params, _ = model.load_params(out_dir / log.checkpoint_path)
        except CheckpointError as exc:
            checks.fail(f"checkpoint does not reload: {exc}")
            continue
        if log.checkpoint_path == state.best_checkpoint_path:
            checks.check(all(np.array_equal(a.value, b.value)
                             for a, b in zip(params, best_params)),
                         "reloaded best checkpoint differs from the selected params")

    params, config = model.load_params(out_dir / state.best_checkpoint_path)
    scorer = model.Scorer(config, params, data.queries, data.docs, data.embeddings, data.idf)
    reranked = {}
    queries = {}
    pairs = 0
    host.enter("rerank")
    for qid in sorted(data.runs):
        run = data.runs[qid]
        doc_ids = run.doc_ids()
        q0 = host.now()
        try:
            scores, missing = scorer.score_docs(qid, doc_ids)
            reranked[qid] = evaluation.rerank_run(run, scores, data.qrels)
        except Exception as exc:  # a pair that raised is a failed pair
            checks.fail(f"query {qid}: scoring raised {exc!r}", len(doc_ids))
            continue
        queries[qid] = (q0, host.now())
        pairs += len(scores)
        bad = sum(not math.isfinite(s) for s in scores.values()) + len(missing)
        checks.check(bad == 0, f"query {qid}: {bad} pairs missing or non-finite", len(doc_ids))
    t0 = host.now()
    report = evaluation.report_for_runs(reranked, data.qrels)
    report_span = (t0, host.now())
    host.enter(None)
    return Round(setup, train, queries, report_span, pairs, state.best_err, report.mean_err)


def run_rounds(workload, seed, inputs, out_dir, seconds, checks, tracer, trace, host):
    """Rounds until `seconds` is used up; traced runs trace every other round."""
    rounds: list[Round] = []
    t_start = time.perf_counter()
    last = 0.0
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t_start + last <= seconds:
        traced = trace and len(rounds) % 2 == 1
        tracer.enabled = traced
        lo, before = len(tracer), tracer.counts.copy()
        r0 = time.perf_counter()
        try:
            r = run_round(workload, seed, inputs, out_dir, checks, host)
        except Exception as exc:  # e.g. FloatingPointError from sgd_step
            checks.fail(f"round {len(rounds)} raised {exc!r}")
            break
        finally:
            tracer.enabled = False
            host.enter(None)
        last = r.wall_s = time.perf_counter() - r0
        r.traced, r.spans, r.counts = traced, (lo, len(tracer)), tracer.counts - before
        rounds.append(r)
    return rounds


def check_quality(workload: Workload, seed: int, rounds: list[Round], checks: Checks,
                  work_dir: Path) -> None:
    """Quality repeats exactly: across the rounds of this run, and against
    the first recorded run of this workload and seed in this checkout.

    The record is keyed by the workload's definition, the seed and the numpy
    version, not by the package sources, so a change to the code that moves
    a score fails here. A deliberate scoring change deletes
    `.perfbench_work/quality/` and says so."""
    import numpy
    first = rounds[0]
    for r in rounds[1:]:
        checks.check(r.val_err20 == first.val_err20 and r.rerank_err20 == first.rerank_err20,
                     "quality differs between rounds of one run")
    key = hashlib.sha256(f"{workload!r} numpy {numpy.__version__}".encode()).hexdigest()[:16]
    record = work_dir / "quality" / f"{workload.name}-seed{seed}-{key}.json"
    values = {"val_err20": first.val_err20, "rerank_err20": first.rerank_err20}
    if record.exists():
        previous = json.loads(record.read_text())
        checks.check(previous == values,
                     f"quality {values} differs from the previous run {previous}")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        tmp = record.with_suffix(".tmp")
        tmp.write_text(json.dumps(values))
        os.replace(tmp, record)


def wall_time(phase: str, span: tuple[float, float]) -> float:
    return span[1] - span[0]


def end_to_end_metrics(workload: Workload, rounds: list[Round], duration) -> dict:
    """The end-to-end metrics, with `duration(phase, span)` the time of each
    timed unit: `wall_time` or `HostClock.at_reference`."""
    query_ms = [duration("rerank", q) * 1e3 for r in rounds for q in r.queries.values()]
    rerank_s = sum(query_ms) / 1e3 + sum(duration("rerank", r.report) for r in rounds)
    return {
        "setup_s": statistics.median(duration("setup", s) for r in rounds for s in r.setup),
        "train_triples_per_s": (triples_per_round(workload) * len(rounds)
                                / sum(duration("train", r.train) for r in rounds)),
        "rerank_pairs_per_s": sum(r.pairs for r in rounds) / rerank_s,
        "rerank_query_ms_p50": statistics.median(query_ms),
        "rerank_query_ms_p90": statistics.quantiles(query_ms, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(tracer, workload: Workload, rounds: list[Round], checks: Checks) -> dict:
    """Per-layer metrics of the traced rounds. Counts are per round; they
    must be identical in every traced round and must add up."""
    traced = [r for r in rounds if r.traced]
    per_round = [tracer.summarize(*r.spans) for r in traced]
    calls_per_round = [{k: v["calls"] for k, v in s.items()} for s in per_round]
    checks.check(all(c == calls_per_round[0] for c in calls_per_round)
                 and all(r.counts == traced[0].counts for r in traced),
                 "call counts differ between traced rounds")
    calls = calls_per_round[0]
    counts = traced[0].counts
    n = len(per_round)

    def per_call(name, key="total_s", scale=1e3):
        total = sum(s.get(name, {}).get(key, 0.0) for s in per_round)
        return total / (calls.get(name, 0) * n) * scale if calls.get(name) else 0.0

    def per_round_s(*names, key="total_s"):
        return sum(s.get(name, {}).get(key, 0.0) for s in per_round for name in names) / n

    # The counts must add up; a wrapper that callers bypass breaks them.
    triples = triples_per_round(workload)
    n_conv = workload.model["l_g"] - 1
    score = calls.get("model.score", 0)
    expected = {
        "training.sample_triple": triples,
        "neural.hinge_gradients": triples,
        "neural.sgd_step": workload.iterations * workload.batches,
        "model.save_params": workload.iterations,
        "model.score": 2 * triples + counts["score_docs_pairs"],
        "model.scorer.distilled": score,
        "neural.recurrent_sequence": score,
        "model.score_gradients": 2 * counts["hinge_active"],
        "neural.recurrent_backward": calls.get("model.score_gradients", 0),
        "simmat.distill": calls.get("simmat.build_sim_matrix", 0),
        "corpus.compute_idf": SETUP_REPEATS,
        # set-ups, one reload per iteration, `train`'s own, the re-rank's
        "model.load_params": SETUP_REPEATS + workload.iterations + 2,
    }
    for name, want in expected.items():
        checks.check(calls.get(name, 0) == want,
                     f"traced {name}.calls {calls.get(name, 0)} != expected {want}")
    conv = sum(calls.get(f"neural.conv2d.n{k}", 0) for k in range(2, 2 + n_conv))
    checks.check(conv == n_conv * score, f"traced conv2d calls {conv} != {n_conv} x {score}")

    # Each traced round against the untraced rounds next to it, which ran
    # closest in time and so under the most similar host load.
    overhead = []
    for i, r in enumerate(rounds):
        if r.traced:
            plain = statistics.mean(rounds[j].wall_s for j in (i - 1, i + 1) if j < len(rounds))
            overhead.append((r.wall_s - plain, (r.wall_s - plain) / plain))
    loads = [k for k in calls if k.startswith("corpus.load_")]
    metrics = {
        "corpus.load_s": per_round_s(*loads) / SETUP_REPEATS,
        "corpus.compute_idf_s": per_round_s("corpus.compute_idf") / SETUP_REPEATS,
        "model.load_params.ms": per_call("model.load_params"),
    }
    for name in ("simmat.build_sim_matrix", "simmat.distill"):
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.ms_per_call"] = per_call(name)
    # Within `train` only: the re-rank's fresh `Scorer` always starts cold.
    in_train = {name: s.get("in_train_calls", 0) for name, s in per_round[0].items()}
    distilled = in_train.get("model.scorer.distilled", 0)
    metrics["model.scorer.distill_hit_ratio"] = (
        1 - in_train.get("simmat.distill", 0) / distilled if distilled else 0.0)
    metrics["model.scorer.cache_mb"] = counts["distilled_bytes"] / 2**20
    for name in ("model.score", "model.score_gradients"):
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_ms_per_call"] = per_call(name, "self_s")
    metrics["model.save_params.ms_per_call"] = per_call("model.save_params")
    for k in range(2, 2 + n_conv):
        metrics[f"neural.conv2d.n{k}.ms_per_call"] = per_call(f"neural.conv2d.n{k}")
        metrics[f"neural.conv2d_backward.n{k}.ms_per_call"] = per_call(
            f"neural.conv2d_backward.n{k}")
    metrics["neural.conv2d.mflop_per_pair"] = counts["conv_flops"] / score / 1e6
    for fn in ("max_over_filters", "max_over_filters_backward", "kmax_per_row",
               "kmax_per_row_backward", "recurrent_sequence", "recurrent_backward",
               "sgd_step"):
        metrics[f"neural.{fn}.ms_per_call"] = per_call(f"neural.{fn}")
    metrics["training.sample_triple.calls"] = calls.get("training.sample_triple", 0)
    metrics["training.sample_triple.us_per_call"] = per_call("training.sample_triple",
                                                              scale=1e6)
    metrics["training.validation_s"] = per_round_s("model.scorer.score_docs", key="in_train_s")
    metrics["training.hinge_active_frac"] = counts["hinge_active"] / triples
    for fn in ("rerank_run", "report_for_runs"):
        metrics[f"evaluation.{fn}.ms_per_call"] = per_call(f"evaluation.{fn}")
    metrics["trace.overhead_s"] = statistics.median(d for d, _ in overhead)
    metrics["trace.overhead_frac"] = statistics.median(f for _, f in overhead)
    return metrics


def environment() -> dict:
    import numpy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    """One benchmark run; returns the result object of the last output line."""
    import hostclock
    import tracing

    checks = Checks()
    tracer = tracing.Tracer()
    host = hostclock.HostClock()
    run_dir = work_dir / f"run-{workload.name}-{seed}-{os.getpid()}"
    try:
        inputs = generate_inputs(workload, seed, run_dir / "inputs")
        # Traced runs leave the sampler off: their metrics are not scaled,
        # and it would count in the spans.
        with tracer.installed() if trace else host.running():
            rounds = run_rounds(workload, seed, inputs, run_dir / "train_out", seconds,
                                checks, tracer, trace, host)
        if not rounds or (trace and not any(r.traced for r in rounds)):
            raise RuntimeError("no round completed: " + "; ".join(checks.messages))
        check_quality(workload, seed, rounds, checks, work_dir)
        wall_metrics = end_to_end_metrics(workload, rounds, wall_time)
        if trace:
            metrics = layer_metrics(tracer, workload, rounds, checks)
        else:
            metrics = end_to_end_metrics(workload, rounds, host.at_reference)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = declared_units(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are emitted but "
                           "not declared in BENCHMARK.json, or declared but not emitted")
    first = rounds[0]
    report = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "rounds": len(rounds), "traced_rounds": sum(r.traced for r in rounds),
        "latency_samples": sum(len(r.queries) for r in rounds),
        "host_factors": {phase: host.factor(phase) for phase in host.samples},
        "host_samples": {phase: list(zip(host.times[phase], samples))
                         for phase, samples in host.samples.items()},
        "rounds_timed": [{"wall_s": r.wall_s, "setup": r.setup, "train": r.train,
                          "queries": r.queries, "report": r.report} for r in rounds],
        "val_err20": first.val_err20, "rerank_err20": first.rerank_err20,
        "failed_frac": checks.failed / max(checks.attempted, 1),
        "failures": checks.messages, "environment": environment(),
        "metrics": metrics, "wall_metrics": wall_metrics,
    }
    results = work_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    if trace:
        tracer.write(results / f"{stem}.spans.npz")

    for key in ("workload", "seed", "rounds", "traced_rounds", "latency_samples"):
        print(f"{key}: {report[key]}")
    print(f"environment: {json.dumps(report['environment'], sort_keys=True)}")
    for phase, samples in host.samples.items():
        print(f"host_factor.{phase} {host.factor(phase):.4f} (mean of {len(samples)} samples)")
    print(f"val_err20 {first.val_err20!r} (ERR@20; must repeat exactly)")
    print(f"rerank_err20 {first.rerank_err20!r} (ERR@20; must repeat exactly)")
    print(f"failed_frac {report['failed_frac']!r} ({checks.failed}/{checks.attempted})")
    for message in checks.messages:
        print(f"FAILED: {message}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    if not trace:
        for name, value in wall_metrics.items():
            print(f"wall.{name} {value!r} {units[name]} (wall time, not gated)")
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "pacrr" / "__init__.py").is_file():
        print(f"pacrr sources not found under {src}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(src))
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), WORK_DIR)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
