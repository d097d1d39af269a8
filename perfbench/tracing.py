"""Span tracing of the pacrr package from outside it.

`install` replaces the public functions of each module with timing
wrappers at the names their callers look up: `Scorer` calls `score`,
`build_sim_matrix` and `distill` through `pacrr.model`'s globals, `train`
calls `score_gradients`, `save_params`, `load_params` and `sample_triple`
through `pacrr.training`'s globals, and both call `pacrr.neural` and
`pacrr.evaluation` through the module. A wrapper records a span (name,
parent, start, end) only while `enabled` is set, so untraced rounds of the
same process pay one branch per call.

Spans live in four flat arrays and are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.enabled = False
        # Counters that spans cannot express, keyed like per-layer metrics.
        self.counts: Counter = Counter()
        self._installed: list[tuple[object, str, object]] = []

    def __len__(self):
        return len(self.start)

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, owner, attr: str, name, on_result=None) -> None:
        """Replace `owner.attr` with a span-recording wrapper.

        `name` is a span name or a function of the call's arguments;
        `on_result(args, result)` updates `counts` after a traced call.
        """
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args)
            idx = len(tracer.start)
            tracer.name.append(tracer._name_id(span_name))
            tracer.parent.append(tracer._stack[-1])
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer.start[idx] = t0
                tracer._stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        self._installed.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    @contextlib.contextmanager
    def installed(self):
        install(self)
        try:
            yield self
        finally:
            self.uninstall()

    def summarize(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Per span name over spans [lo, hi): calls, total and self seconds,
        and the calls and seconds under a `training.train` span."""
        name = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end, dtype=np.float64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.float64)[lo:hi])
        child = np.zeros(hi - lo)
        has_parent = parent >= lo
        np.add.at(child, parent[has_parent] - lo, dur[has_parent])
        self_time = dur - child
        in_train = self._under(lo, hi, "training.train")
        out = {}
        for idx in np.unique(name):
            sel = name == idx
            out[self.names[idx]] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
                "in_train_calls": int((sel & in_train).sum()),
                "in_train_s": float(dur[sel & in_train].sum()),
            }
        return out

    def _under(self, lo: int, hi: int, ancestor: str) -> np.ndarray:
        target = self._name_ids.get(ancestor, -1)
        flags = np.zeros(hi - lo, dtype=bool)
        for i in range(lo, hi):
            p = self.parent[i]
            flags[i - lo] = p >= lo and (self.name[p] == target or flags[p - lo])
        return flags

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _conv_name(prefix: str, kernels_arg: int):
    # conv2d(x, kernels, ...) and conv2d_backward(d_out, cache, kernels): the
    # n-gram size is the kernel's side length.
    return lambda args: f"{prefix}.n{args[kernels_arg].shape[1]}"


def install(tracer: Tracer) -> None:
    from pacrr import corpus, evaluation, model, neural, training

    counts = tracer.counts

    def count_distilled_bytes(args, result):
        arrays = {id(a): a for a in result.per_n.values()}
        counts["distilled_bytes"] += sum(a.nbytes for a in arrays.values())

    def count_conv_flops(args, result):
        out, _ = result
        n_f, n, _ = args[1].shape
        counts["conv_flops"] += 2 * out.shape[1] * out.shape[2] * n * n * n_f

    def count_hinge(args, result):
        counts["hinge_active"] += result[0] != 0.0

    def count_scored(args, result):
        counts["score_docs_pairs"] += len(result[0])

    for fn in ("load_corpus", "load_queries", "load_qrels", "load_run",
               "load_embeddings", "compute_idf"):
        tracer.wrap(corpus, fn, f"corpus.{fn}")
    tracer.wrap(model, "build_sim_matrix", "simmat.build_sim_matrix")
    tracer.wrap(model, "distill", "simmat.distill", count_distilled_bytes)
    tracer.wrap(model, "score", "model.score")
    tracer.wrap(model, "load_params", "model.load_params")
    tracer.wrap(model.Scorer, "distilled", "model.scorer.distilled")
    tracer.wrap(model.Scorer, "score_docs", "model.scorer.score_docs", count_scored)
    tracer.wrap(training, "train", "training.train")
    tracer.wrap(training, "sample_triple", "training.sample_triple")
    tracer.wrap(training, "score_gradients", "model.score_gradients")
    tracer.wrap(training, "save_params", "model.save_params")
    tracer.wrap(training, "load_params", "model.load_params")
    tracer.wrap(neural, "conv2d", _conv_name("neural.conv2d", 1), count_conv_flops)
    tracer.wrap(neural, "conv2d_backward", _conv_name("neural.conv2d_backward", 2))
    for fn in ("max_over_filters", "max_over_filters_backward", "kmax_per_row",
               "kmax_per_row_backward", "recurrent_sequence", "recurrent_backward",
               "sgd_step"):
        tracer.wrap(neural, fn, f"neural.{fn}")
    tracer.wrap(neural, "hinge_gradients", "neural.hinge_gradients", count_hinge)
    tracer.wrap(evaluation, "rerank_run", "evaluation.rerank_run")
    tracer.wrap(evaluation, "report_for_runs", "evaluation.report_for_runs")
