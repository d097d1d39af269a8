"""Tiny-scale smoke test of the benchmark: every declared metric is emitted,
checks pass, and the benchmark refuses to run without the package sources."""

import math
import shutil
import subprocess
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))

TINY = run.Workload(
    name="tiny-desk-kwindow",
    spec=dict(n_docs=80, n_train_queries=4, n_val_queries=6, run_depth=10),
    model=dict(l_q=4, l_d=12, l_g=3, n_f=4, n_s=2, mode="kwindow", learning_rate=0.05),
    n_val=2, iterations=2, batches=1,
)


def test_every_declared_metric_is_emitted(tmp_path, capsys):
    # The traced run also compares its quality against the untraced run's record.
    for trace in (False, True):
        result = run.run(TINY, seed=3, seconds=0.0, trace=trace, work_dir=tmp_path)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == run.declared_units(trace)
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    out = capsys.readouterr().out
    for name in ("val_err20", "rerank_err20", "failed_frac"):
        assert f"\n{name} " in out


def test_refuses_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-paper-firstk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "pacrr sources not found" in proc.stderr
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
