"""Compare every artifact of one recipe run in two checkouts of pacrr.

    python3 identity/run.py --base REV [--declared FILE] [--small]

REV is a git revision of the repository holding this script, exported with
`git archive` into a temporary directory, or a directory path, used as it
is; it is compared with the working tree holding this script. Each checkout
runs the same recipe through `python -m pacrr.cli` with its own `src/`, in
its own working directory and with relative paths, so every file the
commands write, `config.txt` included, can be compared:

    per seed (0 and 42): synth (200 documents), gradcheck;
    per seed, mode (firstk, kwindow) and l_d (12, synth's, and 48, above
    the longest synthetic document): train (2 x 8 batches), rerank, score,
    pairacc, and eval of the re-ranked run.

--small runs the same steps at seed 42 and l_d 48 alone, on 40 documents
and 2 x 2 batches.

Every command's stdout and stderr is an artifact too (`<step>.log`),
ending in an `[exit N]` line when the command fails; the recipe goes on
after a failure. The script prints one line per artifact, `same` or
`differs` with a measure:

    checkpoints (*.pacrr)         max |delta| per tensor
    scores.jsonl, reranked runs   max |delta score|, queries whose order changed
    gradcheck.log                 the lines that differ
    logs, metrics, other files    the changed records (lines)

Checkpoints and runs are read with the working tree's `pacrr` loaders; a
file they refuse is measured by its changed records.

It exits 0 when every artifact is `same` or matches a pattern (fnmatch, one
per line, `#` comments) in the --declared file, 1 when another differs, and
2 when a command of the recipe fails in both checkouts. It needs only the
standard library, numpy and git, and writes nothing under `.git`.
"""

from __future__ import annotations

import argparse
import fnmatch
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
from pacrr.corpus import load_run  # noqa: E402
from pacrr.errors import DataError  # noqa: E402
from pacrr.model import load_params  # noqa: E402

MODES = ("firstk", "kwindow")
# (seeds, l_d values, synth documents, training iterations, batches per iteration)
RECIPE = ((0, 42), (12, 48), 200, 2, 8)
SMALL_RECIPE = ((42,), (48,), 40, 2, 2)


def export(repo: Path, rev: str, into: Path) -> str:
    """Extract `rev`'s tree into `into`; returns the commit's full SHA."""
    sha = subprocess.run(["git", "-C", str(repo), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", sha],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return sha


def with_keys(config_text: str, **keys) -> str:
    """A run config's text with the given keys set, each in its own line."""
    lines = [line for line in config_text.splitlines()
             if line.partition("=")[0].strip() not in keys]
    return "\n".join(lines + [f"{key} = {value}" for key, value in keys.items()]) + "\n"


def run_recipe(checkout: Path, work: Path, seeds, widths, docs: int, iterations: int,
               batches: int) -> list[str]:
    """Run the recipe with `checkout`'s sources inside `work`; returns the
    logs of the commands that failed."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    failed = []

    def pacrr(log: str, *argv: str) -> None:
        done = subprocess.run([sys.executable, "-m", "pacrr.cli", *argv], cwd=work, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        status = f"[exit {done.returncode}]\n".encode() if done.returncode else b""
        (work / log).write_bytes(done.stdout + status)
        if done.returncode:
            failed.append(log)

    for seed in seeds:
        data = f"s{seed}/data"
        (work / f"s{seed}").mkdir()
        pacrr(f"s{seed}/synth.log", "--seed", str(seed), "--out", data, "synth",
              "--docs", str(docs))
        pacrr(f"s{seed}/gradcheck.log", "--seed", str(seed), "gradcheck")
        synth_config = (work / data / "config.txt").read_text(encoding="utf-8")
        for mode in MODES:
            for l_d in widths:
                case = f"s{seed}/{mode}-{l_d}"
                (work / case).mkdir()
                config = f"{case}/config.txt"
                (work / config).write_text(with_keys(
                    synth_config, mode=mode, l_d=l_d, iterations=iterations,
                    batches_per_iteration=batches, out_dir=f"{case}/train_out"))
                best = f"{case}/train_out/best.pacrr"
                pacrr(f"{case}/train.log", "--config", config, "train")
                for step in ("rerank", "score", "pairacc"):
                    pacrr(f"{case}/{step}.log", "--config", config, "--out", f"{case}/{step}",
                          step, "--checkpoint", best)
                reranked = f"{case}/eval_config.txt"
                (work / reranked).write_text(with_keys(
                    synth_config, run=f"{case}/rerank/reranked_run.txt"))
                pacrr(f"{case}/eval.log", "--config", reranked, "--out", f"{case}/eval", "eval")
    return failed


# ---------------------------------------------------------------------------
# Measures of a difference, one per artifact kind

def checkpoint_delta(a: Path, b: Path) -> str:
    try:
        (params_a, config_a), (params_b, config_b) = load_params(a), load_params(b)
    except DataError:
        return records_delta(a, b)
    ta = {name: group.value for name, group in params_a.groups.items()}
    tb = {name: group.value for name, group in params_b.groups.items()}
    parts = [] if config_a == config_b else ["config header"]
    for name in sorted(set(ta) | set(tb)):
        if name not in ta or name not in tb or ta[name].shape != tb[name].shape:
            parts.append(f"{name} shape")
        elif ta[name].tobytes() != tb[name].tobytes():
            delta = np.abs(ta[name].astype(np.float64) - tb[name].astype(np.float64)).max()
            parts.append(f"{name} {delta:.3g}")
    return "max |delta| " + ", ".join(parts) if parts else "same tensors, other bytes"


def scores_of(path: Path) -> dict[str, dict[str, float]]:
    """{query id: {doc id: score}} of scores.jsonl or a TREC run."""
    if path.suffix == ".txt":
        return {qid: {did: score for did, _, score in run.entries}
                for qid, run in load_run(path).items()}
    scores: dict[str, dict[str, float]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        scores.setdefault(record["query_id"], {})[record["doc_id"]] = float(record["score"])
    return scores


def scores_delta(a: Path, b: Path) -> str:
    try:
        sa, sb = scores_of(a), scores_of(b)
    except (DataError, ValueError, KeyError, TypeError):
        return records_delta(a, b)
    if {q: set(d) for q, d in sa.items()} != {q: set(d) for q, d in sb.items()}:
        return "other (query, document) pairs; " + records_delta(a, b)
    delta = max((abs(sa[q][d] - sb[q][d]) for q in sa for d in sa[q]), default=0.0)

    def order(per_query):
        return sorted(per_query, key=lambda d: (-per_query[d], d))

    reordered = sum(order(sa[q]) != order(sb[q]) for q in sa)
    return f"max |delta score| {delta:.3g}, {reordered} of {len(sa)} queries reordered"


def records_delta(a: Path, b: Path, show: int = 3) -> str:
    la, lb = a.read_bytes().splitlines(), b.read_bytes().splitlines()
    changed = [i + 1 for i in range(max(len(la), len(lb)))
               if i >= len(la) or i >= len(lb) or la[i] != lb[i]]
    if not changed:
        return "same records, other bytes"
    listed = ", ".join(map(str, changed[:show])) + (", ..." if len(changed) > show else "")
    return f"{len(changed)} of {max(len(la), len(lb))} records changed (line {listed})"


def lines_delta(a: Path, b: Path) -> str:
    la, lb = (p.read_text(encoding="utf-8", errors="replace").splitlines() for p in (a, b))
    pairs = [(x, y) for x, y in zip(la, lb) if x != y]
    pairs += [(x, "") for x in la[len(lb):]] + [("", y) for y in lb[len(la):]]
    return " | ".join(f"{x!r} -> {y!r}" for x, y in pairs)


def measure(a: Path, b: Path) -> str:
    name = a.name
    if name.endswith(".pacrr"):
        return checkpoint_delta(a, b)
    if name in ("scores.jsonl", "reranked_run.txt"):
        return scores_delta(a, b)
    if name == "gradcheck.log":
        return lines_delta(a, b)
    return records_delta(a, b)


def compare(base: Path, head: Path, declared: list[str]) -> tuple[list[str], int]:
    """One report line per artifact; the count of undeclared differences."""
    files = sorted({p.relative_to(root).as_posix() for root in (base, head)
                    for p in root.rglob("*") if p.is_file()})
    width = max(map(len, files))
    lines, undeclared = [], 0
    for path in files:
        a, b = base / path, head / path
        if a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes():
            verdict = "same"
        else:
            if not a.is_file() or not b.is_file():
                measure_text = f"only in {'head' if b.is_file() else 'base'}"
            else:
                measure_text = measure(a, b)
            is_declared = any(fnmatch.fnmatchcase(path, pattern) for pattern in declared)
            undeclared += not is_declared
            verdict = f"differs{' (declared)' if is_declared else ''}: {measure_text}"
        lines.append(f"{path:<{width}}  {verdict}")
    return lines, undeclared


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision or checkout directory")
    parser.add_argument("--declared", help="file of artifact patterns allowed to differ")
    parser.add_argument("--small", action="store_true",
                        help="seed 42, l_d 48, 40 synth documents and 2 x 2 batches")
    args = parser.parse_args(argv)
    recipe = SMALL_RECIPE if args.small else RECIPE
    seeds, widths, docs, iterations, batches = recipe

    declared = []
    if args.declared:
        declared = [line.strip() for line in Path(args.declared).read_text().splitlines()
                    if line.strip() and not line.lstrip().startswith("#")]
    with tempfile.TemporaryDirectory(prefix="pacrr-identity-") as scratch:
        work = Path(scratch)
        base = Path(args.base)
        if base.is_dir():
            label = str(base.resolve())
        else:
            base = work / "base-tree"
            label = f"{args.base} ({export(REPO, args.base, base)})"
        print(f"base: {label}\nhead: {REPO}")
        print(f"recipe: seeds {seeds}, modes {MODES}, l_d {widths}, synth --docs {docs}, "
              f"{iterations} x {batches} batches")
        runs = {"base": work / "base-run", "head": work / "head-run"}
        failed = {}
        for side, checkout in (("base", base), ("head", REPO)):
            runs[side].mkdir()
            failed[side] = run_recipe(checkout.resolve(), runs[side], *recipe)
        lines, undeclared = compare(runs["base"], runs["head"], declared)
    print("\n".join(lines))
    differing = sum("  differs" in line for line in lines)
    print(f"{len(lines)} artifacts: {len(lines) - differing} same, {differing} differ, "
          f"{undeclared} of them undeclared")
    for side, logs in failed.items():
        if logs:
            print(f"failed in {side}: {', '.join(logs)}")
    return 2 if set(failed["base"]) & set(failed["head"]) else 1 if undeclared else 0


if __name__ == "__main__":
    sys.exit(main())
