"""identity/run.py on a small recipe: this working tree against itself, and
against a copy whose `model.score` negates every score."""

import shutil
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent / "run.py"
REPO = TOOL.parent.parent


def verdicts(stdout: str) -> dict[str, str]:
    """{artifact path: `same` or `differs...`} from the tool's report."""
    out = {}
    for line in stdout.splitlines():
        path, sep, verdict = line.partition("  ")
        if sep and verdict.strip().startswith(("same", "differs")):
            out[path] = verdict.strip()
    return out


def test_identity_against_itself_and_a_negated_score_copy(tmp_path):
    mutant = tmp_path / "mutant"
    shutil.copytree(REPO / "src", mutant / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    model = mutant / "src" / "pacrr" / "model.py"
    text = model.read_text(encoding="utf-8")
    old = "return float(rel), ScoreCache("
    assert text.count(old) == 1
    model.write_text(text.replace(old, "return -float(rel), ScoreCache("), encoding="utf-8")

    # Both comparisons run at once; each takes about ten seconds.
    runs = {base: subprocess.Popen([sys.executable, str(TOOL), "--base", str(base), "--small"],
                                   stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            for base in (REPO, mutant)}
    try:
        done = {base: (proc.communicate(timeout=600)[0], proc.returncode)
                for base, proc in runs.items()}
    finally:
        for proc in runs.values():
            proc.kill()

    stdout, code = done[REPO]
    same = verdicts(stdout)
    assert code == 0, stdout
    assert len(same) > 40 and set(same.values()) == {"same"}, stdout
    assert any(p.endswith("/config.txt") for p in same)
    assert any(p.endswith(".pacrr") for p in same)

    stdout, code = done[mutant]
    negated = verdicts(stdout)
    assert code == 1, stdout
    assert set(negated) == set(same), stdout
    for path, verdict in negated.items():
        if path.endswith(("/scores.jsonl", "/reranked_run.txt")):
            assert verdict.startswith("differs: max |delta score|"), (path, verdict)
    assert all(verdict == "same" for path, verdict in negated.items() if "/data/" in path)
    # gradcheck fails against the negated score; the recipe goes on.
    assert "'[exit 3]'" in negated["s42/gradcheck.log"], negated["s42/gradcheck.log"]
    assert "failed in base: s42/gradcheck.log" in stdout, stdout
