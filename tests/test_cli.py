import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from helpers import checkpoint_with_header, run_bounded
from pacrr.cli import main
from pacrr.config import RunConfig, load_run_config, write_run_config
from pacrr.errors import ConfigError
from pacrr.model import PacrrConfig


class TestRunConfig:
    def test_defaults(self):
        cfg = load_run_config(None)
        assert cfg.model == PacrrConfig()
        assert cfg.model.l_d == 768 and cfg.model.mode == "firstk"

    def test_parse_and_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nl_q = 8\nmode = kwindow\nlearning_rate = 0.5\n")
        cfg = load_run_config(path)
        assert cfg.model.l_q == 8 and cfg.model.mode == "kwindow"
        assert cfg.model.learning_rate == 0.5
        write_run_config(cfg, tmp_path / "copy.cfg")
        assert load_run_config(tmp_path / "copy.cfg") == cfg

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_run_config(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("l_q = not-a-number\n")
        with pytest.raises(ConfigError, match="l_q"):
            load_run_config(path)

    def test_grade_map_parsing(self):
        cfg = RunConfig(grade_map="-1:0,5:4")
        assert cfg.parsed_grade_map() == {-1: 0, 5: 4}
        with pytest.raises(ConfigError):
            RunConfig(grade_map="oops").parsed_grade_map()

    @pytest.mark.parametrize("key", ["iterations", "batches_per_iteration"])
    def test_empty_schedule_rejected(self, tmp_path, key):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = 0\n")
        with pytest.raises(ConfigError, match=key):
            load_run_config(path)

    def test_g_max_is_not_a_key(self, tmp_path):
        # ERR's gain denominator is fixed by the top canonical grade.
        path = tmp_path / "run.cfg"
        path.write_text("g_max = 4\n")
        with pytest.raises(ConfigError, match="unknown config key 'g_max'"):
            load_run_config(path)

    def test_k_is_not_a_key(self, tmp_path):
        # The metric cutoff is the paper's fixed @20, evaluation.K.
        path = tmp_path / "run.cfg"
        path.write_text("k = 20\n")
        with pytest.raises(ConfigError, match="unknown config key 'k'"):
            load_run_config(path)

    def test_readme_lists_every_key(self):
        # The README's configuration block names each run-config key once.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Configuration", 1)[1].split("```")[1]
        documented = set()
        for line in block.splitlines():
            entry = line.split("#", 1)[0]
            documented.update(name.strip() for name in entry.split("=", 1)[0].split(",")
                              if name.strip())
        keys = {f.name for f in (*fields(RunConfig), *fields(PacrrConfig))} - {"model"}
        assert documented == keys

    def test_directory_config_exits_1(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path), "eval"]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: config path is not a file: {tmp_path}\n"

    def test_invalid_utf8_is_config_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"run_tag = caf\xe9\n")
        with pytest.raises(ConfigError, match=r"run\.cfg: not valid UTF-8"):
            load_run_config(path)

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config("no/such/file.cfg")


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-synth")
    code = main(["--out", str(out), "--seed", "5", "synth",
                 "--docs", "60", "--train-queries", "5", "--val-queries", "2",
                 "--run-depth", "30"])
    assert code == 0
    # shrink the generated config for fast CLI tests
    cfg = load_run_config(out / "config.txt")
    cfg.iterations = 2
    cfg.batches_per_iteration = 2
    write_run_config(cfg, out / "config.txt")
    return out


@pytest.fixture(scope="module")
def trained_checkpoint(synth_dir):
    assert main(["--config", str(synth_dir / "config.txt"), "train"]) == 0
    return synth_dir / "train_out" / "best.pacrr"


class TestCliCommands:
    def test_synth_outputs(self, synth_dir):
        for name in ("corpus.jsonl", "queries.jsonl", "qrels.txt", "run.txt",
                     "embeddings.txt", "train_qids.txt", "val_qids.txt", "config.txt"):
            assert (synth_dir / name).exists(), name

    @pytest.mark.parametrize("flags, message", [
        (["--p-bigram", "0.9", "--p-scatter", "0.9"], "unrecognized arguments"),
        (["--doc-len-min", "2"], "unrecognized arguments"),
        (["--vocab", "1"], "unrecognized arguments"),
        (["--train-queries", "0", "--val-queries", "0"], "query counts"),
        (["--docs", "-1"], "n_docs"),
        (["--run-depth", "0"], "run_depth"),
    ])
    def test_bad_synth_values_exit_1(self, tmp_path, capsys, flags, message):
        try:
            code = main(["--out", str(tmp_path / "s"), "synth", *flags])
        except SystemExit as exc:
            code = exc.code
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_synth_out_dir_its_config_cannot_hold_exits_1_writing_nothing(self, tmp_path,
                                                                          capsys):
        # The written config's paths would hold " #", which its reader refuses.
        out = tmp_path / "sy #1"
        assert main(["--out", str(out), "synth", "--docs", "40"]) == 1
        err = capsys.readouterr().err
        assert "out_dir" in err and "trailing comment" in err
        assert not out.exists()
        with pytest.raises(ConfigError, match="out_dir"):
            write_run_config(RunConfig(out_dir="x #y"), tmp_path / "c.cfg")
        assert not (tmp_path / "c.cfg").exists()
        write_run_config(RunConfig(run_tag="a#b", out_dir="x#y"), tmp_path / "c.cfg")
        assert load_run_config(tmp_path / "c.cfg").out_dir == "x#y"

    @pytest.mark.parametrize("command, flags, line, key", [
        *[(command, ["--seed", "-3"], "", "seed") for command in ("synth", "train", "gradcheck")],
        *[(command, [], "seed = -3", "seed") for command in ("synth", "train", "gradcheck")],
        ("eval", [], "grade_map = 2:7", "grade_map"),
        *[("eval", [], f"run_tag ={tag}", "run_tag") for tag in ("", " my tag",
                                                                  " pacrr  # my run")],
        ("eval", [], "out_dir = ev  # eval output", "out_dir"),
        ("eval", [], "corpus = corpus.jsonl  # the documents", "corpus"),
        *[(command, [], "grade_map = 2:7", "grade_map")
          for command in ("score --checkpoint none.pacrr", "gradcheck", "synth")],
    ])
    def test_bad_config_exits_1_naming_the_key(self, synth_dir, tmp_path, capsys,
                                               command, flags, line, key):
        path = tmp_path / "bad.cfg"
        path.write_text((synth_dir / "config.txt").read_text() + line + "\n")
        code = main(["--config", str(path), "--out", str(tmp_path / "out"), *flags,
                     *command.split()])
        err = capsys.readouterr().err
        assert code == 1
        assert f"config error: {key}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_gradcheck_passes(self, capsys):
        # Each check draws the same inputs at every seed, so the lines, their
        # order and their counts are fixed.
        expected = [("conv2d", "15"), ("max_over_filters", "60"), ("kmax_per_row", "28"),
                    ("softmax", "5"), ("recurrent_sequence", "43"), ("hinge_loss", "2"),
                    ("pipeline_firstk", "96"), ("pipeline_kwindow", "96")]
        for seed in ("0", "42"):
            assert main(["--seed", seed, "gradcheck"]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert [line.split(":")[0] for line in lines] == [name for name, _ in expected]
            for line, (name, checked) in zip(lines, expected):
                assert f" checked={checked} excluded=0 [ok]" in line, (seed, line)

    def test_gradcheck_deterministic(self, capsys):
        reports = []
        for _ in range(3):
            main(["--seed", "3", "gradcheck"])
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1] == reports[2]

    def test_train_then_apply(self, synth_dir, trained_checkpoint, tmp_path):
        config = str(synth_dir / "config.txt")
        checkpoint = trained_checkpoint
        assert checkpoint.exists()
        log_lines = (checkpoint.parent / "training_log.jsonl").read_text().splitlines()
        assert len(log_lines) == 2

        assert main(["--config", config, "--out", str(tmp_path / "rr"), "rerank",
                     "--checkpoint", str(checkpoint)]) == 0
        assert (tmp_path / "rr" / "reranked_run.txt").exists()
        metrics = [json.loads(line) for line in
                   (tmp_path / "rr" / "rerank_metrics.jsonl").read_text().splitlines()]
        assert {m["stage"] for m in metrics} == {"before", "after"}

        assert main(["--config", config, "--out", str(tmp_path / "sc"), "score",
                     "--checkpoint", str(checkpoint)]) == 0
        scores = [json.loads(line) for line in
                  (tmp_path / "sc" / "scores.jsonl").read_text().splitlines()]
        assert scores and {"query_id", "doc_id", "score"} == set(scores[0])

        assert main(["--config", config, "--out", str(tmp_path / "ev"), "eval"]) == 0
        assert (tmp_path / "ev" / "metrics.jsonl").exists()

        assert main(["--config", config, "--out", str(tmp_path / "pa"), "pairacc",
                     "--checkpoint", str(checkpoint)]) == 0
        report = json.loads((tmp_path / "pa" / "pair_accuracy.json").read_text())
        volumes = [p["volume"] for p in report["pairs"]]
        assert sum(volumes) == pytest.approx(1.0)
        recomputed = sum(p["accuracy"] * p["volume"] for p in report["pairs"])
        assert report["weighted_average"] == pytest.approx(recomputed)

    def test_reranked_run_round_trips(self, synth_dir, trained_checkpoint, tmp_path):
        from pacrr.corpus import load_run

        config = str(synth_dir / "config.txt")
        out = tmp_path / "rr2"
        assert main(["--config", config, "--out", str(out), "rerank",
                     "--checkpoint", str(trained_checkpoint)]) == 0
        runs = load_run(out / "reranked_run.txt")
        assert runs

    def test_missing_path_is_config_error(self, synth_dir, tmp_path):
        cfg = load_run_config(synth_dir / "config.txt")
        cfg.embeddings = str(tmp_path / "missing.txt")
        bad = tmp_path / "bad.cfg"
        write_run_config(cfg, bad)
        assert main(["--config", str(bad), "train"]) == 1

    def test_zero_iterations_is_config_error(self, synth_dir, tmp_path, capsys):
        text = (synth_dir / "config.txt").read_text()
        bad = tmp_path / "zero.cfg"
        bad.write_text(text.replace("iterations = 2", "iterations = 0"))
        assert main(["--config", str(bad), "train"]) == 1
        assert "iterations must be >= 1" in capsys.readouterr().err

    def test_missing_train_query_is_data_error(self, synth_dir, tmp_path, capsys):
        cfg = load_run_config(synth_dir / "config.txt")
        qids = tmp_path / "train_qids.txt"
        qids.write_text("no-such-query\n")
        cfg.train_qids = str(qids)
        cfg.out_dir = str(tmp_path / "out")
        bad = tmp_path / "bad3.cfg"
        write_run_config(cfg, bad)
        assert main(["--config", str(bad), "train"]) == 2
        assert "no-such-query" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_utf8_qid_list_is_data_error(self, synth_dir, tmp_path, capsys):
        cfg = load_run_config(synth_dir / "config.txt")
        qids = tmp_path / "val_qids.txt"
        qids.write_bytes(b"q\xff\n")
        cfg.val_qids = str(qids)
        cfg.out_dir = str(tmp_path / "out")
        bad = tmp_path / "bad4.cfg"
        write_run_config(cfg, bad)
        assert main(["--config", str(bad), "train"]) == 2
        assert "val_qids.txt: not valid UTF-8" in capsys.readouterr().err

    def test_empty_validation_set_is_data_error(self, synth_dir, tmp_path, capsys):
        cfg = load_run_config(synth_dir / "config.txt")
        qids = tmp_path / "val_qids.txt"
        qids.write_text("")
        cfg.val_qids = str(qids)
        cfg.out_dir = str(tmp_path / "out")
        bad = tmp_path / "noval.cfg"
        write_run_config(cfg, bad)
        assert main(["--config", str(bad), "train"]) == 2
        err = capsys.readouterr().err
        assert "data error: no validation queries to select a model: val_qids is empty" in err
        assert "Traceback" not in err
        assert not [p for p in (tmp_path / "out").rglob("*") if p.is_file()]

    @pytest.mark.parametrize("case, message", [
        ("no_train_qids", "data error: no positive documents available for sampling"),
        ("no_grade_1", "data error: no positive documents available for sampling"),
    ])
    def test_unsampleable_training_set_is_data_error(self, synth_dir, tmp_path, capsys,
                                                     case, message):
        cfg = load_run_config(synth_dir / "config.txt")
        if case == "no_train_qids":
            qids = tmp_path / "train_qids.txt"
            qids.write_text("")
            cfg.train_qids = str(qids)
        else:
            train_qids = set((synth_dir / "train_qids.txt").read_text().split())
            qrels = tmp_path / "qrels.txt"
            qrels.write_text("".join(
                line + "\n" for line in (synth_dir / "qrels.txt").read_text().splitlines()
                if line.split()[0] not in train_qids or line.split()[3] != "1"))
            cfg.qrels = str(qrels)
        cfg.out_dir = str(tmp_path / "out")
        bad = tmp_path / "unsampleable.cfg"
        write_run_config(cfg, bad)
        assert main(["--config", str(bad), "train"]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_eval_of_invalid_utf8_run_exits_2(self, synth_dir, tmp_path):
        cfg = load_run_config(synth_dir / "config.txt")
        run = tmp_path / "run.txt"
        run.write_bytes((synth_dir / "run.txt").read_bytes() + b"q\xff Q0 d 1 1.0 t\n")
        cfg.run = str(run)
        path = tmp_path / "eval.cfg"
        write_run_config(cfg, path)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "pacrr.cli", "--config", str(path),
             "--out", str(tmp_path / "ev"), "eval"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert f"data error: {run}: not valid UTF-8" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("keys", [dict(n_f=2**40), dict(l_g=10**6, l_d=10**6)],
                             ids=["n_f", "l_g"])
    def test_rerank_with_an_oversized_checkpoint_header_exits_2(self, synth_dir, tmp_path,
                                                                keys):
        checkpoint = tmp_path / "big.pacrr"
        checkpoint.write_bytes(checkpoint_with_header(PacrrConfig(l_q=4, l_d=12, n_f=4), **keys))
        args = ["--config", str(synth_dir / "config.txt"), "--out", str(tmp_path / "rr"),
                "rerank", "--checkpoint", str(checkpoint)]
        proc = run_bounded(f"import sys\nfrom pacrr.cli import main\nsys.exit(main({args!r}))",
                           1 << 30, 60)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"data error: {checkpoint}: ")
        assert "Traceback" not in proc.stderr

    def test_train_leaves_no_temp_files(self, synth_dir, tmp_path):
        cfg = load_run_config(synth_dir / "config.txt")
        cfg.out_dir = str(tmp_path / "out")
        path = tmp_path / "run.cfg"
        write_run_config(cfg, path)
        assert main(["--config", str(path), "train"]) == 0
        written = sorted(p.relative_to(tmp_path / "out").as_posix()
                         for p in (tmp_path / "out").rglob("*") if p.is_file())
        assert written == ["best.pacrr", "checkpoints/iter_0001.pacrr",
                           "checkpoints/iter_0002.pacrr", "training_log.jsonl"]

    @pytest.mark.parametrize("rate", ["0", "-1", "nan", "inf"])
    def test_bad_learning_rate_is_config_error(self, synth_dir, tmp_path, capsys, rate):
        cfg = load_run_config(synth_dir / "config.txt")
        cfg.out_dir = str(tmp_path / "out")
        path = tmp_path / "lr.cfg"
        write_run_config(cfg, path)
        path.write_text(path.read_text().replace("learning_rate = 0.05",
                                                 f"learning_rate = {rate}"))
        assert main(["--config", str(path), "train"]) == 1
        assert "learning_rate must be finite and > 0" in capsys.readouterr().err

    def test_diverging_training_is_config_error(self, synth_dir, tmp_path, capsys):
        cfg = load_run_config(synth_dir / "config.txt")
        cfg.out_dir = str(tmp_path / "out")
        cfg.model = replace(cfg.model, learning_rate=1e300)
        path = tmp_path / "diverge.cfg"
        write_run_config(cfg, path)
        assert main(["--config", str(path), "train"]) == 1
        err = capsys.readouterr().err
        assert "parameter group '" in err and "learning_rate" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "best.pacrr").exists()

    def test_rerank_uses_the_checkpoint_l_q(self, synth_dir, tmp_path, caplog):
        # A config l_q below the checkpoint's must not truncate the queries;
        # one warning names the ignored key, and none is given when all agree.
        from pacrr.model import init_params, save_params

        cfg = load_run_config(synth_dir / "config.txt")
        checkpoint = tmp_path / "init.pacrr"
        save_params(init_params(cfg.model), cfg.model, checkpoint)
        checkpoint_l_q = cfg.model.l_q
        written = []
        warnings = []
        for l_q in (checkpoint_l_q, 2):
            cfg.model = replace(cfg.model, l_q=l_q)
            path = tmp_path / f"lq{l_q}.cfg"
            write_run_config(cfg, path)
            out = tmp_path / f"rr{l_q}"
            caplog.clear()
            with caplog.at_level("WARNING", logger="pacrr.cli"):
                assert main(["--config", str(path), "--out", str(out), "rerank",
                             "--checkpoint", str(checkpoint)]) == 0
            warnings.append([r.getMessage() for r in caplog.records if r.name == "pacrr.cli"])
            written.append((out / "reranked_run.txt").read_bytes())
        assert written[0] == written[1]
        assert warnings == [[], ["using the checkpoint's model keys; ignoring config "
                                 f"l_q=2 (checkpoint {checkpoint_l_q})"]]

    def test_failed_report_write_keeps_old_report_and_no_temp(self, synth_dir, tmp_path,
                                                              monkeypatch):
        out = tmp_path / "ev"
        out.mkdir()
        (out / "metrics.jsonl").write_text("old\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("pacrr.corpus.os.replace", fail)
        assert main(["--config", str(synth_dir / "config.txt"), "--out", str(out),
                     "eval"]) == 2
        assert (out / "metrics.jsonl").read_text() == "old\n"
        assert [p.name for p in out.iterdir()] == ["metrics.jsonl"]

    def test_failed_run_write_keeps_old_run_and_no_temp(self, synth_dir, trained_checkpoint,
                                                        tmp_path, monkeypatch, capsys):
        out = tmp_path / "rr"
        out.mkdir()
        (out / "reranked_run.txt").write_text("old\n")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("pacrr.corpus.os.replace", fail)
        assert main(["--config", str(synth_dir / "config.txt"), "--out", str(out), "rerank",
                     "--checkpoint", str(trained_checkpoint)]) == 2
        assert capsys.readouterr().err == (f"I/O error: cannot write "
                                           f"{out / 'reranked_run.txt'}: disk full\n")
        assert (out / "reranked_run.txt").read_text() == "old\n"
        assert [p.name for p in out.iterdir()] == ["reranked_run.txt"]

    def test_second_rerank_reads_the_embeddings_sidecar(self, synth_dir, trained_checkpoint,
                                                        tmp_path, monkeypatch):
        cfg = load_run_config(synth_dir / "config.txt")
        embeddings = tmp_path / "embeddings.txt"
        embeddings.write_bytes((synth_dir / "embeddings.txt").read_bytes())
        cfg.embeddings = str(embeddings)
        config = tmp_path / "run.cfg"
        write_run_config(cfg, config)
        args = ["--config", str(config), "rerank", "--checkpoint", str(trained_checkpoint)]
        assert main(["--out", str(tmp_path / "cold"), *args]) == 0
        assert (tmp_path / ".embeddings.txt.pacrrvec").is_file()

        def refuse_to_parse(path):
            raise AssertionError(f"{path} was parsed")

        monkeypatch.setattr("pacrr.corpus._parse_embeddings", refuse_to_parse)
        assert main(["--out", str(tmp_path / "warm"), *args]) == 0
        assert ((tmp_path / "warm" / "reranked_run.txt").read_bytes()
                == (tmp_path / "cold" / "reranked_run.txt").read_bytes())

    def test_unwritable_out_is_an_io_error(self, synth_dir, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["--config", str(synth_dir / "config.txt"), "--out",
                     str(blocker / "ev"), "eval"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("I/O error: ") and str(blocker / "ev") in err
        assert err.count("\n") == 1

    def test_score_skips_unknown_query_and_doc_in_one_warning(self, synth_dir, tmp_path,
                                                              caplog):
        from pacrr.corpus import load_run
        from pacrr.model import init_params, save_params

        cfg = load_run_config(synth_dir / "config.txt")
        checkpoint = tmp_path / "init.pacrr"
        save_params(init_params(cfg.model), cfg.model, checkpoint)
        runs = load_run(cfg.run)
        qid = sorted(runs)[0]
        run = tmp_path / "run.txt"
        run.write_text((synth_dir / "run.txt").read_text()
                       + f"{qid} Q0 no-such-doc 1000 -9.0 t\nno-such-query Q0 d 1 1.0 t\n")
        cfg.run = str(run)
        path = tmp_path / "score.cfg"
        write_run_config(cfg, path)
        with caplog.at_level("WARNING"):
            assert main(["--config", str(path), "--out", str(tmp_path / "sc"), "score",
                         "--checkpoint", str(checkpoint)]) == 0
        skips = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
        assert skips == ["skipped 1 query ids not in the query file and 1 documents "
                         "not in the corpus"]
        scored = [json.loads(line) for line in
                  (tmp_path / "sc" / "scores.jsonl").read_text().splitlines()]
        # The run file's pairs, query by query in run order, minus the two skipped.
        assert [(row["query_id"], row["doc_id"]) for row in scored] == \
            [(q, did) for q in sorted(runs) for did in runs[q].doc_ids()]

    def test_train_skips_judged_documents_missing_from_the_corpus(self, synth_dir, tmp_path,
                                                                  caplog):
        cfg = load_run_config(synth_dir / "config.txt")
        qid = (synth_dir / "train_qids.txt").read_text().split()[0]
        qrels = tmp_path / "qrels.txt"
        qrels.write_text((synth_dir / "qrels.txt").read_text()
                         + f"{qid} 0 NOPE 2\n{qid} 0 NOPE2 0\n")
        cfg.qrels = str(qrels)
        cfg.out_dir = str(tmp_path / "out")
        path = tmp_path / "missing.cfg"
        write_run_config(cfg, path)
        with caplog.at_level("WARNING"):
            assert main(["--config", str(path), "train"]) == 0
        skips = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
        assert skips == ["skipped 2 judged training documents not in the corpus, 0 positives "
                         "with no document in the next grade bucket down and 0 validation-run "
                         "documents not in the corpus"]

    def test_corrupt_data_is_data_error(self, synth_dir, tmp_path):
        cfg = load_run_config(synth_dir / "config.txt")
        broken = tmp_path / "broken.jsonl"
        broken.write_text("not json\n")
        cfg.corpus = str(broken)
        bad = tmp_path / "bad2.cfg"
        write_run_config(cfg, bad)
        assert main(["--config", str(bad), "train"]) == 2

    def test_constant_scorer_preserves_metrics(self, synth_dir, tmp_path):
        # zeroed recurrent weights make rel(q, d) identically 0; the tie rule
        # must then reproduce the original ordering and metrics exactly
        from pacrr.model import init_params, save_params

        cfg = load_run_config(synth_dir / "config.txt")
        params = init_params(cfg.model)
        for name in ("rnn_w", "rnn_u", "rnn_b"):
            params[name].value[...] = 0.0
        checkpoint = tmp_path / "constant.pacrr"
        save_params(params, cfg.model, checkpoint)
        out = tmp_path / "const-rr"
        assert main(["--config", str(synth_dir / "config.txt"), "--out", str(out),
                     "rerank", "--checkpoint", str(checkpoint)]) == 0
        metrics = [json.loads(line) for line in
                   (out / "rerank_metrics.jsonl").read_text().splitlines()]
        before = {m["query_id"]: m for m in metrics if m["stage"] == "before"}
        after = {m["query_id"]: m for m in metrics if m["stage"] == "after"}
        assert before.keys() == after.keys()
        for qid in before:
            assert before[qid]["err20"] == after[qid]["err20"]
            assert before[qid]["ndcg20"] == after[qid]["ndcg20"]

    def test_gradcheck_failure_exits_3(self, monkeypatch, capsys):
        from pacrr import cli
        from pacrr.gradcheck import GradCheckResult

        # A large error fails, and so does a check that checked nothing.
        for result in (GradCheckResult(max_rel_error=0.5, checked=10, excluded=0),
                       GradCheckResult(max_rel_error=0.0, checked=0, excluded=0)):
            monkeypatch.setattr(cli, "gradcheck_report", lambda seed: {"conv2d": result})
            assert main(["gradcheck"]) == 3
            assert "FAIL" in capsys.readouterr().out

    def test_gradcheck_fails_on_a_nan_gradient(self, monkeypatch, capsys):
        from pacrr import neural

        backward = neural.recurrent_backward

        def nan_d_w(*args):
            d_xs, d_w, d_u, d_b = backward(*args)
            return d_xs, d_w * float("nan"), d_u, d_b

        monkeypatch.setattr(neural, "recurrent_backward", nan_d_w)
        assert main(["gradcheck"]) == 3
        failed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
                  if line.endswith("[FAIL]")]
        assert failed == ["recurrent_sequence", "pipeline_firstk", "pipeline_kwindow"]

    def test_train_is_deterministic(self, synth_dir, tmp_path):
        cfg = load_run_config(synth_dir / "config.txt")
        for sub in ("r1", "r2"):
            cfg.out_dir = str(tmp_path / sub)
            path = tmp_path / f"{sub}.cfg"
            write_run_config(cfg, path)
            assert main(["--config", str(path), "train"]) == 0
        assert (tmp_path / "r1" / "training_log.jsonl").read_bytes() == \
            (tmp_path / "r2" / "training_log.jsonl").read_bytes()


def _tree(root: Path) -> dict[str, bytes | None]:
    """Every path under `root`: a file's bytes, None for a directory."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


@pytest.fixture(scope="module")
def small_train(tmp_path_factory):
    """A `synth --docs 40` config trained 2 iterations x 1 batch, and the
    tree of that uninterrupted run."""
    root = tmp_path_factory.mktemp("small-train")
    assert main(["--out", str(root / "data"), "synth", "--docs", "40"]) == 0
    cfg = load_run_config(root / "data" / "config.txt")
    cfg.iterations = 2
    cfg.batches_per_iteration = 1
    config = root / "run.cfg"
    write_run_config(cfg, config)
    assert main(["--config", str(config), "--out", str(root / "ref"), "train"]) == 0
    return config, _tree(root / "ref")


class TestTrainOutputDirectory:
    RUN_FILES = ["checkpoints/iter_0001.pacrr", "checkpoints/iter_0002.pacrr",
                 "training_log.jsonl", "best.pacrr"]

    def test_reference_run_writes_the_run_files(self, small_train):
        _, ref = small_train
        assert sorted(ref) == sorted(["checkpoints", *self.RUN_FILES])
        assert ref["training_log.jsonl"].count(b"\n") == 2

    def test_second_train_into_the_same_directory_exits_1_and_keeps_the_first(
            self, small_train, tmp_path, capsys):
        config, _ = small_train
        out = tmp_path / "out"
        args = ["--config", str(config), "--out", str(out), "train"]
        assert main(args) == 0
        first = _tree(out)
        capsys.readouterr()
        assert main(args) == 1
        assert capsys.readouterr().err == (
            f"config error: output directory {out} already holds a training run "
            f"({out / 'training_log.jsonl'}); train into a new directory\n")
        assert _tree(out) == first

    @pytest.mark.parametrize("name", ["training_log.jsonl", "best.pacrr",
                                      "checkpoints/iter_0007.pacrr"])
    def test_any_run_file_is_refused_and_nothing_is_written(self, small_train, tmp_path,
                                                            capsys, name):
        config, _ = small_train
        out = tmp_path / "out"
        (out / name).parent.mkdir(parents=True)
        (out / name).write_bytes(b"earlier run")
        before = _tree(out)
        assert main(["--config", str(config), "--out", str(out), "train"]) == 1
        assert f"({out / name})" in capsys.readouterr().err
        assert _tree(out) == before

    def test_directory_of_unrelated_files_still_trains(self, small_train, tmp_path):
        config, ref = small_train
        out = tmp_path / "out"
        (out / "checkpoints").mkdir(parents=True)
        (out / "notes.txt").write_bytes(b"mine")
        (out / "checkpoints" / "old.pacrr").write_bytes(b"mine too")
        assert main(["--config", str(config), "--out", str(out), "train"]) == 0
        assert _tree(out) == {**ref, "notes.txt": b"mine", "checkpoints/old.pacrr": b"mine too"}

    @pytest.mark.parametrize("target, iterations_done", [
        ("checkpoints/iter_0001.pacrr", 0), ("checkpoints/iter_0002.pacrr", 1),
        ("best.pacrr", 2)])
    def test_failed_write_exits_2_leaving_a_prefix_of_the_run(self, small_train, tmp_path,
                                                              monkeypatch, capsys, target,
                                                              iterations_done):
        config, ref = small_train
        out = tmp_path / "out"
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst) == out / target:
                raise OSError("injected")
            real_replace(src, dst)

        monkeypatch.setattr("pacrr.corpus.os.replace", replace)
        assert main(["--config", str(config), "--out", str(out), "train"]) == 2
        assert capsys.readouterr().err == f"I/O error: cannot write {out / target}: injected\n"
        left = _tree(out)
        assert sorted(left) == sorted(["checkpoints", "training_log.jsonl",
                                       *self.RUN_FILES[:iterations_done]])
        for name in self.RUN_FILES[:iterations_done]:
            assert left[name] == ref[name], name
        lines = ref["training_log.jsonl"].splitlines(keepends=True)
        assert left["training_log.jsonl"] == b"".join(lines[:iterations_done])


def test_importing_pacrr_makes_no_ctypes_call():
    # The library sets no process-wide state, such as allocator thresholds,
    # through ctypes; numpy, which uses ctypes itself, is imported first.
    proc = run_bounded("import sys\nimport numpy\nevents = []\n"
                       "sys.addaudithook(lambda event, args: event.startswith('ctypes')"
                       " and events.append(event))\n"
                       "import pacrr\nprint(events)", 1 << 30, 60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
