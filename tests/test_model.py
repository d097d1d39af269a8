import json
import struct
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import all_rows_score, checkpoint_with_header, run_bounded
from pacrr import neural
from pacrr.corpus import EmbeddingTable, IdfTable, Query, TokenizedDocument
from pacrr.errors import CheckpointError
from pacrr.gradcheck import check_pipeline, check_pipeline_gradients
from pacrr.model import (PacrrConfig, Scorer, init_params, load_params, save_params, score,
                         score_gradients)
from pacrr.simmat import distill

TINY = dict(l_q=4, l_d=12, l_g=3, n_f=4, n_s=2)


def tiny_config(**overrides):
    kwargs = dict(TINY, mode="firstk", seed=42)
    kwargs.update(overrides)
    return PacrrConfig(**kwargs)


def random_distilled(config, rng, query_len=3, doc_len=None):
    doc_len = doc_len if doc_len is not None else config.l_d + 7
    sim = rng.uniform(-1, 1, (query_len, doc_len))
    return distill(sim, config.mode, config.l_d, config.l_g)


class TestConfig:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            PacrrConfig(l_q=4, l_d=12, l_g=1)
        with pytest.raises(ValueError):
            PacrrConfig(l_q=4, l_d=2, l_g=3)
        with pytest.raises(ValueError):
            PacrrConfig(l_q=4, l_d=12, mode="bogus")

    @pytest.mark.parametrize("learning_rate", [0.0, -1.0, float("nan"), float("inf")])
    def test_learning_rate_finite_and_positive(self, learning_rate):
        with pytest.raises(ValueError, match="learning_rate"):
            PacrrConfig(l_q=4, l_d=12, learning_rate=learning_rate)

    @pytest.mark.parametrize("field", ["l_q", "l_d", "l_g", "n_f", "n_s", "seed"])
    @pytest.mark.parametrize("value", [3.0, True])
    def test_sizes_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            tiny_config(**{field: value})

    def test_rnn_input_dim(self):
        assert PacrrConfig(l_q=4, l_d=12, l_g=4, n_s=2).rnn_input_dim == 9

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            tiny_config(seed=-1)

    def test_negative_seed_in_checkpoint_is_checkpoint_error(self, tmp_path):
        config = tiny_config()
        header = SimpleNamespace(to_dict=lambda: dict(config.to_dict(), seed=-1))
        write_checkpoint(tmp_path / "m.pacrr", header,
                         [(g.name.encode(), g.value) for g in init_params(config)])
        with pytest.raises(CheckpointError, match="seed must be >= 0"):
            load_params(tmp_path / "m.pacrr")


class TestInitParams:
    def test_seed_determinism(self):
        a = init_params(tiny_config())
        b = init_params(tiny_config())
        for ga, gb in zip(a, b):
            assert ga.value.tobytes() == gb.value.tobytes()

    def test_layer_count(self):
        params = init_params(tiny_config())
        conv_groups = [g.name for g in params if g.name.startswith("conv")]
        assert conv_groups == ["conv2_kernels", "conv2_bias", "conv3_kernels", "conv3_bias"]

    def test_biases_zero(self):
        params = init_params(tiny_config())
        assert np.all(params["conv2_bias"].value == 0.0)
        assert np.all(params["rnn_b"].value == 0.0)


class TestScore:
    def test_zero_input_zero_recurrent_params(self):
        config = tiny_config()
        params = init_params(config)
        for name in ("rnn_w", "rnn_u", "rnn_b"):
            params[name].value[...] = 0.0
        sim = np.zeros((2, 5))
        distilled = distill(sim, config.mode, config.l_d, config.l_g)
        rel, _ = score(params, config, distilled, np.array([1.0, 2.0]))
        assert rel == 0.0

    def test_output_bounded(self):
        rng = np.random.default_rng(1)
        for mode in ("firstk", "kwindow"):
            config = tiny_config(mode=mode)
            params = init_params(config)
            for _ in range(10):
                rel, _ = score(params, config, random_distilled(config, rng),
                               rng.uniform(0.1, 4.0, 3))
                assert -1.0 < rel < 1.0

    @pytest.mark.parametrize("mode", ["firstk", "kwindow"])
    def test_filter_routes_only_at_kmax_survivors(self, mode):
        config = tiny_config(mode=mode)
        distilled = random_distilled(config, np.random.default_rng(4))
        _, cache = score(init_params(config), config, distilled, np.ones(3))
        for n in (2, 3):
            src = cache.kmax_srcs[n]
            filters, cells, _ = neural.max_over_filters_backward(
                neural.kmax_per_row_backward(np.ones(src.shape), src), cache.conv_caches[n].out)
            assert filters.shape == cells.shape == (3 * config.n_s,)

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(2)
        config = tiny_config(mode="kwindow")
        params = init_params(config)
        distilled = random_distilled(config, rng)
        idf = rng.uniform(0.1, 3.0, 3)
        rel1, _ = score(params, config, distilled, idf)
        rel2, _ = score(params, config, distilled, idf)
        assert rel1 == rel2

    def test_scoring_never_writes_into_a_shared_distilled_input(self):
        # Under kwindow a document with no more windows than are kept shares
        # one matrix across n, so a write while scoring one n would reach
        # the others and every later score of the cached pair.
        rng = np.random.default_rng(6)
        config = tiny_config(mode="kwindow")
        params = init_params(config)
        distilled = random_distilled(config, rng, doc_len=config.l_d - 2)
        assert distilled.per_n[1] is distilled.per_n[2] is distilled.per_n[3]
        before = {n: m.tobytes() for n, m in distilled.per_n.items()}
        idf = rng.uniform(0.1, 3.0, 3)
        rels = []
        for _ in range(2):
            rel, cache = score(params, config, distilled, idf)
            score_gradients(params, config, cache, 1.0)
            rels.append(rel)
        assert rels[0] == rels[1]
        assert {n: m.tobytes() for n, m in distilled.per_n.items()} == before

    def test_idf_length_must_match(self):
        config = tiny_config()
        params = init_params(config)
        distilled = random_distilled(config, np.random.default_rng(3))
        with pytest.raises(ValueError, match="idf"):
            score(params, config, distilled, np.ones(2))

    def test_mode_mismatch_rejected(self):
        config = tiny_config(mode="kwindow")
        params = init_params(config)
        distilled = random_distilled(tiny_config(mode="firstk"), np.random.default_rng(4))
        with pytest.raises(ValueError, match="mode"):
            score(params, config, distilled, np.ones(3))


class TestScoreGradients:
    def test_margin_satisfied_gives_zero_gradients(self):
        from pacrr.neural import hinge_gradients

        d_pos, d_neg = hinge_gradients(1.6, 0.1)
        assert d_pos == d_neg == 0.0

    def test_gradients_deterministic(self):
        rng = np.random.default_rng(5)
        config = tiny_config(mode="kwindow")
        params = init_params(config)
        distilled = random_distilled(config, rng)
        idf = rng.uniform(0.1, 3.0, 3)
        _, cache = score(params, config, distilled, idf)
        g1 = score_gradients(params, config, cache, 1.0)
        g2 = score_gradients(params, config, cache, 1.0)
        for name in g1:
            assert g1[name].tobytes() == g2[name].tobytes()

    def test_single_term_query_matches_finite_differences(self):
        config = PacrrConfig(l_q=1, l_d=6, l_g=2, n_f=2, n_s=2, mode="firstk", seed=0)
        result = check_pipeline_gradients(config, seed=3)
        assert result.max_rel_error < 1e-4
        assert result.checked > 0

    def test_full_pipeline_both_modes(self):
        for mode in ("firstk", "kwindow"):
            result = check_pipeline_gradients(tiny_config(mode=mode), seed=0)
            assert result.max_rel_error < 1e-4, mode

    @pytest.mark.parametrize("mode", ["firstk", "kwindow"])
    def test_pipeline_gradients_through_the_zero_tail_cut(self, mode):
        # A 4-token document at l_d = 24: every conv stops n_s columns into
        # the zero tail, so its output is narrower than the full width.
        config = tiny_config(mode=mode, l_d=24)
        rng = np.random.default_rng(6)
        params = init_params(config)
        for group in params:
            group.value = rng.uniform(-0.5, 0.5, group.value.shape)
        distilled = random_distilled(config, rng, doc_len=4)
        idf = rng.uniform(0.5, 3.0, distilled.query_len)
        _, cache = score(params, config, distilled, idf)
        for n, conv in cache.conv_caches.items():
            stride = n if mode == "kwindow" else 1
            assert conv.out.shape[2] < -(-config.l_d // stride), n
        result = check_pipeline(params, config, distilled, idf)
        assert result.checked > 0
        assert result.max_rel_error < 1e-4


class TestRealRowsOnly:
    @staticmethod
    def assert_matches_all_rows_reference(config, distilled, dtype, rng):
        # Nonzero biases make the padding rows' conv outputs nonzero too.
        params = init_params(config)
        for group in params:
            group.value = rng.uniform(-0.6, 0.6, group.value.shape).astype(dtype)
        idf = rng.uniform(0.1, 3.0, distilled.query_len)
        rel, cache = score(params, config, distilled, idf)
        grads = score_gradients(params, config, cache, 1.0)
        ref_rel, ref_grads = all_rows_score(params, config, distilled, idf)
        assert rel == ref_rel
        assert set(grads) == set(ref_grads)
        for name, grad in grads.items():
            assert name.startswith("rnn") or np.any(grad != 0.0), name
            np.testing.assert_allclose(grad, ref_grads[name], rtol=1e-12, atol=1e-15,
                                       err_msg=name)
        return cache

    @pytest.mark.parametrize("mode", ["firstk", "kwindow"])
    @pytest.mark.parametrize("query_len", [1, 4, 8])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_all_rows_reference(self, mode, query_len, dtype):
        config = PacrrConfig(l_q=8, l_d=30, l_g=3, n_f=5, n_s=2, mode=mode, seed=query_len)
        rng = np.random.default_rng(query_len)
        distilled = random_distilled(config, rng, query_len=query_len, doc_len=41)
        self.assert_matches_all_rows_reference(config, distilled, dtype, rng)

    @pytest.mark.parametrize("mode", ["firstk", "kwindow"])
    def test_paper_shape_with_ties(self, mode):
        config = PacrrConfig(l_q=16, l_d=768, l_g=3, n_f=32, n_s=2, mode=mode, seed=5)
        rng = np.random.default_rng(5)
        # A repeated block of values in {-1, 0, 1} with zeroed columns gives
        # equal conv outputs, so k-max and filter-max both meet ties.
        block = np.round(rng.uniform(-1, 1, (16, 60)))
        block[:, rng.random(60) < 0.5] = 0.0
        values = np.tile(block, 15)
        distilled = distill(values, mode, config.l_d, config.l_g)
        cache = self.assert_matches_all_rows_reference(config, distilled, np.float32, rng)
        xs = cache.rnn_cache.xs
        assert all(np.any(xs[:, j] == xs[:, j + 1]) for j in (0, 2, 4))


class TestPipelineInvariants:
    def test_firstk_ignores_tokens_beyond_l_d(self):
        rng = np.random.default_rng(6)
        config = tiny_config()
        params = init_params(config)
        emb = EmbeddingTable(dim=4, vectors={f"t{i}": rng.standard_normal(4)
                                             for i in range(40)})
        idf = IdfTable(doc_count=10, values={})
        query = Query("q", ("t1", "t2", "t3"))
        base_tokens = tuple(f"t{i}" for i in range(20))
        mutated = base_tokens[: config.l_d] + tuple(f"t{i}" for i in range(25, 33))
        scorer_a = Scorer(config, params, [query],
                          [TokenizedDocument("d", base_tokens)], emb, idf)
        scorer_b = Scorer(config, params, [query],
                          [TokenizedDocument("d", mutated)], emb, idf)
        assert (scorer_a.score_with_cache("q", "d")[0]
                == scorer_b.score_with_cache("q", "d")[0])

    def test_kwindow_block_swap_outside_selection(self):
        # l_g=2: swapping two unselected 2-term windows (whose columns are
        # also outside the n=1 selection) must not change the score
        config = PacrrConfig(l_q=2, l_d=4, l_g=2, n_f=3, n_s=2, mode="kwindow", seed=1)
        params = init_params(config)
        strong = np.array([[0.9, 0.85, 0.8, 0.75], [0.7, 0.95, 0.65, 0.9]])
        weak_a = np.array([[0.10, 0.11], [0.12, 0.13]])
        weak_b = np.array([[0.20, 0.21], [0.22, 0.23]])
        sim_1 = np.hstack([strong, weak_a, weak_b])
        sim_2 = np.hstack([strong, weak_b, weak_a])
        idf = np.array([1.0, 2.0])
        rels = []
        for sim in (sim_1, sim_2):
            distilled = distill(sim, "kwindow", config.l_d, config.l_g)
            rels.append(score(params, config, distilled, idf)[0])
        assert rels[0] == rels[1]


def write_checkpoint(path, config, tensors):
    """A PACRR1 file with a valid CRC holding the given (name bytes, array)
    tensors, laid out as `save_params` lays them out."""
    config_json = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    chunks = [b"PACRR1", struct.pack("<Q", len(config_json)), config_json,
              struct.pack("<Q", len(tensors))]
    for name, value in tensors:
        chunks += [struct.pack("<Q", len(name)), name, struct.pack("<Q", value.ndim),
                   struct.pack(f"<{value.ndim}Q", *value.shape),
                   struct.pack("<Q", value.size * 4)]
    chunks += [value.astype("<f4").tobytes() for _, value in tensors]
    body = b"".join(chunks)
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        config = tiny_config(mode="kwindow", seed=9)
        params = init_params(config)
        path = tmp_path / "model.pacrr"
        save_params(params, config, path)
        loaded, loaded_config = load_params(path)
        assert loaded_config == config
        for group in params:
            assert loaded[group.name].value.tobytes() == group.value.tobytes()
        # saving the loaded params reproduces the file byte for byte
        path2 = tmp_path / "model2.pacrr"
        save_params(loaded, loaded_config, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_failed_save_keeps_old_file_and_no_temp(self, tmp_path, monkeypatch):
        config = tiny_config()
        path = tmp_path / "model.pacrr"
        save_params(init_params(config), config, path)
        old = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("pacrr.corpus.os.replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_params(init_params(tiny_config(seed=7)), config, path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["model.pacrr"]

    def test_bad_magic(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "model.pacrr"
        save_params(init_params(config), config, path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_params(path)

    def test_corrupt_body_fails_crc(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "model.pacrr"
        save_params(init_params(config), config, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="CRC"):
            load_params(path)

    def test_written_layout_matches_save_params(self, tmp_path):
        config = tiny_config()
        params = init_params(config)
        save_params(params, config, tmp_path / "saved.pacrr")
        write_checkpoint(tmp_path / "written.pacrr", config,
                         [(g.name.encode(), g.value) for g in params])
        assert (tmp_path / "written.pacrr").read_bytes() == \
            (tmp_path / "saved.pacrr").read_bytes()

    @pytest.mark.parametrize("change", ["drop conv3_bias", "transpose rnn_w", "rename rnn_b",
                                        "non-UTF-8 name"])
    def test_tensors_must_match_the_config(self, tmp_path, change):
        config = tiny_config()
        tensors = {g.name.encode(): g.value for g in init_params(config)}
        if change == "drop conv3_bias":
            del tensors[b"conv3_bias"]
        elif change == "transpose rnn_w":
            tensors[b"rnn_w"] = tensors[b"rnn_w"].T
        elif change == "rename rnn_b":
            tensors[b"rnn_c"] = tensors.pop(b"rnn_b")
        else:
            tensors[b"\xff\xfe"] = tensors.pop(b"rnn_b")
        write_checkpoint(tmp_path / "m.pacrr", config, list(tensors.items()))
        with pytest.raises(CheckpointError, match="do not match"):
            load_params(tmp_path / "m.pacrr")

    def test_every_bit_flip_in_the_tensor_table_is_rejected(self, tmp_path):
        """The reader accepts only the tensor table the writer writes."""
        config = tiny_config()
        path = tmp_path / "m.pacrr"
        save_params(init_params(config), config, path)
        body = path.read_bytes()[:-4]
        table = 14 + int.from_bytes(body[6:14], "little")
        data_start = len(body) - 4 * sum(g.value.size for g in init_params(config))
        for pos in range(table, data_start):
            for bit in range(8):
                flipped = bytearray(body)
                flipped[pos] ^= 1 << bit
                path.write_bytes(flipped + struct.pack("<I", zlib.crc32(flipped)))
                with pytest.raises(CheckpointError):
                    load_params(path)

    def test_bytes_after_the_tensor_data_are_rejected(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "m.pacrr"
        save_params(init_params(config), config, path)
        body = path.read_bytes()[:-4] + bytes(4)
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointError, match="do not match"):
            load_params(path)

    @pytest.mark.parametrize("keys", [dict(n_f=2**40), dict(l_g=10**6, l_d=10**6)],
                             ids=["n_f", "l_g"])
    def test_header_asking_for_more_than_the_file_holds(self, tmp_path, keys):
        """Rejected before anything is allocated for it; run in a child
        process under a 1 GiB address-space limit, so that a reader which
        allocates what the header asks for fails here and stays bounded."""
        path = tmp_path / "m.pacrr"
        path.write_bytes(checkpoint_with_header(tiny_config(), **keys))
        proc = run_bounded("from pacrr.model import load_params\n"
                           "try:\n"
                           f"    load_params({str(path)!r})\n"
                           "except Exception as exc:\n"
                           "    print(type(exc).__name__, exc)\n", 1 << 30, 30)
        assert proc.stdout == f"CheckpointError {path}: tensors do not match its config's layout\n"

    def test_float_size_in_header_is_checkpoint_error(self, tmp_path):
        config = tiny_config()
        header = SimpleNamespace(to_dict=lambda: dict(config.to_dict(), l_d=12.0))
        write_checkpoint(tmp_path / "m.pacrr", header,
                         [(g.name.encode(), g.value) for g in init_params(config)])
        with pytest.raises(CheckpointError, match="l_d must be an integer, got 12.0"):
            load_params(tmp_path / "m.pacrr")

    @pytest.mark.parametrize("header, message", [
        (lambda config: dict(config.to_dict(), bogus=1), "bogus"),
        (lambda config: list(config.to_dict().values()), "bad config header"),
    ], ids=["unknown-key", "json-list"])
    def test_bad_header_shape_is_checkpoint_error(self, tmp_path, header, message):
        config = tiny_config()
        write_checkpoint(tmp_path / "m.pacrr", SimpleNamespace(to_dict=lambda: header(config)),
                         [(g.name.encode(), g.value) for g in init_params(config)])
        with pytest.raises(CheckpointError, match=message):
            load_params(tmp_path / "m.pacrr")

    def test_config_fields_survive(self, tmp_path):
        config = PacrrConfig(l_q=7, l_d=24, l_g=4, n_f=8, n_s=3, mode="kwindow",
                             learning_rate=0.25, seed=123)
        path = tmp_path / "model.pacrr"
        save_params(init_params(config), config, path)
        _, loaded = load_params(path)
        assert loaded.to_dict() == config.to_dict()


class TestScorer:
    def _fixtures(self, config, keep=frozenset()):
        rng = np.random.default_rng(10)
        emb = EmbeddingTable(dim=4, vectors={f"t{i}": rng.standard_normal(4)
                                             for i in range(10)})
        docs = [TokenizedDocument("d1", ("t1", "t2", "t3")),
                TokenizedDocument("d2", ("t4", "t5"))]
        queries = [Query("q1", ("t1", "t9"))]
        idf = IdfTable(doc_count=2, values={"t1": 0.5})
        return Scorer(config, init_params(config), queries, docs, emb, idf, keep)

    @pytest.mark.parametrize("mode", ["firstk", "kwindow"])
    def test_pairs_not_kept_are_distilled_each_time_and_held_nowhere(self, mode):
        config = tiny_config(mode=mode)
        pairs = {"q1": ["d1", "d2"]}
        kept = self._fixtures(config, keep={("q1", "d1"), ("q1", "d2")})
        want = kept.score_runs(pairs)
        scorer = self._fixtures(config)
        assert scorer.score_runs(pairs) == want == kept.score_runs(pairs)
        assert scorer._distilled == {}
        assert scorer.distilled("q1", "d1") is not scorer.distilled("q1", "d1")
        assert kept.distilled("q1", "d1") is kept.distilled("q1", "d1")

    def test_only_the_pairs_to_keep_are_held(self):
        scorer = self._fixtures(tiny_config(), keep={("q1", "d2"), ("q1", "d3")})
        scorer.score_runs({"q1": ["d1", "d2"]})
        assert list(scorer._distilled) == [("q1", "d2")]

    def test_missing_docs_reported(self):
        scorer = self._fixtures(tiny_config())
        scores, missing = scorer.score_docs("q1", ["d1", "nope", "d2"])
        assert set(scores) == {"d1", "d2"}
        assert missing == ["nope"]

    def test_score_runs_skips_unknown_queries_and_docs_in_one_warning(self, caplog):
        scorer = self._fixtures(tiny_config())
        with caplog.at_level("WARNING", logger="pacrr.model"):
            scores = scorer.score_runs({"q1": ["d1", "nope", "d2"], "q-unknown": ["d1"]})
        assert scores == {"q1": {"d1": scorer.score_with_cache("q1", "d1")[0],
                                 "d2": scorer.score_with_cache("q1", "d2")[0]}}
        [record] = caplog.records
        assert "1 query ids not in the query file" in record.getMessage()
        assert "1 documents not in the corpus" in record.getMessage()

    def test_score_runs_quiet_when_nothing_skipped(self, caplog):
        scorer = self._fixtures(tiny_config())
        with caplog.at_level("WARNING", logger="pacrr.model"):
            assert set(scorer.score_runs({"q1": ["d2"]})["q1"]) == {"d2"}
        assert not caplog.records

    @pytest.mark.parametrize("mode", ["firstk", "kwindow"])
    def test_scoring_takes_no_backward_only_route(self, mode, monkeypatch):
        # The winning filter at each k-max survivor is read only by the
        # backward pass, so scoring must not compute it.
        config = tiny_config(mode=mode)
        want = self._fixtures(config).score_runs({"q1": ["d1", "d2"]})

        def fail(*args):
            raise AssertionError("max_over_filters_backward called")

        monkeypatch.setattr("pacrr.neural.max_over_filters_backward", fail)
        scorer = self._fixtures(config)
        assert scorer.score_runs({"q1": ["d1", "d2"]}) == want
        assert scorer.score_docs("q1", ["d1", "d2"]) == (want["q1"], [])
        _, cache = scorer.score_with_cache("q1", "d1")
        with pytest.raises(AssertionError, match="max_over_filters_backward called"):
            score_gradients(scorer.params, config, cache, 1.0)

    @pytest.mark.parametrize("mode", ["firstk", "kwindow"])
    @pytest.mark.parametrize("l_g", [2, 3, 4])
    def test_every_pooling_and_conv_op_is_called_through_pacrr_neural(self, mode, l_g,
                                                                       monkeypatch):
        # Per-layer timing wraps these names, so a pair that bypassed one
        # would show that layer as costing nothing.
        calls = {}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        ops = ("conv2d", "max_over_filters", "kmax_per_row", "kmax_per_row_backward",
               "max_over_filters_backward", "conv2d_backward")
        for name in ops:
            monkeypatch.setattr(neural, name, counted(name, getattr(neural, name)))
        config = tiny_config(mode=mode, l_g=l_g)
        scorer = self._fixtures(config)
        for doc_id in ("d1", "d2"):
            calls.update(dict.fromkeys(ops, 0))
            _, cache = scorer.score_with_cache("q1", doc_id)
            assert calls == {"conv2d": l_g - 1, "max_over_filters": l_g - 1,
                             "kmax_per_row": l_g, "kmax_per_row_backward": 0,
                             "max_over_filters_backward": 0, "conv2d_backward": 0}
            calls.update(dict.fromkeys(ops, 0))
            score_gradients(scorer.params, config, cache, 1.0)
            assert calls == {"conv2d": 0, "max_over_filters": 0, "kmax_per_row": 0,
                             "kmax_per_row_backward": l_g - 1,
                             "max_over_filters_backward": l_g - 1,
                             "conv2d_backward": l_g - 1}

    def test_token_without_vector_matches_itself_across_pairs(self):
        config = tiny_config()
        emb = EmbeddingTable(dim=2, vectors={"a": np.array([1.0, 0.0])})
        docs = [TokenizedDocument("d1", ("oov", "a", "other")),
                TokenizedDocument("d2", ("a", "other", "oov"))]
        queries = [Query("q1", ("oov", "a")), Query("q2", ("a", "oov"))]
        idf = IdfTable(doc_count=2, values={})
        scorer = Scorer(config, init_params(config), queries, docs, emb, idf)
        expected = {("q1", "d1"): [[1, 0, 0], [0, 1, 0]],
                    ("q1", "d2"): [[0, 0, 1], [1, 0, 0]],
                    ("q2", "d1"): [[0, 1, 0], [1, 0, 0]],
                    ("q2", "d2"): [[1, 0, 0], [0, 0, 1]]}
        for (qid, did), sim in expected.items():
            got = scorer.distilled(qid, did).per_n[1][:, :3]
            np.testing.assert_array_equal(got, sim)

    def test_document_tokens_mapped_once_across_queries(self):
        config = tiny_config()
        emb = EmbeddingTable(dim=2, vectors={"a": np.array([1.0, 0.0])})
        doc = TokenizedDocument("d", ("a", "b", "c"))
        queries = [Query("q1", ("a",)), Query("q2", ("b", "a"))]
        scorer = Scorer(config, init_params(config), queries, [doc], emb,
                        IdfTable(doc_count=1, values={}))
        mapped = []
        token_ids = scorer.token_ids
        scorer.token_ids = lambda tokens: mapped.append(tuple(tokens)) or token_ids(tokens)
        scorer.score_with_cache("q1", "d")
        scorer.score_with_cache("q2", "d")
        assert mapped == [doc.tokens]

    def test_query_truncated_to_l_q(self):
        config = tiny_config()
        rng = np.random.default_rng(11)
        emb = EmbeddingTable(dim=4, vectors={})
        idf = IdfTable(doc_count=1, values={})
        long_query = Query("q", tuple(f"t{i}" for i in range(9)))
        scorer = Scorer(config, init_params(config), [long_query],
                        [TokenizedDocument("d", ("t0",))], emb, idf)
        assert len(scorer.queries["q"].tokens) == config.l_q
        assert np.isfinite(scorer.score_with_cache("q", "d")[0])

    def test_truncation_warned_once_with_ids(self, caplog):
        config = tiny_config()
        queries = [Query("long-a", tuple(f"t{i}" for i in range(9))),
                   Query("fits", ("t0", "t1")),
                   Query("long-b", tuple(f"t{i}" for i in range(5)))]
        with caplog.at_level("WARNING", logger="pacrr.model"):
            scorer = Scorer(config, init_params(config), queries, [],
                            EmbeddingTable(dim=4, vectors={}),
                            IdfTable(doc_count=1, values={}))
        [record] = caplog.records
        assert record.getMessage() == "truncated 2 queries to l_q=4 tokens: long-a long-b"
        assert [len(scorer.queries[q].tokens) for q in ("long-a", "fits", "long-b")] == [4, 2, 4]
