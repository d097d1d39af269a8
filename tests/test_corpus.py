import logging
import math
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from helpers import corpus_records
from pacrr import synth
from pacrr.config import RunConfig, write_run_config
from pacrr.corpus import (compute_idf, load_corpus, load_embeddings,
                          load_qrels, load_queries, load_run, save_corpus,
                          save_embeddings, save_qrels, save_queries, save_run,
                          Corpus, EmbeddingTable, JudgmentSet, Query, RunRanking)
from pacrr.errors import DataError
from pacrr.model import PacrrConfig, Scorer, init_params


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCorpus:
    def test_parses_records(self, tmp_path):
        path = write(tmp_path, "c.jsonl", '{"doc_id":"d1","tokens":["dog","adoption"]}\n')
        docs = load_corpus(path)
        assert corpus_records(docs) == [("d1", ("dog", "adoption"))]
        assert docs.vocab == {"dog": 0, "adoption": 1}
        assert docs.ids.dtype == np.int32

    def test_empty_file(self, tmp_path):
        assert corpus_records(load_corpus(write(tmp_path, "c.jsonl", ""))) == []

    def test_duplicate_doc_id(self, tmp_path):
        path = write(tmp_path, "c.jsonl",
                     '{"doc_id":"d1","tokens":["a"]}\n{"doc_id":"d1","tokens":["b"]}\n')
        with pytest.raises(DataError, match="2.*duplicate|duplicate"):
            load_corpus(path)

    def test_corpus_built_with_a_repeated_doc_id_is_refused(self):
        with pytest.raises(ValueError, match="doc id 'd1' is listed twice"):
            Corpus.build([("d1", ["a"]), ("d2", []), ("d1", ["b"])])

    def test_malformed_line_names_line_number(self, tmp_path):
        path = write(tmp_path, "c.jsonl", '{"doc_id":"d1","tokens":["a"]}\nnot json\n')
        with pytest.raises(DataError, match=":2:"):
            load_corpus(path)

    def test_empty_tokens_tolerated(self, tmp_path):
        docs = load_corpus(write(tmp_path, "c.jsonl", '{"doc_id":"d1","tokens":[]}\n'))
        assert corpus_records(docs) == [("d1", ())]


class TestLoadQueries:
    def test_empty_query_rejected(self, tmp_path):
        path = write(tmp_path, "q.jsonl", '{"query_id":"q1","tokens":[]}\n')
        with pytest.raises(DataError, match="no tokens"):
            load_queries(path)


@pytest.mark.parametrize("loader, id_field", [(load_corpus, "doc_id"),
                                               (load_queries, "query_id")])
def test_first_fault_in_the_file_is_reported(tmp_path, loader, id_field):
    # Line 2 repeats line 1's id and line 5 is not JSON: line 2 is named.
    record = '{"%s":"%s","tokens":["a"]}\n'
    text = (record % (id_field, "x") * 2 + record % (id_field, "y")
            + record % (id_field, "z") + "not json\n")
    with pytest.raises(DataError, match=f":2: duplicate {id_field} 'x'"):
        loader(write(tmp_path, "f.jsonl", text))


class TestLoadQrels:
    def test_identity_mapping(self, tmp_path):
        qrels = load_qrels(write(tmp_path, "qrels.txt", "101 0 d7 2\n"))
        assert qrels.for_query("101") == {"d7": 2}

    def test_junk_grade(self, tmp_path):
        qrels = load_qrels(write(tmp_path, "qrels.txt", "101 0 d8 -2\n"))
        assert qrels.for_query("101") == {"d8": -2}

    def test_unknown_grade_without_mapping(self, tmp_path):
        with pytest.raises(DataError, match="no mapping"):
            load_qrels(write(tmp_path, "qrels.txt", "101 0 d7 5\n"))

    def test_grade_map(self, tmp_path):
        qrels = load_qrels(write(tmp_path, "qrels.txt", "101 0 d7 5\n"), {5: 4})
        assert qrels.for_query("101") == {"d7": 4}

    def test_duplicate_entry(self, tmp_path):
        with pytest.raises(DataError, match="duplicate"):
            load_qrels(write(tmp_path, "qrels.txt", "1 0 d1 1\n1 0 d1 2\n"))

    def test_grade_mapped_off_the_scale_names_its_judgment(self, tmp_path):
        path = write(tmp_path, "qrels.txt", "101 0 d1 1\n101 0 d7 5\n102 0 d8 5\n")
        with pytest.raises(DataError, match=r"^grade 7 for \(101, d7\) is not on the canonical"):
            load_qrels(path, {5: 7})
        # A target off the scale that no line maps to is never read.
        assert load_qrels(path, {5: 4, 6: 7}).for_query("102") == {"d8": 4}
        # The first off the scale in index order: queries in the order first
        # read, each one's documents in file order; here not the first line.
        path = write(tmp_path, "qrels.txt", "q2 0 a 1\nq1 0 b 5\nq2 0 c 5\n")
        with pytest.raises(DataError, match=r"^grade 7 for \(q2, c\) is not on the canonical"):
            load_qrels(path, {5: 7})

    def test_directly_built_judgments_are_checked(self):
        with pytest.raises(DataError, match=r"^grade 5 for \(q, d\) is not on the canonical"):
            JudgmentSet({"q": {"a": 1, "d": 5}})

    def test_index_built_while_reading_equals_the_checked_one(self, tmp_path):
        # The one index: each query's documents in file order, queries sorted.
        path = write(tmp_path, "qrels.txt",
                     "q2 0 b 1\nq1 0 c 0\nq2 0 a -2\nq1 0 a 4\nq3 0 b 2\n")
        loaded = load_qrels(path)
        assert loaded.query_ids() == ["q1", "q2", "q3"]
        assert list(loaded.for_query("q1").items()) == [("c", 0), ("a", 4)]
        assert list(loaded.for_query("q2").items()) == [("b", 1), ("a", -2)]
        assert list(loaded.for_query("q3").items()) == [("b", 2)]
        assert loaded.for_query("q4") == {}


class TestSharedStrings:
    """Each loader holds one `str` per distinct token or id of its file."""

    def test_equal_tokens_get_equal_ids(self, tmp_path):
        path = write(tmp_path, "c.jsonl", '{"doc_id":"d1","tokens":["dog","cat","dog"]}\n'
                                          '{"doc_id":"d2","tokens":["cat","dog"]}\n')
        docs = load_corpus(path)
        assert docs.vocab == {"dog": 0, "cat": 1}
        assert docs.doc("d1").tolist() == [0, 1, 0]
        assert docs.doc("d2").tolist() == [1, 0]

    def test_equal_ids_are_one_object(self, tmp_path):
        qrels = load_qrels(write(tmp_path, "qrels.txt", "q1 0 d1 1\nq1 0 d2 0\nq2 0 d1 2\n"))
        (d1, _), (d1_again,) = qrels.for_query("q1"), qrels.for_query("q2")
        assert d1 is d1_again
        runs = load_run(write(tmp_path, "run.txt",
                              "q1 Q0 d1 1 2.0 t\nq1 Q0 d2 2 1.0 t\nq2 Q0 d1 1 3.0 t\n"))
        assert runs["q1"].entries[0][0] is runs["q2"].entries[0][0]

    def test_a_loaded_token_costs_at_most_16_bytes(self, tmp_path):
        # 120 documents of 400 tokens over 50 distinct words: a `str` per
        # token would take over 50 bytes each, an int32 id takes 4, and a
        # bound of 6 leaves room for the vocabulary and the doc ids.
        rng = np.random.default_rng(0)
        vocab = [f"word{i}" for i in range(50)]
        docs = [(f"d{i}", tuple(vocab[j] for j in rng.integers(50, size=400)))
                for i in range(120)]
        save_corpus(Corpus.build(docs), tmp_path / "c.jsonl")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = load_corpus(tmp_path / "c.jsonl")
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert corpus_records(loaded) == docs
        assert held <= 6 * 120 * 400, held / (120 * 400)

    def test_a_loaded_judgment_costs_at_most_40_bytes(self, tmp_path):
        # 40 queries judging the same 300 documents: a judgment is a slot of
        # its query's dict, not a (query, doc) key of its own (about 128 bytes).
        path = write(tmp_path, "qrels.txt", "".join(
            f"q{q} 0 d{d} {d % 3}\n" for q in range(40) for d in range(300)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = load_qrels(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sum(len(loaded.for_query(qid)) for qid in loaded.query_ids()) == 40 * 300
        assert held <= 40 * 40 * 300, held / (40 * 300)


class TestLoadEmbeddings:
    def test_basic_vectors(self, tmp_path):
        table = load_embeddings(write(tmp_path, "e.txt", "cat 0.1 0.2 0.3\n"))
        assert table.dim == 3
        np.testing.assert_array_equal(table.vectors["cat"], [0.1, 0.2, 0.3])

    def test_inconsistent_dims(self, tmp_path):
        with pytest.raises(DataError, match="length"):
            load_embeddings(write(tmp_path, "e.txt", "a 1 2 3\nb 1 2 3 4\n"))

    def test_header_line(self, tmp_path):
        table = load_embeddings(write(tmp_path, "e.txt", "2 3\na 1 2 3\nb 4 5 6\n"))
        assert table.dim == 3
        assert len(table) == 2

    @pytest.mark.parametrize("count, dim", [(3, 32), (1, 16)])
    def test_header_must_agree_with_the_vectors(self, tmp_path, count, dim):
        vector = " ".join(["0.5"] * 32)
        path = write(tmp_path, "e.txt", f"{count} {dim}\na {vector}\n")
        with pytest.raises(DataError, match=rf"e\.txt:1: header says {count} vectors of "
                                            rf"dim {dim}, read 1 of dim 32"):
            load_embeddings(path)

    @pytest.mark.parametrize("text", ["5 1\n6 2\n", "2 1\n6 2\n"])
    def test_two_integer_first_line_is_always_the_header(self, tmp_path, text):
        # So a 1-dim file whose first token is an integer needs a header.
        with pytest.raises(DataError, match=r"e\.txt:1: header says"):
            load_embeddings(write(tmp_path, "e.txt", text))

    @pytest.mark.parametrize("text, tokens", [("1 1\n6 2\n", ["6"]),
                                              ("2 1\n2 1\n6 2\n", ["2", "6"])])
    def test_one_dim_integer_tokens_load_under_a_header(self, tmp_path, text, tokens):
        table = load_embeddings(write(tmp_path, "e.txt", text))
        assert table.dim == 1 and list(table.vectors) == tokens

    @pytest.mark.parametrize("component", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_component(self, tmp_path, component):
        path = write(tmp_path, "e.txt", f"a 1 2 3\nb {component} 3 4\n")
        with pytest.raises(DataError, match=r"e\.txt:2: non-finite vector component for 'b'"):
            load_embeddings(path)

    def test_token_listed_twice(self, tmp_path):
        path = write(tmp_path, "e.txt", "a 1 0\nb 0 1\n\na 0 1\n")
        with pytest.raises(DataError, match=r"e\.txt:4: token 'a' is listed again "
                                            r"\(first on line 1\)"):
            load_embeddings(path)

    def test_units_rows(self):
        table = EmbeddingTable(dim=2, vectors={"a": np.array([3.0, 4.0]),
                                               "zero": np.zeros(2),
                                               "b": np.array([0.0, -2.0])})
        np.testing.assert_array_equal(table.units,
                                      [[0.6, 0.8], [0.0, 0.0], [0.0, -1.0], [0.0, 0.0]])
        assert table.units is table.units


def sidecar_of(path):
    return path.with_name(f".{path.name}.pacrrvec")


def assert_same_table(a, b):
    assert a.dim == b.dim and list(a.vectors) == list(b.vectors)
    for token, vec in a.vectors.items():
        assert vec.dtype == b.vectors[token].dtype
        assert vec.tobytes() == b.vectors[token].tobytes()
    assert a.units.tobytes() == b.units.tobytes()


def refuse_to_parse(path):
    raise AssertionError(f"{path} was parsed")


class TestEmbeddingsSidecar:
    """`load_embeddings` keeps a `.<name>.pacrrvec` sidecar of the parsed
    table, keyed by the text's length and CRC-32, and reads it only when it
    checks out whole; every other case parses the text as before."""

    TEXT = "3 2\nb 0.5 -1.25\na 1e-3 2\nzero 0 0\n"

    def test_warm_load_equals_cold_load_and_does_not_parse(self, tmp_path, monkeypatch):
        path = write(tmp_path, "e.txt", self.TEXT)
        cold = load_embeddings(path)
        assert sidecar_of(path).is_file()
        monkeypatch.setattr("pacrr.corpus._parse_embeddings", refuse_to_parse)
        warm = load_embeddings(path)
        assert_same_table(warm, cold)
        assert list(warm.vectors) == ["b", "a", "zero"]

    def test_text_of_the_same_length_and_mtime_is_parsed_again(self, tmp_path, monkeypatch):
        path = write(tmp_path, "e.txt", self.TEXT)
        load_embeddings(path)
        before = os.stat(path)
        write(tmp_path, "e.txt", self.TEXT.replace("0.5", "0.7"))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert os.stat(path).st_size == before.st_size
        table = load_embeddings(path)
        np.testing.assert_array_equal(table.vectors["b"], [0.7, -1.25])
        monkeypatch.setattr("pacrr.corpus._parse_embeddings", refuse_to_parse)
        assert_same_table(load_embeddings(path), table)

    def test_every_bit_flip_and_truncation_of_the_sidecar_is_rewritten(self, tmp_path):
        path = write(tmp_path, "e.txt", self.TEXT)
        parsed = load_embeddings(path)
        good = sidecar_of(path).read_bytes()
        damaged = [good[:n] for n in range(len(good))]
        for pos in range(len(good)):
            for bit in range(8):
                flipped = bytearray(good)
                flipped[pos] ^= 1 << bit
                damaged.append(bytes(flipped))
        for data in damaged:
            sidecar_of(path).write_bytes(data)
            assert_same_table(load_embeddings(path), parsed)
            assert sidecar_of(path).read_bytes() == good

    def test_failed_sidecar_write_is_silent(self, tmp_path, monkeypatch, caplog, capsys):
        path = write(tmp_path, "e.txt", self.TEXT)
        parsed = load_embeddings(path)
        sidecar_of(path).unlink()

        def fail(src, dst):
            raise OSError("read-only file system")

        monkeypatch.setattr("pacrr.corpus.os.replace", fail)
        with caplog.at_level(logging.DEBUG):
            assert_same_table(load_embeddings(path), parsed)
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("text", ["3 2\nb 0.5 -1.25\na 1e-3\nzero 0 0\n",
                                      "3 2\nb 0.5 -1.25\na 1e-3 nan\nzero 0 0\n",
                                      "3 2\nb 0.5 -1.25\nb 1e-3 2\nzero 0 0\n",
                                      "4 2\nb 0.5 -1.25\na 1e-3 2\nzero 0 0\n",
                                      "3 2\nb 0.5 -1.25\na 1e-3 2\n\xe9 0 0\n"],
                             ids=["dim", "non-finite", "listed-again", "header", "utf-8"])
    def test_text_made_invalid_raises_what_it_raises_without_a_sidecar(self, tmp_path,
                                                                       text):
        path = write(tmp_path, "e.txt", self.TEXT)
        load_embeddings(path)
        if text.isascii():
            write(tmp_path, "e.txt", text)
        else:
            path.write_bytes(text.encode("latin-1"))
        with pytest.raises(DataError) as with_sidecar:
            load_embeddings(path)
        sidecar_of(path).unlink()
        with pytest.raises(DataError) as without:
            load_embeddings(path)
        assert str(with_sidecar.value) == str(without.value)
        assert not sidecar_of(path).exists()


@pytest.mark.parametrize("loader", [load_corpus, load_queries, load_qrels, load_run,
                                    load_embeddings])
def test_invalid_utf8_is_data_error(tmp_path, loader):
    path = tmp_path / "input.txt"
    path.write_bytes(b"q1 Q0 d\xff 1 2.0 t\n")
    with pytest.raises(DataError, match=r"input\.txt: not valid UTF-8"):
        loader(path)


def test_deeply_nested_json_is_data_error(tmp_path):
    path = write(tmp_path, "c.jsonl", "[" * 100_000 + "\n")
    with pytest.raises(DataError, match=r"c\.jsonl:1: invalid JSON"):
        load_corpus(path)


def query_idf(docs, tokens):
    """The IDF vector a `Scorer` over these (doc id, tokens) pairs gives a query."""
    corpus = Corpus.build(docs)
    config = PacrrConfig(l_q=len(tokens), l_d=3)
    scorer = Scorer(config, init_params(config), [Query("q", tuple(tokens))], corpus,
                    EmbeddingTable(dim=1, vectors={}), compute_idf(corpus))
    return scorer.queries["q"][1].tolist()


class TestComputeIdf:
    def test_token_in_single_doc(self):
        idf = compute_idf(Corpus.build([("d1", ("a",))]))
        assert idf.tolist() == [0.0]
        assert idf.dtype == np.float64

    def test_rare_token(self):
        docs = [(f"d{i}", ("common",)) for i in range(99)]
        docs.append(("d99", ("common", "rare")))
        assert query_idf(docs, ["rare"]) == pytest.approx([math.log(101 / 2)], abs=1e-12)

    def test_unseen_token(self):
        docs = [(f"d{i}", ("x",)) for i in range(9)]
        assert query_idf(docs, ["x", "never-seen"]) == [math.log(10 / 10), math.log(10)]

    def test_takes_the_bits_of_math_log(self):
        # n = 20, df = 19 is the first pair where np.log's last bit differs.
        docs = [(f"d{i}", ("w", "w") if i < 19 else ("v",)) for i in range(20)]
        idf = compute_idf(Corpus.build(docs))
        assert idf[0] == math.log(21 / 20)
        assert idf[1] == math.log(21 / 2)
        assert query_idf(docs, ["w", "unseen"]) == [math.log(21 / 20), math.log(21)]

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            compute_idf(Corpus.build([]))

    def test_monotone_in_df_and_nonnegative(self):
        # idf never increases as df grows, and stays >= 0
        docs = []
        for i in range(50):
            tokens = ["everywhere"] + [f"tok{j}" for j in range(i % 7)]
            docs.append((f"d{i}", tuple(tokens)))
        corpus = Corpus.build(docs)
        idf = compute_idf(corpus)
        df = Counter(t for _, tokens in docs for t in set(tokens))
        assert idf.tolist() == [math.log(51 / (df[t] + 1)) for t in corpus.vocab]
        by_df = sorted(df.items(), key=lambda kv: kv[1])
        values = [idf[corpus.vocab[t]] for t, _ in by_df]
        assert all(v >= 0.0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestRunRanking:
    def test_rank_must_increase(self):
        with pytest.raises(DataError, match="strictly increasing"):
            RunRanking("q", [("d1", 2, 1.0), ("d2", 1, 0.5)])

    def test_unique_docs(self):
        with pytest.raises(DataError, match="duplicate"):
            RunRanking("q", [("d1", 1, 1.0), ("d1", 2, 0.5)])


class TestRoundTrips:
    def test_corpus(self, tmp_path):
        docs = [("d1", ("a", "b")), ("d2", ())]
        save_corpus(Corpus.build(docs), tmp_path / "c.jsonl")
        assert corpus_records(load_corpus(tmp_path / "c.jsonl")) == docs

    def test_queries(self, tmp_path):
        queries = [Query("q1", ("x", "y"))]
        save_queries(queries, tmp_path / "q.jsonl")
        assert load_queries(tmp_path / "q.jsonl") == queries

    def test_qrels(self, tmp_path):
        qrels = JudgmentSet({"q1": {"d1": 2, "d2": -2}, "q2": {"d1": 0}})
        save_qrels(qrels, tmp_path / "qrels.txt")
        assert load_qrels(tmp_path / "qrels.txt") == qrels

    def test_run(self, tmp_path):
        runs = {"q1": RunRanking("q1", [("d1", 1, 3.5), ("d2", 2, 1.25)])}
        save_run(runs, tmp_path / "run.txt")
        assert load_run(tmp_path / "run.txt") == runs

    def test_embeddings(self, tmp_path):
        rng = np.random.default_rng(0)
        table = EmbeddingTable(dim=4, vectors={f"t{i}": rng.standard_normal(4)
                                               for i in range(5)})
        save_embeddings(table, tmp_path / "e.txt")
        loaded = load_embeddings(tmp_path / "e.txt")
        assert loaded.dim == table.dim
        assert set(loaded.vectors) == set(table.vectors)
        for token, vec in table.vectors.items():
            np.testing.assert_array_equal(loaded.vectors[token], vec)


def write_synth(out):
    synth.write(synth.generate(synth.SynthSpec(n_docs=4, n_train_queries=1,
                                               n_val_queries=1)), out)


WRITERS = {
    "corpus.jsonl": lambda out: save_corpus(Corpus.build([("d1", ("a",))]),
                                            out / "corpus.jsonl"),
    "queries.jsonl": lambda out: save_queries([Query("q1", ("a",))], out / "queries.jsonl"),
    "qrels.txt": lambda out: save_qrels(JudgmentSet({"q1": {"d1": 1}}), out / "qrels.txt"),
    "embeddings.txt": lambda out: save_embeddings(
        EmbeddingTable(dim=1, vectors={"a": np.ones(1)}), out / "embeddings.txt"),
    "train_qids.txt": write_synth,
    "val_qids.txt": write_synth,
    "config.txt": lambda out: write_run_config(RunConfig(), out / "config.txt"),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_keeps_old_file_and_no_temp(tmp_path, monkeypatch, name):
    target = tmp_path / name
    target.write_text("old\n")
    replace = os.replace

    def fail_on_target(src, dst):
        if dst == target:
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr("pacrr.corpus.os.replace", fail_on_target)
    with pytest.raises(OSError, match="disk full"):
        WRITERS[name](tmp_path)
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []
