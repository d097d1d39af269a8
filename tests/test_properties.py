"""Properties: any bytes given to a loader either load or raise DataError
(CheckpointError is a DataError), never another exception; a saved
corpus or query file loads back equal, with one object per distinct
token; an embeddings file loads the table its text holds, whatever bytes
lie in its sidecar; k-max pooling equals its oracles on tie-heavy rows;
the pooling backward ops route each k-max survivor to the first maximal
filter, and pass its gradient only where the rectified filter max is
positive, as a loop reference does; scoring and its gradients equal,
byte for byte, a full-width reference with a rectifier per filter,
whatever the width of the zero tail; kwindow distillation equals its
argsort reference byte for byte; the recurrence's backward pass equals
its step-by-step reference byte for byte; pairwise label accuracy equals
its hand-listed reference exactly; triple sampling draws only pairable
positives, as the rejection sampler it replaced did whenever every
positive can be paired; and the training set reads no judgment of a
query outside the training ids."""

import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from helpers import (checkpoint_with_header, corpus_records, kmax_oracle,  # noqa: E402
                     kmax_reference, kwindow_reference, pair_accuracy_reference,
                     pooling_routes_reference, recurrent_backward_reference, reference_groups,
                     reference_sample_triple, score_reference)
from pacrr.corpus import (CANONICAL_GRADES, Corpus, JudgmentSet, Query,  # noqa: E402
                          load_corpus, load_embeddings, load_qrels, load_queries, load_run,
                          save_corpus, save_queries)
from pacrr.errors import DataError  # noqa: E402
from pacrr.evaluation import pair_accuracy  # noqa: E402
from pacrr.model import (PacrrConfig, init_params, load_params, save_params,  # noqa: E402
                         score, score_gradients)
from pacrr.neural import (kmax_per_row, kmax_per_row_backward, max_over_filters,  # noqa: E402
                          max_over_filters_backward, recurrent_backward, recurrent_sequence)
from pacrr.simmat import KWINDOW, MODES, distill  # noqa: E402
from pacrr.training import build_groups, sample_triple  # noqa: E402

LOADERS = [load_corpus, load_queries, load_qrels, load_run, load_embeddings, load_params]

# Line-shaped text over the characters the formats use, so that examples
# get past the first check of a loader as well as failing it.
TOKENS = st.sampled_from(['{"doc_id": "d1", "tokens": ["a", "b"]}',
                          '{"query_id": "q1", "tokens": ["a"]}', '{"tokens": 1}',
                          "q1", "Q0", "0", "d1", "1", "-2", "3.5", "nan", "inf", "1e999",
                          "a", "é", "[", "{", "}", '"', " ", "\t", "\n", "\r", "\x00"])
TEXT_LINES = st.lists(TOKENS, max_size=40).map(lambda parts: "".join(parts).encode("utf-8"))


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _checkpoint() -> bytes:
    config = PacrrConfig(l_q=2, l_d=3, n_f=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.pacrr"
        save_params(init_params(config), config, path)
        return path.read_bytes()


VALID_CHECKPOINT = _checkpoint()


@st.composite
def edited_checkpoints(draw):
    """A valid checkpoint with some bytes replaced and its CRC made valid
    again, so that the header parser sees the change."""
    body = bytearray(VALID_CHECKPOINT[:-4])
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(body) - 1))
        body[pos] = draw(st.integers(0, 255))
    return _with_crc(bytes(body[: draw(st.integers(0, len(body)))]))


INPUTS = st.one_of(st.binary(max_size=400), TEXT_LINES, edited_checkpoints(),
                   st.binary(max_size=200).map(lambda b: _with_crc(b"PACRR1" + b)))


@pytest.mark.parametrize("loader", LOADERS, ids=lambda f: f.__name__)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=INPUTS)
@example(data=b"\xff")
@example(data=b"[" * 100_000 + b"\n")
@example(data=b"a inf 3\n")
@example(data=VALID_CHECKPOINT)
@example(data=checkpoint_with_header(PacrrConfig(l_q=2, l_d=3, n_f=2), n_f=2**40))
@example(data=checkpoint_with_header(PacrrConfig(l_q=2, l_d=3, n_f=2), n_f=2**70))
@example(data=_with_crc(b"PACRR1" + struct.pack("<Q", 100_000) + b"[" * 100_000))
def test_any_bytes_load_or_raise_data_error(loader, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        try:
            loader(path)
        except DataError:
            pass


# Two letters make most tokens repeat.
ROUND_TRIP_TOKENS = st.lists(st.text(alphabet="aé", min_size=2, max_size=3), max_size=8)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(token_lists=st.lists(ROUND_TRIP_TOKENS, max_size=6))
def test_corpus_round_trip_gives_equal_tokens_one_id(token_lists):
    docs = [(f"r{i}", tuple(tokens)) for i, tokens in enumerate(token_lists)]
    with tempfile.TemporaryDirectory() as tmp:
        save_corpus(Corpus.build(docs), Path(tmp) / "records.jsonl")
        loaded = load_corpus(Path(tmp) / "records.jsonl")
    assert corpus_records(loaded) == docs
    first_seen = list(dict.fromkeys(t for tokens in token_lists for t in tokens))
    assert loaded.vocab == {t: i for i, t in enumerate(first_seen)}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(token_lists=st.lists(ROUND_TRIP_TOKENS.filter(bool), max_size=6))
def test_queries_round_trip(token_lists):
    queries = [Query(f"r{i}", tuple(tokens)) for i, tokens in enumerate(token_lists)]
    with tempfile.TemporaryDirectory() as tmp:
        save_queries(queries, Path(tmp) / "records.jsonl")
        assert load_queries(Path(tmp) / "records.jsonl") == queries


EMBEDDINGS_TEXT = b"2 2\nb 0.5 -1.25\na 3 4\n"
# The sidecar's magic and the key of EMBEDDINGS_TEXT: its length and CRC-32.
SIDECAR_KEYED = b"PACRRVEC1" + struct.pack("<QI", len(EMBEDDINGS_TEXT),
                                           zlib.crc32(EMBEDDINGS_TEXT))


def _sidecar(tokens, rows, count=None) -> bytes:
    """A CRC-valid sidecar keyed to EMBEDDINGS_TEXT that holds these tokens
    and rows, with `count` in its header (default: the number of tokens)."""
    rows = np.asarray(rows, dtype="<f8")
    return _with_crc(SIDECAR_KEYED + struct.pack("<QQ", len(tokens) if count is None
                                                 else count, rows.shape[1])
                     + "\n".join(tokens).encode("utf-8") + rows.tobytes())


def test_sidecar_helper_builds_what_load_embeddings_writes():
    # So each example below fails only the check it is named for.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "e.txt"
        path.write_bytes(EMBEDDINGS_TEXT)
        load_embeddings(path)
        written = (Path(tmp) / ".e.txt.pacrrvec").read_bytes()
    assert written == _sidecar(["b", "a"], [[0.5, -1.25], [3.0, 4.0]])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.one_of(st.binary(max_size=200),
                      st.binary(max_size=120).map(lambda b: _with_crc(SIDECAR_KEYED + b)),
                      st.binary(max_size=120).map(lambda b: SIDECAR_KEYED + b)))
@example(data=_sidecar(["b", "a"], [[0.5, -1.25], [3.0, 4.0]])[:-1])
@example(data=_sidecar(["b", "a"], [[0.5, -1.25], [np.nan, 4.0]]))
@example(data=_sidecar(["b", "b"], [[0.5, -1.25], [3.0, 4.0]]))
@example(data=_sidecar(["x", "b", "a"], [[0.5, -1.25], [3.0, 4.0]], count=2))
@example(data=_with_crc(SIDECAR_KEYED + struct.pack("<QQ", 2**63, 0) + b"b\na"))
def test_any_sidecar_bytes_give_the_parsed_table(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "e.txt"
        path.write_bytes(EMBEDDINGS_TEXT)
        (Path(tmp) / ".e.txt.pacrrvec").write_bytes(data)
        table = load_embeddings(path)
    assert table.dim == 2 and list(table.vectors) == ["b", "a"]
    np.testing.assert_array_equal(np.array(list(table.vectors.values())),
                                  [[0.5, -1.25], [3.0, 4.0]])


# Few distinct values, signed zeros among them, so that most rows hold ties.
KMAX_VALUES = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0])


@st.composite
def kmax_cases(draw):
    width = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(KMAX_VALUES, min_size=width, max_size=width),
                         min_size=1, max_size=4))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return np.array(rows, dtype=dtype), draw(st.integers(1, width + 2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=kmax_cases())
@example(case=(np.array([[-0.0], [0.5]]), 1))
@example(case=(np.array([[0.0], [-0.0]]), 3))
@example(case=(np.array([[-0.0, 0.0, -0.0]]), 2))
def test_kmax_per_row_equals_its_oracles(case):
    x, k = case
    out, src = kmax_per_row(x, k)
    ref_out, ref_src = kmax_reference(x, k)
    assert out.tobytes() == ref_out.tobytes()
    assert src.tobytes() == ref_src.tobytes()
    for row, values in zip(x.tolist(), out.tolist()):
        assert values == kmax_oracle(row, k)


@st.composite
def pooling_route_cases(draw):
    n_f, rows, width = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    x = draw(st.lists(KMAX_VALUES, min_size=n_f * rows * width, max_size=n_f * rows * width))
    k = draw(st.integers(1, width + 2))  # k > width keeps padding
    d_km = draw(st.lists(KMAX_VALUES, min_size=rows * k, max_size=rows * k))
    return np.array(x).reshape(n_f, rows, width), k, np.array(d_km).reshape(rows, k)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=pooling_route_cases())
@example(case=(np.array([[[0.5, -0.0]], [[0.5, 0.0]]]), 3, np.array([[1.0, -1.0, 0.5]])))
def test_pooling_backward_routes_equal_their_loop_reference(case):
    x, k, d_km = case
    _, src = kmax_per_row(max_over_filters(x), k)
    routes = max_over_filters_backward(kmax_per_row_backward(d_km, src), x)
    assert [part.tolist() for part in routes] == pooling_routes_reference(d_km, src, x)


@st.composite
def kwindow_cases(draw):
    """A similarity matrix, tie-heavy or not, with l_g <= l_d and a document
    length anywhere from empty to past 2 l_d, so that each n may keep every
    window or rank them."""
    l_g = draw(st.integers(1, 4))
    l_d = draw(st.integers(l_g, 20))
    cols = draw(st.integers(0, 2 * l_d + 3))
    values = st.one_of(KMAX_VALUES, st.floats(-1.0, 1.0, width=32))
    rows = draw(st.lists(st.lists(values, min_size=cols, max_size=cols),
                         min_size=1, max_size=4))
    return np.array(rows, dtype=np.float64).reshape(len(rows), cols), l_d, l_g


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=kwindow_cases())
@example(case=(np.array([[0.5, -0.0, 0.0, 0.5, 1.0, 0.0, 0.0]]), 6, 3))
def test_kwindow_distill_equals_its_reference(case):
    sim, l_d, l_g = case
    distilled = distill(sim, KWINDOW, l_d, l_g)
    for n in range(1, l_g + 1):
        got, want = distilled.per_n[n], kwindow_reference(sim, n, l_d)
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()


@st.composite
def score_cases(draw):
    """A small model in either mode with float32 weights: as initialised
    (zero conv biases), random, or with conv biases so negative that every
    conv output is <= 0; a similarity matrix of a document from empty to
    past 2 l_d long, so that the zero tail takes every width, l_d - n_s
    and more included, tie-heavy or not; and IDF weights."""
    mode = draw(st.sampled_from(MODES))
    l_g = draw(st.integers(2, 4))
    config = PacrrConfig(l_q=4, l_d=draw(st.integers(l_g, 16)), l_g=l_g,
                         n_f=draw(st.integers(1, 4)), n_s=draw(st.integers(1, 4)), mode=mode)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = init_params(config)
    weights = draw(st.sampled_from(["init", "random", "dead"]))
    if weights != "init":
        for group in params:
            group.value[...] = rng.uniform(-0.6, 0.6, group.value.shape)
    if weights == "dead":  # |kernels . x| <= 0.6 * 16 < 10
        for n in range(2, l_g + 1):
            params[f"conv{n}_bias"].value[...] = -10.0
    shape = (draw(st.integers(1, 4)), draw(st.integers(0, 2 * config.l_d + 3)))
    if draw(st.booleans()):
        sim = rng.choice([0.0, -0.0, 0.5, -0.5, 1.0, -1.0], shape)
    else:
        sim = rng.uniform(-1.0, 1.0, shape)
    distilled = distill(sim, mode, config.l_d, config.l_g)
    return params, config, distilled, rng.uniform(0.1, 3.0, shape[0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=score_cases())
def test_score_and_gradients_equal_the_full_width_reference(case):
    params, config, distilled, idf = case
    rel, cache = score(params, config, distilled, idf)
    grads = score_gradients(params, config, cache, 1.0)
    ref_rel, ref_grads = score_reference(params, config, distilled, idf)
    assert np.float64(rel).tobytes() == np.float64(ref_rel).tobytes()
    assert grads.keys() == ref_grads.keys()
    for name, grad in grads.items():
        assert grad.dtype == ref_grads[name].dtype and grad.shape == ref_grads[name].shape
        assert grad.tobytes() == ref_grads[name].tobytes(), name


@st.composite
def recurrence_cases(draw):
    """Inputs and weights of one dtype for T steps of D features, maybe with
    an all-zero input row, and an upstream gradient that may be a signed
    zero."""
    T = draw(st.integers(1, 16))
    D = draw(st.integers(1, 9))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs, w, u, b = (rng.uniform(-1.0, 1.0, shape).astype(dtype)
                   for shape in ((T, D), (4, D), (4,), (4,)))
    zero_row = draw(st.none() | st.integers(0, T - 1))
    if zero_row is not None:
        xs[zero_row] = 0.0
    d_h = draw(st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0))
    return xs, w, u, b, d_h


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=recurrence_cases())
def test_recurrent_backward_equals_its_reference(case):
    xs, w, u, b, d_h = case
    _, cache = recurrent_sequence(xs, w, u, b)
    got = recurrent_backward(d_h, cache, w, u)
    want = recurrent_backward_reference(d_h, cache, w, u)
    for g, r in zip(got, want):
        assert g.dtype == r.dtype and g.shape == r.shape
        assert g.tobytes() == r.tobytes()


@st.composite
def pair_accuracy_cases(draw):
    """Scores and judgments for a few queries: every canonical grade, Key
    and Junk included, scores from a small set so that ties are common,
    scored documents without a judgment and judged ones without a score."""
    grades = st.none() | st.sampled_from(sorted(CANONICAL_GRADES))
    values = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(-2.0, 2.0)
    by_query, scores = {}, {}
    for qi in range(draw(st.integers(0, 4))):
        qid = f"q{qi}"
        docs = [f"d{i}" for i in range(draw(st.integers(0, 12)))]
        for doc in docs:
            grade = draw(grades)
            if grade is not None:
                by_query.setdefault(qid, {})[doc] = grade
        if draw(st.booleans()):
            scored = draw(st.permutations(docs))[: draw(st.integers(0, len(docs)))]
            scores[qid] = {doc: draw(values) for doc in scored}
    return scores, JudgmentSet(by_query)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=pair_accuracy_cases())
def test_pair_accuracy_equals_its_reference(case):
    scores, qrels = case
    assert pair_accuracy(scores, qrels).to_dict() == pair_accuracy_reference(scores, qrels)


@st.composite
def sampler_cases(draw):
    """Judgments on the canonical grades for a few queries, some holding a
    grade 1 and a grade 0 document so that each of their positives can be
    paired; training ids drawn from those queries and one unjudged id; and
    a seed."""
    grades = st.sampled_from(sorted(CANONICAL_GRADES))
    qids = [f"q{qi}" for qi in range(draw(st.integers(1, 4)))]
    by_query = {}
    for qid in qids:
        by_query[qid] = {f"d{i}": draw(grades) for i in range(draw(st.integers(0, 6)))}
        if draw(st.booleans()):
            by_query[qid].update(rel=1, nrel=0)
    train_ids = draw(st.lists(st.sampled_from([*qids, "unjudged"]), min_size=1, unique=True))
    return JudgmentSet(by_query), train_ids, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=sampler_cases())
def test_sample_triple_draws_pairable_positives_as_its_reference(case):
    qrels, train_ids, seed = case
    reference = reference_groups(qrels, train_ids)
    _, relevant, non_relevant, highly_pairs, relevant_pairs = reference
    pairable = ([q for q, _ in highly_pairs if q in relevant]
                + [q for q, _ in relevant_pairs if q in non_relevant])
    if not pairable:
        with pytest.raises(DataError, match="no positive documents available"):
            build_groups(qrels, train_ids)
        return
    rng = np.random.default_rng(seed)
    groups = build_groups(qrels, train_ids)
    assert groups.unpaired == len(highly_pairs) + len(relevant_pairs) - len(pairable)
    draws = [sample_triple(rng, groups) for _ in range(40)]
    for t in draws:
        assert t.query_id in train_ids
        judged = qrels.for_query(t.query_id)
        pos, neg = judged[t.pos_doc_id], judged[t.neg_doc_id]
        assert (pos > 1 and neg == 1) or (pos == 1 and neg <= 0), (t, pos, neg)
    if len(pairable) == len(highly_pairs) + len(relevant_pairs):
        ref_rng = np.random.default_rng(seed)
        assert draws == [reference_sample_triple(ref_rng, reference) for _ in range(40)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=sampler_cases(), others=st.dictionaries(
    st.tuples(st.sampled_from(["q0", "q1", "q2", "q3", "other"]),
              st.sampled_from(["d0", "d1", "rel", "nrel", "x"])),
    st.sampled_from(sorted(CANONICAL_GRADES)), max_size=12))
def test_build_groups_ignores_judgments_of_other_queries(case, others):
    # Drop every judgment of a non-training query, then add others.
    qrels, train_ids, _ = case
    by_query = {qid: dict(qrels.for_query(qid)) for qid in train_ids}
    for (qid, did), grade in others.items():
        if qid not in train_ids:
            by_query.setdefault(qid, {})[did] = grade
    results = []
    for judgments in (qrels, JudgmentSet(by_query)):
        try:
            results.append(build_groups(judgments, train_ids))
        except DataError as exc:
            results.append(str(exc))
    assert results[0] == results[1]
