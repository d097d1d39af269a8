"""Ingestion of corpora, queries, judgments, run files, and word embeddings.

Each loader returns what its input file holds, and the returned structures
are treated as immutable once built. Of the loaders, only `load_embeddings`
writes: it keeps a binary sidecar of the table it parsed beside the text,
so a later load of the unchanged text reads that in place of parsing it.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import stat
import struct
import zlib
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataError

# Canonical graded-judgment scale (TREC Web Track naming).
CANONICAL_GRADES = {-2: "Junk", 0: "NRel", 1: "Rel", 2: "HRel", 3: "Key", 4: "Nav"}


@dataclass(frozen=True, eq=False)
class Corpus:
    """Documents as token ids over one vocabulary, made by `build` alone:
    `vocab` gives each token its id in first-seen order, `doc_ids` each
    document its position in file order, and document i's int32 ids are
    `ids[offsets[i]:offsets[i + 1]]`."""

    doc_ids: dict[str, int]
    vocab: dict[str, int]
    ids: np.ndarray
    offsets: np.ndarray

    @classmethod
    def build(cls, docs) -> Corpus:
        """The corpus of (doc id, tokens) pairs, taken in order."""
        vocab = defaultdict(itertools.count().__next__)
        doc_ids, parts = {}, [np.zeros(0, np.int32)]  # the empty part gives offset 0
        for doc_id, tokens in docs:
            if doc_ids.setdefault(doc_id, len(parts) - 1) != len(parts) - 1:
                raise ValueError(f"doc id {doc_id!r} is listed twice")
            parts.append(np.fromiter(map(vocab.__getitem__, tokens), np.int32, len(tokens)))
        return cls(doc_ids, dict(vocab), np.concatenate(parts),
                   np.cumsum([len(p) for p in parts], dtype=np.int64))

    def doc(self, doc_id: str) -> np.ndarray:
        i = self.doc_ids[doc_id]
        return self.ids[self.offsets[i] : self.offsets[i + 1]]


@dataclass(frozen=True)
class Query:
    query_id: str
    tokens: tuple[str, ...]


@dataclass
class JudgmentSet:
    """Graded judgments: per query, its judged doc ids in the order they
    were read, each with its canonical grade. Every grade is checked here."""

    by_query: dict[str, dict[str, int]]

    def __post_init__(self):
        grades = set().union(*map(dict.values, self.by_query.values()))
        if grades.issubset(CANONICAL_GRADES):
            return
        qid, did, grade = next((qid, did, grade) for qid, judged in self.by_query.items()
                               for did, grade in judged.items()
                               if grade not in CANONICAL_GRADES)
        raise DataError(f"grade {grade} for ({qid}, {did}) is not on the canonical scale")

    def for_query(self, query_id: str) -> dict[str, int]:
        return self.by_query.get(query_id, {})

    def query_ids(self) -> list[str]:
        return sorted(self.by_query)


@dataclass
class RunRanking:
    """One query's ranked result list: (doc_id, original_rank, original_score)."""

    query_id: str
    entries: list[tuple[str, int, float]]

    def __post_init__(self):
        seen = set()
        prev_rank = 0
        for doc_id, rank, _ in self.entries:
            if rank <= prev_rank:
                raise DataError(
                    f"run for query {self.query_id}: rank {rank} not strictly increasing"
                )
            if doc_id in seen:
                raise DataError(f"run for query {self.query_id}: duplicate doc_id {doc_id}")
            seen.add(doc_id)
            prev_rank = rank

    def doc_ids(self) -> list[str]:
        return [doc_id for doc_id, _, _ in self.entries]


@dataclass(eq=False)
class EmbeddingTable:
    """Token -> dense vector lookup; all vectors share one dimensionality."""

    dim: int
    vectors: dict[str, np.ndarray]

    @cached_property
    def units(self) -> np.ndarray:
        """(len(vectors) + 1, dim) float64: row i is the i-th vector scaled
        to unit length (zeros for a zero vector), and the last row is zero
        for every token without a vector. A norm is sqrt(v @ v), as
        `np.linalg.norm` takes it."""
        vectors = np.array(list(self.vectors.values()), dtype=np.float64)
        vectors = vectors.reshape(len(self.vectors), self.dim)
        norms = np.sqrt([v @ v for v in vectors])[:, None]
        units = np.zeros((len(self.vectors) + 1, self.dim), dtype=np.float64)
        np.divide(vectors, norms, out=units[:-1], where=norms > 0.0)
        return units

    def __len__(self):
        return len(self.vectors)


def read_lines(path):
    """(line number, line) over a UTF-8 text file; bytes that are not UTF-8
    raise DataError naming the file."""
    with Path(path).open("r", encoding="utf-8") as f:
        try:
            yield from enumerate(f, 1)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not valid UTF-8 ({exc.reason})") from None


def _read_jsonl(path, id_field):
    """(line number, id, tokens) per record; the first bad or repeated one
    raises DataError."""
    seen = set()
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
        except RecursionError:
            raise DataError(f"{path}:{lineno}: invalid JSON (nested too deeply)") from None
        if not isinstance(rec, dict) or id_field not in rec or "tokens" not in rec:
            raise DataError(f"{path}:{lineno}: record must have '{id_field}' and 'tokens'")
        rid = rec[id_field]
        tokens = rec["tokens"]
        if not isinstance(rid, str) or not rid:
            raise DataError(f"{path}:{lineno}: '{id_field}' must be a non-empty string")
        if not isinstance(tokens, list) or not all(map(str.__instancecheck__, tokens)):
            raise DataError(f"{path}:{lineno}: 'tokens' must be a list of strings")
        if rid in seen:
            raise DataError(f"{path}:{lineno}: duplicate {id_field} {rid!r}")
        seen.add(rid)
        yield lineno, rid, tokens


def load_corpus(path) -> Corpus:
    """Load line-delimited JSON documents ({"doc_id": ..., "tokens": [...]})."""
    return Corpus.build((doc_id, tokens) for _, doc_id, tokens in _read_jsonl(path, "doc_id"))


def load_queries(path) -> list[Query]:
    """Load queries whole; `Scorer` truncates them to the model's l_q."""
    queries = []
    for lineno, query_id, tokens in _read_jsonl(path, "query_id"):
        if not tokens:
            raise DataError(f"{path}:{lineno}: query {query_id!r} has no tokens")
        queries.append(Query(query_id, tuple(tokens)))
    return queries


def _rows(path, n_fields):
    """(line number, fields) per non-blank line of exactly `n_fields` fields."""
    for lineno, line in read_lines(path):
        parts = line.split()
        if len(parts) == n_fields:
            yield lineno, parts
        elif parts:
            raise DataError(f"{path}:{lineno}: expected {n_fields} fields, got {len(parts)}")


def load_qrels(path, grade_map: dict[int, int] | None = None) -> JudgmentSet:
    """Load TREC qrels (`query_id 0 doc_id grade`), mapping raw grades to the
    canonical scale. The default map is the identity on canonical grades.
    Equal ids of the file share one `str`."""
    mapping = {g: g for g in CANONICAL_GRADES}
    if grade_map:
        mapping.update(grade_map)
    shared: dict[str, str] = {}
    by_query: dict[str, dict[str, int]] = {}
    for lineno, (qid, _, did, raw) in _rows(path, 4):
        try:
            raw_grade = int(raw)
        except ValueError:
            raise DataError(f"{path}:{lineno}: grade {raw!r} is not an integer") from None
        if raw_grade not in mapping:
            raise DataError(f"{path}:{lineno}: raw grade {raw_grade} has no mapping")
        judged = by_query.setdefault(qid, {})
        did = shared.setdefault(did, did)
        if did in judged:
            raise DataError(f"{path}:{lineno}: duplicate judgment for ({qid}, {did})")
        judged[did] = mapping[raw_grade]
    return JudgmentSet(by_query)


def load_run(path) -> dict[str, RunRanking]:
    """Load a TREC run file (`query_id Q0 doc_id rank score tag`), grouped by
    query. Equal doc ids of the file share one `str`."""
    shared: dict[str, str] = {}
    grouped: dict[str, list[tuple[str, int, float]]] = {}
    for lineno, (qid, _, did, rank, score, _) in _rows(path, 6):
        try:
            grouped.setdefault(qid, []).append(
                (shared.setdefault(did, did), int(rank), float(score)))
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad rank/score field") from None
    return {qid: RunRanking(qid, entries) for qid, entries in grouped.items()}


# Embeddings sidecar `.<name>.pacrrvec` (all integers little-endian):
#   magic "PACRRVEC1"
#   u64 text length | u32 text CRC-32   (the key of the text it was parsed from)
#   u64 count | u64 dim
#   the count tokens in file order, UTF-8, joined by "\n"
#   count x dim float64 little-endian values, one row per token
#   u32 CRC-32 of everything above
SIDECAR_MAGIC = b"PACRRVEC1"
_SIDECAR_HEAD = struct.Struct("<9sQIQQ")
_KEY_CHUNK = 1 << 20


def load_embeddings(path) -> EmbeddingTable:
    """Load whitespace-delimited word vectors; an optional first line may hold
    the `count dim` header, which must then agree with the vectors read. A
    first line of exactly two integers is always that header, so a 1-dim
    file whose first token is an integer needs one. A token listed twice is
    a DataError.

    A regular file is keyed by its byte length and CRC-32. The table comes
    from the sidecar `.<name>.pacrrvec` beside it when that holds the same
    key and checks out whole; otherwise the text is parsed and the sidecar
    written, unless the directory refuses it. Both give the same table."""
    key = _text_key(path)
    if key is None:
        return _parse_embeddings(path)
    sidecar = Path(path).with_name(f".{Path(path).name}.pacrrvec")
    table = _read_sidecar(sidecar, key)
    if table is None:
        table = _parse_embeddings(path)
        try:
            _write_sidecar(sidecar, key, table)
        except OSError:
            pass  # the next load parses again
    return table


def _text_key(path) -> tuple[int, int] | None:
    """(byte length, CRC-32) of a regular file, read in 1 MiB chunks; None
    for any other path, or one that cannot be read."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        length = crc = 0
        chunk = bytearray(_KEY_CHUNK)
        view = memoryview(chunk)
        with open(path, "rb") as f:
            while n := f.readinto(chunk):
                length += n
                crc = zlib.crc32(view[:n], crc)
    except OSError:
        return None
    return length, crc


def _read_sidecar(path, key) -> EmbeddingTable | None:
    """The table a sidecar holds for text of this key; None unless its magic,
    key, size and CRC match, its tokens are `count` distinct ones and every
    value is finite. The rows are views of one (count, dim) matrix."""
    try:
        with open(path, "rb") as f:
            head = f.read(_SIDECAR_HEAD.size)
            magic, length, text_crc, count, dim = _SIDECAR_HEAD.unpack(head)
            n_token_bytes = os.fstat(f.fileno()).st_size - len(head) - 8 * count * dim - 4
            if (magic != SIDECAR_MAGIC or (length, text_crc) != key or n_token_bytes < 0
                    or not count * dim):
                return None
            token_bytes = f.read(n_token_bytes)
            matrix = np.empty((count, dim), dtype="<f8")
            f.readinto(matrix)
            crc = zlib.crc32(matrix, zlib.crc32(token_bytes, zlib.crc32(head)))
            if f.read() != struct.pack("<I", crc):
                return None
        tokens = token_bytes.decode("utf-8").split("\n")
    except (OSError, struct.error, UnicodeDecodeError):
        return None
    vectors = dict(zip(tokens, matrix))
    if len(tokens) != count or len(vectors) != count or not np.isfinite(matrix).all():
        return None
    return EmbeddingTable(dim=dim, vectors=vectors)


def _write_sidecar(path, key, table: EmbeddingTable) -> None:
    parts = [_SIDECAR_HEAD.pack(SIDECAR_MAGIC, *key, len(table), table.dim),
             "\n".join(table.vectors).encode("utf-8"),
             *(np.asarray(v, dtype="<f8") for v in table.vectors.values())]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    write_atomic(path, *parts, struct.pack("<I", crc))


def _parse_embeddings(path) -> EmbeddingTable:
    """The text parse of `load_embeddings`, with every check."""
    vectors: dict[str, np.ndarray] = {}
    first_line: dict[str, int] = {}
    dim = header = None
    for lineno, line in read_lines(path):
        parts = line.split()
        if not parts:
            continue
        if lineno == 1 and len(parts) == 2:
            try:
                header = int(parts[0]), int(parts[1])
                continue
            except ValueError:
                pass
        token, values = parts[0], parts[1:]
        if token in first_line:
            raise DataError(f"{path}:{lineno}: token {token!r} is listed again "
                            f"(first on line {first_line[token]})")
        first_line[token] = lineno
        if not values:
            raise DataError(f"{path}:{lineno}: no vector components for {token!r}")
        try:
            vec = np.array(values, dtype=np.float64)
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric vector component") from None
        if not np.isfinite(vec).all():
            raise DataError(f"{path}:{lineno}: non-finite vector component for {token!r}")
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise DataError(
                f"{path}:{lineno}: vector length {len(vec)} != expected dim {dim}"
            )
        vectors[token] = vec
    if dim is None:
        raise DataError(f"{path}: no vectors found")
    if header is not None and header != (len(vectors), dim):
        raise DataError(f"{path}:1: header says {header[0]} vectors of dim {header[1]}, "
                        f"read {len(vectors)} of dim {dim}")
    return EmbeddingTable(dim=dim, vectors=vectors)


def compute_idf(corpus: Corpus) -> np.ndarray:
    """Smoothed IDF per vocabulary id, ln((N+1)/(df+1)) over N documents; df
    counts the first of each run of (document, id) keys, sorted in place. The
    logs are `math.log`'s, whose last bit `np.log` does not always match."""
    n, size = len(corpus.doc_ids), len(corpus.vocab)
    if not n:
        raise DataError("cannot compute IDF over an empty corpus")
    keys = np.repeat(np.arange(n, dtype=np.int64) * size, np.diff(corpus.offsets))
    keys += corpus.ids
    keys.sort()
    first = keys != np.r_[-1, keys[:-1]]
    keys %= size
    df = np.bincount(keys[first], minlength=size)
    return np.array([math.log((n + 1) / (c + 1)) for c in df.tolist()], dtype=np.float64)


# ---------------------------------------------------------------------------
# Writers (round-trip counterparts of the loaders; also used by `synth`).

def write_atomic(path, *chunks) -> None:
    """Write the bytes-like chunks, in order, through a temp file in the same
    directory and `os.replace`, so the path holds either its old bytes or
    all of the new ones. A failure raises an OSError that names the path."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as f:
            f.writelines(chunks)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def save_corpus(corpus: Corpus, path) -> None:
    words = np.array(list(corpus.vocab), dtype=object)
    write_atomic(path, "".join(
        json.dumps({"doc_id": doc_id, "tokens": words[corpus.doc(doc_id)].tolist()}) + "\n"
        for doc_id in corpus.doc_ids).encode("utf-8"))


def save_queries(queries: list[Query], path) -> None:
    write_atomic(path, "".join(
        json.dumps({"query_id": q.query_id, "tokens": list(q.tokens)}) + "\n"
        for q in queries).encode("utf-8"))


def save_qrels(qrels: JudgmentSet, path) -> None:
    write_atomic(path, "".join(f"{qid} 0 {did} {grade}\n" for qid in qrels.query_ids()
                               for did, grade in sorted(qrels.for_query(qid).items())
                               ).encode("utf-8"))


def save_run(runs: dict[str, RunRanking], path, tag: str = "pacrr") -> None:
    write_atomic(path, "".join(f"{qid} Q0 {did} {rank} {score!r} {tag}\n"
                               for qid in sorted(runs)
                               for did, rank, score in runs[qid].entries).encode("utf-8"))


def save_embeddings(table: EmbeddingTable, path) -> None:
    lines = [f"{len(table.vectors)} {table.dim}\n"]
    for token in sorted(table.vectors):
        comps = " ".join(repr(float(v)) for v in table.vectors[token])
        lines.append(f"{token} {comps}\n")
    write_atomic(path, "".join(lines).encode("utf-8"))
