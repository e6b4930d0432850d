"""Feature engineering: named, group-tagged sparse matrices.

Blocks are built per source (vendor one-hot, binary indicators, TF-IDF
text) and assembled by horizontal concatenation into one matrix whose
columns carry both a name and a group tag. All fitted models here are
frozen after fit; transforms are read-only and thread-safe.

Each block makes one pass over its rows and writes its CSR arrays
(``indptr``/``indices``/``data``) directly, in the manner of
scikit-learn's ``CountVectorizer``. A description is tokenized once, and
its tokens serve both the keyword flags and the TF-IDF n-grams. A
keyword is found by looking its token tuple up in the set of the
record's k-grams. Blocks are not validated; :func:`assemble` validates
the one matrix it returns. A caller that assembles the same blocks again
and again passes the :class:`Columns` it derived once (a fitted
``FeatureBuilder`` fixes them at fit and at load), so column names,
groups and their order are not rebuilt per call.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .corpus import DisclosureRecord, decode_utf8
from .errors import ConfigError, FitError, RowError, ShapeError

GROUPS = ("vendor", "indicator", "text", "reduced")
_GROUP_RANK = {g: i for i, g in enumerate(GROUPS)}

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_CVE_RE = re.compile(r"CVE-\d{4}-\d{4,}")

DEFAULT_KEYWORDS = (
    "buffer overflow",
    "remote code execution",
    "code execution",
    "remote code",
    "privilege escalation",
    "denial of service",
    "information disclosure",
    "info disclosure",
    "xss",
    "rce",
)


def tokenize(text: str) -> list[str]:
    """Lowercase tokens: maximal alphanumeric runs of length >= 2."""
    return [t for t in _TOKEN_RE.findall(text.lower()) if len(t) >= 2]


def _kgrams(tokens: Sequence[str], k: int):
    """The token k-tuples at every position, in order."""
    return zip(*(tokens[i:] for i in range(k)))


# ---------------------------------------------------------------------------
# FeatureMatrix


@dataclass(frozen=True)
class FeatureMatrix:
    """Sparse row-major matrix with named, group-tagged columns."""

    data: sp.csr_matrix
    names: tuple[str, ...]
    groups: tuple[str, ...]

    def __post_init__(self):
        n, d = self.data.shape
        if len(self.names) != d or len(self.groups) != d:
            raise ShapeError(f"matrix has {d} columns but {len(self.names)} names / {len(self.groups)} groups")
        for g in set(self.groups):
            if g not in GROUPS:
                raise ConfigError(f"unknown column group {g!r}")
        if not self.data.data.all():  # explicit zeros: drop them from a copy, never the caller's matrix
            data = self.data.copy()
            data.eliminate_zeros()
            object.__setattr__(self, "data", data)
        if np.any(_text_row_norms(self.data, self.groups) > 1.0 + 1e-9):
            raise ShapeError("text block rows must have L2 norm <= 1")

    @classmethod
    def from_dense(cls, array, names: Sequence[str], group: str | Sequence[str]) -> "FeatureMatrix":
        array = np.atleast_2d(np.asarray(array, dtype=np.float64))
        groups = (group,) * array.shape[1] if isinstance(group, str) else tuple(group)
        return cls(sp.csr_matrix(array), tuple(names), groups)

    @classmethod
    def from_csr(cls, mat: sp.spmatrix, names: Sequence[str], group: str | Sequence[str]) -> "FeatureMatrix":
        mat = sp.csr_matrix(mat, dtype=np.float64)
        groups = (group,) * mat.shape[1] if isinstance(group, str) else tuple(group)
        return cls(mat, tuple(names), groups)

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]

    def to_dense(self) -> np.ndarray:
        return np.asarray(self.data.todense(), dtype=np.float64)

    def select_columns(self, indices: Sequence[int]) -> "FeatureMatrix":
        idx = list(indices)
        return FeatureMatrix(
            sp.csr_matrix(self.data[:, idx]),
            tuple(self.names[j] for j in idx),
            tuple(self.groups[j] for j in idx),
        )

    def select_groups(self, wanted: Iterable[str]) -> "FeatureMatrix":
        wanted = set(wanted)
        missing = wanted - set(self.groups)
        if missing:
            raise ConfigError(f"matrix has no columns in group(s) {sorted(missing)}")
        return self.select_columns([j for j, g in enumerate(self.groups) if g in wanted])

    def select_rows(self, indices) -> "FeatureMatrix":
        return FeatureMatrix(sp.csr_matrix(self.data[indices]), self.names, self.groups)


def _text_row_norms(mat: sp.csr_matrix, groups: Sequence[str]) -> np.ndarray:
    """L2 norm of each row's text entries, looking up the groups of the stored columns only."""
    n, d = mat.shape
    used = np.flatnonzero(np.bincount(mat.indices, minlength=d))
    is_text = np.zeros(d, dtype=bool)
    is_text[used] = [groups[j] == "text" for j in used.tolist()]
    text = is_text[mat.indices]
    rows = np.repeat(np.arange(n), np.diff(mat.indptr))[text]
    return np.sqrt(np.bincount(rows, weights=mat.data[text] ** 2, minlength=n))


def as_matrix(X):
    """Accept FeatureMatrix, scipy sparse, or array-like; return float64 csr or 2-D ndarray.

    A FeatureMatrix yields its own csr data without a copy.
    """
    if isinstance(X, FeatureMatrix):
        return X.data
    if sp.issparse(X):
        return sp.csr_matrix(X, dtype=np.float64)
    return np.atleast_2d(np.asarray(X, dtype=np.float64))


# ---------------------------------------------------------------------------
# Blocks and their assembly


@dataclass(frozen=True)
class Block:
    """One source's columns, built for :func:`assemble`; not validated on its own."""

    data: sp.csr_matrix
    names: tuple[str, ...]
    group: str

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]

    @property
    def groups(self) -> tuple[str, ...]:
        return (self.group,) * self.n_cols

    def to_dense(self) -> np.ndarray:
        return self.data.toarray()


def _block(indptr, indices, values, names: tuple[str, ...], group: str) -> Block:
    mat = sp.csr_matrix(
        (np.asarray(values, dtype=np.float64), np.asarray(indices, dtype=np.int64), np.asarray(indptr, dtype=np.int64)),
        shape=(len(indptr) - 1, len(names)),
    )
    return Block(mat, names, group)


@dataclass(frozen=True)
class Columns:
    """The names, groups and group order of an assembled matrix.

    ``order`` permutes the concatenated columns into group order; it is
    None when they are in group order already.
    """

    names: tuple[str, ...]
    groups: tuple[str, ...]
    order: list[int] | None


def assembled_columns(parts: Sequence[tuple[Sequence[str], Sequence[str]]]) -> Columns:
    """Columns of the assembly of blocks given as (names, groups) pairs.

    Columns are stably reordered so groups appear as vendor, indicator,
    text, reduced; names get a ``group__`` prefix (idempotently), so
    assembling already-assembled matrices never double-prefixes.
    """
    names = []
    groups = []
    for block_names, block_groups in parts:
        for name, g in zip(block_names, block_groups):
            prefix = f"{g}__"
            names.append(name if name.startswith(prefix) else prefix + name)
            groups.append(g)
    order = sorted(range(len(groups)), key=lambda j: _GROUP_RANK[groups[j]])
    if order == list(range(len(order))):
        return Columns(tuple(names), tuple(groups), None)
    return Columns(tuple(names[j] for j in order), tuple(groups[j] for j in order), order)


def assemble(blocks: Sequence[Block | FeatureMatrix], columns: Columns | None = None) -> FeatureMatrix:
    """Concatenate blocks horizontally into one group-ordered, validated matrix.

    ``columns`` is :func:`assembled_columns` of these blocks, for a
    caller that assembles blocks of the same columns repeatedly; without
    it the columns are derived from the blocks.
    """
    if not blocks:
        raise ShapeError("assemble needs at least one block")
    n = blocks[0].n_rows
    for b in blocks[1:]:
        if b.n_rows != n:
            raise ShapeError(f"row count mismatch: {n} vs {b.n_rows}")
    if columns is None:
        columns = assembled_columns([(b.names, b.groups) for b in blocks])
    width = sum(b.n_cols for b in blocks)
    if width != len(columns.names):
        raise ShapeError(f"blocks have {width} columns but the layout has {len(columns.names)}")
    data = sp.hstack([b.data for b in blocks], format="csr")
    if columns.order is not None:
        data = sp.csr_matrix(data[:, columns.order])
    return FeatureMatrix(data, columns.names, columns.groups)


# ---------------------------------------------------------------------------
# Indicator features


@dataclass(frozen=True)
class KeywordLexicon:
    """Ordered set of lowercase keyword phrases (1-4 tokens each).

    ``tokens`` holds each phrase's token tuple and ``lengths`` the
    distinct phrase lengths, both fixed at construction.
    """

    phrases: tuple[str, ...]
    tokens: tuple[tuple[str, ...], ...] = field(init=False, repr=False, compare=False)
    lengths: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.phrases:
            raise ConfigError("lexicon must not be empty")
        if len(set(self.phrases)) != len(self.phrases):
            raise ConfigError("lexicon phrases must be unique")
        tokens = tuple(tuple(tokenize(p)) for p in self.phrases)
        for p, t in zip(self.phrases, tokens):
            if not 1 <= len(t) <= 4:
                raise ConfigError(f"phrase {p!r} must be 1-4 tokens, got {len(t)}")
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "lengths", tuple(sorted({len(t) for t in tokens})))

    @classmethod
    def default(cls) -> "KeywordLexicon":
        return cls(DEFAULT_KEYWORDS)

    @classmethod
    def from_file(cls, path) -> "KeywordLexicon":
        """One phrase per line, decoded like the data CSV (see :func:`corpus.decode_utf8`)."""
        try:
            text = decode_utf8(Path(path).read_bytes())
        except RowError as exc:
            raise ConfigError(f"lexicon file {path}: {exc}") from None
        lines = io.StringIO(text, newline=None)
        return cls(tuple(line.strip().lower() for line in lines if line.strip()))

    def __len__(self) -> int:
        return len(self.phrases)


def cve_flag(record: DisclosureRecord) -> int:
    """1 iff the record carries a well-formed CVE identifier."""
    if not record.cve_id:
        return 0
    return 1 if _CVE_RE.fullmatch(record.cve_id.strip()) else 0


def keyword_hits(tokens: Sequence[str], lexicon: KeywordLexicon) -> list[int]:
    """Indices of the phrases that occur in ``tokens`` as contiguous runs."""
    grams = set()
    for k in lexicon.lengths:
        grams.update(_kgrams(tokens, k))
    return [i for i, phrase in enumerate(lexicon.tokens) if phrase in grams]


def keyword_flags(description: str, lexicon: KeywordLexicon) -> np.ndarray:
    """Binary vector: flag i is 1 iff phrase i occurs as a contiguous token run."""
    flags = np.zeros(len(lexicon), dtype=np.int64)
    flags[keyword_hits(tokenize(description), lexicon)] = 1
    return flags


def keyword_frequencies(
    descriptions: Iterable[str], lexicon: KeywordLexicon, top_k: int = 10
) -> list[tuple[str, int]]:
    """Phrases ranked by how many descriptions mention them.

    Descending by count, ties alphabetical; at most ``top_k`` entries.
    """
    counts = [0] * len(lexicon)
    for text in descriptions:
        for i in keyword_hits(tokenize(text), lexicon):
            counts[i] += 1
    ranked = sorted(zip(lexicon.phrases, counts), key=lambda kv: (-kv[1], kv[0]))
    return ranked[: max(0, top_k)]


def indicator_names(lexicon: KeywordLexicon) -> tuple[str, ...]:
    return ("has_cve",) + lexicon.phrases


def indicator_block(records: Sequence[DisclosureRecord], lexicon: KeywordLexicon, tokens: Sequence[Sequence[str]]) -> Block:
    """CVE-presence flag plus keyword flags for each record, given its description's :func:`tokenize` tokens."""
    indptr = [0]
    indices = []
    for r, toks in zip(records, tokens):
        if cve_flag(r):
            indices.append(0)
        indices.extend(1 + i for i in keyword_hits(toks, lexicon))
        indptr.append(len(indices))
    return _block(indptr, indices, np.ones(len(indices)), indicator_names(lexicon), "indicator")


# ---------------------------------------------------------------------------
# Vendor one-hot


@dataclass(frozen=True)
class VendorEncoder:
    """One-hot encoder over the vendors seen at fit time (sorted order).

    ``index`` maps each category to its column, fixed at construction.
    """

    categories: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "index", {v: j for j, v in enumerate(self.categories)})

    def to_dict(self) -> dict:
        return {"categories": list(self.categories)}

    @classmethod
    def from_dict(cls, d: Mapping) -> "VendorEncoder":
        return cls(tuple(d["categories"]))


def fit_vendor(records: Sequence[DisclosureRecord]) -> VendorEncoder:
    return VendorEncoder(tuple(sorted({r.vendor for r in records})))


def encode_vendor(encoder: VendorEncoder, record: DisclosureRecord) -> np.ndarray:
    """One 1 for a known vendor, all zeros for an unseen one."""
    vec = np.zeros(len(encoder.categories), dtype=np.float64)
    j = encoder.index.get(record.vendor)
    if j is not None:
        vec[j] = 1.0
    return vec


def vendor_block(encoder: VendorEncoder, records: Sequence[DisclosureRecord]) -> Block:
    indptr = [0]
    indices = []
    for r in records:
        j = encoder.index.get(r.vendor)
        if j is not None:
            indices.append(j)
        indptr.append(len(indices))
    return _block(indptr, indices, np.ones(len(indices)), encoder.categories, "vendor")


# ---------------------------------------------------------------------------
# TF-IDF text features


@dataclass(frozen=True)
class TfidfModel:
    """Vocabulary and idf weights learned from the training corpus only.

    ``names`` holds the terms in column order, fixed at construction.
    """

    vocabulary: dict[str, int]
    idf: np.ndarray
    ngram_range: tuple[int, int]
    max_features: int
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.idf) != len(self.vocabulary):
            raise ShapeError("idf length must match vocabulary size")
        out = [""] * len(self.vocabulary)
        for term, j in self.vocabulary.items():
            out[j] = term
        object.__setattr__(self, "names", tuple(out))

    @property
    def terms(self) -> list[str]:
        """Vocabulary terms in column order."""
        return list(self.names)

    def to_dict(self) -> dict:
        return {
            "vocabulary": self.vocabulary,
            "idf": self.idf.tolist(),
            "ngram_range": list(self.ngram_range),
            "max_features": self.max_features,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "TfidfModel":
        return cls(
            dict(d["vocabulary"]),
            np.asarray(d["idf"], dtype=np.float64),
            tuple(d["ngram_range"]),
            d["max_features"],
        )


def _ngrams(tokens: Sequence[str], lo: int, hi: int) -> list[str]:
    grams = []
    for n in range(lo, hi + 1):
        grams.extend(tokens if n == 1 else map(" ".join, _kgrams(tokens, n)))
    return grams


def fit_tfidf(
    texts: Sequence[str],
    ngram_range: tuple[int, int] = (1, 2),
    max_features: int = 5000,
) -> TfidfModel:
    """Learn vocabulary and smoothed idf weights from training texts.

    idf(t) = ln((1 + N) / (1 + df(t))) + 1 with N the number of training
    documents and df(t) the number containing term t. When the vocabulary
    exceeds ``max_features`` it is capped to the terms with the highest
    total corpus count (ties alphabetical). Column order is alphabetical.
    """
    if not texts:
        raise FitError("cannot fit TF-IDF on an empty corpus")
    lo, hi = ngram_range
    if lo < 1 or hi < lo:
        raise ConfigError(f"bad ngram_range {ngram_range}")
    df: dict[str, int] = {}
    total: dict[str, int] = {}
    for text in texts:
        grams = _ngrams(tokenize(text), lo, hi)
        for g in grams:
            total[g] = total.get(g, 0) + 1
        for g in set(grams):
            df[g] = df.get(g, 0) + 1
    terms = sorted(df)
    if max_features and len(terms) > max_features:
        terms = sorted(terms, key=lambda t: (-total[t], t))[:max_features]
        terms.sort()
    vocabulary = {t: j for j, t in enumerate(terms)}
    n_docs = len(texts)
    idf = np.array([math.log((1 + n_docs) / (1 + df[t])) + 1.0 for t in terms], dtype=np.float64)
    return TfidfModel(vocabulary, idf, (lo, hi), max_features)


def transform_tfidf(model: TfidfModel, text: str) -> sp.csr_matrix:
    """One L2-normalized tf-idf row; all-zero when nothing is in vocabulary.

    The row-at-a-time reference for :func:`text_block`.
    """
    lo, hi = model.ngram_range
    counts: dict[int, int] = {}
    for g in _ngrams(tokenize(text), lo, hi):
        j = model.vocabulary.get(g)
        if j is not None:
            counts[j] = counts.get(j, 0) + 1
    d = len(model.vocabulary)
    if not counts:
        return sp.csr_matrix((1, d))
    cols = sorted(counts)
    vals = np.array([counts[j] * model.idf[j] for j in cols], dtype=np.float64)
    norm = float(np.sqrt(np.sum(vals * vals)))
    if norm > 0:
        vals /= norm
    return sp.csr_matrix((vals, ([0] * len(cols), cols)), shape=(1, d))


def text_block(model: TfidfModel, tokens: Sequence[Sequence[str]]) -> Block:
    """L2-normalized tf-idf rows, one per token list (see :func:`tokenize`).

    A row's entries are ``count * idf`` over its sorted in-vocabulary
    columns, divided by ``sqrt(sum(v * v))`` of that row.
    """
    lo, hi = model.ngram_range
    lookup = model.vocabulary.get
    indptr = [0]
    cols_parts = []
    vals_parts = []
    for toks in tokens:
        hits = [j for j in map(lookup, _ngrams(toks, lo, hi)) if j is not None]
        if hits:
            cols, counts = np.unique(hits, return_counts=True)
            vals = counts * model.idf[cols]
            norm = np.sqrt(np.sum(vals * vals))
            if norm > 0:
                vals /= norm
            cols_parts.append(cols)
            vals_parts.append(vals)
            indptr.append(indptr[-1] + len(cols))
        else:
            indptr.append(indptr[-1])
    indices = np.concatenate(cols_parts) if cols_parts else []
    values = np.concatenate(vals_parts) if vals_parts else []
    return _block(indptr, indices, values, model.names, "text")
