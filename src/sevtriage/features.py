"""Feature engineering: named sparse matrices over three column groups.

Blocks are built per source (vendor one-hot, binary indicators, TF-IDF
text) and assembled by horizontal concatenation, in ``GROUPS`` order,
into one matrix whose columns carry a name and fall in one contiguous
range per group; the matrix records each group's width. All fitted
models here are frozen after fit; transforms are read-only and
thread-safe. They carry no serializers: the scoring artifact
(``pipelines.ScoringArtifact``) writes and reads them.

Each block writes its CSR arrays (``indptr``/``indices``/``data``)
directly, in the manner of scikit-learn's ``CountVectorizer``. A
description is tokenized once, and its tokens serve both the keyword
flags and the TF-IDF n-grams. A keyword is found by a substring test of
its space-padded tokens against the record's. The TF-IDF block is built
in whole-batch passes (one vocabulary lookup, one ``np.unique``, one
multiply and divide); only the row norms are summed per row, to keep
the bits of numpy's pairwise sum over each row. Blocks are not
validated; :func:`assemble` validates the one matrix it returns. It
takes the blocks themselves, never an assembled matrix, and the column
names their caller derived once (a fitted ``FeatureBuilder`` fixes them
at fit and at load), so names are not rebuilt per call.
"""

from __future__ import annotations

import io
import itertools
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .corpus import DisclosureRecord, decode_utf8
from .errors import ConfigError, FitError, RowError, ShapeError

GROUPS = ("vendor", "indicator", "text")

# A maximal alphanumeric run of length 1 never matches and a longer one
# matches whole, so these are the runs of length >= 2 without a filter.
_TOKEN_RE = re.compile(r"[^\W_]{2,}", re.UNICODE)
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
    return _TOKEN_RE.findall(text.lower())


def _kgrams(tokens: Sequence[str], k: int):
    """The token k-tuples at every position, in order."""
    return zip(*(tokens[i:] for i in range(k)))


# ---------------------------------------------------------------------------
# FeatureMatrix


@dataclass(frozen=True)
class FeatureMatrix:
    """Sparse row-major matrix with named columns in contiguous group ranges.

    ``widths`` holds one column count per ``GROUPS`` entry, 0 for a group
    the matrix lacks; the groups' columns follow each other in that order.
    """

    data: sp.csr_matrix
    names: tuple[str, ...]
    widths: tuple[int, ...]

    def __post_init__(self):
        n, d = self.data.shape
        if len(self.widths) != len(GROUPS) or min(self.widths) < 0 or sum(self.widths) != d or len(self.names) != d:
            raise ShapeError(f"matrix has {d} columns but {len(self.names)} names and group widths {self.widths}")
        if not self.data.data.all():  # explicit zeros: drop them from a copy, never the caller's matrix
            data = self.data.copy()
            data.eliminate_zeros()
            object.__setattr__(self, "data", data)
        if np.any(_text_row_norms(self.data, d - self.widths[-1]) > 1.0 + 1e-9):
            raise ShapeError("text block rows must have L2 norm <= 1")

    @property
    def groups(self) -> tuple[str, ...]:
        """Each column's group."""
        return tuple(g for g, w in zip(GROUPS, self.widths) for _ in range(w))

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]

    def to_dense(self) -> np.ndarray:
        return np.asarray(self.data.todense(), dtype=np.float64)

    def select_groups(self, wanted: Iterable[str]) -> "FeatureMatrix":
        """The columns of the ``wanted`` groups, which must be present with no other group's columns between them."""
        wanted = set(wanted)
        missing = wanted - {g for g, w in zip(GROUPS, self.widths) if w}
        if missing or not wanted:
            raise ConfigError(f"matrix has no columns in group(s) {sorted(missing)}")
        widths = tuple(w if g in wanted else 0 for g, w in zip(GROUPS, self.widths))
        starts = list(itertools.accumulate(self.widths, initial=0))
        lo = starts[min(GROUPS.index(g) for g in wanted)]
        hi = starts[max(GROUPS.index(g) for g in wanted) + 1]
        if hi - lo != sum(widths):
            raise ConfigError(f"group(s) {sorted(wanted)} are not adjacent")
        return FeatureMatrix(sp.csr_matrix(self.data[:, lo:hi]), self.names[lo:hi], widths)

    def select_rows(self, indices) -> "FeatureMatrix":
        return FeatureMatrix(sp.csr_matrix(self.data[indices]), self.names, self.widths)


def _text_row_norms(mat: sp.csr_matrix, text_start: int) -> np.ndarray:
    """L2 norm of each row's entries in columns ``text_start`` onwards, the text range."""
    n = mat.shape[0]
    text = mat.indices >= text_start
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


def _block(indptr, indices, values, names: tuple[str, ...], group: str) -> Block:
    mat = sp.csr_matrix(
        (np.asarray(values, dtype=np.float64), np.asarray(indices, dtype=np.int64), np.asarray(indptr, dtype=np.int64)),
        shape=(len(indptr) - 1, len(names)),
    )
    return Block(mat, names, group)


def assemble(blocks: Sequence[Block], names: Sequence[str]) -> FeatureMatrix:
    """Concatenate blocks horizontally into one validated matrix named ``names``.

    The blocks come in ``GROUPS`` order, at most one per group, and give
    the matrix its group widths. ``names`` is derived once by a caller
    that assembles blocks of the same columns repeatedly. Blocks out of
    that order, of another row count or total width than ``names``, or
    no blocks at all, raise ShapeError.
    """
    if not blocks:
        raise ShapeError("assemble needs at least one block")
    groups = [b.group for b in blocks]
    if groups != [g for g in GROUPS if g in groups]:
        raise ShapeError(f"blocks must come in {GROUPS} order, at most one per group; got {groups}")
    n = blocks[0].n_rows
    for b in blocks[1:]:
        if b.n_rows != n:
            raise ShapeError(f"row count mismatch: {n} vs {b.n_rows}")
    widths = tuple(sum(b.n_cols for b in blocks if b.group == g) for g in GROUPS)
    return FeatureMatrix(sp.hstack([b.data for b in blocks], format="csr"), tuple(names), widths)


# ---------------------------------------------------------------------------
# Indicator features


@dataclass(frozen=True)
class KeywordLexicon:
    """Ordered set of lowercase keyword phrases (1-4 tokens each).

    ``tokens`` holds each phrase's token tuple and ``probes`` its
    :func:`_padded` tokens, both fixed at construction.
    """

    phrases: tuple[str, ...]
    tokens: tuple[tuple[str, ...], ...] = field(init=False, repr=False, compare=False)
    probes: tuple[str, ...] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "probes", tuple(map(_padded, tokens)))

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


def _padded(tokens: Sequence[str]) -> str:
    """The tokens joined by single spaces, with one space at each end."""
    return " " + " ".join(tokens) + " "


def keyword_hits(tokens: Sequence[str], lexicon: KeywordLexicon) -> list[int]:
    """Indices of the phrases that occur in ``tokens`` as contiguous runs.

    A phrase's probe is a substring of the padded tokens exactly where the
    phrase occurs: tokens hold no whitespace, so the probe's spaces can
    only fall on token boundaries.
    """
    row = _padded(tokens)
    return [i for i, probe in enumerate(lexicon.probes) if probe in row]


def keyword_frequencies(X: FeatureMatrix, lexicon: KeywordLexicon, top_k: int = 10) -> list[tuple[str, int]]:
    """Phrases ranked by how many rows of ``X`` flag them.

    ``X`` holds ``lexicon``'s indicator block, whose 0/1 phrase flags
    follow ``has_cve``. Descending by count, ties alphabetical; at most
    ``top_k`` entries.
    """
    flags = X.select_groups(["indicator"]).data[:, 1:]
    counts = np.asarray(flags.sum(axis=0), dtype=np.int64).ravel().tolist()
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


def fit_vendor(records: Sequence[DisclosureRecord]) -> VendorEncoder:
    return VendorEncoder(tuple(sorted({r.vendor for r in records})))


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
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.idf) != len(self.vocabulary):
            raise ShapeError("idf length must match vocabulary size")
        out = [""] * len(self.vocabulary)
        for term, j in self.vocabulary.items():
            out[j] = term
        object.__setattr__(self, "names", tuple(out))


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
    return TfidfModel(vocabulary, idf, (lo, hi))


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
    columns, divided by ``sqrt(sum(v * v))`` of that row. The batch's
    n-grams are looked up in one pass and counted by one ``np.unique``
    over the keys ``row * d + column``. Only the norm is taken row by
    row: ``np.add.reduce`` of a row's slice is the pairwise sum the row
    gets on its own, whose bits neither ``np.add.reduceat`` nor padding
    the rows to one width reproduces.
    """
    lo, hi = model.ngram_range
    n, d = len(tokens), len(model.idf)
    grams: list[str] = []
    ends = [0]
    for toks in tokens:
        grams.extend(_ngrams(toks, lo, hi))
        ends.append(len(grams))
    cols = np.fromiter(map(model.vocabulary.get, grams, itertools.repeat(-1)), dtype=np.int64, count=len(grams))
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(np.asarray(ends, dtype=np.int64)))
    hit = cols >= 0
    keys, counts = np.unique(rows[hit] * d + cols[hit], return_counts=True)
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * d)
    row_nnz = np.diff(indptr)
    cols = keys % d  # no keys when d is 0
    vals = counts * model.idf[cols]
    sq = vals * vals
    norms = np.sqrt([np.add.reduce(sq[a:b]) for a, b in itertools.pairwise(indptr.tolist())])
    norms[norms == 0] = 1.0  # a row with no entries, or only zero ones, stays as it is
    return _block(indptr, cols, vals / np.repeat(norms, row_nnz), model.names, "text")
