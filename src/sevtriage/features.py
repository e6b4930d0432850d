"""Feature engineering: named, group-tagged sparse matrices.

Blocks are built per source (vendor one-hot, binary indicators, TF-IDF
text) and assembled by horizontal concatenation into one matrix whose
columns carry both a name and a group tag. All fitted models here are
frozen after fit; transforms are read-only and thread-safe.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .corpus import DisclosureRecord
from .errors import ConfigError, FitError, ShapeError

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
        text_cols = [j for j, g in enumerate(self.groups) if g == "text"]
        if text_cols:
            norms = sp.linalg.norm(self.data[:, text_cols], axis=1)
            if np.any(norms > 1.0 + 1e-9):
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


def as_matrix(X):
    """Accept FeatureMatrix, scipy sparse, or array-like; return float64 csr or 2-D ndarray.

    A FeatureMatrix yields its own csr data without a copy.
    """
    if isinstance(X, FeatureMatrix):
        return X.data
    if sp.issparse(X):
        return sp.csr_matrix(X, dtype=np.float64)
    return np.atleast_2d(np.asarray(X, dtype=np.float64))


def assemble(blocks: Sequence[FeatureMatrix]) -> FeatureMatrix:
    """Concatenate blocks horizontally into one group-ordered matrix.

    Columns are stably reordered so groups appear as vendor, indicator,
    text, reduced; names get a ``group__`` prefix (idempotently), so
    assembling already-assembled matrices never double-prefixes.
    """
    if not blocks:
        raise ShapeError("assemble needs at least one block")
    n = blocks[0].n_rows
    for b in blocks[1:]:
        if b.n_rows != n:
            raise ShapeError(f"row count mismatch: {n} vs {b.n_rows}")
    data = sp.hstack([b.data for b in blocks], format="csr")
    names = []
    groups = []
    for b in blocks:
        for name, g in zip(b.names, b.groups):
            prefix = f"{g}__"
            names.append(name if name.startswith(prefix) else prefix + name)
            groups.append(g)
    order = sorted(range(len(groups)), key=lambda j: _GROUP_RANK[groups[j]])
    return FeatureMatrix(
        sp.csr_matrix(data[:, order]),
        tuple(names[j] for j in order),
        tuple(groups[j] for j in order),
    )


# ---------------------------------------------------------------------------
# Indicator features


@dataclass(frozen=True)
class KeywordLexicon:
    """Ordered set of lowercase keyword phrases (1-4 tokens each)."""

    phrases: tuple[str, ...]

    def __post_init__(self):
        if not self.phrases:
            raise ConfigError("lexicon must not be empty")
        if len(set(self.phrases)) != len(self.phrases):
            raise ConfigError("lexicon phrases must be unique")
        for p in self.phrases:
            n_tokens = len(tokenize(p))
            if not 1 <= n_tokens <= 4:
                raise ConfigError(f"phrase {p!r} must be 1-4 tokens, got {n_tokens}")

    @classmethod
    def default(cls) -> "KeywordLexicon":
        return cls(DEFAULT_KEYWORDS)

    @classmethod
    def from_file(cls, path) -> "KeywordLexicon":
        with open(path, "r", encoding="utf-8") as fh:
            phrases = [line.strip().lower() for line in fh if line.strip()]
        return cls(tuple(phrases))

    def __len__(self) -> int:
        return len(self.phrases)


def cve_flag(record: DisclosureRecord) -> int:
    """1 iff the record carries a well-formed CVE identifier."""
    if not record.cve_id:
        return 0
    return 1 if _CVE_RE.fullmatch(record.cve_id.strip()) else 0


def _contains_subsequence(tokens: Sequence[str], phrase_tokens: Sequence[str]) -> bool:
    k = len(phrase_tokens)
    if k == 0 or k > len(tokens):
        return False
    return any(tuple(tokens[i : i + k]) == tuple(phrase_tokens) for i in range(len(tokens) - k + 1))


def keyword_flags(description: str, lexicon: KeywordLexicon) -> np.ndarray:
    """Binary vector: flag i is 1 iff phrase i occurs as a contiguous token run."""
    tokens = tokenize(description)
    flags = np.zeros(len(lexicon), dtype=np.int64)
    for i, phrase in enumerate(lexicon.phrases):
        if _contains_subsequence(tokens, tokenize(phrase)):
            flags[i] = 1
    return flags


def keyword_frequencies(
    descriptions: Iterable[str], lexicon: KeywordLexicon, top_k: int = 10
) -> list[tuple[str, int]]:
    """Phrases ranked by how many descriptions mention them.

    Descending by count, ties alphabetical; at most ``top_k`` entries.
    """
    counts = np.zeros(len(lexicon), dtype=np.int64)
    for text in descriptions:
        counts += keyword_flags(text, lexicon)
    ranked = sorted(zip(lexicon.phrases, counts.tolist()), key=lambda kv: (-kv[1], kv[0]))
    return ranked[: max(0, top_k)]


def indicator_block(records: Sequence[DisclosureRecord], lexicon: KeywordLexicon) -> FeatureMatrix:
    """CVE-presence flag plus keyword flags for each record."""
    rows = np.zeros((len(records), 1 + len(lexicon)), dtype=np.float64)
    for i, r in enumerate(records):
        rows[i, 0] = cve_flag(r)
        rows[i, 1:] = keyword_flags(r.description, lexicon)
    names = ("has_cve",) + lexicon.phrases
    return FeatureMatrix.from_dense(rows, names, "indicator")


# ---------------------------------------------------------------------------
# Vendor one-hot


@dataclass(frozen=True)
class VendorEncoder:
    """One-hot encoder over the vendors seen at fit time (sorted order)."""

    categories: tuple[str, ...]

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
    try:
        vec[encoder.categories.index(record.vendor)] = 1.0
    except ValueError:
        pass
    return vec


def vendor_block(encoder: VendorEncoder, records: Sequence[DisclosureRecord]) -> FeatureMatrix:
    rows = np.stack([encode_vendor(encoder, r) for r in records]) if records else np.zeros((0, len(encoder.categories)))
    return FeatureMatrix.from_dense(rows, encoder.categories, "vendor")


# ---------------------------------------------------------------------------
# TF-IDF text features


@dataclass(frozen=True)
class TfidfModel:
    """Vocabulary and idf weights learned from the training corpus only."""

    vocabulary: dict[str, int]
    idf: np.ndarray
    ngram_range: tuple[int, int]
    max_features: int

    def __post_init__(self):
        if len(self.idf) != len(self.vocabulary):
            raise ShapeError("idf length must match vocabulary size")

    @property
    def terms(self) -> list[str]:
        """Vocabulary terms in column order."""
        out = [""] * len(self.vocabulary)
        for term, j in self.vocabulary.items():
            out[j] = term
        return out

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
        grams.extend(" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1))
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
    """One L2-normalized tf-idf row; all-zero when nothing is in vocabulary."""
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


def text_block(model: TfidfModel, texts: Sequence[str]) -> FeatureMatrix:
    rows = [transform_tfidf(model, t) for t in texts]
    mat = sp.vstack(rows, format="csr") if rows else sp.csr_matrix((0, len(model.vocabulary)))
    return FeatureMatrix.from_csr(mat, model.terms, "text")
