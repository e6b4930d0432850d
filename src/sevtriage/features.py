"""Feature engineering: named sparse matrices over three column groups.

Blocks are built per source (vendor one-hot, binary indicators, TF-IDF
text) and assembled, in ``GROUPS`` order, into one matrix whose columns
carry a name and fall in one contiguous range per group; the matrix
records each group's width. All fitted models here are frozen after
fit; transforms are read-only and thread-safe. They carry no
serializers: the scoring artifact (``pipelines.ScoringArtifact``) writes
and reads them.

A fitted featurizer holds one :class:`TermTable`: every TF-IDF term and
keyword phrase as a path of token ids, one sorted array of
``prefix * radix + token`` keys per path length. A description is
tokenized once; :meth:`TermTable.walk` maps the batch's tokens to ids
in one dictionary pass and follows the paths level by level with
``searchsorted``, so it finds every term and phrase occurrence without
building an n-gram string or testing a substring. The TF-IDF block
counts the occurrences with one ``np.unique`` and weighs them in
whole-batch passes; only the row norms are summed per row, to keep the
bits of numpy's pairwise sum over each row. A block holds its entries
as arrays (row, column, value) and is not validated; :func:`assemble`
places every block's entries by one sort of row-major keys into one
CSR matrix, the only one a transform builds, and validates it. It takes
the blocks themselves, never an assembled matrix, and the column names
their caller derived once (a fitted ``FeatureBuilder`` fixes them and
its term table at fit and at load), so neither is rebuilt per call.

Every learner reads its input through the rules here: a matrix through
:func:`as_matrix` or its dense form :func:`as_dense`, labels through
:func:`as_labels`, a fitted width through :func:`check_width` and a count through :func:`as_count`.
"""

from __future__ import annotations

import io
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .config import POSITIVE_INTEGER, check, check_value
from .corpus import DisclosureRecord, decode_utf8
from .errors import ConfigError, DomainError, FitError, RowError, ShapeError

GROUPS = ("vendor", "indicator", "text")

# A maximal alphanumeric run of length 1 never matches and a longer one
# matches whole, so these are the runs of length >= 2 without a filter.
_TOKEN_RE = re.compile(r"[^\W_]{2,}", re.UNICODE)
_CVE_RE = re.compile(r"CVE-\d{4}-\d{4,}")
_VENDOR = operator.attrgetter("vendor")
_INT32_MAX = np.iinfo(np.int32).max

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
    ``data`` is held as float64 CSR: any other matrix :func:`as_matrix`
    accepts is converted.
    """

    data: sp.csr_matrix
    names: tuple[str, ...]
    widths: tuple[int, ...]

    def __post_init__(self):
        if not (sp.issparse(self.data) and self.data.format == "csr" and self.data.dtype == np.float64):
            object.__setattr__(self, "data", sp.csr_matrix(as_matrix(self.data)))
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
        return FeatureMatrix(self.data[:, lo:hi], self.names[lo:hi], widths)

    def select_rows(self, indices) -> "FeatureMatrix":
        return FeatureMatrix(self.data[indices], self.names, self.widths)


def _text_row_norms(mat: sp.csr_matrix, text_start: int) -> np.ndarray:
    """L2 norm of each row's entries in columns ``text_start`` onwards, the text range."""
    n = mat.shape[0]
    text = mat.indices >= text_start
    rows = np.repeat(np.arange(n), np.diff(mat.indptr))[text]
    return np.sqrt(np.bincount(rows, weights=mat.data[text] ** 2, minlength=n))


# ---------------------------------------------------------------------------
# The one definition of a valid learner input


def as_matrix(X):
    """``X`` as float64 CSR (a FeatureMatrix's own data, not copied) or as a 2-D float64 array.

    A 1-D ``X`` is one row; more than two dimensions raise ShapeError.
    """
    if isinstance(X, FeatureMatrix):
        return X.data
    if sp.issparse(X):
        return sp.csr_matrix(X, dtype=np.float64)
    mat = np.asarray(X, dtype=np.float64)
    if mat.ndim > 2:
        raise ShapeError(f"a matrix has at most 2 dimensions, got shape {mat.shape}")
    return np.atleast_2d(mat)


def as_dense(X, order: str | None = None) -> np.ndarray:
    """:func:`as_matrix` of ``X`` as a dense array, copied only to densify it or to give it ``order``."""
    mat = as_matrix(X)
    return mat.toarray(order=order) if sp.issparse(mat) else np.asarray(mat, order=order)


def as_labels(y, rows: int | None = None, name: str = "y") -> np.ndarray:
    """``y`` as a new 1-D int64 array: the one label check of every learner, selector, metric and split.

    A value other than exactly 0 or 1 (``True`` and ``1.0`` are) raises
    DomainError naming it; a count other than ``rows``, if given, ShapeError.
    """
    v = np.asarray(y).ravel()
    bad = (v != 0) & (v != 1)
    if bad.any():
        raise DomainError(f"{name} must be binary, found {v[bad].tolist()[0]!r}")
    if rows is not None and len(v) != rows:
        raise ShapeError(f"{rows} rows but {len(v)} labels")
    return v.astype(np.int64)


def check_width(mat, expected: int) -> None:
    """ShapeError unless ``mat`` has the ``expected`` number of columns, the width a model was fitted on."""
    if mat.shape[-1] != expected:
        raise ShapeError(f"matrix width {mat.shape[-1]} != fitted width {expected}")


def as_count(k, limit: int, name: str = "k") -> int:
    """``min(k, limit)``, ``limit`` being how many the data holds (it may be 0): the one count rule.

    A ``k`` that is not a positive integer (a bool is not one; numpy's are) is a ConfigError naming ``name``.
    """
    check_value(k, name, *POSITIVE_INTEGER)
    return min(int(k), limit)


# ---------------------------------------------------------------------------
# Blocks and their assembly


@dataclass(frozen=True)
class Block:
    """One source's columns as entries, built for :func:`assemble`; not validated on its own.

    Entry ``e`` puts ``values[e]`` at row ``rows[e]`` and column ``cols[e]``
    of the block, one entry per cell, in any order. ``data``, the block as
    CSR, is built each time it is read; :func:`assemble` does not read it.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    n_rows: int
    names: tuple[str, ...]
    group: str

    @property
    def n_cols(self) -> int:
        return len(self.names)

    @property
    def data(self) -> sp.csr_matrix:
        return sp.csr_matrix((self.values, (self.rows, self.cols)), shape=(self.n_rows, self.n_cols))


def assemble(blocks: Sequence[Block], names: Sequence[str]) -> FeatureMatrix:
    """The blocks side by side as one validated CSR matrix named ``names``.

    The blocks come in ``GROUPS`` order, at most one per group, and give
    the matrix its group widths. ``names`` is derived once by a caller
    that assembles blocks of the same columns repeatedly. Blocks out of
    that order, of another row count or total width than ``names``, or
    no blocks at all, raise ShapeError. Every entry is placed by one sort
    of the row-major keys ``row * d + column``.
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
    d = sum(widths)
    starts = itertools.accumulate((b.n_cols for b in blocks), initial=0)
    keys = np.concatenate([b.rows * d + (b.cols + start) for b, start in zip(blocks, starts)])
    order = np.argsort(keys, kind="stable")  # a merge of the blocks' sorted runs, as the package builds them
    keys = keys[order]
    index = np.int32 if max(n, d, len(keys)) <= _INT32_MAX else np.int64  # as sp.hstack chooses
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * d).astype(index)
    indices = (keys % d).astype(index)  # no keys when d is 0
    values = np.concatenate([b.values for b in blocks])[order]
    return FeatureMatrix(sp.csr_matrix((values, indices, indptr), shape=(n, d)), tuple(names), widths)


# ---------------------------------------------------------------------------
# Indicator features


@dataclass(frozen=True)
class KeywordLexicon:
    """Ordered set of lowercase keyword phrases (1-4 tokens each, no two alike).

    ``tokens`` holds each phrase's token tuple, fixed at construction. Two
    phrases of the same tokens (``info disclosure`` and ``info-disclosure``)
    would flag the same rows, so they raise ConfigError naming both.
    """

    phrases: tuple[str, ...]
    tokens: tuple[tuple[str, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.phrases:
            raise ConfigError("lexicon must not be empty")
        if len(set(self.phrases)) != len(self.phrases):
            raise ConfigError("lexicon phrases must be unique")
        tokens = tuple(tuple(tokenize(p)) for p in self.phrases)
        first: dict[tuple[str, ...], str] = {}
        for p, t in zip(self.phrases, tokens):
            if not 1 <= len(t) <= 4:
                raise ConfigError(f"phrase {p!r} must be 1-4 tokens, got {len(t)}")
            if (q := first.setdefault(t, p)) != p:
                raise ConfigError(f"phrases {q!r} and {p!r} are both the tokens {' '.join(t)!r}")
        object.__setattr__(self, "tokens", tokens)

    @classmethod
    def default(cls) -> "KeywordLexicon":
        return cls(DEFAULT_KEYWORDS)

    @classmethod
    def from_file(cls, path) -> "KeywordLexicon":
        """One phrase per line, decoded like the data CSV (see :func:`corpus.decode_utf8`); each error names the file."""
        try:
            lines = io.StringIO(decode_utf8(Path(path).read_bytes()), newline=None)
            return cls(tuple(line.strip().lower() for line in lines if line.strip()))
        except (RowError, ConfigError) as exc:
            raise ConfigError(f"lexicon file {path}: {exc}") from None


def cve_flag(record: DisclosureRecord) -> int:
    """1 iff the record carries a well-formed CVE identifier."""
    if not record.cve_id:
        return 0
    return 1 if _CVE_RE.fullmatch(record.cve_id.strip()) else 0


def keyword_frequencies(X: FeatureMatrix, lexicon: KeywordLexicon, top_k: int = 10) -> list[tuple[str, int]]:
    """Phrases ranked by how many rows of ``X`` flag them.

    ``X`` holds ``lexicon``'s indicator block, whose 0/1 phrase flags
    follow ``has_cve``. Descending by count, ties alphabetical; the first
    ``top_k`` entries, a count read by :func:`as_count`.
    """
    flags = X.select_groups(["indicator"]).data[:, 1:]
    check_width(flags, len(lexicon.phrases))
    counts = np.asarray(flags.sum(axis=0), dtype=np.int64).ravel().tolist()
    ranked = sorted(zip(lexicon.phrases, counts), key=lambda kv: (-kv[1], kv[0]))
    return ranked[: as_count(top_k, len(ranked), "top_k")]


def indicator_names(lexicon: KeywordLexicon) -> tuple[str, ...]:
    return ("has_cve",) + lexicon.phrases


def indicator_block(records: Sequence[DisclosureRecord], lexicon: KeywordLexicon, found: Occurrences) -> Block:
    """CVE-presence flag plus keyword flags for each record.

    ``found`` is the :meth:`TermTable.walk` of the records' tokens: phrase
    ``i`` is flagged, in column ``1 + i``, in each row it occurs in, once.
    """
    d = 1 + len(lexicon.phrases)
    cve = np.flatnonzero(np.fromiter(map(cve_flag, records), dtype=np.int64, count=len(records)))
    rows, cols = np.divmod(np.unique(np.concatenate([cve * d, found.flag_rows * d + found.flags + 1])), d)
    return Block(rows, cols, np.ones(len(rows)), len(records), indicator_names(lexicon), "indicator")


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
    """One 1 per record of a vendor seen at fit, in that vendor's column; an unseen vendor's row is empty."""
    cols = np.fromiter(map(encoder.index.get, map(_VENDOR, records), itertools.repeat(-1)), dtype=np.int64, count=len(records))
    rows = np.flatnonzero(cols >= 0)
    return Block(rows, cols[rows], np.ones(len(rows)), len(records), encoder.categories, "vendor")


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
    exceeds ``max_features`` (an :func:`as_count` count) it is capped to the
    terms with the highest total corpus count (ties alphabetical). Column order is alphabetical.
    """
    if not texts:
        raise FitError("cannot fit TF-IDF on an empty corpus")
    lo, hi = ngram_range
    check("tfidf", ngram_lo=lo, ngram_hi=hi)
    df: dict[str, int] = {}
    total: dict[str, int] = {}
    for text in texts:
        grams = _ngrams(tokenize(text), lo, hi)
        for g in grams:
            total[g] = total.get(g, 0) + 1
        for g in set(grams):
            df[g] = df.get(g, 0) + 1
    terms = sorted(df)
    if (cap := as_count(max_features, len(terms), "max_features")) < len(terms):
        terms = sorted(terms, key=lambda t: (-total[t], t))[:cap]
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


# ---------------------------------------------------------------------------
# The term table: every TF-IDF term and keyword phrase, walked once per batch


@dataclass(frozen=True)
class Occurrences:
    """What :meth:`TermTable.walk` found in ``n_rows`` token lists.

    Each TF-IDF term occurrence is an entry of ``text_rows`` and
    ``text_cols`` (its vocabulary column), each keyword phrase occurrence
    one of ``flag_rows`` and ``flags`` (its lexicon index); both in no
    particular order, a term seen twice in a row twice.
    """

    n_rows: int
    text_rows: np.ndarray
    text_cols: np.ndarray
    flag_rows: np.ndarray
    flags: np.ndarray


@dataclass(frozen=True)
class TermTable:
    """A fitted featurizer's terms and phrases as paths of token ids, for :meth:`walk`.

    ``ids`` numbers every token of a path, those that begin one first; a
    token it lacks is ``unknown`` (``len(ids)``). ``levels[k]`` holds,
    sorted, one key per distinct prefix of k + 1 tokens,
    ``node * (unknown + 1) + token``, where ``node`` is the index of its
    k-token prefix in ``levels[k - 1]`` (0 for k = 0), so no key ends in
    ``unknown`` and a first token's id is its index in ``levels[0]``.
    ``text`` and ``flag`` hold each prefix's vocabulary column and
    lexicon index, -1 for neither, over the levels in turn;
    ``offsets[k]`` is where level k starts.
    """

    ids: dict[str, int]
    levels: tuple[np.ndarray, ...]
    text: np.ndarray
    flag: np.ndarray
    offsets: tuple[int, ...]

    def walk(self, tokens: Sequence[Sequence[str]]) -> Occurrences:
        """Every term and phrase occurrence in each token list (see :func:`tokenize`).

        The batch's tokens become ids in one pass, each row followed by
        ``unknown``, so no path runs past a row's end. Level 0 keeps the
        positions of first tokens, whose ids are their nodes; level k then
        keeps the positions whose first k + 1 tokens are a prefix in the
        table, by one ``searchsorted`` over the positions level k - 1 kept.
        """
        n, unknown = len(tokens), len(self.ids)
        lengths = np.fromiter(map(len, tokens), dtype=np.int64, count=n)
        ended = itertools.chain.from_iterable(itertools.chain.from_iterable(zip(tokens, itertools.repeat((None,)))))
        seq = np.fromiter(map(self.ids.get, ended, itertools.repeat(unknown)), dtype=np.int64, count=int(lengths.sum()) + n)
        starts = np.flatnonzero(seq < len(self.levels[0]))
        node = seq[starts]
        at, nodes = [starts], [node]
        for k in range(1, len(self.levels)):
            keys = self.levels[k]
            key = node * (unknown + 1) + seq[starts + k]
            node = np.searchsorted(keys, key)
            hit = keys.take(node, mode="clip") == key
            starts, node = starts[hit], node[hit]
            at.append(starts)
            nodes.append(node + self.offsets[k])
        rows = np.repeat(np.arange(n), lengths + 1)[np.concatenate(at)]
        nodes = np.concatenate(nodes)
        text, flag = self.text[nodes], self.flag[nodes]
        is_text, is_flag = text >= 0, flag >= 0
        return Occurrences(n, rows[is_text], text[is_text], rows[is_flag], flag[is_flag])


def term_table(model: TfidfModel, lexicon: KeywordLexicon) -> TermTable:
    """The :class:`TermTable` of ``model``'s terms and ``lexicon``'s phrases.

    A term's path is its space-separated tokens, and it counts only when
    their number lies in ``model.ngram_range``. Tokens hold no space, so
    a run of tokens is a term exactly when it is that term's path: the
    walk finds the n-grams a string lookup of each joined n-gram would.
    A phrase's path is its :attr:`KeywordLexicon.tokens`. A term a loaded
    vocabulary holds but no n-gram can be (uppercase, two spaces, a
    3-gram under (1, 2)) is a path no walk completes, or no path at all.
    """
    lo, hi = model.ngram_range
    paths: dict[tuple[str, ...], tuple[int, int]] = {}
    for term, j in model.vocabulary.items():
        toks = tuple(term.split(" "))
        if lo <= len(toks) <= hi:
            paths[toks] = (j, -1)
    for i, toks in enumerate(lexicon.tokens):
        paths[toks] = (paths.get(toks, (-1, -1))[0], i)
    ids = {t: i for i, t in enumerate(dict.fromkeys([p[0] for p in paths] + [t for p in paths for t in p]))}
    radix = len(ids) + 1
    levels, entries, parent = [], [], {(): 0}
    for k in range(max(map(len, paths))):
        prefixes = sorted({(parent[p[:k]] * radix + ids[p[k]], p[: k + 1]) for p in paths if len(p) > k})
        levels.append(np.array([key for key, _ in prefixes], dtype=np.int64))
        entries += [paths.get(p, (-1, -1)) for _, p in prefixes]
        parent = {p: i for i, (_, p) in enumerate(prefixes)}
    text, flag = np.array(entries, dtype=np.int64).T
    offsets = tuple(itertools.accumulate(map(len, levels[:-1]), initial=0))
    return TermTable(ids, tuple(levels), text, flag, offsets)


def text_block(model: TfidfModel, found: Occurrences) -> Block:
    """L2-normalized tf-idf rows of the term occurrences ``found``.

    A row's entries are ``count * idf`` over its sorted in-vocabulary
    columns, divided by ``sqrt(sum(v * v))`` of that row. The batch's
    occurrences are counted by one ``np.unique`` over the keys
    ``row * d + column``. Only the norm is taken row by row:
    ``np.add.reduce`` of a row's slice is the pairwise sum the row gets
    on its own, whose bits neither ``np.add.reduceat`` nor padding the
    rows to one width reproduces.
    """
    n, d = found.n_rows, len(model.idf)
    keys, counts = np.unique(found.text_rows * d + found.text_cols, return_counts=True)
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * d)
    row_nnz = np.diff(indptr)
    rows, cols = np.divmod(keys, d)  # no keys when d is 0
    vals = counts * model.idf[cols]
    sq = vals * vals
    norms = np.sqrt([np.add.reduce(sq[a:b]) for a, b in itertools.pairwise(indptr.tolist())])
    norms[norms == 0] = 1.0  # a row with no entries, or only zero ones, stays as it is
    return Block(rows, cols, vals / np.repeat(norms, row_nnz), n, model.names, "text")
