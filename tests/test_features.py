"""Tokenizer, indicators, TF-IDF (against a hand oracle), assembly, and
the one-pass featurizer against its row-at-a-time reference and, bit for
bit, against the string path (n-gram strings, substring keyword test,
per-block CSR and ``sp.hstack``) it replaced."""

import copy
import hashlib
import itertools
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sevtriage import features
from sevtriage.corpus import DisclosureRecord
from sevtriage.errors import ConfigError, FitError, ShapeError
from sevtriage.features import FeatureMatrix, KeywordLexicon
from sevtriage.pipelines import FeatureBuilder
from tests.conftest import block_of, grouped_matrix


def _rec(cve_id=None, vendor="V", description=""):
    return DisclosureRecord("Z", cve_id, 5.0, None, vendor, description)


def substring_hits(tokens, lexicon: KeywordLexicon) -> list[int]:
    """The keyword rule before the term table: phrase i occurs iff its space-padded tokens are a substring of the row's.

    Tokens hold no whitespace, so a padded phrase's spaces can only fall on the row's token boundaries.
    """
    row = " " + " ".join(tokens) + " "
    return [i for i, phrase in enumerate(lexicon.tokens) if " " + " ".join(phrase) + " " in row]


_NO_TERMS = features.TfidfModel({}, np.zeros(0), (1, 1))


def walked(rows, lexicon: KeywordLexicon, model: features.TfidfModel = _NO_TERMS) -> features.Occurrences:
    """The term-table walk of token lists ``rows`` over ``model``'s terms and ``lexicon``'s phrases.

    Each list is walked as its tokens joined by spaces, which split back into the same tokens.
    """
    return features.term_table(model, lexicon).walk([" ".join(tokens) for tokens in rows])


def walk_hits(tokens, lexicon: KeywordLexicon) -> list[int]:
    """The phrases the walk finds in one token list, each once, in lexicon order."""
    return sorted(set(walked([tokens], lexicon).flags.tolist()))


def keyword_flags(description: str, lexicon: KeywordLexicon) -> np.ndarray:
    """Row-at-a-time oracle: flag i is 1 iff phrase i occurs as a contiguous token run."""
    flags = np.zeros(len(lexicon.phrases), dtype=np.int64)
    flags[substring_hits(features.tokenize(description), lexicon)] = 1
    return flags


def encode_vendor(encoder: features.VendorEncoder, record: DisclosureRecord) -> np.ndarray:
    """Row-at-a-time oracle: one 1 for a known vendor, all zeros for an unseen one."""
    vec = np.zeros(len(encoder.categories), dtype=np.float64)
    j = encoder.index.get(record.vendor)
    if j is not None:
        vec[j] = 1.0
    return vec


class TestTokenize:
    def test_punctuation_and_case(self):
        assert features.tokenize("Remote Code Execution!") == ["remote", "code", "execution"]

    def test_empty(self):
        assert features.tokenize("") == []

    def test_identifier_splits_on_hyphens(self):
        assert features.tokenize("CVE-2024-0001") == ["cve", "2024", "0001"]

    def test_single_char_runs_dropped(self):
        assert features.tokenize("a bb c dd") == ["bb", "dd"]

    @given(st.text(max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_deterministic_and_lowercase(self, text):
        tokens = features.tokenize(text)
        assert tokens == features.tokenize(text)
        assert all(t == t.lower() and len(t) >= 2 for t in tokens)


class TestCveFlag:
    def test_wellformed(self):
        assert features.cve_flag(_rec(cve_id="CVE-2024-21345")) == 1

    def test_absent(self):
        assert features.cve_flag(_rec(cve_id=None)) == 0

    def test_other_identifier(self):
        assert features.cve_flag(_rec(cve_id="ZDI-CAN-999")) == 0

    def test_short_sequence_number_rejected(self):
        assert features.cve_flag(_rec(cve_id="CVE-2024-001")) == 0


class TestKeywordFlags:
    def test_containment(self):
        lex = KeywordLexicon.default()
        flags = keyword_flags("allows remote code execution on affected systems", lex)
        assert flags[lex.phrases.index("remote code execution")] == 1

    def test_empty_description_all_zero(self):
        assert not keyword_flags("", KeywordLexicon.default()).any()

    def test_case_and_whitespace_normalized(self):
        lex = KeywordLexicon(("buffer overflow",))
        assert keyword_flags("buffer  OVERFLOW", lex).tolist() == [1]

    def test_phrase_must_be_contiguous(self):
        lex = KeywordLexicon(("remote code",))
        assert keyword_flags("remote unprivileged code", lex).tolist() == [0]

    @given(st.sampled_from(["Buffer Overflow here", "buffer\toverflow", "x BUFFER   overflow y"]))
    def test_invariant_to_case_and_spacing(self, text):
        lex = KeywordLexicon(("buffer overflow",))
        assert keyword_flags(text, lex).tolist() == [1]

    def test_lexicon_validation(self):
        with pytest.raises(ConfigError):
            KeywordLexicon(())
        with pytest.raises(ConfigError):
            KeywordLexicon(("dup", "dup"))
        with pytest.raises(ConfigError):
            KeywordLexicon(("one two three four five",))

    @pytest.mark.parametrize("phrases", [("info disclosure", "info-disclosure"), ("xss", "rce", "XSS!")])
    def test_two_phrases_of_the_same_tokens_are_refused_by_name(self, phrases):
        # each pair would make two identical flag columns
        first, second = phrases[0], phrases[-1]
        with pytest.raises(ConfigError, match=re.escape(f"phrases {first!r} and {second!r} are both the tokens")):
            KeywordLexicon(phrases)

    def test_phrases_are_lowercased_as_a_file_lexicon_is(self, tmp_path):
        built = KeywordLexicon(("XSS", "Buffer Overflow"))
        path = tmp_path / "lexicon.txt"
        path.write_text("XSS\nBuffer Overflow\n", encoding="utf-8")
        assert built.phrases == KeywordLexicon.from_file(path).phrases == ("xss", "buffer overflow")
        builder = FeatureBuilder(built).fit([_rec(description="stored XSS")])
        assert builder.names[1:4] == ("indicator__has_cve", "indicator__xss", "indicator__buffer overflow")
        with pytest.raises(ConfigError, match="lexicon phrases must be unique"):
            KeywordLexicon(("xss", "XSS"))


def _indicators(descriptions, lex, cve_id=None) -> FeatureMatrix:
    """The indicator block of one record per description."""
    records = [_rec(cve_id=cve_id, description=d) for d in descriptions]
    block = features.indicator_block(records, lex, features.term_table(_NO_TERMS, lex).walk(descriptions))
    return grouped_matrix((block.data, block.names, block.group))


class TestKeywordFrequencies:
    def test_counts_records_not_occurrences(self):
        lex = KeywordLexicon(("xss", "rce"))
        descriptions = ["xss and xss again", "xss", "xss"]
        assert features.keyword_frequencies(_indicators(descriptions, lex), lex)[0] == ("xss", 3)

    def test_top_k_clamps(self):
        lex = KeywordLexicon(("xss", "rce"))
        assert len(features.keyword_frequencies(_indicators(["xss rce"], lex), lex, top_k=10)) == 2

    def test_ties_alphabetical(self):
        lex = KeywordLexicon(("zz", "aa"))
        ranked = features.keyword_frequencies(_indicators(["aa zz"], lex), lex)
        assert ranked == [("aa", 1), ("zz", 1)]

    def test_cve_flag_not_counted(self):
        lex = KeywordLexicon(("xss", "rce"))
        X = _indicators(["xss", "nothing here"], lex, cve_id="CVE-2024-0001")
        assert features.keyword_frequencies(X, lex) == [("xss", 1), ("rce", 0)]

    def test_a_lexicon_of_another_width_than_the_flags_is_a_shape_error(self):
        X = _indicators(["buffer overflow", "xss"], KeywordLexicon.default())  # 10 phrase flags
        with pytest.raises(ShapeError, match="matrix width 10 != fitted width 2"):
            features.keyword_frequencies(X, KeywordLexicon(("alpha", "beta")))

    def test_assembled_matrix_counts_match_descriptions(self, synthetic_dataset):
        records = synthetic_dataset.train_records()
        builder = FeatureBuilder().fit(records)
        counts = [0] * len(builder.lexicon.phrases)
        for r in records:
            for i in substring_hits(features.tokenize(r.description), builder.lexicon):
                counts[i] += 1
        want = sorted(zip(builder.lexicon.phrases, counts), key=lambda kv: (-kv[1], kv[0]))[:10]
        assert features.keyword_frequencies(builder.transform(records), builder.lexicon, top_k=10) == want


# Frozen outputs of a hand-applied oracle over the corpus
# ["aa bb", "aa cc", "aa bb cc dd"]: idf(t) = ln((1+3)/(1+df)) + 1,
# rows tf*idf then L2-normalized.
ORACLE_DOCS = ["aa bb", "aa cc", "aa bb cc dd"]
ORACLE_IDF = {
    "aa": 1.0,
    "bb": 1.2876820724517808,
    "cc": 1.2876820724517808,
    "dd": 1.6931471805599454,
}
ORACLE_ROWS = [
    [0.6133555370249717, 0.7898069290660905, 0.0, 0.0],
    [0.6133555370249717, 0.0, 0.7898069290660905, 0.0],
    [0.3731188059313277, 0.4804583972923858, 0.4804583972923858, 0.6317450542765208],
]
ORACLE_BIGRAM_IDF = {
    "aa": 1.0,
    "aa bb": 1.2876820724517808,
    "aa cc": 1.6931471805599454,
    "bb": 1.2876820724517808,
    "bb cc": 1.6931471805599454,
    "cc": 1.2876820724517808,
    "cc dd": 1.6931471805599454,
    "dd": 1.6931471805599454,
}
ORACLE_BIGRAM_ROW2 = [
    0.26193975520639246,
    0.33729512684167956,
    0.0,
    0.33729512684167956,
    0.4435025580042657,
    0.33729512684167956,
    0.4435025580042657,
    0.4435025580042657,
]


class TestTfidf:
    def test_idf_matches_hand_oracle(self):
        model = features.fit_tfidf(ORACLE_DOCS, ngram_range=(1, 1), max_features=100)
        assert list(model.names) == sorted(ORACLE_IDF)
        for term, expected in ORACLE_IDF.items():
            assert model.idf[model.vocabulary[term]] == pytest.approx(expected, abs=1e-12)

    def test_rows_match_hand_oracle(self):
        model = features.fit_tfidf(ORACLE_DOCS, ngram_range=(1, 1), max_features=100)
        for doc, expected in zip(ORACLE_DOCS, ORACLE_ROWS):
            row = features.transform_tfidf(model, doc).toarray().ravel()
            assert np.allclose(row, expected, atol=1e-12)

    def test_bigram_rows_match_hand_oracle(self):
        model = features.fit_tfidf(ORACLE_DOCS, ngram_range=(1, 2), max_features=100)
        assert list(model.names) == sorted(ORACLE_BIGRAM_IDF)
        for term, expected in ORACLE_BIGRAM_IDF.items():
            assert model.idf[model.vocabulary[term]] == pytest.approx(expected, abs=1e-12)
        row = features.transform_tfidf(model, ORACLE_DOCS[2]).toarray().ravel()
        assert np.allclose(row, ORACLE_BIGRAM_ROW2, atol=1e-12)

    def test_unseen_terms_give_zero_vector(self):
        model = features.fit_tfidf(ORACLE_DOCS, ngram_range=(1, 1))
        row = features.transform_tfidf(model, "zz yy")
        assert row.nnz == 0

    def test_nonzero_rows_have_unit_norm(self):
        model = features.fit_tfidf(ORACLE_DOCS)
        for doc in ORACLE_DOCS + ["aa", "bb cc"]:
            row = features.transform_tfidf(model, doc)
            if row.nnz:
                assert np.linalg.norm(row.toarray()) == pytest.approx(1.0, abs=1e-9)

    def test_empty_corpus_raises(self):
        with pytest.raises(FitError):
            features.fit_tfidf([])

    def test_max_features_keeps_highest_corpus_count(self):
        model = features.fit_tfidf(["aa aa bb", "aa cc", "cc dd"], ngram_range=(1, 1), max_features=2)
        assert model.names == ("aa", "cc")  # counts: aa=3, cc=2, bb=dd=1

    def test_transform_never_mutates_model(self):
        model = features.fit_tfidf(ORACLE_DOCS)
        vocab_before = dict(model.vocabulary)
        idf_before = model.idf.copy()
        features.transform_tfidf(model, "entirely new unseen words everywhere")
        assert model.vocabulary == vocab_before
        assert np.array_equal(model.idf, idf_before)


class TestVendorEncoder:
    def test_one_hot_for_known(self):
        enc = features.fit_vendor([_rec(vendor="A"), _rec(vendor="B")])
        assert features.vendor_block(enc, [_rec(vendor="B")]).data.toarray().tolist() == [[0.0, 1.0]]

    def test_unseen_vendor_all_zero(self):
        enc = features.fit_vendor([_rec(vendor="A"), _rec(vendor="B")])
        assert features.vendor_block(enc, [_rec(vendor="C")]).data.toarray().tolist() == [[0.0, 0.0]]

    def test_sum_in_zero_one(self):
        enc = features.fit_vendor([_rec(vendor=v) for v in "ABCD"])
        rows = features.vendor_block(enc, [_rec(vendor=v) for v in ("A", "D", "unknown")]).data.toarray()
        assert rows.sum(axis=1).tolist() == [1.0, 1.0, 0.0]


class TestAssemble:
    def _part(self, arr, group, prefix="c"):
        arr = np.asarray(arr, dtype=float)
        return arr, [f"{prefix}{j}" for j in range(arr.shape[1])], group

    def test_widths_add(self):
        assert grouped_matrix(self._part(np.ones((4, 3)), "vendor"), self._part(np.ones((4, 5)), "indicator")).n_cols == 8

    def test_single_block_identity(self):
        arr = np.arange(12.0).reshape(3, 4)
        out = grouped_matrix(self._part(arr, "vendor"))
        assert np.array_equal(features.as_dense(out), arr)
        assert out.names == tuple(f"vendor__c{j}" for j in range(4))

    def test_row_mismatch_raises(self):
        with pytest.raises(ShapeError):
            grouped_matrix(self._part(np.ones((10, 2)), "vendor"), self._part(np.ones((9, 2)), "indicator"))

    @pytest.mark.parametrize("layout", ["wider", "narrower", "no_blocks"])
    def test_blocks_that_do_not_fill_the_columns_raise(self, layout):
        a = block_of(np.ones((3, 2)), ("a0", "a1"), "vendor")
        b = block_of(np.ones((3, 3)), ("b0", "b1", "b2"), "indicator")
        names = a.names + b.names
        blocks = {"wider": [a], "narrower": [a, b, b], "no_blocks": []}[layout]
        with pytest.raises(ShapeError):
            features.assemble(blocks, names)

    def test_blocks_out_of_group_order_or_wider_than_the_names_raise(self):
        a = block_of(np.ones((3, 2)), ("a0", "a1"), "vendor")
        b = block_of(np.ones((3, 3)), ("b0", "b1", "b2"), "indicator")
        for blocks in ([b, a], [a, a]):
            with pytest.raises(ShapeError, match="order"):
                features.assemble(blocks, a.names + b.names)
        with pytest.raises(ShapeError, match="5 columns but 2 names"):
            features.assemble([a, b], a.names)
        assert features.assemble([a, b], a.names + b.names).widths == (2, 3, 0)


class TestFeatureMatrix:
    def test_text_norm_invariant_enforced(self):
        with pytest.raises(ShapeError):
            grouped_matrix((np.array([[2.0, 2.0]]), ["a", "b"], "text"))

    @pytest.mark.parametrize(
        "make",
        [
            lambda triplet: sp.csr_matrix(triplet, shape=(2, 2)),
            lambda triplet: sp.csr_matrix(triplet, shape=(2, 2), dtype=np.int64),
            lambda triplet: sp.coo_matrix(triplet, shape=(2, 2)),
            lambda triplet: sp.coo_matrix(triplet, shape=(2, 2)).toarray(),
        ],
        ids=["csr_float64", "csr_int64", "coo", "dense"],
    )
    def test_no_explicit_zeros(self, make):
        # triplet constructors keep explicitly-supplied zeros; every input is held as float64 CSR
        mat = make(([0.0, 1.0], ([0, 0], [0, 1])))
        fm = FeatureMatrix(mat, ("a", "b"), (0, 2, 0))
        assert fm.data.format == "csr" and fm.data.dtype == np.float64
        assert fm.data.nnz == 1
        assert features.as_matrix(fm).dtype == np.float64
        assert features.as_dense(fm).tolist() == [[0.0, 1.0], [0.0, 0.0]]
        assert fm.select_rows([0]).data.nnz == 1 and fm.select_groups(["indicator"]).n_cols == 2

    def test_caller_matrix_not_mutated(self):
        mat = sp.csr_matrix(([0.0, 1.0], ([0, 0], [0, 1])), shape=(2, 2))
        fm = FeatureMatrix(mat, ("a", "b"), (0, 2, 0))
        assert fm.data.nnz == 1
        assert mat.nnz == 2
        assert mat.data.tolist() == [0.0, 1.0]

    def test_select_groups_missing_raises(self):
        fm = grouped_matrix((np.eye(2), ["a", "b"], "vendor"))
        with pytest.raises(ConfigError):
            fm.select_groups(["text"])

    def test_select_groups_not_adjacent_raises(self):
        fm = grouped_matrix(
            (np.eye(2), ["a", "b"], "vendor"), (np.eye(2), ["c", "d"], "indicator"), (np.eye(2), ["e", "f"], "text")
        )
        with pytest.raises(ConfigError, match="not adjacent"):
            fm.select_groups(["vendor", "text"])

    def test_text_norm_checked_on_the_text_range_only(self):
        vendor = (np.eye(2), ["v0", "v1"], "vendor")
        indicator = (np.array([[3.0], [0.0]]), ["k"], "indicator")  # not a text column: any value passes
        fm = grouped_matrix(vendor, indicator, (np.array([[0.6, 0.8], [0.0, 1.0]]), ["t0", "t1"], "text"))
        assert fm.widths == (2, 1, 2)
        with pytest.raises(ShapeError, match="L2 norm"):
            grouped_matrix(vendor, indicator, (np.array([[0.0, 0.0], [0.6, 0.9]]), ["t0", "t1"], "text"))


class TestIndicatorBlock:
    def test_columns_and_values(self):
        lex = KeywordLexicon(("buffer overflow", "xss"))
        records = [
            _rec(cve_id="CVE-2024-12345", description="a buffer overflow bug"),
            _rec(cve_id=None, description="stored xss"),
        ]
        block = features.indicator_block(records, lex, features.term_table(_NO_TERMS, lex).walk([r.description for r in records]))
        assert block.names == ("has_cve", "buffer overflow", "xss")
        assert block.data.toarray().tolist() == [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


# ---------------------------------------------------------------------------
# The one-pass FeatureBuilder.transform


def _matrix_digest(X: FeatureMatrix) -> str:
    h = hashlib.sha256()
    for arr in (X.data.indptr, X.data.indices, X.data.data):
        h.update(str(arr.dtype).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update("\n".join(X.names).encode())
    h.update("\n".join(X.groups).encode())
    return h.hexdigest()


def _scan_contains(tokens, phrase_tokens) -> bool:
    """Brute-force phrase search: compare the phrase at every position."""
    k = len(phrase_tokens)
    return any(tuple(tokens[i : i + k]) == tuple(phrase_tokens) for i in range(len(tokens) - k + 1))


def _reference_matrix(builder: FeatureBuilder, records) -> tuple[np.ndarray, tuple, tuple]:
    """Dense matrix, names and groups assembled row by row from the per-row functions."""
    enc, lex, model = builder.vendor_encoder, builder.lexicon, builder.tfidf_model
    rows = []
    for r in records:
        flags = keyword_flags(r.description, lex)
        tokens = features.tokenize(r.description)
        assert flags.tolist() == [int(_scan_contains(tokens, features.tokenize(p))) for p in lex.phrases]
        rows.append(
            np.concatenate(
                [
                    encode_vendor(enc, r),
                    [features.cve_flag(r)],
                    flags,
                    features.transform_tfidf(model, r.description).toarray().ravel(),
                ]
            )
        )
    width = len(enc.categories) + 1 + len(lex.phrases) + len(model.vocabulary)
    dense = np.array(rows, dtype=np.float64).reshape(len(records), width)
    names = (
        tuple(f"vendor__{v}" for v in enc.categories)
        + tuple(f"indicator__{p}" for p in ("has_cve",) + lex.phrases)
        + tuple(f"text__{t}" for t in model.names)
    )
    groups = ("vendor",) * len(enc.categories) + ("indicator",) * (1 + len(lex.phrases)) + ("text",) * len(model.vocabulary)
    return dense, names, groups


_WORDS = ("aa", "bb", "cc", "dd", "ee")
_UNSEEN = ("zz", "yy")
_SEPARATORS = (" ", "  ", ", ", "-", "\t", " x ")


def _description(draw, words) -> str:
    tokens = draw(st.lists(st.sampled_from(words), max_size=12))
    out = ""
    for t in tokens:
        out += t + draw(st.sampled_from(_SEPARATORS))
    return draw(st.sampled_from(["", "Advisory: "])) + out.upper() if draw(st.booleans()) else out


@st.composite
def _records(draw, vendors, words, min_size=0, max_size=8):
    n = draw(st.integers(min_size, max_size))
    return [
        DisclosureRecord(
            f"Z{i}",
            draw(st.sampled_from([None, "", "CVE-2024-12345", "CVE-2024-001", "ZDI-CAN-1"])),
            5.0,
            None,
            draw(st.sampled_from(vendors)),
            _description(draw, words),
        )
        for i in range(n)
    ]


_phrases = st.lists(
    st.lists(st.sampled_from(_WORDS + _UNSEEN), min_size=1, max_size=4).map(" ".join),
    min_size=1,
    max_size=6,
    unique=True,
)


class TestOnePassTransform:
    def test_matches_digest_recorded_before_the_rewrite(self, synthetic_dataset):
        # SHA-256 of indptr/indices/data (with dtypes), names and groups as the
        # per-block, per-row featurizer built them before the one-pass rewrite.
        builder = FeatureBuilder().fit(synthetic_dataset.train_records())
        X = builder.transform(synthetic_dataset.test_records())
        assert _matrix_digest(X) == "2077651842331fb662210bb9ae33716eb8226582b4f2d446567072b4add7d3ad"
        trigram = FeatureBuilder(tfidf={"ngram_lo": 1, "ngram_hi": 3, "max_features": 40}).fit(synthetic_dataset.train_records())
        X3 = trigram.transform(synthetic_dataset.test_records())
        assert _matrix_digest(X3) == "f64000c987cf940c0a6842272dbe1c28024ff9fb754b30baa6a3172ff388f575"

    @given(
        train=_records(("A", "B"), _WORDS, min_size=1),
        test=_records(("A", "B", "C"), _WORDS + _UNSEEN),
        phrases=_phrases,
        ngram_range=st.sampled_from([(1, 1), (1, 2), (1, 3)]),
        max_features=st.sampled_from([2, 5, 5000]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_row_by_row_reference_and_mutates_nothing(self, train, test, phrases, ngram_range, max_features):
        lexicon = KeywordLexicon(tuple(phrases))
        tfidf = {"ngram_lo": ngram_range[0], "ngram_hi": ngram_range[1], "max_features": max_features}
        builder = FeatureBuilder(lexicon, tfidf).fit(train)
        before = (
            copy.deepcopy(test),
            lexicon.phrases,
            lexicon.tokens,
            dict(builder.tfidf_model.vocabulary),
            builder.tfidf_model.idf.copy(),
            builder.vendor_encoder.categories,
            builder.names,
        )
        X = builder.transform(test)
        dense, names, groups = _reference_matrix(builder, test)
        assert np.array_equal(features.as_dense(X), dense)
        assert (X.names, X.groups) == (names, groups)
        assert X.data.indices.dtype == np.int32 and X.data.indptr.dtype == np.int32
        assert X.data.has_sorted_indices and X.data.data.all()
        assert test == before[0]
        assert (lexicon.phrases, lexicon.tokens) == before[1:3]
        assert builder.tfidf_model.vocabulary == before[3]
        assert np.array_equal(builder.tfidf_model.idf, before[4])
        assert (builder.vendor_encoder.categories, builder.names) == before[5:]

    def test_overlapping_and_repeated_phrases(self):
        lexicon = KeywordLexicon(("aa bb", "bb cc", "aa bb cc dd", "cc"))
        builder = FeatureBuilder(lexicon).fit([_rec(description="aa bb cc")])
        X = builder.transform([_rec(description="aa bb cc dd aa bb"), _rec(description="bb aa cc")])
        flags = features.as_dense(X.select_groups(["indicator"]))[:, 1:]
        assert flags.tolist() == [[1, 1, 1, 1], [0, 0, 0, 1]]

    def test_empty_batch(self):
        builder = FeatureBuilder().fit([_rec(description="remote code execution")])
        X = builder.transform([])
        assert X.n_rows == 0 and X.names == builder.names


# ---------------------------------------------------------------------------
# The batch helpers against the code they replaced, kept here as oracles


def _tokenize_with_filter(text: str) -> list[str]:
    """The tokenizer before the batch rewrite: every maximal run, then a length filter."""
    return [t for t in re.findall(r"[^\W_]+", text.lower()) if len(t) >= 2]


def _kgram_set_hits(tokens, lexicon: KeywordLexicon) -> list[int]:
    """Keyword search before the batch rewrite: look each phrase up in the set of the row's k-grams."""
    grams = set()
    for k in {len(t) for t in lexicon.tokens}:
        grams.update(zip(*(tokens[i:] for i in range(k))))
    return [i for i, phrase in enumerate(lexicon.tokens) if phrase in grams]


class TestBatchHelpersMatchTheirOracles:
    @given(st.text())
    @settings(max_examples=500, deadline=None)
    def test_tokenize_equals_the_filtered_runs(self, text):
        assert features.tokenize(text) == _tokenize_with_filter(text)

    @pytest.mark.parametrize(
        "tokens, phrase, found",
        [
            (["codes"], "code", False),
            (["remote", "codes", "execution"], "remote code", False),
            (["xcode", "execution"], "code execution", False),
            (["code", "execution", "bug"], "code execution", True),
            (["a1", "bug", "code", "execution"], "code execution", True),
            (["rce"], "rce", True),
            (["rce", "rce", "rce"], "rce", True),
            (["aa", "aa", "bb"], "aa bb", True),
            (["aa", "bb", "aa"], "bb aa bb", False),
            ([], "rce", False),
        ],
        ids=[
            "prefix-of-a-token", "prefix-inside-a-phrase", "suffix-of-a-token", "at-the-start", "at-the-end",
            "whole-row", "repeated-tokens", "after-a-repeat", "overrunning-the-end", "no-tokens",
        ],
    )
    def test_keyword_hits_find_whole_token_runs(self, tokens, phrase, found):
        lexicon = KeywordLexicon((phrase, "unrelated words"))
        expected = [0] if found else []
        assert _scan_contains(tokens, features.tokenize(phrase)) is found
        assert walk_hits(tokens, lexicon) == expected
        assert substring_hits(tokens, lexicon) == expected
        assert _kgram_set_hits(tokens, lexicon) == expected

    @given(
        tokens=st.lists(st.sampled_from(("code", "codes", "ecode", "aa", "aaa", "bb")), max_size=10),
        phrases=st.lists(
            st.lists(st.sampled_from(("code", "codes", "ecode", "aa", "aaa", "bb")), min_size=1, max_size=4).map(" ".join),
            min_size=1,
            max_size=5,
            unique=True,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_keyword_hits_equal_the_scan_and_the_kgram_set(self, tokens, phrases):
        lexicon = KeywordLexicon(tuple(phrases))
        hits = walk_hits(tokens, lexicon)
        assert hits == [i for i, p in enumerate(lexicon.tokens) if _scan_contains(tokens, p)]
        assert hits == _kgram_set_hits(tokens, lexicon) == substring_hits(tokens, lexicon)


def _select_groups_by_column(X: FeatureMatrix, wanted):
    """Group selection before the matrix recorded group widths: an index list over every column's group."""
    wanted = set(wanted)
    missing = wanted - set(X.groups)
    if missing:
        raise ConfigError(f"matrix has no columns in group(s) {sorted(missing)}")
    idx = [j for j, g in enumerate(X.groups) if g in wanted]
    return sp.csr_matrix(X.data[:, idx]), tuple(X.names[j] for j in idx), tuple(X.groups[j] for j in idx)


def _select_rows_by_column(X: FeatureMatrix, indices):
    """Row selection before the matrix recorded group widths, which carried the per-column groups along."""
    return sp.csr_matrix(X.data[indices]), X.names, X.groups


def _parts(X) -> tuple:
    """The CSR arrays with their dtypes, then the names and groups."""
    if isinstance(X, FeatureMatrix):
        X = (X.data, X.names, X.groups)
    mat, names, groups = X
    arrays = tuple((str(a.dtype), a.tobytes()) for a in (mat.indptr, mat.indices, mat.data))
    return mat.shape, arrays, names, groups


@st.composite
def _grouped_matrices(draw):
    """A matrix of up to 6 rows over group widths of 0-3 columns, its text rows L2-normalized."""
    widths = tuple(draw(st.lists(st.integers(0, 3), min_size=3, max_size=3)))
    n, d = draw(st.integers(0, 6)), sum(widths)
    dense = np.array(draw(st.lists(st.sampled_from((0.0, 0.0, 1.0, 2.5)), min_size=n * d, max_size=n * d))).reshape(n, d)
    text = dense[:, d - widths[2] :]
    norms = np.linalg.norm(text, axis=1, keepdims=True)
    text /= np.where(norms == 0, 1.0, norms)
    names = tuple(f"{g}__c{j}" for g, w in zip(features.GROUPS, widths) for j in range(w))
    return FeatureMatrix(sp.csr_matrix(dense), names, widths)


class TestSelectionMatchesItsOracle:
    @given(
        X=_grouped_matrices(),
        wanted=st.sampled_from([("vendor",), ("indicator",), ("text",), ("vendor", "indicator"), ("indicator", "text"), features.GROUPS]),
        rows=st.lists(st.integers(0, 5), max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_range_selection_equals_the_per_column_selection(self, X, wanted, rows):
        rows = np.array([r for r in rows if r < X.n_rows], dtype=np.intp)
        picked = X.select_rows(rows)
        assert _parts(picked) == _parts(_select_rows_by_column(X, rows))
        for M in (X, picked):
            try:
                want = _select_groups_by_column(M, wanted)
            except ConfigError:
                with pytest.raises(ConfigError):
                    M.select_groups(wanted)
                continue
            assert _parts(M.select_groups(wanted)) == _parts(want)


# Terms of a fitted vocabulary with idf weights that differ, so rows of more
# than 128 columns (numpy's pairwise-sum block) can be drawn.
_MANY_WORDS = tuple(f"w{i:03d}" for i in range(300))


def _many_word_model(ngram_range):
    rng = np.random.default_rng(5)
    texts = [" ".join(rng.choice(_MANY_WORDS, size=int(rng.integers(1, 250)))) for _ in range(40)]
    return features.fit_tfidf(texts, ngram_range=ngram_range, max_features=5000)


_MANY_WORD_MODELS = {r: _many_word_model(r) for r in ((1, 1), (1, 2))}


@st.composite
def _token_rows(draw):
    """A row: a prefix of a shuffled vocabulary (up to all of it), then repeats and unseen words."""
    words = draw(st.permutations(_MANY_WORDS))[: draw(st.integers(0, len(_MANY_WORDS)))]
    extra = draw(st.lists(st.sampled_from(_MANY_WORDS[:5] + _UNSEEN), max_size=10))
    return draw(st.permutations(list(words) + extra))


class TestTextBlockBits:
    @given(
        rows=st.lists(st.one_of(_token_rows(), st.lists(st.sampled_from(_UNSEEN), max_size=4)), max_size=6),
        ngram_range=st.sampled_from(sorted(_MANY_WORD_MODELS)),
    )
    @settings(max_examples=150, deadline=None)
    def test_batch_rows_equal_transform_tfidf_bit_for_bit(self, rows, ngram_range):
        model = _MANY_WORD_MODELS[ngram_range]
        block = features.text_block(model, walked(rows, KeywordLexicon.default(), model)).data
        assert block.shape == (len(rows), len(model.idf))
        for i, tokens in enumerate(rows):
            ref = features.transform_tfidf(model, " ".join(tokens))
            a, b = block.indptr[i], block.indptr[i + 1]
            assert block.indices[a:b].tolist() == ref.indices.tolist()
            assert block.data[a:b].tobytes() == ref.data.tobytes()

    def test_a_row_past_the_pairwise_block_and_empty_rows(self):
        # numpy's pairwise sum adds blocks of 128 elements; this row has 300
        model = _MANY_WORD_MODELS[(1, 1)]
        block = features.text_block(model, walked([list(_MANY_WORDS), ["zz"], []], KeywordLexicon.default(), model)).data
        assert np.diff(block.indptr).tolist() == [len(_MANY_WORDS), 0, 0]
        ref = features.transform_tfidf(model, " ".join(_MANY_WORDS))
        assert block.data.tobytes() == ref.data.tobytes()


# ---------------------------------------------------------------------------
# FeatureBuilder.transform against the string path it replaced, bit for bit


def _string_path_block(indptr, indices, values, width) -> sp.csr_matrix:
    return sp.csr_matrix(
        (np.asarray(values, dtype=np.float64), np.asarray(indices, dtype=np.int64), np.asarray(indptr, dtype=np.int64)),
        shape=(len(indptr) - 1, width),
    )


def _string_path_ngrams(tokens, lo, hi) -> list[str]:
    grams = []
    for n in range(lo, hi + 1):
        grams.extend(tokens if n == 1 else map(" ".join, zip(*(tokens[i:] for i in range(n)))))
    return grams


def _string_path_text(model: features.TfidfModel, tokens) -> sp.csr_matrix:
    """The TF-IDF block built from n-gram strings, one vocabulary lookup per n-gram."""
    lo, hi = model.ngram_range
    n, d = len(tokens), len(model.idf)
    grams, ends = [], [0]
    for toks in tokens:
        grams.extend(_string_path_ngrams(toks, lo, hi))
        ends.append(len(grams))
    cols = np.fromiter(map(model.vocabulary.get, grams, itertools.repeat(-1)), dtype=np.int64, count=len(grams))
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(np.asarray(ends, dtype=np.int64)))
    hit = cols >= 0
    keys, counts = np.unique(rows[hit] * d + cols[hit], return_counts=True)
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * d)
    row_nnz = np.diff(indptr)
    cols = keys % d
    vals = counts * model.idf[cols]
    sq = vals * vals
    norms = np.sqrt([np.add.reduce(sq[a:b]) for a, b in itertools.pairwise(indptr.tolist())])
    norms[norms == 0] = 1.0
    return _string_path_block(indptr, cols, vals / np.repeat(norms, row_nnz), d)


def _string_path_indicators(records, lexicon: KeywordLexicon, tokens) -> sp.csr_matrix:
    """The CVE flag, then each phrase found by the substring rule."""
    indptr, indices = [0], []
    for r, toks in zip(records, tokens):
        if features.cve_flag(r):
            indices.append(0)
        indices.extend(1 + i for i in substring_hits(toks, lexicon))
        indptr.append(len(indices))
    return _string_path_block(indptr, indices, np.ones(len(indices)), 1 + len(lexicon.phrases))


def _string_path_vendor(encoder: features.VendorEncoder, records) -> sp.csr_matrix:
    indptr, indices = [0], []
    for r in records:
        j = encoder.index.get(r.vendor)
        if j is not None:
            indices.append(j)
        indptr.append(len(indices))
    return _string_path_block(indptr, indices, np.ones(len(indices)), len(encoder.categories))


def _string_path_transform(builder: FeatureBuilder, records) -> FeatureMatrix:
    """Three per-block CSR matrices, then ``sp.hstack``, as the featurizer assembled them before the term table."""
    tokens = [features.tokenize(r.description) for r in records]
    blocks = [
        _string_path_vendor(builder.vendor_encoder, records),
        _string_path_indicators(records, builder.lexicon, tokens),
        _string_path_text(builder.tfidf_model, tokens),
    ]
    widths = tuple(b.shape[1] for b in blocks)
    return FeatureMatrix(sp.hstack(blocks, format="csr"), builder.names, widths)


# Terms no n-gram can be: uppercase, two spaces, an empty or one-letter token, a tab
_ODD_TERMS = ("AA", "Aa bb", "aa  bb", " aa", "aa ", "", "a", "aa b", "aa\tbb")


@st.composite
def _vocabularies(draw, ngram_range):
    """A loaded vocabulary: n-grams of up to two tokens past ``ngram_range``'s top, sometimes odd terms, idf of any sign."""
    hi = ngram_range[1]
    grams = st.lists(st.sampled_from(_WORDS + _UNSEEN[:1]), min_size=1, max_size=hi + 2).map(" ".join)
    terms = draw(st.lists(st.one_of(grams, grams, grams, st.sampled_from(_ODD_TERMS)), max_size=30, unique=True))
    columns = draw(st.permutations(range(len(terms))))
    weights = st.one_of(st.floats(0.05, 20.0), st.sampled_from([1.0, 0.0, -1.5, 1e-300]))
    idf = np.array(draw(st.lists(weights, min_size=len(terms), max_size=len(terms))), dtype=np.float64)
    return features.TfidfModel(dict(zip(terms, columns)), idf, ngram_range)


@st.composite
def _lexicons(draw, vocabulary):
    """1-6 phrases of 1-4 tokens, some of them terms of ``vocabulary``."""
    words = st.lists(st.sampled_from(_WORDS + _UNSEEN), min_size=1, max_size=4).map(" ".join)
    terms = [t for t in vocabulary if features.tokenize(t) == t.split(" ") and len(t.split(" ")) <= 4]
    phrases = st.one_of(words, st.sampled_from(terms)) if terms else words
    return KeywordLexicon(tuple(draw(st.lists(phrases, min_size=1, max_size=6, unique=True))))


@st.composite
def _fitted_builders(draw):
    ngram_range = draw(st.sampled_from([(1, 1), (1, 2), (1, 3), (1, 4), (2, 3)]))
    model = draw(_vocabularies(ngram_range))
    lexicon = draw(_lexicons(model.vocabulary))
    encoder = features.VendorEncoder(tuple(sorted(draw(st.sets(st.sampled_from("ABC"), max_size=3)))))
    tfidf = {"ngram_lo": ngram_range[0], "ngram_hi": ngram_range[1], "max_features": 5000}
    return FeatureBuilder(lexicon, tfidf).set_fitted(model, encoder)


class TestTransformEqualsTheStringPath:
    @given(
        builder=_fitted_builders(),
        records=_records(("A", "B", "D"), _WORDS + _UNSEEN, max_size=16),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_array_and_dtype_and_every_chunking(self, builder, records):
        whole = builder.transform(records)
        assert _parts(whole) == _parts(_string_path_transform(builder, records))
        dense = features.as_dense(whole)
        for size in {1, 2, 7, len(records)} - {0}:
            for a in range(0, len(records), size):
                chunk = builder.transform(records[a : a + size])
                assert _parts(chunk) == _parts(_string_path_transform(builder, records[a : a + size]))
                assert features.as_dense(chunk).tobytes() == dense[a : a + size].tobytes()

    def test_rows_without_tokens_and_an_empty_vocabulary(self):
        builder = FeatureBuilder(KeywordLexicon(("aa bb",))).set_fitted(_NO_TERMS, features.VendorEncoder(("V",)))
        records = [_rec(description=""), _rec(description="a, b; c"), _rec(description="aa bb", cve_id="CVE-2024-12345")]
        X = builder.transform(records)
        assert _parts(X) == _parts(_string_path_transform(builder, records))
        assert features.as_dense(X).tolist() == [[1, 0, 0], [1, 0, 0], [1, 1, 1]]
        assert _parts(builder.transform([])) == _parts(_string_path_transform(builder, []))


# ---------------------------------------------------------------------------
# The run splitter and the walk over descriptions against the token-list code they replaced

_ORACLE_TOKEN_RE = re.compile(r"[^\W_]{2,}", re.UNICODE)


def _findall_tokens(text: str) -> list[str]:
    """The tokenizer before the run splitter: the runs of length >= 2 of one regex over the lowercased text."""
    return _ORACLE_TOKEN_RE.findall(text.lower())


def _token_list_walk(model: features.TfidfModel, lexicon: KeywordLexicon, tokens) -> tuple:
    """The term table and walk before the run splitter: str-keyed ids over token lists, as arrays."""
    lo, hi = model.ngram_range
    paths = {}
    for term, j in model.vocabulary.items():
        toks = tuple(term.split(" "))
        if lo <= len(toks) <= hi:
            paths[toks] = (j, -1)
    for i, toks in enumerate(lexicon.tokens):
        paths[toks] = (paths.get(toks, (-1, -1))[0], i)
    ids = {t: i for i, t in enumerate(dict.fromkeys([p[0] for p in paths] + [t for p in paths for t in p]))}
    unknown = len(ids)
    levels, entries, parent = [], [], {(): 0}
    for k in range(max(map(len, paths))):
        prefixes = sorted({(parent[p[:k]] * (unknown + 1) + ids[p[k]], p[: k + 1]) for p in paths if len(p) > k})
        levels.append(np.array([key for key, _ in prefixes], dtype=np.int64))
        entries += [paths.get(p, (-1, -1)) for _, p in prefixes]
        parent = {p: i for i, (_, p) in enumerate(prefixes)}
    text, flag = np.array(entries, dtype=np.int64).T
    offsets = tuple(itertools.accumulate(map(len, levels[:-1]), initial=0))
    n = len(tokens)
    lengths = np.fromiter(map(len, tokens), dtype=np.int64, count=n)
    ended = itertools.chain.from_iterable(itertools.chain.from_iterable(zip(tokens, itertools.repeat((None,)))))
    seq = np.fromiter(map(ids.get, ended, itertools.repeat(unknown)), dtype=np.int64, count=int(lengths.sum()) + n)
    starts = np.flatnonzero(seq < len(levels[0]))
    node = seq[starts]
    at, nodes = [starts], [node]
    for k in range(1, len(levels)):
        key = node * (unknown + 1) + seq[starts + k]
        node = np.searchsorted(levels[k], key)
        hit = levels[k].take(node, mode="clip") == key
        starts, node = starts[hit], node[hit]
        at.append(starts)
        nodes.append(node + offsets[k])
    rows = np.repeat(np.arange(n), lengths + 1)[np.concatenate(at)]
    nodes = np.concatenate(nodes)
    text, flag = text[nodes], flag[nodes]
    return rows[text >= 0], text[text >= 0], rows[flag >= 0], flag[flag >= 0]


# Kelvin sign (lowercases to ASCII k), dotted capital I (to i and a combining dot), final sigma,
# a superscript digit, and characters that break a run: no-break space, em dash, a combining dot,
# an emoji and a lone surrogate
_ODD_CHARS = ("é", "ß", "Σ", "\u0130", "\u212a", "²", "\u00a0", "—", "\u0307", "\U0001f600", "\ud800")
_ASCII_PIECES = ("aa", "AA", "Bb", "bb", "a", "K", "k", "9", "x1", "ab_cd", "_", " ", "  ", "-", ",", "!", "\t", "\n", "\x00")
_ODD_PIECES = _ODD_CHARS + ("éa", "ÉA", "ßa", "a²", "xΣ", "σς", "\u212ak", "\u0130x")


def _texts(pieces):
    return st.lists(st.sampled_from(pieces), max_size=14).map("".join)


_ANY_TEXT = st.one_of(_texts(_ASCII_PIECES), _texts(_ASCII_PIECES + _ODD_PIECES), st.just(""))
# TF-IDF terms: one-character, uppercase and non-ASCII ones among them
_TERM_TOKENS = ("aa", "bb", "kk", "x1", "a", "k", "9", "AA", "é", "éa", "ßa", "a²", "xς", "σς", "i", "i\u0307x")
# Phrases, lowercased by the lexicon; each of their tokens has two or more characters
_PHRASE_TOKENS = ("aa", "AA", "bb", "kk", "x1", "éa", "ÉA", "ßa", "a²", "xς", "σς")


@st.composite
def _odd_vocabularies(draw):
    ngram_range = draw(st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 3)]))
    grams = st.lists(st.sampled_from(_TERM_TOKENS), min_size=1, max_size=3).map(" ".join)
    terms = draw(st.lists(grams, max_size=20, unique=True))
    columns = draw(st.permutations(range(len(terms))))
    return features.TfidfModel(dict(zip(terms, columns)), np.ones(len(terms)), ngram_range)


_ODD_LEXICONS = st.lists(
    st.lists(st.sampled_from(_PHRASE_TOKENS), min_size=1, max_size=4).map(" ".join),
    min_size=1,
    max_size=5,
    unique_by=lambda p: tuple(features.tokenize(p)),
).map(lambda phrases: KeywordLexicon(tuple(phrases)))


class TestRunSplitterMatchesItsOracles:
    @given(_ANY_TEXT)
    @settings(max_examples=500, deadline=None)
    def test_tokenize_equals_the_regex_over_the_lowercased_text(self, text):
        assert features.tokenize(text) == _findall_tokens(text)

    @pytest.mark.parametrize(
        "text, tokens",
        [
            ("\u212aB x", ["kb"]),
            ("\u0130x", []),
            ("\u0130xy", ["xy"]),
            ("ΑΣ a²", ["ας", "a²"]),
            ("ab\ud800cd", ["ab", "cd"]),
            ("aa\x00bb_cc", ["aa", "bb", "cc"]),
        ],
        ids=["kelvin-to-ascii", "dotted-i", "dotted-i-then-run", "final-sigma", "lone-surrogate", "nul-and-underscore"],
    )
    def test_both_branches_on_chosen_texts(self, text, tokens):
        assert features.tokenize(text) == _findall_tokens(text) == tokens

    @given(model=_odd_vocabularies(), lexicon=_ODD_LEXICONS, texts=st.lists(_ANY_TEXT, max_size=8))
    @settings(max_examples=400, deadline=None)
    def test_walk_of_descriptions_equals_the_token_list_walk(self, model, lexicon, texts):
        found = features.term_table(model, lexicon).walk(texts)
        want = _token_list_walk(model, lexicon, [_findall_tokens(t) for t in texts])
        got = (found.text_rows, found.text_cols, found.flag_rows, found.flags)
        assert found.n_rows == len(texts)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
