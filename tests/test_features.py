"""Tokenizer, indicators, TF-IDF (against a hand oracle), assembly, and
the one-pass featurizer against its row-at-a-time reference."""

import copy
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevtriage import features
from sevtriage.corpus import DisclosureRecord
from sevtriage.errors import ConfigError, FitError, ShapeError
from sevtriage.features import FeatureMatrix, KeywordLexicon
from sevtriage.pipelines import FeatureBuilder, TfidfConfig


def _rec(cve_id=None, vendor="V", description=""):
    return DisclosureRecord("Z", cve_id, 5.0, None, vendor, description)


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
        flags = features.keyword_flags("allows remote code execution on affected systems", lex)
        assert flags[lex.phrases.index("remote code execution")] == 1

    def test_empty_description_all_zero(self):
        assert not features.keyword_flags("", KeywordLexicon.default()).any()

    def test_case_and_whitespace_normalized(self):
        lex = KeywordLexicon(("buffer overflow",))
        assert features.keyword_flags("buffer  OVERFLOW", lex).tolist() == [1]

    def test_phrase_must_be_contiguous(self):
        lex = KeywordLexicon(("remote code",))
        assert features.keyword_flags("remote unprivileged code", lex).tolist() == [0]

    @given(st.sampled_from(["Buffer Overflow here", "buffer\toverflow", "x BUFFER   overflow y"]))
    def test_invariant_to_case_and_spacing(self, text):
        lex = KeywordLexicon(("buffer overflow",))
        assert features.keyword_flags(text, lex).tolist() == [1]

    def test_lexicon_validation(self):
        with pytest.raises(ConfigError):
            KeywordLexicon(())
        with pytest.raises(ConfigError):
            KeywordLexicon(("dup", "dup"))
        with pytest.raises(ConfigError):
            KeywordLexicon(("one two three four five",))


class TestKeywordFrequencies:
    def test_counts_records_not_occurrences(self):
        lex = KeywordLexicon(("xss", "rce"))
        descriptions = ["xss and xss again", "xss", "xss"]
        assert features.keyword_frequencies(descriptions, lex)[0] == ("xss", 3)

    def test_top_k_clamps(self):
        lex = KeywordLexicon(("xss", "rce"))
        assert len(features.keyword_frequencies(["xss rce"], lex, top_k=10)) == 2

    def test_ties_alphabetical(self):
        lex = KeywordLexicon(("zz", "aa"))
        ranked = features.keyword_frequencies(["aa zz"], lex)
        assert ranked == [("aa", 1), ("zz", 1)]


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
        assert model.terms == sorted(ORACLE_IDF)
        for term, expected in ORACLE_IDF.items():
            assert model.idf[model.vocabulary[term]] == pytest.approx(expected, abs=1e-12)

    def test_rows_match_hand_oracle(self):
        model = features.fit_tfidf(ORACLE_DOCS, ngram_range=(1, 1), max_features=100)
        for doc, expected in zip(ORACLE_DOCS, ORACLE_ROWS):
            row = features.transform_tfidf(model, doc).toarray().ravel()
            assert np.allclose(row, expected, atol=1e-12)

    def test_bigram_rows_match_hand_oracle(self):
        model = features.fit_tfidf(ORACLE_DOCS, ngram_range=(1, 2), max_features=100)
        assert model.terms == sorted(ORACLE_BIGRAM_IDF)
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
        assert model.terms == ["aa", "cc"]  # counts: aa=3, cc=2, bb=dd=1

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
        assert features.encode_vendor(enc, _rec(vendor="B")).tolist() == [0.0, 1.0]

    def test_unseen_vendor_all_zero(self):
        enc = features.fit_vendor([_rec(vendor="A"), _rec(vendor="B")])
        assert features.encode_vendor(enc, _rec(vendor="C")).tolist() == [0.0, 0.0]

    def test_sum_in_zero_one(self):
        enc = features.fit_vendor([_rec(vendor=v) for v in "ABCD"])
        for vendor in ("A", "D", "unknown"):
            assert features.encode_vendor(enc, _rec(vendor=vendor)).sum() in (0.0, 1.0)


class TestAssemble:
    def _block(self, arr, group, prefix="c"):
        arr = np.asarray(arr, dtype=float)
        return FeatureMatrix.from_dense(arr, [f"{prefix}{j}" for j in range(arr.shape[1])], group)

    def test_widths_add(self):
        a = self._block(np.ones((4, 3)), "vendor")
        b = self._block(np.ones((4, 5)), "indicator")
        assert features.assemble([a, b]).n_cols == 8

    def test_single_block_identity(self):
        a = self._block(np.arange(12).reshape(3, 4), "vendor")
        out = features.assemble([a])
        assert np.array_equal(out.to_dense(), a.to_dense())
        assert out.names == tuple(f"vendor__c{j}" for j in range(4))

    def test_row_mismatch_raises(self):
        a = self._block(np.ones((10, 2)), "vendor")
        b = self._block(np.ones((9, 2)), "indicator")
        with pytest.raises(ShapeError):
            features.assemble([a, b])

    def test_group_order_canonical(self):
        text = self._block(np.full((2, 2), 0.5), "text", "t")
        vendor = self._block(np.ones((2, 1)), "vendor", "v")
        out = features.assemble([text, vendor])
        assert out.groups == ("vendor", "text", "text")

    def test_associative_in_column_content(self):
        a = self._block(np.random.default_rng(0).random((3, 2)), "vendor", "a")
        b = self._block(np.random.default_rng(1).random((3, 3)), "indicator", "b")
        c = self._block(np.random.default_rng(2).random((3, 2)) / 2.0, "text", "cc")
        nested = features.assemble([features.assemble([a, b]), c])
        flat = features.assemble([a, b, c])
        assert nested.names == flat.names
        assert nested.groups == flat.groups
        assert np.array_equal(nested.to_dense(), flat.to_dense())


class TestFeatureMatrix:
    def test_text_norm_invariant_enforced(self):
        with pytest.raises(ShapeError):
            FeatureMatrix.from_dense(np.array([[2.0, 2.0]]), ["a", "b"], "text")

    def test_no_explicit_zeros(self):
        import scipy.sparse as sp

        # triplet constructor keeps explicitly-supplied zeros
        mat = sp.csr_matrix(([0.0, 1.0], ([0, 0], [0, 1])), shape=(2, 2))
        assert mat.nnz == 2
        fm = FeatureMatrix.from_csr(mat, ["a", "b"], "indicator")
        assert fm.data.nnz == 1

    def test_caller_matrix_not_mutated(self):
        import scipy.sparse as sp

        mat = sp.csr_matrix(([0.0, 1.0], ([0, 0], [0, 1])), shape=(2, 2))
        fm = FeatureMatrix(mat, ("a", "b"), ("indicator", "indicator"))
        assert fm.data.nnz == 1
        assert mat.nnz == 2
        assert mat.data.tolist() == [0.0, 1.0]

    def test_select_groups_missing_raises(self):
        fm = FeatureMatrix.from_dense(np.eye(2), ["a", "b"], "vendor")
        with pytest.raises(ConfigError):
            fm.select_groups(["text"])


class TestIndicatorBlock:
    def test_columns_and_values(self):
        lex = KeywordLexicon(("buffer overflow", "xss"))
        records = [
            _rec(cve_id="CVE-2024-12345", description="a buffer overflow bug"),
            _rec(cve_id=None, description="stored xss"),
        ]
        block = features.indicator_block(records, lex, [features.tokenize(r.description) for r in records])
        assert block.names == ("has_cve", "buffer overflow", "xss")
        assert block.to_dense().tolist() == [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


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
        flags = features.keyword_flags(r.description, lex)
        tokens = features.tokenize(r.description)
        assert flags.tolist() == [int(_scan_contains(tokens, features.tokenize(p))) for p in lex.phrases]
        rows.append(
            np.concatenate(
                [
                    features.encode_vendor(enc, r),
                    [features.cve_flag(r)],
                    flags,
                    features.transform_tfidf(model, r.description).toarray().ravel(),
                ]
            )
        )
    width = len(enc.categories) + 1 + len(lex) + len(model.vocabulary)
    dense = np.array(rows, dtype=np.float64).reshape(len(records), width)
    names = (
        tuple(f"vendor__{v}" for v in enc.categories)
        + tuple(f"indicator__{p}" for p in ("has_cve",) + lex.phrases)
        + tuple(f"text__{t}" for t in model.terms)
    )
    groups = ("vendor",) * len(enc.categories) + ("indicator",) * (1 + len(lex)) + ("text",) * len(model.vocabulary)
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
def _records(draw, vendors, words, min_size=0):
    n = draw(st.integers(min_size, 8))
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
        trigram = FeatureBuilder(tfidf=TfidfConfig((1, 3), 40)).fit(synthetic_dataset.train_records())
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
        builder = FeatureBuilder(lexicon, TfidfConfig(ngram_range, max_features)).fit(train)
        before = (
            copy.deepcopy(test),
            lexicon.phrases,
            lexicon.tokens,
            dict(builder.tfidf_model.vocabulary),
            builder.tfidf_model.idf.copy(),
            builder.vendor_encoder.categories,
            builder.columns,
        )
        X = builder.transform(test)
        dense, names, groups = _reference_matrix(builder, test)
        assert np.array_equal(X.to_dense(), dense)
        assert (X.names, X.groups) == (names, groups)
        assert X.data.indices.dtype == np.int32 and X.data.indptr.dtype == np.int32
        assert X.data.has_sorted_indices and X.data.data.all()
        assert test == before[0]
        assert (lexicon.phrases, lexicon.tokens) == before[1:3]
        assert builder.tfidf_model.vocabulary == before[3]
        assert np.array_equal(builder.tfidf_model.idf, before[4])
        assert (builder.vendor_encoder.categories, builder.columns) == before[5:]

    def test_overlapping_and_repeated_phrases(self):
        lexicon = KeywordLexicon(("aa bb", "bb cc", "aa bb cc dd", "cc"))
        builder = FeatureBuilder(lexicon).fit([_rec(description="aa bb cc")])
        X = builder.transform([_rec(description="aa bb cc dd aa bb"), _rec(description="bb aa cc")])
        flags = X.select_groups(["indicator"]).to_dense()[:, 1:]
        assert flags.tolist() == [[1, 1, 1, 1], [0, 0, 0, 1]]

    def test_empty_batch(self):
        builder = FeatureBuilder().fit([_rec(description="remote code execution")])
        X = builder.transform([])
        assert X.n_rows == 0 and X.names == builder.columns.names
