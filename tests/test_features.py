"""Tokenizer, indicators, TF-IDF (against a hand oracle), and assembly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevtriage import features
from sevtriage.corpus import DisclosureRecord
from sevtriage.errors import ConfigError, FitError, ShapeError
from sevtriage.features import FeatureMatrix, KeywordLexicon


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
        block = features.indicator_block(records, lex)
        assert block.names == ("has_cve", "buffer overflow", "xss")
        assert block.to_dense().tolist() == [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
