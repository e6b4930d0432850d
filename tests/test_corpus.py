"""Parsing, cleaning, labeling, and stratified splitting."""

import io
from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevtriage import corpus
from sevtriage.errors import LabelError, RowError, SchemaError, StratificationError, TriageError

HEADER = "zdi_id,cve_id,cvss,published,vendor,description\n"


def _rec(zdi_id="ZDI-1", cve_id=None, cvss=7.5, published=None, vendor="V", description="d"):
    return corpus.DisclosureRecord(zdi_id, cve_id, cvss, published, vendor, description)


class TestParseCsv:
    def test_basic_rows(self):
        data = HEADER + 'Z-1,CVE-2024-0001,9.8,2024-01-15,Adobe,"Remote, code execution"\n'
        records = corpus.parse_csv(data.encode())
        assert len(records) == 1
        r = records[0]
        assert r.zdi_id == "Z-1"
        assert r.cvss == 9.8
        assert r.published == date(2024, 1, 15)
        assert r.description == "Remote, code execution"

    def test_header_only_gives_empty_list(self):
        assert corpus.parse_csv(HEADER.encode()) == []

    def test_unparseable_cvss_is_missing_never_zero(self):
        for cell in ("N/A", "", "high", "inf", "nan"):
            data = HEADER + f"Z-1,,{cell},2024-01-01,V,d\n"
            (r,) = corpus.parse_csv(data.encode())
            assert r.cvss is None

    def test_schema_mapping(self):
        data = "id,cve,score,date,company,text\nZ-1,,5.0,2024-01-01,V,hello\n"
        schema = {"zdi_id": "id", "cve_id": "cve", "cvss": "score", "published": "date", "vendor": "company", "description": "text"}
        (r,) = corpus.parse_csv(data.encode(), schema)
        assert r.zdi_id == "Z-1" and r.description == "hello"

    def test_missing_mapped_column_is_schema_error(self):
        with pytest.raises(SchemaError):
            corpus.parse_csv(b"zdi_id,cvss\nZ,5\n")

    def test_cvss_column_optional_only_when_not_required(self):
        data = b"zdi_id,cve_id,published,vendor,description\nZ-1,,2024-01-01,V,d\n"
        with pytest.raises(SchemaError, match="'cvss'"):
            corpus.parse_csv(data)
        (r,) = corpus.parse_csv(data, require_cvss=False)
        assert r.cvss is None and r.zdi_id == "Z-1" and r.description == "d"

    def test_short_row_is_row_error_with_line_number(self):
        data = HEADER + "Z-1,,5.0,2024-01-01,V,d\nZ-2,,6.0\n"
        with pytest.raises(RowError) as exc:
            corpus.parse_csv(data.encode())
        assert exc.value.line_no == 3

    def test_row_error_counts_physical_lines_of_multiline_cells(self):
        data = HEADER + 'Z-1,,5.0,2024-01-01,V,"two\nlines"\nZ-2,,6.0\n'
        with pytest.raises(RowError) as exc:
            corpus.parse_csv(data.encode())
        assert exc.value.line_no == 4

    def test_empty_identifier_is_row_error(self):
        data = HEADER + ",,5.0,2024-01-01,V,d\n"
        with pytest.raises(RowError):
            corpus.parse_csv(data.encode())

    def test_accepts_binary_stream(self):
        data = io.BytesIO((HEADER + "Z-1,,5.0,2024-01-01,V,d\n").encode())
        assert len(corpus.parse_csv(data)) == 1

    def test_month_name_dates_and_unparseable_dates(self):
        data = HEADER + 'Z-1,,5.0,"January 20, 2024",V,d\nZ-2,,5.0,someday,V,d\n'
        records = corpus.parse_csv(data.encode())
        assert records[0].published == date(2024, 1, 20)
        assert records[1].published is None  # kept, date is not a model feature

    def test_utf8_bom_before_header_is_skipped(self):
        data = b"\xef\xbb\xbf" + (HEADER + "Z-1,,5.0,2024-01-01,V,d\n").encode()
        (r,) = corpus.parse_csv(data)
        assert r.zdi_id == "Z-1"

    def test_invalid_utf8_is_row_error_naming_the_line(self):
        data = (HEADER + "Z-1,,5.0,2024-01-01,V,d\n").encode() + b"Z-2,,5.0,2024-01-01,V,bad \xff byte\n"
        with pytest.raises(RowError) as exc:
            corpus.parse_csv(data)
        assert exc.value.line_no == 3
        assert "0xff" in str(exc.value)

    def test_invalid_utf8_after_a_bom_names_its_line_and_byte(self):
        data = b"\xef\xbb\xbf" + (HEADER + "Z-1,,5.0,2024-01-01,V,d\n").encode() + b"\xff-2,,5.0,2024-01-01,V,d\n"
        with pytest.raises(RowError) as exc:
            corpus.parse_csv(data)
        assert exc.value.line_no == 3
        assert "0xff" in str(exc.value)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=300))
    def test_arbitrary_bytes_give_records_or_triage_error(self, blob):
        for data in (blob, HEADER.encode() + blob):
            try:
                records = corpus.parse_csv(data)
            except TriageError:
                continue
            assert all(isinstance(r, corpus.DisclosureRecord) for r in records)


def _parse_date_by_strptime(raw: str):
    """Date parsing before the ISO fast path: each format by strptime, then fromisoformat."""
    raw = raw.strip()
    if not raw:
        return None
    for fmt in ("%Y-%m-%d", "%B %d, %Y", "%b %d, %Y"):
        try:
            return datetime.strptime(raw, fmt).date()
        except ValueError:
            continue
    try:
        return datetime.fromisoformat(raw).date()
    except ValueError:
        return None


class TestParseDate:
    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            st.from_regex(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", fullmatch=True),
            st.from_regex(r"[0-9]{4}-(0[0-9]|1[0-3])-([0-2][0-9]|3[0-2])", fullmatch=True),
            st.dates().map(date.isoformat),
        ),
        st.sampled_from(["", " ", "\t", "  \n"]),
        st.sampled_from(["", " ", "T00:00", "T12:30:00"]),
    )
    def test_iso_days_equal_the_strptime_chain(self, day, pad, tail):
        raw = pad + day + tail + pad
        parsed = corpus._parse_date(raw)
        expected = _parse_date_by_strptime(raw)
        assert parsed == expected and type(parsed) is type(expected)

    @pytest.mark.parametrize(
        "raw",
        ["2024-02-29", "2023-02-29", "2024-13-01", "2024-00-10", "2024-04-31", "0000-01-01", "0001-01-01", "9999-12-31",
         " 2024-05-01 ", "May 01, 2024", "2024-05-01T08:00:00"],
    )
    def test_edge_days_equal_the_strptime_chain(self, raw):
        assert corpus._parse_date(raw) == _parse_date_by_strptime(raw)


class TestClean:
    def test_drops_missing_cvss(self):
        records = [_rec("A"), _rec("B", cvss=None), _rec("C")]
        assert [r.zdi_id for r in corpus.clean(records)] == ["A", "C"]

    def test_duplicate_ids_keep_first(self):
        records = [_rec("A", vendor="first"), _rec("A", vendor="second"), _rec("B")]
        cleaned = corpus.clean(records)
        assert [r.zdi_id for r in cleaned] == ["A", "B"]
        assert cleaned[0].vendor == "first"

    def test_idempotent(self):
        records = [_rec("A"), _rec("B", cvss=None), _rec("A"), _rec("C")]
        once = corpus.clean(records)
        assert corpus.clean(once) == once

    def test_order_preserved(self):
        records = [_rec(f"R{i}") for i in (5, 3, 9, 1)]
        assert [r.zdi_id for r in corpus.clean(records)] == ["R5", "R3", "R9", "R1"]


class TestLabel:
    def test_boundary_inclusive(self):
        assert corpus.label([_rec(cvss=7.0)]).tolist() == [1]

    def test_below_threshold(self):
        assert corpus.label([_rec(cvss=6.9)]).tolist() == [0]

    def test_maximum(self):
        assert corpus.label([_rec(cvss=10.0)]).tolist() == [1]

    def test_missing_cvss_raises(self):
        with pytest.raises(LabelError):
            corpus.label([_rec(cvss=None)])

    def test_matches_threshold_rule_exactly(self):
        records = [_rec(f"R{i}", cvss=c) for i, c in enumerate((0.0, 3.3, 6.99, 7.0, 7.01, 9.9))]
        labels = corpus.label(records)
        assert labels.tolist() == [int(r.cvss >= 7.0) for r in records]


class TestStratifiedSplit:
    def _dataset(self, n_pos, n_neg):
        records = [_rec(f"P{i}", cvss=8.0) for i in range(n_pos)] + [_rec(f"N{i}", cvss=4.0) for i in range(n_neg)]
        return records, corpus.label(records)

    def test_test_size_is_rounded_fraction(self):
        records, labels = self._dataset(300, 115)
        ds = corpus.stratified_split(records, labels, 0.2, seed=1)
        assert len(ds.test_idx) == 83  # round(415 * 0.2)

    def test_small_balanced_case(self):
        records, labels = self._dataset(5, 5)
        ds = corpus.stratified_split(records, labels, 0.2, seed=3)
        assert len(ds.test_idx) == 2
        assert ds.test_labels().sum() == 1  # one of each class

    def test_same_seed_same_indices(self):
        records, labels = self._dataset(30, 12)
        a = corpus.stratified_split(records, labels, 0.25, seed=7)
        b = corpus.stratified_split(records, labels, 0.25, seed=7)
        assert np.array_equal(a.test_idx, b.test_idx)
        assert np.array_equal(a.train_idx, b.train_idx)

    def test_partition_property(self):
        records, labels = self._dataset(17, 9)
        for seed in range(5):
            ds = corpus.stratified_split(records, labels, 0.3, seed=seed)
            combined = np.sort(np.concatenate([ds.train_idx, ds.test_idx]))
            assert np.array_equal(combined, np.arange(len(records)))

    def test_single_class_raises(self):
        records, labels = self._dataset(10, 0)
        with pytest.raises(StratificationError):
            corpus.stratified_split(records, labels, 0.2, seed=0)

    @given(
        n_pos=st.integers(min_value=2, max_value=60),
        n_neg=st.integers(min_value=2, max_value=60),
        fraction=st.sampled_from([0.1, 0.2, 0.25, 0.3, 0.5]),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_class_balance_survives_split(self, n_pos, n_neg, fraction, seed):
        records, labels = self._dataset(n_pos, n_neg)
        ds = corpus.stratified_split(records, labels, fraction, seed=seed)
        test_rate = float(np.mean(ds.test_labels()))
        train_rate = float(np.mean(ds.train_labels()))
        assert abs(train_rate - test_rate) <= 1.0 / len(ds.test_idx) + 1e-12


class TestRoundTrips:
    def test_csv_roundtrip(self, tmp_path):
        records = [_rec("A", cve_id="CVE-2024-1000", published=date(2024, 2, 2)), _rec("B")]
        path = tmp_path / "out.csv"
        corpus.write_records_csv(records, path)
        with open(path, "rb") as fh:
            back = corpus.parse_csv(fh)
        assert [r.zdi_id for r in back] == ["A", "B"]
        assert back[0].cve_id == "CVE-2024-1000"
        assert back[0].published == date(2024, 2, 2)

    def test_jsonl_roundtrip(self, tmp_path):
        records = [_rec("A"), _rec("B", cvss=3.2)]
        path = tmp_path / "out.jsonl"
        corpus.write_records_jsonl(records, path)
        import json

        def read(line):
            d = json.loads(line)
            published = date.fromisoformat(d["published"]) if d["published"] else None
            return corpus.DisclosureRecord(**{**d, "published": published})

        with open(path) as fh:
            back = [read(line) for line in fh]
        assert back == records
