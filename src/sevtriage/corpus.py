"""Ingest, clean, label, and split disclosure records.

All functions here are pure: they take immutable inputs and return new
objects, so they are safe to call from multiple threads.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from datetime import date, datetime
from typing import BinaryIO, Iterable, Mapping, Sequence

import numpy as np

from .errors import LabelError, RowError, SchemaError, ShapeError, StratificationError
from .seeds import substream

FIELDS = ("zdi_id", "cve_id", "cvss", "published", "vendor", "description")

HIGH_SEVERITY_THRESHOLD = 7.0

_DATE_FORMATS = ("%Y-%m-%d", "%B %d, %Y", "%b %d, %Y")
_ISO_DAY_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
# a time of day after an ISO day and "T" or a space: HH[:MM[:SS[.ffffff]]], then Z or a +HH:MM offset
_ISO_TIME_RE = re.compile(r"([01][0-9]|2[0-3])(:[0-5][0-9](:[0-5][0-9](\.[0-9]{1,6})?)?)?(Z|[+-]([01][0-9]|2[0-3]):[0-5][0-9])?")


@dataclass(frozen=True)
class DisclosureRecord:
    """One advisory row from a disclosure feed."""

    zdi_id: str
    cve_id: str | None
    cvss: float | None
    published: date | None
    vendor: str
    description: str

    def to_dict(self) -> dict:
        return {
            "zdi_id": self.zdi_id,
            "cve_id": self.cve_id,
            "cvss": self.cvss,
            "published": self.published.isoformat() if self.published else None,
            "vendor": self.vendor,
            "description": self.description,
        }

    def cells(self) -> list:
        """The record's CSV cells in ``FIELDS`` order, a missing value as an empty cell."""
        return ["" if v is None else v for v in map(self.to_dict().get, FIELDS)]


@dataclass(frozen=True)
class LabeledDataset:
    """Records with binary high-severity labels and a train/test partition."""

    records: tuple[DisclosureRecord, ...]
    labels: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        from .features import as_labels  # features imports this module
        object.__setattr__(self, "labels", as_labels(self.labels, len(self.records), "labels"))
        overlap = np.intersect1d(self.train_idx, self.test_idx)
        if overlap.size:
            raise ShapeError("train and test index sets overlap")
        if len(self.train_idx) + len(self.test_idx) != len(self.records):
            raise ShapeError("train/test indices do not partition the dataset")

    def train_records(self) -> list[DisclosureRecord]:
        return [self.records[i] for i in self.train_idx]

    def test_records(self) -> list[DisclosureRecord]:
        return [self.records[i] for i in self.test_idx]

    def train_labels(self) -> np.ndarray:
        return self.labels[self.train_idx]

    def test_labels(self) -> np.ndarray:
        return self.labels[self.test_idx]


def _parse_cvss(raw: str) -> float | None:
    """Parse a CVSS cell; anything unparseable or non-finite becomes None, never 0."""
    raw = raw.strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    if not math.isfinite(value):
        return None
    return value


def _parse_date(raw: str) -> date | None:
    """The day of a date cell, or None; the same forms are accepted on every Python version."""
    raw = raw.strip()
    if not raw:
        return None
    if _ISO_DAY_RE.match(raw) and (len(raw) == 10 or (raw[10] in "T " and _ISO_TIME_RE.fullmatch(raw, 11))):
        # an ISO day, alone (the first format's usual case, without strptime) or before a time of day
        try:
            return date(int(raw[:4]), int(raw[5:7]), int(raw[8:10]))
        except ValueError:
            pass
    for fmt in _DATE_FORMATS:
        try:
            return datetime.strptime(raw, fmt).date()
        except ValueError:
            continue
    return None


def decode_utf8(raw: bytes) -> str:
    """``raw`` as UTF-8 text, skipping a leading byte-order mark.

    A byte that is not UTF-8 raises RowError naming its line and value.
    """
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        body = exc.object  # the bytes after any byte-order mark, which exc.start indexes
        line_no = body.count(b"\n", 0, exc.start) + 1
        raise RowError(line_no, f"not valid UTF-8 (byte 0x{body[exc.start]:02x})") from None


def parse_csv(
    stream: BinaryIO | bytes, schema: Mapping[str, str] | None = None, require_cvss: bool = True
) -> list[DisclosureRecord]:
    """Parse a UTF-8 CSV of disclosures into records.

    ``schema`` maps our field names to the CSV's header names; identity
    mapping by default. A UTF-8 byte-order mark before the header is
    skipped. A CVSS cell that does not parse as a finite number is stored
    as missing, never coerced to 0. With ``require_cvss=False`` (scoring
    unscored advisories) the CVSS column may be absent, and every record
    then has ``cvss=None``.

    Raises SchemaError for a schema key that is not one of ``FIELDS``,
    when a required header column is absent or when a mapped column
    appears more than once in the header, RowError (with the physical
    line on which the row starts) for bytes that are not UTF-8, CSV syntax
    errors and malformed rows.
    """
    schema = dict(schema or {})
    for key in schema:
        if key not in FIELDS:
            raise SchemaError(f"schema key {key!r} is not a field; the fields are {', '.join(FIELDS)}")
    for field in FIELDS:
        schema.setdefault(field, field)

    raw = stream if isinstance(stream, bytes) else stream.read()
    reader = csv.reader(io.StringIO(decode_utf8(raw), newline=""))
    try:
        return _read_records(reader, schema, require_cvss)
    except csv.Error as exc:
        raise RowError(reader.line_num, str(exc)) from exc


def _read_records(reader, schema: Mapping[str, str], require_cvss: bool) -> list[DisclosureRecord]:
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("input has no header row")
    col_index = {name: i for i, name in enumerate(header)}
    positions = {}
    for field in FIELDS:
        column = schema[field]
        if header.count(column) > 1:
            raise SchemaError(f"column {column!r} (for field {field!r}) appears more than once in header")
        if column in col_index:
            positions[field] = col_index[column]
        elif field != "cvss" or require_cvss:
            raise SchemaError(f"column {column!r} (for field {field!r}) not in header")
    cvss_at = positions.get("cvss")

    records = []
    end_line = reader.line_num
    for row in reader:
        # a quoted cell may span lines: the row starts after the previous one ended
        line_no, end_line = end_line + 1, reader.line_num
        if not row:
            continue
        if len(row) != len(header):
            raise RowError(line_no, f"expected {len(header)} cells, got {len(row)}")
        zdi_id = row[positions["zdi_id"]].strip()
        if not zdi_id:
            raise RowError(line_no, "empty identifier cell")
        cve = row[positions["cve_id"]].strip() or None
        records.append(
            DisclosureRecord(
                zdi_id=zdi_id,
                cve_id=cve,
                cvss=None if cvss_at is None else _parse_cvss(row[cvss_at]),
                published=_parse_date(row[positions["published"]]),
                vendor=row[positions["vendor"]].strip(),
                description=row[positions["description"]].strip(),
            )
        )
    return records


def clean(records: Iterable[DisclosureRecord]) -> list[DisclosureRecord]:
    """Drop missing-score records and duplicate identifiers, keeping order.

    The first occurrence of a duplicated identifier wins. Idempotent.
    """
    seen: set[str] = set()
    out = []
    for r in records:
        if r.cvss is None:
            continue
        if r.zdi_id in seen:
            continue
        seen.add(r.zdi_id)
        out.append(r)
    return out


def label(records: Sequence[DisclosureRecord], threshold: float = HIGH_SEVERITY_THRESHOLD) -> np.ndarray:
    """Binary high-severity labels: 1 iff cvss >= threshold (inclusive)."""
    for r in records:
        if r.cvss is None:
            raise LabelError(f"record {r.zdi_id} has no CVSS score; clean() first")
    return np.array([1 if r.cvss >= threshold else 0 for r in records], dtype=np.int64)


def stratified_split(
    records: Sequence[DisclosureRecord],
    labels: np.ndarray,
    test_fraction: float = 0.2,
    seed: int = 42,
) -> LabeledDataset:
    """Deterministic stratified train/test partition.

    Test size is round(n * test_fraction); per-class quotas follow the
    exact proportions with a largest-remainder rounding, so each class's
    share of the test set is within one sample of its share overall.
    """
    if not 0.0 < test_fraction < 1.0:
        raise StratificationError(f"test_fraction must be in (0, 1), got {test_fraction}")
    from .features import as_labels  # features imports this module
    n = len(records)
    labels = as_labels(labels, n, "labels")
    classes = np.unique(labels)
    if len(classes) < 2:
        raise StratificationError("both classes must be present to stratify")

    total_test = int(round(n * test_fraction))
    total_test = min(max(total_test, 1), n - 1)

    # Largest-remainder allocation of the test quota across classes.
    quotas = {}
    remainders = []
    assigned = 0
    for c in classes:
        exact = int(np.sum(labels == c)) * total_test / n
        quotas[c] = int(math.floor(exact))
        assigned += quotas[c]
        remainders.append((exact - quotas[c], int(np.sum(labels == c)), -int(c)))
    order = sorted(range(len(classes)), key=lambda i: remainders[i], reverse=True)
    for i in order[: total_test - assigned]:
        quotas[classes[i]] += 1

    rng = np.random.default_rng(substream(seed, "split"))
    test_parts = []
    for c in classes:
        members = np.flatnonzero(labels == c)
        members = members[rng.permutation(len(members))]
        test_parts.append(members[: quotas[c]])
    test_idx = np.sort(np.concatenate(test_parts))
    mask = np.ones(n, dtype=bool)
    mask[test_idx] = False
    train_idx = np.flatnonzero(mask)
    return LabeledDataset(tuple(records), labels, train_idx, test_idx)


def write_records_csv(records: Iterable[DisclosureRecord], path) -> None:
    """Write records back out as CSV with the canonical column names."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FIELDS)
        writer.writerows(r.cells() for r in records)


def write_records_jsonl(records: Iterable[DisclosureRecord], path) -> None:
    """Write records as line-delimited JSON, one record per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r.to_dict(), sort_keys=True) + "\n")
