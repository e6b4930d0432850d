"""Tests of the benchmark's own logic: feed generator, percentiles, spans.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import csv
import io
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import feed  # noqa: E402
from spans import Span, Tracer, ancestors, self_times  # noqa: E402
from stats import median, percentile  # noqa: E402


def _parse(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))


# ---------------------------------------------------------------------------
# feed generator


@pytest.mark.parametrize("long_tail", [False, True])
def test_generator_is_deterministic_per_seed(long_tail):
    a = feed.to_csv_bytes(feed.generate_rows(200, 7, long_tail=long_tail))
    b = feed.to_csv_bytes(feed.generate_rows(200, 7, long_tail=long_tail))
    c = feed.to_csv_bytes(feed.generate_rows(200, 8, long_tail=long_tail))
    assert a == b
    assert a != c


def test_generator_keeps_the_planted_feed_shape():
    rows = _parse(feed.to_csv_bytes(feed.generate_rows(415, 3)))
    assert tuple(rows[0]) == feed.HEADER
    body = rows[1:]
    assert len(body) == 415
    assert sum(1 for r in body if r[2] in ("", "N/A")) == 3
    ids = [r[0] for r in body]
    assert len(ids) - len(set(ids)) == 2
    scored = [float(r[2]) for r in body if r[2] not in ("", "N/A")]
    positive = sum(1 for v in scored if v >= 7.0)
    assert abs(positive - round(feed.POSITIVE_RATE * 415)) <= 3  # exact but for the 3 blanked cells
    with_cve = sum(1 for r in body if r[1])
    n_high = round(feed.POSITIVE_RATE * 415)
    expected = round(feed.CVE_RATE[True] * n_high) + round(feed.CVE_RATE[False] * (415 - n_high))
    assert with_cve == expected


def test_long_tail_adds_one_identifier_sentence_per_row():
    plain = feed.generate_rows(50, 5)
    tail = feed.generate_rows(50, 5, long_tail=True)
    for p, t in zip(plain, tail):
        assert "Affected modules include" not in p[5]
        assert t[5].count("Affected modules include") == 1


def test_stream_rows_keep_every_cvss_and_id():
    rows = feed.generate_rows(100, [4, 1], long_tail=True, missing_cvss=0, duplicate_ids=0, id_prefix="ZDI-25")
    assert all(r[2] not in ("", "N/A") for r in rows)
    assert len({r[0] for r in rows}) == 100
    assert not feed.to_csv_bytes(rows).startswith(b"\xef\xbb\xbf")


# ---------------------------------------------------------------------------
# percentiles


def test_percentile_reports_samples_and_count_beyond():
    values = [float(v) for v in range(1, 1001)]
    p99 = percentile(values, 99)
    assert p99.samples == 1000
    assert p99.beyond == 10
    assert p99.value == pytest.approx(990.01)


def test_percentile_interpolates_like_numpy_default():
    p = percentile([4.0, 1.0, 3.0, 2.0], 50)
    assert (p.value, p.samples, p.beyond) == (2.5, 4, 2)
    assert percentile([5.0], 99).value == 5.0
    assert median([3.0, 1.0, 2.0]) == 2.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# ---------------------------------------------------------------------------
# spans and self time


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a.root", 0.0, 10.0, -1, 0),
        Span("b.child", 1.0, 4.0, 0, 0),
        Span("c.grandchild", 2.0, 3.0, 1, 0),
        Span("b.child", 6.0, 7.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert list(ancestors(spans, 2)) == ["b.child", "a.root"]


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        Span("a.root", 0.0, 10.0, -1, 0),
        Span("b.x", 1.0, 5.0, 0, 0),
        Span("b.y", 3.0, 6.0, 0, 0),
        Span("b.z", 9.0, 12.0, 0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_nesting_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    originals = (mod.inner, mod.outer)
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.span(mod, "outer", "a.outer")
    tracer.span(mod, "inner", "b.inner", lambda a, k, r: {"result": r})
    tracer.count(mod, "inner", "inner_calls")
    assert not tracer.span(mod, "gone", "a.gone")
    assert mod.outer(1) == 4
    tracer.restore()
    assert (mod.inner, mod.outer) == originals
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, inner.name, inner.parent) == ("a.outer", -1, "b.inner", 0)
    assert inner.attrs == {"result": 2}
    assert tracer.counters["inner_calls"] == 1
    assert outer.start < inner.start < inner.end < outer.end
    assert self_times(tracer.spans) == pytest.approx([outer.duration - inner.duration, inner.duration])
    assert len(tracer.missing) == 1 and tracer.missing[0].endswith(".gone")


def test_tracer_keeps_the_span_when_the_call_raises():
    mod = types.SimpleNamespace(fail=lambda: 1 / 0, ok=lambda: 1)
    tracer = Tracer()
    tracer.span(mod, "fail", "a.fail")
    tracer.span(mod, "ok", "a.ok")
    with pytest.raises(ZeroDivisionError):
        mod.fail()
    mod.ok()
    tracer.restore()
    failed, ok = tracer.spans
    assert failed.end >= failed.start
    assert ok.parent == -1  # the failed span was closed
