"""Tests for timeline analysis."""

import pytest

from repro.device.trace import Timeline, TraceRecord
from repro.observability import timeline_events


def rec(label, resource, start, end, stream=None):
    return TraceRecord(label=label, resource=resource, stream=stream, start=start, end=end)


@pytest.fixture
def timeline():
    return Timeline(
        records=(
            rec("k0", "gpu", 0.0, 2.0),
            rec("x0", "d2h", 2.0, 6.0),
            rec("k1", "gpu", 3.0, 5.0),
            rec("x1", "d2h", 6.0, 8.0),
            rec("h0", "h2d", 1.0, 3.0),
        )
    )


class TestBusy:
    def test_makespan(self, timeline):
        assert timeline.makespan() == 8.0

    def test_busy_time_merges_intervals(self):
        tl = Timeline(records=(rec("a", "r", 0, 2), rec("b", "r", 1, 3), rec("c", "r", 5, 6)))
        assert tl.busy_time("r") == 4.0

    def test_busy_fraction(self, timeline):
        assert timeline.busy_fraction("gpu") == pytest.approx(4.0 / 8.0)

    def test_unknown_resource_is_idle(self, timeline):
        assert timeline.busy_time("nope") == 0.0

    def test_zero_duration_ops_ignored(self):
        tl = Timeline(records=(rec("z", "r", 1, 1),))
        assert tl.busy_time("r") == 0.0


class TestTransferFraction:
    def test_union_of_directions(self, timeline):
        # d2h busy [2,8], h2d busy [1,3] -> union [1,8] = 7 of 8
        assert timeline.transfer_fraction() == pytest.approx(7.0 / 8.0)

    def test_single_direction(self, timeline):
        assert timeline.transfer_fraction(["d2h"]) == pytest.approx(6.0 / 8.0)

    def test_empty_timeline(self):
        assert Timeline(records=()).transfer_fraction() == 0.0


class TestOverlap:
    def test_overlap_time(self, timeline):
        # gpu busy [0,2]u[3,5]; d2h busy [2,8] -> overlap [3,5] = 2
        assert timeline.overlap_time("gpu", "d2h") == pytest.approx(2.0)

    def test_no_overlap(self):
        tl = Timeline(records=(rec("a", "r1", 0, 1), rec("b", "r2", 2, 3)))
        assert tl.overlap_time("r1", "r2") == 0.0

    def test_symmetry(self, timeline):
        assert timeline.overlap_time("gpu", "d2h") == timeline.overlap_time("d2h", "gpu")


class TestQueries:
    def test_ops_on(self, timeline):
        assert [r.label for r in timeline.ops_on("gpu")] == ["k0", "k1"]

    def test_with_label(self, timeline):
        assert [r.label for r in timeline.with_label("x")] == ["x0", "x1"]

    def test_order_of(self, timeline):
        assert timeline.order_of(["x1", "k0", "x0"]) == ["k0", "x0", "x1"]

    def test_order_of_unknown_label(self, timeline):
        with pytest.raises(KeyError):
            timeline.order_of(["nope"])

    def test_as_text(self, timeline):
        text = timeline.as_text()
        assert "k0" in text and "d2h" in text

    def test_as_text_truncation(self):
        tl = Timeline(records=tuple(rec(f"op{i}", "r", i, i + 1) for i in range(100)))
        assert "more)" in tl.as_text(max_rows=10)

    def test_duration(self, timeline):
        assert timeline.records[0].duration == 2.0


class TestChromeTrace:
    """A timeline through the one exporter
    (:func:`repro.observability.timeline_events`)."""

    def test_events_complete(self, timeline):
        spans = [e for e in timeline_events(timeline) if e["ph"] == "X"]
        assert len(spans) == len(timeline.records)
        for e in spans:
            assert e["dur"] >= 0

    def test_resources_map_to_tids(self, timeline):
        by_name = {e["name"]: e["tid"] for e in timeline_events(timeline)
                   if e["ph"] == "X"}
        assert by_name["k0"] == by_name["k1"]
        assert by_name["k0"] != by_name["x0"]

    def test_json_serializable(self, timeline):
        import json

        json.dumps(timeline_events(timeline))
