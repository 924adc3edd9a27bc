import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logloom import Dimension, coalesce, filter_noise, load_blacklist

from conftest import ev


def _events_strategy():
    """Small sorted multi-stream traces with repeat counts."""
    item = st.tuples(
        st.floats(min_value=0, max_value=500, allow_nan=False),
        st.sampled_from(["a", "b"]),
        st.sampled_from([Dimension.EVENT, Dimension.STATUS]),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=3),
    )
    return st.lists(item, max_size=30).map(
        lambda items: [
            ev(ts, tpl, node=node, dim=dim, count=count)
            for ts, node, dim, tpl, count in sorted(items)
        ]
    )


class TestCoalesce:
    def test_gap_measured_from_kept_representative(self):
        # 4 merges into 0; 8 is 8s from the kept event, past the gap
        out = coalesce([ev(0, 0), ev(4, 0), ev(8, 0)], 5)
        assert [(e.ts, e.count) for e in out] == [(0.0, 2), (8.0, 1)]

    def test_merge_does_not_chain(self):
        out = coalesce([ev(0, 0), ev(2, 0), ev(10, 0)], 5)
        assert [(e.ts, e.count) for e in out] == [(0.0, 2), (10.0, 1)]

    def test_streams_do_not_mix(self):
        events = [
            ev(0, 0, node="a"),
            ev(1, 0, node="b"),
            ev(2, 1, node="a"),
            ev(3, 0, node="a", dim=Dimension.STATUS),
        ]
        out = coalesce(events, 10)
        assert len(out) == 4

    def test_empty_input(self):
        assert coalesce([], 5.0) == []

    def test_gap_validation(self):
        for events in ([], [ev(0, 0)]):
            for gap in (0, -1.5):
                with pytest.raises(ValueError, match=re.escape("gap must be > 0")):
                    coalesce(events, gap)

    @given(_events_strategy(), st.floats(min_value=0.1, max_value=50))
    def test_idempotent(self, events, gap):
        once = coalesce(events, gap)
        assert coalesce(once, gap) == once

    @given(_events_strategy(), st.floats(min_value=0.1, max_value=50))
    def test_counts_preserved(self, events, gap):
        out = coalesce(events, gap)
        assert sum(e.count for e in out) == sum(e.count for e in events)
        assert [e.ts for e in out] == sorted(e.ts for e in out)


class TestFilterNoise:
    def test_identity_without_rules(self):
        events = [ev(0, 0), ev(10, 1)]
        kept, report = filter_noise(events, (), None)
        assert kept == events
        assert report.blacklist_dropped == 0 and report.rate_dropped == 0

    def test_blacklist_drops_template_everywhere(self):
        events = [ev(0, 0), ev(1, 1), ev(2, 0, node="b")]
        kept, report = filter_noise(events, {0}, None)
        assert [e.template for e in kept] == [1]
        assert report.blacklist_dropped == 2

    def test_heartbeat_stream_dropped_whole(self):
        heartbeat = [ev(t, 0) for t in range(0, 3600)]
        kept, report = filter_noise(heartbeat + [ev(3600, 1)], (), 100)
        assert [e.template for e in kept] == [1]
        assert report.rate_dropped == 3600
        assert report.noisy_streams == (("n1", 0),)

    def test_mixed_trace_keeps_quiet_stream(self):
        chatty = [ev(t, 0) for t in range(0, 3600)]
        quiet = [ev(t, 1) for t in range(0, 3601, 360)]
        events = sorted(chatty + quiet, key=lambda e: e.sort_key)
        kept, _ = filter_noise(events, (), 100)
        assert {e.template for e in kept} == {1}
        assert len(kept) == len(quiet)

    def test_rate_counts_coalesced_repeats(self):
        # one event with a large repeat count is as loud as many raw events
        events = [ev(0, 0, count=7200), ev(3600, 1)]
        kept, _ = filter_noise(events, (), 100)
        assert [e.template for e in kept] == [1]

    def test_zero_duration_skips_rate_check(self):
        events = [ev(5, 0), ev(5, 1)]
        kept, report = filter_noise(events, (), 1)
        assert kept == events
        assert report.rate_check_skipped

    def test_shrinking_duration_reevaluates_rates(self):
        # the bracket stream is loud; once removed, the trace shrinks from
        # 2h to under 1h and the inner stream goes over the ceiling too
        bracket = [ev(t * 7200 / 20, 0) for t in range(21)]
        inner = [ev(3600 + i * 30, 1) for i in range(11)]
        events = sorted(bracket + inner, key=lambda e: e.sort_key)
        kept, report = filter_noise(events, (), 10)
        assert kept == []
        assert set(report.noisy_streams) == {("n1", 0), ("n1", 1)}

    def test_max_rate_validation(self):
        for events in ([], [ev(0, 0), ev(10, 1)]):
            for max_rate in (0, -2.0):
                with pytest.raises(ValueError, match=re.escape("max_rate must be > 0")):
                    filter_noise(events, (), max_rate)

    @settings(max_examples=200)
    @given(
        _events_strategy(),
        st.one_of(st.none(), st.floats(min_value=1, max_value=200)),
        st.sets(st.integers(min_value=0, max_value=2)),
    )
    def test_idempotent(self, events, max_rate, blacklist):
        once, _ = filter_noise(events, blacklist, max_rate)
        twice, _ = filter_noise(once, blacklist, max_rate)
        assert twice == once

    @given(_events_strategy(), st.floats(min_value=1, max_value=200))
    def test_kept_streams_respect_ceiling(self, events, max_rate):
        kept, report = filter_noise(events, (), max_rate)
        if not kept or report.rate_check_skipped:
            return
        duration_h = (kept[-1].ts - kept[0].ts) / 3600.0
        if duration_h <= 0:
            return
        totals: dict = {}
        for e in kept:
            totals[(e.node, e.template)] = totals.get((e.node, e.template), 0) + e.count
        assert all(total / duration_h <= max_rate for total in totals.values())


class TestLoadBlacklist:
    def test_parses_ids_and_comments(self, tmp_path):
        path = tmp_path / "blacklist.txt"
        path.write_text("0\n# heartbeat templates\n3  # trailing\n\n7\n", encoding="utf-8")
        assert load_blacklist(path) == frozenset({0, 3, 7})
