import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logloom import (
    Dimension,
    EmptyDimensionError,
    SequenceRule,
    derive_rules,
    find_instances,
    mine_episodes,
)
from logloom.episodes import Episode, InternalConsistencyError

from _oracles import (
    brute_episodes,
    brute_minimal_instances,
    brute_window_support,
    count_window_support,
)
from conftest import trace


class _CountingList(list):
    """A list that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def _random_trace(rng, max_events=50, alphabet=4, span=40, tied=False):
    """Uniform timestamps, or integer ones in a quarter of `span` when `tied`."""
    n = rng.randint(1, max_events)
    draw = (lambda: rng.randint(0, span // 4)) if tied else (lambda: rng.uniform(0, span))
    return trace([(draw(), rng.randrange(alphabet)) for _ in range(n)])


class TestWindowSupport:
    def test_single_event_tiny_window(self):
        events = trace([(1, 0)])
        assert count_window_support([0], events, window=1, granularity=1.0) == 1.0

    def test_spec_pair(self):
        # A@1, B@2, W=2: windows [0,2),[1,3),[2,4) -> A in 2, B in 2, AB in 1
        events = trace([(1, 0), (2, 1)])
        assert count_window_support([0], events, 2, 1.0) == pytest.approx(2 / 3)
        assert count_window_support([1], events, 2, 1.0) == pytest.approx(2 / 3)
        assert count_window_support([0, 1], events, 2, 1.0) == pytest.approx(1 / 3)

    def test_order_matters(self):
        events = trace([(1, 0), (2, 1)])
        assert count_window_support([1, 0], events, 2, 1.0) == 0.0

    def test_granularity_rescales_ticks(self):
        events = trace([(10, 0), (20, 1)])
        assert count_window_support([0, 1], events, window=20, granularity=10) == pytest.approx(
            brute_window_support([0, 1], events, window=20, granularity=10)
        )

    def test_non_multiple_window_rejected(self):
        events = trace([(1, 0)])
        with pytest.raises(ValueError):
            count_window_support([0], events, window=5, granularity=2)

    def test_empty_stream_raises(self):
        with pytest.raises(EmptyDimensionError):
            count_window_support([0], [], window=5, granularity=1.0)

    def test_empty_sequence_raises(self):
        with pytest.raises(ValueError):
            count_window_support([], trace([(1, 0)]), window=5, granularity=1.0)

    def test_matches_oracle_on_random_traces(self):
        rng = random.Random(1)
        for _ in range(150):
            events = _random_trace(rng, max_events=25)
            window = rng.choice([2, 5, 10])
            k = rng.randint(1, 3)
            seq = [rng.randrange(4) for _ in range(k)]
            assert count_window_support(seq, events, window, 1.0) == brute_window_support(
                seq, events, window
            )
        for case in range(150):
            events = _random_trace(rng, max_events=25, tied=case % 2 == 0)
            granularity = rng.choice([0.5, 2, 5])
            window = granularity * rng.choice([1, 2, 5])
            seq = [rng.randrange(4) for _ in range(rng.randint(1, 3))]
            assert count_window_support(seq, events, window, granularity) == (
                brute_window_support(seq, events, window, granularity)
            )
        # Events 10**7 ticks apart, W = 10: 10**7 + 10 windows; each single
        # event lies in 10 of them, the pair (0 then 5) in 5.
        events = trace([(0, 0), (5, 1), (10**7, 0)])
        assert count_window_support([0], events, 10, 1.0) == 20 / 10_000_010
        assert count_window_support([0, 1], events, 10, 1.0) == 5 / 10_000_010
        assert count_window_support([1, 0], events, 10, 1.0) == 0.0


class TestMineEpisodes:
    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(2)
        for _ in range(60):
            events = _random_trace(rng, max_events=30)
            window = rng.choice([2, 5, 10])
            min_sup = rng.choice([0.05, 0.2, 0.5])
            episodes = mine_episodes(events, window, min_sup, k_max=3, granularity=1.0)
            mined = {e.labels: e.support for e in episodes}
            assert mined == brute_episodes(events, window, min_sup, k_max=3)

    def test_prefix_closed(self):
        rng = random.Random(3)
        for _ in range(30):
            events = _random_trace(rng)
            mined = {e.labels for e in mine_episodes(events, 5, 0.1, k_max=3, granularity=1.0)}
            assert all(labels[:-1] in mined for labels in mined if len(labels) > 1)

    def test_repeated_label_episodes_found(self):
        events = trace([(1, 0), (2, 0), (11, 0), (12, 0)])
        mined = {e.labels for e in mine_episodes(events, 3, 0.1, k_max=2, granularity=1.0)}
        assert (0, 0) in mined

    def test_parameter_validation(self):
        events = trace([(1, 0)])
        with pytest.raises(ValueError):
            mine_episodes(events, 5, 0.0, k_max=4, granularity=1.0)
        with pytest.raises(ValueError):
            mine_episodes(events, 5, 1.5, k_max=4, granularity=1.0)
        with pytest.raises(ValueError):
            mine_episodes(events, 5, 0.5, k_max=0, granularity=1.0)

    def test_one_pass_over_the_stream_per_level(self):
        events = _CountingList(trace([(t, t % 3) for t in range(60)]))
        for k_max in (1, 2, 4):
            events.passes = 0
            mined = mine_episodes(events, 5, 0.1, k_max=k_max, granularity=1.0)
            assert max(len(e.labels) for e in mined) == k_max
            assert events.passes <= k_max

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 2)), min_size=1, max_size=20
        ),
        st.sampled_from([2, 5, 10]),
    )
    def test_sub_episode_support_dominates(self, pairs, window):
        events = trace(pairs)
        for episode in mine_episodes(events, window, 0.05, k_max=3, granularity=1.0):
            whole = episode.support
            labels = episode.labels
            for drop in range(len(labels)):
                sub = labels[:drop] + labels[drop + 1 :]
                if sub:
                    assert count_window_support(sub, events, window, 1.0) >= whole - 1e-12


class TestDeriveRules:
    def test_atomic_rules_have_full_confidence(self):
        events = trace([(1, 0), (2, 1)])
        episodes = mine_episodes(events, 2, 0.1, k_max=2, granularity=1.0)
        rules = derive_rules(episodes, min_conf=0.0)
        atomic = [r for r in rules if not r.antecedent]
        assert atomic and all(r.confidence == 1.0 for r in atomic)

    def test_composite_confidence_ratio(self):
        events = trace([(1, 0), (2, 1)])
        episodes = mine_episodes(events, 2, 0.1, k_max=2, granularity=1.0)
        sup = {e.labels: e.support for e in episodes}
        rules = derive_rules(episodes, min_conf=0.0)
        pair = next(r for r in rules if r.full_labels == (0, 1))
        assert pair.confidence == pytest.approx(sup[(0, 1)] / sup[(0,)])

    def test_min_conf_drops_and_renumbers(self):
        events = trace([(1, 0), (2, 1), (10, 0)])
        episodes = mine_episodes(events, 2, 0.05, k_max=2, granularity=1.0)
        rules = derive_rules(episodes, min_conf=0.9)
        assert [r.rule_id for r in rules] == list(range(len(rules)))
        assert all(r.confidence >= 0.9 for r in rules)

    def test_missing_prefix_detected(self):
        orphan = [Episode((0, 1), Dimension.EVENT, 0.5)]
        with pytest.raises(InternalConsistencyError):
            derive_rules(orphan, min_conf=0.0)

    def test_min_conf_validation(self):
        with pytest.raises(ValueError):
            derive_rules([], min_conf=-0.1)


def _rule(labels, dim=Dimension.EVENT, rule_id=0):
    return SequenceRule(
        rule_id=rule_id,
        dim=dim,
        antecedent=tuple(labels[:-1]),
        consequent=labels[-1],
        support=1.0,
        confidence=1.0,
    )


class TestFindInstances:
    def test_wider_occurrence_not_minimal(self):
        events = trace([(1, 0), (2, 1), (3, 1)])
        spans = [i.span for i in find_instances([_rule([0, 1])], events, window=5)]
        assert spans == [(1.0, 2.0)]

    def test_later_start_supersedes(self):
        events = trace([(1, 0), (2, 0), (3, 1)])
        spans = [i.span for i in find_instances([_rule([0, 1])], events, window=5)]
        assert spans == [(2.0, 3.0)]

    def test_window_bound_inclusive_on_raw_timestamps(self):
        events = trace([(1, 0), (6, 1)])
        assert find_instances([_rule([0, 1])], events, window=5) != []
        assert find_instances([_rule([0, 1])], events, window=4.9) == []

    def test_anchor_is_completion_time_and_node_matches(self):
        events = [
            *trace([(1, 0)], node="a"),
            *trace([(2, 1)], node="b"),
        ]
        inst = find_instances([_rule([0, 1])], events, window=5)[0]
        assert inst.anchor == 2.0
        assert inst.span == (1.0, 2.0)
        assert inst.node == "b"

    def test_atomic_rule_instance_per_event(self):
        events = trace([(1, 0), (5, 0), (9, 0)])
        instances = find_instances([_rule([0])], events, window=5)
        assert [i.anchor for i in instances] == [1.0, 5.0, 9.0]
        assert all(i.span == (i.anchor, i.anchor) for i in instances)

    def test_matches_oracle_on_random_traces(self):
        rng = random.Random(4)
        for _ in range(200):
            events = _random_trace(rng, max_events=18, alphabet=3, span=25)
            k = rng.randint(1, 3)
            labels = [rng.randrange(3) for _ in range(k)]
            window = rng.choice([3, 6, 12])
            got = [i.span for i in find_instances([_rule(labels)], events, window)]
            assert got == brute_minimal_instances(labels, events, window)
        for _ in range(100):
            events = _random_trace(rng, max_events=18, alphabet=3, span=25, tied=True)
            labels = [rng.randrange(3) for _ in range(rng.randint(1, 3))]
            window = rng.choice([1, 3, 6])
            got = [i.span for i in find_instances([_rule(labels)], events, window)]
            assert got == brute_minimal_instances(labels, events, window)

    def test_instances_disjoint_in_start_and_end(self):
        rng = random.Random(5)
        for _ in range(50):
            events = _random_trace(rng, max_events=30, alphabet=2)
            instances = find_instances([_rule([0, 1])], events, window=10)
            starts = [i.span[0] for i in instances]
            ends = [i.span[1] for i in instances]
            assert starts == sorted(starts) and len(set(starts)) == len(starts)
            assert ends == sorted(ends) and len(set(ends)) == len(ends)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 20), st.integers(0, 2)), min_size=1, max_size=14),
        st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3), min_size=1, max_size=6),
        st.sampled_from([1, 3, 6, 12]),
    )
    @example(
        pairs=[(0, 0), (1, 1), (2, 0), (2, 0), (3, 0), (5, 1), (6, 0), (9, 2), (10, 0)],
        sequences=[[0], [0, 0], [0, 1, 0], [1, 0], [0, 1], [2, 0, 0], [0, 0]],
        window=6,
    )
    def test_many_rules_at_once_match_oracle(self, pairs, sequences, window):
        """One call on rules of mixed lengths that share templates at
        different positions, repeated labels included, gives each rule
        its oracle instances, rule by rule."""
        events = trace(pairs)
        rules = [_rule(labels, rule_id=k) for k, labels in enumerate(sequences)]
        instances = find_instances(rules, events, window)
        ids = [i.rule_id for i in instances]
        assert ids == sorted(ids)
        for k, labels in enumerate(sequences):
            got = [i.span for i in instances if i.rule_id == k]
            assert got == brute_minimal_instances(labels, events, window)

    def test_one_pass_over_the_stream_per_call(self):
        events = _CountingList(trace([(t, t % 3) for t in range(30)]))
        rules = [_rule(labels, rule_id=k) for k, labels in enumerate([[0], [0, 1], [2, 0, 2]])]
        assert find_instances(rules, events, window=10)
        assert events.passes == 1
