import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from logloom import (
    Dimension,
    RuleInstance,
    SequenceRule,
    build_window_graphs,
    label_weights,
    rule_weight,
    window_graph_to_dot,
)
from logloom.graphs import WEIGHT_MODES
from logloom.pipeline import read_graphs, write_graphs

from _oracles import window_digraph


def _rule(rule_id, dim=Dimension.EVENT, support=0.5, confidence=0.8):
    return SequenceRule(
        rule_id=rule_id,
        dim=dim,
        antecedent=(),
        consequent=0,
        support=support,
        confidence=confidence,
    )


def _inst(rule_id, anchor, node="n1", dim=Dimension.EVENT):
    return RuleInstance(rule_id, dim, float(anchor), (float(anchor), float(anchor)), node)


RULES = [_rule(0), _rule(1), _rule(0, dim=Dimension.STATUS)]
E0 = (Dimension.EVENT, 0)
E1 = (Dimension.EVENT, 1)
S0 = (Dimension.STATUS, 0)


class TestWeights:
    def test_modes(self):
        r = _rule(0, support=0.5, confidence=0.8)
        assert rule_weight(r, "confidence") == 0.8
        assert rule_weight(r, "support") == 0.5
        assert rule_weight(r, "product") == pytest.approx(0.4)
        with pytest.raises(ValueError):
            rule_weight(r, "harmonic")

    def test_label_weights_keyed_by_dim_and_id(self):
        weights = label_weights(RULES, "confidence")
        assert set(weights) == {E0, E1, S0}


class TestGraphKnobs:
    def test_lag_bounded_by_window(self):
        cases = [
            ((0, 0, "confidence"), "corr_window must be > 0"),
            ((-5, 1, "confidence"), "corr_window must be > 0"),
            ((100, 150, "confidence"), "max_lag must be in (0, corr_window]"),
            ((100, 0, "confidence"), "max_lag must be in (0, corr_window]"),
            ((300, 120, "nope"), f"weight_mode must be one of {WEIGHT_MODES}"),
        ]
        for instances in ([], [_inst(0, 0)]):
            for knobs, message in cases:
                with pytest.raises(ValueError, match=re.escape(message)):
                    build_window_graphs(instances, RULES, *knobs)


class TestBuildWindowGraphs:
    def test_empty_instances(self):
        assert build_window_graphs([], RULES, 300, 120, "confidence") == []

    def test_tumbling_partition_starts_at_first_anchor(self):
        knobs = (100, 50, "confidence")
        instances = [_inst(0, 50), _inst(1, 149), _inst(1, 150)]
        graphs = build_window_graphs(instances, RULES, *knobs)
        assert [g.window_index for g in graphs] == [0, 1]
        assert len(graphs[0].nodes) == 2
        assert len(graphs[1].nodes) == 1

    def test_empty_windows_omitted(self):
        knobs = (10, 5, "confidence")
        graphs = build_window_graphs([_inst(0, 0), _inst(1, 95)], RULES, *knobs)
        assert [g.window_index for g in graphs] == [0, 9]

    def test_duplicate_label_keeps_earliest_anchor(self):
        knobs = (100, 100, "confidence")
        graphs = build_window_graphs([_inst(0, 30), _inst(0, 10), _inst(0, 20)], RULES, *knobs)
        (g,) = graphs
        assert len(g.nodes) == 1
        assert g.nodes[0].anchor == 10.0

    def test_edges_respect_direction_and_lag(self):
        knobs = (300, 60, "confidence")
        instances = [
            _inst(0, 0, node="a"),
            _inst(1, 50, node="a"),
            _inst(0, 100, node="b", dim=Dimension.STATUS),
        ]
        (g,) = build_window_graphs(instances, RULES, *knobs)
        assert (E0, E1, "same") in g.edges
        assert (E1, S0, "cross") in g.edges  # lag 50, different nodes
        assert not any(e for e in g.edges if e[0] == E0 and e[1] == S0)  # lag 100 > 60

    def test_equal_anchors_never_wired(self):
        knobs = (300, 60, "confidence")
        (g,) = build_window_graphs([_inst(0, 10), _inst(1, 10)], RULES, *knobs)
        assert g.edges == frozenset()

    def test_digraph_conversion_is_dag_without_antiparallel_arcs(self):
        knobs = (300, 300, "confidence")
        instances = [
            _inst(0, 0),
            _inst(1, 10),
            _inst(0, 20, dim=Dimension.STATUS, node="b"),
        ]
        (g,) = build_window_graphs(instances, RULES, *knobs)
        dg = window_digraph(g)
        assert dg.n == 3
        assert len(dg.edges) == 3
        seen_pairs = {frozenset((u, v)) for u, v, _ in dg.edges}
        assert len(seen_pairs) == len(dg.edges)

    def test_node_weights_follow_mode(self):
        knobs = (300, 120, "support")
        (g,) = build_window_graphs([_inst(0, 0)], RULES, *knobs)
        assert g.nodes[0].weight == 0.5
        assert tuple(gn.weight for gn in g.nodes) == (0.5,)

    def test_output_sorted_and_deterministic_under_permutation(self):
        knobs = (100, 80, "confidence")
        instances = [
            _inst(0, 5, node="b"),
            _inst(1, 40, node="a"),
            _inst(0, 220, node="a", dim=Dimension.STATUS),
            _inst(1, 230, node="c"),
        ]
        forward = build_window_graphs(instances, RULES, *knobs)
        shuffled = build_window_graphs(list(reversed(instances)), RULES, *knobs)
        assert forward == shuffled


LABELS = [(dim, rid) for dim in (Dimension.EVENT, Dimension.STATUS) for rid in range(3)]
LABEL_RULES = [
    _rule(rid, dim, support=0.5 ** (rid + 1), confidence=0.9 - 0.1 * k)
    for k, (dim, rid) in enumerate(LABELS)
]


@st.composite
def built_inputs(draw):
    """Instances over six labels and two cluster nodes. Anchors fall on
    multiples of max_lag and of corr_window as often as between them, so
    a bucket repeats labels, labels share anchors, lags equal max_lag and
    anchors sit on window boundaries."""
    window = draw(st.sampled_from([1.0, 7.5, 60.0, 300.0]))
    fraction = draw(st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.01, 1.0))
    max_lag = window * fraction
    knobs = (window, max_lag, draw(st.sampled_from(WEIGHT_MODES)))
    anchors = st.one_of(
        st.integers(0, 8).map(lambda k: k * max_lag),
        st.integers(0, 3).map(lambda k: k * window),
        st.floats(0, 3 * window),
    )
    instances = draw(st.lists(st.builds(
        lambda label, anchor, node: _inst(label[1], anchor, node, label[0]),
        st.sampled_from(LABELS), anchors, st.sampled_from(["a", "b"]),
    ), max_size=12))
    return instances, knobs


# One input with each case named in built_inputs: E0 twice in window 0,
# E0 and E1 both at 0, S0 exactly max_lag after them, S1 on the boundary
# of window 1, and a non-integral anchor.
EVERY_CASE = (
    [_inst(0, 0.0, "a"), _inst(0, 20.5, "b"), _inst(1, 0.0, "b"),
     _inst(0, 50.0, "a", Dimension.STATUS), _inst(1, 100.0, "b", Dimension.STATUS),
     _inst(2, 137.25, "a")],
    (100.0, 50.0, "confidence"),
)


class TestBuiltGraphsAreValid:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=built_inputs())
    @example(case=EVERY_CASE)
    def test_pass_check_and_round_trip(self, tmp_path, case):
        instances, knobs = case
        built = build_window_graphs(instances, LABEL_RULES, *knobs)
        for g in built:
            g.check()
        write_graphs(built, tmp_path / "graphs.json")
        assert read_graphs(tmp_path / "graphs.json") == built

    def test_every_case_is_built(self):
        instances, knobs = EVERY_CASE
        g0, g1 = build_window_graphs(instances, LABEL_RULES, *knobs)
        assert (g0.window_index, g1.window_index) == (0, 1)
        assert {gn.label for gn in g0.nodes} == {E0, E1, S0}
        assert g0.edges == {(E0, S0, "same"), (E1, S0, "cross")}
        assert {gn.anchor for gn in g1.nodes} == {100.0, 137.25}


class TestDot:
    def test_render_contains_nodes_and_edges(self):
        knobs = (300, 60, "confidence")
        (g,) = build_window_graphs([_inst(0, 0), _inst(1, 30)], RULES, *knobs)
        dot = window_graph_to_dot(g)
        assert dot.startswith("digraph window_0 {")
        assert '"event:0" -> "event:1" [label="same"];' in dot
        assert dot.endswith("}\n")
