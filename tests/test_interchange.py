"""The bulk interchange writers against their json.dumps references.

`write_events`, `write_instances` and `write_graphs` render JSON text
directly. Their files must hold the bytes that building each document
and handing it to `json.dumps` gives, and read back to the records
written.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from _oracles import reference_write_events, reference_write_graphs, reference_write_instances
from logloom import (
    CanonicalEvent,
    Dimension,
    GraphNode,
    RuleInstance,
    SchemaError,
    TemplateTable,
    WindowGraph,
)
from logloom.pipeline import (
    read_events,
    read_graphs,
    read_instances,
    write_events,
    write_graphs,
    write_instances,
)

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

NAMES = st.one_of(
    st.sampled_from(["n00", "nœud-β", 'say "hi"', "back\\slash", "ctl\x00\x1f\x7f",
                     "line\u2028sep", "\U0001f680", ""]),
    st.text(max_size=6),
)
EDGE_CASE_NUMBERS = [0.0, -0.0, 1e-07, 1e16, 5e-324, 0, 2**70, -(2**64)]
FINITE = st.one_of(
    st.sampled_from(EDGE_CASE_NUMBERS),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
)
# Values the writers pass to json.dumps as they stand: non-finite floats,
# bools and None keep the bytes json gives them.
ANY_NUMBER = st.one_of(FINITE, st.floats(), st.booleans(), st.none())
INTS = st.one_of(st.integers(min_value=0, max_value=3), st.integers())
DIMS = st.sampled_from(list(Dimension))


def events(numbers):
    return st.lists(st.builds(
        CanonicalEvent, ts=numbers, node=NAMES, dim=DIMS, template=INTS,
        count=st.integers(min_value=1) | st.sampled_from([1, 2**70]),
    ), max_size=6)


def instances(numbers):
    return st.lists(st.builds(
        RuleInstance, rule_id=INTS, dim=DIMS, anchor=numbers,
        span=st.tuples(numbers, numbers), node=NAMES,
    ), max_size=6)


@st.composite
def window_graph(draw, numbers):
    """A valid WindowGraph: unique labels from a small pool, so that
    edges share dimensions and rule ids, and edges from earlier anchors
    to later ones."""
    labels = draw(st.lists(st.tuples(DIMS, st.integers(0, 3)), unique=True, max_size=6))
    anchors = numbers.filter(lambda x: x is not None)
    nodes = tuple(
        GraphNode(label, draw(numbers), draw(anchors), draw(NAMES)) for label in labels
    )
    edges = frozenset(
        (u.label, v.label, kind)
        for u in nodes for v in nodes
        if u.anchor < v.anchor
        for kind in [draw(st.sampled_from([None, "same", "cross"]))]
        if kind
    )
    return WindowGraph(draw(st.integers() | st.integers(0, 9)), nodes, edges)


def graph_lists(numbers):
    return st.lists(window_graph(numbers), max_size=4)


def _label_graph(index, labels_at):
    """A window whose nodes, given as (dim, rule_id, anchor), are joined
    from each earlier anchor to each later one."""
    nodes = tuple(GraphNode((d, r), 0.5, a, "a") for d, r, a in labels_at)
    edges = frozenset(
        (u.label, v.label, "cross") for u in nodes for v in nodes if u.anchor < v.anchor
    )
    return WindowGraph(index, nodes, edges)


# Edges whose order by dimension name differs from declaration order
# (comm < event < ras < status against event, status, comm, ras), a
# window with no edges, and each odd number in node fields.
MIXED_DIMS = [
    _label_graph(0, [(Dimension.EVENT, 1, 0.0), (Dimension.COMM, 0, 1e-07),
                     (Dimension.RAS, 2, 5), (Dimension.STATUS, 2**70, 1e16)]),
    _label_graph(3, [(Dimension.STATUS, 0, -0.0)]),
    WindowGraph(4, (), frozenset()),
]


def _bytes(write, records, path):
    write(records, path)
    return path.read_bytes()


class TestWritersEqualJsonDumps:
    @SETTINGS
    @given(evs=events(ANY_NUMBER))
    @example(evs=[CanonicalEvent(ts, "n", Dimension.RAS, 2**70, 1) for ts in EDGE_CASE_NUMBERS])
    def test_events(self, tmp_path, evs):
        assert _bytes(write_events, evs, tmp_path / "new") == _bytes(
            reference_write_events, evs, tmp_path / "ref")

    @SETTINGS
    @given(xs=instances(ANY_NUMBER))
    @example(xs=[RuleInstance(3, Dimension.COMM, a, (a, 5e-324), 'q"\\') for a in EDGE_CASE_NUMBERS])
    def test_instances(self, tmp_path, xs):
        assert _bytes(write_instances, xs, tmp_path / "new") == _bytes(
            reference_write_instances, xs, tmp_path / "ref")

    @SETTINGS
    @given(gs=graph_lists(ANY_NUMBER))
    @example(gs=[])
    @example(gs=MIXED_DIMS)
    def test_graphs(self, tmp_path, gs):
        assert _bytes(write_graphs, gs, tmp_path / "new") == _bytes(
            reference_write_graphs, gs, tmp_path / "ref")


class TestRoundTrip:
    @SETTINGS
    @given(evs=events(FINITE))
    def test_events(self, tmp_path, evs):
        evs = sorted(evs, key=lambda e: e.sort_key)
        write_events(evs, tmp_path / "events.jsonl")
        assert read_events(tmp_path / "events.jsonl") == evs

    @SETTINGS
    # few distinct times, as floats and ints, so that many events tie on ts
    @given(evs=events(st.sampled_from([0.0, -0.0, 0, 1.5, 2.0, 2])), sort=st.booleans(),
           n_templates=st.none() | st.just(3))
    @example(evs=[CanonicalEvent(1.5, "b", Dimension.EVENT, 0, 1),
                  CanonicalEvent(1.5, "a", Dimension.EVENT, 0, 1)], sort=False, n_templates=None)
    def test_events_fault_is_the_first_line_out_of_order_or_range(
        self, tmp_path, evs, sort, n_templates
    ):
        if sort:
            evs = sorted(evs, key=lambda e: e.sort_key)
        fault = None
        for i, ev in enumerate(evs):
            if i and ev.sort_key < evs[i - 1].sort_key:
                fault = f"line {i + 1}: event is out of stream order"
            elif n_templates is not None and not 0 <= ev.template < n_templates:
                fault = f"line {i + 1}: template {ev.template} is not in the templates file"
            if fault:
                break
        templates = TemplateTable.from_rows(enumerate("abc")) if n_templates else None
        path = tmp_path / "events.jsonl"
        write_events(evs, path)
        if fault is None:
            assert read_events(path, templates) == evs
        else:
            with pytest.raises(SchemaError) as err:
                read_events(path, templates)
            assert str(err.value).startswith(f"{path}: {fault}")

    @SETTINGS
    @given(xs=instances(FINITE))
    def test_instances(self, tmp_path, xs):
        write_instances(xs, tmp_path / "instances.jsonl")
        assert read_instances(tmp_path / "instances.jsonl") == xs

    @SETTINGS
    @given(gs=graph_lists(FINITE))
    @example(gs=[])
    @example(gs=MIXED_DIMS)
    def test_graphs(self, tmp_path, gs):
        write_graphs(gs, tmp_path / "graphs.json")
        assert read_graphs(tmp_path / "graphs.json") == gs


# Characters str.splitlines() breaks lines on that a JSON string may hold raw.
LINE_BREAKING = ["\u2028", "\u2029", "\x85"]


class TestLineSplitting:
    """Readers split files on newlines alone; read_text folds CRLF and CR."""

    EVENT = '{{"count": 1, "dim": "event", "node": "{}", "template": 0, "ts": {}}}'
    INSTANCE = '{{"anchor": {1}, "dim": "event", "node": "{0}", "rule_id": 0, "span": [{1}, {1}]}}'

    @pytest.mark.parametrize("char", LINE_BREAKING, ids=["u2028", "u2029", "x85"])
    def test_events_node_holding_a_line_breaking_character(self, tmp_path, char):
        path = tmp_path / "events.jsonl"
        path.write_text(self.EVENT.format(f"a{char}b", 1.5) + "\n", encoding="utf-8")
        assert read_events(path) == [CanonicalEvent(1.5, f"a{char}b", Dimension.EVENT, 0, 1)]

    @pytest.mark.parametrize("char", LINE_BREAKING, ids=["u2028", "u2029", "x85"])
    def test_instances_node_holding_a_line_breaking_character(self, tmp_path, char):
        path = tmp_path / "instances.jsonl"
        path.write_text(self.INSTANCE.format(f"a{char}b", 1.5) + "\n", encoding="utf-8")
        assert read_instances(path) == [
            RuleInstance(0, Dimension.EVENT, 1.5, (1.5, 1.5), f"a{char}b")]

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_files(self, tmp_path, newline):
        events, instances = tmp_path / "events.jsonl", tmp_path / "instances.jsonl"
        events.write_bytes(newline.join(
            self.EVENT.format(n, ts) for n, ts in [("a", 1.5), ("b", 2.5)]).encode() + b"\r\n")
        instances.write_bytes(newline.join(
            self.INSTANCE.format(n, a) for n, a in [("a", 1.5), ("b", 2.5)]).encode())
        assert read_events(events) == [CanonicalEvent(1.5, "a", Dimension.EVENT, 0, 1),
                                        CanonicalEvent(2.5, "b", Dimension.EVENT, 0, 1)]
        assert read_instances(instances) == [
            RuleInstance(0, Dimension.EVENT, a, (a, a), n) for n, a in [("a", 1.5), ("b", 2.5)]]
