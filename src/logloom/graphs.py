"""Correlation graphs: rule instances grouped into tumbling windows."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .dims import Dimension
from .episodes import RuleInstance, SequenceRule

Label = tuple[Dimension, int]

WEIGHT_MODES = ("confidence", "support", "product")

SAME_NODE = "same"
CROSS_NODE = "cross"
EDGE_KINDS = (SAME_NODE, CROSS_NODE)


@dataclass(frozen=True)
class GraphNode:
    label: Label
    weight: float
    anchor: float
    node: str


@dataclass(frozen=True)
class WindowGraph:
    """Rule instances of one tumbling window, wired by temporal precedence.

    Labels are unique per graph and edges are keyed by the labels they
    join. Edges always point from the earlier anchor to the strictly
    later one, so the graph is a DAG, and carry one kind from
    EDGE_KINDS; no ordered label pair has two edges.
    `build_window_graphs` guarantees these invariants by construction;
    `check()` enforces them on graphs read from outside.
    """

    window_index: int
    nodes: tuple[GraphNode, ...]
    edges: frozenset[tuple[Label, Label, str]]

    def check(self) -> None:
        """Raise ValueError naming the first invariant the graph breaks."""
        anchors: dict[Label, float] = {}
        for gn in self.nodes:
            if gn.label in anchors:
                raise ValueError(f"node label {label_text(gn.label)} is not unique")
            anchors[gn.label] = gn.anchor
        pairs: set[tuple[Label, Label]] = set()
        for u, v, kind in self.edges:
            if u not in anchors or v not in anchors:
                fault = "joins a label that is not a node"
            elif not anchors[u] < anchors[v]:
                fault = "does not run from an earlier anchor to a later one"
            elif kind not in EDGE_KINDS:
                fault = f"has kind {kind!r}, not one of {EDGE_KINDS}"
            elif (u, v) in pairs:
                fault = "is not the only edge on its label pair"
            else:
                pairs.add((u, v))
                continue
            raise ValueError(f"edge {label_text(u)} -> {label_text(v)} {fault}")


def label_text(label: Label) -> str:
    """A label as `dim:rule_id`, the form reports and DOT output show."""
    return f"{label[0].value}:{label[1]}"


def rule_weight(rule: SequenceRule, weight_mode: str) -> float:
    """Node weight contributed by a rule under the chosen mode."""
    if weight_mode == "confidence":
        return rule.confidence
    if weight_mode == "support":
        return rule.support
    if weight_mode == "product":
        return rule.support * rule.confidence
    raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")


def label_weights(rules: Iterable[SequenceRule], weight_mode: str) -> dict[Label, float]:
    return {rule.label: rule_weight(rule, weight_mode) for rule in rules}


def build_window_graphs(
    instances: Sequence[RuleInstance],
    rules: Iterable[SequenceRule],
    corr_window: float,
    max_lag: float,
    weight_mode: str,
) -> list[WindowGraph]:
    """Partition instances into tumbling windows and build one graph each.

    Windows of width `corr_window` seconds start at the earliest anchor;
    an instance belongs to window floor((anchor - t_min) / corr_window).
    Duplicate labels inside a window collapse to the earliest-anchored
    instance, and each node weighs its rule by `weight_mode`, one of
    WEIGHT_MODES. Edges run between nodes with anchor(u) < anchor(v) and
    lag at most `max_lag` seconds, labeled by whether the two instances
    came from the same cluster node. Empty windows are omitted. The knobs
    are checked first, so a bad one is a ValueError even with no instances.
    """
    if corr_window <= 0:
        raise ValueError("corr_window must be > 0")
    if not 0 < max_lag <= corr_window:
        raise ValueError("max_lag must be in (0, corr_window]")
    if weight_mode not in WEIGHT_MODES:
        raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")
    if not instances:
        return []
    weight_of = label_weights(rules, weight_mode)
    t_min = min(inst.anchor for inst in instances)

    buckets: dict[int, list[RuleInstance]] = {}
    for inst in instances:
        idx = math.floor((inst.anchor - t_min) / corr_window)
        buckets.setdefault(idx, []).append(inst)

    out: list[WindowGraph] = []
    for idx in sorted(buckets):
        chosen: dict[Label, RuleInstance] = {}
        ordered = sorted(
            buckets[idx], key=lambda r: (r.anchor, r.dim.rank, r.rule_id, r.node)
        )
        for inst in ordered:
            chosen.setdefault((inst.dim, inst.rule_id), inst)
        nodes = tuple(
            GraphNode(label, weight_of[label], inst.anchor, inst.node)
            for label, inst in sorted(chosen.items())
        )
        edges: set[tuple[Label, Label, str]] = set()
        for u in nodes:
            for v in nodes:
                if u.anchor < v.anchor and v.anchor - u.anchor <= max_lag:
                    kind = SAME_NODE if u.node == v.node else CROSS_NODE
                    edges.add((u.label, v.label, kind))
        out.append(WindowGraph(idx, nodes, frozenset(edges)))
    return out


def window_graph_to_dot(graph: WindowGraph) -> str:
    """Render one window graph in DOT form for graphviz."""
    lines = [f"digraph window_{graph.window_index} {{"]
    for gn in graph.nodes:
        name = label_text(gn.label)
        lines.append(f'  "{name}" [label="{name}\\nw={gn.weight:.4f}"];')
    for u, v, kind in sorted(graph.edges):
        lines.append(f'  "{label_text(u)}" -> "{label_text(v)}" [label="{kind}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
