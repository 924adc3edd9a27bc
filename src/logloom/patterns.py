"""Weighted frequent subgraph mining over small labeled digraphs.

Graphs are canonicalized by minimum DFS code. A code entry is the tuple
(i, j, label_i, direction, edge_label, label_j) where i and j are
discovery indices and direction records the arc's orientation relative
to the traversal: 0 means the arc runs i -> j, 1 means j -> i. Entries
compare by the classical gSpan neighborhood order on (i, j) first and
by (label_i, direction, edge_label, label_j) to break structural ties;
plain tuple comparison would not keep prefixes of minimal codes minimal,
which the rightmost-extension search depends on.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

CodeEntry = tuple
DfsCode = tuple


@dataclass(frozen=True)
class Digraph:
    """Immutable labeled digraph with at most one arc per vertex pair.

    Self loops and antiparallel arc pairs are rejected: hosts built from
    anchored instances are DAGs where neither occurs, and any pattern
    needing them could never be contained in such a host.
    """

    labels: tuple[Hashable, ...]
    edges: frozenset[tuple[int, int, Hashable]]

    def __post_init__(self) -> None:
        n = len(self.labels)
        pairs: set[tuple[int, int]] = set()
        for u, v, _ in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge endpoint out of range")
            if u == v:
                raise ValueError("self loops are not allowed")
            pair = (u, v) if u < v else (v, u)
            if pair in pairs:
                raise ValueError("at most one arc per vertex pair")
            pairs.add(pair)

    @property
    def n(self) -> int:
        return len(self.labels)


def _adjacency(g: Digraph) -> list[list[tuple[int, int, Hashable]]]:
    """Per vertex: (neighbor, direction as seen from the vertex, edge label)."""
    adj: list[list[tuple[int, int, Hashable]]] = [[] for _ in range(g.n)]
    for u, v, el in g.edges:
        adj[u].append((v, 0, el))
        adj[v].append((u, 1, el))
    return adj


def _arc_map(g: Digraph) -> dict[tuple[int, int], tuple[int, Hashable]]:
    arcs: dict[tuple[int, int], tuple[int, Hashable]] = {}
    for u, v, el in g.edges:
        arcs[(u, v)] = (0, el)
        arcs[(v, u)] = (1, el)
    return arcs


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _step_key(entry: CodeEntry):
    """Order over candidate entries extending one shared code prefix.

    Backward entries precede forward ones; among backward, the smaller
    ancestor wins; among forward, the deeper source wins. Labels break
    the remaining ties in tuple field order.
    """
    i, j, li, d, el, lj = entry
    if i > j:
        return (0, j, (li, d, el, lj))
    return (1, -i, (li, d, el, lj))


def _extensions(
    g: Digraph,
    adj: list[list[tuple[int, int, Hashable]]],
    order: tuple[int, ...],
    rmpath: list[int],
    used: set[tuple[int, int]],
) -> list[tuple[CodeEntry, tuple[int, ...]]]:
    """The entries the traversal with discovery order `order` can emit
    next, each with the order it leaves; `rmpath` and `used` are the
    rightmost path and the consumed arcs, in discovery indices."""
    pos = {v: k for k, v in enumerate(order)}
    last = len(order) - 1
    r = order[last]
    backward: list[tuple[int, int, Hashable, int]] = []
    for w, d, el in adj[r]:
        j = pos.get(w)
        if j is None or (j, last) in used:
            continue
        if j not in rmpath:
            # this traversal can never consume the arc: abandon it
            return []
        backward.append((j, d, el, w))
    if backward:
        # a valid code emits pending backward arcs in ancestor order
        j, d, el, w = min(backward)
        return [((last, j, g.labels[r], d, el, g.labels[w]), order)]
    return [
        ((i, last + 1, g.labels[order[i]], d, el, g.labels[w]), order + (w,))
        for i in rmpath
        for w, d, el in adj[order[i]]
        if w not in pos
    ]


def _min_code_with_order(g: Digraph) -> tuple[DfsCode, tuple[int, ...]]:
    """Minimum DFS code plus the discovery order achieving it.

    Runs every DFS traversal in lockstep, keeping after each step only
    the traversals that emitted the smallest next entry. A traversal is
    held as its discovery order: the survivors all emitted the same code,
    so in discovery indices they share one rightmost path and one set of
    consumed arcs. Traversals that strand an arc off the rightmost path
    are dropped early; they can never finish, and any entry they offer is
    offered by a surviving traversal as well. In a connected graph of two
    or more vertices every vertex has an arc, so the first entry is a
    forward arc from a least-labelled vertex, and only those vertices
    start a traversal. Every choice is a minimum, so the order of a
    vertex's neighbours never changes the result; of the surviving
    orders, the least is returned.
    """
    n = g.n
    if n == 0:
        raise ValueError("graph is empty")
    adj = _adjacency(g)
    seen = {0}
    stack = [0]
    while stack:
        for w, _, _ in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) < n:
        raise ValueError("graph must be connected")
    if n == 1:
        label = g.labels[0]
        return ((0, 0, label, 0, None, label),), (0,)

    least = min(g.labels)
    orders = {(v,) for v in range(n) if g.labels[v] == least}
    rmpath = [0]
    used: set[tuple[int, int]] = set()
    code: list[CodeEntry] = []
    for _ in range(len(g.edges)):
        branches = [b for order in orders for b in _extensions(g, adj, order, rmpath, used)]
        if not branches:
            raise AssertionError("dfs canonicalization deadlocked")
        best = min((entry for entry, _ in branches), key=_step_key)
        code.append(best)
        orders = {order for entry, order in branches if entry == best}
        i, j = best[0], best[1]
        used.add(_pair(i, j))
        if i < j:
            del rmpath[rmpath.index(i) + 1 :]
            rmpath.append(j)
    return tuple(code), min(orders)


def min_dfs_code(g: Digraph) -> DfsCode:
    """Canonical form: equal codes exactly characterize isomorphic graphs."""
    return _min_code_with_order(g)[0]


def _code_to_graph(code: DfsCode, labels: Sequence[Hashable]) -> Digraph:
    edges: set[tuple[int, int, Hashable]] = set()
    for i, j, _, d, el, _ in code:
        if i == j:
            continue
        edges.add((i, j, el) if d == 0 else (j, i, el))
    return Digraph(tuple(labels), frozenset(edges))


def _is_min_code(code: DfsCode, labels: Sequence[Hashable]) -> bool:
    """Whether `code`, with vertex labels `labels`, is the minimum DFS
    code of the connected graph it spells. The empty code of a single
    vertex is.

    A code with repeated labels goes through `min_dfs_code`. With distinct
    labels, every step of the lockstep search has one winner, so the
    minimum code is the one greedy traversal that starts at the least
    label and takes the `_step_key`-least extension at each step. While
    the code agrees with that traversal, discovery indices are the code's
    own vertex indices, so the traversal is replayed on the code itself
    and stops at the first entry that differs.
    """
    if len(set(labels)) < len(labels):
        return min_dfs_code(_code_to_graph(code, labels)) == code
    if labels[0] != min(labels):
        return False
    adj: list[list[tuple[int, int, Hashable]]] = [[] for _ in labels]
    for i, j, _, d, el, _ in code:
        adj[i].append((j, d, el))
        adj[j].append((i, 1 - d, el))
    used: set[tuple[int, int]] = set()
    rmpath = [0]
    for entry in code:
        r = rmpath[-1]
        backward = [(w, d, el) for w, d, el in adj[r] if w < r and (w, r) not in used]
        if backward:
            w, d, el = min(backward)
            if entry != (r, w, labels[r], d, el, labels[w]):
                return False
            used.add((w, r))
            continue
        # the deepest rightmost-path vertex with an undiscovered neighbor
        for depth in range(len(rmpath) - 1, -1, -1):
            x = rmpath[depth]
            forward = [(d, el, labels[w]) for w, d, el in adj[x] if w > r]
            if forward:
                break
        else:
            return False
        d, el, lw = min(forward)
        if entry != (x, r + 1, labels[x], d, el, lw):
            return False
        used.add((x, r + 1))
        del rmpath[depth + 1 :]
        rmpath.append(r + 1)
    return True


def _rmpath_indices(code: DfsCode) -> list[int]:
    """Discovery indices on the rightmost path, root first."""
    rm: list[int] = []
    cur: int | None = None
    for i, j, *_ in reversed(code):
        if i < j and (cur is None or j == cur):
            rm.append(j)
            cur = i
    rm.append(0)
    rm.reverse()
    return rm


@dataclass(frozen=True)
class FailurePattern:
    """A mined subgraph with its scores; vertex order is canonical.

    Only `build` checks; `mine_patterns` makes patterns that pass."""

    graph: Digraph
    node_weights: tuple[float, ...]
    support: float
    weighted_support: float
    code: DfsCode
    structural_confidence: float = 0.0
    knowledge_confidence: float = 0.0
    provenance: frozenset[str] = frozenset({"mined"})

    @classmethod
    def build(
        cls,
        graph: Digraph,
        node_weights: Sequence[float],
        support: float,
        weighted_support: float,
        structural_confidence: float = 0.0,
        knowledge_confidence: float = 0.0,
        provenance: Iterable[str] = ("mined",),
    ) -> "FailurePattern":
        """Check, then construct with vertices in canonical code order."""
        code, order = _min_code_with_order(graph)
        if len(node_weights) != graph.n:
            raise ValueError("one weight per node required")
        if not all(0 <= w <= 1 for w in node_weights):
            raise ValueError("node weights must be in [0, 1]")
        for name, value in (
            ("support", support),
            ("weighted_support", weighted_support),
            ("structural_confidence", structural_confidence),
            ("knowledge_confidence", knowledge_confidence),
        ):
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must be in [0, 1]")
        if weighted_support > support:
            raise ValueError("weighted support cannot exceed support")
        pos = {v: k for k, v in enumerate(order)}
        labels = tuple(graph.labels[v] for v in order)
        edges = frozenset((pos[u], pos[v], el) for u, v, el in graph.edges)
        weights = tuple(node_weights[v] for v in order)
        return cls(
            graph=Digraph(labels, edges),
            node_weights=weights,
            support=support,
            weighted_support=weighted_support,
            code=code,
            structural_confidence=structural_confidence,
            knowledge_confidence=knowledge_confidence,
            provenance=frozenset(provenance),
        )


def _frequent_hosts(graphs: Sequence, ws_min: float) -> list[Digraph]:
    """Each host as a Digraph holding only the arcs that can be frequent.

    An arc is kept when its label triple (label_u, label_v, edge_label)
    occurs in at least a `ws_min` share of the hosts. Each arc of a
    pattern maps to a host arc with the same triple, so every arc of a
    pattern with support >= ws_min has a kept triple, and every embedding
    of such a pattern survives. Every vertex is kept. A window graph's
    edges are already label triples, so it is read straight from them.
    """

    def triples(g) -> Iterable[tuple]:
        if isinstance(g, Digraph):
            return {(g.labels[u], g.labels[v], el) for u, v, el in g.edges}
        return g.edges

    hosts_with: Counter[tuple] = Counter()
    for g in graphs:
        hosts_with.update(triples(g))
    total = len(graphs)
    frequent = {t for t, count in hosts_with.items() if count / total >= ws_min}
    out: list[Digraph] = []
    for g in graphs:
        if isinstance(g, Digraph):
            labels = g.labels
            edges = frozenset(
                (u, v, el) for u, v, el in g.edges
                if (labels[u], labels[v], el) in frequent
            )
        else:
            labels = tuple(gn.label for gn in g.nodes)
            index = {label: i for i, label in enumerate(labels)}
            edges = frozenset(
                (index[u], index[v], el) for u, v, el in frequent.intersection(g.edges)
            )
        out.append(Digraph(labels, edges))
    return out


def mine_patterns(
    graphs: Sequence,
    label_weights: Mapping[Hashable, float],
    ws_min: float,
    p_max: int,
) -> list[FailurePattern]:
    """Enumerate connected patterns of at most `p_max` nodes with weighted
    support >= ws_min.

    Rightmost-extension search over minimum DFS codes; every pattern is
    visited through its canonical code exactly once. The search starts
    from each label's single vertices, held as the empty code, so the
    one-arc codes are their forward children and `p_max` bounds every
    pattern. Branches are cut on raw support, which is sound because node
    weights never exceed one, so weighted support never exceeds support.
    Patterns that fail only the weighted threshold are still grown.
    Output is sorted by code.

    An embedding is a pair (gid, vmap): the host's index and the host
    vertex of each discovery index. vmap is one to one, so the host arcs
    an embedding has used are the images of its code's (i, j) pairs and
    are read off the code, not carried.

    Before the search, each host drops the arcs whose label triple is
    below `ws_min` support (see `_frequent_hosts`); no frequent pattern
    uses one. A grown code with distinct labels is tested for minimality
    by replaying the one greedy traversal it must follow; a code with
    repeated labels is compared with `min_dfs_code` (see `_is_min_code`).
    Children that cannot be minimal are not built: those that put a
    lesser label after the first, and those whose new arc sorts below
    the tree arc its rightmost-path vertex took.
    """
    if not graphs:
        raise ValueError("graph database is empty")
    if not 0 < ws_min <= 1:
        raise ValueError("ws_min must be in (0, 1]")
    if p_max < 1:
        raise ValueError("p_max must be >= 1")

    hosts = _frequent_hosts(graphs, ws_min)
    total = len(hosts)
    adjs = [_adjacency(h) for h in hosts]
    arcs = [_arc_map(h) for h in hosts]
    found: list[FailurePattern] = []

    starts: dict[Hashable, list[tuple[int, tuple[int, ...]]]] = {}
    for gid, h in enumerate(hosts):
        for v, label in enumerate(h.labels):
            starts.setdefault(label, []).append((gid, (v,)))
    rank = {label: k for k, label in enumerate(sorted(starts))}
    # A code is only minimal if its first label is its least, so no forward
    # extension that puts a lesser label after the first is built.
    ranks = [[rank[label] for label in h.labels] for h in hosts]

    def grow(code: DfsCode, labels: list[Hashable], embeddings: list[tuple]) -> None:
        support = len({gid for gid, _ in embeddings}) / total
        if support < ws_min:
            return
        if not _is_min_code(code, labels):
            return
        node_weights = tuple(label_weights[label] for label in labels)
        # `statistics.fmean`, without importing `statistics` (and with it
        # `decimal` and `fractions`); the parentheses keep its rounding.
        ws = support * (math.fsum(node_weights) / len(node_weights))
        if ws >= ws_min:
            found.append(
                FailurePattern(
                    graph=_code_to_graph(code, labels),
                    node_weights=node_weights,
                    support=support,
                    weighted_support=ws,
                    code=code or ((0, 0, labels[0], 0, None, labels[0]),),
                )
            )

        maxtoc = len(labels) - 1
        rmpath = _rmpath_indices(code)
        least = rank[labels[0]]
        r_rank = rank[labels[maxtoc]]
        # Each rightmost-path vertex's tree arc to the next one was its least
        # extension when taken. A new arc from that vertex, forward or as
        # the reverse of a backward one, that sorts below it would have been
        # taken first, so no child with such an arc is minimal.
        tree = {(i, j): (d, el, rank[lj]) for i, j, _, d, el, lj in code if i < j}
        floors = {x: tree[(x, y)] for x, y in zip(rmpath, rmpath[1:])}
        # Used arcs are code entries, so a backward arc is new to every
        # embedding or to none; a forward arc reaches an unmapped vertex.
        used = {_pair(i, j) for i, j, *_ in code}
        backward = [a for a in rmpath[:-1] if (a, maxtoc) not in used]
        forward = len(labels) < p_max
        children: dict[CodeEntry, list[tuple[int, tuple[int, ...]]]] = {}
        for embedding in embeddings:
            gid, vmap = embedding
            host_arcs = arcs[gid]
            r_host = vmap[maxtoc]
            for a_idx in backward:
                arc = host_arcs.get((r_host, vmap[a_idx]))
                if arc is None:
                    continue
                d, el = arc
                if (1 - d, el, r_rank) < floors[a_idx]:
                    continue
                entry = (maxtoc, a_idx, labels[maxtoc], d, el, labels[a_idx])
                children.setdefault(entry, []).append(embedding)
            if not forward:
                continue
            mapped = set(vmap)
            host_labels, host_ranks = hosts[gid].labels, ranks[gid]
            for x_idx in rmpath:
                x_host = vmap[x_idx]
                floor = floors.get(x_idx)
                for w, d, el in adjs[gid][x_host]:
                    if w in mapped or host_ranks[w] < least:
                        continue
                    if floor is not None and (d, el, host_ranks[w]) < floor:
                        continue
                    entry = (x_idx, maxtoc + 1, labels[x_idx], d, el, host_labels[w])
                    children.setdefault(entry, []).append((gid, vmap + (w,)))
        for entry in sorted(children, key=_step_key):
            grown = labels if entry[0] > entry[1] else labels + [entry[5]]
            grow(code + (entry,), grown, children[entry])

    for label, embeddings in starts.items():
        grow((), [label], embeddings)

    found.sort(key=lambda p: p.code)
    return found


def consequent_index(g: Digraph) -> int:
    """The pattern's consequent: its greatest-labeled sink node."""
    sources = {u for u, _, _ in g.edges}
    sinks = [i for i in range(g.n) if i not in sources]
    if not sinks:
        raise ValueError("pattern has no sink node")
    return max(sinks, key=lambda i: g.labels[i])


def remove_node(g: Digraph, idx: int) -> Digraph:
    """Drop one node and its incident arcs, reindexing the rest."""
    keep = [i for i in range(g.n) if i != idx]
    remap = {old: new for new, old in enumerate(keep)}
    return Digraph(
        tuple(g.labels[i] for i in keep),
        frozenset(
            (remap[u], remap[v], el) for u, v, el in g.edges if idx not in (u, v)
        ),
    )


def structural_confidences(
    patterns: Sequence[FailurePattern], graphs: Sequence, rule_map: Mapping
) -> list[float]:
    """Structural confidence of each pattern mined from `graphs`, in
    order: how often the pattern's context completes.

    The consequent is the greatest-labeled sink. Confidence is the count
    of graphs containing the whole pattern over the count containing the
    pattern with the consequent removed; the remainder may fall apart
    into components, which must be embedded jointly. A single-node
    pattern falls back to its rule's own confidence, found in `rule_map`
    by label.

    The whole-pattern count is the one the search found: support is
    count / len(graphs), and with count < 2**51 the float product
    `support * len(graphs)` is within 0.5 of count, so rounding it gives
    count exactly. Window graph labels are unique and their edges are keyed by
    label, so the remainder embeds in a window exactly when its labels
    are among the window's labels and its arcs, keyed by label, among the
    window's edges. Counting needs no search.
    """
    total = len(graphs)
    hosts = [(frozenset(gn.label for gn in g.nodes), g.edges) for g in graphs]
    out: list[float] = []
    for pattern in patterns:
        g = pattern.graph
        if g.n == 1:
            out.append(rule_map[g.labels[0]].confidence)
            continue
        c = consequent_index(g)
        labels = frozenset(g.labels[:c] + g.labels[c + 1 :])
        arcs = {(g.labels[u], g.labels[v], el) for u, v, el in g.edges if c not in (u, v)}
        rest = sum(1 for nodes, edges in hosts if labels <= nodes and arcs <= edges)
        out.append(round(pattern.support * total) / rest)
    return out


COMBINERS: dict[str, Callable[[Sequence[float]], float]] = {
    "geomean": lambda cs: math.prod(cs) ** (1.0 / len(cs)),
    "min": min,
    "product": math.prod,
}


def knowledge_confidence(
    pattern: FailurePattern, rule_map: Mapping, combiner: str, structural: float
) -> float:
    """Blend the structural confidence `structural` with the confidences
    of the pattern's rules in `rule_map`, keyed by label."""
    if combiner not in COMBINERS:
        raise ValueError(f"combiner must be one of {sorted(COMBINERS)}")
    confs = [rule_map[label].confidence for label in pattern.graph.labels]
    return structural * COMBINERS[combiner](confs)


def pattern_to_dot(pattern: FailurePattern, name: str = "pattern") -> str:
    """Render a pattern in DOT form; node names are dim:rule_id pairs."""
    lines = [f"digraph {name} {{"]
    for idx, label in enumerate(pattern.graph.labels):
        dim, rid = label
        text = f"{getattr(dim, 'value', dim)}:{rid}"
        weight = pattern.node_weights[idx]
        lines.append(f'  n{idx} [label="{text}\\nw={weight:.4f}"];')
    for u, v, el in sorted(pattern.graph.edges):
        lines.append(f'  n{u} -> n{v} [label="{el}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
