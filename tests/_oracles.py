"""Slow reference implementations used to check the fast miners and writers.

Everything here favors obviousness over speed: supports are counted by
materializing every window, canonical codes by enumerating every DFS
traversal, containment by trying every injective vertex mapping.
`subgraph_contains`, `weighted_support` and `pattern_confidence` score
patterns by a backtracking containment search over every host, the way
support and structural confidence are defined; the miner and
`structural_confidences` count them without a search.
`count_window_support` is no reference: it reads one sequence's support
off the episode miner's own one-pass counter, for the tests that hold
that counter to `brute_window_support`.
JSON Lines are parsed by `json.loads` per line with each field checked in
turn. Messages are masked by the four regex passes as first written, and
canonicalized one record at a time through the public constructors. The
interchange files and the knowledge document are written by building
their JSON documents and handing them to `json.dumps`, one call per line
of a JSON Lines file.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from pathlib import Path
from statistics import fmean
from typing import Hashable, Iterable, Mapping, Sequence

from logloom import (
    CanonicalEvent,
    Digraph,
    Dimension,
    FailurePattern,
    KnowledgeBase,
    LogRecord,
    ParseError,
    ParseResult,
    RejectEntry,
    RuleInstance,
    TemplateTable,
    WindowGraph,
)
from logloom.episodes import _completions, _support_counter
from logloom.patterns import consequent_index, remove_node


def _reference_record(obj: object, dim_default: Dimension | None) -> LogRecord | str:
    """The record of one decoded line, or the reason it is rejected."""
    if not isinstance(obj, dict):
        return "record must be an object"
    for key in ("ts", "node", "msg"):
        if key not in obj:
            return f"missing field: {key}"
    ts = obj["ts"]
    if isinstance(ts, str):
        try:
            ts = float(ts)
        except ValueError:
            return "ts must be a number"
    if isinstance(ts, bool) or not isinstance(ts, (int, float)):
        return "ts must be a number"
    if not math.isfinite(ts) or ts < 0:
        return "ts must be a finite number >= 0"
    node, msg = obj["node"], obj["msg"]
    if not isinstance(node, str) or not node:
        return "node must be a non-empty string"
    if not isinstance(msg, str):
        return "msg must be a string"
    raw_dim = obj.get("dim")
    if raw_dim is None or raw_dim == "":
        if dim_default is None:
            return "record has no dimension"
        dim = dim_default
    else:
        try:
            dim = Dimension(raw_dim)
        except ValueError:
            return f"unknown dimension: {raw_dim!r}"
    return LogRecord(float(ts), node, dim, msg)


def reference_parse_jsonl(
    lines: Iterable[str | bytes], dim_default: Dimension | None = None
) -> ParseResult:
    """`parse_lines(lines, "jsonl", dim_default)` by `json.loads` per line."""
    records: list[LogRecord] = []
    rejects: list[RejectEntry] = []
    for line_no, line in enumerate(lines, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                rejects.append(RejectEntry(line_no, "not valid UTF-8", "<binary>"))
                continue
        text = line.strip()
        if not text:
            continue
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            msg = exc.msg if isinstance(exc, json.JSONDecodeError) else exc
            rejects.append(RejectEntry(line_no, f"invalid JSON: {msg}", text))
            continue
        record = _reference_record(obj, dim_default)
        if isinstance(record, str):
            rejects.append(RejectEntry(line_no, record, text))
        else:
            records.append(record)
    total = len(records) + len(rejects)
    if total and len(rejects) * 2 > total:
        raise ParseError(f"rejected {len(rejects)} of {total} lines", rejects)
    return ParseResult(records, rejects)


# The masking chain as first written: each pattern opens with its
# lookbehind. logloom.ingest spells the same patterns for speed.
_IP_RE = re.compile(r"(?<!\d)\d{1,3}(?:\.\d{1,3}){3}(?!\d)")
_HEX_RE = re.compile(r"\b(?:0[xX][0-9a-fA-F]{4,}|[0-9a-fA-F]{4,})\b")
_PATH_RE = re.compile(r"(?<!\S)/\S*")
_NUM_RE = re.compile(r"\d+")


def reference_mask(msg: str) -> str:
    """IP, HEX, PATH and NUM masks, applied in that order."""
    if msg == "":
        return "<EMPTY>"
    masked = _IP_RE.sub("<IP>", msg)
    masked = _HEX_RE.sub("<HEX>", masked)
    masked = _PATH_RE.sub("<PATH>", masked)
    masked = _NUM_RE.sub("<NUM>", masked)
    return masked


def reference_canonicalize(
    records: Iterable[LogRecord], table: TemplateTable
) -> tuple[list[CanonicalEvent], list[RejectEntry]]:
    """Mask and register each record in turn, then sort the events."""
    events: list[CanonicalEvent] = []
    rejects: list[RejectEntry] = []
    for pos, record in enumerate(records, start=1):
        if record.dim is None:
            rejects.append(RejectEntry(pos, "record has no dimension", record.msg))
            continue
        tid = table.id_for(reference_mask(record.msg))
        events.append(CanonicalEvent(record.ts, record.node, record.dim, tid))
    events.sort(key=lambda e: e.sort_key)
    return events, rejects


def _is_subsequence(needle: Sequence[int], hay: Sequence[int]) -> bool:
    it = iter(hay)
    return all(any(label == h for h in it) for label in needle)


def count_window_support(
    labels: Sequence[int],
    events: Sequence[CanonicalEvent],
    window: float,
    granularity: float,
) -> float:
    """Fraction of sliding windows containing `labels` as an ordered occurrence.

    `events` must be one dimension's slice of the canonical stream, sorted.
    """
    supports = _support_counter(events, window, granularity)
    return supports(_completions([labels], events)).get(0, 0.0)


def brute_window_support(
    labels: Sequence[int],
    events: Sequence[CanonicalEvent],
    window: float,
    granularity: float = 1.0,
) -> float:
    """Materialize every window slice and test subsequence containment."""
    w = round(window / granularity)
    ticks = [int(ev.ts // granularity) for ev in events]
    t_min, t_max = min(ticks), max(ticks)
    total = t_max - t_min + w
    hits = 0
    for start in range(t_min - w + 1, t_max + 1):
        slice_labels = [
            ev.template for ev, t in zip(events, ticks) if start <= t < start + w
        ]
        if _is_subsequence(labels, slice_labels):
            hits += 1
    return hits / total


def brute_episodes(
    events: Sequence[CanonicalEvent],
    window: float,
    min_sup: float,
    k_max: int,
    granularity: float = 1.0,
) -> dict[tuple[int, ...], float]:
    """Every label sequence up to k_max, kept when frequent enough."""
    alphabet = sorted({ev.template for ev in events})
    out: dict[tuple[int, ...], float] = {}
    for k in range(1, k_max + 1):
        for seq in itertools.product(alphabet, repeat=k):
            sup = brute_window_support(seq, events, window, granularity)
            if sup >= min_sup:
                out[seq] = sup
    return out


def brute_minimal_instances(
    labels: Sequence[int], events: Sequence[CanonicalEvent], window: float
) -> list[tuple[float, float]]:
    """All minimal occurrence intervals of `labels`, at most `window` wide.

    Returned as (start_ts, end_ts) sorted by end; node attribution is
    left to the caller since several events can complete one interval.
    """
    k = len(labels)
    occurrences: set[tuple[float, float]] = set()
    positions = [i for i in range(len(events))]
    for combo in itertools.combinations(positions, k):
        if all(events[i].template == labels[n] for n, i in enumerate(combo)):
            occurrences.add((events[combo[0]].ts, events[combo[-1]].ts))
    minimal = {
        (s, e)
        for (s, e) in occurrences
        if not any(
            (s2, e2) != (s, e) and s2 >= s and e2 <= e for (s2, e2) in occurrences
        )
    }
    return sorted(((s, e) for (s, e) in minimal if e - s <= window), key=lambda p: p[1])


def _arc_labels(g: Digraph) -> dict[tuple[int, int], str]:
    return {(u, v): el for u, v, el in g.edges}


def brute_contains(host: Digraph, pattern: Digraph) -> bool:
    """Injective label-preserving arc-preserving embedding, all mappings."""
    host_arcs = _arc_labels(host)
    for chosen in itertools.permutations(range(host.n), pattern.n):
        if any(host.labels[h] != pattern.labels[p] for p, h in enumerate(chosen)):
            continue
        if all(
            host_arcs.get((chosen[u], chosen[v])) == el for u, v, el in pattern.edges
        ):
            return True
    return False


def brute_isomorphic(a: Digraph, b: Digraph) -> bool:
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    return brute_contains(a, b) and brute_contains(b, a)


def brute_min_code(g: Digraph):
    """Minimum DFS code by enumerating every depth-first traversal.

    Per traversal, a newly discovered vertex first emits its forward
    entry, then every edge back to an already-discovered vertex in
    ascending discovery order; that arrangement is the cheapest for a
    fixed tree, so the minimum over traversals is the canonical code.
    """
    n = g.n
    arcs = _arc_labels(g)
    neighbors: dict[int, set[int]] = {i: set() for i in range(n)}
    for u, v, _ in g.edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    if n == 1:
        label = g.labels[0]
        return ((0, 0, label, 0, None, label),)

    def entry(i: int, j: int, hu: int, hv: int):
        if (hu, hv) in arcs:
            direction, el = 0, arcs[(hu, hv)]
        else:
            direction, el = 1, arcs[(hv, hu)]
        return (i, j, g.labels[hu], direction, el, g.labels[hv])

    def code_key(code):
        out = []
        for e in code:
            labels = (e[2], e[3], e[4], e[5])
            if e[1] < e[0]:
                out.append((0, e[1], labels))
            else:
                out.append((1, -e[0], labels))
        return tuple(out)

    best = None
    best_key = None

    def walk(stack, pos, code):
        nonlocal best, best_key
        while stack:
            cur = stack[-1]
            fresh = [w for w in neighbors[cur] if w not in pos]
            if fresh:
                break
            stack = stack[:-1]
        else:
            k = code_key(code)
            if best_key is None or k < best_key:
                best, best_key = tuple(code), k
            return
        by_id = {i: h for h, i in pos.items()}
        for w in fresh:
            j = len(pos)
            grown = code + [entry(pos[cur], j, cur, w)]
            backs = sorted(pos[u] for u in neighbors[w] if u in pos and u != cur)
            for ju in backs:
                grown.append(entry(j, ju, w, by_id[ju]))
            walk(stack + [w], {**pos, w: j}, grown)

    for root in range(n):
        walk([root], {root: 0}, [])
    return best


def brute_pattern_universe(
    graphs: Sequence[Digraph],
    weights: dict,
    ws_min: float,
    p_max: int,
) -> dict[tuple, tuple[float, float]]:
    """Every connected sub-digraph of any host, scored the slow way.

    Returns canonical code -> (support, weighted support), keeping only
    entries whose weighted support clears `ws_min`.
    """
    candidates: dict[tuple, Digraph] = {}
    for host in graphs:
        host_arcs = [(u, v, el) for u, v, el in host.edges]
        for size in range(1, min(p_max, host.n) + 1):
            for vertices in itertools.combinations(range(host.n), size):
                vset = set(vertices)
                inner = [a for a in host_arcs if a[0] in vset and a[1] in vset]
                for arc_count in range(len(inner) + 1):
                    for arc_subset in itertools.combinations(inner, arc_count):
                        remap = {h: i for i, h in enumerate(vertices)}
                        sub = Digraph(
                            tuple(host.labels[h] for h in vertices),
                            frozenset(
                                (remap[u], remap[v], el) for u, v, el in arc_subset
                            ),
                        )
                        if not _weakly_connected(sub):
                            continue
                        candidates.setdefault(brute_min_code(sub), sub)

    out: dict[tuple, tuple[float, float]] = {}
    for code, pattern in candidates.items():
        hits = sum(1 for host in graphs if brute_contains(host, pattern))
        support = hits / len(graphs)
        ws = support * fmean(weights[label] for label in pattern.labels)
        if ws >= ws_min:
            out[code] = (support, ws)
    return out


def _weakly_connected(g: Digraph) -> bool:
    if g.n <= 1:
        return True
    adj: dict[int, set[int]] = {i: set() for i in range(g.n)}
    for u, v, _ in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def subgraph_contains(host: Digraph, pattern: Digraph) -> bool:
    """Injective monomorphism test: every pattern arc must appear in the
    host with matching direction and labels; extra host arcs are fine.

    The pattern may be disconnected. Matching is exponential in pattern
    size in the worst case, which stays small here by construction.
    """
    if pattern.n == 0:
        raise ValueError("pattern is empty")
    if pattern.n > host.n:
        return False

    order = _matching_order(pattern)
    arcs = _oriented_arcs(host)
    pattern_arcs = _oriented_arcs(pattern)
    by_label: dict[Hashable, list[int]] = {}
    for idx, label in enumerate(host.labels):
        by_label.setdefault(label, []).append(idx)

    assignment: dict[int, int] = {}
    taken: set[int] = set()

    def place(k: int) -> bool:
        if k == len(order):
            return True
        pv = order[k]
        checks = [
            (assignment[pw], da, el)
            for (pa, pw), (da, el) in pattern_arcs.items()
            if pa == pv and pw in assignment
        ]
        for hv in by_label.get(pattern.labels[pv], ()):
            if hv in taken:
                continue
            if all(arcs.get((hv, hw)) == (da, el) for hw, da, el in checks):
                assignment[pv] = hv
                taken.add(hv)
                if place(k + 1):
                    return True
                del assignment[pv]
                taken.discard(hv)
        return False

    return place(0)


def _oriented_arcs(g: Digraph) -> dict[tuple[int, int], tuple[int, Hashable]]:
    """(a, b) -> (0, label) for each arc a -> b, and (1, label) for its reverse."""
    arcs: dict[tuple[int, int], tuple[int, Hashable]] = {}
    for u, v, el in g.edges:
        arcs[(u, v)] = (0, el)
        arcs[(v, u)] = (1, el)
    return arcs


def _matching_order(pattern: Digraph) -> list[int]:
    """Vertex order where each vertex after its component's first is
    adjacent to an earlier one, keeping the matcher's frontier connected."""
    adj: list[list[int]] = [[] for _ in range(pattern.n)]
    for u, v, _ in pattern.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen: set[int] = set()
    order: list[int] = []
    for start in range(pattern.n):
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return order


def window_digraph(g: WindowGraph) -> Digraph:
    """A window graph as a Digraph whose vertices are its nodes, in order."""
    index = {gn.label: i for i, gn in enumerate(g.nodes)}
    return Digraph(
        labels=tuple(gn.label for gn in g.nodes),
        edges=frozenset((index[u], index[v], el) for u, v, el in g.edges),
    )


def _as_digraph(g) -> Digraph:
    return g if isinstance(g, Digraph) else window_digraph(g)


def weighted_support(
    pattern: Digraph,
    graphs: Sequence,
    label_weights: Mapping[Hashable, float],
) -> tuple[float, float]:
    """(support, weighted support) of `pattern` over the graph database.

    Support is the fraction of graphs containing the pattern; weighted
    support scales it by the arithmetic mean of the pattern's node
    weights, looked up by label.
    """
    if not graphs:
        raise ValueError("graph database is empty")
    hosts = [_as_digraph(g) for g in graphs]
    mean_w = fmean(label_weights[label] for label in pattern.labels)
    count = sum(1 for h in hosts if subgraph_contains(h, pattern))
    support = count / len(hosts)
    return support, support * mean_w


def pattern_confidence(pattern: FailurePattern, graphs: Sequence, rules) -> float:
    """Structural confidence: how often the pattern's context completes.

    The consequent is the greatest-labeled sink. Confidence is the count
    of graphs containing the whole pattern over the count containing the
    pattern with the consequent removed; the remainder may fall apart
    into components, which must be embedded jointly. A single-node
    pattern falls back to its rule's own confidence.
    """
    g = pattern.graph
    if g.n == 1:
        return {rule.label: rule for rule in rules}[g.labels[0]].confidence
    hosts = [_as_digraph(x) for x in graphs]

    reduced = remove_node(g, consequent_index(g))

    full_count = sum(1 for h in hosts if subgraph_contains(h, g))
    if full_count == 0:
        raise ValueError("pattern does not occur in the graph database")
    reduced_count = sum(1 for h in hosts if subgraph_contains(h, reduced))
    return full_count / reduced_count




def reference_write_jsonl(rows: Iterable[Mapping], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def reference_write_events(events: Iterable[CanonicalEvent], path: str | Path) -> None:
    rows = (
        {"ts": ev.ts, "node": ev.node, "dim": ev.dim.value,
         "template": ev.template, "count": ev.count}
        for ev in events
    )
    reference_write_jsonl(rows, path)


def reference_write_instances(instances: Iterable[RuleInstance], path: str | Path) -> None:
    rows = (
        {"rule_id": inst.rule_id, "dim": inst.dim.value, "anchor": inst.anchor,
         "span": list(inst.span), "node": inst.node}
        for inst in instances
    )
    reference_write_jsonl(rows, path)


def reference_write_graphs(graphs: Sequence[WindowGraph], path: str | Path) -> None:
    doc = {
        "version": 1,
        "graphs": [
            {
                "window_index": g.window_index,
                "nodes": [
                    {
                        "dim": gn.label[0].value,
                        "rule_id": gn.label[1],
                        "weight": gn.weight,
                        "anchor": gn.anchor,
                        "node": gn.node,
                    }
                    for gn in g.nodes
                ],
                "edges": sorted(
                    [[u[0].value, u[1], v[0].value, v[1], kind]
                     for u, v, kind in g.edges]
                ),
            }
            for g in graphs
        ],
    }
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def reference_export(kb: KnowledgeBase) -> str:
    """The knowledge document of `kb`, built whole and dumped by `json.dumps`."""
    doc = {
        "version": 1,
        "metadata": kb.metadata,
        "templates": [[tid, masked] for tid, masked in kb.templates.items()],
        "rules": [
            {
                "rule_id": r.rule_id,
                "dim": r.dim.value,
                "antecedent": list(r.antecedent),
                "consequent": r.consequent,
                "support": r.support,
                "confidence": r.confidence,
            }
            for r in sorted(kb.rules.values(), key=lambda r: (r.dim.rank, r.rule_id))
        ],
        "patterns": [
            {
                "nodes": [
                    [i, label[0].value, label[1], weight]
                    for i, (label, weight) in enumerate(zip(p.graph.labels, p.node_weights))
                ],
                "edges": sorted([u, v, el] for u, v, el in p.graph.edges),
                "support": p.support,
                "weighted_support": p.weighted_support,
                "structural_confidence": p.structural_confidence,
                "knowledge_confidence": p.knowledge_confidence,
                "provenance": sorted(p.provenance),
            }
            for _, p in sorted(kb.patterns.items(), key=lambda item: item[0])
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
