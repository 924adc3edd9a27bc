import itertools
import random
from collections import Counter
from statistics import fmean

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logloom import (
    Digraph,
    Dimension,
    FailurePattern,
    GraphNode,
    PipelineConfig,
    SequenceRule,
    WindowGraph,
    knowledge_confidence,
    min_dfs_code,
    mine_patterns,
    pattern_to_dot,
)
from logloom import patterns as patterns_module
from logloom.pipeline import patterns_stage

from _oracles import (
    brute_contains,
    brute_isomorphic,
    brute_min_code,
    brute_pattern_universe,
    pattern_confidence,
    subgraph_contains,
    weighted_support,
    window_digraph,
)
from conftest import random_connected_digraph, relabel

A = (Dimension.EVENT, 0)
B = (Dimension.EVENT, 1)
C = (Dimension.STATUS, 0)
D = (Dimension.STATUS, 1)


def g(labels, edges):
    return Digraph(tuple(labels), frozenset(edges))


def _random_host(rng, n_max=4):
    """Random digraph, connected or not, labels from a 4-symbol pool."""
    base = random_connected_digraph(rng, n_max=n_max)
    labels = tuple(rng.choice([A, B, C, D]) for _ in range(base.n))
    edges = frozenset(e for e in base.edges if rng.random() > 0.2)
    return Digraph(labels, edges)


class TestDigraph:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            g([A], [(0, 1, "same")])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            g([A, B], [(0, 0, "same")])

    def test_rejects_antiparallel_pair(self):
        with pytest.raises(ValueError):
            g([A, B], [(0, 1, "same"), (1, 0, "same")])

    def test_directed_cycle_without_antiparallel_is_fine(self):
        cycle = g([A, B, C], [(0, 1, "same"), (1, 2, "same"), (2, 0, "same")])
        assert cycle.n == 3


class TestMinDfsCode:
    def test_singleton(self):
        assert min_dfs_code(g([A], [])) == ((0, 0, A, 0, None, A),)

    def test_three_node_path_all_relabelings_agree(self):
        base = g([A, B, C], [(0, 1, "same"), (1, 2, "cross")])
        codes = {
            min_dfs_code(relabel(base, list(perm)))
            for perm in itertools.permutations(range(3))
        }
        assert len(codes) == 1

    def test_direction_distinguishes(self):
        fwd = g([A, A], [(0, 1, "same")])
        rev = g([A, A], [(1, 0, "same")])
        assert min_dfs_code(fwd) == min_dfs_code(rev)  # isomorphic via swap
        mixed_a = g([A, B], [(0, 1, "same")])
        mixed_b = g([A, B], [(1, 0, "same")])
        assert min_dfs_code(mixed_a) != min_dfs_code(mixed_b)

    def test_edge_label_distinguishes(self):
        same = g([A, B], [(0, 1, "same")])
        cross = g([A, B], [(0, 1, "cross")])
        assert min_dfs_code(same) != min_dfs_code(cross)

    def test_empty_and_disconnected_rejected(self):
        with pytest.raises(ValueError):
            min_dfs_code(g([], []))
        with pytest.raises(ValueError):
            min_dfs_code(g([A, B], []))

    def test_matches_all_traversal_enumeration(self, rng):
        # Two vertices carry the least label A; the minimum code starts at
        # the first of them in one graph and at the second in the other.
        for twin in (
            g([A, B, A], [(0, 1, "same"), (2, 1, "cross")]),
            g([A, B, A, C], [(0, 1, "cross"), (2, 1, "same"), (2, 3, "same")]),
        ):
            assert min_dfs_code(twin) == brute_min_code(twin)
        for _ in range(400):
            graph = random_connected_digraph(rng)
            assert min_dfs_code(graph) == brute_min_code(graph)

    def test_relabeling_invariance(self, rng):
        for _ in range(150):
            graph = random_connected_digraph(rng)
            perm = list(range(graph.n))
            rng.shuffle(perm)
            assert min_dfs_code(relabel(graph, perm)) == min_dfs_code(graph)

    def test_code_equality_iff_isomorphic(self, rng):
        graphs = [random_connected_digraph(rng, n_max=4, label_pool=2) for _ in range(60)]
        for a, b in itertools.combinations(graphs, 2):
            same_code = min_dfs_code(a) == min_dfs_code(b)
            assert same_code == brute_isomorphic(a, b)


DISTINCT_POOL = [(dim, rid) for dim in Dimension for rid in range(3)]


@st.composite
def distinct_label_digraphs(draw):
    """Connected digraph of 2-6 vertices with distinct labels: a random
    spanning tree plus random extra arcs, directions and kinds drawn."""
    n = draw(st.integers(2, 6))
    labels = draw(st.lists(st.sampled_from(DISTINCT_POOL), min_size=n, max_size=n, unique=True))
    kinds = st.sampled_from(["same", "cross"])
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        a, b = (u, v) if draw(st.booleans()) else (v, u)
        edges.add((a, b, draw(kinds)))
    joined = {frozenset((u, v)) for u, v, _ in edges}
    for u, v in itertools.combinations(range(n), 2):
        if frozenset((u, v)) not in joined and draw(st.booleans()):
            a, b = (u, v) if draw(st.booleans()) else (v, u)
            edges.add((a, b, draw(kinds)))
    return g(labels, edges)


def _dfs_code(graph, rnd):
    """Code of one random DFS traversal of `graph`, with its labels in
    discovery order. Each new vertex emits its tree entry, then its
    backward entries in ascending discovery order."""
    arcs = {(u, v): el for u, v, el in graph.edges}
    nbrs = {v: set() for v in range(graph.n)}
    for u, v, _ in graph.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)

    def entry(i, j, hu, hv):
        if (hu, hv) in arcs:
            return (i, j, graph.labels[hu], 0, arcs[(hu, hv)], graph.labels[hv])
        return (i, j, graph.labels[hu], 1, arcs[(hv, hu)], graph.labels[hv])

    start = rnd.randrange(graph.n)
    pos, stack, code = {start: 0}, [start], []
    while stack:
        cur = stack[-1]
        fresh = sorted(nbrs[cur] - pos.keys())
        if not fresh:
            stack.pop()
            continue
        w = rnd.choice(fresh)
        pos[w] = len(pos)
        code.append(entry(pos[cur], pos[w], cur, w))
        for u in sorted(nbrs[w] & pos.keys() - {cur, w}, key=pos.get):
            code.append(entry(pos[w], pos[u], w, u))
        stack.append(w)
    return tuple(code), [graph.labels[v] for v in sorted(pos, key=pos.get)]


class TestDistinctLabelReplay:
    @settings(max_examples=300, deadline=None)
    @given(distinct_label_digraphs(), st.randoms(use_true_random=False))
    def test_replay_equals_full_search(self, graph, rnd):
        """On minimum codes and on codes of other DFS traversals, the
        replay agrees with comparing against the full canonical search."""
        minimum, order = patterns_module._min_code_with_order(graph)
        codes = [(minimum, [graph.labels[v] for v in order])]
        codes += [_dfs_code(graph, rnd) for _ in range(4)]
        for code, labels in codes:
            full = min_dfs_code(patterns_module._code_to_graph(code, labels)) == code
            assert patterns_module._is_min_code(code, labels) == full
        assert patterns_module._is_min_code(*codes[0])


class TestSubgraphContains:
    def test_non_induced_extra_arcs_allowed(self):
        host = g([A, B, C], [(0, 1, "same"), (1, 2, "same"), (0, 2, "cross")])
        assert subgraph_contains(host, g([A, C], [(0, 1, "cross")]))

    def test_direction_respected(self):
        host = g([A, B], [(0, 1, "same")])
        assert subgraph_contains(host, g([A, B], [(0, 1, "same")]))
        assert not subgraph_contains(host, g([A, B], [(1, 0, "same")]))

    def test_edge_label_respected(self):
        host = g([A, B], [(0, 1, "same")])
        assert not subgraph_contains(host, g([A, B], [(0, 1, "cross")]))

    def test_injective_mapping_required(self):
        host = g([A, B], [(0, 1, "same")])
        pattern = g([A, A], [])
        assert not subgraph_contains(host, pattern)

    def test_disconnected_pattern(self):
        host = g([A, B, C], [(0, 1, "same")])
        assert subgraph_contains(host, g([A, C], []))
        assert not subgraph_contains(host, g([A, D], []))

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            subgraph_contains(g([A], []), g([], []))

    def test_matches_brute_force(self, rng):
        for _ in range(300):
            host = _random_host(rng, n_max=5)
            pattern = _random_host(rng, n_max=3)
            assert subgraph_contains(host, pattern) == brute_contains(host, pattern)


WEIGHTS = {A: 1.0, B: 0.8, C: 0.6, D: 0.4}


class TestWeightedSupport:
    def test_formula(self):
        hosts = [
            g([A, B], [(0, 1, "same")]),
            g([A, C], []),
            g([B], []),
        ]
        pattern = g([A, B], [(0, 1, "same")])
        support, ws = weighted_support(pattern, hosts, WEIGHTS)
        assert support == pytest.approx(1 / 3)
        assert ws == pytest.approx((1 / 3) * (1.0 + 0.8) / 2)

    def test_empty_database_rejected(self):
        with pytest.raises(ValueError):
            weighted_support(g([A], []), [], WEIGHTS)


class TestMinePatterns:
    def test_matches_brute_universe(self, rng):
        for _ in range(30):
            hosts = [_random_host(rng) for _ in range(rng.randint(1, 8))]
            ws_min = rng.choice([0.1, 0.3])
            for p_max in (4, 1):
                mined = mine_patterns(hosts, WEIGHTS, ws_min=ws_min, p_max=p_max)
                got = {p.code: (p.support, p.weighted_support) for p in mined}
                want = brute_pattern_universe(hosts, WEIGHTS, ws_min, p_max=p_max)
                assert got.keys() == want.keys()
                for code, (sup, ws) in want.items():
                    assert got[code][0] == pytest.approx(sup)
                    assert got[code][1] == pytest.approx(ws)

    def test_codes_canonical_unique_sorted(self, rng):
        hosts = [_random_host(rng) for _ in range(6)]
        mined = mine_patterns(hosts, WEIGHTS, ws_min=0.1, p_max=4)
        codes = [p.code for p in mined]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)
        for p in mined:
            assert min_dfs_code(p.graph) == p.code
            assert p.weighted_support <= p.support + 1e-12

    def test_p_max_caps_pattern_size(self, rng):
        hosts = [_random_host(rng) for _ in range(5)]
        for p in mine_patterns(hosts, WEIGHTS, ws_min=0.1, p_max=2):
            assert p.graph.n <= 2

    def test_threshold_equals_post_filter(self, rng):
        # cutting at ws_min must equal mining low and filtering afterwards
        hosts = [_random_host(rng) for _ in range(6)]
        strict = {p.code for p in mine_patterns(hosts, WEIGHTS, ws_min=0.4, p_max=4)}
        loose = {
            p.code
            for p in mine_patterns(hosts, WEIGHTS, ws_min=0.01, p_max=4)
            if p.weighted_support >= 0.4
        }
        assert strict == loose

    def test_window_hosts_with_infrequent_arcs_match_brute_universe(self, rng):
        infrequent = 0
        for _ in range(20):
            windows = [_random_window(rng, index) for index in range(rng.randint(2, 7))]
            ws_min = rng.choice([0.25, 0.4])
            support = _arc_support(windows)
            infrequent += sum(1 for n in support.values() if n / len(windows) < ws_min)
            mined = mine_patterns(windows, POOL_WEIGHTS, ws_min=ws_min, p_max=4)
            got = {p.code: (p.support, p.weighted_support) for p in mined}
            hosts = [window_digraph(w) for w in windows]
            want = brute_pattern_universe(hosts, POOL_WEIGHTS, ws_min, p_max=4)
            assert got.keys() == want.keys()
            for code, (sup, ws) in want.items():
                assert got[code][0] == pytest.approx(sup)
                assert got[code][1] == pytest.approx(ws)
        assert infrequent > 0

    def test_search_builds_nothing_for_infrequent_arcs_or_full_canonical_search(
        self, monkeypatch
    ):
        """The hosts the search walks hold no arc whose label triple is below
        ws_min, so no embedding uses one, and distinct-label codes never
        reach the all-start canonical search."""
        # A -cross-> B -cross-> C with A -same-> C is frequent at 0.5; every
        # arc touching D, and A -cross-> C, is in one window of four
        windows = [
            _window(0, [A, B, C, D], [(A, B, "cross"), (B, C, "cross"), (A, C, "same"),
                                      (C, D, "same")]),
            _window(1, [A, B, C], [(A, B, "cross"), (B, C, "cross"), (A, C, "same")]),
            _window(2, [D, A, B, C], [(A, B, "cross"), (B, C, "cross"), (D, A, "same"),
                                      (D, C, "cross")]),
            _window(3, [A, C], [(A, C, "cross")]),
        ]
        support = _arc_support(windows)
        walked, searched = [], []
        frequent_hosts, full_search = (
            patterns_module._frequent_hosts, patterns_module._min_code_with_order
        )

        def recording_hosts(graphs, ws_min):
            hosts = frequent_hosts(graphs, ws_min)
            walked.extend(hosts)
            return hosts

        def counting_search(graph):
            searched.append(graph)
            return full_search(graph)

        monkeypatch.setattr(patterns_module, "_frequent_hosts", recording_hosts)
        monkeypatch.setattr(patterns_module, "_min_code_with_order", counting_search)
        mined = mine_patterns(windows, {label: 1.0 for label in LABEL_POOL}, ws_min=0.5, p_max=6)
        assert max(p.graph.n for p in mined) == 3
        assert len(walked) == len(windows) and not searched
        # every embedding maps its arcs onto arcs of these hosts
        kept = [(h.labels[u], h.labels[v], el) for h in walked for u, v, el in h.edges]
        assert kept and len(kept) < sum(len(w.edges) for w in windows)
        for arc in kept:
            assert support[arc] / len(windows) >= 0.5
        # a code with repeated labels still takes the full search
        mine_patterns(
            [g([A, A, B], [(0, 1, "same"), (1, 2, "same")])], WEIGHTS, ws_min=0.1, p_max=6
        )
        assert searched

    def test_validation(self):
        with pytest.raises(ValueError):
            mine_patterns([], WEIGHTS, ws_min=0.1, p_max=6)
        host = [g([A], [])]
        with pytest.raises(ValueError):
            mine_patterns(host, WEIGHTS, ws_min=0.0, p_max=6)
        with pytest.raises(ValueError):
            mine_patterns(host, WEIGHTS, ws_min=0.1, p_max=0)


class TestFailurePattern:
    def test_build_canonicalizes_vertex_order(self, rng):
        base = random_connected_digraph(rng, n_max=5)
        weights = [0.5 + 0.1 * (i % 5) for i in range(base.n)]
        perm = list(range(base.n))
        rng.shuffle(perm)
        twisted = relabel(base, perm)
        twisted_weights = [0.0] * base.n
        for i, w in enumerate(weights):
            twisted_weights[perm[i]] = w
        p1 = FailurePattern.build(base, weights, 0.5, 0.25)
        p2 = FailurePattern.build(twisted, twisted_weights, 0.5, 0.25)
        assert p1.graph == p2.graph
        assert p1.code == p2.code
        assert p1.node_weights == p2.node_weights

    def test_score_range_validation(self):
        graph = g([A], [])
        with pytest.raises(ValueError):
            FailurePattern.build(graph, [1.0], support=0.5, weighted_support=0.6)
        with pytest.raises(ValueError):
            FailurePattern.build(graph, [2.0], support=0.5, weighted_support=0.5)
        with pytest.raises(ValueError):
            FailurePattern.build(graph, [1.0], support=1.5, weighted_support=0.5)


def _atomic_rule(label, support=0.5, confidence=0.9):
    dim, rid = label
    return SequenceRule(rid, dim, (), 0, support, confidence)


class TestConfidence:
    def test_structural_confidence_counts_consequent_completion(self):
        # A -> B completes in 2 of the 3 hosts that contain A
        hosts = [
            g([A, B], [(0, 1, "cross")]),
            g([A, B], [(0, 1, "cross")]),
            g([A], []),
        ]
        pattern = next(
            p
            for p in mine_patterns(hosts, {A: 1.0, B: 1.0}, ws_min=0.1, p_max=2)
            if p.graph.n == 2
        )
        rules = [_atomic_rule(A), _atomic_rule(B)]
        assert pattern_confidence(pattern, hosts, rules) == pytest.approx(2 / 3)

    def test_single_node_falls_back_to_rule_confidence(self):
        hosts = [g([A], [])]
        (p,) = mine_patterns(hosts, {A: 1.0}, ws_min=0.1, p_max=1)
        assert pattern_confidence(p, hosts, [_atomic_rule(A, confidence=0.7)]) == 0.7

    def test_cycle_has_no_consequent(self):
        cycle = g([A, B, C], [(0, 1, "same"), (1, 2, "same"), (2, 0, "same")])
        pattern = FailurePattern.build(cycle, [1.0, 1.0, 1.0], 0.5, 0.5)
        with pytest.raises(ValueError):
            pattern_confidence(pattern, [cycle], [_atomic_rule(A), _atomic_rule(B), _atomic_rule(C)])

    def test_knowledge_confidence_combiners(self):
        hosts = [g([A, B], [(0, 1, "cross")])]
        (pattern,) = [
            p for p in mine_patterns(hosts, {A: 1.0, B: 1.0}, 0.1, p_max=2) if p.graph.n == 2
        ]
        import dataclasses

        pattern = dataclasses.replace(pattern, structural_confidence=0.5)
        rules = {A: _atomic_rule(A, confidence=0.9), B: _atomic_rule(B, confidence=0.4)}
        structural = pattern.structural_confidence
        geo = knowledge_confidence(pattern, rules, "geomean", structural)
        low = knowledge_confidence(pattern, rules, "min", structural)
        prod = knowledge_confidence(pattern, rules, "product", structural)
        assert geo == pytest.approx(0.5 * (0.9 * 0.4) ** 0.5)
        assert low == pytest.approx(0.5 * 0.4)
        assert prod == pytest.approx(0.5 * 0.36)
        with pytest.raises(ValueError):
            knowledge_confidence(pattern, rules, "mean", structural)


def _window(index, labels, edges):
    """Window graph whose anchors follow `labels` order."""
    nodes = tuple(GraphNode(label, 1.0, float(k), "n1") for k, label in enumerate(labels))
    return WindowGraph(index, nodes, frozenset(edges))


LABEL_POOL = [(dim, rid) for dim in (Dimension.EVENT, Dimension.STATUS) for rid in range(3)]
POOL_RULES = [_atomic_rule(label, confidence=0.5 + 0.1 * label[1]) for label in LABEL_POOL]
SCORING_CFG = PipelineConfig(ws_min=0.1, p_max=4)
POOL_WEIGHTS = {label: 0.5 + 0.1 * k for k, label in enumerate(LABEL_POOL)}


def _random_window(rng, index):
    """Window of 1-5 distinct pool labels; each forward pair gets an edge
    with probability one half."""
    labels = rng.sample(LABEL_POOL, rng.randint(1, 5))
    edges = {
        (u, v, rng.choice(["same", "cross"]))
        for j, v in enumerate(labels)
        for u in labels[:j]
        if rng.random() < 0.5
    }
    return _window(index, labels, edges)


def _arc_support(windows):
    """Windows holding each label-keyed edge; a window has each at most once."""
    return Counter(e for w in windows for e in w.edges)


# V shape: removing the consequent C leaves A and B as two components
V_DB = [
    _window(0, [A, B, C], [(A, C, "cross"), (B, C, "cross")]),
    _window(1, [A, B, C], [(A, C, "cross")]),
    _window(2, [A, B], []),
    _window(3, [A], []),
]


@st.composite
def window_databases(draw):
    """1-6 windows of at most 6 nodes with unique labels; arcs only run
    forward in node order, so every window is acyclic."""
    graphs = []
    for index in range(draw(st.integers(1, 6))):
        labels = draw(st.lists(st.sampled_from(LABEL_POOL), min_size=1, max_size=6, unique=True))
        edges = set()
        for j, v in enumerate(labels):
            for u in labels[:j]:
                kind = draw(st.sampled_from([None, "same", "cross"]))
                if kind:
                    edges.add((u, v, kind))
        graphs.append(_window(index, labels, edges))
    return graphs


class TestEmittedWeightedSupport:
    @settings(max_examples=60, deadline=None)
    @given(
        graphs=window_databases(),
        weights=st.lists(st.floats(0, 1), min_size=len(LABEL_POOL), max_size=len(LABEL_POOL)),
    )
    # one window of three holds the path A -> B -> C, weighted 0.5, 0.5
    # and 0.6: support * (s / n) and support * s / n differ in the last bit
    @example(
        graphs=[_window(0, [A, B, C], [(A, B, "same"), (B, C, "same")]),
                _window(1, [A], []), _window(2, [A], [])],
        weights=[0.5, 0.5, 1.0, 0.6, 1.0, 1.0],
    )
    def test_is_support_times_fmean_bit_for_bit(self, graphs, weights):
        label_weights = dict(zip(LABEL_POOL, weights))
        for p in mine_patterns(graphs, label_weights, ws_min=0.01, p_max=4):
            assert p.weighted_support.hex() == (p.support * fmean(p.node_weights)).hex()


class TestStructuralConfidences:
    @settings(max_examples=40, deadline=None)
    @given(window_databases())
    def test_equals_reference_on_every_mined_pattern(self, graphs):
        for p in patterns_stage(SCORING_CFG, graphs, POOL_RULES):
            assert p.structural_confidence == pattern_confidence(p, graphs, POOL_RULES)

    def test_remainder_split_into_components(self):
        rules = [_atomic_rule(label) for label in (A, B, C)]
        (v,) = [p for p in patterns_stage(SCORING_CFG, V_DB, rules) if p.graph.n == 3]
        assert v.structural_confidence == 1 / 3
        assert pattern_confidence(v, V_DB, rules) == 1 / 3

    def test_absent_pattern_raises_like_reference(self):
        # structural_confidences scores only patterns mined from the same
        # graphs, which always occur; the reference still refuses the rest
        rules = [_atomic_rule(label) for label in (A, B, D)]
        absent = FailurePattern.build(g([A, D], [(0, 1, "cross")]), [1.0, 1.0], 0.5, 0.5)
        with pytest.raises(ValueError, match="does not occur"):
            pattern_confidence(absent, V_DB, rules)

    @settings(max_examples=40, deadline=None)
    @given(window_databases())
    def test_mined_patterns_pass_build(self, graphs):
        for p in patterns_stage(SCORING_CFG, graphs, POOL_RULES):
            assert p == FailurePattern.build(
                p.graph, p.node_weights, p.support, p.weighted_support,
                p.structural_confidence, p.knowledge_confidence,
            )

    def test_scoring_neither_removes_nodes_nor_builds(self, monkeypatch):
        calls = {"remove_node": 0, "build": 0}
        remove_node = patterns_module.remove_node
        build = FailurePattern.build.__func__

        def counting_remove_node(*args):
            calls["remove_node"] += 1
            return remove_node(*args)

        def counting_build(cls, *args, **kwargs):
            calls["build"] += 1
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(patterns_module, "remove_node", counting_remove_node)
        monkeypatch.setattr(FailurePattern, "build", classmethod(counting_build))
        rules = [_atomic_rule(label) for label in (A, B, C)]
        assert any(p.graph.n > 2 for p in patterns_stage(SCORING_CFG, V_DB, rules))
        assert calls == {"remove_node": 0, "build": 0}

    def test_scoring_does_not_rebuild_hosts(self, monkeypatch):
        """The only Digraphs the stage builds are one host per window, for
        the search, and one graph per pattern it finds."""
        built = []
        post_init = Digraph.__post_init__

        def counting_post_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Digraph, "__post_init__", counting_post_init)
        rules = [_atomic_rule(label) for label in (A, B, C)]
        scored = patterns_stage(SCORING_CFG, V_DB, rules)
        assert any(p.graph.n > 1 for p in scored)
        assert len(built) == len(V_DB) + len(scored)


class TestDot:
    def test_two_node_pattern_renders(self):
        pattern = FailurePattern.build(
            g([A, C], [(0, 1, "cross")]), [1.0, 0.6], 0.5, 0.4
        )
        dot = pattern_to_dot(pattern, name="pattern_0")
        assert dot.startswith("digraph pattern_0 {")
        assert dot.count("[label=") == 3  # 2 nodes + 1 edge
        assert '-> ' in dot and '"cross"' not in dot.splitlines()[0]
