"""Release gate: one test per acceptance criterion.

Each test exercises the public API at the agreed sizes and tolerances
and records a PASS/FAIL line that the terminal summary prints (hook in
conftest). Everything here is deterministic: synthetic data comes from
fixed seeds, mining is seed-free by construction.
"""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import pytest

from logloom import (
    Digraph,
    Dimension,
    PipelineConfig,
    coalesce,
    export,
    filter_noise,
    generate,
    label_weights,
    load,
    min_dfs_code,
    mine_episodes,
    mine_patterns,
    query_root_causes,
    run_pipeline,
    scenario_from_dict,
)
from logloom.pipeline import ingest_stage, read_graphs
from logloom.synth import write_jsonl

from _oracles import (
    brute_episodes,
    brute_isomorphic,
    brute_pattern_universe,
    _weakly_connected,
    weighted_support,
)
from conftest import random_connected_digraph, relabel, trace

RESULTS: dict[int, str] = {}


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        RESULTS[num] = f"FAIL  criterion {num}: {label}"
        raise
    RESULTS[num] = f"PASS  criterion {num}: {label}"


# ---------------------------------------------------------------------------
# shared corpora

FIG_SCENARIO = {
    "duration": 28800,
    "nodes": ["a", "b"],
    "seed": 7,
    "background": [
        {"dim": "event", "msg": "heartbeat ok", "rate": 60.0},
        {"dim": "status", "msg": "load average sampled", "rate": 60.0},
        {"dim": "comm", "msg": "link flap on port 3", "rate": 60.0},
        {"dim": "ras", "msg": "ecc corrected at 0xdeadbeef", "rate": 60.0},
    ],
    "chains": [
        {
            "trigger": {"dim": "event", "msg": "config changed", "node": "a"},
            "effect": {"dim": "status", "msg": "performance degraded", "node": "b"},
            "probability": 0.8,
            "lag": [10, 60],
            "per_hour": 12,
        }
    ],
}

# same planted chain, scaled to ten nodes and ten noise templates so the
# whole run sees roughly fifty thousand input events
PERF_SCENARIO = {
    "duration": 28800,
    "nodes": [f"n{i:02d}" for i in range(10)],
    "seed": 5,
    "background": [
        {"dim": d, "msg": f"daemon {w} heartbeat", "rate": 60.0}
        for d, w in zip(
            itertools.cycle(["event", "status", "comm", "ras"]),
            "alpha bravo charlie delta echo foxtrot golf hotel india juliet".split(),
        )
    ],
    "chains": [
        {
            "trigger": {"dim": "event", "msg": "config changed", "node": "n00"},
            "effect": {"dim": "status", "msg": "performance degraded", "node": "n01"},
            "probability": 0.8,
            "lag": [10, 60],
            "per_hour": 12,
        }
    ],
}

KNOBS = {
    "window": 120,
    "min_sup": 0.2,
    "corr_window": 300,
    "max_lag": 120,
    "ws_min": 0.1,
    "max_rate": 30,
}

INTERCHANGE = [
    "templates.tsv",
    "rejects.txt",
    "events.jsonl",
    "rules.json",
    "instances.jsonl",
    "graphs.json",
    "kb.json",
]

POOL = [
    (Dimension.EVENT, 0),
    (Dimension.EVENT, 1),
    (Dimension.STATUS, 0),
    (Dimension.STATUS, 1),
]
POOL_WEIGHTS = dict(zip(POOL, [1.0, 0.8, 0.6, 0.4]))


@pytest.fixture(scope="module")
def fig1(tmp_path_factory):
    root = tmp_path_factory.mktemp("fig1")
    records, truth = generate(scenario_from_dict(FIG_SCENARIO))
    write_jsonl(records, root / "log.jsonl")
    write_jsonl(truth, root / "truth.jsonl")
    out = root / "run"
    cfg = PipelineConfig.from_dict(
        {**KNOBS, "input": str(root / "log.jsonl"), "out": str(out)}
    )
    result = run_pipeline(cfg)
    return SimpleNamespace(
        root=root, out=out, cfg=cfg, result=result, records=records, truth=truth
    )


@pytest.fixture(scope="module")
def episode_corpus():
    rng = random.Random(42)
    corpus = []
    for _ in range(200):
        n = rng.randint(1, 50)
        alphabet = rng.randint(1, 4)
        events = trace(
            [(rng.uniform(0, 30.0), rng.randrange(alphabet)) for _ in range(n)]
        )
        window = rng.choice([2.0, 5.0, 10.0])
        min_sup = rng.choice([0.05, 0.1, 0.2])
        mined = mine_episodes(events, window, min_sup, k_max=3, granularity=1.0)
        corpus.append((events, window, min_sup, mined))
    return corpus


def _host(rng):
    g = random_connected_digraph(rng, n_max=4)
    return Digraph(tuple(rng.choice(POOL) for _ in range(g.n)), g.edges)


@pytest.fixture(scope="module")
def pattern_corpus():
    rng = random.Random(43)
    corpus = []
    for _ in range(100):
        db = [_host(rng) for _ in range(rng.randint(1, 10))]
        mined = mine_patterns(db, POOL_WEIGHTS, 0.2, 4)
        corpus.append((db, mined))
    return corpus


def _connected_subgraphs(g: Digraph):
    arcs = list(g.edges)
    for size in range(1, g.n + 1):
        for verts in itertools.combinations(range(g.n), size):
            vset = set(verts)
            remap = {v: i for i, v in enumerate(verts)}
            inner = [a for a in arcs if a[0] in vset and a[1] in vset]
            for count in range(len(inner) + 1):
                for chosen in itertools.combinations(inner, count):
                    sub = Digraph(
                        tuple(g.labels[v] for v in verts),
                        frozenset((remap[u], remap[v], el) for u, v, el in chosen),
                    )
                    if _weakly_connected(sub):
                        yield sub


# ---------------------------------------------------------------------------
# criteria


def test_c1_planted_chain_recovery_and_speed(request):
    with criterion(
        1, "planted cross-dimension chain recovered, support matches the "
        "manifest, query ranks it first, ~50k events under 60s"
    ):
        fig = request.getfixturevalue("fig1")
        kb = fig.result.kb
        doc = json.loads(export(kb))
        tids = {masked: tid for tid, masked in doc["templates"]}
        trig_rule = next(
            r for r in kb.rules.values()
            if r.dim is Dimension.EVENT and r.full_labels == (tids["config changed"],)
        )
        eff_rule = next(
            r for r in kb.rules.values()
            if r.dim is Dimension.STATUS
            and r.full_labels == (tids["performance degraded"],)
        )

        planted = next(
            p for p in kb.patterns.values()
            if p.graph.n == 2
            and set(p.graph.labels) == {trig_rule.label, eff_rule.label}
            and len(p.graph.edges) == 1
        )
        u, v, kind = next(iter(planted.graph.edges))
        assert planted.graph.labels[u] == trig_rule.label
        assert planted.graph.labels[v] == eff_rule.label
        assert kind == "cross"

        triggers = sum(1 for r in fig.records if r["msg"] == "config changed")
        empirical = len(fig.truth) / triggers
        assert abs(planted.support - empirical) <= 0.05

        ranked = query_root_causes(kb, Dimension.STATUS, rule_id=eff_rule.rule_id)
        assert ranked and ranked[0].pattern.code == planted.code
        assert ranked[0].antecedent.labels == (trig_rule.label,)

        records, _ = generate(scenario_from_dict(PERF_SCENARIO))
        perf_dir = fig.root / "perf"
        perf_dir.mkdir()
        write_jsonl(records, perf_dir / "log.jsonl")
        cfg = replace(
            fig.cfg, input=str(perf_dir / "log.jsonl"), out=str(perf_dir / "run")
        )
        start = time.perf_counter()
        perf = run_pipeline(cfg)
        elapsed = time.perf_counter() - start
        assert perf.events_parsed >= 45000
        assert elapsed < 60.0
        assert any(p.graph.n == 2 for p in perf.kb.patterns.values())


def test_c2_episode_miner_matches_exhaustive_enumeration(request):
    with criterion(
        2, "episode miner equals exhaustive window enumeration on 200 traces"
    ):
        corpus = request.getfixturevalue("episode_corpus")
        assert len(corpus) == 200
        for events, window, min_sup, mined in corpus:
            got = {e.labels: e.support for e in mined}
            assert got == brute_episodes(events, window, min_sup, 3)


def test_c3_pattern_miner_matches_exhaustive_enumeration(request):
    with criterion(
        3, "pattern miner equals exhaustive subgraph enumeration on 100 databases"
    ):
        corpus = request.getfixturevalue("pattern_corpus")
        assert len(corpus) == 100
        for db, mined in corpus:
            got = {p.code: (p.support, p.weighted_support) for p in mined}
            assert len(got) == len(mined)
            assert got == brute_pattern_universe(db, POOL_WEIGHTS, 0.2, 4)


def test_c4_canonical_code_invariance_and_distinctness():
    with criterion(
        4, "canonical codes survive relabeling; distinct iff non-isomorphic"
    ):
        rng = random.Random(41)
        graphs = [random_connected_digraph(rng, n_max=6) for _ in range(1000)]
        codes = []
        for g in graphs:
            code = min_dfs_code(g)
            codes.append(code)
            for _ in range(10):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert min_dfs_code(relabel(g, perm)) == code

        by_code: dict[tuple, list[int]] = {}
        for idx, code in enumerate(codes):
            by_code.setdefault(code, []).append(idx)
        for group in by_code.values():
            for a, b in itertools.combinations(group, 2):
                assert brute_isomorphic(graphs[a], graphs[b])

        small = [i for i in range(len(graphs)) if graphs[i].n <= 4]
        checked = 0
        while checked < 300:
            a, b = rng.sample(small, 2)
            if codes[a] == codes[b]:
                continue
            assert not brute_isomorphic(graphs[a], graphs[b])
            checked += 1


def test_c5_anti_monotone_supports_and_bounded_scores(request):
    with criterion(
        5, "sub-episode/subgraph supports dominate, weighted <= raw, scores in [0,1]"
    ):
        corpus = request.getfixturevalue("episode_corpus")
        for _, _, _, mined in corpus:
            table = {e.labels: e.support for e in mined}
            for e in mined:
                assert 0.0 <= e.support <= 1.0
                if len(e.labels) < 2:
                    continue
                for drop in range(len(e.labels)):
                    sub = e.labels[:drop] + e.labels[drop + 1 :]
                    assert sub in table, "sub-episode missing from mined set"
                    assert table[sub] >= e.support

        for db, mined in request.getfixturevalue("pattern_corpus"):
            support_of: dict[tuple, float] = {}
            for p in mined:
                assert p.weighted_support <= p.support
                assert 0.0 <= p.support <= 1.0
                for sub in _connected_subgraphs(p.graph):
                    key = min_dfs_code(sub)
                    if key not in support_of:
                        support_of[key] = weighted_support(sub, db, POOL_WEIGHTS)[0]
                    assert support_of[key] >= p.support

        fig = request.getfixturevalue("fig1")
        kb = fig.result.kb
        graphs = read_graphs(fig.out / "graphs.json")
        weights = label_weights(list(kb.rules.values()), fig.cfg.weight_mode)
        for p in kb.patterns.values():
            for score in (
                p.support,
                p.weighted_support,
                p.structural_confidence,
                p.knowledge_confidence,
            ):
                assert 0.0 <= score <= 1.0
            assert p.weighted_support <= p.support
            for sub in _connected_subgraphs(p.graph):
                assert weighted_support(sub, graphs, weights)[0] >= p.support
        for rule in kb.rules.values():
            assert 0.0 <= rule.support <= 1.0
            assert 0.0 <= rule.confidence <= 1.0


def test_c6_round_trips_and_determinism(request, tmp_path_factory):
    with criterion(
        6, "export/import identity, byte-identical reruns into fresh output "
        "directories, idempotent coalesce and noise filter"
    ):
        fig = request.getfixturevalue("fig1")
        kb = fig.result.kb
        doc = export(kb)
        back = load(doc)
        assert set(back.patterns) == set(kb.patterns)
        for code, p in kb.patterns.items():
            q = back.patterns[code]
            assert q.graph == p.graph
            assert q.provenance == p.provenance
            assert (
                q.support,
                q.weighted_support,
                q.structural_confidence,
                q.knowledge_confidence,
            ) == (
                p.support,
                p.weighted_support,
                p.structural_confidence,
                p.knowledge_confidence,
            )
        assert back.rules == kb.rules
        assert back.metadata == kb.metadata
        assert export(back) == doc

        baseline = {name: (fig.out / name).read_bytes() for name in INTERCHANGE}
        det = tmp_path_factory.mktemp("det")
        for rerun in range(2):
            out = det / f"rerun{rerun}"
            run_pipeline(replace(fig.cfg, out=str(out)))
            for name in INTERCHANGE:
                assert (out / name).read_bytes() == baseline[name], (rerun, name)

        events, _, _ = ingest_stage(fig.cfg, fig.cfg.input)
        once = coalesce(events, fig.cfg.gap)
        assert coalesce(once, fig.cfg.gap) == once
        kept, _ = filter_noise(once, (), fig.cfg.max_rate)
        assert filter_noise(kept, (), fig.cfg.max_rate)[0] == kept


def test_c7_planted_effect_frequency():
    with criterion(7, "effect rate over 1000 triggers within three standard errors"):
        scenario = {
            "duration": 36000,
            "nodes": ["a", "b"],
            "seed": 17,
            "background": [],
            "chains": [
                {
                    "trigger": {"dim": "event", "msg": "probe sent", "node": "a"},
                    "effect": {"dim": "comm", "msg": "probe lost", "node": "b"},
                    "probability": 0.5,
                    "lag": [1, 5],
                    "per_hour": 100,
                }
            ],
        }
        records, truth = generate(scenario_from_dict(scenario))
        triggers = sum(1 for r in records if r["msg"] == "probe sent")
        assert triggers == 1000
        rate = len(truth) / triggers
        assert abs(rate - 0.5) <= 3 * math.sqrt(0.25 / 1000)
