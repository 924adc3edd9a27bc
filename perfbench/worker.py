"""One timed job of the benchmark, run in a fresh interpreter by run.py.

    python3 perfbench/worker.py run W LOG OUT        run_pipeline once
    python3 perfbench/worker.py stagewise W LOG OUT  the five stage commands
    python3 perfbench/worker.py trace W SEED OUT     traced set-up and run_pipeline
    python3 perfbench/worker.py memory W SEED OUT    the traced job under tracemalloc

`src` must be on PYTHONPATH. Each mode prints one JSON object as the
last line of its standard output.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import resource
import sys
import time
import tracemalloc
import uuid
from pathlib import Path

import gen

INTERCHANGE = ("templates.tsv", "rejects.txt", "events.jsonl", "rules.json",
               "instances.jsonl", "graphs.json", "kb.json")


def config(workload: str, log: str | Path, out: str | Path):
    from logloom import PipelineConfig

    knobs = gen.SPEC["workloads"][workload]["knobs"]
    return PipelineConfig.from_dict({**knobs, "input": str(log), "out": str(out)})


def run_mode(workload: str, log: str, out: str) -> dict:
    from logloom import run_pipeline

    cfg = config(workload, log, out)
    start = time.perf_counter()
    result = run_pipeline(cfg)
    run_s = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"run_s": run_s, "peak_rss_mb": rss_kb / 1024.0,
            "lines": result.events_parsed + result.rejects}


def stagewise_mode(workload: str, log: str, out: str) -> dict:
    from logloom.cli import main

    root = Path(out)
    root.mkdir(parents=True, exist_ok=True)
    knobs = root / "knobs.json"
    knobs.write_text(json.dumps(gen.SPEC["workloads"][workload]["knobs"]), encoding="utf-8")
    s = [str(root / str(k)) for k in range(6)]
    steps = [
        ["ingest", "--input", log, "--out", s[1]],
        ["preprocess", "--events", f"{s[1]}/events.jsonl", "--out", s[2]],
        ["mine-rules", "--events", f"{s[2]}/events.jsonl",
         "--templates", f"{s[1]}/templates.tsv", "--out", s[3]],
        ["build-graphs", "--instances", f"{s[3]}/instances.jsonl",
         "--rules", f"{s[3]}/rules.json", "--out", s[4]],
        ["mine-patterns", "--graphs", f"{s[4]}/graphs.json",
         "--rules", f"{s[3]}/rules.json", "--out", s[5]],
    ]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in steps:
            code = main(argv + ["--config", str(knobs)])
            if code != 0:
                raise RuntimeError(f"logloom {argv[0]} exited with {code}")
    return {"stagewise_s": time.perf_counter() - start}


class Tracer:
    """Spans around calls into the layers, kept in memory until the end.

    A span is [id, parent id, name, start, end]; all spans of one
    tracer share its run id. The stack of open spans assumes one
    thread, which holds while `threads` is 1. With `keep`, every
    wrapped call's arguments and result are kept for the counts.
    """

    def __init__(self, keep: bool = True) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[list] = []
        self.calls: dict[str, list[tuple]] = {}
        self.keep = keep
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            result = fn(*args, **kwargs)
        if self.keep:
            self.calls.setdefault(name, []).append((fn, args, kwargs, result))
        return result

    def wrap(self, name: str, fn):
        return functools.wraps(fn)(lambda *args, **kwargs: self.call(name, fn, *args, **kwargs))

    def bound(self, name: str) -> list[tuple[dict, object]]:
        """Each kept call of `name` as (arguments by parameter name, result)."""
        return [(inspect.signature(fn).bind(*args, **kwargs).arguments, result)
                for fn, args, kwargs, result in self.calls.get(name, [])]

    def total(self, name: str) -> float:
        return sum(end - start for _, _, n, start, end in self.spans if n == name)

    def self_time(self, name: str) -> float:
        """Duration of the named span minus the spans directly under it."""
        (rec,) = [s for s in self.spans if s[2] == name]
        children = sum(s[4] - s[3] for s in self.spans if s[1] == rec[0])
        return rec[4] - rec[3] - children

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


class MemoryTracer(Tracer):
    """Also records, per layer, the tracemalloc peak during its calls."""

    def __init__(self) -> None:
        super().__init__(keep=False)
        self.peaks: dict[str, int] = {}

    def call(self, name: str, fn, *args, **kwargs):
        tracemalloc.reset_peak()
        try:
            return super().call(name, fn, *args, **kwargs)
        finally:
            layer = name.split(".")[0]
            peak = tracemalloc.get_traced_memory()[1]
            self.peaks[layer] = max(self.peaks.get(layer, 0), peak)


# The layer calls run_pipeline makes, by their name in logloom.pipeline,
# and the span each gets. The traced run swaps these names for wrappers
# and then calls run_pipeline itself.
LAYER_CALLS = {
    "parse_lines": "ingest.parse",
    "canonicalize": "ingest.canonicalize",
    "coalesce": "preprocess.coalesce",
    "filter_noise": "preprocess.filter",
    "mine_episodes": "episodes.mine",
    "derive_rules": "episodes.derive",
    "find_instances": "episodes.instances",
    "build_window_graphs": "graphs.build",
    "mine_patterns": "patterns.mine",
    "pattern_confidence": "patterns.confidence",
    "knowledge_confidence": "patterns.kconf",
    "kb_stage": "knowledge.merge",
    "export": "knowledge.export",
    "write_rejects": "pipeline.write",
    "write_events": "pipeline.write",
    "write_instances": "pipeline.write",
    "write_graphs": "pipeline.write",
}


@contextlib.contextmanager
def traced_layers(tr: Tracer):
    """Swap logloom.pipeline's layer calls for wrappers that open spans in `tr`."""
    from logloom import pipeline

    saved = {name: getattr(pipeline, name) for name in LAYER_CALLS if hasattr(pipeline, name)}
    try:
        for name, fn in saved.items():
            setattr(pipeline, name, tr.wrap(LAYER_CALLS[name], fn))
        yield
    finally:
        for name, fn in saved.items():
            setattr(pipeline, name, fn)


def level_candidates(seen: set[int], episodes, k_max: int) -> int:
    """Candidates mine_episodes counted, rebuilt from its input and output.

    Level one tries every label seen; level k+1 tries the join of the
    frequent level-k episodes, as long as k < k_max.
    """
    by_len: dict[int, list[tuple[int, ...]]] = {}
    for ep in episodes:
        by_len.setdefault(len(ep.labels), []).append(ep.labels)
    total = len(seen)
    k = 1
    while by_len.get(k) and k < k_max:
        level = by_len[k]
        total += len({a + (b[-1],) for a in level for b in level if a[1:] == b[:-1]})
        k += 1
    return total


def traced_job(workload: str, seed: int, out: Path, tr: Tracer) -> dict:
    """Write the input, then run_pipeline with a span around each layer call.

    After the run, the benchmark reads the interchange files back and
    queries the knowledge base for every rule, each call in a span.
    """
    from logloom import load, query_root_causes, run_pipeline
    from logloom.pipeline import read_events, read_graphs, read_instances, read_rules_doc

    out.mkdir(parents=True, exist_ok=True)
    log = out / "log.jsonl"
    with tr.span("setup"):
        records = gen.write_log(workload, seed, log, tr.call)

    cfg = config(workload, log, out)
    with traced_layers(tr), tr.span("run"):
        run_pipeline(cfg)

    with tr.span("readback"):
        tr.call("pipeline.read", read_events, out / "events.jsonl")
        tr.call("pipeline.read", read_instances, out / "instances.jsonl")
        tr.call("pipeline.read", read_graphs, out / "graphs.json")
        tr.call("pipeline.read", read_rules_doc, out / "rules.json")

    with tr.span("query"):
        loaded = tr.call("knowledge.load", lambda: load((out / "kb.json").read_text("utf-8")))
        for dim, rid in loaded.rules:
            tr.call("knowledge.query", query_root_causes, loaded, dim, rule_id=rid)
    return {"synth.records": records}


def counts(tr: Tracer, cfg, out: Path) -> dict:
    """Counts from the inputs and results of the layer calls of one traced run."""
    (_, parsed), = tr.bound("ingest.parse")
    (canon_args, (events, canon_rejects)), = tr.bound("ingest.canonicalize")
    (_, coalesced), = tr.bound("preprocess.coalesce")
    (_, (kept, noise)), = tr.bound("preprocess.filter")
    (kb_args, (kb, _)), = tr.bound("knowledge.merge")
    table, rules, patterns = canon_args["table"], kb_args["rules"], kb_args["patterns"]
    graphs = [g for _, result in tr.bound("graphs.build") for g in result]

    candidates = frequent = window_ticks = sweep_ticks = 0
    w_ticks = round(cfg.window / cfg.granularity)
    for args, episodes in tr.bound("episodes.mine"):
        dim_events = args["events"]
        dim_candidates = level_candidates({e.template for e in dim_events},
                                          episodes, cfg.k_max)
        windows = (int(dim_events[-1].ts // cfg.granularity)
                   - int(dim_events[0].ts // cfg.granularity) + w_ticks)
        candidates += dim_candidates
        frequent += len(episodes)
        window_ticks += windows
        sweep_ticks += dim_candidates * windows

    nodes = sum(len(g.nodes) for g in graphs)
    edges = sum(len(g.edges) for g in graphs)
    pairs = sum(len(g.nodes) ** 2 for g in graphs)
    multi = sum(1 for p in patterns if p.graph.n > 1)
    return {
        "ingest.lines": len(parsed.records) + len(parsed.rejects),
        "ingest.rejects": len(parsed.rejects) + len(canon_rejects),
        "ingest.templates": len(table),
        "ingest.distinct_msgs": len({r.msg for r in parsed.records}),
        "preprocess.coalesced_away": len(events) - len(coalesced),
        "preprocess.rate_dropped": noise.rate_dropped,
        "preprocess.kept": len(kept),
        "episodes.candidates": candidates,
        "episodes.frequent": frequent,
        "episodes.yield": frequent / candidates if candidates else 0.0,
        "episodes.window_ticks": window_ticks,
        "episodes.sweep_ticks": sweep_ticks,
        "episodes.rules": len(rules),
        "episodes.instances": sum(len(r) for _, r in tr.bound("episodes.instances")),
        "graphs.windows": len(graphs),
        "graphs.nodes": nodes,
        "graphs.edges": edges,
        "graphs.pairs": pairs,
        "graphs.edge_yield": edges / pairs if pairs else 0.0,
        "patterns.found": len(patterns),
        "patterns.multi_node": multi,
        "patterns.max_nodes": max((p.graph.n for p in patterns), default=0),
        "patterns.containment_tests": 2 * multi * len(graphs),
        "knowledge.patterns": len(kb.patterns),
        "knowledge.kb_bytes": (out / "kb.json").stat().st_size,
        "pipeline.bytes": sum((out / name).stat().st_size for name in INTERCHANGE),
    }


SPAN_METRICS = ("synth.generate", "ingest.parse", "ingest.canonicalize",
                "preprocess.coalesce", "preprocess.filter", "episodes.mine",
                "episodes.derive", "episodes.instances", "graphs.build", "patterns.mine",
                "patterns.confidence", "patterns.kconf", "knowledge.merge",
                "knowledge.export", "knowledge.load", "knowledge.query",
                "pipeline.write", "pipeline.read")


def trace_mode(workload: str, seed: str, out: str) -> dict:
    tr = Tracer()
    m = traced_job(workload, int(seed), Path(out), tr)
    tr.write(Path(out) / "spans.jsonl")
    for name in SPAN_METRICS:
        m[f"{name}_s"] = tr.total(name)
    m["pipeline.self_s"] = tr.self_time("run")
    m["run_s"] = tr.total("run")
    m.update(counts(tr, config(workload, Path(out) / "log.jsonl", out), Path(out)))
    return m


def memory_mode(workload: str, seed: str, out: str) -> dict:
    tracemalloc.start()
    tr = MemoryTracer()
    traced_job(workload, int(seed), Path(out), tr)
    tracemalloc.stop()
    return {f"{layer}.peak_mb": tr.peaks[layer] / 2**20
            for layer in ("ingest", "episodes", "patterns")}


MODES = {"run": run_mode, "stagewise": stagewise_mode, "trace": trace_mode,
         "memory": memory_mode}

if __name__ == "__main__":
    print(json.dumps(MODES[sys.argv[1]](*sys.argv[2:])))
