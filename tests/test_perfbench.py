import json
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import logloom
from _oracles import reference_write_jsonl
from logloom import generate, scenario_from_dict

ROOT = Path(__file__).resolve().parents[1]


def _env() -> dict[str, str]:
    src = Path(logloom.__file__).resolve().parents[1]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def _perfbench_gen() -> types.ModuleType:
    """`perfbench/gen.py` as a module, run from its source, so that
    nothing, not even a bytecode cache, is written under `perfbench/`."""
    path = ROOT / "perfbench" / "gen.py"
    module = types.ModuleType("_perfbench_gen")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("workload", ["filtered", "sparse", "dense"])
def test_benchmark_input_is_one_json_dumps_line_per_record(tmp_path, workload):
    """Every benchmark digest starts from the log `perfbench/gen.py`
    writes. Its bytes must be one `json.dumps(row, sort_keys=True)` line
    per record that `generate` and then `gen.decorate` give, whichever
    way `write_jsonl` renders a row."""
    out = tmp_path / "log.jsonl"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "gen.py"), workload, "10", str(out)],
        env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    gen = _perfbench_gen()
    records, _ = generate(scenario_from_dict(gen.scenario(workload, 10)))
    if gen.SPEC["workloads"][workload]["decorate"]:
        gen.decorate(records, 10)
    reference_write_jsonl(records, tmp_path / "reference.jsonl")
    assert out.read_bytes() == (tmp_path / "reference.jsonl").read_bytes()
    assert json.loads(proc.stdout) == {"lines": len(records)}


def test_traced_job_finds_the_layer_calls(tmp_path):
    """The benchmark's traced job wraps `run_pipeline`'s layer calls by
    name and unpacks one `parse_lines`, `canonicalize`, `coalesce`,
    `filter_noise` and `kb_stage` call each, and counts edges from the
    `build_window_graphs` calls. Dropping or splitting one of those calls
    fails here, as does a run that never calls the episode and pattern
    layers through their names."""
    out = tmp_path / "trace"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "trace", "sparse", "10", str(out)],
        env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    assert metrics["ingest.lines"] == (out / "log.jsonl").read_bytes().count(b"\n")
    with open(out / "spans.jsonl", encoding="utf-8") as fh:
        spans = Counter(json.loads(line)["name"] for line in fh)
    assert spans["ingest.parse"] == spans["ingest.canonicalize"] == spans["knowledge.merge"] == 1
    assert spans["preprocess.coalesce"] == spans["preprocess.filter"] == 1
    assert spans["graphs.build"] >= 1
    # A layer function a stage holds by value, not by its name in
    # `logloom.pipeline`, escapes the wrappers and its time reads 0.
    for name in ("episodes.mine", "episodes.derive", "episodes.instances",
                 "patterns.mine", "patterns.kconf"):
        assert spans[name] >= 1, name
    assert metrics["graphs.edges"] > 0
    # `traced_layers` skips a name `logloom.pipeline` lacks, so a writer
    # or reader that moved away would drop out of these spans silently.
    assert spans["pipeline.write"] == 4 and spans["knowledge.export"] == 2
    assert spans["pipeline.read"] == 4 and spans["knowledge.load"] == 1
