import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import logloom

ROOT = Path(__file__).resolve().parents[1]


def test_traced_job_finds_the_layer_calls(tmp_path):
    """The benchmark's traced job wraps `run_pipeline`'s layer calls by
    name and unpacks one `parse_lines`, `canonicalize`, `coalesce`,
    `filter_noise` and `kb_stage` call each, and counts edges from the
    `build_window_graphs` calls. Dropping or splitting one of those calls
    fails here."""
    src = Path(logloom.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = tmp_path / "trace"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "trace", "sparse", "10", str(out)],
        env={**os.environ, "PYTHONPATH": path}, cwd=ROOT, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    assert metrics["ingest.lines"] == (out / "log.jsonl").read_bytes().count(b"\n")
    with open(out / "spans.jsonl", encoding="utf-8") as fh:
        spans = Counter(json.loads(line)["name"] for line in fh)
    assert spans["ingest.parse"] == spans["ingest.canonicalize"] == spans["knowledge.merge"] == 1
    assert spans["preprocess.coalesce"] == spans["preprocess.filter"] == 1
    assert spans["graphs.build"] >= 1
    assert metrics["graphs.edges"] > 0
    # `traced_layers` skips a name `logloom.pipeline` lacks, so a writer
    # or reader that moved away would drop out of these spans silently.
    assert spans["pipeline.write"] == 4 and spans["knowledge.export"] == 2
    assert spans["pipeline.read"] == 4 and spans["knowledge.load"] == 1
