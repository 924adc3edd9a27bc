"""logloom benchmark: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src`. Workload shapes, knobs, default seeds and the recorded output
digests are in perfbench/spec.json; the reason for each workload and
the metric names and units are in BENCHMARK.json.

A run has INPUTS inputs (one with --trace 1), each a log written from
its own seed derived from --seed. For --seconds the benchmark takes
steps, cycling through the inputs. Each step first writes its input
from scratch in a fresh interpreter (gen.py), which is timed as
setup_s and must give the same bytes every time. With --trace 0 the
step then times run_pipeline and the five stage commands, each in a
fresh process (worker.py), and checks the outputs. With --trace 1 it
times run_pipeline and then run_pipeline again with a span around each
of its layer calls (worker.py trace); one tracemalloc pass gives the
memory peaks. Every metric is the trimmed mean of all its samples
(see `center`).

Every worker runs under a wall-clock cap. A worker that fails, hits
the cap or gives output that fails a check makes its step count as
failed. The last line of standard output is the JSON result. The spans
of the last traced step stay in .perfbench_work/spans/W-SEED.jsonl.

All three workloads from one seed:

    for w in filtered sparse dense; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 35 --trace 0
    done

To refresh the digests after a deliberate change of output bytes, run
the pipeline on each input of the default seed (input i has seed
default_seed * 10 + i) and record the sha256 of each interchange file:

    mkdir -p .perfbench_work/digests && cd .perfbench_work/digests
    PYTHONPATH=../../src python3 ../../perfbench/gen.py dense 10 log.jsonl
    PYTHONPATH=../../src python3 ../../perfbench/worker.py run dense log.jsonl out
    sha256sum out/*
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import gen
from worker import INTERCHANGE

HERE = Path(__file__).resolve().parent
SPEC = gen.SPEC
# stage command whose output directory holds each file in a stage-wise run
STAGE_OF = {"templates.tsv": 1, "rejects.txt": 1, "events.jsonl": 2, "rules.json": 3,
            "instances.jsonl": 3, "graphs.json": 4, "kb.json": 5}
CAP_S = 90.0    # wall-clock cap on one worker process; tracemalloc passes take ~45 s
HARD_S = 170.0  # the whole benchmark run ends well inside 180 s
# Inputs per untraced run: the steps cycle through them, so that one
# run's figures do not rest on a single draw of the generator.
INPUTS = 3
# Share of samples dropped at each end before averaging a metric.
TRIM = 0.1


class Failure(Exception):
    """A worker failed, hit its cap, or produced output that fails a check."""


def input_seed(seed: int, i: int) -> int:
    """Generator seed of input i of a run with --seed `seed`."""
    return seed * 10 + i


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.spec = SPEC["workloads"][workload]
        self.start = time.monotonic()
        self.work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ,
                    "PYTHONPATH": str(root / "src") + (os.pathsep + path if path else "")}

    def remaining(self) -> float:
        return HARD_S - (time.monotonic() - self.start)

    def python(self, script: str, *args) -> dict:
        """Run a script of this directory in a fresh interpreter, under the cap."""
        timeout = min(CAP_S, self.remaining())
        if timeout <= 0:
            raise Failure(f"no time left to start {script} {args[0]}")
        try:
            proc = subprocess.run([sys.executable, str(HERE / script), *map(str, args)],
                                  cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise Failure(f"{script} {args[0]} killed after {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise Failure(f"{script} {args[0]} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup(self, i: int) -> tuple[int, float]:
        """Write input i from scratch; a repeat must give the bytes of the first.

        Returns the input's line count and the time the set-up took.
        """
        log = self.work / f"log{i}.jsonl"
        first = not log.exists()
        target = log if first else self.work / "again.jsonl"
        start = time.perf_counter()
        out = self.python("gen.py", self.workload, input_seed(self.seed, i), target)
        setup_s = time.perf_counter() - start
        if not first and target.read_bytes() != log.read_bytes():
            raise Failure(f"set-up of input {i} wrote other bytes than the first time")
        return out["lines"], setup_s

    # ---- output checks

    def check_run(self, out: Path, i: int) -> None:
        missing = [name for name in INTERCHANGE if not (out / name).is_file()]
        if missing:
            raise Failure(f"run wrote no {missing}")
        templates = len((out / "templates.tsv").read_text("utf-8").splitlines())
        if templates != self.spec["templates"]:
            raise Failure(f"{templates} templates, expected {self.spec['templates']}")
        if self.seed == self.spec["default_seed"]:
            for name, want in self.spec["digests"][i].items():
                got = hashlib.sha256((out / name).read_bytes()).hexdigest()
                if got != want:
                    raise Failure(f"{name} of input {i} has sha256 {got}, recorded {want}")
        if not has_chain_pattern(json.loads((out / "kb.json").read_text("utf-8"))):
            raise Failure("kb.json lacks the planted trigger -> effect cross pattern")

    @staticmethod
    def check_same(ref: Path, other: dict[str, Path], what: str) -> None:
        for name in INTERCHANGE:
            if (ref / name).read_bytes() != other[name].read_bytes():
                raise Failure(f"{what} {name} differs from run_pipeline's")

    # ---- one measured step

    def step_plain(self, i: int) -> dict:
        lines, setup_s = self.setup(i)
        log = self.work / f"log{i}.jsonl"
        out_run, out_stage = self.work / f"run{i}", self.work / f"stage{i}"
        for d in (out_run, out_stage):
            shutil.rmtree(d, ignore_errors=True)
        run = self.python("worker.py", "run", self.workload, log, out_run)
        stage = self.python("worker.py", "stagewise", self.workload, log, out_stage)
        if run["lines"] != lines:
            raise Failure(f"run parsed {run['lines']} lines of {lines}")
        self.check_run(out_run, i)
        self.check_same(out_run, {n: out_stage / str(k) / n for n, k in STAGE_OF.items()},
                        "stage-wise")
        return {"run_s": run["run_s"], "events_per_s": lines / run["run_s"],
                "stagewise_s": stage["stagewise_s"], "peak_rss_mb": run["peak_rss_mb"],
                "setup_s": setup_s}

    def traced_outputs(self, mode: str) -> dict:
        """Run the traced job of input 0; its files must equal run_pipeline's."""
        out = self.work / mode
        shutil.rmtree(out, ignore_errors=True)
        m = self.python("worker.py", mode, self.workload, input_seed(self.seed, 0), out)
        if (out / "log.jsonl").read_bytes() != (self.work / "log0.jsonl").read_bytes():
            raise Failure(f"{mode} job generated another log than set-up")
        self.check_same(self.work / "run0", {n: out / n for n in INTERCHANGE}, mode)
        return m

    def step_traced(self) -> dict:
        lines, _ = self.setup(0)
        log, out_run = self.work / "log0.jsonl", self.work / "run0"
        shutil.rmtree(out_run, ignore_errors=True)
        run = self.python("worker.py", "run", self.workload, log, out_run)
        self.check_run(out_run, 0)
        traced = self.traced_outputs("trace")
        if traced["ingest.lines"] != lines:
            raise Failure(f"traced run parsed {traced['ingest.lines']} lines of {lines}")
        if traced["ingest.templates"] != self.spec["templates"]:
            raise Failure(f"traced run found {traced['ingest.templates']} templates")
        spans = self.work.parent / "spans" / f"{self.workload}-{self.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        shutil.copyfile(self.work / "trace" / "spans.jsonl", spans)
        return {**traced, "untraced_run_s": run["run_s"]}


def has_chain_pattern(kb: dict) -> bool:
    """A 2-node pattern joins the trigger's event rule to the effect's status rule by a cross edge."""
    tid = {masked: t for t, masked in kb["templates"]}
    chain = SPEC["chain"]

    def atomic_rule(role: str):
        dim, msg = chain[role]["dim"], chain[role]["msg"]
        for r in kb["rules"]:
            if r["dim"] == dim and not r["antecedent"] and r["consequent"] == tid.get(msg):
                return (dim, r["rule_id"])
        return None

    trigger, effect = atomic_rule("trigger"), atomic_rule("effect")
    for p in kb["patterns"]:
        index = {(dim, rid): i for i, dim, rid, _ in p["nodes"]}
        if (len(index) == 2 and trigger in index and effect in index
                and [index[trigger], index[effect], "cross"] in p["edges"]):
            return True
    return False


def measure(bench: Bench, seconds: float, trace: bool):
    """Take steps for `seconds`, at least one per input; return samples and tallies."""
    bench.work.mkdir(parents=True, exist_ok=True)
    inputs = 1 if trace else INPUTS
    samples: dict[str, list[float]] = {}
    tally = {"attempted": 0, "failed": 0}

    def attempt(fn, *args) -> dict | None:
        tally["attempted"] += 1
        try:
            result = fn(*args)
        except Failure as exc:
            tally["failed"] += 1
            print(f"failed: {exc}", file=sys.stderr)
            return None
        except Exception:  # unreadable or malformed output: the step failed
            tally["failed"] += 1
            print(f"failed: {traceback.format_exc()}", file=sys.stderr)
            return None
        for name, value in result.items():
            samples.setdefault(name, []).append(value)
        return result

    begin = time.perf_counter()
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        if trace:
            attempt(bench.step_traced)
        else:
            attempt(bench.step_plain, len(durations) % inputs)
        durations.append(time.perf_counter() - t0)
        if trace and len(durations) == 1:
            # one tracemalloc pass, checked against the first step's outputs;
            # it is slow, so it does not use up --seconds
            t1 = time.perf_counter()
            attempt(bench.traced_outputs, "memory")
            begin += time.perf_counter() - t1
        est = statistics.median(durations)
        if est > bench.remaining():
            break
        if len(durations) >= inputs and time.perf_counter() - begin + est > seconds:
            break
    return samples, tally


def center(values: list[float]) -> float:
    """Mean of the samples left after dropping the TRIM share at each end.

    The 2-vCPU shared VM this was tuned on switches between a fast and
    a slow state every few seconds, so one run's samples fall in two
    clusters about a third apart. Their median jumps between the
    clusters from run to run; their mean moves only with the share of
    samples in each. Over 60 back-to-back run_pipeline samples per
    workload there, windows of 12 samples gave means whose quartiles
    spread 0.04-0.06 of their median, and medians 0.07-0.09. Trimming
    keeps a single stalled sample from moving the mean.
    """
    values = sorted(values)
    k = int(len(values) * TRIM)
    return statistics.fmean(values[k:len(values) - k])


def summarize(samples: dict[str, list[float]], metrics: list[dict]) -> tuple[dict, list]:
    """Figure and samples per metric, and the counts that did not repeat."""
    summary, unsteady = {}, []
    for m in metrics:
        values = samples.get(m["name"], [])
        if m["unit"] in ("count", "bytes") and len(set(values)) > 1:
            unsteady.append(m["name"])
        summary[m["name"]] = (center(values) if values else None, values)
    return summary, unsteady


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "logloom" / "__init__.py").is_file():
        print("error: run from the root of a logloom checkout (no src/logloom here)",
              file=sys.stderr)
        return 2
    bench_doc = json.loads((root / "BENCHMARK.json").read_text("utf-8"))
    metrics = bench_doc["per_layer"] if args.trace else bench_doc["end_to_end"]

    bench = Bench(root, args.workload, args.seed)
    try:
        samples, tally = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    attempted, failed = tally["attempted"], tally["failed"]
    if args.trace:
        run_s, untraced = samples.get("run_s"), samples.get("untraced_run_s")
        if run_s and untraced:
            samples["trace.overhead_frac"] = [
                center(run_s) / center(untraced) - 1]
    summary, unsteady = summarize(samples, metrics)
    if unsteady:
        # the traced steps disagree on a count: one more failed step
        print(f"failed: counts changed between steps: {unsteady}", file=sys.stderr)
        failed += 1
    pass_frac = (attempted - failed) / attempted
    summary["pass_frac"] = (pass_frac, [pass_frac])

    print(f"logloom benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, {attempted} steps, {failed} failed")
    for m in metrics:
        value, values = summary[m["name"]]
        shown = "n/a" if value is None else f"{value:.6g}"
        spread = (f" median {statistics.median(values):.6g} min {min(values):.6g}"
                  f" max {max(values):.6g}" if len(values) > 1 else "")
        tag = " (computed)" if m["name"] in SPEC["computed"] else ""
        print(f"  {m['name']:<28} {shown:>14} {m['unit']:<6} n={len(values)}{spread}{tag}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": summary[m["name"]][0], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
