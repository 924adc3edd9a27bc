"""Write one workload's input log from a seed: python3 perfbench/gen.py W SEED OUT.

Runs in a fresh interpreter so that the caller can time set-up from
interpreter start to the log on disk. The program under test only ever
sees the written log.jsonl.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).parent / "spec.json").read_text(encoding="utf-8"))

DIMS = ("event", "status", "comm", "ras")

# Source names hold no digits and no run of four hex digits, so masking
# leaves each source's name intact and every source is one template.
WORDS = ("alpha bravo charlie delta echo foxtrot golf hotel india juliet "
         "kilo lima mike november oscar papa quebec romeo sierra tango "
         "uniform victor whiskey xray yankee zulu").split()


def scenario(workload: str, seed: int) -> dict:
    w = SPEC["workloads"][workload]
    src = w["sources"]
    return {
        "duration": w["hours"] * 3600,
        "nodes": [f"n{i:02d}" for i in range(w["nodes"])],
        "seed": seed,
        "background": [
            {"dim": dim, "msg": src["format"].format(name), "rate": src["rate"]}
            for dim, name in zip(itertools.cycle(DIMS), WORDS[:src["count"]])
        ],
        "chains": [SPEC["chain"]],
    }


def decorate(records: list[dict], seed: int) -> None:
    """Append volatile fields to every background line.

    Each field is one the masker replaces whole: a 1-3 digit sequence
    number (<NUM>), an IPv4 address (<IP>), a 0x%08x address (<HEX>) and
    a /var/run path (<PATH>). Every source still masks to one template,
    while nearly every raw message becomes distinct.
    """
    rng = random.Random(f"decorate:{seed}")
    chain_msgs = {SPEC["chain"]["trigger"]["msg"], SPEC["chain"]["effect"]["msg"]}
    for r in records:
        if r["msg"] in chain_msgs:
            continue
        ip = ".".join(str(rng.randrange(256)) for _ in range(4))
        r["msg"] += (
            f" seq={rng.randrange(1000)} peer {ip} at 0x{rng.getrandbits(32):08x}"
            f" pidfile /var/run/{r['node']}/{rng.randrange(1 << 16)}.pid"
        )


def _plain(name: str, fn, *args):
    return fn(*args)


def write_log(workload: str, seed: int, out: Path, call=_plain) -> int:
    """Generate, decorate and write one input; return its line count.

    `call(name, fn, *args)` makes each step's call, so that a tracer
    can put a span around it.
    """
    from logloom import generate, scenario_from_dict
    from logloom.synth import write_jsonl

    records, _ = call("synth.generate", generate, scenario_from_dict(scenario(workload, seed)))
    if SPEC["workloads"][workload]["decorate"]:
        call("setup.decorate", decorate, records, seed)
    call("synth.write", write_jsonl, records, out)
    return len(records)


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    print(json.dumps({"lines": write_log(workload, seed, out)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
