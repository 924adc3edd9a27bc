"""Deterministic synthetic log generation with planted causal chains."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from .ingest import Dimension, json_fault, read_text


class ScenarioError(Exception):
    """Invalid scenario; `violations` lists every problem found."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class BackgroundSource:
    """Poisson noise stream emitted independently on every node."""

    dim: Dimension
    msg: str
    rate: float  # events per hour per node


@dataclass(frozen=True)
class ChainEvent:
    dim: Dimension
    msg: str
    node: str


@dataclass(frozen=True)
class CausalChain:
    """Evenly spaced triggers, each causing the effect with a coin flip.

    Triggers fire `per_hour` times per hour starting half a period in;
    a successful flip places the effect a uniform lag after the trigger.
    """

    trigger: ChainEvent
    effect: ChainEvent
    probability: float
    lag: tuple[float, float]
    per_hour: float


@dataclass(frozen=True)
class ScenarioSpec:
    duration: float  # seconds
    nodes: tuple[str, ...]
    background: tuple[BackgroundSource, ...]
    chains: tuple[CausalChain, ...]
    seed: int = 0

    def validate(self) -> list[str]:
        problems: list[str] = []
        if self.duration <= 0:
            problems.append("duration must be > 0")
        if not self.nodes:
            problems.append("nodes must be non-empty")
        if len(set(self.nodes)) != len(self.nodes):
            problems.append("nodes must be distinct")
        for k, src in enumerate(self.background):
            if src.rate < 0:
                problems.append(f"background[{k}].rate must be >= 0")
        node_set = set(self.nodes)
        for k, chain in enumerate(self.chains):
            if not 0 <= chain.probability <= 1:
                problems.append(f"chains[{k}].probability must be within [0, 1]")
            a, b = chain.lag
            if not 0 <= a <= b:
                problems.append(f"chains[{k}].lag must satisfy 0 <= min <= max")
            if chain.per_hour < 0:
                problems.append(f"chains[{k}].per_hour must be >= 0")
            for role, ev in (("trigger", chain.trigger), ("effect", chain.effect)):
                if ev.node not in node_set:
                    problems.append(f"chains[{k}].{role} node {ev.node!r} is not in nodes")
        return problems


def _chain_event(raw: Any, path: str, problems: list[str]) -> ChainEvent:
    if not isinstance(raw, Mapping):
        problems.append(f"{path} must be an object")
        return ChainEvent(Dimension.EVENT, "", "")
    return ChainEvent(
        _dim_field(raw, path, problems), str(raw.get("msg", "")), str(raw.get("node", ""))
    )


def _dim_field(raw: Mapping, path: str, problems: list[str]) -> Dimension:
    try:
        return Dimension(raw.get("dim"))
    except ValueError:
        problems.append(f"{path}.dim is not a dimension")
        return Dimension.EVENT


def _float_field(raw: Mapping, key: str, default: float, path: str, problems: list[str]) -> float:
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{path}.{key} must be a number")
        return default
    return float(value)


def scenario_from_dict(data: Mapping[str, Any]) -> ScenarioSpec:
    """Build and validate a spec from parsed JSON; collects all problems."""
    problems: list[str] = []
    background: list[BackgroundSource] = []
    raw_bg = data.get("background", [])
    if not isinstance(raw_bg, list):
        problems.append("background must be an array")
        raw_bg = []
    for k, raw in enumerate(raw_bg):
        if not isinstance(raw, Mapping):
            problems.append(f"background[{k}] must be an object")
            continue
        dim = _dim_field(raw, f"background[{k}]", problems)
        rate = _float_field(raw, "rate", 0.0, f"background[{k}]", problems)
        background.append(BackgroundSource(dim, str(raw.get("msg", "")), rate))
    chains: list[CausalChain] = []
    raw_chains = data.get("chains", [])
    if not isinstance(raw_chains, list):
        problems.append("chains must be an array")
        raw_chains = []
    for k, raw in enumerate(raw_chains):
        if not isinstance(raw, Mapping):
            problems.append(f"chains[{k}] must be an object")
            continue
        lag_raw = raw.get("lag", (0.0, 0.0))
        if (
            not isinstance(lag_raw, (list, tuple))
            or len(lag_raw) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in lag_raw)
        ):
            problems.append(f"chains[{k}].lag must be [min, max]")
            lag_raw = (0.0, 0.0)
        chains.append(
            CausalChain(
                trigger=_chain_event(raw.get("trigger"), f"chains[{k}].trigger", problems),
                effect=_chain_event(raw.get("effect"), f"chains[{k}].effect", problems),
                probability=_float_field(raw, "probability", 1.0, f"chains[{k}]", problems),
                lag=(float(lag_raw[0]), float(lag_raw[1])),
                per_hour=_float_field(raw, "per_hour", 0.0, f"chains[{k}]", problems),
            )
        )
    nodes_raw = data.get("nodes", [])
    if not isinstance(nodes_raw, list):
        problems.append("nodes must be an array")
        nodes_raw = []
    duration = data.get("duration", 0.0)
    if isinstance(duration, bool) or not isinstance(duration, (int, float)):
        problems.append("duration must be a number")
        duration = 0.0
    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        problems.append("seed must be an integer")
        seed = 0
    spec = ScenarioSpec(
        duration=float(duration),
        nodes=tuple(str(n) for n in nodes_raw),
        background=tuple(background),
        chains=tuple(chains),
        seed=seed,
    )
    problems.extend(spec.validate())
    if problems:
        raise ScenarioError(problems)
    return spec


def load_scenario(path: str | Path) -> ScenarioSpec:
    text = read_text(path)
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ScenarioError([f"scenario is not valid JSON: {json_fault(exc)}"]) from None
    if not isinstance(data, Mapping):
        raise ScenarioError(["scenario must be a JSON object"])
    return scenario_from_dict(data)


def generate(spec: ScenarioSpec) -> tuple[list[dict], list[dict]]:
    """Produce (records, truth pairs) for the scenario.

    All randomness comes from one Mersenne Twister stream seeded with
    spec.seed, drawn in a fixed order: background sources in spec order
    crossed with nodes in spec order, then chains in spec order. Equal
    specs therefore yield byte-identical output on any platform. Effects
    may land past the duration; they are still emitted.
    """
    problems = spec.validate()
    if problems:
        raise ScenarioError(problems)
    rng = random.Random(spec.seed)
    duration = spec.duration
    records: list[dict] = []

    for src in spec.background:
        if src.rate <= 0:
            continue
        lam = src.rate / 3600.0
        dim, msg = src.dim.value, src.msg
        for node in spec.nodes:
            t = rng.expovariate(lam)
            while t < duration:
                records.append({"ts": t, "node": node, "dim": dim, "msg": msg})
                t += rng.expovariate(lam)

    pairs: list[dict] = []
    for chain in spec.chains:
        if chain.per_hour <= 0:
            continue
        period = 3600.0 / chain.per_hour
        t = period / 2.0
        while t < duration:
            trigger = {
                "ts": t,
                "node": chain.trigger.node,
                "dim": chain.trigger.dim.value,
                "msg": chain.trigger.msg,
            }
            records.append(trigger)
            if rng.random() < chain.probability:
                lag = rng.uniform(chain.lag[0], chain.lag[1])
                effect = {
                    "ts": t + lag,
                    "node": chain.effect.node,
                    "dim": chain.effect.dim.value,
                    "msg": chain.effect.msg,
                }
                records.append(effect)
                pairs.append({"trigger": trigger, "effect": effect})
            t += period

    records.sort(key=lambda r: (r["ts"], r["node"], r["dim"], r["msg"]))
    pairs.sort(key=lambda p: (p["trigger"]["ts"], p["effect"]["ts"]))
    return records, pairs


def write_jsonl(rows: Iterable[Mapping[str, Any]], path: str | Path) -> None:
    """One `json.dumps(row, sort_keys=True)` line per row, from one encoder."""
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(encode(row) + "\n" for row in rows)

