import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from _oracles import reference_write_jsonl
from logloom import (
    BackgroundSource,
    CausalChain,
    ChainEvent,
    Dimension,
    ScenarioError,
    ScenarioSpec,
    generate,
    load_scenario,
    scenario_from_dict,
)
from logloom.synth import write_jsonl


def _spec(**overrides):
    base = dict(
        duration=3600.0,
        nodes=("a", "b"),
        background=(BackgroundSource(Dimension.EVENT, "heartbeat <NUM>", 30.0),),
        chains=(
            CausalChain(
                trigger=ChainEvent(Dimension.EVENT, "config changed", "a"),
                effect=ChainEvent(Dimension.STATUS, "performance degraded", "b"),
                probability=1.0,
                lag=(10.0, 60.0),
                per_hour=12.0,
            ),
        ),
        seed=5,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestValidation:
    def test_valid_spec_has_no_problems(self):
        assert _spec().validate() == []

    @pytest.mark.parametrize(
        "overrides,needle",
        [
            (dict(duration=0), "duration"),
            (dict(nodes=()), "nodes"),
            (dict(nodes=("a", "a")), "distinct"),
            (dict(background=(BackgroundSource(Dimension.EVENT, "x", -1),)), "rate"),
        ],
    )
    def test_problems_reported(self, overrides, needle):
        problems = _spec(**overrides).validate()
        assert problems and any(needle in p for p in problems)

    def test_chain_validation(self):
        bad_chain = CausalChain(
            trigger=ChainEvent(Dimension.EVENT, "t", "a"),
            effect=ChainEvent(Dimension.STATUS, "e", "zz"),
            probability=1.5,
            lag=(60.0, 10.0),
            per_hour=-1.0,
        )
        problems = _spec(chains=(bad_chain,)).validate()
        assert len(problems) >= 4  # probability, lag order, rate, unknown node

    def test_generate_refuses_invalid_spec(self):
        with pytest.raises(ScenarioError) as err:
            generate(_spec(duration=-5))
        assert "duration" in str(err.value)


class TestScenarioFromDict:
    def test_happy_path(self):
        spec = scenario_from_dict(
            {
                "duration": 100,
                "nodes": ["a"],
                "background": [{"dim": "event", "msg": "hb", "rate": 10}],
                "chains": [
                    {
                        "trigger": {"dim": "event", "msg": "t", "node": "a"},
                        "effect": {"dim": "ras", "msg": "e", "node": "a"},
                        "probability": 0.5,
                        "lag": [1, 2],
                        "per_hour": 36,
                    }
                ],
                "seed": 9,
            }
        )
        assert spec.duration == 100.0
        assert spec.seed == 9
        assert spec.chains[0].effect.dim is Dimension.RAS

    def test_all_violations_collected(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(
                {
                    "duration": -1,
                    "nodes": [],
                    "background": [{"dim": "event", "msg": "x", "rate": "fast"}],
                    "chains": "nope",
                }
            )
        text = str(err.value)
        assert "duration" in text and "nodes" in text
        assert "rate" in text and "chains" in text

    def test_defaults(self):
        spec = scenario_from_dict({"duration": 10, "nodes": ["a"]})
        assert spec.background == () and spec.chains == () and spec.seed == 0

    def test_load_scenario_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text('{"duration": 10, "nodes": ["a"]}', encoding="utf-8")
        assert load_scenario(path).duration == 10.0

    def test_load_scenario_bad_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("{oops", encoding="utf-8")
        with pytest.raises(ScenarioError):
            load_scenario(path)


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = generate(_spec())
        b = generate(_spec())
        c = generate(_spec(seed=6))
        assert a == b
        assert a != c

    def test_records_sorted_and_well_formed(self):
        records, _ = generate(_spec())
        keys = [(r["ts"], r["node"], r["dim"], r["msg"]) for r in records]
        assert keys == sorted(keys)
        assert {r["node"] for r in records} <= {"a", "b"}
        assert all(r["ts"] >= 0 for r in records)
        assert all(Dimension(r["dim"]) for r in records)

    def test_trigger_schedule_is_half_period_offset(self):
        _, pairs = generate(_spec())
        trigger_ts = [p["trigger"]["ts"] for p in pairs]
        # 12 per hour -> every 300s starting at 150
        assert trigger_ts == [150.0 + 300.0 * k for k in range(12)]

    def test_effect_lag_within_bounds(self):
        _, pairs = generate(_spec())
        for p in pairs:
            lag = p["effect"]["ts"] - p["trigger"]["ts"]
            assert 10.0 <= lag <= 60.0
            assert p["effect"]["node"] == "b"
            assert p["effect"]["dim"] == "status"

    def test_probability_zero_and_one(self):
        _, none = generate(_spec(chains=(CausalChain(
            ChainEvent(Dimension.EVENT, "t", "a"), ChainEvent(Dimension.STATUS, "e", "b"),
            probability=0.0, lag=(1.0, 2.0), per_hour=12.0),)))
        assert none == []
        records, all_pairs = generate(_spec())
        assert len(all_pairs) == 12
        trigger_msgs = [r for r in records if r["msg"] == "config changed"]
        assert len(trigger_msgs) == 12

    def test_effect_may_land_past_duration(self):
        spec = _spec(
            duration=100.0,
            background=(),
            chains=(CausalChain(
                ChainEvent(Dimension.EVENT, "t", "a"), ChainEvent(Dimension.STATUS, "e", "b"),
                probability=1.0, lag=(60.0, 60.0), per_hour=36.0),),
        )
        records, pairs = generate(spec)
        assert pairs[0]["trigger"]["ts"] == 50.0
        assert pairs[0]["effect"]["ts"] == 110.0
        assert any(r["ts"] == 110.0 for r in records)

    def test_background_volume_scales_with_rate_and_nodes(self):
        records, _ = generate(_spec(chains=()))
        # 30/hour/node over 1h and 2 nodes: Poisson with mean 60
        assert 20 <= len(records) <= 120

    def test_zero_rate_background_skipped(self):
        records, _ = generate(_spec(
            background=(BackgroundSource(Dimension.EVENT, "x", 0.0),), chains=()
        ))
        assert records == []

    def test_no_sources_no_records(self):
        records, pairs = generate(_spec(background=(), chains=()))
        assert records == [] and pairs == []


class TestJsonl:
    def test_round_trip(self, tmp_path):
        rows = [{"b": 2, "a": 1}, {"x": "y"}]
        path = tmp_path / "rows.jsonl"
        write_jsonl(rows, path)
        assert [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()] == rows
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == '{"a": 1, "b": 2}'


TEXT = st.one_of(
    st.sampled_from(["nœud-β", 'say "hi"', "back\\slash", "ctl\x00\x1f\x7f", "line\u2028sep",
                     "para\u2029sep", "nel\x85", "\U0001f680", ""]),
    st.text(max_size=6),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), TEXT,
    st.integers(), st.sampled_from([2**64, -(2**70), 2**200]),
    st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16]),
)
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=8,
)
# A truth.jsonl row: a trigger and an effect, each a log record.
TRUTH_ROW = {
    "effect": {"dim": "status", "msg": "disk\u2028full", "node": "n01", "ts": 12.5},
    "trigger": {"dim": "event", "msg": "config", "node": "n00", "ts": -0.0},
}
ODD_ROWS = [TRUTH_ROW, {"ts": math.nan, "x": math.inf, "y": -math.inf, "n": None, "b": True,
                        "big": 2**70, "z": -0.0, "s": "ctl\x00\x85\u2028\U0001f680"}]


class TestJsonlEqualsJsonDumps:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.dictionaries(TEXT, VALUES, max_size=5), max_size=5))
    @example(rows=ODD_ROWS)
    def test_bytes(self, tmp_path, rows):
        write_jsonl(rows, tmp_path / "new")
        reference_write_jsonl(rows, tmp_path / "ref")
        assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()
