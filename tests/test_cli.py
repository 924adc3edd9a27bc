import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import logloom
from _oracles import reference_write_events, reference_write_graphs, reference_write_instances
from logloom import ConfigError, PipelineConfig, config_digest
from logloom.cli import main
from logloom.pipeline import (
    graphs_stage,
    mine_rules_stage,
    preprocess_stage,
    read_events,
    read_instances,
    read_rules_doc,
)

# Every file of a run that is a byte-exact function of the log and the knobs.
INTERCHANGE = ("templates.tsv", "rejects.txt", "events.jsonl", "rules.json",
               "instances.jsonl", "graphs.json", "kb.json")

SCENARIO = {
    "duration": 1800,
    "nodes": ["a", "b"],
    "seed": 11,
    "background": [],
    "chains": [
        {
            "trigger": {"dim": "event", "msg": "config changed", "node": "a"},
            "effect": {"dim": "status", "msg": "performance degraded", "node": "b"},
            "probability": 1.0,
            "lag": [5, 10],
            "per_hour": 24,
        }
    ],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "scenario.json").write_text(json.dumps(SCENARIO), encoding="utf-8")
    assert main(["synth", "--scenario", str(root / "scenario.json"), "--out", str(root / "data")]) == 0
    assert main(["pipeline", "--input", str(root / "data" / "log.jsonl"), "--out", str(root / "run")]) == 0
    return root


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["ingest"]) == 1

    def test_unreadable_input_is_2(self, tmp_path, capsys):
        assert main(["pipeline", "--input", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path)]) == 2

    def test_majority_rejects_is_2(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_text('garbage\nmore garbage\n{"ts": 1, "node": "a", "dim": "event", "msg": "x"}\n')
        assert main(["pipeline", "--input", str(log), "--out", str(tmp_path / "out")]) == 2
        assert "rejected" in capsys.readouterr().err

    def test_majority_dimensionless_is_2(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_text(
            '{"ts": 1, "node": "a", "msg": "x"}\n'
            '{"ts": 2, "node": "a", "msg": "y"}\n'
            '{"ts": 3, "node": "a", "dim": "event", "msg": "z"}\n'
        )
        assert main(["pipeline", "--input", str(log), "--out", str(tmp_path / "out")]) == 2
        assert "rejected 2 of 3" in capsys.readouterr().err

    def test_json_lines_past_the_decoder_limits_are_rejected(self, tmp_path, capsys):
        """An integer literal over the digit limit and nesting over the
        recursion limit are rejected lines that count toward the majority."""
        good = '{{"ts": {}, "node": "a", "dim": "event", "msg": "x"}}\n'
        huge = '{"ts": 2, "node": "a", "dim": "event", "msg": "x", "n": ' + "9" * 5000 + "}\n"
        deep = "[" * 100_000 + "]" * 100_000 + "\n"
        log = tmp_path / "log.jsonl"
        log.write_text(good.format(1) + huge + good.format(3) + deep + good.format(5))
        assert main(["pipeline", "--input", str(log), "--out", str(tmp_path / "out")]) == 0
        rejects = (tmp_path / "out" / "rejects.txt").read_text().splitlines()
        assert [line[:34] for line in rejects] == [
            "line 2: invalid JSON: Exceeds the ",
            "line 4: invalid JSON: maximum recu",
        ]
        log.write_text(huge + good.format(3) + deep)
        assert main(["pipeline", "--input", str(log), "--out", str(tmp_path / "again")]) == 2
        assert "rejected 2 of 3" in capsys.readouterr().err

    def test_unknown_config_key_is_3_and_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"wnidow": 120}')
        log = tmp_path / "log.jsonl"
        log.write_text('{"ts": 1, "node": "a", "dim": "event", "msg": "x"}\n')
        assert main(["pipeline", "--config", str(cfg), "--input", str(log), "--out", str(tmp_path / "o")]) == 3
        assert "wnidow" in capsys.readouterr().err

    def test_config_not_json_is_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{oops")
        assert main(["ingest", "--config", str(cfg), "--input", "x", "--out", str(tmp_path)]) == 3

    def test_out_of_range_value_is_3(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_text('{"ts": 1, "node": "a", "dim": "event", "msg": "x"}\n')
        assert main(["pipeline", "--input", str(log), "--out", str(tmp_path / "o"), "--min-sup", "2.0"]) == 3

    @pytest.mark.parametrize("knob", ["threads", "seed"])
    def test_retired_knob_is_rejected(self, tmp_path, capsys, knob):
        log = tmp_path / "log.jsonl"
        log.write_text('{"ts": 1, "node": "a", "dim": "event", "msg": "x"}\n')
        run = ["pipeline", "--input", str(log), "--out", str(tmp_path / "o")]
        assert main(run + [f"--{knob}", "4"]) == 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({knob: 2}))
        capsys.readouterr()
        assert main(run + ["--config", str(cfg)]) == 3
        assert knob in capsys.readouterr().err

    def test_invalid_scenario_is_3(self, tmp_path, capsys):
        bad = tmp_path / "scenario.json"
        bad.write_text('{"duration": -1, "nodes": []}')
        assert main(["synth", "--scenario", str(bad), "--out", str(tmp_path)]) == 3

    def test_schema_invalid_kb_is_3(self, tmp_path, capsys):
        kb = tmp_path / "kb.json"
        kb.write_text('{"version": 99}')
        assert main(["query", "--kb", str(kb), "--target", "status:0"]) == 3

    def test_repeated_pattern_in_kb_is_3(self, workdir, tmp_path, capsys):
        doc = json.loads((workdir / "run" / "kb.json").read_text())
        doc["patterns"].append(doc["patterns"][0])
        kb = tmp_path / "kb.json"
        kb.write_text(json.dumps(doc))
        assert main(["query", "--kb", str(kb), "--target", "status:0"]) == 3
        assert "duplicate pattern" in capsys.readouterr().err

    def test_repeated_template_in_templates_file_is_2(self, workdir, tmp_path, capsys):
        lines = (workdir / "run" / "templates.tsv").read_text().splitlines(keepends=True)
        templates = tmp_path / "templates.tsv"
        first = lines[0].partition("\t")[2]
        templates.write_text("".join(lines) + f"{len(lines)}\t{first}")
        assert main([
            "mine-rules", "--events", str(workdir / "run" / "events.jsonl"),
            "--templates", str(templates), "--out", str(tmp_path / "o")]) == 2
        assert f"line {len(lines) + 1}: repeats template 0" in capsys.readouterr().err

    def test_non_integer_blacklist_line_is_3_and_located(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text('{"ts": 1.0, "node": "a", "dim": "event", "template": 0, "count": 1}\n')
        blacklist = tmp_path / "blacklist.txt"
        blacklist.write_text("3  # noisy\n\nabc\n")
        assert main([
            "preprocess", "--events", str(events), "--blacklist-file", str(blacklist),
            "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "blacklist" in err and str(blacklist) in err and "line 3" in err

    @pytest.mark.parametrize("text, where", [
        ("1 # note\x1c\nabc\n", "line 2: 'abc'"),
        ("1\x1c2\nabc\n", "line 1: '1\\x1c2'"),
        ("-3\n", "line 1: '-3'"),
        ("1_0\n", "line 1: '1_0'"),
        ("0\n+4\n", "line 2: '+4'"),
        ("\u0663\n", "line 1: '\u0663'"),
        ("9" * 5000 + "\n", "line 1: '" + "9" * 5000 + "'"),
    ], ids=["comment", "id", "negative", "underscore", "plus", "arabic_indic",
            "past_digit_limit"])
    def test_blacklist_lines_end_only_at_newlines(self, tmp_path, capsys, text, where):
        """A \\x1c, which str.splitlines breaks at, stays inside its line;
        a negative id is located like any other line that is not an id, and
        so is one that int() takes but is not ASCII digits alone."""
        blacklist = tmp_path / "bl.txt"
        blacklist.write_text(text, encoding="utf-8")
        assert main([
            "pipeline", "--input", os.devnull, "--blacklist-file", str(blacklist),
            "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == f"error: blacklist: {blacklist}: {where} is not a template id\n"

    @pytest.mark.parametrize("text, fault", [
        ("0\tconfig changed\nno tab\n", "missing tab"),
        ("0\tconfig changed\n5\tlink down\n", "'5' is not id 1"),
        ("0\tconfig changed\n1\tconfig changed\n", "repeats template 0"),
    ], ids=["missing_tab", "wrong_id", "repeated"])
    def test_templates_file_fault_names_file_and_line(self, workdir, tmp_path, capsys, text, fault):
        templates = tmp_path / "t.tsv"
        templates.write_text(text, encoding="utf-8")
        assert main([
            "mine-rules", "--events", str(workdir / "run" / "events.jsonl"),
            "--templates", str(templates), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {templates}: line 2: {fault}\n"

    @pytest.mark.parametrize("name, row", [
        ("events.jsonl", '{"count": 1, "dim": "event", "node": "a", "template": {}, "ts": 1.0}'),
        ("instances.jsonl", '{"anchor": 1.0, "dim": "event", "node": "a", "rule_id": {}, '
                            '"span": [1.0, 2.0]}'),
    ], ids=["events", "instances"])
    def test_line_with_integer_past_digit_limit_is_not_json(
        self, workdir, tmp_path, capsys, name, row
    ):
        run = workdir / "run"
        bad = tmp_path / name
        bad.write_text(row.replace("{}", "9" * 5000) + "\n", encoding="utf-8")
        argv = {
            "events.jsonl": ["mine-rules", "--events", str(bad),
                             "--templates", str(run / "templates.tsv")],
            "instances.jsonl": ["build-graphs", "--instances", str(bad),
                                "--rules", str(run / "rules.json")],
        }[name]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line 1: not JSON: Exceeds the limit (4300 digits)")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("fault", [
        "duplicate_label", "edge_to_missing_label", "antiparallel", "same_and_cross",
        "self_loop", "later_to_earlier", "unknown_kind",
    ])
    def test_invalid_window_graph_is_3(self, workdir, tmp_path, capsys, fault):
        doc = json.loads((workdir / "run" / "graphs.json").read_text())
        graph = doc["graphs"][1]
        first = graph["nodes"][0]
        d1, r1, d2, r2, kind = graph["edges"][0]
        other = "same" if kind == "cross" else "cross"
        if fault == "duplicate_label":
            graph["nodes"].append(dict(first))
        elif fault == "edge_to_missing_label":
            graph["edges"].append([first["dim"], first["rule_id"], "ras", 999, "cross"])
        elif fault == "antiparallel":
            graph["edges"].append([d2, r2, d1, r1, kind])
        elif fault == "same_and_cross":
            graph["edges"].append([d1, r1, d2, r2, other])
        elif fault == "self_loop":
            graph["edges"].append([d1, r1, d1, r1, "same"])
        elif fault == "later_to_earlier":
            graph["edges"][0] = [d2, r2, d1, r1, kind]
        else:
            graph["edges"][0][4] = "bogus"
        bad = tmp_path / "graphs.json"
        bad.write_text(json.dumps(doc))
        assert main([
            "mine-patterns", "--graphs", str(bad),
            "--rules", str(workdir / "run" / "rules.json"), "--out", str(tmp_path / "o")]) == 3
        assert "$.graphs[1]" in capsys.readouterr().err

    def test_out_of_order_events_are_3_and_located(self, workdir, tmp_path, capsys):
        lines = (workdir / "run" / "events.jsonl").read_text().splitlines(keepends=True)
        lines[1], lines[2] = lines[2], lines[1]
        events = tmp_path / "events.jsonl"
        events.write_text("".join(lines))
        assert main([
            "mine-rules", "--events", str(events),
            "--templates", str(workdir / "run" / "templates.tsv"), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert str(events) in err and "line 3" in err

    @pytest.mark.parametrize("name, edit, where", [
        pytest.param("events.jsonl", lambda row: "{not json", None, id="events-not_json"),
        pytest.param("events.jsonl", lambda row: _without(row, "node"), None, id="events-no_node"),
        pytest.param("events.jsonl", lambda row: {**row, "count": 0}, None, id="events-count_0"),
        pytest.param("events.jsonl", lambda row: {**row, "dim": "disk"}, None,
                     id="events-unknown_dim"),
        pytest.param("events.jsonl", lambda row: {**row, "template": 999}, None,
                     id="events-unknown_template"),
        pytest.param("events.jsonl", lambda row: {**row, "ts": "x"}, "line 1",
                     id="events-string_ts"),
        pytest.param("events.jsonl", lambda row: {**row, "ts": float("nan")}, "line 1",
                     id="events-nan_ts"),
        pytest.param("events.jsonl", lambda row: {**row, "template": True}, None,
                     id="events-bool_template"),
        pytest.param("events.jsonl", lambda row: {**row, "node": 5}, "line 1",
                     id="events-number_node"),
        pytest.param("events.jsonl", lambda row: "[" * 100_000 + "]" * 100_000, None,
                     id="events-deep_nesting"),
        pytest.param("instances.jsonl", lambda row: _without(row, "dim"), None,
                     id="instances-no_dim"),
        pytest.param("instances.jsonl", lambda row: {**row, "anchor": "x"}, "line 1",
                     id="instances-string_anchor"),
        pytest.param("instances.jsonl", lambda row: {**row, "span": [0.0]}, None,
                     id="instances-short_span"),
        pytest.param("instances.jsonl", lambda row: {**row, "rule_id": 1.5}, None,
                     id="instances-float_rule_id"),
        pytest.param("instances.jsonl", lambda row: {**row, "rule_id": 777}, None,
                     id="instances-unknown_rule"),
        pytest.param("graphs.json", lambda doc: {**doc, "graphs": [_without(doc["graphs"][0], "nodes")]},
                     "$.graphs[0]", id="graphs-window_without_nodes"),
        pytest.param("graphs.json", lambda doc: "{not json", "$.graphs", id="graphs-not_json"),
        pytest.param("graphs.json", lambda doc: doc["graphs"], "$.graphs", id="graphs-array"),
        pytest.param("graphs.json", lambda doc: {"graphs": 5}, "$.graphs", id="graphs-not_array"),
        pytest.param("graphs.json", lambda doc: "[" * 100_000 + "]" * 100_000, "$.graphs",
                     id="graphs-deep_nesting"),
        pytest.param("graphs.json", lambda doc: _first_node(doc, weight="x"), "$.graphs[0]",
                     id="graphs-string_weight"),
        pytest.param("graphs.json", lambda doc: _first_node(doc, weight=float("nan")),
                     "$.graphs[0]", id="graphs-nan_weight"),
        pytest.param("graphs.json", lambda doc: _first_node(doc, anchor="x"), "$.graphs[0]",
                     id="graphs-string_anchor"),
        pytest.param("graphs.json",
                     lambda doc: _first_node(doc, rule_id=float(doc["graphs"][0]["nodes"][0]["rule_id"])),
                     "$.graphs[0]", id="graphs-float_rule_id"),
        pytest.param("graphs.json", lambda doc: _first_node(doc, node=5), "$.graphs[0]",
                     id="graphs-number_node"),
        pytest.param("graphs.json", lambda doc: _first_edge(doc, 1, float), "$.graphs[0]",
                     id="graphs-float_edge_rule_id"),
        pytest.param("graphs.json", lambda doc: _first_edge(doc, 3, bool), "$.graphs[0]",
                     id="graphs-bool_edge_rule_id"),
        pytest.param("graphs.json", lambda doc: _edge_seen_before(doc, 1, float), "$.graphs[1]",
                     id="graphs-float_edge_rule_id_seen_as_int"),
        pytest.param("graphs.json", lambda doc: _edge_seen_before(doc, 3, bool), "$.graphs[1]",
                     id="graphs-bool_edge_rule_id_seen_as_int"),
        pytest.param("graphs.json",
                     lambda doc: {**doc, "graphs": [{**doc["graphs"][0], "window_index": "0"}]},
                     "$.graphs[0]", id="graphs-string_window_index"),
        pytest.param("graphs.json", lambda doc: _unknown_rule_node(doc), "$.graphs[0]",
                     id="graphs-unknown_rule"),
        pytest.param("graphs.json", lambda doc: {**doc, "version": 99}, "$.version",
                     id="graphs-version_99"),
        pytest.param("graphs.json", lambda doc: {**doc, "version": True}, "$.version",
                     id="graphs-version_true"),
        pytest.param("graphs.json", lambda doc: {**doc, "version": 1.0}, "$.version",
                     id="graphs-version_float"),
    ])
    def test_malformed_interchange_record_is_3_and_located(
        self, workdir, tmp_path, capsys, name, edit, where
    ):
        """A jsonl file gets its last line edited and must be named with
        that line; with `where` "line 1" the file is cut to that one line,
        which no neighbour's order check can catch. graphs.json is edited
        whole and named at `where`."""
        run = workdir / "run"
        bad = tmp_path / name
        if where and where.startswith("$"):
            bad.write_text(_text(edit(json.loads((run / name).read_text()))))
        else:
            lines = (run / name).read_text().splitlines()
            if where == "line 1":
                lines = lines[:1]
            lines[-1] = _text(edit(json.loads(lines[-1])))
            bad.write_text("\n".join(lines) + "\n")
            where = f"line {len(lines)}"
        rules = str(run / "rules.json")
        argv = {
            "events.jsonl": ["mine-rules", "--events", str(bad),
                             "--templates", str(run / "templates.tsv")],
            "instances.jsonl": ["build-graphs", "--instances", str(bad), "--rules", rules],
            "graphs.json": ["mine-patterns", "--graphs", str(bad), "--rules", rules],
        }[name]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and where in err

    # A JSON document `json.loads` cannot decode although its syntax is
    # fine: nesting past the recursion limit, an integer past the digit limit.
    UNDECODABLE = {
        "deep": "[" * 200_000,
        "huge_int": '{"version": ' + "9" * 5000 + "}",
    }
    # A command per whole-document JSON reader, reading the file {bad}.
    JSON_READERS = {
        "kb": ["query", "--kb", "{bad}", "--target", "status:0"],
        "config": ["ingest", "--config", "{bad}", "--input", "x", "--out", "{tmp}"],
        "scenario": ["synth", "--scenario", "{bad}", "--out", "{tmp}"],
    }

    @pytest.mark.parametrize("doc", UNDECODABLE)
    @pytest.mark.parametrize("reader", JSON_READERS)
    def test_undecodable_json_document_is_3(self, tmp_path, capsys, doc, reader):
        bad = tmp_path / f"{reader}.json"
        bad.write_text(self.UNDECODABLE[doc], encoding="utf-8")
        argv = [a.format(bad=bad, tmp=tmp_path / "o") for a in self.JSON_READERS[reader]]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err[:500]
        assert "not valid JSON" in err or "invalid JSON" in err

    # A command per flag that names a file read whole, reading the file {bad}
    # and good files from the run directory {run}.
    WHOLE_FILE_READERS = {
        "events": ["preprocess", "--events", "{bad}", "--out", "{tmp}"],
        "instances": ["build-graphs", "--instances", "{bad}", "--rules", "{run}/rules.json",
                      "--out", "{tmp}"],
        "templates": ["mine-rules", "--events", "{run}/events.jsonl", "--templates", "{bad}",
                      "--out", "{tmp}"],
        "config": ["ingest", "--config", "{bad}", "--input", "x", "--out", "{tmp}"],
        "blacklist": ["preprocess", "--events", "{run}/events.jsonl", "--blacklist-file", "{bad}",
                      "--out", "{tmp}"],
        "query-kb": ["query", "--kb", "{bad}", "--target", "status:0"],
        "export-kb": ["export", "--kb", "{bad}"],
        "merge-kb": ["merge", "--kb", "{bad}", "--incoming", "{run}/kb.json", "--out", "{tmp}"],
        "incoming": ["merge", "--kb", "{run}/kb.json", "--incoming", "{bad}", "--expert",
                     "--out", "{tmp}"],
        "rules": ["build-graphs", "--instances", "{run}/instances.jsonl", "--rules", "{bad}",
                  "--out", "{tmp}"],
        "graphs": ["mine-patterns", "--graphs", "{bad}", "--rules", "{run}/rules.json",
                   "--out", "{tmp}"],
        "scenario": ["synth", "--scenario", "{bad}", "--out", "{tmp}"],
    }

    @pytest.mark.parametrize("flag", WHOLE_FILE_READERS)
    def test_file_not_utf8_is_2_and_named(self, workdir, tmp_path, capsys, flag):
        bad = tmp_path / f"{flag}.bad"
        bad.write_bytes(b'{"msg": "caf\xe9"}\n')
        argv = [a.format(bad=bad, run=workdir / "run", tmp=tmp_path / "o")
                for a in self.WHOLE_FILE_READERS[flag]]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {bad}: not valid UTF-8 (byte 12)\n"


def _text(doc) -> str:
    return doc if isinstance(doc, str) else json.dumps(doc)


def _without(row: dict, key: str) -> dict:
    return {k: v for k, v in row.items() if k != key}


def _first_node(doc: dict, **fields) -> dict:
    """graphs.json cut to its first window, whose first node gets `fields`."""
    window = doc["graphs"][0]
    nodes = [{**window["nodes"][0], **fields}, *window["nodes"][1:]]
    return {**doc, "graphs": [{**window, "nodes": nodes}]}


def _unknown_rule_node(doc: dict) -> dict:
    """graphs.json cut to its first window, which gains a copy of its first
    node under rule id 999, half a second later."""
    window = doc["graphs"][0]
    first = window["nodes"][0]
    extra = {**first, "rule_id": 999, "anchor": first["anchor"] + 0.5}
    return {**doc, "graphs": [{**window, "nodes": [*window["nodes"], extra]}]}


def _first_edge(doc: dict, position: int, cast) -> dict:
    """graphs.json cut to its first window, whose first edge has the rule
    id at `position` cast to a float or bool that equals it."""
    window = doc["graphs"][0]
    edge = list(window["edges"][0])
    assert edge[position] in (0, 1)
    edge[position] = cast(edge[position])
    return {**doc, "graphs": [{**window, "edges": [edge, *window["edges"][1:]]}]}


def _edge_seen_before(doc: dict, position: int, cast) -> dict:
    """graphs.json cut to its first window, followed by a copy whose first
    edge is cast as in `_first_edge`, so the reader has already converted
    the same row with an int rule id."""
    (window,) = _first_edge(doc, position, lambda rule_id: rule_id)["graphs"]
    (cast_window,) = _first_edge(doc, position, cast)["graphs"]
    cast_window = {**cast_window, "window_index": window["window_index"] + 1}
    return {**doc, "graphs": [window, cast_window]}


class TestSynth:
    def test_outputs_exist(self, workdir):
        data = workdir / "data"
        assert (data / "log.jsonl").exists()
        assert (data / "truth.jsonl").exists()
        first = json.loads((data / "log.jsonl").read_text().splitlines()[0])
        assert set(first) == {"ts", "node", "dim", "msg"}


class TestPipeline:
    def test_artifacts_written(self, workdir):
        run = workdir / "run"
        for name in [
            "templates.tsv", "rejects.txt", "events.jsonl", "rules.json",
            "instances.jsonl", "graphs.json", "kb.json", "report.txt",
        ]:
            assert (run / name).exists(), name

    def test_report_lists_counts_and_timings(self, workdir, capsys):
        text = (workdir / "run" / "report.txt").read_text()
        assert "rules:" in text and "patterns:" in text and "timings:" in text

    def test_empty_log_exits_zero(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_text("")
        assert main(["pipeline", "--input", str(log), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "rules: 0" in out and "patterns: 0" in out

    def test_rerun_is_byte_identical(self, workdir, tmp_path):
        log = workdir / "data" / "log.jsonl"
        assert main(["pipeline", "--input", str(log), "--out", str(tmp_path / "again")]) == 0
        for name in INTERCHANGE:
            assert (tmp_path / "again" / name).read_bytes() == (workdir / "run" / name).read_bytes(), name


class TestDeterminism:
    def test_outputs_do_not_depend_on_hash_seed(self, workdir, tmp_path):
        """Each interchange file is the same under three string-hash seeds,
        so no output follows the iteration order of a set or dict."""
        src = Path(logloom.__file__).resolve().parents[1]
        log = workdir / "data" / "log.jsonl"
        expected = {name: (workdir / "run" / name).read_bytes() for name in INTERCHANGE}
        for seed in ("0", "1", "random"):
            out = tmp_path / seed
            path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
            subprocess.run(
                [sys.executable, "-m", "logloom.cli", "pipeline", "--input", str(log), "--out", str(out)],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
                check=True, capture_output=True, timeout=120,
            )
            assert {name: (out / name).read_bytes() for name in INTERCHANGE} == expected, seed


# A run in a fresh interpreter: import the package and its CLI, run the
# pipeline on argv[1] into argv[2], and print which of argv[3:] are loaded.
_FOOTPRINT_RUN = """
import json, sys
import logloom, logloom.cli
logloom.run_pipeline(logloom.PipelineConfig(input=sys.argv[1], out=sys.argv[2]))
print(json.dumps([name for name in sys.argv[3:] if name in sys.modules]))
"""


class TestFootprint:
    # `hashlib` maps OpenSSL's libcrypto; `statistics` brings `decimal`
    # and `fractions`. A run needs none of them.
    UNNEEDED = ("_hashlib", "hashlib", "statistics", "decimal", "fractions")

    def test_a_run_loads_no_hashlib_or_statistics(self, workdir, tmp_path):
        src = Path(logloom.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT_RUN, str(workdir / "data" / "log.jsonl"),
             str(tmp_path / "out"), *self.UNNEEDED],
            env={**os.environ, "PYTHONPATH": path}, check=True, capture_output=True,
            text=True, timeout=120,
        )
        assert json.loads(proc.stdout) == []
        for name in INTERCHANGE:
            assert (tmp_path / "out" / name).read_bytes() == (workdir / "run" / name).read_bytes()

    @pytest.mark.parametrize("knobs", [
        {},
        {"min_sup": 0.5, "blacklist": [7, 2], "max_rate": 30, "combiner": "min",
         "input": "log.jsonl", "out": "run"},
    ], ids=["default", "non_default"])
    def test_config_digest_is_sha256_of_the_knobs(self, knobs):
        cfg = PipelineConfig.from_dict(knobs)
        payload = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)
                   if f.name not in ("input", "out")}
        payload["blacklist"] = sorted(payload["blacklist"])
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        assert config_digest(cfg) == hashlib.sha256(blob).hexdigest()[:16]


class TestComposability:
    def test_stagewise_equals_pipeline(self, workdir, tmp_path):
        """Each interchange file of the stage commands run one by one equals
        the pipeline's, on a log with a few malformed lines among the good."""
        lines = (workdir / "data" / "log.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        for at, bad in [(len(lines), "[]\n"), (10, '{"ts": 1}\n'), (3, "{not json\n")]:
            lines.insert(at, bad)
        log = tmp_path / "log.jsonl"
        log.write_text("".join(lines), encoding="utf-8")
        s = tmp_path
        assert main(["pipeline", "--input", str(log), "--out", str(s / "run")]) == 0
        assert main(["ingest", "--input", str(log), "--out", str(s / "1")]) == 0
        assert main(["preprocess", "--events", str(s / "1" / "events.jsonl"), "--out", str(s / "2")]) == 0
        assert main([
            "mine-rules", "--events", str(s / "2" / "events.jsonl"),
            "--templates", str(s / "1" / "templates.tsv"), "--out", str(s / "3")]) == 0
        assert main([
            "build-graphs", "--instances", str(s / "3" / "instances.jsonl"),
            "--rules", str(s / "3" / "rules.json"), "--out", str(s / "4"), "--dot"]) == 0
        assert main([
            "mine-patterns", "--graphs", str(s / "4" / "graphs.json"),
            "--rules", str(s / "3" / "rules.json"), "--out", str(s / "5")]) == 0
        # The stage, by its output directory, that writes each file.
        stage = {"templates.tsv": "1", "rejects.txt": "1", "events.jsonl": "2", "rules.json": "3",
                 "instances.jsonl": "3", "graphs.json": "4", "kb.json": "5"}
        for name in INTERCHANGE:
            assert (s / stage[name] / name).read_bytes() == (s / "run" / name).read_bytes(), name
        assert len((s / "run" / "rejects.txt").read_text().splitlines()) == 3
        assert "digraph window_0" in (s / "4" / "graphs.dot").read_text()


    def test_templates_holding_line_separators_pass_between_stages(self, tmp_path):
        """Messages holding characters that str.splitlines splits on, which
        the templates file keeps unescaped, go from ingest through
        preprocess to mine-rules."""
        seps = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
        rows = [
            {"ts": t + 10 * i, "node": "a", "dim": "event", "msg": f"disk{sep}full"}
            for t in range(0, 3600, 300)
            for i, sep in enumerate(seps)
        ]
        log = tmp_path / "log.jsonl"
        log.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        s = tmp_path
        assert main(["ingest", "--input", str(log), "--out", str(s / "1")]) == 0
        assert main(["preprocess", "--events", str(s / "1" / "events.jsonl"), "--out", str(s / "2")]) == 0
        assert main([
            "mine-rules", "--events", str(s / "2" / "events.jsonl"),
            "--templates", str(s / "1" / "templates.tsv"), "--out", str(s / "3")]) == 0
        doc = json.loads((s / "3" / "rules.json").read_text(encoding="utf-8"))
        assert [masked for _, masked in doc["templates"]] == [f"disk{sep}full" for sep in seps]

    def test_stage_files_equal_reference_writers(self, tmp_path):
        """preprocess, mine-rules and build-graphs, run one by one on a
        hand-written log with int timestamps and a non-ASCII node, each
        write what the json.dumps reference writes for that stage's
        records."""
        rows = []
        for t in range(0, 2000, 100):
            rows += [
                {"count": 1, "dim": "event", "node": "a", "template": 0, "ts": t},
                {"count": 1, "dim": "event", "node": "n\u0153ud-\u03b2", "template": 1, "ts": t + 5},
                {"count": 2, "dim": "status", "node": "n\u0153ud-\u03b2", "template": 2, "ts": t + 30},
            ]
        s = tmp_path
        (s / "events.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        (s / "templates.tsv").write_text("0\tconfig changed\n1\tlink down\n2\tjob slow\n")
        assert main(["preprocess", "--events", str(s / "events.jsonl"), "--out", str(s / "2")]) == 0
        assert main([
            "mine-rules", "--events", str(s / "2" / "events.jsonl"),
            "--templates", str(s / "templates.tsv"), "--out", str(s / "3")]) == 0
        assert main([
            "build-graphs", "--instances", str(s / "3" / "instances.jsonl"),
            "--rules", str(s / "3" / "rules.json"), "--out", str(s / "4")]) == 0

        cfg = PipelineConfig()
        kept, _, _ = preprocess_stage(cfg, read_events(s / "events.jsonl"))
        _, instances = mine_rules_stage(cfg, read_events(s / "2" / "events.jsonl"))
        rules = list(read_rules_doc(s / "3" / "rules.json").rules.values())
        graphs = graphs_stage(cfg, read_instances(s / "3" / "instances.jsonl", rules), rules)
        assert isinstance(kept[0].ts, int) and isinstance(instances[0].anchor, int)
        assert any(g.edges for g in graphs)
        for written, write, records in [
            (s / "2" / "events.jsonl", reference_write_events, kept),
            (s / "3" / "instances.jsonl", reference_write_instances, instances),
            (s / "4" / "graphs.json", reference_write_graphs, graphs),
        ]:
            write(records, s / "reference")
            assert written.read_bytes() == (s / "reference").read_bytes(), written.name
            assert b"n\\u0153ud-\\u03b2" in written.read_bytes()


class TestFlagPrecedence:
    def test_flag_overrides_config_file(self, workdir, tmp_path, capsys):
        log = workdir / "data" / "log.jsonl"
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"min_sup": 0.5}')
        assert main(["pipeline", "--config", str(cfg), "--input", str(log), "--out", str(tmp_path / "a")]) == 0
        assert main([
            "pipeline", "--config", str(cfg), "--min-sup", "0.2",
            "--input", str(log), "--out", str(tmp_path / "b")]) == 0
        digest_a = json.loads((tmp_path / "a" / "kb.json").read_text())["metadata"]["config_digest"]
        digest_b = json.loads((tmp_path / "b" / "kb.json").read_text())["metadata"]["config_digest"]
        assert digest_a == config_digest(PipelineConfig.from_dict({"min_sup": 0.5}))
        assert digest_b == config_digest(PipelineConfig.from_dict({"min_sup": 0.2}))


class TestConfigSchema:
    @pytest.mark.parametrize("key, value", [
        ("p_max", 2.5),
        ("k_max", True),
        ("k_max", "3"),
        ("blacklist", [True]),
        ("blacklist", [-1]),
        ("window", True),
        ("max_rate", "30"),
        ("min_sup", 0),
        ("weight_mode", "uniform"),
        ("dim_default", "disk"),
        ("input", 7),
        ("max_lag", 301),
        ("window", 120.5),
        ("window", float("inf")),
    ])
    def test_bad_value_names_its_key(self, key, value):
        for build in (lambda: PipelineConfig(**{key: value}),
                      lambda: PipelineConfig.from_dict({key: value})):
            with pytest.raises(ConfigError) as err:
                build()
            assert err.value.key == key

    def test_readme_table_matches_schema(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
        rows = {}
        for line in section.splitlines():
            m = re.fullmatch(r"\| `(\w+)` \| (.+?) \| (.+) \|", line)
            if m:
                rows[m[1]] = (m[2], m[3])
        knobs = {f.name: f for f in dataclasses.fields(PipelineConfig)}
        assert set(rows) == set(knobs) - {"input", "out"}
        for key, (default, meaning) in rows.items():
            f = knobs[key]
            listed = tuple(re.findall(r"`([^`]+)`", meaning))
            assert listed == f.metadata["choices"], key
            assert meaning.split(": `")[0] == f.metadata["meaning"], key
            text = default.strip("`")
            try:
                value = None if text == "off" else json.loads(text)
            except json.JSONDecodeError:
                value = text
            expected = list(f.default) if isinstance(f.default, tuple) else f.default
            assert value == expected, key


class TestQuery:
    def test_ranked_table(self, workdir, capsys):
        kb = workdir / "run" / "kb.json"
        assert main(["query", "--kb", str(kb), "--target", "status:0"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("rank")
        assert lines[1].startswith("1")
        assert "event:0" in lines[1] and "[status:0]" in lines[1]

    def test_target_spellings_agree(self, workdir, capsys):
        kb = workdir / "run" / "kb.json"
        main(["query", "--kb", str(kb), "--target", "status:0"])
        short = capsys.readouterr().out
        main(["query", "--kb", str(kb), "--target", "status:rule:0"])
        long = capsys.readouterr().out
        assert short == long

    def test_template_target(self, workdir, capsys):
        kb = workdir / "run" / "kb.json"
        rules = json.loads(kb.read_text())["rules"]
        status_rule = next(r for r in rules if r["dim"] == "status")
        code = main(["query", "--kb", str(kb), "--target", f"status:template:{status_rule['consequent']}"])
        assert code == 0
        assert "event:0" in capsys.readouterr().out

    def test_scope_flag(self, workdir, capsys):
        kb = workdir / "run" / "kb.json"
        assert main(["query", "--kb", str(kb), "--target", "status:0", "--scope", "cross"]) == 0
        assert "event:0" in capsys.readouterr().out
        assert main(["query", "--kb", str(kb), "--target", "status:0", "--scope", "same"]) == 0
        assert "no stored pattern" in capsys.readouterr().out

    def test_malformed_target_is_usage_error(self, workdir, capsys):
        kb = workdir / "run" / "kb.json"
        assert main(["query", "--kb", str(kb), "--target", "status"]) == 1
        assert main(["query", "--kb", str(kb), "--target", "bogus:0"]) == 1
        assert main(["query", "--kb", str(kb), "--target", "status:zero"]) == 1
        # An id is ASCII digits only: no sign, space, digit-group
        # underscore or non-ASCII digit, and no more digits than int() reads.
        for raw in ("+0", " 0", "0_0", "\u0660", "-1", "9" * 5000):
            assert main(["query", "--kb", str(kb), "--target", f"status:{raw}"]) == 1, raw
            assert "target id must be ASCII digits" in capsys.readouterr().err

    def test_unresolvable_target_is_3(self, workdir, capsys):
        kb = workdir / "run" / "kb.json"
        assert main(["query", "--kb", str(kb), "--target", "status:7"]) == 3

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_exits_quietly(self, tmp_path, unbuffered):
        """`python -m logloom query ... | head -1`: the reader closes the
        pipe while most of the table is unwritten, and the command still
        exits 0 with nothing on stderr."""
        n = 5000  # about 70 bytes a row: several 64 KiB pipe buffers
        rule = {"antecedent": [], "consequent": 0, "support": 1.0, "confidence": 1.0}
        doc = {
            "version": 1,
            "metadata": {},
            "templates": [[0, "t"]],
            "rules": [{**rule, "dim": "event", "rule_id": i} for i in range(n)]
            + [{**rule, "dim": "status", "rule_id": 0}],
            "patterns": [
                {
                    "nodes": [[0, "event", i, 1.0], [1, "status", 0, 1.0]],
                    "edges": [[0, 1, "cross"]],
                    "support": 1.0,
                    "weighted_support": 1.0,
                    "structural_confidence": 1.0,
                    "knowledge_confidence": 1.0,
                    "provenance": ["mined"],
                }
                for i in range(n)
            ],
        }
        kb = tmp_path / "kb.json"
        kb.write_text(json.dumps(doc), encoding="utf-8")
        src = Path(logloom.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "logloom", "query", "--kb", str(kb), "--target", "status:0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()
            proc.stderr.close()
        assert first.startswith(b"rank")
        assert (code, err) == (0, b"")


class TestExport:
    def test_document_round_trip_bytes(self, workdir, capsys):
        kb = workdir / "run" / "kb.json"
        assert main(["export", "--kb", str(kb)]) == 0
        assert capsys.readouterr().out == kb.read_text()

    def test_dot_on_two_node_pattern(self, workdir, capsys):
        kb = workdir / "run" / "kb.json"
        assert main(["export", "--kb", str(kb), "--dot"]) == 0
        dot = capsys.readouterr().out
        blocks = [b for b in dot.split("digraph ") if b]
        two_node = next(b for b in blocks if b.count("->") == 1)
        assert two_node.count("[label=") == 3  # 2 nodes + 1 edge

    def test_output_file(self, workdir, tmp_path):
        kb = workdir / "run" / "kb.json"
        target = tmp_path / "exported.json"
        assert main(["export", "--kb", str(kb), "--output", str(target)]) == 0
        assert target.read_bytes() == kb.read_bytes()


class TestMerge:
    def test_merge_two_kbs_with_digest_warning(self, workdir, tmp_path, capsys):
        run = workdir / "run"
        log = workdir / "data" / "log.jsonl"
        assert main(["pipeline", "--input", str(log), "--out", str(tmp_path / "other"), "--min-sup", "0.05"]) == 0
        assert main([
            "merge", "--kb", str(run / "kb.json"),
            "--incoming", str(tmp_path / "other" / "kb.json"),
            "--out", str(tmp_path / "merged")]) == 0
        report = (tmp_path / "merged" / "merge_report.txt").read_text()
        assert "digests differ" in report
        assert (tmp_path / "merged" / "kb.json").exists()

    def test_merge_expert_document(self, workdir, tmp_path, capsys):
        run = workdir / "run"
        expert = tmp_path / "expert.json"
        expert.write_text(json.dumps({
            "metadata": {"source": "ops"},
            "patterns": [
                {
                    "nodes": [[0, "event", 0, 1.0], [1, "status", 0, 1.0]],
                    "edges": [[0, 1, "cross"]],
                    "knowledge_confidence": 0.99,
                },
                {
                    "nodes": [[0, "event", 0, 1.0], [1, "status", 0, 1.0]],
                    "edges": [[0, 1, "same"]],
                    "knowledge_confidence": 0.42,
                },
            ],
        }))
        assert main([
            "merge", "--kb", str(run / "kb.json"), "--incoming", str(expert),
            "--expert", "--out", str(tmp_path / "m")]) == 0
        doc = json.loads((tmp_path / "m" / "kb.json").read_text())
        cross = next(p for p in doc["patterns"] if [[0, 1, "cross"]] == p["edges"])
        same = next(p for p in doc["patterns"] if [[0, 1, "same"]] == p["edges"])
        # scores merge by max, so the mined 1.0 wins; provenance is the union
        assert cross["knowledge_confidence"] == 1.0
        assert "expert:ops" in cross["provenance"] and "mined" in cross["provenance"]
        assert same["knowledge_confidence"] == 0.42
        assert same["provenance"] == ["expert:ops"]
