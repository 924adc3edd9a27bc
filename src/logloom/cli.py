"""Command line driver.

Exit codes: 0 success (also when the reader of standard output closes
it early), 1 usage errors, 2 unreadable or unparseable input (including
streams with a majority of rejected lines), 3 invalid configuration or
schema-invalid documents.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .graphs import label_text, window_graph_to_dot
from .ingest import Dimension, ParseError, TemplateTable, read_text
from .knowledge import NODE_SCOPES, merge, query_root_causes
from .patterns import consequent_index, pattern_to_dot
from .pipeline import (
    ConfigError,
    PipelineConfig,
    SchemaError,
    ascii_id,
    export,
    graphs_stage,
    import_expert,
    ingest_stage,
    kb_stage,
    knob_type,
    load,
    load_blacklist,
    mine_rules_stage,
    patterns_stage,
    preprocess_stage,
    read_config,
    read_events,
    read_graphs,
    read_instances,
    read_rules_doc,
    rules_doc,
    run_pipeline,
    write_events,
    write_graphs,
    write_instances,
    write_rejects,
)
from .synth import ScenarioError, generate, load_scenario, write_jsonl


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _UsageError(message)


def _add_knobs(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("analysis knobs (override the config file)")
    g.add_argument("--config", help="JSON config file")
    g.add_argument("--blacklist-file", dest="blacklist_file",
                   help="file of template ids to add to the blacklist")
    for f in fields(PipelineConfig):
        flag = f.metadata["flag"]
        if flag is None:
            continue
        g.add_argument(flag or "--" + f.name.replace("_", "-"), dest=f.name,
                       type=knob_type(f.name), choices=f.metadata["choices"] or None,
                       help=f.metadata["meaning"])


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    data = read_config(args.config) if args.config else {}
    for f in fields(PipelineConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            data[f.name] = value
    cfg = PipelineConfig.from_dict(data)
    if args.blacklist_file:
        ids = set(cfg.blacklist) | load_blacklist(args.blacklist_file)
        cfg = replace(cfg, blacklist=tuple(sorted(ids)))
    return cfg


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(getattr(args, "out", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = load_scenario(args.scenario)
    records, pairs = generate(spec)
    out = _out_dir(args)
    write_jsonl(records, out / "log.jsonl")
    write_jsonl(pairs, out / "truth.jsonl")
    print(f"wrote {len(records)} events and {len(pairs)} truth pairs to {out}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    events, table, rejects = ingest_stage(cfg, args.input)
    out = _out_dir(args)
    write_events(events, out / "events.jsonl")
    table.save(out / "templates.tsv")
    write_rejects(rejects, out / "rejects.txt")
    print(f"{len(events)} events, {len(table)} templates, {len(rejects)} rejects")
    return 0


def _cmd_preprocess(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    events = read_events(args.events)
    kept, merged_away, report = preprocess_stage(cfg, events)
    out = _out_dir(args)
    write_events(kept, out / "events.jsonl")
    summary = (
        f"kept {len(kept)} of {len(events)} events "
        f"(coalesced away: {merged_away})\n" + report.render() + "\n"
    )
    (out / "preprocess_report.txt").write_text(summary, encoding="utf-8")
    print(summary, end="")
    return 0


def _cmd_mine_rules(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    table = TemplateTable.load(args.templates)
    events = read_events(args.events, table)
    rules, instances = mine_rules_stage(cfg, events)
    out = _out_dir(args)
    (out / "rules.json").write_text(export(rules_doc(rules, table, cfg)), encoding="utf-8")
    write_instances(instances, out / "instances.jsonl")
    print(f"{len(rules)} rules, {len(instances)} instances")
    return 0


def _cmd_build_graphs(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    rules = list(read_rules_doc(args.rules).rules.values())
    instances = read_instances(args.instances, rules)
    graphs = graphs_stage(cfg, instances, rules)
    out = _out_dir(args)
    write_graphs(graphs, out / "graphs.json")
    if args.dot:
        text = "".join(window_graph_to_dot(g) for g in graphs)
        (out / "graphs.dot").write_text(text, encoding="utf-8")
    print(f"{len(graphs)} window graphs")
    return 0


def _cmd_mine_patterns(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    doc = read_rules_doc(args.rules)
    rules = list(doc.rules.values())
    graphs = read_graphs(args.graphs, rules)
    patterns = patterns_stage(cfg, graphs, rules)
    kb, _ = kb_stage(cfg, patterns, rules, doc.templates)
    out = _out_dir(args)
    (out / "kb.json").write_text(export(kb), encoding="utf-8")
    print(f"{len(patterns)} patterns")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    kb = load(read_text(args.kb))
    incoming_text = read_text(args.incoming)
    warnings: list[str] = []
    if args.expert:
        incoming = import_expert(incoming_text)
    else:
        other = load(incoming_text)
        incoming = list(other.patterns.values())
        mine = kb.metadata.get("config_digest")
        theirs = other.metadata.get("config_digest")
        if mine != theirs:
            warnings.append(
                f"warning: config digests differ ({mine} vs {theirs}); "
                "rule ids may not describe the same rules"
            )
    kb, report = merge(kb, incoming)
    out = _out_dir(args)
    (out / "kb.json").write_text(export(kb), encoding="utf-8")
    text = report.render()
    if warnings:
        text = "\n".join(warnings) + "\n" + text
    (out / "merge_report.txt").write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _parse_target(text: str) -> tuple[Dimension, str, int]:
    parts = text.split(":")
    try:
        dim = Dimension(parts[0])
    except (ValueError, IndexError):
        raise _UsageError(f"target must start with a dimension, got {text!r}") from None
    if len(parts) == 2:
        kind, raw = "rule", parts[1]
    elif len(parts) == 3 and parts[1] in ("rule", "template"):
        kind, raw = parts[1], parts[2]
    else:
        raise _UsageError(
            "target must be dim:<rule_id>, dim:rule:<id> or dim:template:<id>"
        )
    ident = ascii_id(raw)
    if ident is None:
        raise _UsageError(f"target id must be ASCII digits, got {raw!r}")
    return dim, kind, ident


def _describe_pattern(p) -> str:
    g = p.graph
    try:
        consequent = consequent_index(g)
    except ValueError:
        consequent = -1

    def name(i: int) -> str:
        text = label_text(g.labels[i])
        return f"[{text}]" if i == consequent else text

    parts = [f"{name(u)} -({el})-> {name(v)}" for u, v, el in sorted(g.edges)]
    touched = {u for u, _, _ in g.edges} | {v for _, v, _ in g.edges}
    parts.extend(name(i) for i in range(g.n) if i not in touched)
    return "  ".join(parts)


def _cmd_query(args: argparse.Namespace) -> int:
    kb = load(read_text(args.kb))
    dim, kind, ident = _parse_target(args.target)
    try:
        if kind == "rule":
            results = query_root_causes(kb, dim, rule_id=ident, node_scope=args.scope)
        else:
            results = query_root_causes(kb, dim, template=ident, node_scope=args.scope)
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if not results:
        print("no stored pattern explains the target")
        return 0
    print(f"{'rank':<5} {'score':<8} {'support':<8} {'kconf':<8} pattern")
    for rank, r in enumerate(results, start=1):
        print(
            f"{rank:<5} {r.score:<8.4f} {r.pattern.support:<8.4f} "
            f"{r.pattern.knowledge_confidence:<8.4f} {_describe_pattern(r.pattern)}"
        )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    kb = load(read_text(args.kb))
    if args.dot:
        ordered = sorted(kb.patterns.items())
        text = "".join(
            pattern_to_dot(p, name=f"pattern_{k}")
            for k, (_, p) in enumerate(ordered)
        )
    else:
        text = export(kb)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    result = run_pipeline(cfg)
    print(result.report, end="")
    return 0


# The stage commands: name, help, required input files, handler. Each
# also takes the analysis knobs and --out.
_STAGES = (
    ("ingest", "parse a log into canonical events", ("--input",), _cmd_ingest),
    ("preprocess", "coalesce repeats and drop noise", ("--events",), _cmd_preprocess),
    ("mine-rules", "mine per-dimension sequence rules", ("--events", "--templates"),
     _cmd_mine_rules),
    ("build-graphs", "correlate rule instances into window graphs",
     ("--instances", "--rules"), _cmd_build_graphs),
    ("mine-patterns", "mine failure patterns into a knowledge base", ("--graphs", "--rules"),
     _cmd_mine_patterns),
)


def build_parser() -> _Parser:
    parser = _Parser(prog="logloom", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("synth", help="generate a synthetic log from a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_synth)

    for name, help_text, inputs, func in _STAGES:
        p = sub.add_parser(name, help=help_text)
        _add_knobs(p)
        for flag in inputs:
            p.add_argument(flag, required=True)
        p.add_argument("--out")
        p.set_defaults(func=func)
    sub.choices["build-graphs"].add_argument(
        "--dot", action="store_true", help="also write graphs.dot"
    )

    p = sub.add_parser("merge", help="merge patterns into a knowledge base")
    p.add_argument("--kb", required=True)
    p.add_argument("--incoming", required=True)
    p.add_argument("--expert", action="store_true",
                   help="incoming document is expert-authored")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("query", help="rank root-cause antecedents for a target")
    p.add_argument("--kb", required=True)
    p.add_argument("--target", required=True,
                   help="dim:<rule_id>, dim:rule:<id> or dim:template:<id>")
    p.add_argument("--scope", choices=NODE_SCOPES)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("export", help="print a knowledge document or DOT")
    p.add_argument("--kb", required=True)
    p.add_argument("--dot", action="store_true")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    _add_knobs(p)
    p.add_argument("--input")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`logloom query ... | head`), which
        # is not an error. Point fd 1 at devnull so that the interpreter's
        # final flush of what is still buffered cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, SchemaError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
