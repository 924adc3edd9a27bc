"""Mining cross-dimension failure knowledge from cluster system logs.

Each public name, and each layer module, is imported on first use
(PEP 562), so a process loads only the layers it calls.
"""

import importlib

_EXPORTS = {
    "dims": ("Dimension",),
    "ingest": (
        "CanonicalEvent", "LogRecord", "ParseError", "ParseResult",
        "RejectEntry", "TemplateTable", "canonicalize", "mask_message", "parse_lines",
    ),
    "preprocess": ("NoiseReport", "coalesce", "filter_noise"),
    "episodes": (
        "EmptyDimensionError", "Episode", "RuleInstance", "SequenceRule",
        "derive_rules", "find_instances", "mine_episodes",
    ),
    "graphs": (
        "GraphNode", "WindowGraph", "build_window_graphs", "label_weights",
        "rule_weight", "window_graph_to_dot",
    ),
    "patterns": (
        "Digraph", "FailurePattern", "knowledge_confidence", "min_dfs_code",
        "mine_patterns", "pattern_to_dot",
    ),
    "knowledge": ("KnowledgeBase", "MergeReport", "QueryResult", "merge", "query_root_causes"),
    "synth": (
        "BackgroundSource", "CausalChain", "ChainEvent", "ScenarioError",
        "ScenarioSpec", "generate", "load_scenario", "scenario_from_dict",
    ),
    "pipeline": (
        "ConfigError", "PipelineConfig", "PipelineResult", "SchemaError", "config_digest",
        "export", "import_expert", "load", "load_blacklist", "run_pipeline",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
