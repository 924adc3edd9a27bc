"""The package namespace: public names resolve on first use.

`import logloom` loads no layer; each name in `__all__`, and each layer
read as `logloom.<layer>`, imports its module when first read, so a
fresh process loads only the layers it calls.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import logloom

# `__all__`: every public name, in order.
ALL = [
    "BackgroundSource", "CanonicalEvent", "CausalChain", "ChainEvent",
    "ConfigError", "Digraph", "Dimension", "EmptyDimensionError", "Episode",
    "FailurePattern", "GraphNode", "KnowledgeBase", "LogRecord",
    "MergeReport", "NoiseReport", "ParseError", "ParseResult",
    "PipelineConfig", "PipelineResult", "QueryResult", "RejectEntry", "RuleInstance",
    "ScenarioError", "ScenarioSpec", "SchemaError", "SequenceRule", "TemplateTable",
    "WindowGraph", "build_window_graphs", "canonicalize", "coalesce", "config_digest",
    "derive_rules", "export", "filter_noise", "find_instances", "generate", "import_expert",
    "knowledge_confidence", "label_weights", "load", "load_blacklist", "load_scenario",
    "mask_message", "merge", "min_dfs_code", "mine_episodes", "mine_patterns", "parse_lines",
    "pattern_to_dot", "query_root_causes", "rule_weight", "run_pipeline", "scenario_from_dict",
    "window_graph_to_dot",
]

# The files a public name must be used in: the layers, the demos and the benchmark.
ROOT = Path(__file__).resolve().parents[1]
CALLERS = sorted(
    [p for p in (ROOT / "src" / "logloom").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "demos").glob("*.py")) + list((ROOT / "perfbench").glob("*.py"))
)

# The modules `import logloom` loaded when every layer was imported eagerly.
LAYERS = ["episodes", "graphs", "ingest", "knowledge", "patterns", "pipeline", "preprocess",
          "synth"]

_COLD_START = """
import json, sys
import logloom
from logloom import generate, scenario_from_dict
loaded = sorted(m for m in sys.modules if m == "logloom" or m.startswith("logloom."))
print(json.dumps([loaded, logloom.pipeline.read_events.__module__]))
"""


class TestColdStart:
    def test_generator_import_loads_only_synth_and_ingest(self):
        src = Path(logloom.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_START], env={**os.environ, "PYTHONPATH": path},
            check=True, capture_output=True, text=True, timeout=60,
        )
        loaded, read_events_module = json.loads(proc.stdout)
        assert loaded == ["logloom", "logloom.ingest", "logloom.synth"]
        # A layer not yet imported is still an attribute of the package.
        assert read_events_module == "logloom.pipeline"


class TestExports:
    def test_all_is_unchanged(self):
        assert logloom.__all__ == ALL

    def test_each_name_is_the_object_its_module_defines(self):
        for name in ALL:
            obj = getattr(logloom, name)
            assert obj.__module__.startswith("logloom."), name
            assert getattr(importlib.import_module(obj.__module__), name) is obj, name

    def test_each_layer_is_an_attribute(self):
        for layer in LAYERS:
            assert getattr(logloom, layer) is importlib.import_module(f"logloom.{layer}")

    def test_dir_lists_all_and_the_layers(self):
        assert set(ALL) | set(LAYERS) <= set(dir(logloom))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'logloom' has no attribute 'nope'"):
            logloom.nope
        assert not hasattr(logloom, "nope")
        # Names that left `__all__` because only the tests called them.
        for name in ("count_window_support", "extract_template", "load_config"):
            with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
                getattr(logloom, name)

    def test_each_name_is_used_by_the_program(self):
        # A public name earns its place only if a layer, a demo or the
        # benchmark reads it: as a name, an attribute or an import alias.
        # Definitions do not count, and `__init__.py` only lists names.
        used: set[str] = set()
        for path in CALLERS:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
        assert [name for name in logloom.__all__ if name not in used] == []
