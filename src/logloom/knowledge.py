"""Failure knowledge base: merging, exchange format, root cause queries."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Mapping

from .episodes import SequenceRule
from .graphs import EDGE_KINDS, Label, label_text
from .ingest import Dimension, TemplateTable, dimension, json_fault
from .patterns import DfsCode, Digraph, FailurePattern, consequent_index, remove_node

DOC_VERSION = 1

NODE_SCOPES = ("any", "same", "cross")


class SchemaError(Exception):
    """A knowledge document failed validation; `path` locates the field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class KnowledgeBase:
    patterns: dict[DfsCode, FailurePattern]
    rules: dict[Label, SequenceRule]
    templates: TemplateTable
    metadata: dict[str, Any]

    @classmethod
    def new(
        cls,
        rules: Iterable[SequenceRule] = (),
        templates: TemplateTable | None = None,
        metadata: Mapping[str, Any] | None = None,
    ) -> "KnowledgeBase":
        meta: dict[str, Any] = {"config_digest": None, "created": None}
        if metadata:
            meta.update(metadata)
        return cls(
            patterns={},
            rules={rule.label: rule for rule in rules},
            templates=templates if templates is not None else TemplateTable(),
            metadata=meta,
        )


@dataclass
class MergeReport:
    added: int = 0
    updated: int = 0
    rejected: list[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"merge: added {self.added}, updated {self.updated}"]
        for reason in self.rejected:
            lines.append(f"merge/rejected: {reason}")
        return "\n".join(lines)


def merge(
    kb: KnowledgeBase, incoming: Iterable[FailurePattern]
) -> tuple[KnowledgeBase, MergeReport]:
    """Fold patterns into the base, keyed by canonical code.

    Colliding patterns keep the maximum of each score and the union of
    provenance. Patterns whose node labels are not in the base's rule
    catalog are rejected with a reason. Merging is idempotent and
    insensitive to incoming order.
    """
    report = MergeReport()
    for p in sorted(incoming, key=lambda p: p.code):
        missing = sorted(
            {label_text(l) for l in p.graph.labels if l not in kb.rules}
        )
        if missing:
            report.rejected.append(
                f"pattern over {[label_text(l) for l in p.graph.labels]}: "
                f"unresolvable labels {missing}"
            )
            continue
        existing = kb.patterns.get(p.code)
        if existing is None:
            kb.patterns[p.code] = p
            report.added += 1
        else:
            kb.patterns[p.code] = replace(
                existing,
                support=max(existing.support, p.support),
                weighted_support=max(existing.weighted_support, p.weighted_support),
                structural_confidence=max(
                    existing.structural_confidence, p.structural_confidence
                ),
                knowledge_confidence=max(
                    existing.knowledge_confidence, p.knowledge_confidence
                ),
                provenance=existing.provenance | p.provenance,
            )
            report.updated += 1
    return kb, report


# Direct JSON rendering, for `export` and the bulk interchange files in
# `pipeline`: the bytes `json.dumps(..., sort_keys=True)` gives, with
# `indent=2` where the document has it, without building dict documents.
# Strings are escaped to ASCII by json's own `encode_basestring_ascii`,
# once per distinct string in a document where they repeat.


class _Memo(dict):
    """`memo[key]` is `make(key)`, made on first use."""

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.make(key)
        return value


def _scalar(value: Any) -> str:
    """JSON text of a number: `repr` of an int or a finite float, which is
    what `json` writes; `json.dumps` for anything else (NaN, a bool, ...)."""
    kind = type(value)
    if kind is int or (kind is float and math.isfinite(value)):
        return repr(value)
    return json.dumps(value)


_DIM_TEXT = {d: encode_basestring_ascii(d.value) for d in Dimension}


def _array(items: list[str], indent: int) -> str:
    """An `indent=2` array of items that each open with their own newline
    and indent, closed on a line indented `indent` spaces; `[]` when empty."""
    return "[" + ",".join(items) + "\n" + " " * indent + "]" if items else "[]"


# The indent=2 layout of a knowledge document, one template per nesting
# level; fields are in sorted key order.
_RULE = (
    '\n    {{\n      "antecedent": {},\n      "confidence": {},\n      "consequent": {},'
    '\n      "dim": {},\n      "rule_id": {},\n      "support": {}\n    }}'
)
_TEMPLATE = "\n    [\n      {},\n      {}\n    ]"
_PATTERN = (
    '\n    {{\n      "edges": {},\n      "knowledge_confidence": {},\n      "nodes": {},'
    '\n      "provenance": {},\n      "structural_confidence": {},\n      "support": {},'
    '\n      "weighted_support": {}\n    }}'
)
_PATTERN_NODE = "\n        [\n          {},\n          {},\n          {},\n          {}\n        ]"
_PATTERN_EDGE = "\n        [\n          {},\n          {},\n          {}\n        ]"
_ENTRY = "\n        {}"  # one entry of an antecedent or provenance array


def _append_array(parts: list[str], items: Iterable[str]) -> None:
    """Append a top-level array of `items` to `parts`, an item at a time."""
    parts.append("[")
    sep = ""
    for item in items:
        parts.append(sep)
        parts.append(item)
        sep = ","
    parts.append("\n  ]" if sep else "]")


def export(kb: KnowledgeBase) -> str:
    """Serialize to the exchange document, byte-stable for equal content.

    The text is `json.dumps(doc, sort_keys=True, indent=2,
    ensure_ascii=True)` of the document plus a newline, rendered directly.
    Metadata holds any JSON, so it goes through `json.dumps` and is then
    indented one level.
    """
    strings = _Memo(encode_basestring_ascii)

    def rule_text(r: SequenceRule) -> str:
        antecedent = [_ENTRY.format(_scalar(t)) for t in r.antecedent]
        return _RULE.format(
            _array(antecedent, 6), _scalar(r.confidence), _scalar(r.consequent),
            _DIM_TEXT[r.dim], _scalar(r.rule_id), _scalar(r.support),
        )

    def pattern_text(p: FailurePattern) -> str:
        nodes = [
            _PATTERN_NODE.format(i, _DIM_TEXT[label[0]], _scalar(label[1]), _scalar(weight))
            for i, (label, weight) in enumerate(zip(p.graph.labels, p.node_weights))
        ]
        edges = [
            _PATTERN_EDGE.format(_scalar(u), _scalar(v), strings[el])
            for u, v, el in sorted(p.graph.edges)
        ]
        provenance = [_ENTRY.format(strings[item]) for item in sorted(p.provenance)]
        return _PATTERN.format(
            _array(edges, 6), _scalar(p.knowledge_confidence), _array(nodes, 6),
            _array(provenance, 6), _scalar(p.structural_confidence),
            _scalar(p.support), _scalar(p.weighted_support),
        )

    metadata = json.dumps(kb.metadata, sort_keys=True, indent=2, ensure_ascii=True)
    parts = ['{\n  "metadata": ', metadata.replace("\n", "\n  "), ',\n  "patterns": ']
    _append_array(parts, (pattern_text(kb.patterns[code]) for code in sorted(kb.patterns)))
    parts.append(',\n  "rules": ')
    rules = sorted(kb.rules.values(), key=lambda r: (r.dim.rank, r.rule_id))
    _append_array(parts, map(rule_text, rules))
    parts.append(',\n  "templates": ')
    templates = kb.templates.items()
    _append_array(parts, (_TEMPLATE.format(t, encode_basestring_ascii(m)) for t, m in templates))
    parts.append(f',\n  "version": {DOC_VERSION}\n}}\n')
    return "".join(parts)


def _is_int(value: Any) -> bool:
    """Whether `value` is a JSON integer; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _fraction(value: Any, path: str, *args: Any) -> float:
    """`value` as a float if it is a number within [0, 1]; a bool is not
    one. Otherwise a SchemaError at `path.format(*args)`."""
    if not (_is_int(value) or isinstance(value, float)):
        raise SchemaError(path.format(*args), "must be a number")
    if not 0.0 <= value <= 1.0:
        raise SchemaError(path.format(*args), "must be within [0.0, 1.0]")
    return float(value)


def _dimension(value: Any, path: str, *args: Any) -> Dimension:
    """`value` as a Dimension, or a SchemaError at `path.format(*args)`."""
    try:
        return dimension(value)
    except ValueError:
        raise SchemaError(path.format(*args), f"unknown dimension {value!r}") from None


# The fields an expert document may leave out, and the value each takes then.
_EXPERT_DEFAULTS: dict[str, Any] = {
    "support": 0.0,
    "weighted_support": 0.0,
    "structural_confidence": 0.0,
    "provenance": [],
}

_SCORES = ("knowledge_confidence", "support", "weighted_support", "structural_confidence")


def _pattern_from_doc(entry: Any, k: int, strict: bool) -> FailurePattern:
    """Build a pattern from the document entry at `$.patterns[k]`.

    `strict` (full documents) requires every score and a non-empty
    provenance; otherwise (expert documents) only knowledge_confidence
    is mandatory and the fields in `_EXPERT_DEFAULTS` take their default.
    """
    if not isinstance(entry, dict):
        raise SchemaError(f"$.patterns[{k}]", "must be an object")
    nodes = entry.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        raise SchemaError(f"$.patterns[{k}].nodes", "must be a non-empty array")
    labels: dict[int, Label] = {}
    weights: dict[int, float] = {}
    for i, raw in enumerate(nodes):
        if not isinstance(raw, list) or len(raw) != 4:
            raise SchemaError(f"$.patterns[{k}].nodes[{i}]", "must be [index, dim, rule_id, weight]")
        index, dim, rid, weight = raw
        if not _is_int(index):
            raise SchemaError(f"$.patterns[{k}].nodes[{i}]", "index must be an integer")
        if index in labels:
            raise SchemaError(f"$.patterns[{k}].nodes[{i}]", f"duplicate node index {index}")
        dim = _dimension(dim, "$.patterns[{}].nodes[{}]", k, i)
        if not (_is_int(rid) and rid >= 0):
            raise SchemaError(f"$.patterns[{k}].nodes[{i}]", "rule_id must be a non-negative integer")
        labels[index] = (dim, rid)
        weights[index] = _fraction(weight, "$.patterns[{}].nodes[{}].weight", k, i)
    if set(labels) != set(range(len(nodes))):
        raise SchemaError(f"$.patterns[{k}].nodes", "indexes must cover 0..n-1")

    edges_raw = entry.get("edges")
    if not isinstance(edges_raw, list):
        raise SchemaError(f"$.patterns[{k}].edges", "must be an array")
    edges: set[tuple[int, int, str]] = set()
    for i, raw in enumerate(edges_raw):
        if not isinstance(raw, list) or len(raw) != 3:
            raise SchemaError(f"$.patterns[{k}].edges[{i}]", "must be [from, to, kind]")
        u, v, kind = raw
        if not (_is_int(u) and u in labels and _is_int(v) and v in labels):
            raise SchemaError(f"$.patterns[{k}].edges[{i}]", "endpoints must be node indexes")
        if kind not in EDGE_KINDS:
            raise SchemaError(f"$.patterns[{k}].edges[{i}]", f"kind must be one of {EDGE_KINDS}")
        edges.add((u, v, kind))

    try:
        graph = Digraph(
            tuple(labels[i] for i in range(len(labels))), frozenset(edges)
        )
    except ValueError as exc:
        raise SchemaError(f"$.patterns[{k}].edges", str(exc)) from None

    defaults = {} if strict else _EXPERT_DEFAULTS
    kc, support, ws, sc = (
        _fraction(entry.get(key, defaults.get(key)), "$.patterns[{}].{}", k, key)
        for key in _SCORES
    )
    provenance = entry.get("provenance", defaults.get("provenance"))
    if not isinstance(provenance, list) or (strict and not provenance):
        raise SchemaError(
            f"$.patterns[{k}].provenance",
            "must be a non-empty array" if strict else "must be an array",
        )
    for item in provenance:
        if not isinstance(item, str) or not item:
            raise SchemaError(f"$.patterns[{k}].provenance", "entries must be non-empty strings")

    try:
        return FailurePattern.build(
            graph=graph,
            node_weights=tuple(weights[i] for i in range(len(weights))),
            support=support,
            weighted_support=ws,
            structural_confidence=sc,
            knowledge_confidence=kc,
            provenance=frozenset(provenance),
        )
    except ValueError as exc:
        raise SchemaError(f"$.patterns[{k}]", str(exc)) from None


def _as_doc(doc: str | Mapping[str, Any]) -> Mapping[str, Any]:
    if isinstance(doc, str):
        try:
            parsed = json.loads(doc)
        except (ValueError, RecursionError) as exc:
            raise SchemaError("$", f"invalid JSON: {json_fault(exc)}") from None
    else:
        parsed = doc
    if not isinstance(parsed, Mapping):
        raise SchemaError("$", "document must be an object")
    return parsed


def load(doc: str | Mapping[str, Any]) -> KnowledgeBase:
    """Rebuild a knowledge base from an exported document.

    load(export(kb)) reproduces the base exactly; validation errors are
    SchemaError with the offending path.
    """
    data = _as_doc(doc)
    version = data.get("version")
    if not (_is_int(version) and version == DOC_VERSION):
        raise SchemaError("$.version", f"must be {DOC_VERSION}")
    metadata = data.get("metadata")
    if not isinstance(metadata, Mapping):
        raise SchemaError("$.metadata", "must be an object")

    templates_raw = data.get("templates")
    if not isinstance(templates_raw, list):
        raise SchemaError("$.templates", "must be an array")
    for k, raw in enumerate(templates_raw):
        if not isinstance(raw, list) or len(raw) != 2:
            raise SchemaError(f"$.templates[{k}]", "must be [id, masked]")
        tid, masked = raw
        if not _is_int(tid):
            raise SchemaError(f"$.templates[{k}]", "id must be an integer")
        if not isinstance(masked, str):
            raise SchemaError(f"$.templates[{k}]", "masked must be a string")
    try:
        templates = TemplateTable.from_rows(templates_raw)
    except ValueError as exc:
        raise SchemaError("$.templates", str(exc)) from None

    def is_template(t: Any) -> bool:
        return _is_int(t) and 0 <= t < len(templates)

    rules_raw = data.get("rules")
    if not isinstance(rules_raw, list):
        raise SchemaError("$.rules", "must be an array")
    rules: dict[Label, SequenceRule] = {}
    for k, raw in enumerate(rules_raw):
        if not isinstance(raw, dict):
            raise SchemaError(f"$.rules[{k}]", "must be an object")
        dim = _dimension(raw.get("dim"), "$.rules[{}].dim", k)
        rid = raw.get("rule_id")
        if not (_is_int(rid) and rid >= 0):
            raise SchemaError(f"$.rules[{k}].rule_id", "must be a non-negative integer")
        antecedent = raw.get("antecedent")
        if not isinstance(antecedent, list):
            raise SchemaError(f"$.rules[{k}].antecedent", "must be an array")
        if not all(map(is_template, antecedent)):
            raise SchemaError(f"$.rules[{k}].antecedent", "entries must be template ids")
        consequent = raw.get("consequent")
        if not is_template(consequent):
            raise SchemaError(f"$.rules[{k}].consequent", "must be a template id")
        support = _fraction(raw.get("support"), "$.rules[{}].support", k)
        confidence = _fraction(raw.get("confidence"), "$.rules[{}].confidence", k)
        label = (dim, rid)
        if label in rules:
            raise SchemaError(f"$.rules[{k}]", f"duplicate rule {label_text(label)}")
        rules[label] = SequenceRule(
            rule_id=rid,
            dim=dim,
            antecedent=tuple(antecedent),
            consequent=consequent,
            support=support,
            confidence=confidence,
        )

    patterns_raw = data.get("patterns")
    if not isinstance(patterns_raw, list):
        raise SchemaError("$.patterns", "must be an array")
    kb = KnowledgeBase(patterns={}, rules=rules, templates=templates, metadata=dict(metadata))
    for k, raw in enumerate(patterns_raw):
        p = _pattern_from_doc(raw, k, strict=True)
        for label in p.graph.labels:
            if label not in rules:
                raise SchemaError(f"$.patterns[{k}]", f"label {label_text(label)} has no rule")
        if p.code in kb.patterns:
            raise SchemaError(f"$.patterns[{k}]", "duplicate pattern")
        kb.patterns[p.code] = p
    return kb


def import_expert(doc: str | Mapping[str, Any]) -> list[FailurePattern]:
    """Read an expert-authored pattern document.

    Each pattern needs nodes, edges and a knowledge_confidence; other
    scores default to zero. Provenance gains "expert:<name>", where the
    name comes from metadata.source (default "anonymous").
    """
    data = _as_doc(doc)
    metadata = data.get("metadata", {})
    if not isinstance(metadata, Mapping):
        raise SchemaError("$.metadata", "must be an object")
    source = metadata.get("source", "anonymous")
    if not isinstance(source, str) or not source:
        raise SchemaError("$.metadata.source", "must be a non-empty string")
    patterns_raw = data.get("patterns")
    if not isinstance(patterns_raw, list):
        raise SchemaError("$.patterns", "must be an array")
    tag = f"expert:{source}"
    out: list[FailurePattern] = []
    for k, raw in enumerate(patterns_raw):
        p = _pattern_from_doc(raw, k, strict=False)
        out.append(replace(p, provenance=p.provenance | {tag}))
    return out


@dataclass(frozen=True)
class QueryResult:
    pattern: FailurePattern
    score: float
    antecedent: Digraph
    antecedent_weights: tuple[float, ...]


def query_root_causes(
    kb: KnowledgeBase,
    dim: Dimension,
    rule_id: int | None = None,
    template: int | None = None,
    node_scope: str | None = None,
) -> list[QueryResult]:
    """Rank stored patterns whose consequent matches the target.

    The target is either one rule or every rule of the dimension whose
    consequent is the given template. `node_scope` filters on where the
    causes sit: "same"/"cross" require every edge at the consequent to
    carry that kind. Results are scored by knowledge confidence times
    support; the antecedent is the pattern minus its consequent node.
    """
    if (rule_id is None) == (template is None):
        raise ValueError("give exactly one of rule_id or template")
    if node_scope is not None and node_scope not in NODE_SCOPES:
        raise ValueError(f"node_scope must be one of {NODE_SCOPES}")

    if rule_id is not None:
        label = (dim, rule_id)
        if label not in kb.rules:
            raise LookupError(f"no rule {label_text(label)}")
        targets = {label}
    else:
        targets = {
            lbl
            for lbl, rule in kb.rules.items()
            if rule.dim == dim and rule.consequent == template
        }
        if not targets:
            raise LookupError(
                f"no {dim.value} rule has consequent template {template}"
            )

    results: list[QueryResult] = []
    for p in kb.patterns.values():
        g = p.graph
        if g.n < 2:
            continue
        try:
            c = consequent_index(g)
        except ValueError:
            continue
        if g.labels[c] not in targets:
            continue
        if node_scope in ("same", "cross"):
            incident = [el for u, v, el in g.edges if c in (u, v)]
            if any(el != node_scope for el in incident):
                continue
        weights = tuple(w for i, w in enumerate(p.node_weights) if i != c)
        results.append(
            QueryResult(
                pattern=p,
                score=p.knowledge_confidence * p.support,
                antecedent=remove_node(g, c),
                antecedent_weights=weights,
            )
        )
    results.sort(key=lambda r: (-r.score, -r.pattern.graph.n, r.pattern.code))
    return results
