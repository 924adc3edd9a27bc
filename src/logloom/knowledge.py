"""Failure knowledge base: merging, exchange format, root cause queries."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping

from .episodes import SequenceRule
from .graphs import EDGE_KINDS, Label, label_text
from .ingest import Dimension, TemplateTable
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


def _pattern_doc(p: FailurePattern) -> dict[str, Any]:
    return {
        "nodes": [
            [i, label[0].value, label[1], weight]
            for i, (label, weight) in enumerate(zip(p.graph.labels, p.node_weights))
        ],
        "edges": sorted([u, v, el] for u, v, el in p.graph.edges),
        "support": p.support,
        "weighted_support": p.weighted_support,
        "structural_confidence": p.structural_confidence,
        "knowledge_confidence": p.knowledge_confidence,
        "provenance": sorted(p.provenance),
    }


def export(kb: KnowledgeBase) -> str:
    """Serialize to the exchange document, byte-stable for equal content."""
    doc = {
        "version": DOC_VERSION,
        "metadata": kb.metadata,
        "templates": [[tid, masked] for tid, masked in kb.templates.items()],
        "rules": [
            {
                "rule_id": r.rule_id,
                "dim": r.dim.value,
                "antecedent": list(r.antecedent),
                "consequent": r.consequent,
                "support": r.support,
                "confidence": r.confidence,
            }
            for r in sorted(kb.rules.values(), key=lambda r: (r.dim.rank, r.rule_id))
        ],
        "patterns": [doc for _, doc in sorted(
            (code, _pattern_doc(p)) for code, p in kb.patterns.items()
        )],
    }
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SchemaError(path, message)


def _number(value: Any, path: str, lo: float = 0.0, hi: float = 1.0) -> float:
    _expect(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        path,
        "must be a number",
    )
    _expect(lo <= value <= hi, path, f"must be within [{lo}, {hi}]")
    return float(value)


def _dimension(value: Any, path: str) -> Dimension:
    try:
        return Dimension(value)
    except ValueError:
        raise SchemaError(path, f"unknown dimension {value!r}") from None


def _pattern_from_doc(entry: Any, path: str, strict: bool) -> FailurePattern:
    """Build a pattern from one document entry.

    `strict` requires every score and provenance (full documents);
    otherwise only knowledge_confidence is mandatory and the rest
    default to zero (expert documents).
    """
    _expect(isinstance(entry, dict), path, "must be an object")
    nodes = entry.get("nodes")
    _expect(isinstance(nodes, list) and nodes, f"{path}.nodes", "must be a non-empty array")
    labels: dict[int, Label] = {}
    weights: dict[int, float] = {}
    for k, raw in enumerate(nodes):
        npath = f"{path}.nodes[{k}]"
        _expect(
            isinstance(raw, list) and len(raw) == 4,
            npath,
            "must be [index, dim, rule_id, weight]",
        )
        index, dim_raw, rid, weight = raw
        _expect(isinstance(index, int) and not isinstance(index, bool), npath, "index must be an integer")
        _expect(index not in labels, npath, f"duplicate node index {index}")
        dim = _dimension(dim_raw, npath)
        _expect(
            isinstance(rid, int) and not isinstance(rid, bool) and rid >= 0,
            npath,
            "rule_id must be a non-negative integer",
        )
        labels[index] = (dim, rid)
        weights[index] = _number(weight, f"{npath}.weight")
    _expect(
        set(labels) == set(range(len(nodes))),
        f"{path}.nodes",
        "indexes must cover 0..n-1",
    )

    edges_raw = entry.get("edges")
    _expect(isinstance(edges_raw, list), f"{path}.edges", "must be an array")
    edges: set[tuple[int, int, str]] = set()
    for k, raw in enumerate(edges_raw):
        epath = f"{path}.edges[{k}]"
        _expect(
            isinstance(raw, list) and len(raw) == 3,
            epath,
            "must be [from, to, kind]",
        )
        u, v, kind = raw
        for end in (u, v):
            _expect(
                isinstance(end, int) and not isinstance(end, bool) and end in labels,
                epath,
                "endpoints must be node indexes",
            )
        _expect(kind in EDGE_KINDS, epath, f"kind must be one of {EDGE_KINDS}")
        edges.add((u, v, kind))

    try:
        graph = Digraph(
            tuple(labels[i] for i in range(len(labels))), frozenset(edges)
        )
    except ValueError as exc:
        raise SchemaError(f"{path}.edges", str(exc)) from None

    kc = _number(entry.get("knowledge_confidence"), f"{path}.knowledge_confidence")
    if strict:
        support = _number(entry.get("support"), f"{path}.support")
        ws = _number(entry.get("weighted_support"), f"{path}.weighted_support")
        sc = _number(entry.get("structural_confidence"), f"{path}.structural_confidence")
        prov_raw = entry.get("provenance")
        _expect(isinstance(prov_raw, list) and prov_raw, f"{path}.provenance", "must be a non-empty array")
    else:
        support = _number(entry.get("support", 0.0), f"{path}.support")
        ws = _number(entry.get("weighted_support", 0.0), f"{path}.weighted_support")
        sc = _number(entry.get("structural_confidence", 0.0), f"{path}.structural_confidence")
        prov_raw = entry.get("provenance", [])
        _expect(isinstance(prov_raw, list), f"{path}.provenance", "must be an array")
    for item in prov_raw:
        _expect(isinstance(item, str) and item, f"{path}.provenance", "entries must be non-empty strings")

    try:
        return FailurePattern.build(
            graph=graph,
            node_weights=tuple(weights[i] for i in range(len(weights))),
            support=support,
            weighted_support=ws,
            structural_confidence=sc,
            knowledge_confidence=kc,
            provenance=frozenset(prov_raw),
        )
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


def _as_doc(doc: str | Mapping[str, Any]) -> Mapping[str, Any]:
    if isinstance(doc, str):
        try:
            parsed = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"invalid JSON: {exc.msg}") from None
    else:
        parsed = doc
    _expect(isinstance(parsed, Mapping), "$", "document must be an object")
    return parsed


def load(doc: str | Mapping[str, Any]) -> KnowledgeBase:
    """Rebuild a knowledge base from an exported document.

    load(export(kb)) reproduces the base exactly; validation errors are
    SchemaError with the offending path.
    """
    data = _as_doc(doc)
    _expect(data.get("version") == DOC_VERSION, "$.version", f"must be {DOC_VERSION}")
    metadata = data.get("metadata")
    _expect(isinstance(metadata, Mapping), "$.metadata", "must be an object")

    templates_raw = data.get("templates")
    _expect(isinstance(templates_raw, list), "$.templates", "must be an array")
    rows: list[tuple[int, str]] = []
    for k, raw in enumerate(templates_raw):
        tpath = f"$.templates[{k}]"
        _expect(
            isinstance(raw, list) and len(raw) == 2,
            tpath,
            "must be [id, masked]",
        )
        tid, masked = raw
        _expect(isinstance(tid, int) and not isinstance(tid, bool), tpath, "id must be an integer")
        _expect(isinstance(masked, str), tpath, "masked must be a string")
        rows.append((tid, masked))
    try:
        templates = TemplateTable.from_rows(rows)
    except ValueError as exc:
        raise SchemaError("$.templates", str(exc)) from None

    rules_raw = data.get("rules")
    _expect(isinstance(rules_raw, list), "$.rules", "must be an array")
    rules: dict[Label, SequenceRule] = {}
    for k, raw in enumerate(rules_raw):
        rpath = f"$.rules[{k}]"
        _expect(isinstance(raw, dict), rpath, "must be an object")
        dim = _dimension(raw.get("dim"), f"{rpath}.dim")
        rid = raw.get("rule_id")
        _expect(
            isinstance(rid, int) and not isinstance(rid, bool) and rid >= 0,
            f"{rpath}.rule_id",
            "must be a non-negative integer",
        )
        antecedent = raw.get("antecedent")
        _expect(isinstance(antecedent, list), f"{rpath}.antecedent", "must be an array")
        for t in antecedent:
            _expect(
                isinstance(t, int) and not isinstance(t, bool) and 0 <= t < len(templates),
                f"{rpath}.antecedent",
                "entries must be template ids",
            )
        consequent = raw.get("consequent")
        _expect(
            isinstance(consequent, int)
            and not isinstance(consequent, bool)
            and 0 <= consequent < len(templates),
            f"{rpath}.consequent",
            "must be a template id",
        )
        support = _number(raw.get("support"), f"{rpath}.support")
        confidence = _number(raw.get("confidence"), f"{rpath}.confidence")
        label = (dim, rid)
        _expect(label not in rules, rpath, f"duplicate rule {label_text(label)}")
        rules[label] = SequenceRule(
            rule_id=rid,
            dim=dim,
            antecedent=tuple(antecedent),
            consequent=consequent,
            support=support,
            confidence=confidence,
        )

    patterns_raw = data.get("patterns")
    _expect(isinstance(patterns_raw, list), "$.patterns", "must be an array")
    kb = KnowledgeBase(patterns={}, rules=rules, templates=templates, metadata=dict(metadata))
    for k, raw in enumerate(patterns_raw):
        p = _pattern_from_doc(raw, f"$.patterns[{k}]", strict=True)
        for label in p.graph.labels:
            _expect(
                label in rules,
                f"$.patterns[{k}]",
                f"label {label_text(label)} has no rule",
            )
        _expect(p.code not in kb.patterns, f"$.patterns[{k}]", "duplicate pattern")
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
    _expect(isinstance(metadata, Mapping), "$.metadata", "must be an object")
    source = metadata.get("source", "anonymous")
    _expect(isinstance(source, str) and bool(source), "$.metadata.source", "must be a non-empty string")
    patterns_raw = data.get("patterns")
    _expect(isinstance(patterns_raw, list), "$.patterns", "must be an array")
    tag = f"expert:{source}"
    out: list[FailurePattern] = []
    for k, raw in enumerate(patterns_raw):
        p = _pattern_from_doc(raw, f"$.patterns[{k}]", strict=False)
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
