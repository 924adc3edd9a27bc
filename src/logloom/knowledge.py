"""Failure knowledge base: merging and root cause queries.

The base's file form, `kb.json` and `rules.json`, is read and written in
`pipeline` with the other interchange files.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping

from .episodes import SequenceRule
from .graphs import Label, label_text
from .ingest import Dimension, TemplateTable
from .patterns import DfsCode, Digraph, FailurePattern, consequent_index, remove_node

NODE_SCOPES = ("any", "same", "cross")


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
