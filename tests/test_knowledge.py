import dataclasses
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import reference_export
from logloom import (
    Digraph,
    Dimension,
    FailurePattern,
    KnowledgeBase,
    SchemaError,
    SequenceRule,
    TemplateTable,
    export,
    import_expert,
    load,
    merge,
    pipeline,
    query_root_causes,
)

A = (Dimension.EVENT, 0)
B = (Dimension.EVENT, 1)
C = (Dimension.STATUS, 0)


def _rule(label, consequent=0, support=0.5, confidence=0.9):
    dim, rid = label
    return SequenceRule(rid, dim, (), consequent, support, confidence)


def _templates(*masked):
    table = TemplateTable()
    for m in masked:
        table.id_for(m)
    return table


def _pattern(labels, edges, **scores):
    defaults = dict(support=0.5, weighted_support=0.4, structural_confidence=0.6,
                    knowledge_confidence=0.5)
    defaults.update(scores)
    defaults["weighted_support"] = min(defaults["weighted_support"], defaults["support"])
    weights = [1.0] * len(labels)
    return FailurePattern.build(
        Digraph(tuple(labels), frozenset(edges)), weights, **defaults
    )


def _base_kb():
    kb = KnowledgeBase.new(
        rules=[_rule(A), _rule(B, consequent=1), _rule(C, consequent=1)],
        templates=_templates("config changed", "performance degraded"),
        metadata={"config_digest": "abc123", "created": None},
    )
    return kb


class TestMerge:
    def test_add_then_idempotent(self):
        kb = _base_kb()
        p = _pattern([A, C], [(0, 1, "cross")])
        kb, report = merge(kb, [p])
        assert (report.added, report.updated) == (1, 0)
        kb, report = merge(kb, [p])
        assert (report.added, report.updated) == (0, 1)
        assert len(kb.patterns) == 1
        assert kb.patterns[p.code].support == p.support

    def test_collision_takes_max_scores_and_union_provenance(self):
        kb = _base_kb()
        low = _pattern([A, C], [(0, 1, "cross")], support=0.3, knowledge_confidence=0.9)
        high = _pattern([A, C], [(0, 1, "cross")], support=0.7, knowledge_confidence=0.2)
        import dataclasses
        high = dataclasses.replace(high, provenance=frozenset({"expert:ops"}))
        kb, _ = merge(kb, [low])
        kb, _ = merge(kb, [high])
        merged = kb.patterns[low.code]
        assert merged.support == 0.7
        assert merged.knowledge_confidence == 0.9
        assert merged.provenance == {"mined", "expert:ops"}

    def test_commutative_over_incoming_order(self):
        p1 = _pattern([A, C], [(0, 1, "cross")], support=0.3)
        p2 = _pattern([A, C], [(0, 1, "cross")], support=0.8)
        p3 = _pattern([A, B], [(0, 1, "same")])
        kb_a, _ = merge(_base_kb(), [p1, p2, p3])
        kb_b, _ = merge(_base_kb(), [p3, p2, p1])
        assert export(kb_a) == export(kb_b)

    def test_unresolvable_labels_rejected(self):
        kb = _base_kb()
        stranger = _pattern([(Dimension.RAS, 9), A], [(0, 1, "same")])
        kb, report = merge(kb, [stranger])
        assert not kb.patterns
        assert report.rejected and "ras:9" in report.rejected[0]


class TestExportLoad:
    def test_round_trip_identity(self):
        kb = _base_kb()
        kb, _ = merge(kb, [
            _pattern([A, C], [(0, 1, "cross")]),
            _pattern([A], []),
            _pattern([A, B, C], [(0, 1, "same"), (1, 2, "cross")]),
        ])
        text = export(kb)
        loaded = load(text)
        assert export(loaded) == text
        assert set(loaded.patterns) == set(kb.patterns)
        for code, p in kb.patterns.items():
            q = loaded.patterns[code]
            assert (q.support, q.weighted_support) == (p.support, p.weighted_support)
            assert (q.structural_confidence, q.knowledge_confidence) == (
                p.structural_confidence, p.knowledge_confidence)
            assert q.provenance == p.provenance
            assert q.graph == p.graph
        assert loaded.rules == kb.rules
        assert list(loaded.templates.items()) == list(kb.templates.items())
        assert loaded.metadata == kb.metadata

    def test_export_is_byte_stable(self):
        kb = _base_kb()
        merge(kb, [_pattern([A, C], [(0, 1, "cross")])])
        assert export(kb) == export(kb)
        assert export(kb).endswith("\n")

    def test_export_ascii_only(self):
        kb = KnowledgeBase.new(
            rules=[_rule(A)], templates=_templates("café <NUM>°")
        )
        assert export(kb).isascii()

    @pytest.mark.parametrize(
        "mutate,path_part",
        [
            (lambda d: d.update(version=2), "$.version"),
            pytest.param(lambda d: d.update(version=True), "$.version", id="bool_version"),
            pytest.param(lambda d: d.update(version=1.0), "$.version", id="float_version"),
            (lambda d: d.update(metadata=[]), "$.metadata"),
            (lambda d: d.update(templates=[[1, "x"]]), "$.templates"),
            (lambda d: d["rules"].append({"dim": "event"}), "$.rules[3]"),
            (lambda d: d["rules"][0].update(dim="bogus"), ".dim"),
            (lambda d: d["rules"][0].update(consequent=99), ".consequent"),
            (lambda d: d["patterns"][0].update(support=2.0), ".support"),
            (lambda d: d["patterns"][0].update(edges=[[0, 0, "same"]]), ".edges"),
            (lambda d: d["patterns"][0].update(edges=[]), "connected"),
            (lambda d: d["patterns"][0].update(provenance=[]), ".provenance"),
            (
                lambda d: (
                    d["patterns"][0]["nodes"][1].__setitem__(0, 5),
                    d["patterns"][0].update(edges=[]),
                ),
                "0..n-1",
            ),
        ],
    )
    def test_schema_violations_are_located(self, mutate, path_part):
        kb = _base_kb()
        merge(kb, [_pattern([A, C], [(0, 1, "cross")])])
        doc = json.loads(export(kb))
        mutate(doc)
        with pytest.raises(SchemaError) as err:
            load(doc)
        assert path_part in str(err.value)

    def test_duplicate_rule_rejected(self):
        kb = _base_kb()
        doc = json.loads(export(kb))
        doc["rules"].append(dict(doc["rules"][0]))
        with pytest.raises(SchemaError) as err:
            load(doc)
        assert "duplicate" in str(err.value)

    def test_duplicate_pattern_rejected(self):
        kb = _base_kb()
        merge(kb, [_pattern([A, C], [(0, 1, "cross")]), _pattern([B], [])])
        doc = json.loads(export(kb))
        doc["patterns"].append(dict(doc["patterns"][0], knowledge_confidence=0.0123))
        with pytest.raises(SchemaError) as err:
            load(doc)
        assert err.value.path == "$.patterns[2]"
        assert "duplicate pattern" in str(err.value)

    def test_repeated_template_rejected(self):
        doc = json.loads(export(_base_kb()))
        doc["templates"].append([2, doc["templates"][0][1]])
        with pytest.raises(SchemaError) as err:
            load(doc)
        assert err.value.path == "$.templates"
        assert "template 2 repeats template 0" in str(err.value)

    def test_pattern_label_without_rule_rejected(self):
        kb = _base_kb()
        merge(kb, [_pattern([A, C], [(0, 1, "cross")])])
        doc = json.loads(export(kb))
        doc["rules"] = [r for r in doc["rules"] if r["dim"] != "status"]
        with pytest.raises(SchemaError) as err:
            load(doc)
        assert "status:0" in str(err.value)

    def test_valid_load_formats_no_label_text(self, monkeypatch):
        """Error text is built only when a check fails, so loading a valid
        document never renders a label."""
        kb = _base_kb()
        merge(kb, [
            _pattern([A, C], [(0, 1, "cross")]),
            _pattern([A, B, C], [(0, 1, "same"), (1, 2, "cross")]),
            _pattern([B, C], [(1, 0, "cross")]),
        ])
        text = export(kb)
        calls = []
        monkeypatch.setattr(pipeline, "label_text", lambda label: calls.append(label))
        assert export(load(text)) == text
        assert calls == []

    def test_invalid_json_string(self):
        with pytest.raises(SchemaError):
            load("{nope")


TEXTS = st.one_of(
    st.sampled_from(["café <NUM>°", 'say "hi"', "back\\slash", "tab\tnew\nline",
                     "ctl\x00\x1f\x7f", "line\u2028sep", "\U0001f680", ""]),
    st.text(max_size=6),
)
# Scores the schema allows: ints and floats, both zeros and the least subnormal.
SCORES = st.one_of(st.sampled_from([0, 0.0, -0.0, 1, 1.0, 5e-324, 1 / 3]), st.floats(0, 1))
RULE_IDS = st.sampled_from([0, 1, 2, 2**70])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | TEXTS
    | st.sampled_from([0, 0.0, -0.0, 1, 1.0, 5e-324, 1e16]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXTS, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def knowledge_bases(draw):
    """A knowledge base `load` accepts: rules over its templates, and
    connected patterns of 1-3 nodes over the rules' labels, repeats
    allowed, with one node weight per label."""
    masked = draw(st.lists(TEXTS, unique=True, max_size=4))
    templates = TemplateTable.from_rows(enumerate(masked))
    rules: dict = {}
    if masked:
        tids = st.integers(0, len(masked) - 1)
        labels = st.tuples(st.sampled_from(list(Dimension)), RULE_IDS)
        for dim, rid in draw(st.lists(labels, unique=True, max_size=4)):
            rules[(dim, rid)] = SequenceRule(
                rid, dim, tuple(draw(st.lists(tids, max_size=3))), draw(tids),
                draw(SCORES), draw(SCORES),
            )
    patterns: dict = {}
    weight = {label: draw(SCORES) for label in rules}
    for _ in range(draw(st.integers(0, 4)) if rules else 0):
        labels = draw(st.lists(st.sampled_from(list(rules)), min_size=1, max_size=3))
        edges = set()
        for j in range(1, len(labels)):
            i = draw(st.integers(0, j - 1))
            u, v = (i, j) if draw(st.booleans()) else (j, i)
            edges.add((u, v, draw(st.sampled_from(["same", "cross"]))))
        ws, support = sorted([draw(SCORES), draw(SCORES)])
        p = FailurePattern.build(
            Digraph(tuple(labels), frozenset(edges)), [weight[label] for label in labels],
            support=support, weighted_support=ws,
            structural_confidence=draw(SCORES), knowledge_confidence=draw(SCORES),
            provenance=draw(st.frozensets(TEXTS.filter(bool), min_size=1, max_size=3)),
        )
        patterns[p.code] = p
    metadata = draw(st.dictionaries(TEXTS, JSON_VALUES, max_size=4))
    return KnowledgeBase(patterns, rules, templates, metadata)


def _every_number_kb():
    """0, 0.0, -0.0, 1 and 1.0 as scores, 5e-324 and 1e16 too, escaped
    and non-ASCII text, a pattern without edges and nested metadata."""
    kb = KnowledgeBase.new(
        rules=[
            _rule(A, support=0, confidence=1),
            _rule(B, consequent=1, support=-0.0, confidence=1.0),
            _rule(C, consequent=1, support=0.0, confidence=5e-324),
        ],
        templates=_templates("café <NUM>°", 'say "hi"\tback\\slash\u2028'),
        metadata={"created": 1e16, "nested": {"list": [0, 0.0, -0.0, 1, 1.0, 5e-324, None, True],
                                              "empty": {}, "none": []}},
    )
    merge(kb, [
        _pattern([A, C], [(0, 1, "cross")], support=1, weighted_support=1.0,
                 structural_confidence=0, knowledge_confidence=-0.0),
        dataclasses.replace(
            _pattern([B], [], support=5e-324, weighted_support=0.0,
                     structural_confidence=1.0, knowledge_confidence=0.0),
            provenance=frozenset({"mined", "expert:équipe \"nuit\""}),
        ),
    ])
    return kb


class TestExportEqualsReference:
    """`export` renders the document directly; it must give the bytes of
    `json.dumps` of the whole document, and `load` must give it back."""

    @settings(max_examples=150, deadline=None)
    @given(kb=knowledge_bases())
    @example(kb=KnowledgeBase.new())
    @example(kb=KnowledgeBase({}, {}, TemplateTable(), {}))
    @example(kb=_every_number_kb())
    def test_bytes_and_round_trip(self, kb):
        text = export(kb)
        assert text == reference_export(kb)
        back = load(text)
        assert back.patterns == kb.patterns
        assert back.rules == kb.rules
        assert list(back.templates.items()) == list(kb.templates.items())
        assert back.metadata == kb.metadata


class TestImportExpert:
    def test_minimal_document(self):
        doc = {
            "metadata": {"source": "ops-team"},
            "patterns": [
                {
                    "nodes": [[0, "event", 0, 1.0], [1, "status", 0, 0.9]],
                    "edges": [[0, 1, "cross"]],
                    "knowledge_confidence": 0.95,
                }
            ],
        }
        (p,) = import_expert(doc)
        assert p.knowledge_confidence == 0.95
        assert p.support == 0.0
        assert "expert:ops-team" in p.provenance

    def test_anonymous_source_default(self):
        doc = {
            "patterns": [
                {
                    "nodes": [[0, "event", 0, 1.0]],
                    "edges": [],
                    "knowledge_confidence": 0.5,
                }
            ]
        }
        (p,) = import_expert(doc)
        assert "expert:anonymous" in p.provenance

    def test_missing_confidence_rejected(self):
        doc = {"patterns": [{"nodes": [[0, "event", 0, 1.0]], "edges": []}]}
        with pytest.raises(SchemaError):
            import_expert(doc)

    def test_expert_then_merge_into_kb(self):
        kb = _base_kb()
        doc = {
            "metadata": {"source": "ops"},
            "patterns": [
                {
                    "nodes": [[0, "event", 0, 1.0], [1, "status", 0, 1.0]],
                    "edges": [[0, 1, "cross"]],
                    "knowledge_confidence": 0.9,
                }
            ],
        }
        kb, report = merge(kb, import_expert(doc))
        assert report.added == 1


class TestQuery:
    def _kb_with_patterns(self):
        kb = _base_kb()
        kb, report = merge(kb, [
            _pattern([A, C], [(0, 1, "cross")], support=0.8, knowledge_confidence=0.8),
            _pattern([B, C], [(0, 1, "same")], support=0.9, knowledge_confidence=0.5),
            _pattern([A, B, C], [(0, 1, "same"), (1, 2, "cross")],
                     support=0.4, knowledge_confidence=0.8),
            _pattern([C], []),
            _pattern([A, B], [(0, 1, "same")]),
        ])
        assert not report.rejected
        return kb

    def test_targets_by_rule_and_ranks_by_score(self):
        kb = self._kb_with_patterns()
        results = query_root_causes(kb, Dimension.STATUS, rule_id=0)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)
        assert [r.pattern.graph.n for r in results] == [2, 2, 3]
        assert results[0].score == pytest.approx(0.64)

    def test_tie_breaks_prefer_larger_patterns(self):
        kb = _base_kb()
        merge(kb, [
            _pattern([A, C], [(0, 1, "cross")], support=0.5, knowledge_confidence=0.8),
            _pattern([A, B, C], [(0, 1, "same"), (1, 2, "cross")],
                     support=0.5, knowledge_confidence=0.8),
        ])
        results = query_root_causes(kb, Dimension.STATUS, rule_id=0)
        assert results[0].pattern.graph.n == 3

    def test_antecedent_excludes_consequent(self):
        kb = self._kb_with_patterns()
        results = query_root_causes(kb, Dimension.STATUS, rule_id=0)
        top = results[0]
        assert C not in top.antecedent.labels
        assert len(top.antecedent_weights) == top.antecedent.n

    def test_single_node_patterns_never_answer(self):
        kb = self._kb_with_patterns()
        for r in query_root_causes(kb, Dimension.STATUS, rule_id=0):
            assert r.pattern.graph.n >= 2

    def test_targets_by_template(self):
        kb = self._kb_with_patterns()
        by_rule = query_root_causes(kb, Dimension.STATUS, rule_id=0)
        by_template = query_root_causes(kb, Dimension.STATUS, template=1)
        assert [r.pattern.code for r in by_rule] == [r.pattern.code for r in by_template]

    def test_scope_filters_edge_kinds_at_consequent(self):
        kb = self._kb_with_patterns()
        cross_only = query_root_causes(kb, Dimension.STATUS, rule_id=0, node_scope="cross")
        for r in cross_only:
            incident = [el for u, v, el in r.pattern.graph.edges
                        if r.pattern.graph.labels[u] == C or r.pattern.graph.labels[v] == C]
            assert set(incident) == {"cross"}
        unfiltered = query_root_causes(kb, Dimension.STATUS, rule_id=0, node_scope="any")
        assert len(unfiltered) == 3

    def test_unknown_target_raises_lookup(self):
        kb = self._kb_with_patterns()
        with pytest.raises(LookupError):
            query_root_causes(kb, Dimension.RAS, rule_id=7)
        with pytest.raises(LookupError):
            query_root_causes(kb, Dimension.STATUS, template=99)

    def test_exactly_one_target_required(self):
        kb = self._kb_with_patterns()
        with pytest.raises(ValueError):
            query_root_causes(kb, Dimension.STATUS)
        with pytest.raises(ValueError):
            query_root_causes(kb, Dimension.STATUS, rule_id=0, template=1)

    def test_bad_scope_rejected(self):
        kb = self._kb_with_patterns()
        with pytest.raises(ValueError):
            query_root_causes(kb, Dimension.STATUS, rule_id=0, node_scope="remote")
