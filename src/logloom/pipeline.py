"""Batch pipeline: configuration, the readers and writers of every
interchange file, `rules.json` and `kb.json` included, and `STAGES`, the
stage table that `run_pipeline` and the five stage commands walk."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence, get_args, get_origin, get_type_hints

from .dims import _DIM_BY_VALUE, Dimension, dimension
from .episodes import (
    RuleInstance,
    SequenceRule,
    derive_rules,
    find_instances,
    mine_episodes,
)
from .graphs import (
    EDGE_KINDS,
    WEIGHT_MODES,
    GraphNode,
    Label,
    WindowGraph,
    build_window_graphs,
    label_text,
    label_weights,
)
from .ingest import (
    FORMATS,
    CanonicalEvent,
    RejectEntry,
    TemplateTable,
    canonicalize,
    decode_json_line,
    json_fault,
    parse_lines,
    read_text,
)
from .knowledge import KnowledgeBase, MergeReport, merge
from .patterns import (
    COMBINERS,
    Digraph,
    FailurePattern,
    knowledge_confidence,
    mine_patterns,
    structural_confidences,
)
from .preprocess import coalesce, filter_noise

# The SHA-256 CPython builds in, so that a run does not map OpenSSL's
# libcrypto, as `hashlib` does, to hash one small config document.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256


class ConfigError(Exception):
    """A configuration key is unknown or out of range."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


def _knob(default: Any, meaning: str, check=None, choices=(), flag: str | None = "") -> Any:
    """Declare a config field.

    `check` is a (predicate, message) pair for values that are not None.
    `flag` is the CLI spelling: empty for `--` plus the key with `-` for
    `_`, None for no flag.
    """
    return field(
        default=default,
        metadata={"meaning": meaning, "check": check, "choices": tuple(choices), "flag": flag},
    )


_POSITIVE = (lambda v: v > 0, "must be > 0")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
_FRACTION = (lambda v: 0 < v <= 1, "must be in (0, 1]")


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the pipeline; validated on construction.

    Each field declares its knob once: name, type and default here, range
    check, choices and meaning in its metadata. Validation, the CLI flags
    and the README configuration table all follow from these fields.
    """

    window: float = _knob(120.0, "episode window length, seconds", _POSITIVE)
    min_sup: float = _knob(
        0.1, "minimum fraction of windows containing an episode", _FRACTION
    )
    min_conf: float = _knob(
        0.0, "minimum rule confidence", (lambda v: 0 <= v <= 1, "must be in [0, 1]")
    )
    k_max: int = _knob(4, "longest episode mined", _AT_LEAST_ONE)
    granularity: float = _knob(1.0, "tick size; window must be a multiple", _POSITIVE)
    gap: float = _knob(
        5.0, "coalescing gap for repeated identical events, seconds", _POSITIVE
    )
    blacklist: tuple[int, ...] = _knob(
        (),
        "template ids dropped outright",
        (lambda ids: all(t >= 0 for t in ids), "must hold non-negative template ids"),
        flag=None,
    )
    max_rate: float | None = _knob(
        None, "drop a node's template stream above this many events/hour", _POSITIVE
    )
    corr_window: float = _knob(300.0, "correlation window length, seconds", _POSITIVE)
    max_lag: float = _knob(
        120.0, "longest edge-forming lag between rule instances", _POSITIVE
    )
    weight_mode: str = _knob("confidence", "rule weight source", choices=WEIGHT_MODES)
    ws_min: float = _knob(0.1, "minimum weighted support for a pattern", _FRACTION)
    p_max: int = _knob(6, "largest pattern, nodes", _AT_LEAST_ONE)
    combiner: str = _knob(
        "geomean",
        "folds rule confidences into knowledge confidence",
        choices=COMBINERS,
    )
    dim_default: str | None = _knob(
        None,
        "dimension assumed when a record lacks one",
        choices=(d.value for d in Dimension),
    )
    input_format: str = _knob("jsonl", "input log format", choices=FORMATS, flag="--format")
    input: str | None = _knob(None, "input log file", flag=None)
    out: str | None = _knob(None, "output directory", flag=None)

    def __post_init__(self) -> None:
        for f in fields(self):
            value = _coerce(f.name, _TYPES[f.name], getattr(self, f.name))
            object.__setattr__(self, f.name, value)
            if value is None:
                continue
            check, choices = f.metadata["check"], f.metadata["choices"]
            if check and not check[0](value):
                raise ConfigError(f.name, check[1])
            if choices and value not in choices:
                raise ConfigError(f.name, f"must be one of {choices}")
        ticks = self.window / self.granularity
        if abs(ticks - round(ticks)) > 1e-9 or round(ticks) < 1:
            raise ConfigError("window", "must be a positive integer multiple of granularity")
        if self.max_lag > self.corr_window:
            raise ConfigError("max_lag", "must be in (0, corr_window]")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PipelineConfig":
        """Build from parsed JSON, rejecting unknown keys."""
        known = {f.name for f in fields(cls)}
        for key in data:
            if key not in known:
                raise ConfigError(key, "unknown configuration key")
        return cls(**data)


_TYPES = get_type_hints(PipelineConfig)
_SCALARS = {
    float: ((int, float), "must be a number"),
    int: (int, "must be an integer"),
    str: (str, "must be a string"),
}


def knob_type(name: str) -> type:
    """The type of knob `name`, without the `| None` of optional knobs."""
    args = get_args(_TYPES[name])
    return args[0] if type(None) in args else _TYPES[name]


def _coerce(key: str, hint: Any, value: Any) -> Any:
    """Check `value` against type `hint`, making ints floats where floats
    are expected and lists tuples; a bool is never a number, and
    infinity and NaN are not numbers a knob takes."""
    args = get_args(hint)
    if type(None) in args:
        return None if value is None else _coerce(key, args[0], value)
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(key, "must be an array")
        return tuple(_coerce(key, args[0], v) for v in value)
    accepted, message = _SCALARS[hint]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(key, message)
    if hint is float and not math.isfinite(value):
        raise ConfigError(key, "must be finite")
    return hint(value)


_DIGEST_EXCLUDED = ("input", "out")


def config_digest(cfg: PipelineConfig) -> str:
    """Hash of the analysis knobs; paths do not count."""
    payload = {
        f.name: getattr(cfg, f.name)
        for f in fields(cfg)
        if f.name not in _DIGEST_EXCLUDED
    }
    payload["blacklist"] = sorted(payload["blacklist"])
    blob = json.dumps(payload, sort_keys=True)
    return sha256(blob.encode("utf-8")).hexdigest()[:16]


def read_config(path: str | Path) -> dict[str, Any]:
    """The JSON object in a config file, not yet validated."""
    text = read_text(path)
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError("$", f"config is not valid JSON: {json_fault(exc)}") from None
    if not isinstance(data, dict):
        raise ConfigError("$", "config must be a JSON object")
    return data


def ascii_id(text: str) -> int | None:
    """The id that `text` spells as a run of ASCII digits, else None."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        return None


def load_blacklist(path: str | Path) -> frozenset[int]:
    """Read template ids from a text file, one per line, '#' comments allowed.

    An id is a run of ASCII digits; any other line is refused."""
    ids: set[int] = set()
    lines = read_text(path).split("\n")
    for line_no, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        tid = ascii_id(text)
        if tid is None:
            raise ConfigError(
                "blacklist", f"{path}: line {line_no}: {text!r} is not a template id"
            )
        ids.add(tid)
    return frozenset(ids)


# ---------------------------------------------------------------------------
# interchange files
#
# Every file a stage hands the next is read and written here. The writers
# render JSON directly: the bytes `json.dumps(..., sort_keys=True)` gives,
# with `indent=2` where the document has it, without building dict
# documents. Strings are escaped to ASCII by json's own
# `encode_basestring_ascii`, once per distinct string in a document where
# they repeat.


class SchemaError(Exception):
    """An interchange document failed validation; `path` locates the field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


DOC_VERSION = 1


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


def _write_array(write, items: Iterable[str]) -> None:
    """Pass a top-level `indent=2` array of `items` to `write`, an item at
    a time."""
    write("[")
    sep = ""
    for item in items:
        write(sep)
        write(item)
        sep = ","
    write("\n  ]" if sep else "]")


def _read_records(path: str | Path, build) -> list:
    """`build` applied to each non-blank JSON line of `path`, in order.

    A line that is not JSON, or that `build` fails on with a KeyError,
    TypeError or ValueError, is a SchemaError naming the file and line.
    """
    out = []
    # read_text turns \r\n and \r into \n; splitlines() would also split
    # inside a JSON string holding a raw U+2028, U+2029 or \x85.
    lines = read_text(path).split("\n")
    for line_no, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            raw = decode_json_line(line)
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"{path}: line {line_no}", f"not JSON: {json_fault(exc)}") from None
        try:
            out.append(build(raw))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: line {line_no}", _fault(exc)) from None
    return out


def _fault(exc: Exception) -> str:
    return f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)


def write_events(events: Iterable[CanonicalEvent], path: str | Path) -> None:
    """One `json.dumps(row, sort_keys=True)` line per event, rendered directly."""
    strings = _Memo(encode_basestring_ascii)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            f'{{"count": {_scalar(ev.count)}, "dim": {_DIM_TEXT[ev.dim]}, '
            f'"node": {strings[ev.node]}, "template": {_scalar(ev.template)}, '
            f'"ts": {_scalar(ev.ts)}}}\n'
            for ev in events
        )


def _number(value: Any, key: str) -> float:
    """`value` if it is a finite JSON number; a bool is not one."""
    kind = type(value)
    if kind is not int and (kind is not float or not math.isfinite(value)):
        raise ValueError(f"{key} must be a finite number")
    return value


def _typed(value: Any, key: str, kind: type, what: str) -> Any:
    """`value` if its JSON type is exactly `kind`, so a bool is no int."""
    if type(value) is not kind:
        raise ValueError(f"{key} must be {what}")
    return value


def _span(value: Any) -> tuple[float, float]:
    if type(value) is not list or len(value) != 2:
        raise ValueError("span must be a pair of finite numbers")
    return (_number(value[0], "span"), _number(value[1], "span"))


def read_events(path: str | Path, templates: TemplateTable | None = None) -> list[CanonicalEvent]:
    """Events in stream order; a line sorting before its predecessor, or
    naming a template id outside `templates` when given, is a SchemaError.

    A row of a float `ts` above its predecessor's, a string `node`, a
    member's `dim` text and int `template` and `count` in range is built
    as it stands. Every other row goes through the checks field by field,
    which give its event or its error.
    """
    last: CanonicalEvent | None = None
    last_ts = -math.inf
    n_templates = math.inf if templates is None else len(templates)
    dims = _DIM_BY_VALUE

    def build(raw: dict) -> CanonicalEvent:
        nonlocal last, last_ts
        if type(raw) is dict:
            ts, node, dim = raw.get("ts"), raw.get("node"), raw.get("dim")
            template, count = raw.get("template"), raw.get("count", 1)
            if (
                type(ts) is float and last_ts < ts < math.inf
                and type(node) is str and type(dim) is str and dim in dims
                and type(template) is int and 0 <= template < n_templates
                and type(count) is int and count >= 1
            ):
                last_ts = ts
                last = CanonicalEvent(ts, node, dims[dim], template, count)
                return last
        ev = CanonicalEvent(
            ts=_number(raw["ts"], "ts"),
            node=_typed(raw["node"], "node", str, "a string"),
            dim=dimension(raw["dim"]),
            template=_typed(raw["template"], "template", int, "an integer"),
            count=_typed(raw.get("count", 1), "count", int, "an integer"),
        )
        if last is not None and ev.sort_key < last.sort_key:
            raise ValueError("event is out of stream order (ts, node, dim, template)")
        if templates is not None and not 0 <= ev.template < len(templates):
            raise ValueError(f"template {ev.template} is not in the templates file")
        last, last_ts = ev, ev.ts
        return ev

    return _read_records(path, build)


def write_rejects(rejects: Sequence[RejectEntry], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in rejects:
            raw = r.raw.replace("\n", "\\n")
            fh.write(f"line {r.line_no}: {r.reason}: {raw}\n")


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
    _write_array(parts.append, (pattern_text(kb.patterns[code]) for code in sorted(kb.patterns)))
    parts.append(',\n  "rules": ')
    rules = sorted(kb.rules.values(), key=lambda r: (r.dim.rank, r.rule_id))
    _write_array(parts.append, map(rule_text, rules))
    parts.append(',\n  "templates": ')
    templates = (_TEMPLATE.format(t, encode_basestring_ascii(m)) for t, m in kb.templates.items())
    _write_array(parts.append, templates)
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


def _pattern_from_doc(entry: Any, k: int, tag: str | None) -> FailurePattern:
    """Build a pattern from the document entry at `$.patterns[k]`.

    With no `tag` (full documents) every score and a non-empty provenance
    are required; otherwise (expert documents) only knowledge_confidence
    is mandatory, the fields in `_EXPERT_DEFAULTS` take their default and
    the provenance gains `tag`. A window holds one node per label, so a
    pattern whose label repeats is refused.
    """
    strict = tag is None
    if not isinstance(entry, dict):
        raise SchemaError(f"$.patterns[{k}]", "must be an object")
    nodes = entry.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        raise SchemaError(f"$.patterns[{k}].nodes", "must be a non-empty array")
    labels: dict[int, Label] = {}
    seen: set[Label] = set()
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
        label = labels[index] = (dim, rid)
        if label in seen:
            raise SchemaError(f"$.patterns[{k}].nodes[{i}]", f"repeated label {label_text(label)}")
        seen.add(label)
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
            provenance=frozenset(provenance + [tag] if tag else provenance),
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
        p = _pattern_from_doc(raw, k, None)
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
    return [_pattern_from_doc(raw, k, tag) for k, raw in enumerate(patterns_raw)]


def rules_doc(
    rules: Sequence[SequenceRule], table: TemplateTable, cfg: PipelineConfig
) -> KnowledgeBase:
    metadata = {"config_digest": config_digest(cfg), "created": None}
    return KnowledgeBase({}, {rule.label: rule for rule in rules}, table, metadata)


def read_rules_doc(path: str | Path) -> KnowledgeBase:
    return load(read_text(path))


def write_instances(instances: Iterable[RuleInstance], path: str | Path) -> None:
    """One `json.dumps(row, sort_keys=True)` line per instance, rendered directly."""
    strings = _Memo(encode_basestring_ascii)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            f'{{"anchor": {_scalar(inst.anchor)}, "dim": {_DIM_TEXT[inst.dim]}, '
            f'"node": {strings[inst.node]}, "rule_id": {_scalar(inst.rule_id)}, '
            f'"span": [{", ".join(map(_scalar, inst.span))}]}}\n'
            for inst in instances
        )


def read_instances(
    path: str | Path, rules: Iterable[SequenceRule] | None = None
) -> list[RuleInstance]:
    """Rule instances; a line whose rule label is not among `rules`, when
    given, is a SchemaError."""
    labels = None if rules is None else {r.label for r in rules}

    def build(raw: dict) -> RuleInstance:
        inst = RuleInstance(
            rule_id=_typed(raw["rule_id"], "rule_id", int, "an integer"),
            dim=dimension(raw["dim"]),
            anchor=_number(raw["anchor"], "anchor"),
            span=_span(raw["span"]),
            node=_typed(raw["node"], "node", str, "a string"),
        )
        label = (inst.dim, inst.rule_id)
        if labels is not None and label not in labels:
            raise ValueError(f"rule {label_text(label)} is not in the rules file")
        return inst

    return _read_records(path, build)


# The indent=2 layout of graphs.json, one template per nesting level.
_WINDOW = '\n    {{\n      "edges": {},\n      "nodes": {},\n      "window_index": {}\n    }}'
_EDGE = "\n        [\n          {},\n          {},\n          {},\n          {},\n          {}\n        ]"
_NODE = (
    '\n        {{\n          "anchor": {},\n          "dim": {},\n          "node": {},'
    '\n          "rule_id": {},\n          "weight": {}\n        }}'
)


def write_graphs(graphs: Sequence[WindowGraph], path: str | Path) -> None:
    """`json.dumps(doc, sort_keys=True, indent=2)` of the graphs document
    plus a newline, rendered directly and written one window at a time.

    Edges are listed as `[dim, rule_id, dim, rule_id, kind]` in sorted
    order. Each label's sort key and each edge's text are made once per
    call; rule ids are ints, as everywhere in a Label.
    """
    strings = _Memo(encode_basestring_ascii)
    keys = _Memo(lambda label: (label[0].value, label[1]))

    def edge_row(edge: tuple[Label, Label, str]) -> list:
        """The edge's sort key followed by its text. A list, not a tuple:
        CPython keeps up to 2000 freed tuples of each length for reuse,
        so a tuple per distinct edge would stay allocated after the call."""
        (du, ru), (dv, rv), kind = keys[edge[0]], keys[edge[1]], edge[2]
        text = _EDGE.format(strings[du], _scalar(ru), strings[dv], _scalar(rv), strings[kind])
        return [du, ru, dv, rv, kind, text]

    edge_rows = _Memo(edge_row)

    def window(g: WindowGraph) -> str:
        edges = [row[5] for row in sorted(map(edge_rows.__getitem__, g.edges))]
        nodes = [
            _NODE.format(
                _scalar(gn.anchor), _DIM_TEXT[gn.label[0]], strings[gn.node],
                _scalar(gn.label[1]), _scalar(gn.weight),
            )
            for gn in g.nodes
        ]
        return _WINDOW.format(_array(edges, 6), _array(nodes, 6), _scalar(g.window_index))

    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "graphs": ')
        _write_array(fh.write, map(window, graphs))
        fh.write(f',\n  "version": {DOC_VERSION}\n}}\n')


def read_graphs(
    path: str | Path, rules: Iterable[SequenceRule] | None = None
) -> list[WindowGraph]:
    """Window graphs; a `version` other than the integer 1 is a SchemaError
    at `$.version`, and a window that does not make a WindowGraph, makes
    one that fails `WindowGraph.check()`, or has a node label that is not
    among `rules`, when given, is a SchemaError at `$.graphs[i]`."""
    labels = None if rules is None else {r.label for r in rules}
    text = read_text(path)
    try:
        doc = json.loads(text)
        windows = doc["graphs"]
    except (KeyError, TypeError, ValueError, RecursionError):
        windows = None
    if not isinstance(windows, list):
        raise SchemaError("$.graphs", f"{path} is not a JSON object with a graphs array")
    version = doc.get("version")
    if not (_is_int(version) and version == DOC_VERSION):
        raise SchemaError("$.version", f"{path}: must be {DOC_VERSION}")
    edge_of: dict[tuple, tuple[Label, Label, Any]] = {}

    def edge(d1: Any, r1: Any, d2: Any, r2: Any, kind: Any) -> tuple[Label, Label, Any]:
        """The edge of a `[dim, rule_id, dim, rule_id, kind]` row, converted
        once per file. Only a row of a string, an int, a string and an int
        is looked up, so that `1`, `1.0` and `true` never share an entry;
        converting any other row raises, so it is never stored."""
        typed = type(d1) is str and type(r1) is int and type(d2) is str and type(r2) is int
        key = (d1, r1, d2, r2, kind)
        found = edge_of.get(key) if typed else None
        if found is None:
            found = edge_of[key] = (
                (dimension(d1), _typed(r1, "rule_id", int, "an integer")),
                (dimension(d2), _typed(r2, "rule_id", int, "an integer")),
                kind,
            )
        return found

    out: list[WindowGraph] = []
    for i, raw in enumerate(windows):
        try:
            nodes = tuple(
                GraphNode(
                    label=(
                        dimension(n["dim"]),
                        _typed(n["rule_id"], "rule_id", int, "an integer"),
                    ),
                    weight=_number(n["weight"], "weight"),
                    anchor=_number(n["anchor"], "anchor"),
                    node=_typed(n["node"], "node", str, "a string"),
                )
                for n in raw["nodes"]
            )
            edges = frozenset(
                edge(d1, r1, d2, r2, kind) for d1, r1, d2, r2, kind in raw["edges"]
            )
            index = _typed(raw["window_index"], "window_index", int, "an integer")
            graph = WindowGraph(index, nodes, edges)
            graph.check()
            if labels is not None:
                for gn in nodes:
                    if gn.label not in labels:
                        raise ValueError(f"rule {label_text(gn.label)} is not in the rules file")
            out.append(graph)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"$.graphs[{i}]", f"{path}: {_fault(exc)}") from None
    return out


# ---------------------------------------------------------------------------
# stages
#
# A run hands named values from stage to stage; a value a file holds is
# named for the file's stem. Layers, readers and writers are called by
# their name in this module, so the benchmark's traced run can wrap them.


def patterns_stage(
    cfg: PipelineConfig,
    graphs: Sequence[WindowGraph],
    rules: Sequence[SequenceRule],
) -> list[FailurePattern]:
    if not graphs:
        return []
    weights = label_weights(rules, cfg.weight_mode)
    rule_map = {r.label: r for r in rules}
    mined = mine_patterns(graphs, weights, cfg.ws_min, cfg.p_max)
    confidences = structural_confidences(mined, graphs, rule_map)
    return [
        replace(
            p,
            structural_confidence=conf,
            knowledge_confidence=knowledge_confidence(p, rule_map, cfg.combiner, conf),
        )
        for p, conf in zip(mined, confidences)
    ]


def kb_stage(
    cfg: PipelineConfig,
    patterns: Sequence[FailurePattern],
    rules: Sequence[SequenceRule],
    table: TemplateTable,
) -> tuple[KnowledgeBase, MergeReport]:
    kb = rules_doc(rules, table, cfg)
    return merge(kb, patterns)


def _ingest(cfg: PipelineConfig, v: dict[str, Any]) -> str:
    dim_default = Dimension(cfg.dim_default) if cfg.dim_default else None
    with open(v["input"], "rb") as fh:
        parsed = parse_lines(fh, fmt=cfg.input_format, dim_default=dim_default)
    table = v["templates"] = TemplateTable()
    events, rejects = canonicalize(parsed.records, table)
    v["events"], v["rejects"] = events, parsed.rejects + rejects
    return f"{len(events)} events, {len(table)} templates, {len(v['rejects'])} rejects\n"


def _preprocess(cfg: PipelineConfig, v: dict[str, Any]) -> str:
    events = v["events"]
    coalesced = coalesce(events, cfg.gap)
    v["events"], v["noise"] = filter_noise(coalesced, cfg.blacklist, cfg.max_rate)
    v["events_in"], v["coalesced_away"] = len(events), len(events) - len(coalesced)
    return (
        f"kept {len(v['events'])} of {len(events)} events "
        f"(coalesced away: {v['coalesced_away']})\n{v['noise'].render()}\n"
    )


def _mine_rules(cfg: PipelineConfig, v: dict[str, Any]) -> str:
    """Mine each dimension independently; merge in dimension order."""
    events = v["events"]
    rules: list[SequenceRule] = []
    instances: list[RuleInstance] = []
    for dim in sorted({e.dim for e in events}, key=lambda d: d.rank):
        dim_events = [e for e in events if e.dim == dim]
        episodes = mine_episodes(
            dim_events, cfg.window, cfg.min_sup, cfg.k_max, cfg.granularity
        )
        dim_rules = derive_rules(episodes, cfg.min_conf)
        rules.extend(dim_rules)
        instances.extend(find_instances(dim_rules, dim_events, cfg.window))
    instances.sort(key=lambda i: (i.anchor, i.dim.rank, i.rule_id, i.node))
    v["instances"] = instances
    v["rules"] = rules_doc(rules, v["templates"], cfg)
    return f"{len(rules)} rules, {len(instances)} instances\n"


def _build_graphs(cfg: PipelineConfig, v: dict[str, Any]) -> str:
    rules = list(v["rules"].rules.values())
    v["graphs"] = build_window_graphs(
        v["instances"], rules, cfg.corr_window, cfg.max_lag, cfg.weight_mode
    )
    return f"{len(v['graphs'])} window graphs\n"


def _mine_patterns(cfg: PipelineConfig, v: dict[str, Any]) -> str:
    doc = v["rules"]
    rules = list(doc.rules.values())
    v["patterns"] = patterns_stage(cfg, v["graphs"], rules)
    v["kb"], _ = kb_stage(cfg, v["patterns"], rules, doc.templates)
    return f"{len(v['patterns'])} patterns\n"


# The reader of each file a stage command takes, by flag. A file that
# others are checked against reads first: templates before events, rules
# before instances and graphs.
_READERS = {
    "input": lambda path, v: path,
    "templates": lambda path, v: TemplateTable.load(path),
    "rules": lambda path, v: read_rules_doc(path),
    "events": lambda path, v: read_events(path, v.get("templates")),
    "instances": lambda path, v: read_instances(path, v["rules"].rules.values()),
    "graphs": lambda path, v: read_graphs(path, v["rules"].rules.values()),
}

# The writer of each file a stage makes, given the value named by its stem.
_WRITERS = {
    "events.jsonl": lambda events, path: write_events(events, path),
    "templates.tsv": lambda table, path: table.save(path),
    "rejects.txt": lambda rejects, path: write_rejects(rejects, path),
    "rules.json": lambda doc, path: path.write_text(export(doc), encoding="utf-8"),
    "instances.jsonl": lambda instances, path: write_instances(instances, path),
    "graphs.json": lambda graphs, path: write_graphs(graphs, path),
    "kb.json": lambda kb, path: path.write_text(export(kb), encoding="utf-8"),
}


@dataclass(frozen=True)
class Stage:
    """One row of the stage table: the command and its help, the files the
    command reads, by flag, and the files the stage writes. `step` runs the
    stage on the values of a run, adds the values it makes, and returns the
    command's summary."""

    command: str
    help: str
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    step: Callable[[PipelineConfig, dict[str, Any]], str]

    def load(self, paths: Mapping[str, str | Path]) -> dict[str, Any]:
        """The values of the files the command reads, from `paths` by flag."""
        values: dict[str, Any] = {}
        for stem, read in _READERS.items():
            if stem in self.reads:
                values[stem] = read(paths[stem], values)
        return values

    def save(self, values: dict[str, Any], out: Path, names: Iterable[str] | None = None) -> None:
        """Write `names`, by default every file of the stage, into `out`."""
        out.mkdir(parents=True, exist_ok=True)
        for name in self.writes if names is None else names:
            _WRITERS[name](values[name.split(".")[0]], out / name)


STAGES = (
    Stage("ingest", "parse a log into canonical events", ("input",),
          ("events.jsonl", "templates.tsv", "rejects.txt"), _ingest),
    Stage("preprocess", "coalesce repeats and drop noise", ("events",),
          ("events.jsonl",), _preprocess),
    Stage("mine-rules", "mine per-dimension sequence rules", ("events", "templates"),
          ("rules.json", "instances.jsonl"), _mine_rules),
    Stage("build-graphs", "correlate rule instances into window graphs", ("instances", "rules"),
          ("graphs.json",), _build_graphs),
    Stage("mine-patterns", "mine failure patterns into a knowledge base", ("graphs", "rules"),
          ("kb.json",), _mine_patterns),
)


# ---------------------------------------------------------------------------
# the full run


@dataclass
class PipelineResult:
    kb: KnowledgeBase
    report: str
    events_parsed: int
    rejects: int


def _top_rules(rules: Sequence[SequenceRule], table: TemplateTable) -> list[str]:
    ranked = sorted(rules, key=lambda r: (-r.support, r.dim.rank, r.rule_id))
    lines = []
    for r in ranked[:10]:
        seq = " -> ".join(table.masked_for(t) for t in r.full_labels)
        lines.append(
            f"  {label_text(r.label)} sup={r.support:.4f} conf={r.confidence:.4f} {seq}"
        )
    return lines


def _top_patterns(patterns: Sequence[FailurePattern]) -> list[str]:
    ranked = sorted(
        patterns,
        key=lambda p: (-p.knowledge_confidence * p.support, -p.graph.n, p.code),
    )
    lines = []
    for p in ranked[:10]:
        nodes = ", ".join(map(label_text, p.graph.labels))
        lines.append(
            f"  [{nodes}] sup={p.support:.4f} ws={p.weighted_support:.4f} "
            f"kc={p.knowledge_confidence:.4f}"
        )
    return lines


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Run every stage of `STAGES` in memory, writing each file once, after
    the last stage that makes it, to cfg.out. The output directory is made
    once the first stage has succeeded.

    Outputs other than report.txt (which carries timings) are
    byte-deterministic functions of the input file and the analysis
    knobs.
    """
    if not cfg.input:
        raise ConfigError("input", "required for pipeline runs")
    out_dir = Path(cfg.out) if cfg.out else Path(".")
    last = {name: stage for stage in STAGES for name in stage.writes}
    values: dict[str, Any] = {"input": cfg.input}
    timings = []
    for stage in STAGES:
        start = time.perf_counter()
        stage.step(cfg, values)
        timings.append(f"{stage.command} {time.perf_counter() - start:.3f}s")
        stage.save(values, out_dir, [name for name in stage.writes if last[name] is stage])

    doc, noise, patterns = values["rules"], values["noise"], values["patterns"]
    lines = [
        f"input events: {values['events_in']} (rejected lines: {len(values['rejects'])})",
        f"after preprocess: {len(values['events'])} events "
        f"(coalesced away: {values['coalesced_away']}, blacklist: {noise.blacklist_dropped}, "
        f"rate-dropped: {noise.rate_dropped})",
    ]
    if noise.rate_check_skipped:
        lines.append("rate check skipped: zero trace duration")
    lines.append(f"rules: {len(doc.rules)}")
    lines.extend(_top_rules(list(doc.rules.values()), doc.templates))
    lines.append(f"instances: {len(values['instances'])}")
    lines.append(f"window graphs: {len(values['graphs'])}")
    lines.append(f"patterns: {len(patterns)}")
    lines.extend(_top_patterns(patterns))
    lines.append("timings: " + ", ".join(timings))
    report = "\n".join(lines) + "\n"
    (out_dir / "report.txt").write_text(report, encoding="utf-8")

    return PipelineResult(values["kb"], report, values["events_in"], len(values["rejects"]))
