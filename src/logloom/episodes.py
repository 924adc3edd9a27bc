"""Serial episode mining over a single dimension's event stream.

Support counts sliding windows: an episode's support is the fraction of
all windows of width W (on the granularity grid) that contain at least
one ordered occurrence of its template sequence. Rules are episodes read
as prefix-implies-last, and instances are the minimal occurrences of a
rule's full sequence. Support and instances both come from one scan,
`_completions`, which walks the stream once for many sequences: a whole
candidate level per pass when mining (after Mannila, Toivonen &
Verkamo, DMKD 1997), and all of a dimension's rules per pass when
finding instances. A pass costs events times slots per template, not
O(ticks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .ingest import CanonicalEvent, Dimension


class EmptyDimensionError(Exception):
    """Raised when asked to mine a dimension with no events."""


class InternalConsistencyError(Exception):
    """Raised when an episode set violates prefix closure."""


@dataclass(frozen=True)
class Episode:
    labels: tuple[int, ...]
    dim: Dimension
    support: float


@dataclass(frozen=True)
class SequenceRule:
    """Ordered implication antecedent => consequent within one dimension."""

    rule_id: int
    dim: Dimension
    antecedent: tuple[int, ...]
    consequent: int
    support: float
    confidence: float

    @property
    def full_labels(self) -> tuple[int, ...]:
        return self.antecedent + (self.consequent,)

    @property
    def label(self) -> tuple[Dimension, int]:
        return (self.dim, self.rule_id)


@dataclass(frozen=True, slots=True)
class RuleInstance:
    """One minimal occurrence of a rule; `anchor` is the completion time."""

    rule_id: int
    dim: Dimension
    anchor: float
    span: tuple[float, float]
    node: str


# A trusted constructor for `find_instances`, as in `ingest`: each slot is
# set through its member descriptor, which skips the frozen `__setattr__`.
_new = object.__new__
_set_rule_id = RuleInstance.rule_id.__set__
_set_dim = RuleInstance.dim.__set__
_set_anchor = RuleInstance.anchor.__set__
_set_span = RuleInstance.span.__set__
_set_node = RuleInstance.node.__set__


def _rule_instance(
    rule_id: int, dim: Dimension, anchor: float, span: tuple[float, float], node: str
) -> RuleInstance:
    """`RuleInstance(rule_id, dim, anchor, span, node)`."""
    inst = _new(RuleInstance)
    _set_rule_id(inst, rule_id)
    _set_dim(inst, dim)
    _set_anchor(inst, anchor)
    _set_span(inst, span)
    _set_node(inst, node)
    return inst


def _window_ticks(window: float, granularity: float) -> int:
    if granularity <= 0:
        raise ValueError("granularity must be > 0")
    w = window / granularity
    w_ticks = round(w)
    if w_ticks < 1 or abs(w - w_ticks) > 1e-9:
        raise ValueError("window must be a positive integer multiple of granularity")
    return w_ticks


def _completions(
    sequences: Sequence[Sequence[int]], events: Iterable[CanonicalEvent]
) -> Iterator[tuple[int, float, float, str]]:
    """Occurrences of many sequences that raise their latest start, in one pass.

    The slot of sequence i at position p holds the latest start
    timestamp of an occurrence of sequences[i][:p + 1] among the events
    seen so far. Each template indexes its slots, a sequence's positions
    in descending order so that a repeated label reads the state from
    before this event. Each event that completes sequence i with a later
    start than any before yields (i, start, end, node), so per sequence
    starts strictly increase and ends never decrease. Every other
    occurrence contains one of these: same or later end, same or earlier
    start. The cost is events times slots per template.
    """
    best: list[float] = []
    slots: dict[int, list[tuple[int, int, int]]] = {}
    for i, seq in enumerate(sequences):
        k = len(seq)
        if k == 0:
            raise ValueError("sequence must be non-empty")
        base = len(best)
        best.extend([float("-inf")] * k)
        for p in range(k - 1, -1, -1):
            # (state slot, slot of the prefix one shorter or -1, sequence
            # completed here or -1)
            slots.setdefault(seq[p], []).append(
                (base + p, base + p - 1 if p else -1, i if p == k - 1 else -1)
            )
    for ev in events:
        for cur, prev, done in slots.get(ev.template, ()):
            cand = ev.ts if prev < 0 else best[prev]
            if cand > best[cur]:
                best[cur] = cand
                if done >= 0:
                    yield done, cand, ev.ts, ev.node


def _label_completions(
    events: Iterable[CanonicalEvent],
) -> Iterator[tuple[int, float, float, str]]:
    """`_completions` of every one-label sequence, keyed by the label:
    each event later than the last one of its template."""
    latest: dict[int, float] = {}
    for ev in events:
        if ev.ts > latest.get(ev.template, float("-inf")):
            latest[ev.template] = ev.ts
            yield ev.template, ev.ts, ev.ts, ev.node


def _support_counter(
    events: Sequence[CanonicalEvent], window: float, granularity: float
) -> Callable[[Iterable[tuple[int, float, float, str]]], dict[int, float]]:
    """Window supports over a fixed stream, from a pass of completions.

    Timestamps are quantized to ticks of `granularity` seconds. Windows
    are the half-open tick ranges [t, t + W) for every integer t from
    t_min - W + 1 through t_max, which is exactly the set of windows
    intersecting the trace; their number is t_max - t_min + W. An
    occurrence from tick s to tick e lies in exactly the windows whose
    start is in [e - W + 1, s], so a sequence's covered windows are the
    union of those ranges over its completions, one running maximum per
    sequence since both ends never decrease. The returned function
    counts every sequence of one pass at once, so a whole candidate
    level costs one pass over the stream, of events times slots per
    template; sequences that cover no window are left out of its result.
    """
    if not events:
        raise EmptyDimensionError("no events in dimension")
    w_ticks = _window_ticks(window, granularity)
    t_min = int(events[0].ts // granularity)
    total = int(events[-1].ts // granularity) - t_min + w_ticks
    floor = t_min - w_ticks

    def supports(
        completions: Iterable[tuple[int, float, float, str]],
    ) -> dict[int, float]:
        covered: dict[int, int] = {}
        last: dict[int, int] = {}  # highest window start counted so far
        for key, s, e, _ in completions:
            hi = int(s // granularity)
            lo = max(int(e // granularity) - w_ticks + 1, last.get(key, floor) + 1)
            if hi >= lo:
                covered[key] = covered.get(key, 0) + hi - lo + 1
                last[key] = hi
        return {key: c / total for key, c in covered.items()}

    return supports


def mine_episodes(
    events: Sequence[CanonicalEvent],
    window: float,
    min_sup: float,
    k_max: int,
    granularity: float,
) -> list[Episode]:
    """Level-wise mining of frequent serial episodes up to length `k_max`.

    Candidates of length k+1 join frequent episodes whose labels overlap
    on k-1 elements (a[1:] == b[:-1]), which is complete because window
    support is anti-monotone under subsequences. Each level, the first
    included, is counted in one pass over `events`. Output is sorted by
    (length, labels) and closed under prefixes.
    """
    if not 0 < min_sup <= 1:
        raise ValueError("min_sup must be in (0, 1]")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    supports = _support_counter(events, window, granularity)
    dim = events[0].dim

    frequent: dict[tuple[int, ...], float] = {
        (label,): sup
        for label, sup in supports(_label_completions(events)).items()
        if sup >= min_sup
    }
    level = list(frequent)
    while level and len(level[0]) < k_max:
        candidates = sorted(
            {a + (b[-1],) for a in level for b in level if a[1:] == b[:-1]}
        )
        found = supports(_completions(candidates, events))
        level = []
        for i, seq in enumerate(candidates):
            sup = found.get(i, 0.0)
            if sup >= min_sup:
                level.append(seq)
                frequent[seq] = sup

    episodes = [Episode(seq, dim, sup) for seq, sup in frequent.items()]
    episodes.sort(key=lambda e: (len(e.labels), e.labels))
    return episodes


def derive_rules(episodes: Iterable[Episode], min_conf: float) -> list[SequenceRule]:
    """Turn episodes into rules: prefix implies last label.

    Single-label episodes become atomic rules with empty antecedent and
    confidence 1.0. Composite confidence is support(full) over
    support(prefix); the prefix episode must be present (mine_episodes
    guarantees prefix closure). Rules below `min_conf` are dropped and
    ids number the surviving rules in output order.
    """
    if not 0 <= min_conf <= 1:
        raise ValueError("min_conf must be in [0, 1]")
    ordered = sorted(episodes, key=lambda e: (len(e.labels), e.labels))
    sup_by_labels = {e.labels: e.support for e in ordered}
    rules: list[SequenceRule] = []
    for ep in ordered:
        if len(ep.labels) == 1:
            confidence = 1.0
        else:
            prefix = ep.labels[:-1]
            if prefix not in sup_by_labels:
                raise InternalConsistencyError(f"episode set lacks prefix {prefix}")
            confidence = ep.support / sup_by_labels[prefix]
        if confidence < min_conf:
            continue
        rules.append(
            SequenceRule(
                rule_id=len(rules),
                dim=ep.dim,
                antecedent=ep.labels[:-1],
                consequent=ep.labels[-1],
                support=ep.support,
                confidence=confidence,
            )
        )
    return rules


def find_instances(
    rules: Sequence[SequenceRule], events: Iterable[CanonicalEvent], window: float
) -> list[RuleInstance]:
    """Locate the minimal occurrences of each rule's full label sequence.

    `rules` are one dimension's rules and `events` that dimension's
    stream; one pass over the stream serves every rule. An occurrence
    interval [s, e] is minimal when no proper sub-interval also contains
    an occurrence; minimal intervals never nest, so each rule's
    instances come out with strictly increasing anchors. Occurrences
    wider than `window` seconds (raw timestamps, inclusive) are dropped.
    The instance's node is the node of the event completing the match.
    The result lists the instances rule by rule, in the order of `rules`.
    """
    minimal: list[list[tuple[float, float, str]]] = [[] for _ in rules]
    for i, s, e, node in _completions([rule.full_labels for rule in rules], events):
        found = minimal[i]
        if found and found[-1][1] == e:
            found[-1] = (s, e, node)
        else:
            found.append((s, e, node))

    return [
        _rule_instance(rule.rule_id, rule.dim, e, (s, e), node)
        for rule, found in zip(rules, minimal)
        for s, e, node in found
        if e - s <= window
    ]
