"""Serial episode mining over a single dimension's event stream.

Support counts sliding windows: an episode's support is the fraction of
all windows of width W (on the granularity grid) that contain at least
one ordered occurrence of its template sequence. Rules are episodes read
as prefix-implies-last, and instances are the minimal occurrences of a
rule's full sequence. Support and instances both come from one scan,
`_occurrences`, so counting costs O(events x length), not O(ticks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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


@dataclass(frozen=True)
class RuleInstance:
    """One minimal occurrence of a rule; `anchor` is the completion time."""

    rule_id: int
    dim: Dimension
    anchor: float
    span: tuple[float, float]
    node: str


def _window_ticks(window: float, granularity: float) -> int:
    if granularity <= 0:
        raise ValueError("granularity must be > 0")
    w = window / granularity
    w_ticks = round(w)
    if w_ticks < 1 or abs(w - w_ticks) > 1e-9:
        raise ValueError("window must be a positive integer multiple of granularity")
    return w_ticks


def _occurrences(
    seq: Sequence[int], events: Sequence[CanonicalEvent]
) -> list[tuple[float, float, str]]:
    """Occurrences of `seq` that raise the latest start, in stream order.

    best[i] is the latest start timestamp of an occurrence of seq[:i]
    among the events seen so far. Each event that completes `seq` with a
    later start than any before yields (start, end, node), so starts
    strictly increase and ends never decrease along the list. Every
    other occurrence contains one of these: same or later end, same or
    earlier start.
    """
    k = len(seq)
    if k == 0:
        raise ValueError("sequence must be non-empty")
    best = [float("-inf")] * (k + 1)
    out: list[tuple[float, float, str]] = []
    for ev in events:
        for i in range(k, 0, -1):
            if seq[i - 1] != ev.template:
                continue
            cand = ev.ts if i == 1 else best[i - 1]
            if cand > best[i]:
                best[i] = cand
                if i == k:
                    out.append((cand, ev.ts, ev.node))
    return out


def _support_counter(
    events: Sequence[CanonicalEvent], window: float, granularity: float
) -> Callable[[Sequence[int]], float]:
    """Window support of label sequences over a fixed stream.

    Timestamps are quantized to ticks of `granularity` seconds. Windows
    are the half-open tick ranges [t, t + W) for every integer t from
    t_min - W + 1 through t_max, which is exactly the set of windows
    intersecting the trace; their number is t_max - t_min + W. An
    occurrence from tick s to tick e lies in exactly the windows whose
    start is in [e - W + 1, s], so the covered windows are the union of
    those ranges over `_occurrences`, one running-maximum pass since
    both ends never decrease.
    """
    if not events:
        raise EmptyDimensionError("no events in dimension")
    w_ticks = _window_ticks(window, granularity)
    t_min = int(events[0].ts // granularity)
    total = int(events[-1].ts // granularity) - t_min + w_ticks

    def support(seq: Sequence[int]) -> float:
        covered = 0
        last = t_min - w_ticks  # highest window start counted so far
        for s, e, _ in _occurrences(seq, events):
            hi = int(s // granularity)
            lo = max(int(e // granularity) - w_ticks + 1, last + 1)
            if hi >= lo:
                covered += hi - lo + 1
                last = hi
        return covered / total

    return support


def count_window_support(
    labels: Sequence[int],
    events: Sequence[CanonicalEvent],
    window: float,
    granularity: float = 1.0,
) -> float:
    """Fraction of sliding windows containing `labels` as an ordered occurrence.

    `events` must be one dimension's slice of the canonical stream, sorted.
    """
    return _support_counter(events, window, granularity)(labels)


def mine_episodes(
    events: Sequence[CanonicalEvent],
    window: float,
    min_sup: float,
    k_max: int = 4,
    granularity: float = 1.0,
) -> list[Episode]:
    """Level-wise mining of frequent serial episodes up to length `k_max`.

    Candidates of length k+1 join frequent episodes whose labels overlap
    on k-1 elements (a[1:] == b[:-1]), which is complete because window
    support is anti-monotone under subsequences. Output is sorted by
    (length, labels) and closed under prefixes.
    """
    if not 0 < min_sup <= 1:
        raise ValueError("min_sup must be in (0, 1]")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    support = _support_counter(events, window, granularity)
    dim = events[0].dim

    episodes: list[Episode] = []
    seen = sorted({ev.template for ev in events})
    frequent: list[tuple[int, ...]] = []
    supports: dict[tuple[int, ...], float] = {}
    for label in seen:
        seq = (label,)
        sup = support(seq)
        if sup >= min_sup:
            frequent.append(seq)
            supports[seq] = sup

    level = list(frequent)
    while level and len(level[0]) < k_max:
        candidates = sorted(
            {a + (b[-1],) for a in level for b in level if a[1:] == b[:-1]}
        )
        nxt: list[tuple[int, ...]] = []
        for seq in candidates:
            sup = support(seq)
            if sup >= min_sup:
                nxt.append(seq)
                supports[seq] = sup
        frequent.extend(nxt)
        level = nxt

    for seq in frequent:
        episodes.append(Episode(seq, dim, supports[seq]))
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
    rule: SequenceRule, events: Sequence[CanonicalEvent], window: float
) -> list[RuleInstance]:
    """Locate the minimal occurrences of the rule's full label sequence.

    An occurrence interval [s, e] is minimal when no proper sub-interval
    also contains an occurrence; minimal intervals never nest, so the
    instances come out with strictly increasing anchors. Occurrences
    wider than `window` seconds (raw timestamps, inclusive) are dropped.
    The instance's node is the node of the event completing the match.
    """
    minimal: list[tuple[float, float, str]] = []
    for s, e, node in _occurrences(rule.full_labels, events):
        if minimal and minimal[-1][1] == e:
            minimal[-1] = (s, e, node)
        else:
            minimal.append((s, e, node))

    return [
        RuleInstance(rule.rule_id, rule.dim, anchor=e, span=(s, e), node=node)
        for s, e, node in minimal
        if e - s <= window
    ]
