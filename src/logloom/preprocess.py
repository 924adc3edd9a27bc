"""Stream cleanup: repeat coalescing and noise removal."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

from .ingest import CanonicalEvent


@dataclass
class NoiseReport:
    blacklist_dropped: int = 0
    rate_dropped: int = 0
    rate_check_skipped: bool = False
    noisy_streams: tuple[tuple[str, int], ...] = ()

    def render(self) -> str:
        lines = [
            f"noise/blacklist: dropped {self.blacklist_dropped} events",
            f"noise/rate: dropped {self.rate_dropped} events"
            f" across {len(self.noisy_streams)} streams",
        ]
        if self.rate_check_skipped:
            lines.append("noise/rate: skipped (zero trace duration)")
        return "\n".join(lines)


def coalesce(events: Sequence[CanonicalEvent], gap: float) -> list[CanonicalEvent]:
    """Merge bursts of identical events into their first occurrence.

    Within each (node, dim, template) stream, an event lands on the last
    kept representative when their gap is at most `gap` seconds, which
    must be > 0; the representative accumulates the merged repeat counts.
    Gaps are measured against the kept event, not the previous raw event,
    so a slow drizzle cannot chain into one giant merge. Requires `events`
    globally sorted; output order is preserved.
    """
    if gap <= 0:
        raise ValueError("gap must be > 0")
    kept: list[CanonicalEvent] = []
    last_kept: dict[tuple[str, int, int], int] = {}
    for ev in events:
        key = (ev.node, ev.dim.rank, ev.template)
        idx = last_kept.get(key)
        if idx is not None and ev.ts - kept[idx].ts <= gap:
            rep = kept[idx]
            kept[idx] = CanonicalEvent(
                rep.ts, rep.node, rep.dim, rep.template, rep.count + ev.count
            )
        else:
            last_kept[key] = len(kept)
            kept.append(ev)
    return kept


def filter_noise(
    events: Sequence[CanonicalEvent], blacklist: Collection[int], max_rate: float | None
) -> tuple[list[CanonicalEvent], NoiseReport]:
    """Drop templates in `blacklist`, then entire streams that run too hot.

    A stream is one (node, template) pair; its rate is the sum of repeat
    counts divided by the surviving trace duration in hours, so
    coalescing beforehand does not hide a chatty stream. The rate rule
    is all-or-nothing: a stream over `max_rate` events per hour, which
    must be > 0, loses every event; None disables the rule.
    Removal repeats until stable, because dropping the streams that
    bracket the trace shrinks the duration and can push further streams
    over the ceiling; the fixpoint makes the whole operation idempotent.
    With fewer than two distinct timestamps the duration is zero and the
    rate check is skipped (flagged in the report).
    """
    if max_rate is not None and max_rate <= 0:
        raise ValueError("max_rate must be > 0")
    report = NoiseReport()
    blocked = frozenset(blacklist)
    kept = [ev for ev in events if ev.template not in blocked]
    report.blacklist_dropped = len(events) - len(kept)

    if max_rate is None:
        return kept, report

    if not kept or kept[-1].ts <= kept[0].ts:
        report.rate_check_skipped = True
        return kept, report

    noisy: set[tuple[str, int]] = set()
    while kept and kept[-1].ts > kept[0].ts:
        duration_h = (kept[-1].ts - kept[0].ts) / 3600.0
        totals: dict[tuple[str, int], int] = {}
        for ev in kept:
            key = (ev.node, ev.template)
            totals[key] = totals.get(key, 0) + ev.count
        over = {key for key, total in totals.items() if total / duration_h > max_rate}
        if not over:
            break
        noisy |= over
        kept = [ev for ev in kept if (ev.node, ev.template) not in over]

    report.rate_dropped = len(events) - report.blacklist_dropped - len(kept)
    report.noisy_streams = tuple(sorted(noisy))
    return kept, report
