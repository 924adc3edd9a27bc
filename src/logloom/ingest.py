"""Log ingestion: parsing, template extraction, canonical event streams."""

from __future__ import annotations

import csv
import json
import json.scanner
import math
import re
from dataclasses import dataclass
from itertools import compress, count, islice
from operator import attrgetter, eq
from pathlib import Path
from typing import IO, Iterable, Iterator

from .dims import _DIM_BY_VALUE, Dimension, dimension


@dataclass(frozen=True, slots=True, init=False)
class LogRecord:
    """One raw log line: timestamp, emitting node, optional dimension, message."""

    ts: float
    node: str
    dim: Dimension | None
    msg: str

    def __init__(self, ts: float, node: str, dim: Dimension | None, msg: str) -> None:
        if ts < 0:
            raise ValueError("ts must be >= 0")
        if not node:
            raise ValueError("node must be non-empty")
        _set_record_ts(self, ts)
        _set_record_node(self, node)
        _set_record_dim(self, dim)
        _set_record_msg(self, msg)


@dataclass(frozen=True, slots=True, init=False)
class CanonicalEvent:
    """A record after template extraction; `count` tracks coalesced repeats."""

    ts: float
    node: str
    dim: Dimension
    template: int
    count: int = 1

    def __init__(
        self, ts: float, node: str, dim: Dimension, template: int, count: int = 1
    ) -> None:
        if count < 1:
            raise ValueError("count must be >= 1")
        _set_event_ts(self, ts)
        _set_event_node(self, node)
        _set_event_dim(self, dim)
        _set_event_template(self, template)
        _set_event_count(self, count)

    @property
    def sort_key(self) -> tuple[float, str, int, int]:
        return (self.ts, self.node, self.dim.rank, self.template)


# Records are built in bulk, so each `__init__` above runs its checks and
# then sets each slot through its member descriptor, which skips the
# frozen `__setattr__` a generated `__init__` calls. The descriptors are
# read off the decorated classes, because `slots=True` returns a new class.
_set_record_ts = LogRecord.ts.__set__
_set_record_node = LogRecord.node.__set__
_set_record_dim = LogRecord.dim.__set__
_set_record_msg = LogRecord.msg.__set__
_set_event_ts = CanonicalEvent.ts.__set__
_set_event_node = CanonicalEvent.node.__set__
_set_event_dim = CanonicalEvent.dim.__set__
_set_event_template = CanonicalEvent.template.__set__
_set_event_count = CanonicalEvent.count.__set__


@dataclass(frozen=True)
class RejectEntry:
    line_no: int
    reason: str
    raw: str


@dataclass
class ParseResult:
    records: list[LogRecord]
    rejects: list[RejectEntry]


class ParseError(Exception):
    """Raised when an input stream or file as a whole is unusable."""

    def __init__(self, message: str, rejects: list[RejectEntry] | None = None):
        super().__init__(message)
        self.rejects = rejects or []


def read_text(path: str | Path) -> str:
    """The text of the UTF-8 file `path`, with CRLF and CR line ends read
    as LF. Every whole-file read goes through here, so that a file that
    is not UTF-8 is a ParseError naming it, not a UnicodeDecodeError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 (byte {exc.start})") from None


def json_fault(exc: ValueError | RecursionError) -> str:
    """Why `json.loads` failed: a JSONDecodeError's message without its
    position, else the error's text, as for an integer past CPython's
    digit limit or arrays nested past the recursion limit."""
    return exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)


# Masking rules. Templates are as if IP, HEX, PATH and NUM ran in that
# order. HEX runs before NUM, so any word-bounded token of four or more
# hex digits is masked <HEX> even when it happens to be pure decimal.
#
# The code runs PATH first. A PATH match depends only on a `/` and the
# whitespace before it, IP and HEX neither create nor remove whitespace
# or `/`, and <PATH> swallows whatever they would mask inside its token,
# so the result is the same and IP and HEX scan less text.
#
# Each pattern starts with a character class, so the regex engine scans
# ahead to candidate characters instead of trying a match at every
# position. IP and HEX check the character before the match in a
# lookbehind just after that class, and NUM is spelled `\d\d*`, not
# `\d+`, whose leading repeat the engine does not scan ahead for. The
# plainer spellings, with each lookbehind first and NUM as `\d+`, mask
# the same; the tests compare the two chains.
#
# IP, HEX and NUM each have an ASCII-mode twin compiled from the same
# pattern, which the chain runs on ASCII text. On ASCII text `\d`, `\w`
# and `\b` match the same characters in both modes, so the twins mask
# the same, and the engine tests character classes by table lookup.
# PATH has no twin: `\S` differs between the modes on \x1c-\x1f.
_IP = r"\d(?<!\d\d)\d{0,2}(?:\.\d{1,3}){3}(?!\d)"
_HEX = r"[0-9a-fA-F](?<!\w[0-9a-fA-F])(?:(?<=0)[xX][0-9a-fA-F]{4,}\b|[0-9a-fA-F]{3,}\b)"
_NUM = r"\d\d*"
_IP_RE, _IP_ASCII_RE = re.compile(_IP), re.compile(_IP, re.ASCII)
_HEX_RE, _HEX_ASCII_RE = re.compile(_HEX), re.compile(_HEX, re.ASCII)
_NUM_RE, _NUM_ASCII_RE = re.compile(_NUM), re.compile(_NUM, re.ASCII)
_PATH_RE = re.compile(r"/(?<!\S/)\S*")

EMPTY_TEMPLATE = "<EMPTY>"

# Messages masked by one pass of the chain in `canonicalize`. Small
# chunks keep the joined text, and so peak memory, small.
_CHUNK = 512


def _mask_chain(text: str) -> str:
    text = _PATH_RE.sub("<PATH>", text)
    if text.isascii():
        text = _IP_ASCII_RE.sub("<IP>", text)
        text = _HEX_ASCII_RE.sub("<HEX>", text)
        return _NUM_ASCII_RE.sub("<NUM>", text)
    text = _IP_RE.sub("<IP>", text)
    text = _HEX_RE.sub("<HEX>", text)
    return _NUM_RE.sub("<NUM>", text)


def mask_message(msg: str) -> str:
    """Replace volatile fields with placeholder tokens.

    Masking is idempotent: placeholders contain no digits, no slashes and
    no hex-digit runs, so a second pass leaves the string unchanged.
    """
    if msg == "":
        return EMPTY_TEMPLATE
    return _mask_chain(msg)


def _mask_messages(msgs: list[str]) -> list[str]:
    """`[mask_message(m) for m in msgs]`, by one pass of the chain.

    A newline is a string boundary to every mask and no mask matches
    across one, so masking the messages joined by newlines and splitting
    the result masks each message on its own. When a message holds a
    newline itself, the split count tells, and each is masked alone.
    """
    masked = _mask_chain("\n".join(msgs)).split("\n")
    if len(masked) != len(msgs):
        return [mask_message(msg) for msg in msgs]
    return [text or EMPTY_TEMPLATE for text in masked]


class TemplateTable:
    """Bidirectional map between masked message strings and dense integer ids.

    Ids are assigned in first-seen order and stay contiguous from 0.
    """

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._masked: list[str] = []

    def __len__(self) -> int:
        return len(self._masked)

    def __iter__(self) -> Iterator[str]:
        return iter(self._masked)

    def id_for(self, masked: str) -> int:
        """Return the id for `masked`, assigning the next id if unseen."""
        tid = self._ids.get(masked)
        if tid is None:
            tid = len(self._masked)
            self._ids[masked] = tid
            self._masked.append(masked)
        return tid

    def get(self, masked: str) -> int | None:
        return self._ids.get(masked)

    def masked_for(self, template_id: int) -> str:
        if not 0 <= template_id < len(self._masked):
            raise KeyError(template_id)
        return self._masked[template_id]

    def items(self) -> Iterator[tuple[int, str]]:
        return enumerate(self._masked)

    def save(self, path: str | Path) -> None:
        lines = [f"{tid}\t{_escape(masked)}\n" for tid, masked in self.items()]
        Path(path).write_text("".join(lines), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "TemplateTable":
        table = cls()
        text = read_text(path)
        # `_escape` leaves no newline in a template, but other characters
        # that str.splitlines splits on, such as \x1c, stay as they are
        for line_no, line in enumerate(text.split("\n"), start=1):
            if not line:
                continue
            tid_str, sep, payload = line.partition("\t")
            if not sep:
                raise ParseError(f"{path}: line {line_no}: missing tab")
            if tid_str != str(len(table)):
                raise ParseError(f"{path}: line {line_no}: {tid_str!r} is not id {len(table)}")
            masked = _unescape(payload)
            earlier = table.get(masked)
            if earlier is not None:
                raise ParseError(f"{path}: line {line_no}: repeats template {earlier}")
            table.id_for(masked)
        return table

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[int, str]]) -> "TemplateTable":
        table = cls()
        for tid, masked in rows:
            if tid != len(table._masked):
                raise ValueError("template ids must be contiguous from 0")
            earlier = table.get(masked)
            if earlier is not None:
                raise ValueError(f"template {tid} repeats template {earlier}")
            table.id_for(masked)
        return table


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")


def _unescape(s: str) -> str:
    out: list[str] = []
    it = iter(s)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, "")
        out.append({"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}.get(nxt, nxt))
    return "".join(out)


def parse_lines(
    stream: IO[str] | IO[bytes] | Iterable[str],
    fmt: str = "jsonl",
    dim_default: Dimension | None = None,
) -> ParseResult:
    """Parse a JSON Lines or CSV stream into log records.

    Malformed lines become reject entries with the line number and reason.
    If more than half of all non-blank lines are rejected the stream is
    considered unusable and ParseError is raised.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format: {fmt!r}")
    result = FORMATS[fmt](stream, dim_default)
    total = len(result.records) + len(result.rejects)
    if total and len(result.rejects) * 2 > total:
        raise ParseError(
            f"rejected {len(result.rejects)} of {total} lines", result.rejects
        )
    return result


def _decode_lines(stream: IO[str] | IO[bytes] | Iterable[str]) -> Iterator[tuple[int, str | None]]:
    """Yield (line_no, text) pairs; text is None for undecodable bytes."""
    for line_no, line in enumerate(stream, start=1):
        if isinstance(line, bytes):
            try:
                yield line_no, line.decode("utf-8")
            except UnicodeDecodeError:
                yield line_no, None
        else:
            yield line_no, line


_scan_json = json.scanner.make_scanner(json.JSONDecoder())


def decode_json_line(text: str) -> object:
    """The value of the JSON text `text`, exactly as `json.loads(text)`.

    The common line, one JSON value with nothing around it, goes straight
    to the JSON scanner. A line the scanner does not consume whole, such
    as one with surrounding whitespace, a byte-order mark, extra data or
    a syntax error, goes to `json.loads`, so results and error messages
    are its own.
    """
    try:
        value, end = _scan_json(text, 0)
    except (StopIteration, ValueError):
        return json.loads(text)
    return value if end == len(text) else json.loads(text)


def _parse_jsonl(stream, dim_default: Dimension | None) -> ParseResult:
    """Records and rejects of a JSON Lines stream.

    A line the JSON scanner consumes whole into an object with a float
    `ts` in [0, inf), a non-empty string `node`, a string `msg` and a
    `dim` naming a member is a record as it stands, checked inline.
    Every other line goes through `decode_json_line` and
    `_record_from_fields`, which give its record or its reject.
    """
    records: list[LogRecord] = []
    rejects: list[RejectEntry] = []
    nodes: dict[str, str] = {}
    dims = _DIM_BY_VALUE
    for line_no, line in _decode_lines(stream):
        if line is None:
            rejects.append(RejectEntry(line_no, "not valid UTF-8", "<binary>"))
            continue
        text = line.strip()
        if not text:
            continue
        try:
            obj, end = _scan_json(text, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end == len(text) and type(obj) is dict:
            ts, node, msg, dim = obj.get("ts"), obj.get("node"), obj.get("msg"), obj.get("dim")
            if (
                type(ts) is float and 0.0 <= ts < math.inf
                and type(node) is str and node and type(msg) is str
                and type(dim) is str and dim in dims
            ):
                records.append(LogRecord(ts, nodes.setdefault(node, node), dims[dim], msg))
                continue
        try:
            obj = decode_json_line(text)
        except (ValueError, RecursionError) as exc:
            rejects.append(RejectEntry(line_no, f"invalid JSON: {json_fault(exc)}", text))
            continue
        record, reason = _record_from_fields(obj, dim_default, nodes)
        if record is None:
            rejects.append(RejectEntry(line_no, reason, text))
        else:
            records.append(record)
    return ParseResult(records, rejects)


def _parse_csv(stream, dim_default: Dimension | None) -> ParseResult:
    lines: list[str] = []
    rejects: list[RejectEntry] = []
    for line_no, line in _decode_lines(stream):
        if line is None:
            rejects.append(RejectEntry(line_no, "not valid UTF-8", "<binary>"))
            lines.append("")
            continue
        lines.append(line.rstrip("\r\n"))
    reader = csv.DictReader(lines)
    try:
        header = reader.fieldnames
    except csv.Error as exc:
        raise ParseError(f"csv header is unreadable: {exc}") from None
    if header is not None:
        missing = {"ts", "node", "msg"} - set(header)
        if missing:
            raise ParseError(f"csv header lacks required columns: {sorted(missing)}")
    records: list[LogRecord] = []
    nodes: dict[str, str] = {}
    while True:
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            # The reader goes on at the next line. `reader.line_num` is
            # still the last good row's, so read the line from the parser.
            line_no = reader.reader.line_num
            rejects.append(RejectEntry(line_no, f"invalid CSV: {exc}", lines[line_no - 1]))
            continue
        line_no = reader.line_num
        raw = ",".join(v for v in row.values() if isinstance(v, str))
        fields = {k: v for k, v in row.items() if k is not None and v is not None}
        record, reason = _record_from_fields(fields, dim_default, nodes)
        if record is None:
            rejects.append(RejectEntry(line_no, reason, raw))
        else:
            records.append(record)
    return ParseResult(records, rejects)


FORMATS = {"jsonl": _parse_jsonl, "csv": _parse_csv}


def _record_from_fields(
    obj: object, dim_default: Dimension | None, nodes: dict[str, str]
) -> tuple[LogRecord | None, str]:
    """The record of one parsed line, or None and the reason it is rejected.

    `nodes` holds the first string of each node name the parse has seen,
    so that all records of one node share one string.
    """
    if not isinstance(obj, dict):
        return None, "record must be an object"
    for key in ("ts", "node", "msg"):
        if key not in obj:
            return None, f"missing field: {key}"
    ts = obj["ts"]
    if isinstance(ts, str):
        try:
            ts = float(ts)
        except ValueError:
            return None, "ts must be a number"
    if isinstance(ts, bool) or not isinstance(ts, (int, float)):
        return None, "ts must be a number"
    if not math.isfinite(ts) or ts < 0:
        return None, "ts must be a finite number >= 0"
    node = obj["node"]
    if not isinstance(node, str) or not node:
        return None, "node must be a non-empty string"
    msg = obj["msg"]
    if not isinstance(msg, str):
        return None, "msg must be a string"
    dim: Dimension
    raw_dim = obj.get("dim")
    if raw_dim is None or raw_dim == "":
        if dim_default is None:
            return None, "record has no dimension"
        dim = dim_default
    else:
        try:
            dim = dimension(raw_dim)
        except ValueError:
            return None, f"unknown dimension: {raw_dim!r}"
    return LogRecord(float(ts), nodes.setdefault(node, node), dim, msg), ""


_event_ts = attrgetter("ts")
_event_sort_key = attrgetter("sort_key")


def _sort_events(events: list[CanonicalEvent]) -> None:
    """`events.sort(key=lambda e: e.sort_key)`, without a key tuple per event.

    Both sorts are stable, so sorting by `ts` and then each run of equal
    `ts` by the whole key gives the same order as one sort by the whole
    key. Only events in such runs build their key.
    """
    events.sort(key=_event_ts)
    times = list(map(_event_ts, events))
    runs: list[list[int]] = []
    # each position whose event has the `ts` of the one before it
    for i in compress(count(1), map(eq, times, islice(times, 1, None))):
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i - 1, i + 1])
    for lo, hi in runs:
        events[lo:hi] = sorted(events[lo:hi], key=_event_sort_key)


def canonicalize(
    records: Iterable[LogRecord], table: TemplateTable
) -> tuple[list[CanonicalEvent], list[RejectEntry]]:
    """Assign templates and produce the globally sorted canonical stream.

    Records without a dimension are rejected, numbered by their 1-based
    position in `records`, not by file line; they claim no template
    ids. `parse_lines` applies the default dimension. The sort key
    (ts, node, dim, template) is a total order, so the output is
    independent of input order.
    """
    events: list[CanonicalEvent] = []
    rejects: list[RejectEntry] = []
    id_for = table.id_for
    records = iter(records)
    pos = 0
    while chunk := list(islice(records, _CHUNK)):
        kept = [r for r in chunk if r.dim is not None]
        if len(kept) < len(chunk):
            rejects += [
                RejectEntry(pos + i, "record has no dimension", record.msg)
                for i, record in enumerate(chunk, start=1)
                if record.dim is None
            ]
        pos += len(chunk)
        masked = _mask_messages([record.msg for record in kept])
        # one id_for per distinct text, in first-seen order
        tid = {text: id_for(text) for text in dict.fromkeys(masked)}
        events += [
            CanonicalEvent(record.ts, record.node, record.dim, tid[text])
            for record, text in zip(kept, masked)
        ]
    _sort_events(events)
    return events, rejects
