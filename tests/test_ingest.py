import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from _oracles import reference_canonicalize, reference_mask, reference_parse_jsonl
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logloom import (
    CanonicalEvent,
    Dimension,
    LogRecord,
    ParseError,
    SchemaError,
    TemplateTable,
    canonicalize,
    mask_message,
    parse_lines,
)
from logloom import ingest
from logloom.ingest import _CHUNK, _canonical_event, _log_record, decode_json_line
from logloom.pipeline import read_events

# Messages built from pieces at the edges of the four masks: hex runs
# with and without a 0x prefix, dotted quads, path starts, placeholder
# brackets, whitespace, a non-ASCII letter and a non-ASCII digit.
_MASK_PIECES = st.one_of(
    st.sampled_from(list("0123456789abcdefABCDEFxXgG./_<> \t") + ["é", "٣"]),
    st.tuples(
        st.sampled_from(["", "0", "0x", "0X"]),
        st.text("0123456789abcdefABCDEF٣", min_size=1, max_size=7),
    ).map("".join),
    st.sampled_from(["1.2.3.4", "255.255.0.10", "1.2.3", "/var/run", " /", "decade"]),
)
_MASK_MESSAGES = st.lists(_MASK_PIECES, max_size=12).map("".join)

# Messages at the edges of masking a chunk of them joined by newlines:
# newlines inside a message, the empty message, the separators that
# str.splitlines also splits on, a non-ASCII digit and a lone surrogate.
_CHUNK_MESSAGES = st.one_of(
    _MASK_MESSAGES,
    st.lists(
        st.sampled_from(
            ["\n", "\x1c", "\x1d", "\x1e", "\x1f", "٣", "\ud800", " ", "/a", "12", "0xbeef", "1.2.3.4"]
        ),
        max_size=6,
    ).map("".join),
)
# ASCII text at the edges of the masks, with the separators \x1c-\x1f,
# which `\s` matches in Unicode mode only.
_ASCII_TEXT = st.text("0123456789abcdefABCDEFxX_./=:- \x1c\x1d\x1e\x1f", min_size=1, max_size=40)
_RECORDS = st.builds(
    LogRecord,
    ts=st.integers(0, 5).map(float),
    node=st.sampled_from(["a", "b"]),
    dim=st.sampled_from([None, *Dimension]),
    msg=_CHUNK_MESSAGES,
)


class TestDimension:
    def test_declaration_order_not_alphabetical(self):
        ranks = [Dimension.EVENT, Dimension.STATUS, Dimension.COMM, Dimension.RAS]
        assert sorted(Dimension, key=lambda d: d.rank) == ranks
        assert Dimension.STATUS < Dimension.COMM  # alphabetical would flip these

    def test_round_trip_through_value(self):
        for dim in Dimension:
            assert Dimension(str(dim)) is dim


class TestMasking:
    @pytest.mark.parametrize(
        "msg,expected",
        [
            ("link to 10.1.2.3 down", "link to <IP> down"),
            ("addr 0xDEADBEEF fault", "addr <HEX> fault"),
            ("cable f00d dirty", "cable <HEX> dirty"),
            ("read /var/log/messages failed", "read <PATH> failed"),
            ("retry 7 of 12", "retry <NUM> of <NUM>"),
            ("", "<EMPTY>"),
            ("nothing volatile here", "nothing volatile here"),
        ],
    )
    def test_single_rule(self, msg, expected):
        assert mask_message(msg) == expected

    def test_rules_apply_in_order(self):
        # the IP wins over NUM; the hex rule grabs long digit runs before NUM
        assert mask_message("node 10.0.0.1 code 12345 n=7") == "node <IP> code <HEX> n=<NUM>"

    def test_path_not_masked_mid_token(self):
        assert mask_message("ratio a/b fine") == "ratio a/b fine"
        assert mask_message("mount /dev/sda1 ro") == "mount <PATH> ro"

    def test_short_hex_stays(self):
        assert mask_message("bus abc ok") == "bus abc ok"
        # below the hex length cutoff the plain digit rule still applies
        assert mask_message("bus 0xabc ok") == "bus <NUM>xabc ok"

    @given(st.text(max_size=200))
    def test_idempotent(self, msg):
        once = mask_message(msg)
        assert mask_message(once) == once

    @pytest.mark.parametrize(
        "msg,expected",
        [
            ("1.2.3.4abcd", "<IP><HEX>"),
            ("0x12345", "<HEX>"),
            ("a/b /c", "a/b <PATH>"),
            ("a decade ago", "a <HEX> ago"),  # letter-only hex runs are masked too
        ],
    )
    def test_mask_edges(self, msg, expected):
        assert mask_message(msg) == expected == reference_mask(msg)

    @given(_MASK_MESSAGES)
    def test_equals_reference_chain_on_mask_edges(self, msg):
        assert mask_message(msg) == reference_mask(msg)

    @given(st.text(max_size=200))
    # inputs where the order of the masks could matter
    @example("/1.2.3.4")
    @example("1.2.3.4/x")
    @example("abc1.2.3.4")
    @example("x /dead 0x12345")
    @example("a\n/abcd")
    def test_equals_reference_chain(self, msg):
        assert mask_message(msg) == reference_mask(msg)

    @given(_ASCII_TEXT)
    def test_ascii_branch_equals_reference(self, text):
        assert ingest._mask_chain(text) == reference_mask(text)

    @given(_ASCII_TEXT, st.integers(min_value=0), st.sampled_from(["é", "٣", "²", "\u2003", "\x85"]))
    def test_unicode_branch_equals_reference(self, text, at, char):
        """The same text with one non-ASCII character inserted where PATH
        leaves it, so that IP, HEX and NUM run in Unicode mode."""
        at %= len(text) + 1
        text = text[:at] + char + text[at:]
        assume(not ingest._PATH_RE.sub("<PATH>", text).isascii())
        assert ingest._mask_chain(text) == reference_mask(text)


class TestTemplateTable:
    def test_first_seen_contiguous_ids(self):
        table = TemplateTable()
        a = table.id_for(mask_message("fan 1 failed"))
        b = table.id_for(mask_message("fan 2 failed"))
        c = table.id_for(mask_message("disk full"))
        assert (a, b) == (0, 0)  # same mask
        assert c == 1
        assert len(table) == 2
        assert table.masked_for(0) == "fan <NUM> failed"

    def test_unknown_id_raises(self):
        table = TemplateTable()
        with pytest.raises(KeyError):
            table.masked_for(0)

    def test_save_load_round_trip(self, tmp_path):
        table = TemplateTable()
        nasty = ["plain", "with\ttab", "with\nnewline", "back\\slash", "cr\rhere", "<EMPTY>"]
        for m in nasty:
            table.id_for(m)
        path = tmp_path / "templates.tsv"
        table.save(path)
        loaded = TemplateTable.load(path)
        assert list(loaded.items()) == list(table.items())

    @given(st.lists(st.text(), unique=True, max_size=8))
    def test_load_inverts_save(self, masked):
        table = TemplateTable.from_rows(enumerate(masked))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "templates.tsv"
            table.save(path)
            assert list(TemplateTable.load(path).items()) == list(table.items())

    def test_load_keeps_characters_splitlines_splits_on(self, tmp_path):
        table = TemplateTable.from_rows(enumerate(["disk\x1cfull", "a\x0bb\x0cc", "\x85\u2028\u2029"]))
        table.save(tmp_path / "templates.tsv")
        assert list(TemplateTable.load(tmp_path / "templates.tsv")) == list(table)

    def test_load_rejects_gap_in_ids(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\tfoo\n2\tbar\n", encoding="utf-8")
        with pytest.raises(ParseError):
            TemplateTable.load(path)

    def test_load_rejects_non_integer_id(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\tfoo\nx\tbar\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            TemplateTable.load(path)

    def test_load_rejects_repeated_template(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\ta\n1\ta\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2: repeats template 0"):
            TemplateTable.load(path)

    def test_from_rows_requires_contiguity(self):
        with pytest.raises(ValueError):
            TemplateTable.from_rows([(1, "foo")])

    def test_from_rows_rejects_repeated_template(self):
        with pytest.raises(ValueError, match="template 1 repeats template 0"):
            TemplateTable.from_rows([(0, "a"), (1, "a")])


class TestDecodeJsonLine:
    """decode_json_line gives json.loads' value, or its exact error."""

    VALUES = ["[1]", "NaN", ' {"a": 1}', "{}"]
    ERRORS = ["\ufeff{}", "{} x", '{"a": "unterminated']

    @staticmethod
    def _same_as_loads(text):
        try:
            expected = json.loads(text)
        except json.JSONDecodeError as exc:
            with pytest.raises(json.JSONDecodeError) as got:
                decode_json_line(text)
            assert str(got.value) == str(exc)
            return
        value = decode_json_line(text)
        assert type(value) is type(expected)
        assert json.dumps(value) == json.dumps(expected)  # NaN != NaN, its text is equal

    @pytest.mark.parametrize("text", VALUES + ERRORS)
    def test_matches_json_loads(self, text):
        self._same_as_loads(text)

    @pytest.mark.parametrize("text", ERRORS)
    def test_reject_reason_is_json_error_text(self, text):
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads(text)
        good = '{"ts": 1, "node": "a", "dim": "event", "msg": "x"}'
        result = parse_lines(io.StringIO("\n".join([good, text, good])))
        assert [r.reason for r in result.rejects] == [f"invalid JSON: {exc.value.msg}"]

    @pytest.mark.parametrize("text", ERRORS)
    def test_interchange_error_is_json_error_text(self, tmp_path, text):
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads(text)
        path = tmp_path / "events.jsonl"
        path.write_text(text + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            read_events(path)
        assert str(err.value) == f"{path}: line 1: not JSON: {exc.value.msg}"

    @given(
        st.sampled_from(["", " ", "\t", "\ufeff", "x", "[", "\""]),
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=3), inner, max_size=3),
            max_leaves=8,
        ).map(json.dumps),
        st.sampled_from(["", " ", "\t", "x", "]", "}", ",", "1"]),
        st.integers(min_value=0, max_value=3),
    )
    def test_matches_json_loads_on_framed_values(self, prefix, body, suffix, cut):
        """A JSON value with text around it, or with its end cut off."""
        self._same_as_loads(prefix + body[: len(body) - cut] + suffix)


# JSON texts of each field of a log line: valid values, and the
# irregular values the checked path must see.
_VALID_FIELDS = {
    "ts": st.floats(0, 1e9).map(json.dumps),
    "node": st.sampled_from(['"n1"', '"n2"', '"n\\u00e9"']),
    "msg": st.sampled_from(['"disk 7 full"', '"a\\u001cb 0xbeef"', '""', '"\u2028é"']),
    "dim": st.sampled_from(['"event"', '"ras"']),
}
_IRREGULAR_FIELDS = {
    "ts": st.sampled_from(
        ["3", "0", "true", '"2.5"', '"soon"', "NaN", "Infinity", "-0.0", "1e400", "-1.5", "null"]
    ),
    "node": st.sampled_from(['""', "5", "null"]),
    "msg": st.sampled_from(["5", "null"]),
    "dim": st.sampled_from(['""', '"weird"', "5", "null", '["event"]']),
}


@st.composite
def _log_line(draw) -> bytes:
    """A valid row, or one with a field irregular or missing, its fields in
    any order, one of them repeated, text around it; or a line that is no
    object, or no UTF-8."""
    fields = {key: draw(texts) for key, texts in _VALID_FIELDS.items()}
    odd = draw(st.sampled_from([None, *fields]))
    if odd is not None and draw(st.booleans()):
        fields[odd] = draw(_IRREGULAR_FIELDS[odd])
    elif odd is not None:
        del fields[odd]
    pairs = draw(st.permutations(list(fields.items())))
    if not draw(st.integers(0, 5)):
        key = draw(st.sampled_from(pairs))[0]
        pairs.append((key, draw(_VALID_FIELDS[key] | _IRREGULAR_FIELDS[key])))
    body = "{" + ", ".join(f'"{key}": {text}' for key, text in pairs) + "}"
    body = draw(st.sampled_from(["", "", "", " ", "\t", "\x1c", "\ufeff"])) + body
    body += draw(st.sampled_from(["", "", "", " ", "\r", " x"]))
    kind = draw(st.integers(0, 7))
    if kind == 0:
        return b"\xff\xfe{}"
    if kind == 1:
        body = draw(st.sampled_from(["", "  ", "[1]", "7", '"x"', "null", "{", "{} {}", "garbage"]))
    return body.encode("utf-8")


def _parse_outcome(parse, data: bytes, dim_default):
    """Records, by repr so that -0.0 and 0.0 differ, and rejects, or the ParseError."""
    try:
        result = parse(io.BytesIO(data), dim_default=dim_default)
    except ParseError as exc:
        return str(exc), exc.rejects
    return repr(result.records), result.rejects


def _jsonl(*objs):
    return io.StringIO("\n".join(json.dumps(o) for o in objs))


class TestParseJsonl:
    def test_happy_path(self):
        result = parse_lines(
            _jsonl(
                {"ts": 1, "node": "a", "dim": "event", "msg": "boot"},
                {"ts": "2.5", "node": "b", "dim": "ras", "msg": "ecc error"},
            )
        )
        assert not result.rejects
        assert result.records[0] == LogRecord(1.0, "a", Dimension.EVENT, "boot")
        assert result.records[1].ts == 2.5
        assert result.records[1].dim is Dimension.RAS

    def test_blank_lines_skipped(self):
        result = parse_lines(io.StringIO('\n\n{"ts": 1, "node": "a", "dim": "event", "msg": "x"}\n\n'))
        assert len(result.records) == 1 and not result.rejects

    @pytest.mark.parametrize(
        "line,reason_part",
        [
            ("{not json", "invalid JSON"),
            ('["list"]', "must be an object"),
            ('{"node": "a", "msg": "x"}', "missing field: ts"),
            ('{"ts": true, "node": "a", "msg": "x"}', "must be a number"),
            ('{"ts": "soon", "node": "a", "msg": "x"}', "must be a number"),
            ('{"ts": -1, "node": "a", "msg": "x"}', ">= 0"),
            ('{"ts": NaN, "node": "a", "msg": "x"}', "finite"),
            ('{"ts": 1, "node": "", "msg": "x"}', "non-empty"),
            ('{"ts": 1, "node": "a", "msg": 5}', "msg must be a string"),
            ('{"ts": 1, "node": "a", "msg": "x", "dim": "weird"}', "unknown dimension"),
            ('{"ts": 1, "node": "a", "msg": "x"}', "record has no dimension"),
        ],
    )
    def test_bad_lines_rejected_with_reason(self, line, reason_part):
        good = '{"ts": 1, "node": "a", "dim": "event", "msg": "x"}'
        result = parse_lines(io.StringIO("\n".join([good, line, good])))
        assert len(result.records) == 2
        assert len(result.rejects) == 1
        assert result.rejects[0].line_no == 2
        assert reason_part in result.rejects[0].reason

    @settings(max_examples=300)
    @given(st.lists(_log_line(), max_size=10), st.none() | st.sampled_from(Dimension))
    def test_equals_reference(self, lines, dim_default):
        data = b"\n".join(lines)
        assert _parse_outcome(parse_lines, data, dim_default) == _parse_outcome(
            reference_parse_jsonl, data, dim_default
        )

    @pytest.mark.parametrize("dim_default", [None, Dimension.COMM])
    def test_equals_reference_on_irregular_rows(self, dim_default):
        good = '{"ts": 1.5, "node": "a", "dim": "event", "msg": "x"}'
        irregular = [
            '{"ts": 2, "node": "a", "dim": "event", "msg": "x"}',
            '{"ts": true, "node": "a", "dim": "event", "msg": "x"}',
            '{"ts": "2.5", "node": "a", "dim": "event", "msg": "x"}',
            '{"ts": NaN, "node": "a", "dim": "event", "msg": "x"}',
            '{"ts": Infinity, "node": "a", "dim": "event", "msg": "x"}',
            '{"ts": -0.0, "node": "a", "dim": "event", "msg": "x"}',
            '{"ts": -1.5, "node": "a", "dim": "event", "msg": "x"}',
            '{"ts": 1e400, "node": "a", "dim": "event", "msg": "x"}',
            '{"ts": 1.5, "node": "", "dim": "event", "msg": "x"}',
            '{"ts": 1.5, "node": 5, "dim": "event", "msg": "x"}',
            '{"ts": 1.5, "node": "a", "dim": "event", "msg": 5}',
            '{"ts": 1.5, "node": "a", "msg": "x"}',
            '{"ts": 1.5, "node": "a", "dim": "", "msg": "x"}',
            '{"ts": 1.5, "node": "a", "dim": "weird", "msg": "x"}',
            '{"ts": "x", "node": "a", "dim": "event", "msg": "x", "ts": 2.5}',
            '{"ts": 2.5, "node": "a", "dim": "event", "msg": "x", "ts": "x"}',
            ' {"ts": 1.5, "node": "a", "dim": "event", "msg": "x"}\t',
            '\ufeff{"ts": 1.5, "node": "a", "dim": "event", "msg": "x"}',
            '["ts", 1.5]',
        ]
        lines = [line.encode("utf-8") for row in irregular for line in (good, row)]
        data = b"\n".join(lines + [b"\xff\xfe", good.encode("utf-8")])
        assert _parse_outcome(parse_lines, data, dim_default) == _parse_outcome(
            reference_parse_jsonl, data, dim_default
        )

    def test_dim_default_fills_missing(self):
        result = parse_lines(
            _jsonl({"ts": 1, "node": "a", "msg": "x"}, {"ts": 2, "node": "a", "dim": "", "msg": "y"}),
            dim_default=Dimension.COMM,
        )
        assert [r.dim for r in result.records] == [Dimension.COMM, Dimension.COMM]

    def test_majority_rejects_is_fatal(self):
        bad = ["garbage"] * 3 + ['{"ts": 1, "node": "a", "dim": "event", "msg": "x"}']
        with pytest.raises(ParseError) as err:
            parse_lines(io.StringIO("\n".join(bad)))
        assert len(err.value.rejects) == 3

    def test_exactly_half_rejected_is_tolerated(self):
        lines = ["garbage", '{"ts": 1, "node": "a", "dim": "event", "msg": "x"}']
        result = parse_lines(io.StringIO("\n".join(lines)))
        assert len(result.records) == 1 and len(result.rejects) == 1

    def test_bytes_stream_with_invalid_utf8(self):
        payload = b'{"ts": 1, "node": "a", "dim": "event", "msg": "x"}\n\xff\xfe\n'
        result = parse_lines(io.BytesIO(payload))
        assert len(result.records) == 1
        assert result.rejects[0].reason == "not valid UTF-8"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_lines(io.StringIO(""), fmt="xml")

    @pytest.mark.parametrize("fmt, text", [
        ("jsonl", "".join(f'{{"ts": {t}, "node": "n{t % 2}", "dim": "event", "msg": "x"}}\n'
                          for t in range(6))),
        ("csv", "ts,node,dim,msg\n" + "".join(f"{t},n{t % 2},event,x\n" for t in range(6))),
    ])
    def test_records_of_one_node_share_one_string(self, fmt, text):
        records = parse_lines(io.StringIO(text), fmt=fmt).records
        assert [r.node for r in records] == ["n0", "n1"] * 3
        assert len({id(r.node) for r in records}) == 2


class TestParseCsv:
    def test_happy_path(self):
        stream = io.StringIO("ts,node,dim,msg\n1,a,event,boot\n2,b,ras,ecc\n")
        result = parse_lines(stream, fmt="csv")
        assert [r.msg for r in result.records] == ["boot", "ecc"]
        assert not result.rejects

    def test_missing_required_column_is_fatal(self):
        with pytest.raises(ParseError) as err:
            parse_lines(io.StringIO("ts,node\n1,a\n"), fmt="csv")
        assert "msg" in str(err.value)

    def test_dim_column_optional_with_default(self):
        stream = io.StringIO("ts,node,msg\n1,a,boot\n")
        result = parse_lines(stream, fmt="csv", dim_default=Dimension.STATUS)
        assert result.records[0].dim is Dimension.STATUS

    def test_bad_row_rejected(self):
        stream = io.StringIO("ts,node,dim,msg\nnot_a_ts,a,event,boot\n2,b,ras,ecc\n")
        result = parse_lines(stream, fmt="csv")
        assert len(result.records) == 1 and len(result.rejects) == 1


class TestCanonicalize:
    def test_sorted_and_counted(self):
        records = [
            LogRecord(5.0, "b", Dimension.RAS, "ecc 3"),
            LogRecord(1.0, "a", Dimension.EVENT, "boot"),
            LogRecord(5.0, "b", Dimension.EVENT, "boot"),
        ]
        table = TemplateTable()
        events, rejects = canonicalize(records, table)
        assert not rejects
        assert [e.sort_key for e in events] == sorted(e.sort_key for e in events)
        assert events[0].template == table.get("boot")
        assert all(e.count == 1 for e in events)

    def test_sort_breaks_ties_by_dimension_rank(self):
        records = [
            LogRecord(1.0, "a", Dimension.RAS, "m"),
            LogRecord(1.0, "a", Dimension.EVENT, "m"),
            LogRecord(1.0, "a", Dimension.COMM, "m"),
            LogRecord(1.0, "a", Dimension.STATUS, "m"),
        ]
        events, _ = canonicalize(records, TemplateTable())
        assert [e.dim for e in events] == [
            Dimension.EVENT, Dimension.STATUS, Dimension.COMM, Dimension.RAS,
        ]

    def test_dimensionless_rejected_without_claiming_template_id(self):
        records = [
            LogRecord(1.0, "a", None, "only here"),
            LogRecord(2.0, "a", Dimension.EVENT, "kept"),
        ]
        table = TemplateTable()
        events, rejects = canonicalize(records, table)
        assert len(events) == 1 and len(rejects) == 1
        assert rejects[0].line_no == 1
        assert table.get("only here") is None
        assert len(table) == 1

    def test_dim_default_applies(self):
        records = [LogRecord(1.0, "a", None, "x")]
        events, rejects = canonicalize(records, TemplateTable(), dim_default=Dimension.RAS)
        assert not rejects and events[0].dim is Dimension.RAS

    def test_input_order_irrelevant(self):
        records = [
            LogRecord(float(ts), node, Dimension.EVENT, msg)
            for ts, node, msg in [(3, "c", "x 1"), (1, "a", "y 2"), (2, "b", "x 9")]
        ]
        forward, _ = canonicalize(records, TemplateTable())
        backward, _ = canonicalize(list(reversed(records)), TemplateTable())
        keyed = lambda evs: [(e.ts, e.node, e.dim) for e in evs]
        assert keyed(forward) == keyed(backward)


# Where drawn records land among the filler: anywhere, or next to a chunk
# edge, the last record included (-1).
_POSITIONS = st.integers(-3, 3) | st.integers(_CHUNK - 3, _CHUNK + 3) | st.integers(min_value=0)


class TestCanonicalizeChunks:
    """canonicalize masks a chunk of messages per pass of the mask chain."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(_POSITIONS, _RECORDS), max_size=12),
        st.integers(_CHUNK + 1, 2 * _CHUNK + 8),
        st.none() | st.sampled_from(Dimension),
    )
    # a chunk that ends in "" and holds a message str.splitlines splits
    @example(
        [(_CHUNK - 2, LogRecord(0.0, "a", None, "x\x1cy")), (_CHUNK - 1, LogRecord(0.0, "a", None, ""))],
        _CHUNK + 1,
        Dimension.COMM,
    )
    def test_equals_reference(self, placed, n, dim_default):
        words = ["boot", "disk 7 full", "fan /dev/x", "link 10.0.0.1 down", "decade"]
        records = [
            LogRecord(float(i % 11), "n", Dimension.EVENT, f"{words[i % 5]} {i}") for i in range(n)
        ]
        for pos, record in placed:
            records[pos % n] = record
        table, ref_table = TemplateTable(), TemplateTable()
        got = canonicalize(records, table, dim_default)
        assert got == reference_canonicalize(records, ref_table, dim_default)
        assert list(table) == list(ref_table)

    def test_masks_a_chunk_per_chain_pass(self, monkeypatch):
        calls = {"chain": 0}
        chain = ingest._mask_chain

        def counting_chain(text):
            calls["chain"] += 1
            return chain(text)

        monkeypatch.setattr(ingest, "_mask_chain", counting_chain)
        records = [LogRecord(float(i), "a", Dimension.EVENT, f"job {i} done") for i in range(2000)]
        events, _ = canonicalize(records, TemplateTable())
        assert len(events) == 2000
        assert calls["chain"] <= math.ceil(2000 / _CHUNK) + 1


class TestCanonicalEvent:
    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            CanonicalEvent(1.0, "a", Dimension.EVENT, 0, count=0)

    def test_log_record_validation(self):
        with pytest.raises(ValueError):
            LogRecord(-1.0, "a", Dimension.EVENT, "x")
        with pytest.raises(ValueError):
            LogRecord(1.0, "", Dimension.EVENT, "x")

    def test_trusted_constructors_equal_public(self):
        pairs = [
            (_log_record(1.5, "a", None, "x"), LogRecord(1.5, "a", None, "x")),
            (
                _canonical_event(1.5, "a", Dimension.RAS, 3, 2),
                CanonicalEvent(1.5, "a", Dimension.RAS, 3, count=2),
            ),
        ]
        for trusted, public in pairs:
            assert trusted == public
            assert hash(trusted) == hash(public)
            with pytest.raises(dataclasses.FrozenInstanceError):
                trusted.ts = 2.0
