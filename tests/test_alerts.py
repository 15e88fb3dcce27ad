import copy
import csv
import io
import json
import math
import pickle
import random
import re
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alertgraphs.alerts import (
    _RECORD_ERRORS,
    Alert,
    MappingConfig,
    default_mapping_config,
    filter_duplicates,
    load_port_services,
    load_signature_rules,
    map_alert,
    parse_alerts,
    parse_timestamp,
    ParseStats,
    RawAlert,
    checked,
    stage_memo,
)
from alertgraphs.automaton import LearnParams
from alertgraphs.stages import AttackStage, Severity

import alerts_oracle
from alerts_oracle import oracle_parse_alerts
from util import mk_alert, ts


def eve_line(
    timestamp="2018-11-03T10:00:00.000000+0000",
    src="10.0.254.1",
    dst="10.0.0.1",
    port=80,
    signature="ET SCAN Nmap Scripting Engine",
    category="Attempted Information Leak",
    event_type="alert",
):
    return json.dumps(
        {
            "timestamp": timestamp,
            "event_type": event_type,
            "src_ip": src,
            "dest_ip": dst,
            "dest_port": port,
            "alert": {"signature": signature, "category": category},
        }
    )


def log(text: str) -> io.BytesIO:
    """A log holding ``text``, as the pipeline reads it: a byte stream."""
    return io.BytesIO(text.encode("utf-8"))


def lines_of(data: bytes) -> list[bytes]:
    """The lines of ``data``, each with its ``\\n``: a source that can only be
    iterated, unlike a stream."""
    return io.BytesIO(data).readlines()


class TestParseAlerts:
    def test_empty_input(self):
        alerts, stats = parse_alerts(log(""), format="eve-json")
        assert alerts == []
        assert (stats.total, stats.parsed, stats.skipped) == (0, 0, 0)

    def test_single_record_passthrough(self):
        alerts, stats = parse_alerts(log(eve_line(port=80) + "\n"), format="eve-json")
        assert stats.parsed == 1
        assert alerts[0].dst_port == 80
        assert alerts[0].src_ip == "10.0.254.1"
        assert alerts[0].timestamp.tzinfo == timezone.utc

    def test_corrupted_lines_counted(self):
        # 10-line fixture, 2 corrupted by hand: one invalid JSON, one with a
        # broken timestamp.
        lines = [eve_line(timestamp=f"2018-11-03T10:00:{i:02d}.000000+0000") for i in range(8)]
        lines.insert(3, "{not json at all")
        lines.insert(7, eve_line(timestamp="not-a-time"))
        alerts, stats = parse_alerts(log("\n".join(lines)), format="eve-json")
        assert stats.total == 10
        assert stats.parsed == 8
        assert stats.skipped == 2
        assert len(alerts) == 8

    def test_non_alert_events_skipped(self):
        text = "\n".join([eve_line(), eve_line(event_type="flow"), eve_line()])
        alerts, stats = parse_alerts(log(text), format="eve-json")
        assert stats.parsed == 2
        assert stats.skipped == 1

    def test_non_object_json_skipped(self):
        alerts, stats = parse_alerts(log('[1, 2, 3]\n"text"\n' + eve_line()), format="eve-json")
        assert stats.parsed == 1
        assert stats.skipped == 2

    def test_port_out_of_range_rejected(self):
        alerts, stats = parse_alerts(log(eve_line(port=99999)), format="eve-json")
        assert alerts == []
        assert stats.skipped == 1

    def test_bytes_and_missing_port(self):
        record = json.loads(eve_line())
        del record["dest_port"]
        alerts, _ = parse_alerts(log(json.dumps(record)), format="eve-json")
        assert alerts[0].dst_port == 0

    @pytest.mark.parametrize("wrap", [lines_of, io.BytesIO], ids=["bytes", "BytesIO"])
    def test_invalid_utf8_line_skipped(self, wrap):
        bad = eve_line().encode().replace(b"Nmap", b"Nm\xffap")
        data = b"\n".join([eve_line().encode(), bad, eve_line().encode(), b""])
        alerts, stats = parse_alerts(wrap(data), format="eve-json")
        assert (stats.total, stats.parsed, stats.skipped) == (3, 2, 1)
        assert len(alerts) == 2

    @pytest.mark.parametrize(
        "path", [("src_ip",), ("dest_ip",), ("alert", "signature"), ("alert", "category")]
    )
    def test_lone_surrogate_skips_record(self, path):
        record = json.loads(eve_line())
        owner = record
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = "a\udcffb"
        data = "\n".join([eve_line(), json.dumps(record), eve_line()])
        alerts, stats = parse_alerts(log(data), format="eve-json")
        assert (stats.total, stats.parsed, stats.skipped) == (3, 2, 1)
        assert len(alerts) == 2

    def test_csv_format(self):
        text = (
            "timestamp,src_ip,dst_ip,dst_port,signature,category\n"
            "2018-11-03T10:00:00.000000+00:00,10.0.254.1,10.0.0.1,22,ET SCAN Nmap,Misc\n"
            "broken-time,10.0.254.1,10.0.0.1,22,sig,cat\n"
        )
        alerts, stats = parse_alerts(log(text), format="csv")
        assert (stats.total, stats.parsed, stats.skipped) == (2, 1, 1)
        assert alerts[0].dst_port == 22

    def test_offset_out_of_datetime_range_skipped(self):
        # +0100 moves 0001-01-01T00:30 to year 0, which datetime cannot hold
        text = "\n".join([eve_line(), eve_line(timestamp="0001-01-01T00:30:00.000000+0100"), eve_line()])
        alerts, stats = parse_alerts(log(text), format="eve-json")
        assert (stats.total, stats.parsed, stats.skipped) == (3, 2, 1)
        assert len(alerts) == 2

    def test_csv_offset_out_of_datetime_range_skipped(self):
        text = (
            "timestamp,src_ip,dst_ip,dst_port,signature,category\n"
            "2018-11-03T10:00:00+0000,10.0.254.1,10.0.0.1,22,ET SCAN Nmap,Misc\n"
            "0001-01-01T00:30:00+0100,10.0.254.1,10.0.0.1,22,ET SCAN Nmap,Misc\n"
            "2018-11-03T10:00:01+0000,10.0.254.1,10.0.0.1,22,ET SCAN Nmap,Misc\n"
        )
        alerts, stats = parse_alerts(log(text), format="csv")
        assert (stats.total, stats.parsed, stats.skipped) == (3, 2, 1)
        assert len(alerts) == 2

    def test_deeply_nested_json_skipped(self):
        text = "\n".join([eve_line(), "[" * 100_000, eve_line()]) + "\n"
        alerts, stats = parse_alerts(log(text), format="eve-json")
        assert stats.parsed + stats.skipped == stats.total == 3
        assert (stats.parsed, stats.skipped) == (2, 1)
        assert len(alerts) == 2

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_alerts(log(""), format="xml")

    @pytest.mark.parametrize("space", ["\x85", "\u2028", "\u3000"], ids=["U+0085", "U+2028", "U+3000"])
    def test_line_of_non_ascii_whitespace_is_one_skipped_record(self, space):
        # only a line of ASCII whitespace is blank
        alerts, stats = parse_alerts(log("\n".join([eve_line(), space, eve_line()])), format="eve-json")
        assert (stats.total, stats.parsed, stats.skipped) == (3, 2, 1)
        assert len(alerts) == 2

    @pytest.mark.parametrize(
        "source",
        [eve_line(), eve_line().encode(), io.StringIO(eve_line())],
        ids=["str", "bytes", "text-stream"],
    )
    @pytest.mark.parametrize("format", ["eve-json", "csv"])
    def test_source_that_is_not_byte_lines_rejected(self, source, format):
        with pytest.raises(TypeError, match="binary stream"):
            parse_alerts(source, format=format)

    @pytest.mark.parametrize("at", [0, 1], ids=["first-line", "second-line"])
    @pytest.mark.parametrize("format", ["eve-json", "csv"])
    def test_str_line_raises_type_error(self, format, at):
        # a str line is no line of the log: it fails the parse, not one record
        text = {"eve-json": eve_line() + "\n" + eve_line(), "csv": CSV_HEADER + CSV_ROW}[format]
        lines = text.encode().splitlines(keepends=True)
        lines[at] = lines[at].decode()
        with pytest.raises(TypeError):
            parse_alerts(lines, format=format)


def eve_with(key, value):
    """``eve_line()`` with one field, top-level or under ``alert``, set to ``value``."""
    record = json.loads(eve_line())
    owner = record["alert"] if key in ("signature", "category") else record
    owner[key] = value
    return json.dumps(record)


class TestTypedEveFields:
    @pytest.mark.parametrize(
        "key,value",
        [
            ("src_ip", None),
            ("dest_ip", None),
            ("src_ip", ""),
            ("dest_ip", ""),
            ("src_ip", ["10.0.254.1"]),
            ("dest_ip", {"addr": "10.0.0.1"}),
            ("src_ip", 17),
            ("signature", ["ET SCAN"]),
            ("signature", {"text": "ET SCAN"}),
            ("signature", None),
            ("category", ["Misc"]),
            ("dest_port", True),
            ("dest_port", False),
            ("dest_port", 22.7),
            ("dest_port", None),
            # int() reads each of these as 80, yet none is ASCII digits
            ("dest_port", "8_0"),
            ("dest_port", "\u0668\u0660"),
            ("dest_port", "\uff18\uff10"),
            ("dest_port", "+80"),
        ],
    )
    def test_mistyped_field_skips_record(self, key, value):
        alerts, stats = parse_alerts(log("\n".join([eve_line(), eve_with(key, value), eve_line()])), format="eve-json")
        assert (stats.total, stats.parsed, stats.skipped) == (3, 2, 1)
        assert len(alerts) == 2

    def test_absent_or_null_category_is_empty(self):
        absent = json.loads(eve_line())
        del absent["alert"]["category"]
        text = "\n".join([json.dumps(absent), eve_with("category", None)])
        alerts, stats = parse_alerts(log(text), format="eve-json")
        assert stats.parsed == 2
        assert [a.category for a in alerts] == ["", ""]

    @pytest.mark.parametrize("port,expected", [("22", 22), (" 22 ", 22), ("022", 22), (22.0, 22), (0, 0)])
    def test_numeric_ports_accepted(self, port, expected):
        alerts, stats = parse_alerts(log(eve_with("dest_port", port)), format="eve-json")
        assert stats.parsed == 1
        assert alerts[0].dst_port == expected


CSV_HEADER = "timestamp,src_ip,dst_ip,dst_port,signature,category\n"
CSV_ROW = "2018-11-03T10:00:00+00:00,10.0.254.1,10.0.0.1,22,ET SCAN Nmap,Misc\n"


class TestCsvRows:
    @pytest.mark.parametrize(
        "bad, signatures",
        [
            # over the csv field limit
            (CSV_ROW.replace("ET SCAN Nmap", "x" * 200_000), ["ET SCAN Nmap"] * 2),
            # a NUL byte is read into its field like any other character
            (CSV_ROW.replace("ET SCAN Nmap", "ET\0SCAN"), ["ET SCAN Nmap", "ET\0SCAN", "ET SCAN Nmap"]),
            # a bare CR in an unquoted field
            (CSV_ROW.replace("ET SCAN Nmap", "ET\rSCAN"), ["ET SCAN Nmap"] * 2),
        ],
        ids=["oversized-field", "nul-byte", "bare-cr"],
    )
    def test_unreadable_row_skips_only_itself(self, bad, signatures):
        good_b = CSV_ROW.replace("10:00:00", "10:00:05")
        alerts, stats = parse_alerts(log(CSV_HEADER + CSV_ROW + bad + good_b), format="csv")
        parsed = len(signatures)
        assert (stats.total, stats.parsed, stats.skipped) == (3, parsed, 3 - parsed)
        assert [a.signature for a in alerts] == signatures
        assert [a.timestamp.second for a in alerts] == [0] * (parsed - 1) + [5]

    @pytest.mark.parametrize("field", ["10.0.254.1", "10.0.0.1", "ET SCAN Nmap", "Misc"])
    def test_undecodable_byte_skips_only_its_row(self, field):
        bad = CSV_ROW.replace(field, field[:2] + "\udcff" + field[2:])
        data = (CSV_HEADER + CSV_ROW + bad + CSV_ROW).encode("utf-8", "surrogateescape")
        alerts, stats = parse_alerts(io.BytesIO(data), format="csv")
        assert (stats.total, stats.parsed, stats.skipped) == (3, 2, 1)
        assert len(alerts) == 2

    def test_undecodable_header_name_skips_every_row(self):
        data = (
            b"timestamp,src_ip,dst_ip,dst_port,signature,categ\xffory\n"
            b"2021-01-01T00:00:00Z,1.1.1.1,2.2.2.2,5653,ET x,Exfiltration\n"
        )
        alerts, stats = parse_alerts(io.BytesIO(data), format="csv")
        assert (stats.total, stats.parsed, stats.skipped) == (1, 0, 1)
        assert alerts == []

    @pytest.mark.parametrize("wrap", [lines_of, io.BytesIO], ids=["bytes", "byte-stream"])
    def test_unreadable_header_skips_every_row(self, wrap):
        # the reader rejects the first line, so the well-formed header after it
        # is a data line, not the header
        text = CSV_HEADER.replace("category\n", "category\r,x\n") + CSV_HEADER + CSV_ROW + CSV_ROW
        alerts, stats = parse_alerts(wrap(text.encode()), format="csv")
        assert (stats.total, stats.parsed, stats.skipped) == (3, 0, 3)
        assert alerts == []

    @pytest.mark.parametrize(
        "format, text",
        [
            ("eve-json", eve_line() + "\n"),
            ("csv", CSV_HEADER + CSV_ROW),
            ("csv", "timestamp\r,x\n" + CSV_ROW),  # a header the reader cannot read
        ],
        ids=["eve-json", "csv", "csv-unreadable-header"],
    )
    def test_byte_stream_left_open(self, format, text):
        fh = io.BytesIO(text.encode())
        parse_alerts(fh, format=format)
        assert not fh.closed
        fh.seek(0)
        assert fh.read() == text.encode()

    def test_unreadable_row_skipped_from_bytes(self):
        data = CSV_HEADER + CSV_ROW + CSV_ROW.replace("ET SCAN Nmap", "x" * 200_000) + CSV_ROW
        alerts, stats = parse_alerts(io.BytesIO(data.encode()), format="csv")
        assert (stats.total, stats.parsed, stats.skipped) == (3, 2, 1)
        assert len(alerts) == 2

    @pytest.mark.parametrize(
        "bad",
        [
            "2018-11-03T10:00:00+00:00,10.0.254.1,10.0.0.1,22\n",  # no signature
            "2018-11-03T10:00:00+00:00,10.0.254.1\n",  # no victim
            "2018-11-03T10:00:00+00:00, ,10.0.0.1,22,ET SCAN Nmap,Misc\n",  # blank attacker
            "2018-11-03T10:00:00+00:00,10.0.254.1,10.0.0.1,,ET SCAN Nmap,Misc\n",  # no port
            # int() reads the first four as 80, yet a port is ASCII digits only
            *(CSV_ROW.replace(",22,", f",{port},")
              for port in ("8_0", "\u0668\u0660", "\uff18\uff10", "+80", "-0", "0x50", "80.0")),
        ],
        ids=["short-row-no-signature", "short-row-no-victim", "blank-attacker", "empty-port",
             "port-8_0", "port-arabic-indic", "port-fullwidth", "port-plus", "port-minus", "port-hex", "port-float"],
    )
    def test_short_or_blank_row_skipped(self, bad):
        alerts, stats = parse_alerts(log(CSV_HEADER + CSV_ROW + bad + CSV_ROW), format="csv")
        assert (stats.total, stats.parsed, stats.skipped) == (3, 2, 1)
        assert all(isinstance(a.signature, str) for a in alerts)

    def test_missing_category_is_empty(self):
        alerts, _ = parse_alerts(log(CSV_HEADER + CSV_ROW.replace(",Misc", "")), format="csv")
        assert alerts[0].category == ""

    @pytest.mark.parametrize(
        "text, counts",
        [
            (CSV_HEADER + CSV_ROW + CSV_ROW.replace("ET SCAN Nmap", "ET\rSCAN Nmap") + CSV_ROW, (3, 2, 1)),
            (CSV_HEADER + CSV_ROW.replace("Misc\n", "Mi\rsc\n") + CSV_ROW, (2, 1, 1)),
            ((CSV_HEADER + CSV_ROW + CSV_ROW).replace("\n", "\r\n"), (2, 2, 0)),
        ],
        ids=["bare-cr-in-signature", "bare-cr-in-category", "crlf"],
    )
    def test_bytes_and_text_split_records_alike(self, text, counts):
        # records split on "\n" only: a bare CR stays in its row, which the
        # csv module then skips
        from_bytes, stats = parse_alerts(log(text), format="csv")
        assert (stats.total, stats.parsed, stats.skipped) == counts
        assert all("\r" not in (a.signature + a.category) for a in from_bytes)

    def test_crlf_log_parses(self):
        data = (CSV_HEADER + CSV_ROW + CSV_ROW.replace("10:00:00", "10:00:05")).replace("\n", "\r\n")
        alerts, stats = parse_alerts(io.BytesIO(data.encode()), format="csv")
        assert (stats.total, stats.parsed, stats.skipped) == (2, 2, 0)
        assert [(a.signature, a.category, a.timestamp.second) for a in alerts] == [
            ("ET SCAN Nmap", "Misc", 0),
            ("ET SCAN Nmap", "Misc", 5),
        ]


RECORDS = [
    (RawAlert, (ts(0), "10.0.254.1", "10.0.0.1", 22, "ET SCAN Nmap", "Misc")),
    (Alert, (ts(0), "10.0.254.1", "10.0.0.1", AttackStage.SERVICE_DISC, "ssh")),
]
RECORD_IDS = ["RawAlert", "Alert"]


@pytest.mark.parametrize("cls, values", RECORDS, ids=RECORD_IDS)
class TestRecordContract:
    """What ``@dataclass(frozen=True)`` gave both records, kept as named tuples;
    ``TestRecordMemory`` checks that neither has a ``__dict__``."""

    def test_fields_cannot_be_assigned_or_deleted(self, cls, values):
        record = cls(*values)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, values[0])
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert tuple(record) == values

    def test_equal_fields_equal_records_and_hashes(self, cls, values):
        # b is built from equal strings that are other objects
        a = cls(*values)
        b = cls(*(v.encode().decode() if isinstance(v, str) else v for v in values))
        assert a[1] is not b[1]
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != cls(*values[:-1], values[-1] + "x")

    def test_keyword_construction(self, cls, values):
        assert cls(**dict(zip(cls._fields, values))) == cls(*values)

    def test_repr_names_every_field(self, cls, values):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, values))
        assert repr(cls(*values)) == f"{cls.__name__}({fields})"


class TestRecordMemory:
    def test_records_have_no_instance_dict(self):
        raw = parse_alerts(log(eve_line()), format="eve-json")[0][0]
        alert = map_by(default_mapping_config(), raw)
        for record in (raw, alert):
            assert not hasattr(record, "__dict__")

    @pytest.mark.parametrize("format", ["eve-json", "csv"])
    def test_repeated_values_are_one_object(self, format):
        # values are built per line, so equal values start out as distinct
        # objects; port 5653 is above the small ints CPython caches
        stamps = [f"2018-11-03T10:00:{i:02d}+00:00" for i in range(4)]
        if format == "eve-json":
            text = "\n".join(eve_line(timestamp=t, port=5653) for t in stamps)
        else:
            row = CSV_ROW.replace(",22,", ",5653,")
            text = CSV_HEADER + "".join(row.replace("10:00:00", t[11:19]) for t in stamps)
        alerts, stats = parse_alerts(log(text), format=format)
        assert stats.parsed == 4
        first = alerts[0]
        for other in alerts[1:]:
            assert other.src_ip is first.src_ip
            assert other.dst_ip is first.dst_ip
            assert other.dst_port is first.dst_port
            assert other.signature is first.signature
            assert other.category is first.category
        mapped = [map_by(default_mapping_config(), a) for a in alerts]
        assert all(m.attacker is first.src_ip and m.victim is first.dst_ip for m in mapped)


FIXTURE = Path(__file__).parent / "fixtures/synthetic_alerts.jsonl"


def test_fixture_parse_matches_plain_oracle():
    """``parse_alerts`` equals a plain ``json.loads`` parse that shares nothing."""
    expected = []
    for line in FIXTURE.read_text(encoding="utf-8").splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if record.get("event_type") != "alert":
            continue
        expected.append(
            RawAlert(
                timestamp=alerts_oracle.parse_timestamp(record["timestamp"]),
                src_ip=record["src_ip"],
                dst_ip=record["dest_ip"],
                dst_port=record.get("dest_port", 0),
                signature=record["alert"]["signature"],
                category=record["alert"].get("category", ""),
            )
        )
    with open(FIXTURE, "rb") as fh:
        got, stats = parse_alerts(fh, format="eve-json")
    assert len(expected) > 100
    assert got == expected
    assert stats.parsed == len(expected)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=10),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)


def field(valid):
    return st.one_of(st.just(valid), json_values)


# EVE records whose every field is either well formed or any JSON value
eve_records = st.fixed_dictionaries(
    {
        "event_type": field("alert"),
        "timestamp": field("2018-11-03T10:00:00.000000+0000"),
        "src_ip": field("10.0.254.1"),
        "dest_ip": field("10.0.0.1"),
        "dest_port": field(22),
        "alert": field({"signature": "ET SCAN Nmap", "category": "Misc"})
        | st.fixed_dictionaries({"signature": field("ET SCAN Nmap"), "category": field("Misc")}),
    }
).map(lambda record: json.dumps(record).encode())


@given(st.lists(st.binary(max_size=120) | eve_records, max_size=10))
def test_eve_parse_never_raises(lines):
    alerts, stats = parse_alerts(io.BytesIO(b"\n".join(lines)), format="eve-json")
    assert stats.parsed + stats.skipped == stats.total
    assert len(alerts) == stats.parsed


csv_text = st.text(alphabet=st.sampled_from(',"\r\n\0 x2:-T+') | st.characters(), max_size=120)


@given(st.lists(csv_text | st.just(CSV_ROW), max_size=10))
def test_csv_parse_never_raises(chunks):
    for text in ("".join(chunks), CSV_HEADER + "".join(chunks)):
        # a lone surrogate drawn as a character becomes bytes that are not UTF-8
        alerts, stats = parse_alerts(io.BytesIO(text.encode("utf-8", "surrogatepass")), format="csv")
        assert stats.parsed + stats.skipped == stats.total
        assert len(alerts) == stats.parsed


@pytest.mark.parametrize(
    "value",
    [
        "2018-11-03T23:16:09.148520+0000",
        "2018-11-03T23:16:09.148520+00:00",
        "2018-11-03T23:16:09.148520Z",
        "2018-11-03T23:16:09.148520",
    ],
)
def test_parse_timestamp_variants(value):
    dt = parse_timestamp(value)
    assert dt.tzinfo == timezone.utc
    assert dt.microsecond == 148520


def outcome(fn, *args):
    """``fn(*args)``, or the type of the ``ValueError``/``OverflowError`` it raised."""
    try:
        return fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc)


offsets = st.tuples(
    st.sampled_from("+-"),
    st.integers(min_value=0, max_value=23),
    st.integers(min_value=0, max_value=59),
    st.booleans(),
).map(lambda t: f"{t[0]}{t[1]:02d}{':' if t[3] else ''}{t[2]:02d}")

valid_timestamps = st.tuples(
    st.datetimes(min_value=datetime(1900, 1, 1), max_value=datetime(2100, 1, 1)),
    st.sampled_from(["seconds", "microseconds"]),
    st.one_of(st.sampled_from(["", "Z", "z"]), offsets),
    st.sampled_from(["", " ", "\n"]),
).map(lambda t: t[0].isoformat(timespec=t[1]) + t[2] + t[3])

# text ending in a sign and four characters, some of them non-ASCII digits:
# an offset without a colon, or text that only looks like one
offset_like_text = st.tuples(
    st.one_of(st.text(max_size=30), valid_timestamps),
    st.sampled_from("+-"),
    st.text(alphabet="0123456789\u0660\u0661\u00b2\u06f3\uff11a:", min_size=4, max_size=4),
).map("".join)


def record_outcome(fn, value):
    """``fn(value)`` with its ``tzinfo``, or ``"error"`` if it raised one of the
    errors that skip a record."""
    try:
        dt = fn(value)
    except _RECORD_ERRORS:
        return "error"
    return dt, dt.tzinfo


def eve_record_timestamp(value):
    """The timestamp of the record ``parse_alerts`` reads from an EVE line
    whose ``timestamp`` is ``value``; raises ``ValueError`` when it skips it."""
    return record_timestamp(log(eve_line(timestamp=value)), "eve-json")


def csv_record_timestamp(value: str):
    """As ``eve_record_timestamp``, from a CSV row whose quoted
    ``timestamp`` field is ``value``."""
    row = io.StringIO()
    csv.writer(row, quoting=csv.QUOTE_ALL, lineterminator="\n").writerow(
        [value, "10.0.254.1", "10.0.0.1", 22, "ET SCAN Nmap", "Misc"]
    )
    return record_timestamp(log(CSV_HEADER + row.getvalue()), "csv")


def record_timestamp(source, format):
    records, stats = parse_alerts(source, format=format)
    if stats.skipped:
        assert (records, stats.total) == ([], 1)
        raise ValueError("record skipped")
    return records[0].timestamp


iso_offsets = st.one_of(
    st.sampled_from(["", "Z", "z"]),
    st.tuples(
        st.sampled_from("+-"),
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=0, max_value=60),
        st.sampled_from(["", ":", None]),  # +HHMM, +HH:MM, +HH
    ).map(lambda t: f"{t[0]}{t[1]:02d}" + ("" if t[3] is None else f"{t[3]}{t[2]:02d}")),
)

# surrounding whitespace on about half of them, which only the normalizing
# parser strips
iso_spaces = st.just("") | st.sampled_from([" ", "\t", "\n"])
iso_timestamps = st.tuples(
    iso_spaces,
    st.one_of(
        st.datetimes(),
        st.sampled_from([datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59, 999999)]),
    ),
    st.sampled_from("T "),
    st.integers(min_value=0, max_value=6),  # fractional digits
    iso_offsets,
    iso_spaces,
).map(
    lambda t: t[0]
    + t[1].isoformat(t[2], timespec="seconds")
    + ("." + f"{t[1].microsecond:06d}"[: t[3]] if t[3] else "")
    + t[4]
    + t[5]
)


@settings(max_examples=500)
@given(st.one_of(iso_timestamps, offset_like_text, st.text(), st.none(), st.integers()))
@example("0001-01-01T00:00:00+0100")  # before year 1 in UTC
@example("9999-12-31T23:59:59-01:00")  # after year 9999 in UTC
@example("2018-11-03T23:16:09.148520z")
def test_record_timestamp_matches_parse_timestamp(value):
    # parse_timestamp tries fromisoformat before it strips and rewrites a
    # "z": it, and so an EVE or CSV record, skips a value exactly when the
    # strip-first rule fails, and reads it as that rule reads it
    outcome = record_outcome(alerts_oracle.parse_timestamp, value)
    assert record_outcome(parse_timestamp, value) == outcome
    assert record_outcome(eve_record_timestamp, value) == outcome
    if isinstance(value, str):  # a CSV field holds nothing else
        assert record_outcome(csv_record_timestamp, value) == outcome
    if outcome != "error":
        assert outcome[1] == timezone.utc


def in_utc(dt: datetime) -> datetime:
    """The instant ``dt`` names, in UTC; a naive ``dt`` is taken as UTC."""
    return dt.replace(tzinfo=timezone.utc) if dt.tzinfo is None else dt.astimezone(timezone.utc)


def iso_form(dt, basic, week, mark, digits, offset):
    """``dt`` in one of the ISO 8601 forms ``fromisoformat`` reads: a calendar
    or week date, extended or basic, ``.`` or ``,`` before 0-6 fraction digits."""
    if week:
        year, number, day = dt.isocalendar()
        date = f"{year:04d}-W{number:02d}-{day}"
    else:
        date = f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}"
    time = f"{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}"
    if basic:
        date, time = date.replace("-", ""), time.replace(":", "")
    fraction = mark + f"{dt.microsecond:06d}"[:digits] if digits else ""
    return f"{date}T{time}{fraction}{offset}"


@settings(max_examples=500)
@given(
    st.one_of(
        st.builds(
            iso_form,
            st.datetimes(),
            st.booleans(),
            st.booleans(),
            st.sampled_from(".,"),
            st.integers(min_value=0, max_value=6),
            iso_offsets,
        ),
        iso_timestamps,
        offset_like_text,
        st.text(),
    )
)
@example("2018-11-03T10:00:00+0000")
@example("0001-01-01T00:00:00+0100")  # before year 1 in UTC
def test_parse_timestamp_reads_what_fromisoformat_reads(value):
    try:
        dt = datetime.fromisoformat(value)
    except ValueError:
        return  # parse_timestamp may still read it, stripped or with "z"
    result = outcome(parse_timestamp, value)
    assert result == outcome(in_utc, dt)
    if isinstance(result, datetime):
        assert result.tzinfo is timezone.utc


@pytest.mark.parametrize(
    "value, expected",
    [
        ("2018-11-03T10:00:00.1", datetime(2018, 11, 3, 10, 0, 0, 100000)),
        ("20181103T100000", datetime(2018, 11, 3, 10)),
        ("2018-W44-6T10:00:00", datetime(2018, 11, 3, 10)),
        ("2018-11-03T10:00:00,5", datetime(2018, 11, 3, 10, 0, 0, 500000)),
        ("2018-11-03T10:00:00.123+00", datetime(2018, 11, 3, 10, 0, 0, 123000)),
    ],
)
def test_iso_forms_are_read_as_records(value, expected):
    expected = expected.replace(tzinfo=timezone.utc)
    assert parse_timestamp(value) == expected
    assert eve_record_timestamp(value) == expected


def test_four_digits_after_a_date_are_no_offset():
    # "-0310" is not read as the offset "-03:10": the text is no timestamp
    with pytest.raises(ValueError):
        parse_timestamp("2018-11-0310")
    with pytest.raises(ValueError, match="record skipped"):
        eve_record_timestamp("2018-11-0310")


def oracle_text(value, name):
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string")
    value.encode("utf-8")  # a lone surrogate is not UTF-8 text
    return value


def oracle_port(value):
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("a port must be an integer")
    if isinstance(value, str) and not re.fullmatch(r"\s*[0-9]+\s*", value):
        raise ValueError("a port string must be ASCII digits")
    port = int(value)
    if not 0 <= port <= 65535:
        raise ValueError(f"dst_port out of range: {port}")
    return port


def oracle_parse_eve(source: bytes):
    """The EVE path ``parse_alerts`` replaced: ``json.loads`` on each line, then
    every field checked on its own, with nothing shared between records."""
    alerts, stats = [], SimpleNamespace(total=0, parsed=0, skipped=0)  # counted in place
    for line in io.BytesIO(source):
        if not line.strip():
            continue
        stats.total += 1
        try:
            record = json.loads(line.decode("utf-8"))
            if record.get("event_type") != "alert":
                raise ValueError("not an alert")
            alert = record["alert"]
            addresses = [oracle_text(record[key], "an address") for key in ("src_ip", "dest_ip")]
            if not all(addresses):
                raise ValueError("an address must be non-empty")
            category = alert.get("category")
            raw = RawAlert(
                timestamp=alerts_oracle.parse_timestamp(record["timestamp"]),
                src_ip=addresses[0],
                dst_ip=addresses[1],
                dst_port=oracle_port(record.get("dest_port", 0)),
                signature=oracle_text(alert["signature"], "signature"),
                category="" if category is None else oracle_text(category, "category"),
            )
        except (ValueError, KeyError, TypeError, AttributeError, OverflowError, RecursionError):
            stats.skipped += 1
        else:
            alerts.append(raw)
            stats.parsed += 1
    return alerts, ParseStats(**vars(stats))


EDGE_RECORD = (
    '{{"event_type": "alert", "timestamp": "2018-11-03T10:00:00.000000+0000", "src_ip": {src_ip},'
    ' "dest_ip": {dest_ip}, "dest_port": {port}, "alert": {{"signature": {signature},'
    ' "category": {category}}}}}'
)


def edge_record(port, twist):
    fields = {
        "src_ip": '"10.0.254.1"',
        "dest_ip": '"10.0.0.1"',
        "signature": '"ET SCAN"',
        "category": '"Misc"',
        **dict([twist] if twist else []),
    }
    return EDGE_RECORD.format(port=port, **fields)


# a well-formed record whose port is one that a memo must keep apart from an
# equal value that checks differently, with at most one other field made
# empty, mistyped or an escaped lone surrogate
edge_records = st.builds(
    edge_record,
    st.sampled_from(["1", "true", "1.0", '"1"', "-0.0", "0", "false", "1e3"]),
    st.none() | st.tuples(
        st.sampled_from(["src_ip", "dest_ip", "signature", "category"]),
        st.sampled_from(['""', '"\\ud800"', '"a\\udcff"', "null", "1", "true"]),
    ),
)
# JSON whitespace around a value is allowed; other whitespace, a BOM and
# trailing data are not
line_edges = st.sampled_from(["", " \t\r", "\x0b", "\x0c", "\x85", "\u00a0", "\ufeff"])
trailing_data = st.sampled_from([" x", "}", ",", " {}", "\x00", "\\"])
eve_texts = eve_records.map(bytes.decode) | edge_records
eve_texts = eve_texts | st.tuples(line_edges, eve_texts, line_edges | trailing_data).map("".join)


@settings(max_examples=300)
@given(st.lists(eve_texts, max_size=8))
@example([edge_record("1", None), edge_record("true", None)])
@example(["\ufeff" + edge_record("1", None), edge_record("1", None)])  # a BOM, as json.loads rejects it
def test_eve_parse_matches_oracle(lines):
    data = "\n".join(lines).encode("utf-8")
    assert parse_alerts(io.BytesIO(data), format="eve-json") == oracle_parse_eve(data)


# every kind of line the parser meets: arbitrary bytes, EVE records with any
# field mistyped, and the edge records above with their surroundings
eve_byte_lines = st.binary(max_size=120) | eve_records | eve_texts.map(str.encode)


@settings(max_examples=300)
@given(st.lists(eve_byte_lines, max_size=10))
def test_eve_parse_matches_record_path_oracle(lines):
    data = b"\n".join(lines)
    assert parse_alerts(io.BytesIO(data), format="eve-json") == oracle_parse_alerts(data, "eve-json")


# rows whose port or category another row's equals in a different form
csv_edge_rows = st.sampled_from(["1", "1.0", "01", " 1", "true", "0", "-0", ""]).map(
    lambda port: CSV_ROW.replace(",22,", f",{port},")
) | st.sampled_from([CSV_ROW.replace(",Misc", ""), CSV_ROW.replace(",Misc", ",")])


@settings(max_examples=300)
@given(
    st.sampled_from(["", "\ufeff", "\ufeff\ufeff"]),
    st.sampled_from(["", CSV_HEADER, CSV_HEADER.replace("timestamp", '"timestamp"')]),
    st.lists(csv_text | st.just(CSV_ROW) | csv_edge_rows, max_size=10),
)
def test_csv_parse_matches_record_path_oracle(bom, header, chunks):
    # a lone surrogate drawn as a character becomes bytes that are not UTF-8
    data = (bom + header + "".join(chunks)).encode("utf-8", "surrogatepass")
    assert parse_alerts(io.BytesIO(data), format="csv") == oracle_parse_alerts(data, "csv")


def without_category():
    record = json.loads(eve_line())
    del record["alert"]["category"]
    return json.dumps(record)


# Values one field takes that compare equal, paired with the port or category
# each gives, or None where the record is skipped. A bool is equal to 1 or 0
# yet no port, so it must not find their memo entry.
MEMO_COLLISIONS = [
    (eve_with("dest_port", 1), 1),
    (eve_with("dest_port", 1.0), 1),
    (eve_with("dest_port", "1"), 1),
    (eve_with("dest_port", True), None),
    (eve_with("dest_port", 0), 0),
    (eve_with("dest_port", False), None),
    (eve_with("dest_port", -0.0), 0),
    (eve_with("category", None), ""),
    (without_category(), ""),
    (eve_with("category", ""), ""),
    (eve_with("src_ip", ""), None),
]


def assert_collisions_parse(collisions):
    """One log of ``collisions``, each line stamped with its position."""
    lines = []
    for second, (line, _) in enumerate(collisions):
        record = json.loads(line)
        record["timestamp"] = f"2018-11-03T10:00:{second:02d}.000000+0000"
        lines.append(json.dumps(record))
    data = "\n".join(lines).encode()
    parsed, stats = parse_alerts(io.BytesIO(data), format="eve-json")
    assert (parsed, stats) == oracle_parse_alerts(data, "eve-json")
    kept = [(second, expected) for second, (_, expected) in enumerate(collisions) if expected is not None]
    assert [a.timestamp.second for a in parsed] == [second for second, _ in kept]
    for alert, (_, expected) in zip(parsed, kept):
        field = alert.category if isinstance(expected, str) else alert.dst_port
        assert field == expected and type(field) is type(expected)
    assert (stats.total, stats.parsed) == (len(collisions), len(kept))


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_memo_keeps_colliding_values_apart(order):
    assert_collisions_parse(MEMO_COLLISIONS[::order])


@given(st.permutations(MEMO_COLLISIONS))
def test_bool_port_skipped_wherever_it_appears(collisions):
    assert_collisions_parse(collisions)


CHECKED_VALUES = []


@checked
class Checked(NamedTuple):
    value: int = 0

    def _check(self):
        CHECKED_VALUES.append(self.value)


def test_every_way_of_building_a_checked_tuple_runs_its_check():
    one = Checked(1)
    CHECKED_VALUES.clear()
    Checked._make([2])
    one._replace(value=3)
    copy.copy(one)
    pickle.loads(pickle.dumps(one))
    expected = [2, 3, 1, 1]
    if hasattr(copy, "replace"):  # from Python 3.13
        copy.replace(one, value=4)
        expected.append(4)
    assert CHECKED_VALUES == expected


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_unpickling_a_checked_tuple_runs_its_check_at_every_protocol(protocol):
    data = pickle.dumps(Checked(1), protocol)
    CHECKED_VALUES.clear()
    assert type(loaded := pickle.loads(data)) is Checked and loaded == (1,)
    assert CHECKED_VALUES == [1]
    rules = MappingConfig((("scan", AttackStage.SERVICE_DISC),), {22: "ssh"})
    again = pickle.loads(pickle.dumps(rules, protocol))
    assert again == rules and again.stage_for("port scan", "") == AttackStage.SERVICE_DISC


def test_an_edited_pickle_is_refused():
    # protocols 0 and 1 rebuild a tuple subclass past __new__ unless the
    # class says how to build it
    data = pickle.dumps(LearnParams(5, 5, 5, 0.5), protocol=0)
    assert b"F0.5" in data
    with pytest.raises(ValueError, match="alpha"):
        pickle.loads(data.replace(b"F0.5", b"F2.0"))


@pytest.mark.parametrize("cls, values", [(Checked, []), (Checked, [1, 2]), (LearnParams, [1]), (MappingConfig, [()])])
def test_make_refuses_a_wrong_count_as_a_named_tuple_does(cls, values):
    with pytest.raises(TypeError, match=f"^Expected {len(cls._fields)} arguments, got {len(values)}$"):
        cls._make(values)


class TestByteOrderMark:
    @pytest.mark.parametrize("wrap", [lines_of, io.BytesIO], ids=["bytes", "byte-stream"])
    def test_csv_log_drops_one_bom(self, wrap):
        text = CSV_HEADER + CSV_ROW
        alerts, stats = parse_alerts(wrap(("\ufeff" + text).encode()), format="csv")
        assert (stats.total, stats.parsed, stats.skipped) == (1, 1, 0)
        assert alerts[0].timestamp == parse_timestamp("2018-11-03T10:00:00+00:00")
        alerts, stats = parse_alerts(wrap(("\ufeff\ufeff" + text).encode()), format="csv")
        assert (stats.total, stats.parsed, stats.skipped) == (1, 0, 1)


@given(valid_timestamps)
def test_valid_timestamps_parse(value):
    assert parse_timestamp(value).tzinfo == timezone.utc


class TestStageTable:
    def test_twenty_one_stages(self):
        assert len(AttackStage) == 21

    def test_severity_partition(self):
        by_sev = {sev: [s for s in AttackStage if s.severity == sev] for sev in Severity}
        assert len(by_sev[Severity.LOW]) == 5
        assert len(by_sev[Severity.MED]) == 10
        assert len(by_sev[Severity.HIGH]) == 6

    def test_boundary_stages(self):
        assert AttackStage.SURFING.severity == Severity.LOW
        assert AttackStage.DATA_DESTRUCTION.severity == Severity.HIGH

    @pytest.mark.parametrize("member", list(AttackStage), ids=str)
    def test_member_contract(self, member):
        # the learner's symbol ids follow str(Symbol), which embeds the repr
        assert AttackStage(member.value) is member
        assert str(member) == format(member) == member.value
        assert repr(member) == f"<AttackStage.{member.name}: {member.value!r}>"
        assert isinstance(member.severity, Severity)


def map_by(cfg, raw):
    """``raw`` mapped as a run maps it, by the ``stage_memo`` of ``cfg``'s rules."""
    return map_alert(raw, stage_memo(cfg.signature_rules), cfg.port_service)


class TestMapping:
    def test_rule_and_iana_lookup(self):
        cfg = default_mapping_config()
        raw = RawAlert(ts(0), "10.0.254.1", "10.0.0.1", 22, "ET SCAN Nmap Scripting Engine", "")
        alert = map_by(cfg, raw)
        assert alert.stage == AttackStage.SERVICE_DISC
        assert alert.service == "ssh"  # IANA registry entry for port 22
        assert alert.attacker == "10.0.254.1"
        assert alert.victim == "10.0.0.1"

    def test_catch_all_and_unknown_port(self):
        cfg = default_mapping_config()
        raw = RawAlert(ts(0), "a", "b", 6667, "Totally unheard-of signature", "")
        alert = map_by(cfg, raw)
        assert alert.stage == AttackStage.SURFING
        assert alert.service == "unknown"

    def test_first_match_wins(self):
        cfg = MappingConfig(
            signature_rules=[
                ("scan", AttackStage.SERVICE_DISC),
                ("nmap scan", AttackStage.VULN_DISC),
                ("*", AttackStage.SURFING),
            ],
            port_service={},
        )
        raw = RawAlert(ts(0), "a", "b", 1, "Nmap Scan detected", "")
        assert map_by(cfg, raw).stage == AttackStage.SERVICE_DISC

    def test_category_matching(self):
        cfg = default_mapping_config()
        raw = RawAlert(ts(0), "a", "b", 1, "GPL misc", category="Attempted Information Leak")
        assert map_by(cfg, raw).stage == AttackStage.INFO_DISC

    @pytest.mark.parametrize(
        "rules, stage",
        [
            ([("scan", AttackStage.SERVICE_DISC)], AttackStage.SURFING),
            ([("scan", AttackStage.SERVICE_DISC), ("*", AttackStage.SURFING)], AttackStage.SURFING),
            ([("scan", AttackStage.SERVICE_DISC), ("*", AttackStage.VULN_DISC)], AttackStage.VULN_DISC),
        ],
        ids=["no-catch-all", "catch-all-surfing", "catch-all-vuln-disc"],
    )
    def test_a_pair_no_pattern_matches_takes_the_catch_all_or_surfing(self, rules, stage):
        cfg = MappingConfig(signature_rules=list(rules), port_service={})
        assert cfg.signature_rules == rules  # no catch-all rule is added
        assert stage_memo(rules)["something else", ""] is stage
        assert cfg.stage_for("something else", "") is stage
        assert stage_memo(rules)["Nmap scan", ""] is AttackStage.SERVICE_DISC

    def test_rules_cannot_change_behind_the_memo(self):
        rules = [("scan", AttackStage.SERVICE_DISC), ("*", AttackStage.SURFING)]
        stages = stage_memo(rules)
        rules.insert(0, ("exploit", AttackStage.PRIV_ESC))  # after the memo was built
        assert stages["Exploit attempt", ""] == AttackStage.SURFING
        assert stage_memo(rules)["Exploit attempt", ""] == AttackStage.PRIV_ESC
        cfg = MappingConfig(signature_rules=rules, port_service={})
        with pytest.raises(AttributeError):
            cfg.signature_rules = rules

    @pytest.mark.parametrize("name", MappingConfig._fields)
    def test_fields_cannot_be_assigned(self, name):
        cfg = default_mapping_config()
        with pytest.raises(AttributeError):
            setattr(cfg, name, getattr(cfg, name))

    def test_load_signature_rules_returns_the_rules_as_read(self):
        rules = load_signature_rules(["# comment", "scan\tSERVICE_DISC", ""])
        assert rules == [("scan", AttackStage.SERVICE_DISC)]

    def test_load_signature_rules_names_the_line_of_an_unknown_stage(self):
        with pytest.raises(ValueError, match="rule line 2: unknown stage 'service_disc'"):
            load_signature_rules(["ssh\tSERVICE_DISC", "foo\tservice_disc"])

    def test_load_port_services_ranges_and_unassigned(self):
        lines = [
            "Service Name,Port Number,Transport Protocol,Description",
            "x11,6000-6002,tcp,X Window System",
            ",1023,tcp,Unassigned",
            "http,80,tcp,World Wide Web HTTP",
            "http,80,udp,World Wide Web HTTP",
            "ssh, 22 ,tcp,The Secure Shell (SSH) Protocol",
        ]
        ports = load_port_services(lines)
        assert ports[6001] == "x11"
        assert 1023 not in ports
        assert ports[80] == "http"
        assert ports[22] == "ssh"

    @pytest.mark.parametrize(
        "port_field",
        ["65530-70000", "70000", "100-90", "abc", "80-", "-1",
         "8_0", "\u0668\u0660", "\uff18\uff10", "+80", "79-8_0", "+79-80"],
    )
    def test_load_port_services_rejects_ports_no_alert_can_carry(self, port_field):
        lines = [
            "Service Name,Port Number,Transport Protocol,Description",
            "http,80,tcp,World Wide Web HTTP",
            f"x,{port_field},tcp,demo",
        ]
        with pytest.raises(ValueError, match=re.escape(f"line 3: '{port_field}'")):
            load_port_services(lines)


def oracle_stage_for(rules, signature, category):
    """Plain first-match scan over ``rules``, with no memo; SURFING when no
    rule matches."""
    haystack = (signature + "\n" + category).lower()
    for pattern, stage in rules:
        if pattern == "*" or pattern.lower() in haystack:
            return stage
    return AttackStage.SURFING


rule_lists = st.lists(
    st.tuples(
        st.one_of(st.just("*"), st.text(alphabet="abAB\n", min_size=1, max_size=3)),
        st.sampled_from(list(AttackStage)),
    ),
    max_size=6,
)
lookups = st.lists(
    st.tuples(
        st.sampled_from(["", "a", "ab", "AB", "Ba", "bab", "aBBa"]),
        st.sampled_from(["", "a", "B", "ba"]),
    ),
    max_size=25,
)


@given(rule_lists, rule_lists, lookups, lookups)
def test_memoized_stage_for_matches_scan(first_rules, second_rules, before, after):
    for rules, pairs in ((first_rules, before), (second_rules, before + after)):
        stages = stage_memo(rules)  # a fresh memo: no answer carries over
        cfg = MappingConfig(signature_rules=rules, port_service={})
        for signature, category in pairs + pairs:  # every pair is looked up again
            expected = oracle_stage_for(rules, signature, category)
            assert stages[signature, category] == cfg.stage_for(signature, category) == expected


def dedup_oracle(alerts, t):
    """Quadratic scan: drop an alert iff some prior *retained* alert with the
    same (attacker, victim, stage, service) lies strictly within t seconds."""
    retained = []
    for alert in alerts:
        key = (alert.attacker, alert.victim, alert.stage, alert.service)
        clash = any(
            (alert.timestamp - r.timestamp).total_seconds() < t
            for r in retained
            if (r.attacker, r.victim, r.stage, r.service) == key
        )
        if not clash:
            retained.append(alert)
    return retained


class TestFilterDuplicates:
    def test_empty(self):
        assert filter_duplicates([], 1.0) == []

    def test_burst_suppressed(self):
        alerts = [mk_alert(0.0), mk_alert(0.5)]
        assert filter_duplicates(alerts, 1.0) == [alerts[0]]

    def test_exact_gap_kept(self):
        alerts = [mk_alert(0.0), mk_alert(1.0)]
        assert filter_duplicates(alerts, 1.0) == alerts

    def test_measured_against_last_retained(self):
        # 0.0 kept, 0.6 dropped (gap 0.6), 1.2 kept (gap from 0.0 is 1.2)
        alerts = [mk_alert(0.0), mk_alert(0.6), mk_alert(1.2)]
        assert filter_duplicates(alerts, 1.0) == [alerts[0], alerts[2]]

    def test_unsorted_raises(self):
        with pytest.raises(ValueError):
            filter_duplicates([mk_alert(5.0), mk_alert(0.0)], 1.0)

    def test_nonpositive_t_raises(self):
        with pytest.raises(ValueError):
            filter_duplicates([], 0.0)

    @pytest.mark.parametrize("t", [math.nan, -math.inf, -1.0])
    def test_nan_or_negative_t_raises(self, t):
        # every comparison with NaN is false, so a NaN window would keep all
        with pytest.raises(ValueError):
            filter_duplicates([mk_alert(0.0), mk_alert(0.5)], t)

    def test_infinite_t_keeps_one_alert_per_key(self):
        alerts = [mk_alert(0.0), mk_alert(10_000.0), mk_alert(20_000.0, service="http")]
        assert filter_duplicates(alerts, math.inf) == [alerts[0], alerts[2]]

    def test_mixed_keys_match_oracle(self):
        rng = random.Random(42)
        alerts = sorted(
            (
                mk_alert(
                    seconds=rng.uniform(0, 20),
                    attacker=rng.choice(["a1", "a2"]),
                    victim=rng.choice(["v1", "v2"]),
                    stage=rng.choice([AttackStage.SERVICE_DISC, AttackStage.PRIV_ESC]),
                    service=rng.choice(["ssh", "http"]),
                )
                for _ in range(20)
            ),
            key=lambda a: a.timestamp,
        )
        assert filter_duplicates(alerts, 1.5) == dedup_oracle(alerts, 1.5)


alert_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=20_000),  # milliseconds
        st.sampled_from(["a1", "a2"]),
        st.sampled_from(["v1", "v2"]),
        st.sampled_from([AttackStage.SERVICE_DISC, AttackStage.DATA_EXFILTRATION]),
    ),
    max_size=40,
).map(
    lambda rows: [
        mk_alert(ms / 1000.0, attacker=a, victim=v, stage=stg)
        for ms, a, v, stg in sorted(rows, key=lambda r: r[0])
    ]
)


@given(alert_lists, st.floats(min_value=0.05, max_value=5.0))
def test_filter_idempotent(alerts, t):
    once = filter_duplicates(alerts, t)
    assert filter_duplicates(once, t) == once
    assert len(once) <= len(alerts)


@given(alert_lists)
def test_filter_matches_oracle(alerts):
    assert filter_duplicates(alerts, 1.0) == dedup_oracle(alerts, 1.0)


@given(
    st.lists(
        st.integers(min_value=0, max_value=10_000), unique=True, min_size=1, max_size=30
    )
)
def test_filter_with_tiny_t_is_identity(millis):
    alerts = [mk_alert(ms / 1000.0) for ms in sorted(millis)]
    assert filter_duplicates(alerts, 0.0005) == alerts
