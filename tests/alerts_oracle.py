"""The record path ``alerts.parse_alerts`` replaced, kept as its oracle.

Each EVE line goes through ``json.JSONDecoder().raw_decode``, and each field
through one shared memo keyed by ``(check, type(value), value)``, so equal
values of different types never share an entry. Records are built by
``raw_from_eve`` and ``raw_from_csv_row`` with the strip-first
``parse_timestamp`` below, which ``alerts.parse_timestamp`` replaced. The
field checks themselves are the module's own; ``oracle_parse_eve`` in
``test_alerts.py`` checks them against plain rewrites.

Two changes from that path: a log is the bytes of a file, not text, and a
CSV log drops a leading BOM by decoding as ``utf-8-sig``.
"""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime, timezone
from types import SimpleNamespace

from alertgraphs.alerts import (
    ParseStats,
    RawAlert,
    _address,
    _category,
    _port,
    _text,
)

RECORD_ERRORS = (ValueError, KeyError, TypeError, AttributeError, OverflowError, RecursionError)
JSON_WHITESPACE = " \t\n\r"
decode_json = json.JSONDecoder().raw_decode


def parse_timestamp(value: str) -> datetime:
    """Strip ``value``, read a ``Z`` or ``z`` suffix as ``+00:00``, parse it
    with ``fromisoformat`` and normalize it to UTC, a naive one taken as UTC."""
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        return dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


class Checked(dict):
    """``checked[check, type(value), value]`` is ``check(value)``, run once per key."""

    def __missing__(self, key):
        check, _, value = key
        checked = self[key] = check(value)
        return checked


def raw_alert(timestamp, src_ip, dst_ip, port, signature, category, checked: Checked) -> RawAlert:
    return RawAlert(
        parse_timestamp(timestamp),
        checked[_address, type(src_ip), src_ip],
        checked[_address, type(dst_ip), dst_ip],
        checked[_port, type(port), port],
        checked[_text, type(signature), signature],
        checked[_category, type(category), category],
    )


def raw_from_eve(record: dict, checked: Checked) -> RawAlert | None:
    if record.get("event_type") != "alert":
        return None
    alert = record["alert"]
    return raw_alert(
        record["timestamp"],
        record["src_ip"],
        record["dest_ip"],
        record.get("dest_port", 0),
        alert["signature"],
        alert.get("category"),
        checked,
    )


def raw_from_csv_row(row: dict, checked: Checked) -> RawAlert:
    return raw_alert(
        row["timestamp"],
        (row["src_ip"] or "").strip(),
        (row["dst_ip"] or "").strip(),
        row["dst_port"],
        row["signature"],
        row.get("category"),
        checked,
    )


def oracle_parse_alerts(source: bytes, format: str) -> tuple[list[RawAlert], ParseStats]:
    stats = SimpleNamespace(total=0, parsed=0, skipped=0)  # counted in place
    alerts: list[RawAlert] = []
    checked = Checked()
    if format == "eve-json":
        for line in io.BytesIO(source):
            if not line.strip():
                continue
            stats.total += 1
            try:
                text = line.decode("utf-8").strip(JSON_WHITESPACE)
                record, end = decode_json(text)
                if end != len(text):
                    raise ValueError("extra data after the JSON value")
                raw = raw_from_eve(record, checked)
            except RECORD_ERRORS:
                raw = None
            if raw is None:
                stats.skipped += 1
            else:
                alerts.append(raw)
                stats.parsed += 1
        return alerts, ParseStats(**vars(stats))
    lines = io.TextIOWrapper(
        io.BytesIO(source), encoding="utf-8-sig", errors="surrogateescape", newline="\n"
    )
    rows = csv.DictReader(lines)
    try:
        "".join(rows.fieldnames or ()).encode("utf-8")
    except (csv.Error, UnicodeEncodeError):
        rows.fieldnames = ()
    while True:
        try:
            row = next(rows)
        except StopIteration:
            break
        except csv.Error:
            stats.total += 1
            stats.skipped += 1
            continue
        stats.total += 1
        try:
            raw = raw_from_csv_row(row, checked)
        except RECORD_ERRORS:
            stats.skipped += 1
        else:
            alerts.append(raw)
            stats.parsed += 1
    return alerts, ParseStats(**vars(stats))
