"""Alert ingestion: parse IDS alert logs, map alerts to attack stages and
targeted services, and suppress near-duplicate alerts.

Supported input formats:

* ``eve-json`` -- Suricata EVE, one JSON record per line; records with
  ``event_type == "alert"`` are consumed, everything else is counted as
  skipped.
* ``csv`` -- header ``timestamp,src_ip,dst_ip,dst_port,signature,category``.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import pkgutil
from datetime import datetime, timezone
from operator import gt, itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .stages import AttackStage

DEFAULT_STAGE = AttackStage.SURFING
CATCH_ALL_PATTERN = "*"
UNKNOWN_SERVICE = "unknown"
FORMATS = ("eve-json", "csv")  # the input formats parse_alerts reads


def parse_timestamp(value: str) -> datetime:
    """Parse an alert timestamp into a UTC-normalized datetime.

    Accepts what ``datetime.fromisoformat`` accepts, such as a ``+0000``
    offset (Suricata's default), with surrounding whitespace and a ``Z`` or
    ``z`` suffix, which is read as ``+00:00``. Naive timestamps are assumed
    to be UTC. Most timestamps take one ``fromisoformat`` call; only what it
    rejects is stripped and its ``z`` rewritten, which reads the same
    instant wherever both parse.
    """
    try:
        dt = _fromisoformat(value)
    except (ValueError, TypeError):
        text = value.strip()
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        dt = _fromisoformat(text)
    tzinfo = dt.tzinfo
    if tzinfo is None:
        return dt.replace(tzinfo=timezone.utc)
    # astimezone would return an already-UTC result unchanged
    return dt if tzinfo is timezone.utc else dt.astimezone(timezone.utc)


# one global lookup per record, not a global and an attribute
_fromisoformat = datetime.fromisoformat


class RawAlert(NamedTuple):
    """One parsed alert record, before stage and service mapping.

    Both alert records are named tuples: immutable, hashable, compared by
    value, without a ``__dict__``, and built by ``tuple.__new__`` in C. Like
    any tuple, a record also equals a plain tuple of the same values.
    """

    timestamp: datetime
    src_ip: str
    dst_ip: str
    dst_port: int
    signature: str
    category: str


class Alert(NamedTuple):
    """One mapped alert: who attacked whom, at which stage, on which service."""

    timestamp: datetime
    attacker: str
    victim: str
    stage: AttackStage
    service: str


# builds a record from a tuple of all its fields without the Python-level
# __new__ of a named tuple, in the per-record loops
_new_record = tuple.__new__


def checked(cls):
    """Run ``cls._check`` on each named tuple built: by a call, ``_make``, ``_replace``,
    a copy or an unpickling at any protocol, all through ``__new__``."""
    new = cls.__new__

    def __new__(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    __new__.__wrapped__ = new  # so help() shows the fields
    cls.__new__ = __new__
    cls._make, cls.__reduce__ = _checked_make(cls._make), _reduce
    return cls


def _checked_make(make):  # a named tuple's _make refuses a wrong count; so _replace checks too
    return classmethod(lambda cls, values: cls(*make(values)))


def _reduce(self):  # a copy or unpickling calls the class: protocols 0 and 1 would not
    return type(self), tuple(self)


class ParseStats(NamedTuple):
    total: int = 0
    parsed: int = 0
    skipped: int = 0


class MappingConfig(NamedTuple):
    """Ordered signature rules plus a port->service registry.

    Each rule is ``(pattern, stage)``; the first rule whose pattern occurs
    (case-insensitively) in the alert signature or category wins. The
    pattern ``*`` matches everything, and a pair that no rule matches maps
    to SURFING. A run maps its alerts through one ``stage_memo`` of the rules.
    """

    signature_rules: Sequence[tuple[str, AttackStage]]
    port_service: Mapping[int, str]

    def stage_for(self, signature: str, category: str) -> AttackStage:
        return stage_memo(self.signature_rules)[signature, category]

    def service_for(self, port: int) -> str:
        return self.port_service.get(port, UNKNOWN_SERVICE)


def stage_memo(rules: Iterable[tuple[str, AttackStage]]) -> _Memo:
    """``memo[signature, category]`` is the stage ``rules`` give that pair,
    scanned once per distinct pair. The patterns are lowered as the memo is
    built, so a later change to ``rules`` does not reach it."""
    # the catch-all becomes the empty pattern, which every haystack contains
    lowered = [("" if pattern == CATCH_ALL_PATTERN else pattern.lower(), stage)
               for pattern, stage in rules]

    def scan(key: tuple[str, str]) -> AttackStage:
        haystack = "\n".join(key).lower()
        for pattern, stage in lowered:
            if pattern in haystack:
                return stage
        return DEFAULT_STAGE

    return _Memo(scan)


def load_signature_rules(lines: Iterable[str]) -> list[tuple[str, AttackStage]]:
    """Read rules from ``PATTERN<TAB>STAGE_ACRONYM`` lines.

    Blank lines and ``#`` comments are ignored; the rules are returned as
    read.
    """
    rules: list[tuple[str, AttackStage]] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        try:
            pattern, acronym = line.split("\t")
        except ValueError as exc:
            raise ValueError(f"rule line {lineno}: expected PATTERN<TAB>STAGE") from exc
        pattern = pattern.strip()
        if not pattern:
            raise ValueError(f"rule line {lineno}: empty pattern")
        acronym = acronym.strip()
        try:
            rules.append((pattern, AttackStage(acronym)))
        except ValueError as exc:
            raise ValueError(f"rule line {lineno}: unknown stage {acronym!r}") from exc
    return rules


def load_port_services(lines: Iterable[str]) -> dict[int, str]:
    """Read an IANA-format service registry (Service Name / Port Number columns).

    Port ranges (``6000-6063``) are expanded; rows without a port number or
    marked Unassigned are dropped. The first name registered for a port wins.
    A port or range end that is not ASCII digits or lies outside 0-65535, or
    a range whose low end is above its high end, raises ``ValueError``: no
    alert can carry such a port.
    """
    ports: dict[int, str] = {}
    reader = csv.DictReader(lines)
    for row in reader:
        name = (row.get("Service Name") or "").strip()
        port_field = (row.get("Port Number") or "").strip()
        description = (row.get("Description") or "").strip()
        if not name or not port_field or "unassigned" in description.lower():
            continue
        bounds = port_field.split("-", 1)
        try:
            low, high = _port_digits(bounds[0]), _port_digits(bounds[-1])
        except ValueError:
            low = high = -1  # not ASCII digits: reported below with its line
        if not 0 <= low <= high <= 65535:
            raise ValueError(
                f"port registry line {reader.line_num}: {port_field!r} is not a port"
                " or a low-high range within 0-65535"
            )
        for port in range(low, high + 1):
            ports.setdefault(port, name)
    return ports


def default_mapping_config() -> MappingConfig:
    """Mapping config backed by the bundled rule file and service registry."""
    # pkgutil, not importlib.resources, which from Python 3.12 imports inspect
    def lines(name: str) -> list[str]:
        return pkgutil.get_data(__package__, "data/" + name).decode("utf-8").splitlines()

    rules = load_signature_rules(lines("signature_rules.tsv"))
    ports = load_port_services(lines("service_names.csv"))
    return MappingConfig(signature_rules=rules, port_service=ports)


class _Memo(dict):
    """``memo[value]`` is ``check(value)``, run once per distinct value.

    A log repeats a few addresses, signatures, categories and ports across
    millions of records: each distinct value of a field is checked once per
    parse, and every record holding it shares the object its check returned.
    Only values that pass are stored. A key is the value alone, so two values
    that compare equal must check alike. Among JSON and CSV values, a string
    equals only a string and ``None`` only ``None``, and equal numbers, such
    as ``1`` and ``1.0`` or ``0`` and ``-0.0``, give one port. Only a ``bool``
    port breaks the rule (``True == 1``, yet ``True`` is no port), so
    ``_raw_alert`` checks a ``bool`` port without its memo. The ingest stage
    keeps one more per run, the ``stage_memo`` of each ``(signature,
    category)`` pair's stage; the text artifacts keep one of each name's escapes
    (``episodes.escaped``) and of each DOT vertex's text (``graphs.vertex_texts``);
    ``episodes.to_symbols`` keeps one ``Symbol`` per (stage, service).
    """

    __slots__ = ("check",)

    def __init__(self, check):
        self.check = check

    def __missing__(self, value):
        checked = self[value] = self.check(value)
        return checked


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError("signature and category must be strings")
    # a lone surrogate, from a JSON escape or an undecodable CSV byte, is not
    # UTF-8 text: UnicodeEncodeError skips the record
    value.encode("utf-8")
    return value


def _category(value) -> str:
    return "" if value is None else _text(value)


def _address(value) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError("an address must be a non-empty string")
    return _text(value)


def _port_digits(text: str) -> int:
    """A port written as text: ASCII digits once whitespace is stripped.
    ``int`` alone would also read ``"8_0"``, ``"+80"`` and ``"٨٠"`` as 80."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not a port number")
    return int(digits)


def _port(value) -> int:
    """``value`` as a port; strings of ASCII digits and integral floats are accepted."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("a port must be an integer")
    port = _port_digits(value) if isinstance(value, str) else int(value)
    if not 0 <= port <= 65535:
        raise ValueError(f"dst_port out of range: {port}")
    return port


def _raw_alert(timestamp, src_ip, dst_ip, port, signature, category, memo) -> RawAlert:
    """One checked record from its six field values, as ``parse_timestamp``
    and the field checks give it; ``memo`` holds the ``_Memo`` of the
    addresses, ports, signatures and categories of one parse."""
    addresses, ports, signatures, categories = memo
    return _new_record(RawAlert, (
        parse_timestamp(timestamp),
        addresses[src_ip],
        addresses[dst_ip],
        _port(port) if type(port) is bool else ports[port],
        signatures[signature],
        categories[category],
    ))


# What one malformed record can raise: OverflowError from an offset that moves
# a timestamp outside years 1-9999, RecursionError from deeply nested JSON,
# StopIteration from a line where no JSON value starts.
_RECORD_ERRORS = (
    ValueError, KeyError, TypeError, AttributeError, OverflowError, RecursionError, StopIteration
)

# the C scanner that json.loads runs, called without its Python wrappers
_scan_json = json.JSONDecoder().scan_once
_JSON_WHITESPACE = " \t\n\r"


def parse_alerts(source: Iterable[bytes], format: str) -> tuple[list[RawAlert], ParseStats]:
    """Parse raw alerts from the ``bytes`` lines of ``source``, such as a log
    file opened ``"rb"``.

    Returns alerts in input order plus counters. Malformed records are
    skipped and counted, never silently dropped; non-alert EVE events count
    as skipped as well. A blank EVE line, one of ASCII whitespace only, is
    ignored entirely, as is an empty CSV line; a line of other whitespace,
    such as U+0085, U+2028 or U+3000, is one skipped record. A ``str``, a
    ``bytes`` object or a text stream raises ``TypeError``, as does any line
    that is not ``bytes``: it is no record of the log.

    An EVE line is accepted exactly when ``json.loads`` accepts it: that call
    skips JSON whitespace (space, tab, LF, CR) around one value and rejects
    anything else there, a BOM included. No value begins or ends with such
    whitespace, so stripping it and requiring the value to reach the end of
    the stripped line accepts the same lines; other whitespace, such as a
    form feed or U+0085, stays in the line and rejects it either way. The
    scanner raises ``StopIteration`` where no value starts, which skips the
    record; this function is no generator, so that exception stays itself.

    A CSV log drops one BOM (U+FEFF) before its header.
    """
    if isinstance(source, (str, bytes, io.TextIOBase)):
        raise TypeError("parse_alerts reads the bytes lines of a binary stream")
    alerts: list[RawAlert] = []
    total = skipped = 0
    memo = _Memo(_address), _Memo(_port), _Memo(_text), _Memo(_category)
    if format == "eve-json":
        for line in source:
            if not bytes.strip(line):  # a line of another type raises TypeError
                continue
            total += 1
            try:
                # a bad byte skips this record only
                text = line.decode("utf-8").strip(_JSON_WHITESPACE)
                record, end = _scan_json(text, 0)
                if end != len(text):
                    raise ValueError("extra data after the JSON value")
                if record.get("event_type") == "alert":
                    alert = record["alert"]
                    alerts.append(_raw_alert(
                        record["timestamp"],
                        record["src_ip"],
                        record["dest_ip"],
                        record.get("dest_port", 0),  # port-less protocols (ICMP) map to 0
                        alert["signature"],
                        alert.get("category"),
                        memo,
                    ))
                    continue
            except _RECORD_ERRORS:
                pass
            skipped += 1  # a malformed record or another event type
    elif format == "csv":
        # an undecodable byte becomes a lone surrogate, which skips its row;
        # records split on "\n" only. No UTF-8 sequence holds that byte, so
        # each line decodes alone, and no wrapper is left to close the
        # caller's stream when it is freed; a line of another type raises TypeError
        lines = (bytes.decode(line, "utf-8", "surrogateescape") for line in source)
        header = next(lines, "").removeprefix("\ufeff")
        rows = csv.DictReader(itertools.chain((header,), lines))
        try:
            # the first line is the header whatever it holds; one the reader
            # cannot read, or with a name that is not UTF-8 text, names no
            # column, so every row is skipped, as a garbled required column is
            "".join(rows.fieldnames or ()).encode("utf-8")
        except (csv.Error, UnicodeEncodeError):
            rows.fieldnames = ()
        while True:
            try:
                row = next(rows)
            except StopIteration:
                break
            except csv.Error:
                # an oversized field or a carriage return in an unquoted field:
                # the reader drops this row and resumes at the next line
                total += 1
                skipped += 1
                continue
            total += 1
            try:
                # a short row holds None in its missing fields
                alerts.append(_raw_alert(
                    row["timestamp"],
                    (row["src_ip"] or "").strip(),
                    (row["dst_ip"] or "").strip(),
                    row["dst_port"],
                    row["signature"],
                    row.get("category"),
                    memo,
                ))
            except _RECORD_ERRORS:
                skipped += 1
    else:
        raise ValueError(f"unknown alert format: {format!r}")
    return alerts, ParseStats(total, total - skipped, skipped)


def map_alert(raw: RawAlert, stages: _Memo, services: Mapping[int, str]) -> Alert:
    """Assign the attack stage and targeted service to one raw alert, from
    the ``stage_memo`` of a run's rules and its port registry."""
    timestamp, src_ip, dst_ip, dst_port, signature, category = raw
    service = services.get(dst_port, UNKNOWN_SERVICE)
    return _new_record(Alert, (timestamp, src_ip, dst_ip, stages[signature, category], service))


_TIMESTAMP = itemgetter(0)  # of either record


def _check_sorted(alerts: list) -> None:
    """Refuse records, raw or mapped, that are not sorted by timestamp ascending."""
    if any(map(gt, map(_TIMESTAMP, alerts), map(_TIMESTAMP, itertools.islice(alerts, 1, None)))):
        raise ValueError("alerts must be sorted by timestamp ascending")


def filter_duplicates(alerts: list[Alert], t: float) -> list[Alert]:
    """Drop alerts repeating an identical (attacker, victim, stage, service)
    less than ``t`` seconds, by the gap's ``total_seconds()``, after the last
    *retained* alert of that key.

    Input must be sorted by timestamp ascending; order is preserved. ``t``
    must be a positive number; NaN is rejected, since no gap is below it.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    _check_sorted(alerts)
    last_kept: dict[tuple[str, str, AttackStage, str], datetime] = {}
    kept: list[Alert] = []
    for alert in alerts:
        timestamp = alert[0]
        key = alert[1:]  # (attacker, victim, stage, service)
        last = last_kept.get(key)
        if last is not None and (timestamp - last).total_seconds() < t:
            continue
        last_kept[key] = timestamp
        kept.append(alert)
    return kept
