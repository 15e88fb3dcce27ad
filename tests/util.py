"""Shared builders for the test suite."""

from __future__ import annotations

import re

from datetime import datetime, timedelta, timezone

from alertgraphs.alerts import Alert
from alertgraphs.analytics import GraphTally
from alertgraphs.episodes import Episode
from alertgraphs.graphs import (
    AttackGraph,
    IndexRow,
    ObjectiveKey,
    ag_filename,
    extract_ag,
    find_objectives,
    index_row,
    team_start_times,
)
from alertgraphs.stages import AttackStage, Severity

BASE = datetime(2018, 11, 3, 10, 0, 0, tzinfo=timezone.utc)

LOW_STAGES = [s for s in AttackStage if s.severity == Severity.LOW]
MED_STAGES = [s for s in AttackStage if s.severity == Severity.MED]
HIGH_STAGES = [s for s in AttackStage if s.severity == Severity.HIGH]


def ts(seconds: float) -> datetime:
    return BASE + timedelta(seconds=seconds)


def mk_alert(
    seconds: float,
    attacker: str = "10.0.254.1",
    victim: str = "10.0.0.1",
    stage: AttackStage = AttackStage.SERVICE_DISC,
    service: str = "ssh",
) -> Alert:
    return Alert(
        timestamp=ts(seconds),
        attacker=attacker,
        victim=victim,
        stage=stage,
        service=service,
    )


def mk_episode(
    st: float,
    et: float | None = None,
    stage: AttackStage = AttackStage.SERVICE_DISC,
    service: str = "ssh",
    attacker: str = "10.0.254.1",
    victim: str = "10.0.0.1",
    alert_count: int = 1,
) -> Episode:
    return Episode(
        st=ts(st),
        et=ts(st if et is None else et),
        stage=stage,
        service=service,
        alert_count=alert_count,
        attacker=attacker,
        victim=victim,
    )


def draw_ag(key: ObjectiveKey, sequences, sink_ids: frozenset[int] = frozenset()) -> AttackGraph:
    """The graph of ``key`` drawn as the graphs stage draws it: its attempts
    cut by ``find_objectives`` and team start times taken over ``sequences``."""
    return extract_ag(key, find_objectives(sequences)[key], sink_ids, team_start_times(sequences))


def fold_ags(ags) -> tuple[list[IndexRow], GraphTally]:
    """The index rows of ``ags``, in the order given, and their run-wide
    tally, as the graphs stage makes them once each graph is written."""
    rows, tally = [], GraphTally()
    for ag in ags:
        rows.append(index_row(ag_filename(ag.key), ag))
        tally.add(ag)
    return rows, tally


def stage_of(letter: str) -> AttackStage:
    """Map a severity letter (L/M/H) to a representative stage."""
    return {
        "L": AttackStage.SERVICE_DISC,
        "M": AttackStage.PRIV_ESC,
        "H": AttackStage.DATA_EXFILTRATION,
    }[letter]


_DOT_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')


def dot_strings(dot: str) -> list[str]:
    """Every quoted string of a DOT text with ``\\"`` and ``\\\\`` unescaped.

    Fails on a quote that does not open or close a well-formed string.
    """
    found = []
    for line in dot.splitlines():
        assert '"' not in _DOT_STRING.sub("", line), line
        found.extend(re.sub(r'\\(["\\])', r"\1", s) for s in _DOT_STRING.findall(line))
    return found
