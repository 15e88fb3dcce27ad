"""Summary statistics over the pipeline outputs: workload reduction per team,
attacker ranking by unique vertex discovery, and repeat-attempt shortening.

A team here is an attacker identifier; teams discover a vertex when one of
their edges is incident to it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add, attrgetter
from typing import Iterable, Sequence

from .alerts import Alert
from .episodes import Episode, EpisodeSequence, EpisodeSubSequence
from .graphs import AttackGraph, VertexKey, simplicity
from .stages import Severity


@dataclass
class TeamStats:
    team: str
    raw_alerts: int
    filtered_alerts: int
    episodes: int
    sequence_count: int
    subsequence_count: int
    ag_count: int


@dataclass
class TeamScore:
    team: str
    severe_vertices: int
    medium_vertices: int
    severe_total: int
    medium_total: int
    score: float

    @property
    def severe_pct(self) -> int:
        """Share of all severe vertices this team found, in whole percent."""
        return _round_half_up(100.0 * self.severe_vertices / self.severe_total)

    @property
    def medium_pct(self) -> int:
        """Share of all medium vertices this team found, in whole percent."""
        return _round_half_up(100.0 * self.medium_vertices / self.medium_total)


def _round_half_up(value: float) -> int:
    return math.floor(value + 0.5)


def score_from_counts(
    severe_vertices: int, severe_total: int, medium_vertices: int, medium_total: int
) -> float:
    """Weighted discovery score: percentages are rounded to whole numbers
    first, then (2*sev% + med%) / 3 is rounded half-up to two decimals, in integers."""
    sev_pct = _round_half_up(100.0 * severe_vertices / severe_total)
    med_pct = _round_half_up(100.0 * medium_vertices / medium_total)
    return (200 * (2 * sev_pct + med_pct) + 3) // 6 / 100


def workload_stats(
    raw_alerts: Iterable[Alert],
    filtered_alerts: Iterable[Alert],
    episodes: Iterable[Episode],
    sequences: Iterable[EpisodeSequence],
    subsequences: Iterable[EpisodeSubSequence],
    ags: Iterable[AttackGraph],
) -> list[TeamStats]:
    """Per-team tallies of every pipeline stage; AGs count toward every team
    appearing in them, so AG counts may overlap across teams."""
    tallies = [  # in TeamStats field order
        Counter(map(attrgetter("attacker"), raw_alerts)),
        Counter(map(attrgetter("attacker"), filtered_alerts)),
        Counter(map(attrgetter("attacker"), episodes)),
        Counter(map(attrgetter("attacker"), sequences)),
        Counter(ess.parent[0] for ess in subsequences),
        Counter(team for ag in ags for team in ag.teams),
    ]
    teams = sorted(set().union(*tallies))
    return [TeamStats(team, *(tally[team] for tally in tallies)) for team in teams]


def _discovery(ags: Sequence[AttackGraph]):
    severe: set[VertexKey] = set()
    medium: set[VertexKey] = set()
    by_team: dict[str, set[VertexKey]] = {}
    for ag in ags:
        for triple, vertex in ag.vertices.items():
            if vertex.stage.severity == Severity.HIGH:
                severe.add(triple)
            elif vertex.stage.severity == Severity.MED:
                medium.add(triple)
        for edge in ag.edges:
            team = by_team.setdefault(edge.team, set())
            team.add(edge.src)
            team.add(edge.dst)
    return severe, medium, by_team


def rank_teams(ags: Sequence[AttackGraph]) -> list[TeamScore]:
    """Teams ranked by the weighted fraction of unique severe/medium vertices
    they discovered, highest score first."""
    severe, medium, by_team = _discovery(ags)
    if not severe or not medium:
        raise ValueError("ranking requires both high- and medium-severity vertices")
    scores = []
    for team, found in sorted(by_team.items()):
        sev_found = len(found & severe)
        med_found = len(found & medium)
        scores.append(
            TeamScore(
                team=team,
                severe_vertices=sev_found,
                medium_vertices=med_found,
                severe_total=len(severe),
                medium_total=len(medium),
                score=score_from_counts(sev_found, len(severe), med_found, len(medium)),
            )
        )
    scores.sort(key=lambda s: (-s.score, s.team))
    return scores


def shorter_repeat_ratio(ags: Sequence[AttackGraph]) -> float | None:
    """Percentage of consecutive repeat attempts that got strictly shorter.

    Pairs are consecutive attempts by the same team against the same
    objective key; length is the attempt's vertex count. None when no team
    made a repeat attempt anywhere.
    """
    pairs = 0
    shorter = 0
    for ag in ags:
        attempts = sorted(ag.attempts, key=attrgetter("team", "index"))
        for first, second in zip(attempts, attempts[1:]):
            if first.team == second.team:
                pairs += 1
                if len(second.vertices) < len(first.vertices):
                    shorter += 1
    if pairs == 0:
        return None
    return 100.0 * shorter / pairs


def graph_summary(ags: Sequence[AttackGraph]) -> dict:
    """Aggregate AG statistics: count, mean vertex count, mean simplicity;
    floats are added left to right, as ``sum`` did before Python 3.12."""
    if not ags:
        return {"ag_count": 0, "mean_vertices": None, "mean_simplicity": None}
    simplicities = [s for s in (simplicity(ag) for ag in ags) if s is not None]
    mean_simplicity = reduce(add, simplicities, 0.0) / len(simplicities) if simplicities else None
    return {
        "ag_count": len(ags),
        "mean_vertices": sum(len(ag.vertices) for ag in ags) / len(ags),
        "mean_simplicity": mean_simplicity,
    }
