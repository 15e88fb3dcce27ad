"""Summary statistics over the pipeline outputs: workload reduction per team,
attacker ranking by unique vertex discovery, and repeat-attempt shortening.

A team here is an attacker identifier; teams discover a vertex when one of
their edges is incident to it.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from functools import reduce
from operator import add, attrgetter
from typing import Iterable, NamedTuple, Sequence

from .alerts import Alert
from .episodes import Episode, EpisodeSequence, EpisodeSubSequence
from .graphs import AttackGraph, IndexRow, VertexKey, simplicity
from .stages import Severity


class TeamStats(NamedTuple):
    team: str
    raw_alerts: int
    filtered_alerts: int
    episodes: int
    sequence_count: int
    subsequence_count: int
    ag_count: int


class TeamScore(NamedTuple):
    """A team's share of the severe and medium vertices and its weighted
    discovery score: the shares are rounded to whole percent first, then
    (2*sev% + med%) / 3 is rounded half-up to two decimals, in integers.
    The shares and the score are worked out from the four counts, never given."""

    team: str
    severe_vertices: int
    medium_vertices: int
    severe_total: int
    medium_total: int

    @property
    def severe_pct(self) -> int:
        """Share of all severe vertices this team found, in whole percent."""
        return _round_half_up(100.0 * self.severe_vertices / self.severe_total)

    @property
    def medium_pct(self) -> int:
        """Share of all medium vertices this team found, in whole percent."""
        return _round_half_up(100.0 * self.medium_vertices / self.medium_total)

    @property
    def score(self) -> float:
        return (200 * (2 * self.severe_pct + self.medium_pct) + 3) // 6 / 100


def _round_half_up(value: float) -> int:
    return math.floor(value + 0.5)


def workload_stats(
    raw_alerts: Iterable[Alert],
    filtered_alerts: Iterable[Alert],
    episodes: Iterable[Episode],
    sequences: Iterable[EpisodeSequence],
    subsequences: Iterable[EpisodeSubSequence],
    rows: Iterable[IndexRow],
) -> list[TeamStats]:
    """Per-team tallies of every pipeline stage; a graph, given by its index
    row, counts toward every team appearing in it, so graph counts may
    overlap across teams."""
    tallies = [  # in TeamStats field order
        Counter(map(attrgetter("attacker"), raw_alerts)),
        Counter(map(attrgetter("attacker"), filtered_alerts)),
        Counter(map(attrgetter("attacker"), episodes)),
        Counter(map(attrgetter("attacker"), sequences)),
        Counter(ess.parent[0] for ess in subsequences),
        Counter(team for *_, teams in rows for team in teams),
    ]
    teams = sorted(set().union(*tallies))
    return [TeamStats(team, *(tally[team] for tally in tallies)) for team in teams]


class GraphTally:
    """What the stats stage reads of a run's attack graphs, folded in one
    graph at a time by ``add``, so that no graph outlives its DOT file: the
    distinct severe and medium vertex triples, the triples each team's edges
    touch, and the consecutive same-team attempt pairs at one objective with
    how many of them got strictly shorter."""

    __slots__ = ("severe", "medium", "found", "pairs", "shorter")

    def __init__(self) -> None:
        self.severe: set[VertexKey] = set()
        self.medium: set[VertexKey] = set()
        self.found: defaultdict[str, set[VertexKey]] = defaultdict(set)  # by team
        self.pairs = 0
        self.shorter = 0

    def add(self, ag: AttackGraph) -> None:
        """Fold one graph in; a triple already held is kept once."""
        for triple in ag.vertices:
            severity = triple[0].severity
            if severity == Severity.HIGH:
                self.severe.add(triple)
            elif severity == Severity.MED:
                self.medium.add(triple)
        found = self.found
        for src, dst, team, _ in ag.edges:
            seen = found[team]
            seen.add(src)
            seen.add(dst)
        attempts = sorted(ag.attempts, key=attrgetter("team", "index"))
        for first, second in zip(attempts, attempts[1:]):
            if first.team == second.team:
                self.pairs += 1
                self.shorter += len(second.vertices) < len(first.vertices)


def rank_teams(tally: GraphTally) -> list[TeamScore]:
    """Teams ranked by the weighted fraction of unique severe/medium vertices
    they discovered, highest score first."""
    severe, medium = tally.severe, tally.medium
    if not severe or not medium:
        raise ValueError("ranking requires both high- and medium-severity vertices")
    scores = [
        TeamScore(team, len(found & severe), len(found & medium), len(severe), len(medium))
        for team, found in tally.found.items()
    ]
    scores.sort(key=lambda s: (-s.score, s.team))
    return scores


def shorter_repeat_ratio(tally: GraphTally) -> float | None:
    """Percentage of consecutive repeat attempts that got strictly shorter.

    Pairs are consecutive attempts by the same team against the same
    objective key; length is the attempt's vertex count. None when no team
    made a repeat attempt anywhere.
    """
    if tally.pairs == 0:
        return None
    return 100.0 * tally.shorter / tally.pairs


def graph_summary(rows: Sequence[IndexRow]) -> dict:
    """Aggregate AG statistics from the index rows: count, mean vertex count,
    mean simplicity; floats are added left to right, as ``sum`` did before
    Python 3.12."""
    if not rows:
        return {"ag_count": 0, "mean_vertices": None, "mean_simplicity": None}
    simplicities = [
        s for s in (simplicity(vertices, edges) for _, _, vertices, edges, _ in rows) if s is not None
    ]
    mean_simplicity = reduce(add, simplicities, 0.0) / len(simplicities) if simplicities else None
    return {
        "ag_count": len(rows),
        "mean_vertices": sum(vertices for _, _, vertices, _, _ in rows) / len(rows),
        "mean_simplicity": mean_simplicity,
    }
