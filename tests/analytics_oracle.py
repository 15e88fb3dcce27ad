"""The graph statistics as they were computed from whole attack graphs, kept
as oracles for the index rows and the run-wide ``GraphTally`` that replaced
them: the stats stage used to walk every ``AttackGraph`` of the run, each one
alive until the run ended.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from operator import add

from alertgraphs.analytics import TeamScore
from alertgraphs.episodes import TEAM_ESCAPES, escaped
from alertgraphs.stages import Severity


def simplicity_oracle(ag):
    """|V| / |E| of a whole graph; None when it has no edge."""
    if not ag.edges:
        return None
    return len(ag.vertices) / len(ag.edges)


def rank_teams_oracle(ags):
    severe, medium, by_team = set(), set(), {}
    for ag in ags:
        for triple in ag.vertices:
            if triple[0].severity == Severity.HIGH:
                severe.add(triple)
            elif triple[0].severity == Severity.MED:
                medium.add(triple)
        for edge in ag.edges:
            team = by_team.setdefault(edge.team, set())
            team.add(edge.src)
            team.add(edge.dst)
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
            )
        )
    scores.sort(key=lambda s: (-s.score, s.team))
    return scores


def shorter_repeat_ratio_oracle(ags):
    pairs = 0
    shorter = 0
    for ag in ags:
        # (team, attempt number, length): an attempt's number is its place
        # among its team's in the list
        numbers, attempts = Counter(), []
        for attempt in ag.attempts:
            numbers[attempt.team] += 1
            attempts.append((attempt.team, numbers[attempt.team], len(attempt.vertices)))
        attempts.sort()
        for first, second in zip(attempts, attempts[1:]):
            if first[0] == second[0]:
                pairs += 1
                if second[2] < first[2]:
                    shorter += 1
    if pairs == 0:
        return None
    return 100.0 * shorter / pairs


def graph_summary_oracle(ags):
    if not ags:
        return {"ag_count": 0, "mean_vertices": None, "mean_simplicity": None}
    simplicities = [s for s in (simplicity_oracle(ag) for ag in ags) if s is not None]
    mean_simplicity = reduce(add, simplicities, 0.0) / len(simplicities) if simplicities else None
    return {
        "ag_count": len(ags),
        "mean_vertices": sum(len(ag.vertices) for ag in ags) / len(ags),
        "mean_simplicity": mean_simplicity,
    }


def render_index_oracle(entries):
    """The index of ``(file name, graph)`` entries, in the order given."""
    names, teams = escaped(), escaped(table=TEAM_ESCAPES)
    lines = [
        "# attack graph index; adjacent episodes mapping to an identical",
        "# (stage, service, state) triple are collapsed into one vertex",
        "file\tvictim\tstage\tservice\tvertices\tedges\tsimplicity\tteams",
    ]
    for filename, ag in entries:
        simp = simplicity_oracle(ag)
        lines.append(
            "\t".join(
                [
                    names[filename],
                    names[ag.key.victim],
                    ag.key.stage.value,
                    names[ag.key.service],
                    str(len(ag.vertices)),
                    str(len(ag.edges)),
                    "NA" if simp is None else f"{simp:.4f}",
                    ",".join([teams[team] for team in ag.teams]),
                ]
            )
        )
    return "\n".join(lines) + "\n"
