"""Per-victim, per-objective attack graphs extracted from state-annotated
episode sequences, plus DOT emission and the simplicity metric.

An objective is a high-severity (stage, service) observed against a victim;
each distinct automaton state of that episode becomes a separate
objective-variant vertex. Every attacker attempt at the objective appears as
its own path ending at the variant it reached.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .automaton import OUT_OF_MODEL, AnnotatedSequence, dot_quote
from .episodes import TEAM_ESCAPES, Episode, Escaped
from .stages import AttackStage, Severity

VertexKey = tuple[AttackStage, str, int]  # (stage, service, state id)
Attempt = tuple[str, int, list[tuple[Episode, int]]]  # (team, 1-based number, entries)


@dataclass(frozen=True, order=True)
class ObjectiveKey:
    victim: str
    stage: AttackStage
    service: str

    def __post_init__(self):
        if self.stage.severity != Severity.HIGH:
            raise ValueError(f"objective stage must be high severity: {self.stage}")


@dataclass
class AgVertex:
    stage: AttackStage
    service: str
    sid: int
    is_objective_variant: bool = False
    is_sink: bool = False
    is_path_start: bool = False

    @property
    def severity(self) -> Severity:
        return self.stage.severity


@dataclass(frozen=True)
class AgEdge:
    src: VertexKey
    dst: VertexKey
    team: str
    seconds_since_first_alert: int


@dataclass
class AttemptPath:
    team: str
    index: int  # 1-based per (team, sequence)
    vertices: list[VertexKey]


@dataclass
class AttackGraph:
    key: ObjectiveKey
    vertices: dict[VertexKey, AgVertex]
    edges: list[AgEdge]
    attempts: list[AttemptPath]
    teams: tuple[str, ...]


def find_objectives(annotated: Iterable[AnnotatedSequence]) -> dict[ObjectiveKey, list[Attempt]]:
    """Every attempt at every objective present in the data, in key order.

    An objective is a (victim, high-severity stage, service). An attempt is
    the stretch of one sequence that ends at an occurrence of the objective
    and starts after its previous occurrence there, or at the start of the
    sequence; whatever follows the last occurrence is unfinished and
    dropped. Sequences are walked in attacker order, ties in input order,
    so each objective's attempts are grouped by team.
    """
    found: dict[ObjectiveKey, list[Attempt]] = {}
    for seq in sorted(annotated, key=attrgetter("attacker")):
        cuts: dict[tuple[AttackStage, str], tuple[int, int]] = {}  # -> (start, attempts so far)
        for end, (episode, _) in enumerate(seq.entries, 1):
            if episode.severity != Severity.HIGH:
                continue
            objective = (episode.stage, episode.service)
            start, number = cuts.get(objective, (0, 0))
            cuts[objective] = (end, number + 1)
            found.setdefault(ObjectiveKey(seq.victim, *objective), []).append(
                (seq.attacker, number + 1, seq.entries[start:end])
            )
    return {key: found[key] for key in sorted(found)}


def team_start_times(annotated: Iterable[AnnotatedSequence]) -> dict[str, datetime]:
    """Each attacker's first-alert instant (the earliest episode start)."""
    starts: dict[str, datetime] = {}
    for seq in annotated:
        for episode, _ in seq.entries:
            if seq.attacker not in starts or episode.st < starts[seq.attacker]:
                starts[seq.attacker] = episode.st
    return starts


def extract_ag(
    key: ObjectiveKey,
    attempts: Iterable[Attempt],
    sink_ids: frozenset[int],
    starts: Mapping[str, datetime],
) -> AttackGraph:
    """Draw the attack graph of one ⟨victim, objective⟩ from its attempts,
    as ``find_objectives`` gives them.

    Each attempt is one path. Vertices are shared across attempts and teams
    while parallel edges stay distinct per (team, attempt, position).
    Adjacent episodes collapsing to the same vertex triple are drawn once.
    ``starts`` maps each team to its first-alert instant over *all*
    sequences, as ``team_start_times`` gives it; an edge's label is the time
    from it to the end of the latest episode drawn at the edge's source.
    """
    vertices: dict[VertexKey, AgVertex] = {}
    edges: list[AgEdge] = []
    paths: list[AttemptPath] = []
    for team, number, entries in attempts:
        start = starts[team]
        path: list[VertexKey] = []
        for episode, sid in entries:
            triple: VertexKey = (episode.stage, episode.service, sid)
            if path and path[-1] == triple:
                latest = episode
                continue
            if triple not in vertices:
                vertices[triple] = AgVertex(
                    stage=episode.stage,
                    service=episode.service,
                    sid=sid,
                    is_sink=sid == OUT_OF_MODEL or sid in sink_ids,
                )
            if path:
                seconds = int((latest.et - start).total_seconds())
                edges.append(AgEdge(path[-1], triple, team, seconds))
            else:
                vertices[triple].is_path_start = True
            path.append(triple)
            latest = episode
        if path:
            vertices[path[-1]].is_objective_variant = True
        paths.append(AttemptPath(team=team, index=number, vertices=path))
    teams = tuple(sorted({p.team for p in paths}))
    return AttackGraph(key=key, vertices=vertices, edges=edges, attempts=paths, teams=teams)


def simplicity(ag: AttackGraph) -> float | None:
    """|V| / |E| with parallel edges counted individually; None when |E|=0."""
    if not ag.edges:
        return None
    return len(ag.vertices) / len(ag.edges)


_SEVERITY_SHAPES = {Severity.LOW: "oval", Severity.MED: "box", Severity.HIGH: "hexagon"}
_START_FILL = "yellow"
_OBJECTIVE_FILL = "red"
_TEAM_EDGE_STYLES = ("dashed", "solid", "dotted", "bold")  # cycled over the sorted teams

AG_FILE_GLOB = "attack-graph-*.dot"  # matches every name ag_filename gives
_UNSAFE_NAME_CHAR = re.compile(r"[^A-Za-z0-9_.-]")


def _graph_name(key: ObjectiveKey) -> str:
    victim = key.victim.replace(".", "-").replace(":", "-")
    return f"attack-graph-{victim}-{key.stage.value}-{key.service}"


def ag_filename(key: ObjectiveKey) -> str:
    """File name of one graph inside the output directory: its DOT graph
    name with every character outside ``[A-Za-z0-9_.-]`` replaced by ``-``,
    so no victim or service can put a path separator into it. Distinct keys
    can still share a file name; the graphs stage rejects that before
    writing.
    """
    return _UNSAFE_NAME_CHAR.sub("-", _graph_name(key)) + ".dot"


def _vertex_id(triple: VertexKey) -> str:
    stage, service, sid = triple
    return f"{stage.value}|{service}|{sid}"


def emit_dot(ag: AttackGraph) -> str:
    """Deterministic DOT rendering of one attack graph.

    Severity picks the shape (oval/box/hexagon), path starts are yellow,
    objective variants red, sink states dotted; each team gets its own
    edge style and edge labels show hours since the team's first alert.
    """
    name = _graph_name(ag.key)
    lines = [f"digraph {dot_quote(name)} {{"]
    n_styles = len(_TEAM_EDGE_STYLES)
    team_style = {t: _TEAM_EDGE_STYLES[i % n_styles] for i, t in enumerate(sorted(ag.teams))}
    ids = {triple: dot_quote(_vertex_id(triple)) for triple in ag.vertices}
    for triple in sorted(ag.vertices, key=lambda t: (t[0].value, t[1], t[2])):
        v = ag.vertices[triple]
        attrs = [f"shape={_SEVERITY_SHAPES[v.severity]}"]
        styles = []
        fill = None
        if v.is_objective_variant:
            fill = _OBJECTIVE_FILL
        elif v.is_path_start:
            fill = _START_FILL
        if fill:
            styles.append("filled")
        if v.is_sink:
            styles.append("dotted")
        if styles:
            attrs.append(f"style={dot_quote(','.join(styles))}")
        if fill:
            attrs.append(f"fillcolor={dot_quote(fill)}")
        attrs.append(f"label={dot_quote(v.stage.value, v.service, str(v.sid))}")
        lines.append(f"    {ids[triple]} [{', '.join(attrs)}];")
    for edge in ag.edges:
        hours = edge.seconds_since_first_alert / 3600.0
        attrs = [f'label="{hours:.1f}h"', f"style={team_style[edge.team]}"]
        lines.append(f"    {ids[edge.src]} -> {ids[edge.dst]} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_index(entries: Sequence[tuple[str, AttackGraph]]) -> str:
    """Tab-separated index of all emitted graphs with counts and simplicity;
    names are escaped, and a comma in a team name too."""
    names, teams = Escaped(), Escaped(table=TEAM_ESCAPES)
    lines = [
        "# attack graph index; adjacent episodes mapping to an identical",
        "# (stage, service, state) triple are collapsed into one vertex",
        "file\tvictim\tstage\tservice\tvertices\tedges\tsimplicity\tteams",
    ]
    for filename, ag in sorted(entries):
        simp = simplicity(ag)
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
