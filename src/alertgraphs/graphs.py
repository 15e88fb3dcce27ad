"""Per-victim, per-objective attack graphs extracted from state-annotated
episode sequences, plus DOT emission and the simplicity metric.

An objective is a high-severity (stage, service) observed against a victim;
each distinct automaton state of that episode becomes a separate
objective-variant vertex. Every attacker attempt at the objective appears as
its own path ending at the variant it reached.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterable, Mapping, Sequence

from .automaton import OUT_OF_MODEL, AnnotatedSequence, dot_quote
from .episodes import Episode
from .stages import AttackStage, Severity

VertexKey = tuple[AttackStage, str, int]  # (stage, service, state id)


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

    @property
    def key(self) -> VertexKey:
        return (self.stage, self.service, self.sid)


@dataclass(frozen=True)
class AgEdge:
    src: VertexKey
    dst: VertexKey
    team: str
    seconds_since_first_alert: int
    attempt_index: int


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


def find_objectives(annotated: Iterable[AnnotatedSequence]) -> list[ObjectiveKey]:
    """Distinct (victim, high-severity stage, service) present in the data."""
    keys = set()
    for seq in annotated:
        for episode, _ in seq.entries:
            if episode.severity == Severity.HIGH:
                keys.add(ObjectiveKey(seq.victim, episode.stage, episode.service))
    return sorted(keys)


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
    annotated: Sequence[AnnotatedSequence],
    sink_ids: frozenset[int] = frozenset(),
    *,
    starts: Mapping[str, datetime] | None = None,
) -> AttackGraph:
    """Build the attack graph for one ⟨victim, objective⟩.

    Qualifying sequences (same victim, containing the objective) are split at
    every objective occurrence; each prefix up to and including an occurrence
    is one attempt path. Vertices are shared across attempts and teams while
    parallel edges stay distinct per (team, attempt, position). Adjacent
    episodes collapsing to the same vertex triple are drawn once.

    ``annotated`` need only hold the sequences against ``key.victim``.
    ``starts`` maps each team to its first-alert instant, as
    ``team_start_times`` gives it; edge labels are measured from it. It must
    be computed over *all* sequences, not only this victim's, because a
    team's first alert may be against another victim. When omitted it is
    computed from ``annotated``.
    """
    if starts is None:
        starts = team_start_times(annotated)
    qualifying = [
        seq
        for seq in annotated
        if seq.victim == key.victim
        and any(
            ep.stage == key.stage and ep.service == key.service for ep, _ in seq.entries
        )
    ]
    if not qualifying:
        raise ValueError(f"objective not present in any sequence: {key}")

    vertices: dict[VertexKey, AgVertex] = {}
    edges: list[AgEdge] = []
    attempts: list[AttemptPath] = []

    def vertex(triple: VertexKey) -> AgVertex:
        if triple not in vertices:
            stage, service, sid = triple
            vertices[triple] = AgVertex(
                stage=stage,
                service=service,
                sid=sid,
                is_sink=sid == OUT_OF_MODEL or sid in sink_ids,
            )
        return vertices[triple]

    for seq in sorted(qualifying, key=lambda e: e.attacker):
        team = seq.attacker
        start = starts[team]
        attempt: list[tuple[Episode, int]] = []
        attempt_no = 0
        for episode, sid in seq.entries:
            attempt.append((episode, sid))
            if episode.stage == key.stage and episode.service == key.service:
                attempt_no += 1
                _add_attempt(vertex, edges, attempts, attempt, team, attempt_no, start)
                attempt = []
        # anything after the last occurrence is an unfinished attempt: dropped
    teams = tuple(sorted({a.team for a in attempts}))
    return AttackGraph(key=key, vertices=vertices, edges=edges, attempts=attempts, teams=teams)


def _add_attempt(vertex, edges, attempts, attempt, team, attempt_no, start):
    path: list[VertexKey] = []
    last_episode: dict[int, Episode] = {}  # per path position, for edge timing
    for episode, sid in attempt:
        triple: VertexKey = (episode.stage, episode.service, sid)
        if path and path[-1] == triple:
            last_episode[len(path) - 1] = episode
            continue
        path.append(triple)
        last_episode[len(path) - 1] = episode
    for pos, triple in enumerate(path):
        v = vertex(triple)
        if pos == 0:
            v.is_path_start = True
        if pos == len(path) - 1:
            v.is_objective_variant = True
        if pos > 0:
            src_episode = last_episode[pos - 1]
            seconds = int((src_episode.et - start).total_seconds())
            edges.append(
                AgEdge(
                    src=path[pos - 1],
                    dst=triple,
                    team=team,
                    seconds_since_first_alert=seconds,
                    attempt_index=attempt_no,
                )
            )
    attempts.append(AttemptPath(team=team, index=attempt_no, vertices=path))


def simplicity(ag: AttackGraph) -> float | None:
    """|V| / |E| with parallel edges counted individually; None when |E|=0."""
    if not ag.edges:
        return None
    return len(ag.vertices) / len(ag.edges)


@dataclass(frozen=True)
class StyleConfig:
    severity_shapes: tuple[tuple[Severity, str], ...] = (
        (Severity.LOW, "oval"),
        (Severity.MED, "box"),
        (Severity.HIGH, "hexagon"),
    )
    start_fill: str = "yellow"
    objective_fill: str = "red"
    edge_styles: tuple[str, ...] = ("dashed", "solid", "dotted", "bold")

    def shape_for(self, severity: Severity) -> str:
        return dict(self.severity_shapes)[severity]

    def team_styles(self, teams: Sequence[str]) -> dict[str, str]:
        ordered = sorted(teams)
        return {t: self.edge_styles[i % len(self.edge_styles)] for i, t in enumerate(ordered)}


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


def emit_dot(ag: AttackGraph, style: StyleConfig = StyleConfig()) -> str:
    """Deterministic DOT rendering of one attack graph.

    Severity picks the shape (oval/box/hexagon), path starts are yellow,
    objective variants red, sink states dotted; each team gets its own
    edge style and edge labels show hours since the team's first alert.
    """
    name = _graph_name(ag.key)
    lines = [f"digraph {dot_quote(name)} {{"]
    team_style = style.team_styles(ag.teams)
    ids = {triple: dot_quote(_vertex_id(triple)) for triple in ag.vertices}
    for triple in sorted(ag.vertices, key=lambda t: (t[0].value, t[1], t[2])):
        v = ag.vertices[triple]
        attrs = [f"shape={style.shape_for(v.severity)}"]
        styles = []
        fill = None
        if v.is_objective_variant:
            fill = style.objective_fill
        elif v.is_path_start:
            fill = style.start_fill
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
    """Tab-separated index of all emitted graphs with counts and simplicity."""
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
                    filename,
                    ag.key.victim,
                    ag.key.stage.value,
                    ag.key.service,
                    str(len(ag.vertices)),
                    str(len(ag.edges)),
                    "NA" if simp is None else f"{simp:.4f}",
                    ",".join(ag.teams),
                ]
            )
        )
    return "\n".join(lines) + "\n"
