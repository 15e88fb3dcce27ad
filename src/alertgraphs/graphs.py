"""Per-victim, per-objective attack graphs extracted from state-annotated
episode sequences, plus DOT emission and the simplicity metric.

An objective is a high-severity (stage, service) observed against a victim;
each distinct automaton state of that episode becomes a separate
objective-variant vertex. Every attacker attempt at the objective appears as
its own path ending at the variant it reached.
"""

from __future__ import annotations

import re
from datetime import datetime
from itertools import product
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .alerts import _new_record
from .automaton import OUT_OF_MODEL, AnnotatedSequence, dot_quote
from .episodes import _HIGH_STAGES, TEAM_ESCAPES, Episode, escaped
from .stages import AttackStage, Severity

VertexKey = tuple[AttackStage, str, int]  # (stage, service, state id)
Attempt = tuple[str, list[tuple[Episode, int]]]  # (team, entries); numbered by its place


class ObjectiveKey(NamedTuple):
    """A high-severity stage at a victim's service: one attack graph each."""

    victim: str
    stage: AttackStage
    service: str


class AgVertex(NamedTuple):
    """A vertex's flags; its (stage, service, state id) triple is its key.
    ``extract_ag`` reads them from the paths it has drawn."""

    is_objective_variant: bool
    is_sink: bool
    is_path_start: bool


class AgEdge(NamedTuple):
    """One step of one attempt: a named tuple, as an episode is."""

    src: VertexKey
    dst: VertexKey
    team: str
    seconds_since_first_alert: int


class AttemptPath(NamedTuple):
    """One attempt's path, numbered by its place among its team's in ``attempts``."""

    team: str
    vertices: list[VertexKey]


class AttackGraph(NamedTuple):
    key: ObjectiveKey
    vertices: dict[VertexKey, AgVertex]
    edges: list[AgEdge]
    attempts: list[AttemptPath]
    teams: tuple[str, ...]  # sorted


# (file name, key, vertex count, edge count, sorted teams)
IndexRow = tuple[str, ObjectiveKey, int, int, tuple[str, ...]]


def find_objectives(annotated: Iterable[AnnotatedSequence]) -> dict[ObjectiveKey, list[Attempt]]:
    """Every attempt at every objective present in the data, in key order.

    An objective is a (victim, high-severity stage, service). An attempt is
    the stretch of one sequence that ends at an occurrence of the objective
    and starts after its previous occurrence there, or at the start of the
    sequence; whatever follows the last occurrence is unfinished and
    dropped. Sequences are walked in attacker order, ties in input order,
    so each objective's attempts are grouped by team, each team's in order.
    """
    # keyed by (victim, stage, service), which orders as ObjectiveKey does
    found: dict[tuple[str, AttackStage, str], list[Attempt]] = {}
    for seq in sorted(annotated, key=attrgetter("attacker")):
        entries = seq.entries
        cuts: dict[tuple[AttackStage, str], int] = {}  # where each objective's next attempt starts
        for end, (episode, _) in enumerate(entries, 1):
            if episode[2] in _HIGH_STAGES:
                objective = episode[2:4]  # (stage, service)
                found.setdefault((seq.victim, *objective), []).append(
                    (seq.attacker, entries[cuts.get(objective, 0):end])
                )
                cuts[objective] = end
    return {ObjectiveKey(*key): found[key] for key in sorted(found)}


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

    Each attempt is one path, kept in the order given. Vertices are shared
    across attempts and teams while parallel edges stay distinct per (team,
    attempt, position). Adjacent episodes collapsing to the same vertex
    triple are drawn once.
    ``starts`` maps each team to its first-alert instant over *all*
    sequences, as ``team_start_times`` gives it; an edge's label is the time
    from it to the end of the latest episode drawn at the edge's source.
    The walk draws only paths and edges; each vertex's flags are then read
    from them: an objective variant ends a path, a path start begins one,
    and a sink's state id is ``OUT_OF_MODEL`` or in ``sink_ids``.
    """
    edges: list[AgEdge] = []
    paths: list[AttemptPath] = []
    for team, entries in attempts:
        start = starts[team]
        path: list[VertexKey] = []
        triple = None  # the last vertex drawn
        for episode, sid in entries:
            current = (episode.stage, episode.service, sid)
            if current != triple:
                if triple is not None:
                    seconds = int((latest.et - start).total_seconds())
                    edges.append(_new_record(AgEdge, (triple, current, team, seconds)))
                path.append(current)
                triple = current
            latest = episode
        paths.append(_new_record(AttemptPath, (team, path)))
    drawn = [path for _, path in paths if path]
    firsts, lasts = {path[0] for path in drawn}, {path[-1] for path in drawn}
    vertices = {
        triple: _new_record(
            AgVertex,
            (triple in lasts, triple[2] == OUT_OF_MODEL or triple[2] in sink_ids, triple in firsts),
        )
        for path in drawn
        for triple in path
    }
    teams = tuple(sorted({p.team for p in paths}))
    return _new_record(AttackGraph, (key, vertices, edges, paths, teams))


def simplicity(vertices: int, edges: int) -> float | None:
    """|V| / |E| with parallel edges counted individually; None when |E|=0."""
    return vertices / edges if edges else None


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


def vertex_texts(triple: VertexKey) -> tuple[str, str, str]:
    """A vertex's quoted DOT id, the start of its line up to its shape, and
    the end of its line from its label. One vertex appears in many graphs,
    so the graphs stage keeps these in one ``_Memo`` for the graphs of a run."""
    stage, service, sid = triple
    vid = dot_quote(f"{stage.value}|{service}|{sid}")
    return (
        vid,
        f"    {vid} [shape={_SEVERITY_SHAPES[stage.severity]}",
        f", label={dot_quote(stage.value, service, str(sid))}];",
    )


def _flag_attrs(objective_variant: bool, sink: bool, path_start: bool) -> str:
    """The style and fill attributes a vertex's flags give it."""
    fill = _OBJECTIVE_FILL if objective_variant else _START_FILL if path_start else None
    styles = ["filled"] * bool(fill) + ["dotted"] * sink
    attrs = f", style={dot_quote(','.join(styles))}" if styles else ""
    return attrs + (f", fillcolor={dot_quote(fill)}" if fill else "")


# a vertex's flags, in AgVertex order -> attributes
_FLAG_ATTRS = {flags: _flag_attrs(*flags) for flags in product((False, True), repeat=3)}


def emit_dot(ag: AttackGraph, texts: Mapping[VertexKey, tuple[str, str, str]]) -> str:
    """Deterministic DOT rendering of one attack graph.

    Severity picks the shape (oval/box/hexagon), path starts are yellow,
    objective variants red, sink states dotted; the edge styles are cycled
    over ``ag.teams`` in their sorted order, and edge labels show hours
    since the team's first alert. ``texts`` maps each vertex to its
    ``vertex_texts``, as a ``_Memo(vertex_texts)`` does.
    """
    name = _graph_name(ag.key)
    lines = [f"digraph {dot_quote(name)} {{"]
    n_styles = len(_TEAM_EDGE_STYLES)
    team_style = {t: _TEAM_EDGE_STYLES[i % n_styles] for i, t in enumerate(ag.teams)}
    # a stage sorts as its acronym, so the triples sort by (acronym, service, sid)
    for triple in sorted(ag.vertices):
        _, head, tail = texts[triple]
        lines.append(head + _FLAG_ATTRS[ag.vertices[triple]] + tail)
    for edge in ag.edges:
        hours = edge.seconds_since_first_alert / 3600.0
        lines.append(
            f"    {texts[edge.src][0]} -> {texts[edge.dst][0]}"
            f' [label="{hours:.1f}h", style={team_style[edge.team]}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def index_row(filename: str, ag: AttackGraph) -> IndexRow:
    """What the index and the stats stage keep of a graph once it is drawn."""
    return filename, ag.key, len(ag.vertices), len(ag.edges), ag.teams


def render_index(rows: Sequence[IndexRow]) -> str:
    """Tab-separated index of all emitted graphs with counts and simplicity,
    one line per row in the order given (the graphs stage sorts them by
    file name); names are escaped, and a comma in a team name too."""
    names, teams = escaped(), escaped(table=TEAM_ESCAPES)
    lines = [
        "# attack graph index; adjacent episodes mapping to an identical",
        "# (stage, service, state) triple are collapsed into one vertex",
        "file\tvictim\tstage\tservice\tvertices\tedges\tsimplicity\tteams",
    ]
    for filename, key, vertices, edges, ag_teams in rows:
        simp = simplicity(vertices, edges)
        lines.append(
            "\t".join(
                [
                    names[filename],
                    names[key.victim],
                    key.stage.value,
                    names[key.service],
                    str(vertices),
                    str(edges),
                    "NA" if simp is None else f"{simp:.4f}",
                    ",".join([teams[team] for team in ag_teams]),
                ]
            )
        )
    return "\n".join(lines) + "\n"
