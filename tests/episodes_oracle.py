"""The episode and graph paths that faster ones replaced, kept as their oracles.

Each function is the one the package ran before episodes became named tuples
built in C: runs cut by calling ``total_seconds()`` on every gap, a
``Counter`` for every run's service, an order key read through two
properties, an episode dump of two ``isoformat(timespec=...)`` calls per
line, DOT text escaped afresh for every vertex and edge, and a duplicate
filter that checks order and calls ``total_seconds()`` per alert. The records
they build are the package's own ``Episode``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from datetime import datetime
from itertools import islice
from operator import gt, itemgetter, sub

from alertgraphs.episodes import Episode, escaped
from alertgraphs.graphs import (
    _OBJECTIVE_FILL,
    _SEVERITY_SHAPES,
    _START_FILL,
    _TEAM_EDGE_STYLES,
    _graph_name,
)


def dot_quote(*lines):
    escaped = (line.replace("\\", "\\\\").replace('"', '\\"') for line in lines)
    return '"' + "\\n".join(escaped) + '"'


def episode_order(episode):
    return (episode.st, episode.stage.severity, episode.service, episode.stage.value)


def mode_service(services):
    counts = Counter(services)
    return min(counts, key=lambda s: (-counts[s], s))


_TIMESTAMP, _PAIR, _SERVICE = itemgetter(0), itemgetter(1, 2), itemgetter(4)  # of an Alert


def aggregate_episodes(alerts, w=150.0):
    if not w > 0:
        raise ValueError("w must be positive")
    if not alerts:
        return []
    pairs = set(map(_PAIR, alerts))
    if len(pairs) != 1:
        raise ValueError(f"alerts span multiple (attacker, victim) pairs: {sorted(pairs)}")
    attacker, victim = pairs.pop()
    times = list(map(_TIMESTAMP, alerts))
    if any(map(gt, times, islice(times, 1, None))):
        raise ValueError("alerts must be sorted by timestamp ascending")

    by_stage = defaultdict(list)
    for alert in alerts:
        by_stage[alert[3]].append(alert)  # by stage

    episodes = []
    for stage, group in by_stage.items():
        times = list(map(_TIMESTAMP, group))
        start = 0  # of the current run
        for end, gap in enumerate(map(sub, islice(times, 1, None), times), 1):
            if gap.total_seconds() > w:
                episodes.append(_make_episode(group[start:end], stage, attacker, victim))
                start = end
        episodes.append(_make_episode(group[start:], stage, attacker, victim))
    episodes.sort(key=episode_order)
    return episodes


def _make_episode(run, stage, attacker, victim):
    return Episode(
        st=run[0].timestamp,
        et=run[-1].timestamp,
        stage=stage,
        service=mode_service(map(_SERVICE, run)),
        alert_count=len(run),
        attacker=attacker,
        victim=victim,
    )


def filter_duplicates(alerts, t):
    if not t > 0:
        raise ValueError("t must be positive")
    last_kept: dict[tuple, datetime] = {}
    kept = []
    prev_ts = None
    for alert in alerts:
        timestamp = alert.timestamp
        if prev_ts is not None and timestamp < prev_ts:
            raise ValueError("alerts must be sorted by timestamp ascending")
        prev_ts = timestamp
        key = (alert.attacker, alert.victim, alert.stage, alert.service)
        last = last_kept.get(key)
        if last is not None and (timestamp - last).total_seconds() < t:
            continue
        last_kept[key] = timestamp
        kept.append(alert)
    return kept


def render_episode_dump(sequences) -> str:
    names = escaped()
    lines = ["attacker\tvictim\tst\tet\tstage\tservice\talert_count"]
    for es in sequences:
        for ep in es.episodes:
            lines.append("\t".join([
                names[ep.attacker],
                names[ep.victim],
                ep.st.isoformat(timespec="microseconds"),
                ep.et.isoformat(timespec="microseconds"),
                ep.stage.value,
                names[ep.service],
                str(ep.alert_count),
            ]))
    return "\n".join(lines) + "\n"


def emit_dot(ag) -> str:
    name = _graph_name(ag.key)
    lines = [f"digraph {dot_quote(name)} {{"]
    n_styles = len(_TEAM_EDGE_STYLES)
    team_style = {t: _TEAM_EDGE_STYLES[i % n_styles] for i, t in enumerate(sorted(ag.teams))}
    ids = {triple: dot_quote(f"{triple[0].value}|{triple[1]}|{triple[2]}") for triple in ag.vertices}
    for triple in sorted(ag.vertices, key=lambda t: (t[0].value, t[1], t[2])):
        stage, service, sid = triple
        v = ag.vertices[triple]
        attrs = [f"shape={_SEVERITY_SHAPES[stage.severity]}"]
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
        attrs.append(f"label={dot_quote(stage.value, service, str(sid))}")
        lines.append(f"    {ids[triple]} [{', '.join(attrs)}];")
    for edge in ag.edges:
        hours = edge.seconds_since_first_alert / 3600.0
        attrs = [f'label="{hours:.1f}h"', f"style={team_style[edge.team]}"]
        lines.append(f"    {ids[edge.src]} -> {ids[edge.dst]} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
