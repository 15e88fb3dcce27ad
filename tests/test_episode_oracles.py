"""The episode and graph paths hold equal to the ones they replaced.

``episodes_oracle`` keeps the replaced paths. The properties here draw the
inputs where the fast paths could part from them: gaps of exactly the window
and one microsecond either side, windows from far below a microsecond to
beyond any timedelta, start times tied across stages, tied service counts,
and names holding quotes, backslashes, tabs and newlines.
"""

from __future__ import annotations

import math
from datetime import datetime, timedelta, timezone
from itertools import accumulate

from hypothesis import example, given, settings
from hypothesis import strategies as st

import episodes_oracle as oracle
from alertgraphs.alerts import Alert, _Memo, filter_duplicates
from alertgraphs.automaton import AnnotatedSequence, dot_quote
from alertgraphs.episodes import (
    Episode,
    EpisodeSequence,
    _episode_order,
    _mode_service,
    aggregate_episodes,
    build_sequences,
    render_episode_dump,
)
from alertgraphs.graphs import (
    emit_dot,
    extract_ag,
    find_objectives,
    team_start_times,
    vertex_texts,
)
from alertgraphs.stages import AttackStage

# early enough that gaps of 10**16 microseconds still fit before year 9999
BASE = datetime(1, 1, 1, tzinfo=timezone.utc)
WINDOWS = [1e-7, 5e-7, 1.5e-6, 1.0, 150, 150.0, 0.1, 86_400.000001, 1e13, 1e300, math.inf]
STAGES = [
    AttackStage.SERVICE_DISC,
    AttackStage.VULN_DISC,
    AttackStage.PRIV_ESC,
    AttackStage.DATA_EXFILTRATION,
    AttackStage.DATA_DELIVERY,
]
ODD_NAMES = ["a", "b", 'q"x', "b\\s", "t\tb", "n\nl", "#h", "a b", ""]


def gaps_near(seconds: float):
    """Gaps in microseconds: 0, 1, each within a microsecond of ``seconds``
    where a timedelta reaches it, and any up to 10**16."""
    near = [0, 1]
    if seconds * 10**6 < 10**16:
        exact = round(seconds * 10**6)
        near += [max(exact + d, 0) for d in (-1, 0, 1)]
    return st.one_of(st.sampled_from(near), st.integers(0, 10**16))


@st.composite
def window_and_alerts(draw, windows=WINDOWS, names=("ssh", "http", "ftp")):
    """A window from ``windows`` and one pair's time-sorted alerts, their
    gaps drawn around it."""
    w = draw(st.sampled_from(windows))
    row = st.tuples(gaps_near(w), st.sampled_from(STAGES), st.sampled_from(names))
    rows = draw(st.lists(row, min_size=1, max_size=25))
    offsets = accumulate(gap for gap, _, _ in rows)
    alerts = [
        Alert(BASE + timedelta(microseconds=us), "10.0.254.1", "10.0.0.1", stage, service)
        for us, (_, stage, service) in zip(offsets, rows)
    ]
    return w, alerts


@settings(max_examples=300, deadline=None)
@given(window_and_alerts())
def test_aggregate_episodes_matches_replaced_path(drawn):
    w, alerts = drawn
    assert aggregate_episodes(alerts, w) == oracle.aggregate_episodes(alerts, w)


@st.composite
def window_and_pairs(draw):
    """A window and the time-sorted alerts of 2-3 pairs, interleaved, each
    pair's gaps drawn around the window; ties across pairs keep the order
    the pairs were drawn in."""
    w = draw(st.sampled_from(WINDOWS))
    pair = st.tuples(st.sampled_from(ODD_NAMES[:4]), st.sampled_from(ODD_NAMES[4:7]))
    pairs = draw(st.lists(pair, min_size=2, max_size=3, unique=True))
    alerts = []
    for attacker, victim in pairs:
        rows = draw(st.lists(
            st.tuples(gaps_near(w), st.sampled_from(STAGES), st.sampled_from(("ssh", "http"))),
            min_size=1,
            max_size=12,
        ))
        offsets = accumulate(gap for gap, _, _ in rows)
        alerts += [
            Alert(BASE + timedelta(microseconds=us), attacker, victim, stage, service)
            for us, (_, stage, service) in zip(offsets, rows)
        ]
    alerts.sort(key=lambda alert: alert.timestamp)
    return w, sorted(pairs), alerts


@settings(max_examples=300, deadline=None)
@given(window_and_pairs())
def test_aggregate_episodes_of_many_pairs_matches_replaced_path_per_pair(drawn):
    w, pairs, alerts = drawn
    per_pair = [
        oracle.aggregate_episodes([alert for alert in alerts if alert[1:3] == pair], w)
        for pair in pairs
    ]
    episodes = aggregate_episodes(alerts, w)
    assert episodes == [episode for run in per_pair for episode in run]
    sequences = build_sequences(episodes)
    assert [(es.attacker, es.victim) for es in sequences] == pairs
    assert [es.episodes for es in sequences] == per_pair


@settings(max_examples=300, deadline=None)
@given(
    window_and_alerts([1e-7, 1.0, 0.001, 150, 1e13, 1e300, math.inf], ("ssh", "http")),
    st.lists(st.sampled_from(["a1", "a2"]), min_size=25, max_size=25),
)
def test_filter_duplicates_matches_replaced_path(drawn, attackers):
    t, alerts = drawn
    alerts = [alert._replace(attacker=team) for alert, team in zip(alerts, attackers)]
    assert filter_duplicates(alerts, t) == oracle.filter_duplicates(alerts, t)


@given(
    st.sampled_from(list(AttackStage)),
    st.sampled_from(ODD_NAMES),
    st.integers(0, 10**6),
    st.sampled_from(ODD_NAMES),
    st.sampled_from(ODD_NAMES),
)
def test_episode_order_key_matches_replaced_path(stage, service, us, attacker, victim):
    # the replaced path ordered one pair's episodes, and the pairs by name
    episode = Episode(BASE + timedelta(microseconds=us), BASE, stage, service, 1, attacker, victim)
    assert _episode_order(episode) == (attacker, victim, *oracle.episode_order(episode))


@given(st.lists(st.sampled_from(ODD_NAMES[:4]), min_size=1, max_size=12))
@example(["http", "ftp", "http", "ftp"])
def test_mode_service_matches_replaced_path(services):
    assert _mode_service(services) == oracle.mode_service(services)


def times(draw, n: int) -> list[datetime]:
    """``n`` sorted instants, at times all on whole seconds."""
    offsets = sorted(draw(st.lists(st.integers(0, 10**10), min_size=n, max_size=n)))
    if draw(st.booleans()):
        offsets = [us - us % 10**6 for us in offsets]
    return [BASE + timedelta(microseconds=us) for us in offsets]


@st.composite
def episode_sequences(draw):
    sequences = []
    for attacker in draw(st.lists(st.sampled_from(ODD_NAMES), min_size=1, max_size=3)):
        victim = draw(st.sampled_from(ODD_NAMES))
        n = draw(st.integers(1, 6))
        starts = times(draw, n)
        episodes = []
        for st_ in starts:
            # an episode may end at its start object, at an equal instant or later
            et = draw(st.sampled_from([
                st_, st_ + timedelta(0), st_ + timedelta(microseconds=draw(st.integers(1, 10**7)))
            ]))
            stage, service = draw(st.sampled_from(STAGES)), draw(st.sampled_from(ODD_NAMES))
            count = draw(st.integers(1, 9))
            episodes.append(Episode(st_, et, stage, service, count, attacker, victim))
        sequences.append(EpisodeSequence(attacker, victim, episodes))
    return sequences


@settings(max_examples=200, deadline=None)
@given(episode_sequences())
def test_episode_dump_matches_replaced_path(sequences):
    assert "".join(render_episode_dump(sequences)) == oracle.render_episode_dump(sequences)


@given(st.lists(st.text(), min_size=1, max_size=3))
@example(['a"b'])
@example(["a\\b"])
@example(["x", "y"])
def test_dot_quote_matches_replaced_path(lines):
    assert dot_quote(*lines) == oracle.dot_quote(*lines)


@st.composite
def annotated_sequences(draw):
    sequences = []
    for attacker in draw(st.lists(st.sampled_from(ODD_NAMES), min_size=1, max_size=3, unique=True)):
        victim = draw(st.sampled_from(ODD_NAMES[:3]))
        rows = draw(st.lists(
            st.tuples(st.sampled_from(STAGES), st.sampled_from(ODD_NAMES[:5]), st.integers(-1, 3)),
            min_size=1,
            max_size=8,
        ))
        entries = []
        for i, (stage, service, sid) in enumerate(rows):
            start = BASE + timedelta(hours=i)
            end = start + timedelta(minutes=5)
            entries.append((Episode(start, end, stage, service, 1, attacker, victim), sid))
        sequences.append(AnnotatedSequence(attacker, victim, entries))
    return sequences


@settings(max_examples=200, deadline=None)
@given(annotated_sequences(), st.frozensets(st.integers(0, 3)))
def test_emit_dot_matches_replaced_path(sequences, sink_ids):
    # one memo across every graph of a run, as the graphs stage keeps it
    texts = _Memo(vertex_texts)
    starts = team_start_times(sequences)
    for key, attempts in find_objectives(sequences).items():
        ag = extract_ag(key, attempts, sink_ids, starts)
        assert emit_dot(ag, texts) == oracle.emit_dot(ag) == emit_dot(ag, _Memo(vertex_texts))
