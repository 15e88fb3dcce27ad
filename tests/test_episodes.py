import math
import random
from collections import Counter, defaultdict

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from alertgraphs.episodes import (
    SYMBOL_ESCAPES,
    TEAM_ESCAPES,
    TSV_ESCAPES,
    EpisodeSequence,
    Symbol,
    aggregate_episodes,
    build_sequences,
    escaped,
    parse_symbol,
    partition_subsequences,
    render_symbol,
    to_symbols,
    unescape_field,
)
from alertgraphs.stages import AttackStage, Severity

from util import mk_alert, mk_episode, stage_of, ts


def aggregation_oracle(alerts, w):
    """Brute force: per stage, split on gaps > w and recompute service modes."""
    by_stage = defaultdict(list)
    for a in alerts:
        by_stage[a.stage].append(a)
    out = []
    for stage, group in by_stage.items():
        runs = [[group[0]]]
        for prev, cur in zip(group, group[1:]):
            if (cur.timestamp - prev.timestamp).total_seconds() > w:
                runs.append([])
            runs[-1].append(cur)
        for run in runs:
            counts = Counter(a.service for a in run)
            best = min(counts, key=lambda s: (-counts[s], s))
            out.append((run[0].timestamp, run[-1].timestamp, stage, best, len(run)))
    return sorted(out, key=lambda e: (e[0], e[2].severity, e[3], e[2].value))


class TestAggregateEpisodes:
    def test_empty(self):
        assert aggregate_episodes([], 150.0) == []

    def test_singleton(self):
        ep, = aggregate_episodes([mk_alert(3.0)], 150.0)
        assert ep.st == ep.et == ts(3.0)
        assert ep.alert_count == 1
        assert ep.service == "ssh"

    def test_gap_beyond_window_splits(self):
        alerts = [mk_alert(0.0), mk_alert(200.0)]
        episodes = aggregate_episodes(alerts, 150.0)
        assert len(episodes) == 2

    def test_gap_at_window_stays_joined(self):
        alerts = [mk_alert(0.0), mk_alert(150.0)]
        ep, = aggregate_episodes(alerts, 150.0)
        assert ep.alert_count == 2
        assert (ep.st, ep.et) == (ts(0.0), ts(150.0))

    def test_service_mode_tie_lexicographic(self):
        alerts = [
            mk_alert(0.0, service="http"),
            mk_alert(1.0, service="ftp"),
            mk_alert(2.0, service="http"),
            mk_alert(3.0, service="ftp"),
        ]
        ep, = aggregate_episodes(alerts, 150.0)
        assert ep.service == "ftp"

    def test_thirty_alert_fixture_matches_oracle(self):
        rng = random.Random(7)
        stages = [AttackStage.SERVICE_DISC, AttackStage.PRIV_ESC, AttackStage.DATA_EXFILTRATION]
        seconds = 0.0
        alerts = []
        for _ in range(30):
            seconds += rng.choice([5.0, 40.0, 149.0, 151.0, 300.0])
            alerts.append(
                mk_alert(
                    seconds,
                    stage=rng.choice(stages),
                    service=rng.choice(["ssh", "http", "ftp"]),
                )
            )
        episodes = aggregate_episodes(alerts, 150.0)
        got = [(e.st, e.et, e.stage, e.service, e.alert_count) for e in episodes]
        assert got == aggregation_oracle(alerts, 150.0)

    def test_infinite_window_one_episode_per_stage(self):
        alerts = [
            mk_alert(0.0, stage=AttackStage.SERVICE_DISC),
            mk_alert(10_000.0, stage=AttackStage.SERVICE_DISC),
            mk_alert(20_000.0, stage=AttackStage.PRIV_ESC),
        ]
        episodes = aggregate_episodes(alerts, math.inf)
        assert Counter(e.stage for e in episodes) == {
            AttackStage.SERVICE_DISC: 1,
            AttackStage.PRIV_ESC: 1,
        }

    @pytest.mark.parametrize("w", [math.nan, 0.0, -math.inf])
    def test_nan_or_nonpositive_window_rejected(self, w):
        # every comparison with NaN is false, so a NaN window would never split
        with pytest.raises(ValueError):
            aggregate_episodes([mk_alert(0.0), mk_alert(10_000.0)], w)

    def test_pairs_are_kept_apart(self):
        # one stage and service, all within the window: one episode per pair,
        # in pair order, whatever order the pairs' alerts come in
        alerts = [
            mk_alert(0.0, attacker="a2"),
            mk_alert(1.0, attacker="a1"),
            mk_alert(2.0, attacker="a2"),
            mk_alert(3.0, attacker="a1", victim="v0"),
        ]
        episodes = aggregate_episodes(alerts, 150.0)
        assert [(e.attacker, e.victim, e.st, e.et, e.alert_count) for e in episodes] == [
            ("a1", "10.0.0.1", ts(1.0), ts(1.0), 1),
            ("a1", "v0", ts(3.0), ts(3.0), 1),
            ("a2", "10.0.0.1", ts(0.0), ts(2.0), 2),
        ]

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            aggregate_episodes([mk_alert(5.0), mk_alert(0.0)], 150.0)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3000),
            st.sampled_from([AttackStage.SERVICE_DISC, AttackStage.PRIV_ESC]),
            st.sampled_from(["ssh", "http"]),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_alert_count_conservation(rows):
    alerts = [
        mk_alert(sec, stage=stg, service=srv)
        for sec, stg, srv in sorted(rows, key=lambda r: r[0])
    ]
    episodes = aggregate_episodes(alerts, 150.0)
    assert sum(e.alert_count for e in episodes) == len(alerts)
    assert all(e.st <= e.et for e in episodes)
    starts = [e.st for e in episodes]
    assert starts == sorted(starts)


class TestBuildSequences:
    def test_one_sequence_per_pair(self):
        eps = [
            mk_episode(0.0, attacker="a1", victim="v1"),
            mk_episode(9.0, attacker="a1", victim="v1"),
            mk_episode(5.0, attacker="a2", victim="v1"),
        ]
        sequences = build_sequences(eps)
        assert [(s.attacker, s.victim, s.episodes) for s in sequences] == [
            ("a1", "v1", eps[:2]),
            ("a2", "v1", eps[2:]),
        ]

    def test_tie_break_low_severity_first(self):
        # build_sequences keeps the order aggregate_episodes gives
        alerts = [
            mk_alert(0.0, stage=AttackStage.DATA_EXFILTRATION),
            mk_alert(0.0, stage=AttackStage.SERVICE_DISC),
        ]
        high = mk_episode(0.0, stage=AttackStage.DATA_EXFILTRATION)
        low = mk_episode(0.0, stage=AttackStage.SERVICE_DISC)
        es, = build_sequences(aggregate_episodes(alerts, 150.0))
        assert es.episodes == [low, high]

    def test_shuffled_fixture_matches_sort_oracle(self):
        rng = random.Random(11)
        alerts = [
            mk_alert(
                float(rng.randrange(5)),
                stage=rng.choice(list(AttackStage)),
                service=rng.choice(["ssh", "http"]),
            )
            for _ in range(12)
        ]
        alerts.sort(key=lambda a: a.timestamp)  # stable: equal instants stay shuffled
        es, = build_sequences(aggregate_episodes(alerts, 0.5))
        oracle = sorted(
            es.episodes, key=lambda e: (e.st, e.stage.severity, e.service, e.stage.value)
        )
        assert es.episodes == oracle
        assert [e[:5] for e in es.episodes] == aggregation_oracle(alerts, 0.5)


def severities(es):
    return [e.stage.severity for e in es.episodes]


def cut_oracle(letters):
    """Scan adjacent pairs; cut after every High directly followed by Low."""
    slices = [[letters[0]]]
    for prev, cur in zip(letters, letters[1:]):
        if prev == "H" and cur == "L":
            slices.append([])
        slices[-1].append(cur)
    return slices


def es_from_letters(letters):
    episodes = [mk_episode(float(i), stage=stage_of(l)) for i, l in enumerate(letters)]
    return EpisodeSequence(attacker="10.0.254.1", victim="10.0.0.1", episodes=episodes)


class TestPartitionSubsequences:
    def test_no_boundary(self):
        parts = partition_subsequences(es_from_letters("LMH"))
        assert len(parts) == 1
        assert parts[0].index == 0

    def test_forced_cuts(self):
        parts = partition_subsequences(es_from_letters("LHLH"))
        assert [len(p.episodes) for p in parts] == [2, 2]
        assert [p.index for p in parts] == [0, 1]

    def test_random_vector_matches_adjacent_pair_oracle(self):
        rng = random.Random(3)
        letters = "".join(rng.choice("LMH") for _ in range(50))
        parts = partition_subsequences(es_from_letters(letters))
        expected = cut_oracle(list(letters))
        assert [len(p.episodes) for p in parts] == [len(s) for s in expected]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            partition_subsequences(EpisodeSequence("a", "v", []))


@given(st.text(alphabet="LMH", min_size=1, max_size=50))
def test_partition_properties(letters):
    es = es_from_letters(letters)
    parts = partition_subsequences(es)
    # concatenation reproduces the sequence exactly
    rebuilt = [ep for p in parts for ep in p.episodes]
    assert rebuilt == es.episodes
    assert len(parts) >= 1
    # no High -> Low adjacency inside any slice
    for part in parts:
        for prev, cur in zip(part.episodes, part.episodes[1:]):
            assert not (prev.stage.severity == Severity.HIGH and cur.stage.severity == Severity.LOW)
    assert [p.index for p in parts] == list(range(len(parts)))
    # and the cuts are exactly the rule's: after each High directly followed by Low
    assert [len(p.episodes) for p in parts] == [len(s) for s in cut_oracle(letters)]


class TestToSymbols:
    def test_singleton(self):
        es = EpisodeSequence(
            "a", "v", [mk_episode(0.0, stage=AttackStage.VULN_DISC, service="http")]
        )
        part, = partition_subsequences(es)
        assert to_symbols(part) == [Symbol(AttackStage.VULN_DISC, "http")]

    def test_order_preserved(self):
        stages = [
            AttackStage.SERVICE_DISC,
            AttackStage.VULN_DISC,
            AttackStage.PRIV_ESC,
            AttackStage.ARBITRARY_CODE_EXE,
            AttackStage.DATA_EXFILTRATION,
        ]
        es = EpisodeSequence(
            "a", "v", [mk_episode(float(i), stage=s) for i, s in enumerate(stages)]
        )
        part, = partition_subsequences(es)
        assert [s.stage for s in to_symbols(part)] == stages

    def test_projection_oracle(self):
        rng = random.Random(5)
        episodes = [
            mk_episode(
                float(i),
                stage=rng.choice(list(AttackStage)),
                service=rng.choice(["ssh", "http", "unknown"]),
            )
            for i in range(9)
        ]
        es = EpisodeSequence("a", "v", episodes)
        for part in partition_subsequences(es):
            assert to_symbols(part) == [
                Symbol(ep.stage, ep.service) for ep in part.episodes
            ]


def test_one_symbol_object_per_stage_and_service():
    """Sub-sequences of different pairs that hold one (stage, service) share
    its one ``Symbol`` object, as the corpus of a run repeats a few symbols."""
    first, second = (
        partition_subsequences(EpisodeSequence(attacker, "v", [
            mk_episode(0.0, stage=AttackStage.VULN_DISC, service="http"),
            mk_episode(1.0, stage=AttackStage.PRIV_ESC, service="ssh"),
        ]))[0]
        for attacker in ("a", "b")
    )
    for symbol, again in zip(to_symbols(first), to_symbols(second), strict=True):
        assert symbol is again
        assert type(symbol) is Symbol


def test_symbol_text_round_trip():
    sym = Symbol(AttackStage.DATA_EXFILTRATION, "remoteware-cl")
    assert parse_symbol(render_symbol(sym)) == sym


@given(st.text(max_size=8))
@example("#t1")
@example("a,b")
@example("\\#x,\\c")
@example("##\t,")
def test_escaped_names_round_trip(name):
    for table, kept_out in (
        (TSV_ESCAPES, "\t\n\r"),
        (SYMBOL_ESCAPES, "\t\n\r "),
        (TEAM_ESCAPES, "\t\n\r,"),
    ):
        text = escaped(table=table)[name]
        assert unescape_field(text) == name
        assert not text.startswith("#")
        assert not set(text) & set(kept_out)
