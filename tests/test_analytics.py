import itertools
import random
from collections import Counter
from decimal import ROUND_HALF_UP, Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alertgraphs.analytics import (
    TeamScore,
    graph_summary,
    rank_teams,
    shorter_repeat_ratio,
    workload_stats,
)
from alertgraphs.automaton import OUT_OF_MODEL, AnnotatedSequence
from alertgraphs.episodes import EpisodeSequence, EpisodeSubSequence
from alertgraphs.graphs import (
    AgEdge,
    AgVertex,
    AttackGraph,
    AttemptPath,
    ObjectiveKey,
    ag_filename,
    extract_ag,
    find_objectives,
    render_index,
    team_start_times,
)
from alertgraphs.stages import AttackStage

from analytics_oracle import (
    graph_summary_oracle,
    rank_teams_oracle,
    render_index_oracle,
    shorter_repeat_ratio_oracle,
)
from util import draw_ag, fold_ags, mk_alert, mk_episode

EXFIL = AttackStage.DATA_EXFILTRATION
SCAN = AttackStage.SERVICE_DISC
PRIV = AttackStage.PRIV_ESC
INFO = AttackStage.INFO_DISC


def tally_of(ags):
    return fold_ags(ags)[1]


def rows_of(ags):
    return fold_ags(ags)[0]

# Published team evaluation rows: (severe found/70, medium found/148, score)
PUBLISHED_RANKING = [
    ("T5", 28, 40, 35.67),
    ("T1", 18, 62, 31.33),
    ("T9", 23, 36, 30.0),
    ("T7", 22, 26, 26.67),
    ("T8", 15, 32, 21.33),
    ("T2", 3, 8, 4.33),
]


class TestScoreFromCounts:
    """``TeamScore.score``, worked out from the four counts it is built from."""

    @pytest.mark.parametrize("team,severe,medium,expected", PUBLISHED_RANKING)
    def test_published_rows(self, team, severe, medium, expected):
        assert TeamScore(team, severe, medium, 70, 148).score == pytest.approx(expected, abs=0.01)

    def test_round_then_average_order(self):
        # 18/70 = 25.71% rounds to 26 before weighting; averaging first
        # would give 31.11 instead of 31.33
        assert TeamScore("t", 18, 62, 70, 148).score == 31.33

    def test_full_ownership(self):
        assert TeamScore("t", 10, 5, 10, 5).score == 100.0

    def test_half_up_rounding(self):
        # 21/40 = 52.5% must round up to 53
        assert TeamScore("t", 21, 0, 40, 148).score == pytest.approx((2 * 53 + 0) / 3, abs=0.005)

    def test_integer_rounding_matches_decimal_quantize(self):
        # every numerator 2*sev% + med% from 0 to 300, against the Decimal
        # formula the integer one replaced
        for sev_pct, med_pct in itertools.product(range(101), repeat=2):
            combined = Decimal(2 * sev_pct + med_pct) / Decimal(3)
            expected = float(combined.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))
            assert TeamScore("t", sev_pct, med_pct, 100, 100).score == expected

    def test_team_score_percentages_are_derived_not_stored(self):
        sc = TeamScore("t1", 21, 18, 40, 70)
        assert (sc.severe_pct, sc.medium_pct) == (53, 26)  # 52.5 rounds up, 25.71 down
        assert sc.score == pytest.approx((2 * 53 + 26) / 3, abs=0.005)
        assert "severe_pct" not in sc._asdict() and "medium_pct" not in sc._asdict()
        with pytest.raises(TypeError):  # the score is the counts', never given
            TeamScore("t1", 21, 18, 40, 70, 99.0)
        with pytest.raises(TypeError):
            TeamScore("t1", 21, 18, 40, 70, score=99.0)


def aseq(attacker, victim, rows):
    entries = [
        (
            mk_episode(sec, stage=stage, service=service, attacker=attacker, victim=victim),
            sid,
        )
        for sec, stage, service, sid in rows
    ]
    return AnnotatedSequence(attacker=attacker, victim=victim, entries=entries)


def build_ags():
    sequences = [
        aseq(
            "t1",
            "v1",
            [
                (0.0, SCAN, "ssh", 1),
                (10.0, PRIV, "http", 2),
                (20.0, EXFIL, "rw", 3),
            ],
        ),
        aseq(
            "t2",
            "v1",
            [
                (0.0, PRIV, "http", 2),
                (10.0, EXFIL, "rw", 3),
            ],
        ),
        aseq(
            "t2",
            "v2",
            [
                (0.0, PRIV, "smb", 7),
                (10.0, EXFIL, "rw", 8),
            ],
        ),
    ]
    ags = [
        draw_ag(ObjectiveKey("v1", EXFIL, "rw"), sequences),
        draw_ag(ObjectiveKey("v2", EXFIL, "rw"), sequences),
    ]
    return sequences, ags


class TestRankTeams:
    def test_discovery_and_ordering(self):
        _, ags = build_ags()
        scores = rank_teams(tally_of(ags))
        # distinct High triples: (EXFIL, rw, 3) and (EXFIL, rw, 8);
        # distinct Med triples: (PRIV, http, 2) and (PRIV, smb, 7)
        by_team = {s.team: s for s in scores}
        assert by_team["t1"].severe_total == 2
        assert by_team["t1"].medium_total == 2
        assert by_team["t1"].severe_vertices == 1
        assert by_team["t1"].medium_vertices == 1
        assert by_team["t2"].severe_vertices == 2
        assert by_team["t2"].medium_vertices == 2
        assert scores[0].team == "t2"
        assert scores[0].score == 100.0

    def test_permutation_invariance(self):
        _, ags = build_ags()
        forward = rank_teams(tally_of(ags))
        backward = rank_teams(tally_of(list(reversed(ags))))
        assert forward == backward

    def test_duplicate_discovery_leaves_totals_unchanged(self):
        sequences, ags = build_ags()
        # a new team re-discovering existing vertices must not change totals
        clone = aseq(
            "t9",
            "v1",
            [
                (0.0, PRIV, "http", 2),
                (10.0, EXFIL, "rw", 3),
            ],
        )
        ags2 = [
            draw_ag(ObjectiveKey("v1", EXFIL, "rw"), sequences + [clone]),
            draw_ag(ObjectiveKey("v2", EXFIL, "rw"), sequences + [clone]),
        ]
        before = {s.team: s.score for s in rank_teams(tally_of(ags))}
        after = {s.team: s.score for s in rank_teams(tally_of(ags2))}
        for team, score in before.items():
            assert after[team] == score

    def test_zero_totals_raise(self):
        sequences = [aseq("t1", "v1", [(0.0, EXFIL, "rw", 1)])]
        ags = [draw_ag(ObjectiveKey("v1", EXFIL, "rw"), sequences)]
        with pytest.raises(ValueError):
            rank_teams(tally_of(ags))  # no medium-severity vertex anywhere


class TestShorterRepeatRatio:
    def test_single_attempts_absent(self):
        _, ags = build_ags()
        assert shorter_repeat_ratio(tally_of(ags)) is None

    def test_mixed_pairs_fifty_percent(self):
        # attempts of lengths (5, 3) and (4, 4) -> one of two pairs shorter
        seq_a = aseq(
            "ta",
            "v1",
            [
                (0.0, SCAN, "ssh", 1),
                (10.0, INFO, "dns", 2),
                (20.0, PRIV, "http", 3),
                (30.0, PRIV, "smb", 4),
                (40.0, EXFIL, "rw", 5),
                (50.0, INFO, "dns", 6),
                (60.0, PRIV, "http", 7),
                (70.0, EXFIL, "rw", 8),
            ],
        )
        seq_b = aseq(
            "tb",
            "v2",
            [
                (0.0, SCAN, "ssh", 1),
                (10.0, INFO, "dns", 2),
                (20.0, PRIV, "http", 3),
                (30.0, EXFIL, "rw", 5),
                (40.0, SCAN, "ssh", 6),
                (50.0, INFO, "dns", 7),
                (60.0, PRIV, "http", 8),
                (70.0, EXFIL, "rw", 9),
            ],
        )
        ags = [
            draw_ag(ObjectiveKey("v1", EXFIL, "rw"), [seq_a, seq_b]),
            draw_ag(ObjectiveKey("v2", EXFIL, "rw"), [seq_a, seq_b]),
        ]
        assert shorter_repeat_ratio(tally_of(ags)) == pytest.approx(50.0)


def oracle_shorter_repeat_ratio(ags):
    """The ratio by grouping each graph's attempts per team, then sorting
    each group by attempt number."""
    pairs = 0
    shorter = 0
    for ag in ags:
        by_team = {}
        for attempt in ag.attempts:
            by_team.setdefault(attempt.team, []).append(attempt)
        for attempts in by_team.values():
            attempts.sort(key=lambda a: a.index)
            for first, second in zip(attempts, attempts[1:]):
                pairs += 1
                if len(second.vertices) < len(first.vertices):
                    shorter += 1
    if pairs == 0:
        return None
    return 100.0 * shorter / pairs


# (team, attempt number, path length): few teams, so they interleave; numbers
# with gaps; lengths down to a single vertex; lists in any order
attempt_rows = st.lists(
    st.tuples(
        st.sampled_from(["t0", "t1", "t2"]),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=4),
    ),
    max_size=10,
)


@given(st.lists(attempt_rows, max_size=4))
def test_shorter_repeat_ratio_matches_group_then_sort(graphs):
    ags = [
        AttackGraph(
            key=ObjectiveKey(f"v{i}", EXFIL, "rw"),
            vertices={},
            edges=[],
            attempts=[
                AttemptPath(team, index, [(SCAN, "ssh", sid) for sid in range(length)])
                for team, index, length in rows
            ],
            teams=tuple(sorted({team for team, _, _ in rows})),
        )
        for i, rows in enumerate(graphs)
    ]
    assert shorter_repeat_ratio(tally_of(ags)) == oracle_shorter_repeat_ratio(ags)


class TestWorkloadStats:
    def test_fixture_matches_recount_oracle(self):
        rng = random.Random(15)
        raw = [
            mk_alert(float(i), attacker=rng.choice(["t1", "t2"]), victim="v1")
            for i in range(20)
        ]
        filtered = raw[::2]
        episodes = [
            mk_episode(float(i), attacker=rng.choice(["t1", "t2"])) for i in range(9)
        ]
        sequences = [
            EpisodeSequence("t1", "v1", episodes[:2]),
            EpisodeSequence("t2", "v1", episodes[2:4]),
        ]
        subsequences = [
            EpisodeSubSequence(("t1", "v1"), 0, episodes[:2]),
            EpisodeSubSequence(("t1", "v1"), 1, episodes[:1]),
            EpisodeSubSequence(("t2", "v1"), 0, episodes[2:4]),
        ]
        _, ags = build_ags()
        stats = workload_stats(raw, filtered, episodes, sequences, subsequences, rows_of(ags))
        by_team = {s.team: s for s in stats}
        # independent recount
        for team in ("t1", "t2"):
            assert by_team[team].raw_alerts == sum(1 for a in raw if a.attacker == team)
            assert by_team[team].filtered_alerts == sum(
                1 for a in filtered if a.attacker == team
            )
            assert by_team[team].episodes == sum(
                1 for e in episodes if e.attacker == team
            )
            assert by_team[team].sequence_count == sum(
                1 for s in sequences if s.attacker == team
            )
            assert by_team[team].subsequence_count == sum(
                1 for s in subsequences if s.parent[0] == team
            )
            assert by_team[team].ag_count == sum(1 for ag in ags if team in ag.teams)

    def test_alerts_counted_from_one_pass_iterables(self):
        raw = [mk_alert(float(i), attacker=team) for i, team in enumerate("abab" + "c")]
        stats = workload_stats(iter(raw), iter(raw[:2]), [], [], [], [])
        counts = {s.team: (s.raw_alerts, s.filtered_alerts) for s in stats}
        assert counts == {"a": (2, 1), "b": (2, 1), "c": (1, 0)}

    def test_ag_attribution_overlaps(self):
        _, ags = build_ags()
        stats = workload_stats([], [], [], [], [], rows_of(ags))
        counts = {s.team: s.ag_count for s in stats}
        assert counts == {"t1": 1, "t2": 2}


def test_graph_summary():
    _, ags = build_ags()
    summary = graph_summary(rows_of(ags))
    assert summary["ag_count"] == 2
    assert summary["mean_vertices"] == pytest.approx((3 + 2) / 2)
    assert summary["mean_simplicity"] == pytest.approx((1.0 + 2.0) / 2)
    empty = graph_summary([])
    assert empty == {"ag_count": 0, "mean_vertices": None, "mean_simplicity": None}


def test_graph_summary_adds_left_to_right():
    # ten graphs of one vertex and ten edges: 0.1 added ten times left to
    # right is 0.9999999999999999, where a compensated sum gives 1.0
    vertex = (EXFIL, "rw", 0)
    ags = [
        AttackGraph(
            key=ObjectiveKey(f"v{i}", EXFIL, "rw"),
            vertices={vertex: AgVertex(EXFIL, "rw", 0)},
            edges=[AgEdge(vertex, vertex, "t1", 0)] * 10,
            attempts=[],
            teams=("t1",),
        )
        for i in range(10)
    ]
    assert graph_summary(rows_of(ags))["mean_simplicity"] == 0.09999999999999999


# annotated sequences: one per (attacker, victim), each entry a (stage,
# service, state id) with out-of-model and sink states among the ids
annotated_rows = st.lists(
    st.tuples(
        st.sampled_from(["t0", "t1", "t2"]),
        st.sampled_from(["v0", "v1"]),
        st.lists(
            st.tuples(
                st.sampled_from([SCAN, INFO, PRIV, AttackStage.USER_PRIV_ESC, EXFIL]),
                st.sampled_from(["ssh", "http"]),
                st.sampled_from([OUT_OF_MODEL, 0, 1, 2]),
            ),
            max_size=12,
        ),
    ),
    max_size=6,
    unique_by=lambda row: row[:2],
)


@given(annotated_rows, st.randoms(use_true_random=False))
def test_tallies_match_the_graph_walking_statistics(rows, rng):
    sequences = [
        aseq(attacker, victim, [(10.0 * i, *entry) for i, entry in enumerate(entries)])
        for attacker, victim, entries in rows
    ]
    objectives = find_objectives(sequences)
    starts = team_start_times(sequences)
    ags = [extract_ag(key, attempts, frozenset({2}), starts) for key, attempts in objectives.items()]
    rng.shuffle(ags)  # the fold's order is free; the summary adds in the rows' order
    index_rows, tally = fold_ags(ags)

    try:
        want = rank_teams_oracle(ags)
    except ValueError:
        with pytest.raises(ValueError):
            rank_teams(tally)
    else:
        assert rank_teams(tally) == want
    assert shorter_repeat_ratio(tally) == shorter_repeat_ratio_oracle(ags)
    summary, want_summary = graph_summary(index_rows), graph_summary_oracle(ags)
    assert summary == want_summary
    if want_summary["mean_simplicity"] is not None:  # equal to the bit
        assert summary["mean_simplicity"].hex() == want_summary["mean_simplicity"].hex()
    by_name = sorted(zip(index_rows, ags), key=lambda pair: pair[0][0])
    assert render_index([row for row, _ in by_name]) == render_index_oracle(
        [(ag_filename(ag.key), ag) for _, ag in by_name]
    )
    counts = {s.team: s.ag_count for s in workload_stats([], [], [], [], [], index_rows)}
    assert counts == Counter(team for ag in ags for team in ag.teams)
