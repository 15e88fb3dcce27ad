import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alertgraphs.alerts import _Memo
from alertgraphs.automaton import OUT_OF_MODEL, AnnotatedSequence
from alertgraphs.graphs import (
    AgEdge,
    AgVertex,
    AttackGraph,
    AttemptPath,
    ObjectiveKey,
    ag_filename,
    emit_dot,
    extract_ag,
    find_objectives,
    index_row,
    render_index,
    simplicity,
    team_start_times,
    vertex_texts,
)
from alertgraphs.stages import AttackStage, Severity

from util import dot_strings, draw_ag, mk_episode, ts

EXFIL = AttackStage.DATA_EXFILTRATION
MANIP = AttackStage.DATA_MANIPULATION
SCAN = AttackStage.SERVICE_DISC
PRIV = AttackStage.PRIV_ESC
INFO = AttackStage.INFO_DISC


def dot_of(ag):
    """``emit_dot`` of one graph drawn alone, with a vertex-text memo of its own."""
    return emit_dot(ag, _Memo(vertex_texts))


def aseq(attacker, victim, rows):
    """rows: (seconds, stage, service, sid); one entry per episode."""
    entries = [
        (
            mk_episode(sec, stage=stage, service=service, attacker=attacker, victim=victim),
            sid,
        )
        for sec, stage, service, sid in rows
    ]
    return AnnotatedSequence(attacker=attacker, victim=victim, entries=entries)


def single_attempt_seq(attacker="t1", victim="10.0.0.20"):
    return aseq(
        attacker,
        victim,
        [
            (0.0, SCAN, "ssh", 5),
            (300.0, PRIV, "http", 4),
            (3600.0, EXFIL, "remoteware-cl", 3),
        ],
    )


def oracle_find_objectives(annotated):
    """Every (victim, high-severity stage, service) present, by a set scan."""
    return sorted(
        {
            ObjectiveKey(seq.victim, ep.stage, ep.service)
            for seq in annotated
            for ep, _ in seq.entries
            if ep.stage.severity == Severity.HIGH
        }
    )


def oracle_extract_ag(key, annotated, sink_ids):
    """One objective's graph by a scan of every sequence, the way it was
    drawn before ``find_objectives`` cut the attempts: keep the victim's
    sequences that hold the objective, sort them by attacker, cut each at
    every occurrence, take team start times from all sequences, and draw
    each attempt as a path."""
    starts = team_start_times(annotated)
    qualifying = [
        seq
        for seq in annotated
        if seq.victim == key.victim
        and any(ep.stage == key.stage and ep.service == key.service for ep, _ in seq.entries)
    ]
    flags, edges, attempts = {}, [], []  # flags: each vertex's AgVertex flags that are set
    for seq in sorted(qualifying, key=lambda e: e.attacker):
        team = seq.attacker
        attempt = []
        for episode, sid in seq.entries:
            attempt.append((episode, sid))
            if not (episode.stage == key.stage and episode.service == key.service):
                continue
            path, last_episode = [], {}
            for ep, state in attempt:
                triple = (ep.stage, ep.service, state)
                if not (path and path[-1] == triple):
                    path.append(triple)
                last_episode[len(path) - 1] = ep
            for pos, triple in enumerate(path):
                if triple not in flags:
                    is_sink = triple[2] == OUT_OF_MODEL or triple[2] in sink_ids
                    flags[triple] = {"is_sink": is_sink}
                if pos == 0:
                    flags[triple]["is_path_start"] = True
                if pos == len(path) - 1:
                    flags[triple]["is_objective_variant"] = True
                if pos > 0:
                    seconds = int((last_episode[pos - 1].et - starts[team]).total_seconds())
                    edges.append(AgEdge(path[pos - 1], triple, team, seconds))
            attempts.append(AttemptPath(team=team, vertices=path))
            attempt = []
    unset = dict.fromkeys(AgVertex._fields, False)
    vertices = {triple: AgVertex(**unset | kwargs) for triple, kwargs in flags.items()}
    teams = tuple(sorted({a.team for a in attempts}))
    return AttackGraph(key=key, vertices=vertices, edges=edges, attempts=attempts, teams=teams)


class TestFindObjectives:
    def test_no_high_severity(self):
        seqs = [aseq("t1", "v1", [(0.0, SCAN, "ssh", 1), (10.0, PRIV, "http", 2)])]
        assert find_objectives(seqs) == {}

    def test_single_exfiltration_key(self):
        keys = find_objectives([single_attempt_seq()])
        assert list(keys) == [ObjectiveKey("10.0.0.20", EXFIL, "remoteware-cl")]

    def test_three_victims_two_stages_six_keys(self):
        seqs = []
        for victim in ("v1", "v2", "v3"):
            seqs.append(aseq("t1", victim, [(0.0, EXFIL, "ssh", 1), (10.0, MANIP, "ssh", 2)]))
        keys = list(find_objectives(seqs))
        assert keys == oracle_find_objectives(seqs)
        assert len(keys) == 6

    def test_attempts_cut_after_the_previous_occurrence(self):
        sequence = aseq(
            "t1",
            "v1",
            [
                (0.0, SCAN, "ssh", 1),
                (10.0, EXFIL, "ssh", 2),
                (20.0, MANIP, "ssh", 3),
                (30.0, EXFIL, "ssh", 4),
                (40.0, SCAN, "ssh", 5),  # after the last occurrence: dropped
            ],
        )
        entries = sequence.entries
        objectives = find_objectives([sequence])
        assert objectives[ObjectiveKey("v1", EXFIL, "ssh")] == [
            ("t1", entries[0:2]),
            ("t1", entries[2:4]),
        ]
        # an occurrence of another objective does not cut this one's attempt
        assert objectives[ObjectiveKey("v1", MANIP, "ssh")] == [("t1", entries[0:3])]


class TestExtractAg:
    def test_single_attempt_transcription(self):
        sequence = single_attempt_seq()
        key = ObjectiveKey("10.0.0.20", EXFIL, "remoteware-cl")
        ag = draw_ag(key, [sequence])
        assert len(ag.vertices) == 3
        assert len(ag.edges) == 2
        objective_vertices = [t for t, v in ag.vertices.items() if v.is_objective_variant]
        assert objective_vertices == [(EXFIL, "remoteware-cl", 3)]
        starts = [t for t, v in ag.vertices.items() if v.is_path_start]
        assert starts == [(SCAN, "ssh", 5)]
        # edge timing: et of the source episode minus the team's first alert
        assert [e.seconds_since_first_alert for e in ag.edges] == [0, 300]

    def test_re_exploitation_second_attempt_shorter(self):
        sequence = aseq(
            "t1",
            "v1",
            [
                (0.0, SCAN, "ssh", 5),
                (60.0, PRIV, "http", 4),
                (120.0, EXFIL, "remoteware-cl", 3),
                (600.0, INFO, "unknown", 2),
                (700.0, EXFIL, "remoteware-cl", 3),
            ],
        )
        key = ObjectiveKey("v1", EXFIL, "remoteware-cl")
        ag = draw_ag(key, [sequence])
        # manual path enumeration: attempt 1 = scan->priv->exfil,
        # attempt 2 = info->exfil sharing the deduplicated exfil vertex
        assert [len(a.vertices) for a in ag.attempts] == [3, 2]
        assert len(ag.vertices) == 4
        assert len(ag.edges) == 3
        # t1's first and second attempts, numbered by their place in the list
        assert [a.team for a in ag.attempts] == ["t1", "t1"]
        assert len(ag.attempts[1].vertices) < len(ag.attempts[0].vertices)

    def test_distinct_sids_become_distinct_variants(self):
        sequence = aseq(
            "t1",
            "v1",
            [
                (0.0, SCAN, "ssh", 5),
                (60.0, EXFIL, "remoteware-cl", 3),
                (120.0, SCAN, "ssh", 5),
                (180.0, EXFIL, "remoteware-cl", 9),
            ],
        )
        key = ObjectiveKey("v1", EXFIL, "remoteware-cl")
        ag = draw_ag(key, [sequence])
        variants = sorted(sid for (_, _, sid), v in ag.vertices.items() if v.is_objective_variant)
        assert variants == [3, 9]

    def test_three_teams_share_one_graph(self):
        sequences = [
            single_attempt_seq(attacker="t1"),
            single_attempt_seq(attacker="t5"),
            single_attempt_seq(attacker="t8"),
        ]
        key = ObjectiveKey("10.0.0.20", EXFIL, "remoteware-cl")
        ag = draw_ag(key, sequences)
        assert ag.teams == ("t1", "t5", "t8")
        assert len(ag.vertices) == 3  # shared across teams
        assert len(ag.edges) == 6  # parallel edges stay distinct per team
        dot = dot_of(ag)
        assert "style=dashed" in dot and "style=solid" in dot and "style=dotted" in dot

    def test_trailing_unfinished_attempt_dropped(self):
        sequence = aseq(
            "t1",
            "v1",
            [
                (0.0, EXFIL, "remoteware-cl", 1),
                (60.0, SCAN, "ssh", 2),  # begins an attempt that never completes
            ],
        )
        ag = draw_ag(ObjectiveKey("v1", EXFIL, "remoteware-cl"), [sequence])
        assert len(ag.vertices) == 1
        assert all(v.is_objective_variant for v in ag.vertices.values())

    def test_adjacent_identical_triples_collapse(self):
        sequence = aseq(
            "t1",
            "v1",
            [
                (0.0, SCAN, "ssh", 5),
                (10.0, SCAN, "ssh", 5),
                (60.0, EXFIL, "remoteware-cl", 3),
            ],
        )
        ag = draw_ag(ObjectiveKey("v1", EXFIL, "remoteware-cl"), [sequence])
        assert len(ag.vertices) == 2
        assert len(ag.edges) == 1
        # timing uses the last episode of the collapsed group
        assert ag.edges[0].seconds_since_first_alert == 10

    def test_every_attempt_ends_at_objective_variant(self):
        sequences = [
            aseq(
                "t1",
                "v1",
                [
                    (0.0, SCAN, "ssh", 1),
                    (10.0, EXFIL, "remoteware-cl", 2),
                    (20.0, INFO, "unknown", 3),
                    (30.0, PRIV, "http", 4),
                    (40.0, EXFIL, "remoteware-cl", 6),
                ],
            ),
            aseq("t2", "v1", [(5.0, EXFIL, "remoteware-cl", 2)]),
        ]
        ag = draw_ag(ObjectiveKey("v1", EXFIL, "remoteware-cl"), sequences)
        for attempt in ag.attempts:
            last = ag.vertices[attempt.vertices[-1]]
            assert last.is_objective_variant
            # no edge leaves the end of this attempt within the attempt
        assert {t for t in ag.teams} == {"t1", "t2"}

    def test_related_objectives_share_prefix_vertices(self):
        rows = [
            (0.0, SCAN, "ssh", 5),
            (60.0, PRIV, "remoteware-cl", 4),
            (120.0, EXFIL, "remoteware-cl", 3),
            (600.0, INFO, "unknown", 2),
            (660.0, PRIV, "remoteware-cl", 4),
            (720.0, MANIP, "remoteware-cl", 7),
        ]
        sequence = aseq("t1", "v1", rows)
        exfil_ag = draw_ag(ObjectiveKey("v1", EXFIL, "remoteware-cl"), [sequence])
        manip_ag = draw_ag(ObjectiveKey("v1", MANIP, "remoteware-cl"), [sequence])
        shared = {(SCAN, "ssh", 5), (PRIV, "remoteware-cl", 4)}
        assert shared <= set(exfil_ag.vertices)
        assert shared <= set(manip_ag.vertices)

    def test_team_start_times(self):
        sequences = [
            aseq("t1", "v1", [(100.0, SCAN, "ssh", 1)]),
            aseq("t1", "v2", [(50.0, SCAN, "ssh", 1)]),
            aseq("t2", "v1", [(10.0, SCAN, "ssh", 1)]),
        ]
        starts = team_start_times(sequences)
        assert starts == {"t1": ts(50.0), "t2": ts(10.0)}


# Every team here may hit every victim; t0 always hits v0 and v1 and v0 is
# always hit by t0 and t1, so start times cross victims and graphs mix teams.
CORPUS_TEAMS = ("t0", "t1", "t2")
CORPUS_VICTIMS = ("v0", "v1", "v2")
corpus_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=20_000),
        st.sampled_from([SCAN, PRIV, INFO, EXFIL, MANIP]),
        st.sampled_from(["ssh", "http"]),
        st.integers(min_value=-1, max_value=4),
    ),
    min_size=1,
    max_size=8,
)


@st.composite
def annotated_corpora(draw):
    pairs = {("t0", "v0"), ("t0", "v1"), ("t1", "v0")} | draw(
        st.sets(st.tuples(st.sampled_from(CORPUS_TEAMS), st.sampled_from(CORPUS_VICTIMS)))
    )
    order = draw(st.permutations(sorted(pairs)))
    return [aseq(t, v, sorted(draw(corpus_rows), key=lambda r: r[0])) for t, v in order]


@settings(max_examples=150, deadline=None)
@given(annotated_corpora(), st.frozensets(st.integers(min_value=0, max_value=4)))
def test_per_victim_extraction_matches_whole_corpus_scan(corpus, sinks):
    """The one-pass cut of ``find_objectives`` gives the graphs a scan of
    every sequence per objective gives."""
    objectives = find_objectives(corpus)
    assert list(objectives) == oracle_find_objectives(corpus)
    starts = team_start_times(corpus)
    for key, attempts in objectives.items():
        drawn = extract_ag(key, attempts, sinks, starts)
        scanned = oracle_extract_ag(key, corpus, sinks)
        assert dot_of(drawn) == dot_of(scanned)
        assert drawn.attempts == scanned.attempts
        assert drawn.teams == scanned.teams


def test_edge_labels_count_from_first_alert_at_another_victim():
    earlier = aseq("t1", "v2", [(0.0, SCAN, "ssh", 9)])  # v2 holds no objective
    sequence = aseq("t1", "v1", [(7200.0, SCAN, "ssh", 1), (7300.0, EXFIL, "ssh", 2)])
    key = ObjectiveKey("v1", EXFIL, "ssh")
    assert list(find_objectives([earlier, sequence])) == [key]
    ag = draw_ag(key, [earlier, sequence])
    assert [e.seconds_since_first_alert for e in ag.edges] == [7200]
    assert 'label="2.0h"' in dot_of(ag)


class TestSimplicity:
    def test_two_vertices_one_edge(self):
        ag = draw_ag(
            ObjectiveKey("v1", EXFIL, "ssh"),
            [aseq("t1", "v1", [(0.0, SCAN, "ssh", 1), (10.0, EXFIL, "ssh", 2)])],
        )
        assert simplicity(len(ag.vertices), len(ag.edges)) == 2.0

    def test_parallel_edges_counted_individually(self):
        sequences = [
            aseq("t1", "v1", [(0.0, SCAN, "ssh", 1), (10.0, EXFIL, "ssh", 2)]),
            aseq("t2", "v1", [(0.0, SCAN, "ssh", 1), (10.0, EXFIL, "ssh", 2)]),
            aseq(
                "t3",
                "v1",
                [
                    (0.0, SCAN, "ssh", 1),
                    (10.0, EXFIL, "ssh", 2),
                    (20.0, INFO, "unknown", 3),
                    (30.0, EXFIL, "ssh", 2),
                ],
            ),
        ]
        ag = draw_ag(ObjectiveKey("v1", EXFIL, "ssh"), sequences)
        # vertices: scan, exfil, info; edges: 3 first-attempt + 1 re-attempt
        assert len(ag.vertices) == 3
        assert len(ag.edges) == 4
        assert simplicity(len(ag.vertices), len(ag.edges)) == 0.75

    def test_zero_edges_absent(self):
        ag = draw_ag(
            ObjectiveKey("v1", EXFIL, "ssh"),
            [aseq("t1", "v1", [(0.0, EXFIL, "ssh", 1)])],
        )
        assert simplicity(len(ag.vertices), len(ag.edges)) is None


class TestEmitDot:
    def test_single_vertex_graph(self):
        ag = draw_ag(
            ObjectiveKey("v1", EXFIL, "ssh"),
            [aseq("t1", "v1", [(0.0, EXFIL, "ssh", 1)])],
        )
        dot = dot_of(ag)
        assert dot.count("->") == 0
        assert dot.count("[shape=") == 1

    def test_severity_shapes(self):
        sequence = aseq(
            "t1",
            "v1",
            [
                (0.0, SCAN, "ssh", 1),
                (10.0, PRIV, "http", 2),
                (20.0, EXFIL, "remoteware-cl", 3),
            ],
        )
        dot = dot_of(draw_ag(ObjectiveKey("v1", EXFIL, "remoteware-cl"), [sequence]))
        assert "shape=oval" in dot
        assert "shape=box" in dot
        assert "shape=hexagon" in dot

    def test_fills_sinks_and_labels(self):
        earlier = aseq("t1", "v2", [(0.0, SCAN, "ssh", 9)])  # sets t1's first alert
        sequence = aseq(
            "t1",
            "v1",
            [
                (7200.0, SCAN, "ssh", 1),
                (7300.0, EXFIL, "remoteware-cl", -1),
            ],
        )
        ag = draw_ag(
            ObjectiveKey("v1", EXFIL, "remoteware-cl"), [earlier, sequence], frozenset({1})
        )
        dot = dot_of(ag)
        assert 'fillcolor="yellow"' in dot  # path start
        assert 'fillcolor="red"' in dot  # objective variant
        assert dot.count("dotted") >= 2  # sink sid 1 and out-of-model sid -1
        assert 'label="2.0h"' in dot  # hours since first alert, one decimal

    def test_objective_fill_beats_start_fill(self):
        ag = draw_ag(
            ObjectiveKey("v1", EXFIL, "ssh"),
            [aseq("t1", "v1", [(0.0, EXFIL, "ssh", 1)])],
        )
        dot = dot_of(ag)
        assert 'fillcolor="red"' in dot
        assert "yellow" not in dot

    def test_frozen_rendering(self):
        sequence = aseq(
            "t1",
            "v1",
            [(0.0, SCAN, "ssh", 1), (1800.0, EXFIL, "remoteware-cl", 2)],
        )
        ag = draw_ag(ObjectiveKey("v1", EXFIL, "remoteware-cl"), [sequence])
        expected = (
            'digraph "attack-graph-v1-DATA_EXFILTRATION-remoteware-cl" {\n'
            '    "DATA_EXFILTRATION|remoteware-cl|2" [shape=hexagon, style="filled", '
            'fillcolor="red", label="DATA_EXFILTRATION\\nremoteware-cl\\n2"];\n'
            '    "SERVICE_DISC|ssh|1" [shape=oval, style="filled", '
            'fillcolor="yellow", label="SERVICE_DISC\\nssh\\n1"];\n'
            '    "SERVICE_DISC|ssh|1" -> "DATA_EXFILTRATION|remoteware-cl|2" '
            '[label="0.0h", style=dashed];\n'
            "}\n"
        )
        assert dot_of(ag) == expected

    def test_backslash_and_quote_escaped(self):
        svc = 'a"b\\'
        sequence = aseq("t1", "v1", [(0.0, SCAN, svc, 1), (1800.0, EXFIL, svc, 2)])
        strings = dot_strings(dot_of(draw_ag(ObjectiveKey("v1", EXFIL, svc), [sequence])))
        assert f"attack-graph-v1-DATA_EXFILTRATION-{svc}" in strings
        assert f"SERVICE_DISC|{svc}|1" in strings
        assert f"SERVICE_DISC\\n{svc}\\n1" in strings

    def test_style_config_cycles(self):
        teams = ["t5", "t1", "t8", "t9", "t2"]
        # each team's one edge leaves a start vertex named after the team
        sequences = [aseq(t, "v1", [(0.0, SCAN, t, 1), (10.0, EXFIL, "ssh", 2)]) for t in teams]
        dot = dot_of(draw_ag(ObjectiveKey("v1", EXFIL, "ssh"), sequences))
        styles = {
            line.split("|")[1]: line.rsplit("style=", 1)[1].rstrip("];")
            for line in dot.splitlines()
            if "->" in line
        }
        assert styles == {
            "t1": "dashed",
            "t2": "solid",
            "t5": "dotted",
            "t8": "bold",
            "t9": "dashed",  # cycles back
        }


def test_ag_filename_replaces_address_dots():
    key = ObjectiveKey("10.0.0.20", EXFIL, "remoteware-cl")
    assert ag_filename(key) == "attack-graph-10-0-0-20-DATA_EXFILTRATION-remoteware-cl.dot"


@pytest.mark.parametrize(
    "victim, service, expected",
    [
        ("v1", "a/b", "attack-graph-v1-DATA_EXFILTRATION-a-b.dot"),
        ("v1", "../x", "attack-graph-v1-DATA_EXFILTRATION-..-x.dot"),
        ("v1", "my svc", "attack-graph-v1-DATA_EXFILTRATION-my-svc.dot"),
        ("fe80::1/64", "a\\b\t\"c", "attack-graph-fe80--1-64-DATA_EXFILTRATION-a-b--c.dot"),
        ("v1", "x.y_z-1", "attack-graph-v1-DATA_EXFILTRATION-x.y_z-1.dot"),
    ],
)
def test_ag_filename_replaces_unsafe_characters(victim, service, expected):
    name = ag_filename(ObjectiveKey(victim, EXFIL, service))
    assert name == expected
    assert "/" not in name and "\\" not in name


@given(st.text(), st.text())
def test_ag_filename_is_one_safe_component(victim, service):
    name = ag_filename(ObjectiveKey(victim, EXFIL, service))
    assert name.startswith("attack-graph-") and name.endswith(".dot")
    assert set(name) <= set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")


def test_render_index_lists_counts_and_simplicity():
    ag = draw_ag(
        ObjectiveKey("v1", EXFIL, "ssh"),
        [aseq("t1", "v1", [(0.0, SCAN, "ssh", 1), (10.0, EXFIL, "ssh", 2)])],
    )
    text = render_index([index_row(ag_filename(ag.key), ag)])
    lines = text.splitlines()
    assert lines[-1].split("\t") == [
        "attack-graph-v1-DATA_EXFILTRATION-ssh.dot",
        "v1",
        "DATA_EXFILTRATION",
        "ssh",
        "2",
        "1",
        "2.0000",
        "t1",
    ]
