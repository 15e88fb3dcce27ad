"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import os
import random
import time
from pathlib import Path

import pytest

from alertgraphs.alerts import filter_duplicates
from alertgraphs.analytics import TeamScore, rank_teams
from alertgraphs.automaton import (
    OUT_OF_MODEL,
    LearnParams,
    build_suffix_tree,
    learn_pdfa,
)
from alertgraphs.episodes import (
    EpisodeSequence,
    Symbol,
    aggregate_episodes,
    partition_subsequences,
)
from alertgraphs.evaluation import learn_markov_chain, perplexity, split_sequences
from alertgraphs.graphs import extract_ag, find_objectives, team_start_times
from alertgraphs.pipeline import PipelineConfig, run_pipeline
from alertgraphs.stages import AttackStage, Severity

from test_alerts import dedup_oracle
from test_analytics import PUBLISHED_RANKING
from test_automaton import edges, replay_oracle
from test_episodes import aggregation_oracle, cut_oracle, es_from_letters
from test_evaluation import bigram_counts, bigram_oracle
from util import mk_alert

FIXTURE = Path(__file__).parent / "fixtures/synthetic_alerts.jsonl"
GOLDEN = Path(__file__).parent / "golden"


def rebuilt_graphs(result):
    """The graphs of a finished run, drawn again from its annotated sequences:
    the run keeps only their index rows and tallies."""
    sink_ids = result.model.sink_ids()
    starts = team_start_times(result.annotated)
    return [
        extract_ag(key, attempts, sink_ids, starts)
        for key, attempts in find_objectives(result.annotated).items()
    ]


def report(number: int, name: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


# --------------------------------------------------------------------------
# 1. ranking formula reproduction


def test_criterion_1_ranking_formula():
    started = time.perf_counter()
    scores = [
        TeamScore(team, sev, med, 70, 148).score for team, sev, med, _ in PUBLISHED_RANKING
    ]
    expected = [row[3] for row in PUBLISHED_RANKING]
    ok = all(abs(got - want) <= 0.01 for got, want in zip(scores, expected))
    ok = ok and scores == sorted(scores, reverse=True)
    elapsed = time.perf_counter() - started
    report(1, "ranking formula", ok and elapsed < 1.0)


# --------------------------------------------------------------------------
# 2. perplexity formula


def test_criterion_2_perplexity_formula():
    # the tree over {2x[a], 1x[b], 1x[c]}, add-one smoothed over three
    # symbols and the end, assigns P([a]) = 3/8 * 3/6 and P([b]) = 2/8 * 2/5
    tree = build_suffix_tree([["a"], ["a"], ["b"], ["c"]])
    got = perplexity(tree, [["a"], ["b"]])
    ok = abs(got - (3 / 16 * 1 / 10) ** -0.5) <= 1e-9
    # a model that has seen only [a] leaves 1/7 of each step's mass unseen
    perfect = build_suffix_tree([["a"]] * 5)
    ok = ok and abs(perplexity(perfect, [["a"], ["a"]]) - (7 / 6) ** 2) <= 1e-12
    report(2, "perplexity formula", ok)


# --------------------------------------------------------------------------
# 3. model-quality ordering on a planted automaton

# 6-state generator; transitions are (probability, symbol, next state) and a
# None symbol ends the sequence. States 1/2 and 3/4 mirror each other with
# swapped symbol meanings, which first-order bigrams cannot represent.
PLANTED_MACHINE = {
    0: [(0.45, "a", 1), (0.45, "b", 2), (0.10, "c", 5)],
    1: [(0.45, "a", 3), (0.05, "b", 4), (0.30, "c", 1), (0.20, None, None)],
    2: [(0.05, "a", 4), (0.45, "b", 3), (0.30, "c", 2), (0.20, None, None)],
    3: [(0.50, "a", 5), (0.05, "b", 5), (0.25, "c", 3), (0.20, None, None)],
    4: [(0.05, "a", 5), (0.50, "b", 5), (0.25, "c", 4), (0.20, None, None)],
    5: [(0.12, "a", 5), (0.12, "b", 5), (0.06, "c", 5), (0.70, None, None)],
}


def planted_sample(rng: random.Random) -> list[str]:
    state, seq = 0, []
    while True:
        roll = rng.random()
        acc = 0.0
        for prob, sym, nxt in PLANTED_MACHINE[state]:
            acc += prob
            if roll < acc:
                if sym is None:
                    return seq
                seq.append(sym)
                state = nxt
                break
        if len(seq) > 60:
            return seq


def planted_corpus(n: int, seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    # generated in suffix orientation; stored forward, the learners reverse
    return [list(reversed(planted_sample(rng))) for _ in range(n)]


def test_criterion_3_model_quality_ordering():
    started = time.perf_counter()
    ok = True
    for seed in range(5):
        corpus = planted_corpus(500, seed)
        train, test = split_sequences(corpus, 0.8, seed)
        tree = build_suffix_tree(train)
        chain = learn_markov_chain(train)
        pdfa = learn_pdfa(build_suffix_tree(train), LearnParams())  # takes its trie over
        ok = ok and perplexity(tree, train) <= perplexity(pdfa, train)
        ok = ok and perplexity(pdfa, test) <= perplexity(tree, test)
        ok = ok and perplexity(pdfa, test) <= perplexity(chain, test)
    elapsed = time.perf_counter() - started
    report(3, "model-quality ordering", ok and elapsed < 30.0)


# --------------------------------------------------------------------------
# 4. oracle equivalence suite


def test_criterion_4_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(2024)
    ok = True

    for _ in range(100):  # duplicate filtering vs quadratic scan
        alerts = sorted(
            (
                mk_alert(
                    rng.uniform(0, 30),
                    attacker=rng.choice(["a1", "a2"]),
                    victim=rng.choice(["v1", "v2"]),
                    stage=rng.choice([AttackStage.SERVICE_DISC, AttackStage.PRIV_ESC]),
                    service=rng.choice(["ssh", "http"]),
                )
                for _ in range(rng.randrange(0, 50))
            ),
            key=lambda a: a.timestamp,
        )
        t = rng.uniform(0.2, 3.0)
        ok = ok and filter_duplicates(alerts, t) == dedup_oracle(alerts, t)

    for _ in range(100):  # episode aggregation vs gap-grouping oracle
        seconds = 0.0
        alerts = []
        for _ in range(rng.randrange(1, 50)):
            seconds += rng.choice([3.0, 60.0, 149.0, 151.0, 400.0])
            alerts.append(
                mk_alert(
                    seconds,
                    stage=rng.choice(
                        [AttackStage.SERVICE_DISC, AttackStage.PRIV_ESC, AttackStage.DATA_EXFILTRATION]
                    ),
                    service=rng.choice(["ssh", "http", "ftp"]),
                )
            )
        episodes = aggregate_episodes(alerts, 150.0)
        got = [(e.st, e.et, e.stage, e.service, e.alert_count) for e in episodes]
        ok = ok and got == aggregation_oracle(alerts, 150.0)

    for _ in range(100):  # attempt partitioning vs adjacent-pair oracle
        letters = "".join(rng.choice("LMH") for _ in range(rng.randrange(1, 50)))
        parts = partition_subsequences(es_from_letters(letters))
        ok = ok and [len(p.episodes) for p in parts] == [
            len(s) for s in cut_oracle(list(letters))
        ]

    for _ in range(100):  # replay vs transition-table walk
        corpus = [
            [rng.choice("abc") for _ in range(rng.randrange(1, 6))]
            for _ in range(rng.randrange(1, 30))
        ]
        model = learn_pdfa(build_suffix_tree(corpus), LearnParams(sink_count=rng.randrange(0, 6)))
        probe = [rng.choice("abcz") for _ in range(rng.randrange(1, 8))]
        ok = ok and model.replay(probe) == replay_oracle(model, probe)

    for _ in range(100):  # bigram counts vs sliding window
        corpus = [
            [rng.choice("abcd") for _ in range(rng.randrange(1, 7))]
            for _ in range(rng.randrange(1, 25))
        ]
        ok = ok and bigram_counts(learn_markov_chain(corpus)) == bigram_oracle(corpus)

    elapsed = time.perf_counter() - started
    report(4, "oracle equivalence", ok and elapsed < 10.0)


# --------------------------------------------------------------------------
# 5. structural invariants suite


def test_criterion_5_structural_invariants(tmp_path):
    ok = True
    rng = random.Random(5)

    # automaton determinism and per-state count conservation
    symbols = [Symbol(AttackStage.SURFING, c) for c in "abc"]
    for _ in range(10):
        corpus = [
            [rng.choice(symbols) for _ in range(rng.randrange(1, 6))]
            for _ in range(rng.randrange(1, 40))
        ]
        params = LearnParams(sink_count=rng.randrange(0, 6))
        first = learn_pdfa(build_suffix_tree(corpus), params)
        second = learn_pdfa(build_suffix_tree(corpus), params)
        ok = ok and first.to_text() == second.to_text()
        for state in range(len(first)):
            child_sum = sum(c for _, c in edges(first, state).values())
            ok = ok and first.total[state] == child_sum + first.final[state]
        for seq in corpus:
            ok = ok and OUT_OF_MODEL not in first.replay(seq)

    # attempt partitioning invariants
    for _ in range(50):
        letters = "".join(rng.choice("LMH") for _ in range(rng.randrange(1, 30)))
        es = es_from_letters(letters)
        parts = partition_subsequences(es)
        ok = ok and [e for p in parts for e in p.episodes] == es.episodes
        for part in parts:
            for prev, cur in zip(part.episodes, part.episodes[1:]):
                ok = ok and not (
                    prev.stage.severity == Severity.HIGH and cur.stage.severity == Severity.LOW
                )

    # pipeline-level invariants on the bundled fixture
    res_a = run_pipeline(PipelineConfig(alerts=[FIXTURE], out_dir=tmp_path / "a"))
    res_b = run_pipeline(PipelineConfig(alerts=[FIXTURE], out_dir=tmp_path / "b"))
    bytes_a = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
    bytes_b = {p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()}
    ok = ok and bytes_a == bytes_b  # byte-identical artifacts across runs

    ags = rebuilt_graphs(res_a)
    ok = ok and [(ag.key, len(ag.vertices), len(ag.edges)) for ag in ags] == sorted(
        (key, vertices, edges) for _, key, vertices, edges, _ in res_a.ags
    )
    for ag in ags:  # every attempt path ends at an objective variant
        for attempt in ag.attempts:
            ok = ok and ag.vertices[attempt.vertices[-1]].is_objective_variant

    report(5, "structural invariants", ok)


# --------------------------------------------------------------------------
# 6. golden pipeline run


def test_criterion_6_golden_run(tmp_path):
    run_pipeline(PipelineConfig(alerts=[FIXTURE], out_dir=tmp_path / "out"))
    got = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    expected = {p.name: p.read_bytes() for p in GOLDEN.iterdir() if p.is_file()}
    ok = sorted(got) == sorted(expected) and all(
        got[name] == expected[name] for name in expected
    )
    report(6, "golden pipeline run", ok)


# --------------------------------------------------------------------------
# 7. dataset-scale targets (conditional, informational)


def test_criterion_7_dataset_scale(tmp_path):
    alerts_dir = os.environ.get("CPTC_ALERTS_DIR")
    if not alerts_dir:
        pytest.skip("CPTC_ALERTS_DIR not set; dataset-scale check skipped")
    paths = sorted(Path(alerts_dir).glob("*.json*"))
    if not paths:
        pytest.skip(f"no alert files under {alerts_dir}")
    sig_map = os.environ.get("CPTC_SIG_MAP")
    cfg = PipelineConfig(
        alerts=paths,
        out_dir=tmp_path / "cptc",
        sig_map=Path(sig_map) if sig_map else None,
    )
    result = run_pipeline(cfg)
    ags = rebuilt_graphs(result)
    ag_count = len(ags)
    objectives = sum(1 for ag in ags for v in ag.vertices.values() if v.is_objective_variant)
    victims = len({ag.key.victim for ag in ags})
    # published targets: 93 AGs, 70 objectives, 19 victims; matching within
    # +/-20% is informational because the stage mapping is external data
    for name, got, want in (
        ("attack graphs", ag_count, 93),
        ("objective variants", objectives, 70),
        ("victims", victims, 19),
    ):
        within = want * 0.8 <= got <= want * 1.2
        print(f"\nINFO criterion 7: {name} = {got} (published {want}, within 20%: {within})")
    report(7, "dataset-scale pipeline completed", True)
