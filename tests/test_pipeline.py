import csv
import gc
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path
from types import FunctionType, ModuleType, SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import episodes_oracle
from alertgraphs import alerts, pipeline
from alertgraphs.alerts import Alert, ParseStats, parse_alerts
from alertgraphs.automaton import LearnParams, build_suffix_tree, learn_pdfa
from alertgraphs.cli import build_parser, config_from_args, main
from alertgraphs.episodes import Symbol, parse_symbol, partition_subsequences, to_symbols, unescape_field
from alertgraphs.evaluation import learn_markov_chain, perplexity, split_sequences
from alertgraphs.graphs import AgVertex, AttackGraph, AttemptPath
from alertgraphs.pipeline import PipelineConfig, PipelineResult, StageError, run_pipeline
from alertgraphs.stages import AttackStage

from test_alerts import CSV_HEADER, CSV_ROW, csv_text, dedup_oracle, eve_texts
from util import mk_alert

FIXTURE = Path(__file__).parent / "fixtures/synthetic_alerts.jsonl"
GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parents[1]


def config(tmp_path, **kwargs):
    return PipelineConfig(alerts=[FIXTURE], out_dir=tmp_path / "out", **kwargs)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in root.iterdir() if p.is_file()}


class TestGoldenRun:
    def test_matches_committed_artifacts_byte_for_byte(self, tmp_path):
        run_pipeline(config(tmp_path))
        got = tree_bytes(tmp_path / "out")
        expected = tree_bytes(GOLDEN)
        assert sorted(got) == sorted(expected)
        for name in expected:
            assert got[name] == expected[name], f"artifact differs: {name}"

    def test_fixture_shape(self, tmp_path):
        result = run_pipeline(config(tmp_path))
        assert result.parse_stats.parsed in range(190, 215)  # ~200 alerts
        teams = {a.attacker for a in result.mapped_alerts}
        victims = {a.victim for a in result.mapped_alerts}
        assert len(teams) == 3
        assert len(victims) == 4
        assert len(result.ags) == 2  # two high-severity objectives


class TestPackageApi:
    def test_top_level_entry_points_give_the_goldens(self, tmp_path):
        from alertgraphs import (
            LearnParams,
            PipelineConfig,
            PipelineResult,
            StageError,
            default_mapping_config,
            run_pipeline,
        )

        out = tmp_path / "out"
        result = run_pipeline(PipelineConfig(alerts=[FIXTURE], out_dir=out, learn=LearnParams()))
        assert isinstance(result, PipelineResult)
        assert tree_bytes(out) == tree_bytes(GOLDEN)
        assert default_mapping_config().stage_for("ET SCAN Nmap", "") is AttackStage.SERVICE_DISC
        with pytest.raises(StageError):
            run_pipeline(PipelineConfig(alerts=[tmp_path / "missing.jsonl"], out_dir=out))

    def test_other_names_are_imported_from_their_modules(self):
        with pytest.raises(ImportError):
            from alertgraphs import parse_alerts  # noqa: F401
        from alertgraphs.alerts import parse_alerts  # noqa: F401, F811


class TestReproducibility:
    def test_two_runs_byte_identical(self, tmp_path):
        cfg_a = PipelineConfig(alerts=[FIXTURE], out_dir=tmp_path / "a")
        cfg_b = PipelineConfig(alerts=[FIXTURE], out_dir=tmp_path / "b")
        run_pipeline(cfg_a)
        run_pipeline(cfg_b)
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


class TestInputOrder:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_shuffled_input_lines_give_golden_artifacts(self, tmp_path, seed):
        lines = FIXTURE.read_text(encoding="utf-8").splitlines()
        random.Random(seed).shuffle(lines)
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text("\n".join(lines) + "\n", encoding="utf-8")
        run_pipeline(PipelineConfig(alerts=[shuffled], out_dir=tmp_path / "out"))
        assert tree_bytes(tmp_path / "out") == tree_bytes(GOLDEN)


class TestStageIsolation:
    @pytest.mark.parametrize(
        "stage,expected",
        [
            ("ingest", set()),
            ("episodes", {"episodes.tsv", "attempt_corpus.tsv"}),
            ("learn", {"episodes.tsv", "attempt_corpus.tsv", "automaton.txt", "automaton.dot"}),
        ],
    )
    def test_stop_after_yields_exact_artifacts(self, tmp_path, stage, expected):
        run_pipeline(config(tmp_path, stop_after=stage))
        assert {p.name for p in (tmp_path / "out").iterdir()} == expected

    def test_reused_out_keeps_only_this_runs_artifacts(self, tmp_path):
        out = tmp_path / "out"
        run_pipeline(config(tmp_path))
        (out / "notes.txt").write_text("not an artifact\n")
        run_pipeline(config(tmp_path, stop_after="episodes"))
        assert {p.name for p in out.iterdir()} == {
            "episodes.tsv",
            "attempt_corpus.tsv",
            "notes.txt",
        }

    def test_stop_after_graphs_includes_dots(self, tmp_path):
        run_pipeline(config(tmp_path, stop_after="graphs"))
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert "attack_graph_index.tsv" in names
        assert any(n.startswith("attack-graph-") for n in names)
        assert "stats_report.tsv" not in names


class TestErrors:
    def test_missing_input_fails_in_ingest(self, tmp_path):
        cfg = PipelineConfig(alerts=[tmp_path / "nope.jsonl"], out_dir=tmp_path / "out")
        with pytest.raises(StageError) as excinfo:
            run_pipeline(cfg)
        assert excinfo.value.stage == "ingest"

    def test_failed_stage_removes_partial_outputs(self, tmp_path, monkeypatch):
        def exploding_learn(cfg, result, writer):
            writer.write("automaton.txt", "partial содержимое\n")
            raise RuntimeError("boom")

        monkeypatch.setitem(pipeline._STAGE_FUNCS, "learn", exploding_learn)
        cfg = config(tmp_path)
        with pytest.raises(StageError) as excinfo:
            run_pipeline(cfg)
        assert excinfo.value.stage == "learn"
        out = tmp_path / "out"
        assert not (out / "automaton.txt").exists()
        # artifacts of completed stages stay in place
        assert (out / "episodes.tsv").exists()

    def test_interrupted_stage_removes_partial_outputs(self, tmp_path, monkeypatch):
        calls = []

        def interrupted_emit_dot(ag, texts):
            calls.append(ag.key)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return emit_dot(ag, texts)

        emit_dot = pipeline.emit_dot
        monkeypatch.setattr(pipeline, "emit_dot", interrupted_emit_dot)
        was = gc.isenabled()
        with pytest.raises(KeyboardInterrupt):  # not wrapped in a StageError
            run_pipeline(config(tmp_path))
        assert gc.isenabled() is was
        out = tmp_path / "out"
        assert len(calls) == 2
        assert list(out.glob("attack-graph-*.dot")) == []
        assert not (out / "attack_graph_index.tsv").exists()
        # artifacts of completed stages stay in place
        assert sorted(p.name for p in out.iterdir()) == [
            "attempt_corpus.tsv", "automaton.dot", "automaton.txt", "episodes.tsv"
        ]

    def test_writer_rolls_back_a_file_whose_write_failed(self, tmp_path):
        writer = pipeline._StageWriter(tmp_path)
        writer.write("ok.tsv", "fine\n")
        with pytest.raises(UnicodeEncodeError):
            writer.write("bad.tsv", "x" * 10_000 + "\udcff")
        with pytest.raises(UnicodeEncodeError):
            writer.write("bad_lines.tsv", iter(["x" * 10_000 + "\n", "\udcff\n"]))
        writer.rollback()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("as_lines", [False, True], ids=["str", "lines"])
    def test_stage_write_failing_midway_leaves_no_file(self, tmp_path, monkeypatch, as_lines):
        def failing_dump(sequences):
            yield "attacker\tvictim\tst\tet\tstage\tservice\talert_count\n"
            yield "x" * 100_000 + "\n"  # over any write buffer: bytes reach the file
            raise RuntimeError("boom")

        def failing_text(sequences):
            return "x" * 100_000 + "\udcff\n"

        monkeypatch.setattr(pipeline, "render_episode_dump", failing_dump if as_lines else failing_text)
        with pytest.raises(StageError) as excinfo:
            run_pipeline(config(tmp_path))
        assert excinfo.value.stage == "episodes"
        assert list((tmp_path / "out").iterdir()) == []

    def test_directory_at_an_output_name_fails_its_stage(self, tmp_path):
        # the earlier run's cleanup leaves directories alone, so opening the
        # file fails; the stage must still fail cleanly and keep the directory
        (tmp_path / "out" / "episodes.tsv").mkdir(parents=True)
        with pytest.raises(StageError) as excinfo:
            run_pipeline(config(tmp_path))
        assert excinfo.value.stage == "episodes"
        assert (tmp_path / "out" / "episodes.tsv").is_dir()

    def test_invalid_utf8_csv_row_skipped(self, tmp_path):
        csv_file = tmp_path / "alerts.csv"
        csv_file.write_bytes(
            b"timestamp,src_ip,dst_ip,dst_port,signature,category\n"
            b"2018-11-03T10:00:00+00:00,t1,v1,22,Nm\xffap,x\n"
            b"2018-11-03T10:00:05+00:00,t1,v1,22,Nmap,x\n"
            b"2018-11-03T10:00:09+00:00,t\xff,v1,22,Nmap,x\n"
        )
        cfg = PipelineConfig(alerts=[csv_file], out_dir=tmp_path / "out", format="csv")
        stats = run_pipeline(cfg).parse_stats
        assert (stats.total, stats.parsed, stats.skipped) == (3, 1, 2)

    def test_lone_surrogate_in_eve_record_skipped(self, tmp_path):
        good = FIXTURE.read_text(encoding="utf-8").splitlines()
        record = json.loads(good[0])
        record["src_ip"] = "\udcff"
        eve_file = tmp_path / "alerts.jsonl"
        eve_file.write_text("\n".join([json.dumps(record)] + good) + "\n", encoding="utf-8")
        base = run_pipeline(config(tmp_path / "base", stop_after="ingest")).parse_stats
        stats = run_pipeline(PipelineConfig(alerts=[eve_file], out_dir=tmp_path / "out")).parse_stats
        assert (stats.total, stats.parsed) == (base.total + 1, base.parsed)
        assert tree_bytes(tmp_path / "out") == tree_bytes(GOLDEN)

    def test_colliding_graph_file_names_fail_before_writing(self, tmp_path):
        csv_file = tmp_path / "alerts.csv"
        csv_file.write_text(
            "timestamp,src_ip,dst_ip,dst_port,signature,category\n"
            "2018-11-03T10:00:00+00:00,t1,10.0.0.1,5653,Exfiltration,x\n"
            "2018-11-03T10:05:00+00:00,t1,10-0-0-1,5653,Exfiltration,x\n"
        )
        cfg = PipelineConfig(alerts=[csv_file], out_dir=tmp_path / "out", format="csv")
        with pytest.raises(StageError) as excinfo:
            run_pipeline(cfg)
        assert excinfo.value.stage == "graphs"
        assert isinstance(excinfo.value.cause, ValueError)
        message = str(excinfo.value)
        assert "victim='10.0.0.1'" in message and "victim='10-0-0-1'" in message
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert not any(n.startswith("attack-graph-") for n in names)
        assert "attack_graph_index.tsv" not in names

    @pytest.mark.parametrize(
        "service, filename",
        [
            ("a/b", "attack-graph-v1-DATA_EXFILTRATION-a-b.dot"),
            ("../x", "attack-graph-v1-DATA_EXFILTRATION-..-x.dot"),
            ("my svc", "attack-graph-v1-DATA_EXFILTRATION-my-svc.dot"),
        ],
    )
    def test_unsafe_service_names_stay_inside_out(self, tmp_path, service, filename):
        ports = tmp_path / "ports.csv"
        ports.write_text(
            "Service Name,Port Number,Transport Protocol,Description\n"
            f"{service},5653,tcp,custom\n"
        )
        csv_file = tmp_path / "alerts.csv"
        csv_file.write_text(
            "timestamp,src_ip,dst_ip,dst_port,signature,category\n"
            "2018-11-03T10:00:00+00:00,t1,v1,5653,Exfiltration,x\n"
        )
        out = tmp_path / "out"
        cfg = PipelineConfig(alerts=[csv_file], out_dir=out, format="csv", port_map=ports)
        result = run_pipeline(cfg)
        assert [row[0] for row in result.ags] == [filename]
        assert (out / filename).is_file()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["alerts.csv", "out", "ports.csv"]
        assert f"{filename}\tv1\tDATA_EXFILTRATION\t{service}\t" in (
            out / "attack_graph_index.tsv"
        ).read_text()

    def test_services_sanitized_to_one_file_name_collide(self, tmp_path):
        ports = tmp_path / "ports.csv"
        ports.write_text(
            "Service Name,Port Number,Transport Protocol,Description\n"
            "a/b,5653,tcp,custom\n"
            "a b,5654,tcp,custom\n"
        )
        csv_file = tmp_path / "alerts.csv"
        csv_file.write_text(
            "timestamp,src_ip,dst_ip,dst_port,signature,category\n"
            "2018-11-03T10:00:00+00:00,t1,v1,5653,Exfiltration,x\n"
            "2018-11-03T10:05:00+00:00,t1,v1,5654,Exfiltration,x\n"
        )
        out = tmp_path / "out"
        cfg = PipelineConfig(alerts=[csv_file], out_dir=out, format="csv", port_map=ports)
        with pytest.raises(StageError) as excinfo:
            run_pipeline(cfg)
        assert excinfo.value.stage == "graphs"
        assert "service='a/b'" in str(excinfo.value) and "service='a b'" in str(excinfo.value)
        assert not any(p.name.startswith("attack-graph-") for p in out.iterdir())

    def test_port_map_range_beyond_65535_fails_ingest(self, tmp_path):
        ports = tmp_path / "ports.csv"
        ports.write_text(
            "Service Name,Port Number,Transport Protocol,Description\n"
            "x,65530-70000,tcp,demo\n"
        )
        with pytest.raises(StageError) as excinfo:
            run_pipeline(config(tmp_path, port_map=ports))
        assert excinfo.value.stage == "ingest"
        assert "'65530-70000'" in str(excinfo.value)

    def test_port_map_malformed_port_fails_ingest(self, tmp_path):
        # not a number: the message names the line, as for a port out of range
        ports = tmp_path / "ports.csv"
        ports.write_text(
            "Service Name,Port Number,Transport Protocol,Description\n"
            "x,80-,tcp,demo\n"
        )
        with pytest.raises(StageError) as excinfo:
            run_pipeline(config(tmp_path, port_map=ports))
        assert excinfo.value.stage == "ingest"
        assert "line 2: '80-'" in str(excinfo.value)

    @pytest.mark.parametrize("under", [False, True])
    def test_out_naming_a_file_fails_cleanly(self, tmp_path, under):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out = blocker / "out" if under else blocker
        with pytest.raises(StageError) as excinfo:
            run_pipeline(PipelineConfig(alerts=[FIXTURE], out_dir=out))
        assert excinfo.value.stage == "ingest"
        assert isinstance(excinfo.value.cause, OSError)
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize("field,name", [
        ("alerts", "episodes.tsv"), ("alerts", "attack-graph-x.dot"), ("sig_map", "summary.json"),
    ])
    def test_input_that_is_an_output_fails_and_stays(self, tmp_path, field, name):
        # the run would delete it as an earlier run's artifact, then fail to read it
        out = tmp_path / "out"
        out.mkdir()
        source = out / name
        data = FIXTURE.read_bytes() if field == "alerts" else b"*\tSURFING\n"
        source.write_bytes(data)
        inputs = {"alerts": [FIXTURE], field: [source] if field == "alerts" else source}
        with pytest.raises(StageError) as excinfo:
            run_pipeline(PipelineConfig(out_dir=out, **inputs))
        assert excinfo.value.stage == "ingest"
        assert str(source) in str(excinfo.value)
        assert source.read_bytes() == data

    @pytest.mark.parametrize("link", ["symlink_to", "hardlink_to"])
    def test_input_linked_to_an_output_fails_and_stays(self, tmp_path, link):
        out = tmp_path / "out"
        out.mkdir()
        (out / "episodes.tsv").write_bytes(FIXTURE.read_bytes())
        source = tmp_path / "alerts.jsonl"
        getattr(source, link)(out / "episodes.tsv")
        with pytest.raises(StageError) as excinfo:
            run_pipeline(PipelineConfig(alerts=[source], out_dir=out))
        assert excinfo.value.stage == "ingest"
        assert str(source) in str(excinfo.value)
        assert source.read_bytes() == FIXTURE.read_bytes()

    def test_config_validation(self, tmp_path):
        # checked when built: a config that exists is valid
        with pytest.raises(ValueError):
            config(tmp_path, t=0.0)
        with pytest.raises(ValueError):  # a changed copy is built, and checked, anew
            config(tmp_path)._replace(t=0)
        with pytest.raises(ValueError):
            PipelineConfig._make([[FIXTURE], tmp_path, "xml", *config(tmp_path)[3:]])
        for window in ("t", "w"):
            with pytest.raises(ValueError):
                config(tmp_path, **{window: math.nan})
            config(tmp_path, **{window: math.inf})
        with pytest.raises(ValueError):
            config(tmp_path, split=1.5)
        with pytest.raises(ValueError):
            config(tmp_path, stop_after="nonsense")
        with pytest.raises(ValueError):
            config(tmp_path, format="xml")
        # a path field of the wrong type: a bare path or str as alerts, a str
        # as out_dir, an int (a file descriptor to open()) or bytes as a path
        for fields in (
            {"alerts": FIXTURE},
            {"alerts": "a"},
            {"alerts": [FIXTURE, 0]},
            {"alerts": [str(FIXTURE).encode()]},
            {"out_dir": "o"},
            {"sig_map": 0},
            {"port_map": 0},
            {"port_map": b"ports.csv"},
            {"learn": tuple(LearnParams())},
        ):
            with pytest.raises(ValueError):
                PipelineConfig(**{"alerts": [FIXTURE], "out_dir": tmp_path / "out", **fields})
        PipelineConfig(alerts=(str(FIXTURE),), out_dir=tmp_path, sig_map="rules.tsv")
        read_end, write_end = os.pipe()
        os.close(write_end)  # a read of it ends at once, should the run read it
        try:
            with pytest.raises(ValueError):
                run_pipeline(config(tmp_path, sig_map=read_end))
            os.fstat(read_end)  # still open
        finally:
            os.close(read_end)

    def test_config_without_a_log_is_refused(self, tmp_path):
        # a run of no log would replace every artifact of the last run with an empty one
        out = tmp_path / "out"
        run_pipeline(PipelineConfig(alerts=[FIXTURE], out_dir=out))
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        for alerts in ([], ()):
            with pytest.raises(ValueError, match="at least one log"):
                run_pipeline(PipelineConfig(alerts=alerts, out_dir=out))
        with pytest.raises(ValueError, match="at least one log"):
            config(tmp_path)._replace(alerts=[])
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("name", PipelineConfig._fields)
    def test_config_fields_cannot_be_assigned(self, tmp_path, name):
        cfg = config(tmp_path)
        with pytest.raises(AttributeError):
            setattr(cfg, name, getattr(cfg, name))


class TestEmptyInput:
    def test_empty_file_succeeds_with_empty_reports(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        cfg = PipelineConfig(alerts=[empty], out_dir=tmp_path / "out")
        result = run_pipeline(cfg)
        assert result.ags == []
        summary = json.loads((tmp_path / "out/summary.json").read_text())
        assert summary["graphs"]["ag_count"] == 0
        assert summary["workload"] == []
        assert summary["ranking"] == []
        perplexity = (tmp_path / "out/perplexity_report.tsv").read_text()
        assert "skipped" in perplexity


class TestRankingUnavailable:
    def test_high_only_data_notes_missing_medium(self, tmp_path):
        csv_file = tmp_path / "alerts.csv"
        csv_file.write_text(
            "timestamp,src_ip,dst_ip,dst_port,signature,category\n"
            "2018-11-03T10:00:00+00:00,t1,v1,5653,Exfiltration,x\n"
        )
        cfg = PipelineConfig(alerts=[csv_file], out_dir=tmp_path / "out", format="csv")
        result = run_pipeline(cfg)
        assert len(result.ags) == 1
        report = (tmp_path / "out/stats_report.tsv").read_text()
        assert "ranking unavailable" in report


class TestLongAttempt:
    def test_stats_stage_writes_its_files_when_a_perplexity_overflows(self, tmp_path):
        # one attempt of 6,000 episodes: its mean log2 trace probability is far
        # below -1024, where 2 ** -mean overflows a float
        signatures = ["ICMP PING", "ET SCAN Nmap", "Nikto", "Attempted Information Leak",
                      "Brute Force"]
        start = datetime(2018, 11, 3)
        rows = [(start + i * timedelta(seconds=200), "t0", signatures[i % 5]) for i in range(6000)]
        rows += [
            (start + i * timedelta(seconds=200), f"t{team}", signatures[i])
            for team in range(1, 11) for i in range(3)
        ]
        csv_file = tmp_path / "alerts.csv"
        csv_file.write_text("timestamp,src_ip,dst_ip,dst_port,signature,category\n" + "".join(
            f"{when.isoformat()},{team},v1,22,{signature},\n" for when, team, signature in rows
        ))
        out = tmp_path / "out"
        run_pipeline(PipelineConfig(alerts=[csv_file], out_dir=out, format="csv"))
        for name in (pipeline.STATS_REPORT, pipeline.SUMMARY_JSON, pipeline.PERPLEXITY_REPORT):
            assert (out / name).is_file()
        assert "\tinf" in (out / pipeline.PERPLEXITY_REPORT).read_text()


class TestCsvInput:
    def test_csv_round(self, tmp_path):
        csv_file = tmp_path / "alerts.csv"
        csv_file.write_text(
            "timestamp,src_ip,dst_ip,dst_port,signature,category\n"
            "2018-11-03T10:00:00.000000+00:00,10.0.254.1,10.0.0.1,22,ET SCAN Nmap,x\n"
            "2018-11-03T10:05:00.000000+00:00,10.0.254.1,10.0.0.1,5653,Exfiltration,x\n"
        )
        cfg = PipelineConfig(
            alerts=[csv_file], out_dir=tmp_path / "out", format="csv"
        )
        result = run_pipeline(cfg)
        assert result.parse_stats.parsed == 2
        assert len(result.ags) == 1

    def test_each_annotated_sequence_is_one_pairs_sequence(self, tmp_path):
        # one attacker reaches a high-severity objective at two victims: each
        # (attacker, victim) sequence is replayed on its own, in sequence order
        csv_file = tmp_path / "alerts.csv"
        csv_file.write_text(CSV_HEADER + "".join(
            f"2018-11-03T10:{minute:02d}:00+00:00,10.0.254.1,{victim},{port},{signature},x\n"
            for minute, victim, port, signature in [
                (0, "10.0.0.1", 22, "ET SCAN Nmap"),
                (5, "10.0.0.1", 5653, "Exfiltration"),
                (10, "10.0.0.2", 22, "ET SCAN Nmap"),
                (15, "10.0.0.2", 5653, "Exfiltration"),
            ]
        ))
        result = run_pipeline(PipelineConfig(alerts=[csv_file], out_dir=tmp_path / "out", format="csv"))
        assert len(result.sequences) == len(result.ags) == 2
        assert [(a.attacker, a.victim, [episode for episode, _ in a.entries]) for a in result.annotated] == [
            (es.attacker, es.victim, es.episodes) for es in result.sequences
        ]

    def test_multiple_inputs_merge_time_sorted(self, tmp_path):
        header = "timestamp,src_ip,dst_ip,dst_port,signature,category\n"
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text(header + "2018-11-03T10:10:00+00:00,t1,v1,22,ET SCAN Nmap,x\n")
        b.write_text(header + "2018-11-03T10:00:00+00:00,t2,v1,22,ET SCAN Nmap,x\n")
        cfg = PipelineConfig(alerts=[a, b], out_dir=tmp_path / "out", format="csv")
        result = run_pipeline(cfg)
        assert [al.attacker for al in result.mapped_alerts] == ["t2", "t1"]


class TestCustomMappings:
    def test_one_stage_memo_scans_each_distinct_pair_once(self, tmp_path, monkeypatch):
        memos, scans = [], Counter()
        build = alerts.stage_memo

        def counted(rules):
            memo = build(rules)
            scan = memo.check
            memo.check = lambda key: scans.update([key]) or scan(key)
            memos.append(memo)
            return memo

        monkeypatch.setattr(alerts, "stage_memo", counted)
        # the fixture repeats a few signatures across ~200 records, split
        # over two logs so that both are mapped through the run's one memo
        lines = FIXTURE.read_bytes().splitlines(keepends=True)
        logs = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
        logs[0].write_bytes(b"".join(lines[::2]))
        logs[1].write_bytes(b"".join(lines[1::2]))
        result = run_pipeline(PipelineConfig(alerts=logs, out_dir=tmp_path / "out", stop_after="ingest"))
        raws, _ = parse_alerts(lines, format="eve-json")
        pairs = {(raw.signature, raw.category) for raw in raws}
        assert len(raws) == len(result.mapped_alerts) > 10 * len(pairs)
        assert len(memos) == 1
        assert scans == Counter(dict.fromkeys(pairs, 1))

    def test_sig_and_port_overrides(self, tmp_path):
        rules = tmp_path / "rules.tsv"
        rules.write_text("ET SCAN\tVULN_DISC\n*\tSURFING\n")
        ports = tmp_path / "ports.csv"
        ports.write_text(
            "Service Name,Port Number,Transport Protocol,Description\n"
            "myssh,22,tcp,custom\n"
        )
        csv_file = tmp_path / "alerts.csv"
        csv_file.write_text(
            "timestamp,src_ip,dst_ip,dst_port,signature,category\n"
            "2018-11-03T10:00:00+00:00,t1,v1,22,ET SCAN Nmap,x\n"
        )
        cfg = PipelineConfig(
            alerts=[csv_file],
            out_dir=tmp_path / "out",
            format="csv",
            sig_map=rules,
            port_map=ports,
        )
        result = run_pipeline(cfg)
        alert = result.mapped_alerts[0]
        assert alert.stage.value == "VULN_DISC"
        assert alert.service == "myssh"

    def test_bom_before_rules_ports_and_csv_log_is_dropped(self, tmp_path):
        # each file starts with a BOM, as a spreadsheet export may write it
        rules = tmp_path / "rules.tsv"
        rules.write_text("\ufeffET SCAN\tVULN_DISC\n*\tSURFING\n", encoding="utf-8")
        ports = tmp_path / "ports.csv"
        ports.write_text(
            "\ufeffService Name,Port Number,Transport Protocol,Description\n"
            "myssh,22,tcp,custom\n",
            encoding="utf-8",
        )
        csv_file = tmp_path / "alerts.csv"
        csv_file.write_text(
            "\ufefftimestamp,src_ip,dst_ip,dst_port,signature,category\n"
            "2018-11-03T10:00:00+00:00,t1,v1,22,ET SCAN Nmap,x\n",
            encoding="utf-8",
        )
        cfg = PipelineConfig(
            alerts=[csv_file],
            out_dir=tmp_path / "out",
            format="csv",
            sig_map=rules,
            port_map=ports,
        )
        result = run_pipeline(cfg)
        assert result.parse_stats.parsed == 1
        alert = result.mapped_alerts[0]
        assert alert.stage.value == "VULN_DISC"
        assert alert.service == "myssh"


class TestCli:
    def test_success_exit_zero(self, tmp_path, capsys):
        code = main(["--alerts", str(FIXTURE), "--out", str(tmp_path / "out")])
        assert code == 0
        assert "artifact(s)" in capsys.readouterr().out

    def test_learn_params_forwarded(self, tmp_path):
        code = main(
            [
                "--alerts", str(FIXTURE),
                "--out", str(tmp_path / "out"),
                "--sink-count", "2",
                "--stop-after", "learn",
            ]
        )
        assert code == 0
        text = (tmp_path / "out/automaton.txt").read_text()
        assert text  # model written with the overridden params

    def test_stage_failure_exit_one(self, tmp_path, capsys):
        code = main(["--alerts", str(tmp_path / "nope"), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "stage 'ingest' failed" in capsys.readouterr().err

    def test_out_naming_a_file_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        code = main(["--alerts", str(FIXTURE), "--out", str(blocker)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'ingest' failed:") and "Traceback" not in err

    def test_bad_flag_exits_two(self, tmp_path):
        for flag in [["--t", "-1"], ["--alpha", "0"], ["--symbol-count", "-1"]]:
            with pytest.raises(SystemExit) as excinfo:
                main(["--alerts", str(FIXTURE), "--out", str(tmp_path), *flag])
            assert excinfo.value.code == 2, flag

    @pytest.mark.parametrize("flags", [["--t", "nan"], ["--w", "nan"], ["--t", "nan", "--w", "nan"]])
    def test_nan_window_exits_two(self, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as excinfo:
            main(["--alerts", str(FIXTURE), "--out", str(tmp_path / "out"), *flags])
        assert excinfo.value.code == 2
        assert "must be > 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_defaults_are_the_configs(self):
        args = build_parser().parse_args(["--alerts", "X", "--out", "Y"])
        assert config_from_args(args) == PipelineConfig(alerts=[Path("X")], out_dir=Path("Y"))

    def test_every_flag_forwarded(self):
        parser = build_parser()
        args = parser.parse_args([
            "--alerts", "a.log", "b.log", "--format", "csv", "--sig-map", "rules.tsv",
            "--port-map", "ports.csv", "--t", "2.5", "--w", "60", "--symbol-count", "3",
            "--state-count", "4", "--sink-count", "2", "--alpha", "0.1", "--split", "0.5",
            "--seed", "7", "--out", "o", "--stop-after", "graphs",
        ])
        expected = PipelineConfig(
            alerts=[Path("a.log"), Path("b.log")],
            out_dir=Path("o"),
            format="csv",
            sig_map=Path("rules.tsv"),
            port_map=Path("ports.csv"),
            t=2.5,
            w=60.0,
            learn=LearnParams(symbol_count=3, state_count=4, sink_count=2, alpha=0.1),
            split=0.5,
            seed=7,
            stop_after="graphs",
        )
        assert config_from_args(args) == expected
        # every option is parsed above, each at a value other than its default
        learn_fields = set(LearnParams._fields)
        config_fields = set(PipelineConfig._fields) - {"learn"}
        assert {a.dest for a in parser._actions} - {"help"} == config_fields | learn_fields
        for name, default in PipelineConfig._field_defaults.items():
            assert getattr(expected, name) != default, name
        for name, default in LearnParams._field_defaults.items():
            assert getattr(expected.learn, name) != default, name

    def test_config_learn_params(self):
        with pytest.raises(ValueError):
            LearnParams(alpha=0.0)
        with pytest.raises(ValueError):
            LearnParams()._replace(alpha=2.0)
        with pytest.raises(ValueError):
            LearnParams(symbol_count=-1)


@pytest.mark.parametrize(
    "flags",
    [
        ["--workload", "fanout", "--victims", "0"],
        ["--workload", "flood", "--teams", "0"],
        ["--workload", "campaign", "--teams", "-1"],
        ["--runs", "0"],
    ],
)
def test_scale_run_rejects_counts_below_one(flags):
    # argparse exits before any log is generated
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scale_run.py"), *flags],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{flags[-2]} must be at least 1" in proc.stderr


class TestCollector:
    @pytest.mark.parametrize("fails", [False, True])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_pauses_and_restores_the_collector(self, tmp_path, monkeypatch, enabled, fails):
        seen = []

        def learn(cfg, result, writer):
            seen.append(gc.isenabled())
            if fails:
                raise RuntimeError("boom")
            learn_stage(cfg, result, writer)

        learn_stage = pipeline._STAGE_FUNCS["learn"]
        monkeypatch.setitem(pipeline._STAGE_FUNCS, "learn", learn)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if fails:
                with pytest.raises(StageError):
                    run_pipeline(config(tmp_path, stop_after="learn"))
            else:
                run_pipeline(config(tmp_path, stop_after="learn"))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False]

    def test_no_graph_reachable_from_a_finished_result(self, tmp_path):
        """The graphs stage keeps index rows and tallies, not graphs."""
        result = run_pipeline(config(tmp_path))
        assert len(result.ags) == 2 and result.tally.pairs > 0
        seen, stack, kinds = set(), [result], set()
        while stack:
            obj = stack.pop()
            # classes, modules and functions lead to the whole interpreter
            if id(obj) in seen or isinstance(obj, (type, ModuleType, FunctionType)):
                continue
            seen.add(id(obj))
            kinds.add(type(obj))
            stack.extend(gc.get_referents(obj))
        assert Alert in kinds and PipelineResult in kinds  # the walk reaches records
        assert not kinds & {AgVertex, AttackGraph, AttemptPath}

    def test_cyclic_garbage_does_not_grow_with_input(self, tmp_path):
        """With the collector off for whole runs, a run on a log three times
        larger leaves exactly as many cyclic objects for it to free."""
        sys.path.insert(0, str(ROOT / "bench"))
        try:
            import workloads
        finally:
            sys.path.remove(str(ROOT / "bench"))
        spec = workloads.WORKLOADS["flood"]
        found = []
        for victims in (spec.victims, 24):
            text, _ = workloads.generate("flood", 0, ROOT, replace(spec, victims=victims))
            log = tmp_path / "alerts.jsonl"
            log.write_text(text, encoding="utf-8")
            del text
            was = gc.isenabled()
            gc.collect()
            gc.disable()
            try:
                result = run_pipeline(PipelineConfig(alerts=[log], out_dir=tmp_path / "out"))
                records = result.parse_stats.total
                del result
                found.append((records, gc.collect()))
            finally:
                if was:
                    gc.enable()
        (small, small_cyclic), (large, large_cyclic) = found
        assert large > 3 * small
        assert large_cyclic == small_cyclic


# The ingest stage as it was with frozen dataclass records, kept as an oracle:
# each file's raw list is mapped whole and then deleted.
@dataclass(frozen=True, slots=True)
class OracleRawAlert:
    timestamp: datetime
    src_ip: str
    dst_ip: str
    dst_port: int
    signature: str
    category: str = ""


@dataclass(frozen=True, slots=True)
class OracleAlert:
    timestamp: datetime
    attacker: str
    victim: str
    stage: AttackStage
    service: str


ALERT_FIELDS = ("timestamp", "attacker", "victim", "stage", "service")


def oracle_ingest(cfg: PipelineConfig) -> tuple[ParseStats, list[OracleAlert], list[OracleAlert]]:
    mapping = pipeline._load_mapping(cfg)
    stats, mapped = ParseStats(), []
    for path in cfg.alerts:
        with open(path, "rb") as fh:
            parsed, file_stats = parse_alerts(fh, format=cfg.format)
        stats = ParseStats(*(a + b for a, b in zip(stats, file_stats)))
        raws = [
            OracleRawAlert(r.timestamp, r.src_ip, r.dst_ip, r.dst_port, r.signature, r.category)
            for r in parsed
        ]
        mapped.extend(
            OracleAlert(
                raw.timestamp,
                raw.src_ip,
                raw.dst_ip,
                mapping.stage_for(raw.signature, raw.category),
                mapping.service_for(raw.dst_port),
            )
            for raw in raws
        )
        del raws
    mapped.sort(key=lambda a: a.timestamp)
    return stats, mapped, dedup_oracle(mapped, cfg.t)


def assert_ingest_matches_oracle(cfg: PipelineConfig) -> PipelineResult:
    result = PipelineResult()
    pipeline._stage_ingest(cfg, result, pipeline._StageWriter(cfg.out_dir))
    stats, mapped, filtered = oracle_ingest(cfg)
    assert result.parse_stats == stats
    for got, expected in ((result.mapped_alerts, mapped), (result.filtered_alerts, filtered)):
        assert all(type(alert) is Alert for alert in got)
        assert [[getattr(a, name) for name in ALERT_FIELDS] for a in got] == [
            [getattr(a, name) for name in ALERT_FIELDS] for a in expected
        ]
    return result


def ingest_files(chunks: list[str], fmt: str) -> None:
    """Check the ingest stage against the oracle on one log file per chunk."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(chunks):
            paths.append(Path(tmp) / f"log{i}")
            paths[-1].write_bytes(text.encode("utf-8", "surrogatepass"))
        assert_ingest_matches_oracle(
            PipelineConfig(alerts=paths, out_dir=Path(tmp), format=fmt, t=1.0)
        )


@settings(max_examples=150, deadline=None)
@given(st.lists(eve_texts, max_size=8), st.integers(min_value=0, max_value=8))
def test_eve_ingest_matches_frozen_record_oracle(lines, cut):
    ingest_files(["\n".join(lines[:cut]), "\n".join(lines[cut:])], "eve-json")


@settings(max_examples=100, deadline=None)
@given(st.lists(csv_text | st.just(CSV_ROW), max_size=10))
def test_csv_ingest_matches_frozen_record_oracle(chunks):
    ingest_files([CSV_HEADER + "".join(chunks)], "csv")


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_fixture_ingest_matches_frozen_record_oracle(tmp_path, seed):
    # the shuffles are those of TestInputOrder
    lines = FIXTURE.read_text(encoding="utf-8").splitlines()
    if seed is not None:
        random.Random(seed).shuffle(lines)
    log = tmp_path / "alerts.jsonl"
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = assert_ingest_matches_oracle(PipelineConfig(alerts=[log], out_dir=tmp_path))
    assert len(result.filtered_alerts) > 100


# gaps in microseconds: within a microsecond of t = 1 s and of w = 150 s, and
# within the window and past it
GAPS_US = [0, 1, 500_000, 999_999, 1_000_000, 1_000_001, 149_999_999, 150_000_000, 150_000_001, 400_000_000]
# what each row's signature and port are drawn from: the default mapping gives
# the first signature a low stage and the second a high one, the ports ssh and http
SIGNATURES, PORTS = ["ET SCAN Nmap", "Exfiltration"], [22, 80]
csv_log_rows = st.lists(
    st.tuples(
        st.sampled_from(GAPS_US),
        st.sampled_from(["10.0.254.1", "10.0.254.2"]),
        st.sampled_from(["10.0.0.1", "10.0.0.2"]),
        st.sampled_from(SIGNATURES),
        st.sampled_from(PORTS),
    ),
    min_size=1,
    max_size=12,
)


def csv_log(rows) -> str:
    """The CSV log of drawn rows, each stamped its gap after the last one."""
    lines, at = [CSV_HEADER], datetime(2018, 11, 3, 10, tzinfo=timezone.utc)
    for gap, attacker, victim, signature, port in rows:
        at += timedelta(microseconds=gap)
        lines.append(f"{at.isoformat()},{attacker},{victim},{port},{signature},x\n")
    return "".join(lines)


@settings(max_examples=50, deadline=None)
@given(csv_log_rows)
# two alerts of one pair and stage on two services, closer than t: dedup keeps both
@example([(0, "10.0.254.1", "10.0.0.1", SIGNATURES[0], 22), (500_000, "10.0.254.1", "10.0.0.1", SIGNATURES[0], 80)])
# two alerts of one pair and stage exactly w apart: one episode
@example([(0, "10.0.254.1", "10.0.0.1", SIGNATURES[0], 22), (150_000_000, "10.0.254.1", "10.0.0.1", SIGNATURES[0], 22)])
def test_episode_dump_matches_the_composed_oracles(rows):
    """Ingest and episodes joined, as ``run_pipeline`` runs them, give the
    episode dump of ``oracle_ingest`` followed by the episode oracle, run on
    each (attacker, victim) pair's kept alerts apart."""
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "alerts.csv"
        log.write_text(csv_log(rows), encoding="utf-8")
        cfg = PipelineConfig(alerts=[log], out_dir=Path(tmp) / "out", format="csv", stop_after="episodes")
        run_pipeline(cfg)
        dump = (cfg.out_dir / pipeline.EPISODE_DUMP).read_bytes()
        _, _, kept = oracle_ingest(cfg)
    by_pair: dict[tuple[str, str], list[Alert]] = {}  # as tuples: the oracle reads fields by position
    for alert in kept:
        by_pair.setdefault((alert.attacker, alert.victim), []).append(
            Alert(*(getattr(alert, name) for name in ALERT_FIELDS))
        )
    sequences = [
        SimpleNamespace(episodes=episodes_oracle.aggregate_episodes(by_pair[pair], cfg.w))
        for pair in sorted(by_pair)
    ]
    assert dump == episodes_oracle.render_episode_dump(sequences).encode("utf-8")


@settings(max_examples=50, deadline=None)
@given(csv_log_rows)
# one attacker at two victims: two sequences, each replayed on its own
@example([(0, "10.0.254.1", "10.0.0.1", SIGNATURES[0], 22), (0, "10.0.254.1", "10.0.0.2", SIGNATURES[1], 80)])
def test_annotated_sequences_are_each_sequences_replayed_attempts(rows):
    """The graphs stage's join, as ``run_pipeline`` runs it: one annotated
    sequence per episode sequence, in order and of the same pair, holding
    every attempt of it zipped with the learned model's replay of that
    attempt's symbols."""
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "alerts.csv"
        log.write_text(csv_log(rows), encoding="utf-8")
        cfg = PipelineConfig(alerts=[log], out_dir=Path(tmp) / "out", format="csv", stop_after="graphs")
        result = run_pipeline(cfg)
    pairs = [(es.attacker, es.victim) for es in result.sequences]
    assert [(annotated.attacker, annotated.victim) for annotated in result.annotated] == pairs
    for annotated, es in zip(result.annotated, result.sequences):
        assert annotated.entries == [
            entry
            for attempt in partition_subsequences(es)
            for entry in zip(attempt.episodes, result.model.replay(to_symbols(attempt)))
        ]


def read_tsv(path: Path) -> list[list[str]]:
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    return [line.split("\t") for line in text[:-1].split("\n")]


# any text but a lone surrogate, which is no UTF-8
names = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
STAGES_DRAWN = [AttackStage.SERVICE_DISC, AttackStage.PRIV_ESC, AttackStage.DATA_EXFILTRATION]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(names, min_size=1, max_size=3),
    st.lists(names, min_size=1, max_size=3),
    st.lists(names, min_size=1, max_size=3),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2_000),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
            st.sampled_from(STAGES_DRAWN),
            st.integers(min_value=0, max_value=2),
        ),
        min_size=1,
        max_size=20,
    ),
)
@example(["a b", "\\t"], ["v\tx", "\ny"], ["s\r", "x\\s y"], [(0, 0, 0, STAGES_DRAWN[0], 0)])
def test_names_round_trip_through_episode_files(attackers, victims, services, rows):
    def pick(options, i):
        return options[i % len(options)]

    alerts = [
        mk_alert(seconds, pick(attackers, a), pick(victims, v), stage, pick(services, s))
        for seconds, a, v, stage, s in sorted(rows, key=lambda row: row[0])
    ]
    result = PipelineResult()
    result.filtered_alerts = alerts
    with tempfile.TemporaryDirectory() as tmp:
        cfg = PipelineConfig(alerts=[Path(tmp) / "unread.jsonl"], out_dir=Path(tmp), w=60.0)
        pipeline._stage_episodes(cfg, result, pipeline._StageWriter(Path(tmp)))
        episode_rows = read_tsv(Path(tmp) / pipeline.EPISODE_DUMP)
        corpus_rows = read_tsv(Path(tmp) / pipeline.ATTEMPT_CORPUS)

    assert all(len(row) == 7 for row in episode_rows)
    assert [
        (unescape_field(r[0]), unescape_field(r[1]), r[4], unescape_field(r[5]), int(r[6]))
        for r in episode_rows[1:]
    ] == [
        (ep.attacker, ep.victim, ep.stage.value, ep.service, ep.alert_count)
        for es in result.sequences
        for ep in es.episodes
    ]
    assert {(unescape_field(r[0]), unescape_field(r[1])) for r in episode_rows[1:]} == {
        (a.attacker, a.victim) for a in alerts
    }
    assert all(len(row) == 4 for row in corpus_rows)
    assert [
        (
            unescape_field(r[0]),
            unescape_field(r[1]),
            int(r[2]),
            [parse_symbol(unescape_field(token)) for token in r[3].split(" ")],
        )
        for r in corpus_rows[1:]
    ] == [
        (*ess.parent, ess.index, symbols)
        for ess, symbols in zip(result.subsequences, result.corpus)
    ]


def assert_rows_match_headers(text: str) -> None:
    """Each line after a comment block is a header (or a key-value line), and
    every line up to the next comment has as many tab-separated columns."""
    assert text.endswith("\n")
    columns = None
    for line in text[:-1].split("\n"):
        if line.startswith("#"):
            columns = None
        elif columns is None:
            columns = line.count("\t")
        else:
            assert line.count("\t") == columns, line


def test_team_names_keep_their_rows_and_the_teams_column(tmp_path):
    # a leading "#" would read as a comment line, a comma would split a team
    teams = ["#t1", "a,b", "\\c", "x"]
    csv_file = tmp_path / "alerts.csv"
    with open(csv_file, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "src_ip", "dst_ip", "dst_port", "signature", "category"])
        for i, team in enumerate(teams):
            privilege = "Attempted Administrator Privilege Gain"
            writer.writerow([f"2018-11-03T10:0{i}:00+00:00", team, "v1", 22, "ET EXPLOIT x", privilege])
            writer.writerow([f"2018-11-03T11:0{i}:00+00:00", team, "v1", 22, "Exfiltration", "x"])
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(alerts=[csv_file], out_dir=out, format="csv"))
    stats = (out / "stats_report.tsv").read_text(encoding="utf-8")
    assert_rows_match_headers(stats)
    rows = [line.split("\t") for line in stats.splitlines() if not line.startswith("#")]
    funnel = [unescape_field(row[0]) for row in rows if len(row) == 7 and row[0] != "team"]
    ranking = [unescape_field(row[0]) for row in rows if len(row) == 8 and row[0] != "team"]
    assert sorted(funnel) == sorted(ranking) == sorted(teams)
    index = read_tsv(out / "attack_graph_index.tsv")
    assert len(index) == 4
    assert sorted(unescape_field(team) for team in index[3][7].split(",")) == sorted(teams)


FIXTURE_PORTS = (22, 80, 445, 5653, 6667)


@settings(max_examples=40, deadline=None)
@given(names, names, st.lists(names, min_size=len(FIXTURE_PORTS), max_size=len(FIXTURE_PORTS)))
@example("\tx", "\ny", ["a b", "\\", "c\td", "\r\n", "x"])
def test_every_tsv_row_has_its_headers_columns(attacker_suffix, victim_suffix, services):
    lines = []
    for line in FIXTURE.read_text(encoding="utf-8").splitlines():
        try:
            record = json.loads(line)
            record["src_ip"] += attacker_suffix
            record["dest_ip"] += victim_suffix
            line = json.dumps(record)
        except (ValueError, KeyError, TypeError):
            pass  # the fixture's malformed lines stay as they are
        lines.append(line)
    with tempfile.TemporaryDirectory() as tmp:
        log, ports, out = Path(tmp) / "alerts.jsonl", Path(tmp) / "ports.csv", Path(tmp) / "out"
        log.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with open(ports, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["Service Name", "Port Number", "Transport Protocol", "Description"])
            # a distinct last character keeps names apart once stripped and
            # made file-name safe, so no two graphs share a file name
            for i, (port, service) in enumerate(zip(FIXTURE_PORTS, services)):
                writer.writerow([f"x{service}{i}", port, "tcp", "custom"])
        result = run_pipeline(PipelineConfig(alerts=[log], out_dir=out, port_map=ports))
        assert len(result.ags) == 2
        tsv_files = sorted(out.glob("*.tsv"))
        assert len(tsv_files) == 5
        for path in tsv_files:
            assert_rows_match_headers(path.read_text(encoding="utf-8"))


def parent_perplexity_report(cfg: PipelineConfig, corpus: list) -> str:
    """The perplexity report with every model built before any row is
    written: the trie of the ``suffix_tree`` row, then the chain, then the
    learner, on a trie of its own, as it takes the trie it is given over."""
    train, test = split_sequences(corpus, cfg.split, cfg.seed)
    if not train or not test:
        return (
            f"# corpus of {len(corpus)} sequences is too small for a "
            f"{cfg.split:.2f} split; perplexity skipped\n"
            "model\ttrain_perplexity\ttest_perplexity\n"
        )
    models = [
        ("suffix_tree", build_suffix_tree(train)),
        ("markov_chain", learn_markov_chain(train)),
        ("pdfa", learn_pdfa(build_suffix_tree(train), cfg.learn)),
    ]
    lines = [
        f"# {cfg.split:.2f} split of the attack-attempt symbol corpus, "
        f"seed {cfg.seed}: {len(train)} train / {len(test)} test",
        "model\ttrain_perplexity\ttest_perplexity",
    ]
    for name, model in models:
        lines.append(f"{name}\t{perplexity(model, train):.4f}\t{perplexity(model, test):.4f}")
    return "\n".join(lines) + "\n"


corpus_symbols = st.builds(Symbol, st.sampled_from(STAGES_DRAWN), st.sampled_from(["ssh", "http", "a b"]))
# two attempts of 1,500 symbols: at a 0.50 split all six perplexities overflow to inf
LONG_ATTEMPTS = [
    [Symbol(STAGES_DRAWN[(i * k) % 3], "ssh" if (i + k) % 4 else "http") for i in range(1500)]
    for k in (1, 2)
]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(corpus_symbols, min_size=1, max_size=6), max_size=30),
    st.sampled_from([0.2, 0.5, 0.8]),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([LearnParams(), LearnParams(1, 1, 1), LearnParams(0, 0, 0, alpha=0.5)]),
)
@example([[Symbol(STAGES_DRAWN[0], "ssh")]], 0.8, 0, LearnParams())  # too small to split
@example(LONG_ATTEMPTS, 0.5, 0, LearnParams())
def test_perplexity_report_matches_the_report_with_every_model_built_first(corpus, split, seed, learn):
    cfg = PipelineConfig(alerts=[FIXTURE], out_dir=Path("unused"), learn=learn, split=split, seed=seed)
    assert pipeline._render_perplexity(cfg, corpus) == parent_perplexity_report(cfg, corpus)
