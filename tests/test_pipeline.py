import json
import random
from pathlib import Path

import pytest

from alertgraphs import pipeline
from alertgraphs.automaton import LearnParams
from alertgraphs.cli import main
from alertgraphs.pipeline import PipelineConfig, StageError, run_pipeline

FIXTURE = Path(__file__).parent / "fixtures/synthetic_alerts.jsonl"
GOLDEN = Path(__file__).parent / "golden"


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
        assert [name for name, _ in result.ags] == [filename]
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

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            config(tmp_path, t=0.0).validate()
        with pytest.raises(ValueError):
            config(tmp_path, split=1.5).validate()
        with pytest.raises(ValueError):
            config(tmp_path, stop_after="nonsense").validate()


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

    def test_bad_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--alerts", str(FIXTURE), "--out", str(tmp_path), "--t", "-1"])
        assert excinfo.value.code == 2

    def test_config_learn_params(self):
        with pytest.raises(ValueError):
            LearnParams(alpha=0.0)
        with pytest.raises(ValueError):
            LearnParams(symbol_count=-1)
