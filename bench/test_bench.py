"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def small(name: str) -> workloads.Spec:
    return dataclasses.replace(workloads.WORKLOADS[name], teams=2, victims=4)


def child(input_path: Path, fmt: str, out_dir: Path, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "child.py"), str(input_path), fmt, str(out_dir)]
    if spans is not None:
        cmd.append(str(spans))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    first = workloads.generate(name, 7, ROOT, small(name))
    assert workloads.generate(name, 7, ROOT, small(name)) == first
    assert workloads.generate(name, 8, ROOT, small(name))[0] != first[0]


def test_planted_stages_and_services_match_the_default_mapping():
    from alertgraphs import default_mapping_config

    mapping = default_mapping_config()
    fixture = workloads.load_fixture_module(ROOT)
    sigs = {**fixture.SIGS, **workloads.EXTRA_SIGS}
    for action, (stage, _) in workloads.ACTION_STAGE.items():
        signature, category = sigs[action]
        assert mapping.stage_for(signature + " [sid 2100001]", category).value == stage, action
    for port, service in workloads.PORT_SERVICE.items():
        assert mapping.service_for(port) == service


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_trace_leaves_artifacts_unchanged(name, tmp_path):
    spec = small(name)
    text, truth = workloads.generate(name, 3, ROOT, spec)
    input_path = tmp_path / "alerts.log"
    input_path.write_text(text, encoding="utf-8")

    plain = child(input_path, spec.format, tmp_path / "plain")
    traced = child(input_path, spec.format, tmp_path / "traced", tmp_path / "spans.tsv")

    assert gate.against_truth(tmp_path / "plain", plain["parse"], truth) == []
    assert gate.same_files(tmp_path / "traced", tmp_path / "plain") == []
    assert gate.digest(tmp_path / "traced") == gate.digest(tmp_path / "plain")
    assert traced["missing"] == []
    # only untraced children gauge the host speed; the gauge leaves the bytes alone
    assert plain["speed_units"] >= 1 and 0 < plain["speed_unit_s"] < plain["wall_s"]
    assert "speed_unit_s" not in traced
    layers = traced["layers"]
    assert layers["alerts.records_in"] == truth["records"]
    assert layers["graphs.objectives"] == len(truth["objectives"])
    assert layers["episodes.episodes"] == truth["episodes"]
    spans = (tmp_path / "spans.tsv").read_text().splitlines()
    assert spans[1].startswith("pipeline.run_pipeline\t\t-1\t")


def test_gate_flags_one_changed_byte(tmp_path):
    spec = small("campaign")
    text, truth = workloads.generate("campaign", 3, ROOT, spec)
    input_path = tmp_path / "alerts.log"
    input_path.write_text(text, encoding="utf-8")
    record = child(input_path, spec.format, tmp_path / "out")
    shutil.copytree(tmp_path / "out", tmp_path / "copy")
    assert gate.same_files(tmp_path / "copy", tmp_path / "out") == []

    dot = next((tmp_path / "copy").glob("attack-graph-*.dot"))
    data = bytearray(dot.read_bytes())
    data[-3] ^= 1
    dot.write_bytes(bytes(data))
    assert gate.same_files(tmp_path / "copy", tmp_path / "out") == [f"{dot.name} differs from out/{dot.name}"]
    assert gate.digest(tmp_path / "copy") != gate.digest(tmp_path / "out")

    truth["objectives"] = truth["objectives"][1:]
    assert gate.against_truth(tmp_path / "out", record["parse"], truth) != []
