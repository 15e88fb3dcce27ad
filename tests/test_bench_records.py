"""The committed ``BENCH_*.json`` records hold what the CI scale-run smoke
requires of a ``scripts/scale_run.py --json`` record, from at least 3 runs."""

import ast
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def count_fields() -> dict[str, tuple[str, ...]]:
    """``WORK_COUNTS`` and ``LEARNER_COUNTS`` as the script declares them."""
    tree = ast.parse((ROOT / "scripts" / "scale_run.py").read_text(encoding="utf-8"))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) in ("WORK_COUNTS", "LEARNER_COUNTS")
    }


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_holds_what_the_scale_run_smoke_requires(path):
    counts = count_fields()
    record = json.loads(path.read_text(encoding="utf-8"))
    wanted = ["workload", "seed", "teams", "victims", "log_mb", "runs", *counts["WORK_COUNTS"], "wall_s",
              "stage_s", "stage_rss_mb", "learn_pdfa", "gc_collections", "vmhwm_mb",
              "commit", "python", "nproc", "PYTHONDONTWRITEBYTECODE", "src_lines"]
    assert [key for key in wanted if key not in record] == []
    assert record["runs"] >= 3
    assert record["vmhwm_mb"]["median"] > 0
    for stage in record["stage_s"]:
        assert all(record["stage_rss_mb"][stage][name]["median"] > 0 for name in ("VmRSS", "VmHWM"))
    assert not any(record["gc_collections"].values())
    calls = record["learn_pdfa"]
    assert record["workload"] != "campaign" or sorted(calls) == ["learn", "stats"]
    for call in calls.values():
        assert [key for key in (*counts["LEARNER_COUNTS"], "s", "cpu_s") if key not in call] == []
        assert call["reused"] + call["bounds"] == call["evaluated"] + call["pruned"]
        if record["workload"] == "campaign":
            assert call["pruned"] > 0 and call["calls"] > 0 and call["bounds"] > 0
            assert call["cpu_s"]["median"] > 0
