"""The committed ``BENCH_*.json`` records pass ``check_record`` of
``scripts/scale_run.py``, the check its every run applies, and come from at
least 3 runs; ``check_record`` finds each fault it is there to catch."""

import json
import sys
from functools import reduce
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
sys.path.insert(0, str(ROOT / "scripts"))

from scale_run import check_record  # noqa: E402


def load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_holds_what_the_scale_run_smoke_requires(path):
    record = load(path)
    assert check_record(record) == []
    assert record["runs"] >= 3


BREAKS = [  # (a dotted path in a campaign record, the value put there or None to delete it, the problem)
    ("episodes", None, "no episodes"),
    ("nproc", None, "no nproc"),
    ("learn_pdfa.stats.cpu_s", None, "learn_pdfa.stats has no ['cpu_s']"),
    ("stage_rss_mb.graphs.VmRSS.median", 0, "stage_rss_mb.graphs.VmRSS is not above 0"),
    ("gc_collections.learn", 1, "gc_collections.learn is 1"),
    ("learn_pdfa.learn.reused", 0, "learn_pdfa.learn: reused + bounds != evaluated + pruned"),
    ("learn_pdfa.learn.pruned", 0, "learn_pdfa.learn.pruned is not above 0"),
    ("learn_pdfa.learn.calls", 0, "learn_pdfa.learn.calls is not above 0"),
    ("learn_pdfa.learn.bounds", 0, "learn_pdfa.learn.bounds is not above 0"),
    ("learn_pdfa.learn.cpu_s.median", 0, "learn_pdfa.learn.cpu_s is not above 0"),
    ("learn_pdfa.stats", None, "learn_pdfa holds ['learn'], not the learn and stats calls"),
]


@pytest.mark.parametrize("path, value, problem", BREAKS, ids=[path for path, _, _ in BREAKS])
def test_check_record_finds_each_fault(path, value, problem):
    record = load(ROOT / "BENCH_campaign_v200.json")
    *parents, key = path.split(".")
    part = reduce(dict.__getitem__, parents, record)
    if value is None:
        del part[key]
    else:
        part[key] = value
    assert problem in check_record(record)
