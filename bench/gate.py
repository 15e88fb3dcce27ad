"""Correctness checks on one pipeline output directory.

Each check returns a list of problems; an empty list means the output is
correct. A run with any problem counts as failed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def digest(out_dir: Path) -> str:
    """SHA-256 over every artifact's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def same_files(out_dir: Path, expected_dir: Path) -> list[str]:
    """Problems unless both directories hold the same names with the same bytes."""
    got = {p.name: p for p in out_dir.iterdir()}
    want = {p.name: p for p in expected_dir.iterdir()}
    problems = [f"missing artifact {n}" for n in sorted(want.keys() - got.keys())]
    problems += [f"unexpected artifact {n}" for n in sorted(got.keys() - want.keys())]
    problems += [
        f"{n} differs from {expected_dir.name}/{n}"
        for n in sorted(got.keys() & want.keys())
        if got[n].read_bytes() != want[n].read_bytes()
    ]
    return problems


def _rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [ln.split("\t") for ln in lines if not ln.startswith("#")][1:]


def against_truth(out_dir: Path, parse: dict, truth: dict) -> list[str]:
    """Problems where the run disagrees with the workload's ground truth."""
    from alertgraphs.automaton import SuffixPdfa

    problems = []
    if parse["parsed"] + parse["skipped"] != parse["total"]:
        problems.append(f"parsed + skipped != total: {parse}")
    for key, truth_key in (("total", "records"), ("parsed", "alerts"), ("skipped", "skipped")):
        if parse[key] != truth[truth_key]:
            problems.append(f"{key} {parse[key]} != planted {truth_key} {truth[truth_key]}")

    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    kept = sum(team["filtered_alerts"] for team in summary["workload"])
    counts = {
        "kept": kept,
        "episodes": len(_rows(out_dir / "episodes.tsv")),
        "attempts": len(_rows(out_dir / "attempt_corpus.tsv")),
    }
    for key, value in counts.items():
        if value != truth[key]:
            problems.append(f"{key} {value} != planted {truth[key]}")

    objectives = sorted([row[1], row[2], row[3]] for row in _rows(out_dir / "attack_graph_index.tsv"))
    if objectives != sorted(truth["objectives"]):
        problems.append(
            f"index lists {len(objectives)} objectives, {len(truth['objectives'])} were planted"
        )

    text = (out_dir / "automaton.txt").read_text(encoding="utf-8")
    if SuffixPdfa.from_text(text).to_text() != text:
        problems.append("automaton.txt does not round-trip through SuffixPdfa.from_text")
    return problems
