#!/usr/bin/env python3
"""alertgraphs benchmark: seeded synthetic IDS logs through ``run_pipeline``.

Run from the repository root:

    python3 bench/run.py --workload flood --seed 1 --seconds 30 --trace 0

Each pipeline run happens in a fresh child process, one at a time. With
``--trace 0`` the children run untraced and the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced children alternate and the
per-layer metrics of the traced ones are reported. End-to-end times are
scaled by the host speed each untraced child gauges while it runs (see
``_scaled``). Metric names and units come from ``BENCHMARK.json``. Every
run, including two gate runs made first (the bundled fixture against
``tests/golden`` and the default seed against ``bench/digests.json``), is
checked for correctness; the last line of standard output is the JSON
result. Generated inputs, outputs, spans and a
run record go under ``.bench_build/``.

``--record-digest`` stores the default seed's artifact digest for the
workload instead of benchmarking; use it only when a change is meant to
alter the artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import workloads

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "alertgraphs"

DEFAULT_SEED = 0
MIN_ROUNDS = 3  # a round is one untraced child, plus one traced with --trace 1
ROUND_CAP_S = 150.0  # start no round that may end after this; a run must end within 180 s
CHILD_CAP_S = 170.0
CPUS = sorted(os.sched_getaffinity(0))
# Usual mean time of child.py's speed unit on the shared 2-vCPU Xeon host the
# bounds were set on: scaled times read as seconds at that host's usual speed.
REF_UNIT_S = 0.0015
DIGESTS = BENCH / "digests.json"
REQUIRED = (
    "BENCHMARK.json",
    "src/alertgraphs/__init__.py",
    "scripts/make_fixture.py",
    "tests/fixtures/synthetic_alerts.jsonl",
    "tests/golden",
)


def _prepare(workload: str, seed: int) -> tuple[Path, dict]:
    """Generated input and ground truth, cached per generator version."""
    version = hashlib.sha256(
        (BENCH / "workloads.py").read_bytes() + (ROOT / "scripts/make_fixture.py").read_bytes()
    ).hexdigest()[:12]
    base = WORK / "inputs" / version / f"{workload}-{seed}"
    truth_path = base.with_suffix(".truth.json")
    input_path = base.with_suffix(".csv" if workloads.WORKLOADS[workload].format == "csv" else ".jsonl")
    if not truth_path.exists() or not input_path.exists():
        text, truth = workloads.generate(workload, seed, ROOT)
        base.parent.mkdir(parents=True, exist_ok=True)
        input_path.write_text(text, encoding="utf-8")
        truth_path.write_text(json.dumps(truth), encoding="utf-8")
    return input_path, json.loads(truth_path.read_text(encoding="utf-8"))


def _summary(values: list[float]) -> dict:
    """Samples, median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values), "samples": values}
    p = int(100 * (1 - 10 / n)) if n > 20 else 0
    if p > 50:
        out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
    return out


def _scaled(record: dict, key: str) -> float:
    """A child's time ``key`` scaled to the reference host speed.

    Other tenants of a shared host slow each CPU by up to 1.8x, for seconds at
    a time and by different amounts from one run to the next. The child times
    a fixed unit of work every 25 ms while it runs, so the mean unit time
    shows how fast the CPU was during that very run, and dividing by it
    cancels the slowdown. In trials of eight 25 s runs on one input the spread
    of the mean child time fell from 0.16 of the median to 0.02.
    """
    return record[key] * REF_UNIT_S / record["speed_unit_s"]


def _commit() -> str:
    """HEAD of the checkout's own git repository, or "unknown"."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py"))


class Run:
    """Attempts, failures and samples of one benchmark run."""

    def __init__(self, workload: str):
        self.began = time.perf_counter()
        self.workload = workload
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def child(self, input_path: Path, fmt: str, out_dir: Path, spans: Path | None = None):
        """Run one pipeline child; (record, problems)."""
        shutil.rmtree(out_dir, ignore_errors=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        cmd = [sys.executable, str(BENCH / "child.py"), str(input_path), fmt, str(out_dir)]
        if spans is not None:
            cmd.append(str(spans))
        # Host load slows one CPU at a time, for seconds, so children take
        # turns on each CPU this process may use.
        cpu = CPUS[self.attempted % len(CPUS)]
        timeout = max(1.0, self.began + CHILD_CAP_S - time.perf_counter())
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout,
                                  preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        except subprocess.TimeoutExpired:
            return None, [f"child timed out after {timeout:.0f} s"]
        lines = proc.stdout.strip().splitlines()
        record = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        if proc.returncode != 0 or "wall_s" not in record:
            detail = record.get("error") or proc.stderr.strip().splitlines()[-1:] or "no output"
            return None, [f"child exited {proc.returncode}: {detail}"]
        return record, []

    def check(self, label: str, record, problems: list[str]) -> bool:
        self.attempted += 1
        if record is not None and not problems:
            where = Path(record.get("module", ""))
            if ROOT / "src" not in where.parents:
                problems = [f"imported alertgraphs from {where}, not from this checkout"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
            return False
        return True

    def golden(self) -> None:
        out = WORK / "out" / "golden"
        record, problems = self.child(ROOT / "tests/fixtures/synthetic_alerts.jsonl", "eve-json", out)
        if record is not None:
            try:
                problems = gate.same_files(out, ROOT / "tests/golden")
            except OSError as exc:
                problems = [f"output unreadable: {exc}"]
        self.check("golden fixture", record, problems)

    def workload_run(self, label: str, input_path: Path, truth: dict, spans: Path | None = None,
                     expect: str | None = None):
        """One checked child on a generated workload; (record, digest) or (None, None).

        ``expect`` is the artifact digest the run must reproduce, if known.
        """
        out = WORK / "out" / self.workload
        record, problems = self.child(input_path, truth["format"], out, spans)
        digest = None
        if record is not None:
            try:
                problems = gate.against_truth(out, record["parse"], truth)
                digest = gate.digest(out)
                record["alphabet"] = len((out / "automaton.txt").read_text().split("\n", 1)[0].split("\t")) - 1
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"output unreadable: {exc!r}"]
            if expect is not None and digest != expect:
                problems.append(f"artifact digest {digest} != expected {expect}")
        if not self.check(label, record, problems):
            return None, None
        return record, digest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"not an alertgraphs checkout (missing {', '.join(missing)}); run from the repo root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run = Run(args.workload)
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}

    default_input, default_truth = _prepare(args.workload, DEFAULT_SEED)
    if args.record_digest:
        record, digest = run.workload_run("default seed", default_input, default_truth)
        if record is None:
            print("\n".join(run.problems), file=sys.stderr)
            return 1
        DIGESTS.write_text(json.dumps({**digests, args.workload: digest}, indent=2, sort_keys=True) + "\n")
        print(f"recorded {args.workload} seed {DEFAULT_SEED} digest {digest}", file=sys.stderr)
        return 0

    run.golden()
    if args.workload in digests:
        run.workload_run("default seed", default_input, default_truth, expect=digests[args.workload])
    else:
        run.check("default seed", None, [f"no digest recorded in {DIGESTS.name}"])

    input_path, truth = _prepare(args.workload, args.seed)
    spans = WORK / "trace" / f"{args.workload}-{args.seed}.spans.tsv"
    kinds = (False, True) if args.trace else (False,)
    samples: dict[bool, list[dict]] = {False: [], True: []}
    reference = None  # every run on this input must write the first run's bytes
    loop_start = time.perf_counter()
    rounds, last = 0, 0.0
    while True:
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now - loop_start >= args.seconds:
            break
        if now - run.began + 1.5 * last > ROUND_CAP_S:
            break
        for traced in kinds if rounds % 2 == 0 else kinds[::-1]:
            label = f"{'traced' if traced else 'untraced'} run {rounds + 1}"
            record, digest = run.workload_run(label, input_path, truth, spans if traced else None, reference)
            if record is not None:
                samples[traced].append(record)
                reference = reference or digest
        rounds += 1
        last = time.perf_counter() - now

    walls = [_scaled(r, "wall_s") for r in samples[False]]
    setups = [_scaled(r, "setup_s") for r in samples[False]]
    end_to_end = {}
    if walls:
        end_to_end = {
            "wall_s": statistics.fmean(walls),
            "alerts_per_s": truth["alerts"] / statistics.fmean(walls),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in samples[False]),
            "setup_s": statistics.fmean(setups),
        }
    layers = {}
    missing_names = sorted({m for r in samples[True] for m in r["missing"]})
    if samples[True]:
        traced = [r["layers"] for r in samples[True]]
        names = sorted({name for layers_of_one in traced for name in layers_of_one})
        layers = {n: statistics.median(t[n] for t in traced if n in t) for n in names}
        if walls:
            layers["trace_overhead_s"] = (statistics.fmean(r["wall_s"] for r in samples[True])
                                          - statistics.fmean(r["wall_s"] for r in samples[False]))

    error_rate = run.failed / run.attempted if run.attempted else 1.0
    properties = {
        "distinct_signatures": truth["distinct_signatures"],
        "duplicate_share": 1 - truth["kept"] / truth["alerts"],
        "pairs": truth["pairs"],
        "alphabet": samples[False][0]["alphabet"] if samples[False] else None,
        "objectives": len(truth["objectives"]),
    }
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    measured = layers if args.trace else end_to_end
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in measured}
    not_measured = [m["name"] for m in wanted if m["name"] not in measured]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "src_lines": _src_lines(),
        "input": {"alerts": truth["alerts"], "records": truth["records"], **properties},
        "attempted": run.attempted,
        "failed": run.failed,
        "error_rate": error_rate,
        "problems": run.problems,
        "wall_s": _summary(walls) if walls else None,
        "setup_s": _summary(setups) if setups else None,
        "unscaled_wall_s": _summary([r["wall_s"] for r in samples[False]]) if walls else None,
        "speed_unit_s": _summary([r["speed_unit_s"] for r in samples[False]]) if walls else None,
        "end_to_end": end_to_end,
        "per_layer": layers,
        "missing": sorted(set(missing_names) | set(not_measured)),
        "spans": str(spans.relative_to(ROOT)) if args.trace else None,
        "elapsed_s": time.perf_counter() - run.began,
    }
    record_path = WORK / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for problem in run.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    if record["missing"]:
        print(f"missing metrics: {', '.join(record['missing'])}", file=sys.stderr)
    print(f"input properties: {json.dumps(properties)}; record: {record_path.relative_to(ROOT)}",
          file=sys.stderr)

    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
