#!/usr/bin/env python3
"""Run the pipeline on an enlarged benchmark workload; report time and memory.

Takes a workload shape from ``bench/workloads.py`` (imported from the
``bench`` directory, never edited), enlarges it with ``dataclasses.replace``,
writes its log under a temporary directory and runs ``run_pipeline`` on that
log ``--runs`` times, each in a fresh process, so the peak RSS is the
pipeline's own and not the generator's. Prints the run's record as one JSON
line. It holds the record count and the median, min and max over the runs of
the wall seconds, each stage's seconds and the peak RSS (``VmHWM``) in MB.
``learn_pdfa`` holds each learner call by the stage that made it (``learn``,
and ``stats`` for the perplexity report's model): its wall seconds (``s``)
and its CPU seconds in the worker process (``cpu_s``, from
``time.process_time``), each a median, min and max over the runs, and the
rounds, the pair bounds reused from the last round (``reused``) and made
anew (``bounds``), the pairs scored in full (``evaluated``) and not
(``pruned``) and the pair evaluations run (``calls``), summed from the
learner's ``trace`` callback, and ``trie_states``, the states of the trie
it learned from. Learner versions are best compared by ``cpu_s``, which
another process on the host does not add to.
``episodes``, ``attempts``, ``pdfa_states``, ``sink_states``, ``graphs``
and ``artifacts`` count the work of the run, read from its
``PipelineResult``. ``stage_rss_mb`` holds, per stage, the live
(``VmRSS``) and peak (``VmHWM``) resident size in MB as the stage ended,
so a change in memory shows which stage moved it. ``gc_collections``
holds, per stage, the most cyclic garbage collections any run made while
that stage ran, counted through ``gc.callbacks``; ``run_pipeline`` pauses
the collector, so each should be 0. Each run writes into an output
directory of its own, empty when the run starts. The record also holds the
commit of the checkout, the Python version, ``nproc`` and
``PYTHONDONTWRITEBYTECODE`` (null when unset), which change what a run
costs, and ``src_lines``, the line count of ``src/alertgraphs/*.py``, the
size of the code that ran. ``--json PATH`` also writes it to ``PATH``.
Exits 1, naming each problem on stderr, when ``check_record`` finds one in
the record, when the record or skip count of any run differs from the
generator's ground truth, or when any count, of the work or of a learner
call, differs between runs. Run from anywhere:

    python3 scripts/scale_run.py --workload flood                           # ~70k records
    python3 scripts/scale_run.py --workload flood --victims 24 --runs 3     # ~210k records
    python3 scripts/scale_run.py --workload flood --teams 40 --victims 24   # ~2.08M records
    python3 scripts/scale_run.py --workload campaign --json BENCH_campaign.json

Generating the largest log takes about 2.4 GB in this script's own process.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402  bench/workloads.py


LEARNER_COUNTS = ("rounds", "evaluated", "reused", "pruned", "bounds", "calls", "trie_states")
WORK_COUNTS = ("records", "parsed", "skipped", "episodes", "attempts", "pdfa_states",
               "sink_states", "graphs", "artifacts")
FIELDS = ("workload", "seed", "teams", "victims", "log_mb", "runs", *WORK_COUNTS, "wall_s", "stage_s",
          "stage_rss_mb", "learn_pdfa", "gc_collections", "vmhwm_mb",
          "commit", "python", "nproc", "PYTHONDONTWRITEBYTECODE", "src_lines")


def check_record(record: dict) -> list[str]:
    """What a record lacks or holds wrong, one line per problem: a stage with no
    live or peak RSS or with a garbage collection, a learner call whose pairs
    do not each get one bound and one verdict, or, on ``campaign``, one that
    pruned, evaluated or bounded no pair or took no CPU time. So a lost pruning
    path, bound step or collector pause fails without a timing gate."""
    problems = [f"no {key}" for key in FIELDS if key not in record]
    if problems:
        return problems
    sizes = {"vmhwm_mb": record["vmhwm_mb"]}
    for stage in record["stage_s"]:
        for name in ("VmRSS", "VmHWM"):
            sizes[f"stage_rss_mb.{stage}.{name}"] = record["stage_rss_mb"].get(stage, {}).get(name, {})
    problems += [f"{name} is not above 0" for name, mb in sizes.items() if not mb.get("median", 0) > 0]
    problems += [f"gc_collections.{stage} is {n}" for stage, n in record["gc_collections"].items() if n]
    calls, campaign = record["learn_pdfa"], record["workload"] == "campaign"
    if campaign and sorted(calls) != ["learn", "stats"]:
        problems.append(f"learn_pdfa holds {sorted(calls)}, not the learn and stats calls")
    for stage, call in calls.items():
        missing = [key for key in (*LEARNER_COUNTS, "s", "cpu_s") if key not in call]
        if missing:
            problems.append(f"learn_pdfa.{stage} has no {missing}")
            continue
        if call["reused"] + call["bounds"] != call["evaluated"] + call["pruned"]:
            problems.append(f"learn_pdfa.{stage}: reused + bounds != evaluated + pruned")
        if campaign:
            positive = {key: call[key] for key in ("pruned", "calls", "bounds")}
            positive["cpu_s"] = call["cpu_s"]["median"]
            problems += [f"learn_pdfa.{stage}.{key} is not above 0" for key, n in positive.items() if not n > 0]
    return problems


def _run(alerts: str, fmt: str, out_dir: str) -> dict:
    """One timed ``run_pipeline`` call; runs in the worker process."""
    from alertgraphs import pipeline

    stage_s: dict[str, float] = {}
    stage_rss: dict[str, dict[str, float]] = {}
    learner: dict[str, dict] = {}
    collections: dict[str, int] = {}
    running = None  # the stage being run

    def timed(stage, fn):
        def run(*args):
            nonlocal running
            running = stage
            collections.setdefault(stage, 0)
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                stage_s[stage] = time.perf_counter() - start
                stage_rss[stage] = _status_mb()
                running = None

        return run

    def collected(phase, info):
        if phase == "start" and running is not None:
            collections[running] += 1

    def learn_pdfa(tree, params):
        call = learner[running] = dict.fromkeys(LEARNER_COUNTS, 0)
        call["trie_states"] = len(tree)

        def count(step):
            call["rounds"] += 1
            for key in ("evaluated", "reused", "pruned", "bounds", "calls"):
                call[key] += step[key]

        start, cpu = time.perf_counter(), time.process_time()
        try:
            return learn(tree, params, trace=count)
        finally:
            call["s"] = time.perf_counter() - start
            call["cpu_s"] = time.process_time() - cpu

    for stage, fn in list(pipeline._STAGE_FUNCS.items()):
        pipeline._STAGE_FUNCS[stage] = timed(stage, fn)
    learn, pipeline.learn_pdfa = pipeline.learn_pdfa, learn_pdfa
    cfg = pipeline.PipelineConfig(alerts=[Path(alerts)], out_dir=Path(out_dir), format=fmt)
    gc.callbacks.append(collected)
    start = time.perf_counter()
    result = pipeline.run_pipeline(cfg)
    wall_s = time.perf_counter() - start
    gc.callbacks.remove(collected)
    stats = result.parse_stats
    return {
        "records": stats.total,
        "parsed": stats.parsed,
        "skipped": stats.skipped,
        "episodes": sum(len(es.episodes) for es in result.sequences),
        "attempts": len(result.subsequences),
        "pdfa_states": len(result.model),
        "sink_states": len(result.model.sink_ids()),
        "graphs": len(result.ags),
        "artifacts": len(result.artifacts),
        "wall_s": wall_s,
        "stage_s": stage_s,
        "stage_rss_mb": stage_rss,
        "learn_pdfa": learner,
        "gc_collections": collections,
        "vmhwm_mb": _status_mb()["VmHWM"],
    }


def _status_mb() -> dict[str, float]:
    """This process's live (``VmRSS``) and peak (``VmHWM``) resident size in MB."""
    sizes = {}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            name, _, value = line.partition(":")
            if name in ("VmRSS", "VmHWM"):
                sizes[name] = int(value.split()[0]) / 1024.0
    return sizes


def _spread(values: list[float]) -> dict:
    return {
        "median": round(statistics.median(values), 3),
        "min": round(min(values), 3),
        "max": round(max(values), 3),
    }


def _commit() -> str | None:
    """HEAD of the checkout this script is in, or None outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default="flood")
    parser.add_argument("--teams", type=int, help="attacker teams (default: the workload's)")
    parser.add_argument("--victims", type=int, help="victims per team (default: the workload's)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=1, help="pipeline runs, each in a fresh process")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write the record, with the commit and host facts, to PATH")
    args = parser.parse_args(argv)
    for name in ("runs", "teams", "victims"):
        value = getattr(args, name)
        if value is not None and value < 1:
            parser.error(f"--{name} must be at least 1")

    spec = workloads.WORKLOADS[args.workload]
    spec = dataclasses.replace(
        spec,
        teams=spec.teams if args.teams is None else args.teams,
        victims=spec.victims if args.victims is None else args.victims,
    )
    records = []
    with tempfile.TemporaryDirectory(prefix="alertgraphs-scale-") as tmp:
        log = Path(tmp) / ("alerts.csv" if spec.format == "csv" else "alerts.jsonl")
        text, truth = workloads.generate(args.workload, args.seed, ROOT, spec)
        log.write_text(text, encoding="utf-8")
        del text
        log_size = log.stat().st_size
        context = multiprocessing.get_context("spawn")
        for run in range(args.runs):
            # a new pool per run, so a worker process is never reused, and a
            # new output directory, so no run writes over another's files
            out = Path(tmp) / f"out-{run + 1}"
            with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
                records.append(pool.submit(_run, str(log), spec.format, str(out)).result())
    first = records[0]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "teams": spec.teams,
        "victims": spec.victims,
        "log_mb": round(log_size / 1e6, 1),
        "runs": args.runs,
        **{key: first[key] for key in WORK_COUNTS},
        "wall_s": _spread([r["wall_s"] for r in records]),
        "stage_s": {stage: _spread([r["stage_s"][stage] for r in records]) for stage in first["stage_s"]},
        "stage_rss_mb": {
            stage: {name: _spread([r["stage_rss_mb"][stage][name] for r in records]) for name in sizes}
            for stage, sizes in first["stage_rss_mb"].items()
        },
        "learn_pdfa": {
            stage: {
                **{key: _spread([r["learn_pdfa"][stage][key] for r in records])
                   for key in ("s", "cpu_s")},
                **{key: call[key] for key in LEARNER_COUNTS},
            }
            for stage, call in first["learn_pdfa"].items()
        },
        "gc_collections": {stage: max(r["gc_collections"][stage] for r in records) for stage in first["stage_s"]},
        "vmhwm_mb": _spread([r["vmhwm_mb"] for r in records]),
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "src_lines": sum(  # as wc -l counts them
            path.read_bytes().count(b"\n") for path in (ROOT / "src" / "alertgraphs").glob("*.py")
        ),
    }
    print(json.dumps(record))
    if args.json is not None:
        args.json.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    problems = check_record(record) + [
        f"run {i}: {key} differs from the generator's"
        for i, r in enumerate(records, 1)
        for key in ("records", "skipped")
        if r[key] != truth[key]
    ] + [f"{key} differs between runs" for key in WORK_COUNTS if len({r[key] for r in records}) > 1] + [
        f"learn_pdfa.{stage}.{key} differs between runs"
        for stage in first["learn_pdfa"]
        for key in LEARNER_COUNTS
        if len({r["learn_pdfa"][stage][key] for r in records}) > 1
    ]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
