"""One ``run_pipeline`` call in a fresh process; prints one JSON line.

Usage: ``python3 bench/child.py ALERTS FORMAT OUT_DIR [SPANS_FILE]`` with
``src`` on ``PYTHONPATH``. Given a spans file, the run is traced and the
per-layer metrics are printed as well. Exits 1 on a ``StageError``.

Untraced, the child gauges the speed the host gives its CPU while it runs:
every ``SAMPLE_EVERY_S`` a timer signal runs a fixed unit of interpreter
work (``_speed_unit``) and records its time. The printed setup and run times
leave that work out, and ``speed_unit_s``, the mean unit time, is what the
runner scales them by.
"""

import signal
import sys
import time

SAMPLE_EVERY_S = 0.025
UNIT_LINE = "10.0.0.1,40001,10.0.1.2,443,TCP,ET SCAN Nmap Scripting Engine,2"
units: list[float] = []


def _speed_unit(signum=None, frame=None) -> None:
    """Split, convert, format, group and sort, as ingest and the learner do."""
    start = time.perf_counter()
    groups: dict[tuple[str, str], list[int]] = {}
    for i in range(1000):
        src, _sport, dst, dport, _proto, sig, sev = UNIT_LINE.split(",")
        key = (f"{src}|{dst}", f"{sig}#{i % 13}")
        groups.setdefault(key, []).append(int(dport) + int(sev) * i)
    sorted(groups, key=lambda k: (k[1], len(groups[k])))
    units.append(time.perf_counter() - start)


_start = time.perf_counter()
SAMPLING = len(sys.argv) == 4
if SAMPLING:
    signal.signal(signal.SIGALRM, _speed_unit)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
import alertgraphs  # noqa: E402

SETUP_S = time.perf_counter() - _start - sum(units)

import json  # noqa: E402
from pathlib import Path  # noqa: E402

from alertgraphs import pipeline  # noqa: E402
from tracing import Tracer, peak_rss_mb  # noqa: E402


def main(argv: list[str]) -> int:
    alerts, fmt, out_dir, *spans = argv
    cfg = pipeline.PipelineConfig(alerts=[Path(alerts)], out_dir=Path(out_dir), format=fmt)
    tracer = None
    if spans:
        tracer = Tracer()
        tracer.install(pipeline)
    record = {"setup_s": SETUP_S, "module": alertgraphs.__file__}
    try:
        start = time.perf_counter()
        before = sum(units)
        if tracer is None:
            result = pipeline.run_pipeline(cfg)
        else:
            result = tracer.run(pipeline.run_pipeline, cfg)
        record["wall_s"] = time.perf_counter() - start - (sum(units) - before)
    except pipeline.StageError as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if SAMPLING:
        if not units:  # a run shorter than one sampling period
            _speed_unit()
        record["speed_unit_s"] = sum(units) / len(units)
        record["speed_units"] = len(units)
    record["peak_rss_mb"] = peak_rss_mb()
    stats = result.parse_stats
    record["parse"] = {"total": stats.total, "parsed": stats.parsed, "skipped": stats.skipped}
    if tracer is not None:
        record["layers"] = tracer.metrics(result)
        record["missing"] = tracer.missing
        tracer.write_spans(Path(spans[0]))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
