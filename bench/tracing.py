"""Outside-in tracing of one ``run_pipeline`` call.

The tracer replaces, for the life of one process, the names that
``alertgraphs.pipeline`` looks up when it runs: the stage table, the
functions it imported by name, the ``alerts`` and ``analytics`` module
attributes it calls through, and ``SuffixPdfa.to_text``. ``src/`` is never
edited. Each call becomes a span (name, stage, parent, start, end) kept in
memory; counts are read from return values at the same boundaries. A name
that no longer exists is reported as missing and its metrics are left out.
"""

from __future__ import annotations

import functools
import time
from pathlib import Path

# (layer, attribute path from alertgraphs.pipeline); the layer is the module
# that owns the function, which is what a metric name starts with
TRACED = (
    ("alerts", "alerts_mod.default_mapping_config"),
    ("alerts", "alerts_mod.parse_alerts"),
    ("alerts", "alerts_mod.map_alert"),
    ("alerts", "alerts_mod.filter_duplicates"),
    ("episodes", "aggregate_episodes"),
    ("episodes", "build_sequences"),
    ("episodes", "partition_subsequences"),
    ("automaton", "build_suffix_tree"),
    ("automaton", "learn_pdfa"),
    ("automaton", "annotate_sequence"),
    ("automaton", "SuffixPdfa.to_text"),
    ("graphs", "find_objectives"),
    ("graphs", "extract_ag"),
    ("graphs", "emit_dot"),
    ("analytics", "analytics.workload_stats"),
    ("analytics", "analytics.rank_teams"),
    ("evaluation", "learn_markov_chain"),
    ("evaluation", "perplexity"),
)

# functions called a few times per run: the peak RSS after them is recorded
RSS_AFTER = (
    "parse_alerts", "filter_duplicates", "build_sequences", "build_suffix_tree",
    "learn_pdfa", "find_objectives", "workload_stats", "perplexity",
)

# functions whose return values give counts
COUNTED = ("parse_alerts", "aggregate_episodes", "build_suffix_tree", "find_objectives", "extract_ag")

RUN = "pipeline.run_pipeline"


def peak_rss_mb() -> float:
    """Peak RSS of this process image (Linux ``VmHWM``).

    ``ru_maxrss`` is not used: it keeps the peak of the process that forked
    this one, so a child would report the benchmark runner's memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class Tracer:
    """Spans and counts of one traced process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, stage, parent index, start, end)
        self._stack: list[int] = []
        self.stage = ""
        self.counts: dict[str, float] = {}
        self.rss_after: dict[str, float] = {}
        self.missing: list[str] = []
        self.signatures: set[str] = set()

    def _span(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, self.stage, parent, start, clock())
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _after(self, short: str):
        """Hook reading counts off a return value, or None if there are none.

        It runs inside the caller's span, so it must be cheap, and it keeps no
        return value alive.
        """
        if short not in COUNTED and short not in RSS_AFTER:
            return None

        def hook(result):
            if short == "parse_alerts":
                self.signatures.update(raw.signature for raw in result[0])
            elif short == "aggregate_episodes":
                self._count("episodes.episodes", len(result))
            elif short == "build_suffix_tree" and self.stage == "learn":
                self._count("automaton.trie_states", len(result))
            elif short == "find_objectives":
                self._count("graphs.objectives", len(result))
            elif short == "extract_ag":
                self._count("graphs.vertices", len(result.vertices))
                self._count("graphs.edges", len(result.edges))
            if short in RSS_AFTER:
                self.rss_after[short] = peak_rss_mb()

        return hook

    def install(self, pipeline) -> None:
        """Wrap every traced name reachable from the ``pipeline`` module."""
        for layer, path in TRACED:
            *owner_path, attr = path.split(".")
            owner = pipeline
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{layer}.{path.split('.')[-1]}")
                continue
            name = f"{layer}.{fn.__qualname__}"
            setattr(owner, attr, self._span(name, fn, self._after(fn.__name__)))
        stages = pipeline._STAGE_FUNCS
        for stage, fn in list(stages.items()):
            stages[stage] = self._stage_span(stage, fn)

    def _stage_span(self, stage: str, fn):
        inner = self._span(f"pipeline.stage_{stage}", fn)

        def traced_stage(*args, **kwargs):
            self.stage = stage
            try:
                return inner(*args, **kwargs)
            finally:
                self.stage = ""

        return traced_stage

    def run(self, run_pipeline, cfg):
        """Call ``run_pipeline(cfg)`` as the root span."""
        return self._span(RUN, run_pipeline)(cfg)

    def metrics(self, result) -> dict[str, float]:
        """Per-layer metrics of the finished run."""
        child_time = [0.0] * len(self.spans)
        for name, _, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, stage, _, start, end), children in zip(self.spans, child_time):
            own = end - start - children
            if name == RUN or name.startswith("pipeline.stage_"):
                self_s["pipeline.self"] = self_s.get("pipeline.self", 0.0) + own
                continue
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            if name == "automaton.learn_pdfa":
                key = f"{name}.{stage}"
                self_s[key] = self_s.get(key, 0.0) + own

        out: dict[str, float] = {"pipeline.self_s": self_s.pop("pipeline.self", 0.0)}
        for name, seconds in self_s.items():
            out[f"{name}.s"] = seconds
        for name, n in calls.items():
            out[f"{name}.calls"] = n
        for short, mb in self.rss_after.items():
            out[f"pipeline.rss_after_{short}_mb"] = mb
        out.update(self.counts)

        stats = result.parse_stats
        out["alerts.records_in"] = stats.total
        out["alerts.skipped"] = stats.skipped
        if result.mapped_alerts:
            out["alerts.dedup_kept_ratio"] = len(result.filtered_alerts) / len(result.mapped_alerts)
        if self.signatures:
            out["alerts.distinct_signatures"] = len(self.signatures)
        out["episodes.sequences"] = len(result.sequences)
        out["episodes.attempts"] = len(result.subsequences)
        if result.model is not None:
            out["automaton.pdfa_states"] = len(result.model)
            out["automaton.sink_states"] = len(result.model.sink_ids())
            out["automaton.alphabet"] = len(result.model.alphabet)
        entries = [sid for seq in result.annotated for _, sid in seq.entries]
        if entries:
            out["automaton.out_of_model_share"] = sum(sid < 0 for sid in entries) / len(entries)
        out["pipeline.artifacts"] = len(result.artifacts)
        out["pipeline.artifact_bytes"] = sum(Path(p).stat().st_size for p in result.artifacts)
        return out

    def write_spans(self, path: Path) -> None:
        """All spans as tab-separated lines: name, stage, parent, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstage\tparent\tstart_s\tend_s\n")
            for name, stage, parent, start, end in self.spans:
                fh.write(f"{name}\t{stage}\t{parent}\t{start:.9f}\t{end:.9f}\n")

