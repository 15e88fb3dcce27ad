"""End-to-end orchestration: alerts in, attack graphs and reports out.

Stages run in a fixed order (ingest, episodes, learn, graphs, stats); each
stage owns a set of output files. A stage that fails or is interrupted
removes its partial outputs; a failure surfaces the stage name, and an
interrupt or exit passes through as it is. Identical configuration and inputs
produce byte-identical artifacts.
"""

from __future__ import annotations

import gc
import json
import os
import stat
from itertools import chain, groupby
from operator import add, itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from . import alerts as alerts_mod
from . import analytics
from .alerts import Alert, MappingConfig, ParseStats, _Memo
from .automaton import (
    AnnotatedSequence,
    LearnParams,
    SuffixPdfa,
    annotate_sequence,
    build_suffix_tree,
    learn_pdfa,
)
from .episodes import (
    SYMBOL_ESCAPES,
    TEAM_ESCAPES,
    EpisodeSequence,
    EpisodeSubSequence,
    aggregate_episodes,
    build_sequences,
    escaped,
    partition_subsequences,
    render_episode_dump,
    render_symbol,
    to_symbols,
)
from .evaluation import learn_markov_chain, perplexity, split_sequences
from .graphs import (
    AG_FILE_GLOB,
    IndexRow,
    ObjectiveKey,
    ag_filename,
    emit_dot,
    extract_ag,
    find_objectives,
    index_row,
    render_index,
    team_start_times,
    vertex_texts,
)

EPISODE_DUMP = "episodes.tsv"
ATTEMPT_CORPUS = "attempt_corpus.tsv"
MODEL_TEXT = "automaton.txt"
MODEL_DOT = "automaton.dot"
INDEX_FILE = "attack_graph_index.tsv"
STATS_REPORT = "stats_report.tsv"
SUMMARY_JSON = "summary.json"
PERPLEXITY_REPORT = "perplexity_report.tsv"
OUTPUT_FILES = (
    EPISODE_DUMP,
    ATTEMPT_CORPUS,
    MODEL_TEXT,
    MODEL_DOT,
    INDEX_FILE,
    STATS_REPORT,
    SUMMARY_JSON,
    PERPLEXITY_REPORT,
)


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


_PATH = (str, os.PathLike)  # what a path field of PipelineConfig may hold


@alerts_mod.checked
class PipelineConfig(NamedTuple):
    """The inputs, output directory and settings of a run, checked when built."""

    alerts: list[Path]
    out_dir: Path
    format: str = "eve-json"
    sig_map: Path | None = None
    port_map: Path | None = None
    t: float = 1.0
    w: float = 150.0
    learn: LearnParams = LearnParams()
    split: float = 0.8
    seed: int = 0
    stop_after: str | None = None

    def _check(self):
        # written so that NaN, which compares false with everything, is rejected
        if not self.t > 0:
            raise ValueError("t must be > 0")
        if not self.w > 0:
            raise ValueError("w must be > 0")
        if not 0.0 < self.split < 1.0:
            raise ValueError("split must be in (0, 1)")
        if self.format not in alerts_mod.FORMATS:
            raise ValueError(f"unknown format: {self.format!r}")
        if self.stop_after is not None and self.stop_after not in STAGES:
            raise ValueError(f"unknown stage: {self.stop_after!r}")
        # open() takes an int as a file descriptor, and a str as alerts would
        # name one file per character
        if not (isinstance(self.alerts, (list, tuple)) and all(isinstance(p, _PATH) for p in self.alerts)):
            raise ValueError("alerts must be a list of paths")
        if not self.alerts:  # a run of no log would replace every artifact with an empty one
            raise ValueError("alerts must name at least one log")
        if not isinstance(self.out_dir, Path):
            raise ValueError("out_dir must be a Path")
        if not all(isinstance(p, _PATH) for p in (self.sig_map, self.port_map) if p is not None):
            raise ValueError("sig_map and port_map must each be a path or None")
        if not isinstance(self.learn, LearnParams):
            raise ValueError("learn must be a LearnParams")


class PipelineResult:
    """What the stages of a run produced; each stage fills in its part."""

    def __init__(self):
        self.parse_stats = ParseStats()
        self.mapped_alerts: list[Alert] = []
        self.filtered_alerts: list[Alert] = []
        self.sequences: list[EpisodeSequence] = []
        self.subsequences: list[EpisodeSubSequence] = []
        self.corpus: list = []
        self.model: SuffixPdfa | None = None
        self.annotated: list[AnnotatedSequence] = []
        self.ags: list[IndexRow] = []  # sorted by file name
        self.tally = analytics.GraphTally()
        self.artifacts: list[Path] = []


class _StageWriter:
    """Tracks files written by the current stage so failures can clean up."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.written: list[Path] = []

    def write(self, name: str, content: str | Iterable[str]) -> Path:
        """Write ``content``, a string or an iterable of lines, to ``name``.

        The path is recorded once the file is open and before its first
        byte, so a write that fails part-way, such as on an unencodable
        character or a full disk, leaves no partial file behind
        ``rollback``, and a path that could not be opened, such as a
        directory, is never unlinked.
        """
        path = self.out_dir / name
        fh = open(path, "w", encoding="utf-8", newline="\n")
        self.written.append(path)
        with fh:
            if isinstance(content, str):
                fh.write(content)
            else:
                fh.writelines(content)
        return path

    def rollback(self) -> None:
        for path in self.written:
            path.unlink(missing_ok=True)


def _load_mapping(cfg: PipelineConfig) -> MappingConfig:
    # "utf-8-sig" drops a leading BOM, which would otherwise stay in the first
    # rule's pattern or the registry's first column name
    changes = {}
    if cfg.sig_map is not None:
        with open(cfg.sig_map, encoding="utf-8-sig") as fh:
            changes["signature_rules"] = alerts_mod.load_signature_rules(fh)
    if cfg.port_map is not None:
        with open(cfg.port_map, encoding="utf-8-sig") as fh:
            changes["port_service"] = alerts_mod.load_port_services(fh)
    return alerts_mod.default_mapping_config()._replace(**changes)


def _remove_owned_outputs(cfg: PipelineConfig) -> None:
    """Delete the artifacts an earlier run left in ``out_dir``; other files stay.

    An input that is one of them, by its name there or through a symlink or
    a hard link, raises ``ValueError`` before anything is deleted. Each path
    is looked up once, and two that agree in device and inode are one file.
    """
    out_dir = cfg.out_dir
    owned = [out_dir / name for name in OUTPUT_FILES] + list(out_dir.glob(AG_FILE_GLOB))
    found = list(map(_file_id, owned))
    # built last to first, so each file maps to the first input that names it
    inputs = {_file_id(path): path for path in (cfg.port_map, cfg.sig_map, *cfg.alerts[::-1]) if path}
    for path, key in zip(owned, found):
        if key and key in inputs:
            raise ValueError(f"input {inputs[key]} is the output {path} this run replaces")
    for path, key in zip(owned, found):
        if not (key and stat.S_ISDIR(key[2])):
            path.unlink(missing_ok=True)


def _file_id(path: Path) -> tuple[int, int, int] | None:
    """Device, inode and mode of the file at ``path``; None where ``os.path.exists`` is False."""
    try:
        st = os.stat(path)
    except (OSError, ValueError):
        return None
    return st.st_dev, st.st_ino, st.st_mode


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Run the configured stages in order and return what they produced.

    An ``out_dir`` that cannot be made or cleared, such as a path naming a
    file, or an input that is one of its outputs, fails as the first stage,
    before anything is read.

    The stages run with the cyclic garbage collector paused, and its state
    is restored after. Every alert stays tracked (its ``AttackStage`` is),
    so each collection would walk them all, yet records, episodes, tries
    and graphs form no cycles: a run leaves as many cyclic objects behind
    whatever the size of its input.
    """
    stages = STAGES[: STAGES.index(cfg.stop_after) + 1] if cfg.stop_after else STAGES
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        _remove_owned_outputs(cfg)
    except (OSError, ValueError) as exc:
        raise StageError(stages[0], exc) from exc
    result = PipelineResult()

    collecting = gc.isenabled()
    gc.disable()
    try:
        for stage in stages:
            writer = _StageWriter(cfg.out_dir)
            try:
                _STAGE_FUNCS[stage](cfg, result, writer)
            except BaseException as exc:
                writer.rollback()
                if not isinstance(exc, Exception):
                    raise  # an interrupt or exit stays what it is
                raise StageError(stage, exc) from exc
            result.artifacts.extend(writer.written)
    finally:
        if collecting:
            gc.enable()
    return result


def _stage_ingest(cfg: PipelineConfig, result: PipelineResult, writer: _StageWriter) -> None:
    mapping = _load_mapping(cfg)
    stages, services = alerts_mod.stage_memo(mapping.signature_rules), mapping.port_service
    mapped: list[Alert] = []
    for path in cfg.alerts:
        with open(path, "rb") as fh:
            raws, stats = alerts_mod.parse_alerts(fh, format=cfg.format)
        result.parse_stats = ParseStats(*map(add, result.parse_stats, stats))
        # map in input order, letting each raw record go as it is mapped
        raws.reverse()
        pop, map_alert = raws.pop, alerts_mod.map_alert
        mapped.extend(map_alert(pop(), stages, services) for _ in range(len(raws)))
    mapped.sort(key=itemgetter(0))  # by timestamp; stable: ties keep input order
    result.mapped_alerts = mapped
    result.filtered_alerts = alerts_mod.filter_duplicates(mapped, cfg.t)


def _stage_episodes(cfg: PipelineConfig, result: PipelineResult, writer: _StageWriter) -> None:
    result.sequences = build_sequences(aggregate_episodes(result.filtered_alerts, cfg.w))
    result.subsequences = [
        ess for es in result.sequences for ess in partition_subsequences(es)
    ]
    result.corpus = [to_symbols(ess) for ess in result.subsequences]

    writer.write(EPISODE_DUMP, render_episode_dump(result.sequences))
    names, symbol_text = escaped(), escaped(render_symbol, SYMBOL_ESCAPES)
    writer.write(ATTEMPT_CORPUS, chain(
        ("attacker\tvictim\tindex\tsymbols\n",),
        (
            f"{names[ess.parent[0]]}\t{names[ess.parent[1]]}\t{ess.index}"
            f"\t{' '.join(map(symbol_text.__getitem__, symbols))}\n"
            for ess, symbols in zip(result.subsequences, result.corpus)
        ),
    ))


def _stage_learn(cfg: PipelineConfig, result: PipelineResult, writer: _StageWriter) -> None:
    tree = build_suffix_tree(result.corpus)
    result.model = learn_pdfa(tree, cfg.learn)
    writer.write(MODEL_TEXT, result.model.to_text())
    writer.write(MODEL_DOT, result.model.to_dot())


def _stage_graphs(cfg: PipelineConfig, result: PipelineResult, writer: _StageWriter) -> None:
    model = result.model
    result.annotated = [
        annotate_sequence(list(attempts), model)
        for _, attempts in groupby(
            zip(result.subsequences, result.corpus), key=lambda attempt: attempt[0].parent
        )
    ]
    sink_ids = model.sink_ids()
    objectives = find_objectives(result.annotated)
    filenames: dict[str, ObjectiveKey] = {}
    for key in objectives:
        filename = ag_filename(key)
        if filename in filenames:
            raise ValueError(f"{filenames[filename]} and {key} share the graph file name {filename}")
        filenames[filename] = key
    starts = team_start_times(result.annotated)
    rows = []
    texts = _Memo(vertex_texts)
    # each graph is folded into the run's tallies once written, so none
    # outlives its turn of the loop
    for filename, key in filenames.items():
        ag = extract_ag(key, objectives[key], sink_ids, starts)
        writer.write(filename, emit_dot(ag, texts))
        rows.append(index_row(filename, ag))
        result.tally.add(ag)
    result.ags = sorted(rows)
    writer.write(INDEX_FILE, render_index(result.ags))


def _stage_stats(cfg: PipelineConfig, result: PipelineResult, writer: _StageWriter) -> None:
    team_stats = analytics.workload_stats(
        result.mapped_alerts,
        result.filtered_alerts,
        (ep for es in result.sequences for ep in es.episodes),
        result.sequences,
        result.subsequences,
        result.ags,
    )
    try:
        scores = analytics.rank_teams(result.tally) if result.ags else []
        ranking_note = None
    except ValueError as exc:
        scores = []
        ranking_note = str(exc)
    repeat = analytics.shorter_repeat_ratio(result.tally)
    summary = analytics.graph_summary(result.ags)

    writer.write(STATS_REPORT, _render_stats(team_stats, scores, ranking_note, repeat, summary))
    writer.write(SUMMARY_JSON, _render_summary_json(team_stats, scores, repeat, summary))
    writer.write(PERPLEXITY_REPORT, _render_perplexity(cfg, result.corpus))


_STAGE_FUNCS = {
    "ingest": _stage_ingest,
    "episodes": _stage_episodes,
    "learn": _stage_learn,
    "graphs": _stage_graphs,
    "stats": _stage_stats,
}
STAGES = tuple(_STAGE_FUNCS)  # in run order


def _fmt(value) -> str:
    return "NA" if value is None else format(value, ".4f")


def _render_stats(team_stats, scores, ranking_note, repeat, summary) -> str:
    names = escaped(table=TEAM_ESCAPES)
    lines = [
        "# per-team volume funnel (teams are attacker identifiers)",
        "team\traw_alerts\tfiltered_alerts\tepisodes\tsequences\tattempts\tgraphs",
    ]
    for ts in team_stats:
        lines.append(
            f"{names[ts.team]}\t{ts.raw_alerts}\t{ts.filtered_alerts}\t{ts.episodes}"
            f"\t{ts.sequence_count}\t{ts.subsequence_count}\t{ts.ag_count}"
        )
    lines.append("# attacker ranking: score = (2*sev% + 1*med%) / 3, percentages rounded half-up")
    if ranking_note:
        lines.append(f"# ranking unavailable: {ranking_note}")
    lines.append(
        "team\tsevere_vertices\tsevere_total\tsevere_pct\tmedium_vertices"
        "\tmedium_total\tmedium_pct\tscore"
    )
    for sc in scores:
        lines.append(
            f"{names[sc.team]}\t{sc.severe_vertices}\t{sc.severe_total}\t{sc.severe_pct}"
            f"\t{sc.medium_vertices}\t{sc.medium_total}\t{sc.medium_pct}\t{sc.score:.2f}"
        )
    lines.append("# repeat attempts: consecutive same-team attempt pairs at one objective;")
    lines.append("# counted as shorter when the later path has strictly fewer vertices")
    lines.append(f"shorter_repeat_pct\t{'absent' if repeat is None else format(repeat, '.1f')}")
    lines.append("# attack graph summary")
    lines.append(f"ag_count\t{summary['ag_count']}")
    lines.append(f"mean_vertices\t{_fmt(summary['mean_vertices'])}")
    lines.append(f"mean_simplicity\t{_fmt(summary['mean_simplicity'])}")
    return "\n".join(lines) + "\n"


def _render_summary_json(team_stats, scores, repeat, summary) -> str:
    payload = {
        "workload": [ts._asdict() for ts in team_stats],
        "ranking": [{**sc._asdict(), "score": sc.score} for sc in scores],
        "shorter_repeat_pct": repeat,
        "graphs": summary,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _render_perplexity(cfg: PipelineConfig, corpus: Sequence) -> str:
    train, test = split_sequences(corpus, cfg.split, cfg.seed)
    if not train or not test:
        return (
            f"# corpus of {len(corpus)} sequences is too small for a "
            f"{cfg.split:.2f} split; perplexity skipped\n"
            "model\ttrain_perplexity\ttest_perplexity\n"
        )

    def row(name: str, model: SuffixPdfa) -> str:
        return f"{name}\t{perplexity(model, train):.4f}\t{perplexity(model, test):.4f}"

    tree = build_suffix_tree(train)
    # each row is written as its model is built: learn_pdfa takes the trie
    # over, and the chain is freed before the learner runs
    lines = [
        f"# {cfg.split:.2f} split of the attack-attempt symbol corpus, "
        f"seed {cfg.seed}: {len(train)} train / {len(test)} test",
        "model\ttrain_perplexity\ttest_perplexity",
        row("suffix_tree", tree),
        row("markov_chain", learn_markov_chain(train)),
        row("pdfa", learn_pdfa(tree, cfg.learn)),
    ]
    return "\n".join(lines) + "\n"
