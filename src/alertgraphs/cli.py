"""Command-line entry point for the alert-to-attack-graph pipeline."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .alerts import FORMATS
from .automaton import LearnParams
from .pipeline import STAGES, PipelineConfig, StageError, run_pipeline


def build_parser() -> argparse.ArgumentParser:
    # each option's dest is the name of a PipelineConfig or LearnParams field, and
    # every default is read from that field (None where none is set)
    config, learn = PipelineConfig._field_defaults, LearnParams._field_defaults
    parser = argparse.ArgumentParser(
        prog="alertgraphs",
        description="Transform raw IDS alerts into per-victim, per-objective attack graphs.",
    )
    parser.add_argument("--alerts", nargs="+", required=True, type=Path, metavar="PATH",
                        help="alert log file(s)")
    parser.add_argument("--format", choices=FORMATS, default=config["format"])
    parser.add_argument("--sig-map", type=Path, metavar="PATH",
                        help="signature rule file (PATTERN<TAB>STAGE per line)")
    parser.add_argument("--port-map", type=Path, metavar="PATH",
                        help="IANA-format service-names CSV")
    parser.add_argument("--t", type=float, default=config["t"], metavar="SECS",
                        help="duplicate-suppression window (default %(default)s)")
    parser.add_argument("--w", type=float, default=config["w"], metavar="SECS",
                        help="episode aggregation window (default %(default)s)")
    for name in ("symbol_count", "state_count", "sink_count"):
        parser.add_argument("--" + name.replace("_", "-"), type=int, metavar="N",
                            default=learn[name],
                            help="merge-test threshold (default %(default)s)")
    parser.add_argument("--alpha", type=float, default=learn["alpha"], metavar="F",
                        help="significance level of the merge test (default %(default)s)")
    parser.add_argument("--split", type=float, default=config["split"], metavar="F",
                        help="train fraction for the perplexity report (default %(default)s)")
    parser.add_argument("--seed", type=int, default=config["seed"], metavar="N",
                        help="seed for the train/test shuffle (default %(default)s)")
    parser.add_argument("--out", dest="out_dir", required=True, type=Path, metavar="DIR")
    parser.add_argument("--stop-after", choices=STAGES)
    return parser


def config_from_args(args: argparse.Namespace) -> PipelineConfig:
    options = dict(vars(args))
    learn = LearnParams(*map(options.pop, LearnParams._fields))
    return PipelineConfig(**options, learn=learn)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        result = run_pipeline(cfg)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"parsed {result.parse_stats.parsed}/{result.parse_stats.total} alerts "
        f"({result.parse_stats.skipped} skipped), kept {len(result.filtered_alerts)} "
        f"after de-duplication; wrote {len(result.artifacts)} artifact(s) to {cfg.out_dir}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
