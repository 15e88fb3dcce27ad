"""alertgraphs: objective-oriented attack graphs from raw IDS alerts.

The pipeline aggregates alerts into attack episodes, learns a
suffix-oriented probabilistic automaton over attack-attempt sequences, and
extracts one attack graph per (victim, objective) with ranking and
workload-reduction analytics.
"""

from .alerts import (
    Alert,
    MappingConfig,
    ParseStats,
    RawAlert,
    default_mapping_config,
    filter_duplicates,
    map_alert,
    parse_alerts,
)
from .analytics import TeamScore, TeamStats, rank_teams, shorter_repeat_ratio, workload_stats
from .automaton import (
    OUT_OF_MODEL,
    AnnotatedSequence,
    LearnParams,
    SuffixPdfa,
    annotate_sequence,
    build_suffix_tree,
    learn_pdfa,
)
from .episodes import (
    Episode,
    EpisodeSequence,
    EpisodeSubSequence,
    Symbol,
    aggregate_episodes,
    build_sequences,
    partition_subsequences,
    to_symbols,
)
from .evaluation import learn_markov_chain, perplexity, split_sequences
from .graphs import (
    AttackGraph,
    ObjectiveKey,
    emit_dot,
    extract_ag,
    find_objectives,
    simplicity,
)
from .pipeline import PipelineConfig, PipelineResult, StageError, run_pipeline
from .stages import AttackStage, Severity

__version__ = "0.1.0"
