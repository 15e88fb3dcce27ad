"""alertgraphs: objective-oriented attack graphs from raw IDS alerts.

The pipeline aggregates alerts into attack episodes, learns a
suffix-oriented probabilistic automaton over attack-attempt sequences, and
extracts one attack graph per (victim, objective) with ranking and
workload-reduction analytics.

The package exports the pipeline's entry points; every other name is
imported from its module, such as ``alertgraphs.alerts.parse_alerts``.
"""

from .alerts import default_mapping_config
from .automaton import LearnParams
from .pipeline import PipelineConfig, PipelineResult, StageError, run_pipeline
