"""Validity auditing for human preference-annotation datasets.

The package detects non-attitudes, constructed preferences, and measurement
artifacts in annotation data through consistency diagnostics and
inconsistency-ratio statistics, quantifies their effect on aggregation, and
emits reliability weights and diagnostic-protocol plans for annotation
pipelines.
"""

from .aggregation import FlipReport, PoolSpec, majority_label, median_split_pools, pool_flip_simulation
from .diagnostics import (
    ConsistencyProfile,
    FramingEffect,
    build_profile,
    build_profiles,
    cross_item_consistency,
    framing_consistency,
    framing_effect_stats,
    order_consistency,
    reliability,
    temporal_consistency,
)
from .errors import (
    AllEndpointsFailedError,
    DataFormatError,
    DegenerateDataError,
    InfeasiblePlanError,
    InsufficientSupportError,
    PrefauditError,
    ProtocolError,
    TransportError,
)
from .pairing import (
    InconsistencyFlag,
    LadderReport,
    PrevalenceSummary,
    PromptPair,
    cosine_similarity,
    filter_ladder,
    find_similar_pairs,
    flag_inconsistencies,
    repeat_audit,
    repeat_pairs,
    standard_ladder_stages,
)
from .planner import (
    DiagnosticSchedule,
    ThresholdCalibration,
    TierPlan,
    assign_diagnostics,
    calibrate_consequence,
    calibrate_empirical,
    calibrate_scale,
    plan_tier,
    validate_schedule,
)
from .ratio import (
    PopulationReport,
    RatioConfig,
    RatioRecord,
    all_ratios,
    annotator_mean_ratios,
    exact_baseline,
    inconsistency_ratio,
    interpret_ratio,
    population_stats,
    random_baseline,
    within_theme_variance,
)
from .records import (
    AnnotationRecord,
    Dataset,
    EmbeddingTable,
    ItemMetadata,
    ValidationReport,
    load_embeddings,
    load_metadata,
    load_records,
    save_records,
    to_row,
    validate,
)
from .stats import (
    TestResult,
    cohens_d,
    one_sample_t,
    paired_t,
    pearson_r,
    seeded_sampler,
    welch_t,
)
from .synth import GenParams, LatentAnnotator, RecoveryReport, SyntheticDataset, generate, route_annotators, score_recovery
from .taxonomy import (
    PairClassification,
    RoutingThresholds,
    TaxonomyLabel,
    anchor_failure_rate,
    classification_summary,
    classify_directional_pair,
    classify_equivalent_pair,
    classify_flag,
    classify_flags,
    decision_procedure,
    score_pattern,
)
from .themes import (
    EndpointConfig,
    LabelCache,
    MockTransport,
    apply_theme_patch,
    label_corpus,
    label_prompt,
    parse_label_payload,
    render_prompt,
)
from .weighting import (
    VarianceDecomposition,
    WeightTable,
    build_weights,
    export_weighted,
    item_reliability,
    variance_decomposition,
)

__version__ = "0.1.0"
