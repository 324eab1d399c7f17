"""Social-trust admission control for device networks, with a scenario engine.

The library half models subjective-logic opinions, social relations,
similarity communities, and threshold admission. The harness half runs
seeded attack scenarios over an abstract proximity world and reports
detection metrics and trust distributions.
"""

from .adversary import AttackBehavior, AttackerEngine
from .authn import (
    AccessGate,
    DecisionRecord,
    RoutingError,
    Verdict,
    write_decision_csv,
)
from .community import (
    Community,
    SimilarityWeights,
    community_similarity,
    form_communities,
    pairwise_similarity,
    write_communities_csv,
)
from .dataset import (
    FriendshipGraph,
    load_friendship_edges,
    sample_subgraph,
    synthetic_small_world,
)
from .metrics import (
    ConfusionCounters,
    MetricsReport,
    accuracy,
    detection_rate,
    esr_cdf,
    false_negative_rate,
    false_positive_rate,
    write_esr_csv,
    write_metrics_csv,
)
from .sim import EventLog, RunResult, ScenarioConfig, SeedSummary, SimulationEngine, run_scenario
from .social import (
    ConfigError,
    Context,
    Device,
    DeviceClass,
    Identity,
    IdentitySource,
    RelationType,
    classify_relation,
    context_for,
)
from .trust import (
    Opinion,
    OpinionStore,
    TrustAssessment,
    assess,
    overall_trust,
    weights_from_relation,
    write_trust_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AccessGate",
    "AttackBehavior",
    "AttackerEngine",
    "Community",
    "ConfigError",
    "ConfusionCounters",
    "Context",
    "DecisionRecord",
    "Device",
    "DeviceClass",
    "EventLog",
    "FriendshipGraph",
    "Identity",
    "IdentitySource",
    "MetricsReport",
    "Opinion",
    "OpinionStore",
    "RelationType",
    "RoutingError",
    "RunResult",
    "ScenarioConfig",
    "SeedSummary",
    "SimilarityWeights",
    "SimulationEngine",
    "TrustAssessment",
    "Verdict",
    "accuracy",
    "assess",
    "classify_relation",
    "community_similarity",
    "context_for",
    "detection_rate",
    "esr_cdf",
    "false_negative_rate",
    "false_positive_rate",
    "form_communities",
    "load_friendship_edges",
    "overall_trust",
    "pairwise_similarity",
    "run_scenario",
    "sample_subgraph",
    "synthetic_small_world",
    "weights_from_relation",
    "write_communities_csv",
    "write_decision_csv",
    "write_esr_csv",
    "write_metrics_csv",
    "write_trust_trace_csv",
]
