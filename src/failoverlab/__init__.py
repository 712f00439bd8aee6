"""Simulation lab for local fast-failover routing on fully meshed networks.

Generate failover schemes, fail links (randomly or adversarially), route
traffic through what survives, and measure connectivity and load.
"""

from .adversary import (
    AttackPlan,
    BruteForceResult,
    ChainAttackResult,
    ConstructionFailedError,
    SearchSpaceTooLargeError,
    adv_ecl,
    adv_ran,
    brute_force_worst_case,
    chain_attack,
    loop_forcer,
    max_achievable_load,
    pigeonhole_attack,
    prefix_attack,
)
from .experiments import (
    ExperimentConfig,
    SummaryRow,
    TrialRecord,
    records_to_csv,
    run_sweep,
    summarize,
    summary_to_csv,
)
from .routing import (
    AllToAll,
    LoadReport,
    PathVerdict,
    SingleDest,
    Status,
    evaluate,
    route_flow,
    route_pattern,
)
from .schemes import (
    FailoverMatrix,
    Flow,
    HopRule,
    VerificationExhaustedError,
    VerifiedDraw,
    gen_dfs,
    gen_rfs,
    gen_rfs_allpairs,
    gen_rfs_verified,
)
from .topology import (
    FailureScenario,
    Link,
    Topology,
    all_links,
    incident_links,
    make_link,
)

__version__ = "0.1.0"

__all__ = [
    "AllToAll",
    "AttackPlan",
    "BruteForceResult",
    "ChainAttackResult",
    "ConstructionFailedError",
    "ExperimentConfig",
    "FailoverMatrix",
    "FailureScenario",
    "Flow",
    "HopRule",
    "Link",
    "LoadReport",
    "PathVerdict",
    "SearchSpaceTooLargeError",
    "SingleDest",
    "Status",
    "SummaryRow",
    "Topology",
    "TrialRecord",
    "VerificationExhaustedError",
    "VerifiedDraw",
    "adv_ecl",
    "adv_ran",
    "all_links",
    "brute_force_worst_case",
    "chain_attack",
    "evaluate",
    "gen_dfs",
    "gen_rfs",
    "gen_rfs_allpairs",
    "gen_rfs_verified",
    "incident_links",
    "loop_forcer",
    "make_link",
    "max_achievable_load",
    "pigeonhole_attack",
    "prefix_attack",
    "records_to_csv",
    "route_flow",
    "route_pattern",
    "run_sweep",
    "summarize",
    "summary_to_csv",
]
