"""The four benchmark workloads as lists of timed units, with output checks.

A ``Unit`` is one timed call into the library. ``units`` is how many units
of work it stands for (sweep cells, attack plans, oracle scenarios or
connectivity checks), declared up front so that a call that raises still
counts as attempted. ``text`` renders the output canonically for the pinned
sha256 digests; ``check`` returns the seed-independent invariants the output
breaks (an empty list when it is correct). Checks run outside the timed
region.

Inputs derive from the workload seed through ``random.Random(str)``, whose
string seeding is stable across processes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Any, Callable

from failoverlab import adversary, experiments, routing, schemes, topology

HopRule = schemes.HopRule


@dataclass(frozen=True)
class Unit:
    id: str
    call: Callable[[], Any]
    units: int
    text: Callable[[Any], str]
    check: Callable[[Any], list[str]]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"failoverlab-bench:{workload}:{seed}")


# ---------------------------------------------------------------- sweep

# (scheme, adversary, pattern, n, grid, trials): the paper's figure series at
# n=500 plus all-to-all at n=120.
SWEEP_SERIES = (
    ("rfs", "ecl", "single", 500, (0, 100, 200, 300, 400), 4),
    ("rob", "ecl", "single", 500, (0, 100, 200, 300, 400), 4),
    ("rfs", "ran", "single", 500, (300,), 4),
    ("bal", "ran", "all", 120, (0, 300), 2),
    ("rfs-allpairs", "ran", "all", 120, (300,), 1),
)
SWEEP_SERIES_SMALL = (
    ("rfs", "ecl", "single", 64, (0, 20, 40), 2),
    ("rob", "ecl", "single", 64, (0, 20, 40), 2),
    ("rfs", "ran", "single", 64, (40,), 2),
    ("bal", "ran", "all", 16, (0, 30), 2),
    ("rfs-allpairs", "ran", "all", 16, (30,), 1),
)


def _check_records(cfg: Any, records: list) -> list[str]:
    problems = []
    if len(records) != len(cfg.failure_grid) * cfg.trials:
        problems.append(f"{len(records)} records for {cfg.failure_grid} x {cfg.trials}")
    cells = [(phi, t) for phi in cfg.failure_grid for t in range(cfg.trials)]
    for (phi, trial), r in zip(cells, records):
        if (r.num_failures, r.trial) != (phi, trial):
            problems.append(f"record ({r.num_failures},{r.trial}) for cell ({phi},{trial})")
        if cfg.scheme.startswith("rfs") and r.loops:
            problems.append(f"rfs looped {r.loops} times at phi={phi}")
        flows = cfg.n - 1 if cfg.pattern == "single" else cfg.n * (cfg.n - 1)
        if r.loops + r.disconnected > flows or r.max_load < 0:
            problems.append(f"impossible tallies at phi={phi}")
    return problems


def sweep(seed: int, small: bool) -> list[Unit]:
    """One unit per grid point of each series: the records of a series are
    the concatenation of its grid points' records, because trial seeds do
    not depend on the grid value. Short units give each run many timings."""
    rng = _rng("sweep", seed)
    units = []
    for scheme, adv_name, pattern, n, grid, trials in (
        SWEEP_SERIES_SMALL if small else SWEEP_SERIES
    ):
        base_seed = rng.randrange(1 << 31)
        for phi in grid:
            cfg = experiments.ExperimentConfig(
                n=n,
                scheme=scheme,
                adversary=adv_name,
                pattern=pattern,
                failure_grid=(phi,),
                trials=trials,
                base_seed=base_seed,
            )
            units.append(
                Unit(
                    id=f"sweep:{scheme}/{adv_name}/n{n}/phi{phi}",
                    call=lambda cfg=cfg: experiments.run_sweep(cfg, jobs=1),
                    units=trials,
                    text=experiments.records_to_csv,
                    check=lambda records, cfg=cfg: _check_records(cfg, records),
                )
            )
    return units


# ---------------------------------------------------------------- attack

ATTACK_NS = (64, 256)
ATTACK_TARGETS = (4, 8)
ATTACK_SEEDS = 4
ATTACK_BUDGET = 64  # max_achievable_load at n=256
ATTACK_SMALL_NS = (16, 32)


def _plan(n: int, target: int, matrix_seed: int) -> Any:
    matrix = schemes.gen_rfs(n, n - 1, matrix_seed)
    return adversary.prefix_attack(matrix, n - 1, target)


def _check_plan(n: int, target: int, plan: Any) -> list[str]:
    problems = []
    if not plan.reached_target or plan.achieved_load < target:
        problems.append(f"plan reached load {plan.achieved_load} < target {target}")
    if any(n - 1 not in link for link in plan.scenario.links):
        problems.append("plan fails a link away from the destination")
    if len(plan.chosen_rows) != target:
        problems.append(f"{len(plan.chosen_rows)} rows chosen for target {target}")
    return problems


def _max_load(n: int, budget: int, matrix_seed: int) -> int:
    matrix = schemes.gen_rfs(n, n - 1, matrix_seed)
    return adversary.max_achievable_load(matrix, n - 1, budget)


def attack(seed: int, small: bool) -> list[Unit]:
    rng = _rng("attack", seed)
    seeds = [rng.randrange(1 << 31) for _ in range(ATTACK_SEEDS)]
    ns = ATTACK_SMALL_NS if small else ATTACK_NS
    units = [
        Unit(
            id=f"attack:prefix/n{n}/L{target}/s{s}",
            call=lambda n=n, target=target, s=s: _plan(n, target, s),
            units=1,
            text=lambda plan: plan.to_text(),
            check=lambda plan, n=n, target=target: _check_plan(n, target, plan),
        )
        for n in ns
        for target in ATTACK_TARGETS
        for s in seeds
    ]
    n, budget = ns[-1], ATTACK_BUDGET * ns[-1] // ATTACK_NS[-1]
    load_seed = rng.randrange(1 << 31)
    units.append(
        Unit(
            id=f"attack:max_load/n{n}/b{budget}",
            call=lambda: _max_load(n, budget, load_seed),
            units=1,
            text=str,
            check=lambda load: [] if 1 <= load <= n - 1 else [f"load {load}"],
        )
    )
    return units


# ---------------------------------------------------------------- oracle

# (scheme, n, budget, restrict_to_dst_links); "rfs" draws a seed per entry.
ORACLE_CASES = (
    ("dfs", 16, 4, True),
    ("rfs", 16, 4, True),
    ("rfs", 16, 4, True),
    ("rob", 16, 4, True),
    ("bal", 16, 4, True),
    ("dfs", 32, 3, True),
    ("rfs-allpairs", 8, 2, False),
)
ORACLE_CASES_SMALL = (
    ("dfs", 8, 3, True),
    ("rfs", 8, 3, True),
    ("rob", 8, 3, True),
    ("bal", 8, 3, True),
    ("rfs-allpairs", 6, 1, False),
)
# Worst transit load per failure-set size for dfs at n=16 (dst links only).
DFS16_ENVELOPE = {0: 0, 1: 1, 2: 2, 3: 3}


def _oracle_scheme(kind: str, n: int, scheme_seed: int) -> Any:
    if kind == "dfs":
        return schemes.gen_dfs(n, n - 1)
    if kind == "rfs":
        return schemes.gen_rfs(n, n - 1, scheme_seed)
    if kind == "rfs-allpairs":
        return schemes.gen_rfs_allpairs(n, scheme_seed)
    return HopRule.ROB if kind == "rob" else HopRule.BAL


def _oracle_text(result: Any) -> str:
    return (
        f"max_link_load={result.max_link_load}\n"
        f"max_node_load={result.max_node_load}\n"
        f"min_break_budget={result.min_break_budget}\n"
        f"scenarios_tested={result.scenarios_tested}\n"
        f"max_link_scenario:\n{result.max_link_scenario.to_text()}"
        f"max_link_report:\n{result.max_link_report.to_csv()}"
        f"max_node_scenario:\n{result.max_node_scenario.to_text()}"
    )


def _dfs16_envelope() -> dict[int, int]:
    matrix = schemes.gen_dfs(16, 15)
    return {
        k: adversary.brute_force_worst_case(matrix, 16, 15, k).max_node_load
        for k in DFS16_ENVELOPE
    }


def _scenario_count(n: int, budget: int, restrict: bool) -> int:
    """Σ C(m, k) for k <= budget, m the candidate links."""
    links = n - 1 if restrict else n * (n - 1) // 2
    return sum(comb(links, k) for k in range(budget + 1))


def _check_oracle(kind: str, n: int, budget: int, restrict: bool, result: Any) -> list[str]:
    expected = _scenario_count(n, budget, restrict)
    problems = []
    if result.scenarios_tested != expected:
        problems.append(f"tested {result.scenarios_tested} scenarios, expected {expected}")
    if kind == "rfs" and result.min_break_budget is not None:
        problems.append("an rfs matrix broke under the oracle")
    if (kind, n) == ("dfs", 16):
        envelope = _dfs16_envelope()
        if envelope != DFS16_ENVELOPE:
            problems.append(f"dfs n=16 envelope {envelope}")
    return problems


def oracle(seed: int, small: bool) -> list[Unit]:
    rng = _rng("oracle", seed)
    units = []
    for i, (kind, n, budget, restrict) in enumerate(
        ORACLE_CASES_SMALL if small else ORACLE_CASES
    ):
        scheme_seed = rng.randrange(1 << 31)

        def call(kind=kind, n=n, budget=budget, restrict=restrict, s=scheme_seed):
            scheme = _oracle_scheme(kind, n, s)
            return adversary.brute_force_worst_case(
                scheme, n, n - 1, budget, restrict_to_dst_links=restrict
            )

        units.append(
            Unit(
                id=f"oracle:{i}:{kind}/n{n}/b{budget}",
                call=call,
                units=_scenario_count(n, budget, restrict),
                text=_oracle_text,
                check=lambda r, kind=kind, n=n, b=budget, rs=restrict: _check_oracle(
                    kind, n, b, rs, r
                ),
            )
        )
    return units


# ---------------------------------------------------------------- adaptive-cut

CUT_NS = (32, 64)
CUT_SMALL_NS = (8, 16)
CHAIN_PHIS = (3, 7, 15)
C10_N = 64
C10_SMALL_N = 16
C10_MAX_PHI = 30
C10_SCENARIOS = 10
C10_SOURCES = 5


def _loop_forced(kind: str, n: int, scheme_seed: int) -> tuple:
    dst = n - 1
    scheme = _oracle_scheme(kind, n, scheme_seed)
    scenario = adversary.loop_forcer(scheme, n, dst)
    topo = topology.Topology.clique(n).with_failures(scenario)
    # The unwrapped per-flow binding: this is the benchmark's own check of
    # the victim flow, not an adversary's route query.
    verdict = routing.route_flow(scheme, topo, schemes.Flow(0, dst))
    return scenario, verdict.status, topo.mincut()


def _check_loop_forced(n: int, out: tuple) -> list[str]:
    scenario, status, mincut = out
    problems = []
    if status is routing.Status.DELIVERED:
        problems.append("loop_forcer left the victim flow delivered")
    if mincut < n // 2 - 1:
        problems.append(f"mincut {mincut} < {n // 2 - 1}")
    if scenario.phi > n - 1:
        problems.append(f"loop_forcer used {scenario.phi} > n-1 failures")
    return problems


def _chained(n: int, phi: int) -> tuple:
    result = adversary.chain_attack(HopRule.ROB, n, n - 1, phi)
    topo = topology.Topology.clique(n).with_failures(result.scenario)
    return result, topo.mincut()


def _check_chained(n: int, phi: int, out: tuple) -> list[str]:
    result, mincut = out
    problems = []
    if not result.completed:
        problems.append(f"chain attack stopped after {result.rounds_completed} rounds")
    if mincut != n - phi - 1:
        problems.append(f"chain mincut {mincut} != n-phi-1 = {n - phi - 1}")
    return problems


def _connectivity(n: int, phi: int, scenario_seed: int, sources: tuple) -> tuple:
    scenario = adversary.adv_ran(n, phi, scenario_seed)
    topo = topology.Topology.clique(n).with_failures(scenario)
    paths = tuple(topo.disjoint_paths(s, n - 1) for s in sources)
    return scenario, topo, topo.mincut(), paths


def _check_connectivity(n: int, phi: int, out: tuple) -> list[str]:
    _, topo, mincut, paths = out
    floor = n - phi - 1
    min_degree = min(topo.degree(v) for v in range(n))
    problems = []
    if mincut < floor or min(paths) < floor:
        problems.append(f"mincut {mincut} / paths {paths} below n-phi-1 = {floor}")
    if mincut != min_degree:
        problems.append(f"mincut {mincut} != minimum degree {min_degree}")
    if min(paths) < mincut:
        problems.append(f"disjoint paths {paths} below mincut {mincut}")
    return problems


def _loop_forced_text(out: tuple) -> str:
    scenario, status, mincut = out
    return f"{scenario.to_text()}status={status.value} mincut={mincut}\n"


def _chained_text(out: tuple) -> str:
    result, mincut = out
    return (
        f"{result.scenario.to_text()}rounds={result.rounds_completed} "
        f"status={result.final_status.value} mincut={mincut}\n"
    )


def _connectivity_text(out: tuple) -> str:
    scenario, _, mincut, paths = out
    return f"{scenario.to_text()}mincut={mincut} paths={list(paths)}\n"


def adaptive_cut(seed: int, small: bool) -> list[Unit]:
    rng = _rng("adaptive-cut", seed)
    ns = CUT_SMALL_NS if small else CUT_NS
    units = []
    for n in ns:
        for kind in ("rfs", "dfs", "rob", "bal"):
            s = rng.randrange(1 << 31)
            units.append(
                Unit(
                    id=f"cut:loop_forcer/{kind}/n{n}",
                    call=lambda kind=kind, n=n, s=s: _loop_forced(kind, n, s),
                    units=1,
                    text=_loop_forced_text,
                    check=lambda out, n=n: _check_loop_forced(n, out),
                )
            )
        for phi in CHAIN_PHIS:
            if phi >= n - 1:
                continue
            units.append(
                Unit(
                    id=f"cut:chain/rob/n{n}/phi{phi}",
                    call=lambda n=n, phi=phi: _chained(n, phi),
                    units=1,
                    text=_chained_text,
                    check=lambda out, n=n, phi=phi: _check_chained(n, phi, out),
                )
            )
    n = C10_SMALL_N if small else C10_N
    max_phi = min(C10_MAX_PHI, n // 2 - 1)
    for i in range(C10_SCENARIOS):
        phi = rng.randint(0, max_phi)
        s = rng.randrange(1 << 48)
        sources = tuple(rng.sample(range(n - 1), C10_SOURCES))
        units.append(
            Unit(
                id=f"cut:c10/{i}/n{n}/phi{phi}",
                call=lambda n=n, phi=phi, s=s, src=sources: _connectivity(n, phi, s, src),
                units=1,
                text=_connectivity_text,
                check=lambda out, n=n, phi=phi: _check_connectivity(n, phi, out),
            )
        )
    return units


WORKLOADS = {
    "sweep": sweep,
    "attack": attack,
    "oracle": oracle,
    "adaptive-cut": adaptive_cut,
}

# Spans that must record calls in a traced pass of each workload.
EXPECTED_SPANS = {
    "sweep": (
        "experiments.run_sweep", "experiments.run_trial", "schemes.gen_rfs",
        "schemes.gen_rfs_allpairs", "schemes.FailoverMatrix", "adversary.adv_ecl",
        "adversary.adv_ran", "routing.evaluate", "routing.route_pattern",
        "topology.Topology", "topology.FailureScenario",
    ),
    "attack": (
        "schemes.gen_rfs", "schemes.FailoverMatrix", "adversary.prefix_attack",
        "adversary.max_achievable_load", "routing.evaluate", "routing.route_pattern",
        "topology.Topology", "topology.FailureScenario",
    ),
    "oracle": (
        "schemes.gen_dfs", "schemes.gen_rfs", "schemes.gen_rfs_allpairs",
        "schemes.FailoverMatrix", "adversary.brute_force_worst_case",
        "routing.evaluate", "routing.route_pattern", "topology.Topology",
        "topology.FailureScenario",
    ),
    "adaptive-cut": (
        "schemes.gen_rfs", "schemes.gen_dfs", "schemes.FailoverMatrix",
        "adversary.loop_forcer", "adversary.chain_attack", "adversary.adv_ran",
        "routing.route_flow", "topology.Topology", "topology.FailureScenario",
        "topology.mincut", "topology.disjoint_paths", "topology.maximum_flow",
    ),
}


def warm_up() -> None:
    """One tiny call into each layer, so lazy imports and first-call costs
    land in set-up rather than in the first timed unit."""
    matrix = schemes.gen_rfs(8, 7, 0)
    scenario = adversary.adv_ran(8, 3, 0)
    topo = topology.Topology.clique(8).with_failures(scenario)
    routing.evaluate(matrix, topo, routing.SingleDest(7))
    topo.mincut()
    adversary.brute_force_worst_case(matrix, 8, 7, 1)
    cfg = experiments.ExperimentConfig(8, "rfs", "ecl", "single", (1,), 1, 0)
    experiments.run_sweep(cfg)
