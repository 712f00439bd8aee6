"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (run with ``pytest -s`` to see them inline).

Criterion 2 checks the DFS transit-load bound that follows from the
structural invariants of criterion 1: under phi failed destination links,
every node carries at most B(phi) = min(phi, max{L : L(L-1)/2 <= phi})
transit flows (derivation in ``test_c2_load_bound_via_oracle``). The
stronger L(L+1)/2 <= phi envelope quoted for the scheme does not hold for
it: a source's failed link can double as another row's prefix failure,
and a destination-valued entry shortens a prefix for free.
``test_c2_published_bound_counterexample`` pins two failed links that
already exceed it, and ``test_c2_oracle_measured_envelope`` pins the
oracle's measurements so the machinery itself stays verified.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics

import pytest

from failoverlab.adversary import (
    adv_ran,
    brute_force_worst_case,
    chain_attack,
    loop_forcer,
    pigeonhole_attack,
    prefix_attack,
)
from failoverlab.experiments import ExperimentConfig, records_to_csv, run_sweep
from failoverlab.routing import SingleDest, Status, evaluate, route_flow, route_pattern
from failoverlab.schemes import Flow, HopRule, gen_dfs, gen_rfs, gen_rfs_allpairs
from failoverlab.topology import Topology, all_links

import acceptance_config as cfg


def report(criterion: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {criterion}] {state}{suffix}")


# --------------------------------------------------------------------------
# 1. Structural invariants of the power-of-two matrix, n = 8..256.
# --------------------------------------------------------------------------


def test_c1_dfs_structure_exhaustive():
    for n in range(8, 257):
        length = int(math.log2(n))
        rows = [
            tuple((m + (1 << k)) % n for k in range(length))
            for m in range(n - 1)
        ]
        matrix = gen_dfs(n, n - 1)
        assert rows == [matrix.rows[Flow(m, n - 1)] for m in range(n - 1)]
        for k in range(length):
            column = [row[k] for row in rows]
            assert len(set(column)) == n - 1, f"n={n}: repeated entry in column {k}"
        appearances: dict[int, int] = {}
        for row in rows:
            for e in row:
                appearances[e] = appearances.get(e, 0) + 1
        assert max(appearances.values()) <= length, f"n={n}: participation bound"
        for node in range(n):
            prefixes = [
                frozenset(row[: row.index(node)]) for row in rows if node in row
            ]
            for a, b in itertools.combinations(prefixes, 2):
                assert not (a & b), f"n={n}: {node}-prefixes intersect"
    report("1 dfs-structure n=8..256", True)


# --------------------------------------------------------------------------
# 2. Load bound via exhaustive oracle, the counterexample to the stronger
#    L(L+1)/2 <= phi envelope, and the restricted-vs-unrestricted check.
# --------------------------------------------------------------------------


def _max_node_load_by_budget(n: int, budget: int) -> dict[int, int]:
    """Exhaustive max transit load per failure-set size, dst links only."""
    matrix = gen_dfs(n, n - 1)
    dst = n - 1
    candidates = [(u, dst) for u in range(n - 1)]
    worst: dict[int, int] = {}
    for k in range(budget + 1):
        best = 0
        for combo in itertools.combinations(candidates, k):
            topo = Topology(n, frozenset(combo))
            load = evaluate(matrix, topo, SingleDest(dst)).max_node_load
            best = max(best, load)
        worst[k] = best
    return worst


def _dfs_load_bound(phi: int) -> int:
    """B(phi) = min(phi, max{L : L(L-1)/2 <= phi})."""
    load = 0
    while (load + 1) * load // 2 <= phi:
        load += 1
    return min(phi, load)


def test_c2_load_bound_via_oracle():
    """Every set of phi failed destination links leaves each node with
    transit load L <= B(phi) = min(phi, max{L : L(L-1)/2 <= phi}).

    Take the L delivered flows through a node v, from sources m_1..m_L.

    1. The sources are distinct and each one's destination link is dead
       (else it delivers directly), so L <= phi.
    2. v sits at position k_i of row m_i. Every column is injective
       (criterion 1), so the k_i are distinct and sum to at least
       L(L-1)/2.
    3. With only destination links failed, every prefix entry other than
       the destination is visited, so its destination link is dead. The
       prefixes are pairwise disjoint (criterion 1), and the destination
       lies in at most one of them: at least L(L-1)/2 - 1 failures.
    4. For n a power of two, the source of the deepest row lies in no
       prefix: m_i = m_j + 2^a with a < k_j forces
       2^k_j = 2^k_i + 2^a, i.e. k_j = k_i + 1. That is one more failure,
       so L(L-1)/2 <= phi.
    """
    # Every destination link at n=8 (128 scenarios) and phi <= 6 at n=16
    # (9,949 scenarios), so that B(phi) < phi for phi >= 4.
    failures = []
    for n, budget in ((8, 7), (16, 6)):
        worst = _max_node_load_by_budget(n, budget)
        for phi, load in worst.items():
            if load > _dfs_load_bound(phi):
                failures.append(
                    f"n={n}, phi={phi}: max node load {load} > "
                    f"B(phi)={_dfs_load_bound(phi)}"
                )
    report("2 dfs-load-bound oracle", not failures, "; ".join(failures))
    assert not failures, (
        "the exhaustive oracle exceeds L <= min(phi, max{L : L(L-1)/2 <= phi}), "
        "which follows from distinct sources, injective columns, pairwise "
        "disjoint prefixes and the deepest row's source lying in no prefix: "
        + "; ".join(failures)
    )


def test_c2_published_bound_counterexample():
    # Two and three failed destination links already break L(L+1)/2 <= phi:
    # row 0 is 1, 2, 4, ..., so flows 0 and 1 both reach node 2, and row
    # n-2 starts with the destination (skipped) and then 0, 2, ...
    for n in (8, 16):
        dst = n - 1
        matrix = gen_dfs(n, dst)
        for failed, walks in (
            ({0, 1}, {(0, 1, 2, dst), (1, 2, dst)}),
            ({0, 1, n - 2}, {(0, 1, 2, dst), (1, 2, dst), (n - 2, 0, 2, dst)}),
        ):
            phi = len(failed)
            topo = Topology(n, frozenset((u, dst) for u in failed))
            verdicts = route_pattern(matrix, topo, SingleDest(dst))
            through_2 = {v.path for v in verdicts if 2 in v.path[1:-1]}
            load = evaluate(matrix, topo, SingleDest(dst)).node_load(2)
            assert through_2 == walks, f"n={n}, phi={phi}: {through_2}"
            assert load == phi
            assert load * (load + 1) // 2 > phi
            assert load <= _dfs_load_bound(phi)
    report("2 L(L+1)/2 counterexample: node 2 load phi at phi=2,3", True)


def test_c2_oracle_measured_envelope():
    # The actual worst-case envelope found by the same oracle, frozen; this
    # keeps the oracle honest next to the derived bound above.
    for n in (8, 16):
        assert _max_node_load_by_budget(n, 3) == {0: 0, 1: 1, 2: 2, 3: 3}
    report("2 oracle measured envelope {0:0,1:1,2:2,3:3}", True)


def test_c2_claim1_restricted_matches_unrestricted():
    matrix = gen_dfs(8, 7)
    restricted = brute_force_worst_case(matrix, 8, 7, budget=2)
    unrestricted = brute_force_worst_case(
        matrix, 8, 7, budget=2, restrict_to_dst_links=False
    )
    ok = restricted.max_link_load == unrestricted.max_link_load
    report(
        "2 claim1 restricted==unrestricted (n=8, budget 2)",
        ok,
        f"both {restricted.max_link_load}",
    )
    assert ok


# --------------------------------------------------------------------------
# 3. Loop-forcer reproduction at n in {8, 16, 32}.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("n", (8, 16, 32))
def test_c3_loop_forcer_breaks_all_schemes(n):
    dst = n - 1
    schemes = [(f"rfs(seed={s})", gen_rfs(n, dst, s)) for s in (0, 1, 2)]
    schemes += [("dfs", gen_dfs(n, dst)), ("rob", HopRule.ROB), ("bal", HopRule.BAL)]
    for name, scheme in schemes:
        scenario = loop_forcer(scheme, n, dst)
        assert len(scenario.links) <= n - 1, f"{name}: {len(scenario.links)} links"
        topo = Topology(n).with_failures(scenario)
        verdict = route_flow(scheme, topo, Flow(0, dst))
        assert verdict.status in (Status.LOOP, Status.DISCONNECTED), name
        assert topo.mincut() >= n // 2 - 1, f"{name}: mincut {topo.mincut()}"
    report(f"3 loop-forcer n={n} vs rfs*3/dfs/rob/bal", True)


# --------------------------------------------------------------------------
# 4. Chain attack vs the lowest-identifier rule, n=16.
# --------------------------------------------------------------------------


@pytest.mark.parametrize("phi", (3, 5, 7))
def test_c4_chain_attack_vs_rob(phi):
    n, dst = 16, 15
    result = chain_attack(HopRule.ROB, n, dst, phi)
    assert result.completed
    topo = Topology(n).with_failures(result.scenario)
    verdict = route_flow(HopRule.ROB, topo, Flow(0, dst))
    assert verdict.status is Status.DELIVERED
    final_load = evaluate(HopRule.ROB, topo, SingleDest(dst)).link_load(
        verdict.path[-2], dst
    )
    assert final_load >= phi
    assert topo.mincut() == n - phi - 1
    report(f"4 chain vs rob phi={phi}", True, f"final-link load {final_load}")


# --------------------------------------------------------------------------
# 5. Randomized-permutation loop freedom under fuzzing.
# --------------------------------------------------------------------------


def test_c5_rfs_loop_freedom_fuzz():
    n, dst = cfg.FUZZ_N, cfg.FUZZ_N - 1
    links = all_links(n)
    master = random.Random(cfg.FUZZ_MASTER_SEED)
    loops = 0
    for _ in range(cfg.FUZZ_MATRICES):
        matrix = gen_rfs(n, dst, master.randrange(1 << 48))
        for _ in range(cfg.FUZZ_SCENARIOS_PER_MATRIX):
            phi = master.randint(0, cfg.FUZZ_MAX_FAILURES)
            topo = Topology(n, frozenset(master.sample(links, phi)))
            for verdict in route_pattern(matrix, topo, SingleDest(dst)):
                if verdict.status is Status.LOOP:
                    loops += 1
    report("5 rfs loop-freedom 10^4 fuzz trials", loops == 0, f"loops={loops}")
    assert loops == 0


# --------------------------------------------------------------------------
# 6. Attack-cost lower bound for random permutations (w.h.p. statement:
#    flag a single violating seed, fail on more than one per cell).
# --------------------------------------------------------------------------


def test_c6_prefix_attack_cost_lower_bound():
    flagged = []
    for n in cfg.COST_BOUND_NS:
        for target in cfg.COST_BOUND_TARGETS:
            bound = math.ceil(target**2 / (8 * math.log2(n)))
            violations = 0
            for seed in range(cfg.COST_BOUND_SEEDS):
                matrix = gen_rfs(n, n - 1, seed)
                plan = prefix_attack(matrix, n - 1, target)
                assert plan.reached_target, (n, target, seed)
                if len(plan.scenario.links) < bound:
                    violations += 1
            if violations:
                flagged.append(
                    f"n={n} L={target}: {violations}/{cfg.COST_BOUND_SEEDS} "
                    "below bound"
                )
            assert violations <= cfg.COST_BOUND_MAX_VIOLATIONS, (
                f"n={n}, L={target}: {violations} of {cfg.COST_BOUND_SEEDS} "
                f"seeds beat the w.h.p. cost bound {bound}"
            )
    report("6 prefix-attack cost >= ceil(L^2/(8 log n))", True,
           "; ".join(flagged) if flagged else "no violations")


# --------------------------------------------------------------------------
# 7 & 8. Qualitative figure reproductions at n=500 (20 paired trials).
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def n500_sweeps():
    sweeps = {}
    for scheme, adversary in (("rfs", "ecl"), ("rob", "ecl"), ("rfs", "ran")):
        config = ExperimentConfig(
            n=cfg.N500,
            scheme=scheme,
            adversary=adversary,
            pattern="single",
            failure_grid=(cfg.N500_FAILURES,),
            trials=cfg.N500_TRIALS,
            base_seed=cfg.N500_BASE_SEED,
        )
        sweeps[(scheme, adversary)] = run_sweep(config)
    return sweeps


def test_c7_eclipse_at_300_failures(n500_sweeps):
    rfs = [r.max_load for r in n500_sweeps[("rfs", "ecl")]]
    rob = [r.max_load for r in n500_sweeps[("rob", "ecl")]]
    rfs_median = statistics.median(rfs)
    paired_wins = sum(1 for a, b in zip(rob, rfs) if a >= b)
    needed = math.ceil(cfg.ROB_WIN_MIN_FRACTION * cfg.N500_TRIALS)
    ok = rfs_median < cfg.RFS_MEDIAN_UPPER_BOUND and paired_wins >= needed
    report(
        "7 ecl@300: rfs median < 10 and rob >= rfs in >= 90% of pairs",
        ok,
        f"median={rfs_median}, rob wins {paired_wins}/{cfg.N500_TRIALS}",
    )
    assert rfs_median < cfg.RFS_MEDIAN_UPPER_BOUND
    assert paired_wins >= needed


def test_c8_random_failures_are_gentler(n500_sweeps):
    ran_median = statistics.median(
        r.max_load for r in n500_sweeps[("rfs", "ran")]
    )
    ecl_median = statistics.median(
        r.max_load for r in n500_sweeps[("rfs", "ecl")]
    )
    ok = ran_median <= ecl_median
    report("8 rfs median load: ran <= ecl", ok, f"{ran_median} <= {ecl_median}")
    assert ok


# --------------------------------------------------------------------------
# 9. Multi-destination scheme: pigeonhole attack and minimality oracle.
# --------------------------------------------------------------------------


def test_c9_pigeonhole_attack_exact_budget():
    matrix = gen_rfs_allpairs(64, cfg.ALLPAIRS_SEED_N64)
    for phi in (4, 8):
        plan = pigeonhole_attack(matrix, phi)
        assert plan.reached_target
        assert len(plan.scenario.links) == phi
        assert plan.achieved_load >= phi
    report("9 pigeonhole n=64 phi in {4,8}: load >= phi with phi links", True)


def test_c9_brute_force_minimality_at_n8():
    matrix = gen_rfs_allpairs(8, cfg.ALLPAIRS_SEED_N8)
    # No reversed row pair shares a first entry for this seed, so no single
    # (undirected) failure can redirect two flows through one node.
    for a in range(8):
        for b in range(a + 1, 8):
            assert matrix.rows[Flow(a, b)][0] != matrix.rows[Flow(b, a)][0]
    single = brute_force_worst_case(
        matrix, 8, 7, budget=1, restrict_to_dst_links=False
    )
    assert single.max_node_load < 2
    plan = pigeonhole_attack(matrix, 2)
    ok = single.max_node_load < 2 <= plan.achieved_load
    report(
        "9 brute force n=8: node load 2 needs 2 failures",
        ok,
        f"best single-failure load {single.max_node_load}",
    )
    assert len(plan.scenario.links) == 2 and plan.achieved_load >= 2


# --------------------------------------------------------------------------
# 10. Connectivity floor under random failures.
# --------------------------------------------------------------------------


def test_c10_connectivity_floor():
    n, dst = 64, 63
    rng = random.Random(cfg.CONNECTIVITY_SEED)
    for trial in range(cfg.CONNECTIVITY_TRIALS):
        phi = rng.randint(0, cfg.CONNECTIVITY_MAX_PHI)
        scenario = adv_ran(n, phi, rng.randrange(1 << 48))
        topo = Topology(n).with_failures(scenario)
        assert topo.mincut() >= n - phi - 1, f"trial {trial}"
        for src in rng.sample(range(n - 1), cfg.CONNECTIVITY_SAMPLED_SOURCES):
            assert topo.disjoint_paths(src, dst) >= n - phi - 1
    report("10 mincut and disjoint paths >= n-phi-1 (100 scenarios)", True)


# --------------------------------------------------------------------------
# 11. Replay determinism of sweeps.
# --------------------------------------------------------------------------


def test_c11_sweep_replay_byte_identical():
    config = ExperimentConfig(
        n=100,
        scheme="rfs",
        adversary="ecl",
        pattern="single",
        failure_grid=(0, 20, 50),
        trials=3,
        base_seed=4242,
    )
    first = records_to_csv(run_sweep(config)).encode()
    second = records_to_csv(run_sweep(config)).encode()
    ok = first == second
    report("11 sweep replay byte-identical", ok)
    assert ok
