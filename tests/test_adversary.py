"""Adversaries: random failure models, the constructive attacks, and the
exhaustive oracle."""

from __future__ import annotations

import random
from contextlib import contextmanager
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from failoverlab import adversary
from failoverlab.adversary import (
    AttackPlan,
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
from failoverlab.routing import AllToAll, SingleDest, Status, evaluate, route_flow
from failoverlab.schemes import (
    FailoverMatrix,
    Flow,
    HopRule,
    gen_dfs,
    gen_rfs,
    gen_rfs_allpairs,
)
from failoverlab.topology import (
    FailureScenario,
    Topology,
    all_links,
    dead_neighbours,
    incident_links,
    make_link,
)
from test_routing import manual_matrices


class TestRan:
    def test_zero_budget(self):
        assert adv_ran(10, 0, 1).links == ()

    def test_large_budget_distinct(self):
        s = adv_ran(500, 450, 3)
        assert len(s.links) == 450
        assert len(set(s.links)) == 450

    def test_over_budget_rejected(self):
        with pytest.raises(ValueError):
            adv_ran(5, 11, 0)

    def test_deterministic(self):
        assert adv_ran(30, 12, 77).links == adv_ran(30, 12, 77).links

    @pytest.mark.parametrize("n", (3, 8, 40))
    def test_draws_as_sampling_every_link(self, n):
        # random.sample copies the population into a pool when that is
        # smaller than a set of the drawn positions (half or all links
        # here), and keeps the set otherwise (phi = 1, and 21 at n = 40).
        links = all_links(n)
        for phi in sorted({0, 1, min(len(links), 21), len(links) // 2, len(links)}):
            for seed in (0, 5, 2**40 + 3):
                want = random.Random(seed).sample(links, phi)
                assert adv_ran(n, phi, seed).links == tuple(want), (phi, seed)

    def test_incidence_expectation(self):
        # Uniform sampling puts about 2*phi/n failures at any one node.
        n, phi, trials = 100, 50, 800
        hits = sum(
            sum(1 for link in adv_ran(n, phi, seed).links if n - 1 in link)
            for seed in range(trials)
        )
        assert abs(hits / trials - 2 * phi / n) < 0.15

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(3, 30), seed=st.integers(0, 2**40), frac=st.floats(0, 1))
    def test_budget_respected(self, n, seed, frac):
        phi = int(frac * n * (n - 1) // 2)
        s = adv_ran(n, phi, seed)
        assert len(s.links) == phi == s.phi


class TestEcl:
    def test_every_link_touches_destination(self):
        s = adv_ecl(500, 300, 499, 5)
        assert len(s.links) == 300
        assert all(499 in link for link in s.links)

    def test_boundary_leaves_one_direct_link(self):
        s = adv_ecl(10, 8, 9, 0)
        t = Topology(10).with_failures(s)
        assert t.degree(9) == 1

    def test_isolation_rejected(self):
        with pytest.raises(ValueError):
            adv_ecl(10, 9, 9, 0)

    @pytest.mark.parametrize("phi", (0, 1))
    def test_destination_outside_rejected(self, phi):
        with pytest.raises(ValueError, match="node 5 outside 0..2"):
            adv_ecl(3, phi, 5, 0)

    def test_deterministic(self):
        assert adv_ecl(64, 20, 63, 4).links == adv_ecl(64, 20, 63, 4).links


class TestLoopForcer:
    @pytest.mark.parametrize("n", (8, 16))
    def test_breaks_every_builtin_scheme(self, n):
        dst = n - 1
        schemes = [
            gen_rfs(n, dst, 0),
            gen_dfs(n, dst),
            HopRule.ROB,
            HopRule.BAL,
        ]
        for scheme in schemes:
            scenario = loop_forcer(scheme, n, dst)
            assert len(scenario.links) <= n - 1
            topo = Topology(n).with_failures(scenario)
            verdict = route_flow(scheme, topo, Flow(0, dst))
            assert verdict.status in (Status.LOOP, Status.DISCONNECTED)
            assert topo.mincut() >= n // 2 - 1

    def test_hop_rules_actually_loop(self):
        scenario = loop_forcer(HopRule.ROB, 8, 7)
        topo = Topology(8).with_failures(scenario)
        assert route_flow(HopRule.ROB, topo, Flow(0, 7)).status is Status.LOOP

    def test_short_rows_break_early(self):
        # The power-of-two matrix runs out of backups long before the
        # construction needs its second phase, so few links are spent.
        scenario = loop_forcer(gen_dfs(32, 31), 32, 31)
        assert len(scenario.links) < 31 // 2

    def test_replayable_step_by_step(self):
        # A fresh route over each prefix of the first-phase links delivers
        # through the node whose link to dst fails next. Once the path has
        # n//2 - 1 intermediates, the rest of the links cut its last node
        # off from every node off the path, and the flow is broken.
        for n in (10, 16):
            dst = n - 1
            flow = Flow(0, dst)
            for name, scheme in all_schemes(n, dst).items():
                links = loop_forcer(scheme, n, dst).links
                for k in range(len(links) + 1):
                    topo = Topology(n, frozenset(links[:k]))
                    path = route_flow(scheme, topo, flow).path
                    if path[-1] != dst or len(path) - 2 >= n // 2 - 1:
                        break
                    assert links[k] == make_link(path[-2], dst), (n, name, k)
                if k < len(links):
                    last, on_path = path[-2], path[:-1]
                    cut = [make_link(last, u) for u in range(n) if u not in on_path]
                    assert list(links[k:]) == cut, (n, name)
                    path = route_flow(scheme, Topology(n, frozenset(links)), flow).path
                assert path[-1] != dst, (n, name)


def ref_loop_forcer(scheme, n: int, dst: int) -> tuple:
    """``loop_forcer`` with a fresh ``Topology`` for every route query:
    (scenario, status of the final query)."""
    if dst == 0:
        raise ValueError("the victim flow runs from node 0")
    flow = Flow(0, dst)
    links: list = []

    def fail(u: int, v: int) -> None:
        link = make_link(u, v, n)
        if link not in links:
            links.append(link)

    for _ in range(n):
        verdict = route_flow(scheme, Topology(n, frozenset(links)), flow)
        if verdict.status is not Status.DELIVERED:
            return FailureScenario(n, tuple(links), "LoopForcer"), verdict.status
        if len(verdict.path) - 2 >= n // 2 - 1:
            break
        fail(verdict.path[-2], dst)
    v_k = verdict.path[-2]
    for u in range(n):
        if u != v_k and u not in verdict.path[:-1]:
            fail(v_k, u)
    final = route_flow(scheme, Topology(n, frozenset(links)), flow)
    return FailureScenario(n, tuple(links), "LoopForcer"), final.status


def ref_chain_attack(scheme, n: int, dst: int, phi: int) -> tuple:
    """``chain_attack`` with a fresh ``Topology`` for every route query:
    (scenario, rounds, final status)."""
    if not 0 < phi < n or dst == 0:
        raise ValueError("the budget must lie in 1..n-1 and dst must not be 0")
    flow = Flow(0, dst)
    links: list = []
    verdict = route_flow(scheme, Topology(n), flow)
    while len(links) < phi and verdict.status is Status.DELIVERED:
        links.append(make_link(verdict.path[-2], dst, n))
        verdict = route_flow(scheme, Topology(n, frozenset(links)), flow)
    return FailureScenario(n, tuple(links), "ChainAttack"), len(links), verdict.status


def all_schemes(n: int, dst: int) -> dict:
    """rfs, rob and bal to dst, and dfs when dst is n - 1."""
    schemes = {"rfs": gen_rfs(n, dst, n), "rob": HopRule.ROB, "bal": HopRule.BAL}
    if dst == n - 1:
        schemes["dfs"] = gen_dfs(n, dst)
    return schemes


@contextmanager
def counted_walks():
    """Count the adversaries' ``route_flow`` calls, the steps they build,
    and the row entries and hop-rule hops that their own resumed walks
    consume. The walks inside ``route_flow`` are not steps."""
    counts = {"route_flow": 0, "steppers": 0, "steps": 0}
    stepper = adversary._stepper

    def routed(*args):
        counts["route_flow"] += 1
        return route_flow(*args)

    def entries(row):
        # Pulls one entry per step, so a live row iterator stays exact.
        for e in row:
            counts["steps"] += 1
            yield e

    def counted_stepper(scheme, src, dst):
        counts["steppers"] += 1
        if isinstance(scheme, HopRule):

            def hop(*args):
                counts["steps"] += 1
                return scheme.next_hop(*args)

            return hop
        # The real matrix step, over a row that counts the entries it pulls.
        rows = {(src, dst): entries(scheme.rows[src, dst])}
        return stepper(SimpleNamespace(rows=rows), src, dst)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adversary, "route_flow", routed)
        mp.setattr(adversary, "_stepper", counted_stepper)
        yield counts


def outcome(attack, *args):
    """What ``attack(*args)`` returns, or the type of the error it raises."""
    try:
        return attack(*args)
    except (ValueError, KeyError) as exc:
        return type(exc)


class TestAdaptiveMatchesFreshTopologies:
    """The adaptive adversaries against references that route every query
    over a freshly built topology: the same scenario, rounds and status.
    Each attack resumes one walk of the victim flow with one step, so it
    never rewinds a row's cursor, makes one ``route_flow`` call, over the
    finished topology, and its own walks take at most one step per row
    entry, or one hop per node for a hop rule."""

    @staticmethod
    def check_loop_forcer(scheme, n: int, dst: int) -> None:
        expected, status = ref_loop_forcer(scheme, n, dst)
        with counted_walks() as counts:
            scenario = loop_forcer(scheme, n, dst)
        assert scenario.to_text() == expected.to_text()
        topo = Topology(n).with_failures(scenario)
        assert route_flow(scheme, topo, Flow(0, dst)).status is status
        assert status is not Status.DELIVERED
        assert (counts["route_flow"], counts["steppers"]) == (1, 1)
        assert counts["steps"] <= n

    @staticmethod
    def check_chain_attack(scheme, n: int, dst: int, phi: int) -> None:
        scenario, rounds, status = ref_chain_attack(scheme, n, dst, phi)
        with counted_walks() as counts:
            result = chain_attack(scheme, n, dst, phi)
        assert result.scenario.to_text() == scenario.to_text(), phi
        assert (result.rounds_completed, result.final_status) == (rounds, status)
        assert (counts["route_flow"], counts["steppers"]) == (1, 1)
        assert counts["steps"] <= n

    @pytest.mark.parametrize("n", (8, 16, 32, 64))
    @pytest.mark.parametrize("name", ("rfs", "dfs", "rob", "bal"))
    def test_loop_forcer(self, name, n):
        self.check_loop_forcer(all_schemes(n, n - 1)[name], n, n - 1)

    @pytest.mark.parametrize("phi", (1, 3, 7, 15))
    @pytest.mark.parametrize("n", (16, 32))
    @pytest.mark.parametrize("name", ("rfs", "dfs", "rob", "bal"))
    def test_chain_attack(self, name, n, phi):
        self.check_chain_attack(all_schemes(n, n - 1)[name], n, n - 1, phi)

    @pytest.mark.parametrize("n", (8, 16, 32, 128))
    def test_loop_forcer_at_each_destination(self, n):
        for dst in (1, n // 2, n - 1):
            for scheme in all_schemes(n, dst).values():
                self.check_loop_forcer(scheme, n, dst)

    @pytest.mark.parametrize("n", (8, 16))
    def test_chain_attack_at_every_budget(self, n):
        for dst in (1, n // 2, n - 1):
            for scheme in all_schemes(n, dst).values():
                for phi in range(1, n):
                    self.check_chain_attack(scheme, n, dst, phi)

    def test_return_to_the_path_is_a_loop(self):
        # The third round resumes at 2, and the row goes back to 1, already
        # on the path: the flow loops there, though the row offers the fresh
        # node 3 next.
        rows = {Flow(0, 4): (1, 2, 1, 3), **{Flow(s, 4): () for s in (1, 2, 3)}}
        self.check_chain_attack(FailoverMatrix(5, 4, rows), 5, 4, 4)

    @settings(max_examples=200, deadline=None)
    @given(case=manual_matrices(), phi=st.integers(0, 9), grow=st.booleans())
    def test_manual_rows(self, case, phi, grow):
        # Rows that repeat entries, hold the destination, or run out early;
        # dst may be 0, phi may fall outside 1..n-1, and n may mismatch the
        # matrix: the attacks raise what the references raise.
        matrix, _ = case
        n, dst = matrix.n + grow, matrix.dst
        want = outcome(ref_loop_forcer, matrix, n, dst)
        with counted_walks() as counts:
            got = outcome(loop_forcer, matrix, n, dst)
        if isinstance(want, type):
            assert got is want
        else:
            assert got.to_text() == want[0].to_text()
            assert (counts["route_flow"], counts["steppers"]) == (1, 1)
            assert counts["steps"] <= len(matrix.rows[Flow(0, dst)])
        want = outcome(ref_chain_attack, matrix, n, dst, phi)
        with counted_walks() as counts:
            got = outcome(chain_attack, matrix, n, dst, phi)
        if isinstance(want, type):
            assert got is want
        else:
            assert got.scenario.to_text() == want[0].to_text()
            assert (got.rounds_completed, got.final_status) == want[1:]
            assert (counts["route_flow"], counts["steppers"]) == (1, 1)
            assert counts["steps"] <= len(matrix.rows[Flow(0, dst)])


class TestPrefixAttack:
    def test_single_redirect_costs_one(self):
        m = gen_rfs(16, 15, 0)
        plan = prefix_attack(m, 15, 1)
        assert plan.reached_target
        assert len(plan.scenario.links) == 1
        src = plan.chosen_rows[0][0].src
        assert m.rows[Flow(src, 15)][0] == plan.target_w
        assert plan.scenario.links == ((min(src, 15), max(src, 15)),)

    def test_links_are_sources_plus_prefixes(self):
        m = gen_rfs(32, 31, 9)
        plan = prefix_attack(m, 31, 5)
        expected = set()
        for flow, _ in plan.chosen_rows:
            expected.add(flow.src)
            row = m.rows[flow]
            for e in row[: row.index(plan.target_w)]:
                if e != 31:
                    expected.add(e)
        assert {tuple(sorted(l)) for l in plan.scenario.links} == {
            (min(p, 31), max(p, 31)) for p in expected
        }

    def test_every_failure_is_a_destination_link(self):
        plan = prefix_attack(gen_rfs(24, 23, 1), 23, 4)
        assert all(23 in link for link in plan.scenario.links)

    def test_achieved_load_bounded_by_cost(self):
        # Each extra flow into the target needs at least one fresh failed
        # link, so the verified load never exceeds the scenario size.
        for seed in range(6):
            plan = prefix_attack(gen_rfs(20, 19, seed), 19, 6)
            assert plan.achieved_load <= len(plan.scenario.links)

    def test_deterministic_reruns(self):
        m = gen_rfs(20, 19, 5)
        assert prefix_attack(m, 19, 4) == prefix_attack(m, 19, 4)

    def test_structured_matrix_costs(self):
        # The power-of-two matrix lets consecutive sources chain: measured
        # greedy costs for targets 2 and 3 at n=16.
        m = gen_dfs(16, 15)
        assert len(prefix_attack(m, 15, 2).scenario.links) == 2
        assert len(prefix_attack(m, 15, 3).scenario.links) == 3

    def test_large_random_matrix_costs_far_exceed_whp_floor(self):
        # The w.h.p. floor at n=256, target 10 is ceil(100/64) = 2 links;
        # measured greedy costs run 18-25 across seeds.
        for seed in range(3):
            plan = prefix_attack(gen_rfs(256, 255, seed), 255, 10)
            assert plan.reached_target
            assert len(plan.scenario.links) >= 10

    def test_unreachable_target_flagged(self):
        # In the power-of-two matrix a node sits in at most log2(n) rows,
        # so a target above that is best-effort.
        m = gen_dfs(16, 15)
        plan = prefix_attack(m, 15, 9)
        assert not plan.reached_target
        assert len(plan.chosen_rows) <= 4

    def test_requires_single_dest(self):
        # A hop rule is refused as cleanly as an all-pairs matrix, by the
        # greedy planner in both of its modes.
        for scheme in (gen_rfs_allpairs(8, 0), HopRule.ROB, HopRule.BAL):
            for attack in (prefix_attack, max_achievable_load):
                with pytest.raises(
                    ValueError, match="prefix attack needs a single-destination"
                ):
                    attack(scheme, 7, 2)

    @pytest.mark.parametrize("attack", [prefix_attack, max_achievable_load])
    def test_missing_row_raises_before_planning(self, monkeypatch, attack):
        def no_plan(*args, **kwargs):
            raise AssertionError("the planner ran before the input was checked")

        monkeypatch.setattr(adversary, "_best_target", no_plan)
        rows = {Flow(s, 4): (s + 1,) for s in range(3)}  # no row for source 3
        with pytest.raises(KeyError, match="no row"):
            attack(FailoverMatrix(5, 4, rows), 4, 2)

    def test_target_range_validated(self):
        with pytest.raises(ValueError):
            prefix_attack(gen_rfs(8, 7, 0), 7, 0)

    def test_report_text(self):
        plan = prefix_attack(gen_dfs(16, 15), 15, 2)
        text = plan.to_text()
        assert text.startswith(f"target_w={plan.target_w}\n")
        assert "reached_target=true" in text
        assert "rows:" in text and "failures:" in text


class TestMaxAchievableLoad:
    def test_zero_budget(self):
        assert max_achievable_load(gen_rfs(12, 11, 0), 11, 0) == 0

    def test_monotone_in_budget(self):
        m = gen_rfs(24, 23, 2)
        loads = [max_achievable_load(m, 23, b) for b in (1, 4, 9, 16)]
        assert loads == sorted(loads)
        assert loads[0] >= 1

    def test_n256_pinned(self):
        # Computed with the per-target planner that rescanned every row each
        # round, which took about 78 s for the full budget.
        m = gen_rfs(256, 255, 0)
        assert max_achievable_load(m, 255, 64) == 17
        assert max_achievable_load(m, 255, 255) == 254

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            max_achievable_load(gen_rfs(12, 11, 0), 11, -5)

    def test_full_budget_reaches_everyone(self):
        # Failing every other destination link funnels all flows through
        # the one surviving relay.
        m = gen_rfs(10, 9, 4)
        assert max_achievable_load(m, 9, 9) == 8


# Slow reference planners: a per-node index of (prefix length, flow, node
# set) and the per-target greedy that rescans every row each round, which
# the cost-matrix planner replaced, kept in behaviour. The node set
# {src, *prefix} is an int bitmask, so a row's cost is one popcount against
# the failed-set mask.


def _ref_walk(row, src, dst):
    """The row's entries as the router takes them with every destination
    link down: it skips dst and the current node (the last entry taken, or
    src), and a hop back to a node already visited is a loop."""
    visited = [src]
    for e in row:
        if e == dst or e == visited[-1]:
            continue
        if e in visited:
            return
        visited.append(e)
        yield e


def _ref_prefix_index(matrix, dst):
    index = {}
    for flow in matrix.flows():
        prefix = []
        mask = 1 << flow.src
        for e in _ref_walk(matrix.rows[flow], flow.src, dst):
            index.setdefault(e, []).append((len(prefix), flow, mask))
            prefix.append(e)
            mask |= 1 << e
    for entries in index.values():
        entries.sort(key=lambda item: (item[0], item[1]))
    return index


def _ref_greedy(candidates, max_rows=None, budget=None):
    failed = 0  # bitmask of the nodes whose destination links fail
    chosen = []
    taken = set()
    while max_rows is None or len(chosen) < max_rows:
        n_failed = failed.bit_count()
        best_key = best = None
        for length, flow, mask in candidates:
            if flow in taken:
                continue
            if best_key is not None and length + 1 - n_failed > best_key[0]:
                break
            key = ((mask & ~failed).bit_count(), flow.src, flow.dst)
            if best_key is None or key < best_key:
                best_key, best = key, (flow, length, mask)
        if best is None:
            break
        if budget is not None and n_failed + best_key[0] > budget:
            break
        flow, length, mask = best
        failed |= mask
        taken.add(flow)
        chosen.append((flow, length))
    return chosen, failed.bit_count()


def _ref_best(matrix, dst, max_rows=None, budget=None):
    index = _ref_prefix_index(matrix, dst)
    best = None
    for w in range(matrix.n):
        if w == dst:
            continue
        chosen, cost = _ref_greedy(index.get(w, ()), max_rows, budget)
        key = (-len(chosen), cost, w)
        if best is None or key < best[0]:
            best = (key, w, chosen)
    return best[1], best[2]


def _ref_strict_prefix(row, src, dst, w):
    prefix = []
    for e in _ref_walk(row, src, dst):
        if e == w:
            break
        prefix.append(e)
    return prefix


def _ref_verify(matrix, dst, w, chosen):
    links = []
    for flow, _ in chosen:
        nodes = [flow.src, *_ref_strict_prefix(matrix.rows[flow], flow.src, dst, w)]
        for p in nodes:
            link = make_link(p, dst, matrix.n)
            if link not in links:
                links.append(link)
    scenario = FailureScenario(matrix.n, tuple(links), "PrefixAttack")
    topo = Topology.clique(matrix.n).with_failures(scenario)
    return scenario, evaluate(matrix, topo, SingleDest(dst)).node_load(w)


def ref_prefix_attack(matrix, dst, target_load):
    w, chosen = _ref_best(matrix, dst, max_rows=target_load)
    scenario, achieved = _ref_verify(matrix, dst, w, chosen)
    prefix_nodes = {
        e
        for flow, _ in chosen
        for e in _ref_strict_prefix(matrix.rows[flow], flow.src, dst, w)
    }
    return AttackPlan(
        target_w=w,
        chosen_rows=tuple(chosen),
        total_prefix_distinct=len(prefix_nodes),
        scenario=scenario,
        achieved_load=achieved,
        reached_target=len(chosen) >= target_load and achieved >= target_load,
    )


def ref_max_achievable_load(matrix, dst, budget):
    if budget <= 0:
        return 0
    w, chosen = _ref_best(matrix, dst, budget=budget)
    return _ref_verify(matrix, dst, w, chosen)[1] if chosen else 0


def assert_planners_match_reference(matrix, dst, targets, budgets):
    for target in targets:
        assert (
            prefix_attack(matrix, dst, target).to_text()
            == ref_prefix_attack(matrix, dst, target).to_text()
        ), target
    for budget in budgets:
        assert max_achievable_load(matrix, dst, budget) == ref_max_achievable_load(
            matrix, dst, budget
        ), budget


@st.composite
def messy_single_dest_matrices(draw):
    """Manual matrices whose rows repeat entries and hold the destination;
    every row holds at least one of the two. The router skips the
    destination and an entry equal to the current node, and a hop back to a
    node already visited is a loop."""
    n = draw(st.integers(4, 10))
    dst = draw(st.integers(0, n - 1))
    rows = {}
    for src in range(n):
        if src == dst:
            continue
        others = [v for v in range(n) if v != src]
        row = draw(st.lists(st.sampled_from(others), max_size=2 * n))
        extra = draw(st.sampled_from([dst, *others]))
        at = draw(st.integers(0, len(row)))
        rows[Flow(src, dst)] = (*row[:at], extra, *row[at:], extra)
    return FailoverMatrix(n, dst, rows)


def single_dest(n, rows):
    """A Manual matrix to destination n-1; sources missing from ``rows``
    get empty rows."""
    flows = (Flow(s, n - 1) for s in range(n - 1))
    return FailoverMatrix(n, n - 1, {f: rows.get(f.src, ()) for f in flows})


def reference_index(matrix, dst, flows, depth):
    """Each row's head and the ``deep`` flags of ``_shallow_index``, read off
    every row's full ``_dst_down_walk``: w is deep when some walk longer
    than ``depth`` holds w neither in its head nor as its source."""
    n = matrix.n
    dead = dead_neighbours(incident_links(n, dst))
    heads, deep = [], [False] * n
    for f in flows:
        walk = adversary._dst_down_walk(matrix, n, dead, f.src, dst)
        heads.append(tuple(walk[:depth]))
        if len(walk) > depth:
            for w in set(range(n)) - {f.src, *walk[:depth]}:
                deep[w] = True
    return heads, deep


def assert_index_covers_walks(matrix, flows, depth, exact):
    """The heads are the walks' heads. A row whose head is its walk is read
    whole, so a row that stops or loops below the depth may flag nodes its
    walk never reaches: ``deep`` means "may hold", and matches the walks
    exactly only when every row is its walk."""
    heads, *_, deep = adversary._shallow_index(matrix, matrix.dst, flows, depth)
    ref_heads, ref_deep = reference_index(matrix, matrix.dst, flows, depth)
    assert [tuple(head) for head in heads] == ref_heads
    if exact:
        assert deep.tolist() == ref_deep
    else:
        assert all(d or not r for d, r in zip(deep, ref_deep))


def docstring_deep(matrix, flows, depth):
    """``deep`` as ``_shallow_index``'s docstring defines it, over the rows
    as the planner reads them: w is deep when some row longer than
    ``depth`` holds w neither in its head nor as its source. The planner
    reads a row as it is when its first ``depth`` entries are distinct and
    avoid the source and the destination, and reads the row's
    ``_dst_down_walk`` otherwise."""
    n, dst = matrix.n, matrix.dst
    dead = dead_neighbours(incident_links(n, dst))
    deep = [False] * n
    for f in flows:
        row = matrix.rows[f]
        head = row[:depth]
        if len({f.src, dst, *head}) != len(head) + 2:
            row = adversary._dst_down_walk(matrix, n, dead, f.src, dst)
            head = row[:depth]
        if len(row) > depth:
            for w in set(range(n)) - {f.src, *head}:
                deep[w] = True
    return deep


class TestShallowIndex:
    """``_shallow_index``'s heads and ``deep`` flags against every row's walk
    with all destination links down."""

    @pytest.mark.parametrize(
        "matrix, exact",
        [(gen_rfs(8, 7, 3), True), (gen_rfs(9, 2, 4), True), (gen_dfs(16, 15), False)],
        ids=["rfs-8", "rfs-9-dst-2", "dfs-16"],
    )
    def test_generated_rows(self, matrix, exact):
        # An rfs row is its walk. A dfs row that ends at the destination
        # walks one node less.
        flows = matrix.flows()
        for depth in range(1, matrix.n):
            # All rows, then each row alone: a lone row longer than the
            # depth makes every node deep but its source and its head.
            for part in (flows, *([f] for f in flows)):
                assert_index_covers_walks(matrix, part, depth, exact)

    @settings(max_examples=60, deadline=None)
    @given(matrix=messy_single_dest_matrices(), data=st.data())
    def test_manual_rows(self, matrix, data):
        flows = matrix.flows()
        part = data.draw(st.lists(st.sampled_from(flows), min_size=1, unique=True))
        depth = data.draw(st.integers(1, 2 * matrix.n))
        assert_index_covers_walks(matrix, part, depth, exact=False)

    @pytest.mark.parametrize(
        "matrix", [gen_rfs(8, 7, 3), gen_rfs(9, 2, 4), gen_dfs(16, 15)],
        ids=["rfs-8", "rfs-9-dst-2", "dfs-16"],
    )
    def test_deep_as_documented_on_generated_rows(self, matrix):
        flows = matrix.flows()
        for depth in range(1, matrix.n):
            for part in (flows, flows[::2], flows[-1:]):
                deep = adversary._shallow_index(matrix, matrix.dst, part, depth)[-1]
                assert deep.tolist() == docstring_deep(matrix, part, depth)

    @settings(max_examples=60, deadline=None)
    @given(matrix=messy_single_dest_matrices(), data=st.data())
    def test_deep_as_documented_on_rows_that_repeat_entries(self, matrix, data):
        flows = matrix.flows()
        part = data.draw(st.lists(st.sampled_from(flows), min_size=1, unique=True))
        depth = data.draw(st.integers(1, 2 * matrix.n))
        deep = adversary._shallow_index(matrix, matrix.dst, part, depth)[-1]
        assert deep.tolist() == docstring_deep(matrix, part, depth)


class TestPlannersMatchReference:
    @pytest.mark.parametrize("n", (8, 16, 32, 64, 128))
    def test_rfs(self, n):
        targets = sorted({min(t, n - 1) for t in (1, 2, 4, 8, 12, 16)})
        budgets = (0, 1, 3, n // 4, n // 2, n - 1)
        # One seed at n=128 keeps the reference's full-budget run near 1 s.
        for seed in range(3 if n < 128 else 1):
            assert_planners_match_reference(
                gen_rfs(n, n - 1, seed), n - 1, targets, budgets
            )

    @pytest.mark.parametrize("n", (8, 16, 32))
    def test_dfs(self, n):
        assert_planners_match_reference(
            gen_dfs(n, n - 1), n - 1, range(1, n), range(n)
        )

    @settings(max_examples=60, deadline=None)
    @given(matrix=messy_single_dest_matrices())
    def test_manual_rows_with_destination_and_repeats(self, matrix):
        n, dst = matrix.n, matrix.dst
        assert_planners_match_reference(matrix, dst, range(1, n), range(n))

    def test_decrements_split_into_small_chunks(self, monkeypatch):
        monkeypatch.setattr(adversary, "_CHUNK", 3)
        assert_planners_match_reference(
            gen_rfs(32, 31, 5), 31, (1, 4, 8, 16), (3, 8, 16, 31)
        )

    @staticmethod
    def count_passes(monkeypatch):
        passes = []
        index = adversary._shallow_index

        def counted(matrix, dst, flows, depth):
            passes.append(depth)
            return index(matrix, dst, flows, depth)

        monkeypatch.setattr(adversary, "_shallow_index", counted)
        return passes

    def test_second_pass_when_first_depth_is_too_shallow(self, monkeypatch):
        # Only target 8 sits in two rows. After row 0 its next two rows tie
        # at cost 4: row 5 above the first depth 2L = 4 and row 1, which
        # holds it at position 4, below. So the target leaves the first
        # pass, which ends with one row for every other target, and the
        # second pass, at depth 8, takes row 1: its source is smaller.
        rows = {0: (8,), 1: (0, 2, 3, 4, 8), 5: (10, 11, 12, 8)}
        m = single_dest(16, rows)
        passes = self.count_passes(monkeypatch)
        plan = prefix_attack(m, 15, 2)
        assert passes == [4, 8]
        assert plan.target_w == 8
        assert plan.chosen_rows == ((Flow(0, 15), 0), (Flow(1, 15), 4))
        assert_planners_match_reference(m, 15, range(1, 16), range(16))

    def test_pass_rejected_when_the_best_exceeds_the_depth(self, monkeypatch):
        # Every row longer than the depth 4 holds target 7 in its head, so
        # it plans exactly in the first pass: 2 + 4 = 6 failures, past the
        # depth. Target 8 left that pass after row 0, and its second row
        # (row 1, position 4) costs 4 more: 5 failures, which wins.
        rows = {0: (8,), 1: (0, 2, 3, 7, 8), 10: (11, 7)}
        m = single_dest(16, rows)
        passes = self.count_passes(monkeypatch)
        plan = prefix_attack(m, 15, 2)
        assert passes == [4, 8]
        assert plan.target_w == 8
        assert len(plan.scenario.links) == 5
        assert_planners_match_reference(m, 15, range(1, 16), range(16))

    def test_second_pass_on_a_random_matrix(self, monkeypatch):
        # At n=64, seed 0 the cheapest eight rows cost 17 > 2L = 16 failures.
        passes = self.count_passes(monkeypatch)
        plan = prefix_attack(gen_rfs(64, 63, 0), 63, 8)
        assert passes == [16, 32]
        assert len(plan.scenario.links) == 17
        assert_planners_match_reference(gen_rfs(64, 63, 0), 63, (8,), ())

    def test_target_dropped_when_its_next_pick_lies_below_the_depth(
        self, monkeypatch
    ):
        # At depth 4, target 8 takes row 0 and then has only row 1 left,
        # which holds it at position 5: any second row would take it past
        # 4 failures, so it leaves the pass. Target 7 takes rows 2 and 0 at
        # 3 failures, which no target that left can beat: one pass.
        rows = {0: (8, 7), 1: (2, 3, 4, 5, 6, 8), 2: (7,)}
        m = single_dest(10, rows)
        passes = self.count_passes(monkeypatch)
        plan = prefix_attack(m, 9, 2)
        assert passes == [4]
        assert plan.target_w == 7
        assert plan.chosen_rows == ((Flow(2, 9), 0), (Flow(0, 9), 1))
        assert_planners_match_reference(m, 9, range(1, 10), range(10))

    @pytest.mark.parametrize(
        "matrix", (gen_dfs(16, 15), gen_rfs(16, 15, 3)), ids=("dfs", "rfs")
    )
    def test_budget_larger_than_the_longest_row(self, matrix):
        assert_planners_match_reference(matrix, 15, (), (15, 16, 20, 40, 1000))

    def test_rows_shorter_than_the_depth(self):
        # Rows of every length from 0 to n-2; at L=4 the depth is 8.
        rows = {s: tuple(v for v in range(11) if v != s)[:s] for s in range(11)}
        m = single_dest(12, rows)
        assert_planners_match_reference(m, 11, range(1, 12), range(12))

    def test_repeat_and_destination_past_the_depth(self):
        # Every row's first two entries (depth 2, L=1) are clean, and rows 1
        # and 2 stay clean to depth 4 (L=2): their repeats, where the walk
        # loops, and the destination, which the router skips, come later.
        rows = {
            0: (3, 4, 5, 3, 11, 6, 4),
            1: (3, 5, 4, 6, 11, 3, 7),
            2: (4, 5, 6, 7, 8, 4, 11, 9),
            3: (5, 6, 5, 11, 4),
        }
        m = single_dest(12, rows)
        assert_planners_match_reference(m, 11, range(1, 12), range(12))

    def test_free_later_pick(self):
        # For target 5 the greedy takes row 2 (cost 1), then row 0 (fails 0
        # and 1), after which row 1's source and prefix have both failed:
        # its pick costs 0 and fits a budget of 3 exactly. At budget 2,
        # target 0 wins with rows 1 and 5 instead.
        rows = {0: (1, 5), 1: (0, 5), 2: (5,), 3: (4,), 4: (3,), 5: (0,)}
        m = FailoverMatrix(7, 6, {Flow(s, 6): row for s, row in rows.items()})
        plan = prefix_attack(m, 6, 3)
        assert plan.target_w == 5
        assert plan.chosen_rows == ((Flow(2, 6), 0), (Flow(0, 6), 1), (Flow(1, 6), 1))
        assert len(plan.scenario.links) == 3 and plan.achieved_load == 3
        assert max_achievable_load(m, 6, 3) == 3
        assert max_achievable_load(m, 6, 2) == 2
        assert_planners_match_reference(m, 6, range(1, 7), range(7))

    def test_repeat_after_another_entry(self):
        # Row 0 walks 0, 2, 5 and loops on its second 2, so it never reaches
        # node 1. Read with the repeat dropped, it holds 1 at position 2: a
        # plan on that reading overloads 1 with two flows at budget 4, where
        # the oracle finds three.
        rows = {
            0: (2, 2, 5, 2, 1),
            1: (5,),
            2: (1, 4, 5, 3),
            3: (2, 4, 2, 5),
            4: (0, 3, 5, 1),
            5: (4, 1, 3, 0),
        }
        m = single_dest(7, rows)
        plan = prefix_attack(m, 6, 3)
        assert (plan.target_w, plan.achieved_load, plan.reached_target) == (4, 3, True)
        assert Flow(0, 6) not in dict(plan.chosen_rows)
        loads = tuple(max_achievable_load(m, 6, b) for b in range(7))
        assert loads == (0, 1, 2, 2, 3, 4, 4)
        assert loads == tuple(
            brute_force_worst_case(m, 7, 6, b).max_node_load for b in range(7)
        )
        assert_planners_match_reference(m, 6, range(1, 7), range(7))

    @settings(max_examples=60, deadline=None)
    @given(matrix=messy_single_dest_matrices())
    def test_chosen_rows_reach_the_target(self, matrix):
        n, dst = matrix.n, matrix.dst
        for target in range(1, n):
            plan = prefix_attack(matrix, dst, target)
            topo = Topology.clique(n).with_failures(plan.scenario)
            for flow, k in plan.chosen_rows:
                verdict = route_flow(matrix, topo, flow)
                assert verdict.status is Status.DELIVERED, (target, flow)
                assert len(verdict.path) == k + 3, (target, flow)
                assert verdict.path[0] == flow.src
                assert verdict.path[-2:] == (plan.target_w, dst), (target, flow)


class TestChainAttack:
    def test_rob_loads_final_link(self):
        result = chain_attack(HopRule.ROB, 16, 15, 5)
        assert result.completed
        assert len(result.scenario.links) == 5
        assert all(15 in link for link in result.scenario.links)
        topo = Topology(16).with_failures(result.scenario)
        verdict = route_flow(HopRule.ROB, topo, Flow(0, 15))
        report = evaluate(HopRule.ROB, topo, SingleDest(15))
        assert report.link_load(verdict.path[-2], 15) >= 5
        assert topo.mincut() == 16 - 5 - 1

    def test_rfs_resists(self):
        # Per-source rows do not share reroutes, so the final link stays
        # lightly loaded (measured 2-3 across seeds at this size).
        m = gen_rfs(16, 15, 0)
        result = chain_attack(m, 16, 15, 5)
        topo = Topology(16).with_failures(result.scenario)
        verdict = route_flow(m, topo, Flow(0, 15))
        report = evaluate(m, topo, SingleDest(15))
        assert report.link_load(verdict.path[-2], 15) < 5

    def test_short_rows_flagged(self):
        result = chain_attack(gen_dfs(16, 15), 16, 15, 7)
        assert not result.completed
        assert result.broke_scheme
        assert result.final_status is Status.DISCONNECTED
        assert result.rounds_completed < 7

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            chain_attack(HopRule.ROB, 8, 7, 8)

    @pytest.mark.parametrize("dst", (-1, 8))
    def test_all_pairs_victim_outside_the_clique_raises(self, dst):
        # As for a hop rule: a ValueError, not the all-pairs matrix's missing row.
        matrix = gen_rfs_allpairs(8, 0)
        with pytest.raises(ValueError, match="outside 0..7"):
            chain_attack(matrix, 8, dst, 2)
        with pytest.raises(ValueError, match="outside 0..7"):
            loop_forcer(matrix, 8, dst)
        with pytest.raises(ValueError, match="outside 0..7"):
            route_flow(matrix, Topology(8), Flow(0, dst))


class TestPigeonholeAttack:
    def test_target_is_most_frequent_first_entry(self):
        m = gen_rfs_allpairs(16, 7)
        plan = pigeonhole_attack(m, 5)
        counts: dict[int, int] = {}
        for row in m.rows.values():
            counts[row[0]] = counts.get(row[0], 0) + 1
        assert counts[plan.target_w] == max(counts.values())
        # Pigeonhole over n(n-1) rows and n slots.
        assert counts[plan.target_w] >= 15

    def test_load_meets_budget_with_exact_links(self):
        plan = pigeonhole_attack(gen_rfs_allpairs(16, 7), 5)
        assert plan.reached_target
        assert len(plan.scenario.links) == 5
        assert plan.achieved_load >= 5

    def test_chosen_rows_start_with_target(self):
        m = gen_rfs_allpairs(12, 3)
        plan = pigeonhole_attack(m, 4)
        for flow, prefix_len in plan.chosen_rows:
            assert prefix_len == 0
            assert m.rows[flow][0] == plan.target_w

    def test_single_dest_rejected(self):
        for scheme in (gen_rfs(8, 7, 0), HopRule.ROB, HopRule.BAL):
            with pytest.raises(ValueError, match="needs an all-pairs matrix"):
                pigeonhole_attack(scheme, 2)

    def test_missing_row_raises_before_planning(self, monkeypatch):
        def no_plan(*args, **kwargs):
            raise AssertionError("the attack routed before the input was checked")

        monkeypatch.setattr(adversary, "evaluate", no_plan)
        rows = dict(gen_rfs_allpairs(6, 2).rows)
        del rows[Flow(3, 1)]
        with pytest.raises(KeyError, match="no row"):
            pigeonhole_attack(FailoverMatrix(6, None, rows), 2)

    def test_manual_rows_count_first_hops(self):
        # An empty row has no first hop, and the router skips a row's own
        # destination, so neither row counts its first entry.
        rows = dict(gen_rfs_allpairs(6, 2).rows)
        rows[Flow(0, 1)] = ()
        rows[Flow(0, 2)] = (2, *rows[Flow(0, 2)])
        m = FailoverMatrix(6, None, rows)
        plan = pigeonhole_attack(m, 3)
        first_hops = {
            flow: next(e for e in row if e != flow.dst)
            for flow, row in rows.items()
            if flow != Flow(0, 1)
        }
        counts: dict[int, int] = {}
        for first in first_hops.values():
            counts[first] = counts.get(first, 0) + 1
        assert plan.target_w == min(counts, key=lambda v: (-counts[v], v))
        for flow, _ in plan.chosen_rows:
            assert first_hops[flow] == plan.target_w
        assert plan.reached_target

    def test_no_backup_hop_rejected(self):
        flows = [Flow(s, d) for s in range(4) for d in range(4) if s != d]
        rows = {flow: (flow.dst,) if flow.src else () for flow in flows}
        with pytest.raises(ValueError, match="backup hop"):
            pigeonhole_attack(FailoverMatrix(4, None, rows), 2)

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            pigeonhole_attack(gen_rfs_allpairs(8, 0), 8)


class TestBruteForce:
    def test_zero_budget_baseline(self):
        result = brute_force_worst_case(gen_rfs(8, 7, 0), 8, 7, budget=0)
        assert result.max_link_load == 1
        assert result.max_node_load == 0
        assert result.scenarios_tested == 1

    def test_cap_refusal(self):
        with pytest.raises(SearchSpaceTooLargeError, match="cap"):
            brute_force_worst_case(
                gen_rfs(40, 39, 0), 40, 39, budget=12,
                restrict_to_dst_links=False, cap=1000,
            )

    def test_restricted_matches_unrestricted_small(self):
        for matrix in (gen_dfs(8, 7), gen_rfs(8, 7, 3)):
            restricted = brute_force_worst_case(matrix, 8, 7, budget=2)
            unrestricted = brute_force_worst_case(
                matrix, 8, 7, budget=2, restrict_to_dst_links=False
            )
            assert restricted.max_link_load == unrestricted.max_link_load

    def test_dfs_break_budget(self):
        # Destination-link failures strand a power-of-two row only once
        # its source link plus every usable entry is gone: 3 links at n=8.
        result = brute_force_worst_case(gen_dfs(8, 7), 8, 7, budget=3)
        assert result.min_break_budget == 3

    @pytest.mark.parametrize(
        "scheme, n, dst, budget, message",
        [
            (gen_dfs(8, 7), 8, 7, -1, "budget"),
            (HopRule.ROB, 8, 8, 1, "destination 8 outside"),
            (HopRule.BAL, 8, -1, 1, "destination -1 outside"),
            (gen_rfs(8, 7, 0), 9, 7, 1, "matrix n=8"),
            (gen_rfs(8, 7, 0), 8, 6, 1, "destination 7, not 6"),
        ],
    )
    def test_bad_input_rejected_before_any_scenario(
        self, monkeypatch, scheme, n, dst, budget, message
    ):
        import failoverlab.adversary as adversary

        def no_scenario(*args, **kwargs):
            raise AssertionError("a scenario ran before the input was checked")

        monkeypatch.setattr(adversary, "_walk_path", no_scenario)
        monkeypatch.setattr(adversary, "evaluate", no_scenario)
        with pytest.raises(ValueError, match=message):
            brute_force_worst_case(scheme, n, dst, budget)

    def test_missing_row_raises_before_any_set_is_scored(self):
        rows = {Flow(s, 4): (s + 1,) for s in range(3)}  # no row for source 3
        with pytest.raises(KeyError, match="no row"):
            brute_force_worst_case(FailoverMatrix(5, 4, rows), 5, 4, budget=2)

    def test_pattern_for_another_destination_raises(self):
        with pytest.raises(ValueError, match="does not match pattern"):
            brute_force_worst_case(
                gen_rfs(8, 7, 0), 8, 7, budget=2, pattern=SingleDest(6)
            )

    def test_all_pairs_pattern_outside_the_clique_raises(self, monkeypatch):
        def no_scenario(*args, **kwargs):
            raise AssertionError("a scenario ran before the input was checked")

        monkeypatch.setattr(adversary, "_walk_path", no_scenario)
        monkeypatch.setattr(adversary, "evaluate", no_scenario)
        with pytest.raises(ValueError, match=r"link \(0,9\) has an endpoint outside"):
            brute_force_worst_case(
                gen_rfs_allpairs(8, 0), 8, 7, 1, pattern=SingleDest(9)
            )

    @pytest.mark.parametrize(
        "scheme, pattern, budget",
        [
            (gen_dfs(8, 7), SingleDest(7), 0),
            (gen_dfs(8, 7), SingleDest(7), 2),
            (gen_rfs_allpairs(8, 1), AllToAll(), 0),
            (gen_rfs_allpairs(8, 1), AllToAll(), 2),
        ],
        ids=["single-empty", "single", "all-empty", "all"],
    )
    def test_routes_the_winner_once(self, monkeypatch, scheme, pattern, budget):
        # The empty set is scored without a route; only the link-load
        # winner, empty or not, goes through evaluate for its report.
        calls = []

        def counted(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(adversary, "evaluate", counted)
        result = brute_force_worst_case(scheme, 8, 7, budget, pattern=pattern)
        assert len(calls) == 1
        assert result.max_link_report.max_load == result.max_link_load
        if budget:
            assert result.max_link_scenario.links
        else:
            # Every flow goes direct: one per link, two under AllToAll.
            direct = 1 if isinstance(pattern, SingleDest) else 2
            assert result.max_link_load == direct
            assert result.max_node_load_by_size == (0,)

    def test_winner_report_is_reproducible(self):
        result = brute_force_worst_case(gen_dfs(16, 15), 16, 15, budget=2)
        topo = Topology(16).with_failures(result.max_link_scenario)
        report = evaluate(gen_dfs(16, 15), topo, SingleDest(15))
        assert report.max_load == result.max_link_load


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(4, 24), seed=st.integers(0, 2**40), frac=st.floats(0, 1)
)
def test_scenarios_have_no_duplicates_and_fit_budget(n, seed, frac):
    phi = int(frac * (n - 2))
    for scenario in (adv_ran(n, phi, seed), adv_ecl(n, phi, n - 1, seed)):
        assert len(scenario.links) == len(set(scenario.links)) == phi
