"""Routing semantics: cursor walks, hop-rule walks, and load accounting.

``naive_cursor_walk`` and ``naive_hop_walk`` re-implement the row and the
hop-rule semantics from scratch (no shared code with the package) and serve
as the equivalence oracles at small sizes.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from failoverlab import routing
from failoverlab.adversary import (
    _BATCH,
    BruteForceResult,
    _combinations,
    _LinkWalks,
    _PrefixWalks,
    brute_force_worst_case,
    chain_attack,
)
from failoverlab.routing import (
    AllToAll,
    SingleDest,
    Status,
    evaluate,
    pattern_flows,
    route_flow,
    route_pattern,
)
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
)


def naive_cursor_walk(row, src, dst, failed_pairs):
    """Straight-line reference interpreter for the cursor semantics."""
    failed = {frozenset(p) for p in failed_pairs}
    where = src
    walked = [src]
    index = 0
    while True:
        if frozenset((where, dst)) not in failed:
            walked.append(dst)
            return "delivered", walked
        step = None
        while index < len(row):
            entry = row[index]
            index += 1
            if entry in (src, dst, where):
                continue
            if frozenset((where, entry)) in failed:
                continue
            step = entry
            break
        if step is None:
            return "disconnected", walked
        walked.append(step)
        where = step


def naive_hop_walk(rule, src, dst, n, failed_pairs):
    """Straight-line reference interpreter for the hop rules ``"bal"`` and
    ``"rob"``: a node whose link to dst failed scans upward mod n from the
    rule's first candidate for another node it still has a link to. The walk
    stops at the first node it reaches twice."""
    failed = {frozenset(p) for p in failed_pairs}
    where = src
    walked = [src]
    while True:
        if frozenset((where, dst)) not in failed:
            walked.append(dst)
            return "delivered", walked
        if rule == "bal":
            first = where + dst + 1 if where > dst else where - dst + 1
        else:
            first = where + 1
        live = [
            c
            for c in ((first + k) % n for k in range(n))
            if c != where and frozenset((where, c)) not in failed
        ]
        if not live:
            return "disconnected", walked
        walked.append(live[0])
        if live[0] in walked[:-1]:
            return "loop", walked
        where = live[0]


def small_failure_sets(n):
    """Every set of at most two failed links on the n-clique."""
    links = all_links(n)
    return [c for k in (0, 1, 2) for c in itertools.combinations(links, k)]


class TestMatrixRouting:
    def test_no_failures_direct(self):
        m = gen_rfs(8, 7, 0)
        t = Topology(8)
        for src in range(7):
            v = route_flow(m, t, Flow(src, 7))
            assert v.status is Status.DELIVERED
            assert v.path == (src, 7)

    def test_dfs_single_reroute(self):
        # First backup index for source 0 is 1.
        m = gen_dfs(8, 7)
        t = Topology(8).with_failures(FailureScenario.manual(8, [(0, 7)]))
        v = route_flow(m, t, Flow(0, 7))
        assert v.path == (0, 1, 7)

    def test_dfs_cursor_advances(self):
        m = gen_dfs(8, 7)
        t = Topology(8).with_failures(
            FailureScenario.manual(8, [(0, 7), (1, 7)])
        )
        v = route_flow(m, t, Flow(0, 7))
        assert v.path == (0, 1, 2, 7)

    def test_row_exhaustion_is_disconnected(self):
        m = gen_dfs(8, 7)
        # Row for source 6 is (7, 0, 2): the 7 is skipped, so killing the
        # destination links of 6, 0 and 2 strands the packet.
        t = Topology(8).with_failures(
            FailureScenario.manual(8, [(6, 7), (0, 7), (2, 7)])
        )
        v = route_flow(m, t, Flow(6, 7))
        assert v.status is Status.DISCONNECTED
        assert v.path[-1] == 2

    def test_missing_row_raises(self):
        m = gen_rfs(6, 5, 0)
        with pytest.raises(KeyError):
            route_flow(m, Topology(6), Flow(0, 3))

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            route_flow(gen_rfs(6, 5, 0), Topology(7), Flow(0, 5))

    def test_malformed_row_loops(self):
        m = FailoverMatrix(5, 4, {Flow(0, 4): (1, 2, 1, 3)})
        t = Topology(5).with_failures(
            FailureScenario.manual(
                5, [(0, 4), (1, 4), (2, 4), (2, 3), (1, 3)]
            )
        )
        v = route_flow(m, t, Flow(0, 4))
        assert v.status is Status.LOOP
        assert v.path.count(1) == 2

    @pytest.mark.parametrize("n", (4, 5, 6))
    def test_matches_naive_interpreter(self, n):
        # Every failure set of size <= 2, against both scheme families.
        matrices = [gen_dfs(n, n - 1)] if n >= 4 else []
        matrices += [gen_rfs(n, n - 1, seed) for seed in (0, 1)]
        for m in matrices:
            for combo in small_failure_sets(n):
                t = Topology(n, frozenset(combo))
                for src in range(n - 1):
                    flow = Flow(src, n - 1)
                    got = route_flow(m, t, flow)
                    status, walked = naive_cursor_walk(
                        m.rows[flow], src, n - 1, combo
                    )
                    assert got.status.value == status
                    assert list(got.path) == walked


class TestHopRuleRouting:
    def test_rob_single_reroute(self):
        t = Topology(10).with_failures(FailureScenario.manual(10, [(0, 9)]))
        v = route_flow(HopRule.ROB, t, Flow(0, 9))
        assert v.path == (0, 1, 9)

    def test_bal_no_failures_direct(self):
        t = Topology(10)
        for src in range(9):
            v = route_flow(HopRule.BAL, t, Flow(src, 9))
            assert v.status is Status.DELIVERED
            assert v.path == (src, 9)

    def test_rob_forced_loop_witness(self):
        # Node 0 keeps only its link to 1; node 1 keeps links to 0 and up,
        # but 2..8 links from 1 are cut so 1 must bounce back to 0.
        failures = [(0, v) for v in range(2, 10)] + [(1, v) for v in range(2, 10)]
        t = Topology(10).with_failures(FailureScenario.manual(10, failures))
        v = route_flow(HopRule.ROB, t, Flow(0, 9))
        assert v.status is Status.LOOP
        assert v.path.count(0) == 2

    def test_no_hop_maps_to_disconnected(self):
        t = Topology(4).with_failures(
            FailureScenario.manual(4, [(0, 1), (0, 2), (0, 3)])
        )
        v = route_flow(HopRule.ROB, t, Flow(0, 3))
        assert v.status is Status.DISCONNECTED
        assert v.path[-1] == 0

    def test_destination_outside_topology_raises(self):
        with pytest.raises(ValueError):
            evaluate(HopRule.ROB, Topology(8), SingleDest(9))

    def test_self_flow_raises(self):
        with pytest.raises(ValueError):
            route_flow(HopRule.ROB, Topology(8), Flow(3, 3))

    @pytest.mark.parametrize("n", (3, 4, 5, 6, 7, 8))
    def test_matches_naive_interpreter(self, n):
        # Every failure set of size <= 2; dst=1 starts bal's scan at node 0.
        for combo in small_failure_sets(n):
            t = Topology(n, frozenset(combo))
            for rule, dst in itertools.product(HopRule, {0, 1, n - 1}):
                for src in range(n):
                    if src == dst:
                        continue
                    got = route_flow(rule, t, Flow(src, dst))
                    want = naive_hop_walk(rule.value, src, dst, n, combo)
                    assert (got.status.value, list(got.path)) == want


class TestEvaluate:
    def test_single_dest_baseline(self):
        for scheme in (gen_rfs(8, 7, 0), gen_dfs(8, 7), HopRule.BAL, HopRule.ROB):
            report = evaluate(scheme, Topology(8), SingleDest(7))
            assert report.max_load == 1
            assert all(
                report.link_load(v, 7) == 1 for v in range(7)
            )

    def test_all_to_all_baseline(self):
        report = evaluate(HopRule.ROB, Topology(6), AllToAll())
        assert report.max_load == 2
        assert all(load == 2 for load in report.per_link.values())

    def test_single_dest_matrix_rejects_all_to_all(self):
        with pytest.raises(ValueError):
            evaluate(gen_rfs(6, 5, 0), Topology(6), AllToAll())

    def test_matrix_destination_must_match_pattern(self):
        with pytest.raises(ValueError):
            evaluate(gen_rfs(6, 5, 0), Topology(6), SingleDest(3))

    def test_chain_scenario_loads_last_link(self):
        result = chain_attack(HopRule.ROB, 10, 9, 3)
        t = Topology(10).with_failures(result.scenario)
        report = evaluate(HopRule.ROB, t, SingleDest(9))
        v = route_flow(HopRule.ROB, t, Flow(0, 9))
        assert v.status is Status.DELIVERED
        assert report.link_load(v.path[-2], 9) >= 3

    def test_conservation_and_path_validity(self):
        rng = random.Random(7)
        m = gen_rfs(12, 11, 3)
        for _ in range(25):
            links = rng.sample(all_links(12), rng.randint(0, 30))
            t = Topology(12, frozenset(links))
            verdicts = route_pattern(m, t, SingleDest(11))
            report = evaluate(m, t, SingleDest(11))
            assert report.delivered + report.loops + report.disconnected == 11
            total_hops = 0
            for v in verdicts:
                if v.status is Status.DELIVERED:
                    total_hops += len(v.path) - 1
                    assert v.path[0] == v.flow.src
                    assert v.path[-1] == 11
                    assert len(set(v.path)) == len(v.path)
                    for a, b in zip(v.path, v.path[1:]):
                        assert (min(a, b), max(a, b)) not in t.failed
            assert sum(report.per_link.values()) == total_hops

    def test_node_loads_count_transit_only(self):
        m = gen_dfs(8, 7)
        t = Topology(8).with_failures(
            FailureScenario.manual(8, [(0, 7), (1, 7)])
        )
        report = evaluate(m, t, SingleDest(7))
        # paths: 0->1->2->7, 1->2->7, rest direct
        assert report.node_load(2) == 2
        assert report.node_load(1) == 1
        assert report.node_load(0) == 0

    def test_csv_shape(self):
        report = evaluate(HopRule.ROB, Topology(4), SingleDest(3))
        lines = report.to_csv().splitlines()
        assert lines[0] == "link_a,link_b,load"
        assert lines[1] == "0,3,1"
        assert lines[-1].startswith("summary,max_load=1,")


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    scheme_seed=st.integers(0, 2**32),
    phi=st.integers(0, 60),
)
def test_permutation_rows_never_loop(seed, scheme_seed, phi):
    n = 14
    m = gen_rfs(n, n - 1, scheme_seed)
    links = random.Random(seed).sample(all_links(n), phi)
    t = Topology(n, frozenset(links))
    for verdict in route_pattern(m, t, SingleDest(n - 1)):
        assert verdict.status is not Status.LOOP


# ---------------------------------------------------------------- spec path


def reference_flows(pattern, n):
    """The pattern's (src, dst) pairs, enumerated without the package."""
    if isinstance(pattern, SingleDest):
        return [(src, pattern.dst) for src in range(n) if src != pattern.dst]
    return [(s, d) for s in range(n) for d in range(n) if s != d]


def naive_verdict(scheme, n, failed, src, dst):
    """One flow's (status, path) from ``naive_cursor_walk`` or
    ``naive_hop_walk``. A walk that repeats a node is a loop, cut after the
    first repeated node."""
    if isinstance(scheme, HopRule):
        status, walked = naive_hop_walk(scheme.value, src, dst, n, failed)
    else:
        row = scheme.rows[Flow(src, dst)]
        status, walked = naive_cursor_walk(row, src, dst, failed)
    for i, v in enumerate(walked):
        if v in walked[:i]:
            return "loop", walked[: i + 1]
    return status, walked


def naive_report(scheme, n, failed, pattern):
    """``evaluate``'s report as plain data, from ``naive_verdict``: the
    per-link and per-node loads as (key, load) pairs in the order each key
    is first reached, then the loop, disconnected and delivered tallies."""
    per_link, per_node = {}, {}
    loops = disconnected = delivered = 0
    for src, dst in reference_flows(pattern, n):
        status, walked = naive_verdict(scheme, n, failed, src, dst)
        if status == "loop":
            loops += 1
        elif status == "disconnected":
            disconnected += 1
        else:
            delivered += 1
            for hop in zip(walked, walked[1:]):
                link = tuple(sorted(hop))
                per_link[link] = per_link.get(link, 0) + 1
            for v in walked[1:-1]:
                per_node[v] = per_node.get(v, 0) + 1
    links, nodes = list(per_link.items()), list(per_node.items())
    return links, nodes, loops, disconnected, delivered


def report_data(report):
    """A LoadReport in ``naive_report``'s form, insertion order included."""
    return (
        list(report.per_link.items()),
        list(report.per_node.items()),
        report.loops,
        report.disconnected,
        report.delivered,
    )


def naive_loads(scheme, n, failed, pattern):
    """``(max_load, max_node_load, loops, disconnected)`` from ``naive_report``."""
    links, nodes, loops, disconnected, _ = naive_report(scheme, n, failed, pattern)
    return (
        max((load for _, load in links), default=0),
        max((load for _, load in nodes), default=0),
        loops,
        disconnected,
    )


@st.composite
def manual_matrices(draw):
    """Single-destination Manual matrices whose rows may repeat entries and
    hold the destination, with a failure set of destination links only or of
    any links."""
    n = draw(st.integers(3, 8))
    dst = draw(st.integers(0, n - 1))
    rows = {}
    for src in range(n):
        if src != dst:
            entries = st.sampled_from([v for v in range(n) if v != src])
            rows[Flow(src, dst)] = tuple(draw(st.lists(entries, max_size=2 * n)))
    pool = incident_links(n, dst) if draw(st.booleans()) else all_links(n)
    failed = draw(st.lists(st.sampled_from(pool), unique=True))
    return FailoverMatrix(n, dst, rows), failed


def spec_cases(n):
    """rfs, dfs, rob, bal and rfs-allpairs; single-destination at 0, 1 and
    n - 1 (dfs: n - 1 only), and all-to-all for the hop rules and
    rfs-allpairs."""
    cases = [(gen_dfs(n, n - 1), SingleDest(n - 1))] if n >= 4 else []
    allpairs = gen_rfs_allpairs(n, n)
    for dst in sorted({0, 1, n - 1}):
        cases.append((gen_rfs(n, dst, dst + 11), SingleDest(dst)))
        cases += [(scheme, SingleDest(dst)) for scheme in (*HopRule, allpairs)]
    cases += [(scheme, AllToAll()) for scheme in (*HopRule, allpairs)]
    return cases


def assert_spec_matches(scheme, n, failed, pattern):
    """``route_pattern`` against ``route_flow`` and the naive interpreters
    on every flow, and ``evaluate`` against the naive interpreters, on one
    failure set."""
    topo = Topology(n, frozenset(failed))
    flows = [Flow(s, d) for s, d in reference_flows(pattern, n)]
    got = route_pattern(scheme, topo, pattern)
    want = [route_flow(scheme, topo, f) for f in flows]
    assert got == want, (scheme, failed, pattern)
    naive = [naive_verdict(scheme, n, failed, s, d) for s, d in flows]
    assert [(v.status.value, list(v.path)) for v in got] == naive, (
        scheme, failed, pattern
    )
    assert [type(v.flow) for v in got] == [Flow] * len(flows)
    report = report_data(evaluate(scheme, topo, pattern))
    assert report == naive_report(scheme, n, failed, pattern), (scheme, failed, pattern)


@st.composite
def manual_allpairs(draw):
    """All-pairs Manual matrices whose rows may repeat entries and hold the
    flow's destination, with any failure set."""
    n = draw(st.integers(3, 6))
    rows = {}
    for src, dst in reference_flows(AllToAll(), n):
        entries = st.sampled_from([v for v in range(n) if v != src])
        rows[Flow(src, dst)] = tuple(draw(st.lists(entries, max_size=2 * n)))
    failed = draw(st.lists(st.sampled_from(all_links(n)), unique=True))
    return FailoverMatrix(n, None, rows), failed


class TestSpecPath:
    """``route_pattern`` delivers flows over a surviving direct link without
    walking them and ``evaluate`` aggregates inline; both must agree with
    routing flow by flow and with the naive interpreters."""

    @pytest.mark.parametrize("n", (3, 4, 5, 6, 7, 8))
    def test_every_failure_set_up_to_two_links(self, n):
        subsets = small_failure_sets(n)
        for scheme, pattern in spec_cases(n):
            for failed in subsets:
                assert_spec_matches(scheme, n, failed, pattern)

    @settings(max_examples=200, deadline=None)
    @given(case=manual_matrices())
    def test_manual_single_destination_rows(self, case):
        matrix, failed = case
        assert_spec_matches(matrix, matrix.n, failed, SingleDest(matrix.dst))

    @settings(max_examples=60, deadline=None)
    @given(case=manual_allpairs(), to_one=st.booleans())
    def test_manual_allpairs_rows(self, case, to_one):
        matrix, failed = case
        pattern = SingleDest(matrix.n - 1) if to_one else AllToAll()
        assert_spec_matches(matrix, matrix.n, failed, pattern)

    @pytest.mark.parametrize("n", (3, 4, 5, 9))
    def test_pattern_flows_pinned(self, n):
        for pattern in [SingleDest(d) for d in range(n)] + [AllToAll()]:
            flows = pattern_flows(pattern, n)
            assert flows == [Flow(s, d) for s, d in reference_flows(pattern, n)]
            assert {type(f) for f in flows} == {Flow}


def assert_resumes_as_fresh(scheme, n, src, dst):
    """Fail the delivering node's link to dst and resume the same walk there,
    as the adaptive adversaries do, until the flow stops being delivered:
    each round must equal a fresh walk by ``naive_verdict``."""
    step = routing._stepper(scheme, src, dst)
    hops, down = [src], {src}
    while True:
        # Every node on the path has lost its link to dst, so the nodes in
        # dead[dst] are the walk's visited set.
        dead = dead_neighbours((v, dst) for v in down)
        walked = routing._walk(step, hops[-1], dst, n, dead, hops, dead[dst])
        want = naive_verdict(scheme, n, [(v, dst) for v in down], src, dst)
        if walked is not hops:
            assert (walked.value, hops) == want
            return
        assert ("delivered", [*hops, dst]) == want
        down.add(hops[-1])


class TestResumedWalks:
    """A walk resumed at the node that delivered, after that node's link to
    dst failed, is the walk a fresh route over the new failures takes: a
    row's cursor resumes through its live iterator, and a walk counts a
    return to any node in the visited set it is passed as a loop."""

    @pytest.mark.parametrize("n", (3, 4, 5, 8, 13))
    def test_hop_rules(self, n):
        for rule, dst, src in itertools.product(HopRule, range(n), range(n)):
            if src != dst:
                assert_resumes_as_fresh(rule, n, src, dst)

    @settings(max_examples=200, deadline=None)
    @given(case=manual_matrices(), pick=st.integers(0, 7))
    def test_manual_rows(self, case, pick):
        matrix, _ = case
        src = pick % (matrix.n - 1)
        src += src >= matrix.dst
        assert_resumes_as_fresh(matrix, matrix.n, src, matrix.dst)

    def test_generated_rows(self):
        for n, dst in ((8, 7), (16, 15), (16, 3)):
            for src in range(n):
                if src != dst:
                    assert_resumes_as_fresh(gen_rfs(n, dst, n), n, src, dst)
            if dst == n - 1:
                for src in range(n - 1):
                    assert_resumes_as_fresh(gen_dfs(n, dst), n, src, dst)


def walker_must_not_run(*args):
    raise AssertionError(f"a flow walked before the input error: {args}")


class TestSpecPathErrors:
    """Each input error of per-flow routing is raised by ``route_pattern``
    and ``evaluate`` too, with the same message, before any flow walks. The
    walk loop is patched to fail, and where a flow could walk, the first
    flow's direct link is down."""

    @pytest.fixture(autouse=True)
    def no_walks(self, monkeypatch):
        monkeypatch.setattr(routing, "_walk", walker_must_not_run)

    def assert_same_error(self, error, scheme, topo, pattern, flow):
        with pytest.raises(error) as want:
            route_flow(scheme, topo, flow)
        for spec in (route_pattern, evaluate):
            with pytest.raises(error) as got:
                spec(scheme, topo, pattern)
            assert str(got.value) == str(want.value)

    def test_missing_row(self):
        rows = {Flow(src, 5): (src + 1,) for src in range(4)}  # no row for 4
        matrix = FailoverMatrix(6, 5, rows)
        topo = Topology(6, frozenset({(0, 5)}))
        self.assert_same_error(KeyError, matrix, topo, SingleDest(5), Flow(4, 5))

    def test_missing_all_pairs_row(self):
        rows = {flow: () for flow in pattern_flows(AllToAll(), 5) if flow != (4, 0)}
        matrix = FailoverMatrix(5, None, rows)
        topo = Topology(5, frozenset({(0, 4)}))
        self.assert_same_error(KeyError, matrix, topo, AllToAll(), Flow(4, 0))

    def test_matrix_and_topology_sizes_differ(self):
        topo = Topology(7, frozenset({(0, 5)}))
        matrix = gen_rfs(6, 5, 0)
        self.assert_same_error(ValueError, matrix, topo, SingleDest(5), Flow(0, 5))

    @pytest.mark.parametrize("dst", (-1, 8, 9))
    def test_hop_rule_destination_outside_the_topology(self, dst):
        # With no failed link every flow would be delivered directly.
        for rule in HopRule:
            pattern = SingleDest(dst)
            self.assert_same_error(ValueError, rule, Topology(8), pattern, Flow(0, dst))

    @pytest.mark.parametrize("dst", (-1, 6))
    def test_all_pairs_matrix_destination_outside_the_topology(self, dst):
        # The matrix holds every row, so only the endpoint check stops these
        # flows, which would otherwise be delivered over links that do not exist.
        topo = Topology(6, frozenset({(0, 1)}))
        matrix = gen_rfs_allpairs(6, 0)
        self.assert_same_error(ValueError, matrix, topo, SingleDest(dst), Flow(0, dst))

    def test_single_destination_matrix_under_all_to_all(self):
        topo = Topology(6, frozenset({(0, 1)}))
        for spec in (route_pattern, evaluate):
            with pytest.raises(ValueError, match="cannot serve all-to-all"):
                spec(gen_rfs(6, 5, 0), topo, AllToAll())


# ------------------------------------------------------------- batch scorers
# The brute-force oracle scores a failure set by the batch scorers
# ``_PrefixWalks`` and ``_LinkWalks``; ``evaluate`` is their specification.


def spec_loads(scheme, n, failed, pattern):
    report = evaluate(scheme, Topology(n, frozenset(failed)), pattern)
    return report.max_load, report.max_node_load, report.loops, report.disconnected


def as_scores(loads):
    """``(max_load, max_node_load, loops, disconnected)`` as the scorers give
    it: the two maxima and whether some flow looped or was disconnected."""
    max_load, max_node_load, loops, disconnected = loads
    return max_load, max_node_load, loops + disconnected > 0


def assert_link_scores_match_naive(scheme, n, failed, pattern):
    """One failure set scored by ``_LinkWalks`` over every link, as
    ``brute_force_worst_case`` scores it, against the naive interpreters."""
    links = all_links(n)
    walks = _LinkWalks(scheme, n, links, pattern)
    scores = walks.score(np.array([[links.index(link) for link in failed]]))
    want = as_scores(naive_loads(scheme, n, failed, pattern))
    assert tuple(score[0] for score in scores) == want, (scheme, failed, pattern)


def walk_cases(n):
    """rfs, dfs, rob, bal and rfs-allpairs, single-destination at the
    largest and smallest node index, and all-to-all."""
    cases = [
        (gen_rfs(n, n - 1, 1), SingleDest(n - 1)),
        (gen_rfs(n, 0, 2), SingleDest(0)),
    ]
    if n >= 4:
        cases.append((gen_dfs(n, n - 1), SingleDest(n - 1)))
    for rule in HopRule:
        # dst=1 starts bal's scan at node 0 itself.
        cases += [(rule, SingleDest(dst)) for dst in (0, 1, n - 1)]
        cases.append((rule, AllToAll()))
    cases.append((gen_rfs_allpairs(n, 3), AllToAll()))
    return cases


class TestLoadKernel:
    """The link walks score every set of candidates, separable or not, as
    the naive interpreters do; the walkers' edge cases hold in ``evaluate``."""

    @pytest.mark.parametrize("n", (3, 4, 5, 6, 7, 8))
    def test_every_failure_set_up_to_two_links(self, n):
        for scheme, pattern in walk_cases(n):
            assert_link_scores_match(scheme, n, all_links(n), pattern, 2, naive_loads)

    def test_every_destination_link_subset(self):
        # Sets of up to n - 1 links at one node: most of them are tangled.
        n = 8
        for scheme, pattern in walk_cases(n):
            dst = pattern.dst if isinstance(pattern, SingleDest) else n - 1
            links = incident_links(n, dst)
            assert_link_scores_match(scheme, n, links, pattern, n - 1, naive_loads)

    @pytest.mark.parametrize(
        "row, failed, status",
        [
            # The repeated 1 is the current node when reached: skipped.
            ((1, 1, 2), [(0, 4), (1, 4)], Status.DELIVERED),
            # Back to 1 from 2: a loop, with only destination links dead.
            ((1, 2, 1, 3), [(0, 4), (1, 4), (2, 4)], Status.LOOP),
            # The same loop with one more link dead.
            ((1, 2, 1, 3), [(0, 4), (1, 4), (2, 4), (0, 3)], Status.LOOP),
            # The destination inside a row is skipped.
            ((4, 2), [(0, 4)], Status.DELIVERED),
            ((4,), [(0, 4)], Status.DISCONNECTED),
        ],
    )
    def test_row_walk_cases(self, row, failed, status):
        rows = {Flow(0, 4): row, Flow(1, 4): (2,), Flow(2, 4): (3,), Flow(3, 4): (1,)}
        matrix = FailoverMatrix(5, 4, rows)
        topo = Topology(5, frozenset(failed))
        assert route_flow(matrix, topo, Flow(0, 4)).status is status
        want = naive_loads(matrix, 5, failed, SingleDest(4))
        assert spec_loads(matrix, 5, failed, SingleDest(4)) == want
        assert_link_scores_match_naive(matrix, 5, failed, SingleDest(4))

    def test_hop_rule_walks_back_to_source(self):
        # Every link into 3 is dead, so rob goes round 0 -> 1 -> 2 -> 0.
        failed = [(0, 3), (1, 3), (2, 3)]
        assert spec_loads(HopRule.ROB, 4, failed, SingleDest(3)) == (0, 0, 3, 0)
        assert naive_loads(HopRule.ROB, 4, failed, SingleDest(3)) == (0, 0, 3, 0)
        assert_link_scores_match_naive(HopRule.ROB, 4, failed, SingleDest(3))

    def test_hop_rule_walk_stops_at_its_source(self, monkeypatch):
        # rob goes round 0 -> 1 -> 2 -> 0 and stops at the source: three hops
        # for each of the three flows, none past the return.
        hops = 0
        next_hop = HopRule.next_hop

        def counted(rule, *args):
            nonlocal hops
            hops += 1
            return next_hop(rule, *args)

        monkeypatch.setattr(HopRule, "next_hop", counted)
        failed = [(0, 3), (1, 3), (2, 3)]
        assert spec_loads(HopRule.ROB, 4, failed, SingleDest(3)) == (0, 0, 3, 0)
        assert hops == 9


@settings(max_examples=300, deadline=None)
@given(case=manual_matrices())
def test_kernel_matches_on_manual_rows(case):
    matrix, failed = case
    if failed:  # the oracle scores the empty set without a walk
        assert_link_scores_match_naive(matrix, matrix.n, failed, SingleDest(matrix.dst))


def reference_brute_force(scheme, n, dst, budget, restrict, pattern=None):
    """The exhaustive oracle as a plain loop: every scenario routed through
    ``evaluate``."""
    candidates = incident_links(n, dst) if restrict else all_links(n)
    if pattern is None:
        if isinstance(scheme, FailoverMatrix) and not scheme.is_single_dest:
            pattern = AllToAll()
        else:
            pattern = SingleDest(dst)
    best_link = best_node = None
    min_break: Optional[int] = None
    tested = 0
    by_size = []
    for k in range(budget + 1):
        by_size.append(0)
        for combo in itertools.combinations(candidates, k):
            tested += 1
            report = evaluate(scheme, Topology(n, frozenset(combo)), pattern)
            broken = report.loops + report.disconnected > 0
            if broken and min_break is None:
                min_break = k
            by_size[k] = max(by_size[k], report.max_node_load)
            scenario = FailureScenario(n, combo, "BruteForce")
            if not broken and (best_link is None or report.max_load > best_link[0]):
                best_link = (report.max_load, scenario, report)
            if best_node is None or report.max_node_load > best_node[0]:
                best_node = (report.max_node_load, scenario)
    return BruteForceResult(
        max_link_load=best_link[0],
        max_link_scenario=best_link[1],
        max_link_report=best_link[2],
        max_node_load=best_node[0],
        max_node_scenario=best_node[1],
        min_break_budget=min_break,
        scenarios_tested=tested,
        max_node_load_by_size=tuple(by_size),
    )


def oracle_text(result):
    return (
        f"max_link_load={result.max_link_load}\n"
        f"max_node_load={result.max_node_load}\n"
        f"min_break_budget={result.min_break_budget}\n"
        f"scenarios_tested={result.scenarios_tested}\n"
        f"max_link_scenario:\n{result.max_link_scenario.to_text()}"
        f"max_link_report:\n{result.max_link_report.to_csv()}"
        f"max_node_scenario:\n{result.max_node_scenario.to_text()}"
    )


@pytest.mark.parametrize(
    "scheme, n, budget, restrict, pattern",
    [
        (gen_dfs(8, 7), 8, 7, True, None),
        (gen_dfs(16, 15), 16, 3, True, None),
        (gen_rfs(8, 7, 5), 8, 2, False, None),
        (HopRule.ROB, 8, 3, True, None),
        (HopRule.BAL, 8, 2, False, None),
        (gen_rfs_allpairs(6, 4), 6, 2, False, None),
        (gen_rfs_allpairs(6, 4), 6, 5, True, None),
        (HopRule.ROB, 6, 2, False, AllToAll()),
        (HopRule.BAL, 7, 6, True, AllToAll()),
        (gen_rfs_allpairs(7, 2), 7, 3, False, None),
        (HopRule.BAL, 7, 3, False, SingleDest(6)),
    ],
)
def test_brute_force_matches_evaluate_per_scenario(
    scheme, n, budget, restrict, pattern
):
    got = brute_force_worst_case(
        scheme, n, n - 1, budget, restrict_to_dst_links=restrict, pattern=pattern
    )
    want = reference_brute_force(scheme, n, n - 1, budget, restrict, pattern)
    assert got == want
    assert oracle_text(got) == oracle_text(want)


def prefix_cases(n):
    """dfs, rfs, rob, bal and the rows to one destination of rfs-allpairs,
    with dst at 0, 1 and n - 1 (dfs: n - 1 only)."""
    cases = [(gen_dfs(n, n - 1), n - 1)] if n >= 4 else []
    for dst in sorted({0, 1, n - 1}):
        cases += [
            (gen_rfs(n, dst, dst + 7), dst),
            (HopRule.ROB, dst),
            (HopRule.BAL, dst),
            (gen_rfs_allpairs(n, dst + 3), dst),
        ]
    return cases


def assert_scores_match(walks, scheme, n, candidates, pattern, budget, loads):
    """``walks.score`` against ``loads``, ``spec_loads`` or ``naive_loads``,
    on every set of 1..budget candidates, batch by batch as
    ``brute_force_worst_case`` scores them."""
    sizes = itertools.islice(_combinations(len(candidates)), 1, budget + 1)
    for k, sets in enumerate(sizes, start=1):
        assert len(sets) == math.comb(len(candidates), k)
        for start in range(0, len(sets), _BATCH):
            chunk = sets[start : start + _BATCH]
            max_load, max_node_load, broken = walks.score(chunk)
            for i, chosen in enumerate(chunk.tolist()):
                failed = [candidates[c] for c in chosen]
                got = (max_load[i], max_node_load[i], broken[i])
                want = as_scores(loads(scheme, n, failed, pattern))
                assert got == want, (scheme, pattern, failed)


def assert_prefix_scores_match_evaluate(scheme, n, dst, budget):
    walks = _PrefixWalks(scheme, n, dst, budget)
    links, pattern = incident_links(n, dst), SingleDest(dst)
    assert_scores_match(walks, scheme, n, links, pattern, budget, spec_loads)


def assert_link_scores_match(scheme, n, candidates, pattern, budget, loads=spec_loads):
    walks = _LinkWalks(scheme, n, candidates, pattern)
    assert_scores_match(walks, scheme, n, candidates, pattern, budget, loads)


def link_cases(n):
    """rfs-allpairs, rob and bal under all-to-all and to one destination,
    rfs and dfs to one destination, each with every link or the links at
    n - 1 as candidates."""
    dst = n - 1
    cases = [
        (scheme, pattern)
        for scheme in (gen_rfs_allpairs(n, n + 2), *HopRule)
        for pattern in (AllToAll(), SingleDest(dst), SingleDest(1))
    ]
    cases += [(gen_rfs(n, dst, 3), SingleDest(dst)), (gen_dfs(n, dst), SingleDest(dst))]
    return [
        (scheme, pattern, candidates)
        for scheme, pattern in cases
        for candidates in (all_links(n), incident_links(n, dst))
    ]


class TestLinkWalks:
    @pytest.mark.parametrize("n", (4, 6, 8))
    def test_batch_scores_match_kernel(self, n):
        for scheme, pattern, candidates in link_cases(n):
            assert_link_scores_match(scheme, n, candidates, pattern, 3)

    @settings(max_examples=40, deadline=None)
    @given(case=manual_matrices(), restrict=st.booleans())
    def test_batch_scores_match_kernel_on_manual_rows(self, case, restrict):
        matrix, _ = case
        n, dst = matrix.n, matrix.dst
        candidates = incident_links(n, dst) if restrict else all_links(n)
        assert_link_scores_match(
            matrix, n, candidates, SingleDest(dst), min(len(candidates), 3)
        )

    def test_kernel_scores_only_tangled_sets(self, monkeypatch):
        # Under rob on 5 nodes, (0, 1)'s flows detour over 2, so both walks
        # take (1, 2); (3, 4)'s flows detour over 0 and read neither link.
        rewalked = []
        walk = _LinkWalks._walk

        def counted(walks, members):
            if len(members) > 1:
                rewalked.append([links[c] for c in members])
            return walk(walks, members)

        monkeypatch.setattr(_LinkWalks, "_walk", counted)
        links = all_links(5)
        walks = _LinkWalks(HopRule.ROB, 5, links, AllToAll())
        for pair, tangled in (([(0, 1), (3, 4)], False), ([(0, 1), (1, 2)], True)):
            rewalked.clear()
            members = [links.index(link) for link in pair]
            scores = walks.score(np.array([members]))
            assert rewalked == ([pair] if tangled else [])
            want = as_scores(spec_loads(HopRule.ROB, 5, pair, AllToAll()))
            assert tuple(score[0] for score in scores) == want
            # The sum of the members' single-link walks is right only for
            # the separable pair.
            link_load = walks.base + walks.link_delta[members].sum(axis=0)
            link_load[walks.slot[members]] = 0
            summed = (
                link_load.max(),
                walks.node_delta[members].sum(axis=0).max(),
                walks.broken[members].any(),
            )
            assert (summed == want) is not tangled


@pytest.mark.parametrize("m", range(13))
def test_combinations_in_itertools_order(m):
    sizes = itertools.islice(_combinations(m), 6)
    for k, sets in enumerate(sizes):
        assert sets.shape == (math.comb(m, k), k)
        assert list(map(tuple, sets.tolist())) == list(
            itertools.combinations(range(m), k)
        )


class TestPrefixWalks:
    @pytest.mark.parametrize("n, budget", [(3, 2), (5, 4), (8, 7), (16, 4)])
    def test_batch_scores_match_kernel(self, n, budget):
        for scheme, dst in prefix_cases(n):
            assert_prefix_scores_match_evaluate(scheme, n, dst, budget)

    @settings(max_examples=150, deadline=None)
    @given(case=manual_matrices())
    def test_batch_scores_match_kernel_on_manual_rows(self, case):
        matrix, _ = case
        n = matrix.n
        assert_prefix_scores_match_evaluate(matrix, n, matrix.dst, min(n - 1, 4))

    @pytest.mark.parametrize("n, budget", [(4, 3), (8, 7), (12, 3), (16, 2)])
    def test_brute_force_matches_kernel_loop(self, n, budget):
        for scheme, dst in prefix_cases(n):
            for restrict in (True, False):
                # The reference routes each set through evaluate: every pair
                # of links at n=12 or 16 (2,145 or 7,140) would take seconds.
                b = budget if restrict else min(budget, 2 if n < 12 else 1)
                got = brute_force_worst_case(
                    scheme, n, dst, b, restrict_to_dst_links=restrict,
                    pattern=SingleDest(dst),
                )
                want = reference_brute_force(
                    scheme, n, dst, b, restrict, SingleDest(dst)
                )
                assert got == want, (scheme, dst, restrict)
                assert oracle_text(got) == oracle_text(want)

    @settings(max_examples=60, deadline=None)
    @given(case=manual_matrices(), budget=st.integers(0, 7))
    def test_brute_force_matches_kernel_loop_on_manual_rows(self, case, budget):
        matrix, _ = case
        n, dst = matrix.n, matrix.dst
        budget = min(budget, n - 1)
        got = brute_force_worst_case(matrix, n, dst, budget)
        want = reference_brute_force(matrix, n, dst, budget, True)
        assert got == want
        assert oracle_text(got) == oracle_text(want)

    @pytest.mark.parametrize(
        "scheme, n, restrict",
        [
            (gen_dfs(8, 7), 8, True),
            (HopRule.BAL, 8, True),
            (gen_rfs(7, 6, 2), 7, False),
        ],
    )
    def test_running_max_by_size_is_the_budget_max(self, scheme, n, restrict):
        budget = n - 1 if restrict else 2
        whole = brute_force_worst_case(
            scheme, n, n - 1, budget, restrict_to_dst_links=restrict
        )
        assert len(whole.max_node_load_by_size) == budget + 1
        running = list(itertools.accumulate(whole.max_node_load_by_size, max))
        for phi in range(budget + 1):
            part = brute_force_worst_case(
                scheme, n, n - 1, phi, restrict_to_dst_links=restrict
            )
            assert part.max_node_load == running[phi]
            assert part.max_node_load_by_size == whole.max_node_load_by_size[: phi + 1]
