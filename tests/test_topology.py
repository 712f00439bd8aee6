"""Topology, failure scenarios, and exact connectivity queries.

The cut queries are checked against an independent brute-force oracle
that enumerates node bipartitions (valid at small n by Menger's theorem),
and against networkx's edge connectivity at sizes the oracle cannot reach.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from failoverlab import topology
from failoverlab.adversary import adv_ecl, adv_ran, loop_forcer
from failoverlab.schemes import HopRule, gen_dfs, gen_rfs
from failoverlab.topology import (
    SCENARIO_SOURCES,
    FailureScenario,
    Topology,
    all_links,
    dead_neighbours,
    incident_links,
    make_link,
)

from text_fuzz import texts


def brute_force_mincut(topo: Topology) -> int:
    """Minimum crossing-edge count over all nontrivial bipartitions."""
    n = topo.n
    best = None
    for bits in range(1, 2 ** (n - 1)):  # node 0 stays on side A
        side = {v for v in range(1, n) if bits & (1 << (v - 1))}
        crossing = sum(
            1
            for a in range(n)
            for b in range(a + 1, n)
            if ((a in side) != (b in side)) and (a, b) not in topo.failed
        )
        best = crossing if best is None else min(best, crossing)
    return best


def brute_force_disjoint_paths(topo: Topology, src: int, dst: int) -> int:
    """Minimum s-t cut over bipartitions separating src from dst."""
    n = topo.n
    others = [v for v in range(n) if v not in (src, dst)]
    best = None
    for k in range(len(others) + 1):
        for group in itertools.combinations(others, k):
            side = {src, *group}
            crossing = sum(
                1
                for a in range(n)
                for b in range(a + 1, n)
                if ((a in side) != (b in side)) and (a, b) not in topo.failed
            )
            best = crossing if best is None else min(best, crossing)
    return best


class TestBuildClique:
    def test_n4_has_six_links_and_degree_three(self):
        t = Topology(4)
        assert len(all_links(4)) == 6
        assert all(t.degree(v) == 3 for v in range(4))

    def test_n500_degree(self):
        t = Topology(500)
        assert t.degree(0) == 499
        assert t.degree(499) == 499

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            Topology(2)

    def test_all_links_alive(self):
        t = Topology(5)
        assert t.dead == {}


class TestMakeLink:
    def test_canonical_order(self):
        assert make_link(3, 1) == (1, 3)

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            make_link(2, 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_link(0, 9, n=5)


class TestApplyFailures:
    def test_empty_scenario_is_identity(self):
        t = Topology(4)
        t2 = t.with_failures(FailureScenario.manual(4, []))
        assert t2.failed == frozenset()
        assert t2 == t

    def test_single_removal_drops_both_degrees(self):
        t = Topology(4).with_failures(FailureScenario.manual(4, [(0, 3)]))
        assert t.degree(0) == 2
        assert t.degree(3) == 2
        assert t.dead == {0: {3}, 3: {0}}

    def test_isolating_a_node(self):
        scenario = FailureScenario.manual(8, [(u, 7) for u in range(7)])
        t = Topology(8).with_failures(scenario)
        assert t.degree(7) == 0
        assert t.mincut() == 0

    def test_original_unchanged(self):
        t = Topology(4)
        t.with_failures(FailureScenario.manual(4, [(0, 1)]))
        assert t.failed == frozenset()

    def test_invalid_link_names_pair(self):
        with pytest.raises(ValueError, match="9"):
            Topology(4).with_failures(FailureScenario.manual(4, [(0, 9)]))

    def test_idempotent(self):
        s = FailureScenario.manual(5, [(0, 1), (2, 3)])
        t1 = Topology(5).with_failures(s)
        t2 = t1.with_failures(s)
        assert t1 == t2

    def test_commutative_across_disjoint_scenarios(self):
        s1 = FailureScenario.manual(5, [(0, 1)])
        s2 = FailureScenario.manual(5, [(2, 3)])
        t = Topology(5)
        one_way = t.with_failures(s1).with_failures(s2)
        assert one_way == t.with_failures(s2).with_failures(s1)

    def test_dead_neighbours_name_both_ends_once_built(self):
        t = Topology(5).with_failures(FailureScenario.manual(5, [(0, 1), (3, 0)]))
        assert t.dead == {0: {1, 3}, 1: {0}, 3: {0}}
        assert t.dead is t.dead
        # The cached map is not a field: equality and hashing ignore it.
        fresh = Topology(5, frozenset({(0, 1), (0, 3)}))
        assert t == fresh and hash(t) == hash(fresh)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_derived_dead_map_equals_a_fresh_one(self, data):
        # Whether or not the parent's map is built, the child's map equals a
        # fresh one and the parent's stays as it was; batches may repeat
        # links that already failed.
        n = data.draw(st.integers(3, 9))
        links = all_links(n)
        topo = Topology(n)
        lineage = []
        for _ in range(data.draw(st.integers(1, 6))):
            if data.draw(st.booleans()):
                topo.dead  # build the parent's map before the child is derived
            built = "dead" in topo.__dict__
            snapshot = {v: set(s) for v, s in topo.dead.items()} if built else None
            lineage.append((topo, topo.failed, snapshot))
            batch = data.draw(st.lists(st.sampled_from(links), unique=True, max_size=4))
            topo = topo.with_failures(FailureScenario(n, tuple(batch)))
            assert topo.dead == dead_neighbours(topo.failed)
        for parent, failed, snapshot in lineage:
            assert parent.failed == failed
            if snapshot is not None:
                assert parent.dead == snapshot
            assert parent.dead == dead_neighbours(failed)


    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_derived_topology_equals_a_fresh_one(self, data):
        n = data.draw(st.integers(3, 9))
        links = all_links(n)
        parent = data.draw(st.lists(st.sampled_from(links), unique=True))
        batch = data.draw(st.lists(st.sampled_from(links), unique=True))
        child = Topology(n, frozenset(parent)).with_failures(
            FailureScenario(n, tuple(batch))
        )
        fresh = Topology(n, frozenset(parent) | frozenset(batch))
        assert child == fresh and hash(child) == hash(fresh)
        assert child.dead == fresh.dead

    @pytest.mark.parametrize("link", [(0, 4), (2, 2), (3, 1), (-1, 2)])
    def test_derived_topology_rejects_an_invalid_link(self, link):
        with pytest.raises(ValueError):
            Topology(4, frozenset({(0, 1)})).with_failures(
                FailureScenario(4, ((1, 2), link))
            )
        with pytest.raises(ValueError):
            Topology(4, frozenset({(0, 1), (1, 2), link}))


class TestMincut:
    def test_unfailed_clique_is_n_minus_1(self):
        assert Topology(10).mincut() == 9

    def test_three_failures_at_destination(self):
        s = FailureScenario.manual(10, [(0, 9), (3, 9), (5, 9)])
        t = Topology(10).with_failures(s)
        assert t.mincut() == 6  # the cut isolating node 9
        assert t.mincut() >= 10 - 3 - 1

    def test_disconnected_is_zero(self):
        s = FailureScenario.manual(6, [(u, 5) for u in range(5)])
        assert Topology(6).with_failures(s).mincut() == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_bipartition_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 7)
        phi = rng.randint(0, 6)
        links = rng.sample(all_links(n), min(phi, len(all_links(n))))
        t = Topology(n, frozenset(links))
        assert t.mincut() == brute_force_mincut(t)


class TestDisjointPaths:
    def test_unfailed_clique_any_pair(self):
        t = Topology(8)
        assert t.disjoint_paths(2, 5) == 7

    def test_each_failure_costs_at_most_one_path(self):
        rng = random.Random(1)
        for _ in range(10):
            links = rng.sample(all_links(8), 3)
            t = Topology(8, frozenset(links))
            assert t.disjoint_paths(0, 7) >= 8 - 3 - 1

    def test_isolated_destination(self):
        s = FailureScenario.manual(5, [(u, 4) for u in range(4)])
        assert Topology(5).with_failures(s).disjoint_paths(0, 4) == 0

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError, match="self-link"):
            Topology(5).disjoint_paths(2, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_bipartition_oracle(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randint(4, 6)
        links = rng.sample(all_links(n), rng.randint(0, 5))
        t = Topology(n, frozenset(links))
        assert t.disjoint_paths(0, n - 1) == brute_force_disjoint_paths(t, 0, n - 1)


def loop_forcer_topology(name: str, n: int) -> Topology:
    scheme = {
        "rfs": lambda: gen_rfs(n, n - 1, 0),
        "dfs": lambda: gen_dfs(n, n - 1),
        "rob": lambda: HopRule.ROB,
        "bal": lambda: HopRule.BAL,
    }[name]()
    return Topology(n).with_failures(loop_forcer(scheme, n, n - 1))


def clique_chain(sizes: tuple[int, ...], bridges: tuple[int, ...]) -> Topology:
    """Cliques of the given sizes on consecutive node ranges, clique i joined
    to clique i+1 by ``bridges[i]`` links between their first nodes."""
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    kept = {
        (starts[i] + j, starts[i + 1] + j)
        for i, count in enumerate(bridges)
        for j in range(count)
    }
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    return Topology(
        len(part),
        frozenset(
            (a, b)
            for a, b in all_links(len(part))
            if part[a] != part[b] and (a, b) not in kept
        ),
    )


def thinned(n: int, floor: int, seed: int) -> Topology:
    """Fail links in random order while both endpoints keep a degree above
    ``floor``, so that the minimum degree ends at exactly ``floor``."""
    links = all_links(n)
    random.Random(seed).shuffle(links)
    degree = [n - 1] * n
    failed = []
    for a, b in links:
        if degree[a] > floor and degree[b] > floor:
            degree[a] -= 1
            degree[b] -= 1
            failed.append((a, b))
    assert min(degree) == floor
    return Topology(n, frozenset(failed))


def adjacency(topo: Topology) -> np.ndarray:
    """n x n bool matrix of the links that ``topo.failed`` leaves alive."""
    adj = ~np.eye(topo.n, dtype=bool)
    if topo.failed:
        a, b = zip(*topo.failed)
        adj[a, b] = adj[b, a] = False
    return adj


def bit_rows(adj: np.ndarray) -> list[int]:
    """Row u of the bool adjacency as a Python int with bit v set for each
    neighbour v: the layout of ``Topology._rows``."""
    packed = np.packbits(adj, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def reference_dominating_set(adj: np.ndarray, start: int) -> list[int]:
    """The numpy greedy dominating set that ``topology._dominating_set``
    must match: beginning with ``start``, each further node is the one whose
    closed neighbourhood covers the most uncovered nodes (argmax, so the
    lowest index on ties)."""
    closed = adj | np.eye(len(adj), dtype=bool)
    chosen = [start]
    covered = closed[start].copy()
    while not covered.all():
        v = int((closed & ~covered).sum(axis=1).argmax())
        chosen.append(v)
        covered |= closed[v]
    return chosen


def reference_dominators(topo: Topology) -> list[int]:
    """``reference_dominating_set`` started at the first node of maximum
    degree, as ``mincut`` starts it."""
    adj = adjacency(topo)
    return reference_dominating_set(adj, int(adj.sum(axis=1).argmax()))


@pytest.fixture
def flows(monkeypatch):
    """Source-sink pairs of every max flow run while the test is active."""
    calls = []
    real = topology.maximum_flow

    def counted(graph, src, dst):
        calls.append((src, dst))
        return real(graph, src, dst)

    monkeypatch.setattr(topology, "maximum_flow", counted)
    return calls


class TestConnectivityMatchesNetworkx:
    """``mincut`` against ``nx.edge_connectivity(G)`` and ``disjoint_paths``
    against ``nx.edge_connectivity(G, s, t)``."""

    @pytest.fixture
    def nx(self):
        return pytest.importorskip("networkx")

    @staticmethod
    def graph(nx, topo: Topology):
        g = nx.complete_graph(topo.n)
        g.remove_edges_from(topo.failed)
        return g

    def check_pairs(self, nx, topo: Topology, pairs) -> None:
        g = self.graph(nx, topo)
        for s, t in pairs:
            assert topo.disjoint_paths(s, t) == nx.edge_connectivity(g, s, t), (s, t)

    @pytest.mark.parametrize("n", (8, 16, 32, 64))
    def test_random_failures_up_to_a_split(self, nx, n):
        rng = random.Random(n)
        links = all_links(n)
        rng.shuffle(links)
        cuts = []
        # Fail ever longer prefixes of one random link order, from none
        # through the point where the graph falls apart.
        for share in (0, 0.05, 0.2, 0.4, 0.6, 0.75, 0.85, 0.9, 0.95, 0.98, 1):
            topo = Topology(n, frozenset(links[: round(share * len(links))]))
            g = self.graph(nx, topo)
            assert topo.mincut() == nx.edge_connectivity(g)
            cuts.append(topo.mincut())
            self.check_pairs(nx, topo, [rng.sample(range(n), 2) for _ in range(3)])
        assert cuts[0] == n - 1 and cuts[-1] == 0
        assert 0 < cuts.index(0) < len(cuts) - 1  # split before all failed

    @pytest.mark.parametrize("n", (16, 32, 64))
    @pytest.mark.parametrize("name", ("rfs", "dfs", "rob", "bal"))
    def test_loop_forcer_topologies(self, nx, name, n):
        topo = loop_forcer_topology(name, n)
        assert topo.mincut() == nx.edge_connectivity(self.graph(nx, topo))
        self.check_pairs(nx, topo, [(0, n - 1), (1, n // 2), (n - 2, n // 2 - 1)])

    @pytest.mark.parametrize(
        "sizes, bridges, dominators",
        [
            ((6, 6), (0,), 2),
            ((6, 6), (2,), 2),
            ((5, 6), (1,), 2),
            ((5, 6), (3,), 2),
            # Minimum degree floor(n/2) - 1: a pair across the two cliques
            # has 2 paths, fewer than either endpoint has links.
            ((4, 5), (2,), 2),
            ((8, 8), (2,), 2),
            ((5, 7, 6), (3, 0), 3),
            # The cheap cut is to the third clique, which the greedy set
            # reaches last: a set cut short at two nodes would answer 4.
            ((6, 6, 6), (4, 2), 3),
            ((6, 6, 6), (2, 4), 3),
        ],
    )
    def test_clique_chains_need_flows(self, nx, sizes, bridges, dominators):
        topo = clique_chain(sizes, bridges)
        d = reference_dominators(topo)
        assert len(d) == dominators
        assert all((adjacency(topo) | np.eye(topo.n, dtype=bool))[d].any(axis=0))
        g = self.graph(nx, topo)
        assert topo.mincut() == min(bridges) == nx.edge_connectivity(g)
        self.check_pairs(nx, topo, itertools.combinations(range(topo.n), 2))

    @pytest.mark.parametrize("n", (9, 10, 15, 16))
    @pytest.mark.parametrize("below", (0, 1))
    def test_disjoint_paths_at_the_degree_threshold(self, nx, flows, n, below):
        for seed in range(3):
            topo = thinned(n, n // 2 - below, seed)
            assert topo.mincut() == nx.edge_connectivity(self.graph(nx, topo))
            flows.clear()
            self.check_pairs(nx, topo, itertools.combinations(range(n), 2))
            # The degree rule answers at the threshold; below it, flows do.
            assert len(flows) == (n * (n - 1) // 2 if below else 0)


class TestMaxFlowCount:
    """How many max flows a connectivity query runs, counted, not timed."""

    @pytest.mark.parametrize("seed", range(4))
    def test_none_under_c10_random_failures(self, flows, seed):
        n = 64
        phi = random.Random(seed).randint(0, 30)
        topo = Topology(n).with_failures(adv_ran(n, phi, seed))
        assert topo.mincut() >= n - phi - 1
        for src in range(0, n - 1, 7):
            assert topo.disjoint_paths(src, n - 1) >= n - phi - 1
        assert flows == []

    @pytest.mark.parametrize("name", ("rfs", "rob", "bal"))
    def test_loop_forcer_runs_one_per_extra_dominator(self, flows, name):
        n = 64
        topo = loop_forcer_topology(name, n)
        dominators = reference_dominators(topo)
        assert topo.mincut() == n // 2 - 1
        assert 1 <= len(flows) <= len(dominators) - 1


# Run in a fresh process: networkx in this one may already have loaded scipy.
NO_SCIPY = """
import sys
from failoverlab import adversary, cli, experiments, schemes, topology

flows = []
real = topology.maximum_flow
topology.maximum_flow = lambda rows, src, dst: flows.append(src) or real(rows, src, dst)
cfg = experiments.ExperimentConfig(16, "rfs", "ran", "single", (0, 6), 2, 1)
assert len(experiments.run_sweep(cfg)) == 4
adversary.prefix_attack(schemes.gen_rfs(16, 15, 1), 15, 3)
adversary.brute_force_worst_case(schemes.gen_dfs(8, 7), 8, 7, 2)
assert cli.main(["gen-scheme", "--scheme", "dfs", "--n", "16", "--out", sys.argv[1]]) == 0
rob = adversary.loop_forcer(schemes.HopRule.ROB, 16, 15)
print(topology.Topology(16).with_failures(rob).mincut())
assert flows, "the cut ran no max flow"
loaded = [m for m in sys.modules if m.partition(".")[0] == "scipy"]
assert not loaded, loaded
"""


def test_no_scipy_module_loads_even_after_a_max_flow(tmp_path):
    """Routing, attacks, the oracle, the CLI and a cut that runs a max flow
    load no scipy module."""
    src = Path(topology.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path / "d16.txt")],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    # networkx gives the same edge connectivity for this topology
    # (TestConnectivityMatchesNetworkx::test_loop_forcer_topologies).
    assert run.stdout == "7\n"


def scipy_flow(adj: np.ndarray, src: int, dst: int) -> int:
    """scipy's max flow with a unit-capacity arc each way along every link."""
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    graph = sparse.csr_matrix(adj.astype(np.int32))
    return int(csgraph.maximum_flow(graph, src, dst).flow_value)


def draw_graph(data) -> np.ndarray:
    """A random bool adjacency on 3..40 nodes, of any density, and split in
    two unlinked sides or not."""
    n = data.draw(st.integers(3, 40), label="n")
    density = data.draw(st.sampled_from((0.0, 0.05, 0.15, 0.3, 0.5, 0.8, 1.0)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < density, 1)
    adj = upper | upper.T
    if data.draw(st.booleans(), label="split"):
        # No link between the two sides: a disconnected graph.
        side = rng.random(n) < 0.5
        adj &= side[:, None] == side[None, :]
    return adj


def ring_adjacency(n: int) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    nodes = np.arange(n)
    adj[nodes, (nodes + 1) % n] = adj[(nodes + 1) % n, nodes] = True
    return adj


def two_cliques_adjacency(n: int) -> np.ndarray:
    """Cliques on 0..n/2-1 and n/2..n-1, node v joined to v + n/2."""
    half = n // 2
    side = np.arange(n) < half
    adj = side[:, None] == side[None, :]
    nodes = np.arange(half)
    adj[nodes, nodes + half] = adj[nodes + half, nodes] = True
    np.fill_diagonal(adj, False)
    return adj


def funnel_adjacency() -> np.ndarray:
    """Node 0's neighbours 1, 2 and 3 reach node 7's neighbours 4, 5 and 6
    only through node 4: one path from 0 to 7, though each has 3 links."""
    adj = np.zeros((8, 8), dtype=bool)
    for a, b in ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (4, 7), (5, 7), (6, 7)):
        adj[a, b] = adj[b, a] = True
    return adj


class TestMaximumFlow:
    """``maximum_flow`` against networkx's ``edge_connectivity(G, s, t)`` and
    scipy's max flow, both test-only."""

    @pytest.fixture
    def nx(self):
        return pytest.importorskip("networkx")

    @staticmethod
    def check_pairs(nx, adj: np.ndarray, pairs, with_networkx: bool) -> None:
        """scipy on every pair, and networkx too unless the graph is dense
        at n=500, where it takes 1-2 s a pair."""
        rows = bit_rows(adj)
        g = nx.from_numpy_array(adj) if with_networkx else None
        for s, t in pairs:
            value = topology.maximum_flow(rows, s, t)
            assert value == scipy_flow(adj, s, t), (s, t)
            if g is not None:
                assert value == nx.edge_connectivity(g, s, t), (s, t)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_graphs_match_networkx_and_scipy(self, data):
        nx = pytest.importorskip("networkx")
        adj = draw_graph(data)
        n = len(adj)
        src, dst = data.draw(
            st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        )
        adj[src, dst] = adj[dst, src] = data.draw(st.booleans(), label="adjacent")
        value = topology.maximum_flow(bit_rows(adj), src, dst)
        assert value == nx.edge_connectivity(nx.from_numpy_array(adj), src, dst)
        assert value == scipy_flow(adj, src, dst)

    @pytest.mark.parametrize("n", (32, 64, 500))
    @pytest.mark.parametrize("name", ("rfs", "rob"))
    def test_loop_forcer_topologies(self, nx, name, n):
        topo = loop_forcer_topology(name, n)
        adj = adjacency(topo)
        pairs = [*reference_flow_pairs(topo), (0, n - 1), (1, n // 2), (n - 2, 3)]
        self.check_pairs(nx, adj, pairs, with_networkx=n < 500)

    @pytest.mark.parametrize(
        "build, pairs",
        [
            (lambda: two_cliques_adjacency(500), ((0, 250), (0, 251), (0, 1), (7, 499))),
            (lambda: ring_adjacency(500), ((0, 1), (0, 2), (0, 3), (0, 250), (9, 400))),
            (lambda: funnel_adjacency(), ((0, 7), (1, 5), (0, 4))),
        ],
        ids=["two-250-cliques", "ring-500", "funnel"],
    )
    def test_named_graphs(self, nx, build, pairs):
        adj = build()
        self.check_pairs(nx, adj, pairs, with_networkx=adj.sum() < 5000)

    @pytest.mark.parametrize(
        "build, pairs",
        [
            (lambda: ~np.eye(9, dtype=bool), itertools.combinations(range(9), 2)),
            (lambda: two_cliques_adjacency(40), ((0, 21), (3, 39), (5, 25))),
        ],
        ids=["clique-9", "two-20-cliques"],
    )
    def test_the_start_alone_gives_these_flows(self, monkeypatch, build, pairs):
        """In a clique the direct link and the two-hop paths are the whole
        flow. Across the two cliques, a matched pair has its direct link, any
        other pair two common neighbours, and the matching gives every
        further path three hops. Neither needs a residual path search."""
        adj = build()
        rows = bit_rows(adj)

        def refuse(*args):
            raise AssertionError("searched for a residual path")

        monkeypatch.setattr(topology, "_augmenting_path", refuse)
        for s, t in pairs:
            assert topology.maximum_flow(rows, s, t) == min(adj[s].sum(), adj[t].sum())

    def test_rows_are_left_unchanged(self):
        adj = ring_adjacency(12)
        rows = bit_rows(adj)
        kept = list(rows)
        assert topology.maximum_flow(rows, 0, 6) == 2
        assert rows == kept


def random_split(n: int, share: float, seed: int) -> Topology:
    links = all_links(n)
    random.Random(seed).shuffle(links)
    return Topology(n, frozenset(links[: round(share * len(links))]))


def reference_flow_pairs(topo: Topology) -> list[tuple[int, int]]:
    """The max flows of the numpy reference: d0 to every other member of
    ``reference_dominators``."""
    d0, *others = reference_dominators(topo)
    return [(d0, v) for v in others]


class TestMaxFlowPairs:
    """``mincut`` runs exactly the flows of the numpy reference, and builds
    no rows when some node keeps all its links."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: clique_chain((6, 6), (2,)),
            lambda: clique_chain((5, 7, 6), (3, 0)),
            lambda: clique_chain((6, 6, 6), (4, 2)),
            lambda: clique_chain((6, 6, 6), (2, 4)),
            lambda: thinned(16, 7, 0),
            lambda: thinned(15, 7, 1),
            lambda: thinned(32, 20, 2),
            lambda: loop_forcer_topology("rfs", 32),
            lambda: loop_forcer_topology("rob", 64),
            lambda: loop_forcer_topology("bal", 64),
            lambda: random_split(16, 0.4, 0),
            lambda: random_split(16, 0.85, 1),
            lambda: random_split(32, 0.9, 2),
            lambda: random_split(32, 1, 3),
        ],
        ids=[
            "chain-6-6", "chain-5-7-6", "chain-6-6-6-a", "chain-6-6-6-b",
            "thinned-16", "thinned-15", "thinned-32", "lf-rfs-32", "lf-rob-64",
            "lf-bal-64", "split-16-a", "split-16-b", "split-32", "split-32-all",
        ],
    )
    def test_same_flows_as_the_reference(self, flows, build):
        topo = build()
        expected = reference_flow_pairs(topo)
        topo.mincut()
        assert flows == expected

    @pytest.mark.parametrize(
        "scenario",
        [
            lambda: adv_ran(64, 30, 0),
            lambda: adv_ecl(64, 20, 63, 9),
            lambda: FailureScenario.manual(10, [(u, 9) for u in range(1, 9)]),
            lambda: FailureScenario.manual(10, [(0, 9), (1, 9)]),
        ],
        ids=["c10-ran", "ecl", "star-cut", "two-links"],
    )
    def test_a_full_degree_node_needs_no_array(self, scenario):
        scenario = scenario()
        n = scenario.n
        topo = Topology(n).with_failures(scenario)
        degrees = [topo.degree(v) for v in range(n)]
        assert n - 1 in degrees
        assert reference_flow_pairs(topo) == []
        assert topo.mincut() == min(degrees)
        if min(degrees) >= n // 2:
            assert topo.disjoint_paths(0, n - 1) == min(degrees[0], degrees[-1])
        assert "_rows" not in vars(topo)

    def test_one_row_build_serves_every_flow(self, monkeypatch):
        """Below the degree rule, one ``mincut`` and three ``disjoint_paths``
        calls hand one cached rows object to every flow, and leave it equal
        to a fresh build."""
        topo = thinned(16, 7, 0)
        passed = []
        real = topology.maximum_flow

        def recorded(rows, src, dst):
            passed.append(rows)
            return real(rows, src, dst)

        monkeypatch.setattr(topology, "maximum_flow", recorded)
        topo.mincut()
        for src, dst in ((0, 15), (1, 8), (14, 3)):
            topo.disjoint_paths(src, dst)
        assert len(passed) == len(reference_dominators(topo)) - 1 + 3
        assert all(rows is vars(topo)["_rows"] for rows in passed)
        assert list(topo._rows) == bit_rows(adjacency(topo))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_dominating_set_matches_the_numpy_reference(data):
    """The bitset greedy picks the numpy reference's members in its order,
    from any start, and their closed neighbourhoods cover every node."""
    adj = draw_graph(data)
    start = data.draw(st.integers(0, len(adj) - 1), label="start")
    chosen = topology._dominating_set(bit_rows(adj), start)
    assert chosen == reference_dominating_set(adj, start)
    assert (adj | np.eye(len(adj), dtype=bool))[chosen].any(axis=0).all()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mincut_lower_bound_property(data):
    n = data.draw(st.integers(4, 12))
    phi = data.draw(st.integers(0, n - 2))
    seed = data.draw(st.integers(0, 2**32))
    links = random.Random(seed).sample(all_links(n), phi)
    t = Topology(n, frozenset(links))
    mc = t.mincut()
    assert mc >= n - phi - 1
    # edge-disjoint path count is at least the global cut when connected
    if mc > 0:
        assert t.disjoint_paths(0, n - 1) >= mc


class TestFailureScenario:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FailureScenario(5, ((0, 1), (0, 1)))

    def test_non_canonical_rejected(self):
        with pytest.raises(ValueError):
            FailureScenario(5, ((3, 1),))

    def test_manual_canonicalizes(self):
        s = FailureScenario.manual(5, [(3, 1)])
        assert s.links == ((1, 3),)

    def test_unknown_source_tag_rejected(self):
        with pytest.raises(ValueError):
            FailureScenario(5, (), source="Gremlin")

    def test_phi_counts_links(self):
        assert FailureScenario.manual(6, [(0, 1), (2, 4)]).phi == 2

    def test_serialization_example(self):
        s = FailureScenario(8, ((0, 3), (1, 2)), "Ran", 42)
        assert s.to_text() == "n=8 source=Ran seed=42\n0 3\n1 2\n"

    def test_seedless_header(self):
        s = FailureScenario(4, ((0, 1),), "Manual")
        assert "seed=none" in s.to_text()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_bit_exact(self, data):
        n = data.draw(st.integers(3, 20))
        phi = data.draw(st.integers(0, min(10, n * (n - 1) // 2)))
        seed = data.draw(st.one_of(st.none(), st.integers(-(2**70), 2**70)))
        source = data.draw(st.sampled_from(SCENARIO_SOURCES))
        links = random.Random(data.draw(st.integers(0, 999))).sample(
            all_links(n), phi
        )
        s = FailureScenario(n, tuple(links), source, seed)
        text = s.to_text()
        back = FailureScenario.from_text(text)
        assert back == s
        assert back.to_text() == text

    @pytest.mark.parametrize(
        "build",
        [
            lambda: adv_ran(2, 1, 0),
            lambda: adv_ecl(2, 0, 1, 0),
            lambda: FailureScenario.from_text("n=2 source=Manual seed=none\n0 1\n"),
        ],
        ids=("adv_ran", "adv_ecl", "from_text"),
    )
    def test_clique_too_small_rejected(self, build):
        # Topology rejects such a clique, so no scenario may describe one.
        with pytest.raises(ValueError, match="clique size must be at least 3, got 2"):
            build()

    def test_insertion_order_preserved(self):
        s = FailureScenario(6, ((4, 5), (0, 1), (2, 3)))
        assert s.links == ((4, 5), (0, 1), (2, 3))

    @pytest.mark.parametrize("key", ("n", "source", "seed"))
    def test_missing_header_key_named(self, key):
        header = {"n": "n=5", "source": "source=Ran", "seed": "seed=3"}
        del header[key]
        text = " ".join(header.values()) + "\n0 1\n"
        with pytest.raises(ValueError, match=f"'{key}'"):
            FailureScenario.from_text(text)


    def test_header_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="repeats the 'seed' key"):
            FailureScenario.from_text("n=5 source=Ran seed=3 seed=4\n0 1\n")

    def test_header_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key 'sead'"):
            FailureScenario.from_text("n=5 source=Ran seed=3 sead=4\n0 1\n")

    def test_header_without_equals_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            FailureScenario.from_text("n=5 Ran seed=3\n0 1\n")


class TestTopologyValidation:
    def test_non_canonical_failed_link_rejected(self):
        # Stored as (3, 1), the failure would never match the canonical
        # (1, 3) that a lookup in ``failed`` uses, and would be silently
        # ignored.
        with pytest.raises(ValueError, match="canonical"):
            Topology(5, frozenset({(3, 1)}))

    def test_canonical_failed_link_kills_both_directions(self):
        t = Topology(5, frozenset({(1, 3)}))
        assert t.dead == {1: {3}, 3: {1}}

    def test_out_of_range_failed_link_rejected(self):
        with pytest.raises(ValueError):
            Topology(5, frozenset({(1, 5)}))


def test_incident_links_count():
    assert len(incident_links(9, 4)) == 8


class TestLinkQueriesMatchFailedSet:
    """``degree`` and the dead map read the per-node dead neighbours; the
    reference reads ``failed`` as unordered pairs."""

    @pytest.mark.parametrize("n", (3, 4, 5, 6, 7, 8))
    def test_every_failure_set_up_to_two_links(self, n):
        links = all_links(n)
        for k in (0, 1, 2):
            for combo in itertools.combinations(links, k):
                t = Topology(n, frozenset(combo))
                failed = {frozenset(link) for link in combo}
                for v in range(n):
                    dead = {u for u in range(n) if u != v and {u, v} in failed}
                    assert t.dead.get(v, set()) == dead, (combo, v)
                    assert t.degree(v) == n - 1 - len(dead), (combo, v)

    @pytest.mark.parametrize("u, v", [(2, 2), (0, 5), (5, 0), (-1, 2), (7, 9)])
    def test_alive_rejects_self_link_and_outside_nodes(self, u, v):
        # A pair that make_link rejects is neither alive nor failed: the
        # topology refuses it as a failed link too.
        t = Topology(5, frozenset({(0, 1)}))
        with pytest.raises(ValueError):
            make_link(u, v, t.n)
        with pytest.raises(ValueError):
            Topology(t.n, t.failed | {(u, v)})

    @pytest.mark.parametrize("v", (-1, 5, 9))
    @pytest.mark.parametrize("query", ("incident_links", "degree"))
    def test_node_queries_reject_outside_nodes(self, query, v):
        # incident_links is the module function; the method is gone.
        t = Topology(5, frozenset({(0, 1)}))
        queries = {"incident_links": lambda v: incident_links(5, v), "degree": t.degree}
        with pytest.raises(ValueError, match="outside 0..4"):
            queries[query](v)


@st.composite
def scenarios(draw) -> FailureScenario:
    n = draw(st.integers(3, 12))
    links = draw(st.lists(st.sampled_from(all_links(n)), unique=True, max_size=8))
    seed = draw(st.one_of(st.none(), st.integers(-(2**70), 2**70)))
    source = draw(st.sampled_from(SCENARIO_SOURCES))
    return FailureScenario(n, tuple(links), source, seed)


class TestScenarioTextFuzz:
    @settings(max_examples=300, deadline=None)
    @given(text=texts(scenarios().map(FailureScenario.to_text)))
    def test_garbage_raises_only_value_error(self, text):
        try:
            FailureScenario.from_text(text)
        except ValueError:
            pass
