"""Clique substrate, failure scenarios, and exact connectivity queries.

Nodes are integers 0..n-1. Links are undirected and stored as canonically
ordered pairs (a, b) with a < b; failing a link kills both directions.

Cut queries need no array package: they read one cached view, the bitset rows
``Topology._rows`` built from the dead map. The max flow (``maximum_flow``) is
a unit-capacity flow over them. It starts from the direct link and the two-
and three-hop paths that the rows show at once, and finishes with BFS
augmenting paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

Link = tuple[int, int]

SCENARIO_SOURCES = (
    "Ran",
    "Ecl",
    "LoopForcer",
    "PrefixAttack",
    "ChainAttack",
    "Pigeonhole",
    "Manual",
    "BruteForce",
)


def make_link(a: int, b: int, n: Optional[int] = None) -> Link:
    """Canonical undirected link (smaller endpoint first)."""
    if a == b:
        raise ValueError(f"self-link ({a},{b}) is not a valid clique edge")
    if n is not None and not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"link ({a},{b}) has an endpoint outside 0..{n - 1}")
    return (a, b) if a < b else (b, a)


def parse_header(line: str, keys: tuple[str, ...], what: str) -> dict[str, str]:
    """Split a ``key=value ...`` header line holding each of keys once."""
    header: dict[str, str] = {}
    for item in line.split():
        key, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"{what} header {line!r} is not key=value pairs")
        if key not in keys:
            raise ValueError(f"{what} header has an unknown key {key!r}")
        if key in header:
            raise ValueError(f"{what} header repeats the {key!r} key")
        header[key] = value
    for key in keys:
        if key not in header:
            raise ValueError(f"{what} header is missing the {key!r} key")
    return header


def all_links(n: int) -> list[Link]:
    """All n(n-1)/2 clique links in lexicographic order."""
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def incident_links(n: int, v: int) -> list[Link]:
    """All n-1 clique links touching node v."""
    if not 0 <= v < n:
        raise ValueError(f"node {v} outside 0..{n - 1}")
    return [make_link(v, u) for u in range(n) if u != v]


@dataclass(frozen=True)
class FailureScenario:
    """An ordered set of failed links, with provenance for replay.

    The insertion order of ``links`` is preserved so adaptive adversaries
    (which fail links reactively) can be replayed step by step.
    """

    n: int
    links: tuple[Link, ...]
    source: str = "Manual"
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"clique size must be at least 3, got {self.n}")
        if self.source not in SCENARIO_SOURCES:
            raise ValueError(f"unknown scenario source tag {self.source!r}")
        seen: set[Link] = set()
        for a, b in self.links:
            link = make_link(a, b, self.n)
            if link != (a, b):
                raise ValueError(f"link ({a},{b}) is not canonically ordered")
            if link in seen:
                raise ValueError(f"duplicate link ({a},{b}) in scenario")
            seen.add(link)

    @property
    def phi(self) -> int:
        """Failure budget actually used: the number of failed links."""
        return len(self.links)

    @classmethod
    def manual(
        cls,
        n: int,
        links: Iterable[tuple[int, int]],
        source: str = "Manual",
        seed: Optional[int] = None,
    ) -> "FailureScenario":
        """Build a scenario from unordered pairs, canonicalizing each link."""
        return cls(n, tuple(make_link(a, b, n) for a, b in links), source, seed)

    def to_text(self) -> str:
        seed = "none" if self.seed is None else str(self.seed)
        lines = [f"n={self.n} source={self.source} seed={seed}"]
        lines.extend(f"{a} {b}" for a, b in self.links)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FailureScenario":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty scenario text")
        header = parse_header(lines[0], ("n", "source", "seed"), "scenario")
        n = int(header["n"])
        seed = None if header["seed"] == "none" else int(header["seed"])
        links = []
        for ln in lines[1:]:
            a, b = ln.split()
            links.append((int(a), int(b)))
        return cls(n, tuple(links), header["source"], seed)


def dead_neighbours(failed: Iterable[Link]) -> dict[int, set[int]]:
    """Per-node sets of the neighbours whose link to the node failed; a node
    with every link alive has no entry."""
    dead: dict[int, set[int]] = {}
    for a, b in failed:
        dead.setdefault(a, set()).add(b)
        dead.setdefault(b, set()).add(a)
    return dead


def maximum_flow(rows: Sequence[int], src: int, dst: int) -> int:
    """Unit-capacity max flow from src to dst, the number of edge-disjoint
    src-dst paths, over adjacency ``rows`` like ``Topology._rows``: row u has
    bit v set for each neighbour v. The rows are copied, not changed.

    Each link carries a net flow F(u, v) = -F(v, u) in {-1, 0, 1}, and the
    arc u->v has residual capacity while F(u, v) < 1: ``res[u]`` holds the
    heads of u's residual arcs as bits, and ``inv[v]`` their tails. The flow
    starts from paths read off the rows, which share no link: the direct
    link if it is alive, one two-hop path through each common neighbour,
    then a greedy set of three-hop paths src-a-b-dst with a in
    N(src) - N[dst] and b in N(dst) - N[src], each a and each b used once.
    Shortest residual paths (``_augmenting_path``) then augment it until
    none is left, or until it reaches the smaller endpoint degree, which
    bounds it.
    """
    res, inv = list(rows), list(rows)

    def push(u: int, v: int) -> None:
        if res[v] >> u & 1:  # F(u, v) goes 0 -> 1
            res[u] ^= 1 << v
            inv[v] ^= 1 << u
        else:  # F(u, v) goes -1 -> 0
            res[v] |= 1 << u
            inv[u] |= 1 << v

    s_bit, t_bit = 1 << src, 1 << dst
    out, into = rows[src], rows[dst]
    bound = min(out.bit_count(), into.bit_count())
    value = 0
    if out & t_bit:
        push(src, dst)
        value = 1
    # Every arc is still empty, so each path saturates its arcs.
    common = out & into
    value += common.bit_count()
    res[src] ^= common
    inv[dst] ^= common
    while common:
        c_bit = common & -common
        common ^= c_bit
        c = c_bit.bit_length() - 1
        res[c] ^= t_bit
        inv[c] ^= s_bit
    firsts = out & ~into & ~t_bit
    lasts = into & ~out & ~s_bit
    while firsts and lasts and value < bound:
        a_bit = firsts & -firsts
        firsts ^= a_bit
        hit = rows[a_bit.bit_length() - 1] & lasts
        if hit:
            b_bit = hit & -hit
            lasts ^= b_bit
            path = (src, a_bit.bit_length() - 1, b_bit.bit_length() - 1, dst)
            for u, v in zip(path, path[1:]):
                push(u, v)
            value += 1
    while value < bound:
        path = _augmenting_path(res, inv, src, dst)
        if path is None:
            break
        for u, v in zip(path, path[1:]):
            push(u, v)
        value += 1
    return value


def _lowest(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def _augmenting_path(
    res: list[int], inv: list[int], src: int, dst: int
) -> Optional[list[int]]:
    """A shortest src-dst path over the residual arcs ``res`` (``inv`` their
    reverse), or None. A BFS from each end keeps its levels as bitsets and
    grows the smaller frontier; the first node both have seen joins them,
    and each half is walked back level by level through its arcs.

    That node lies in the last level of both searches. Say the forward
    search finds m in backward level j, as a successor of its frontier
    node u, and j is not the last level. When the backward search grew
    level j, u was a predecessor of m: had u been seen forward, the two
    would have met then; otherwise u was or became a backward node, and
    the forward search would have met the backward one on reaching u. The
    same holds the other way round.
    """
    fwd, bwd = [1 << src], [1 << dst]
    seen_f, seen_b = fwd[0], bwd[0]
    while True:
        forward = fwd[-1].bit_count() <= bwd[-1].bit_count()
        levels, arcs = (fwd, res) if forward else (bwd, inv)
        frontier, nxt = levels[-1], 0
        while frontier:
            u_bit = frontier & -frontier
            frontier ^= u_bit
            nxt |= arcs[u_bit.bit_length() - 1]
        nxt &= ~(seen_f if forward else seen_b)
        if not nxt:
            return None
        levels.append(nxt)
        meet = nxt & (seen_b if forward else seen_f)
        if meet:
            m = _lowest(meet)
            return _walk_back(fwd, inv, m)[::-1] + _walk_back(bwd, res, m)[1:]
        if forward:
            seen_f |= nxt
        else:
            seen_b |= nxt


def _walk_back(levels: list[int], arcs: list[int], v: int) -> list[int]:
    """v, a node of the last BFS level, then one node of each lower level
    down to the root, each in the arcs of the node before it."""
    path = [v]
    for level in reversed(levels[:-1]):
        v = _lowest(level & arcs[v])
        path.append(v)
    return path


def _dominating_set(rows: Sequence[int], start: int) -> list[int]:
    """Greedy dominating set of the graph with adjacency bit ``rows``,
    beginning with ``start``: each further node is the one whose closed
    neighbourhood covers the most uncovered nodes (lowest index on ties)."""
    closed = [row | 1 << u for u, row in enumerate(rows)]
    chosen = [start]
    covered = closed[start]
    everyone = (1 << len(rows)) - 1
    while covered != everyone:
        uncovered = everyone ^ covered
        gains = [(c & uncovered).bit_count() for c in closed]
        v = gains.index(max(gains))
        chosen.append(v)
        covered |= closed[v]
    return chosen


@dataclass(frozen=True)
class Topology:
    """A clique on n nodes minus a set of failed links. Immutable."""

    n: int
    failed: frozenset[Link] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"clique size must be at least 3, got {self.n}")
        for a, b in self.failed:
            if not 0 <= a < b < self.n:
                # make_link names a self-link or an endpoint out of range.
                make_link(a, b, self.n)
                raise ValueError(f"failed link ({a},{b}) is not canonically ordered")

    @classmethod
    def clique(cls, n: int) -> "Topology":
        """Full mesh on n nodes with no failures."""
        return cls(n)

    @cached_property
    def dead(self) -> dict[int, set[int]]:
        """``dead_neighbours(self.failed)``, built on first use so that a
        topology nobody routes over costs only its link checks."""
        return dead_neighbours(self.failed)

    @cached_property
    def _rows(self) -> tuple[int, ...]:
        """Row u holds u's surviving neighbours as the bits of one int, built
        from ``dead`` on first use: the graph that the cut queries read."""
        rows = []
        for u in range(self.n):
            row = ((1 << self.n) - 1) ^ (1 << u)
            for v in self.dead.get(u, ()):
                row ^= 1 << v
            rows.append(row)
        return tuple(rows)

    def with_failures(self, scenario: FailureScenario) -> "Topology":
        """New topology with the scenario's links failed in addition."""
        if scenario.n != self.n:
            raise ValueError(
                f"scenario is for n={scenario.n}, topology has n={self.n}"
            )
        return Topology(self.n, self.failed.union(scenario.links))

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"node {v} outside 0..{self.n - 1}")
        return self.n - 1 - len(self.dead.get(v, ()))

    def _min_degree(self) -> int:
        return self.n - 1 - max(map(len, self.dead.values()), default=0)

    def mincut(self) -> int:
        """Exact global minimum edge cut of the surviving graph (0 if split).

        Matula's dominating-set lemma: let delta be the minimum degree, d0
        a node of maximum degree and D a dominating set containing d0. Then
        lambda = min(delta, min over v in D - {d0} of maxflow(d0, v)).

        Proof: suppose lambda < delta and let S be a side of a minimum cut.
        If |S| <= delta, S has at least |S|(delta - |S| + 1) >= delta edges
        leaving it, a contradiction; so |S| >= delta + 1 > lambda. At most
        lambda nodes of S have a neighbour outside S, so some node of S has
        all its neighbours in S; D dominates that node, so D meets S. The
        same holds for the other side, so some v in D lies across the cut
        from d0 and maxflow(d0, v) = lambda. A split graph gives 0: either
        delta = 0, or D reaches another component and the flow to it is 0.

        delta comes from the dead map. When some node keeps all n-1 links it
        is d0 and dominates alone, so D = {d0} and the answer is delta with
        no rows built. Otherwise d0 is the first node with the fewest dead
        neighbours, and D comes from ``_dominating_set`` on ``_rows``, which
        the flows read too. D then holds at least two nodes: d0 has lost a
        link, so its closed neighbourhood misses a node that a second member
        must cover.
        """
        delta = self._min_degree()
        if len(self.dead) < self.n:
            return delta
        start = min(range(self.n), key=lambda u: len(self.dead[u]))
        d0, *others = _dominating_set(self._rows, start)
        return min(delta, *(maximum_flow(self._rows, d0, v) for v in others))

    def disjoint_paths(self, src: int, dst: int) -> int:
        """Maximum number of edge-disjoint src-dst paths.

        When delta >= floor(n/2) (delta the minimum degree) the answer is
        min(deg src, deg dst); otherwise a unit-capacity max flow gives it.
        Degrees come from the dead map; the cached ``_rows`` are built only
        for the max flow.

        Proof of the rule: take a cut S with src in S, dst not in S, and let
        the smaller side have x <= floor(n/2) <= delta nodes. Say that side
        is S (otherwise swap the roles of src and dst). Every u in S has at
        least d(u) - x + 1 >= 1 edges leaving S, so the cut has at least
        (d(src) - x + 1) + (x - 1) = d(src) >= min(d(src), d(dst)) edges.
        The upper bound is trivial: every path uses its own link at each
        endpoint.
        """
        make_link(src, dst, self.n)
        if self._min_degree() >= self.n // 2:
            return min(self.degree(src), self.degree(dst))
        return maximum_flow(self._rows, src, dst)
