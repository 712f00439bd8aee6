"""Forwarding simulation: per-flow paths, loop/disconnect detection, loads.

A flow whose direct link failed walks hop by hop, each hop its scheme's step
at the current node. A hop rule's step is ``next_hop``. A matrix's step
reads the flow's row with a forward-only cursor: a packet at the current
node delivers directly whenever the link to the destination is alive, and
otherwise advances the cursor past unusable entries (the destination, the
current node, or a node behind a dead link) to the next backup hop. The
cursor never rewinds, so an entry is tried at most once per flow.
``FailoverMatrix`` rejects a row that holds its source, and a hop to a node
the flow already visited is a loop.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterator, NamedTuple, Optional, Union

from .schemes import FailoverMatrix, Flow, HopRule, _flow_keys
from .topology import Link, Topology, make_link

Scheme = Union[FailoverMatrix, HopRule]
Step = Callable[[int, int, int, Collection[int]], Optional[int]]


class Status(enum.Enum):
    DELIVERED = "delivered"
    LOOP = "loop"
    DISCONNECTED = "disconnected"


class PathVerdict(NamedTuple):
    """Outcome of routing one flow.

    ``path`` is the full walk: src..dst when delivered, the walk up to and
    including the first repeated node for a loop, and the walk ending at
    the stuck node when disconnected.
    """

    flow: Flow
    status: Status
    path: tuple[int, ...]


def _stepper(scheme: Scheme, src: int, dst: int) -> Step:
    """The hop function of flow (src, dst), called as ``HopRule.next_hop``
    is: the one place that looks at the scheme kind. A hop rule's step is
    its bound ``next_hop``. A matrix's step holds a forward-only cursor over
    the flow's row and returns the next entry that is neither ``node`` nor
    in ``blocked``, or None once the row runs out; a second walk with the
    same step resumes the cursor where the first stopped."""
    if isinstance(scheme, HopRule):
        return scheme.next_hop
    # A plain (src, dst) tuple finds the Flow key without building one.
    entries = iter(scheme.rows[src, dst])

    def step(node: int, dst: int, n: int, blocked: Collection[int]) -> Optional[int]:
        for e in entries:
            if e != node and e not in blocked:
                return e
        return None

    return step


def _walk(
    step: Step,
    src: int,
    dst: int,
    n: int,
    dead: dict[int, set[int]],
    hops: list[int],
    visited: set[int],
) -> Union[list[int], Status]:
    """Append to ``hops`` the walk of a flow whose direct link failed, each
    hop ``step`` at the current node, and return ``hops`` once it ends at the
    node that delivers; or return LOOP, with the repeated node appended, or
    DISCONNECTED.

    ``dead`` is the topology's dead-neighbour map. Every node the walk
    stands on has lost its link to dst, so it is in ``dead[dst]`` and has an
    entry of its own, which holds dst: skipping the nodes that entry holds
    skips dst too. A hop outside ``dead[dst]`` delivers; any other hop is a
    LOOP if it is in ``visited``, and is added to it if not. The caller
    passes ``visited`` holding src, or the path's nodes when it resumes a
    walk at the node ``src`` an earlier walk ended on. Those nodes are all
    in ``dead[dst]``, so testing delivery first misses no loop."""
    down = dead[dst]
    current = src
    # Each hop adds a new node to visited, so the walk ends within n hops.
    while True:
        hop = step(current, dst, n, dead[current])
        if hop is None:
            return Status.DISCONNECTED
        hops.append(hop)
        if hop not in down:
            return hops
        if hop in visited:
            return Status.LOOP
        visited.add(hop)
        current = hop


def _walk_path(
    scheme: Scheme, n: int, dead: dict[int, set[int]], src: int, dst: int
) -> tuple[Status, list[int]]:
    """The status and path of a checked flow whose direct link failed, as
    ``PathVerdict`` holds them."""
    path = [src]
    walked = _walk(_stepper(scheme, src, dst), src, dst, n, dead, path, {src})
    if walked is path:
        path.append(dst)
        return Status.DELIVERED, path
    return walked, path


def _walk_verdict(
    scheme: Scheme, n: int, dead: dict[int, set[int]], flow: Flow
) -> PathVerdict:
    """The verdict of a checked flow whose direct link failed."""
    status, path = _walk_path(scheme, n, dead, *flow)
    return PathVerdict(flow, status, tuple(path))


def route_flow(scheme: Scheme, topo: Topology, flow: Flow) -> PathVerdict:
    """Route one flow: a matrix walks its row under the cursor semantics, a
    hop rule walks hop by hop and watches for revisits."""
    _check_inputs(scheme, topo.n, flow)
    src, dst = flow
    dead = topo.dead
    if src in dead and dst in dead[src]:
        return _walk_verdict(scheme, topo.n, dead, flow)
    return PathVerdict(flow, Status.DELIVERED, (src, dst))


@dataclass(frozen=True)
class SingleDest:
    """One unit of flow from every node to a fixed destination."""

    dst: int


@dataclass(frozen=True)
class AllToAll:
    """One unit of flow for every ordered node pair."""


Pattern = Union[SingleDest, AllToAll]


def _pattern_keys(pattern: Pattern, n: int) -> Iterator[Flow]:
    return _flow_keys(n, pattern.dst if isinstance(pattern, SingleDest) else None)


def pattern_flows(pattern: Pattern, n: int) -> list[Flow]:
    """Every flow of the pattern on the n-clique, ordered by src and then by
    dst: the order in which a random matrix draws its rows."""
    return list(_pattern_keys(pattern, n))


def _check_inputs(scheme: Scheme, n: int, traffic: Union[Flow, Pattern]) -> None:
    """Raise every input error of routing ``traffic``, one flow or a whole
    pattern, with ``scheme`` on the n-clique, before any flow walks.

    The first flow must join two distinct nodes in 0..n-1, which covers
    every flow of a pattern. A matrix must then match n and the pattern's
    mode and destination, and hold a row for every flow. Only a single flow
    or a partial matrix is scanned for missing rows: a valid matrix keys
    only distinct in-range pairs, to its own dst if it has one, so one that
    holds all n-1 or n(n-1) of its keys holds every flow of a pattern that
    passed the checks before."""
    single = not isinstance(traffic, (SingleDest, AllToAll))
    make_link(*(traffic if single else next(_pattern_keys(traffic, n))), n)
    if not isinstance(scheme, FailoverMatrix):
        return
    if scheme.n != n:
        raise ValueError(f"matrix n={scheme.n} does not match topology n={n}")
    if isinstance(traffic, AllToAll) and scheme.is_single_dest:
        raise ValueError("a single-destination matrix cannot serve all-to-all traffic")
    if isinstance(traffic, SingleDest) and scheme.dst not in (None, traffic.dst):
        raise ValueError(
            f"matrix destination {scheme.dst} does not match pattern "
            f"destination {traffic.dst}"
        )
    keys = n - 1 if scheme.is_single_dest else n * (n - 1)
    if single or len(scheme.rows) != keys:
        flows = (traffic,) if single else _pattern_keys(traffic, n)
        missing = next(itertools.filterfalse(scheme.rows.__contains__, flows), None)
        if missing is not None:
            scheme.row(missing)  # raises the missing-row KeyError


@dataclass
class LoadReport:
    """Per-link flow counts over delivered paths, plus verdict tallies.

    Both directions of an undirected link accumulate onto one entry.
    ``per_node`` counts delivered flows that a node forwards in transit
    (interior of the path, endpoints excluded).
    """

    per_link: dict[Link, int] = field(default_factory=dict)
    per_node: dict[int, int] = field(default_factory=dict)
    loops: int = 0
    disconnected: int = 0
    delivered: int = 0

    @property
    def max_load(self) -> int:
        return max(self.per_link.values(), default=0)

    @property
    def max_node_load(self) -> int:
        return max(self.per_node.values(), default=0)

    def link_load(self, u: int, v: int) -> int:
        return self.per_link.get(make_link(u, v), 0)

    def node_load(self, v: int) -> int:
        return self.per_node.get(v, 0)

    def to_csv(self) -> str:
        lines = ["link_a,link_b,load"]
        for (a, b), load in sorted(self.per_link.items()):
            lines.append(f"{a},{b},{load}")
        lines.append(
            f"summary,max_load={self.max_load},loops={self.loops},"
            f"disconnected={self.disconnected},delivered={self.delivered}"
        )
        return "\n".join(lines) + "\n"


def route_pattern(
    scheme: Scheme, topo: Topology, pattern: Pattern
) -> list[PathVerdict]:
    """Route every flow in the pattern independently, as ``route_flow``
    would, with every input error raised before any flow walks. A flow whose
    direct link survives is delivered over it; only the flows across a
    failed link walk, and they are not checked again."""
    n = topo.n
    _check_inputs(scheme, n, pattern)
    dead = topo.dead
    delivered = Status.DELIVERED
    return [
        _walk_verdict(scheme, n, dead, flow)
        if src in dead and dst in dead[src]
        else PathVerdict(flow, delivered, (src, dst))
        for flow in _pattern_keys(pattern, n)
        for src, dst in (flow,)
    ]


def evaluate(scheme: Scheme, topo: Topology, pattern: Pattern) -> LoadReport:
    """Route the whole pattern and aggregate per-link loads."""
    per_link: dict[Link, int] = {}
    per_node: dict[int, int] = {}
    loops = disconnected = delivered = 0
    delivered_status, loop_status = Status.DELIVERED, Status.LOOP
    for _, status, path in route_pattern(scheme, topo, pattern):
        if status is delivered_status:
            delivered += 1
            if len(path) == 2:  # the direct link, with no transit node
                u, v = path
                link = (u, v) if u < v else (v, u)
                per_link[link] = per_link.get(link, 0) + 1
                continue
            u = path[0]
            for v in path[1:]:
                link = (u, v) if u < v else (v, u)
                per_link[link] = per_link.get(link, 0) + 1
                u = v
            for v in path[1:-1]:
                per_node[v] = per_node.get(v, 0) + 1
        elif status is loop_status:
            loops += 1
        else:
            disconnected += 1
    return LoadReport(per_link, per_node, loops, disconnected, delivered)
