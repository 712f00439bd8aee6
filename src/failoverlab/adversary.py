"""Failure-scenario generators: random failure models, constructive
adversaries that attack a scheme through route queries alone, and an
exhaustive brute-force oracle for small instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, islice
from math import comb, isqrt
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .routing import (
    AllToAll,
    LoadReport,
    Pattern,
    Scheme,
    SingleDest,
    Status,
    _check_inputs,
    _stepper,
    _walk,
    _walk_path,
    evaluate,
    route_flow,
)
from .schemes import FailoverMatrix, Flow
from .topology import (
    FailureScenario,
    Link,
    Topology,
    all_links,
    dead_neighbours,
    incident_links,
    make_link,
)


class ConstructionFailedError(RuntimeError):
    """A constructive adversary finished its full construction but the
    victim flow was still delivered. This should be impossible for any
    local failover scheme; treat it as a bug in the scheme under test or
    in the construction itself."""


class SearchSpaceTooLargeError(RuntimeError):
    """Brute-force enumeration would exceed the configured scenario cap."""


def _nth_link(n: int, i: int) -> Link:
    """``all_links(n)[i]``, without the list: the links (a, b) with a < j
    come first and number j(2n - j - 1)/2."""
    a = (2 * n - 1 - isqrt((2 * n - 1) ** 2 - 8 * i)) // 2
    if a * (2 * n - a - 1) // 2 > i:
        a -= 1
    return a, i - a * (2 * n - a - 1) // 2 + a + 1


def adv_ran(n: int, phi: int, seed: int) -> FailureScenario:
    """phi distinct links drawn uniformly from all clique links.

    ``random.sample`` reads its population by position only, so sampling
    link indices draws the same links as sampling ``all_links(n)``."""
    total = n * (n - 1) // 2
    if phi > total:
        raise ValueError(f"phi={phi} exceeds the {total} links of a clique({n})")
    rng = random.Random(seed)
    chosen = [_nth_link(n, i) for i in rng.sample(range(total), phi)]
    return FailureScenario(n, tuple(chosen), "Ran", seed)


def adv_ecl(n: int, phi: int, dst: int, seed: int) -> FailureScenario:
    """phi distinct links drawn uniformly from the n-1 links at the
    destination; at least one direct link must survive."""
    if phi > n - 2:
        raise ValueError(
            f"phi={phi} would isolate the destination; at most {n - 2} of its "
            f"{n - 1} links may fail"
        )
    rng = random.Random(seed)
    chosen = rng.sample(incident_links(n, dst), phi)
    return FailureScenario(n, tuple(chosen), "Ecl", seed)


def _last_hop_rounds(scheme: Scheme, n: int, dst: int) -> Iterator[list[int]]:
    """Yield the delivered path of the victim flow (0 -> dst) on the
    n-clique, without dst; each resume fails the link from the path's last
    node into dst and yields the new delivered path, until the flow loops or
    disconnects. Its first step raises the input errors of the victim flow,
    as ``route_flow`` would, and ValueError for dst 0.

    A round resumes the walk at the node v that delivered instead of routing
    the flow again. The delivered path visits v once, and the failed link
    touches only v and dst, which every walk skips as an entry; so no
    decision before v changes, and the resumed walk is the one a fresh route
    over the new topology takes. One step serves every round, so a matrix
    walk resumes its row's cursor.

    Every failed link touches dst, and the nodes that lost theirs are exactly
    the path's nodes, so ``dead[dst]`` is also the walk's visited set."""
    if dst == 0:
        raise ValueError("the victim flow runs from node 0; pick another dst")
    _check_inputs(scheme, n, Flow(0, dst))
    hops = [0]
    dead: dict[int, set[int]] = {dst: set()}
    down = dead[dst]
    step = _stepper(scheme, 0, dst)
    while True:
        yield hops
        v = hops[-1]
        down.add(v)
        dead[v] = {dst}
        if _walk(step, v, dst, n, dead, hops, down) is not hops:
            return


def loop_forcer(scheme: Scheme, n: int, dst: int) -> FailureScenario:
    """Adaptive adversary that breaks the flow (node 0 -> dst) with at most
    n-1 failures while the surviving graph stays about n/2-connected.

    It repeatedly fails the current path's last link into the destination
    until the path has floor(n/2)-1 intermediate nodes, then cuts the last
    intermediate off from everything outside the path, leaving it only
    links that point backwards.
    """
    flow = Flow(0, dst)
    topo = Topology.clique(n)
    links: list[Link] = []
    target = n // 2 - 1
    # Every node whose link to dst failed is on the path, so a resumed walk
    # either loops back onto the path or delivers at one new node: round k
    # has k intermediates, and the path reaches the target within n rounds
    # unless the flow stops being delivered first.
    for hops in _last_hop_rounds(scheme, n, dst):
        if len(hops) - 1 >= target:
            v_k = hops[-1]
            on_path = set(hops)  # source and intermediates
            # None of these links has failed: the first phase failed only
            # links into dst, and v_k's own link into dst carries the path.
            links.extend(
                make_link(v_k, u, n) for u in range(n) if u != v_k and u not in on_path
            )
            break
        links.append(make_link(hops[-1], dst, n))

    scenario = FailureScenario(n, tuple(links), "LoopForcer")
    final = route_flow(scheme, topo.with_failures(scenario), flow)
    if final.status is Status.DELIVERED:
        raise ConstructionFailedError(
            f"flow 0->{dst} was still delivered after the full construction "
            f"({len(links)} failures); this contradicts the impossibility bound"
        )
    return scenario


@dataclass(frozen=True)
class AttackPlan:
    """A load attack: the node to overload, the rows redirected through it,
    and the failure set that does it.

    ``scenario.links`` are exactly the destination links of the chosen
    rows' sources plus the destination links of every distinct node that
    precedes the target inside a chosen row. ``achieved_load`` is measured
    by re-routing the whole traffic pattern under the scenario.
    """

    target_w: int
    chosen_rows: tuple[tuple[Flow, int], ...]  # (flow, strict prefix length)
    total_prefix_distinct: int
    scenario: FailureScenario
    achieved_load: int
    reached_target: bool

    def to_text(self) -> str:
        lines = [
            f"target_w={self.target_w}",
            f"achieved_load={self.achieved_load}",
            f"reached_target={str(self.reached_target).lower()}",
            f"total_prefix_distinct={self.total_prefix_distinct}",
            "rows:",
        ]
        for flow, k in self.chosen_rows:
            lines.append(f"{flow.src},{flow.dst} prefix_len={k}")
        lines.append("failures:")
        lines.append(self.scenario.to_text().rstrip("\n"))
        return "\n".join(lines) + "\n"


def _dst_down_walk(
    scheme: Scheme, n: int, dead: dict[int, set[int]], src: int, dst: int
) -> list[int]:
    """The nodes a checked flow (src, dst) walks through when every link at
    dst is down, ``dead`` being that topology's map: its path without the
    source and, for a loop, without the repeated node."""
    status, path = _walk_path(scheme, n, dead, src, dst)
    return path[1 : -1 if status is Status.LOOP else None]


# Row cost for a slot that holds no row or whose row is already taken. A
# node lowers a row's cost at most once per target, so this stays far above
# every real cost, which is below n.
_NO_ROW = 1 << 30
# Number of targets whose row costs are lowered as one array operation;
# bounds the planner's temporary arrays.
_CHUNK = 256


def _shallow_index(
    matrix: FailoverMatrix, dst: int, flows: Sequence[Flow], depth: int
) -> tuple[
    list[tuple[int, ...]], np.ndarray, int, np.ndarray, np.ndarray, np.ndarray
]:
    """The rows as the planner reads them down to ``depth``.

    Returns ``(heads, cell, stride, cost, masks, deep)``:
    - ``heads[r]``: the first ``depth`` nodes of ``flows[r]``'s walk when
      every destination link is down (``_dst_down_walk``);
    - ``cell[w, k]``: slot k of node w, ``r * stride + p`` for the row r
      holding w at position p < ``depth``, slots in flow order;
    - ``cost[w, k]``: p + 1, the destination links the slot's row needs
      failed (its source and the p entries before w), or ``_NO_ROW`` past
      w's last slot;
    - ``masks[j, w, k]``: word j of the bitset of those nodes;
    - ``deep[w]``: some row may hold w at ``depth`` or below, that is, some
      row longer than ``depth`` holds w neither in its head nor as its
      source.
    """
    n = matrix.n
    heads, longer = [], []
    dead = None
    for f in flows:
        row = matrix.rows[f]
        head = row[:depth]
        # A head of distinct entries that avoid src and dst is the walk.
        if len({f.src, dst, *head}) != len(head) + 2:
            dead = dead or dead_neighbours(incident_links(n, dst))
            row = _dst_down_walk(matrix, n, dead, f.src, dst)
            head = row[:depth]
        heads.append(head)
        longer.append(len(row) > depth)
    n_rows = len(heads)
    lengths = np.fromiter(map(len, heads), dtype=np.intp, count=n_rows)
    total = int(lengths.sum())
    nodes = np.fromiter(chain.from_iterable(heads), dtype=np.intp, count=total)
    srcs = np.fromiter((f.src for f in flows), dtype=np.intp, count=n_rows)
    # Cell r * stride + p stands for row r's source and first p entries:
    # the nodes a target at position p needs failed.
    stride = int(lengths.max(initial=0)) + 1
    firsts = np.arange(n_rows) * stride
    cells = np.repeat(firsts - (np.cumsum(lengths) - lengths), lengths)
    cells += np.arange(total)
    # Stable, so each node's entries stay in flow order.
    order = np.argsort(nodes.astype(np.min_scalar_type(n)), kind="stable")
    counts = np.bincount(nodes, minlength=n)
    width = max(int(counts.max(initial=0)), 1)
    slots = nodes[order] * width + np.arange(total)
    slots -= np.repeat(np.cumsum(counts) - counts, counts)
    cell = np.zeros((n, width), dtype=np.intp)
    cell.reshape(-1)[slots] = cells[order]
    cost = np.full((n, width), _NO_ROW, dtype=np.int32)
    cost.reshape(-1)[slots] = cells[order] % stride + 1
    del slots
    longer = np.array(longer, dtype=bool)
    deep = longer.sum() - np.bincount(srcs[longer], minlength=n)
    deep -= np.bincount(nodes[np.repeat(longer, lengths)], minlength=n)
    words = (n + 63) // 64
    masks = np.empty((words, n, width), dtype=np.uint64)
    acc = np.empty(n_rows * stride, dtype=np.uint64)
    one = np.uint64(1)
    # ``order`` sorts the entries by node, so each word's are contiguous.
    bounds = np.searchsorted(nodes[order], np.arange(0, 64 * words + 1, 64))
    for j in range(words):
        acc.fill(0)
        mine = srcs >> 6 == j
        acc[firsts[mine]] = one << (srcs[mine] & 63).astype(np.uint64)
        entries = order[bounds[j] : bounds[j + 1]]
        acc[cells[entries] + 1] = one << (nodes[entries] & 63).astype(np.uint64)
        rows = acc.reshape(n_rows, stride)
        np.bitwise_or.accumulate(rows, axis=1, out=rows)
        masks[j] = acc[cell]
    return heads, cell, stride, cost, masks, deep > 0


def _best_target(
    matrix: FailoverMatrix,
    dst: int,
    max_rows: Optional[int] = None,
    budget: Optional[int] = None,
) -> tuple[int, list[tuple[Flow, int, tuple[int, ...]]]]:
    """The overload node w and its greedy rows, each as (flow, strict
    prefix length, prefix): most rows first, then fewest failures, then
    smallest w.

    For every target w at once, the greedy repeatedly takes the row through
    w that adds the fewest nodes to w's failed set F_w, ties going to the
    smaller (src, dst). A target stops at ``max_rows`` rows, when no row
    through it is left, or when its cheapest row would take F_w past
    ``budget``. Each row's cost drops by one when a node it needs joins F_w;
    a round lowers the costs of every target's rows at once, as popcounts of
    bitsets.

    A row holding w at position p costs at least p + 1 - |F_w|, so the
    planner reads the rows only down to a depth D (``_shallow_index``):
    - with a budget, D = budget: a deeper row never fits it;
    - with ``max_rows`` = L, D starts at 2L. A target that may hold a row
      below D leaves the pass when its cheapest shallow row would take |F_w|
      past D, or when it has no shallow row left: its next pick is unknown,
      but would take |F_w| past D. The pass stands when no target left it,
      or when the best of the others has L rows and at most D failures;
      otherwise D doubles. Once D reaches the longest row, no target leaves.
    """
    flows = matrix.flows()
    n = matrix.n
    targets = np.delete(np.arange(n), dst)
    depth = budget if max_rows is None else 2 * max_rows
    while True:
        heads, cell, stride, cost, masks, deep = _shallow_index(
            matrix, dst, flows, depth
        )
        # ``ids`` are the targets still planning; cost and failed hold
        # their rows only.
        ids = targets
        cost = cost[ids]
        failed = np.zeros((masks.shape[0], ids.size), dtype=np.uint64)
        n_failed = np.zeros(n, dtype=np.intp)
        n_picked = np.zeros(n, dtype=np.intp)
        picks = np.zeros(cell.shape, dtype=np.intp)
        left = np.zeros(n, dtype=bool)
        # Every target still planning has taken one row per round.
        while ids.size and n_picked[ids[0]] != max_rows:
            slots = cost.argmin(axis=1)  # the first of equal costs wins
            row_cost = cost[np.arange(ids.size), slots]
            has_row = row_cost < n
            go = has_row & (n_failed[ids] + row_cost <= depth)
            if max_rows is not None:
                left[ids[deep[ids] & ~go]] = True
                go |= has_row & ~deep[ids]
            if not go.all():
                ids, slots, row_cost = ids[go], slots[go], row_cost[go]
                cost, failed = cost[go], failed[:, go]
                if not ids.size:
                    break
            picks[ids, n_picked[ids]] = slots
            n_picked[ids] += 1
            n_failed[ids] += row_cost
            cost[np.arange(ids.size), slots] = _NO_ROW
            fresh = masks[:, ids, slots] & ~failed
            failed |= fresh
            for i in range(0, ids.size, _CHUNK):
                part = slice(i, i + _CHUNK)
                drop = np.zeros(cost[part].shape, dtype=np.int32)
                for j, word in enumerate(fresh[:, part, None]):
                    drop += np.bitwise_count(masks[j, ids[part]] & word)
                cost[part] -= drop
        stayed = targets[~left[targets]]
        if stayed.size:  # a stable sort: ties go to the smaller node
            t = int(stayed[np.lexsort((n_failed[stayed], -n_picked[stayed]))[0]])
            if not left.any() or (n_picked[t] == max_rows and n_failed[t] <= depth):
                break
        depth *= 2
    chosen = []
    for k in picks[t, : n_picked[t]].tolist():
        r, p = divmod(int(cell[t, k]), stride)
        chosen.append((flows[r], p, heads[r][:p]))
    return t, chosen


def _verify_plan(
    matrix: FailoverMatrix,
    dst: int,
    w: int,
    chosen: Sequence[tuple[Flow, int, tuple[int, ...]]],
) -> tuple[FailureScenario, int]:
    """Materialize the failure set of a greedy selection (each row's
    source, then the nodes the row tries before w) and measure the transit
    load it actually puts on w."""
    links: list[Link] = []
    seen: set[Link] = set()
    for flow, _, prefix in chosen:
        for p in (flow.src, *prefix):
            link = make_link(p, dst, matrix.n)
            if link not in seen:
                seen.add(link)
                links.append(link)
    scenario = FailureScenario(matrix.n, tuple(links), "PrefixAttack")
    topo = Topology.clique(matrix.n).with_failures(scenario)
    report = evaluate(matrix, topo, SingleDest(dst))
    return scenario, report.node_load(w)


def _check_attack(scheme: Scheme, pattern: Pattern, attack: str) -> None:
    """Raise ValueError unless ``scheme`` is a matrix of the pattern's mode,
    then every input error of routing the pattern with it, before the attack
    plans anything."""
    single = isinstance(pattern, SingleDest)
    if not isinstance(scheme, FailoverMatrix) or scheme.is_single_dest != single:
        mode = "a single-destination" if single else "an all-pairs"
        raise ValueError(f"the {attack} needs {mode} matrix")
    _check_inputs(scheme, scheme.n, pattern)


def prefix_attack(
    matrix: FailoverMatrix, dst: int, target_load: int
) -> AttackPlan:
    """Pick the overload node w and the rows to redirect through it so
    that failing only destination links brings ``target_load`` flows to w
    as cheaply as the greedy selection manages.

    If no node appears in enough rows the best plan found is returned
    with ``reached_target`` false.
    """
    _check_attack(matrix, SingleDest(dst), "prefix attack")
    if not 1 <= target_load <= matrix.n - 1:
        raise ValueError(f"target load must be in 1..{matrix.n - 1}")
    w, chosen = _best_target(matrix, dst, max_rows=target_load)
    scenario, achieved = _verify_plan(matrix, dst, w, chosen)
    prefix_nodes = {e for _, _, prefix in chosen for e in prefix}
    return AttackPlan(
        target_w=w,
        chosen_rows=tuple((flow, k) for flow, k, _ in chosen),
        total_prefix_distinct=len(prefix_nodes),
        scenario=scenario,
        achieved_load=achieved,
        reached_target=len(chosen) >= target_load and achieved >= target_load,
    )


def max_achievable_load(matrix: FailoverMatrix, dst: int, budget: int) -> int:
    """Greedy lower bound on the worst transit load an adversary gets by
    failing at most ``budget`` destination links. Used to vet random draws.
    """
    _check_attack(matrix, SingleDest(dst), "prefix attack")
    if budget < 0:
        raise ValueError(f"attack budget must be non-negative, got {budget}")
    if budget == 0:
        return 0
    w, chosen = _best_target(matrix, dst, budget=budget)
    if not chosen:
        return 0
    return _verify_plan(matrix, dst, w, chosen)[1]


@dataclass(frozen=True)
class ChainAttackResult:
    """Outcome of the adaptive last-hop attack.

    ``completed`` is false when the victim flow looped or disconnected
    before the budget ran out (the scheme lost correctness first); the
    scenario then holds the failures applied up to that point.
    """

    scenario: FailureScenario
    budget: int
    rounds_completed: int
    final_status: Status

    @property
    def completed(self) -> bool:
        return self.rounds_completed == self.budget

    @property
    def broke_scheme(self) -> bool:
        return self.final_status is not Status.DELIVERED


def chain_attack(scheme: Scheme, n: int, dst: int, phi: int) -> ChainAttackResult:
    """Fail the last link of the victim flow's current path, phi times.

    Against a destination-based scheme every upstream node on the final
    path shares the same route, so the last link carries at least phi
    flows afterwards.
    """
    if not 0 < phi < n:
        raise ValueError(f"failure budget must satisfy 0 < phi < n, got phi={phi}")
    flow = Flow(0, dst)
    topo = Topology.clique(n)
    links = [
        make_link(hops[-1], dst, n)
        for hops in islice(_last_hop_rounds(scheme, n, dst), phi)
    ]
    scenario = FailureScenario(n, tuple(links), "ChainAttack")
    final = route_flow(scheme, topo.with_failures(scenario), flow)
    return ChainAttackResult(scenario, phi, len(links), final.status)


def pigeonhole_attack(matrix: FailoverMatrix, phi: int) -> AttackPlan:
    """All-pairs attack: find the node that is most often a row's first
    backup hop, its first entry other than the flow's destination, and fail
    the direct link of phi rows whose first backup hop it is; each failure
    marches one more flow through that node."""
    _check_attack(matrix, AllToAll(), "pigeonhole attack")
    if not 0 < phi <= matrix.n - 1:
        raise ValueError(f"phi must be in 1..{matrix.n - 1}")
    first_hops = {
        flow: hop
        for flow, row in matrix.rows.items()
        if (hop := next((e for e in row if e != flow.dst), None)) is not None
    }
    if not first_hops:
        raise ValueError("no row of the matrix holds a backup hop to attack through")
    counts: dict[int, int] = {}
    for first in first_hops.values():
        counts[first] = counts.get(first, 0) + 1
    w = min(counts, key=lambda v: (-counts[v], v))
    chosen: list[tuple[Flow, int]] = []
    links: list[Link] = []
    seen: set[Link] = set()
    for flow in matrix.flows():
        if len(chosen) == phi:
            break
        if first_hops.get(flow) != w:
            continue
        link = make_link(flow.src, flow.dst, matrix.n)
        if link in seen:
            # The reverse pair shares this undirected link; its flow is
            # already redirected for free.
            continue
        seen.add(link)
        links.append(link)
        chosen.append((flow, 0))
    scenario = FailureScenario(matrix.n, tuple(links), "Pigeonhole")
    topo = Topology.clique(matrix.n).with_failures(scenario)
    report = evaluate(matrix, topo, AllToAll())
    return AttackPlan(
        target_w=w,
        chosen_rows=tuple(chosen),
        total_prefix_distinct=0,
        scenario=scenario,
        achieved_load=report.node_load(w),
        reached_target=len(chosen) == phi and report.node_load(w) >= phi,
    )


@dataclass(frozen=True)
class BruteForceResult:
    """Exhaustive worst case over every failure set up to the budget."""

    max_link_load: int
    max_link_scenario: FailureScenario
    max_link_report: LoadReport
    max_node_load: int
    max_node_scenario: FailureScenario
    min_break_budget: Optional[int]  # smallest size forcing a loop/disconnect
    scenarios_tested: int
    # Entry k: the worst node load over the failure sets of exactly k links.
    max_node_load_by_size: tuple[int, ...]


# Failure sets of one size scored together: a batch's arrays grow with
# _BATCH * (n - 1) * budget for the prefix walks and with _BATCH * n^2 / 2
# for the link walks.
_BATCH = 512

# Per failure set, as arrays over a batch: the max link load, the max node
# load, and whether some flow looped or was disconnected.
_Scores = tuple[np.ndarray, np.ndarray, np.ndarray]


def _combinations(m: int) -> Iterator[np.ndarray]:
    """The k-subsets of range(m) for k = 0, 1, 2, ..., each size as one
    array with a set per row, in ``itertools.combinations`` order and the
    smallest unsigned dtype that holds m.

    Each size extends every set of the size before by each larger element,
    in increasing order, which keeps that order."""
    sets = np.zeros((1, 0), dtype=np.min_scalar_type(m))
    while True:
        yield sets
        if sets.shape[1]:
            low = sets[:, -1].astype(np.intp) + 1
        else:
            low = np.zeros(1, dtype=np.intp)
        counts = m - low
        starts = np.cumsum(counts) - counts
        grown = np.empty((int(counts.sum()), sets.shape[1] + 1), dtype=sets.dtype)
        grown[:, :-1] = np.repeat(sets, counts, axis=0)
        grown[:, -1] = np.arange(len(grown)) - np.repeat(starts - low, counts)
        sets = grown


def _tally(flat: list[int], rows: int, cols: int) -> np.ndarray:
    """A rows x cols count of the flat indices row * cols + col."""
    counts = np.bincount(np.array(flat, dtype=np.intp), minlength=rows * cols)
    return counts.reshape(rows, cols)


class _PrefixWalks:
    """Scores failure sets of destination links under the pattern
    SingleDest(dst), as rows of indices into ``incident_links(n, dst)``.

    With only links at dst down, a matrix walk skips just dst and its
    current node, and a hop rule's next hop at v is next_hop(v, dst, n,
    {dst}): neither depends on which of those links failed. So under the
    down-set X, the walk of a source s in X is a prefix of W_s, its walk
    when every link at dst is down: it runs up to and including the first
    node of W_s outside X, which delivers. If X holds all of W_s, the flow
    ends as W_s does, in a loop or a disconnect. A source outside X goes
    direct.

    A set of k links takes down s and at most k - 1 nodes of W_s, whose
    nodes are distinct, so its walks stop within the first k positions: at
    a node of W_s, or just past the end of a shorter W_s.
    """

    def __init__(self, scheme: Scheme, n: int, dst: int, budget: int) -> None:
        dead = dead_neighbours(incident_links(n, dst))
        sources = [v for v in range(n) if v != dst]
        # evaluate has checked the inputs.
        walks = [_dst_down_walk(scheme, n, dead, s, dst) for s in sources]
        self.n, self.dst = n, dst
        self.sources = np.array(sources, dtype=np.intp)
        self.longest = max(map(len, walks), default=0)
        width = min(budget, self.longest + 1)
        # walk[p, i] is node p of the i-th source's walk, and n past its end:
        # row n of the scenarios' up-mask is always set, so a walk that runs
        # out stops there, where ``ran_out`` marks it.
        walk = np.full((width, len(sources)), n, dtype=np.intp)
        ran_out = np.zeros((width, len(sources), 1), dtype=bool)
        # Ids of the links between two nodes other than dst, in the order the
        # walks first use them.
        link_ids: dict[Link, int] = {}
        steps = np.zeros(walk.shape, dtype=np.intp)
        for i, (s, w) in enumerate(zip(sources, walks)):
            for p, (u, v) in enumerate(zip((s, *w), w[:width])):
                walk[p, i] = v
                steps[p, i] = link_ids.setdefault(make_link(u, v), len(link_ids))
            if len(w) < width:
                ran_out[len(w), i] = True
        self.walk, self.ran_out = walk, ran_out
        # Each set's counts fill one column of a (slot, set) table. The slots
        # are the transit load of each node, then the load of each node's
        # link to dst, then the other links.
        self.slots = 2 * n + len(link_ids)
        self._node_slot = walk.ravel()
        self._step_slot = steps.ravel() + 2 * n

    def score(self, chunk: np.ndarray) -> _Scores:
        n, (b, k) = self.n, chunk.shape
        width = min(k, self.longest + 1)
        walk, ran_out = self.walk[:width], self.ran_out[:width]
        up = np.ones((n + 1, b), dtype=bool)
        up[self.dst] = False
        up[self.sources[chunk], np.arange(b)[:, None]] = False
        # hit[p, i, j]: node p of walk i is up in set j. visit: the walk gets
        # to node p; it leaves at the first node that is up.
        hit = up[walk]
        visit = np.empty_like(hit)
        visit[0] = ~up[self.sources]
        for p in range(1, width):
            visit[p] = visit[p - 1] & ~hit[p - 1]
        leave = visit & hit
        stuck = (leave & ran_out).any(axis=0)
        leave &= ~ran_out
        visit &= ~stuck
        # A bin is slot * b + set, one per node a delivered walk visits, per
        # link it takes and per node it leaves from. A flat index into
        # visit or leave is (position, walk) * b + set.
        at, j = np.divmod(np.flatnonzero(visit), b)
        exit_at, exit_j = np.divmod(np.flatnonzero(leave), b)
        bins = np.concatenate(
            (
                self._node_slot[at] * b + j,
                self._step_slot[at] * b + j,
                (self._node_slot[exit_at] + n) * b + exit_j,
            )
        )
        counts = np.bincount(bins, minlength=self.slots * b).reshape(self.slots, b)
        counts[n : 2 * n] += up[:n]
        return counts[n:].max(axis=0), counts[:n].max(axis=0), stuck.any(axis=0)


class _LinkWalks:
    """Scores failure sets of any candidate links under any pattern, as rows
    of indices into the candidates.

    Failing link l makes the flows across it walk: (a, b) and (b, a) under
    AllToAll, and (v, d) under SingleDest(d) when l = (v, d). Each
    candidate's flows are walked once over the clique minus {l}, recording
    the loads they add to each link and node, whether one of them loops or
    disconnects, and the links they read. With l alone down, a walk skips
    only l, and only its source has lost its link to the destination, so it
    stops at the source or takes one hop and delivers: it reads l and the
    links along it.

    A set is separable when no member's walks read another member. Then
    every link a walk reads answers as under {l} alone, so each walk is
    unchanged, and the set's loads are the direct loads of its surviving
    links plus its members' loads. Any other set is walked again whole: its
    members' flows, over the clique minus every member.
    """

    def __init__(
        self, scheme: Scheme, n: int, candidates: Sequence[Link], pattern: Pattern
    ) -> None:
        self.scheme, self.n, self.candidates = scheme, n, candidates
        m, links = len(candidates), all_links(n)
        # Each link's slot, under both orders of its ends.
        self.slot_of = {x: i for i, ab in enumerate(links) for x in (ab, ab[::-1])}
        if isinstance(pattern, SingleDest):
            d = pattern.dst
            self.base = np.array([d in link for link in links], dtype=np.intp)
            self.flows = [
                [(a + b - d, d)] if d in (a, b) else [] for a, b in candidates
            ]
        else:
            self.base = np.full(len(links), 2, dtype=np.intp)
            self.flows = [[(a, b), (b, a)] for a, b in candidates]
        self.slot = np.array([self.slot_of[x] for x in candidates], dtype=np.intp)
        index = {x: i for i, x in enumerate(self.slot.tolist())}
        self.broken = np.zeros(m, dtype=bool)
        # Flat (candidate, column) indices: each link a delivered walk takes,
        # each node it passes and each candidate a walk reads.
        on_walk: list[int] = []
        in_transit: list[int] = []
        read: list[int] = []
        for i in range(m):
            slots, nodes, reads, self.broken[i] = self._walk([i])
            on_walk += [i * len(links) + x for x in slots]
            in_transit += [i * n + v for v in nodes]
            read += [i * m + index[x] for x in reads if x in index]
        self.link_delta = _tally(on_walk, m, len(links))
        self.node_delta = _tally(in_transit, m, n)
        reads = _tally(read, m, m) > 0
        self.conflict = reads | reads.T

    def _walk(
        self, members: Sequence[int]
    ) -> tuple[list[int], list[int], list[int], bool]:
        """Walk the flows across the member candidates over the clique minus
        every member: the link slots that delivered walks take, the nodes
        they pass, the slots of the links every walk reads, and whether some
        walk loops or disconnects."""
        dead = dead_neighbours(self.candidates[i] for i in members)
        slots: list[int] = []
        nodes: list[int] = []
        reads: list[int] = []
        broken = False
        for i in members:
            for src, dst in self.flows[i]:
                # evaluate has checked the inputs.
                status, path = _walk_path(self.scheme, self.n, dead, src, dst)
                steps = [self.slot_of[x] for x in zip(path, path[1:])]
                reads += steps
                if status is Status.DELIVERED:
                    slots += steps
                    nodes += path[1:-1]
                else:
                    broken = True
        return slots, nodes, reads, broken

    def score(self, chunk: np.ndarray) -> _Scores:
        b, k = chunk.shape
        link_load = self.base + self.link_delta[chunk[:, 0]]
        node_load = self.node_delta[chunk[:, 0]]
        tangled = np.zeros(b, dtype=bool)
        for p in range(1, k):
            link_load += self.link_delta[chunk[:, p]]
            node_load += self.node_delta[chunk[:, p]]
            for q in range(p):
                tangled |= self.conflict[chunk[:, q], chunk[:, p]]
        link_load[np.arange(b)[:, None], self.slot[chunk]] = 0
        max_load, max_node_load = link_load.max(axis=1), node_load.max(axis=1)
        broken = self.broken[chunk].any(axis=1)
        base, slot = self.base.tolist(), self.slot.tolist()
        for i in np.flatnonzero(tangled).tolist():
            members = chunk[i].tolist()
            slots, nodes, _, broken[i] = self._walk(members)
            loads = base.copy()
            for x in slots:
                loads[x] += 1
            for c in members:
                loads[slot[c]] = 0
            transit = [0] * self.n
            for v in nodes:
                transit[v] += 1
            max_load[i], max_node_load[i] = max(loads), max(transit)
        return max_load, max_node_load, broken


def brute_force_worst_case(
    scheme: Scheme,
    n: int,
    dst: int,
    budget: int,
    restrict_to_dst_links: bool = True,
    cap: int = 10_000_000,
    pattern: Optional[Pattern] = None,
) -> BruteForceResult:
    """Try every failure set of size 0..budget and report the worst loads.

    The link-load winner is taken among scenarios that keep every flow
    delivered; node load is tracked across all scenarios. Either winner is
    the first set, in order of size and then of combination, that reaches
    its maximum. Refuses to run when the enumeration would exceed ``cap``
    scenarios.

    The scheme is checked against n and the pattern, as ``evaluate`` checks
    it, before the scenarios are counted. The empty set needs no walk: every
    flow goes direct, one per link under SingleDest and two under AllToAll.
    Each larger size's sets are scored in numpy batches. Destination-link
    sets under the pattern SingleDest(dst) are prefixes of each flow's walk
    with every destination link down. Any other set is the sum of its
    members' single-link walks when no member's walks read another member;
    only the sets that are not separable this way are walked again whole,
    by the same walk. A set becomes a tuple of candidate indices only when
    it wins, and only the link-load winner, empty or not, is routed through
    ``evaluate``, once, for its report.
    """
    if budget < 0:
        raise ValueError(f"failure budget must be non-negative, got {budget}")
    if not 0 <= dst < n:
        raise ValueError(f"destination {dst} outside 0..{n - 1}")
    if isinstance(scheme, FailoverMatrix) and scheme.dst not in (None, dst):
        raise ValueError(f"matrix is for destination {scheme.dst}, not {dst}")
    topo = Topology(n)  # rejects n < 3 before the pattern's first flow is read
    if pattern is None:
        if isinstance(scheme, FailoverMatrix) and not scheme.is_single_dest:
            pattern = AllToAll()
        else:
            pattern = SingleDest(dst)
    _check_inputs(scheme, n, pattern)
    candidates = incident_links(n, dst) if restrict_to_dst_links else all_links(n)
    total = sum(comb(len(candidates), k) for k in range(budget + 1))
    if total > cap:
        raise SearchSpaceTooLargeError(
            f"{total} scenarios exceed the cap of {cap}; raise the cap or "
            f"shrink the budget"
        )
    direct = 1 if isinstance(pattern, SingleDest) else 2
    best_link: tuple[int, tuple[int, ...]] = (direct, ())
    best_node: tuple[int, tuple[int, ...]] = (0, ())
    by_size = [0]
    min_break: Optional[int] = None
    walks: Union[_PrefixWalks, _LinkWalks]
    if restrict_to_dst_links and pattern == SingleDest(dst):
        walks = _PrefixWalks(scheme, n, dst, budget)
    else:
        walks = _LinkWalks(scheme, n, candidates, pattern)
    sizes = islice(_combinations(len(candidates)), 1, budget + 1)
    for k, sets in enumerate(sizes, start=1):
        worst_node = 0
        for start in range(0, len(sets), _BATCH):
            chunk = sets[start : start + _BATCH]
            max_load, max_node_load, broken = walks.score(chunk)
            if min_break is None and broken.any():
                min_break = k
            i = int(max_node_load.argmax())
            worst_node = max(worst_node, int(max_node_load[i]))
            if max_node_load[i] > best_node[0]:
                best_node = (int(max_node_load[i]), tuple(chunk[i].tolist()))
            link_load = np.where(broken, -1, max_load)
            i = int(link_load.argmax())
            if link_load[i] > best_link[0]:
                best_link = (int(link_load[i]), tuple(chunk[i].tolist()))
        by_size.append(worst_node)

    def scenario(chosen: tuple[int, ...]) -> FailureScenario:
        return FailureScenario(n, tuple(candidates[i] for i in chosen), "BruteForce")

    link_scenario = scenario(best_link[1])
    return BruteForceResult(
        max_link_load=best_link[0],
        max_link_scenario=link_scenario,
        max_link_report=evaluate(scheme, topo.with_failures(link_scenario), pattern),
        max_node_load=best_node[0],
        max_node_scenario=scenario(best_node[1]),
        min_break_budget=min_break,
        scenarios_tested=total,
        max_node_load_by_size=tuple(by_size),
    )
