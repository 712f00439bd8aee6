"""Failover scheme generators.

Matrix-form schemes map each flow to an ordered sequence of backup nodes:
the flow forwards directly to its destination when that link is alive and
otherwise walks the sequence. Two stateless per-hop rules (``bal`` and
``rob``) are provided for comparison; they pick the next hop from the
current node's identity alone and do not guarantee loop freedom.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Any, Callable, Collection, Iterator, Mapping, NamedTuple, Optional

from .topology import parse_header

SCHEME_TAGS = ("RFS", "DFS", "Manual")

# Rerolling a permutation draw mixes the seed with this odd constant so
# successive attempts use unrelated generator states.
SEED_STRIDE = 0x9E3779B97F4A7C15


class Flow(NamedTuple):
    src: int
    dst: int


def _flow_keys(n: int, dst: Optional[int]) -> Iterator[Flow]:
    """The flows of the n-clique in key order: ``(src, dst)`` ascending, to
    ``dst`` alone when it is given. Traffic patterns list their flows, and
    random matrices draw their rows, in this order."""
    if dst is None:
        pairs: Iterator[tuple[int, int]] = itertools.permutations(range(n), 2)
    else:
        srcs = filter(functools.partial(operator.ne, dst), range(n))
        pairs = zip(srcs, itertools.repeat(dst))
    # tuple.__new__ builds each key in C, where Flow(...) runs Python code.
    return map(tuple.__new__, itertools.repeat(Flow), pairs)


@dataclass(frozen=True)
class FailoverMatrix:
    """Per-flow backup sequences.

    ``dst`` is the shared destination for single-destination matrices and
    ``None`` when the matrix carries one row per ordered node pair.
    """

    n: int
    dst: Optional[int]
    rows: Mapping[Flow, tuple[int, ...]]
    scheme: str = "Manual"
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"clique size must be at least 3, got {self.n}")
        if self.scheme not in SCHEME_TAGS:
            raise ValueError(f"unknown scheme tag {self.scheme!r}")
        if self.dst is not None and not 0 <= self.dst < self.n:
            raise ValueError(f"destination {self.dst} outside 0..{self.n - 1}")
        if isinstance(self.rows, _GeneratedRows):
            return  # valid by construction, and reading them would make them
        n, dst = self.n, self.dst
        for flow, row in self.rows.items():
            src, to = flow.src, flow.dst
            if not (0 <= src < n and 0 <= to < n):
                raise ValueError(f"row {flow} has an endpoint outside 0..{n - 1}")
            if src == to:
                raise ValueError(f"flow {flow} has identical endpoints")
            if dst is not None and to != dst:
                raise ValueError(f"row {flow} disagrees with dst={dst}")
            for e in row:
                if not 0 <= e < n:
                    raise ValueError(f"row {flow} entry {e} outside 0..{n - 1}")
            if src in row:
                raise ValueError(f"row {flow} contains its own source")

    @property
    def is_single_dest(self) -> bool:
        return self.dst is not None

    def row(self, flow: Flow) -> tuple[int, ...]:
        try:
            return self.rows[flow]
        except KeyError:
            raise KeyError(f"matrix has no row for flow {flow}") from None

    def flows(self) -> list[Flow]:
        return sorted(self.rows)

    def to_text(self) -> str:
        mode = "allpairs" if self.dst is None else f"single:{self.dst}"
        seed = "none" if self.seed is None else str(self.seed)
        lines = [f"n={self.n} mode={mode} scheme={self.scheme} seed={seed}"]
        for flow in self.flows():
            key = str(flow.src) if self.is_single_dest else f"{flow.src},{flow.dst}"
            lines.append(f"{key}: " + " ".join(str(e) for e in self.rows[flow]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FailoverMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty matrix text")
        header = parse_header(lines[0], ("n", "mode", "scheme", "seed"), "matrix")
        n = int(header["n"])
        mode = header["mode"]
        if mode == "allpairs":
            dst = None
        elif mode.startswith("single:"):
            dst = int(mode.removeprefix("single:"))
        else:
            raise ValueError(f"unknown matrix mode {mode!r}")
        seed = None if header["seed"] == "none" else int(header["seed"])
        rows: dict[Flow, tuple[int, ...]] = {}
        for ln in lines[1:]:
            key, colon, entries = ln.partition(":")
            if not colon:
                raise ValueError(f"row line {ln!r} lacks the ':' after its key")
            if "," in key:
                src, row_dst = (int(x) for x in key.split(","))
            else:
                src, row_dst = int(key), dst
            if row_dst is None:
                raise ValueError(f"row {key!r} lacks a destination")
            flow = Flow(src, row_dst)
            if flow in rows:
                raise ValueError(f"duplicate row {key.strip()!r}")
            rows[flow] = tuple(int(e) for e in entries.split())
        return cls(n, dst, rows, header["scheme"], seed)


def _shuffle_steps(n: int) -> list[tuple[int, int, int]]:
    """Fisher-Yates steps ``(i, b, k)`` for a row of the n-2 free nodes:
    position i swaps with a draw below b = i+1, taken from k-bit words."""
    return [(i, i + 1, (i + 1).bit_length()) for i in range(n - 3, 0, -1)]


def _random_row(
    nodes: list[int],
    src: int,
    dst: int,
    rng: random.Random,
    steps: list[tuple[int, int, int]],
) -> tuple[int, ...]:
    """The nodes other than src and dst, ascending, shuffled in place.
    ``nodes`` is ``list(range(n))``; every row copies the one list, so the
    rows share its int objects instead of each holding its own.

    This is ``rng.shuffle`` written out over ``getrandbits``: CPython's
    shuffle draws ``randbelow(i + 1)`` for i from the last index down to 1,
    and randbelow(b) redraws ``getrandbits(b.bit_length())`` until the value
    is below b. Doing the same draws inline replays the shuffle's output for
    a given generator state without its per-draw call overhead.
    """
    pool = nodes.copy()
    del pool[max(src, dst)], pool[min(src, dst)]
    getrandbits = rng.getrandbits
    for i, b, k in steps:
        j = getrandbits(k)
        while j >= b:
            j = getrandbits(k)
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(pool)


def _random_rows(n: int, dst: Optional[int], seed: int) -> Iterator[tuple[int, ...]]:
    """The rows of a random matrix in key order, each drawn with ``_random_row``
    from one generator seeded with ``seed``; a bad seed raises at this call."""
    rng = random.Random(seed)
    steps = _shuffle_steps(n)
    nodes = list(range(n))
    return (_random_row(nodes, src, to, rng, steps) for src, to in _flow_keys(n, dst))


def _dfs_rows(n: int, dst: int) -> Iterator[tuple[int, ...]]:
    """The rows of ``gen_dfs(n, dst)`` in key order."""
    length = dfs_row_length(n)
    return (tuple((m + (1 << k)) % n for k in range(length)) for m in range(n - 1))


class _GeneratedRows(Mapping[Flow, tuple[int, ...]]):
    """The rows of a generated matrix, made in key order on first read.

    Keys are the flows ``(src, dst)`` ascending, to ``dst`` alone when it is
    given; ``source(n, dst, *args)``, a module-level function, returns an
    iterator over the rows in that order. Reading a row makes every row
    before it that is not made yet, so any read order yields the rows of an
    eager build. ``len``, ``in`` and iteration follow from (n, dst) and make
    nothing. A first read mutates hidden state: concurrent first reads from
    threads are unsupported.
    """

    def __init__(self, n: int, dst: Optional[int], source: Callable, *args: Any):
        self._n, self._dst, self._source, self._args = n, dst, source, args
        self._made: list[tuple[int, ...]] = []
        # The rows not made yet.
        self._pending = source(n, dst, *args)

    def _index(self, key: Any) -> int:
        """The position of ``key`` in key order, or -1 when it is no key."""
        try:
            src, dst = key
            n = self._n
            if src == dst or not (0 <= src < n and 0 <= dst < n):
                return -1
            if self._dst is None:
                i = src * (n - 1) + dst - (dst > src)
            elif dst == self._dst:
                i = src - (src > dst)
            else:
                return -1
            return i if type(i) is int else operator.index(i)
        except (TypeError, ValueError):
            return -1

    def __getitem__(self, key: Any) -> tuple[int, ...]:
        i = self._index(key)
        made = self._made
        if i < len(made):
            if i < 0:
                raise KeyError(key)
            return made[i]
        made.extend(itertools.islice(self._pending, i + 1 - len(made)))
        return made[i]

    def __contains__(self, key: object) -> bool:
        return self._index(key) >= 0

    def __iter__(self) -> Iterator[Flow]:
        return _flow_keys(self._n, self._dst)

    def __len__(self) -> int:
        return self._n - 1 if self._dst is not None else self._n * (self._n - 1)

    def __reduce__(self) -> tuple[Any, ...]:
        return type(self), (self._n, self._dst, self._source, *self._args)

    def __repr__(self) -> str:
        args = ", ".join(map(repr, (self._n, self._dst, *self._args)))
        made = f"{len(self._made)} of {len(self)} rows made"
        return f"<{self._source.__name__}({args}): {made}>"


def gen_rfs(n: int, dst: int, seed: int) -> FailoverMatrix:
    """Random failover scheme: each row is a uniform random permutation of
    the nodes other than the flow's endpoints. Deterministic in (n, dst, seed).
    """
    rows = _GeneratedRows(n, dst, _random_rows, seed)
    return FailoverMatrix(n, dst, rows, "RFS", seed)


def gen_rfs_allpairs(n: int, seed: int) -> FailoverMatrix:
    """One random permutation row per ordered (src, dst) pair: n(n-1) rows.

    Rows are drawn in (src, dst) lexicographic order from a single seeded
    generator, so the full matrix replays exactly from the seed.
    """
    rows = _GeneratedRows(n, None, _random_rows, seed)
    return FailoverMatrix(n, None, rows, "RFS", seed)


def dfs_row_length(n: int) -> int:
    return int(math.log2(n))


def gen_dfs(n: int, dst: int) -> FailoverMatrix:
    """Deterministic failover scheme for destination index n-1.

    Row for source index m holds (m + 2^k) mod n at position k, for
    k = 0..floor(log2 n)-1. Entries equal to the destination are stored
    as-is; the router skips them at forwarding time. Rows are made on first
    read, in key order, and skip the per-row checks: they are valid as built.

    When n is a power of two, phi failed destination links leave every node
    with transit load L <= min(phi, max{L : L(L-1)/2 <= phi}).
    """
    if n < 4:
        raise ValueError(f"need at least 4 nodes, got {n}")
    if dst != n - 1:
        raise ValueError(
            f"this scheme is defined for destination index {n - 1}, got {dst}"
        )
    return FailoverMatrix(n, dst, _GeneratedRows(n, dst, _dfs_rows), "DFS")


@dataclass(frozen=True)
class VerifiedDraw:
    """A random matrix that passed an adversarial load check, with the
    number of rejected draws it took to find it."""

    matrix: FailoverMatrix
    redraws: int
    seed: int


class VerificationExhaustedError(RuntimeError):
    """No draw passed verification within the redraw cap.

    Carries the best (lowest adversarial load) matrix seen so far.
    """

    def __init__(self, message: str, best: FailoverMatrix, best_load: int):
        super().__init__(message)
        self.best = best
        self.best_load = best_load


def gen_rfs_verified(
    n: int,
    dst: int,
    seed: int,
    load_threshold: int,
    budget: Optional[int] = None,
    max_redraws: int = 64,
) -> VerifiedDraw:
    """Draw random matrices until one keeps the greedy attacker's load at or
    below ``load_threshold`` within ``budget`` failures.

    ``budget`` defaults to load_threshold**2, capped at the n-1 links that
    touch the destination. Draw k uses seed + k*SEED_STRIDE.
    """
    from .adversary import max_achievable_load

    if load_threshold < 1:
        raise ValueError("load threshold must be at least 1")
    if budget is not None and budget < 0:
        raise ValueError(f"attack budget must be non-negative, got {budget}")
    if max_redraws < 0:
        raise ValueError(f"max_redraws must be non-negative, got {max_redraws}")
    if budget is None:
        budget = load_threshold * load_threshold
    budget = min(budget, n - 1)
    best: Optional[FailoverMatrix] = None
    best_load: Optional[int] = None
    for attempt in range(max_redraws + 1):
        draw_seed = (seed + attempt * SEED_STRIDE) % (1 << 64)
        matrix = gen_rfs(n, dst, draw_seed)
        load = max_achievable_load(matrix, dst, budget)
        if load <= load_threshold:
            return VerifiedDraw(matrix, attempt, draw_seed)
        if best_load is None or load < best_load:
            best, best_load = matrix, load
    assert best is not None and best_load is not None  # max_redraws >= 0
    raise VerificationExhaustedError(
        f"no draw reached load <= {load_threshold} under budget {budget} "
        f"after {max_redraws + 1} attempts (best load {best_load})",
        best,
        best_load,
    )


class HopRule(enum.Enum):
    """Stateless per-hop failover rules: the next hop is a function of the
    current node, the destination and the surviving links alone."""

    BAL = "bal"
    ROB = "rob"

    def next_hop(
        self, node: int, dst: int, n: int, blocked: Collection[int]
    ) -> Optional[int]:
        """The hop taken at ``node`` when its link to ``dst`` failed, or None
        when every link at ``node`` failed. ``blocked`` holds the neighbours
        whose link to ``node`` failed. The scan runs upward mod n from
        (node+dst+1) mod n when node > dst, else from (node-dst+1) mod n,
        for ``bal``, and from node+1 for ``rob``; it takes the first node
        other than ``node`` that is not blocked."""
        if self is HopRule.BAL:
            start = (node + dst + 1) % n if node > dst else (node - dst + 1) % n
        else:
            start = node + 1
        for c in range(start, start + n):
            c %= n
            if c != node and c not in blocked:
                return c
        return None
