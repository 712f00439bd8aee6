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
    random matrices take their rows' draws, in this order."""
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


def _shuffle_steps(n: int) -> list[tuple[int, int]]:
    """Fisher-Yates steps ``(i, k)`` for a row of the n-2 free nodes:
    position i swaps with a draw of at most i, taken from k-bit words, where
    k is the bit length of i + 1."""
    return [(i, (i + 1).bit_length()) for i in range(n - 3, 0, -1)]


def _random_row(
    nodes: list[int],
    src: int,
    dst: int,
    rng: random.Random,
    steps: list[tuple[int, int]],
) -> tuple[tuple[int, ...], int]:
    """The nodes other than src and dst, ascending, shuffled in place, and
    the number of 32-bit words the shuffle took from ``rng``. ``nodes`` is
    ``list(range(n))``; every row copies the one list, so the rows share its
    int objects instead of each holding its own.

    This is ``rng.shuffle`` written out over ``getrandbits``: CPython's
    shuffle draws ``randbelow(i + 1)`` for i from the last index down to 1,
    and randbelow(b) redraws ``getrandbits(b.bit_length())`` until the value
    is below b. Doing the same draws inline replays the shuffle's output for
    a given generator state without its per-draw call overhead. Each draw
    asks for at most 32 bits, which takes one word.
    """
    pool = nodes.copy()
    del pool[max(src, dst)], pool[min(src, dst)]
    getrandbits = rng.getrandbits
    words = len(steps)
    for i, k in steps:
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
            words += 1
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(pool), words


def _skip_row(rng: random.Random, steps: list[tuple[int, int]]) -> int:
    """Move ``rng`` past one row and return the words it took: the draws and
    rejections of ``_random_row``, with no row made."""
    getrandbits = rng.getrandbits
    words = len(steps)
    for i, k in steps:
        while getrandbits(k) > i:
            words += 1
    return words


# In 32-bit words: the most that one getrandbits call of _jump takes (a
# 32 KiB int, about 60 us), and the spacing of the states that the cursor of
# _random_rows keeps (22 KiB each).
_STRIDE = 8192


def _jump(rng: random.Random, words: int) -> None:
    """Move ``rng`` forward by ``words`` 32-bit words. CPython's
    ``getrandbits(32 * m)`` fills its result one word at a time, so it
    takes exactly m words."""
    while words > 0:
        m = min(words, _STRIDE)
        rng.getrandbits(32 * m)
        words -= m


def _random_rows(
    n: int, dst: Optional[int], seed: int
) -> Callable[[int, tuple[int, int]], tuple[int, ...]]:
    """The row of flow ``(src, dst)`` at position i of a random matrix's key
    order, on call with i and the flow: the row that ``_random_row`` would
    draw there if one generator seeded with ``seed`` drew every row in key
    order. A bad seed raises at this call. The caller asks for each row
    once.

    The generator moves only forward. A call past its next row skips the
    rows in between with ``_skip_row`` and records where each one starts:
    the words the generator had taken before it. A skipped row asked for
    later is drawn by a second generator, the cursor, seeded alike, which
    jumps over the words before the row. So ascending calls move the
    cursor forward once in all. A row behind the cursor, or past a state
    kept ahead of it, restarts the cursor from the last state kept at or
    before the row: the seed's, or one that an earlier restart kept every
    ``_STRIDE`` words past the states kept before it. So within the words
    that restarts have covered, a call jumps at most ``_STRIDE`` words.
    """
    rng = random.Random(seed)
    steps = _shuffle_steps(n)
    nodes = list(range(n))
    starts: dict[int, int] = {}  # skipped row -> the words taken before it
    frontier = words = 0  # the next row rng draws, and the words it has taken
    cursor: Any = None
    at = 0  # the words the cursor has taken
    kept: list[Any] = []  # the cursor's state after k * _STRIDE words

    def row(i: int, flow: tuple[int, int]) -> tuple[int, ...]:
        nonlocal frontier, words, cursor, at
        if i >= frontier:
            for skipped in range(frontier, i):
                starts[skipped] = words
                words += _skip_row(rng, steps)
            made, used = _random_row(nodes, *flow, rng, steps)
            words += used
            frontier = i + 1
            return made
        start = starts[i]
        if cursor is None:
            cursor = random.Random(seed)
            kept.append(cursor.getstate())
        k = min(start // _STRIDE, len(kept) - 1)
        if not k * _STRIDE <= at <= start:
            # Restart from the last state kept before the row. Past the last
            # state kept, keep one every _STRIDE words: reads behind the
            # cursor tend to repeat.
            at = k * _STRIDE
            cursor.setstate(kept[k])
            while at + _STRIDE <= start:
                _jump(cursor, _STRIDE)
                at += _STRIDE
                kept.append(cursor.getstate())
        _jump(cursor, start - at)
        made, used = _random_row(nodes, *flow, cursor, steps)
        at = start + used
        return made

    return row


def _dfs_rows(n: int, dst: int) -> Callable[[int, tuple[int, int]], tuple[int, ...]]:
    """The row of source m of ``gen_dfs(n, dst)``, on call with m and the
    flow."""
    length = dfs_row_length(n)
    return lambda m, _: tuple((m + (1 << k)) % n for k in range(length))


class _GeneratedRows(Mapping[Flow, tuple[int, ...]]):
    """The rows of a generated matrix, each made on its first read.

    Keys are the flows ``(src, dst)`` ascending, to ``dst`` alone when it is
    given. ``source(n, dst, *args)``, a module-level function, returns a
    function that makes a row, called with its position i in that order and
    its key ``(src, dst)``. A read makes its own row and no other, and keeps
    it, so any read order yields the rows of an eager build. ``len``, ``in``
    and iteration follow from (n, dst) and make nothing. A first read
    mutates hidden state: concurrent first reads from threads are
    unsupported.
    """

    def __init__(self, n: int, dst: Optional[int], source: Callable, *args: Any):
        self._n, self._dst, self._source, self._args = n, dst, source, args
        self._made: dict[int, tuple[int, ...]] = {}
        self._make = source(n, dst, *args)

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
        row = self._made.get(i)
        if row is None:
            if i < 0:
                raise KeyError(key)
            row = self._made[i] = self._make(i, key)
        return row

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

    Rows take their draws in source order from one seeded generator, and
    each row is drawn on its first read (``_random_rows``).
    """
    rows = _GeneratedRows(n, dst, _random_rows, seed)
    return FailoverMatrix(n, dst, rows, "RFS", seed)


def gen_rfs_allpairs(n: int, seed: int) -> FailoverMatrix:
    """One random permutation row per ordered (src, dst) pair: n(n-1) rows.

    Rows take their draws in (src, dst) lexicographic order from a single
    seeded generator, so the full matrix replays exactly from the seed, and
    each row is drawn on its first read (``_random_rows``).
    """
    rows = _GeneratedRows(n, None, _random_rows, seed)
    return FailoverMatrix(n, None, rows, "RFS", seed)


def dfs_row_length(n: int) -> int:
    return int(math.log2(n))


def gen_dfs(n: int, dst: int) -> FailoverMatrix:
    """Deterministic failover scheme for destination index n-1.

    Row for source index m holds (m + 2^k) mod n at position k, for
    k = 0..floor(log2 n)-1. Entries equal to the destination are stored
    as-is; the router skips them at forwarding time. Each row is made on its
    first read and skips the per-row checks: rows are valid as built.

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
