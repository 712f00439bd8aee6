"""Scheme generators: permutation rows, the power-of-two index matrix,
hop rules, and the text format."""

from __future__ import annotations

import copy
import functools
import hashlib
import math
import pickle
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from failoverlab import schemes
from failoverlab.routing import AllToAll, SingleDest, evaluate, route_flow
from failoverlab.schemes import (
    SCHEME_TAGS,
    FailoverMatrix,
    Flow,
    HopRule,
    VerificationExhaustedError,
    gen_dfs,
    gen_rfs,
    gen_rfs_allpairs,
    gen_rfs_verified,
)
from failoverlab.topology import Topology

from text_fuzz import texts


class TestGenRfs:
    def test_row_count_and_length(self):
        m = gen_rfs(4, 3, seed=1)
        assert len(m.rows) == 3
        assert all(len(row) == 2 for row in m.rows.values())

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(3, 40),
        seed=st.integers(0, 2**63),
        dst_pick=st.integers(0, 10**6),
    )
    def test_rows_are_permutations(self, n, seed, dst_pick):
        dst = dst_pick % n
        m = gen_rfs(n, dst, seed)
        for flow, row in m.rows.items():
            assert sorted(row) == sorted(
                v for v in range(n) if v not in (flow.src, dst)
            )

    def test_deterministic_replay(self):
        assert gen_rfs(12, 11, 99).rows == gen_rfs(12, 11, 99).rows

    def test_different_seeds_differ(self):
        assert gen_rfs(12, 11, 1).rows != gen_rfs(12, 11, 2).rows

    def test_row0_orderings_uniform(self):
        # With two free nodes there are exactly two orderings; a fair draw
        # puts each at 0.5. Binomial spread over 10^4 samples stays well
        # inside +/-0.05.
        counts = Counter(
            gen_rfs(4, 3, seed).rows[Flow(0, 3)] for seed in range(10_000)
        )
        assert set(counts) == {(1, 2), (2, 1)}
        assert abs(counts[(1, 2)] / 10_000 - 0.5) < 0.05

    def test_too_small_rejected(self):
        message = "clique size must be at least 3, got 2$"
        with pytest.raises(ValueError, match=message):
            gen_rfs(2, 1, 0)
        with pytest.raises(ValueError, match=message):
            gen_rfs_allpairs(2, 0)


class TestGenDfs:
    def test_first_rows_at_n8(self):
        m = gen_dfs(8, 7)
        assert m.rows[Flow(0, 7)] == (1, 2, 4)
        assert m.rows[Flow(1, 7)] == (2, 3, 5)

    def test_row_length_is_floor_log2(self):
        for n in (8, 9, 16, 31, 33):
            m = gen_dfs(n, n - 1)
            assert all(len(r) == int(math.log2(n)) for r in m.rows.values())

    def test_columns_distinct_at_n9(self):
        m = gen_dfs(9, 8)
        for k in range(3):
            column = [m.rows[Flow(i, 8)][k] for i in range(8)]
            assert len(set(column)) == 8

    def test_destination_entries_retained(self):
        # Row for source 3 at n=8 carries entry 7, the destination; the
        # generator stores it and leaves skipping to the router.
        m = gen_dfs(8, 7)
        assert 7 in m.rows[Flow(3, 7)]

    def test_wrong_destination_rejected(self):
        with pytest.raises(ValueError):
            gen_dfs(8, 3)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            gen_dfs(3, 2)

    def test_formula(self):
        m = gen_dfs(16, 15)
        for i in range(15):
            for k in range(4):
                assert m.rows[Flow(i, 15)][k] == (i + 2**k) % 16


class TestGenRfsAllpairs:
    def test_row_count_and_length_at_n4(self):
        m = gen_rfs_allpairs(4, 0)
        assert len(m.rows) == 12
        assert all(len(r) == 2 for r in m.rows.values())

    def test_rows_exclude_endpoints(self):
        m = gen_rfs_allpairs(6, 3)
        for flow, row in m.rows.items():
            assert flow.src not in row
            assert flow.dst not in row

    def test_deterministic_replay(self):
        assert gen_rfs_allpairs(6, 5).rows == gen_rfs_allpairs(6, 5).rows

    def test_not_single_dest(self):
        assert not gen_rfs_allpairs(4, 0).is_single_dest


def shuffled_row(n: int, src: int, dst: int, rng: random.Random) -> tuple[int, ...]:
    """Reference row: the library shuffle over the nodes other than the
    flow's endpoints, in ascending order before the shuffle."""
    pool = [v for v in range(n) if v != src and v != dst]
    rng.shuffle(pool)
    return tuple(pool)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


GEN_NS = (3, 4, 5, 8, 17, 64, 129)
GEN_SEEDS = (0, 1, 987_654_321, 2**64 + 5)


class TestGenerationMatchesShuffle:
    """Generated rows replay ``random.Random(seed).shuffle`` draw for draw,
    rows drawn in the generator's order from one seeded stream."""

    @pytest.mark.parametrize("n", GEN_NS)
    @pytest.mark.parametrize("seed", GEN_SEEDS)
    def test_gen_rfs(self, n, seed):
        for dst in sorted({0, n // 2, n - 1}):
            rng = random.Random(seed)
            expected = [
                (Flow(src, dst), shuffled_row(n, src, dst, rng))
                for src in range(n)
                if src != dst
            ]
            assert list(gen_rfs(n, dst, seed).rows.items()) == expected

    @pytest.mark.parametrize("n", GEN_NS)
    @pytest.mark.parametrize("seed", GEN_SEEDS[:2])
    def test_gen_rfs_allpairs(self, n, seed):
        rng = random.Random(seed)
        expected = [
            (Flow(src, dst), shuffled_row(n, src, dst, rng))
            for src in range(n)
            for dst in range(n)
            if src != dst
        ]
        assert list(gen_rfs_allpairs(n, seed).rows.items()) == expected

    # sha256 of the matrix text, computed with the shuffle-based generator.
    @pytest.mark.parametrize(
        ("seed", "digest"),
        (
            (0, "f5aa7526f25298808cd1701647afd300d6a762f97aec68592892023c7553e802"),
            (1, "78a97b744002e2b7fd268f0c7db15b563da4cb438797716e60c59260ce1962d7"),
            (2024, "77ccdecb865f3344655aab51b1b31746797e58ba75ae9f61e58da1734fbb7620"),
        ),
    )
    def test_gen_rfs_n500_pinned(self, seed, digest):
        assert sha256(gen_rfs(500, 499, seed).to_text()) == digest

    @pytest.mark.parametrize(
        ("seed", "digest"),
        (
            (0, "847c382a4c544e5534c3e9f964d6b0df0713e83fbd70c42d13f5df33ae96e4fb"),
            (7, "92f175250bf8bb340f5efe6a6461dca9c4f8826dd323ae15aad169073d1fc767"),
        ),
    )
    def test_gen_rfs_allpairs_n120_pinned(self, seed, digest):
        assert sha256(gen_rfs_allpairs(120, seed).to_text()) == digest


def eager_rows(n: int, dst, seed: int) -> dict[Flow, tuple[int, ...]]:
    """Reference matrix: every row drawn up front in key order with
    ``random.Random(seed).shuffle``, for one destination or all pairs."""
    rng = random.Random(seed)
    dsts = range(n) if dst is None else (dst,)
    return {
        Flow(src, d): shuffled_row(n, src, d, rng)
        for src in range(n)
        for d in dsts
        if src != d
    }


DRAW_NS = (3, 4, 5, 8, 64, 500)
DRAW_SEEDS = (0, 7, 2**64 + 5)


def draw_cases():
    """(n, dst, seed) for gen_rfs at every n and three destinations, and
    for gen_rfs_allpairs (dst None) up to n=64: at n=500 an all-pairs
    matrix holds 249,500 rows of 498 entries."""
    for n in DRAW_NS:
        for seed in DRAW_SEEDS:
            for dst in sorted({0, n // 2, n - 1}):
                yield n, dst, seed
            if n <= 64:
                yield n, None, seed


def generate(n: int, dst, seed: int) -> FailoverMatrix:
    return gen_rfs_allpairs(n, seed) if dst is None else gen_rfs(n, dst, seed)


@pytest.fixture
def draws(monkeypatch) -> list:
    """The (src, dst) of every row drawn while the test runs: first draws
    and redraws of skipped rows alike. Skipped rows are not drawn."""
    drawn = []
    real = schemes._random_row

    def counting(nodes, src, dst, rng, steps):
        drawn.append((src, dst))
        return real(nodes, src, dst, rng, steps)

    monkeypatch.setattr(schemes, "_random_row", counting)
    return drawn


@pytest.fixture
def dfs_made(monkeypatch) -> list:
    """The source node of every gen_dfs row made while the test runs."""
    made = []
    real = schemes._dfs_rows

    @functools.wraps(real)
    def counting(n, dst):
        row = real(n, dst)

        def counted(m, flow):
            made.append(m)
            return row(m, flow)

        return counted

    monkeypatch.setattr(schemes, "_dfs_rows", counting)
    return made


def dfs_formula(n: int) -> dict[Flow, tuple[int, ...]]:
    """gen_dfs's rows by their formula: row m holds (m + 2^k) mod n at
    position k, for k below floor(log2 n)."""
    return {
        Flow(m, n - 1): tuple((m + 2**k) % n for k in range(n.bit_length() - 1))
        for m in range(n - 1)
    }


class TestDrawnRows:
    """Generated matrices make each row on its first read, and no other row,
    and behave as the eagerly built dict of the same rows. A random row's
    draw depends on every draw before it: the rows before it that were not
    read are skipped (their draws made and thrown away), and redrawn from
    where they start when they are read."""

    @pytest.mark.parametrize(("n", "dst", "seed"), list(draw_cases()))
    def test_every_read_order_gives_the_eager_rows(self, n, dst, seed):
        expected = eager_rows(n, dst, seed)
        keys = list(expected)
        shuffled = keys.copy()
        random.Random(n).shuffle(shuffled)
        for order in (keys, keys[::-1], shuffled):
            m = generate(n, dst, seed)
            assert {flow: m.rows[flow] for flow in order} == expected
            assert list(m.rows.items()) == list(expected.items())
        assert generate(n, dst, seed) == FailoverMatrix(n, dst, expected, "RFS", seed)

    @pytest.mark.parametrize(
        ("n", "dst", "seed"), ((8, 7, 1), (8, 3, 2), (8, None, 3))
    )
    def test_text_of_a_partly_drawn_matrix(self, n, dst, seed):
        m = generate(n, dst, seed)
        m.rows[Flow(2, 1 if dst is None else dst)]
        reference = FailoverMatrix(n, dst, eager_rows(n, dst, seed), "RFS", seed)
        assert m.to_text() == reference.to_text()

    @pytest.mark.parametrize("dst", (0, 4, None))
    def test_queries_draw_nothing(self, draws, dst):
        n = 9
        m = generate(n, dst, 5)
        expected = eager_rows(n, dst, 5)
        assert len(m.rows) == len(expected)
        assert list(m.rows) == list(expected)
        assert m.flows() == sorted(expected)
        assert all(flow in m.rows for flow in expected)
        assert all(tuple(flow) in m.rows for flow in expected)
        made = f"0 of {len(expected)} rows made"
        assert repr(m.rows) == f"<_random_rows(9, {dst}, 5): {made}>"
        assert draws == []

    MALFORMED = (
        (3, 3), (-1, 4), (9, 4), (0, 9), (1, -1), 4, None, "ab", (1, 2, 3),
        (1.5, 4), (), Flow(2, 2),
    )

    @pytest.mark.parametrize("key", MALFORMED, ids=repr)
    @pytest.mark.parametrize("dst", (4, None))
    def test_malformed_keys_are_not_in(self, draws, key, dst):
        m = generate(9, dst, 5)
        assert key not in m.rows
        with pytest.raises(KeyError):
            m.rows[key]
        assert draws == []

    def test_wrong_destination_is_not_in(self, draws):
        m = gen_rfs(9, 4, 5)
        assert Flow(0, 3) not in m.rows
        with pytest.raises(KeyError):
            m.rows[Flow(0, 3)]
        assert draws == []

    @pytest.mark.parametrize("src", (0, 1, 17, 62))
    def test_route_flow_draws_only_its_own_row(self, draws, src):
        n = 64
        m = gen_rfs(n, n - 1, 11)
        topo = Topology(n, frozenset({(src, n - 1)}))
        route_flow(m, topo, Flow(src, n - 1))
        assert draws == [(src, n - 1)]
        expected = eager_rows(n, n - 1, 11)
        for s in range(src):
            assert m.rows[Flow(s, n - 1)] == expected[Flow(s, n - 1)]
        assert draws == [(src, n - 1)] + [(s, n - 1) for s in range(src)]

    COPIES = ("pickle", "deepcopy", "text")

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 12),
        seed=st.integers(0, 2**64 + 5),
        allpairs=st.booleans(),
        stride=st.sampled_from((1, 3, 7, schemes._STRIDE)),
        data=st.data(),
    )
    def test_any_read_order_gives_the_eager_rows(
        self, n, seed, allpairs, stride, data
    ):
        """Reads in any order, descending and repeated ones included, with
        copies and texts of the matrix taken in between. A small stride runs
        the chunked jumps and the kept states at small n."""
        dst = None if allpairs else data.draw(st.integers(0, n - 1))
        expected = eager_rows(n, dst, seed)
        text = FailoverMatrix(n, dst, expected, "RFS", seed).to_text()
        keys = list(expected)
        ops = data.draw(
            st.lists(
                st.sampled_from(keys) | st.sampled_from(self.COPIES),
                max_size=2 * len(keys),
            )
        )
        if data.draw(st.booleans()):
            # The reads descending, the copies where they fell.
            reads = sorted((op for op in ops if op not in self.COPIES), reverse=True)
            ops = [op if op in self.COPIES else reads.pop(0) for op in ops]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(schemes, "_STRIDE", stride)
            held = [generate(n, dst, seed)]
            for op in ops:
                if op == "pickle":
                    held.append(pickle.loads(pickle.dumps(held[-1])))
                elif op == "deepcopy":
                    held.append(copy.deepcopy(held[-1]))
                elif op == "text":
                    assert held[-1].to_text() == text
                else:
                    assert all(m.rows[op] == expected[op] for m in held)
            assert all(dict(m.rows) == expected for m in held)

    def test_evaluate_on_a_clique_draws_nothing(self, draws):
        report = evaluate(gen_rfs(64, 63, 3), Topology(64), SingleDest(63))
        assert report.delivered == 63
        report = evaluate(gen_rfs_allpairs(16, 3), Topology(16), AllToAll())
        assert report.delivered == 16 * 15
        assert draws == []

    @pytest.mark.parametrize("dst", (6, None))
    @pytest.mark.parametrize("read", (0, 3, 56))
    def test_pickle_and_deepcopy_round_trip(self, dst, read):
        m = generate(8, dst, 21)
        keys = list(m.rows)
        for flow in keys[:read]:
            m.rows[flow]
        plain = FailoverMatrix(8, dst, dict(m.rows), "RFS", 21)
        for copied in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert copied == m == plain
            assert copied.to_text() == plain.to_text()

    @pytest.mark.parametrize("n", (4, 5, 8, 9, 64, 500))
    def test_dfs_every_read_order_gives_the_formula_rows(self, n):
        expected = dfs_formula(n)
        keys = list(expected)
        shuffled = keys.copy()
        random.Random(n).shuffle(shuffled)
        for order in (keys, keys[::-1], shuffled):
            m = gen_dfs(n, n - 1)
            assert {flow: m.rows[flow] for flow in order} == expected
            assert list(m.rows.items()) == list(expected.items())
        assert gen_dfs(n, n - 1) == FailoverMatrix(n, n - 1, expected, "DFS")

    def test_dfs_queries_make_nothing(self, dfs_made):
        m = gen_dfs(9, 8)
        expected = dfs_formula(9)
        assert len(m.rows) == len(expected)
        assert list(m.rows) == list(expected)
        assert m.flows() == sorted(expected)
        assert all(flow in m.rows for flow in expected)
        assert all(tuple(flow) in m.rows for flow in expected)
        assert repr(m.rows) == "<_dfs_rows(9, 8): 0 of 8 rows made>"
        assert dfs_made == []
        assert m.rows[Flow(3, 8)] == expected[Flow(3, 8)]
        assert dfs_made == [3]
        assert repr(m.rows) == "<_dfs_rows(9, 8): 1 of 8 rows made>"

    @pytest.mark.parametrize(
        "key", MALFORMED + ((-1, 8), (9, 8), (8, 8), (1.5, 8)), ids=repr
    )
    def test_dfs_malformed_keys_are_not_in(self, dfs_made, key):
        m = gen_dfs(9, 8)
        assert key not in m.rows
        with pytest.raises(KeyError):
            m.rows[key]
        assert dfs_made == []

    @pytest.mark.parametrize("read", (0, 3, 7))
    def test_dfs_pickle_and_deepcopy_round_trip(self, read):
        m = gen_dfs(8, 7)
        for flow in list(m.rows)[:read]:
            m.rows[flow]
        copies = (pickle.loads(pickle.dumps(m)), copy.deepcopy(m))
        plain = FailoverMatrix(8, 7, dfs_formula(8), "DFS")
        for copied in copies:
            assert copied == m == plain
            assert copied.to_text() == plain.to_text()


class TestWordCounts:
    """Skipping and redrawing count the generator's 32-bit words, and jump
    over them with ``getrandbits(32 * m)``. These check, on each Python that
    runs the suite, how many words those calls take."""

    @pytest.mark.parametrize("m", (1, 2, 31, 4096, 10_000))
    def test_getrandbits_of_32_m_bits_takes_m_words(self, m):
        jumped, stepped = random.Random(m), random.Random(m)
        jumped.getrandbits(32 * m)
        for _ in range(m):
            stepped.getrandbits(32)
        assert jumped.getstate() == stepped.getstate()
        schemes._jump(jumped, m)
        for k in (1, 5, 31, 32) * (m // 4) + (32,) * (m % 4):
            stepped.getrandbits(k)
        assert jumped.getstate() == stepped.getstate()

    @pytest.mark.parametrize("n", (3, 4, 9, 64, 500))
    def test_a_skip_takes_the_words_of_a_draw(self, n):
        steps = schemes._shuffle_steps(n)
        nodes = list(range(n))
        drawn, skipped, jumped = (random.Random(n) for _ in range(3))
        for src in range(min(n - 1, 5)):
            _, words = schemes._random_row(nodes, src, n - 1, drawn, steps)
            assert schemes._skip_row(skipped, steps) == words
            schemes._jump(jumped, words)
            assert drawn.getstate() == skipped.getstate() == jumped.getstate()


class TestGeneratorsPassFullValidation:
    """The generators skip ``FailoverMatrix``'s per-row checks. Rebuilding
    their rows as a plain dict through the public constructor runs every
    check on them."""

    def test_every_n_up_to_129(self):
        for n in range(3, 130):
            matrices = [gen_rfs(n, dst, n) for dst in sorted({0, n // 2, n - 1})]
            if n >= 4:
                matrices.append(gen_dfs(n, n - 1))
            if n <= 33:
                matrices.append(gen_rfs_allpairs(n, n))
            for m in matrices:
                assert FailoverMatrix(m.n, m.dst, dict(m.rows), m.scheme, m.seed) == m


class TestGenRfsVerified:
    def test_threshold_n_accepts_first_draw(self):
        draw = gen_rfs_verified(12, 11, seed=5, load_threshold=12)
        assert draw.redraws == 0
        assert draw.matrix.rows == gen_rfs(12, 11, draw.seed).rows

    def test_exhaustion_carries_best_matrix(self):
        # Under the default budget of threshold^2 the greedy attacker beats
        # a threshold this small on every draw, so the search must give up
        # and surface its best candidate.
        with pytest.raises(VerificationExhaustedError) as err:
            gen_rfs_verified(16, 15, seed=0, load_threshold=3, max_redraws=6)
        assert isinstance(err.value.best, FailoverMatrix)
        assert err.value.best_load > 3

    def test_whp_budget_accepts_immediately(self):
        # With the budget set to the high-probability attack cost for the
        # threshold (rather than threshold^2), draws pass: measured 30/30
        # seeds at n=64.
        n = 64
        threshold = math.ceil(math.sqrt(8 * math.log2(n)))
        budget = math.ceil(threshold**2 / (8 * math.log2(n)))
        for seed in (0, 1, 2):
            draw = gen_rfs_verified(n, 63, seed, threshold, budget=budget)
            assert draw.redraws == 0

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            gen_rfs_verified(8, 7, 0, 0)

    def test_negative_budget_rejected(self):
        # It once accepted the first draw, whose load a negative budget
        # clipped to 0.
        with pytest.raises(ValueError, match="budget"):
            gen_rfs_verified(16, 15, 1, 2, budget=-3)

    def test_zero_budget_accepts_the_first_draw(self):
        draw = gen_rfs_verified(16, 15, 1, 2, budget=0)
        assert draw.redraws == 0

    def test_negative_redraw_cap_rejected(self):
        with pytest.raises(ValueError, match="max_redraws"):
            gen_rfs_verified(16, 15, 1, 2, max_redraws=-1)


class TestHopRules:
    # next_hop(node, dst, n, blocked): blocked holds the neighbours whose
    # link to node failed, the destination among them.
    def test_bal_high_to_low(self):
        assert HopRule.BAL.next_hop(5, 2, 10, {2}) == 8  # (5+2+1) mod 10

    def test_bal_low_to_high(self):
        assert HopRule.BAL.next_hop(2, 5, 10, {5}) == 8  # (2-5+1) mod 10

    def test_bal_scans_past_failed(self):
        assert HopRule.BAL.next_hop(5, 2, 10, {2, 8}) == 9

    def test_bal_skips_self(self):
        # node=0, dst=1: the start candidate (0-1+1) mod n is the node itself.
        assert HopRule.BAL.next_hop(0, 1, 10, {1}) == 2  # 0 skipped, 1 failed

    def test_bal_isolated_gives_none(self):
        assert HopRule.BAL.next_hop(0, 1, 4, {1, 2, 3}) is None

    def test_rob_wraparound(self):
        assert HopRule.ROB.next_hop(9, 5, 10, {5}) == 0

    def test_rob_scans_past_failed(self):
        assert HopRule.ROB.next_hop(3, 9, 10, {4, 5, 9}) == 6

    def test_rob_isolated_gives_none(self):
        assert HopRule.ROB.next_hop(0, 3, 4, {1, 2, 3}) is None

    def test_hoprule_dispatch(self):
        assert HopRule.ROB.next_hop(0, 9, 10, {9}) == 1
        assert HopRule.BAL.next_hop(0, 9, 10, {9}) == (0 - 9 + 1) % 10


class TestMatrixFormat:
    def test_single_dest_round_trip(self):
        m = gen_rfs(7, 6, 13)
        text = m.to_text()
        back = FailoverMatrix.from_text(text)
        assert back == m
        assert back.to_text() == text

    def test_allpairs_round_trip(self):
        m = gen_rfs_allpairs(5, 3)
        text = m.to_text()
        back = FailoverMatrix.from_text(text)
        assert back == m
        assert back.to_text() == text

    def test_dfs_header_and_first_row(self):
        text = gen_dfs(8, 7).to_text()
        lines = text.splitlines()
        assert lines[0] == "n=8 mode=single:7 scheme=DFS seed=none"
        assert lines[1] == "0: 1 2 4"

    def test_row_with_own_source_rejected(self):
        with pytest.raises(ValueError):
            FailoverMatrix(4, 3, {Flow(0, 3): (0, 1)})

    def test_entry_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FailoverMatrix(4, 3, {Flow(0, 3): (9,)})

    @pytest.mark.parametrize("bad", (-1, 500))
    @pytest.mark.parametrize("at", (0, 250, 497))
    def test_entry_out_of_range_in_long_row_named(self, bad, at):
        row = list(range(1, 499))
        row[at] = bad
        with pytest.raises(
            ValueError,
            match=re.escape(f"row Flow(src=0, dst=499) entry {bad} outside 0..499"),
        ):
            FailoverMatrix(500, 499, {Flow(0, 499): tuple(row)})

    def test_row_destination_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FailoverMatrix(5, 4, {Flow(0, 3): (1,)})

    def test_source_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            FailoverMatrix(4, 3, {Flow(7, 3): (0, 1)})

    def test_negative_source_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            FailoverMatrix(4, 3, {Flow(-1, 3): (0, 1)})

    def test_allpairs_destination_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            FailoverMatrix(4, None, {Flow(0, 9): (1, 2)})

    @pytest.mark.parametrize("key", ("n", "mode", "scheme", "seed"))
    def test_missing_header_key_named(self, key):
        header = {
            "n": "n=4", "mode": "mode=single:3", "scheme": "scheme=RFS",
            "seed": "seed=1",
        }
        del header[key]
        text = " ".join(header.values()) + "\n0: 1 2\n"
        with pytest.raises(ValueError, match=f"'{key}'"):
            FailoverMatrix.from_text(text)

    def test_header_duplicate_key_rejected(self):
        text = "n=4 n=5 mode=single:3 scheme=RFS seed=1\n0: 1 2\n"
        with pytest.raises(ValueError, match="repeats the 'n' key"):
            FailoverMatrix.from_text(text)

    def test_header_unknown_key_rejected(self):
        text = "n=4 mode=single:3 scheme=RFS seed=1 dst=2\n0: 1 2\n"
        with pytest.raises(ValueError, match="unknown key 'dst'"):
            FailoverMatrix.from_text(text)

    def test_duplicate_row_key_rejected(self):
        text = "n=4 mode=single:3 scheme=Manual seed=none\n0: 1 2\n0: 2 1\n"
        with pytest.raises(ValueError, match="duplicate"):
            FailoverMatrix.from_text(text)

    def test_duplicate_allpairs_row_key_rejected(self):
        text = "n=3 mode=allpairs scheme=Manual seed=none\n0,1: 2\n0,1: 2\n"
        with pytest.raises(ValueError, match="duplicate"):
            FailoverMatrix.from_text(text)

    def test_row_line_without_colon_rejected(self):
        # A row line cut before its ':' would otherwise read as an empty row.
        text = "n=4 mode=single:3 scheme=Manual seed=none\n0: 1 2\n1\n"
        with pytest.raises(ValueError, match="':'"):
            FailoverMatrix.from_text(text)

    def test_unknown_mode_rejected(self):
        text = "n=4 mode=broadcast scheme=Manual seed=none\n0: 1 2\n"
        with pytest.raises(ValueError, match="mode"):
            FailoverMatrix.from_text(text)

    @pytest.mark.parametrize(
        ("text", "n"),
        (
            ("n=2 mode=single:1 scheme=Manual seed=none\n0: \n", 2),
            ("n=2 mode=allpairs scheme=RFS seed=4\n0,1: \n1,0: \n", 2),
            ("n=1 mode=allpairs scheme=Manual seed=none\n", 1),
            ("n=0 mode=single:0 scheme=Manual seed=none\n", 0),
        ),
        ids=("single-2", "allpairs-2", "allpairs-1", "single-0"),
    )
    def test_clique_too_small_rejected(self, text, n):
        message = f"clique size must be at least 3, got {n}$"
        with pytest.raises(ValueError, match=message):
            FailoverMatrix.from_text(text)

    @pytest.mark.parametrize(
        "matrix",
        (
            lambda: FailoverMatrix(2, 1, {Flow(0, 1): ()}),
            lambda: FailoverMatrix(2, None, {}, "RFS", 0),
            lambda: FailoverMatrix(-1, None, {}),
            # Generated rows skip the per-row checks, but not this one.
            lambda: FailoverMatrix(
                2,
                None,
                schemes._GeneratedRows(2, None, schemes._random_rows, 0),
                "RFS",
                0,
            ),
        ),
        ids=("single-2", "allpairs-2", "allpairs-minus-1", "generated-2"),
    )
    def test_constructor_rejects_a_clique_too_small(self, matrix):
        message = "clique size must be at least 3, got -?[0-9]$"
        with pytest.raises(ValueError, match=message):
            matrix()

    def test_missing_row_lookup(self):
        m = gen_rfs(5, 4, 0)
        with pytest.raises(KeyError):
            m.row(Flow(0, 2))


@st.composite
def matrices(draw) -> FailoverMatrix:
    """Valid matrices of either mode with arbitrary rows: any subset of
    flows, rows that repeat entries or hold the destination, empty rows."""
    n = draw(st.integers(3, 9))
    dst = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    flows = [
        Flow(src, d)
        for src in range(n)
        for d in (range(n) if dst is None else (dst,))
        if src != d
    ]
    rows = {}
    for flow in draw(st.lists(st.sampled_from(flows), unique=True)):
        entry = st.integers(0, n - 1).filter(lambda e, src=flow.src: e != src)
        rows[flow] = tuple(draw(st.lists(entry, max_size=n + 2)))
    seed = draw(st.one_of(st.none(), st.integers(-(2**70), 2**70)))
    return FailoverMatrix(n, dst, rows, draw(st.sampled_from(SCHEME_TAGS)), seed)


class TestMatrixTextFuzz:
    @settings(max_examples=100, deadline=None)
    @given(m=matrices())
    def test_round_trip_exact(self, m):
        text = m.to_text()
        back = FailoverMatrix.from_text(text)
        assert back == m
        assert back.to_text() == text

    @settings(max_examples=300, deadline=None)
    @given(text=texts(matrices().map(FailoverMatrix.to_text)))
    def test_garbage_raises_only_value_error(self, text):
        try:
            FailoverMatrix.from_text(text)
        except ValueError:
            pass
