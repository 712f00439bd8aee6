"""Sweep harness: configs, records, determinism, histograms, summaries."""

from __future__ import annotations

import hashlib
import os
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from failoverlab import adversary, experiments, schemes
from failoverlab.experiments import (
    ExperimentConfig,
    records_to_csv,
    run_sweep,
    run_trial,
    scenario_seed,
    summarize,
    summary_to_csv,
    trial_seed,
)
from failoverlab.routing import SingleDest, evaluate
from failoverlab.schemes import HopRule, gen_rfs
from failoverlab.topology import Topology
from failoverlab.adversary import adv_ecl

import acceptance_config as acfg


def small_cfg(**overrides) -> ExperimentConfig:
    base = dict(
        n=16,
        scheme="rfs",
        adversary="ecl",
        pattern="single",
        failure_grid=(0, 4, 8),
        trials=3,
        base_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_file_round_trip(self, tmp_path):
        cfg = small_cfg()
        path = tmp_path / "cfg.txt"
        cfg.to_file(path)
        assert ExperimentConfig.from_file(path) == cfg

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\n" + small_cfg().to_text()
        assert ExperimentConfig.from_text(text) == small_cfg()

    def test_missing_key_reported(self):
        with pytest.raises(ValueError, match="missing"):
            ExperimentConfig.from_text("n=8\nscheme=rfs\n")

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            small_cfg(failure_grid=(8, 4))

    def test_single_dest_scheme_rejects_all_to_all(self):
        with pytest.raises(ValueError):
            small_cfg(pattern="all")

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            small_cfg(scheme="magic")
        with pytest.raises(ValueError):
            small_cfg(adversary="gremlin")

    def test_prefix_adversary_needs_matrix_scheme(self):
        with pytest.raises(ValueError):
            small_cfg(scheme="rob", adversary="prefix")

    def test_default_destination(self):
        assert small_cfg().resolved_dst == 15
        assert small_cfg(dst=3).resolved_dst == 3

    @pytest.mark.parametrize("key", ("dest", "seed", "grid"))
    def test_unknown_key_rejected(self, key):
        text = small_cfg().to_text() + f"{key}=3\n"
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            ExperimentConfig.from_text(text)

    def test_line_without_equals_rejected(self):
        text = small_cfg().to_text() + "dst 3\n"
        with pytest.raises(ValueError, match="'dst 3' is not key=value"):
            ExperimentConfig.from_text(text)

    def test_duplicate_key_rejected(self):
        text = small_cfg().to_text() + "trials=9\n"
        with pytest.raises(ValueError, match="duplicate config key 'trials'"):
            ExperimentConfig.from_text(text)

    @pytest.mark.parametrize("dst", (-1, 16, 99))
    def test_destination_out_of_range_rejected(self, dst):
        with pytest.raises(ValueError, match=f"destination {dst} outside 0..15"):
            small_cfg(dst=dst)

    @pytest.mark.parametrize("n", (-4, 0, 2))
    def test_too_few_nodes_rejected(self, n):
        with pytest.raises(ValueError, match=f"need at least 3 nodes, got {n}"):
            small_cfg(n=n, scheme="rob")

    def test_empty_grid_rejected(self):
        text = small_cfg().to_text().replace("failure_grid=0,4,8", "failure_grid=")
        with pytest.raises(ValueError, match="failure grid is empty"):
            ExperimentConfig.from_text(text)

    def test_negative_grid_value_rejected(self):
        with pytest.raises(ValueError, match="failure grid value -4 is negative"):
            small_cfg(failure_grid=(-4, 0, 4))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(adversary="chain", failure_grid=(0, 4)), "chain .* 1..15, got 0"),
            (dict(adversary="chain", failure_grid=(4, 16)), "chain .* 1..15, got 16"),
            (dict(adversary="ecl", failure_grid=(0, 15)), "ecl .* 0..14, got 15"),
            (dict(adversary="prefix", failure_grid=(0, 4)), "prefix .* 1..15, got 0"),
            (dict(adversary="prefix", failure_grid=(4, 16)), "prefix .* 1..15, got 16"),
            (dict(adversary="ran", failure_grid=(0, 121)), "ran .* 0..120, got 121"),
            (dict(adversary="chain", failure_grid=(4,), dst=0), "chain .* node 0"),
            (dict(adversary="loop-forcer", dst=0), "loop-forcer .* node 0"),
            (
                dict(scheme="rfs-allpairs", adversary="prefix", failure_grid=(4,)),
                "prefix adversary needs a single-destination",
            ),
        ],
    )
    def test_grid_the_adversary_cannot_take_rejected(self, overrides, message):
        # Caught here, before any cell runs or any worker starts.
        with pytest.raises(ValueError, match=message):
            small_cfg(**overrides)

    @pytest.mark.parametrize(
        "adversary, grid",
        [
            ("ran", (0, 120)),
            ("ecl", (0, 14)),
            ("prefix", (1, 15)),
            ("chain", (1, 15)),
            ("loop-forcer", (0, 200)),
        ],
    )
    def test_grid_bounds_run(self, adversary, grid):
        cfg = small_cfg(adversary=adversary, failure_grid=grid, trials=1)
        assert len(run_sweep(cfg)) == 2

    def test_seed_derivation(self):
        assert trial_seed(12, 5) == 12 ^ 5
        assert scenario_seed(12, 5) != trial_seed(12, 5)


class TestRunSweep:
    def test_zero_failures_baseline(self):
        for scheme in ("rfs", "dfs", "bal", "rob"):
            cfg = small_cfg(scheme=scheme, failure_grid=(0,), trials=1)
            records = run_sweep(cfg)
            assert len(records) == 1
            assert records[0].max_load == 1
            assert records[0].loops == records[0].disconnected == 0

    def test_record_order_and_echo(self):
        records = run_sweep(small_cfg())
        coords = [(r.num_failures, r.trial) for r in records]
        assert coords == [(p, t) for p in (0, 4, 8) for t in range(3)]
        assert all(r.scheme == "rfs" and r.adversary == "ecl" for r in records)
        assert all(r.seed == 11 ^ r.trial for r in records)

    def test_replay_determinism(self):
        a = records_to_csv(run_sweep(small_cfg()))
        b = records_to_csv(run_sweep(small_cfg()))
        assert a == b

    def test_parallel_matches_serial(self):
        cfg = small_cfg(n=20, failure_grid=(0, 5, 10), trials=4)
        assert records_to_csv(run_sweep(cfg, jobs=3)) == records_to_csv(
            run_sweep(cfg, jobs=1)
        )

    def test_csv_schema(self):
        csv = records_to_csv(run_sweep(small_cfg(trials=1, failure_grid=(2,))))
        lines = csv.splitlines()
        assert (
            lines[0]
            == "scheme,adversary,pattern,n,num_failures,trial,seed,max_load,"
            "loops,disconnected"
        )
        assert len(lines) == 2
        assert lines[1].startswith("rfs,ecl,single,16,2,0,11,")

    def test_conservation_in_records(self):
        # Disconnections beyond the short-row validity range are counted,
        # never dropped: verdicts always add up to the flow count.
        cfg = small_cfg(n=8, scheme="dfs", failure_grid=(2, 6), trials=10)
        records = run_sweep(cfg)
        assert any(r.disconnected > 0 for r in records if r.num_failures == 6)
        # re-derive the delivered count per record and compare totals
        for r in records:
            assert 0 <= r.loops + r.disconnected <= 7

    def test_chain_adversary_records_actual_failures(self):
        cfg = small_cfg(
            scheme="dfs", adversary="chain", failure_grid=(2, 7), trials=1
        )
        records = run_sweep(cfg)
        assert records[0].num_failures == 2
        # the short-row scheme breaks before 7 rounds at n=16
        assert records[1].num_failures < 7

    def test_scheme_built_once_per_trial(self, monkeypatch):
        calls = []

        def counting_gen_rfs(*args):
            calls.append(args)
            return gen_rfs(*args)

        monkeypatch.setattr(experiments, "gen_rfs", counting_gen_rfs)
        records = run_sweep(small_cfg())
        assert len(records) == 9
        assert calls == [(16, 15, 11 ^ t) for t in range(3)]

    def test_given_scheme_matches_built_scheme(self):
        cfg = small_cfg()
        scheme = gen_rfs(16, 15, trial_seed(11, 2))
        given = run_trial(cfg, 8, 2, scheme=scheme)
        swept = run_sweep(cfg)[2 * cfg.trials + 2]  # phi=8, trial 2
        assert records_to_csv([given]) == records_to_csv([swept])

    def test_scheme_is_required(self):
        with pytest.raises(TypeError):
            run_trial(small_cfg(), 4, 0)

    # Fewer trials than workers: each trial's grid is split across tasks.
    @pytest.mark.parametrize("trials,jobs", ((1, 2), (1, 3), (2, 3)))
    def test_split_grid_matches_serial(self, trials, jobs):
        cfg = small_cfg(trials=trials, failure_grid=(0, 2, 4, 6, 8))
        assert records_to_csv(run_sweep(cfg, jobs=jobs)) == records_to_csv(
            run_sweep(cfg)
        )

    # sha256 of the records and summary CSVs, computed with the grid-major
    # sweep that regenerated the scheme for every cell.
    @pytest.mark.parametrize("jobs", (1, 2))
    def test_pinned_csv(self, jobs):
        cfg = ExperimentConfig(
            n=100, scheme="rfs", adversary="ecl", pattern="single",
            failure_grid=(0, 30, 60), trials=3, base_seed=2013,
        )
        records = run_sweep(cfg, jobs=jobs)
        digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
        assert digest(records_to_csv(records)) == (
            "1a9ebcdb58e9a00eeefc92330fdfbc4d8dc30b2707f787ecb0ce3bd2a72b8715"
        )
        assert digest(summary_to_csv(summarize(records))) == (
            "45de4c30396f1f31e0bfa8feae3509e3320c6f9acd726ee3af5fd252b43ea12a"
        )

    def test_loop_forcer_runs_once_per_trial(self, monkeypatch):
        calls = []
        loop_forcer = adversary.loop_forcer

        def counting_loop_forcer(*args):
            calls.append(args)
            return loop_forcer(*args)

        monkeypatch.setattr(experiments.adv, "loop_forcer", counting_loop_forcer)
        cfg = small_cfg(adversary="loop-forcer", failure_grid=(0, 5, 10), trials=2)
        records = run_sweep(cfg)
        assert len(records) == 6
        assert len(calls) == 2

    # sha256 of the records and summary CSVs, computed when every grid point
    # reran the loop-forcer.
    @pytest.mark.parametrize(
        "scheme, pattern, records_digest, summary_digest",
        [
            (
                "rfs", "single",
                "0ac3fcf17f06d6c5ee0b72775ba7a52c07813871cefa8877c0fbdec114a41593",
                "a915eb66f9ee889da1287bf1d60cade20491e39ac58129083bd12cd646784e82",
            ),
            (
                "rob", "all",
                "9734d0a3c57d2bdbbb32536bf25bb6331d227bdc03925611fe4a17a755157759",
                "e50ffd5cb65c9b1b4ae5cf58928dce49a0fffd04970586c6c42af713718a672a",
            ),
        ],
    )
    def test_loop_forcer_pinned_csv(
        self, scheme, pattern, records_digest, summary_digest
    ):
        cfg = ExperimentConfig(
            n=16, scheme=scheme, adversary="loop-forcer", pattern=pattern,
            failure_grid=(0, 5, 10), trials=3, base_seed=7,
        )
        records = run_sweep(cfg)
        digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
        assert digest(records_to_csv(records)) == records_digest
        assert digest(summary_to_csv(summarize(records))) == summary_digest

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(adversary="ran", failure_grid=(0, 10, 40, 90)),
            dict(scheme="rfs-allpairs", adversary="ran", pattern="all",
                 failure_grid=(0, 30, 60)),
            dict(adversary="ecl", failure_grid=(0, 3, 8, 14)),
            dict(adversary="chain", failure_grid=(1, 3, 7)),
            dict(adversary="prefix", failure_grid=(1, 2, 4)),
            dict(adversary="loop-forcer", failure_grid=(0, 5, 10)),
        ],
        ids=["ran", "ran-allpairs", "ecl", "chain", "prefix", "loop-forcer"],
    )
    @pytest.mark.parametrize("jobs", (1, 2))
    def test_grid_records_are_its_points_records(self, overrides, jobs):
        """Cells run from the largest grid value down, and the records come
        back in grid order, as the single-point sweeps give them."""
        cfg = small_cfg(trials=2, **overrides)
        points = [
            record
            for phi in cfg.failure_grid
            for record in run_sweep(replace(cfg, failure_grid=(phi,)))
        ]
        assert records_to_csv(run_sweep(cfg, jobs=jobs)) == records_to_csv(points)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(adversary="ran", failure_grid=(30, 60, 90)),
            dict(scheme="rfs-allpairs", adversary="ran", pattern="all",
                 failure_grid=(30, 60, 90)),
            dict(adversary="ecl", failure_grid=(2, 5, 9, 14)),
        ],
        ids=["ran", "ran-allpairs", "ecl"],
    )
    def test_a_trial_redraws_no_row(self, monkeypatch, overrides):
        """A trial's random failure sets nest on these grids, so its largest
        grid value, run first, reads every row that the smaller ones read.
        Run upward, a row skipped at a small value would be redrawn at a
        larger one, and each redraw jumps a second generator to the row's
        first word. (``random.sample`` draws nested sets from one seed while
        it takes them the same way. It picks its way by the sizes: of the 120
        links of the 16-clique, it takes 22 or more from a shuffled pool, and
        fewer from a set of the links chosen so far.)"""
        drawn, jumps = [], []
        real_row, real_jump = schemes._random_row, schemes._jump

        def counting_row(nodes, src, dst, rng, steps):
            drawn.append((src, dst))
            return real_row(nodes, src, dst, rng, steps)

        def counting_jump(rng, words):
            jumps.append(words)
            return real_jump(rng, words)

        monkeypatch.setattr(schemes, "_random_row", counting_row)
        monkeypatch.setattr(schemes, "_jump", counting_jump)
        cfg = small_cfg(trials=1, **overrides)
        run_sweep(cfg)
        assert drawn and jumps == []
        scheme = experiments.build_scheme(
            cfg.scheme, cfg.n, cfg.resolved_dst, trial_seed(cfg.base_seed, 0)
        )
        for phi in cfg.failure_grid:
            run_trial(cfg, phi, 0, scheme=scheme)
        assert jumps

    def test_wall_time_recorded(self):
        cfg = small_cfg()
        scheme = experiments.build_scheme(
            cfg.scheme, cfg.n, cfg.resolved_dst, trial_seed(cfg.base_seed, 0)
        )
        record = run_trial(cfg, 4, 0, scheme=scheme)
        assert record.wall_time > 0


# Run in a fresh process: pytest or a parallel sweep in this one may already
# have loaded the pool modules.
NO_POOL = """
import sys
import failoverlab
from failoverlab import cli, experiments

cfg = experiments.ExperimentConfig(16, "rfs", "ecl", "single", (0, 4), 2, 1)
assert len(experiments.run_sweep(cfg)) == 4
pool = ("concurrent", "multiprocessing")
loaded = [m for m in sys.modules if m.partition(".")[0] in pool]
assert not loaded, loaded
"""


def test_no_pool_module_loads_without_jobs():
    """The package, its command line and a serial sweep load no module of
    ``concurrent.futures`` or ``multiprocessing``: only ``jobs`` > 1 needs
    the process pool."""
    src = Path(experiments.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-c", NO_POOL],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr


class TestHistogram:
    """The load distribution over links, read from the per-link loads."""

    def test_baseline_single_dest(self):
        report = evaluate(HopRule.ROB, Topology(10), SingleDest(9))
        assert Counter(report.per_link.values()) == {1: 9}

    def test_counts_loaded_links_only(self):
        m = gen_rfs(64, 63, 5)
        scenario = adv_ecl(64, 20, 63, 9)
        report = evaluate(
            m, Topology(64).with_failures(scenario), SingleDest(63)
        )
        assert min(report.per_link.values()) > 0

    def test_mostly_light_links_under_eclipse(self):
        # With 150 of 499 destination links gone, rerouted flows spread so
        # widely that almost every loaded link carries one or two flows
        # (measured 96% at this size).
        m = gen_rfs(500, 499, 7)
        scenario = adv_ecl(500, 150, 499, 99)
        report = evaluate(
            m, Topology(500).with_failures(scenario), SingleDest(499)
        )
        loads = report.per_link.values()
        light = sum(load <= acfg.LIGHT_LINK_LOAD_CUTOFF for load in loads)
        assert light / len(loads) >= acfg.LIGHT_LINK_MIN_FRACTION


class TestSummarize:
    def test_single_record_quantiles_collapse(self):
        records = run_sweep(small_cfg(trials=1, failure_grid=(4,)))
        (row,) = summarize(records)
        assert row.min == row.max
        assert row.q1 == row.median == row.q3 == float(row.min)

    def test_constant_column_has_zero_iqr(self):
        records = run_sweep(small_cfg(trials=4, failure_grid=(0,)))
        (row,) = summarize(records)
        assert row.q3 - row.q1 == 0
        assert row.median == 1.0

    def test_quartile_table_shape(self):
        records = run_sweep(small_cfg(trials=20, failure_grid=(4, 8)))
        rows = summarize(records)
        assert len(rows) == 2
        for row in rows:
            assert row.min <= row.q1 <= row.median <= row.q3 <= row.max
            loads = sorted(
                r.max_load for r in records if r.num_failures == row.num_failures
            )
            assert row.median == statistics.median(loads)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_csv_schema(self):
        records = run_sweep(small_cfg(trials=2, failure_grid=(4,)))
        csv = summary_to_csv(summarize(records))
        lines = csv.splitlines()
        assert (
            lines[0]
            == "scheme,adversary,n,num_failures,min,q1,median,q3,max,"
            "loop_rate,disc_rate"
        )
        assert lines[1].startswith("rfs,ecl,16,4,")


class TestComparativeBehavior:
    def test_random_failures_load_below_eclipse(self):
        # Spread-out failures rarely hit the destination's links, so the
        # load stays below the eclipse case at the same budget.
        medians = {}
        for adversary in ("ran", "ecl"):
            cfg = small_cfg(
                n=64, adversary=adversary, failure_grid=(30,), trials=10,
                base_seed=123,
            )
            medians[adversary] = statistics.median(
                r.max_load for r in run_sweep(cfg)
            )
        assert medians["ran"] <= medians["ecl"]

    def test_allpairs_scheme_beats_naive_rule_all_to_all(self):
        medians = {}
        for scheme in ("rfs-allpairs", "rob"):
            cfg = ExperimentConfig(
                n=32, scheme=scheme, adversary="ran", pattern="all",
                failure_grid=(60,), trials=6, base_seed=2,
            )
            medians[scheme] = statistics.median(
                r.max_load for r in run_sweep(cfg)
            )
        assert medians["rfs-allpairs"] <= medians["rob"]
