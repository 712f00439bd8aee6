"""Command-line surface: verbs, exit codes, file round-trips, replays."""

from __future__ import annotations

import pytest

from failoverlab.cli import main
from failoverlab.schemes import FailoverMatrix, Flow
from failoverlab.topology import FailureScenario


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenScheme:
    def test_dfs_first_row(self, capsys):
        code, out, _ = run(
            capsys, "gen-scheme", "--scheme", "dfs", "--n", "8", "--dst", "7"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "0: 1 2 4"

    def test_rfs_embeds_seed_and_replays(self, capsys, tmp_path):
        out_file = tmp_path / "m.txt"
        for _ in range(2):
            code, _, err = run(
                capsys, "gen-scheme", "--scheme", "rfs", "--n", "12",
                "--seed", "31", "--out", str(out_file),
            )
            assert code == 0
            assert "seed=31" in err
        text = out_file.read_text()
        assert text.splitlines()[0].endswith("seed=31")
        assert FailoverMatrix.from_text(text).seed == 31

    def test_default_seed_documented(self, capsys):
        code, out, _ = run(capsys, "gen-scheme", "--scheme", "rfs", "--n", "8")
        assert code == 0
        assert "seed=271828" in out.splitlines()[0]

    def test_bad_size_exits_2(self, capsys):
        code, _, err = run(capsys, "gen-scheme", "--scheme", "dfs", "--n", "3")
        assert code == 2
        assert "error" in err

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-scheme", "--scheme", "nope", "--n", "8"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "extra",
        [
            ("--scheme", "dfs", "--verify-threshold", "1", "--verify-budget", "7"),
            ("--scheme", "dfs", "--verify-threshold", "1"),
            ("--scheme", "rfs-allpairs", "--verify-threshold", "1"),
            ("--scheme", "rfs", "--verify-budget", "7"),
            ("--scheme", "dfs", "--verify-budget", "7"),
        ],
    )
    def test_verify_options_it_cannot_apply_exit_2(self, capsys, extra):
        # Each of these once wrote an unverified matrix and exited 0.
        code, out, err = run(capsys, "gen-scheme", "--n", "8", *extra)
        assert code == 2
        assert out == ""
        assert "verify" in err

    @pytest.mark.parametrize(
        "extra, option",
        [
            (("--scheme", "dfs", "--seed", "5"), "--seed"),
            (("--scheme", "rfs-allpairs", "--dst", "2"), "--dst"),
        ],
    )
    def test_inputs_the_scheme_ignores_exit_2(self, capsys, extra, option):
        code, out, err = run(capsys, "gen-scheme", "--n", "8", *extra)
        assert code == 2
        assert out == ""
        assert option in err

    def test_resolved_line_names_only_inputs_the_scheme_reads(self, capsys):
        _, _, err = run(capsys, "gen-scheme", "--scheme", "rfs-allpairs", "--n", "4")
        resolved = "# resolved: n=4 out=- scheme=rfs-allpairs seed=271828 verb=gen-scheme"
        assert resolved in err.splitlines()

    def test_negative_verify_budget_exits_2(self, capsys):
        # It once wrote a "verified" matrix and exited 0.
        code, out, err = run(
            capsys, "gen-scheme", "--scheme", "rfs", "--n", "16",
            "--verify-threshold", "2", "--verify-budget", "-3",
        )
        assert code == 2
        assert out == ""
        assert "budget" in err

    def test_verified_rfs_reports_its_redraws(self, capsys):
        code, out, err = run(
            capsys, "gen-scheme", "--scheme", "rfs", "--n", "8",
            "--verify-threshold", "3", "--verify-budget", "2",
        )
        assert code == 0
        assert "# redraws=" in err
        assert "verify_budget=2 verify_threshold=3" in err
        assert FailoverMatrix.from_text(out).n == 8


class TestMincut:
    def test_unfailed_clique(self, capsys):
        code, out, _ = run(capsys, "mincut", "--n", "10")
        assert code == 0
        assert out.strip() == "9"

    def test_with_failure_file(self, capsys, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text(FailureScenario.manual(10, [(0, 9), (1, 9)]).to_text())
        code, out, _ = run(capsys, "mincut", "--n", "10", "--failures", str(f))
        assert code == 0
        assert out.strip() == "7"


class TestAttackAndEvaluate:
    def test_ecl_then_evaluate(self, capsys, tmp_path):
        m = tmp_path / "m.txt"
        f = tmp_path / "f.txt"
        out = tmp_path / "load.csv"
        assert run(
            capsys, "gen-scheme", "--scheme", "rfs", "--n", "16",
            "--seed", "5", "--out", str(m),
        )[0] == 0
        assert run(
            capsys, "attack", "--plan", "ecl", "--n", "16", "--phi", "4",
            "--seed", "9", "--out", str(f),
        )[0] == 0
        scenario = FailureScenario.from_text(f.read_text())
        assert scenario.phi == 4 and scenario.seed == 9
        assert run(
            capsys, "evaluate", "--matrix", str(m), "--failures", str(f),
            "--pattern", "single", "--out", str(out),
        )[0] == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "link_a,link_b,load"
        assert lines[-1].startswith("summary,")

    @pytest.mark.parametrize(
        "matrix, failures",
        (
            ("n=4 mode=single:3 seed=none\n0: 1 2\n", "n=4 source=Manual seed=none\n"),
            ("n=4 mode=single:3 scheme=Manual seed=none\n0: 1 2\n0: 2 1\n",
             "n=4 source=Manual seed=none\n"),
            ("n=4 mode=single:3 scheme=Manual seed=none\n0: 1 2\n", "n=4 seed=none\n"),
        ),
    )
    def test_malformed_text_exits_2(self, capsys, tmp_path, matrix, failures):
        m = tmp_path / "m.txt"
        f = tmp_path / "f.txt"
        m.write_text(matrix)
        f.write_text(failures)
        code, _, err = run(
            capsys, "evaluate", "--matrix", str(m), "--failures", str(f)
        )
        assert code == 2
        assert err.startswith("error: ")

    def test_matrix_on_two_nodes_exits_2(self, capsys, tmp_path):
        m = tmp_path / "m2.txt"
        f = tmp_path / "f.txt"
        m.write_text("n=2 mode=single:1 scheme=Manual seed=none\n0: \n")
        f.write_text("n=3 source=Manual seed=none\n")
        code, _, err = run(
            capsys, "evaluate", "--matrix", str(m), "--failures", str(f)
        )
        assert code == 2
        assert err == "error: clique size must be at least 3, got 2\n"

    def test_all_pairs_matrix_with_destination_outside_exits_2(self, capsys, tmp_path):
        m = tmp_path / "a6.txt"
        f = tmp_path / "f.txt"
        assert run(
            capsys, "gen-scheme", "--scheme", "rfs-allpairs", "--n", "6",
            "--seed", "1", "--out", str(m),
        )[0] == 0
        f.write_text("n=6 source=Manual seed=none\n")
        code, out, err = run(
            capsys, "evaluate", "--matrix", str(m), "--failures", str(f),
            "--dst", "9",
        )
        assert (code, out) == (2, "")
        assert err == "error: link (0,9) has an endpoint outside 0..5\n"

    def test_loop_forcer_with_rule(self, capsys):
        code, out, _ = run(
            capsys, "attack", "--plan", "loop-forcer", "--rule", "rob",
            "--n", "10",
        )
        assert code == 0
        scenario = FailureScenario.from_text(out)
        assert scenario.source == "LoopForcer"
        assert len(scenario.links) <= 9

    def test_prefix_plan_report(self, capsys, tmp_path):
        m = tmp_path / "m.txt"
        report = tmp_path / "plan.txt"
        run(
            capsys, "gen-scheme", "--scheme", "rfs", "--n", "16", "--seed",
            "5", "--out", str(m),
        )
        code, out, _ = run(
            capsys, "attack", "--plan", "prefix", "--matrix", str(m),
            "--target-load", "3", "--out", "-", "--report", str(report),
        )
        assert code == 0
        assert "target_w=" in report.read_text()
        assert FailureScenario.from_text(out).source == "PrefixAttack"

    def test_chain_with_rule(self, capsys):
        code, out, _ = run(
            capsys, "attack", "--plan", "chain", "--rule", "rob", "--n",
            "12", "--phi", "4",
        )
        assert code == 0
        assert FailureScenario.from_text(out).phi == 4

    @pytest.mark.parametrize(
        "rule, rounds, line",
        [
            # Every round ran, and the last failure left the victim looping.
            ("rob", 7, "# scheme broke after 7 of 7 rounds; all rounds ran (loop)"),
            ("bal", 4, "# scheme broke after 4 of 7 rounds; rounds stopped early (loop)"),
        ],
        ids=["all-ran", "stopped-early"],
    )
    def test_chain_names_a_broken_scheme(self, capsys, rule, rounds, line):
        code, out, err = run(
            capsys, "attack", "--plan", "chain", "--rule", rule, "--n", "8",
            "--phi", "7",
        )
        assert code == 0
        assert line in err.splitlines()
        assert FailureScenario.from_text(out).phi == rounds

    def test_chain_silent_while_delivered(self, capsys):
        _, _, err = run(
            capsys, "attack", "--plan", "chain", "--rule", "rob", "--n", "8",
            "--phi", "6",
        )
        assert "broke" not in err

    def test_pigeonhole(self, capsys, tmp_path):
        m = tmp_path / "ap.txt"
        run(
            capsys, "gen-scheme", "--scheme", "rfs-allpairs", "--n", "10",
            "--seed", "3", "--out", str(m),
        )
        code, out, _ = run(
            capsys, "attack", "--plan", "pigeonhole", "--matrix", str(m),
            "--phi", "3",
        )
        assert code == 0
        assert FailureScenario.from_text(out).phi == 3

    def test_pigeonhole_manual_rows(self, capsys, tmp_path):
        # A Manual all-pairs matrix may hold an empty row; the attack skips
        # it, and a matrix with no backup hop at all is a usage error.
        flows = [Flow(s, d) for s in range(4) for d in range(4) if s != d]
        some = tmp_path / "some.txt"
        rows = {f: tuple(v for v in range(4) if v != f.src) for f in flows}
        rows[Flow(0, 1)] = ()
        some.write_text(FailoverMatrix(4, None, rows).to_text())
        none = tmp_path / "none.txt"
        none.write_text(FailoverMatrix(4, None, {f: () for f in flows}).to_text())
        code, out, _ = run(
            capsys, "attack", "--plan", "pigeonhole", "--matrix", str(some),
            "--phi", "2",
        )
        assert code == 0
        assert FailureScenario.from_text(out).phi == 2
        code, out, err = run(
            capsys, "attack", "--plan", "pigeonhole", "--matrix", str(none),
            "--phi", "2",
        )
        assert code == 2
        assert out == ""
        assert err == "error: no row of the matrix holds a backup hop to attack through\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("attack", "--plan", "ran", "--n", "8"), "ran needs --n and --phi"),
            (("attack", "--plan", "ecl", "--phi", "2"), "ecl needs --n and --phi"),
            (
                ("attack", "--plan", "loop-forcer"),
                "either --matrix or --rule is required",
            ),
            (
                ("attack", "--plan", "loop-forcer", "--rule", "rob"),
                "--n is required with --rule",
            ),
            (
                ("attack", "--plan", "chain", "--rule", "rob", "--n", "8"),
                "chain needs --phi",
            ),
            (
                ("attack", "--plan", "prefix", "--rule", "rob"),
                "prefix needs --target-load",
            ),
            (
                (
                    "attack", "--plan", "prefix", "--rule", "rob", "--n", "8",
                    "--target-load", "2",
                ),
                "the prefix attack needs a single-destination matrix",
            ),
            (
                ("attack", "--plan", "pigeonhole", "--rule", "rob"),
                "pigeonhole needs --phi",
            ),
            (
                ("attack", "--plan", "pigeonhole", "--rule", "rob", "--phi", "2"),
                "the pigeonhole attack needs an all-pairs matrix",
            ),
        ],
        ids=[
            "ran", "ecl", "no-scheme", "rule-without-n", "chain", "prefix-load",
            "prefix-rule", "pigeonhole-phi", "pigeonhole-rule",
        ],
    )
    def test_missing_budget_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("attack", "--plan", "loop-forcer", "--matrix", "{m}", "--rule", "rob"),
            ("evaluate", "--matrix", "{m}", "--rule", "rob", "--failures", "{f}"),
        ],
        ids=["attack", "evaluate"],
    )
    def test_matrix_and_rule_together_exit_2(self, capsys, tmp_path, argv):
        # Both name a scheme; answering for one of them while echoing the
        # other would be a silently wrong replay line.
        m, f = tmp_path / "m.txt", tmp_path / "f.txt"
        assert run(
            capsys, "gen-scheme", "--scheme", "rfs", "--n", "8", "--out", str(m)
        )[0] == 0
        f.write_text(FailureScenario.manual(8, [(0, 7)]).to_text())
        argv = [a.format(m=m, f=f) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: --matrix and --rule exclude each other; give one\n"

    @pytest.mark.parametrize(
        "argv, line",
        [
            (
                ("--plan", "ran", "--n", "8", "--phi", "2", "--dst", "3",
                 "--seed", "4"),
                "n=8 out=- phi=2 plan=ran seed=4 verb=attack",
            ),
            (
                ("--plan", "ecl", "--n", "8", "--phi", "2"),
                "dst=7 n=8 out=- phi=2 plan=ecl seed=271828 verb=attack",
            ),
            (
                ("--plan", "loop-forcer", "--rule", "rob", "--n", "8", "--phi", "3"),
                "dst=7 n=8 out=- plan=loop-forcer rule=rob verb=attack",
            ),
            (
                ("--plan", "chain", "--rule", "rob", "--n", "8", "--phi", "2",
                 "--seed", "4"),
                "dst=7 n=8 out=- phi=2 plan=chain rule=rob verb=attack",
            ),
            (
                ("--plan", "prefix", "--matrix", "{single}", "--target-load", "2",
                 "--phi", "5", "--seed", "4"),
                "dst=7 matrix={single} n=8 out=- plan=prefix target_load=2 verb=attack",
            ),
            (
                ("--plan", "pigeonhole", "--matrix", "{allpairs}", "--phi", "2",
                 "--n", "9", "--dst", "3", "--report", "{report}"),
                "matrix={allpairs} out=- phi=2 plan=pigeonhole report={report} "
                "verb=attack",
            ),
        ],
        ids=["ran", "ecl", "loop-forcer", "chain", "prefix", "pigeonhole"],
    )
    def test_resolved_line_names_only_inputs_the_plan_reads(
        self, capsys, tmp_path, argv, line
    ):
        files = {
            "single": tmp_path / "m.txt",
            "allpairs": tmp_path / "ap.txt",
            "report": tmp_path / "plan.txt",
        }
        run(
            capsys, "gen-scheme", "--scheme", "rfs", "--n", "8",
            "--out", str(files["single"]),
        )
        run(
            capsys, "gen-scheme", "--scheme", "rfs-allpairs", "--n", "8",
            "--out", str(files["allpairs"]),
        )
        code, _, err = run(capsys, "attack", *(a.format(**files) for a in argv))
        assert code == 0
        resolved = [ln for ln in err.splitlines() if ln.startswith("# resolved:")]
        assert resolved == [f"# resolved: {line.format(**files)}"]

    @staticmethod
    def single_dest_inputs(capsys, tmp_path):
        """A single:7 rfs matrix at n=8 and two failed links, as files."""
        m = tmp_path / "m.txt"
        f = tmp_path / "f.txt"
        run(capsys, "gen-scheme", "--scheme", "rfs", "--n", "8", "--out", str(m))
        f.write_text(FailureScenario.manual(8, [(0, 7), (3, 7)]).to_text())
        return m, f

    @pytest.mark.parametrize(
        "verb",
        [
            ("evaluate",),
            ("evaluate", "--pattern", "all"),
            ("attack", "--plan", "loop-forcer"),
        ],
    )
    def test_dst_other_than_the_matrix_destination_exits_2(
        self, capsys, tmp_path, verb
    ):
        # evaluate once routed to 7 anyway, exited 0 and echoed dst=7.
        m, f = self.single_dest_inputs(capsys, tmp_path)
        files = ("--failures", str(f)) if verb[0] == "evaluate" else ()
        code, out, err = run(capsys, *verb, "--matrix", str(m), *files, "--dst", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --dst 3 differs from the matrix destination 7")

    MATRIX_PLANS = pytest.mark.parametrize(
        "plan",
        [
            ("--plan", "loop-forcer"),
            ("--plan", "chain", "--phi", "2"),
            ("--plan", "prefix", "--target-load", "2"),
        ],
        ids=["loop-forcer", "chain", "prefix"],
    )

    @MATRIX_PLANS
    def test_n_other_than_the_matrix_size_exits_2(self, capsys, tmp_path, plan):
        # The attack once ran on the 8-node matrix anyway and exited 0.
        m, _ = self.single_dest_inputs(capsys, tmp_path)
        code, out, err = run(capsys, "attack", *plan, "--matrix", str(m), "--n", "9")
        assert code == 2
        assert out == ""
        assert err == "error: --n 9 differs from the matrix size 8\n"

    @MATRIX_PLANS
    def test_n_repeating_the_matrix_size_is_accepted(self, capsys, tmp_path, plan):
        m, _ = self.single_dest_inputs(capsys, tmp_path)
        code, with_n, err = run(
            capsys, "attack", *plan, "--matrix", str(m), "--n", "8"
        )
        assert code == 0
        assert "n=8" in err.split()
        assert run(capsys, "attack", *plan, "--matrix", str(m))[1] == with_n

    def test_dst_repeating_the_matrix_destination_is_accepted(self, capsys, tmp_path):
        m, f = self.single_dest_inputs(capsys, tmp_path)
        code, with_dst, err = run(
            capsys, "evaluate", "--matrix", str(m), "--failures", str(f), "--dst", "7"
        )
        assert code == 0
        assert "dst=7" in err
        assert run(capsys, "evaluate", "--matrix", str(m), "--failures", str(f))[1] == (
            with_dst
        )

    @pytest.mark.parametrize("pattern, echoed", [("single", True), ("all", False)])
    def test_resolved_line_echoes_dst_only_for_single(
        self, capsys, tmp_path, pattern, echoed
    ):
        f = tmp_path / "f.txt"
        f.write_text(FailureScenario.manual(8, [(0, 3)]).to_text())
        code, _, err = run(
            capsys, "evaluate", "--rule", "rob", "--failures", str(f),
            "--pattern", pattern, "--dst", "3",
        )
        assert code == 0
        resolved = [ln for ln in err.splitlines() if ln.startswith("# resolved:")]
        assert len(resolved) == 1
        assert ("dst=3" in resolved[0].split()) is echoed


class TestVerify:
    def test_dfs_structure_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "dfs-structure", "--n", "64")
        assert code == 0
        assert "ok" in out

    def test_rfs_loopfree_ok(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "rfs-loopfree", "--n", "16",
            "--trials", "50",
        )
        assert code == 0

    @pytest.mark.parametrize("trials", ("0", "-3"))
    def test_rfs_loopfree_needs_a_trial(self, capsys, trials):
        code, out, err = run(
            capsys, "verify", "--suite", "rfs-loopfree", "--n", "8",
            "--trials", trials,
        )
        assert code == 2
        assert "ok" not in out
        assert f"--trials must be at least 1, got {trials}" in err

    def test_theorems_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "theorems", "--n", "12")
        assert code == 0

    def test_theorems_falsified_construction_exits_1(self, capsys, monkeypatch):
        # A flow still delivered after the loop-forcer's construction would
        # contradict the impossibility bound; the attack raises, not the suite.
        from failoverlab import adversary
        from failoverlab.routing import PathVerdict, Status

        monkeypatch.setattr(
            adversary,
            "route_flow",
            lambda scheme, topo, flow: PathVerdict(flow, Status.DELIVERED, flow),
        )
        code, out, err = run(capsys, "verify", "--suite", "theorems", "--n", "8")
        assert code == 1
        assert out == ""
        assert "construction falsified: flow 0->7 was still delivered" in err

    @pytest.mark.parametrize(
        "n, loads",
        [
            # Every destination link at n=8 and at n=16 (32,768 failure
            # sets); the loads for phi >= 10 at n=16 were first measured one
            # oracle call per phi.
            (8, [0, 1, 2, 3, 3, 3, 3, 3]),
            (16, [0, 1, 2, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]),
        ],
    )
    def test_dfs_envelope_ok(self, capsys, n, loads):
        code, out, _ = run(capsys, "verify", "--suite", "dfs-envelope", "--n", str(n))
        assert code == 0
        bound = [0, 1, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5, 6]
        assert out.splitlines() == [
            f"phi={phi} worst_node_load={load} bound={bound[phi]}"
            for phi, load in enumerate(loads)
        ] + ["dfs-envelope: ok"]

    @pytest.mark.parametrize(
        "suite, line",
        [
            ("dfs-structure", "n=8 suite=dfs-structure verb=verify"),
            ("dfs-envelope", "n=8 suite=dfs-envelope verb=verify"),
            ("theorems", "n=8 seed=271828 suite=theorems verb=verify"),
            ("rfs-loopfree", "n=8 seed=271828 suite=rfs-loopfree trials=5 verb=verify"),
        ],
    )
    def test_resolved_line_names_only_inputs_the_suite_reads(self, capsys, suite, line):
        code, _, err = run(
            capsys, "verify", "--suite", suite, "--n", "8", "--trials", "5"
        )
        assert code == 0
        resolved = [ln for ln in err.splitlines() if ln.startswith("# resolved:")]
        assert resolved == [f"# resolved: {line}"]

    def test_dfs_envelope_reports_violations(self, capsys, monkeypatch):
        from failoverlab import cli

        monkeypatch.setattr(cli, "_dfs_envelope_bound", lambda phi: 2)
        code, out, err = run(capsys, "verify", "--suite", "dfs-envelope", "--n", "8")
        assert code == 1
        assert out.splitlines()[-1] == "dfs-envelope: 5 violations"
        assert "VIOLATION: n=8 phi=3: node load 3 > B(phi)=2" in err

    @pytest.mark.parametrize("n", ("12", "2"))
    def test_dfs_envelope_needs_power_of_two(self, capsys, n):
        code, _, err = run(capsys, "verify", "--suite", "dfs-envelope", "--n", n)
        assert code == 2
        assert "power of two" in err


class TestSweep:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "n=16\nscheme=rfs\nadversary=ecl\npattern=single\n"
            "failure_grid=0,4,8\ntrials=3\nbase_seed=11\n"
        )
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code, _, _ = run(
                capsys, "sweep", "--config", str(cfg), "--out", str(out)
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_summary_written(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "n=16\nscheme=rob\nadversary=ecl\npattern=single\n"
            "failure_grid=4\ntrials=4\nbase_seed=0\n"
        )
        summary = tmp_path / "summary.csv"
        code, _, _ = run(
            capsys, "sweep", "--config", str(cfg), "--out",
            str(tmp_path / "r.csv"), "--summary", str(summary),
        )
        assert code == 0
        assert summary.read_text().splitlines()[0].startswith("scheme,adversary")

    def test_bad_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n=16\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "error" in err

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "n=16\nscheme=rfs\nadversary=ecl\npattern=single\n"
            "failure_grid=4\ntrials=2\nbase_seed=0\ndest=3\n"
        )
        code, out, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "unknown config key 'dest'" in err
        assert out == ""

    def test_grid_the_adversary_cannot_take_exits_2_before_running(
        self, capsys, tmp_path
    ):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "n=16\nscheme=rfs\nadversary=chain\npattern=single\n"
            "failure_grid=0,4\ntrials=2\nbase_seed=0\n"
        )
        out = tmp_path / "r.csv"
        code, stdout, err = run(
            capsys, "sweep", "--config", str(cfg), "--out", str(out), "--jobs", "2"
        )
        assert code == 2
        assert "grid values in 1..15, got 0" in err
        assert "resolved config" not in err
        assert stdout == "" and not out.exists()


def test_gen_evaluate_round_trip_consumes_own_output(capsys, tmp_path):
    # gen-scheme then evaluate must accept the generated file untouched.
    m = tmp_path / "m.txt"
    f = tmp_path / "f.txt"
    run(capsys, "gen-scheme", "--scheme", "dfs", "--n", "16", "--out", str(m))
    run(capsys, "attack", "--plan", "ecl", "--n", "16", "--phi", "3",
        "--seed", "1", "--out", str(f))
    code, out, _ = run(
        capsys, "evaluate", "--matrix", str(m), "--failures", str(f)
    )
    assert code == 0
    assert out.splitlines()[0] == "link_a,link_b,load"
