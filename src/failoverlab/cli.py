"""Command-line front end.

Exit codes: 0 on success, 1 when an invariant check or attack-backed
assertion fails, 2 on usage errors. Every randomized verb echoes its
resolved configuration (seed included) to stderr so runs can be replayed.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from itertools import accumulate
from pathlib import Path
from typing import Optional

from . import adversary as adv
from .experiments import (
    ExperimentConfig,
    build_scheme,
    records_to_csv,
    run_sweep,
    summarize,
    summary_to_csv,
)
from .routing import AllToAll, Scheme, SingleDest, Status, evaluate, route_flow
from .schemes import (
    FailoverMatrix,
    Flow,
    HopRule,
    VerificationExhaustedError,
    dfs_row_length,
    gen_dfs,
    gen_rfs,
    gen_rfs_verified,
)
from .topology import FailureScenario, Topology, all_links

DEFAULT_SEED = 271828


def _echo(args: argparse.Namespace, **extra) -> None:
    resolved = {**vars(args), **extra}
    resolved.pop("func", None)
    line = " ".join(f"{k}={v}" for k, v in sorted(resolved.items()) if v is not None)
    print(f"# resolved: {line}", file=sys.stderr)


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _load_scheme(args: argparse.Namespace) -> Scheme:
    if getattr(args, "matrix", None) and getattr(args, "rule", None):
        raise ValueError("--matrix and --rule exclude each other; give one")
    if getattr(args, "matrix", None):
        return FailoverMatrix.from_text(Path(args.matrix).read_text())
    if getattr(args, "rule", None):
        return HopRule(args.rule)
    raise ValueError("either --matrix or --rule is required")


def _scheme_n_dst(
    args: argparse.Namespace, rule_n: Optional[int] = None
) -> tuple[Scheme, int, int]:
    """The --matrix or --rule scheme, its clique size and its destination.

    A matrix fixes n, and a single-destination matrix fixes dst as well, so
    --n and --dst may only repeat them. A hop rule takes ``rule_n`` if given,
    else --n. dst defaults to n-1."""
    scheme = _load_scheme(args)
    n, dst = getattr(args, "n", None), args.dst
    if isinstance(scheme, FailoverMatrix):
        if n is not None and n != scheme.n:
            raise ValueError(f"--n {n} differs from the matrix size {scheme.n}")
        n = scheme.n
        if scheme.is_single_dest:
            if dst is not None and dst != scheme.dst:
                raise ValueError(
                    f"--dst {dst} differs from the matrix destination {scheme.dst}"
                )
            dst = scheme.dst
    elif rule_n is not None:
        n = rule_n
    if n is None:
        raise ValueError("--n is required with --rule")
    return scheme, n, n - 1 if dst is None else dst


def cmd_gen_scheme(args: argparse.Namespace) -> int:
    dst = args.dst if args.dst is not None else args.n - 1
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    if args.verify_threshold is None and args.verify_budget is not None:
        raise ValueError("--verify-budget needs --verify-threshold")
    if args.verify_threshold is not None and args.scheme != "rfs":
        raise ValueError(f"--verify-threshold applies to rfs, not {args.scheme}")
    if args.scheme == "dfs" and args.seed is not None:
        raise ValueError("--seed applies to rfs and rfs-allpairs, not dfs")
    if args.scheme == "rfs-allpairs" and args.dst is not None:
        raise ValueError("--dst applies to rfs and dfs, not rfs-allpairs")
    if args.verify_threshold is not None:
        draw = gen_rfs_verified(
            args.n, dst, seed, args.verify_threshold, budget=args.verify_budget
        )
        print(f"# redraws={draw.redraws} accepted_seed={draw.seed}", file=sys.stderr)
        matrix = draw.matrix
    else:
        matrix = build_scheme(args.scheme, args.n, dst, seed)
    _echo(
        args,
        dst=None if args.scheme == "rfs-allpairs" else dst,
        seed=None if args.scheme == "dfs" else seed,
    )
    _write(args.out, matrix.to_text())
    return 0


# Per attack plan: the options it needs, and the options it reads beside
# --out, which are the only ones its echo names. The attack itself checks
# which scheme it accepts.
PLAN_OPTIONS = {
    "ran": (("n", "phi"), ("n", "phi", "seed")),
    "ecl": (("n", "phi"), ("n", "phi", "dst", "seed")),
    "loop-forcer": ((), ("matrix", "rule", "n", "dst")),
    "chain": (("phi",), ("matrix", "rule", "n", "dst", "phi")),
    "prefix": (("target_load",), ("matrix", "n", "dst", "target_load", "report")),
    "pigeonhole": (("phi",), ("matrix", "phi", "report")),
}


def cmd_attack(args: argparse.Namespace) -> int:
    needs, reads = PLAN_OPTIONS[args.plan]
    if any(getattr(args, k) is None for k in needs):
        flags = " and ".join("--" + k.replace("_", "-") for k in needs)
        raise ValueError(f"{args.plan} needs {flags}")
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    n, dst = args.n, args.dst
    report_text = None
    if args.plan == "ran":
        scenario = adv.adv_ran(args.n, args.phi, seed)
    elif args.plan == "ecl":
        dst = args.dst if args.dst is not None else args.n - 1
        scenario = adv.adv_ecl(args.n, args.phi, dst, seed)
    elif args.plan == "loop-forcer":
        scheme, n, dst = _scheme_n_dst(args)
        scenario = adv.loop_forcer(scheme, n, dst)
    elif args.plan == "chain":
        scheme, n, dst = _scheme_n_dst(args)
        result = adv.chain_attack(scheme, n, dst, args.phi)
        scenario = result.scenario
        if result.broke_scheme:
            ran = "all rounds ran" if result.completed else "rounds stopped early"
            print(
                f"# scheme broke after {result.rounds_completed} of "
                f"{result.budget} rounds; {ran} ({result.final_status.value})",
                file=sys.stderr,
            )
    elif args.plan == "prefix":
        scheme, n, dst = _scheme_n_dst(args)
        plan = adv.prefix_attack(scheme, dst, args.target_load)
        scenario, report_text = plan.scenario, plan.to_text()
    else:  # pigeonhole
        plan = adv.pigeonhole_attack(_load_scheme(args), args.phi)
        scenario, report_text = plan.scenario, plan.to_text()
    read = {"plan", "out", "verb", *reads}
    resolved = {**vars(args), "n": n, "dst": dst, "seed": seed}
    _echo(args, **{k: v if k in read else None for k, v in resolved.items()})
    _write(args.out, scenario.to_text())
    if report_text is not None and args.report:
        Path(args.report).write_text(report_text)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    scenario = FailureScenario.from_text(Path(args.failures).read_text())
    scheme, n, dst = _scheme_n_dst(args, rule_n=scenario.n)
    if args.pattern == "all":
        dst = None  # all-to-all reads no destination
    topo = Topology.clique(n).with_failures(scenario)
    pattern = AllToAll() if dst is None else SingleDest(dst)
    report = evaluate(scheme, topo, pattern)
    _echo(args, n=n, dst=dst)
    _write(args.out, report.to_csv())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    print(f"# resolved config:\n{cfg.to_text()}", file=sys.stderr, end="")
    records = run_sweep(cfg, jobs=args.jobs)
    _write(args.out, records_to_csv(records))
    if args.summary:
        Path(args.summary).write_text(summary_to_csv(summarize(records)))
    return 0


def cmd_mincut(args: argparse.Namespace) -> int:
    topo = Topology.clique(args.n)
    if args.failures:
        scenario = FailureScenario.from_text(Path(args.failures).read_text())
        topo = topo.with_failures(scenario)
    print(topo.mincut())
    return 0


def _verify_dfs_structure(n: int) -> list[str]:
    problems = []
    matrix = gen_dfs(n, n - 1)
    length = dfs_row_length(n)
    rows = [matrix.rows[Flow(m, n - 1)] for m in range(n - 1)]
    for k in range(length):
        column = [row[k] for row in rows]
        if len(set(column)) != n - 1:
            problems.append(f"n={n}: column {k} has repeated entries")
    appearances: dict[int, int] = {}
    for row in rows:
        for e in row:
            appearances[e] = appearances.get(e, 0) + 1
    worst = max(appearances.values())
    if worst > length:
        problems.append(f"n={n}: some index appears in {worst} > {length} rows")
    for node in range(n):
        prefixes = [set(row[: row.index(node)]) for row in rows if node in row]
        for i in range(len(prefixes)):
            for j in range(i + 1, len(prefixes)):
                shared = prefixes[i] & prefixes[j]
                if shared:
                    problems.append(
                        f"n={n}: prefixes of {node} share {sorted(shared)}"
                    )
    return problems


def _verify_rfs_loopfree(n: int, seed: int, trials: int) -> list[str]:
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    problems = []
    rng = random.Random(seed)
    links = all_links(n)
    max_phi = min(len(links), 200)
    for t in range(trials):
        matrix = gen_rfs(n, n - 1, rng.randrange(1 << 48))
        phi = rng.randint(0, max_phi)
        failed = frozenset(rng.sample(links, phi))
        topo = Topology(n, failed)
        for src in range(n - 1):
            verdict = route_flow(matrix, topo, Flow(src, n - 1))
            if verdict.status is Status.LOOP:
                problems.append(
                    f"trial {t}: flow {src}->{n - 1} looped: {verdict.path}"
                )
    return problems


def _verify_theorems(n: int, seed: int) -> list[str]:
    problems = []
    dst = n - 1
    for name in ("rfs", "dfs", "rob", "bal"):
        scheme = build_scheme(name, n, dst, seed)
        scenario = adv.loop_forcer(scheme, n, dst)
        if len(scenario.links) > n - 1:
            problems.append(f"loop-forcer vs {name}: used {len(scenario.links)} links")
        cut = Topology.clique(n).with_failures(scenario).mincut()
        if cut < n // 2 - 1:
            problems.append(f"loop-forcer vs {name}: mincut {cut}")
    phi = max(1, n // 4)
    result = adv.chain_attack(HopRule.ROB, n, dst, phi)
    if result.completed:
        topo = Topology.clique(n).with_failures(result.scenario)
        report = evaluate(HopRule.ROB, topo, SingleDest(dst))
        verdict = route_flow(HopRule.ROB, topo, Flow(0, dst))
        if verdict.status is Status.DELIVERED:
            last_load = report.link_load(verdict.path[-2], dst)
            if last_load < phi:
                problems.append(f"chain vs rob: last-link load {last_load} < {phi}")
        cut = topo.mincut()
        if cut != n - phi - 1:
            problems.append(f"chain vs rob: mincut {cut} != {n - phi - 1}")
    rng = random.Random(seed)
    for _ in range(10):
        phi = rng.randint(1, n - 2)
        scenario = adv.adv_ran(n, phi, rng.randrange(1 << 48))
        cut = Topology.clique(n).with_failures(scenario).mincut()
        if cut < n - phi - 1:
            problems.append(f"random phi={phi}: mincut {cut} < {n - phi - 1}")
    return problems


# Most failure sets the dfs-envelope suite enumerates.
ENVELOPE_SCENARIOS = 100_000


def _dfs_envelope_bound(phi: int) -> int:
    """B(phi) = min(phi, max{L : L(L-1)/2 <= phi}): the most transit flows
    one node carries under gen_dfs with phi failed destination links, for
    n a power of two."""
    quadratic = 1
    while (quadratic + 1) * quadratic // 2 <= phi:
        quadratic += 1
    return min(phi, quadratic)


def _verify_dfs_envelope(n: int) -> list[str]:
    """Brute-force the worst node load of gen_dfs(n, n-1) over destination
    links for every phi up to the largest whose failure sets number at most
    ENVELOPE_SCENARIOS, print it beside B(phi), and report every phi where
    it exceeds B(phi)."""
    if n < 4 or n & (n - 1):
        raise ValueError(f"the dfs envelope holds for n a power of two >= 4, got {n}")
    budget = max(
        phi
        for phi in range(n)
        if sum(math.comb(n - 1, k) for k in range(phi + 1)) <= ENVELOPE_SCENARIOS
    )
    result = adv.brute_force_worst_case(gen_dfs(n, n - 1), n, n - 1, budget)
    problems = []
    # The worst load with at most phi failures, from the worst per size.
    loads = accumulate(result.max_node_load_by_size, max)
    for phi, load in enumerate(loads):
        bound = _dfs_envelope_bound(phi)
        print(f"phi={phi} worst_node_load={load} bound={bound}")
        if load > bound:
            problems.append(f"n={n} phi={phi}: node load {load} > B(phi)={bound}")
    return problems


def cmd_verify(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    # Echo only the inputs the suite reads, so the line replays the run.
    _echo(
        args,
        seed=seed if args.suite in ("rfs-loopfree", "theorems") else None,
        trials=args.trials if args.suite == "rfs-loopfree" else None,
    )
    if args.suite == "dfs-structure":
        problems = _verify_dfs_structure(args.n)
    elif args.suite == "rfs-loopfree":
        problems = _verify_rfs_loopfree(args.n, seed, args.trials)
    elif args.suite == "dfs-envelope":
        problems = _verify_dfs_envelope(args.n)
    else:
        problems = _verify_theorems(args.n, seed)
    for p in problems:
        print(f"VIOLATION: {p}", file=sys.stderr)
    print(f"{args.suite}: {'ok' if not problems else f'{len(problems)} violations'}")
    return 1 if problems else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="failoverlab",
        description="Generate, attack, and evaluate local failover schemes "
        "on fully meshed networks.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen-scheme", help="write a failover matrix file")
    p.add_argument("--scheme", required=True, choices=("rfs", "dfs", "rfs-allpairs"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dst", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--verify-threshold", type=int)
    p.add_argument(
        "--verify-budget",
        type=int,
        help="attack budget for --verify-threshold (default: threshold^2)",
    )
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_gen_scheme)

    p = sub.add_parser("attack", help="produce a failure scenario")
    p.add_argument(
        "--plan",
        required=True,
        choices=("ran", "ecl", "loop-forcer", "prefix", "chain", "pigeonhole"),
    )
    p.add_argument("--n", type=int)
    p.add_argument("--phi", type=int)
    p.add_argument("--dst", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--matrix")
    p.add_argument("--rule", choices=("bal", "rob"))
    p.add_argument("--target-load", type=int)
    p.add_argument("--out", default="-")
    p.add_argument("--report", help="also write the attack plan report")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("evaluate", help="route a pattern and write the load CSV")
    p.add_argument("--matrix")
    p.add_argument("--rule", choices=("bal", "rob"))
    p.add_argument("--failures", required=True)
    p.add_argument("--pattern", default="single", choices=("single", "all"))
    p.add_argument("--dst", type=int)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="run an experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--summary")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument(
        "--suite",
        required=True,
        choices=("dfs-structure", "rfs-loopfree", "dfs-envelope", "theorems"),
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mincut", help="print the exact mincut")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--failures")
    p.set_defaults(func=cmd_mincut)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationExhaustedError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except adv.ConstructionFailedError as exc:
        print(f"construction falsified: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
