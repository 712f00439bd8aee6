"""Sweep harness: failure-count grids, seeded trials, CSV emission.

Per-trial randomness derives from the config's base seed as
``trial_seed = base_seed ^ trial``; scheme generation uses the trial seed
directly and scenario sampling uses ``trial_seed ^ SCENARIO_SALT`` so the
two streams never alias. Identical configs therefore reproduce identical
records byte for byte, and trials can run on any number of workers.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence, Union

from . import adversary as adv
from .routing import AllToAll, Pattern, Scheme, SingleDest, evaluate
from .schemes import HopRule, gen_dfs, gen_rfs, gen_rfs_allpairs
from .topology import FailureScenario, Topology

SCENARIO_SALT = 0x5DEECE66D

SCHEME_NAMES = ("rfs", "dfs", "bal", "rob", "rfs-allpairs")
ADVERSARY_NAMES = ("ran", "ecl", "prefix", "chain", "loop-forcer")
PATTERN_NAMES = ("single", "all")

RECORD_FIELDS = (
    "scheme",
    "adversary",
    "pattern",
    "n",
    "num_failures",
    "trial",
    "seed",
    "max_load",
    "loops",
    "disconnected",
)


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    scheme: str
    adversary: str
    pattern: str
    failure_grid: tuple[int, ...]
    trials: int
    base_seed: int
    dst: Optional[int] = None  # defaults to n-1

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"need at least 3 nodes, got {self.n}")
        if self.dst is not None and not 0 <= self.dst < self.n:
            raise ValueError(f"destination {self.dst} outside 0..{self.n - 1}")
        if self.scheme not in SCHEME_NAMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.adversary not in ADVERSARY_NAMES:
            raise ValueError(f"unknown adversary {self.adversary!r}")
        if self.pattern not in PATTERN_NAMES:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not self.failure_grid:
            raise ValueError("failure grid is empty")
        if list(self.failure_grid) != sorted(self.failure_grid):
            raise ValueError("failure grid must be ascending")
        if self.failure_grid[0] < 0:
            raise ValueError(f"failure grid value {self.failure_grid[0]} is negative")
        if self.pattern == "all" and self.scheme in ("rfs", "dfs"):
            raise ValueError(
                f"{self.scheme} serves a single destination; use rfs-allpairs "
                f"or a hop rule for all-to-all traffic"
            )
        if self.scheme == "dfs" and self.resolved_dst != self.n - 1:
            raise ValueError("dfs requires the destination index n-1")
        if self.adversary == "prefix" and self.scheme not in ("rfs", "dfs"):
            raise ValueError(
                "the prefix adversary needs a single-destination matrix scheme "
                "(rfs or dfs)"
            )
        if self.adversary in ("chain", "loop-forcer") and self.resolved_dst == 0:
            raise ValueError(
                f"the {self.adversary} adversary's victim flow runs from node 0; "
                f"pick another dst"
            )
        # Grid values each adversary accepts (loop-forcer ignores them), so
        # that a bad grid fails here rather than midway through a sweep.
        bounds = {
            "ran": (0, self.n * (self.n - 1) // 2),
            "ecl": (0, self.n - 2),
            "prefix": (1, self.n - 1),
            "chain": (1, self.n - 1),
        }.get(self.adversary)
        if bounds is not None:
            lo, hi = bounds
            for phi in (self.failure_grid[0], self.failure_grid[-1]):
                if not lo <= phi <= hi:
                    raise ValueError(
                        f"the {self.adversary} adversary takes grid values in "
                        f"{lo}..{hi}, got {phi}"
                    )

    @property
    def resolved_dst(self) -> int:
        return self.n - 1 if self.dst is None else self.dst

    def to_file(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_text())

    def to_text(self) -> str:
        lines = [
            f"n={self.n}",
            f"scheme={self.scheme}",
            f"adversary={self.adversary}",
            f"pattern={self.pattern}",
            "failure_grid=" + ",".join(str(phi) for phi in self.failure_grid),
            f"trials={self.trials}",
            f"base_seed={self.base_seed}",
        ]
        if self.dst is not None:
            lines.append(f"dst={self.dst}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        """Parse ``key=value`` lines; blank lines and ``#`` comments are
        skipped. Unknown, repeated and missing keys are errors."""
        known = {f.name for f in fields(cls)}
        values: dict[str, str] = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            key = key.strip()
            if not eq:
                raise ValueError(f"config line {line!r} is not key=value")
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            if key in values:
                raise ValueError(f"duplicate config key {key!r}")
            values[key] = value.strip()
        try:
            return cls(
                n=int(values["n"]),
                scheme=values["scheme"],
                adversary=values["adversary"],
                pattern=values["pattern"],
                failure_grid=tuple(
                    int(x) for x in values["failure_grid"].split(",") if x
                ),
                trials=int(values["trials"]),
                base_seed=int(values["base_seed"]),
                dst=int(values["dst"]) if "dst" in values else None,
            )
        except KeyError as missing:
            raise ValueError(f"config is missing the {missing} key") from None

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ExperimentConfig":
        return cls.from_text(Path(path).read_text())


@dataclass(frozen=True)
class TrialRecord:
    scheme: str
    adversary: str
    pattern: str
    n: int
    num_failures: int
    trial: int
    seed: int
    max_load: int
    loops: int
    disconnected: int
    wall_time: float

    def csv_row(self) -> str:
        return ",".join(
            str(getattr(self, field)) for field in RECORD_FIELDS
        )


def trial_seed(base_seed: int, trial: int) -> int:
    return base_seed ^ trial


def scenario_seed(base_seed: int, trial: int) -> int:
    return trial_seed(base_seed, trial) ^ SCENARIO_SALT


def build_scheme(name: str, n: int, dst: int, seed: int) -> Scheme:
    """The scheme named ``name`` on ``n`` nodes, one of SCHEME_NAMES. rfs
    and dfs serve ``dst``; rfs and rfs-allpairs draw from ``seed``."""
    if name == "rfs":
        return gen_rfs(n, dst, seed)
    if name == "dfs":
        return gen_dfs(n, dst)
    if name == "rfs-allpairs":
        return gen_rfs_allpairs(n, seed)
    return HopRule(name)


def _draw_scenario(
    cfg: ExperimentConfig, scheme: Scheme, phi: int, seed: int
) -> FailureScenario:
    dst = cfg.resolved_dst
    if cfg.adversary == "ran":
        return adv.adv_ran(cfg.n, phi, seed)
    if cfg.adversary == "ecl":
        return adv.adv_ecl(cfg.n, phi, dst, seed)
    if cfg.adversary == "chain":
        return adv.chain_attack(scheme, cfg.n, dst, phi).scenario
    if cfg.adversary == "prefix":
        # The grid value is the target load, not a link budget.
        return adv.prefix_attack(scheme, dst, phi).scenario
    return adv.loop_forcer(scheme, cfg.n, dst)  # grid value ignored


def run_trial(
    cfg: ExperimentConfig, phi: int, trial: int, *, scheme: Scheme
) -> TrialRecord:
    """One sweep cell. ``scheme`` is the trial's scheme, built by
    ``build_scheme`` from the trial seed alone, so every grid point of a
    trial shares it. ``wall_time`` covers the work done in this call,
    which includes making the rows of ``scheme`` that this cell reads
    first."""
    started = time.perf_counter()
    seed = trial_seed(cfg.base_seed, trial)
    scenario = _draw_scenario(cfg, scheme, phi, scenario_seed(cfg.base_seed, trial))
    topo = Topology.clique(cfg.n).with_failures(scenario)
    pattern: Pattern = (
        SingleDest(cfg.resolved_dst) if cfg.pattern == "single" else AllToAll()
    )
    report = evaluate(scheme, topo, pattern)
    return TrialRecord(
        scheme=cfg.scheme,
        adversary=cfg.adversary,
        pattern=cfg.pattern,
        n=cfg.n,
        num_failures=len(scenario.links),
        trial=trial,
        seed=seed,
        max_load=report.max_load,
        loops=report.loops,
        disconnected=report.disconnected,
        wall_time=time.perf_counter() - started,
    )


def _run_trial_cells(
    cfg: ExperimentConfig, trial: int, phis: Sequence[int]
) -> list[TrialRecord]:
    """Grid points ``phis`` of one trial, all evaluated with one built scheme
    and returned in grid order.

    The cells run from the largest grid value down. The ``ran`` and ``ecl``
    failure sets of one trial nest wherever ``random.sample`` takes them the
    same way, which it picks by their sizes. Then the first cell reads every
    row that a later one reads, and its ``wall_time`` holds the making of
    them all. Run upward, each cell would skip rows that a later cell then
    redraws.

    The loop-forcer ignores the grid value, so its cell is computed once and
    its record repeated for the other grid points, with no wall time of
    their own."""
    scheme = build_scheme(
        cfg.scheme, cfg.n, cfg.resolved_dst, trial_seed(cfg.base_seed, trial)
    )
    if cfg.adversary == "loop-forcer":
        first = run_trial(cfg, phis[0], trial, scheme=scheme)
        return [first] + [replace(first, wall_time=0.0)] * (len(phis) - 1)
    cells = [run_trial(cfg, phi, trial, scheme=scheme) for phi in reversed(phis)]
    return cells[::-1]


def run_sweep(cfg: ExperimentConfig, jobs: int = 1) -> list[TrialRecord]:
    """All (failure count, trial) cells, emitted in grid-then-trial order.

    Work is trial-major: each task builds its trial's scheme once and
    evaluates a run of grid points with it. With ``jobs`` > 1 there is one
    task per trial when ``trials >= jobs``; with fewer trials, each trial's
    grid is split into ``jobs // trials`` runs, at the cost of one scheme
    build per run, so that idle workers take grid points while there are
    never more tasks than workers. Results are collected in task order, so
    parallel runs return the same records.
    """
    grid = cfg.failure_grid
    trials = range(cfg.trials)
    if jobs <= 1:
        done = [_run_trial_cells(cfg, trial, grid) for trial in trials]
    else:
        runs = min(len(grid), max(1, jobs // cfg.trials))
        size = -(-len(grid) // runs)
        parts = [grid[i : i + size] for i in range(0, len(grid), size)]
        # Imported here: the pool module loads multiprocessing, which no
        # serial sweep needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(
                pool.map(
                    _run_trial_cells,
                    [cfg] * (cfg.trials * len(parts)),
                    [trial for trial in trials for _ in parts],
                    parts * cfg.trials,
                )
            )
    cells = [cell for task in done for cell in task]  # trial-major
    return [cells[t * len(grid) + i] for i in range(len(grid)) for t in trials]


def records_to_csv(records: Sequence[TrialRecord]) -> str:
    lines = [",".join(RECORD_FIELDS)]
    lines.extend(r.csv_row() for r in records)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SummaryRow:
    scheme: str
    adversary: str
    n: int
    num_failures: int
    min: int
    q1: float
    median: float
    q3: float
    max: int
    loop_rate: float
    disc_rate: float


def _flows_per_trial(pattern: str, n: int) -> int:
    return n - 1 if pattern == "single" else n * (n - 1)


def summarize(records: Sequence[TrialRecord]) -> list[SummaryRow]:
    """Quartile table of max load per (scheme, adversary, n, failure count),
    plus loop/disconnect rates as a fraction of routed flows."""
    if not records:
        raise ValueError("no records to summarize")
    groups: dict[tuple[str, str, int, int], list[TrialRecord]] = {}
    for r in records:
        groups.setdefault((r.scheme, r.adversary, r.n, r.num_failures), []).append(r)
    rows = []
    for (scheme, adversary, n, phi), recs in sorted(groups.items()):
        loads = sorted(r.max_load for r in recs)
        if len(loads) == 1:
            q1 = median = q3 = float(loads[0])
        else:
            q1, median, q3 = statistics.quantiles(loads, n=4, method="inclusive")
        flows = sum(_flows_per_trial(r.pattern, r.n) for r in recs)
        rows.append(
            SummaryRow(
                scheme=scheme,
                adversary=adversary,
                n=n,
                num_failures=phi,
                min=loads[0],
                q1=q1,
                median=median,
                q3=q3,
                max=loads[-1],
                loop_rate=sum(r.loops for r in recs) / flows,
                disc_rate=sum(r.disconnected for r in recs) / flows,
            )
        )
    return rows


def summary_to_csv(rows: Sequence[SummaryRow]) -> str:
    lines = ["scheme,adversary,n,num_failures,min,q1,median,q3,max,loop_rate,disc_rate"]
    for r in rows:
        lines.append(
            f"{r.scheme},{r.adversary},{r.n},{r.num_failures},{r.min},"
            f"{r.q1},{r.median},{r.q3},{r.max},{r.loop_rate},{r.disc_rate}"
        )
    return "\n".join(lines) + "\n"
