"""Spans around calls into failoverlab's public functions, recorded from outside.

Nothing under ``src/`` changes. Every wrapped function is rebound in every
``failoverlab`` module that holds it, because modules import names
directly (``from .routing import evaluate``) and a wrapper installed in the
defining module alone would miss those callers. Constructors are wrapped
through ``__post_init__`` (their validation), methods on the class.

Spans are kept in flat in-memory arrays while a pass runs and are reduced
to per-name call counts and self times when the pass ends. Self time is a
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable, Optional

# The per-flow calls that routing makes to its own ``route_flow`` stay
# unwrapped: they would add one span per flow, and ``route_pattern`` already
# times them as a whole. Every other binding of ``route_flow`` is an
# adversary's route query and is wrapped.
SKIP_BINDINGS = {("failoverlab.routing", "route_flow")}

Counters = Callable[["Tracer", tuple, dict, Any], None]


def _count_matrix(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["schemes.rows_built"] += len(result.rows)


def _count_report(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    c = tracer.counts
    c["routing.flows"] += result.delivered + result.loops + result.disconnected
    c["routing.delivered"] += result.delivered
    c["routing.loops"] += result.loops
    c["routing.disconnected"] += result.disconnected
    c["routing.hops"] += sum(result.per_link.values())


def _count_scenario(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    scenario = getattr(result, "scenario", result)
    tracer.counts["adversary.failed_links"] += len(scenario.links)


def _count_oracle(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["adversary.scenarios"] += result.scenarios_tested


def _count_cells(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["experiments.cells"] += len(result)


GENERATORS = ("schemes.gen_rfs", "schemes.gen_rfs_allpairs", "schemes.gen_dfs")

# (span name, module, attribute, counter). An attribute of the form
# ``Class.method`` is wrapped on the class.
SPANS: tuple[tuple[str, str, str, Optional[Counters]], ...] = (
    ("schemes.gen_rfs", "schemes", "gen_rfs", _count_matrix),
    ("schemes.gen_rfs_allpairs", "schemes", "gen_rfs_allpairs", _count_matrix),
    ("schemes.gen_dfs", "schemes", "gen_dfs", _count_matrix),
    ("schemes.FailoverMatrix", "schemes", "FailoverMatrix.__post_init__", None),
    ("adversary.prefix_attack", "adversary", "prefix_attack", _count_scenario),
    ("adversary.max_achievable_load", "adversary", "max_achievable_load", None),
    ("adversary.brute_force_worst_case", "adversary", "brute_force_worst_case", _count_oracle),
    ("adversary.loop_forcer", "adversary", "loop_forcer", _count_scenario),
    ("adversary.chain_attack", "adversary", "chain_attack", _count_scenario),
    ("adversary.adv_ran", "adversary", "adv_ran", _count_scenario),
    ("adversary.adv_ecl", "adversary", "adv_ecl", _count_scenario),
    ("routing.route_pattern", "routing", "route_pattern", None),
    ("routing.evaluate", "routing", "evaluate", _count_report),
    ("routing.route_flow", "routing", "route_flow", None),
    ("topology.Topology", "topology", "Topology.__post_init__", None),
    ("topology.FailureScenario", "topology", "FailureScenario.__post_init__", None),
    ("topology.mincut", "topology", "Topology.mincut", None),
    ("topology.disjoint_paths", "topology", "Topology.disjoint_paths", None),
    ("experiments.run_sweep", "experiments", "run_sweep", _count_cells),
    ("experiments.run_trial", "experiments", "run_trial", None),
)

COUNTER_NAMES = (
    "schemes.rows_built",
    "adversary.scenarios",
    "adversary.failed_links",
    "routing.flows",
    "routing.hops",
    "routing.delivered",
    "routing.loops",
    "routing.disconnected",
    "topology.maximum_flow.calls",
    "experiments.cells",
)

LAYERS = ("schemes", "adversary", "routing", "topology", "experiments")


class Tracer:
    """Installs the wrappers once; records only while ``active`` is true."""

    def __init__(self) -> None:
        self.active = False
        self.span_names = [name for name, *_ in SPANS]
        self._ids = {name: i for i, name in enumerate(self.span_names)}
        self._reset()

    def _reset(self) -> None:
        self.name_of = array("i")
        self.parent_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter({name: 0 for name in COUNTER_NAMES})
        self.generated: set[tuple] = set()

    def _wrap(self, name: str, fn: Callable, counter: Optional[Counters]) -> Callable:
        nid = self._ids[name]
        generator = name in GENERATORS

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.name_of)
            self.name_of.append(nid)
            self.parent_of.append(self.stack[-1] if self.stack else -1)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self.stack.pop()
            if generator:
                self.generated.add((name, args, tuple(sorted(kwargs.items()))))
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return wrapper

    def _count_maximum_flow(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self.active:
                self.counts["topology.maximum_flow.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every span target and rebind it wherever failoverlab holds it."""
        import failoverlab  # noqa: F401  (loads every submodule)

        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "failoverlab" or name.startswith("failoverlab.")
        }
        originals: dict[int, tuple[Any, Callable]] = {}
        for name, module, attr, counter in SPANS:
            owner: Any = modules[f"failoverlab.{module}"]
            parts = attr.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            fn = getattr(owner, parts[-1])
            wrapped = self._wrap(name, fn, counter)
            if len(parts) > 1:
                setattr(owner, parts[-1], wrapped)
            else:
                originals[id(fn)] = (fn, wrapped)
        topology = modules["failoverlab.topology"]
        topology.maximum_flow = self._count_maximum_flow(topology.maximum_flow)

        for mod_name, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is None or hit[0] is not value:
                    continue
                if (mod_name, attr) not in SKIP_BINDINGS:
                    setattr(mod, attr, hit[1])

    def take_pass(self) -> tuple[dict[str, int], dict[str, float]]:
        """Reduce the spans recorded since the last call to (counts, self
        times in seconds), then drop them."""
        n = len(self.name_of)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        for i in range(n):
            parent = self.parent_of[i]
            if parent >= 0:
                own[parent] -= dur[i]
        calls = Counter({name: 0 for name in self.span_names})
        self_s = {name: 0.0 for name in self.span_names}
        for i in range(n):
            name = self.span_names[self.name_of[i]]
            calls[name] += 1
            self_s[name] += own[i]
        counts = {f"{name}.calls": calls[name] for name in self.span_names}
        counts.update(self.counts)
        gen_calls = sum(calls[g] for g in GENERATORS)
        counts["schemes.gen.distinct_ratio"] = (
            len(self.generated) / gen_calls if gen_calls else 0.0
        )
        self._reset()
        return counts, self_s


def layer_shares(self_s: dict[str, float]) -> dict[str, float]:
    """Each layer's share of the summed self time."""
    total = sum(self_s.values()) or 1.0
    return {
        layer: sum(v for k, v in self_s.items() if k.startswith(layer + ".")) / total
        for layer in LAYERS
    }


def median_self_times(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
