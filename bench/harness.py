"""Run one workload in this (fresh) process and print one JSON line.

    python3 bench/harness.py --workload oracle --seed 1 --seconds 10 --trace 0

The library is imported from this checkout's ``src/``; a failoverlab found
anywhere else is refused, so a stray installed copy is never measured.
With ``--setup-only`` the process stops after set-up and reports when set-up
ended. Otherwise it runs whole passes over the workload's units until
``--seconds`` have elapsed, timing each unit corrected for host speed (see
``reference_task``) and checking every output outside the timed region.

With ``--trace 1`` passes alternate traced, untraced, traced, ...: the
untraced passes give the tracing overhead and must produce byte-identical
outputs, and every traced pass must record exactly the same counts.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 1
MAX_PROBLEMS_SHOWN = 10
# The reference task's fastest time on an idle host (2-core KVM guest, Intel
# Xeon, Python 3.11.7). It only scales the host-speed correction, so that
# corrected figures read as seconds on that host when idle.
REFERENCE_S = 0.0074
REFERENCE_REPEATS = 5


def reference_task() -> float:
    """Time a fixed pure-Python task that does not touch failoverlab.

    Other tenants of a shared host slow everything on it by up to 1.7x for
    tens of seconds at a time, and the task slows with it. Each timing is
    multiplied by ``REFERENCE_S`` over the task's time measured next to it,
    which removes that common factor; the library cannot change the task.
    """
    start = time.perf_counter()
    totals: dict[int, int] = {}
    for i in range(60_000):
        totals[i % 997] = totals.get(i % 997, 0) + i
    sorted(totals.values())
    return time.perf_counter() - start


def import_library():
    """Import failoverlab from this checkout's src/ or exit with status 2."""
    if not (SRC / "failoverlab" / "__init__.py").is_file():
        sys.exit(f"bench: no failoverlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import failoverlab

    if not Path(failoverlab.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"bench: imported {failoverlab.__file__}, not the copy under {SRC}")
    return failoverlab


def slot_rate(units: list, durations: list[list[float]]) -> float:
    """Units of one pass divided by the sum over units of each unit's
    fastest corrected timing. The correction removes the host's slow spells
    that last seconds or more; of the shorter disturbances, which only ever
    slow a unit down, the fastest repeat keeps the least."""
    total = sum(u.units for u in units)
    return total / sum(min(d) for d in durations)


class OutputChecks:
    """Checks a unit's output once per distinct output.

    At the default seed (``pinned`` non-empty) every output's sha256 must
    equal the pinned digest. In any run, a unit's output must be the same in
    every pass, traced or not.
    """

    def __init__(self, pinned: dict[str, str]) -> None:
        self.pinned = pinned
        self.first: dict[str, str] = {}
        self._found: dict[tuple[str, str], list[str]] = {}

    def problems(self, unit, out) -> list[str]:
        try:
            digest = hashlib.sha256(unit.text(out).encode()).hexdigest()
        except Exception as exc:  # malformed output fails the unit
            return [f"output could not be rendered: {exc!r}"]
        key = (unit.id, digest)
        if key not in self._found:
            try:
                found = unit.check(out)
            except Exception as exc:  # malformed output fails the unit
                found = [f"check raised {exc!r}"]
            if self.pinned and self.pinned.get(unit.id) != digest:
                found.append(f"output digest {digest} differs from the pinned one")
            if self.first.setdefault(unit.id, digest) != digest:
                found.append("output changed between passes")
            self._found[key] = found
        return self._found[key]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced input sizes")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    failoverlab = import_library()
    import numpy
    import scipy
    import spans
    import workloads

    units = workloads.WORKLOADS[args.workload](args.seed, args.small)
    pinned = {}
    if args.seed == DEFAULT_SEED and not args.small:
        pinned = json.loads(DIGESTS.read_text())[args.workload]
    workloads.warm_up()
    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    min_passes = 3 if args.trace else 1
    deadline = time.perf_counter() + args.seconds
    plain = [[] for _ in units]
    traced = [[] for _ in units]
    pass_counts: list[dict] = []
    pass_self_s: list[dict] = []
    checks = OutputChecks(pinned)
    problems: list[str] = []
    attempted = failed = passes = 0
    reference_before = min(reference_task() for _ in range(REFERENCE_REPEATS))
    references: list[float] = []
    while passes < min_passes or time.perf_counter() < deadline:
        tracing = bool(args.trace) and passes % 2 == 0
        durations = traced if tracing else plain
        for slot, unit in enumerate(units):
            # Traced passes stay whole so that their counts compare.
            if passes >= min_passes and not args.trace and time.perf_counter() >= deadline:
                break
            # Start every unit from the same heap: the previous output and
            # any garbage are gone, so neither the peak nor a collection
            # inside the unit depends on what ran before it.
            out = None
            gc.collect()
            tracer.active = tracing
            start = time.perf_counter()
            try:
                out = unit.call()
                error = None
            except Exception as exc:  # a failing unit is counted, not fatal
                error = f"raised {exc!r}"
            elapsed = time.perf_counter() - start
            tracer.active = False
            # The faster of the reference timings either side of the unit.
            reference_after = reference_task()
            references.append(reference_after)
            speed = REFERENCE_S / min(reference_before, reference_after)
            durations[slot].append(elapsed * speed)
            reference_before = reference_after
            attempted += unit.units
            unit_problems = [error] if error else checks.problems(unit, out)
            if unit_problems:
                failed += unit.units
                problems.extend(f"{unit.id}: {p}" for p in unit_problems)
        if tracing:
            counts, self_s = tracer.take_pass()
            pass_counts.append(counts)
            pass_self_s.append(self_s)
        passes += 1

    result = {
        "ready": ready,
        "host_speed": REFERENCE_S / statistics.median(references),
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "units_per_s": slot_rate(units, plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digests": checks.first,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "failoverlab": failoverlab.__file__,
        },
    }
    if args.trace:
        counts = pass_counts[0]
        if any(c != counts for c in pass_counts[1:]):
            problems.append("traced passes recorded different counts")
        for name in workloads.EXPECTED_SPANS[args.workload]:
            if counts[f"{name}.calls"] == 0:
                problems.append(f"expected span {name} recorded no calls")
        self_s = spans.median_self_times(pass_self_s)
        per_layer = dict(counts)
        per_layer.update({f"{name}.self_s": v for name, v in self_s.items()})
        per_layer["trace.overhead"] = (
            slot_rate(units, traced) / result["units_per_s"]
        )
        result["per_layer"] = per_layer
        result["layer_shares"] = spans.layer_shares(self_s)
    result["problems"] = problems[:MAX_PROBLEMS_SHOWN]
    result["correct"] = not problems
    print(json.dumps(result))


if __name__ == "__main__":
    main()
