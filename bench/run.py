"""failoverlab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --trace 0
    python3 bench/run.py --workload all        # every workload, one table
    python3 bench/run.py --selftest            # reduced-size trace checks

Each run measures in a fresh child process (``harness.py``). With
``--trace 0`` it reports the end-to-end metrics; set-up time is the median
over five fresh processes, each timed from its spawn to the moment it is
ready for the first timed unit. With ``--trace 1`` it reports the per-layer
metrics of a traced run instead. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records provenance. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARNESS = HERE / "harness.py"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("sweep", "attack", "oracle", "adaptive-cut")
SETUP_PROBES_EACH_SIDE = 2
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 150
MEASURE_BUDGET_S = 170  # one workload's run, probes included, ends within this
# A fresh interpreter importing numpy: the reference for set-up time. Its
# fastest time on an idle host (2-core KVM guest, Intel Xeon, Python 3.11.7,
# numpy 2.4.6) scales the correction, so that corrected set-up times read as
# seconds on that host when idle.
STARTUP_REFERENCE = ("-c", "import numpy")
STARTUP_REFERENCE_S = 0.10


class BenchError(RuntimeError):
    """A child process failed; no result is printed."""


def git_sha() -> str:
    """HEAD of this checkout read from .git, or "none" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def child(
    workload: str, seed: int, seconds: float, trace: int, deadline: float, *extra: str
) -> dict:
    """Run harness.py in a fresh process and return its JSON line, with
    ``setup_s`` added: the time from spawning it to its being ready. The
    child is killed if it is still running at ``deadline`` (monotonic)."""
    cmd = [
        sys.executable, str(HARNESS), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    timeout = SETUP_TIMEOUT_S if "--setup-only" in extra else RUN_TIMEOUT_S
    timeout = max(0.0, min(timeout, deadline - time.monotonic()))
    # CLOCK_MONOTONIC is system-wide on Linux, so the child's reading of
    # time.monotonic() is comparable with this one.
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: child exceeded {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload}: child exited with status {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - spawned
    return out


def probe(workload: str, seed: int, deadline: float) -> float:
    return child(workload, seed, 0, 0, deadline, "--setup-only")["setup_s"]


def startup_reference(deadline: float) -> float:
    """Time a fresh interpreter importing numpy.

    A busy host slows starting a process and importing compiled modules by
    up to 2x, and more than it slows ``harness.reference_task``, which runs
    in a warm process. Each set-up sample is multiplied by
    ``STARTUP_REFERENCE_S`` over the mean of the timings either side of it;
    the library cannot change them.
    """
    timeout = max(0.0, min(SETUP_TIMEOUT_S, deadline - time.monotonic()))
    start = time.monotonic()
    try:
        subprocess.run(
            [sys.executable, *STARTUP_REFERENCE], cwd=ROOT, check=True, timeout=timeout
        )
    except (subprocess.SubprocessError, OSError) as exc:
        raise BenchError(f"set-up reference failed: {exc}") from None
    return time.monotonic() - start


def timed_run(workload: str, seed: int, seconds: float, deadline: float) -> tuple:
    """The measuring child and five set-up samples, corrected for host speed.

    Set-up is sampled before and after the measuring child, so that the
    median spans the whole run rather than one moment of the host's load.
    Returns the child's result and the corrected samples.
    """
    references = [startup_reference(deadline)]
    samples = []
    for i in range(2 * SETUP_PROBES_EACH_SIDE + 1):
        if i == SETUP_PROBES_EACH_SIDE:
            run = child(workload, seed, seconds, 0, deadline)
            raw = run["setup_s"]
        else:
            raw = probe(workload, seed, deadline)
        references.append(startup_reference(deadline))
        samples.append(raw * STARTUP_REFERENCE_S / statistics.mean(references[-2:]))
    return run, samples


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: returns the contract's result object plus
    provenance."""
    deadline = time.monotonic() + MEASURE_BUDGET_S
    if trace:
        run = child(workload, seed, seconds, trace, deadline)
        setups = []
        values = run["per_layer"]
    else:
        run, setups = timed_run(workload, seed, seconds, deadline)
        values = {
            "units_per_s": run["units_per_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["peak_rss_mb"],
            "ok_frac": 1 - run["failed"] / run["attempted"],
        }
    # BENCHMARK.json names the metrics and their units; report exactly those.
    spec = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    if set(values) != {m["name"] for m in spec}:
        raise BenchError(f"{workload}: reported metrics differ from {SPEC.name}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    provenance = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": run["passes"],
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        **run["versions"],
        "setup_samples_s": setups,
        "host_speed": run["host_speed"],
        "layer_shares": run.get("layer_shares"),
        "problems": run["problems"],
    }
    return {
        "provenance": provenance,
        "result": {
            "correct": run["correct"],
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": metrics,
        },
    }


def show(workload: str, measured: dict) -> None:
    prov, result = measured["provenance"], measured["result"]
    for problem in prov["problems"]:
        print(f"{workload}: FAILED {problem}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{workload:>12} {name:<42} {m['value']:>14.6g} {m['unit']}")
    if not prov["trace"]:
        fail_frac = result["failed"] / result["attempted"]
        print(f"{workload:>12} {'fail_frac':<42} {fail_frac:>14.6g} ratio")
    if prov["layer_shares"]:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in prov["layer_shares"].items())
        print(f"{workload:>12} self-time shares: {shares}")


def selftest() -> bool:
    """Every workload at reduced size, traced: traced and untraced outputs
    must be byte-identical and traced counts must repeat exactly."""
    ok = True
    for workload in WORKLOADS:
        run = child(workload, 1, 0, 1, time.monotonic() + MEASURE_BUDGET_S, "--small")
        print(f"selftest {workload}: {'ok' if run['correct'] else 'FAILED'} "
              f"({run['passes']} passes)")
        for problem in run["problems"]:
            print(f"  {problem}", file=sys.stderr)
        ok = ok and run["correct"]
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=json.loads(SPEC.read_text())["run_seconds"]
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    # Exit through SystemExit on SIGTERM so that subprocess.run kills and
    # reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.selftest:
            return 0 if selftest() else 1
        if args.workload == "all":
            results = {}
            for workload in WORKLOADS:
                measured = measure(workload, args.seed, args.seconds, args.trace)
                show(workload, measured)
                results[workload] = measured["result"]
            print(json.dumps(results))
            return 0 if all(r["correct"] for r in results.values()) else 1
        measured = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    show(args.workload, measured)
    print(json.dumps(measured["provenance"]))
    print(json.dumps(measured["result"]))
    return 0 if measured["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
