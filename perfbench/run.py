"""swarmchain benchmark: one closed-loop caller, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload framing_n48 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run with every layer wrapped and reports the
per-layer metrics (see ``layers.py``).  Each timed run happens in a fresh
interpreter (``worker.py``) so caches start cold, as for a CLI user.
Set-up time is the median of several fresh set-up-only starts, each
timed from spawn until the worker has imported what its workload needs,
generated its inputs and exited.

Every time is reported at reference machine speed (see ``clock.py``):
the host's speed drifts too much for raw wall times to compare between
runs.  The raw throughput is printed alongside for reference.

Every metric is printed by name with its unit together with the output
check of the workload; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits non-zero,
without that line, if any run fails to start or finish.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from clock import ReferenceClock

HERE = Path(__file__).resolve().parent
WORKLOADS = ("framing_n48", "analyze_n100", "montecarlo_n48")
SETUP_STARTS = 5
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """A worker failed to start, crashed or ran out of time."""


def _worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool, deadline: float):
    """Run one worker to completion; return its result, or None for a set-up-only start."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker ran past the {RUN_BUDGET_S:.0f} s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return None if setup_only else json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run of one workload, as the result object to print."""
    deadline = perf_counter() + RUN_BUDGET_S
    setups = []
    if not trace:
        clock = ReferenceClock("interpreter")
        for _ in range(SETUP_STARTS):
            start = clock.mark()
            _worker(workload, seed, seconds, trace, True, deadline)
            setups.append(clock.mark() - start)
    result = _worker(workload, seed, seconds, trace, False, deadline)
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for failure in result["failures"]:
        print(f"{workload}: failed op: {failure}", file=sys.stderr)
    result["correct"] = result["failed"] == 0
    return result


def _print_human(workload: str, result: dict) -> None:
    for name, (calls, inclusive_s, self_s) in result.get("spans", {}).items():
        print(
            f"{workload:<15} span {name:<34} calls {calls:>10} "
            f"inclusive {inclusive_s * 1e3:>11.3f} ms  self {self_s * 1e3:>11.3f} ms"
        )
    for name, m in result["metrics"].items():
        print(f"{workload:<15} {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"{workload:<15} {'raw throughput, not normalised':<40} {result['raw_throughput_ops_s']:>16.6g} 1/s")
    verdict = "PASS" if result["correct"] else "FAIL"
    print(
        f"{workload:<15} check: {result['check']}: {verdict} "
        f"({result['failed']} of {result['attempted']} ops failed)"
    )


def _result_line(result: dict) -> dict:
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, args.trace)
            _print_human(name, results[name])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = _result_line(results[names[0]])
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
