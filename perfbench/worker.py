"""One timed run of one workload in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  A fresh process per
run keeps swarmchain's process-wide memos (the verify and key-load
caches, graph adjacency) and the peak RSS from leaking between runs and
workloads, as they do not for a CLI user.

With ``--setup-only`` it imports what the workload needs, generates the
inputs and exits (the parent times that as set-up); otherwise it prints
one JSON object with the run's result on stdout.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics

# The end-to-end metrics a worker measures; the parent adds set-up time.
END_TO_END_MEASURED = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("passed_op_share", "ratio"),
)


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return

    if args.trace:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        probe = layers.install(tracer)
    outcome = workload.run(args.seconds)
    result = {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "check": workload.check,
        "raw_throughput_ops_s": outcome.attempted / outcome.raw_wall_s,
    }
    if args.trace:
        stats = tracer.summary()
        bias = workload.closed_form_bias() if hasattr(workload, "closed_form_bias") else 0.0
        values = layers.per_layer_metrics(stats, probe, outcome.attempted, outcome.wall_s, len(tracer), bias)
        units = dict(layers.PER_LAYER)
        result["spans"] = {name: [s.calls, s.inclusive_s, s.self_s] for name, s in stats.items()}
    else:
        latencies_ms = [t * 1e3 for t in outcome.latencies_s]
        units = dict(END_TO_END_MEASURED)
        values = {
            "throughput_ops_s": outcome.attempted / outcome.wall_s,
            "latency_p50_ms": statistics.median(latencies_ms),
            "latency_p90_ms": _percentile(latencies_ms, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "passed_op_share": (outcome.attempted - outcome.failed) / outcome.attempted,
        }
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
