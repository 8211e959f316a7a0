"""Command-line front end: simulate, analyze, prob, montecarlo.

Every output file is JSON with an embedded run manifest, so any emitted
artifact can be reproduced from itself.  ``--format machine`` switches
stdout from human-readable tables to line-delimited JSON records.
"""
from __future__ import annotations

import argparse
import json
import secrets
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any

from . import __version__, suites
from .detect import LocalView, audit_trace, compile_report
from .prob import (
    Estimate,
    ProbQuery,
    mc_report_within,
    prob_no_report,
    prob_pair_meets_all,
    prob_report_within,
    prob_report_within_exact,
)
from .sim import (
    ConfigError,
    SimConfig,
    SimTrace,
    TraceError,
    dump_json,
    run_manifest,
    run_simulation,
)

REPORT_FORMAT = "swarmchain-report"
REPORT_VERSION = 1


def _load_config(path: str) -> SimConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"{path} is not valid JSON: {exc}") from exc
    return SimConfig.from_dict(data)


def _resolve_seed(config: SimConfig, args, out) -> SimConfig:
    """The config under ``--seed``, else a seedless config given an
    entropy-derived seed.  The notice goes to ``out`` in human output and
    to stderr in machine output, whose record carries the seed."""
    if args.seed is not None:
        return replace(config, seed=args.seed)
    if config.seed is None:
        seed = secrets.randbits(48)
        print(f"no seed given; using entropy-derived seed {seed}", file=out if args.format == "human" else sys.stderr)
        return replace(config, seed=seed)
    return config


def _emit(doc: dict[str, Any], path: str | None) -> None:
    if path:
        Path(path).write_text(dump_json(doc))


def cmd_simulate(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    config = _resolve_seed(_load_config(args.config), args, out)
    manifest = run_manifest(config, config_path=args.config, output_path=args.output)
    trace = run_simulation(config)
    Path(args.output).write_text(trace.to_json(manifest=manifest))
    adversary_actions = sum(1 for x in trace.exchanges if x.fabricated or x.notes)
    if args.format == "machine":
        print(
            json.dumps(
                {
                    "record": "simulate-summary",
                    "robots": config.n,
                    "intervals": config.intervals,
                    "seed": config.seed,
                    "exchanges": len(trace.exchanges),
                    "adversary_actions": adversary_actions,
                    "trace": args.output,
                },
                sort_keys=True,
            ),
            file=out,
        )
    else:
        print(f"simulated {config.n} robots over {config.intervals} intervals (seed {config.seed})", file=out)
        print(f"  exchanges: {len(trace.exchanges)}", file=out)
        print(f"  exchanges with adversary involvement: {adversary_actions}", file=out)
        print(f"  trace written to {args.output}", file=out)
    return 0


def _load_trace(path: str) -> SimTrace:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise TraceError("trace", f"cannot read {path}: {exc}") from exc
    return SimTrace.from_json(text)


def cmd_analyze(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    trace = _load_trace(args.trace)
    config = trace.config
    delta = args.delta if args.delta is not None else config.delta
    alpha = args.alpha if args.alpha is not None else config.alpha
    epsilon = args.epsilon
    if not 1 <= delta <= config.intervals:
        raise ValueError(f"--delta must be in 1..intervals={config.intervals}, got {delta}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"--alpha must be in [0, 1), got {alpha}")

    observers = []
    for robot in range(1, config.n + 1):
        if trace.heads.get(robot) is None:
            continue
        view = LocalView.from_trace(trace, robot)
        observers.append(compile_report(view, delta, alpha, epsilon))
    central = compile_report(LocalView.central(trace), delta, alpha, epsilon)
    audit = audit_trace(trace)

    def _collusion_rows(report):
        return [
            {"pair": list(pair), "consecutive": k, "probability": config.p**k}
            for pair, k in sorted(report.collusion_suspects)
        ]

    manifest = run_manifest(config, config_path=args.trace, output_path=args.output)
    doc = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "manifest": manifest,
        "delta": delta,
        "alpha": alpha,
        "epsilon": epsilon,
        "observers": [r.to_dict() for r in observers],
        "central": {**central.to_dict(), "collusion_suspects": _collusion_rows(central)},
        "audit": audit.to_dict(),
    }
    _emit(doc, args.output)

    if args.format == "machine":
        for report in observers:
            print(json.dumps({"record": "observer-report", **report.to_dict()}, sort_keys=True), file=out)
        print(json.dumps({"record": "central-report", **doc["central"]}, sort_keys=True), file=out)
        print(json.dumps({"record": "central-audit", **audit.to_dict()}, sort_keys=True), file=out)
    else:
        print(f"analysis of {args.trace} (delta={delta}, alpha={alpha}, epsilon={epsilon})", file=out)
        print(f"{'observer':>9} {'disappeared':>12} {'unpaired':>9} {'collusion':>10} {'revoked':>8}", file=out)
        for report in observers:
            print(
                f"{report.observer:>9} {len(report.disappeared):>12} "
                f"{len(report.unpaired_claims):>9} {len(report.collusion_suspects):>10} "
                f"{len(report.revoked):>8}",
                file=out,
            )
        for robot, last in sorted(central.disappeared):
            print(f"  central: robot {robot} disappeared (last seen interval {last})", file=out)
        for row in _collusion_rows(central):
            a, b = row["pair"]
            print(
                f"  central: pair ({a}, {b}) co-met in {row['consecutive']} consecutive "
                f"intervals (probability {row['probability']:.6f})",
                file=out,
            )
        print(f"central audit: {audit.findings_count} findings", file=out)
        for robot, interval, reason in audit.verification_failures:
            print(f"  verification failure: robot {robot} interval {interval}: {reason}", file=out)
        for claimer, target, interval in audit.unpaired_claims:
            print(f"  unpaired claim: {claimer} -> {target} at interval {interval}", file=out)
        for robot, lo, hi in audit.gaps:
            print(f"  coverage gap: robot {robot} intervals {lo}..{hi}", file=out)
        for robot in audit.missing_heads:
            print(f"  missing head: robot {robot}", file=out)
        if args.output:
            print(f"report written to {args.output}", file=out)
    return 0


def cmd_prob(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    query = ProbQuery(n=args.n, p=args.p, delta=args.delta)
    rows = {
        "no_report": prob_no_report(query),
        "report_within": prob_report_within(query),
        "pair_meets_all": prob_pair_meets_all(args.p, args.delta),
        "report_within_exact": prob_report_within_exact(query),
    }
    rows["closed_form_bias"] = rows["report_within"] - rows["report_within_exact"]
    if args.format == "machine":
        print(
            json.dumps(
                {"record": "prob", "n": args.n, "p": args.p, "delta": args.delta, **rows},
                sort_keys=True,
            ),
            file=out,
        )
    else:
        print(f"closed forms for n={args.n} p={args.p} delta={args.delta}", file=out)
        print(f"  P(no report of a robot within delta)   = {rows['no_report']:.6e}", file=out)
        print(f"  P(report within delta)                 = {rows['report_within']:.8f}", file=out)
        print(
            f"    exact value                          = {rows['report_within_exact']:.8f}"
            f" (closed-form bias {rows['closed_form_bias']:+.6f})",
            file=out,
        )
        print(f"  P(pair meets in all delta intervals)   = {rows['pair_meets_all']:.6f}", file=out)
    return 0


def _mc_rows(config: SimConfig, trials: int, tolerance: float) -> tuple[dict[str, Any], bool]:
    query = ProbQuery(n=config.n, p=config.p, delta=config.delta)
    estimate: Estimate = mc_report_within(query, trials, config.seed)
    exact = prob_report_within_exact(query)
    closed = prob_report_within(query)
    gap = abs(estimate.point - exact)
    ok = gap <= tolerance
    row = {
        "record": "montecarlo-report-within",
        "n": config.n,
        "p": config.p,
        "delta": config.delta,
        "trials": trials,
        "seed": config.seed,
        "point": estimate.point,
        "std_error": estimate.std_error,
        "exact": exact,
        "closed_form": closed,
        "closed_form_bias": closed - exact,
        "abs_gap": gap,
        "tolerance": tolerance,
        "pass": ok,
    }
    return row, ok


def cmd_montecarlo(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    if args.runs < 0:
        raise ValueError(f"--runs must be >= 0, got {args.runs}")
    if not args.tolerance >= 0.0:  # refuses nan too
        raise ValueError(f"--tolerance must be >= 0, got {args.tolerance}")
    config = _resolve_seed(_load_config(args.config), args, out)
    row, ok = _mc_rows(config, args.trials, args.tolerance)

    scenario_rows: list[dict[str, Any]] = []
    if args.runs > 0 and config.adversaries:
        framed = flagged_runs = 0
        for trace in suites.runs(config, args.runs):
            framed += len(suites.framed(trace))
            flagged_runs += bool(suites.flagged(trace, args.epsilon) & config.colluder_pairs())
        scenario_rows.append(
            {
                "record": "scenario-suite",
                "runs": args.runs,
                "honest_robots_framed": framed,
                "collusion_flagged_runs": flagged_runs,
            }
        )

    manifest = run_manifest(config, config_path=args.config, output_path=args.output)
    doc = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "manifest": manifest,
        "montecarlo": row,
        "scenarios": scenario_rows,
    }
    _emit(doc, args.output)

    if args.format == "machine":
        print(json.dumps(row, sort_keys=True), file=out)
        for extra in scenario_rows:
            print(json.dumps(extra, sort_keys=True), file=out)
    else:
        print(
            f"report-within at n={config.n} p={config.p} delta={config.delta}: "
            f"empirical {row['point']:.6f} +/- {row['std_error']:.6f} "
            f"vs exact {row['exact']:.6f}",
            file=out,
        )
        print(
            f"  paper closed form {row['closed_form']:.6f} "
            f"(bias vs exact {row['closed_form_bias']:+.6f})",
            file=out,
        )
        print(
            f"  |gap| = {row['abs_gap']:.6f} (tolerance {args.tolerance}): "
            f"{'PASS' if ok else 'FAIL'}",
            file=out,
        )
        for extra in scenario_rows:
            print(f"  honest robots framed: {extra['honest_robots_framed']}", file=out)
            print(
                f"  runs with collusion flagged: {extra['collusion_flagged_runs']}/{extra['runs']}",
                file=out,
            )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmchain",
        description="Signed encounter-history chains over random-graph swarms.",
    )
    parser.add_argument("--version", action="version", version=f"swarmchain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one simulation and write a trace file")
    p_sim.add_argument("--config", required=True, help="JSON config file")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--output", required=True, help="trace file to write")
    p_sim.add_argument("--format", choices=("human", "machine"), default="human")
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="run detectors and the central audit over a trace")
    p_an.add_argument("--trace", required=True, help="trace file from 'simulate'")
    p_an.add_argument("--delta", type=int, default=None, help="detection window (default: trace config)")
    p_an.add_argument("--alpha", type=float, default=None, help="assumed bad fraction (default: trace config)")
    p_an.add_argument("--epsilon", type=float, default=0.05, help="collusion flag threshold")
    p_an.add_argument("--output", default=None, help="machine-readable report file")
    p_an.add_argument("--format", choices=("human", "machine"), default="human")
    p_an.set_defaults(func=cmd_analyze)

    p_pr = sub.add_parser("prob", help="print the closed-form probabilities and the exact report probability")
    p_pr.add_argument("--n", type=int, required=True)
    p_pr.add_argument("--p", type=float, required=True)
    p_pr.add_argument("--delta", type=int, required=True)
    p_pr.add_argument("--format", choices=("human", "machine"), default="human")
    p_pr.set_defaults(func=cmd_prob)

    p_mc = sub.add_parser("montecarlo", help="check sampled estimates against the exact value")
    p_mc.add_argument("--config", required=True, help="JSON config file")
    p_mc.add_argument("--trials", type=int, default=100_000)
    p_mc.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_mc.add_argument("--tolerance", type=float, default=0.005)
    p_mc.add_argument("--runs", type=int, default=0, help="scenario-suite runs (0 = skip)")
    p_mc.add_argument("--epsilon", type=float, default=0.05, help="collusion flag threshold")
    p_mc.add_argument("--output", default=None, help="JSON report file")
    p_mc.add_argument("--format", choices=("human", "machine"), default="human")
    p_mc.set_defaults(func=cmd_montecarlo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
