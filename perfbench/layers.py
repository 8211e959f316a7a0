"""Per-layer instrumentation of swarmchain for the traced run.

:func:`install` wraps each layer's functions at every name its callers
look them up under and returns the :class:`Probe` that collects the
counters spans cannot give.  :func:`per_layer_metrics` turns the spans
and counters of one traced run into the per-layer metrics named in
``BENCHMARK.json``.

Normalisation, so that runs of different length compare:

* ``*.calls``, ``*.bytes``, ``*.ms``, ``*.self_ms`` and the other counts
  are per op of the workload (on ``analyze_n100`` the simulation, JSON,
  central report and audit of a trace are spread over its observer ops).
* ``*.ms`` is inclusive time; ``*.self_ms`` excludes the wrapped calls
  nested inside; ``*.us`` is the mean per call.
* Ratios name their base: ``crypto.verify.reuse_ratio`` is
  1 - distinct/calls over ``crypto.verify.calls``; ``chain.encodes_per_link``
  is ``chain.canonical_encode.calls`` over ``chain.links_stored``.
"""
from __future__ import annotations

from collections import Counter

from tracing import NameStats, Tracer, patch, patch_cached_property

OUTCOMES = ("clean", "withheld", "unrecorded", "invalid-offer", "forged-offer-rejected", "other")

PER_LAYER = (
    ("crypto.provision_swarm.ms", "ms"),
    ("crypto.sign.calls", "count"),
    ("crypto.sign.us", "us"),
    ("crypto.verify.calls", "count"),
    ("crypto.verify.distinct", "count"),
    ("crypto.verify.us", "us"),
    ("crypto.verify.reuse_ratio", "ratio"),
    ("crypto.verify_credential.calls", "count"),
    ("crypto.digest.calls", "count"),
    ("crypto.digest.bytes", "bytes"),
    ("chain.canonical_encode.calls", "count"),
    ("chain.canonical_encode.bytes", "bytes"),
    ("chain.links_stored", "count"),
    ("chain.encodes_per_link", "ratio"),
    ("chain.link_digest.calls", "count"),
    ("chain.extend_history.self_ms", "ms"),
    ("chain.build_event_list.self_ms", "ms"),
    ("chain.verify_chain.calls", "count"),
    ("chain.verify_chain.self_ms", "ms"),
    ("chain.verify_chain.depth_mean", "links"),
    ("chain.closure.ms", "ms"),
    ("graph.gen_interval_graph.calls", "count"),
    ("graph.gen_interval_graph.ms", "ms"),
    ("graph.edges", "count"),
    ("sim.run.self_ms", "ms"),
    ("sim.exchange.calls", "count"),
    ("sim.exchange.self_ms", "ms"),
    *((f"sim.exchange.outcomes.{reason}", "count") for reason in OUTCOMES),
    ("sim.trace_to_json.ms", "ms"),
    ("sim.trace_from_json.ms", "ms"),
    ("sim.trace_bytes", "bytes"),
    ("detect.view_build.ms", "ms"),
    ("detect.view_links_mean", "links"),
    ("detect.evidence.ms", "ms"),
    ("detect.claims.ms", "ms"),
    ("detect.check_pairing.calls", "count"),
    ("detect.check_pairing.ms", "ms"),
    ("detect.check_pairing.self_ms", "ms"),
    ("detect.detect_collusion.ms", "ms"),
    ("detect.compile_report.self_ms", "ms"),
    ("detect.collective_disappeared.self_ms", "ms"),
    ("detect.central_audit.ms", "ms"),
    ("prob.mc_report_within.ms", "ms"),
    ("prob.mc.bytes_sampled", "bytes_computed"),
    ("prob.closed_form_bias", "probability"),
    ("bench.traced_throughput_ops_s", "1/s"),
    ("bench.spans", "count"),
)


class Probe:
    """Counters fed by wrapper hooks during one traced run."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self.verify_triples: set[tuple[bytes, bytes, bytes]] = set()

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount


def install(tracer: Tracer) -> Probe:
    """Wrap every traced swarmchain function; returns the counter probe."""
    from swarmchain import chain, crypto, detect, graph, prob, sim

    probe = Probe()

    def on_verify(args, _result) -> None:
        credential, message, signature = args
        probe.verify_triples.add((credential.verify_key, bytes(message), bytes(signature)))

    def on_exchange(_args, record) -> None:
        if not record.notes:
            probe.add("outcome.clean")
        for note in record.notes:
            reason = str(note).split(":", 1)[0]
            probe.add(f"outcome.{reason if reason in OUTCOMES else 'other'}")

    def on_mc_batch(args, _result) -> None:
        # Computed, not measured: the sampler draws one float64 per cell
        # of the (trials, delta, n, n) adjacency batch it classifies.
        probe.add("mc.bytes_sampled", args[0].size * 8)

    patch(tracer, "crypto.provision_swarm", [(crypto, "provision_swarm"), (sim, "provision_swarm")])
    patch(tracer, "crypto.sign", [(crypto, "sign"), (chain, "sign"), (sim, "sign")])
    patch(
        tracer, "crypto.verify",
        [(crypto, "verify"), (chain, "verify"), (sim, "verify"), (detect, "verify")],
        on_verify,
    )
    patch(tracer, "crypto.verify_credential", [(crypto, "verify_credential"), (sim, "verify_credential")])
    patch(
        tracer, "crypto.digest", [(crypto, "digest"), (chain, "digest"), (sim, "digest")],
        lambda args, _r: probe.add("digest.bytes", len(args[0])),
    )
    patch(
        tracer, "chain.canonical_encode", [(chain, "canonical_encode"), (sim, "canonical_encode")],
        lambda _a, result: probe.add("encode.bytes", len(result)),
    )
    patch(tracer, "chain.link_digest", [(chain, "link_digest"), (sim, "link_digest"), (detect, "link_digest")])
    patch(tracer, "chain.store_insert", [(chain.LinkStore, "insert")])
    patch(tracer, "chain.extend_history", [(chain, "extend_history"), (sim, "extend_history")])
    patch(tracer, "chain.build_event_list", [(chain, "build_event_list"), (sim, "build_event_list")])
    patch(
        tracer, "chain.verify_chain", [(chain, "verify_chain"), (sim, "verify_chain")],
        lambda args, _r: probe.add("verify_chain.depth", args[3]),
    )
    patch(tracer, "chain.closure", [(chain.LinkStore, "closure")])
    patch(
        tracer, "graph.gen_interval_graph", [(graph, "gen_interval_graph"), (sim, "gen_interval_graph")],
        lambda _a, g: probe.add("graph.edges", len(g.edges)),
    )
    patch(tracer, "sim.run", [(sim, "run_simulation")])
    patch(tracer, "sim.exchange", [(sim.Simulation, "exchange")], on_exchange)
    patch(
        tracer, "sim.trace_to_json", [(sim.SimTrace, "to_json")],
        lambda _a, text: probe.add("trace.bytes", len(text)),
    )
    patch(tracer, "sim.trace_from_json", [(sim.SimTrace, "from_json")])
    patch(
        tracer, "detect.view_build", [(detect.LocalView, "from_trace"), (detect.LocalView, "central")],
        lambda _a, view: probe.add("view.links", len(view.links)),
    )
    patch_cached_property(tracer, "detect.evidence", detect.LocalView, "evidence")
    patch_cached_property(tracer, "detect.claims", detect.LocalView, "claims")
    patch(tracer, "detect.check_pairing", [(detect, "check_pairing")])
    patch(tracer, "detect.detect_collusion", [(detect, "detect_collusion")])
    patch(tracer, "detect.compile_report", [(detect, "compile_report")])
    patch(tracer, "detect.collective_disappeared", [(detect, "collective_disappeared")])
    patch(tracer, "detect.central_audit", [(detect, "central_audit")])
    patch(tracer, "prob.mc_report_within", [(prob, "mc_report_within")])
    patch(tracer, "prob.report_events", [(prob, "_report_events")], on_mc_batch)
    return probe


def per_layer_metrics(
    stats: dict[str, NameStats],
    probe: Probe,
    ops: int,
    wall_s: float,
    spans: int,
    closed_form_bias: float,
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced run; layers not exercised read 0."""
    empty = NameStats(0, 0.0, 0.0)

    def s(name: str) -> NameStats:
        return stats.get(name, empty)

    def per_op(value: float) -> float:
        return value / ops

    def ms(name: str) -> float:
        return per_op(s(name).inclusive_s * 1e3)

    def self_ms(name: str) -> float:
        return per_op(s(name).self_s * 1e3)

    def calls(name: str) -> float:
        return per_op(s(name).calls)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = probe.counts
    verify_calls = s("crypto.verify").calls
    out = {
        "crypto.provision_swarm.ms": ms("crypto.provision_swarm"),
        "crypto.sign.calls": calls("crypto.sign"),
        "crypto.sign.us": ratio(s("crypto.sign").inclusive_s * 1e6, s("crypto.sign").calls),
        "crypto.verify.calls": calls("crypto.verify"),
        "crypto.verify.distinct": per_op(len(probe.verify_triples)),
        "crypto.verify.us": ratio(s("crypto.verify").inclusive_s * 1e6, verify_calls),
        "crypto.verify.reuse_ratio": ratio(verify_calls - len(probe.verify_triples), verify_calls),
        "crypto.verify_credential.calls": calls("crypto.verify_credential"),
        "crypto.digest.calls": calls("crypto.digest"),
        "crypto.digest.bytes": per_op(c["digest.bytes"]),
        "chain.canonical_encode.calls": calls("chain.canonical_encode"),
        "chain.canonical_encode.bytes": per_op(c["encode.bytes"]),
        "chain.links_stored": calls("chain.store_insert"),
        "chain.encodes_per_link": ratio(s("chain.canonical_encode").calls, s("chain.store_insert").calls),
        "chain.link_digest.calls": calls("chain.link_digest"),
        "chain.extend_history.self_ms": self_ms("chain.extend_history"),
        "chain.build_event_list.self_ms": self_ms("chain.build_event_list"),
        "chain.verify_chain.calls": calls("chain.verify_chain"),
        "chain.verify_chain.self_ms": self_ms("chain.verify_chain"),
        "chain.verify_chain.depth_mean": ratio(c["verify_chain.depth"], s("chain.verify_chain").calls),
        "chain.closure.ms": ms("chain.closure"),
        "graph.gen_interval_graph.calls": calls("graph.gen_interval_graph"),
        "graph.gen_interval_graph.ms": ms("graph.gen_interval_graph"),
        "graph.edges": per_op(c["graph.edges"]),
        "sim.run.self_ms": self_ms("sim.run"),
        "sim.exchange.calls": calls("sim.exchange"),
        "sim.exchange.self_ms": self_ms("sim.exchange"),
        **{f"sim.exchange.outcomes.{r}": per_op(c[f"outcome.{r}"]) for r in OUTCOMES},
        "sim.trace_to_json.ms": ms("sim.trace_to_json"),
        "sim.trace_from_json.ms": ms("sim.trace_from_json"),
        "sim.trace_bytes": per_op(c["trace.bytes"]),
        "detect.view_build.ms": ms("detect.view_build"),
        "detect.view_links_mean": ratio(c["view.links"], s("detect.view_build").calls),
        "detect.evidence.ms": ms("detect.evidence"),
        "detect.claims.ms": ms("detect.claims"),
        "detect.check_pairing.calls": calls("detect.check_pairing"),
        "detect.check_pairing.ms": ms("detect.check_pairing"),
        "detect.check_pairing.self_ms": self_ms("detect.check_pairing"),
        "detect.detect_collusion.ms": ms("detect.detect_collusion"),
        "detect.compile_report.self_ms": self_ms("detect.compile_report"),
        "detect.collective_disappeared.self_ms": self_ms("detect.collective_disappeared"),
        "detect.central_audit.ms": ms("detect.central_audit"),
        "prob.mc_report_within.ms": ms("prob.mc_report_within"),
        "prob.mc.bytes_sampled": per_op(c["mc.bytes_sampled"]),
        "prob.closed_form_bias": closed_form_bias,
        "bench.traced_throughput_ops_s": ops / wall_s,
        "bench.spans": per_op(spans),
    }
    missing = {name for name, _ in PER_LAYER} ^ set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics out of step with PER_LAYER: {sorted(missing)}")
    return out
