"""Acceptance suite: every release-gating check at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -rA``) and
asserts the same condition, so the suite doubles as a human-readable
scorecard and a hard gate.
"""
import random

from swarmchain import suites
from swarmchain.chain import EncodingError, LinkStore, decode_link, encode_link, link_digest, verify_chain
from swarmchain.cli import main
from swarmchain.crypto import verify
from swarmchain.detect import audit_trace
from swarmchain.prob import (
    ProbQuery,
    exact_small_enumeration,
    mc_report_within,
    prob_no_report,
    prob_pair_meets_all,
    prob_report_within,
)
from swarmchain.sim import AdversaryProfile, SimConfig, run_simulation
from swarmchain.chain import GENESIS, signed_digest


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _profile(behavior, robots, **kwargs):
    return AdversaryProfile(behavior=behavior, robots=frozenset(robots), **kwargs)


# -- 1. closed forms reproduce the reference values -----------------------------


def test_criterion_1_closed_form_reproduction():
    checks = [
        ("report_within(25,0.33,3)", prob_report_within(ProbQuery(25, 0.33, 3)), 0.99998, 1e-5),
        ("report_within(48,0.17,3)", prob_report_within(ProbQuery(48, 0.17, 3)), 0.99403, 1e-5),
        ("no_report(25,0.33,3)", prob_no_report(ProbQuery(25, 0.33, 3)), 1.49e-5, 0.005e-5),
        ("pair_meets_all(0.33,3)", prob_pair_meets_all(0.33, 3), 0.036, 5e-4),
        ("pair_meets_all(0.17,3)", prob_pair_meets_all(0.17, 3), 0.005, 5e-4),
    ]
    bad = [f"{name}={value!r}" for name, value, want, tol in checks if abs(value - want) > tol]
    _report(
        1,
        "closed-form reference values",
        not bad,
        "all five values at printed precision" if not bad else "; ".join(bad),
    )


# -- 2. Monte Carlo vs closed form ----------------------------------------------


def test_criterion_2_monte_carlo_vs_closed_form():
    q = ProbQuery(25, 0.33, 3)
    estimate = mc_report_within(q, trials=100_000, seed=20_240_601)
    closed = prob_report_within(q)
    gap = abs(estimate.point - closed)
    _report(
        2,
        "Monte Carlo within 0.005 of closed form",
        gap <= 0.005,
        f"empirical {estimate.point:.6f} vs closed {closed:.6f}, |gap| {gap:.6f}",
    )


# -- 3. enumeration oracle agreement ---------------------------------------------


def test_criterion_3_oracle_agreement():
    q = ProbQuery(3, 0.5, 2)
    exact = exact_small_enumeration(q)
    estimate = mc_report_within(q, trials=100_000, seed=31_337)
    limit = 3 * max(estimate.std_error, 1 / estimate.trials)
    gap = abs(estimate.point - exact)
    _report(
        3,
        "exhaustive enumeration vs Monte Carlo",
        gap <= limit,
        f"exact {exact:.6f}, empirical {estimate.point:.6f}, |gap| {gap:.6f} <= 3se {limit:.6f}",
    )


# -- 4. framing resistance ---------------------------------------------------------


def _framing_suite(n, p, delta, n_bad, runs, seed_base):
    """Count honest robots the whole honest swarm loses track of."""
    adversaries = (_profile("refuse_record", range(1, n_bad + 1)),) if n_bad else ()
    alpha = 1 / 3 if n_bad else 0.0
    cfg = SimConfig(n=n, p=p, intervals=delta, delta=delta, alpha=alpha, seed=seed_base, adversaries=adversaries)
    return sum(len(suites.framed(trace)) for trace in suites.runs(cfg, runs))


def test_criterion_4_framing_resistance():
    """An honest robot is framed exactly when it meets no other honest robot
    in the delta intervals, since ``refuse_record`` adversaries relay no news
    of it.  The expected count per honest robot and run is
    (1-p)^((h-1)*delta) for h honest robots: 4.5e-9 at n=25 (h=17, delta=3),
    9.2e-11 at n=48 (h=32, delta=4) and 3.9e-12 all-honest at n=48
    (delta=3), so each suite of 1000 runs expects fewer than 1e-4."""
    runs = 1000
    framed_25 = _framing_suite(25, 0.33, 3, 8, runs, seed_base=100_000)
    framed_48 = _framing_suite(48, 0.17, 4, 16, runs, seed_base=200_000)
    honest_48 = _framing_suite(48, 0.17, 3, 0, runs, seed_base=300_000)
    ok = framed_25 == 0 and framed_48 == 0 and honest_48 == 0
    _report(
        4,
        "zero honest robots marked disappeared",
        ok,
        f"framed over {runs} runs each: n=25/d=3 -> {framed_25}, "
        f"n=48/d=4 -> {framed_48}, all-honest n=48/d=3 -> {honest_48}",
    )


# -- 5. system correctness: the audit reconstructs the truth ------------------------


def test_criterion_5_system_correctness():
    runs = 100
    bad_runs = 0
    for trace in suites.runs(SimConfig(n=25, p=0.33, intervals=5, delta=3, seed=400_000), runs):
        audit = audit_trace(trace)
        truth = frozenset((u, v, g.interval) for g in trace.graphs for (u, v) in g.edges)
        if audit.unpaired_claims or audit.verification_failures or audit.encounters != truth:
            bad_runs += 1
    _report(
        5,
        "all-honest audits are exact",
        bad_runs == 0,
        f"{runs - bad_runs}/{runs} runs clean with encounters == union of generated graphs",
    )


# -- 6. tamper evidence ---------------------------------------------------------------


def _chain_and_scope(trace, robot):
    """A robot's chain links plus the peer links its entries reference."""
    chain = []
    link = trace.head_link(robot)
    while link is not None:
        chain.append(link)
        link = trace.store.get(link.prev_digest)
    scope = list(chain)
    for link in chain:
        for entry in link.entries:
            resolved = trace.store.get(entry.peer_link_digest)
            if resolved is not None:
                scope.append(resolved)
    return chain, scope


def test_criterion_6_tamper_evidence_fuzz():
    rng = random.Random(606_060)
    cases = rejected = accepted_clean = 0
    traces = [
        run_simulation(SimConfig(n=4, p=0.7, intervals=1 + (i % 10), delta=1, seed=500_000 + i))
        for i in range(25)
    ]
    for trace in traces:
        owner = 1
        chain, scope = _chain_and_scope(trace, owner)
        depth = len(chain)
        credential = trace.credentials[owner]
        if verify_chain(trace.head_link(owner), credential, trace.store, depth, trace.credentials) is None:
            accepted_clean += 1
        for _ in range(400):
            target = rng.choice(scope)
            blob = bytearray(encode_link(target))
            blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
            cases += 1
            try:
                mutated = decode_link(bytes(blob))
            except EncodingError:
                rejected += 1  # unparseable bytes cannot masquerade as a link
                continue
            store = LinkStore()
            store._links = dict(trace.store._links)
            store._links[link_digest(target)] = mutated
            head = mutated if target is chain[0] else trace.head_link(owner)
            if verify_chain(head, credential, store, depth, trace.credentials) is not None:
                rejected += 1
    ok = cases >= 10_000 and rejected == cases and accepted_clean == len(traces)
    _report(
        6,
        "single-byte tampering always detected",
        ok,
        f"{rejected}/{cases} mutations rejected, {accepted_clean}/{len(traces)} clean chains accepted",
    )


# -- 7. forged claims never enter honest records ------------------------------------------


def _forged_entry_count(trace, forgers, target):
    """Entries naming the target, in non-forger chains, without the target's
    own signature over the referenced content."""
    bad = 0
    for link in trace.store.links():
        if link.owner_id in forgers:
            continue
        entry = next((e for e in link.entries if e.peer_id == target), None)
        if entry is None:
            continue
        if entry.peer_link_digest == GENESIS:
            ok = verify(entry.peer_credential, GENESIS, entry.peer_signature)
        else:
            resolved = trace.store.get(entry.peer_link_digest)
            ok = (
                resolved is not None
                and resolved.owner_id == target
                and verify(entry.peer_credential, signed_digest(resolved), entry.peer_signature)
            )
        if not ok:
            bad += 1
    return bad


def test_criterion_7_forged_claims_impossible():
    runs = 40
    configs = (
        SimConfig(n=10, p=0.5, intervals=4, delta=3, alpha=0.2, seed=600_000,
                  adversaries=(_profile("forge_claim", [2], target=9),)),
        SimConfig(n=12, p=0.4, intervals=5, delta=3, alpha=0.25, seed=700_000,
                  adversaries=(_profile("forge_claim", [2, 5], target=11),)),
    )
    violations = attempts = 0
    for cfg in configs:
        forgers, target = cfg.adversary_ids(), cfg.adversaries[0].target
        for trace in suites.runs(cfg, runs):
            violations += _forged_entry_count(trace, forgers, target)
            attempts += sum(
                1 for x in trace.exchanges for note in x.notes if note.startswith("forged-offer-rejected")
            )
    ok = violations == 0 and attempts > 0
    _report(
        7,
        "no honest event list carries an unwitnessed claim",
        ok,
        f"{violations} forged entries in honest chains across {runs * len(configs)} scenarios "
        f"({attempts} forged offers rejected)",
    )


# -- 8. collusion detection -----------------------------------------------------------------


def test_criterion_8_collusion_detection():
    runs = 1000
    colluders = (3, 7)
    honest_pair = (10, 11)
    flagged = honest_flagged = 0
    p, delta = 0.33, 3
    cfg = SimConfig(
        n=25, p=p, intervals=delta, delta=delta, alpha=0.1, seed=800_000,
        adversaries=(_profile("collude", colluders),),
    )
    for trace in suites.runs(cfg, runs):
        suspects = suites.flagged(trace, 0.05)
        flagged += colluders in suspects
        honest_flagged += honest_pair in suspects
    expected = p**delta
    rate = honest_flagged / runs
    limit = 3 * (expected * (1 - expected) / runs) ** 0.5
    ok = flagged == runs and abs(rate - expected) <= limit
    _report(
        8,
        "colluders always flagged, honest pairs at the chance rate",
        ok,
        f"colluding pair {flagged}/{runs}; honest pair rate {rate:.4f} "
        f"vs p^3 {expected:.4f} (3se {limit:.4f})",
    )


# -- 9. determinism ---------------------------------------------------------------------------


def test_criterion_9_trace_determinism(tmp_path, monkeypatch):
    # Relative paths from tmp_path keep the manifest, and so the byte
    # count below, the same whatever pytest names its temporary directory.
    monkeypatch.chdir(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(
        '{"n": 25, "p": 0.33, "intervals": 3, "delta": 3, "seed": 90909,\n'
        ' "alpha": 0.34,\n'
        ' "adversaries": [{"behavior": "refuse_record", "robots": [1, 2, 3]},\n'
        '                  {"behavior": "collude", "robots": [4, 5]}]}'
    )
    out = tmp_path / "trace.json"
    assert main(["simulate", "--config", "config.json", "--output", "trace.json"]) == 0
    first = out.read_bytes()
    assert main(["simulate", "--config", "config.json", "--output", "trace.json"]) == 0
    ok = out.read_bytes() == first
    _report(9, "identical runs give byte-identical traces", ok, f"{len(first)} bytes compared")
