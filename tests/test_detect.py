import pytest

from swarmchain.chain import encode_link, decode_link, link_digest
from swarmchain.detect import (
    InsufficientHistoryError,
    LocalView,
    SuspicionReport,
    audit_trace,
    central_audit,
    collective_disappeared,
    compile_report,
    default_revocation_policy,
    detect_collusion,
    detect_disappeared,
    update_revocation,
)
from swarmchain.sim import AdversaryProfile, SimConfig, run_simulation


def _profile(behavior, robots, **kwargs):
    return AdversaryProfile(behavior=behavior, robots=frozenset(robots), **kwargs)


# -- local views -----------------------------------------------------------------


def test_local_view_contains_only_verified_content(honest_trace_25):
    view = LocalView.from_trace(honest_trace_25, 1)
    assert view.links
    for d, link in view.links.items():
        assert link_digest(link) == d


def test_observer_with_no_head_sees_nothing():
    cfg = SimConfig(
        n=4, p=1.0, intervals=2, delta=2, alpha=0.3, seed=1,
        adversaries=(_profile("disappear", [3], from_t=1, to_t=2),),
    )
    trace = run_simulation(cfg)
    view = LocalView.from_trace(trace, 3)
    assert view.links == {}


# -- disappearance ----------------------------------------------------------------


def test_honest_observers_mark_nobody(honest_trace_25):
    for observer in (1, 9, 25):
        view = LocalView.from_trace(honest_trace_25, observer)
        assert detect_disappeared(view, 3) == frozenset()


def test_insufficient_history_raises(honest_trace_25):
    view = LocalView.from_trace(honest_trace_25, 1)
    with pytest.raises(InsufficientHistoryError):
        detect_disappeared(view, 4)


def test_totally_absent_robot_flagged_by_every_observer():
    cfg = SimConfig(
        n=8, p=0.9, intervals=3, delta=3, alpha=0.2, seed=10,
        adversaries=(_profile("disappear", [6], from_t=1, to_t=3),),
    )
    trace = run_simulation(cfg)
    for observer in range(1, 9):
        if observer == 6:
            continue
        view = LocalView.from_trace(trace, observer)
        assert 6 in detect_disappeared(view, 3)
    assert collective_disappeared(trace, 3) == frozenset({6})


def test_delta_one_on_complete_graph_sees_everyone():
    trace = run_simulation(SimConfig(n=6, p=1.0, intervals=2, delta=1, seed=4))
    view = LocalView.from_trace(trace, 2)
    assert detect_disappeared(view, 1) == frozenset()


def test_refuse_give_robot_ends_up_collectively_disappeared():
    cfg = SimConfig(
        n=10, p=0.8, intervals=3, delta=3, alpha=0.2, seed=6,
        adversaries=(_profile("refuse_give", [4]),),
    )
    trace = run_simulation(cfg)
    assert 4 in collective_disappeared(trace, 3)


def test_a_robot_needs_another_honest_observer_to_be_framed():
    """Robot 3 is the only honest observer: it marks both adversaries, and
    nobody is left to mark it."""
    cfg = SimConfig(
        n=3, p=0.0, intervals=3, delta=3, alpha=0.7, seed=1,
        adversaries=(_profile("refuse_record", [1, 2]),),
    )
    assert collective_disappeared(run_simulation(cfg), 3) == frozenset({1, 2})


def test_framing_attempt_fails_on_reference_seed(refuse_record_trace_25):
    honest = set(range(9, 26))
    assert collective_disappeared(refuse_record_trace_25, 3) & honest == frozenset()


def test_honest_single_observer_miss_rate_is_tiny():
    """A lone observer rarely misses a robot.  At (25, .33, 3) the paper's
    closed form gives 1.5e-5 per pair and the exact one-hop value (a direct
    meeting or one relay) 3.5e-4, an upper bound here, since a view also
    learns along longer paths; 300 runs x 24 pairs should see at most a
    stray handful."""
    misses = 0
    for i in range(300):
        trace = run_simulation(SimConfig(n=25, p=0.33, intervals=3, delta=3, seed=50_000 + i))
        misses += len(detect_disappeared(LocalView.from_trace(trace, 1), 3))
    assert misses <= 4


# -- pairing ------------------------------------------------------------------------


def _pairing(view, alpha):
    """robot -> the pairing verdict of ``compile_report`` over ``view``."""
    return dict(compile_report(view, view.params.delta, alpha, 0.05).pairing)


def test_all_honest_central_view_trusts_everyone(honest_trace_25):
    view = LocalView.central(honest_trace_25)
    cfg = honest_trace_25.config
    pairing = _pairing(view, 0.0)
    for subject in range(1, cfg.n + 1):
        verdict = pairing[subject]
        assert verdict.status == "trusted", (subject, verdict)
        assert verdict.unpaired == 0


def test_refuse_record_adversaries_fail_pairing(refuse_record_trace_25):
    pairing = _pairing(LocalView.central(refuse_record_trace_25), 1 / 3)
    for subject in range(1, 9):
        verdict = pairing[subject]
        assert verdict.status == "suspicious", (subject, verdict)
        assert verdict.paired == 0
    for subject in range(9, 26):
        verdict = pairing[subject]
        assert verdict.status == "trusted", (subject, verdict)


def test_large_swarm_framing_scenario_keeps_honest_robots_seen():
    adv = _profile("refuse_record", list(range(1, 17)))
    cfg = SimConfig(n=48, p=0.17, intervals=4, delta=4, alpha=1 / 3, seed=11, adversaries=(adv,))
    trace = run_simulation(cfg)
    assert collective_disappeared(trace, 4) & set(range(17, 49)) == frozenset()
    pairing = _pairing(LocalView.central(trace), 1 / 3)
    for subject in range(17, 49):
        assert pairing[subject].status == "trusted"


def test_unseen_subject_is_indeterminate():
    trace = run_simulation(SimConfig(n=3, p=0.0, intervals=2, delta=2, seed=1))
    assert _pairing(LocalView.central(trace), 0.0)[2].status == "indeterminate"


def test_local_honest_views_never_accuse(honest_trace_25):
    cfg = honest_trace_25.config
    for observer in (2, 13, 24):
        pairing = _pairing(LocalView.from_trace(honest_trace_25, observer), 0.0)
        for subject in range(1, cfg.n + 1):
            if subject == observer:
                continue
            verdict = pairing[subject]
            assert verdict.status in ("trusted", "indeterminate")
            assert verdict.unpaired == 0


# -- collusion ----------------------------------------------------------------------


def test_colluding_pair_flagged(colluder_trace_25):
    view = LocalView.central(colluder_trace_25)
    flagged = detect_collusion(view, 3, 0.05)
    assert ((3, 7), 3) in flagged


def test_low_p_analog_flags_at_smaller_k():
    adv = _profile("collude", [1, 2])
    cfg = SimConfig(n=10, p=0.17, intervals=3, delta=3, alpha=0.3, seed=3, adversaries=(adv,))
    trace = run_simulation(cfg)
    flagged = detect_collusion(LocalView.central(trace), 3, 0.05)
    pairs = {pair: k for pair, k in flagged}
    assert (1, 2) in pairs
    assert 0.17 ** pairs[(1, 2)] < 0.05


def test_single_meeting_not_flagged():
    trace = run_simulation(SimConfig(n=2, p=1.0, intervals=1, delta=1, seed=1))
    view = LocalView.central(trace)
    assert detect_collusion(view, 1, 0.05) == frozenset()


def test_epsilon_validated(honest_trace_25):
    view = LocalView.central(honest_trace_25)
    with pytest.raises(ValueError):
        detect_collusion(view, 3, 0.0)
    with pytest.raises(ValueError):
        detect_collusion(view, 3, 1.0)


# -- revocation -----------------------------------------------------------------------


def _empty_report():
    return SuspicionReport(
        observer=1,
        as_of=3,
        disappeared=frozenset(),
        unpaired_claims=(),
        collusion_suspects=frozenset(),
        pairing=(),
    )


def test_empty_report_revokes_nobody():
    assert update_revocation(_empty_report()) == frozenset()


def test_disappeared_robot_revoked_by_default_policy():
    report = _empty_report()
    report.disappeared = frozenset({(6, 0)})
    assert update_revocation(report, default_revocation_policy) == frozenset({6})


def test_never_revoke_policy_overrides_evidence():
    report = _empty_report()
    report.disappeared = frozenset({(6, 0)})
    report.collusion_suspects = frozenset({((1, 2), 3)})
    assert update_revocation(report, lambda _report: set()) == frozenset()


def test_compile_report_brings_it_together(colluder_trace_25):
    view = LocalView.central(colluder_trace_25)
    report = compile_report(view, 3, 0.1, 0.05)
    assert ((3, 7), 3) in report.collusion_suspects
    assert {3, 7} <= set(report.revoked)
    as_dict = report.to_dict()
    assert as_dict["collusion_suspects"][0]["pair"] == [3, 7] or any(
        row["pair"] == [3, 7] for row in as_dict["collusion_suspects"]
    )


# -- central audit -----------------------------------------------------------------------


def test_honest_audit_is_clean(honest_trace_25):
    audit = audit_trace(honest_trace_25)
    assert audit.clean
    assert audit.findings_count == 0
    expected = {(u, v, g.interval) for g in honest_trace_25.graphs for (u, v) in g.edges}
    assert audit.encounters == frozenset(expected)


def test_refuse_record_audit_attributes_omissions(refuse_record_trace_25):
    audit = audit_trace(refuse_record_trace_25)
    assert not audit.verification_failures
    assert audit.unpaired_claims
    adversaries = set(range(1, 9))
    for claimer, target, _ in audit.unpaired_claims:
        # every unpaired claim points at a non-reciprocating adversary
        assert target in adversaries
        assert claimer not in adversaries or target in adversaries


def test_tampered_stored_link_is_found(honest_trace_25):
    import copy

    trace = honest_trace_25
    victim_head = trace.head_link(5)
    middle = trace.store.get(victim_head.prev_digest)  # interval 2
    blob = bytearray(encode_link(middle))
    blob[9] ^= 0x20
    mutated = decode_link(bytes(blob))
    store = copy.copy(trace.store)
    store._links = dict(trace.store._links)
    store._links[link_digest(middle)] = mutated
    audit = central_audit(
        {r: trace.head_link(r) if r != 5 else victim_head for r in range(1, 26)},
        store,
        trace.credentials,
        total_intervals=3,
    )
    assert any(robot == 5 and interval == 2 for robot, interval, _ in audit.verification_failures)


def test_missing_head_reported():
    cfg = SimConfig(
        n=6, p=0.8, intervals=3, delta=3, alpha=0.2, seed=10,
        adversaries=(_profile("disappear", [2], from_t=1, to_t=3),),
    )
    trace = run_simulation(cfg)
    audit = audit_trace(trace)
    assert audit.missing_heads == (2,)


def test_outage_gap_reported():
    cfg = SimConfig(
        n=6, p=1.0, intervals=5, delta=3, alpha=0.2, seed=10,
        adversaries=(_profile("disappear", [2], from_t=2, to_t=4),),
    )
    trace = run_simulation(cfg)
    audit = audit_trace(trace)
    assert (2, 2, 4) in audit.gaps


def test_forged_entries_are_audit_failures():
    cfg = SimConfig(
        n=10, p=0.5, intervals=4, delta=3, alpha=0.2, seed=2,
        adversaries=(_profile("forge_claim", [2], target=9),),
    )
    trace = run_simulation(cfg)
    audit = audit_trace(trace)
    assert audit.verification_failures
    assert all(robot == 2 for robot, _, _ in audit.verification_failures)
    assert all(reason == "bad-entry-signature" for _, _, reason in audit.verification_failures)
