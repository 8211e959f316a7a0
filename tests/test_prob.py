import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmchain.prob import (
    _BLOCK_CELLS,
    _MC_CHUNK,
    Estimate,
    InfeasibleError,
    ProbQuery,
    _report_events,
    exact_small_enumeration,
    mc_report_within,
    pairing_threshold,
    prob_no_report,
    prob_no_report_exact,
    prob_pair_meets_all,
    prob_report_within,
    prob_report_within_exact,
)

# Reference values for the two operating points, asserted at printed precision.
REF_NO_REPORT_25 = 1.49e-5  # 3 significant figures
REF_REPORT_25 = 0.99998  # 5 decimal places
REF_REPORT_48 = 0.99403  # 5 decimal places
REF_PAIR_33 = 0.036
REF_PAIR_17 = 0.005

# Exact value for the tiny enumeration instance (n=3, p=1/2, delta=2),
# derived by hand: no report iff no direct meeting in either interval and
# not (third robot meets the target first, then the observer):
# (1/2) * (1/2) * (3/4) = 3/16, so P(report) = 13/16.
EXACT_3_HALF_2 = 13 / 16


def test_no_report_matches_reference_value():
    value = prob_no_report(ProbQuery(25, 0.33, 3))
    assert abs(value - REF_NO_REPORT_25) <= 0.005e-5


def test_report_within_matches_reference_values():
    assert abs(prob_report_within(ProbQuery(25, 0.33, 3)) - REF_REPORT_25) <= 1e-5
    assert abs(prob_report_within(ProbQuery(48, 0.17, 3)) - REF_REPORT_48) <= 1e-5


def test_no_report_degenerate_probabilities():
    assert prob_no_report(ProbQuery(10, 1.0, 4)) == 0.0
    assert prob_no_report(ProbQuery(10, 0.0, 4)) == 1.0


def test_report_within_single_interval_is_p():
    assert math.isclose(prob_report_within(ProbQuery(30, 0.25, 1)), 0.25)


def test_pair_meets_all_matches_reference_values():
    assert abs(prob_pair_meets_all(0.33, 3) - REF_PAIR_33) <= 5e-4
    assert abs(prob_pair_meets_all(0.17, 3) - REF_PAIR_17) <= 5e-4
    assert prob_pair_meets_all(0.4, 1) == 0.4


def test_pair_meets_all_validation():
    rows = [
        ("p", 1.2, 3),
        ("p", True, 2),
        ("p", "0.5", 2),
        ("delta", 0.5, 0),
        ("delta", 0.5, True),
        ("delta", 0.5, 2.5),
        ("delta", 0.5, 3.0),
    ]
    for field, p, delta in rows:
        with pytest.raises(ValueError, match=f"^{field}:"):
            prob_pair_meets_all(p, delta)


def test_query_validation():
    rows = [
        ("n", lambda: ProbQuery(1, 0.5, 3)),
        ("n", lambda: ProbQuery(48.5, 0.17, 3)),
        ("n", lambda: ProbQuery(True, 0.17, 3)),
        ("p", lambda: ProbQuery(5, -0.1, 3)),
        ("p", lambda: ProbQuery(48, True, 3)),
        ("p", lambda: ProbQuery(48, "0.17", 3)),
        ("delta", lambda: ProbQuery(5, 0.5, 0)),
        ("delta", lambda: ProbQuery(48, 0.17, True)),
        ("delta", lambda: ProbQuery(48, 0.17, 3.0)),
        ("trials", lambda: mc_report_within(ProbQuery(48, 0.17, 3), 2.5, 1)),
        ("trials", lambda: mc_report_within(ProbQuery(48, 0.17, 3), True, 1)),
        ("seed", lambda: mc_report_within(ProbQuery(48, 0.17, 3), 10, -1)),
    ]
    for field, call in rows:
        with pytest.raises(ValueError, match=f"^{field}:"):
            call()


@settings(max_examples=200)
@given(
    n=st.integers(2, 200),
    p=st.floats(0, 1, allow_nan=False),
    delta=st.integers(1, 50),
)
def test_complement_identity_exact(n, p, delta):
    q = ProbQuery(n, p, delta)
    assert prob_no_report(q) + prob_report_within(q) == 1.0


@settings(max_examples=100)
@given(
    n=st.integers(2, 100),
    p=st.floats(0.01, 0.99),
    delta=st.integers(1, 20),
)
def test_report_within_monotone(n, p, delta):
    q = ProbQuery(n, p, delta)
    base = prob_report_within(q)
    assert prob_report_within(ProbQuery(n + 1, p, delta)) >= base
    assert prob_report_within(ProbQuery(n, min(1.0, p + 0.01), delta)) >= base
    assert prob_report_within(ProbQuery(n, p, delta + 1)) >= base


def test_mc_degenerate_probabilities():
    zero = mc_report_within(ProbQuery(5, 0.0, 2), trials=500, seed=1)
    one = mc_report_within(ProbQuery(5, 1.0, 2), trials=500, seed=1)
    assert zero.point == 0.0 and zero.std_error == 0.0
    assert one.point == 1.0


def test_mc_single_trial_boundary():
    est = mc_report_within(ProbQuery(4, 0.5, 2), trials=1, seed=3)
    assert est.trials == 1
    assert est.point in (0.0, 1.0)
    assert est.std_error == 0.0


def test_mc_is_deterministic_per_seed():
    q = ProbQuery(6, 0.3, 2)
    a = mc_report_within(q, trials=3000, seed=42)
    b = mc_report_within(q, trials=3000, seed=42)
    c = mc_report_within(q, trials=3000, seed=43)
    assert a == b
    assert a.point != c.point or a.seed != c.seed


def test_mc_requires_trials():
    with pytest.raises(ValueError):
        mc_report_within(ProbQuery(4, 0.5, 2), trials=0, seed=1)


def test_enumeration_two_robots_single_interval_is_p():
    assert math.isclose(exact_small_enumeration(ProbQuery(2, 0.37, 1)), 0.37)


def test_enumeration_p_zero_is_zero():
    assert exact_small_enumeration(ProbQuery(3, 0.0, 2)) == 0.0


def test_enumeration_matches_hand_derived_value():
    value = exact_small_enumeration(ProbQuery(3, 0.5, 2))
    assert math.isclose(value, EXACT_3_HALF_2, abs_tol=1e-12)


def test_enumeration_rejects_large_instances():
    # (5, 3) needs C(5, 2) * 3 = 30 edge slots
    with pytest.raises(InfeasibleError):
        exact_small_enumeration(ProbQuery(5, 0.5, 3))


def test_mc_agrees_with_enumeration_oracle():
    q = ProbQuery(3, 0.5, 2)
    exact = exact_small_enumeration(q)
    est = mc_report_within(q, trials=20_000, seed=99)
    assert abs(est.point - exact) <= 3 * max(est.std_error, 1 / est.trials)


def test_enumeration_agrees_with_oracle_on_asymmetric_p():
    q = ProbQuery(3, 0.3, 2)
    # independent edge groups, as in the hand derivation above
    expected = 1 - (0.7 * 0.7 * (1 - 0.3 * 0.3))
    assert math.isclose(exact_small_enumeration(q), expected, abs_tol=1e-12)
    est = mc_report_within(q, trials=20_000, seed=17)
    assert abs(est.point - expected) <= 3 * max(est.std_error, 1 / est.trials)


# Every (n, delta) small enough to enumerate within 12 edge slots.
SMALL_INSTANCES = [
    (n, delta) for n in range(2, 6) for delta in range(1, 13) if math.comb(n, 2) * delta <= 12
]


@settings(max_examples=100, deadline=None)
@given(shape=st.sampled_from(SMALL_INSTANCES), p=st.floats(0, 1, allow_nan=False))
def test_exact_form_matches_enumeration(shape, p):
    q = ProbQuery(shape[0], p, shape[1])
    assert math.isclose(prob_report_within_exact(q), exact_small_enumeration(q), abs_tol=1e-12)
    assert prob_no_report_exact(q) + prob_report_within_exact(q) == 1.0


@pytest.mark.parametrize("n", [2, 3, 48, 200])
@pytest.mark.parametrize("p", [0.0, 0.17, 0.5, 1.0])
def test_exact_single_interval_is_p(n, p):
    assert math.isclose(prob_report_within_exact(ProbQuery(n, p, 1)), p)


@pytest.mark.parametrize("delta", [1, 2, 3, 10])
@pytest.mark.parametrize("p", [0.0, 0.17, 0.5, 1.0])
def test_exact_two_robots_is_direct_meeting_only(delta, p):
    assert math.isclose(prob_report_within_exact(ProbQuery(2, p, delta)), 1 - (1 - p) ** delta)


def test_exact_value_and_closed_form_bias_at_n48():
    q = ProbQuery(48, 0.17, 3)
    assert abs(prob_report_within_exact(q) - 0.985571) <= 5e-7
    assert abs(prob_report_within(q) - prob_report_within_exact(q) - 0.0085) <= 5e-5


def test_mc_within_five_standard_errors_of_exact_at_n48():
    q = ProbQuery(48, 0.17, 3)
    est = mc_report_within(q, trials=100_000, seed=2_024)
    assert abs(est.point - prob_report_within_exact(q)) <= 5 * est.std_error


def _report_events_by_loop(edges):
    """Per-trial reference: column 0 is (R, R'), then (R, k), then (R', k)."""
    _, delta, width = edges.shape
    k = (width - 1) // 2
    out = []
    for trial in edges.tolist():
        direct = any(interval[0] for interval in trial)
        relayed = any(
            trial[u][1 + j] and trial[v][1 + k + j]
            for j in range(k)
            for u in range(delta)
            for v in range(u)
        )
        out.append(direct or relayed)
    return out


@pytest.mark.parametrize("n,delta", [(2, 3), (3, 1), (5, 2), (7, 4)])
def test_report_events_matches_loop_reference(n, delta):
    rng = np.random.default_rng(n * 10 + delta)
    edges = rng.random((300, delta, 2 * (n - 2) + 1)) < 0.3
    assert _report_events(edges).tolist() == _report_events_by_loop(edges)


def test_mc_memory_stays_small_at_n100():
    # A dense (trials, delta, n, n) float batch would be ~458 MB here.
    tracemalloc.start()
    try:
        mc_report_within(ProbQuery(100, 0.17, 3), trials=2000, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def _mc_hits_one_shot(q, trials, seed):
    """Reference sampler: each chunk's uniforms in one whole draw, as
    ``mc_report_within`` did before it drew in blocks."""
    streams = np.random.SeedSequence(seed).spawn((trials + _MC_CHUNK - 1) // _MC_CHUNK)
    width = 2 * (q.n - 2) + 1
    hits = 0
    for i, stream in enumerate(streams):
        m = min(_MC_CHUNK, trials - i * _MC_CHUNK)
        edges = np.random.default_rng(stream).random((m, q.delta, width)) < q.p
        hits += int(_report_events(edges).sum())
    return hits


def _block_trials(q):
    return max(1, _BLOCK_CELLS // (q.delta * (2 * (q.n - 2) + 1)))


# (2, .5, 3) has one edge column; p = 0 and p = 1 pin the degenerate draws.
STREAM_SHAPES = [(2, 0.5, 3), (3, 0.5, 2), (48, 0.17, 3), (1000, 0.01, 2), (48, 0.0, 3), (48, 1.0, 3)]
STREAM_CASES = [
    pytest.param(shape, trials, id="{}-{}-{}-{}".format(*shape, trials))
    for shape in STREAM_SHAPES
    for block in [_block_trials(ProbQuery(*shape))]
    for trials in sorted({1, block - 1, block, block + 1, 20_000, 20_001, 45_000} - {0})
    # the reference holds a whole chunk; keep it under 64 MiB of uniforms
    if min(trials, _MC_CHUNK) * shape[2] * (2 * (shape[0] - 2) + 1) * 8 <= 64 * 2**20
]


@pytest.mark.parametrize("shape,trials", STREAM_CASES)
def test_blocked_draw_matches_one_shot_stream(shape, trials):
    q = ProbQuery(*shape)
    est = mc_report_within(q, trials, seed=trials)
    assert est.point == _mc_hits_one_shot(q, trials, seed=trials) / trials


def test_three_chunks_draw_the_spawned_children():
    """Each chunk's stream is derived as the chunk starts, and is the child
    ``SeedSequence(seed).spawn`` gives (the reference above spawns them all
    up front): a 3-chunk estimate is unchanged."""
    q = ProbQuery(6, 0.3, 2)
    trials = 2 * _MC_CHUNK + 7
    assert mc_report_within(q, trials, seed=4242).point == _mc_hits_one_shot(q, trials, seed=4242) / trials


@pytest.mark.parametrize(
    "q,seed,hits",
    [(ProbQuery(25, 0.33, 3), 20_240_601, 99_968), (ProbQuery(3, 0.5, 2), 31_337, 81_248)],
    ids=["criterion-2", "criterion-3"],
)
def test_acceptance_estimates_are_pinned(q, seed, hits):
    assert mc_report_within(q, trials=100_000, seed=seed).point == hits / 100_000


def _mc_peak(q, trials, seed):
    tracemalloc.start()
    try:
        mc_report_within(q, trials, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("trials", [20_000, 100_000])
def test_mc_memory_is_one_block_at_n48(trials):
    # One whole 20 000-trial draw at this shape is 44.6 MB of uniforms.
    assert _mc_peak(ProbQuery(48, 0.17, 3), trials, seed=8) < 4 * 2**20


def test_mc_runs_one_trial_blocks_when_a_trial_exceeds_the_budget():
    q = ProbQuery(100_000, 0.001, 2)
    trial_bytes = 8 * q.delta * (2 * (q.n - 2) + 1)
    assert trial_bytes > 8 * _BLOCK_CELLS
    assert _mc_peak(q, 3, seed=4) < 1.5 * trial_bytes
    assert mc_report_within(q, 3, seed=4).point == _mc_hits_one_shot(q, 3, seed=4) / 3


def test_pairing_threshold_rounds_up():
    assert pairing_threshold(25, 0.33, 1 / 3) == 6  # ceil(5.5)
    assert pairing_threshold(25, 0.33, 0.0) == 9  # ceil(8.25)
    assert pairing_threshold(48, 0.17, 1 / 3) == 6  # ceil(5.44)
    # n * p is an integer that floating point puts just above it (100 * 0.07 == 7.000000000000001).
    assert pairing_threshold(100, 0.07, 0.0) == 7
    assert pairing_threshold(25, 0.28, 0.0) == 7
    assert pairing_threshold(50, 0.14, 0.0) == 7
    with pytest.raises(ValueError):
        pairing_threshold(25, 0.33, 1.0)


def test_estimate_is_a_plain_record():
    est = Estimate(point=0.5, trials=10, std_error=0.1, seed=4)
    assert est.point == 0.5 and est.seed == 4
