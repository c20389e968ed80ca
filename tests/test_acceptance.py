"""Acceptance suite: one test per criterion, each printing a pass line.

Criteria 5-7 are statistical trend criteria decided on per-realization
samples: criterion 5 by a paired one-sided t-test, criteria 6 and 7 by
one-sided Welch tests, each plus a two-sided 99% check of its paired gains,
gaps or difference against references measured at other seeds. Beside
criterion 7, the 1/W leakage check has two such size checks and no
direction test. Runtime bounds are asserted where a number is stated.
"""

import math
import time

import numpy as np
from scipy import stats as sps
from scipy.linalg import expm

from qladder.cli import FIG1_DEFAULTS, main
from qladder.ensemble import derive_stream
from qladder.experiments import (
    leakage_trace,
    oracle_check,
    ordered_baseline,
    transfer_sweep,
    welch_greater,
)
from qladder.hamiltonian import (
    Branch,
    bell_minus_state,
    build_effective,
    build_physical,
    unit_state,
    Basis,
    Leg,
)
from qladder.model import LadderParams, sample_realization, uniform_ladder
from qladder.observables import branch_occupation, concurrence, transfer_time
from qladder.spectral import eigendecompose, evolve, evolve_series, expectation

SEED = FIG1_DEFAULTS["seed"]  # every criterion below runs at this fixed seed

# References of criteria 5-7 and of the 1/W leakage check, all at N = 30 and
# pooled over 10,000 realizations at seeds 1, 2, 3, 7 and 1234, other than
# SEED, from one program whose engine and site-basis expm paths agree to
# 1.1e-12 (296 s on one core of a 2-vCPU VM):
#   $ python scripts/criteria_reference.py
# Criterion 5, the paired gain C(W=10) - C(W=0.2) at delta = 0.2, t = tau:
#   criterion 5: gain C(W=10) - C(W=0.2) at delta=0.2: 0.094179 +- 0.000607
C5_GAIN_REF = 0.09418
C5_GAIN_REF_SE = 0.00061
C5_REALIZATIONS = 1000  # realizations 0-99 are the ones fig1 draws at these points
C5_Z99 = 2.576  # two-sided 99% normal quantile

# Criteria 6 and 7, from the same run:
#   mean C(tau) at W=10: 0.995001, 0.980177, 0.923406 at delta 0.05, 0.1, 0.2
#   criterion 6: gap C(0.05) - C(0.1): 0.014824 +- 0.000061
#   criterion 6: gap C(0.1) - C(0.2): 0.056771 +- 0.000225
#   late-window p_- at delta 0.2: 0.780856 @ W=0.2, 0.980316 @ W=10
#   criterion 7: difference p_-(W=10) - p_-(W=0.2): 0.199461 +- 0.000874
# Each size half is a two-sided 99% check, as criterion 5's: the paired gap
# at SEED must lie within C5_Z99 * sqrt(se^2 + se_ref^2) of its reference.
C6_GAP_REFS = ((0.014824, 0.000061), (0.056771, 0.000225))  # (0.05, 0.1), (0.1, 0.2)
C7_DIFF_REF, C7_DIFF_REF_SE = 0.199461, 0.000874

# The 1/W leakage check, from the same run: the late-window leak 1 - p_- at
# delta = 0.2 and W = 10, 20, 40, 80 (0.019684, 0.009675, 0.004866, 0.002402),
# the least-squares slope of log mean leak against log W (its standard error
# by the delta method over the 4 x 4 covariance of the paired mean leaks),
# and the level W * leak at W = 10:
#   1/W leak: log-log slope over W in (10.0, 20.0, 40.0, 80.0): -1.0096 +- 0.0191
#   1/W leak: W * leak at W=10: 0.196838 +- 0.002820
# Both are two-sided 99% checks, as criteria 5-7's size halves, fixed before
# SEED was run.
LEAK_W = (10.0, 20.0, 40.0, 80.0)
LEAK_SLOPE_REF, LEAK_SLOPE_REF_SE = -1.0096, 0.0191
LEAK_LEVEL_REF, LEAK_LEVEL_REF_SE = 0.196838, 0.002820
LEAK_REALIZATIONS = 400


def drifts_along(operator, psi0, times):
    """Max norm and energy drift along one trajectory."""
    system = eigendecompose(operator)
    energy0 = expectation(operator, psi0)
    norm_drift = 0.0
    energy_drift = 0.0
    for state in evolve_series(system, psi0, times):
        norm_drift = max(norm_drift, abs(state.norm_sq() - 1.0))
        energy_drift = max(energy_drift, abs(expectation(operator, state) - energy0))
    return norm_drift, energy_drift


def test_criterion_1_ordered_perfect_transfer():
    start = time.perf_counter()
    report = ordered_baseline(30)
    elapsed = time.perf_counter() - start
    assert report.concurrence_at_tau >= 1.0 - 1e-6
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 1: PASS - ordered N=30 C(tau) = {report.concurrence_at_tau:.12f} "
        f"({elapsed:.2f} s)"
    )


def test_criterion_2_disorder_free_subspace():
    start = time.perf_counter()
    sizes = (8, 10, 16, 24, 30)  # even, so the revival lands exactly on tau
    worst_p = 1.0
    worst_c = 1.0
    for k in range(50):
        n_sites = sizes[k % len(sizes)]
        w = 1.0 if k % 2 == 0 else 10.0
        params = LadderParams(n_sites=n_sites, disorder_w=w, detuning_delta=0.0)
        realization = sample_realization(params, derive_stream(SEED, k))
        system = eigendecompose(build_effective(realization))
        tau = transfer_time(n_sites)
        psi0 = bell_minus_state(n_sites)
        grid = np.linspace(0.0, 10.0 * tau, 100)
        for state in evolve_series(system, psi0, grid):
            worst_p = min(worst_p, branch_occupation(state, Branch.MINUS))
        worst_c = min(worst_c, concurrence(evolve(system, psi0, tau), n_sites))
    elapsed = time.perf_counter() - start
    assert worst_p >= 1.0 - 1e-10
    assert worst_c >= 1.0 - 1e-6
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 2: PASS - min P_minus = {worst_p:.3e} from 1, "
        f"min C(tau) = {worst_c:.12f} over 50 realizations ({elapsed:.2f} s)"
    )


def test_criterion_3_isospectrality():
    start = time.perf_counter()
    worst = 0.0
    for k in range(50):
        n_sites = 2 + (k % 15)  # 2..16
        w = (0.5, 2.0, 10.0)[k % 3]
        params = LadderParams(n_sites=n_sites, disorder_w=w, detuning_delta=min(w, 0.4))
        realization = sample_realization(params, derive_stream(SEED + 1, k))
        w_phys = np.linalg.eigvalsh(build_physical(realization).entries)
        w_eff = np.linalg.eigvalsh(build_effective(realization).entries)
        worst = max(worst, float(np.max(np.abs(w_phys - w_eff))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 10.0
    print(f"ACCEPTANCE 3: PASS - max spectral deviation {worst:.3e} ({elapsed:.2f} s)")


def test_criterion_4_dimer_closed_form():
    start = time.perf_counter()
    times = np.linspace(0.0, 20.0, 201)
    worst = 0.0
    for delta in (0.0, 0.5, 2.0):
        for gamma in (0.2, 1.0):
            for n_sites in (1, 5, 10):
                worst = max(worst, oracle_check(delta, gamma, n_sites, times=times))
    elapsed = time.perf_counter() - start
    assert worst < 1e-8
    assert elapsed < 30.0
    print(f"ACCEPTANCE 4: PASS - max closed-form deviation {worst:.3e} ({elapsed:.2f} s)")


def criterion_5_sweep(n_realizations):
    """Criterion 5's ensemble: seed 42, N = 30, delta = 0.2, W = 0.2 and 10."""
    result = transfer_sweep(
        n_sites=30,
        deltas=(0.2,),
        w_grid=[0.2, 10.0],
        n_realizations=n_realizations,
        master_seed=SEED,
        keep_raw=True,
    )
    return result[0.2]


def test_criterion_5_transfer_improves_with_disorder():
    # Direction: W = 0.2 and W = 10 share realization streams, so the samples
    # are paired and the one-sided test runs on per-realization differences.
    # Size: the paired gain must agree with the reference within two-sided 99%
    # bounds from both standard errors.
    start = time.perf_counter()
    low, high = criterion_5_sweep(C5_REALIZATIONS)
    diff = high.per_realization - low.per_realization
    gain = float(diff.mean())
    gain_se = float(diff.std(ddof=1)) / math.sqrt(diff.size)
    tolerance = C5_Z99 * math.hypot(gain_se, C5_GAIN_REF_SE)
    p_value = float(
        sps.ttest_rel(high.per_realization, low.per_realization, alternative="greater").pvalue
    )
    elapsed = time.perf_counter() - start
    summary = (
        f"mean C(tau) {float(low.mean):.4f} @ W=0.2 -> {float(high.mean):.4f} @ W=10 "
        f"over {diff.size} realizations, gain {gain:.4f} +- {gain_se:.4f} against "
        f"reference {C5_GAIN_REF:.5f} +- {C5_GAIN_REF_SE:.5f} (tolerance {tolerance:.4f}), "
        f"paired p = {p_value:.2e}"
    )
    assert float(high.mean) > float(low.mean), summary
    assert p_value < 0.01, summary
    assert abs(gain - C5_GAIN_REF) <= tolerance, summary
    print(f"ACCEPTANCE 5: PASS - {summary} ({elapsed:.2f} s)")


def test_criterion_5_engine_matches_site_basis_expm():
    # The path behind C5_GAIN_REF: the site-basis Bell state propagated with a
    # dense matrix exponential, concurrence read straight off the last rung.
    n_sites, count = 30, 10
    tau = transfer_time(n_sites)
    psi0 = np.zeros(2 * n_sites, dtype=np.complex128)
    psi0[0], psi0[1] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    worst = 0.0
    for w, stats in zip((0.2, 10.0), criterion_5_sweep(count)):
        params = LadderParams(n_sites=n_sites, disorder_w=w, detuning_delta=0.2)
        for index in range(count):
            realization = sample_realization(params, derive_stream(SEED, index))
            psi = expm(-1j * tau * build_physical(realization).entries) @ psi0
            direct = 2.0 * abs(psi[-2]) * abs(psi[-1])
            worst = max(worst, abs(direct - stats.per_realization[index]))
    assert worst <= 1e-10
    print(
        f"ACCEPTANCE 5: engine C(tau) matches site-basis expm to {worst:.1e} "
        f"on realizations 0-{count - 1} at W = 0.2 and 10"
    )


def test_criterion_6_saturation_ordered_by_detuning():
    start = time.perf_counter()
    result = transfer_sweep(
        n_sites=30,
        deltas=(0.05, 0.1, 0.2),
        w_grid=[10.0],
        n_realizations=100,
        master_seed=SEED,
        keep_raw=True,
    )
    sat = {d: result[d][0] for d in (0.05, 0.1, 0.2)}
    p_05_10 = welch_greater(sat[0.05].per_realization, sat[0.1].per_realization)
    p_10_20 = welch_greater(sat[0.1].per_realization, sat[0.2].per_realization)
    # Size: the detunings share realization streams, so each gap is paired
    sizes = []
    for (high, low), (gap_ref, gap_ref_se) in zip(((0.05, 0.1), (0.1, 0.2)), C6_GAP_REFS):
        diff = sat[high].per_realization - sat[low].per_realization
        gap, gap_se = float(diff.mean()), float(diff.std(ddof=1)) / math.sqrt(diff.size)
        sizes.append((gap, gap_ref, C5_Z99 * math.hypot(gap_se, gap_ref_se)))
    elapsed = time.perf_counter() - start
    summary = (
        "saturated C(tau) "
        f"{float(sat[0.05].mean):.4f} > {float(sat[0.1].mean):.4f} > "
        f"{float(sat[0.2].mean):.4f}, Welch p = {p_05_10:.2e}, {p_10_20:.2e}, gaps "
        + ", ".join(f"{gap:.5f} against {ref:.5f} (tolerance {tol:.5f})" for gap, ref, tol in sizes)
    )
    assert float(sat[0.05].mean) > float(sat[0.1].mean) > float(sat[0.2].mean), summary
    assert p_05_10 < 0.05, summary
    assert p_10_20 < 0.05, summary
    for gap, gap_ref, tolerance in sizes:
        assert abs(gap - gap_ref) <= tolerance, summary
    print(f"ACCEPTANCE 6: PASS - {summary} ({elapsed:.2f} s)")


def test_criterion_7_disorder_suppresses_leakage():
    start = time.perf_counter()
    tau = transfer_time(30)
    times = np.linspace(0.0, 10.0 * tau, 200)
    result = leakage_trace(
        n_sites=30,
        delta=0.2,
        w_values=(0.2, 10.0),
        times=times,
        n_realizations=100,
        master_seed=SEED,
        keep_raw=True,
    )
    window = times >= 5.0 * tau
    low = result[0.2].per_realization[:, window].mean(axis=1)
    high = result[10.0].per_realization[:, window].mean(axis=1)
    p_value = welch_greater(high, low)
    # Size: both W values share realization streams, so the difference is paired
    diff = high - low
    diff_mean, diff_se = float(diff.mean()), float(diff.std(ddof=1)) / math.sqrt(diff.size)
    tolerance = C5_Z99 * math.hypot(diff_se, C7_DIFF_REF_SE)
    elapsed = time.perf_counter() - start
    summary = (
        f"late-time P_minus {low.mean():.4f} @ W=0.2 -> {high.mean():.4f} @ W=10, "
        f"Welch p = {p_value:.2e}, difference {diff_mean:.5f} +- {diff_se:.5f} against "
        f"reference {C7_DIFF_REF:.5f} +- {C7_DIFF_REF_SE:.5f} (tolerance {tolerance:.5f})"
    )
    assert high.mean() > low.mean(), summary
    assert p_value < 0.01, summary
    assert abs(diff_mean - C7_DIFF_REF) <= tolerance, summary
    print(f"ACCEPTANCE 7: PASS - {summary} ({elapsed:.2f} s)")


def test_leakage_falls_as_one_over_w():
    # The mechanism behind criterion 7: a plus site leaks only when it lies
    # within a fixed window of the minus band, a fraction of sites that goes
    # as 1/W, so the late-window leak at fixed delta should too. Size only:
    # the slope and the level W * leak at W = 10 must each agree with its
    # reference within two-sided 99% bounds from both standard errors.
    start = time.perf_counter()
    tau = transfer_time(30)
    times = np.linspace(0.0, 10.0 * tau, 200)
    result = leakage_trace(
        n_sites=30,
        delta=0.2,
        w_values=LEAK_W,
        times=times[times >= 5.0 * tau],  # criterion 7's late window alone
        n_realizations=LEAK_REALIZATIONS,
        master_seed=SEED,
        keep_raw=True,
    )
    # the W values share realization streams, so the leaks are paired
    leak = 1.0 - np.stack([result[w].per_realization.mean(axis=1) for w in LEAK_W])
    x = np.log(LEAK_W)
    weights = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
    means = leak.mean(axis=1)
    slope = float(weights @ np.log(means))
    gradient = weights / means
    slope_se = math.sqrt(float(gradient @ np.cov(leak) @ gradient) / leak.shape[1])
    level = LEAK_W[0] * leak[0]
    level_mean, level_se = float(level.mean()), float(level.std(ddof=1)) / math.sqrt(level.size)
    slope_tol = C5_Z99 * math.hypot(slope_se, LEAK_SLOPE_REF_SE)
    level_tol = C5_Z99 * math.hypot(level_se, LEAK_LEVEL_REF_SE)
    elapsed = time.perf_counter() - start
    summary = (
        f"late-window leak {', '.join(f'{m:.5f}' for m in means)} at W = "
        f"{', '.join(f'{w:g}' for w in LEAK_W)}, log-log slope {slope:.4f} +- {slope_se:.4f} "
        f"against {LEAK_SLOPE_REF:.4f} +- {LEAK_SLOPE_REF_SE:.4f} (tolerance {slope_tol:.4f}), "
        f"W * leak at W = 10 {level_mean:.5f} +- {level_se:.5f} against "
        f"{LEAK_LEVEL_REF:.5f} +- {LEAK_LEVEL_REF_SE:.5f} (tolerance {level_tol:.5f})"
    )
    assert abs(slope - LEAK_SLOPE_REF) <= slope_tol, summary
    assert abs(level_mean - LEAK_LEVEL_REF) <= level_tol, summary
    print(f"LEAKAGE 1/W: PASS - {summary} ({elapsed:.2f} s)")


def test_criterion_8_unitarity_and_conservation():
    # Ensemble trajectories (criteria 5-7) are guarded at run time against
    # the same fixed tolerances: inside run_ensemble, spectral.certify bounds
    # the drift of each realization's Bell start state at every time, or,
    # where rounding alone puts a bound over tolerance, the states are
    # measured at the readout times; a violation raises. Here the
    # directly-driven trajectories of criteria 1, 2 and 4 are re-measured
    # explicitly, plus a spot check of the criterion-5/7 configuration.
    worst_norm = 0.0
    worst_energy = 0.0

    ordered = uniform_ladder(30, 0.0, 0.0)
    tau = transfer_time(30)
    cases = [
        (build_effective(ordered), bell_minus_state(30), np.linspace(0.0, tau, 50)),
    ]
    params = LadderParams(n_sites=30, disorder_w=10.0, detuning_delta=0.0)
    clean_branch = sample_realization(params, derive_stream(SEED, 0))
    cases.append(
        (build_effective(clean_branch), bell_minus_state(30), np.linspace(0.0, 10 * tau, 100))
    )
    dimer = uniform_ladder(10, 2.0, 1.0)
    cases.append(
        (build_physical(dimer), unit_state(10, 1, Leg.ONE, Basis.PHYSICAL),
         np.linspace(0.0, 20.0, 201))
    )
    disordered_params = LadderParams(n_sites=30, disorder_w=10.0, detuning_delta=0.2)
    for index in range(3):
        real = sample_realization(disordered_params, derive_stream(SEED, index))
        cases.append(
            (build_effective(real), bell_minus_state(30), np.linspace(0.0, 10 * tau, 200))
        )

    for operator, psi0, times in cases:
        norm_drift, energy_drift = drifts_along(operator, psi0, times)
        worst_norm = max(worst_norm, norm_drift)
        worst_energy = max(worst_energy, energy_drift)
    assert worst_norm <= 1e-10
    assert worst_energy <= 1e-9
    print(
        f"ACCEPTANCE 8: PASS - max norm drift {worst_norm:.3e} (<= 1e-10), "
        f"max energy drift {worst_energy:.3e} (<= 1e-9)"
    )


def test_criterion_9_byte_identical_reruns(tmp_path):
    fig1_args = [
        "fig1", "--n-sites", "30", "--delta", "0.2", "--w-points", "4",
        "--realizations", "20", "--seed", str(SEED),
    ]
    fig2_args = [
        "fig2", "--n-sites", "30", "--delta", "0.2", "--w", "0.2", "--w", "10",
        "--t-points", "50", "--realizations", "20", "--seed", str(SEED),
    ]
    outputs = {}
    for name, args, threads in [
        ("fig1_a", fig1_args, "1"),
        ("fig1_b", fig1_args, "4"),
        ("fig2_a", fig2_args, "1"),
        ("fig2_b", fig2_args, "4"),
    ]:
        out_dir = tmp_path / name
        assert main(args + ["--threads", threads, "--out-dir", str(out_dir)]) == 0
        csv = next(out_dir.glob("fig*.csv"))
        outputs[name] = csv.read_bytes()
    assert outputs["fig1_a"] == outputs["fig1_b"]
    assert outputs["fig2_a"] == outputs["fig2_b"]
    print("ACCEPTANCE 9: PASS - fig1.csv and fig2.csv byte-identical for 1 and 4 threads")
