"""Acceptance suite: one test per criterion, each printing a pass line.

Criteria 5-7 are statistical trend criteria decided on per-realization
samples: criterion 5 by a paired one-sided t-test plus a two-sided 99% check
of the gain's size against a reference measured at other seeds, criteria 6
and 7 by one-sided Welch tests. Runtime bounds are asserted where a number
is stated.
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

# Criterion 5 reference gain C(W=10) - C(W=0.2) at N = 30, delta = 0.2,
# t = tau, pooled over 10,000 paired realizations at seeds other than SEED,
# with the engine and a site-basis expm path agreeing to 2.2e-14:
#   $ python scripts/criterion5_reference.py
#   pooled gain 0.09418 +- 0.00061 over 10000 paired realizations
#   (seeds 1 2 3 7 1234; max |engine - expm| 2.2e-14; 15 s)
C5_GAIN_REF = 0.09418
C5_GAIN_REF_SE = 0.00061
C5_REALIZATIONS = 1000  # realizations 0-99 are the ones fig1 draws at these points
C5_Z99 = 2.576  # two-sided 99% normal quantile


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
    return result.series[0.2]


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
    sat = {d: result.series[d][0] for d in (0.05, 0.1, 0.2)}
    p_05_10 = welch_greater(sat[0.05].per_realization, sat[0.1].per_realization)
    p_10_20 = welch_greater(sat[0.1].per_realization, sat[0.2].per_realization)
    elapsed = time.perf_counter() - start
    assert float(sat[0.05].mean) > float(sat[0.1].mean) > float(sat[0.2].mean)
    assert p_05_10 < 0.05
    assert p_10_20 < 0.05
    print(
        "ACCEPTANCE 6: PASS - saturated C(tau) "
        f"{float(sat[0.05].mean):.4f} > {float(sat[0.1].mean):.4f} > "
        f"{float(sat[0.2].mean):.4f}, Welch p = {p_05_10:.2e}, {p_10_20:.2e} "
        f"({elapsed:.2f} s)"
    )


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
    low = result.minus[0.2].per_realization[:, window].mean(axis=1)
    high = result.minus[10.0].per_realization[:, window].mean(axis=1)
    p_value = welch_greater(high, low)
    elapsed = time.perf_counter() - start
    assert high.mean() > low.mean()
    assert p_value < 0.01
    print(
        f"ACCEPTANCE 7: PASS - late-time P_minus {low.mean():.4f} @ W=0.2 -> "
        f"{high.mean():.4f} @ W=10, Welch p = {p_value:.2e} ({elapsed:.2f} s)"
    )


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
