import numpy as np
import pytest
from scipy import stats as sps
from scipy.linalg import expm

import qladder.ensemble as ensemble_mod
from qladder.ensemble import (
    LABEL_CONCURRENCE,
    LABEL_P_MINUS,
    LABEL_P_PLUS,
    EnsembleConfig,
    ObservablePlan,
    derive_stream,
    run_ensemble,
)
from qladder.experiments import default_trace_grid, leakage_trace
from qladder.hamiltonian import build_physical
from qladder.model import LadderParams, sample_realization


def make_config(n_sites=10, w=2.0, delta=0.3, n_realizations=6, seed=42, plan=None):
    params = LadderParams(n_sites=n_sites, disorder_w=w, detuning_delta=delta,
                          allow_large_detuning=True)
    return EnsembleConfig(
        params=params,
        n_realizations=n_realizations,
        master_seed=seed,
        plan=plan if plan is not None else ObservablePlan.concurrence_only(),
    )


# ---------------------------------------------------------------------------
# stream derivation
# ---------------------------------------------------------------------------

def test_same_seed_and_index_reproduce_draws():
    a = derive_stream(123, 4).uniform(size=1000)
    b = derive_stream(123, 4).uniform(size=1000)
    assert np.array_equal(a, b)


def test_distinct_indices_give_distinct_draws():
    a = derive_stream(123, 0).uniform(size=1000)
    b = derive_stream(123, 1).uniform(size=1000)
    assert not np.array_equal(a, b)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        derive_stream(1, -1)


def test_pooled_streams_look_uniform():
    # 100 streams x 1000 draws; pooled KS statistic must clear the 1% level
    pooled = np.concatenate([derive_stream(42, i).uniform(size=1000) for i in range(100)])
    statistic, _ = sps.kstest(pooled, "uniform")
    critical_1pct = 1.628 / np.sqrt(pooled.size)
    assert statistic < critical_1pct


# ---------------------------------------------------------------------------
# plans and configs
# ---------------------------------------------------------------------------

def test_plan_validates_times():
    with pytest.raises(ValueError):
        ObservablePlan.branch_trace([3.0, 1.0])
    with pytest.raises(ValueError):
        ObservablePlan.branch_trace([-1.0, 1.0])
    with pytest.raises(ValueError):
        ObservablePlan(concurrence_at_tau=False, trace_times=None)


def test_config_requires_realizations():
    with pytest.raises(ValueError):
        make_config(n_realizations=0)


# ---------------------------------------------------------------------------
# ensemble runs
# ---------------------------------------------------------------------------

def test_single_clean_realization_transfers_perfectly():
    config = make_config(n_sites=30, w=0.0, delta=0.0, n_realizations=1)
    stats = run_ensemble(config)[LABEL_CONCURRENCE]
    assert stats.n == 1
    assert float(stats.mean) >= 1.0 - 1e-6
    assert float(stats.std_error) == 0.0


def test_zero_detuning_keeps_minus_branch_full():
    times = np.linspace(0.0, 60.0, 40)
    config = make_config(
        n_sites=8, w=6.0, delta=0.0, n_realizations=4,
        plan=ObservablePlan.branch_trace(times),
    )
    result = run_ensemble(config)
    assert np.max(np.abs(result[LABEL_P_MINUS].mean - 1.0)) < 1e-10
    assert np.max(np.abs(result[LABEL_P_MINUS].mean + result[LABEL_P_PLUS].mean - 1.0)) < 1e-12


def test_runs_are_bitwise_deterministic():
    config = make_config(n_realizations=5)
    a = run_ensemble(config)[LABEL_CONCURRENCE]
    b = run_ensemble(config)[LABEL_CONCURRENCE]
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.std_error, b.std_error)


def test_thread_count_does_not_change_results():
    times = np.linspace(0.0, 30.0, 25)
    config = make_config(n_realizations=13, plan=ObservablePlan.both(times))
    serial = run_ensemble(config, threads=1, keep_raw=True)
    for threads in (2, 4):
        threaded = run_ensemble(config, threads=threads, keep_raw=True)
        for label in (LABEL_CONCURRENCE, LABEL_P_MINUS, LABEL_P_PLUS):
            assert np.array_equal(serial[label].mean, threaded[label].mean)
            assert np.array_equal(serial[label].std_error, threaded[label].std_error)
            assert np.array_equal(serial[label].per_realization, threaded[label].per_realization)


def test_raw_values_bracket_the_mean():
    config = make_config(n_realizations=7)
    stats = run_ensemble(config, keep_raw=True)[LABEL_CONCURRENCE]
    assert stats.per_realization.shape == (7,)
    assert stats.per_realization.min() <= float(stats.mean) <= stats.per_realization.max()
    assert np.all(stats.mean >= 0.0) and np.all(stats.mean <= 1.0)


def test_raw_values_dropped_by_default():
    config = make_config(n_realizations=3)
    stats = run_ensemble(config)[LABEL_CONCURRENCE]
    assert stats.per_realization is None


def test_failures_report_the_realization_index(monkeypatch):
    config = make_config(n_realizations=5)
    original = ensemble_mod.sample_realization

    def flaky(params, rng, seed_tag=""):
        if seed_tag.endswith(":3"):
            raise MemoryError("synthetic exhaustion")
        return original(params, rng, seed_tag)

    monkeypatch.setattr(ensemble_mod, "sample_realization", flaky)
    with pytest.raises(RuntimeError, match="realization 3"):
        run_ensemble(config)


@pytest.mark.parametrize("corruption", ["norm", "energy"])
def test_guard_failures_name_the_realization_inside_a_chunk(monkeypatch, corruption):
    # realization 3 of 7 sits mid-way through the first stacked diagonalization
    config = make_config(n_realizations=7, plan=ObservablePlan.both(np.linspace(0.0, 5.0, 6)))
    assert ensemble_mod._CHUNK > 3
    original = ensemble_mod.diagonalize

    def corrupted(entries):
        eigenvalues, eigenvectors = original(entries)
        if len(entries) > 3:
            if corruption == "norm":
                eigenvectors[3] *= 1.001
            else:  # mix the two eigenvectors that carry most of psi0: still
                # orthonormal, so the norm holds, but no longer an eigenbasis
                v = eigenvectors[3]
                a, b = np.argsort(np.abs(v[1]))[-2:]
                v[:, a], v[:, b] = (v[:, a] + v[:, b]) / np.sqrt(2), (v[:, a] - v[:, b]) / np.sqrt(2)
        return eigenvalues, eigenvectors

    monkeypatch.setattr(ensemble_mod, "diagonalize", corrupted)
    with pytest.raises(RuntimeError, match=f"realization 3 .*42:3.*{corruption} drift"):
        run_ensemble(config)


def test_chunk_size_does_not_change_values(monkeypatch):
    plan = ObservablePlan.both(np.linspace(0.0, 30.0, 25))
    config = make_config(n_realizations=2 * ensemble_mod._CHUNK + 2, plan=plan)
    default = run_ensemble(config, keep_raw=True)
    monkeypatch.setattr(ensemble_mod, "_CHUNK", 1)
    single = run_ensemble(config, keep_raw=True)
    for label in (LABEL_CONCURRENCE, LABEL_P_MINUS, LABEL_P_PLUS):
        assert np.array_equal(default[label].per_realization, single[label].per_realization)


def test_ensemble_size_does_not_change_shared_values():
    # one realization alone, a chunk plus a lone remainder, two full chunks
    plan = ObservablePlan.both(np.linspace(0.0, 30.0, 25))
    chunk = ensemble_mod._CHUNK
    runs = [
        run_ensemble(make_config(n_realizations=n, plan=plan), keep_raw=True)
        for n in (1, chunk + 1, 2 * chunk)
    ]
    for label in (LABEL_CONCURRENCE, LABEL_P_MINUS, LABEL_P_PLUS):
        alone, remainder, full = (run[label].per_realization for run in runs)
        assert np.array_equal(alone, remainder[:1])
        assert np.array_equal(remainder, full[: chunk + 1])


def test_leakage_traces_match_site_basis_expm():
    # independent path: the physical-basis Hamiltonian, the Bell state on the
    # legs of cell 1, one expm step per grid interval, p_minus = sum |(a-b)/sqrt2|^2
    n_sites, delta, n_realizations = 30, 0.2, 5
    times = default_trace_grid(n_sites)
    dt = times[1]
    assert np.allclose(np.diff(times), dt, rtol=1e-12, atol=0.0)
    result = leakage_trace(
        n_sites=n_sites, delta=delta, w_values=(0.2, 10.0), times=times,
        n_realizations=n_realizations, keep_raw=True,
    )
    worst = 0.0
    for w in (0.2, 10.0):
        params = LadderParams(n_sites=n_sites, disorder_w=w, detuning_delta=delta,
                              allow_large_detuning=True)
        engine = result.minus[w].per_realization
        for i in range(n_realizations):
            h = build_physical(sample_realization(params, derive_stream(42, i))).entries
            step = expm(-1j * dt * h)
            psi = np.zeros(2 * n_sites, dtype=complex)
            psi[0], psi[1] = np.sqrt(0.5), -np.sqrt(0.5)
            for k in range(times.size):
                p_minus = np.sum(np.abs((psi[0::2] - psi[1::2]) * np.sqrt(0.5)) ** 2)
                worst = max(worst, abs(p_minus - engine[i, k]))
                psi = step @ psi
    assert worst < 1e-10


def test_stats_reduction_matches_numpy():
    config = make_config(n_realizations=9)
    stats = run_ensemble(config, keep_raw=True)[LABEL_CONCURRENCE]
    raw = stats.per_realization
    assert float(stats.mean) == raw.mean()
    assert float(stats.std_error) == pytest.approx(raw.std(ddof=1) / 3.0, rel=1e-12)


def test_plans_share_realization_streams():
    # same (params, seed, index) -> same realizations, whatever is measured,
    # so results are consistent per realization across different drivers
    times = np.linspace(0.0, 20.0, 15)
    combined = run_ensemble(make_config(plan=ObservablePlan.both(times)), keep_raw=True)
    conc_only = run_ensemble(
        make_config(plan=ObservablePlan.concurrence_only()), keep_raw=True
    )
    trace_only = run_ensemble(
        make_config(plan=ObservablePlan.branch_trace(times)), keep_raw=True
    )
    assert np.array_equal(
        combined[LABEL_CONCURRENCE].per_realization,
        conc_only[LABEL_CONCURRENCE].per_realization,
    )
    assert np.array_equal(
        combined[LABEL_P_MINUS].per_realization,
        trace_only[LABEL_P_MINUS].per_realization,
    )
