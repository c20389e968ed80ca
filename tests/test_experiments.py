import numpy as np
import pytest

import qladder.experiments
from qladder.experiments import (
    default_trace_grid,
    default_w_grid,
    leakage_trace,
    oracle_check,
    ordered_baseline,
    transfer_sweep,
    welch_greater,
)
from qladder.observables import transfer_time

ORACLE_TIMES = np.linspace(0.0, 20.0, 201)


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------

def test_default_w_grid_shape():
    grid = default_w_grid(0.2, 10.0, 25)
    assert grid.size == 25
    assert grid[0] == pytest.approx(0.2)
    assert grid[-1] == pytest.approx(10.0)
    assert np.all(np.diff(grid) > 0)


def test_a_sweep_runs_its_whole_grid_through_one_run_ensemble_call(monkeypatch):
    # the benchmark's speed probe and the CI gate wrap experiments.run_ensemble:
    # a sweep must reach the engine through that name, once, with every point
    calls = []
    genuine = qladder.experiments.run_ensemble

    def counted(configs, *args, **kwargs):
        calls.append([(config.params.disorder_w, config.params.detuning_delta)
                      for config in configs])
        return genuine(configs, *args, **kwargs)

    monkeypatch.setattr(qladder.experiments, "run_ensemble", counted)
    result = transfer_sweep(n_sites=4, deltas=(0.1, 0.2), w_grid=[0.5, 2.0],
                            n_realizations=2, master_seed=1)
    assert calls == [[(0.5, 0.1), (2.0, 0.1), (0.5, 0.2), (2.0, 0.2)]]
    assert list(result) == [0.1, 0.2]
    assert all(stats.n == 2 for series in result.values() for stats in series)


def test_sweep_zero_detuning_control_row():
    # the protected branch is clean for delta=0, whatever W is
    result = transfer_sweep(
        n_sites=8,
        deltas=(0.0,),
        w_grid=[0.2, 2.0, 10.0],
        n_realizations=3,
        master_seed=7,
    )
    for stats in result[0.0]:
        assert float(stats.mean) >= 1.0 - 1e-6


def test_sweep_trend_improves_with_disorder():
    # scaled-down version of the production run; the Welch test decides
    result = transfer_sweep(
        n_sites=12,
        deltas=(0.2,),
        w_grid=[0.2, 10.0],
        n_realizations=40,
        master_seed=5,
        keep_raw=True,
    )
    low, high = result[0.2]
    assert float(high.mean) > float(low.mean)
    assert welch_greater(high.per_realization, low.per_realization) < 0.01


# ---------------------------------------------------------------------------
# leakage driver
# ---------------------------------------------------------------------------

def test_leakage_trace_shapes_and_completeness():
    times = default_trace_grid(6, span_in_tau=2.0, n_points=30)
    result = leakage_trace(
        n_sites=6, delta=0.2, w_values=(0.2, 10.0), times=times,
        n_realizations=4, master_seed=3,
    )
    assert list(result) == [0.2, 10.0]
    for minus in result.values():
        assert minus.mean.shape == times.shape
        assert minus.mean[0] == 1.0  # the initial state lives in the minus branch


def test_leakage_is_suppressed_by_disorder():
    times = default_trace_grid(10, span_in_tau=6.0, n_points=40)
    result = leakage_trace(
        n_sites=10, delta=0.2, w_values=(0.2, 10.0), times=times,
        n_realizations=30, master_seed=9, keep_raw=True,
    )
    window = times >= 3.0 * transfer_time(10)
    low = result[0.2].per_realization[:, window].mean(axis=1)
    high = result[10.0].per_realization[:, window].mean(axis=1)
    assert high.mean() > low.mean()
    assert welch_greater(high, low) < 0.01


# ---------------------------------------------------------------------------
# ordered baseline
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_sites,expected_tau", [(30, 7.5 * np.pi), (4, np.pi), (2, np.pi / 2)])
def test_ordered_baseline_reaches_unit_concurrence(n_sites, expected_tau):
    report = ordered_baseline(n_sites)
    assert report.tau == pytest.approx(expected_tau, abs=1e-15)
    assert report.concurrence_at_tau >= 1.0 - 1e-6


def test_ordered_baseline_odd_chain_needs_exact_revival():
    report = ordered_baseline(3, exact_revival=True)
    assert report.tau == pytest.approx(np.pi * np.sqrt(8.0) / 4.0, abs=1e-15)
    assert report.concurrence_at_tau >= 1.0 - 1e-6


# ---------------------------------------------------------------------------
# closed-form validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "delta,gamma,n_sites",
    [(0.0, 1.0, 5), (3.0, 0.2, 10), (0.5, 1.0, 1), (2.0, 0.2, 5)],
)
def test_oracle_check_is_tight(delta, gamma, n_sites):
    assert oracle_check(delta, gamma, n_sites, times=ORACLE_TIMES) < 1e-8


def test_oracle_check_decoupled_legs():
    assert oracle_check(1.0, 0.0, 4, times=ORACLE_TIMES) < 1e-12


def test_oracle_check_rejects_an_empty_grid():
    # an empty grid compares nothing, so it must not pass as a deviation of 0
    with pytest.raises(ValueError, match="at least one time"):
        oracle_check(0.0, 1.0, 5, times=[])
