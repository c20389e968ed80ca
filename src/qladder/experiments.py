"""Pre-packaged drivers: disorder sweep of the end-cell concurrence, branch
leakage traces, the ordered baseline, and the closed-form dimer validation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dimer_oracle import uniform_leg_occupation
from .ensemble import (
    DEFAULT_MASTER_SEED,
    EnsembleConfig,
    EnsembleStats,
    LABEL_CONCURRENCE,
    LABEL_P_MINUS,
    LABEL_P_PLUS,
    ObservablePlan,
    run_ensemble,
)
from .hamiltonian import Basis, Leg, bell_minus_state, build_effective, build_physical, unit_state
from .model import LadderParams, uniform_ladder
from .observables import TransferReport, concurrence, leg_occupation, transfer_time
from .spectral import eigendecompose, evolve, evolve_series

__all__ = [
    "DEFAULT_N_SITES",
    "DEFAULT_DELTAS",
    "DEFAULT_FIG2_W",
    "SweepResult",
    "TraceResult",
    "default_w_grid",
    "default_trace_grid",
    "transfer_sweep",
    "leakage_trace",
    "ordered_baseline",
    "oracle_check",
    "welch_greater",
]

DEFAULT_N_SITES = 30
DEFAULT_DELTAS = (0.05, 0.1, 0.2)
DEFAULT_W_MIN = 0.2
DEFAULT_W_MAX = 10.0
DEFAULT_W_POINTS = 25
DEFAULT_FIG2_W = (0.2, 1.0, 2.0, 5.0, 10.0)
DEFAULT_TRACE_SPAN = 10.0  # in units of the transfer time
DEFAULT_TRACE_POINTS = 200


def default_w_grid(
    w_min: float = DEFAULT_W_MIN,
    w_max: float = DEFAULT_W_MAX,
    w_points: int = DEFAULT_W_POINTS,
) -> np.ndarray:
    """Log-spaced disorder grid; log spacing resolves the low-W rise."""
    if w_points < 1:
        raise ValueError(f"w_points must be at least 1, got {w_points}")
    for name, value in (("w_min", w_min), ("w_max", w_max)):
        if value <= 0 or value == math.inf:  # a NaN is left to LadderParams' disorder_w check
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if w_points == 1:
        return np.array([float(w_min)])
    return np.geomspace(w_min, w_max, w_points)


def default_trace_grid(
    n_sites: int,
    span_in_tau: float = DEFAULT_TRACE_SPAN,
    n_points: int = DEFAULT_TRACE_POINTS,
) -> np.ndarray:
    """Uniform time grid over [0, span_in_tau * tau]."""
    return np.linspace(0.0, span_in_tau * transfer_time(n_sites), n_points)


@dataclass(eq=False)
class SweepResult:
    """Mean end-cell concurrence per (detuning, disorder) grid point."""

    w_values: np.ndarray
    deltas: tuple[float, ...]
    series: dict[float, list[EnsembleStats]]


@dataclass(eq=False)
class TraceResult:
    """Mean branch occupations on a time grid, one series per disorder value."""

    times: np.ndarray
    tau: float
    w_values: tuple[float, ...]
    minus: dict[float, EnsembleStats]
    plus: dict[float, EnsembleStats]


def _run_grid(points, plan, n_sites, n_realizations, master_seed, threads, keep_raw) -> list:
    """One :func:`run_ensemble` result per ``(W, delta)`` point, in order.

    Every point's :class:`EnsembleConfig` is built first, which runs every
    parameter check, so a bad value at a later point fails before any
    ensemble runs.
    """
    configs = [
        EnsembleConfig(
            params=LadderParams(n_sites=n_sites, disorder_w=w, detuning_delta=delta),
            n_realizations=n_realizations,
            master_seed=master_seed,
            plan=plan,
        )
        for w, delta in points
    ]
    return [run_ensemble(config, threads=threads, keep_raw=keep_raw) for config in configs]


def transfer_sweep(
    n_sites: int = DEFAULT_N_SITES,
    deltas=DEFAULT_DELTAS,
    w_grid=None,
    n_realizations: int = 100,
    master_seed: int = DEFAULT_MASTER_SEED,
    threads: int = 1,
    keep_raw: bool = False,
) -> SweepResult:
    """Disorder-averaged C(tau) against W for several detuning amplitudes.

    The initial state is the dual-rail Bell state on cell 1, evolved under
    the +/- basis Hamiltonian with the engineered coupling profile and read
    out at tau = pi*N/4. All grid points share realization streams (same
    master seed and indices), which suppresses seed noise in cross-point
    comparisons.
    """
    if w_grid is None:
        w_grid = default_w_grid()
    w_grid = np.asarray(w_grid, dtype=np.float64)
    deltas = tuple(float(d) for d in deltas)
    points = [(float(w), delta) for delta in deltas for w in w_grid]
    plan = ObservablePlan.concurrence_only()
    results = iter(_run_grid(points, plan, n_sites, n_realizations, master_seed, threads, keep_raw))
    series = {delta: [next(results)[LABEL_CONCURRENCE] for _ in w_grid] for delta in deltas}
    return SweepResult(w_values=w_grid, deltas=deltas, series=series)


def leakage_trace(
    n_sites: int = DEFAULT_N_SITES,
    delta: float = 0.2,
    w_values=DEFAULT_FIG2_W,
    times=None,
    n_realizations: int = 100,
    master_seed: int = DEFAULT_MASTER_SEED,
    threads: int = 1,
    keep_raw: bool = False,
) -> TraceResult:
    """Disorder-averaged occupation of the +/- branches over time, per W."""
    tau = transfer_time(n_sites)
    if times is None:
        times = default_trace_grid(n_sites)
    times = np.asarray(times, dtype=np.float64)
    w_values = tuple(float(w) for w in w_values)
    points = [(w, float(delta)) for w in w_values]
    plan = ObservablePlan.branch_trace(times)
    results = _run_grid(points, plan, n_sites, n_realizations, master_seed, threads, keep_raw)
    minus = {w: result[LABEL_P_MINUS] for w, result in zip(w_values, results)}
    plus = {w: result[LABEL_P_PLUS] for w, result in zip(w_values, results)}
    return TraceResult(times=times, tau=tau, w_values=w_values, minus=minus, plus=plus)


def ordered_baseline(n_sites: int, exact_revival: bool = False) -> TransferReport:
    """Clean-ladder transfer: W = Delta = 0 with the engineered couplings.

    The antisymmetric branch is then an ordered chain with exact end-to-end
    revival, so C(tau) = 1 up to rounding for even N (odd N needs
    ``exact_revival``).
    """
    tau = transfer_time(n_sites, exact_revival=exact_revival)
    system = eigendecompose(build_effective(uniform_ladder(n_sites, 0.0, 0.0)))
    final = evolve(system, bell_minus_state(n_sites), tau)
    return TransferReport(concurrence_at_tau=concurrence(final, n_sites), tau=tau)


def oracle_check(
    delta: float,
    gamma: float,
    n_sites: int,
    times=None,
) -> float:
    """Max deviation between numeric and closed-form one-leg occupation.

    Builds the constant-detuning ladder directly, evolves |site 1, leg 1>
    under the site-basis Hamiltonian and compares the leg-1 occupation
    against the analytic Rabi formula on the whole grid, which must hold at
    least one time.
    """
    if times is None:
        times = np.linspace(0.0, 20.0, 201)
    times = np.asarray(times, dtype=np.float64)
    if times.size == 0:
        raise ValueError("oracle_check needs at least one time")
    realization = uniform_ladder(n_sites, delta, gamma)
    system = eigendecompose(build_physical(realization))
    psi0 = unit_state(n_sites, 1, Leg.ONE, Basis.PHYSICAL)
    trajectory = evolve_series(system, psi0, times)
    numeric = np.array([leg_occupation(s, Leg.ONE) for s in trajectory])
    closed = uniform_leg_occupation(delta, gamma, times)
    return float(np.max(np.abs(numeric - closed)))


def welch_greater(sample_hi, sample_lo) -> float:
    """One-sided Welch test p-value for mean(sample_hi) > mean(sample_lo)."""
    from scipy import stats as sps  # imported here: it is most of the CLI's start-up time

    result = sps.ttest_ind(
        np.asarray(sample_hi), np.asarray(sample_lo), equal_var=False, alternative="greater"
    )
    return float(result.pvalue)
