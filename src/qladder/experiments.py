"""Pre-packaged drivers: disorder sweep of the end-cell concurrence, branch
leakage traces, the ordered baseline, and the closed-form dimer validation."""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .hamiltonian import Basis, Leg, bell_minus_state, build_effective, build_physical, to_physical, unit_state
from .model import DisorderRealization, LadderParams, build_pst_couplings, uniform_ladder
from .observables import TransferReport, leg_occupation, transfer_time
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
    n_points: int = DEFAULT_W_POINTS,
) -> np.ndarray:
    """Log-spaced disorder grid; log spacing resolves the low-W rise."""
    if n_points < 1:
        raise ValueError("need at least one grid point")
    if n_points == 1:
        return np.array([float(w_min)])
    return np.geomspace(w_min, w_max, n_points)


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
    metadata: dict = field(default_factory=dict)


@dataclass(eq=False)
class TraceResult:
    """Mean branch occupations on a time grid, one series per disorder value."""

    times: np.ndarray
    tau: float
    w_values: tuple[float, ...]
    minus: dict[float, EnsembleStats]
    plus: dict[float, EnsembleStats]
    metadata: dict = field(default_factory=dict)


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
    series: dict[float, list[EnsembleStats]] = {}
    for delta in deltas:
        row = []
        for w in w_grid:
            params = LadderParams(
                n_sites=n_sites,
                disorder_w=float(w),
                detuning_delta=delta,
                allow_large_detuning=True,
            )
            config = EnsembleConfig(
                params=params,
                n_realizations=n_realizations,
                master_seed=master_seed,
                plan=ObservablePlan.concurrence_only(),
            )
            row.append(run_ensemble(config, threads=threads, keep_raw=keep_raw)[LABEL_CONCURRENCE])
        series[delta] = row
    metadata = {
        "driver": "transfer_sweep",
        "n_sites": n_sites,
        "deltas": list(deltas),
        "w_grid": [float(w) for w in w_grid],
        "n_realizations": n_realizations,
        "master_seed": master_seed,
        "coupling_scheme": "pst",
        "initial_state": "bell_minus_cell1",
        "evaluation_time": transfer_time(n_sites),
    }
    return SweepResult(w_values=w_grid, deltas=deltas, series=series, metadata=metadata)


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
    minus: dict[float, EnsembleStats] = {}
    plus: dict[float, EnsembleStats] = {}
    for w in w_values:
        params = LadderParams(
            n_sites=n_sites,
            disorder_w=w,
            detuning_delta=float(delta),
            allow_large_detuning=True,
        )
        config = EnsembleConfig(
            params=params,
            n_realizations=n_realizations,
            master_seed=master_seed,
            plan=ObservablePlan.branch_trace(times),
        )
        result = run_ensemble(config, threads=threads, keep_raw=keep_raw)
        minus[w] = result[LABEL_P_MINUS]
        plus[w] = result[LABEL_P_PLUS]
    metadata = {
        "driver": "leakage_trace",
        "n_sites": n_sites,
        "delta": float(delta),
        "w_values": list(w_values),
        "times": [float(t) for t in times],
        "n_realizations": n_realizations,
        "master_seed": master_seed,
        "coupling_scheme": "pst",
        "initial_state": "bell_minus_cell1",
        "tau": tau,
    }
    return TraceResult(
        times=times, tau=tau, w_values=w_values, minus=minus, plus=plus, metadata=metadata
    )


def ordered_baseline(n_sites: int, exact_revival: bool = False) -> TransferReport:
    """Clean-ladder transfer: W = Delta = 0 with the engineered couplings.

    The antisymmetric branch is then an ordered chain with exact end-to-end
    revival, so C(tau) = 1 up to rounding for even N (odd N needs
    ``exact_revival``).
    """
    zeros = np.zeros(n_sites)
    realization = DisorderRealization(
        eps_leg1=zeros,
        eps_leg2=zeros,
        delta_n=zeros,
        gamma_n=zeros,
        couplings=build_pst_couplings(n_sites),
        seed_tag="ordered",
    )
    system = eigendecompose(build_effective(realization))
    tau = transfer_time(n_sites, exact_revival=exact_revival)
    final = to_physical(evolve(system, bell_minus_state(n_sites), tau))
    amp1, amp2 = final.cell_pair(n_sites)
    return TransferReport(
        concurrence_at_tau=2.0 * abs(amp1) * abs(amp2),
        tau=tau,
        amp_leg1=amp1,
        amp_leg2=amp2,
    )


def oracle_check(
    delta: float,
    gamma: float,
    n_sites: int,
    times=None,
    couplings=None,
) -> float:
    """Max deviation between numeric and closed-form one-leg occupation.

    Builds the constant-detuning ladder directly, evolves |site 1, leg 1>
    under the site-basis Hamiltonian and compares the leg-1 occupation
    against the analytic Rabi formula on the whole grid.
    """
    if times is None:
        times = np.linspace(0.0, 20.0, 201)
    times = np.asarray(times, dtype=np.float64)
    realization = uniform_ladder(n_sites, delta, gamma, couplings=couplings)
    system = eigendecompose(build_physical(realization))
    psi0 = unit_state(n_sites, 1, Leg.ONE, Basis.PHYSICAL)
    trajectory = evolve_series(system, psi0, times)
    numeric = np.array([leg_occupation(s, Leg.ONE) for s in trajectory])
    closed = uniform_leg_occupation(delta, gamma, times)
    if times.size == 0:
        return 0.0
    return float(np.max(np.abs(numeric - closed)))


def welch_greater(sample_hi, sample_lo) -> float:
    """One-sided Welch test p-value for mean(sample_hi) > mean(sample_lo)."""
    from scipy import stats as sps  # imported here: it is most of the CLI's start-up time

    result = sps.ttest_ind(
        np.asarray(sample_hi), np.asarray(sample_lo), equal_var=False, alternative="greater"
    )
    return float(result.pvalue)
