"""Pre-packaged drivers: disorder sweep of the end-cell concurrence, branch
leakage traces, the ordered baseline, and the closed-form dimer validation."""

from __future__ import annotations

import math

import numpy as np

from .dimer_oracle import uniform_leg_occupation
from .ensemble import EnsembleConfig, EnsembleStats, run_ensemble
from .hamiltonian import Basis, Leg, bell_minus_state, build_effective, build_physical, unit_state
from .model import LadderParams, uniform_ladder
from .observables import TransferReport, concurrence, leg_occupation, transfer_time
from .spectral import eigendecompose, evolve, evolve_series

__all__ = [
    "default_w_grid",
    "default_trace_grid",
    "transfer_sweep",
    "leakage_trace",
    "ordered_baseline",
    "oracle_check",
    "welch_greater",
]

def default_w_grid(w_min: float, w_max: float, w_points: int) -> np.ndarray:
    """Log-spaced disorder grid; log spacing resolves the low-W rise."""
    if w_points < 1:
        raise ValueError(f"w_points must be at least 1, got {w_points}")
    for name, value in (("w_min", w_min), ("w_max", w_max)):
        if value <= 0 or 2 * value == math.inf:  # a NaN is left to LadderParams' disorder_w check
            raise ValueError(f"{name} must be positive with 2*{name} finite, got {value}")
    if w_points == 1:
        return np.array([float(w_min)])
    if w_min == w_max:
        raise ValueError(f"w_min and w_max must differ for w_points > 1, both are {w_min}")
    return np.geomspace(w_min, w_max, w_points)


def default_trace_grid(n_sites: int, span_in_tau: float, n_points: int) -> np.ndarray:
    """Uniform time grid over [0, span_in_tau * tau]."""
    return np.linspace(0.0, span_in_tau * transfer_time(n_sites), n_points)


def _distinct(key: str, values) -> None:
    """Refuse a grid that would run a value twice and write its rows twice."""
    seen = set()
    for value in values:
        if value in seen:
            raise ValueError(f"{key} values must be distinct, got {value} twice")
        seen.add(value)


def _run_grid(points, trace_times, n_sites, n_realizations, master_seed, threads, keep_raw) -> list:
    """One :func:`run_ensemble` call for the ``(W, delta)`` points, one
    :class:`EnsembleStats` per point, in order: of C(tau), or with
    ``trace_times`` of p_- on that grid.

    Every point's :class:`EnsembleConfig` is built first, which runs every
    parameter check, so a bad value at a later point fails before any
    ensemble runs.
    """
    configs = [
        EnsembleConfig(
            params=LadderParams(n_sites=n_sites, disorder_w=w, detuning_delta=delta),
            n_realizations=n_realizations,
            master_seed=master_seed,
            trace_times=trace_times,
        )
        for w, delta in points
    ]
    return run_ensemble(configs, threads=threads, keep_raw=keep_raw)


def transfer_sweep(
    n_sites: int,
    deltas,
    w_grid,
    n_realizations: int,
    master_seed: int,
    threads: int = 1,
    keep_raw: bool = False,
) -> dict[float, list[EnsembleStats]]:
    """Disorder-averaged C(tau) against W for several detuning amplitudes:
    one :class:`EnsembleStats` list per detuning, in input order, each in
    ``w_grid`` order.

    The initial state is the dual-rail Bell state on cell 1, evolved under
    the +/- basis Hamiltonian with the engineered coupling profile and read
    out at tau = pi*N/4. All grid points share realization streams (same
    master seed and indices), which suppresses seed noise in cross-point
    comparisons.
    """
    w_grid = np.asarray(w_grid, dtype=np.float64)
    deltas = tuple(float(d) for d in deltas)
    _distinct("delta", deltas)
    _distinct("w", w_grid.tolist())
    points = [(float(w), delta) for delta in deltas for w in w_grid]
    results = iter(_run_grid(points, None, n_sites, n_realizations, master_seed, threads, keep_raw))
    return {delta: [next(results) for _ in w_grid] for delta in deltas}


def leakage_trace(
    n_sites: int,
    delta: float,
    w_values,
    times,
    n_realizations: int,
    master_seed: int,
    threads: int = 1,
    keep_raw: bool = False,
) -> dict[float, EnsembleStats]:
    """Disorder-averaged occupation p_- of the minus branch on ``times``, one
    :class:`EnsembleStats` per W, in input order; the plus branch holds the
    rest, p_+ = 1 - p_-."""
    w_values = tuple(float(w) for w in w_values)
    _distinct("w", w_values)
    points = [(w, float(delta)) for w in w_values]
    results = _run_grid(points, times, n_sites, n_realizations, master_seed, threads, keep_raw)
    return dict(zip(w_values, results))


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


def oracle_check(delta: float, gamma: float, n_sites: int, times) -> float:
    """Max deviation between numeric and closed-form one-leg occupation.

    Builds the constant-detuning ladder directly, evolves |site 1, leg 1>
    under the site-basis Hamiltonian and compares the leg-1 occupation
    against the analytic Rabi formula on the whole grid, which must hold at
    least one time. An ArithmeticError of the evolution is raised again
    with the dimer's parameters.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.size == 0:
        raise ValueError("oracle_check needs at least one time")
    realization = uniform_ladder(n_sites, delta, gamma)
    psi0 = unit_state(n_sites, 1, Leg.ONE, Basis.PHYSICAL)
    try:
        trajectory = evolve_series(eigendecompose(build_physical(realization)), psi0, times)
    except ArithmeticError as exc:
        where = f"delta={delta}, gamma={gamma}, N={n_sites}"
        raise ArithmeticError(f"dimer oracle at {where}: {exc}") from exc
    numeric = np.array([leg_occupation(s, Leg.ONE) for s in trajectory])
    closed = uniform_leg_occupation(delta, gamma, times)
    return float(np.max(np.abs(numeric - closed)))


def welch_greater(sample_hi, sample_lo) -> float:
    """One-sided Welch test p-value for mean(sample_hi) > mean(sample_lo)."""
    from scipy import stats as sps  # imported here: only the tests' Welch helper needs it

    result = sps.ttest_ind(
        np.asarray(sample_hi), np.asarray(sample_lo), equal_var=False, alternative="greater"
    )
    return float(result.pvalue)
