"""Seeded Monte Carlo over disorder realizations with deterministic reduction.

Each realization index owns an independent random stream derived from the
master seed, so ensembles are reproducible bit-for-bit regardless of worker
count or execution order. Workers carry a chunk of consecutive realizations
end-to-end as plain stacked arrays (draw each into the chunk's arrays, build
the stack, one batched diagonalization, evolve all times at once, measure,
check conservation);
results are reduced in realization order so floating-point summation is
fixed.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .hamiltonian import (
    _SQRT1_2,
    Branch,
    GuardError,
    assemble_effective,
    flat_index,
    raise_first_failure,
)
from .model import LadderParams, correlated_channel, draw_disorder
from .observables import transfer_time
from .spectral import diagonalize, propagate, squared_norms

__all__ = [
    "DEFAULT_MASTER_SEED",
    "ObservablePlan",
    "EnsembleConfig",
    "EnsembleStats",
    "derive_stream",
    "run_ensemble",
    "LABEL_CONCURRENCE",
    "LABEL_P_MINUS",
    "LABEL_P_PLUS",
]

DEFAULT_MASTER_SEED = 42

LABEL_CONCURRENCE = "concurrence_at_tau"
LABEL_P_MINUS = "p_minus"
LABEL_P_PLUS = "p_plus"

# conservation tolerances along every evolved trajectory; fixed, not configurable
_ENERGY_DRIFT_TOL = 1e-9

# Realizations per stacked diagonalization and per task of the worker pool.
# Larger chunks add memory (fig2 at chunk 25: +23 MB peak) but no speed.
_CHUNK = 5


def derive_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent random stream for one realization.

    Stream identity (part of the reproducibility contract): a Philox
    counter-based generator keyed by ``SeedSequence(master_seed,
    spawn_key=(index,))``. Distinct indices give statistically independent
    streams in any order of use.
    """
    if index < 0:
        raise ValueError(f"realization index must be nonnegative, got {index}")
    seq = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True, eq=False)
class ObservablePlan:
    """What to record per realization: C(tau), a branch-occupation trace, or both."""

    concurrence_at_tau: bool = True
    trace_times: np.ndarray | None = None

    def __post_init__(self):
        if self.trace_times is not None:
            times = np.asarray(self.trace_times, dtype=np.float64)
            if times.ndim != 1:
                raise ValueError("trace_times must be a 1-d sequence")
            if times.size and (np.any(np.diff(times) < 0) or times[0] < 0):
                raise ValueError("trace_times must be ascending and nonnegative")
            times.setflags(write=False)
            object.__setattr__(self, "trace_times", times)
        elif not self.concurrence_at_tau:
            raise ValueError("plan records nothing")

    @classmethod
    def concurrence_only(cls) -> "ObservablePlan":
        return cls(concurrence_at_tau=True, trace_times=None)

    @classmethod
    def branch_trace(cls, times) -> "ObservablePlan":
        return cls(concurrence_at_tau=False, trace_times=times)

    @classmethod
    def both(cls, times) -> "ObservablePlan":
        return cls(concurrence_at_tau=True, trace_times=times)


@dataclass(frozen=True, eq=False)
class EnsembleConfig:
    """Physics and sampling definition of one ensemble run."""

    params: LadderParams
    n_realizations: int = 100
    master_seed: int = DEFAULT_MASTER_SEED
    plan: ObservablePlan = ObservablePlan()

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be at least 1")


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Mean, standard error and count for one observable (scalar or per-time-point)."""

    mean: np.ndarray
    std_error: np.ndarray
    n: int
    per_realization: np.ndarray | None = None


def _measure_stack(config: EnsembleConfig, eps_leg1: np.ndarray, delta_n: np.ndarray) -> dict:
    """Observables of the stack of (R, N) draws, each with the stack on axis 0."""
    n_sites = config.params.n_sites
    entries = assemble_effective(
        eps_leg1, *correlated_channel(eps_leg1, delta_n), config.params.couplings()
    )
    eigenvalues, eigenvectors = diagonalize(entries)
    # the Bell pair on cell 1 is the unit vector |1,->, so psi0 is real
    start = flat_index(1, Branch.MINUS, n_sites)
    psi0 = np.zeros(entries.shape[:2])
    psi0[:, start] = 1.0
    energy0 = entries[:, start, start]

    def evolve_checked(times):
        re, im = propagate(eigenvalues, eigenvectors, psi0, times)
        energy = np.einsum("rdt,rdt->rt", re, entries @ re)
        energy += np.einsum("rdt,rdt->rt", im, entries @ im)
        drift = np.abs(energy - energy0[:, None])
        raise_first_failure(
            ~(drift <= _ENERGY_DRIFT_TOL),  # NaN fails too
            lambda r: f"energy drift {drift[r].max():.3e} exceeds {_ENERGY_DRIFT_TOL}",
        )
        return re, im

    out = {}
    if config.plan.concurrence_at_tau:
        re, im = evolve_checked([transfer_time(n_sites)])
        plus, minus = (re[:, -2:, 0] + 1j * im[:, -2:, 0]).T  # last cell, slots (+, -)
        leg1, leg2 = (plus + minus) * _SQRT1_2, (plus - minus) * _SQRT1_2
        out[LABEL_CONCURRENCE] = 2.0 * np.abs(leg1) * np.abs(leg2)
    if config.plan.trace_times is not None:
        re, im = evolve_checked(config.plan.trace_times)
        rows = slice(int(Branch.MINUS), None, 2)  # the minus slot of every cell
        p_minus = squared_norms(re[:, rows], im[:, rows])
        out[LABEL_P_MINUS] = p_minus
        out[LABEL_P_PLUS] = 1.0 - p_minus
    return out


def _measure_chunk(config: EnsembleConfig, start: int, stop: int) -> dict:
    """Observables of realizations ``start .. stop - 1``, stacked on axis 0.

    Each realization's draw goes straight into the chunk's preallocated
    arrays. A failure is raised as RuntimeError naming the first failing
    realization with its seed tag and parameters.
    """
    seed, params = config.master_seed, config.params
    where = f"W={params.disorder_w}, delta={params.detuning_delta}, N={params.n_sites}"
    eps_leg1 = np.empty((stop - start, params.n_sites))
    delta_n = np.empty_like(eps_leg1)
    drawn, failed = stop - start, None
    for row in range(drawn):
        try:
            eps_leg1[row], delta_n[row] = draw_disorder(params, derive_stream(seed, start + row))
        except Exception as exc:
            drawn, failed = row, (start + row, exc)
            break
    for name, values in (("eps_leg1", eps_leg1), ("delta_n", delta_n)):
        bad = np.flatnonzero(~np.isfinite(values[:drawn]).all(axis=1))
        if bad.size:
            drawn = int(bad[0])
            failed = (start + drawn, ValueError(f"{name} contains non-finite values"))
    out = {}
    if drawn:  # evolve those drawn before a failure: one may fail a guard first
        try:
            out = _measure_stack(config, eps_leg1[:drawn], delta_n[:drawn])
        except GuardError as exc:
            failed = (start + exc.row, exc)
        except Exception as exc:  # not attributable to one member of the stack
            raise RuntimeError(
                f"realizations {start}-{stop - 1} (seed {seed}, {where}) failed: {exc}"
            ) from exc
    if failed is not None:
        i, exc = failed
        raise RuntimeError(
            f"realization {i} (seed tag {seed}:{i}, {where}) failed: {exc}"
        ) from exc
    return out


def _reduce(values: np.ndarray, keep_raw: bool) -> EnsembleStats:
    n = values.shape[0]
    mean = values.mean(axis=0)
    if n > 1:
        std_error = values.std(axis=0, ddof=1) / np.sqrt(n)
    else:
        std_error = np.zeros_like(mean)
    return EnsembleStats(
        mean=mean,
        std_error=std_error,
        n=n,
        per_realization=values if keep_raw else None,
    )


def run_ensemble(
    config: EnsembleConfig, threads: int = 1, keep_raw: bool = False
) -> dict[str, EnsembleStats]:
    """Sample, evolve and measure ``n_realizations`` ladders; aggregate statistics.

    Returns a map from observable label to :class:`EnsembleStats`; the
    concurrence entry is scalar, the branch-trace entries are per-time-point.
    The result is bitwise identical for a fixed config regardless of
    ``threads``. Per-realization raw values are retained when
    ``keep_raw=True``.
    """
    n = config.n_realizations
    chunks = [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]
    workers = min(threads, len(chunks))  # a worker beyond the chunk count has no work
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda chunk: _measure_chunk(config, *chunk), chunks))
    else:
        parts = [_measure_chunk(config, *chunk) for chunk in chunks]
    return {
        label: _reduce(np.concatenate([part[label] for part in parts]), keep_raw)
        for label in parts[0]
    }
