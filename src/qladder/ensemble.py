"""Seeded Monte Carlo over disorder realizations with deterministic reduction.

Each realization index owns an independent random stream derived from the
master seed, so ensembles are reproducible bit-for-bit regardless of worker
count or execution order. A chunk of consecutive realizations is carried
end-to-end as plain stacked arrays (draw or reuse the chunk's unit
uniforms, scale them by W and Delta, build the stack, diagonalize it in
one call, certify it, evolve the entries each readout reads at all
times at once, measure); results are reduced in realization order so
floating-point summation is fixed. The unit uniforms of the last chunks
drawn are kept, so the grid points of a sweep (same seed and ladder length)
derive each stream once between them.

C(tau) is read at one time, and one rule of the parameters alone,
:func:`_chebyshev_chosen`, picks its path: the Chebyshev kernel
(:func:`~qladder.chebyshev.chebyshev_propagate`) on the band of the +/-
basis Hamiltonian where its term count K costs less than the eigen path,
else the eigen path. So a realization's C does not depend on the plan, and
the branch trace always takes the eigen path. The kernel's half-width a
comes from W, Delta and the couplings, so K is the same for every
realization, and the kernel works elementwise over the stack: a
realization's value is bitwise the same in any stack. A concurrence-only
plan that the kernel reads runs as one stack of all its chunks' draws, on
one worker. The stack that holds realization 0 is audited: the eigen path
recomputes realization 0, and its complex last-cell amplitudes must agree
with the kernel's within the sum of the two paths' error bounds.

Every call runs its chunks on one long-lived thread pool, also at one
thread: each of ``min(threads, chunks)`` workers runs one contiguous block
of chunks in order. A worker's heap is not trimmed back to the operating
system between chunks, as the main thread's can be, so the chunk arrays
are not faulted in afresh each time. Calls take turns on the pool, under
one module lock. While more than one worker runs, numpy's bundled OpenBLAS
is held at one thread and its old count is restored afterwards; with
another BLAS nothing is pinned.

Conservation on the eigen path is checked once per stacked eigensystem by
:func:`~qladder.spectral.certify`, for the Bell start state every
realization evolves: its bounds cover the norm and energy drift of that
state at every time. Only a matrix whose bounds the rounding of a large H
puts over tolerance has its evolved states measured, by the same call, at
the readout times. The Chebyshev kernel measures the norm and energy of
every state it evolves against the same tolerances.

A realization gives bitwise the same values in any chunk, so a failure is
traced to its realization by re-running: when a chunk raises, its
realizations run again one at a time, in order, and the first that fails
alone is reported with its seed tag and parameters. A failure that no
realization reproduces alone is reported for the chunk's range.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chebyshev import chebyshev_propagate, chebyshev_terms
from .hamiltonian import _SQRT1_2, Branch, assemble_effective, effective_band, flat_index
from .model import LadderParams, correlated_channel, scale_disorder
from .observables import transfer_time
from .spectral import (
    _openblas,
    certify,
    diagonalize,
    eigen_error_bound,
    propagate,
    squared_norms,
)

__all__ = [
    "ObservablePlan",
    "EnsembleConfig",
    "EnsembleStats",
    "derive_stream",
    "run_ensemble",
    "LABEL_CONCURRENCE",
    "LABEL_P_MINUS",
    "LABEL_P_PLUS",
]

LABEL_CONCURRENCE = "concurrence_at_tau"
LABEL_P_MINUS = "p_minus"
LABEL_P_PLUS = "p_plus"

# Realizations per stacked diagonalization.
# Larger chunks add memory (fig2 at chunk 25: +23 MB peak) but no speed.
_CHUNK = 5

# Chebyshev terms per slot (of D = 2N) that cost as much as the eigen path.
# Break-even K / D measured 15-35 from N = 5 to 60 (stacks of 100, W = 0.2 and 2).
_TERMS_PER_SLOT = 15

# Chunks of unit draws kept between run_ensemble calls: 1,280 realizations,
# 0.6 MB at N = 30. A sweep over more realizations derives its streams per
# grid point, as if nothing were kept.
_KEPT_CHUNKS = 256

# The worker pool all calls share, created on first use and replaced by a
# larger one when a call needs more workers. _LOCK makes calls take turns:
# it guards the pool and the OpenBLAS pin.
# Long-lived: a pool per call took 377-390 minor faults per warm fig1, against 6-14.
_pool: ThreadPoolExecutor | None = None
_pool_size = 0
_LOCK = threading.Lock()


def derive_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent random stream for one realization.

    Stream identity (part of the reproducibility contract): a Philox
    counter-based generator keyed by ``SeedSequence(master_seed,
    spawn_key=(index,))``. Distinct indices give statistically independent
    streams in any order of use.
    """
    if master_seed < 0:
        raise ValueError(f"master_seed must be nonnegative, got {master_seed}")
    if index < 0:
        raise ValueError(f"realization index must be nonnegative, got {index}")
    seq = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(seq))


@lru_cache(maxsize=_KEPT_CHUNKS)
def _chunk_draws(master_seed: int, n_sites: int, start: int, stop: int) -> np.ndarray:
    """Read-only (stop - start, 2N) unit uniforms: row k is the 2N draws that
    :func:`~qladder.model.sample_realization` takes from
    ``derive_stream(master_seed, start + k)``."""
    units = np.empty((stop - start, 2 * n_sites))
    for i, row in enumerate(units, start):
        derive_stream(master_seed, i).random(out=row)
    units.setflags(write=False)
    return units


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
            if not np.all(np.isfinite(times)):
                raise ValueError("trace_times must be finite")
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
    n_realizations: int
    master_seed: int
    plan: ObservablePlan = ObservablePlan()

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be at least 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Mean, standard error and count for one observable (scalar or per-time-point)."""

    mean: np.ndarray
    std_error: np.ndarray
    n: int
    per_realization: np.ndarray | None = None


def _half_width(params: LadderParams) -> float:
    """A bound a on the spectral radius of every +/- basis Hamiltonian drawn
    for ``params``: with eps_1 in [-W, W], delta in [-Delta, Delta] and
    gamma = eps_1, a plus row holds 2 eps_1 + delta/2, gamma_tilde = -delta/2
    and two hoppings, so its Gershgorin radius is at most 2W + Delta + 2 max
    J, and a minus row's is smaller; a relative 2^-40 covers the rounding
    of the entries and of the radius."""
    bound = 2 * params.disorder_w + params.detuning_delta + 2 * float(params.couplings().max())
    return bound * (1 + 2**-40)


def _chebyshev_chosen(params: LadderParams) -> bool:
    """The one switch rule: C(tau) is read by the Chebyshev kernel when its
    term count K is at most ``_TERMS_PER_SLOT`` D, where it costs less than
    the eigen path. K is at least x = a tau, so a larger x needs no K."""
    limit = _TERMS_PER_SLOT * 2 * params.n_sites
    x = _half_width(params) * transfer_time(params.n_sites)
    return x <= limit and chebyshev_terms(x) <= limit


def _end_concurrence(plus, minus) -> np.ndarray:
    """C = 2 |leg 1| |leg 2| of the (+, -) amplitudes of cell N."""
    leg1, leg2 = (plus + minus) * _SQRT1_2, (plus - minus) * _SQRT1_2
    return 2.0 * np.abs(leg1) * np.abs(leg2)


def _chebyshev_concurrence(params: LadderParams, cells, audit: bool) -> np.ndarray:
    """C(tau) of the stack of (R, N) per-cell parameters ``cells`` by the
    judged Chebyshev kernel. With ``audit``, the eigen path recomputes row 0,
    and its complex last-cell amplitudes must agree within the sum of the two
    paths' error bounds, or ArithmeticError is raised."""
    n_sites, tau = params.n_sites, transfer_time(params.n_sites)
    band = effective_band(*cells, params.couplings())
    psi0 = np.zeros(band[0].shape)
    psi0[flat_index(1, Branch.MINUS, n_sites)] = 1.0
    re, im, bound = chebyshev_propagate(band, psi0, tau, _half_width(params))
    plus, minus = re[-2:] + 1j * im[-2:]  # slots (+, -) of cell N
    if audit:
        entries = assemble_effective(*(cell[:1] for cell in cells), params.couplings())
        eigenvalues, eigenvectors = diagonalize(entries)
        certify(entries, eigenvalues, eigenvectors, psi0[:, :1].T, [tau])
        eigen_re, eigen_im = propagate(eigenvalues, eigenvectors, psi0[:, :1].T, [tau],
                                       slice(-2, None))
        deviation = np.max(np.abs(eigen_re[0, :, 0] + 1j * eigen_im[0, :, 0]
                                  - [plus[0], minus[0]]))
        tolerance = bound + eigen_error_bound(entries, eigenvalues, eigenvectors, tau)[0]
        if not deviation <= tolerance:
            raise ArithmeticError(f"audit: Chebyshev amplitudes deviate from the eigen "
                                  f"path's by {deviation:.3e}, over {tolerance:.3e}")
    return _end_concurrence(plus, minus)


def _measure_stack(config: EnsembleConfig, eps_leg1: np.ndarray, delta_n: np.ndarray,
                   audit: bool) -> dict:
    """Observables of the stack of (R, N) draws, each with the stack on axis 0.
    ``audit`` asks the Chebyshev kernel, where it reads C(tau), to audit row 0."""
    params, plan = config.params, config.plan
    n_sites = params.n_sites
    cells = (eps_leg1, *correlated_channel(eps_leg1, delta_n))
    out = {}
    chebyshev = plan.concurrence_at_tau and _chebyshev_chosen(params)
    if chebyshev:
        out[LABEL_CONCURRENCE] = _chebyshev_concurrence(params, cells, audit)
        if plan.trace_times is None:
            return out
    entries = assemble_effective(*cells, params.couplings())
    eigenvalues, eigenvectors = diagonalize(entries)
    # the Bell pair on cell 1 is the unit vector |1,->, so psi0 is real
    psi0 = np.zeros(entries.shape[:2])
    psi0[:, flat_index(1, Branch.MINUS, n_sites)] = 1.0
    eigen_readout = plan.concurrence_at_tau and not chebyshev
    times = [transfer_time(n_sites)] if eigen_readout else []
    if plan.trace_times is not None:
        times = np.concatenate([times, plan.trace_times])
    certify(entries, eigenvalues, eigenvectors, psi0, times)

    if eigen_readout:
        last_cell = slice(-2, None)  # slots (+, -) of cell N
        re, im = propagate(eigenvalues, eigenvectors, psi0, [transfer_time(n_sites)], last_cell)
        out[LABEL_CONCURRENCE] = _end_concurrence(*(re[:, :, 0] + 1j * im[:, :, 0]).T)
    if plan.trace_times is not None:
        minus_slots = slice(int(Branch.MINUS), None, 2)  # the minus slot of every cell
        re, im = propagate(eigenvalues, eigenvectors, psi0, config.plan.trace_times, minus_slots)
        p_minus = squared_norms(re, im)
        out[LABEL_P_MINUS] = p_minus
        out[LABEL_P_PLUS] = 1.0 - p_minus
    return out


def _measure_chunk(config: EnsembleConfig, start: int, stop: int, units: np.ndarray) -> dict:
    """Observables of realizations ``start .. stop - 1``, stacked on axis 0.

    ``units`` holds their unit draws, from :func:`_chunk_draws`. A failure
    is raised as RuntimeError naming the first realization that fails
    alone, with its seed tag and parameters, or else the range.
    """
    seed, params = config.master_seed, config.params
    try:
        eps_leg1, delta_n = scale_disorder(params, units)
        for name, values in (("eps_leg1", eps_leg1), ("delta_n", delta_n)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} contains non-finite values")
        return _measure_stack(config, eps_leg1, delta_n, audit=start == 0)
    except Exception as exc:
        where = f"W={params.disorder_w}, delta={params.detuning_delta}, N={params.n_sites}"
        if stop - start == 1:
            raise RuntimeError(
                f"realization {start} (seed tag {seed}:{start}, {where}) failed: {exc}"
            ) from exc
        for i, row in enumerate(units, start):  # raises if realization i fails alone
            _measure_chunk(config, i, i + 1, row[None])
        raise RuntimeError(
            f"realizations {start}-{stop - 1} (seed {seed}, {where}) failed: {exc}"
        ) from exc


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


def _run_blocks(run_block, blocks: list) -> list:
    """Run one task per block on the shared pool, grown to ``len(blocks)``
    workers, and return their futures once all are done. One call at a
    time: while more than one worker runs, numpy's OpenBLAS is held at one
    thread and the count found is restored."""
    global _pool, _pool_size
    with _LOCK:
        if _pool_size < len(blocks):
            if _pool is not None:
                _pool.shutdown()  # idle: no other call is in flight
            _pool = ThreadPoolExecutor(len(blocks), thread_name_prefix="qladder-ensemble")
            _pool_size = len(blocks)
        # one worker keeps OpenBLAS's threads: pinned, fig1 --threads 1 took 4.64 s, not 4.06 s
        lib = _openblas() if len(blocks) > 1 else None
        if lib is not None:
            found = lib.scipy_openblas_get_num_threads64_()
            lib.scipy_openblas_set_num_threads64_(1)
        try:
            futures = [_pool.submit(run_block, block) for block in blocks]
            wait(futures)
        finally:
            if lib is not None:
                lib.scipy_openblas_set_num_threads64_(found)
    return futures


def _forget_pool():
    """In a forked child, which has none of the parent's worker threads, start afresh."""
    global _pool, _pool_size, _LOCK
    _pool, _pool_size = None, 0
    _LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def run_ensemble(
    config: EnsembleConfig, threads: int = 1, keep_raw: bool = False
) -> dict[str, EnsembleStats]:
    """Sample, evolve and measure ``n_realizations`` ladders; aggregate statistics.

    Returns a map from observable label to :class:`EnsembleStats`; the
    concurrence entry is scalar, the branch-trace entries are per-time-point.
    The result is bitwise identical for a fixed config regardless of
    ``threads``. Per-realization raw values are retained when
    ``keep_raw=True``. The chunks run on ``min(threads, chunks)`` workers
    of a shared pool, each taking one contiguous block in order, so the
    first failure in realization order is the one raised; a
    concurrence-only plan that the Chebyshev kernel reads runs as one stack
    on one worker. Calls from several threads take turns.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    n = config.n_realizations
    chunks = [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]

    seed, n_sites = config.master_seed, config.params.n_sites
    # a concurrence-only plan that the kernel reads runs as one stack on one
    # worker: the kernel's cost per numpy operation is spread over the whole
    # ensemble, and its small operations hold the GIL between them, so on two
    # workers the default fig1 took 2.6-3.1 s, where one took 0.9 s
    one_stack = config.plan.trace_times is None and _chebyshev_chosen(config.params)

    def run_block(block):
        if one_stack:
            units = np.concatenate([_chunk_draws(seed, n_sites, *chunk) for chunk in block])
            return [_measure_chunk(config, 0, n, units)]
        # drawn as each chunk runs: all drawn first, a warm fig2 took 1,400-3,900 faults, not <1,000
        return [_measure_chunk(config, *chunk, _chunk_draws(seed, n_sites, *chunk))
                for chunk in block]

    # a worker beyond the chunk count has no work
    workers = 1 if one_stack else min(threads, len(chunks))
    blocks = [chunks[k * len(chunks) // workers:(k + 1) * len(chunks) // workers]
              for k in range(workers)]
    parts = [part for future in _run_blocks(run_block, blocks) for part in future.result()]
    return {
        label: _reduce(np.concatenate([part[label] for part in parts]), keep_raw)
        for label in parts[0]
    }
