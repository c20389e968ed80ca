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

Every call runs its chunks on one long-lived thread pool, also at one
thread: each of ``min(threads, chunks)`` workers runs one contiguous block
of chunks in order. A worker's heap is not trimmed back to the operating
system between chunks, as the main thread's can be, so the chunk arrays
are not faulted in afresh each time. While more than one worker runs,
numpy's bundled OpenBLAS is held at one thread (one caller at a time) and
its old count is restored afterwards; with another BLAS nothing is pinned.

Conservation is checked once per stacked eigensystem by
:func:`~qladder.spectral.certify`, for the Bell start state every
realization evolves: its bounds cover the norm and energy drift of that
state at every time. Only a matrix whose bounds the rounding of a large H
puts over tolerance has its evolved states measured, by the same call, at
the readout times.

A realization gives bitwise the same values in any chunk, so a failure is
traced to its realization by re-running: when a chunk raises, its
realizations run again one at a time, in order, and the first that fails
alone is reported with its seed tag and parameters. A failure that no
realization reproduces alone is reported for the chunk's range.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hamiltonian import _SQRT1_2, Branch, assemble_effective, flat_index
from .model import LadderParams, correlated_channel, scale_disorder
from .observables import transfer_time
from .spectral import _openblas, certify, diagonalize, propagate, squared_norms

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

# Chunks of unit draws kept between run_ensemble calls: 1,280 realizations,
# 0.6 MB at N = 30. A sweep over more realizations derives its streams per
# grid point, as if nothing were kept.
_KEPT_CHUNKS = 256

# The worker pool all calls share, created on first use and replaced by a
# larger one when a call needs more workers; _POOL_LOCK guards the swap and
# the submissions to it. _BLAS_LOCK admits one caller at a time to the
# region where OpenBLAS is pinned, so each restores the count it found.
_pool: ThreadPoolExecutor | None = None
_pool_size = 0
_POOL_LOCK = threading.Lock()
_BLAS_LOCK = threading.Lock()


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


def _measure_stack(config: EnsembleConfig, eps_leg1: np.ndarray, delta_n: np.ndarray) -> dict:
    """Observables of the stack of (R, N) draws, each with the stack on axis 0."""
    n_sites = config.params.n_sites
    entries = assemble_effective(
        eps_leg1, *correlated_channel(eps_leg1, delta_n), config.params.couplings()
    )
    eigenvalues, eigenvectors = diagonalize(entries)
    # the Bell pair on cell 1 is the unit vector |1,->, so psi0 is real
    psi0 = np.zeros(entries.shape[:2])
    psi0[:, flat_index(1, Branch.MINUS, n_sites)] = 1.0
    times = [transfer_time(n_sites)] if config.plan.concurrence_at_tau else []
    if config.plan.trace_times is not None:
        times = np.concatenate([times, config.plan.trace_times])
    certify(entries, eigenvalues, eigenvectors, psi0, times)

    out = {}
    if config.plan.concurrence_at_tau:
        last_cell = slice(-2, None)  # slots (+, -) of cell N
        re, im = propagate(eigenvalues, eigenvectors, psi0, [transfer_time(n_sites)], last_cell)
        plus, minus = (re[:, :, 0] + 1j * im[:, :, 0]).T
        leg1, leg2 = (plus + minus) * _SQRT1_2, (plus - minus) * _SQRT1_2
        out[LABEL_CONCURRENCE] = 2.0 * np.abs(leg1) * np.abs(leg2)
    if config.plan.trace_times is not None:
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
        return _measure_stack(config, eps_leg1, delta_n)
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


@lru_cache(maxsize=1)
def _openblas_threads():
    """``(get, set)`` thread-count functions of the OpenBLAS numpy bundles, or None."""
    lib = _openblas()  # the library the eigensolver calls
    if lib is None:
        return None
    try:
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextmanager
def _one_blas_thread(workers: int):
    """Hold OpenBLAS at one thread while ``workers`` > 1 run, then restore its count."""
    blas = _openblas_threads() if workers > 1 else None
    if blas is None:
        yield
        return
    get, set_ = blas
    with _BLAS_LOCK:
        found = get()
        set_(1)
        try:
            yield
        finally:
            set_(found)


def _submit(run_block, blocks: list) -> list:
    """Submit one task per block to the shared pool, growing it to ``len(blocks)``."""
    global _pool, _pool_size
    with _POOL_LOCK:
        if _pool_size < len(blocks):
            if _pool is not None:
                _pool.shutdown(wait=False)  # its queued tasks still run
            _pool = ThreadPoolExecutor(len(blocks), thread_name_prefix="qladder-ensemble")
            _pool_size = len(blocks)
        return [_pool.submit(run_block, block) for block in blocks]


def _forget_pool():
    """In a forked child, which has none of the parent's worker threads, start afresh."""
    global _pool, _pool_size, _POOL_LOCK, _BLAS_LOCK
    _pool, _pool_size = None, 0
    _POOL_LOCK, _BLAS_LOCK = threading.Lock(), threading.Lock()


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
    first failure in realization order is the one raised.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    n = config.n_realizations
    chunks = [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]

    def run_block(block):
        seed, n_sites = config.master_seed, config.params.n_sites
        return [_measure_chunk(config, *chunk, _chunk_draws(seed, n_sites, *chunk))
                for chunk in block]

    workers = min(threads, len(chunks))  # a worker beyond the chunk count has no work
    blocks = [chunks[k * len(chunks) // workers:(k + 1) * len(chunks) // workers]
              for k in range(workers)]
    with _one_blas_thread(workers):
        futures = _submit(run_block, blocks)
        wait(futures)  # every worker is done before the BLAS count is restored
    parts = [part for future in futures for part in future.result()]
    return {
        label: _reduce(np.concatenate([part[label] for part in parts]), keep_raw)
        for label in parts[0]
    }
