"""Seeded Monte Carlo over disorder realizations with deterministic reduction.

Each realization index owns an independent random stream derived from the
master seed, so ensembles are reproducible bit-for-bit regardless of worker
count or execution order. A call runs one :class:`EnsembleConfig`: one
ladder length, master seed, realization count and readout over a grid of
(W, Delta) points. It derives its unit uniforms once, before its workers
start, as one read-only array, so the grid points scale the same draws,
and nothing is kept between calls.
A chunk of consecutive realizations is carried end-to-end as plain stacked
arrays (scale its rows of those uniforms by W and Delta, build the stack's
band, diagonalize it in one call, certify it, evolve the entries each
readout reads at all times at once, measure); results are reduced in
realization order so floating-point summation is fixed.

Each call has one readout, chosen once by :func:`run_ensemble`: with
``trace_times`` the minus-branch occupation p_- on that grid (the plus
branch holds the rest, p_+ = 1 - p_-, so it is not recorded), by the eigen
path; else C(tau), at one time, by the path one rule of the parameters
alone, :func:`_chebyshev_chosen`, picks: the Chebyshev kernel
(:func:`~qladder.chebyshev.chebyshev_propagate`) on the band of the +/-
basis Hamiltonian where its term count K costs less than the eigen path,
else the eigen path. The kernel's half-width a comes from W, Delta and the
couplings, so K is the same for every realization of a grid point. The
switch rule computes a point's a and series (K, Bessel coefficients, tail
bound, error bound) once, and the kernel takes them with the point's column
count; it works elementwise over the stack, each column at its own point's
a, so a realization's value is bitwise the same in any stack. The grid
points of one call that the kernel reads share its stacks: ordered by K,
they are cut and packed into stacks of at most 400 columns (``_STACK``),
which run on one worker; the same cutter cuts each eigen-path point into
its chunks. One builder gives both paths a stack's band and the Bell start
its realizations share. The one eigen-path readout hands that band to
:func:`~qladder.spectral.diagonalize` as is, certifies the eigensystems
for that start, and measures the entries it propagates while the stack is
held. Realization 0 of each grid point is audited: the eigen path
recomputes those of a stack in one call, and each one's complex last-cell
amplitudes must agree with the kernel's within the sum of the two paths'
error bounds for its own grid point.

Each call runs on a thread pool of its own, also at one thread, and closes
it before it returns: the kernel's stacks on one worker, then each other
grid point's chunks on ``min(threads, chunks)`` workers, each running
one contiguous block in order. A worker's heap is not trimmed back to the
operating system between chunks, as the main thread's can be, so the chunk
arrays are not faulted in afresh each time. Calls take turns, under one
module lock. Every call pins numpy's bundled OpenBLAS to one thread, for
every thread of the process, until it returns or raises, and then restores
the old count; with another BLAS nothing is pinned.

Conservation on the eigen path is checked once per stacked eigensystem by
:func:`~qladder.spectral.certify`, for the Bell start state every
realization evolves: its bounds cover the norm and energy drift of that
state at every time. Only a matrix whose bounds the rounding of a large H
puts over tolerance has its evolved states measured, by the same call, at
the readout times. The Chebyshev kernel measures the norm and energy of
every state it evolves against the same tolerances.

A realization gives bitwise the same values in any chunk or stack, so a
failure is traced to its realization by re-running: when a chunk or stack
raises, every realization of each of its grid points' parts runs again
alone, in order, and the first that fails alone is reported with its seed
tag and its own grid point's parameters. A failure that no realization
reproduces alone is reported for the range of each part.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .chebyshev import _chebyshev_series, chebyshev_propagate
from .hamiltonian import _SQRT1_2, Branch, _dense, effective_band, flat_index
from .model import LadderParams, correlated_channel, scale_disorder
from .observables import transfer_time
from .spectral import _openblas, certify, diagonalize, eigen_error_bound, propagate, squared_norms

__all__ = [
    "EnsembleConfig",
    "EnsembleStats",
    "derive_stream",
    "run_ensemble",
]

# Realizations per stacked diagonalization.
# Larger chunks add memory (fig2 at chunk 25: +23 MB peak) but no speed.
_CHUNK = 5

# Columns per Chebyshev stack, shared by the kernel's grid points, a multiple of 8:
# at W = 10, N = 30 the kernel took 183-195 us per realization at 400, 208-259 at
# 100, 238-260 at 1,000.
_STACK = 400

# Chebyshev terms per slot (of D = 2N) that cost as much as the eigen path.
# Break-even K / D measured 15-35 from N = 5 to 60 (stacks of 100, W = 0.2 and 2).
_TERMS_PER_SLOT = 15

# Calls take turns under _LOCK, which guards the OpenBLAS pin.
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


def _unit_uniforms(master_seed: int, n_sites: int, n: int) -> np.ndarray:
    """Read-only (n, 2N) unit uniforms: row i is the 2N draws that
    :func:`~qladder.model.sample_realization` takes from
    ``derive_stream(master_seed, i)``."""
    units = np.empty((n, 2 * n_sites))
    for i, row in enumerate(units):
        derive_stream(master_seed, i).random(out=row)
    units.setflags(write=False)
    return units


@dataclass(frozen=True, eq=False)
class EnsembleConfig:
    """One ensemble family: ``n_realizations`` ladders of ``n_sites`` cells
    from ``master_seed`` at each (W, Delta) of ``grid``, which is kept as one
    checked :class:`~qladder.model.LadderParams` per point. It records C(tau),
    or with ``trace_times`` the minus-branch occupation at those times."""

    n_sites: int
    grid: tuple
    n_realizations: int
    master_seed: int
    trace_times: np.ndarray | None = None

    def __post_init__(self):
        grid = tuple(LadderParams(n_sites=self.n_sites, disorder_w=w, detuning_delta=delta)
                     for w, delta in self.grid)
        if not grid:
            raise ValueError("grid must hold at least one (W, delta) point")
        object.__setattr__(self, "grid", grid)
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be at least 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")
        if self.trace_times is not None:
            times = np.array(self.trace_times, dtype=np.float64)  # copied: the caller's stays writable
            if times.ndim != 1:
                raise ValueError("trace_times must be a 1-d sequence")
            if not np.all(np.isfinite(times)):
                raise ValueError("trace_times must be finite")
            if times.size and (np.any(np.diff(times) <= 0) or times[0] < 0):
                raise ValueError("trace_times must be strictly ascending and nonnegative")
            times.setflags(write=False)
            object.__setattr__(self, "trace_times", times)


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Mean and standard error of one observable (scalar or per-time-point)."""

    mean: np.ndarray
    std_error: np.ndarray
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


def _chebyshev_chosen(params: LadderParams) -> tuple | None:
    """The one switch rule: C(tau) is read by the Chebyshev kernel when its
    term count K is at most ``_TERMS_PER_SLOT`` D, where it costs less than
    the eigen path. K is at least x = a tau, so a larger x needs no K.
    Returns the kernel's grid point (a, series of x: K, coefficients, tail
    bound) where it is chosen, else None."""
    limit = _TERMS_PER_SLOT * 2 * params.n_sites
    a = _half_width(params)
    x = a * transfer_time(params.n_sites)
    if not x <= limit:
        return None
    series = _chebyshev_series(x)
    return (a, series) if series[0] <= limit else None


class _Segment(NamedTuple):
    """Realizations ``start .. stop - 1`` of grid point ``point``, whose
    parameters are ``params``; ``kernel`` is its (a, series) where the Chebyshev
    kernel reads it, and row i of ``units`` is realization i's unit draws."""

    point: int
    params: LadderParams
    kernel: tuple | None
    units: np.ndarray
    start: int
    stop: int


def _offsets(segments) -> list[int]:
    """Where each segment's rows start in their stack, and the stack's end."""
    offsets = [0]
    for segment in segments:
        offsets.append(offsets[-1] + segment.stop - segment.start)
    return offsets


def _end_concurrence(plus, minus) -> np.ndarray:
    """C = 2 |leg 1| |leg 2| of the (+, -) amplitudes of cell N."""
    leg1, leg2 = (plus + minus) * _SQRT1_2, (plus - minus) * _SQRT1_2
    return 2.0 * np.abs(leg1) * np.abs(leg2)


def _cells(segments) -> tuple:
    """The (R, N) per-cell parameters (eps_leg1, eps_leg2, gamma_n) of the
    realizations of ``segments``, stacked in order, each segment's draws
    scaled by its own W and Delta."""
    scaled = [scale_disorder(segment.params, segment.units[segment.start:segment.stop])
              for segment in segments]
    eps_leg1, delta_n = scaled[0] if len(scaled) == 1 else map(np.concatenate, zip(*scaled))
    for name, values in (("eps_leg1", eps_leg1), ("delta_n", delta_n)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} contains non-finite values")
    return (eps_leg1, *correlated_channel(eps_leg1, delta_n))


# A readout measures the realizations of its segments, stacked on axis 0 in
# order; it builds their band itself, so their arrays go as soon as it is done with them.

def _band_and_start(segments) -> tuple:
    """The +/- band of the stack of ``segments``, realizations last, and the Bell
    pair on cell 1, the unit vector |1,->, as one real (D, 1) column for all."""
    params = segments[0].params  # one N per call: the couplings of all
    band = effective_band(*_cells(segments), params.couplings())
    psi0 = np.zeros((2 * params.n_sites, 1))  # a (D, R) copy is 0.19 MB at 400 columns
    psi0[flat_index(1, Branch.MINUS, params.n_sites)] = 1.0
    return band, psi0


def _eigen_readout(band, psi0, times, rows, measure):
    """``measure(re, im)`` of the stack of ``band`` evolved from the (D, 1)
    start ``psi0`` by the eigen path, and certify's e, r and max |L|: the
    band is checked finite and diagonalized, its dense matrices are
    certified for the start at ``times``, and ``re`` and ``im`` are the (R,
    K, T) parts of its entries ``rows`` at ``times``.
    ``measure`` runs while the stack's arrays are held: with them freed
    first, a warm fig2 took ~6,000 minor faults, not ~20."""
    if not all(np.all(np.isfinite(diagonal)) for diagonal in band):
        raise ValueError("entries contain non-finite values")
    eigenvalues, eigenvectors = diagonalize(band)
    entries = _dense(band)  # certify's products stay dense: a banded H V took 52 us a chunk, not 20
    starts = np.broadcast_to(psi0.T, entries.shape[:2])  # the (R, D) view of one start
    _, *errors = certify(entries, eigenvalues, eigenvectors, starts, times)
    return measure(*propagate(eigenvalues, eigenvectors, starts, times, rows)), errors


def _ends(re, im) -> np.ndarray:
    """The (2, R) (+, -) amplitudes of cell N at the one readout time."""
    return (re[:, :, 0] + 1j * im[:, :, 0]).T


def _eigen_concurrence(segments) -> np.ndarray:
    """C(tau) of the one segment ``segments`` by the eigen path."""
    tau = transfer_time(segments[0].params.n_sites)
    ends, _ = _eigen_readout(*_band_and_start(segments), [tau], slice(-2, None), _ends)
    return _end_concurrence(*ends)


def _chebyshev_concurrence(segments) -> np.ndarray:
    """C(tau) of ``segments`` by the judged Chebyshev kernel, each
    segment's columns at its own grid point's half-width. The segments that
    start at realization 0 audit it, all in one eigen-path call: each
    realization 0's complex last-cell amplitudes must agree with the eigen
    path's within the sum of the two paths' error bounds for its own grid
    point, the kernel's from its series, or ArithmeticError is raised."""
    tau = transfer_time(segments[0].params.n_sites)  # one N per call
    re, im = chebyshev_propagate(*_band_and_start(segments), [segment.kernel for segment in segments],
                                 [segment.stop - segment.start for segment in segments])
    ends = re[-2:] + 1j * im[-2:]  # slots (+, -) of cell N
    audited = [segment._replace(stop=1) for segment in segments if segment.start == 0]
    if audited:
        eigen, errors = _eigen_readout(*_band_and_start(audited), [tau], slice(-2, None), _ends)
        rows = [row for row, segment in zip(_offsets(segments), segments) if segment.start == 0]
        deviation = np.max(np.abs(eigen - ends[:, rows]), axis=0)
        tolerance = eigen_error_bound(*errors, len(re), tau) + [s.kernel[1][-1] for s in audited]
        if not np.all(deviation <= tolerance):
            bad = np.flatnonzero(~(deviation <= tolerance))[0]
            raise ArithmeticError(f"audit: Chebyshev amplitudes deviate from the eigen path's "
                                  f"by {deviation[bad]:.3e}, over {tolerance[bad]:.3e}")
    return _end_concurrence(*ends)


def _branch_trace(times, segments) -> np.ndarray:
    """The (R, T) p_- of the one segment ``segments`` on ``times`` by the
    eigen path: the squared norm of the minus slots."""
    minus_slots = slice(int(Branch.MINUS), None, 2)  # the minus slot of every cell
    return _eigen_readout(*_band_and_start(segments), times, minus_slots, squared_norms)[0]


def _where(params: LadderParams) -> str:
    return f"W={params.disorder_w}, delta={params.detuning_delta}, N={params.n_sites}"


def _span(segment: _Segment, seed: int) -> str:
    return f"{segment.start}-{segment.stop - 1} (seed {seed}, {_where(segment.params)})"


def _measure_chunk(segments, readout, seed: int) -> list[np.ndarray]:
    """``readout`` of ``segments``, as one array per segment.

    A failure is raised as RuntimeError naming the first realization that
    fails alone, with its seed tag ``seed:index`` and its own grid point's
    parameters, or else the range of each segment.
    """
    try:
        return np.split(readout(segments), _offsets(segments)[1:-1])
    except Exception as exc:
        alone = [segment._replace(start=i, stop=i + 1)
                 for segment in segments for i in range(segment.start, segment.stop)]
        if len(alone) == 1:
            (segment,) = alone
            raise RuntimeError(f"realization {segment.start} (seed tag {seed}:{segment.start}, "
                               f"{_where(segment.params)}) failed: {exc}") from exc
        for single in alone:  # raises if that realization fails alone
            _measure_chunk([single], readout, seed)
        spans = ", ".join(_span(segment, seed) for segment in segments)
        raise RuntimeError(f"realizations {spans} failed: {exc}") from exc


def _pack(wholes, width: int) -> list[list[_Segment]]:
    """The whole-run segments ``wholes``, in order, cut into segments and
    packed into stacks of at most ``width`` columns: at ``_CHUNK``, each
    stack is one chunk."""
    stacks, room = [], 0
    for whole in wholes:
        start = 0
        while start < whole.stop:
            take = min(whole.stop - start, room)
            if not take:
                stacks.append([])
                room = width
                continue
            stacks[-1].append(whole._replace(start=start, stop=start + take))
            start, room = start + take, room - take
    return stacks


def _reduce(values: np.ndarray, keep_raw: bool) -> EnsembleStats:
    n = values.shape[0]
    mean = values.mean(axis=0)
    if n > 1:
        std_error = values.std(axis=0, ddof=1) / np.sqrt(n)
    else:
        std_error = np.zeros_like(mean)
    return EnsembleStats(mean, std_error, values if keep_raw else None)


def _new_lock():
    """In a forked child, which has none of the parent's threads, take a lock of its own."""
    global _LOCK
    _LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_lock)


def run_ensemble(config, threads: int = 1, keep_raw: bool = False) -> list[EnsembleStats]:
    """Sample, evolve and measure the ``n_realizations`` ladders of each
    point of ``config.grid``; aggregate statistics per point.

    Returns one :class:`EnsembleStats` per grid point, in order: of C(tau),
    scalar, or with ``trace_times`` of p_-, per time point. A point's values
    are bitwise the same whatever ``threads`` and the other points of the
    grid. Per-realization raw values are retained when ``keep_raw=True``.

    The points the Chebyshev kernel reads are ordered by their term count
    K, and their chunks are packed into shared stacks of at most ``_STACK``
    columns, which run first, in order, on one worker. Then each other
    point in turn runs its chunks on ``min(threads, chunks)`` workers, each
    taking one contiguous block, so the first failure in that order is the
    one raised. The workers are the call's own, and none outlives it;
    numpy's OpenBLAS is held at one thread for the length of every call, so
    ``threads`` sets only the worker count. Calls from several threads take
    turns. The calling thread derives the call's unit draws once, before
    the workers start, and every point scales them.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    units = _unit_uniforms(config.master_seed, config.n_sites, config.n_realizations)
    readout = (_eigen_concurrence if config.trace_times is None
               else partial(_branch_trace, config.trace_times))
    chosen, eigen = [], []
    for point, params in enumerate(config.grid):
        kernel = _chebyshev_chosen(params) if config.trace_times is None else None
        whole = _Segment(point, params, kernel, units, 0, config.n_realizations)
        (chosen if kernel else eigen).append(whole)
    chosen.sort(key=lambda whole: whole.kernel[1][0])
    results = [None] * len(config.grid)

    def run(stacks, readout, workers):
        """Run ``stacks`` through ``readout`` on ``workers`` of the call's
        pool, each taking one contiguous block, and reduce each grid point's parts."""
        def run_block(block):
            return [_measure_chunk(segments, readout, config.master_seed) for segments in block]

        blocks = [stacks[k * len(stacks) // workers:(k + 1) * len(stacks) // workers]
                  for k in range(workers)]
        futures = [pool.submit(run_block, block) for block in blocks]
        wait(futures)
        parts = {}
        for block, future in zip(blocks, futures):
            for segments, measured in zip(block, future.result()):
                for segment, part in zip(segments, measured):
                    parts.setdefault(segment.point, []).append(part)
        for point, parts_of in parts.items():
            results[point] = _reduce(np.concatenate(parts_of), keep_raw)

    lib = _openblas()
    # one pool per call, not per grid point: per point, a warm fig2 took 0.49-0.63 s, not 0.43-0.46 s
    with _LOCK, ThreadPoolExecutor(threads, thread_name_prefix="qladder-ensemble") as pool:
        if lib is not None:
            found = lib.scipy_openblas_get_num_threads64_()
            lib.scipy_openblas_set_num_threads64_(1)
        try:
            # the kernel's stacks run on one worker: on two, a warm fig1 took as long but used
            # 0.65-0.83 s of CPU, not 0.49-0.63 s; on four it took 0.54-0.62 s, not 0.47-0.58 s
            if chosen:
                run(_pack(chosen, _STACK), _chebyshev_concurrence, 1)
            # one grid point at a time, reduced at once: fig2's parts all held took +1.5 MB peak RSS
            for whole in eigen:
                chunks = _pack([whole], _CHUNK)
                run(chunks, readout, min(threads, len(chunks)))  # a worker beyond them has no work
        finally:
            if lib is not None:
                lib.scipy_openblas_set_num_threads64_(found)
    return results
