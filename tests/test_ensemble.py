import dataclasses
import os
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.linalg import expm

import qladder.chebyshev as chebyshev_mod
import qladder.ensemble as ensemble_mod
import qladder.spectral as spectral_mod
from qladder.cli import FIG1_DEFAULTS, FIG2_DEFAULTS
from qladder.ensemble import EnsembleConfig, EnsembleStats, derive_stream, run_ensemble
from qladder.experiments import default_trace_grid, default_w_grid, leakage_trace, transfer_sweep
from qladder.hamiltonian import build_effective, build_physical
from qladder.model import LadderParams, sample_realization
from qladder.observables import transfer_time
from qladder.spectral import NORM_TOL


# fig2's time grid at its production defaults
PRODUCTION_TRACE_GRID = default_trace_grid(
    FIG2_DEFAULTS["n_sites"], FIG2_DEFAULTS["t_max"], FIG2_DEFAULTS["t_points"]
)

# A branch trace runs in chunks of _CHUNK through diagonalize, certify and
# propagate: the eigen path. So does C(tau) past the switch rule, at W = 100
# for N = 10; below it the Chebyshev kernel reads C(tau) in stacks of _STACK
# on one worker instead.
EIGEN_TIMES = [1.0]
EIGEN_W = 100.0


def make_config(n_sites=10, w=2.0, delta=0.3, n_realizations=6, seed=42, trace_times=None):
    params = LadderParams(n_sites=n_sites, disorder_w=w, detuning_delta=delta)
    return EnsembleConfig(
        params=params,
        n_realizations=n_realizations,
        master_seed=seed,
        trace_times=trace_times,
    )


def eigen_configs(**kwargs):
    """A C(tau) config past the switch rule and a branch-trace config: both
    run in chunks on the eigen path."""
    concurrence = make_config(**{"w": EIGEN_W, **kwargs})
    assert not ensemble_mod._chebyshev_chosen(concurrence.params)
    return [concurrence, make_config(trace_times=np.linspace(0.0, 30.0, 25), **kwargs)]


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
# configs
# ---------------------------------------------------------------------------

def test_plan_validates_times():
    for times, message in (([3.0, 1.0], "ascending"), ([-1.0, 1.0], "nonnegative"),
                           ([0.0, np.nan], "finite"), ([0.0, np.inf], "finite"),
                           ([[0.0, 1.0]], "1-d")):
        with pytest.raises(ValueError, match=f"trace_times must be .*{message}"):
            make_config(trace_times=times)
    times = make_config(trace_times=[0, 1, 2.5]).trace_times
    assert times.dtype == np.float64 and not times.flags.writeable
    assert np.array_equal(times, [0.0, 1.0, 2.5])
    assert make_config().trace_times is None


def test_a_config_freezes_a_copy_of_the_caller_times():
    # the caller's grid stays writable, and editing it later leaves the config alone
    t = np.linspace(0.0, 1.0, 3)
    config = make_config(trace_times=t)
    trace = leakage_trace(4, 0.2, [1.0], t, 2, 0)
    t[0] = 5.0
    assert t.flags.writeable and t[0] == 5.0
    assert not config.trace_times.flags.writeable
    assert np.array_equal(config.trace_times, [0.0, 0.5, 1.0])
    assert trace[1.0].mean.shape == (3,)


def test_config_requires_realizations():
    with pytest.raises(ValueError):
        make_config(n_realizations=0)


# ---------------------------------------------------------------------------
# ensemble runs
# ---------------------------------------------------------------------------

def test_single_clean_realization_transfers_perfectly():
    config = make_config(n_sites=30, w=0.0, delta=0.0, n_realizations=1)
    stats = run_ensemble([config])[0]
    assert stats.n == 1
    assert float(stats.mean) >= 1.0 - 1e-6
    assert float(stats.std_error) == 0.0


@settings(max_examples=15, deadline=None)
@given(n_sites=st.integers(1, 15).map(lambda half: 2 * half), w=st.floats(0.0, 1e3),
       seed=st.integers(0, 2**32 - 1))
@example(n_sites=30, w=5.0, seed=42)  # the switch rule sends it to the Chebyshev kernel
@example(n_sites=30, w=1e3, seed=42)  # past the switch rule: the eigen path
def test_zero_detuning_transfers_every_realization(n_sites, w, seed):
    # at delta = 0 gamma_tilde and the minus on-site energy are exactly 0,
    # so the minus chain is the clean perfect-transfer chain whatever W draws
    config = make_config(n_sites=n_sites, w=w, delta=0.0, n_realizations=3, seed=seed)
    values = run_ensemble([config], keep_raw=True)[0].per_realization
    assert values.shape == (3,)
    assert np.all(values >= 1.0 - 1e-6)


def test_each_config_gets_one_stats_of_its_readout():
    # C(tau) by the kernel and by the eigen path, and the branch trace
    configs = [make_config(n_realizations=3), *eigen_configs(n_realizations=3)]
    results = run_ensemble(configs, keep_raw=True)
    assert len(results) == len(configs)
    assert all(isinstance(stats, EnsembleStats) and stats.n == 3 for stats in results)
    points = configs[-1].trace_times.size
    assert [stats.mean.shape for stats in results] == [(), (), (points,)]
    assert [stats.per_realization.shape for stats in results] == [(3,), (3,), (3, points)]


@settings(max_examples=15, deadline=None)
@given(n_sites=st.integers(2, 30), w=st.floats(0.0, 1e3), delta=st.floats(0.0, 1e3))
def test_concurrence_stays_in_the_unit_interval(n_sites, w, delta):
    # C = 2 |a| |b| <= |a|^2 + |b|^2 <= |psi|^2, whose drift is within
    # NORM_TOL; C is not clipped, so rounding may take it just past 1
    config = make_config(n_sites=n_sites, w=w, delta=delta, n_realizations=3)
    values = run_ensemble([config], keep_raw=True)[0].per_realization
    assert np.all((values >= 0.0) & (values <= 1.0 + NORM_TOL))


@settings(max_examples=15, deadline=None)
@given(n_sites=st.integers(2, 16), w=st.floats(0.0, 100.0))
@example(n_sites=8, w=6.0)
def test_zero_detuning_keeps_minus_branch_full(n_sites, w):
    times = np.linspace(0.0, 60.0, 40)
    config = make_config(
        n_sites=n_sites, w=w, delta=0.0, n_realizations=4,
        trace_times=times,
    )
    result = run_ensemble([config])[0]
    assert np.max(np.abs(result.mean - 1.0)) < 1e-10


def test_runs_are_bitwise_deterministic():
    config = make_config(n_realizations=5)
    a = run_ensemble([config])[0]
    b = run_ensemble([config])[0]
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.std_error, b.std_error)


def test_thread_count_does_not_change_results():
    # C(tau) by the kernel and by the eigen path, and the branch trace
    for config in (make_config(n_realizations=13), *eigen_configs(n_realizations=13)):
        serial = run_ensemble([config], threads=1, keep_raw=True)[0]
        for threads in (2, 4):
            threaded = run_ensemble([config], threads=threads, keep_raw=True)[0]
            assert np.array_equal(serial.mean, threaded.mean)
            assert np.array_equal(serial.std_error, threaded.std_error)
            assert np.array_equal(serial.per_realization, threaded.per_realization)


def test_raw_values_bracket_the_mean():
    config = make_config(n_realizations=7)
    stats = run_ensemble([config], keep_raw=True)[0]
    assert stats.per_realization.shape == (7,)
    assert stats.per_realization.min() <= float(stats.mean) <= stats.per_realization.max()
    assert np.all(stats.mean >= 0.0) and np.all(stats.mean <= 1.0)


def test_raw_values_dropped_by_default():
    config = make_config(n_realizations=3)
    stats = run_ensemble([config])[0]
    assert stats.per_realization is None


def _unit_row(config, index):
    """The 2N unit draws of realization ``index``, as its own stream gives them."""
    return derive_stream(config.master_seed, index).random(2 * config.params.n_sites)


def test_failures_report_the_realization_index(monkeypatch):
    config = make_config(n_realizations=5)
    original = ensemble_mod.scale_disorder
    target = _unit_row(config, 3)

    def flaky(params, unit):
        if any(np.array_equal(row, target) for row in unit):
            raise MemoryError("synthetic exhaustion")
        return original(params, unit)

    monkeypatch.setattr(ensemble_mod, "scale_disorder", flaky)
    with pytest.raises(RuntimeError, match="realization 3"):
        run_ensemble([config])


@pytest.mark.parametrize("name", ["eps_leg1", "delta_n"])
def test_non_finite_draws_name_the_realization(monkeypatch, name):
    config = make_config(n_realizations=7)
    original = ensemble_mod.scale_disorder
    target = _unit_row(config, 3)

    def poisoned(params, unit):
        eps_leg1, delta_n = original(params, unit)
        for row, draws in enumerate(unit):
            if np.array_equal(draws, target):
                (eps_leg1 if name == "eps_leg1" else delta_n)[row, 2] = np.nan
        return eps_leg1, delta_n

    monkeypatch.setattr(ensemble_mod, "scale_disorder", poisoned)
    with pytest.raises(RuntimeError, match=f"realization 3 .*42:3.*{name} contains non-finite"):
        run_ensemble([config])


@pytest.mark.parametrize("seed", [0, 7, 42, 1234])
def test_grid_draws_keep_the_stream_contract(seed):
    # the draws every grid point scales are bitwise those of realization i's
    # own stream, Generator(Philox(SeedSequence(seed, spawn_key=(i,)))), under
    # sample_realization and under the two Generator.uniform calls that define it
    n_sites, n_realizations = 12, 9
    units = np.concatenate([ensemble_mod._chunk_draws(seed, n_sites, 0, 4),
                            ensemble_mod._chunk_draws(seed, n_sites, 4, n_realizations)])
    for w in (0.0, *default_w_grid(0.2, 10.0, 5), 1e5):
        for delta in (0.0, 0.05, 0.2):
            params = LadderParams(n_sites=n_sites, disorder_w=w, detuning_delta=delta)
            eps_leg1, delta_n = ensemble_mod.scale_disorder(params, units)
            for i in range(n_realizations):
                def stream():
                    seq = np.random.SeedSequence(seed, spawn_key=(i,))
                    return np.random.Generator(np.random.Philox(seq))

                real = sample_realization(params, stream())
                drawn = real.eps_leg1, real.delta_n
                rng = stream()
                uniform = rng.uniform(-w, w, n_sites), rng.uniform(-delta, delta, n_sites)
                for reference in (drawn, uniform):
                    assert np.array_equal(eps_leg1[i], reference[0])
                    assert np.array_equal(delta_n[i], reference[1])


def test_a_grid_point_gives_the_same_values_alone_and_after_another():
    times = np.linspace(0.0, 30.0, 25)
    kwargs = dict(n_sites=10, delta=0.3, times=times, n_realizations=7, master_seed=42,
                  keep_raw=True)
    alone = leakage_trace(w_values=(2.0,), **kwargs)
    after = leakage_trace(w_values=(0.5, 2.0), **kwargs)
    assert np.array_equal(alone[2.0].per_realization, after[2.0].per_realization)
    # draws kept from a direct run of 7 realizations are not reused for 11;
    # the larger ensemble's first realizations are the smaller one's
    run_ensemble([make_config(n_realizations=7, seed=42)])
    larger = leakage_trace(w_values=(2.0,), **{**kwargs, "n_realizations": 11})
    assert np.array_equal(alone[2.0].per_realization, larger[2.0].per_realization[:7])


def test_each_sweep_derives_its_streams_once(monkeypatch):
    # three grid points, seven realizations: seven streams
    calls = []
    original = ensemble_mod.derive_stream

    def counted(seed, index):
        calls.append(index)
        return original(seed, index)

    monkeypatch.setattr(ensemble_mod, "derive_stream", counted)
    ensemble_mod._chunk_draws.cache_clear()  # whatever an earlier run kept
    leakage_trace(n_sites=8, delta=0.2, w_values=(0.5, 1.0, 2.0), times=[0.0, 1.0],
                  n_realizations=7, master_seed=42)
    assert calls == list(range(7))


def test_the_draws_kept_after_a_run_are_bounded(monkeypatch):
    # draws are made one chunk at a time, and a run over more realizations
    # than are kept holds only the last chunks' draws afterwards
    monkeypatch.setattr(ensemble_mod, "_CHUNK", 2)
    ensemble_mod._chunk_draws.cache_clear()
    n_realizations = 2 * ensemble_mod._KEPT_CHUNKS + 6
    shapes = []
    original = ensemble_mod._draws

    def recording(segment):
        units = original(segment)
        shapes.append(units.shape)
        return units

    monkeypatch.setattr(ensemble_mod, "_draws", recording)
    run_ensemble([make_config(n_sites=2, n_realizations=n_realizations, trace_times=EIGEN_TIMES)])
    assert set(shapes) == {(2, 4)}
    info = ensemble_mod._chunk_draws.cache_info()
    assert info.currsize == info.maxsize == ensemble_mod._KEPT_CHUNKS
    ensemble_mod._chunk_draws.cache_clear()


def test_engine_matrices_match_the_public_path(monkeypatch):
    # realizations 0-6 span two chunks; each matrix the engine diagonalizes
    # must be the checked single-realization Hamiltonian, bit for bit
    config = make_config(n_realizations=7, trace_times=EIGEN_TIMES)
    assert ensemble_mod._CHUNK < 7
    seen = []
    original = ensemble_mod.diagonalize

    def recording(entries):
        seen.extend(entries.copy())
        return original(entries)

    monkeypatch.setattr(ensemble_mod, "diagonalize", recording)
    run_ensemble([config])
    assert len(seen) == 7
    for i, entries in enumerate(seen):
        public = build_effective(sample_realization(config.params, derive_stream(42, i)))
        assert np.array_equal(entries, public.entries)


@pytest.mark.parametrize("threads", [0, -5])
def test_a_thread_count_below_one_is_refused(threads):
    with pytest.raises(ValueError, match="threads must be at least 1"):
        run_ensemble([make_config()], threads=threads)


def test_worker_count_is_capped_at_the_chunk_count(monkeypatch):
    # a call runs min(threads, chunks) tasks at once on its own pool, each
    # worker taking its chunks in order, and a one-chunk call runs there too
    lock = threading.Lock()
    running, peak, seen = 0, [], []
    original = ensemble_mod._measure_chunk

    def recording(segments, readout):
        nonlocal running
        with lock:
            running += 1
            peak.append(running)
            seen.append((threading.current_thread(), segments[0].start))
        try:
            time.sleep(0.002)  # long enough for the other workers to overlap it
            return original(segments, readout)
        finally:
            with lock:
                running -= 1

    monkeypatch.setattr(ensemble_mod, "_measure_chunk", recording)
    chunk = ensemble_mod._CHUNK
    run_ensemble([make_config(n_realizations=4 * chunk, w=EIGEN_W)], threads=4)  # four workers
    # (realizations, threads, workers): capped by the chunks, by threads, one chunk
    for n_realizations, threads, cap in ((2 * chunk + 2, 8, 3), (4 * chunk, 2, 2),
                                         (chunk - 2, 8, 1)):
        peak.clear()
        seen.clear()
        config = make_config(n_realizations=n_realizations, w=EIGEN_W)
        capped = run_ensemble([config], threads=threads, keep_raw=True)[0]
        assert 1 <= max(peak) <= cap
        workers = {thread for thread, _ in seen}
        assert len(workers) <= cap and threading.main_thread() not in workers
        for worker in workers:
            starts = [start for thread, start in seen if thread is worker]
            assert starts == sorted(starts)
        assert sorted(start for _, start in seen) == list(range(0, n_realizations, chunk))
        serial = run_ensemble([config], threads=1, keep_raw=True)[0]
        assert np.array_equal(capped.per_realization, serial.per_realization)


@contextmanager
def _openblas_count(threads):
    """The thread-count getter of numpy's bundled OpenBLAS, set to ``threads``
    inside and restored after; a getter of None without the library."""
    lib = spectral_mod._openblas()
    if lib is None:
        yield lambda: None
        return
    found = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(threads)
    try:
        yield lib.scipy_openblas_get_num_threads64_
    finally:
        lib.scipy_openblas_set_num_threads64_(found)


@pytest.fixture
def openblas():
    """The thread-count getter of numpy's bundled OpenBLAS, set to 3 threads
    for the test and restored after it."""
    if spectral_mod._openblas() is None:
        pytest.skip("numpy's OpenBLAS has no dsbevd or no thread-count functions")
    with _openblas_count(3) as get:
        yield get


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("path", ["eigen", "kernel"])
def test_every_call_runs_its_chunks_with_one_openblas_thread(monkeypatch, openblas, path,
                                                              threads):
    # the pin holds for the whole call, at one worker too and on the kernel's shared stacks
    if path == "eigen":  # four chunks
        configs, chunks = [make_config(n_realizations=4 * ensemble_mod._CHUNK, w=EIGEN_W)], 4
    else:  # two grid points sharing one stack
        configs = [make_config(n_realizations=4 * ensemble_mod._CHUNK, w=w) for w in (0.5, 2.0)]
        assert all(ensemble_mod._chebyshev_chosen(config.params) for config in configs)
        chunks = 1
    seen = []
    original = ensemble_mod._measure_chunk

    def recording(segments, readout):
        seen.append(openblas())
        return original(segments, readout)

    monkeypatch.setattr(ensemble_mod, "_measure_chunk", recording)
    run_ensemble(configs, threads=threads)
    assert seen == [1] * chunks and openblas() == 3


def test_the_openblas_count_is_restored_when_a_chunk_raises(monkeypatch, openblas):
    config = make_config(n_realizations=12)
    original = ensemble_mod.scale_disorder
    target = _unit_row(config, 8)

    def flaky(params, unit):
        if any(np.array_equal(row, target) for row in unit):
            raise MemoryError("synthetic exhaustion")
        return original(params, unit)

    monkeypatch.setattr(ensemble_mod, "scale_disorder", flaky)
    for threads in (1, 2):
        with pytest.raises(RuntimeError, match="realization 8"):
            run_ensemble([config], threads=threads)
        assert openblas() == 3


def _ensemble_threads():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("qladder-ensemble")]


def test_no_worker_outlives_its_call(monkeypatch):
    for config in eigen_configs(n_realizations=4 * ensemble_mod._CHUNK):
        run_ensemble([config], threads=2)
        assert not _ensemble_threads()

    def failing(params, unit):
        raise MemoryError("synthetic exhaustion")

    monkeypatch.setattr(ensemble_mod, "scale_disorder", failing)
    with pytest.raises(RuntimeError, match="realization 0"):
        run_ensemble([make_config(n_realizations=12)], threads=2)
    assert not _ensemble_threads()


def test_values_do_not_depend_on_openblas_pinning(monkeypatch):
    configs = eigen_configs(n_realizations=13)
    pinned = [run_ensemble([config], threads=2, keep_raw=True)[0] for config in configs]
    monkeypatch.setattr(ensemble_mod, "_openblas", lambda: None)  # the solver keeps its library
    seen = []
    original = ensemble_mod._measure_chunk
    with _openblas_count(3) as get:
        def recording(segments, readout):
            seen.append(get())
            return original(segments, readout)

        monkeypatch.setattr(ensemble_mod, "_measure_chunk", recording)
        unpinned = [run_ensemble([config], threads=2, keep_raw=True)[0] for config in configs]
        assert seen == [get()] * 6  # every chunk ran at the unpinned count
    for expected, got in zip(pinned, unpinned):
        assert np.array_equal(expected.per_realization, got.per_realization)


def test_concurrent_callers_get_the_values_of_serial_calls(monkeypatch):
    # two callers of two workers each on two cores, one reading C(tau) and one
    # the branch trace; the calls take turns, so every chunk runs pinned and
    # each caller restores the count it found
    configs = eigen_configs(n_realizations=4 * ensemble_mod._CHUNK)
    serial = [run_ensemble([config], keep_raw=True)[0] for config in configs]
    lib = spectral_mod._openblas()
    get = lib.scipy_openblas_get_num_threads64_ if lib else lambda: None
    found, seen = get(), []
    original = ensemble_mod._measure_chunk

    def recording(segments, readout):
        seen.append(get())
        time.sleep(0.002)  # a pinned region long enough for the other caller to meet it
        return original(segments, readout)

    monkeypatch.setattr(ensemble_mod, "_measure_chunk", recording)
    rounds, results = 10, [[], []]
    barrier = threading.Barrier(2)

    def call(k):
        barrier.wait(timeout=30)
        for _ in range(rounds):
            try:
                results[k].append(run_ensemble([configs[k]], threads=2, keep_raw=True)[0])
            except Exception as exc:  # reported by the assertions below
                results[k].append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(k,)) for k in range(2)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for expected, got in zip(serial, results):
        assert len(got) == rounds
        for result in got:
            assert not isinstance(result, Exception), result
            assert np.array_equal(expected.per_realization, result.per_realization)
    if lib:
        assert set(seen) == {1} and get() == found


def test_concurrent_calls_take_turns_on_the_pool(monkeypatch):
    # each call has workers of its own, so two one-worker callers could run
    # at once, here one reading C(tau) and one the branch trace; their chunks
    # must never overlap, and each caller gets serial values
    configs = eigen_configs(n_realizations=3 * ensemble_mod._CHUNK)
    serial = [run_ensemble([config], keep_raw=True)[0] for config in configs]
    lock = threading.Lock()
    in_flight, overlaps = [0, 0], []
    original = ensemble_mod._measure_chunk

    def recording(segments, readout):
        k = configs.index(segments[0].config)
        with lock:
            in_flight[k] += 1
            overlaps.append(in_flight[1 - k] > 0)
        try:
            time.sleep(0.002)  # long enough for the other caller's chunk to meet it
            return original(segments, readout)
        finally:
            with lock:
                in_flight[k] -= 1

    monkeypatch.setattr(ensemble_mod, "_measure_chunk", recording)
    rounds, results = 5, [[], []]
    barrier = threading.Barrier(2)

    def call(k):
        barrier.wait(timeout=30)
        for _ in range(rounds):
            try:
                results[k].append(run_ensemble([configs[k]], threads=1, keep_raw=True)[0])
            except Exception as exc:  # reported by the assertions below
                results[k].append(exc)

    callers = [threading.Thread(target=call, args=(k,)) for k in range(2)]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(timeout=60)
    assert not any(caller.is_alive() for caller in callers)
    assert len(overlaps) == 2 * rounds * 3 and not any(overlaps)
    for expected, got in zip(serial, results):
        assert len(got) == rounds
        for result in got:
            assert not isinstance(result, Exception), result
            assert np.array_equal(expected.per_realization, result.per_realization)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_on_a_pool_of_its_own():
    # a parent that has run a call forks: the child has none of its threads
    code = (
        "import os, signal\n"
        "from qladder.ensemble import EnsembleConfig, run_ensemble\n"
        "from qladder.model import LadderParams\n"
        "config = EnsembleConfig(LadderParams(n_sites=6, disorder_w=1.0, detuning_delta=0.1),\n"
        "                        n_realizations=12, master_seed=42)\n"
        "parent = run_ensemble([config], threads=2, keep_raw=True)[0]\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    signal.alarm(20)\n"
        "    child = run_ensemble([config], threads=2, keep_raw=True)[0]\n"
        "    same = (child.per_realization == parent.per_realization).all()\n"
        "    os._exit(0 if same else 3)\n"
        "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
    )
    src = str(Path(ensemble_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.strip().splitlines()[-1] == "0"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_fork_taken_during_a_call_leaves_the_child_a_pool_of_its_own():
    # one thread is inside a two-worker call, holding the lock, while another
    # forks; the child inherits the held lock but not the thread that releases it
    code = (
        "import os, signal, threading\n"
        "import qladder.ensemble as ensemble\n"
        "from qladder.ensemble import EnsembleConfig, run_ensemble\n"
        "from qladder.model import LadderParams\n"
        "config = EnsembleConfig(LadderParams(n_sites=6, disorder_w=1.0, detuning_delta=0.1),\n"
        "                        n_realizations=12, master_seed=42)\n"
        "parent = run_ensemble([config], threads=2, keep_raw=True)[0]\n"
        "entered, release = threading.Event(), threading.Event()\n"
        "original = ensemble._measure_chunk\n"
        "def held(*args):\n"
        "    entered.set()\n"
        "    release.wait()\n"
        "    return original(*args)\n"
        "ensemble._measure_chunk = held\n"
        "caller = threading.Thread(target=run_ensemble, args=([config], 2))\n"
        "caller.start()\n"
        "entered.wait()\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    signal.alarm(20)\n"
        "    ensemble._measure_chunk = original\n"
        "    child = run_ensemble([config], threads=2, keep_raw=True)[0]\n"
        "    same = (child.per_realization == parent.per_realization).all()\n"
        "    os._exit(0 if same else 3)\n"
        "status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])\n"
        "release.set()\n"
        "caller.join()\n"
        "print(status)\n"
    )
    src = str(Path(ensemble_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.strip().splitlines()[-1] == "0"


def _corrupt(eigenvectors, corruption):
    if corruption == "norm":
        eigenvectors *= 1.001
    else:  # mix the two eigenvectors that carry most of psi0: still
        # orthonormal, so the norm holds, but no longer an eigenbasis
        a, b = np.argsort(np.abs(eigenvectors[1]))[-2:]
        eigenvectors[:, a], eigenvectors[:, b] = (
            (eigenvectors[:, a] + eigenvectors[:, b]) / np.sqrt(2),
            (eigenvectors[:, a] - eigenvectors[:, b]) / np.sqrt(2),
        )


def _matrix_of(config, index):
    return build_effective(sample_realization(config.params, derive_stream(42, index))).entries


@pytest.mark.parametrize("corruption", ["norm", "energy"])
def test_guard_failures_name_the_realization_inside_a_chunk(monkeypatch, corruption):
    # realization 3 of 7 sits mid-way through the first stacked diagonalization;
    # the fault follows its matrix, so it shows up whichever stack holds it,
    # whether the eigen path reads C(tau) or the branch trace
    assert ensemble_mod._CHUNK > 3
    original = ensemble_mod.diagonalize
    for config in eigen_configs(n_realizations=7):
        target = _matrix_of(config, 3)

        def corrupted(entries):
            eigenvalues, eigenvectors = original(entries)
            for row, matrix in enumerate(entries):
                if np.array_equal(matrix, target):
                    _corrupt(eigenvectors[row], corruption)
            return eigenvalues, eigenvectors

        monkeypatch.setattr(ensemble_mod, "diagonalize", corrupted)
        with pytest.raises(RuntimeError, match=f"realization 3 .*42:3.*{corruption} drift"):
            run_ensemble([config])


def test_the_certificate_catches_a_shifted_eigenvalue(monkeypatch):
    # eigenvectors untouched and orthonormal, one eigenvalue of realization 3
    # off by 0.1: no state's norm or energy moves, so per-state guards pass
    # it, but the eigen-residual H V - V L does not; the eigen path reads tau
    config = make_config(n_sites=30, n_realizations=7, trace_times=[transfer_time(30)])
    target = _matrix_of(config, 3)
    original = ensemble_mod.diagonalize

    def shifted(entries):
        eigenvalues, eigenvectors = original(entries)
        for row, matrix in enumerate(entries):
            if np.array_equal(matrix, target):
                eigenvalues[row, 30] += 0.1
        return eigenvalues, eigenvectors

    monkeypatch.setattr(ensemble_mod, "diagonalize", shifted)
    with pytest.raises(RuntimeError, match="realization 3 .*42:3.*energy drift bound"):
        run_ensemble([config])


@pytest.mark.parametrize("w", [0.2, 10.0])
@pytest.mark.parametrize("plan", ["fig1", "fig2"])
def test_production_scales_are_certified_without_measurement(monkeypatch, w, plan):
    # the certificate bounds every realization of the figure drivers'
    # ensembles, so no chunk propagates and measures its whole states; fig1's
    # matrices are read at tau on the eigen path, which the Chebyshev kernel
    # takes over at these scales and audits with
    def unexpected(*args):
        raise AssertionError("a production-scale evolution was measured")

    monkeypatch.setattr(spectral_mod, "_measure_drift", unexpected)
    n_sites = 30
    grids = {"fig1": [transfer_time(n_sites)], "fig2": PRODUCTION_TRACE_GRID}
    config = make_config(n_sites=n_sites, w=w, delta=0.2, n_realizations=100,
                         trace_times=grids[plan])
    assert run_ensemble([config])[0].n == 100


def test_a_fault_only_inside_a_stack_names_the_range(monkeypatch):
    # position 3 of any stack longer than 3: no realization fails alone
    original = ensemble_mod.diagonalize

    def corrupted(entries):
        eigenvalues, eigenvectors = original(entries)
        if len(entries) > 3:
            _corrupt(eigenvectors[3], "norm")
        return eigenvalues, eigenvectors

    monkeypatch.setattr(ensemble_mod, "diagonalize", corrupted)
    for config in eigen_configs(n_realizations=7):
        with pytest.raises(RuntimeError,
                           match=r"realizations 0-4 \(seed 42, .*\) failed: norm drift"):
            run_ensemble([config])


def test_other_errors_name_the_realization_inside_a_chunk(monkeypatch):
    config = make_config(n_realizations=7, trace_times=EIGEN_TIMES)
    target = _matrix_of(config, 3)
    original = ensemble_mod.diagonalize

    def failing(entries):
        if any(np.array_equal(matrix, target) for matrix in entries):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(entries)

    monkeypatch.setattr(ensemble_mod, "diagonalize", failing)
    with pytest.raises(RuntimeError, match=r"realization 3 \(seed tag 42:3, .*did not converge"):
        run_ensemble([config])


def test_chunk_size_does_not_change_values(monkeypatch):
    configs = eigen_configs(n_realizations=2 * ensemble_mod._CHUNK + 2)
    defaults = [run_ensemble([config], keep_raw=True)[0] for config in configs]
    monkeypatch.setattr(ensemble_mod, "_CHUNK", 1)
    for config, default in zip(configs, defaults):
        single = run_ensemble([config], keep_raw=True)[0]
        assert np.array_equal(default.per_realization, single.per_realization)


def test_ensemble_size_does_not_change_shared_values():
    # one realization alone, a chunk plus a lone remainder, two full chunks,
    # for C(tau) on the eigen path and for the branch trace
    chunk = ensemble_mod._CHUNK
    sizes = (1, chunk + 1, 2 * chunk)
    for runs in zip(*(eigen_configs(n_realizations=n) for n in sizes)):
        alone, remainder, full = (run_ensemble([config], keep_raw=True)[0].per_realization
                                  for config in runs)
        assert np.array_equal(alone, remainder[:1])
        assert np.array_equal(remainder, full[: chunk + 1])


def test_leakage_traces_match_site_basis_expm():
    # independent path: the physical-basis Hamiltonian, the Bell state on the
    # legs of cell 1, one expm step per grid interval, p_minus = sum |(a-b)/sqrt2|^2
    n_sites, delta, n_realizations = 30, 0.2, 5
    times = PRODUCTION_TRACE_GRID
    dt = times[1]
    assert np.allclose(np.diff(times), dt, rtol=1e-12, atol=0.0)
    result = leakage_trace(
        n_sites=n_sites, delta=delta, w_values=(0.2, 10.0), times=times,
        n_realizations=n_realizations, master_seed=42, keep_raw=True,
    )
    worst = 0.0
    for w in (0.2, 10.0):
        params = LadderParams(n_sites=n_sites, disorder_w=w, detuning_delta=delta)
        engine = result[w].per_realization
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
    stats = run_ensemble([config], keep_raw=True)[0]
    raw = stats.per_realization
    assert float(stats.mean) == raw.mean()
    assert float(stats.std_error) == pytest.approx(raw.std(ddof=1) / 3.0, rel=1e-12)


def test_plans_share_realization_streams(monkeypatch):
    # same (params, seed, index) -> same realizations, whatever is measured,
    # so results are consistent per realization across different drivers:
    # a C(tau) run and a trace run hand the readouts the same unit draws
    draws, readouts = {}, []
    original_chunk, original_draws = ensemble_mod._measure_chunk, ensemble_mod._draws

    def measuring(segments, readout):
        readouts.append(readout.__name__)
        return original_chunk(segments, readout)

    def drawing(segment):
        units = original_draws(segment)
        rows = draws.setdefault(readouts[-1], {})
        for i, row in enumerate(units, segment.start):
            rows.setdefault(i, []).append(row.copy())
        return units

    monkeypatch.setattr(ensemble_mod, "_measure_chunk", measuring)
    monkeypatch.setattr(ensemble_mod, "_draws", drawing)
    ensemble_mod._chunk_draws.cache_clear()
    run_ensemble([make_config(n_realizations=13)])
    ensemble_mod._chunk_draws.cache_clear()  # drawn afresh, not kept from the first run
    run_ensemble([make_config(n_realizations=13, trace_times=np.linspace(0.0, 20.0, 15))])
    assert draws.keys() == {"_chebyshev_concurrence", "_branch_trace"}
    kernel, trace = draws["_chebyshev_concurrence"], draws["_branch_trace"]
    assert sorted(kernel) == sorted(trace) == list(range(13))
    for i in range(13):  # the kernel draws realization 0 twice: its stack and its audit
        assert trace[i][0].shape == (20,)
        assert all(np.array_equal(row, trace[i][0]) for row in kernel[i] + trace[i])


# ---------------------------------------------------------------------------
# Chebyshev readout of C(tau)
# ---------------------------------------------------------------------------

def _chebyshev_config(n_realizations=100, **kwargs):
    config = make_config(n_sites=30, w=0.5, delta=0.2, n_realizations=n_realizations, **kwargs)
    assert ensemble_mod._chebyshev_chosen(config.params)
    return config


def test_chebyshev_values_do_not_depend_on_stack_threads_or_chunk(monkeypatch):
    # the values must not follow the stack size, the thread count or the
    # chunk size: 100 realizations are one stack, 3 stacks and 7 more are four
    full = run_ensemble([_chebyshev_config()], keep_raw=True)[0].per_realization
    for n in (1, 7):
        part = run_ensemble([_chebyshev_config(n)], keep_raw=True)[0]
        assert np.array_equal(part.per_realization, full[:n])
    threads2 = run_ensemble([_chebyshev_config()], threads=2, keep_raw=True)[0]
    assert np.array_equal(threads2.per_realization, full)
    width = 2 * ensemble_mod._CHUNK
    monkeypatch.setattr(ensemble_mod, "_STACK", width)
    n = 3 * width + 7
    stacks = run_ensemble([_chebyshev_config(n)], threads=2, keep_raw=True)[0]
    assert np.array_equal(stacks.per_realization, full[:n])
    monkeypatch.setattr(ensemble_mod, "_CHUNK", 1)
    for stack in (1, width):  # stacks of 1, then chunks of 1
        monkeypatch.setattr(ensemble_mod, "_STACK", stack)
        single = run_ensemble([_chebyshev_config(n)], threads=2, keep_raw=True)[0]
        assert np.array_equal(single.per_realization, full[:n])
    single = run_ensemble([_chebyshev_config()], keep_raw=True)[0]
    assert np.array_equal(single.per_realization, full)


def test_chebyshev_values_match_the_eigen_path(monkeypatch):
    config = _chebyshev_config(20)
    chebyshev = run_ensemble([config], keep_raw=True)[0].per_realization
    monkeypatch.setattr(ensemble_mod, "_chebyshev_chosen", lambda params: False)
    eigen = run_ensemble([config], keep_raw=True)[0].per_realization
    assert np.max(np.abs(chebyshev - eigen)) < 1e-13


def test_a_chebyshev_run_runs_in_stacks_on_one_worker_and_audits_realization_0(monkeypatch):
    # the kernel's small operations hold the GIL between them, so more
    # workers would only take turns; a stack spreads each one's cost, and a
    # bounded one keeps the kernel's memory and time per realization flat
    calls, workers, matrices, errors = [], set(), [], []
    original_chunk, original_diagonalize = ensemble_mod._measure_chunk, ensemble_mod.diagonalize
    original_errors = spectral_mod._eigen_errors

    def recording(segments, readout):
        calls.append([(segment.start, segment.stop) for segment in segments])
        workers.add(threading.get_ident())
        return original_chunk(segments, readout)

    def diagonalizing(entries):
        matrices.append(entries.shape[0])
        return original_diagonalize(entries)

    def counting(*args):
        errors.append(1)
        return original_errors(*args)

    monkeypatch.setattr(ensemble_mod, "_measure_chunk", recording)
    monkeypatch.setattr(ensemble_mod, "diagonalize", diagonalizing)
    monkeypatch.setattr(spectral_mod, "_eigen_errors", counting)
    run_ensemble([_chebyshev_config()], threads=2)
    assert calls == [[(0, 100)]]
    assert matrices == [1]  # the audit's realization 0, the only eigensystem
    assert len(errors) == 1  # its e and r, computed once for certify and the audit

    width = 2 * ensemble_mod._CHUNK
    monkeypatch.setattr(ensemble_mod, "_STACK", width)
    for record in (calls, workers, matrices, errors):
        record.clear()
    run_ensemble([_chebyshev_config(3 * width + 7)], threads=2)
    assert calls == [[(k * width, (k + 1) * width)] for k in range(3)] + [
        [(3 * width, 3 * width + 7)]]
    assert max(stop - start for (start, stop), in calls) <= width
    assert len(workers) == 1
    assert matrices == [1] and len(errors) == 1  # realization 0, in the first stack only


def _gershgorin_radii(config):
    return np.array([np.max(np.sum(np.abs(_matrix_of(config, i)), axis=1))
                     for i in range(config.n_realizations)])


def test_a_half_width_below_the_spectral_radius_names_the_realization(monkeypatch):
    # a between the radii: the first realization above it fails alone
    config = _chebyshev_config(40)
    radii = _gershgorin_radii(config)
    margin = 1 + 1e-12  # for the order the kernel sums a row in
    target = next(i for i in range(1, radii.size) if radii[i] > radii[:i].max() * margin)
    monkeypatch.setattr(ensemble_mod, "_half_width", lambda params: radii[:target].max() * margin)
    with pytest.raises(RuntimeError, match=rf"realization {target} \(seed tag 42:{target}, "
                                           r".*Gershgorin radius .* exceeds the half-width"):
        run_ensemble([config])


def _shift_hop_slots(band_of):
    def shifted(*args):
        band = band_of(*args)
        band[2] = np.roll(band[2], 1, axis=0)  # each hopping one slot off its own
        return band
    return shifted


def _flip_odd_bessel_signs(bessel_j):
    def flipped(x, count):
        values = bessel_j(x, count)
        values[1::2] *= -1  # the conjugate evolution exp(+iHt): same C, other amplitudes
        return values
    return flipped


@pytest.mark.parametrize("fault", ["hop-slot shift", "flipped Bessel sign"])
def test_a_broken_kernel_fails_the_audit(monkeypatch, fault):
    # both faults keep every matrix symmetric and its states' norm and
    # energy, so only the eigen path's audit of realization 0 sees them
    if fault == "hop-slot shift":
        monkeypatch.setattr(ensemble_mod, "effective_band",
                            _shift_hop_slots(ensemble_mod.effective_band))
    else:
        monkeypatch.setattr(chebyshev_mod, "bessel_j", _flip_odd_bessel_signs(chebyshev_mod.bessel_j))
    with pytest.raises(RuntimeError, match=r"realization 0 \(seed tag 42:0, .*audit: "
                                           r"Chebyshev amplitudes deviate"):
        run_ensemble([_chebyshev_config(10)])


# a sweep whose kernel points share stacks: 2 x 3 kernel points of 137
# realizations, which does not divide _STACK, and per delta one point past
# the switch rule
PACKED_DELTAS, PACKED_W, PACKED_N = (0.05, 0.2), (0.3, 1.0, 3.0), 137


def _packed_configs():
    configs = [make_config(w=w, delta=delta, n_realizations=PACKED_N)
               for delta in PACKED_DELTAS for w in (*PACKED_W, EIGEN_W)]
    chosen = [config for config in configs if ensemble_mod._chebyshev_chosen(config.params)]
    assert len(chosen) == len(PACKED_DELTAS) * len(PACKED_W)
    return configs


def test_a_grid_point_gives_bitwise_the_same_values_alone_and_in_packed_stacks(monkeypatch):
    # and two points of one half-width, 2W + Delta = 2.5, each its own point of a stack
    packed = _packed_configs()
    equal = [make_config(w=w, delta=delta, n_realizations=PACKED_N)
             for w, delta in ((1.0, 0.5), (0.75, 1.0))]
    assert len({ensemble_mod._half_width(config.params) for config in equal}) == 1
    configs = packed + equal
    stacks = []
    original = ensemble_mod._chebyshev_concurrence
    monkeypatch.setattr(ensemble_mod, "_chebyshev_concurrence",
                        lambda segments: stacks.append(segments) or original(segments))
    swept = {threads: run_ensemble(configs, threads=threads, keep_raw=True)
             for threads in (1, 2)}
    # 1,096 kernel columns make three stacks per call, two points split between them
    assert [len(stack) for stack in stacks] == [3, 4, 3] * 2
    for first, second in (stacks[0:2], stacks[1:3]):
        assert first[-1].point == second[0].point and second[0].start == first[-1].stop
    assert [segment.point for segment in stacks[1][-2:]] == [len(packed), len(packed) + 1]
    assert max(sum(s.stop - s.start for s in stack) for stack in stacks) <= ensemble_mod._STACK
    for point, config in enumerate(configs):
        alone = run_ensemble([config], keep_raw=True)[0].per_realization
        assert alone.shape == (PACKED_N,)
        for result in swept.values():
            assert np.array_equal(result[point].per_realization, alone)
    # the sweep driver hands its whole grid to one call: the same values again
    sweep = transfer_sweep(10, PACKED_DELTAS, (*PACKED_W, EIGEN_W), PACKED_N, 42, keep_raw=True)
    for point, config in enumerate(packed):
        stats = sweep[config.params.detuning_delta][point % (len(PACKED_W) + 1)]
        assert np.array_equal(stats.per_realization, swept[1][point].per_realization)


def test_grid_points_of_different_lengths_never_share_a_stack(monkeypatch):
    configs = [make_config(n_sites=n_sites, w=w, n_realizations=9)
               for n_sites in (10, 8) for w in (0.3, 1.0)]
    stacks = []
    original = ensemble_mod._chebyshev_concurrence
    monkeypatch.setattr(ensemble_mod, "_chebyshev_concurrence",
                        lambda segments: stacks.append(segments) or original(segments))
    results = run_ensemble(configs, keep_raw=True)
    assert [{segment.config.params.n_sites for segment in stack} for stack in stacks] == [{8}, {10}]
    for config, result in zip(configs, results):
        alone = run_ensemble([config], keep_raw=True)[0]
        assert np.array_equal(result.per_realization, alone.per_realization)


@pytest.mark.parametrize("fault", ["raise", "non-finite"])
def test_a_failure_in_a_packed_stack_names_its_own_grid_point(monkeypatch, fault):
    # realization 3 of the (W = 1, delta = 0.2) point fails; every point draws
    # the same rows, so the fault is keyed to that point's own parameters
    configs = _packed_configs()
    target = _unit_row(configs[0], 3)
    original = ensemble_mod.scale_disorder

    def faulty(params, unit):
        eps_leg1, delta_n = original(params, unit)
        if (params.disorder_w, params.detuning_delta) == (1.0, 0.2):
            for row, draws in enumerate(unit):
                if np.array_equal(draws, target):
                    if fault == "raise":
                        raise MemoryError("synthetic exhaustion")
                    eps_leg1[row, 2] = np.nan
        return eps_leg1, delta_n

    monkeypatch.setattr(ensemble_mod, "scale_disorder", faulty)
    with pytest.raises(RuntimeError, match=r"^realization 3 \(seed tag 42:3, "
                                           r"W=1\.0, delta=0\.2, N=10\) failed"):
        run_ensemble(configs, threads=2)


def test_the_switch_rule_sends_low_w_to_the_kernel_and_large_w_to_the_eigen_path():
    n_sites = FIG1_DEFAULTS["n_sites"]
    grid = default_w_grid(FIG1_DEFAULTS["w_min"], FIG1_DEFAULTS["w_max"], FIG1_DEFAULTS["w_points"])
    for delta in FIG1_DEFAULTS["delta"]:
        for w in grid[grid <= 1.0]:
            params = LadderParams(n_sites=n_sites, disorder_w=float(w), detuning_delta=delta)
            assert ensemble_mod._chebyshev_chosen(params)
    for w in (1e3, 1e5, 1e300):
        params = LadderParams(n_sites=n_sites, disorder_w=w, detuning_delta=0.2)
        assert not ensemble_mod._chebyshev_chosen(params)


def test_the_switch_rule_is_read_once_per_run(monkeypatch):
    # run_ensemble picks the run's one readout, and with it the stack width
    # and the worker count; no stack or chunk asks the rule again
    calls = []
    original = ensemble_mod._chebyshev_chosen

    def counted(params):
        calls.append(params.disorder_w)
        return original(params)

    width = 2 * ensemble_mod._CHUNK
    monkeypatch.setattr(ensemble_mod, "_STACK", width)
    kernel, eigen, trace = (_chebyshev_config(3 * width + 7), *eigen_configs(n_realizations=13))
    monkeypatch.setattr(ensemble_mod, "_chebyshev_chosen", counted)
    for config, expected in ((kernel, [0.5]), (eigen, [EIGEN_W]), (trace, [])):
        calls.clear()
        run_ensemble([config], threads=2)
        assert calls == expected


def test_a_config_records_one_readout():
    # C(tau), or the branch trace on trace_times: no plan object, no mixed stack
    for name in ("ObservablePlan", "_measure_stack", "_last_cell"):
        assert not hasattr(ensemble_mod, name)
    assert [field.name for field in dataclasses.fields(EnsembleConfig)] == [
        "params", "n_realizations", "master_seed", "trace_times"]
