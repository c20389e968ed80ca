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
from qladder.ensemble import (
    LABEL_CONCURRENCE,
    LABEL_P_MINUS,
    LABEL_P_PLUS,
    EnsembleConfig,
    ObservablePlan,
    derive_stream,
    run_ensemble,
)
from qladder.experiments import default_trace_grid, default_w_grid, leakage_trace
from qladder.hamiltonian import build_effective, build_physical
from qladder.model import LadderParams, sample_realization
from qladder.observables import transfer_time
from qladder.spectral import NORM_TOL


# fig2's time grid at its production defaults
PRODUCTION_TRACE_GRID = default_trace_grid(
    FIG2_DEFAULTS["n_sites"], FIG2_DEFAULTS["t_max"], FIG2_DEFAULTS["t_points"]
)

# A plan with a branch trace runs in chunks of _CHUNK through diagonalize,
# certify and propagate: the eigen path. A concurrence-only plan that the
# Chebyshev kernel reads runs as one stack on one worker instead.
EIGEN_PLAN = ObservablePlan.branch_trace([1.0])
CHUNKED_PLAN = ObservablePlan.both([1.0])  # and the concurrence too


def make_config(n_sites=10, w=2.0, delta=0.3, n_realizations=6, seed=42, plan=None):
    params = LadderParams(n_sites=n_sites, disorder_w=w, detuning_delta=delta)
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


@settings(max_examples=15, deadline=None)
@given(n_sites=st.integers(2, 30), w=st.floats(0.0, 1e3), delta=st.floats(0.0, 1e3))
def test_concurrence_stays_in_the_unit_interval(n_sites, w, delta):
    # C = 2 |a| |b| <= |a|^2 + |b|^2 <= |psi|^2, whose drift is within
    # NORM_TOL; C is not clipped, so rounding may take it just past 1
    config = make_config(n_sites=n_sites, w=w, delta=delta, n_realizations=3)
    values = run_ensemble(config, keep_raw=True)[LABEL_CONCURRENCE].per_realization
    assert np.all((values >= 0.0) & (values <= 1.0 + NORM_TOL))


@settings(max_examples=15, deadline=None)
@given(n_sites=st.integers(2, 16), w=st.floats(0.0, 100.0))
@example(n_sites=8, w=6.0)
def test_zero_detuning_keeps_minus_branch_full(n_sites, w):
    times = np.linspace(0.0, 60.0, 40)
    config = make_config(
        n_sites=n_sites, w=w, delta=0.0, n_realizations=4,
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
        run_ensemble(config)


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
        run_ensemble(config)


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
    assert np.array_equal(alone.minus[2.0].per_realization, after.minus[2.0].per_realization)
    # draws kept from a direct run of 7 realizations are not reused for 11;
    # the larger ensemble's first realizations are the smaller one's
    run_ensemble(make_config(n_realizations=7, seed=42))
    larger = leakage_trace(w_values=(2.0,), **{**kwargs, "n_realizations": 11})
    assert np.array_equal(alone.minus[2.0].per_realization,
                          larger.minus[2.0].per_realization[:7])


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
    original = ensemble_mod._measure_chunk

    def recording(config, start, stop, units):
        shapes.append(units.shape)
        return original(config, start, stop, units)

    monkeypatch.setattr(ensemble_mod, "_measure_chunk", recording)
    run_ensemble(make_config(n_sites=2, n_realizations=n_realizations, plan=EIGEN_PLAN))
    assert set(shapes) == {(2, 4)}
    info = ensemble_mod._chunk_draws.cache_info()
    assert info.currsize == info.maxsize == ensemble_mod._KEPT_CHUNKS
    ensemble_mod._chunk_draws.cache_clear()


def test_engine_matrices_match_the_public_path(monkeypatch):
    # realizations 0-6 span two chunks; each matrix the engine diagonalizes
    # must be the checked single-realization Hamiltonian, bit for bit
    config = make_config(n_realizations=7, plan=EIGEN_PLAN)
    assert ensemble_mod._CHUNK < 7
    seen = []
    original = ensemble_mod.diagonalize

    def recording(entries):
        seen.extend(entries.copy())
        return original(entries)

    monkeypatch.setattr(ensemble_mod, "diagonalize", recording)
    run_ensemble(config)
    assert len(seen) == 7
    for i, entries in enumerate(seen):
        public = build_effective(sample_realization(config.params, derive_stream(42, i)))
        assert np.array_equal(entries, public.entries)


@pytest.mark.parametrize("threads", [0, -5])
def test_a_thread_count_below_one_is_refused(threads):
    with pytest.raises(ValueError, match="threads must be at least 1"):
        run_ensemble(make_config(), threads=threads)


def test_worker_count_is_capped_at_the_chunk_count(monkeypatch):
    # a call runs min(threads, chunks) tasks at once on the shared pool, each
    # worker taking its chunks in order, and a one-chunk call runs there too
    lock = threading.Lock()
    running, peak, seen = 0, [], []
    original = ensemble_mod._measure_chunk

    def recording(config, start, stop, units):
        nonlocal running
        with lock:
            running += 1
            peak.append(running)
            seen.append((threading.current_thread(), start))
        try:
            time.sleep(0.002)  # long enough for the other workers to overlap it
            return original(config, start, stop, units)
        finally:
            with lock:
                running -= 1

    monkeypatch.setattr(ensemble_mod, "_measure_chunk", recording)
    chunk = ensemble_mod._CHUNK
    run_ensemble(make_config(n_realizations=4 * chunk, plan=CHUNKED_PLAN), threads=4)  # four workers
    # (realizations, threads, workers): capped by the chunks, by threads, one chunk
    for n_realizations, threads, cap in ((2 * chunk + 2, 8, 3), (4 * chunk, 2, 2),
                                         (chunk - 2, 8, 1)):
        peak.clear()
        seen.clear()
        config = make_config(n_realizations=n_realizations, plan=CHUNKED_PLAN)
        capped = run_ensemble(config, threads=threads, keep_raw=True)
        assert 1 <= max(peak) <= cap
        workers = {thread for thread, _ in seen}
        assert len(workers) <= cap and threading.main_thread() not in workers
        for worker in workers:
            starts = [start for thread, start in seen if thread is worker]
            assert starts == sorted(starts)
        assert sorted(start for _, start in seen) == list(range(0, n_realizations, chunk))
        serial = run_ensemble(config, threads=1, keep_raw=True)
        assert np.array_equal(capped[LABEL_CONCURRENCE].per_realization,
                              serial[LABEL_CONCURRENCE].per_realization)


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


def test_workers_run_with_one_openblas_thread_while_more_than_one_runs(monkeypatch, openblas):
    seen = []
    original = ensemble_mod._measure_chunk

    def recording(config, start, stop, units):
        seen.append(openblas())
        return original(config, start, stop, units)

    monkeypatch.setattr(ensemble_mod, "_measure_chunk", recording)
    config = make_config(n_realizations=4 * ensemble_mod._CHUNK, plan=CHUNKED_PLAN)
    run_ensemble(config, threads=2)
    assert seen == [1] * 4 and openblas() == 3
    seen.clear()
    run_ensemble(config, threads=1)  # one worker leaves the count alone
    assert seen == [3] * 4 and openblas() == 3


def test_the_openblas_count_is_restored_when_a_chunk_raises(monkeypatch, openblas):
    config = make_config(n_realizations=12)
    original = ensemble_mod.scale_disorder
    target = _unit_row(config, 8)

    def flaky(params, unit):
        if any(np.array_equal(row, target) for row in unit):
            raise MemoryError("synthetic exhaustion")
        return original(params, unit)

    monkeypatch.setattr(ensemble_mod, "scale_disorder", flaky)
    with pytest.raises(RuntimeError, match="realization 8"):
        run_ensemble(config, threads=2)
    assert openblas() == 3


def test_values_do_not_depend_on_openblas_pinning(monkeypatch):
    config = make_config(n_realizations=13, plan=ObservablePlan.both(np.linspace(0.0, 30.0, 25)))
    pinned = run_ensemble(config, threads=2, keep_raw=True)
    monkeypatch.setattr(ensemble_mod, "_openblas", lambda: None)  # the solver keeps its library
    seen = []
    original = ensemble_mod._measure_chunk
    with _openblas_count(3) as get:
        def recording(config, start, stop, units):
            seen.append(get())
            return original(config, start, stop, units)

        monkeypatch.setattr(ensemble_mod, "_measure_chunk", recording)
        unpinned = run_ensemble(config, threads=2, keep_raw=True)
        assert seen == [get()] * 3  # every chunk ran at the unpinned count
    for label in (LABEL_CONCURRENCE, LABEL_P_MINUS, LABEL_P_PLUS):
        assert np.array_equal(pinned[label].per_realization, unpinned[label].per_realization)


def test_concurrent_callers_get_the_values_of_serial_calls(monkeypatch):
    # two callers of two workers each on two cores; the calls take turns,
    # so every chunk runs pinned and each caller restores the count it found
    plan = ObservablePlan.both(np.linspace(0.0, 30.0, 25))
    configs = [make_config(n_realizations=4 * ensemble_mod._CHUNK, w=w, plan=plan)
               for w in (0.5, 2.0)]
    serial = [run_ensemble(config, keep_raw=True) for config in configs]
    lib = spectral_mod._openblas()
    get = lib.scipy_openblas_get_num_threads64_ if lib else lambda: None
    found, seen = get(), []
    original = ensemble_mod._measure_chunk

    def recording(config, start, stop, units):
        seen.append(get())
        time.sleep(0.002)  # a pinned region long enough for the other caller to meet it
        return original(config, start, stop, units)

    monkeypatch.setattr(ensemble_mod, "_measure_chunk", recording)
    rounds, results = 10, [[], []]
    barrier = threading.Barrier(2)

    def call(k):
        barrier.wait(timeout=30)
        for _ in range(rounds):
            try:
                results[k].append(run_ensemble(configs[k], threads=2, keep_raw=True))
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
            for label in (LABEL_CONCURRENCE, LABEL_P_MINUS, LABEL_P_PLUS):
                assert np.array_equal(expected[label].per_realization,
                                      result[label].per_realization)
    if lib:
        assert set(seen) == {1} and get() == found


def test_concurrent_calls_take_turns_on_the_pool(monkeypatch):
    # a pool grown to two workers could run two one-worker callers at once;
    # their chunks must never overlap, and each caller gets serial values
    configs = [make_config(n_realizations=3 * ensemble_mod._CHUNK, w=w, plan=CHUNKED_PLAN)
               for w in (0.5, 2.0)]
    serial = [run_ensemble(config, keep_raw=True) for config in configs]
    run_ensemble(make_config(n_realizations=2 * ensemble_mod._CHUNK, plan=CHUNKED_PLAN), threads=2)
    assert ensemble_mod._pool_size >= 2
    lock = threading.Lock()
    in_flight, overlaps = [0, 0], []
    original = ensemble_mod._measure_chunk

    def recording(config, start, stop, units):
        k = configs.index(config)
        with lock:
            in_flight[k] += 1
            overlaps.append(in_flight[1 - k] > 0)
        try:
            time.sleep(0.002)  # long enough for the other caller's chunk to meet it
            return original(config, start, stop, units)
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
                results[k].append(run_ensemble(configs[k], threads=1, keep_raw=True))
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
            assert np.array_equal(expected[LABEL_CONCURRENCE].per_realization,
                                  result[LABEL_CONCURRENCE].per_realization)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_on_a_pool_of_its_own():
    # the child inherits the parent's pool object but none of its threads
    code = (
        "import os, signal\n"
        "from qladder.ensemble import EnsembleConfig, run_ensemble\n"
        "from qladder.model import LadderParams\n"
        "config = EnsembleConfig(LadderParams(n_sites=6, disorder_w=1.0, detuning_delta=0.1),\n"
        "                        n_realizations=12, master_seed=42)\n"
        "parent = run_ensemble(config, threads=2, keep_raw=True)\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    signal.alarm(20)\n"
        "    child = run_ensemble(config, threads=2, keep_raw=True)\n"
        "    same = (child['concurrence_at_tau'].per_realization\n"
        "            == parent['concurrence_at_tau'].per_realization).all()\n"
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
        "parent = run_ensemble(config, threads=2, keep_raw=True)\n"
        "entered, release = threading.Event(), threading.Event()\n"
        "original = ensemble._measure_chunk\n"
        "def held(*args):\n"
        "    entered.set()\n"
        "    release.wait()\n"
        "    return original(*args)\n"
        "ensemble._measure_chunk = held\n"
        "caller = threading.Thread(target=run_ensemble, args=(config, 2))\n"
        "caller.start()\n"
        "entered.wait()\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    signal.alarm(20)\n"
        "    ensemble._measure_chunk = original\n"
        "    child = run_ensemble(config, threads=2, keep_raw=True)\n"
        "    same = (child['concurrence_at_tau'].per_realization\n"
        "            == parent['concurrence_at_tau'].per_realization).all()\n"
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
    # the fault follows its matrix, so it shows up whichever stack holds it
    config = make_config(n_realizations=7, plan=ObservablePlan.both(np.linspace(0.0, 5.0, 6)))
    assert ensemble_mod._CHUNK > 3
    target = _matrix_of(config, 3)
    original = ensemble_mod.diagonalize

    def corrupted(entries):
        eigenvalues, eigenvectors = original(entries)
        for row, matrix in enumerate(entries):
            if np.array_equal(matrix, target):
                _corrupt(eigenvectors[row], corruption)
        return eigenvalues, eigenvectors

    monkeypatch.setattr(ensemble_mod, "diagonalize", corrupted)
    with pytest.raises(RuntimeError, match=f"realization 3 .*42:3.*{corruption} drift"):
        run_ensemble(config)


def test_the_certificate_catches_a_shifted_eigenvalue(monkeypatch):
    # eigenvectors untouched and orthonormal, one eigenvalue of realization 3
    # off by 0.1: no state's norm or energy moves, so per-state guards pass
    # it, but the eigen-residual H V - V L does not; the eigen path reads tau
    config = make_config(n_sites=30, n_realizations=7,
                         plan=ObservablePlan.branch_trace([transfer_time(30)]))
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
        run_ensemble(config)


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
    plans = {"fig1": ObservablePlan.branch_trace([transfer_time(n_sites)]),
             "fig2": ObservablePlan.branch_trace(PRODUCTION_TRACE_GRID)}
    config = make_config(n_sites=n_sites, w=w, delta=0.2, n_realizations=100, plan=plans[plan])
    stats = run_ensemble(config)
    assert all(result.n == 100 for result in stats.values())


def test_a_fault_only_inside_a_stack_names_the_range(monkeypatch):
    # position 3 of any stack longer than 3: no realization fails alone
    config = make_config(n_realizations=7, plan=ObservablePlan.both(np.linspace(0.0, 5.0, 6)))
    original = ensemble_mod.diagonalize

    def corrupted(entries):
        eigenvalues, eigenvectors = original(entries)
        if len(entries) > 3:
            _corrupt(eigenvectors[3], "norm")
        return eigenvalues, eigenvectors

    monkeypatch.setattr(ensemble_mod, "diagonalize", corrupted)
    with pytest.raises(RuntimeError, match=r"realizations 0-4 \(seed 42, .*\) failed: norm drift"):
        run_ensemble(config)


def test_other_errors_name_the_realization_inside_a_chunk(monkeypatch):
    config = make_config(n_realizations=7, plan=EIGEN_PLAN)
    target = _matrix_of(config, 3)
    original = ensemble_mod.diagonalize

    def failing(entries):
        if any(np.array_equal(matrix, target) for matrix in entries):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return original(entries)

    monkeypatch.setattr(ensemble_mod, "diagonalize", failing)
    with pytest.raises(RuntimeError, match=r"realization 3 \(seed tag 42:3, .*did not converge"):
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


# ---------------------------------------------------------------------------
# Chebyshev readout of C(tau)
# ---------------------------------------------------------------------------

def _chebyshev_config(n_realizations=100, **kwargs):
    config = make_config(n_sites=30, w=0.5, delta=0.2, n_realizations=n_realizations, **kwargs)
    assert ensemble_mod._chebyshev_chosen(config.params)
    return config


def test_chebyshev_values_do_not_depend_on_stack_threads_or_chunk(monkeypatch):
    # the whole ensemble is one stack, so the stack size follows the
    # ensemble size; the values must not, nor the thread count or chunk size
    full = run_ensemble(_chebyshev_config(), keep_raw=True)[LABEL_CONCURRENCE].per_realization
    for n in (1, 7):
        part = run_ensemble(_chebyshev_config(n), keep_raw=True)[LABEL_CONCURRENCE]
        assert np.array_equal(part.per_realization, full[:n])
    threads2 = run_ensemble(_chebyshev_config(), threads=2, keep_raw=True)
    assert np.array_equal(threads2[LABEL_CONCURRENCE].per_realization, full)
    monkeypatch.setattr(ensemble_mod, "_CHUNK", 1)
    single = run_ensemble(_chebyshev_config(), keep_raw=True)
    assert np.array_equal(single[LABEL_CONCURRENCE].per_realization, full)


def test_chebyshev_values_match_the_eigen_path(monkeypatch):
    config = _chebyshev_config(20)
    chebyshev = run_ensemble(config, keep_raw=True)[LABEL_CONCURRENCE].per_realization
    monkeypatch.setattr(ensemble_mod, "_chebyshev_chosen", lambda params: False)
    eigen = run_ensemble(config, keep_raw=True)[LABEL_CONCURRENCE].per_realization
    assert np.max(np.abs(chebyshev - eigen)) < 1e-13


def test_a_chebyshev_run_is_one_stack_on_one_worker_and_audits_realization_0(monkeypatch):
    # the kernel's small operations hold the GIL between them, so more
    # workers would only take turns; one stack spreads each one's cost
    calls, matrices = [], []
    original_chunk, original_diagonalize = ensemble_mod._measure_chunk, ensemble_mod.diagonalize

    def recording(config, start, stop, units):
        calls.append((start, stop, units.shape[0]))
        return original_chunk(config, start, stop, units)

    def diagonalizing(entries):
        matrices.append(entries.shape[0])
        return original_diagonalize(entries)

    monkeypatch.setattr(ensemble_mod, "_measure_chunk", recording)
    monkeypatch.setattr(ensemble_mod, "diagonalize", diagonalizing)
    run_ensemble(_chebyshev_config(), threads=2)
    assert calls == [(0, 100, 100)]
    assert matrices == [1]  # the audit's realization 0, the only eigensystem


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
        run_ensemble(config)


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
    chebyshev_mod._chebyshev_series.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=r"realization 0 \(seed tag 42:0, .*audit: "
                                               r"Chebyshev amplitudes deviate"):
            run_ensemble(_chebyshev_config(10))
    finally:
        chebyshev_mod._chebyshev_series.cache_clear()


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
