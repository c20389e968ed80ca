import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qladder.chebyshev as chebyshev_mod
import qladder.hamiltonian as hamiltonian_mod
import qladder.spectral as spectral_mod
from qladder.chebyshev import bessel_j, chebyshev_propagate
from qladder.ensemble import _half_width, derive_stream
from qladder.hamiltonian import (
    Basis,
    BasisMismatchError,
    HermitianOperator,
    Leg,
    StateVector,
    bell_minus_state,
    build_effective,
    build_physical,
    effective_band,
    unit_state,
)
from qladder.model import LadderParams, sample_realization, uniform_ladder
from qladder.observables import transfer_time
from qladder.spectral import (
    ENERGY_TOL,
    NORM_TOL,
    certify,
    diagonalize,
    eigen_error_bound,
    eigendecompose,
    evolve,
    evolve_series,
    expectation,
    propagate,
)


def ladder_system(n_sites=8, disorder_w=3.0, detuning_delta=0.4, index=0):
    params = LadderParams(n_sites=n_sites, disorder_w=disorder_w, detuning_delta=detuning_delta)
    real = sample_realization(params, derive_stream(314, index))
    op = build_effective(real)
    return op, eigendecompose(op)


def random_state(dim, seed, basis):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(amps / np.linalg.norm(amps), basis)


def char_poly_roots(matrix):
    """Independent spectrum via Faddeev-LeVerrier coefficients + companion roots."""
    n = matrix.shape[0]
    coeffs = [1.0]
    m = np.array(matrix)
    c = -np.trace(m)
    coeffs.append(c)
    for k in range(2, n + 1):
        m = matrix @ (m + c * np.eye(n))
        c = -np.trace(m) / k
        coeffs.append(c)
    return np.sort(np.roots(coeffs).real)


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------

def test_dimer_eigenvalues():
    op = HermitianOperator(np.array([[0.0, 0.7], [0.7, 0.0]]), Basis.PHYSICAL)
    sys = eigendecompose(op)
    assert np.allclose(sys.eigenvalues, [-0.7, 0.7], atol=1e-15)


def test_engineered_single_leg_dispersion_is_linear():
    # one leg of the N=4 engineered chain: eigenvalues are equally spaced
    j = np.array([np.sqrt(3) / 2, 1.0, np.sqrt(3) / 2])
    h = np.zeros((4, 4))
    for k in range(3):
        h[k, k + 1] = h[k + 1, k] = j[k]
    sys = eigendecompose(HermitianOperator(h, Basis.PHYSICAL))
    assert np.allclose(sys.eigenvalues, [-1.5, -0.5, 0.5, 1.5], atol=1e-12)
    assert np.allclose(sys.eigenvalues, char_poly_roots(h), atol=1e-8)


def test_eigensystem_invariants():
    op, sys = ladder_system()
    h = op.entries
    scale = np.linalg.norm(h, 2)
    residual = h @ sys.eigenvectors - sys.eigenvectors * sys.eigenvalues
    assert np.max(np.abs(residual)) < 1e-10 * max(scale, 1.0)
    gram = sys.eigenvectors.T @ sys.eigenvectors
    assert np.max(np.abs(gram - np.eye(op.dim))) < 1e-10
    assert np.all(np.diff(sys.eigenvalues) >= 0)


def test_spectrum_invariant_under_orthogonal_conjugation():
    op, _ = ladder_system(n_sites=6)
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(op.dim, op.dim)))
    rotated = q @ op.entries @ q.T
    rotated = (rotated + rotated.T) / 2.0
    w_rot = eigendecompose(HermitianOperator(rotated, Basis.PHYSICAL)).eigenvalues
    w = eigendecompose(op).eigenvalues
    assert np.max(np.abs(w - w_rot)) < 1e-10


def test_eigendecompose_is_deterministic():
    op, _ = ladder_system(index=3)
    a = eigendecompose(op)
    b = eigendecompose(op)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def banded_stack(rng, count, dim, kd):
    """(count, dim, dim) random symmetric matrices whose nonzero entries
    reach exactly offset kd."""
    noise = rng.normal(size=(count, dim, dim))
    stack = noise + np.swapaxes(noise, 1, 2)
    rows, cols = np.indices((dim, dim))
    stack[:, np.abs(rows - cols) > kd] = 0.0
    return stack


def lower_band(stack):
    """The band of an (R, D, D) stack of symmetric matrices, as diagonalize
    takes it, up to the last subdiagonal on which any of them is nonzero."""
    rows, cols = np.nonzero(np.any(stack != 0, axis=0))
    kd = int(np.max(rows - cols, initial=0))
    return [np.diagonal(stack, -k, 1, 2).T for k in range(kd + 1)]


@pytest.mark.parametrize("kd", [0, 1, 2, 59])
def test_diagonalize_matches_eigh_at_every_bandwidth(kd):
    # dim 60 as in fig1 and fig2; a stack mixes norms from 1 to 1e7
    rng = np.random.default_rng(kd)
    stack = banded_stack(rng, 4, 60, kd) * np.array([1.0, 10.0, 1e3, 1e7])[:, None, None]
    band = lower_band(stack)
    assert len(band) == kd + 1
    eigenvalues, eigenvectors = diagonalize(band)
    for matrix, vals, vecs in zip(stack, eigenvalues, eigenvectors):
        scale = max(1.0, np.linalg.norm(matrix, 2))
        single_vals, single_vecs = diagonalize(lower_band(matrix[None]))
        assert np.array_equal(single_vals[0], vals) and np.array_equal(single_vecs[0], vecs)
        assert np.max(np.abs(vals - np.linalg.eigh(matrix)[0])) <= 1e-13 * scale
        assert np.max(np.abs(vecs.T @ vecs - np.eye(60))) <= 1e-13
        assert np.max(np.abs(matrix @ vecs - vecs * vals)) <= 1e-13 * scale


def test_the_wrapper_path_and_the_engine_hand_dsbevd_the_same_band():
    # eigendecompose's band of one checked matrix has the three diagonals of
    # the engine's stack band, in both bases, so it gets the engine's
    # eigensystem bitwise
    params = LadderParams(n_sites=30, disorder_w=10.0, detuning_delta=0.2)
    realizations = [sample_realization(params, derive_stream(42, i)) for i in range(3)]
    cells = [np.stack([getattr(real, field) for real in realizations])
             for field in ("eps_leg1", "eps_leg2", "gamma_n")]
    bands = {build_effective: effective_band(*cells, params.couplings()),
             build_physical: hamiltonian_mod._ladder_band(*cells, params.couplings())}
    for build, band in bands.items():
        for r, real in enumerate(realizations):
            own = spectral_mod._band(build(real).entries)
            assert len(own) == 3
            for diagonal, engine in zip(own, band):
                engine = np.broadcast_to(engine, (engine.shape[0], len(realizations)))
                assert np.array_equal(diagonal[:, 0], engine[:, r])
    eigenvalues, eigenvectors = diagonalize(bands[build_effective])
    for r, real in enumerate(realizations):
        system = eigendecompose(build_effective(real))
        assert np.array_equal(system.eigenvalues, eigenvalues[r])
        assert np.array_equal(system.eigenvectors, eigenvectors[r])


@pytest.mark.parametrize("disorder_w", [0.2, 10.0, 1e3, 1e5, 1e7])
def test_ladder_eigensystems_are_backward_stable(disorder_w):
    # the stability gate certify leaves measurement to must pass the band
    # solver's output at every disorder strength
    stack = np.stack([ladder_system(30, disorder_w, 0.2, i)[0].entries for i in range(10)])
    eigenvalues, eigenvectors = diagonalize(lower_band(stack))
    psi0 = np.broadcast_to(np.eye(60)[1], stack.shape[:2])
    assert spectral_mod._drift_bounds(stack, eigenvalues, eigenvectors, psi0)[2].all()


def test_diagonalize_raises_when_lapack_reports_a_failure(monkeypatch):
    def failing(*args):
        args[13]._obj.value = 7  # INFO, passed by reference

    monkeypatch.setattr(spectral_mod, "_openblas", lambda: SimpleNamespace(scipy_dsbevd_64_=failing))
    with pytest.raises(np.linalg.LinAlgError, match="dsbevd failed with info 7"):
        diagonalize(lower_band(np.eye(4)[None]))


def test_diagonalize_falls_back_to_eigh_without_the_library(monkeypatch):
    from qladder.experiments import transfer_sweep

    def means():
        sweep = transfer_sweep(30, [0.0, 0.2], [0.2, 10.0], 20, 42)
        return np.array([[stats.mean for stats in series] for series in sweep.values()])

    banded = means()
    monkeypatch.setattr(spectral_mod, "_openblas", lambda: None)
    dense = means()
    assert np.max(np.abs(dense - banded)) <= 1e-13
    stack = np.stack([ladder_system(index=i)[0].entries for i in range(3)])
    for ours, eighs in zip(diagonalize(lower_band(stack)), np.linalg.eigh(stack)):
        assert np.array_equal(ours, eighs)


@pytest.mark.parametrize("disorder_w", [0.2, 10.0, 100.0])
def test_certified_bounds_hold_along_evolved_trajectories(disorder_w):
    # the drift of every evolved state, measured directly, stays within the
    # bounds certify returns, both for the engine's start state and for a
    # random one
    n_sites, start = 30, 1
    stack = np.stack([ladder_system(n_sites, disorder_w, 0.2, i)[0].entries for i in range(4)])
    eigenvalues, eigenvectors = diagonalize(lower_band(stack))
    times = np.linspace(0.0, 10 * np.pi * n_sites / 4, 200)
    starts = [np.eye(stack.shape[-1])[start], np.random.default_rng(3).normal(size=stack.shape[-1])]
    for psi0 in starts:
        psi0 = np.broadcast_to(psi0 / np.linalg.norm(psi0), stack.shape[:2])
        assert certify(stack, eigenvalues, eigenvectors, psi0, times)[0].all()
        norm_bound, energy_bound, stable = spectral_mod._drift_bounds(
            stack, eigenvalues, eigenvectors, psi0
        )[:3]
        assert stable.all()
        norm_bound, energy_bound = norm_bound[:, None], energy_bound[:, None]
        re, im = propagate(eigenvalues, eigenvectors, psi0, times)
        norm_drift = np.abs(np.einsum("rdt,rdt->rt", re, re) + np.einsum("rdt,rdt->rt", im, im) - 1)
        energy = np.einsum("rdt,rdt->rt", re, stack @ re) + np.einsum("rdt,rdt->rt", im, stack @ im)
        energy0 = np.einsum("rd,rde,re->r", psi0, stack, psi0)
        assert np.all(norm_drift <= norm_bound)
        assert np.all(np.abs(energy - energy0[:, None]) <= energy_bound)


@pytest.mark.parametrize("corruption, message", [
    ("scaled", "norm drift bound"), ("shifted", "energy drift bound"),
    ("grossly scaled", "norm drift bound"),
])
def test_eigendecompose_certifies_its_eigensystem(monkeypatch, corruption, message):
    # the eigensystem is judged where a state is evolved through it; scaled by
    # 1.5, |V^T V - I| exceeds 1 and |H| has no finite bound
    op, _ = ladder_system()
    original = spectral_mod.diagonalize

    def corrupted(band):
        eigenvalues, eigenvectors = original(band)
        if corruption == "scaled":
            eigenvectors *= 1.001
        elif corruption == "grossly scaled":
            eigenvectors *= 1.5
        else:
            eigenvalues[0, 3] += 1e-6
        return eigenvalues, eigenvectors

    monkeypatch.setattr(spectral_mod, "diagonalize", corrupted)
    system = eigendecompose(op)
    with pytest.raises(ArithmeticError, match=message):
        evolve_series(system, bell_minus_state(op.dim // 2), [0.0, 1.0])


def test_rounding_of_a_large_matrix_is_measured_not_refused(monkeypatch):
    # at W = 1e5 the eigen-residual, ~1e-15 |H|, puts the energy bound over
    # its tolerance; the eigensystem is accurate to rounding, so certify
    # leaves it to a measurement, which passes, while an eigenvalue shifted
    # by far more than rounding is still refused
    op, system = ladder_system(n_sites=30, disorder_w=1e5)
    psi0 = random_state(system.dim, 5, op.basis)
    entries, start = op.entries[None], psi0.amplitudes[None]
    eigenvalues, eigenvectors = diagonalize(lower_band(entries))
    times = np.linspace(0.0, 100.0, 7)
    bounded = certify(entries, eigenvalues, eigenvectors, start, times)[0]
    assert not bounded[0]
    measured = []
    original = spectral_mod._measure_drift

    def measuring(entries, psi0, re, im):
        measured.append(re.shape)
        original(entries, psi0, re, im)

    monkeypatch.setattr(spectral_mod, "_measure_drift", measuring)
    for state in evolve_series(system, psi0, times):
        assert abs(state.norm_sq() - 1.0) <= NORM_TOL
    assert measured == [(1, system.dim, times.size)]
    eigenvalues[0, 30] += 1e-3
    with pytest.raises(ArithmeticError, match="energy drift bound"):
        certify(entries, eigenvalues, eigenvectors, start, times)


def test_evolve_series_certifies_the_state_it_evolves(monkeypatch):
    # the engine certifies this W = 1e4 matrix for the Bell start; evolving
    # the same start through evolve_series must not fall back to measurement,
    # as a bound for any start state (about 8.5e-9 in energy) would
    params = LadderParams(n_sites=30, disorder_w=1e4, detuning_delta=0.2)
    op = build_effective(sample_realization(params, derive_stream(42, 0)))
    psi0 = bell_minus_state(30)
    entries, start = op.entries[None], psi0.amplitudes.real[None]
    times = np.linspace(0.0, 100.0, 7)
    assert certify(entries, *diagonalize(lower_band(entries)), start, times)[0].all()

    def unexpected(*args):
        raise AssertionError("a certified evolution was measured")

    monkeypatch.setattr(spectral_mod, "_measure_drift", unexpected)
    states = evolve_series(eigendecompose(op), psi0, times)
    assert all(abs(state.norm_sq() - 1.0) <= NORM_TOL for state in states)


@pytest.mark.parametrize("dim", [2, 4, 6, 10])
def test_certify_accepts_eigh_output_at_small_dimensions(dim):
    # the solver is backward stable at every dimension, yet at D <= 4 its
    # orthonormality error can exceed D^2 u; scale random and oracle matrices until
    # their bounds exceed the tolerances and leave the verdict to the
    # stability gate, which must pass them on to measurement (here at no
    # readout time), never raise
    rng = np.random.default_rng(dim)
    scales = 10.0 ** rng.uniform(0.0, 9.0, size=300)
    noise = rng.normal(size=(300, dim, dim))
    dense = np.stack([scale * (a + a.T) for scale, a in zip(scales, noise)])
    ladders = np.stack([build_physical(uniform_ladder(dim // 2, delta, gamma)).entries
                        for delta, gamma in 10.0 ** rng.uniform(-1.0, 6.0, size=(50, 2))])
    # each group at its own half-bandwidth: D - 1, and the ladders' min(2, D - 1)
    systems = [diagonalize(lower_band(group)) for group in (dense, ladders)]
    eigenvalues, eigenvectors = (np.concatenate(parts) for parts in zip(*systems))
    entries = np.concatenate([dense, ladders])
    psi0 = rng.normal(size=entries.shape[:2]) + 1j * rng.normal(size=entries.shape[:2])
    psi0 /= np.linalg.norm(psi0, axis=1, keepdims=True)
    certified = certify(entries, eigenvalues, eigenvectors, psi0, times=())[0]
    assert not certified.all()  # the gate is reached


@pytest.mark.parametrize("t", [1e3, 123456.789, 1e6])
def test_the_eigen_error_bound_covers_the_rounding_of_the_phases(t):
    # a diagonal H has exact eigenvectors (e = r = 0), so the computed state
    # is off the exact one only by the rounding of L t, of cos and sin, and
    # of the products; at L t ~ 1e6 the first is ~1e-10, the last ~1e-15
    eigenvalues = np.array([[-1.2345678901234567, 0.7071067811865476, 3.141592653589793]])
    entries, eigenvectors = np.diag(eigenvalues[0])[None], np.eye(3)[None]
    psi0 = np.full((1, 3), 1 / np.sqrt(3))
    _, e, r, spread = certify(entries, eigenvalues, eigenvectors, psi0, [t])
    assert e[0] == r[0] == 0.0 and spread[0] == np.pi
    re, im = propagate(eigenvalues, eigenvectors, psi0, [t])
    error = 0.0
    for a, lam, x, y in zip(psi0[0], eigenvalues[0], re[0, :, 0], im[0, :, 0]):
        # L t = high + low exactly, so exp(-i L t) = exp(-i high) (1 - i low) to ~1e-16
        high = lam * t
        low = float(Fraction(lam) * Fraction(t) - Fraction(high))
        exact = a * complex(math.cos(high), -math.sin(high)) * complex(1.0, -low)
        error += abs(complex(x, y) - exact) ** 2
    assert math.sqrt(error) <= eigen_error_bound(e, r, spread, 3, t)[0]
    assert math.sqrt(error) > 2 * spectral_mod._gamma(6) * math.sqrt(3)  # the products' alone


def test_measured_drift_fails_above_the_tolerances():
    entries = np.diag([1.0, -1.0])[None]
    psi0 = np.array([[1.0, 0.0]])
    re = np.array([[[1.0, 0.6], [0.0, 0.8]]])  # unit norm, energy 1 -> -0.28
    measure = spectral_mod._measure_drift
    measure(entries, psi0, re[:, :, :1], np.zeros((1, 2, 1)))
    with pytest.raises(ArithmeticError, match=r"energy drift 1.280e\+00 exceeds"):
        measure(entries, psi0, re, np.zeros_like(re))
    with pytest.raises(ArithmeticError, match="norm drift 4.400e-01 exceeds"):
        measure(entries, psi0, 1.2 * re, np.zeros_like(re))
    # the complex start i e0 has energy psi0^* H psi0 = +1, where the
    # bilinear psi0^T H psi0 gives -1
    measure(entries, 1j * psi0, np.zeros((1, 2, 1)), re[:, :, :1])
    with pytest.raises(ArithmeticError, match=r"energy drift 1.280e\+00 exceeds"):
        measure(entries, 1j * psi0, np.zeros_like(re), re)


# ---------------------------------------------------------------------------
# time evolution
# ---------------------------------------------------------------------------

def test_evolve_at_zero_is_identity():
    _, sys = ladder_system()
    psi0 = random_state(sys.dim, 1, Basis.PLUS_MINUS)
    out = evolve(sys, psi0, 0.0)
    assert np.max(np.abs(out.amplitudes - psi0.amplitudes)) < 1e-14


def test_dimer_occupation_is_cos_squared():
    gamma = 0.8
    real = uniform_ladder(1, delta=0.0, gamma=gamma)
    sys = eigendecompose(build_physical(real))
    psi0 = unit_state(1, 1, Leg.ONE, Basis.PHYSICAL)
    for t in np.linspace(0.0, 6.0, 40):
        out = evolve(sys, psi0, t)
        occupation = abs(out.amplitudes[0]) ** 2
        assert occupation == pytest.approx(np.cos(gamma * t) ** 2, abs=1e-12)


def test_evolve_matches_rk4_integrator():
    # independent oracle: fixed-step 4th-order integration of i dpsi/dt = H psi
    op, sys = ladder_system(n_sites=3, index=5)
    psi0 = random_state(op.dim, 2, Basis.PLUS_MINUS)
    h = op.entries
    step = 1e-4
    psi = psi0.amplitudes.copy()
    rhs = lambda v: -1j * (h @ v)
    for _ in range(int(round(1.0 / step))):
        k1 = rhs(psi)
        k2 = rhs(psi + 0.5 * step * k1)
        k3 = rhs(psi + 0.5 * step * k2)
        k4 = rhs(psi + step * k3)
        psi = psi + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    spectral = evolve(sys, psi0, 1.0)
    assert np.max(np.abs(spectral.amplitudes - psi)) < 1e-6


def test_evolution_conserves_norm_and_energy():
    op, sys = ladder_system(disorder_w=8.0, index=7)
    psi0 = bell_minus_state(op.dim // 2)
    e0 = expectation(op, psi0)
    for state in evolve_series(sys, psi0, np.linspace(0.0, 200.0, 60)):
        assert abs(state.norm_sq() - 1.0) <= 1e-10
        assert abs(expectation(op, state) - e0) <= 1e-9


def test_evolution_composes_and_reverses():
    _, sys = ladder_system(index=2)
    psi0 = random_state(sys.dim, 3, Basis.PLUS_MINUS)
    t1, t2 = 1.7, 2.9
    combined = evolve(sys, psi0, t1 + t2)
    chained = evolve(sys, evolve(sys, psi0, t1), t2)
    assert np.max(np.abs(combined.amplitudes - chained.amplitudes)) < 1e-10
    back = evolve(sys, evolve(sys, psi0, t1), -t1)
    assert np.max(np.abs(back.amplitudes - psi0.amplitudes)) < 1e-10


def test_evolve_rejects_basis_mismatch_and_unnormalized_input():
    _, sys = ladder_system()
    with pytest.raises(BasisMismatchError):
        evolve(sys, random_state(sys.dim, 4, Basis.PHYSICAL), 1.0)
    bad = StateVector(np.full(sys.dim, 0.5 + 0j), Basis.PLUS_MINUS)
    with pytest.raises(ValueError):
        evolve(sys, bad, 1.0)
    with pytest.raises(ValueError, match="times must be finite"):
        evolve(sys, random_state(sys.dim, 4, Basis.PLUS_MINUS), np.nan)


# ---------------------------------------------------------------------------
# batched evolution
# ---------------------------------------------------------------------------

def test_series_of_single_zero_time():
    _, sys = ladder_system()
    psi0 = bell_minus_state(sys.dim // 2)
    states = evolve_series(sys, psi0, [0.0])
    assert len(states) == 1
    assert np.max(np.abs(states[0].amplitudes - psi0.amplitudes)) < 1e-14


def test_series_matches_individual_evolutions():
    _, sys = ladder_system(index=9)
    psi0 = random_state(sys.dim, 6, Basis.PLUS_MINUS)
    times = np.linspace(0.0, 30.0, 100)
    series = evolve_series(sys, psi0, times)
    for t, state in zip(times, series):
        single = evolve(sys, psi0, t)
        assert np.max(np.abs(state.amplitudes - single.amplitudes)) < 1e-12


def test_real_start_state_takes_the_complex_path_values():
    # a real psi0 skips the products with its zero imaginary part; the
    # states must equal those of the same psi0 passed as complex128
    stack = np.stack([ladder_system(index=i)[0].entries for i in range(3)])
    eigenvalues, eigenvectors = diagonalize(lower_band(stack))
    psi0 = np.random.default_rng(5).normal(size=stack.shape[:2])
    psi0 /= np.linalg.norm(psi0, axis=1, keepdims=True)
    times = np.linspace(0.0, 40.0, 30)
    re, im = propagate(eigenvalues, eigenvectors, psi0, times)
    re_c, im_c = propagate(eigenvalues, eigenvectors, psi0.astype(np.complex128), times)
    assert np.array_equal(re, re_c)
    assert np.array_equal(im, im_c)
    assert np.any(im != 0.0)


def test_propagated_rows_match_the_full_state():
    # evolving only some entries folds a into those eigenvector rows; the
    # entries must match the full evolution's to rounding, and psi0's own at t = 0
    stack = np.stack([ladder_system(index=i)[0].entries for i in range(3)])
    eigenvalues, eigenvectors = diagonalize(lower_band(stack))
    psi0 = np.random.default_rng(6).normal(size=stack.shape[:2]) * (1 + 0.5j)
    psi0 /= np.linalg.norm(psi0, axis=1, keepdims=True)
    times = np.linspace(0.0, 40.0, 30)
    re, im = propagate(eigenvalues, eigenvectors, psi0, times)
    for rows in (slice(1, None, 2), slice(-2, None), np.array([0, 5, 7])):
        re_k, im_k = propagate(eigenvalues, eigenvectors, psi0, times, rows)
        assert np.max(np.abs(re_k - re[:, rows])) < 1e-14
        assert np.max(np.abs(im_k - im[:, rows])) < 1e-14
        assert np.array_equal(re_k[:, :, 0], psi0.real[:, rows])
        assert np.array_equal(im_k[:, :, 0], psi0.imag[:, rows])


def test_series_rejects_unsorted_times():
    _, sys = ladder_system()
    psi0 = bell_minus_state(sys.dim // 2)
    with pytest.raises(ValueError):
        evolve_series(sys, psi0, [0.0, 2.0, 1.0])


def test_expectation_requires_matching_basis():
    op, _ = ladder_system()
    with pytest.raises(BasisMismatchError):
        expectation(op, random_state(op.dim, 8, Basis.PHYSICAL))


# ---------------------------------------------------------------------------
# Chebyshev kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [0.0, 1e-3, 0.5, 7.3, 61.0, 523.0, 1500.0])
def test_miller_bessel_values_match_scipy(x):
    from scipy.special import jv  # the reference only; the kernel never loads scipy

    count = chebyshev_mod._chebyshev_series(x)[0] + 40
    # scipy's own error grows with x: about 1e-14 at x = 523 against mpmath
    assert np.max(np.abs(bessel_j(x, count) - jv(np.arange(count), x))) < 1e-13


@pytest.mark.parametrize("x", [0.0, 0.5, 61.0, 523.0])
def test_chebyshev_terms_stop_where_the_tail_falls_below_rounding(x):
    terms, coefficients, tail, _ = chebyshev_mod._chebyshev_series(x)
    assert coefficients.size == terms + 1
    assert tail <= chebyshev_mod._UNIT_ROUNDOFF
    if terms:  # one term fewer leaves J_K in the tail
        assert tail + 2 * abs(coefficients[-1]) > chebyshev_mod._UNIT_ROUNDOFF
    assert terms >= x


def _factorial_tail(x, last):
    """2 sum_{k>last} (x/2)^k / k!, a bound on 2 sum_{k>last} |J_k(x)|, for
    last + 2 > x / 2 (inf where it is too large to be of use)."""
    if x == 0.0:
        return 0.0
    log_first = (last + 1) * math.log(x / 2) - math.lgamma(last + 2)
    if log_first > 700 or last + 2 <= x / 2:
        return math.inf
    return 2 * math.exp(log_first) / (1 - x / (2 * (last + 2)))


def _stepped_series(x):
    """The reference series: its Miller values run to the first order L,
    stepped up one at a time from ceil(x), where the factorial bound's tail
    is below u^2, and that bound takes the place of the tail past L."""
    last = math.ceil(x)
    while _factorial_tail(x, last) > chebyshev_mod._UNIT_ROUNDOFF**2:
        last += 1
    bessel = bessel_j(x, last + 1)
    tails = np.append(2 * np.cumsum(np.abs(bessel[:0:-1]))[::-1], 0.0) + _factorial_tail(x, last)
    terms = int(np.argmax(tails <= chebyshev_mod._UNIT_ROUNDOFF))
    return terms, bessel[: terms + 1], float(tails[terms])


def _assert_series_matches_the_reference(x):
    # K and the coefficients are the reference's bitwise; the tail is a
    # different valid bound: at most u, and at least the exact tail 2
    # sum_{k>K} |J_k| of a Miller run 300 orders longer, summed without rounding
    terms, coefficients, tail, _ = chebyshev_mod._chebyshev_series(x)
    expected = _stepped_series(x)
    assert terms == expected[0]
    assert np.array_equal(coefficients, expected[1])
    last = math.ceil(x + 15 * x ** (1 / 3)) + 20
    true_tail = 2 * sum(map(Fraction, np.abs(bessel_j(x, last + 301)[terms + 1:]).tolist()))
    assert true_tail <= Fraction(tail)
    assert tail <= chebyshev_mod._UNIT_ROUNDOFF


@pytest.mark.parametrize("x", [0.0, 1e-300, 1e-3, 0.5, 1.0, 2.0, 7.3, 61.0, 101.25, 523.0,
                               612.0, 1500.0, 2400.0, 5000.0])
def test_the_series_search_matches_stepping_bitwise(x):
    # past x ~ 2300 the factorial bound is inf at ceil(x) (the tail factor
    # (x/2)^(L+1)/(L+1)! overflows), so the reference steps through that stretch
    _assert_series_matches_the_reference(x)


def test_the_series_matches_stepping_on_the_kernels_range():
    # x = a tau reaches about 30 N before the switch rule sends a point to
    # the eigen path; N = 60 gives 1,800
    for x in np.arange(0.0, 1800.0, 7.25):
        _assert_series_matches_the_reference(float(x))


def test_the_tail_past_the_last_miller_order_bounds_the_true_tail():
    # 2 |J_L| q / (1 - q) against 2 sum_{k>L} |J_k| from a run 300 orders longer
    for x in (0.5, 61.0, 612.0, 1800.0):
        last = math.ceil(x + 15 * x ** (1 / 3)) + 20
        longer = bessel_j(x, last + 301)
        ratio = x / (2 * (last + 1) - x)
        bound = 2 * longer[last] * ratio / (1 - ratio)
        assert 0 < 2 * math.fsum(longer[last + 1:]) <= bound


def test_the_factorial_bound_is_inf_where_it_is_of_no_use():
    # the reference's bound: where last + 2 <= x / 2 its terms still grow, so it is no bound
    for x, last in ((10.0, 3), (100.0, 48), (5000.0, 100)):
        assert last + 2 <= x / 2 and _factorial_tail(x, last) == math.inf
    assert math.isinf(_factorial_tail(5000.0, 5000))  # too large to be of use
    assert _factorial_tail(0.0, 0) == 0.0


def _ladder_band(realization):
    """The +/- basis band of one realization as a stack of one."""
    cells = (realization.eps_leg1, realization.eps_leg2, realization.gamma_n)
    return effective_band(*(cell[None] for cell in cells), realization.couplings)


def _kernel_point(half_width, t):
    """The kernel's grid point of half-width a at time t: (a, its series)."""
    return half_width, chebyshev_mod._chebyshev_series(half_width * t)


@settings(max_examples=40, deadline=None)
@given(n_sites=st.integers(2, 12), w=st.floats(0.0, 20.0), delta=st.floats(0.0, 2.0),
       index=st.integers(0, 1000), span=st.floats(0.0, 2.0))
def test_chebyshev_states_match_evolve_series_within_the_derived_bound(
    n_sites, w, delta, index, span
):
    params = LadderParams(n_sites=n_sites, disorder_w=w, detuning_delta=delta)
    realization = sample_realization(params, derive_stream(11, index))
    band = _ladder_band(realization)
    t = span * transfer_time(n_sites)
    psi0 = bell_minus_state(n_sites)
    point = _kernel_point(_half_width(params), t)
    re, im = chebyshev_propagate(band, psi0.amplitudes.real[:, None], [point], [1])
    system = eigendecompose(build_effective(realization))
    reference = evolve_series(system, psi0, [t])[0].amplitudes
    entries = system.operator.entries[None]
    _, *errors = certify(entries, system.eigenvalues[None], system.eigenvectors[None],
                         psi0.amplitudes[None], [t])
    tolerance = point[1][-1] + eigen_error_bound(*errors, entries.shape[-1], t)[0]  # the kernel's
    assert np.linalg.norm(re[:, 0] + 1j * im[:, 0] - reference) <= tolerance


def test_the_band_holds_the_dense_matrix_entries():
    params = LadderParams(n_sites=6, disorder_w=2.0, detuning_delta=0.3)
    realization = sample_realization(params, derive_stream(5, 0))
    band, dense = _ladder_band(realization), build_effective(realization).entries
    for k, diagonal in enumerate(band):
        assert np.array_equal(np.broadcast_to(diagonal[:, 0], (dense.shape[0] - k,)),
                              np.diagonal(dense, -k))
    assert np.count_nonzero(np.triu(dense, 3)) == 0


@pytest.mark.parametrize("n_sites", [2, 3, 30])
@pytest.mark.parametrize("shared", [True, False], ids=["shared-hoppings", "per-column-hoppings"])
def test_the_ladder_product_matches_the_dense_matrices(n_sites, shared):
    # an entry of either product sums at most 4 nonzero products, so each is
    # within gamma_4 of |H| |x| of the exact one; 2 gamma_5 also covers the
    # rounding of the tolerance itself; the two chains' hoppings differ, as
    # they do in no sampled ladder, so that each is read from its own rows
    rng = np.random.default_rng(n_sites)
    count, dim = 7, 2 * n_sites
    band = [rng.uniform(-3.0, 3.0, (dim, count)), np.zeros((dim - 1, count)),
            rng.uniform(-1.0, 1.0, (dim - 2, 1 if shared else count))]
    band[1][0::2] = rng.uniform(-1.0, 1.0, (n_sites, count))  # the rungs
    ladder = (np.zeros((dim, count)), np.zeros((dim - 1, count)), np.zeros((1, n_sites, count)))
    chebyshev_mod._to_ladder(band, 1.0, ladder, count)
    x = rng.standard_normal((dim, count))
    state, out, scratch = (chebyshev_mod._views(buffer, n_sites) for buffer in
                           (np.concatenate([x[0::2], x[1::2]]), np.empty_like(x), np.empty_like(x)))
    product = chebyshev_mod._ladder_apply(ladder, state, out, scratch)
    applied = np.empty_like(x)
    applied[0::2], applied[1::2] = product[:n_sites], product[n_sites:]
    dense = hamiltonian_mod._dense(band)
    expected = (dense @ x.T[:, :, None])[:, :, 0].T
    tolerance = 2 * spectral_mod._gamma(5) * (np.abs(dense) @ np.abs(x).T[:, :, None])[:, :, 0].T
    assert np.all(np.abs(applied - expected) <= tolerance)


@pytest.mark.parametrize("fault", ["kd 3", "odd-row rung"])
def test_the_chebyshev_kernel_refuses_a_band_that_is_not_a_ladders(fault):
    params = LadderParams(n_sites=4, disorder_w=1.0, detuning_delta=0.2)
    band = _ladder_band(sample_realization(params, derive_stream(3, 0)))
    if fault == "kd 3":
        band.append(np.zeros((band[0].shape[0] - 3, 1)))
    else:
        band[1][1, 0] = 0.5  # slot 1 (cell 1's minus) to slot 2 (cell 2's plus)
    psi0 = bell_minus_state(4).amplitudes.real[:, None]
    with pytest.raises(ValueError, match="not a ladder's band: three diagonals, zeros between "
                                         "cells on the first"):
        chebyshev_propagate(band, psi0, [_kernel_point(_half_width(params), 1.0)], [1])


@pytest.mark.parametrize("corruption, message", [
    ("half-width", "Gershgorin radius"),
    ("non-finite", "Gershgorin radius"),
    ("non-unit", "norm drift"),
])
def test_the_chebyshev_judge_refuses(corruption, message):
    params = LadderParams(n_sites=8, disorder_w=3.0, detuning_delta=0.4)
    realization = sample_realization(params, derive_stream(2, 0))
    band = _ladder_band(realization)
    radius = np.max(np.sum(np.abs(build_effective(realization).entries), axis=1))
    psi0 = bell_minus_state(8).amplitudes.real[:, None]
    half_width = _half_width(params)
    if corruption == "half-width":
        half_width = radius * 0.99
    elif corruption == "non-finite":
        band[0][3, 0] = np.nan
    else:
        psi0 = psi0 * (1 + 1e-9)
    bufsize = np.getbufsize()
    with pytest.raises(ArithmeticError, match=message):
        chebyshev_propagate(band, psi0, [_kernel_point(half_width, transfer_time(8))], [1])
    assert np.getbufsize() == bufsize  # the kernel's own buffer size ends with it


def test_the_chebyshev_judge_does_not_share_the_recurrences_ladder(monkeypatch):
    # the ladder the recurrence runs on has its two branches' diagonals
    # swapped: every matrix stays symmetric, so the norms hold, but the
    # states are evolved by another H than the band's, whose energies the
    # judge reads from the band itself
    n_sites = 30
    params = LadderParams(n_sites=n_sites, disorder_w=5.0, detuning_delta=0.2)
    realizations = [sample_realization(params, derive_stream(42, index)) for index in range(8)]
    cells = [np.stack([getattr(realization, name) for realization in realizations])
             for name in ("eps_leg1", "eps_leg2", "gamma_n")]
    band = effective_band(*cells, realizations[0].couplings)
    psi0 = bell_minus_state(n_sites).amplitudes.real[:, None]
    original = chebyshev_mod._to_ladder

    def swapped(*args):  # the ladder is the third argument
        original(*args)
        diagonal = args[2][0]
        diagonal[:n_sites], diagonal[n_sites:] = diagonal[n_sites:].copy(), diagonal[:n_sites].copy()

    monkeypatch.setattr(chebyshev_mod, "_to_ladder", swapped)
    with pytest.raises(ArithmeticError, match="energy drift"):
        chebyshev_propagate(band, psi0, [_kernel_point(_half_width(params), transfer_time(n_sites))],
                            [len(realizations)])


def _seven_site_stack():
    """The +/- band of 5 realizations at N = 7, its Bell start as one (D, 1)
    column and its kernel point at tau: 5 columns pad to a stack of 8."""
    params = LadderParams(n_sites=7, disorder_w=3.0, detuning_delta=0.2)
    realizations = [sample_realization(params, derive_stream(4, index)) for index in range(5)]
    cells = [np.stack([getattr(realization, name) for realization in realizations])
             for name in ("eps_leg1", "eps_leg2", "gamma_n")]
    band = effective_band(*cells, realizations[0].couplings)
    return band, bell_minus_state(7).amplitudes.real[:, None], _kernel_point(
        _half_width(params), transfer_time(7))


def test_the_chebyshev_kernel_runs_at_its_own_buffer_size_and_restores_the_callers():
    # the states do not depend on the caller's ufunc buffer size, and the
    # call leaves it as it found it; N = 7 gives the halves view an odd N
    band, column, point = _seven_site_stack()
    psi0 = np.broadcast_to(column, band[0].shape)
    results = []
    for size in (np.getbufsize(), 32768, 16):
        outer = np.setbufsize(size)
        try:
            results.append(chebyshev_propagate(band, psi0, [point], [5]))
            assert np.getbufsize() == size
        finally:
            np.setbufsize(outer)
    for result in results[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(results[0], result))


@pytest.mark.parametrize("scale", [1.0, 1 + 1e-9], ids=["unit", "non-unit"])
def test_one_start_column_gives_what_the_start_broadcast_to_the_stack_gives(scale):
    # the same states bitwise, or the same refusal: the judge's verdict too
    band, column, point = _seven_site_stack()
    outcomes = []
    for psi0 in (column * scale, np.broadcast_to(column * scale, band[0].shape)):
        try:
            outcomes.append(chebyshev_propagate(band, psi0, [point], [5]))
        except ArithmeticError as exc:
            outcomes.append(str(exc))
    if scale == 1.0:
        (re, im), (re_broadcast, im_broadcast) = outcomes
        assert np.array_equal(re, re_broadcast) and np.array_equal(im, im_broadcast)
    else:
        assert outcomes[0] == outcomes[1] and outcomes[0].startswith("norm drift")


def test_a_start_that_fits_neither_one_column_nor_the_stack_is_refused():
    band, column, point = _seven_site_stack()
    with pytest.raises(ValueError, match=r"start states \(14, 3\) do not fit the band's \(14, 5\)"):
        chebyshev_propagate(band, np.repeat(column, 3, axis=1), [point], [5])
