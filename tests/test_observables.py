import numpy as np
import pytest

from qladder.ensemble import derive_stream
from qladder.hamiltonian import (
    Basis,
    Branch,
    Leg,
    StateVector,
    bell_minus_state,
    build_effective,
    build_physical,
    to_plus_minus,
    unit_state,
)
from qladder.model import LadderParams, sample_realization, uniform_ladder
from qladder.observables import branch_occupation, concurrence, leg_occupation, transfer_time
from qladder.spectral import eigendecompose, evolve, evolve_series


# ---------------------------------------------------------------------------
# concurrence
# ---------------------------------------------------------------------------

def test_minus_branch_cell_is_maximally_entangled():
    n = 6
    state = unit_state(n, cell=n, slot=Branch.MINUS, basis=Basis.PLUS_MINUS)
    assert concurrence(state, n) == pytest.approx(1.0, abs=1e-15)


def test_single_site_excitation_is_separable():
    n = 6
    state = unit_state(n, cell=n, slot=Leg.ONE, basis=Basis.PHYSICAL)
    assert concurrence(state, n) == 0.0


def test_concurrence_of_amplitude_pair():
    n = 4
    amps = np.zeros(2 * n, dtype=complex)
    amps[2 * (n - 1)] = 0.8
    amps[2 * (n - 1) + 1] = 0.6
    state = StateVector(amps, Basis.PHYSICAL)
    assert concurrence(state, n) == pytest.approx(0.96, abs=1e-15)


def test_concurrence_cell_out_of_range():
    state = bell_minus_state(4)
    with pytest.raises(ValueError):
        concurrence(state, 5)
    with pytest.raises(ValueError):
        concurrence(state, 0)


def test_concurrence_bounds_and_invariances():
    rng = np.random.default_rng(11)
    n = 5
    for _ in range(10**4):
        amps = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
        state = StateVector(amps / np.linalg.norm(amps), Basis.PHYSICAL)
        c = concurrence(state, 3)
        assert 0.0 <= c <= 1.0 + 1e-12
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        rotated = StateVector(phase * state.amplitudes, Basis.PHYSICAL)
        assert concurrence(rotated, 3) == pytest.approx(c, abs=1e-12)
        # round trip through the +/- basis changes nothing
        assert concurrence(to_plus_minus(state), 3) == pytest.approx(c, abs=1e-12)


# ---------------------------------------------------------------------------
# branch and leg occupations
# ---------------------------------------------------------------------------

def test_branch_occupation_of_initial_state():
    state = bell_minus_state(8)
    assert branch_occupation(state, Branch.MINUS) == 1.0
    assert branch_occupation(state, Branch.PLUS) == 0.0


def test_single_leg_excitation_splits_between_branches():
    state = unit_state(8, cell=3, slot=Leg.ONE, basis=Basis.PHYSICAL)
    assert branch_occupation(state, Branch.MINUS) == pytest.approx(0.5, abs=1e-15)
    assert branch_occupation(state, Branch.PLUS) == pytest.approx(0.5, abs=1e-15)


def test_occupations_sum_to_one():
    rng = np.random.default_rng(3)
    amps = rng.normal(size=12) + 1j * rng.normal(size=12)
    state = StateVector(amps / np.linalg.norm(amps), Basis.PHYSICAL)
    assert branch_occupation(state, Branch.PLUS) + branch_occupation(
        state, Branch.MINUS
    ) == pytest.approx(1.0, abs=1e-12)
    assert leg_occupation(state, Leg.ONE) + leg_occupation(state, Leg.TWO) == pytest.approx(
        1.0, abs=1e-12
    )


def test_zero_detuning_trajectory_stays_in_minus_branch():
    # legs decouple exactly, so the protected branch keeps all probability
    params = LadderParams(n_sites=10, disorder_w=7.0, detuning_delta=0.0)
    real = sample_realization(params, derive_stream(21, 0))
    sys = eigendecompose(build_effective(real))
    psi0 = bell_minus_state(10)
    for state in evolve_series(sys, psi0, np.linspace(0.0, 100.0, 50)):
        assert abs(branch_occupation(state, Branch.MINUS) - 1.0) < 1e-10


def test_leg_occupation_examples():
    state = unit_state(5, cell=2, slot=Leg.ONE, basis=Basis.PHYSICAL)
    assert leg_occupation(state, Leg.ONE) == 1.0
    minus = unit_state(5, cell=2, slot=Branch.MINUS, basis=Basis.PLUS_MINUS)
    assert leg_occupation(minus, Leg.ONE) == pytest.approx(0.5, abs=1e-15)


# ---------------------------------------------------------------------------
# transfer time
# ---------------------------------------------------------------------------

def test_transfer_time_values():
    assert transfer_time(30) == pytest.approx(7.5 * np.pi, abs=1e-15)
    assert transfer_time(4) == pytest.approx(np.pi, abs=1e-15)
    assert transfer_time(2) == pytest.approx(np.pi / 2, abs=1e-15)


def test_transfer_time_rejects_short_chain():
    with pytest.raises(ValueError):
        transfer_time(1)


def test_two_site_chain_fully_transfers_at_tau():
    # single-leg Rabi check: occupation moves end to end at t = pi/2
    real = uniform_ladder(2, delta=0.0, gamma=0.0)
    sys = eigendecompose(build_physical(real))
    psi0 = unit_state(2, 1, Leg.ONE, Basis.PHYSICAL)
    out = evolve(sys, psi0, transfer_time(2))
    assert abs(out.amplitudes[2]) ** 2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n_sites", [2, 4, 30])
def test_ordered_even_ladder_reaches_full_concurrence(n_sites):
    real = uniform_ladder(n_sites, 0.0, 0.0)
    sys = eigendecompose(build_effective(real))
    out = evolve(sys, bell_minus_state(n_sites), transfer_time(n_sites))
    assert concurrence(out, n_sites) >= 1.0 - 1e-6


@pytest.mark.parametrize("n_sites", [3, 5, 9])
def test_exact_revival_time_for_odd_chains(n_sites):
    real = uniform_ladder(n_sites, 0.0, 0.0)
    sys = eigendecompose(build_effective(real))
    tau = transfer_time(n_sites, exact_revival=True)
    assert tau == pytest.approx(np.pi * np.sqrt(n_sites**2 - 1) / 4.0, abs=1e-15)
    out = evolve(sys, bell_minus_state(n_sites), tau)
    assert concurrence(out, n_sites) >= 1.0 - 1e-6
