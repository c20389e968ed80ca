import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qladder.dimer_oracle import rabi_frequency, uniform_leg_occupation
from qladder.hamiltonian import Basis, Leg, StateVector, build_physical, unit_state
from qladder.model import DisorderRealization, build_pst_couplings
from qladder.observables import leg_occupation
from qladder.spectral import eigendecompose, evolve_series

nonzero_gamma = st.floats(min_value=0.05, max_value=10.0).flatmap(
    lambda g: st.sampled_from([g, -g])
)


# ---------------------------------------------------------------------------
# closed-form occupation
# ---------------------------------------------------------------------------

def test_resonant_occupation_reduces_to_cos_squared():
    assert uniform_leg_occupation(0.0, 0.5, np.pi) == pytest.approx(0.0, abs=1e-12)
    ts = np.linspace(0.0, 10.0, 50)
    assert np.allclose(
        uniform_leg_occupation(0.0, 0.5, ts), np.cos(0.5 * ts) ** 2, atol=1e-12
    )


def test_half_rabi_period_occupation():
    # delta=2, gamma=1: Omega = 2*sqrt(2), cos(Omega t) = -1 at t = pi/Omega
    t_half = np.pi / (2.0 * np.sqrt(2.0))
    assert uniform_leg_occupation(2.0, 1.0, t_half) == pytest.approx(0.5, abs=1e-12)


def test_decoupled_legs_keep_all_probability():
    ts = np.linspace(0.0, 5.0, 11)
    assert np.array_equal(uniform_leg_occupation(1.3, 0.0, ts), np.ones(11))


@given(
    st.floats(min_value=-6, max_value=6),
    nonzero_gamma,
    st.floats(min_value=0, max_value=50),
)
def test_occupation_is_periodic_and_bounded(delta, gamma, t):
    omega = rabi_frequency(delta, gamma)
    p = uniform_leg_occupation(delta, gamma, t)
    shifted = uniform_leg_occupation(delta, gamma, t + 2.0 * np.pi / omega)
    assert shifted == pytest.approx(p, abs=1e-9)
    floor = 1.0 - 4.0 * gamma**2 / omega**2
    assert floor - 1e-12 <= p <= 1.0 + 1e-12


def test_oscillation_floor_is_attained():
    delta, gamma = 3.0, 0.7
    omega = rabi_frequency(delta, gamma)
    at_bottom = uniform_leg_occupation(delta, gamma, np.pi / omega)
    assert at_bottom == pytest.approx(1.0 - 4.0 * gamma**2 / omega**2, abs=1e-12)


# ---------------------------------------------------------------------------
# factorization out of the intra-leg dynamics
# ---------------------------------------------------------------------------

def detuned_ladder(delta, gamma, eps_leg1, couplings):
    """A ladder of uniform detuning and rung coupling with the leg-1
    energies ``eps_leg1`` and the intra-leg ``couplings``."""
    eps_leg1 = np.asarray(eps_leg1, dtype=np.float64)
    delta_n, gamma_n = np.full_like(eps_leg1, delta), np.full_like(eps_leg1, gamma)
    return DisorderRealization(eps_leg1=eps_leg1, eps_leg2=eps_leg1 + delta_n, delta_n=delta_n,
                               gamma_n=gamma_n, couplings=couplings)


@pytest.mark.parametrize("n_sites", [1, 2, 5, 10])
def test_leg_occupation_is_chain_length_independent(n_sites):
    delta, gamma = 1.0, 0.3
    ts = np.linspace(0.0, 20.0, 81)
    real = detuned_ladder(delta, gamma, np.zeros(n_sites), np.full(n_sites - 1, 0.8))
    sys = eigendecompose(build_physical(real))
    psi0 = unit_state(n_sites, 1, Leg.ONE, Basis.PHYSICAL)
    numeric = np.array(
        [leg_occupation(s, Leg.ONE) for s in evolve_series(sys, psi0, ts)]
    )
    closed = uniform_leg_occupation(delta, gamma, ts)
    assert np.max(np.abs(numeric - closed)) < 1e-8


def test_leg_occupation_matches_for_spread_initial_state():
    # any leg-1-confined state works, not just a single site
    n_sites = 6
    delta, gamma = 0.7, 0.45
    real = detuned_ladder(delta, gamma, np.linspace(-1, 1, n_sites), build_pst_couplings(n_sites))
    sys = eigendecompose(build_physical(real))
    rng = np.random.default_rng(17)
    amps = np.zeros(2 * n_sites, dtype=complex)
    amps[0::2] = rng.normal(size=n_sites) + 1j * rng.normal(size=n_sites)
    amps /= np.linalg.norm(amps)
    psi0 = StateVector(amps, Basis.PHYSICAL)
    ts = np.linspace(0.0, 15.0, 61)
    numeric = np.array(
        [leg_occupation(s, Leg.ONE) for s in evolve_series(sys, psi0, ts)]
    )
    closed = uniform_leg_occupation(delta, gamma, ts)
    assert np.max(np.abs(numeric - closed)) < 1e-8
