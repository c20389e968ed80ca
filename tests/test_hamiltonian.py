import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qladder.ensemble import EnsembleConfig, derive_stream, run_ensemble
from qladder.hamiltonian import (
    Basis,
    BasisMismatchError,
    Branch,
    HermitianOperator,
    Leg,
    StateVector,
    bell_minus_state,
    build_effective,
    build_physical,
    effective_band,
    flat_index,
    to_physical,
    to_plus_minus,
    unit_state,
    _dense,
    _ladder_band,
)
from qladder.model import DisorderRealization, LadderParams, sample_realization, uniform_ladder
from qladder.spectral import _band

SQRT1_2 = 1.0 / np.sqrt(2.0)


def random_realization(n_sites, index, disorder_w=5.0, detuning_delta=0.4):
    params = LadderParams(
        n_sites=n_sites, disorder_w=disorder_w, detuning_delta=detuning_delta
    )
    return sample_realization(params, derive_stream(1234, index))


def dimer(eps_leg1, delta, gamma):
    """The one-cell ladder with leg-1 energy ``eps_leg1``."""
    return DisorderRealization(eps_leg1=[eps_leg1], eps_leg2=[eps_leg1 + delta], delta_n=[delta],
                               gamma_n=[gamma], couplings=[])


def random_state(n_sites, rng, basis=Basis.PHYSICAL):
    amps = rng.normal(size=2 * n_sites) + 1j * rng.normal(size=2 * n_sites)
    return StateVector(amps / np.linalg.norm(amps), basis)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_single_cell_dimer_matrix():
    real = dimer(0.5, delta=-0.2, gamma=0.7)
    h = build_physical(real)
    assert np.allclose(h.entries, [[0.5, 0.7], [0.7, 0.3]], rtol=0, atol=1e-15)


def test_two_cells_decoupled_legs_spectrum():
    real = uniform_ladder(2, delta=0.0, gamma=0.0)
    h = build_physical(real)
    assert np.allclose(np.linalg.eigvalsh(h.entries), [-1.0, -1.0, 1.0, 1.0], atol=1e-14)


def test_physical_matches_term_by_term_oracle():
    # independent assembly: enumerate every term of the three Hamiltonian sums
    real = random_realization(3, index=0)
    n = real.n_sites
    oracle = np.zeros((2 * n, 2 * n))
    for cell in range(1, n + 1):
        for leg in (0, 1):
            k = 2 * (cell - 1) + leg
            eps = real.eps_leg1[cell - 1] if leg == 0 else real.eps_leg2[cell - 1]
            oracle[k, k] += eps
    for cell in range(1, n):
        for leg in (0, 1):
            a = 2 * (cell - 1) + leg
            b = 2 * cell + leg
            oracle[a, b] += real.couplings[cell - 1]
            oracle[b, a] += real.couplings[cell - 1]
    for cell in range(1, n + 1):
        a = 2 * (cell - 1)
        oracle[a, a + 1] += real.gamma_n[cell - 1]
        oracle[a + 1, a] += real.gamma_n[cell - 1]
    assert np.array_equal(build_physical(real).entries, oracle)


@pytest.mark.parametrize("n_sites", [1, 2, 7])
def test_the_site_basis_band_holds_the_realization_fields(n_sites):
    # read against the fields themselves: slots (leg 1, leg 2) per cell, the
    # rung within a cell only, each hopping on both legs
    rng = np.random.default_rng(n_sites)
    eps_leg1, delta_n = rng.uniform(-1.0, 1.0, n_sites), rng.uniform(-1.0, 1.0, n_sites)
    real = DisorderRealization(eps_leg1=eps_leg1, eps_leg2=eps_leg1 + delta_n, delta_n=delta_n,
                               gamma_n=rng.uniform(0.5, 1.0, n_sites),
                               couplings=rng.uniform(0.5, 1.0, n_sites - 1))
    cells = (real.eps_leg1, real.eps_leg2, real.gamma_n)
    band = _ladder_band(*(cell[None] for cell in cells), real.couplings)
    diag, rung, hop = (diagonal[:, 0] for diagonal in band)
    assert np.array_equal(diag, [e for cell in zip(real.eps_leg1, real.eps_leg2) for e in cell])
    assert np.array_equal(rung, [g for gamma in real.gamma_n for g in (gamma, 0.0)][:-1])
    assert np.array_equal(hop, [j for coupling in real.couplings for j in (coupling, coupling)])
    # the dimer's 2 x 2 matrix has half-bandwidth 1, every longer ladder 2
    assert len(_band(_dense(band)[0])) == min(3, 2 * n_sites)


def test_effective_single_cell_example():
    real = dimer(0.5, delta=-0.2, gamma=0.5)
    h = build_effective(real)
    assert np.allclose(h.entries, [[0.9, 0.1], [0.1, -0.1]], rtol=0, atol=1e-15)


def test_effective_zero_detuning_block_diagonal():
    params = LadderParams(n_sites=7, disorder_w=8.0, detuning_delta=0.0)
    real = sample_realization(params, derive_stream(11, 2))
    h = build_effective(real).entries
    minus = 2 * np.arange(7) + 1
    plus = 2 * np.arange(7)
    assert np.array_equal(h[plus, minus], np.zeros(7))
    assert np.array_equal(h[minus, minus], np.zeros(7))


@pytest.mark.parametrize("n_sites", [2, 5, 9, 16])
def test_physical_and_effective_are_isospectral(n_sites):
    for index in range(5):
        real = random_realization(n_sites, index)
        w_phys = np.linalg.eigvalsh(build_physical(real).entries)
        w_eff = np.linalg.eigvalsh(build_effective(real).entries)
        assert np.max(np.abs(w_phys - w_eff)) < 1e-10


# c of the bound below, fixed before the property first ran: over 20,000
# (N, W, Delta, seed) drawn by numpy from the property's ranges, the worst
# deviation was 3.35 D u max(1, ||H||), at N = 3 and W = 935
_ISOSPECTRAL_C = 8


@settings(max_examples=100, deadline=None)
@given(n_sites=st.integers(2, 30), disorder_w=st.floats(0.0, 1e3),
       detuning_delta=st.floats(0.0, 1.0), seed=st.integers(0, 2**63))
def test_the_bases_are_isospectral_over_drawn_realizations(n_sites, disorder_w,
                                                           detuning_delta, seed):
    params = LadderParams(n_sites=n_sites, disorder_w=disorder_w, detuning_delta=detuning_delta)
    real = sample_realization(params, derive_stream(seed, 0))
    w_phys = np.linalg.eigvalsh(build_physical(real).entries)
    w_eff = np.linalg.eigvalsh(build_effective(real).entries)
    norm = max(1.0, abs(w_phys[0]), abs(w_phys[-1]))  # ||H||_2 of the symmetric H
    u = np.finfo(np.float64).eps / 2
    assert np.max(np.abs(w_phys - w_eff)) <= _ISOSPECTRAL_C * 2 * n_sites * u * norm


def test_traces_match():
    real = random_realization(10, index=4)
    h_phys = build_physical(real)
    h_eff = build_effective(real)
    assert np.trace(h_phys.entries) == pytest.approx(np.trace(h_eff.entries), abs=1e-10)


def test_operator_rejects_asymmetric_entries():
    bad = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        HermitianOperator(bad, Basis.PHYSICAL)


def test_effective_stack_checks_each_matrix():
    reals = [random_realization(4, index=k) for k in range(4)]
    fields = ("eps_leg1", "eps_leg2", "gamma_n", "couplings")
    arrays = [np.stack([getattr(r, f) for r in reals]) for f in fields]
    stack = _dense(effective_band(*arrays))
    assert stack.shape == (4, 8, 8)
    for k, real in enumerate(reals):
        assert np.array_equal(stack[k], build_effective(real).entries)
    # at W = Delta = 8e307 the drawn fields are finite, but a plus-branch
    # energy 2 eps_1 + delta/2 can pass the float range, as it does for
    # realization 0 on the checked single-realization path; the engine
    # refuses its band before diagonalizing it
    params = LadderParams(n_sites=8, disorder_w=8e307, detuning_delta=8e307)
    with pytest.raises(ValueError, match="non-finite"):
        build_effective(sample_realization(params, derive_stream(1234, 0)))
    config = EnsembleConfig(n_sites=8, grid=[(8e307, 8e307)], n_realizations=7,
                            master_seed=1234, trace_times=[0.0, 1.0])
    with pytest.raises(RuntimeError, match=r"realization 0 \(seed tag 1234:0, .*non-finite"):
        run_ensemble(config)


def test_operator_rejects_odd_dimension():
    with pytest.raises(ValueError):
        HermitianOperator(np.zeros((3, 3)), Basis.PHYSICAL)


# ---------------------------------------------------------------------------
# basis change
# ---------------------------------------------------------------------------

def test_single_leg_excitation_splits_equally():
    state = unit_state(4, cell=2, slot=Leg.ONE, basis=Basis.PHYSICAL)
    mixed = to_plus_minus(state)
    plus, minus = mixed.cell_pair(2)
    assert plus == pytest.approx(SQRT1_2, abs=1e-15)
    assert minus == pytest.approx(SQRT1_2, abs=1e-15)


def test_bell_pair_maps_to_minus_branch():
    n = 3
    amps = np.zeros(2 * n, dtype=complex)
    amps[flat_index(1, Leg.ONE, n)] = SQRT1_2
    amps[flat_index(1, Leg.TWO, n)] = -SQRT1_2
    mixed = to_plus_minus(StateVector(amps, Basis.PHYSICAL))
    expected = bell_minus_state(n)
    assert np.allclose(mixed.amplitudes, expected.amplitudes, rtol=0, atol=1e-15)


def test_round_trip_is_identity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        state = random_state(6, rng)
        back = to_physical(to_plus_minus(state))
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-14


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=-1, max_value=1), min_size=8, max_size=8))
def test_basis_change_preserves_norm(values):
    amps = np.array(values[:4]) + 1j * np.array(values[4:])
    if np.linalg.norm(amps) < 1e-6:
        amps = amps + 1.0
    state = StateVector(amps / np.linalg.norm(amps), Basis.PHYSICAL)
    mixed = to_plus_minus(state)
    assert mixed.norm_sq() == pytest.approx(1.0, abs=1e-13)


def test_basis_change_conjugates_hamiltonians():
    # applying the physical operator in the +/- frame equals the effective operator
    rng = np.random.default_rng(42)
    for index in range(5):
        real = random_realization(8, index)
        h_phys = build_physical(real).entries
        h_eff = build_effective(real).entries
        state = random_state(8, rng, basis=Basis.PLUS_MINUS)
        via_physical = to_plus_minus(
            StateVector(h_phys @ to_physical(state).amplitudes, Basis.PHYSICAL)
        )
        direct = h_eff @ state.amplitudes
        assert np.max(np.abs(via_physical.amplitudes - direct)) < 1e-10


def test_wrong_basis_tag_raises():
    state = bell_minus_state(4)
    with pytest.raises(BasisMismatchError):
        to_plus_minus(state)
    with pytest.raises(BasisMismatchError):
        to_physical(to_physical(state))


def test_flat_index_bounds():
    assert flat_index(1, 0, 5) == 0
    assert flat_index(5, 1, 5) == 9
    with pytest.raises(ValueError):
        flat_index(6, 0, 5)
    with pytest.raises(ValueError):
        flat_index(0, 0, 5)


def test_branch_and_leg_slots():
    assert int(Branch.PLUS) == 0 and int(Branch.MINUS) == 1
    assert int(Leg.ONE) == 0 and int(Leg.TWO) == 1
