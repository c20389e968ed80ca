import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qladder.ensemble import derive_stream
from qladder.model import (
    DisorderRealization,
    LadderParams,
    build_pst_couplings,
    effective_parameters,
    sample_realization,
    uniform_ladder,
)


# ---------------------------------------------------------------------------
# engineered couplings
# ---------------------------------------------------------------------------

def test_pst_couplings_two_sites():
    assert build_pst_couplings(2).tolist() == [1.0]


def test_pst_couplings_four_sites():
    expected = [np.sqrt(3) / 2.0, 1.0, np.sqrt(3) / 2.0]
    assert np.allclose(build_pst_couplings(4), expected, rtol=0, atol=1e-15)


def test_pst_couplings_thirty_sites():
    j = build_pst_couplings(30)
    assert j.size == 29
    # exhaustive scan: raw profile sqrt(n(30-n)) peaks at n = 15
    raw = [np.sqrt(n * (30 - n)) for n in range(1, 30)]
    assert max(range(29), key=lambda k: raw[k]) == 14
    assert j[14] == 1.0
    assert j[0] == pytest.approx(np.sqrt(29) / 15.0, abs=1e-15)
    assert np.allclose(j, j[::-1], rtol=0, atol=0)


def test_pst_couplings_rejects_short_chain():
    with pytest.raises(ValueError):
        build_pst_couplings(1)


@given(st.integers(min_value=2, max_value=200))
def test_pst_couplings_palindromic_with_unit_max(n_sites):
    j = build_pst_couplings(n_sites)
    assert j.size == n_sites - 1
    assert np.array_equal(j, j[::-1])
    # max exactly 1 at coupling n = floor(N/2) (0-based index floor(N/2) - 1)
    assert j[n_sites // 2 - 1] == 1.0
    assert np.argmax(j) == n_sites // 2 - 1


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_params_accept_detuning_above_disorder():
    # the detuning amplitude is set independently of the disorder strength
    params = LadderParams(n_sites=10, disorder_w=0.1, detuning_delta=0.5)
    assert params.detuning_delta == 0.5


def test_params_reject_bad_sizes():
    with pytest.raises(ValueError):
        LadderParams(n_sites=1, disorder_w=1.0, detuning_delta=0.0)
    with pytest.raises(ValueError):
        LadderParams(n_sites=4, disorder_w=-1.0, detuning_delta=0.0)


# ---------------------------------------------------------------------------
# disorder sampling
# ---------------------------------------------------------------------------

def test_sample_clean_limit_is_exactly_zero():
    params = LadderParams(n_sites=6, disorder_w=0.0, detuning_delta=0.0)
    real = sample_realization(params, derive_stream(1, 0))
    assert np.array_equal(real.eps_leg1, np.zeros(6))
    assert np.array_equal(real.eps_leg2, np.zeros(6))
    assert np.array_equal(real.delta_n, np.zeros(6))
    assert np.array_equal(real.gamma_n, np.zeros(6))


def test_sample_zero_detuning_copies_leg():
    params = LadderParams(n_sites=8, disorder_w=10.0, detuning_delta=0.0)
    real = sample_realization(params, derive_stream(3, 5))
    assert np.array_equal(real.eps_leg2, real.eps_leg1)
    assert np.array_equal(real.gamma_n, real.eps_leg1)
    assert np.all(np.abs(real.eps_leg1) <= 10.0)


def test_sample_bounds_and_mean():
    params = LadderParams(n_sites=10**5, disorder_w=1.0, detuning_delta=0.2)
    real = sample_realization(params, derive_stream(2024, 0))
    assert np.all(np.abs(real.eps_leg1) <= 1.0)
    assert np.all(np.abs(real.delta_n) <= 0.2)
    # uniform[-1,1]: sigma of the sample mean is 1/sqrt(3)/sqrt(M)
    three_sigma = 3.0 / np.sqrt(3.0) / np.sqrt(10**5)
    assert abs(real.eps_leg1.mean()) < three_sigma


def test_sample_is_bitwise_reproducible():
    params = LadderParams(n_sites=12, disorder_w=2.0, detuning_delta=0.3)
    a = sample_realization(params, derive_stream(99, 7))
    b = sample_realization(params, derive_stream(99, 7))
    for name in ("eps_leg1", "eps_leg2", "delta_n", "gamma_n", "couplings"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_draw_consumes_leg1_then_detuning():
    # stream contract: N leg-1 draws first, then N detuning draws
    params = LadderParams(n_sites=7, disorder_w=2.0, detuning_delta=0.3)
    drawn = sample_realization(params, derive_stream(99, 7))
    eps_leg1, delta_n = drawn.eps_leg1, drawn.delta_n
    replay = derive_stream(99, 7)
    assert np.array_equal(eps_leg1, replay.uniform(-2.0, 2.0, size=7))
    assert np.array_equal(delta_n, replay.uniform(-0.3, 0.3, size=7))
    real = sample_realization(params, derive_stream(99, 7))
    assert np.array_equal(real.eps_leg1, eps_leg1)
    assert np.array_equal(real.delta_n, delta_n)


def test_realization_rejects_inconsistent_leg2():
    zeros = np.zeros(3)
    with pytest.raises(ValueError):
        DisorderRealization(
            eps_leg1=zeros,
            eps_leg2=zeros + 0.1,
            delta_n=zeros,
            gamma_n=zeros,
            couplings=np.ones(2),
        )


def test_realization_arrays_are_immutable():
    real = uniform_ladder(4, 0.1, 0.5)
    with pytest.raises(ValueError):
        real.eps_leg1[0] = 1.0


# ---------------------------------------------------------------------------
# effective (+/-) parameters
# ---------------------------------------------------------------------------

def test_effective_parameters_direct_substitution():
    eps_plus, eps_minus, gamma_tilde = effective_parameters(0.5, 0.3, 0.5)
    assert eps_plus == pytest.approx(0.9, abs=1e-15)
    assert eps_minus == pytest.approx(-0.1, abs=1e-15)
    assert gamma_tilde == pytest.approx(0.1, abs=1e-15)


@given(st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_effective_parameters_identical_cells_decouple(eps):
    eps_plus, eps_minus, gamma_tilde = effective_parameters(eps, eps, eps)
    assert eps_plus == 2 * eps
    assert eps_minus == 0.0
    assert gamma_tilde == 0.0


@given(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)
def test_effective_parameters_detuned_copy(eps, delta):
    # channel condition: disorder in the minus branch carries only the detuning
    eps_plus, eps_minus, gamma_tilde = effective_parameters(eps, eps + delta, eps)
    assert eps_minus == pytest.approx(delta / 2.0, abs=1e-12)
    assert gamma_tilde == pytest.approx(-delta / 2.0, abs=1e-12)
    assert eps_plus == pytest.approx((4.0 * eps + delta) / 2.0, abs=1e-9)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=1000), st.floats(min_value=0, max_value=50))
def test_sampled_realizations_satisfy_channel_identities(index, disorder_w):
    params = LadderParams(
        n_sites=9, disorder_w=disorder_w, detuning_delta=min(disorder_w, 0.4)
    )
    real = sample_realization(params, derive_stream(5, index))
    eps_plus, eps_minus, gamma_tilde = effective_parameters(
        real.eps_leg1, real.eps_leg2, real.gamma_n
    )
    assert np.allclose(eps_minus, real.delta_n / 2.0, rtol=0, atol=1e-12)
    assert np.allclose(gamma_tilde, -real.delta_n / 2.0, rtol=0, atol=1e-12)
    assert np.allclose(eps_plus, (4.0 * real.eps_leg1 + real.delta_n) / 2.0, rtol=0, atol=1e-9)


def test_uniform_ladder_single_cell():
    real = uniform_ladder(1, 0.5, 0.3)
    assert real.n_sites == 1
    assert real.couplings.size == 0
    assert real.eps_leg2[0] == 0.5
    assert real.gamma_n[0] == 0.3
