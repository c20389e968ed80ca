"""A many-body anchor for the single-excitation model and the concurrence.

The 2N-qubit XX ladder is built here from Pauli matrices with ``np.kron``,
with none of the engine's band layout, +/- parameters or basis change, and
evolved from (sigma+_(1,1) - sigma+_(1,2)) |0...0> / sqrt(2) by its full
eigendecomposition. Cell N's reduced density matrix rho then gives what the
engine reads from one excitation: the concurrence (Wootters, PRL 80, 2245
(1998)) of end-to-end transfer (Bose, PRL 91, 207901 (2003)), the leg
amplitudes and the minus-branch occupation p_-.

Every tolerance is the sum of the engine's own error bounds (the kernel's
from its series, known before the run, and ``eigen_error_bound``) and the
same bound for the many-body eigensystem, carried through each readout.
"""

import math

import numpy as np
import pytest

import qladder.ensemble as ensemble_mod
from qladder.ensemble import EnsembleConfig, derive_stream, run_ensemble
from qladder.observables import transfer_time
from qladder.spectral import _UNIT_ROUNDOFF, _gamma, eigen_error_bound

SEED, DELTA = 7, 0.2
# |1><0| on one qubit, in the basis (|0>, |1>): it adds the excitation
RAISE = np.array([[0.0, 0.0], [1.0, 0.0]])


def _on(operator, qubit, count):
    """``operator`` on qubit ``qubit`` of ``count``, qubit 0 the most significant."""
    return np.kron(np.kron(np.eye(2**qubit), operator), np.eye(2 ** (count - qubit - 1)))


def _qubit(cell, leg):
    """Cell n (1-based), leg 1 or 2: the qubits run cell by cell."""
    return 2 * (cell - 1) + leg - 1


def _terms(n_sites):
    """The number operators, as diagonals, and the XX hopping
    sigma+_i sigma-_j + h.c. of each rung and of each leg bond."""
    count = 2 * n_sites
    raising = [_on(RAISE, qubit, count) for qubit in range(count)]
    numbers = [np.diagonal(up @ up.T).copy() for up in raising]

    def hop(i, j):
        one_way = raising[i] @ raising[j].T
        return one_way + one_way.T

    rungs = [hop(_qubit(n, 1), _qubit(n, 2)) for n in range(1, n_sites + 1)]
    legs = [hop(_qubit(n, leg), _qubit(n + 1, leg))
            for n in range(1, n_sites) for leg in (1, 2)]
    return numbers, rungs, legs


def _draws(n_sites, w, index):
    """eps_(n,1), eps_(n,2) and gamma_n of realization ``index``: the first N
    draws of its stream uniform on [-W, W], the next N the detunings on
    [-Delta, Delta], eps_(n,2) = eps_(n,1) + delta_n and gamma_n = eps_(n,1)."""
    stream = derive_stream(SEED, index)
    eps1 = stream.uniform(-w, w, n_sites)
    return eps1, eps1 + stream.uniform(-DELTA, DELTA, n_sites), eps1


def _many_body(n_sites, w, index, terms, times):
    """The evolved states (T, 2^2N) and their distance bound per time."""
    numbers, rungs, legs = terms
    eps1, eps2, gamma = _draws(n_sites, w, index)
    hop = np.sqrt(np.arange(1, n_sites) * (n_sites - np.arange(1, n_sites)))
    hop /= hop.max()
    energies = sum(eps1[n] * numbers[_qubit(n + 1, 1)] + eps2[n] * numbers[_qubit(n + 1, 2)]
                   for n in range(n_sites))
    h = (np.diag(energies) + sum(g * rung for g, rung in zip(gamma, rungs))
         + sum(hop[k // 2] * leg for k, leg in enumerate(legs)))
    dim = h.shape[0]
    psi0 = np.zeros(dim)
    psi0[2 ** (2 * n_sites - 1 - _qubit(1, 1))] = 1 / math.sqrt(2)
    psi0[2 ** (2 * n_sites - 1 - _qubit(1, 2))] = -1 / math.sqrt(2)
    values, vectors = np.linalg.eigh(h)
    gram = vectors.T @ vectors - np.eye(dim)
    e = np.linalg.norm(gram)
    r = np.linalg.norm(h @ vectors - vectors * values)
    spread = np.max(np.abs(values))
    weights = vectors.T @ psi0
    states = np.array([vectors @ (np.exp(-1j * values * t) * weights) for t in times])
    return states, np.array([eigen_error_bound(e, r, spread, dim, t) for t in times])


def _end_cell(state):
    """Cell N's 4 x 4 reduced density matrix, basis |leg 1, leg 2> = |00>,
    |01>, |10>, |11>: its two qubits are the least significant."""
    pairs = state.reshape(-1, 4)
    return pairs.T @ pairs.conj()


def _concurrence_spectrum(rho):
    """The eigenvalues mu of rho rho~, rho~ = (sy x sy) rho* (sy x sy), largest first."""
    flip = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    mu = np.linalg.eigvals(rho @ flip @ rho.conj() @ flip)
    return mu[np.argsort(-mu.real)]


@pytest.mark.parametrize("n_sites, w, count, kernel", [
    (3, 0.5, 20, True),
    (3, 10.0, 20, False),
    (3, 1e3, 20, False),
    (4, 0.5, 10, True),
    (4, 10.0, 10, True),
], ids=["N3-W0.5-kernel", "N3-W10-eigen", "N3-W1e3-eigen", "N4-W0.5-kernel", "N4-W10-kernel"])
def test_the_engine_reads_what_the_many_body_ladder_gives(n_sites, w, count, kernel):
    config = EnsembleConfig(n_sites, [(w, DELTA)], count, SEED)
    (params,) = config.grid
    point = ensemble_mod._chebyshev_chosen(params)
    assert (point is not None) == kernel  # which path C(tau) takes
    tau = transfer_time(n_sites)
    dim = 2 ** (2 * n_sites)

    concurrence = run_ensemble(config, keep_raw=True)[0].per_realization
    segment = ensemble_mod._Segment(0, params, point,
                                    ensemble_mod._unit_uniforms(SEED, n_sites, count), 0, count)
    ends, errors = ensemble_mod._eigen_readout(*ensemble_mod._band_and_start([segment]), [tau],
                                               slice(-2, None), ensemble_mod._ends)
    times = tau * np.array([0.25, 1.0, 2.0])
    trace = ensemble_mod._branch_trace(times, [segment])
    # each engine state is within these of the exact one, at tau and at each trace time
    eigen = eigen_error_bound(*errors, 2 * n_sites, tau)
    engine = eigen + (point[1][-1] if kernel else 0.0)
    traced = np.array([eigen_error_bound(*errors, 2 * n_sites, t) for t in times]).T

    terms = _terms(n_sites)
    # p_- = sum_n <(s+_(n,1) - s+_(n,2)) (s-_(n,1) - s-_(n,2))> / 2 = (N_exc - sum rungs) / 2
    minus_projector = (np.diag(sum(terms[0])) - sum(terms[1])) / 2
    rho_rounding = _gamma(dim) + 8 * _UNIT_ROUNDOFF  # rho's sums of dim / 4 products, and the leg map
    mu_rounding = 16 * rho_rounding  # mu_1 is 4 rho_11 rho_22 to first order; the 4 x 4 solve
    for index in range(count):
        states, distance = _many_body(n_sites, w, index, terms, [tau, *times])
        s = engine[index] + distance[0]
        rho = _end_cell(states[0])
        plus, minus = ends[:, index]
        leg1, leg2 = (plus + minus) / math.sqrt(2), (plus - minus) / math.sqrt(2)
        # |f g* - f' g'*| <= |f - f'| |g| + |f'| |g - g'| <= s (2 + s)
        legs_tolerance = s * (2 + s) + rho_rounding
        assert abs(rho[2, 2] - abs(leg1) ** 2) <= legs_tolerance
        assert abs(rho[1, 1] - abs(leg2) ** 2) <= legs_tolerance
        assert abs(rho[2, 1] - leg1 * np.conj(leg2)) <= legs_tolerance
        mu = _concurrence_spectrum(rho)
        assert np.all(np.abs(mu[1:]) <= 4 * distance[0] + mu_rounding)
        root = math.sqrt(mu[0].real)
        # C = 2 |f_1| |f_2|, and | |f g| - |f' g'| | <= |f g* - f' g'*|
        assert abs(root - concurrence[index]) <= 2 * s * (2 + s) + mu_rounding / root
        for state, bound, engine_bound, p_minus in zip(states[1:], distance[1:], traced[index],
                                                       trace[index]):
            s = engine_bound + bound
            expected = np.vdot(state, minus_projector @ state).real
            assert abs(expected - p_minus) <= s * (2 + s) + 2 * _gamma(dim)
