"""Figures of merit: end-cell concurrence, branch/leg occupations, transfer time."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import Basis, Branch, Leg, StateVector, to_physical, to_plus_minus

__all__ = [
    "TransferReport",
    "concurrence",
    "branch_occupation",
    "leg_occupation",
    "transfer_time",
]


@dataclass(frozen=True)
class TransferReport:
    """Concurrence of the final cell at the evaluation time."""

    concurrence_at_tau: float
    tau: float


def concurrence(state: StateVector, cell: int) -> float:
    """Two-qubit concurrence 2*|f1*f2| of one cell, from site-basis amplitudes.

    For a normalized single-excitation pure state this is 0 for a separable
    cell and 1 for a maximally entangled one. States tagged +/- are converted
    internally.
    """
    if state.basis is Basis.PLUS_MINUS:
        state = to_physical(state)
    amp1, amp2 = state.cell_pair(cell)
    return 2.0 * abs(amp1) * abs(amp2)


def branch_occupation(state: StateVector, branch: Branch) -> float:
    """Total occupation probability of the + or - branch."""
    if state.basis is Basis.PHYSICAL:
        state = to_plus_minus(state)
    amps = state.amplitudes.reshape(-1, 2)[:, int(branch)]
    return float(np.sum(np.abs(amps) ** 2))


def leg_occupation(state: StateVector, leg: Leg) -> float:
    """Total occupation probability of one physical leg."""
    if state.basis is Basis.PLUS_MINUS:
        state = to_physical(state)
    amps = state.amplitudes.reshape(-1, 2)[:, int(leg)]
    return float(np.sum(np.abs(amps) ** 2))


def transfer_time(n_sites: int, exact_revival: bool = False) -> float:
    """End-to-end transfer time pi*N/4 of the normalized engineered chain.

    For even N this coincides with the exact revival of the
    sqrt(n(N-n))/max profile; for odd N the exact revival happens at
    pi*sqrt(N^2-1)/4 instead, selected by ``exact_revival``.
    """
    if n_sites < 2:
        raise ValueError(f"n_sites must be at least 2 (sites per leg), got {n_sites}")
    if exact_revival and n_sites % 2:
        return math.pi * math.sqrt(n_sites**2 - 1) / 4.0
    return math.pi * n_sites / 4.0
