"""Disorder-protected entanglement transfer through two-leg ladder qubit chains.

Builds the single-excitation ladder Hamiltonians (site and +/- bases), evolves
a dual-rail encoded Bell state by exact diagonalization, and measures the
end-cell concurrence and inter-branch leakage over seeded disorder ensembles.
"""

__version__ = "0.1.0"
