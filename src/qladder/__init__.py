"""Disorder-protected entanglement transfer through two-leg ladder qubit chains.

Builds the single-excitation ladder Hamiltonians (site and +/- bases), evolves
a dual-rail encoded Bell state by exact diagonalization, and measures the
end-cell concurrence and inter-branch leakage over seeded disorder ensembles.
"""

__version__ = "0.1.0"

from .dimer_oracle import rabi_frequency, uniform_leg_occupation
from .ensemble import (
    DEFAULT_MASTER_SEED,
    EnsembleConfig,
    EnsembleStats,
    ObservablePlan,
    derive_stream,
    run_ensemble,
)
from .experiments import (
    leakage_trace,
    oracle_check,
    ordered_baseline,
    transfer_sweep,
)
from .hamiltonian import (
    Basis,
    BasisMismatchError,
    Branch,
    HermitianOperator,
    Leg,
    StateVector,
    bell_minus_state,
    build_effective,
    build_physical,
    to_physical,
    to_plus_minus,
    unit_state,
)
from .model import (
    DisorderRealization,
    LadderParams,
    build_pst_couplings,
    effective_parameters,
    sample_realization,
    uniform_ladder,
)
from .observables import (
    TransferReport,
    branch_occupation,
    concurrence,
    leg_occupation,
    transfer_time,
)
from .spectral import EigenSystem, eigendecompose, evolve, evolve_series, expectation
