#!/usr/bin/env python3
"""Reference value of the disorder-induced concurrence gain of acceptance criterion 5.

Criterion 5 compares the mean end-cell concurrence C(tau) at W = 0.2 and
W = 10 (N = 30, Delta = 0.2, t = tau = pi*N/4). This script estimates the
ensemble gain C(W=10) - C(W=0.2) from many paired realizations at master
seeds other than the criterion's own seed 42, so the criterion's sample is
checked against a value it did not produce.

Every realization is evaluated on two paths:

  engine  transfer_sweep: the Chebyshev kernel on the +/- basis band, which
          the switch rule picks at both W, in stacks of 400 realizations
  expm    build_physical + scipy.linalg.expm applied to the site-basis Bell
          state (|1,leg1> - |1,leg2>)/sqrt(2); C = 2|f1 f2| is read straight
          from the last rung, with no basis change

Both ensemble means are printed per seed, with the largest per-realization
deviation between the paths; the script exits 1 if that exceeds 1e-10. The
gain is the mean of the per-realization differences (W = 0.2 and W = 10 share
realization streams), pooled over all seeds; its standard error is the sample
standard deviation of the differences over sqrt(count). Took 36 s on
one core of a 2-vCPU VM:

    python scripts/criterion5_reference.py
"""

import os
import sys
import time

# A BLAS thread pool slows 60 x 60 expm down: 12 ms against 0.5 ms on one
# thread (2-vCPU VM, OpenBLAS 0.3.31). Set before numpy loads; an explicit
# setting wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
from scipy.linalg import expm  # noqa: E402

from qladder.ensemble import derive_stream  # noqa: E402
from qladder.experiments import transfer_sweep  # noqa: E402
from qladder.hamiltonian import build_physical  # noqa: E402
from qladder.model import LadderParams, sample_realization  # noqa: E402
from qladder.observables import transfer_time  # noqa: E402

N_SITES = 30
DELTA = 0.2
W_LOW, W_HIGH = 0.2, 10.0
SEEDS = (1, 2, 3, 7, 1234)  # criterion 5 runs at 42
REALIZATIONS_PER_SEED = 2000
PATH_TOL = 1e-10


def expm_concurrence(w: float, master_seed: int, index: int) -> float:
    """C(tau) of one realization by dense site-basis propagation."""
    params = LadderParams(n_sites=N_SITES, disorder_w=w, detuning_delta=DELTA)
    h = build_physical(sample_realization(params, derive_stream(master_seed, index))).entries
    psi0 = np.zeros(2 * N_SITES, dtype=np.complex128)
    psi0[0] = 1.0 / np.sqrt(2.0)
    psi0[1] = -1.0 / np.sqrt(2.0)
    psi = expm(-1j * transfer_time(N_SITES) * h) @ psi0
    return 2.0 * abs(psi[-2]) * abs(psi[-1])


def run_seed(master_seed: int, n_realizations: int):
    """Engine and expm values of C(tau) at both W, shape (2, n_realizations) each."""
    sweep = transfer_sweep(
        n_sites=N_SITES,
        deltas=(DELTA,),
        w_grid=[W_LOW, W_HIGH],
        n_realizations=n_realizations,
        master_seed=master_seed,
        keep_raw=True,
    )
    engine = np.stack([stats.per_realization for stats in sweep[DELTA]])
    direct = np.array(
        [
            [expm_concurrence(w, master_seed, i) for i in range(n_realizations)]
            for w in (W_LOW, W_HIGH)
        ]
    )
    return engine, direct


def main() -> int:
    start = time.perf_counter()
    diffs = []
    worst = 0.0
    print(f"N={N_SITES} delta={DELTA} W={W_LOW} vs W={W_HIGH} t=pi*N/4")
    print("seed  path    mean C(W=0.2)  mean C(W=10)  gain")
    for seed in SEEDS:
        engine, direct = run_seed(seed, REALIZATIONS_PER_SEED)
        deviation = float(np.max(np.abs(engine - direct)))
        worst = max(worst, deviation)
        for name, values in (("engine", engine), ("expm", direct)):
            low, high = values.mean(axis=1)
            print(f"{seed:<5d} {name:<7s} {low:.5f}        {high:.5f}       {high - low:.5f}")
        print(f"{seed:<5d} max |engine - expm| = {deviation:.1e}")
        diffs.append(engine[1] - engine[0])

    diff = np.concatenate(diffs)
    gain = float(diff.mean())
    gain_se = float(diff.std(ddof=1)) / np.sqrt(diff.size)
    print(
        f"pooled gain {gain:.5f} +- {gain_se:.5f} over {diff.size} paired realizations "
        f"(seeds {' '.join(str(s) for s in SEEDS)}; "
        f"max |engine - expm| {worst:.1e}; {time.perf_counter() - start:.0f} s)"
    )
    if worst > PATH_TOL:
        print(f"engine and expm disagree by {worst:.1e} > {PATH_TOL:.0e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
