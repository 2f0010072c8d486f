#!/usr/bin/env python3
"""Print the least wall time of one update, from a dense state and from a
basis state, and of one script timestep from the dense state, at 5, 8, 10
and 12 cells on float64 and complex128 states.

The update is one `both`/`cyclic`/`h_s_then_cn` update, the interaction
gather and every cell's contraction, with its kernels built beforehand as
`rules.update_kernels` builds them once a run.  The script timestep is H on
every qubit, its kernels built by `gates.gate_kernels`: H on bits 0 to 5 is
one run on tiles at every size.  The dense state is random; the basis
state is |1>.  Each time is the least of REPEATS runs of `gates.advance` on
the same buffers.  A 12-cell complex state is 256 MiB, and this program holds
three of them and the 128 MiB gather index.

    PYTHONPATH=src python3 scripts/update_timing.py
"""

import time

import numpy as np

from qca2 import gates, rules
from qca2.rules import H_S_THEN_CN_EVAL, BoundaryCondition, NeighborhoodRule, QcaConfig

CELLS = (5, 8, 10, 12)
REPEATS = 5


def _least(kernels, start: np.ndarray, psi: np.ndarray, spare: np.ndarray,
           repeats: int) -> float:
    """Least wall time of `repeats` runs of `kernels` on a copy of `start`
    in `psi`, with `spare` as the other buffer."""
    best = float("inf")
    for _ in range(repeats):
        np.copyto(psi, start)
        began = time.perf_counter()
        gates.advance(psi, kernels, spare)
        best = min(best, time.perf_counter() - began)
    return best


def update_times(cells: int, dtype, repeats: int = REPEATS) -> tuple[float, float, float]:
    """Least wall time, in seconds, of one update of a dense `cells`-cell
    state of `dtype`, of one from the basis state |1>, and of one script
    timestep of H on every qubit of the dense state."""
    config = QcaConfig(cells, NeighborhoodRule.BOTH, BoundaryCondition.CYCLIC, H_S_THEN_CN_EVAL)
    kernels, = rules.update_kernels(config, dtype)
    rng, n = np.random.default_rng(cells), config.n_qubits
    hadamards = [gates.LocalUnitary((q,), gates.H) for q in range(n)]
    script = list(gates.gate_kernels(hadamards, n, dtype))
    dense = rng.normal(size=1 << n) if dtype == np.float64 else \
        rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    dense /= np.linalg.norm(dense)
    psi, spare = np.empty_like(dense), np.empty_like(dense)
    dense_s = _least(kernels, dense, psi, spare, repeats)
    script_s = _least(script, dense, psi, spare, repeats)
    del dense
    return dense_s, _least(kernels, rules.basis_state(n, 1, dtype), psi, spare, repeats), script_s


def main() -> None:
    print(f"{'cells':>5}  {'dtype':<10}  {'dense_s':>9}  {'basis_s':>9}  {'script_s':>9}")
    for cells in CELLS:
        for dtype in (np.float64, np.complex128):
            dense, basis, script = update_times(cells, dtype)
            print(f"{cells:>5}  {np.dtype(dtype).name:<10}  {dense:>9.6f}  {basis:>9.6f}"
                  f"  {script:>9.6f}", flush=True)


if __name__ == "__main__":
    main()
