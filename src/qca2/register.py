"""Qubit layout of the automaton register and global state vectors.

Each cell j owns two qubits: the controlled qubit c_j at bit position 2j and
the state qubit s_j at bit position 2j+1.  Bit p of a basis index contributes
2**p, so higher cell indices occupy more significant bits and the all-cells
ket reads left-to-right from the most significant cell down.  With this
convention the three-cell ket |100000> is basis index 32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_CELLS = 12
MAX_QUBITS = 24

NORM_TOL = 1e-9


class NormDriftError(ValueError):
    """A state's squared norm drifted from one by more than NORM_TOL."""


@dataclass(frozen=True)
class RegisterLayout:
    """Cell-to-bit-position mapping for a register of two-qubit cells."""

    n_cells: int

    def __post_init__(self) -> None:
        if not 1 <= self.n_cells <= MAX_CELLS:
            raise ValueError(f"n_cells must be in 1..{MAX_CELLS}, got {self.n_cells}")

    @property
    def n_qubits(self) -> int:
        return 2 * self.n_cells

    @property
    def n_states(self) -> int:
        return 1 << self.n_qubits

    def c_bit(self, cell: int) -> int:
        """Bit position of the controlled qubit of `cell`."""
        self._check_cell(cell)
        return 2 * cell

    def s_bit(self, cell: int) -> int:
        """Bit position of the state qubit of `cell`."""
        self._check_cell(cell)
        return 2 * cell + 1

    def bit_position(self, cell: int, role: str) -> int:
        """Bit position for (`cell`, `role`), role being "s" or "c"."""
        if role == "c":
            return self.c_bit(cell)
        if role == "s":
            return self.s_bit(cell)
        raise ValueError(f"role must be 's' or 'c', got {role!r}")

    def _check_cell(self, cell: int) -> None:
        if not 0 <= cell < self.n_cells:
            raise IndexError(f"cell index {cell} out of range for {self.n_cells} cells")


def basis_state(n_qubits: int, index: int, dtype=np.complex128) -> np.ndarray:
    """Return the computational basis state with the given index.

    The result is a vector of length 2**n_qubits with a single unit
    amplitude at `index`.  Its dtype is complex128 unless `dtype` says
    otherwise; runs whose matrices are all real pass float64.
    """
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}")
    dim = 1 << n_qubits
    if not 0 <= index < dim:
        raise IndexError(f"basis index {index} out of range for {n_qubits} qubits")
    state = np.zeros(dim, dtype=dtype)
    state[index] = 1.0
    return state


def probabilities(state: np.ndarray) -> np.ndarray:
    """Measurement probabilities of every basis state.

    Requires a normalized state (squared norm within 1e-9 of one).
    """
    probs = np.abs(state) ** 2
    norm = probs.sum()
    if abs(norm - 1.0) > NORM_TOL:
        raise NormDriftError(f"state not normalized: squared norm {norm!r}")
    return probs
