"""Gate algebra: standard matrices, placement-aware embedding, fast kernels.

Two gate placements cover everything the automaton needs:

* ``ControlledFlip`` -- flips one target qubit when every control qubit is 1.
  With no controls it is a plain X.  Dense form is a 0/1 permutation matrix.
* ``LocalUnitary`` -- an arbitrary small unitary acting on a listed set of
  bit positions; ascending bit positions map to ascending significance
  inside the small matrix, mirroring the register convention.

``apply_gate`` updates a state vector without materializing the dense
operator and runs gate scripts; ``embed_gate``/``compose_dense`` build
dense operators (capped at 10 qubits) and serve as the testing oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

MAX_DENSE_QUBITS = 10

UNITARY_TOL = 1e-12

_SQRT2_INV = 1.0 / np.sqrt(2.0)

_STANDARD = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "H": _SQRT2_INV * np.array([[1, 1], [1, -1]], dtype=np.complex128),
    # Control is the more significant qubit: |10> -> |11>, |11> -> |10>.
    "CN": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        dtype=np.complex128,
    ),
    # Both controls more significant than the target: swaps |110> and |111>.
    "CCN": np.eye(8, dtype=np.complex128)[
        [0, 1, 2, 3, 4, 5, 7, 6]
    ].astype(np.complex128),
}


def standard_gate(name: str) -> np.ndarray:
    """Return a copy of a named standard gate matrix (I, X, H, CN, CCN)."""
    try:
        return _STANDARD[name].copy()
    except KeyError:
        raise ValueError(f"unknown gate name {name!r}") from None


def is_unitary(matrix: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    d = matrix.shape[0]
    if matrix.shape != (d, d):
        return False
    return bool(
        np.max(np.abs(matrix.conj().T @ matrix - np.eye(d))) <= tol
    )


@dataclass(frozen=True)
class ControlledFlip:
    """Flip `target` when all `controls` bits are 1; X when controls is empty."""

    controls: frozenset[int]
    target: int

    def __init__(self, controls, target: int):
        object.__setattr__(self, "controls", frozenset(controls))
        object.__setattr__(self, "target", int(target))
        if self.target in self.controls:
            raise ValueError("target qubit cannot also be a control")
        if self.target < 0 or any(c < 0 for c in self.controls):
            raise ValueError("bit positions must be nonnegative")

    def bits(self) -> frozenset[int]:
        return self.controls | {self.target}


@dataclass(frozen=True)
class LocalUnitary:
    """A small unitary on the listed bit positions (ascending order).

    Bit m of the small-matrix index is the qubit at ``qubits[m]``.
    """

    qubits: tuple[int, ...]
    matrix: np.ndarray = field(compare=False)

    def __init__(self, qubits: Sequence[int], matrix: np.ndarray):
        qubits = tuple(int(q) for q in qubits)
        matrix = np.asarray(matrix, dtype=np.complex128)
        if list(qubits) != sorted(set(qubits)):
            raise ValueError("qubit positions must be strictly ascending")
        if any(q < 0 for q in qubits):
            raise ValueError("bit positions must be nonnegative")
        d = 1 << len(qubits)
        if matrix.shape != (d, d):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match {len(qubits)} qubits"
            )
        if not is_unitary(matrix):
            raise ValueError("gate matrix is not unitary within 1e-12")
        matrix.setflags(write=False)
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "matrix", matrix)

    def bits(self) -> frozenset[int]:
        return frozenset(self.qubits)


GateOp = Union[ControlledFlip, LocalUnitary]


def _check_gate_fits(gate: GateOp, n_qubits: int) -> None:
    if max(gate.bits()) >= n_qubits:
        raise ValueError(
            f"gate touches bit {max(gate.bits())}, register has {n_qubits} qubits"
        )


def embed_gate(gate: GateOp, n_qubits: int) -> np.ndarray:
    """Dense 2**n x 2**n operator realizing `gate` on an n-qubit register."""
    if n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"dense operators are limited to {MAX_DENSE_QUBITS} qubits, got {n_qubits}"
        )
    _check_gate_fits(gate, n_qubits)
    dim = 1 << n_qubits
    if isinstance(gate, ControlledFlip):
        control_mask = 0
        for c in gate.controls:
            control_mask |= 1 << c
        flip = 1 << gate.target
        op = np.zeros((dim, dim), dtype=np.complex128)
        for k in range(dim):
            image = k ^ flip if (k & control_mask) == control_mask else k
            op[image, k] = 1.0
        return op
    # LocalUnitary: scatter the small matrix over every setting of the
    # untouched bits.
    touched = list(gate.qubits)
    rest = [p for p in range(n_qubits) if p not in gate.qubits]
    small = gate.matrix
    d = small.shape[0]
    op = np.zeros((dim, dim), dtype=np.complex128)
    for r in range(1 << len(rest)):
        base = 0
        for m, p in enumerate(rest):
            if (r >> m) & 1:
                base |= 1 << p
        spread = [0] * d
        for i in range(d):
            v = 0
            for m, p in enumerate(touched):
                if (i >> m) & 1:
                    v |= 1 << p
            spread[i] = base | v
        for i in range(d):
            for j in range(d):
                op[spread[i], spread[j]] = small[i, j]
    return op


def apply_gate(state: np.ndarray, gate: GateOp) -> np.ndarray:
    """Apply `gate` to `state` and return the new state vector.

    The controlled-flip path is an exact amplitude permutation; the local
    unitary path contracts the small matrix against the touched axes.  The
    input is never mutated.
    """
    n = int(state.size).bit_length() - 1
    if state.size != 1 << n:
        raise ValueError("state length is not a power of two")
    _check_gate_fits(gate, n)
    if isinstance(gate, ControlledFlip):
        psi = state.copy().reshape([2] * n)
        # Axis i of the reshaped tensor holds bit n-1-i.
        sel: list = [slice(None)] * n
        for c in gate.controls:
            sel[n - 1 - c] = 1
        t_ax = n - 1 - gate.target
        sel0, sel1 = list(sel), list(sel)
        sel0[t_ax] = 0
        sel1[t_ax] = 1
        sel0, sel1 = tuple(sel0), tuple(sel1)
        tmp = psi[sel0].copy()
        psi[sel0] = psi[sel1]
        psi[sel1] = tmp
        return psi.reshape(-1)
    if len(gate.qubits) == 1:
        # Dominant case in compiled rules; avoids the moveaxis round-trip.
        p = gate.qubits[0]
        psi = state.reshape(-1, 2, 1 << p)
        u = gate.matrix
        out = np.empty_like(psi)
        a, b = psi[:, 0, :], psi[:, 1, :]
        out[:, 0, :] = u[0, 0] * a + u[0, 1] * b
        out[:, 1, :] = u[1, 0] * a + u[1, 1] * b
        return out.reshape(-1)
    k = len(gate.qubits)
    axes = [n - 1 - p for p in reversed(gate.qubits)]
    psi = np.moveaxis(state.reshape([2] * n), axes, range(k))
    shape = psi.shape
    block = gate.matrix @ psi.reshape(1 << k, -1)
    return np.moveaxis(block.reshape(shape), range(k), axes).reshape(-1).copy()


def compose_dense(gates: Sequence[GateOp], n_qubits: int) -> np.ndarray:
    """Dense product of embedded gates; the first gate acts first on states."""
    op = np.eye(1 << n_qubits, dtype=np.complex128)
    for gate in gates:
        op = embed_gate(gate, n_qubits) @ op
    return op
