"""Gate algebra: standard matrices, two state-vector kernels, dense oracle.

Two gate placements cover everything the automaton needs:

* ``ControlledFlip`` -- flips one target qubit when every control qubit is 1.
  With no controls it is a plain X.  Dense form is a 0/1 permutation matrix.
* ``LocalUnitary`` -- a small unitary on a block of contiguous bit positions;
  ascending bit positions map to ascending significance inside the small
  matrix, mirroring the register convention.

``flip_source`` turns commuting flips into one index gather and ``contract``
applies a small matrix to a block of bits.  Compiled rules and gate scripts
(``apply_gate``) run on these two kernels alone.  Dense operators (capped
at 10 qubits) are built without them: ``permutation_matrix`` maps a list of
flips one basis index at a time, ``embed_gate`` places one gate with
``kron``, and ``compose_dense`` multiplies embedded gates as the tests'
generic oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

MAX_DENSE_QUBITS = 10

UNITARY_TOL = 1e-12

_SQRT2_INV = 1.0 / np.sqrt(2.0)

_STANDARD = {
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "H": _SQRT2_INV * np.array([[1, 1], [1, -1]], dtype=np.complex128),
    # Control is the more significant qubit: |10> -> |11>, |11> -> |10>.
    "CN": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        dtype=np.complex128,
    ),
}


def standard_gate(name: str) -> np.ndarray:
    """Return a copy of a named standard gate matrix (X, H, CN)."""
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
    """A small unitary on contiguous bit positions, listed in ascending order.

    Bit m of the small-matrix index is the qubit at ``qubits[m]``.
    """

    qubits: tuple[int, ...]
    matrix: np.ndarray = field(compare=False)

    def __init__(self, qubits: Sequence[int], matrix: np.ndarray):
        qubits = tuple(int(q) for q in qubits)
        matrix = np.asarray(matrix, dtype=np.complex128)
        if not qubits or qubits != tuple(range(qubits[0], qubits[0] + len(qubits))):
            raise ValueError("qubit positions must be contiguous and ascending")
        if qubits[0] < 0:
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


def _check_dense_size(n_qubits: int) -> None:
    if n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"dense operators are limited to {MAX_DENSE_QUBITS} qubits, got {n_qubits}"
        )


def embed_gate(gate: GateOp, n_qubits: int) -> np.ndarray:
    """Dense 2**n x 2**n operator realizing `gate` on an n-qubit register."""
    if isinstance(gate, ControlledFlip):
        return permutation_matrix((gate,), n_qubits)
    _check_dense_size(n_qubits)
    _check_gate_fits(gate, n_qubits)
    # LocalUnitary: identities on the bits above and below the block.
    low, k = gate.qubits[0], len(gate.qubits)
    above = np.eye(1 << (n_qubits - low - k))
    return np.kron(np.kron(above, gate.matrix), np.eye(1 << low))


def permutation_matrix(flips: Sequence[ControlledFlip], n_qubits: int) -> np.ndarray:
    """Dense 0/1 operator applying `flips` in list order, one basis index at
    a time.  Unlike `flip_source` it allows flips that do not commute."""
    _check_dense_size(n_qubits)
    for flip in flips:
        _check_gate_fits(flip, n_qubits)
    masks = [(sum(1 << c for c in flip.controls), 1 << flip.target) for flip in flips]
    dim = 1 << n_qubits
    op = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(dim):
        image = k
        for control_mask, flip in masks:
            if (image & control_mask) == control_mask:
                image ^= flip
        op[image, k] = 1.0
    return op


def flip_source(flips: Sequence[ControlledFlip], n_qubits: int) -> np.ndarray:
    """Gather index that applies all `flips`: ``psi[flip_source(flips, n)]``.

    No flip may target a bit another flip uses as a control.  Then the flips
    commute and are involutions, so the image of every basis index is also
    the index its new amplitude is gathered from.
    """
    targets = {flip.target for flip in flips}
    if any(flip.controls & targets for flip in flips):
        raise ValueError("a flip targets a bit that another flip uses as a control")
    source = np.arange(1 << n_qubits)
    for flip in flips:
        mask = sum(1 << c for c in flip.controls)
        source ^= ((source & mask) == mask) << flip.target
    return source


def contract(u: np.ndarray, psi: np.ndarray, low: int, out: np.ndarray) -> np.ndarray:
    """Apply the small matrix `u` to the block of bits starting at bit `low`
    of `psi`, writing into `out`; returns `out`."""
    d = u.shape[0]
    # Axis 1 of the views is the block's index.
    np.einsum("ij,ajb->aib", u, psi.reshape(-1, d, 1 << low),
              out=out.reshape(-1, d, 1 << low))
    return out


def apply_gate(state: np.ndarray, gate: GateOp) -> np.ndarray:
    """Apply `gate` to `state` and return the new state vector.

    A flip is an exact amplitude gather; a local unitary is contracted
    against its block of bits.  The input is never mutated.
    """
    n = int(state.size).bit_length() - 1
    if state.size != 1 << n:
        raise ValueError("state length is not a power of two")
    _check_gate_fits(gate, n)
    if isinstance(gate, ControlledFlip):
        return state[flip_source((gate,), n)]
    return contract(gate.matrix, state, gate.qubits[0], np.empty_like(state))


def compose_dense(gates: Sequence[GateOp], n_qubits: int) -> np.ndarray:
    """Dense product of embedded gates; the first gate acts first on states."""
    op = np.eye(1 << n_qubits, dtype=np.complex128)
    for gate in gates:
        op = embed_gate(gate, n_qubits) @ op
    return op
