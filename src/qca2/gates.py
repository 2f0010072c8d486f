"""Gate algebra: standard matrices, two state-vector kernels, dense oracle.

Two gate placements cover everything the automaton needs:

* ``ControlledFlip`` -- flips one target qubit when every control qubit is 1.
  With no controls it is a plain X.  It permutes basis indices.
* ``LocalUnitary`` -- a small unitary on a block of contiguous bit positions;
  ascending bit positions map to ascending significance inside the small
  matrix, mirroring the register convention.

``flip_source`` turns commuting flips into one index gather and ``contract``
applies a small matrix to a block of bits; ``gate_kernels`` turns any gate
list into them, one gather per run of consecutive commuting flips.
``advance`` is the one loop that runs a state through them, for rules,
scripts and ``apply_gate`` alike: on a float64 state when ``state_dtype``
finds every gate matrix real, complex128 otherwise.  Dense operators (capped
at 10 qubits) are built without them:
``basis_images`` maps flips to the image of each basis index, one at a time,
``embed_gate`` places one gate densely, and ``compose_dense`` multiplies
embedded gates as the tests' generic oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

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


def unitary_deviation(matrix: np.ndarray) -> float:
    """Max-norm distance of matrix†·matrix from the identity; inf or nan on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0]))))


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


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """A small unitary on contiguous bit positions, listed in ascending order.

    Bit m of the small-matrix index is the qubit at ``qubits[m]``.  The
    matrix is a frozen copy; gates on the same qubits with bitwise-equal
    entries are equal.
    """

    qubits: tuple[int, ...]
    matrix: np.ndarray

    def __init__(self, qubits: Sequence[int], matrix: np.ndarray):
        qubits = tuple(int(q) for q in qubits)
        matrix = np.array(matrix, dtype=np.complex128)
        if not qubits or qubits != tuple(range(qubits[0], qubits[0] + len(qubits))):
            raise ValueError("qubit positions must be contiguous and ascending")
        if qubits[0] < 0:
            raise ValueError("bit positions must be nonnegative")
        d = 1 << len(qubits)
        if matrix.shape != (d, d):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match {len(qubits)} qubits"
            )
        if not unitary_deviation(matrix) <= UNITARY_TOL:
            raise ValueError("gate matrix is not unitary within 1e-12")
        matrix.setflags(write=False)
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "matrix", matrix)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LocalUnitary) and self.qubits == other.qubits
                and self.matrix.tobytes() == other.matrix.tobytes())

    def __hash__(self) -> int:
        return hash((self.qubits, self.matrix.tobytes()))

    def bits(self) -> frozenset[int]:
        return frozenset(self.qubits)


GateOp = Union[ControlledFlip, LocalUnitary]
Kernel = Union[np.ndarray, tuple[np.ndarray, int]]  # a gather index, or (matrix, low)


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
        return np.eye(1 << n_qubits, dtype=np.complex128)[:, basis_images((gate,), n_qubits)]
    _check_dense_size(n_qubits)
    _check_gate_fits(gate, n_qubits)
    # LocalUnitary: identities on the bits above and below the block.
    low, k = gate.qubits[0], len(gate.qubits)
    above = np.eye(1 << (n_qubits - low - k))
    return np.kron(np.kron(above, gate.matrix), np.eye(1 << low))


def basis_images(flips: Sequence[ControlledFlip], n_qubits: int) -> np.ndarray:
    """Int64 image of every basis index under `flips` in list order, mapped
    one index at a time.  Unlike `flip_source` it allows flips that do not
    commute."""
    _check_dense_size(n_qubits)
    for flip in flips:
        _check_gate_fits(flip, n_qubits)
    masks = [(sum(1 << c for c in flip.controls), 1 << flip.target) for flip in flips]
    images = np.empty(1 << n_qubits, dtype=np.int64)
    for k in range(images.size):
        image = k
        for control_mask, flip in masks:
            if (image & control_mask) == control_mask:
                image ^= flip
        images[k] = image
    return images


def _commute(flips: Sequence[ControlledFlip]) -> bool:
    """True when no flip targets a bit that another flip uses as a control."""
    targets = {flip.target for flip in flips}
    return not any(flip.controls & targets for flip in flips)


def flip_source(flips: Sequence[ControlledFlip], n_qubits: int) -> np.ndarray:
    """Gather index that applies all `flips`: ``psi[flip_source(flips, n)]``.

    No flip may target a bit another flip uses as a control.  Then the flips
    commute and are involutions, so the image of every basis index is also
    the index its new amplitude is gathered from.
    """
    if not _commute(flips):
        raise ValueError("a flip targets a bit that another flip uses as a control")
    source = np.arange(1 << n_qubits)
    for flip in flips:
        mask = sum(1 << c for c in flip.controls)
        source ^= ((source & mask) == mask) << flip.target
    return source


def contract(u: np.ndarray, psi: np.ndarray, low: int, out: np.ndarray) -> np.ndarray:
    """Apply the small matrix `u` to the block of bits starting at bit `low`
    of `psi`, writing into `out`; returns `out`.

    When the bits below the block span only 2 or 4 amplitudes (`low` 1 or
    2), einsum's innermost loop runs over those 2 or 4 and costs several
    times a long-stride block, so each of them gets its own call.  The
    split sums the same products in the same order, bit for bit.
    """
    d = u.shape[0]
    # Axis 1 of the views is the block's index.
    x, y = psi.reshape(-1, d, 1 << low), out.reshape(-1, d, 1 << low)
    if low in (1, 2):
        for b in range(1 << low):
            np.einsum("ij,aj->ai", u, x[:, :, b], out=y[:, :, b])
    else:
        np.einsum("ij,ajb->aib", u, x, out=y)
    return out


def advance(psi: np.ndarray, kernels: Iterable[Kernel], spare: np.ndarray) -> tuple:
    """Apply `kernels` in order, each reading one of `psi` and `spare` and
    writing the other, the first writing `spare`; returns (result, the other
    buffer).  A gather index goes through ``np.take``, a pair through `contract`."""
    for kernel in kernels:
        if isinstance(kernel, tuple):
            contract(kernel[0], psi, kernel[1], spare)
        else:  # a permutation: "clip" never clips, and unlike "raise" it buffers no copy
            np.take(psi, kernel, out=spare, mode="clip")
        psi, spare = spare, psi
        del kernel  # a script's next gather index is built only once this one is freed
    return psi, spare


def state_dtype(gates: Iterable[GateOp]) -> type:
    """The state dtype a run of `gates` needs: float64 when the matrix of every
    local gate has an imaginary part that is exactly zero, complex128
    otherwise.  Flips only move amplitudes, so they never need complex."""
    local = (gate.matrix for gate in gates if isinstance(gate, LocalUnitary))
    return np.complex128 if any(u.imag.any() for u in local) else np.float64


def gate_kernels(gates: Iterable[GateOp], n_qubits: int, dtype) -> Iterator[Kernel]:
    """`gates` in order as `advance` applies them to an `n_qubits` state of
    `dtype`, each kernel built when it is drawn.  A run of consecutive flips
    that `flip_source` accepts together is one gather index.  A local
    unitary is its matrix and lowest bit; the matrix is its real view for a
    real state when its imaginary part is exactly zero, and a complex one
    makes `einsum` raise TypeError instead."""
    flips: list[ControlledFlip] = []
    for gate in gates:
        _check_gate_fits(gate, n_qubits)
        if flips and not (isinstance(gate, ControlledFlip) and _commute([*flips, gate])):
            yield flip_source(flips, n_qubits)
            flips = []
        if isinstance(gate, ControlledFlip):
            flips.append(gate)
        else:
            u = gate.matrix
            yield (u.real if dtype == np.float64 and not u.imag.any() else u), gate.qubits[0]
    if flips:
        yield flip_source(flips, n_qubits)


def apply_gate(state: np.ndarray, gate: GateOp) -> np.ndarray:
    """Apply `gate` to `state` and return the new state vector.

    A flip is an exact amplitude gather; a local unitary is contracted
    against its block of bits.  The result keeps the state's dtype, and the
    input is never mutated.
    """
    n = int(state.size).bit_length() - 1
    if state.size != 1 << n:
        raise ValueError("state length is not a power of two")
    return advance(state, gate_kernels([gate], n, state.dtype), np.empty_like(state))[0]


def compose_dense(gates: Sequence[GateOp], n_qubits: int) -> np.ndarray:
    """Dense product of embedded gates; the first gate acts first on states."""
    op = np.eye(1 << n_qubits, dtype=np.complex128)
    for gate in gates:
        op = embed_gate(gate, n_qubits) @ op
    return op
