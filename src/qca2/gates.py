"""Gate algebra: the H matrix, two state-vector kernels, dense oracle.

Two gate placements cover everything the automaton needs:

* ``ControlledFlip`` -- flips one target qubit when every control qubit is 1.
  With no controls it is a plain X.  It permutes basis indices.
* ``LocalUnitary`` -- a small unitary on a block of contiguous bit positions;
  ascending bit positions map to ascending significance inside the small
  matrix, mirroring the register convention.

``gate_kernels`` turns any gate list into kernels: a gather index
(``flip_source``) per run of consecutive commuting flips, and a (matrix,
low) pair per local gate, which ``contract`` applies in one ``einsum`` call.
It alone forms runs: at every size, consecutive local gates below bit
TILE_BITS are one list, which ``contract_tiles`` applies on cache-sized
transposed tiles of the two state buffers.  ``advance`` runs a state
through them, for rules, scripts and ``apply_gate`` alike, on a float64
state when ``state_dtype`` finds every matrix real, complex128 otherwise.
From a basis state it moves the one amplitude through the gathers and
contracts, in place, only the bits reached so far, while the contractions
tile the bits from bit 0 upward.  Dense operators (capped at 10 qubits) are
built without them: ``basis_images`` maps flips one basis index at a time,
``embed_gate`` places one gate densely, and ``compose_dense`` multiplies
them as the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

MAX_DENSE_QUBITS = 10

UNITARY_TOL = 1e-12

# A tile is TILE_VALUES amplitudes in rows of 2**TILE_BITS, or a smaller state whole.
TILE_BITS, TILE_VALUES = 6, 1 << 14

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
H.setflags(write=False)


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
Kernel = Union[np.ndarray, tuple[np.ndarray, int], list]  # a gather, (matrix, low), or a run


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

    No flip may target another's control, so the flips commute and are
    involutions: the index is its own inverse, and the targets that fire
    form a table over the control bits, XORed into every index at once."""
    if not _commute(flips):
        raise ValueError("a flip targets a bit that another flip uses as a control")
    source, table = np.arange(1 << n_qubits), 0
    for flip in flips:  # bit c of an index is np.arange(2) on axis -1 - c of the view
        bits = (np.arange(2).reshape((2,) + (1,) * c) for c in flip.controls)
        table = table ^ reduce(np.bitwise_and, bits, 1) << flip.target
    source.reshape((2,) * n_qubits)[...] ^= table
    return source


def contract(u: np.ndarray, psi: np.ndarray, low: int, out: np.ndarray) -> np.ndarray:
    """Apply the small matrix `u` to the block of bits starting at bit `low`
    of `psi`, writing into `out` in one `einsum` call; returns `out`.  Its
    inner loop runs over the 2**low amplitudes below the block, so
    `gate_kernels` sends blocks below bit TILE_BITS to the tiles."""
    shape = (-1, u.shape[0], 1 << low)  # axis 1 is the block's index
    np.einsum("ij,ajb->aib", u, psi.reshape(shape), out=out.reshape(shape))
    return out


def contract_tiles(run: list, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`contract` each (matrix, low) pair of `run` in turn, all below bit
    TILE_BITS, from `psi` into `out`; returns `out`, `psi` overwritten.
    Below bit 6 its inner loop would run over 1 to 16 amplitudes; here it
    runs over a transposed tile's rows, back and forth between the same
    tile of `psi` and of `out`.  A real matrix of `gate_kernels` has strided
    rows, so `contract` sums its products in column order even at bit 0."""
    width = min(1 << TILE_BITS, psi.size)
    rows = min(TILE_VALUES, psi.size) // width  # a power of two, so it divides the state
    shift = rows.bit_length() - 1
    for x, y in zip(psi.reshape(-1, rows * width), out.reshape(-1, rows * width)):
        y.reshape(width, rows)[...] = x.reshape(rows, width).T
        a, b = y, x
        for u, low in run:
            a, b = contract(u, a, low + shift, b), a
        if a is y:  # an even run ends in `out`'s tile
            x[...] = y
        y.reshape(rows, width)[...] = x.reshape(width, rows).T
    return out


def advance(psi: np.ndarray, kernels: Iterable[Kernel], spare: np.ndarray) -> tuple:
    """Apply `kernels` in order to the state in `psi`; returns (result, the
    other buffer), both overwritten.  A gather index goes through
    ``np.take``, a pair through `contract`, a run through `contract_tiles`,
    each reading one buffer and leaving its result in the other.

    While the state is a basis state c|j>, a gather only moves c from j to
    ``source[j]`` (`flip_source` is its own inverse).  Contractions that tile
    the bits from bit 0 upward, a run's pairs one by one, keep `psi` zero
    outside the 2**m amplitudes from ``j & -2**m`` once m bits are reached,
    so each runs the same `contract` on the slice of `psi` its block spans.
    Any other kernel, the top cell's included, runs on the whole of `psi`.
    Nonzero parts are the plain loop's bit for bit; a zero's sign may differ."""
    j, m = int(np.argmax(psi != 0)) if np.count_nonzero(psi) == 1 else None, 0
    for run in kernels:
        for kernel in run if j is not None and isinstance(run, list) else [run]:
            if j is not None:
                local = isinstance(kernel, tuple)
                if not local and m == 0:
                    c, psi[j] = psi[j], 0
                    j = int(kernel[j])
                    psi[j] = c
                elif local and kernel[1] == m and (size := kernel[0].shape[0] << m) < psi.size:
                    reached = slice(j & -size, (j & -size) + size)
                    psi[reached] = contract(kernel[0], psi[reached], m, spare[reached])
                    m = size.bit_length() - 1
                else:
                    j = None
            if j is None:
                if isinstance(kernel, list):
                    contract_tiles(kernel, psi, spare)
                elif isinstance(kernel, tuple):
                    contract(kernel[0], psi, kernel[1], spare)
                else:  # a permutation: "clip" never clips, and unlike "raise" it buffers no copy
                    np.take(psi, kernel, out=spare, mode="clip")
                psi, spare = spare, psi
        del run, kernel  # a script's next gather index is built only once this one is freed
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
    makes `einsum` raise TypeError instead.  This is the one place runs are
    formed: at every size, consecutive local unitaries below bit TILE_BITS,
    a rule's cells 0 to 2 or a script's low gates, are one list of their
    pairs for `contract_tiles`, even a single one."""
    flips, run = [], []
    for gate in gates:
        _check_gate_fits(gate, n_qubits)
        flip = isinstance(gate, ControlledFlip)
        low = not flip and gate.qubits[-1] < TILE_BITS
        # At most one of `flips` and `run` is open; a gate that cannot join it ends it.
        if flips and not (flip and _commute([*flips, gate])) or run and not low:
            yield flip_source(flips, n_qubits) if flips else run
            flips, run = [], []
        if flip:
            flips.append(gate)
            continue
        u = gate.matrix
        pair = (u.real if dtype == np.float64 and not u.imag.any() else u), gate.qubits[0]
        if low:
            run.append(pair)
        else:
            yield pair
    if flips or run:
        yield flip_source(flips, n_qubits) if flips else run


def apply_gate(state: np.ndarray, gate: GateOp) -> np.ndarray:
    """Apply `gate` to `state` and return the new state vector.

    A flip is an exact amplitude gather; a local unitary is contracted
    against its block of bits.  The result keeps the state's dtype, and the
    input is never mutated: `advance` runs on a copy.
    """
    n = int(state.size).bit_length() - 1
    if state.size != 1 << n:
        raise ValueError("state length is not a power of two")
    return advance(state.copy(), gate_kernels([gate], n, state.dtype), np.empty_like(state))[0]


def compose_dense(gates: Sequence[GateOp], n_qubits: int) -> np.ndarray:
    """Dense product of embedded gates; the first gate acts first on states."""
    op = np.eye(1 << n_qubits, dtype=np.complex128)
    for gate in gates:
        op = embed_gate(gate, n_qubits) @ op
    return op
