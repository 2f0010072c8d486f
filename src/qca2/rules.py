"""Compilation of automaton configs into one update, and its evolution.

Cell j owns the controlled qubit c_j at bit 2j and the state qubit s_j at
bit 2j+1 (`qubit`).  Bit p of a basis index contributes 2**p, so the ket
reads from the most significant cell down: the three-cell ket |100000> is
basis index 32.

One full update is two phases.  The interaction phase flips each cell's
controlled qubit when the state qubits of its neighbors are all 1.  The
flips are controlled by s-bits and target c-bits, so they commute and the
whole phase is one involutive permutation P of basis indices: a single
gather.  The evaluation phase applies the same 4x4 unitary U inside every
cell.  A config holds U as the `LocalUnitary` it is on cell 0, and
`gates.gate_kernels` builds every kernel, of a rule's phases or a script's.
The dense operator of one update is (U⊗…⊗U)·P, with P kept as the image
of every basis index, mapped one at a time rather than by the gather.

A run starts from a basis state, and P only moves amplitudes, so the state
stays real when U is real, as it is for every preset.  A run's dtype is
decided once from its matrices: float64 when every imaginary part is exactly
zero, complex128 otherwise.  `probability_columns` is the one loop that
advances a state through kernels for `gates.advance` and records its
probability columns: `_record` gathers them into the matrix of `evolve` and
`run_gate_script`, and `analysis.search_period` keeps each one's value at
the initial index.  Every update of a config is the same floating-point
map, so once its state is exactly the initial basis state again, the
columns recorded so far repeat bit for bit: the loop stops, and `_record`
copies them instead.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

# perfbench/tracing.py wraps rules.apply_gate and rules.compose_dense by name.
from .gates import (
    ControlledFlip,
    GateOp,
    Kernel,
    LocalUnitary,
    advance,
    apply_gate,
    basis_images,
    compose_dense,
    gate_kernels,
    state_dtype,
)

MAX_CELLS = 12
MAX_QUBITS = 2 * MAX_CELLS
NORM_TOL = 1e-9


class NormDriftError(ValueError):
    """A state's squared norm drifted from one by more than NORM_TOL."""


def qubit(cell: int, role: str) -> int:
    """Bit position of `cell`'s controlled qubit (role "c") or state qubit (role "s")."""
    return 2 * cell + (role == "s")


def basis_state(n_qubits: int, index: int, dtype=np.complex128) -> np.ndarray:
    """The basis state |index> of `n_qubits` qubits: 2**n_qubits amplitudes
    of `dtype`, one of them 1.  Runs whose matrices are all real pass
    float64."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}")
    dim = 1 << n_qubits
    if not 0 <= index < dim:
        raise IndexError(f"basis index {index} out of range for {n_qubits} qubits")
    state = np.zeros(dim, dtype=dtype)
    state[index] = 1.0
    return state


def probabilities(state: np.ndarray) -> np.ndarray:
    """Measurement probabilities of every basis state; NormDriftError when
    the squared norm of `state` is not within NORM_TOL of one, nan included."""
    probs = np.abs(state) ** 2
    norm = probs.sum()
    if not abs(norm - 1.0) <= NORM_TOL:
        raise NormDriftError(f"state not normalized: squared norm {float(norm)}")
    return probs


class NeighborhoodRule(enum.Enum):
    """Which neighbors' s-qubits drive a cell's c-qubit flip."""

    RIGHT = "right"
    LEFT = "left"
    BOTH = "both"


class BoundaryCondition(enum.Enum):
    CONST_ZERO = "const0"
    CONST_ONE = "const1"
    CYCLIC = "cyclic"


class RecordMode(enum.Enum):
    PER_STEP = "step"
    PER_PHASE = "phase"


# The qubits of a config's cell unitary: its matrix index is then 2*s + c.
CELL_ZERO = (qubit(0, "c"), qubit(0, "s"))

# The presets by config keyword, written out exactly: H⊗H is ±1/2 in every
# entry, and h_s_then_cn is H on s followed by CN from s to c.
EVAL_PRESETS = {
    "identity": LocalUnitary(CELL_ZERO, np.eye(4)),
    "h_both": LocalUnitary(CELL_ZERO, 0.5 * np.array(
        [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])),
    "h_s_then_cn": LocalUnitary(CELL_ZERO, np.array(
        [[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, -1], [1, 0, -1, 0]]) / np.sqrt(2.0)),
}
IDENTITY_EVAL, H_BOTH_EVAL, H_S_THEN_CN_EVAL = EVAL_PRESETS.values()


@dataclass(frozen=True)
class QcaConfig:
    n_cells: int
    rule: NeighborhoodRule
    boundary: BoundaryCondition = BoundaryCondition.CONST_ZERO
    evaluation: LocalUnitary = H_BOTH_EVAL
    initial_index: int = 0
    n_steps: int = 0
    record: RecordMode = RecordMode.PER_STEP

    def __post_init__(self) -> None:
        if not 1 <= self.n_cells <= MAX_CELLS:
            raise ValueError(f"n_cells must be in 1..{MAX_CELLS}, got {self.n_cells}")
        if not 0 <= self.initial_index < 4**self.n_cells:
            raise ValueError(
                f"initial_index {self.initial_index} out of range for "
                f"{self.n_cells} cells ({4**self.n_cells} states)"
            )
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")

    @property
    def n_qubits(self) -> int:
        return 2 * self.n_cells

    @property
    def per_update(self) -> int:
        """Timesteps, each recorded as a column, in one full update."""
        return 2 if self.record is RecordMode.PER_PHASE else 1

    @property
    def n_columns(self) -> int:
        """Probability columns `evolve` records, the initial state included."""
        return 1 + self.per_update * self.n_steps


@dataclass(frozen=True)
class CompiledRule:
    """One full update on `n_qubits` qubits: the `interaction` flips, then
    the `evaluation` gates, one cell unitary per cell."""

    n_qubits: int
    interaction: tuple[GateOp, ...]
    evaluation: tuple[GateOp, ...]


# Cell offsets of the neighbours whose s-qubits together flip a cell's c-qubit.
_NEIGHBOUR_OFFSETS = {
    NeighborhoodRule.RIGHT: (-1,),
    NeighborhoodRule.LEFT: (+1,),
    NeighborhoodRule.BOTH: (+1, -1),
}


def compile_interaction(config: QcaConfig) -> list[GateOp]:
    """Controlled-flip list realizing the interaction phase, one flip per
    cell in ascending cell order.

    Cyclic boundaries wrap neighbour indices modulo the cell count.
    Constant boundaries pin a phantom neighbour's s-qubit to 0 or 1: a flip
    with a control pinned to 0 never fires and is dropped, a control pinned
    to 1 drops out of the control set (possibly leaving a plain X).
    """
    n = config.n_cells
    cyclic = config.boundary is BoundaryCondition.CYCLIC
    const_zero = config.boundary is BoundaryCondition.CONST_ZERO
    gates: list[GateOp] = []
    for j in range(n):
        neighbours = [j + d for d in _NEIGHBOUR_OFFSETS[config.rule]]
        present = [nb % n for nb in neighbours if cyclic or 0 <= nb < n]
        if const_zero and len(present) < len(neighbours):
            continue
        gates.append(ControlledFlip({qubit(nb, "s") for nb in present}, qubit(j, "c")))
    return gates


def compile_evaluation(config: QcaConfig) -> list[GateOp]:
    """One cell-unitary gate per cell in ascending cell order; none for identity."""
    if config.evaluation == IDENTITY_EVAL:
        return []
    u = config.evaluation.matrix
    return [LocalUnitary((qubit(j, "c"), qubit(j, "s")), u) for j in range(config.n_cells)]


def compile_rule(config: QcaConfig) -> CompiledRule:
    return CompiledRule(config.n_qubits, tuple(compile_interaction(config)),
                        tuple(compile_evaluation(config)))


def build_dense_rule(config: QcaConfig) -> np.ndarray:
    """Dense full-update operator (U⊗…⊗U)·P, the interaction permutation and
    then every cell's unitary: column k is column ``images[k]`` of U⊗…⊗U,
    the image of k under the flips, mapped one index at a time."""
    images = basis_images(compile_interaction(config), config.n_qubits)  # size-checked first
    op = reduce(np.kron, [config.evaluation.matrix] * config.n_cells)[:, images]
    op += 0.0  # -0 entries become +0, as in the product with P: `matrix` prints them
    return op


def run_bytes(n_qubits: int, n_columns: int, dtype) -> int:
    """Bytes `evolve` or `run_gate_script` holds at its peak, at most: the
    float64 probability matrix of `n_columns` columns, two states of `dtype`,
    the run's `state_dtype` (8 bytes an amplitude when real, 16 when
    complex), an int64 gather index, and the two float64 temporaries of
    `probabilities`, ``|x|`` and its square."""
    return (8 * n_columns + 2 * np.dtype(dtype).itemsize + 8 + 2 * 8) << n_qubits


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_fits(need: int, what: str) -> None:
    """Refuse a run that needs `need` bytes for `what`, more than physical
    memory, with a MemoryError."""
    have = _physical_memory()
    if need > have:
        raise MemoryError(
            f"run needs about {need / 2**30:.1f} GiB for its {what}, more than the "
            f"{have / 2**30:.1f} GiB of physical memory"
        )


def probability_columns(n_qubits: int, initial_index: int, dtype, timesteps,
                        per_update: int = 0) -> Iterator[np.ndarray]:
    """The one loop that evolves and records a state: the probability column
    of the basis state, then one after each kernel list `timesteps` yields.

    When every `per_update` timesteps apply the same map, a state that is
    the initial basis state again after t timesteps, t a multiple of
    `per_update`, ends the columns at column t: the columns after it would
    repeat columns 1..t bit for bit.  The comparison treats -0 as 0, which
    changes no later value.  `per_update` 0 never stops early."""
    psi = basis_state(n_qubits, initial_index, dtype)
    spare = np.empty_like(psi)
    yield probabilities(psi)
    for t, kernels in enumerate(timesteps, start=1):
        psi, spare = advance(psi, kernels, spare)
        yield probabilities(psi)
        if (per_update and t % per_update == 0
                and psi[initial_index] == 1 and np.count_nonzero(psi) == 1):
            return


def _record(n_qubits: int, initial_index: int, dtype, n_columns: int, timesteps,
            per_update: int = 0) -> np.ndarray:
    """F-contiguous probability matrix of the `n_columns` columns of
    `probability_columns`, the repeats after an exact return copied in.  A
    run whose `run_bytes` exceed physical memory raises MemoryError before
    it allocates or draws."""
    check_fits(run_bytes(n_qubits, n_columns, dtype), "probability matrix and working vectors")
    columns = np.empty((n_columns, 1 << n_qubits))
    drawn = 0
    for column in probability_columns(n_qubits, initial_index, dtype, timesteps, per_update):
        columns[drawn] = column
        drawn += 1
        del column  # only the matrix holds it while the next one is computed
    for j in range(drawn, n_columns):
        columns[j] = columns[j - drawn + 1]
    return columns.T


def update_kernels(config: QcaConfig, dtype) -> list[list[Kernel]]:
    """The kernel lists of one update's timesteps, built now by
    `gate_kernels`: the whole update under PER_STEP, the interaction and
    then the evaluation under PER_PHASE."""
    rule = compile_rule(config)
    phases = ([rule.interaction, rule.evaluation] if config.record is RecordMode.PER_PHASE
              else [rule.interaction + rule.evaluation])
    return [list(gate_kernels(gates, rule.n_qubits, dtype)) for gates in phases]


def evolve(config: QcaConfig) -> np.ndarray:
    """Probability matrix of the evolution: rows are basis states, columns
    recorded instants in temporal order, column 0 the initial state.

    PER_STEP records one column per full update; PER_PHASE records after the
    interaction phase and again after the evaluation phase of every update.
    The matrix is F-contiguous: each column is recorded as one contiguous
    block of memory.
    """
    dtype = state_dtype([config.evaluation])

    def timesteps():  # the rule's gather index is built once `_record` asks
        update = update_kernels(config, dtype)
        for _ in range(config.n_steps):
            yield from update

    n_qubits, n_columns = config.n_qubits, config.n_columns
    return _record(n_qubits, config.initial_index, dtype, n_columns, timesteps(),
                   config.per_update)


def run_gate_script(
    n_qubits: int,
    initial_index: int,
    script: Sequence[Sequence[GateOp]],
) -> np.ndarray:
    """Run an explicit per-timestep gate script, recording a probability
    column after each timestep (column 0 is the initial state).  The matrix
    is F-contiguous, like `evolve`'s.  Each kernel is built as it is reached,
    and consecutive flips that commute share one gather index."""
    dtype = state_dtype(chain.from_iterable(script))
    timesteps = (gate_kernels(ts, n_qubits, dtype) for ts in script)
    return _record(n_qubits, initial_index, dtype, 1 + len(script), timesteps)
