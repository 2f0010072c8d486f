"""Compilation of automaton configs into one update, and its evolution.

One full update is two phases.  The interaction phase flips each cell's
controlled qubit when the state qubits of its neighbors are all 1.  The
flips are controlled by s-bits and target c-bits, so they commute and the
whole phase is one involutive permutation P of basis indices: a single
gather.  The evaluation phase applies the same 4x4 unitary U inside every
cell.  The dense operator of one update is (U⊗…⊗U)·P, with P kept as the
image of every basis index, mapped one at a time rather than by the gather.

A run starts from a basis state, and P only moves amplitudes, so the state
stays real when U is real, as it is for every preset.  A run's dtype is
decided once from its matrices: float64 when every imaginary part is exactly
zero, complex128 otherwise.  `probability_columns` is the one loop that
advances a state through kernels for `gates.advance` and records its
probability columns: `_record` gathers them into the matrix of `evolve` and
`run_gate_script`, and `analysis.search_period` fingerprints them.  Every
update of a config is the same floating-point map, so once its state is
exactly the initial basis state again, the columns recorded so far repeat
bit for bit: the loop stops, and `_record` copies them instead.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
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
    flip_source,
    gate_kernels,
    is_unitary,
    state_dtype,
)
from .register import MAX_CELLS, RegisterLayout, basis_state, probabilities


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


@dataclass(frozen=True, eq=False)
class Evaluation:
    """The 4x4 unitary the evaluation phase applies inside every cell.

    It acts on the cell's local index 2*s + c: s is the more significant
    bit, matching the register convention.  Two evaluations are equal when
    their entries are equal bit for bit.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.complex128)
        if m.shape != (4, 4) or not is_unitary(m):
            raise ValueError("evaluation matrix must be 4x4 unitary within 1e-12")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Evaluation) and self.matrix.tobytes() == other.matrix.tobytes()

    def __hash__(self) -> int:
        return hash(self.matrix.tobytes())


# The presets by config keyword, written out exactly: H⊗H is ±1/2 in every
# entry, and h_s_then_cn is H on s followed by CN from s to c.
EVAL_PRESETS = {
    "identity": Evaluation(np.eye(4)),
    "h_both": Evaluation(
        0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
    ),
    "h_s_then_cn": Evaluation(
        np.array([[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, -1], [1, 0, -1, 0]]) / np.sqrt(2.0)
    ),
}
IDENTITY_EVAL, H_BOTH_EVAL, H_S_THEN_CN_EVAL = EVAL_PRESETS.values()


@dataclass(frozen=True)
class QcaConfig:
    n_cells: int
    rule: NeighborhoodRule
    boundary: BoundaryCondition = BoundaryCondition.CONST_ZERO
    evaluation: Evaluation = H_BOTH_EVAL
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
    def layout(self) -> RegisterLayout:
        return RegisterLayout(self.n_cells)

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
    """One full update on `n_qubits` qubits: the gather ``psi[source]``, then
    the `evaluation` gates, one cell unitary per cell.  The `interaction`
    flips spell out the gather one gate at a time."""

    n_qubits: int
    interaction: tuple[GateOp, ...]
    evaluation: tuple[GateOp, ...]
    source: np.ndarray = field(compare=False, repr=False)

    def kernels(self, dtype) -> list[Kernel]:
        """The gather, then each cell's unitary, for a state of `dtype`."""
        return [self.source, *gate_kernels(self.evaluation, self.n_qubits, dtype)]


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
    layout, n = config.layout, config.n_cells
    cyclic = config.boundary is BoundaryCondition.CYCLIC
    const_zero = config.boundary is BoundaryCondition.CONST_ZERO
    gates: list[GateOp] = []
    for j in range(n):
        neighbours = [j + d for d in _NEIGHBOUR_OFFSETS[config.rule]]
        present = [nb % n for nb in neighbours if cyclic or 0 <= nb < n]
        if const_zero and len(present) < len(neighbours):
            continue
        gates.append(ControlledFlip({layout.s_bit(nb) for nb in present}, layout.c_bit(j)))
    return gates


def compile_evaluation(config: QcaConfig) -> list[GateOp]:
    """One cell-unitary gate per cell in ascending cell order; none for identity."""
    if config.evaluation == IDENTITY_EVAL:
        return []
    layout, u = config.layout, config.evaluation.matrix
    cells = range(config.n_cells)
    return [LocalUnitary((layout.c_bit(j), layout.s_bit(j)), u) for j in cells]


def compile_rule(config: QcaConfig) -> CompiledRule:
    n_qubits = config.layout.n_qubits
    interaction = tuple(compile_interaction(config))
    evaluation = tuple(compile_evaluation(config))
    return CompiledRule(n_qubits, interaction, evaluation, flip_source(interaction, n_qubits))


def interaction_images(config: QcaConfig) -> np.ndarray:
    """Image of every basis index under the interaction permutation P,
    mapped one basis index at a time."""
    return basis_images(compile_interaction(config), config.layout.n_qubits)


def build_dense_rule(config: QcaConfig) -> np.ndarray:
    """Dense full-update operator (U⊗…⊗U)·P, the interaction permutation and
    then every cell's unitary: column k is column ``images[k]`` of U⊗…⊗U."""
    images = interaction_images(config)  # refuses oversized registers first
    op = reduce(np.kron, [config.evaluation.matrix] * config.n_cells)[:, images]
    op += 0.0  # -0 entries become +0, as in the product with P: `matrix` prints them
    return op


def step(state: np.ndarray, rule: CompiledRule) -> np.ndarray:
    """Advance one full update: the interaction gather, then every cell's
    evaluation.  The result keeps the state's dtype; a real state meeting a
    complex cell unitary raises TypeError.  The input is never mutated."""
    if state.size != 1 << rule.n_qubits:
        raise ValueError(
            f"state has {state.size} amplitudes, rule expects {1 << rule.n_qubits}"
        )
    # `advance` writes its second kernel's output into its first buffer.
    return advance(state.copy(), rule.kernels(state.dtype), np.empty_like(state))[0]


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


def run_dtype(config: QcaConfig) -> type:
    """The dtype every state of `config`'s evolution has (see `state_dtype`)."""
    return state_dtype(compile_evaluation(config))


def update_kernels(config: QcaConfig, dtype) -> list[list[Kernel]]:
    """The kernel lists of one update's timesteps, compiled now: the whole
    update under PER_STEP, the gather and then the cells under PER_PHASE."""
    gather, *cells = compile_rule(config).kernels(dtype)
    return [[gather], cells] if config.record is RecordMode.PER_PHASE else [[gather, *cells]]


def evolve(config: QcaConfig) -> np.ndarray:
    """Probability matrix of the evolution: rows are basis states, columns
    recorded instants in temporal order, column 0 the initial state.

    PER_STEP records one column per full update; PER_PHASE records after the
    interaction phase and again after the evaluation phase of every update.
    The matrix is F-contiguous: each column is recorded as one contiguous
    block of memory.
    """
    dtype = run_dtype(config)

    def timesteps():  # the rule's gather index is built once `_record` asks
        update = update_kernels(config, dtype)
        for _ in range(config.n_steps):
            yield from update

    n_qubits, n_columns = config.layout.n_qubits, config.n_columns
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
