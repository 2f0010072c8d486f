"""Compilation of automaton configs into one update, and its evolution.

One full update is two phases.  The interaction phase flips each cell's
controlled qubit when the state qubits of its neighbors are all 1.  The
flips are controlled by s-bits and target c-bits, so they commute and the
whole phase is one involutive permutation P of basis indices: a single
gather.  The evaluation phase applies the same 4x4 unitary U inside every
cell.  The dense operator of one update is (U⊗…⊗U)·P, with P built one
basis index at a time rather than by the gather.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import reduce
from typing import Sequence

import numpy as np

# perfbench/tracing.py wraps rules.apply_gate and rules.compose_dense by name.
from .gates import (
    ControlledFlip,
    GateOp,
    LocalUnitary,
    apply_gate,
    compose_dense,
    contract,
    flip_source,
    is_unitary,
    permutation_matrix,
    standard_gate,
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


class EvaluationKind(enum.Enum):
    IDENTITY = "identity"
    HADAMARD_BOTH = "h_both"
    HADAMARD_S_THEN_CN = "h_s_then_cn"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Evaluation:
    """Per-cell evaluation unitary; `matrix` only for the custom kind.

    A custom matrix acts on the ordered pair (s, c) with s the more
    significant index bit, matching the register convention (s sits at the
    higher bit position inside a cell).
    """

    kind: EvaluationKind
    matrix: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind is EvaluationKind.CUSTOM:
            if self.matrix is None:
                raise ValueError("custom evaluation requires a 4x4 matrix")
            m = np.asarray(self.matrix, dtype=np.complex128)
            if m.shape != (4, 4) or not is_unitary(m):
                raise ValueError("custom evaluation matrix must be 4x4 unitary within 1e-12")
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)
        elif self.matrix is not None:
            raise ValueError("matrix is only allowed for the custom kind")


IDENTITY_EVAL = Evaluation(EvaluationKind.IDENTITY)
H_BOTH_EVAL = Evaluation(EvaluationKind.HADAMARD_BOTH)
H_S_THEN_CN_EVAL = Evaluation(EvaluationKind.HADAMARD_S_THEN_CN)


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


@dataclass(frozen=True)
class CompiledRule:
    """One full update on `n_qubits` qubits: the gather ``psi[source]``, then
    `cell_unitary` inside every cell.  The gate lists spell out the same two
    phases one gate at a time."""

    n_qubits: int
    interaction: tuple[GateOp, ...]
    evaluation: tuple[GateOp, ...]
    source: np.ndarray = field(compare=False, repr=False)
    cell_unitary: np.ndarray = field(compare=False, repr=False)


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


_H = standard_gate("H")

# Cell unitary of each preset, index bit 1 being s and bit 0 being c.
_CELL_UNITARIES = {
    EvaluationKind.IDENTITY: np.eye(4, dtype=np.complex128),
    EvaluationKind.HADAMARD_BOTH: np.kron(_H, _H),
    EvaluationKind.HADAMARD_S_THEN_CN: standard_gate("CN") @ np.kron(_H, np.eye(2)),
}


def _cell_unitary(evaluation: Evaluation) -> np.ndarray:
    """The 4x4 unitary the evaluation phase applies inside every cell."""
    return _CELL_UNITARIES.get(evaluation.kind, evaluation.matrix)


def compile_evaluation(config: QcaConfig) -> list[GateOp]:
    """One cell-unitary gate per cell in ascending cell order; none for identity."""
    if config.evaluation.kind is EvaluationKind.IDENTITY:
        return []
    layout, u = config.layout, _cell_unitary(config.evaluation)
    cells = range(config.n_cells)
    return [LocalUnitary((layout.c_bit(j), layout.s_bit(j)), u) for j in cells]


def compile_rule(config: QcaConfig) -> CompiledRule:
    n_qubits = config.layout.n_qubits
    interaction = tuple(compile_interaction(config))
    evaluation = tuple(compile_evaluation(config))
    return CompiledRule(n_qubits, interaction, evaluation,
                        flip_source(interaction, n_qubits),
                        _cell_unitary(config.evaluation))


def build_dense_interaction(config: QcaConfig) -> np.ndarray:
    """Dense interaction permutation P, mapped one basis index at a time."""
    return permutation_matrix(compile_interaction(config), config.layout.n_qubits)


def build_dense_rule(config: QcaConfig) -> np.ndarray:
    """Dense full-update operator (U⊗…⊗U)·P: the interaction permutation,
    then the cell unitary in every cell."""
    interaction = build_dense_interaction(config)  # refuses oversized registers first
    cell_unitaries = reduce(np.kron, [_cell_unitary(config.evaluation)] * config.n_cells)
    return cell_unitaries @ interaction


def _evaluate(psi: np.ndarray, rule: CompiledRule, spare: np.ndarray):
    """Apply the cell unitary inside every cell, ping-ponging between `psi`
    and `spare`; returns (result, the other buffer)."""
    for low in range(0, rule.n_qubits, 2):  # cell j holds bits 2j (c) and 2j+1 (s)
        psi, spare = contract(rule.cell_unitary, psi, low, spare), psi
    return psi, spare


def step(state: np.ndarray, rule: CompiledRule) -> np.ndarray:
    """Advance one full update: the interaction gather, then every cell's
    evaluation.  The input is never mutated."""
    if state.size != 1 << rule.n_qubits:
        raise ValueError(
            f"state has {state.size} amplitudes, rule expects {1 << rule.n_qubits}"
        )
    psi = state[rule.source]
    return _evaluate(psi, rule, np.empty_like(psi))[0]


def evolve(config: QcaConfig) -> np.ndarray:
    """Probability matrix of the evolution: rows are basis states, columns
    recorded instants in temporal order, column 0 the initial state.

    PER_STEP records one column per full update; PER_PHASE records after the
    interaction phase and again after the evaluation phase of every update.
    """
    rule = compile_rule(config)
    per_phase = config.record is RecordMode.PER_PHASE
    stride = 2 if per_phase else 1
    matrix = np.empty((1 << rule.n_qubits, 1 + stride * config.n_steps))
    psi = basis_state(rule.n_qubits, config.initial_index)
    spare = np.empty_like(psi)
    matrix[:, 0] = probabilities(psi)
    for t in range(1, config.n_steps + 1):
        np.take(psi, rule.source, out=spare)
        psi, spare = spare, psi
        if per_phase:
            matrix[:, 2 * t - 1] = probabilities(psi)
        psi, spare = _evaluate(psi, rule, spare)
        matrix[:, stride * t] = probabilities(psi)
    return matrix


def run_gate_script(
    n_qubits: int,
    initial_index: int,
    script: Sequence[Sequence[GateOp]],
) -> np.ndarray:
    """Run an explicit per-timestep gate script, recording a probability
    column after each timestep (column 0 is the initial state)."""
    state = basis_state(n_qubits, initial_index)
    columns = [probabilities(state)]
    for timestep in script:
        for gate in timestep:
            state = apply_gate(state, gate)
        columns.append(probabilities(state))
    return np.column_stack(columns)
