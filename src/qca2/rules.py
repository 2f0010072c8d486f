"""Compilation of automaton configs into one update, and its evolution.

One full update is two phases.  The interaction phase flips each cell's
controlled qubit when the state qubits of its neighbors are all 1.  The
flips are controlled by s-bits and target c-bits, so they commute and the
whole phase is one involutive permutation of basis indices: a single
gather.  The evaluation phase applies the same 4x4 unitary inside every
cell.  The gate lists of both phases compose the dense testing oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .gates import (
    ControlledFlip,
    GateOp,
    LocalUnitary,
    apply_gate,
    compose_dense,
    contract,
    flip_source,
    is_unitary,
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
    phases for the dense oracle."""

    n_qubits: int
    interaction: tuple[GateOp, ...]
    evaluation: tuple[GateOp, ...]
    source: np.ndarray = field(compare=False, repr=False)
    cell_unitary: np.ndarray = field(compare=False, repr=False)


def compile_interaction(config: QcaConfig) -> list[GateOp]:
    """Controlled-flip list realizing the interaction phase with boundaries.

    Constant boundaries pin the phantom neighbor's s-qubit to 0 or 1: a gate
    controlled only by a 0 is dropped, a control pinned to 1 disappears from
    the control set (degrading to fewer controls, possibly an unconditional
    flip).  A boundary s-qubit that would control a missing cell simply
    controls nothing.  Cyclic boundaries wrap indices modulo the cell count.
    """
    layout = config.layout
    n = config.n_cells
    cyclic = config.boundary is BoundaryCondition.CYCLIC
    const_one = config.boundary is BoundaryCondition.CONST_ONE
    gates: list[GateOp] = []

    if config.rule is NeighborhoodRule.RIGHT:
        # s_j controls c_{j+1}; under constant boundaries c_0 has a phantom
        # controller pinned to the boundary constant.
        if not cyclic and const_one:
            gates.append(ControlledFlip((), layout.c_bit(0)))
        for j in range(n):
            tgt = (j + 1) % n if cyclic else j + 1
            if tgt >= n:
                continue
            gates.append(ControlledFlip({layout.s_bit(j)}, layout.c_bit(tgt)))
    elif config.rule is NeighborhoodRule.LEFT:
        for j in range(n):
            tgt = (j - 1) % n if cyclic else j - 1
            if tgt < 0:
                continue
            gates.append(ControlledFlip({layout.s_bit(j)}, layout.c_bit(tgt)))
        if not cyclic and const_one:
            gates.append(ControlledFlip((), layout.c_bit(n - 1)))
    else:
        for j in range(n):
            controls: set[int] = set()
            dropped = False
            for nb in (j + 1, j - 1):
                if cyclic:
                    controls.add(layout.s_bit(nb % n))
                elif 0 <= nb < n:
                    controls.add(layout.s_bit(nb))
                elif not const_one:
                    dropped = True  # phantom control pinned to 0 never fires
            if not dropped:
                gates.append(ControlledFlip(controls, layout.c_bit(j)))
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


def build_dense_rule(config: QcaConfig) -> np.ndarray:
    """Dense full-update operator (evaluation after interaction)."""
    rule = compile_rule(config)
    n = rule.n_qubits
    return compose_dense(rule.interaction + rule.evaluation, n)


def build_dense_interaction(config: QcaConfig) -> np.ndarray:
    return compose_dense(tuple(compile_interaction(config)), config.layout.n_qubits)


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
