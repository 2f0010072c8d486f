"""The X and CN matrices, random states and unitaries, a non-unitary cell
matrix, a one-update step, the plain kernel loop and per-flip gather index
kept as references, a reference evolution, a bitwise state comparison, and
config, float and complex formatting, shared by the test modules."""

from functools import lru_cache
from itertools import chain

import numpy as np

from qca2 import gates
from qca2.gates import LocalUnitary, advance, contract, gate_kernels, state_dtype
from qca2.rules import (
    CELL_ZERO,
    CompiledRule,
    EVAL_PRESETS,
    QcaConfig,
    RecordMode,
    basis_state,
    compile_rule,
    probabilities,
)


# X and CN as matrices, the flips a script's X and CN lines place: CN's
# control is the more significant qubit, |10> -> |11> and |11> -> |10>.
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
CN = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128)


def random_state(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    v = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return v / np.linalg.norm(v)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    # Fix the phase ambiguity so the result is well-conditioned unitary.
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A real orthogonal matrix: a unitary whose imaginary parts are all zero."""
    return np.linalg.qr(rng.normal(size=(dim, dim)))[0]


def doubled_identity(monkeypatch) -> LocalUnitary:
    """2·I as a cell unitary.  `LocalUnitary`'s unitarity check passes every
    matrix for the rest of the test, so that the rule compiles too; the
    checks in `analysis` keep their own `unitary_deviation`."""
    monkeypatch.setattr(gates, "unitary_deviation", lambda matrix: 0.0)
    return LocalUnitary(CELL_ZERO, 2 * np.eye(4))


def step(state: np.ndarray, rule: CompiledRule) -> np.ndarray:
    """Advance one full update: the interaction gather, then every cell's
    evaluation.  The result keeps the state's dtype; a real state meeting a
    complex cell unitary raises TypeError.  The input is never mutated."""
    if state.size != 1 << rule.n_qubits:
        raise ValueError(
            f"state has {state.size} amplitudes, rule expects {1 << rule.n_qubits}"
        )
    # `advance` may write either buffer.
    return advance(state.copy(), _rule_kernels(rule, state.dtype), np.empty_like(state))[0]


def advance_reference(psi: np.ndarray, kernels, spare: np.ndarray) -> tuple:
    """`gates.advance` without its basis-state shortcut or its tiles: every
    kernel runs over the whole state, a gather through ``np.take`` and a
    pair through `contract`, a run as its pairs one by one, each writing the
    buffer the one before did not."""
    for kernel in chain.from_iterable(k if isinstance(k, list) else [k] for k in kernels):
        if isinstance(kernel, tuple):
            contract(kernel[0], psi, kernel[1], spare)
        else:
            np.take(psi, kernel, out=spare, mode="clip")
        psi, spare = spare, psi
    return psi, spare


def assert_equal_but_for_signs_of_zeros(fast, reference):
    """Every nonzero real or imaginary part, and every probability, of the
    two states is equal bit for bit."""
    a, b = fast.view(np.float64), reference.view(np.float64)
    assert ((a == 0) == (b == 0)).all()
    assert a[a != 0].tobytes() == b[b != 0].tobytes()
    assert (np.abs(fast) ** 2).tobytes() == (np.abs(reference) ** 2).tobytes()


def flip_source_reference(flips, n_qubits: int) -> np.ndarray:
    """`gates.flip_source` one flip at a time: each flip tests its controls
    on every index, in four passes over the whole index."""
    source = np.arange(1 << n_qubits)
    for flip in flips:
        mask = sum(1 << c for c in flip.controls)
        source ^= ((source & mask) == mask) << flip.target
    return source


@lru_cache(maxsize=8)
def _rule_kernels(rule: CompiledRule, dtype: np.dtype) -> list:
    """The kernels of one update of `rule` on states of `dtype`, built once
    a pair: the interaction's gather, then every cell's evaluation."""
    return [kernel for phase in (rule.interaction, rule.evaluation)
            for kernel in gate_kernels(phase, rule.n_qubits, dtype)]


def evolve_reference(config: QcaConfig) -> np.ndarray:
    """`evolve`'s probability matrix from a loop that never stops early: it
    advances the state through every update of the run with
    `advance_reference` and records every column, on the state dtype
    `evolve` chooses.  Its kernels are built one phase at a time, and an
    interaction without flips has no gather."""
    dtype = state_dtype([config.evaluation])
    rule = compile_rule(config)
    interaction, evaluation = (list(gate_kernels(gates, rule.n_qubits, dtype))
                               for gates in (rule.interaction, rule.evaluation))
    psi = basis_state(config.n_qubits, config.initial_index, dtype)
    spare = np.empty_like(psi)
    columns = [probabilities(psi)]
    for _ in range(config.n_steps):
        psi, spare = advance_reference(psi, interaction, spare)
        if config.record is RecordMode.PER_PHASE:
            columns.append(probabilities(psi))
        psi, spare = advance_reference(psi, evaluation, spare)
        columns.append(probabilities(psi))
    return np.column_stack(columns)


def format_probability(p: float) -> str:
    """Shortest positional decimal that round-trips the double exactly: the
    per-value reference the CSV and period-report formatters are tested
    against."""
    return np.format_float_positional(p, unique=True, trim="-")


def format_complex(z: complex) -> str:
    """``<re><sign><im>i`` with each part as `format_probability` writes it:
    the reference the operator CSV's formatter is tested against."""
    re, im = format_probability(z.real), format_probability(z.imag)
    sign = "+" if not im.startswith("-") else ""
    return f"{re}{sign}{im}i"


def format_config(config: QcaConfig) -> str:
    """Write a config back to its textual form (custom matrices included)."""
    lines = [
        f"cells={config.n_cells}",
        f"rule={config.rule.value}",
        f"boundary={config.boundary.value}",
    ]
    keyword = {e: k for k, e in EVAL_PRESETS.items()}.get(config.evaluation)
    if keyword is None:
        entries = ",".join(map(format_complex, config.evaluation.matrix.reshape(-1)))
        keyword = f"custom:{entries}"
    lines.append(f"eval={keyword}")
    lines.append(f"steps={config.n_steps}")
    lines.append(f"initial={config.initial_index}")
    lines.append(f"record={config.record.value}")
    return "\n".join(lines) + "\n"
