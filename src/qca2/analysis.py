"""Structural checks and period detection for probability patterns:
`detect_period` on a whole probability matrix, and `search_period` on a
config's evolution, streamed column by column."""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import cycle, islice

import numpy as np

from . import rules
from .gates import UNITARY_TOL, unitary_deviation
from .rules import (
    BoundaryCondition,
    QcaConfig,
    build_dense_rule,
    evolve,
    interaction_images,
)

DEFAULT_PERIOD_TOL = 1e-9


@dataclass(frozen=True)
class PeriodReport:
    """Result of searching a probability matrix for a repeating column pattern.

    A period p is only reported as found when the matrix holds at least
    2p+1 columns, i.e. the pattern was observed to repeat at least twice.
    """

    found: bool
    period: int | None
    max_deviation: float
    tolerance: float
    columns_examined: int


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    worst_deviation: float
    details: str = ""


def check_unitary(op: np.ndarray, tol: float = UNITARY_TOL) -> CheckReport:
    """Max-norm distance of op†·op from the identity."""
    deviation = unitary_deviation(op)
    return CheckReport(
        name="unitary",
        passed=deviation <= tol,
        worst_deviation=deviation,
        details=f"dimension {op.shape[0]}, tolerance {tol:g}",
    )


def check_interaction(config: QcaConfig) -> CheckReport:
    """Verify the interaction maps the basis indices one to one and keeps
    every s-bit of each: its deviation is the largest miscount of how often
    an index is hit, plus the number of indices whose s-bits move."""
    images = interaction_images(config)
    dim = images.size
    perm_dev = float(np.abs(np.bincount(images, minlength=dim) - 1).max())
    s_mask = sum(1 << config.layout.s_bit(j) for j in range(config.n_cells))
    violations = int(np.count_nonzero((images ^ np.arange(dim)) & s_mask))
    deviation = perm_dev + violations
    return CheckReport(
        name="interaction-permutation",
        passed=perm_dev == 0.0 and violations == 0,
        worst_deviation=deviation,
        details=f"{violations} s-bit violations over {dim} basis states",
    )


def detect_period(matrix: np.ndarray, tol: float = DEFAULT_PERIOD_TOL) -> PeriodReport:
    """Smallest p such that every column pair (t, t+p) agrees within `tol`
    in max norm, confirmed over at least two full repetitions.

    This is the definition on a whole probability matrix, kept as the
    reference: `qca2 period` runs `search_period`, which reaches the same
    report without holding the columns, and the tests hold the two equal
    bit for bit (perfbench/tracing.py also wraps this function by name).
    Each lag is scanned one column pair at a time and abandoned at the first
    pair that misses; every difference goes to one reused column buffer.
    """
    if matrix.ndim != 2 or matrix.shape[1] < 1:
        raise ValueError("probability matrix must have at least one column")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    n_cols = matrix.shape[1]
    diff = np.empty(matrix.shape[0])
    for p in range(1, (n_cols - 1) // 2 + 1):
        deviation = 0.0
        for t in range(n_cols - p):
            np.subtract(matrix[:, t], matrix[:, t + p], out=diff)
            d = float(np.max(np.abs(diff, out=diff)))
            if not d <= tol:  # a nan misses too
                break
            deviation = max(deviation, d)
        else:
            return PeriodReport(True, p, deviation, tol, n_cols)
    return PeriodReport(False, None, float("nan"), tol, n_cols)


# A fingerprint is a column's values at _SAMPLES rows, then the max and the
# min of each of up to _BLOCKS blocks of consecutive rows, then the max of
# each of as many blocks of rows spaced evenly apart.  A block holds at least
# _BLOCK_ROWS rows, since a reduction over fewer costs more than it tells.
_SAMPLES, _BLOCKS, _BLOCK_ROWS = 64, 256, 64


def _fingerprint_layout(n_rows: int) -> tuple[np.ndarray, int]:
    """The sampled rows, spread by an odd multiplier (distinct modulo a power
    of two), and the number of blocks."""
    rows = np.arange(min(_SAMPLES, n_rows), dtype=np.int64) * 2654435761 % n_rows
    return rows, max(1, min(_BLOCKS, n_rows // _BLOCK_ROWS))


def _fingerprint_size(n_rows: int) -> int:
    rows, blocks = _fingerprint_layout(n_rows)
    return rows.size + 3 * blocks


def _fingerprint(column: np.ndarray, rows: np.ndarray, blocks: int, out: np.ndarray) -> None:
    """Write the fingerprint of `column` into `out`.  Each summary is a value
    of the column or an extreme of some of its values, so it moves by at
    most the max-norm change of the column: for floats too, since rounding a
    difference is monotone."""
    k = rows.size
    out[:k] = column[rows]
    consecutive = column.reshape(blocks, -1)
    np.maximum.reduce(consecutive, axis=1, out=out[k:k + blocks])
    np.minimum.reduce(consecutive, axis=1, out=out[k + blocks:k + 2 * blocks])
    np.maximum.reduce(column.reshape(-1, blocks), axis=0, out=out[k + 2 * blocks:])


def _screen(prints: np.ndarray, lag: int, tol: float) -> bool:
    """False when the fingerprints of some column pair (t, t + `lag`) differ
    by more than `tol`, so that the columns do too.  Pairs are compared in
    doubling chunks, so a lag that misses early costs little."""
    n_pairs, start, size = len(prints) - lag, 0, 1
    while start < n_pairs:
        stop = min(start + size, n_pairs)
        if not (np.abs(prints[start:stop] - prints[start + lag:stop + lag]) <= tol).all():
            return False
        start, size = stop, 2 * size
    return True


def _twin(evolution, lag: int, n_pairs: int, tol: float) -> float | None:
    """The largest deviation of column t from column t + `lag`, t < `n_pairs`,
    computed as `detect_period` does, or None at the first pair that misses.
    Column t comes from an evolution from the initial state, column t + lag
    from a twin evolution started `lag` timesteps ahead, in lockstep."""
    ahead = islice(evolution(), lag, None)
    deviation = 0.0
    for diff in islice(evolution(), n_pairs):
        np.subtract(diff, next(ahead), out=diff)
        d = float(np.max(np.abs(diff, out=diff)))
        if not d <= tol:  # a nan misses too
            return None
        deviation = max(deviation, d)
    return deviation


def search_bytes(n_qubits: int, n_columns: int, dtype) -> int:
    """Bytes `search_period` holds at its peak, at most: two states of
    `dtype`, or four once there are 3 columns and so a lag a twin may check,
    an int64 gather index, three float64 columns (a column, and ``|x|`` and
    its square for the next one), and one float64 fingerprint a column."""
    n_states = 4 if n_columns >= 3 else 2
    vectors = n_states * np.dtype(dtype).itemsize + 8 + 3 * 8
    return (vectors << n_qubits) + 8 * n_columns * _fingerprint_size(1 << n_qubits)


def search_period(config: QcaConfig, n_columns: int,
                  tol: float = DEFAULT_PERIOD_TOL) -> PeriodReport:
    """`detect_period` of the first `n_columns` columns of `config`'s
    evolution (its `n_steps` aside), bit for bit, holding two or four states
    and a fingerprint a column instead of the columns.

    One evolution from the initial state records each column's fingerprint;
    it stops at an exact return to the initial state, after which the
    columns repeat bit for bit.  A lag that `detect_period` accepts passes
    the fingerprint screen, so only the lags that pass are checked, in
    ascending order.  A multiple of the return time compares copies and has
    deviation 0; any other lag runs `_twin` over every column pair, or over
    one return time of them.  The run is refused before it allocates when
    its `search_bytes` exceed physical memory.
    """
    if n_columns < 1:
        raise ValueError("the search needs at least one column")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    n_qubits, initial = config.layout.n_qubits, config.initial_index
    dtype = rules.run_dtype(config)
    rules.check_fits(search_bytes(n_qubits, n_columns, dtype), "states and column fingerprints")
    update = rules.update_kernels(config, dtype)

    def evolution(per_update: int = 0):
        return rules.probability_columns(n_qubits, initial, dtype, cycle(update), per_update)

    rows, blocks = _fingerprint_layout(1 << n_qubits)
    prints = np.empty((n_columns, _fingerprint_size(1 << n_qubits)))
    drawn = 0
    for column in islice(evolution(config.per_update), n_columns):
        _fingerprint(column, rows, blocks, prints[drawn])
        drawn += 1
        del column  # not alive while the next column is computed or a twin runs
    # Timesteps to the exact return; a run that does not return within the
    # horizon counts as returning just past it.
    back = drawn - 1 if drawn < n_columns else n_columns
    for j in range(drawn, n_columns):
        prints[j] = prints[j - back]
    for p in range(1, (n_columns - 1) // 2 + 1):
        if not _screen(prints, p, tol):
            continue
        if p % back == 0:
            return PeriodReport(True, p, 0.0, tol, n_columns)
        deviation = _twin(evolution, p % back, min(n_columns - p, back), tol)
        if deviation is not None:
            return PeriodReport(True, p, deviation, tol, n_columns)
    return PeriodReport(False, None, float("nan"), tol, n_columns)


def cell_shift_permutation(n_cells: int) -> np.ndarray:
    """Basis-index permutation moving every cell's qubit pair up one cell
    (modulo the cell count): a 2-bit left rotation of the index."""
    k = np.arange(4**n_cells, dtype=np.int64)
    return ((k << 2) | (k >> (2 * n_cells - 2))) & (4**n_cells - 1)


def check_translation(config: QcaConfig, steps: int = 20) -> CheckReport:
    """Under a cyclic boundary, evolving a cell-shifted initial state must
    equal the cell-shifted evolution of the original initial state."""
    if config.boundary is not BoundaryCondition.CYCLIC:
        raise ValueError("translation covariance is defined for cyclic boundaries only")
    perm = cell_shift_permutation(config.n_cells)
    base = replace(config, n_steps=steps)
    shifted = replace(base, initial_index=int(perm[config.initial_index]))
    # Row perm[k] of the shifted run corresponds to row k of the base run.
    deviation = float(np.max(np.abs(evolve(shifted)[perm, :] - evolve(base))))
    return CheckReport(
        name="translation-covariance",
        passed=deviation <= 1e-12,
        worst_deviation=deviation,
        details=f"{steps} steps, {config.n_cells} cells",
    )


def check_rule_unitary(config: QcaConfig) -> CheckReport:
    return replace(check_unitary(build_dense_rule(config)), name="rule-unitary")
