"""Structural checks and period detection for probability patterns:
`detect_period` on a whole probability matrix, and `search_period` on a
config's evolution, streamed column by column."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, cycle, islice
from operator import itemgetter

import numpy as np

from . import rules
from .gates import UNITARY_TOL, state_dtype, unitary_deviation
# perfbench/tracing.py wraps analysis.evolve and analysis.build_dense_rule by name.
from .rules import BoundaryCondition, QcaConfig, build_dense_rule, evolve

DEFAULT_PERIOD_TOL = 1e-9
TRANSLATION_STEPS = 20


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


def check_interaction(config: QcaConfig) -> CheckReport:
    """Verify the gathers of `rules.update_kernels`, composed, permute the
    basis indices and keep every s-bit of each: its deviation is the largest
    miscount of how often an index is a source, plus the number of indices
    whose s-bits move."""
    dim = 1 << config.n_qubits
    kernels = chain.from_iterable(rules.update_kernels(config, state_dtype([config.evaluation])))
    source = reduce(lambda composed, gather: composed[gather],
                    (k for k in kernels if not isinstance(k, tuple)), np.arange(dim))
    perm_dev = float(np.abs(np.bincount(source, minlength=dim) - 1).max())
    s_mask = sum(1 << rules.qubit(j, "s") for j in range(config.n_cells))
    violations = int(np.count_nonzero((source ^ np.arange(dim)) & s_mask))
    deviation = perm_dev + violations
    return CheckReport("interaction-permutation", deviation == 0, deviation,
                       f"{violations} s-bit violations over {dim} basis states")


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


def _screen(trace: np.ndarray, lag: int, tol: float) -> bool:
    """False when the initial basis state's probability at some timestep t
    and at t + `lag` differ by more than `tol`.  Each such difference is one
    that `detect_period` takes on columns t and t + `lag`, so the lag misses
    there too."""
    return bool((np.abs(trace[:-lag] - trace[lag:]) <= tol).all())


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


def _evolution(config: QcaConfig, dtype):
    """`config`'s evolution on `dtype` states: a function that starts its
    endless `rules.probability_columns` afresh from `initial` (the config's
    initial index by default); one update's kernels are built once, now."""
    update = rules.update_kernels(config, dtype)

    def evolution(initial: int = config.initial_index, per_update: int = 0):
        return rules.probability_columns(config.n_qubits, initial, dtype, cycle(update),
                                         per_update)

    return evolution


def search_bytes(n_qubits: int, n_columns: int, dtype) -> int:
    """Bytes `search_period` holds at its peak, at most: two states of
    `dtype`, or four once there are 3 columns and so a lag a twin may check,
    an int64 gather index, three float64 columns (a column, and ``|x|`` and
    its square for the next one), and one float64 a column."""
    n_states = 4 if n_columns >= 3 else 2
    vectors = n_states * np.dtype(dtype).itemsize + 8 + 3 * 8
    return (vectors << n_qubits) + 8 * n_columns


def search_period(config: QcaConfig, n_columns: int,
                  tol: float = DEFAULT_PERIOD_TOL) -> PeriodReport:
    """`detect_period` of the first `n_columns` columns of `config`'s
    evolution (its `n_steps` aside), bit for bit, holding two or four states
    and one float a column instead of the columns.

    One evolution from the initial basis state |i> records the trace, each
    column's value at row i; it stops at an exact return to |i>, after
    which the columns repeat bit for bit.  A lag that `detect_period`
    accepts passes the `_screen` of the trace, so only the lags that pass
    are checked, in ascending order.  Column 0 is 1 at row i, so a lag p
    passes only when column p is within `tol` of 1 there too.  A multiple
    of the return time compares copies and has deviation 0; any other lag
    runs `_twin` over every column pair, or over one return time of them.
    The run is refused before it allocates when its `search_bytes` exceed
    physical memory.
    """
    if n_columns < 1:
        raise ValueError("the search needs at least one column")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    n_qubits, initial = config.n_qubits, config.initial_index
    dtype = state_dtype([config.evaluation])
    rules.check_fits(search_bytes(n_qubits, n_columns, dtype), "states and working vectors")
    evolution = _evolution(config, dtype)
    # `map` keeps no column alive while the next one is computed, and the
    # evolution's states are freed before any twin runs.
    trace = np.fromiter(map(itemgetter(initial), islice(
        evolution(per_update=config.per_update), n_columns)), np.float64)
    # Timesteps to the exact return; a run that does not return within the
    # horizon counts as returning just past it.  Past the return, the trace
    # repeats its first `back` values.
    back = trace.size - 1 if trace.size < n_columns else n_columns
    trace = np.resize(trace[:back], n_columns)
    for p in range(1, (n_columns - 1) // 2 + 1):
        if not _screen(trace, p, tol):
            continue
        if p % back == 0:
            return PeriodReport(True, p, 0.0, tol, n_columns)
        deviation = _twin(evolution, p % back, min(n_columns - p, back), tol)
        if deviation is not None:
            return PeriodReport(True, p, deviation, tol, n_columns)
    return PeriodReport(False, None, float("nan"), tol, n_columns)


def cell_shift_permutation(n_cells: int) -> np.ndarray:
    """Basis-index permutation moving every cell's qubits up one cell (modulo
    the cell count): a left rotation of the index, as wide as the register."""
    shift, width = rules.qubit(1, "c"), rules.qubit(n_cells, "c")
    k = np.arange(1 << width, dtype=np.int64)
    return ((k << shift) | (k >> (width - shift))) & ((1 << width) - 1)


def check_bytes(config: QcaConfig) -> int:
    """Bytes of the vectors `check_translation` holds at its peak, more than
    `check_interaction` holds: two state pairs of the run's `state_dtype`,
    the int64 gather and cell-shift indices, and three float64 columns (a
    column pair and a gathered copy, or a column and ``|x|`` and its square)."""
    return (4 * np.dtype(state_dtype([config.evaluation])).itemsize + 5 * 8) << config.n_qubits


def check_translation(config: QcaConfig) -> CheckReport:
    """Under a cyclic boundary, evolving a cell-shifted initial state for
    TRANSLATION_STEPS updates must equal the cell-shifted evolution; the two
    run in lockstep over one update's kernels, a column pair at a time."""
    if config.boundary is not BoundaryCondition.CYCLIC:
        raise ValueError("translation covariance is defined for cyclic boundaries only")
    perm = cell_shift_permutation(config.n_cells)
    evolution = _evolution(config, state_dtype([config.evaluation]))
    shifted, deviation = evolution(int(perm[config.initial_index])), 0.0
    for diff in islice(evolution(), 1 + config.per_update * TRANSLATION_STEPS):
        # Row perm[k] of the shifted run corresponds to row k of the base run.
        np.subtract(next(shifted)[perm], diff, out=diff)
        deviation = max(deviation, float(np.max(np.abs(diff, out=diff))))
    return CheckReport("translation-covariance", deviation <= 1e-12, deviation,
                       f"{TRANSLATION_STEPS} steps, {config.n_cells} cells")


def check_rule_unitary(config: QcaConfig) -> CheckReport:
    """Max-norm distance of U†·U from the identity, U the cell unitary that
    `compile_evaluation` places in every cell.  One update is P, a
    permutation, then U in every cell, so it is unitary exactly when U is."""
    deviation = unitary_deviation(config.evaluation.matrix)
    return CheckReport("rule-unitary", deviation <= UNITARY_TOL, deviation,
                       f"4x4 cell unitary, tolerance {UNITARY_TOL:g}")
