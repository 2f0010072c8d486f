"""Config and script file parsing, CSV and PGM emission.

Config files are line-oriented ``key=value`` text::

    cells=3
    rule=right            # right | left | both
    boundary=const0       # const0 | const1 | cyclic, default const0
    eval=h_s_then_cn      # identity | h_both | h_s_then_cn | custom:<16 entries>
    steps=50
    initial=32
    record=step           # step | phase, default step

Custom evaluation matrices are 16 comma-separated complex entries in
row-major order, written like ``0.5+0.5i``.

Script files reuse the header keys ``cells`` and ``initial``; a line
containing only ``step`` opens a timestep, and the following gate lines
belong to it.  Gate lines name qubits by cell and role (``s0``, ``c1``)::

    step
    H s0
    step
    CN s0 c0

``H``/``X`` take one qubit; ``CN`` takes control then target; ``CCN`` takes
two controls then the target.  ``H`` places `gates.H`; the others are flips.

CSV values are the shortest positional decimals that round-trip each
double, the digits of ``repr`` and of numpy's
``format_float_positional(unique=True, trim="-")``.  They are computed with
numpy, a block of values at a time: Dragonbox finds each value's digits
with one 64×128-bit integer product in all but a few cases, and each
distinct value is laid out as a fixed-width row of bytes, NUL where it has
no character.  PGM pixels take their rows from one table of the 256 pixel
texts.  Every writer gathers a block's rows, writes separators and line
ends into their last columns and drops the NULs.  A CSV or PGM block in
which at most a quarter of the rows are distinct, bit for bit, formats and
compacts each distinct row once and copies its text: a QCA's probabilities
are periodic, and whole rows repeat (2 distinct rows of 65,536 in an 8-cell
`h_both` run).  A writer takes a matrix of at least one column, as every
command's is.  Each writer is a stream: it yields its header and then
each block's characters in order, so the caller can write a block while
the next ones are formatted, and at most `BLOCKS_IN_FLIGHT` blocks are
alive at once.  On more than one CPU the blocks are formatted on the
consuming thread and one helper thread: the bytes are the same on one
thread or two.  `write_csv`, `render_pgm` and `write_operator_csv` join a
stream into one text.
"""

from __future__ import annotations

import functools
import os
import threading
from typing import Container, Iterator

import numpy as np

from .gates import H, ControlledFlip, GateOp, LocalUnitary
from .rules import (
    CELL_ZERO,
    EVAL_PRESETS,
    MAX_CELLS,
    BLOCK_VALUES,
    BLOCKS_IN_FLIGHT,
    BoundaryCondition,
    NeighborhoodRule,
    QcaConfig,
    RecordMode,
    qubit,
)


class ConfigError(ValueError):
    """Base class for config and script file errors."""


class ConfigSyntaxError(ConfigError):
    """A syntax error, at `line_no` when it belongs to one line."""

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class ConfigRangeError(ConfigError):
    pass


class NonUnitaryMatrixError(ConfigError):
    pass


def _split_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


def _parse_int(value: str, line_no: int, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigSyntaxError(line_no, f"{key} must be an integer, got {value!r}") from None


def _parse_complex(token: str, line_no: int) -> complex:
    try:
        return complex(token.replace("i", "j"))
    except ValueError:
        raise ConfigSyntaxError(line_no, f"bad complex entry {token!r}") from None


def _parse_eval(value: str, line_no: int) -> LocalUnitary:
    if value in EVAL_PRESETS:
        return EVAL_PRESETS[value]
    if value.startswith("custom:"):
        tokens = value[len("custom:"):].split(",")
        if len(tokens) != 16:
            raise ConfigSyntaxError(
                line_no, f"custom eval needs 16 entries, got {len(tokens)}"
            )
        entries = [_parse_complex(t.strip(), line_no) for t in tokens]
        matrix = np.array(entries, dtype=np.complex128).reshape(4, 4)
        try:
            return LocalUnitary(CELL_ZERO, matrix)
        except ValueError:
            raise NonUnitaryMatrixError("evaluation matrix must be 4x4 unitary within 1e-12")
    raise ConfigSyntaxError(line_no, f"unknown eval {value!r}")


def _key_values(
    lines: list[tuple[int, str]], allowed: Container[str], required: tuple[str, ...]
) -> dict[str, tuple[int, str]]:
    pairs: dict[str, tuple[int, str]] = {}
    for line_no, line in lines:
        if "=" not in line:
            raise ConfigSyntaxError(line_no, f"expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in allowed:
            raise ConfigSyntaxError(line_no, f"unknown key {key!r}")
        if key in pairs:
            raise ConfigSyntaxError(line_no, f"duplicate key {key!r}")
        pairs[key] = (line_no, value)
    for key in required:
        if key not in pairs:
            raise ConfigSyntaxError(None, f"missing required key {key!r}")
    return pairs


def _parse_member(enum_type: type, what: str, value: str, line_no: int):
    """The member of `enum_type` with `value`; a bad value is named as `what`."""
    try:
        return enum_type(value)
    except ValueError:
        raise ConfigSyntaxError(line_no, f"unknown {what} {value!r}") from None


# Each config key's QcaConfig field and parser, in the order keys are read;
# a key the file leaves out takes the field's default.
_CONFIG_FIELDS = {
    "rule": ("rule", functools.partial(_parse_member, NeighborhoodRule, "rule")),
    "boundary": ("boundary", functools.partial(_parse_member, BoundaryCondition, "boundary")),
    "eval": ("evaluation", _parse_eval),
    "record": ("record", functools.partial(_parse_member, RecordMode, "record mode")),
    "cells": ("n_cells", functools.partial(_parse_int, key="cells")),
    "initial": ("initial_index", functools.partial(_parse_int, key="initial")),
    "steps": ("n_steps", functools.partial(_parse_int, key="steps")),
}


def parse_config(text: str) -> QcaConfig:
    """Parse a run config; raises ConfigError subclasses on bad input."""
    pairs = _key_values(_split_lines(text), _CONFIG_FIELDS, ("cells", "rule", "steps", "initial"))
    fields = {field: parse(pairs[key][1], pairs[key][0])
              for key, (field, parse) in _CONFIG_FIELDS.items() if key in pairs}
    try:
        return QcaConfig(**fields)
    except ValueError as exc:
        raise ConfigRangeError(str(exc)) from None


def _parse_qubit(token: str, cells: int, line_no: int) -> int:
    role = token[:1]
    # isdecimal, not isdigit: int() refuses digits such as "²".
    if role not in ("s", "c") or not token[1:].isdecimal():
        raise ConfigSyntaxError(line_no, f"bad qubit name {token!r} (want e.g. s0, c1)")
    cell = _parse_int(token[1:], line_no, "cell")
    if cell >= cells:
        raise ConfigRangeError(f"line {line_no}: cell index {cell} out of range for {cells} cells")
    return qubit(cell, role)


_SCRIPT_GATE_ARITY = {"H": 1, "X": 1, "CN": 2, "CCN": 3}


def parse_script(text: str) -> tuple[int, int, list[list[GateOp]]]:
    """Parse a gate script; returns (n_qubits, initial_index, timesteps)."""
    lines = _split_lines(text)
    first_step = next((i for i, (_, line) in enumerate(lines) if line == "step"), len(lines))
    header, body = lines[:first_step], lines[first_step:]
    pairs = _key_values(header, {"cells", "initial"}, ("cells", "initial"))
    cells, initial = (_parse_int(pairs[k][1], pairs[k][0], k) for k in ("cells", "initial"))
    if not 1 <= cells <= MAX_CELLS:  # before 4**cells is formed
        raise ConfigRangeError(f"n_cells must be in 1..{MAX_CELLS}, got {cells}")
    n_qubits = 2 * cells
    if not 0 <= initial < 1 << n_qubits:
        raise ConfigRangeError(f"initial index {initial} out of range for {n_qubits} qubits")

    script: list[list[GateOp]] = []
    for line_no, line in body:
        if line == "step":
            script.append([])
            continue
        tokens = line.split()
        name, args = tokens[0], tokens[1:]
        if name not in _SCRIPT_GATE_ARITY:
            raise ConfigSyntaxError(line_no, f"unknown gate {name!r}")
        if len(args) != _SCRIPT_GATE_ARITY[name]:
            raise ConfigSyntaxError(
                line_no,
                f"{name} takes {_SCRIPT_GATE_ARITY[name]} qubit(s), got {len(args)}",
            )
        bits = [_parse_qubit(a, cells, line_no) for a in args]
        if len(set(bits)) != len(bits):
            raise ConfigSyntaxError(line_no, "gate qubits must be distinct")
        script[-1].append(LocalUnitary((bits[0],), H) if name == "H"
                          else ControlledFlip(bits[:-1], bits[-1]))
    return n_qubits, initial, script


# --- shortest round-trip decimals ------------------------------------------
#
# Dragonbox (J. Jeon, "Dragonbox: A New Floating-Point Binary-to-Decimal
# Conversion Algorithm", 2020), run on a whole array of bit patterns with
# numpy uint64 arithmetic.  A finite double v = c·2^q rounds back from any
# decimal in its rounding interval, whose ends (2c±1)·2^(q-1) lie halfway to
# its neighbours and belong to it when c is even.  With k = floor(log10 2^q)
# - 2, the interval scaled by 10^-k is δ ≈ 2^q·10^-k wide, 100 <= δ < 1000.
# With β = q + floor(log2 10^-k), 6 to 9, one product of (2c+1)·2^β by φ,
# 10^-k·2^(127 - floor(log2 10^-k)) rounded up to 128 bits, gives z, the
# integer part of the scaled upper end; δ is φ's top bits.  With
# r = z mod 1000, the interval holds the last multiple of 10^(k+3) up to the
# upper end when r < δ (unless r = 0 and that end is an excluded integer),
# and when r = δ and the lower end, (2c-1)·2^β·φ, is not above it.
# Otherwise the result is the multiple of 10^(k+2) nearest to v, found from
# dist = r - δ/2 + 50 and, when 100 divides dist, from the parity of 2c·2^β·φ
# and whether v·10^-k is an integer (a tie, broken to even).  These two
# extra products are made only for the few values that need them.  When
# c = 2^52, the lower neighbour is a quarter of the way down (the irregular
# spacing), and the result depends on q alone, so it is tabled.

_K_MIN, _K_MAX = -292, 326  # the 10^-k of 3/4·2^971 and of 2^-1074
_M32, _M52 = (1 << 32) - 1, (1 << 52) - 1


@functools.cache
def _tables() -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """Dragonbox's constants for each 11-bit exponent field of a double, and
    the four ASCII digits of every number below 10^4 as one uint32 each and
    the zeros that end them.

    For the field's q and k: the four 32-bit limbs of φ, low first, exact
    from Python ints; β + 1; (2^53 + 1)·2^β, or 2^β for a subnormal, so that
    (2c+1)·2^β is m·2^(β+1) plus it for the 52 stored bits m; δ; k + 2; and
    the (d, k) of the irregular spacing, c = 2^52, as Dragonbox finds them.
    """
    phi = []
    for k in range(_K_MIN, _K_MAX + 1):  # the 10^k of φ_k
        shift = 127 - (k * 1741647 >> 19)  # 127 - floor(log2 10^k)
        num, den = 10 ** max(k, 0) << max(shift, 0), 10 ** max(-k, 0) << max(-shift, 0)
        phi.append([-(-num // den) >> s & _M32 for s in (0, 32, 64, 96)])
    phi = np.array(phi, dtype=np.uint64)
    e = np.arange(2048)
    q = np.maximum(e, 1) - 1075
    k = (q * 315653 >> 20) - 2  # floor(log10 2^q) - 2
    beta = (q + (-k * 1741647 >> 19)).astype(np.uint64)
    limbs = tuple(np.ascontiguousarray(phi[-k - _K_MIN].T))
    delta = limbs[3] >> 31 - beta
    hidden = ((e != 0).astype(np.uint64) << 53 | 1) << beta
    # The irregular spacing: Dragonbox's shorter-interval case.  Its ends are
    # integers only for q of 2 and 3, and its only tie is at q = -77.
    k_irr = (q * 631305 - 261663) >> 21  # floor(log10(3/4·2^q))
    top = phi[-k_irr - _K_MIN, 3] << 32 | phi[-k_irr - _K_MIN, 2]
    b = 11 - (q + (-k_irr * 1741647 >> 19)).astype(np.uint64)
    lower = ((top - (top >> 54)) >> b) + ((q < 2) | (q > 3))
    upper = (top + (top >> 53)) >> b
    y = ((top >> b - 1) + 1) // 2
    y = np.where((y & 1 == 1) & (q == -77), y - 1, y + (y < lower))
    d_irr = np.where(upper // 10 * 10 >= lower, upper // 10 * 10, y)
    i = np.arange(10**4, dtype=np.uint16)  # uint16: first built while a run's matrix is alive
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1).astype(np.uint8)
    return ((limbs, beta + 1, hidden, delta, k + 2, d_irr, k_irr),
            (digits + ord("0")).view(np.uint32)[:, 0], (digits[:, ::-1].cumsum(1) == 0).sum(1))


def _mul(x0, x1, y0, y1):
    """x·y as its high and low uint64 words, from the 32-bit halves of uint64
    arrays x < 2^63 and y."""
    p00, p01, p10 = x0 * y0, x0 * y1, x1 * y0
    mid = (p00 >> 32) + (p01 & _M32) + p10
    return x1 * y1 + (p01 >> 32) + (mid >> 32), p00 + (p01 + p10 << 32)


def _product(x, phi):
    """x·φ as three uint64 words, high first, for x < 2^63 and φ's four
    32-bit limbs, low first."""
    x0, x1 = x & _M32, x >> 32
    hh, hl = _mul(x0, x1, phi[2], phi[3])
    lh, ll = _mul(x0, x1, phi[0], phi[1])
    mid = hl + lh
    return hh + (mid < lh), mid, ll


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, k) of each finite nonzero double's bit pattern: d·10^k is the
    shortest decimal that rounds back to it, d < 10^17, with trailing zeros
    at times.  Zeros, infinities and nans give meaningless pairs."""
    (limbs, shift, hidden, delta, k, d_irr, k_irr), *_ = _tables()
    e = bits.view(np.int64) >> 52  # the exponent field, less 2048 when negative
    m = bits & _M52
    phi, delta, shift = [limb[e] for limb in limbs], delta[e], shift[e]
    u = (m << shift) + hidden[e]  # (2c+1)·2^β
    z, frac, _ = _product(u, phi)
    d = z // 1000
    r = z - d * 1000
    small = r > delta
    dist = r - (delta >> 1) + 50
    hundreds = dist // 100
    divisible = dist == hundreds * 100
    d = d * 10 + hundreds * small  # in units of 10^(k+2)
    k = k[e]
    j = np.flatnonzero((r == delta) | (r == 0) | divisible | (m == 0))
    if j.size:
        phi, beta, rj = [limb[j] for limb in phi], shift[j] - 1, r[j]
        two_c = (u[j] >> beta) - 1
        odd = (two_c & 2).astype(bool)
        parity, integer = [], []
        for x in (two_c - 1, two_c):  # 2^β·φ times the lower end and v, over 2^(q-1)
            _, hi, lo = _product(x, phi)
            parity.append((hi >> 64 - beta & 1).astype(bool))
            integer.append((hi << beta | lo >> 64 - beta) == 0)
        small = np.where(rj == delta[j], ~(parity[0] | integer[0] & ~odd),
                         small[j] | (rj == 0) & (frac[j] == 0) & odd)
        dist = z[j] - (delta[j] >> 1) + 50  # r - δ/2 + 50, and 1000 more when r = 0
        dj = dist // 100
        dj -= (dist == dj * 100) & ((parity[1] != (dist & 1 == 1)) | (dj & 1 == 1) & integer[1])
        irregular = m[j] == 0
        d[j] = np.where(irregular, d_irr[e[j]], np.where(small, dj, d[j]))
        k[j] = np.where(irregular, k_irr[e[j]], k[j])
    return d, k


def _digits(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 20 ASCII digits of each d < 10^20, zero-padded, as uint8 rows,
    and the zeros that end each d (20 for 0)."""
    groups, (_, quad_table, zeros_table) = np.empty((d.size, 5), np.uint32), _tables()
    for j in range(4, 0, -1):  # // and -: numpy's % and divmod of uint64 are slower
        rest = d // 10**4
        groups[:, j], d = d - rest * 10**4, rest
    groups[:, 0] = d
    zeros, i = zeros_table[groups[:, 4]], np.flatnonzero(groups[:, 4] == 0)
    for j in range(3, -1, -1):  # the d whose groups below j are all 0
        zeros[i] += zeros_table[groups[i, j]]
        i = i[groups[i, j] == 0]
    return quad_table[groups].view(np.uint8), zeros


_POW10 = np.array([10**i for i in range(20)], dtype=np.uint64)
_ZERO, _POINT, _MINUS, _PLUS = b"0.-+"


def _layout(bits: np.ndarray, suffix: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Each double's shortest positional decimal as one row of a uint8 array:
    its characters where they fall, NUL elsewhere, and `suffix` NUL columns
    at the end.  Also returns the column of each row's sign: ``-`` for a
    negative value, NUL (kept free) for any other.

    The digits of a value's `_shortest` d sit right-aligned in 20 columns,
    so its text is a run of columns around them: ``0.`` and zeros before
    them when it is below 1, the point inside them when it has integer and
    fraction digits, and zeros after them for an integer that ends in zeros.
    """
    n = bits.size
    d, k = _shortest(bits)
    special = (bits & 0x7FF << 52) == 0x7FF << 52
    blank = special | (bits << 1 == 0)
    d[blank], k[blank] = 0, 0
    digits, n_zeros = _digits(d)  # d in 20 columns, units at column 19
    n_digits = np.searchsorted(_POW10, d, side="right")
    # Each text spans the columns [lo, hi) of `digits`, widened with zeros.
    fraction = k + n_zeros < 0
    below_one = fraction & (n_digits + k <= 0)
    point_inside = fraction & ~below_one
    lo = 20 - np.maximum(n_digits, 1)
    lo[below_one] = 18 + k[below_one]
    lo[point_inside] -= 1  # the integer digits move left to make room
    lo[special] = 17
    hi = np.where(fraction, 20 - n_zeros, 20 + k)
    # The rows keep `digits`' columns [first, end), a sign column included.
    first, end = int(lo.min(initial=1)) - 1, int(hi.max(initial=0))
    width = end - first + suffix
    rows = np.full((n, width), _ZERO, np.uint8)
    kept = slice(max(first, 0), min(end, 20))
    rows[:, kept.start - first:kept.stop - first] = digits[:, kept]
    lo, hi, point = lo - first, hi - first, 19 + k - first
    if point_inside.any():
        i = np.flatnonzero(point_inside)
        moved = rows[i]
        left = np.arange(width - 1) < point[i, None]
        moved[:, :-1] = np.where(left, moved[:, 1:], moved[:, :-1])
        rows[i] = moved
    flat, starts = rows.reshape(-1), np.arange(0, n * width, width)
    i = np.flatnonzero(fraction)
    flat[starts[i] + point[i]] = _POINT
    negative = (bits >> 63).astype(bool)
    if special.any():
        i = np.flatnonzero(special)
        nan = bits[i] << 12 != 0
        words = np.frombuffer(b"nan", np.uint8), np.frombuffer(b"inf", np.uint8)
        rows[i, 17 - first:20 - first] = np.where(nan[:, None], *words)
        negative[i[nan]] = False
    sign = lo - 1
    flat[starts + sign] = np.where(negative, _MINUS, 0)
    lo -= negative
    # ge[width - j] is True from column j on: a row keeps [lo, hi).
    ge = np.add.outer(np.arange(width + 1), np.arange(width)) >= width
    rows *= np.take(ge, width - lo, axis=0)
    rows *= np.take(~ge, width - hi, axis=0)
    return rows, sign


def _row_texts(chars: np.ndarray) -> list[bytes]:
    """The characters of each row of `chars`, its NULs dropped."""
    keep = chars != 0
    text, ends = chars[keep].tobytes(), np.cumsum(keep.reshape(len(chars), -1).sum(1)).tolist()
    return [text[start:stop] for start, stop in zip([0, *ends], ends)]


def _format_floats(values) -> list[str]:
    """Each value as the shortest positional decimal that round-trips it
    exactly (``0.5``, ``1``, ``-0``, ``0.000000001``, ``nan``, ``-inf``)."""
    rows, _ = _layout(np.asarray(values, dtype=np.float64).reshape(-1).view(np.uint64))
    return [str(text, "ascii") for text in _row_texts(rows)]


# Values per `_layout` call: its temporaries take about 200 bytes a value,
# so `_map_blocks` cuts a row of more values into blocks of about this many.
# Smaller calls make the writers' two threads contend for the GIL.
_LAYOUT_VALUES = 1 << 13
# Blocks that may be formatted past the last one handed to the consumer.
_AHEAD = BLOCKS_IN_FLIGHT - 1


def _few_patterns(bits: np.ndarray) -> np.ndarray | None:
    """The distinct values of `bits`, sorted, if there are at most a
    quarter as many as values; None otherwise."""
    ordered = np.sort(bits, axis=None)
    patterns = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    return patterns if 4 * patterns.size <= bits.size else None


@functools.cache
def _weights() -> np.ndarray:
    """Odd uint64 weights for the values of a row: a Weyl sequence, mixed."""
    z = np.arange(1, _LAYOUT_VALUES + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15
    return (z ^ z >> 30) * 0xBF58476D1CE4E5B9 | 1


def _repeated_rows(words: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """A row of each distinct row of a 2-D uint64 array and each row's
    place among those, if at most a quarter of the rows are distinct; None
    otherwise, or when two rows of one hash differ.  A row's hash is the
    wrapping dot product of `_weights` with its words, high halves xored
    into low ones so that dyadic doubles, low bits 0, spread."""
    hashes = (words ^ words >> 32) @ _weights()[:words.shape[1]]
    if (patterns := _few_patterns(hashes)) is None:
        return None
    inverse, rows = np.searchsorted(patterns, hashes), np.empty(patterns.size, np.intp)
    rows[inverse] = np.arange(len(words))  # one row of each hash, whichever
    return (rows, inverse) if np.array_equal(words[rows[inverse]], words) else None


def _formatted(values: np.ndarray, suffix: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """`_layout` of a C-contiguous float64 block of rows, as arrays of
    characters shaped (rows, columns, width) and their sign columns, for
    consecutive rows in order.

    A block with few distinct bit patterns (so -0.0 and 0.0 stay apart) is
    formatted once per pattern and gathered.  A block of mostly distinct
    values is formatted value by value, a few rows at a time, which costs
    less than finding each value's pattern.
    """
    bits = values.view(np.uint64)
    patterns = _few_patterns(bits)
    if patterns is not None:
        rows, sign = _layout(patterns, suffix)
        inverse = np.searchsorted(patterns, bits)
        yield np.take(rows, inverse, axis=0), sign[inverse]
        return
    n_cols = values.shape[1]
    step = max(1, _LAYOUT_VALUES // n_cols)
    for start in range(0, len(values), step):
        rows, sign = _layout(bits[start:start + step].reshape(-1), suffix)
        yield rows.reshape(-1, n_cols, rows.shape[1]), sign.reshape(-1, n_cols)


def _map_blocks(block, matrix: np.ndarray, row_values: int) -> Iterator:
    """The pieces of `block(start, col, values)`, a list, for each block
    ``values = matrix[start:start + rows, col:col + cols]``, yielded in
    order: whole rows, `BLOCK_VALUES` values a block counting `row_values`
    for each row, or, when a row holds more than `_LAYOUT_VALUES` values,
    one row cut into blocks of columns of about that many values.  A
    block's exception is raised in its place, once the blocks before it are
    yielded.  On more than one CPU, the caller and one helper thread take
    the blocks from a shared counter, at most `_AHEAD` blocks past the last
    one yielded; the helper stops at its first exception, and when the
    generator is closed or raises."""
    n_cols, wide = matrix.shape[1], row_values > _LAYOUT_VALUES
    step = 1 if wide else BLOCK_VALUES // row_values
    cols = max(1, n_cols * _LAYOUT_VALUES // row_values) if wide else n_cols
    starts = [(r, c) for r in range(0, len(matrix), step) for c in range(0, n_cols, cols)]
    done, ready = {}, threading.Condition()
    taken = yielded = 0
    stopped = False

    def take() -> int | None:
        """The next block to format, None when there is none in the window;
        `ready` held."""
        nonlocal taken
        if stopped or taken >= min(len(starts), yielded + _AHEAD):
            return None
        taken += 1
        return taken - 1

    def run(i: int) -> bool:
        """Format block i; False when it raised."""
        r, c = starts[i]
        try:
            outcome = block(r, c, matrix[r:r + step, c:c + cols]), None
        except BaseException as exc:
            outcome = None, exc
        with ready:
            done[i] = outcome
            ready.notify_all()
        return outcome[1] is None

    def help_out() -> None:
        while True:
            with ready:
                while (i := take()) is None:
                    if stopped or taken == len(starts):
                        return
                    ready.wait()
            if not run(i):
                return

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    helper = threading.Thread(target=help_out) if len(starts) > 1 and cpus > 1 else None
    try:
        if helper:
            _tables(), _weights()  # built first, so two threads never race to build them
            helper.start()
        for i in range(len(starts)):
            while True:
                with ready:
                    if i in done:
                        (result, error), yielded = done.pop(i), i + 1
                        ready.notify_all()
                        break
                    j = take()
                    if j is None:
                        ready.wait()
                        continue
                run(j)
            if error is not None:
                raise error
            yield from result
            del result  # not held while the next block is awaited
    finally:
        with ready:
            stopped = True
            ready.notify_all()
        if helper:
            helper.join()


def csv_blocks(matrix: np.ndarray) -> Iterator[bytes | np.ndarray]:
    """Probability matrix as CSV: header ``state,t0,t1,...``, one row per
    basis state, values as shortest round-trip decimals.  Yields the header,
    a block of names at a time, and then each block's ASCII characters, as
    bytes or uint8 arrays.

    Each block is copied in C order, behind its state column when it starts
    its rows, and formatted with numpy."""
    n_cols = matrix.shape[1]
    yield b"state"
    for start in range(0, n_cols, BLOCK_VALUES):  # the header, a block of names at a time
        yield "".join(f",t{t}" for t in range(start, min(start + BLOCK_VALUES, n_cols))).encode()
    yield b"\n"

    def block_chars(start: int, col: int, block: np.ndarray) -> list[bytes | np.ndarray]:
        first = int(col == 0)  # the block starts its rows, with their state column
        values = np.empty((len(block), first + block.shape[1]))
        values[:, 0] = np.arange(start, start + len(block))
        values[:, first:] = block
        rows, inverse = _repeated_rows(values[:, first:].view(np.uint64)) or (slice(None), None)
        pieces = []
        for chars, _ in _formatted(values[rows], 1):
            chars[:, :, -1] = ord(",")
            if col + block.shape[1] == n_cols:
                chars[:, -1, -1] = ord("\n")
            pieces += [chars[chars != 0]] if inverse is None else _row_texts(chars)
        if inverse is None:
            return pieces
        # Each distinct row's text less its state; ``%d`` prints a state < 2^53 as `_layout` does.
        texts = [text.partition(b",")[2] for text in pieces]
        labelled = [None] * (2 * len(inverse))
        labelled[::2] = range(start, start + len(inverse))
        labelled[1::2] = map(texts.__getitem__, inverse.tolist())
        return [(b"%d,%b" * len(inverse)) % tuple(labelled)]

    yield from _map_blocks(block_chars, matrix, n_cols + 1)


def write_csv(matrix: np.ndarray) -> str:
    """`csv_blocks` as one text."""
    return b"".join(csv_blocks(matrix)).decode("ascii")


def read_csv(text: str) -> np.ndarray:
    """Inverse of write_csv (used for round-trip verification)."""
    lines = [ln for ln in text.splitlines() if ln]
    rows = [[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]]
    return np.array(rows, dtype=np.float64)


# Each pixel value's text as one uint32: its digits, NUL padding and a space.
_PIXEL_TEXT = np.frombuffer(
    b"".join(str(v).encode().ljust(3, b"\0") + b" " for v in range(256)), np.uint32)


def pgm_blocks(matrix: np.ndarray) -> Iterator[bytes | np.ndarray]:
    """Plain (P2) PGM render of a probability matrix: the header, then each
    block of rows' ASCII characters, as bytes or uint8 arrays.

    Probability 1 maps to black (0) and probability 0 to white (255); pixel
    values round half away from zero.  State 0 is the top row, time runs
    left to right.  A probability that is nan or infinite raises ValueError
    when its block is formatted.
    """
    n_rows, n_cols = matrix.shape
    yield f"P2\n{n_cols} {n_rows}\n255\n".encode("ascii")

    def block_chars(start: int, col: int, block: np.ndarray) -> list[bytes | np.ndarray]:
        if not np.isfinite(block).all():
            raise ValueError("probabilities must be finite")
        # 255*(1-p) is nonnegative, so floor(x + 0.5) is half-away-from-zero.
        pixels = np.floor(255.0 * (1.0 - np.clip(block, 0.0, 1.0)) + 0.5).astype(np.int64)
        rows, inverse = _repeated_rows(pixels.view(np.uint64)) or (slice(None), None)
        chars = np.take(_PIXEL_TEXT, pixels[rows]).view(np.uint8).reshape(-1, block.shape[1], 4)
        if col + block.shape[1] == n_cols:
            chars[:, -1, -1] = ord("\n")
        if inverse is None:
            return [chars[chars != 0]]
        return [b"".join(map(_row_texts(chars).__getitem__, inverse.tolist()))]

    yield from _map_blocks(block_chars, matrix, n_cols)


def render_pgm(matrix: np.ndarray) -> bytes:
    """`pgm_blocks` as one bytes object."""
    return b"".join(pgm_blocks(matrix))


def operator_blocks(op: np.ndarray) -> Iterator[np.ndarray]:
    """Dense operator as CSV of complex entries ``<re><sign><im>i``, one
    matrix row per line, as each block of rows' ASCII characters in uint8
    arrays.  The real and imaginary parts of a block of rows are formatted
    together."""
    n_cols = op.shape[1]

    def block_chars(start: int, col: int, block: np.ndarray) -> list[np.ndarray]:
        values = np.ascontiguousarray(block, dtype=np.complex128).view(np.float64)
        pieces = []
        for chars, sign in _formatted(values, 2):
            # Odd columns are imaginary parts, which always show their sign.
            width = chars.shape[2]
            flat = chars.reshape(-1)
            at = np.arange(width, flat.size, 2 * width) + sign[:, 1::2].reshape(-1)
            flat[at] = np.where(flat[at] == _MINUS, _MINUS, _PLUS)
            imag = chars[:, 1::2]
            imag[:, :, -2] = ord("i")
            imag[:, :, -1] = ord(",")
            if col + block.shape[1] == n_cols:
                imag[:, -1, -1] = ord("\n")
            pieces.append(chars[chars != 0])
        return pieces

    yield from _map_blocks(block_chars, op, 2 * n_cols)


def write_operator_csv(op: np.ndarray) -> str:
    """`operator_blocks` as one text."""
    return b"".join(operator_blocks(op)).decode("ascii")


def format_period_report(report) -> str:
    dev_str, tol_str = _format_floats([report.max_deviation, report.tolerance])
    return (
        f"found={'true' if report.found else 'false'}\n"
        f"period={report.period if report.period is not None else 0}\n"
        f"max_deviation={dev_str}\n"
        f"tolerance={tol_str}\n"
        f"columns_examined={report.columns_examined}\n"
    )
