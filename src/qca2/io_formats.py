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
two controls then the target.

CSV values are the shortest positional decimals that round-trip each
double, the digits of ``repr`` and of numpy's
``format_float_positional(unique=True, trim="-")``.  They are computed with
numpy, a block of values at a time: Schubfach finds each value's digits
with integer arithmetic, and each distinct value is laid out as a
fixed-width row of bytes, NUL where it has no character.  PGM pixels take
their rows from one table of the 256 pixel texts.  Every writer gathers a
block's rows, writes separators and line ends into their last columns and
drops the NULs.
"""

from __future__ import annotations

import functools
from typing import Container, Iterator

import numpy as np

from .gates import ControlledFlip, GateOp, LocalUnitary, standard_gate
from .rules import (
    CELL_ZERO,
    EVAL_PRESETS,
    MAX_CELLS,
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
        script[-1].append(LocalUnitary((bits[0],), standard_gate("H")) if name == "H"
                          else ControlledFlip(bits[:-1], bits[-1]))
    return n_qubits, initial, script


# --- shortest round-trip decimals ------------------------------------------
#
# Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020), run
# on a whole array of bit patterns with numpy uint64 arithmetic.  A finite
# double v = c·2^q rounds back from any decimal in its rounding interval
# R_v, whose ends lie halfway to its neighbours (a quarter of the way down
# when c = 2^52, the irregular spacing) and belong to R_v when c is even.
# With 10^k the largest power of ten not above the width of R_v, R_v holds
# a multiple of 10^k.  The shortest decimal in R_v is one of the two
# multiples of 10^(k+1) around v if exactly one of them lies in R_v, and
# otherwise the multiple of 10^k in R_v nearest to v, ties to even.  The
# ends and v are scaled by 4·10^-k as rop(g, cp): g·cp / 2^127 rounded to
# odd, with g a 126-bit upper approximation of 10^-k.

_K_MIN, _K_MAX = -324, 292  # the k of 2^-1074 and of the largest doubles
_M32, _M63 = (1 << 32) - 1, (1 << 63) - 1


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The high and low 63 bits of g = floor(10^-k·2^-r) + 1, 2^125 <= g <
    2^126, for every k, computed exactly with Python ints; and the four
    ASCII digits of every number below 10^4 as one uint32 each."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        p = 10 ** abs(k)
        if k <= 0:
            r = p.bit_length() - 126
            g.append((p >> r if r >= 0 else p << -r) + 1)
        else:
            g.append((1 << p.bit_length() + 125) // p + 1)
    g1, g0 = np.array([(x >> 63, x & _M63) for x in g], dtype=np.uint64).T
    i = np.arange(10**4, dtype=np.uint16)  # uint16: first built while a run's matrix is alive
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1).astype(np.uint8)
    return g1.copy(), g0.copy(), (digits + ord("0")).view(np.uint32)[:, 0]


def _mul_hi(x0, x1, y0, y1):
    """floor(x·y / 2^64) of uint64 arrays x and y, from their 32-bit halves."""
    p01, p10 = x0 * y1, x1 * y0
    mid = (x0 * y0 >> 32) + (p01 & _M32) + (p10 & _M32)
    return x1 * y1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _rop(g1, g0, cp):
    """g·cp / 2^127 rounded to odd, for g = g1·2^63 + g0 and cp < 2^59:
    the high product of g1 plus the carry of the one of g0, and a set low
    bit when any of the next 63 bits is set (Giulietti's rop)."""
    c0, c1 = cp & _M32, cp >> 32
    z = (g1 * cp >> 1) + _mul_hi(g0 & _M32, g0 >> 32, c0, c1)
    return (_mul_hi(g1 & _M32, g1 >> 32, c0, c1) + (z >> 63)) | (z & _M63 != 0)


def _scaled_interval(bits: np.ndarray) -> tuple[np.ndarray, ...]:
    """k and the lower end, value and upper end of each rounding interval
    R_v, scaled by 4·10^-k and rounded to odd; an end left out of R_v moves
    one unit inwards."""
    g1_table, g0_table, _ = _tables()
    e = (bits >> 52).astype(np.int64) & 0x7FF
    m = bits & ((1 << 52) - 1)
    irregular = (m == 0) & (e > 1)
    cb = (m | (e != 0).astype(np.uint64) << 52) << 2
    q = np.maximum(e, 1) - 1075
    # floor(log10(2^q)), or floor(log10(3/4·2^q)) for the irregular spacing
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + (-k * 217706 >> 16) + 2).astype(np.uint64)  # cp = cb·2^h
    g1, g0 = g1_table[k - _K_MIN], g0_table[k - _K_MIN]
    odd = cb >> 2 & 1  # an odd c leaves the ends out of R_v
    return (k, _rop(g1, g0, cb - 2 + irregular << h) + odd, _rop(g1, g0, cb << h),
            _rop(g1, g0, cb + 2 << h) - odd)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, k) of each finite nonzero double's bit pattern: d·10^k is the
    shortest decimal that rounds back to it, d < 10^17.  Zeros, infinities
    and nans give meaningless pairs."""
    k, vbl, vb, vbr = _scaled_interval(bits)
    s = vb >> 2
    t = s + 1
    u_in, w_in = vbl <= s << 2, t << 2 <= vbr
    d = np.where((vb > (s << 2) + 2) | ((vb == (s << 2) + 2) & (s & 1 == 1)), t, s)
    d = np.where(u_in != w_in, np.where(u_in, s, t), d)
    # The multiples of 10^(k+1) around v, sp and sp + 10, are a digit
    # shorter than s unless s has one digit already.
    sp = s // 10 * 10
    up_in, wp_in = vbl <= sp << 2, (sp + 10) << 2 <= vbr
    d = np.where((s >= 10) & (up_in != wp_in), np.where(up_in, sp, sp + 10), d)
    return d, k


def _digits(d: np.ndarray) -> np.ndarray:
    """The 20 ASCII digits of each d < 10^20, zero-padded, as uint8 rows."""
    hi8, lo8 = np.divmod(d, 10**8)
    top, mid = np.divmod(hi8, 10**4)
    quads, quad_table = np.empty((d.size, 5), np.uint32), _tables()[2]
    for j, group in enumerate((top // 10**4, top % 10**4, mid, *np.divmod(lo8, 10**4))):
        quads[:, j] = quad_table[group]
    return quads.view(np.uint8)


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
    digits = _digits(d)  # d in 20 columns, units at column 19
    n_digits = np.searchsorted(_POW10, d, side="right")
    n_zeros = np.argmax(digits[:, ::-1] != _ZERO, axis=1)  # trailing zeros of d
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


def _format_floats(values) -> list[str]:
    """Each value as the shortest positional decimal that round-trips it
    exactly (``0.5``, ``1``, ``-0``, ``0.000000001``, ``nan``, ``-inf``)."""
    rows, _ = _layout(np.asarray(values, dtype=np.float64).reshape(-1).view(np.uint64))
    keep = rows != 0
    text, ends = str(rows[keep], "ascii"), np.cumsum(keep.sum(axis=1)).tolist()
    return [text[start:stop] for start, stop in zip([0, *ends], ends)]


# Values per block that is searched for repeated bit patterns, and per
# `_layout` call: its temporaries take about 200 bytes a value.
_BLOCK_VALUES, _LAYOUT_VALUES = 1 << 16, 1 << 13


def _few_patterns(bits: np.ndarray) -> np.ndarray | None:
    """The distinct values of `bits`, sorted, if there are at most a
    quarter as many as values; None otherwise."""
    ordered = np.sort(bits, axis=None)
    patterns = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    return patterns if 4 * patterns.size <= bits.size else None


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


def write_csv(matrix: np.ndarray) -> str:
    """Probability matrix as CSV: header ``state,t0,t1,...``, one row per
    basis state, values as shortest round-trip decimals.

    Each block of rows is copied in C order behind its state column and
    formatted with numpy; the blocks' texts are joined once at the end."""
    n_rows, n_cols = matrix.shape
    texts = ["state," + ",".join(f"t{t}" for t in range(n_cols)) + "\n"]
    if n_cols == 0:  # the state column's comma ends the row
        return texts[0] + "".join(f"{r},\n" for r in range(n_rows))
    rows_per_block = max(1, _BLOCK_VALUES // (n_cols + 1))
    for start in range(0, n_rows, rows_per_block):
        block = matrix[start:start + rows_per_block]
        values = np.empty((len(block), n_cols + 1))
        values[:, 0] = np.arange(start, start + len(block))
        values[:, 1:] = block
        for chars, _ in _formatted(values, 1):
            chars[:, :, -1] = ord(",")
            chars[:, -1, -1] = ord("\n")
            texts.append(str(chars[chars != 0], "ascii"))
    return "".join(texts)


def read_csv(text: str) -> np.ndarray:
    """Inverse of write_csv (used for round-trip verification)."""
    lines = [ln for ln in text.splitlines() if ln]
    rows = [[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]]
    return np.array(rows, dtype=np.float64)


# Each pixel value's text as a row: its digits, NUL padding and a space.
_PIXEL_TEXT = np.frombuffer(
    b"".join(str(v).encode().ljust(3, b"\0") + b" " for v in range(256)), np.uint8
).reshape(256, 4)


def render_pgm(matrix: np.ndarray) -> bytes:
    """Plain (P2) PGM render of a probability matrix.

    Probability 1 maps to black (0) and probability 0 to white (255); pixel
    values round half away from zero.  State 0 is the top row, time runs
    left to right.  A probability that is nan or infinite raises ValueError.
    """
    n_rows, n_cols = matrix.shape
    header = f"P2\n{n_cols} {n_rows}\n255\n".encode("ascii")
    if n_cols == 0:
        return header + b"\n" * n_rows
    chunks = [header]
    rows_per_block = max(1, _BLOCK_VALUES // n_cols)
    for start in range(0, n_rows, rows_per_block):
        block = matrix[start:start + rows_per_block]
        if not np.isfinite(block).all():
            raise ValueError("probabilities must be finite")
        # 255*(1-p) is nonnegative, so floor(x + 0.5) is half-away-from-zero.
        pixels = np.floor(255.0 * (1.0 - np.clip(block, 0.0, 1.0)) + 0.5).astype(np.int64)
        chars = _PIXEL_TEXT[pixels]
        chars[:, -1, -1] = ord("\n")
        chunks.append(chars[chars != 0].tobytes())
    return b"".join(chunks)


def write_operator_csv(op: np.ndarray) -> str:
    """Dense operator as CSV of complex entries ``<re><sign><im>i``, one
    matrix row per line.  The real and imaginary parts of a block of rows
    are formatted together."""
    n_rows, n_cols = op.shape
    if n_cols == 0:
        return "\n" * n_rows
    texts = []
    rows_per_block = max(1, _BLOCK_VALUES // (2 * n_cols))
    for start in range(0, n_rows, rows_per_block):
        block = np.ascontiguousarray(op[start:start + rows_per_block], dtype=np.complex128)
        for chars, sign in _formatted(block.view(np.float64), 2):
            # Odd columns are imaginary parts, which always show their sign.
            width = chars.shape[2]
            flat = chars.reshape(-1)
            at = np.arange(width, flat.size, 2 * width) + sign[:, 1::2].reshape(-1)
            flat[at] = np.where(flat[at] == _MINUS, _MINUS, _PLUS)
            imag = chars[:, 1::2]
            imag[:, :, -2] = ord("i")
            imag[:, :, -1] = ord(",")
            imag[:, -1, -1] = ord("\n")
            texts.append(str(chars[chars != 0], "ascii"))
    return "".join(texts)


def format_period_report(report) -> str:
    dev_str, tol_str = _format_floats([report.max_deviation, report.tolerance])
    return (
        f"found={'true' if report.found else 'false'}\n"
        f"period={report.period if report.period is not None else 0}\n"
        f"max_deviation={dev_str}\n"
        f"tolerance={tol_str}\n"
        f"columns_examined={report.columns_examined}\n"
    )
