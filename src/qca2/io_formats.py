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
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .gates import ControlledFlip, GateOp, LocalUnitary, standard_gate
from .register import RegisterLayout
from .rules import (
    EVAL_PRESETS,
    BoundaryCondition,
    Evaluation,
    NeighborhoodRule,
    QcaConfig,
    RecordMode,
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


_RULES = {r.value: r for r in NeighborhoodRule}
_BOUNDARIES = {b.value: b for b in BoundaryCondition}
_RECORDS = {m.value: m for m in RecordMode}

_CONFIG_KEYS = {"cells", "rule", "boundary", "eval", "steps", "initial", "record"}


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


def _parse_eval(value: str, line_no: int) -> Evaluation:
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
            return Evaluation(matrix)
        except ValueError as exc:
            raise NonUnitaryMatrixError(str(exc)) from None
    raise ConfigSyntaxError(line_no, f"unknown eval {value!r}")


def _key_values(
    lines: list[tuple[int, str]], allowed: set[str], required: tuple[str, ...]
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


def _int_values(pairs: dict[str, tuple[int, str]], *keys: str) -> list[int]:
    return [_parse_int(pairs[key][1], pairs[key][0], key) for key in keys]


def parse_config(text: str) -> QcaConfig:
    """Parse a run config; raises ConfigError subclasses on bad input."""
    pairs = _key_values(_split_lines(text), _CONFIG_KEYS, ("cells", "rule", "steps", "initial"))

    line_no, value = pairs["rule"]
    if value not in _RULES:
        raise ConfigSyntaxError(line_no, f"unknown rule {value!r}")
    rule = _RULES[value]

    boundary = BoundaryCondition.CONST_ZERO
    if "boundary" in pairs:
        line_no, value = pairs["boundary"]
        if value not in _BOUNDARIES:
            raise ConfigSyntaxError(line_no, f"unknown boundary {value!r}")
        boundary = _BOUNDARIES[value]

    evaluation = EVAL_PRESETS["h_both"]
    if "eval" in pairs:
        evaluation = _parse_eval(pairs["eval"][1], pairs["eval"][0])

    record = RecordMode.PER_STEP
    if "record" in pairs:
        line_no, value = pairs["record"]
        if value not in _RECORDS:
            raise ConfigSyntaxError(line_no, f"unknown record mode {value!r}")
        record = _RECORDS[value]

    cells, initial, steps = _int_values(pairs, "cells", "initial", "steps")
    try:
        return QcaConfig(cells, rule, boundary, evaluation, initial, steps, record)
    except ValueError as exc:
        raise ConfigRangeError(str(exc)) from None


def _parse_qubit(token: str, layout: RegisterLayout, line_no: int) -> int:
    role = token[:1]
    # isdecimal, not isdigit: int() refuses digits such as "²".
    if role not in ("s", "c") or not token[1:].isdecimal():
        raise ConfigSyntaxError(line_no, f"bad qubit name {token!r} (want e.g. s0, c1)")
    cell = _parse_int(token[1:], line_no, "cell")
    try:
        return layout.bit_position(cell, role)
    except IndexError as exc:
        raise ConfigRangeError(f"line {line_no}: {exc}") from None


_SCRIPT_GATE_ARITY = {"H": 1, "X": 1, "CN": 2, "CCN": 3}


def parse_script(text: str) -> tuple[int, int, list[list[GateOp]]]:
    """Parse a gate script; returns (n_qubits, initial_index, timesteps)."""
    lines = _split_lines(text)
    first_step = next((i for i, (_, line) in enumerate(lines) if line == "step"), len(lines))
    header, body = lines[:first_step], lines[first_step:]
    pairs = _key_values(header, {"cells", "initial"}, ("cells", "initial"))
    cells, initial = _int_values(pairs, "cells", "initial")
    try:
        layout = RegisterLayout(cells)
    except ValueError as exc:
        raise ConfigRangeError(str(exc)) from None
    if not 0 <= initial < layout.n_states:
        raise ConfigRangeError(
            f"initial index {initial} out of range for {layout.n_qubits} qubits"
        )

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
        bits = [_parse_qubit(a, layout, line_no) for a in args]
        if len(set(bits)) != len(bits):
            raise ConfigSyntaxError(line_no, "gate qubits must be distinct")
        if name == "H":
            gate: GateOp = LocalUnitary((bits[0],), standard_gate("H"))
        elif name == "X":
            gate = ControlledFlip((), bits[0])
        else:
            gate = ControlledFlip(bits[:-1], bits[-1])
        script[-1].append(gate)
    return layout.n_qubits, initial, script


def _positional(token: str) -> str:
    """Rewrite a ``repr`` token in exponent form (``1.5e-07``) positionally."""
    mantissa, _, exponent = token.partition("e")
    sign = "-" if mantissa.startswith("-") else ""
    head, _, tail = mantissa.lstrip("-").partition(".")
    digits, point = head + tail, len(head) + int(exponent)
    if point <= 0:
        return f"{sign}0.{'0' * -point}{digits}"
    # repr writes an exponent only from 1e16 up, past all 17 digits.
    return f"{sign}{digits}{'0' * (point - len(digits))}"


def _format_floats(values: list[float]) -> list[str]:
    """Each Python float as the shortest positional decimal that round-trips
    it exactly (``0.5``, ``1``, ``-0``, ``0.000000001``), from one ``repr``
    of the list.

    ``repr`` prints the same shortest round-trip digits as numpy's Dragon4,
    but in C; only its ``.0`` endings and exponent forms need rewriting.
    """
    tokens = (repr(values)[1:-1] + ", ").replace(".0, ", ", ").split(", ")[:-1]
    return [_positional(t) if "e" in t else t for t in tokens]


def _format_complexes(values: list[complex]) -> list[str]:
    """Each value as ``<re><sign><im>i``, both parts as `_format_floats`
    writes them."""
    reals = _format_floats([z.real for z in values])
    imags = _format_floats([z.imag for z in values])
    return [f"{re}{'' if im.startswith('-') else '+'}{im}i" for re, im in zip(reals, imags)]


_BLOCK_VALUES = 1 << 10  # small blocks keep the peak memory of formatting low


def _format_rows(matrix: np.ndarray, fmt, sep: str) -> Iterator[str]:
    """Yield each row of `matrix`: its values formatted by `fmt`, joined by `sep`.

    `fmt` takes the list of distinct bit patterns (so -0.0 and 0.0 stay
    apart) of a block of about 2**10 values and returns their strings.
    """
    bits = matrix.view(np.uint64 if matrix.itemsize == 8 else f"V{matrix.itemsize}")
    rows_per_block = max(1, _BLOCK_VALUES // max(matrix.shape[1], 1))
    for start in range(0, len(bits), rows_per_block):
        block = bits[start:start + rows_per_block]
        patterns, inverse = np.unique(block, return_inverse=True)
        table = fmt(patterns.view(matrix.dtype).tolist())
        for row in inverse.reshape(block.shape).tolist():
            yield sep.join([table[i] for i in row])


def write_csv(matrix: np.ndarray) -> str:
    """Probability matrix as CSV: header ``state,t0,t1,...``, one row per
    basis state, values as shortest round-trip decimals."""
    rows = _format_rows(matrix, _format_floats, ",")
    lines = ["state," + ",".join(f"t{t}" for t in range(matrix.shape[1]))]
    lines += [f"{r},{row}" for r, row in enumerate(rows)]
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def read_csv(text: str) -> np.ndarray:
    """Inverse of write_csv (used for round-trip verification)."""
    lines = [ln for ln in text.splitlines() if ln]
    rows = [[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]]
    return np.array(rows, dtype=np.float64)


_PGM_BLOCK_PIXELS = 1 << 16  # per numpy pass: temporaries of a few MB at most


def render_pgm(matrix: np.ndarray) -> bytes:
    """Plain (P2) PGM render of a probability matrix.

    Probability 1 maps to black (0) and probability 0 to white (255); pixel
    values round half away from zero.  State 0 is the top row, time runs
    left to right.
    """
    n_rows, n_cols = matrix.shape
    chunks = [f"P2\n{n_cols} {n_rows}\n255\n".encode("ascii")]
    rows_per_block = max(1, _PGM_BLOCK_PIXELS // n_cols)
    for start in range(0, n_rows, rows_per_block):
        block = matrix[start:start + rows_per_block]
        # 255*(1-p) is nonnegative, so floor(x + 0.5) is half-away-from-zero.
        pixels = np.floor(255.0 * (1.0 - block) + 0.5).astype(np.int64)
        values = np.clip(pixels, 0, 255).astype(np.uint8).ravel()
        # A value takes 1-3 digits and a space or newline; the running sum
        # of those widths is where each value ends, and its digits go back
        # from there.
        tens, hundreds = values >= 10, values >= 100
        end = np.cumsum(2 + tens + hundreds)
        text = np.full(end[-1], ord(" "), dtype=np.uint8)
        text[end[n_cols - 1::n_cols] - 1] = ord("\n")
        text[end - 2] = ord("0") + values % 10
        text[end[tens] - 3] = ord("0") + values[tens] // 10 % 10
        text[end[hundreds] - 4] = ord("0") + values[hundreds] // 100
        chunks.append(text.tobytes())
    return b"".join(chunks)


def write_operator_csv(op: np.ndarray) -> str:
    """Dense operator as CSV of complex entries, one matrix row per line."""
    return "\n".join(_format_rows(op, _format_complexes, ",")) + "\n"


def format_period_report(report) -> str:
    # Python floats: the repr of a numpy scalar reads np.float64(...).
    dev_str, tol_str = _format_floats([float(report.max_deviation), float(report.tolerance)])
    return (
        f"found={'true' if report.found else 'false'}\n"
        f"period={report.period if report.period is not None else 0}\n"
        f"max_deviation={dev_str}\n"
        f"tolerance={tol_str}\n"
        f"columns_examined={report.columns_examined}\n"
    )
