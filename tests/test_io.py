import hashlib
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qca2 import io_formats, rules
from qca2.analysis import PeriodReport
from qca2.cli import main
from qca2.gates import ControlledFlip, LocalUnitary
from qca2.io_formats import (
    ConfigError,
    ConfigRangeError,
    ConfigSyntaxError,
    NonUnitaryMatrixError,
    _format_floats,
    format_period_report,
    parse_config,
    parse_script,
    read_csv,
    render_pgm,
    write_csv,
    write_operator_csv,
)
from qca2.rules import (
    EVAL_PRESETS,
    H_BOTH_EVAL,
    H_S_THEN_CN_EVAL,
    BoundaryCondition,
    NeighborhoodRule,
    QcaConfig,
    RecordMode,
    evolve,
)

from helpers import format_complex, format_config, format_probability, random_unitary

FIG3_TEXT = "cells=3\nrule=right\neval=h_s_then_cn\nsteps=50\ninitial=32\n"


class TestParseConfig:
    def test_fig3_config(self):
        config = parse_config(FIG3_TEXT)
        assert config.n_cells == 3
        assert config.rule is NeighborhoodRule.RIGHT
        assert config.evaluation == H_S_THEN_CN_EVAL
        assert config.initial_index == 32
        assert config.n_steps == 50
        assert config.boundary is BoundaryCondition.CONST_ZERO
        assert config.record is RecordMode.PER_STEP

    def test_minimal_config_defaults(self):
        config = parse_config("cells=1\nrule=right\nsteps=0\ninitial=0\n")
        assert config == QcaConfig(1, NeighborhoodRule.RIGHT, initial_index=0, n_steps=0)
        assert config.boundary is BoundaryCondition.CONST_ZERO
        assert config.evaluation == H_BOTH_EVAL
        assert config.record is RecordMode.PER_STEP

    def test_initial_out_of_range(self):
        with pytest.raises(ConfigRangeError):
            parse_config("cells=2\nrule=right\nsteps=1\ninitial=99\n")

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigSyntaxError) as exc:
            parse_config("cells=2\nrule=right\nbogus=1\nsteps=1\ninitial=0\n")
        assert exc.value.line_no == 3

    def test_missing_required_key(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config("cells=2\nrule=right\nsteps=1\n")

    def test_bad_rule_value(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config("cells=2\nrule=up\nsteps=1\ninitial=0\n")

    # With two bad values the first one in key order (rule, boundary, eval,
    # record, cells, initial, steps) is reported, wherever its line is.
    @pytest.mark.parametrize("lines, message", [
        (["cells=2", "rule=diag", "boundary=x"], "line 2: unknown rule 'diag'"),
        (["cells=2", "rule=right", "boundary=x", "record=y"], "line 3: unknown boundary 'x'"),
        (["cells=2", "rule=right", "record=y", "eval=bogus"], "line 4: unknown eval 'bogus'"),
        (["cells=2", "rule=right", "record=y", "steps=a"], "line 3: unknown record mode 'y'"),
        (["cells=x", "rule=right", "steps=a"], "line 1: cells must be an integer, got 'x'"),
    ], ids=["rule-before-boundary", "boundary-before-record", "eval-before-record",
            "record-before-steps", "cells-before-steps"])
    def test_first_bad_value_in_key_order_wins(self, lines, message):
        given = {line.partition("=")[0] for line in lines}
        filler = [f"{key}=0" for key in ("steps", "initial") if key not in given]
        with pytest.raises(ConfigSyntaxError) as exc:
            parse_config("\n".join(lines + filler) + "\n")
        assert str(exc.value) == message

    def test_comments_and_blank_lines(self):
        text = "# header\n\ncells=2  # two cells\nrule=left\nsteps=3\ninitial=1\n"
        assert parse_config(text).rule is NeighborhoodRule.LEFT

    def test_custom_eval_parsed(self, rng):
        u = random_unitary(rng, 4)
        entries = ",".join(format_complex(z) for z in u.reshape(-1))
        config = parse_config(f"cells=2\nrule=right\neval=custom:{entries}\nsteps=1\ninitial=0\n")
        assert config.evaluation not in EVAL_PRESETS.values()
        assert np.max(np.abs(config.evaluation.matrix - u)) <= 1e-12

    def test_custom_eval_non_unitary(self):
        entries = ",".join("1+0i" for _ in range(16))
        with pytest.raises(NonUnitaryMatrixError):
            parse_config(f"cells=2\nrule=right\neval=custom:{entries}\nsteps=1\ninitial=0\n")

    def test_round_trip_idempotent(self, rng):
        u = random_unitary(rng, 4)
        entries = ",".join(format_complex(z) for z in u.reshape(-1))
        for text in (
            FIG3_TEXT,
            "cells=2\nrule=both\nboundary=cyclic\nsteps=7\ninitial=5\nrecord=phase\n",
            f"cells=2\nrule=right\neval=custom:{entries}\nsteps=1\ninitial=0\n",
        ):
            config = parse_config(text)
            written = format_config(config)
            config2 = parse_config(written)
            assert config2 == config
            assert format_config(config2) == written
            assert np.array_equal(config.evaluation.matrix, config2.evaluation.matrix)


class TestParseScript:
    def test_fig2_script(self):
        text = "cells=1\ninitial=2\nstep\nH s0\nstep\nCN s0 c0\n"
        n_qubits, initial, script = parse_script(text)
        assert n_qubits == 2 and initial == 2
        assert len(script) == 2
        assert isinstance(script[0][0], LocalUnitary)
        assert script[0][0].qubits == (1,)
        assert script[1][0] == ControlledFlip({1}, 0)

    @pytest.mark.parametrize("parse, body", [
        (parse_config, "rule=right\nsteps=1\n"),
        (parse_script, "step\nH s0\n"),
    ])
    def test_header_error_names_its_own_line(self, parse, body):
        with pytest.raises(ConfigSyntaxError) as exc:
            parse(f"# header\n\ncells=x\ninitial=0\n{body}")
        assert exc.value.line_no == 3

    def test_ccn_and_x_lines(self):
        text = "cells=2\ninitial=0\nstep\nCCN s0 s1 c1\nX c0\n"
        _, _, script = parse_script(text)
        assert script[0][0] == ControlledFlip({1, 3}, 2)
        assert script[0][1] == ControlledFlip((), 0)

    def test_bad_qubit_name(self):
        with pytest.raises(ConfigSyntaxError):
            parse_script("cells=1\ninitial=0\nstep\nH q0\n")

    def test_qubit_out_of_range(self):
        with pytest.raises(ConfigRangeError) as exc:
            parse_script("cells=1\ninitial=0\nstep\nH s1\n")
        assert str(exc.value) == "line 4: cell index 1 out of range for 1 cells"

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ConfigSyntaxError):
            parse_script("cells=1\ninitial=0\nstep\nCN s0 s0\n")

    def test_initial_out_of_range(self):
        with pytest.raises(ConfigRangeError) as exc:
            parse_script("cells=1\ninitial=4\nstep\nH s0\n")
        assert str(exc.value) == "initial index 4 out of range for 2 qubits"

    @pytest.mark.parametrize("cells", [0, 13, 1000000000])
    def test_cells_out_of_range(self, cells):
        # Refused before the 4**cells bound on the initial index is formed.
        start = time.perf_counter()
        with pytest.raises(ConfigRangeError) as exc:
            parse_script(f"cells={cells}\ninitial=0\nstep\nH s0\n")
        assert time.perf_counter() - start < 1.0
        assert str(exc.value) == f"n_cells must be in 1..12, got {cells}"


# Lines built from the words both file formats know, mixed with arbitrary
# text, so that the fuzz reaches past the first line.
_KEYS = ["cells", "rule", "boundary", "eval", "steps", "initial", "record"]
_WORDS = ["1", "2", "0", "-1", "99", "right", "both", "cyclic", "const1", "h_both",
          "custom:1,0,0,0,0,1,0,0,0,0,1,0,0,0,0,1", "custom:1e999", "phase",
          "step", "H", "X", "CN", "CCN", "s0", "c1", "s1", "#", "="]
_TOKEN = st.one_of(st.sampled_from(_WORDS), st.text(max_size=4))
_LINE = st.one_of(
    st.builds("{}={}".format, st.sampled_from(_KEYS), _TOKEN),
    st.lists(_TOKEN, min_size=1, max_size=4).map(" ".join),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINE, max_size=8).map("\n".join))
@example("cells=1\ninitial=0\nstep\nH s\u00b2\n")  # "²".isdigit(), but int() refuses it
@example("cells=1\ninitial=0\nstep\nH s" + "1" * 5000 + "\n")  # past int()'s digit limit
def test_parsers_return_a_result_or_raise_config_error(text):
    for parse in (parse_config, parse_script):
        try:
            parse(text)
        except ConfigError:
            pass


def _random_doubles(seed):
    """10**4 doubles with uniformly random bit patterns: subnormals, huge
    values and nans of either sign among them."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=10**4, dtype=np.uint64)
    return bits.view(np.float64).tolist()


# Ten draws of 10**4 random bit patterns, and the values where ``repr`` and
# numpy's positional form differ most: exponents, ".0" endings, nan, inf.
@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1).map(_random_doubles))
@example([math.nan, math.inf, -math.inf, 0.0, -0.0])
@example([1e-4, 1e-5, 1e16, 1e22])
@example([5e-324, 123456789012345678.0])
def test_bulk_formatters_match_per_value_formatting(values):
    assert _format_floats(values) == [format_probability(v) for v in values]
    complexes = [complex(re, im) for re, im in zip(values, reversed(values))]
    assert write_operator_csv(np.array([complexes])) == \
        ",".join(format_complex(z) for z in complexes) + "\n"


# Every binary exponent's power of two and the double below it, where the
# spacing below a power of two halves (the irregular case), of either sign.
_POWERS_OF_TWO = [s * x for e in range(-1074, 1024)
                  for x in (math.ldexp(1.0, e), float(np.nextafter(math.ldexp(1.0, e), 0)))
                  for s in (1, -1)]


@pytest.mark.parametrize("values", [
    _POWERS_OF_TWO,
    [5e-324, 1e-323, 1.5e-323, 2.5e-323],  # subnormals with fraction 1, 2, 3 and 5
    [1.7976931348623157e308, 1e22, 2.0**60, 1e16],  # digits, then trailing zeros
    [123.456, 1.5, -99.25, 10.5, 1234567.125],  # the point inside the digits
    [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf],
], ids=["powers-of-two", "subnormals", "trailing-zeros", "point-inside", "zeros-nan-inf"])
def test_formatter_edge_cases_match_dragon4(values):
    assert _format_floats(values) == [format_probability(v) for v in values]


def _without_trailing_zeros(d: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d, k = d.copy(), k.astype(np.int64)
    while (tens := np.flatnonzero((d % 10 == 0) & (d != 0))).size:
        d[tens] //= 10
        k[tens] += 1
    return d, k


def _repr_decimals(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, k), d·10^k the decimal that ``repr`` writes for each finite
    nonzero double and d without trailing zeros, read from the texts with
    numpy's string functions: the digits before any ``e`` make d, and the
    exponent after it, less the count of digits after the point, makes k."""
    texts = np.array(list(map(repr, np.abs(values).tolist())), dtype="S")  # bytes: faster
    mantissa, _, exponent = np.char.partition(texts, b"e").T
    whole, _, fraction = np.char.partition(mantissa, b".").T
    d = np.char.add(whole, fraction).astype(np.uint64)
    k = np.where(exponent == b"", b"0", exponent).astype(np.int64) - np.char.str_len(fraction)
    return _without_trailing_zeros(d, k)


def _assert_shortest_matches_repr(values: np.ndarray) -> None:
    bits = np.asarray(values, dtype=np.float64).view(np.uint64)
    d, k = _without_trailing_zeros(*io_formats._shortest(bits))
    expected_d, expected_k = _repr_decimals(bits.view(np.float64))
    wrong = np.flatnonzero((d != expected_d) | (k != expected_k))
    assert not wrong.size, [(repr(v), int(d[i]), int(k[i]))
                            for i, v in zip(wrong[:5], bits.view(np.float64)[wrong[:5]])]


# One value for each rare branch of `_shortest`, with z the scaled upper end
# of its rounding interval, r = z mod 1000 and δ the interval's width there.
@pytest.mark.parametrize("value", [
    3.5897437094701564e-58, 6.3751706191939294e+56,  # r == δ, the lower end outside
    2.271635170108695e-48, 5.71461449128775e+16,  # r == δ, the lower end inside
    2.3747223110337605e+263, 9.872975320494477e+216,  # 100 divides dist: the parity of v
    1081781241735787.2, 208404089252590.12,  # 100 divides dist: a tie, to even
    2.0**-25, 2.0**54, 2.0**55, 0.5,  # the shorter interval: its tie, its integer ends
    2.3356668447119388e+16, 1.2759675509969499e+17,  # r == 0, z an excluded integer
], ids=["eq-lower-out", "eq-lower-out-big", "eq-lower-in", "eq-lower-in-big", "divisible",
        "divisible-big", "divisible-tie", "divisible-tie-small", "shorter-tie", "shorter-end-2",
        "shorter-end-3", "shorter", "excluded-end", "excluded-end-big"])
def test_each_branch_of_the_shortest_digits(value):
    _assert_shortest_matches_repr([value, -value])
    assert _format_floats([value]) == [format_probability(value)]


# 10**6 random bit patterns, one in a hundred made subnormal, against the
# digits and exponent of ``repr``, which is C and fast enough for so many.
def test_shortest_digits_match_repr_on_random_bit_patterns():
    bits = np.random.default_rng(20201029).integers(0, 2**64, size=10**6, dtype=np.uint64)
    bits[::100] &= np.uint64(1 << 63 | (1 << 52) - 1)
    bits = bits[(bits << 1 != 0) & (bits >> 52 & 0x7FF != 0x7FF)]
    _assert_shortest_matches_repr(bits.view(np.float64))


# One CSV block mixing the widest field, 5e-324 (326 characters), with
# ordinary probabilities, and an operator whose parts are that wide.
def test_widest_field_in_one_block_with_ordinary_values():
    matrix = np.array([[5e-324, 0.25, 0.1], [1.0, 1e-300, -0.0]] * 40)
    assert write_csv(matrix) == _reference_csv(matrix)
    op = matrix[:, :2] + 1j * matrix[:, 1:]
    assert write_operator_csv(op) == _reference_operator(op)


# The report's floats go through the CSV's bulk formatter; a numpy scalar
# must read as its digits, not as ``np.float64(...)``.
@pytest.mark.parametrize("found, deviation, tolerance", [
    (True, 1.5e-14, 1e-9),
    (True, 0.0, 0.5),
    (True, np.float64(2.5e-7), np.float64(1e-6)),
    (False, math.nan, 1e-9),
    (True, 3.0, 1e22),
])
def test_period_report_formats_like_the_per_value_reference(found, deviation, tolerance):
    report = PeriodReport(found, 6 if found else None, deviation, tolerance, 16)
    assert format_period_report(report) == (
        f"found={'true' if found else 'false'}\nperiod={6 if found else 0}\n"
        f"max_deviation={format_probability(deviation)}\n"
        f"tolerance={format_probability(tolerance)}\ncolumns_examined=16\n"
    )


def _reference_csv(matrix):
    n_rows, n_cols = matrix.shape
    lines = ["state," + ",".join(f"t{t}" for t in range(n_cols))]
    for r in range(n_rows):
        values = (format_probability(matrix[r, c]) for c in range(n_cols))
        lines.append(f"{r}," + ",".join(values))
    return "\n".join(lines) + "\n"


def _reference_pgm(matrix):
    n_rows, n_cols = matrix.shape
    pixels = np.clip(np.floor(255.0 * (1.0 - matrix) + 0.5).astype(np.int64), 0, 255)
    lines = ["P2", f"{n_cols} {n_rows}", "255"]
    lines += [" ".join(str(int(v)) for v in pixels[r]) for r in range(n_rows)]
    return ("\n".join(lines) + "\n").encode("ascii")


def _reference_operator(op):
    return "\n".join(",".join(format_complex(complex(z)) for z in row) for row in op) + "\n"


_PROBABILITIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.5, 1.0 - 1.0 / 510.0]),
    st.floats(0.0, 1.0),
)


# Shapes reach past one formatting block of 2**10 values; a small pool of
# values, ±0.0 among them, makes values repeat inside and across blocks.
@settings(max_examples=12, deadline=None)
@given(
    pool=st.lists(_PROBABILITIES, min_size=1, max_size=12),
    shape=st.tuples(st.integers(1, 160), st.integers(1, 160)),
    seed=st.integers(0, 2**32 - 1),
)
@example(pool=[0.0, -0.0, 0.25], shape=(160, 140), seed=0)
def test_writers_match_per_value_formatting(pool, shape, seed):
    pick = np.random.default_rng(seed).integers(0, len(pool), size=(2,) + shape)
    values = np.array(pool)
    matrix = values[pick[0]]
    assert write_csv(matrix) == _reference_csv(matrix)
    assert render_pgm(matrix) == _reference_pgm(matrix)
    op = np.empty(shape, dtype=np.complex128)
    op.real, op.imag = matrix, -values[pick[1]]
    assert write_operator_csv(op) == _reference_operator(op)


# A probability for every pixel value from 0 to 255.
_PIXEL_VALUES = 1.0 - np.arange(256) / 255.0


# `evolve` returns an F-contiguous matrix; the writers' bytes must not
# depend on the memory order.  300 x 300 spans two PGM blocks.
@pytest.mark.parametrize("shape", [(1, 256), (256, 1), (300, 300)],
                         ids=["one-row", "one-column", "two-pgm-blocks"])
def test_writers_give_the_same_bytes_for_either_memory_order(rng, shape):
    values = np.concatenate([_PIXEL_VALUES, rng.random(shape[0] * shape[1] - 256)])
    matrix = rng.permutation(values).reshape(shape)
    op = matrix + 1j * rng.permutation(values).reshape(shape)
    c_order, f_order = np.ascontiguousarray(matrix), np.asfortranarray(matrix)
    assert not f_order.flags.c_contiguous or 1 in shape
    assert render_pgm(c_order) == render_pgm(f_order) == _reference_pgm(matrix)
    assert write_csv(c_order) == write_csv(f_order)
    assert write_operator_csv(np.ascontiguousarray(op)) == \
        write_operator_csv(np.asfortranarray(op))
    pixels = render_pgm(matrix).split(b"\n", 3)[3].split()
    assert set(pixels) == {str(v).encode() for v in range(256)}


# The writers format their blocks on one thread or, given two CPUs, on two.
# 1250 x 127 is three CSV and three PGM blocks and five operator blocks.
_THREAD_SHAPES = {"no-rows": (0, 5), "one-block": (10, 7), "odd-blocks": (1250, 127)}


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


class _NoThread:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a writer started a thread on one CPU")


@pytest.mark.parametrize("shape", _THREAD_SHAPES.values(), ids=_THREAD_SHAPES.keys())
@pytest.mark.parametrize("pool", [[0.0, -0.0, 0.25, 1.0], None], ids=["few-patterns", "per-value"])
def test_writers_give_the_same_bytes_on_one_thread_and_two(monkeypatch, rng, shape, pool):
    matrix = rng.random(shape) if pool is None else rng.choice(pool, size=shape)
    special = matrix.copy()
    special.flat[::7] = np.resize([-0.0, np.nan, np.inf, -np.inf], special.flat[::7].size)
    op = np.empty(shape, dtype=np.complex128)
    op.real, op.imag = special, rng.permutation(special.flat).reshape(shape)
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    outputs = []
    for cpus, thread in (({0}, _NoThread), ({0, 1}, CountedThread)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        monkeypatch.setattr(threading, "Thread", thread)
        outputs.append((write_csv(special), write_operator_csv(op), render_pgm(matrix)))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == _reference_csv(special)
    assert len(started) == (3 if shape == _THREAD_SHAPES["odd-blocks"] else 0)


# A non-finite probability in the first or the last block raises the same
# error whichever thread formats that block, and no thread outlives the call.
@pytest.mark.parametrize("row", [0, -1], ids=["first-block", "last-block"])
def test_a_failing_block_stops_both_threads(two_cpus, row):
    matrix = np.full(_THREAD_SHAPES["odd-blocks"], 0.5)
    matrix[row, -1] = np.nan
    before = threading.active_count()
    with pytest.raises(ValueError, match="^probabilities must be finite$"):
        render_pgm(matrix)
    assert threading.active_count() == before


def test_an_exception_in_the_helper_thread_is_raised_unchanged(two_cpus):
    error, helper_failed = MemoryError(), threading.Event()

    def block(start, col, rows):
        if threading.current_thread() is threading.main_thread():
            assert helper_failed.wait(10)
            return [start]
        helper_failed.set()
        raise error

    with pytest.raises(MemoryError) as raised:  # four blocks of eight rows
        list(io_formats._map_blocks(block, np.zeros((32, 1)), io_formats._LAYOUT_VALUES))
    assert raised.value is error


# The stream stops at its failing first block: neither thread takes a
# block past the window before it.
def test_a_failing_block_stops_the_other_thread(two_cpus):
    taken = []

    def block(start, col, rows):
        taken.append(start)
        if start == 0:
            raise ValueError("block 0")
        time.sleep(0.01)  # lets the failing thread run
        return []

    with pytest.raises(ValueError, match="^block 0$"):
        list(io_formats._map_blocks(block, np.zeros((100, 1)), rules.BLOCK_VALUES))
    assert max(taken) < io_formats._AHEAD


# Many one-row blocks and a short switch interval: each block is taken by
# exactly one thread, at most the window past the blocks consumed, and
# yielded in its own place.  Each thread's first block waits for the other
# thread's, so both take part.
def test_every_block_is_formatted_once_and_in_place(two_cpus):
    taken, interval, threads, both = [], sys.getswitchinterval(), set(), threading.Barrier(2)
    results = []

    def block(start, col, rows):
        taken.append(start)
        assert start <= len(results) + io_formats._AHEAD
        if threading.get_ident() not in threads:
            threads.add(threading.get_ident())
            both.wait(10)
        return [(start, threading.get_ident())]

    sys.setswitchinterval(1e-6)
    try:
        for result in io_formats._map_blocks(block, np.zeros((5000, 1)), rules.BLOCK_VALUES):
            results.append(result)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(taken) == [start for start, _ in results] == list(range(5000))
    assert len({thread for _, thread in results}) == 2


# A consumer that takes one block and stops (a failed write) stops the
# helper: no thread outlives the stream, and no more than the window of
# blocks is formatted past the one consumed, though the helper is fast.
def test_closing_the_stream_stops_the_helper(two_cpus):
    formatted = []

    def block(start, col, rows):
        formatted.append(start)
        return [start]

    before = threading.active_count()
    stream = io_formats._map_blocks(block, np.zeros((100, 1)), rules.BLOCK_VALUES)
    assert next(stream) == 0
    deadline = time.monotonic() + 10
    while len(formatted) < rules.BLOCKS_IN_FLIGHT and time.monotonic() < deadline:
        time.sleep(0.001)
    time.sleep(0.05)  # time to go past the window, were it not kept
    assert threading.active_count() == before + 1
    stream.close()
    assert threading.active_count() == before
    assert len(formatted) == 1 + io_formats._AHEAD == rules.BLOCKS_IN_FLIGHT


# The traced peak of streaming a matrix on two threads stays within the
# pre-flight's estimate of the blocks in flight, whatever the width of the
# rows: eight blocks of distinct or of few values, and rows wider than a
# block, each cut into blocks of columns.  The CSV is the text of one
# `_format_floats` call a row, as an uncut row was formatted.
_STREAMS = {
    "csv": io_formats.csv_blocks,
    "pgm": io_formats.pgm_blocks,
    "operator": lambda m: io_formats.operator_blocks(m + 0.5j * m[::-1]),
}


def _matrix(rng, shape, pool):
    """Random values, values from `pool`, or, for pool "rows", rows repeated
    from eight rows of random values."""
    if pool == "rows":
        return rng.random((8, shape[1]))[rng.integers(0, 8, size=shape[0])]
    return rng.random(shape) if pool is None else rng.choice(pool, size=shape)


@pytest.mark.parametrize("shape", [(4096, 127), (3, 200_000)], ids=["blocks", "wide-rows"])
@pytest.mark.parametrize("pool", [[0.0, 0.25, 1 / 3, 1.0], None, "rows"],
                         ids=["few-patterns", "per-value", "repeated-rows"])
@pytest.mark.parametrize("writer", _STREAMS)
def test_the_blocks_in_flight_fit_the_estimate(two_cpus, rng, writer, shape, pool):
    matrix = _matrix(rng, shape, pool)
    stream, digest = _STREAMS[writer](matrix), hashlib.sha256()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        for block in stream:
            digest.update(block)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= rules.WRITER_BYTES
    if writer == "csv":
        rows = (f"{r}," + ",".join(_format_floats(row)) + "\n" for r, row in enumerate(matrix))
        header = "state," + ",".join(f"t{t}" for t in range(shape[1])) + "\n"
        assert digest.digest() == hashlib.sha256((header + "".join(rows)).encode()).digest()


# A row of more than `_LAYOUT_VALUES` values is cut into blocks of columns,
# so that no `_layout` call takes more, and only its last block ends the line.
@pytest.mark.parametrize("pool", [[0.0, -0.0, 0.25, 1.0], None], ids=["few-patterns", "per-value"])
def test_a_wide_row_is_cut_into_blocks(two_cpus, monkeypatch, rng, pool):
    shape, layout, sizes = (3, io_formats._LAYOUT_VALUES + 1000), io_formats._layout, []
    monkeypatch.setattr(io_formats, "_layout",
                        lambda bits, suffix=0: sizes.append(bits.size) or layout(bits, suffix))
    matrix = rng.random(shape) if pool is None else rng.choice(pool, size=shape)
    op = matrix[:, :shape[1] // 2] + 1j * matrix[::-1, shape[1] // 2:]
    assert write_csv(matrix) == _reference_csv(matrix)
    assert render_pgm(matrix) == _reference_pgm(matrix)
    assert write_operator_csv(op) == _reference_operator(op)
    assert max(sizes) <= io_formats._LAYOUT_VALUES


# Matrices whose rows repeat a few rows: two rows of zeros that differ only
# in the sign of one zero, and, in the CSV, rows of nan and of ±inf.  Widths
# from 1 to 200 values put 32,768 to 326 rows in a CSV block, so the larger
# shapes span several blocks, with few distinct rows or many.
_ROW_VALUES = [0.0, 0.25, 1 / 3, 1.0, 1e-300, 5e-324]


@settings(max_examples=15, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 1200), st.integers(1, 200)),
    n_pool=st.integers(1, 12),
    special=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(1200, 200), n_pool=3, special=True, seed=0)
@example(shape=(1200, 60), n_pool=12, special=False, seed=1)
def test_writers_match_per_value_formatting_on_repeated_rows(shape, n_pool, special, seed):
    rng = np.random.default_rng(seed)
    pool = rng.choice(_ROW_VALUES, size=(n_pool, shape[1]))
    pool[:2] = 0.0
    pool[1 % n_pool, 0] = -0.0  # row 1 is row 0 but for the sign of its first zero
    matrix = pool[rng.integers(0, n_pool, size=shape[0])]
    csv_matrix = matrix.copy()
    if special:
        csv_matrix[1::5] = np.nan
        csv_matrix[2::5] = np.resize([np.inf, -np.inf], shape[1])
    outputs = []
    for cpus in ({0}, {0, 1}):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            outputs.append((write_csv(csv_matrix), render_pgm(matrix)))
    assert outputs[0] == outputs[1] == (_reference_csv(csv_matrix), _reference_pgm(matrix))


# When every row hashes alike, the rows that differ send the block back to
# formatting every value: the bytes are the same.
@pytest.mark.parametrize("pool", [[0.0, -0.0, 0.25, 1.0], None, "rows"],
                         ids=["few-patterns", "per-value", "repeated-rows"])
def test_a_hash_collision_falls_back_to_formatting_every_row(monkeypatch, rng, pool):
    matrix = _matrix(rng, (2000, 40), pool)
    monkeypatch.setattr(io_formats, "_weights", lambda: np.zeros(io_formats._LAYOUT_VALUES,
                                                                 dtype=np.uint64))
    words = np.ascontiguousarray(matrix[:100]).view(np.uint64)
    assert io_formats._repeated_rows(words) is None
    assert io_formats._repeated_rows(np.zeros((100, 40), np.uint64)) is not None
    assert write_csv(matrix) == _reference_csv(matrix)
    assert render_pgm(matrix) == _reference_pgm(matrix)


# A block of repeated rows labels each row with ``%d``; the other blocks
# format the state as a double.  The two agree up to the last state of
# `rules.MAX_CELLS` cells and beyond.
def test_a_state_label_prints_as_its_double_does():
    states = [0, 9, 10, 4**rules.MAX_CELLS - 1, 2**53 - 1]
    assert _format_floats(states) == ["%d" % s for s in states]


# The 6-cell both/cyclic/h_both run from state 5 has 25 distinct rows of
# 4,096, over three CSV blocks: `simulate` formats each block's distinct
# rows alone, so the writer's fast path cannot drop off unseen.
def test_simulate_formats_only_the_distinct_rows(monkeypatch, tmp_path):
    text = "cells=6\nrule=both\nboundary=cyclic\neval=h_both\nsteps=40\ninitial=5\n"
    config, csv_path = tmp_path / "run.conf", tmp_path / "run.csv"
    config.write_text(text)
    formatted, formatted_values = [], io_formats._formatted
    monkeypatch.setattr(io_formats, "_formatted", lambda values, suffix: (
        formatted.append(len(values)) or formatted_values(values, suffix)))
    assert main(["simulate", str(config), "--out-csv", str(csv_path)]) == 0
    matrix = evolve(parse_config(text))
    step = rules.BLOCK_VALUES // (matrix.shape[1] + 1)
    distinct = [len(np.unique(matrix[r:r + step].view(np.uint64), axis=0))
                for r in range(0, len(matrix), step)]
    assert len(distinct) == 3 and len(np.unique(matrix.view(np.uint64), axis=0)) == 25
    assert sorted(formatted) == sorted(distinct)
    assert csv_path.read_text() == _reference_csv(matrix)


class TestCsv:
    def test_single_entry(self):
        assert write_csv(np.array([[1.0]])) == "state,t0\n0,1\n"

    def test_delta_column(self):
        text = write_csv(np.eye(4)[:, [2]])
        assert "2,1" in text.splitlines()
        assert text.splitlines()[1] == "0,0"

    def test_header_names_columns(self):
        text = write_csv(np.zeros((2, 3)))
        assert text.splitlines()[0] == "state,t0,t1,t2"

    def test_fig3_round_trip_bitwise(self):
        matrix = evolve(parse_config(FIG3_TEXT))
        assert np.array_equal(read_csv(write_csv(matrix)), matrix)


class TestPgm:
    def test_probability_one_is_black(self):
        body = render_pgm(np.array([[1.0]])).decode()
        assert body == "P2\n1 1\n255\n0\n"

    def test_probability_zero_is_white(self):
        assert render_pgm(np.array([[0.0]])).decode().splitlines()[-1] == "255"

    def test_half_rounds_away_from_zero(self):
        assert render_pgm(np.array([[0.5]])).decode().splitlines()[-1] == "128"

    def test_dimensions_and_orientation(self):
        matrix = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        lines = render_pgm(matrix).decode().splitlines()
        assert lines[1] == "2 3"
        assert lines[3] == "0 255"  # state 0 on top
        assert lines[5] == "255 0"

    def test_all_pixels_in_range(self, rng):
        matrix = rng.random((8, 16))
        pixels = [
            int(v)
            for line in render_pgm(matrix).decode().splitlines()[3:]
            for v in line.split()
        ]
        assert all(0 <= v <= 255 for v in pixels)

    def test_black_threshold(self):
        just_black = 1.0 - 1.0 / 510.0
        assert render_pgm(np.array([[just_black]])).decode().splitlines()[-1] == "0"
        below = just_black - 1e-9
        assert render_pgm(np.array([[below]])).decode().splitlines()[-1] == "1"

    def test_deterministic(self, rng):
        matrix = rng.random((8, 8))
        assert render_pgm(matrix) == render_pgm(matrix.copy())

    # Out of [0, 1], a probability takes the nearer end's pixel, without a
    # numpy warning (warnings fail the tests) however far out it is.
    def test_out_of_range_values_clamp(self):
        matrix = np.array([[1.5, -0.5, 1e300, -1e300]])
        assert render_pgm(matrix).decode().splitlines()[-1] == "0 255 0 255"

    # A non-finite probability raises before the cast, in any block: the
    # last row of a 300 x 300 matrix is past the first PGM block.
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("shape", [(1, 4), (300, 300)], ids=["one-row", "two-pgm-blocks"])
    def test_non_finite_value_raises(self, value, shape):
        matrix = np.full(shape, 0.5)
        matrix[-1, -1] = value
        with pytest.raises(ValueError, match="probabilities must be finite"):
            render_pgm(matrix)
