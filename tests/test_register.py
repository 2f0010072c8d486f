import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qca2.gates import ControlledFlip
from qca2.io_formats import ConfigRangeError, ConfigSyntaxError, parse_script
from qca2.rules import (
    NeighborhoodRule,
    NormDriftError,
    QcaConfig,
    basis_state,
    probabilities,
    qubit,
)

from helpers import random_state


class TestLayout:
    def test_three_cell_s2_is_bit_five(self):
        assert qubit(2, "s") == 5
        assert basis_state(6, 1 << 5)[32] == 1.0

    def test_c0_is_bit_zero(self):
        assert qubit(0, "c") == 0
        for n in (1, 4, 12):
            _, _, script = parse_script(f"cells={n}\ninitial=0\nstep\nX c0\n")
            assert script == [[ControlledFlip((), 0)]]

    def test_s1_of_four_cells(self):
        assert qubit(1, "s") == 3

    def test_role_dispatch(self):
        assert qubit(1, "c") == 2
        assert qubit(1, "s") == 3
        _, _, script = parse_script("cells=2\ninitial=0\nstep\nCN s1 c1\n")
        assert script == [[ControlledFlip({3}, 2)]]
        with pytest.raises(ConfigSyntaxError):
            parse_script("cells=2\ninitial=0\nstep\nX q0\n")

    def test_cell_out_of_range(self):
        with pytest.raises(ConfigRangeError):
            parse_script("cells=3\ninitial=0\nstep\nH s3\n")
        with pytest.raises(ConfigSyntaxError):  # a negative cell is no qubit name
            parse_script("cells=3\ninitial=0\nstep\nX c-1\n")

    def test_size_limits(self):  # scripts: test_io.py::TestParseScript
        for n in (0, 13):
            with pytest.raises(ValueError):
                QcaConfig(n, NeighborhoodRule.RIGHT)

    @given(st.integers(min_value=1, max_value=12))
    def test_bit_position_bijection(self, n_cells):
        positions = {qubit(j, role) for j in range(n_cells) for role in ("s", "c")}
        assert positions == set(range(QcaConfig(n_cells, NeighborhoodRule.RIGHT).n_qubits))


class TestBasisState:
    def test_two_qubit_index_two(self):
        state = basis_state(2, 2)
        assert state.shape == (4,)
        assert state[2] == 1.0 and np.count_nonzero(state) == 1

    def test_all_zeros(self):
        state = basis_state(6, 0)
        assert state[0] == 1.0 and np.count_nonzero(state) == 1

    def test_complex_by_default_real_on_request(self):
        assert basis_state(2, 2).dtype == np.complex128
        real = basis_state(2, 2, np.float64)
        assert real.dtype == np.float64
        assert real.tobytes() == basis_state(2, 2).real.tobytes()

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            basis_state(2, 4)
        with pytest.raises(IndexError):
            basis_state(2, -1)

    def test_qubit_count_out_of_range(self):
        with pytest.raises(ValueError):
            basis_state(0, 0)
        with pytest.raises(ValueError):
            basis_state(25, 0)


class TestProbabilities:
    def test_delta_column_exact(self):
        assert np.array_equal(probabilities(basis_state(2, 2)), [0.0, 0.0, 1.0, 0.0])

    def test_bell_state(self):
        bell = np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2)
        assert np.allclose(probabilities(bell), [0.5, 0, 0, 0.5], atol=1e-15)

    def test_real_state_equals_its_complex_copy_bitwise(self, rng):
        x = rng.normal(size=256)
        x /= np.linalg.norm(x)
        assert probabilities(x).tobytes() == probabilities(x.astype(np.complex128)).tobytes()
        assert probabilities(x).tobytes() == (x * x).tobytes()

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            probabilities(np.ones(4, dtype=np.complex128))

    def test_reports_the_norm_as_a_plain_float(self):
        with pytest.raises(NormDriftError) as info:
            probabilities(np.array([1.0, 0.5]))
        assert str(info.value) == "state not normalized: squared norm 1.25"

    def test_rejects_a_nan_norm(self):
        with pytest.raises(NormDriftError, match="squared norm nan"):
            probabilities(np.array([np.nan, 0.0]))

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=8))
    def test_random_state_sums_to_one(self, seed, n):
        state = random_state(np.random.default_rng(seed), n)
        assert abs(probabilities(state).sum() - 1.0) <= 1e-10

    def test_delta_for_every_basis_state(self):
        for k in range(16):
            probs = probabilities(basis_state(4, k))
            assert probs[k] == 1.0 and probs.sum() == 1.0
