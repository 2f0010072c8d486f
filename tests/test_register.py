import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qca2.register import RegisterLayout, basis_state, probabilities

from helpers import random_state


class TestLayout:
    def test_three_cell_s2_is_bit_five(self):
        layout = RegisterLayout(3)
        assert layout.s_bit(2) == 5
        assert basis_state(6, 1 << 5)[32] == 1.0

    def test_c0_is_bit_zero(self):
        for n in (1, 4, 12):
            assert RegisterLayout(n).c_bit(0) == 0

    def test_s1_of_four_cells(self):
        assert RegisterLayout(4).s_bit(1) == 3

    def test_role_dispatch(self):
        layout = RegisterLayout(2)
        assert layout.bit_position(1, "c") == 2
        assert layout.bit_position(1, "s") == 3
        with pytest.raises(ValueError):
            layout.bit_position(0, "q")

    def test_cell_out_of_range(self):
        with pytest.raises(IndexError):
            RegisterLayout(3).s_bit(3)
        with pytest.raises(IndexError):
            RegisterLayout(3).c_bit(-1)

    def test_size_limits(self):
        with pytest.raises(ValueError):
            RegisterLayout(0)
        with pytest.raises(ValueError):
            RegisterLayout(13)

    @given(st.integers(min_value=1, max_value=12))
    def test_bit_position_bijection(self, n_cells):
        layout = RegisterLayout(n_cells)
        positions = {
            layout.bit_position(j, role)
            for j in range(n_cells)
            for role in ("s", "c")
        }
        assert positions == set(range(2 * n_cells))


class TestBasisState:
    def test_two_qubit_index_two(self):
        state = basis_state(2, 2)
        assert state.shape == (4,)
        assert state[2] == 1.0 and np.count_nonzero(state) == 1

    def test_all_zeros(self):
        state = basis_state(6, 0)
        assert state[0] == 1.0 and np.count_nonzero(state) == 1

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

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            probabilities(np.ones(4, dtype=np.complex128))

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=8))
    def test_random_state_sums_to_one(self, seed, n):
        state = random_state(np.random.default_rng(seed), n)
        assert abs(probabilities(state).sum() - 1.0) <= 1e-10

    def test_delta_for_every_basis_state(self):
        for k in range(16):
            probs = probabilities(basis_state(4, k))
            assert probs[k] == 1.0 and probs.sum() == 1.0
