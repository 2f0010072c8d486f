import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qca2.gates import (
    ControlledFlip,
    LocalUnitary,
    apply_gate,
    compose_dense,
    embed_gate,
    flip_source,
    is_unitary,
    permutation_matrix,
    standard_gate,
)
from qca2.register import basis_state

from helpers import random_state, random_unitary


class TestStandardGates:
    def test_h_is_involutive(self):
        h = standard_gate("H")
        assert np.allclose(h @ h, np.eye(2), atol=1e-15)

    def test_cn_flips_target_under_control(self):
        cn = standard_gate("CN")
        assert np.array_equal(cn @ basis_state(2, 2), basis_state(2, 3))
        assert np.array_equal(cn @ basis_state(2, 0), basis_state(2, 0))

    def test_ccn_needs_both_controls(self):
        # A script's CCN line: both controls more significant than the target.
        ccn = embed_gate(ControlledFlip({1, 2}, 0), 3)
        assert np.array_equal(ccn @ basis_state(3, 6), basis_state(3, 7))
        assert np.array_equal(ccn @ basis_state(3, 4), basis_state(3, 4))

    def test_all_standard_gates_unitary(self):
        for name in ("X", "H", "CN"):
            assert is_unitary(standard_gate(name))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            standard_gate("T")


class TestKron:
    def test_h_on_high_bit(self):
        op = np.kron(standard_gate("H"), np.eye(2))
        probs = np.abs(op @ basis_state(2, 2)) ** 2
        assert np.allclose(probs, [0.5, 0, 0.5, 0], atol=1e-15)


class TestGateOps:
    def test_target_cannot_be_control(self):
        with pytest.raises(ValueError):
            ControlledFlip({0, 1}, 1)

    def test_local_unitary_requires_ascending_qubits(self):
        with pytest.raises(ValueError):
            LocalUnitary((2, 1), standard_gate("CN"))

    def test_local_unitary_requires_contiguous_qubits(self):
        with pytest.raises(ValueError):
            LocalUnitary((0, 2), standard_gate("CN"))

    def test_local_unitary_requires_unitary_matrix(self):
        with pytest.raises(ValueError):
            LocalUnitary((0,), np.ones((2, 2)))

    def test_matrix_shape_must_match(self):
        with pytest.raises(ValueError):
            LocalUnitary((0, 1), standard_gate("H"))


class TestEmbedGate:
    def test_two_qubit_cn_convention(self):
        op = embed_gate(ControlledFlip({1}, 0), 2)
        assert np.array_equal(op, standard_gate("CN"))

    def test_split_controls_exchange_five_and_seven(self):
        # Enumerated oracle: flip bit 1 exactly when bits 0 and 2 are set.
        op = embed_gate(ControlledFlip({0, 2}, 1), 3)
        expected = np.eye(8)[[0, 1, 2, 3, 4, 7, 6, 5]]
        assert np.array_equal(op, expected)

    def test_empty_controls_is_x(self):
        op = embed_gate(ControlledFlip((), 1), 2)
        assert np.array_equal(op, np.kron(standard_gate("X"), np.eye(2)))

    def test_local_unitary_placement_matches_kron(self):
        h = standard_gate("H")
        assert np.array_equal(embed_gate(LocalUnitary((1,), h), 2), np.kron(h, np.eye(2)))
        assert np.array_equal(embed_gate(LocalUnitary((0,), h), 2), np.kron(np.eye(2), h))

    def test_adjacent_pair_matches_kron(self, rng):
        u = random_unitary(rng, 4)
        op = embed_gate(LocalUnitary((0, 1), u), 3)
        assert np.allclose(op, np.kron(np.eye(2), u), atol=1e-15)

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            embed_gate(ControlledFlip({3}, 0), 2)

    def test_dense_size_limit(self):
        with pytest.raises(ValueError):
            embed_gate(ControlledFlip({1}, 0), 11)

    def test_controlled_flip_is_permutation(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            bits = rng.permutation(n)
            n_controls = int(rng.integers(0, min(3, n)))
            gate = ControlledFlip(bits[1 : 1 + n_controls].tolist(), int(bits[0]))
            op = embed_gate(gate, n)
            assert np.array_equal(np.abs(op).sum(axis=0), np.ones(1 << n))
            assert np.array_equal(np.abs(op).sum(axis=1), np.ones(1 << n))
            assert set(np.unique(op)) <= {0.0, 1.0}

    def test_embedded_gates_unitary(self, rng):
        gates = [
            ControlledFlip({4}, 1),
            ControlledFlip({0, 3}, 5),
            LocalUnitary((4, 5), random_unitary(rng, 4)),
            LocalUnitary((1,), standard_gate("H")),
        ]
        for gate in gates:
            op = embed_gate(gate, 6)
            assert np.max(np.abs(op.conj().T @ op - np.eye(64))) <= 1e-12


@st.composite
def gate_and_register(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    positions = list(range(n))
    if draw(st.booleans()) and n >= 2:
        chosen = draw(
            st.lists(st.sampled_from(positions), min_size=2, max_size=min(4, n), unique=True)
        )
        target, controls = chosen[0], chosen[1:]
        return n, ControlledFlip(controls, target)
    k = draw(st.integers(min_value=1, max_value=min(2, n)))
    low = draw(st.integers(min_value=0, max_value=n - k))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    u = random_unitary(np.random.default_rng(seed), 1 << k)
    return n, LocalUnitary(range(low, low + k), u)


class TestApplyGate:
    def test_h_at_bit_one_splits_initial(self):
        out = apply_gate(basis_state(2, 2), LocalUnitary((1,), standard_gate("H")))
        assert np.allclose(np.abs(out) ** 2, [0.5, 0, 0.5, 0], atol=1e-15)

    def test_identity_is_bitwise_noop(self, rng):
        state = random_state(rng, 5)
        out = apply_gate(state, LocalUnitary((3,), np.eye(2, dtype=np.complex128)))
        assert np.array_equal(out, state)

    def test_controlled_flip_permutes_amplitudes_bitwise(self, rng):
        state = random_state(rng, 3)
        out = apply_gate(state, ControlledFlip({2}, 0))
        dense = embed_gate(ControlledFlip({2}, 0), 3) @ state
        assert np.array_equal(out, dense)

    def test_does_not_mutate_input(self, rng):
        state = random_state(rng, 4)
        before = state.copy()
        apply_gate(state, ControlledFlip({1}, 2))
        apply_gate(state, LocalUnitary((0,), standard_gate("H")))
        assert np.array_equal(state, before)

    @settings(max_examples=150, deadline=None)
    @given(gate_and_register(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_dense_oracle(self, gate_reg, seed):
        n, gate = gate_reg
        state = random_state(np.random.default_rng(seed), n)
        fast = apply_gate(state, gate)
        dense = embed_gate(gate, n) @ state
        assert np.max(np.abs(fast - dense)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(gate_and_register(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_preserves_norm(self, gate_reg, seed):
        n, gate = gate_reg
        state = random_state(np.random.default_rng(seed), n)
        out = apply_gate(state, gate)
        assert abs(np.vdot(out, out).real - 1.0) <= 1e-12

    def test_works_beyond_dense_limit(self):
        # 12 qubits: no dense operator, gate path only.
        state = basis_state(12, 1 << 11)
        out = apply_gate(state, ControlledFlip({11}, 0))
        assert out[(1 << 11) | 1] == 1.0


class TestFlipSource:
    def test_rejects_a_flip_of_another_flips_control(self):
        # Flipping bit 1 before or after the flip it controls gives different
        # results, so no single gather can apply both.
        with pytest.raises(ValueError):
            flip_source([ControlledFlip({0}, 1), ControlledFlip({1}, 2)], 3)


class TestPermutationMatrix:
    def test_matches_product_of_embedded_flips(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            flips = []
            for _ in range(int(rng.integers(0, 5))):
                bits = rng.permutation(n)
                n_controls = int(rng.integers(0, min(3, n)))
                flips.append(ControlledFlip(bits[1 : 1 + n_controls].tolist(), int(bits[0])))
            assert np.array_equal(permutation_matrix(flips, n), compose_dense(flips, n))

    def test_keeps_the_order_of_flips_that_do_not_commute(self):
        flips = [ControlledFlip({0}, 1), ControlledFlip({1}, 2)]
        forward = permutation_matrix(flips, 3)
        assert np.array_equal(forward, compose_dense(flips, 3))
        assert not np.array_equal(forward, permutation_matrix(flips[::-1], 3))
        # |001> sets bit 1, which then flips bit 2: |111>.
        assert np.array_equal(forward @ basis_state(3, 1), basis_state(3, 7))

    def test_dense_size_limit(self):
        with pytest.raises(ValueError):
            permutation_matrix([], 11)


class TestComposeDense:
    def test_empty_sequence_is_identity(self):
        assert np.array_equal(compose_dense([], 3), np.eye(8))

    def test_fig2_amplitudes(self):
        ops = [LocalUnitary((1,), standard_gate("H")), ControlledFlip({1}, 0)]
        out = compose_dense(ops, 2) @ basis_state(2, 2)
        inv_sqrt2 = 1 / np.sqrt(2)
        assert np.allclose(out, [inv_sqrt2, 0, 0, -inv_sqrt2], atol=1e-15)
        assert np.allclose(np.abs(out) ** 2, [0.5, 0, 0, 0.5], atol=1e-15)

    def test_product_is_unitary(self, rng):
        ops = [
            ControlledFlip({3}, 1),
            LocalUnitary((1, 2), random_unitary(rng, 4)),
            LocalUnitary((3,), standard_gate("H")),
            ControlledFlip({0, 1}, 2),
        ]
        op = compose_dense(ops, 4)
        assert np.max(np.abs(op.conj().T @ op - np.eye(16))) <= 1e-12

    def test_order_is_temporal(self):
        # X then H differs from H then X on the same qubit.
        x = LocalUnitary((0,), standard_gate("X"))
        h = LocalUnitary((0,), standard_gate("H"))
        assert not np.allclose(compose_dense([x, h], 1), compose_dense([h, x], 1))
        assert np.allclose(
            compose_dense([x, h], 1), standard_gate("H") @ standard_gate("X")
        )
