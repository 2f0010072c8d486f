import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qca2.gates import (
    H,
    MAX_DENSE_QUBITS,
    TILE_BITS,
    UNITARY_TOL,
    ControlledFlip,
    LocalUnitary,
    apply_gate,
    basis_images,
    compose_dense,
    contract,
    contract_tiles,
    embed_gate,
    flip_source,
    gate_kernels,
    state_dtype,
    unitary_deviation,
)
from qca2.rules import EVAL_PRESETS, basis_state

from helpers import (
    CN,
    X,
    advance_reference,
    assert_equal_but_for_signs_of_zeros,
    flip_source_reference,
    random_orthogonal,
    random_state,
    random_unitary,
)


class TestStandardGates:
    def test_h_is_involutive(self):
        assert np.allclose(H @ H, np.eye(2), atol=1e-15)

    # Every script's H gate copies this one matrix, so no caller may change it.
    def test_h_is_read_only(self):
        with pytest.raises(ValueError):
            H[0, 0] = 0

    def test_cn_flips_target_under_control(self):
        assert np.array_equal(CN @ basis_state(2, 2), basis_state(2, 3))
        assert np.array_equal(CN @ basis_state(2, 0), basis_state(2, 0))

    def test_ccn_needs_both_controls(self):
        # A script's CCN line: both controls more significant than the target.
        ccn = embed_gate(ControlledFlip({1, 2}, 0), 3)
        assert np.array_equal(ccn @ basis_state(3, 6), basis_state(3, 7))
        assert np.array_equal(ccn @ basis_state(3, 4), basis_state(3, 4))

    def test_all_standard_gates_unitary(self):
        for matrix in (X, H, CN):
            assert unitary_deviation(matrix) <= UNITARY_TOL


class TestKron:
    def test_h_on_high_bit(self):
        op = np.kron(H, np.eye(2))
        probs = np.abs(op @ basis_state(2, 2)) ** 2
        assert np.allclose(probs, [0.5, 0, 0.5, 0], atol=1e-15)


class TestGateOps:
    def test_target_cannot_be_control(self):
        with pytest.raises(ValueError):
            ControlledFlip({0, 1}, 1)

    def test_local_unitary_requires_ascending_qubits(self):
        with pytest.raises(ValueError):
            LocalUnitary((2, 1), CN)

    def test_local_unitary_requires_contiguous_qubits(self):
        with pytest.raises(ValueError):
            LocalUnitary((0, 2), CN)

    def test_local_unitary_requires_unitary_matrix(self):
        with pytest.raises(ValueError):
            LocalUnitary((0,), np.ones((2, 2)))

    def test_matrix_shape_must_match(self):
        with pytest.raises(ValueError):
            LocalUnitary((0, 1), H)

    def test_different_matrices_on_one_qubit_differ_and_hash_apart(self):
        i, x = LocalUnitary((0,), np.eye(2)), LocalUnitary((0,), X)
        assert i != x and hash(i) != hash(x) and len({i, x}) == 2

    def test_equal_entries_on_equal_qubits_are_equal_and_hash_alike(self, rng):
        u = random_unitary(rng, 4)
        a, b = LocalUnitary((0, 1), u), LocalUnitary([0, 1], u.copy())
        assert a == b and hash(a) == hash(b)
        assert a != LocalUnitary((1, 2), u)

    def test_the_callers_matrix_stays_writeable(self):
        h = H.copy()
        gate = LocalUnitary((0,), h)
        h[0, 0] = 0
        assert gate.matrix[0, 0] == H[0, 0]
        assert not gate.matrix.flags.writeable


class TestEmbedGate:
    def test_two_qubit_cn_convention(self):
        op = embed_gate(ControlledFlip({1}, 0), 2)
        assert np.array_equal(op, CN)

    def test_split_controls_exchange_five_and_seven(self):
        # Enumerated oracle: flip bit 1 exactly when bits 0 and 2 are set.
        op = embed_gate(ControlledFlip({0, 2}, 1), 3)
        expected = np.eye(8)[[0, 1, 2, 3, 4, 7, 6, 5]]
        assert np.array_equal(op, expected)

    def test_empty_controls_is_x(self):
        op = embed_gate(ControlledFlip((), 1), 2)
        assert np.array_equal(op, np.kron(X, np.eye(2)))

    def test_local_unitary_placement_matches_kron(self):
        assert np.array_equal(embed_gate(LocalUnitary((1,), H), 2), np.kron(H, np.eye(2)))
        assert np.array_equal(embed_gate(LocalUnitary((0,), H), 2), np.kron(np.eye(2), H))

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
            LocalUnitary((1,), H),
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
        out = apply_gate(basis_state(2, 2), LocalUnitary((1,), H))
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
        apply_gate(state, LocalUnitary((0,), H))
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

    def test_real_state_stays_real_and_bitwise_equal(self, rng):
        gate = LocalUnitary((1, 2), random_orthogonal(rng, 4))
        state = rng.normal(size=16)
        state /= np.linalg.norm(state)
        out = apply_gate(state, gate)
        assert out.dtype == np.float64
        assert out.tobytes() == apply_gate(state.astype(np.complex128), gate).real.tobytes()

    def test_complex_matrix_refuses_a_real_state(self):
        s_gate = LocalUnitary((1,), np.diag([1, 1j]))
        with pytest.raises(TypeError):
            apply_gate(basis_state(2, 2, np.float64), s_gate)

    # A basis state takes `advance`'s shortcut, which works in the buffer
    # that holds the state: the input is left as it was, and the result is
    # the plain loop's but for the signs of zeros.
    def test_a_basis_state_is_left_unchanged(self, rng):
        for gate in [ControlledFlip({1}, 2), ControlledFlip((), 0), LocalUnitary((0,), H),
                     LocalUnitary((0, 1), random_unitary(rng, 4)), LocalUnitary((2,), H),
                     LocalUnitary((0, 1, 2), random_unitary(rng, 8))]:
            state = basis_state(3, 6)
            out = apply_gate(state, gate)
            assert state.tobytes() == basis_state(3, 6).tobytes()
            kernels = gate_kernels([gate], 3, state.dtype)
            ref = advance_reference(state.copy(), kernels, np.empty_like(state))[0]
            nonzero = (out.view(np.float64) != 0) | (ref.view(np.float64) != 0)
            assert out.view(np.float64)[nonzero].tobytes() == ref.view(np.float64)[nonzero].tobytes()

    def test_works_beyond_dense_limit(self):
        # 12 qubits: no dense operator, gate path only.
        state = basis_state(12, 1 << 11)
        out = apply_gate(state, ControlledFlip({11}, 0))
        assert out[(1 << 11) | 1] == 1.0


class TestContract:
    # `contract` is one einsum call at every low; its bits must be those of
    # the plain call on the same views.
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("k", [1, 2], ids=["d2", "d4"])
    def test_equals_one_einsum_bitwise_at_every_low(self, rng, dtype, k):
        n, d = 12, 1 << k
        for low in range(n - k + 1):
            psi, u = rng.normal(size=1 << n), random_orthogonal(rng, d)
            if dtype is np.complex128:
                psi, u = random_state(rng, n), random_unitary(rng, d)
            expected = np.empty_like(psi)
            np.einsum("ij,ajb->aib", u, psi.reshape(-1, d, 1 << low),
                      out=expected.reshape(-1, d, 1 << low))
            out = contract(u, psi, low, np.empty_like(psi))
            assert out.tobytes() == expected.tobytes(), low


# A gate of a run below bit 6: a cell unitary on cell 0, 1 or 2 (a preset or
# a random one), or H on one of bits 0 to 5.
_RUN_GATES = st.one_of(
    st.tuples(st.sampled_from([*EVAL_PRESETS, "random"]), st.integers(0, 2)),
    st.tuples(st.just("H"), st.integers(0, 5)),
)


class TestContractTiles:
    # 1 to 10 cells: one tile up to 64 of them.  Below 7 cells the one tile
    # has fewer than 256 rows, and below 3 cells it is one row narrower than
    # 64.  A gate's position wraps round a smaller state.  A real state
    # meets real matrices, as `gate_kernels` builds them; a random one has no
    # zero entry, so the order of every sum shows in the bits.  The state
    # has exact zeros of both signs.
    @settings(max_examples=60, deadline=None)
    @given(cells=st.integers(1, 10), complex_=st.booleans(), seed=st.integers(0, 2**32 - 1),
           run=st.lists(_RUN_GATES, min_size=1, max_size=4), zeros=st.sampled_from([0, 0.3, 0.9]))
    def test_equals_the_contract_chain_bitwise(self, cells, complex_, seed, run, zeros):
        rng, n = np.random.default_rng(seed), 2 * cells
        dtype = np.complex128 if complex_ else np.float64
        gates = []
        for kind, at in run:
            if kind == "H":
                gates.append(LocalUnitary((at % n,), H))
            else:
                u = EVAL_PRESETS[kind].matrix if kind != "random" else \
                    (random_unitary if complex_ else random_orthogonal)(rng, 4)
                gates.append(LocalUnitary((2 * (at % cells), 2 * (at % cells) + 1), u))
        pairs, = gate_kernels(gates, n, dtype)  # one run at every size
        psi = random_state(rng, n) if complex_ else rng.normal(size=1 << n)
        psi.view(np.float64)[rng.random(psi.size * (1 + complex_)) < zeros] = 0.0
        psi.view(np.float64)[rng.random(psi.size * (1 + complex_)) < zeros / 3] = -0.0
        ref = advance_reference(psi.copy(), pairs, np.empty_like(psi))[0]
        out = contract_tiles(pairs, psi.copy(), np.empty_like(psi))  # it overwrites its input
        assert_equal_but_for_signs_of_zeros(out, ref)

    # Each tile is contracted back and forth between the same tiles of `psi`
    # and `out`, so a call allocates no array: its traced peak is a few
    # array views, on a rule's run of three pairs and a script's of six.
    @pytest.mark.parametrize("cells", [6, 7, 8])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("gates", [
        [LocalUnitary((2 * j, 2 * j + 1), EVAL_PRESETS["h_s_then_cn"].matrix) for j in range(3)],
        [LocalUnitary((b,), H) for b in range(6)],
    ], ids=["rule", "script"])
    def test_holds_no_scratch(self, rng, cells, dtype, gates):
        run, = gate_kernels(gates, 2 * cells, dtype)
        psi = rng.normal(size=1 << 2 * cells).astype(dtype)
        out = np.empty_like(psi)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            contract_tiles(run, psi, out)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 8 << 10


class TestGateKernels:
    """`gate_kernels` alone forms runs: on a state of any size, consecutive
    local gates below bit TILE_BITS are one list of (matrix, low) pairs.  A
    gather shows as "gather", a pair as its low."""

    @staticmethod
    def _shapes(gates, n_qubits):
        return [[low for _, low in kernel] if isinstance(kernel, list)
                else kernel[1] if isinstance(kernel, tuple) else "gather"
                for kernel in gate_kernels(gates, n_qubits, np.float64)]

    def test_consecutive_low_gates_are_one_run_and_a_run_of_one_is_a_list(self):
        cells = [LocalUnitary((2 * j, 2 * j + 1), EVAL_PRESETS["h_s_then_cn"].matrix)
                 for j in range(3)]
        for n in range(1, 13):
            low = range(min(n, TILE_BITS))
            assert self._shapes([LocalUnitary((b,), H) for b in low], n) == [[*low]]
            assert self._shapes(cells[:n // 2], n) == ([[0, 2, 4][:n // 2]] if n > 1 else [])
            assert self._shapes([LocalUnitary((min(n - 1, 3),), H)], n) == [[min(n - 1, 3)]]
            # Each pair of a run is its gate's real matrix and lowest bit.
            for (u, low), gate in zip(next(gate_kernels(cells[:n // 2], n, np.float64), []),
                                      cells):
                assert low == gate.qubits[0] and u.dtype == np.float64
                assert u.tobytes() == gate.matrix.real.tobytes()

    def test_a_flip_or_a_gate_on_qubits_5_and_6_ends_a_run(self):
        h = [LocalUnitary((b,), H) for b in range(8)]
        gates = [h[0], h[1], ControlledFlip({1}, 2), h[2], h[3],
                 LocalUnitary((5, 6), EVAL_PRESETS["h_both"].matrix), h[4], h[7], h[5]]
        assert self._shapes(gates, 12) == [[0, 1], "gather", [2, 3], 5, [4], 7, [5]]

    def test_small_states_form_runs_too(self):
        n = TILE_BITS + 4
        gates = [LocalUnitary((b,), H) for b in range(TILE_BITS)]
        assert self._shapes(gates, n) == [[0, 1, 2, 3, 4, 5]]
        assert self._shapes([*gates, ControlledFlip({0}, 9), *gates], n) == \
            [[0, 1, 2, 3, 4, 5], "gather", [0, 1, 2, 3, 4, 5]]
        assert self._shapes([gates[0], ControlledFlip({0}, 1), gates[1]], 2) == \
            [[0], "gather", [1]]


class TestStateDtype:
    def test_real_only_when_every_imaginary_part_is_exactly_zero(self):
        h = LocalUnitary((0,), H)
        flip = ControlledFlip({1}, 0)
        assert state_dtype([]) is np.float64
        assert state_dtype([h, flip]) is np.float64
        assert state_dtype([LocalUnitary((0,), np.diag([1, complex(1, -0.0)]))]) is np.float64
        assert state_dtype([h, LocalUnitary((0,), np.diag([1, 1j])), flip]) is np.complex128
        assert state_dtype([LocalUnitary((0,), np.diag([1, np.exp(1e-300j)]))]) is np.complex128


class TestFlipSource:
    # The table over the control bits gives the per-flip loop's index, dtype
    # included, and the images `basis_images` maps one index at a time, for
    # random commuting flips, X among them.
    @pytest.mark.parametrize("n_qubits", range(1, 13))
    def test_equals_the_per_flip_loop_and_basis_images(self, rng, n_qubits):
        for trial in range(10):
            bits = rng.permutation(n_qubits)
            split = int(rng.integers(1, n_qubits + 1))
            controls = bits[split:] if trial else bits[:0]  # the first set is all X
            flips = [ControlledFlip(rng.choice(controls, int(rng.integers(0, controls.size + 1)),
                                               replace=False), target) for target in bits[:split]]
            source, reference = flip_source(flips, n_qubits), flip_source_reference(flips, n_qubits)
            assert source.dtype == reference.dtype and source.tobytes() == reference.tobytes()
            if n_qubits <= MAX_DENSE_QUBITS:
                assert source.tobytes() == basis_images(flips, n_qubits).tobytes()

    def test_rejects_a_flip_of_another_flips_control(self):
        # Flipping bit 1 before or after the flip it controls gives different
        # results, so no single gather can apply both.
        with pytest.raises(ValueError):
            flip_source([ControlledFlip({0}, 1), ControlledFlip({1}, 2)], 3)


def permutation_of(images):
    """The dense 0/1 matrix whose column k is the basis vector images[k]."""
    return np.eye(images.size)[:, images]


class TestBasisImages:
    def test_matches_product_of_embedded_flips(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            flips = []
            for _ in range(int(rng.integers(0, 5))):
                bits = rng.permutation(n)
                n_controls = int(rng.integers(0, min(3, n)))
                flips.append(ControlledFlip(bits[1 : 1 + n_controls].tolist(), int(bits[0])))
            images = basis_images(flips, n)
            assert images.dtype == np.int64
            assert np.array_equal(permutation_of(images), compose_dense(flips, n))

    def test_keeps_the_order_of_flips_that_do_not_commute(self):
        flips = [ControlledFlip({0}, 1), ControlledFlip({1}, 2)]
        forward = basis_images(flips, 3)
        assert np.array_equal(permutation_of(forward), compose_dense(flips, 3))
        assert not np.array_equal(forward, basis_images(flips[::-1], 3))
        # |001> sets bit 1, which then flips bit 2: |111>.
        assert forward[1] == 7

    def test_dense_size_limit(self):
        assert basis_images([], 10).size == 1 << 10
        with pytest.raises(ValueError):
            basis_images([], 11)


class TestComposeDense:
    def test_empty_sequence_is_identity(self):
        assert np.array_equal(compose_dense([], 3), np.eye(8))

    def test_fig2_amplitudes(self):
        ops = [LocalUnitary((1,), H), ControlledFlip({1}, 0)]
        out = compose_dense(ops, 2) @ basis_state(2, 2)
        inv_sqrt2 = 1 / np.sqrt(2)
        assert np.allclose(out, [inv_sqrt2, 0, 0, -inv_sqrt2], atol=1e-15)
        assert np.allclose(np.abs(out) ** 2, [0.5, 0, 0, 0.5], atol=1e-15)

    def test_product_is_unitary(self, rng):
        ops = [
            ControlledFlip({3}, 1),
            LocalUnitary((1, 2), random_unitary(rng, 4)),
            LocalUnitary((3,), H),
            ControlledFlip({0, 1}, 2),
        ]
        op = compose_dense(ops, 4)
        assert np.max(np.abs(op.conj().T @ op - np.eye(16))) <= 1e-12

    def test_order_is_temporal(self):
        # X then H differs from H then X on the same qubit.
        x = LocalUnitary((0,), X)
        h = LocalUnitary((0,), H)
        assert not np.allclose(compose_dense([x, h], 1), compose_dense([h, x], 1))
        assert np.allclose(
            compose_dense([x, h], 1), H @ X
        )
