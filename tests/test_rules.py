import tracemalloc
from functools import reduce
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from qca2 import analysis, cli, gates, rules
from qca2.gates import (
    H,
    ControlledFlip,
    LocalUnitary,
    apply_gate,
    basis_images,
    compose_dense,
    embed_gate,
    flip_source,
)
from qca2.io_formats import format_period_report, parse_config, parse_script, write_csv
from qca2.rules import (
    BoundaryCondition,
    H_BOTH_EVAL,
    H_S_THEN_CN_EVAL,
    IDENTITY_EVAL,
    NeighborhoodRule,
    OBJECT_BYTES,
    QcaConfig,
    RecordMode,
    WRITER_BYTES,
    basis_state,
    build_dense_rule,
    compile_evaluation,
    compile_interaction,
    compile_rule,
    evolve,
    probabilities,
    run_bytes,
    run_gate_script,
)

from helpers import (
    advance_reference,
    assert_equal_but_for_signs_of_zeros,
    evolve_reference,
    format_complex,
    random_orthogonal,
    random_state,
    random_unitary,
    step,
)

FIG3 = QcaConfig(
    n_cells=3,
    rule=NeighborhoodRule.RIGHT,
    evaluation=H_S_THEN_CN_EVAL,
    initial_index=32,
)

ALL_RULES = list(NeighborhoodRule)
ALL_BOUNDARIES = list(BoundaryCondition)
PRESET_EVALS = [IDENTITY_EVAL, H_BOTH_EVAL, H_S_THEN_CN_EVAL]
COMPLEX_CUSTOM = random_unitary(np.random.default_rng(5), 4)


@pytest.fixture
def run_states(monkeypatch):
    """(dtype, nbytes) of every start state `evolve` or `run_gate_script` makes."""
    made = []

    def spy(*args):
        state = basis_state(*args)
        made.append((state.dtype, state.nbytes))
        return state

    monkeypatch.setattr(rules, "basis_state", spy)
    return made


def make_config(n_cells, rule, boundary=BoundaryCondition.CONST_ZERO,
                evaluation=H_BOTH_EVAL, initial=0, steps=0,
                record=RecordMode.PER_STEP):
    return QcaConfig(n_cells, rule, boundary, evaluation, initial, steps, record)


class TestConfigValidation:
    def test_initial_index_range(self):
        with pytest.raises(ValueError):
            make_config(2, NeighborhoodRule.RIGHT, initial=16)

    def test_negative_steps(self):
        with pytest.raises(ValueError):
            make_config(2, NeighborhoodRule.RIGHT, steps=-1)

    def test_custom_eval_must_be_unitary(self):
        with pytest.raises(ValueError):
            LocalUnitary((0, 1), np.ones((4, 4)))

    def test_configs_with_different_custom_matrices_differ(self, rng):
        a, b = (make_config(2, NeighborhoodRule.RIGHT,
                            evaluation=LocalUnitary((0, 1), random_unitary(rng, 4)))
                for _ in range(2))
        assert a != b
        assert len({a, b}) == 2
        assert a == make_config(2, NeighborhoodRule.RIGHT,
                                evaluation=LocalUnitary((0, 1), a.evaluation.matrix))


class TestEvalPresets:
    def test_h_both_is_exactly_half(self):
        signs = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
        assert H_BOTH_EVAL.matrix.tobytes() == (0.5 * np.array(signs, dtype=complex)).tobytes()

    def test_matrices_are_read_only(self):
        with pytest.raises(ValueError):
            H_BOTH_EVAL.matrix[0, 0] = 1

    # With right or left every gate is Clifford and every amplitude a sum of
    # ±1/2 products, so each probability is exactly 0 or a power of two.
    @pytest.mark.parametrize("rule", [NeighborhoodRule.RIGHT, NeighborhoodRule.LEFT])
    @pytest.mark.parametrize("boundary", ALL_BOUNDARIES)
    def test_h_both_clifford_runs_stay_exact(self, rule, boundary):
        for cells in range(1, 9):
            for record in RecordMode:
                cfg = make_config(cells, rule, boundary, H_BOTH_EVAL,
                                  initial=37 * cells % 4**cells, steps=12, record=record)
                mantissa, _ = np.frexp(evolve(cfg))
                assert np.all((mantissa == 0) | (mantissa == 0.5)), (cells, record)


class TestCompileInteraction:
    def test_right_const0_two_cells(self):
        gates = compile_interaction(make_config(2, NeighborhoodRule.RIGHT))
        assert gates == [ControlledFlip({1}, 2)]

    def test_right_cyclic_two_cells(self):
        gates = compile_interaction(
            make_config(2, NeighborhoodRule.RIGHT, BoundaryCondition.CYCLIC)
        )
        assert gates == [ControlledFlip({3}, 0), ControlledFlip({1}, 2)]

    def test_right_const1_flips_first_c(self):
        gates = compile_interaction(
            make_config(2, NeighborhoodRule.RIGHT, BoundaryCondition.CONST_ONE)
        )
        assert ControlledFlip((), 0) in gates
        assert ControlledFlip({1}, 2) in gates
        assert len(gates) == 2

    def test_left_is_mirror_of_right(self):
        gates = compile_interaction(make_config(3, NeighborhoodRule.LEFT))
        assert gates == [ControlledFlip({3}, 0), ControlledFlip({5}, 2)]

    def test_left_const1_flips_last_c(self):
        gates = compile_interaction(
            make_config(2, NeighborhoodRule.LEFT, BoundaryCondition.CONST_ONE)
        )
        assert ControlledFlip((), 2) in gates

    def test_both_const1_three_cells(self):
        gates = compile_interaction(
            make_config(3, NeighborhoodRule.BOTH, BoundaryCondition.CONST_ONE)
        )
        assert gates == [
            ControlledFlip({3}, 0),
            ControlledFlip({1, 5}, 2),
            ControlledFlip({3}, 4),
        ]

    def test_both_const0_drops_edge_cells(self):
        gates = compile_interaction(make_config(3, NeighborhoodRule.BOTH))
        assert gates == [ControlledFlip({1, 5}, 2)]

    def test_both_cyclic_small_registers_collapse_controls(self):
        # N=2: both neighbors of a cell are the same cell.
        gates = compile_interaction(
            make_config(2, NeighborhoodRule.BOTH, BoundaryCondition.CYCLIC)
        )
        assert gates == [ControlledFlip({3}, 0), ControlledFlip({1}, 2)]
        # N=1: a cell is its own neighbor on both sides.
        gates = compile_interaction(
            make_config(1, NeighborhoodRule.BOTH, BoundaryCondition.CYCLIC)
        )
        assert gates == [ControlledFlip({1}, 0)]

    def test_controls_are_s_bits_targets_are_c_bits(self):
        for rule in ALL_RULES:
            for boundary in ALL_BOUNDARIES:
                for n in range(1, 5):
                    for gate in compile_interaction(make_config(n, rule, boundary)):
                        assert gate.target % 2 == 0
                        assert all(c % 2 == 1 for c in gate.controls)

    def test_both_constant_matches_pinned_ancilla_oracle(self):
        # Oracle: keep the phantom neighbor as a real ancilla qubit pinned to
        # the boundary constant and apply full two-control flips against it.
        for boundary, pin in [
            (BoundaryCondition.CONST_ZERO, 0),
            (BoundaryCondition.CONST_ONE, 1),
        ]:
            n_cells = 3
            n = 2 * n_cells
            config = make_config(n_cells, NeighborhoodRule.BOTH, boundary)
            compiled = compose_dense(tuple(compile_interaction(config)), n)

            # Ancilla at bit n stands in for both missing s-neighbors.
            anc = n
            oracle_gates = []
            for j in range(n_cells):
                controls = []
                for nb in (j + 1, j - 1):
                    controls.append(2 * nb + 1 if 0 <= nb < n_cells else anc)
                oracle_gates.append(ControlledFlip(controls, 2 * j))
            big = compose_dense(tuple(oracle_gates), n + 1)

            rng = np.random.default_rng(7)
            for _ in range(5):
                state = random_state(rng, n)
                padded = np.zeros(1 << (n + 1), dtype=np.complex128)
                block = slice(pin << n, (pin << n) + (1 << n))
                padded[block] = state
                expected = (big @ padded)[block]
                assert np.max(np.abs(compiled @ state - expected)) <= 1e-12


class TestCompileEvaluation:
    # The identity is contracted like any other cell unitary.
    def test_identity_compiles_to_one_gate_per_cell(self):
        cfg = make_config(3, NeighborhoodRule.RIGHT, evaluation=IDENTITY_EVAL)
        assert compile_evaluation(cfg) == [LocalUnitary((2 * j, 2 * j + 1), np.eye(4))
                                           for j in range(3)]

    def test_h_both_single_cell_equals_h_kron_h(self):
        cfg = make_config(1, NeighborhoodRule.RIGHT, evaluation=H_BOTH_EVAL)
        op = compose_dense(tuple(compile_evaluation(cfg)), 2)
        assert np.allclose(op, np.kron(H, H), atol=1e-15)

    def test_h_s_then_cn_entangles_single_cell(self):
        cfg = make_config(1, NeighborhoodRule.RIGHT, evaluation=H_S_THEN_CN_EVAL)
        op = compose_dense(tuple(compile_evaluation(cfg)), 2)
        out = op @ basis_state(2, 2)
        inv_sqrt2 = 1 / np.sqrt(2)
        assert np.allclose(out, [inv_sqrt2, 0, 0, -inv_sqrt2], atol=1e-15)

    def test_custom_matrix_placement(self, rng):
        u = random_unitary(rng, 4)
        cfg = make_config(2, NeighborhoodRule.RIGHT,
                          evaluation=LocalUnitary((0, 1), u))
        gates = compile_evaluation(cfg)
        assert gates == [LocalUnitary((0, 1), u), LocalUnitary((2, 3), u)]

    def test_cell_groups_touch_disjoint_bits(self):
        for evaluation in (H_BOTH_EVAL, H_S_THEN_CN_EVAL):
            cfg = make_config(4, NeighborhoodRule.RIGHT, evaluation=evaluation)
            per_cell = {}
            for gate in compile_evaluation(cfg):
                cell = min(gate.bits()) // 2
                per_cell.setdefault(cell, set()).update(gate.bits())
            cells = sorted(per_cell)
            for a in cells:
                for b in cells:
                    if a != b:
                        assert not (per_cell[a] & per_cell[b])


class TestDenseRule:
    def test_trivial_config_is_identity(self):
        cfg = make_config(1, NeighborhoodRule.RIGHT, evaluation=IDENTITY_EVAL)
        assert np.array_equal(build_dense_rule(cfg), np.eye(4))

    def test_unitary_n2_cyclic_h_both(self):
        cfg = make_config(2, NeighborhoodRule.RIGHT, BoundaryCondition.CYCLIC)
        op = build_dense_rule(cfg)
        assert np.max(np.abs(op.conj().T @ op - np.eye(16))) <= 1e-12

    def test_fig3_dense_matches_gate_path(self):
        op = build_dense_rule(FIG3)
        state = basis_state(6, 32)
        dense = op @ state
        gate_path = step(state, compile_rule(FIG3))
        assert np.max(np.abs(dense - gate_path)) <= 1e-12

    def test_size_limit(self):
        with pytest.raises(ValueError):
            build_dense_rule(make_config(6, NeighborhoodRule.RIGHT))


# The column gather equals the product with the dense interaction matrix
# bit for bit, signs of zeros included: it is what `qca2 matrix` prints.
@pytest.mark.parametrize("evaluation", [
    *PRESET_EVALS, LocalUnitary((0, 1), random_orthogonal(np.random.default_rng(8), 4)),
    LocalUnitary((0, 1), COMPLEX_CUSTOM),
], ids=["identity", "h_both", "h_s_then_cn", "real-custom", "complex-custom"])
@pytest.mark.parametrize("rule", ALL_RULES)
@pytest.mark.parametrize("boundary", ALL_BOUNDARIES)
def test_dense_rule_equals_the_product_with_the_composed_interaction(evaluation, rule,
                                                                     boundary):
    configs = [make_config(n, rule, boundary, evaluation) for n in range(1, 5)]
    if (rule, boundary, evaluation) == (NeighborhoodRule.BOTH, BoundaryCondition.CYCLIC,
                                        LocalUnitary((0, 1), COMPLEX_CUSTOM)):
        configs.append(make_config(5, rule, boundary, evaluation))
    for cfg in configs:
        cells = reduce(np.kron, [evaluation.matrix] * cfg.n_cells)
        product = cells @ compose_dense(compile_interaction(cfg), cfg.n_qubits)
        assert build_dense_rule(cfg).tobytes() == product.tobytes(), cfg.n_cells


class TestStep:
    def test_identity_rule_is_bitwise_noop(self, rng):
        # Right/const0 at N=1 compiles to no gates at all.
        empty = compile_rule(make_config(1, NeighborhoodRule.RIGHT,
                                         evaluation=IDENTITY_EVAL))
        state = random_state(rng, 2)
        assert np.array_equal(step(state, empty), state)

    def test_fig3_first_step_support(self):
        out = step(basis_state(6, 32), compile_rule(FIG3))
        probs = probabilities(out)
        support = sorted(np.nonzero(probs > 1e-12)[0].tolist())
        assert support == [0, 3, 12, 15, 48, 51, 60, 63]
        assert np.allclose(probs[support], 0.125, atol=1e-12)

    def test_norm_preserved(self, rng):
        cfg = make_config(3, NeighborhoodRule.BOTH, BoundaryCondition.CYCLIC,
                          H_S_THEN_CN_EVAL)
        rule = compile_rule(cfg)
        state = random_state(rng, 6)
        out = step(state, rule)
        assert abs(np.vdot(out, out).real - 1.0) <= 1e-12

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            step(basis_state(4, 0), compile_rule(FIG3))

    # A state advanced in place would hold the second kernel's output.
    @pytest.mark.parametrize("cfg", [
        FIG3,
        make_config(3, NeighborhoodRule.BOTH, BoundaryCondition.CYCLIC, H_S_THEN_CN_EVAL),
    ], ids=["fig3", "both-cyclic"])
    def test_step_and_apply_gate_leave_the_state_unchanged(self, rng, cfg):
        rule = compile_rule(cfg)
        state = random_state(rng, rule.n_qubits)
        before = state.tobytes()
        step(state, rule)
        for gate in rule.interaction + rule.evaluation:
            apply_gate(state, gate)
        assert state.tobytes() == before

    def test_keeps_the_state_dtype(self):
        rule = compile_rule(FIG3)
        real, cplx = step(basis_state(6, 32, np.float64), rule), step(basis_state(6, 32), rule)
        assert real.dtype == np.float64 and cplx.dtype == np.complex128
        assert np.array_equal(real, cplx)

    def test_real_state_refuses_a_complex_cell_unitary(self):
        rule = compile_rule(make_config(2, NeighborhoodRule.RIGHT,
                                        evaluation=LocalUnitary((0, 1), COMPLEX_CUSTOM)))
        with pytest.raises(TypeError):
            step(basis_state(4, 1, np.float64), rule)


class TestInteractionProperties:
    def test_permutation_preserves_s_bits(self):
        for rule in ALL_RULES:
            for boundary in ALL_BOUNDARIES:
                for n in (1, 2, 3, 4):
                    cfg = make_config(n, rule, boundary)
                    images = basis_images(compile_interaction(cfg), cfg.n_qubits)
                    dim = 1 << (2 * n)
                    assert np.array_equal(np.sort(images), np.arange(dim))
                    s_mask = sum(1 << (2 * j + 1) for j in range(n))
                    for k in range(dim):
                        assert int(images[k]) & s_mask == k & s_mask

    def test_order_independence(self):
        for rule in ALL_RULES:
            cfg = make_config(3, rule, BoundaryCondition.CYCLIC)
            gates = compile_interaction(cfg)
            for k in range(1 << 6):
                fwd = basis_state(6, k)
                rev = basis_state(6, k)
                for g in gates:
                    fwd = apply_gate(fwd, g)
                for g in reversed(gates):
                    rev = apply_gate(rev, g)
                assert np.array_equal(fwd, rev)

    def test_evaluation_cell_order_independence(self, rng):
        cfg = make_config(3, NeighborhoodRule.RIGHT, evaluation=H_S_THEN_CN_EVAL)
        gates = compile_evaluation(cfg)  # one gate per cell
        state = random_state(rng, 6)
        out_fwd = state
        for g in gates:
            out_fwd = apply_gate(out_fwd, g)
        out_rev = state
        for g in reversed(gates):
            out_rev = apply_gate(out_rev, g)
        assert np.max(np.abs(out_fwd - out_rev)) <= 1e-15


def reference_interaction(n_cells, rule, boundary):
    """Image of every basis index under the interaction phase, written from
    the rule text: c_j ^= AND of the s-bits of cell j's neighbours, where a
    phantom neighbour beyond a constant boundary holds that constant."""
    offsets = {
        NeighborhoodRule.RIGHT: (-1,),  # s_{j-1} drives c_j
        NeighborhoodRule.LEFT: (1,),
        NeighborhoodRule.BOTH: (-1, 1),
    }[rule]
    pinned = 1 if boundary is BoundaryCondition.CONST_ONE else 0
    images = []
    for k in range(4**n_cells):
        s = [(k >> (2 * j + 1)) & 1 for j in range(n_cells)]
        image = k
        for j in range(n_cells):
            fires = 1
            for offset in offsets:
                nb = j + offset
                if boundary is BoundaryCondition.CYCLIC:
                    fires &= s[nb % n_cells]
                elif 0 <= nb < n_cells:
                    fires &= s[nb]
                else:
                    fires &= pinned
            image ^= fires << (2 * j)
        images.append(image)
    return images


@pytest.mark.parametrize("rule", ALL_RULES)
@pytest.mark.parametrize("boundary", ALL_BOUNDARIES)
def test_interaction_gather_matches_rule_text(rule, boundary):
    for n in range(1, 7):
        cfg = make_config(n, rule, boundary)
        source = flip_source(compile_interaction(cfg), cfg.n_qubits)
        assert source.tolist() == reference_interaction(n, rule, boundary), n


class TestEvolve:
    def test_zero_steps_single_delta_column(self):
        cfg = make_config(2, NeighborhoodRule.RIGHT, initial=5)
        matrix = evolve(cfg)
        assert matrix.shape == (16, 1)
        assert matrix[5, 0] == 1.0 and matrix[:, 0].sum() == 1.0

    def test_fig3_shape_and_initial_column(self):
        cfg = make_config(3, NeighborhoodRule.RIGHT,
                          evaluation=H_S_THEN_CN_EVAL, initial=32, steps=5)
        matrix = evolve(cfg)
        assert matrix.shape == (64, 6)
        assert matrix[32, 0] == 1.0

    def test_fig3_first_column_matches_dense_oracle(self):
        cfg = make_config(3, NeighborhoodRule.RIGHT,
                          evaluation=H_S_THEN_CN_EVAL, initial=32, steps=1)
        matrix = evolve(cfg)
        oracle = np.abs(build_dense_rule(cfg) @ basis_state(6, 32)) ** 2
        assert np.max(np.abs(matrix[:, 1] - oracle)) <= 1e-12

    def test_per_phase_doubles_columns(self):
        cfg = make_config(2, NeighborhoodRule.RIGHT, steps=3,
                          record=RecordMode.PER_PHASE)
        assert evolve(cfg).shape == (16, 7)

    def test_per_phase_interaction_column_is_permuted_delta(self):
        # Starting from a basis state the interaction column is still a delta.
        cfg = make_config(2, NeighborhoodRule.RIGHT, initial=2, steps=1,
                          record=RecordMode.PER_PHASE)
        matrix = evolve(cfg)
        # s_0 = 1 (bit 1) flips c_1 (bit 2): state 2 -> 6.
        assert matrix[6, 1] == 1.0

    def test_columns_sum_to_one(self):
        cfg = make_config(3, NeighborhoodRule.BOTH, BoundaryCondition.CYCLIC,
                          H_S_THEN_CN_EVAL, initial=32, steps=20)
        matrix = evolve(cfg)
        assert np.max(np.abs(matrix.sum(axis=0) - 1.0)) <= 1e-10


def complex_reference(cfg):
    """Probability columns of `cfg` from `step` on a complex128 state."""
    rule = compile_rule(cfg)
    psi = basis_state(rule.n_qubits, cfg.initial_index)
    columns = [probabilities(psi)]
    for _ in range(cfg.n_steps):
        if cfg.record is RecordMode.PER_PHASE:
            columns.append(probabilities(psi[flip_source(rule.interaction, rule.n_qubits)]))
        psi = step(psi, rule)
        columns.append(probabilities(psi))
    return np.column_stack(columns)


# Columns are recorded time-major and returned transposed; the values are
# those of `step` on the same complex state, column by column.
@pytest.mark.parametrize("record", list(RecordMode))
def test_evolve_is_column_contiguous_and_equals_step_bitwise(record):
    cfg = make_config(4, NeighborhoodRule.BOTH, BoundaryCondition.CYCLIC,
                      LocalUnitary((0, 1), COMPLEX_CUSTOM), initial=77, steps=12, record=record)
    matrix = evolve(cfg)
    assert matrix.T.flags.c_contiguous and matrix.shape == (256, cfg.n_columns)
    assert matrix.tobytes() == complex_reference(cfg).tobytes()


# A run whose state is its initial basis state again after t updates copies
# its first t columns onward instead of evolving.  Forty steps run well past
# every such return (after 1, 2, 4, 6, 8, 12 or 24 updates here).  The
# columns equal, byte for byte, those of two loops that evolve to the end:
# one on the run's own state dtype and one on a complex128 state, which the
# presets, all real, never use.
@pytest.mark.parametrize("evaluation", [*PRESET_EVALS, LocalUnitary((0, 1), COMPLEX_CUSTOM)],
                         ids=["identity", "h_both", "h_s_then_cn", "complex-custom"])
@pytest.mark.parametrize("rule", ALL_RULES)
@pytest.mark.parametrize("boundary", ALL_BOUNDARIES)
def test_evolve_equals_loops_that_never_stop_early(run_states, rule, boundary, evaluation):
    for cells in range(1, 6):
        for initial in {0, 37 * cells % 4**cells, 4**cells - 1}:
            for record in RecordMode:
                cfg = make_config(cells, rule, boundary, evaluation, initial, 40, record)
                columns = evolve(cfg).tobytes()
                assert columns == evolve_reference(cfg).tobytes(), (cells, initial, record)
                assert columns == complex_reference(cfg).tobytes(), (cells, initial, record)
    real = evaluation in PRESET_EVALS
    assert {dtype for dtype, _ in run_states} == {np.dtype(np.float64 if real else np.complex128)}


class TestBasisShortcut:
    """`gates.advance` from a basis state c|j>: it gathers j alone and
    contracts only the cells reached so far, against the plain loop of
    `helpers.advance_reference`."""

    # 24 updates, 12 at 7 and 8 cells, pass the returns to a basis state of
    # the presets' runs; the complex custom state never returns, so two
    # updates show it all.  From index 0 and from 4**cells - 1 the reached
    # slice starts at the low and ends at the high end of the buffer.  The
    # plain loop runs once, a phase at a time: a PER_STEP update's kernels
    # are its two phases' in turn.
    @pytest.mark.parametrize("evaluation", [*PRESET_EVALS, LocalUnitary((0, 1), COMPLEX_CUSTOM)],
                             ids=["identity", "h_both", "h_s_then_cn", "complex-custom"])
    def test_equals_the_plain_loop(self, evaluation):
        dtype = gates.state_dtype([evaluation])
        for cells, rule, boundary in product(range(1, 9), ALL_RULES, ALL_BOUNDARIES):
            updates = (24 if cells <= 6 else 12) if evaluation in PRESET_EVALS else 2
            per_phase, per_step = (
                rules.update_kernels(make_config(cells, rule, boundary, evaluation,
                                                 record=record), dtype)
                for record in (RecordMode.PER_PHASE, RecordMode.PER_STEP))
            for initial in {0, 37 * cells % 4**cells, 4**cells - 1}:
                ref = basis_state(2 * cells, initial, dtype)
                ref_spare, phases = np.empty_like(ref), []
                for _ in range(updates):
                    for kernels in per_phase:
                        ref, ref_spare = advance_reference(ref, kernels, ref_spare)
                        phases.append(ref.copy())
                for update, expected in ((per_phase, phases), (per_step, phases[1::2])):
                    psi = basis_state(2 * cells, initial, dtype)
                    spare, expected = np.empty_like(psi), iter(expected)
                    for _ in range(updates):
                        for kernels in update:
                            psi, spare = gates.advance(psi, kernels, spare)
                            assert_equal_but_for_signs_of_zeros(psi, next(expected))

    # The amplitude c is carried as it is: -1, a phase, or off one by 1e-13.
    @pytest.mark.parametrize("amplitude", [-1.0, np.exp(0.3j), 1 + 1e-13],
                             ids=["minus-one", "phase", "one-plus"])
    @pytest.mark.parametrize("evaluation", [H_BOTH_EVAL, H_S_THEN_CN_EVAL,
                                            LocalUnitary((0, 1), COMPLEX_CUSTOM)],
                             ids=["h_both", "h_s_then_cn", "complex-custom"])
    def test_any_basis_amplitude(self, amplitude, evaluation):
        complex_ = isinstance(amplitude, complex) or evaluation.matrix.imag.any()
        dtype = np.complex128 if complex_ else np.float64
        cfg = make_config(4, NeighborhoodRule.BOTH, BoundaryCondition.CYCLIC, evaluation, 77)
        for kernels in rules.update_kernels(cfg, dtype):
            psi = amplitude * basis_state(8, 77, dtype)
            ref = advance_reference(psi.copy(), kernels, np.empty_like(psi))[0]
            assert_equal_but_for_signs_of_zeros(gates.advance(psi, kernels, np.empty_like(psi))[0],
                                                ref)

    # fig2's H acts on s0, bit 1, so it does not tile the bits from bit 0:
    # the state goes to the plain loop there.
    def test_a_gate_above_the_reached_bits_falls_back(self):
        script_path = Path(__file__).resolve().parent.parent / "scripts" / "fig2.qscript"
        n_qubits, initial, script = parse_script(script_path.read_text())
        psi = basis_state(n_qubits, initial, np.float64)
        columns, spare = [probabilities(psi)], np.empty_like(psi)
        for timestep in script:
            psi, spare = advance_reference(psi, gates.gate_kernels(timestep, n_qubits, psi.dtype),
                                           spare)
            columns.append(probabilities(psi))
        assert run_gate_script(n_qubits, initial, script).tobytes() == \
            np.column_stack(columns).tobytes()

    # One 10-cell update from a basis state contracts 4^(k+1) amplitudes
    # for cell k, the whole state only for the top cell, and allocates
    # less than a state.
    def test_a_10_cell_update_contracts_only_the_reached_cells(self, monkeypatch):
        cfg = make_config(10, NeighborhoodRule.RIGHT, BoundaryCondition.CYCLIC, initial=674508)
        kernels, = rules.update_kernels(cfg, np.float64)
        psi = basis_state(20, 674508, np.float64)
        ref = advance_reference(psi.copy(), kernels, np.empty_like(psi))[0]
        sizes, contract = [], gates.contract
        monkeypatch.setattr(gates, "contract",
                            lambda u, x, low, out: sizes.append(x.size) or contract(u, x, low, out))
        spare = np.empty_like(psi)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = gates.advance(psi, kernels, spare)[0]
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert sizes == [4 ** (k + 1) for k in range(10)]
        assert peak < psi.nbytes
        assert_equal_but_for_signs_of_zeros(out, ref)


# At every size, cells 0, 1 and 2, or as many as there are, are one run, in
# either record mode.
@pytest.mark.parametrize("record", list(RecordMode))
@pytest.mark.parametrize("cells", range(1, 7))
def test_cells_0_to_2_are_one_run_at_every_size(cells, record):
    update = rules.update_kernels(make_config(cells, NeighborhoodRule.RIGHT, record=record),
                                  np.float64)
    runs = [[low for _, low in k] for k in update[-1] if isinstance(k, list)]
    assert runs == [[0, 2, 4][:cells]]


# One dense 10-cell update contracts cells 0 to 2 as one run on 64 tiles.
# A random orthogonal cell matrix has no zero entry, so the order of every
# sum shows in the bits.
def test_a_dense_10_cell_update_equals_the_per_cell_loop(rng):
    cfg = make_config(10, NeighborhoodRule.BOTH, BoundaryCondition.CYCLIC,
                      LocalUnitary((0, 1), random_orthogonal(rng, 4)))
    kernels, = rules.update_kernels(cfg, np.float64)
    assert [type(k) for k in kernels] == [np.ndarray, list] + [tuple] * 7
    psi = rng.normal(size=1 << 20)
    ref = advance_reference(psi.copy(), kernels, np.empty_like(psi))[0]
    assert_equal_but_for_signs_of_zeros(gates.advance(psi, kernels, np.empty_like(psi))[0], ref)


# A 6-cell script timestep of H on bits 0 to 5 is one run.  A dense state
# sends it to `contract_tiles` once; a script's first timestep starts from a
# basis state and goes one bit at a time, its second starts dense.
def test_a_6_cell_script_timestep_of_h_on_bits_0_to_5_runs_on_tiles(monkeypatch, rng):
    timestep = [LocalUnitary((b,), H) for b in range(6)]
    runs, contract_tiles = [], gates.contract_tiles
    monkeypatch.setattr(gates, "contract_tiles",
                        lambda run, x, out: runs.append(len(run)) or contract_tiles(run, x, out))
    psi = rng.normal(size=1 << 12)
    kernels = list(gates.gate_kernels(timestep, 12, np.float64))
    ref = advance_reference(psi.copy(), kernels, np.empty_like(psi))[0]
    assert_equal_but_for_signs_of_zeros(gates.advance(psi, kernels, np.empty_like(psi))[0], ref)
    assert runs == [6]
    matrix = run_gate_script(12, 5, [timestep] * 2)
    assert runs == [6, 6]
    psi = basis_state(12, 5, np.float64)
    columns, spare = [probabilities(psi)], np.empty_like(psi)
    for _ in range(2):
        psi, spare = advance_reference(psi, kernels, spare)
        columns.append(probabilities(psi))
    assert matrix.tobytes() == np.column_stack(columns).tobytes()


class TestRecurrence:
    # Under `both`/`const0` index 0 has no s-bit set, so the interaction
    # flips nothing and the state is the initial one after the first half
    # of the update.  Counted in whole updates, it first returns after two.
    def test_a_half_update_back_at_the_start_does_not_stop_the_run(self):
        cfg = make_config(3, NeighborhoodRule.BOTH, BoundaryCondition.CONST_ZERO,
                          H_BOTH_EVAL, initial=0, steps=10, record=RecordMode.PER_PHASE)
        matrix = evolve(cfg)
        assert matrix[0, 1] == 1.0 and matrix[0, 2] == 1 / 64
        assert matrix.tobytes() == evolve_reference(cfg).tobytes()

    # X twice is the identity, so the script is back at its start after its
    # first timestep; its later timesteps differ, and it keeps evolving.
    def test_a_gate_script_back_at_the_start_keeps_evolving(self):
        x, h = ControlledFlip((), 0), LocalUnitary((1,), H)
        script = [[x, x], [h], [ControlledFlip({1}, 0)], [x], [h]]
        matrix = run_gate_script(2, 0, script)
        assert matrix[0, 1] == 1.0 and matrix[0, 2] != 1.0
        state = basis_state(2, 0)
        for t, timestep in enumerate(script, start=1):
            for gate in timestep:
                state = apply_gate(state, gate)
            assert matrix[:, t].tobytes() == probabilities(state).tobytes(), t

    # `right`/`const1`/`h_both` from index 3 is at -|3> after 12 updates and
    # at |3> after 24.  The run stops at the first, and its CSV and period
    # report are those of a run that never stops.
    @pytest.mark.parametrize("cells", [3, 5, 7])
    def test_a_return_to_minus_the_initial_state_stops_the_run(self, monkeypatch, cells):
        calls = []

        def counting(psi):
            calls.append(psi[3])
            return probabilities(psi)

        monkeypatch.setattr(rules, "probabilities", counting)
        cfg = make_config(cells, NeighborhoodRule.RIGHT, BoundaryCondition.CONST_ONE,
                          H_BOTH_EVAL, initial=3, steps=40)
        matrix = evolve(cfg)
        assert calls[-1] == -1 and len(calls) == 1 + 12
        reference = evolve_reference(cfg)
        assert write_csv(matrix) == write_csv(reference)
        assert format_period_report(analysis.search_period(cfg, 41)) == \
            format_period_report(analysis.detect_period(reference))

    # A rotation by 1e-9 keeps the initial amplitude at exactly 1.0 for
    # many updates while the other one grows: a column that reads 1 at the
    # initial index is not by itself a return.
    def test_a_probability_of_one_beside_other_amplitudes_does_not_stop_the_run(self):
        u = np.eye(4)
        u[:2, :2] = [[1.0, -1e-9], [1e-9, 1.0]]
        cfg = make_config(1, NeighborhoodRule.RIGHT, evaluation=LocalUnitary((0, 1), u), steps=5)
        matrix = evolve(cfg)
        assert (matrix[0] == 1.0).all() and matrix[1, 5] > matrix[1, 1] > 0
        assert matrix.tobytes() == evolve_reference(cfg).tobytes()

    # The 6-cell `right`/`cyclic`/`h_both` state is its initial basis state
    # again after 6 updates, and its run draws no column after that; the
    # complex custom state never returns, and its run draws every column.
    @pytest.mark.parametrize("record", list(RecordMode))
    @pytest.mark.parametrize("rule, evaluation, drawn", [
        (NeighborhoodRule.RIGHT, H_BOTH_EVAL, 6),
        (NeighborhoodRule.BOTH, LocalUnitary((0, 1), COMPLEX_CUSTOM), 40),
    ], ids=["h_both-returns", "complex-custom-never-returns"])
    def test_columns_drawn(self, monkeypatch, rule, evaluation, drawn, record):
        calls = []

        def counting(psi):
            calls.append(None)
            return probabilities(psi)

        monkeypatch.setattr(rules, "probabilities", counting)
        cfg = make_config(6, rule, BoundaryCondition.CYCLIC, evaluation,
                          initial=222, steps=40, record=record)
        matrix = evolve(cfg)
        per_update = 2 if record is RecordMode.PER_PHASE else 1
        assert len(calls) == 1 + per_update * drawn
        assert matrix.tobytes() == evolve_reference(cfg).tobytes()


# A custom matrix written with every imaginary part +0i evolves a float64
# state; one imaginary part off zero keeps the state complex.
@pytest.mark.parametrize("matrix, dtype", [
    (random_orthogonal(np.random.default_rng(8), 4), np.float64),
    (COMPLEX_CUSTOM, np.complex128),
], ids=["real-orthogonal", "complex-unitary"])
@pytest.mark.parametrize("rule", ALL_RULES)
def test_custom_matrix_state_dtype_and_dense_oracle(run_states, matrix, dtype, rule):
    entries = ",".join(format_complex(z) for z in matrix.astype(np.complex128).reshape(-1))
    assert (entries.count("+0i") == 16) == (dtype is np.float64)
    cfg = parse_config(f"cells=3\nrule={rule.value}\nboundary=cyclic\n"
                       f"eval=custom:{entries}\nsteps=20\ninitial=42\n")
    columns = evolve(cfg)
    assert run_states == [(dtype, np.dtype(dtype).itemsize << 6)]
    dense, psi = build_dense_rule(cfg), basis_state(6, 42)
    for t in range(cfg.n_columns):
        assert np.max(np.abs(columns[:, t] - np.abs(psi) ** 2)) <= 1e-12, t
        psi = dense @ psi


def _traced(run, *args):
    """`run(*args)` and the peak of the bytes it held while it ran."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        return run(*args), tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestEvolveBytes:
    # Beyond its probability matrix and two states, the estimate counts an
    # int64 gather index, two float64 probability temporaries and the
    # interpreter's objects, and the CSV writer's blocks in flight, which the
    # run itself does not hold.
    # Without those blocks it bounds the traced peak from above, within six
    # float64 vectors at 16 qubits: a script without gates holds neither a
    # second state nor a gather index.
    EXTRA = 3 * 8 << 16
    SLACK = 6 * 8 << 16

    @pytest.mark.parametrize("steps", [0, 3], ids=["one-column", "many-columns"])
    @pytest.mark.parametrize("record", list(RecordMode))
    @pytest.mark.parametrize("evaluation, dtype", [
        (H_BOTH_EVAL, np.float64), (LocalUnitary((0, 1), COMPLEX_CUSTOM), np.complex128),
    ], ids=["h_both", "complex-custom"])
    def test_is_what_evolve_allocates(self, run_states, evaluation, dtype, record, steps):
        cfg = make_config(8, NeighborhoodRule.BOTH, BoundaryCondition.CYCLIC, evaluation,
                          initial=1, steps=steps, record=record)
        matrix, peak = _traced(evolve, cfg)
        ((state_dtype, state_bytes),) = run_states
        need = run_bytes(16, cfg.n_columns, dtype) - WRITER_BYTES
        assert state_dtype == dtype
        assert need == matrix.nbytes + 2 * state_bytes + self.EXTRA + OBJECT_BYTES
        assert peak <= need < peak + self.SLACK

    # The last timestep is H on every s-qubit, then CN s_j -> c_j in every
    # cell: eight commuting flips in a row, which share one gather index.
    @pytest.mark.parametrize("steps", [0, 3], ids=["one-column", "many-columns"])
    @pytest.mark.parametrize("timestep, dtype", [
        ([LocalUnitary((0, 1), H_BOTH_EVAL.matrix), ControlledFlip({1}, 2)], np.float64),
        ([LocalUnitary((0, 1), COMPLEX_CUSTOM), ControlledFlip({1}, 2)], np.complex128),
        ([LocalUnitary((2 * j + 1,), H) for j in range(8)]
         + [ControlledFlip({2 * j + 1}, 2 * j) for j in range(8)], np.float64),
    ], ids=["h_both", "complex-custom", "many-flips"])
    def test_is_what_a_gate_script_allocates(self, run_states, timestep, dtype, steps):
        script = [timestep] * steps
        dtype = dtype if script else np.float64  # no gate needs a complex state
        matrix, peak = _traced(run_gate_script, 16, 1, script)
        ((state_dtype, state_bytes),) = run_states
        need = run_bytes(16, 1 + len(script), dtype) - WRITER_BYTES
        assert state_dtype == dtype
        assert need == matrix.nbytes + 2 * state_bytes + self.EXTRA + OBJECT_BYTES
        assert peak <= need < peak + self.SLACK

    # A 6-cell script of H on bits 0 to 5 runs on tiles from its second
    # timestep, real or, after a complex cell unitary on bits 0 and 1,
    # complex.  The tiles lie inside the two states, so the estimate holds
    # with nothing counted for them.
    @pytest.mark.parametrize("first", [[], [LocalUnitary((0, 1), COMPLEX_CUSTOM)]],
                             ids=["real", "complex"])
    def test_a_tiled_gate_script_stays_under_its_estimate(self, run_states, first):
        script = [first + [LocalUnitary((b,), H) for b in range(6)]] * 3
        dtype = gates.state_dtype(first)
        _, peak = _traced(run_gate_script, 12, 5, script)
        assert run_states == [(dtype, np.dtype(dtype).itemsize << 12)]
        assert peak <= run_bytes(12, 1 + len(script), dtype) - WRITER_BYTES

    # The CLI refuses a run whose estimate exceeds physical memory.  Tested
    # on the estimate alone, so that a broken check never allocates.
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("cells, steps", [(12, 100), (9, 4095)])
    def test_oversized_runs_exceed_8_gib(self, cells, steps, dtype):
        assert run_bytes(2 * cells, 1 + steps, dtype) > 8 << 30

    # A refused run allocates nothing of its size first, not even the gather
    # index: its traced peak stays under one int64 vector.
    @pytest.mark.parametrize("record", list(RecordMode))
    def test_refused_run_allocates_nothing_first(self, monkeypatch, record):
        monkeypatch.setattr(rules, "_physical_memory", lambda: 1 << 20)
        cfg = make_config(8, NeighborhoodRule.BOTH, BoundaryCondition.CYCLIC,
                          LocalUnitary((0, 1), COMPLEX_CUSTOM), initial=1, steps=3, record=record)

        def refused():
            with pytest.raises(MemoryError, match="physical memory"):
                evolve(cfg)

        assert _traced(refused)[1] < 8 << 16

    # The benchmark's configs: presets, custom (simulate and period), wide.
    @pytest.mark.parametrize("cells, steps", [(8, 40), (5, 1023), (5, 2047), (10, 15)])
    def test_benchmark_runs_fit_in_256_mib(self, cells, steps):
        assert run_bytes(2 * cells, 1 + steps, np.complex128) < 256 << 20


class TestSearchBytes:
    # The period search holds four states while a twin runs, an int64 gather
    # index, three float64 columns and one float64 a column.  Its estimate
    # bounds the traced peak from above, within six float64 vectors at 16
    # qubits.
    SLACK = 6 * 8 << 16

    # h_s_then_cn has period 8 here, checked by a twin since the state never
    # returns exactly; the complex run has no period, and its first lag gets
    # a twin only because the screen is made to let every lag through.
    @pytest.mark.parametrize("evaluation, dtype", [
        (H_S_THEN_CN_EVAL, np.float64), (LocalUnitary((0, 1), COMPLEX_CUSTOM), np.complex128),
    ], ids=["h_s_then_cn", "complex-custom"])
    def test_is_what_a_search_with_a_twin_allocates(self, monkeypatch, run_states, twin_runs,
                                                    evaluation, dtype):
        if dtype is np.complex128:
            monkeypatch.setattr(analysis, "_screen", lambda prints, lag, tol: True)
        cfg = make_config(8, NeighborhoodRule.RIGHT, BoundaryCondition.CONST_ZERO,
                          evaluation, initial=1)
        report, peak = _traced(analysis.search_period, cfg, 40)
        assert report.found == (dtype is np.float64) and twin_runs
        # The first evolution, then a pair of states for each twin.
        assert run_states == [(dtype, np.dtype(dtype).itemsize << 16)] * (1 + 2 * len(twin_runs))
        need = analysis.search_bytes(16, 40, dtype)
        assert peak <= need < peak + self.SLACK

    # A long search on one cell holds one float a column, with a period (an
    # exact return after 8 updates) and without one (every lag misses the
    # screen, in the first half or over the whole trace).
    @pytest.mark.parametrize("evaluation, dtype, period", [
        (H_BOTH_EVAL, np.float64, 4),
        (LocalUnitary((0, 1), COMPLEX_CUSTOM), np.complex128, None),
    ], ids=["period", "no-period"])
    def test_a_long_search_holds_one_float_a_column(self, evaluation, dtype, period):
        cfg = make_config(1, NeighborhoodRule.RIGHT, BoundaryCondition.CONST_ONE, evaluation,
                          initial=1)
        report, peak = _traced(analysis.search_period, cfg, 200_000)
        assert report.period == period
        assert 8 * 200_000 < peak <= analysis.search_bytes(2, 200_000, dtype)

    # A refused search allocates nothing of its size first, not even the
    # gather index: its traced peak stays under one int64 vector.
    @pytest.mark.parametrize("record", list(RecordMode))
    def test_refused_search_allocates_nothing_first(self, monkeypatch, record):
        monkeypatch.setattr(rules, "_physical_memory", lambda: 1 << 20)
        cfg = make_config(8, NeighborhoodRule.BOTH, BoundaryCondition.CYCLIC,
                          LocalUnitary((0, 1), COMPLEX_CUSTOM), initial=1, record=record)

        def refused():
            with pytest.raises(MemoryError, match="physical memory"):
                analysis.search_period(cfg, 40)

        assert _traced(refused)[1] < 8 << 16

    # The default horizon at 9 cells, whose matrix alone would be 8 GiB.
    # Tested on the estimate alone.
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_nine_cells_at_the_default_horizon_fit_in_256_mib(self, dtype):
        assert analysis.search_bytes(18, 4096, dtype) < 256 << 20


class TestCheckBytes:
    # The estimate counts the vectors of the checks' peak, which is the
    # translation check's, and the interpreter's objects: the traced peak is
    # within one float64 vector below it.
    @pytest.mark.parametrize("record", list(RecordMode))
    @pytest.mark.parametrize("evaluation, dtype", [
        (H_S_THEN_CN_EVAL, np.float64), (LocalUnitary((0, 1), COMPLEX_CUSTOM), np.complex128),
    ], ids=["h_s_then_cn", "complex-custom"])
    def test_is_what_the_checks_allocate(self, run_states, evaluation, dtype, record):
        cfg = make_config(8, NeighborhoodRule.BOTH, BoundaryCondition.CYCLIC, evaluation,
                          initial=1, record=record)

        def checks():
            return [check(cfg) for check in (analysis.check_rule_unitary,
                                             analysis.check_interaction,
                                             analysis.check_translation)]

        reports, peak = _traced(checks)
        assert all(report.passed for report in reports)
        # Two evolutions in lockstep, each with a pair of states.
        assert run_states == [(dtype, np.dtype(dtype).itemsize << 16)] * 2
        need = analysis.check_bytes(cfg)
        itemsize = np.dtype(dtype).itemsize
        assert need == ((4 * itemsize + 5 * 8) << 16) + OBJECT_BYTES
        assert need - (8 << 16) < peak <= need

    # A refused check allocates nothing of its size first.
    def test_refused_check_allocates_nothing_first(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(rules, "_physical_memory", lambda: 1 << 20)
        conf = tmp_path / "check.conf"
        conf.write_text("cells=8\nrule=both\nboundary=cyclic\nsteps=0\ninitial=1\n")
        code, peak = _traced(cli.main, ["check", str(conf)])
        assert code == 2 and peak < 8 << 16
        assert capsys.readouterr().err.startswith("error: out of memory: ")


# Each pre-flight bounds the traced peak, tiles included, at every size up
# to 6 cells: there the interpreter's objects outweigh the smallest states,
# and the tiles add nothing.
@pytest.mark.parametrize("cells", range(1, 7))
@pytest.mark.parametrize("evaluation, dtype", [
    (H_S_THEN_CN_EVAL, np.float64), (LocalUnitary((0, 1), COMPLEX_CUSTOM), np.complex128),
], ids=["h_s_then_cn", "complex-custom"])
def test_the_pre_flights_hold_at_every_size_up_to_6_cells(
        monkeypatch, evaluation, dtype, cells):
    tiled, contract_tiles = [], gates.contract_tiles
    monkeypatch.setattr(gates, "contract_tiles",
                        lambda *args: tiled.append(None) or contract_tiles(*args))
    cfg = make_config(cells, NeighborhoodRule.BOTH, BoundaryCondition.CYCLIC, evaluation,
                      initial=1, steps=3)
    peak = _traced(evolve, cfg)[1]
    assert tiled
    assert peak <= run_bytes(2 * cells, cfg.n_columns, dtype) - WRITER_BYTES
    peak = _traced(analysis.search_period, cfg, 40)[1]
    assert peak <= analysis.search_bytes(2 * cells, 40, dtype)
    peak = _traced(lambda: [analysis.check_interaction(cfg), analysis.check_translation(cfg)])[1]
    assert peak <= analysis.check_bytes(cfg)


class TestRunGateScript:
    def test_fig2_walkthrough(self):
        script = [
            [LocalUnitary((1,), H)],
            [ControlledFlip({1}, 0)],
        ]
        matrix = run_gate_script(2, 2, script)
        expected = np.array(
            [[0, 0.5, 0.5], [0, 0, 0], [1, 0.5, 0], [0, 0, 0.5]]
        )
        assert np.max(np.abs(matrix - expected)) <= 1e-12

    def test_empty_script(self):
        matrix = run_gate_script(3, 4, [])
        assert matrix.shape == (8, 1) and matrix[4, 0] == 1.0

    def test_matrix_is_column_contiguous(self):
        script = [[LocalUnitary((1,), H)], [ControlledFlip({1}, 0)]]
        matrix = run_gate_script(4, 2, script)
        assert matrix.shape == (16, 3) and matrix.T.flags.c_contiguous

    def test_state_is_real_for_h_x_cn_and_complex_otherwise(self, run_states):
        h = [LocalUnitary((1,), H)]
        flips = [ControlledFlip((), 0), ControlledFlip({1}, 0)]
        real = run_gate_script(2, 2, [h, flips])
        s_gate = [LocalUnitary((0,), np.diag([1, 1j]))]
        run_gate_script(2, 2, [h, s_gate, flips])
        assert [dtype for dtype, _ in run_states] == [np.float64, np.complex128]
        state = apply_gate(basis_state(2, 2), h[0])
        for gate in flips:
            state = apply_gate(state, gate)
        assert real[:, 2].tobytes() == probabilities(state).tobytes()

    def test_matches_dense_composition(self, rng):
        script = []
        running = []
        for _ in range(4):
            gates = [
                LocalUnitary((int(rng.integers(0, 3)),), H),
                ControlledFlip({2}, 0),
            ]
            script.append(gates)
            running.extend(gates)
        matrix = run_gate_script(3, 1, script)
        state = basis_state(3, 1)
        for t, timestep in enumerate(script, start=1):
            op = compose_dense(tuple(running[: 2 * t]), 3)
            oracle = np.abs(op @ state) ** 2
            assert np.max(np.abs(matrix[:, t] - oracle)) <= 1e-12


# Consecutive flips share one gather index while they commute; a flip that
# targets another's control starts a new one.  The columns equal those of
# the flips applied one gate at a time.
@pytest.mark.parametrize("timestep, runs", [
    ([ControlledFlip({2 * j + 1}, 2 * j) for j in range(8)], [8]),
    ([ControlledFlip((), 1), ControlledFlip({1}, 2), ControlledFlip({3}, 4)], [1, 2]),
    ([ControlledFlip({3}, 0), LocalUnitary((1,), H), ControlledFlip({1}, 2),
      ControlledFlip({0, 2}, 3)], [1, 1, 1]),
], ids=["eight-commuting-cns", "x-then-its-control", "split-by-a-local-gate"])
def test_commuting_script_flips_share_one_gather_index(monkeypatch, timestep, runs):
    built = []

    def counting(flips, n_qubits):
        built.append(len(flips))
        return flip_source(flips, n_qubits)

    monkeypatch.setattr(gates, "flip_source", counting)
    matrix = run_gate_script(16, 3, [timestep, timestep])
    assert built == runs * 2
    state = basis_state(16, 3)
    for t in (1, 2):
        for gate in timestep:
            state = apply_gate(state, gate)
        assert matrix[:, t].tobytes() == probabilities(state).tobytes()


class TestTranslationCovariance:
    @pytest.mark.parametrize("rule", ALL_RULES)
    @pytest.mark.parametrize("evaluation", [H_BOTH_EVAL, H_S_THEN_CN_EVAL])
    def test_cyclic_shift_commutes_with_evolution(self, rule, evaluation):
        from qca2.analysis import check_translation

        cfg = make_config(3, rule, BoundaryCondition.CYCLIC, evaluation,
                          initial=2, steps=20)
        report = check_translation(cfg)
        assert report.passed, report


class TestNormDrift:
    def test_long_run_drift_small(self):
        cfg = make_config(4, NeighborhoodRule.BOTH,
                          evaluation=H_BOTH_EVAL, initial=128)
        rule = compile_rule(cfg)
        state = basis_state(8, 128)
        for _ in range(2000):
            state = step(state, rule)
        assert abs(np.vdot(state, state).real - 1.0) <= 1e-9
