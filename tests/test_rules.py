import numpy as np
import pytest

from qca2.gates import ControlledFlip, LocalUnitary, apply_gate, compose_dense, embed_gate
from qca2.register import basis_state, probabilities
from qca2.rules import (
    BoundaryCondition,
    Evaluation,
    EvaluationKind,
    H_BOTH_EVAL,
    H_S_THEN_CN_EVAL,
    IDENTITY_EVAL,
    NeighborhoodRule,
    QcaConfig,
    RecordMode,
    build_dense_interaction,
    build_dense_rule,
    compile_evaluation,
    compile_interaction,
    compile_rule,
    evolve,
    run_gate_script,
    step,
)

from helpers import random_state, random_unitary

FIG3 = QcaConfig(
    n_cells=3,
    rule=NeighborhoodRule.RIGHT,
    evaluation=H_S_THEN_CN_EVAL,
    initial_index=32,
)

ALL_RULES = list(NeighborhoodRule)
ALL_BOUNDARIES = list(BoundaryCondition)
PRESET_EVALS = [IDENTITY_EVAL, H_BOTH_EVAL, H_S_THEN_CN_EVAL]


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
            Evaluation(EvaluationKind.CUSTOM, np.ones((4, 4)))


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
    def test_identity_is_empty(self):
        cfg = make_config(3, NeighborhoodRule.RIGHT, evaluation=IDENTITY_EVAL)
        assert compile_evaluation(cfg) == []

    def test_h_both_single_cell_equals_h_kron_h(self):
        cfg = make_config(1, NeighborhoodRule.RIGHT, evaluation=H_BOTH_EVAL)
        op = compose_dense(tuple(compile_evaluation(cfg)), 2)
        from qca2.gates import standard_gate

        assert np.allclose(op, np.kron(standard_gate("H"), standard_gate("H")), atol=1e-15)

    def test_h_s_then_cn_entangles_single_cell(self):
        cfg = make_config(1, NeighborhoodRule.RIGHT, evaluation=H_S_THEN_CN_EVAL)
        op = compose_dense(tuple(compile_evaluation(cfg)), 2)
        out = op @ basis_state(2, 2)
        inv_sqrt2 = 1 / np.sqrt(2)
        assert np.allclose(out, [inv_sqrt2, 0, 0, -inv_sqrt2], atol=1e-15)

    def test_custom_matrix_placement(self, rng):
        u = random_unitary(rng, 4)
        cfg = make_config(2, NeighborhoodRule.RIGHT,
                          evaluation=Evaluation(EvaluationKind.CUSTOM, u))
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


class TestInteractionProperties:
    def test_permutation_preserves_s_bits(self):
        for rule in ALL_RULES:
            for boundary in ALL_BOUNDARIES:
                for n in (1, 2, 3, 4):
                    cfg = make_config(n, rule, boundary)
                    op = build_dense_interaction(cfg)
                    dim = 1 << (2 * n)
                    assert set(np.unique(op)) <= {0.0, 1.0}
                    assert np.array_equal(np.abs(op).sum(axis=0), np.ones(dim))
                    assert np.array_equal(np.abs(op).sum(axis=1), np.ones(dim))
                    s_mask = sum(1 << (2 * j + 1) for j in range(n))
                    images = np.argmax(op, axis=0)
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
        source = compile_rule(make_config(n, rule, boundary)).source
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


class TestRunGateScript:
    def test_fig2_walkthrough(self):
        from qca2.gates import standard_gate

        script = [
            [LocalUnitary((1,), standard_gate("H"))],
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

    def test_matches_dense_composition(self, rng):
        from qca2.gates import standard_gate

        script = []
        running = []
        for _ in range(4):
            gates = [
                LocalUnitary((int(rng.integers(0, 3)),), standard_gate("H")),
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


class TestTranslationCovariance:
    @pytest.mark.parametrize("rule", ALL_RULES)
    @pytest.mark.parametrize("evaluation", [H_BOTH_EVAL, H_S_THEN_CN_EVAL])
    def test_cyclic_shift_commutes_with_evolution(self, rule, evaluation):
        from qca2.analysis import check_translation

        cfg = make_config(3, rule, BoundaryCondition.CYCLIC, evaluation,
                          initial=2, steps=20)
        report = check_translation(cfg, steps=20)
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
