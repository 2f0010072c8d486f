import numpy as np
import pytest
from dataclasses import replace
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qca2 import analysis, rules
from qca2.analysis import (
    cell_shift_permutation,
    check_interaction,
    check_rule_unitary,
    check_translation,
    detect_period,
    search_period,
)
from qca2.gates import (
    UNITARY_TOL,
    ControlledFlip,
    LocalUnitary,
    embed_gate,
    flip_source,
    standard_gate,
    unitary_deviation,
)
from qca2.rules import (
    BoundaryCondition,
    H_BOTH_EVAL,
    H_S_THEN_CN_EVAL,
    IDENTITY_EVAL,
    NeighborhoodRule,
    QcaConfig,
    RecordMode,
    build_dense_rule,
    evolve,
)

from helpers import doubled_identity, random_unitary

COMPLEX_CUSTOM = LocalUnitary((0, 1), random_unitary(np.random.default_rng(5), 4))


ALL_RULES, ALL_BOUNDARIES = list(NeighborhoodRule), list(BoundaryCondition)


class TestCheckUnitary:
    def test_identity_deviation_zero(self):
        report = check_rule_unitary(QcaConfig(1, NeighborhoodRule.RIGHT,
                                              evaluation=IDENTITY_EVAL))
        assert report.passed and report.worst_deviation == 0.0
        assert report.details == "4x4 cell unitary, tolerance 1e-12"

    def test_dense_h_embedding(self):
        op = embed_gate(LocalUnitary((2,), standard_gate("H")), 4)
        assert unitary_deviation(op) <= UNITARY_TOL

    def test_compiled_rule(self):
        cfg = QcaConfig(2, NeighborhoodRule.RIGHT, BoundaryCondition.CYCLIC, H_BOTH_EVAL)
        report = check_rule_unitary(cfg)
        assert report.passed and report.name == "rule-unitary"
        assert report.worst_deviation == unitary_deviation(H_BOTH_EVAL.matrix)

    # The dense operator of one update, the definition `check` once tested,
    # is unitary for every rule the cell unitaries make.
    @pytest.mark.parametrize("evaluation", [IDENTITY_EVAL, H_BOTH_EVAL, H_S_THEN_CN_EVAL],
                             ids=["identity", "h_both", "h_s_then_cn"])
    def test_dense_operator_is_unitary(self, evaluation):
        configs = [QcaConfig(n, rule, boundary, evaluation) for n in (1, 2, 3)
                   for rule in ALL_RULES for boundary in ALL_BOUNDARIES]
        if evaluation is H_S_THEN_CN_EVAL:
            configs.append(QcaConfig(5, NeighborhoodRule.BOTH, BoundaryCondition.CYCLIC,
                                     COMPLEX_CUSTOM))
        for cfg in configs:
            assert unitary_deviation(build_dense_rule(cfg)) <= UNITARY_TOL, cfg

    def test_non_unitary_fails(self, monkeypatch):
        assert unitary_deviation(2 * np.eye(4)) == 3.0
        cfg = QcaConfig(1, NeighborhoodRule.RIGHT, evaluation=doubled_identity(monkeypatch))
        report = check_rule_unitary(cfg)
        assert not report.passed and report.worst_deviation == 3.0


def update_with_gathers(*gathers):
    """A stand-in for `rules.update_kernels` whose update holds `gathers`,
    one timestep each, after a cell unitary."""
    return lambda config, dtype: [[(np.eye(4), 0)]] + [[gather] for gather in gathers]


class TestCheckInteraction:
    def test_single_cell_identity(self):
        cfg = QcaConfig(1, NeighborhoodRule.RIGHT)
        assert check_interaction(cfg).passed

    def test_two_cells_cyclic(self):
        cfg = QcaConfig(2, NeighborhoodRule.RIGHT, BoundaryCondition.CYCLIC)
        assert check_interaction(cfg).passed

    def test_three_cells_both_cyclic(self):
        cfg = QcaConfig(3, NeighborhoodRule.BOTH, BoundaryCondition.CYCLIC)
        assert check_interaction(cfg).passed

    def test_counts_every_state_whose_s_bit_moves(self, monkeypatch):
        # An X on s0 of a one-cell register moves the s-bit of all 4 states.
        x_on_s0 = flip_source([ControlledFlip((), 1)], 2)
        monkeypatch.setattr(rules, "update_kernels", update_with_gathers(x_on_s0))
        report = check_interaction(QcaConfig(1, NeighborhoodRule.RIGHT))
        assert not report.passed and report.worst_deviation == 4.0
        assert report.details.startswith("4 s-bit violations over 4 ")

    def test_composes_every_gather_of_the_update(self, monkeypatch):
        x_on_c0, x_on_s0 = (flip_source([ControlledFlip((), q)], 2) for q in (0, 1))
        monkeypatch.setattr(rules, "update_kernels", update_with_gathers(x_on_c0, x_on_c0))
        assert check_interaction(QcaConfig(1, NeighborhoodRule.RIGHT)).passed
        monkeypatch.setattr(rules, "update_kernels", update_with_gathers(x_on_c0, x_on_s0))
        assert check_interaction(QcaConfig(1, NeighborhoodRule.RIGHT)).worst_deviation == 4.0

    def test_fails_on_a_map_that_is_not_one_to_one(self, monkeypatch):
        # States 0 and 1 both gather from 0 (their s-bit stays 0), and none
        # from 1: index 0 is a source twice and index 1 never.
        gather = np.array([0, 0, 2, 3])
        monkeypatch.setattr(rules, "update_kernels", update_with_gathers(gather))
        report = check_interaction(QcaConfig(1, NeighborhoodRule.RIGHT))
        assert not report.passed and report.worst_deviation == 1.0
        assert report.details == "0 s-bit violations over 4 basis states"
        gather[:] = [3, 0, 2, 3]  # also moves the s-bit of state 0
        report = check_interaction(QcaConfig(1, NeighborhoodRule.RIGHT))
        assert not report.passed and report.worst_deviation == 2.0


class TestDetectPeriod:
    def test_identical_columns(self):
        matrix = np.tile(np.array([[0.25], [0.75]]), (1, 9))
        report = detect_period(matrix, tol=1e-9)
        assert report.found and report.period == 1 and report.max_deviation == 0.0

    def test_static_config_has_period_one(self):
        cfg = QcaConfig(1, NeighborhoodRule.RIGHT, evaluation=IDENTITY_EVAL,
                        initial_index=0, n_steps=10)
        report = detect_period(evolve(cfg), tol=1e-9)
        assert report.found and report.period == 1

    def test_alternating_columns(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        matrix = np.column_stack([a, b, a, b, a])
        report = detect_period(matrix, tol=1e-9)
        assert report.found and report.period == 2

    def test_requires_two_repetitions(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        matrix = np.column_stack([a, b, a, b])  # 4 columns < 2*2+1
        report = detect_period(matrix, tol=1e-9)
        assert not report.found and report.columns_examined == 4

    @pytest.mark.parametrize("steps", [11, 12])
    def test_same_report_for_either_memory_order(self, steps):
        # Over 12 and 13 columns h_both has period 6, found only in the
        # longer run, and h_s_then_cn has period 4 at a deviation of 2e-15.
        # Reports are compared by repr, since nan != nan.
        for evaluation in (H_BOTH_EVAL, H_S_THEN_CN_EVAL):
            cfg = QcaConfig(3, NeighborhoodRule.RIGHT, BoundaryCondition.CYCLIC,
                            evaluation, initial_index=9, n_steps=steps)
            matrix = evolve(cfg)
            reports = [repr(detect_period(np.asarray(matrix, order=order)))
                       for order in "CF"]
            assert reports[0] == reports[1]

    def test_minimality(self):
        # Period 4 pattern: every smaller candidate must exceed the tolerance.
        cols = [np.eye(4)[:, t % 4] for t in range(12)]
        matrix = np.column_stack(cols)
        report = detect_period(matrix, tol=1e-9)
        assert report.period == 4
        for p in range(1, 4):
            deviation = np.max(np.abs(matrix[:, :-p] - matrix[:, p:]))
            assert deviation > 1e-9

    def test_rejects_empty_and_bad_tol(self):
        with pytest.raises(ValueError):
            detect_period(np.empty((4, 0)), tol=1e-9)
        with pytest.raises(ValueError):
            detect_period(np.ones((2, 3)), tol=0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=1e-9, max_value=0.1),
        st.floats(min_value=1.0, max_value=10.0),
    )
    def test_monotone_in_tolerance(self, seed, tol, factor):
        rng = np.random.default_rng(seed)
        base = rng.random((3, int(rng.integers(3, 12))))
        small = detect_period(base, tol=tol)
        large = detect_period(base, tol=tol * factor)
        if small.found:
            assert large.found and large.period <= small.period

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=16),
        st.sampled_from([0.0, 1e-12, 1e-10, 1e-8, 1e-3]),
        st.booleans(),
        st.sampled_from([1e-9, 1e-11]),
    )
    def test_matches_whole_matrix_formula(self, seed, period, n_cols, noise, with_nan, tol):
        rng = np.random.default_rng(seed)
        pattern = rng.random((int(rng.integers(1, 5)), period))
        matrix = pattern[:, np.arange(n_cols) % period]
        matrix = matrix + noise * rng.standard_normal(matrix.shape)
        if with_nan:
            matrix[rng.integers(matrix.shape[0]), rng.integers(n_cols)] = np.nan
        # Reference: every lag compared over the whole matrix at once.
        expected = (False, None, "nan")
        for p in range(1, (n_cols - 1) // 2 + 1):
            deviation = float(np.max(np.abs(matrix[:, : n_cols - p] - matrix[:, p:])))
            if deviation <= tol:
                expected = (True, p, repr(deviation))
                break
        report = detect_period(matrix, tol)
        assert (report.found, report.period, repr(report.max_deviation)) == expected
        assert report.columns_examined == n_cols

    def test_clifford_rule_exactly_periodic(self):
        # Single-control flips plus Hadamards generate a finite group, so the
        # probability pattern recurs exactly.
        for rule in (NeighborhoodRule.RIGHT, NeighborhoodRule.LEFT):
            cfg = QcaConfig(2, rule, BoundaryCondition.CYCLIC,
                            H_S_THEN_CN_EVAL, initial_index=2, n_steps=512)
            report = detect_period(evolve(cfg), tol=1e-9)
            assert report.found, (rule, report)


def _matrix_report(config: QcaConfig, n_columns: int, tol: float) -> str:
    """repr of `detect_period` on the first `n_columns` columns of `evolve`."""
    steps = -(-(n_columns - 1) // config.per_update)
    return repr(detect_period(evolve(replace(config, n_steps=steps))[:, :n_columns], tol))


def _grid_configs(rule, boundary, evaluation, max_cells):
    """Every cell count up to `max_cells` in both record modes, from the
    sweep's initial index, one in the middle, and the last."""
    for cells, record in product(range(1, max_cells + 1), RecordMode):
        for initial in sorted({1 << (2 * cells - 1), 37 * cells % 4**cells, 4**cells - 1}):
            yield QcaConfig(cells, rule, boundary, evaluation, initial, record=record)


class TestSearchPeriod:
    # The search never holds the matrix, yet reports what `detect_period`
    # reports on it bit for bit, over the sweep's tolerances.
    @pytest.mark.parametrize("evaluation", [IDENTITY_EVAL, H_BOTH_EVAL, H_S_THEN_CN_EVAL,
                                            COMPLEX_CUSTOM],
                             ids=["identity", "h_both", "h_s_then_cn", "complex-custom"])
    @pytest.mark.parametrize("boundary", list(BoundaryCondition), ids=lambda b: b.value)
    @pytest.mark.parametrize("rule", list(NeighborhoodRule), ids=lambda r: r.value)
    def test_equals_detect_period_on_the_matrix(self, rule, boundary, evaluation):
        tols = (1e-9, 1e-6) if rule is NeighborhoodRule.BOTH else (1e-9,)
        for cfg in _grid_configs(rule, boundary, evaluation, 4):
            for n_columns, tol in product((1, 2, 3, 16, 65), tols):
                assert repr(search_period(cfg, n_columns, tol)) == \
                    _matrix_report(cfg, n_columns, tol), (cfg, n_columns, tol)

    # With a screen that lets every lag through, the twin and the exact
    # return alone decide each lag, and the reports do not change.
    @pytest.mark.parametrize("evaluation", [H_BOTH_EVAL, H_S_THEN_CN_EVAL, COMPLEX_CUSTOM],
                             ids=["h_both", "h_s_then_cn", "complex-custom"])
    @pytest.mark.parametrize("rule", list(NeighborhoodRule), ids=lambda r: r.value)
    def test_twin_alone_decides_every_lag(self, monkeypatch, rule, evaluation):
        monkeypatch.setattr(analysis, "_screen", lambda prints, lag, tol: True)
        for boundary in BoundaryCondition:
            for cfg in _grid_configs(rule, boundary, evaluation, 3):
                for n_columns in (3, 16, 33):
                    assert repr(search_period(cfg, n_columns, 1e-9)) == \
                        _matrix_report(cfg, n_columns, 1e-9), (cfg, n_columns)

    # The screen lets no wrong lag through on the benchmark's two period
    # searches, from several of the initial indices its seeds draw: the
    # 10-cell run returns exactly after 6 updates and lag 6 needs no twin,
    # and no lag survives on the 5-cell complex run.
    @pytest.mark.parametrize("cfg, n_columns, period", [
        *(pytest.param(QcaConfig(10, NeighborhoodRule.RIGHT, BoundaryCondition.CYCLIC,
                                 H_BOTH_EVAL, initial), 16, 6, id=name)
          for name, initial in [("wide", 674508), ("wide-533115", 533115),
                                ("wide-885375", 885375), ("wide-301375", 301375)]),
        *(pytest.param(QcaConfig(5, NeighborhoodRule.BOTH, BoundaryCondition.CYCLIC,
                                 COMPLEX_CUSTOM, initial), 2048, None, id=name)
          for name, initial in [("custom", 37 * 5), ("custom-634", 634),
                                ("custom-139", 139), ("custom-791", 791)]),
    ])
    def test_benchmark_searches_run_no_twin(self, twin_runs, cfg, n_columns, period):
        report = search_period(cfg, n_columns)
        assert report.period == period and twin_runs == []
        if period:
            assert report.max_deviation == 0.0

    # Under record=phase a lag may be odd: here the interaction never moves
    # the all-zero state, and a rotation by 1e-6 on every c-qubit moves the
    # probabilities by less than 1e-10 a timestep, so lag 1 passes, and its
    # twin starts after an interaction half-update.  The state never returns
    # exactly.
    def test_odd_lag_under_record_phase(self, twin_runs):
        c, s = np.cos(1e-6), np.sin(1e-6)
        rotation = LocalUnitary((0, 1), np.kron(np.eye(2), [[c, -s], [s, c]]))
        cfg = QcaConfig(2, NeighborhoodRule.RIGHT, BoundaryCondition.CONST_ZERO, rotation,
                        initial_index=0, record=RecordMode.PER_PHASE)
        report = search_period(cfg, 65)
        assert repr(report) == _matrix_report(cfg, 65, 1e-9)
        assert report.period == 1 and 1e-11 < report.max_deviation < 1e-9
        assert twin_runs == [(1, 64)]

    # This run is back at its initial state after 24 updates, but its
    # probability pattern repeats after 12: lag 12 is checked by a twin over
    # one return time of column pairs.
    def test_period_shorter_than_the_exact_return(self, twin_runs):
        cfg = QcaConfig(2, NeighborhoodRule.RIGHT, BoundaryCondition.CONST_ONE, H_BOTH_EVAL,
                        initial_index=10)
        report = search_period(cfg, 65)
        assert repr(report) == _matrix_report(cfg, 65, 1e-9)
        assert report.period == 12 and twin_runs[-1] == (12, 24)

    # The screen of any one row passes every lag whose column pairs all pass
    # `detect_period`'s own check: nan, ±0, repeated columns and values
    # exactly a tolerance apart included.
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_screen_passes_every_lag_detect_period_accepts(self, data):
        n_rows = data.draw(st.integers(1, 4))
        values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1.0 - 1e-9, 1e-9, 2e-9,
                                            float("nan")]),
                           st.floats(0.0, 1.0))
        n_distinct = data.draw(st.integers(1, 4))
        pool = data.draw(arrays(np.float64, (n_rows, n_distinct), elements=values))
        order = data.draw(st.lists(st.integers(0, n_distinct - 1), min_size=2, max_size=12))
        matrix, row = pool[:, order], data.draw(st.integers(0, n_rows - 1))
        gaps = np.abs(np.subtract.outer(pool.ravel(), pool.ravel())).ravel()
        tol = data.draw(st.sampled_from([1e-9, 1e-6, 0.5, *gaps[gaps > 0]]))
        n_cols = matrix.shape[1]
        for lag in range(1, n_cols):
            if all(float(np.max(np.abs(matrix[:, t] - matrix[:, t + lag]))) <= tol
                   for t in range(n_cols - lag)):
                assert analysis._screen(matrix[row], lag, tol), (lag, matrix)

    def test_rejects_no_columns_and_bad_tol(self):
        cfg = QcaConfig(1, NeighborhoodRule.RIGHT)
        with pytest.raises(ValueError):
            search_period(cfg, 0)
        with pytest.raises(ValueError):
            search_period(cfg, 3, tol=0.0)


def test_cell_shift_is_the_per_cell_loop():
    for n_cells in range(1, 7):
        expected = []
        for k in range(4**n_cells):
            image = 0
            for j in range(n_cells):
                image |= ((k >> (2 * j)) & 3) << (2 * ((j + 1) % n_cells))
            expected.append(image)
        assert cell_shift_permutation(n_cells).tolist() == expected


class TestCheckTranslation:
    def test_two_cells_h_both(self):
        cfg = QcaConfig(2, NeighborhoodRule.RIGHT, BoundaryCondition.CYCLIC,
                        H_BOTH_EVAL, initial_index=2)
        report = check_translation(cfg)
        assert report.passed and report.worst_deviation <= 1e-12

    def test_all_zeros_initial_trivially_passes(self):
        cfg = QcaConfig(3, NeighborhoodRule.RIGHT, BoundaryCondition.CYCLIC,
                        H_BOTH_EVAL, initial_index=0)
        assert check_translation(cfg).passed

    def test_three_cells_both_h_s_then_cn(self):
        cfg = QcaConfig(3, NeighborhoodRule.BOTH, BoundaryCondition.CYCLIC,
                        H_S_THEN_CN_EVAL, initial_index=32)
        report = check_translation(cfg)
        assert report.passed and report.worst_deviation <= 1e-12

    # The deviation of the two whole probability matrices, the definition
    # the lockstep evolutions reach bit for bit.
    @pytest.mark.parametrize("record", list(RecordMode))
    def test_equals_the_deviation_of_the_whole_evolutions(self, record):
        deviations = []
        for n, rule, evaluation in product(range(1, 6), ALL_RULES,
                                           [H_BOTH_EVAL, H_S_THEN_CN_EVAL, COMPLEX_CUSTOM]):
            cfg = QcaConfig(n, rule, BoundaryCondition.CYCLIC, evaluation, (7 * n + 3) % 4**n,
                            analysis.TRANSLATION_STEPS, record)
            perm = cell_shift_permutation(n)
            shifted = replace(cfg, initial_index=int(perm[cfg.initial_index]))
            expected = float(np.max(np.abs(evolve(shifted)[perm] - evolve(cfg))))
            assert check_translation(cfg).worst_deviation == expected, cfg
            deviations.append(expected)
        assert max(deviations) > 0.0  # some rounding differs between the two runs

    def test_rejects_non_cyclic(self):
        cfg = QcaConfig(2, NeighborhoodRule.RIGHT)
        with pytest.raises(ValueError):
            check_translation(cfg)
