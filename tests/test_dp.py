"""Solver tests, anchored by two independent oracles.

The linear-algebra oracle evaluates a fixed policy by assembling the
full balance system V = R + P V over all (F+1)^2 states and handing it
to numpy.linalg.solve; it never touches the backward sweep.  Optimal
tables are cross-checked as the entrywise minimum over every
deterministic policy of small instances (the optimal stationary policy
dominates everywhere, so the minimum is attained by it at all states).
The minimizing policy is the action column of write_table_csv's export,
which reads it off the solved table; fixed policies go through the
sweep's evaluate mode, _sweep with a serve-least mask.
"""

import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncbroadcast import dp
from ncbroadcast.dp import (
    MAX_STATES,
    ORACLE_MAX_CAP,
    Action,
    _sweep,
    certify,
    enumerate_policies_oracle,
    solve_optimal,
    write_table_csv,
)
from ncbroadcast.model import ConfigError, SystemConfig, validate_config
from reference import (
    all_policy_tables,
    classify,
    decision_states,
    lag_lead,
    lag_lead_actions,
    linear_solve_policy,
    lookahead,
    lr_policy_table,
    reward,
    transitions,
)

SOLVE_GOLDEN_CSV = Path(__file__).parent / "data" / "solve_golden.csv"
SOLVE_GOLDEN_GRID = ((12, 4, 0.5), (12, 1, 0.1), (12, 12, 0.9), (24, 3, 1.0), (24, 8, 0.3))


def family(report, name):
    """The inequality family `name` of a certify report; KeyError when the report has none."""
    return {c.name: c for c in report.checks}[name]


def evaluate(cfg, table):
    """Expected-slots table of a fixed policy table: the sweep's evaluate mode on a stack of one."""
    serve_least = (np.asarray(table) == Action.SERVE_LEAST).reshape(1, -1)
    return _sweep(cfg, dp._batches(cfg), serve_least)[0] / cfg.p


def exported_policy(cfg, values, path):
    """The action column of write_table_csv's export of `values`, as an (F+1, F+1) int8 table."""
    write_table_csv(path, cfg, values)
    lines = path.read_bytes().splitlines()[1:]
    return np.array([int(line.rsplit(b",", 1)[1]) for line in lines], dtype=np.int8).reshape(cfg.F + 1, -1)


def traced_peak(call, *args):
    """(call(*args), the peak of the memory tracemalloc saw allocated during the call)."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSolveOptimal:
    def test_single_packet_file(self):
        cfg = validate_config(1, 1, 2, 0.5)
        values = solve_optimal(cfg)
        assert values[0, 1] == pytest.approx(2.0, abs=1e-12)
        assert values[1, 1] == 0.0
        assert values[0, 0] == pytest.approx(8 / 3, abs=1e-12)

    def test_last_column_closed_form(self):
        cfg = validate_config(12, 4, 2, 0.5)
        values = solve_optimal(cfg)
        for x0 in range(13):
            assert values[x0, 12] == pytest.approx(2 * (12 - x0), abs=1e-12)

    def test_three_by_three_against_linear_solver(self):
        cfg = validate_config(2, 1, 2, 0.5)
        values = solve_optimal(cfg)
        per_policy = [linear_solve_policy(cfg, t) for t in all_policy_tables(cfg)]
        best = np.minimum.reduce(per_policy)
        np.testing.assert_allclose(values, best, atol=1e-9)
        # exact fractions, derived from the nine balance equations by hand
        expected = np.array(
            [
                [Fraction(140, 27), Fraction(40, 9), Fraction(4)],
                [Fraction(40, 9), Fraction(8, 3), Fraction(2)],
                [Fraction(4), Fraction(2), Fraction(0)],
            ],
            dtype=float,
        )
        np.testing.assert_allclose(values, expected, atol=1e-12)

    # lead - lag spans (0, 1] ON slots at these configs, so -0.5 sets some
    # states apart from a margin taken in expected slots
    @pytest.mark.parametrize("tolerance", [dp.TOLERANCE, 0.0, 1.0, -1.0, -0.5])
    @pytest.mark.parametrize("F,K,p", [(12, 4, 0.5), (12, 1, 1.0), (24, 3, 0.1), (8, 8, 0.7)])
    def test_actions_follow_the_lookahead_into_the_final_table(self, monkeypatch, tmp_path, F, K, p, tolerance):
        # write_table_csv reads each action off the finished table; the rule
        # applied to that table with one-step lookaheads taken from the
        # transition kernel must give the same policy, at the module's tie
        # margin and at others put in its place.  The margin is in ON
        # slots: the export serves the receiver behind where
        # lag <= lead + tolerance, lag and lead in U = p * V, and the
        # lookahead gap is v_least - v_most = (lag - lead) / (2 - p).
        monkeypatch.setattr(dp, "TOLERANCE", tolerance)
        cfg = validate_config(F, K, 2, p)
        values = solve_optimal(cfg)
        actions = exported_policy(cfg, values, tmp_path / "table.csv")
        for x0 in range(F + 1):
            for x1 in range(F + 1):
                s = (x0, x1)
                if not classify(s, cfg).is_decision:
                    assert actions[s] == Action.NO_DECISION
                    continue
                v_least, v_most = (lookahead(values, s, a, cfg) for a in (Action.SERVE_LEAST, Action.SERVE_MOST))
                expected = Action.SERVE_LEAST if (2 - p) * (v_least - v_most) <= tolerance else Action.SERVE_MOST
                assert actions[s] == expected, s

    @pytest.mark.parametrize("tolerance", [dp.TOLERANCE, -0.5])
    def test_action_table_across_row_blocks_follows_the_scalar_rule(self, monkeypatch, tmp_path, tolerance):
        # write_table_csv reads each block's actions off that block's rows
        # and the row below them, in row blocks of _CERTIFY_CELLS cells: 436
        # rows at F=600, so two blocks.  The exported policy must be the
        # scalar lag/lead rule applied state by state to V * p.  A margin of
        # -0.5 ON slots puts both codes into each block.
        monkeypatch.setattr(dp, "TOLERANCE", tolerance)
        cfg = validate_config(600, 25, 2, 0.5)
        rows = dp._CERTIFY_CELLS // (cfg.F + 1)
        assert rows < cfg.F <= 2 * rows
        values = solve_optimal(cfg)
        actions = exported_policy(cfg, values, tmp_path / "table.csv")
        assert np.array_equal(actions, lag_lead_actions(values * cfg.p, cfg, tolerance))
        if tolerance < 0:
            for block in (actions[:rows], actions[rows:]):
                assert set(block.ravel().tolist()) == {-1, 0, 1}

    @pytest.mark.parametrize("F,larger_F,K,p", [
        (1, 7, 1, 1.0), (5, 12, 1, 0.123456789), (6, 18, 6, 1.0), (6, 12, 6, 0.123456789),
        (8, 24, 4, 0.5), (12, 24, 3, 0.123456789),
    ])
    def test_smaller_file_is_the_lower_right_corner_and_tables_are_symmetric(self, tmp_path, F, larger_F, K, p):
        # A value depends only on the packets still missing, F - x0 and F - x1,
        # and swapping the receivers transposes the table: check-lr and the
        # CSV export rely on both identities holding bit for bit.
        cfg, larger_cfg = validate_config(F, K, 2, p), validate_config(larger_F, K, 2, p)
        values, larger_values = solve_optimal(cfg), solve_optimal(larger_cfg)
        actions = exported_policy(cfg, values, tmp_path / "table.csv")
        larger_actions = exported_policy(larger_cfg, larger_values, tmp_path / "larger.csv")
        top = larger_F - F
        assert np.array_equal(values.view(np.int64), larger_values[top:, top:].view(np.int64))
        assert np.array_equal(actions, larger_actions[top:, top:])
        for v, a in ((values, actions), (larger_values, larger_actions)):
            assert np.array_equal(v.view(np.int64), v.T.view(np.int64))
            assert np.array_equal(a, a.T)

    def test_rejects_wrong_receiver_count(self, tmp_path):
        cfg = validate_config(4, 2, 3, 0.5)
        table = np.zeros((5, 5))
        for call in (solve_optimal, enumerate_policies_oracle, lambda c: certify(c, table),
                     lambda c: write_table_csv(tmp_path / "table.csv", c, table)):
            with pytest.raises(ValueError, match="N=2 only"):
                call(cfg)
        assert not (tmp_path / "table.csv").exists()

    @given(
        K=st.integers(1, 3),
        nb=st.integers(1, 3),
        p=st.floats(0.1, 1.0, allow_nan=False),
    )
    @settings(deadline=None, max_examples=40)
    def test_balance_residuals_symmetry_and_lr_agreement(self, tmp_path_factory, K, nb, p):
        cfg = validate_config(K * nb, K, 2, p)
        values = solve_optimal(cfg)
        actions = exported_policy(cfg, values, tmp_path_factory.mktemp("balance") / "table.csv")
        assert np.abs(values - values.T).max() < 1e-9
        assert np.abs(evaluate(cfg, lr_policy_table(cfg)) - values).max() < 1e-9
        for x0 in range(cfg.F + 1):
            for x1 in range(cfg.F + 1):
                s = (x0, x1)
                if s == (cfg.F, cfg.F):
                    assert values[s] == 0.0
                    continue
                total = reward(s, cfg)
                for nxt, pr in transitions(s, Action(int(actions[s])), cfg):
                    total += pr * values[nxt]
                assert abs(values[s] - total) < 1e-9


class TestEvaluatePolicy:
    """The sweep's evaluate mode: _sweep with a stack of serve-least masks."""

    def test_no_decisions_means_optimal(self):
        cfg = validate_config(4, 4, 2, 0.5)
        table = np.zeros((5, 5), dtype=np.int8)
        np.testing.assert_allclose(evaluate(cfg, table), solve_optimal(cfg), atol=1e-12)

    def test_lr_attains_the_optimum(self):
        cfg = validate_config(4, 2, 2, 0.5)
        v_lr = evaluate(cfg, lr_policy_table(cfg))
        v_opt = solve_optimal(cfg)
        assert v_lr[0, 0] == pytest.approx(v_opt[0, 0], abs=1e-9)

    def test_serve_most_everywhere_is_strictly_worse(self):
        cfg = validate_config(4, 2, 2, 0.5)
        table = lr_policy_table(cfg)
        for s in decision_states(cfg):
            table[s] = Action.SERVE_MOST
        v_most = evaluate(cfg, table)
        v_opt = solve_optimal(cfg)
        assert v_most[0, 0] > v_opt[0, 0] + 1e-6

    def test_matches_linear_solver_on_fixed_policy(self):
        cfg = validate_config(4, 2, 2, 0.7)
        table = lr_policy_table(cfg)
        np.testing.assert_allclose(
            evaluate(cfg, table), linear_solve_policy(cfg, table), rtol=1e-12, atol=0
        )

    def test_serving_the_leader_on_either_side_matches_linear_solver(self):
        # Serve least and serve most, each where receiver 0 is behind and
        # where it is ahead: the four cases of the sweep's selector.
        cfg = validate_config(6, 2, 2, 0.7)
        table = lr_policy_table(cfg)
        cases = set()
        for i, s in enumerate(decision_states(cfg)):
            table[s] = Action.SERVE_MOST if i % 2 else Action.SERVE_LEAST
            cases.add((classify(s, cfg), Action(int(table[s]))))
        assert len(cases) == 4
        np.testing.assert_allclose(
            evaluate(cfg, table), linear_solve_policy(cfg, table), rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize("F,K,p,seed", [(12, 4, 0.5, 0), (8, 2, 0.3, 1), (12, 3, 1.0, 2), (6, 1, 0.9, 3)])
    def test_batched_sweep_matches_single_evaluations_bit_for_bit(self, F, K, p, seed):
        # The oracle evaluates policies in stacks; each layer of the stack
        # must be exactly the table of a single evaluation.
        cfg = validate_config(F, K, 2, p)
        base = lr_policy_table(cfg)
        rng = np.random.default_rng(seed)
        stack = np.repeat(base[None], 7, axis=0)
        stack[:, base != Action.NO_DECISION] = rng.choice(
            (Action.SERVE_LEAST, Action.SERVE_MOST), size=(7, int((base != Action.NO_DECISION).sum()))
        )
        batched = _sweep(cfg, dp._batches(cfg), (stack == Action.SERVE_LEAST).reshape(7, -1)) / p
        assert batched.shape == (7, F + 1, F + 1)
        for table, values in zip(stack, batched):
            assert values.tobytes() == evaluate(cfg, table).tobytes()


class TestDecisionStates:
    @pytest.mark.parametrize(
        "F,K,p", [(1, 1, 0.5), (2, 1, 0.3), (4, 4, 0.5), (6, 3, 0.5), (12, 4, 0.9), (12, 1, 1.0), (15, 5, 0.2)]
    )
    def test_match_scalar_classification(self, monkeypatch, tmp_path, F, K, p):
        # The batch-id vector classifies the grid as the scalar rule does,
        # both in the exported policy and in the oracle, whose refusal names
        # its count of decision states.
        cfg = validate_config(F, K, 2, p)
        reference = decision_states(cfg)
        actions = exported_policy(cfg, solve_optimal(cfg), tmp_path / "table.csv")
        assert [tuple(s) for s in np.argwhere(actions != Action.NO_DECISION).tolist()] == reference
        monkeypatch.setattr(dp, "ORACLE_MAX_CAP", 1)  # refuse every instance that has a decision state
        if reference:
            with pytest.raises(ConfigError, match=f"^{len(reference)} decision states give"):
                enumerate_policies_oracle(cfg)
        else:
            assert enumerate_policies_oracle(cfg).n_decision_states == 0


class TestSizeGuard:
    def test_oversized_table_refused_before_allocating(self, tmp_path):
        cfg = validate_config(100_000, 1, 2, 0.5)
        start = time.perf_counter()
        table = np.zeros((1, 1))  # never read: the refusal comes first
        for call in (solve_optimal, enumerate_policies_oracle, lambda c: certify(c, table),
                     lambda c: write_table_csv(tmp_path / "table.csv", c, table)):
            with pytest.raises(ConfigError, match="states, over the cap"):
                call(cfg)
        assert time.perf_counter() - start < 1.0
        assert not (tmp_path / "table.csv").exists()

    def test_paper_scale_file_is_admitted(self):
        assert (2500 + 1) ** 2 <= MAX_STATES
        # one batch: every unfinished count is in batch 0, so no state is a decision state
        assert not dp._batches(validate_config(2500, 2500, 2, 0.5))[:-1].any()


class TestLrPolicyTable:
    def test_entries(self, tmp_path):
        cfg = validate_config(6, 3, 2, 0.5)
        table = lr_policy_table(cfg)
        assert table[1, 4] == Action.SERVE_LEAST
        assert table[0, 0] == Action.NO_DECISION
        cfg12 = validate_config(12, 4, 2, 0.5)
        assert lr_policy_table(cfg12)[12, 3] == Action.NO_DECISION  # receiver 0 finished
        assert lr_policy_table(cfg12)[11, 3] == Action.SERVE_LEAST
        for c in (cfg, cfg12):  # serve-least is optimal and ties go to it, so the export writes this table
            assert (exported_policy(c, solve_optimal(c), tmp_path / "table.csv") == lr_policy_table(c)).all()


def report_fields(report):
    return [(c.name, c.examined, c.violations, repr(c.worst_margin)) for c in report.checks]


class TestCheckLrOptimality:
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.6, 0.9])
    def test_holds_across_p(self, p):
        cfg = validate_config(12, 4, 2, p)
        lr = family(certify(cfg, solve_optimal(cfg)), "lr_optimality")
        assert lr.violations == 0
        assert lr.examined == len(decision_states(cfg))

    def test_vacuous_without_decision_states(self):
        cfg = validate_config(4, 4, 2, 0.5)
        lr = family(certify(cfg, solve_optimal(cfg)), "lr_optimality")
        assert (lr.examined, lr.violations) == (0, 0)
        assert np.isnan(lr.worst_margin)

    def test_reports_the_state_whose_lagging_successor_got_worse(self):
        cfg = validate_config(6, 3, 2, 0.5)
        values = solve_optimal(cfg)
        values[2, 4] += 100.0  # lag successor of (1, 4), lead successor of (2, 3)
        report = certify(cfg, values)
        assert family(report, "lr_optimality").violations == 1
        assert not report.passed

    @pytest.mark.parametrize("p", [0.5, 1e-6, 1e-10])
    def test_sees_a_violation_of_fixed_on_slot_size_at_any_p(self, p):
        # At (0, 8) serving the receiver behind becomes worse by 0.05 ON slots.
        # The serve-most minus serve-least gap is p / (2 - p) times that, far
        # below TOLERANCE at small p, so the verdict must be read off lag and lead.
        cfg = validate_config(24, 8, 2, p)
        values = solve_optimal(cfg)
        values[1, 8] = values[0, 9] + 0.05 / p  # lag successor of (0, 8), its lead being (0, 9)
        report = certify(cfg, values)
        assert family(report, "lr_optimality").violations == 1
        assert not report.passed

    @pytest.mark.parametrize("worse,violations", [(None, 0), (0.05, 1), (dp.TOLERANCE / 2, 0)])
    @pytest.mark.parametrize("p", [0.5, 1e-6])
    def test_row_equals_the_state_by_state_reference(self, p, worse, violations):
        # examined, violations and the worst lead - lag margin, from the scalar
        # classification, on the solved table and on tables whose lag successor
        # of (0, 8) is `worse` ON slots above its lead: beyond and within the slack
        cfg = validate_config(24, 8, 2, p)
        values = solve_optimal(cfg)
        if worse is not None:
            values[1, 8] = values[0, 9] + worse / p
        u = (values * p).tolist()
        pairs = [lag_lead(u, s, cfg) for s in decision_states(cfg)]
        lr = family(certify(cfg, values), "lr_optimality")
        assert lr.examined == len(pairs)
        assert lr.violations == sum(not lag <= lead + dp.TOLERANCE for lag, lead in pairs) == violations
        assert lr.worst_margin == min(lead - lag for lag, lead in pairs)
        assert (lr.worst_margin < 0) == (worse is not None)

    @pytest.mark.parametrize("above", [0.0, 1.0, 2.0, np.nan])
    @pytest.mark.parametrize("p", [1.0, 0.3])
    def test_violations_are_the_states_the_export_serves_most(self, tmp_path, p, above):
        # The lag successors (1, 2) and (2, 1) of the decision states (0, 2) and
        # (2, 0) are set `above` TOLERANCEs (in ON slots) over V(0, 3), the
        # value of both their leads: on the tie rule's boundary at 1, past it
        # at 2.  certify fails LR exactly where the CSV export serves the
        # receiver ahead.
        cfg = validate_config(4, 2, 2, p)
        values = solve_optimal(cfg)
        values[1, 2] = values[2, 1] = values[0, 3] + above * dp.TOLERANCE / p
        actions = exported_policy(cfg, values, tmp_path / "table.csv")
        lr = family(certify(cfg, values), "lr_optimality")
        assert lr.violations == np.count_nonzero(actions == Action.SERVE_MOST)


class TestAudit:
    @pytest.mark.parametrize("F,K,p", [(12, 4, 0.5), (8, 2, 0.8)])
    def test_zero_violations(self, F, K, p):
        cfg = validate_config(F, K, 2, p)
        report = certify(cfg, solve_optimal(cfg))
        assert report.passed
        assert [c.name for c in report.checks] == [
            "lr_optimality", "edge_closed_form", "corner_sandwich", "monotone_in_x0", "monotone_in_x1",
            "balance_preference",
        ]
        for check in report.checks:
            assert check.violations == 0

    def test_edge_value_exact(self):
        cfg = validate_config(12, 4, 2, 0.5)
        report = certify(cfg, solve_optimal(cfg))
        edge = family(report, "edge_closed_form")
        assert edge.examined == 13
        assert edge.worst_margin == pytest.approx(0.0, abs=1e-9)

    def test_decision_checks_cover_all_decision_states(self):
        cfg = validate_config(12, 4, 2, 0.5)
        report = certify(cfg, solve_optimal(cfg))
        assert family(report, "lr_optimality").examined == len(decision_states(cfg))

    def test_vacuous_checks_report_nan_margin(self):
        cfg = validate_config(2, 2, 2, 0.5)
        report = certify(cfg, solve_optimal(cfg))
        lr = family(report, "lr_optimality")
        assert lr.examined == 0
        assert np.isnan(lr.worst_margin)

    @pytest.mark.parametrize("cell,failing", [
        ((10, 11), {"monotone_in_x0": 2, "monotone_in_x1": 2, "balance_preference": 1}),
        ((9, 10), {"monotone_in_x0": 2, "monotone_in_x1": 2, "balance_preference": 1}),
        ((3, 12), {"lr_optimality": 1, "edge_closed_form": 1, "monotone_in_x0": 2, "monotone_in_x1": 1,
                   "balance_preference": 1}),
    ])
    def test_a_nan_value_fails_every_family_that_reads_it(self, cell, failing):
        # nan < -TOLERANCE is False, so each margin that reads the nan must count as a violation
        # for not being >= -TOLERANCE; (10, 11) and (9, 10) are no decision state's successor
        cfg = validate_config(12, 4, 2, 0.5)
        values = solve_optimal(cfg)
        values[cell] = np.nan
        report = certify(cfg, values)
        assert not report.passed
        assert {c.name: c.violations for c in report.checks if c.violations} == failing
        assert all(np.isnan(c.worst_margin) == (c.name in failing) for c in report.checks)

    @pytest.mark.parametrize("cells", [1, 5, 40])
    @pytest.mark.parametrize("F,K,p,perturb", [(12, 4, 0.5, False), (24, 3, 0.3, False), (24, 3, 0.3, True)])
    def test_row_blocks_give_the_single_block_report(self, monkeypatch, F, K, p, perturb, cells):
        cfg = validate_config(F, K, 2, p)
        values = solve_optimal(cfg)
        if perturb:  # violations in rows that fall into different blocks
            for x0, x1, delta in ((1, 5, 40.0), (9, 13, -7.0), (17, 22, 3.0), (22, 23, -0.5)):
                values[x0, x1] += delta
        whole = certify(cfg, values)
        assert (F + 1) ** 2 <= dp._CERTIFY_CELLS  # the default takes this grid in one block
        monkeypatch.setattr(dp, "_CERTIFY_CELLS", cells)
        blocked = certify(cfg, values)
        assert report_fields(blocked) == report_fields(whole)
        assert whole.passed != perturb
        if perturb:
            violations = {c.name: c.violations for c in whole.checks if c.violations}
            assert violations == {"lr_optimality": 2, "monotone_in_x1": 1}

    def test_memory_stays_bounded_at_the_table_cap(self):
        # The solve holds its 67 MB value table and per-diagonal temporaries
        # while it sweeps, and divides by p in place; certify adds only row
        # blocks to the table it is given.
        cfg = validate_config(2895, 5, 2, 0.5)
        values, solve_peak = traced_peak(solve_optimal, cfg)
        report, certify_peak = traced_peak(certify, cfg, values)
        assert report.passed
        assert solve_peak < 80 * 2**20, f"solve_optimal peaked at {solve_peak / 2**20:.0f} MB"
        assert certify_peak < 16 * 2**20, f"certify peaked at {certify_peak / 2**20:.0f} MB"


class TestEnumerationOracle:
    def test_small_instance_certifies_lr(self):
        result = enumerate_policies_oracle(validate_config(4, 2, 2, 0.5))
        assert result.n_policies == 256
        assert result.n_decision_states == 8
        assert result.lr_matches_best
        assert result.best_value == pytest.approx(result.lr_value, abs=1e-9)
        assert result.best_value <= result.lr_value

    def test_two_packet_instance(self):
        result = enumerate_policies_oracle(validate_config(2, 1, 2, 0.5))
        assert result.n_policies == 4
        assert result.lr_matches_best

    def test_single_policy_when_window_is_file(self):
        result = enumerate_policies_oracle(validate_config(4, 4, 2, 0.5))
        assert result.n_policies == 1
        assert result.lr_matches_best

    def test_capacity_refusal_names_d_and_cap(self):
        message = rf"^9800 decision states give 2\*\*9800 policies, over the cap {ORACLE_MAX_CAP}$"
        with pytest.raises(ConfigError, match=message):
            enumerate_policies_oracle(validate_config(100, 2, 2, 0.5))

    def test_refuses_exactly_past_the_cap(self, monkeypatch):
        cfg = validate_config(4, 2, 2, 0.5)  # 8 decision states: 256 policies
        monkeypatch.setattr(dp, "ORACLE_MAX_CAP", 256)
        assert enumerate_policies_oracle(cfg).n_policies == 256
        monkeypatch.setattr(dp, "ORACLE_MAX_CAP", 255)
        with pytest.raises(ConfigError, match="^8 decision states give 2\\*\\*8 policies, over the cap 255$"):
            enumerate_policies_oracle(cfg)

    def test_optimal_table_dominates_every_policy(self):
        # The dense linear solve shares no code with the sweep that both the
        # solver and the oracle run: over its 256 tables, the solved table is
        # below every policy's, and its smallest V(0,0) and LR's V(0,0) are
        # the oracle's best and LR values.
        for p in (0.3, 0.5, 0.8):
            cfg = validate_config(4, 2, 2, p)
            v_opt = solve_optimal(cfg)
            per_policy = [linear_solve_policy(cfg, table) for table in all_policy_tables(cfg)]
            assert len(per_policy) == 256
            for values in per_policy:
                assert (v_opt <= values + 1e-9).all()
            result = enumerate_policies_oracle(cfg)
            assert abs(min(values[0, 0] for values in per_policy) - result.best_value) <= 1e-9
            assert abs(linear_solve_policy(cfg, lr_policy_table(cfg))[0, 0] - result.lr_value) <= 1e-9


def test_each_entry_point_classifies_the_grid_once(monkeypatch, tmp_path):
    calls = []
    batches = dp._batches
    monkeypatch.setattr(dp, "_batches", lambda config: calls.append(config) or batches(config))
    monkeypatch.setattr(dp, "_ORACLE_CHUNK", 16)
    monkeypatch.setattr(dp, "_CERTIFY_CELLS", 5)  # five row blocks
    cfg = validate_config(4, 2, 2, 0.5)
    values = solve_optimal(cfg)  # one check-lr cell: solve, then certify
    certify(cfg, values)
    assert len(calls) == 2
    write_table_csv(tmp_path / "table.csv", cfg, values)
    assert len(calls) == 3
    enumerate_policies_oracle(cfg)  # 256 policies in 16 chunks
    assert len(calls) == 4


def solve_golden_table(tmp_path) -> bytes:
    """The `solve --out` rows of every SOLVE_GOLDEN_GRID config, each row prefixed by F,K,p.

    tests/data/solve_golden.csv holds these bytes as the solver produced
    them when the file was made.
    """
    lines = [b"F,K,p,x0,x1,value,action\n"]
    for F, K, p in SOLVE_GOLDEN_GRID:
        out = tmp_path / f"solve-{F}-{K}-{p}.csv"
        cfg = validate_config(F, K, 2, p)
        write_table_csv(out, cfg, solve_optimal(cfg))
        prefix = f"{F},{K},{p!r},".encode()
        lines += [prefix + row for row in out.read_bytes().splitlines(keepends=True)[1:]]
    return b"".join(lines)


def test_solve_tables_match_golden(tmp_path):
    assert solve_golden_table(tmp_path) == SOLVE_GOLDEN_CSV.read_bytes()


def per_cell_table_csv(cfg, values) -> str:
    """The CSV export formatted one cell at a time, actions by the scalar rule: write_table_csv's reference."""
    actions = lag_lead_actions(values * cfg.p, cfg, dp.TOLERANCE)
    lines = ["x0,x1,value,action\n"]
    for x0, (row, acts) in enumerate(zip(values.tolist(), actions.tolist())):
        lines += [f"{x0},{x1},{v!r},{a}\n" for x1, (v, a) in enumerate(zip(row, acts))]
    return "".join(lines)


def solved(F, K, p):
    """(config, its solved table)."""
    cfg = validate_config(F, K, 2, p)
    return cfg, solve_optimal(cfg)


def asymmetric_table():
    """A 7x7 table whose 3-row blocks exercise both writer paths, with its config.

    The first block's square holds a 0.0 / -0.0 pair, equal as floats but
    not bit for bit, so it must not be mirrored; the second block's square
    is symmetric and holds a nan pair and an inf.  The strips are
    asymmetric, and so are the actions read off them.
    """
    rng = np.random.default_rng(7)
    r = rng.random((7, 7))
    values = r + r.T  # addition commutes, so this is symmetric bit for bit
    values[0, 1], values[1, 0] = 0.0, -0.0
    values[3, 5] = values[5, 3] = np.nan
    values[4, 4], values[6, 0] = np.inf, -np.inf
    return validate_config(6, 2, 2, 0.5), values


@pytest.mark.parametrize("table,cells", [
    (lambda: solved(24, 4, 0.3), 1),
    (lambda: solved(24, 4, 0.3), 5 * 25),  # blocks of 5 of the 25 rows
    (lambda: solved(24, 4, 0.3), 8 * 25 + 3),
    (asymmetric_table, 3 * 7),
    (asymmetric_table, None),  # the default budget: one asymmetric block
    (lambda: (SystemConfig(F=0, K=1, N=2, p=0.5), np.array([[0.0]])), None),
], ids=["solve-1-row", "solve-5-rows", "solve-8-rows", "asymmetric-3-rows", "asymmetric-one-block", "1x1"])
def test_csv_export_matches_the_per_cell_reference(monkeypatch, tmp_path, table, cells):
    cfg, values = table()
    if cells is not None:
        monkeypatch.setattr(dp, "_CERTIFY_CELLS", cells)
    out = tmp_path / "table.csv"
    write_table_csv(out, cfg, values)
    assert out.read_text() == per_cell_table_csv(cfg, values)


def test_csv_export_memory_is_bounded_by_the_block_budget(tmp_path):
    # F=511 fills one default block, whose square is the whole table: the
    # writer holds at most about a quarter of the square's reprs at once (5 MB,
    # about 19 bytes per block cell), one row of text and the block's int8
    # actions; the floats the actions are read from are freed first.
    cfg, values = solved(511, 7, 0.5)
    assert values.size == dp._CERTIFY_CELLS
    _, peak = traced_peak(write_table_csv, tmp_path / "table.csv", cfg, values)
    assert peak < 32 * dp._CERTIFY_CELLS, f"write_table_csv peaked at {peak / 2**20:.1f} MB"


def test_csv_export_golden(tmp_path):
    cfg, values = solved(1, 1, 0.5)
    out = tmp_path / "table.csv"
    write_table_csv(out, cfg, values)
    assert out.read_text() == (
        "x0,x1,value,action\n"
        "0,0,2.6666666666666665,0\n"
        "0,1,2.0,0\n"
        "1,0,2.0,0\n"
        "1,1,0.0,0\n"
    )
