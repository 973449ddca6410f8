"""Solver tests, anchored by two independent oracles.

The linear-algebra oracle evaluates a fixed policy by assembling the
full balance system V = R + P V over all (F+1)^2 states and handing it
to numpy.linalg.solve; it never touches the backward sweep.  Optimal
tables are cross-checked as the entrywise minimum over every
deterministic policy of small instances (the optimal stationary policy
dominates everywhere, so the minimum is attained by it at all states).
"""

import itertools
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncbroadcast.dp import (
    MAX_STATES,
    OracleCapacityError,
    _sweep,
    audit_inequalities,
    check_lr_optimality,
    decision_action_values,
    decision_states,
    enumerate_policies_oracle,
    evaluate_policy,
    lr_policy_table,
    solve_optimal,
    write_table_csv,
)
from ncbroadcast.mdp import Action, classify, reward, transitions
from ncbroadcast.model import ConfigError, validate_config

SOLVE_GOLDEN_CSV = Path(__file__).parent / "data" / "solve_golden.csv"
SOLVE_GOLDEN_GRID = ((12, 4, 0.5), (12, 1, 0.1), (12, 12, 0.9), (24, 3, 1.0), (24, 8, 0.3))


def linear_solve_policy(cfg, policy):
    """Evaluate a fixed policy with a dense generic linear solver."""
    side = cfg.F + 1
    states = [(x0, x1) for x0 in range(side) for x1 in range(side)]
    index = {s: i for i, s in enumerate(states)}
    A = np.zeros((len(states), len(states)))
    b = np.zeros(len(states))
    for i, s in enumerate(states):
        A[i, i] = 1.0
        if s == (cfg.F, cfg.F):
            continue
        b[i] = reward(s, cfg)
        for nxt, pr in transitions(s, Action(int(policy[s])), cfg):
            A[i, index[nxt]] -= pr
    return np.linalg.solve(A, b).reshape(side, side)


def all_policy_tables(cfg):
    base = lr_policy_table(cfg)
    ds = decision_states(cfg)
    for bits in itertools.product((Action.SERVE_LEAST, Action.SERVE_MOST), repeat=len(ds)):
        table = base.copy()
        for s, a in zip(ds, bits):
            table[s] = a
        yield table


class TestSolveOptimal:
    def test_single_packet_file(self):
        cfg = validate_config(1, 1, 2, 0.5)
        values, _ = solve_optimal(cfg)
        assert values[0, 1] == pytest.approx(2.0, abs=1e-12)
        assert values[1, 1] == 0.0
        assert values[0, 0] == pytest.approx(8 / 3, abs=1e-12)

    def test_last_column_closed_form(self):
        cfg = validate_config(12, 4, 2, 0.5)
        values, _ = solve_optimal(cfg)
        for x0 in range(13):
            assert values[x0, 12] == pytest.approx(2 * (12 - x0), abs=1e-12)

    def test_three_by_three_against_linear_solver(self):
        cfg = validate_config(2, 1, 2, 0.5)
        values, _ = solve_optimal(cfg)
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

    @pytest.mark.parametrize("tie_tolerance", [1e-9, 0.0, 1.0, -1.0])
    @pytest.mark.parametrize("F,K,p", [(12, 4, 0.5), (12, 1, 1.0), (24, 3, 0.1), (8, 8, 0.7)])
    def test_actions_follow_the_lookahead_into_the_final_table(self, F, K, p, tie_tolerance):
        # The sweep picks each action as it goes; the rule applied afterwards
        # to the finished table must give the same policy.
        cfg = validate_config(F, K, 2, p)
        values, actions = solve_optimal(cfg, tie_tolerance)
        v_least, v_most = decision_action_values(values, cfg)
        choice = np.where(v_least <= v_most + tie_tolerance, Action.SERVE_LEAST, Action.SERVE_MOST)
        expected = np.where(np.isnan(v_least), Action.NO_DECISION, choice)
        assert actions.dtype == np.int8
        np.testing.assert_array_equal(actions, expected)

    def test_rejects_wrong_receiver_count(self):
        with pytest.raises(ValueError):
            solve_optimal(validate_config(4, 2, 3, 0.5))

    @given(
        K=st.integers(1, 3),
        nb=st.integers(1, 3),
        p=st.floats(0.1, 1.0, allow_nan=False),
    )
    @settings(deadline=None, max_examples=40)
    def test_balance_residuals_symmetry_and_lr_agreement(self, K, nb, p):
        cfg = validate_config(K * nb, K, 2, p)
        values, actions = solve_optimal(cfg)
        assert np.abs(values - values.T).max() < 1e-9
        assert np.abs(evaluate_policy(cfg, lr_policy_table(cfg)) - values).max() < 1e-9
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
    def test_no_decisions_means_optimal(self):
        cfg = validate_config(4, 4, 2, 0.5)
        table = np.zeros((5, 5), dtype=np.int8)
        np.testing.assert_allclose(
            evaluate_policy(cfg, table), solve_optimal(cfg)[0], atol=1e-12
        )

    def test_lr_attains_the_optimum(self):
        cfg = validate_config(4, 2, 2, 0.5)
        v_lr = evaluate_policy(cfg, lr_policy_table(cfg))
        v_opt, _ = solve_optimal(cfg)
        assert v_lr[0, 0] == pytest.approx(v_opt[0, 0], abs=1e-9)

    def test_serve_most_everywhere_is_strictly_worse(self):
        cfg = validate_config(4, 2, 2, 0.5)
        table = lr_policy_table(cfg)
        for s in decision_states(cfg):
            table[s] = Action.SERVE_MOST
        v_most = evaluate_policy(cfg, table)
        v_opt, _ = solve_optimal(cfg)
        assert v_most[0, 0] > v_opt[0, 0] + 1e-6

    def test_matches_linear_solver_on_fixed_policy(self):
        cfg = validate_config(4, 2, 2, 0.7)
        table = lr_policy_table(cfg)
        np.testing.assert_allclose(
            evaluate_policy(cfg, table), linear_solve_policy(cfg, table), atol=1e-9
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
        batched = _sweep(cfg, stack)
        assert batched.shape == (7, F + 1, F + 1)
        for table, values in zip(stack, batched):
            assert values.tobytes() == evaluate_policy(cfg, table).tobytes()

    def test_rejects_illegal_entries(self):
        cfg = validate_config(4, 2, 2, 0.5)
        table = lr_policy_table(cfg)
        table[0, 0] = Action.SERVE_LEAST  # not a decision state
        with pytest.raises(ValueError):
            evaluate_policy(cfg, table)


class TestDecisionStates:
    @pytest.mark.parametrize(
        "F,K,p", [(1, 1, 0.5), (2, 1, 0.3), (4, 4, 0.5), (6, 3, 0.5), (12, 4, 0.9), (12, 1, 1.0), (15, 5, 0.2)]
    )
    def test_match_scalar_classification(self, F, K, p):
        cfg = validate_config(F, K, 2, p)
        reference = [
            (x0, x1) for x0 in range(F + 1) for x1 in range(F + 1) if classify((x0, x1), cfg).is_decision
        ]
        assert decision_states(cfg) == reference


class TestSizeGuard:
    def test_oversized_table_refused_before_allocating(self):
        cfg = validate_config(100_000, 1, 2, 0.5)
        start = time.perf_counter()
        for call in (solve_optimal, decision_states, enumerate_policies_oracle):
            with pytest.raises(ConfigError, match="states, over the cap"):
                call(cfg)
        assert time.perf_counter() - start < 1.0

    def test_paper_scale_file_is_admitted(self):
        assert (2500 + 1) ** 2 <= MAX_STATES
        assert decision_states(validate_config(2500, 2500, 2, 0.5)) == []


class TestLrPolicyTable:
    def test_entries(self):
        cfg = validate_config(6, 3, 2, 0.5)
        table = lr_policy_table(cfg)
        assert table[1, 4] == Action.SERVE_LEAST
        assert table[0, 0] == Action.NO_DECISION
        cfg12 = validate_config(12, 4, 2, 0.5)
        assert lr_policy_table(cfg12)[12, 3] == Action.NO_DECISION  # receiver 0 finished
        assert lr_policy_table(cfg12)[11, 3] == Action.SERVE_LEAST


class TestCheckLrOptimality:
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.6, 0.9])
    def test_holds_across_p(self, p):
        cfg = validate_config(12, 4, 2, p)
        ok, violations = check_lr_optimality(cfg, solve_optimal(cfg)[0])
        assert ok and violations == []

    def test_vacuous_without_decision_states(self):
        cfg = validate_config(4, 4, 2, 0.5)
        ok, violations = check_lr_optimality(cfg, solve_optimal(cfg)[0])
        assert ok and violations == []

    def test_reports_the_state_whose_lagging_successor_got_worse(self):
        cfg = validate_config(6, 3, 2, 0.5)
        values = solve_optimal(cfg)[0]
        values[2, 4] += 100.0  # lag successor of (1, 4), lead successor of (2, 3)
        assert check_lr_optimality(cfg, values) == (False, [(1, 4)])


class TestAudit:
    @pytest.mark.parametrize("F,K,p", [(12, 4, 0.5), (8, 2, 0.8)])
    def test_zero_violations(self, F, K, p):
        cfg = validate_config(F, K, 2, p)
        report = audit_inequalities(cfg, solve_optimal(cfg)[0])
        assert report.passed
        for check in report.checks:
            assert check.violations == 0

    def test_edge_value_exact(self):
        cfg = validate_config(12, 4, 2, 0.5)
        report = audit_inequalities(cfg, solve_optimal(cfg)[0])
        edge = report.by_name("edge_closed_form")
        assert edge.examined == 13
        assert edge.worst_margin == pytest.approx(0.0, abs=1e-9)

    def test_decision_checks_cover_all_decision_states(self):
        cfg = validate_config(12, 4, 2, 0.5)
        report = audit_inequalities(cfg, solve_optimal(cfg)[0])
        assert report.by_name("decision_sign_equivalence").examined == len(decision_states(cfg))

    def test_vacuous_checks_report_nan_margin(self):
        cfg = validate_config(2, 2, 2, 0.5)
        report = audit_inequalities(cfg, solve_optimal(cfg)[0])
        signs = report.by_name("decision_sign_equivalence")
        assert signs.examined == 0
        assert np.isnan(signs.worst_margin)


class TestEnumerationOracle:
    def test_small_instance_certifies_lr(self):
        result = enumerate_policies_oracle(validate_config(4, 2, 2, 0.5))
        assert result.n_policies == 256
        assert len(result.decision_states) == 8
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
        with pytest.raises(OracleCapacityError, match=r"decision states.*cap 1048576"):
            enumerate_policies_oracle(validate_config(100, 2, 2, 0.5))

    def test_optimal_table_dominates_every_policy(self):
        cfg = validate_config(4, 2, 2, 0.5)
        v_opt, _ = solve_optimal(cfg)
        for table in all_policy_tables(cfg):
            assert (v_opt <= evaluate_policy(cfg, table) + 1e-9).all()


def solve_golden_table(tmp_path) -> bytes:
    """The `solve --out` rows of every SOLVE_GOLDEN_GRID config, each row prefixed by F,K,p.

    tests/data/solve_golden.csv holds these bytes as the solver produced
    them when the file was made.
    """
    lines = [b"F,K,p,x0,x1,value,action\n"]
    for F, K, p in SOLVE_GOLDEN_GRID:
        out = tmp_path / f"solve-{F}-{K}-{p}.csv"
        write_table_csv(out, *solve_optimal(validate_config(F, K, 2, p)))
        prefix = f"{F},{K},{p!r},".encode()
        lines += [prefix + row for row in out.read_bytes().splitlines(keepends=True)[1:]]
    return b"".join(lines)


def test_solve_tables_match_golden(tmp_path):
    assert solve_golden_table(tmp_path) == SOLVE_GOLDEN_CSV.read_bytes()


def test_csv_export_golden(tmp_path):
    cfg = validate_config(1, 1, 2, 0.5)
    values, actions = solve_optimal(cfg)
    out = tmp_path / "table.csv"
    write_table_csv(out, values, actions)
    assert out.read_text() == (
        "x0,x1,value,action\n"
        "0,0,2.6666666666666665,0\n"
        "0,1,2.0,0\n"
        "1,0,2.0,0\n"
        "1,1,0.0,0\n"
    )
