import pytest
from hypothesis import given, strategies as st

from ncbroadcast.dp import Action
from ncbroadcast.model import validate_config
from reference import StateKind, classify, legal_actions, reward, transitions


def small_configs():
    return st.builds(
        lambda K, nb, p: validate_config(K * nb, K, 2, p),
        st.integers(1, 4),
        st.integers(1, 4),
        st.floats(0.05, 1.0, allow_nan=False),
    )


def states_for(cfg, data):
    x0 = data.draw(st.integers(0, cfg.F), label="x0")
    x1 = data.draw(st.integers(0, cfg.F), label="x1")
    return (x0, x1)


class TestClassify:
    def test_equal_batches(self):
        cfg = validate_config(12, 4, 2, 0.5)
        assert classify((0, 0), cfg) is StateKind.SAME_BATCH

    def test_receiver_0_behind(self):
        cfg = validate_config(6, 3, 2, 0.5)
        assert classify((1, 4), cfg) is StateKind.RECEIVER_0_BEHIND
        assert classify((4, 1), cfg) is StateKind.RECEIVER_1_BEHIND

    def test_one_side_finished_and_terminal(self):
        cfg = validate_config(12, 4, 2, 0.5)
        assert classify((3, 12), cfg) is StateKind.ONLY_0_UNFINISHED
        assert classify((12, 3), cfg) is StateKind.ONLY_1_UNFINISHED
        assert classify((12, 12), cfg) is StateKind.COMPLETE

    @given(data=st.data())
    def test_total_function(self, data):
        cfg = data.draw(small_configs())
        s = states_for(cfg, data)
        assert classify(s, cfg) in StateKind


class TestLegalActions:
    def test_forced_states(self):
        cfg = validate_config(12, 4, 2, 0.5)
        assert legal_actions((0, 0), cfg) == {Action.NO_DECISION}
        assert legal_actions((3, 12), cfg) == {Action.NO_DECISION}
        assert legal_actions((12, 12), cfg) == {Action.NO_DECISION}

    def test_decision_states(self):
        cfg = validate_config(6, 3, 2, 0.5)
        assert legal_actions((1, 4), cfg) == {Action.SERVE_LEAST, Action.SERVE_MOST}


def test_reward():
    cfg = validate_config(12, 4, 2, 0.5)
    assert reward((12, 12), cfg) == 0.0
    assert reward((0, 0), cfg) == 1.0
    assert reward((11, 12), cfg) == 1.0


class TestTransitions:
    def test_decision_state_serve_least(self):
        cfg = validate_config(6, 3, 2, 0.6)
        dist = dict(transitions((1, 4), Action.SERVE_LEAST, cfg))
        assert dist == pytest.approx({(2, 4): 0.6, (1, 5): 0.24, (1, 4): 0.16})

    def test_decision_state_serve_most(self):
        cfg = validate_config(6, 3, 2, 0.6)
        dist = dict(transitions((1, 4), Action.SERVE_MOST, cfg))
        assert dist == pytest.approx({(1, 5): 0.6, (2, 4): 0.24, (1, 4): 0.16})

    def test_one_receiver_finished(self):
        cfg = validate_config(12, 4, 2, 0.6)
        dist = dict(transitions((3, 12), Action.NO_DECISION, cfg))
        assert dist == pytest.approx({(4, 12): 0.6, (3, 12): 0.4})

    def test_perfect_channel_collapses(self):
        cfg = validate_config(12, 4, 2, 1.0)
        assert transitions((0, 0), Action.NO_DECISION, cfg) == [((1, 1), 1.0)]

    def test_terminal_has_no_distribution(self):
        cfg = validate_config(12, 4, 2, 0.5)
        with pytest.raises(ValueError):
            transitions((12, 12), Action.NO_DECISION, cfg)

    def test_illegal_actions_rejected(self):
        cfg = validate_config(6, 3, 2, 0.5)
        with pytest.raises(ValueError):
            transitions((0, 0), Action.SERVE_LEAST, cfg)
        with pytest.raises(ValueError):
            transitions((1, 4), Action.NO_DECISION, cfg)

    @given(data=st.data())
    def test_probability_mass_and_progress(self, data):
        cfg = data.draw(small_configs())
        s = states_for(cfg, data)
        if classify(s, cfg) is StateKind.COMPLETE:
            return
        for action in legal_actions(s, cfg):
            dist = transitions(s, action, cfg)
            assert len(dist) <= 4
            assert abs(sum(pr for _, pr in dist) - 1.0) < 1e-12
            for (x0n, x1n), pr in dist:
                assert 0.0 < pr <= 1.0
                assert x0n >= s[0] and x1n >= s[1]
                gain = (x0n - s[0]) + (x1n - s[1])
                if gain == 2:
                    assert classify(s, cfg) is StateKind.SAME_BATCH
                else:
                    assert gain in (0, 1)

    @given(data=st.data())
    def test_reflection_symmetry(self, data):
        cfg = data.draw(small_configs())
        s = states_for(cfg, data)
        if not classify(s, cfg).is_decision:
            return
        mirrored = (s[1], s[0])
        for action in (Action.SERVE_LEAST, Action.SERVE_MOST):
            direct = {state: pr for state, pr in transitions(s, action, cfg)}
            swapped = {
                (x1, x0): pr for (x0, x1), pr in transitions(mirrored, action, cfg)
            }
            assert direct == pytest.approx(swapped)

    @given(data=st.data())
    def test_self_loop_probability_by_kind(self, data):
        cfg = data.draw(small_configs())
        s = states_for(cfg, data)
        kind = classify(s, cfg)
        if kind is StateKind.COMPLETE:
            return
        action = next(iter(legal_actions(s, cfg)))
        dist = dict(transitions(s, action, cfg))
        stay = dist.get(s, 0.0)
        if kind in (StateKind.ONLY_0_UNFINISHED, StateKind.ONLY_1_UNFINISHED):
            assert stay == pytest.approx(cfg.q)
        else:
            assert stay == pytest.approx(cfg.q * cfg.q)
