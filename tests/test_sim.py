import itertools
from pathlib import Path

import numpy as np
import pytest

from ncbroadcast.dp import solve_optimal
from ncbroadcast.model import ConfigError, validate_config
from ncbroadcast.policies import POLICY_NAMES
from ncbroadcast.sim import (
    MAX_RECEIVERS,
    RngSpec,
    completion_times,
    run_experiment,
    run_trial,
    stats_from_times,
    sweep_coding_window,
)

GOLDEN_CSV = Path(__file__).parent / "data" / "sim_golden.csv"


class TestSingleReceiver:
    def test_perfect_channel_is_exact(self):
        cfg = validate_config(100, 10, 1, 1.0)
        times = completion_times(cfg, "lr", 50, RngSpec(7))
        assert (times == 100).all()

    def test_mean_matches_geometric_sum(self):
        # each packet needs a geometric number of slots, so the mean is F/p
        cfg = validate_config(100, 10, 1, 0.5)
        stats = run_experiment(cfg, "lr", 3000, RngSpec(11))
        assert abs(stats.mean - 200.0) <= stats.ci95_half_width


class TestDeterminism:
    def test_identical_spec_reproduces_trials(self):
        cfg = validate_config(12, 4, 2, 0.5)
        for policy in ("lr", "rrnc", "rs"):
            a = completion_times(cfg, policy, 40, RngSpec(3))
            b = completion_times(cfg, policy, 40, RngSpec(3))
            assert (a == b).all()

    def test_stats_are_bit_identical(self):
        cfg = validate_config(12, 4, 2, 0.5)
        assert run_experiment(cfg, "rs", 50, RngSpec(5)) == run_experiment(cfg, "rs", 50, RngSpec(5))

    def test_trials_independent_of_order(self):
        cfg = validate_config(12, 4, 2, 0.5)
        direct = run_trial(cfg, "lr", RngSpec(9), 17).completion_slots
        assert direct == completion_times(cfg, "lr", 18, RngSpec(9))[17]


class TestWholeFileWindow:
    def test_policies_produce_identical_trials(self):
        cfg = validate_config(24, 24, 4, 0.5)
        per_policy = {p: completion_times(cfg, p, 100, RngSpec(5)) for p in ("lr", "rrnc", "rs")}
        assert (per_policy["lr"] == per_policy["rrnc"]).all()
        assert (per_policy["lr"] == per_policy["rs"]).all()

    def test_no_conflict_slots(self):
        cfg = validate_config(24, 24, 4, 0.5)
        assert all(run_trial(cfg, "lr", RngSpec(5), i).conflict_slots == 0 for i in range(20))


class TestAgainstExactValues:
    def test_lr_mean_within_ci_of_value_table(self):
        cfg = validate_config(12, 4, 2, 0.5)
        v00 = solve_optimal(cfg)[0][0, 0]
        stats = run_experiment(cfg, "lr", 4000, RngSpec(42))
        assert abs(stats.mean - v00) <= stats.ci95_half_width

    def test_smaller_window_conflicts_exist(self):
        cfg = validate_config(12, 2, 2, 0.5)
        conflicts = [run_trial(cfg, "lr", RngSpec(1), i).conflict_slots for i in range(50)]
        assert sum(conflicts) > 0


class TestPolicyEquivalenceOffConflicts:
    def test_conflict_free_trials_agree_across_policies(self):
        # shared connectivity substream: a trial that never hits a conflict
        # slot cannot depend on the policy at all
        cfg = validate_config(4, 2, 2, 0.9)
        lr = [run_trial(cfg, "lr", RngSpec(21), i) for i in range(200)]
        conflict_free = [i for i, t in enumerate(lr) if t.conflict_slots == 0]
        assert conflict_free  # p=0.9 keeps both receivers in lockstep often
        for policy in ("rrnc", "rs"):
            for i in conflict_free:
                other = run_trial(cfg, policy, RngSpec(21), i)
                assert other.completion_slots == lr[i].completion_slots
                assert other.conflict_slots == 0

    def test_lr_mean_non_increasing_in_window_within_ci(self):
        stats = {
            K: run_experiment(validate_config(40, K, 3, 0.6), "lr", 300, RngSpec(4))
            for K in (5, 10, 40)
        }
        for small, large in ((5, 10), (10, 40)):
            assert (
                stats[small].mean + stats[small].ci95_half_width
                >= stats[large].mean - stats[large].ci95_half_width
            )


class TestCodecMode:
    def test_dominates_idealized_per_trial(self):
        # same connectivity substream in both modes; dependent packets can only delay
        cfg = validate_config(24, 4, 2, 0.7)
        ideal = completion_times(cfg, "lr", 150, RngSpec(9), mode="ideal")
        codec = completion_times(cfg, "lr", 150, RngSpec(9), mode="codec")
        assert (codec >= ideal).all()

    def test_single_receiver_codec_roundtrip(self):
        cfg = validate_config(12, 4, 1, 0.8)
        times = completion_times(cfg, "lr", 30, RngSpec(2), mode="codec", packet_len=8)
        assert (times >= 12).all()

    def test_unknown_mode_rejected(self):
        cfg = validate_config(12, 4, 2, 0.5)
        with pytest.raises(ValueError):
            run_trial(cfg, "lr", RngSpec(0), 0, mode="fast")


class TestStats:
    def test_half_width_formula(self):
        stats = stats_from_times(np.array([1, 2, 3, 4]))
        sd = np.std([1, 2, 3, 4], ddof=1)
        assert stats.mean == 2.5
        assert stats.stddev == pytest.approx(sd)
        assert stats.ci95_half_width == pytest.approx(1.96 * sd / 2.0)

    def test_needs_two_trials(self):
        with pytest.raises(ValueError):
            stats_from_times(np.array([3]))

    def test_completion_never_beats_file_size(self):
        cfg = validate_config(12, 4, 3, 0.5)
        for policy in ("lr", "rrnc", "rs"):
            assert (completion_times(cfg, policy, 30, RngSpec(8)) >= 12).all()


class TestReceiverCap:
    def test_cap_is_accepted(self):
        cfg = validate_config(2, 1, MAX_RECEIVERS, 1.0)
        assert run_trial(cfg, "rrnc", RngSpec(0), 0, mode="codec").completion_slots == 2

    def test_above_cap_refused(self):
        with pytest.raises(ConfigError, match="receivers"):
            run_trial(validate_config(2, 1, MAX_RECEIVERS + 1, 1.0), "lr", RngSpec(0), 0)


class TestSweep:
    def test_rows_are_policy_major(self):
        cells = sweep_coding_window(8, 2, 0.6, ["lr", "rs"], [4, 8], 20, RngSpec(1))
        assert [(c.policy, c.config.K) for c in cells] == [
            ("lr", 4), ("lr", 8), ("rs", 4), ("rs", 8),
        ]

    def test_rejects_window_not_dividing_file(self):
        with pytest.raises(ConfigError):
            sweep_coding_window(8, 2, 0.6, ["lr"], [3], 20, RngSpec(1))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            run_trial(validate_config(8, 4, 2, 0.5), "fifo", RngSpec(0), 0)


def golden_table() -> str:
    """Both counts of every trial on the pinned grid, as CSV text.

    tests/data/sim_golden.csv holds this text as the engine produced it
    when the file was made; regenerate it only with a declared stream change.
    """
    lines = ["policy,mode,N,F,K,p,seed,trial,completion_slots,conflict_slots"]
    modes = ("ideal", "codec")
    grid = itertools.chain(
        itertools.product(POLICY_NAMES, modes, (1, 2, 5, 63, 64, 65), (8,), (1, 2, 8), (0.2, 0.6, 1.0), (0, 7), (0, 1)),
        # long enough to use more than one block of flags and of rs uniforms
        itertools.product(POLICY_NAMES, modes, (5,), (600,), (1, 5), (0.2,), (0,), (0,)),
        itertools.product(POLICY_NAMES, ("ideal",), (65,), (600,), (1, 5), (0.2,), (0,), (0,)),
    )
    for policy, mode, N, F, K, p, seed, trial in grid:
        result = run_trial(validate_config(F, K, N, p), policy, RngSpec(seed), trial, mode=mode)
        lines.append(
            f"{policy},{mode},{N},{F},{K},{p!r},{seed},{trial},{result.completion_slots},{result.conflict_slots}"
        )
    return "\n".join(lines) + "\n"


def test_engine_matches_golden_table():
    # N = 63, 64 and 65 straddle the width of one machine word
    assert golden_table().encode() == GOLDEN_CSV.read_bytes()
