import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest

from ncbroadcast import rlnc, sim
from ncbroadcast.dp import solve_optimal
from ncbroadcast.model import ConfigError, validate_config
from ncbroadcast.rlnc import RankTracker
from ncbroadcast.sim import (
    MAX_RECEIVERS,
    POLICY_NAMES,
    RngSpec,
    TrialResult,
    check_run,
    run_trial,
    sweep_coding_window,
)
from reference import Eliminator, hits_rule, per_row_coefficients

GOLDEN_CSV = Path(__file__).parent / "data" / "sim_golden.csv"
CODEC_GOLDEN_CSV = Path(__file__).parent / "data" / "sim_codec_golden.csv"


def trial_times(cfg, policy, n_trials, rng_spec, codec=False):
    """Completion slots of trial indices 0..n_trials-1."""
    return np.array([run_trial(cfg, policy, rng_spec, i, codec).completion_slots for i in range(n_trials)])


def one_cell(cfg, policy, n_trials, rng_spec):
    """The statistics of one policy at one config, as a one-cell sweep."""
    return sweep_coding_window([policy], [cfg], n_trials, rng_spec)[0]


def no_draws(self, trial_index, role):
    """Stands in for RngSpec.substream where a run must be refused before any draw."""
    raise AssertionError("drew from a substream")


class TestSingleReceiver:
    def test_perfect_channel_is_exact(self):
        cfg = validate_config(100, 10, 1, 1.0)
        times = trial_times(cfg, "lr", 50, RngSpec(7))
        assert (times == 100).all()

    def test_mean_matches_geometric_sum(self):
        # each packet needs a geometric number of slots, so the mean is F/p
        cfg = validate_config(100, 10, 1, 0.5)
        stats = one_cell(cfg, "lr", 3000, RngSpec(11))
        assert abs(stats.mean - 200.0) <= stats.ci95_half_width


class TestDeterminism:
    def test_identical_spec_reproduces_trials(self):
        cfg = validate_config(12, 4, 2, 0.5)
        for policy in ("lr", "rrnc", "rs"):
            a = trial_times(cfg, policy, 40, RngSpec(3))
            b = trial_times(cfg, policy, 40, RngSpec(3))
            assert (a == b).all()

    def test_stats_are_bit_identical(self):
        cfg = validate_config(12, 4, 2, 0.5)
        assert one_cell(cfg, "rs", 50, RngSpec(5)) == one_cell(cfg, "rs", 50, RngSpec(5))

    def test_trials_independent_of_order(self):
        cfg = validate_config(12, 4, 2, 0.5)
        direct = run_trial(cfg, "lr", RngSpec(9), 17).completion_slots
        assert direct == trial_times(cfg, "lr", 18, RngSpec(9))[17]


class TestWholeFileWindow:
    def test_policies_produce_identical_trials(self):
        cfg = validate_config(24, 24, 4, 0.5)
        per_policy = {p: trial_times(cfg, p, 100, RngSpec(5)) for p in ("lr", "rrnc", "rs")}
        assert (per_policy["lr"] == per_policy["rrnc"]).all()
        assert (per_policy["lr"] == per_policy["rs"]).all()

    def test_no_conflict_slots(self):
        cfg = validate_config(24, 24, 4, 0.5)
        assert all(run_trial(cfg, "lr", RngSpec(5), i).conflict_slots == 0 for i in range(20))


class TestAgainstExactValues:
    def test_lr_mean_within_ci_of_value_table(self):
        cfg = validate_config(12, 4, 2, 0.5)
        v00 = solve_optimal(cfg)[0, 0]
        stats = one_cell(cfg, "lr", 4000, RngSpec(42))
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
            K: one_cell(validate_config(40, K, 3, 0.6), "lr", 300, RngSpec(4))
            for K in (5, 10, 40)
        }
        for small, large in ((5, 10), (10, 40)):
            assert (
                stats[small].mean + stats[small].ci95_half_width
                >= stats[large].mean - stats[large].ci95_half_width
            )


def stepped_trial(config, policy, rng_spec, trial_index, rows=None):
    """Reference for run_trial that steps every slot, stretches included, and
    completes a receiver's batch when received % K == 0.

    It draws the ON flags itself, a block of slots at a time, from the
    connectivity substream, takes the policy's uniforms from sim._uniforms
    and settles a conflict slot with the reference kernels over its hits list.
    Given rows (see codec_rows), it is a codec trial: each sent packet takes
    the next row, and a receiver counts it as received only when it raises
    the rank of the receiver's Eliminator for the batch.
    """
    F, K, N, p = config.F, config.K, config.N, config.p
    pick = hits_rule(policy, sim._uniforms(rng_spec, trial_index))
    connectivity = rng_spec.substream(trial_index, sim.ROLE_CONNECTIVITY)

    def on_sets():
        while True:
            packed = np.packbits(connectivity.random((sim._FLAG_BLOCK, N)) < p, axis=1, bitorder="little")
            yield from (int.from_bytes(row.tobytes(), "little") for row in packed)

    received = [0] * N
    decoders = [Eliminator(K) for _ in range(N)]
    members = {0: (1 << N) - 1}
    occupied = [0]
    slot = conflicts = 0
    for on in on_sets():
        hits = [(batch, bits) for batch in occupied if (bits := members[batch] & on)]
        if hits:
            batch, served = hits[0]
            if len(hits) > 1:
                conflicts += 1
                batch = pick(hits)
                served = members[batch] & on
            row = None if rows is None else next(rows)
            done = 0
            while served:
                low = served & -served
                served ^= low
                rid = low.bit_length() - 1
                if row is not None and not decoders[rid].ingest(row):
                    continue
                received[rid] += 1
                if received[rid] % K == 0:
                    done |= low
                    decoders[rid] = Eliminator(K)
            if done:
                members[batch] ^= done
                if not members[batch]:
                    del members[batch]
                if batch + 1 < F // K:
                    members[batch + 1] = members.get(batch + 1, 0) | done
                occupied = sorted(members)
        slot += 1
        if slot >= sim.MAX_SLOTS:
            raise RuntimeError(f"no completion after {sim.MAX_SLOTS} slots; config {config}")
        if not occupied:
            return TrialResult(completion_slots=slot, conflict_slots=conflicts)


def codec_rows(config, rng_spec, trial_index):
    """A trial's coefficient rows drawn one at a time: the coding substream
    with its first 2F outputs skipped, then one per_row_coefficients row each."""
    coding = rng_spec.substream(trial_index, sim.ROLE_CODING)
    coding.bit_generator.advance(2 * config.F)
    while True:
        yield per_row_coefficients(coding, config.K)


def repeat_first(rows):
    """rows with the first one sent twice."""
    first = next(rows)
    yield from (first, first)
    yield from rows


def differential_cases():
    """(config, seed, trial) for the jump's differential test, drawn once from a fixed seed.

    Every N is paired with K = 1, 2, F / 3 (at least _JUMP_MIN, so stretches
    are jumped between conflicts) and F, each at p = 1, a small p whose F / p
    passes one block of slots, and a p in between.
    """
    draw = random.Random(17)
    cases = []
    for N in (1, 2, 5, 63, 64, 65, 130):
        for window in ("1", "2", "F/3", "F"):
            for p in (1.0, draw.choice((0.03, 0.05)), round(draw.uniform(0.15, 0.9), 2)):
                F = draw.choice((48, 60)) if p < 0.1 else draw.choice((48, 60, 120))
                K = {"1": 1, "2": 2, "F/3": F // 3, "F": F}[window]
                cases.append((validate_config(F, K, N, p), draw.randrange(100), draw.randrange(100)))
    return cases


class TestStretchJumps:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_jumps_match_slot_stepping(self, policy):
        for config, seed, trial in differential_cases():
            expected = stepped_trial(config, policy, RngSpec(seed), trial)
            assert run_trial(config, policy, RngSpec(seed), trial) == expected, (config, seed, trial)

    def test_cases_cover_jumps_across_blocks(self, monkeypatch):
        # some stretch is jumped past the end of a block of flags
        crossed = []
        jump = sim._jump

        def recording(config, blocks, block, base, slot, ids, left):
            result = jump(config, blocks, block, base, slot, ids, left)
            crossed.append(result[1] > base)
            return result

        monkeypatch.setattr(sim, "_jump", recording)
        for config, seed, trial in differential_cases():
            run_trial(config, "lr", RngSpec(seed), trial)
        assert any(crossed) and not all(crossed)

    def test_cases_cover_rrnc_picks_after_jumps(self, monkeypatch):
        # rrnc serves batch_of of the receiver it picks, so some rrnc case at K >= _JUMP_MIN
        # must settle a conflict after a jump has moved receivers on to their next batch
        events = []
        jump, rule = sim._jump, sim.conflict_rule

        def recording_jump(*args):
            events.append("jump")
            return jump(*args)

        def recording_rule(*args):
            pick = rule(*args)

            def recorded(first, live):
                events.append("pick")
                return pick(first, live)

            return recorded

        monkeypatch.setattr(sim, "_jump", recording_jump)
        monkeypatch.setattr(sim, "conflict_rule", recording_rule)
        covered = 0
        for config, seed, trial in differential_cases():
            events.clear()
            run_trial(config, "rrnc", RngSpec(seed), trial)
            if config.K >= sim._JUMP_MIN and "jump" in events:
                covered += "pick" in events[events.index("jump"):]
        assert covered > 0

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_block_size_does_not_change_trials(self, monkeypatch, policy):
        # row-major random((B, N)) and random(B) give the same doubles for any B, and a jump
        # credits a block without the event whole: stretches across many blocks at K >= 16,
        # conflicts at K = 4, multi-word masks at N = 65, and codec mode
        runs = [
            (validate_config(600, 200, 8, 0.3), False),
            (validate_config(120, 40, 65, 0.4), False),
            (validate_config(120, 4, 5, 0.5), False),
            (validate_config(24, 4, 3, 0.6), True),
        ]
        results = []
        for size in (1, 7, 256, 1024):
            monkeypatch.setattr(sim, "_FLAG_BLOCK", size)
            results.append([run_trial(config, policy, RngSpec(4), trial, codec)
                            for config, codec in runs for trial in range(3)])
        assert results[1:] == results[:1] * 3

    def test_whole_file_window_mean_matches_closed_form(self):
        # with K = F a receiver finishes at its F-th ON slot, so
        # E[T] = sum over t >= 0 of 1 - P(Bin(t, p) >= F)^N
        N, F, p = 20, 100, 0.5
        cdf, exact, t = 0.0, 0.0, 0  # cdf = P(Bin(t, p) >= F), one receiver done by slot t
        while t < F or 1 - cdf**N > 1e-15:
            exact += 1 - cdf**N
            t += 1
            if t >= F:
                cdf += math.exp(math.lgamma(t) - math.lgamma(F) - math.lgamma(t - F + 1) + F * math.log(p)
                                + (t - F) * math.log(1 - p))
        cell = one_cell(validate_config(F, F, N, p), "lr", 400, RngSpec(3))
        assert abs(cell.mean - exact) <= 4 * cell.stddev / math.sqrt(cell.n_trials)


class TestSlotCap:
    @pytest.mark.parametrize("K, jumps", [(600, True), (1, False)], ids=["stretch", "stepping"])
    def test_cap_raises_at_the_same_slot(self, monkeypatch, K, jumps):
        # a trial finishing at slot T runs under MAX_SLOTS = T + 1 and is refused under T,
        # like a cap that falls mid-trial: inside a jumped stretch at K = F, while stepping at K = 1
        config = validate_config(600, K, 5, 0.5)
        slots = run_trial(config, "rs", RngSpec(2), 0).completion_slots
        assert slots > sim._FLAG_BLOCK + 50
        jump = sim._jump
        raised_in_jump = []

        def recording(*args):
            try:
                return jump(*args)
            except RuntimeError:
                raised_in_jump.append(cap)
                raise

        monkeypatch.setattr(sim, "_jump", recording)
        for cap in (sim._FLAG_BLOCK + 50, slots):
            monkeypatch.setattr(sim, "MAX_SLOTS", cap)
            message = f"^no completion after {cap} slots"
            with pytest.raises(RuntimeError, match=message):
                run_trial(config, "rs", RngSpec(2), 0)
            with pytest.raises(RuntimeError, match=message):
                stepped_trial(config, "rs", RngSpec(2), 0)
        assert (sim._FLAG_BLOCK + 50 in raised_in_jump) == jumps
        monkeypatch.setattr(sim, "MAX_SLOTS", slots + 1)
        assert run_trial(config, "rs", RngSpec(2), 0).completion_slots == slots

    def test_cap_at_a_jumps_event_slot(self, monkeypatch):
        # the first jump of this trial credits two whole blocks and ends at its event, slot 589
        config = validate_config(600, 300, 5, 0.5)
        jumps = []
        jump = sim._jump

        def recording(*args):
            result = jump(*args)
            jumps.append(result[2])
            return result

        monkeypatch.setattr(sim, "_jump", recording)
        assert run_trial(config, "lr", RngSpec(2), 0).completion_slots > 589
        assert jumps[0] == 589
        monkeypatch.setattr(sim, "MAX_SLOTS", 589)
        jumps.clear()
        for trial in (run_trial, stepped_trial):
            with pytest.raises(RuntimeError, match="^no completion after 589 slots"):
                trial(config, "lr", RngSpec(2), 0)
        assert jumps == []  # the cap fell at the event, inside the first jump


PASS_KINDS = (sim._HeldRows, RankTracker)  # the trackers of a codec trial's speculative and eager passes


class TestCodecMode:
    def test_dominates_idealized_per_trial(self):
        # same connectivity substream in both modes; dependent packets can only delay
        cfg = validate_config(24, 4, 2, 0.7)
        ideal = trial_times(cfg, "lr", 150, RngSpec(9))
        codec = trial_times(cfg, "lr", 150, RngSpec(9), codec=True)
        assert (codec >= ideal).all()

    def test_single_receiver_codec_roundtrip(self):
        cfg = validate_config(12, 4, 1, 0.8)
        times = trial_times(cfg, "lr", 30, RngSpec(2), codec=True)
        assert (times >= 12).all()

    def test_coding_stream_is_the_encoders(self, monkeypatch):
        # 2F skipped outputs first, then one per_row_coefficients row per sent packet, and every row drawn
        # is sent, in the speculative pass and in the eager one
        drawn, sent = [], []
        rows = sim.coefficient_rows

        def recording(rng, window):
            for row in rows(rng, window):
                drawn.append(row)
                yield row

        monkeypatch.setattr(sim, "coefficient_rows", recording)
        for kind in PASS_KINDS:
            class RecordingTracker(kind):
                def add(self, coefficients):
                    if not sent or sent[-1] != coefficients:  # the served receivers of one packet share its row
                        sent.append(coefficients)
                    return super().add(coefficients)

            drawn.clear()
            sent.clear()
            config = validate_config(12, 4, 3, 0.6)
            assert sim._run_pass(config, "rs", RngSpec(5), 2, RecordingTracker) is not None
            replay = RngSpec(5).substream(2, sim.ROLE_CODING)
            replay.bit_generator.advance(2 * 12)
            assert sent == drawn
            assert len(drawn) >= 12
            for row in drawn:
                assert per_row_coefficients(replay, 4).tobytes() == row


class TestCodecVerification:
    def test_every_completed_batch_is_verified_in_chunks(self, monkeypatch):
        verified = []
        full_rank = sim._full_rank

        def counting(pending):
            verified.append(len(pending))
            return full_rank(pending)

        monkeypatch.setattr(sim, "_full_rank", counting)
        monkeypatch.setattr(sim, "batch_chunk", lambda window, packet_len: 5)
        # 3 receivers x 6 batches in the held-rows pass; the eager pass's trackers decide rank themselves
        for kind, chunks in ((sim._HeldRows, [5, 5, 5, 3]), (RankTracker, [])):
            verified.clear()
            assert sim._run_pass(validate_config(24, 4, 3, 0.7), "lr", RngSpec(1), 0, kind) is not None
            assert verified == chunks

    @pytest.mark.parametrize("forced", [False, True], ids=["drawn", "repeated-first-row"])
    def test_replays_complete_only_full_rank_blocks(self, monkeypatch, forced):
        # the eager pass rank-checks nothing, so every block its trackers complete is checked here
        blocks = []

        class Recording(RankTracker):
            def add(self, coefficients):
                raised = super().add(coefficients)
                if raised and self.rank == self.window:
                    blocks.append(b"".join(self.raw))
                return raised

        if forced:
            TestSpeculativePass.repeat_first_row(monkeypatch)
        monkeypatch.setattr(sim, "RankTracker", Recording)
        kinds = record_passes(monkeypatch)
        replays = 0
        for config, policy, seed, trial in SPECULATION_CASES:
            kinds.clear()
            blocks.clear()
            run_trial(config, policy, RngSpec(seed), trial, codec=True)
            if kinds[-1] is Recording:
                replays += 1
                assert len(blocks) == config.N * config.F // config.K
                stack = np.frombuffer(bytearray().join(blocks), dtype=np.uint8).reshape(len(blocks), config.K, config.K)
                assert rlnc.full_rank_blocks(stack).all(), (config, policy, seed, trial)
        assert replays > 0

    @pytest.mark.parametrize("K", [1, 4, 20])
    def test_rank_checked_blocks_decode_a_payload(self, monkeypatch, K):
        # the blocks an accepted held-rows pass rank-checked carry a random payload through rlnc's encoder and decoder
        audited = []
        full_rank = sim._full_rank

        def recording(pending):
            audited.extend(pending)
            return full_rank(pending)

        monkeypatch.setattr(sim, "_full_rank", recording)
        config = validate_config(40, K, 4, 0.6)
        assert sim._run_pass(config, "rs", RngSpec(3), 1, sim._HeldRows) is not None
        n_blocks = config.N * config.F // K
        assert len(audited) == n_blocks
        rows = b"".join(row for raw in audited for row in raw)
        blocks = np.frombuffer(rows, dtype=np.uint8).reshape(n_blocks, K, K)
        payloads = np.random.default_rng(K).integers(0, 256, size=(n_blocks, K, 16), dtype=np.uint8)
        full, wrong = rlnc.decode_blocks(rlnc.encode_blocks(blocks, payloads), payloads)
        assert full.all() and not wrong.any()


class TestCodingSkip:
    @pytest.mark.parametrize("F", [1, 3, 100, 2500])
    def test_advance_leaves_the_stream_where_the_source_draw_did(self, F):
        # the F x 16-byte uint8 source took 4F 32-bit words, that is 2F whole PCG64 outputs
        drawn, skipped = (RngSpec(7).substream(F, sim.ROLE_CODING) for _ in range(2))
        drawn.integers(0, 256, size=(F, 16), dtype=np.uint8)
        skipped.bit_generator.advance(2 * F)
        for key in ("state", "has_uint32"):
            assert drawn.bit_generator.state[key] == skipped.bit_generator.state[key]
        assert (drawn.integers(0, 2**32, 9, dtype="<u4") == skipped.integers(0, 2**32, 9, dtype="<u4")).all()
        assert drawn.random(3).tolist() == skipped.random(3).tolist()


def record_passes(monkeypatch) -> list:
    """Patch sim._run_pass to record the tracker class of each pass run_trial makes."""
    kinds = []
    run_pass = sim._run_pass

    def recording(config, policy, rng_spec, trial_index, tracker=None):
        kinds.append(tracker)
        return run_pass(config, policy, rng_spec, trial_index, tracker)

    monkeypatch.setattr(sim, "_run_pass", recording)
    return kinds


def reference_trial(config, policy, seed, trial, rows=lambda rows: rows):
    """A codec trial by stepped_trial, on codec_rows passed through rows."""
    return stepped_trial(config, policy, RngSpec(seed), trial, rows(codec_rows(config, RngSpec(seed), trial)))


# (config, policy, seed, trial) for the speculative pass: K = 1 never holds a
# dependent row, and the rest replay often enough (about 1 - (1 - 1/255)^(N*F/K))
SPECULATION_CASES = [
    (validate_config(40, K, 4, 0.6), policy, seed, trial)
    for policy in POLICY_NAMES for K in (1, 2, 4, 20) for seed in (0, 1, 2) for trial in range(4)
]


class TestSpeculativePass:
    def test_trials_match_the_eager_pass(self, monkeypatch):
        # the eager reference is stepped_trial's codec mode, an Eliminator per receiver fed every packet
        kinds = record_passes(monkeypatch)
        replays = 0
        for config, policy, seed, trial in SPECULATION_CASES:
            kinds.clear()
            result = run_trial(config, policy, RngSpec(seed), trial, codec=True)
            assert kinds in ([sim._HeldRows], [sim._HeldRows, RankTracker])
            replays += len(kinds) == 2
            assert result == reference_trial(config, policy, seed, trial), (config, policy, seed, trial)
        assert replays > 0

    def test_forced_replays_match_the_eager_pass(self, monkeypatch):
        # the coding stream's first row sent twice, in the simulator and in the reference
        self.repeat_first_row(monkeypatch)
        kinds = record_passes(monkeypatch)
        replays = 0
        for config, policy, seed, trial in SPECULATION_CASES:
            kinds.clear()
            result = run_trial(config, policy, RngSpec(seed), trial, codec=True)
            replays += len(kinds) == 2
            assert result == reference_trial(config, policy, seed, trial, repeat_first), (config, policy, seed, trial)
        assert replays > len(SPECULATION_CASES) // 2

    def test_replays_exactly_when_some_packet_is_dependent(self):
        # a full-rank block of K rows held K innovative rows, so an accepted pass is the eager pass;
        # a block that is not full rank held a row the eager pass found dependent
        accepted = 0
        for config, policy, seed, trial in SPECULATION_CASES:
            flags = []

            class FlagRecording(RankTracker):
                def add(self, coefficients):
                    flags.append(super().add(coefficients))
                    return flags[-1]

            speculative = sim._run_pass(config, policy, RngSpec(seed), trial, sim._HeldRows)
            sim._run_pass(config, policy, RngSpec(seed), trial, FlagRecording)
            assert (speculative is not None) == all(flags), (config, policy, seed, trial)
            accepted += speculative is not None
        assert 0 < accepted < len(SPECULATION_CASES)

    @staticmethod
    def repeat_first_row(monkeypatch):
        """Send the coding stream's first row twice, so at p = 1 every receiver's first block is deficient."""
        rows = sim.coefficient_rows
        monkeypatch.setattr(sim, "coefficient_rows", lambda rng, window: repeat_first(rows(rng, window)))

    def test_a_repeated_row_forces_a_replay(self, monkeypatch):
        self.repeat_first_row(monkeypatch)
        config = validate_config(8, 4, 2, 1.0)
        expected = reference_trial(config, "lr", 0, 0, repeat_first)
        assert expected.completion_slots == 9  # the repeat costs the eager pass one slot
        kinds = record_passes(monkeypatch)
        assert run_trial(config, "lr", RngSpec(0), 0, codec=True) == expected
        assert kinds == [sim._HeldRows, RankTracker]

    def test_slot_cap_with_a_deficient_block_pending_replays(self, monkeypatch):
        # with its deficient first blocks let through, this rrnc trial would end at slot 21, not 17;
        # under a cap of 18 the speculative pass must replay while they are pending, not raise
        self.repeat_first_row(monkeypatch)
        config = validate_config(8, 4, 2, 0.5)
        expected = reference_trial(config, "rrnc", 12, 0, repeat_first)
        assert expected.completion_slots == 17
        monkeypatch.setattr(sim, "MAX_SLOTS", 18)
        kinds = record_passes(monkeypatch)
        assert run_trial(config, "rrnc", RngSpec(12), 0, codec=True) == expected
        assert kinds == [sim._HeldRows, RankTracker]
        # a cap that stops the eager pass too raises as it would
        monkeypatch.setattr(sim, "MAX_SLOTS", 17)
        kinds.clear()
        with pytest.raises(RuntimeError, match="^no completion after 17 slots"):
            run_trial(config, "rrnc", RngSpec(12), 0, codec=True)
        assert kinds == [sim._HeldRows, RankTracker]


class TestCodecSizeGuard:
    @staticmethod
    def need(K, N):
        """Rank state 2*N*K^2 and one K x K rank check 12*K^2 bytes."""
        return 2 * N * K * K + 12 * K * K

    def test_largest_size_runs(self, monkeypatch):
        cfg = validate_config(8, 4, 2, 0.5)
        monkeypatch.setattr(sim, "MAX_CODEC_BYTES", self.need(4, 2))
        check_run(cfg, True)
        assert run_trial(cfg, "lr", RngSpec(0), 0, codec=True).completion_slots >= 8
        check_run(validate_config(8000, 4, 2, 0.5), True)  # no source is held, so F takes no bytes
        # a wider window or one more receiver passes the limit
        for K, N in ((8, 2), (4, 3)):
            with pytest.raises(ConfigError, match=f"^codec mode at F=8, K={K}, N={N} needs about"):
                check_run(validate_config(8, K, N, 0.5), True)

    def test_largest_file_under_the_default_limit(self):
        # at K=4, N=2, p=0.5 the slot budget alone bounds the file in both modes: about 5e8 packets,
        # past the 6.7e7 at which an F x 16-byte source once took the codec budget
        largest = 5 * 10**8 - 103_480
        refused = validate_config(largest + 4, 4, 2, 0.5)
        for codec in (True, False):
            check_run(validate_config(largest, 4, 2, 0.5), codec)
            with pytest.raises(ConfigError, match=f"^--file-size {largest + 4} at --p 0.5 with -N 2: a trial may"):
                check_run(refused, codec)

    def test_refused_before_any_draw(self, monkeypatch):
        # 1024 receivers at K = F = 1024 hold 2 GiB of rank state
        monkeypatch.setattr(RngSpec, "substream", no_draws)
        with pytest.raises(ConfigError, match="codec mode"):
            sweep_coding_window(["rs"], [validate_config(1024, 1024, 1024, 0.5)], 2, RngSpec(0), codec=True)

    def test_rank_state_counts(self):
        # K = F = 2^14 at two receivers is 2^30 bytes of rank state alone
        with pytest.raises(ConfigError, match="codec mode"):
            check_run(validate_config(2**14, 2**14, 2, 0.5), True)

    def test_coefficient_block_stays_small(self):
        # every admitted window is below 2^14, and each row block coefficient_rows draws
        # up to there stays within _CHUNK_BYTES
        with pytest.raises(ConfigError, match="codec mode"):
            check_run(validate_config(2**14, 2**14, 1, 0.5), True)
        blocks = []

        class RecordingRng:
            def integers(self, low, high, size, dtype):
                blocks.append(np.random.default_rng(0).integers(low, high, size, dtype))
                return blocks[-1]

        for window in (1, 4, 100, 128, 129, 1000, 2**14):
            next(rlnc.coefficient_rows(RecordingRng(), window))
            assert blocks[-1].shape[1] * 4 >= window
            assert blocks[-1].nbytes <= rlnc._CHUNK_BYTES

    def test_sweep_refuses_an_unknown_policy_before_any_trial(self, monkeypatch):
        monkeypatch.setattr(sim, "run_trial", lambda *args: pytest.fail("a trial ran"))
        with pytest.raises(ConfigError, match="^unknown policy 'bogus'; pick from lr,rrnc,rs$"):
            sweep_coding_window(["lr", "bogus"], [validate_config(8, 4, 2, 0.5)], 4, RngSpec(0))

    def test_sweep_refuses_the_grid_first(self, monkeypatch):
        # under this limit K=4 fits and K=8 does not
        monkeypatch.setattr(sim, "MAX_CODEC_BYTES", self.need(4, 2))
        monkeypatch.setattr(sim, "run_trial", lambda *args: pytest.fail("a trial ran"))
        with pytest.raises(ConfigError, match="K=8"):
            configs = [validate_config(8, K, 2, 0.5) for K in (4, 8)]
            sweep_coding_window(["lr"], configs, 4, RngSpec(0), codec=True)


class TestStats:
    def test_half_width_formula(self):
        # each cell reduces the run_trial times of its own trials 0..n-1
        configs = [validate_config(12, K, 3, 0.5) for K in (2, 12)]
        for cell in sweep_coding_window(["lr", "rs"], configs, 7, RngSpec(3)):
            times = trial_times(cell.config, cell.policy, 7, RngSpec(3)).astype(float)
            sd = float(times.std(ddof=1))
            assert cell.n_trials == 7
            assert (cell.mean, cell.stddev) == (float(times.mean()), sd)
            assert cell.ci95_half_width == 1.96 * sd / np.sqrt(7)

    def test_needs_two_trials(self, monkeypatch):
        monkeypatch.setattr(RngSpec, "substream", no_draws)
        with pytest.raises(ConfigError, match="^--trials must be at least 2, got 1$"):
            sweep_coding_window(["lr"], [validate_config(4, 2, 2, 0.5)], 1, RngSpec(0))

    def test_completion_never_beats_file_size(self):
        cfg = validate_config(12, 4, 3, 0.5)
        for policy in ("lr", "rrnc", "rs"):
            assert (trial_times(cfg, policy, 30, RngSpec(8)) >= 12).all()


class TestAdmission:
    @pytest.mark.parametrize("n_trials,seed,message", [
        (2, -1, "--seed must be at least 0, got -1"),
        (1, -1, "--trials must be at least 2, got 1"),  # checked in this order
    ], ids=["seed", "trials-first"])
    def test_bad_run_refused_before_any_draw(self, monkeypatch, n_trials, seed, message):
        monkeypatch.setattr(RngSpec, "substream", no_draws)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            sweep_coding_window(["lr"], [validate_config(4, 2, 2, 0.5)], n_trials, RngSpec(seed), codec=True)

    def test_the_slowest_receiver_decides(self, monkeypatch):
        # under a cap of 140 slots one packet at p = 0.05 is still missing with chance 0.95^140 = 7.6e-4
        # per receiver, so a trial of 1024 receivers meets the cap with chance 0.54 (union bound 0.78)
        monkeypatch.setattr(sim, "MAX_SLOTS", 140)
        message = "^--file-size 1 at --p 0.05 with -N 1024: a trial may run past the limit of 140 slots"
        with pytest.raises(ConfigError, match=f"{message}, with probability up to 0.78$"):
            check_run(validate_config(1, 1, 1024, 0.05), False)

    def test_admitted_runs_meet_the_cap_at_most_once_in_1e9(self, monkeypatch):
        # the exact binomial tail, N * P(Bin(s, p) <= F - 1), under a cap s = 300 that makes it computable
        monkeypatch.setattr(sim, "MAX_SLOTS", 300)
        admitted = refused = 0
        for F, N, p in itertools.product((1, 2, 10, 40, 100, 150), (1, 2, 64, 1024), (0.2, 0.5, 0.9, 1.0)):
            tail = N * sum(math.comb(300, k) * p**k * (1 - p) ** (300 - k) for k in range(F))
            try:
                check_run(validate_config(F, 1, N, p), False)
            except ConfigError:
                refused += 1
                continue
            admitted += 1
            assert tail <= 1e-9, (F, N, p)
        assert admitted > 0 and refused > 0

    def test_run_flags_come_before_the_configs(self):
        # an oversized receiver count is refused only after the run flags pass
        configs = [validate_config(2, 1, MAX_RECEIVERS + 1, 1.0)]
        with pytest.raises(ConfigError, match="--trials"):
            sweep_coding_window(["lr"], configs, 0, RngSpec(0))


class TestReceiverCap:
    def test_cap_is_accepted(self):
        cfg = validate_config(2, 1, MAX_RECEIVERS, 1.0)
        check_run(cfg, True)
        assert run_trial(cfg, "rrnc", RngSpec(0), 0, codec=True).completion_slots == 2

    def test_above_cap_refused(self, monkeypatch):
        monkeypatch.setattr(sim, "run_trial", lambda *args: pytest.fail("a trial ran"))
        with pytest.raises(ConfigError, match="receivers"):
            sweep_coding_window(["lr"], [validate_config(2, 1, MAX_RECEIVERS + 1, 1.0)], 2, RngSpec(0))


class TestSweep:
    def test_rows_are_policy_major(self):
        cells = sweep_coding_window(["lr", "rs"], [validate_config(8, K, 2, 0.6) for K in (4, 8)], 20, RngSpec(1))
        assert [(c.policy, c.config.K) for c in cells] == [
            ("lr", 4), ("lr", 8), ("rs", 4), ("rs", 8),
        ]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            run_trial(validate_config(8, 4, 2, 0.5), "fifo", RngSpec(0), 0)


def golden_table() -> str:
    """Both counts of every trial on the pinned grid, as CSV text.

    tests/data/sim_golden.csv holds this text as the engine produced it
    when the file was made; regenerate it only with a declared stream change.
    """
    lines = ["policy,mode,N,F,K,p,seed,trial,completion_slots,conflict_slots"]
    modes = {"ideal": False, "codec": True}
    grid = itertools.chain(
        itertools.product(POLICY_NAMES, modes, (1, 2, 5, 63, 64, 65), (8,), (1, 2, 8), (0.2, 0.6, 1.0), (0, 7), (0, 1)),
        # long enough to use more than one block of flags and of rs uniforms
        itertools.product(POLICY_NAMES, modes, (5,), (600,), (1, 5), (0.2,), (0,), (0,)),
        itertools.product(POLICY_NAMES, ("ideal",), (65,), (600,), (1, 5), (0.2,), (0,), (0,)),
    )
    for policy, mode, N, F, K, p, seed, trial in grid:
        result = run_trial(validate_config(F, K, N, p), policy, RngSpec(seed), trial, modes[mode])
        lines.append(
            f"{policy},{mode},{N},{F},{K},{p!r},{seed},{trial},{result.completion_slots},{result.conflict_slots}"
        )
    return "\n".join(lines) + "\n"


def test_engine_matches_golden_table():
    # N = 63, 64 and 65 straddle the width of one machine word
    assert golden_table().encode() == GOLDEN_CSV.read_bytes()


# Codec-mode trials long enough for dependent packets to show up.  K = 3
# (at F = 99, since K must divide F) is a window with K % 4 != 0.
CODEC_GRID = tuple(
    itertools.chain(
        itertools.product(POLICY_NAMES, (5,), (100,), (4, 20, 100), (0.6, 1.0), (0, 1), (0, 1)),
        itertools.product(POLICY_NAMES, (5,), (99,), (3,), (0.6, 1.0), (0, 1), (0, 1)),
        itertools.product(POLICY_NAMES, (65,), (12,), (3, 12), (0.6,), (0, 1), (0, 1)),
    )
)


def test_codec_engine_matches_golden_table():
    """tests/data/sim_codec_golden.csv pins codec-mode counts on CODEC_GRID.

    At least one pinned trial must be slower than its ideal-mode twin, so
    the grid really exercises packets that do not raise a receiver's rank.
    """
    lines = ["policy,N,F,K,p,seed,trial,completion_slots,conflict_slots"]
    slower = 0
    for policy, N, F, K, p, seed, trial in CODEC_GRID:
        cfg = validate_config(F, K, N, p)
        result = run_trial(cfg, policy, RngSpec(seed), trial, codec=True)
        ideal = run_trial(cfg, policy, RngSpec(seed), trial)
        slower += result.completion_slots > ideal.completion_slots
        lines.append(f"{policy},{N},{F},{K},{p!r},{seed},{trial},{result.completion_slots},{result.conflict_slots}")
    assert ("\n".join(lines) + "\n").encode() == CODEC_GOLDEN_CSV.read_bytes()
    assert slower > 0
