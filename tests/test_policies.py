import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ncbroadcast import sim
from ncbroadcast.model import validate_config
from ncbroadcast.sim import POLICY_NAMES, conflict_rule
from reference import hits_rule, lr_pick, rrnc_pick, rs_pick


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def hits_of(eligible):
    """Kernel input for (receiver id, batch id) pairs: (batch, bits), ascending batch."""
    bits = {}
    for rid, batch in eligible:
        bits[batch] = bits.get(batch, 0) | 1 << rid
    return sorted(bits.items())


def kernel_pick(policy, eligible, u=0.0, rr_last=-1):
    """The batch policies' kernel picks where the (receiver id, batch id) pairs
    of eligible are the connected receivers, rrnc having picked receiver
    rr_last before."""
    members, occupied, batch_of = {}, [], {rr_last: None}
    pick = conflict_rule(policy, members, occupied, batch_of, iter([u]))
    if rr_last >= 0:
        pick(None, 1 << rr_last)  # a conflict slot whose only connected receiver is rr_last
    live = 0
    for rid, batch in eligible:
        members[batch] = members.get(batch, 0) | 1 << rid
        batch_of[rid] = batch
        live |= 1 << rid
    occupied[:] = sorted(members)
    return pick(occupied[0], live)


def block_of(on_sets, N):
    """A block of slots with the given ON sets, bit i of each standing for receiver i."""
    return sim._OnBlock(np.array([[on >> i & 1 for i in range(N)] for on in on_sets], dtype=bool).reshape(-1, N))


def scripted_trial(monkeypatch, policy, N, F, K, on_sets):
    """run_trial with the given ON sets for the first slots, all receivers ON after."""
    script = itertools.chain([block_of(on_sets, N)], itertools.repeat(block_of([(1 << N) - 1] * sim._FLAG_BLOCK, N)))
    monkeypatch.setattr(sim, "_on_blocks", lambda rng, n, p: script)
    return sim.run_trial(validate_config(F, K, N, 0.5), policy, sim.RngSpec(0), 0)


def counted_uniforms(monkeypatch):
    """Count the policy-stream uniforms that run_trial draws."""
    drawn = [0]
    original = sim._uniforms

    def counting(rng_spec, trial_index):
        for u in original(rng_spec, trial_index):
            drawn[0] += 1
            yield u

    monkeypatch.setattr(sim, "_uniforms", counting)
    return drawn


class TestConflictDetection:
    def test_same_batch_everywhere(self, monkeypatch):
        result = scripted_trial(monkeypatch, "lr", 3, 4, 2, [0b111] * 4)
        assert (result.completion_slots, result.conflict_slots) == (4, 0)

    def test_two_batches(self, monkeypatch):
        # receiver 0 gets ahead in slot 1, then both are ON in slot 2
        result = scripted_trial(monkeypatch, "lr", 2, 2, 1, [0b01, 0b11, 0b10])
        assert (result.completion_slots, result.conflict_slots) == (4, 1)

    def test_empty(self, monkeypatch):
        result = scripted_trial(monkeypatch, "lr", 2, 2, 1, [0, 0])
        assert (result.completion_slots, result.conflict_slots) == (4, 0)


class TestLeastReceived:
    def test_minimum_batch(self):
        assert lr_pick(hits_of([(0, 2), (1, 0), (2, 1)])) == 0
        assert kernel_pick("lr", [(0, 2), (1, 0), (2, 1)]) == 0

    def test_single_receiver(self):
        assert lr_pick(hits_of([(5, 3)])) == 3
        assert kernel_pick("lr", [(5, 3)]) == 3

    def test_empty(self, monkeypatch):
        # an all-OFF slot sends nothing and consults no rule; the trial does build its kernel
        built, calls = [], []

        def recording_rule(policy, members, occupied, batch_of, uniforms):
            built.append(policy)
            return lambda first, live: calls.append((first, live))

        monkeypatch.setattr(sim, "conflict_rule", recording_rule)
        result = scripted_trial(monkeypatch, "lr", 3, 3, 1, [0, 0, 0])
        assert (result.completion_slots, built, calls) == (6, ["lr"], [])

    @given(
        batches=st.lists(st.integers(0, 9), min_size=1, max_size=8),
        seed=st.integers(0, 2**16),
    )
    def test_permutation_invariant(self, batches, seed):
        eligible = list(enumerate(batches))
        ids = list(range(len(batches)))
        np.random.Generator(np.random.PCG64(seed)).shuffle(ids)
        relabelled = [(ids[rid], batch) for rid, batch in eligible]
        assert lr_pick(hits_of(eligible)) == lr_pick(hits_of(relabelled)) == min(batches)
        assert kernel_pick("lr", eligible) == kernel_pick("lr", relabelled) == min(batches)


class TestRoundRobin:
    def test_picks_next_greater_receiver(self):
        assert rrnc_pick(hits_of([(0, 1), (2, 0), (3, 2)]), 1) == (0, 2)  # receiver 2's batch
        assert kernel_pick("rrnc", [(0, 1), (2, 0), (3, 2)], rr_last=1) == 0

    def test_wraps_when_none_greater(self):
        assert rrnc_pick(hits_of([(0, 0), (1, 1)]), 3) == (0, 0)  # receiver 0's batch
        assert kernel_pick("rrnc", [(0, 0), (1, 1)], rr_last=3) == 0

    def test_first_conflict_takes_smallest_id(self):
        assert rrnc_pick(hits_of([(2, 1), (4, 0)]), -1) == (1, 2)
        assert kernel_pick("rrnc", [(2, 1), (4, 0)]) == 1

    def test_pointer_untouched_off_conflict(self, monkeypatch):
        # the kernel, which owns rr_last, runs at conflict slots only
        calls = [0]

        def counting_rule(policy, members, occupied, batch_of, uniforms):
            pick = conflict_rule(policy, members, occupied, batch_of, uniforms)

            def counted(first, live):
                calls[0] += 1
                return pick(first, live)

            return counted

        monkeypatch.setattr(sim, "conflict_rule", counting_rule)
        cfg = validate_config(12, 2, 3, 0.5)
        for trial in range(10):
            calls[0] = 0
            result = sim.run_trial(cfg, "rrnc", sim.RngSpec(4), trial)
            assert calls[0] == result.conflict_slots > 0

    def test_empty(self, monkeypatch):
        # The first conflict picks receiver 1, so the second picks receiver 2,
        # not 0, and all finish in slot 5; all-OFF slots move no pointer.
        on_sets = [0b010, 0b110, 0b001, 0b101]
        result = scripted_trial(monkeypatch, "rrnc", 3, 2, 1, on_sets)
        assert (result.completion_slots, result.conflict_slots) == (5, 2)
        with_gaps = [mask for on in on_sets for mask in (on, 0)]
        result = scripted_trial(monkeypatch, "rrnc", 3, 2, 1, with_gaps)
        assert (result.completion_slots, result.conflict_slots) == (9, 2)


class TestRandomSelection:
    def test_frequencies_match_eligible_shares(self):
        hits = hits_of([(0, 0), (1, 0), (2, 1)])
        stream = rng(123)
        draws = 100_000
        picks = sum(rs_pick(hits, stream.random()) == 0 for _ in range(draws))
        assert picks / draws == pytest.approx(2 / 3, abs=0.01)
        picks = sum(kernel_pick("rs", [(0, 0), (1, 0), (2, 1)], stream.random()) == 0 for _ in range(draws))
        assert picks / draws == pytest.approx(2 / 3, abs=0.01)

    def test_unanimous_batch_needs_no_randomness(self, monkeypatch):
        drawn = counted_uniforms(monkeypatch)
        cfg = validate_config(24, 24, 4, 0.5)  # K = F: every slot is unanimous
        assert sim.run_trial(cfg, "rs", sim.RngSpec(7), 0).conflict_slots == 0
        assert drawn[0] == 0

    def test_empty_leaves_stream_untouched(self, monkeypatch):
        drawn = counted_uniforms(monkeypatch)
        result = scripted_trial(monkeypatch, "rs", 3, 3, 1, [0, 0, 0])
        assert (result.completion_slots, drawn[0]) == (6, 0)

    def test_reproducible_for_fixed_seed(self):
        hits = hits_of([(0, 0), (1, 1), (2, 2)])
        first = [rs_pick(hits, rng(n).random()) for n in range(20)]
        second = [rs_pick(hits, rng(n).random()) for n in range(20)]
        assert first == second
        assert [kernel_pick("rs", [(0, 0), (1, 1), (2, 2)], rng(n).random()) for n in range(20)] == first

    def test_rounding_tail_serves_the_last_hit(self):
        # 1/7 + 2/7 + 2/7 + 2/7 sums to just below 1.0, so the largest u below 1 falls past it
        eligible = [(0, 0), (1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3)]
        u = math.nextafter(1.0, 0.0)
        assert sum([1 / 7, 2 / 7, 2 / 7, 2 / 7]) <= u
        assert rs_pick(hits_of(eligible), u) == kernel_pick("rs", eligible, u) == 3

    @pytest.mark.parametrize("N, K", [(5, 1), (65, 5)])
    def test_one_uniform_per_conflict_slot(self, monkeypatch, N, K):
        drawn = counted_uniforms(monkeypatch)
        for trial in range(2):
            drawn[0] = 0
            result = sim.run_trial(validate_config(600, K, N, 0.2), "rs", sim.RngSpec(0), trial)
            assert drawn[0] == result.conflict_slots > 0

    def test_block_draw_equals_scalar_draws(self):
        # the rs buffer rests on this: random(n) is n calls of random(), block after block
        seq = np.random.SeedSequence((3, 5, sim.ROLE_POLICY))
        blocked = np.random.Generator(np.random.PCG64(seq))
        scalar = np.random.Generator(np.random.PCG64(seq))
        block = [u for _ in range(3) for u in blocked.random(sim._FLAG_BLOCK).tolist()]
        assert block == [scalar.random() for _ in range(3 * sim._FLAG_BLOCK)]


class TestOnMasks:
    @pytest.mark.parametrize("N", [1, 5, 63, 64, 65, 130, sim.MAX_RECEIVERS])
    def test_bit_i_is_receiver_i(self, N):
        blocks = sim._on_blocks(rng(N), N, 0.4)
        reference = rng(N)
        for _ in range(2):
            flags = reference.random((sim._FLAG_BLOCK, N)) < 0.4
            expected = [sum(1 << int(i) for i in np.flatnonzero(row)) for row in flags]
            assert next(blocks).masks == expected


@given(
    batch=st.integers(0, 9),
    ids=st.lists(st.integers(0, 20), min_size=1, max_size=8, unique=True),
    u=st.floats(0.0, 1.0, exclude_max=True),
)
def test_all_policies_agree_off_conflict_slots(batch, ids, u):
    hits = hits_of([(rid, batch) for rid in ids])
    assert lr_pick(hits) == batch
    assert rrnc_pick(hits, -1)[0] == batch
    assert rs_pick(hits, u) == batch
    for policy in POLICY_NAMES:
        assert kernel_pick(policy, [(rid, batch) for rid in ids], u) == batch


ALMOST_ONE = (math.nextafter(1.0, 0.0), 1.0 - 2**-52, 1.0 - 2**-50)  # u in or near the rs rounding tail


@st.composite
def slot_states(draw):
    """A trial's receiver sets at one slot: each receiver's batch (None once
    finished), the ON set, the previous rrnc pick and the rs uniform."""
    N = draw(st.integers(1, 130))
    n_batches = draw(st.integers(1, 8))
    where = draw(st.lists(st.none() | st.integers(0, n_batches - 1), min_size=N, max_size=N))
    on = draw(st.lists(st.booleans(), min_size=N, max_size=N))
    rr_last = draw(st.integers(-1, N - 1))
    u = draw(st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from(ALMOST_ONE))
    return where, sum(flag << rid for rid, flag in enumerate(on)), rr_last, u


@given(state=slot_states())
def test_kernels_match_the_hits_list_reference(state):
    where, on, rr_last, u = state
    members, batch_of = {}, [None] * len(where)
    for rid, batch in enumerate(where):
        if batch is not None:
            members[batch] = members.get(batch, 0) | 1 << rid
            batch_of[rid] = batch
    occupied = sorted(members)
    alive = sum(members.values())
    live = alive & on
    hits = [(batch, bits) for batch in occupied if (bits := members[batch] & on)]
    assert bool(live) == bool(hits)
    if not live:
        return
    first = hits[0][0]
    # the simulator's one-comparison conflict test
    assert (members[first] & on != live) == (len(hits) >= 2)
    for policy in POLICY_NAMES:
        reference = hits_rule(policy, iter([u]))
        kernel = conflict_rule(policy, members, occupied, batch_of, iter([u]))
        if policy == "rrnc" and rr_last >= 0:  # move both pointers to rr_last
            reference([(None, 1 << rr_last)])
            kernel(None, 1 << rr_last)
        assert kernel(first, live) == reference(hits), policy


def test_dispatch_rejects_unknown_policy():
    with pytest.raises(ValueError):
        conflict_rule("greedy", {}, [], [], iter(()))
    with pytest.raises(ValueError):
        hits_rule("greedy", iter(()))
