"""Monte Carlo engine for N-receiver broadcast over per-slot ON/OFF channels.

Sets of receivers are Python ints, bit i standing for receiver i.  A
trial keeps the unfinished receivers (alive), the unfinished receivers
grouped by the batch they expect (members, with its keys ascending in
occupied) and each receiver's batch (batch_of).  Each slot draws the ON
set (one Bernoulli(p) flag per receiver); live = alive & ON are the
receivers a packet could serve.  The slot scans occupied upward to the
first batch with an ON member, and it is a conflict slot exactly when
that batch's ON members are not all of live.  Otherwise that batch is
sent outright; a conflict slot is settled by the policy's kernel, which
reads the trial's receiver sets in place (see conflict_rule).  The packet
reaches every ON receiver expecting its batch.  Idealized mode counts
every delivery as one packet of progress.  Codec mode takes the packet's
GF(256) coefficients from rlnc.coefficient_rows, which draws them a block
of rows at a time, and counts progress only when they raise the
receiver's rank.  A receiver finishes a batch once it holds K linearly
independent rows, so no payload is simulated.

A codec trial first runs a held-rows pass.  Each receiver only holds the
rows it receives for its batch, and every reception counts as progress,
so a batch completes at its K-th reception and hands its K x K
coefficient block to the cell's pool.  The pool is shared by the trials
of a cell: it holds at most one chunk of blocks, each tagged with its
trial, and rank-checks a full chunk by one forward elimination
(rlnc.full_rank_blocks) whatever trials the chunk spans, and what is
left after the cell's last pass.  If every completed block is full rank,
the pass is exact: K rows of rank K were each innovative when they
arrived, every received row belongs to a block that completes, and codec
mode never jumps, so the pass is slot for slot the eager one that tracks
each receiver's rank on an rlnc.RankTracker.  A trial with a
rank-deficient block (about 1 - (1 - 1/255)^(N*F/K) of trials hold one)
is run again by the eager pass from fresh substreams once the cell's
last chunk is checked, with the same result as if it had run eagerly
from the start.  A check that finds a deficient block of the trial
running ends its pass at once; a held-rows pass that meets MAX_SLOTS is
replayed too, and the eager pass raises if the trial really meets it.
The eager pass rank-checks nothing: its trackers decide rank.  run_trial
is the one-trial cell.

Idealized mode jumps over single-batch stretches.  While every unfinished
receiver expects one batch, no slot can be a conflict and the policy has
no say, so run_trial goes straight to the next slot at which one of them
completes that batch.  A running count of each receiver's ON flags in the
current block (a cumulative sum down the block's bool flags) finds it:
the first slot at which some receiver's count reaches the packets it
still needs.  A block without that slot is credited whole before the
next one is read.  Every receiver is credited with its ON slots up to
that slot, and the membership update is the one stepping uses.  A
stretch draws no policy uniform, so results are the same as when every
slot is stepped.  A jump has a fixed cost of a few array operations over
the rest of the block, so it is taken only while each receiver of the
batch needs at least _JUMP_MIN more packets.  That is tested when
membership changes, never per slot.  Codec mode never jumps, because
every sent packet carries a coefficient row to its receivers.

sweep_coding_window is the one experiment call: it runs every (policy,
config) cell and returns each cell's completion-slot statistics.  Before
any substream is drawn it admits the whole run: known policy names,
two to model.MAX_REPEATS trials per cell (the sample stddev needs two),
a seed >= 0, and check_run for every config, which refuses too many
receivers, a run whose slowest receiver could pass MAX_SLOTS and a
codec trial over rlnc.MAX_CODEC_BYTES.  run_trial does not check them again;
a trial that meets MAX_SLOTS all the same raises SlotCapError from _on_blocks.

Reproducibility contract: a trial draws from three private substreams
derived as SeedSequence((master_seed, trial_index, role)) with roles
0 = connectivity, 1 = policy (one uniform per rs conflict slot),
2 = coding (the first 2F outputs skipped, as many as an F x 16-byte
source once took, so the rows keep their bits; then one row per sent
packet: the first K bytes of ceil(K/4) fresh 32-bit words, all-zero rows
skipped, which coefficient_rows yields without a call per row).  The
skip depends on F alone, so the rows depend only on (master_seed,
trial_index), and so do results, never on execution order.  The
connectivity sequence is identical across policies, modes and window
sizes.
"""

import math
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter

import numpy as np

from .model import ConfigError, SystemConfig, require_at_least, require_repeats
from .rlnc import MAX_CODEC_BYTES, RankTracker, batch_chunk, block_solve_bytes, coefficient_rows, full_rank_blocks

ROLE_CONNECTIVITY = 0
ROLE_POLICY = 1
ROLE_CODING = 2

MAX_SLOTS = 10**9
MAX_RECEIVERS = 1024  # a block of flags takes 2 KiB of draws per receiver
_FLAG_BLOCK = 256
# The jump's gate: each receiver of the stretch needs at least this many more
# packets.  Measured in-process on a 2-core x86 VM.  On trials that are one
# stretch (K = F, N in {2, 5, 20}, p in {0.5, 0.9}), jumping every stretch took
# 1.2-3.0x the time of stepping at K = 16, 0.9-2.1x at 32, 0.7-1.8x at 48 and
# 0.6-1.4x at 64.  On long trials (N=5, F=500, p=0.6 and N=20, F=2500, p=0.5)
# a gate of 16 kept the whole gain of 8, while 24, 32 and 48 lost most of it
# at K=25, so the long trials set it.
_JUMP_MIN = 16


@dataclass(frozen=True)
class RngSpec:
    """Master seed plus the documented trial-substream derivation."""

    master_seed: int

    def substream(self, trial_index: int, role: int) -> np.random.Generator:
        seq = np.random.SeedSequence((self.master_seed, trial_index, role))
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class TrialResult:
    completion_slots: int
    conflict_slots: int


@dataclass(frozen=True)
class SweepCell:
    """One (policy, window) cell of a sweep: completion-slot statistics of its trials."""

    policy: str
    config: SystemConfig
    n_trials: int
    mean: float
    stddev: float  # sample standard deviation
    ci95_half_width: float  # normal approximation, 1.96 * stddev / sqrt(n_trials)


class _OnBlock:
    """One block of slots: each slot's ON flags as a bool row (flags) and as an
    int (masks), and the number of slots before its first one (base)."""

    __slots__ = ("flags", "masks", "base")

    def __init__(self, flags: np.ndarray, base: int):
        self.flags = flags  # bool, one row per slot and one column per receiver
        self.base = base
        n_slots, N = flags.shape
        n_words = -(-N // 64)
        packed = np.zeros((n_slots, 8 * n_words), dtype=np.uint8)
        packed[:, : -(-N // 8)] = np.packbits(flags, axis=1, bitorder="little")
        words = packed.view("<u8")
        masks = words[:, -1].tolist()
        for w in range(n_words - 2, -1, -1):
            masks = [mask << 64 | word for mask, word in zip(masks, words[:, w].tolist())]
        self.masks = masks


def _on_blocks(rng: np.random.Generator, config: SystemConfig):
    """Blocks of _FLAG_BLOCK slots, one Bernoulli(p) ON flag per receiver and
    slot, up to slot MAX_SLOTS - 1, the last block cut short; asking for one
    more block raises SlotCapError.

    The draws are row-major, one row of N per slot, so the flags of a slot
    depend neither on _FLAG_BLOCK nor on the cap."""
    for base in range(0, MAX_SLOTS - 1, _FLAG_BLOCK):
        yield _OnBlock(rng.random((min(_FLAG_BLOCK, MAX_SLOTS - 1 - base), config.N)) < config.p, base)
    raise SlotCapError(config)


def check_run(config: SystemConfig, codec: bool) -> None:
    """Raise ConfigError unless trials of this config fit the slot budget,
    MAX_RECEIVERS and, in codec mode, MAX_CODEC_BYTES: the rank state and
    one K x K rank check (rlnc.block_solve_bytes(K, 0)).  The held-rows
    pass holds N*K^2 bytes of received rows and the eager replay about
    2*N*K^2 (the rows each RankTracker reduces and the raw rows it keeps),
    so the 2*N*K^2 term bounds both.  F does not enter: no source is held.
    The budget leaves out the coefficient rows, which rlnc.coefficient_rows
    draws in blocks of at most rlnc._CHUNK_BYTES (128 KiB) for every
    window it admits (K < 2^14).

    A trial ends with its slowest receiver, and one receiver is unfinished
    after s = MAX_SLOTS slots when at most F - 1 of them are ON.  With
    a = (F - 1)/s < p, the Chernoff bound P(Bin(s, p) <= F - 1) <=
    exp(-s*D(a || p)), D the Bernoulli relative entropy, times N bounds
    the chance that a trial meets the cap; it must be at most 1e-9, and
    a >= p is refused outright.
    """
    F, K, N, p = config.F, config.K, config.N, config.p
    s, a = MAX_SLOTS, (F - 1) / MAX_SLOTS
    risk = 1.0
    if a < p:
        exponent = (s - F + 1) * (math.log1p(-a) - math.log1p(-p)) if p < 1 else math.inf  # log1p: p may be 1e-9
        if F > 1:
            exponent += (F - 1) * math.log(a / p)
        risk = min(1.0, N * math.exp(-exponent))
    if risk > 1e-9:
        raise ConfigError(
            f"--file-size {F} at --p {p} with -N {N}: a trial may run past the limit of {s} slots, "
            f"with probability up to {risk:.2g}"
        )
    if N > MAX_RECEIVERS:
        raise ConfigError(f"at most {MAX_RECEIVERS} receivers are supported, got {N}")
    if not codec:
        return
    need = 2 * N * K * K + block_solve_bytes(K, 0)
    if need > MAX_CODEC_BYTES:
        raise ConfigError(
            f"codec mode at F={F}, K={K}, N={N} needs about {need} bytes, "
            f"more than the limit of {MAX_CODEC_BYTES}"
        )


def _uniforms(rng_spec: RngSpec, trial_index: int):
    """The policy substream as endless uniforms, drawn _FLAG_BLOCK at a time on
    first use; random(n) gives the doubles of n calls of random(), so the
    block size does not change them."""
    rng = rng_spec.substream(trial_index, ROLE_POLICY)
    while True:
        yield from rng.random(_FLAG_BLOCK).tolist()


POLICY_NAMES = ("lr", "rrnc", "rs")


def conflict_rule(policy: str, members: dict[int, int], occupied: list[int], batch_of: list[int], uniforms):
    """One trial's kernel, mapping (first, live) of a conflict slot to a batch.

    lr: the least-received rule, the smallest batch id among connected
    receivers.
    rrnc: round-robin over receiver ids, serving the batch of the smallest
    connected receiver id strictly greater than the previous pick (-1
    before the first conflict slot), wrapping to the smallest connected id
    when none is greater.
    rs: the random rule, batch b with probability (#connected at b) /
    (#connected): the inverse CDF of one value of uniforms per call over
    batch ids in increasing order.
    """
    if policy == "lr":
        return lambda first, live: first
    if policy == "rs":

        def pick(first, live):
            u = next(uniforms)
            total = live.bit_count()
            acc = 0.0
            for batch in occupied:
                if bits := members[batch] & live:
                    last = batch
                    acc += bits.bit_count() / total
                    if u < acc:
                        return batch
            return last  # u landed in the rounding tail

        return pick
    if policy == "rrnc":
        rr_last = -1

        def pick(first, live):
            nonlocal rr_last
            later = live >> (rr_last + 1) << (rr_last + 1)
            chosen = later or live
            rr_last = (chosen & -chosen).bit_length() - 1
            return batch_of[rr_last]

        return pick
    raise ValueError(f"unknown policy {policy!r}; expected one of {POLICY_NAMES}")


def run_trial(
    config: SystemConfig,
    policy: str,
    rng_spec: RngSpec,
    trial_index: int,
    codec: bool = False,
) -> TrialResult:
    """Simulate one file transfer of an admitted config (see check_run).

    Returns slots to completion and the conflict-slot count.  A codec
    trial runs the held-rows pass first and is replayed with a RankTracker
    per receiver only if a completed block is rank-deficient (see the
    module docstring): it is the one-trial case of a cell's trials.
    """
    if not codec:
        return _run_pass(config, policy, rng_spec, trial_index)
    return _codec_trials(config, policy, rng_spec, [trial_index], lambda result: result)[0]


def _codec_trials(config: SystemConfig, policy: str, rng_spec: RngSpec, indices, keep) -> list:
    """keep(result) of each codec trial in indices, in order.

    Every trial's held-rows pass hands its completed blocks to one _Pool,
    whose last flush follows the last pass; then every trial with a
    rank-deficient block, or whose held-rows pass met MAX_SLOTS, is
    replayed by the eager pass.  Each trial draws from its own substreams
    only, so neither the pooling nor the replay order changes a result.
    """
    args = (config, policy, rng_spec)
    kept = []  # keep(result) per trial, None for a trial to replay
    pool = _Pool(config.K, kept)
    for i in indices:
        try:
            result = _run_pass(*args, i, _HeldRows, pool)
        except SlotCapError:
            result = None  # the eager replay decides whether the trial meets the cap
        kept.append(result and keep(result))
    pool.flush()
    for n, i in enumerate(indices):
        if kept[n] is None:
            kept[n] = keep(_run_pass(*args, i, RankTracker))
    return kept


class _HeldRows:
    """The held-rows pass's tracker: it keeps every row its receiver gets
    for the batch and counts each one as raising the rank."""

    __slots__ = ("raw",)

    def __init__(self, window: int):
        self.raw: list[bytes] = []

    def add(self, coefficients: bytes) -> bool:
        self.raw.append(coefficients)
        return True


class _Pool:
    """A cell's completed held-rows blocks awaiting their rank check.

    kept is the cell's list of per-trial results, so the trial running is
    the one at position len(kept).  Each held K x K block is tagged with
    its trial's position, and a full chunk (rlnc.batch_chunk(K, 0) blocks)
    is rank-checked by one forward elimination (rlnc.full_rank_blocks),
    whatever trials it spans.  A finished trial with a deficient block has
    its entry of kept set to None, marking it for replay; a deficient block
    of the running trial is reported to its pass instead.
    """

    __slots__ = ("window", "chunk", "kept", "rows", "held")

    def __init__(self, window: int, kept: list):
        self.window = window
        self.chunk = batch_chunk(window, 0)
        self.kept = kept
        self.rows = bytearray()  # the held blocks' rows, block after block
        self.held: list[int] = []  # the trial position of each held block

    def add(self, raw: list[bytes]) -> bool:
        """Hold one completed block of the running trial, rank-checking the pool once it
        holds a chunk; False if a block of the running trial is found deficient."""
        self.rows += b"".join(raw)
        self.held.append(len(self.kept))
        return len(self.held) < self.chunk or self.flush()

    def flush(self) -> bool:
        """Rank-check every held block and let them go; False if one of the running trial is deficient."""
        ok = True
        if self.held:
            blocks = np.frombuffer(self.rows, dtype=np.uint8).reshape(len(self.held), self.window, self.window)
            for n in compress(self.held, (~full_rank_blocks(blocks)).tolist()):
                if n < len(self.kept):
                    self.kept[n] = None
                else:
                    ok = False
            self.rows, self.held = bytearray(), []
        return ok


def _run_pass(
    config: SystemConfig,
    policy: str,
    rng_spec: RngSpec,
    trial_index: int,
    tracker=None,
    pool: _Pool | None = None,
) -> TrialResult | None:
    """One pass of the slot loop over a trial, drawing every substream afresh.

    tracker None is ideal mode.  In codec mode it is the class of each
    receiver's per-batch tracker: _HeldRows (or a subclass) for the
    held-rows pass, which hands its completed blocks to the cell's pool and
    returns None as soon as the pool finds one of them rank-deficient, or
    RankTracker (or a subclass) for the eager one, whose trackers decide
    rank themselves, so it rank-checks nothing and takes no pool.  The
    blocks still in the pool when a held-rows pass ends are left to a
    later flush; without a pool the pass checks none.  At the cap the next
    block of _on_blocks raises SlotCapError out of the pass.
    """
    F, K, N = config.F, config.K, config.N
    codec = tracker is not None
    if codec:
        coding_rng = rng_spec.substream(trial_index, ROLE_CODING)
        coding_rng.bit_generator.advance(2 * F)  # the outputs an F x 16-byte source took, so the rows keep their bits
        trackers = [tracker(K) for _ in range(N)]
        rows = coefficient_rows(coding_rng, K)

    left = [K] * N  # packets each receiver still needs of the batch it expects
    batch_of = [0] * N  # the batch each receiver expects
    alive = (1 << N) - 1  # the unfinished receivers
    members = {0: alive}  # batch -> unfinished receivers expecting it
    occupied = [0]  # the keys of members, ascending, updated in place
    pick = conflict_rule(policy, members, occupied, batch_of, _uniforms(rng_spec, trial_index))
    slot = conflicts = 0
    blocks = _on_blocks(rng_spec.substream(trial_index, ROLE_CONNECTIVITY), config)
    block = next(blocks)
    steps = iter(block.masks)
    jumps = not codec and K >= _JUMP_MIN
    stretch = list(range(N)) if jumps else []  # slot 0 opens one: all expect batch 0 and need K packets
    while True:
        while stretch:
            batch = occupied[0]
            block, slot, done = _jump(K, blocks, block, slot, stretch, left)
            alive ^= _move_on(members, occupied, batch_of, batch, done, F // K)
            if not occupied:
                return TrialResult(completion_slots=slot, conflict_slots=conflicts)
            stretch = _stretch(members, occupied, left)
            steps = iter(block.masks[slot - block.base:])
        for on in steps:
            slot += 1
            live = alive & on
            if not live:
                continue
            for batch in occupied:
                if served := members[batch] & on:
                    break
            if served != live:
                conflicts += 1
                batch = pick(batch, live)
                served = members[batch] & on
            if codec:
                coefficients = next(rows)
            done = 0  # served receivers that completed the batch
            while served:  # ascending receiver id
                low = served & -served
                served ^= low
                rid = low.bit_length() - 1
                if codec and not trackers[rid].add(coefficients):
                    continue
                left[rid] -= 1
                if not left[rid]:
                    left[rid] = K
                    done |= low
                    if codec:
                        if pool is not None and not pool.add(trackers[rid].raw):
                            return None
                        trackers[rid] = tracker(K)
            if done:
                alive ^= _move_on(members, occupied, batch_of, batch, done, F // K)
                if not occupied:
                    return TrialResult(completion_slots=slot, conflict_slots=conflicts)
                if jumps:
                    stretch = _stretch(members, occupied, left)
                    if stretch:
                        break
        else:
            block = next(blocks)
            steps = iter(block.masks)


class SlotCapError(RuntimeError):
    """A trial of config still unfinished at MAX_SLOTS."""

    def __init__(self, config: SystemConfig):
        super().__init__(f"no completion after {MAX_SLOTS} slots; config {config}")


def _move_on(
    members: dict[int, int], occupied: list[int], batch_of: list[int], batch: int, done: int, n_batches: int
) -> int:
    """Move the receivers in done from batch to the next one, updating members,
    occupied and batch_of in place, and return those that finished the file:
    done after the last batch, 0 before it."""
    members[batch] ^= done
    if not members[batch]:
        del members[batch]
    finished = done if batch + 1 == n_batches else 0
    if not finished:
        members[batch + 1] = members.get(batch + 1, 0) | done
    occupied[:] = sorted(members)
    while done:  # ascending receiver id
        low = done & -done
        done ^= low
        batch_of[low.bit_length() - 1] = batch + 1
    return finished


def _stretch(members: dict[int, int], occupied: list[int], left: list[int]) -> list[int]:
    """The receivers of a single-batch stretch worth a jump, ascending, or []
    where stepping is cheaper: each must still need at least _JUMP_MIN packets."""
    if len(occupied) > 1:
        return []
    ids, bits = [], members[occupied[0]]
    while bits:  # ascending receiver id
        low = bits & -bits
        bits ^= low
        ids.append(low.bit_length() - 1)
    return ids if min(left[rid] for rid in ids) >= _JUMP_MIN else []


def _jump(K: int, blocks, block: _OnBlock, slot: int, ids: list[int], left: list[int]):
    """Run a single-batch stretch to the first slot at which one of its receivers completes the batch.

    ids are the receivers expecting the batch, which alone are unfinished;
    slot counts the slots done, block holds the next slot or ends at it,
    and blocks yields the ones after it.  No slot of a stretch is a
    conflict, so it draws no policy uniform.  A running count of each
    receiver's ON flags from here finds the event: the first slot at which
    some receiver's count reaches its left.  Each receiver is credited with
    its count at the event, and one that reaches the batch's last packet
    gets left reset to K.  A block without the event is credited whole
    before the next block is read, so a stretch that meets the cap raises
    SlotCapError from blocks, as stepping would.  Returns (block, slot,
    done), done being the set of receivers that completed.
    """
    need = np.array([left[rid] for rid in ids])
    while True:
        if slot - block.base == len(block.masks):
            block = next(blocks)
        got = block.flags[slot - block.base :, ids].cumsum(axis=0)  # each receiver's ON count from here, slot by slot
        reached = (got >= need).any(axis=1)  # some receiver has all it needs
        if reached[-1]:
            break
        need -= got[-1]
        slot += len(got)
    event = int(reached.argmax())
    done = 0
    for rid, n in zip(ids, (need - got[event]).tolist()):
        left[rid] = n or K
        if not n:
            done |= 1 << rid
    return block, slot + event + 1, done


def sweep_coding_window(
    policies,
    configs,
    n_trials: int,
    rng_spec: RngSpec,
    codec: bool = False,
) -> list[SweepCell]:
    """One SweepCell per (policy, config) pair, policy-major order.

    The run is admitted (see the module docstring) before the first
    substream is drawn.  Each cell runs trial indices 0..n_trials-1.
    """
    for policy in policies:
        if policy not in POLICY_NAMES:
            raise ConfigError(f"unknown policy {policy!r}; pick from {','.join(POLICY_NAMES)}")
    require_repeats(n_trials, 2, "--trials")
    require_at_least(rng_spec.master_seed, 0, "--seed")
    for config in configs:
        check_run(config, codec)
    cells = []
    for policy in policies:
        for config in configs:
            if codec:
                slots = _codec_trials(config, policy, rng_spec, range(n_trials), attrgetter("completion_slots"))
            else:
                slots = [run_trial(config, policy, rng_spec, i).completion_slots for i in range(n_trials)]
            times = np.array(slots, dtype=float)
            stddev = float(times.std(ddof=1))
            cells.append(
                SweepCell(policy, config, n_trials, float(times.mean()), stddev, 1.96 * stddev / math.sqrt(n_trials))
            )
    return cells


def write_stats_csv(path, cells) -> None:
    """Dump sweep/simulate results (one row per cell, full float precision)."""
    with open(path, "w", newline="") as fh:
        fh.write("policy,N,F,K,p,n_trials,mean_slots,stddev,ci95_half_width\n")
        for cell in cells:
            c = cell.config
            fh.write(
                f"{cell.policy},{c.N},{c.F},{c.K},{c.p!r},{cell.n_trials},"
                f"{cell.mean!r},{cell.stddev!r},{cell.ci95_half_width!r}\n"
            )
