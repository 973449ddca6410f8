"""Monte Carlo engine for N-receiver broadcast over per-slot ON/OFF channels.

Each slot: draw one Bernoulli(p) flag per receiver, hand the connected
unfinished receivers to the scheduling policy, and deliver the encoded
packet of the chosen batch to every connected receiver expecting it.
Idealized mode counts every delivery as one packet of progress; codec
mode pushes a freshly encoded GF(256) packet through a real decoder and
counts progress only when the rank grows.

Reproducibility contract: a trial draws from three private substreams
derived as SeedSequence((master_seed, trial_index, role)) with roles
0 = connectivity, 1 = policy, 2 = coding.  Results therefore depend only
on (master_seed, trial_index), never on execution order, and the
connectivity sequence is identical across policies, modes and window
sizes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import SystemConfig, validate_config
from .policies import POLICY_NAMES, SchedulerInput, SchedulerState, is_conflict_slot, select
from .rlnc import DecoderState, encode

ROLE_CONNECTIVITY = 0
ROLE_POLICY = 1
ROLE_CODING = 2

MAX_SLOTS = 10**9
DEFAULT_PACKET_LEN = 16
_FLAG_BLOCK = 1024


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
class ExperimentStats:
    n_trials: int
    mean: float
    stddev: float
    ci95_half_width: float


@dataclass(frozen=True)
class SweepCell:
    """One (policy, window) cell of a sweep, ready for CSV export."""

    policy: str
    config: SystemConfig
    stats: ExperimentStats


def run_trial(
    config: SystemConfig,
    policy: str,
    rng_spec: RngSpec,
    trial_index: int,
    mode: str = "ideal",
    packet_len: int = DEFAULT_PACKET_LEN,
) -> TrialResult:
    """Simulate one file transfer; returns slots to completion and conflict-slot count."""
    if policy not in POLICY_NAMES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICY_NAMES}")
    if mode not in ("ideal", "codec"):
        raise ValueError(f"mode must be 'ideal' or 'codec', got {mode!r}")
    F, K, N, p = config.F, config.K, config.N, config.p
    connectivity = rng_spec.substream(trial_index, ROLE_CONNECTIVITY)
    state = SchedulerState(kind=policy, rng=rng_spec.substream(trial_index, ROLE_POLICY))
    codec = mode == "codec"
    if codec:
        coding_rng = rng_spec.substream(trial_index, ROLE_CODING)
        source = coding_rng.integers(0, 256, size=(F, packet_len), dtype=np.uint8)
        decoders: list[DecoderState | None] = [None] * N

    received = [0] * N
    unfinished = N
    slot = 0
    conflicts = 0
    flags = None
    cursor = _FLAG_BLOCK
    while unfinished:
        if cursor == _FLAG_BLOCK:
            flags = connectivity.random((_FLAG_BLOCK, N)) < p
            cursor = 0
        row = flags[cursor]
        cursor += 1
        eligible = [(i, received[i] // K) for i in range(N) if row[i] and received[i] < F]
        inp = SchedulerInput(eligible)
        if is_conflict_slot(inp):
            conflicts += 1
        chosen, state = select(inp, state)
        if chosen is not None:
            if codec:
                packet = encode(source[chosen * K : (chosen + 1) * K], coding_rng, batch=chosen)
            for rid, batch in eligible:
                if batch != chosen:
                    continue
                if not codec:
                    received[rid] += 1
                else:
                    decoder = decoders[rid]
                    if decoder is None:
                        decoder = decoders[rid] = DecoderState(chosen, K, packet_len)
                    if decoder.ingest(packet):
                        received[rid] += 1
                        if decoder.rank == K:
                            _verify_batch(decoder, source, chosen, K)
                            decoders[rid] = None
                if received[rid] == F:
                    unfinished -= 1
        slot += 1
        if slot >= MAX_SLOTS:
            raise RuntimeError(f"no completion after {MAX_SLOTS} slots; config {config}")
    return TrialResult(completion_slots=slot, conflict_slots=conflicts)


def _verify_batch(decoder: DecoderState, source: np.ndarray, batch: int, K: int) -> None:
    recovered = decoder.recover()
    expected = source[batch * K : (batch + 1) * K]
    for i in range(K):
        if recovered[i] != expected[i].tobytes():
            raise RuntimeError(f"decoded batch {batch} does not match its source packets")


def completion_times(
    config: SystemConfig,
    policy: str,
    n_trials: int,
    rng_spec: RngSpec,
    mode: str = "ideal",
    packet_len: int = DEFAULT_PACKET_LEN,
) -> np.ndarray:
    """Per-trial completion slots for trial indices 0..n_trials-1."""
    return np.array(
        [
            run_trial(config, policy, rng_spec, i, mode=mode, packet_len=packet_len).completion_slots
            for i in range(n_trials)
        ],
        dtype=np.int64,
    )


def stats_from_times(times: np.ndarray) -> ExperimentStats:
    """Mean, sample stddev and normal-approximation 95% half width."""
    n = len(times)
    if n < 2:
        raise ValueError("need at least 2 trials for a sample standard deviation")
    arr = np.asarray(times, dtype=float)
    stddev = float(arr.std(ddof=1))
    return ExperimentStats(
        n_trials=n,
        mean=float(arr.mean()),
        stddev=stddev,
        ci95_half_width=1.96 * stddev / math.sqrt(n),
    )


def run_experiment(
    config: SystemConfig,
    policy: str,
    n_trials: int,
    rng_spec: RngSpec,
    mode: str = "ideal",
    packet_len: int = DEFAULT_PACKET_LEN,
) -> ExperimentStats:
    return stats_from_times(completion_times(config, policy, n_trials, rng_spec, mode, packet_len))


def sweep_coding_window(
    file_size: int,
    receivers: int,
    p: float,
    policies,
    windows,
    n_trials: int,
    rng_spec: RngSpec,
    mode: str = "ideal",
    packet_len: int = DEFAULT_PACKET_LEN,
) -> list[SweepCell]:
    """One ExperimentStats per (policy, window) pair, policy-major order."""
    configs = {}
    for K in windows:
        configs[K] = validate_config(file_size, K, receivers, p)  # raises ConfigError on bad K
    cells = []
    for policy in policies:
        for K in windows:
            stats = run_experiment(configs[K], policy, n_trials, rng_spec, mode, packet_len)
            cells.append(SweepCell(policy=policy, config=configs[K], stats=stats))
    return cells


def write_stats_csv(path, cells) -> None:
    """Dump sweep/simulate results (one row per cell, full float precision)."""
    with open(path, "w", newline="") as fh:
        fh.write("policy,N,F,K,p,n_trials,mean_slots,stddev,ci95_half_width\n")
        for cell in cells:
            c, s = cell.config, cell.stats
            fh.write(
                f"{cell.policy},{c.N},{c.F},{c.K},{c.p!r},{s.n_trials},"
                f"{s.mean!r},{s.stddev!r},{s.ci95_half_width!r}\n"
            )
