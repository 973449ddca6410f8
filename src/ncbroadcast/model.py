"""System parameters and batch arithmetic for broadcasting a segmented file.

A file of F packets is cut into consecutive batches of K packets each
(F must be a multiple of K).  A receiver's progress is counted in decoded
packets; the batch it currently expects is ``received // K``, and packets
encoded from any other batch are useless to it.
"""

from dataclasses import dataclass


class ConfigError(ValueError):
    """Raised when scenario parameters violate the model assumptions."""


@dataclass(frozen=True)
class SystemConfig:
    """Immutable parameter record for one broadcast scenario.

    Attributes:
        F: file size in packets.
        K: coding window (batch) size in packets; must divide F.
        N: number of receivers.
        p: per-slot, per-receiver ON probability, 0 < p <= 1.
        q: complement 1 - p.
        b: number of batches minus one, F // K - 1.
    """

    F: int
    K: int
    N: int
    p: float
    q: float
    b: int


def validate_config(F: int, K: int, N: int, p: float) -> SystemConfig:
    """Check raw parameters and derive q and b.

    p = 0 is rejected (the transfer would never finish); p = 1 is the
    degenerate always-on channel and is allowed.
    """
    if F <= 0 or K <= 0 or N <= 0:
        raise ConfigError(f"F, K and N must be positive, got F={F} K={K} N={N}")
    if not 0.0 < p <= 1.0:
        raise ConfigError(f"ON probability must satisfy 0 < p <= 1, got p={p}")
    if F % K != 0:
        raise ConfigError(f"file size must be a multiple of the window size, got F={F} K={K}")
    return SystemConfig(F=F, K=K, N=N, p=float(p), q=1.0 - float(p), b=F // K - 1)


def batch_id(x: int, config: SystemConfig) -> int:
    """Index of the batch a receiver holding x packets expects next.

    For x = F the result F // K is one past the last batch and marks a
    finished receiver.
    """
    if not 0 <= x <= config.F:
        raise ValueError(f"received count {x} outside [0, {config.F}]")
    return x // config.K


def batch_packet_range(i: int, config: SystemConfig) -> tuple[int, int]:
    """First and last packet index covered by batch i."""
    if not 0 <= i <= config.b:
        raise ValueError(f"batch index {i} outside [0, {config.b}]")
    return i * config.K, (i + 1) * config.K - 1
