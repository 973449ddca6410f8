"""System parameters for broadcasting a segmented file.

A file of F packets is cut into consecutive batches of K packets each
(F must be a multiple of K).  A receiver's progress is counted in decoded
packets; the batch it currently expects is ``received // K``, and packets
encoded from any other batch are useless to it.
"""

from dataclasses import dataclass


MAX_REPEATS = 10**6  # the most trials per cell, or codec-validate batches, that one run admits


class ConfigError(ValueError):
    """Raised when scenario parameters violate the model assumptions."""


def require_at_least(value: int, minimum: int, flag: str) -> None:
    """Raise ConfigError naming the command-line `flag` unless value >= minimum."""
    if value < minimum:
        raise ConfigError(f"{flag} must be at least {minimum}, got {value}")


def require_repeats(value: int, minimum: int, flag: str) -> None:
    """Raise ConfigError naming the repeat-count `flag` unless minimum <= value <= MAX_REPEATS.

    The bound keeps every admitted run's repeat loop finite: at
    MAX_REPEATS, N=2 trials at F=4 take about 40 s in all, and K=16 codec
    batches of 64-byte packets about 70 s (2-core x86 machine, scaled from
    2*10^4 repeats).
    """
    require_at_least(value, minimum, flag)
    if value > MAX_REPEATS:
        raise ConfigError(f"{flag} must be at most {MAX_REPEATS}, got {value}")


@dataclass(frozen=True)
class SystemConfig:
    """Immutable parameter record for one broadcast scenario.

    Attributes:
        F: file size in packets.
        K: coding window (batch) size in packets; must divide F.
        N: number of receivers.
        p: per-slot, per-receiver ON probability, 0 < p <= 1.
    """

    F: int
    K: int
    N: int
    p: float

    @property
    def q(self) -> float:
        """OFF probability 1 - p."""
        return 1.0 - self.p


def validate_config(F: int, K: int, N: int, p: float) -> SystemConfig:
    """Check raw parameters.

    p = 0 is rejected (the transfer would never finish), and so is a p whose
    1 - p rounds to 1.0 (q = 1 - p is not representable, so the model's p
    and q would not sum to one); p = 1 is the degenerate always-on channel
    and is allowed.
    """
    for name, value in (("F", F), ("K", K), ("N", N)):
        if value <= 0:
            raise ConfigError(f"{name} must be positive, got {name}={value}")
    if not 0.0 < p <= 1.0:
        raise ConfigError(f"ON probability must satisfy 0 < p <= 1, got p={p}")
    if 1.0 - p == 1.0:
        raise ConfigError(f"ON probability p={p} is too small: 1 - p rounds to 1.0")
    if F % K != 0:
        raise ConfigError(f"file size must be a multiple of the window size, got F={F} K={K}")
    return SystemConfig(F=F, K=K, N=N, p=float(p))

