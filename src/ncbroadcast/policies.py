"""Batch-selection rules of the broadcast simulator, as integer kernels.

A rule only matters at a conflict slot, i.e. when at least two connected,
unfinished receivers expect different batches; the simulator sends the
single common batch otherwise.  A kernel sees a conflict slot as its
hits: (batch, bits) pairs in ascending batch order, bit i of bits set
when receiver i is connected and expects that batch.  Serving a batch
serves every connected receiver that expects it.
"""

POLICY_NAMES = ("lr", "rrnc", "rs")


def lr_pick(hits: list[tuple[int, int]]) -> int:
    """Least-received rule: the smallest batch id among connected receivers."""
    return hits[0][0]


def rrnc_pick(hits: list[tuple[int, int]], rr_last: int) -> tuple[int, int]:
    """Round-robin over receiver ids; returns (batch, new rr_last).

    The pick is the smallest connected receiver id strictly greater than
    rr_last, the previous pick (-1 before the first conflict slot),
    wrapping to the smallest connected id when none is greater.
    """
    connected = 0
    for _, bits in hits:
        connected |= bits
    later = connected >> (rr_last + 1) << (rr_last + 1)
    lowest = (later or connected) & -(later or connected)
    for batch, bits in hits:
        if bits & lowest:
            return batch, lowest.bit_length() - 1


def rs_pick(hits: list[tuple[int, int]], u: float) -> int:
    """Random rule: batch i with probability (#connected at i) / (#connected).

    Inverse CDF of the uniform u over batch ids in increasing order.
    """
    total = 0
    for _, bits in hits:
        total += bits.bit_count()
    acc = 0.0
    for batch, bits in hits:
        acc += bits.bit_count() / total
        if u < acc:
            return batch
    return hits[-1][0]  # u landed in the rounding tail


def conflict_rule(policy: str, uniforms):
    """One trial's rule, mapping the hits of a conflict slot to a batch; rrnc
    keeps rr_last between calls and rs takes one value of uniforms per call."""
    if policy == "lr":
        return lr_pick
    if policy == "rs":
        return lambda hits: rs_pick(hits, next(uniforms))
    if policy == "rrnc":
        rr_last = -1

        def pick(hits):
            nonlocal rr_last
            batch, rr_last = rrnc_pick(hits, rr_last)
            return batch

        return pick
    raise ValueError(f"unknown policy {policy!r}; expected one of {POLICY_NAMES}")
