"""Batch-selection rules of the broadcast simulator, as integer kernels.

A rule only matters at a conflict slot, i.e. when at least two connected,
unfinished receivers expect different batches; the simulator sends the
single common batch otherwise.  Sets of receivers are Python ints, bit i
standing for receiver i.  A trial's kernel is built over that trial's
receiver state, which the simulator updates in place: members (batch ->
the unfinished receivers expecting it), occupied (the keys of members,
ascending) and batch_of (receiver -> the batch it expects).  At a
conflict slot the kernel is called with first, the smallest batch with a
connected receiver, and live, the connected unfinished receivers, and
returns the batch to send.  Serving a batch serves every connected
receiver that expects it.
"""

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
