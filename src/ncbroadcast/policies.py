"""Batch-selection rules used by the broadcast simulator.

A rule only matters at a conflict slot, i.e. when at least two connected,
unfinished receivers expect different batches; every rule transmits the
single common batch otherwise.  Selection is over batches: serving a
batch serves every connected receiver that expects it.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

POLICY_NAMES = ("lr", "rrnc", "rs")


@dataclass
class SchedulerInput:
    """Receivers that can use this slot: connected and not yet finished."""

    eligible: list[tuple[int, int]]  # (receiver id, batch id)


@dataclass
class SchedulerState:
    """Per-trial mutable policy state; never share across trials.

    rr_last is the receiver picked at the previous conflict slot (rrnc);
    rng drives the batch draw at conflict slots (rs).
    """

    kind: str
    rr_last: int | None = None
    rng: np.random.Generator | None = None


def is_conflict_slot(inp: SchedulerInput) -> bool:
    return len({batch for _, batch in inp.eligible}) >= 2


def lr_select(inp: SchedulerInput) -> int | None:
    """Least-received rule: the smallest batch id among eligible receivers."""
    if not inp.eligible:
        return None
    return min(batch for _, batch in inp.eligible)


def rrnc_select(inp: SchedulerInput, state: SchedulerState) -> tuple[int | None, SchedulerState]:
    """Round-robin over receiver ids, advancing only at conflict slots.

    At a conflict slot the pick is the smallest eligible receiver id
    strictly greater than the previous pick, wrapping to the smallest
    eligible id when none is greater (or at the first conflict slot).
    """
    if not inp.eligible:
        return None, state
    batch_of = dict(inp.eligible)
    if len(set(batch_of.values())) == 1:
        return next(iter(batch_of.values())), state
    ids = sorted(batch_of)
    later = [r for r in ids if state.rr_last is not None and r > state.rr_last]
    pick = later[0] if later else ids[0]
    state.rr_last = pick
    return batch_of[pick], state


def rs_select(inp: SchedulerInput, state: SchedulerState) -> tuple[int | None, SchedulerState]:
    """Random rule: batch i drawn with probability (#eligible at i) / (#eligible).

    One uniform variate per conflict slot, inverse-CDF over batch ids in
    increasing order; non-conflict slots consume no randomness.
    """
    if not inp.eligible:
        return None, state
    counts = Counter(batch for _, batch in inp.eligible)
    if len(counts) == 1:
        return next(iter(counts)), state
    u = state.rng.random()
    total = len(inp.eligible)
    acc = 0.0
    batches = sorted(counts)
    for batch in batches:
        acc += counts[batch] / total
        if u < acc:
            return batch, state
    return batches[-1], state  # u landed in the rounding tail


def select(inp: SchedulerInput, state: SchedulerState) -> tuple[int | None, SchedulerState]:
    """Dispatch on state.kind; returns (batch or None, state)."""
    if state.kind == "lr":
        return lr_select(inp), state
    if state.kind == "rrnc":
        return rrnc_select(inp, state)
    if state.kind == "rs":
        return rs_select(inp, state)
    raise ValueError(f"unknown policy {state.kind!r}; expected one of {POLICY_NAMES}")
