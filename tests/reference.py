"""Independent references the tests hold the package against.

None of this is part of ncbroadcast: no command runs it.  It is kept
apart from the fast paths so that each check compares two computations
that share no code.

- The scalar two-receiver decision process (batch_id, classify,
  legal_actions, reward, transitions).  A state (x0, x1) holds each
  receiver's decoded-packet count.  The base station only has a real
  choice when the receivers expect different batches and neither has
  finished; in every other state the slot's outcome is forced by
  connectivity alone.  Transition probabilities follow from the per-slot
  Bernoulli(p) ON flags: a receiver advances exactly when it is ON and
  the transmitted batch is the one it expects, and when both receivers
  are ON at a decision state the chosen action names which one is
  preferred.
- A dense N=2 policy evaluation built on that kernel
  (linear_solve_policy, lookahead), the policy tables to feed it
  (decision_states, lr_policy_table, all_policy_tables) and the
  lag and lead of a decision state on a finished table (lag_lead), and
  the solver's tie rule applied state by state (lag_lead_actions).
- The per-row coefficient draw (per_row_coefficients) that
  rlnc.coefficient_rows is pinned against, and a one-packet-at-a-time
  GF(256) decoder (Eliminator) that the codec's rank tracking, block
  eliminations and codec-mode trials are held against.
- The batch-selection kernels over a conflict slot's hits list (lr_pick,
  rrnc_pick, rs_pick and their dispatch hits_rule) that the simulator's
  kernels in sim.conflict_rule, which read the trial's receiver sets, are
  held against.
"""

import itertools
from enum import Enum, unique

import numpy as np

from ncbroadcast.dp import Action
from ncbroadcast.model import SystemConfig
from ncbroadcast.rlnc import _INV, _MUL
from ncbroadcast.sim import POLICY_NAMES

State = tuple[int, int]


def batch_id(x: int, config: SystemConfig) -> int:
    """Index of the batch a receiver holding x packets expects next.

    For x = F the result F // K is one past the last batch and marks a
    finished receiver.
    """
    if not 0 <= x <= config.F:
        raise ValueError(f"received count {x} outside [0, {config.F}]")
    return x // config.K


@unique
class StateKind(Enum):
    SAME_BATCH = "same-batch"        # both unfinished, equal batch ids
    RECEIVER_0_BEHIND = "r0-behind"  # decision: receiver 0 expects the earlier batch
    RECEIVER_1_BEHIND = "r1-behind"  # decision: receiver 1 expects the earlier batch
    ONLY_0_UNFINISHED = "only-r0"    # receiver 1 holds the whole file
    ONLY_1_UNFINISHED = "only-r1"    # receiver 0 holds the whole file
    COMPLETE = "complete"            # absorbing: both hold the whole file

    @property
    def is_decision(self) -> bool:
        return self in (StateKind.RECEIVER_0_BEHIND, StateKind.RECEIVER_1_BEHIND)


def _check_state(s: State, config: SystemConfig) -> None:
    x0, x1 = s
    if not (0 <= x0 <= config.F and 0 <= x1 <= config.F):
        raise ValueError(f"state {s} outside [0, {config.F}]^2")


def classify(s: State, config: SystemConfig) -> StateKind:
    """Total classification of a state; exactly one kind applies."""
    _check_state(s, config)
    x0, x1 = s
    F = config.F
    if x0 == F and x1 == F:
        return StateKind.COMPLETE
    if x0 == F:
        return StateKind.ONLY_1_UNFINISHED
    if x1 == F:
        return StateKind.ONLY_0_UNFINISHED
    h0 = batch_id(x0, config)
    h1 = batch_id(x1, config)
    if h0 == h1:
        return StateKind.SAME_BATCH
    return StateKind.RECEIVER_0_BEHIND if h0 < h1 else StateKind.RECEIVER_1_BEHIND


def legal_actions(s: State, config: SystemConfig) -> set[Action]:
    if classify(s, config).is_decision:
        return {Action.SERVE_LEAST, Action.SERVE_MOST}
    return {Action.NO_DECISION}


def reward(s: State, config: SystemConfig) -> float:
    """Per-slot delay contribution: 1 everywhere except the absorbing state."""
    _check_state(s, config)
    return 0.0 if s == (config.F, config.F) else 1.0


def transitions(s: State, u: Action, config: SystemConfig) -> list[tuple[State, float]]:
    """Sparse next-state distribution for action u at state s.

    Entries with probability zero are omitted so degenerate channels
    (p = 1) stay valid; the absorbing state has no outgoing distribution.
    """
    kind = classify(s, config)
    if kind is StateKind.COMPLETE:
        raise ValueError("absorbing state has no outgoing transitions")
    if u not in legal_actions(s, config):
        raise ValueError(f"action {u!r} is illegal at state {s} ({kind.value})")

    x0, x1 = s
    p, q = config.p, config.q
    entries: list[tuple[State, float]] = []

    def add(state: State, prob: float) -> None:
        if prob > 0.0:
            entries.append((state, prob))

    if kind is StateKind.SAME_BATCH:
        add((x0 + 1, x1 + 1), p * p)
        add((x0 + 1, x1), p * q)
        add((x0, x1 + 1), q * p)
        add((x0, x1), q * q)
    elif kind is StateKind.ONLY_0_UNFINISHED:
        add((x0 + 1, x1), p)
        add((x0, x1), q)
    elif kind is StateKind.ONLY_1_UNFINISHED:
        add((x0, x1 + 1), p)
        add((x0, x1), q)
    else:
        # Decision state: the preferred receiver advances whenever it is ON;
        # the other one only advances when it is ON alone.
        serving_lagging = u is Action.SERVE_LEAST
        p_lag = p if serving_lagging else p * q
        p_lead = p * q if serving_lagging else p
        if kind is StateKind.RECEIVER_0_BEHIND:
            add((x0 + 1, x1), p_lag)
            add((x0, x1 + 1), p_lead)
        else:
            add((x0, x1 + 1), p_lag)
            add((x0 + 1, x1), p_lead)
        add((x0, x1), q * q)
    return entries


def linear_solve_policy(cfg, policy):
    """Evaluate a fixed policy with a dense generic linear solver."""
    side = cfg.F + 1
    states = [(x0, x1) for x0 in range(side) for x1 in range(side)]
    index = {s: i for i, s in enumerate(states)}
    A = np.zeros((len(states), len(states)))
    b = np.zeros(len(states))
    for i, s in enumerate(states):
        A[i, i] = 1.0
        if s == (cfg.F, cfg.F):
            continue
        b[i] = reward(s, cfg)
        for nxt, pr in transitions(s, Action(int(policy[s])), cfg):
            A[i, index[nxt]] -= pr
    return np.linalg.solve(A, b).reshape(side, side)


def lookahead(values, s, action, cfg):
    """One-step value of `action` at `s` from the transition kernel, its self-loop solved out."""
    stay = sum(pr for nxt, pr in transitions(s, action, cfg) if nxt == s)
    move = sum(pr * values[nxt] for nxt, pr in transitions(s, action, cfg) if nxt != s)
    return (reward(s, cfg) + move) / (1.0 - stay)


def lag_lead(u, s, cfg):
    """(lag, lead) at decision state s: u at the successors that serve the receiver behind and ahead.

    `u` is an ON-slot table u = p * V, indexed u[x0][x1].
    """
    x0, x1 = s
    advance_0, advance_1 = u[x0 + 1][x1], u[x0][x1 + 1]
    return (advance_0, advance_1) if classify(s, cfg) is StateKind.RECEIVER_0_BEHIND else (advance_1, advance_0)


def lag_lead_actions(u, cfg, tolerance):
    """The solver's action rule, state by state, on an ON-slot table u = p * V.

    SERVE_LEAST at a decision state where lag <= lead + tolerance,
    SERVE_MOST at the other decision states, NO_DECISION elsewhere.
    """
    rows = u.tolist()
    table = np.full((cfg.F + 1, cfg.F + 1), Action.NO_DECISION, dtype=np.int8)
    for s in decision_states(cfg):
        lag, lead = lag_lead(rows, s, cfg)
        table[s] = Action.SERVE_LEAST if lag <= lead + tolerance else Action.SERVE_MOST
    return table


def decision_states(cfg):
    """All states offering a serve-least/serve-most choice, by the scalar classification, lexicographic."""
    side = range(cfg.F + 1)
    return [(x0, x1) for x0 in side for x1 in side if classify((x0, x1), cfg).is_decision]


def lr_policy_table(cfg):
    """The least-received rule as a policy table: SERVE_LEAST wherever there is a choice."""
    table = np.full((cfg.F + 1, cfg.F + 1), Action.NO_DECISION, dtype=np.int8)
    for s in decision_states(cfg):
        table[s] = Action.SERVE_LEAST
    return table


def all_policy_tables(cfg):
    base = lr_policy_table(cfg)
    ds = decision_states(cfg)
    for bits in itertools.product((Action.SERVE_LEAST, Action.SERVE_MOST), repeat=len(ds)):
        table = base.copy()
        for s, a in zip(ds, bits):
            table[s] = a
        yield table


def per_row_coefficients(gen, window: int) -> np.ndarray:
    """Reference coefficient row: K bytes from one uint8 draw, redrawn while all zero.

    The independent definition that rlnc.coefficient_rows, and with it the
    coding streams of the simulator and of codec validation, is pinned
    against (TestEncode::test_row_blocks_match_per_row_draws).
    """
    coeffs = gen.integers(0, 256, size=window, dtype=np.uint8)
    while not coeffs.any():
        coeffs = gen.integers(0, 256, size=window, dtype=np.uint8)
    return coeffs


class Eliminator:
    """Reference decoder, one packet at a time: rows (coefficients || payload)
    kept in reduced row-echelon form, keyed by pivot column, each with a 1 at
    its pivot and zeros at every other pivot.  Its GF(256) tables, rlnc._MUL
    and rlnc._INV, are checked exhaustively against scalar long
    multiplication in test_rlnc."""

    def __init__(self, window: int):
        self.window = window
        self.rows: dict[int, np.ndarray] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def ingest(self, row: np.ndarray) -> bool:
        """Fold in one uint8 row; True iff it raised the rank."""
        row = row.copy()
        for col, stored in self.rows.items():
            row ^= _MUL[row[col], stored]
        nonzero = np.flatnonzero(row[: self.window])
        if not nonzero.size:
            return False
        lead = int(nonzero[0])
        row = _MUL[_INV[row[lead]], row]
        for col, stored in self.rows.items():
            self.rows[col] = stored ^ _MUL[stored[lead], row]
        self.rows[lead] = row
        return True

    def recover(self) -> np.ndarray:
        """The K x L source, once the rank is K."""
        return np.array([self.rows[col][self.window:] for col in range(self.window)])


def lr_pick(hits: list[tuple[int, int]]) -> int:
    """Least-received rule: the smallest batch id among connected receivers.

    A conflict slot's hits are its (batch, bits) pairs in ascending batch
    order, bit i of bits set when receiver i is connected and expects that
    batch."""
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


def hits_rule(policy: str, uniforms):
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
