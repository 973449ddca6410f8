"""Exact completion-time analysis of the two-receiver broadcast process.

The absorbing structure makes the balance equations solvable in a single
backward pass: grouping states by x0 + x1 and walking the groups in
decreasing order, every successor of a state other than its own
self-loop (eliminated algebraically by the 1 / (1 - p_stay) factor)
already holds its final value.  No fixed-point iteration and no stopping
tolerance enter the computation; the only float error is accumulation in
64-bit arithmetic.

The two finished-receiver edges V(x0, F) and V(F, x1) follow one scalar
chain, V = (1 + p * V_next) / p, and are filled before the sweep.  The
sweep then covers the unfinished states only.  On the row-major flat
table of (F+1)^2 states, the unfinished part of one anti-diagonal is a
basic slice with stride F, and its successors V(x0+1, x1), V(x0, x1+1)
and V(x0+1, x1+1) are the same slice shifted by F+1, 1 and F+2; masks
and policy stacks are sliced alike, so each diagonal is a handful of
array expressions over views.

Value tables are dense (F+1) x (F+1) float arrays indexed [x0, x1];
policy tables are int8 arrays holding ``mdp.Action`` values.  The same
sweep minimizes (solve_optimal, which also reads its policy off the
sweep) or evaluates a stack of policy tables (evaluate_policy,
enumerate_policies_oracle).
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mdp import Action, State
from .model import ConfigError, SystemConfig

MAX_STATES = 1 << 23  # (F+1)^2 cap of every table: admits F <= 2895
_ORACLE_CHUNK = 1 << 12  # policies evaluated per batched sweep


class OracleCapacityError(ValueError):
    """Raised when a brute-force enumeration would exceed its policy cap."""


def check_table_size(F: int) -> None:
    """Raise ConfigError when the (F+1)^2 table of a file of F packets passes MAX_STATES."""
    if F > 0 and (F + 1) ** 2 > MAX_STATES:
        raise ConfigError(f"F={F} gives {(F + 1) ** 2} states, over the cap of {MAX_STATES} for exact solving")


class _Kinds(NamedTuple):
    """``mdp.classify`` of the unfinished states, as boolean masks over the [x0, x1] grid.

    The finished-receiver edges x0 = F and x1 = F need no mask: the sweep
    fills them by their own recurrence.
    """

    same: np.ndarray       # both unfinished, equal batch ids
    r0_behind: np.ndarray  # decision: receiver 0 expects the earlier batch
    decision: np.ndarray


def _kinds(config: SystemConfig) -> _Kinds:
    """Classify the whole grid; the entry point of every table computation."""
    if config.N != 2:
        raise ValueError(f"exact solving covers N=2 only, got N={config.N}")
    F, K = config.F, config.K
    check_table_size(F)
    x0 = np.arange(F + 1)[:, None]
    x1 = np.arange(F + 1)[None, :]
    unfinished = (x0 < F) & (x1 < F)
    h0, h1 = x0 // K, x1 // K
    return _Kinds(
        same=unfinished & (h0 == h1),
        r0_behind=unfinished & (h0 < h1),
        decision=unfinished & (h0 != h1),
    )


def _states(mask: np.ndarray) -> list[State]:
    return list(zip(*(axis.tolist() for axis in np.nonzero(mask))))


def decision_states(config: SystemConfig) -> list[State]:
    """All states offering a serve-least/serve-most choice, in lexicographic order."""
    return _states(_kinds(config).decision)


def _lookahead(advance_0, advance_1, r0_behind, config: SystemConfig):
    """(serve_least, serve_most) one-step values from the successors' values.

    `advance_i` holds the value of the state where receiver i gained a
    packet; the arrays may have any common shape.
    """
    lag = np.where(r0_behind, advance_0, advance_1)
    lead = np.where(r0_behind, advance_1, advance_0)
    p, q = config.p, config.q
    denom = 1.0 - q * q
    return (1.0 + p * lag + p * q * lead) / denom, (1.0 + p * q * lag + p * lead) / denom


def _advances(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """values[x0+1, x1] and values[x0, x1+1] over the grid, clamped at F (a finished receiver)."""
    step = np.minimum(np.arange(1, values.shape[0] + 1), values.shape[0] - 1)
    return values[step, :], values[:, step]


def decision_action_values(values: np.ndarray, config: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Values of serving the lagging vs. the leading receiver, over the whole grid.

    Both are one-step lookaheads into the final table `values`.  Returns
    (serve_least, serve_most) grids, NaN wherever there is no decision.
    """
    kinds = _kinds(config)
    v_least, v_most = _lookahead(*_advances(values), kinds.r0_behind, config)
    return np.where(kinds.decision, v_least, np.nan), np.where(kinds.decision, v_most, np.nan)


def _sweep(
    config: SystemConfig,
    policies: np.ndarray | None = None,
    least: np.ndarray | None = None,
    tie_tolerance: float = 0.0,
) -> np.ndarray:
    """Backward induction: the edges by their scalar chain, then the unfinished
    states over the anti-diagonals x0 + x1 = 2F-2, ..., 0.

    `policies` is a (P, F+1, F+1) stack of legal policy tables, each
    evaluated.  Without it the sweep minimizes over the actions, P is 1,
    and the bool array `least` of shape (1, (F+1)^2) receives, at every
    unfinished state, v_least <= v_most + tie_tolerance, where v_least and
    v_most are the lookaheads into the final successor values.  Returns
    the (P, F+1, F+1) value tables.

    Diagonal t holds the unfinished states x0 in [lo, hi]; in the flat
    table they are the slice [lo*F + t, hi*F + t + 1) with stride F.
    """
    kinds = _kinds(config)
    F, p, q = config.F, config.p, config.q
    pq, pp, denom = p * q, p * p, 1.0 - q * q
    side = F + 1
    values = np.zeros((1 if policies is None else len(policies), side, side))
    edge = [0.0]  # edge[k]: k packets left for the one unfinished receiver
    for _ in range(F):
        edge.append((1.0 + p * edge[-1]) / p)
    values[:, :, F] = values[:, F, :] = edge[::-1]
    flat = values.reshape(len(values), -1)
    same, r0_behind = kinds.same.ravel(), kinds.r0_behind.ravel()
    if policies is not None:
        serve_least = (policies == Action.SERVE_LEAST).reshape(len(policies), -1)
    for total in range(2 * F - 2, -1, -1):
        start = max(0, total - F + 1) * F + total
        stop = min(F - 1, total) * F + total + 1
        cells = slice(start, stop, F)
        advance_0 = flat[:, start + side:stop + side:F]
        advance_1 = flat[:, start + 1:stop + 1:F]
        advance_both = flat[:, start + side + 1:stop + side + 1:F]
        v_least, v_most = _lookahead(advance_0, advance_1, r0_behind[cells], config)
        if policies is None:
            decided = np.minimum(v_least, v_most)
            np.less_equal(v_least, v_most + tie_tolerance, out=least[:, cells])
        else:
            decided = np.where(serve_least[:, cells], v_least, v_most)
        flat[:, cells] = np.where(
            same[cells], (1.0 + pq * (advance_0 + advance_1) + pp * advance_both) / denom, decided
        )
    return values


def solve_optimal(config: SystemConfig, tie_tolerance: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Optimal expected-slots-to-completion table and a minimizing policy.

    At decision states the stored value is min(v_least, v_most); ties
    within `tie_tolerance` are resolved toward SERVE_LEAST so the policy
    table is canonical.  The choice is made in the sweep, from the same
    lookaheads ``decision_action_values`` takes from the final table.
    """
    decision = _kinds(config).decision  # refuses a bad config before anything is allocated
    side = config.F + 1
    least = np.zeros((1, side * side), dtype=bool)
    values = _sweep(config, least=least, tie_tolerance=tie_tolerance)[0]
    choice = np.where(least.reshape(side, side), np.int8(Action.SERVE_LEAST), np.int8(Action.SERVE_MOST))
    return values, np.where(decision, choice, np.int8(Action.NO_DECISION))


def lr_policy_table(config: SystemConfig) -> np.ndarray:
    """The least-received rule as a policy table: SERVE_LEAST wherever there is a choice."""
    return np.where(_kinds(config).decision, Action.SERVE_LEAST, Action.NO_DECISION).astype(np.int8)


def evaluate_policy(config: SystemConfig, policy: np.ndarray) -> np.ndarray:
    """Expected-slots table of a fixed policy (same sweep, no minimization)."""
    policy = np.asarray(policy)
    if policy.shape != (config.F + 1, config.F + 1):
        raise ValueError(f"policy table must be {(config.F + 1,) * 2}, got {policy.shape}")
    choices = np.isin(policy, (Action.SERVE_LEAST, Action.SERVE_MOST))
    illegal = np.argwhere(np.where(_kinds(config).decision, ~choices, policy != Action.NO_DECISION))
    if len(illegal):
        s = tuple(illegal[0].tolist())
        raise ValueError(f"illegal policy entry {policy[s]} at state {s}")
    return _sweep(config, policy[None])[0]


def check_lr_optimality(
    config: SystemConfig, values: np.ndarray, tolerance: float = 1e-9
) -> tuple[bool, list[State]]:
    """Certify serve-least beats serve-most at every decision state.

    `values` is the optimal table of `config` (``solve_optimal(config)[0]``).
    Passes iff v_least < v_most + tolerance throughout; returns the
    violating states otherwise.
    """
    v_least, v_most = decision_action_values(values, config)
    violations = _states(_kinds(config).decision & ~(v_least < v_most + tolerance))
    return (not violations, violations)


@dataclass(frozen=True)
class AuditCheck:
    """One inequality family: how many instances were examined and the
    smallest slack seen (negative slack beyond tolerance is a violation)."""

    name: str
    examined: int
    violations: int
    worst_margin: float


@dataclass(frozen=True)
class AuditReport:
    checks: tuple[AuditCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.violations == 0 for c in self.checks)

    def by_name(self, name: str) -> AuditCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _worst(*margins: np.ndarray) -> float:
    return float(min(m.min() for m in margins)) if margins[0].size else float("nan")


def _tally(name: str, margins: np.ndarray, tolerance: float) -> AuditCheck:
    return AuditCheck(name, margins.size, int((margins < -tolerance).sum()), _worst(margins))


def audit_inequalities(config: SystemConfig, values: np.ndarray, tolerance: float = 1e-9) -> AuditReport:
    """Numerically verify the structural properties of the optimal table.

    `values` is the optimal table of `config` (``solve_optimal(config)[0]``).
    Checks, each over index ranges materialized from the config:
      edge_closed_form         V(x0, F) equals (F - x0) / p           (margin: -|error|)
      corner_sandwich          V(F-1, F) < V(F-1, F-1) < V(F-2, F)
      monotone_in_x0           V(x0, x1) > V(x0+1, x1) on the last-batch band
      monotone_in_x1           V(x0, x1) < V(x0, x1-1) on the last-batch band
      balance_preference       V(x0, x1) < V(x0-1, x1+1): imbalance costs time
      decision_sign_equivalence  at decision states the serve-most minus
        serve-least gap and the lead-advance minus lag-advance value gap
        carry the same sign (margin: the smaller of the two gaps).  The
        lookahead formulas make this an identity,
        v_most - v_least = p^2 / (1 - q^2) * (lead - lag),
        so the check guards the lookahead and the table against each other.
      neighbor_implication     whenever both advanced neighbors of a decision
        state prefer serve-least, so does the state itself

    Inequality margins are slack (right side minus left side); a margin
    below -tolerance counts as a violation.
    """
    kinds = _kinds(config)
    F, K, b, p = config.F, config.K, config.b, config.p
    last_band_start = b * K  # first packet index of the final batch
    x0 = np.arange(F + 1)[:, None]
    x1 = np.arange(F + 1)[None, :]

    edge = -np.abs(values[:, F] - (F - np.arange(F + 1)) / p)

    sandwich = np.array(
        [values[F - 1, F - 1] - values[F - 1, F], values[F - 2, F] - values[F - 1, F - 1]] if F >= 2 else []
    )

    i, j = np.nonzero((x1 > last_band_start) & (x0 < x1))
    mono_x0 = values[i, j] - values[i + 1, j]
    mono_x1 = values[i, j - 1] - values[i, j]

    i, j = np.nonzero((x1 >= last_band_start) & (x1 < F) & (x0 >= 1) & (x0 < x1))
    balance = values[i - 1, j + 1] - values[i, j]

    v_least, v_most = decision_action_values(values, config)
    prefer = v_most - v_least  # serve-most minus serve-least gap; NaN off decisions
    advance_0, advance_1 = _advances(values)
    gap = prefer[kinds.decision]
    neighbor_gap = np.where(kinds.r0_behind, advance_1 - advance_0, advance_0 - advance_1)[kinds.decision]
    mismatch = ((gap > tolerance) & (neighbor_gap < -tolerance)) | ((gap < -tolerance) & (neighbor_gap > tolerance))
    signs = AuditCheck("decision_sign_equivalence", gap.size, int(mismatch.sum()), _worst(gap, neighbor_gap))

    prefer_0, prefer_1 = _advances(prefer)  # NaN compares false, so non-decision neighbors drop out
    implied = kinds.decision & (prefer_0 > tolerance) & (prefer_1 > tolerance)

    return AuditReport((
        _tally("edge_closed_form", edge, tolerance),
        _tally("corner_sandwich", sandwich, tolerance),
        _tally("monotone_in_x0", mono_x0, tolerance),
        _tally("monotone_in_x1", mono_x1, tolerance),
        _tally("balance_preference", balance, tolerance),
        signs,
        _tally("neighbor_implication", prefer[implied], tolerance),
    ))


@dataclass(frozen=True)
class OracleResult:
    """Outcome of exhaustive policy enumeration on one instance."""

    decision_states: tuple[State, ...]
    n_policies: int
    best_value: float                       # smallest V(0,0) over all policies
    best_assignment: tuple[int, ...]        # actions over decision_states attaining it
    lr_value: float                         # V(0,0) of serve-least-everywhere
    lr_matches_best: bool


def enumerate_policies_oracle(
    config: SystemConfig, policy_cap: int = 2**20, tolerance: float = 1e-9
) -> OracleResult:
    """Evaluate every deterministic stationary policy and keep the best V(0,0).

    Independent, brute-force certification path: it never consults
    solve_optimal.  Raises OracleCapacityError when 2**D exceeds the cap,
    where D is the number of decision states.  Bit D-1-k of policy n set
    means SERVE_MOST at decision state k; policies are swept in fixed-size batches.
    """
    ds = decision_states(config)
    D = len(ds)
    if D >= policy_cap.bit_length():  # i.e. 2**D > policy_cap, without the huge power
        raise OracleCapacityError(f"{D} decision states give 2**{D} policies, over the cap {policy_cap}")
    n_policies = 2**D
    base = lr_policy_table(config)
    cells = np.flatnonzero(base)  # the decision states, in the order of ds
    msb_first = np.arange(D - 1, -1, -1)
    origin = np.empty(n_policies)
    for start in range(0, n_policies, _ORACLE_CHUNK):
        n = np.arange(start, min(start + _ORACLE_CHUNK, n_policies))
        stack = np.repeat(base[None], len(n), axis=0)
        most = (n[:, None] >> msb_first) & 1
        stack.reshape(len(n), -1)[:, cells] = np.where(most, Action.SERVE_MOST, Action.SERVE_LEAST)
        origin[n] = _sweep(config, stack)[:, 0, 0]
    # Among equal values take the smallest assignment tuple; SERVE_MOST < SERVE_LEAST,
    # so that is the policy with the largest n.
    best = n_policies - 1 - int(np.argmin(origin[::-1]))
    best_value = float(origin[best])
    lr_value = float(origin[0])  # policy 0 is all-SERVE_LEAST
    return OracleResult(
        decision_states=tuple(ds),
        n_policies=n_policies,
        best_value=best_value,
        best_assignment=tuple(
            int(Action.SERVE_MOST if best >> bit & 1 else Action.SERVE_LEAST) for bit in msb_first.tolist()
        ),
        lr_value=lr_value,
        lr_matches_best=abs(lr_value - best_value) <= tolerance,
    )


def write_table_csv(path, values: np.ndarray, actions: np.ndarray) -> None:
    """Dump a value/policy table pair as CSV (x0,x1,value,action; lexicographic rows)."""
    side = values.shape[0]
    with open(path, "w", newline="") as fh:
        fh.write("x0,x1,value,action\n")
        for x0 in range(side):
            for x1 in range(side):
                fh.write(f"{x0},{x1},{float(values[x0, x1])!r},{int(actions[x0, x1])}\n")
