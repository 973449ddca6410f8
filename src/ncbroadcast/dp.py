"""Exact completion-time analysis of the two-receiver broadcast process.

The absorbing structure makes the balance equations solvable in a single
backward pass: grouping states by x0 + x1 and walking the groups in
decreasing order, every successor of a state other than its own
self-loop (eliminated algebraically) already holds its final value.  No
fixed-point iteration and no stopping tolerance enter the computation;
the only float error is accumulation in 64-bit arithmetic.

The sweep counts U = p * V, the expected number of ON slots, and its
callers divide by p once at the end.  In U the finished-receiver edges
are the integers U(x0, F) = F - x0, and every unfinished state obeys one
Bellman formula, _bellman: U = (1 + q * (U0 + U1) + p * S) / (2 - p),
with U0 and U1 the states where one receiver gained a packet and S the
state after a slot in which both were ON.  Only S depends on the state:
the advance of both in a same-batch state, else the lag or the lead
(receiver behind or ahead served).  No 1 - q^2 is formed, so nothing
cancels at small p.  On the row-major flat table of (F+1)^2 states, the
unfinished part of one anti-diagonal is a basic slice with stride F, and
its successors U(x0+1, x1), U(x0, x1+1) and U(x0+1, x1+1) are the same
slice shifted by F+1, 1 and F+2.  Policy stacks are sliced alike, and
the diagonal's states are classified by comparing a slice of the
batch-id vector x // K with a reversed slice of it, so each diagonal is
a handful of array expressions over views.

Value tables are dense (F+1) x (F+1) float arrays indexed [x0, x1];
a policy holds an ``Action`` code per state.  The same sweep minimizes
(solve_optimal) or evaluates a stack of policies
(enumerate_policies_oracle), and computes values only: solve_optimal
returns the value table alone.  write_table_csv reads the minimizing
policy off that table row block by row block as it writes, serving the
receiver behind where lag <= lead + TOLERANCE.  ``certify`` checks a
solved table: serve-least optimality, on the same lag and lead, and five
structural inequality families, in one pass over row blocks of bounded
size.  The exported policy's ties, the oracle's verdict and every
certify check share one slack, TOLERANCE, in ON slots (V * p), and the
oracle refuses an instance of more than ORACLE_MAX_CAP policies.

Two identities of the solved tables hold bit for bit, because the sweep
applies the same float operations to the same operands:
  corner    a state's value depends only on the packets still missing,
    F - x0 and F - x1, and on K and p.  So for F < F' with K dividing
    both, the table at F, and its policy, are the lower-right (F+1)^2
    corner of the table at F'.  check-lr solves each (K, p) once, at its
    largest F, and certifies every smaller F on that corner.
  mirror    swapping the receivers swaps x0 and x1, and every expression
    of the sweep is symmetric under that swap, so V == V.T and the policy
    equals its transpose.  write_table_csv formats each mirrored value
    once.
"""

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .model import ConfigError, SystemConfig

MAX_STATES = 1 << 23  # (F+1)^2 cap of every table: admits F <= 2895
ORACLE_MAX_CAP = 2**20  # the most policies the oracle enumerates
_ORACLE_CHUNK = 1 << 12  # policies evaluated per batched sweep
_CERTIFY_CELLS = 1 << 18  # grid cells per row block of certify and CSV export (at least one row)
TOLERANCE = 1e-9  # slack in ON slots: the exported policy's ties to SERVE_LEAST, the oracle's and certify's slack


class Action(IntEnum):
    """Batch-selection choices; only nonzero values are real decisions."""

    SERVE_MOST = -1
    NO_DECISION = 0
    SERVE_LEAST = 1


def check_table_size(F: int) -> None:
    """Raise ConfigError when the (F+1)^2 table of a file of F packets passes MAX_STATES."""
    if F > 0 and (F + 1) ** 2 > MAX_STATES:
        raise ConfigError(f"F={F} gives {(F + 1) ** 2} states, over the cap of {MAX_STATES} for exact solving")


def _batches(config: SystemConfig) -> np.ndarray:
    """Batch id x // K of every count x = 0..F; each public entry point calls it once.

    The class of an unfinished state (x0, x1) follows from the two ids: a
    same-batch state where they are equal, else a decision state, with
    receiver 0 behind where its id is the smaller.  The finished-receiver
    edges x0 = F and x1 = F have no class: the sweep fills them in closed
    form.
    """
    if config.N != 2:
        raise ValueError(f"exact solving covers N=2 only, got N={config.N}")
    check_table_size(config.F)
    return np.arange(config.F + 1) // config.K


def _bellman(advance_0, advance_1, both, config: SystemConfig):
    """ON-slot value U of unfinished states from their successors' U values.

    `advance_i` holds U of the state where receiver i gained a packet and
    `both` U of the state after a slot with both receivers ON, each a
    (P, n) stack of one diagonal's successors.
    """
    return (1.0 + config.q * (advance_0 + advance_1) + config.p * both) / (2.0 - config.p)


def _sweep(config: SystemConfig, batches: np.ndarray, serve_least: np.ndarray | None = None) -> np.ndarray:
    """Backward induction in ON slots: the edges in closed form, then the
    unfinished states over the anti-diagonals x0 + x1 = 2F-2, ..., 0, each
    by _bellman.  Returns the (P, F+1, F+1) ON-slot tables U = p * V; each
    caller divides by p.

    `batches` is the caller's ``_batches(config)``.  `serve_least` is a
    (P, (F+1)^2) bool stack of flattened policies, True where a policy
    serves the receiver that is behind; each is evaluated, and only its
    entries at decision states are read.  Without it the sweep minimizes
    over the actions and P is 1: a decision state takes the smaller of its
    two single-advance successors, whichever receiver is behind.

    Diagonal t holds the unfinished states x0 in [lo, hi]; in the flat
    table they are the slice [lo*F + t, hi*F + t + 1) with stride F, and
    their x1 = t - x0 runs down from t - lo to t - hi.
    """
    F = config.F
    side = F + 1
    values = np.zeros((1 if serve_least is None else len(serve_least), side, side))
    values[:, :, F] = values[:, F, :] = np.arange(F, -1, -1)  # U(x, F) = F - x: one ON slot per packet
    flat = values.reshape(len(values), -1)
    for total in range(2 * F - 2, -1, -1):
        lo, hi = max(0, total - F + 1), min(F - 1, total)
        start, stop = lo * F + total, hi * F + total + 1
        cells = slice(start, stop, F)
        h0, h1 = batches[lo:hi + 1], batches[total - hi:total - lo + 1][::-1]
        advance_0 = flat[:, start + side:stop + side:F]
        advance_1 = flat[:, start + 1:stop + 1:F]
        if serve_least is None:
            both = np.minimum(advance_0, advance_1)
        else:  # the lag is advance_0 exactly where receiver 0 is behind
            both = np.where(serve_least[:, cells] == (h0 < h1), advance_0, advance_1)
        both = np.where(h0 == h1, flat[:, start + side + 1:stop + side + 1:F], both)  # same batch: both advance
        flat[:, cells] = _bellman(advance_0, advance_1, both, config)
    return values


def solve_optimal(config: SystemConfig) -> np.ndarray:
    """Optimal expected-slots-to-completion table.

    At decision states the stored value serves whichever of the lag and
    lead successors has the smaller value.  No policy is kept:
    write_table_csv reads a minimizing one off the table.
    """
    values = _sweep(config, _batches(config))[0]
    values /= config.p  # in place: a divided copy would hold the table twice
    return values


@dataclass(frozen=True)
class AuditCheck:
    """One inequality family: how many instances were examined, how many
    violate it, and the smallest margin seen (nan where none was examined)."""

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


class _Tally:
    """Examined count, violation count and smallest margin of one family, summed over blocks."""

    def __init__(self, name: str):
        self.name, self.examined, self.violations, self.worst = name, 0, 0, np.inf

    def add(self, margins: np.ndarray, violations: int | None = None) -> None:
        """Violations default to the margins not at least -TOLERANCE: below it, or nan."""
        self.examined += margins.size
        self.violations += int(margins.size - np.count_nonzero(margins >= -TOLERANCE) if violations is None else violations)
        if margins.size:
            self.worst = np.minimum(self.worst, margins.min())

    def check(self) -> AuditCheck:
        return AuditCheck(self.name, self.examined, self.violations, float(self.worst if self.examined else np.nan))


def certify(config: SystemConfig, values: np.ndarray) -> AuditReport:
    """Certify serve-least optimal and audit the structural properties of the optimal table.

    `values` is the optimal expected-slot table of `config`
    (``solve_optimal(config)``); every family reads it in ON slots,
    U = p * V.  Families, in report order:
      lr_optimality       fails where lag > lead + TOLERANCE (or either is
        nan): where the CSV export serves the receiver ahead; lag and
        lead are U of the successors that serve the receiver behind and
        ahead (margin: lead - lag)
      edge_closed_form    U(x0, F) equals F - x0                 (margin: -|error|)
      corner_sandwich     U(F-1, F) < U(F-1, F-1) < U(F-2, F)
      monotone_in_x0      U(x0, x1) > U(x0+1, x1) on the last-batch band
      monotone_in_x1      U(x0, x1) < U(x0, x1-1) on the last-batch band
      balance_preference  U(x0, x1) < U(x0-1, x1+1): imbalance costs time

    LR is decided on lead and lag, not on the serve-most minus serve-least
    gap of _bellman, p / (2 - p) * (lead - lag), which shrinks with p and
    falls below TOLERANCE at small p.  The other margins are slack (right
    side minus left side); a margin below -TOLERANCE ON slots, or a nan
    one, counts as a violation.  The unfinished rows are walked once, in
    blocks of about _CERTIFY_CELLS cells; each block scales its rows and
    the one below them to ON slots and feeds every family from them.
    """
    batches = _batches(config)
    F, p = config.F, config.p
    last_band_start = F - config.K  # first packet index of the final batch
    tallies = tuple(map(_Tally, (
        "lr_optimality", "edge_closed_form", "corner_sandwich", "monotone_in_x0", "monotone_in_x1",
        "balance_preference",
    )))
    lr, edge, sandwich, mono_x0, mono_x1, balance = tallies
    edge.add(-np.abs(values[:, F] * p - (F - np.arange(F + 1))))
    corner = values[F - 2:, F - 2:] * p  # rows and columns F-2, F-1, F
    sandwich.add(np.array([corner[1, 1] - corner[1, 2], corner[0, 2] - corner[1, 1]] if F >= 2 else []))
    x1 = np.arange(F + 1)
    rows = max(1, _CERTIFY_CELLS // (F + 1))
    for lo in range(0, F, rows):
        hi = min(lo + rows, F)
        n = hi - lo
        u = values[lo:hi + 1] * p  # rows lo .. hi
        x0 = np.arange(lo, hi)[:, None]
        band = (x1 > last_band_start) & (x0 < x1)
        mono_x0.add((u[:n] - u[1:])[band])
        mono_x1.add((u[:n, :F] - u[:n, 1:])[band[:, 1:]])
        band = (x1[:F] >= last_band_start) & (x0 + 1 < x1[:F])
        balance.add((u[:n, 1:] - u[1:, :F])[band])  # U(x0+1, x1) < U(x0, x1+1)

        advance_0, advance_1 = u[1:, :F], u[:n, 1:]
        h0, h1 = batches[lo:hi, None], batches[None, :F]
        decision, r0_behind = h0 != h1, h0 < h1
        lag, lead = np.where(r0_behind, advance_0, advance_1), np.where(r0_behind, advance_1, advance_0)
        lr.add((lead - lag)[decision], violations=np.count_nonzero(decision & ~(lag <= lead + TOLERANCE)))
    return AuditReport(tuple(tally.check() for tally in tallies))


@dataclass(frozen=True)
class OracleResult:
    """Outcome of exhaustive policy enumeration on one instance."""

    n_decision_states: int
    n_policies: int
    best_value: float                       # smallest V(0,0) over all policies
    lr_value: float                         # V(0,0) of serve-least-everywhere
    lr_matches_best: bool


def enumerate_policies_oracle(config: SystemConfig) -> OracleResult:
    """Evaluate every deterministic stationary policy and keep the best V(0,0).

    Brute-force certification path, independent of the minimisation
    only: it never consults solve_optimal, but it evaluates each policy
    with the same _sweep and _bellman that solve_optimal minimizes with.
    Raises ConfigError when 2**D exceeds ORACLE_MAX_CAP,
    where D is the number of decision states.  Bit D-1-k of policy n set
    means SERVE_MOST at decision state k; policies are swept in fixed-size
    batches.
    """
    batches = _batches(config)
    decision = np.zeros((config.F + 1,) * 2, dtype=bool)  # the finished edges hold none
    decision[:-1, :-1] = batches[:-1, None] != batches[None, :-1]
    cells = np.flatnonzero(decision)  # the decision states, in lexicographic order
    D = len(cells)
    if D >= ORACLE_MAX_CAP.bit_length():  # i.e. 2**D > ORACLE_MAX_CAP, without the huge power
        raise ConfigError(f"{D} decision states give 2**{D} policies, over the cap {ORACLE_MAX_CAP}")
    n_policies = 2**D
    msb_first = np.arange(D - 1, -1, -1)
    origin = np.empty(n_policies)
    for start in range(0, n_policies, _ORACLE_CHUNK):
        n = np.arange(start, min(start + _ORACLE_CHUNK, n_policies))
        serve_least = np.ones((len(n), len(batches) ** 2), dtype=bool)
        serve_least[:, cells] = ((n[:, None] >> msb_first) & 1) == 0
        origin[n] = _sweep(config, batches, serve_least)[:, 0, 0] / config.p
    best_value = float(origin.min())
    lr_value = float(origin[0])  # policy 0 is all-SERVE_LEAST
    return OracleResult(
        n_decision_states=D,
        n_policies=n_policies,
        best_value=best_value,
        lr_value=lr_value,
        lr_matches_best=config.p * abs(lr_value - best_value) <= TOLERANCE,
    )


def _reprs(row: np.ndarray) -> list[str]:
    """repr of every float of a 1-d array: the repr of a float list is each repr, joined by ", "."""
    return repr(row.tolist())[1:-1].split(", ") if row.size else []


def write_table_csv(path, config: SystemConfig, values: np.ndarray) -> None:
    """Dump ``solve_optimal(config)`` and a minimizing policy as CSV (x0,x1,value,action; lexicographic rows).

    Rows go out in blocks of about _CERTIFY_CELLS cells.  A block's
    actions are read off its rows and the row below them in ON slots,
    V * p, as certify reads lag and lead: NO_DECISION off the decision
    states, else SERVE_LEAST where lag <= lead + TOLERANCE.  Where a
    block's diagonal square of values equals its transpose bit for bit,
    as every solved table's does, each mirrored pair is formatted once:
    row x0 reprs its cells x1 >= x0 and takes the square's cells x1 < x0
    from the strings of the block's earlier rows, each dropped once used,
    so a block holds at most about a quarter of its square's strings.  The
    strip left of the square, and every row of a block whose square is not
    symmetric, is repr'd in full.
    """
    batches = _batches(config)
    F, side = config.F, config.F + 1
    least, most, no = (np.int8(a) for a in (Action.SERVE_LEAST, Action.SERVE_MOST, Action.NO_DECISION))
    action_text = {a.value: f",{a.value}\n" for a in Action}
    rows = max(1, _CERTIFY_CELLS // side)
    pieces = [""] * (4 * side)  # x0 + ",", x1 + ",", value, "," + action + "\n" of each cell of a row
    pieces[1::4] = [f"{x1}," for x1 in range(side)]
    with open(path, "w", newline="") as fh:
        fh.write("x0,x1,value,action\n")
        for lo in range(0, side, rows):
            hi = min(lo + rows, side)
            top = min(hi, F)  # the block's unfinished rows are lo .. top-1
            u = values[lo:top + 1] * config.p
            advance_0, advance_1 = u[1:, :F], u[:-1, 1:]
            h0, h1 = batches[lo:top, None], batches[None, :F]
            lag_wins = np.where(h0 < h1, advance_0 <= advance_1 + TOLERANCE, advance_1 <= advance_0 + TOLERANCE)
            actions = np.full((hi - lo, side), no)  # row F and column F: NO_DECISION
            actions[:top - lo, :F] = np.where(h0 == h1, no, np.where(lag_wins, least, most))
            del u, advance_0, advance_1, lag_wins  # so the block's floats are not held while it is formatted
            square = values[lo:hi, lo:hi]
            mirrored = np.array_equal(square.view(np.int64), square.T.view(np.int64))
            pending = []  # per earlier row of the block: its square's reprs not yet mirrored, last column first
            for x0 in range(lo, hi):
                if mirrored:
                    right = _reprs(values[x0, x0:])
                    pieces[2::4] = _reprs(values[x0, :lo]) + [reprs.pop() for reprs in pending] + right
                    pending.append(right[hi - x0 - 1:0:-1])
                else:
                    pieces[2::4] = _reprs(values[x0])
                pieces[0::4] = [f"{x0},"] * side
                pieces[3::4] = map(action_text.__getitem__, actions[x0 - lo].tolist())
                fh.write("".join(pieces))
