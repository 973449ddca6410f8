"""Independent references the benchmark checks the program's outputs against.

Nothing here imports ncbroadcast.  Each reference is derived from the
model itself (per-slot Bernoulli(p) ON flags, batches of K packets,
uniform nonzero GF(256) coefficient vectors), so a fault shared by the
program and its own tests still shows up as a failed check.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

# Successor moves (dx0, dx1) of a two-receiver state; index m = 2*dx0 + dx1.
MOVES = ((0, 0), (0, 1), (1, 0), (1, 1))
SERVE_LEAST, SERVE_MOST = 0, 1  # action axis of the transition law
CSV_ACTION = {SERVE_LEAST: 1, SERVE_MOST: -1}  # documented CSV codes; 0 = no decision


def kf_completion_moments(N: int, F: int, p: float) -> tuple[float, float]:
    """Exact mean and variance of the completion slot T when K = F, for any N.

    With one batch every policy sends the same packet, so each receiver
    finishes at its F-th ON slot independently of the others and
    P(T <= t) = P(Bin(t, p) >= F)**N.  Then E[T] = sum over t >= 0 of
    P(T > t) = 1 - P(Bin(t, p) >= F)**N and E[T^2] = sum of (2t + 1) P(T > t),
    evaluated by stepping the distribution of min(successes, F) one slot
    at a time.
    """
    if N < 1 or F < 1 or not 0.0 < p <= 1.0:
        raise ValueError(f"need N >= 1, F >= 1 and 0 < p <= 1, got N={N} F={F} p={p}")
    q = 1.0 - p
    pmf = np.zeros(F + 1)
    pmf[0] = 1.0
    first = second = 0.0
    for t in range(int(50 * F / p) + 1000):
        below = float(pmf[:F].sum())  # P(Bin(t, p) < F)
        tail = -math.expm1(N * math.log1p(-below)) if below < 1.0 else 1.0  # P(T > t)
        if tail < 1e-17:
            return first, second - first * first
        first += tail
        second += (2 * t + 1) * tail
        step = q * pmf
        step[1:] += p * pmf[:-1]
        step[F] += p * pmf[F]  # F successes is absorbing
        pmf = step
    raise RuntimeError(f"E[T] series did not converge for N={N} F={F} p={p}")


def transition_law(F: int, K: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Two-receiver transition law over the whole state grid.

    Returns (law, decision): law[a, m, x0, x1] is the probability that
    state (x0, x1) moves by MOVES[m] in one slot under action a
    (SERVE_LEAST or SERVE_MOST), and decision marks the states where the
    action matters.  The law is built from the four ON/OFF outcomes of a
    slot: a receiver is eligible when it is ON and unfinished, a lone
    eligible receiver is always served, two eligible receivers on the
    same batch both advance, and on different batches only the one the
    action names advances.  The absorbing state (F, F) has no moves.
    """
    x0, x1 = np.meshgrid(np.arange(F + 1), np.arange(F + 1), indexing="ij")
    open0, open1 = x0 < F, x1 < F
    lag0 = x0 // K < x1 // K
    decision = open0 & open1 & (x0 // K != x1 // K)
    q = 1.0 - p
    law = np.zeros((2, 4, F + 1, F + 1))
    for on0, on1 in itertools.product((False, True), repeat=2):
        weight = (p if on0 else q) * (p if on1 else q)
        e0, e1 = open0 & on0, open1 & on1
        contested = e0 & e1 & decision
        for action, serve0 in ((SERVE_LEAST, lag0), (SERVE_MOST, ~lag0)):
            adv0 = e0 & (~contested | serve0)
            adv1 = e1 & (~contested | ~serve0)
            move = 2 * adv0.astype(int) + adv1.astype(int)
            for m in range(4):
                law[action, m] += weight * (move == m)
    law[:, :, F, F] = 0.0
    return law, decision


def bellman_q(values: np.ndarray, K: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """One-step lookahead Q[a] = cost + sum_m law[a, m] * V(next) for a whole table.

    Returns (Q of shape (2, F+1, F+1), decision mask).  The per-slot cost
    is 1 everywhere but the absorbing state.
    """
    F = values.shape[0] - 1
    law, decision = transition_law(F, K, p)
    padded = np.zeros((F + 2, F + 2))
    padded[: F + 1, : F + 1] = values
    cost = np.ones((F + 1, F + 1))
    cost[F, F] = 0.0
    q_values = np.empty((2, F + 1, F + 1))
    for a in (SERVE_LEAST, SERVE_MOST):
        q_values[a] = cost + sum(
            law[a, m] * padded[d0 : d0 + F + 1, d1 : d1 + F + 1] for m, (d0, d1) in enumerate(MOVES)
        )
    return q_values, decision


def bellman_residual(values: np.ndarray, K: int, p: float) -> float:
    """Largest |V - min_a Q_a(V)| over the table: 0 exactly at the optimal table."""
    q_values, _ = bellman_q(values, K, p)
    return float(np.abs(values - q_values.min(axis=0)).max())


def action_mismatches(values: np.ndarray, actions: np.ndarray, K: int, p: float, tie: float) -> int:
    """States whose action is not the argmin of the lookahead where the gap exceeds `tie`.

    Non-decision states must carry action 0; decision states whose two
    lookahead values differ by at most `tie` may carry either action.
    """
    q_values, decision = bellman_q(values, K, p)
    gap = q_values[SERVE_MOST] - q_values[SERVE_LEAST]
    expected = np.where(gap > 0, CSV_ACTION[SERVE_LEAST], CSV_ACTION[SERVE_MOST])
    wrong_choice = decision & (np.abs(gap) > tie) & (actions != expected)
    wrong_forced = ~decision & (actions != 0)
    return int(wrong_choice.sum() + wrong_forced.sum())


def decision_state_count(F: int, K: int) -> int:
    """Number of states where serve-least and serve-most differ."""
    return int(transition_law(F, K, 0.5)[1].sum())


def policy_values(F: int, K: int, p: float, policy: np.ndarray) -> np.ndarray:
    """Value table of a fixed policy (action axis index per state) by one dense linear solve."""
    law, _ = transition_law(F, K, p)
    side = F + 1
    n = side * side
    index = np.arange(n).reshape(side, side)
    matrix = np.eye(n)
    chosen = np.take_along_axis(law, policy[None, None], axis=0)[0]
    for m, (d0, d1) in enumerate(MOVES):
        src = index[: side - d0, : side - d1].ravel()
        dst = index[d0:, d1:].ravel()
        np.subtract.at(matrix, (src, dst), chosen[m, : side - d0, : side - d1].ravel())
    cost = np.ones(n)
    cost[-1] = 0.0  # (F, F): its row is the identity, so V(F, F) = 0
    return np.linalg.solve(matrix, cost).reshape(side, side)


def optimal_values(F: int, K: int, p: float) -> np.ndarray:
    """Optimal value table by policy iteration from serve-least everywhere.

    Meant for small F (a dense solve over (F+1)**2 states).  Every
    policy finishes with probability 1 when p > 0, so policy iteration
    ends at the optimum without assuming which action is best.
    """
    policy = np.zeros((F + 1, F + 1), dtype=int)
    for _ in range(2 ** 16):
        values = policy_values(F, K, p, policy)
        q_values, decision = bellman_q(values, K, p)
        current = np.take_along_axis(q_values, policy[None], axis=0)[0]
        other = np.take_along_axis(q_values, (1 - policy)[None], axis=0)[0]
        better = decision & (other < current - 1e-12)
        if not better.any():
            return values
        policy = np.where(better, 1 - policy, policy)
    raise RuntimeError("policy iteration did not settle")


def extra_packet_moments(K: int) -> tuple[float, float]:
    """Mean and variance of receptions beyond K until a GF(256) decoder has full rank.

    Coefficient vectors are uniform over the 256**K - 1 nonzero vectors.
    At rank r a packet is dependent with probability
    d_r = (256**r - 1) / (256**K - 1), so the extra receptions are a sum
    of independent geometric counts with mean d_r / (1 - d_r) and
    variance d_r / (1 - d_r)**2.  Summed in exact rationals.
    """
    if K < 1:
        raise ValueError(f"window must be positive, got {K}")
    space = Fraction(256) ** K - 1
    mean = var = Fraction(0)
    for r in range(K):
        d = (Fraction(256) ** r - 1) / space
        mean += d / (1 - d)
        var += d / (1 - d) ** 2
    return float(mean), float(var)


def exact_rank_fraction(K: int) -> float:
    """Probability that the first K packets of a batch are independent.

    Exactly prod over r < K of (256**K - 256**r) / (256**K - 1), the
    nonzero-coefficient draw; for K of a few packets or more it equals
    prod over i = 1..K of (1 - 256**-i) to within 256**-K.
    """
    if K < 1:
        raise ValueError(f"window must be positive, got {K}")
    full = Fraction(256) ** K
    frac = Fraction(1)
    for r in range(K):
        frac *= (full - Fraction(256) ** r) / (full - 1)
    return float(frac)
