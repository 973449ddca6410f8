"""Certification suite: one test per acceptance criterion.

Each test prints `[acceptance] C<n> <label>: PASS|FAIL` before asserting,
so `pytest -s tests/test_acceptance.py` doubles as a transcript.  All
tolerances are fixed here; Monte Carlo criteria run on frozen master
seeds and are therefore deterministic, with C6 additionally allowed the
single reseed retry its statistical formulation grants.
"""

import time

import numpy as np
import pytest

from ncbroadcast.dp import TOLERANCE, certify, enumerate_policies_oracle, solve_optimal
from ncbroadcast.model import validate_config
from ncbroadcast.rlnc import _INV, _MUL, run_codec_validation
from ncbroadcast.sim import RngSpec, run_trial, sweep_coding_window

GRID_F = (8, 12, 24)
GRID_K = (2, 4)
GRID_P = (0.1, 0.5, 0.9)


def trial_times(cfg, policy, n_trials, rng_spec):
    return np.array([run_trial(cfg, policy, rng_spec, i).completion_slots for i in range(n_trials)])


def report(criterion: str, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion} {label}: {status}{suffix}")
    assert ok, f"{criterion} {label}{suffix}"


def test_c1_closed_form_edge_values():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for p in GRID_P:
        cfg = validate_config(12, 4, 2, p)
        values = solve_optimal(cfg)
        for x0 in range(13):
            err = abs(values[x0, 12] - (12 - x0) / p)
            worst = max(worst, err)
            ok &= err < 1e-9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report("C1", "closed-form edge values", ok, f"worst err {worst:.2e}, {elapsed:.2f}s")


def test_c2_corner_value():
    ok = True
    worst = 0.0
    for p in GRID_P:
        cfg = validate_config(12, 4, 2, p)
        values = solve_optimal(cfg)
        q = cfg.q
        err = abs(values[11, 11] - (1 + 2 * q) / (1 - q * q))
        worst = max(worst, err)
        ok &= err < 1e-9
    report("C2", "corner value (1+2q)/(1-q^2)", ok, f"worst err {worst:.2e}")


def test_c3_sandwich_and_monotonicity_families():
    start = time.perf_counter()
    violations = 0
    for F in GRID_F:
        for K in GRID_K:
            for p in GRID_P:
                cfg = validate_config(F, K, 2, p)
                rep = {c.name: c for c in certify(cfg, solve_optimal(cfg)).checks}
                for name in ("corner_sandwich", "monotone_in_x0", "monotone_in_x1", "balance_preference"):
                    violations += rep[name].violations
    elapsed = time.perf_counter() - start
    ok = TOLERANCE == 1e-9 and violations == 0 and elapsed < 10.0  # TOLERANCE: certify's slack
    report("C3", "sandwich and monotonicity families", ok, f"{violations} violations, {elapsed:.2f}s")


def test_c4_lr_optimality():
    violations = 0
    for F in GRID_F:
        for K in GRID_K:
            for p in GRID_P:
                cfg = validate_config(F, K, 2, p)
                rep = {c.name: c for c in certify(cfg, solve_optimal(cfg)).checks}
                violations += rep["lr_optimality"].violations
    ok = TOLERANCE == 1e-9 and violations == 0  # TOLERANCE: certify's slack
    report("C4", "serve-least optimal at every decision state", ok, f"{violations} violations")


def test_c5_brute_force_certification():
    start = time.perf_counter()
    ok = TOLERANCE == 1e-9  # the oracle's verdict margin
    for p in (0.3, 0.5, 0.8):
        result = enumerate_policies_oracle(validate_config(4, 2, 2, p))
        ok &= result.n_policies == 256 and result.lr_matches_best
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report("C5", "exhaustive 256-policy certification", ok, f"{elapsed:.2f}s")


def test_c6_monte_carlo_matches_value_table():
    start = time.perf_counter()
    ok = True
    details = []
    for K in (4, 2, 6, 12):
        cfg = validate_config(12, K, 2, 0.5)
        v00 = solve_optimal(cfg)[0, 0]
        [stats] = sweep_coding_window(["lr"], [cfg], 10_000, RngSpec(42))
        within = abs(stats.mean - v00) <= stats.ci95_half_width
        if not within:  # one reseed retry per the statistical contract
            [stats] = sweep_coding_window(["lr"], [cfg], 10_000, RngSpec(43))
            within = abs(stats.mean - v00) <= stats.ci95_half_width
        details.append(f"K={K}: {stats.mean:.3f} vs {v00:.3f}")
        ok &= within
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    report("C6", "simulated LR mean within CI of V(0,0)", ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_c7_policy_comparison_scaled():
    start = time.perf_counter()
    windows = (5, 10, 25, 50, 100)
    configs = [validate_config(500, K, 5, 0.6) for K in windows]
    sweep = sweep_coding_window(("lr", "rrnc", "rs"), configs, 1_000, RngSpec(42))
    cells = {(cell.policy, cell.config.K): cell for cell in sweep}
    ok = True
    for K in windows:
        lr, rr, rs = cells["lr", K], cells["rrnc", K], cells["rs", K]
        ok &= lr.mean < rr.mean and lr.mean < rs.mean
        if K <= 25:
            ok &= lr.mean + lr.ci95_half_width < rr.mean - rr.ci95_half_width
            ok &= lr.mean + lr.ci95_half_width < rs.mean - rs.ci95_half_width
    gap_small = max(cells["rrnc", 5].mean, cells["rs", 5].mean) - cells["lr", 5].mean
    gap_large = max(cells["rrnc", 100].mean, cells["rs", 100].mean) - cells["lr", 100].mean
    ok &= gap_small > gap_large
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300.0
    report(
        "C7", "LR outperforms rrnc/rs, gap shrinks with K", ok,
        f"gap K=5 {gap_small:.0f} > gap K=100 {gap_large:.0f}, {elapsed:.0f}s",
    )


def test_c8_whole_file_window_equivalence():
    cfg = validate_config(24, 24, 4, 0.5)
    times = {p: trial_times(cfg, p, 300, RngSpec(7)) for p in ("lr", "rrnc", "rs")}
    identical = (times["lr"] == times["rrnc"]).all() and (times["lr"] == times["rs"]).all()
    conflicts = sum(run_trial(cfg, "lr", RngSpec(7), i).conflict_slots for i in range(50))
    ok = bool(identical) and conflicts == 0
    report("C8", "K=F: policies identical per trial, zero conflicts", ok)


def test_c9_codec_validation():
    inverses_ok = bool((_MUL[np.arange(1, 256), _INV[1:]] == 1).all())
    rep = run_codec_validation(window=16, packet_len=64, n_batches=100_000, seed=5)
    extras_ok = 0.003 <= rep.mean_extra_packets <= 0.006
    ok = inverses_ok and rep.roundtrip_ok and extras_ok
    report(
        "C9", "GF(256) codec round trip and rank statistics", ok,
        f"failures={rep.roundtrip_failures}, extras={rep.mean_extra_packets:.5f}",
    )


def test_c10_single_receiver_sanity():
    cfg = validate_config(100, 10, 1, 0.5)
    [stats] = sweep_coding_window(["lr"], [cfg], 10_000, RngSpec(13))
    mean_ok = abs(stats.mean - 200.0) <= stats.ci95_half_width
    perfect = trial_times(validate_config(100, 10, 1, 1.0), "lr", 10_000, RngSpec(13))
    exact_ok = bool((perfect == 100).all())
    ok = mean_ok and exact_ok
    report(
        "C10", "single receiver: mean F/p and exact F at p=1", ok,
        f"mean {stats.mean:.3f} ±{stats.ci95_half_width:.3f}",
    )
