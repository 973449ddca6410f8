"""Tests of the benchmark itself: its references, its checks and a smoke run.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import references as ref
import run
import workloads

BENCH = Path(__file__).resolve().parent


@pytest.mark.parametrize("F, p", [(1, 0.5), (10, 0.3), (500, 0.6), (7, 1.0)])
def test_kf_completion_single_receiver_is_negative_binomial(F, p):
    mean, var = ref.kf_completion_moments(1, F, p)
    assert mean == pytest.approx(F / p, rel=1e-12)
    assert var == pytest.approx(F * (1 - p) / p**2, rel=1e-9, abs=1e-9)


def test_kf_completion_two_receivers_one_packet():
    # The later of two independent geometric ON times: 2/p - 1/(1 - q^2).
    p = 0.3
    q = 1 - p
    assert ref.kf_completion_moments(2, 1, p)[0] == pytest.approx(2 / p - 1 / (1 - q * q), rel=1e-12)


def test_transition_law_rows_are_distributions():
    law, decision = ref.transition_law(12, 4, 0.35)
    totals = law.sum(axis=1)
    assert np.allclose(totals[:, :12, :], 1.0) and np.allclose(totals[:, :, :12], 1.0)
    assert totals[:, 12, 12].sum() == 0.0
    assert int(decision.sum()) == ref.decision_state_count(12, 4) == 12 * 12 - 12 * 4


def test_bellman_residual_accepts_optimum_and_rejects_perturbed_table():
    F, K, p = 6, 2, 0.45
    values = ref.optimal_values(F, K, p)
    assert ref.bellman_residual(values, K, p) <= 1e-12
    actions = np.where(ref.transition_law(F, K, p)[1], 1, 0)
    assert ref.action_mismatches(values, actions, K, p, 1e-9) == 0
    perturbed = values.copy()
    perturbed[2, 3] += 1e-6
    assert ref.bellman_residual(perturbed, K, p) > 1e-9
    assert ref.action_mismatches(values, -actions, K, p, 1e-9) > 0


def test_gf256_analytic_statistics():
    assert ref.extra_packet_moments(1) == (0.0, 0.0)
    assert ref.extra_packet_moments(2)[0] == pytest.approx(1 / 256, rel=1e-12)
    assert ref.exact_rank_fraction(1) == 1.0  # a nonzero scalar is always innovative
    product = np.prod(1.0 - 256.0 ** -np.arange(1, 17))
    assert ref.exact_rank_fraction(16) == pytest.approx(product, rel=1e-12)
    mean, var = ref.extra_packet_moments(16)
    assert 0.0039 < mean < 0.0040 and var > mean


def _smoke(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced_run_passes_every_check(capsys, workload):
    code, result = _smoke(capsys, workload, 1)
    assert code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.metric_units("per_layer"))
    cli = run.load_program()
    assert not hasattr(cli.main, "__wrapped__"), "tracer left a wrapper in place"


def test_smoke_untraced_run_reports_end_to_end_metrics(capsys):
    code, result = _smoke(capsys, "codec_sim", 0)
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == set(run.metric_units("end_to_end"))
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_exact_check_rejects_a_perturbed_solve_table(tmp_path):
    cli = run.load_program()
    plan = workloads.build("exact_certify", 5, True, tmp_path)
    _, _, results = run.run_round(cli, plan)
    assert plan.check(results, []) == []
    solve = next(r.op.out for r in results if r.op.key == ("solve",))
    lines = solve.read_text().splitlines()
    x0, x1, value, action = lines[40].split(",")
    lines[40] = ",".join((x0, x1, repr(float(value) + 1e-6), action))
    solve.write_text("\n".join(lines) + "\n")
    assert any("Bellman residual" in problem for problem in plan.check(results, []))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "codec_sim", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
