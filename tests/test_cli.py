"""End-to-end command-line tests: ``python -m ncbroadcast`` in a subprocess.

The child runs the same ``ncbroadcast`` package that this test process
imported, whether it is installed or taken from ``src/`` through
``PYTHONPATH``, and whatever the child's working directory is.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import ncbroadcast
from ncbroadcast.sim import MAX_RECEIVERS


def run_cli(args, cwd):
    # The imported package's directory goes first, so that a relative
    # PYTHONPATH entry (such as ``src``) cannot depend on the child's cwd.
    package_root = str(Path(ncbroadcast.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ncbroadcast", *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
    )
    if "No module named ncbroadcast" in proc.stderr:
        pytest.fail(f"test harness: child could not import ncbroadcast with PYTHONPATH={pythonpath!r}")
    return proc


class TestSolve:
    def test_prints_origin_value(self, tmp_path):
        proc = run_cli(["solve", "--file-size", "1", "--window", "1", "--p", "0.5"], tmp_path)
        assert proc.returncode == 0
        assert "V(0,0) = 2.666667" in proc.stdout

    def test_table_has_closed_form_edge_row(self, tmp_path):
        proc = run_cli(
            ["solve", "--file-size", "12", "--window", "4", "--p", "0.5", "--out", "t.csv"],
            tmp_path,
        )
        assert proc.returncode == 0
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "x0,x1,value,action"
        assert "10,12,4.0,0" in lines
        assert (tmp_path / "t.csv.manifest").exists()

    def test_divisibility_error_exits_2(self, tmp_path):
        proc = run_cli(["solve", "--file-size", "10", "--window", "3", "--p", "0.5"], tmp_path)
        assert proc.returncode == 2
        assert "multiple" in proc.stderr


class TestCheckLr:
    def test_csv_matches_golden_report(self, tmp_path):
        # Frozen output of an earlier release: invalid cells, the -0.0 edge
        # margins and the nan margins of vacuous checks, byte for byte.
        proc = run_cli(
            ["check-lr", "--file-sizes", "4,8,12", "--windows", "1,2,3,4,12", "--ps", "0.1,0.5,1.0",
             "--out", "report.csv"],
            tmp_path,
        )
        assert proc.returncode == 0
        golden = Path(__file__).parent / "data" / "check_lr_golden.csv"
        assert (tmp_path / "report.csv").read_bytes() == golden.read_bytes()

    def test_grid_passes(self, tmp_path):
        proc = run_cli(
            ["check-lr", "--file-sizes", "8,12", "--windows", "2,4", "--ps", "0.1,0.9",
             "--out", "report.csv"],
            tmp_path,
        )
        assert proc.returncode == 0
        assert proc.stdout.count("PASS") == 8
        header = (tmp_path / "report.csv").read_text().splitlines()[0]
        assert header == "F,K,p,check,examined,violations,worst_margin,status"

    def test_oversized_file_refused_before_any_cell(self, tmp_path):
        proc = run_cli(
            ["check-lr", "--file-sizes", "4,100000", "--windows", "1", "--ps", "0.5", "--out", "report.csv"],
            tmp_path,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [proc.stderr.splitlines()[-1]]
        assert proc.stderr.startswith("error: F=100000")
        assert list(tmp_path.iterdir()) == []

    def test_invalid_cell_reported_not_fatal(self, tmp_path):
        proc = run_cli(
            ["check-lr", "--file-sizes", "8", "--windows", "3,4", "--ps", "0.5"], tmp_path
        )
        assert proc.returncode == 0
        assert "invalid" in proc.stdout
        assert "F=8 K=4 p=0.5: PASS" in proc.stdout


ORACLE_GOLDEN = Path(__file__).parent / "data" / "oracle_golden.txt"
ORACLE_GOLDEN_ARGS = (("4", "2", "0.3"), ("4", "2", "0.5"), ("4", "2", "0.8"), ("6", "3", "0.4"))


class TestOracle:
    def test_stdout_matches_golden(self, tmp_path):
        # Each block is "$ <argv>", then the exit code and the stdout of that run.
        blocks = []
        for F, K, p in ORACLE_GOLDEN_ARGS:
            args = ["oracle", "--file-size", F, "--window", K, "--p", p]
            proc = run_cli(args, tmp_path)
            blocks.append(f"$ {shlex.join(args)}\nexit {proc.returncode}\n{proc.stdout}")
        assert "".join(blocks) == ORACLE_GOLDEN.read_text()

    def test_small_instance(self, tmp_path):
        proc = run_cli(["oracle", "--file-size", "4", "--window", "2", "--p", "0.5"], tmp_path)
        assert proc.returncode == 0
        assert "256 policies; LR optimal" in proc.stdout

    def test_tiny_instance(self, tmp_path):
        proc = run_cli(["oracle", "--file-size", "2", "--window", "1", "--p", "0.5"], tmp_path)
        assert proc.returncode == 0
        assert "4 policies; LR optimal" in proc.stdout

    @pytest.mark.parametrize("cap", ["0", str(2**20 + 1)], ids=["below-1", "above-default"])
    def test_cap_out_of_range_is_usage_error(self, tmp_path, cap):
        proc = run_cli(["oracle", "--file-size", "2", "--window", "1", "--p", "0.5", "--cap", cap], tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: --cap must be between 1 and {2**20}, got {cap}\n"

    def test_capacity_refusal(self, tmp_path):
        proc = run_cli(["oracle", "--file-size", "100", "--window", "2", "--p", "0.5"], tmp_path)
        assert proc.returncode == 2
        assert "decision states" in proc.stderr and "cap" in proc.stderr


class TestSimulate:
    def test_stats_row_and_manifest_replay(self, tmp_path):
        args = [
            "simulate", "--policy", "lr", "--receivers", "2", "--file-size", "12",
            "--window", "4", "--p", "0.5", "--trials", "300", "--seed", "42",
            "--out", "stats.csv",
        ]
        proc = run_cli(args, tmp_path)
        assert proc.returncode == 0
        first = (tmp_path / "stats.csv").read_bytes()
        lines = first.decode().splitlines()
        assert lines[0] == "policy,N,F,K,p,n_trials,mean_slots,stddev,ci95_half_width"
        assert lines[1].startswith("lr,2,12,4,0.5,300,")

        manifest = dict(
            line.split("=", 1) for line in (tmp_path / "stats.csv.manifest").read_text().splitlines()
        )
        assert manifest["command"] == "simulate"
        replay = run_cli(shlex.split(manifest["argv"]), tmp_path)
        assert replay.returncode == 0
        assert (tmp_path / "stats.csv").read_bytes() == first

    def test_codec_mode_runs(self, tmp_path):
        proc = run_cli(
            ["simulate", "--policy", "rs", "--receivers", "2", "--file-size", "8",
             "--window", "4", "--p", "0.7", "--trials", "40", "--seed", "1",
             "--mode", "codec", "--packet-len", "8"],
            tmp_path,
        )
        assert proc.returncode == 0
        assert "mean=" in proc.stdout


class TestSweep:
    def test_whole_file_window_rows_agree_across_policies(self, tmp_path):
        proc = run_cli(
            ["sweep", "--policies", "lr,rrnc,rs", "--receivers", "3", "--file-size", "6",
             "--windows", "2,6", "--p", "0.6", "--trials", "80", "--seed", "9",
             "--out", "sweep.csv"],
            tmp_path,
        )
        assert proc.returncode == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 6
        whole_file = {row.split(",", 1)[0]: row.split(",", 6)[6] for row in rows if ",6,0.6," in row}
        assert whole_file["lr"] == whole_file["rrnc"] == whole_file["rs"]

    def test_bad_window_skipped_per_row(self, tmp_path):
        proc = run_cli(
            ["sweep", "--policies", "lr", "--receivers", "2", "--file-size", "6",
             "--windows", "2,4,6", "--p", "0.6", "--trials", "40", "--seed", "2",
             "--out", "s.csv"],
            tmp_path,
        )
        assert proc.returncode == 0
        assert "skipping window 4" in proc.stderr
        rows = (tmp_path / "s.csv").read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["2", "6"]

    def test_unknown_policy_is_usage_error(self, tmp_path):
        proc = run_cli(
            ["sweep", "--policies", "lru", "--file-size", "6", "--windows", "2", "--p", "0.5"],
            tmp_path,
        )
        assert proc.returncode == 2


class TestCodecValidate:
    def test_report_lines(self, tmp_path):
        proc = run_cli(
            ["codec-validate", "--window", "4", "--packet-len", "8", "--batches", "200",
             "--seed", "1"],
            tmp_path,
        )
        assert proc.returncode == 0
        assert "round-trip success: 100.0000%" in proc.stdout
        assert "mean extra packets" in proc.stdout

    def test_zero_batches(self, tmp_path):
        proc = run_cli(["codec-validate", "--batches", "0"], tmp_path)
        assert proc.returncode == 0
        assert "nothing to validate" in proc.stdout


BAD_INPUTS = {
    "simulate-trials-0": ["simulate", "--file-size", "4", "--window", "2", "--p", "0.5", "--trials", "0"],
    "simulate-trials-1": ["simulate", "--file-size", "4", "--window", "2", "--p", "0.5", "--trials", "1"],
    "sweep-trials-0": ["sweep", "--file-size", "4", "--windows", "2", "--p", "0.5", "--trials", "0"],
    "sweep-trials-1": ["sweep", "--file-size", "4", "--windows", "2", "--p", "0.5", "--trials", "1"],
    "simulate-codec-packet-len-0": ["simulate", "--file-size", "4", "--window", "2", "--p", "0.5",
                                    "--trials", "4", "--mode", "codec", "--packet-len", "0"],
    "sweep-codec-packet-len-0": ["sweep", "--file-size", "4", "--windows", "2", "--p", "0.5",
                                 "--trials", "4", "--mode", "codec", "--packet-len", "0"],
    "codec-validate-window-0": ["codec-validate", "--window", "0", "--batches", "3"],
    "codec-validate-packet-len-0": ["codec-validate", "--packet-len", "0", "--batches", "3"],
    "codec-validate-negative-batches": ["codec-validate", "--window", "4", "--packet-len", "8", "--batches", "-5"],
    "simulate-receivers-over-cap": ["simulate", "--receivers", str(MAX_RECEIVERS + 1), "--file-size", "4",
                                    "--window", "2", "--p", "0.5", "--trials", "4"],
    "sweep-receivers-over-cap": ["sweep", "--receivers", str(MAX_RECEIVERS + 1), "--file-size", "4",
                                 "--windows", "2", "--p", "0.5", "--trials", "4"],
    "simulate-codec-oversized": ["simulate", "--mode", "codec", "--file-size", "4", "--window", "2", "--p", "0.5",
                                 "--trials", "2", "--packet-len", str(10**12)],
    "sweep-codec-oversized": ["sweep", "--mode", "codec", "--file-size", "4", "--windows", "2", "--p", "0.5",
                              "--trials", "2", "--packet-len", str(10**12)],
    "sweep-no-valid-window": ["sweep", "--file-size", "6", "--windows", "4,5", "--p", "0.5", "--trials", "4"],
    "solve-oversized": ["solve", "--file-size", "100000", "--window", "1", "--p", "0.5"],
    "check-lr-oversized": ["check-lr", "--file-sizes", "100000", "--windows", "1", "--ps", "0.5"],
    "check-lr-no-file-sizes": ["check-lr", "--file-sizes", ",", "--windows", "2", "--ps", "0.5"],
    "check-lr-no-windows": ["check-lr", "--file-sizes", "4", "--windows", "", "--ps", "0.5"],
    "check-lr-no-ps": ["check-lr", "--file-sizes", "4", "--windows", "2", "--ps", ","],
    "check-lr-negative-tolerance": ["check-lr", "--file-sizes", "4", "--windows", "2", "--ps", "0.5",
                                    "--tolerance", "-1"],
    "check-lr-nan-tolerance": ["check-lr", "--file-sizes", "4", "--windows", "2", "--ps", "0.5",
                               "--tolerance", "nan"],
    "check-lr-inf-tolerance": ["check-lr", "--file-sizes", "4", "--windows", "2", "--ps", "0.5",
                               "--tolerance", "inf"],
    "oracle-oversized": ["oracle", "--file-size", "100000", "--window", "1", "--p", "0.5"],
}


@pytest.mark.parametrize("args", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_2_with_one_error_line(tmp_path, args):
    proc = run_cli(args, tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert [line for line in proc.stderr.splitlines() if line.startswith("error:")] == [proc.stderr.splitlines()[-1]]


def test_version_flag(tmp_path):
    proc = run_cli(["--version"], tmp_path)
    assert proc.returncode == 0
    assert "ncbroadcast" in proc.stdout


def test_missing_subcommand_is_usage_error(tmp_path):
    proc = run_cli([], tmp_path)
    assert proc.returncode == 2
