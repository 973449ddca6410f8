"""End-to-end command-line tests: ``python -m ncbroadcast`` in a subprocess.

The child runs the same ``ncbroadcast`` package that this test process
imported, whether it is installed or taken from ``src/`` through
``PYTHONPATH``, and whatever the child's working directory is.
"""

import errno
import itertools
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import ncbroadcast
from ncbroadcast import cli, dp, sim
from ncbroadcast.dp import TOLERANCE, AuditCheck, AuditReport, certify, solve_optimal
from ncbroadcast.model import ConfigError, validate_config
from ncbroadcast.sim import MAX_RECEIVERS


def child_env() -> dict:
    # The imported package's directory goes first, so that a relative
    # PYTHONPATH entry (such as ``src``) cannot depend on the child's cwd.
    package_root = str(Path(ncbroadcast.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}


def run_cli(args, cwd):
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "ncbroadcast", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    if "No module named ncbroadcast" in proc.stderr:
        pytest.fail(f"test harness: child could not import ncbroadcast with PYTHONPATH={env['PYTHONPATH']!r}")
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

    def test_export_over_two_row_blocks(self, capsys, tmp_path):
        # the --out writer reads each row block's actions off the value table as it writes
        rows = dp._CERTIFY_CELLS // 601
        assert rows < 600 <= 2 * rows
        out = tmp_path / "v.csv"
        assert cli.main(["solve", "--file-size", "600", "--window", "25", "--p", "0.5", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"V(0,0) = 1258.578419\nwrote {out}\n"
        table = out.read_bytes()
        assert (table.count(b"\n"), table.count(b",1\n")) == (1 + 601 * 601, 345000)

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

    def test_grid_without_valid_cell_refused_before_any_output(self, tmp_path):
        proc = run_cli(
            ["check-lr", "--file-sizes", "6,7", "--windows", "4,5", "--ps", "0.5,1.5", "--out", "report.csv"],
            tmp_path,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: no valid cell among --file-sizes 6,7 --windows 4,5 --ps 0.5,1.5\n"
        assert list(tmp_path.iterdir()) == []

    def test_invalid_cell_reported_not_fatal(self, tmp_path):
        proc = run_cli(
            ["check-lr", "--file-sizes", "8", "--windows", "3,4", "--ps", "0.5"], tmp_path
        )
        assert proc.returncode == 0
        assert "invalid" in proc.stdout
        assert "F=8 K=4 p=0.5: PASS" in proc.stdout

    @pytest.mark.parametrize("F,K,p", [(240, 8, 1e-6), (96, 8, 2e-7), (1000, 8, 3e-6), (2895, 5, 1e-6)])
    def test_small_p_passes(self, capsys, F, K, p):
        # Expected slots reach F/p ~ 1e9 here.  The solver and certify count
        # ON slots (V * p), so no 1 - q^2 cancels and the slack is not an
        # absolute 1e-9 on values near 1e9.
        assert cli.main(["check-lr", "--file-sizes", str(F), "--windows", str(K), "--ps", repr(p)]) == 0
        assert capsys.readouterr().out == f"F={F} K={K} p={p}: PASS\n"

    def test_p_whose_complement_rounds_to_one_is_an_invalid_cell(self, capsys):
        # at p = 1e-17, q = 1 - p rounds to 1.0: the model's p and q would not sum to 1
        assert cli.main(["check-lr", "--file-sizes", "4", "--windows", "2", "--ps", "1e-17,0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("F=4 K=2 p=1e-17: invalid (ON probability p=1e-17 is too small")
        assert lines[1:] == ["F=4 K=2 p=0.5: PASS"]

    def test_one_sweep_per_window_and_p(self, monkeypatch, capsys):
        solved = []
        solve = cli.solve_optimal
        monkeypatch.setattr(cli, "solve_optimal", lambda config: solved.append(config) or solve(config))
        assert cli.main(["check-lr", "--file-sizes", "8,12,24", "--windows", "2,4", "--ps", "0.1,0.9"]) == 0
        pairs = [(K, p) for K in (2, 4) for p in (0.1, 0.9)]
        assert [(config.F, config.K, config.p) for config in solved] == [(24, K, p) for K, p in pairs]
        captured = capsys.readouterr()
        assert captured.out.count("PASS") == 12
        assert captured.err.splitlines() == [f"check-lr: K={K} p={p}: solving F=24 for 3 file sizes" for K, p in pairs]

    def test_report_equals_certifying_each_cell_on_its_own(self, tmp_path, capsys):
        # The largest F comes third and invalid cells are interleaved; rows and
        # lines still follow the grid, as a per-cell solve and certify gives them.
        sizes, windows, ps = (12, 7, 24, 8), (3, 4, 2), (0.1, 0.9)
        out = tmp_path / "report.csv"
        argv = ["check-lr", "--file-sizes", "12,7,24,8", "--windows", "3,4,2", "--ps", "0.1,0.9", "--out", str(out)]
        assert cli.main(argv) == 0
        rows, lines = [], []
        for F, K, p in itertools.product(sizes, windows, ps):
            try:
                config = validate_config(F, K, 2, p)
            except ConfigError as exc:
                rows.append(f"{F},{K},{p},config,0,0,,invalid")
                lines.append(f"F={F} K={K} p={p}: invalid ({exc})")
                continue
            report = certify(config, solve_optimal(config))
            for check in report.checks:
                status = "pass" if check.violations == 0 else "fail"
                rows.append(f"{F},{K},{p},{check.name},{check.examined},{check.violations},"
                            f"{check.worst_margin!r},{status}")
            lines.append(f"F={F} K={K} p={p}: {'PASS' if report.passed else 'FAIL'}")
        assert out.read_text().splitlines()[1:] == rows
        assert capsys.readouterr().out.splitlines() == lines + [f"wrote {out}"]

    def test_edge_rounding_passes_within_the_slack(self, capsys, tmp_path):
        # (F - x) * p / p rounds off F - x by an ulp at some p: the slack
        # TOLERANCE absorbs it, where a slack of 0 would fail those cells.
        out = tmp_path / "r.csv"
        assert cli.main(["check-lr", "--file-sizes", "4,6", "--windows", "1,2", "--ps", "0.3,0.7,0.9",
                         "--out", str(out)]) == 0
        assert capsys.readouterr().out.count("PASS") == 12
        edge = [float(row.split(",")[6]) for row in out.read_text().splitlines() if ",edge_closed_form," in row]
        assert len(edge) == 12
        assert all(-TOLERANCE <= margin <= 0 for margin in edge)
        assert min(edge) < 0

    def test_failed_check_still_writes_out(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(cli, "certify", lambda *args: AuditReport((AuditCheck("lr_optimal", 3, 1, -0.5),)))
        out = tmp_path / "r.csv"
        assert cli.main(["check-lr", "--file-sizes", "4", "--windows", "2", "--ps", "0.5", "--out", str(out)]) == 1
        assert capsys.readouterr().out.splitlines() == ["F=4 K=2 p=0.5: FAIL", f"wrote {out}"]
        assert out.read_text().splitlines()[1:] == ["4,2,0.5,lr_optimal,3,1,-0.5,fail"]
        assert (tmp_path / "r.csv.manifest").read_text().endswith(f"output={out}\n")


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

    def test_tiny_instance(self, tmp_path):
        proc = run_cli(["oracle", "--file-size", "2", "--window", "1", "--p", "0.5"], tmp_path)
        assert proc.returncode == 0
        assert "4 policies; LR optimal" in proc.stdout

    def test_capacity_refusal(self, tmp_path):
        proc = run_cli(["oracle", "--file-size", "100", "--window", "2", "--p", "0.5"], tmp_path)
        assert proc.returncode == 2
        message = f"error: 9800 decision states give 2**9800 policies, over the cap {2**20}\n"
        assert (proc.stdout, proc.stderr) == ("", message)


# Each run's pinned stdout: every pin must appear as whole words, runs of
# whitespace read as one space.
PINNED_RUNS = {
    # codec mode: at K=4 many trials hold a rank-deficient block and are replayed, at K=100 few are
    "codec-K4": ("simulate -N 5 --file-size 100 --window 4 --p 0.6 --trials 6 --mode codec --seed 1",
                 ["mean=223.1667"]),
    "codec-K20": ("simulate -N 5 --file-size 100 --window 20 --p 0.6 --trials 6 --mode codec --seed 1",
                  ["mean=190.3333"]),
    "codec-K100": ("simulate -N 5 --file-size 100 --window 100 --p 0.6 --trials 6 --mode codec --seed 1",
                   ["mean=184.3333"]),
    # 3 of these 4 trials replay, and the replay's rank trackers alone decide each batch's completion
    "codec-K25-N20": ("simulate -N 20 --file-size 500 --window 25 --p 0.5 --trials 4 --mode codec --seed 1",
                      ["mean=1227.0000"]),
    # the rrnc and rs streams at one and at two words of receiver mask
    "rrnc-N5": ("simulate --policy rrnc -N 5 --file-size 60 --window 3 --p 0.6 --trials 20 --seed 1",
                ["mean=220.6000"]),
    "rs-N5": ("simulate --policy rs -N 5 --file-size 60 --window 3 --p 0.6 --trials 20 --seed 1",
              ["mean=227.5500"]),
    "rrnc-N65": ("simulate --policy rrnc -N 65 --file-size 40 --window 2 --p 0.5 --trials 4 --seed 1",
                 ["mean=681.0000"]),
    "rs-N65": ("simulate --policy rs -N 65 --file-size 40 --window 2 --p 0.5 --trials 4 --seed 1",
               ["mean=689.2500"]),
    # the receiver cap: ON masks of 16 words, and a jump that counts ON flags over 1024 columns
    "lr-N1024": ("simulate -N 1024 --file-size 64 --window 64 --p 0.5 --trials 4", ["mean=165.0000"]),
    # paper scale: ideal mode jumps over the long stretches in which all receivers expect one
    # batch; at K = F every policy sends the same packets, so both policies' K=2500 rows agree
    "sweep-paper-scale": (
        "sweep -N 20 --file-size 2500 --windows 500,2500 --p 0.5 --trials 20 --policies lr,rs",
        ["lr 500 5262.10 28.73 ±12.59", "lr 2500 5134.90 35.82 ±15.70",
         "rs 500 9494.60 668.60 ±293.03", "rs 2500 5134.90 35.82 ±15.70"],
    ),
    "codec-validate-K16": ("codec-validate --batches 200", ["round-trip success: 100.0000% (0 failures)"]),
    # K*L odd, and rank-deficient batches that pull further rows: three of the 2000 take the fallback path
    "codec-validate-K3": (
        "codec-validate --window 3 --packet-len 5 --batches 2000",
        ["round-trip success: 100.0000% (0 failures)",
         "mean extra packets beyond K: 0.001500 (analytic for GF(256): 0.003937)",
         "fraction decoded with exactly K packets: 0.998500"],
    ),
    "check-lr-F2895": ("check-lr --file-sizes 2895 --windows 5 --ps 0.5", ["F=2895 K=5 p=0.5: PASS"]),
    # one sweep at the size cap serves both file sizes (F=1000 is the table's lower-right corner)
    "check-lr-F1000-F2895": ("check-lr --file-sizes 1000,2895 --windows 5 --ps 0.5",
                             ["F=1000 K=5 p=0.5: PASS", "F=2895 K=5 p=0.5: PASS"]),
    # small p: values near F/p ~ 1e9, certified in ON slots (V*p) without cancellation
    "check-lr-small-p": (
        "check-lr --file-sizes 96,240 --windows 8 --ps 2e-7,1e-6",
        ["F=96 K=8 p=2e-07: PASS", "F=96 K=8 p=1e-06: PASS",
         "F=240 K=8 p=2e-07: PASS", "F=240 K=8 p=1e-06: PASS"],
    ),
}


class TestSimulate:
    def test_stats_row_and_manifest_replay(self, tmp_path):
        # simulate and a one-cell sweep write the same stats row, in both modes
        cell = ["--receivers", "2", "--file-size", "12", "--p", "0.5", "--trials", "300", "--seed", "42"]
        for mode in ("ideal", "codec"):
            rows = {}
            for command in (["simulate", "--policy", "lr", "--window", "4"], ["sweep", "--policies", "lr", "--windows", "4"]):
                out = f"{command[0]}-{mode}.csv"
                proc = run_cli([*command, *cell, "--mode", mode, "--out", out], tmp_path)
                assert proc.returncode == 0
                first = (tmp_path / out).read_bytes()
                lines = first.decode().splitlines()
                assert lines[0] == "policy,N,F,K,p,n_trials,mean_slots,stddev,ci95_half_width"
                assert lines[1].startswith("lr,2,12,4,0.5,300,")
                rows[command[0]] = lines[1]

                manifest = dict(
                    line.split("=", 1) for line in (tmp_path / f"{out}.manifest").read_text().splitlines()
                )
                assert (manifest["command"], manifest["mode"]) == (command[0], mode)
                replay = run_cli(shlex.split(manifest["argv"]), tmp_path)
                assert replay.returncode == 0
                assert (tmp_path / out).read_bytes() == first
            assert rows["simulate"] == rows["sweep"]

    def test_codec_mode_runs(self, tmp_path):
        proc = run_cli(
            ["simulate", "--policy", "rs", "--receivers", "2", "--file-size", "8",
             "--window", "4", "--p", "0.7", "--trials", "40", "--seed", "1",
             "--mode", "codec"],
            tmp_path,
        )
        assert proc.returncode == 0
        assert "mean=" in proc.stdout


    @pytest.mark.parametrize("args, pins", PINNED_RUNS.values(), ids=PINNED_RUNS.keys())
    def test_pinned_means(self, capsys, args, pins):
        assert cli.main(args.split()) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert [pin for pin in pins if f" {pin} " not in f" {out} "] == []


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

    def test_default_policies_survive_an_earlier_parse(self, monkeypatch, capsys, tmp_path):
        # One parser serves every main of a process, so a parse that sets
        # --policies must leave the default list for the next one.
        monkeypatch.chdir(tmp_path)
        run = ["sweep", "--file-size", "4", "--windows", "2", "--p", "0.5", "--trials", "3"]
        assert cli.main([*run, "--policies", "lr", "--out", "lr.csv"]) == 0
        assert cli.main([*run, "--out", "all.csv"]) == 0
        assert cli.build_parser() is cli.build_parser()
        rows = (tmp_path / "all.csv").read_text().splitlines()[1:]
        assert [row.split(",", 1)[0] for row in rows] == ["lr", "rrnc", "rs"]
        assert "policies=lr,rrnc,rs" in (tmp_path / "all.csv.manifest").read_text().splitlines()
        assert "policies=lr" in (tmp_path / "lr.csv.manifest").read_text().splitlines()


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

    def test_window_past_the_float_range(self, tmp_path):
        # 256.0**128 overflows a float; the analytic value must not
        proc = run_cli(["codec-validate", "--window", "128", "--packet-len", "1", "--batches", "2"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "round-trip success: 100.0000%" in proc.stdout
        assert "(analytic for GF(256): 0.003937)" in proc.stdout


BAD_INPUTS = {
    "simulate-trials-0": ["simulate", "--file-size", "4", "--window", "2", "--p", "0.5", "--trials", "0"],
    "simulate-trials-1": ["simulate", "--file-size", "4", "--window", "2", "--p", "0.5", "--trials", "1"],
    "sweep-trials-0": ["sweep", "--file-size", "4", "--windows", "2", "--p", "0.5", "--trials", "0"],
    "sweep-trials-1": ["sweep", "--file-size", "4", "--windows", "2", "--p", "0.5", "--trials", "1"],
    "codec-validate-window-0": ["codec-validate", "--window", "0", "--batches", "3"],
    "codec-validate-packet-len-0": ["codec-validate", "--packet-len", "0", "--batches", "3"],
    "codec-validate-negative-batches": ["codec-validate", "--window", "4", "--packet-len", "8", "--batches", "-5"],
    "codec-validate-zero-batches": ["codec-validate", "--batches", "0"],
    # repeat counts past model.MAX_REPEATS: 10^12 repeats would run for years
    "simulate-trials-over-cap": ["simulate", "--file-size", "4", "--window", "2", "--p", "0.5",
                                 "--trials", "1000000000000"],
    "codec-validate-batches-over-cap": ["codec-validate", "--batches", "1000000000000"],
    "simulate-receivers-over-cap": ["simulate", "--receivers", str(MAX_RECEIVERS + 1), "--file-size", "4",
                                    "--window", "2", "--p", "0.5", "--trials", "4"],
    "sweep-receivers-over-cap": ["sweep", "--receivers", str(MAX_RECEIVERS + 1), "--file-size", "4",
                                 "--windows", "2", "--p", "0.5", "--trials", "4"],
    # 1024 receivers at K = F = 1024 hold 2 GiB of rank state
    "simulate-codec-oversized": ["simulate", "--mode", "codec", "-N", "1024", "--file-size", "1024",
                                 "--window", "1024", "--p", "0.5", "--trials", "2"],
    "sweep-codec-oversized": ["sweep", "--mode", "codec", "-N", "1024", "--file-size", "1024",
                              "--windows", "1024", "--p", "0.5", "--trials", "2"],
    "sweep-no-valid-window": ["sweep", "--file-size", "6", "--windows", "4,5", "--p", "0.5", "--trials", "4"],
    # one window that does not divide F refuses the whole sweep, as simulate --window does, whether or not
    # another window divides it
    "sweep-window-not-divisor": ["sweep", "--file-size", "6", "--windows", "2,4,6", "--p", "0.6", "--trials", "4"],
    # a bad flag every window shares is refused once, not blamed on each window
    "sweep-p-out-of-range": ["sweep", "--file-size", "8", "--windows", "2,4", "--p", "2", "--trials", "2"],
    "sweep-zero-receivers": ["sweep", "-N", "0", "--file-size", "8", "--windows", "2,4", "--p", "0.5", "--trials", "2"],
    "sweep-zero-file-size": ["sweep", "--file-size", "0", "--windows", "2,4", "--p", "0.5", "--trials", "2"],
    "solve-oversized": ["solve", "--file-size", "100000", "--window", "1", "--p", "0.5"],
    "check-lr-oversized": ["check-lr", "--file-sizes", "100000", "--windows", "1", "--ps", "0.5"],
    "check-lr-no-file-sizes": ["check-lr", "--file-sizes", ",", "--windows", "2", "--ps", "0.5"],
    "check-lr-no-windows": ["check-lr", "--file-sizes", "4", "--windows", "", "--ps", "0.5"],
    "check-lr-no-ps": ["check-lr", "--file-sizes", "4", "--windows", "2", "--ps", ","],
    "simulate-negative-seed": ["simulate", "--file-size", "4", "--window", "2", "--p", "0.5", "--trials", "2",
                               "--seed", "-1"],
    "sweep-negative-seed": ["sweep", "--file-size", "4", "--windows", "2", "--p", "0.5", "--trials", "2",
                            "--seed", "-1"],
    "codec-validate-negative-seed": ["codec-validate", "--batches", "3", "--seed", "-1"],
    "sweep-no-policies": ["sweep", "--policies", ",", "--file-size", "4", "--windows", "2", "--p", "0.5",
                          "--trials", "2"],
    "oracle-oversized": ["oracle", "--file-size", "100000", "--window", "1", "--p", "0.5"],
    "codec-validate-oversized-window": ["codec-validate", "--window", "20000", "--batches", "1"],
    "sweep-repeated-policy": ["sweep", "--policies", "lr,lr", "--file-size", "4", "--windows", "2", "--p", "0.5",
                              "--trials", "2"],
    "sweep-repeated-window": ["sweep", "--file-size", "4", "--windows", "2,2", "--p", "0.5", "--trials", "2"],
    "check-lr-repeated-file-size": ["check-lr", "--file-sizes", "4,8,4", "--windows", "2", "--ps", "0.5"],
    "check-lr-repeated-window": ["check-lr", "--file-sizes", "4", "--windows", "2,2", "--ps", "0.5"],
    "check-lr-repeated-p": ["check-lr", "--file-sizes", "4", "--windows", "2", "--ps", "0.5,0.50"],
    "check-lr-no-valid-cell": ["check-lr", "--file-sizes", "6", "--windows", "4", "--ps", "0.5"],
    "check-lr-no-valid-p": ["check-lr", "--file-sizes", "4", "--windows", "2", "--ps", "1.5", "--out", "r.csv"],
    "sweep-unknown-policy": ["sweep", "--policies", "lru", "--file-size", "4", "--windows", "2", "--p", "0.5",
                             "--trials", "2"],
    "solve-p-complement-rounds-to-1": ["solve", "--file-size", "4", "--window", "2", "--p", "1e-17"],
    "oracle-p-complement-rounds-to-1": ["oracle", "--file-size", "4", "--window", "2", "--p", "1e-17"],
    # --out in a directory that does not exist
    "solve-unwritable-out": ["solve", "--file-size", "4", "--window", "2", "--p", "0.5", "--out", "missing/t.csv"],
    "check-lr-unwritable-out": ["check-lr", "--file-sizes", "4", "--windows", "2", "--ps", "0.5",
                                "--out", "missing/r.csv"],
    "simulate-unwritable-out": ["simulate", "--file-size", "4", "--window", "2", "--p", "0.5", "--trials", "2",
                                "--out", "missing/s.csv"],
    "sweep-unwritable-out": ["sweep", "--file-size", "4", "--windows", "2", "--p", "0.5", "--trials", "2",
                             "--out", "missing/s.csv"],
}


@pytest.mark.parametrize("args", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_2_with_one_error_line(tmp_path, args):
    proc = run_cli(args, tmp_path)
    assert proc.returncode == 2
    # no refusal prints a warning, or anything else, before its one error line
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


UNWRITABLE_OUT = {
    "solve": ["solve", "--file-size", "4", "--window", "2", "--p", "0.5"],
    "check-lr-at-size-cap": ["check-lr", "--file-sizes", "2895", "--windows", "5", "--ps", "0.5"],
    "simulate": ["simulate", "--file-size", "4", "--window", "2", "--p", "0.5", "--trials", "2"],
    "sweep": ["sweep", "--file-size", "4", "--windows", "2", "--p", "0.5", "--trials", "2"],
}


@pytest.mark.parametrize("args", UNWRITABLE_OUT.values(), ids=UNWRITABLE_OUT.keys())
@pytest.mark.parametrize("where, reason", [
    ("missing/x.csv", "No such file or directory"),
    ("file/x.csv", "Not a directory"),
    ("dir", "Is a directory"),
])
def test_unwritable_out_refused_before_any_work(monkeypatch, capsys, tmp_path, args, where, reason):
    monkeypatch.setattr(cli, "sweep_coding_window", lambda *args: pytest.fail("a trial ran"))
    monkeypatch.setattr(cli, "solve_optimal", lambda *args: pytest.fail("a table was solved"))
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    out = tmp_path / where
    assert cli.main([*args, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: cannot write {out}: {reason}\n")


@pytest.mark.parametrize("args", UNWRITABLE_OUT.values(), ids=UNWRITABLE_OUT.keys())
def test_unwritable_manifest_refused_before_any_work(monkeypatch, capsys, tmp_path, args):
    # <out>.manifest is written after <out>: refusing it only then would
    # leave the data file behind without its manifest.
    monkeypatch.setattr(cli, "sweep_coding_window", lambda *args: pytest.fail("a trial ran"))
    monkeypatch.setattr(cli, "solve_optimal", lambda *args: pytest.fail("a table was solved"))
    (tmp_path / "t.csv.manifest").mkdir()
    out = tmp_path / "t.csv"
    assert cli.main([*args, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: cannot write {out}.manifest: Is a directory\n")
    assert not out.exists()


@pytest.mark.parametrize("full", ["m.csv", "m.csv.manifest"])
def test_failed_write_leaves_no_out_behind(monkeypatch, capsys, tmp_path, full):
    # the disk fills up after the checks, at the table's close or at the manifest
    write_text, write_table = Path.write_text, cli.write_table_csv

    def check_space(path):
        if Path(path).name == full:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    monkeypatch.setattr(cli, "write_table_csv", lambda path, *args: write_table(path, *args) or check_space(path))
    monkeypatch.setattr(Path, "write_text", lambda path, text: check_space(path) or write_text(path, text))
    out = tmp_path / "m.csv"
    assert cli.main(["solve", "--file-size", "4", "--window", "2", "--p", "0.5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {tmp_path / full}: No space left on device\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,flag", [
    ("check-lr", "--tolerance"), ("oracle", "--cap"), ("simulate", "--N"), ("sweep", "--N"),
    ("simulate", "--packet-len"), ("sweep", "--packet-len"),
])
def test_help_lists_no_removed_flag(capsys, command, flag):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    assert flag not in capsys.readouterr().out.replace(",", " ").split()


def test_packet_len_is_codec_validate_only(capsys):
    # simulate and sweep carry a fixed payload; codec validation still sizes its packets
    with pytest.raises(SystemExit):
        cli.main(["codec-validate", "--help"])
    assert "--packet-len" in capsys.readouterr().out.split()
    for command in (["simulate", "--window", "2"], ["sweep", "--windows", "2"]):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*command, "--file-size", "4", "--p", "0.5", "--mode", "codec", "--packet-len", "8"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --packet-len 8" in capsys.readouterr().err


# Each command's flags as the manifest lists them: sorted by name, defaults
# filled in, lists comma-joined as given.
MANIFEST_FLAGS = {
    "solve": (["solve", "--file-size", "4", "--window", "2", "--p", "0.5"], ["file_size=4", "p=0.5", "window=2"]),
    "check-lr": (
        ["check-lr", "--file-sizes", "8,4", "--windows", "2", "--ps", "0.5,0.9"],
        ["file_sizes=8,4", "ps=0.5,0.9", "windows=2"],
    ),
    "simulate-codec": (
        ["simulate", "-N", "2", "--file-size", "8", "--window", "4", "--p", "0.5", "--trials", "2",
         "--mode", "codec"],
        ["file_size=8", "mode=codec", "p=0.5", "policy=lr", "receivers=2", "seed=0", "trials=2", "window=4"],
    ),
    "sweep": (
        ["sweep", "--policies", "lr,rs", "--file-size", "6", "--windows", "2,6", "--p", "0.6", "--trials", "4",
         "--seed", "2"],
        ["file_size=6", "mode=ideal", "p=0.6", "policies=lr,rs", "receivers=2", "seed=2", "trials=4", "windows=2,6"],
    ),
}


@pytest.mark.parametrize("args,flags", MANIFEST_FLAGS.values(), ids=MANIFEST_FLAGS.keys())
def test_manifest_lists_every_parsed_flag_and_replays(monkeypatch, capsys, tmp_path, args, flags):
    monkeypatch.chdir(tmp_path)
    argv = [*args, "--out", "o.csv"]
    assert cli.main(argv) == 0
    first = (tmp_path / "o.csv").read_bytes()
    manifest = (tmp_path / "o.csv.manifest").read_text().splitlines()
    assert manifest == [
        f"tool=ncbroadcast {ncbroadcast.__version__}", f"command={args[0]}", f"argv={shlex.join(argv)}",
        *flags, "output=o.csv",
    ]
    (tmp_path / "o.csv").unlink()
    assert cli.main(shlex.split(manifest[2].removeprefix("argv="))) == 0
    assert (tmp_path / "o.csv").read_bytes() == first


@pytest.mark.parametrize("args,message", [
    (["sweep", "--policies", "lr,rs,lr", "--file-size", "4", "--windows", "2", "--p", "0.5"], "--policies repeats lr"),
    (["sweep", "--file-size", "4", "--windows", "1,2,1", "--p", "0.5"], "--windows repeats 1"),
    (["check-lr", "--file-sizes", "4,4", "--windows", "2", "--ps", "0.5"], "--file-sizes repeats 4"),
    (["check-lr", "--file-sizes", "4", "--windows", "2", "--ps", "0.5,0.50"], "--ps repeats 0.5"),
    # a refusal names only the value at fault, and never a window the user did not give
    (["sweep", "-N", "0", "--file-size", "8", "--windows", "2,4", "--p", "0.5"], "N must be positive, got N=0"),
    (["sweep", "--file-size", "0", "--windows", "2,4", "--p", "0.5"], "F must be positive, got F=0"),
    (["simulate", "--file-size", "4", "--window", "0", "--p", "0.5"], "K must be positive, got K=0"),
    (["sweep", "--file-size", "6", "--windows", "2,4,6", "--p", "0.6"],
     "file size must be a multiple of the window size, got F=6 K=4"),
])
def test_repeated_list_value_is_named(capsys, args, message):
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("mode", ["ideal", "codec"])
def test_slot_cap_is_one_error_line_and_exit_1(monkeypatch, capsys, tmp_path, mode):
    # the run is admitted under the real cap, then each pass of a trial meets a cap of 5 slots
    run_pass = sim._run_pass

    def capped(*args):
        monkeypatch.setattr(sim, "MAX_SLOTS", 5)
        return run_pass(*args)

    monkeypatch.setattr(sim, "_run_pass", capped)
    monkeypatch.chdir(tmp_path)
    args = ["simulate", "-N", "5", "--file-size", "10", "--window", "2", "--p", "0.5", "--trials", "2"]
    assert cli.main([*args, "--mode", mode, "--out", "s.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no completion after 5 slots; config ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []  # no output file without a result


# A trial is refused unless N times the Chernoff bound on one receiver's chance of
# fewer than F ON slots in MAX_SLOTS is at most 1e-9.  At F = 10 and p = 1e-9 the mean
# F / p alone passes the cap; at p = 1e-8 it is exactly the cap, and the bound reads 0.95
# per receiver.  One packet at p = 1e-8 is still missing after 1e9 slots with chance
# e^-10 = 4.5e-5, so even one receiver is refused, and 1024 of them give 0.046.
SLOT_HUNGRY = {
    "simulate": (["simulate", "--file-size", "10", "--window", "10", "--p", "1e-9", "--trials", "2"], "10", "1e-09", "2", "1"),
    "sweep": (["sweep", "--file-size", "10", "--windows", "10,5", "--p", "1e-9", "--trials", "2"], "10", "1e-09", "2", "1"),
    "simulate-mean-at-cap": (
        ["simulate", "--file-size", "10", "--window", "10", "--p", "1e-8", "--trials", "2"], "10", "1e-08", "2", "1"
    ),
    "one-receiver-tail": (
        ["simulate", "-N", "1", "--file-size", "1", "--window", "1", "--p", "1e-8", "--trials", "2"], "1", "1e-08", "1", "4.5e-05"
    ),
    "slowest-of-1024": (
        ["simulate", "-N", "1024", "--file-size", "1", "--window", "1", "--p", "1e-8", "--trials", "2"],
        "1", "1e-08", "1024", "0.046",
    ),
}


@pytest.mark.parametrize("args,F,p,N,risk", SLOT_HUNGRY.values(), ids=SLOT_HUNGRY.keys())
def test_slot_hungry_run_refused_before_any_trial(monkeypatch, capsys, args, F, p, N, risk):
    # a trial could run for hours before failing, so none may start
    monkeypatch.setattr(sim, "_run_pass", lambda *args: pytest.fail("a trial ran"))
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: --file-size {F} at --p {p} with -N {N}: a trial may run past the limit of 1000000000 slots, "
        f"with probability up to {risk}\n"
    )


def test_version_flag(tmp_path):
    proc = run_cli(["--version"], tmp_path)
    assert proc.returncode == 0
    assert "ncbroadcast" in proc.stdout


def test_missing_subcommand_is_usage_error(tmp_path):
    proc = run_cli([], tmp_path)
    assert proc.returncode == 2


CLOSED_STDOUT = {
    "solve": ["solve", "--file-size", "4", "--window", "2", "--p", "0.5"],
    "simulate": ["simulate", "--file-size", "8", "--window", "4", "--p", "0.5", "--trials", "2"],
}


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("args", CLOSED_STDOUT.values(), ids=CLOSED_STDOUT.keys())
def test_closed_stdout_exits_1_without_traceback(tmp_path, args, unbuffered):
    # `ncbroadcast ... | head -c1` with the reader gone before the first write, so it
    # always fails: at the first print when unbuffered, else at the flush of the output
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "ncbroadcast", *args], cwd=tmp_path, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, "")
