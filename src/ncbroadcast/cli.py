"""Command-line front end.

Subcommands: solve, check-lr, oracle, simulate, sweep, codec-validate.
Each cmd_* computes, prints and returns its exit code and the writer of
its --out file, or None.  main owns --out: it refuses one that cannot be
written (a missing or unwritable directory, or a directory), or whose
<out>.manifest cannot be, with exit 2 before any solve or trial starts.
Once the command returns, whatever its exit code, main writes the file
and <out>.manifest: the tool version, the command, the argument vector,
then every parsed flag with its default filled in, so a run can be
replayed byte-for-byte on the same build.  If a write fails anyway,
main removes what it wrote, so no file is left without its manifest.

This module parses flags, formats output and maps ConfigError, and an
OSError while writing --out, to exit 2.  Each run is admitted by the
library call that owns it, which raises ConfigError before any work
starts: sim.sweep_coding_window for simulate and sweep,
rlnc.run_codec_validation for codec-validate (each admits at most
model.MAX_REPEATS trials per cell, or batches) and
dp.enumerate_policies_oracle for oracle, which refuses an instance of
more than dp.ORACLE_MAX_CAP policies.  solve holds the value table
alone; its --out writer, dp.write_table_csv, reads the minimizing policy
off that table as it writes.  check-lr refuses its grid here,
before any cell prints: an empty or repeated list value, an oversized
file, or a grid with no valid cell.  It then
solves once per (K, p), at the largest valid F of that pair, certifies
every file size of the pair from that table, and prints the cells in
grid order once every sweep is done; each sweep writes one progress line
to stderr.  Every check-lr and oracle verdict allows the one slack
dp.TOLERANCE.

simulate is a sweep of one policy over one window: both share their
flags and are admitted by _run_cells, which builds each window's config
and runs them through sim.sweep_coding_window, with the codec in the
loop under --mode codec.

Exit codes: 0 success / all checks pass, 1 verification failure, a
stdout closed before the output was written or an admitted trial that
met the simulator's slot cap (sim.SlotCapError, one error: line), 2 usage
or configuration error.
"""

import argparse
import contextlib
import errno
import functools
import itertools
import os
import shlex
import sys
from pathlib import Path

from . import __version__
from .dp import certify, check_table_size, enumerate_policies_oracle, solve_optimal
from .dp import write_table_csv
from .model import ConfigError, validate_config
from .rlnc import MAX_CODEC_BYTES, expected_extra_packets, run_codec_validation
from .sim import MAX_RECEIVERS, POLICY_NAMES, RngSpec, SlotCapError, sweep_coding_window, write_stats_csv


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _policy_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _require_values(values: list, flag: str) -> None:
    """A list flag needs at least one value and no value twice (a repeat would rerun its cells)."""
    if not values:
        raise ConfigError(f"{flag} needs at least one value")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{flag} repeats {value}")


def _run_cells(args, policies: list[str], windows: list[int]) -> list:
    """Run every (policy, window) cell of simulate or sweep; a window that is
    not a positive divisor of --file-size refuses the run before any trial."""
    configs = [validate_config(args.file_size, K, args.receivers, args.p) for K in windows]
    return sweep_coding_window(policies, configs, args.trials, RngSpec(args.seed), args.mode == "codec")


def _check_out(out: Path) -> None:
    """Refuse an --out, or its <out>.manifest, that cannot be written (a missing or
    unwritable directory, or a directory as the file) before any work starts, as
    _write_out would after it."""
    for path in (out, Path(f"{out}.manifest")):
        if path.is_dir():
            code = errno.EISDIR
        elif not path.parent.is_dir():
            code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
        elif not os.access(path if path.exists() else path.parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise ConfigError(f"cannot write {path}: {os.strerror(code)}")


def _write_out(args, argv: list[str], write) -> None:
    """Write --out with write(path) and <out>.manifest, each flag a sorted name=value line, and say so."""
    lines = [f"tool=ncbroadcast {__version__}", f"command={args.command}", f"argv={shlex.join(argv)}"]
    for key, value in sorted(vars(args).items()):
        if key not in ("func", "command", "out"):
            lines.append(f"{key}={','.join(map(str, value)) if isinstance(value, list) else value}")
    lines.append(f"output={args.out}")
    manifest = Path(f"{args.out}.manifest")
    begun = [args.out]  # the files to remove if a write fails
    try:
        write(args.out)
        begun.append(manifest)
        manifest.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        for path in begun:
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)
        raise ConfigError(f"cannot write {exc.filename or args.out}: {exc.strerror or exc}") from exc
    print(f"wrote {args.out}")


def cmd_solve(args):
    config = validate_config(args.file_size, args.window, 2, args.p)
    values = solve_optimal(config)
    print(f"V(0,0) = {values[0, 0]:.6f}")
    return 0, lambda path: write_table_csv(path, config, values)


def _certify_group(configs: list) -> dict:
    """Certify configs that share K and p from one sweep, at their largest F.

    V_F(x0, x1) depends only on F - x0, F - x1, K and p, so the table of
    each smaller F is the lower-right corner of the largest one, bit for
    bit.  The table is freed on return, before the next group's sweep.
    """
    top = max(configs, key=lambda config: config.F)
    n = len(configs)
    print(f"check-lr: K={top.K} p={top.p}: solving F={top.F} for {n} file size{'s' * (n > 1)}", file=sys.stderr)
    values = solve_optimal(top)
    return {config: certify(config, values[top.F - config.F:, top.F - config.F:]) for config in configs}


def cmd_check_lr(args):
    for flag, values in (("--file-sizes", args.file_sizes), ("--windows", args.windows), ("--ps", args.ps)):
        _require_values(values, flag)
    for F in args.file_sizes:
        check_table_size(F)  # refuse the grid before any cell prints
    grid = []  # (F, K, p, config or the ConfigError refusing it)
    groups = {}  # (K, p) -> the valid configs of that pair, in grid order
    for F, K, p in itertools.product(args.file_sizes, args.windows, args.ps):
        try:
            config = validate_config(F, K, 2, p)
            groups.setdefault((config.K, config.p), []).append(config)
        except ConfigError as exc:
            config = exc
        grid.append((F, K, p, config))
    if not groups:
        raise ConfigError(
            f"no valid cell among --file-sizes {','.join(map(str, args.file_sizes))} "
            f"--windows {','.join(map(str, args.windows))} --ps {','.join(map(str, args.ps))}"
        )
    reports = {}
    for configs in groups.values():
        reports.update(_certify_group(configs))
    rows = []
    failed = False
    for F, K, p, config in grid:
        if isinstance(config, ConfigError):
            rows.append((F, K, p, "config", 0, 0, "", "invalid"))
            print(f"F={F} K={K} p={p}: invalid ({config})")
            continue
        report = reports[config]
        failed |= not report.passed
        for check in report.checks:
            status = "pass" if check.violations == 0 else "fail"
            rows.append((F, K, p, check.name, check.examined, check.violations, repr(check.worst_margin), status))
        print(f"F={F} K={K} p={p}: {'PASS' if report.passed else 'FAIL'}")

    def write_report(path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("F,K,p,check,examined,violations,worst_margin,status\n")
            for row in rows:
                fh.write(",".join(str(item) for item in row) + "\n")

    return 1 if failed else 0, write_report


def cmd_oracle(args):
    config = validate_config(args.file_size, args.window, 2, args.p)
    result = enumerate_policies_oracle(config)
    print(
        f"best V(0,0) = {result.best_value:.9f}, "
        f"serve-least-everywhere V(0,0) = {result.lr_value:.9f} "
        f"over {result.n_decision_states} decision states"
    )
    print(f"{result.n_policies} policies; LR {'optimal' if result.lr_matches_best else 'NOT optimal'}")
    return 0 if result.lr_matches_best else 1, None


def cmd_simulate(args):
    cells = _run_cells(args, [args.policy], [args.window])
    cell = cells[0]
    config = cell.config
    print(
        f"policy={args.policy} N={config.N} F={config.F} K={config.K} p={config.p} "
        f"trials={cell.n_trials} mean={cell.mean:.4f} "
        f"stddev={cell.stddev:.4f} ci95=±{cell.ci95_half_width:.4f}"
    )
    return 0, lambda path: write_stats_csv(path, cells)


def cmd_sweep(args):
    _require_values(args.policies, "--policies")
    _require_values(args.windows, "--windows")
    cells = _run_cells(args, args.policies, args.windows)
    print("policy  K      mean      stddev    ci95")
    for cell in cells:
        print(
            f"{cell.policy:<6}  {cell.config.K:<5}  {cell.mean:<8.2f}  "
            f"{cell.stddev:<8.2f}  ±{cell.ci95_half_width:.2f}"
        )
    return 0, lambda path: write_stats_csv(path, cells)


def cmd_codec_validate(args):
    report = run_codec_validation(args.window, args.packet_len, args.batches, args.seed)
    success = 100.0 * (report.n_batches - report.roundtrip_failures) / report.n_batches
    print(f"batches={report.n_batches} window={report.window} packet_len={report.packet_len}")
    print(f"round-trip success: {success:.4f}% ({report.roundtrip_failures} failures)")
    print(
        f"mean extra packets beyond K: {report.mean_extra_packets:.6f} "
        f"(analytic for GF(256): {expected_extra_packets(report.window):.6f})"
    )
    print(f"fraction decoded with exactly K packets: {report.exact_rank_fraction:.6f}")
    return 0 if report.roundtrip_ok else 1, None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use and reused by every main.

    argparse makes a help formatter for each flag it adds, which costs more
    than a parse, and a parse leaves the parser unchanged.  Every parse
    shares the default objects, so no command mutates one (the sweep's
    --policies list included).
    """
    parser = argparse.ArgumentParser(
        prog="ncbroadcast",
        description="Batch-coded broadcast scheduling: exact two-receiver solving, "
        "policy certification and N-receiver Monte Carlo experiments.",
    )
    parser.add_argument("--version", action="version", version=f"ncbroadcast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="exact expected completion times for two receivers")
    solve.add_argument("--file-size", type=int, required=True, help="file size F in packets")
    solve.add_argument("--window", type=int, required=True, help="coding window size K")
    solve.add_argument("--p", type=float, required=True, help="per-slot ON probability")
    solve.add_argument("--out", type=Path, help="write the x0,x1,value,action table here")
    solve.set_defaults(func=cmd_solve)

    check = sub.add_parser("check-lr", help="certify least-received optimal over a parameter grid")
    check.add_argument("--file-sizes", type=_int_list, required=True, help="comma list of F values")
    check.add_argument("--windows", type=_int_list, required=True, help="comma list of K values")
    check.add_argument("--ps", type=_float_list, required=True, help="comma list of p values")
    check.add_argument("--out", type=Path, help="write the per-check CSV report here")
    check.set_defaults(func=cmd_check_lr)

    oracle = sub.add_parser("oracle", help="brute-force enumeration of every deterministic policy")
    oracle.add_argument("--file-size", type=int, required=True)
    oracle.add_argument("--window", type=int, required=True)
    oracle.add_argument("--p", type=float, required=True)
    oracle.set_defaults(func=cmd_oracle)

    run = argparse.ArgumentParser(add_help=False)  # the flags simulate and sweep share
    run.add_argument("--receivers", "-N", type=int, default=2, help=f"number of receivers (at most {MAX_RECEIVERS})")
    run.add_argument("--file-size", type=int, required=True)
    run.add_argument("--p", type=float, required=True)
    run.add_argument("--seed", type=int, default=0, help="master seed of the trial streams (>= 0)")
    run.add_argument("--mode", choices=("ideal", "codec"), default="ideal")
    run.add_argument("--out", type=Path, help="write the stats CSV here")

    simulate = sub.add_parser("simulate", parents=[run], help="Monte Carlo completion time for one policy")
    simulate.add_argument("--policy", choices=POLICY_NAMES, default="lr")
    simulate.add_argument("--window", type=int, required=True)
    simulate.add_argument("--trials", type=int, default=10_000)
    simulate.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", parents=[run], help="compare policies across coding window sizes")
    sweep.add_argument("--policies", type=_policy_list, default=list(POLICY_NAMES))
    sweep.add_argument("--windows", type=_int_list, required=True, help="comma list of K values")
    sweep.add_argument("--trials", type=int, default=1_000)
    sweep.set_defaults(func=cmd_sweep)

    codec = sub.add_parser("codec-validate", help="round-trip and rank statistics of the GF(256) codec")
    codec.add_argument("--window", type=int, default=16, help="packets combined per batch")
    codec.add_argument(
        "--packet-len", type=int, default=64,
        help=f"payload bytes per packet; one block decode must fit in about {MAX_CODEC_BYTES} bytes",
    )
    codec.add_argument("--batches", type=int, default=10_000)
    codec.add_argument("--seed", type=int, default=0)
    codec.set_defaults(func=cmd_codec_validate)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        if out:
            _check_out(out)
        code, write = args.func(args)
        if out:
            _write_out(args, argv, write)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SlotCapError as exc:
        # the run was admitted but did not finish: not a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout early (as `| head -c1` does); stdout goes to devnull
        # so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
