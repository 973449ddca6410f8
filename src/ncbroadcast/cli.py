"""Command-line front end.

Subcommands: solve, check-lr, oracle, simulate, sweep, codec-validate.
Every file written with --out is paired with a <out>.manifest recording
the tool version and the full argument vector, so a run can be replayed
byte-for-byte on the same build.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or configuration error.
"""

import argparse
import math
import shlex
import sys
from pathlib import Path

from . import __version__
from .dp import (
    OracleCapacityError,
    audit_inequalities,
    check_lr_optimality,
    check_table_size,
    enumerate_policies_oracle,
    solve_optimal,
    write_table_csv,
)
from .model import ConfigError, validate_config
from .policies import POLICY_NAMES
from .rlnc import expected_extra_packets, run_codec_validation
from .sim import (
    DEFAULT_PACKET_LEN,
    MAX_CODEC_BYTES,
    MAX_RECEIVERS,
    RngSpec,
    SweepCell,
    run_experiment,
    sweep_coding_window,
    write_stats_csv,
)


_ORACLE_MAX_CAP = 2**20  # default --cap of oracle, and the largest it accepts
_PACKET_LEN_HELP = (
    f"payload bytes (codec mode); a codec trial's source, rank state and block solve "
    f"must fit in about {MAX_CODEC_BYTES} bytes"
)


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _policy_list(text: str) -> list[str]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    for name in names:
        if name not in POLICY_NAMES:
            raise argparse.ArgumentTypeError(f"unknown policy {name!r}; pick from {','.join(POLICY_NAMES)}")
    return names


def _require_at_least(value: int, minimum: int, flag: str) -> None:
    if value < minimum:
        raise ConfigError(f"{flag} must be at least {minimum}, got {value}")


def _check_simulation_args(args) -> None:
    _require_at_least(args.trials, 2, "--trials")  # the sample stddev needs two
    if args.mode == "codec":
        _require_at_least(args.packet_len, 1, "--packet-len")


def _write_manifest(out: Path, command: str, argv: list[str], params: dict, outputs: list[Path]) -> None:
    lines = [f"tool=ncbroadcast {__version__}", f"command={command}", f"argv={shlex.join(argv)}"]
    lines += [f"{key}={value}" for key, value in params.items()]
    lines += [f"output={path}" for path in outputs]
    Path(f"{out}.manifest").write_text("\n".join(lines) + "\n")


def cmd_solve(args, argv) -> int:
    config = validate_config(args.file_size, args.window, 2, args.p)
    values, actions = solve_optimal(config)
    print(f"V(0,0) = {values[0, 0]:.6f}")
    if args.out:
        write_table_csv(args.out, values, actions)
        _write_manifest(
            args.out, "solve", argv,
            {"file_size": config.F, "window": config.K, "p": config.p},
            [args.out],
        )
        print(f"wrote {args.out}")
    return 0


def cmd_check_lr(args, argv) -> int:
    for flag, values in (("--file-sizes", args.file_sizes), ("--windows", args.windows), ("--ps", args.ps)):
        if not values:
            raise ConfigError(f"{flag} needs at least one value")
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ConfigError(f"--tolerance must be finite and non-negative, got {args.tolerance}")
    for F in args.file_sizes:
        check_table_size(F)  # refuse the grid before any cell prints
    rows = []
    failed = False
    for F in args.file_sizes:
        for K in args.windows:
            for p in args.ps:
                try:
                    config = validate_config(F, K, 2, p)
                except ConfigError as exc:
                    rows.append((F, K, p, "config", 0, 0, "", "invalid"))
                    print(f"F={F} K={K} p={p}: invalid ({exc})")
                    continue
                values, _ = solve_optimal(config)
                ok, violations = check_lr_optimality(config, values, args.tolerance)
                report = audit_inequalities(config, values, args.tolerance)
                cell_ok = ok and report.passed
                failed |= not cell_ok
                rows.append((
                    F, K, p, "lr_optimality",
                    report.by_name("decision_sign_equivalence").examined, len(violations), "",
                    "pass" if ok else "fail",
                ))
                for check in report.checks:
                    rows.append((
                        F, K, p, check.name, check.examined, check.violations,
                        repr(check.worst_margin), "pass" if check.violations == 0 else "fail",
                    ))
                print(f"F={F} K={K} p={p}: {'PASS' if cell_ok else 'FAIL'}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write("F,K,p,check,examined,violations,worst_margin,status\n")
            for row in rows:
                fh.write(",".join(str(item) for item in row) + "\n")
        _write_manifest(
            args.out, "check-lr", argv,
            {
                "file_sizes": ",".join(map(str, args.file_sizes)),
                "windows": ",".join(map(str, args.windows)),
                "ps": ",".join(map(str, args.ps)),
                "tolerance": args.tolerance,
            },
            [args.out],
        )
        print(f"wrote {args.out}")
    return 1 if failed else 0


def cmd_oracle(args, argv) -> int:
    if not 1 <= args.cap <= _ORACLE_MAX_CAP:
        raise ConfigError(f"--cap must be between 1 and {_ORACLE_MAX_CAP}, got {args.cap}")
    config = validate_config(args.file_size, args.window, 2, args.p)
    result = enumerate_policies_oracle(config, policy_cap=args.cap)
    print(
        f"best V(0,0) = {result.best_value:.9f}, "
        f"serve-least-everywhere V(0,0) = {result.lr_value:.9f} "
        f"over {len(result.decision_states)} decision states"
    )
    print(f"{result.n_policies} policies; LR {'optimal' if result.lr_matches_best else 'NOT optimal'}")
    return 0 if result.lr_matches_best else 1


def cmd_simulate(args, argv) -> int:
    config = validate_config(args.file_size, args.window, args.receivers, args.p)
    _check_simulation_args(args)
    stats = run_experiment(
        config, args.policy, args.trials, RngSpec(args.seed),
        mode=args.mode, packet_len=args.packet_len,
    )
    print(
        f"policy={args.policy} N={config.N} F={config.F} K={config.K} p={config.p} "
        f"trials={stats.n_trials} mean={stats.mean:.4f} "
        f"stddev={stats.stddev:.4f} ci95=±{stats.ci95_half_width:.4f}"
    )
    if args.out:
        write_stats_csv(args.out, [SweepCell(args.policy, config, stats)])
        _write_manifest(
            args.out, "simulate", argv,
            {
                "policy": args.policy, "receivers": config.N, "file_size": config.F,
                "window": config.K, "p": config.p, "trials": args.trials,
                "seed": args.seed, "mode": args.mode,
            },
            [args.out],
        )
        print(f"wrote {args.out}")
    return 0


def cmd_sweep(args, argv) -> int:
    _check_simulation_args(args)
    valid, skipped = [], []
    for K in args.windows:
        try:
            validate_config(args.file_size, K, args.receivers, args.p)
            valid.append(K)
        except ConfigError as exc:
            skipped.append(K)
            print(f"skipping window {K}: {exc}", file=sys.stderr)
    if not valid:
        raise ConfigError(f"no valid window among --windows {','.join(map(str, args.windows))}")
    cells = sweep_coding_window(
        args.file_size, args.receivers, args.p, args.policies, valid,
        args.trials, RngSpec(args.seed), mode=args.mode, packet_len=args.packet_len,
    )
    print("policy  K      mean      stddev    ci95")
    for cell in cells:
        s = cell.stats
        print(
            f"{cell.policy:<6}  {cell.config.K:<5}  {s.mean:<8.2f}  "
            f"{s.stddev:<8.2f}  ±{s.ci95_half_width:.2f}"
        )
    if args.out:
        write_stats_csv(args.out, cells)
        _write_manifest(
            args.out, "sweep", argv,
            {
                "policies": ",".join(args.policies), "receivers": args.receivers,
                "file_size": args.file_size, "windows": ",".join(map(str, valid)),
                "skipped_windows": ",".join(map(str, skipped)), "p": args.p,
                "trials": args.trials, "seed": args.seed, "mode": args.mode,
            },
            [args.out],
        )
        print(f"wrote {args.out}")
    return 0


def cmd_codec_validate(args, argv) -> int:
    _require_at_least(args.window, 1, "--window")
    _require_at_least(args.packet_len, 1, "--packet-len")
    _require_at_least(args.batches, 0, "--batches")
    report = run_codec_validation(args.window, args.packet_len, args.batches, args.seed)
    if report.n_batches == 0:
        print("no batches requested; nothing to validate")
        return 0
    success = 100.0 * (report.n_batches - report.roundtrip_failures) / report.n_batches
    print(f"batches={report.n_batches} window={report.window} packet_len={report.packet_len}")
    print(f"round-trip success: {success:.4f}% ({report.roundtrip_failures} failures)")
    print(
        f"mean extra packets beyond K: {report.mean_extra_packets:.6f} "
        f"(analytic for GF(256): {expected_extra_packets(report.window):.6f})"
    )
    print(f"fraction decoded with exactly K packets: {report.exact_rank_fraction:.6f}")
    return 0 if report.roundtrip_ok else 1


def build_parser() -> argparse.ArgumentParser:
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
    check.add_argument("--tolerance", type=float, default=1e-9, help="slack allowed in every check (finite, >= 0)")
    check.add_argument("--out", type=Path, help="write the per-check CSV report here")
    check.set_defaults(func=cmd_check_lr)

    oracle = sub.add_parser("oracle", help="brute-force enumeration of every deterministic policy")
    oracle.add_argument("--file-size", type=int, required=True)
    oracle.add_argument("--window", type=int, required=True)
    oracle.add_argument("--p", type=float, required=True)
    oracle.add_argument(
        "--cap", type=int, default=_ORACLE_MAX_CAP,
        help=f"refuse instances with more policies than this (1 to {_ORACLE_MAX_CAP})",
    )
    oracle.set_defaults(func=cmd_oracle)

    simulate = sub.add_parser("simulate", help="Monte Carlo completion time for one policy")
    simulate.add_argument("--policy", choices=POLICY_NAMES, default="lr")
    simulate.add_argument(
        "--receivers", "-N", "--N", type=int, default=2, help=f"number of receivers (at most {MAX_RECEIVERS})"
    )
    simulate.add_argument("--file-size", type=int, required=True)
    simulate.add_argument("--window", type=int, required=True)
    simulate.add_argument("--p", type=float, required=True)
    simulate.add_argument("--trials", type=int, default=10_000)
    simulate.add_argument("--seed", type=int, default=0, help="master seed of the trial streams")
    simulate.add_argument("--mode", choices=("ideal", "codec"), default="ideal")
    simulate.add_argument("--packet-len", type=int, default=DEFAULT_PACKET_LEN, help=_PACKET_LEN_HELP)
    simulate.add_argument("--out", type=Path, help="write the stats CSV here")
    simulate.set_defaults(func=cmd_simulate)

    sweep = sub.add_parser("sweep", help="compare policies across coding window sizes")
    sweep.add_argument("--policies", type=_policy_list, default=list(POLICY_NAMES))
    sweep.add_argument(
        "--receivers", "-N", "--N", type=int, default=2, help=f"number of receivers (at most {MAX_RECEIVERS})"
    )
    sweep.add_argument("--file-size", type=int, required=True)
    sweep.add_argument("--windows", type=_int_list, required=True, help="comma list of K values")
    sweep.add_argument("--p", type=float, required=True)
    sweep.add_argument("--trials", type=int, default=1_000)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--mode", choices=("ideal", "codec"), default="ideal")
    sweep.add_argument("--packet-len", type=int, default=DEFAULT_PACKET_LEN, help=_PACKET_LEN_HELP)
    sweep.add_argument("--out", type=Path, help="write the stats CSV here")
    sweep.set_defaults(func=cmd_sweep)

    codec = sub.add_parser("codec-validate", help="round-trip and rank statistics of the GF(256) codec")
    codec.add_argument("--window", type=int, default=16, help="packets combined per batch")
    codec.add_argument("--packet-len", type=int, default=64, help="payload bytes per packet")
    codec.add_argument("--batches", type=int, default=10_000)
    codec.add_argument("--seed", type=int, default=0)
    codec.set_defaults(func=cmd_codec_validate)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, argv)
    except (ConfigError, OracleCapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
