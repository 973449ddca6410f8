"""The four benchmark workloads as fixed lists of `ncbroadcast` command lines.

A workload is built from the seed into a Plan: the operations of one
round (each one in-process call of `ncbroadcast.cli.main(argv)`), a
warm-up, untimed reference calls, the work one round does, and a check
that compares the round's outputs with references from references.py or
with properties the method must have.  The seed reaches the program only
as `--seed`; for the DP commands, which take none, it picks p values
from a menu on which every check was verified to pass.
"""

import csv
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import references as ref

POLICIES = ("lr", "rrnc", "rs")
P_MENU = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
TIE = 1e-9  # the program's default tie tolerance, and the exact-check tolerance
Z = 4.0     # standard errors allowed in the statistical checks


@dataclass(frozen=True)
class Op:
    """One program call; `key` identifies it to the check, `out` is its --out CSV."""

    key: tuple
    argv: tuple[str, ...]
    out: Path | None = None


@dataclass(frozen=True)
class OpResult:
    op: Op
    code: int | None  # exit code; None when the call raised
    stdout: str
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.code == 0


@dataclass
class Plan:
    ops: list[Op]
    warmup: list[tuple[str, ...]]
    check: Callable[[list[OpResult], list[OpResult]], list[str]]
    work: Callable[[list[OpResult]], float]
    work_unit: str
    references: list[Op] = field(default_factory=list)  # run once, untimed
    states: float = 0.0  # value-table states per round (exact_certify)
    tables: int = 0      # value tables asked of solve / check-lr per round


def _read_stats(path: Path) -> dict:
    with open(path, newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    return row


def _slots(results: list[OpResult]) -> float:
    """Simulated slots summed over trials, from the stats CSVs."""
    total = 0
    for r in results:
        row = _read_stats(r.op.out)
        total += round(float(row["mean_slots"]) * int(row["n_trials"]))
    return float(total)


def _simulate_argv(policy, N, F, K, p, trials, seed, out, mode="ideal"):
    return (
        "simulate", "--mode", mode, "--policy", policy, "--receivers", str(N),
        "--file-size", str(F), "--window", str(K), "--p", repr(p),
        "--trials", str(trials), "--seed", str(seed), "--out", str(out),
    )


# policy_sweep: the C7 shape.  K runs from conflict-heavy (5) to
# conflict-free (K = F), so the sim slot loop and policy selection do
# nearly all the work.
def policy_sweep(seed: int, smoke: bool, workdir: Path) -> Plan:
    N, F, p, windows, trials = (5, 60, 0.6, (3, 12, 60), 20) if smoke else (5, 500, 0.6, (5, 25, 100, 500), 8)
    ops = [
        Op((policy, K), _simulate_argv(policy, N, F, K, p, trials, seed, workdir / f"sweep-{policy}-{K}.csv"),
           workdir / f"sweep-{policy}-{K}.csv")
        for policy in POLICIES for K in windows
    ]

    def check(results, _refs):
        problems = []
        exact_mean, exact_var = ref.kf_completion_moments(N, F, p)
        rows = {r.op.key: _read_stats(r.op.out) for r in results}
        for key, row in rows.items():
            if (int(row["N"]), int(row["F"]), int(row["K"]), int(row["n_trials"])) != (N, F, key[1], trials):
                problems.append(f"{key}: stats row {row} does not echo its inputs")
        mean = {key: float(row["mean_slots"]) for key, row in rows.items()}
        ci = {key: float(row["ci95_half_width"]) for key, row in rows.items()}
        full = [tuple(rows[policy, F][c] for c in ("mean_slots", "stddev", "ci95_half_width")) for policy in POLICIES]
        if len(set(full)) != 1:
            problems.append(f"K=F rows differ across policies: {full}")
        se = math.sqrt(exact_var / trials)
        if abs(mean["lr", F] - exact_mean) > Z * se:
            problems.append(f"K=F mean {mean['lr', F]} is {Z} SE ({se:.3f}) or more from exact {exact_mean:.4f}")
        for (policy, K), value in mean.items():
            if value < mean[policy, F]:
                problems.append(f"{policy} K={K} mean {value} is below the K=F mean {mean[policy, F]}")
        small = windows[0]
        for other in ("rrnc", "rs"):
            if not mean["lr", small] + ci["lr", small] < mean[other, small] - ci[other, small]:
                problems.append(f"lr does not beat {other} at K={small} by more than both CIs")
        return problems

    return Plan(
        ops=ops,
        warmup=[_simulate_argv("rs", 3, 4, 2, 0.5, 2, 0, workdir / "warmup.csv")],
        check=check,
        work=_slots,
        work_unit="slots",
    )


# exact_certify: check-lr over an F x K x p grid extending C3 to larger F,
# one solve table at larger F exported as CSV, and the 256-policy oracle.
# dp and mdp do all the work; CSV export in cli is the rest.  The grid is
# cut into check-lr calls of similar cost, F=120 alone and the smaller F
# together, so that the median operation is one of many alike.
def exact_certify(seed: int, smoke: bool, workdir: Path) -> Plan:
    groups, windows = (((8,), (12,)), (2, 4)) if smoke else (((24, 48, 72, 96), (120,)), (2, 24))
    solve_F, solve_K = (24, 4) if smoke else (240, 8)
    oracle_ps = (0.3, 0.5, 0.8)
    cells = [(group, K) for K in windows for group in groups]
    picks = np.random.default_rng(seed).choice(P_MENU, size=len(cells) + 1)
    solve_p = float(picks[-1])
    ops = [
        Op(("check-lr", group, K, float(p)),
           ("check-lr", "--file-sizes", ",".join(map(str, group)), "--windows", str(K), "--ps", repr(float(p)),
            "--out", str(workdir / f"check-{i}.csv")),
           workdir / f"check-{i}.csv")
        for i, ((group, K), p) in enumerate(zip(cells, picks))
    ]
    ops.append(Op(("solve",), ("solve", "--file-size", str(solve_F), "--window", str(solve_K),
                               "--p", repr(solve_p), "--out", str(workdir / "solve.csv")),
                  workdir / "solve.csv"))
    ops += [Op(("oracle", p), ("oracle", "--file-size", "4", "--window", "2", "--p", repr(p))) for p in oracle_ps]
    sizes = [F for group in groups for F in group]
    states = sum((F + 1) ** 2 for F in sizes) * len(windows) + (solve_F + 1) ** 2 + len(oracle_ps) * 256 * 25

    def check(results, _refs):
        problems = []
        for r in results:
            kind = r.op.key[0]
            if kind == "check-lr":
                problems += _check_grid(r, *r.op.key[1:])
            elif kind == "solve":
                problems += _check_table(r, solve_F, solve_K, solve_p)
            else:
                problems += _check_oracle(r, r.op.key[1])
        return problems

    return Plan(
        ops=ops,
        warmup=[("check-lr", "--file-sizes", "4", "--windows", "2", "--ps", "0.5"),
                ("solve", "--file-size", "4", "--window", "2", "--p", "0.5", "--out", str(workdir / "warmup.csv")),
                ("oracle", "--file-size", "2", "--window", "1", "--p", "0.5")],
        check=check,
        work=lambda results: float(states),
        work_unit="states",
        states=float(states),
        tables=len(sizes) * len(windows) + 1,
    )


def _check_grid(r: OpResult, sizes, K: int, p: float) -> list[str]:
    with open(r.op.out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = [f"check-lr F={row['F']} K={K}: {row['check']} is {row['status']}"
                for row in rows if row["status"] != "pass"]
    for F in sizes:
        lr = [row for row in rows if (int(row["F"]), int(row["K"]), float(row["p"]), row["check"])
              == (F, K, p, "lr_optimality")]
        expected = ref.decision_state_count(F, K)
        if len(lr) != 1:
            problems.append(f"check-lr F={F} K={K}: expected one lr_optimality row, got {len(lr)}")
        elif int(lr[0]["examined"]) != expected:
            problems.append(f"check-lr F={F} K={K}: examined {lr[0]['examined']} decision states, "
                            f"expected {expected}")
    return problems


def _check_table(r: OpResult, F: int, K: int, p: float) -> list[str]:
    table = np.loadtxt(r.op.out, delimiter=",", skiprows=1)
    side = F + 1
    x0, x1 = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    if table.shape != (side * side, 4) or not (
        (table[:, 0] == x0.ravel()).all() and (table[:, 1] == x1.ravel()).all()
    ):
        return [f"solve F={F}: table is not {side}x{side} rows in lexicographic (x0, x1) order"]
    values = table[:, 2].reshape(side, side)
    actions = table[:, 3].reshape(side, side).astype(int)
    q = 1.0 - p
    problems = []
    edge = np.abs(values[:, F] - (F - np.arange(side)) / p).max()
    if edge > TIE:
        problems.append(f"solve F={F}: V(x0, F) is {edge:.3g} from (F - x0)/p")
    corner = abs(values[F - 1, F - 1] - (1 + 2 * q) / (1 - q * q))
    if corner > TIE:
        problems.append(f"solve F={F}: V(F-1, F-1) is {corner:.3g} from (1+2q)/(1-q^2)")
    residual = ref.bellman_residual(values, K, p)
    if residual > TIE:
        problems.append(f"solve F={F}: Bellman residual {residual:.3g} exceeds {TIE}")
    wrong = ref.action_mismatches(values, actions, K, p, TIE)
    if wrong:
        problems.append(f"solve F={F}: {wrong} actions are not the lookahead argmin")
    printed = re.search(r"V\(0,0\) = ([0-9.]+)", r.stdout)
    if not printed or abs(float(printed.group(1)) - values[0, 0]) > 1e-6:
        problems.append(f"solve F={F}: printed V(0,0) does not match the table")
    return problems


def _check_oracle(r: OpResult, p: float) -> list[str]:
    found = re.search(r"best V\(0,0\) = ([0-9.]+)", r.stdout)
    verdict = re.search(r"(\d+) policies; LR (optimal|NOT optimal)", r.stdout)
    if not (found and verdict):
        return [f"oracle p={p}: unexpected output {r.stdout!r}"]
    best = float(ref.optimal_values(4, 2, p)[0, 0])
    problems = []
    if int(verdict.group(1)) != 256 or verdict.group(2) != "optimal":
        problems.append(f"oracle p={p}: {verdict.group(0)}")
    if abs(float(found.group(1)) - best) > 1e-8:
        problems.append(f"oracle p={p}: best V(0,0) {found.group(1)} differs from {best:.10f}")
    return problems


# codec_sim: lr with the GF(256) codec in the loop.  Each encoded packet
# fans out to about N*p decoders, which are created, verified and
# dropped per batch; per-slot cost grows with K.
def codec_sim(seed: int, smoke: bool, workdir: Path) -> Plan:
    N, F, p, windows, trials = (3, 24, 0.6, (4, 24), 3) if smoke else (5, 100, 0.6, (4, 20, 100), 6)
    ops = [
        Op(("codec", K), _simulate_argv("lr", N, F, K, p, trials, seed, workdir / f"codec-{K}.csv", "codec"),
           workdir / f"codec-{K}.csv")
        for K in windows
    ]
    ideal = Op(("ideal", F), _simulate_argv("lr", N, F, F, p, trials, seed, workdir / "ideal.csv"),
               workdir / "ideal.csv")

    def check(results, refs):
        codec_full = float(_read_stats(next(r.op.out for r in results if r.op.key == ("codec", F)))["mean_slots"])
        ideal_full = float(_read_stats(refs[0].op.out)["mean_slots"])
        if codec_full < ideal_full:
            return [f"codec K=F mean {codec_full} is below the ideal-mode mean {ideal_full} of the same seed"]
        return []

    return Plan(
        ops=ops,
        warmup=[_simulate_argv("lr", 2, 4, 2, 0.5, 2, 0, workdir / "warmup.csv", "codec")],
        check=check,
        work=_slots,
        work_unit="slots",
        references=[ideal],
    )


# codec_validate: the C9 shape.  One decoder and one ingest per encode at
# a fixed K, the use a batch-level encoder would target.
def codec_validate(seed: int, smoke: bool, workdir: Path) -> Plan:
    window, packet_len = 16, 64
    batches, count = (50, 3) if smoke else (400, 5)
    seeds = np.random.SeedSequence(seed).generate_state(count)
    ops = [
        Op(("validate", int(s)), ("codec-validate", "--window", str(window), "--packet-len", str(packet_len),
                                  "--batches", str(batches), "--seed", str(int(s))))
        for s in seeds
    ]

    def check(results, _refs):
        problems = []
        extra_mean, extra_var = ref.extra_packet_moments(window)
        exact_p = ref.exact_rank_fraction(window)
        extras = exact = 0
        for r in results:
            failures = re.search(r"\((\d+) failures\)", r.stdout)
            mean = re.search(r"mean extra packets beyond K: ([0-9.]+)", r.stdout)
            frac = re.search(r"fraction decoded with exactly K packets: ([0-9.]+)", r.stdout)
            if not (failures and mean and frac and f"batches={batches} " in r.stdout):
                problems.append(f"codec-validate {r.op.key}: unexpected output {r.stdout!r}")
                continue
            if int(failures.group(1)):
                problems.append(f"codec-validate {r.op.key}: {failures.group(1)} round-trip failures")
            extras += round(float(mean.group(1)) * batches)
            exact += round(float(frac.group(1)) * batches)
        n = batches * len(results)
        if abs(extras / n - extra_mean) > Z * math.sqrt(extra_var / n):
            problems.append(f"mean extra packets {extras / n} is {Z} sigma or more from {extra_mean:.6f}")
        if abs(exact / n - exact_p) > Z * math.sqrt(exact_p * (1 - exact_p) / n):
            problems.append(f"exact-rank fraction {exact / n} is {Z} sigma or more from {exact_p:.6f}")
        return problems

    return Plan(
        ops=ops,
        warmup=[("codec-validate", "--window", "2", "--packet-len", "4", "--batches", "2")],
        check=check,
        work=lambda results: float(batches * len(results)),
        work_unit="batches",
    )


WORKLOADS = {
    "policy_sweep": policy_sweep,
    "exact_certify": exact_certify,
    "codec_sim": codec_sim,
    "codec_validate": codec_validate,
}


def build(name: str, seed: int, smoke: bool, workdir: Path) -> Plan:
    """The plan of workload `name` for `seed`, writing its CSVs under `workdir`."""
    return WORKLOADS[name](seed, smoke, workdir)
