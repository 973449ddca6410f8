"""Per-layer tracing from outside the program.

The tracer replaces public functions of ncbroadcast modules with timing
wrappers at the name each caller looks up (a module attribute or a class
attribute), keeps counts and busy times in memory, and puts every
original back on exit.  Self time is a wrapper's duration minus the
time spent in wrapped functions it called.  A name that no longer
exists is recorded as absent instead of failing the run.
"""

import functools
import importlib
import time
from collections import Counter


def _trial_hook(tracer, result, args):
    tracer.counts["sim.slots"] += result.completion_slots
    tracer.counts["sim.conflict_slots"] += result.conflict_slots


def _encode_hook(tracer, result, args):
    tracer.counts["rlnc.bytes_combined"] += result.coefficients.size * result.payload.size


def _ingest_hook(tracer, result, args):
    decoder = args[0]
    rank_before = decoder.rank - 1 if result else decoder.rank
    tracer.counts["rlnc.innovative"] += bool(result)
    tracer.counts["rlnc.bytes_combined"] += rank_before * (decoder.window + decoder.packet_len)


def _table_hook(tracer, result, args):
    values = result[0]  # solve_optimal returns (values, actions)
    tracer.counts["dp.solved_states"] += values.size
    tracer.counts["dp.table_bytes"] = max(tracer.counts["dp.table_bytes"], values.size * 9)


# (module, attribute path, layer name, hook, timed); the hook sees (tracer, result, args).
# A function imported into several modules is wrapped at each lookup site
# under one layer name; `timed=False` entries only count calls, because
# they run once per table state and timing them would swamp the run.
SITES = (
    ("ncbroadcast.cli", "main", "cli.main", None, True),
    ("ncbroadcast.cli", "solve_optimal", "dp.solve_optimal", _table_hook, True),
    ("ncbroadcast.cli", "check_lr_optimality", "dp.check_lr_optimality", None, True),
    ("ncbroadcast.cli", "audit_inequalities", "dp.audit_inequalities", None, True),
    ("ncbroadcast.cli", "decision_states", "dp.decision_states", None, True),
    ("ncbroadcast.cli", "enumerate_policies_oracle", "dp.enumerate_policies_oracle", None, True),
    ("ncbroadcast.cli", "run_experiment", "sim.run_experiment", None, True),
    ("ncbroadcast.cli", "run_codec_validation", "rlnc.run_codec_validation", None, True),
    ("ncbroadcast.dp", "solve_optimal", "dp.solve_optimal", _table_hook, True),
    ("ncbroadcast.dp", "evaluate_policy", "dp.evaluate_policy", None, True),
    ("ncbroadcast.dp", "decision_states", "dp.decision_states", None, True),
    ("ncbroadcast.dp", "classify", "mdp.classify", None, False),
    ("ncbroadcast.sim", "run_trial", "sim.run_trial", _trial_hook, True),
    ("ncbroadcast.sim", "RngSpec.substream", "sim.substream", None, True),
    ("ncbroadcast.sim", "select", "policies.select", None, True),
    ("ncbroadcast.sim", "encode", "rlnc.encode", _encode_hook, True),
    ("ncbroadcast.rlnc", "encode", "rlnc.encode", _encode_hook, True),
    ("ncbroadcast.rlnc", "DecoderState.ingest", "rlnc.ingest", _ingest_hook, True),
    ("ncbroadcast.rlnc", "DecoderState.recover", "rlnc.recover", None, True),
)


class Tracer:
    """Context manager that wraps every site in SITES while active."""

    def __init__(self):
        self.calls = Counter()
        self.busy = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self.absent = []
        self._children = [0.0]
        self._patched = []

    def __enter__(self):
        for module_name, path, layer, hook, timed in SITES:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._timed(original, layer, hook) if timed else self._counted(original, layer)
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _timed(self, original, layer, hook):
        children = self._children

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = children.pop()
                children[-1] += elapsed
                self.calls[layer] += 1
                self.busy[layer] += elapsed
                self.self_time[layer] += elapsed - inner
            if hook is not None:
                hook(self, result, args)
            return result

        return wrapper

    def _counted(self, original, layer):
        calls = self.calls

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return original(*args, **kwargs)

        return wrapper


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int, states: float, tables: int) -> dict[str, float]:
    """Per-layer metrics per traced round; a layer that did not run reads 0.

    `states` is the workload's count of value-table states per round and
    `tables` its count of value tables asked of `solve`/`check-lr`; both
    come from the benchmark's inputs, not from the program.
    """
    calls, busy, own, counts = tracer.calls, tracer.busy, tracer.self_time, tracer.counts
    return {
        "sim.run_trial.calls": calls["sim.run_trial"] / rounds,
        "sim.run_trial.busy_s": busy["sim.run_trial"] / rounds,
        "sim.slots": counts["sim.slots"] / rounds,
        "sim.us_per_slot": 1e6 * _ratio(busy["sim.run_trial"], counts["sim.slots"]),
        "sim.substream.calls": calls["sim.substream"] / rounds,
        "sim.substream.busy_s": busy["sim.substream"] / rounds,
        "sim.conflict_slots": counts["sim.conflict_slots"] / rounds,
        "policies.select.calls": calls["policies.select"] / rounds,
        "policies.select.busy_s": busy["policies.select"] / rounds,
        "policies.conflict_share": _ratio(counts["sim.conflict_slots"], counts["sim.slots"]),
        "rlnc.encode.calls": calls["rlnc.encode"] / rounds,
        "rlnc.encode.busy_s": busy["rlnc.encode"] / rounds,
        "rlnc.ingest.calls": calls["rlnc.ingest"] / rounds,
        "rlnc.ingest.busy_s": busy["rlnc.ingest"] / rounds,
        "rlnc.ingests_per_encode": _ratio(calls["rlnc.ingest"], calls["rlnc.encode"]),
        "rlnc.innovative_ratio": _ratio(counts["rlnc.innovative"], calls["rlnc.ingest"]),
        "rlnc.recover.busy_s": busy["rlnc.recover"] / rounds,
        "rlnc.bytes_combined": counts["rlnc.bytes_combined"] / rounds,
        "dp.solve_optimal.calls": calls["dp.solve_optimal"] / rounds,
        "dp.solve_optimal.busy_s": busy["dp.solve_optimal"] / rounds,
        "dp.solves_per_table": _ratio(calls["dp.solve_optimal"] / rounds, tables),
        "dp.states_per_s": _ratio(counts["dp.solved_states"], busy["dp.solve_optimal"]),
        "dp.check_lr_optimality.self_s": own["dp.check_lr_optimality"] / rounds,
        "dp.audit_inequalities.self_s": own["dp.audit_inequalities"] / rounds,
        "mdp.classify.calls": calls["mdp.classify"] / rounds,
        "mdp.classify_per_state": _ratio(calls["mdp.classify"] / rounds, states),
        "dp.evaluate_policy.calls": calls["dp.evaluate_policy"] / rounds,
        "dp.evaluate_policy.busy_s": busy["dp.evaluate_policy"] / rounds,
        "dp.table_bytes": counts["dp.table_bytes"],
        "cli.main.calls": calls["cli.main"] / rounds,
        "cli.self_s": own["cli.main"] / rounds,
    }


def function_table(tracer: Tracer, rounds: int) -> dict[str, dict[str, float]]:
    """Calls, busy and self seconds per traced round of every wrapped layer name."""
    return {
        layer: {
            "calls": tracer.calls[layer] / rounds,
            "busy_s": tracer.busy[layer] / rounds,
            "self_s": tracer.self_time[layer] / rounds,
        }
        for layer in sorted(tracer.calls)
    }
