"""One workload in one process: set up, run operations back to back, report.

Started by run.py with privagg's source on PYTHONPATH and BLAS/OpenMP
threads set to 1. It writes a JSON report to --report and prints nothing
else of its own.

--probe stops after set-up, so run.py can time set-up in fresh processes.
With --trace 1 the operations alternate untraced and traced; the traced
ones run with privagg's entry points wrapped (see tracer.py), and the
untraced ones give the base for trace.overhead_ratio.
"""

import time

_T0 = time.perf_counter()  # set-up time includes the imports below

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import privagg  # noqa: E402
from privagg import backend as privagg_backend  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
if not Path(privagg.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"privagg was imported from {privagg.__file__}, not from {SRC}")

from calibrate import NOMINAL_REFERENCE_S, reference_s  # noqa: E402
from tracer import LAYERS, NullTracer, Tracer, instrument, self_times  # noqa: E402
from workloads import SIZES  # noqa: E402

MIN_OPS = 3
MIN_TRACED_RUN_OPS = 4  # two traced and two untraced
MAX_REPORTED_FAILURES = 3


class Totals:
    """Per-name (total, self, calls) and counters summed over one phase."""

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        self.counts: dict[str, float] = defaultdict(float)
        self.units = 0

    def add(self, tracer: Tracer) -> None:
        spans, counts = tracer.take()
        for name, (total, own, calls) in self_times(spans).items():
            t = self.times[name]
            t[0] += total
            t[1] += own
            t[2] += calls
        for name, value in counts.items():
            if name == "noise.predraw_mb":
                self.counts[name] = max(self.counts[name], value)
            else:
                self.counts[name] += value
        self.units += 1

    def per_unit(self, name: str, field: int) -> float:
        return self.times[name][field] / self.units if self.units and name in self.times else 0.0

    def count_per_unit(self, name: str) -> float:
        return self.counts.get(name, 0.0) / self.units if self.units else 0.0


def layer_metrics(ops: Totals, setup: Totals, traced_s: list[float], untraced_s: list[float],
                  attempted: int, failed: int, absent: set[str]) -> dict[str, float]:
    """Per-layer metrics: times and counts per traced operation. A layer that
    also runs in set-up (graph generation) adds its time per set-up."""

    def total(name):
        return ops.per_unit(name, 0) + setup.per_unit(name, 0)

    def own(name):
        return ops.per_unit(name, 1) + setup.per_unit(name, 1)

    def calls(name):
        return ops.per_unit(name, 2) + setup.per_unit(name, 2)

    rounds = ops.count_per_unit("engine.rounds")
    op_total = ops.per_unit("bench.op", 0)
    m = {
        "backend.dense_step_s": total("backend.dense_step"),
        "backend.dense_step_calls": calls("backend.dense_step"),
        "backend.neighbor_step_s": total("backend.neighbor_step"),
        "backend.neighbor_step_calls": calls("backend.neighbor_step"),
        "backend.flops": ops.count_per_unit("backend.flops"),
        "backend.bytes": ops.count_per_unit("backend.bytes"),
        "harness.write_trace_csv_s": total("harness.write_trace_csv"),
        "harness.write_summary_csv_s": total("harness.write_summary_csv"),
        "harness.bytes_written": ops.count_per_unit("harness.bytes_written"),
        "harness.run_experiment_self_s": own("harness.run_experiment"),
        "harness.load_config_s": total("harness.load_config"),
        "noise.round_values_s": total("noise.round_values"),
        "noise.round_values_calls": calls("noise.round_values"),
        "noise.bank_init_s": total("noise.bank_init"),
        "noise.predraw_mb": ops.counts.get("noise.predraw_mb", 0.0),
        "noise.scalar_draws": ops.count_per_unit("noise.scalar_draws"),
        "noise.make_noise_calls": calls("noise.make_noise"),
        "topology.generate_s": total("topology.generate"),
        "topology.is_connected_s": total("topology.is_connected"),
        "topology.apply_event_s": total("topology.apply_event"),
        "topology.apply_event_calls": calls("topology.apply_event"),
        "weights.metropolis_s": total("weights.metropolis"),
        "weights.metropolis_calls": calls("weights.metropolis"),
        "engine.run_s": total("engine.run"),
        "engine.run_self_s": own("engine.run"),
        "engine.rounds": rounds,
        "engine.self_us_per_round": own("engine.run") / rounds * 1e6 if rounds else 0.0,
        "privacy.later_round_attack_s": total("privacy.later_round_attack"),
        "privacy.later_round_attack_self_s": own("privacy.later_round_attack"),
        "privacy.disclosure_attack_s": total("privacy.disclosure_attack"),
        "cli.main_self_s": own("cli.main"),
    }
    # Self times of the operation's spans add up to the operation time.
    for layer in (*LAYERS, "bench"):
        m[f"{layer}.self_s"] = sum(
            ops.per_unit(name, 1) for name in ops.times if name.split(".")[0] == layer
        )
    m["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(untraced_s)
    m["trace.accounted_ratio"] = 1.0 - ops.per_unit("bench.op", 1) / op_total if op_total else 0.0
    m["trace.absent_entry_points"] = float(len(absent))
    m["fail_ratio"] = failed / attempted
    return m


def tail(durations: list[float]) -> tuple[float, float, int] | None:
    """(percentile, value, samples): the highest percentile with at least ten samples
    beyond it, or None when there are too few samples."""
    n = len(durations)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(durations)[n - 11], n


def measure(name: str, size: str, seed: int, seconds: float, trace: bool, workdir: Path,
            probe: bool) -> dict:
    workload = SIZES[size][name]()
    setup_totals, op_totals = Totals(), Totals()

    setup_tracer = Tracer() if trace else NullTracer()
    with setup_tracer.span("bench.setup"):
        state = workload.setup(seed, workdir, setup_tracer)
    setup_s = time.perf_counter() - _T0
    if trace:
        setup_totals.add(setup_tracer)
    reference = reference_s()
    report = {"setup_s": setup_s * NOMINAL_REFERENCE_S / reference, "setup_raw_s": setup_s}
    if probe:
        return report

    results, attempted, failed = [], 0, 0
    absent: set[str] = set()
    start = time.perf_counter()
    min_ops = MIN_TRACED_RUN_OPS if trace else MIN_OPS
    while attempted < min_ops or time.perf_counter() - start < seconds:
        traced = trace and attempted % 2 == 1
        index = attempted
        attempted += 1
        reference_before = reference
        try:
            inputs = workload.inputs(state, index)
            if traced:
                tracer = Tracer()
                with instrument(tracer):
                    t0 = time.perf_counter()
                    with tracer.span("bench.op"):
                        outputs = workload.run(state, inputs, tracer)
                    elapsed = time.perf_counter() - t0
                absent |= tracer.absent
            else:
                t0 = time.perf_counter()
                outputs = workload.run(state, inputs, NullTracer())
                elapsed = time.perf_counter() - t0
            result = workload.check(state, inputs, outputs)
        except Exception:  # any failure of an operation counts against fail_ratio
            failed += 1
            if failed <= MAX_REPORTED_FAILURES:
                print(f"operation {index} failed:", file=sys.stderr)
                traceback.print_exc()
            reference = reference_s()
            continue
        reference = reference_s()
        if traced:
            op_totals.add(tracer)
        # host speed during the operation: the references on either side
        scale = NOMINAL_REFERENCE_S / (0.5 * (reference_before + reference))
        results.append((traced, elapsed, result, scale))

    report.update(attempted=attempted, failed=failed)
    untraced = [(t, r, scale) for traced, t, r, scale in results if not traced]
    traced_s = [t for traced, t, _, _ in results if traced]
    if not untraced or (trace and not traced_s):
        report["metrics"] = None
        return report

    report["provenance"] = provenance(name, seed, results)
    report["op_tail"] = tail([t * scale for t, _, scale in untraced])
    if trace:
        report["metrics"] = layer_metrics(
            op_totals, setup_totals, traced_s, [t for t, _, _ in untraced],
            attempted, failed, absent,
        )
        report["absent"] = sorted(absent)
    else:
        report["metrics"] = {
            "op_p50_s": statistics.median(t * s for t, _, s in untraced),
            "node_rounds_per_s": statistics.median(r.node_rounds / (t * s) for t, r, s in untraced),
            "trials_per_s": statistics.median(r.trials / (t * s) for t, r, s in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report["raw"] = {
            "op_p50_s": statistics.median(t for t, _, _ in untraced),
            "host_scale": statistics.median(s for _, _, s in untraced),
        }
    return report


def provenance(name: str, seed: int, results: list) -> dict:
    """What ran and a digest of what it produced; the first operation's
    digest depends only on the seed, so two commits can be compared."""
    chain = hashlib.sha256()
    for _, _, r, _ in results:
        chain.update(r.digest)
    return {
        "workload": name,
        "seed": seed,
        "backend": privagg_backend.get_backend().name,
        "update_form": results[0][2].update_form,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "privagg": privagg.__version__,
        "digest_first_op": results[0][2].digest.hex(),
        "digest_all_ops": chain.hexdigest(),
        "ops": len(results),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    p.add_argument("--size", default="full", choices=sorted(SIZES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--report", type=Path, required=True)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    report = measure(args.workload, args.size, args.seed, args.seconds, bool(args.trace),
                     args.workdir, args.probe)
    args.report.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
