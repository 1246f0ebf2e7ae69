"""privagg benchmark: one workload per call, one caller, operations back to back.

Run from the repository root:

    python3 perfbench/run.py --workload experiment_trace --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for what each stresses and why):
experiment_trace, large_sparse, attack_later.

--trace 0 prints the end-to-end metrics from untraced operations:
  setup_s            import plus input set-up; median of 5 fresh processes
  op_p50_s           median wall time of one operation
  node_rounds_per_s  median over operations of (live nodes x rounds) / time
  trials_per_s       median over operations of trials / time; a trial is one
                     consensus run, or one attack trial on attack_later
  peak_rss_mb        peak resident set of the measuring process
Times are scaled to a nominal host speed by a reference loop timed next to
each operation (see calibrate.py); the "unscaled:" line gives the raw
median operation time, set-up time and the median scale factor.
--trace 1 prints the per-layer metrics (see metrics.py) from traced
operations interleaved with untraced ones.

privagg is imported from ./src, with BLAS/OpenMP threads set to 1, in a
child process per call. Every operation's output is checked; the last line
of stdout is a JSON object with keys correct, attempted, failed, metrics.
Lines before it give provenance (backend, update form, versions and a
sha256 digest of the outputs) and the operation-time tail when a run has
enough operations for one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END_UNITS, LAYER_UNITS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SIZES = ("full", "tiny")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 175.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    paths = [str(SRC), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(args, workdir: Path, tag: str, probe: bool, deadline: float) -> dict:
    report = workdir / f"{tag}.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--size", args.size, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir / tag), "--report", str(report),
    ]
    if probe:
        cmd.append("--probe")
    proc = subprocess.Popen(cmd, env=child_env(), cwd=workdir, stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag} did not finish within {TIME_LIMIT_S:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise BenchError(f"{tag} exited with code {rc}")
    return json.loads(report.read_text())


def measure(args) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + TIME_LIMIT_S
    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                setups.append(run_child(args, workdir, f"probe{i}", True, deadline))
        report = run_child(args, workdir, "main", False, deadline)
        setups.append(report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    lines = []
    if report.get("provenance"):
        lines.append("provenance: " + json.dumps(report["provenance"], sort_keys=True))
    if report.get("op_tail"):
        pct, value, n = report["op_tail"]
        lines.append(f"op_tail: p{pct:.1f} = {value!r} s ({n} operations)")
    if report.get("raw"):
        raw = dict(report["raw"], setup_s=statistics.median(r["setup_raw_s"] for r in setups))
        lines.append("unscaled: " + json.dumps(raw, sort_keys=True))
    if report.get("absent"):
        lines.append("absent entry points: " + ", ".join(report["absent"]))

    metrics = report.get("metrics")
    if metrics is None:
        values = {}
    elif args.trace:
        values = {name: (metrics[name], LAYER_UNITS[name]) for name in LAYER_UNITS}
    else:
        metrics = dict(metrics, setup_s=statistics.median(r["setup_s"] for r in setups))
        values = {name: (metrics[name], unit) for name, unit in END_TO_END_UNITS.items()}
    result = {
        "correct": report["failed"] == 0 and metrics is not None,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }
    return result, lines


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default="full", choices=SIZES,
                   help="tiny runs every workload in seconds (tests)")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "privagg" / "__init__.py").is_file():
        print(f"error: privagg source not found under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # runs the cleanup
    try:
        result, lines = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
