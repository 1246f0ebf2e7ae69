"""Compare the compiled update kernels against the numpy fallback.

Times the dense and neighbor-list round kernels on random connected graphs
and one end-to-end run per backend. The two backends produce bit-identical
results (asserted here); the point of the extension is speed.

Usage: python benchmarks/compare_backends.py [--sizes 25,50,100,200]
"""

import argparse
import time

import numpy as np

from privagg.backend import available_backends, get_backend
from privagg.engine import RunConfig, _support_arrays, run
from privagg.noise import NoiseParams
from privagg.topology import generate
from privagg.weights import metropolis


def time_kernel(fn, args, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_size(n, repeats):
    g = generate("random_gnp", n, seed=n, p=max(0.1, 10.0 / n))
    w = metropolis(g).w
    rng = np.random.default_rng(n)
    v = rng.uniform(-100, 100, n)
    indptr, indices = _support_arrays(g)
    rows = {}
    outs = {}
    for name in available_backends():
        b = get_backend(name)
        dense_out, nbr_out = np.empty(n), np.empty(n)
        dense = time_kernel(b.dense_step, (w, v, dense_out), repeats)
        nbr = time_kernel(b.neighbor_step, (w, indptr, indices, v, nbr_out), repeats)
        rows[name] = (dense, nbr)
        outs[name] = (dense_out.copy(), nbr_out.copy())
    names = list(outs)
    for other in names[1:]:
        for form, (ref, got) in zip(("dense", "neighbor"), zip(outs[names[0]], outs[other])):
            assert np.array_equal(ref, got), f"{form} kernels diverge: {names[0]} vs {other}"
    return rows


def bench_run(n, backend_name):
    g = generate("random_gnp", n, seed=n, p=max(0.1, 10.0 / n))
    rng = np.random.default_rng(n)
    x0 = rng.uniform(0, 100, n)
    cfg = RunConfig(
        graph=g, x0=x0, noise=NoiseParams(alpha=1.0, rho=0.9, seed=1),
        scheme="zero_sum", record_trace=False,
    )
    t0 = time.perf_counter()
    run(cfg, backend=get_backend(backend_name))
    return time.perf_counter() - t0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="25,50,100,200")
    parser.add_argument("--repeats", type=int, default=50)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    backends = available_backends()
    print(f"backends: {', '.join(backends)}")
    print(f"{'n':>5} {'kernel':>10}", *(f"{b:>12}" for b in backends), f"{'speedup':>9}")
    for n in sizes:
        rows = bench_size(n, args.repeats)
        for idx, kernel in enumerate(("dense", "neighbor")):
            times = [rows[b][idx] for b in backends]
            speedup = times[-1] / times[0] if len(times) > 1 else 1.0
            print(
                f"{n:>5} {kernel:>10}",
                *(f"{t * 1e6:>10.1f}us" for t in times),
                f"{speedup:>8.1f}x",
            )
    print()
    print(f"{'n':>5} {'full run (n^2 rounds)':>24}")
    for n in sizes:
        line = [f"{n:>5}"]
        for b in backends:
            line.append(f"{b}: {bench_run(n, b):.3f}s")
        print("  ".join(line))


if __name__ == "__main__":
    main()
