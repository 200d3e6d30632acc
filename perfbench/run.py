"""Pipeline benchmark for aqmlab: logs_to_pool, train and closed_loop.

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`.  Each invocation runs one workload in this fresh process with one
Python thread and one BLAS thread.  `--trace 0` prints the end-to-end
metrics, `--trace 1` the per-layer span report (see README.md).  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isfile(os.path.join(SRC, "aqmlab", "__init__.py")):
    sys.exit(f"error: no aqmlab package under {SRC}; run from the root of a source checkout")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import spans  # noqa: E402
from clock import REF_WINDOW, Clock  # noqa: E402
from workloads import FULL, REFERENCE, TINY, WORKLOADS, Context  # noqa: E402

IMPORTS_T1 = time.perf_counter()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest inputs (smoke test)")
    return ap.parse_args(argv)


def log(text):
    print(text, flush=True)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main(argv=None):
    args = parse_args(argv)
    clock = Clock(REFERENCE[args.workload])
    for _ in range(REF_WINDOW):
        clock.ref()
    # the imports ran before any reference unit: scale them by the first ones
    imports_s = (IMPORTS_T1 - PROCESS_T0) * clock.nominal_ref_s / clock.host_ref_median()

    out_root = os.path.join(HERE, "out")
    run_dir = os.path.join(out_root, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    ctx = Context(clock, TINY if args.tiny else FULL, args.seed, run_dir, log)
    try:
        if args.trace:
            ctx.tracer = spans.Tracer()
            result = traced_run(args, ctx)
            path = os.path.join(out_root, f"trace-{args.workload}-seed{args.seed}.json")
            ctx.tracer.write(path, {"workload": args.workload, "seed": args.seed})
            log(f"spans written to {os.path.relpath(path)}")
        else:
            result = untraced_run(args, ctx, imports_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def timed_setup(ctx, setup):
    """One set-up; returns (state, nominal seconds, host seconds)."""
    ctx.clock.ref()
    t0 = time.perf_counter()
    state = ctx.traced(setup, ctx)
    t1 = time.perf_counter()
    ctx.clock.ref()
    return state, float(ctx.clock.nominal(t0, t1)), t1 - t0


def log_inputs(state):
    for path, digest in state.get("klogs", {}).items():
        log(f"input {os.path.basename(path)} sha256 {digest}")


def untraced_run(args, ctx, imports_s):
    setup, timed = WORKLOADS[args.workload]
    state, first, _ = timed_setup(ctx, setup)
    log_inputs(state)
    phase = summarise(ctx, timed(ctx, state, args.seconds))
    m = phase["metrics"]
    m["peak_rss_mb"] = (peak_rss_mb(), "MB")
    # Set up again after the timed phase and take the median; the repeats come
    # after the peak RSS reading, so that holds a single set-up's memory.
    state = None
    gc.collect()
    reps = [first] + [timed_setup(ctx, setup)[1] for _ in range(ctx.sizes.setup_reps - 1)]
    m["setup_s"] = (imports_s + float(np.median(reps)), "s")
    log(f"setup: imports {imports_s:.3f} s + median of set-ups "
        f"{', '.join(f'{r:.3f}' for r in reps)} s (nominal)")
    for name, (value, unit) in m.items():
        log(f"{name} {value:.6g} {unit}")
    return result(phase["correct"], phase["attempted"], phase["failed"], m)


def summarise(ctx, phase):
    """Log a timed phase's checks and stage times; compute its metrics."""
    clock, ops = ctx.clock, phase["ops"]
    for msg in phase["fails"]:
        log(f"CHECK FAILED: {msg}")
    for i, o in enumerate(ops):
        for msg in o["fails"]:
            log(f"CHECK FAILED (operation {i}): {msg}")
    failed = sum(bool(o["fails"]) for o in ops)
    decisions = sum(o["decisions"] for o in ops)
    for name, (a, b) in phase["stages"].items():
        log(f"stage {name}: host {float(np.sum(clock.host(a, b))):.3f} s, "
            f"nominal {float(np.sum(clock.nominal(a, b))):.3f} s")
    n = len(phase["lat"][0])
    log(f"{n} latency samples, one per {phase['unit']}; "
        f"p90 has {n - int(np.ceil(0.9 * n))} beyond it")
    log(f"attempted {len(ops)}, failed {failed}")

    def figures(span):
        elapsed = float(np.sum(span(*phase["whole"])))
        ms = np.asarray(span(*phase["lat"])) * 1000.0
        return {"decisions_per_s": (decisions / elapsed, "1/s"),
                "latency_p50_ms": (float(np.percentile(ms, 50)), "ms"),
                "latency_p90_ms": (float(np.percentile(ms, 90)), "ms")}, elapsed

    metrics, elapsed = figures(clock.nominal)
    host, _ = figures(clock.host)
    log("host-time figures " + json.dumps({k: v for k, (v, _) in host.items()}))
    log(f"reference unit: host median {clock.host_ref_median() * 1e6:.1f} us over "
        f"{len(clock.starts)} units, nominal {clock.nominal_ref_s * 1e6:.0f} us")
    metrics["pool_mb"] = (phase["pool_bytes"] / 1e6, "MB")
    return {**phase, "correct": not phase["fails"], "attempted": len(ops), "failed": failed,
            "metrics": metrics, "decisions": decisions, "elapsed": elapsed}


def traced_run(args, ctx):
    """Traced set-up; half the timed work untraced, then the same work traced.

    Reports every span and count, and the tracing overhead as the change in
    nominal time per decision between the two halves.
    """
    setup, timed = WORKLOADS[args.workload]
    tracer = ctx.tracer
    state, _, traced_host = timed_setup(ctx, setup)
    log_inputs(state)
    ctx.tracer = None
    half_a = summarise(ctx, timed(ctx, state, args.seconds / 2))
    ctx.tracer = tracer
    t0 = time.perf_counter()
    half_b = summarise(ctx, timed(ctx, state, None, replay=half_a["replay"]))
    traced_host += time.perf_counter() - t0
    overhead = 100.0 * ((half_b["elapsed"] / half_b["decisions"])
                        / (half_a["elapsed"] / half_a["decisions"]) - 1.0)
    log(f"tracing overhead {overhead:.2f}% (nominal time per decision, same work traced vs untraced)")

    log(f"{'span':44s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
    metrics = {}
    for name, row in tracer.span_table().items():
        log(f"{name:44s} {row['calls']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.total_pct"] = (100.0 * row["total_s"] / traced_host, "%")
        metrics[f"{name}.self_pct"] = (100.0 * row["self_s"] / traced_host, "%")
    for name, value in tracer.final_counts().items():
        log(f"{name} {value}")
        metrics[name] = (value, "B" if name.endswith("bytes") else "count")
    metrics["trace.overhead_pct"] = (overhead, "%")
    return result(half_a["correct"] and half_b["correct"],
                  half_a["attempted"] + half_b["attempted"],
                  half_a["failed"] + half_b["failed"], metrics)


def result(correct, attempted, failed, metrics):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
