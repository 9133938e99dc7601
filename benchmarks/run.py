"""Benchmark runner for depthrefine.

    python3 benchmarks/run.py --workload pick-tabletop --seed 1 --seconds 10 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 10 --trace 0

One process, one closed-loop client: each operation starts only after the
previous one returned and was checked against the ground truth of its
scene. After every operation the reference kernel of `reference.py` runs
once, and the operation's time is scaled by the kernel's time, so a change
in the shared host's speed cancels out. With `--trace 0` the last stdout
line reports the end-to-end metrics; with `--trace 1` it reports the
per-layer metrics of a traced run (see README.md). The line before it holds the run's environment and
failure counts. `--workload all` runs every workload in its own child
process and prints a table.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread, so the load is one core whatever the machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("pick-tabletop", "eval-occluded", "cli-dense")

# Set-up (inputs plus one warm-up operation) repeats this often; setup_s
# takes the median so one slow repetition does not move it.
SETUP_REPEATS = 5
CURVE_REPEATS = 15
# A tail percentile needs ten samples beyond it.
P90_MIN_OPS = 100
CHILD_TIMEOUT_S = 600

END_TO_END_UNITS = {
    "scaled_latency_ms": "ms",
    "scaled_ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "renderer.calls": "count",
    "renderer.ms": "ms",
    "renderer.ms_per_call": "ms",
    "renderer.ms_at_720": "ms",
    "renderer.ms_at_4900": "ms",
    "renderer.ms_at_50880": "ms",
    "refiner.ms": "ms",
    "refiner.self_ms": "ms",
    "refiner.objective_calls": "count",
    "refiner.objective_ms": "ms",
    "refiner.pairing_ms": "ms",
    "refiner.pairs": "count",
    "refiner.ransac_ms": "ms",
    "refiner.inlier_frac": "fraction",
    "refiner.dim_err_p90_mm": "mm",
    "geometry.sigma_calls": "count",
    "harness.generate_ms": "ms",
    "harness.occlusion_ms": "ms",
    "harness.support_px": "px",
    "fileio.load_mesh_ms": "ms",
    "fileio.obj_mb_per_s": "MB/s",
    "fileio.load_depth_ms": "ms",
    "cli.self_ms": "ms",
    "cli.nonzero_exits": "count",
    "grasp.ms": "ms",
    "grasp.candidates": "count",
    "trace.overhead_ms": "ms",
}


def use_checkout_src():
    """Import depthrefine from this checkout's `src/`, never an installed copy."""
    if not (SRC / "depthrefine" / "__init__.py").is_file():
        raise SystemExit(f"error: no depthrefine package under {SRC}")
    sys.dont_write_bytecode = True  # leave the checkout clean; same import cost every run
    sys.path.insert(0, str(SRC))
    import depthrefine

    if Path(depthrefine.__file__).resolve().parent != SRC / "depthrefine":
        raise SystemExit(f"error: imported depthrefine from {depthrefine.__file__}")
    return depthrefine


def git_commit() -> str:
    """HEAD of the checkout, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@contextlib.contextmanager
def work_dir(name: str):
    """Scratch directory inside the checkout, removed with its parent on exit."""
    path = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def run_op(workload, k, outcomes, errors):
    """Run and check operation k; returns its wall time in seconds."""
    from workloads import Outcome

    t0 = time.perf_counter()
    try:
        out = workload.run(k)
    except Exception as exc:  # a failed operation is counted, not fatal
        elapsed = time.perf_counter() - t0
        if not errors:
            traceback.print_exc(file=sys.stderr)
        errors.append(exc)
        outcomes.append(Outcome((f"raised:{type(exc).__name__}",)))
        return elapsed
    elapsed = time.perf_counter() - t0
    outcomes.append(workload.check(out))
    return elapsed


def timed_loop(workload, seconds, first_op, outcomes, errors, ref, tracer=None):
    """Closed loop for `seconds`, then to the end of the round it is in.

    The reference kernel is timed after each operation. Returns (operation
    latencies, reference times, next op id).
    """
    latencies, ref_times = [], []
    k = first_op
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.op = k
        latencies.append(run_op(workload, k, outcomes, errors))
        ref_times.append(ref.run_once())
        k += 1
        if time.perf_counter() >= deadline and len(latencies) % workload.round_ops == 0:
            break
    return latencies, ref_times, k


def round_latency(latencies, round_ops) -> float:
    """Median over rounds of the mean operation latency in each round.

    A median over single operations would jump between the costs of two
    scale levels as the mix of levels in a run shifts by one operation.
    """
    rounds = [latencies[i:i + round_ops] for i in range(0, len(latencies), round_ops)]
    return statistics.median(statistics.fmean(r) for r in rounds)


def run_workload(args) -> int:
    use_checkout_src()
    import numpy as np

    import reference
    import tracing
    import workloads

    import_s = time.perf_counter() - T_START
    ref = reference.Reference()
    import_ref = ref.run_once()
    cls = workloads.WORKLOADS[args.workload]
    outcomes, errors = [], []
    with work_dir(args.workload) as workdir:
        setup_times, setup_refs = [], []
        op = 0
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = cls(args.seed, workdir)
            workload.setup()
            run_op(workload, op, outcomes, errors)
            setup_times.append(time.perf_counter() - t0)
            setup_refs.append(ref.run_once())
            op += 1
        scaled_setup = reference.scaled([import_s], [import_ref])[0] + statistics.median(
            reference.scaled(setup_times, setup_refs)
        )

        # A traced run splits its time: an untraced half, then a traced
        # half, so the difference of their medians is the tracing overhead.
        loop_seconds = args.seconds / 2 if args.trace else args.seconds
        latencies, ref_times, op = timed_loop(workload, loop_seconds, op, outcomes, errors, ref)
        scaled = reference.scaled(latencies, ref_times)
        rounds = workload.round_ops
        if args.trace:
            tracer = tracing.Tracer()
            first_traced = op
            with tracer:
                traced, traced_refs, op = timed_loop(workload, loop_seconds, op, outcomes, errors, ref, tracer)
            metrics = tracing.layer_metrics(tracer.spans, range(first_traced, op), workload.obj_bytes)
            dims = [o.dim_err_m for o in outcomes[first_traced:] if o.dim_err_m is not None]
            metrics["refiner.dim_err_p90_mm"] = 1e3 * float(np.percentile(dims, 90)) if dims else 0.0
            for tris, ms in workloads.render_curve(CURVE_REPEATS).items():
                metrics[f"renderer.ms_at_{tris}"] = ms
            traced_scaled = reference.scaled(traced, traced_refs)
            metrics["trace.overhead_ms"] = 1e3 * (
                round_latency(traced_scaled, rounds) - round_latency(scaled, rounds)
            )
            units = PER_LAYER_UNITS
        else:
            metrics = {
                "scaled_latency_ms": 1e3 * round_latency(scaled, rounds),
                "scaled_ops_per_s": len(scaled) / sum(scaled),
                "setup_s": scaled_setup,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS

    reasons = Counter(r for o in outcomes for r in o.reasons)
    failed = sum(1 for o in outcomes if o.reasons)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_ops": op - SETUP_REPEATS,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_ms": 1e3 * round_latency(latencies, rounds),
        "ops_per_s": len(latencies) / sum(latencies),
        "setup_s": import_s + statistics.median(setup_times),
        "reference_ms": 1e3 * statistics.median(ref_times),
        "fail_frac": failed / len(outcomes),
        "failures_by_reason": dict(reasons),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }
    if len(latencies) >= P90_MIN_OPS:
        info["latency_p90_ms"] = 1e3 * float(np.percentile(latencies, 90))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a child process of its own, so peak RSS stays per workload."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(lines[-2] if len(lines) > 1 else "")
        if not result["correct"]:
            status = 1
        rows.append((name, "failed/attempted", f"{result['failed']}/{result['attempted']}", ""))
        for metric, m in result["metrics"].items():
            rows.append((name, metric, f"{m['value']:.6g}", m["unit"]))
    for row in rows:
        print(f"{row[0]:<14} {row[1]:<24} {row[2]:>14} {row[3]}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
