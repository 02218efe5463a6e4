"""fluidspan benchmark: end-to-end and per-layer metrics for one workload.

    python3 benchmarks/run.py --workload particles-128 --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  Everything runs in this one single-threaded process (BLAS and
OpenMP pinned to one thread, FLUIDSPAN_THREADS unset), except the set-up
probes, which need a fresh interpreter each.

``--trace 0`` measures the end-to-end metrics with tracing off.  Rounds of
PROBES_PER_ROUND set-up probes and one pass over the workload's runs
repeat for ``--seconds`` (at least MIN_ROUNDS).  Every pass and every
probe gets configs of its own draw (workloads.py), so no input repeats
and a cache keyed by input cannot make a later pass faster than a user's
single run.  ``wall_s`` sums, over the workload's run slots, each slot's
median over the passes; ``setup_s`` is the median probe, ``peak_rss_mb``
the peak resident memory of this process.  ``--trace 1`` makes a warm-up
pass, then alternates two untraced and two traced passes, all on the
configs of draw 0, and reports the per-layer metrics; the exact counts
and the CSVs of the two traced passes must agree, and every layer entry
point must be found.

Times are in reference seconds.  The speed the shared machine gives this
process drifts by up to 50% over tens of seconds, so every measured
interval is divided by the time of a fixed reference kernel run just
before and just after it, and multiplied by the kernel's nominal time
KERNEL_REF_S.  The raw wall-clock medians are printed and recorded too.

Every run's output is checked (checks.py).  Human-readable lines come
first; the last line of standard output is the JSON result.  Spans and a
record of the result with its run context go to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_ROUNDS = 3
PROBES_PER_ROUND = 3
PROBE_TIMEOUT = 120
# Median reference-kernel time on the machine the benchmark was defined on
# (2 vCPU Intel Xeon at 2.1 GHz, numpy 2.4, one thread).
KERNEL_REF_S = 0.05


def pin_threads():
    os.environ.update(THREAD_ENV)
    os.environ.pop("FLUIDSPAN_THREADS", None)


class ReferenceKernel:
    """A fixed numpy workload (256^2 transforms and array arithmetic, like
    the solver's) whose time tracks the machine's current speed."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((256, 256))
        self.y = rng.uniform(-1.0, 1.0, (256, 256))
        self.m = rng.uniform(0.0, 1.0, (256, 129))
        # Bound before the traced run wraps numpy.fft, so it is never counted.
        self.rfft2, self.irfft2 = np.fft.rfft2, np.fft.irfft2

    def __call__(self):
        start = time.perf_counter()
        a = self.x
        for _ in range(40):
            a = self.irfft2(self.rfft2(a) * self.m, s=a.shape) * self.y + self.x
        return time.perf_counter() - start


class Runner:
    """Times runs and probes against the reference kernel and checks every
    run's output."""

    def __init__(self, kernel, harness, slots):
        self.kernel = kernel
        self.harness = harness
        self.raw = [[] for _ in range(slots)]
        self.ref = [[] for _ in range(slots)]
        self.csv = {}  # CSV text by config, to check that a repeated config repeats it
        self.hashes = {"passes": [], "probes": []}
        self.attempted = 0
        self.problems = []
        self.last_kernel = kernel()

    def timed(self, fn):
        """(fn(), its wall seconds, mean reference-kernel time around it)."""
        before = self.last_kernel
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        gc.collect()  # cyclic garbage of one run must not inflate the next
        self.last_kernel = self.kernel()
        return result, raw, 0.5 * (before + self.last_kernel)

    def config_hash(self, config):
        return self.harness.config_hash(self.harness.RunConfig(**config))

    def one_pass(self, configs, tracer=None, label=""):
        """Run every config once; returns the pass time in reference seconds."""
        self.hashes["passes"].append([self.config_hash(c) for c in configs])
        total = 0.0
        for i, config in enumerate(configs):
            if tracer is not None:
                tracer.run = f"{label}{i}"
            stream = io.StringIO()
            self.attempted += 1
            try:
                result, raw, kernel = self.timed(
                    lambda: self.harness.run(self.harness.RunConfig(**config), stream))
            except Exception as exc:  # a failed run is counted, not fatal
                self.problems.append(f"run {i} ({config['model']}) raised {exc!r}")
                continue
            ref = raw * KERNEL_REF_S / kernel
            self.raw[i].append(raw)
            self.ref[i].append(ref)
            total += ref
            text = stream.getvalue()
            problems = checks.check_run(config, result, text)
            key = json.dumps(config, sort_keys=True)
            if self.csv.setdefault(key, text) != text:
                problems.append("CSV differs from an earlier pass for an identical config")
            if problems:
                self.problems.append(f"run {i} ({config['model']}): " + "; ".join(problems))
        return total

    def probe_setup(self, config):
        """Reference seconds from `import fluidspan` to the first flushed CSV
        row of a run of config, in a fresh interpreter (probe.py)."""
        self.hashes["probes"].append(self.config_hash(config))
        cmd = [sys.executable, str(HERE / "probe.py"), str(SRC), json.dumps(config)]
        out, _, kernel = self.timed(lambda: subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT, check=True))
        raw = float(out.stdout.strip().splitlines()[-1])
        return raw, raw * KERNEL_REF_S / kernel

    @property
    def failed(self):
        return len(self.problems)


def context(args, runner):
    import numpy
    import scipy

    import fluidspan

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "config_hashes": runner.hashes,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "fluidspan": fluidspan.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in (*THREAD_ENV, "FLUIDSPAN_THREADS")},
    }


def end_to_end(args):
    kernel = ReferenceKernel()
    from fluidspan import harness

    slots = len(workloads.generate(args.workload, args.seed))
    runner = Runner(kernel, harness, slots)
    deadline = time.perf_counter() + args.seconds
    setup, rounds, last = [], 0, 0.0
    # Start another round while it would end no more than half a round late.
    while rounds < MIN_ROUNDS or time.perf_counter() + 0.5 * last <= deadline:
        start = time.perf_counter()
        for j in range(PROBES_PER_ROUND):
            probe = workloads.generate(args.workload, args.seed, f"setup{rounds}.{j}")[0]
            setup.append(runner.probe_setup(probe))
        runner.one_pass(workloads.generate(args.workload, args.seed, rounds))
        last = time.perf_counter() - start
        rounds += 1
    metrics = {
        # A run that raised has no sample; `correct` is false then anyway.
        "wall_s": (sum(statistics.median(r) for r in runner.ref if r), "s"),
        "setup_s": (statistics.median(ref for _, ref in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {"wall_raw_s": sum(statistics.median(r) for r in runner.raw if r),
           "setup_raw_s": statistics.median(raw for raw, _ in setup)}
    detail = {"rounds": rounds, **raw, "setup_samples": setup,
              "run_raw_s": runner.raw, "run_ref_s": runner.ref}
    return runner, metrics, raw, detail


def per_layer(args):
    import spans  # imports numpy, so only after pin_threads()

    kernel = ReferenceKernel()
    tracer = spans.Tracer()
    tracer.install_counters()
    from fluidspan import harness

    missing = tracer.install_spans()
    configs = workloads.generate(args.workload, args.seed)
    runner = Runner(kernel, harness, len(configs))
    for name in missing:
        runner.problems.append(f"layer entry point {name} not found; its metrics would read 0")
    runner.one_pass(configs)  # warm-up: lazy imports and first-call costs
    untraced, passes = [], []
    for k in range(2):
        untraced.append(runner.one_pass(configs))
        tracer.enabled = True
        first = tracer.mark()
        cpu = time.process_time()
        wall = time.perf_counter()
        ref = runner.one_pass(configs, tracer, label=f"traced{k}/")
        passes.append((first, tracer.mark(), ref, time.perf_counter() - wall,
                       time.process_time() - cpu))
        tracer.enabled = False

    exact = [spans.exact_counts(tracer.summary(p[0], p[1])) for p in passes]
    if exact[0] != exact[1]:
        runner.problems.append("exact counts differ between the two traced passes")

    steps = rows = 0
    for config in configs:
        s, r = workloads.expected_counts(config)
        steps += 2 * s
        rows += 2 * r
    merged = tracer.summary(passes[0][0], passes[1][1])
    metrics = layer_metrics(merged, steps, rows, 2 * len(configs))
    metrics["harness.cpu_per_wall"] = (sum(p[4] for p in passes) / sum(p[3] for p in passes),
                                       "1")
    metrics["harness.trace_overhead"] = (sum(p[2] for p in passes) / sum(untraced) - 1.0, "1")
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl",
                 args.workload, passes[0][0], passes[1][1])
    detail = {"untraced_pass_ref_s": untraced, "traced_pass_ref_s": [p[2] for p in passes],
              "spans": {k: {**v, "counts": dict(zip(spans.COUNTER_NAMES, v["counts"]))}
                        for k, v in merged.items()},
              "missing_entry_points": missing}
    return runner, metrics, {}, detail


def layer_metrics(summary, steps, rows, runs):
    """Per-layer metrics from a span summary; times are self times."""
    import spans

    def get(name, key="self_seconds"):
        return summary.get(name, {}).get(key, 0)

    def counter(names, slot):
        """Counter total over the named spans (None: every span)."""
        return sum(s["counts"][slot] for n, s in summary.items() if names is None or n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    ms = 1e3
    solves = get(spans.ELLIPTIC, "calls")
    row_spans = ("lagrangian.record", "models.conserved", "fields.tail_enstrophy")
    lagrangian = ("lagrangian.stage_interp", "lagrangian.advect")
    return {
        "models.step_self_ms": (ms * get("models.step") / steps, "ms/step"),
        "models.cfl_self_ms": (ms * get("models.cfl") / steps, "ms/step"),
        "fields.fft2_per_step.models": (counter(["models.step"], spans.FFT2) / steps, "1/step"),
        "fields.fft2_per_step": (counter(None, spans.FFT2) / steps, "1/step"),
        "fields.fft2_ms_per_step": (ms * counter(None, spans.FFT2_S) / steps, "ms/step"),
        "fields.fft2_mb_per_step": (counter(None, spans.FFT2_BYTES) / 1e6 / steps, "MB-calc/step"),
        "elliptic.solve_ms": (ms * ratio(get(spans.ELLIPTIC, "seconds"), solves), "ms/solve"),
        "elliptic.iters_per_solve": (ratio(get(spans.ELLIPTIC, "iterations"), solves), "1/solve"),
        "elliptic.iters_per_step": (get(spans.ELLIPTIC, "iterations") / steps, "1/step"),
        "elliptic.solves_per_step": (solves / steps, "1/step"),
        "elliptic.pcg_share": (ratio(get(spans.ELLIPTIC, "pcg_solves"), solves), "1"),
        "elliptic.residual_max": (get(spans.ELLIPTIC, "residual_max"), "1"),
        "fields.fft2_per_step.elliptic": (counter([spans.ELLIPTIC], spans.FFT2) / steps, "1/step"),
        "lagrangian.stage_interp_ms": (ms * get("lagrangian.stage_interp") / steps, "ms/step"),
        "lagrangian.advect_ms": (ms * get("lagrangian.advect") / steps, "ms/step"),
        "lagrangian.spline_planes_per_step": (counter(None, spans.SPLINE_PLANES) / steps, "1/step"),
        "lagrangian.interp_points_per_step": (counter(None, spans.INTERP_POINTS) / steps, "1/step"),
        "fields.fft2_per_step.lagrangian": (counter(lagrangian, spans.FFT2) / steps, "1/step"),
        "lagrangian.record_ms": (ms * get("lagrangian.record") / rows, "ms/row"),
        "models.conserved_ms": (ms * get("models.conserved") / rows, "ms/row"),
        "fields.fft2_per_row.record": (counter(row_spans, spans.FFT2) / rows, "1/row"),
        "bootstrap.monitor_ms": (ms * get("bootstrap.monitor") / runs, "ms/run"),
        "harness.self_ms_per_step": (ms * get("harness.run") / steps, "ms/step"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fluidspan" / "__init__.py").is_file():
        print(f"error: no fluidspan sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))

    measure = per_layer if args.trace else end_to_end
    runner, metrics, raw, detail = measure(args)

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {**result, "context": context(args, runner), "detail": detail,
              "problems": runner.problems}
    RESULTS.mkdir(exist_ok=True)
    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{runner.attempted} runs attempted, {runner.failed} failed")
    for problem in runner.problems:
        print(f"  FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    for name, value in raw.items():
        print(f"  {name:36s} {value:14.6g} s (wall clock, not normalised)")
    print(f"  {'failed_frac':36s} {runner.failed / runner.attempted:14.6g} 1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
