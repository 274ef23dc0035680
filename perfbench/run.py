"""Benchmark of the almostabelian package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
Each run repeats one seeded pass of checked ops (see workloads.py) until
the next pass would end after S seconds; every pass runs on cold
package caches, as a fresh CLI process would.  Times are reported in
reference seconds (see `reference_loop`).  The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1.  See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 11

# The unit of reference seconds: an op that takes t wall seconds while
# reference_loop() takes l seconds counts t * REFERENCE_LOOP_S / l.
REFERENCE_LOOP_S = 0.0017
SAMPLE_EVERY_S = 0.25


def reference_loop():
    """A fixed pure-Python loop of dict updates, timed next to every op.

    The machines this runs on are shared: the same pass can take 10 s
    in one minute and 15 s in the next.  Dividing each op's wall time
    by the loop's time around and during it, times REFERENCE_LOOP_S,
    gives reference seconds, in which that drift largely cancels.  Dict
    updates tracked the package's slowdowns better than plain integer
    arithmetic did.  Package code never runs inside the loop, so a
    change to the package cannot move it.
    """
    counts = {}
    for i in range(12000):
        key = i * 7919 % 2003
        counts[key] = counts.get(key, 0) + i
    return len(counts)


def loop_seconds():
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        reference_loop()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class LoopSampler:
    """Times reference_loop() every SAMPLE_EVERY_S of wall time, from a
    SIGALRM handler, while an op runs.

    An op can last 10 s, and the machine's speed changes within that;
    the samples taken during the op follow it.  `spent` is the time the
    samples took, which the op's wall time must not include.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def import_package():
    """Import almostabelian from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import almostabelian

    if not Path(almostabelian.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError("almostabelian was not imported from %s" % src)


def clear_caches():
    """Empty every lru_cache of the package, so each pass starts cold."""
    for mod in tracing.package_modules():
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                value.cache_clear()


def quantile90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


@dataclass
class Pass:
    traced: bool
    times: list  # per-op reference seconds
    walls: list  # per-op wall seconds
    loops: list  # reference_loop() seconds: between ops and sampled during them
    failures: int
    layers: dict = None  # traced passes: tracing.Tracer.summarise plus hit ratios

    @property
    def speed(self):
        """Reference seconds per wall second during this pass."""
        return REFERENCE_LOOP_S / statistics.median(self.loops)


def run_pass(ops, tracer=None):
    """Run every op once, timing the reference loop between and during ops.

    Checks are untimed.
    """
    done = Pass(tracer is not None, [], [], [loop_seconds()], 0)
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = index
        with LoopSampler() as sampler:
            start = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:
                result, error = None, exc
            wall = time.perf_counter() - start
        done.walls.append(wall - sampler.spent)
        if tracer is not None:
            tracer.op_id = None
        try:
            ok = error is None and op.check(result)
        except Exception as exc:
            ok, error = False, exc
        if not ok:
            done.failures += 1
            print("FAILED: %s %s" % (op.label, "" if error is None else repr(error)),
                  file=sys.stderr)
        between = [done.loops[-1], loop_seconds()]
        during = statistics.mean(between + sampler.samples)
        done.loops.extend(sampler.samples + between[1:])
        done.times.append(done.walls[-1] * REFERENCE_LOOP_S / during)
    return done


def measure(name, seed, seconds, trace, size="full"):
    """Run workload `name` for about `seconds`; returns the result dict.

    Untraced, passes repeat while the next one is expected to end within
    the budget (at least one).  Traced, untraced and traced passes
    alternate (at least one of each), so the overhead of tracing is
    measured on the same inputs.
    """
    import workloads

    ops = workloads.build(name, seed, size)
    passes = []
    began = time.perf_counter()
    tracer = tracing.Tracer() if trace else None
    while True:
        clear_caches()
        if trace and len(passes) % 2 == 1:
            mark = tracer.mark()
            before = tracing.cache_snapshot()
            with tracer:
                done = run_pass(ops, tracer)
            done.layers = tracer.summarise(mark)
            done.layers.update(tracing.hit_ratios(before, tracing.cache_snapshot()))
        else:
            done = run_pass(ops)
        passes.append(done)
        elapsed = time.perf_counter() - began
        typical = statistics.median(sum(p.walls) for p in passes)
        if (not trace or len(passes) >= 2) and elapsed + typical > seconds:
            break
    failed = sum(p.failures for p in passes)
    result = {"correct": failed == 0, "attempted": len(ops) * len(passes), "failed": failed}
    if trace:
        result["metrics"] = layer_metrics(passes)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / ("trace_%s_%d.jsonl" % (name, seed)))
    else:
        result["metrics"], result["details"] = end_to_end(ops, passes)
    return result


def end_to_end(ops, passes):
    """(metrics, details): the contract's metrics, and the workload's own figures."""
    per_op = [statistics.median(p.times[i] for p in passes) for i in range(len(ops))]
    metrics = {
        "ops_per_s": {
            "value": statistics.median(len(ops) / sum(p.times) for p in passes), "unit": "1/s"
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"
        },
    }
    details = {}
    models = sum(op.models for op in ops)
    if models:
        details["models_per_s"] = {"value": models / sum(per_op), "unit": "1/s"}
    for kind, label in (("classify", "classify_per_s"), ("record", "records_per_s")):
        own = [t for op, t in zip(ops, per_op) if op.kind == kind]
        if own:
            details[label] = {"value": len(own) / sum(own), "unit": "1/s"}
    records = [t for op, t in zip(ops, per_op) if op.kind == "record"]
    if records:
        details["record_p90_s"] = {"value": quantile90(records), "unit": "s"}
    details["wall_ops_per_s"] = {
        "value": statistics.median(len(ops) / sum(p.walls) for p in passes), "unit": "1/s"
    }
    details["speed"] = {"value": statistics.median(p.speed for p in passes), "unit": "ratio"}
    details["passes"] = {"value": len(passes), "unit": "count"}
    return metrics, details


def layer_metrics(passes):
    """Per-layer metrics: counts from the first traced pass (every pass
    runs the same inputs), times as medians over the traced passes of
    their per-pass sums, in reference seconds."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    out = {}
    for name, unit in tracing.LAYER_METRICS:
        if name == "trace_overhead":
            value = (statistics.median(sum(p.times) for p in traced)
                     / statistics.median(sum(p.times) for p in plain))
        elif name in tracing.CACHES:
            value = statistics.median(p.layers[name] for p in traced)
        else:
            span, _, figure = name.rpartition(".")
            values = [p.layers.get(span, {}).get(figure, 0) for p in traced]
            if unit == "s":
                value = statistics.median(v * p.speed for v, p in zip(values, traced))
            else:
                value = values[0]
        out[name] = {"value": value, "unit": unit}
    return out


def setup_seconds(name, seed, size):
    """Median, over fresh interpreters, of the time from start to the
    first timed op (importing the package and building the pass), in
    reference seconds."""
    samples = []
    before = loop_seconds()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed), "--size", size],
            check=True, cwd=ROOT,
        )
        wall = time.perf_counter() - start
        after = loop_seconds()
        samples.append(wall * REFERENCE_LOOP_S / ((before + after) / 2))
        before = after
    return statistics.median(samples)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_dim12", "oracles_dim14", "large_n"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.environ.pop("ALMOSTABELIAN_WORKERS", None)  # the sweep runs sequentially
    try:
        import_package()
    except ImportError as exc:
        print("perfbench: cannot import the package: %s" % exc, file=sys.stderr)
        return 2
    if args.setup_probe:
        import workloads

        workloads.build(args.workload, args.seed, args.size)
        clear_caches()
        return 0
    setup = None if args.trace else setup_seconds(args.workload, args.seed, args.size)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    details = result.pop("details", {})
    if setup is not None:
        result["metrics"] = {"setup_s": {"value": setup, "unit": "s"}, **result["metrics"]}
    print("workload %s seed %d: %d ops attempted, %d failed, failed_frac %g"
          % (args.workload, args.seed, result["attempted"], result["failed"],
             result["failed"] / result["attempted"]))
    for label, metric in list(result["metrics"].items()) + list(details.items()):
        print("  %-45s %14.6g %s" % (label, metric["value"], metric["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
