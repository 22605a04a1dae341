#!/usr/bin/env python3
"""hessquot benchmark: seeded continuation solves, end-to-end and per layer.

    python3 perfbench/run.py --workload s2-gauss --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the repository root; the package is imported from `src/`.  BLAS and
OpenMP are pinned to one thread.  A run repeats passes over the workload's
problems (the same seeded problems every pass) until `--seconds` have gone,
and at least MIN_PASSES times; each pass is checked for correctness and its
artifacts must match the first pass byte for byte.

`--trace 0` reports end-to-end metrics as medians over passes.  `--trace 1`
alternates untraced and traced passes and reports per-layer self times and
counts (medians over traced passes) plus the tracing overhead; the spans of
the traced passes go to `perfbench/work/<workload>/spans.jsonl`.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
`--workload all` runs each workload in its own process and prefixes the
metric names with the workload.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def load_spec():
    """Workload names and metric units, from BENCHMARK.json at the root."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]}
             for kind in ("end_to_end", "per_layer")}
    return names, units


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, blas {blas}, "
            f"threads {os.environ['OPENBLAS_NUM_THREADS']}, "
            f"nproc {len(os.sched_getaffinity(0))}, cpu {cpu}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def import_package():
    if not os.path.isfile(os.path.join(SRC, "hessquot", "__init__.py")):
        sys.exit(f"error: no hessquot sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import hessquot

    if not os.path.abspath(hessquot.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: hessquot imported from {hessquot.__file__}, not {SRC}")


def measure(name, seed, seconds, trace, units):
    """Run passes of one workload; returns (result object, lines to print)."""
    import tracing
    import workloads

    workdir = os.path.join(HERE, "work", name)
    workload = workloads.WORKLOADS[name](seed, workdir)
    lines = [f"workload {name}, seed {seed}, trace {int(trace)}: "
             + "; ".join(workload.describe()), "env: " + environment()]
    workload.warm_up()

    rows, traced_rows, span_log, accuracy, durations = [], [], [], [], []
    attempted = failed = 0
    min_passes = 2 * MIN_TRACED_PASSES if trace else MIN_PASSES
    deadline = time.perf_counter() + seconds
    index = 0
    # Start a pass only while the fastest pass so far still fits before the deadline.
    while index < min_passes or time.perf_counter() + min(durations) <= deadline:
        traced = trace and index % 2 == 1
        tracer = tracing.Tracer()
        undo = []
        gc.collect()
        started = time.perf_counter()
        if traced:
            undo, missing = tracer.install()
            if missing and not traced_rows:
                lines.append("not traced (absent): " + ", ".join(missing))
        try:
            outcomes = workload.run_pass()
        finally:
            tracing.uninstall(undo)
        durations.append(time.perf_counter() - started)
        accuracy.append(workload.check_pass(outcomes))
        attempted += len(outcomes)
        for out in outcomes:
            if out.errors:
                failed += 1
                lines.append(f"FAILED pass {index} {out.name}: {'; '.join(out.errors)}")
        row = {key: sum(getattr(out, key) for out in outcomes)
               for key in ("setup_s", "solve_s", "wall_s")}
        if traced:
            layers = tracing.layer_metrics(tracer.spans)
            layers["cli.bytes_written"] = sum(out.bytes_written for out in outcomes)
            layers["trace_overhead_s"] = row["wall_s"]
            traced_rows.append(layers)
            span_log.extend((index, span) for span in tracer.spans)
        else:
            rows.append(row)
        index += 1

    if trace:
        # traced pass wall time minus the median untraced pass wall time
        untraced_wall = statistics.median(row["wall_s"] for row in rows)
        for layers in traced_rows:
            layers["trace_overhead_s"] -= untraced_wall
        samples, kind = traced_rows, "per_layer"
        _write_spans(os.path.join(workdir, "spans.jsonl"), span_log)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for row in rows:
            row["peak_rss_mb"] = peak_mb
            row["solved_ratio"] = (attempted - failed) / attempted
        samples, kind = rows, "end_to_end"
    metrics = {key: statistics.median(row[key] for row in samples) for key in samples[0]}
    if set(metrics) != set(units[kind]):
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json lists "
                           f"{sorted(units[kind])}")

    for key, value in metrics.items():
        q1, q3 = quartiles([row[key] for row in samples])
        lines.append(f"  {key} = {value:.6g} {units[kind][key]}  "
                     f"(median of {len(samples)} passes, q1 {q1:.6g}, q3 {q3:.6g})")
    for key in sorted({key for acc in accuracy for key in acc}):
        values = [acc[key] for acc in accuracy if key in acc]
        lines.append(f"  {key} = {statistics.median(values):.6g}  "
                     f"(median of {len(values)} passes)")
    lines.append(f"  problems attempted {attempted}, failed {failed}, "
                 f"fail_ratio {failed / attempted:.6g}, passes {index}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[kind][key]}
                    for key, value in metrics.items()},
    }
    return result, lines


def _write_spans(path, span_log):
    keys = ("id", "parent", "name", "start", "end", "returned", "value")
    with open(path, "w", encoding="utf-8") as handle:
        for index, span in span_log:
            record = dict(zip(keys, span), **{"pass": index})
            handle.write(json.dumps(record) + "\n")


def run_all(args, names):
    """Each workload in its own process, so peak RSS belongs to that workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        out_lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not out_lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        print("\n".join(out_lines[:-1]), flush=True)
        result = json.loads(out_lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))


def main(argv=None):
    names, units = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    import_package()
    if args.workload == "all":
        run_all(args, names)
        return
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace), units)
    print("\n".join(lines))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
