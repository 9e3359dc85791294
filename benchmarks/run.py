"""Benchmark of the clipbias package: time to result, memory and per-layer
spans on the audit, Monte Carlo and ensemble paths.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the package is imported from ``src``).
One process generates all load. It first times the workload's set-up in a
few fresh interpreters (``setup_s``), then builds the inputs itself and
repeats the workload's fixed unit of work for about S seconds, at least
twice. Every output is checked after the timed region.

With ``--trace 0`` it reports the end-to-end metrics named in
``BENCHMARK.json``: the median unit time, set-up time, peak RSS of this
process and the share of operations that passed. With ``--trace 1`` it
alternates traced and untraced units and reports the per-layer metrics of
the traced ones together with the tracing overhead.

Results, the environment and, for traced runs, the raw spans are written
under ``benchmarks/out/<workload>/``; the last line of standard output is
the result as one JSON object.
"""

import argparse
import gc
import gzip
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 3
MIN_UNITS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help="build the workload's inputs in DIR, print the monotonic "
                             "clock and exit (used to time set-up in a fresh process)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def cap_blas_threads():
    """Cap OpenBLAS at the cores this process may run on; must precede numpy."""
    nproc = len(os.sched_getaffinity(0))
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(cap)
    return nproc, cap


def import_workloads():
    package = ROOT / "src" / "clipbias" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: no clipbias source at {package.parent}; run from a source tree")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import clipbias
    if Path(clipbias.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported clipbias from {clipbias.__file__}, not {package}")
    import workloads
    return workloads


def time_setup(args, run_dir):
    """Seconds from spawning a fresh interpreter until its inputs are ready."""
    times = []
    for i in range(SETUP_RUNS):
        probe_dir = run_dir / f"setup{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(probe_dir)]
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def tree_bytes(path):
    path = Path(path)
    if not path.exists():
        return {}
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def environment(nproc, cap):
    import numpy
    import scipy
    blas = lambda cfg: cfg["Build Dependencies"]["blas"].get("openblas configuration")
    return {
        "nproc": nproc,
        "openblas_num_threads": cap,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy.show_config(mode="dicts")),
        "scipy_openblas": blas(scipy.show_config(mode="dicts")),
    }


def measure(workload, args, run_dir, tracer, install):
    """Repeat the unit of work for about ``args.seconds``; return the units."""
    units = []
    kinds = itertools.cycle((True, False)) if args.trace else itertools.repeat(False)
    begin = time.perf_counter()
    for i, traced in enumerate(kinds):
        n_traced = sum(u["traced"] for u in units)
        enough = (n_traced >= MIN_UNITS and len(units) > n_traced) if args.trace else len(units) >= MIN_UNITS
        if enough:
            estimate = statistics.median(u["seconds"] for u in units)
            if time.perf_counter() - begin + estimate > args.seconds:
                break
        out_dir = str(run_dir / f"unit{i:03d}")
        gc.collect()
        if traced:
            install(tracer)
        start = time.perf_counter()
        try:
            ops = workload.run_unit(out_dir, tracer if traced else None)
        finally:
            seconds = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        spans, counts = tracer.take() if traced else (None, None)
        units.append({"traced": traced, "seconds": seconds, "ops": ops, "spans": spans, "counts": counts})
    return units


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    nproc, cap = cap_blas_threads()
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    make = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        make(args.seed, os.path.join(args.setup_only, "inputs"))
        print(repr(time.monotonic()))
        return 0

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = BENCH / "out" / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setup_times = time_setup(args, run_dir)

    import layers
    from spans import Tracer

    workload = make(args.seed, str(run_dir / "inputs"))
    setup_ops = [workloads.Op("setup-replay")]
    if tree_bytes(run_dir / "inputs") != tree_bytes(run_dir / "setup0" / "inputs"):
        setup_ops[0].error = "inputs differ from those a fresh process built from the same seed"

    tracer = Tracer()
    units = measure(workload, args, run_dir, tracer, layers.install)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_ops = [u["ops"] for u in units]
    workload.check(all_ops)
    sizes = workloads.bytes_written(all_ops)
    ops = setup_ops + [op for unit_ops in all_ops for op in unit_ops]
    untraced = [u["seconds"] for u in units if not u["traced"]]

    per_unit = [layers.unit_metrics(u["spans"], u["counts"], size)
                for u, size in zip(units, sizes) if u["traced"]]
    # Work counters are the integer metrics; each unit repeats the same work.
    counters = [{k: v for k, v in m.items() if isinstance(v, int)} for m in per_unit]
    ops.append(workloads.Op("exact-counters"))
    if len(set(sizes)) > 1 or any(c != counters[0] for c in counters):
        ops[-1].error = f"work counters differ between units: bytes {sizes}, counters {counters}"
    attempted = len(ops)
    failed = sum(op.error is not None for op in ops)

    if args.trace:
        traced = [u["seconds"] for u in units if u["traced"]]
        values = {name: value if isinstance(value, int) else statistics.median(m[name] for m in per_unit)
                  for name, value in per_unit[0].items()}
        values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "time_to_result_s": statistics.median(untraced),
            "peak_rss_mb": peak_rss_mb,
            "passed_fraction": (attempted - failed) / attempted,
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(nproc, cap),
        "setup_times_s": setup_times,
        "units": [{"traced": u["traced"], "seconds": u["seconds"], "ops": [op.name for op in u["ops"]]}
                  for u in units],
        "failures": [{"op": op.name, "error": op.error} for op in ops if op.error is not None],
        "notes": layers.NOTES if args.trace else [],
        "result": result,
    }
    if args.trace:
        with gzip.open(run_dir.with_name(run_dir.name + "-spans.json.gz"), "wt") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "units": [u["spans"] for u in units if u["traced"]]}, fh)
    with open(run_dir.with_name(run_dir.name + ".json"), "w") as fh:
        json.dump(record, fh, indent=2)
    shutil.rmtree(run_dir, ignore_errors=True)

    for failure in record["failures"]:
        print(f"FAILED {failure['op']}: {failure['error']}")
    for note in record["notes"]:
        print(f"note: {note}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
