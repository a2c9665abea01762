"""tbpslab benchmark: one closed-loop client running one workload.

    python3 perfbench/run.py --workload recipe --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. Repetitions run back to back on one seed until the next one would
end after `--seconds` (at least two, so repetitions can be compared; with
`--trace 1` one untraced repetition and at least two traced ones). Every
repetition is checked; see workloads.py. The last line of standard output
is the result as JSON; the full record, with the environment, goes to
`.perfbench/results/`, and with `--trace 1` the spans go to
`.perfbench/traces/`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5  # fresh processes timed for setup_s
MAX_RUN_S = 150.0  # never start a repetition projected to end later than this
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: selftest-scale corpus and model, for the smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def probe_setup(args) -> float:
    """Set-up time of a fresh process, as a user's first command pays it."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "1", "--size", args.size, "--setup-probe",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def environment() -> dict:
    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model or platform.processor() or None,
        "platform": platform.platform(),
    }


def run_reps(args, st, runlog) -> list:
    """Closed loop: the next repetition starts when the previous one ends."""
    reps = []  # (traced, Outcome, Tracer | None)
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    min_reps = 3 if args.trace else 2
    started = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if args.trace and reps else None
        workdir = tempfile.mkdtemp(dir=work)
        rep_start = time.perf_counter()
        try:
            if tracer is not None:
                tracer.install()
            outcome = workloads.run_once(args.workload, st, runlog, workdir, args.size)
        except Exception as exc:  # a failed repetition is counted, not fatal
            traceback.print_exc()
            outcome = workloads.Outcome(
                wall_s=time.perf_counter() - rep_start,
                errors=[f"raised {type(exc).__name__}: {exc}"],
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
            shutil.rmtree(workdir, ignore_errors=True)
        reps.append((tracer is not None, outcome, tracer))
        elapsed = time.perf_counter() - started
        projected = elapsed + statistics.median(o.wall_s for _, o, _ in reps)
        if projected > MAX_RUN_S or (len(reps) >= min_reps and projected > args.seconds):
            return reps


def check_repeats(reps, layer_rows):
    """Every repetition of one seed must agree with the first: final
    parameters (and final.ckpt on recipe), and, across traced repetitions,
    every deterministic count."""
    first = next((o.digest for _, o, _ in reps if o.digest), "")
    for _, outcome, _ in reps:
        if outcome.digest and outcome.digest != first:
            outcome.errors.append("final parameters differ from the first repetition")
    traced = [(o, row) for (t, o, _), row in zip(reps, layer_rows) if t]
    if traced:
        ref = tracing.deterministic_part(traced[0][1])
        for o, row in traced[1:]:
            diff = sorted(k for k, v in tracing.deterministic_part(row).items() if ref.get(k) != v)
            if diff:
                o.errors.append(f"counts differ from the first traced repetition: {diff}")


def end_to_end_values(reps, setup_samples) -> tuple:
    """(values, sample counts) from the untraced repetitions that passed."""
    plain = [o for traced, o, _ in reps if not traced and not o.errors]
    if not plain:
        return {}, {}
    attempted = len(reps)
    failed = sum(1 for _, o, _ in reps if o.errors)
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(o.wall_s for o in plain),
        "steps_per_s": statistics.median(o.steps / o.wall_s for o in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_rate": (attempted - failed) / attempted,
    }
    counts = {k: len(plain) for k in values}
    counts.update(setup_s=len(setup_samples), peak_rss_mb=1, ok_rate=attempted)
    return values, counts


def per_layer_values(reps, layer_rows, setup_trace) -> tuple:
    """(values, sample counts): medians over the traced repetitions that
    passed, counts taken whole, set-up layers from the traced set-up."""
    rows = [row for (t, o, _), row in zip(reps, layer_rows) if t and not o.errors]
    if not rows:
        return {}, {}
    values = {}
    for key in rows[0]:
        present = [r[key] for r in rows if r[key] is not None]
        values[key] = statistics.median(present) if present else None
    values.update(tracing.deterministic_part(rows[0]))  # equal in every row, checked
    values.update(tracing.setup_metrics(setup_trace))
    traced = [o.wall_s for t, o, _ in reps if t and not o.errors]
    plain = [o.wall_s for t, o, _ in reps if not t and not o.errors]
    values["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain) if plain else None
    )
    return values, {k: len(rows) for k in values}


def write_record(args, env, setup_samples, reps, missing, result, setup_trace):
    record = {
        "schema": "perfbench-result/1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": env,
        "setup_samples_s": setup_samples,
        "repetitions": [
            {"traced": t, "wall_s": o.wall_s, "steps": o.steps, "rank1": o.rank1,
             "runs": o.runs, "distinct_runs": o.distinct_runs, "digest": o.digest,
             "errors": o.errors}
            for t, o, _ in reps
        ],
        "missing_boundaries": missing,
        "result": result,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        spans = [(-1, setup_trace.spans)] + [
            (i, t.spans) for i, (_, _, t) in enumerate(reps) if t is not None
        ]
        meta = {"workload": args.workload, "seed": args.seed, "missing_boundaries": missing}
        tracing.write_spans(OUT / "traces" / f"{stem}.jsonl.gz", meta, spans)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = ROOT / "src"
    if not (src / "tbpslab" / "__init__.py").is_file():
        print(f"error: no tbpslab package under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    if args.setup_probe:
        st = workloads.setup(args.workload, args.seed, args.size)
        print(json.dumps({"setup_s": st.seconds}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    st = workloads.setup(args.workload, args.seed, args.size)
    package_file = Path(st.experiments.__file__).resolve()
    if src.resolve() not in package_file.parents:
        print(f"error: imported tbpslab from {package_file}, not from {src}", file=sys.stderr)
        return 2
    # setup_s is an end-to-end metric, so only untraced runs time it
    setup_samples = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]

    setup_trace = None
    if args.trace:
        setup_trace = tracing.Tracer()
        setup_trace.install()
        try:
            workloads.setup(args.workload, args.seed, args.size)
        finally:
            setup_trace.uninstall()

    runlog = workloads.RunLog(st.experiments)
    try:
        reps = run_reps(args, st, runlog)
    finally:
        runlog.close()

    layer_rows = [tracing.layer_metrics(t, o) if traced else None for traced, o, t in reps]
    check_repeats(reps, layer_rows)
    attempted = len(reps)
    failed = sum(1 for _, o, _ in reps if o.errors)
    for i, (traced, o, _) in enumerate(reps):
        for err in o.errors:
            print(f"check failed, repetition {i}{' (traced)' if traced else ''}: {err}", file=sys.stderr)

    if args.trace:
        values, counts = per_layer_values(reps, layer_rows, setup_trace)
        wanted = spec["per_layer"]
    else:
        values, counts = end_to_end_values(reps, setup_samples)
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if values and set(values) != set(names):
        print(f"error: metrics {sorted(set(values) ^ set(names))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0 and bool(values), "attempted": attempted,
              "failed": failed, "metrics": metrics}

    env = environment()
    missing = sorted({b for _, _, t in reps if t is not None for b in t.missing}
                     | set(setup_trace.missing if setup_trace else ()))
    write_record(args, env, setup_samples, reps, missing, result, setup_trace)

    print(f"environment {json.dumps(env, sort_keys=True)}")
    if missing:
        print(f"missing boundaries (reported as null): {', '.join(missing)}")
    print(f"{args.workload} seed {args.seed}: {attempted} repetitions, {failed} failed, "
          f"error_rate {failed / attempted:.4f}")
    for name, m in metrics.items():
        shown = "missing" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<40} {shown:>12} {m['unit']:<12} n={counts.get(name, 0)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
