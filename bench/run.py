"""trinls benchmark: one closed-loop caller, timed from outside the library.

    python3 bench/run.py --workload {ensemble,solve_sweep,cli_wide} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; trinls is imported from ./src.  The run sets
up (imports, grids, the reference ground state, a warm-up experiment), then
repeats whole passes of the workload until S seconds have been spent, checks
every output, and prints a run record followed, as the last line, by

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, their
times scaled to reference speed (bench/reference.py); with --trace 1 the run
alternates untraced and traced passes on the same inputs, adds the per-layer
probe, and reports the per-layer metrics.  See bench/README.md.
"""

import time

T0 = time.perf_counter()          # set-up time counts from here

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5                 # set-ups per run, in separate processes
# Capped at p90 so that a faster commit, which fits more solves into a run,
# reports the same percentile as its parent.
PERCENTILES = (50, 75, 90)


def cap_threads():
    """Cap BLAS / OpenMP pools at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def import_trinls():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import trinls
    except ImportError as err:
        sys.exit(f"bench: cannot import trinls from {src}: {err}")
    if Path(trinls.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"bench: trinls imported from {trinls.__file__}, not {src}")


def tail(samples):
    """Highest of PERCENTILES with at least ten samples beyond it, as
    (value, label).  Below twenty samples none has; then p75, which moves
    less from run to run than the maximum of so few."""
    xs = sorted(samples)
    n = len(xs)
    best = 75
    for q in PERCENTILES:
        if n * (100 - q) / 100 >= 10:
            best = q
    return statistics.quantiles(xs, n=100, method="inclusive")[best - 1], f"p{best} of {n}"


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else None
    return ref


def src_sha256():
    """Hash of the library sources, to identify checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_record(args, nproc):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "src_sha256": src_sha256(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def child_setup(args):
    """Time one set-up in a fresh interpreter, so imports count."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        sys.exit(f"bench: set-up child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_summary(tally, secs):
    return {"setup_s": secs, "attempted": tally.attempted,
            "failures": tally.failures}


def bracketed(chunks, body):
    """Run `body` between the last reference sample in `chunks` and a new
    one.  Returns its result and the speed of the machine meanwhile, as the
    chunks on both sides give it."""
    import reference

    before = chunks[-reference.CHUNKS:]
    out = body()
    reference.sample(chunks)
    return out, reference.speed(before + chunks[-reference.CHUNKS:])


def segment(tally, chunks, body):
    """Run `body` bracketed by reference chunks and scale the times it adds
    to `tally` to reference speed.  Returns the segment: its speed, the pass
    seconds `body` returns, raw and scaled, and the rated counters it
    added, scaled."""
    n, before = len(tally.solve_s), tally.rated()
    pass_s, speed = bracketed(chunks, body)
    for i in range(n, len(tally.solve_s)):
        tally.solve_s[i] *= speed
    steps, traj_s, solves, work_s = (
        b - a for a, b in zip(before, tally.rated()))
    return {"speed": speed, "raw_pass_s": pass_s,
            "pass_s": None if pass_s is None else pass_s * speed,
            "steps": steps, "traj_s": traj_s * speed,
            "solves": solves, "solve_work_s": work_s * speed}


def run_loop(ctx, seconds, tally, chunks, tracer=None):
    """Closed loop: segments until `seconds` have elapsed.  An untraced
    segment is one pass and a slice of complement work.  With a tracer the
    segments alternate untraced / traced passes on the same inputs (the
    input stream is rewound before the traced one) and the loop runs on to
    a whole number of pairs.  Returns the untraced segments, the traced
    ones and the traced passes' root spans."""
    import workloads

    run_pass = workloads.PASSES[ctx.workload]
    per_pass = 0 if tracer else workloads.COMPLEMENT_PER_PASS.get(ctx.workload, 0)
    plain, traced, roots = [], [], []
    rng_state = None

    def untraced():
        nonlocal rng_state
        rng_state = ctx.rng.bit_generator.state
        t0 = time.perf_counter()
        run_pass(ctx, tally)
        secs = time.perf_counter() - t0
        workloads.after_pass(ctx)
        workloads.complement(ctx, tally, per_pass)
        return secs

    def traced_pass():
        ctx.rng.bit_generator.state = rng_state
        tracer.install()
        with tracer.span("pass") as root:
            run_pass(ctx, tally)
        tracer.uninstall()
        roots.append(root)
        workloads.after_pass(ctx)
        return tracer.duration(root)

    start = time.perf_counter()
    while True:
        if tracer is not None and len(traced) < len(plain):
            traced.append(segment(tally, chunks, traced_pass))
        else:
            plain.append(segment(tally, chunks, untraced))
        if (time.perf_counter() - start >= seconds
                and len(traced) == (len(plain) if tracer else 0)):
            return plain, traced, roots


def metric_list(kind):
    """{name: unit} of the `kind` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def package(values, kind):
    """Attach units from BENCHMARK.json; stop the run if the metrics
    computed differ from the ones listed there."""
    units = metric_list(kind)
    if set(values) != set(units):
        sys.exit(f"bench: {kind} metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(units) - set(values))}, "
                 f"unlisted {sorted(set(values) - set(units))}")
    return {k: {"value": float(values[k]), "unit": u} for k, u in units.items()}


def rate(segments, count, secs):
    """Median over the segments that did the work of `count` per `secs`."""
    return statistics.median(s[count] / s[secs] for s in segments if s[secs] > 0)


def end_to_end(setups, run, tally, segments):
    """The end-to-end metrics, every time scaled to reference speed.  Rates
    are medians over segments of work done per second spent in that work;
    for work a workload's passes never do, that is the complement work run
    between them.  Accuracy maxima cover the run's seed-independent work,
    set-up included."""
    passes = [s for s in segments if s["pass_s"] is not None]
    tail_value, tail_label = tail(tally.solve_s)
    return {
        "setup_s": statistics.median(s["setup_s"] * s["speed"] for s in setups),
        "wall_s": statistics.median(s["pass_s"] for s in passes),
        "traj_steps_per_s": rate(segments, "steps", "traj_s"),
        "solves_per_s": rate(segments, "solves", "solve_work_s"),
        "solve_s.p50": statistics.median(tally.solve_s),
        "solve_s.tail": tail_value,
        "lam_rel_err_max": max(run.lam_rel_err),
        "residual_max": max(run.residual),
        "energy_drift_max": max(run.energy_drift),
        "mass_drift_max": max(run.mass_drift),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {"solve_s.tail": tail_label, "solve_samples": len(tally.solve_s),
        "speeds": [round(s["speed"], 4) for s in segments],
        "setup_speeds": [round(s["speed"], 4) for s in setups],
        "raw_pass_s": [s["raw_pass_s"] for s in passes],
        "raw_setup_s": [s["setup_s"] for s in setups]}


def main(argv=None):
    nproc = cap_threads()             # before numpy is first imported
    import_trinls()
    import reference
    import workloads
    from tracing import Tracer

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    setup_tally = workloads.Tally()
    try:
        ctx = workloads.setup(args.workload, args.seed, workdir, setup_tally)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps(setup_summary(setup_tally, setup_s)))
            return 0

        # each set-up is scaled by the reference chunks around it; this
        # process's own by the chunks after it
        chunks = []
        reference.sample(chunks)
        setups = [setup_summary(setup_tally, setup_s)]
        setups[0]["speed"] = reference.speed(chunks)
        if not tracer:
            for _ in range(SETUP_REPEATS - 1):
                child, speed = bracketed(chunks, lambda: child_setup(args))
                child["speed"] = speed
                setups.append(child)

        tally = workloads.Tally()
        plain, traced, roots = run_loop(ctx, args.seconds, tally, chunks,
                                        tracer)
        if tracer:
            import layers
            import probe
            kernels = probe.kernel_timings(ctx)
            tracer.install()
            with tracer.span("probe"):
                probe_bytes = probe.traced_battery(ctx, tally)
            tracer.uninstall()
            run = workloads.merge(setup_tally, tally)
            values, notes = layers.per_layer(
                tracer, plain, traced, roots, kernels, len(run.failures),
                run.attempted, sum(ctx.bytes_written) + probe_bytes,
                len(workloads.CLI_COMMANDS) * (1 + len(ctx.bytes_written)))
            metrics = package(values, "per_layer")
        else:
            top_up = max(0, workloads.COMPLEMENT_MIN.get(args.workload, 0)
                         - ctx.complement_runs)
            if top_up:
                plain.append(segment(tally, chunks, lambda: workloads.complement(
                    ctx, tally, top_up)))
            run = workloads.merge(setup_tally, tally)
            values, notes = end_to_end(setups, run, tally, plain)
            metrics = package(values, "end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = run.attempted + sum(s["attempted"] for s in setups[1:])
    failures = run.failures + [f for s in setups[1:] for f in s["failures"]]
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    record = run_record(args, nproc)
    record.update(notes)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
