"""suda benchmark: one workload, one seed, one process.

Run from the repository root:

    python3 perfbench/run.py --workload adapt --seed 0 --seconds 30 --trace 0

The workload's inputs are made from --seed. Jobs of the workload repeat
in a closed loop for --seconds, and every job's outputs are checked outside
the timed region. Set-up repeats in groups before the first job and in a
short burst before every job; `setup_s` is the median over the groups. Job
times and the latency percentiles of each job are reported as their lower
quartile over the jobs of the run. With --trace 1 the loop alternates
untraced and traced jobs, and the per-layer metrics come from the spans of
the traced ones. Set-up, jobs, operations and spans are timed in process CPU
time; the wall time of each job is printed alongside.

The report goes to stdout; its last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Metric names and units are
read from BENCHMARK.json: --trace 0 prints its `end_to_end` metrics, --trace
1 its `per_layer` metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

# pinned before numpy loads, as in tests/conftest.py: one BLAS thread makes
# runs reproducible and the timings a single-core measurement
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# set-up repeats for SETUP_SECONDS before the first job and, in an untraced
# run, for SETUP_BURST_SECONDS before every later job (wall seconds), so that
# its median samples the whole run and not one moment of a shared machine
SETUP_SECONDS = 0.3
SETUP_BURST_SECONDS = 0.1
# a set-up sample is the mean over set-ups that together take this long: a
# single set-up of about a millisecond lands in one of two modes that far
# apart, and which one is chance
SETUP_GROUP_SECONDS = 0.02
MIN_JOBS = 4   # so a traced run has two untraced and two traced jobs
KINDS = {"calls": 0, "s": 1, "self_s": 2}   # per-layer metric suffix -> summary column
ALIASES = {  # the end-to-end throughput under its per-workload name
    "adapt": "train_windows_per_s", "dida": "train_windows_per_s",
    "serve": "serve_windows_per_s", "ingest": "ingest_frames_per_s",
}

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ALIASES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment(np) -> dict:
    """What a timing depends on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


@dataclass
class Job:
    seconds: float   # process CPU time
    wall: float
    traced: bool
    outcome: object   # None when the job raised


@dataclass
class Run:
    state: object
    setup_times: list   # mean seconds per set-up, one per group
    setups: int
    jobs: list
    maes: list
    peak_rss_mb: float | None
    attempted: int
    failed: int
    tracer: object
    setup_span_end: int   # spans before this index were opened during set-up


def set_up(wl, seed, workdir, seconds) -> tuple[object, list[float], int]:
    """Repeat the workload's set-up for `seconds`, at least once, in groups
    of at least SETUP_GROUP_SECONDS. Returns the last inputs, the mean time
    of a set-up in each group, and the number of set-ups."""
    times, count = [], 0
    t_start = perf_counter()
    while not times or perf_counter() - t_start < seconds:
        n, t0 = 0, process_time()
        while n == 0 or process_time() - t0 < SETUP_GROUP_SECONDS:
            state = None   # drop the previous inputs before making the next
            state = wl.setup(seed, workdir)
            n += 1
        times.append((process_time() - t0) / n)
        count += n
    return state, times, count


def low_quartile(xs) -> float:
    """Lower quartile of per-job figures. Other tenants of a shared machine
    slow whole stretches of a run, by up to half, so the median job moves
    with the share of the run they took; the lower quartile is a job in the
    quieter stretches, which most runs have."""
    xs = list(xs)
    return statistics.quantiles(xs, n=4, method="inclusive")[0] if len(xs) > 1 else xs[0]


def measure(wl, seed, seconds, traced, workdir, spans, workloads) -> Run:
    """Set up repeatedly, then run jobs until `seconds` have passed."""
    tracer = spans.Tracer()
    patches = spans.install(tracer, [workloads]) if traced else []
    state, setup_times, setups = set_up(wl, seed, workdir, SETUP_SECONDS)
    spans.uninstall(patches)
    run = Run(state, setup_times, setups, [], [], None, 0, 0, tracer, len(tracer.spans))

    t_start = perf_counter()
    # stop before a job that would end past `seconds`, so runs last --seconds
    while len(run.jobs) < MIN_JOBS or (
            perf_counter() - t_start + statistics.mean(j.wall for j in run.jobs) <= seconds):
        if run.jobs and not traced:   # after the first job, which sets peak_rss_mb
            _, times, count = set_up(wl, seed, workdir, SETUP_BURST_SECONDS)
            run.setup_times += times
            run.setups += count
        traced_job = traced and len(run.jobs) % 2 == 1
        patches = spans.install(tracer, [workloads]) if traced_job else []
        first = len(tracer.spans)
        w0, t0 = perf_counter(), process_time()
        try:
            outcome = wl.job(state)
        except Exception:  # a failed job counts against the error rate; keep measuring
            traceback.print_exc()
            outcome = None
        elapsed, wall = process_time() - t0, perf_counter() - w0
        spans.uninstall(patches)
        run.jobs.append(Job(elapsed, wall, traced_job, outcome))
        run.attempted += wl.ops_per_job
        if outcome is None:
            run.failed += wl.ops_per_job
            continue
        if run.peak_rss_mb is None:
            # before the first check: only set-up and the job itself count
            run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bad, mae = wl.check(state, outcome)
        run.failed += bad
        run.maes.append(mae)
        if traced_job:
            # the patches must reach every namespace that binds a layer
            # function, or these counts come out short
            calls = tracer.summary(first)
            for name, want in wl.expected_calls(state).items():
                got = calls.get(name, (0,))[0]
                run.attempted += 1
                if got < want:
                    run.failed += 1
                    print(f"check failed: {name} called {got} times, expected {want} or more",
                          file=sys.stderr)
    return run


def end_to_end(wl, run: Run, np) -> dict[str, float]:
    done = [j for j in run.jobs if j.outcome is not None and not j.traced]
    run_s = low_quartile(j.seconds for j in done)
    latencies = [np.array(j.outcome.latencies) * 1e3 for j in done]
    # a percentile of each job's operations, lower quartile over the jobs
    p50, p99 = (low_quartile(float(np.percentile(x, q)) for x in latencies)
                for q in (50, 99))
    return {
        "setup_s": statistics.median(run.setup_times),
        "run_s": run_s,
        "throughput_per_s": wl.items_per_job(run.state) / run_s,
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "latency_samples": sum(len(x) for x in latencies),
        "mae_deg": run.maes[0],
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer(wl, run: Run, spans, workloads) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer values for one set-up plus one job, and each layer's share
    of the traced job time.

    Untraced jobs record no spans, so every span after the set-ups belongs
    to a traced job. Set-up spans are averaged over the set-ups and job
    spans over the traced jobs; a metric `<layer>.<fn>.<kind>` sums the
    two, and `<layer>.self_s` is the self time of all the layer's functions.
    """
    traced = [j for j in run.jobs if j.traced]
    untraced = [j for j in run.jobs if not j.traced and j.outcome is not None]
    n_setups, n_jobs = run.setups, len(traced)
    setup = run.tracer.summary(0, run.setup_span_end)
    jobs = run.tracer.summary(run.setup_span_end)
    none = (0, 0.0, 0.0)
    names = [name for name, _ in spans.layer_functions()]
    out: dict[str, float] = {}
    for name in names:
        s_row, j_row = setup.get(name, none), jobs.get(name, none)
        for kind, i in KINDS.items():
            out[f"{name}.{kind}"] = s_row[i] / n_setups + j_row[i] / n_jobs
    job_seconds = sum(j.seconds for j in traced)
    shares = {}
    for layer in spans.LAYERS:
        mine = [n for n in names if n.startswith(layer + ".")]
        out[f"{layer}.self_s"] = sum(out[f"{n}.self_s"] for n in mine)
        shares[layer] = sum(jobs.get(n, none)[2] for n in mine) / job_seconds
    flop = workloads.flop_per_window(workloads.REG_CFG)
    fwd_self = jobs.get("regressor.forward", none)[2] / n_jobs
    out["regressor.flop_per_window"] = flop
    out["regressor.forward.gflops_computed"] = (
        wl.forward_windows(run.state) * flop / fwd_self / 1e9 if fwd_self > 0 else 0.0)
    traced_run_s = low_quartile(j.seconds for j in traced)
    out["trace.run_s"] = traced_run_s
    out["trace.overhead_s"] = traced_run_s - low_quartile(j.seconds for j in untraced)
    return out, shares


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "suda" / "__init__.py").is_file():
        print(f"error: the suda package is not under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(src))

    import numpy as np

    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)
    env = environment(np)
    print("env " + json.dumps(env, sort_keys=True))
    work_root = ROOT / ".perfbench"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = measure(wl, args.seed, args.seconds, traced, str(workdir), spans, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()   # unless another run still uses it
        except OSError:
            pass

    ok_jobs = [j for j in run.jobs if j.outcome is not None]
    if not any(not j.traced for j in ok_jobs) or (traced and not any(j.traced for j in ok_jobs)):
        print("error: no job completed", file=sys.stderr)
        return 1
    print(f"jobs {len(run.jobs)} (traced {sum(j.traced for j in run.jobs)}), "
          f"checks attempted {run.attempted}, failed {run.failed}, "
          f"error_rate {run.failed / run.attempted:g}")
    if traced:
        values, shares = per_layer(wl, run, spans, workloads)
        wanted = spec["per_layer"]
        print("self time share of traced jobs: "
              + ", ".join(f"{layer} {share:.1%}" for layer, share in shares.items()))
    else:
        values = end_to_end(wl, run, np)
        wanted = spec["end_to_end"]
        print(f"latency samples {values['latency_samples']}")
        print("job cpu seconds " + " ".join(f"{j.seconds:.4f}" for j in run.jobs))
        print("job wall seconds " + " ".join(f"{j.wall:.4f}" for j in run.jobs))
        print(f"alias {ALIASES[args.workload]} = {values['throughput_per_s']!r} 1/s")
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]!r} {m['unit']}")
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
