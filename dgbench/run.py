"""dgcat benchmark: run one workload, or all of them, and print the metrics.

    python3 dgbench/run.py --workload quiver --seed 1 --seconds 30 --trace 0
    python3 dgbench/run.py --workload all --seed 1                # every workload, both runs
    python3 dgbench/run.py --workload cli --seed 1 --tiny          # one small pass, for tests

A run is a closed loop: one process, one job at a time.  It repeats passes of
the workload's seeded job list until --seconds have passed and at least
MIN_SAMPLES jobs have run, always finishing the pass it is in.  Every job's
answer is checked against an oracle in workloads.py.

--trace 0 measures the end-to-end metrics; --trace 1 is a separate run with
the outside-in tracer installed and prints the per-layer metrics, averaged
per pass.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the metric names and units are the
ones listed in BENCHMARK.json at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("quiver", "hull", "cli")
MIN_SAMPLES = 100  # job_s.p90 then has at least ten samples beyond it
SETUP_REPS = 9
IMPORT_PROBE = "import sys, time; t = time.perf_counter(); import dgcat, dgcat.cli; print(time.perf_counter() - t)"


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _commit():
    """HEAD of the checkout read from .git without running git; the
    benchmark may run from a copy that is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _import_times(clock):
    """Import time of dgcat in SETUP_REPS fresh interpreters, as
    (raw, scaled) lists."""
    env = dict(os.environ, PYTHONPATH=SRC)
    raw, scaled = [], []
    for rep in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120)
        raw.append(float(out.stdout.strip()))
        scaled += [s for _, s in clock.add(rep, raw[-1]) + clock.flush()]
    return raw, scaled


def _p90(samples):
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def run_workload(name, seed, seconds, trace, tiny=False):
    """Run one workload in this process and return its result record."""
    import speed
    import workloads
    from tracer import Tracer

    setup, make_pass = workloads.WORKLOADS[name]
    scratch = os.path.join(ROOT, ".dgbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=scratch)
    try:
        clock = speed.Clock()
        import_raw, import_scaled = _import_times(clock)
        setup_raw, setup_scaled = [], []
        for rep in range(SETUP_REPS):
            workdir = os.path.join(tmp, f"setup{rep}")
            os.makedirs(workdir)
            t0 = time.perf_counter()
            ctx = setup(workdir, tiny)
            setup_raw.append(time.perf_counter() - t0)
            setup_scaled += [s for _, s in clock.add(rep, setup_raw[-1]) + clock.flush()]
        tracer = Tracer() if trace else None
        samples, passes, raw_samples, failures = [], [], [], {}
        failed = wrong = 0
        started = time.perf_counter()
        if tracer:
            tracer.install()
        try:
            while True:
                rng = random.Random(f"{name}:{seed}:{len(passes)}")
                jobs = make_pass(ctx, rng)
                order = list(range(len(jobs)))
                rng.shuffle(order)
                times = [0.0] * len(jobs)
                for slot in order:
                    job = jobs[slot]
                    t0 = time.perf_counter()
                    try:
                        result, error = job.run(), None
                    except Exception as e:  # an escaped exception is a failed job
                        result, error = None, e
                    raw = time.perf_counter() - t0
                    raw_samples.append(raw)
                    for done, scaled in clock.add(slot, raw):
                        times[done] = scaled
                    if tracer:
                        tracer.end_job()
                    try:
                        ok = error is None and bool(job.check(result))
                    except Exception:
                        ok = False
                    if not ok:
                        failed += 1
                        wrong += not job.hostile
                        failures[job.kind] = failures.get(job.kind, 0) + 1
                for done, scaled in clock.flush():
                    times[done] = scaled
                passes.append(times)
                samples += times
                if tiny or (time.perf_counter() - started >= seconds and len(samples) >= MIN_SAMPLES):
                    break
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    # wall_s: the job list's time with each slot at its median over passes,
    # so a burst of machine noise in one pass does not move it.
    wall_s = sum(statistics.median(p[slot] for p in passes) for slot in range(len(passes[0])))
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "passes": len(passes),
        "jobs_per_pass": len(samples) // len(passes),
        "attempted": len(samples),
        "failed": failed,
        "failed_wellformed": wrong,
        "failures": failures,
        "failed_frac": failed / len(samples),
        "metrics": {
            "setup_s": statistics.median(import_scaled) + statistics.median(setup_scaled),
            "wall_s": wall_s,
            "job_s.p50": statistics.median(samples),
            "job_s.p90": _p90(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "raw": {
            "setup_s": statistics.median(import_raw) + statistics.median(setup_raw),
            "job_s.p50": statistics.median(raw_samples),
            "job_s.p90": _p90(raw_samples),
            "speed_factor": statistics.median(clock.factors),
        },
    }
    if tracer:
        totals = tracer.layer_metrics()
        layers = {k: v / len(passes) for k, v in totals.items()}
        layers["pretr.homspace.distinct_ratio"] = totals["pretr.homspace.distinct_ratio"]
        layers["trace.wall_s"] = wall_s
        layers["trace.spans"] = len(tracer.spans) / len(passes)
        record["layers"] = layers
    return record


def _print_record(rec, spec):
    print(f"dgbench workload={rec['workload']} seed={rec['seed']} trace={rec['trace']} python={rec['python']} "
          f"nproc={rec['nproc']} commit={rec['commit']}")
    print(f"  closed loop, 1 client; {rec['passes']} passes x {rec['jobs_per_pass']} jobs = {rec['attempted']} jobs")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    raw = rec["raw"]
    notes = {
        "setup_s": f"import (median of {SETUP_REPS} fresh interpreters) + set-up (median of {SETUP_REPS}); "
                   f"raw {raw['setup_s']:.6f} s",
        "wall_s": f"{rec['jobs_per_pass']} job slots, each at its median over {rec['passes']} passes",
        "job_s.p50": f"n={rec['attempted']} jobs; raw {raw['job_s.p50']:.6f} s",
        "job_s.p90": f"n={rec['attempted']} jobs; raw {raw['job_s.p90']:.6f} s",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    print(f"  times in s at reference speed (speed.py): raw time x {raw['speed_factor']:.4f}, the median host-speed factor")
    if not rec["trace"]:
        for k, v in rec["metrics"].items():
            print(f"  {k:<34} {v:>14.6f} {units.get(k, ''):<6} {notes.get(k, '')}")
    print(f"  {'failed_frac':<34} {rec['failed_frac']:>14.6f} {'ratio':<6} {rec['failed']} of {rec['attempted']} jobs "
          f"({rec['failed'] - rec['failed_wellformed']} hostile, {rec['failed_wellformed']} well-formed)")
    for kind, n in sorted(rec["failures"].items()):
        print(f"    failed: {kind} x{n}")
    if rec["trace"]:
        print("  per-layer metrics, per pass (traced run):")
        for k, v in sorted(rec["layers"].items()):
            unit = units.get(k) or ("s" if k.endswith("_s") else "count")
            print(f"  {k:<34} {v:>14.6f} {unit}")


def _result_line(rec, spec):
    key = "per_layer" if rec["trace"] else "end_to_end"
    values = rec["layers"] if rec["trace"] else rec["metrics"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[key]}
    return json.dumps({
        "correct": rec["failed_wellformed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    })


def run_all(args, spec):
    """Each workload untraced, then traced, each in its own process."""
    rows = []
    for name in NAMES:
        recs = []
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace), "--record"]
            if args.tiny:
                cmd.append("--tiny")
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(out.stdout)
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                print(f"dgbench: workload {name} trace={trace} exited {out.returncode}", file=sys.stderr)
                return 1
            recs.append(json.loads(next(l for l in out.stdout.splitlines() if l.startswith('{"record"')))["record"])
        rows.append(recs)
    print()
    print(f"summary  seed={args.seed} python={rows[0][0]['python']} nproc={rows[0][0]['nproc']} commit={rows[0][0]['commit']}")
    print(f"{'workload':<8} {'setup_s':>9} {'wall_s':>9} {'job_s.p50':>10} {'job_s.p90':>10} {'n':>5} {'peak_rss_mb':>12} "
          f"{'failed_frac':>12} {'trace_overhead_s':>17}")
    for plain, traced in rows:
        m = plain["metrics"]
        overhead = traced["metrics"]["wall_s"] - m["wall_s"]
        print(f"{plain['workload']:<8} {m['setup_s']:>9.4f} {m['wall_s']:>9.4f} {m['job_s.p50']:>10.5f} {m['job_s.p90']:>10.5f} "
              f"{plain['attempted']:>5} {m['peak_rss_mb']:>12.1f} {plain['failed_frac']:>12.5f} "
              f"{overhead:>9.4f} ({overhead / m['wall_s']:+.0%})")
    print("units: setup_s, wall_s, job_s.* in s; peak_rss_mb in MB; failed_frac = failed / attempted; "
          "n = jobs timed; trace overhead = traced wall_s - untraced wall_s")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="one small pass per workload")
    p.add_argument("--record", action="store_true", help="also print the full run record as JSON")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dgcat", "__init__.py")):
        print(f"dgbench: dgcat sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = _spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args, spec)
    rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    _print_record(rec, spec)
    if args.record:
        print(json.dumps({"record": rec}))
    print(_result_line(rec, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
