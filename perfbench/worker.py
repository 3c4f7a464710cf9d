"""One benchmark run of one workload, in a fresh process started by run.py.

Usage: worker.py WORKLOAD SEED SECONDS TRACE IMPORT_S OUT_DIR

Prints one JSON object on its last stdout line.  The load is a closed loop
with one client: jobs run back to back in this process, at the program's
default thread count.  The number of passes follows from SECONDS and the
workload's nominal pass time, never from the program's speed, so every
commit does the same work.  IMPORT_S is the import time run.py measured
(the median of a few scaled interpreter starts).  Every time in the
end-to-end metrics is scaled to the reference machine speed by the probe in
speed.py, run between jobs.  With TRACE=0 the inputs are set up SETUPS times
(the median counts), then all passes run untraced.  With TRACE=1, half the
passes run untraced, the spans are installed, the inputs are set up once more
under tracing and the other half of the passes run traced; the spans are
written to OUT_DIR.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
MIN_TAIL_JOBS = 20  # job_tail_ms needs at least 10 jobs beyond it and 10 below


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    import_s, out_dir = float(argv[4]), Path(argv[5])

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(ROOT / "perfbench"))
    import numpy as np
    import altrank
    from altrank import _engine
    import workloads
    import spans as tracing
    from speed import SpeedProbe

    if not Path(altrank.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"altrank was imported from {altrank.__file__}, not from {ROOT / 'src'}")
    probe = SpeedProbe()
    probe.sample()  # so that the first set-up's window reaches back one probe too

    setup = workloads.SETUP[workload]
    build_s = []
    for _ in range(1 if trace else SETUPS):
        before = probe.sample()
        t0 = time.perf_counter()
        jobs = setup(seed)
        raw = time.perf_counter() - t0
        build_s.append(probe.scale(raw, before, probe.sample()))

    passes = max(2, round(seconds / workloads.NOMINAL_PASS_S[workload]),
                 math.ceil(MIN_TAIL_JOBS / len(jobs)))
    untraced = passes - passes // 2 if trace else passes
    results = [run_pass(jobs, None, probe) for _ in range(untraced)]
    traced = []
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        jobs = setup(seed)  # set-up under tracing, kept apart from the jobs
        traced = [run_pass(jobs, tracer, probe) for _ in range(passes // 2)]

    failures = check_passes(workload, seed, results + traced)
    wall_s = typical_pass(results)
    report = {
        "workload": workload,
        "seed": seed,
        "passes": len(results) + len(traced),
        "jobs_per_pass": len(jobs),
        "attempted": len(jobs) * (len(results) + len(traced)),
        "failed": len(failures),
        "failures": failures[:20],
        "digest": results[0]["digest"],
        "job_hashes": results[0]["hashes"],
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "threads": _engine.resolve_threads(None),
        "raw_wall_s": statistics.median(r["raw_wall_s"] for r in results),
        "speed_factor": statistics.median(probe.factors),
    }
    if trace:
        traced_wall = typical_pass(traced)
        report["metrics"] = tracing.layer_metrics(
            tracer, len(traced), report["threads"], traced_wall / wall_s
        )
        report["top_self_s"] = tracing.top_self_times(tracer.spans, len(traced))
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{workload}-{seed}.json"
        tracer.dump(trace_file)
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        # Each job's time is its median over the passes, so that one slow
        # execution does not become the tail; every execution still counts.
        job_times = [statistics.median(ts) for ts in zip(*(r["times"] for r in results))]
        all_times = sorted(t for t in job_times for _ in results)
        n = len(all_times)
        report["tail_percentile"] = round(100 * (n - 10) / n, 2)
        report["tail_jobs"] = n
        report["metrics"] = {
            "wall_s": wall_s,
            "job_p50_ms": statistics.median(all_times) * 1e3,
            # the highest percentile with at least 10 jobs beyond it
            "job_tail_ms": all_times[n - 11] * 1e3,
            "members_per_s": results[0]["members"] / wall_s,
            "setup_s": import_s + statistics.median(build_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    print(json.dumps(report))
    return 0


def typical_pass(passes) -> float:
    """Pass time with each job at its median over the passes, so that a slow
    stretch of the machine in one pass does not move the whole figure."""
    return sum(statistics.median(ts) for ts in zip(*(r["times"] for r in passes)))


def run_pass(jobs, tracer, probe) -> dict:
    """Run every job once, back to back; time each and hash its report.  Job
    times are scaled by the speed probes taken around them; the pass time is
    the sum of its jobs' times."""
    raw, probed, hashes, errors = [], [], {}, {}
    members = 0
    for job in jobs:
        probed.append(probe.before_job())
        t0 = time.perf_counter()
        try:
            report, decided = tracer.run_job(job.label, job.run) if tracer else job.run()
        except Exception as exc:  # a raising job is a failed job; the run goes on
            raw.append(time.perf_counter() - t0)
            errors[job.label] = f"{type(exc).__name__}: {exc}"
            continue
        raw.append(time.perf_counter() - t0)
        members += decided
        canon = json.dumps(report, sort_keys=True, separators=(",", ":"))
        hashes[job.label] = hashlib.sha256(canon.encode()).hexdigest()[:16]
    probe.sample()
    # the first probe after a job is the one after the probe before it
    times = [probe.scale(t, i, i + 1) for t, i in zip(raw, probed)]
    digest = hashlib.sha256("".join(f"{k}\t{v}\n" for k, v in hashes.items()).encode()).hexdigest()
    return {"raw_wall_s": sum(raw), "times": times, "hashes": hashes,
            "errors": errors, "members": members, "digest": digest}


def check_passes(workload, seed, passes) -> list[str]:
    """Failed jobs: raised or wrong answers, reports that change from pass to
    pass, and reports that differ from the recorded digest for this seed."""
    failures = []
    first = passes[0]["hashes"]
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    want = recorded.get(str(seed), {}).get(workload)
    for i, res in enumerate(passes):
        for label, err in res["errors"].items():
            failures.append(f"pass {i} {label}: {err}")
        for label, h in res["hashes"].items():
            if first.get(label) != h:
                failures.append(f"pass {i} {label}: report differs from pass 0")
            elif want is not None and want["jobs"].get(label) != h:
                failures.append(f"pass {i} {label}: report differs from the recorded digest")
    return failures


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
