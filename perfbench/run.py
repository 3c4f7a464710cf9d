"""Layered benchmark for altrank.

    python3 perfbench/run.py --workload grid --seed 20260814 --seconds 20 --trace 0
    python3 perfbench/run.py [--seed N] [--seconds S] [--out FILE]
    python3 perfbench/run.py --record-digests

With --workload, one run of one workload: the last stdout line is the JSON
result ({"correct", "attempted", "failed", "metrics"}); --trace 0 gives the
end-to-end metrics and --trace 1 the per-layer ones.  Without --workload,
every workload runs untraced and then traced, one at a time, and a table of
all metrics is printed (and written to --out as JSON); the exit code is
nonzero if any job failed.  --record-digests rewrites perfbench/digests.json
with the report digests of the default and held-out seeds.

Each run is a fresh child Python process (worker.py) with ALTRANK_THREADS
removed from its environment, so set-up time and peak memory are per run and
the program's default thread count is what gets measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("grid", "reduce", "scan", "rational")
SUITE = WORKLOADS + ("probe",)  # probe fails until the engine covers p < 2^31
CHILD_TIMEOUT_S = 170
IMPORTS = 5  # interpreter starts timed per run; the median is the import part of setup_s
MASTER_SEED = 20260814  # the acceptance suite's seed, the default
HELD_OUT_SEED = 20261017  # not used while tuning; a gain claim must also hold here


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ALTRANK_THREADS"}
    env["PYTHONHASHSEED"] = "0"
    return env


def import_seconds() -> float:
    """Median time from starting a fresh interpreter to altrank imported, each
    start scaled by the speed probe around it (see speed.py)."""
    from speed import SpeedProbe

    code = f"import sys, time; sys.path.insert(0, {str(ROOT / 'src')!r}); import altrank; print(time.time())"
    probe = SpeedProbe()
    times = []
    for _ in range(IMPORTS):
        before = probe.sample()
        t0 = time.time()
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"importing altrank failed with code {proc.returncode}")
        times.append((float(proc.stdout.split()[-1]) - t0, before, probe.sample()))
    return statistics.median(probe.scale(*t) for t in times)


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), repr(seconds),
           str(trace), repr(import_seconds()), str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: worker killed after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fingerprint(child: dict) -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": child["python"],
        "numpy": child["numpy"],
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
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


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    result = run_child(workload, seed, seconds, trace)
    result["fingerprint"] = fingerprint(result)
    result["fail_ratio"] = result["failed"] / result["attempted"]
    return result


def metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def describe(result: dict, units: dict) -> list[str]:
    fp = result["fingerprint"]
    lines = [
        f"# {result['workload']} seed={result['seed']} passes={result['passes']} "
        f"jobs/pass={result['jobs_per_pass']} threads={result['threads']} "
        f"nproc={fp['nproc']} cpu={fp['cpu']!r} python={fp['python']} numpy={fp['numpy']} "
        f"commit={fp['commit']}",
        f"#   fail_ratio={result['fail_ratio']:.4f} ({result['failed']}/{result['attempted']}) "
        f"digest={result['digest'][:16]} raw_wall_s={result['raw_wall_s']:.4g} "
        f"speed_factor={result['speed_factor']:.3f}",
    ]
    for name, unit in units.items():
        value = result["metrics"][name]
        note = ""
        if name == "job_tail_ms":
            note = f"  (p{result['tail_percentile']} of {result['tail_jobs']} jobs)"
        lines.append(f"{name:<58} {value:>14.6g} {unit}{note}")
    if "top_self_s" in result:
        top = ", ".join(f"{name} {s:.3g} s" for name, s in result["top_self_s"])
        lines.append(f"# largest self times per pass: {top}")
    for failure in result["failures"]:
        lines.append(f"# FAILED {failure}")
    return lines


def main() -> int:
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=SUITE)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src" / "altrank" / "__init__.py").is_file():
        print(f"no altrank sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    seed = MASTER_SEED if args.seed is None else args.seed
    units = metric_specs()

    if args.record_digests:
        digests = {}
        for s in (MASTER_SEED, HELD_OUT_SEED):
            for w in WORKLOADS:
                res = run_child(w, s, 0, 0)
                digests.setdefault(str(s), {})[w] = {"digest": res["digest"], "jobs": res["job_hashes"]}
        (BENCH / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        return 0

    if args.workload:
        result = measure(args.workload, seed, args.seconds, args.trace)
        print("\n".join(describe(result, units[args.trace])))
        metrics = {name: {"value": result["metrics"][name], "unit": unit}
                   for name, unit in units[args.trace].items()}
        print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}))
        return 0 if result["failed"] == 0 else 1

    suite = {}
    for trace in (0, 1):
        for w in SUITE:
            result = measure(w, seed, args.seconds, trace)
            print("\n".join(describe(result, units[trace])), flush=True)
            result.pop("job_hashes")
            suite.setdefault(w, {})["traced" if trace else "untraced"] = result
    if args.out:
        args.out.write_text(json.dumps(suite, indent=1, sort_keys=True) + "\n")
    failed = {w: r["untraced"]["failed"] + r["traced"]["failed"] for w, r in suite.items()}
    print("# failed jobs per workload: " + ", ".join(f"{w}={n}" for w, n in failed.items()))
    return 0 if not any(failed.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
