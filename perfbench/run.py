#!/usr/bin/env python3
"""Builds and runs the ArkFS end-to-end benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
      --trace <0|1>
  python3 perfbench/run.py --workload <name> --spread <N> [--seed <n>] \
      [--seconds <s>] [--trace <0|1>]

The first form builds perfbench/ (CMake, into $CARGO_TARGET_DIR or
.bench_build), runs one measurement and prints, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1). The lines before it are arkfs_perfbench's own output, including a
full result with the host block. It exits non-zero if any output check
failed, and without a result if the build or set-up fails.

The second form (spread mode) runs the workload N times with seeds
--seed .. --seed+N-1 and prints each metric's median, quartiles, quartile
spread and min/max, which is how the bounds in BENCHMARK.json are
justified.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("meta_private_sync", "meta_shared_group", "stream_rw")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(path)


def build():
    """Configures and builds arkfs_perfbench; returns its path or None. Both steps
    are incremental, so after the first run they cost about a second."""
    out = build_dir()
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "arkfs_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(out, "arkfs_perfbench")


def source_id():
    """The git commit when run from a git checkout, else a digest of the
    sources the benchmark builds, so results stay attributable."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None = all)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(binary, workload, seed, seconds, trace, sha):
    """Runs arkfs_perfbench once; returns (exit code, full result dict or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--git-sha", sha]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 1, None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is not None:
        print("\n".join(lines), flush=True)
    return proc.returncode, result


def contract_line(result, trace):
    """The result line BENCHMARK.json promises, or None if the run did not
    measure every metric it declares for this mode."""
    names = declared_metrics(trace)
    missing = sorted((names or set()) - set(result["metrics"]))
    if missing:
        log("declared metrics missing from the result: " + ", ".join(missing))
        return None
    metrics = {k: v for k, v in result["metrics"].items()
               if names is None or k in names}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"],
                       "metrics": metrics})


def spread(binary, args, sha):
    values = {}
    units = {}
    failures = 0
    seeds = range(args.seed, args.seed + args.spread)
    for seed in seeds:
        code, result = run_once(binary, args.workload, seed, args.seconds,
                                args.trace, sha)
        if result is None or code != 0:
            failures += 1
            continue
        names = declared_metrics(args.trace)
        for name, m in result["metrics"].items():
            if names is None or name in names:
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
    print(f"\nspread of {args.workload} over seeds {seeds[0]}..{seeds[-1]} "
          f"({args.seconds} s runs, trace {args.trace}, {failures} failed):")
    print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'min':>12s} {'max':>12s}")
    summary = {}
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        rel = (q3 - q1) / abs(med) if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_rel": rel,
                         "min": min(v), "max": max(v), "unit": units[name]}
        print(f"  {name:40s} {med:12.5g} {q1:12.5g} {q3:12.5g} {rel:8.3f} "
              f"{min(v):12.5g} {max(v):12.5g}  {units[name]}")
    print(json.dumps({"workload": args.workload, "runs": args.spread,
                      "failed_runs": failures, "spread": summary}))
    return 0 if failures == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spread", type=int, default=0,
                   help="run N times from --seed on and print the spread")
    args = p.parse_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    sha = source_id()
    if args.spread > 0:
        return spread(binary, args, sha)
    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace, sha)
    if result is None:
        log(f"no result (exit code {code})")
        return code or 1
    line = contract_line(result, args.trace)
    if line is None:
        # Ends stdout with a non-result line: the full result above is not
        # the contract's.
        print("no result: declared metrics missing", flush=True)
        return 1
    print(line, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
