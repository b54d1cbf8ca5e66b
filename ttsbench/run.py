#!/usr/bin/env python3
"""Builds and runs the pilut time-to-solution benchmark.

    python3 ttsbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The benchmark is a cargo package of its own
(ttsbench/Cargo.toml) that depends on the workspace crates by path; it is
built offline into $CARGO_TARGET_DIR, or target/ttsbench when that is unset.

--trace 0 runs the end-to-end build (no counting allocator) and prints the
end-to-end metrics of BENCHMARK.json. --trace 1 spends half of the time on
the end-to-end build and half on the traced build (`audit` feature, spans
around every call into a layer), and prints the per-layer metrics, among
them trace.overhead: the traced median time to solution over the untraced
one. The lines before the last are a readable report, including the host
and provenance; the last line is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["g40_many_rhs", "torso_fill", "torso_p2"]
# A run stops measuring after --seconds; this only guards against a hang.
RUN_TIMEOUT_S = 170
# The binary's default workload seed: gen::torso's numbering seed.
DEFAULT_SEED = 0x7072736F


def build(traced):
    """Builds one variant and returns the path of its executable."""
    target = os.environ.get("CARGO_TARGET_DIR") or str(ROOT / "target" / "ttsbench")
    profile = "traced" if traced else "release"
    cmd = ["cargo", "build", "--offline", "--quiet", "--profile", profile,
           "--manifest-path", str(HERE / "Cargo.toml")]
    if traced:
        cmd += ["--features", "audit"]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        sys.exit("ttsbench: build failed")
    return pathlib.Path(target) / profile / "pilut-ttsbench"


def cpu_ticks():
    """The machine-wide CPU tick counters of /proc/stat (user ... steal)."""
    first = read("/proc/stat", "cpu").splitlines()[0].split()[1:9]
    return [int(t) for t in first]


def measure(exe, workload, seed, seconds, trace):
    """Runs the benchmark binary; returns (report lines, result object)."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0"]
    before = cpu_ticks()
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    delta = [b - a for a, b in zip(before, cpu_ticks())]
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"ttsbench: {workload} exited with {r.returncode}")
    report, result = lines[:-1], json.loads(lines[-1])
    # Time the hypervisor gave to other guests during the run: host
    # interference shows here rather than only in the timings.
    if len(delta) == 8 and sum(delta) > 0:
        report.append(f"# host.steal_share = {delta[7] / sum(delta)} ratio")
    return report, result


def first_line(cmd):
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=30)
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 else "unknown"
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return "unknown"


def read(path, default="unknown"):
    try:
        return pathlib.Path(path).read_text().strip()
    except OSError:
        return default


def host(seed):
    """Host and provenance fields written beside every result."""
    cpuinfo = read("/proc/cpuinfo", "")
    model = next((l.split(":", 1)[1].strip() for l in cpuinfo.splitlines()
                  if l.startswith("model name")), "unknown")
    commit = (first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
              if (ROOT / ".git").exists() else "unknown (not a git checkout)")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "llc": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "rustc": first_line(["rustc", "-V"]),
        "commit": commit,
        "seed": seed,
    }


def select(result, specs, source):
    """The metrics named in `specs`, checked against their declared units."""
    out = {}
    for spec in specs:
        m = result["metrics"].get(spec["name"])
        if m is None or m["unit"] != spec["unit"]:
            sys.exit(f"ttsbench: {source} did not report {spec['name']} in {spec['unit']}")
        out[spec["name"]] = m
    return out


def run_one(workload, seed, seconds, trace, spec):
    plain = build(traced=False)
    if not trace:
        lines, r = measure(plain, workload, seed, seconds, False)
        metrics = select(r, spec["end_to_end"], "the end-to-end run")
        results = [r]
    else:
        traced = build(traced=True)
        _, base = measure(plain, workload, seed, seconds / 2, False)
        lines, r = measure(traced, workload, seed, seconds / 2, True)
        overhead = r["metrics"]["tts_p50_s"]["value"] / base["metrics"]["tts_p50_s"]["value"]
        r["metrics"]["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        lines.append(f"# trace.overhead = {overhead} ratio")
        metrics = select(r, spec["per_layer"], "the traced run")
        results = [base, r]
    attempted = sum(x["attempted"] for x in results)
    failed = sum(x["failed"] for x in results)
    return lines, {
        "correct": all(x["correct"] for x in results) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="workload seed (default: gen::torso's seed)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        ap.error("--seconds must be positive and finite")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    info = host(args.seed)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {}
    for w in names:
        lines, result = run_one(w, args.seed, args.seconds, bool(args.trace), spec)
        print(f"# workload {w}")
        print("\n".join(lines))
        print("# host " + json.dumps(info))
        combined[w] = result
    print(json.dumps(combined[names[0]] if len(names) == 1 else combined))


if __name__ == "__main__":
    main()
