#!/usr/bin/env python3
"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload explore|batch|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds the CLI and the
benchmark's in-process half (perfbench/bench.ml) with dune, runs the
workload, checks every verdict, prints provenance and every metric by
name and unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones, from a separate traced run.  Any verdict or count
mismatch makes the exit code 1.  README.md in this directory describes
the workloads and the metrics.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time

CLI = os.path.join("_build", "default", "bin", "aadl_sched.exe")
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
WORK = ".perfbench"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def sources_present():
    needed = ["dune-project", "lib", "bin", os.path.join("examples", "models"),
              "BENCHMARK.json", os.path.join("perfbench", "bench.ml")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        fail("not a source checkout (missing %s)" % ", ".join(missing))


def build():
    # the shared dune cache lives outside the checkout: keep it out
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "./bin/aadl_sched.exe",
                        "./perfbench/bench.exe"],
                       stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        fail("build failed")


def provenance():
    try:
        describe = subprocess.run(["git", "describe", "--always", "--dirty"],
                                  capture_output=True, text=True,
                                  check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        # not a git checkout: identify the code by its sources instead
        h = hashlib.sha1()
        for top in ("lib", "bin"):
            for d, _, files in sorted(os.walk(top)):
                for f in sorted(files):
                    if f.endswith((".ml", ".mli", "dune")):
                        with open(os.path.join(d, f), "rb") as fh:
                            h.update(fh.read())
        describe = "unversioned+src." + h.hexdigest()[:12]
    ocaml = subprocess.run(["ocamlopt", "-version"], capture_output=True,
                           text=True).stdout.strip()
    return {"host_cores": os.cpu_count(), "git_describe": describe,
            "ocaml": ocaml}


def run_timed(argv, out_path):
    """Run argv to completion with stdout to out_path: (wall s, exit code,
    peak RSS MB)."""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, p.returncode, usage.ru_maxrss / 1024.0


def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def check_explore(want, code, text):
    """True when the CLI's output matches the model's pinned results."""
    space = re.search(r"state space: (\d+) states, (\d+) transitions", text)
    dead = re.search(r"versa_explore_deadlocks_total (\d+)", text)
    miss = re.search(r"NOT schedulable: timing violation at t=(\d+)", text)
    sched = "schedulable: all deadlines are met" in text
    ok = (space is not None and dead is not None
          and int(space.group(1)) == want["states"]
          and int(space.group(2)) == want["transitions"]
          and int(dead.group(1)) == want["deadlocks"])
    if want["violation"] is None:
        return ok and sched and miss is None and code == 0
    return (ok and miss is not None and int(miss.group(1)) == want["violation"]
            and code == 1)


def explore(seed, seconds, work):
    """Closed loop, one analysis at a time, each a fresh CLI process."""
    subprocess.run([BENCH, "gen-explore", work], check=True)
    with open(os.path.join(work, "pins.json")) as fh:
        pins = json.load(fh)
    out = os.path.join(work, "cli.out")
    rss, failed, attempted = 0.0, 0, 0

    def analyze(name):
        nonlocal rss, failed, attempted
        argv = [CLI, "analyze", os.path.join(work, name + ".aadl"),
                "--jobs", "1", "--stats"]
        if pins[name]["all"]:
            argv.append("--all")
        wall, code, peak = run_timed(argv, out)
        with open(out, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        attempted += 1
        if not check_explore(pins[name], code, text):
            failed += 1
            print("perfbench: explore %s: wrong verdict or counts" % name,
                  file=sys.stderr)
        rss = max(rss, peak)
        return wall

    # one untimed analysis of the shortest model first: the binary and
    # the host warm up before anything counts
    analyze(min(pins, key=lambda n: pins[n]["states"]))
    # setup_s is a process start, a few milliseconds: three samples before
    # each analysis spread them over the run, so that one burst of load on
    # the host does not move them all
    setups = []
    rng = random.Random(seed)
    walls = {name: [] for name in pins}
    # whole cycles of one analysis per model, in a seeded order, so every
    # run samples the models alike and the longest model gets as many
    # samples as the others; a cycle starts only if it should end within
    # the run
    start = time.perf_counter()
    cycles, last = 0, 0.0
    while cycles == 0 or time.perf_counter() - start + last <= seconds:
        cycles += 1
        cycle_start = time.perf_counter()
        order = sorted(pins)
        rng.shuffle(order)
        for name in order:
            setups += [run_timed([CLI, "--version"], out)[0] for _ in range(3)]
            walls[name].append(analyze(name))
        last = time.perf_counter() - cycle_start
    # each model at its median time: one slow analysis moves nothing, and
    # the percentiles do not jump between models as sample counts change
    typical = {n: statistics.median(ws) for n, ws in walls.items()}
    once = sum(typical.values())
    rate = len(pins) / once
    ms = [1000 * t for t in typical.values()]
    metrics = {
        "setup_s": statistics.median(setups),
        "verdict_s_geomean": math.exp(statistics.mean(
            math.log(t) for t in typical.values())),
        "states_per_s": sum(p["states"] for p in pins.values()) / once,
        "requests_per_s": rate,
        "latency_p50_ms.low": quantile(ms, 0.5),
        "latency_p50_ms.mid": quantile(ms, 0.5),
        "latency_p95_ms.low": quantile(ms, 0.95),
        "latency_p95_ms.mid": quantile(ms, 0.95),
        "max_rate_rps": rate,
        "peak_rss_mb": rss,
    }
    info = {"models": len(pins), "analyses": attempted, "cycles": cycles,
            "setup_samples": len(setups),
            "states": {n: pins[n]["states"] for n in pins},
            "median_s": typical}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "info": info}


def run_bench(argv):
    """Run a bench.exe subcommand; its last stdout line is the result."""
    r = subprocess.run([BENCH] + argv, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        print("perfbench: %s exited with %d" % (argv[0], r.returncode),
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["explore", "batch", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    sources_present()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    build()
    prov = provenance()

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.workload == "explore" and not args.trace:
            result = explore(args.seed, args.seconds, work)
        elif args.workload == "explore":
            result = run_bench(["explore", work])
        else:
            result = run_bench([args.workload, work, str(args.seed),
                                str(args.seconds), str(args.trace)])
        spans = os.path.join(work, "spans.jsonl")
        if os.path.exists(spans):
            kept = os.path.join(WORK, args.workload + ".spans.jsonl")
            os.replace(spans, kept)
            print("# spans written to " + kept)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if result is None:
        result = {"attempted": 1, "failed": 1, "metrics": {}, "info": {}}
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    correct = result["failed"] == 0 and not missing
    if missing:
        print("perfbench: metrics missing: " + ", ".join(missing),
              file=sys.stderr)

    print("# provenance " + json.dumps(prov))
    print("# workload %s seed %d seconds %g trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# sizes " + json.dumps(result.get("info", {})))
    for m in wanted:
        if m["name"] in result["metrics"]:
            print("%-34s %16.6g %s" % (m["name"], result["metrics"][m["name"]],
                                       m["unit"]))
    unattributed = result["metrics"].get("bench.unattributed_frac", 0)
    if args.trace and unattributed > 0.05:
        print("# FLAG bench.unattributed_frac above 5%: the layers do not add "
              "up to the traced wall time")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]],
                                "unit": m["unit"]}
                    for m in wanted if m["name"] in result["metrics"]},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
