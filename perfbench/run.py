#!/usr/bin/env python3
r"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload train_replay --seed 1 \
        --seconds 45 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The library and the benchmark binary are
built from source into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) on first use. The binary's report goes to stdout;
its last line is the JSON result. run.py checks that the result names
exactly the metrics listed in BENCHMARK.json for the mode (end_to_end
untraced, per_layer traced), that sim_digest and sim_algbw_gbps match
perfbench/expected.json, and exits non-zero when the build, the run or any
check fails.

Around every run it times a fixed host-speed probe (perfbench --calibrate)
and reports whether the host ran at the speed of the other runs made in
the same build directory; a run whose probe moved by more than the largest
end-to-end bound is marked as not comparable.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 150
CALIBRATE_TIMEOUT_S = 10
CALIBRATION_METRIC = "host.calibration_ms"
# sim_algbw_gbps is deterministic; this only absorbs the last bits of a
# differently ordered floating-point sum.
ALGBW_REL_TOL = 1e-9


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(target):
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        rc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                            stderr=sys.stderr).returncode
        if rc != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out, target)


def load_json(name):
    with open(os.path.join(ROOT, name)) as f:
        return json.load(f)


def expected_metrics(trace):
    spec = load_json("BENCHMARK.json")
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return "metric set differs from BENCHMARK.json: missing %s, " \
               "extra %s, or units differ" % (missing, extra)
    if not result["correct"]:
        return "output checks failed"
    if result["attempted"] < 1:
        return "nothing attempted"
    return None


def check_simulation(report_lines, result, workload, seed, trace):
    """Simulated results are deterministic: the digest must match the one
    recorded for this seed (when one is), and sim_algbw_gbps, which the
    seed does not change, must match the recorded value."""
    want = load_json("perfbench/expected.json")[workload]
    digests = [m.group(1) for m in
               (re.fullmatch(r"sim_digest ([0-9a-f]{16})", line)
                for line in report_lines) if m]
    if len(digests) != 1:
        return "report has no sim_digest line"
    recorded = want["sim_digest"].get(str(seed))
    if recorded is not None and digests[0] != recorded:
        return "sim_digest %s differs from %s recorded for seed %d" % (
            digests[0], recorded, seed)
    if not trace:
        got = result["metrics"]["sim_algbw_gbps"]["value"]
        ref = want["sim_algbw_gbps"]
        if abs(got - ref) > ALGBW_REL_TOL * ref:
            return "sim_algbw_gbps %r differs from the recorded %r" % (
                got, ref)
    return None


def calibrate(binary):
    out = subprocess.run([binary, "--calibrate"], cwd=ROOT,
                         stdout=subprocess.PIPE, text=True, check=True,
                         timeout=CALIBRATE_TIMEOUT_S).stdout.split()
    if len(out) != 4 or out[0] != "calibration":
        sys.exit("perfbench: bad calibration output %r" % out)
    return float(out[1])


def host_report(before_ms, after_ms, workload, seed):
    """Logs this run's probe times in the build directory and returns report
    lines saying whether the host ran at the speed of the logged runs."""
    bound = max(m["bound"] for m in load_json("BENCHMARK.json")["end_to_end"])
    run_ms = (before_ms + after_ms) / 2
    log = os.path.join(build_dir(), "calibration.jsonl")
    with open(log, "a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed,
                            "before_ms": before_ms, "after_ms": after_ms})
                + "\n")
    with open(log) as f:
        history = [json.loads(line) for line in f if line.strip()]
    median = statistics.median(
        (h["before_ms"] + h["after_ms"]) / 2 for h in history)
    problems = []
    if abs(after_ms - before_ms) > bound * before_ms:
        problems.append("the probe moved %+.0f%% during the run" %
                        (100 * (after_ms / before_ms - 1)))
    if abs(run_ms - median) > bound * median:
        problems.append("the probe is %+.0f%% off the median of the %d "
                        "runs logged in %s" %
                        (100 * (run_ms / median - 1), len(history), log))
    lines = ["host calibration_ms %.3f before, %.3f after; median of %d "
             "logged runs %.3f" % (before_ms, after_ms, len(history), median)]
    if problems:
        lines.append("host comparable: NO (%s): this run's host timings "
                     "are not comparable with the logged runs'" %
                     "; ".join(problems))
    else:
        lines.append("host comparable: yes (probe within %.0f%%)" %
                     (100 * bound))
    return run_ms, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=["train_replay", "serve_mixed"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()

    if args.selftest:
        binary = build("perfbench_test")
        sys.exit(subprocess.run([binary], cwd=ROOT).returncode)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", traces]
    before_ms = calibrate(binary)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    after_ms = calibrate(binary)
    run_ms, host_lines = host_report(before_ms, after_ms, args.workload,
                                     args.seed)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if result is None:
        problem = "last line is not JSON"
    else:
        if args.trace:
            result["metrics"][CALIBRATION_METRIC] = {"value": run_ms,
                                                     "unit": "ms"}
        problem = (check_result(result, args.trace) or
                   check_simulation(lines[:-1], result, args.workload,
                                    args.seed, args.trace))
    if proc.returncode != 0 and problem is None:
        problem = "perfbench exited with %d" % proc.returncode
    if problem is not None:
        # Keep the report for diagnosis, but print no result line.
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: " + problem)
    print("\n".join(lines[:-1] + host_lines))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
