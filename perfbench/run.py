#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root. The first call configures and builds an
optimised copy of the simulator libraries plus the perfbench program under
.bench_build/perfbench; later calls only rebuild what changed. Files the
workloads write go to .bench_build/work, and a traced run's spans to
.bench_build/spans/<workload>.seed<N>.tsv.

The program prints one JSON line of metric values; this script attaches each
metric's unit from BENCHMARK.json, checks that the metrics are exactly the
ones BENCHMARK.json lists for the mode, and prints the result as the last
line of stdout. Any build, run or completeness failure exits nonzero
without a result line.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# The compiler's and the program's scratch files stay inside the checkout.
TMP = os.path.abspath(os.path.join(".bench_build", "tmp"))
ENV = dict(os.environ, TMPDIR=TMP)


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr,
                          env=ENV).returncode != 0:
            fail("configure failed")
    step = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, env=ENV).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("run from the repository root (BENCHMARK.json not found)")
    with open(spec_path) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if not args.self_check and args.workload not in workloads:
        fail("unknown workload %r (one of %s)" % (args.workload, workloads))

    os.makedirs(TMP, exist_ok=True)
    build()
    work = os.path.join(".bench_build", "work")
    os.makedirs(work, exist_ok=True)
    if args.self_check:
        sys.exit(subprocess.run([BINARY, "--self-check", "--work-dir", work],
                                env=ENV).returncode)

    spans_dir = os.path.join(".bench_build", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work, "--spans-out",
               os.path.join(spans_dir, "%s.seed%d.tsv" %
                            (args.workload, args.seed))]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=ENV)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail("perfbench exited with status %d" % proc.returncode)
    raw = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in wanted]
    missing = [n for n in names if n not in raw["metrics"]]
    extra = [n for n in raw["metrics"] if n not in names]
    if missing or extra:
        fail("metrics out of step with BENCHMARK.json: missing %s, extra %s"
             % (missing, extra))
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": raw["metrics"][m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
