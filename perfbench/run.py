#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload offline-smd --seed 1 --seconds 20 --trace 0

Builds the `perfbench` program from source with cargo (into
$CARGO_TARGET_DIR, default `.bench_build`), trains the serving checkpoint
for the seed when a serve workload needs one, then runs the workload with
its fixed TRANAD_THREADS. Everything the program prints is passed through;
the last line is the JSON result. Exits non-zero, without a result, when
the build or the run fails or the result does not name exactly the metrics
BENCHMARK.json lists.
"""

import argparse
import ctypes
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Threads each workload's pool runs with; never more than the 2 vCPUs the
# benchmark host has.
THREADS = {"offline-smd": 2, "serve-burst": 1, "serve-long": 1}

RUN_TIMEOUT_S = 170

# personality(2) flag that turns off address-space randomisation.
ADDR_NO_RANDOMIZE = 0x0040000


def steady_child(threads):
    """What the measured process gets before exec.

    The same memory layout on every run: with randomised layouts, identical
    code ran up to 40% apart between processes on the benchmark host while
    repeating within 3% inside one. A single-threaded workload is also
    pinned to the last CPU, away from CPU 0's interrupts; that halved its
    run-to-run spread there.
    """
    cpus = sorted(os.sched_getaffinity(0))

    def setup():
        ctypes.CDLL(None, use_errno=True).personality(ADDR_NO_RANDOMIZE)
        if threads == 1:
            os.sched_setaffinity(0, {cpus[-1]})

    return setup


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            manifest = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return {m["name"] for m in manifest["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_NET_OFFLINE="true")
    manifest = os.path.join(HERE, "Cargo.toml")
    # cargo runs from the checkout root so the repository's .cargo/config.toml
    # (target CPU) applies exactly as it does to the workspace.
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    exe = os.path.join(target, "release", "perfbench")
    common = ["--seed", str(args.seed), "--state-dir", os.path.join(target, "perfbench-state")]
    env["TRANAD_THREADS"] = str(THREADS[args.workload])
    if args.workload.startswith("serve-"):
        prepared = subprocess.run([exe, "prepare-serve", *common], cwd=ROOT, env=env, stdout=sys.stderr)
        if prepared.returncode != 0:
            fail("preparing the serving checkpoint failed")

    command = [exe, args.workload, *common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
            preexec_fn=steady_child(THREADS[args.workload]),
        )
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        fail(f"{args.workload} exited with {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the last line is not a JSON result")
    got, want = set(result["metrics"]), expected_metrics(args.trace)
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(want - got)}, extra {sorted(got - want)}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
