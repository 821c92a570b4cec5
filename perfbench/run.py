#!/usr/bin/env python3
"""tcmsim host-time benchmark: build the simulator from this checkout, then
run one workload in its own process and print its metrics.

    python3 perfbench/run.py --workload saturated|light|fleet \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout, and so do the run's state,
result records and traces. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; it carries
the end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1, exactly the names and units BENCHMARK.json lists.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def source_digest():
    """SHA-256 over the simulator sources and this benchmark: the code
    identity of a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def build(build_root):
    """Configure once, then build incrementally; compiler output goes to
    stderr so standard output stays the benchmark's."""
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "tcmbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "tcmbench")


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json lists
    for this mode, each with its listed unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result line has keys " + ", ".join(sorted(result))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        odd = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"unlisted {extra}, wrong unit {odd}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["saturated", "light", "fleet"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail(f"no tcmsim sources under {ROOT}/src; run from the "
                    "root of a tcmsim checkout")
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    binary = build(build_root)
    if binary is None:
        return fail("build failed")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(build_root, "perfbench-out"),
           "--commit", git_commit(), "--source-digest", source_digest()]
    # The simulator's TCMSIM_* knobs would change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TCMSIM_")}
    # The measured seconds, plus set-up, the oracle re-runs and, when
    # traced, the fleet replay: about ten seconds on a 4-thread host.
    timeout = args.seconds + 110
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {timeout:g} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        return fail(f"tcmbench exited with status {run.returncode}")
    problem = check_result(lines[-1], args.trace)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        return fail(problem)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
