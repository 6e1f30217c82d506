#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload chain_1core --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/ (which compiles ../src) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
nfvbench binary for one workload in its own process. The binary prints a
human report and, as its last line, the JSON result object. The exit code is
non-zero when the build fails, an output check fails, or the binary fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir: Path) -> Path:
    """Configure (once) and build; returns the binary. Exits 1 on failure."""
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = bdir / "CMakeCache.txt"
        if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in cache.read_text():
            shutil.rmtree(bdir / "CMakeFiles", ignore_errors=True)
            cache.unlink()
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = []
        if not cache.exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(bdir), "-j", jobs])
        with open(log, "w") as out:
            for cmd in steps:
                if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                    out.flush()
                    tail = log.read_text().splitlines()[-30:]
                    print("perfbench: build failed:\n" + "\n".join(tail), file=sys.stderr)
                    sys.exit(1)
    return bdir / "nfvbench"


def clean_env() -> dict:
    # The benchmark fixes engine, shard and worker counts itself.
    return {k: v for k, v in os.environ.items() if not k.startswith("NFV_")}


def run(cmd: list, timeout: float) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=clean_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: '{' '.join(cmd)}' timed out after {timeout:.0f} s",
              file=sys.stderr)
        sys.exit(1)


def golden() -> dict:
    return json.loads((HERE / "golden.json").read_text())


def benchmark(args) -> int:
    start = time.monotonic()
    binary = build(build_dir())
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    pinned = golden().get(args.workload)
    if pinned:
        cmd += ["--expect-digest", pinned]
    if args.trace:
        cmd += ["--spans-out", str(build_dir() / f"spans-{args.workload}.json")]
    proc = run(cmd, RUN_TIMEOUT_S - (time.monotonic() - start))
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == RESULT_KEYS
    except (IndexError, ValueError):
        ok = False
    if not ok:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: the benchmark printed no result line", file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


def self_test() -> int:
    """The benchmark's own checks: sliced == one-shot at sim_shards 0/1/4,
    pinned digests current, and a wrong pinned digest must fail a run."""
    binary = build(build_dir())
    proc = run([str(binary), "--self-test"], RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    failures = 0 if proc.returncode == 0 else 1
    pinned = golden()
    for line in proc.stdout.splitlines():
        if line.startswith("golden "):
            _, workload, digest = line.split()
            if pinned.get(workload) != digest:
                print(f"self-test: golden.json pins {pinned.get(workload)} for "
                      f"{workload}, the build gives {digest}")
                failures += 1
    bad = run([str(binary), "--workload", "chain_1core", "--seconds", "0.1",
               "--expect-digest", "0" * 16], RUN_TIMEOUT_S)
    rejected = bad.returncode != 0 and '"correct": false' in bad.stdout
    print(f"self-test: a wrong pinned digest is {'rejected' if rejected else 'ACCEPTED'}")
    failures += 0 if rejected else 1
    print(f"self-test: {'ok' if failures == 0 else 'FAILED'}")
    return 0 if failures == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
